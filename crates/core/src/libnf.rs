//! # The `libnf` surface: where each paper API lives here
//!
//! The paper's Fig 6 defines the abstraction library NF implementations
//! link against. This module documents how each call maps onto this
//! reproduction (it contains no code — the mechanisms live in
//! `nfv-platform` and `nfv-io`; this is the adopter's Rosetta stone).
//!
//! | `libnf` (paper) | Here |
//! |---|---|
//! | `libnf_read_pkt()` | the platform batch loop: [`Platform::plan_batch`](nfv_platform::Platform::plan_batch) dequeues ≤ 32 packets from the NF's RX ring, one descriptor per run of same-flow packets, blocking the NF (semaphore) when empty |
//! | `libnf_write_pkt(pkt)` | the `Forward` arm of [`Platform::finish_batch`](nfv_platform::Platform::finish_batch): enqueue to the NF's TX ring; a full ring spills to the outbox and suspends the NF (local backpressure) |
//! | `libnf_read_data` / `libnf_write_data` | [`nfv_io::DoubleBuffer::write`] driven from `finish_batch` when the NF has an [`NfIoSpec`](nfv_platform::NfIoSpec); completions run off the packet path, and only a double-buffer stall suspends the NF |
//! | the yield flag checked per batch | [`NfRuntime::yield_flag`](nfv_platform::NfRuntime) — set by the wakeup thread, consumed at the next `plan_batch` |
//! | packet handler callback | the [`PacketHandler`](nfv_platform::PacketHandler) trait: `handle(&mut self, pkt, now) -> Forward \| Drop`; ready-made NFs live in the `nfv-apps` crate |
//! | service-time sampling | `NfRuntime::last_ppp`, read by the monitor each millisecond into [`LoadMonitor`](crate::LoadMonitor)'s 100 ms median window |
//!
//! An NF author therefore writes: a [`PacketHandler`](nfv_platform::PacketHandler)
//! (functional behaviour), an [`NfSpec`](nfv_platform::NfSpec) (cost model,
//! core, rings, optional I/O profile), and registers both with
//! [`Simulation::add_nf_with_handler`](crate::Simulation::add_nf_with_handler).
