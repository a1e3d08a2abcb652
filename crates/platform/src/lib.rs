//! # nfv-platform — an OpenNetVM-like NFV platform
//!
//! The structural layer NFVnice runs on: NF processes with RX/TX descriptor
//! rings over a shared mempool, service chains, a flow table, the manager's
//! RX/TX thread mechanisms (zero-copy descriptor movement, overload
//! feedback from ring enqueues), the `libnf` batch execution loop (≤32
//! packets per batch, yield-flag checks at batch boundaries, async storage
//! I/O with double buffering), and the OS scheduler + cgroups the NFs run
//! under.
//!
//! Policy — admission control, wakeup classification, ECN marking, CPU
//! weight assignment — is injected by the `nfvnice` crate; a platform
//! driven with no-op policies behaves like vanilla OpenNetVM (the paper's
//! "Default" baseline).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
pub mod nf;
pub mod platform;
pub mod stats;

pub use chain::ChainRegistry;
pub use nf::{
    BlockReason, CostModel, ForwardAll, IoMode, NfAction, NfHealth, NfIoSpec, NfRuntime, NfSpec,
    PacketHandler,
};
pub use platform::{AdmitFn, BatchEffects, BatchPlan, IoCompleteOutcome, Platform, PlatformConfig};
pub use stats::{
    ChainStats, DropLocation, FlowDetail, FlowStats, PlatformStats, TcpEvent, TcpEventKind,
};
