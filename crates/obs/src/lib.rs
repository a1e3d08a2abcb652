//! # nfv-obs — observability for the NFVnice simulation
//!
//! Two complementary recording layers, both **zero-overhead when off** and
//! both strictly deterministic (they only read simulated state, never wall
//! clocks, and store everything in insertion order):
//!
//! * [`TraceSink`] — structured *events* at the policy/mechanism decision
//!   points: throttle enter/exit, chain mark/clear, cgroup share writes,
//!   NF sleep/wake/yield, packet drops by cause, ECN marks and context
//!   switches. A sink is a cheap cloneable handle (the simulation is
//!   single-threaded, so handles share one buffer via `Rc<RefCell<..>>`);
//!   a disabled sink holds no buffer and recording is a single branch.
//! * [`MetricsRecorder`] — per-NF and per-chain *time series* sampled on
//!   the monitor tick: queue depth, backpressure state, cgroup shares,
//!   arrival rate λ, median service time, and mempool in-flight packets.
//!
//! Exporters render traces as JSONL or CSV and metrics as a single JSON
//! document or CSV — all hand-rolled (the workspace has no external
//! dependencies) and byte-deterministic for a given recording.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod trace;

pub(crate) mod json;

pub use metrics::{ChainSeries, MetricsRecorder, NfSeries};
pub use trace::{
    trace_to_csv, trace_to_jsonl, trace_to_jsonl_into, DropCause, SleepReason, TraceEvent,
    TraceKind, TraceSink, NO_ID,
};
