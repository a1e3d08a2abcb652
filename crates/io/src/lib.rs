//! # nfv-io — storage device model and asynchronous I/O engine
//!
//! Supports the paper's §3.4 ("Facilitating I/O") and the Fig 14
//! experiment: NFs that log packets to disk. `libnf` offers NFs an
//! asynchronous write API with *batching* (writes accumulate in a buffer)
//! and *double buffering* (one buffer fills while the other flushes); only
//! when both buffers are unavailable does the NF suspend and yield the CPU.
//! The baseline NF, without NFVnice, performs blocking writes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod device;
pub mod engine;

pub use device::StorageDevice;
pub use engine::{DoubleBuffer, WriteOutcome};
