//! # nfv-des — deterministic discrete-event simulation kernel
//!
//! The foundation of the NFVnice reproduction: a nanosecond-resolution
//! simulated clock, a deterministic event queue (ties broken by insertion
//! order), seeded randomness, the measurement primitives the paper's
//! monitoring plane uses (service-time histograms, windowed medians, EWMA,
//! per-second rate meters, Jain's fairness index), and an opt-in runtime
//! sanitizer that audits conservation and scheduling invariants while
//! folding the event stream into a determinism-checking trace digest.
//!
//! Design follows the event-driven, allocation-light style of embedded
//! network stacks: the queue owns plain event values (no boxed closures),
//! cancellation is by lazy invalidation with generation counters, and every
//! run is bit-for-bit reproducible for a given seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod queue;
pub mod rng;
pub mod sanitizer;
pub mod stats;
pub mod time;

pub use queue::{EventQueue, QueueKind, QueueStats};
pub use rng::SimRng;
pub use sanitizer::{Sanitizer, SanitizerConfig, Severity, Violation};
pub use stats::{jain_index, DurationHistogram, Ewma, RateMeter, WindowedMedian};
pub use time::{CpuFreq, Duration, SimTime};
