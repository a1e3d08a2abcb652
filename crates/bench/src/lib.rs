//! # nfv-bench — experiment harness for the NFVnice reproduction
//!
//! Regenerates every table and figure of the paper's evaluation (§4).
//! The `nfv-bench` binary drives full-fidelity runs; the criterion benches
//! under `benches/` run compressed versions of the same cells plus
//! microbenchmarks and design-ablation comparisons.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod util;

pub use util::{
    enable_metrics, enable_sanitizer, enable_trace, flush_trace, metrics_csv, metrics_json,
    print_timings, run_logged, run_suite, sanitizer_enabled, set_suite_meta, timings_json, Exp,
    RunLength, Table,
};
