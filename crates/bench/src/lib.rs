//! # nfv-bench — experiment harness for the NFVnice reproduction
//!
//! Regenerates every table and figure of the paper's evaluation (§4).
//! The `nfv-bench` binary drives full-fidelity runs; `tests/paper_claims.rs`
//! runs short versions of the same cells and asserts the paper's shape
//! results (DESIGN.md §3) on them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod util;

pub use util::{
    enable_metrics, enable_sanitizer, enable_trace, flush_trace, metrics_csv, metrics_json,
    print_timings, run_logged, run_suite, sanitizer_enabled, set_suite_meta, timings_json, Exp,
    RunLength, Table,
};
