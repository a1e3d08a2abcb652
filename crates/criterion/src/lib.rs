//! Offline stand-in for the `criterion` benchmark harness.
//!
//! This workspace builds where crates.io is unreachable, so the real
//! criterion cannot be vendored. This crate provides the subset of its API
//! the workspace's benches use — `Criterion`, `BenchmarkGroup`,
//! `Throughput`, `black_box`, `Bencher::iter`, and the
//! `criterion_group!`/`criterion_main!` macros — with a simple adaptive
//! timing loop instead of criterion's statistical machinery. Output is one
//! line per benchmark: mean wall time per iteration and, when a
//! `Throughput` is set, the derived element rate.
//!
//! Like the real crate, passing `--test` (as in
//! `cargo bench --workspace -- --test`) switches to assert-only mode:
//! every benchmark body runs exactly once, unmeasured, so the headline
//! property asserts inside the per-figure cells still fire while the run
//! finishes in CI-smoke time.
//!
//! Wall-clock use is confined to this harness; the simulator itself never
//! reads a clock (`nfv-lint` enforces that, and skips this crate).

#![forbid(unsafe_code)]

use std::sync::OnceLock;
use std::time::Instant;

/// Assert-only mode: run each benchmark once without timing. Set by the
/// `--test` CLI flag, mirroring criterion's flag of the same name.
fn test_mode() -> bool {
    static MODE: OnceLock<bool> = OnceLock::new();
    *MODE.get_or_init(|| std::env::args().any(|a| a == "--test"))
}

/// Rate denomination for reported throughput.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Passed to the closure given to `bench_function`; call [`Bencher::iter`]
/// with the code under measurement.
#[derive(Debug, Default)]
pub struct Bencher {
    iters: u64,
    nanos: u128,
}

impl Bencher {
    /// Time `f`, running it enough times to smooth out noise. In `--test`
    /// mode, run it exactly once (asserts fire, nothing is measured).
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        if test_mode() {
            black_box(f());
            self.iters = 1;
            self.nanos = 0;
            return;
        }
        // Warm-up: also gives a cost estimate to size the measured batch.
        let warmup_start = Instant::now();
        let mut warmup_iters = 0u64;
        while warmup_iters < 3 || warmup_start.elapsed().as_millis() < 20 {
            black_box(f());
            warmup_iters += 1;
            if warmup_iters >= 1_000_000 {
                break;
            }
        }
        let per_iter = warmup_start.elapsed().as_nanos() / warmup_iters as u128;
        // Measure for ~100 ms or 1M iterations, whichever comes first.
        let target = (100_000_000u128 / per_iter.max(1)).clamp(1, 1_000_000) as u64;
        let start = Instant::now();
        for _ in 0..target {
            black_box(f());
        }
        self.nanos = start.elapsed().as_nanos();
        self.iters = target;
    }

    fn mean_ns(&self) -> f64 {
        if self.iters == 0 {
            return 0.0;
        }
        self.nanos as f64 / self.iters as f64
    }
}

fn report(name: &str, b: &Bencher, throughput: Option<Throughput>) {
    if test_mode() {
        println!("bench {name:<40} ok (--test, ran once)");
        return;
    }
    let mean = b.mean_ns();
    let rate = throughput.map(|t| match t {
        Throughput::Elements(n) | Throughput::Bytes(n) => {
            if mean > 0.0 {
                n as f64 * 1e9 / mean
            } else {
                0.0
            }
        }
    });
    match rate {
        Some(r) => println!("bench {name:<40} {mean:>12.1} ns/iter ({r:>12.0} elem/s)"),
        None => println!("bench {name:<40} {mean:>12.1} ns/iter"),
    }
}

/// The top-level harness handle.
#[derive(Debug, Default)]
pub struct Criterion {
    _priv: (),
}

impl Criterion {
    /// Run one named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let mut b = Bencher::default();
        f(&mut b);
        report(name, &b, None);
        self
    }

    /// Open a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _c: self,
            name: name.to_string(),
            throughput: None,
        }
    }
}

/// A group of related benchmarks sharing a name prefix and throughput.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    _c: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Set the per-iteration throughput used for rate reporting.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Accepted for API compatibility; the adaptive loop sizes itself.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Run one named benchmark within the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let mut b = Bencher::default();
        f(&mut b);
        report(&format!("{}/{}", self.name, name), &b, self.throughput);
        self
    }

    /// Close the group.
    pub fn finish(self) {}
}

/// Opaque-to-the-optimizer identity, re-exported from std.
pub use std::hint::black_box;

/// Collect benchmark functions into a group runner, as the real crate does.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Generate `main` running the listed groups. Of the harness arguments
/// cargo passes through, only `--test` (assert-only mode) is honored;
/// `--bench` and name filters are ignored.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        let mut b = Bencher::default();
        let mut acc = 0u64;
        b.iter(|| {
            acc = acc.wrapping_add(black_box(1));
        });
        assert!(b.iters > 0);
        assert!(b.mean_ns() >= 0.0);
        assert!(acc > 0);
    }

    #[test]
    fn group_api_chains() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("g");
        g.throughput(Throughput::Elements(1)).sample_size(10);
        g.bench_function("noop", |b| b.iter(|| black_box(0)));
        g.finish();
        c.bench_function("top", |b| b.iter(|| black_box(0)));
    }
}
