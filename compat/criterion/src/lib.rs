//! Offline stand-in for the `criterion` crate.
//!
//! The build container has no access to crates.io, so the workspace
//! vendors the slice of the criterion API its benches use: [`Criterion`],
//! [`BenchmarkGroup`], [`Bencher::iter`] / [`Bencher::iter_batched`],
//! [`BenchmarkId`], [`black_box`], and the [`criterion_group!`] /
//! [`criterion_main!`] macros.
//!
//! Measurement is deliberately simple — per benchmark it calibrates an
//! iteration count to a small time budget, takes `sample_size` timed
//! samples, and prints min/median/mean. Good enough for relative
//! comparisons in CI logs; it makes no statistical claims.

#![warn(missing_docs)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// An opaque identity function that prevents the optimizer from
/// deleting the benchmarked computation.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// How [`Bencher::iter_batched`] amortizes setup cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchSize {
    /// Small inputs: batch many iterations per setup.
    SmallInput,
    /// Large inputs: few iterations per setup.
    LargeInput,
    /// Run setup before every iteration.
    PerIteration,
}

/// Identifies one benchmark within a group, e.g. `lookup/1024`.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id with a function name and a parameter, `name/param`.
    pub fn new<S: Into<String>, P: Display>(name: S, param: P) -> Self {
        BenchmarkId {
            id: format!("{}/{}", name.into(), param),
        }
    }

    /// An id that is just the parameter value.
    pub fn from_parameter<P: Display>(param: P) -> Self {
        BenchmarkId {
            id: param.to_string(),
        }
    }
}

impl From<BenchmarkId> for String {
    fn from(id: BenchmarkId) -> String {
        id.id
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

/// Timing context passed to benchmark closures.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `iters` back-to-back calls of `routine`.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // The benchmark harness measures real time.
        #[allow(clippy::disallowed_methods)]
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }

    /// Times `routine` over inputs built by `setup`; only the routine
    /// is on the clock.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let mut total = Duration::ZERO;
        for _ in 0..self.iters {
            let input = setup();
            // The benchmark harness measures real time.
            #[allow(clippy::disallowed_methods)]
            let start = Instant::now();
            black_box(routine(input));
            total += start.elapsed();
        }
        self.elapsed = total;
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

/// Per-sample time budget: keeps full bench runs fast while still
/// averaging over enough iterations to be stable.
const SAMPLE_BUDGET: Duration = Duration::from_millis(10);

fn run_one<F: FnMut(&mut Bencher)>(
    label: &str,
    sample_size: usize,
    throughput: Option<Throughput>,
    mut f: F,
) {
    // Calibration pass: one iteration, to size later samples.
    let mut b = Bencher {
        iters: 1,
        elapsed: Duration::ZERO,
    };
    f(&mut b);
    let per_iter = b.elapsed.max(Duration::from_nanos(1));
    let iters = (SAMPLE_BUDGET.as_nanos() / per_iter.as_nanos()).clamp(1, 1_000_000) as u64;

    let mut samples_ns: Vec<f64> = Vec::with_capacity(sample_size);
    for _ in 0..sample_size {
        let mut b = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        samples_ns.push(b.elapsed.as_nanos() as f64 / iters as f64);
    }
    samples_ns.sort_by(|a, b| a.total_cmp(b));
    let min = samples_ns[0];
    let median = samples_ns[samples_ns.len() / 2];
    let mean = samples_ns.iter().sum::<f64>() / samples_ns.len() as f64;
    // Bytes per nanosecond is GB/s.
    let thrpt = throughput.map_or(String::new(), |Throughput::Bytes(n)| {
        format!("  thrpt {:.2} GB/s", n as f64 / median)
    });
    println!(
        "{label:<50} min {:>10}  median {:>10}  mean {:>10}  ({} samples x {} iters){thrpt}",
        fmt_ns(min),
        fmt_ns(median),
        fmt_ns(mean),
        samples_ns.len(),
        iters
    );
}

/// Work done by one iteration, so a group's results also read as a
/// rate.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Benchmark registry and runner.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Reads CLI configuration; a no-op here, kept for API parity.
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Starts a named group of related benchmarks.
    pub fn benchmark_group<S: Into<String>>(&mut self, name: S) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("\n== {name} ==");
        BenchmarkGroup {
            name,
            sample_size: 20,
            throughput: None,
            _criterion: self,
        }
    }

    /// Runs a standalone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        run_one(id, 20, None, f);
        self
    }
}

/// A named set of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n >= 2, "sample_size must be at least 2");
        self.sample_size = n;
        self
    }

    /// Declares the work one iteration of the following benchmarks does.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs a benchmark in this group.
    pub fn bench_function<I, F>(&mut self, id: I, f: F) -> &mut Self
    where
        I: Into<BenchmarkId>,
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, String::from(id.into()));
        run_one(&label, self.sample_size, self.throughput, f);
        self
    }

    /// Runs a benchmark parameterized by `input`.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id.id);
        run_one(&label, self.sample_size, self.throughput, |b| f(b, input));
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Declares a function that runs the listed benchmark targets.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` for a `harness = false` bench target.
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

    fn targets_run_and_print(c: &mut Criterion) {
        let mut group = c.benchmark_group("shim");
        group.sample_size(3);
        group.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        group.bench_with_input(BenchmarkId::new("sum_to", 50), &50u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        group.bench_with_input(BenchmarkId::from_parameter(7), &7u64, |b, &n| {
            b.iter_batched(
                || vec![n; 16],
                |v| v.iter().sum::<u64>(),
                BatchSize::SmallInput,
            )
        });
        group.finish();
        c.bench_function("standalone", |b| b.iter(|| black_box(1 + 1)));
    }

    criterion_group!(benches, targets_run_and_print);

    #[test]
    fn group_macro_produces_runnable_fn() {
        benches();
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(
            String::from(BenchmarkId::new("lookup", 1024)),
            "lookup/1024"
        );
        assert_eq!(String::from(BenchmarkId::from_parameter(8)), "8");
    }
}
