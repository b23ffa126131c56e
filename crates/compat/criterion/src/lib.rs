//! Offline stand-in for the crates.io `criterion` crate.
//!
//! This build environment has no network access, so the workspace vendors a
//! minimal, API-compatible subset of criterion 0.5: enough for
//! `criterion_group!`/`criterion_main!` harnesses with `bench_function`,
//! `benchmark_group`, `bench_with_input` and `Bencher::iter`.
//!
//! Semantics follow the original where it matters for CI:
//!
//! - `cargo bench` (cargo passes `--bench` to the binary) runs timed samples
//!   and prints a mean per benchmark.
//! - `cargo bench -- --test`, or any invocation without `--bench`, runs each
//!   benchmark routine exactly once as a smoke test.
//!
//! There is no statistical analysis, plotting, or baseline comparison; swap
//! the workspace dependency back to the registry version to get those.

#![expect(clippy::disallowed_methods, reason = "a benchmark harness measures wall-clock time")]

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Opaque value barrier preventing the optimizer from deleting benched work.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// One recorded benchmark result, kept so harness `main`s can emit a
/// machine-readable report after the groups have run (the upstream crate
/// writes `target/criterion/**/estimates.json`; this stand-in exposes the
/// numbers in-process instead).
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Full benchmark id (`group/function/parameter`).
    pub id: String,
    /// Mean seconds per iteration (0.0 in `--test` smoke mode).
    pub mean_secs: f64,
    /// Timed iterations behind the mean (1 in smoke mode).
    pub iters: u64,
    /// Whether this was a smoke run (`--test`), not a measurement.
    pub smoke: bool,
}

/// Every measurement reported by [`Bencher`] runs in this process.
static MEASUREMENTS: Mutex<Vec<Measurement>> = Mutex::new(Vec::new());

/// Drains the measurements recorded so far, in execution order.
pub fn take_measurements() -> Vec<Measurement> {
    std::mem::take(&mut *MEASUREMENTS.lock().unwrap_or_else(|e| e.into_inner()))
}

fn cli_test_mode() -> bool {
    let mut saw_bench = false;
    for a in std::env::args() {
        if a == "--test" {
            return true;
        }
        if a == "--bench" {
            saw_bench = true;
        }
    }
    !saw_bench
}

/// Flags of the upstream criterion CLI that take a separate value; their
/// value token must not be mistaken for a benchmark-name filter.
const VALUE_FLAGS: &[&str] = &[
    "--save-baseline",
    "--baseline",
    "--baseline-lenient",
    "--load-baseline",
    "--sample-size",
    "--warm-up-time",
    "--measurement-time",
    "--nresamples",
    "--noise-threshold",
    "--confidence-level",
    "--significance-level",
    "--profile-time",
    "--output-format",
    "--color",
    "--plotting-backend",
];

/// Positional (non-flag) CLI args are benchmark-name filters, as in the
/// original: `cargo bench bitset` runs only benchmarks whose id contains
/// "bitset". Values of known value-taking flags are skipped.
fn cli_filters() -> Vec<String> {
    let mut filters = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if VALUE_FLAGS.contains(&a.as_str()) {
            args.next();
        } else if !a.starts_with('-') {
            filters.push(a);
        }
    }
    filters
}

/// Benchmark driver: holds measurement settings and runs registered routines.
pub struct Criterion {
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
    test_mode: bool,
    filters: Vec<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 10,
            warm_up_time: Duration::from_millis(100),
            measurement_time: Duration::from_millis(500),
            test_mode: cli_test_mode(),
            filters: cli_filters(),
        }
    }
}

impl Criterion {
    /// Number of timed iterations per benchmark (upper bound here).
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Untimed warm-up budget before measurement starts.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    /// Wall-clock budget for the timed iterations of one benchmark.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Kept for API compatibility; CLI args are read in [`Criterion::default`].
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Runs one named benchmark (skipped unless it matches the CLI filter).
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        if !self.matches(id) {
            return self;
        }
        let mut b = self.make_bencher();
        f(&mut b);
        b.report(id);
        self
    }

    /// Opens a named group of related benchmarks. Setting overrides on the
    /// group affects only the group, as in the original.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        let sample_size = self.sample_size;
        let measurement_time = self.measurement_time;
        BenchmarkGroup { criterion: self, name: name.to_string(), sample_size, measurement_time }
    }

    fn matches(&self, id: &str) -> bool {
        self.filters.is_empty() || self.filters.iter().any(|f| id.contains(f.as_str()))
    }

    fn make_bencher(&self) -> Bencher {
        Bencher {
            sample_size: self.sample_size,
            warm_up_time: self.warm_up_time,
            measurement_time: self.measurement_time,
            test_mode: self.test_mode,
            iters: 0,
            elapsed: Duration::ZERO,
        }
    }
}

/// Identifier for a parameterized benchmark: `function_name/parameter`.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Builds `function_name/parameter`.
    pub fn new<P: std::fmt::Display>(function_name: &str, parameter: P) -> Self {
        BenchmarkId { id: format!("{function_name}/{parameter}") }
    }

    /// Uses the parameter alone as the id.
    pub fn from_parameter<P: std::fmt::Display>(parameter: P) -> Self {
        BenchmarkId { id: parameter.to_string() }
    }
}

/// A group of related benchmarks sharing a name prefix and settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    measurement_time: Duration,
}

impl BenchmarkGroup<'_> {
    /// Overrides the sample size for benchmarks in this group only.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Overrides the measurement budget for benchmarks in this group only.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Runs one named benchmark inside the group (subject to the CLI filter).
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id);
        if !self.criterion.matches(&full) {
            return self;
        }
        let mut b = self.make_group_bencher();
        f(&mut b);
        b.report(&full);
        self
    }

    /// Runs one benchmark parameterized by `input`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.id);
        if !self.criterion.matches(&full) {
            return self;
        }
        let mut b = self.make_group_bencher();
        f(&mut b, input);
        b.report(&full);
        self
    }

    fn make_group_bencher(&self) -> Bencher {
        let mut b = self.criterion.make_bencher();
        b.sample_size = self.sample_size;
        b.measurement_time = self.measurement_time;
        b
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Timer handle passed to each benchmark routine.
pub struct Bencher {
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
    test_mode: bool,
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `routine`. In test mode it runs exactly once. In bench mode it
    /// warms up (estimating per-call cost with the clock read only once per
    /// 1024 calls), sizes a batch so `sample_size` timed batches fill the
    /// measurement budget, and times whole batches — so clock-read overhead
    /// is amortized and nanosecond-scale routines measure the routine, not
    /// `Instant::now()`.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        if self.test_mode {
            black_box(routine());
            self.iters = 1;
            self.elapsed = Duration::ZERO;
            return;
        }
        // Warm-up with geometrically growing chunks: a slow routine exits
        // after one call, a nanosecond routine ramps to 1024 calls per clock
        // read so the per-call estimate is not dominated by Instant::now().
        let warm_start = Instant::now();
        let mut warm_calls = 0u64;
        let mut chunk = 1u64;
        loop {
            for _ in 0..chunk {
                black_box(routine());
            }
            warm_calls += chunk;
            if warm_start.elapsed() >= self.warm_up_time {
                break;
            }
            chunk = (chunk * 2).min(1024);
        }
        let per_call = warm_start.elapsed().as_secs_f64() / warm_calls as f64;
        let total_iters = (self.measurement_time.as_secs_f64() / per_call.max(1e-12)) as u64;
        let batch = (total_iters / self.sample_size as u64).clamp(1, 1 << 32);
        let mut elapsed = Duration::ZERO;
        let mut iters = 0u64;
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            elapsed += start.elapsed();
            iters += batch;
        }
        self.iters = iters.max(1);
        self.elapsed = elapsed;
    }

    fn report(&self, id: &str) {
        let mean =
            if self.test_mode { 0.0 } else { self.elapsed.as_secs_f64() / self.iters as f64 };
        MEASUREMENTS.lock().unwrap_or_else(|e| e.into_inner()).push(Measurement {
            id: id.to_string(),
            mean_secs: mean,
            iters: self.iters,
            smoke: self.test_mode,
        });
        if self.test_mode {
            println!("test {id} ... ok (smoke)");
        } else {
            println!("{id:<50} time: {} ({} iters)", format_duration(mean), self.iters);
        }
    }
}

fn format_duration(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} us", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

/// Declares a benchmark group function, mirroring criterion's macro forms.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the `main` that runs every listed group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
