//! Offline shim for the `criterion` crate.
//!
//! Implements the criterion API surface the workspace's benches use —
//! `Criterion`, `BenchmarkGroup`, `Bencher::iter`/`iter_batched`,
//! `Throughput`, and the `criterion_group!`/`criterion_main!` macros —
//! as a simple wall-clock harness: warm up, take `sample_size` samples,
//! report the median time per iteration (and derived throughput when
//! requested). No statistical machinery, no HTML reports; the point is a
//! stable, dependency-free number on a machine with no registry access.
#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level harness configuration and entry point.
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        // Substring filter: `cargo bench -- <filter>` (skip flags).
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Criterion {
            sample_size: 20,
            measurement_time: Duration::from_secs(2),
            warm_up_time: Duration::from_millis(300),
            filter,
        }
    }
}

impl Criterion {
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n >= 2, "sample_size must be >= 2");
        self.sample_size = n;
        self
    }

    pub fn measurement_time(mut self, t: Duration) -> Self {
        self.measurement_time = t;
        self
    }

    pub fn warm_up_time(mut self, t: Duration) -> Self {
        self.warm_up_time = t;
        self
    }

    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let throughput = None;
        run_benchmark(self, name, throughput, f);
        self
    }

    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            throughput: None,
        }
    }
}

/// Group of related benchmarks sharing a name prefix (and optionally a
/// throughput annotation).
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n >= 2, "sample_size must be >= 2");
        self.criterion.sample_size = n;
        self
    }

    pub fn measurement_time(&mut self, t: Duration) -> &mut Self {
        self.criterion.measurement_time = t;
        self
    }

    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, name);
        let throughput = self.throughput;
        run_benchmark(self.criterion, &full, throughput, f);
        self
    }

    pub fn finish(self) {}
}

/// Units processed per iteration, for derived rates.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    Elements(u64),
    Bytes(u64),
}

/// How `iter_batched` amortizes setup cost. The shim always runs one
/// setup per routine invocation, which is exactly `PerIteration`
/// semantics and a safe upper bound for the others.
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// Passed to the benchmark closure; runs and times the routine.
pub struct Bencher {
    target_time: Duration,
    /// Mean nanoseconds per iteration measured for one sample.
    sample_ns: f64,
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Estimate cost, then size the sample to the target time.
        let t0 = Instant::now();
        black_box(f());
        let once = t0.elapsed().max(Duration::from_nanos(1));
        let iters = (self.target_time.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;
        let t1 = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        self.sample_ns = t1.elapsed().as_nanos() as f64 / iters as f64;
    }

    pub fn iter_batched<S, O, Setup, Routine>(
        &mut self,
        mut setup: Setup,
        mut routine: Routine,
        _size: BatchSize,
    ) where
        Setup: FnMut() -> S,
        Routine: FnMut(S) -> O,
    {
        // Time only the routine, never the setup.
        let input = setup();
        let t0 = Instant::now();
        black_box(routine(input));
        let once = t0.elapsed().max(Duration::from_nanos(1));
        let iters = (self.target_time.as_nanos() / once.as_nanos()).clamp(1, 100_000) as u64;
        let mut total = Duration::ZERO;
        for _ in 0..iters {
            let input = setup();
            let t = Instant::now();
            black_box(routine(input));
            total += t.elapsed();
        }
        self.sample_ns = total.as_nanos() as f64 / iters as f64;
    }
}

fn run_benchmark<F>(c: &Criterion, name: &str, throughput: Option<Throughput>, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    if let Some(filter) = &c.filter {
        if !name.contains(filter.as_str()) {
            return;
        }
    }
    let per_sample = c.measurement_time / c.sample_size as u32;
    // Warm-up: run samples until the warm-up budget is spent.
    let warm_deadline = Instant::now() + c.warm_up_time;
    let mut b = Bencher {
        target_time: per_sample.max(Duration::from_micros(100)),
        sample_ns: 0.0,
    };
    while Instant::now() < warm_deadline {
        f(&mut b);
    }
    let mut samples: Vec<f64> = Vec::with_capacity(c.sample_size);
    for _ in 0..c.sample_size {
        f(&mut b);
        samples.push(b.sample_ns);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let median = samples[samples.len() / 2];
    let lo = samples[0];
    let hi = samples[samples.len() - 1];
    let rate = throughput.map(|t| match t {
        Throughput::Elements(n) => format!(" ({} elem/s)", human_rate(n as f64 * 1e9 / median)),
        Throughput::Bytes(n) => format!(" ({}B/s)", human_rate(n as f64 * 1e9 / median)),
    });
    println!(
        "{name:<50} time: [{} {} {}]{}",
        human_time(lo),
        human_time(median),
        human_time(hi),
        rate.unwrap_or_default()
    );
}

fn human_time(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.2} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

fn human_rate(per_sec: f64) -> String {
    if per_sec >= 1e9 {
        format!("{:.2} G", per_sec / 1e9)
    } else if per_sec >= 1e6 {
        format!("{:.2} M", per_sec / 1e6)
    } else if per_sec >= 1e3 {
        format!("{:.2} K", per_sec / 1e3)
    } else {
        format!("{per_sec:.1} ")
    }
}

/// Defines a benchmark group function callable from `criterion_main!`.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $cfg;
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

/// Defines `main` running the listed groups.
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

    fn quick() -> Criterion {
        Criterion {
            sample_size: 3,
            measurement_time: Duration::from_millis(3),
            warm_up_time: Duration::from_millis(1),
            filter: None,
        }
    }

    #[test]
    fn bench_function_runs_and_reports() {
        let mut c = quick();
        let mut ran = false;
        c.bench_function("smoke", |b| {
            ran = true;
            b.iter(|| black_box(1u64 + 1));
        });
        assert!(ran);
    }

    #[test]
    fn groups_and_batched_iteration_work() {
        let mut c = quick();
        let mut g = c.benchmark_group("group");
        g.throughput(Throughput::Elements(10));
        g.bench_function("batched", |b| {
            b.iter_batched(|| vec![1u8; 16], |v| v.len(), BatchSize::PerIteration)
        });
        g.finish();
    }
}
