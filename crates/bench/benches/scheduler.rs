//! Criterion microbenchmarks of the raw simulator scheduler: how many
//! events (timer firings + process context switches) the host executes
//! per real second. Every simulated verb, sleep, and wake costs at least
//! one such event, so this rate bounds the virtual-time throughput of
//! every experiment in this crate — it is the denominator behind the
//! `events` / `wall_ms` columns the figure binaries report.
//!
//! The workloads themselves live in [`heron_bench::sched_workloads`],
//! shared with the `sched_bench` binary that emits and gates
//! `bench_results/BENCH_scheduler.json`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use heron_bench::sched_workloads;
use std::time::Duration;

const EVENTS: u64 = 10_000;

fn bench_workloads(c: &mut Criterion) {
    let mut g = c.benchmark_group("scheduler");
    g.throughput(Throughput::Elements(EVENTS));
    for w in sched_workloads::all() {
        g.bench_function(&format!("{}_10k", w.name), |b| {
            b.iter_batched(
                || (w.build)(EVENTS),
                |simulation| {
                    simulation.run().unwrap();
                    assert!(simulation.events_executed() >= EVENTS / 2);
                },
                BatchSize::PerIteration,
            )
        });
    }
    g.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_workloads
}
criterion_main!(benches);
