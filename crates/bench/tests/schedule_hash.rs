//! Schedule-hash determinism regression test (DESIGN.md §12).
//!
//! The scheduler has two event queues — the reference binary heap and
//! the timer wheel — and both must execute the *bit-identical* event
//! schedule: same event-order FNV hash, same event count, same final
//! virtual time, same observable results. This pins the raw-speed
//! optimizations (timer wheel, pooled allocations) to the reference
//! semantics: any future reordering shows up here as a hash mismatch at
//! a fixed seed, long before it corrupts a figure.

use heron_bench::chaos;
use heron_bench::{run_heron, RunConfig, Workload};

fn engines() -> [(&'static str, sim::EngineConfig); 2] {
    let mk = |queue| sim::EngineConfig { queue };
    [
        ("heap", mk(sim::QueueKind::Heap)),
        ("wheel", mk(sim::QueueKind::Wheel)),
    ]
}

/// A two-partition fig4-shaped Heron run (TPC-C mix, fixed request count)
/// produces the same schedule fingerprint on every engine.
#[test]
fn fig4_shape_is_engine_invariant() {
    let mut baseline: Option<(u64, u64, u64, String, &str)> = None;
    for (name, engine) in engines() {
        let cfg = RunConfig::new(2, 3, Workload::Tpcc)
            .with_requests(30)
            .with_engine(engine);
        let s = run_heron(&cfg);
        let fp = (
            s.schedule_hash,
            s.events,
            s.virtual_ns,
            format!("tps={:.3} p99={:?}", s.tps, s.p99),
            name,
        );
        match &baseline {
            None => baseline = Some(fp),
            Some(b) => assert_eq!(
                (b.0, b.1, b.2, &b.3),
                (fp.0, fp.1, fp.2, &fp.3),
                "engine {} diverged from {}",
                name,
                b.4
            ),
        }
    }
    let (hash, events, _, _, _) = baseline.unwrap();
    assert_ne!(hash, 0, "schedule hash must be populated");
    assert!(
        events > 1_000,
        "run too small to be a meaningful fingerprint"
    );
}

/// Process roster per width: every replica has exactly one delivery
/// driver, `heron-exec-p{p}r{i}`; width 1 adds no worker process (the
/// driver is its own inline lane), width 4 adds exactly four,
/// `heron-exec-p{p}r{i}w{k}`.
#[test]
fn width_decides_the_worker_roster_not_the_driver() {
    for (width, workers_per_replica) in [(1usize, 0usize), (4, 4)] {
        let cfg = RunConfig::new(2, 3, Workload::Tpcc)
            .with_requests(30)
            .with_width(width)
            .with_profiling(true);
        let prof = run_heron(&cfg).prof.expect("profiling was on");
        let mut execs: Vec<&str> = prof
            .procs
            .iter()
            .map(|p| p.name.as_str())
            .filter(|n| n.starts_with("heron-exec-"))
            .collect();
        execs.sort_unstable();
        let mut expected = Vec::new();
        for p in 0..2 {
            for i in 0..3 {
                expected.push(format!("heron-exec-p{p}r{i}"));
                for k in 0..workers_per_replica {
                    expected.push(format!("heron-exec-p{p}r{i}w{k}"));
                }
            }
        }
        assert_eq!(execs, expected, "executor roster at width {width}");
    }
}

/// Chaos scenarios (seeded fault plans through the consistency checker)
/// reach the same verdict and schedule hash on every engine, across the
/// seed range the tier-1 chaos gate sweeps.
#[test]
fn chaos_verdicts_are_engine_invariant() {
    for seed in 9000..9004u64 {
        let sc = chaos::scenario_for_seed(seed, true);
        let mut baseline: Option<(String, u64, &str)> = None;
        for (name, engine) in engines() {
            let (verdict, hash) = chaos::run_with_engine(&sc, engine);
            let fp = (format!("{verdict:?}"), hash, name);
            match &baseline {
                None => baseline = Some(fp),
                Some(b) => assert_eq!(
                    (&b.0, b.1),
                    (&fp.0, fp.1),
                    "seed {seed}: engine {} diverged from {}",
                    name,
                    b.2
                ),
            }
        }
    }
}

/// A durable recovery scenario — checkpointer, WAL appends, power loss,
/// cold restart — executes the bit-identical schedule on every engine
/// and reaches the same verdict. This extends the determinism pin to
/// the storage layer: modeled disk latency is charged through the same
/// scheduler paths as every other event.
#[test]
fn durable_recovery_is_engine_invariant() {
    let sc = chaos::recovery_scenario_for_seed(9004, true);
    let mut baseline: Option<(u64, String, &str)> = None;
    for (name, engine) in engines() {
        let (result, hash) = chaos::run_with_engine(&sc, engine);
        let fp = (hash, format!("{result:?}"), name);
        match &baseline {
            None => baseline = Some(fp),
            Some(b) => assert_eq!(
                (b.0, &b.1),
                (fp.0, &fp.1),
                "engine {} diverged from {}",
                name,
                b.2
            ),
        }
    }
    let (hash, verdict, _) = baseline.unwrap();
    assert_ne!(hash, 0, "schedule hash must be populated");
    assert!(
        verdict.starts_with("Pass"),
        "recovery scenario must pass: {verdict}"
    );
}

/// With durability disabled the checkpoint subsystem must be inert: the
/// same workload hashes identically whether the config ever mentioned a
/// storage layer or not. (`recovery_bench --gate` additionally pins this
/// hash against the committed baseline across PRs.)
#[test]
fn durability_off_is_schedule_identical() {
    let mut sc = chaos::recovery_scenario_for_seed(9004, true);
    sc.clauses.clear(); // power-loss without a WAL would change the story
    sc.durability_us = None;
    let (r1, h1) = chaos::run_with_engine(&sc, sim::EngineConfig::default());
    let (r2, h2) = chaos::run_with_engine(&sc, sim::EngineConfig::default());
    assert_eq!(h1, h2, "durability-off run must be reproducible");
    assert_eq!(format!("{r1:?}"), format!("{r2:?}"));
    assert!(format!("{r1:?}").starts_with("Pass"), "{r1:?}");
}
