//! The schedule-identity proof (DESIGN.md §12), stated once.
//!
//! The kernel has one event queue and three diagnostic switches — the
//! Sim-TSan race detector, virtual-time tracing with the Sim-Prof wait
//! states and gauges, and Sim-Check exploration under Baseline. None
//! of them may move the schedule, alone or together, and no PR that
//! claims "behaviour untouched" may move it either. Both statements are
//! one table: every shape is run with each column of switches, every cell
//! of a row must report the same `(schedule_hash, events, virtual_ns)`,
//! and that triple must be the committed one.
//!
//! A column is switched one way for every shape: on the object each
//! diagnostic lives on — the race detector on the fabric, the other two
//! on the simulation — before the shape's deployment is built on them,
//! whether a load run or a chaos scenario then drives it.
//!
//! A red cell here means one of two things. If only some columns moved,
//! a diagnostic hook perturbed the schedule — fix the hook. If the whole
//! row moved together, the protocol's schedule changed — re-pin only if
//! the PR meant to change behaviour, and say so.

use heron_bench::chaos::{self, RunResult, Scenario};
use heron_bench::{run_heron_on, RunConfig, Workload};
use heron_core::HeronConfig;
use rdma_sim::{Fabric, LatencyModel};
use sim::{ExploreConfig, Simulation, StrategyKind};
use std::time::Duration;

/// Which of the three diagnostic layers a run carries.
#[derive(Clone, Copy)]
struct Switches {
    race: bool,
    trace: bool,
    explore: bool,
}

const OFF: Switches = Switches {
    race: false,
    trace: false,
    explore: false,
};

/// The table's columns: no switch, each alone, all three together.
const COLUMNS: [(&str, Switches); 5] = [
    ("off", OFF),
    ("race", Switches { race: true, ..OFF }),
    ("trace", Switches { trace: true, ..OFF }),
    (
        "explore",
        Switches {
            explore: true,
            ..OFF
        },
    ),
    (
        "all",
        Switches {
            race: true,
            trace: true,
            explore: true,
        },
    ),
];

enum Shape {
    /// A closed-loop TPC-C load run through the bench harness.
    Load(Box<RunConfig>),
    /// A bank scenario through the consistency checker.
    Chaos(Scenario),
}

struct Row {
    name: &'static str,
    shape: Shape,
    /// The committed `(schedule_hash, events, virtual_ns)`.
    pin: (u64, u64, u64),
}

/// The table's rows.
///
/// Three of the load shapes are the fig4 ladder entry, the same shape
/// under a crash/recovery, and a width-4 P-SMR pool, at the quick sizes and
/// seeds 42/43/44 their hashes and event counts were first committed with
/// (the profiler's overhead report, PR 10 through PR 14). The fourth,
/// `fig4-tpcc-2p-b8`, is the ladder entry at `max_batch = 8` — every other
/// row runs at 1 — pinned on the code that still had a separate unbatched
/// path beside the batched one (PR 19 folded them). `recovery-dur-off`
/// is recovery seed 9004 with its faults and checkpointing stripped — no
/// storage is built, so the durability subsystem must be invisible (hash
/// from `BENCH_recovery.json`). `recovery-9003` is the durable ladder's
/// whole-partition power loss: cold restarts, then an election whose
/// winner backfills two shorter peers — the run that hashed to one of two
/// values until the backfill order stopped depending on a `HashMap`.
/// Event counts and final times the JSON files never carried were read off
/// the runs that reproduced the committed hashes. The two rows that run a
/// state transfer, `chaos-tpcc-2p` and `recovery-9003`, were re-pinned
/// when the lagger's driver took over applying its own transfer chunks
/// from the service process: the same `virtual_ns`, a few events fewer.
/// `recovery-9003` moved once more, alone, when state transfer began to
/// pick what changed from the store's version stamps: a lagger below its
/// responder's checkpoint bound now receives the objects written since,
/// not the whole store: fewer bytes on the wire, the same events and
/// `virtual_ns`, another hash. It moved a third time, alone, when an idle
/// delivery driver began to wake on a power cycle instead of sleeping
/// through it to its poll timeout: the same events and `virtual_ns`,
/// another hash. It moved a fourth time, alone, when a power cut began to
/// kill the node's processes and its recovery to boot fresh ones: each
/// replica reloads at its own recovery instant rather than when its old
/// process next woke, and the killed processes unwind; 5 512 → 6 783
/// events, the run ends 1.2 ms sooner. It moved a fifth time, alone, when
/// a booted replica began to rejoin the way a crashed one does — after
/// its WAL is loaded, with lost lanes in place of a timed rescan — and a
/// rejoined follower whose stale epoch names itself stopped forwarding
/// submissions into its own control lane: 6 783 → 6 777 events (the
/// dropped self-forwards; the rejoin alone moves the hash only), the same
/// `virtual_ns`. It moved a sixth time, alone, when a writer booted after a
/// power cut began to resume its control lanes above the stamps its last
/// life wrote, reading each lane where it lives at its first post there:
/// 6 777 → 6 785 events (the lane reads), the run ends 42.8 µs later. It
/// moved a seventh time, alone, when a client began to suspect a group
/// silent for the ordering layer's election timeout and to follow its
/// epoch instead of waiting out its 20 ms retry: its clients find the
/// elected leader within milliseconds of the power loss, 6 785 → 3 621
/// events, and the run ends at 13.9 ms instead of 31.9 ms.
///
/// Every row with a store moved once together, when a slot stopped
/// reserving 64 bytes of growth room per version beyond its first
/// value's word-rounded length: each one-sided read of a slot carries
/// 128 bytes less, and so does each transfer record and checkpoint
/// image. `recovery-dur-off` kept its pin; the other six kept their
/// agreement across all six columns. The table has five since tracing
/// became the switch for wait states and gauges too and the profiling
/// column went; nothing was re-pinned.
///
/// `psmr-tpcc-2p-w4` moved alone, in all five columns, when the pool
/// began to dispatch past a blocked queue front: independent commands
/// stopped waiting, so its fixed 4 ms window holds more of them, 72 908 →
/// 73 666 events. `pool-bank-w4` kept its pin: its crash schedule never
/// has an independent command behind a blocked one.
///
/// Every row moved together, in all five columns, when a one-group
/// message stopped writing a proposal and a final to each follower and
/// the ordering leader began to sequence what is final before it pays for
/// the next group-commit window. The fixed 4 ms windows hold fewer events
/// per command: `fig4-tpcc-2p` 25 591 → 22 592, `fig4-tpcc-2p-b8`
/// 28 475 → 24 656, `chaos-tpcc-2p` 21 499 → 18 519; `psmr-tpcc-2p-w4`
/// holds more commands, 73 666 → 75 188 events. The chaos rows end at
/// new instants: `recovery-dur-off` 10.70 → 10.47 ms and `pool-bank-w4`
/// 10.68 → 10.60 ms earlier; `recovery-9003`, whose whole partition loses
/// power at 0.56 ms, 13.93 → 15.25 ms later. Its faster ordering before
/// the cut left a different prefix durable, and its election and retries
/// after the boot fell differently; every check still passes.
///
/// `psmr-tpcc-2p-w4` moved alone, in all five columns, when a conflict
/// key could be held shared and a TPC-C NewOrder began to hold each stock
/// row it updates exclusive and its warehouse's stock token shared:
/// NewOrders of one warehouse stopped waiting for each other unless they
/// share an item or a district, 75 188 → 74 913 events in the fixed 4 ms
/// window. `pool-bank-w4` declares no shared key and kept its pin.
///
/// Every row runs all five columns, 35 cells. The race detector shadows
/// only what processes touch (DESIGN.md §10), so the pool row's
/// 16-warehouse store, bootstrapped from host context, costs it little:
/// the whole table runs in ≈ 80 s at a 3.1 GiB peak in the test profile
/// on a 2-core x86-64 VM, the rows in parallel. `pool-bank-w4` — a
/// width-4 pool on the bank's small store, crashing mid-batch — puts the
/// detector's pool instrumentation (lanes, progress words) through a
/// crash as well.
fn table() -> Vec<Row> {
    let two = || HeronConfig::new(2, 3);
    let load = |seed: u64, heron: HeronConfig| {
        let mut cfg = RunConfig::new(heron, Workload::Tpcc).quick(true);
        cfg.seed = seed;
        cfg.warmup = Duration::from_millis(1);
        cfg.window = Duration::from_millis(3);
        cfg
    };
    let (down, up) = (Duration::from_millis(1), Duration::from_millis(3));
    let mut dur_off = chaos::recovery_scenario_for_seed(9004, true);
    dur_off.clauses.clear(); // power loss without a WAL would change the story
    dur_off.durability_us = None;
    let row = |name, shape, pin| Row { name, shape, pin };
    let load_row = |name, cfg: RunConfig, pin| row(name, Shape::Load(Box::new(cfg)), pin);
    vec![
        load_row(
            "fig4-tpcc-2p",
            load(42, two()),
            (0x808c28f0f8f09fd5, 22_592, 4_000_000),
        ),
        load_row(
            "fig4-tpcc-2p-b8",
            load(45, two().with_max_batch(8)),
            (0x96fe3a8786efe3b8, 24_656, 4_000_000),
        ),
        load_row(
            "chaos-tpcc-2p",
            load(43, two()).with_crash(down, up),
            (0xd294bf974a0f38b5, 18_519, 4_000_000),
        ),
        load_row(
            "psmr-tpcc-2p-w4",
            load(44, two().with_executor_width(4)).with_warehouses_per_partition(8),
            (0x299477d5e78b2cbb, 74_913, 4_000_000),
        ),
        row(
            "recovery-dur-off",
            Shape::Chaos(dur_off),
            (0x69694aa01f0cb1b0, 2_282, 10_472_492),
        ),
        row(
            "recovery-9003",
            Shape::Chaos(chaos::recovery_scenario_for_seed(9003, true)),
            (0x39fbeae45b6e7298, 3_297, 15_245_538),
        ),
        row(
            "pool-bank-w4",
            Shape::Chaos(chaos::parallel_scenario_for_seed(9000, true)),
            (0xc95b74b7d9354bf6, 23_739, 10_603_199),
        ),
    ]
}

/// Runs `shape` with `sw` switched on its simulation and fabric and
/// returns `(schedule_hash, events, virtual_ns)`.
fn fingerprint(shape: &Shape, sw: Switches) -> (u64, u64, u64) {
    let seed = match shape {
        Shape::Load(cfg) => cfg.seed,
        Shape::Chaos(sc) => sc.seed,
    };
    let simulation = Simulation::new(seed);
    let fabric = Fabric::new(LatencyModel::connectx4());
    if sw.race {
        fabric.enable_race_detector();
    }
    if sw.trace {
        simulation.enable_tracing();
    }
    if sw.explore {
        simulation.enable_exploration(ExploreConfig::new(StrategyKind::Baseline));
    }
    match shape {
        Shape::Load(cfg) => {
            run_heron_on(cfg, &simulation, &fabric);
        }
        Shape::Chaos(sc) => {
            let result = chaos::run_on(sc, &simulation, &fabric, sc.config());
            assert!(
                matches!(result, RunResult::Pass { .. }),
                "seed {} must pass the checker: {result:?}",
                sc.seed
            );
        }
    }
    (
        simulation.schedule_hash(),
        simulation.events_executed(),
        simulation.now().as_nanos(),
    )
}

fn check_row(row: &Row) {
    let (hash, events, virtual_ns) = row.pin;
    for (column, sw) in COLUMNS {
        let (h, e, v) = fingerprint(&row.shape, sw);
        assert_eq!(
            (format!("{h:#018x}"), e, v),
            (format!("{hash:#018x}"), events, virtual_ns),
            "{} [{column}]: (schedule_hash, events, virtual_ns) left the pin",
            row.name
        );
    }
}

/// The table, one thread per row. Each thread builds the table and checks
/// its own row — its simulations, kernel, fabric and cluster, are built,
/// run and dropped there — so no simulator object (none is `Send`, nor is
/// a `HeronConfig` that may carry a storage device) crosses between rows.
#[test]
fn no_switch_moves_a_pinned_schedule() {
    std::thread::scope(|s| {
        for i in 0..table().len() {
            s.spawn(move || check_row(&table().swap_remove(i)));
        }
    });
}

/// Process roster per width: every replica has exactly one delivery
/// driver, `heron-exec-p{p}r{i}`; width 1 adds no worker process (the
/// driver is its own inline lane), width 4 adds exactly four,
/// `heron-exec-p{p}r{i}w{k}`.
#[test]
fn width_decides_the_worker_roster_not_the_driver() {
    for (width, workers_per_replica) in [(1usize, 0usize), (4, 4)] {
        let heron = HeronConfig::new(2, 3).with_executor_width(width);
        let cfg = RunConfig::new(heron, Workload::Tpcc).with_requests(30);
        let simulation = Simulation::new(cfg.seed);
        let tracer = simulation.enable_tracing();
        run_heron_on(&cfg, &simulation, &Fabric::new(LatencyModel::connectx4()));
        let prof = tracer.report();
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
