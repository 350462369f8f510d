//! Regression tests for the virtual-time tracing subsystem (DESIGN.md
//! §11): the Perfetto export must be well-formed and causally sensible,
//! the stage spans must sum exactly to the `Breakdown` rows (one stage
//! clock feeds both), and every recorded client latency must be one request
//! path's total, summed exactly, at width 1 and in the pool; and the
//! deployment's own tracing switch records what the simulation's does.
//! (That tracing leaves the schedule alone is pinned in `schedule_hash.rs`.)

use heron_bench::chaos::{self, Bank};
use heron_bench::{run_heron_on, LoadSummary, RunConfig, Workload};
use heron_core::explain::{check_latencies, request_paths, spans};
use heron_core::{HeronCluster, HeronConfig};
use rdma_sim::{Fabric, LatencyModel};
use sim::trace::{EventKind, Tracer};
use sim::Simulation;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

/// A small fig4-shaped run in fixed-work mode: deterministic request set,
/// whole run measured, so schedules and attributions compare exactly.
fn shape(partitions: usize, requests: u64) -> RunConfig {
    let mut cfg = RunConfig::new(HeronConfig::new(partitions, 3), Workload::Tpcc)
        .quick(true)
        .with_requests(requests);
    cfg.clients = partitions * 2;
    cfg.seed = 7;
    cfg
}

/// Runs `cfg` with tracing switched on its simulation.
fn traced(cfg: &RunConfig) -> (LoadSummary, Tracer) {
    let simulation = Simulation::new(cfg.seed);
    let tracer = simulation.enable_tracing();
    let fabric = Fabric::new(LatencyModel::connectx4());
    (run_heron_on(cfg, &simulation, &fabric), tracer)
}

/// Satellite: a 2-partition, 2-request run exports well-formed Chrome
/// `trace_event` JSON — parseable nesting, monotone non-negative
/// timestamps, the expected span names, and thread metadata per track.
#[test]
fn perfetto_export_is_well_formed() {
    let (summary, tracer) = traced(&shape(2, 2));
    let json = tracer.export_chrome_json();

    // Structural well-formedness without a JSON parser: braces and
    // brackets balance outside string literals, and never go negative.
    let (mut depth, mut in_str, mut esc) = (0i64, false, false);
    for c in json.chars() {
        if esc {
            esc = false;
            continue;
        }
        match c {
            '\\' if in_str => esc = true,
            '"' => in_str = !in_str,
            '{' | '[' if !in_str => depth += 1,
            '}' | ']' if !in_str => {
                depth -= 1;
                assert!(depth >= 0, "unbalanced braces");
            }
            _ => {}
        }
    }
    assert_eq!(depth, 0, "unbalanced braces");
    assert!(!in_str, "unterminated string");

    // The spans the stack promises, client to executor to fabric.
    for name in [
        "client.request",
        "mcast.submit",
        "mcast.deliver",
        "exec.request",
        "exec.execute",
        "rdma.post",
        "rdma.write.flight",
        "thread_name",
        "heron-sim",
    ] {
        assert!(json.contains(name), "export is missing {name:?}");
    }

    // Events are recorded in virtual time: every duration fits inside the
    // run, and Begin/End pairs are non-negative (t1 ≥ t0 per span).
    let events = tracer.events();
    assert!(!events.is_empty());
    for s in spans(&events) {
        assert!(s.t1 >= s.t0, "span {} ends before it begins", s.name);
        assert!(
            s.t1 <= summary.virtual_ns,
            "span {} outlives the run",
            s.name
        );
    }
    // Record order is monotone in virtual time per track (one process
    // runs at a time; the buffer appends as the schedule executes).
    let mut last: std::collections::HashMap<u32, u64> = Default::default();
    for e in &events {
        let t = last.entry(e.track).or_insert(0);
        assert!(e.t_ns >= *t, "track {} goes back in time", e.track);
        *t = e.t_ns;
    }
}

/// `[n, ordering, dispatch, coordination, execution]` totals, per class
/// (single- / multi-partition).
type StageSums = [[u64; 5]; 2];

fn add_row(sums: &mut StageSums, partitions: u64, row: [u64; 5]) {
    let class = usize::from(partitions > 1);
    (0..5).for_each(|i| sums[class][i] += row[i]);
}

/// The span side: every replied `exec.request` span's args and stage
/// children, summed — the condition under which a `Breakdown` row exists.
fn span_sums(events: &[sim::trace::TraceEvent]) -> StageSums {
    let all = spans(events);
    let replied: HashSet<(u32, u64)> = events
        .iter()
        .filter(|e| e.kind == EventKind::Instant && e.name == "exec.reply")
        .map(|e| (e.track, e.corr))
        .collect();
    let mut children: HashMap<u64, [u64; 2]> = HashMap::new();
    for s in &all {
        match s.name {
            "exec.phase2" | "exec.phase4" => children.entry(s.parent).or_default()[0] += s.dur_ns(),
            "exec.execute" => children.entry(s.parent).or_default()[1] += s.dur_ns(),
            _ => {}
        }
    }
    let mut sums = StageSums::default();
    for s in all.iter().filter(|s| s.name == "exec.request") {
        if !replied.contains(&(s.track, s.corr)) {
            continue;
        }
        let [coordination, execution] = children.get(&s.id).copied().unwrap_or_default();
        let row = [
            1,
            s.arg("ordering_ns").unwrap(),
            s.arg("parallel_ns").unwrap(),
            coordination,
            execution,
        ];
        add_row(&mut sums, s.arg("partitions").unwrap(), row);
    }
    sums
}

/// One stage clock feeds counters and spans, so per class the two sum to
/// the same nanosecond and count the same samples; and every request's
/// path accounts for its whole latency, one path per recorded latency.
/// `width` 4 runs the pool, so the dispatch wait is non-zero and
/// `pool.park` carving is on the path.
fn spans_rows_and_paths_agree(width: usize) {
    let mut cfg = shape(4, 12);
    cfg.heron = cfg.heron.with_executor_width(width);
    let (summary, tracer) = traced(&cfg);
    let events = tracer.events();

    let mut rows = StageSums::default();
    for b in &summary.breakdowns {
        let row = [
            1,
            b.ordering_ns,
            b.parallel_ns,
            b.coordination_ns,
            b.execution_ns,
        ];
        add_row(&mut rows, u64::from(b.partitions), row);
    }
    assert_eq!(
        span_sums(&events),
        rows,
        "Σ span stages != Σ Breakdown rows"
    );
    assert!(rows[0][0] > 0 && rows[1][0] > 0, "both classes sampled");
    assert_eq!(rows[0][2] + rows[1][2] > 0, width > 1, "dispatch wait");
    assert_eq!(summary.single.n + summary.multi.n, summary.all.n);

    // Paths decompose every traced request's full latency (summed in
    // `check_latencies` below).
    let paths = request_paths(&events);
    assert!(!paths.is_empty());
    assert!(paths.windows(2).all(|w| w[0].total_ns >= w[1].total_ns));
    for p in &paths {
        assert!(p.total_ns <= summary.virtual_ns);
        assert!(p.segments.iter().all(|s| s.name != "untraced"));
    }
    // Closed-loop latency floor: nothing completes in zero virtual time.
    assert!(paths
        .iter()
        .all(|p| p.total_ns >= Duration::from_micros(1).as_nanos() as u64));

    // Fixed-work mode: `samples_us` holds every latency the clients
    // recorded, and each is exactly one path's total.
    let latencies: Vec<u64> = summary
        .samples_us
        .iter()
        .map(|&us| (us * 1_000.0).round() as u64)
        .collect();
    assert_eq!(check_latencies(&paths, &latencies), []);
}

#[test]
fn spans_rows_and_paths_agree_on_the_inline_lane() {
    spans_rows_and_paths_agree(1);
}

#[test]
fn spans_rows_and_paths_agree_in_the_pool() {
    spans_rows_and_paths_agree(4);
}

/// The deployment's tracing switch (`HeronConfig::with_tracing`, read back
/// through `HeronCluster::tracer`) records exactly the events that tracing
/// switched on the simulation before the build does, on one seed and shape.
#[test]
fn config_tracing_records_what_simulation_tracing_records() {
    let sc = chaos::scenario_for_seed(9000, true);
    let events = |via_config: bool| {
        let simulation = Simulation::new(sc.seed);
        let on_simulation = (!via_config).then(|| simulation.enable_tracing());
        let fabric = Fabric::new(LatencyModel::connectx4());
        let bank = Arc::new(Bank::new(sc.partitions as u16, sc.accounts));
        let cfg = sc.config().with_tracing(via_config);
        let cluster = HeronCluster::build(&fabric, cfg, bank);
        let result = chaos::run_cluster(&sc, &simulation, &fabric, &cluster);
        assert!(!result.failed(), "seed {} must pass: {result:?}", sc.seed);
        let tracer = on_simulation.or_else(|| cluster.tracer());
        tracer.expect("tracing was on").events()
    };
    let (via_config, via_simulation) = (events(true), events(false));
    assert!(!via_config.is_empty(), "the run recorded no events");
    assert_eq!(format!("{via_config:?}"), format!("{via_simulation:?}"));
}
