//! Regression tests for the virtual-time tracing subsystem (DESIGN.md
//! §11): the Perfetto export must be well-formed and causally sensible,
//! and the critical-path analyzer's Fig. 6 attribution must agree with
//! the legacy breakdown counters. (That tracing leaves the schedule alone
//! is pinned in `schedule_hash.rs`.)

use heron_bench::{run_heron, RunConfig, Workload};
use heron_core::critical_path::{attribute_where, critical_paths};
use std::time::Duration;

/// A small fig4-shaped run in fixed-work mode: deterministic request set,
/// whole run measured, so schedules and attributions compare exactly.
fn shape(partitions: usize, requests: u64) -> RunConfig {
    let mut cfg = RunConfig::new(partitions, 3, Workload::Tpcc)
        .quick(true)
        .with_requests(requests);
    cfg.clients = partitions * 2;
    cfg.seed = 7;
    cfg
}

/// Satellite: a 2-partition, 2-request run exports well-formed Chrome
/// `trace_event` JSON — parseable nesting, monotone non-negative
/// timestamps, the expected span names, and thread metadata per track.
#[test]
fn perfetto_export_is_well_formed() {
    let summary = run_heron(&shape(2, 2).with_tracing(true));
    let tracer = summary.tracer.expect("tracing was on");
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
    for s in heron_core::critical_path::spans(&events) {
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

/// Acceptance criterion: the analyzer's ordering/coordination/execution
/// attribution matches the legacy Fig. 6 breakdown within 1 % (exactly,
/// in fact: the phase spans sample the same virtual instants).
#[test]
fn critical_path_attribution_matches_legacy_breakdown() {
    let summary = run_heron(&shape(4, 12).with_tracing(true));
    let events = summary.tracer.as_ref().expect("tracing was on").events();
    for (label, a, legacy) in [
        (
            "single",
            attribute_where(&events, |p| p == 1),
            summary.single,
        ),
        ("multi", attribute_where(&events, |p| p > 1), summary.multi),
    ] {
        assert!(a.n > 0, "{label}: no samples traced");
        assert_eq!(a.n, legacy.n as u64, "{label}: sample counts differ");
        for (name, t, l) in [
            ("ordering", a.ordering_ns, legacy.ordering.as_nanos() as u64),
            (
                "coordination",
                a.coordination_ns,
                legacy.coordination.as_nanos() as u64,
            ),
            (
                "execution",
                a.execution_ns,
                legacy.execution.as_nanos() as u64,
            ),
        ] {
            assert!(
                t.abs_diff(l) * 100 <= l,
                "{label} {name}: trace {t} ns vs legacy {l} ns diverge > 1 %"
            );
        }
    }

    // Critical paths decompose every traced request's full latency.
    let paths = critical_paths(&events);
    assert!(!paths.is_empty());
    assert!(paths.windows(2).all(|w| w[0].total_ns >= w[1].total_ns));
    for p in &paths {
        let sum: u64 = p.segments.iter().map(|s| s.ns).sum();
        assert_eq!(sum, p.total_ns, "segments must account for the latency");
        assert!(p.total_ns <= summary.virtual_ns);
        assert!(p.segments.iter().all(|s| s.name != "untraced"));
    }
    // Closed-loop latency floor: nothing completes in zero virtual time.
    assert!(paths
        .iter()
        .all(|p| p.total_ns >= Duration::from_micros(1).as_nanos() as u64));
}
