//! Scheduler raw-speed benchmark and regression gate (DESIGN.md §12).
//!
//! Runs every workload in [`heron_bench::sched_workloads`] twice — once on
//! the **reference queue** (binary heap) and once on the **default** one
//! (hierarchical timer wheel) — and reports events per wall-clock second
//! for both, plus the ratio. The two runs must produce bit-identical
//! schedules (same event-order hash, event count, and final virtual time);
//! the binary fails otherwise, so every perf run doubles as a determinism
//! check.
//!
//! It also reports `switch_cost_ratio`: host ns per event of the ping-pong
//! workload (every event wakes the *other* process, through a `Cond`)
//! over host ns per event of the timer workload (one process waking
//! itself with `sleep`). It says what waking another process costs in
//! units of the rest of the kernel's per-event work, so it carries across
//! machines of different raw speed. With processes as OS threads it was
//! ≈ 17–22 (a futex round trip against no switch at all); with coroutines
//! both workloads switch to the host loop and back once per event and it
//! is ≈ 1.0–1.1.
//!
//! Modes:
//!
//! * default — measure and write `bench_results/BENCH_scheduler.json`.
//! * `--gate` — measure, then compare `switch_cost_ratio` against the
//!   `max_switch_cost_ratio` recorded in the committed
//!   `bench_results/BENCH_scheduler.json` (1.2 × the baseline ratio, i.e. a
//!   switch that got >20 % dearer fails). Exits non-zero on regression.
//!   The committed file is not rewritten.
//! * `--quick` — fewer events and repeats, for CI smoke runs.

use heron_bench::{banner, quick_mode, sched_workloads, write_results, Json};
use std::time::Instant;

/// Best-of-`repeats` wall-clock run; returns (events executed, seconds,
/// schedule hash, final virtual nanos).
fn measure(
    w: &sched_workloads::SchedWorkload,
    events: u64,
    engine: sim::EngineConfig,
    repeats: u32,
) -> (u64, f64, u64, u64) {
    let mut best: Option<(u64, f64, u64, u64)> = None;
    for _ in 0..repeats {
        let simulation = (w.build)(events, engine);
        let start = Instant::now();
        simulation.run().unwrap();
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        let sample = (
            simulation.events_executed(),
            secs,
            simulation.schedule_hash(),
            simulation.now().as_nanos(),
        );
        match &best {
            Some(b) if b.1 <= sample.1 => {}
            _ => best = Some(sample),
        }
    }
    best.expect("repeats >= 1")
}

/// Pulls the committed gate threshold out of the baseline JSON. The file
/// is written by this binary, so a simple string scan is enough — no JSON
/// parser lives in this offline workspace.
fn baseline_max_switch_cost(text: &str) -> Option<f64> {
    let key = "\"max_switch_cost_ratio\":";
    let at = text.find(key)? + key.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let gate = std::env::args().any(|a| a == "--gate");
    let quick = quick_mode();
    let (events, repeats) = if quick { (20_000, 9) } else { (100_000, 5) };

    banner(
        "sched_bench — scheduler raw speed: timer wheel vs reference heap, and the cost of a switch",
        "DESIGN.md sec. 12 (raw-speed engine)",
    );
    println!(
        "mode: {}  events/workload: {events}  repeats: {repeats} (best kept)\n",
        if gate { "gate" } else { "measure" }
    );

    let heap = sim::EngineConfig {
        queue: sim::QueueKind::Heap,
    };
    let wheel = sim::EngineConfig::default();

    println!(
        "{:<20} {:>12} {:>14} {:>14} {:>11}",
        "workload", "events", "heap eps", "wheel eps", "wheel/heap"
    );
    let mut rows = Vec::new();
    let mut log_sum = 0.0f64;
    let mut wheel_ns_per_event = std::collections::HashMap::new();
    for w in sched_workloads::all() {
        let (ev_h, secs_h, hash_h, now_h) = measure(w, events, heap, repeats);
        let (ev_w, secs_w, hash_w, now_w) = measure(w, events, wheel, repeats);
        if (ev_h, hash_h, now_h) != (ev_w, hash_w, now_w) {
            eprintln!(
                "FAIL: workload {} diverged between engines: \
                 heap (events {ev_h}, hash {hash_h:#x}, now {now_h}) vs \
                 wheel (events {ev_w}, hash {hash_w:#x}, now {now_w})",
                w.name
            );
            std::process::exit(1);
        }
        let heap_eps = ev_h as f64 / secs_h;
        let wheel_eps = ev_w as f64 / secs_w;
        let speedup = wheel_eps / heap_eps;
        log_sum += speedup.ln();
        wheel_ns_per_event.insert(w.name, 1e9 / wheel_eps);
        println!(
            "{:<20} {:>12} {:>14.0} {:>14.0} {:>10.2}x",
            w.name, ev_h, heap_eps, wheel_eps, speedup
        );
        let mut row = Json::obj();
        row.set("name", w.name)
            .set("what", w.what)
            .set("events", ev_h)
            .set("heap_events_per_sec", heap_eps)
            .set("wheel_events_per_sec", wheel_eps)
            .set("speedup", speedup)
            .set("schedule_hash", format!("{hash_w:#018x}"))
            .set("virtual_ns", now_w);
        rows.push(row);
    }
    let geomean = (log_sum / rows.len() as f64).exp();
    let switch_cost = wheel_ns_per_event["pingpong_switches"] / wheel_ns_per_event["timer_events"];
    println!("\ngeomean wheel/heap: {geomean:.2}x  (schedules bit-identical across engines)");
    println!(
        "switch_cost_ratio: {switch_cost:.2}  (ping-pong {:.0} ns/event over timers {:.0} ns/event)",
        wheel_ns_per_event["pingpong_switches"], wheel_ns_per_event["timer_events"]
    );

    if gate {
        let path = "bench_results/BENCH_scheduler.json";
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("FAIL: cannot read committed baseline {path}: {e}");
                std::process::exit(1);
            }
        };
        let Some(max) = baseline_max_switch_cost(&text) else {
            eprintln!("FAIL: no max_switch_cost_ratio field in {path}");
            std::process::exit(1);
        };
        println!("gate: measured switch_cost_ratio {switch_cost:.2} vs committed ceiling {max:.2}");
        if switch_cost > max {
            eprintln!(
                "FAIL: a context switch got more than 20% dearer relative to a timer event \
                 ({switch_cost:.2} > {max:.2} ceiling)"
            );
            std::process::exit(1);
        }
        println!("gate: PASS");
    } else {
        let mut out = Json::obj();
        out.set("figure", "scheduler")
            .set("quick", quick)
            .set("events_per_workload", events)
            .set("repeats", repeats as u64)
            .set("workloads", Json::Arr(rows))
            .set("geomean_speedup", geomean)
            .set("switch_cost_ratio", switch_cost);
        let mut gate_obj = Json::obj();
        gate_obj
            .set("max_switch_cost_ratio", switch_cost * 1.2)
            .set(
                "rule",
                "sched_bench --gate fails if measured switch_cost_ratio rises above this",
            );
        out.set("gate", gate_obj);
        write_results("BENCH_scheduler.json", &out).expect("write BENCH_scheduler.json");
    }
}
