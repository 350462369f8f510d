//! Scheduler raw-speed benchmark (DESIGN.md §12): a measuring bin, not a
//! gate.
//!
//! Runs every workload in [`heron_bench::sched_workloads`] and reports
//! events per wall-clock second, beside the schedule each executed (hash,
//! event count, final virtual time — pinned by that module's unit test),
//! and writes `bench_results/BENCH_scheduler.json`.
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
//! Nothing here judges a host time: whether a switch got dearer is read
//! off the ledger's `sim.kernel_handoff_ns_per_event` over
//! `sim.kernel_timer_ns_per_event` (the same two loops) on
//! `scripts/ledger_pairs.py` pairs.
//!
//! `--quick` — fewer events and repeats.

use heron_bench::{banner, quick_mode, sched_workloads, write_results, Json};
use std::time::Instant;

/// Best-of-`repeats` wall-clock run; returns (events executed, seconds,
/// schedule hash, final virtual nanos).
fn measure(w: &sched_workloads::SchedWorkload, events: u64, repeats: u32) -> (u64, f64, u64, u64) {
    let mut best: Option<(u64, f64, u64, u64)> = None;
    for _ in 0..repeats {
        let simulation = (w.build)(events);
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

fn main() {
    let quick = quick_mode();
    let (events, repeats) = if quick { (20_000, 9) } else { (100_000, 5) };

    banner(
        "sched_bench — scheduler raw speed, and the cost of a switch",
        "DESIGN.md sec. 12 (raw-speed engine)",
    );
    println!("events/workload: {events}  repeats: {repeats} (best kept)\n");

    println!("{:<20} {:>12} {:>14}", "workload", "events", "events/sec");
    let mut rows = Vec::new();
    let mut ns_per_event = std::collections::HashMap::new();
    for w in sched_workloads::all() {
        let (ev, secs, hash, now) = measure(w, events, repeats);
        let eps = ev as f64 / secs;
        ns_per_event.insert(w.name, 1e9 / eps);
        println!("{:<20} {:>12} {:>14.0}", w.name, ev, eps);
        let mut row = Json::obj();
        row.set("name", w.name)
            .set("what", w.what)
            .set("events", ev)
            .set("events_per_sec", eps)
            .set("schedule_hash", format!("{hash:#018x}"))
            .set("virtual_ns", now);
        rows.push(row);
    }
    let switch_cost = ns_per_event["pingpong_switches"] / ns_per_event["timer_events"];
    println!(
        "\nswitch_cost_ratio: {switch_cost:.2}  (ping-pong {:.0} ns/event over timers {:.0} ns/event)",
        ns_per_event["pingpong_switches"], ns_per_event["timer_events"]
    );

    let mut out = Json::obj();
    out.set("figure", "scheduler")
        .set("quick", quick)
        .set("events_per_workload", events)
        .set("repeats", repeats as u64)
        .set("workloads", Json::Arr(rows))
        .set("switch_cost_ratio", switch_cost);
    write_results("BENCH_scheduler.json", &out).expect("write BENCH_scheduler.json");
}
