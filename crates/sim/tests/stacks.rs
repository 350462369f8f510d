//! Process stacks are address space, not memory: untouched pages are never
//! committed, and a dropped simulation gives every stack back. Resident-set
//! readings need the process to themselves, so these tests live in their
//! own binary and take turns.
#![cfg(target_os = "linux")]

use sim::{Cond, SimTime, Simulation};
use std::sync::Mutex;

static TURN: Mutex<()> = Mutex::new(());
const MIB: i64 = 1 << 20;

fn rss_bytes() -> i64 {
    let statm = std::fs::read_to_string("/proc/self/statm").unwrap();
    let pages: i64 = statm.split_whitespace().nth(1).unwrap().parse().unwrap();
    pages * 4096
}

#[test]
fn a_thousand_idle_processes_stay_under_32_mib() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let before = rss_bytes();
    let sim = Simulation::new(1);
    for i in 0..1000 {
        sim.spawn(format!("idle{i}"), || Cond::new().wait());
    }
    sim.run_until(SimTime::from_nanos(1)).unwrap();
    let grown = rss_bytes() - before;
    assert!(
        grown < 32 * MIB,
        "1000 parked processes (1 GiB of stacks) made {} MiB resident",
        grown / MIB
    );
}

#[test]
fn build_run_drop_cycles_give_their_stacks_back() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let cycle = || {
        let sim = Simulation::new(1);
        for i in 0..16 {
            sim.spawn(format!("p{i}"), move || {
                sim::sleep_ns(i);
                Cond::new().wait(); // still parked when the simulation drops
            });
        }
        sim.run_until(SimTime::from_nanos(100)).unwrap();
    };
    cycle();
    let first = rss_bytes();
    for _ in 0..2000 {
        cycle();
    }
    let grown = rss_bytes() - first;
    assert!(
        grown < 16 * MIB,
        "2000 cycles of 16 processes grew the resident set by {} MiB",
        grown / MIB
    );
}
