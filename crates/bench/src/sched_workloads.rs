//! Six scheduler micro-workloads, each stressing one kernel path: timer
//! pops, cross-process switches, fan-out wakes, superseded deadlines,
//! same-instant ties and skewed deadlines.
//!
//! Each workload builds a ready-to-run [`sim::Simulation`] sized to
//! execute roughly `events` scheduler events. What they execute at 100 000
//! events is pinned below, exactly: a kernel change that moves a pin
//! changed the schedule. What a kernel path costs in host time is judged
//! on the ledger's `sim.kernel_timer_ns_per_event` /
//! `sim.kernel_handoff_ns_per_event` (`benchmark/`), over interleaved
//! pairs.

use sim::{Mailbox, Simulation};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One scheduler workload: a name and a builder.
pub struct SchedWorkload {
    /// Short identifier, as pinned.
    pub name: &'static str,
    /// Builds a simulation that executes ~`events` scheduler events.
    pub build: fn(events: u64) -> Simulation,
}

/// All scheduler workloads, in pin order.
pub fn all() -> &'static [SchedWorkload] {
    &[
        SchedWorkload {
            name: "timer_events",
            build: timer_events,
        },
        SchedWorkload {
            name: "pingpong_switches",
            build: pingpong_switches,
        },
        SchedWorkload {
            name: "fanout_wakes",
            build: fanout_wakes,
        },
        SchedWorkload {
            name: "timer_cancellation",
            build: timer_cancellation,
        },
        SchedWorkload {
            name: "same_instant_burst",
            build: same_instant_burst,
        },
        SchedWorkload {
            name: "skewed_deadlines",
            build: skewed_deadlines,
        },
    ]
}

/// Pure timer events: one process sleeps `events` times, so the scheduler
/// pops `events` queue entries, each resuming the same process.
fn timer_events(events: u64) -> Simulation {
    let simulation = Simulation::new(1);
    simulation.spawn("ticker", move || {
        for _ in 0..events {
            sim::sleep_ns(100);
        }
    });
    simulation
}

/// Cross-process switches: two processes ping-pong through a `Cond`, so
/// every event is a notify → block → dispatch chain between distinct
/// processes (two context switches through the host loop) — the cost
/// profile of a simulated RDMA write landing and waking its poller.
fn pingpong_switches(events: u64) -> Simulation {
    let simulation = Simulation::new(2);
    let turn = Arc::new(AtomicU64::new(0));
    let cond = sim::Cond::new();
    for side in 0..2u64 {
        let turn = turn.clone();
        let cond = cond.clone();
        simulation.spawn(format!("pinger-{side}"), move || {
            for _ in 0..events / 2 {
                cond.wait_while(|| turn.load(Ordering::Relaxed) % 2 != side);
                turn.fetch_add(1, Ordering::Relaxed);
                // Waking the peer costs simulated time, as a remote
                // write landing would.
                sim::sleep_ns(50);
                cond.notify_all();
            }
        });
    }
    simulation
}

/// Fan-out wakes: one producer repeatedly wakes 8 parked consumers — the
/// shape of a doorbell batch landing on a node several pollers watch.
fn fanout_wakes(events: u64) -> Simulation {
    const WAITERS: u64 = 8;
    let rounds = events / WAITERS;
    let simulation = Simulation::new(3);
    let round = Arc::new(AtomicU64::new(0));
    let cond = sim::Cond::new();
    for w in 0..WAITERS {
        let round = round.clone();
        let cond = cond.clone();
        simulation.spawn(format!("waiter-{w}"), move || {
            let mut seen = 0;
            while seen < rounds {
                cond.wait_while(|| round.load(Ordering::Relaxed) <= seen);
                seen = round.load(Ordering::Relaxed);
            }
        });
    }
    let cond2 = cond.clone();
    simulation.spawn("producer", move || {
        for _ in 0..rounds {
            sim::sleep_ns(200);
            round.fetch_add(1, Ordering::Relaxed);
            cond2.notify_all();
        }
    });
    simulation
}

/// Timer cancellation: every `recv_timeout` arms a deadline wake that a
/// message then supersedes, leaving a dead entry the wheel must file and,
/// at the first cascade that meets it, shed — the wheel's cancellation
/// cost. (Until PR 23 the entry was carried down to its instant and popped
/// as a no-op: the third event of a round.)
fn timer_cancellation(events: u64) -> Simulation {
    let rounds = events / 3; // message wake + sender sleep (+ the shed timeout)
    let simulation = Simulation::new(4);
    let (tx, rx) = Mailbox::pair();
    simulation.spawn("receiver", move || {
        for _ in 0..rounds {
            // Always superseded: the message lands long before 1 ms.
            let r = rx.recv_timeout(Duration::from_millis(1));
            assert!(r.is_ok(), "message must beat the timeout");
        }
    });
    simulation.spawn("sender", move || {
        for i in 0..rounds {
            sim::sleep_ns(100);
            tx.send(i).unwrap();
        }
    });
    simulation
}

/// Same-instant bursts: each round posts 64 timers with one identical
/// deadline, forcing the queue to break 64 ties by sequence number —
/// the wheel's batch path.
fn same_instant_burst(events: u64) -> Simulation {
    const BURST: u64 = 64;
    let rounds = events / (BURST + 1);
    let simulation = Simulation::new(5);
    simulation.spawn("burster", move || {
        for _ in 0..rounds {
            for _ in 0..BURST {
                sim::schedule_ns(500, || {});
            }
            sim::sleep_ns(1_000);
        }
    });
    simulation
}

/// Skewed deadlines: receivers park far-future timeouts (being beyond the
/// wheel's 2^36 ns span, they land in the sorted overflow level) that are
/// always superseded, while the sender's inter-send gaps alternate across
/// wheel levels — near (level 0), mid, and far (tens of ms). The stale
/// far-future wakes drain through the overflow at the end of the run.
fn skewed_deadlines(events: u64) -> Simulation {
    let rounds = events / 4; // timeout + message wake + sleep + stale drain
    let simulation = Simulation::new(6);
    let (tx, rx) = Mailbox::pair();
    simulation.spawn("skew-recv", move || {
        for _ in 0..rounds {
            // 120 s > the wheel's span: the deadline files into overflow.
            let r = rx.recv_timeout(Duration::from_secs(120));
            assert!(r.is_ok(), "message must beat the timeout");
        }
    });
    simulation.spawn("skew-send", move || {
        for i in 0..rounds {
            let gap = match i % 3 {
                0 => 50,         // same level-0 slot region
                1 => 40_000,     // mid level
                _ => 20_000_000, // tens of ms: upper level, cascades
            };
            sim::sleep_ns(gap);
            tx.send(i).unwrap();
        }
    });
    simulation
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, schedule_hash, events, virtual_ns)` of every workload at
    /// 100 000 events. Five are the triples the binary heap was still there
    /// to agree with; `timer_cancellation` was
    /// `(0x0b88b3d41ba2c695, 100_001, 4_333_200)` until the wheel began
    /// shedding its superseded deadlines: a third fewer pops, the same
    /// final time.
    const PINS: [(&str, u64, u64, u64); 6] = [
        ("timer_events", 0x0111b4ffb3792b4d, 100_001, 10_000_000),
        ("pingpong_switches", 0x61d230a1c549e4c2, 100_002, 2_500_000),
        ("fanout_wakes", 0x8cc7e79dcf10fdc9, 112_509, 2_500_000),
        ("timer_cancellation", 0x11f2e802d9959f2b, 66_668, 4_333_200),
        ("same_instant_burst", 0x38ec72cd4ec80374, 99_971, 1_538_000),
        (
            "skewed_deadlines",
            0xe181b44f50a1de34,
            75_002,
            286_993_736_650,
        ),
    ];

    #[test]
    fn every_workload_executes_its_pinned_schedule() {
        assert_eq!(all().len(), PINS.len());
        for (w, (name, hash, events, virtual_ns)) in all().iter().zip(PINS) {
            assert_eq!(w.name, name);
            let simulation = (w.build)(100_000);
            simulation.run().unwrap();
            assert_eq!(
                (
                    simulation.schedule_hash(),
                    simulation.events_executed(),
                    simulation.now().as_nanos()
                ),
                (hash, events, virtual_ns),
                "workload {name} left its pinned schedule"
            );
        }
    }
}
