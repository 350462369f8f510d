//! Deterministic virtual-time discrete-event simulator for distributed
//! protocols.
//!
//! This crate is the substrate on which the Heron reproduction runs. It
//! replaces the paper's CloudLab cluster: every client and replica becomes a
//! *simulated process* — a coroutine with a stack of its own, resumed by the
//! one host loop that pops events, so that **exactly one runs at a time** —
//! and all latencies — RDMA verbs, network messages, request execution — are
//! charged against a virtual clock in nanoseconds. A simulation run is a pure function of its configuration and
//! seed, which makes protocol races, lagger scenarios and benchmark results
//! reproducible.
//!
//! # Model
//!
//! * Virtual time only advances between events; running process code takes
//!   zero virtual time unless it explicitly [`sleep`]s.
//! * Because execution is serialized, a *check-then-block* sequence (e.g.
//!   "queue is empty, so wait on the condition") is atomic: no other process
//!   can run between the check and the block, so there are no lost wakeups.
//! * [`Cond`] may still wake spuriously (like a condition variable); always
//!   re-check the predicate, or use [`Cond::wait_while`].
//! * Every process runs on the thread that calls [`Simulation::run`]. A
//!   [`Simulation`] is `!Send`: it runs, and is dropped, on the thread that
//!   created it. Process stacks are 1 MiB of lazily committed address
//!   space each.
//! * There is one event queue, a hierarchical timer wheel, and no switch
//!   that selects another. Events pop in `(time, push order)` order;
//!   [`Simulation::schedule_hash`] fingerprints that order, and none of the
//!   diagnostic layers (race detector, [`trace`], [`prof`], the
//!   [`explore`] Baseline strategy) may move it.
//!
//! # Example
//!
//! ```
//! use std::time::Duration;
//! use sim::{Simulation, Mailbox};
//!
//! let sim = Simulation::new(42);
//! let (tx, rx) = Mailbox::pair();
//! sim.spawn("producer", move || {
//!     sim::sleep(Duration::from_micros(5));
//!     tx.send(123u32).unwrap();
//! });
//! sim.spawn("consumer", move || {
//!     let v = rx.recv();
//!     assert_eq!(v, 123);
//!     assert_eq!(sim::now().as_micros(), 5);
//! });
//! sim.run().unwrap();
//! ```
#![forbid(unsafe_code)]
// A `for` over a `HashMap`/`HashSet` runs in `RandomState` order, which
// differs per process: anything it posts, or reports first, stops replaying.
#![deny(clippy::iter_over_hash_type)]

mod cond;
mod error;
pub mod explore;
mod kernel;
mod mailbox;
pub mod prof;
mod queue;
pub mod storage;
mod time;
pub mod trace;
pub mod vclock;

pub use cond::Cond;
pub use error::{SimError, SimResult};
pub use explore::{
    note_progress, shrink_trace, Choice, ChoiceActor, ChoicePoint, ExploreConfig, ExploreReport,
    LivelockKind, ScheduleTrace, StrategyKind, Violation, WaitEdge,
};
pub use kernel::{Pid, Simulation};
pub use mailbox::{Mailbox, MailboxReceiver, MailboxSender, RecvTimeoutError, SendError};
pub use time::SimTime;
pub use vclock::VectorClock;

use kernel::{try_with_ctx, with_ctx};
use rand::rngs::SmallRng;
use std::time::Duration;

/// Returns the current virtual time.
///
/// # Panics
///
/// Panics when called from outside a simulated process.
pub fn now() -> SimTime {
    with_ctx(|k, _| SimTime::from_nanos(k.now_nanos()))
}

/// Returns the current virtual time, or `None` when called from outside a
/// simulated process (host thread or event context).
pub fn try_now() -> Option<SimTime> {
    try_with_ctx(|k, _| SimTime::from_nanos(k.now_nanos()))
}

/// Suspends the calling process for `d` of virtual time.
///
/// # Panics
///
/// Panics when called from outside a simulated process.
pub fn sleep(d: Duration) {
    with_ctx(|k, pid| k.sleep(pid, d.as_nanos() as u64));
}

/// Suspends the calling process for `nanos` nanoseconds of virtual time.
pub fn sleep_ns(nanos: u64) {
    with_ctx(|k, pid| k.sleep(pid, nanos));
}

/// Yields the processor: the process is rescheduled at the current virtual
/// time, after every other event already scheduled for this instant.
pub fn yield_now() {
    sleep_ns(0);
}

/// Spawns a new simulated process from inside another process.
///
/// The child starts at the current virtual time. See [`Simulation::spawn`]
/// for spawning before the simulation starts.
pub fn spawn<F>(name: impl Into<String>, f: F) -> Pid
where
    F: FnOnce() + 'static,
{
    let name = name.into();
    with_ctx(move |k, _| k.spawn(name, f))
}

/// Schedules `f` to run on the scheduler after `delay` of virtual time.
///
/// The closure runs in *event context*: it takes zero virtual time and must
/// not block (no [`sleep`], no [`Cond`] waits). It is the tool for modeling
/// asynchronous completions, e.g. an RDMA write landing in remote memory.
pub fn schedule<F>(delay: Duration, f: F)
where
    F: FnOnce() + 'static,
{
    with_ctx(move |k, _| k.schedule(delay.as_nanos() as u64, f));
}

/// Schedules `f` to run on the scheduler after `nanos` virtual nanoseconds.
///
/// See [`schedule`].
pub fn schedule_ns<F>(nanos: u64, f: F)
where
    F: FnOnce() + 'static,
{
    with_ctx(move |k, _| k.schedule(nanos, f));
}

/// Kills a simulated process. It unwinds the next time it would run.
///
/// Killing an already-finished process is a no-op.
pub fn kill(pid: Pid) {
    with_ctx(|k, _| k.kill(pid));
}

/// Returns `true` if the given process has finished (normally or by kill).
pub fn is_finished(pid: Pid) -> bool {
    with_ctx(|k, _| k.is_finished(pid))
}

/// Stops the whole simulation: [`Simulation::run`] returns after the current
/// event completes.
pub fn stop() {
    with_ctx(|k, _| k.stop());
}

/// The [`Pid`] of the calling process.
pub fn current_pid() -> Pid {
    with_ctx(|_, pid| pid)
}

/// The name the calling process was spawned with.
pub fn proc_name() -> String {
    with_ctx(|k, pid| k.proc_name(pid))
}

/// Runs `f` with the calling process's deterministic random number
/// generator (seeded from the simulation seed and the process id).
pub fn with_rng<R>(f: impl FnOnce(&mut SmallRng) -> R) -> R {
    with_ctx(|k, pid| k.with_rng(pid, f))
}

/// Snapshot of the calling process's happens-before clock. Returns the
/// empty clock outside process context (host thread or event context), and
/// stays empty — at zero cost — unless a race detector is ticking clocks.
pub fn vc_current() -> VectorClock {
    try_with_ctx(|k, pid| k.vc_snapshot(pid)).unwrap_or_default()
}

/// Release operation for the race detector: ticks the calling process's own
/// clock entry and returns `(pid, new clock value, full clock snapshot)`.
/// Returns `None` outside process context (the caller should then treat the
/// operation as happening at the sentinel epoch, ordered before everything).
pub fn vc_release() -> Option<(Pid, u64, VectorClock)> {
    try_with_ctx(|k, pid| {
        let (clk, vc) = k.vc_tick(pid);
        (pid, clk, vc)
    })
}

/// Acquire operation for the race detector: joins `other` into the calling
/// process's clock. No-op outside process context or when `other` is empty.
pub fn vc_acquire(other: &VectorClock) {
    if other.is_empty() {
        return;
    }
    let _ = try_with_ctx(|k, pid| k.vc_join(pid, other));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn clock_starts_at_zero_and_advances_with_sleep() {
        let sim = Simulation::new(1);
        sim.spawn("p", || {
            assert_eq!(now().as_nanos(), 0);
            sleep(Duration::from_nanos(100));
            assert_eq!(now().as_nanos(), 100);
            sleep(Duration::from_micros(3));
            assert_eq!(now().as_nanos(), 3100);
        });
        sim.run().unwrap();
        assert_eq!(sim.now().as_nanos(), 3100);
    }

    /// The clock is read without borrowing the kernel state, from a copy
    /// written at every pop and where `run_until` stops short of (`Beyond`)
    /// or past (`Empty`) the queue's entries: each read below must agree
    /// with the state's clock that sleeps and spawns are scheduled from.
    #[test]
    fn clock_reads_agree_with_the_kernel_clock_wherever_it_advances() {
        let sim = Simulation::new(1);
        let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let probe = |name: &str| {
            let seen = seen.clone();
            sim.spawn(name, move || {
                let started = now().as_nanos();
                sleep_ns(5);
                seen.lock().push((started, now().as_nanos()));
            })
        };
        // A pop: the process a timer's notify wakes reads the timer's instant.
        let cond = Cond::new();
        let (c, s) = (cond.clone(), seen.clone());
        sim.spawn("woken-by-timer", move || {
            schedule_ns(250, move || c.notify_all());
            cond.wait();
            s.lock().push((now().as_nanos(), 0));
            sleep_ns(10_000); // an entry for `run_until` to stop short of
        });
        sim.run_until(SimTime::from_nanos(1_000)).unwrap(); // Beyond
        assert_eq!(sim.now().as_nanos(), 1_000);
        probe("after-beyond");
        sim.run_until(SimTime::from_nanos(20_000)).unwrap(); // Empty
        assert_eq!(sim.now().as_nanos(), 20_000);
        probe("after-empty");
        sim.run().unwrap();
        assert_eq!(sim.now().as_nanos(), 20_005);
        assert_eq!(
            *seen.lock(),
            vec![(250, 0), (1_000, 1_005), (20_000, 20_005)]
        );
    }

    #[test]
    fn events_executed_counts_scheduler_work() {
        let sim = Simulation::new(1);
        assert_eq!(sim.events_executed(), 0);
        sim.spawn("p", || {
            for _ in 0..10 {
                sleep(Duration::from_nanos(5));
            }
        });
        sim.run().unwrap();
        // At least one wake per sleep plus the initial spawn wake; the
        // exact count is an implementation detail, but it must be
        // monotone in the amount of scheduling done.
        let after_ten = sim.events_executed();
        assert!(after_ten >= 11, "got {after_ten}");

        let sim2 = Simulation::new(1);
        sim2.spawn("p", || {
            for _ in 0..100 {
                sleep(Duration::from_nanos(5));
            }
        });
        sim2.run().unwrap();
        assert!(
            sim2.events_executed() > after_ten,
            "more sleeps must execute more events"
        );
    }

    #[test]
    fn processes_interleave_by_virtual_time_not_spawn_order() {
        let sim = Simulation::new(1);
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let o1 = order.clone();
        sim.spawn("late", move || {
            sleep(Duration::from_nanos(50));
            o1.lock().push("late");
        });
        let o2 = order.clone();
        sim.spawn("early", move || {
            sleep(Duration::from_nanos(10));
            o2.lock().push("early");
        });
        sim.run().unwrap();
        assert_eq!(*order.lock(), vec!["early", "late"]);
    }

    #[test]
    fn same_instant_ties_break_by_schedule_order() {
        let sim = Simulation::new(1);
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        for i in 0..5u32 {
            let o = order.clone();
            sim.spawn(format!("p{i}"), move || {
                o.lock().push(i);
            });
        }
        sim.run().unwrap();
        assert_eq!(*order.lock(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn spawn_from_inside_a_process() {
        let sim = Simulation::new(1);
        let hits = Arc::new(AtomicU64::new(0));
        let h = hits.clone();
        sim.spawn("parent", move || {
            let h2 = h.clone();
            spawn("child", move || {
                sleep(Duration::from_nanos(7));
                h2.fetch_add(now().as_nanos(), Ordering::SeqCst);
            });
            sleep(Duration::from_nanos(3));
            h.fetch_add(1, Ordering::SeqCst);
        });
        sim.run().unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn schedule_runs_timers_in_event_context() {
        let sim = Simulation::new(1);
        let val = Arc::new(AtomicU64::new(0));
        let v = val.clone();
        sim.spawn("p", move || {
            let v2 = v.clone();
            schedule(Duration::from_nanos(500), move || {
                v2.store(99, Ordering::SeqCst);
            });
            sleep(Duration::from_nanos(499));
            assert_eq!(v.load(Ordering::SeqCst), 0);
            sleep(Duration::from_nanos(2));
            assert_eq!(v.load(Ordering::SeqCst), 99);
        });
        sim.run().unwrap();
    }

    #[test]
    fn kill_unwinds_parked_process() {
        let sim = Simulation::new(1);
        let done = Arc::new(AtomicU64::new(0));
        let d = done.clone();
        let victim = sim.spawn("victim", move || {
            sleep(Duration::from_secs(1_000_000));
            d.store(1, Ordering::SeqCst); // must never run
        });
        sim.spawn("killer", move || {
            sleep(Duration::from_nanos(10));
            kill(victim);
            yield_now();
            assert!(is_finished(victim));
        });
        sim.run().unwrap();
        assert_eq!(done.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn stop_halts_the_run() {
        let sim = Simulation::new(1);
        sim.spawn("stopper", || {
            sleep(Duration::from_nanos(42));
            stop();
        });
        sim.spawn("immortal", || loop {
            sleep(Duration::from_nanos(1));
        });
        sim.run().unwrap();
        assert_eq!(sim.now().as_nanos(), 42);
    }

    #[test]
    fn deadlock_is_reported() {
        let sim = Simulation::new(1);
        sim.spawn("stuck", || {
            let c = Cond::new();
            c.wait(); // nobody will ever notify
        });
        match sim.run() {
            Err(SimError::Deadlock { blocked }) => {
                assert!(blocked.iter().any(|n| n.contains("stuck")));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn per_process_rng_is_deterministic_across_runs() {
        fn draw(seed: u64) -> Vec<u64> {
            let sim = Simulation::new(seed);
            let out = Arc::new(parking_lot::Mutex::new(Vec::new()));
            for i in 0..3 {
                let o = out.clone();
                sim.spawn(format!("p{i}"), move || {
                    o.lock().push(with_rng(rand::RngCore::next_u64));
                });
            }
            sim.run().unwrap();
            let v = out.lock().clone();
            v
        }
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    /// The first panic on a fresh coroutine stack exercises the entry
    /// frame's alignment (the unwinder uses aligned stores) and the rule
    /// that nothing unwinds past it: the panic must come out of `run` as a
    /// message, and the parked bystander must still unwind cleanly when
    /// the simulation is dropped.
    #[test]
    fn process_panic_propagates_to_run() {
        let sim = Simulation::new(1);
        sim.spawn("bystander", || sleep(Duration::from_secs(1)));
        sim.spawn("bad", || panic!("boom {}", 1.5f64));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()));
        let msg = r.expect_err("the process panicked");
        assert_eq!(
            msg.downcast_ref::<String>().map(String::as_str),
            Some("process 'bad' panicked: boom 1.5")
        );
    }

    /// All processes share one thread: while one is suspended inside a sim
    /// call, others make sim calls of their own, and each must find its
    /// own identity again whenever it is switched back in.
    #[test]
    fn identity_follows_the_running_process_across_blocks() {
        let sim = Simulation::new(1);
        for name in ["a", "b", "c"] {
            sim.spawn(name, move || {
                let me = current_pid();
                for _ in 0..5 {
                    sleep(Duration::from_nanos(3));
                    assert_eq!(current_pid(), me);
                    assert_eq!(proc_name(), name);
                }
            });
        }
        sim.run().unwrap();
    }

    /// A process may build and run a simulation of its own: while the inner
    /// host loop runs, the outer one's other processes stay suspended
    /// inside their sim calls, and the outer context comes back afterwards.
    #[test]
    fn a_simulation_runs_inside_a_process_of_another() {
        let outer = Simulation::new(1);
        outer.spawn("bystander", || sleep(Duration::from_nanos(5)));
        outer.spawn("driver", || {
            sleep(Duration::from_nanos(1));
            let inner = Simulation::new(2);
            inner.spawn("p", || {
                sleep(Duration::from_nanos(7));
                assert_eq!((now().as_nanos(), proc_name().as_str()), (7, "p"));
            });
            inner.run().unwrap();
            assert_eq!((now().as_nanos(), proc_name().as_str()), (1, "driver"));
        });
        outer.run().unwrap();
        assert_eq!(outer.now().as_nanos(), 5);
    }

    /// A timer closure runs on the host between two slices of processes:
    /// it must see event context, not whichever process ran last.
    #[test]
    fn timers_see_event_context_between_process_slices() {
        let sim = Simulation::new(1);
        let in_event_ctx = Arc::new(AtomicU64::new(0));
        let seen = in_event_ctx.clone();
        sim.spawn("p", move || {
            schedule(Duration::from_nanos(10), move || {
                let event_ctx = try_now().is_none() && vc_release().is_none();
                seen.store(1 + u64::from(event_ctx), Ordering::SeqCst);
            });
            sleep(Duration::from_nanos(10)); // resumed right after the timer
            assert_eq!(try_now().map(SimTime::as_nanos), Some(10));
        });
        sim.run().unwrap();
        assert_eq!(in_event_ctx.load(Ordering::SeqCst), 2);
    }

    struct CountDrop(Arc<AtomicU64>);
    impl Drop for CountDrop {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn kill_and_drop_unwind_through_destructors() {
        let drops = Arc::new(AtomicU64::new(0));
        let sim = Simulation::new(1);
        let [g1, g2, g3] = [(); 3].map(|()| CountDrop(drops.clone()));
        let victim = sim.spawn("victim", move || {
            let _g = g1;
            Cond::new().wait();
        });
        sim.spawn("parked", move || {
            let _g = g2;
            Cond::new().wait();
        });
        sim.spawn("killer", move || {
            kill(victim);
            yield_now();
            assert!(is_finished(victim));
        });
        sim.run_until(SimTime::from_nanos(5)).unwrap();
        assert_eq!(
            drops.load(Ordering::SeqCst),
            1,
            "the killed process unwound"
        );
        // Spawned but never run: it has no stack, only its captures.
        sim.spawn("unstarted", move || {
            let _g = g3;
        });
        drop(sim);
        assert_eq!(drops.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn run_until_advances_partially() {
        let sim = Simulation::new(1);
        let ticks = Arc::new(AtomicU64::new(0));
        let t = ticks.clone();
        sim.spawn("ticker", move || loop {
            sleep(Duration::from_nanos(100));
            t.fetch_add(1, Ordering::SeqCst);
        });
        sim.run_until(SimTime::from_nanos(1000)).unwrap();
        assert_eq!(ticks.load(Ordering::SeqCst), 10);
        assert_eq!(sim.now().as_nanos(), 1000);
        sim.run_until(SimTime::from_nanos(2500)).unwrap();
        assert_eq!(ticks.load(Ordering::SeqCst), 25);
    }
}
