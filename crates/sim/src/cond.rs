//! Futex-like condition for simulated processes.

use crate::kernel::{try_with_ctx, with_ctx, Kernel, Pid};
use crate::time::SimTime;
use crate::vclock::VectorClock;
use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;
use std::time::Duration;

/// The result of a wait with a deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WaitOutcome {
    /// Woken (by a notify or spuriously) before the deadline.
    Woken,
    /// The deadline passed.
    TimedOut,
}

/// A condition that simulated processes can block on.
///
/// `Cond` is the simulation's stand-in for polling RDMA-visible memory: a
/// process that would busy-poll a memory word instead blocks on the `Cond`
/// attached to that memory region and is woken when a (simulated) remote
/// write lands.
///
/// Semantics mirror a condition variable: waits can wake spuriously, so
/// callers must re-check their predicate — or use [`Cond::wait_while`].
/// Because simulated execution is serialized, the check-then-wait sequence
/// is atomic and wakeups cannot be lost.
///
/// A `Cond` is not `Send`: its clones share plain cells, which is sound
/// because every process and timer that touches them runs on the thread
/// that runs the simulation.
///
/// ```compile_fail,E0277
/// fn send<T: Send>() {}
/// send::<sim::Cond>();
/// ```
#[derive(Clone, Default)]
pub struct Cond {
    inner: Rc<CondInner>,
}

#[derive(Default)]
struct CondInner {
    waiters: RefCell<Vec<Waiter>>,
    /// Join of the happens-before clocks of every notifier so far; woken
    /// waiters acquire it (a sync edge for the race detector). Stays empty
    /// unless a detector is ticking clocks, so the detector-off wait path
    /// tests an empty clock and stops.
    sync_vc: RefCell<VectorClock>,
    /// Identity for the exploration wait-for graph: a per-kernel
    /// deterministic id (assigned lazily on first explored use; 0 = not yet
    /// assigned) plus a taxonomy label (`"mailbox"`, `"rdma.mem"`, …; empty
    /// = the generic `"cond"`). The id is never assigned unless exploration
    /// is on.
    id: Cell<u64>,
    label: Cell<&'static str>,
}

struct Waiter {
    kernel: Rc<Kernel>,
    pid: Pid,
    token: u64,
}

impl fmt::Debug for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cond")
            .field("waiters", &self.inner.waiters.borrow().len())
            .finish()
    }
}

impl Cond {
    /// Creates a condition with no waiters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a condition carrying an exploration taxonomy label
    /// (`"mailbox"`, `"rdma.mem"`, …), shown in wait-for-graph edges and
    /// livelock reports.
    pub fn labeled(label: &'static str) -> Self {
        let cond = Self::default();
        cond.set_label(label);
        cond
    }

    /// Sets the exploration taxonomy label after construction.
    pub fn set_label(&self, label: &'static str) {
        self.inner.label.set(label);
    }

    /// The wait state a block on this cond is booked under: its taxonomy
    /// label when the profiler is on. Reads the label only — unlike
    /// [`Cond::explore_ident`] it must not assign the exploration id, whose
    /// allocation order is part of the explored-run fingerprint.
    fn prof_key(&self, kernel: &Kernel) -> crate::prof::Key {
        if kernel.prof_enabled() {
            crate::prof::blocked(self.inner.label.get())
        } else {
            crate::prof::BLOCKED_COND
        }
    }

    /// The cond's deterministic exploration identity, assigning the id on
    /// first use. Only called when exploration is on.
    fn explore_ident(&self, kernel: &Kernel) -> (u64, &'static str) {
        let CondInner { id, label, .. } = &*self.inner;
        if id.get() == 0 {
            id.set(kernel.alloc_cond_id());
        }
        let label = match label.get() {
            "" => "cond",
            label => label,
        };
        (id.get(), label)
    }

    /// Blocks the calling process until notified (or spuriously woken).
    ///
    /// # Panics
    ///
    /// Panics when called from outside a simulated process.
    pub fn wait(&self) {
        self.block(None);
    }

    /// Blocks until notified or until the virtual deadline passes.
    pub(crate) fn wait_deadline(&self, deadline: SimTime) -> WaitOutcome {
        self.block(Some(deadline.as_nanos()))
    }

    /// One block on this cond, with or without a deadline.
    fn block(&self, deadline: Option<u64>) -> WaitOutcome {
        let outcome = with_ctx(|kernel, pid| {
            let passed = || deadline.is_some_and(|at| kernel.now_nanos() >= at);
            if passed() {
                return WaitOutcome::TimedOut;
            }
            let token = kernel.begin_block(pid, deadline);
            self.inner.waiters.borrow_mut().push(Waiter {
                kernel: Rc::clone(kernel),
                pid,
                token,
            });
            let ex = kernel.explore_state();
            if let Some(ex) = &ex {
                let (id, label) = self.explore_ident(kernel);
                ex.wait_begin(pid.index(), id, label, deadline.is_some());
            }
            kernel.yield_and_park(pid, self.prof_key(kernel));
            if let Some(ex) = &ex {
                ex.wait_end(pid.index());
            }
            if passed() {
                WaitOutcome::TimedOut
            } else {
                WaitOutcome::Woken
            }
        });
        self.acquire_sync();
        outcome
    }

    /// Blocks until `pred()` returns `false`.
    ///
    /// The predicate is checked before the first wait and after every
    /// wakeup.
    pub fn wait_while(&self, mut pred: impl FnMut() -> bool) {
        let mut blocked = false;
        while pred() {
            self.wait();
            blocked = true;
        }
        if !blocked {
            self.note_unblocked_pass();
        }
    }

    /// Blocks until `pred()` returns `false` or `timeout` of virtual time
    /// elapses. Returns `true` if the predicate turned false (success) and
    /// `false` on timeout.
    pub fn wait_while_timeout(&self, mut pred: impl FnMut() -> bool, timeout: Duration) -> bool {
        let deadline = crate::now() + timeout;
        let mut blocked = false;
        loop {
            if !pred() {
                if !blocked {
                    self.note_unblocked_pass();
                }
                return true;
            }
            if self.wait_deadline(deadline) == WaitOutcome::TimedOut {
                return !pred();
            }
            blocked = true;
        }
    }

    /// Exploration hook for the PR 8 `has_work` bug class: the predicate
    /// was satisfied without ever blocking. A caller spinning this way
    /// never re-enters the scheduler, so kernel-side detection cannot see
    /// it — only the wait site can. When the poll-spin guard trips, the
    /// violation is already recorded; stop the run and yield so the host
    /// loop regains control. One `OnceCell` flag test when exploration is
    /// off.
    fn note_unblocked_pass(&self) {
        let tripped = try_with_ctx(|kernel, pid| match kernel.explore_state() {
            None => false,
            Some(ex) => {
                let (id, label) = self.explore_ident(kernel);
                let name = kernel.proc_name(pid);
                ex.note_poll_pass(id, label, &name, kernel.now_nanos())
            }
        })
        .unwrap_or(false);
        if tripped {
            with_ctx(|kernel, _| kernel.stop());
            crate::yield_now();
        }
    }

    /// Wakes every currently-blocked waiter (at the current virtual time).
    ///
    /// Callable from process context *or* event context (timer closures).
    pub fn notify_all(&self) {
        // Exploration hook: remember who notifies this cond (process
        // context only — event-context notifiers can never themselves be
        // blocked, so they cannot close a wait-for cycle). Recorded even
        // with no waiters present: the history is what matters. The same
        // visit takes the notifier's clock (empty in event context).
        let vc = try_with_ctx(|kernel, pid| {
            if let Some(ex) = kernel.explore_state() {
                let (id, _) = self.explore_ident(kernel);
                ex.note_notify(pid.index(), id);
            }
            kernel.vc_snapshot(pid)
        })
        .unwrap_or_default();
        if !vc.is_empty() {
            self.inner.sync_vc.borrow_mut().join(&vc);
        }
        let mut w = self.inner.waiters.borrow_mut();
        if w.len() <= 1 {
            // None, or the one every `Poller` has: popped in place, the
            // buffer never leaves the cond.
            let only = w.pop();
            drop(w);
            if let Some(waiter) = only {
                waiter.kernel.wake(waiter.pid, waiter.token);
            }
            return;
        }
        let mut drained = std::mem::take(&mut *w);
        drop(w);
        for waiter in drained.drain(..) {
            waiter.kernel.wake(waiter.pid, waiter.token);
        }
        // Hand the (now empty) buffer back so steady-state wait/notify
        // cycles reuse its capacity instead of reallocating every round.
        let mut w = self.inner.waiters.borrow_mut();
        if w.is_empty() {
            std::mem::swap(&mut *w, &mut drained);
        }
    }

    /// Joins the accumulated notifier clocks into the calling process.
    fn acquire_sync(&self) {
        crate::vc_acquire(&self.inner.sync_vc.borrow());
    }
}

#[cfg(test)]
mod tests {
    use crate::{now, sleep, sleep_ns, Cond, ExploreConfig, SimTime, Simulation, StrategyKind};
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn notify_wakes_waiter_at_notify_time() {
        let sim = Simulation::new(1);
        let cond = Cond::new();
        let flag = Arc::new(AtomicBool::new(false));
        let (c1, f1) = (cond.clone(), flag.clone());
        sim.spawn("waiter", move || {
            c1.wait_while(|| !f1.load(Ordering::SeqCst));
            assert_eq!(now().as_nanos(), 300);
        });
        sim.spawn("notifier", move || {
            sleep(Duration::from_nanos(300));
            flag.store(true, Ordering::SeqCst);
            cond.notify_all();
        });
        sim.run().unwrap();
    }

    #[test]
    fn wait_while_timeout_times_out() {
        let sim = Simulation::new(1);
        let outcome = Arc::new(Mutex::new(None));
        let o = outcome.clone();
        sim.spawn("waiter", move || {
            let cond = Cond::new();
            let ok = cond.wait_while_timeout(|| true, Duration::from_nanos(500));
            *o.lock() = Some((ok, now().as_nanos()));
        });
        sim.run().unwrap();
        assert_eq!(*outcome.lock(), Some((false, 500)));
    }

    #[test]
    fn wait_while_timeout_succeeds_before_deadline() {
        let sim = Simulation::new(1);
        let cond = Cond::new();
        let flag = Arc::new(AtomicBool::new(false));
        let (c1, f1) = (cond.clone(), flag.clone());
        let result = Arc::new(Mutex::new(None));
        let r = result.clone();
        sim.spawn("waiter", move || {
            let ok =
                c1.wait_while_timeout(|| !f1.load(Ordering::SeqCst), Duration::from_micros(10));
            *r.lock() = Some((ok, now().as_nanos()));
        });
        sim.spawn("notifier", move || {
            sleep(Duration::from_nanos(100));
            flag.store(true, Ordering::SeqCst);
            cond.notify_all();
        });
        sim.run().unwrap();
        assert_eq!(*result.lock(), Some((true, 100)));
    }

    #[test]
    fn notify_from_event_context() {
        let sim = Simulation::new(1);
        let cond = Cond::new();
        let flag = Arc::new(AtomicBool::new(false));
        let (c1, f1) = (cond.clone(), flag.clone());
        sim.spawn("waiter", move || {
            c1.wait_while(|| !f1.load(Ordering::SeqCst));
            assert_eq!(now().as_nanos(), 250);
        });
        sim.spawn("scheduler-user", move || {
            let c = cond.clone();
            let f = flag.clone();
            crate::schedule(Duration::from_nanos(250), move || {
                f.store(true, Ordering::SeqCst);
                c.notify_all();
            });
        });
        sim.run().unwrap();
    }

    #[test]
    fn notify_wakes_all_waiters() {
        let sim = Simulation::new(1);
        let cond = Cond::new();
        let flag = Arc::new(AtomicBool::new(false));
        let woken = Arc::new(AtomicU64::new(0));
        for i in 0..4 {
            let (c, f, w) = (cond.clone(), flag.clone(), woken.clone());
            sim.spawn(format!("w{i}"), move || {
                c.wait_while(|| !f.load(Ordering::SeqCst));
                w.fetch_add(1, Ordering::SeqCst);
            });
        }
        sim.spawn("notifier", move || {
            sleep(Duration::from_nanos(10));
            flag.store(true, Ordering::SeqCst);
            cond.notify_all();
        });
        sim.run().unwrap();
        assert_eq!(woken.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn wait_deadline_already_passed_returns_timeout_immediately() {
        let sim = Simulation::new(1);
        sim.spawn("p", || {
            sleep(Duration::from_nanos(100));
            let cond = Cond::new();
            let ok = cond.wait_while_timeout(|| true, Duration::ZERO);
            assert!(!ok);
            assert_eq!(now(), SimTime::from_nanos(100)); // no time passed
        });
        sim.run().unwrap();
    }

    /// A wait satisfied early leaves its deadline entry behind, dead. The
    /// wheel drops such an entry at the first cascade that meets it: none
    /// of the `K` pops as a no-op, and the one wait nobody satisfies still
    /// times out at its instant.
    #[test]
    fn superseded_deadlines_never_pop_and_the_real_timeout_fires() {
        const K: u64 = 5;
        const MS: u64 = 1_000_000;
        let sim = Simulation::new(1);
        let cond = Cond::new();
        let round = Arc::new(AtomicU64::new(0));
        let timed_out_at = Arc::new(AtomicU64::new(0));
        let (c, r, t) = (cond.clone(), round.clone(), timed_out_at.clone());
        sim.spawn("waiter", move || {
            for want in 1..=K {
                let pending = || r.load(Ordering::SeqCst) < want;
                assert!(c.wait_while_timeout(pending, Duration::from_nanos(MS)));
            }
            assert!(!c.wait_while_timeout(|| true, Duration::from_nanos(MS)));
            t.store(now().as_nanos(), Ordering::SeqCst);
        });
        sim.spawn("notifier", move || {
            for _ in 0..K {
                sleep_ns(100);
                round.fetch_add(1, Ordering::SeqCst);
                cond.notify_all();
            }
        });
        sim.run().unwrap();
        assert_eq!(timed_out_at.load(Ordering::SeqCst), K * 100 + MS);
        assert_eq!(sim.now().as_nanos(), K * 100 + MS);
        // Two first dispatches, K sleeps, K notify wakes, one timeout — and
        // not the K superseded deadline entries on top.
        assert_eq!(sim.events_executed(), 2 + 2 * K + 1);
    }

    /// The tie rule shedding relies on: a deadline entry's place among the
    /// entries of its instant is that of the wait that filed it, so a
    /// process notified early that waits again goes to the back — whether
    /// its first entry pops as a no-op or was dropped on the way. The same
    /// under exploration's Baseline, which pops through the same call.
    #[test]
    fn timeouts_at_one_instant_fire_in_the_order_their_last_wait_began() {
        let run = |explore: bool| {
            let sim = Simulation::new(1);
            if explore {
                sim.enable_exploration(ExploreConfig::new(StrategyKind::Baseline));
            }
            let order = Arc::new(Mutex::new(Vec::new()));
            let conds: Vec<Cond> = (0..3).map(|_| Cond::new()).collect();
            for (i, cond) in conds.iter().cloned().enumerate() {
                let order = order.clone();
                sim.spawn(format!("w{i}"), move || {
                    assert!(!cond.wait_while_timeout(|| true, Duration::from_nanos(1_000)));
                    order.lock().push((i, now().as_nanos()));
                });
            }
            let first = conds[0].clone();
            sim.spawn("early", move || {
                sleep_ns(100);
                first.notify_all(); // w0 wakes, still pending, waits again
            });
            sim.run().unwrap();
            let order = order.lock().clone();
            (order, sim.schedule_hash(), sim.events_executed())
        };
        let plain = run(false);
        assert_eq!(plain.0, vec![(1, 1_000), (2, 1_000), (0, 1_000)]);
        assert_eq!(run(true), plain);
    }

    /// `notify_all` wakes every waiter in the order they began waiting —
    /// none, the one a `Poller` has, or several — and the waiter buffer
    /// keeps its capacity through each.
    #[test]
    fn notify_all_wakes_in_wait_order_and_keeps_the_buffer() {
        for waiters in [0usize, 1, 3] {
            let sim = Simulation::new(1);
            let cond = Cond::new();
            let woken = Arc::new(Mutex::new(Vec::new()));
            for i in 0..waiters {
                let (c, w) = (cond.clone(), woken.clone());
                sim.spawn(format!("w{i}"), move || {
                    c.wait();
                    w.lock().push((i, now().as_nanos()));
                });
            }
            let capacities = Arc::new(Mutex::new((0, 0)));
            let (c, caps) = (cond.clone(), capacities.clone());
            sim.spawn("notifier", move || {
                sleep_ns(10);
                let before = c.inner.waiters.borrow().capacity();
                c.notify_all();
                *caps.lock() = (before, c.inner.waiters.borrow().capacity());
            });
            sim.run().unwrap();
            let expect: Vec<_> = (0..waiters).map(|i| (i, 10)).collect();
            assert_eq!(*woken.lock(), expect, "{waiters} waiters");
            let (before, after) = *capacities.lock();
            assert!(before >= waiters && after == before, "{waiters} waiters");
            assert!(cond.inner.waiters.borrow().is_empty());
        }
    }
}
