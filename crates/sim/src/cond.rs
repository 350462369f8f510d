//! Futex-like condition for simulated processes.

use crate::kernel::{try_with_ctx, with_ctx, Kernel, Pid};
use crate::time::SimTime;
use crate::vclock::VectorClock;
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
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
#[derive(Clone, Default)]
pub struct Cond {
    waiters: Arc<Mutex<Vec<Waiter>>>,
    /// Join of the happens-before clocks of every notifier so far; woken
    /// waiters acquire it (a sync edge for the race detector). Stays empty
    /// unless a detector is ticking clocks; `sync_set` keeps the detector-off
    /// wait path down to one relaxed load.
    sync_vc: Arc<Mutex<VectorClock>>,
    sync_set: Arc<AtomicBool>,
    /// Identity for the exploration wait-for graph: a per-kernel
    /// deterministic id (assigned lazily on first explored use) plus a
    /// taxonomy label (`"mailbox"`, `"rdma.mem"`, …). Untouched — and the
    /// id never assigned — unless exploration is on.
    ident: Arc<Mutex<CondIdent>>,
}

#[derive(Default)]
struct CondIdent {
    /// 0 = not yet assigned.
    id: u64,
    /// Empty = the generic `"cond"` label.
    label: &'static str,
}

struct Waiter {
    kernel: Arc<Kernel>,
    pid: Pid,
    token: u64,
}

impl fmt::Debug for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cond")
            .field("waiters", &self.waiters.lock().len())
            .finish()
    }
}

impl Cond {
    /// Creates a condition with no waiters. Usable from any thread.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a condition carrying an exploration taxonomy label
    /// (`"mailbox"`, `"rdma.mem"`, …), shown in wait-for-graph edges and
    /// livelock reports.
    pub fn labeled(label: &'static str) -> Self {
        let cond = Self::default();
        cond.ident.lock().label = label;
        cond
    }

    /// Sets the exploration taxonomy label after construction.
    pub fn set_label(&self, label: &'static str) {
        self.ident.lock().label = label;
    }

    /// The wait state a block on this cond is booked under: its taxonomy
    /// label when the profiler is on. Reads the label only — unlike
    /// [`Cond::explore_ident`] it must not assign the exploration id, whose
    /// allocation order is part of the explored-run fingerprint.
    fn prof_key(&self, kernel: &Kernel) -> crate::prof::Key {
        if kernel.prof_enabled() {
            crate::prof::blocked(self.ident.lock().label)
        } else {
            crate::prof::BLOCKED_COND
        }
    }

    /// The cond's deterministic exploration identity, assigning the id on
    /// first use. Only called when exploration is on.
    fn explore_ident(&self, kernel: &Kernel) -> (u64, &'static str) {
        let mut ident = self.ident.lock();
        if ident.id == 0 {
            ident.id = kernel.alloc_cond_id();
        }
        let label = if ident.label.is_empty() {
            "cond"
        } else {
            ident.label
        };
        (ident.id, label)
    }

    /// Blocks the calling process until notified (or spuriously woken).
    ///
    /// # Panics
    ///
    /// Panics when called from outside a simulated process.
    pub fn wait(&self) {
        with_ctx(|kernel, pid| {
            let token = kernel.begin_block(pid);
            self.waiters.lock().push(Waiter {
                kernel: Arc::clone(kernel),
                pid,
                token,
            });
            let ex = kernel.explore_state();
            if let Some(ex) = &ex {
                let (id, label) = self.explore_ident(kernel);
                ex.wait_begin(pid.index(), id, label, false);
            }
            kernel.yield_and_park(pid, self.prof_key(kernel));
            if let Some(ex) = &ex {
                ex.wait_end(pid.index());
            }
        });
        self.acquire_sync();
    }

    /// Blocks until notified or until the virtual deadline passes.
    pub(crate) fn wait_deadline(&self, deadline: SimTime) -> WaitOutcome {
        let outcome = with_ctx(|kernel, pid| {
            if SimTime::from_nanos(kernel.now_nanos()) >= deadline {
                return WaitOutcome::TimedOut;
            }
            let token = kernel.begin_block(pid);
            self.waiters.lock().push(Waiter {
                kernel: Arc::clone(kernel),
                pid,
                token,
            });
            kernel.enqueue_wake_at(deadline.as_nanos(), pid, token);
            let ex = kernel.explore_state();
            if let Some(ex) = &ex {
                let (id, label) = self.explore_ident(kernel);
                ex.wait_begin(pid.index(), id, label, true);
            }
            kernel.yield_and_park(pid, self.prof_key(kernel));
            if let Some(ex) = &ex {
                ex.wait_end(pid.index());
            }
            if kernel.now_nanos() >= deadline.as_nanos() {
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
    /// loop regains control. One relaxed flag load when exploration is off.
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
        // with no waiters present: the history is what matters.
        let _ = try_with_ctx(|kernel, pid| {
            if let Some(ex) = kernel.explore_state() {
                let (id, _) = self.explore_ident(kernel);
                ex.note_notify(pid.index(), id);
            }
        });
        let vc = crate::vc_current();
        if !vc.is_empty() {
            self.sync_vc.lock().join(&vc);
            self.sync_set.store(true, Ordering::Relaxed);
        }
        let mut drained: Vec<Waiter> = {
            let mut w = self.waiters.lock();
            if w.is_empty() {
                return;
            }
            std::mem::take(&mut *w)
        };
        for waiter in drained.drain(..) {
            waiter.kernel.wake(waiter.pid, waiter.token);
        }
        // Hand the (now empty) buffer back so steady-state wait/notify
        // cycles reuse its capacity instead of reallocating every round.
        let mut w = self.waiters.lock();
        if w.is_empty() {
            std::mem::swap(&mut *w, &mut drained);
        }
    }

    /// Joins the accumulated notifier clocks into the calling process.
    fn acquire_sync(&self) {
        if self.sync_set.load(Ordering::Relaxed) {
            crate::vc_acquire(&self.sync_vc.lock());
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{now, sleep, Cond, SimTime, Simulation};
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
}
