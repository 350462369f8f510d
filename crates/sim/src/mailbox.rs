//! Unbounded FIFO channels between simulated processes.

use crate::cond::Cond;
use crate::kernel::{with_ctx, Pid};
use crate::vclock::VectorClock;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;
use std::time::Duration;

/// Error returned by [`MailboxReceiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvTimeoutError;

impl fmt::Display for RecvTimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "timed out waiting for a mailbox message")
    }
}

impl std::error::Error for RecvTimeoutError {}

/// Error returned by [`Mailbox::send`] when every process that ever
/// received from the mailbox has crashed (been [`crate::kill`]ed) or
/// finished: the message can never be consumed, so instead of queueing it
/// forever — and letting the sender block on a reply that cannot come —
/// the send fails and hands the value back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "every receiver of this mailbox has crashed or finished")
    }
}

impl<T: fmt::Debug> std::error::Error for SendError<T> {}

struct Inner<T> {
    /// Each message carries a snapshot of the sender's happens-before
    /// clock, joined into the receiver on delivery (a sync edge for the
    /// race detector). The clock is empty — and free — unless a detector
    /// is running.
    queue: RefCell<VecDeque<(T, VectorClock)>>,
    cond: Cond,
    /// Every process that has blocked in [`Mailbox::recv`] /
    /// [`Mailbox::recv_timeout`], with its kernel-shared dead flag. Once
    /// non-empty, sends fail when all of them are dead; dead entries are
    /// pruned while a live one remains. The flags make the per-send
    /// liveness check a couple of flag reads instead of a kernel visit per
    /// owner.
    owners: RefCell<Vec<(Rc<Cell<bool>>, Pid)>>,
}

/// An unbounded FIFO mailbox. The simulation's equivalent of an mpsc
/// channel: senders never block, receivers block on virtual time.
///
/// Like [`Cond`], a mailbox is not `Send`: its clones share plain cells,
/// touched only from the thread that runs the simulation.
///
/// ```compile_fail,E0277
/// fn send<T: Send>() {}
/// send::<sim::Mailbox<u8>>();
/// ```
pub struct Mailbox<T> {
    inner: Rc<Inner<T>>,
}

impl<T> Clone for Mailbox<T> {
    fn clone(&self) -> Self {
        Mailbox {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<T> fmt::Debug for Mailbox<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mailbox").field("len", &self.len()).finish()
    }
}

impl<T> Default for Mailbox<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// The sending half of a [`Mailbox::pair`]. Cloneable.
#[derive(Clone, Debug)]
pub struct MailboxSender<T>(Mailbox<T>);

/// The receiving half of a [`Mailbox::pair`]. Cloneable (multi-consumer).
#[derive(Clone, Debug)]
pub struct MailboxReceiver<T>(Mailbox<T>);

impl<T> Mailbox<T> {
    /// Creates an empty mailbox.
    pub fn new() -> Self {
        Self::with_cond(Cond::labeled("mailbox"))
    }

    /// Creates a mailbox that notifies `cond` on every send, in addition to
    /// waking its own receivers.
    ///
    /// Useful to funnel several wake sources into one wait point: a process
    /// can block on `cond` and learn about both mailbox traffic and other
    /// events sharing the same condition (e.g. RDMA writes landing in a
    /// node's memory).
    pub fn with_cond(cond: Cond) -> Self {
        Mailbox {
            inner: Rc::new(Inner {
                queue: RefCell::new(VecDeque::new()),
                cond,
                owners: RefCell::new(Vec::new()),
            }),
        }
    }

    /// The condition every send notifies: a process can block on it to
    /// wait for this mailbox's traffic together with whatever else rings
    /// the same condition.
    pub fn cond(&self) -> &Cond {
        &self.inner.cond
    }

    /// Registers the calling process as a receiver of this mailbox.
    fn bind_current(&self) {
        with_ctx(|kernel, pid| {
            let mut owners = self.inner.owners.borrow_mut();
            if !owners.iter().any(|(_, p)| *p == pid) {
                owners.push((kernel.dead_flag(pid), pid));
            }
        });
    }

    /// Creates a connected sender/receiver pair over a fresh mailbox.
    pub fn pair() -> (MailboxSender<T>, MailboxReceiver<T>) {
        let mb = Mailbox::new();
        (MailboxSender(mb.clone()), MailboxReceiver(mb))
    }

    /// Appends a message. Never blocks; wakes any blocked receiver.
    ///
    /// Callable from process or event context.
    ///
    /// # Errors
    ///
    /// Returns [`SendError`] (handing the value back) if at least one
    /// process has received from this mailbox and **all** of them have been
    /// [`crate::kill`]ed or finished — the message would otherwise sit in
    /// the queue forever while the sender waits on a reply that can never
    /// come, deadlocking the simulation.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        self.send_with_clock(value, crate::vc_current())
    }

    /// Like [`Mailbox::send`], but with an explicit happens-before clock
    /// for the message. Used by event-context senders (e.g. a simulated
    /// NIC delivering a message) that captured the clock of the process
    /// that originally posted the operation.
    ///
    /// # Errors
    ///
    /// Returns [`SendError`] under the same conditions as [`Mailbox::send`].
    pub fn send_with_clock(&self, value: T, clock: VectorClock) -> Result<(), SendError<T>> {
        {
            let mut owners = self.inner.owners.borrow_mut();
            if !owners.is_empty() {
                if owners.iter().all(|(dead, _)| dead.get()) {
                    return Err(SendError(value));
                }
                owners.retain(|(dead, _)| !dead.get());
            }
        }
        self.inner.queue.borrow_mut().push_back((value, clock));
        self.inner.cond.notify_all();
        Ok(())
    }

    /// Pops the oldest message without blocking.
    pub fn try_recv(&self) -> Option<T> {
        let (value, clock) = self.inner.queue.borrow_mut().pop_front()?;
        crate::vc_acquire(&clock);
        Some(value)
    }

    /// Blocks the calling process until a message is available.
    ///
    /// # Panics
    ///
    /// Panics when called from outside a simulated process.
    pub fn recv(&self) -> T {
        self.bind_current();
        loop {
            if let Some(v) = self.try_recv() {
                return v;
            }
            self.inner.cond.wait();
        }
    }

    /// Blocks until a message arrives or `timeout` of virtual time elapses.
    ///
    /// # Errors
    ///
    /// Returns [`RecvTimeoutError`] if the timeout elapsed with no message.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        self.bind_current();
        let deadline = crate::now() + timeout;
        loop {
            if let Some(v) = self.try_recv() {
                return Ok(v);
            }
            if self.inner.cond.wait_deadline(deadline) == crate::cond::WaitOutcome::TimedOut {
                return self.try_recv().ok_or(RecvTimeoutError);
            }
        }
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.inner.queue.borrow().len()
    }

    /// Whether the mailbox is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> MailboxSender<T> {
    /// Appends a message; never blocks. See [`Mailbox::send`].
    ///
    /// # Errors
    ///
    /// [`SendError`] if every receiver has crashed or finished.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        self.0.send(value)
    }
}

impl<T> MailboxReceiver<T> {
    /// Blocks until a message is available. See [`Mailbox::recv`].
    pub fn recv(&self) -> T {
        self.0.recv()
    }

    /// Non-blocking receive. See [`Mailbox::try_recv`].
    pub fn try_recv(&self) -> Option<T> {
        self.0.try_recv()
    }

    /// Receive with a virtual-time timeout. See [`Mailbox::recv_timeout`].
    ///
    /// # Errors
    ///
    /// Returns [`RecvTimeoutError`] if the timeout elapsed with no message.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        self.0.recv_timeout(timeout)
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the mailbox is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{now, sleep, Simulation};
    use std::time::Duration;

    #[test]
    fn fifo_order_is_preserved() {
        let sim = Simulation::new(1);
        let (tx, rx) = Mailbox::pair();
        sim.spawn("producer", move || {
            for i in 0..10 {
                tx.send(i).unwrap();
                sleep(Duration::from_nanos(5));
            }
        });
        sim.spawn("consumer", move || {
            for i in 0..10 {
                assert_eq!(rx.recv(), i);
            }
        });
        sim.run().unwrap();
    }

    #[test]
    fn recv_blocks_until_send() {
        let sim = Simulation::new(1);
        let (tx, rx) = Mailbox::pair();
        sim.spawn("consumer", move || {
            assert_eq!(rx.recv(), 7);
            assert_eq!(now().as_nanos(), 900);
        });
        sim.spawn("producer", move || {
            sleep(Duration::from_nanos(900));
            tx.send(7).unwrap();
        });
        sim.run().unwrap();
    }

    #[test]
    fn recv_timeout_expires() {
        let sim = Simulation::new(1);
        let (_tx, rx) = Mailbox::<u32>::pair();
        sim.spawn("consumer", move || {
            let r = rx.recv_timeout(Duration::from_nanos(250));
            assert_eq!(r, Err(RecvTimeoutError));
            assert_eq!(now().as_nanos(), 250);
        });
        sim.run().unwrap();
    }

    #[test]
    fn recv_timeout_gets_message_in_time() {
        let sim = Simulation::new(1);
        let (tx, rx) = Mailbox::pair();
        sim.spawn("consumer", move || {
            let r = rx.recv_timeout(Duration::from_micros(1));
            assert_eq!(r, Ok(42));
            assert_eq!(now().as_nanos(), 100);
        });
        sim.spawn("producer", move || {
            sleep(Duration::from_nanos(100));
            tx.send(42).unwrap();
        });
        sim.run().unwrap();
    }

    #[test]
    fn try_recv_and_len() {
        let mb = Mailbox::new();
        assert!(mb.is_empty());
        assert_eq!(mb.try_recv(), None);
        mb.send(1).unwrap();
        mb.send(2).unwrap();
        assert_eq!(mb.len(), 2);
        assert_eq!(mb.try_recv(), Some(1));
        assert_eq!(mb.try_recv(), Some(2));
        assert!(mb.is_empty());
    }

    #[test]
    fn send_to_crashed_process_errors_deterministically() {
        // The receiver blocks in recv(), is killed, and every later send
        // must fail — at the same virtual instant on every run.
        #[allow(clippy::type_complexity)]
        fn run() -> (u64, Result<(), SendError<u32>>, Result<(), SendError<u32>>) {
            let sim = Simulation::new(17);
            let (tx, rx) = Mailbox::<u32>::pair();
            let receiver = sim.spawn("receiver", move || {
                let _ = rx.recv(); // parks forever; killed while parked
            });
            let out = std::sync::Arc::new(parking_lot::Mutex::new(None));
            let o = out.clone();
            sim.spawn("sender", move || {
                sleep(Duration::from_nanos(100));
                crate::kill(receiver);
                crate::yield_now(); // let the victim unwind
                let first = tx.send(1);
                let second = tx.send(2);
                *o.lock() = Some((now().as_nanos(), first, second));
            });
            sim.run().unwrap();
            let got = out.lock().take().unwrap();
            got
        }
        let (at, first, second) = run();
        assert_eq!(first, Err(SendError(1)), "send to a crashed receiver");
        assert_eq!(second, Err(SendError(2)), "it keeps failing");
        assert_eq!((at, first, second), run(), "bit-identical replay");
    }

    #[test]
    fn send_before_any_receiver_exists_queues() {
        let sim = Simulation::new(1);
        let (tx, rx) = Mailbox::pair();
        sim.spawn("sender", move || {
            // Nobody has received yet: ownership is unknown, sends queue.
            tx.send(5).unwrap();
        });
        sim.spawn("consumer", move || {
            sleep(Duration::from_nanos(50));
            assert_eq!(rx.recv(), 5);
        });
        sim.run().unwrap();
    }

    #[test]
    fn send_succeeds_while_one_of_two_receivers_lives() {
        let sim = Simulation::new(1);
        let mb: Mailbox<u32> = Mailbox::new();
        let (mb1, mb2) = (mb.clone(), mb.clone());
        let doomed = sim.spawn("doomed", move || {
            let _ = mb1.recv();
        });
        sim.spawn("survivor", move || {
            assert_eq!(mb2.recv(), 1);
        });
        sim.spawn("sender", move || {
            sleep(Duration::from_nanos(10));
            crate::kill(doomed);
            crate::yield_now();
            // One registered receiver is still alive: delivery succeeds.
            mb.send(1).unwrap();
        });
        sim.run().unwrap();
    }

    #[test]
    fn notify_after_waiter_killed_does_not_wake_or_hang() {
        // A Cond waiter that was killed must not absorb or corrupt later
        // notifies; the run completes without deadlock.
        let sim = Simulation::new(1);
        let cond = crate::Cond::new();
        let c1 = cond.clone();
        let victim = sim.spawn("victim", move || {
            c1.wait(); // killed while parked here
            unreachable!("killed process must not resume");
        });
        sim.spawn("notifier", move || {
            sleep(Duration::from_nanos(10));
            crate::kill(victim);
            crate::yield_now();
            assert!(crate::is_finished(victim));
            cond.notify_all(); // wake aimed at a dead process: discarded
        });
        sim.run().unwrap();
    }

    #[test]
    fn multiple_consumers_each_get_distinct_messages() {
        let sim = Simulation::new(1);
        let mb: Mailbox<u32> = Mailbox::new();
        let seen = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
        for i in 0..3 {
            let (mb, seen) = (mb.clone(), seen.clone());
            sim.spawn(format!("c{i}"), move || {
                let v = mb.recv();
                seen.lock().push(v);
            });
        }
        sim.spawn("producer", move || {
            sleep(Duration::from_nanos(10));
            for v in [100, 200, 300] {
                mb.send(v).unwrap();
            }
        });
        sim.run().unwrap();
        let mut got = seen.lock().clone();
        got.sort_unstable();
        assert_eq!(got, vec![100, 200, 300]);
    }
}
