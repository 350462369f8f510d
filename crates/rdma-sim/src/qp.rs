//! Reliable-connection queue pairs and the one-sided verbs.

use crate::error::{RdmaError, RdmaResult};
use crate::fabric::{Addr, Message, Node};
use crate::faults::{VerbFate, VerbGate};
use crate::tsan::WriteTicket;
use std::rc::Rc;
use std::sync::atomic::AtomicU64;

/// A reliable-connection (RC) queue pair from a local node to a remote
/// node — in-order, reliable delivery, the transport mode Heron uses
/// (paper §II-C).
///
/// All verbs must be called from a simulated process: they charge the
/// issuing process the modeled fabric latency.
///
/// ```compile_fail,E0277
/// fn send<T: Send>() {}
/// send::<rdma_sim::QueuePair>();
/// ```
#[derive(Clone, Debug)]
pub struct QueuePair {
    /// Shared, so that a clone — every [`WriteBatch`] holds one, every
    /// landing event another — is one reference count, not one per node
    /// handle: those counts are the hottest words of a run.
    ends: Rc<Ends>,
}

#[derive(Debug)]
struct Ends {
    local: Node,
    remote: Node,
}

impl QueuePair {
    pub(crate) fn new(local: Node, remote: Node) -> Self {
        let ends = Rc::new(Ends { local, remote });
        QueuePair { ends }
    }

    fn check_local_alive(&self) -> RdmaResult<()> {
        if !self.ends.local.is_alive() {
            return Err(RdmaError::LocalFailure);
        }
        Ok(())
    }

    /// The posting point of every verb: passes it through the fabric's
    /// fault layer (if a [`crate::FaultPlan`] is armed — any injected
    /// stall, a crash of the local node) and charges `post_ns`, scaled by
    /// the node's slowdown. The returned gate says how much to scale the
    /// verb's later charges and whether its completion is lost.
    fn post_verb(&self) -> RdmaResult<VerbGate> {
        match self.ends.local.fabric.verb_fate(self.ends.local.id()) {
            VerbFate::Proceed(gate) => {
                if gate.stall_ns > 0 {
                    sim::sleep_ns(gate.stall_ns);
                }
                sim::sleep_ns(self.ends.local.fabric.latency.post_ns * gate.slow);
                Ok(gate)
            }
            VerbFate::CrashLocal => {
                self.ends.local.inner.alive.set(false);
                Err(RdmaError::LocalFailure)
            }
        }
    }

    /// The one path of the signaled verbs — read, write, compare-and-swap —
    /// a synchronous round trip charged to the issuing process: post,
    /// `request_bytes` on the wire (RC in-order delivery and link
    /// serialization on this (src, dst) link), `op` against the remote
    /// node's memory at the arrival instant, `response_bytes` back. The
    /// completed verb books its doorbell and `counts`.
    ///
    /// A request lost in the fabric or arriving at a crashed node is the
    /// same errored completion: [`RdmaError::RemoteFailure`], memory
    /// untouched.
    fn round_trip<T>(
        &self,
        span: &'static str,
        args: [(&'static str, u64); 3],
        (request_bytes, response_bytes): (usize, usize),
        counts: &[(&AtomicU64, usize)],
        op: impl FnOnce(&Node) -> RdmaResult<T>,
    ) -> RdmaResult<T> {
        self.check_local_alive()?;
        let _span = sim::trace::span_args(span, 0, &args);
        let gate = self.post_verb()?;
        let Ends { local, remote } = &*self.ends;
        let fabric = &local.fabric;
        let now = sim::now().as_nanos();
        let arrival = fabric.fifo_arrival(local.id(), remote.id(), now, request_bytes);
        sim::sleep_ns(arrival - now);
        if gate.drop || !remote.is_alive() {
            return Err(RdmaError::RemoteFailure);
        }
        // All memory mutations happen at single virtual instants, so what
        // `op` sees at arrival is per-word atomic.
        let out = op(remote)?;
        sim::sleep_ns(fabric.latency.one_way(response_bytes) * gate.slow);
        fabric.stats.ring_doorbell(counts);
        Ok(out)
    }

    /// The one path of the unsignaled verbs — [`QueuePair::post_write`],
    /// [`WriteBatch::post`], [`QueuePair::send`]: the issuing process pays
    /// the posting charge (the `span`), `wire_bytes` occupy the link as one
    /// unit, and a single scheduler event lands the payload at the arrival
    /// instant — silently dropped if the fault plan loses it or the remote
    /// node is crashed by then, since no completion is ever reported. The
    /// posted verb books its doorbell and `counts`.
    ///
    /// The callers differ only in what lands: `arm` runs at the post
    /// instant, told the arrival time, captures the poster's ordering
    /// context (a race-detector ticket, a message clock) and returns the
    /// landing, which the event runs against the live remote node. The
    /// in-flight payload is a `flight` span and one unit of the profiler's
    /// `qp.sendq` gauge, both ended by the landing event.
    fn post_unsignaled<L: FnOnce(&Node) + 'static>(
        &self,
        (span, flight): (&'static str, &'static str),
        args: &[(&'static str, u64)],
        wire_bytes: usize,
        counts: &[(&AtomicU64, usize)],
        arm: impl FnOnce(u64) -> L,
    ) -> RdmaResult<()> {
        self.check_local_alive()?;
        let _post = sim::trace::span_args(span, 0, args);
        let gate = self.post_verb()?;
        let Ends { local, remote } = &*self.ends;
        let fabric = &local.fabric;
        let now = sim::now().as_nanos();
        let arrival = fabric.fifo_arrival(local.id(), remote.id(), now, wire_bytes);
        fabric.stats.ring_doorbell(counts);
        if gate.drop {
            // Lost in the fabric; unsignaled, so nobody is told.
            return Ok(());
        }
        let land = arm(arrival);
        let flight = sim::trace::flight_begin(flight, 0, args);
        let sendq = sim::prof::cached_gauge(&fabric.sendq_gauge, "qp.sendq");
        sendq.add(1);
        let ends = Rc::clone(&self.ends);
        sim::schedule_ns(arrival - now, move || {
            sendq.add(-1);
            if let Some(flight) = flight {
                flight.end_at(arrival);
            }
            if ends.remote.is_alive() {
                land(&ends.remote);
            }
        });
        Ok(())
    }

    /// What [`QueuePair::post_write`] and [`WriteBatch::post`] share on top
    /// of [`Self::post_unsignaled`]: `n` writes of `bytes` in all, the first
    /// at `first`, behind one doorbell — one span shape, one stats line, one
    /// race-detector ticket (the NIC carries the poster's ordering context
    /// to the remote memory once per doorbell). `land` stores the writes,
    /// reports each `(addr, len)` that landed to the detector through its
    /// second argument, and rings the pollers they touch.
    fn post_writes(
        &self,
        first: Addr,
        n: usize,
        bytes: usize,
        land: impl FnOnce(&Node, &dyn Fn(Addr, usize)) + 'static,
    ) -> RdmaResult<()> {
        let [dst, addr, len] = self.verb_args(first, bytes);
        let stats = &self.ends.local.fabric.stats;
        self.post_unsignaled(
            ("rdma.post", "rdma.write.flight"),
            &[dst, addr, len, ("n", n as u64)],
            bytes,
            &[(&stats.posted_writes, n), (&stats.bytes_written, bytes)],
            |arrival| {
                let tsan = self.ends.local.fabric.tsan();
                let ticket = tsan.map(|t| (t, WriteTicket::capture("rdma-post-write")));
                move |remote: &Node| {
                    land(remote, &|addr, len| {
                        if let Some((tsan, ticket)) = &ticket {
                            tsan.on_write(remote, addr, len, ticket, arrival);
                        }
                    })
                }
            },
        )
    }

    /// One-sided RDMA read of `len` bytes at `addr` in the remote node's
    /// memory. The remote CPU is not involved.
    ///
    /// Cost: post + one-way request + one-way response carrying `len` bytes.
    ///
    /// # Errors
    ///
    /// [`RdmaError::RemoteFailure`] if the remote node is crashed (the
    /// paper's "RDMA exception"); [`RdmaError::OutOfBounds`] for a bad
    /// range; [`RdmaError::LocalFailure`] if this node is crashed.
    pub fn read(&self, addr: Addr, len: usize) -> RdmaResult<Vec<u8>> {
        let stats = &self.ends.local.fabric.stats;
        let counts = [(&stats.reads, 1), (&stats.bytes_read, len)];
        let args = self.verb_args(addr, len);
        self.round_trip("rdma.read", args, (8, len), &counts, |remote| {
            // Deliberately the raw read: a one-sided read must not acquire
            // — it is exactly the access the race detector checks.
            let data = remote.read_raw(addr, len)?;
            if let Some(tsan) = self.ends.local.fabric.tsan() {
                tsan.on_remote_read(remote, addr, len, sim::now().as_nanos());
            }
            Ok(data)
        })
    }

    /// One-sided read of a single 8-byte word.
    ///
    /// # Errors
    ///
    /// As [`QueuePair::read`], plus [`RdmaError::Misaligned`].
    pub fn read_word(&self, addr: Addr) -> RdmaResult<u64> {
        if !addr.is_word_aligned() {
            return Err(RdmaError::Misaligned);
        }
        let bytes = self.read(addr, 8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8-byte read")))
    }

    /// Signaled one-sided RDMA write: returns once the completion arrives,
    /// i.e. after a full round trip. The payload is visible in remote memory
    /// from the one-way point.
    ///
    /// # Errors
    ///
    /// [`RdmaError::RemoteFailure`], [`RdmaError::OutOfBounds`],
    /// [`RdmaError::LocalFailure`].
    pub fn write(&self, addr: Addr, data: &[u8]) -> RdmaResult<()> {
        let stats = &self.ends.local.fabric.stats;
        let counts = [(&stats.writes, 1), (&stats.bytes_written, data.len())];
        let args = self.verb_args(addr, data.len());
        self.round_trip("rdma.write", args, (data.len(), 8), &counts, |remote| {
            remote.write_instrumented(addr, data, "rdma-write")
        })
    }

    /// Signaled write of one 8-byte word.
    ///
    /// # Errors
    ///
    /// As [`QueuePair::write`], plus [`RdmaError::Misaligned`].
    pub fn write_word(&self, addr: Addr, value: u64) -> RdmaResult<()> {
        if !addr.is_word_aligned() {
            return Err(RdmaError::Misaligned);
        }
        self.write(addr, &value.to_le_bytes())
    }

    /// Unsignaled (fire-and-forget) one-sided write. The issuing process is
    /// only charged the posting cost; the payload lands in remote memory one
    /// one-way latency later (and wakes pollers of that node's memory).
    ///
    /// If the remote node is crashed at arrival time the write is silently
    /// dropped — matching unsignaled verb semantics, where no completion is
    /// ever reported.
    ///
    /// # Errors
    ///
    /// [`RdmaError::LocalFailure`] if this node is crashed.
    pub fn post_write(&self, addr: Addr, data: Vec<u8>) -> RdmaResult<()> {
        self.post_writes(addr, 1, data.len(), move |remote, landed| {
            // Ignore landing errors: an unsignaled write has no completion
            // to report them through.
            if remote.write_raw(addr, &data).is_ok() {
                landed(addr, data.len());
            }
        })
    }

    /// Unsignaled write of one 8-byte word. See [`QueuePair::post_write`].
    ///
    /// # Errors
    ///
    /// [`RdmaError::Misaligned`] or [`RdmaError::LocalFailure`].
    pub fn post_write_word(&self, addr: Addr, value: u64) -> RdmaResult<()> {
        if !addr.is_word_aligned() {
            return Err(RdmaError::Misaligned);
        }
        self.post_write(addr, value.to_le_bytes().to_vec())
    }

    /// Atomic compare-and-swap on an 8-byte word of remote memory. Returns
    /// the previous value (the swap happened iff it equals `expected`).
    ///
    /// # Errors
    ///
    /// [`RdmaError::RemoteFailure`], [`RdmaError::OutOfBounds`],
    /// [`RdmaError::Misaligned`], [`RdmaError::LocalFailure`].
    pub fn compare_and_swap(&self, addr: Addr, expected: u64, new: u64) -> RdmaResult<u64> {
        if !addr.is_word_aligned() {
            return Err(RdmaError::Misaligned);
        }
        let counts = [(&self.ends.local.fabric.stats.cas_ops, 1)];
        self.round_trip(
            "rdma.cas",
            self.verb_args(addr, 8),
            (16, 8),
            &counts,
            |remote| {
                let old = remote.cas_raw(addr, expected, new)?;
                if let Some(tsan) = self.ends.local.fabric.tsan() {
                    let ticket = WriteTicket::capture("rdma-cas");
                    tsan.on_cas(remote, addr, &ticket, sim::now().as_nanos());
                }
                Ok(old)
            },
        )
    }

    /// Trace-arg triple identifying the verb's target: the remote node (the
    /// QP), the target address (identifying the region), and payload bytes.
    fn verb_args(&self, addr: Addr, len: usize) -> [(&'static str, u64); 3] {
        [
            ("dst", u64::from(self.ends.remote.id().0)),
            ("addr", addr.0),
            ("len", len as u64),
        ]
    }

    /// Opens a doorbell batch towards this queue pair's remote end: up to
    /// N unsignaled writes posted with a single doorbell ring. See
    /// [`WriteBatch`].
    pub fn write_batch(&self) -> WriteBatch {
        WriteBatch {
            qp: self.clone(),
            first: None,
            rest: Vec::new(),
            bytes: 0,
        }
    }

    /// Two-sided send. The payload arrives in the remote node's receive
    /// queue after one one-way latency; the remote CPU must [`Node::recv`]
    /// it. Dropped silently if the remote is crashed at arrival.
    ///
    /// # Errors
    ///
    /// [`RdmaError::LocalFailure`] if this node is crashed.
    pub fn send(&self, payload: Vec<u8>) -> RdmaResult<()> {
        let from = self.ends.local.id();
        self.post_unsignaled(
            ("rdma.send", "rdma.send.flight"),
            &self.verb_args(Addr(0), payload.len()),
            payload.len(),
            &[(&self.ends.local.fabric.stats.sends, 1)],
            |_arrival| {
                // Carry the sender's happens-before clock with the message;
                // the receiver joins it on delivery (a sync edge for the
                // detector). Empty — and free — when no detector runs.
                let clock = sim::vc_current();
                // Zero-copy wrap: the vector becomes the message payload
                // as-is and its allocation recycles through the bytes pool
                // on drop.
                let payload = bytes::Bytes::from(payload);
                // The mailbox refuses posts for a dead node anyway.
                move |remote: &Node| {
                    let message = Message { from, payload };
                    let _ = remote.inner.inbox.send_with_clock(message, clock);
                }
            },
        )
    }
}

/// A doorbell batch of unsignaled writes to a single peer.
///
/// Real ConnectX NICs let the driver chain multiple WQEs and ring the
/// doorbell once; the NIC then streams the work requests back-to-back.
/// The model follows that: posting the batch charges the issuing process
/// `post_ns` **once** (one doorbell) regardless of the number of writes,
/// the combined payload serializes as one unit on the (src, dst) link,
/// and all writes land atomically (in push order) at the arrival instant
/// as a single scheduler event.
///
/// [`QueuePair::post_write`] is the batch of exactly one write: both go
/// down one posting path, so cost, events, counters, spans and the race
/// detector's view are the same. That is what lets the layers above treat
/// batching as a size — how many writes share a doorbell — and not as a
/// second code path.
///
/// Crash semantics match unsignaled writes: if the remote node is crashed
/// at arrival time the whole batch is silently dropped, and the fault plan
/// counts the batch as one verb (dropping it loses every queued write,
/// like a lost WQE chain).
#[derive(Debug)]
pub struct WriteBatch {
    qp: QueuePair,
    /// The first write sits inline, so a batch of one — what the layers
    /// above post whenever nothing else is queued for the peer — allocates
    /// no more than [`QueuePair::post_write`] does.
    first: Option<(Addr, Vec<u8>)>,
    rest: Vec<(Addr, Vec<u8>)>,
    bytes: usize,
}

impl WriteBatch {
    /// Queues one write; no fabric activity until [`WriteBatch::post`].
    pub fn push(&mut self, addr: Addr, data: Vec<u8>) {
        self.bytes += data.len();
        match self.first {
            None => self.first = Some((addr, data)),
            Some(_) => self.rest.push((addr, data)),
        }
    }

    /// Queues one 8-byte word write.
    ///
    /// # Errors
    ///
    /// [`RdmaError::Misaligned`] for an unaligned address.
    pub fn push_word(&mut self, addr: Addr, value: u64) -> RdmaResult<()> {
        if !addr.is_word_aligned() {
            return Err(RdmaError::Misaligned);
        }
        self.push(addr, value.to_le_bytes().to_vec());
        Ok(())
    }

    /// Number of queued writes.
    pub fn len(&self) -> usize {
        self.first.iter().len() + self.rest.len()
    }

    /// True if nothing has been queued.
    pub fn is_empty(&self) -> bool {
        self.first.is_none()
    }

    /// Total queued payload bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Rings the doorbell: charges `post_ns` once, occupies the link with
    /// the combined payload, and schedules a single landing event that
    /// applies every queued write in push order.
    ///
    /// Posting an empty batch is free and touches neither the fabric nor
    /// the stats.
    ///
    /// # Errors
    ///
    /// [`RdmaError::LocalFailure`] if the local node is crashed.
    pub fn post(self) -> RdmaResult<()> {
        let (n, bytes) = (self.len(), self.bytes);
        let (Some(first), rest) = (self.first, self.rest) else {
            return Ok(());
        };
        (self.qp).post_writes(first.0, n, bytes, move |remote, landed| {
            // One landing event: every write is in memory before any
            // poller is rung, and each poller is rung at most once. A
            // write that cannot land is dropped, as any unsignaled write
            // is: there is no completion to report the error through.
            let stored = |(addr, data): &(Addr, Vec<u8>)| {
                let range = remote.store_raw(*addr, data).ok()?;
                landed(*addr, data.len());
                Some(range)
            };
            let first = stored(&first);
            if rest.is_empty() {
                // The batch of one: nothing to collect.
                remote.inner.ring(first.as_slice());
            } else {
                let rest = rest.iter().filter_map(stored);
                remote
                    .inner
                    .ring(&first.into_iter().chain(rest).collect::<Vec<_>>());
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::{Fabric, LatencyModel, RdmaError};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn two_nodes() -> (sim::Simulation, Fabric, crate::Node, crate::Node) {
        let simulation = sim::Simulation::new(99);
        let fabric = Fabric::new(LatencyModel::connectx4());
        let a = fabric.add_node("a");
        let b = fabric.add_node("b");
        (simulation, fabric, a, b)
    }

    #[test]
    fn read_write_round_trip_with_latency() {
        let (simulation, _fabric, a, b) = two_nodes();
        let addr = b.alloc_bytes(16);
        simulation.spawn("a", move || {
            let qp = a.connect(&b);
            let t0 = sim::now();
            qp.write(addr, b"0123456789abcdef").unwrap();
            let wrote = sim::now() - t0;
            let lat = LatencyModel::connectx4();
            // post + one_way(16B payload) + one_way(8B ack)
            assert_eq!(
                wrote.as_nanos() as u64,
                lat.post_ns + lat.one_way(16) + lat.one_way(8)
            );
            let data = qp.read(addr, 16).unwrap();
            assert_eq!(&data, b"0123456789abcdef");
        });
        simulation.run().unwrap();
    }

    #[test]
    fn post_write_lands_after_one_way_and_wakes_pollers() {
        let (simulation, _fabric, a, b) = two_nodes();
        let addr = b.alloc_words(1);
        let b_poll = b.clone();
        let poller = b.poller(sim::Cond::new(), &[(addr, 8)]);
        let seen_at = Arc::new(AtomicU64::new(0));
        let seen = seen_at.clone();
        simulation.spawn("poller", move || {
            poller.poll_until(|| b_poll.local_read_word(addr).unwrap() == 7);
            seen.store(sim::now().as_nanos(), Ordering::SeqCst);
        });
        simulation.spawn("writer", move || {
            let qp = a.connect(&b);
            let t0 = sim::now();
            qp.post_write_word(addr, 7).unwrap();
            // Posting is cheap; landing happens asynchronously.
            assert_eq!((sim::now() - t0).as_nanos(), 150);
        });
        simulation.run().unwrap();
        assert_eq!(seen_at.load(Ordering::SeqCst), 150 + 850 + 8 * 328 / 1024);
    }

    // ---- the wake model: a landing rings only the pollers it touches ----

    /// A node with two polled words, `a` subscribed by poller "pa" and `b`
    /// by poller "pb", each blocked until its word reads 1 and counting
    /// every evaluation of its predicate (1 + the times it was rung). The
    /// `writer` closure runs on a second node with a QP to the first.
    /// Returns `(evaluations of pa, of pb, events executed)`.
    fn two_pollers(
        pa_also_polls_b: bool,
        writer: impl FnOnce(&crate::QueuePair, crate::Addr, crate::Addr, &Fabric) + 'static,
    ) -> (u64, u64, u64) {
        let simulation = sim::Simulation::new(11);
        let fabric = Fabric::new(LatencyModel::connectx4());
        let src = fabric.add_node("src");
        let dst = fabric.add_node("dst");
        let a = dst.alloc_words(1);
        let b = dst.alloc_words(1);
        let mut evals = Vec::new();
        for (name, word, extra) in [("pa", a, pa_also_polls_b.then_some(b)), ("pb", b, None)] {
            let ranges: Vec<_> = std::iter::once(word).chain(extra).map(|w| (w, 8)).collect();
            let poller = dst.poller(sim::Cond::new(), &ranges);
            let count = Arc::new(AtomicU64::new(0));
            evals.push(count.clone());
            let node = dst.clone();
            simulation.spawn(name, move || {
                poller.poll_until(|| {
                    count.fetch_add(1, Ordering::SeqCst);
                    node.local_read_word(word).unwrap() == 1
                });
            });
        }
        simulation.spawn("writer", move || {
            let qp = src.connect(&dst);
            writer(&qp, a, b, &fabric);
            // Release both pollers so the run ends.
            sim::sleep(std::time::Duration::from_micros(50));
            qp.write_word(a, 1).unwrap();
            qp.write_word(b, 1).unwrap();
        });
        simulation.run().unwrap();
        (
            evals[0].load(Ordering::SeqCst),
            evals[1].load(Ordering::SeqCst),
            simulation.events_executed(),
        )
    }

    #[test]
    fn write_outside_a_pollers_ranges_does_not_dispatch_it() {
        // The writer lands 5 in word b. pa (word a only) sleeps through
        // it: initial check + its release. pb is rung by both.
        let run = |pa_also_polls_b| {
            two_pollers(pa_also_polls_b, |qp, _a, b, _| {
                qp.post_write_word(b, 5).unwrap();
            })
        };
        let (pa, pb, events) = run(false);
        assert_eq!((pa, pb), (2, 3));
        // Subscribing pa to word b as well costs exactly the dispatch the
        // narrower subscription saved.
        let (pa_wide, _, events_wide) = run(true);
        assert_eq!(pa_wide, 3);
        assert_eq!(events_wide, events + 1);
    }

    #[test]
    fn write_inside_a_pollers_range_wakes_it_at_the_landing_instant() {
        let simulation = sim::Simulation::new(12);
        let fabric = Fabric::new(LatencyModel::connectx4());
        let (src, dst) = (fabric.add_node("src"), fabric.add_node("dst"));
        let region = dst.alloc_words(4);
        let poller = dst.poller(sim::Cond::new(), &[(region, 32)]);
        let node = dst.clone();
        simulation.spawn("poller", move || {
            // A byte write into the middle of the range rings too.
            poller.poll_until(|| node.local_read(region.offset(13), 1).unwrap()[0] == 9);
            let lat = LatencyModel::connectx4();
            assert_eq!(sim::now().as_nanos(), lat.post_ns + lat.one_way(1));
        });
        simulation.spawn("writer", move || {
            src.connect(&dst)
                .post_write(region.offset(13), vec![9])
                .unwrap();
        });
        simulation.run().unwrap();
    }

    #[test]
    fn write_batch_rings_each_overlapped_poller_exactly_once() {
        let (pa, pb, _) = two_pollers(false, |qp, a, b, _| {
            let mut batch = qp.write_batch();
            for v in [2, 3, 4] {
                batch.push_word(a, v).unwrap();
                batch.push_word(b, v).unwrap();
            }
            batch.post().unwrap();
        });
        // Initial check, one ring for the six-write batch, the release.
        assert_eq!((pa, pb), (3, 3));
    }

    #[test]
    fn failed_cas_rings_nobody_and_a_successful_one_rings_its_word() {
        let (pa, pb, _) = two_pollers(false, |qp, a, _b, _| {
            assert_eq!(qp.compare_and_swap(a, 7, 8).unwrap(), 0); // no swap
        });
        assert_eq!((pa, pb), (2, 2));
        let (pa, pb, _) = two_pollers(false, |qp, a, _b, _| {
            assert_eq!(qp.compare_and_swap(a, 0, 8).unwrap(), 0); // swapped
        });
        assert_eq!((pa, pb), (3, 2));
    }

    #[test]
    fn recover_and_power_loss_ring_every_poller() {
        let dst = crate::NodeId(1); // `two_pollers` adds `src`, then `dst`
        let (pa, pb, _) = two_pollers(false, move |_, _, _, fabric| {
            fabric.crash(dst);
            fabric.recover(dst);
        });
        assert_eq!((pa, pb), (3, 3));
        let (pa, pb, _) = two_pollers(false, move |_, _, _, fabric| {
            fabric.power_loss(dst);
            sim::sleep(std::time::Duration::from_micros(1));
            fabric.recover(dst);
        });
        assert_eq!((pa, pb), (4, 4));
    }

    // ---- lane marks: a landing marks exactly the lanes it wrote ----

    /// Four 16-byte lanes on `dst`, registered after a word outside them,
    /// every mark cleared. `landing` runs on a second node with a QP to
    /// `dst` and gets the lanes' base, the outside word and the fabric;
    /// returns the lanes marked when the run ends.
    fn marks_after(
        landing: impl FnOnce(&crate::QueuePair, crate::Addr, crate::Addr, &Fabric) + 'static,
    ) -> Vec<usize> {
        let (simulation, fabric, src, dst) = two_nodes();
        let outside = dst.alloc_words(1);
        let lanes = dst.alloc_bytes(4 * 16);
        let marks = dst.lane_marks(lanes, 16, 4);
        assert_eq!(marks.next_marked(0), Some(0), "registered marked");
        (0..4).for_each(|lane| marks.clear(lane));
        simulation.spawn("writer", move || {
            landing(&src.connect(&dst), lanes, outside, &fabric);
        });
        simulation.run().unwrap();
        marks.marked().collect()
    }

    #[test]
    fn a_posted_write_marks_the_lane_it_lands_in() {
        let marked = marks_after(|qp, lanes, _, _| {
            qp.post_write_word(lanes.offset(16 + 8), 5).unwrap();
        });
        assert_eq!(marked, [1]);
    }

    #[test]
    fn a_write_batch_marks_each_lane_it_overlaps() {
        let marked = marks_after(|qp, lanes, _, _| {
            let mut batch = qp.write_batch();
            batch.push_word(lanes, 1).unwrap();
            // Straddles the boundary of lanes 2 and 3.
            batch.push(lanes.offset(2 * 16 + 8), vec![7; 16]);
            batch.post().unwrap();
        });
        assert_eq!(marked, [0, 2, 3]);
    }

    #[test]
    fn a_signaled_write_marks_its_lane() {
        let marked = marks_after(|qp, lanes, _, _| {
            qp.write_word(lanes.offset(3 * 16), 5).unwrap();
        });
        assert_eq!(marked, [3]);
    }

    #[test]
    fn only_a_cas_that_swapped_marks_its_lane() {
        let marked = marks_after(|qp, lanes, _, _| {
            assert_eq!(qp.compare_and_swap(lanes.offset(16), 7, 8).unwrap(), 0);
        });
        assert_eq!(marked, [] as [usize; 0]);
        let marked = marks_after(|qp, lanes, _, _| {
            assert_eq!(qp.compare_and_swap(lanes.offset(16), 0, 8).unwrap(), 0);
        });
        assert_eq!(marked, [1]);
    }

    #[test]
    fn a_local_write_marks_its_lane_and_one_outside_every_array_marks_none() {
        let marked = marks_after(|qp, lanes, outside, _| {
            let dst = &qp.ends.remote;
            dst.local_write_word(lanes.offset(2 * 16), 1).unwrap();
            dst.local_write_word(outside, 1).unwrap();
            qp.post_write_word(outside, 2).unwrap();
        });
        assert_eq!(marked, [2]);
    }

    #[test]
    fn power_loss_and_recover_mark_every_lane() {
        let dst = crate::NodeId(1); // `two_nodes` adds `a`, then `b`
        let marked = marks_after(move |_, _, _, fabric| fabric.power_loss(dst));
        assert_eq!(marked, [0, 1, 2, 3]);
        let marked = marks_after(move |_, _, _, fabric| {
            fabric.crash(dst);
            fabric.recover(dst);
        });
        assert_eq!(marked, [0, 1, 2, 3]);
    }

    #[test]
    fn read_from_crashed_node_raises_rdma_exception() {
        let (simulation, fabric, a, b) = two_nodes();
        let addr = b.alloc_words(1);
        let b_id = b.id();
        simulation.spawn("a", move || {
            let qp = a.connect(&b);
            fabric.crash(b_id);
            assert_eq!(qp.read(addr, 8).unwrap_err(), RdmaError::RemoteFailure);
            assert_eq!(
                qp.write_word(addr, 1).unwrap_err(),
                RdmaError::RemoteFailure
            );
            fabric.recover(b_id);
            assert!(qp.read(addr, 8).is_ok());
        });
        simulation.run().unwrap();
    }

    #[test]
    fn post_write_to_crashed_node_is_dropped() {
        let (simulation, fabric, a, b) = two_nodes();
        let addr = b.alloc_words(1);
        let b2 = b.clone();
        let b_id = b.id();
        simulation.spawn("a", move || {
            let qp = a.connect(&b);
            fabric.crash(b_id);
            qp.post_write_word(addr, 9).unwrap();
            sim::sleep(std::time::Duration::from_micros(100));
            fabric.recover(b_id);
            assert_eq!(b2.local_read_word(addr).unwrap(), 0);
        });
        simulation.run().unwrap();
    }

    #[test]
    fn compare_and_swap_is_atomic_and_returns_old() {
        let (simulation, _fabric, a, b) = two_nodes();
        let addr = b.alloc_words(1);
        simulation.spawn("a", move || {
            let qp = a.connect(&b);
            assert_eq!(qp.compare_and_swap(addr, 0, 5).unwrap(), 0);
            assert_eq!(b.local_read_word(addr).unwrap(), 5);
            // Mismatched expectation: no swap, returns current value.
            assert_eq!(qp.compare_and_swap(addr, 0, 9).unwrap(), 5);
            assert_eq!(b.local_read_word(addr).unwrap(), 5);
        });
        simulation.run().unwrap();
    }

    #[test]
    fn two_sided_send_recv() {
        let (simulation, _fabric, a, b) = two_nodes();
        let a_id = a.id();
        let b_recv = b.clone();
        simulation.spawn("receiver", move || {
            let msg = b_recv.recv();
            assert_eq!(msg.from, a_id);
            assert_eq!(msg.payload, b"ping".to_vec());
            let lat = LatencyModel::connectx4();
            assert_eq!(sim::now().as_nanos() as u64, lat.post_ns + lat.one_way(4));
            // One link is FIFO: a tiny message waits behind a huge one.
            assert_eq!(b_recv.recv().payload.len(), 1_000_000);
            assert_eq!(b_recv.recv().payload.len(), 8);
        });
        simulation.spawn("sender", move || {
            let qp = a.connect(&b);
            qp.send(b"ping".to_vec()).unwrap();
            qp.send(vec![0; 1_000_000]).unwrap();
            qp.send(vec![0; 8]).unwrap();
        });
        simulation.run().unwrap();
    }

    #[test]
    fn send_to_crashed_node_is_dropped_and_one_after_recovery_arrives() {
        let (simulation, fabric, a, b) = two_nodes();
        let b_id = b.id();
        let b_recv = b.clone();
        simulation.spawn("sender", move || {
            let qp = a.connect(&b);
            fabric.crash(b_id);
            qp.send(vec![7]).unwrap();
            sim::sleep(std::time::Duration::from_micros(100));
            fabric.recover(b_id);
            assert_eq!(b.try_recv(), None);
            qp.send(vec![8]).unwrap();
        });
        simulation.spawn("receiver", move || {
            assert_eq!(b_recv.recv().payload, vec![8]);
        });
        simulation.run().unwrap();
    }

    #[test]
    fn concurrent_writers_serialize_per_word() {
        // Two nodes posting to distinct words of a third node: both land.
        let simulation = sim::Simulation::new(5);
        let fabric = Fabric::new(LatencyModel::connectx4());
        let target = fabric.add_node("t");
        let addr = target.alloc_words(2);
        for (i, val) in [(0u64, 11u64), (1, 22)] {
            let w = fabric.add_node(format!("w{i}"));
            let t = target.clone();
            simulation.spawn(format!("w{i}"), move || {
                let qp = w.connect(&t);
                qp.write_word(addr.offset(i * 8), val).unwrap();
            });
        }
        simulation.run().unwrap();
        assert_eq!(target.local_read_word(addr).unwrap(), 11);
        assert_eq!(target.local_read_word(addr.offset(8)).unwrap(), 22);
    }

    #[test]
    fn stats_count_operations() {
        let (simulation, fabric, a, b) = two_nodes();
        let addr = b.alloc_words(4);
        simulation.spawn("a", move || {
            let qp = a.connect(&b);
            qp.write_word(addr, 1).unwrap();
            qp.post_write_word(addr.offset(8), 2).unwrap();
            let _ = qp.read(addr, 32).unwrap();
            qp.send(vec![1, 2, 3]).unwrap();
        });
        simulation.run().unwrap();
        let s = fabric.stats();
        assert_eq!(s.reads.load(Ordering::Relaxed), 1);
        assert_eq!(s.writes.load(Ordering::Relaxed), 1);
        assert_eq!(s.posted_writes.load(Ordering::Relaxed), 1);
        assert_eq!(s.sends.load(Ordering::Relaxed), 1);
        assert_eq!(s.bytes_read.load(Ordering::Relaxed), 32);
        assert_eq!(s.bytes_written.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn bulk_posts_serialize_on_the_link() {
        // Two back-to-back 32 KiB unsignaled writes must not overlap on
        // the wire: the second lands one full serialization time after the
        // first (store-and-forward), which is what paces state-transfer
        // streaming.
        let (simulation, _fabric, a, b) = two_nodes();
        let addr = b.alloc_bytes(2 * 32 * 1024);
        let b2 = b.clone();
        let poller = b.poller(sim::Cond::new(), &[(addr, 2 * 32 * 1024)]);
        simulation.spawn("writer", move || {
            let qp = a.connect(&b);
            let lat = LatencyModel::connectx4();
            let t0 = sim::now().as_nanos();
            qp.post_write(addr, vec![1u8; 32 * 1024]).unwrap();
            qp.post_write(addr.offset(32 * 1024), vec![2u8; 32 * 1024])
                .unwrap();
            // Wait for both to land.
            poller.poll_until(|| b2.local_read(addr.offset(2 * 32 * 1024 - 1), 1).unwrap()[0] == 2);
            let elapsed = sim::now().as_nanos() - t0;
            let ser = 32 * lat.ns_per_kib;
            // First post's doorbell, then both serializations back to
            // back (the second was posted during the first's
            // transmission), then propagation.
            assert_eq!(elapsed, lat.post_ns + 2 * ser + lat.one_way_ns);
        });
        simulation.run().unwrap();
    }

    /// One traced, race-checked simulation of seed 7 in which
    /// `post` issues an unsignaled write of word 7 from a to b and a poller
    /// on b waits for it. Returns everything a run can be told apart by:
    /// posting cost, landing instant, events executed, schedule hash, every
    /// fabric counter with the detector's record of the write, the recorded
    /// trace events and the gauges.
    fn observed(
        post: fn(&crate::QueuePair, crate::Addr),
    ) -> (u64, u64, u64, u64, String, String, String) {
        let simulation = sim::Simulation::new(7);
        let tracer = simulation.enable_tracing();
        let fabric = Fabric::new(LatencyModel::connectx4());
        let detector = fabric.enable_race_detector();
        let (a, b) = (fabric.add_node("a"), fabric.add_node("b"));
        let addr = b.alloc_words(1);
        let poller = b.poller(sim::Cond::new(), &[(addr, 8)]);
        let times = Arc::new((AtomicU64::new(0), AtomicU64::new(0)));
        let (seen, b2, target) = (times.clone(), b.clone(), b.clone());
        simulation.spawn("poller", move || {
            poller.poll_until(|| b2.local_read_word(addr).unwrap() == 7);
            seen.1.store(sim::now().as_nanos(), Ordering::SeqCst);
        });
        let cost = times.clone();
        simulation.spawn("writer", move || {
            let qp = a.connect(&b);
            post(&qp, addr);
            cost.0.store(sim::now().as_nanos(), Ordering::SeqCst);
        });
        simulation.run().unwrap();
        (
            times.0.load(Ordering::SeqCst),
            times.1.load(Ordering::SeqCst),
            simulation.events_executed(),
            simulation.schedule_hash(),
            format!(
                "{:?} {:?}",
                fabric.stats(),
                detector.last_writer(&target, addr, 8)
            ),
            format!("{:?}", tracer.events()),
            format!("{:?}", tracer.report().gauges),
        )
    }

    #[test]
    fn write_batch_of_one_matches_post_write_exactly() {
        // The equivalence higher layers rely on: a 1-write batch IS
        // post_write — two simulations of one seed differ in nothing a
        // schedule, a counter or a diagnostic can see.
        let posted = observed(|qp, addr| qp.post_write_word(addr, 7).unwrap());
        let batched = observed(|qp, addr| {
            let mut batch = qp.write_batch();
            batch.push_word(addr, 7).unwrap();
            batch.post().unwrap();
        });
        assert_eq!(posted, batched);
        let lat = LatencyModel::connectx4();
        assert_eq!(
            (posted.0, posted.1),
            (lat.post_ns, lat.post_ns + lat.one_way(8))
        );
        // The diagnostics did see the write: one posting span, one flight,
        // one unit of send queue from the doorbell to the landing.
        for name in ["rdma.post", "rdma.write.flight", "(\"n\", 1)"] {
            assert!(posted.5.contains(name), "{name} missing from {}", posted.5);
        }
        assert!(posted.4.contains("rdma-post-write"), "{}", posted.4);
        assert!(
            posted.6.contains("\"qp.sendq\"") && posted.6.contains("max: 1"),
            "{}",
            posted.6
        );
    }

    #[test]
    fn send_queue_gauge_counts_a_batch_as_one_doorbell_in_flight() {
        let (simulation, _fabric, a, b) = two_nodes();
        let tracer = simulation.enable_tracing();
        let addr = b.alloc_words(8);
        simulation.spawn("writer", move || {
            let mut batch = a.connect(&b).write_batch();
            for i in 0..8u64 {
                batch.push_word(addr.offset(i * 8), i + 1).unwrap();
            }
            batch.post().unwrap();
            // Outlive the landing, so the gauge's tail is on record.
            sim::sleep(std::time::Duration::from_micros(10));
        });
        simulation.run().unwrap();
        let report = tracer.report();
        let sendq = report
            .gauges
            .iter()
            .find(|g| g.name == "qp.sendq")
            .expect("the batch moved the gauge");
        // Peak 1 — a doorbell, not eight writes — and back to 0 at the
        // landing instant: the time-weighted integral is one flight.
        assert_eq!(sendq.max, 1);
        let in_flight_ns = sendq.mean_overall * report.end_ns as f64;
        assert_eq!(
            in_flight_ns.round() as u64,
            LatencyModel::connectx4().one_way(64)
        );
    }

    #[test]
    fn write_batch_charges_one_doorbell_for_n_writes() {
        let (simulation, fabric, a, b) = two_nodes();
        let addr = b.alloc_words(8);
        let b2 = b.clone();
        let poller = b.poller(sim::Cond::new(), &[(addr, 64)]);
        simulation.spawn("writer", move || {
            let qp = a.connect(&b);
            let lat = LatencyModel::connectx4();
            let t0 = sim::now().as_nanos();
            let mut batch = qp.write_batch();
            for i in 0..8u64 {
                batch.push_word(addr.offset(i * 8), i + 1).unwrap();
            }
            assert_eq!(batch.len(), 8);
            assert_eq!(batch.bytes(), 64);
            batch.post().unwrap();
            // One doorbell: post_ns charged once, not 8 times.
            assert_eq!(sim::now().as_nanos() - t0, lat.post_ns);
            // All writes land together after serialization of the
            // combined 64-byte payload plus propagation.
            poller.poll_until(|| b2.local_read_word(addr.offset(56)).unwrap() == 8);
            assert_eq!(sim::now().as_nanos() - t0, lat.post_ns + lat.one_way(64));
            for i in 0..8u64 {
                assert_eq!(b2.local_read_word(addr.offset(i * 8)).unwrap(), i + 1);
            }
        });
        simulation.run().unwrap();
        let s = fabric.stats();
        assert_eq!(s.posted_writes.load(Ordering::Relaxed), 8);
        assert_eq!(s.doorbells.load(Ordering::Relaxed), 1);
        assert_eq!(s.bytes_written.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn write_batch_to_crashed_node_is_dropped_whole() {
        let (simulation, fabric, a, b) = two_nodes();
        let addr = b.alloc_words(2);
        let b2 = b.clone();
        let b_id = b.id();
        simulation.spawn("writer", move || {
            let qp = a.connect(&b);
            fabric.crash(b_id);
            let mut batch = qp.write_batch();
            batch.push_word(addr, 1).unwrap();
            batch.push_word(addr.offset(8), 2).unwrap();
            batch.post().unwrap();
            sim::sleep(std::time::Duration::from_micros(100));
            fabric.recover(b_id);
            assert_eq!(b2.local_read_word(addr).unwrap(), 0);
            assert_eq!(b2.local_read_word(addr.offset(8)).unwrap(), 0);
        });
        simulation.run().unwrap();
    }

    #[test]
    fn empty_write_batch_is_free() {
        let (simulation, fabric, a, b) = two_nodes();
        let _addr = b.alloc_words(1);
        simulation.spawn("writer", move || {
            let qp = a.connect(&b);
            let t0 = sim::now().as_nanos();
            qp.write_batch().post().unwrap();
            assert_eq!(sim::now().as_nanos(), t0);
        });
        simulation.run().unwrap();
        assert_eq!(fabric.stats().doorbells.load(Ordering::Relaxed), 0);
        assert_eq!(fabric.stats().posted_writes.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn doorbells_count_individual_verbs() {
        let (simulation, fabric, a, b) = two_nodes();
        let addr = b.alloc_words(4);
        simulation.spawn("a", move || {
            let qp = a.connect(&b);
            qp.write_word(addr, 1).unwrap();
            qp.post_write_word(addr.offset(8), 2).unwrap();
            let _ = qp.read(addr, 8).unwrap();
            let _ = qp.compare_and_swap(addr, 1, 3).unwrap();
            qp.send(vec![1]).unwrap();
        });
        simulation.run().unwrap();
        assert_eq!(fabric.stats().doorbells.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn recovery_bumps_incarnation() {
        let (simulation, fabric, _a, b) = two_nodes();
        let b_id = b.id();
        simulation.spawn("p", move || {
            assert_eq!(b.incarnation(), 0);
            fabric.crash(b_id);
            assert_eq!(b.incarnation(), 0);
            fabric.recover(b_id);
            assert_eq!(b.incarnation(), 1);
            fabric.crash(b_id);
            fabric.recover(b_id);
            assert_eq!(b.incarnation(), 2);
        });
        simulation.run().unwrap();
    }

    #[test]
    fn local_node_crash_fails_local_verbs() {
        let (simulation, fabric, a, b) = two_nodes();
        let addr = b.alloc_words(1);
        let a_id = a.id();
        simulation.spawn("a", move || {
            let qp = a.connect(&b);
            fabric.crash(a_id);
            assert_eq!(qp.read(addr, 8).unwrap_err(), RdmaError::LocalFailure);
            assert_eq!(
                qp.post_write_word(addr, 3).unwrap_err(),
                RdmaError::LocalFailure
            );
        });
        simulation.run().unwrap();
    }
}
