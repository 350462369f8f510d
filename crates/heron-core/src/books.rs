//! Algorithm 1's bookkeeping, apart from the driver that runs it: what a
//! replica has admitted, dispatched and finished, the `last_req` and
//! `completed_req` watermarks, the replies it posted, the Gap hold, a cold
//! restart's replay tail and the responder rotation of Algorithm 3.
//!
//! [`Books`] touches nothing but its own fields: no memory, verb, mailbox
//! or clock. Its inputs follow febft's `ExecutionRequest`: a delivery or a
//! Gap, a finished command with its `(client, seq)`, a park, an installed
//! or withdrawn transfer, the pending transfer requests at `now`, a cold
//! restart's bound and tail. What it returns is what the driver
//! ([`crate::executor::Driver`]) acts on — dispatch this job to this lane
//! or skip it, post this reply, run a transfer for these stalls, hand out
//! these verdicts, serve this request, mirror and publish the watermark —
//! so a test can drive the rules with no simulation.
//!
//! Dispatch keeps P-SMR's rule ("Rethinking State-Machine Replication for
//! Parallelism"): the first queued job that conflicts with no in-flight
//! job and no earlier queued job, and a multi-partition job never
//! overtakes an earlier queued one. A job holds each conflict key
//! exclusive or shared ([`Keys`]): two holders of a key conflict unless
//! both hold it shared, so commands that each touch a few rows under one
//! coarse token run side by side, and a command holding the token
//! exclusive waits for all of them. `done` gets
//! its entry at admission, so the watermark is a hole-free prefix of
//! admitted commands; a serve waits for an exact boundary. Width 1 is a
//! pool of one lane: the inline lane is in flight while it runs, so its
//! stall is a park like a worker's.
//!
//! Dependency tracking is last-writer-in-delivery-order over the conflict
//! keys: because a command never overtakes an earlier queued command it
//! conflicts with, it waits exactly until every earlier conflicting
//! command completed — equivalent to chaining along the last-writer
//! dependency graph of the delivered prefix (an exclusive holder after
//! every earlier holder of its key, a shared holder after every earlier
//! exclusive one), without materializing the graph.

use crate::replica::TRANSFER_TIMEOUT;
use crate::types::PartitionId;
use amcast::{Delivered, DeliveryEvent};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::ops::Bound::{Excluded, Unbounded};

/// Why a command stalled mid-flight.
#[derive(Debug, Clone)]
pub(crate) enum Stall {
    /// The Phase-2 majority barrier starved past the transfer timeout;
    /// `dests`, the barrier's partitions, are for the heal check.
    Phase2Starved { dests: Vec<PartitionId> },
    /// A remote read found no version old enough (Algorithm 2, lines
    /// 23–25).
    Lagging,
}

/// How a stalled command resumes after the stall was handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StallOutcome {
    /// A state transfer adopted a snapshot that already includes this
    /// command: abandon it without replying (the client's retry will be
    /// skipped or re-executed consistently).
    Covered,
    /// Not covered: retry the stalled step.
    Retry,
}

/// How far an input moved the watermarks, which the driver mirrors into
/// the replica's shared words: `last_req` only; `completed_req` as well
/// (the checkpointer waits on it); and, past that, the progress the peers
/// read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Mirror {
    LastReq,
    Completed,
    Publish,
}

/// What the next dispatch does.
pub(crate) enum Dispatch {
    /// A transfer covered the job: drop it, mirroring the watermark if
    /// dropping it moved it.
    Skip(Option<Mirror>),
    /// Run the job, admitted at `recv_ns`, on `lane`, which is in flight
    /// until it finishes.
    Run {
        lane: usize,
        d: Delivered,
        recv_ns: u64,
    },
}

/// A command's conflict keys by mode, each set sorted and deduplicated.
/// Two commands conflict when one holds exclusive a key the other holds
/// either way; a key declared both ways is held exclusive.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct Keys {
    exclusive: Vec<u64>,
    shared: Vec<u64>,
}

impl Keys {
    /// The key-set of a command that declares `exclusive` and `shared`
    /// ([`crate::StateMachine::conflict_keys`] and
    /// [`crate::StateMachine::shared_keys`]).
    pub fn new(mut exclusive: Vec<u64>, mut shared: Vec<u64>) -> Self {
        for set in [&mut exclusive, &mut shared] {
            set.sort_unstable();
            set.dedup();
        }
        shared.retain(|k| exclusive.binary_search(k).is_err());
        Keys { exclusive, shared }
    }

    pub fn is_empty(&self) -> bool {
        self.exclusive.is_empty() && self.shared.is_empty()
    }

    /// Every key with its mode: `(key, true)` for one held exclusive.
    pub fn held(&self) -> impl Iterator<Item = (u64, bool)> + '_ {
        let exclusive = self.exclusive.iter().map(|&key| (key, true));
        exclusive.chain(self.shared.iter().map(|&key| (key, false)))
    }

    /// Whether the two commands may not run side by side.
    fn conflicts(&self, other: &Keys) -> bool {
        overlap(&self.exclusive, &other.exclusive)
            || overlap(&self.exclusive, &other.shared)
            || overlap(&self.shared, &other.exclusive)
    }
}

/// A delivered command on its way from admission to a lane.
struct Job {
    d: Delivered,
    /// Virtual time the driver took the delivery off the stream; the gap
    /// to a worker's pickup is the `execute.parallel` dispatch wait.
    recv_ns: u64,
    /// Conflict keys (none at width 1, where nothing else is in flight to
    /// conflict with). Move to the command's [`InFlight`] entry at
    /// dispatch; the worker never reads them.
    keys: Keys,
}

impl Job {
    fn ts(&self) -> u64 {
        self.d.ts.raw()
    }

    fn multi_partition(&self) -> bool {
        self.d.dests.count_ones() > 1
    }
}

/// One in-flight command, from dispatch until it finishes.
struct InFlight {
    ts: u64,
    keys: Keys,
    parked: Option<Stall>,
}

/// Whether two sorted key-sets share a key.
fn overlap(a: &[u64], b: &[u64]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// One replica's delivery books.
#[derive(Default)]
pub(crate) struct Books {
    /// Lanes: 1 for the inline lane, the pool's workers above.
    width: usize,
    /// This replica's index in its group of `n`, which ranks it in a
    /// requester's responder rotation.
    idx: usize,
    n: usize,
    /// Admitted, not yet dispatched, in delivery (timestamp) order.
    queue: VecDeque<Job>,
    /// In-flight commands by lane; every other lane is free.
    inflight: BTreeMap<usize, InFlight>,
    /// Admitted timestamps → finished?, pruned from the front as the
    /// prefix finishes; the largest pruned entry is the watermark.
    done: BTreeMap<u64, bool>,
    /// Algorithm 1's `last_req`: the newest delivery admitted or covered.
    last_req: u64,
    /// `completed_req`: every admitted command up to it finished, or a
    /// transfer covered it.
    completed: u64,
    /// Highest client seq a reply was posted for, per client.
    last_replied: HashMap<u64, u64>,
    /// First sight (virtual ns) of each pending transfer request
    /// `(requester, from)`.
    seen: BTreeMap<(usize, u64), u64>,
    /// A Gap was delivered: requests were missed wholesale, so the next
    /// delivery waits for a transfer that covers it.
    needs_full_sync: bool,
    /// That delivery's timestamp, held back until everything before it
    /// drained and a transfer covered it.
    gap: Option<u64>,
    /// A cold restart's WAL frames not yet admitted; `Some` until every
    /// replayed command finished.
    replay: Option<VecDeque<Delivered>>,
    /// Frames the last cold restart's replay admitted.
    replayed: u64,
}

impl Books {
    pub fn new(width: usize, idx: usize, n: usize) -> Self {
        Books {
            width,
            idx,
            n,
            ..Books::default()
        }
    }

    pub fn last_req(&self) -> u64 {
        self.last_req
    }

    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Commands in flight.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// The conflict keys of the command in flight on `lane`.
    pub fn keys(&self, lane: usize) -> &Keys {
        const NONE: &Keys = &Keys {
            exclusive: Vec::new(),
            shared: Vec::new(),
        };
        self.inflight.get(&lane).map_or(NONE, |f| &f.keys)
    }

    // ------------------------------------------------------------------
    // Admission: Algorithm 1, lines 3–4, and the Gap hold.
    // ------------------------------------------------------------------

    /// Whether a delivery waits for admission, given whether the live
    /// stream holds one: none while a Gap's delivery waits for its covering
    /// transfer, and a cold restart's replay tail feeds ahead of the live
    /// stream until its commands all finished.
    pub fn waiting(&self, live: bool) -> bool {
        self.gap.is_none() && self.replay.as_ref().map_or(live, |tail| !tail.is_empty())
    }

    /// Admits the next delivery [`Self::waiting`]: the replay tail's front,
    /// or what `live` takes off the stream, at `recv_ns`; `keys` gives its
    /// conflict keys when a pool needs them. Returns `None` with nothing
    /// taken, `Some(false)` for a delivery `last_req` covers (skip it), and
    /// `Some(true)` for a Gap or a delivery that moved `last_req`: queued,
    /// or held back after a Gap — everything missed has a smaller
    /// timestamp.
    pub fn admit(
        &mut self,
        recv_ns: u64,
        live: impl FnOnce() -> Option<DeliveryEvent>,
        keys: impl FnOnce(&Delivered) -> Keys,
    ) -> Option<bool> {
        let d = match &mut self.replay {
            _ if self.gap.is_some() => return None,
            Some(tail) => tail.pop_front().inspect(|_| self.replayed += 1)?,
            None => match live()? {
                DeliveryEvent::Deliver(d) => d,
                DeliveryEvent::Gap { .. } => {
                    self.needs_full_sync = true;
                    return Some(true);
                }
            },
        };
        let ts = d.ts.raw();
        if ts <= self.last_req {
            return Some(false);
        }
        self.last_req = ts;
        if std::mem::take(&mut self.needs_full_sync) {
            self.gap = Some(ts);
            return Some(true);
        }
        let keys = match self.width {
            1 => Keys::default(),
            _ => keys(&d),
        };
        self.done.insert(ts, false);
        self.queue.push_back(Job { d, recv_ns, keys });
        Some(true)
    }

    // ------------------------------------------------------------------
    // Dispatch and completion.
    // ------------------------------------------------------------------

    /// The next dispatch, if a queued command can go: none while a parked
    /// lane waits for the pool to drain. `requests` reads the pending
    /// transfer requests; it is asked only while a seen request rotates.
    pub fn dispatch<'a>(
        &mut self,
        now: u64,
        requests: impl FnOnce() -> &'a [(usize, u64)],
    ) -> Option<Dispatch> {
        if self.inflight.values().any(|f| f.parked.is_some()) {
            return None;
        }
        let i = self.next_job(now, requests)?;
        let job = self.queue.remove(i).expect("a ready job");
        let ts = job.ts();
        if ts <= self.completed {
            // Below the watermark: drop the entry rather than finish it, so
            // the watermark moves only over finished commands behind it.
            self.done.remove(&ts);
            return Some(Dispatch::Skip(self.advance()));
        }
        let lane = self.free_lane().expect("a free lane");
        let (keys, parked) = (job.keys, None);
        self.inflight.insert(lane, InFlight { ts, keys, parked });
        let (d, recv_ns) = (job.d, job.recv_ns);
        Some(Dispatch::Run { lane, d, recv_ns })
    }

    /// The queue index of the command to dispatch next, if a lane is free:
    /// the front if a transfer covered it, else the first command not
    /// [`Self::blocked`]. The multi-partition rule keeps the pool
    /// deadlock-free: the lowest unfinished multi-partition command finds
    /// only single-partition work ahead of it at every partition it
    /// involves.
    ///
    /// While a due serve waits for an exact boundary, only a hole below the
    /// highest finished command may go; with none, the pool drains.
    fn next_job<'a>(
        &self,
        now: u64,
        requests: impl FnOnce() -> &'a [(usize, u64)],
    ) -> Option<usize> {
        self.free_lane()?;
        if self.queue.front()?.ts() <= self.completed {
            return Some(0);
        }
        let turn = !self.seen.is_empty() && self.serve_turn(requests(), now);
        let limit = if turn && !self.at_boundary() {
            self.highest_finished()?
        } else {
            u64::MAX
        };
        let queue = &self.queue;
        (0..queue.len())
            .take_while(|&i| queue[i].ts() < limit)
            .find(|&i| !self.blocked(i))
    }

    /// Whether queued command `i` must wait: it conflicts with an in-flight
    /// or an earlier queued command, or it is multi-partition behind a
    /// multi-partition one.
    fn blocked(&self, i: usize) -> bool {
        let q = &self.queue[i];
        let mut earlier = self.queue.range(..i);
        (self.inflight.values()).any(|f| f.keys.conflicts(&q.keys))
            || earlier
                .any(|e| e.keys.conflicts(&q.keys) || q.multi_partition() && e.multi_partition())
    }

    /// The lowest lane not in flight.
    fn free_lane(&self) -> Option<usize> {
        (0..self.width).find(|lane| !self.inflight.contains_key(lane))
    }

    /// Command `ts` on `lane` finished, with the reply `(client, seq)` it
    /// returned (`None`: a transfer covered it). Returns whether to post
    /// the reply, and how the watermark moved.
    ///
    /// Each replica owns one response slot per client, and commands can
    /// finish out of delivery order: a reply whose seq is not above the
    /// highest already posted for its client is not posted — it would
    /// regress the slot's seq word, which already satisfies the client.
    pub fn finish(
        &mut self,
        lane: usize,
        ts: u64,
        reply: Option<(u64, u64)>,
    ) -> (bool, Option<Mirror>) {
        let post = reply.is_some_and(|(client, seq)| {
            let fresh = self.last_replied.get(&client).is_none_or(|&l| seq > l);
            if fresh {
                self.last_replied.insert(client, seq);
            }
            fresh
        });
        self.inflight.remove(&lane);
        if let Some(fin) = self.done.get_mut(&ts) {
            *fin = true;
        }
        (post, self.advance())
    }

    /// Advances the watermark over the finished front of `done`: it may
    /// only cover timestamps with no unfinished admitted command below them
    /// (a responder's snapshot bound has no holes).
    fn advance(&mut self) -> Option<Mirror> {
        let mut watermark = None;
        while let Some(first) = self.done.first_entry().filter(|e| *e.get()) {
            watermark = Some(first.remove_entry().0);
        }
        let advanced = watermark? > self.completed;
        self.completed = self.completed.max(watermark?);
        Some(if advanced {
            Mirror::Publish
        } else {
            Mirror::Completed
        })
    }

    /// `completed_req` is an exact request boundary: nothing is in flight
    /// and no command finished above it, so no store stamp passes it — a
    /// responder's snapshot bound.
    fn at_boundary(&self) -> bool {
        self.inflight.is_empty() && self.highest_finished().is_none()
    }

    /// The highest command finished above the watermark, if any.
    fn highest_finished(&self) -> Option<u64> {
        let mut above = self.done.range((Excluded(self.completed), Unbounded));
        above.rfind(|(_, &fin)| fin).map(|(&ts, _)| ts)
    }

    // ------------------------------------------------------------------
    // Stalls: Algorithm 3's requester side.
    // ------------------------------------------------------------------

    /// The command on `lane` stalled for `reason`.
    pub fn park(&mut self, lane: usize, ts: u64, reason: Stall) {
        if let Some(f) = self.inflight.get_mut(&lane) {
            debug_assert_eq!(f.ts, ts, "park for a command the lane does not hold");
            f.parked = Some(reason);
        }
    }

    /// The stalls a transfer should run for, if one should: every
    /// in-flight command, once all of them parked (dispatch pauses on the
    /// first park, so the others drain); else a Gap's held-back delivery,
    /// as a [`Stall::Lagging`] that never heals, once everything before it
    /// drained.
    pub fn stalled(&self) -> Option<Vec<(u64, Stall)>> {
        if !self.inflight.is_empty() {
            let parks = self.inflight.values();
            return parks.map(|f| Some((f.ts, f.parked.clone()?))).collect();
        }
        let ts = self.gap.filter(|_| self.queue.is_empty())?;
        Some(vec![(ts, Stall::Lagging)])
    }

    /// A transfer adopted snapshot bound `rid`: everything up to it is in
    /// the store, admitted or not.
    pub fn install(&mut self, rid: u64) -> Mirror {
        self.last_req = self.last_req.max(rid);
        self.completed = self.completed.max(rid);
        Mirror::Publish
    }

    /// Hands each parked lane its verdict on the transfer that adopted
    /// `rid` (`None`: withdrawn), or, with nothing in flight, releases a
    /// Gap's held-back delivery if the snapshot covered it.
    pub fn resolve(&mut self, rid: Option<u64>, mut verdict: impl FnMut(usize, StallOutcome)) {
        let covered = |ts| rid.is_some_and(|r| r >= ts);
        if self.inflight.is_empty() {
            self.gap = self.gap.filter(|&ts| !covered(ts));
        }
        for (&lane, f) in self.inflight.iter_mut() {
            f.parked = None;
            let outcome = if covered(f.ts) {
                StallOutcome::Covered
            } else {
                StallOutcome::Retry
            };
            verdict(lane, outcome);
        }
    }

    // ------------------------------------------------------------------
    // Cold restart.
    // ------------------------------------------------------------------

    /// A cold restart rebuilt the store at checkpoint `bound`. Without
    /// durability nothing speaks for what came after: the next delivery
    /// waits for a transfer.
    pub fn restart(&mut self, bound: u64, durable: bool) -> Mirror {
        (self.last_req, self.completed) = (bound, bound);
        self.needs_full_sync = !durable;
        Mirror::Publish
    }

    /// The WAL tail past the restart's bound, admitted ahead of live
    /// deliveries.
    pub fn replay(&mut self, tail: Vec<Delivered>) {
        self.replay = Some(tail.into());
    }

    /// Frames the last cold restart's replay admitted.
    pub fn replayed(&self) -> u64 {
        self.replayed
    }

    /// Ends the replay once its commands all finished.
    pub fn end_replay(&mut self) -> bool {
        let drained = self.queue.is_empty() && self.inflight.is_empty();
        let ended = drained && self.replay.as_ref().is_some_and(VecDeque::is_empty);
        self.replay = self.replay.take().filter(|_| !ended);
        ended
    }

    // ------------------------------------------------------------------
    // The responder rotation of Algorithm 3 (line 10, lines 19–22).
    // ------------------------------------------------------------------

    /// When our turn comes to serve `request`, or `None` while it is
    /// unseen: requester+1 serves at first sight, the next a timeout
    /// later, and so on.
    fn due(&self, request: &(usize, u64)) -> Option<u64> {
        let rank = (self.idx + self.n - request.0 - 1) % self.n;
        Some(self.seen.get(request)? + TRANSFER_TIMEOUT.as_nanos() as u64 * rank as u64)
    }

    /// A seen request of `pending` is due at `now`.
    fn serve_turn(&self, pending: &[(usize, u64)], now: u64) -> bool {
        (pending.iter()).any(|k| self.due(k).is_some_and(|due| due <= now))
    }

    /// Whether `request` has not been seen yet.
    pub fn unseen(&self, request: &(usize, u64)) -> bool {
        !self.seen.contains_key(request)
    }

    /// Forgets the requests no longer pending (someone else completed
    /// them); returns whether there were any.
    pub fn forget_gone(&mut self, pending: &[(usize, u64)]) -> bool {
        let seen = self.seen.len();
        self.seen.retain(|k, _| pending.contains(k));
        self.seen.len() < seen
    }

    /// The serve walk reached `request` at `now`: notes its first sight,
    /// and returns whether to serve it now — its turn came, at an exact
    /// boundary. A request served is forgotten.
    pub fn sight(&mut self, request: (usize, u64), now: u64) -> bool {
        self.seen.entry(request).or_insert(now);
        let serve = self.at_boundary() && self.due(&request).is_some_and(|due| due <= now);
        if serve {
            self.seen.remove(&request);
        }
        serve
    }

    /// Nanoseconds from `now` to the next future turn among `pending`.
    pub fn next_turn(&self, pending: &[(usize, u64)], now: u64) -> Option<u64> {
        let until = pending.iter().filter_map(|k| self.due(k)?.checked_sub(now));
        until.filter(|&ns| ns > 0).min()
    }
}

/// One line: the watermarks, the queue and the in-flight lanes
/// (`lane, ts, parked`), the unretired `done` entries, the Gap hold, the
/// seen requests with their first sight and the replay frames left.
impl fmt::Debug for Books {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (last_req, completed, done, seen) =
            (self.last_req, self.completed, &self.done, &self.seen);
        let queue: Vec<u64> = self.queue.iter().map(Job::ts).collect();
        let lanes: Vec<_> = (self.inflight.iter())
            .map(|(l, i)| (l, i.ts, i.parked.is_some()))
            .collect();
        let (full_sync, gap) = (self.needs_full_sync, self.gap);
        let replay = self.replay.as_ref().map(VecDeque::len);
        write!(
            f,
            "last_req={last_req} completed={completed} queue={queue:?} lanes={lanes:?} "
        )?;
        write!(
            f,
            "done={done:?} full_sync={full_sync} gap={gap:?} seen={seen:?} "
        )?;
        write!(f, "replay={replay:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amcast::{MsgId, Timestamp};
    use bytes::Bytes;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Command `ts`, addressed to `partitions` partitions.
    fn delivered(ts: u64, partitions: u32) -> Delivered {
        Delivered {
            id: MsgId(ts as u32),
            ts: Timestamp::from_raw(ts),
            dests: (1 << partitions) - 1,
            payload: Bytes::new(),
        }
    }

    /// Admits `event` off the live stream, with conflict keys `keys`.
    fn deliver(books: &mut Books, event: DeliveryEvent, keys: Keys) -> Option<bool> {
        books.admit(0, || Some(event), |_| keys)
    }

    /// Admits `ts` holding `exclusive` and `shared`, addressed to `parts`
    /// partitions.
    fn admit_shared(books: &mut Books, ts: u64, exclusive: &[u64], shared: &[u64], parts: u32) {
        let keys = Keys::new(exclusive.into(), shared.into());
        let d = DeliveryEvent::Deliver(delivered(ts, parts));
        assert_eq!(deliver(books, d, keys), Some(true));
    }

    /// Admits `ts` holding `keys` exclusive, addressed to `partitions`
    /// partitions.
    fn admit(books: &mut Books, ts: u64, keys: &[u64], partitions: u32) {
        admit_shared(books, ts, keys, &[], partitions);
    }

    const GAP: DeliveryEvent = DeliveryEvent::Gap { from: 1, to: 2 };

    /// Dispatches what the books let go, with `pending` transfer requests,
    /// and returns the `(lane, ts)` of each command started.
    fn dispatch_with(books: &mut Books, pending: &[(usize, u64)]) -> Vec<(usize, u64)> {
        let mut started = Vec::new();
        while let Some(next) = books.dispatch(0, || pending) {
            if let Dispatch::Run { lane, d, .. } = next {
                started.push((lane, d.ts.raw()));
            }
        }
        started
    }

    fn dispatch_ready(books: &mut Books) -> Vec<(usize, u64)> {
        dispatch_with(books, &[])
    }

    /// Replica 0 of a group of 3.
    fn books(width: usize) -> Books {
        Books::new(width, 0, 3)
    }

    /// The front conflicts with a running command; the command behind it
    /// conflicts with neither and goes first.
    #[test]
    fn an_independent_job_overtakes_a_blocked_front() {
        let mut b = books(4);
        admit(&mut b, 5, &[1], 1);
        assert_eq!(dispatch_ready(&mut b), [(0, 5)]);
        admit(&mut b, 10, &[1], 1);
        admit(&mut b, 20, &[2], 1);
        assert_eq!(dispatch_ready(&mut b), [(1, 20)]);
        assert_eq!(dispatch_ready(&mut b), [], "10 still waits for 5");
    }

    /// A command that conflicts with an earlier queued one waits behind
    /// it, even when nothing in flight conflicts with it.
    #[test]
    fn a_job_never_overtakes_an_earlier_queued_job_it_conflicts_with() {
        let mut b = books(4);
        admit(&mut b, 5, &[1], 1);
        assert_eq!(dispatch_ready(&mut b), [(0, 5)]);
        admit(&mut b, 10, &[1, 2], 1);
        admit(&mut b, 20, &[2], 1);
        admit(&mut b, 30, &[3], 1);
        assert_eq!(dispatch_ready(&mut b), [(1, 30)]);
        b.finish(0, 5, None);
        assert_eq!(dispatch_ready(&mut b), [(0, 10)], "20 waits for 10");
        b.finish(0, 10, None);
        assert_eq!(dispatch_ready(&mut b), [(0, 20)]);
    }

    /// Two commands that hold only a shared key in common run side by
    /// side while two lanes are free.
    #[test]
    fn shared_holders_of_a_key_run_side_by_side() {
        let mut b = books(4);
        admit_shared(&mut b, 10, &[1], &[9], 1);
        admit_shared(&mut b, 20, &[2], &[9], 1);
        assert_eq!(dispatch_ready(&mut b), [(0, 10), (1, 20)]);
    }

    /// An exclusive holder waits for every earlier holder of its key, and
    /// a shared holder behind it waits for it; a key declared both ways is
    /// held exclusive.
    #[test]
    fn an_exclusive_holder_waits_for_the_shared_ones_before_it() {
        let mut b = books(4);
        admit_shared(&mut b, 10, &[], &[9], 1);
        admit_shared(&mut b, 20, &[], &[9], 1);
        admit(&mut b, 30, &[9], 1);
        admit_shared(&mut b, 40, &[], &[9], 1);
        admit_shared(&mut b, 50, &[7], &[7], 1);
        assert_eq!(b.queue[4].keys, Keys::new(vec![7], vec![]));
        assert_eq!(dispatch_ready(&mut b), [(0, 10), (1, 20), (2, 50)]);
        b.finish(0, 10, None);
        assert_eq!(dispatch_ready(&mut b), [], "30 waits for 20, 40 for 30");
        b.finish(1, 20, None);
        assert_eq!(dispatch_ready(&mut b), [(0, 30)]);
        assert_eq!(dispatch_ready(&mut b), [], "40 waits for 30");
        b.finish(0, 30, None);
        assert_eq!(dispatch_ready(&mut b), [(0, 40)]);
    }

    /// Multi-partition commands start in delivery order among themselves,
    /// independent or not; a single-partition command may pass them.
    #[test]
    fn a_multi_partition_job_never_overtakes_an_earlier_queued_one() {
        let mut b = books(4);
        admit(&mut b, 5, &[1], 1);
        assert_eq!(dispatch_ready(&mut b), [(0, 5)]);
        admit(&mut b, 10, &[1], 2);
        admit(&mut b, 20, &[2], 2);
        admit(&mut b, 30, &[3], 1);
        assert_eq!(dispatch_ready(&mut b), [(1, 30)]);
        b.finish(0, 5, None);
        let started = dispatch_ready(&mut b);
        assert_eq!(started, [(0, 10), (2, 20)], "10, then 20 behind it");
    }

    /// A command dispatched past a queued one finishes first; the
    /// watermark stops below the queued one until it finishes too.
    #[test]
    fn the_watermark_never_covers_an_admitted_job_not_yet_dispatched() {
        let mut b = books(4);
        admit(&mut b, 5, &[1], 1);
        assert_eq!(dispatch_ready(&mut b), [(0, 5)]);
        admit(&mut b, 10, &[1], 1);
        admit(&mut b, 20, &[2], 1);
        assert_eq!(dispatch_ready(&mut b), [(1, 20)]);
        assert_eq!(b.finish(1, 20, None), (false, None), "5 is still running");
        assert_eq!(b.finish(0, 5, None), (false, Some(Mirror::Publish)));
        assert_eq!(b.completed(), 5, "10 is admitted, not dispatched");
        assert_eq!(dispatch_ready(&mut b), [(0, 10)]);
        b.finish(0, 10, None);
        assert_eq!(b.completed(), 20);
        assert!(b.done.is_empty());
    }

    /// A responder serves only at an exact boundary. While a finished
    /// command sits above the watermark it refuses, and dispatch only fills
    /// the holes below that command.
    #[test]
    fn a_serve_waits_while_a_finished_command_sits_above_the_watermark() {
        let mut b = books(4);
        admit(&mut b, 5, &[1], 1);
        assert_eq!(dispatch_ready(&mut b), [(0, 5)]);
        admit(&mut b, 10, &[1], 1);
        admit(&mut b, 20, &[2], 1);
        assert_eq!(dispatch_ready(&mut b), [(1, 20)]);
        b.finish(1, 20, None);
        b.finish(0, 5, None);
        // Replica 2 asks for a transfer from 5; replica 0 is first in its
        // rotation, so the serve is due at first sight.
        let pending = [(2, 5)];
        assert!(b.unseen(&pending[0]));
        assert!(!b.sight(pending[0], 0), "no serve past a hole");
        assert!(!b.unseen(&pending[0]));
        assert_eq!(b.completed(), 5);
        admit(&mut b, 30, &[3], 1);
        assert_eq!(dispatch_with(&mut b, &pending), [(0, 10)], "only the hole");
        b.finish(0, 10, None);
        assert_eq!(b.completed(), 20);
        assert_eq!(
            b.next_job(0, || &pending),
            Some(0),
            "at the boundary, no limit"
        );
        assert!(b.sight(pending[0], 0), "served at the boundary");
        assert!(b.unseen(&pending[0]), "a request served is forgotten");
    }

    /// The rotation: requester+1 serves at first sight, the next a timeout
    /// later; a request no longer pending is forgotten.
    #[test]
    fn the_rotation_counts_from_first_sight() {
        let mut b = books(1);
        let timeout = TRANSFER_TIMEOUT.as_nanos() as u64;
        assert!(
            !b.sight((1, 7), 100),
            "replica 0 is second after requester 1"
        );
        assert_eq!(b.next_turn(&[(1, 7)], 150), Some(timeout - 50));
        assert!(!b.sight((1, 7), 99 + timeout));
        assert!(b.sight((1, 7), 100 + timeout));
        assert!(!b.sight((1, 8), 0));
        assert!(b.forget_gone(&[]));
        assert!(b.unseen(&(1, 8)));
    }

    /// `completed_req` is a responder's snapshot bound: completions
    /// arriving out of dispatch order never let it cover a timestamp that
    /// is still running.
    #[test]
    fn finish_never_lets_the_watermark_cover_an_unfinished_command() {
        let mut b = books(4);
        for ts in [10, 20, 30] {
            admit(&mut b, ts, &[], 1);
        }
        assert_eq!(dispatch_ready(&mut b), [(0, 10), (1, 20), (2, 30)]);
        assert_eq!(b.free_lane(), Some(3), "the lowest free lane is picked");
        b.finish(1, 20, None);
        assert_eq!(b.completed(), 0, "10 is still running");
        b.finish(2, 30, None);
        assert_eq!(b.completed(), 0, "10 is still running");
        b.finish(0, 10, None);
        assert_eq!(b.completed(), 30, "the whole prefix finished");
        assert_eq!(b.in_flight(), 0, "every lane came back");
        assert_eq!(b.free_lane(), Some(0));
        assert!(b.done.is_empty());
    }

    /// Completions in dispatch order — the only order the inline lane
    /// produces — advance the watermark one command at a time; the inline
    /// lane is in flight while it runs.
    #[test]
    fn finish_in_dispatch_order_advances_the_watermark_per_command() {
        let mut b = books(1);
        for ts in [10, 20, 30] {
            admit(&mut b, ts, &[1], 1);
            assert_eq!(dispatch_ready(&mut b), [(0, ts)], "the inline lane");
            assert!(b.keys(0).is_empty(), "no keys at width 1");
            assert_eq!(b.in_flight(), 1);
            b.finish(0, ts, None);
            assert_eq!(b.completed(), ts);
        }
    }

    /// A reply whose seq is not above the highest already posted for its
    /// client is not posted, at width 1 too: it would regress the seq word
    /// of the client's one response slot on this replica.
    #[test]
    fn finish_does_not_post_a_stale_reply_on_the_inline_lane() {
        let mut b = books(1);
        for (ts, seq, post) in [(10, 5, true), (20, 4, false), (30, 6, true)] {
            admit(&mut b, ts, &[], 1);
            assert_eq!(dispatch_ready(&mut b), [(0, ts)]);
            let (posted, _) = b.finish(0, ts, Some((7, seq)));
            assert_eq!(posted, post, "the reply to seq {seq}");
        }
    }

    /// A Gap holds the next delivery back until everything before it
    /// drained and a transfer covered it; a snapshot short of it is
    /// retried.
    #[test]
    fn a_gap_holds_the_next_delivery_until_a_transfer_covers_it() {
        let mut b = books(1);
        admit(&mut b, 10, &[], 1);
        assert_eq!(deliver(&mut b, GAP, Keys::default()), Some(true));
        admit(&mut b, 50, &[], 1);
        assert!(!b.waiting(true), "held back");
        assert_eq!(
            b.admit(0, || unreachable!("held back"), |_| unreachable!()),
            None
        );
        assert!(b.stalled().is_none(), "10 has not drained");
        assert_eq!(dispatch_ready(&mut b), [(0, 10)]);
        b.finish(0, 10, None);
        let stalls = b.stalled().expect("the held-back delivery");
        assert!(matches!(stalls[..], [(50, Stall::Lagging)]));
        b.install(40);
        b.resolve(Some(40), |_, _| unreachable!("no lane is parked"));
        assert!(b.stalled().is_some(), "40 does not cover 50");
        assert_eq!(b.install(60), Mirror::Publish);
        b.resolve(Some(60), |_, _| unreachable!("no lane is parked"));
        assert!(b.stalled().is_none() && b.waiting(true));
        let covered = DeliveryEvent::Deliver(delivered(55, 1));
        assert_eq!(deliver(&mut b, covered, Keys::default()), Some(false));
    }

    /// One generated command: its exclusive and its shared keys, each a
    /// mask over four keys, 1 or 2 partitions, and its client.
    type Command = (u64, u64, u32, u64);

    /// What the books did with the generated commands so far.
    #[derive(Default)]
    struct Model {
        /// Admitted (queued) commands by timestamp: exclusive and shared
        /// key masks (a key in both is exclusive only), multi-partition,
        /// client and seq.
        admitted: BTreeMap<u64, (u64, u64, bool, u64, u64)>,
        started: BTreeSet<u64>,
        finished: BTreeSet<u64>,
        /// Every command up to it is in an installed snapshot.
        installed: u64,
        running: BTreeMap<usize, u64>,
        parked: BTreeSet<usize>,
        /// Highest seq posted per client.
        posted: BTreeMap<u64, u64>,
    }

    impl Model {
        fn covered(&self, ts: u64) -> bool {
            self.finished.contains(&ts) || ts <= self.installed
        }

        /// Command `ts` on `lane` finished (`reply`: with its reply).
        fn finish(&mut self, books: &mut Books, lane: usize, ts: u64, reply: bool) {
            let (.., client, seq) = self.admitted[&ts];
            let (post, _) = books.finish(lane, ts, reply.then_some((client, seq)));
            if post {
                let last = self.posted.insert(client, seq);
                assert!(
                    last.is_none_or(|l| l < seq),
                    "reply rule: client {client} got seq {seq} after {last:?}"
                );
            }
            self.running.remove(&lane);
            self.finished.insert(ts);
        }

        /// Runs what the books dispatch, checking it starts in order.
        fn dispatch(&mut self, books: &mut Books) {
            while let Some(next) = books.dispatch(0, || &[]) {
                let Dispatch::Run { lane, d, .. } = next else {
                    continue;
                };
                let ts = d.ts.raw();
                let (ex, sh, multi, ..) = self.admitted[&ts];
                for (&e, &(e_ex, e_sh, e_multi, ..)) in self.admitted.range(..ts) {
                    let conflict = ex & (e_ex | e_sh) | sh & e_ex != 0;
                    assert!(
                        !conflict || self.covered(e),
                        "conflict order rule: {ts} started before {e}, which it conflicts with, finished"
                    );
                    assert!(
                        !(multi && e_multi) || self.started.contains(&e) || self.covered(e),
                        "multi-partition order rule: {ts} started before {e}"
                    );
                }
                self.started.insert(ts);
                self.running.insert(lane, ts);
            }
        }
    }

    /// Drives one replica's books at `width` through `steps` over the
    /// stream `cmds` (command `i` has timestamp `10 (i + 1)`), as the
    /// driver and its lanes would, checking after every input that the
    /// watermark covers no unfinished admitted command.
    fn drive(width: usize, cmds: &[Command], steps: &[(u8, u64)]) {
        let mut books = books(width);
        let mut m = Model::default();
        let mut next = 0;
        let mut seqs: BTreeMap<u64, u64> = BTreeMap::new();
        for &(kind, word) in steps {
            let pick = |of: &BTreeMap<usize, u64>| {
                let idle: Vec<(usize, u64)> = (of.iter())
                    .filter(|(lane, _)| !m.parked.contains(lane))
                    .map(|(&l, &t)| (l, t))
                    .collect();
                (!idle.is_empty()).then(|| idle[word as usize % idle.len()])
            };
            match kind % 8 {
                0..=2 if next < cmds.len() => {
                    let (ex, sh, partitions, client) = cmds[next];
                    next += 1;
                    let ts = 10 * next as u64;
                    let seq = *seqs.entry(client).and_modify(|s| *s += 1).or_insert(1);
                    let set = |mask: u64| (0..4).filter(|k| mask >> k & 1 == 1).collect();
                    let d = DeliveryEvent::Deliver(delivered(ts, partitions));
                    deliver(&mut books, d, Keys::new(set(ex), set(sh)));
                    if books.done.contains_key(&ts) {
                        let admitted = (ex, sh & !ex, partitions > 1, client, seq);
                        m.admitted.insert(ts, admitted);
                    }
                }
                3 => m.dispatch(&mut books),
                4 | 5 => {
                    if let Some((lane, ts)) = pick(&m.running) {
                        m.finish(&mut books, lane, ts, true);
                    }
                }
                6 => {
                    if let Some((lane, ts)) = pick(&m.running) {
                        books.park(lane, ts, Stall::Lagging);
                        m.parked.insert(lane);
                    }
                }
                7 if word % 8 == 0 => {
                    deliver(&mut books, GAP, Keys::default());
                }
                7 => {
                    if let Some(stalls) = books.stalled() {
                        let top = stalls.iter().map(|s| s.0).max().unwrap_or(0);
                        let rid = (word % 3 > 0).then(|| (top + 10).saturating_sub(word % 30));
                        if let Some(rid) = rid {
                            books.install(rid);
                            m.installed = m.installed.max(rid);
                        }
                        let mut verdicts = Vec::new();
                        books.resolve(rid, |lane, v| verdicts.push((lane, v)));
                        for (lane, v) in verdicts {
                            m.parked.remove(&lane);
                            if v == StallOutcome::Covered {
                                let ts = m.running[&lane];
                                m.finish(&mut books, lane, ts, false);
                            }
                        }
                    }
                }
                _ => {}
            }
            let unfinished = m.admitted.keys().find(|&&ts| !m.covered(ts));
            assert!(
                unfinished.is_none_or(|&ts| ts > books.completed()),
                "watermark rule: completed_req {} covers unfinished {unfinished:?} ({books:?})",
                books.completed()
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Algorithm 1's rules alone, at widths 1 and 4: the watermark
        /// never covers an unfinished admitted command; commands that
        /// conflict (one holds exclusive a key the other holds either way)
        /// start only after the earlier one finished, and
        /// multi-partition commands start in delivery order among
        /// themselves; each client's replies are posted once each, in
        /// increasing seq.
        #[test]
        fn the_books_keep_algorithm_1s_rules(
            cmds in prop::collection::vec((0u64..16, 0u64..16, 1u32..3, 0u64..3), 1..24),
            steps in prop::collection::vec((any::<u8>(), any::<u64>()), 0..160),
        ) {
            for width in [1, 4] {
                drive(width, &cmds, &steps);
            }
        }
    }
}
