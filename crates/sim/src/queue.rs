//! The kernel's event queue: a hierarchical timer wheel.
//!
//! The wheel serves entries in strictly increasing `(time, seq)` order —
//! exactly the order a binary min-heap on `(time, seq)` would. That heap
//! survives only as this module's unit-test oracle
//! (`wheel_matches_heap_on_random_streams`); the absolute schedules the
//! order produces are pinned in `heron-bench`'s `schedule_hash.rs`. The
//! wheel is the queue because it is cheaper on the deep queues Heron
//! builds (DESIGN.md §12 has the ledger measurement): pushes are O(1),
//! pops are amortized O(levels), and same-instant bursts are served out of
//! a pre-sorted batch without a comparison per entry.
//!
//! # Wheel geometry
//!
//! `LEVELS` levels of `SLOTS` slots each; a level-`k` slot spans
//! `SLOTS^k` ns, so the wheel covers `SLOTS^LEVELS` ns (≈ 68.7 s at 6×64)
//! of lookahead from the current instant. Deadlines beyond that go to a
//! sorted overflow map keyed by exact deadline; deadlines at the instant
//! currently being served go straight to the serving batch. Each level
//! keeps a `u64` occupancy bitmap so "first non-empty slot at or after the
//! cursor" is one rotate + trailing-zeros.
//!
//! Level-`k ≥ 1` slot starts are *lower bounds*: the wheel never serves an
//! entry out of an upper level. When the minimum candidate is an upper
//! slot's start, that slot *cascades* — its entries are re-filed, each
//! landing at a strictly lower level — and the search repeats. Entries are
//! only ever served from exact sources (the level-0 slot, the overflow
//! bucket, or the batch), merged and ordered by sequence number.

use std::collections::{BTreeMap, VecDeque};

use crate::kernel::Pid;

/// What a scheduler entry does when it fires.
pub(crate) enum Wake {
    /// Resume process `pid` if its block token still matches.
    Proc { pid: Pid, token: u64 },
    /// Run a closure in event context (timer).
    Timer(Box<dyn FnOnce()>),
}

/// One scheduled event: fires at virtual `time`, tie-broken by `seq` (the
/// global push order), carrying `wake`.
pub(crate) struct Entry {
    pub(crate) time: u64,
    pub(crate) seq: u64,
    pub(crate) wake: Wake,
}

/// Outcome of asking the queue for the next due entry.
pub(crate) enum Popped {
    /// The minimum entry; it was at or before the limit (if any).
    Event(Entry),
    /// The queue is non-empty but its minimum lies strictly after the
    /// limit. The queue is left untouched.
    Beyond,
    /// No entries at all.
    Empty,
}

const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS; // 64
const LEVELS: usize = 6;
/// Deadlines at `cur + MAX_SPAN` or later go to the overflow map.
const MAX_SPAN: u64 = 1 << (SLOT_BITS * LEVELS as u32); // 2^36 ns ≈ 68.7 s

/// The largest buffer (in entries) a cascade keeps as the wheel's spare. A
/// larger one held a wide slot's worth of far deadlines: such slots cascade
/// rarely, and every buffer kept ends up parked in some slot, so keeping
/// them all costs resident memory (+3.7 % on `null_coord`, and still +0.7 %
/// on `failover` with a cap of 256) where this cap costs none and saves
/// the same allocator traffic on the low levels' small, frequent cascades.
const SPARE_CAP: usize = 32;

pub(crate) struct TimerWheel {
    /// The wheel's cursor: no entry below `cur` remains filed in the slots
    /// (they have been served or sit in `past`). Advances to each served
    /// instant; may run ahead of the kernel clock between pops, never
    /// behind it.
    cur: u64,
    /// Total queued entries across slots, overflow, batch, and past.
    len: usize,
    /// Per-level slot occupancy bitmaps.
    occ: [u64; LEVELS],
    /// `LEVELS × SLOTS` buckets of `(time, seq, wake)`.
    slots: Vec<Vec<(u64, u64, Wake)>>,
    /// Far-future entries (`time − cur ≥ MAX_SPAN`), keyed by exact time.
    overflow: BTreeMap<u64, Vec<(u64, Wake)>>,
    /// Entries at the instant currently being served, ordered by seq.
    /// Same-instant pushes append here directly (their seqs are globally
    /// larger than anything already queued), so bursts at one instant cost
    /// one sort at materialization and O(1) per push afterwards.
    batch: VecDeque<(u64, Wake)>,
    batch_time: u64,
    /// Safety valve for pushes below `cur` (cannot happen through the
    /// kernel API today, which never schedules before the virtual clock,
    /// but kept so the wheel stays correct if that ever changes).
    past: Vec<(u64, u64, Wake)>,
    /// The buffer a cascading slot's entries move through: the slot takes
    /// this one's capacity and leaves its own behind, so the frequent
    /// small cascades of the low levels never reach the allocator. A
    /// buffer grown past [`SPARE_CAP`] is not kept (see there).
    spare: Vec<(u64, u64, Wake)>,
    /// The latest instant any shed entry was filed for: where the clock
    /// would stand had they all popped as the no-ops they were.
    shed_to: u64,
}

impl TimerWheel {
    pub(crate) fn new() -> Self {
        TimerWheel {
            cur: 0,
            len: 0,
            occ: [0; LEVELS],
            slots: std::iter::repeat_with(Vec::new)
                .take(LEVELS * SLOTS)
                .collect(),
            overflow: BTreeMap::new(),
            batch: VecDeque::new(),
            batch_time: 0,
            past: Vec::new(),
            spare: Vec::new(),
            shed_to: 0,
        }
    }

    /// The latest instant among the entries shed so far. A queue that runs
    /// empty leaves the clock here at the earliest, as it did when those
    /// entries popped — which also keeps later pushes at or after the
    /// cursor, however far the last cascade took it.
    pub(crate) fn shed_to(&self) -> u64 {
        self.shed_to
    }

    pub(crate) fn push(&mut self, time: u64, seq: u64, wake: Wake) {
        self.len += 1;
        if !self.batch.is_empty() && time == self.batch_time {
            // The instant being served: seqs only grow, so appending keeps
            // the batch sorted.
            self.batch.push_back((seq, wake));
            return;
        }
        if time < self.cur {
            self.past.push((time, seq, wake));
            return;
        }
        self.file(time, seq, wake);
    }

    /// Files an entry (`time ≥ cur`) into a slot or the overflow map.
    fn file(&mut self, time: u64, seq: u64, wake: Wake) {
        let delta = time - self.cur;
        if delta >= MAX_SPAN {
            self.overflow.entry(time).or_default().push((seq, wake));
            return;
        }
        // Level from the delta's magnitude: 64^k ≤ delta < 64^(k+1).
        let mut k = if delta == 0 {
            0
        } else {
            (63 - delta.leading_zeros()) as usize / SLOT_BITS as usize
        };
        // A slot index may collide with the cursor's slot while belonging
        // to the *next* lap of this level; bump such entries one level up
        // so every slot decodes to a single window. (At the bumped level
        // the tick difference is ≤ 1, which cannot collide again.)
        let tick_t = time >> (SLOT_BITS * k as u32);
        let tick_c = self.cur >> (SLOT_BITS * k as u32);
        if tick_t != tick_c && (tick_t & 63) == (tick_c & 63) {
            k += 1;
            if k == LEVELS {
                self.overflow.entry(time).or_default().push((seq, wake));
                return;
            }
        }
        let slot = ((time >> (SLOT_BITS * k as u32)) & 63) as usize;
        self.occ[k] |= 1 << slot;
        self.slots[k * SLOTS + slot].push((time, seq, wake));
    }

    /// The first occupied slot of level `k` at or after the cursor, as
    /// `(slot, start)`. `start` is exact for level 0 and a lower bound for
    /// upper levels; for the cursor's own slot it is clamped to `cur`.
    fn level_front(&self, k: usize) -> Option<(usize, u64)> {
        let occ = self.occ[k];
        if occ == 0 {
            return None;
        }
        let shift = SLOT_BITS * k as u32;
        let tick = self.cur >> shift;
        let cs = (tick & 63) as u32;
        let off = occ.rotate_right(cs).trailing_zeros();
        let slot = ((cs + off) & 63) as usize;
        let start = if off == 0 {
            self.cur
        } else {
            (tick + u64::from(off)) << shift
        };
        Some((slot, start))
    }

    /// Pops the global minimum `(time, seq)` entry if it is at or before
    /// `limit` (no limit: always). `dead` names the entries that can never
    /// do anything again: a cascade drops those instead of re-filing them.
    /// It must be monotone (once dead, dead for good), so that dropping an
    /// entry early only removes a pop that would have been a no-op. An
    /// entry that dies after reaching level 0, the batch or the overflow
    /// map still pops; nothing past `limit` is touched, shed included.
    pub(crate) fn pop_due(&mut self, limit: Option<u64>, dead: impl Fn(&Wake) -> bool) -> Popped {
        if !self.batch.is_empty() && self.past.is_empty() {
            // An instant is being served: its batch holds the minimum.
            if limit.is_some_and(|d| self.batch_time > d) {
                return Popped::Beyond;
            }
            return self.serve();
        }
        if self.len == 0 {
            return Popped::Empty;
        }
        loop {
            // Exact-time candidates.
            let mut min = u64::MAX;
            if !self.batch.is_empty() {
                min = self.batch_time;
            }
            if let Some(t) = self.past.iter().map(|&(t, _, _)| t).min() {
                min = min.min(t);
            }
            if let Some((&t, _)) = self.overflow.first_key_value() {
                min = min.min(t);
            }
            // Level candidates (lower bounds above level 0).
            let mut cascade: Option<(usize, usize)> = None;
            for k in 0..LEVELS {
                if let Some((slot, start)) = self.level_front(k) {
                    if start < min || (start == min && k >= 1 && cascade.is_none()) {
                        if start < min {
                            cascade = None;
                        }
                        min = start;
                        if k >= 1 {
                            cascade = Some((k, slot));
                        }
                    }
                }
            }
            if limit.is_some_and(|d| min > d) {
                return Popped::Beyond;
            }
            if let Some((k, slot)) = cascade {
                // The winner is an upper-level lower bound: re-file that
                // slot's live entries (each lands strictly below level k)
                // and search again.
                self.cur = min;
                self.occ[k] &= !(1 << slot);
                let spare = std::mem::take(&mut self.spare);
                let mut moved = std::mem::replace(&mut self.slots[k * SLOTS + slot], spare);
                for (t, s, w) in moved.drain(..) {
                    if dead(&w) {
                        self.len -= 1;
                        self.shed_to = self.shed_to.max(t);
                    } else {
                        self.file(t, s, w);
                    }
                }
                if moved.capacity() <= SPARE_CAP {
                    self.spare = moved;
                }
                if self.len == 0 {
                    return Popped::Empty; // shed to the last entry
                }
                continue;
            }
            // Serve at `min`: every remaining entry is at `min` exactly or
            // strictly later.
            self.cur = min;
            if self.batch.is_empty() {
                self.materialize(min);
            }
            debug_assert_eq!(self.batch_time, min);
            return self.serve();
        }
    }

    /// Pops the front of the batch: the minimum of the instant being served.
    fn serve(&mut self) -> Popped {
        let (seq, wake) = self.batch.pop_front().expect("served instant has entries");
        self.len -= 1;
        Popped::Event(Entry {
            time: self.batch_time,
            seq,
            wake,
        })
    }

    /// Collects every entry at exactly `t` (level-0 slot, overflow bucket,
    /// past list) into the (empty) batch, ordered by seq.
    fn materialize(&mut self, t: u64) {
        // Rewinds the drained ring to its buffer's start, so that the sort
        // below finds it contiguous.
        self.batch.clear();
        let slot = (t & 63) as usize;
        if self.occ[0] & (1 << slot) != 0 {
            // A level-0 slot holds exactly one instant (width 1 ns).
            self.occ[0] &= !(1 << slot);
            for (time, seq, wake) in self.slots[slot].drain(..) {
                debug_assert_eq!(time, t);
                self.batch.push_back((seq, wake));
            }
        }
        if let Some(bucket) = self.overflow.remove(&t) {
            self.batch.extend(bucket);
        }
        if !self.past.is_empty() {
            let mut i = 0;
            while i < self.past.len() {
                if self.past[i].0 == t {
                    let (_, seq, wake) = self.past.swap_remove(i);
                    self.batch.push_back((seq, wake));
                } else {
                    i += 1;
                }
            }
        }
        if self.batch.len() > 1 {
            self.batch
                .make_contiguous()
                .sort_unstable_by_key(|&(seq, _)| seq);
        }
        self.batch_time = t;
    }

    /// Puts back an entry returned by [`TimerWheel::pop_due`], restoring
    /// the queue to its pre-pop state. Multiple entries must be put back
    /// in reverse pop order.
    pub(crate) fn unpop(&mut self, entry: Entry) {
        debug_assert!(self.batch.is_empty() || self.batch_time == entry.time);
        self.batch_time = entry.time;
        self.batch.push_front((entry.seq, entry.wake));
        self.len += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn wake() -> Wake {
        Wake::Timer(Box::new(|| {}))
    }

    /// A process wake whose token is its entry's seq, so a test's `dead`
    /// predicate can tell entries apart.
    fn tagged(seq: u64) -> Wake {
        Wake::Proc {
            pid: Pid(0),
            token: seq,
        }
    }

    /// Whether `wake` is a [`tagged`] entry that `dead` lists.
    fn listed(dead: &[bool], wake: &Wake) -> bool {
        matches!(*wake, Wake::Proc { token, .. } if dead.get(token as usize) == Some(&true))
    }

    /// A pop's outcome, stripped to what the wheel and the oracle can be
    /// compared on.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Step {
        Event(u64, u64),
        Beyond,
        Empty,
    }

    /// The reference queue the wheel replaced: a binary min-heap on
    /// `(time, seq)`. Lives only here, as the oracle.
    #[derive(Default)]
    struct Heap(BinaryHeap<Reverse<(u64, u64)>>);

    impl Heap {
        fn push(&mut self, time: u64, seq: u64) {
            self.0.push(Reverse((time, seq)));
        }

        fn pop_due(&mut self, limit: Option<u64>) -> Step {
            match self.0.peek() {
                None => Step::Empty,
                Some(&Reverse((time, _))) if limit.is_some_and(|d| time > d) => Step::Beyond,
                Some(_) => {
                    let Reverse((time, seq)) = self.0.pop().expect("peeked entry vanished");
                    Step::Event(time, seq)
                }
            }
        }
    }

    /// Pops the wheel with nothing dead, keeping the entry (for `unpop`)
    /// beside its `Step`.
    fn pop(q: &mut TimerWheel, limit: Option<u64>) -> (Step, Option<Entry>) {
        pop_shedding(q, limit, &[])
    }

    /// Pops the wheel, letting it shed what `dead` lists (by seq).
    fn pop_shedding(
        q: &mut TimerWheel,
        limit: Option<u64>,
        dead: &[bool],
    ) -> (Step, Option<Entry>) {
        match q.pop_due(limit, |w| listed(dead, w)) {
            Popped::Event(e) => (Step::Event(e.time, e.seq), Some(e)),
            Popped::Beyond => (Step::Beyond, None),
            Popped::Empty => (Step::Empty, None),
        }
    }

    /// Drains `q`, returning the popped (time, seq) stream.
    fn drain(q: &mut TimerWheel) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let (Step::Event(time, seq), _) = pop(q, None) {
            out.push((time, seq));
        }
        out
    }

    /// The heap's next step, past the entries the wheel was entitled to
    /// shed: a heap entry that is not the wheel's and is dead is skipped and
    /// remembered in `shed`, and the wheel must never serve one of those.
    fn oracle_step(
        heap: &mut Heap,
        limit: Option<u64>,
        wheel: Step,
        dead: &[bool],
        shed: &mut Vec<u64>,
    ) -> Step {
        if let Step::Event(_, seq) = wheel {
            assert!(
                !shed.contains(&seq),
                "entry {seq} served after it went missing"
            );
        }
        loop {
            match heap.pop_due(limit) {
                step @ Step::Event(_, seq) if step != wheel && dead[seq as usize] => shed.push(seq),
                step => return step,
            }
        }
    }

    /// The wheel against the heap on every access pattern the kernel has:
    /// plain pops, pops against a deadline (`run_loop`), and gathering a
    /// same-instant ready set, keeping one entry and restoring the rest in
    /// reverse (`pop_explored`) — under a `dead` set that only grows, as
    /// the kernel's does. The wheel's pop stream is the heap's minus dead
    /// entries: every entry it skips is dead, it never skips one that is
    /// live at its pop time, never serves one it skipped, and it is empty
    /// exactly when the heap minus the skipped entries is.
    #[test]
    fn wheel_matches_heap_on_random_streams() {
        for seed in 0..20u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut wheel = TimerWheel::new();
            let mut heap = Heap::default();
            let mut dead: Vec<bool> = Vec::new();
            let mut shed: Vec<u64> = Vec::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            for round in 0..300 {
                // A burst of pushes relative to the current virtual time:
                // same-instant ties, near deadlines, skewed far deadlines,
                // and overflow-range deadlines.
                for _ in 0..rng.gen_range(0..8) {
                    let delta = match rng.gen_range(0..10) {
                        0..=3 => 0,
                        4..=6 => rng.gen_range(0..200),
                        7 => rng.gen_range(0..1 << 20),
                        8 => rng.gen_range(0..MAX_SPAN),
                        _ => MAX_SPAN + rng.gen_range(0..1 << 20),
                    };
                    wheel.push(now + delta, seq, tagged(seq));
                    heap.push(now + delta, seq);
                    seq += 1;
                }
                dead.resize(seq as usize, false);
                // Some entries die, queued or long gone; none comes back.
                for _ in 0..rng.gen_range(0..4) {
                    if !dead.is_empty() {
                        let victim = rng.gen_range(0..dead.len());
                        dead[victim] = true;
                    }
                }
                match rng.gen_range(0..3) {
                    // Pop a few, unbounded or against a deadline. A deadline
                    // the minimum lies beyond must leave both untouched —
                    // the next rounds' pops would diverge otherwise — and
                    // the clock then stands at the deadline, as after
                    // `run_until`.
                    0 | 1 => {
                        for _ in 0..rng.gen_range(0..6) {
                            let limit = rng
                                .gen_bool(0.5)
                                .then(|| now + [0, 1, 50, 5_000, MAX_SPAN][rng.gen_range(0..5)]);
                            let (w, _) = pop_shedding(&mut wheel, limit, &dead);
                            assert_eq!(
                                w,
                                oracle_step(&mut heap, limit, w, &dead, &mut shed),
                                "seed {seed} round {round}, limit {limit:?}"
                            );
                            match (w, limit) {
                                (Step::Event(t, _), _) => now = t,
                                (Step::Beyond, Some(limit)) => now = limit,
                                (Step::Empty, _) => now = now.max(wheel.shed_to()),
                                _ => {}
                            }
                        }
                    }
                    // Gather up to k entries of the next instant, keep one,
                    // put the others back in reverse pop order.
                    _ => {
                        let (first, entry) = pop_shedding(&mut wheel, None, &dead);
                        assert_eq!(
                            first,
                            oracle_step(&mut heap, None, first, &dead, &mut shed),
                            "seed {seed} round {round}, gather"
                        );
                        let Step::Event(time, _) = first else {
                            now = now.max(wheel.shed_to());
                            continue;
                        };
                        now = time;
                        let mut ready: Vec<Entry> = entry.into_iter().collect();
                        let k = rng.gen_range(1..6);
                        while ready.len() < k {
                            let (w, entry) = pop_shedding(&mut wheel, Some(time), &dead);
                            assert_eq!(
                                w,
                                oracle_step(&mut heap, Some(time), w, &dead, &mut shed),
                                "seed {seed} round {round}, gather"
                            );
                            match entry {
                                Some(e) => ready.push(e),
                                None => break,
                            }
                        }
                        ready.remove(rng.gen_range(0..ready.len()));
                        for e in ready.into_iter().rev() {
                            heap.push(e.time, e.seq);
                            wheel.unpop(e);
                        }
                    }
                }
            }
            loop {
                let (w, _) = pop_shedding(&mut wheel, None, &dead);
                assert_eq!(
                    w,
                    oracle_step(&mut heap, None, w, &dead, &mut shed),
                    "seed {seed}, drain"
                );
                if w == Step::Empty {
                    break;
                }
            }
            assert_eq!(wheel.len, 0, "seed {seed}: entries left in an empty wheel");
            assert!(!shed.is_empty(), "seed {seed}: the wheel shed nothing");
        }
    }

    /// A cascade drops the dead entries it moves, a level-0 entry pops dead
    /// or not, and a limit below the slot's start protects the whole slot.
    #[test]
    fn cascade_sheds_dead_entries_but_never_past_the_limit() {
        let mut q = TimerWheel::new();
        q.push(1_000_000, 0, tagged(0));
        q.push(1_000_000, 1, tagged(1));
        q.push(5, 2, tagged(2));
        let dead = [true, false, true];
        assert_eq!(pop_shedding(&mut q, Some(4), &dead).0, Step::Beyond);
        assert_eq!(pop_shedding(&mut q, None, &dead).0, Step::Event(5, 2));
        assert_eq!(pop_shedding(&mut q, Some(100), &dead).0, Step::Beyond);
        assert_eq!(q.len, 2, "shed past the limit");
        assert_eq!(
            pop_shedding(&mut q, None, &dead).0,
            Step::Event(1_000_000, 1)
        );
        assert_eq!(
            (pop_shedding(&mut q, None, &dead).0, q.len),
            (Step::Empty, 0)
        );
        assert_eq!(q.shed_to(), 1_000_000);
        // Shed empty: the clock goes where the last shed entry would have
        // taken it, and pushes from there are served in order.
        q.push(2_000_000, 3, tagged(3));
        let dead = [true, false, true, true];
        assert_eq!(pop_shedding(&mut q, None, &dead).0, Step::Empty);
        assert_eq!(q.shed_to(), 2_000_000);
        q.push(2_000_700, 4, tagged(4));
        q.push(2_000_000, 5, tagged(5));
        assert_eq!(drain(&mut q), vec![(2_000_000, 5), (2_000_700, 4)]);
    }

    #[test]
    fn pop_respects_limit_and_leaves_queue_intact() {
        let mut q = TimerWheel::new();
        q.push(100, 0, wake());
        q.push(500, 1, wake());
        assert_eq!(pop(&mut q, Some(50)).0, Step::Beyond);
        assert_eq!(pop(&mut q, Some(100)).0, Step::Event(100, 0));
        assert_eq!(pop(&mut q, Some(499)).0, Step::Beyond);
        assert_eq!(pop(&mut q, None).0, Step::Event(500, 1));
        assert_eq!(pop(&mut q, None).0, Step::Empty);
    }

    #[test]
    fn unpop_restores_pop_order() {
        let mut q = TimerWheel::new();
        q.push(10, 0, wake());
        q.push(10, 1, wake());
        q.push(20, 2, wake());
        let (step, entry) = pop(&mut q, None);
        assert_eq!(step, Step::Event(10, 0));
        q.unpop(entry.expect("an event carries its entry"));
        assert_eq!(drain(&mut q), vec![(10, 0), (10, 1), (20, 2)]);
    }

    #[test]
    fn same_instant_burst_pops_in_seq_order() {
        let mut q = TimerWheel::new();
        for seq in 0..100 {
            q.push(7, seq, wake());
        }
        // Push more at the same instant while serving it.
        assert_eq!(pop(&mut q, None).0, Step::Event(7, 0));
        q.push(7, 100, wake());
        let rest: Vec<_> = drain(&mut q).iter().map(|&(_, s)| s).collect();
        assert_eq!(rest, (1..=100).collect::<Vec<_>>());
    }

    #[test]
    fn far_future_entries_round_trip_through_overflow() {
        let mut q = TimerWheel::new();
        q.push(MAX_SPAN * 3 + 17, 0, wake());
        q.push(5, 1, wake());
        q.push(MAX_SPAN * 3 + 17, 2, wake());
        let order = drain(&mut q);
        assert_eq!(
            order,
            vec![(5, 1), (MAX_SPAN * 3 + 17, 0), (MAX_SPAN * 3 + 17, 2)]
        );
    }
}
