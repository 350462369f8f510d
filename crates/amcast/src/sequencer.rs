//! Skeen's ordering rules, apart from the replica that runs them: a
//! leader proposes its clock for each message it takes in, fixes the final
//! timestamp at the maximum proposal of the destination groups, and
//! sequences the smallest final once no pending proposal can undercut it.
//!
//! A [`Sequencer`] touches nothing but its own fields: no memory, verb,
//! clock or trace. Its handlers return what the replica acts on — a
//! proposal to broadcast, a finalization, the next round — and the replica
//! does every post, charge and append around them, so a test can drive the
//! rules with no simulation.

use crate::timestamp::{MsgId, Timestamp};
use crate::{mask_groups, DestMask, IdMap, IdSet};
use std::collections::BTreeSet;

/// A message the leader took in, or heard a decision for, and has not
/// sequenced yet.
struct Pending {
    /// `None` until the submission arrives: a takeover adopts its
    /// predecessor's decisions, and another group's leader announces
    /// finals, without payloads.
    payload: Option<Vec<u8>>,
    mask: DestMask,
    /// Our group's proposal for it.
    myprop: Option<u64>,
}

impl Pending {
    fn new(mask: DestMask, myprop: Option<u64>) -> Self {
        Pending {
            payload: None,
            mask,
            myprop,
        }
    }
}

/// A message a round sequences.
#[derive(Debug)]
pub(crate) struct Release {
    pub uid: u32,
    pub mask: DestMask,
    /// The key it was sequenced under: its log entry's timestamp.
    pub ts_raw: u64,
    /// The final clock the round announces for it.
    pub announced: u64,
    pub payload: Vec<u8>,
}

/// One group's Skeen state. Followers keep the proposals and finals they
/// hear, so a takeover can adopt them; only a leader finalizes and
/// sequences (the `leader` argument of the handlers).
pub(crate) struct Sequencer {
    /// Our group's id, the key of our own proposals in `props`.
    group: u16,
    props: IdMap<u32, IdMap<u16, u64>>,
    finals: IdMap<u32, u64>,
    pending: IdMap<u32, Pending>,
    /// Finalized messages with their payloads, by `(timestamp, uid)`.
    finalized: BTreeSet<(u64, u32)>,
    /// Uids sequenced into the group log (ordering-level dedup).
    done: IdSet<u32>,
    clock: u64,
    max_ts_seen: u64,
}

impl Sequencer {
    pub fn new(group: u16) -> Self {
        Sequencer {
            group,
            props: IdMap::default(),
            finals: IdMap::default(),
            pending: IdMap::default(),
            finalized: BTreeSet::new(),
            done: IdSet::default(),
            clock: 0,
            max_ts_seen: 0,
        }
    }

    /// Whether `uid` was sequenced: a submission for it is a duplicate.
    pub fn is_done(&self, uid: u32) -> bool {
        self.done.contains(&uid)
    }

    /// Messages proposed for but not finalized, plus finalized ones not
    /// yet sequenced.
    pub fn backlog(&self) -> usize {
        self.pending.len() + self.finalized.len()
    }

    /// A leader takes in a submission (not [`Self::is_done`]). Returns the
    /// proposal to broadcast — ours, re-sent if we proposed before (a
    /// client's retry is idempotent, and a proposal lost to a remote leader
    /// change is repaired), none if the final is already known — and the
    /// timestamp, if this fixed it.
    pub fn on_submission(
        &mut self,
        uid: u32,
        mask: DestMask,
        payload: Vec<u8>,
    ) -> (Option<u64>, Option<Timestamp>) {
        let pend = self
            .pending
            .entry(uid)
            .or_insert_with(|| Pending::new(mask, None));
        pend.payload = Some(payload);
        pend.mask = mask;
        let propose = match pend.myprop {
            Some(prop) => Some(prop),
            None if self.finals.contains_key(&uid) => None,
            None => {
                self.clock += 1;
                pend.myprop = Some(self.clock);
                let own = self.props.entry(uid).or_default();
                own.insert(self.group, self.clock);
                Some(self.clock)
            }
        };
        (propose, self.try_finalize(uid))
    }

    /// `from_group`'s proposal for `uid`; the timestamp, if this fixed it.
    pub fn on_proposal(
        &mut self,
        uid: u32,
        from_group: u16,
        clock: u64,
        leader: bool,
    ) -> Option<Timestamp> {
        if self.done.contains(&uid) {
            return None;
        }
        let prop = self.props.entry(uid).or_default();
        let prop = prop.entry(from_group).or_insert(0);
        *prop = (*prop).max(clock);
        self.max_ts_seen = self.max_ts_seen.max(clock);
        // We might not have the submission yet; try_finalize handles it.
        leader.then(|| self.try_finalize(uid)).flatten()
    }

    /// A final clock announced for `uid`; the timestamp, if this fixed it.
    pub fn on_final(&mut self, uid: u32, clock: u64, leader: bool) -> Option<Timestamp> {
        if self.done.contains(&uid) {
            return None;
        }
        let f = self.finals.entry(uid).or_insert(clock);
        *f = (*f).max(clock);
        self.max_ts_seen = self.max_ts_seen.max(clock);
        if !leader {
            return None;
        }
        self.clock = self.clock.max(clock);
        // A decision for a message we never took in — its submission, or
        // our predecessor's proposal, was lost with a crashed leader —
        // holds its place in our order until it arrives.
        self.pending
            .entry(uid)
            .or_insert_with(|| Pending::new(0, None));
        self.try_finalize(uid)
    }

    /// Fixes `uid`'s final timestamp once its payload is in hand and every
    /// destination group has proposed (or a final was announced). Emits
    /// nothing: the round announces finals when it sequences them. A uid
    /// already finalized keeps its key, even if a later final raised
    /// `finals[uid]`, which the round announces.
    fn try_finalize(&mut self, uid: u32) -> Option<Timestamp> {
        let pend = self.pending.get(&uid)?;
        if pend.payload.is_none() || self.finalized.iter().any(|&(_, u)| u == uid) {
            return None;
        }
        let final_clock = match self.finals.get(&uid) {
            Some(&f) => f,
            None => {
                // All destination groups must have proposed.
                let props = self.props.get(&uid)?;
                let groups = mask_groups(pend.mask);
                if !groups.clone().all(|g| props.contains_key(&g.0)) {
                    return None;
                }
                let max = groups.map(|g| props[&g.0]).max();
                max.expect("at least one destination")
            }
        };
        self.finals.insert(uid, final_clock);
        self.clock = self.clock.max(final_clock);
        let ts = Timestamp::new(final_clock, MsgId(uid));
        self.max_ts_seen = self.max_ts_seen.max(final_clock);
        self.finalized.insert((ts.raw(), uid));
        Some(ts)
    }

    /// Pops up to `max` messages Skeen's delivery condition releases, in
    /// timestamp order: a finalized message goes once no pending message
    /// could still take a smaller timestamp. Popping a message never
    /// unblocks another (only non-finalized pending messages block), so
    /// checking per pop is checking per message.
    pub fn round(&mut self, max: usize) -> Vec<Release> {
        let mut round = Vec::new();
        while round.len() < max {
            let Some(&(ts_raw, uid)) = self.finalized.first() else {
                break;
            };
            let blocked = self.pending.iter().any(|(u, p)| {
                match (self.finals.get(u), p.myprop) {
                    // Finalized with its payload in hand: ordered via the
                    // set. A decision whose payload we have not seen goes
                    // first if its timestamp is below ts; the client's
                    // retry brings the payload.
                    (Some(&f), _) => {
                        p.payload.is_none() && Timestamp::new(f, MsgId(*u)).raw() < ts_raw
                    }
                    // A pending proposal below ts could still finalize
                    // under ts.
                    (None, Some(prop)) => Timestamp::new(prop, MsgId(*u)).raw() < ts_raw,
                    // No own proposal yet: our future proposal will exceed
                    // the current clock, hence exceed ts.
                    (None, None) => false,
                }
            });
            if blocked {
                break;
            }
            self.finalized.remove(&(ts_raw, uid));
            let pend = self
                .pending
                .remove(&uid)
                .expect("finalized implies pending");
            self.done.insert(uid);
            self.props.remove(&uid);
            let announced = self.finals[&uid];
            // A final raised after the uid was finalized would announce a
            // clock its log entry does not carry.
            debug_assert_eq!(
                Timestamp::from_raw(ts_raw).clock(),
                announced,
                "uid {uid} announced a final its key does not carry"
            );
            round.push(Release {
                uid,
                mask: pend.mask,
                ts_raw,
                announced,
                payload: pend.payload.expect("finalized implies payload"),
            });
        }
        round
    }

    /// `uid`, timestamped `ts_raw`, was delivered: nothing about it is
    /// pending any more.
    pub fn delivered(&mut self, uid: u32, ts_raw: u64) {
        self.done.insert(uid);
        self.props.remove(&uid);
        self.finals.remove(&uid);
        self.pending.remove(&uid);
        let clock = Timestamp::from_raw(ts_raw).clock();
        self.max_ts_seen = self.max_ts_seen.max(clock);
    }

    /// A reload from the WAL: the clock resumes at the largest clock its
    /// delivered or truncated entries carry.
    pub fn resume(&mut self, clock: u64) {
        (self.clock, self.max_ts_seen) = (clock, clock);
    }

    /// Leadership ended, or moved: the leader's in-flight bookkeeping goes.
    pub fn step_down(&mut self) {
        self.pending.clear();
        self.finalized.clear();
    }

    /// After a crash or a power cut, forgets everything volatile and keeps
    /// only what was `delivered`: a takeover may have replaced a
    /// pre-crash leader's unreplicated tail, and stale decisions would
    /// sequence retried messages at obsolete timestamps.
    pub fn forget(&mut self, delivered: &IdSet<u32>) {
        self.step_down();
        self.props.clear();
        self.finals.clear();
        self.done = delivered.clone();
    }

    /// A takeover, after [`Self::step_down`]: the clock jumps past every
    /// timestamp seen, and each message with a surviving proposal or final
    /// and not yet sequenced is pending, with our group's proposal if the
    /// old leader made one; payloads arrive again via client retries.
    pub fn take_over(&mut self) {
        self.clock = self.clock.max(self.max_ts_seen) + 16;
        let uids: Vec<u32> = self
            .props
            .keys()
            .chain(self.finals.keys())
            .copied()
            .filter(|u| !self.done.contains(u))
            .collect();
        for uid in uids {
            let own = self.props.get(&uid).and_then(|m| m.get(&self.group));
            let pend = Pending::new(0, own.copied());
            self.pending.entry(uid).or_insert(pend);
        }
    }

    /// The messages pending, by uid, with the payload each holds.
    #[cfg(test)]
    pub fn pending(&self) -> Vec<(u32, Option<Vec<u8>>)> {
        let mut taken: Vec<_> = self
            .pending
            .iter()
            .map(|(&uid, p)| (uid, p.payload.clone()))
            .collect();
        taken.sort_unstable();
        taken
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, VecDeque};

    /// What one process tells another: a client's submission, a leader's
    /// proposal or its final.
    #[derive(Debug)]
    enum Msg {
        Submit(u32, DestMask),
        Propose(u32, u16, u64),
        Final(u32, u64),
    }

    /// Drives the leaders of groups 0 and 1, one [`Sequencer`] each, with
    /// no simulation. Message `uid` (from 1) is `msgs[uid - 1]`: the client
    /// that submits it and its destination mask. Every sender-receiver pair
    /// is a FIFO channel, as RC delivers a queue pair's writes in order, and
    /// `picks` chooses which non-empty channel delivers its head next. A
    /// leader does what the replica does with each input: broadcasts its
    /// proposal to the other destination leader, then sequences rounds of
    /// `max_batch`, announcing each final, and delivers what it sequenced.
    /// Returns each group's log: uid and timestamp, in sequence order.
    fn drive(
        msgs: &[(usize, DestMask)],
        picks: &[usize],
        max_batch: usize,
    ) -> [Vec<(u32, u64)>; 2] {
        // A channel is (sender, receiving group); leader g sends as
        // `usize::MAX - g`, clients by their index.
        let mut chans: BTreeMap<(usize, u16), VecDeque<Msg>> = BTreeMap::new();
        for (uid, &(client, mask)) in (1..).zip(msgs) {
            for g in mask_groups(mask) {
                let chan = chans.entry((client, g.0)).or_default();
                chan.push_back(Msg::Submit(uid, mask));
            }
        }
        let mut leaders = [Sequencer::new(0), Sequencer::new(1)];
        let mut logs = [Vec::new(), Vec::new()];
        for step in 0.. {
            let ready: Vec<(usize, u16)> = chans
                .iter()
                .filter(|(_, chan)| !chan.is_empty())
                .map(|(&key, _)| key)
                .collect();
            if ready.is_empty() {
                break;
            }
            let key = ready[picks.get(step).copied().unwrap_or(0) % ready.len()];
            let msg = chans.get_mut(&key).and_then(VecDeque::pop_front);
            let g = key.1;
            let seq = &mut leaders[usize::from(g)];
            let mut sent = Vec::new();
            let others = |mask| mask_groups(mask).filter(move |h| h.0 != g);
            match msg.expect("a ready channel") {
                Msg::Submit(uid, mask) if !seq.is_done(uid) => {
                    let (propose, _) = seq.on_submission(uid, mask, vec![uid as u8]);
                    if let Some(prop) = propose {
                        sent.extend(others(mask).map(|h| (h.0, Msg::Propose(uid, g, prop))));
                    }
                }
                Msg::Submit(..) => {}
                Msg::Propose(uid, from, clock) => {
                    seq.on_proposal(uid, from, clock, true);
                }
                Msg::Final(uid, clock) => {
                    seq.on_final(uid, clock, true);
                }
            }
            let mut sequenced = Vec::new();
            loop {
                let round = seq.round(max_batch);
                if round.is_empty() {
                    break;
                }
                for r in round {
                    sent.extend(others(r.mask).map(|h| (h.0, Msg::Final(r.uid, r.announced))));
                    sequenced.push((r.uid, r.ts_raw));
                }
            }
            for &(uid, ts_raw) in &sequenced {
                seq.delivered(uid, ts_raw);
            }
            logs[usize::from(g)].extend(sequenced);
            for (h, msg) in sent {
                let chan = chans.entry((usize::MAX - usize::from(g), h)).or_default();
                chan.push_back(msg);
            }
        }
        logs
    }

    /// One single-group leader that took in uid 1 (finalized at its own
    /// proposal, clock 1) and then heard a final of `clock` for it.
    fn finalized_then_final(clock: Option<u64>) -> Vec<(u32, u64, u64)> {
        let mut seq = Sequencer::new(0);
        let (propose, ts) = seq.on_submission(1, 0b1, vec![1]);
        assert_eq!((propose, ts.map(|t| t.clock())), (Some(1), Some(1)));
        if let Some(clock) = clock {
            assert_eq!(seq.on_final(1, clock, true), None, "already finalized");
        }
        let round = seq.round(8);
        round
            .iter()
            .map(|r| (r.uid, r.ts_raw, r.announced))
            .collect()
    }

    #[test]
    fn a_final_equal_to_the_key_leaves_the_round_unchanged() {
        let round = finalized_then_final(None);
        assert_eq!(round, [(1, Timestamp::new(1, MsgId(1)).raw(), 1)]);
        assert_eq!(finalized_then_final(Some(1)), round);
    }

    /// `on_final` raises `finals[uid]` for a uid finalized under its old
    /// key; the round must not announce the raised clock.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "announced a final its key does not carry")]
    fn a_raised_final_for_a_finalized_uid_trips_the_round() {
        finalized_then_final(Some(5));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Skeen's rules alone: every message is sequenced once by each of
        /// its destination groups; each group's timestamps are unique and
        /// increasing; and the two groups sequence their common messages in
        /// the same order, at the same timestamps.
        #[test]
        fn two_groups_sequence_their_common_messages_alike(
            msgs in prop::collection::vec((0usize..3, 1u64..4), 1..8),
            picks in prop::collection::vec(0usize..64, 0..64),
            max_batch in 1usize..4,
        ) {
            let logs = drive(&msgs, &picks, max_batch);
            for (g, log) in logs.iter().enumerate() {
                let want: Vec<u32> = (1..).zip(&msgs)
                    .filter(|(_, &(_, mask))| mask & (1 << g) != 0)
                    .map(|(uid, _)| uid)
                    .collect();
                let mut got: Vec<u32> = log.iter().map(|&(uid, _)| uid).collect();
                got.sort_unstable();
                prop_assert_eq!(got, want, "group {} sequenced", g);
                prop_assert!(log.windows(2).all(|w| w[0].1 < w[1].1), "group {}: {:?}", g, log);
            }
            let common = |log: &[(u32, u64)]| -> Vec<(u32, u64)> {
                log.iter().copied().filter(|&(uid, _)| msgs[uid as usize - 1].1 == 0b11).collect()
            };
            prop_assert_eq!(common(&logs[0]), common(&logs[1]));
        }
    }
}
