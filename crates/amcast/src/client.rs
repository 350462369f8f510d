//! The multicast client: writes messages straight into leader rings.

use crate::cluster::{Mcast, McastInner};
use crate::layout::{encode_sub, Lane, SUB_HDR};
use crate::replica::leader_for_epoch;
use crate::timestamp::{GroupId, MsgId};
use crate::{dest_mask, mask_groups, DestMask};
use rdma_sim::{Node, QueuePair};
use std::fmt;
use std::rc::Rc;
use std::time::Duration;

/// CPU time a client spends preparing and posting one multicast
/// (serialization + verb posting, calibrated to the paper's Java
/// prototype).
const SUBMIT_CPU: Duration = Duration::from_nanos(3_000);

/// A client attached to an atomic multicast deployment.
///
/// `multicast` is fire-and-forget at this layer: one unsignaled RDMA write
/// into the submission ring of each destination group's believed leader.
/// Delivery confirmation (and retry decisions) belong to the application —
/// in Heron, a client that hears nothing from a group for the ordering
/// layer's own [`crate::LEADER_TIMEOUT`] asks the group which epoch it is in
/// ([`McastClient::locate`]) and sends the message again with its original
/// id ([`McastClient::resend`]), deduplicated by the ordering layer.
pub struct McastClient {
    inner: Rc<McastInner>,
    node: Node,
    client_idx: usize,
    /// Queue pairs to every replica node, by global replica index, opened
    /// on first use.
    qps: Vec<Option<QueuePair>>,
    /// The writer's end of our submission lane on every replica node, by
    /// global replica index, opened at the first submission there.
    lanes: Vec<Option<Lane>>,
    /// Which replica of each group we currently believe leads it.
    believed_leader: Vec<usize>,
}

/// What [`McastClient::locate`] found in the groups it read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Located {
    /// Groups whose believed leader moved to the leader of the newest
    /// epoch a replica there holds.
    pub moved: DestMask,
    /// Groups whose believed leader did not answer the read: its node is
    /// down, or the read was lost.
    pub unanswered: DestMask,
    /// The newest epoch any replica read holds; `None` when no replica of
    /// any group read answered.
    pub epoch: Option<u64>,
}

impl fmt::Debug for McastClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("McastClient")
            .field("client_idx", &self.client_idx)
            .finish()
    }
}

impl McastClient {
    pub(crate) fn new(inner: Rc<McastInner>, node: Node, client_idx: usize) -> Self {
        let groups = inner.cfg.groups;
        let replicas = inner.cfg.total_replicas();
        McastClient {
            inner,
            node,
            client_idx,
            qps: (0..replicas).map(|_| None).collect(),
            lanes: vec![None; replicas],
            believed_leader: vec![0; groups],
        }
    }

    /// The index this client occupies in every submission ring.
    pub fn client_idx(&self) -> usize {
        self.client_idx
    }

    /// The replica of `group` this client submits to.
    pub fn believed_leader(&self, group: GroupId) -> usize {
        self.believed_leader[group.0 as usize]
    }

    /// Atomically multicasts `payload` to `dests`; returns the message id.
    ///
    /// # Panics
    ///
    /// Panics if `dests` is empty, contains an out-of-range group, or the
    /// payload exceeds the configured maximum.
    pub fn multicast(&mut self, dests: &[GroupId], payload: &[u8]) -> MsgId {
        let uid = Mcast::alloc_uid(&self.inner);
        self.resend(uid, dests, payload);
        uid
    }

    /// Re-submits a message with its original id, for a retry after a
    /// suspected leader failure: first locates the leader of every
    /// destination group ([`Self::locate`]), so a group whose leader holds
    /// the newest epoch keeps it.
    pub fn resubmit(&mut self, uid: MsgId, dests: &[GroupId], payload: &[u8]) {
        self.locate(dest_mask(dests));
        self.resend(uid, dests, payload);
    }

    /// Reads the heartbeat word of every replica of each group in `groups`
    /// with one signaled read apiece, and believes the leader the newest
    /// epoch read names. A leader heartbeats `epoch << 32 | counter` into
    /// its followers' words, so a group that elected holds the new epoch on
    /// a majority; a read that fails means that replica is down. A group
    /// none of whose replicas answered keeps its believed leader.
    pub fn locate(&mut self, groups: DestMask) -> Located {
        let n = self.inner.cfg.replicas_per_group;
        let mut found = Located::default();
        for g in mask_groups(groups) {
            let believed = self.believed_leader[g.0 as usize];
            let mut newest = None;
            for i in 0..n {
                let global = self.inner.global_idx(g, i);
                let heartbeat = self.inner.layouts[global].heartbeat;
                match self.qp(global).read_word(heartbeat) {
                    Ok(word) => newest = newest.max(Some(word >> 32)),
                    Err(_) if i == believed => found.unanswered |= 1 << g.0,
                    Err(_) => {}
                }
            }
            let Some(epoch) = newest else {
                continue;
            };
            found.epoch = found.epoch.max(newest);
            let leader = leader_for_epoch(epoch, n);
            if leader != believed {
                self.believed_leader[g.0 as usize] = leader;
                found.moved |= 1 << g.0;
            }
        }
        found
    }

    /// Sends a message with its original id again, to the believed leader
    /// of every destination group as it stands: one unsignaled write each.
    ///
    /// # Panics
    ///
    /// As [`Self::multicast`].
    pub fn resend(&mut self, uid: MsgId, dests: &[GroupId], payload: &[u8]) {
        assert!(
            !dests.is_empty(),
            "multicast needs at least one destination"
        );
        assert!(
            payload.len() <= self.inner.cfg.max_payload,
            "payload exceeds McastConfig::max_payload"
        );
        let mask = dest_mask(dests);
        // Correlated on the message uid: the same key tags the ordering
        // layer's agreement/delivery instants and the executors' spans, so
        // one request stitches across every partition that touches it.
        let _span = sim::trace::span_args(
            "mcast.submit",
            u64::from(uid.0),
            &[("groups", dests.len() as u64)],
        );
        sim::sleep(SUBMIT_CPU);
        for g in mask_groups(mask) {
            let leader_idx = self.believed_leader[g.0 as usize];
            let global = self.inner.global_idx(g, leader_idx);
            let layout = self.inner.layouts[global];
            let lane = self.lanes[global].get_or_insert_with(|| {
                Lane::new(self.inner.sizes.sub_lane(layout, self.client_idx), SUB_HDR)
            });
            let (stamp, slot) = lane.claim();
            let _ = self
                .qp(global)
                .post_write(slot, encode_sub(stamp, uid.0, mask, payload));
        }
    }

    /// Our queue pair to global replica `global`'s node.
    fn qp(&mut self, global: usize) -> &QueuePair {
        let n = self.inner.cfg.replicas_per_group;
        let (node, inner) = (&self.node, &self.inner);
        self.qps[global].get_or_insert_with(|| node.connect(&inner.nodes[global / n][global % n]))
    }
}
