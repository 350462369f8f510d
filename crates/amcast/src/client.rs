//! The multicast client: writes messages straight into leader rings.

use crate::cluster::{Mcast, McastInner};
use crate::layout::{encode_sub, Lane, SUB_HDR};
use crate::timestamp::{GroupId, MsgId};
use crate::{dest_mask, mask_groups};
use rdma_sim::{Node, NodeId, QueuePair};
use std::collections::HashMap;
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
/// in Heron, the client retries when no partition responds in time, using
/// [`McastClient::resubmit`] so the message keeps its original id and is
/// deduplicated by the ordering layer.
pub struct McastClient {
    inner: Rc<McastInner>,
    node: Node,
    client_idx: usize,
    /// Per target node, opened on first use: the queue pair and the
    /// writer's end of our submission lane there.
    lanes: HashMap<NodeId, (QueuePair, Lane)>,
    /// Which replica of each group we currently believe leads it.
    believed_leader: Vec<usize>,
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
        McastClient {
            inner,
            node,
            client_idx,
            lanes: HashMap::new(),
            believed_leader: vec![0; groups],
        }
    }

    /// The index this client occupies in every submission ring.
    pub fn client_idx(&self) -> usize {
        self.client_idx
    }

    /// Atomically multicasts `payload` to `dests`; returns the message id.
    ///
    /// # Panics
    ///
    /// Panics if `dests` is empty, contains an out-of-range group, or the
    /// payload exceeds the configured maximum.
    pub fn multicast(&mut self, dests: &[GroupId], payload: &[u8]) -> MsgId {
        let uid = Mcast::alloc_uid(&self.inner);
        self.submit(uid, dests, payload);
        uid
    }

    /// Re-submits a message with its original id (for retry after a
    /// suspected leader failure). Rotates the believed leader of every
    /// destination group first.
    pub fn resubmit(&mut self, uid: MsgId, dests: &[GroupId], payload: &[u8]) {
        for g in dests {
            let n = self.inner.cfg.replicas_per_group;
            self.believed_leader[g.0 as usize] = (self.believed_leader[g.0 as usize] + 1) % n;
        }
        self.submit(uid, dests, payload);
    }

    fn submit(&mut self, uid: MsgId, dests: &[GroupId], payload: &[u8]) {
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
            let target = &self.inner.nodes[g.0 as usize][leader_idx];
            let (qp, lane) = self.lanes.entry(target.id()).or_insert_with(|| {
                let layout = self.inner.layouts[self.inner.global_idx(g, leader_idx)];
                let ring = self.inner.sizes.sub_lane(layout, self.client_idx);
                (self.node.connect(target), Lane::new(ring, SUB_HDR))
            });
            let (stamp, slot) = lane.claim();
            let _ = qp.post_write(slot, encode_sub(stamp, uid.0, mask, payload));
        }
    }
}
