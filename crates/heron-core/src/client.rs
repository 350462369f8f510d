//! The Heron client: closed-loop request execution.

use crate::cluster::{ClientInfo, ClusterInner, HeronCluster};
use crate::layout::{encode_envelope, resp_slot, RESP_HDR};
use crate::types::PartitionId;
use amcast::{GroupId, McastClient, MsgId};
use bytes::Bytes;
use rdma_sim::{Addr, MemView, Node, Poller};
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A closed-loop Heron client.
///
/// `execute` multicasts the request to the involved partitions (asking the
/// application's [`crate::StateMachine::destinations`]), then waits for a
/// response from one server in each involved partition — exactly how the
/// paper's clients measure latency (§V-B). Unanswered requests are
/// re-multicast with the same message id after `client_retry`.
pub struct HeronClient {
    cluster: Arc<ClusterInner>,
    node: Node,
    /// Our wait point: rung by replies landing in the response region.
    poller: Poller,
    id: u64,
    seq: u64,
    resp_base: Addr,
    mcast: McastClient,
}

impl fmt::Debug for HeronClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HeronClient")
            .field("id", &self.id)
            .field("seq", &self.seq)
            .finish()
    }
}

impl HeronClient {
    pub(crate) fn attach(cluster: &HeronCluster, name: String) -> Self {
        let inner = Arc::clone(&cluster.inner);
        let node = inner.fabric.add_node(format!("client-{name}"));
        let id = inner.client_counter.fetch_add(1, Ordering::SeqCst);
        let resp_bytes = inner.cfg.partitions
            * inner.cfg.replicas_per_partition
            * (RESP_HDR + inner.cfg.max_response);
        let resp_base = node.alloc_bytes(resp_bytes);
        let poller = node.poller(sim::Cond::new(), &[(resp_base, resp_bytes)]);
        inner.clients.lock().insert(
            id,
            ClientInfo {
                node: node.id(),
                resp_base,
            },
        );
        let mcast = inner.mcast.client(&node);
        HeronClient {
            cluster: inner,
            node,
            poller,
            id,
            seq: 0,
            resp_base,
            mcast,
        }
    }

    /// This client's id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The sequence number of the last issued request (0 before the
    /// first).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Executes one request and blocks until every involved partition has
    /// responded; returns the response of the lowest-numbered involved
    /// partition. Records the end-to-end latency in the cluster metrics.
    ///
    /// # Panics
    ///
    /// Panics if the application maps the request to no partition, or if
    /// the request exceeds the configured maximum size.
    pub fn execute(&mut self, request: &[u8]) -> Bytes {
        let mut dests = self.cluster.app.destinations(request);
        dests.sort_unstable();
        dests.dedup();
        self.execute_on(request, &dests)
    }

    /// Like [`HeronClient::execute`] with an explicit destination set
    /// (used by workloads that pre-compute request routing).
    pub fn execute_on(&mut self, request: &[u8], dests: &[PartitionId]) -> Bytes {
        assert!(!dests.is_empty(), "request must involve ≥ 1 partition");
        assert!(
            request.len() <= self.cluster.cfg.max_request,
            "request exceeds HeronConfig::max_request"
        );
        self.seq += 1;
        let seq = self.seq;
        let t0 = sim::now();
        // Root span of the request's trace: begins at the same instant as
        // the latency measurement (t0); the message uid — the key every
        // other layer correlates on — is attached once multicast returns.
        let mut req_span =
            sim::trace::span_args("client.request", 0, &[("client", self.id), ("seq", seq)]);
        let envelope = encode_envelope(self.id, seq, t0.as_nanos(), request);
        let groups: Vec<GroupId> = dests.iter().map(|p| p.group()).collect();
        let uid: MsgId = self.mcast.multicast(&groups, &envelope);
        req_span.set_corr(u64::from(uid.0));
        // Wait for a response from one server in each involved partition.
        let retry = self.cluster.cfg.client_retry;
        loop {
            let done = self
                .poller
                .poll_until_timeout(|| self.all_answered(dests, seq), retry);
            if done {
                break;
            }
            if sim::trace::enabled() {
                // Which partitions have not answered, as a bit per id.
                let missing = self.node.with_mem(|m| {
                    dests
                        .iter()
                        .filter(|p| self.answered_slot(m, **p, seq).is_none())
                        .fold(0u64, |mask, p| mask | 1 << p.0)
                });
                sim::trace::instant_args(
                    "client.retry",
                    u64::from(uid.0),
                    &[("client", self.id), ("seq", seq), ("missing", missing)],
                );
            }
            // Retry: the believed leader of some group may have failed.
            self.mcast.resubmit(uid, &groups, &envelope);
        }
        // End the root span before measuring, so the traced span duration
        // and the recorded latency are the same number: the blame
        // analyzer's per-exemplar decomposition must sum to exactly the
        // histogram's value.
        drop(req_span);
        let latency = sim::now() - t0;
        // Tag the sample with the message uid — the same correlation key the
        // trace spans carry — so tail exemplars lead back to their spans.
        self.cluster
            .metrics
            .record_latency_tagged(latency, u64::from(uid.0));
        // Prefer the first partition with a non-empty response: a partition
        // that executes only part of a request (TPC-C's supplying
        // warehouses in a NewOrder) answers with an empty acknowledgment.
        for p in dests {
            let r = self.read_response(*p, seq);
            if !r.is_empty() {
                return r;
            }
        }
        self.read_response(dests[0], seq)
    }

    /// Whether some replica slot of partition `p` holds a response for
    /// `seq` — "a response from one server in each partition" (§V-B).
    fn answered_slot(&self, m: &MemView<'_>, p: PartitionId, seq: u64) -> Option<Addr> {
        let cfg = &self.cluster.cfg;
        (0..cfg.replicas_per_partition).find_map(|r| {
            let slot = resp_slot(
                self.resp_base,
                p.0 as usize,
                r,
                cfg.replicas_per_partition,
                cfg.max_response,
            );
            (m.word(slot).unwrap_or(0) >= seq).then_some(slot)
        })
    }

    fn all_answered(&self, dests: &[PartitionId], seq: u64) -> bool {
        self.node.with_mem(|m| {
            dests
                .iter()
                .all(|p| self.answered_slot(m, *p, seq).is_some())
        })
    }

    fn read_response(&self, p: PartitionId, seq: u64) -> Bytes {
        self.node.with_mem(|m| {
            let slot = self.answered_slot(m, p, seq).expect("partition answered");
            let len = m.word(slot.offset(8)).expect("own response slot") as usize;
            let body = m.bytes(slot.offset(RESP_HDR as u64), len);
            Bytes::copy_from_slice(body.expect("own response slot"))
        })
    }
}
