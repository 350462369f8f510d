//! The Heron client: closed-loop request execution.

use crate::cluster::{ClientInfo, ClusterInner, HeronCluster};
use crate::layout::{encode_envelope, resp_slot, MAX_RESPONSE, RESP_HDR};
use crate::types::PartitionId;
use amcast::{GroupId, McastClient, MsgId, LEADER_TIMEOUT};
use bytes::Bytes;
use rdma_sim::{Addr, MemView, Node, Poller};
use std::fmt;
use std::rc::Rc;
use std::time::Duration;

/// Client retry period: a request unanswered for this long since it last
/// went is re-multicast with the same id, whatever its groups' epochs say.
const CLIENT_RETRY: Duration = Duration::from_millis(20);

/// A closed-loop Heron client.
///
/// `execute` multicasts the request to the involved partitions (asking the
/// application's [`crate::StateMachine::destinations`]), then waits for a
/// response from one server in each involved partition — exactly how the
/// paper's clients measure latency (§V-B). A partition silent for
/// [`amcast::LEADER_TIMEOUT`] is asked which epoch its group is in, and the
/// request is re-multicast with the same message id when its leader moved
/// or is down, and after `CLIENT_RETRY` in any case.
pub struct HeronClient {
    cluster: Rc<ClusterInner>,
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
        let inner = Rc::clone(&cluster.inner);
        let node = inner.fabric.add_node(format!("client-{name}"));
        let id = inner.client_counter.replace(inner.client_counter.get() + 1);
        let resp_bytes =
            inner.cfg.partitions * inner.cfg.replicas_per_partition * (RESP_HDR + MAX_RESPONSE);
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

    /// The replica of partition `p` whose ordering leader this client
    /// believes leads, and submits to.
    pub fn believed_leader(&self, p: PartitionId) -> usize {
        self.mcast.believed_leader(p.group())
    }

    /// Executes one request and blocks until every involved partition has
    /// responded; returns the response of the lowest-numbered involved
    /// partition. Records the end-to-end latency in the cluster metrics.
    ///
    /// # Panics
    ///
    /// Panics if the application maps the request to no partition, or if
    /// the request and its 24-byte envelope exceed the ordering layer's
    /// [`amcast::McastConfig::max_payload`] (488 request bytes at the
    /// default 512).
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
        // A group silent for the ordering layer's election timeout is
        // asked which epoch it is in; the request goes again, with the same
        // uid, when that moved its leader or its leader did not answer, and
        // at the latest `CLIENT_RETRY` after it last went.
        let mut sent = sim::now();
        loop {
            let now = sim::now();
            let wake = (now + LEADER_TIMEOUT).min(sent + CLIENT_RETRY);
            let timeout = wake.checked_sub(now).unwrap_or(Duration::from_nanos(1));
            if self
                .poller
                .poll_until_timeout(|| self.all_answered(dests, seq), timeout)
            {
                break;
            }
            let backstop = sim::now() >= sent + CLIENT_RETRY;
            let silent = self.node.with_mem(|m| {
                dests
                    .iter()
                    .filter(|p| self.answered_slot(m, **p, seq).is_none())
                    .fold(0u64, |mask, p| mask | 1 << p.group().0)
            });
            let found = self.mcast.locate(silent);
            let resend = backstop || (found.moved | found.unanswered) != 0;
            // Which groups were silent, the newest epoch read there
            // (`u64::MAX`: no replica answered) and which of them the
            // client moved to that epoch's leader.
            sim::trace::instant_args(
                "client.suspect",
                u64::from(uid.0),
                &[
                    ("client", self.id),
                    ("seq", seq),
                    ("silent", silent),
                    ("epoch", found.epoch.unwrap_or(u64::MAX)),
                    ("moved", found.moved),
                ],
            );
            if backstop {
                sim::trace::instant_args(
                    "client.retry",
                    u64::from(uid.0),
                    &[("client", self.id), ("seq", seq), ("missing", silent)],
                );
            }
            if resend {
                self.mcast.resend(uid, &groups, &envelope);
                sent = sim::now();
            }
        }
        // End the root span before measuring, so the traced span duration
        // and the recorded latency are the same number:
        // `explain::check_latencies` pairs every request path with a
        // recorded latency, nanosecond for nanosecond.
        drop(req_span);
        self.cluster.metrics.record_latency(sim::now() - t0);
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
            let slot = resp_slot(self.resp_base, p.0 as usize, r, cfg.replicas_per_partition);
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
