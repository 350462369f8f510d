//! The replica service process.
//!
//! Colocated with the executor, this process plays the roles a real Heron
//! replica handles off the critical path:
//!
//! * answering **object-address queries** (Algorithm 2, lines 8–13) —
//!   read-only lookups, so they are safe to serve even while the executor
//!   is blocked in a coordination phase (which is also necessary: two
//!   partitions reading from each other mid-request must answer each
//!   other's queries);
//! * absorbing **address replies** into the shared `object_map` and waking
//!   the executor through the doorbell;
//! * **applying inbound state-transfer chunks** while the executor is
//!   blocked waiting for the transfer to complete, charging the modeled
//!   deserialization cost for natively-stored objects (paper §V-E2).

use crate::cluster::ReplicaShared;
use crate::layout::{decode_chunk_header, decode_records, decode_rpc, encode_rpc, Rpc, CHUNK_HDR};
use crate::types::StorageKind;
use amcast::Timestamp;
use rdma_sim::Addr;
use std::sync::Arc;
use std::time::Duration;

/// A replica's service process.
pub(crate) struct Service {
    shared: Arc<ReplicaShared>,
}

impl Service {
    pub(crate) fn new(shared: Arc<ReplicaShared>) -> Self {
        Service { shared }
    }

    /// Runs the service loop forever.
    pub(crate) fn run(self) {
        let shared = &self.shared;
        loop {
            if !shared.node.is_alive() {
                shared
                    .svc_poller
                    .poll_until_timeout(|| shared.node.is_alive(), Duration::from_millis(1));
                continue;
            }
            while let Some(msg) = shared.node.try_recv() {
                self.handle_rpc(msg.from, &msg.payload);
            }
            self.apply_chunks();
            // Messages ring the inbox condition the poller is built on;
            // chunks land in the subscribed staging ring, and a requester
            // arming `transfer.expected` zeroes the ring's stamps next.
            shared.svc_poller.poll_until(|| {
                shared.node.pending_messages() > 0 || staged_chunk(shared).is_some()
            });
        }
    }

    fn handle_rpc(&self, from: rdma_sim::NodeId, payload: &[u8]) {
        let shared = &self.shared;
        match decode_rpc(payload) {
            Some(Rpc::AddrQuery { oid }) => {
                let slot = shared.store.slot(oid).map(|s| (s.addr, s.cap));
                let reply = encode_rpc(&Rpc::AddrReply { oid, slot });
                let target = shared.cluster.fabric.node(from);
                let _ = shared.node.connect(&target).send(reply);
            }
            Some(Rpc::AddrReply { oid, slot }) => {
                if let Some((addr, cap)) = slot {
                    shared.object_map.lock().insert((oid, from), (addr, cap));
                }
                shared.addr_heard.lock().entry(oid).or_default().push(from);
                shared.ring_doorbell();
            }
            None => {}
        }
    }

    /// Applies staged state-transfer chunks in stamp order, bumping the
    /// `applied` counter the responder uses for flow control.
    fn apply_chunks(&self) {
        let shared = &self.shared;
        let cfg = &shared.cluster.cfg;
        while let Some((expected, slot, nbytes, bound)) = staged_chunk(shared) {
            // The first chunk names the stream this transfer applies.
            shared.transfer.lock().stream_bound.get_or_insert(bound);
            let body = shared
                .node
                .local_read(slot.offset(CHUNK_HDR as u64), nbytes)
                .expect("chunk body in range");
            let mut native = 0u64;
            for (oid, raw) in decode_records(&body) {
                if shared.cluster.app.storage_kind(oid) == StorageKind::Native {
                    native += raw.len() as u64;
                }
                shared.store.apply_raw_slot(oid, raw);
                // Record the sync in our own update log so we can serve a
                // future lagger ourselves.
                if let Some((ts, _)) = shared.store.get(oid) {
                    if ts != Timestamp::ZERO {
                        shared.log.lock().push((ts.raw(), oid));
                    }
                }
            }
            // Deserialization cost for natively-stored objects.
            if native > 0 {
                sim::sleep_ns(native * cfg.deser_ns_per_kib / 1024);
            }
            {
                let mut prog = shared.transfer.lock();
                prog.bytes += nbytes as u64;
                prog.native_bytes += native;
                prog.expected += 1;
            }
            let _ = shared
                .node
                .local_write_word(shared.layout.applied, expected);
        }
    }
}

/// The next chunk of the armed transfer, if it is staged and of the stream
/// being applied: `(stamp, slot, nbytes, bound)`. Both the service's wait
/// and [`Service::apply_chunks`] ask this, so what the one counts as work
/// the other consumes.
///
/// Stream coherence: if two responders raced, only the stream the first
/// chunk came from is applied. A chunk of the other stream is left in its
/// slot until the owning responder rewrites it — it is not work, or the
/// service would spin on it in zero virtual time and the rewriter would
/// never be scheduled.
fn staged_chunk(shared: &ReplicaShared) -> Option<(u64, Addr, usize, u64)> {
    let (expected, stream_bound) = {
        let prog = shared.transfer.lock();
        (prog.expected, prog.stream_bound)
    };
    if expected == 0 {
        return None; // no transfer in progress
    }
    let slot = shared.layout.ring_slot(expected);
    let (stamp, nbytes, bound) = shared
        .node
        .with_mem(|m| m.bytes(slot, CHUNK_HDR).map(decode_chunk_header))
        .ok()?;
    (stamp == expected && stream_bound.is_none_or(|b| b == bound))
        .then_some((stamp, slot, nbytes, bound))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::encode_chunk_header;
    use crate::replica::tests::NoObjects;
    use crate::{HeronCluster, HeronConfig};
    use rdma_sim::{Fabric, LatencyModel};

    /// Two responders can race (the rotation fires while a slow one is
    /// mid-stream): a chunk of the stream we are not applying stays staged,
    /// unconsumed and uncounted, until the owning stream rewrites its slot.
    #[test]
    fn a_chunk_from_another_stream_is_neither_work_nor_applied() {
        let fabric = Fabric::new(LatencyModel::connectx4());
        let cluster = HeronCluster::build(&fabric, HeronConfig::new(1, 3), Arc::new(NoObjects));
        let shared = &cluster.replicas[0][0];
        let (expected, ours, theirs) = (3u64, 70u64, 90u64);
        {
            let mut prog = shared.transfer.lock();
            prog.expected = expected;
            prog.stream_bound = Some(ours);
        }
        let stage = |bound: u64| {
            let header = encode_chunk_header(expected, 0, bound);
            let slot = shared.layout.ring_slot(expected);
            shared.node.local_write(slot, &header).unwrap();
        };
        let service = Service::new(Arc::clone(shared));
        stage(theirs);
        assert!(staged_chunk(shared).is_none());
        service.apply_chunks();
        assert_eq!(shared.transfer.lock().expected, expected);
        stage(ours);
        assert!(staged_chunk(shared).is_some());
        service.apply_chunks();
        assert_eq!(shared.transfer.lock().expected, expected + 1);
        let applied = shared.node.local_read_word(shared.layout.applied);
        assert_eq!(applied, Ok(expected));
        assert!(staged_chunk(shared).is_none());
    }
}
