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
use crate::layout::{decode_records, decode_rpc, encode_rpc, Rpc, CHUNK_HDR};
use crate::types::StorageKind;
use amcast::Timestamp;
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
            shared
                .svc_poller
                .poll_until(|| shared.node.pending_messages() > 0 || chunk_ready(shared));
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
        loop {
            let expected = shared.transfer.lock().expected;
            if expected == 0 {
                return; // no transfer in progress
            }
            let slot = shared
                .layout
                .ring_slot(expected, cfg.transfer_slots, cfg.transfer_chunk);
            let stamp = shared.node.local_read_word(slot).unwrap_or(0);
            if stamp != expected {
                return;
            }
            // Stream coherence: if two responders raced, apply only the
            // stream the first chunk came from; a chunk from the other
            // stream is left in place until the right responder rewrites
            // the slot.
            let bound = shared.node.local_read_word(slot.offset(16)).unwrap_or(0);
            {
                let mut prog = shared.transfer.lock();
                match prog.stream_bound {
                    None => prog.stream_bound = Some(bound),
                    Some(b) if b != bound => return,
                    _ => {}
                }
            }
            let nbytes = shared.node.local_read_word(slot.offset(8)).unwrap_or(0) as usize;
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
                if let Some(s) = shared.store.slot(oid) {
                    let (ts, _) = shared.store.read_slot(s).latest();
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

/// Whether the next expected transfer chunk is staged.
fn chunk_ready(shared: &ReplicaShared) -> bool {
    let cfg = &shared.cluster.cfg;
    let (expected, stream_bound) = {
        let prog = shared.transfer.lock();
        (prog.expected, prog.stream_bound)
    };
    if expected == 0 {
        return false;
    }
    let slot = shared
        .layout
        .ring_slot(expected, cfg.transfer_slots, cfg.transfer_chunk);
    // Mirrors `apply_chunks`' stream-coherence gate exactly: a racing
    // responder's chunk is left in the slot unconsumed until the owning
    // stream rewrites it, so counting it as work here would make the
    // service loop spin in zero virtual time without ever blocking (the
    // PR 8 `has_work` bug class — the rewriter never gets scheduled).
    shared.node.with_mem(|m| {
        m.word(slot).unwrap_or(0) == expected
            && stream_bound.is_none_or(|b| m.word(slot.offset(16)).unwrap_or(0) == b)
    })
}
