//! The replica service process.
//!
//! Colocated with the executor, this process plays the role a real Heron
//! replica handles off the critical path:
//!
//! * answering **object-address queries** (Algorithm 2, lines 8–13) —
//!   read-only lookups, so they are safe to serve even while the executor
//!   is blocked in a coordination phase (which is also necessary: two
//!   partitions reading from each other mid-request must answer each
//!   other's queries);
//! * absorbing **address replies** into the shared `object_map` and waking
//!   the executor through the doorbell.
//!
//! Inbound state-transfer chunks are not its business: the delivery driver
//! that requested a transfer applies them itself
//! ([`crate::replica::state_transfer_abortable`]).

use crate::cluster::ReplicaShared;
use crate::layout::{decode_rpc, encode_rpc, Rpc};
use std::rc::Rc;
use std::time::Duration;

/// A replica's service process.
pub(crate) struct Service {
    shared: Rc<ReplicaShared>,
}

impl Service {
    pub(crate) fn new(shared: Rc<ReplicaShared>) -> Self {
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
            // Messages ring the inbox condition the poller is built on.
            shared
                .svc_poller
                .poll_until(|| shared.node.pending_messages() > 0);
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
}
