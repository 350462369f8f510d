//! A two-partition KV application used by the state-transfer benchmarks:
//! partition-0 objects with a configurable storage kind, plus a
//! multi-partition "touch" request that turns a recovered replica into a
//! lagger (its Phase-2 coordination writes were lost while it was down).

use bytes::Bytes;
use heron_core::{
    Execution, HeronCluster, HeronConfig, LocalReader, ObjectId, PartitionId, Placement, ReadSet,
    StateMachine, StorageKind,
};
use rdma_sim::{Fabric, LatencyModel};
use std::sync::Arc;
use std::time::Duration;

/// Object-id bit marking partition-1 objects.
pub const P1_BIT: u64 = 1 << 40;
const OP_WRITE: u8 = 1;
const OP_TOUCH: u8 = 3;

/// Encodes a write of `len` bytes to object `oid`.
pub fn enc_write(oid: u64, len: u32) -> Vec<u8> {
    let mut v = vec![OP_WRITE];
    v.extend_from_slice(&oid.to_le_bytes());
    v.extend_from_slice(&len.to_le_bytes());
    v
}

/// Encodes a two-partition read-only request reading `remote_oid`.
pub fn enc_touch(remote_oid: u64) -> Vec<u8> {
    let mut v = vec![OP_TOUCH];
    v.extend_from_slice(&remote_oid.to_le_bytes());
    v
}

/// The application; see the module docs.
pub struct SyncApp {
    /// Storage kind of partition-0 objects (drives transfer cost).
    pub kind: StorageKind,
}

impl StateMachine for SyncApp {
    fn placement(&self, oid: ObjectId) -> Placement {
        Placement::Partition(PartitionId(u16::from(oid.0 & P1_BIT != 0)))
    }

    fn storage_kind(&self, oid: ObjectId) -> StorageKind {
        if oid.0 & P1_BIT != 0 {
            StorageKind::Serialized
        } else {
            self.kind
        }
    }

    fn destinations(&self, req: &[u8]) -> Vec<PartitionId> {
        match req[0] {
            OP_TOUCH => vec![PartitionId(0), PartitionId(1)],
            _ => {
                let oid = u64::from_le_bytes(req[1..9].try_into().expect("oid"));
                vec![PartitionId(u16::from(oid & P1_BIT != 0))]
            }
        }
    }

    fn read_set(&self, req: &[u8]) -> Vec<ObjectId> {
        match req[0] {
            OP_TOUCH => vec![ObjectId(u64::from_le_bytes(
                req[1..9].try_into().expect("oid"),
            ))],
            _ => vec![],
        }
    }

    fn conflict_keys(&self, req: &[u8]) -> Vec<u64> {
        // Every request names exactly one object; requests on distinct
        // objects commute.
        vec![u64::from_le_bytes(req[1..9].try_into().expect("oid"))]
    }

    fn execute(
        &self,
        partition: PartitionId,
        req: &[u8],
        _reads: &ReadSet,
        _local: &dyn LocalReader,
    ) -> Execution {
        match req[0] {
            OP_WRITE => {
                let oid = u64::from_le_bytes(req[1..9].try_into().expect("oid"));
                let len = u32::from_le_bytes(req[9..13].try_into().expect("len")) as usize;
                let mine = self.placement(ObjectId(oid)) == Placement::Partition(partition);
                Execution {
                    writes: if mine {
                        vec![(ObjectId(oid), Bytes::from(vec![0xAB; len]))]
                    } else {
                        vec![]
                    },
                    response: Bytes::from_static(b"ok"),
                    compute: Duration::from_nanos(500),
                }
            }
            _ => Execution {
                writes: vec![],
                response: Bytes::from_static(b"ok"),
                compute: Duration::from_nanos(500),
            },
        }
    }

    fn bootstrap(&self, partition: PartitionId) -> Vec<(ObjectId, Bytes)> {
        if partition == PartitionId(1) {
            vec![(ObjectId(P1_BIT), Bytes::from_static(b"x"))]
        } else {
            vec![]
        }
    }
}

/// Runs one controlled state-transfer scenario with the given Heron config
/// customizer; returns `(payload bytes moved, requester-observed
/// duration)`.
pub fn run_transfer(
    kind: StorageKind,
    objects: u32,
    value_len: u32,
    customize: impl FnOnce(&mut HeronConfig),
) -> (u64, Duration) {
    let simulation = sim::Simulation::new(5);
    let fabric = Fabric::new(LatencyModel::connectx4());
    let app = Arc::new(SyncApp { kind });
    let mut cfg = HeronConfig::new(2, 3);
    customize(&mut cfg);
    let cluster = HeronCluster::build(&fabric, cfg, app);
    cluster.spawn(&simulation);
    let c2 = cluster.clone();
    let metrics = cluster.metrics();
    let metrics2 = metrics.clone();
    let mut client = cluster.client("driver");
    simulation.spawn("driver", move || {
        // Crash one replica of partition 0. The first thing it sees on
        // recovery is a multi-partition request whose Phase-2 coordination
        // writes it missed — that starves its barrier and sends it into
        // the state-transfer protocol. Everything written afterwards is
        // covered by the transferred snapshot rather than re-executed, so
        // the transfer ships exactly the data written below.
        c2.crash_replica(PartitionId(0), 2);
        client.execute(&enc_touch(P1_BIT));
        for k in 0..objects {
            client.execute(&enc_write(u64::from(k) + 1, value_len));
        }
        c2.recover_replica(PartitionId(0), 2);
        let deadline = sim::now() + Duration::from_secs(30);
        while metrics2.transfers.lock().is_empty() && sim::now() < deadline {
            sim::sleep(Duration::from_millis(1));
        }
        sim::stop();
    });
    simulation.run().expect("scenario completes");
    let transfers = metrics.transfers.lock();
    let t = transfers.first().expect("a state transfer happened");
    (t.bytes, Duration::from_nanos(t.duration_ns))
}
