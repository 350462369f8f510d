//! Quickstart: a replicated key-value store on two Heron partitions.
//!
//! Demonstrates the full stack — deterministic simulation, RDMA fabric,
//! atomic multicast ordering, and Heron's coordinated execution — with a
//! minimal application: string keys hashed across two partitions, `PUT`
//! and `GET` requests, plus a multi-partition `SWAP` that exercises the
//! Phase 2/4 coordination and one-sided remote reads.
//!
//! Run with: `cargo run --release --example quickstart`

use bytes::Bytes;
use heron::core::{
    Execution, HeronCluster, HeronConfig, LocalReader, ObjectId, PartitionId, Placement, ReadSet,
    StateMachine,
};
use heron::rdma::{Fabric, LatencyModel};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Duration;

const PARTITIONS: u16 = 2;
const KEYS: &[&str] = &["apple", "banana", "cherry", "dates"];

fn key_oid(key: &str) -> ObjectId {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    ObjectId(h.finish() >> 1)
}

fn key_partition(key: &str) -> PartitionId {
    PartitionId((key_oid(key).0 % PARTITIONS as u64) as u16)
}

/// Requests: `P <key> <value>`, `G <key>`, `S <key1> <key2>` (swap).
struct Kv;

fn fields(req: &[u8]) -> Vec<String> {
    String::from_utf8_lossy(req)
        .split_whitespace()
        .map(str::to_string)
        .collect()
}

impl StateMachine for Kv {
    fn placement(&self, oid: ObjectId) -> Placement {
        Placement::Partition(PartitionId((oid.0 % PARTITIONS as u64) as u16))
    }

    fn destinations(&self, req: &[u8]) -> Vec<PartitionId> {
        let f = fields(req);
        let mut d: Vec<PartitionId> = match f[0].as_str() {
            "S" => vec![key_partition(&f[1]), key_partition(&f[2])],
            _ => vec![key_partition(&f[1])],
        };
        d.sort_unstable();
        d.dedup();
        d
    }

    fn read_set(&self, req: &[u8]) -> Vec<ObjectId> {
        let f = fields(req);
        match f[0].as_str() {
            "S" => vec![key_oid(&f[1]), key_oid(&f[2])],
            "G" => vec![key_oid(&f[1])],
            _ => vec![],
        }
    }

    fn execute(
        &self,
        partition: PartitionId,
        req: &[u8],
        reads: &ReadSet,
        _local: &dyn LocalReader,
    ) -> Execution {
        let f = fields(req);
        let compute = Duration::from_micros(1);
        match f[0].as_str() {
            "P" => {
                let oid = key_oid(&f[1]);
                let mine = self.placement(oid) == Placement::Partition(partition);
                Execution {
                    writes: if mine {
                        vec![(oid, Bytes::from(f[2].clone().into_bytes()))]
                    } else {
                        vec![]
                    },
                    response: Bytes::from_static(b"ok"),
                    compute,
                }
            }
            "G" => Execution {
                writes: vec![],
                response: reads.get(key_oid(&f[1])).cloned().unwrap_or_default(),
                compute,
            },
            "S" => {
                // Swap the two values: each partition writes its own key
                // with the other's value — a true multi-partition request.
                let (a, b) = (key_oid(&f[1]), key_oid(&f[2]));
                let (va, vb) = (
                    reads.get(a).cloned().unwrap_or_default(),
                    reads.get(b).cloned().unwrap_or_default(),
                );
                let mut writes = Vec::new();
                if self.placement(a) == Placement::Partition(partition) {
                    writes.push((a, vb.clone()));
                }
                if self.placement(b) == Placement::Partition(partition) {
                    writes.push((b, va.clone()));
                }
                Execution {
                    writes,
                    response: Bytes::from_static(b"swapped"),
                    compute,
                }
            }
            _ => Execution::default(),
        }
    }

    fn bootstrap(&self, partition: PartitionId) -> Vec<(ObjectId, Bytes)> {
        KEYS.iter()
            .filter(|k| key_partition(k) == partition)
            .map(|k| (key_oid(k), Bytes::from_static(b"-")))
            .collect()
    }
}

fn main() {
    let simulation = sim::Simulation::new(2024);
    let fabric = Fabric::new(LatencyModel::connectx4());
    let cluster = HeronCluster::build(
        &fabric,
        HeronConfig::new(PARTITIONS as usize, 3),
        Arc::new(Kv),
    );
    cluster.spawn(&simulation);

    let mut client = cluster.client("quickstart");
    let metrics = cluster.metrics();
    simulation.spawn("client", move || {
        let exec = |c: &mut heron::core::HeronClient, s: &str| {
            let t0 = sim::now();
            let resp = c.execute(s.as_bytes());
            println!(
                "[{:>9}] {:24} -> {:<10} latency {:?}",
                sim::now().to_string(),
                s,
                String::from_utf8_lossy(&resp),
                sim::now() - t0,
            );
            resp
        };
        // Pick two keys on different partitions so the swap is a genuine
        // multi-partition request.
        let a = *KEYS.first().expect("keys");
        let b = *KEYS
            .iter()
            .find(|k| key_partition(k) != key_partition(a))
            .expect("a key on the other partition");
        println!(
            "swapping across partitions: {a} ({}) <-> {b} ({})",
            key_partition(a),
            key_partition(b)
        );
        exec(&mut client, &format!("P {a} red"));
        exec(&mut client, &format!("P {b} yellow"));
        let r = exec(&mut client, &format!("G {a}"));
        assert_eq!(&r[..], b"red");
        exec(&mut client, &format!("S {a} {b}"));
        let r = exec(&mut client, &format!("G {a}"));
        assert_eq!(&r[..], b"yellow", "swap must be atomic and visible");
        let r = exec(&mut client, &format!("G {b}"));
        assert_eq!(&r[..], b"red");
        sim::stop();
    });
    simulation.run().expect("simulation completes");
    let completed = metrics.latencies.lock().len();
    println!(
        "\ncompleted {completed} requests, mean latency {:?}",
        metrics.mean_latency(),
    );
}
