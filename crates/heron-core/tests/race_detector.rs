//! Sim-TSan integration: a clean Heron run (including multi-partition
//! remote reads and crash/recovery state transfer) must report **zero**
//! races or protocol lints, while a deliberately broken dual-versioning
//! guard must trip the victim lint deterministically.

use bytes::Bytes;
use heron_core::{
    Execution, HeronCluster, HeronConfig, LocalReader, ObjectId, PartitionId, Placement, ReadSet,
    StateMachine, StorageKind,
};
use rdma_sim::{Fabric, LatencyModel, RaceDetector, RaceKind};
use std::sync::Arc;
use std::time::Duration;

/// Counters spread round-robin over partitions. Each request names two
/// objects and a delta; both are incremented. When the objects live on
/// different partitions the request is multi-partition: in `AllInvolved`
/// mode each partition remote-reads the other's object, exercising the
/// dual-version slot audit.
struct Counters {
    partitions: u16,
    objects: u64,
}

fn enc(a: u64, b: u64, delta: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(24);
    v.extend_from_slice(&a.to_le_bytes());
    v.extend_from_slice(&b.to_le_bytes());
    v.extend_from_slice(&delta.to_le_bytes());
    v
}

fn arg(req: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(req[i * 8..(i + 1) * 8].try_into().unwrap())
}

impl Counters {
    fn partition_of(&self, oid: u64) -> PartitionId {
        PartitionId((oid % self.partitions as u64) as u16)
    }
}

impl StateMachine for Counters {
    fn placement(&self, oid: ObjectId) -> Placement {
        Placement::Partition(self.partition_of(oid.0))
    }

    fn storage_kind(&self, _oid: ObjectId) -> StorageKind {
        StorageKind::Serialized
    }

    fn destinations(&self, req: &[u8]) -> Vec<PartitionId> {
        let mut d = vec![
            self.partition_of(arg(req, 0)),
            self.partition_of(arg(req, 1)),
        ];
        d.sort_unstable();
        d.dedup();
        d
    }

    fn read_set(&self, req: &[u8]) -> Vec<ObjectId> {
        let mut s = vec![ObjectId(arg(req, 0)), ObjectId(arg(req, 1))];
        s.sort_unstable();
        s.dedup();
        s
    }

    fn execute(
        &self,
        partition: PartitionId,
        req: &[u8],
        reads: &ReadSet,
        _local: &dyn LocalReader,
    ) -> Execution {
        let delta = arg(req, 2);
        let mut writes = Vec::new();
        for oid in [arg(req, 0), arg(req, 1)] {
            if self.partition_of(oid) != partition {
                continue;
            }
            let cur = u64::from_le_bytes(
                reads.get(ObjectId(oid)).expect("read present")[..8]
                    .try_into()
                    .unwrap(),
            );
            let val = Bytes::copy_from_slice(&(cur + delta).to_le_bytes());
            // Same object twice: last write wins, value bumped once.
            writes.retain(|(o, _)| *o != ObjectId(oid));
            writes.push((ObjectId(oid), val));
        }
        Execution {
            writes,
            response: Bytes::from_static(&[1]),
            compute: Duration::from_micros(2),
        }
    }

    fn bootstrap(&self, partition: PartitionId) -> Vec<(ObjectId, Bytes)> {
        (0..self.objects)
            .filter(|o| self.partition_of(*o) == partition)
            .map(|o| (ObjectId(o), Bytes::copy_from_slice(&0u64.to_le_bytes())))
            .collect()
    }
}

/// A fabric with the race detector enabled, before anything is built on
/// it.
fn detected_fabric() -> (Fabric, RaceDetector) {
    let fabric = Fabric::new(LatencyModel::connectx4());
    let detector = fabric.enable_race_detector();
    (fabric, detector)
}

fn build_on(
    fabric: Fabric,
    seed: u64,
    cfg: HeronConfig,
    objects: u64,
) -> (sim::Simulation, Fabric, HeronCluster) {
    let simulation = sim::Simulation::new(seed);
    let machine = Arc::new(Counters {
        partitions: cfg.partitions as u16,
        objects,
    });
    let cluster = HeronCluster::build(&fabric, cfg, machine);
    cluster.spawn(&simulation);
    (simulation, fabric, cluster)
}

#[test]
fn clean_run_with_crash_recovery_reports_no_races() {
    let (fabric, det) = detected_fabric();
    let (simulation, fabric, cluster) = build_on(fabric, 31, HeronConfig::new(2, 3), 6);
    let mut client = cluster.client("c");
    let victim = cluster.replica_node(PartitionId(0), 2).id();
    simulation.spawn("client", move || {
        // Multi-partition traffic: object i and i+1 always straddle the
        // two partitions, so every request remote-reads a slot.
        for i in 0..15u64 {
            client.execute(&enc(i % 6, (i + 1) % 6, 1));
        }
        // Crash one replica, keep going far enough to overwrite its log,
        // then recover it so it runs the state-transfer protocol under
        // the detector (staging ring, applied watermark, the driver's
        // installs).
        fabric.crash(victim);
        for i in 0..30u64 {
            client.execute(&enc(i % 6, (i + 1) % 6, 1));
        }
        fabric.recover(victim);
        for i in 0..30u64 {
            client.execute(&enc(i % 6, (i + 1) % 6, 1));
        }
        sim::sleep(Duration::from_millis(50));
        sim::stop();
    });
    simulation.run().unwrap();
    let reports = det.reports();
    assert!(
        reports.is_empty(),
        "clean run produced {} race report(s); first:\n{}",
        reports.len(),
        reports[0]
    );
    let stats = det.stats();
    assert!(
        stats.remote_reads_checked > 0,
        "no remote reads were checked — the detector saw no traffic"
    );
}

#[test]
fn detector_is_off_by_default() {
    let fabric = Fabric::new(LatencyModel::connectx4());
    let (simulation, fabric, cluster) = build_on(fabric, 32, HeronConfig::new(2, 3), 4);
    let mut client = cluster.client("c");
    simulation.spawn("client", move || {
        client.execute(&enc(0, 1, 1));
        sim::stop();
    });
    simulation.run().unwrap();
    assert!(fabric.race_detector().is_none());
}

#[test]
fn broken_dual_version_guard_trips_victim_lint_deterministically() {
    // Each entry pins the report down to the exact virtual times of both
    // access sites — the same seed must reproduce the race to the
    // nanosecond.
    fn run_once(seed: u64) -> Vec<String> {
        let (fabric, det) = detected_fabric();
        fabric.sabotage(heron_core::SABOTAGE_DUAL_VERSION_GUARD);
        let (simulation, _f, cluster) = build_on(fabric, seed, HeronConfig::new(1, 3), 2);
        let mut client = cluster.client("c");
        simulation.spawn("client", move || {
            // Bootstrap leaves both versions at ts 0, so the first write
            // per object is indistinguishable from a correct one; the
            // second write to the same object must overwrite the ACTIVE
            // version under the broken guard and trip the lint.
            for _ in 0..3u64 {
                client.execute(&enc(0, 0, 1));
            }
            sim::stop();
        });
        simulation.run().unwrap();
        let reports = det.reports();
        assert!(
            !reports.is_empty(),
            "broken guard produced no reports — the selftest lint is dead"
        );
        assert!(
            reports.iter().all(|r| r.kind == RaceKind::ProtocolLint
                && r.detail.contains("dual-version victim guard violated")),
            "unexpected report kind: {}",
            reports[0]
        );
        reports
            .into_iter()
            .map(|r| {
                format!(
                    "{} {} {:?} {} {} {}",
                    r.node_name, r.region, r.range, r.first.time_ns, r.second.time_ns, r.detail
                )
            })
            .collect()
    }
    assert_eq!(run_once(33), run_once(33), "reports must be deterministic");
}
