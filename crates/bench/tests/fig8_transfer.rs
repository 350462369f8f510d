//! Regression tests pinning fig8's lagger path: Algorithm-3 state transfer
//! ships exactly the objects overwritten since the lagger's last completed
//! request — never a full-store copy — and the wire cost per object is the
//! record header plus the dual-version slot image, at every `StorageKind`.

use heron_bench::syncapp::{enc_touch, enc_write, SyncApp, P1_BIT};
use heron_core::{HeronCluster, HeronConfig, PartitionId, StorageKind, TransferRecord};
use rdma_sim::{Fabric, LatencyModel};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Bytes one object contributes to a transfer stream: the 16-byte record
/// header (oid + length) plus the raw dual-version slot — two versions of
/// 16-byte header + capacity each, where capacity is the value length
/// rounded up to 8 bytes.
fn per_object_bytes(value_len: usize) -> u64 {
    let cap = value_len.div_ceil(8) * 8;
    (16 + 2 * (16 + cap)) as u64
}

/// The simple lagger scenario of `fig8_state_transfer` itself: the replica
/// crashes before anything is written, so the transfer ships every object.
#[test]
fn fig8_harness_transfer_bytes_are_exact_per_kind() {
    for kind in [StorageKind::Serialized, StorageKind::Native] {
        let (objects, value_len) = (20u32, 128u32);
        let (bytes, _dur) = heron_bench::syncapp::run_transfer(kind, objects, value_len, |_| {});
        assert_eq!(
            bytes,
            u64::from(objects) * per_object_bytes(value_len as usize),
            "transfer cost must be exactly the overwritten slots ({kind:?})"
        );
    }
}

const BACKGROUND: u64 = 30;
const FRESH: u64 = 7;
const VALUE_LEN: u32 = 48;

/// The one state transfer of a lagger that missed [`FRESH`] writes on top
/// of a [`BACKGROUND`]-object store. With `durable`, both live replicas of
/// its partition checkpoint while it is down, so their checkpoint bounds
/// pass the lagger's position before it asks.
fn lagger_transfer(kind: StorageKind, durable: bool) -> TransferRecord {
    let simulation = sim::Simulation::new(8);
    let fabric = Fabric::new(LatencyModel::connectx4());
    let mut cfg = HeronConfig::new(2, 3);
    if durable {
        cfg = cfg.with_durability(
            sim::storage::Storage::new(sim::storage::DiskConfig::nvme()),
            Duration::from_secs(3600), // only the forced checkpoints run
        );
    }
    let cluster = HeronCluster::build(&fabric, cfg, Arc::new(SyncApp { kind }));
    cluster.spawn(&simulation);
    let c2 = cluster.clone();
    let metrics = cluster.metrics();
    let metrics2 = metrics.clone();
    let mut client = cluster.client("driver");
    simulation.spawn("driver", move || {
        // Phase 1: populate the store while every replica is up; these
        // writes complete everywhere, so no transfer may ever re-ship
        // them.
        for k in 0..BACKGROUND {
            client.execute(&enc_write(1000 + k, VALUE_LEN));
        }
        // Phase 2: crash one partition-0 replica; the multi-partition
        // touch it misses turns it into a lagger on recovery, and the
        // fresh writes below are exactly what its transfer must cover.
        c2.crash_replica(PartitionId(0), 2);
        client.execute(&enc_touch(P1_BIT));
        for k in 0..FRESH {
            client.execute(&enc_write(1 + k, VALUE_LEN));
        }
        if durable {
            for i in 0..2 {
                c2.checkpoint_replica(PartitionId(0), i)
                    .expect("quiescent replica checkpoints");
            }
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
    assert_eq!(transfers.len(), 1, "exactly one transfer ({kind:?})");
    transfers[0]
}

/// Asserts that `t` shipped the [`FRESH`] objects and nothing else.
fn assert_ships_only_fresh(t: TransferRecord, kind: StorageKind) {
    assert_eq!(
        t.bytes,
        FRESH * per_object_bytes(VALUE_LEN as usize),
        "only the {FRESH} objects overwritten while down may ship, \
         not the {BACKGROUND}-object store ({kind:?})"
    );
    // Byte-for-byte accounting of the serialization path: natively
    // stored objects are counted (they pay ser/deser time), serialized
    // ones ship as-is.
    let slot_bytes = FRESH * (per_object_bytes(VALUE_LEN as usize) - 16);
    match kind {
        StorageKind::Native => assert_eq!(t.native_bytes, slot_bytes),
        StorageKind::Serialized => assert_eq!(t.native_bytes, 0),
    }
}

/// The sharper claim: with a large pre-existing store, only the objects
/// overwritten while the lagger was down are moved. Background objects
/// written while everyone was up never re-ship.
#[test]
fn transfer_ships_only_objects_overwritten_while_down() {
    for kind in [StorageKind::Serialized, StorageKind::Native] {
        assert_ships_only_fresh(lagger_transfer(kind, false), kind);
    }
}

/// The same with durability, when the responders' checkpoints have passed
/// the lagger's position: the responder picks what changed from the
/// store's version stamps, so a checkpoint behind it does not turn the
/// transfer into a full-store copy.
#[test]
fn transfer_below_a_checkpoint_ships_only_overwritten_objects() {
    for kind in [StorageKind::Serialized, StorageKind::Native] {
        assert_ships_only_fresh(lagger_transfer(kind, true), kind);
    }
}

/// The durable extension of the lagger path: with a checkpoint on disk,
/// a power-lost replica recovers from **checkpoint + WAL tail** — it
/// reads exactly the checkpoint file back from storage and replays the
/// ordered tail, and no live state transfer ships the full store. This
/// pins the fig8 story under durability: recovery cost is the checkpoint
/// image plus the log suffix, never the live working set.
#[test]
fn power_loss_recovers_from_checkpoint_not_live_transfer() {
    const BACKGROUND: u64 = 24;
    const FRESH: u64 = 5;
    const VALUE_LEN: u32 = 64;
    let simulation = sim::Simulation::new(21);
    let fabric = Fabric::new(LatencyModel::connectx4());
    let cfg = HeronConfig::new(2, 3).with_durability(
        sim::storage::Storage::new(sim::storage::DiskConfig::nvme()),
        Duration::from_secs(3600), // only the forced checkpoint below runs
    );
    let cluster = HeronCluster::build(
        &fabric,
        cfg,
        Arc::new(SyncApp {
            kind: StorageKind::Serialized,
        }),
    );
    cluster.spawn(&simulation);
    let c2 = cluster.clone();
    let metrics = cluster.metrics();
    let metrics2 = metrics.clone();
    let mut client = cluster.client("driver");
    let observed = Arc::new(std::sync::Mutex::new(None));
    let observed2 = observed.clone();
    simulation.spawn("driver", move || {
        let p = PartitionId(0);
        // Phase 1: populate, then checkpoint replica 2 — its durable
        // image now covers everything so far.
        for k in 0..BACKGROUND {
            client.execute(&enc_write(1000 + k, VALUE_LEN));
        }
        sim::sleep(Duration::from_millis(1));
        let meta = c2
            .checkpoint_replica(p, 2)
            .expect("quiescent replica checkpoints");
        // Phase 2: a fresh tail lands after the checkpoint; replica 2
        // then loses power and recovers.
        for k in 0..FRESH {
            client.execute(&enc_write(1 + k, VALUE_LEN));
        }
        let before = c2.disk_stats(p, 2).expect("durable replica has a disk");
        c2.power_loss_replica(p, 2);
        sim::sleep(Duration::from_millis(2));
        c2.recover_replica(p, 2);
        // Wait for the cold restart itself (`last_req` lives outside the
        // wiped memory, so it alone cannot witness recovery), then for the
        // replica to catch back up to the lead.
        let target = c2.last_req(p, 0);
        let deadline = sim::now() + Duration::from_secs(20);
        while (metrics2.cold_restarts.load(Ordering::Relaxed) < 1 || c2.last_req(p, 2) < target)
            && sim::now() < deadline
        {
            sim::sleep(Duration::from_millis(1));
        }
        // Capture *in-sim*, before any host-side diagnostics touch the
        // disk and skew the byte counters.
        let after = c2.disk_stats(p, 2).expect("durable replica has a disk");
        *observed2.lock().unwrap() = Some((
            meta,
            after.bytes_read - before.bytes_read,
            metrics2.transfers.lock().len(),
            c2.last_req(p, 2) >= target,
        ));
        sim::stop();
    });
    simulation.run().expect("scenario completes");
    let (meta, read_delta, live_transfers, caught_up) = observed
        .lock()
        .unwrap()
        .take()
        .expect("driver observed recovery");
    assert!(caught_up, "replica 2 must catch up from its checkpoint");
    // Recovery read exactly the checkpoint file: 32-byte header + image.
    assert_eq!(
        read_delta,
        32 + meta.image_bytes as u64,
        "cold restart must read exactly the checkpoint file"
    );
    assert_eq!(
        live_transfers, 0,
        "checkpoint + WAL tail recovery must not fall back to a live \
         full-state transfer"
    );
}
