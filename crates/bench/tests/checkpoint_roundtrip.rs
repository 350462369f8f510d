//! Checkpoint round-trip property tests (DESIGN.md §14).
//!
//! The durable-checkpoint subsystem rests on one algebraic contract:
//! `install(snapshot(s))` reproduces the store bit for bit, at *any*
//! commit prefix — mid-run, post-run, inline lane or width-4 pool.
//! These tests probe the contract while a live workload mutates the
//! store, then close with the cold-restart scenario the contract exists
//! for: a power-lost replica rebuilding from checkpoint + WAL tail under
//! the linearizability checker.

use heron_bench::chaos::{self, Bank, BankSpec, Clause, RunResult, Scenario};
use heron_core::checker::Checker;
use heron_core::{checkpoint, HeronCluster, HeronConfig, PartitionId, VersionedStore};
use rdma_sim::{Fabric, LatencyModel};
use sim::storage::DiskConfig;
use sim::trace::EventKind;
use sim::SimTime;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One fault-free durable bank run at the given width, with an in-sim
/// prober that snapshots a replica every `probe_us` and round-trips the
/// image through a fresh store. Returns the per-replica (digest, image)
/// pairs at quiescence and the number of mid-run probes taken.
fn probed_run(seed: u64, width: usize, probe_us: u64) -> (Vec<(u64, Vec<u8>)>, u64) {
    const ACCOUNTS: u64 = 6;
    const REQUESTS: u64 = 30;
    let simulation = sim::Simulation::new(seed);
    let fabric = Fabric::new(LatencyModel::connectx4());
    let cfg = HeronConfig::new(1, 3)
        .with_executor_width(width)
        .with_durability(
            sim::storage::Storage::new(sim::storage::DiskConfig::nvme()),
            Duration::from_micros(400),
        );
    let cluster = HeronCluster::build(&fabric, cfg, Arc::new(Bank::new(1, ACCOUNTS)));
    cluster.spawn(&simulation);

    let stop = Arc::new(AtomicBool::new(false));
    let probes = Arc::new(AtomicU64::new(0));
    let (c2, stop2, probes2) = (cluster.clone(), stop.clone(), probes.clone());
    simulation.spawn("ckpt-prober", move || {
        // A scratch store to install probe images into. Its node lives on
        // a private fabric so the probe cannot perturb the cluster.
        let scratch_fab = Fabric::new(LatencyModel::zero());
        let scratch = VersionedStore::new(scratch_fab.add_node("scratch"));
        while !stop2.load(Ordering::SeqCst) {
            sim::sleep(Duration::from_micros(probe_us));
            let p = PartitionId(0);
            // Code between yields is atomic in virtual time: image and
            // digest observe the same store state even mid-command.
            let image = c2.snapshot_image(p, 1);
            let digest = c2.state_digest(p, 1);
            checkpoint::install_state(&image, &scratch);
            assert_eq!(
                checkpoint::state_digest(&scratch),
                digest,
                "snapshot→install round trip diverged mid-run (width {width})"
            );
            probes2.fetch_add(1, Ordering::SeqCst);
        }
    });

    let mut client = cluster.client("rt");
    let stop3 = stop.clone();
    simulation.spawn("rt-client", move || {
        for i in 0..REQUESTS {
            let from = (seed + i * 7) % ACCOUNTS;
            let to = (from + 1 + i % (ACCOUNTS - 1)) % ACCOUNTS;
            if from == to {
                client.execute(&chaos::enc_read(from));
            } else {
                client.execute(&chaos::enc_transfer(from, to, 1 + i % 9));
            }
        }
        // Let in-flight deliveries and the checkpointer settle before the
        // final cross-replica comparison.
        sim::sleep(Duration::from_millis(5));
        stop3.store(true, Ordering::SeqCst);
        sim::stop();
    });
    simulation
        .run_until(SimTime::from_secs(30))
        .expect("fault-free run completes");

    let out = (0..3)
        .map(|i| {
            let p = PartitionId(0);
            (cluster.state_digest(p, i), cluster.snapshot_image(p, i))
        })
        .collect();
    (out, probes.load(Ordering::SeqCst))
}

/// `install(snapshot(s))` is bit-exact at every probed commit prefix,
/// and at quiescence all replicas serialize the identical image — for
/// the width-1 inline lane and a width-4 pool.
#[test]
fn snapshot_install_round_trips_at_any_prefix() {
    for width in [1usize, 4] {
        for seed in [11u64, 23] {
            let (replicas, probes) = probed_run(seed, width, 150);
            assert!(
                probes >= 3,
                "prober must catch several mid-run prefixes (got {probes})"
            );
            let (d0, i0) = &replicas[0];
            for (i, (d, img)) in replicas.iter().enumerate() {
                assert_eq!(d, d0, "digest of replica {i} diverged (width {width})");
                assert_eq!(
                    img, i0,
                    "image of replica {i} not bit-identical (width {width})"
                );
            }
        }
    }
}

/// The contract the checker enforces end to end: a single replica losing
/// power mid-run (width 1) recovers from checkpoint + WAL tail
/// and the full history stays linearizable with byte-identical stores.
#[test]
fn single_replica_power_loss_recovers_width1() {
    for seed in [5u64, 17] {
        let sc = Scenario {
            seed,
            partitions: 1,
            replicas: 3,
            accounts: 6,
            clients: 2,
            requests: 25,
            clauses: vec![Clause::PowerLoss {
                p: 0,
                r: 2,
                at_us: 600,
                recover_us: 1400,
            }],
            width: 1,
            corrupt: None,
            durability_us: Some(350),
        };
        match chaos::run(&sc).0 {
            RunResult::Pass { .. } => {}
            other => panic!("seed {seed}: {other:?}"),
        }
    }
}

/// Quick recovery-ladder seed 9008 cuts replica 2's power 2 µs into the
/// write and fsync that follow its checkpointer's `disk.put`. The cut
/// kills the round there: the new checkpoint stays and the replica's one
/// cold restart restores from it, the round truncates no WAL, and the
/// booted replica ends equal to its peers.
#[test]
fn recovery_seed_9008_cuts_inside_a_checkpoint_flush() {
    let sc = chaos::recovery_scenario_for_seed(9008, true);
    let Clause::PowerLoss { r: 2, at_us, .. } = sc.clauses[2] else {
        panic!("{:?}", sc.clauses);
    };
    let simulation = sim::Simulation::new(sc.seed);
    let tracer = simulation.enable_tracing();
    let fabric = Fabric::new(LatencyModel::connectx4());
    let cluster = HeronCluster::build(&fabric, sc.config(), Arc::new(Bank::new(1, sc.accounts)));
    let result = chaos::run_cluster(&sc, &simulation, &fabric, &cluster);
    assert!(matches!(result, RunResult::Pass { .. }), "{result:?}");
    // Span begins and instants on replica 2's processes, named by track.
    let names = tracer.track_names();
    let on = |track: u32| names.get(track as usize).map_or("", String::as_str);
    let events = tracer.events().into_iter();
    let events: Vec<_> = (events.filter(|e| e.kind != EventKind::End))
        .map(|e| (e.name, on(e.track), e.track, e.t_ns, e.corr))
        .collect();
    let &(.., track, put_ns, bound) = (events.iter())
        .find(|e| e.0 == "ckpt.round" && e.1 == "heron-ckpt-p0r2")
        .expect("replica 2 checkpoints");
    assert!((put_ns..put_ns + DiskConfig::nvme().fsync_ns).contains(&(at_us * 1_000)));
    assert!(!events
        .iter()
        .any(|e| e.0 == "ckpt.truncate" && e.2 == track));
    let restarts = events
        .iter()
        .filter(|e| e.0 == "recover.cold" && e.1 == "heron-exec-p0r2");
    assert_eq!(restarts.map(|e| e.4).collect::<Vec<_>>(), [bound]);
    let p = PartitionId(0);
    let state = |i| (cluster.state_digest(p, i), cluster.completed_req(p, i));
    assert!(state(2) == state(0) && state(2) == state(1));
}

/// Fault-free width-4 durable run: the checkpointer quiesces the pool
/// correctly (no torn snapshot) and the checker stays green.
#[test]
fn durable_width4_fault_free_passes_checker() {
    let sc = Scenario {
        seed: 31,
        partitions: 1,
        replicas: 3,
        accounts: 8,
        clients: 3,
        requests: 20,
        clauses: vec![],
        width: 4,
        corrupt: None,
        durability_us: Some(300),
    };
    match chaos::run(&sc).0 {
        RunResult::Pass { .. } => {}
        other => panic!("{other:?}"),
    }
}

/// Direct checker pass over a probed run's cluster is intentionally not
/// repeated here: `chaos::run` owns that path. This test instead pins
/// the forced in-sim checkpoint API: a checkpoint taken on demand
/// reports the executor's completed bound and its image installs
/// bit-exactly.
#[test]
fn forced_checkpoint_reports_completed_bound() {
    let simulation = sim::Simulation::new(7);
    let fabric = Fabric::new(LatencyModel::connectx4());
    let cfg = HeronConfig::new(1, 3).with_durability(
        sim::storage::Storage::new(sim::storage::DiskConfig::nvme()),
        Duration::from_secs(3600), // periodic checkpointer never fires
    );
    let cluster = HeronCluster::build(&fabric, cfg, Arc::new(Bank::new(1, 4)));
    cluster.spawn(&simulation);
    let checker = Checker::new(7);
    let mut client = checker.client(&cluster, "fc");
    let c2 = cluster.clone();
    simulation.spawn("fc-driver", move || {
        for i in 0..10u64 {
            client.execute(&chaos::enc_transfer(i % 4, (i + 1) % 4, 1));
        }
        sim::sleep(Duration::from_millis(1));
        let meta = c2
            .checkpoint_replica(PartitionId(0), 0)
            .expect("quiescent replica must checkpoint");
        assert_eq!(
            meta.bound,
            c2.last_req(PartitionId(0), 0),
            "checkpoint bound must be the completed watermark"
        );
        let disk_meta = c2
            .checkpoint_meta(PartitionId(0), 0)
            .expect("checkpoint durable on disk");
        assert_eq!(disk_meta.bound, meta.bound);
        assert_eq!(disk_meta.image_bytes, meta.image_bytes);
        sim::stop();
    });
    simulation
        .run_until(SimTime::from_secs(30))
        .expect("forced-checkpoint run completes");
    checker
        .check(&cluster, &BankSpec::new(4))
        .expect("history linearizable");
}
