//! Recovery benchmark (DESIGN.md §14).
//!
//! Measures **cold-restart cost** as a function of the WAL tail a replica
//! must replay past its last durable checkpoint: a 1×3 durable bank
//! cluster runs a warm-up, forces a checkpoint on one replica, appends a
//! tail of `t` further requests, then power-cycles that replica and times
//! the rebuild (checkpoint read + tail replay) in virtual nanoseconds via
//! the `Metrics::{recovery_ns, replayed_frames}` counters. Recovery time
//! must scale with the tail, not with the full history — that is the
//! whole point of checkpoint + truncation.
//!
//! (That the checkpoint subsystem is schedule-invisible with durability
//! off is pinned in `tests/schedule_hash.rs`, not here.)
//!
//! Every run (1) puts the fixed-seed durable-recovery chaos scenarios
//! through the linearizability checker and (2) requires replayed frames
//! and recovery time to grow with the tail length, exiting non-zero on
//! any failure; only then does it write
//! `bench_results/BENCH_recovery.json`, virtual time only.
//! `scripts/gates.sh` pins the full-mode file. `--quick` runs smaller
//! tails and fewer seeds.

use heron_bench::chaos::{
    self, pool_recovery_scenario_for_seed, recovery_scenario_for_seed, Bank, RunResult,
};
use heron_bench::{assert_claims, banner, quick_mode, write_results, Json};
use heron_core::{HeronCluster, HeronConfig, PartitionId};
use rdma_sim::{Fabric, LatencyModel};
use sim::SimTime;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// One cold-restart measurement: warm the store, force a checkpoint on
/// replica 2, append `tail` requests, power-cycle the replica, and wait
/// for the rebuilt replica to catch back up. Returns
/// (recovery virtual ns, frames replayed, checkpoint image bytes).
fn measure_recovery(seed: u64, tail: u64) -> (u64, u64, u64) {
    const ACCOUNTS: u64 = 6;
    const WARM: u64 = 12;
    let simulation = sim::Simulation::new(seed);
    let fabric = Fabric::new(LatencyModel::connectx4());
    let cfg = HeronConfig::new(1, 3).with_durability(
        sim::storage::Storage::new(sim::storage::DiskConfig::nvme()),
        Duration::from_secs(3600), // only the forced checkpoint below runs
    );
    let cluster = HeronCluster::build(&fabric, cfg, Arc::new(Bank::new(1, ACCOUNTS)));
    let metrics = cluster.metrics();
    cluster.spawn(&simulation);

    let c2 = cluster.clone();
    let mut client = cluster.client("rb");
    let image = Arc::new(std::sync::Mutex::new(0u64));
    let image2 = image.clone();
    let metrics2 = metrics.clone();
    simulation.spawn("rb-driver", move || {
        let p = PartitionId(0);
        let mut op = 0u64;
        let mut next = |client: &mut heron_core::HeronClient| {
            let from = (seed + op * 7) % ACCOUNTS;
            let to = (from + 1 + op % (ACCOUNTS - 1)) % ACCOUNTS;
            if from == to {
                client.execute(&chaos::enc_read(from));
            } else {
                client.execute(&chaos::enc_transfer(from, to, 1 + op % 9));
            }
            op += 1;
        };
        for _ in 0..WARM {
            next(&mut client);
        }
        sim::sleep(Duration::from_millis(1));
        let meta = c2
            .checkpoint_replica(p, 2)
            .expect("quiescent replica checkpoints");
        *image2.lock().unwrap() = meta.image_bytes as u64;
        // The tail past the checkpoint is exactly what the cold restart
        // must replay from the WAL.
        for _ in 0..tail {
            next(&mut client);
        }
        sim::sleep(Duration::from_millis(1));
        c2.power_loss_replica(p, 2);
        sim::sleep(Duration::from_millis(1));
        c2.recover_replica(p, 2);
        let target = c2.last_req(p, 0);
        let deadline = sim::now() + Duration::from_secs(20);
        while (metrics2.cold_restarts.load(Ordering::Relaxed) < 1 || c2.last_req(p, 2) < target)
            && sim::now() < deadline
        {
            sim::sleep(Duration::from_millis(1));
        }
        sim::stop();
    });
    simulation
        .run_until(SimTime::from_secs(60))
        .expect("recovery measurement completes");
    assert_eq!(
        metrics.cold_restarts.load(Ordering::Relaxed),
        1,
        "replica must cold-restart exactly once (seed {seed}, tail {tail})"
    );
    let ckpt_bytes = *image.lock().unwrap();
    (
        metrics.recovery_ns.load(Ordering::Relaxed),
        metrics.replayed_frames.load(Ordering::Relaxed),
        ckpt_bytes,
    )
}

fn main() {
    banner(
        "recovery bench — cold-restart cost vs WAL tail",
        "durable extension of §III; recovery model of DESIGN.md §14",
    );
    let quick = quick_mode();

    let tails: &[u64] = if quick { &[4, 24] } else { &[4, 12, 24, 48] };
    let chaos_seeds: &[u64] = if quick {
        &[9000, 9001]
    } else {
        &[9000, 9001, 9002]
    };

    // 1. The durable-recovery chaos ladder: fixed seeds through the
    // linearizability checker. These are the same generators the chaos
    // suite runs; a regression here means recovery is wrong, not slow.
    // The last rung power-cycles a replica of a width-4 pool; at seed 9008
    // the cut kills workers blocked mid-command, and the booted pool
    // replays the WAL tail.
    let ladder = chaos_seeds
        .iter()
        .map(|&seed| recovery_scenario_for_seed(seed, true))
        .chain([pool_recovery_scenario_for_seed(9008, true)]);
    for sc in ladder {
        let (seed, width) = (sc.seed, sc.width);
        match chaos::run(&sc).0 {
            RunResult::Pass { ops } => {
                println!("recovery scenario seed {seed} (width {width}): PASS — {ops} ops");
            }
            other => {
                eprintln!("FAIL: recovery scenario seed {seed} (width {width}): {other:?}");
                std::process::exit(1);
            }
        }
    }

    // 2. Cold-restart cost sweep over the tail length.
    println!(
        "\n{:<14} {:>16} {:>14} {:>16}",
        "tail requests", "replayed frames", "recovery µs", "checkpoint bytes"
    );
    let mut rows = Vec::new();
    let mut sweep = Vec::new();
    for &tail in tails {
        let (ns, replayed, ckpt_bytes) = measure_recovery(77, tail);
        println!(
            "{:<14} {:>16} {:>14.1} {:>16}",
            tail,
            replayed,
            ns as f64 / 1e3,
            ckpt_bytes
        );
        let mut row = Json::obj();
        row.set("tail_requests", tail)
            .set("replayed_frames", replayed)
            .set("recovery_ns", ns)
            .set("checkpoint_bytes", ckpt_bytes);
        rows.push(row);
        sweep.push((tail, replayed, ns));
    }

    // Recovery must scale with the tail: more frames replayed for longer
    // tails, and a longer virtual-time rebuild end to end. A measurement
    // that violates this is not worth writing.
    let mut broken = Vec::new();
    for pair in sweep.windows(2) {
        let (t0, r0, _) = pair[0];
        let (t1, r1, _) = pair[1];
        if r1 <= r0 {
            broken.push(format!(
                "replayed frames not increasing with tail \
                 ({r0} @ {t0} requests vs {r1} @ {t1})"
            ));
        }
    }
    let (first, last) = (sweep[0], sweep[sweep.len() - 1]);
    if last.2 <= first.2 {
        broken.push(format!(
            "recovery time did not grow with the tail \
             ({} ns @ {} requests vs {} ns @ {})",
            first.2, first.0, last.2, last.0
        ));
    }
    assert_claims(&broken);

    let mut out = Json::obj();
    out.set("figure", "recovery")
        .set("quick", quick)
        .set("warm_requests", 12u64)
        .set("rows", Json::Arr(rows));
    write_results("BENCH_recovery.json", &out).expect("write bench_results/BENCH_recovery.json");
}
