//! Hand-written chaos scenarios: fixed seeds and fault plans, each run
//! through the chaos harness ([`heron_bench::chaos`]) — a bank on a
//! fault-injected fabric, checker-wrapped closed-loop clients, and at the
//! end replica agreement, store/commit-order consistency and
//! linearizability of the client history. A scenario passes only if every
//! request got a response despite the faults and every check holds. The
//! faults are injected entirely at the fabric/QP layer by
//! [`rdma_sim::FaultPlan`]; the protocol code paths carry no test-only
//! logic.
//!
//! `chaos_suite` draws its scenarios from seeds; these eleven each aim one
//! fault shape at one protocol path.

use heron_bench::chaos::{self, Bank, Clause, RunResult, Scenario};
use heron_core::{HeronCluster, PartitionId};
use rdma_sim::{Fabric, LatencyModel};
use std::sync::Arc;

/// A 2 × 3 bank of six accounts at width 1, without durability.
fn scenario(seed: u64, clients: usize, requests: u64, clauses: Vec<Clause>) -> Scenario {
    Scenario {
        seed,
        partitions: 2,
        replicas: 3,
        accounts: 6,
        clients,
        requests,
        clauses,
        width: 1,
        corrupt: None,
        durability_us: None,
    }
}

fn assert_passes(sc: &Scenario) {
    match chaos::run(sc).0 {
        RunResult::Pass { .. } => {}
        other => panic!("seed {}: {other:?}", sc.seed),
    }
}

/// Scenario 1: the ordering leader of partition 0 crashes mid-run — in
/// the middle of the Phase-2 coordination traffic of the multi-partition
/// transfers — and later recovers. Clients must retry through the
/// failover and the recovered leader must catch up by state transfer.
#[test]
fn leader_crash_mid_phase2() {
    assert_passes(&scenario(
        101,
        1,
        40,
        vec![Clause::Crash {
            p: 0,
            r: 0,
            at_us: 400,
            recover_us: 40_000,
        }],
    ));
}

/// Scenario 2: a replica is paused (all its verbs stall) across a window
/// of multi-partition transactions, turning it into a lagger that must
/// catch up through the state-transfer protocol while the majority keeps
/// executing.
#[test]
fn lagger_during_multi_partition_txns() {
    assert_passes(&scenario(
        102,
        2,
        30,
        vec![Clause::Pause {
            p: 0,
            r: 2,
            from_us: 300,
            until_us: 8_000,
        }],
    ));
}

/// Scenario 3: a replica crashes, recovers, and crashes *again* while its
/// state transfer is in flight — the second fault lands mid-catch-up, so
/// the transfer must be abandoned and restarted after the final recovery.
#[test]
fn crash_during_state_transfer() {
    assert_passes(&scenario(
        103,
        1,
        50,
        vec![
            Clause::Crash {
                p: 0,
                r: 2,
                at_us: 200,
                recover_us: 2_000,
            },
            Clause::Crash {
                p: 0,
                r: 2,
                at_us: 2_100,
                recover_us: 25_000,
            },
        ],
    ));
}

/// Scenario 4: drop-and-retry of coordination writes — a burst of verbs
/// issued by two different replicas is silently lost. Majority quorums
/// absorb the losses and the protocol's retry/timeout paths recover.
#[test]
fn dropped_coordination_writes_are_absorbed() {
    assert_passes(&scenario(
        104,
        1,
        40,
        vec![
            Clause::DropBurst {
                p: 0,
                r: 1,
                first: 20,
                count: 10,
            },
            Clause::DropBurst {
                p: 1,
                r: 2,
                first: 35,
                count: 5,
            },
        ],
    ));
}

/// Scenario 5: one replica of each partition runs with all its verbs 4×
/// slower — persistent laggers that must not corrupt anything or hold up
/// client progress past the majority.
#[test]
fn slow_replicas_stay_consistent() {
    assert_passes(&scenario(
        105,
        2,
        30,
        vec![
            Clause::Slowdown {
                p: 0,
                r: 1,
                factor: 4,
            },
            Clause::Slowdown {
                p: 1,
                r: 2,
                factor: 4,
            },
        ],
    ));
}

/// Scenario 6: seeded per-verb latency jitter on every replica — random
/// completion reordering within the fabric, no crashes. The protocol must
/// be insensitive to timing alone.
#[test]
fn random_jitter_everywhere() {
    let clauses = (0..2u16)
        .flat_map(|p| (0..3).map(move |r| Clause::Jitter { p, r, max_us: 25 }))
        .collect();
    assert_passes(&scenario(106, 2, 40, clauses));
}

/// Scenario 7: a replica fail-stops on its Nth issued verb (deterministic
/// mid-protocol crash point) and is recovered by a timed action later.
#[test]
fn crash_on_nth_verb() {
    assert_passes(&scenario(
        107,
        1,
        40,
        vec![Clause::CrashOnVerb {
            p: 1,
            r: 1,
            nth: 150,
            recover_us: 30_000,
        }],
    ));
}

/// Scenario 8: compound fault — a crash in one partition while a replica
/// of the other partition is paused, with jitter on a third node. Both
/// partitions keep majorities, so the system must ride it out.
#[test]
fn compound_crash_plus_pause_plus_jitter() {
    assert_passes(&scenario(
        108,
        2,
        30,
        vec![
            Clause::Crash {
                p: 0,
                r: 1,
                at_us: 500,
                recover_us: 20_000,
            },
            Clause::Pause {
                p: 1,
                r: 2,
                from_us: 400,
                until_us: 6_000,
            },
            Clause::Jitter {
                p: 0,
                r: 2,
                max_us: 10,
            },
        ],
    ));
}

/// Scenario 9: faults on *single-partition* traffic only — partition 1's
/// whole replica set jittered while one of its replicas crashes and
/// recovers; partition 0 is untouched and must be completely unaffected.
#[test]
fn faults_in_one_partition_do_not_leak() {
    let sc = scenario(
        109,
        1,
        40,
        vec![
            Clause::Crash {
                p: 1,
                r: 0,
                at_us: 600,
                recover_us: 25_000,
            },
            Clause::Jitter {
                p: 1,
                r: 1,
                max_us: 15,
            },
            Clause::Jitter {
                p: 1,
                r: 2,
                max_us: 15,
            },
        ],
    );
    let simulation = sim::Simulation::new(sc.seed);
    let fabric = Fabric::new(LatencyModel::connectx4());
    let bank = Arc::new(Bank::new(sc.partitions as u16, sc.accounts));
    let cluster = HeronCluster::build(&fabric, sc.config(), bank);
    match chaos::run_cluster(&sc, &simulation, &fabric, &cluster) {
        RunResult::Pass { .. } => {}
        other => panic!("seed {}: {other:?}", sc.seed),
    }
    // Partition 0 never saw a fault: every replica fully caught up.
    let top = cluster.completed_req(PartitionId(0), 0);
    for r in 1..3 {
        assert_eq!(cluster.completed_req(PartitionId(0), r), top);
    }
}

/// A fault-free baseline through the same machinery: the checker must
/// pass, trivially, on an undisturbed run.
#[test]
fn fault_free_baseline() {
    assert_passes(&scenario(110, 2, 30, vec![]));
}

/// A width-4 pool under contention: eight clients on six accounts keep
/// the driver's queue deep, so independent transfers overtake blocked
/// ones all the time. The checker's per-key order check vets every
/// replica: transfers that share an account must still start in
/// timestamp order (a dispatcher that lets a command pass an earlier
/// queued one it conflicts with fails here, as an agreement violation).
#[test]
fn a_pool_under_contention_keeps_conflicting_commands_in_order() {
    let mut sc = scenario(1, 8, 20, vec![]);
    (sc.accounts, sc.width) = (6, 4);
    assert_passes(&sc);
}
