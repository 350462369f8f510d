//! End-to-end tests of Heron's replicated execution: linearizability of
//! multi-partition requests, dual-versioning under concurrency, lagger
//! recovery with state transfer, and crash handling.

use bytes::Bytes;
use heron_core::{
    Execution, HeronCluster, HeronConfig, LocalReader, ObjectId, PartitionId, Placement, ReadSet,
    StateMachine, StorageKind,
};
use rdma_sim::{Fabric, LatencyModel};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A bank: accounts are u64 balances spread across partitions round-robin.
/// Requests: transfer (multi-partition read+write) and audit (read one
/// account). The total balance is a linearizability invariant.
struct Bank {
    partitions: u16,
    accounts: u64,
}

const OP_TRANSFER: u8 = 1;
const OP_READ: u8 = 2;

fn enc_transfer(from: u64, to: u64, amount: u64) -> Vec<u8> {
    let mut v = vec![OP_TRANSFER];
    v.extend_from_slice(&from.to_le_bytes());
    v.extend_from_slice(&to.to_le_bytes());
    v.extend_from_slice(&amount.to_le_bytes());
    v
}

fn enc_read(acct: u64) -> Vec<u8> {
    let mut v = vec![OP_READ];
    v.extend_from_slice(&acct.to_le_bytes());
    v
}

fn arg(req: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(req[1 + i * 8..9 + i * 8].try_into().unwrap())
}

impl Bank {
    fn partition_of(&self, acct: u64) -> PartitionId {
        PartitionId((acct % self.partitions as u64) as u16)
    }
}

impl StateMachine for Bank {
    fn placement(&self, oid: ObjectId) -> Placement {
        Placement::Partition(self.partition_of(oid.0))
    }

    fn storage_kind(&self, _oid: ObjectId) -> StorageKind {
        StorageKind::Serialized
    }

    fn destinations(&self, req: &[u8]) -> Vec<PartitionId> {
        match req[0] {
            OP_TRANSFER => {
                let mut d = vec![
                    self.partition_of(arg(req, 0)),
                    self.partition_of(arg(req, 1)),
                ];
                d.sort_unstable();
                d.dedup();
                d
            }
            _ => vec![self.partition_of(arg(req, 0))],
        }
    }

    fn read_set(&self, req: &[u8]) -> Vec<ObjectId> {
        match req[0] {
            OP_TRANSFER => vec![ObjectId(arg(req, 0)), ObjectId(arg(req, 1))],
            _ => vec![ObjectId(arg(req, 0))],
        }
    }

    fn execute(
        &self,
        partition: PartitionId,
        req: &[u8],
        reads: &ReadSet,
        _local: &dyn LocalReader,
    ) -> Execution {
        let get = |oid: u64| {
            u64::from_le_bytes(
                reads.get(ObjectId(oid)).expect("read present")[..8]
                    .try_into()
                    .unwrap(),
            )
        };
        match req[0] {
            OP_TRANSFER => {
                let (from, to, amount) = (arg(req, 0), arg(req, 1), arg(req, 2));
                let (bf, bt) = (get(from), get(to));
                let ok = bf >= amount;
                let (nf, nt) = if ok {
                    (bf - amount, bt + amount)
                } else {
                    (bf, bt)
                };
                let mut writes = Vec::new();
                if self.partition_of(from) == partition {
                    writes.push((ObjectId(from), Bytes::copy_from_slice(&nf.to_le_bytes())));
                }
                if self.partition_of(to) == partition {
                    writes.push((ObjectId(to), Bytes::copy_from_slice(&nt.to_le_bytes())));
                }
                Execution {
                    writes,
                    response: Bytes::copy_from_slice(&[ok as u8]),
                    compute: Duration::from_micros(2),
                }
            }
            _ => Execution {
                writes: vec![],
                response: Bytes::copy_from_slice(&get(arg(req, 0)).to_le_bytes()),
                compute: Duration::from_micros(1),
            },
        }
    }

    fn bootstrap(&self, partition: PartitionId) -> Vec<(ObjectId, Bytes)> {
        (0..self.accounts)
            .filter(|a| self.partition_of(*a) == partition)
            .map(|a| (ObjectId(a), Bytes::copy_from_slice(&1000u64.to_le_bytes())))
            .collect()
    }
}

fn build_bank(
    seed: u64,
    partitions: usize,
    replicas: usize,
    accounts: u64,
) -> (sim::Simulation, Fabric, HeronCluster, Arc<Bank>) {
    let simulation = sim::Simulation::new(seed);
    let fabric = Fabric::new(LatencyModel::connectx4());
    let bank = Arc::new(Bank {
        partitions: partitions as u16,
        accounts,
    });
    let cluster = HeronCluster::build(
        &fabric,
        HeronConfig::new(partitions, replicas),
        bank.clone(),
    );
    cluster.spawn(&simulation);
    (simulation, fabric, cluster, bank)
}

#[test]
fn single_partition_requests_execute_in_order() {
    let (simulation, _f, cluster, _bank) = build_bank(21, 1, 3, 4);
    let mut client = cluster.client("c");
    simulation.spawn("client", move || {
        // Drain account 0 into account 1 in steps; balances must follow.
        for _ in 0..10 {
            assert_eq!(client.execute(&enc_transfer(0, 1, 100))[0], 1);
        }
        let b0 = u64::from_le_bytes(client.execute(&enc_read(0))[..8].try_into().unwrap());
        let b1 = u64::from_le_bytes(client.execute(&enc_read(1))[..8].try_into().unwrap());
        assert_eq!((b0, b1), (0, 2000));
        // Next transfer must fail: insufficient funds.
        assert_eq!(client.execute(&enc_transfer(0, 1, 100))[0], 0);
        sim::stop();
    });
    simulation.run().unwrap();
}

#[test]
fn cross_partition_transfers_preserve_total_balance() {
    let accounts = 8u64;
    let (simulation, _f, cluster, _bank) = build_bank(22, 4, 3, accounts);
    let n_clients = 4;
    let done = Arc::new(AtomicU64::new(0));
    for c in 0..n_clients {
        let mut client = cluster.client(format!("c{c}"));
        let done = done.clone();
        simulation.spawn(format!("client{c}"), move || {
            for i in 0..20u64 {
                let from = (c + i) % accounts;
                let to = (c + i * 3 + 1) % accounts;
                if from != to {
                    client.execute(&enc_transfer(from, to, 10 + i));
                }
            }
            done.fetch_add(1, Ordering::SeqCst);
        });
    }
    // An auditor verifies the invariant at the end.
    let mut auditor = cluster.client("audit");
    let done2 = done.clone();
    simulation.spawn("auditor", move || {
        while done2.load(Ordering::SeqCst) < n_clients {
            sim::sleep(Duration::from_millis(1));
        }
        let total: u64 = (0..accounts)
            .map(|a| u64::from_le_bytes(auditor.execute(&enc_read(a))[..8].try_into().unwrap()))
            .sum();
        assert_eq!(total, accounts * 1000, "money created or destroyed");
        sim::stop();
    });
    simulation.run().unwrap();
}

#[test]
fn batched_mode_preserves_invariants_and_convergence() {
    // End-to-end batching on (amcast group commit): the bank invariant and
    // replica convergence must hold exactly as in unbatched runs.
    let accounts = 6u64;
    let simulation = sim::Simulation::new(27);
    let fabric = Fabric::new(LatencyModel::connectx4());
    let bank = Arc::new(Bank {
        partitions: 2,
        accounts,
    });
    let cluster = HeronCluster::build(&fabric, HeronConfig::new(2, 3).with_max_batch(8), bank);
    cluster.spawn(&simulation);
    let c2 = cluster.clone();
    let mut client = cluster.client("c");
    simulation.spawn("client", move || {
        for i in 0..30u64 {
            client.execute(&enc_transfer(i % 6, (i + 1) % 6, 5));
        }
        let total: u64 = (0..accounts)
            .map(|a| u64::from_le_bytes(client.execute(&enc_read(a))[..8].try_into().unwrap()))
            .sum();
        assert_eq!(total, accounts * 1000, "money created or destroyed");
        sim::sleep(Duration::from_millis(2));
        for p in 0..2u16 {
            for a in 0..accounts {
                if a % 2 != u64::from(p) {
                    continue;
                }
                let v0 = c2.peek(PartitionId(p), 0, ObjectId(a)).unwrap();
                for r in 1..3 {
                    assert_eq!(
                        c2.peek(PartitionId(p), r, ObjectId(a)).unwrap(),
                        v0,
                        "replica {r} of p{p} diverged on account {a}"
                    );
                }
            }
        }
        sim::stop();
    });
    simulation.run().unwrap();
}

#[test]
fn replicas_converge_to_identical_state() {
    let (simulation, _f, cluster, _bank) = build_bank(23, 2, 3, 6);
    let c2 = cluster.clone();
    let mut client = cluster.client("c");
    simulation.spawn("client", move || {
        for i in 0..30u64 {
            client.execute(&enc_transfer(i % 6, (i + 1) % 6, 5));
        }
        // Let phase-4 stragglers and followers finish.
        sim::sleep(Duration::from_millis(2));
        for p in 0..2u16 {
            for a in 0..6u64 {
                if a % 2 != p as u64 {
                    continue;
                }
                let v0 = c2.peek(PartitionId(p), 0, ObjectId(a)).unwrap();
                for r in 1..3 {
                    assert_eq!(
                        c2.peek(PartitionId(p), r, ObjectId(a)).unwrap(),
                        v0,
                        "replica {r} of p{p} diverged on account {a}"
                    );
                }
            }
        }
        sim::stop();
    });
    simulation.run().unwrap();
}

#[test]
fn crashed_replica_recovers_via_state_transfer() {
    let (simulation, fabric, cluster, _bank) = build_bank(24, 2, 3, 6);
    let c2 = cluster.clone();
    let metrics = cluster.metrics();
    let mut client = cluster.client("c");
    let victim_node = cluster.replica_node(PartitionId(0), 2).id();
    simulation.spawn("client", move || {
        for i in 0..5u64 {
            client.execute(&enc_transfer(i % 6, (i + 1) % 6, 1));
        }
        // Crash one replica of partition 0 and keep the system running —
        // majorities still hold.
        fabric.crash(victim_node);
        for i in 0..40u64 {
            client.execute(&enc_transfer(i % 6, (i + 1) % 6, 1));
        }
        // Recover it; it must notice the gap and state-transfer.
        fabric.recover(victim_node);
        for i in 0..40u64 {
            client.execute(&enc_transfer(i % 6, (i + 1) % 6, 1));
        }
        sim::sleep(Duration::from_millis(50));
        // The recovered replica converged with its peers.
        for a in [0u64, 2, 4] {
            let expect = c2.peek(PartitionId(0), 0, ObjectId(a)).unwrap();
            assert_eq!(
                c2.peek(PartitionId(0), 2, ObjectId(a)).unwrap(),
                expect,
                "recovered replica diverged on account {a}"
            );
        }
        assert!(
            metrics.transfers_started.load(Ordering::Relaxed) >= 1,
            "recovery must have used the state-transfer protocol"
        );
        sim::stop();
    });
    simulation.run().unwrap();
}

#[test]
fn wait_for_all_records_delay_statistics() {
    let (simulation, _f, cluster, _bank) = build_bank(25, 2, 3, 8);
    let metrics = cluster.metrics();
    let mut client = cluster.client("c");
    simulation.spawn("client", move || {
        for i in 0..25u64 {
            client.execute(&enc_transfer(i % 8, (i + 3) % 8, 1));
        }
        sim::stop();
    });
    simulation.run().unwrap();
    // Every multi-partition request passes the Phase-4 wait-for-all check
    // at every replica of both partitions.
    let total: u64 = (0..2)
        .map(|p| metrics.delays[p].total.load(Ordering::Relaxed))
        .sum();
    assert!(total > 0, "wait-for-all statistics were not recorded");
}

#[test]
fn responses_come_from_every_involved_partition() {
    // With 3 partitions, a transfer touching p0 and p2 must answer from
    // both, and the response is p0's (lowest id).
    let (simulation, _f, cluster, _bank) = build_bank(26, 3, 3, 9);
    let mut client = cluster.client("c");
    simulation.spawn("client", move || {
        // account 0 -> p0, account 2 -> p2
        let ok = client.execute(&enc_transfer(0, 2, 500));
        assert_eq!(ok[0], 1);
        let b0 = u64::from_le_bytes(client.execute(&enc_read(0))[..8].try_into().unwrap());
        let b2 = u64::from_le_bytes(client.execute(&enc_read(2))[..8].try_into().unwrap());
        assert_eq!((b0, b2), (500, 1500));
        sim::stop();
    });
    simulation.run().unwrap();
}

#[test]
fn five_replicas_per_partition_work() {
    let (simulation, _f, cluster, _bank) = build_bank(27, 2, 5, 4);
    let mut client = cluster.client("c");
    simulation.spawn("client", move || {
        for i in 0..10u64 {
            assert_eq!(client.execute(&enc_transfer(i % 4, (i + 1) % 4, 1))[0], 1);
        }
        sim::stop();
    });
    simulation.run().unwrap();
}

#[test]
fn deterministic_across_runs() {
    fn run_once(seed: u64) -> Vec<u8> {
        let (simulation, _f, cluster, _bank) = build_bank(seed, 2, 3, 4);
        let out = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let o = out.clone();
        let mut client = cluster.client("c");
        simulation.spawn("client", move || {
            for i in 0..10u64 {
                let r = client.execute(&enc_transfer(i % 4, (i + 1) % 4, 7));
                o.lock().push(r[0]);
            }
            sim::stop();
        });
        simulation.run().unwrap();
        let v = out.lock().clone();
        v
    }
    assert_eq!(run_once(42), run_once(42));
}

/// `HeronConfig`'s `partitions`, `replicas_per_partition`, `max_clients`
/// and `max_request` mirror `mcast`'s sizes and only the setters keep them
/// in step: `build` refuses a config whose direct field write did not.
fn build_with(edit: impl FnOnce(&mut HeronConfig)) {
    let mut cfg = HeronConfig::new(2, 3);
    edit(&mut cfg);
    let bank = Arc::new(Bank {
        partitions: 2,
        accounts: 4,
    });
    HeronCluster::build(&Fabric::new(LatencyModel::connectx4()), cfg, bank);
}

#[test]
#[should_panic(expected = "partitions != mcast.groups")]
fn build_rejects_partitions_out_of_step_with_mcast() {
    build_with(|cfg| cfg.partitions = 1);
}

#[test]
#[should_panic(expected = "replicas_per_partition != mcast.replicas_per_group")]
fn build_rejects_replicas_out_of_step_with_mcast() {
    build_with(|cfg| cfg.replicas_per_partition = 5);
}

#[test]
#[should_panic(expected = "HeronConfig::with_max_clients")]
fn build_rejects_max_clients_out_of_step_with_mcast() {
    build_with(|cfg| cfg.max_clients = 128);
}

#[test]
#[should_panic(expected = "HeronConfig::with_max_request")]
fn build_rejects_a_request_size_the_envelope_cannot_carry() {
    // The default ordering payload is 512 bytes: 489 + 24 overruns it.
    build_with(|cfg| cfg.max_request = 489);
}
