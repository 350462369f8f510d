//! A replicated bank on four Heron partitions: concurrent cross-partition
//! transfers with a global conservation-of-money invariant.
//!
//! This is the canonical linearizability stress: several closed-loop
//! clients issue transfers between accounts that live in different
//! partitions (multi-partition requests with remote reads and local
//! writes), while an auditor repeatedly issues a single *all-partition*
//! read-only request that sums every balance. Heron's Phase 2/4
//! coordination makes that audit an atomic cut of the whole bank: it must
//! always observe the initial total, even mid-transfer.
//!
//! Run with: `cargo run --release --example bank`

use bytes::Bytes;
use heron::core::{
    Execution, HeronCluster, HeronConfig, LocalReader, ObjectId, PartitionId, Placement, ReadSet,
    StateMachine,
};
use heron::rdma::{Fabric, LatencyModel};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const PARTITIONS: u16 = 4;
const ACCOUNTS: u64 = 32;
const INITIAL: u64 = 1_000;
const CLIENTS: u64 = 6;
const TRANSFERS_PER_CLIENT: u64 = 50;

struct Bank;

const OP_TRANSFER: u8 = 1;
const OP_BALANCE: u8 = 2;
const OP_AUDIT: u8 = 3;

fn partition_of(acct: u64) -> PartitionId {
    PartitionId((acct % PARTITIONS as u64) as u16)
}

fn arg(req: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(req[1 + i * 8..9 + i * 8].try_into().expect("argument"))
}

fn enc_transfer(from: u64, to: u64, amount: u64) -> Vec<u8> {
    let mut v = vec![OP_TRANSFER];
    for x in [from, to, amount] {
        v.extend_from_slice(&x.to_le_bytes());
    }
    v
}

fn enc_balance(acct: u64) -> Vec<u8> {
    let mut v = vec![OP_BALANCE];
    v.extend_from_slice(&acct.to_le_bytes());
    v
}

fn enc_audit() -> Vec<u8> {
    vec![OP_AUDIT]
}

impl StateMachine for Bank {
    fn placement(&self, oid: ObjectId) -> Placement {
        Placement::Partition(partition_of(oid.0))
    }

    fn destinations(&self, req: &[u8]) -> Vec<PartitionId> {
        let mut d = match req[0] {
            OP_TRANSFER => vec![partition_of(arg(req, 0)), partition_of(arg(req, 1))],
            // The audit is one linearizable request across all partitions:
            // Phase 2/4 coordination guarantees it observes a consistent
            // cut of the whole bank.
            OP_AUDIT => (0..PARTITIONS).map(PartitionId).collect(),
            _ => vec![partition_of(arg(req, 0))],
        };
        d.sort_unstable();
        d.dedup();
        d
    }

    fn read_set(&self, req: &[u8]) -> Vec<ObjectId> {
        match req[0] {
            OP_TRANSFER => vec![ObjectId(arg(req, 0)), ObjectId(arg(req, 1))],
            OP_AUDIT => (0..ACCOUNTS).map(ObjectId).collect(),
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
        let bal = |acct: u64| {
            u64::from_le_bytes(
                reads.get(ObjectId(acct)).expect("account read")[..8]
                    .try_into()
                    .expect("8 bytes"),
            )
        };
        match req[0] {
            OP_TRANSFER => {
                let (from, to, amount) = (arg(req, 0), arg(req, 1), arg(req, 2));
                let ok = bal(from) >= amount;
                let mut writes = Vec::new();
                if ok {
                    if partition_of(from) == partition {
                        writes.push((
                            ObjectId(from),
                            Bytes::copy_from_slice(&(bal(from) - amount).to_le_bytes()),
                        ));
                    }
                    if partition_of(to) == partition {
                        writes.push((
                            ObjectId(to),
                            Bytes::copy_from_slice(&(bal(to) + amount).to_le_bytes()),
                        ));
                    }
                }
                Execution {
                    writes,
                    response: Bytes::copy_from_slice(&[ok as u8]),
                    compute: Duration::from_micros(2),
                }
            }
            OP_AUDIT => {
                let total: u64 = (0..ACCOUNTS).map(bal).sum();
                Execution {
                    writes: vec![],
                    response: Bytes::copy_from_slice(&total.to_le_bytes()),
                    compute: Duration::from_micros(3),
                }
            }
            _ => Execution {
                writes: vec![],
                response: Bytes::copy_from_slice(&bal(arg(req, 0)).to_le_bytes()),
                compute: Duration::from_micros(1),
            },
        }
    }

    fn bootstrap(&self, partition: PartitionId) -> Vec<(ObjectId, Bytes)> {
        (0..ACCOUNTS)
            .filter(|a| partition_of(*a) == partition)
            .map(|a| (ObjectId(a), Bytes::copy_from_slice(&INITIAL.to_le_bytes())))
            .collect()
    }
}

fn main() {
    let simulation = sim::Simulation::new(7);
    let fabric = Fabric::new(LatencyModel::connectx4());
    let cluster = HeronCluster::build(
        &fabric,
        HeronConfig::new(PARTITIONS as usize, 3),
        Arc::new(Bank),
    );
    cluster.spawn(&simulation);

    let done = Arc::new(AtomicU64::new(0));
    for c in 0..CLIENTS {
        let mut client = cluster.client(format!("teller-{c}"));
        let done = done.clone();
        simulation.spawn(format!("teller-{c}"), move || {
            for i in 0..TRANSFERS_PER_CLIENT {
                let from = (c * 7 + i) % ACCOUNTS;
                let to = (c * 11 + i * 3 + 1) % ACCOUNTS;
                if from != to {
                    client.execute(&enc_transfer(from, to, 1 + i % 50));
                }
            }
            done.fetch_add(1, Ordering::SeqCst);
        });
    }

    let mut auditor = cluster.client("auditor");
    let metrics = cluster.metrics();
    simulation.spawn("auditor", move || {
        let mut audits = 0u32;
        loop {
            sim::sleep(Duration::from_millis(1));
            // One linearizable multi-partition request sums every account
            // atomically, even while transfers are in flight.
            let total = u64::from_le_bytes(
                auditor.execute(&enc_audit())[..8]
                    .try_into()
                    .expect("8 bytes"),
            );
            audits += 1;
            println!(
                "[{}] audit #{audits}: total = {total} (expected {})",
                sim::now(),
                ACCOUNTS * INITIAL
            );
            assert_eq!(total, ACCOUNTS * INITIAL, "money must be conserved");
            if done.load(Ordering::SeqCst) == CLIENTS {
                break;
            }
        }
        // Spot-check one account read too.
        let _ = auditor.execute(&enc_balance(0));
        let completed = metrics.latencies.lock().len();
        println!(
            "\n{completed} transfers + audits completed; mean latency {:?}, p99 {:?}",
            metrics.mean_latency(),
            metrics.latency_quantile(0.99),
        );
        sim::stop();
    });
    simulation.run().expect("simulation completes");
}
