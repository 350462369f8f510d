//! P-SMR ordering property: commands whose conflict key-sets overlap must
//! apply in delivery order on every replica, at any executor width.
//!
//! The app keeps one *order-sensitive chain* per conflict key (each apply
//! folds the command id into the chain with a non-commutative hash), so
//! any pair of overlapping commands swapped by the dispatcher produces a
//! different final chain value. Submissions are fired by one-shot clients
//! at fixed virtual times — the ordering layer's inputs do not depend on
//! executor width — so a width-4 pool must end every chain at exactly the
//! value the width-1 inline lane produces, and all replicas must converge.
//!
//! Both widths run the same driver, so agreement between them is not the
//! whole property: each run also checks it where writes land, on every
//! replica's store (its write-order monitor; delivery order is timestamp
//! order), and at width 1 on the execution trace.

use bytes::Bytes;
use heron_core::{
    Execution, HeronCluster, HeronConfig, LocalReader, ObjectId, PartitionId, Placement, ReadSet,
    StateMachine,
};
use rdma_sim::{Fabric, LatencyModel};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const KEYS: u64 = 6;
const PARTITIONS: u16 = 2;

/// Virtual time by which every command must be answered: the workload
/// submits its last command after 1.4 ms, so a run still waiting here has
/// lost a command, and fails instead of waiting for ever.
const DEADLINE: Duration = Duration::from_millis(300);

const OP_ONE: u8 = 1;
const OP_TWO: u8 = 2;

fn enc(op: u8, k1: u64, k2: u64, id: u64) -> Vec<u8> {
    let mut v = vec![op];
    for x in [k1, k2, id] {
        v.extend_from_slice(&x.to_le_bytes());
    }
    v
}

fn arg(req: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(req[1 + i * 8..9 + i * 8].try_into().unwrap())
}

/// Non-commutative fold: chain' = fnv(chain, salt, id).
fn fold(chain: u64, salt: u64, id: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in [chain, salt, id] {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

struct ChainApp;

impl ChainApp {
    fn part_of(k: u64) -> PartitionId {
        PartitionId((k % PARTITIONS as u64) as u16)
    }
}

impl StateMachine for ChainApp {
    fn placement(&self, oid: ObjectId) -> Placement {
        Placement::Partition(Self::part_of(oid.0))
    }

    fn destinations(&self, req: &[u8]) -> Vec<PartitionId> {
        let mut d = vec![Self::part_of(arg(req, 0))];
        if req[0] == OP_TWO {
            d.push(Self::part_of(arg(req, 1)));
        }
        d.sort_unstable();
        d.dedup();
        d
    }

    fn read_set(&self, req: &[u8]) -> Vec<ObjectId> {
        let mut r = vec![ObjectId(arg(req, 0))];
        if req[0] == OP_TWO {
            r.push(ObjectId(arg(req, 1)));
        }
        r
    }

    fn conflict_keys(&self, req: &[u8]) -> Vec<u64> {
        let mut k = vec![arg(req, 0)];
        if req[0] == OP_TWO {
            k.push(arg(req, 1));
        }
        k
    }

    fn execute(
        &self,
        partition: PartitionId,
        req: &[u8],
        reads: &ReadSet,
        _local: &dyn LocalReader,
    ) -> Execution {
        let get = |k: u64| {
            u64::from_le_bytes(
                reads.get(ObjectId(k)).expect("chain read")[..8]
                    .try_into()
                    .unwrap(),
            )
        };
        let id = arg(req, 2);
        let mut writes = Vec::new();
        match req[0] {
            OP_ONE => {
                let k = arg(req, 0);
                if Self::part_of(k) == partition {
                    let v = fold(get(k), k, id);
                    writes.push((ObjectId(k), Bytes::copy_from_slice(&v.to_le_bytes())));
                }
            }
            _ => {
                // Both chains fold in both old values, so the update is
                // deterministic across the involved partitions.
                let (k1, k2) = (arg(req, 0), arg(req, 1));
                let joined = get(k1) ^ get(k2).rotate_left(17);
                for k in [k1, k2] {
                    if Self::part_of(k) == partition {
                        let v = fold(joined, k, id);
                        writes.push((ObjectId(k), Bytes::copy_from_slice(&v.to_le_bytes())));
                    }
                }
            }
        }
        Execution {
            writes,
            response: Bytes::copy_from_slice(&id.to_le_bytes()),
            compute: Duration::from_micros(3),
        }
    }

    fn bootstrap(&self, partition: PartitionId) -> Vec<(ObjectId, Bytes)> {
        (0..KEYS)
            .filter(|&k| Self::part_of(k) == partition)
            .map(|k| (ObjectId(k), Bytes::copy_from_slice(&k.to_le_bytes())))
            .collect()
    }
}

/// The command mix: a small LCG picks keys, with ~1/3 two-key commands so
/// conflicts span partitions as well as queues.
fn commands(n: u64) -> Vec<Vec<u8>> {
    let mut s = 0x9e37_79b9_7f4a_7c15u64;
    let mut step = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        s >> 33
    };
    (0..n)
        .map(|id| {
            let k1 = step() % KEYS;
            if step() % 3 == 0 {
                let k2 = (k1 + 1 + step() % (KEYS - 1)) % KEYS;
                enc(OP_TWO, k1.min(k2), k1.max(k2), id)
            } else {
                enc(OP_ONE, k1, 0, id)
            }
        })
        .collect()
}

/// Runs the fixed workload at `width`; returns the final chain values
/// after asserting every replica of every partition converged to them.
fn run_chains(width: usize) -> BTreeMap<u64, u64> {
    let simulation = sim::Simulation::new(77);
    let fabric = Fabric::new(LatencyModel::connectx4());
    let app = Arc::new(ChainApp);
    let cluster = HeronCluster::build(
        &fabric,
        HeronConfig::new(PARTITIONS as usize, 3)
            .with_max_clients(50)
            .with_executor_width(width),
        app,
    );
    cluster.spawn(&simulation);
    let cmds = commands(48);
    let total = cmds.len();
    let answered = Arc::new(Mutex::new(BTreeSet::new()));
    for (j, cmd) in cmds.into_iter().enumerate() {
        // Fixed submit times, a few near-simultaneous per wave: the
        // delivery order is the same at every width, so the width-1 run
        // is a valid order oracle for the pooled one.
        let at = Duration::from_micros((j as u64 / 4) * 120 + (j as u64 % 4) * 3);
        let mut client = cluster.client(format!("c{j}"));
        let answered = answered.clone();
        simulation.spawn(format!("client-{j}"), move || {
            sim::sleep(at);
            client.execute(&cmd);
            answered.lock().unwrap().insert(j);
        });
    }
    let watched = answered.clone();
    simulation.spawn("monitor", move || {
        let all = || watched.lock().unwrap().len() == total;
        while !all() && sim::now().as_nanos() < DEADLINE.as_nanos() as u64 {
            sim::sleep(Duration::from_millis(1));
        }
        // Let the slowest replicas drain their queues before freezing.
        sim::sleep(Duration::from_millis(10));
        sim::stop();
    });
    simulation.run().unwrap();
    let answered = answered.lock().unwrap().clone();
    let missing: Vec<usize> = (0..total).filter(|j| !answered.contains(j)).collect();
    assert!(
        missing.is_empty(),
        "width {width}: {} of {total} answered by {DEADLINE:?}; unanswered commands {missing:?}",
        answered.len()
    );

    // The property itself, on every replica: writes to one chain — i.e.
    // commands sharing a conflict key — landed in delivery (timestamp)
    // order, which the store checks as each write lands. The inline lane
    // runs one command at a time, so at width 1 every execution is in
    // delivery order, not just each chain's.
    for p in 0..PARTITIONS {
        for r in 0..3 {
            let p = PartitionId(p);
            assert_eq!(
                cluster.store_order_violation(p, r),
                None,
                "width {width}: {p}r{r} wrote (object, ts, over newer ts)"
            );
            let executed: Vec<u64> = cluster
                .exec_trace(p, r)
                .into_iter()
                .filter_map(|(ts, e)| (e == 'e').then_some(ts))
                .collect();
            assert!(!executed.is_empty(), "width {width}: {p}r{r} ran nothing");
            if width == 1 {
                for w in executed.windows(2) {
                    assert!(
                        w[0] < w[1],
                        "width 1: {p}r{r} ran ts {} after ts {}",
                        w[1],
                        w[0]
                    );
                }
            }
        }
    }

    let mut chains = BTreeMap::new();
    for k in 0..KEYS {
        let p = ChainApp::part_of(k);
        let v0 = cluster.peek(p, 0, ObjectId(k)).expect("chain exists");
        for r in 1..3 {
            assert_eq!(
                cluster.peek(p, r, ObjectId(k)).as_ref(),
                Some(&v0),
                "width {width}: replica {r} of {p:?} diverged on chain {k}"
            );
        }
        chains.insert(k, u64::from_le_bytes(v0[..8].try_into().unwrap()));
    }
    chains
}

#[test]
fn overlapping_commands_apply_in_delivery_order() {
    let inline = run_chains(1);
    let pooled = run_chains(4);
    assert_eq!(
        inline, pooled,
        "a width-4 pool reordered conflicting commands relative to delivery order"
    );
}
