//! Chaos harness: seeded schedules × generated fault plans through the SMR
//! consistency checker, with automatic shrinking of failing scenarios.
//!
//! Each **scenario** is derived deterministically from a seed: a bank
//! workload (closed-loop clients issuing cross-partition transfers) plus a
//! list of fault [`Clause`]s drawn from the same seed — timed crashes with
//! recovery, verb-indexed fail-stops, pauses, slowdowns, latency jitter,
//! and dropped-verb bursts. The generator keeps at most one
//! *disabling* fault victim per partition, so majorities always survive
//! and every run is expected to finish and check clean.
//!
//! A failing scenario (consistency violation **or** stall) is
//! [`shrink`]-ed to a minimal reproduction: clauses are removed greedily,
//! then the workload is halved, then clients are dropped — re-running the
//! deterministic simulation after each candidate reduction and keeping it
//! only if it still fails. The final report carries the seed; replaying it
//! reproduces the failure bit-for-bit.

use bytes::Bytes;
use heron_core::checker::{Checker, SequentialSpec, Violation};
use heron_core::{
    Execution, HeronCluster, HeronConfig, LocalReader, ObjectId, PartitionId, Placement, ReadSet,
    StateMachine, StorageKind,
};
use rdma_sim::{Fabric, FaultPlan, LatencyModel};
use sim::SimTime;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const OP_TRANSFER: u8 = 1;
const OP_READ: u8 = 2;
const INITIAL: u64 = 1000;

/// Encodes a transfer request.
pub fn enc_transfer(from: u64, to: u64, amount: u64) -> Vec<u8> {
    let mut v = vec![OP_TRANSFER];
    v.extend_from_slice(&from.to_le_bytes());
    v.extend_from_slice(&to.to_le_bytes());
    v.extend_from_slice(&amount.to_le_bytes());
    v
}

/// Encodes a single-account audit read.
pub fn enc_read(acct: u64) -> Vec<u8> {
    let mut v = vec![OP_READ];
    v.extend_from_slice(&acct.to_le_bytes());
    v
}

fn arg(req: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(req[1 + i * 8..9 + i * 8].try_into().unwrap())
}

/// The chaos workload's application: a bank with accounts round-robin over
/// partitions; transfers are (potentially multi-partition)
/// read-modify-writes.
pub struct Bank {
    partitions: u16,
    accounts: u64,
}

impl Bank {
    /// Creates the bank for `accounts` accounts round-robin over
    /// `partitions` partitions (the checkpoint property tests build their
    /// own deployments around it).
    pub fn new(partitions: u16, accounts: u64) -> Self {
        Bank {
            partitions,
            accounts,
        }
    }

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

    fn conflict_keys(&self, req: &[u8]) -> Vec<u64> {
        // One conflict class per account: transfers on disjoint account
        // pairs commute, so a parallel executor pool may run them
        // concurrently — exactly what the checker then has to vet.
        match req[0] {
            OP_TRANSFER => vec![arg(req, 0), arg(req, 1)],
            _ => vec![arg(req, 0)],
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
            .map(|a| (ObjectId(a), Bytes::copy_from_slice(&INITIAL.to_le_bytes())))
            .collect()
    }
}

/// The sequential model of [`Bank`] for the linearizability check.
pub struct BankSpec {
    accounts: u64,
}

impl BankSpec {
    /// The sequential spec for a bank of `accounts` accounts.
    pub fn new(accounts: u64) -> Self {
        BankSpec { accounts }
    }
}

impl SequentialSpec for BankSpec {
    type State = Vec<u64>;

    fn initial(&self) -> Vec<u64> {
        vec![INITIAL; self.accounts as usize]
    }

    fn apply(&self, state: &mut Vec<u64>, req: &[u8]) -> Bytes {
        match req[0] {
            OP_TRANSFER => {
                let (from, to, amount) = (arg(req, 0) as usize, arg(req, 1) as usize, arg(req, 2));
                let ok = state[from] >= amount;
                if ok {
                    state[from] -= amount;
                    state[to] += amount;
                }
                Bytes::copy_from_slice(&[ok as u8])
            }
            _ => Bytes::copy_from_slice(&state[arg(req, 0) as usize].to_le_bytes()),
        }
    }
}

/// One fault clause of a generated plan. Coordinates are
/// `(partition, replica)`; times are virtual microseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Clause {
    /// Fail-stop at a wall-clock instant, recover later.
    Crash {
        p: u16,
        r: usize,
        at_us: u64,
        recover_us: u64,
    },
    /// Fail-stop on the node's nth issued verb, recover at a time.
    CrashOnVerb {
        p: u16,
        r: usize,
        nth: u64,
        recover_us: u64,
    },
    /// All verbs stall across a window (a transient lagger).
    Pause {
        p: u16,
        r: usize,
        from_us: u64,
        until_us: u64,
    },
    /// Every verb slowed by an integer factor (a persistent lagger).
    Slowdown { p: u16, r: usize, factor: u64 },
    /// Seeded per-verb latency jitter up to a bound.
    Jitter { p: u16, r: usize, max_us: u64 },
    /// A burst of issued verbs silently lost.
    DropBurst {
        p: u16,
        r: usize,
        first: u64,
        count: u64,
    },
    /// Power loss at a wall-clock instant — fail-stop *plus* registered
    /// memory wiped — recovered later. With durability on, the replica
    /// rebuilds from its checkpoint and the ordering WAL tail; the checker
    /// then vets the rebuilt state like any other replica's.
    PowerLoss {
        p: u16,
        r: usize,
        at_us: u64,
        recover_us: u64,
    },
}

/// A fully specified chaos scenario: the deterministic workload plus the
/// fault clauses to inject. `Clone`d and mutated freely by [`shrink`].
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Simulation seed (also seeds the fault plan's jitter stream).
    pub seed: u64,
    pub partitions: usize,
    pub replicas: usize,
    pub accounts: u64,
    /// Closed-loop clients issuing the workload concurrently.
    pub clients: usize,
    /// Requests per client (plus a closing full audit).
    pub requests: u64,
    /// The fault plan, as individually removable clauses.
    pub clauses: Vec<Clause>,
    /// Execution lanes per replica (1 = the driver's inline lane; the
    /// legacy scenarios use 1 so their schedule hashes are unchanged).
    pub width: usize,
    /// Checker self-test hook: corrupt `(partition, replica, object)`
    /// after the run, before checking. `None` in normal operation.
    pub corrupt: Option<(u16, usize, u64)>,
    /// Durable checkpointing: `Some(interval_us)` attaches a simulated
    /// NVMe device and runs the per-replica checkpointer at that period.
    /// `None` (every legacy scenario) builds no storage at all, so those
    /// schedules stay bit-identical to what they were before durability.
    pub durability_us: Option<u64>,
}

/// How a scenario ended.
#[derive(Debug)]
pub enum RunResult {
    /// Run finished and every check passed.
    Pass {
        /// Operations completed across all clients.
        ops: usize,
    },
    /// The run did not finish inside the virtual-time deadline: some
    /// client operations never completed (a liveness failure).
    Stalled {
        /// Operations still pending at the deadline.
        pending: usize,
    },
    /// The checker found a consistency violation.
    Failed(Violation),
}

impl RunResult {
    /// Whether this result counts as a failure for shrinking purposes.
    pub fn failed(&self) -> bool {
        !matches!(self, RunResult::Pass { .. })
    }
}

/// splitmix64 — the harness's own deterministic parameter stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the canonical scenario for a seed: a 2×3 bank deployment and
/// 2–4 fault clauses drawn from the seed. At most one replica per
/// partition is eligible for *disabling* faults (crash/pause), so
/// majorities always survive.
pub fn scenario_for_seed(seed: u64, quick: bool) -> Scenario {
    let (partitions, replicas, accounts) = (2usize, 3usize, 6u64);
    let requests: u64 = if quick { 25 } else { 50 };
    let clients = 2usize;
    let mut rng = seed ^ 0xD6E8_FEB8_6659_FD93;
    // The workload horizon in µs, used to place fault windows. Generously
    // sized: a request costs tens of µs fault-free, more under faults.
    let horizon = requests * 120;
    let victims: Vec<usize> = (0..partitions)
        .map(|_| (splitmix(&mut rng) as usize) % replicas)
        .collect();
    let n_clauses = 2 + (splitmix(&mut rng) % 3) as usize;
    let mut clauses = Vec::with_capacity(n_clauses);
    for _ in 0..n_clauses {
        let p = (splitmix(&mut rng) as usize % partitions) as u16;
        let kind = splitmix(&mut rng) % 6;
        let clause = match kind {
            0 => {
                let at = horizon / 8 + splitmix(&mut rng) % (horizon / 2);
                Clause::Crash {
                    p,
                    r: victims[p as usize],
                    at_us: at,
                    recover_us: at + horizon / 4 + splitmix(&mut rng) % horizon,
                }
            }
            1 => Clause::CrashOnVerb {
                p,
                r: victims[p as usize],
                nth: 50 + splitmix(&mut rng) % 400,
                recover_us: horizon + splitmix(&mut rng) % horizon,
            },
            2 => {
                let from = horizon / 8 + splitmix(&mut rng) % (horizon / 2);
                Clause::Pause {
                    p,
                    r: victims[p as usize],
                    from_us: from,
                    until_us: from + horizon / 8 + splitmix(&mut rng) % (horizon / 2),
                }
            }
            3 => Clause::Slowdown {
                p,
                r: (splitmix(&mut rng) as usize) % replicas,
                factor: 2 + splitmix(&mut rng) % 4,
            },
            4 => Clause::Jitter {
                p,
                r: (splitmix(&mut rng) as usize) % replicas,
                max_us: 5 + splitmix(&mut rng) % 25,
            },
            // Silent verb loss only ever hits followers: RDMA RC either
            // delivers or breaks the connection with an error, so
            // undetectable loss of the ordering leader's writes is outside
            // the paper's fault model (fail-stop + RDMA exceptions) and
            // nothing in the protocol could repair it.
            _ => Clause::DropBurst {
                p,
                r: 1 + (splitmix(&mut rng) as usize) % (replicas - 1),
                first: 20 + splitmix(&mut rng) % 200,
                count: 1 + splitmix(&mut rng) % 8,
            },
        };
        clauses.push(clause);
    }
    Scenario {
        seed,
        partitions,
        replicas,
        accounts,
        clients,
        requests,
        clauses,
        width: 1,
        corrupt: None,
        durability_us: None,
    }
}

/// The first recovery seeds, at quick and at full sizes, whose run with
/// amcast's `has_work` gate broken boots a replica that sees an advertised
/// log floor before its first heartbeat: the livelock shape the explorer's
/// self-test must catch. Found by scanning up from seed 42 (the shape is
/// rare now that a replica reloads at its recovery instant, and rarer
/// since a one-group message stopped writing a proposal and a final: the
/// first seeds were 196 and 142 before); a scan of a few seeds from here
/// absorbs scenario-generator drift.
pub const REBROKEN_HAS_WORK_SEEDS: (u64, u64) = (615, 1854);

/// Derives a *recovery* chaos scenario for a seed: a single-partition bank
/// with durable checkpointing on, driven through seed-chosen power-loss
/// shapes — whole-partition power loss (every replica wiped, the partition
/// rebuilds from disk alone), power loss timed to race the checkpointer
/// (mid-checkpoint / mid-truncation), and a restart-then-diverge double
/// power cycle (the second restart must load the *newer* checkpoint).
///
/// Single-partition deployments only: a fully power-cycled partition
/// replays its WAL tail against live state elsewhere, and a replayed
/// *multi-partition* command would need remote versions that
/// dual-versioning has long overwritten (see `DESIGN.md` §14's
/// limitations). Power-losing a minority in a multi-partition deployment
/// is exercised separately by the checkpoint round-trip property test.
pub fn recovery_scenario_for_seed(seed: u64, quick: bool) -> Scenario {
    let (partitions, replicas, accounts) = (1usize, 3usize, 6u64);
    let requests: u64 = if quick { 25 } else { 50 };
    let clients = 2usize;
    let mut rng = seed ^ 0x2545_F491_4F6C_DD1D;
    // Single-partition requests are cheap (~10 µs); keep the fault windows
    // well inside the workload.
    let horizon = requests * 60;
    // Checkpoint every ~1/6th of the horizon: several checkpoints per run,
    // so power losses land both before and after truncation rounds.
    let interval = horizon / 6 + splitmix(&mut rng) % (horizon / 6);
    let mut clauses = Vec::new();
    match splitmix(&mut rng) % 4 {
        0 => {
            // Whole-partition power loss: all replicas wiped inside one
            // window, recovered staggered. The partition must come back
            // from checkpoint + WAL tail — there is no live peer to copy.
            let at = horizon / 4 + splitmix(&mut rng) % (horizon / 4);
            for r in 0..replicas {
                clauses.push(Clause::PowerLoss {
                    p: 0,
                    r,
                    at_us: at + splitmix(&mut rng) % 20,
                    recover_us: at + horizon / 4 + r as u64 * 40 + splitmix(&mut rng) % 40,
                });
            }
        }
        1 => {
            // Power loss aimed at a checkpoint boundary: land within ±¼
            // interval of a checkpointer tick, so some seeds cut power
            // while the image is flushing and the (atomic) file must still
            // restore consistently.
            let tick = 2 + splitmix(&mut rng) % 3;
            let jitter = splitmix(&mut rng) % (interval / 2);
            let at = tick * interval + jitter.saturating_sub(interval / 4);
            clauses.push(Clause::PowerLoss {
                p: 0,
                r: (splitmix(&mut rng) as usize) % replicas,
                at_us: at,
                recover_us: at + horizon / 4 + splitmix(&mut rng) % (horizon / 4),
            });
        }
        2 => {
            // Power loss just after a checkpoint boundary: the likeliest
            // window to interrupt WAL truncation (compaction under way).
            let tick = 2 + splitmix(&mut rng) % 3;
            let at = tick * interval + 1 + splitmix(&mut rng) % 10;
            clauses.push(Clause::PowerLoss {
                p: 0,
                r: (splitmix(&mut rng) as usize) % replicas,
                at_us: at,
                recover_us: at + horizon / 4 + splitmix(&mut rng) % (horizon / 4),
            });
        }
        _ => {
            // Restart, run a while, lose power again: the second restart
            // must pick up a checkpoint *newer* than the first one and
            // still converge with the replicas that never went down.
            let r = (splitmix(&mut rng) as usize) % replicas;
            let at1 = horizon / 6 + splitmix(&mut rng) % (horizon / 6);
            let up1 = at1 + interval + splitmix(&mut rng) % interval;
            let at2 = up1 + interval + splitmix(&mut rng) % interval;
            clauses.push(Clause::PowerLoss {
                p: 0,
                r,
                at_us: at1,
                recover_us: up1,
            });
            clauses.push(Clause::PowerLoss {
                p: 0,
                r,
                at_us: at2,
                recover_us: at2 + horizon / 4 + splitmix(&mut rng) % (horizon / 4),
            });
        }
    }
    // One benign clause on top, like the legacy generator mixes in.
    if splitmix(&mut rng).is_multiple_of(2) {
        clauses.push(Clause::Jitter {
            p: 0,
            r: (splitmix(&mut rng) as usize) % replicas,
            max_us: 5 + splitmix(&mut rng) % 25,
        });
    }
    Scenario {
        seed,
        partitions,
        replicas,
        accounts,
        clients,
        requests,
        clauses,
        width: 1,
        corrupt: None,
        durability_us: Some(interval),
    }
}

/// Derives a *parallel-execution* chaos scenario for a seed: the same bank
/// deployment driven through a width-4 executor pool, with fault clauses
/// biased toward the two interactions the pool adds — a replica crashing
/// while a batch of commands is spread across its workers, and a state
/// transfer racing workers still in flight (the responder must quiesce the
/// pool before snapshotting, the requester must cover the parked workers).
pub fn parallel_scenario_for_seed(seed: u64, quick: bool) -> Scenario {
    let mut sc = scenario_for_seed(seed, quick);
    sc.width = 4;
    let mut rng = seed ^ 0xA0761D6478BD642F;
    let horizon = sc.requests * 120;
    let victims: Vec<usize> = (0..sc.partitions)
        .map(|_| (splitmix(&mut rng) as usize) % sc.replicas)
        .collect();
    // Crash mid-batch: fire well inside the steady-state window so the
    // victim's pool almost certainly has in-flight workers, then recover
    // in time to force a state transfer against a still-running pool.
    sc.clauses = (0..sc.partitions)
        .map(|p| {
            let at = horizon / 4 + splitmix(&mut rng) % (horizon / 4);
            Clause::Crash {
                p: p as u16,
                r: victims[p],
                at_us: at,
                recover_us: at + horizon / 8 + splitmix(&mut rng) % (horizon / 4),
            }
        })
        .collect();
    sc
}

/// The recovery ladder's pool rung: a width-4 executor pool on the 2×3 bank
/// with durable checkpointing on, and one replica losing power mid-run.
/// Two partitions on purpose: the cut kills workers blocked in a
/// cross-partition barrier, and the booted driver cold-restarts, replaying
/// the WAL tail back through a fresh pool. (A minority loses power, never a whole
/// partition: see [`recovery_scenario_for_seed`] on multi-partition replay.)
pub fn pool_recovery_scenario_for_seed(seed: u64, quick: bool) -> Scenario {
    let mut sc = scenario_for_seed(seed, quick);
    sc.width = 4;
    let mut rng = seed ^ 0x8EBC_6AF0_9C88_C6E3;
    let horizon = sc.requests * 120;
    sc.durability_us = Some(horizon / 8 + splitmix(&mut rng) % (horizon / 8));
    // Early in the run, and back up well before the workload ends, so the
    // cold restart replays with clients still waiting on it: the victim's
    // driver wakes at the cut and rebuilds at the recovery.
    let at = horizon / 8 + splitmix(&mut rng) % (horizon / 8);
    sc.clauses = vec![Clause::PowerLoss {
        p: (splitmix(&mut rng) as usize % sc.partitions) as u16,
        r: (splitmix(&mut rng) as usize) % sc.replicas,
        at_us: at,
        recover_us: at + horizon / 16 + splitmix(&mut rng) % (horizon / 16),
    }];
    sc
}

fn build_plan(sc: &Scenario, cluster: &HeronCluster) -> FaultPlan {
    let mut plan = FaultPlan::new(sc.seed);
    for c in &sc.clauses {
        plan = match *c {
            Clause::Crash {
                p,
                r,
                at_us,
                recover_us,
            } => plan
                .crash_at(
                    cluster.replica_node(PartitionId(p), r).id(),
                    Duration::from_micros(at_us),
                )
                .recover_at(
                    cluster.replica_node(PartitionId(p), r).id(),
                    Duration::from_micros(recover_us),
                ),
            Clause::CrashOnVerb {
                p,
                r,
                nth,
                recover_us,
            } => plan
                .crash_on_verb(cluster.replica_node(PartitionId(p), r).id(), nth)
                .recover_at(
                    cluster.replica_node(PartitionId(p), r).id(),
                    Duration::from_micros(recover_us),
                ),
            Clause::Pause {
                p,
                r,
                from_us,
                until_us,
            } => plan.pause(
                cluster.replica_node(PartitionId(p), r).id(),
                Duration::from_micros(from_us),
                Duration::from_micros(until_us),
            ),
            Clause::Slowdown { p, r, factor } => {
                plan.slowdown(cluster.replica_node(PartitionId(p), r).id(), factor)
            }
            Clause::Jitter { p, r, max_us } => plan.jitter(
                cluster.replica_node(PartitionId(p), r).id(),
                Duration::from_micros(max_us),
            ),
            Clause::DropBurst { p, r, first, count } => {
                let node = cluster.replica_node(PartitionId(p), r).id();
                let mut pl = plan;
                for nth in first..first + count {
                    pl = pl.drop_verb(node, nth);
                }
                pl
            }
            Clause::PowerLoss {
                p,
                r,
                at_us,
                recover_us,
            } => plan
                .power_loss_at(
                    cluster.replica_node(PartitionId(p), r).id(),
                    Duration::from_micros(at_us),
                )
                .recover_at(
                    cluster.replica_node(PartitionId(p), r).id(),
                    Duration::from_micros(recover_us),
                ),
        };
    }
    plan
}

impl Scenario {
    /// The deployment this scenario describes: shape, executor width and,
    /// when durable, an NVMe device with the checkpointer at its interval.
    /// Callers of [`run_on`] add diagnostics on top.
    pub fn config(&self) -> HeronConfig {
        let cfg = HeronConfig::new(self.partitions, self.replicas).with_executor_width(self.width);
        match self.durability_us {
            Some(interval_us) => cfg.with_durability(
                sim::storage::Storage::new(sim::storage::DiskConfig::nvme()),
                Duration::from_micros(interval_us),
            ),
            None => cfg,
        }
    }
}

/// Runs one scenario to completion and checks it, returning the verdict
/// and the run's schedule hash. Deterministic: the same scenario always
/// yields the same pair.
pub fn run(sc: &Scenario) -> (RunResult, u64) {
    let simulation = sim::Simulation::new(sc.seed);
    let fabric = Fabric::new(LatencyModel::connectx4());
    let result = run_on(sc, &simulation, &fabric, sc.config());
    (result, simulation.schedule_hash())
}

/// Runs `sc` on a simulation, an empty fabric and a deployment config
/// (start from [`Scenario::config`]) the caller has prepared, so whatever
/// diagnostics are enabled on them ride along; the schedule fingerprint is
/// the caller's to read off `simulation` afterwards.
pub fn run_on(
    sc: &Scenario,
    simulation: &sim::Simulation,
    fabric: &Fabric,
    cfg: HeronConfig,
) -> RunResult {
    let bank = Arc::new(Bank::new(sc.partitions as u16, sc.accounts));
    let cluster = HeronCluster::build(fabric, cfg, bank);
    run_cluster(sc, simulation, fabric, &cluster)
}

/// The one scenario driver: spawns `cluster` (a [`Bank`] deployment built
/// on `fabric`), arms the scenario's faults, runs its clients to the end
/// and checks the result. The cluster stays the caller's to inspect.
pub fn run_cluster(
    sc: &Scenario,
    simulation: &sim::Simulation,
    fabric: &Fabric,
    cluster: &HeronCluster,
) -> RunResult {
    cluster.spawn(simulation);
    build_plan(sc, cluster).arm(simulation, fabric);

    let checker = Checker::new(sc.seed);
    let done = Arc::new(AtomicUsize::new(0));
    let (accounts, requests, clients, seed) = (sc.accounts, sc.requests, sc.clients, sc.seed);
    for c in 0..clients {
        let mut client = checker.client(cluster, format!("chaos{c}"));
        let done = done.clone();
        let c = c as u64;
        simulation.spawn(format!("chaos-client{c}"), move || {
            for i in 0..requests {
                let from = (seed + c * 13 + i * 7) % accounts;
                let to = (from + 1 + (i + c) % (accounts - 1)) % accounts;
                if from == to || i % 5 == 4 {
                    client.execute(&enc_read(from));
                } else {
                    client.execute(&enc_transfer(from, to, 1 + i % 9));
                }
            }
            for a in 0..accounts {
                client.execute(&enc_read(a));
            }
            if done.fetch_add(1, Ordering::SeqCst) + 1 == clients {
                sim::sleep(Duration::from_millis(10));
                sim::stop();
            }
        });
    }
    // A deadlock counts as a stall: the workload cannot finish.
    let deadlocked = simulation.run_until(SimTime::from_secs(30)).is_err();
    let history = checker.history();
    let pending = history.iter().filter(|o| !o.completed()).count();
    if deadlocked || pending > 0 {
        return RunResult::Stalled {
            pending: pending.max(1),
        };
    }
    if let Some((p, r, oid)) = sc.corrupt {
        cluster.corrupt_value(PartitionId(p), r, ObjectId(oid));
    }
    match checker.check(cluster, &BankSpec { accounts }) {
        Ok(()) => RunResult::Pass { ops: history.len() },
        Err(v) => RunResult::Failed(v),
    }
}

/// Shrinks a failing scenario to a minimal reproduction: greedily removes
/// fault clauses, then halves the per-client request count, then drops
/// clients — keeping each reduction only if the scenario still fails.
/// Returns the smallest still-failing scenario and its result.
pub fn shrink(sc: &Scenario) -> (Scenario, RunResult) {
    let mut best = sc.clone();
    let mut best_result = run(&best).0;
    assert!(best_result.failed(), "shrink called on a passing scenario");
    // 1. Remove clauses one at a time until no single removal still fails.
    loop {
        let mut improved = false;
        for i in 0..best.clauses.len() {
            let mut cand = best.clone();
            cand.clauses.remove(i);
            let r = run(&cand).0;
            if r.failed() {
                best = cand;
                best_result = r;
                improved = true;
                break;
            }
        }
        if !improved {
            break;
        }
    }
    // 2. Halve the workload while it still fails.
    while best.requests > 2 {
        let mut cand = best.clone();
        cand.requests /= 2;
        let r = run(&cand).0;
        if r.failed() {
            best = cand;
            best_result = r;
        } else {
            break;
        }
    }
    // 3. Drop clients while it still fails.
    while best.clients > 1 {
        let mut cand = best.clone();
        cand.clients -= 1;
        let r = run(&cand).0;
        if r.failed() {
            best = cand;
            best_result = r;
        } else {
            break;
        }
    }
    (best, best_result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_deterministic_per_seed() {
        let a = scenario_for_seed(5, true);
        let b = scenario_for_seed(5, true);
        assert_eq!(a.clauses, b.clauses);
        assert!(!a.clauses.is_empty());
    }

    #[test]
    fn one_generated_scenario_passes() {
        let sc = scenario_for_seed(1, true);
        match run(&sc).0 {
            RunResult::Pass { ops } => assert!(ops > 0),
            other => panic!("seed 1 must pass, got {other:?}"),
        }
    }

    #[test]
    fn one_parallel_scenario_passes() {
        let sc = parallel_scenario_for_seed(1, true);
        assert_eq!(sc.width, 4);
        assert!(!sc.clauses.is_empty());
        match run(&sc).0 {
            RunResult::Pass { ops } => assert!(ops > 0),
            other => panic!("parallel seed 1 must pass, got {other:?}"),
        }
    }

    /// Seed 9053 cuts a follower's power while it applies a log entry,
    /// 9055 the leader's inside a WAL append: both once delivered a wiped
    /// log slot (DESIGN.md §14, "recovery vs. ordering").
    #[test]
    fn one_recovery_scenario_passes() {
        for seed in [1, 9053, 9055] {
            let sc = recovery_scenario_for_seed(seed, true);
            assert!(sc.durability_us.is_some());
            assert!(sc
                .clauses
                .iter()
                .any(|c| matches!(c, Clause::PowerLoss { .. })));
            match run(&sc).0 {
                RunResult::Pass { ops } => assert!(ops > 0),
                other => panic!("recovery seed {seed} must pass, got {other:?}"),
            }
        }
    }

    #[test]
    fn corruption_is_detected_and_shrinks_to_minimum() {
        let mut sc = scenario_for_seed(2, true);
        sc.corrupt = Some((0, 1, 0));
        let first = run(&sc).0;
        assert!(
            first.failed(),
            "corruption must fail the checker: {first:?}"
        );
        let (min, result) = shrink(&sc);
        // The corruption is independent of the fault plan and the workload
        // size, so the minimal reproduction strips all clauses and shrinks
        // the workload to the floor.
        assert!(
            min.clauses.is_empty(),
            "clauses not shrunk: {:?}",
            min.clauses
        );
        assert!(min.requests <= 3, "workload not shrunk: {}", min.requests);
        assert_eq!(min.clients, 1);
        match result {
            RunResult::Failed(v) => {
                assert_eq!(v.seed, 2);
                assert_eq!(v.check, "store");
                // The report names the seed and the corrupted object.
                let msg = v.to_string();
                assert!(msg.contains("seed 2"), "{msg}");
                assert!(msg.contains("obj:0x0"), "{msg}");
            }
            other => panic!("expected a violation, got {other:?}"),
        }
    }
}
