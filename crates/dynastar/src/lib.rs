//! DynaStar-style message-passing partitioned SMR — the baseline Heron is
//! compared against in the paper's Fig. 5 (§V-C2).
//!
//! The model follows the paper's description of DynaStar:
//!
//! * a **location oracle** holds the object→partition mapping and routes
//!   every command (it doubles as the ordering sequencer, assigning
//!   per-partition sequence numbers atomically — the role Multi-Ridge
//!   plays in the original system);
//! * each partition is a replicated group; the leader orders commands by
//!   sequence number and **replicates them to its followers over the
//!   network**, waiting for a majority;
//! * a **multi-partition command is executed by a single partition**: the
//!   other involved partitions first *move* the objects the command needs
//!   to the executor, which executes and ships the updated objects back —
//!   the "rounds of message exchanges" that give DynaStar its ~10×
//!   multi-partition latency penalty;
//! * everything travels over a kernel TCP network ([`netsim`], 0.1 ms
//!   round trip as in the paper's testbed) and pays per-message CPU.
//!
//! The `COMMAND_CPU` cost models the paper's measured per-command overhead
//! of the Java prototype (protocol stack, message (de)serialization,
//! state-machine dispatch); see `DESIGN.md` §7 for calibration.
//!
//! The same [`heron_core::StateMachine`] application runs unmodified on
//! both systems, so Fig. 5 compares identical workloads.
#![forbid(unsafe_code)]
// A `for` over a `HashMap`/`HashSet` runs in `RandomState` order, which
// differs per process: anything it posts, or reports first, stops replaying.
#![deny(clippy::iter_over_hash_type)]

use bytes::Bytes;
use heron_core::{Execution, LocalReader, Metrics, ObjectId, PartitionId, ReadSet, StateMachine};
use netsim::{Endpoint, EndpointId, NetLatency, Network};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

/// Modeled CPU of the baseline's Java prototype: oracle work per command (map lookup, route computation).
const ORACLE_CPU: Duration = Duration::from_micros(20);
/// Leader work per command: ordering protocol, replication bookkeeping,
/// full (de)serialization of the command and state through the Java stack.
const COMMAND_CPU: Duration = Duration::from_micros(350);
/// Extra cost per object moved between partitions.
const PER_MOVED_OBJECT_CPU: Duration = Duration::from_micros(15);

/// Baseline deployment configuration. Every message travels over
/// [`NetLatency::datacenter_tcp`].
#[derive(Debug, Clone)]
pub struct DynaStarConfig {
    /// Number of partitions.
    pub partitions: usize,
    /// Replicas per partition (leader + followers).
    pub replicas_per_partition: usize,
}

impl DynaStarConfig {
    /// A deployment of `partitions` × `replicas_per_partition`.
    pub fn new(partitions: usize, replicas_per_partition: usize) -> Self {
        DynaStarConfig {
            partitions,
            replicas_per_partition,
        }
    }
}

type CmdId = u64;

enum Msg {
    /// Client → oracle.
    ClientReq {
        id: CmdId,
        client: EndpointId,
        payload: Vec<u8>,
    },
    /// Oracle → involved leaders.
    Ordered {
        id: CmdId,
        client: EndpointId,
        payload: Arc<Vec<u8>>,
        pseq: u64,
        executor: PartitionId,
        involved: Vec<PartitionId>,
    },
    /// Leader → followers.
    Replicate { id: CmdId },
    /// Follower → leader.
    ReplAck { id: CmdId },
    /// Non-executor leader → executor: the objects the command reads.
    MoveObjects {
        id: CmdId,
        from: PartitionId,
        objects: Vec<(ObjectId, Bytes)>,
    },
    /// Executor → non-executor leaders: updated objects.
    WriteBack {
        id: CmdId,
        writes: Vec<(ObjectId, Bytes)>,
    },
    /// Executor leader → client.
    Reply { id: CmdId, response: Bytes },
}

fn objects_size(objs: &[(ObjectId, Bytes)]) -> usize {
    objs.iter().map(|(_, b)| b.len() + 16).sum()
}

struct MapReader<'a>(&'a HashMap<ObjectId, Bytes>);

impl LocalReader for MapReader<'_> {
    fn read(&self, oid: ObjectId) -> Option<Bytes> {
        self.0.get(&oid).cloned()
    }
}

/// A DynaStar deployment handle.
#[derive(Clone)]
pub struct DynaStar {
    inner: Rc<Inner>,
}

struct Inner {
    cfg: DynaStarConfig,
    app: Arc<dyn StateMachine>,
    net: Network<Msg>,
    oracle: EndpointId,
    leaders: Vec<EndpointId>,
    followers: Vec<Vec<EndpointId>>,
    metrics: Arc<Metrics>,
    /// Authoritative leader stores, exposed for test inspection.
    stores: Vec<Arc<Mutex<HashMap<ObjectId, Bytes>>>>,
}

impl fmt::Debug for DynaStar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DynaStar")
            .field("partitions", &self.inner.cfg.partitions)
            .finish()
    }
}

impl DynaStar {
    /// Builds the baseline deployment.
    pub fn build(cfg: DynaStarConfig, app: Arc<dyn StateMachine>) -> Self {
        let net: Network<Msg> = Network::new(NetLatency::datacenter_tcp());
        let oracle = net.add_endpoint("oracle").id();
        let mut leaders = Vec::new();
        let mut followers = Vec::new();
        let mut stores = Vec::new();
        for p in 0..cfg.partitions {
            leaders.push(net.add_endpoint(format!("ds-p{p}-leader")).id());
            followers.push(
                (1..cfg.replicas_per_partition)
                    .map(|i| net.add_endpoint(format!("ds-p{p}-f{i}")).id())
                    .collect::<Vec<_>>(),
            );
            let store: HashMap<ObjectId, Bytes> =
                app.bootstrap(PartitionId(p as u16)).into_iter().collect();
            stores.push(Arc::new(Mutex::new(store)));
        }
        DynaStar {
            inner: Rc::new(Inner {
                metrics: Arc::new(Metrics::new(cfg.partitions)),
                cfg,
                app,
                net,
                oracle,
                leaders,
                followers,
                stores,
            }),
        }
    }

    /// Cluster metrics (client latencies, throughput).
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.inner.metrics)
    }

    /// Reads a committed value at a partition leader (tests).
    pub fn peek(&self, p: PartitionId, oid: ObjectId) -> Option<Bytes> {
        self.inner.stores[p.0 as usize].lock().get(&oid).cloned()
    }

    /// Spawns the oracle, leaders and followers.
    pub fn spawn(&self, simulation: &sim::Simulation) {
        let inner = Rc::clone(&self.inner);
        let oracle_ep = self.inner.net.endpoint(self.inner.oracle);
        simulation.spawn("ds-oracle", move || run_oracle(inner, oracle_ep));
        for p in 0..self.inner.cfg.partitions {
            let inner = Rc::clone(&self.inner);
            let ep = self.inner.net.endpoint(self.inner.leaders[p]);
            simulation.spawn(format!("ds-leader-p{p}"), move || {
                run_leader(inner, PartitionId(p as u16), ep)
            });
            for (i, f) in self.inner.followers[p].iter().enumerate() {
                let inner = Rc::clone(&self.inner);
                let ep = self.inner.net.endpoint(*f);
                simulation.spawn(format!("ds-follower-p{p}-{i}"), move || {
                    run_follower(inner, ep)
                });
            }
        }
    }

    /// Attaches a closed-loop client.
    pub fn client(&self, name: impl Into<String>) -> DynaStarClient {
        let ep = self
            .inner
            .net
            .add_endpoint(format!("ds-client-{}", name.into()));
        DynaStarClient {
            inner: Rc::clone(&self.inner),
            ep,
            next_id: 1,
        }
    }
}

fn run_oracle(inner: Rc<Inner>, ep: Endpoint<Msg>) {
    let mut pseq = vec![0u64; inner.cfg.partitions];
    loop {
        let (_, msg) = ep.recv();
        let Msg::ClientReq {
            id,
            client,
            payload,
        } = msg
        else {
            continue;
        };
        sim::sleep(ORACLE_CPU);
        let involved = inner.app.destinations(&payload);
        let executor = involved[0];
        let payload = Arc::new(payload);
        for p in &involved {
            pseq[p.0 as usize] += 1;
            let m = Msg::Ordered {
                id,
                client,
                payload: Arc::clone(&payload),
                pseq: pseq[p.0 as usize],
                executor,
                involved: involved.clone(),
            };
            ep.send(inner.leaders[p.0 as usize], m, payload.len() + 64);
        }
    }
}

/// What a leader still needs before it can finish the command at the head
/// of its queue.
enum Stage {
    Replicating { acks_left: usize },
    AwaitMoves,
    AwaitWriteBack,
    Done,
}

/// Commands a leader has received, ordered by partition sequence number:
/// `(id, client, payload, executor, involved)`.
type CommandQueue = BTreeMap<
    u64,
    (
        CmdId,
        EndpointId,
        Arc<Vec<u8>>,
        PartitionId,
        Vec<PartitionId>,
    ),
>;

struct InFlight {
    id: CmdId,
    client: EndpointId,
    payload: Arc<Vec<u8>>,
    executor: PartitionId,
    involved: Vec<PartitionId>,
    stage: Stage,
    moved: HashMap<ObjectId, Bytes>,
    moved_from: HashSet<PartitionId>,
}

fn run_leader(inner: Rc<Inner>, me: PartitionId, ep: Endpoint<Msg>) {
    let store = Arc::clone(&inner.stores[me.0 as usize]);
    let majority_acks = inner.cfg.replicas_per_partition / 2; // besides self
    let mut next_seq = 1u64;
    let mut queue: CommandQueue = BTreeMap::new();
    let mut current: Option<InFlight> = None;
    // Protocol messages that arrived before we reached their command.
    let mut early_moves: HashMap<CmdId, HashMap<ObjectId, Bytes>> = HashMap::new();
    let mut early_move_from: HashMap<CmdId, HashSet<PartitionId>> = HashMap::new();
    let mut early_acks: HashMap<CmdId, usize> = HashMap::new();
    let mut early_writeback: HashMap<CmdId, Vec<(ObjectId, Bytes)>> = HashMap::new();

    loop {
        // Start the next command if idle.
        if current.is_none() {
            if let Some((&seq, _)) = queue.first_key_value() {
                if seq == next_seq {
                    let (id, client, payload, executor, involved) =
                        queue.remove(&seq).expect("head of queue");
                    next_seq += 1;
                    // Half the paper-calibrated per-command CPU up front
                    // (ordering + replication side), half at execution.
                    sim::sleep(COMMAND_CPU / 2);
                    for f in &inner.followers[me.0 as usize] {
                        ep.send(*f, Msg::Replicate { id }, payload.len() + 32);
                    }
                    let mut inflight = InFlight {
                        id,
                        client,
                        payload,
                        executor,
                        involved,
                        stage: Stage::Replicating {
                            acks_left: majority_acks
                                .saturating_sub(early_acks.remove(&id).unwrap_or(0)),
                        },
                        moved: early_moves.remove(&id).unwrap_or_default(),
                        moved_from: early_move_from.remove(&id).unwrap_or_default(),
                    };
                    advance(&inner, me, &ep, &store, &mut inflight, &mut early_writeback);
                    if !matches!(inflight.stage, Stage::Done) {
                        current = Some(inflight);
                    }
                    continue;
                }
            }
        }
        let (_, msg) = ep.recv();
        match msg {
            Msg::Ordered {
                id,
                client,
                payload,
                pseq,
                executor,
                involved,
            } => {
                queue.insert(pseq, (id, client, payload, executor, involved));
            }
            Msg::ReplAck { id } => match current.as_mut() {
                Some(cur) if cur.id == id => {
                    if let Stage::Replicating { acks_left } = &mut cur.stage {
                        *acks_left = acks_left.saturating_sub(1);
                    }
                }
                _ => *early_acks.entry(id).or_default() += 1,
            },
            Msg::MoveObjects { id, from, objects } => match current.as_mut() {
                Some(cur) if cur.id == id => {
                    cur.moved_from.insert(from);
                    cur.moved.extend(objects);
                }
                _ => {
                    early_moves.entry(id).or_default().extend(objects);
                    early_move_from.entry(id).or_default().insert(from);
                }
            },
            Msg::WriteBack { id, writes } => match current.as_mut() {
                Some(cur) if cur.id == id => {
                    let mut s = store.lock();
                    for (oid, v) in &writes {
                        s.insert(*oid, v.clone());
                    }
                    cur.stage = Stage::Done;
                }
                _ => {
                    early_writeback.insert(id, writes);
                }
            },
            _ => {}
        }
        // Try to make progress on the current command.
        if let Some(mut cur) = current.take() {
            advance(&inner, me, &ep, &store, &mut cur, &mut early_writeback);
            if !matches!(cur.stage, Stage::Done) {
                current = Some(cur);
            }
        }
    }
}

/// Drives a command through its stages as far as currently possible.
fn advance(
    inner: &Rc<Inner>,
    me: PartitionId,
    ep: &Endpoint<Msg>,
    store: &Arc<Mutex<HashMap<ObjectId, Bytes>>>,
    cur: &mut InFlight,
    early_writeback: &mut HashMap<CmdId, Vec<(ObjectId, Bytes)>>,
) {
    loop {
        match &cur.stage {
            Stage::Replicating { acks_left } => {
                if *acks_left > 0 {
                    return;
                }
                if cur.executor == me {
                    if cur.involved.len() > 1 {
                        cur.stage = Stage::AwaitMoves;
                        continue;
                    }
                    execute_and_reply(inner, me, ep, store, cur);
                    cur.stage = Stage::Done;
                    return;
                }
                // Non-executor: ship our share of the read set to the
                // executor, then wait for the updated objects.
                let rs = inner.app.read_set_at(me, &cur.payload);
                let objects: Vec<(ObjectId, Bytes)> = {
                    let s = store.lock();
                    rs.iter()
                        .filter_map(|oid| s.get(oid).map(|v| (*oid, v.clone())))
                        .collect()
                };
                sim::sleep(PER_MOVED_OBJECT_CPU * objects.len() as u32);
                let size = objects_size(&objects);
                ep.send(
                    inner.leaders[cur.executor.0 as usize],
                    Msg::MoveObjects {
                        id: cur.id,
                        from: me,
                        objects,
                    },
                    size + 32,
                );
                if let Some(writes) = early_writeback.remove(&cur.id) {
                    let mut s = store.lock();
                    for (oid, v) in writes {
                        s.insert(oid, v);
                    }
                    cur.stage = Stage::Done;
                    return;
                }
                cur.stage = Stage::AwaitWriteBack;
                return;
            }
            Stage::AwaitMoves => {
                let all_in = cur
                    .involved
                    .iter()
                    .all(|p| *p == me || cur.moved_from.contains(p));
                if !all_in {
                    return;
                }
                execute_and_reply(inner, me, ep, store, cur);
                cur.stage = Stage::Done;
                return;
            }
            Stage::AwaitWriteBack | Stage::Done => return,
        }
    }
}

/// Executes the command at the executor partition: runs the application
/// once per involved partition (gathering each partition's writes), applies
/// local writes, ships the rest back, and answers the client.
fn execute_and_reply(
    inner: &Rc<Inner>,
    me: PartitionId,
    ep: &Endpoint<Msg>,
    store: &Arc<Mutex<HashMap<ObjectId, Bytes>>>,
    cur: &mut InFlight,
) {
    // Build the full read set: local objects + moved-in objects.
    let local_map: HashMap<ObjectId, Bytes> = {
        let s = store.lock();
        let mut m = s.clone();
        m.extend(cur.moved.clone());
        m
    };
    let mut reads = ReadSet::new();
    for oid in inner.app.read_set(&cur.payload) {
        if let Some(v) = local_map.get(&oid) {
            reads.insert(oid, v.clone());
        }
    }
    sim::sleep(COMMAND_CPU / 2);
    sim::sleep(PER_MOVED_OBJECT_CPU * cur.moved.len() as u32);
    // One deterministic execution per involved partition gathers that
    // partition's writes; the home partition's response answers the client.
    let reader = MapReader(&local_map);
    let mut response = Bytes::new();
    let mut per_partition_writes: HashMap<PartitionId, Vec<(ObjectId, Bytes)>> = HashMap::new();
    for p in cur.involved.clone() {
        let exec: Execution = inner.app.execute(p, &cur.payload, &reads, &reader);
        if p == cur.involved[0] {
            sim::sleep(exec.compute);
            response = exec.response.clone();
        }
        for (oid, v) in exec.writes {
            per_partition_writes
                .entry(match inner.app.placement(oid) {
                    heron_core::Placement::Partition(h) => h,
                    heron_core::Placement::Replicated => p,
                })
                .or_default()
                .push((oid, v));
        }
    }
    // Apply our own writes.
    if let Some(w) = per_partition_writes.remove(&me) {
        let mut s = store.lock();
        for (oid, v) in w {
            s.insert(oid, v);
        }
    }
    // Ship the others back.
    for p in cur.involved.clone() {
        if p == me {
            continue;
        }
        let writes = per_partition_writes.remove(&p).unwrap_or_default();
        let size = objects_size(&writes);
        ep.send(
            inner.leaders[p.0 as usize],
            Msg::WriteBack { id: cur.id, writes },
            size + 32,
        );
    }
    ep.send(
        cur.client,
        Msg::Reply {
            id: cur.id,
            response: response.clone(),
        },
        response.len() + 32,
    );
}

fn run_follower(inner: Rc<Inner>, ep: Endpoint<Msg>) {
    loop {
        let (from, msg) = ep.recv();
        if let Msg::Replicate { id } = msg {
            sim::sleep(Duration::from_micros(5));
            ep.send(from, Msg::ReplAck { id }, 32);
        }
        let _ = &inner;
    }
}

/// A closed-loop DynaStar client.
pub struct DynaStarClient {
    inner: Rc<Inner>,
    ep: Endpoint<Msg>,
    next_id: CmdId,
}

impl fmt::Debug for DynaStarClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DynaStarClient")
            .field("next_id", &self.next_id)
            .finish()
    }
}

impl DynaStarClient {
    /// Executes one command and blocks for the executor's response.
    pub fn execute(&mut self, request: &[u8]) -> Bytes {
        // Command ids must be globally unique: the leaders' move/ack/
        // write-back bookkeeping is keyed by them across all clients.
        let id = (u64::from(self.ep.id().0) << 32) | self.next_id;
        self.next_id += 1;
        let t0 = sim::now();
        self.ep.send(
            self.inner.oracle,
            Msg::ClientReq {
                id,
                client: self.ep.id(),
                payload: request.to_vec(),
            },
            request.len() + 48,
        );
        loop {
            let (_, msg) = self.ep.recv();
            if let Msg::Reply { id: rid, response } = msg {
                if rid == id {
                    self.inner.metrics.record_latency(sim::now() - t0);
                    return response;
                }
            }
        }
    }
}
