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
//! * everything travels as two-sided sends over an [`rdma_sim::Fabric`]
//!   run under kernel-TCP constants (0.1 ms round trip as in the paper's
//!   testbed, socket-stack CPU per message); each message is encoded to
//!   bytes, so its wire size is its encoded length.
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
use parking_lot::{Mutex, MutexGuard};
use rdma_sim::{Fabric, LatencyModel, Node, NodeId};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

/// The network every DynaStar message crosses: the paper's testbed as a
/// kernel/TCP application sees it — ≈ 0.1 ms round trip, plus the socket
/// stack's CPU per message, charged to the sender as the post. The link is
/// the RDMA fabric's 25 Gbps one.
const KERNEL_TCP: LatencyModel = LatencyModel {
    post_ns: 3_000,
    one_way_ns: 50_000,
    ns_per_kib: 328,
};

/// Modeled CPU of the baseline's Java prototype: oracle work per command (map lookup, route computation).
const ORACLE_CPU: Duration = Duration::from_micros(20);
/// Leader work per command: ordering protocol, replication bookkeeping,
/// full (de)serialization of the command and state through the Java stack.
const COMMAND_CPU: Duration = Duration::from_micros(350);
/// Extra cost per object moved between partitions.
const PER_MOVED_OBJECT_CPU: Duration = Duration::from_micros(15);

/// Baseline deployment configuration. Every message travels over a
/// fabric with kernel-TCP latencies.
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

/// Declares `Msg` and its wire form: the kind's tag byte, then its fields
/// in order.
macro_rules! messages {
    ($($(#[$doc:meta])* $kind:ident = $tag:literal { $($field:ident: $ty:ty),* $(,)? },)*) => {
        #[cfg_attr(test, derive(Debug, PartialEq))]
        enum Msg {
            $($(#[$doc])* $kind { $($field: $ty),* },)*
        }

        impl Msg {
            fn encode(&self) -> Vec<u8> {
                let mut out = Vec::new();
                match self {
                    $(Msg::$kind { $($field),* } => {
                        out.push($tag);
                        $($field.put(&mut out);)*
                    })*
                }
                out
            }

            fn decode(buf: Bytes) -> Msg {
                let mut c = Cursor { buf, at: 0 };
                match c.take::<u8>() {
                    $($tag => Msg::$kind { $($field: c.take()),* },)*
                    tag => unreachable!("unknown message tag {tag}"),
                }
            }
        }
    };
}

messages! {
    /// Client → oracle.
    ClientReq = 0 { id: CmdId, payload: Bytes },
    /// Oracle → involved leaders.
    Ordered = 1 {
        id: CmdId,
        client: NodeId,
        payload: Bytes,
        pseq: u64,
        executor: PartitionId,
        involved: Vec<PartitionId>
    },
    /// Leader → followers.
    Replicate = 2 { id: CmdId, payload: Bytes },
    /// Follower → leader.
    ReplAck = 3 { id: CmdId },
    /// Non-executor leader → executor: the objects the command reads.
    MoveObjects = 4 { id: CmdId, from: PartitionId, objects: Vec<(ObjectId, Bytes)> },
    /// Executor → non-executor leaders: updated objects.
    WriteBack = 5 { id: CmdId, writes: Vec<(ObjectId, Bytes)> },
    /// Executor leader → client.
    Reply = 6 { id: CmdId, response: Bytes },
}

/// A message field's wire form: integers little-endian, byte strings and
/// lists behind a `u32` length.
trait Wire {
    fn put(&self, out: &mut Vec<u8>);
    fn take(c: &mut Cursor) -> Self;
}

/// A received message and how far into it decoding has read.
struct Cursor {
    buf: Bytes,
    at: usize,
}

impl Cursor {
    fn take<T: Wire>(&mut self) -> T {
        T::take(self)
    }

    fn next(&mut self, n: usize) -> std::ops::Range<usize> {
        self.at += n;
        self.at - n..self.at
    }
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn take(c: &mut Cursor) -> Self {
                let at = c.next(std::mem::size_of::<$t>());
                <$t>::from_le_bytes(c.buf[at].try_into().expect("fixed width"))
            }
        }
    )*};
}
wire_int!(u8, u16, u32, u64);

macro_rules! wire_newtype {
    ($($t:ident),*) => {$(
        impl Wire for $t {
            fn put(&self, out: &mut Vec<u8>) {
                self.0.put(out);
            }
            fn take(c: &mut Cursor) -> Self {
                $t(c.take())
            }
        }
    )*};
}
wire_newtype!(NodeId, PartitionId, ObjectId);

impl Wire for Bytes {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        out.extend_from_slice(self);
    }
    fn take(c: &mut Cursor) -> Self {
        let len = c.take::<u32>() as usize;
        let at = c.next(len);
        c.buf.slice(at)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        for item in self {
            item.put(out);
        }
    }
    fn take(c: &mut Cursor) -> Self {
        (0..c.take::<u32>()).map(|_| c.take()).collect()
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn take(c: &mut Cursor) -> Self {
        (c.take(), c.take())
    }
}

/// Sends `msg` from `from` to `to`, its encoded length on the wire.
fn send(from: &Node, to: &Node, msg: &Msg) {
    from.connect(to)
        .send(msg.encode())
        .expect("DynaStar nodes never crash");
}

/// Blocks for the next message to `node`: `(sender, message)`.
fn recv(node: &Node) -> (NodeId, Msg) {
    let message = node.recv();
    (message.from, Msg::decode(message.payload))
}

/// A leader's store, locked, with the objects moved in for its command
/// laid over it.
struct Overlay<'a> {
    moved: &'a HashMap<ObjectId, Bytes>,
    store: MutexGuard<'a, HashMap<ObjectId, Bytes>>,
}

impl LocalReader for Overlay<'_> {
    fn read(&self, oid: ObjectId) -> Option<Bytes> {
        self.moved
            .get(&oid)
            .or_else(|| self.store.get(&oid))
            .cloned()
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
    fabric: Fabric,
    oracle: Node,
    leaders: Vec<Node>,
    followers: Vec<Vec<Node>>,
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
        let fabric = Fabric::new(KERNEL_TCP);
        let oracle = fabric.add_node("oracle");
        let mut leaders = Vec::new();
        let mut followers = Vec::new();
        let mut stores = Vec::new();
        for p in 0..cfg.partitions {
            leaders.push(fabric.add_node(format!("ds-p{p}-leader")));
            followers.push(
                (1..cfg.replicas_per_partition)
                    .map(|i| fabric.add_node(format!("ds-p{p}-f{i}")))
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
                fabric,
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
        simulation.spawn("ds-oracle", move || run_oracle(inner));
        for p in 0..self.inner.cfg.partitions {
            let inner = Rc::clone(&self.inner);
            simulation.spawn(format!("ds-leader-p{p}"), move || {
                run_leader(inner, PartitionId(p as u16))
            });
            for (i, f) in self.inner.followers[p].iter().enumerate() {
                let (node, leader) = (f.clone(), self.inner.leaders[p].clone());
                simulation.spawn(format!("ds-follower-p{p}-{i}"), move || {
                    run_follower(node, leader)
                });
            }
        }
    }

    /// Attaches a closed-loop client.
    pub fn client(&self, name: impl Into<String>) -> DynaStarClient {
        let node = self
            .inner
            .fabric
            .add_node(format!("ds-client-{}", name.into()));
        DynaStarClient {
            inner: Rc::clone(&self.inner),
            node,
            next_id: 1,
        }
    }
}

fn run_oracle(inner: Rc<Inner>) {
    let mut pseq = vec![0u64; inner.cfg.partitions];
    loop {
        let (client, Msg::ClientReq { id, payload }) = recv(&inner.oracle) else {
            continue;
        };
        sim::sleep(ORACLE_CPU);
        let involved = inner.app.destinations(&payload);
        let executor = involved[0];
        for p in &involved {
            pseq[p.0 as usize] += 1;
            let m = Msg::Ordered {
                id,
                client,
                payload: payload.clone(),
                pseq: pseq[p.0 as usize],
                executor,
                involved: involved.clone(),
            };
            send(&inner.oracle, &inner.leaders[p.0 as usize], &m);
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
type CommandQueue = BTreeMap<u64, (CmdId, NodeId, Bytes, PartitionId, Vec<PartitionId>)>;

struct InFlight {
    id: CmdId,
    client: NodeId,
    payload: Bytes,
    executor: PartitionId,
    involved: Vec<PartitionId>,
    stage: Stage,
    moved: HashMap<ObjectId, Bytes>,
    moved_from: HashSet<PartitionId>,
}

impl InFlight {
    /// What the command reads: `store`, locked until the view drops, under
    /// the objects moved in.
    fn view<'a>(&'a self, store: &'a Mutex<HashMap<ObjectId, Bytes>>) -> Overlay<'a> {
        Overlay {
            moved: &self.moved,
            store: store.lock(),
        }
    }
}

fn run_leader(inner: Rc<Inner>, me: PartitionId) {
    let node = &inner.leaders[me.0 as usize];
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
                    let replicate = Msg::Replicate {
                        id,
                        payload: payload.clone(),
                    };
                    for f in &inner.followers[me.0 as usize] {
                        send(node, f, &replicate);
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
                    advance(&inner, me, &store, &mut inflight, &mut early_writeback);
                    if !matches!(inflight.stage, Stage::Done) {
                        current = Some(inflight);
                    }
                    continue;
                }
            }
        }
        let (_, msg) = recv(node);
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
            advance(&inner, me, &store, &mut cur, &mut early_writeback);
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
                    execute_and_reply(inner, me, store, cur);
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
                let m = Msg::MoveObjects {
                    id: cur.id,
                    from: me,
                    objects,
                };
                let leaders = &inner.leaders;
                send(
                    &leaders[me.0 as usize],
                    &leaders[cur.executor.0 as usize],
                    &m,
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
                execute_and_reply(inner, me, store, cur);
                cur.stage = Stage::Done;
                return;
            }
            Stage::AwaitWriteBack | Stage::Done => return,
        }
    }
}

/// Executes the command at the executor partition: runs the application
/// once per involved partition (gathering each partition's writes), applies
/// local writes, ships the rest back, and answers the client. The
/// application reads the leader's store with the moved-in objects laid
/// over it; the store is locked only while it reads, never across a sleep.
fn execute_and_reply(
    inner: &Rc<Inner>,
    me: PartitionId,
    store: &Arc<Mutex<HashMap<ObjectId, Bytes>>>,
    cur: &mut InFlight,
) {
    let node = &inner.leaders[me.0 as usize];
    let mut reads = ReadSet::new();
    let view = cur.view(store);
    for oid in inner.app.read_set(&cur.payload) {
        if let Some(v) = view.read(oid) {
            reads.insert(oid, v);
        }
    }
    drop(view);
    sim::sleep(COMMAND_CPU / 2);
    sim::sleep(PER_MOVED_OBJECT_CPU * cur.moved.len() as u32);
    // One deterministic execution per involved partition gathers that
    // partition's writes; the home partition's response answers the client.
    let mut response = Bytes::new();
    let mut per_partition_writes: HashMap<PartitionId, Vec<(ObjectId, Bytes)>> = HashMap::new();
    for p in cur.involved.clone() {
        let exec: Execution = inner.app.execute(p, &cur.payload, &reads, &cur.view(store));
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
        let m = Msg::WriteBack { id: cur.id, writes };
        send(node, &inner.leaders[p.0 as usize], &m);
    }
    let m = Msg::Reply {
        id: cur.id,
        response,
    };
    send(node, &inner.fabric.node(cur.client), &m);
}

fn run_follower(node: Node, leader: Node) {
    loop {
        if let (_, Msg::Replicate { id, .. }) = recv(&node) {
            sim::sleep(Duration::from_micros(5));
            send(&node, &leader, &Msg::ReplAck { id });
        }
    }
}

/// A closed-loop DynaStar client.
pub struct DynaStarClient {
    inner: Rc<Inner>,
    node: Node,
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
        let id = (u64::from(self.node.id().0) << 32) | self.next_id;
        self.next_id += 1;
        let t0 = sim::now();
        let m = Msg::ClientReq {
            id,
            payload: Bytes::copy_from_slice(request),
        };
        send(&self.node, &self.inner.oracle, &m);
        loop {
            if let (_, Msg::Reply { id: rid, response }) = recv(&self.node) {
                if rid == id {
                    self.inner.metrics.record_latency(sim::now() - t0);
                    return response;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_message_kind_decodes_to_what_was_encoded() {
        let objects = vec![
            (ObjectId(7), Bytes::from(vec![1, 2, 3])),
            (ObjectId(9), Bytes::new()),
        ];
        let payload = Bytes::from(b"txn".to_vec());
        let msgs = [
            Msg::ClientReq {
                id: 1,
                payload: payload.clone(),
            },
            Msg::Ordered {
                id: 2,
                client: NodeId(5),
                payload: payload.clone(),
                pseq: 3,
                executor: PartitionId(1),
                involved: vec![PartitionId(1), PartitionId(0)],
            },
            Msg::Replicate { id: 4, payload },
            Msg::ReplAck { id: 5 },
            Msg::MoveObjects {
                id: 6,
                from: PartitionId(2),
                objects: objects.clone(),
            },
            Msg::WriteBack {
                id: 7,
                writes: objects,
            },
            Msg::Reply {
                id: 8,
                response: Bytes::from(vec![0; 40]),
            },
        ];
        for msg in msgs {
            assert_eq!(Msg::decode(Bytes::from(msg.encode())), msg);
        }
        // A tag and the id: the wire size is the encoded length.
        assert_eq!(Msg::ReplAck { id: 5 }.encode().len(), 9);
    }
}
