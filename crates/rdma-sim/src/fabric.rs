//! Nodes, registered memory, and the fabric that connects them.

use crate::error::{RdmaError, RdmaResult};
use crate::latency::LatencyModel;
use sim::{Cond, Mailbox};
use std::cell::{Cell, OnceCell, RefCell, RefMut};
use std::fmt;
use std::ops::Range;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identifier of a fabric node (one RDMA-capable endpoint).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node#{}", self.0)
    }
}

/// A byte address within a node's registered memory. Word-granularity verbs
/// require 8-byte alignment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(pub u64);

impl Addr {
    /// The address `bytes` further into the region.
    pub const fn offset(self, bytes: u64) -> Addr {
        Addr(self.0 + bytes)
    }

    /// Whether this address may be used with word-granularity verbs.
    pub const fn is_word_aligned(self) -> bool {
        self.0.is_multiple_of(8)
    }
}

/// A ring of `slots` fixed-size entries in one node's registered memory,
/// written by a single writer that numbers its entries with a private
/// *stamp* counting from 1 and leads each entry with it: entry `stamp`
/// lives in slot `(stamp - 1) % slots`, so the stamp a reader finds in a
/// slot says which lap of the ring it is looking at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ring {
    /// Address of slot 0.
    pub base: Addr,
    /// Number of slots.
    pub slots: usize,
    /// Bytes per slot, header included.
    pub entry: usize,
}

impl Ring {
    /// The slot entry `stamp` (1-based) is written to and read from.
    pub const fn slot(&self, stamp: u64) -> Addr {
        self.base
            .offset(((stamp - 1) % self.slots as u64) * self.entry as u64)
    }

    /// Bytes the whole ring occupies.
    pub const fn size(&self) -> usize {
        self.slots * self.entry
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

/// A two-sided message delivered through [`Node::recv`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// The sending node.
    pub from: NodeId,
    /// Message payload. `Bytes` wraps the sender's buffer without copying
    /// and recycles it through the shim's pool on last drop, so sends do
    /// not hit the global allocator (deref to `&[u8]` to read).
    pub payload: bytes::Bytes,
}

/// Counters of fabric activity, readable at any time.
///
/// Benchmarks use these to verify protocol claims such as "the state
/// transfer protocol without data amounts to two RDMA writes".
///
/// The counters are atomics so that readers can keep loading them, but
/// they are written only from the thread that runs the simulation (a
/// [`Fabric`] is not `Send`), so a bump is a plain load and store, not a
/// read-modify-write.
#[derive(Debug, Default)]
pub struct FabricStats {
    /// Completed signaled reads.
    pub reads: AtomicU64,
    /// Completed signaled writes.
    pub writes: AtomicU64,
    /// Posted unsignaled writes.
    pub posted_writes: AtomicU64,
    /// Completed compare-and-swap verbs.
    pub cas_ops: AtomicU64,
    /// Two-sided sends.
    pub sends: AtomicU64,
    /// Total payload bytes fetched by reads.
    pub bytes_read: AtomicU64,
    /// Total payload bytes carried by (posted or signaled) writes.
    pub bytes_written: AtomicU64,
    /// Doorbell rings: one per individually posted verb, one per
    /// [`crate::WriteBatch`] regardless of how many writes it carries.
    /// `posted_writes / doorbells` is the achieved batching factor.
    pub doorbells: AtomicU64,
}

impl FabricStats {
    /// Books one posted verb: its doorbell, and `n` more on each of the
    /// verb's own `counts`.
    pub(crate) fn ring_doorbell(&self, counts: &[(&AtomicU64, usize)]) {
        bump(&self.doorbells, 1);
        for &(counter, n) in counts {
            bump(counter, n as u64);
        }
    }

    /// Snapshot of `(reads, writes incl. posted, sends)`.
    pub fn op_counts(&self) -> (u64, u64, u64) {
        (
            self.reads.load(Ordering::Relaxed),
            self.writes.load(Ordering::Relaxed) + self.posted_writes.load(Ordering::Relaxed),
            self.sends.load(Ordering::Relaxed),
        )
    }
}

/// Adds `n` to a counter that only the simulation's thread writes.
fn bump(counter: &AtomicU64, n: u64) {
    counter.store(counter.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

/// A node's registered memory: `brk` bytes registered, held in a buffer
/// created on first access. The allocator hands a large zeroed buffer out
/// as pages nobody has written, so the operating system commits a page
/// of registered memory only where something first writes it. Registered
/// address 0 is `buf[origin]`, the buffer's first host page boundary, so
/// a region at a page-aligned address holds whole pages of its own.
pub(crate) struct Memory {
    buf: Vec<u8>,
    origin: usize,
    brk: usize,
}

/// Host page size on x86-64 Linux.
const PAGE: usize = 4096;

/// The least buffer a node's memory is created with: above the largest
/// dynamic mmap threshold of glibc's allocator (32 MiB on 64-bit), so every
/// buffer is a fresh mapping whatever the process freed before. A smaller
/// buffer can come from the heap once a freed one has raised the
/// threshold, where zero-filling recycled memory commits every page and
/// freed memory stays resident.
const MIN_BUFFER: usize = (32 << 20) + 4096;

impl Memory {
    /// Every registered byte, the buffer created or grown to `brk` first.
    /// The buffer may be longer than `brk`; what lies past it is not
    /// registered, so range checks see `brk` bytes.
    pub(crate) fn bytes(&mut self) -> &mut [u8] {
        if self.buf.is_empty() && self.brk > 0 {
            self.buf = vec![0; self.brk.max(MIN_BUFFER) + PAGE];
            self.origin = self.buf.as_ptr().align_offset(PAGE);
        } else if self.buf.len() < self.origin + self.brk {
            // Grown in place (the allocator remaps a mapping), never copied
            // into a fresh buffer: a copy would commit every page.
            self.buf.resize(self.origin + self.brk, 0);
        }
        &mut self.buf[self.origin..self.origin + self.brk]
    }
}

/// Where `len` bytes at `addr` sit in a memory of `mem_len` bytes: the one
/// range check behind every read, write and CAS of registered memory.
pub(crate) fn span(mem_len: usize, addr: Addr, len: usize) -> RdmaResult<Range<usize>> {
    let start = addr.0 as usize;
    match start.checked_add(len) {
        Some(end) if end <= mem_len => Ok(start..end),
        _ => Err(RdmaError::OutOfBounds),
    }
}

pub(crate) struct NodeInner {
    pub(crate) id: NodeId,
    pub(crate) name: String,
    pub(crate) mem: RefCell<Memory>,
    pub(crate) alive: Cell<bool>,
    /// Incremented on every recovery; lets colocated processes detect that
    /// the node was crashed and revived while they were parked.
    pub(crate) incarnation: Cell<u64>,
    /// Incremented on every [`Fabric::power_loss`]: a boot reads it to tell
    /// a start on wiped memory from the first one.
    pub(crate) power_cycles: Cell<u64>,
    /// The processes the node's boot started and a power loss kills
    /// ([`crate::Boot::spawn`]).
    pub(crate) procs: RefCell<Vec<sim::Pid>>,
    /// The node's boot, one closure per layer, in the order added
    /// ([`Node::boot`]).
    pub(crate) boots: RefCell<Vec<crate::boot::BootFn>>,
    /// A power loss killed the node's processes since its last boot: the
    /// next [`Fabric::recover`] boots.
    pub(crate) boot_due: Cell<bool>,
    /// The node's polling processes: each one's wait point and the byte
    /// ranges it polls. A write rings exactly the subscribers it overlaps.
    pub(crate) subs: RefCell<Vec<Rc<Subscriber>>>,
    /// The lane arrays readers registered ([`Node::lane_marks`]): a write
    /// marks exactly the lanes it overlaps.
    pub(crate) lane_arrays: RefCell<Vec<LaneArray>>,
    /// The byte range `(lo, hi)` spanning every lane array, empty while
    /// there is none: a write outside it (most of a store's) looks at no
    /// array.
    lane_span: Cell<(u64, u64)>,
    pub(crate) inbox: Mailbox<Message>,
}

/// One polling process's registration on a node (see [`Node::poller`]),
/// shared with its [`Poller`]s.
#[derive(Debug)]
pub(crate) struct Subscriber {
    cond: Cond,
    ranges: Vec<Range<u64>>,
}

/// `lanes` equal byte ranges of `lane_bytes` each, back to back from
/// `start`, and one mark bit per lane, shared with the reader's
/// [`LaneMarks`] (see [`Node::lane_marks`]).
pub(crate) struct LaneArray {
    start: u64,
    end: u64,
    lane_bytes: u64,
    lanes: usize,
    marks: Rc<[Cell<u64>]>,
}

/// Sets the mark of every one of `lanes` lanes.
fn mark_all(marks: &[Cell<u64>], lanes: usize) {
    for (i, word) in marks.iter().enumerate() {
        word.set(u64::MAX >> (64 - (lanes - 64 * i).min(64)));
    }
}

impl LaneArray {
    /// Marks every lane holding a byte of `written`.
    fn mark(&self, written: &Range<u64>) {
        let (lo, hi) = (written.start.max(self.start), written.end.min(self.end));
        if lo >= hi {
            return;
        }
        let first = ((lo - self.start) / self.lane_bytes) as usize;
        let last = ((hi - 1 - self.start) / self.lane_bytes) as usize;
        for lane in first..=last {
            let word = &self.marks[lane / 64];
            word.set(word.get() | 1 << (lane % 64));
        }
    }
}

impl NodeInner {
    /// Borrows the node's memory. Processes are coroutines on one host
    /// thread, so the memory is only ever found borrowed by a [`MemView`]
    /// that outlived its instant — held across a block, or nested — and
    /// nothing could ever give it back: fail loudly, naming the node.
    pub(crate) fn mem(&self) -> RefMut<'_, Memory> {
        self.mem.try_borrow_mut().unwrap_or_else(|_| {
            panic!(
                "{} ({}): registered memory borrowed across a block",
                self.name, self.id
            )
        })
    }

    /// Marks the lanes `written` overlaps, then rings, once each, the
    /// subscribers polling any byte of it — one landing event, however
    /// many writes it carried.
    pub(crate) fn ring(&self, written: &[Range<u64>]) {
        let (lo, hi) = self.lane_span.get();
        if written.iter().any(|w| w.start < hi && lo < w.end) {
            for array in self.lane_arrays.borrow().iter() {
                written.iter().for_each(|w| array.mark(w));
            }
        }
        for sub in self.subs.borrow().iter() {
            let hit = sub
                .ranges
                .iter()
                .any(|r| written.iter().any(|w| w.start < r.end && r.start < w.end));
            if hit {
                sub.cond.notify_all();
            }
        }
    }

    /// Marks every lane and rings every subscriber: a node-wide event
    /// (recovery, power loss) changed what all of them observe.
    fn ring_all(&self) {
        for array in self.lane_arrays.borrow().iter() {
            mark_all(&array.marks, array.lanes);
        }
        for sub in self.subs.borrow().iter() {
            sub.cond.notify_all();
        }
    }
}

pub(crate) struct FabricInner {
    pub(crate) latency: LatencyModel,
    pub(crate) nodes: RefCell<Vec<Rc<NodeInner>>>,
    pub(crate) stats: FabricStats,
    /// Per directed (src, dst) pair: virtual arrival time of the last
    /// operation, enforcing the in-order delivery of RC transport. Dense
    /// matrix (grown on demand) so the per-verb lookup is two index
    /// multiplies instead of a hash.
    pub(crate) link_clock: RefCell<LinkClocks>,
    /// The armed verb-level faults of a [`crate::FaultPlan`]; `None` (no
    /// plan) keeps fault-free runs bit-identical and costs the verb hot
    /// path one flag test.
    pub(crate) faults: RefCell<Option<crate::faults::FaultRuntime>>,
    /// Guards a self-test asked the layers above to leave out (see
    /// [`Fabric::sabotage`]); read at construction time only.
    pub(crate) sabotaged: RefCell<Vec<&'static str>>,
    /// Set by [`Fabric::enable_race_detector`]: detector-off memory
    /// accesses cost one test of this cell.
    pub(crate) tsan: OnceCell<Arc<crate::tsan::TsanState>>,
    /// The `qp.sendq` occupancy gauge: unsignaled doorbells (a write, a
    /// batch, a send) posted but not yet landed, fabric-wide. Registered
    /// once per fabric on the first traced post (the posting path is far
    /// too hot for a per-call name lookup).
    pub(crate) sendq_gauge: OnceCell<sim::prof::Gauge>,
}

/// Busy-until times of every directed link, stored as a dense `n × n`
/// matrix indexed by node ids. The matrix grows (with re-indexing) the
/// first time a node id beyond the current bound appears; after that,
/// every lookup is a multiply and an add.
#[derive(Default)]
pub(crate) struct LinkClocks {
    n: usize,
    clocks: Vec<u64>,
}

impl LinkClocks {
    /// Mutable busy-until slot for the `src → dst` link.
    fn slot(&mut self, src: NodeId, dst: NodeId) -> &mut u64 {
        let need = (src.0.max(dst.0) as usize) + 1;
        if need > self.n {
            let new_n = need.next_power_of_two().max(4);
            let mut grown = vec![0u64; new_n * new_n];
            for s in 0..self.n {
                grown[s * new_n..s * new_n + self.n]
                    .copy_from_slice(&self.clocks[s * self.n..(s + 1) * self.n]);
            }
            self.n = new_n;
            self.clocks = grown;
        }
        &mut self.clocks[src.0 as usize * self.n + dst.0 as usize]
    }
}

impl FabricInner {
    /// Arrival time of a `bytes`-sized op posted now on the `src → dst`
    /// link. Models store-and-forward serialization: the link transmits
    /// one op at a time at link bandwidth, so back-to-back bulk writes
    /// queue behind each other; propagation is added after transmission.
    /// This also yields RC's in-order delivery.
    pub(crate) fn fifo_arrival(&self, src: NodeId, dst: NodeId, now: u64, bytes: usize) -> u64 {
        let ser = (bytes as u64 * self.latency.ns_per_kib) / 1024;
        let mut clocks = self.link_clock.borrow_mut();
        let link_free = clocks.slot(src, dst);
        let send_end = now.max(*link_free) + ser;
        *link_free = send_end;
        send_end + self.latency.one_way_ns
    }

    /// Consults the armed fault plan (if any) about a verb `node` is about
    /// to issue now. Without a plan this is one flag test — the clock is
    /// read only for a plan to look at.
    pub(crate) fn verb_fate(&self, node: NodeId) -> crate::faults::VerbFate {
        match self.faults.borrow_mut().as_mut() {
            Some(runtime) => runtime.verb_fate(node, sim::now().as_nanos()),
            None => crate::faults::VerbFate::UNFAULTED,
        }
    }

    /// The enabled race detector state, or `None`. One test of an empty
    /// cell when the detector is off.
    pub(crate) fn tsan(&self) -> Option<Arc<crate::tsan::TsanState>> {
        self.tsan.get().cloned()
    }
}

/// The shared-memory fabric: a set of nodes connected by RDMA.
///
/// A fabric, its [`Node`]s and their [`crate::QueuePair`]s are not `Send`:
/// like the simulation that drives them, they live on one thread, which
/// is what lets registered memory, the poller lists and the link clocks
/// sit in plain cells.
///
/// ```compile_fail,E0277
/// fn send<T: Send>() {}
/// send::<rdma_sim::Fabric>();
/// ```
#[derive(Clone)]
pub struct Fabric {
    pub(crate) inner: Rc<FabricInner>,
}

impl fmt::Debug for Fabric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fabric")
            .field("nodes", &self.len())
            .field("latency", &self.inner.latency)
            .finish()
    }
}

impl Fabric {
    /// Creates a fabric with the given latency model.
    pub fn new(latency: LatencyModel) -> Self {
        Fabric {
            inner: Rc::new(FabricInner {
                latency,
                nodes: RefCell::new(Vec::new()),
                stats: FabricStats::default(),
                link_clock: RefCell::new(LinkClocks::default()),
                faults: RefCell::new(None),
                sabotaged: RefCell::new(Vec::new()),
                tsan: OnceCell::new(),
                sendq_gauge: OnceCell::new(),
            }),
        }
    }

    /// Turns on the Sim-TSan race detector for every node on this fabric
    /// and returns a handle to its reports. This is the detector's one
    /// switch: the layers built on the fabric afterwards ask
    /// [`Fabric::race_detector`] (or [`Node::race_detector`]) whether to
    /// annotate their memory. Idempotent: repeated calls return handles to
    /// the same state. See [`crate::tsan`] for the memory model.
    ///
    /// # Panics
    ///
    /// Panics on the first call if the fabric already has nodes: what was
    /// built on them went unannotated.
    pub fn enable_race_detector(&self) -> crate::RaceDetector {
        let state = self.inner.tsan.get_or_init(|| {
            assert!(
                self.inner.nodes.borrow().is_empty(),
                "enable the race detector before adding nodes to the fabric"
            );
            Arc::new(crate::tsan::TsanState::new())
        });
        crate::RaceDetector {
            state: Arc::clone(state),
        }
    }

    /// The enabled race detector, if any.
    pub fn race_detector(&self) -> Option<crate::RaceDetector> {
        self.inner.tsan().map(|state| crate::RaceDetector { state })
    }

    /// Registers a new node (endpoint) on the fabric.
    pub fn add_node(&self, name: impl Into<String>) -> Node {
        let mut nodes = self.inner.nodes.borrow_mut();
        let id = NodeId(nodes.len() as u32);
        let inner = Rc::new(NodeInner {
            id,
            name: name.into(),
            mem: RefCell::new(Memory {
                buf: Vec::new(),
                origin: 0,
                brk: 0,
            }),
            alive: Cell::new(true),
            incarnation: Cell::new(0),
            power_cycles: Cell::new(0),
            procs: RefCell::new(Vec::new()),
            boots: RefCell::new(Vec::new()),
            boot_due: Cell::new(false),
            subs: RefCell::new(Vec::new()),
            lane_arrays: RefCell::new(Vec::new()),
            lane_span: Cell::new((u64::MAX, 0)),
            inbox: Mailbox::new(),
        });
        nodes.push(Rc::clone(&inner));
        Node {
            inner,
            fabric: Rc::clone(&self.inner),
        }
    }

    /// Returns a handle to an existing node.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never returned by [`Fabric::add_node`].
    pub fn node(&self, id: NodeId) -> Node {
        Node {
            inner: Rc::clone(&self.inner.nodes.borrow()[id.0 as usize]),
            fabric: Rc::clone(&self.inner),
        }
    }

    /// Number of registered nodes.
    pub fn len(&self) -> usize {
        self.inner.nodes.borrow().len()
    }

    /// Whether the fabric has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Marks a node crashed: signaled verbs against it fail with
    /// [`RdmaError::RemoteFailure`], unsignaled writes and sends to it are
    /// dropped. Its registered memory is preserved.
    pub fn crash(&self, id: NodeId) {
        self.inner.nodes.borrow()[id.0 as usize].alive.set(false);
    }

    /// Cuts a node's power: it crashes, every process its boot started is
    /// killed at this instant ([`Node::boot`]; what they registered on it
    /// goes at the next boot), and its registered memory is wiped — the
    /// buffer is dropped, as a power loss destroys volatile DRAM. The allocation
    /// map (`brk`) is preserved, so addresses handed out before the loss
    /// stay valid — they read as zeros from a fresh buffer until
    /// rewritten. Durable state must live in [`sim::storage`] to survive
    /// this. Inject it from a process that is not on the node.
    ///
    /// # Panics
    ///
    /// Panics outside a simulated process when the node has a process.
    pub fn power_loss(&self, id: NodeId) {
        let node = &self.inner.nodes.borrow()[id.0 as usize];
        node.alive.set(false);
        node.power_cycles.set(node.power_cycles.get() + 1);
        // Each unwinds when next dispatched, at this instant.
        node.procs.take().into_iter().for_each(sim::kill);
        node.boot_due.set(true);
        node.mem().buf = Vec::new();
        // Every polled word just changed under its poller.
        node.ring_all();
    }

    /// Brings a crashed node back. After a plain crash its memory is as it
    /// was at crash time (Heron treats such a replica as a lagger and
    /// state-transfers it) and its processes go on; after a power loss it
    /// boots ([`Node::boot`]), so call it from a simulated process.
    pub fn recover(&self, id: NodeId) {
        let node = self.node(id);
        let boot_due = node.inner.boot_due.replace(false);
        if boot_due {
            // The killed processes unwound at the cut instant: a poller or
            // lane array nobody holds any more was theirs.
            let inner = &node.inner;
            inner.subs.borrow_mut().retain(|s| Rc::strong_count(s) > 1);
            let mut arrays = inner.lane_arrays.borrow_mut();
            arrays.retain(|a| Rc::strong_count(&a.marks) > 1);
        }
        node.inner.incarnation.set(node.inner.incarnation.get() + 1);
        node.inner.alive.set(true);
        // Liveness is an input of every poller's predicate.
        node.inner.ring_all();
        if boot_due {
            // Cloned out: a boot registers pollers and lane arrays.
            let boots = node.inner.boots.borrow().clone();
            let boot = crate::Boot {
                node: &node,
                simulation: None,
            };
            boots.iter().for_each(|f| f(&boot));
        }
    }

    /// Whether the node is currently alive.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.inner.nodes.borrow()[id.0 as usize].alive.get()
    }

    /// Fabric-wide operation counters.
    pub fn stats(&self) -> &FabricStats {
        &self.inner.stats
    }

    /// The latency model in force.
    pub fn latency(&self) -> LatencyModel {
        self.inner.latency
    }
}

/// A handle to one fabric node. Cloneable; clones refer to the same node.
///
/// ```compile_fail,E0277
/// fn send<T: Send>() {}
/// send::<rdma_sim::Node>();
/// ```
#[derive(Clone)]
pub struct Node {
    pub(crate) inner: Rc<NodeInner>,
    pub(crate) fabric: Rc<FabricInner>,
}

impl fmt::Debug for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Node")
            .field("id", &self.inner.id)
            .field("name", &self.inner.name)
            .field("alive", &self.inner.alive.get())
            .finish()
    }
}

/// A polling process's wait point, obtained from [`Node::poller`]. Stands
/// in for busy-polling RDMA-visible memory: the process blocks here and is
/// rung when a write lands in the ranges it subscribed.
#[derive(Clone, Debug)]
pub struct Poller {
    sub: Rc<Subscriber>,
}

impl Poller {
    /// The underlying condition, for wake sources that are not memory.
    pub fn cond(&self) -> &Cond {
        &self.sub.cond
    }

    /// Blocks the calling process until `pred()` is true, re-checking
    /// whenever the poller is rung.
    pub fn poll_until(&self, mut pred: impl FnMut() -> bool) {
        self.sub.cond.wait_while(|| !pred());
    }

    /// Like [`Poller::poll_until`] with a virtual-time timeout. Returns
    /// `true` if the predicate turned true before the deadline.
    pub fn poll_until_timeout(
        &self,
        mut pred: impl FnMut() -> bool,
        timeout: std::time::Duration,
    ) -> bool {
        self.sub.cond.wait_while_timeout(|| !pred(), timeout)
    }
}

/// The marks of a lane array registered with [`Node::lane_marks`]: which
/// lanes a landing wrote since their reader last cleared them. Clones share
/// the marks.
#[derive(Clone, Debug)]
pub struct LaneMarks {
    marks: Rc<[Cell<u64>]>,
    lanes: usize,
}

impl LaneMarks {
    /// Number of lanes in the array.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The first marked lane at or after `from`.
    pub fn next_marked(&self, from: usize) -> Option<usize> {
        let marks = &self.marks;
        let mut i = from / 64;
        let mut word = marks.get(i)?.get() & (u64::MAX << (from % 64));
        while word == 0 {
            i += 1;
            word = marks.get(i)?.get();
        }
        Some(64 * i + word.trailing_zeros() as usize)
    }

    /// The marked lanes, in ascending order, each found when the iterator
    /// reaches it.
    pub fn marked(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(self.next_marked(0), |&lane| self.next_marked(lane + 1))
    }

    /// Clears `lane`'s mark: its reader found it idle.
    pub fn clear(&self, lane: usize) {
        let word = &self.marks[lane / 64];
        word.set(word.get() & !(1 << (lane % 64)));
    }

    /// Marks every lane: its reader moved cursors, so any lane may hold
    /// what it looks for next.
    pub fn mark_all(&self) {
        mark_all(&self.marks, self.lanes);
    }
}

/// A node's registered memory, borrowed for the length of one
/// [`Node::with_mem`] call.
pub struct MemView<'a> {
    bytes: &'a [u8],
    /// The ranges read so far, for the race detector's acquire; `None`
    /// while no detector runs.
    touched: Option<RefCell<Vec<(Addr, usize)>>>,
}

impl MemView<'_> {
    /// The `len` bytes at `addr`, in place.
    ///
    /// # Errors
    ///
    /// [`RdmaError::OutOfBounds`] if the range is outside registered memory.
    #[inline]
    pub fn bytes(&self, addr: Addr, len: usize) -> RdmaResult<&[u8]> {
        let bytes = &self.bytes[span(self.bytes.len(), addr, len)?];
        if let Some(touched) = &self.touched {
            touched.borrow_mut().push((addr, len));
        }
        Ok(bytes)
    }

    /// The 8-byte word at `addr`.
    ///
    /// # Errors
    ///
    /// [`RdmaError::Misaligned`] or [`RdmaError::OutOfBounds`].
    #[inline]
    pub fn word(&self, addr: Addr) -> RdmaResult<u64> {
        if !addr.is_word_aligned() {
            return Err(RdmaError::Misaligned);
        }
        let bytes = self.bytes(addr, 8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }
}

impl Node {
    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        self.inner.id
    }

    /// The name given at registration.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Whether this node is alive.
    pub fn is_alive(&self) -> bool {
        self.inner.alive.get()
    }

    /// How many times this node has been recovered. A process that caches
    /// this value can detect a crash/recovery cycle that happened entirely
    /// while it was blocked.
    pub fn incarnation(&self) -> u64 {
        self.inner.incarnation.get()
    }

    /// How many times this node has lost power ([`Fabric::power_loss`]):
    /// a boot with a count above zero starts on wiped memory and must
    /// rebuild from durable storage.
    pub fn power_cycles(&self) -> u64 {
        self.inner.power_cycles.get()
    }

    /// Registers `bytes` of RDMA-accessible memory (zero-initialized,
    /// rounded up to whole words) and returns its base address.
    pub fn alloc_bytes(&self, bytes: usize) -> Addr {
        let mut mem = self.inner.mem();
        let base = mem.brk;
        mem.brk += bytes.div_ceil(8) * 8;
        Addr(base as u64)
    }

    /// Registers `words` 8-byte words of RDMA-accessible memory.
    pub fn alloc_words(&self, words: usize) -> Addr {
        self.alloc_bytes(words * 8)
    }

    /// Opens a reliable-connection queue pair from this node to `remote`.
    pub fn connect(&self, remote: &Node) -> crate::QueuePair {
        crate::QueuePair::new(self.clone(), remote.clone())
    }

    // ---- local (zero-latency) access to this node's own memory ----

    /// Reads this node's own registered memory in place: `f` gets a
    /// [`MemView`] borrowing the memory for the length of the call, so a
    /// predicate over many words takes the memory once and copies nothing.
    ///
    /// For the race detector, every read through the view is an *acquire*:
    /// polling one's own RDMA-visible memory is how Heron processes
    /// observe remote writes, so the reader inherits the writers' clocks
    /// (joined when `f` returns). Local reads are never themselves
    /// race-checked.
    ///
    /// Two rules. A view lives within one virtual instant: `f` must not
    /// block ([`sim::sleep`], a verb, a wait) nor borrow the same node
    /// again — the next landing write would find the memory taken, and
    /// panics rather than hang. And code moved onto a view reads the byte
    /// ranges the calls it replaces read, so the detector sees the same
    /// acquire edges.
    ///
    /// # Panics
    ///
    /// Panics if this node's memory is already borrowed.
    pub fn with_mem<R>(&self, f: impl FnOnce(&MemView<'_>) -> R) -> R {
        let tsan = self.fabric.tsan();
        let (out, touched) = {
            let mut mem = self.inner.mem();
            let view = MemView {
                bytes: mem.bytes(),
                touched: tsan.as_ref().map(|_| RefCell::default()),
            };
            (f(&view), view.touched)
        };
        if let Some((tsan, touched)) = tsan.zip(touched) {
            for (addr, len) in touched.into_inner() {
                tsan.on_local_read(self, addr, len);
            }
        }
        out
    }

    /// Reads (copies) bytes from this node's own registered memory.
    ///
    /// # Errors
    ///
    /// [`RdmaError::OutOfBounds`] if the range is outside registered memory.
    pub fn local_read(&self, addr: Addr, len: usize) -> RdmaResult<Vec<u8>> {
        self.with_mem(|m| m.bytes(addr, len).map(<[u8]>::to_vec))
    }

    /// How many host pages under the `len` registered bytes at `addr` this
    /// process holds in memory: the pages something wrote since the buffer
    /// was created. It reads Linux's `/proc/self/pagemap` and touches
    /// nothing. A page counts when it is present and mapped by this process
    /// alone: a page that was only ever read maps the kernel's shared zero
    /// page, which is present but not resident. Registered memory starts on
    /// a page boundary; a page the range shares with its neighbours counts.
    ///
    /// # Errors
    ///
    /// An I/O error if the range is outside registered memory
    /// ([`RdmaError::OutOfBounds`]) or the pagemap cannot be read.
    pub fn resident_pages(&self, addr: Addr, len: usize) -> std::io::Result<usize> {
        use std::os::unix::fs::FileExt;
        const PRESENT: u64 = 1 << 63;
        const EXCLUSIVE: u64 = 1 << 56;
        let mem = self.inner.mem();
        let range = span(mem.brk, addr, len).map_err(std::io::Error::other)?;
        // Only the buffer holds pages: none before it is created, none in
        // registered bytes it has not grown to yet.
        let end = range.end.min(mem.buf.len().saturating_sub(mem.origin));
        if range.start >= end {
            return Ok(0);
        }
        let host = mem.buf.as_ptr() as usize + mem.origin;
        let (first, last) = ((host + range.start) / PAGE, (host + end - 1) / PAGE);
        let mut entries = vec![0u8; (last - first + 1) * 8];
        std::fs::File::open("/proc/self/pagemap")?.read_exact_at(&mut entries, first as u64 * 8)?;
        let resident = entries
            .chunks_exact(8)
            .map(|e| u64::from_le_bytes(e.try_into().expect("8 bytes")))
            .filter(|&e| e & PRESENT != 0 && e & EXCLUSIVE != 0)
            .count();
        Ok(resident)
    }

    /// The uninstrumented read: used by remote (one-sided) reads, which
    /// must *not* acquire — they are exactly the accesses being checked.
    pub(crate) fn read_raw(&self, addr: Addr, len: usize) -> RdmaResult<Vec<u8>> {
        let mut mem = self.inner.mem();
        let view = MemView {
            bytes: mem.bytes(),
            touched: None,
        };
        view.bytes(addr, len).map(<[u8]>::to_vec)
    }

    /// Reads one 8-byte word from this node's own memory.
    ///
    /// # Errors
    ///
    /// [`RdmaError::Misaligned`] or [`RdmaError::OutOfBounds`].
    pub fn local_read_word(&self, addr: Addr) -> RdmaResult<u64> {
        self.with_mem(|m| m.word(addr))
    }

    /// Writes bytes into this node's own registered memory.
    ///
    /// # Errors
    ///
    /// [`RdmaError::OutOfBounds`] if the range is outside registered memory.
    pub fn local_write(&self, addr: Addr, data: &[u8]) -> RdmaResult<()> {
        self.write_instrumented(addr, data, "local-write")
    }

    /// [`Node::local_write`] with an explicit operation label for race
    /// reports, which [`crate::AccessSite::op`] carries (signaled RDMA
    /// writes land through here as `"rdma-write"`).
    ///
    /// # Errors
    ///
    /// [`RdmaError::OutOfBounds`] if the range is outside registered memory.
    pub fn write_instrumented(&self, addr: Addr, data: &[u8], op: &'static str) -> RdmaResult<()> {
        self.write_raw(addr, data)?;
        if let Some(tsan) = self.fabric.tsan() {
            let ticket = crate::tsan::WriteTicket::capture(op);
            let now_ns = sim::try_now().map(|t| t.as_nanos()).unwrap_or(0);
            tsan.on_write(self, addr, data.len(), &ticket, now_ns);
        }
        Ok(())
    }

    /// The uninstrumented write. Event-context landings (unsignaled
    /// writes) use this and commit their captured ticket to the shadow
    /// state themselves.
    pub(crate) fn write_raw(&self, addr: Addr, data: &[u8]) -> RdmaResult<()> {
        let written = self.store_raw(addr, data)?;
        self.inner.ring(std::slice::from_ref(&written));
        Ok(())
    }

    /// The uninstrumented compare-and-swap of the word at `addr`: returns
    /// the previous value, and rings the word's pollers iff it swapped.
    pub(crate) fn cas_raw(&self, addr: Addr, expected: u64, new: u64) -> RdmaResult<u64> {
        let old = {
            let mut mem = self.inner.mem();
            let bytes = mem.bytes();
            let word = span(bytes.len(), addr, 8)?;
            let old = u64::from_le_bytes(bytes[word.clone()].try_into().expect("8 bytes"));
            if old == expected {
                bytes[word].copy_from_slice(&new.to_le_bytes());
            }
            old
        };
        if old == expected {
            let word = addr.0..addr.0 + 8;
            self.inner.ring(std::slice::from_ref(&word));
        }
        Ok(old)
    }

    /// Copies `data` into memory without ringing anyone and returns the
    /// byte range written; batch landings collect these and ring once.
    pub(crate) fn store_raw(&self, addr: Addr, data: &[u8]) -> RdmaResult<Range<u64>> {
        let mut mem = self.inner.mem();
        let bytes = mem.bytes();
        let at = span(bytes.len(), addr, data.len())?;
        bytes[at].copy_from_slice(data);
        Ok(addr.0..addr.0 + data.len() as u64)
    }

    /// Writes one 8-byte word into this node's own memory.
    ///
    /// # Errors
    ///
    /// [`RdmaError::Misaligned`] or [`RdmaError::OutOfBounds`].
    pub fn local_write_word(&self, addr: Addr, value: u64) -> RdmaResult<()> {
        if !addr.is_word_aligned() {
            return Err(RdmaError::Misaligned);
        }
        self.local_write(addr, &value.to_le_bytes())
    }

    /// The race detector of this node's fabric, if it was enabled (see
    /// [`Fabric::enable_race_detector`]).
    pub fn race_detector(&self) -> Option<crate::RaceDetector> {
        self.fabric
            .tsan()
            .map(|state| crate::RaceDetector { state })
    }

    /// Registers a polling process on this node: `cond` is its one wait
    /// point, `ranges` (`(base, bytes)` pairs) the memory its predicates
    /// read. From now on every write that lands in one of the ranges —
    /// local, one-sided, CAS or batch — rings `cond`, once per landing
    /// event; writes elsewhere leave the process asleep, as a real polled
    /// word costs nothing while it does not change. [`Fabric::recover`]
    /// and [`Fabric::power_loss`] ring every poller of the node.
    ///
    /// Inputs of a predicate that are *not* node memory need their own
    /// wake source on the same `cond`: pass a mailbox's
    /// [`sim::Mailbox::cond`] (or [`Node::inbox_cond`]) to wait for its
    /// traffic too, or have the producer write a subscribed word.
    ///
    /// A poller that nobody holds any more — its process was killed by a
    /// power loss — is dropped when the node next boots
    /// ([`Fabric::recover`]).
    pub fn poller(&self, cond: Cond, ranges: &[(Addr, usize)]) -> Poller {
        // Whatever else rings it, a wait here is a wait on polled memory
        // to the profiler and the wait-for graph.
        cond.set_label("rdma.mem");
        let sub = Rc::new(Subscriber {
            cond,
            ranges: ranges
                .iter()
                .map(|&(base, bytes)| base.0..base.0 + bytes as u64)
                .collect(),
        });
        self.inner.subs.borrow_mut().push(Rc::clone(&sub));
        Poller { sub }
    }

    /// Registers a *lane array* on this node — `lanes` equal ranges of
    /// `lane_bytes` each, back to back from `base` — and returns its marks:
    /// one per lane, set by every landing that writes a byte of the lane
    /// (local, one-sided, signaled, batch, or a CAS that swapped), and on
    /// every lane by [`Fabric::recover`] and [`Fabric::power_loss`]. Only
    /// the reader clears a mark. A reader that clears a lane's mark when it
    /// reads the lane idle, and marks every lane when it moves a cursor
    /// other than by consuming, need read no unmarked lane: its bytes are
    /// what they were when it last found the lane idle. Every mark starts
    /// set: nothing was read yet. An array nobody holds any more goes as
    /// a [`Node::poller`] does.
    ///
    /// # Panics
    ///
    /// Panics if `lane_bytes` or `lanes` is zero.
    pub fn lane_marks(&self, base: Addr, lane_bytes: usize, lanes: usize) -> LaneMarks {
        assert!(
            lane_bytes > 0 && lanes > 0,
            "a lane array has lanes of bytes"
        );
        let marks: Rc<[Cell<u64>]> = (0..lanes.div_ceil(64)).map(|_| Cell::new(0)).collect();
        mark_all(&marks, lanes);
        let (start, end) = (base.0, base.0 + (lane_bytes * lanes) as u64);
        let (lo, hi) = self.inner.lane_span.get();
        self.inner.lane_span.set((lo.min(start), hi.max(end)));
        self.inner.lane_arrays.borrow_mut().push(LaneArray {
            start,
            end,
            lane_bytes: lane_bytes as u64,
            lanes,
            marks: Rc::clone(&marks),
        });
        LaneMarks { marks, lanes }
    }

    /// The wait point of this node's two-sided receive queue: a process
    /// that serves messages *and* polls memory builds its [`Poller`] on it.
    pub fn inbox_cond(&self) -> Cond {
        self.inner.inbox.cond().clone()
    }

    // ---- two-sided ----

    /// Blocks until a two-sided message arrives.
    pub fn recv(&self) -> Message {
        self.inbox_recv()
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Message> {
        self.inner.inbox.try_recv()
    }

    /// Number of two-sided messages waiting in the receive queue.
    pub fn pending_messages(&self) -> usize {
        self.inner.inbox.len()
    }

    fn inbox_recv(&self) -> Message {
        self.inner.inbox.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_word_aligned_and_grows() {
        let fabric = Fabric::new(LatencyModel::zero());
        let n = fabric.add_node("n");
        let a = n.alloc_bytes(3);
        let b = n.alloc_bytes(16);
        let c = n.alloc_words(2);
        assert_eq!(a, Addr(0));
        assert_eq!(b, Addr(8)); // 3 bytes rounded to one word
        assert_eq!(c, Addr(24));
        assert!(a.is_word_aligned() && b.is_word_aligned() && c.is_word_aligned());
    }

    #[test]
    fn local_read_write_round_trips() {
        let fabric = Fabric::new(LatencyModel::zero());
        let n = fabric.add_node("n");
        let addr = n.alloc_bytes(32);
        n.local_write(addr, b"hello rdma").unwrap();
        assert_eq!(n.local_read(addr, 10).unwrap(), b"hello rdma");
        n.local_write_word(addr.offset(16), 0xDEAD_BEEF).unwrap();
        assert_eq!(n.local_read_word(addr.offset(16)).unwrap(), 0xDEAD_BEEF);
    }

    #[test]
    fn out_of_bounds_and_misalignment_are_errors() {
        let fabric = Fabric::new(LatencyModel::zero());
        let n = fabric.add_node("n");
        let addr = n.alloc_bytes(8);
        assert_eq!(n.local_read(addr, 9).unwrap_err(), RdmaError::OutOfBounds);
        assert_eq!(
            n.local_read_word(addr.offset(4)).unwrap_err(),
            RdmaError::Misaligned
        );
        assert_eq!(
            n.local_write(Addr(1 << 40), b"x").unwrap_err(),
            RdmaError::OutOfBounds
        );
    }

    #[test]
    fn a_view_reads_what_the_copying_calls_read() {
        let fabric = Fabric::new(LatencyModel::zero());
        let n = fabric.add_node("n");
        let addr = n.alloc_bytes(32);
        n.local_write(addr, b"hello rdma, in place").unwrap();
        n.local_write_word(addr.offset(24), 0xDEAD_BEEF).unwrap();
        // Any number of reads under one borrow, an empty one included.
        let ranges = [(addr, 20), (addr.offset(7), 3), (addr.offset(32), 0)];
        let copies = ranges.map(|(at, len)| n.local_read(at, len).unwrap());
        n.with_mem(|m| {
            for ((at, len), copy) in ranges.into_iter().zip(&copies) {
                assert_eq!(m.bytes(at, len).unwrap(), copy);
            }
            assert_eq!(m.word(addr.offset(24)).unwrap(), 0xDEAD_BEEF);
        });
        // The same errors from the view and from the calls built on it,
        // misalignment reported before range.
        for at in [addr, Addr(u64::MAX)] {
            let err = n.with_mem(|m| m.bytes(at, 33).map(<[u8]>::to_vec));
            assert_eq!(err, Err(RdmaError::OutOfBounds));
            assert_eq!(n.local_read(at, 33), err);
            assert_eq!(n.local_write(at, &[0; 33]), Err(RdmaError::OutOfBounds));
        }
        for (at, err) in [
            (addr.offset(4), RdmaError::Misaligned),
            (addr.offset(36), RdmaError::Misaligned),
            (addr.offset(32), RdmaError::OutOfBounds),
        ] {
            assert_eq!(n.with_mem(|m| m.word(at)), Err(err));
            assert_eq!(n.local_read_word(at), Err(err));
        }
    }

    #[test]
    #[should_panic(expected = "n (node#0): registered memory borrowed across a block")]
    fn a_nested_borrow_of_one_node_panics() {
        let fabric = Fabric::new(LatencyModel::zero());
        let n = fabric.add_node("n");
        let addr = n.alloc_words(1);
        let _ = n.with_mem(|_| n.local_read_word(addr));
    }

    #[test]
    fn a_view_held_across_a_block_panics_at_the_next_landing() {
        let simulation = sim::Simulation::new(1);
        let fabric = Fabric::new(LatencyModel::connectx4());
        let (a, b) = (fabric.add_node("a"), fabric.add_node("b"));
        let addr = b.alloc_words(1);
        let b2 = b.clone();
        simulation.spawn("holder", move || {
            b2.with_mem(|_| sim::sleep(std::time::Duration::from_micros(10)));
        });
        simulation.spawn("writer", move || {
            a.connect(&b).post_write_word(addr, 1).unwrap();
        });
        // The landing runs on the host loop, so the panic leaves `run`.
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| simulation.run()))
            .expect_err("the landing found the memory taken");
        assert_eq!(
            panic.downcast_ref::<String>().map(String::as_str),
            Some("b (node#1): registered memory borrowed across a block")
        );
    }

    #[test]
    fn allocation_and_power_loss_panic_while_a_view_is_held() {
        let fabric = Fabric::new(LatencyModel::zero());
        let n = fabric.add_node("n");
        n.alloc_words(1);
        let alloc = || {
            n.alloc_words(1);
        };
        let power_loss = || fabric.power_loss(n.id());
        for op in [&alloc as &dyn Fn(), &power_loss] {
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                n.with_mem(|_| op());
            }))
            .expect_err("the memory was taken");
            assert_eq!(
                panic.downcast_ref::<String>().map(String::as_str),
                Some("n (node#0): registered memory borrowed across a block")
            );
        }
    }

    /// The store's bootstrap pattern: allocations interleaved with writes
    /// and reads, so the buffer is created early and grown many times.
    #[test]
    fn allocations_interleaved_with_accesses_read_back_exactly() {
        let fabric = Fabric::new(LatencyModel::zero());
        let n = fabric.add_node("n");
        let mut written = Vec::new();
        for i in 0..64usize {
            let len = 8 + i * 977 % 9000;
            let at = n.alloc_bytes(len);
            let data: Vec<u8> = (0..len).map(|j| (i * 31 + j) as u8).collect();
            n.local_write(at, &data).unwrap();
            assert_eq!(n.local_read(at, len).unwrap(), data);
            written.push((at, data));
        }
        for (at, data) in &written {
            assert_eq!(&n.local_read(*at, data.len()).unwrap(), data);
        }
    }

    #[test]
    fn never_written_memory_reads_zero() {
        let fabric = Fabric::new(LatencyModel::zero());
        let n = fabric.add_node("n");
        let a = n.alloc_bytes(1 << 20);
        assert_eq!(n.local_read_word(a.offset(4096)).unwrap(), 0);
        n.local_write_word(a, 7).unwrap();
        let b = n.alloc_bytes(1 << 20);
        assert!(n
            .local_read(a.offset(8), (1 << 20) - 8)
            .unwrap()
            .iter()
            .all(|&x| x == 0));
        assert!(n.local_read(b, 1 << 20).unwrap().iter().all(|&x| x == 0));
        assert_eq!(n.cas_raw(b.offset(8), 0, 9).unwrap(), 0);
        assert_eq!(n.local_read_word(a).unwrap(), 7);
    }

    #[test]
    fn crash_and_recover_toggle_liveness() {
        let fabric = Fabric::new(LatencyModel::zero());
        let n = fabric.add_node("n");
        assert!(fabric.is_alive(n.id()));
        fabric.crash(n.id());
        assert!(!fabric.is_alive(n.id()));
        assert!(!n.is_alive());
        fabric.recover(n.id());
        assert!(n.is_alive());
    }

    #[test]
    fn node_lookup_by_id() {
        let fabric = Fabric::new(LatencyModel::zero());
        let a = fabric.add_node("a");
        let b = fabric.add_node("b");
        assert_eq!(fabric.node(a.id()).name(), "a");
        assert_eq!(fabric.node(b.id()).name(), "b");
        assert_eq!(fabric.len(), 2);
    }

    #[test]
    fn power_loss_wipes_memory_but_preserves_layout() {
        let fabric = Fabric::new(LatencyModel::zero());
        let n = fabric.add_node("n");
        let addr = n.alloc_bytes(16);
        n.local_write_word(addr, 42).unwrap();
        n.local_write_word(addr.offset(8), 7).unwrap();
        assert_eq!(n.power_cycles(), 0);
        fabric.power_loss(n.id());
        assert!(!n.is_alive());
        assert_eq!(n.power_cycles(), 1);
        fabric.recover(n.id());
        assert!(n.is_alive());
        // Addresses stay valid but contents are gone.
        assert_eq!(n.local_read_word(addr).unwrap(), 0);
        assert_eq!(n.local_read_word(addr.offset(8)).unwrap(), 0);
        // New allocations continue past the preserved brk.
        assert_eq!(n.alloc_bytes(8), addr.offset(16));
    }

    #[test]
    fn lane_marks_span_words_and_stay_inside_the_array() {
        let fabric = Fabric::new(LatencyModel::zero());
        let n = fabric.add_node("n");
        let lanes = n.alloc_bytes(130 * 8);
        let after = n.alloc_words(1);
        let marks = n.lane_marks(lanes, 8, 130);
        let marked = |marks: &LaneMarks| marks.marked().collect::<Vec<_>>();
        assert_eq!(marked(&marks), (0..130).collect::<Vec<_>>());
        (0..130).for_each(|lane| marks.clear(lane));
        assert_eq!(marks.next_marked(0), None);
        for lane in [129, 70, 63, 64] {
            n.local_write_word(lanes.offset(8 * lane), 1).unwrap();
        }
        n.local_write_word(after, 1).unwrap();
        assert_eq!(marked(&marks), [63, 64, 70, 129]);
        assert_eq!(marks.next_marked(71), Some(129));
        assert_eq!(marks.next_marked(130), None);
        marks.mark_all();
        assert_eq!(marked(&marks).len(), 130);
    }

    #[test]
    fn memory_survives_crash() {
        let fabric = Fabric::new(LatencyModel::zero());
        let n = fabric.add_node("n");
        let addr = n.alloc_bytes(8);
        n.local_write_word(addr, 42).unwrap();
        fabric.crash(n.id());
        fabric.recover(n.id());
        assert_eq!(n.local_read_word(addr).unwrap(), 42);
    }
}
