//! Sim-TSan: a vector-clock happens-before race detector over registered
//! memory.
//!
//! Heron's remote partitions read object state with one-sided RDMA reads
//! that are unsynchronized *by design*; the dual-version store and the
//! Phase 2/4 barriers are the only things standing between a remote reader
//! and a torn or stale value. This module machine-checks that discipline:
//!
//! * Every node's registered memory is shadowed at 8-byte **cell**
//!   granularity, in chunks of 64 cells allocated on the first access from
//!   process context; a host-context (setup) write over cells no process
//!   has touched records nothing, since it would read exactly as the
//!   never-written init cell does. Each cell remembers the *epoch* of its
//!   last writer — the writer's pid and the value of the writer's own
//!   vector-clock entry at the write — plus the writer's full clock,
//!   virtual timestamp and process name, and an optional mark left by the
//!   last remote reader.
//! * Happens-before edges come from the protocol's real synchronization
//!   points: mailbox sends/receives and [`sim::Cond`] notifies piggyback
//!   clock snapshots (see `sim::vclock`), **local** reads of registered
//!   memory acquire the writer clocks of the cells they observe (polling
//!   RDMA-visible memory is exactly how Heron processes synchronize), and
//!   compare-and-swap acquires and releases the word it lands on.
//! * A remote READ of a data cell whose last write is not ordered
//!   happens-before the reader is a race, reported with both access sites,
//!   virtual timestamps and the offending byte range. So is a write over a
//!   cell a concurrent remote read returned (the "in-flight torn read" on
//!   real hardware, where the one-sided read is not atomic).
//!
//! Regions can be annotated ([`Node::annotate_region`]) to tell the
//! detector what protocol role a byte range plays:
//!
//! * [`RegionKind::Sync`] — coordination memory (Phase 2/4 entries, state
//!   sync slots, ack words…). Reads acquire, writes release, and no races
//!   are reported: unsynchronized access *is* the synchronization.
//! * [`RegionKind::DualSlot`] — a dual-version object slot. A remote
//!   reader always fetches the whole slot, including the version a
//!   concurrent writer is legitimately overwriting, so the generic check
//!   would cry wolf. The raw read is therefore exempt here and the
//!   protocol layer adjudicates the *chosen version's* byte range after
//!   decoding, via [`RaceDetector::audit_remote_read`]. Writer/writer
//!   conflicts are checked as for data: only the slot's own replica
//!   writes it (an executor lane, or its service applying a transfer), in
//!   an order the protocol establishes. A write over a marked read is
//!   counted as an **in-flux window** statistic rather than a race,
//!   because overwriting the victim version after a reader snapshotted the
//!   slot is reachable — and harmless — in the correct protocol.
//! * [`RegionKind::Staging`] — a state-transfer staging ring. Write/write
//!   conflicts are suppressed (a crashed responder's late chunks may
//!   overlap a re-armed transfer); flow-control violations are reported by
//!   a protocol lint instead.
//! * [`RegionKind::Data`] (the default for unannotated memory) gets the
//!   full treatment.
//!
//! Writes that land asynchronously (unsignaled writes, write batches,
//! sends) are *ticketed*: the poster's epoch is captured at post time and
//! committed to the shadow cells at the landing instant, mirroring how the
//! real NIC carries the poster's ordering context to the remote memory.
//!
//! The detector is off by default. When off, the only cost on the verb hot
//! path is one relaxed atomic load, no process ever ticks its clock, and
//! every vector clock in the simulation stays empty — schedules are
//! bit-identical with and without the detector compiled in or enabled.

use crate::fabric::{Addr, Node, NodeId};
use parking_lot::Mutex;
use sim::VectorClock;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock};

/// Shadow-cell granularity in bytes (one machine word).
pub const CELL_BYTES: u64 = 8;

/// Cap on recorded reports; everything past it is counted, not stored.
const MAX_REPORTS: usize = 256;

/// Shadow cells allocated at a time: 64 cells shadow 512 data bytes.
const CHUNK: usize = 64;

/// Bytes of one allocated shadow chunk.
const CHUNK_SHADOW_BYTES: u64 = std::mem::size_of::<[Cell; CHUNK]>() as u64;

/// Protocol role of an annotated memory region. See the module docs for
/// the exact check matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionKind {
    /// Plain data: full remote-read and write/write checking.
    Data,
    /// Synchronization memory: reads acquire, writes release, no reports.
    Sync,
    /// Dual-version object slot: write/write checked, remote reads
    /// adjudicated by protocol lints.
    DualSlot,
    /// State-transfer staging ring: write/write suppressed.
    Staging,
}

/// One side of a reported conflict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessSite {
    /// Name of the simulated process (or `<host>` for setup-time access).
    pub proc: String,
    /// Virtual timestamp of the access, in nanoseconds.
    pub time_ns: u64,
    /// What the access was (`local-write`, `rdma-write`, `rdma-read`, …).
    pub op: &'static str,
}

impl fmt::Display for AccessSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} by {} at {}ns", self.op, self.proc, self.time_ns)
    }
}

/// Classification of a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaceKind {
    /// A remote read observed a write not ordered before it.
    RemoteReadVsWrite,
    /// A write clobbered bytes a concurrent remote read returned.
    WriteVsRemoteRead,
    /// Two writes to the same cell without an ordering edge.
    WriteVsWrite,
    /// A Heron protocol lint (reported through
    /// [`RaceDetector::report_lint`] in protocol vocabulary).
    ProtocolLint,
}

impl fmt::Display for RaceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RaceKind::RemoteReadVsWrite => "remote-read-vs-write",
            RaceKind::WriteVsRemoteRead => "write-vs-remote-read",
            RaceKind::WriteVsWrite => "write-vs-write",
            RaceKind::ProtocolLint => "protocol-lint",
        };
        f.write_str(s)
    }
}

/// A detected race or protocol-lint violation.
#[derive(Debug, Clone)]
pub struct RaceReport {
    pub kind: RaceKind,
    /// Node whose memory the conflict is on.
    pub node: NodeId,
    pub node_name: String,
    /// Label of the annotated region (or `unregistered`).
    pub region: String,
    /// Offending byte range `[start, end)` within the node's memory.
    pub range: (u64, u64),
    /// The earlier access (the one already recorded in the shadow state).
    pub first: AccessSite,
    /// The later, conflicting access.
    pub second: AccessSite,
    /// Human-readable explanation; for lints, starts with the lint name.
    pub detail: String,
}

impl fmt::Display for RaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "RACE [{}] on {} ({}) region '{}' bytes [0x{:x}, 0x{:x}):",
            self.kind, self.node, self.node_name, self.region, self.range.0, self.range.1
        )?;
        writeln!(f, "  first:  {}", self.first)?;
        writeln!(f, "  second: {}", self.second)?;
        write!(f, "  detail: {}", self.detail)
    }
}

/// Conflict information returned by [`RaceDetector::audit_remote_read`]
/// for the protocol layer to wrap in its own vocabulary.
#[derive(Debug, Clone)]
pub struct ConflictInfo {
    /// The unordered earlier write.
    pub writer: AccessSite,
    /// Offending byte range `[start, end)`.
    pub range: (u64, u64),
}

/// Counters kept while the detector runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectorStats {
    /// Remote read operations checked against shadow state.
    pub remote_reads_checked: u64,
    /// Shadow cells inspected across all checks.
    pub cells_checked: u64,
    /// Dual-slot in-flux windows observed (benign by design: a victim
    /// version overwritten after a remote reader snapshotted the slot).
    pub influx_windows: u64,
    /// Reports dropped after the in-memory cap was reached.
    pub reports_dropped: u64,
    /// Bytes of shadow chunks allocated, across every node.
    pub shadow_bytes: u64,
}

/// The epoch of a write: who wrote, at which value of their own clock
/// entry, and their full clock at that instant. Captured at post time for
/// asynchronous writes and committed at the landing instant.
#[derive(Clone)]
pub(crate) struct WriteTicket {
    /// `u32::MAX` = host thread / setup context (the sentinel epoch,
    /// ordered before everything).
    pid: u32,
    /// The writer's own clock entry after ticking; 0 = sentinel epoch.
    clk: u64,
    vc: Arc<VectorClock>,
    proc: Arc<str>,
    op: &'static str,
}

impl WriteTicket {
    /// Captures the calling process's epoch (ticking its clock). Outside
    /// process context, returns the sentinel epoch.
    pub(crate) fn capture(op: &'static str) -> WriteTicket {
        match sim::vc_release() {
            Some((pid, clk, vc)) => WriteTicket {
                pid: pid.index(),
                clk,
                vc: Arc::new(vc),
                proc: sim::proc_name().into(),
                op,
            },
            None => WriteTicket {
                pid: u32::MAX,
                clk: 0,
                vc: Arc::new(VectorClock::new()),
                proc: "<host>".into(),
                op,
            },
        }
    }
}

/// Mark left on a cell by the last checked remote read.
#[derive(Clone)]
struct ReadMark {
    pid: u32,
    clk: u64,
    time_ns: u64,
    proc: Arc<str>,
}

#[derive(Clone)]
struct Cell {
    w_pid: u32,
    w_clk: u64,
    w_time: u64,
    w_vc: Arc<VectorClock>,
    w_proc: Arc<str>,
    w_op: &'static str,
    r_mark: Option<ReadMark>,
}

impl Cell {
    /// Records `ticket`'s write at `time_ns`, clearing the read mark.
    fn commit(&mut self, ticket: &WriteTicket, time_ns: u64) {
        self.w_pid = ticket.pid;
        self.w_clk = ticket.clk;
        self.w_time = time_ns;
        self.w_vc = Arc::clone(&ticket.vc);
        self.w_proc = Arc::clone(&ticket.proc);
        self.w_op = ticket.op;
        self.r_mark = None;
    }
}

struct Region {
    start: u64,
    end: u64,
    kind: RegionKind,
    label: Arc<str>,
}

/// A cell no process has accessed: never written, never read remotely.
static INIT_CELL: LazyLock<Cell> = LazyLock::new(|| Cell {
    w_pid: u32::MAX,
    w_clk: 0,
    w_time: 0,
    w_vc: Arc::default(),
    w_proc: "<init>".into(),
    w_op: "init",
    r_mark: None,
});

/// A node's shadow cells, allocated a chunk at a time on the first access
/// from process context. A cell whose chunk does not exist reads as
/// [`INIT_CELL`].
#[derive(Default)]
struct Cells(Vec<Option<Box<[Cell]>>>);

impl Cells {
    /// The chunk holding cell `idx`, if it exists.
    fn chunk(&self, idx: usize) -> Option<&[Cell]> {
        self.0.get(idx / CHUNK)?.as_deref()
    }

    /// Cell `idx`, or the init cell if its chunk does not exist.
    fn get(&self, idx: usize) -> &Cell {
        self.chunk(idx).map_or(&INIT_CELL, |c| &c[idx % CHUNK])
    }

    /// Cell `idx` to update, its chunk created from init cells if missing.
    fn get_mut(&mut self, idx: usize) -> &mut Cell {
        let at = idx / CHUNK;
        self.0.resize_with(self.0.len().max(at + 1), || None);
        let chunk = self.0[at].get_or_insert_with(|| vec![INIT_CELL.clone(); CHUNK].into());
        &mut chunk[idx % CHUNK]
    }
}

/// The cells shadowing `len` bytes at `addr`.
fn cell_range(addr: Addr, len: usize) -> std::ops::Range<usize> {
    let first = (addr.0 / CELL_BYTES) as usize;
    let last = ((addr.0 + len as u64).div_ceil(CELL_BYTES)) as usize;
    first..last
}

struct NodeShadow {
    name: String,
    cells: Cells,
    /// Sorted by start; ranges never overlap (allocations are disjoint).
    regions: Vec<Region>,
    default_label: Arc<str>,
}

impl NodeShadow {
    fn new() -> NodeShadow {
        NodeShadow {
            name: String::new(),
            cells: Cells::default(),
            regions: Vec::new(),
            default_label: "unregistered".into(),
        }
    }

    fn region_at(&self, cell_idx: usize) -> (RegionKind, &Arc<str>) {
        let byte = cell_idx as u64 * CELL_BYTES;
        let i = self.regions.partition_point(|r| r.start <= byte);
        if i > 0 {
            let r = &self.regions[i - 1];
            if byte < r.end {
                return (r.kind, &r.label);
            }
        }
        (RegionKind::Data, &self.default_label)
    }
}

/// Shared detector state, hung off the fabric behind an `AtomicBool` so
/// the detector-off hot path is a single relaxed load.
pub(crate) struct TsanState {
    shadow: Mutex<Vec<NodeShadow>>,
    reports: Mutex<Vec<RaceReport>>,
    remote_reads_checked: AtomicU64,
    cells_checked: AtomicU64,
    influx_windows: AtomicU64,
    reports_dropped: AtomicU64,
}

impl TsanState {
    pub(crate) fn new() -> TsanState {
        TsanState {
            shadow: Mutex::new(Vec::new()),
            reports: Mutex::new(Vec::new()),
            remote_reads_checked: AtomicU64::new(0),
            cells_checked: AtomicU64::new(0),
            influx_windows: AtomicU64::new(0),
            reports_dropped: AtomicU64::new(0),
        }
    }

    fn record(&self, report: RaceReport) {
        let mut reports = self.reports.lock();
        if reports.len() >= MAX_REPORTS {
            self.reports_dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        reports.push(report);
    }

    fn with_node<R>(&self, node: &Node, f: impl FnOnce(&mut NodeShadow) -> R) -> R {
        let mut shadows = self.shadow.lock();
        let idx = node.id().0 as usize;
        while shadows.len() <= idx {
            shadows.push(NodeShadow::new());
        }
        let s = &mut shadows[idx];
        if s.name.is_empty() {
            s.name = node.name().to_string();
        }
        f(s)
    }

    pub(crate) fn annotate(
        &self,
        node: &Node,
        addr: Addr,
        len: usize,
        kind: RegionKind,
        label: String,
    ) {
        self.with_node(node, |s| {
            s.regions.push(Region {
                start: addr.0,
                end: addr.0 + len as u64,
                kind,
                label: label.into(),
            });
            s.regions.sort_by_key(|r| r.start);
        });
    }

    /// Commits a write's epoch to the shadow cells, checking for
    /// write/write conflicts and writes over unordered remote-read marks.
    pub(crate) fn on_write(
        &self,
        node: &Node,
        addr: Addr,
        len: usize,
        ticket: &WriteTicket,
        time_ns: u64,
    ) {
        let mut pending: Vec<RaceReport> = Vec::new();
        let mut influx = 0u64;
        let mut checked = 0u64;
        self.with_node(node, |s| {
            let range = cell_range(addr, len);
            checked = range.len() as u64;
            for idx in range {
                if ticket.pid == u32::MAX && s.cells.chunk(idx).is_none() {
                    // The sentinel epoch over init cells: the cells it
                    // would write read exactly as the init cell does.
                    continue;
                }
                let (kind, label) = s.region_at(idx);
                let label = Arc::clone(label);
                let cell = s.cells.get_mut(idx);
                match kind {
                    RegionKind::Sync | RegionKind::Staging => {}
                    RegionKind::DualSlot | RegionKind::Data => {
                        if cell.w_clk != 0
                            && cell.w_pid != ticket.pid
                            && ticket.vc.get(cell.w_pid) < cell.w_clk
                        {
                            Self::extend(
                                &mut pending,
                                RaceKind::WriteVsWrite,
                                node,
                                &s.name,
                                &label,
                                idx,
                                AccessSite {
                                    proc: cell.w_proc.to_string(),
                                    time_ns: cell.w_time,
                                    op: cell.w_op,
                                },
                                AccessSite {
                                    proc: ticket.proc.to_string(),
                                    time_ns,
                                    op: ticket.op,
                                },
                                "two writes to the same cell with no \
                                 happens-before edge between the writers",
                            );
                        }
                        let unordered_read = cell
                            .r_mark
                            .as_ref()
                            .filter(|m| m.pid != ticket.pid && ticket.vc.get(m.pid) < m.clk);
                        if let Some(m) = unordered_read {
                            if kind == RegionKind::DualSlot {
                                // The in-flux window: the victim version was
                                // overwritten after a reader snapshotted the
                                // slot. Reachable in the correct protocol, so
                                // a statistic, not a race.
                                influx += 1;
                            } else {
                                Self::extend(
                                    &mut pending,
                                    RaceKind::WriteVsRemoteRead,
                                    node,
                                    &s.name,
                                    &label,
                                    idx,
                                    AccessSite {
                                        proc: m.proc.to_string(),
                                        time_ns: m.time_ns,
                                        op: "rdma-read",
                                    },
                                    AccessSite {
                                        proc: ticket.proc.to_string(),
                                        time_ns,
                                        op: ticket.op,
                                    },
                                    "write clobbered bytes a concurrent remote \
                                     read returned; on real hardware the read \
                                     is not atomic and could tear",
                                );
                            }
                        }
                    }
                }
                cell.commit(ticket, time_ns);
            }
        });
        self.cells_checked.fetch_add(checked, Ordering::Relaxed);
        if influx > 0 {
            self.influx_windows.fetch_add(1, Ordering::Relaxed);
        }
        for r in pending {
            self.record(r);
        }
    }

    /// Pushes a per-cell conflict, merging it into the previous report when
    /// it continues the same contiguous conflict (same kind, same first
    /// site) so one multi-cell operation yields one report per range.
    #[allow(clippy::too_many_arguments)]
    fn extend(
        pending: &mut Vec<RaceReport>,
        kind: RaceKind,
        node: &Node,
        node_name: &str,
        label: &Arc<str>,
        cell_idx: usize,
        first: AccessSite,
        second: AccessSite,
        detail: &str,
    ) {
        let start = cell_idx as u64 * CELL_BYTES;
        let end = start + CELL_BYTES;
        if let Some(last) = pending.last_mut() {
            if last.kind == kind && last.range.1 == start && last.first == first {
                last.range.1 = end;
                return;
            }
        }
        pending.push(RaceReport {
            kind,
            node: node.id(),
            node_name: node_name.to_string(),
            region: label.to_string(),
            range: (start, end),
            first,
            second,
            detail: detail.to_string(),
        });
    }

    /// Checks a remote (one-sided) read by the calling process. Data cells
    /// are HB-checked and marked; Sync cells are acquired; DualSlot and
    /// Staging cells are exempt (the protocol layer adjudicates them).
    pub(crate) fn on_remote_read(&self, node: &Node, addr: Addr, len: usize, time_ns: u64) {
        let Some((pid, clk, mut r_vc)) = sim::vc_release() else {
            return; // reads are always posted from process context
        };
        let r_pid = pid.index();
        let r_proc: Arc<str> = sim::proc_name().into();
        let mut acquired = VectorClock::new();
        let mut pending: Vec<RaceReport> = Vec::new();
        let mut checked = 0u64;
        self.with_node(node, |s| {
            let range = cell_range(addr, len);
            checked = range.len() as u64;
            for idx in range {
                let (kind, label) = s.region_at(idx);
                let label = Arc::clone(label);
                let cell = s.cells.get_mut(idx);
                match kind {
                    RegionKind::Sync => {
                        // Reading sync memory one-sidedly is the protocol's
                        // synchronization: acquire the writer's clock.
                        if !cell.w_vc.is_empty() {
                            acquired.join(&cell.w_vc);
                            r_vc.join(&cell.w_vc);
                        }
                    }
                    RegionKind::DualSlot | RegionKind::Staging => {}
                    RegionKind::Data => {
                        if cell.w_clk != 0
                            && cell.w_pid != r_pid
                            && r_vc.get(cell.w_pid) < cell.w_clk
                        {
                            Self::extend(
                                &mut pending,
                                RaceKind::RemoteReadVsWrite,
                                node,
                                &s.name,
                                &label,
                                idx,
                                AccessSite {
                                    proc: cell.w_proc.to_string(),
                                    time_ns: cell.w_time,
                                    op: cell.w_op,
                                },
                                AccessSite {
                                    proc: r_proc.to_string(),
                                    time_ns,
                                    op: "rdma-read",
                                },
                                "remote read observed a write with no \
                                 happens-before edge to the reader",
                            );
                        }
                        cell.r_mark = Some(ReadMark {
                            pid: r_pid,
                            clk,
                            time_ns,
                            proc: Arc::clone(&r_proc),
                        });
                    }
                }
            }
        });
        if !acquired.is_empty() {
            sim::vc_acquire(&acquired);
        }
        self.remote_reads_checked.fetch_add(1, Ordering::Relaxed);
        self.cells_checked.fetch_add(checked, Ordering::Relaxed);
        for r in pending {
            self.record(r);
        }
    }

    /// Acquire edge for a local read: polling (or reading) one's own
    /// registered memory observes writes that landed there, so the reader
    /// inherits the writers' clocks. This is what turns Heron's
    /// "write remotely, poll locally" barriers into happens-before edges.
    pub(crate) fn on_local_read(&self, node: &Node, addr: Addr, len: usize) {
        let mut acquired = VectorClock::new();
        self.with_node(node, |s| {
            let mut last: Option<&Arc<VectorClock>> = None;
            for idx in cell_range(addr, len) {
                let vc = &s.cells.get(idx).w_vc;
                if vc.is_empty() {
                    continue;
                }
                if let Some(prev) = last {
                    if Arc::ptr_eq(prev, vc) {
                        continue;
                    }
                }
                acquired.join(vc);
                last = Some(vc);
            }
        });
        if !acquired.is_empty() {
            sim::vc_acquire(&acquired);
        }
    }

    /// Compare-and-swap: atomic by construction, so no race is possible on
    /// the word itself — it acquires the previous writer's clock and
    /// releases the caller's own epoch onto the cell.
    pub(crate) fn on_cas(&self, node: &Node, addr: Addr, ticket: &WriteTicket, time_ns: u64) {
        let mut acquired = VectorClock::new();
        self.with_node(node, |s| {
            for idx in cell_range(addr, 8) {
                let cell = s.cells.get_mut(idx);
                if !cell.w_vc.is_empty() {
                    acquired.join(&cell.w_vc);
                }
                cell.commit(ticket, time_ns);
            }
        });
        if !acquired.is_empty() {
            sim::vc_acquire(&acquired);
        }
    }
}

/// Public handle to an enabled race detector. Cloneable; clones share the
/// same state. Obtained from [`crate::Fabric::enable_race_detector`].
#[derive(Clone)]
pub struct RaceDetector {
    pub(crate) state: Arc<TsanState>,
}

impl fmt::Debug for RaceDetector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RaceDetector")
            .field("reports", &self.state.reports.lock().len())
            .finish()
    }
}

impl RaceDetector {
    /// Annotates a byte range of `node`'s memory with its protocol role.
    /// Equivalent to [`Node::annotate_region`].
    pub fn annotate(
        &self,
        node: &Node,
        addr: Addr,
        len: usize,
        kind: RegionKind,
        label: impl Into<String>,
    ) {
        self.state.annotate(node, addr, len, kind, label.into());
    }

    /// Snapshot of all recorded reports.
    pub fn reports(&self) -> Vec<RaceReport> {
        self.state.reports.lock().clone()
    }

    /// Drains the recorded reports.
    pub fn take_reports(&self) -> Vec<RaceReport> {
        std::mem::take(&mut *self.state.reports.lock())
    }

    /// Current counters.
    pub fn stats(&self) -> DetectorStats {
        DetectorStats {
            remote_reads_checked: self.state.remote_reads_checked.load(Ordering::Relaxed),
            cells_checked: self.state.cells_checked.load(Ordering::Relaxed),
            influx_windows: self.state.influx_windows.load(Ordering::Relaxed),
            reports_dropped: self.state.reports_dropped.load(Ordering::Relaxed),
            shadow_bytes: (self.state.shadow.lock().iter())
                .map(|s| s.cells.0.iter().flatten().count() as u64 * CHUNK_SHADOW_BYTES)
                .sum(),
        }
    }

    /// Adjudicates a sub-range of an exempt region (typically the *chosen
    /// version* of a dual-version slot, after decoding) as a remote read
    /// by the calling process: HB-checks the range against the shadow
    /// writer epochs and marks it read. Returns the first conflict, if
    /// any, **without** recording a report — the protocol layer wraps it
    /// in its own vocabulary via [`RaceDetector::report_lint`].
    pub fn audit_remote_read(&self, node: &Node, addr: Addr, len: usize) -> Option<ConflictInfo> {
        let (pid, clk, r_vc) = sim::vc_release()?;
        let r_pid = pid.index();
        let r_proc: Arc<str> = sim::proc_name().into();
        let time_ns = sim::try_now().map(|t| t.as_nanos()).unwrap_or(0);
        let mut conflict: Option<ConflictInfo> = None;
        self.state.with_node(node, |s| {
            for idx in cell_range(addr, len) {
                let cell = s.cells.get_mut(idx);
                if cell.w_clk != 0 && cell.w_pid != r_pid && r_vc.get(cell.w_pid) < cell.w_clk {
                    let start = idx as u64 * CELL_BYTES;
                    match &mut conflict {
                        Some(c) if c.range.1 == start => c.range.1 = start + CELL_BYTES,
                        Some(_) => {}
                        None => {
                            conflict = Some(ConflictInfo {
                                writer: AccessSite {
                                    proc: cell.w_proc.to_string(),
                                    time_ns: cell.w_time,
                                    op: cell.w_op,
                                },
                                range: (start, start + CELL_BYTES),
                            });
                        }
                    }
                }
                cell.r_mark = Some(ReadMark {
                    pid: r_pid,
                    clk,
                    time_ns,
                    proc: Arc::clone(&r_proc),
                });
            }
        });
        self.state
            .remote_reads_checked
            .fetch_add(1, Ordering::Relaxed);
        conflict
    }

    /// Looks up the last writer of a byte range as an [`AccessSite`] (for
    /// lints that want to name the offending prior write). Returns `None`
    /// if the range was never written.
    pub fn last_writer(&self, node: &Node, addr: Addr, len: usize) -> Option<AccessSite> {
        self.state.with_node(node, |s| {
            for idx in cell_range(addr, len) {
                let cell = s.cells.get(idx);
                if cell.w_clk != 0 || cell.w_pid != u32::MAX {
                    return Some(AccessSite {
                        proc: cell.w_proc.to_string(),
                        time_ns: cell.w_time,
                        op: cell.w_op,
                    });
                }
            }
            None
        })
    }

    /// Records a protocol-lint violation in protocol vocabulary. `lint` is
    /// the lint name; `first` names the earlier conflicting access when
    /// known (e.g. from [`RaceDetector::last_writer`]); the second site is
    /// the calling process at the current virtual time.
    pub fn report_lint(
        &self,
        lint: &str,
        node: &Node,
        region: impl Into<String>,
        range: (u64, u64),
        first: Option<AccessSite>,
        detail: impl Into<String>,
    ) {
        let proc = sim::vc_release()
            .map(|_| sim::proc_name())
            .unwrap_or_else(|| "<host>".to_string());
        let time_ns = sim::try_now().map(|t| t.as_nanos()).unwrap_or(0);
        let second = AccessSite {
            proc,
            time_ns,
            op: "lint",
        };
        self.state.record(RaceReport {
            kind: RaceKind::ProtocolLint,
            node: node.id(),
            node_name: node.name().to_string(),
            region: region.into(),
            range,
            first: first.unwrap_or_else(|| AccessSite {
                proc: "<unknown>".to_string(),
                time_ns: 0,
                op: "unknown",
            }),
            second,
            detail: format!("{}: {}", lint, detail.into()),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyModel;
    use crate::Fabric;
    use std::time::Duration;

    /// A local writes a data cell; B remote-reads it with no sync edge in
    /// between: the detector must report exactly one race, at the exact
    /// virtual instants of both accesses — deterministically.
    #[test]
    fn unsynchronized_remote_read_is_reported_at_exact_virtual_time() {
        fn run() -> Vec<RaceReport> {
            let sim_h = sim::Simulation::new(11);
            let fabric = Fabric::new(LatencyModel::connectx4());
            let det = fabric.enable_race_detector();
            let a = fabric.add_node("a");
            let b = fabric.add_node("b");
            let addr = a.alloc_bytes(16);
            let a2 = a.clone();
            sim_h.spawn("writer", move || {
                sim::sleep(Duration::from_nanos(100));
                a2.local_write(addr, &[7u8; 16]).unwrap();
            });
            let qp_holder = b.connect(&a);
            sim_h.spawn("reader", move || {
                sim::sleep(Duration::from_nanos(500));
                let _ = qp_holder.read(addr, 16).unwrap();
            });
            sim_h.run().unwrap();
            det.reports()
        }
        let reports = run();
        assert_eq!(reports.len(), 1, "got: {reports:#?}");
        let r = &reports[0];
        assert_eq!(r.kind, RaceKind::RemoteReadVsWrite);
        assert_eq!(r.range, (addr_of_16().0, addr_of_16().0 + 16));
        assert_eq!(r.first.time_ns, 100);
        assert_eq!(r.first.proc, "writer");
        assert_eq!(r.second.proc, "reader");
        // Determinism: bit-identical report on replay.
        let again = run();
        assert_eq!(again.len(), 1);
        assert_eq!(again[0].first.time_ns, r.first.time_ns);
        assert_eq!(again[0].second.time_ns, r.second.time_ns);
        assert_eq!(again[0].range, r.range);
    }

    fn addr_of_16() -> Addr {
        Addr(0)
    }

    /// Same schedule, but the writer hands the reader a mailbox message
    /// after writing (a sync edge): no race.
    #[test]
    fn mailbox_edge_suppresses_the_report() {
        let sim_h = sim::Simulation::new(11);
        let fabric = Fabric::new(LatencyModel::connectx4());
        let det = fabric.enable_race_detector();
        let a = fabric.add_node("a");
        let b = fabric.add_node("b");
        let addr = a.alloc_bytes(16);
        let (tx, rx) = sim::Mailbox::pair();
        let a2 = a.clone();
        sim_h.spawn("writer", move || {
            sim::sleep(Duration::from_nanos(100));
            a2.local_write(addr, &[7u8; 16]).unwrap();
            tx.send(()).unwrap();
        });
        let qp = b.connect(&a);
        sim_h.spawn("reader", move || {
            rx.recv();
            let _ = qp.read(addr, 16).unwrap();
        });
        sim_h.run().unwrap();
        assert!(det.reports().is_empty(), "got: {:#?}", det.reports());
    }

    /// Polling one's own memory after a remote write lands is an acquire:
    /// the classic Heron "write remotely, poll locally" barrier produces
    /// no race even though no message is ever exchanged.
    #[test]
    fn poll_after_remote_write_is_an_acquire_edge() {
        let sim_h = sim::Simulation::new(3);
        let fabric = Fabric::new(LatencyModel::connectx4());
        let det = fabric.enable_race_detector();
        let a = fabric.add_node("a");
        let b = fabric.add_node("b");
        let data = a.alloc_bytes(16);
        let flag = b.alloc_words(1);
        let a2 = a.clone();
        let qp_ab = a.connect(&b);
        sim_h.spawn("writer", move || {
            sim::sleep(Duration::from_nanos(100));
            a2.local_write(data, &[9u8; 16]).unwrap();
            // Unsignaled write of the flag into B's memory: the landing
            // carries the writer's post-time epoch.
            qp_ab.post_write_word(flag, 1).unwrap();
        });
        let b2 = b.clone();
        let poller = b.poller(sim::Cond::new(), &[(flag, 8)]);
        let qp_ba = b.connect(&a);
        sim_h.spawn("reader", move || {
            poller.poll_until(|| b2.local_read_word(flag).unwrap() == 1);
            let _ = qp_ba.read(data, 16).unwrap();
        });
        sim_h.run().unwrap();
        assert!(det.reports().is_empty(), "got: {:#?}", det.reports());
    }

    /// The same barrier polled in place: every read through a
    /// [`crate::MemView`] is an acquire too, joined when the borrow ends —
    /// here the flag is the second of two ranges read under one borrow.
    #[test]
    fn poll_through_a_view_is_an_acquire_edge() {
        let sim_h = sim::Simulation::new(3);
        let fabric = Fabric::new(LatencyModel::connectx4());
        let det = fabric.enable_race_detector();
        let a = fabric.add_node("a");
        let b = fabric.add_node("b");
        let data = a.alloc_bytes(16);
        let idle = b.alloc_words(1);
        let flag = b.alloc_words(1);
        let a2 = a.clone();
        let qp_ab = a.connect(&b);
        sim_h.spawn("writer", move || {
            sim::sleep(Duration::from_nanos(100));
            a2.local_write(data, &[9u8; 16]).unwrap();
            qp_ab.post_write_word(flag, 1).unwrap();
        });
        let b2 = b.clone();
        let poller = b.poller(sim::Cond::new(), &[(flag, 8)]);
        let qp_ba = b.connect(&a);
        sim_h.spawn("reader", move || {
            poller.poll_until(|| {
                b2.with_mem(|m| m.bytes(idle, 8).unwrap() != [0; 8] || m.word(flag).unwrap() == 1)
            });
            let _ = qp_ba.read(data, 16).unwrap();
        });
        sim_h.run().unwrap();
        assert!(det.reports().is_empty(), "got: {:#?}", det.reports());
    }

    /// Sync-annotated regions are exempt from remote-read checks and act
    /// as acquire points themselves.
    #[test]
    fn sync_region_remote_read_acquires_instead_of_reporting() {
        let sim_h = sim::Simulation::new(5);
        let fabric = Fabric::new(LatencyModel::connectx4());
        let det = fabric.enable_race_detector();
        let a = fabric.add_node("a");
        let b = fabric.add_node("b");
        let word = a.alloc_words(1);
        let data = a.alloc_bytes(16);
        a.annotate_region(word, 8, RegionKind::Sync, "flag");
        let a2 = a.clone();
        sim_h.spawn("writer", move || {
            sim::sleep(Duration::from_nanos(100));
            a2.local_write(data, &[1u8; 16]).unwrap();
            a2.local_write_word(word, 1).unwrap();
        });
        let qp = b.connect(&a);
        sim_h.spawn("reader", move || {
            // Poll the remote flag word (sync region: acquire, no race),
            // then read the data it guards: ordered, so no race either.
            loop {
                if qp.read_word(word).unwrap() == 1 {
                    break;
                }
                sim::sleep(Duration::from_nanos(50));
            }
            let _ = qp.read(data, 16).unwrap();
        });
        sim_h.run().unwrap();
        assert!(det.reports().is_empty(), "got: {:#?}", det.reports());
    }

    /// A dual-version slot exempts remote reads, not writers: two
    /// unordered writes into one are a write/write race, as in data.
    #[test]
    fn dual_slot_writes_are_checked_like_data() {
        let sim_h = sim::Simulation::new(5);
        let fabric = Fabric::new(LatencyModel::connectx4());
        let det = fabric.enable_race_detector();
        let a = fabric.add_node("a");
        let slot = a.alloc_bytes(16);
        a.annotate_region(slot, 16, RegionKind::DualSlot, "slot");
        for (name, at) in [("w1", 100), ("w2", 200)] {
            let qp = fabric.add_node(name).connect(&a);
            sim_h.spawn(name, move || {
                sim::sleep(Duration::from_nanos(at));
                qp.post_write(slot, vec![1u8; 16]).unwrap();
            });
        }
        sim_h.run().unwrap();
        let reports = det.reports();
        assert_eq!(reports.len(), 1, "got: {reports:#?}");
        assert_eq!(reports[0].kind, RaceKind::WriteVsWrite);
        assert_eq!(reports[0].range, (slot.0, slot.0 + 16));
        assert_eq!(
            (&*reports[0].first.proc, &*reports[0].second.proc),
            ("w1", "w2")
        );
    }

    /// A host-context write is the sentinel epoch, which reads exactly as
    /// an init cell: over untouched memory it allocates no shadow, and a
    /// local read of untouched memory allocates none either.
    #[test]
    fn host_writes_and_local_reads_of_untouched_memory_allocate_no_shadow() {
        let sim_h = sim::Simulation::new(1);
        let fabric = Fabric::new(LatencyModel::connectx4());
        let det = fabric.enable_race_detector();
        let a = fabric.add_node("a");
        let addr = a.alloc_bytes(4096);
        a.local_write(addr, &[1u8; 4096]).unwrap();
        assert_eq!(det.stats().shadow_bytes, 0);
        assert!(det.last_writer(&a, addr, 4096).is_none());
        let a2 = a.clone();
        sim_h.spawn("poller", move || {
            let _ = a2.local_read(addr, 4096).unwrap();
            let _ = a2.with_mem(|m| m.word(addr.offset(512)).unwrap());
        });
        sim_h.run().unwrap();
        assert_eq!(det.stats().shadow_bytes, 0);
        assert_eq!(det.stats().cells_checked, 512);
    }

    /// The sentinel still resets a cell whose chunk exists: a process
    /// write overwritten from host context (itself reported — nothing
    /// orders the host after the writer) is forgotten, so a later
    /// unordered remote read is not reported and the range has no last
    /// writer.
    #[test]
    fn a_host_write_resets_a_cell_a_process_wrote() {
        let sim_h = sim::Simulation::new(2);
        let fabric = Fabric::new(LatencyModel::connectx4());
        let det = fabric.enable_race_detector();
        let a = fabric.add_node("a");
        let b = fabric.add_node("b");
        let addr = a.alloc_bytes(16);
        let a2 = a.clone();
        sim_h.spawn("writer", move || a2.local_write(addr, &[7u8; 16]).unwrap());
        sim_h.run().unwrap();
        let chunk = det.stats().shadow_bytes;
        assert!(chunk > 0);
        assert_eq!(det.last_writer(&a, addr, 16).unwrap().proc, "writer");
        a.local_write(addr, &[8u8; 16]).unwrap();
        assert!(det.last_writer(&a, addr, 16).is_none());
        let qp = b.connect(&a);
        sim_h.spawn("reader", move || {
            assert_eq!(qp.read(addr, 16).unwrap(), [8u8; 16]);
        });
        sim_h.run().unwrap();
        let reports = det.reports();
        assert_eq!(reports.len(), 1, "got: {reports:#?}");
        assert_eq!(reports[0].kind, RaceKind::WriteVsWrite);
        assert_eq!(reports[0].second.proc, "<host>");
        assert_eq!(det.stats().remote_reads_checked, 1);
        assert_eq!(det.stats().shadow_bytes, chunk);
    }

    /// When the detector is off, clocks never tick and the event schedule
    /// is bit-identical to a detector-on run (the detector only observes).
    #[test]
    fn detector_does_not_perturb_the_schedule() {
        fn run(enable: bool) -> (u64, u64) {
            let sim_h = sim::Simulation::new(77);
            let fabric = Fabric::new(LatencyModel::connectx4());
            if enable {
                let _ = fabric.enable_race_detector();
            }
            let a = fabric.add_node("a");
            let b = fabric.add_node("b");
            let addr = a.alloc_bytes(64);
            let qp = b.connect(&a);
            let a2 = a.clone();
            sim_h.spawn("writer", move || {
                for i in 0..20u64 {
                    a2.local_write_word(addr.offset(8 * (i % 8)), i).unwrap();
                    sim::sleep(Duration::from_nanos(30));
                }
            });
            sim_h.spawn("reader", move || {
                for _ in 0..10 {
                    let _ = qp.read(addr, 64).unwrap();
                    sim::sleep(Duration::from_nanos(45));
                }
            });
            sim_h.run().unwrap();
            (sim_h.now().as_nanos(), sim_h.events_executed())
        }
        assert_eq!(run(false), run(true));
    }
}
