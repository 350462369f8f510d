//! Sim-Prof: deterministic virtual-time wait-state profiling.
//!
//! Per simulated process, how virtual time splits across scheduler states
//! — plus fixed-bucket utilization timelines for shared resources
//! (executor pools, QP send queues, the sequencer, disks). Both are part
//! of the trace: [`crate::Simulation::enable_tracing`] is the one switch,
//! and [`crate::trace::Tracer::report`] reads them. The recording
//! discipline is the tracer's: hooks append to recorder-private state and
//! never sleep, never schedule an event, and never touch a process RNG,
//! so **schedules are bit-identical with tracing on or off**. When it is
//! off every kernel hook reduces to one flag test.
//!
//! # State machine
//!
//! Every process is always in exactly one state:
//!
//! * **Running** — executing user code. In virtual time this is always a
//!   zero-length interval: the clock only advances between events, never
//!   while a process runs. Transition counts still matter (they count
//!   dispatches).
//! * **Runnable** — popped from the event queue, about to run. Structurally
//!   zero-length too (a wake is popped exactly at its scheduled instant and
//!   dispatched immediately); tracked for its transition count.
//! * **Sleep** — blocked in [`crate::sleep`]: *modeled service time* (an
//!   execution cost, an RDMA latency charge). This is where "work" shows up
//!   in virtual time.
//! * **Blocked{label}** — waiting on a [`crate::Cond`] (label = the cond's
//!   taxonomy label: `"mailbox"`, `"rdma.mem"`, …) or inside an explicit
//!   [`blocked_scope`] such as `"disk"`: *idle wait*, the profile's whole
//!   reason to exist.
//! * **Parked{label}** — a semantic park declared with [`parked_scope`]
//!   (P-SMR `phase2_starved` / `lagging` workers, checkpoint quiescence).
//!
//! Because all user code runs in zero virtual time, the per-process totals
//! decompose the *entire* virtual timeline into sleep (modeled work) vs
//! blocked/parked (waiting) — which is exactly the wait-state profile.
//!
//! # Resource timelines
//!
//! [`gauge`] returns a handle that holds the resource's value and records
//! a time-weighted step function of it (the value over virtual time),
//! folded into fixed-width buckets. No gauge update is a trace event;
//! [`crate::trace::Tracer::export_chrome_json`] writes the buckets as
//! Perfetto counter tracks beside the spans.

use crate::kernel::{try_with_ctx, Kernel, Pid};
use crate::trace::{TraceState, Tracer};
use std::cell::{Cell, OnceCell};
use std::fmt;
use std::rc::{Rc, Weak};
use std::sync::Arc;

/// Timeline bucket width: 100µs of virtual time.
pub const BUCKET_NS: u64 = 100_000;

/// Hard cap on timeline buckets per gauge; time beyond the cap accumulates
/// into the last bucket (runs are ms-scale, so this is ~1.6s of headroom).
const MAX_BUCKETS: usize = 16_384;

/// The family a wait state belongs to (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateKind {
    /// Executing user code (zero-length in virtual time).
    Running,
    /// Popped and about to be dispatched (zero-length in virtual time).
    Runnable,
    /// Modeled service time ([`crate::sleep`]).
    Sleep,
    /// Idle wait on a cond / mailbox / memory / disk.
    Blocked,
    /// Semantic park ([`parked_scope`]).
    Parked,
}

/// A wait-state key: family plus taxonomy label.
pub(crate) type Key = (StateKind, &'static str);

pub(crate) const RUNNABLE: Key = (StateKind::Runnable, "");
pub(crate) const RUNNING: Key = (StateKind::Running, "");
pub(crate) const SLEEP: Key = (StateKind::Sleep, "");
pub(crate) const BLOCKED_COND: Key = (StateKind::Blocked, "cond");
pub(crate) const BLOCKED_SPAWN: Key = (StateKind::Blocked, "spawn");

fn key_name((kind, label): Key) -> String {
    match kind {
        StateKind::Running => "running".to_string(),
        StateKind::Runnable => "runnable".to_string(),
        StateKind::Sleep => "sleep".to_string(),
        StateKind::Blocked => {
            let l = if label.is_empty() { "cond" } else { label };
            format!("blocked.{l}")
        }
        StateKind::Parked => format!("parked.{label}"),
    }
}

/// The key of an idle wait labelled `label` (empty: the generic `"cond"`).
pub(crate) fn blocked(label: &'static str) -> Key {
    (
        StateKind::Blocked,
        if label.is_empty() { "cond" } else { label },
    )
}

/// RAII guard restoring the previous wait-state scope on drop.
#[must_use = "dropping the guard immediately ends the scope"]
#[derive(Debug)]
pub struct WaitScope {
    prev: Option<Key>,
}

impl Drop for WaitScope {
    fn drop(&mut self) {
        let _ = try_with_ctx(|k, pid| k.swap_scope(pid, self.prev));
    }
}

/// The scope belongs to the calling *process* (kernel state, not a
/// thread-local: every process shares one thread) and stays set while the
/// process is blocked. A no-op outside process context.
fn enter_scope(key: Key) -> WaitScope {
    WaitScope {
        prev: try_with_ctx(|k, pid| k.swap_scope(pid, Some(key))).flatten(),
    }
}

/// While the guard lives, blocks by the calling process are attributed to
/// `Blocked{label}` (e.g. `"disk"` around a storage charge). Nests; always
/// cheap (one kernel-state access each way), so callers need no profiling
/// gate.
pub fn blocked_scope(label: &'static str) -> WaitScope {
    enter_scope((StateKind::Blocked, label))
}

/// While the guard lives, blocks by the calling process are attributed to
/// `Parked{label}` (e.g. `"phase2_starved"` around a P-SMR stall park).
pub fn parked_scope(label: &'static str) -> WaitScope {
    enter_scope((StateKind::Parked, label))
}

#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Stat {
    ns: u64,
    transitions: u64,
}

#[derive(Clone)]
struct ProcProf {
    cur: Key,
    since: u64,
    finished: bool,
    /// Dispatch count; Runnable and Running are structurally zero-length
    /// (module docs), so the hot path keeps one counter and the report
    /// synthesizes both states from it.
    dispatches: u64,
    /// Linear scan by key: a process visits only a handful of states.
    totals: Vec<(Key, Stat)>,
}

fn bump(totals: &mut Vec<(Key, Stat)>, key: Key, ns: u64, transitions: u64) {
    match totals.iter_mut().find(|(k, _)| *k == key) {
        Some((_, s)) => {
            s.ns += ns;
            s.transitions += transitions;
        }
        None => totals.push((key, Stat { ns, transitions })),
    }
}

/// One gauge's recorded step function. The slots live in the trace state,
/// in registration order.
pub(crate) struct GaugeSlot {
    name: String,
    last_t: u64,
    last_v: u64,
    max: u64,
    /// Per-bucket ∫value·dt, in value·ns.
    weighted: Vec<u128>,
}

impl GaugeSlot {
    /// Folds the step function from `last_t` to `now` into the buckets.
    fn advance(&mut self, now: u64) {
        if now <= self.last_t {
            return;
        }
        if self.last_v == 0 {
            self.last_t = now;
            return;
        }
        let mut t = self.last_t;
        while t < now {
            let b = ((t / BUCKET_NS) as usize).min(MAX_BUCKETS - 1);
            let bucket_end = if b == MAX_BUCKETS - 1 {
                u64::MAX
            } else {
                (t / BUCKET_NS + 1) * BUCKET_NS
            };
            let seg = now.min(bucket_end) - t;
            if self.weighted.len() <= b {
                self.weighted.resize(b + 1, 0);
            }
            self.weighted[b] += u128::from(self.last_v) * u128::from(seg);
            t += seg;
        }
        self.last_t = now;
    }

    /// The step function takes value `v` at `now`.
    fn set(&mut self, now: u64, v: u64) {
        self.advance(now);
        self.last_v = v;
        self.max = self.max.max(v);
    }

    /// The timeline as of `end_ns`, its open tail folded into a scratch
    /// copy.
    fn series(&self, end_ns: u64) -> GaugeSeries {
        let mut tail = GaugeSlot {
            name: String::new(),
            weighted: self.weighted.clone(),
            ..*self
        };
        tail.advance(end_ns);
        let weighted = tail.weighted;
        let mean: Vec<f64> = weighted
            .iter()
            .enumerate()
            .map(|(b, w)| {
                let start = b as u64 * BUCKET_NS;
                let width = if end_ns > start {
                    (end_ns - start).min(BUCKET_NS)
                } else {
                    BUCKET_NS
                };
                *w as f64 / width as f64
            })
            .collect();
        let total_w: u128 = weighted.iter().sum();
        let mean_overall = if end_ns > 0 {
            total_w as f64 / end_ns as f64
        } else {
            0.0
        };
        GaugeSeries {
            name: self.name.clone(),
            bucket_ns: BUCKET_NS,
            mean,
            max: self.max,
            mean_overall,
        }
    }
}

/// Per-process wait-state accounting. Owned by the kernel's state struct
/// (`KState`): the hooks only ever fire under the kernel state borrow, so
/// keeping the data there makes each hook a plain method call — no second
/// borrow, no reference-count traffic, nothing on the event hot path beyond
/// the work itself.
pub(crate) struct ProfProcs {
    procs: Vec<ProcProf>,
}

impl ProfProcs {
    pub(crate) fn new() -> Self {
        ProfProcs { procs: Vec::new() }
    }

    fn ensure(&mut self, pid: usize, now: u64) -> &mut ProcProf {
        while self.procs.len() <= pid {
            self.procs.push(ProcProf {
                cur: BLOCKED_SPAWN,
                since: now,
                finished: false,
                dispatches: 0,
                totals: Vec::new(),
            });
        }
        &mut self.procs[pid]
    }

    /// A process was spawned: it sits in the spawn queue until its initial
    /// wake pops.
    pub(crate) fn on_spawn(&mut self, pid: Pid, now: u64) {
        let p = self.ensure(pid.0 as usize, now);
        p.cur = BLOCKED_SPAWN;
        p.since = now;
        bump(&mut p.totals, BLOCKED_SPAWN, 0, 1);
    }

    /// A live wake for the process was popped: Blocked → Runnable →
    /// Running, with both intermediate states structurally zero-length
    /// (module docs) — close the wait interval and count one dispatch
    /// instead of materializing two zero-ns transitions.
    pub(crate) fn on_dispatch(&mut self, pid: Pid, now: u64) {
        let p = self.ensure(pid.0 as usize, now);
        if p.finished {
            return;
        }
        let dt = now.saturating_sub(p.since);
        if dt > 0 {
            bump(&mut p.totals, p.cur, dt, 0);
        }
        p.dispatches += 1;
        p.cur = RUNNING;
        p.since = now;
    }

    /// The process is giving up the processor, entering `key`.
    pub(crate) fn on_block(&mut self, pid: Pid, now: u64, key: Key) {
        let p = self.ensure(pid.0 as usize, now);
        if p.finished {
            return;
        }
        let dt = now.saturating_sub(p.since);
        if dt > 0 {
            bump(&mut p.totals, p.cur, dt, 0);
        }
        bump(&mut p.totals, key, 0, 1);
        p.cur = key;
        p.since = now;
    }

    /// The process finished (or was killed): close its open interval.
    pub(crate) fn on_finish(&mut self, pid: Pid, now: u64) {
        let p = self.ensure(pid.0 as usize, now);
        if p.finished {
            return;
        }
        let dt = now.saturating_sub(p.since);
        if dt > 0 {
            let cur = p.cur;
            bump(&mut p.totals, cur, dt, 0);
        }
        p.finished = true;
        p.since = now;
    }

    /// Per-process totals as of `end_ns`: open intervals closed, the
    /// counted-only zero-length states materialized.
    pub(crate) fn snapshot(&self, end_ns: u64) -> Vec<Vec<(Key, Stat)>> {
        self.procs
            .iter()
            .map(|p| {
                let mut totals = p.totals.clone();
                if !p.finished {
                    bump(&mut totals, p.cur, end_ns.saturating_sub(p.since), 0);
                }
                if p.dispatches > 0 {
                    bump(&mut totals, RUNNABLE, 0, p.dispatches);
                    bump(&mut totals, RUNNING, 0, p.dispatches);
                }
                totals
            })
            .collect()
    }
}

/// Everything recorded as of `end_ns`: the per-process totals (with
/// `names` labelling them) and every gauge's timeline. The one builder of
/// a [`ProfReport`]; [`Tracer::report`] calls it.
pub(crate) fn report(
    end_ns: u64,
    names: &[String],
    proc_totals: Vec<Vec<(Key, Stat)>>,
    gauges: &[GaugeSlot],
) -> ProfReport {
    let procs = proc_totals
        .into_iter()
        .enumerate()
        .map(|(i, totals)| {
            let mut states: Vec<WaitState> = totals
                .iter()
                .map(|(k, s)| WaitState {
                    state: key_name(*k),
                    ns: s.ns,
                    transitions: s.transitions,
                })
                .collect();
            states.sort_by(|a, b| b.ns.cmp(&a.ns).then_with(|| a.state.cmp(&b.state)));
            ProcWaitStats {
                pid: i as u32,
                name: names.get(i).cloned().unwrap_or_else(|| format!("pid#{i}")),
                states,
            }
        })
        .collect();
    ProfReport {
        end_ns,
        bucket_ns: BUCKET_NS,
        procs,
        gauges: gauges.iter().map(|g| g.series(end_ns)).collect(),
    }
}

/// Handle to a named utilization gauge: it holds the resource's value and
/// records each change of it. Inert when tracing was off at creation time.
/// Obtained from [`gauge`]. Clones share the value and the slot, so a
/// handle can travel into deferred-event closures.
#[derive(Clone)]
pub struct Gauge {
    inner: Option<Rc<GaugeHandle>>,
}

struct GaugeHandle {
    state: Arc<TraceState>,
    /// Weak: a handle captured by a timer still queued when the simulation
    /// is dropped must not keep the kernel, and so that timer, alive.
    kernel: Weak<Kernel>,
    idx: usize,
    /// The value this handle last set, 0 before its first change.
    value: Cell<u64>,
}

impl Gauge {
    /// An inert gauge (all updates are no-ops).
    #[inline]
    pub fn disabled() -> Gauge {
        Gauge { inner: None }
    }

    /// Whether updates actually record anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Sets the gauge's value at the current virtual time (time-weighted
    /// from the previous change); a value equal to the current one records
    /// nothing. Callable from process or event context.
    #[inline]
    pub fn set(&self, v: u64) {
        if let Some(h) = &self.inner {
            if h.value.replace(v) != v {
                if let Some(kernel) = h.kernel.upgrade() {
                    h.state.gauges.lock()[h.idx].set(kernel.now_nanos(), v);
                }
            }
        }
    }

    /// Moves the gauge's value by `delta` ([`Gauge::set`] of the sum).
    ///
    /// # Panics
    ///
    /// Panics if the value would drop below zero.
    #[inline]
    pub fn add(&self, delta: i64) {
        if let Some(h) = &self.inner {
            let v = h.value.get().checked_add_signed(delta);
            self.set(v.expect("gauge stepped below zero"));
        }
    }
}

impl fmt::Debug for Gauge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gauge")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

/// Creates (or reattaches to) the utilization gauge named `name`. Returns
/// an inert handle when tracing is off or outside process context, so
/// instrumentation sites need no gate of their own.
pub fn gauge(name: impl Into<String>) -> Gauge {
    let inner = try_with_ctx(|k, _| {
        k.trace_state().map(|state| {
            let name = name.into();
            let mut slots = state.gauges.lock();
            let idx = match slots.iter().position(|g| g.name == name) {
                Some(idx) => idx,
                None => {
                    slots.push(GaugeSlot {
                        name,
                        last_t: k.now_nanos(),
                        last_v: 0,
                        max: 0,
                        weighted: Vec::new(),
                    });
                    slots.len() - 1
                }
            };
            drop(slots);
            Rc::new(GaugeHandle {
                state,
                kernel: Rc::downgrade(k),
                idx,
                value: Cell::new(0),
            })
        })
    })
    .flatten();
    Gauge { inner }
}

/// The gauge `cell` caches for a hot site, registered as `name` on the
/// first call made while tracing is on; inert (and `cell` left empty)
/// otherwise. The cell outlives one simulation when its owner does, so a
/// device carried across simulations keeps the first traced one's gauge.
#[inline]
pub fn cached_gauge(cell: &OnceCell<Gauge>, name: &str) -> Gauge {
    if crate::trace::enabled() {
        cell.get_or_init(|| gauge(name)).clone()
    } else {
        Gauge::disabled()
    }
}

/// One wait state's share of a process's virtual timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaitState {
    /// State name: `"sleep"`, `"blocked.mailbox"`, `"parked.lagging"`, …
    pub state: String,
    /// Virtual ns spent in the state.
    pub ns: u64,
    /// Times the state was entered.
    pub transitions: u64,
}

/// Per-process wait-state totals.
#[derive(Debug, Clone)]
pub struct ProcWaitStats {
    /// Process index (spawn order).
    pub pid: u32,
    /// Process name.
    pub name: String,
    /// States sorted by time spent, descending.
    pub states: Vec<WaitState>,
}

/// One resource's utilization timeline.
#[derive(Debug, Clone)]
pub struct GaugeSeries {
    /// Gauge name, e.g. `"pool.busy.p0r0"`.
    pub name: String,
    /// Bucket width, virtual ns.
    pub bucket_ns: u64,
    /// Time-weighted mean value per bucket (bucket `b` covers
    /// `[b·bucket_ns, (b+1)·bucket_ns)`).
    pub mean: Vec<f64>,
    /// Largest value ever set.
    pub max: u64,
    /// Time-weighted mean over the whole run.
    pub mean_overall: f64,
}

/// Everything the profiler recorded, snapshotted at report time.
#[derive(Debug, Clone)]
pub struct ProfReport {
    /// Virtual time of the snapshot.
    pub end_ns: u64,
    /// Timeline bucket width.
    pub bucket_ns: u64,
    /// Per-process wait-state accounting, pid order.
    pub procs: Vec<ProcWaitStats>,
    /// Resource utilization timelines, registration order.
    pub gauges: Vec<GaugeSeries>,
}

impl ProfReport {
    /// Aggregate wait-state totals across every process, sorted by time
    /// spent, descending.
    pub fn totals(&self) -> Vec<WaitState> {
        let mut agg: Vec<WaitState> = Vec::new();
        for p in &self.procs {
            for s in &p.states {
                match agg.iter_mut().find(|a| a.state == s.state) {
                    Some(a) => {
                        a.ns += s.ns;
                        a.transitions += s.transitions;
                    }
                    None => agg.push(s.clone()),
                }
            }
        }
        agg.sort_by(|a, b| b.ns.cmp(&a.ns).then_with(|| a.state.cmp(&b.state)));
        agg
    }

    /// Flamegraph-style collapsed stacks: one `process;state count` line
    /// per (process, state) with nonzero time, weights in virtual ns.
    /// Feed to any `flamegraph.pl`-compatible renderer.
    pub fn collapsed_stacks(&self) -> String {
        let mut out = String::new();
        for p in &self.procs {
            for s in &p.states {
                if s.ns > 0 {
                    out.push_str(&format!("{};{} {}\n", p.name, s.state, s.ns));
                }
            }
        }
        out
    }
}

/// A view of a simulation's wait states and gauges: the report its
/// [`Tracer`] reads. Obtained from [`crate::Simulation::enable_profiling`],
/// which turns on tracing and is no second switch. It stays because the
/// perf ledger (`benchmark/`) calls it; removing it waits for a change to
/// the ledger.
#[derive(Clone, Debug)]
pub struct Profiler {
    tracer: Tracer,
}

impl Profiler {
    pub(crate) fn new(tracer: Tracer) -> Self {
        Profiler { tracer }
    }

    /// [`Tracer::report`].
    pub fn report(&self) -> ProfReport {
        self.tracer.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cond, Simulation};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    fn state<'a>(p: &'a ProcWaitStats, name: &str) -> Option<&'a WaitState> {
        p.states.iter().find(|s| s.state == name)
    }

    #[test]
    fn sleep_time_is_accounted_as_service() {
        let sim = Simulation::new(1);
        let tracer = sim.enable_tracing();
        sim.spawn("sleeper", || {
            crate::sleep(Duration::from_nanos(700));
            crate::sleep(Duration::from_nanos(300));
        });
        sim.run().unwrap();
        let report = tracer.report();
        let p = &report.procs[0];
        assert_eq!(p.name, "sleeper");
        let sleep = state(p, "sleep").expect("sleep state present");
        assert_eq!(sleep.ns, 1000);
        assert_eq!(sleep.transitions, 2);
        // All states sum to the process's lifetime (spawn → finish).
        let total: u64 = p.states.iter().map(|s| s.ns).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn cond_wait_is_attributed_to_its_label() {
        let sim = Simulation::new(1);
        let tracer = sim.enable_tracing();
        let cond = Cond::labeled("mailbox");
        let flag = Arc::new(AtomicBool::new(false));
        let (c1, f1) = (cond.clone(), flag.clone());
        sim.spawn("waiter", move || {
            c1.wait_while(|| !f1.load(Ordering::SeqCst));
        });
        sim.spawn("notifier", move || {
            crate::sleep(Duration::from_nanos(400));
            flag.store(true, Ordering::SeqCst);
            cond.notify_all();
        });
        sim.run().unwrap();
        let report = tracer.report();
        let waiter = &report.procs[0];
        let blocked = state(waiter, "blocked.mailbox").expect("mailbox wait recorded");
        assert_eq!(blocked.ns, 400);
        assert!(blocked.transitions >= 1);
        assert!(state(waiter, "sleep").is_none(), "waiter never slept");
    }

    #[test]
    fn scopes_override_the_default_attribution() {
        let sim = Simulation::new(1);
        let tracer = sim.enable_tracing();
        sim.spawn("worker", || {
            {
                let _g = blocked_scope("disk");
                crate::sleep(Duration::from_nanos(250));
            }
            {
                let _g = parked_scope("phase2_starved");
                crate::sleep(Duration::from_nanos(150));
            }
            crate::sleep(Duration::from_nanos(100));
        });
        sim.run().unwrap();
        let p = &tracer.report().procs[0];
        assert_eq!(state(p, "blocked.disk").unwrap().ns, 250);
        assert_eq!(state(p, "parked.phase2_starved").unwrap().ns, 150);
        assert_eq!(state(p, "sleep").unwrap().ns, 100);
    }

    /// Scopes are per process, not per thread: `a` parks inside its scope
    /// while `b` runs and blocks on the same thread.
    #[test]
    fn a_scope_stays_with_its_process_while_it_is_parked() {
        let sim = Simulation::new(1);
        let tracer = sim.enable_tracing();
        let cond = Cond::new();
        sim.spawn("a", || {
            let _g = parked_scope("a");
            crate::sleep(Duration::from_nanos(500));
        });
        let c = cond.clone();
        sim.spawn("b", move || {
            crate::sleep(Duration::from_nanos(100));
            c.wait();
        });
        sim.spawn("c", move || {
            crate::sleep(Duration::from_nanos(400));
            cond.notify_all();
        });
        sim.run().unwrap();
        let report = tracer.report();
        let (a, b) = (&report.procs[0], &report.procs[1]);
        assert_eq!(state(a, "parked.a").unwrap().ns, 500);
        assert_eq!(state(b, "sleep").unwrap().ns, 100);
        assert_eq!(state(b, "blocked.cond").unwrap().ns, 300);
        assert!(state(b, "parked.a").is_none(), "a's scope leaked into b");
    }

    #[test]
    fn gauge_timeline_is_time_weighted() {
        let sim = Simulation::new(1);
        let tracer = sim.enable_tracing();
        sim.spawn("g", || {
            let g = gauge("pool.busy");
            assert!(g.is_enabled());
            g.set(2);
            crate::sleep(Duration::from_nanos(50_000));
            g.set(4);
            crate::sleep(Duration::from_nanos(50_000));
            g.set(0);
            crate::sleep(Duration::from_nanos(100_000));
        });
        sim.run().unwrap();
        let report = tracer.report();
        let g = &report.gauges[0];
        assert_eq!(g.name, "pool.busy");
        assert_eq!(g.max, 4);
        // Bucket 0 (0–100µs): 2 for 50µs then 4 for 50µs → mean 3.
        assert!((g.mean[0] - 3.0).abs() < 1e-9, "bucket0={}", g.mean[0]);
        // Bucket 1 (100–200µs): idle.
        assert!(g.mean.len() < 2 || g.mean[1] == 0.0);
        // Overall: 300 value·µs over 200µs.
        assert!((g.mean_overall - 1.5).abs() < 1e-9);
    }

    #[test]
    fn collapsed_stacks_and_totals_agree() {
        let sim = Simulation::new(1);
        let tracer = sim.enable_tracing();
        sim.spawn("a", || crate::sleep(Duration::from_nanos(100)));
        sim.spawn("b", || crate::sleep(Duration::from_nanos(200)));
        sim.run().unwrap();
        let report = tracer.report();
        let totals = report.totals();
        let sleep = totals.iter().find(|s| s.state == "sleep").unwrap();
        assert_eq!(sleep.ns, 300);
        let collapsed = report.collapsed_stacks();
        assert!(collapsed.contains("a;sleep 100"));
        assert!(collapsed.contains("b;sleep 200"));
    }

    #[test]
    fn a_gauge_steps_by_add_and_records_only_changes() {
        let sim = Simulation::new(1);
        let tracer = sim.enable_tracing();
        sim.spawn("d", || {
            let g = gauge("disk.busy");
            let last_t = |g: &Gauge| {
                let h = g.inner.as_ref().expect("tracing is on");
                h.state.gauges.lock()[h.idx].last_t
            };
            g.add(1);
            g.add(1);
            crate::sleep(Duration::from_nanos(100));
            g.set(2);
            assert_eq!(last_t(&g), 0, "an unchanged value is not recorded");
            g.add(-1);
            assert_eq!(last_t(&g), 100);
            crate::sleep(Duration::from_nanos(100));
            g.add(-1);
        });
        sim.run().unwrap();
        let report = tracer.report();
        let g = &report.gauges[0];
        assert_eq!(g.max, 2);
        // 2 for 100 ns, then 1 for 100 ns, over 200 ns.
        assert!((g.mean_overall - 1.5).abs() < 1e-9, "{}", g.mean_overall);
    }

    #[test]
    fn a_pending_timer_holding_a_gauge_is_freed_with_its_simulation() {
        struct Dropped(Rc<std::cell::Cell<bool>>);
        impl Drop for Dropped {
            fn drop(&mut self) {
                self.0.set(true);
            }
        }
        let dropped = Rc::new(std::cell::Cell::new(false));
        let flag = Dropped(Rc::clone(&dropped));
        let sim = Simulation::new(1);
        let tracer = sim.enable_tracing();
        sim.spawn("p", move || {
            let g = gauge("g");
            crate::schedule_ns(1_000, move || {
                let _flag = &flag;
                g.add(1);
            });
        });
        sim.run_until(crate::SimTime::from_nanos(500)).unwrap();
        drop((sim, tracer));
        assert!(dropped.get(), "the pending timer outlived its simulation");
    }

    #[test]
    fn enable_profiling_is_a_view_of_the_trace() {
        let sim = Simulation::new(1);
        let prof = sim.enable_profiling();
        let tracer = sim.enable_tracing();
        sim.spawn("p", || {
            let g = gauge("pool.busy");
            g.set(3);
            let _s = crate::trace::span("work", 1);
            crate::sleep(Duration::from_nanos(250));
        });
        sim.run().unwrap();
        assert_eq!(tracer.len(), 2, "the span's begin and end");
        let (a, b) = (prof.report(), tracer.report());
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(a.gauges[0].max, 3);
    }
}
