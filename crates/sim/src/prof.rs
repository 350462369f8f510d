//! Sim-Prof: deterministic virtual-time wait-state profiling.
//!
//! A profiling layer that accounts, per simulated process, how virtual time
//! splits across scheduler states — plus fixed-bucket utilization timelines
//! for shared resources (executor pools, QP send queues, the sequencer,
//! disks). The recording discipline mirrors [`crate::trace`] and the race
//! detector: hooks append to profiler-private state and never sleep, never
//! schedule an event, and never touch a process RNG, so **schedules are
//! bit-identical with profiling on or off**. When profiling is off every
//! kernel hook reduces to one flag test.
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
//!   [`blocked_scope`] such as `"disk"`: *idle wait*, the profiler's whole
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
//! [`gauge`] returns a handle that records a time-weighted step function
//! (the gauge's value over virtual time), folded into fixed-width buckets.
//! Exported as Perfetto counter tracks by
//! [`crate::trace::export_chrome_json_with_counters`].
//!
//! Enable with [`crate::Simulation::enable_profiling`], which returns a
//! [`Profiler`] handle; call [`Profiler::report`] after the run.

use crate::kernel::{try_with_ctx, Kernel, Pid};
use parking_lot::Mutex;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// Default timeline bucket width: 100µs of virtual time.
pub const DEFAULT_BUCKET_NS: u64 = 100_000;

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

/// Returns `true` when the calling process is being profiled. Use to skip
/// label computation; the hooks themselves are already gated.
pub fn enabled() -> bool {
    try_with_ctx(|k, _| k.prof_enabled()).unwrap_or(false)
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

struct GaugeSlot {
    name: String,
    last_t: u64,
    last_v: u64,
    max: u64,
    /// Per-bucket ∫value·dt, in value·ns.
    weighted: Vec<u128>,
}

impl GaugeSlot {
    /// Folds the step function from `last_t` to `now` into the buckets.
    fn advance(&mut self, now: u64, bucket_ns: u64) {
        if now <= self.last_t {
            return;
        }
        if self.last_v == 0 {
            self.last_t = now;
            return;
        }
        let mut t = self.last_t;
        while t < now {
            let b = ((t / bucket_ns) as usize).min(MAX_BUCKETS - 1);
            let bucket_end = if b == MAX_BUCKETS - 1 {
                u64::MAX
            } else {
                (t / bucket_ns + 1) * bucket_ns
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

/// Shared gauge state (utilization timelines). Lives on the kernel in a
/// `OnceCell<Arc<_>>` exactly like tracing, so the off path is one test
/// of an empty cell. All methods are leaf operations: they take
/// only the profiler's own lock and never call back into the kernel.
/// (The per-process wait-state accounting lives in [`ProfProcs`] inside
/// the kernel state instead — see there.)
pub(crate) struct ProfState {
    bucket_ns: u64,
    inner: Mutex<Vec<GaugeSlot>>,
}

impl ProfState {
    pub(crate) fn new(bucket_ns: u64) -> Self {
        ProfState {
            bucket_ns: bucket_ns.max(1),
            inner: Mutex::new(Vec::new()),
        }
    }

    /// Registers (or reuses) a named utilization gauge.
    pub(crate) fn register_gauge(&self, name: String, now: u64) -> usize {
        let mut gauges = self.inner.lock();
        if let Some(i) = gauges.iter().position(|g| g.name == name) {
            return i;
        }
        gauges.push(GaugeSlot {
            name,
            last_t: now,
            last_v: 0,
            max: 0,
            weighted: Vec::new(),
        });
        gauges.len() - 1
    }

    pub(crate) fn gauge_set(&self, idx: usize, now: u64, v: u64) {
        let bucket_ns = self.bucket_ns;
        let mut gauges = self.inner.lock();
        let g = &mut gauges[idx];
        g.advance(now, bucket_ns);
        g.last_v = v;
        g.max = g.max.max(v);
    }

    fn report(
        &self,
        end_ns: u64,
        names: &[String],
        proc_totals: Vec<Vec<(Key, Stat)>>,
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
        let inner = self.inner.lock();
        let gauges = inner
            .iter()
            .map(|g| {
                // Fold the open tail [last_t, end_ns) into a scratch copy.
                let mut weighted = g.weighted.clone();
                if end_ns > g.last_t && g.last_v > 0 {
                    let mut scratch = GaugeSlot {
                        name: String::new(),
                        last_t: g.last_t,
                        last_v: g.last_v,
                        max: g.max,
                        weighted,
                    };
                    scratch.advance(end_ns, self.bucket_ns);
                    weighted = scratch.weighted;
                }
                let mean: Vec<f64> = weighted
                    .iter()
                    .enumerate()
                    .map(|(b, w)| {
                        let start = b as u64 * self.bucket_ns;
                        let width = if end_ns > start {
                            (end_ns - start).min(self.bucket_ns)
                        } else {
                            self.bucket_ns
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
                    name: g.name.clone(),
                    bucket_ns: self.bucket_ns,
                    mean,
                    max: g.max,
                    mean_overall,
                }
            })
            .collect();
        ProfReport {
            end_ns,
            bucket_ns: self.bucket_ns,
            procs,
            gauges,
        }
    }
}

/// Handle to a named utilization gauge; inert when profiling was off at
/// creation time. Obtained from [`gauge`]. Clones share the same slot, so
/// a handle can travel into deferred-event closures.
#[derive(Clone)]
pub struct Gauge {
    inner: Option<(Arc<ProfState>, Rc<Kernel>, usize)>,
}

impl Gauge {
    /// An inert gauge (all updates are no-ops).
    pub fn disabled() -> Gauge {
        Gauge { inner: None }
    }

    /// Whether updates actually record anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Sets the gauge's current value (time-weighted from the previous
    /// update). Callable from process or event context.
    pub fn set(&self, v: u64) {
        if let Some((st, kernel, idx)) = &self.inner {
            st.gauge_set(*idx, kernel.now_nanos(), v);
        }
    }

    /// [`Gauge::set`] with the caller supplying the current virtual time,
    /// for hot paths that already know it (skips a kernel clock read).
    /// `t_ns` must not precede the gauge's previous update.
    pub fn set_at(&self, t_ns: u64, v: u64) {
        if let Some((st, _, idx)) = &self.inner {
            st.gauge_set(*idx, t_ns, v);
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
/// an inert handle when profiling is off or outside process context, so
/// instrumentation sites need no gate of their own.
pub fn gauge(name: impl Into<String>) -> Gauge {
    let name = name.into();
    let inner = try_with_ctx(|k, _| {
        k.prof_state().map(|st| {
            let idx = st.register_gauge(name, k.now_nanos());
            (st, Rc::clone(k), idx)
        })
    })
    .flatten();
    Gauge { inner }
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

    /// The gauges as Perfetto counter tracks: `(name, [(t_ns, value)])`
    /// sampled at each bucket start. Pass to
    /// [`crate::trace::export_chrome_json_with_counters`].
    pub fn counter_tracks(&self) -> Vec<(String, Vec<(u64, f64)>)> {
        self.gauges
            .iter()
            .map(|g| {
                let points = g
                    .mean
                    .iter()
                    .enumerate()
                    .map(|(b, v)| (b as u64 * g.bucket_ns, *v))
                    .collect();
                (g.name.clone(), points)
            })
            .collect()
    }
}

/// Handle to a simulation's profiler. Cheap to clone; obtained from
/// [`crate::Simulation::enable_profiling`].
#[derive(Clone)]
pub struct Profiler {
    state: Arc<ProfState>,
    kernel: Rc<Kernel>,
}

impl fmt::Debug for Profiler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Profiler").finish()
    }
}

impl Profiler {
    pub(crate) fn new(state: Arc<ProfState>, kernel: Rc<Kernel>) -> Self {
        Profiler { state, kernel }
    }

    /// Snapshot of the wait-state accounting and utilization timelines as
    /// of the current virtual time. Open intervals are closed at "now"
    /// without disturbing the live state.
    pub fn report(&self) -> ProfReport {
        let (now, proc_totals) = self.kernel.prof_proc_totals();
        let names = self.kernel.proc_names();
        self.state.report(now, &names, proc_totals)
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
        let prof = sim.enable_profiling();
        sim.spawn("sleeper", || {
            crate::sleep(Duration::from_nanos(700));
            crate::sleep(Duration::from_nanos(300));
        });
        sim.run().unwrap();
        let report = prof.report();
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
        let prof = sim.enable_profiling();
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
        let report = prof.report();
        let waiter = &report.procs[0];
        let blocked = state(waiter, "blocked.mailbox").expect("mailbox wait recorded");
        assert_eq!(blocked.ns, 400);
        assert!(blocked.transitions >= 1);
        assert!(state(waiter, "sleep").is_none(), "waiter never slept");
    }

    #[test]
    fn scopes_override_the_default_attribution() {
        let sim = Simulation::new(1);
        let prof = sim.enable_profiling();
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
        let p = &prof.report().procs[0];
        assert_eq!(state(p, "blocked.disk").unwrap().ns, 250);
        assert_eq!(state(p, "parked.phase2_starved").unwrap().ns, 150);
        assert_eq!(state(p, "sleep").unwrap().ns, 100);
    }

    /// Scopes are per process, not per thread: `a` parks inside its scope
    /// while `b` runs and blocks on the same thread.
    #[test]
    fn a_scope_stays_with_its_process_while_it_is_parked() {
        let sim = Simulation::new(1);
        let prof = sim.enable_profiling();
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
        let report = prof.report();
        let (a, b) = (&report.procs[0], &report.procs[1]);
        assert_eq!(state(a, "parked.a").unwrap().ns, 500);
        assert_eq!(state(b, "sleep").unwrap().ns, 100);
        assert_eq!(state(b, "blocked.cond").unwrap().ns, 300);
        assert!(state(b, "parked.a").is_none(), "a's scope leaked into b");
    }

    #[test]
    fn gauge_timeline_is_time_weighted() {
        let sim = Simulation::new(1);
        let prof = sim.enable_profiling();
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
        let report = prof.report();
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
    fn profiling_does_not_change_the_schedule() {
        fn run(profile: bool) -> (u64, u64, u64) {
            let sim = Simulation::new(77);
            if profile {
                sim.enable_profiling();
            }
            let cond = Cond::labeled("rdma.mem");
            for i in 0..4u32 {
                let c = cond.clone();
                sim.spawn(format!("p{i}"), move || {
                    for _ in 0..20 {
                        crate::sleep(Duration::from_nanos(u64::from(i) * 13 + 7));
                        if i == 0 {
                            c.notify_all();
                        } else {
                            let _ = c.wait_while_timeout(|| true, Duration::from_nanos(40));
                        }
                    }
                });
            }
            sim.run().unwrap();
            (
                sim.schedule_hash(),
                sim.events_executed(),
                sim.now().as_nanos(),
            )
        }
        assert_eq!(
            run(true),
            run(false),
            "schedule must be bit-identical with profiling on/off"
        );
    }

    #[test]
    fn collapsed_stacks_and_totals_agree() {
        let sim = Simulation::new(1);
        let prof = sim.enable_profiling();
        sim.spawn("a", || crate::sleep(Duration::from_nanos(100)));
        sim.spawn("b", || crate::sleep(Duration::from_nanos(200)));
        sim.run().unwrap();
        let report = prof.report();
        let totals = report.totals();
        let sleep = totals.iter().find(|s| s.state == "sleep").unwrap();
        assert_eq!(sleep.ns, 300);
        let collapsed = report.collapsed_stacks();
        assert!(collapsed.contains("a;sleep 100"));
        assert!(collapsed.contains("b;sleep 200"));
    }
}
