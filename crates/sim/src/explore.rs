//! Sim-Check: systematic schedule exploration on the deterministic kernel.
//!
//! The kernel is deterministic: for one seed, the queue pops events in one
//! fixed `(time, seq)` order. All the nondeterminism a real deployment has
//! — which of several racing processes wins an instant — is folded into the
//! seq tie-break at equal virtual times. Exploration makes that tie-break a
//! *choice point*: when enabled, every pop gathers the full set of events
//! due at the served instant (the scheduler's ready set) and asks a
//! pluggable [`StrategyKind`] which one runs first. The host loop is the
//! only place events are popped, so every pop on either queue flows
//! through the chooser.
//!
//! Strategies:
//!
//! * [`StrategyKind::Baseline`] — always index 0, i.e. the lowest seq.
//!   Produces a schedule bit-identical to a non-explored run (the pin the
//!   `explore_suite --gate` checks).
//! * [`StrategyKind::Random`] — seeded uniform random walk over the ready
//!   set.
//! * [`StrategyKind::Pct`] — PCT-style randomized priorities: every actor
//!   (process or the timer pseudo-actor) draws a random high priority on
//!   first sight; at `depth` pre-drawn decision steps the currently
//!   highest-priority ready actor is demoted below everything. The ready
//!   entry with the highest-priority actor runs.
//! * [`StrategyKind::Scripted`] — an explicit decision list
//!   `(step, alternative index)`, default 0 elsewhere: the building block
//!   of the bounded-preemption sweep (enumerate single, then paired,
//!   deviations from the baseline schedule).
//! * [`StrategyKind::Replay`] — re-executes a recorded [`ScheduleTrace`]
//!   bit-identically; the vehicle for shrinking and regression pinning.
//!
//! Every run records its deviations from baseline as a [`ScheduleTrace`]
//! (only non-zero choices are stored; absent steps default to index 0), so
//! *any* strategy's schedule replays exactly.
//!
//! On top of the controlled scheduler sit two always-on-under-exploration
//! detectors:
//!
//! * **Deadlock** — a wait-for graph over every [`crate::Cond`] block
//!   (mailboxes, RDMA completion/memory waits, coordination parks all
//!   funnel through `Cond`). At quiescence (event queue empty, unfinished
//!   processes remain) the graph is closed over each cond's historical
//!   notifiers and searched for cycles; waiters with no live potential
//!   waker are reported as orphaned waits.
//! * **Livelock / starvation** — zero-virtual-time progress guards
//!   generalizing the PR 8 `has_work` bug class. Kernel side: a process
//!   dispatched many consecutive times at one instant with the global
//!   progress watermark frozen (a `yield_now` spin). Cond side: a
//!   `wait_while` whose predicate keeps passing without ever blocking at
//!   one instant (a poll loop whose work test is out of sync with its
//!   apply gate — the process never re-enters the scheduler at all, so
//!   only the wait-site guard can see it). Protocol layers feed the
//!   watermark through [`note_progress`] at their completed-prefix
//!   watermarks (delivery, apply, checkpoint floor raises, boot
//!   readiness).
//!
//! Exploration off costs one flag test at each hook and schedules
//! are bit-identical either way, exactly like the race detector and the
//! tracer.

use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Who a ready-set entry would run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ChoiceActor {
    /// A timer closure (all timers share one pseudo-actor for PCT).
    Timer,
    /// A process wake. `stale` marks wakes whose block token no longer
    /// matches (dispatching one is a booked no-op).
    Proc { pid: u32, stale: bool },
}

impl ChoiceActor {
    /// PCT priority key: timers are one actor, processes one per pid
    /// (staleness does not change identity).
    fn key(self) -> (u8, u32) {
        match self {
            ChoiceActor::Timer => (0, 0),
            ChoiceActor::Proc { pid, .. } => (1, pid),
        }
    }
}

/// One entry of the ready set offered to a strategy.
#[derive(Debug, Clone, Copy)]
pub struct Choice {
    /// Global push sequence number (the kernel's tie-break identity, which
    /// is what a recorded trace names its decisions by).
    pub seq: u64,
    /// Who would run.
    pub actor: ChoiceActor,
}

/// Pluggable schedule-exploration strategy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StrategyKind {
    /// Always pick index 0 — the kernel's native order.
    Baseline,
    /// Seeded uniform random walk over the ready set.
    Random { seed: u64 },
    /// PCT-style randomized priorities with `depth` priority-change points
    /// drawn in `[1, horizon)` decision steps.
    Pct { seed: u64, depth: u32 },
    /// Explicit `(decision step, alternative index)` list; index 0
    /// everywhere else. Out-of-range alternatives clamp to the ready set.
    Scripted { decisions: Vec<(u64, usize)> },
    /// Replay a recorded trace bit-identically (missing steps pick 0).
    Replay { trace: ScheduleTrace },
}

/// A compact, replayable schedule fingerprint: the `(decision step, chosen
/// seq)` pairs where a run deviated from baseline order. Steps count only
/// choice points with more than one ready entry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScheduleTrace {
    /// Deviating decisions, in step order.
    pub decisions: Vec<(u64, u64)>,
}

impl ScheduleTrace {
    /// Number of recorded deviations.
    pub fn len(&self) -> usize {
        self.decisions.len()
    }

    /// `true` when the run never deviated from baseline order.
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }

    /// Encodes as `step:seq,step:seq,…` (empty string for no deviations).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        for (i, (step, seq)) in self.decisions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{step}:{seq}"));
        }
        out
    }

    /// Parses the [`ScheduleTrace::encode`] format.
    pub fn parse(s: &str) -> Option<ScheduleTrace> {
        let s = s.trim();
        if s.is_empty() {
            return Some(ScheduleTrace::default());
        }
        let mut decisions = Vec::new();
        for part in s.split(',') {
            let (step, seq) = part.split_once(':')?;
            decisions.push((step.trim().parse().ok()?, seq.trim().parse().ok()?));
        }
        Some(ScheduleTrace { decisions })
    }
}

impl fmt::Display for ScheduleTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            write!(f, "<baseline>")
        } else {
            write!(f, "{}", self.encode())
        }
    }
}

/// Shrinks a violating trace to a minimal still-violating one: first tries
/// the empty trace (the violation may not need any deviation at all), then
/// greedily removes one deviation at a time, keeping each removal only if
/// `still_fails` confirms the violation survives. `still_fails` replays the
/// candidate trace; it is called O(len²) times in the worst case.
pub fn shrink_trace(
    trace: &ScheduleTrace,
    mut still_fails: impl FnMut(&ScheduleTrace) -> bool,
) -> ScheduleTrace {
    let empty = ScheduleTrace::default();
    if still_fails(&empty) {
        return empty;
    }
    let mut best = trace.clone();
    loop {
        let mut improved = false;
        for i in 0..best.decisions.len() {
            let mut cand = best.clone();
            cand.decisions.remove(i);
            if still_fails(&cand) {
                best = cand;
                improved = true;
                break;
            }
        }
        if !improved {
            return best;
        }
    }
}

/// Ready-set gather cap per choice point (bounds per-pop work).
pub(crate) const MAX_READY: usize = 64;
/// Livelock: consecutive live dispatches of *any* process at one frozen
/// `(instant, progress)` — the cross-process generalization of
/// [`ExploreConfig::dispatch_spin_threshold`], with a wide margin over
/// legitimate same-instant cascades.
const GLOBAL_SPIN_THRESHOLD: u64 = 262_144;
/// Decision-step horizon the PCT change points are drawn from.
const PCT_HORIZON: u64 = 50_000;
/// Cap on the per-run choice-point log (counting continues past it).
const CHOICE_LOG_CAP: usize = 100_000;

/// Exploration configuration. [`ExploreConfig::new`] picks defaults sized
/// for the Heron workloads; the two per-process spin thresholds are
/// overridable (tests and the self-tests lower them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreConfig {
    /// The schedule strategy.
    pub strategy: StrategyKind,
    /// Livelock: consecutive live dispatches of one process at one instant
    /// with the progress watermark frozen.
    pub dispatch_spin_threshold: u64,
    /// Livelock: consecutive `wait_while` predicate passes without
    /// blocking, on one cond at one instant.
    pub poll_spin_threshold: u64,
}

impl ExploreConfig {
    /// A configuration with default thresholds for `strategy`.
    pub fn new(strategy: StrategyKind) -> Self {
        ExploreConfig {
            strategy,
            dispatch_spin_threshold: 4_096,
            poll_spin_threshold: 10_000,
        }
    }
}

/// One explored choice point (the first 100 000 of a run are recorded);
/// the bounded-preemption sweep uses the log to enumerate which steps have
/// alternatives worth forcing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChoicePoint {
    /// Decision step (counts ready sets with more than one entry).
    pub step: u64,
    /// Virtual time of the instant.
    pub time: u64,
    /// Ready-set size.
    pub ready: usize,
    /// Chosen index.
    pub chosen: usize,
}

/// Which zero-progress guard fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LivelockKind {
    /// A process was dispatched over and over at one instant without the
    /// progress watermark moving (scheduler-visible spin, e.g. a
    /// `yield_now` loop).
    SchedulerSpin,
    /// A `wait_while` predicate kept passing without blocking at one
    /// instant (an OS-level poll spin the scheduler never sees — the PR 8
    /// `has_work` bug class).
    PollSpin,
    /// Live dispatches of any mix of processes exceeded the global bound
    /// at one frozen `(instant, progress)` pair.
    GlobalSpin,
}

impl fmt::Display for LivelockKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LivelockKind::SchedulerSpin => write!(f, "scheduler-spin"),
            LivelockKind::PollSpin => write!(f, "poll-spin"),
            LivelockKind::GlobalSpin => write!(f, "global-spin"),
        }
    }
}

/// One edge of the wait-for graph at quiescence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaitEdge {
    /// Blocked process name.
    pub waiter: String,
    /// Deterministic cond id (assignment order within the run).
    pub cond: u64,
    /// Cond taxonomy label (`"mailbox"`, `"rdma.mem"`, `"cond"`, …).
    pub label: &'static str,
    /// `true` for waits with a deadline (not deadlock candidates).
    pub timed: bool,
}

impl fmt::Display for WaitEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -> {}#{}{}",
            self.waiter,
            self.label,
            self.cond,
            if self.timed { " (timed)" } else { "" }
        )
    }
}

/// A detector finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Quiescence with blocked processes. `cycle` holds the process names
    /// of a wait-for cycle through historical notifiers when one exists
    /// (classic deadlock); an empty cycle means orphaned waits — nobody
    /// alive can ever notify the conds being waited on.
    Deadlock {
        cycle: Vec<String>,
        waits: Vec<WaitEdge>,
    },
    /// A zero-virtual-time progress guard fired.
    Livelock {
        /// Spinning process name.
        proc_name: String,
        kind: LivelockKind,
        /// Cond label for [`LivelockKind::PollSpin`], `""` otherwise.
        label: &'static str,
        /// Virtual time the guard fired at.
        at_ns: u64,
        /// Observed zero-progress repetitions when the guard fired.
        observed: u64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Deadlock { cycle, waits } => {
                if cycle.is_empty() {
                    write!(f, "deadlock: {} orphaned wait(s):", waits.len())?;
                } else {
                    write!(f, "deadlock cycle: {}:", cycle.join(" -> "))?;
                }
                for w in waits {
                    write!(f, " [{w}]")?;
                }
                Ok(())
            }
            Violation::Livelock {
                proc_name,
                kind,
                label,
                at_ns,
                observed,
            } => write!(
                f,
                "livelock ({kind}): '{proc_name}'{}{} spun {observed}x at {at_ns} ns with zero progress",
                if label.is_empty() { "" } else { " on " },
                label,
            ),
        }
    }
}

/// Summary of one explored run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreReport {
    /// Decision steps (choice points with more than one ready entry).
    pub steps: u64,
    /// Non-baseline choices (injected preemptions).
    pub preemptions: u64,
    /// Largest ready set offered.
    pub max_ready: usize,
    /// Largest wait-for graph (concurrent cond waits) observed.
    pub max_wait_graph: usize,
    /// Final value of the progress watermark.
    pub progress: u64,
    /// Detector findings (empty = clean).
    pub violations: Vec<Violation>,
    /// Replayable deviation trace of this run's schedule.
    pub trace: ScheduleTrace,
    /// Choice-point log (the first 100 000 choice points).
    pub choice_points: Vec<ChoicePoint>,
}

impl ExploreReport {
    /// `true` when no detector fired.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

enum StrategyImpl {
    Baseline,
    Random(SmallRng),
    Pct {
        rng: SmallRng,
        prio: BTreeMap<(u8, u32), u64>,
        /// Pre-drawn change steps, sorted; `next` indexes the first unused.
        change_at: Vec<u64>,
        next: usize,
        /// Next demotion priority (0, 1, 2, … — all below any initial draw).
        lowered: u64,
    },
    Scripted(BTreeMap<u64, usize>),
    Replay(BTreeMap<u64, u64>),
}

impl StrategyImpl {
    fn build(kind: &StrategyKind, horizon: u64) -> Self {
        match kind {
            StrategyKind::Baseline => StrategyImpl::Baseline,
            StrategyKind::Random { seed } => {
                StrategyImpl::Random(SmallRng::seed_from_u64(seed.wrapping_add(0x9E37)))
            }
            StrategyKind::Pct { seed, depth } => {
                let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(0x9C7));
                let mut change_at: Vec<u64> = (0..*depth)
                    .map(|_| rng.gen_range(1..horizon.max(2)))
                    .collect();
                change_at.sort_unstable();
                StrategyImpl::Pct {
                    rng,
                    prio: BTreeMap::new(),
                    change_at,
                    next: 0,
                    lowered: 0,
                }
            }
            StrategyKind::Scripted { decisions } => {
                StrategyImpl::Scripted(decisions.iter().copied().collect())
            }
            StrategyKind::Replay { trace } => {
                StrategyImpl::Replay(trace.decisions.iter().copied().collect())
            }
        }
    }

    fn choose(&mut self, step: u64, ready: &[Choice]) -> usize {
        match self {
            StrategyImpl::Baseline => 0,
            StrategyImpl::Random(rng) => rng.gen_range(0..ready.len()),
            StrategyImpl::Pct {
                rng,
                prio,
                change_at,
                next,
                lowered,
            } => {
                // Priorities above u32::MAX on first sight; demotions hand
                // out 0, 1, 2, … so every demoted actor ranks below every
                // fresh one, in demotion order.
                for c in ready {
                    prio.entry(c.actor.key())
                        .or_insert_with(|| rng.gen_range(1u64 << 32..u64::MAX));
                }
                while *next < change_at.len() && change_at[*next] <= step {
                    *next += 1;
                    if let Some(top) = ready.iter().map(|c| c.actor.key()).max_by_key(|k| prio[k]) {
                        prio.insert(top, *lowered);
                        *lowered += 1;
                    }
                }
                let mut best = 0usize;
                for (i, c) in ready.iter().enumerate().skip(1) {
                    if prio[&c.actor.key()] > prio[&ready[best].actor.key()] {
                        best = i;
                    }
                }
                best
            }
            StrategyImpl::Scripted(map) => map.get(&step).copied().unwrap_or(0),
            StrategyImpl::Replay(map) => match map.get(&step) {
                Some(seq) => ready.iter().position(|c| c.seq == *seq).unwrap_or(0),
                None => 0,
            },
        }
    }
}

#[derive(Default)]
struct SpinWatch {
    now: u64,
    progress: u64,
    streak: u64,
}

struct Inner {
    strategy: StrategyImpl,
    steps: u64,
    preemptions: u64,
    max_ready: usize,
    deviations: Vec<(u64, u64)>,
    choice_log: Vec<ChoicePoint>,
    /// Kernel-side per-process dispatch watches.
    dispatch: BTreeMap<u32, SpinWatch>,
    /// Global dispatch watch (any pid).
    global: SpinWatch,
    /// Cond-side poll watches, keyed by cond id.
    polls: BTreeMap<u64, SpinWatch>,
    /// Live wait edges: pid -> (cond, label, timed).
    waits: BTreeMap<u32, (u64, &'static str, bool)>,
    /// Historical notifiers per cond (process context only).
    notifiers: BTreeMap<u64, BTreeSet<u32>>,
    max_wait_graph: usize,
    violations: Vec<Violation>,
    /// Set once a livelock fired, so one spin reports one violation.
    tripped: bool,
}

/// Shared exploration state, living on the kernel in a
/// `OnceCell<Arc<_>>` exactly like the tracer.
pub(crate) struct ExploreState {
    dispatch_spin_threshold: u64,
    poll_spin_threshold: u64,
    progress: AtomicU64,
    inner: Mutex<Inner>,
}

impl ExploreState {
    pub(crate) fn new(cfg: ExploreConfig) -> Self {
        ExploreState {
            dispatch_spin_threshold: cfg.dispatch_spin_threshold.max(2),
            poll_spin_threshold: cfg.poll_spin_threshold.max(2),
            progress: AtomicU64::new(0),
            inner: Mutex::new(Inner {
                strategy: StrategyImpl::build(&cfg.strategy, PCT_HORIZON),
                steps: 0,
                preemptions: 0,
                max_ready: 0,
                deviations: Vec::new(),
                choice_log: Vec::new(),
                dispatch: BTreeMap::new(),
                global: SpinWatch::default(),
                polls: BTreeMap::new(),
                waits: BTreeMap::new(),
                notifiers: BTreeMap::new(),
                max_wait_graph: 0,
                violations: Vec::new(),
                tripped: false,
            }),
        }
    }

    /// Advances the global progress watermark (protocol watermark hooks).
    pub(crate) fn bump_progress(&self) {
        self.progress.fetch_add(1, Ordering::Relaxed);
    }

    /// Picks which ready entry runs. Returns `(index, preempted)`;
    /// `preempted` is `true` for any non-baseline (non-zero) choice.
    pub(crate) fn choose(&self, time: u64, ready: &[Choice]) -> (usize, bool) {
        let mut inner = self.inner.lock();
        let step = inner.steps;
        inner.steps += 1;
        inner.max_ready = inner.max_ready.max(ready.len());
        let idx = inner.strategy.choose(step, ready).min(ready.len() - 1);
        if idx != 0 {
            inner.preemptions += 1;
            inner.deviations.push((step, ready[idx].seq));
        }
        if inner.choice_log.len() < CHOICE_LOG_CAP {
            inner.choice_log.push(ChoicePoint {
                step,
                time,
                ready: ready.len(),
                chosen: idx,
            });
        }
        (idx, idx != 0)
    }

    /// Kernel hook: a live (non-stale) process wake is being dispatched.
    /// Returns `true` when a zero-progress spin guard fired; the kernel
    /// then stops the run instead of dispatching.
    pub(crate) fn note_dispatch(&self, pid: u32, name: &str, now: u64) -> bool {
        let progress = self.progress.load(Ordering::Relaxed);
        let mut inner = self.inner.lock();
        if inner.tripped {
            return false;
        }
        let per = inner.dispatch.entry(pid).or_default();
        if per.now == now && per.progress == progress {
            per.streak += 1;
        } else {
            *per = SpinWatch {
                now,
                progress,
                streak: 0,
            };
        }
        let per_streak = per.streak;
        if inner.global.now == now && inner.global.progress == progress {
            inner.global.streak += 1;
        } else {
            inner.global = SpinWatch {
                now,
                progress,
                streak: 0,
            };
        }
        let (kind, observed) = if per_streak >= self.dispatch_spin_threshold {
            (LivelockKind::SchedulerSpin, per_streak)
        } else if inner.global.streak >= GLOBAL_SPIN_THRESHOLD {
            (LivelockKind::GlobalSpin, inner.global.streak)
        } else {
            return false;
        };
        inner.tripped = true;
        inner.violations.push(Violation::Livelock {
            proc_name: name.to_string(),
            kind,
            label: "",
            at_ns: now,
            observed,
        });
        true
    }

    /// Cond hook: a wait is beginning.
    pub(crate) fn wait_begin(&self, pid: u32, cond: u64, label: &'static str, timed: bool) {
        let mut inner = self.inner.lock();
        inner.waits.insert(pid, (cond, label, timed));
        let n = inner.waits.len();
        inner.max_wait_graph = inner.max_wait_graph.max(n);
    }

    /// Cond hook: the wait ended (woken or timed out).
    pub(crate) fn wait_end(&self, pid: u32) {
        self.inner.lock().waits.remove(&pid);
    }

    /// Cond hook: `pid` notified `cond` (process context only; event-context
    /// notifiers cannot themselves be blocked, so they never close a cycle).
    pub(crate) fn note_notify(&self, pid: u32, cond: u64) {
        self.inner
            .lock()
            .notifiers
            .entry(cond)
            .or_default()
            .insert(pid);
    }

    /// Cond hook: a `wait_while` predicate passed without blocking.
    /// Returns `true` when the poll-spin guard fired; the caller then stops
    /// the run and yields (the spin otherwise never re-enters the
    /// scheduler).
    pub(crate) fn note_poll_pass(
        &self,
        cond: u64,
        label: &'static str,
        name: &str,
        now: u64,
    ) -> bool {
        let progress = self.progress.load(Ordering::Relaxed);
        let mut inner = self.inner.lock();
        if inner.tripped {
            return false;
        }
        let w = inner.polls.entry(cond).or_default();
        if w.now == now && w.progress == progress {
            w.streak += 1;
        } else {
            *w = SpinWatch {
                now,
                progress,
                streak: 0,
            };
        }
        if w.streak < self.poll_spin_threshold {
            return false;
        }
        let observed = w.streak;
        inner.tripped = true;
        inner.violations.push(Violation::Livelock {
            proc_name: name.to_string(),
            kind: LivelockKind::PollSpin,
            label,
            at_ns: now,
            observed,
        });
        true
    }

    /// Kernel hook at quiescence: the event queue is empty but `blocked`
    /// (pid, name) processes are unfinished. Builds the wait-for graph,
    /// searches for a cycle through historical notifiers, and records a
    /// [`Violation::Deadlock`].
    pub(crate) fn on_quiescence(&self, blocked: &[(u32, String)]) {
        let mut inner = self.inner.lock();
        let blocked_pids: BTreeSet<u32> = blocked.iter().map(|&(p, _)| p).collect();
        let name_of = |pid: u32| -> String {
            blocked
                .iter()
                .find(|&&(p, _)| p == pid)
                .map(|(_, n)| n.clone())
                .unwrap_or_else(|| format!("pid#{pid}"))
        };
        let waits: Vec<WaitEdge> = inner
            .waits
            .iter()
            .filter(|(pid, _)| blocked_pids.contains(pid))
            .map(|(&pid, &(cond, label, timed))| WaitEdge {
                waiter: name_of(pid),
                cond,
                label,
                timed,
            })
            .collect();
        // Wait-for edges between processes: p -> q when p waits (untimed)
        // on a cond that q — also blocked — has notified before.
        let mut succ: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
        for (&pid, &(cond, _, timed)) in &inner.waits {
            if timed || !blocked_pids.contains(&pid) {
                continue;
            }
            let peers: BTreeSet<u32> = inner
                .notifiers
                .get(&cond)
                .map(|s| s.intersection(&blocked_pids).copied().collect())
                .unwrap_or_default();
            succ.insert(pid, peers);
        }
        // DFS for a cycle.
        let cycle = find_cycle(&succ).map(|pids| pids.into_iter().map(name_of).collect());
        if !inner
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Deadlock { .. }))
        {
            inner.violations.push(Violation::Deadlock {
                cycle: cycle.unwrap_or_default(),
                waits,
            });
        }
    }

    /// Snapshot of the run's exploration report.
    pub(crate) fn report(&self) -> ExploreReport {
        let inner = self.inner.lock();
        ExploreReport {
            steps: inner.steps,
            preemptions: inner.preemptions,
            max_ready: inner.max_ready,
            max_wait_graph: inner.max_wait_graph,
            progress: self.progress.load(Ordering::Relaxed),
            violations: inner.violations.clone(),
            trace: ScheduleTrace {
                decisions: inner.deviations.clone(),
            },
            choice_points: inner.choice_log.clone(),
        }
    }
}

/// Finds one cycle in a small successor graph, returned in edge order.
fn find_cycle(succ: &BTreeMap<u32, BTreeSet<u32>>) -> Option<Vec<u32>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        New,
        Active,
        Done,
    }
    let mut marks: BTreeMap<u32, Mark> = succ.keys().map(|&k| (k, Mark::New)).collect();
    for &start in succ.keys() {
        if marks[&start] != Mark::New {
            continue;
        }
        // Iterative DFS with an explicit path stack.
        let mut path: Vec<(u32, Vec<u32>)> = vec![(
            start,
            succ.get(&start)
                .map(|s| s.iter().copied().collect())
                .unwrap_or_default(),
        )];
        marks.insert(start, Mark::Active);
        while let Some((node, todo)) = path.last_mut() {
            let node = *node;
            match todo.pop() {
                None => {
                    marks.insert(node, Mark::Done);
                    path.pop();
                }
                Some(next) => match marks.get(&next).copied().unwrap_or(Mark::Done) {
                    Mark::Active => {
                        // Cycle: slice the path from `next` to here.
                        let at = path.iter().position(|&(n, _)| n == next).unwrap_or(0);
                        return Some(path[at..].iter().map(|&(n, _)| n).collect());
                    }
                    Mark::New => {
                        marks.insert(next, Mark::Active);
                        let todo2 = succ
                            .get(&next)
                            .map(|s| s.iter().copied().collect())
                            .unwrap_or_default();
                        path.push((next, todo2));
                    }
                    Mark::Done => {}
                },
            }
        }
    }
    None
}

/// Advances the exploration progress watermark. Protocol layers call this
/// wherever a completed-prefix watermark moves (a delivery applied, a
/// checkpoint floor raised, a recovery readiness gate opened): the livelock
/// guards treat any repetition *without* such an advance at one instant as
/// a zero-progress spin. One `OnceCell` flag test, no-op when exploration
/// is off or outside process context.
pub fn note_progress() {
    let _ = crate::kernel::try_with_ctx(|k, _| {
        if let Some(ex) = k.explore_state() {
            ex.bump_progress();
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_round_trips_through_encoding() {
        let t = ScheduleTrace {
            decisions: vec![(0, 17), (42, 9_000), (99, 3)],
        };
        assert_eq!(ScheduleTrace::parse(&t.encode()), Some(t.clone()));
        assert_eq!(ScheduleTrace::parse(""), Some(ScheduleTrace::default()));
        assert_eq!(ScheduleTrace::parse("bogus"), None);
        assert_eq!(ScheduleTrace::parse("1:2,3"), None);
    }

    #[test]
    fn scripted_strategy_deviates_only_at_listed_steps() {
        let mut s = StrategyImpl::build(
            &StrategyKind::Scripted {
                decisions: vec![(1, 1)],
            },
            1000,
        );
        let ready = [
            Choice {
                seq: 10,
                actor: ChoiceActor::Timer,
            },
            Choice {
                seq: 11,
                actor: ChoiceActor::Proc {
                    pid: 0,
                    stale: false,
                },
            },
        ];
        assert_eq!(s.choose(0, &ready), 0);
        assert_eq!(s.choose(1, &ready), 1);
        assert_eq!(s.choose(2, &ready), 0);
    }

    #[test]
    fn replay_strategy_matches_by_seq_not_index() {
        let mut s = StrategyImpl::build(
            &StrategyKind::Replay {
                trace: ScheduleTrace {
                    decisions: vec![(0, 11)],
                },
            },
            1000,
        );
        let ready = [
            Choice {
                seq: 10,
                actor: ChoiceActor::Timer,
            },
            Choice {
                seq: 11,
                actor: ChoiceActor::Timer,
            },
        ];
        assert_eq!(s.choose(0, &ready), 1);
        // Missing step and missing seq both fall back to baseline.
        assert_eq!(s.choose(1, &ready), 0);
    }

    #[test]
    fn pct_is_deterministic_per_seed() {
        let ready: Vec<Choice> = (0..4)
            .map(|i| Choice {
                seq: i,
                actor: ChoiceActor::Proc {
                    pid: i as u32,
                    stale: false,
                },
            })
            .collect();
        let run = |seed| {
            let mut s = StrategyImpl::build(&StrategyKind::Pct { seed, depth: 3 }, 64);
            (0..64)
                .map(|step| s.choose(step, &ready))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds must explore differently");
    }

    #[test]
    fn cycle_detection_finds_two_cycle() {
        let mut g: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
        g.insert(1, [2].into_iter().collect());
        g.insert(2, [1].into_iter().collect());
        let cyc = find_cycle(&g).expect("cycle");
        assert_eq!(cyc.len(), 2);
        let mut g2: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
        g2.insert(1, [2].into_iter().collect());
        g2.insert(2, BTreeSet::new());
        assert!(find_cycle(&g2).is_none());
    }

    #[test]
    fn shrink_drops_irrelevant_decisions() {
        let trace = ScheduleTrace {
            decisions: vec![(1, 100), (2, 200), (3, 300)],
        };
        // Violation "needs" only the (2, 200) decision.
        let min = shrink_trace(&trace, |t| {
            t.decisions.iter().any(|&(s, q)| (s, q) == (2, 200))
        });
        assert_eq!(min.decisions, vec![(2, 200)]);
        // Violation independent of the trace shrinks to empty.
        let min2 = shrink_trace(&trace, |_| true);
        assert!(min2.is_empty());
    }
}
