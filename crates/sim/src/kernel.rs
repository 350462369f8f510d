//! The simulation kernel: virtual clock, deterministic scheduler, and the
//! processes it runs.
//!
//! A simulated process is a stackful coroutine ([`coro`]): it has a stack
//! of its own but no OS thread. All of a simulation's processes live on the
//! thread that calls [`Simulation::run`]. That thread's *host loop*
//! ([`Kernel::run_loop`]) is the only place events are popped: it pops the
//! next `(time, seq)` entry, books it, and either runs the timer closure
//! itself or resumes the process the entry wakes — and is resumed in turn
//! when that process blocks or finishes. "Exactly one process runs at a
//! time" therefore holds by construction, and a context switch is a dozen
//! instructions instead of a futex round trip.
//!
//! Nothing here is `unsafe`; the switch and the stack allocation are the
//! `coro` shim's. Because a `Coroutine` is `!Send`, so is [`Simulation`]:
//! it runs, and is dropped, on the thread that created it.

use crate::error::{SimError, SimResult};
use crate::explore::{Choice, ChoiceActor, ExploreConfig, ExploreState, MAX_READY};
use crate::queue::{Entry, Popped, TimerWheel, Wake};
use crate::time::SimTime;
use crate::trace::TraceState;
use crate::vclock::VectorClock;
use coro::Coroutine;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cell::{Cell, OnceCell, RefCell};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;

/// Identifier of a simulated process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub(crate) u32);

impl Pid {
    /// The process's dense index (pids are assigned 0, 1, 2, … in spawn
    /// order). Used by the race detector to index vector-clock entries.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid#{}", self.0)
    }
}

/// Panic payload used to unwind a killed process. Never observed by user
/// code.
pub(crate) struct KilledToken;

/// Stack of every simulated process: address space only, committed page by
/// page as the process first touches it.
const STACK_BYTES: usize = 1 << 20;

/// A process's code, from `spawn` until its first dispatch moves it onto a
/// coroutine stack.
type Body = Box<dyn FnOnce()>;

struct ProcInfo {
    name: String,
    body: Option<Body>,
    /// Incremented on every block; wake entries carry the token they were
    /// issued for, so dead wakes are filtered out ([`dead`]).
    token: u64,
    parked: bool,
    killed: bool,
    finished: bool,
    /// Mirrors `killed || finished` for the mailbox send path's liveness
    /// check, which then needs no kernel visit (see [`Kernel::dead_flag`]).
    dead: Rc<Cell<bool>>,
    rng: Option<SmallRng>,
    /// Happens-before clock; stays empty (and free) unless a race detector
    /// is ticking it. See [`crate::vclock`].
    vc: VectorClock,
    /// Sticky wait-state override ([`crate::prof::blocked_scope`] /
    /// [`crate::prof::parked_scope`]): while set, every block by this
    /// process is booked under it. Per process, not per thread — all
    /// processes share one thread.
    scope: Option<crate::prof::Key>,
}

struct KState {
    /// The virtual clock. Written through [`Kernel::set_now`] only, which
    /// keeps [`Kernel::now`] equal to it.
    now: u64,
    seq: u64,
    /// Events popped off the queue since the simulation started: timers,
    /// process wakes, and those [`dead`] wakes that died after the wheel
    /// last moved them (a level-0 or overflow entry, or one a cascade met
    /// while it was still live) — the scheduler's unit of real work.
    events: u64,
    /// Order-sensitive fingerprint of every `(time, seq)` popped, folded
    /// FNV-1a style. Two runs with equal hashes (and equal event counts)
    /// executed the exact same schedule.
    sched_hash: u64,
    queue: TimerWheel,
    procs: Vec<ProcInfo>,
    stop: bool,
    panic: Option<String>,
    unfinished: usize,
    /// Deterministic id source for [`crate::Cond`] instances (assignment
    /// order within the run; 0 means unassigned).
    cond_seq: u64,
    /// Debug-build zero-progress watch: `(instant, pid, streak)` of
    /// consecutive live dispatches of one process at one instant. Trips a
    /// debug assertion on a runaway same-instant wake loop even when
    /// exploration is off (see [`crate::explore`] for the real detectors).
    dbg_spin: (u64, u32, u32),
    /// Per-process wait-state accounting ([`crate::prof`]), created when
    /// tracing is switched on; lives here so the hot hooks run under the
    /// state borrow they already hold — no second borrow, no
    /// reference-count traffic per event.
    prof: Option<crate::prof::ProfProcs>,
}

/// Consecutive same-instant live dispatches of one process before the
/// debug-build zero-progress assertion fires. Far above any legitimate
/// same-instant cascade; a genuine `has_work`-class spin blows through it
/// in microseconds of wall time.
const DEBUG_SPIN_LIMIT: u32 = 500_000;

/// Debug-build guard on every live process dispatch: panics on a
/// zero-virtual-time wake storm so the PR 8 bug class fails fast in tests
/// even without the exploration detectors.
fn debug_spin_watch(st: &mut KState, pid: Pid) {
    let (at, last, streak) = st.dbg_spin;
    if at == st.now && last == pid.0 {
        st.dbg_spin.2 = streak.saturating_add(1);
        debug_assert!(
            st.dbg_spin.2 < DEBUG_SPIN_LIMIT,
            "process '{}' dispatched {}x at {} ns without virtual time advancing \
             (zero-progress spin; see sim::explore livelock detectors)",
            st.procs[pid.0 as usize].name,
            st.dbg_spin.2,
            st.now,
        );
    } else {
        st.dbg_spin = (st.now, pid.0, 0);
    }
}

/// Whether `wake` can never resume its process: the process has finished,
/// or has blocked again since the wake was issued. Both are for good
/// (`finished` is never cleared, tokens only grow), so the wheel may drop
/// such a wake wherever a cascade meets one instead of carrying it to its
/// instant to pop as a no-op. The one staleness test: the host loop pops
/// only while no process runs, so every unfinished process is parked and
/// "not parked" adds nothing to it.
fn dead(procs: &[ProcInfo], wake: &Wake) -> bool {
    match *wake {
        Wake::Timer(_) => false,
        Wake::Proc { pid, token } => {
            let p = &procs[pid.0 as usize];
            debug_assert!(p.finished || p.parked, "popped while '{}' runs", p.name);
            p.finished || p.token != token
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A simulation's kernel. Every process, timer and handle that reaches it
/// runs on the one thread that runs the simulation, and no kernel method
/// holds the state across a switch, so the state is a `RefCell`: a borrow
/// is a flag test, and a second borrow while one is live is a bug that
/// panics.
pub(crate) struct Kernel {
    state: RefCell<KState>,
    /// `KState::now`, readable without borrowing the state: every verb
    /// post, wait with a deadline and trace hook reads the clock.
    now: Cell<u64>,
    seed: u64,
    /// The one observability gate, set once: one test decides every trace,
    /// wait-state and gauge hook, mirroring the race detector's fabric
    /// flag, so the off path costs nothing and schedules stay bit-identical
    /// either way (see [`crate::trace`], [`crate::prof`]).
    trace: OnceCell<Arc<TraceState>>,
    /// Set on the first vector-clock tick. While unset (no race detector
    /// running), clock snapshots return the empty clock after one flag
    /// test, without touching the state — the mailbox/Cond send paths stay
    /// allocation-free.
    vc_on: Cell<bool>,
    /// Exploration gate, like `trace`: one test decides every choice-point
    /// / detector hook (see [`crate::explore`]).
    explore: OnceCell<Arc<ExploreState>>,
}

/// What this thread is doing for a simulation right now. Shared (`Rc`)
/// between the thread-local cell, the host loop that rewrites it at every
/// switch into and out of a process, and each sim call in flight.
struct Current {
    kernel: Rc<Kernel>,
    /// The process whose code is running; `None` in the host loop and in
    /// the timer closures it runs (event context).
    pid: Cell<Option<Pid>>,
    /// Whether that process was killed while it was parked.
    killed: Cell<bool>,
}

thread_local! {
    /// Installed for the length of a host loop ([`Host`]). One cell per
    /// thread, so one for all of a simulation's processes.
    static CURRENT: RefCell<Option<Rc<Current>>> = const { RefCell::new(None) };
}

/// Marks the calling thread as `kernel`'s host for the guard's lifetime,
/// then restores what it was doing before (nothing — or running a process
/// of another simulation that drives this one from the inside).
struct Host {
    current: Rc<Current>,
    outer: Option<Rc<Current>>,
}

impl Host {
    fn enter(kernel: &Rc<Kernel>) -> Host {
        let current = Rc::new(Current {
            kernel: Rc::clone(kernel),
            pid: Cell::new(None),
            killed: Cell::new(false),
        });
        Host {
            outer: CURRENT.with(|c| c.replace(Some(Rc::clone(&current)))),
            current,
        }
    }

    /// Runs process `pid` on its own stack until it next blocks or
    /// finishes; a finished process's stack is freed.
    fn resume(&self, stacks: &mut [Option<Coroutine>], pid: Pid, killed: bool) {
        let slot = &mut stacks[pid.0 as usize];
        let coroutine = slot.as_mut().expect("dispatched process has a stack");
        self.current.pid.set(Some(pid));
        self.current.killed.set(killed);
        let suspended = coroutine.resume();
        self.current.pid.set(None);
        if !suspended {
            *slot = None;
        }
    }
}

impl Drop for Host {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.outer.take());
    }
}

fn current() -> Option<Rc<Current>> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Like [`with_ctx`] but returns `None` when no simulated process is
/// running on this thread (plain host code, the host loop, or a timer
/// closure running in event context).
pub(crate) fn try_with_ctx<R>(f: impl FnOnce(&Rc<Kernel>, Pid) -> R) -> Option<R> {
    // Copy out, then call: `f` may block, and whichever process runs next
    // goes through this same cell.
    let current = current()?;
    let pid = current.pid.get()?;
    Some(f(&current.kernel, pid))
}

/// Runs `f` with the calling process's kernel and pid.
///
/// # Panics
///
/// Panics when no simulated process is running on this thread (including
/// a timer closure running in event context).
pub(crate) fn with_ctx<R>(f: impl FnOnce(&Rc<Kernel>, Pid) -> R) -> R {
    try_with_ctx(f).expect("sim API called outside a simulated process")
}

/// Process side of a context switch: gives the thread back to the host
/// loop and returns when a wake for the current block is dispatched.
///
/// # Panics
///
/// Unwinds with [`KilledToken`] if the process was killed meanwhile.
fn park() {
    coro::suspend();
    if current().is_some_and(|current| current.killed.get()) {
        std::panic::panic_any(KilledToken);
    }
}

fn install_kill_quiet_hook() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<KilledToken>().is_none() {
                default(info);
            }
        }));
    });
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "process panicked".to_string()
    }
}

impl Kernel {
    fn new(seed: u64) -> Rc<Self> {
        Rc::new(Kernel {
            state: RefCell::new(KState {
                now: 0,
                seq: 0,
                events: 0,
                sched_hash: FNV_OFFSET,
                queue: TimerWheel::new(),
                procs: Vec::new(),
                stop: false,
                panic: None,
                unfinished: 0,
                cond_seq: 0,
                dbg_spin: (0, u32::MAX, 0),
                prof: None,
            }),
            now: Cell::new(0),
            seed,
            trace: OnceCell::new(),
            vc_on: Cell::new(false),
            explore: OnceCell::new(),
        })
    }

    /// Snapshot of the per-process wait-state totals as of "now" (for
    /// [`crate::trace::Tracer::report`]); empty when tracing is off.
    pub(crate) fn prof_proc_totals(
        &self,
    ) -> (u64, Vec<Vec<(crate::prof::Key, crate::prof::Stat)>>) {
        let st = self.state.borrow();
        let totals = st
            .prof
            .as_ref()
            .map(|p| p.snapshot(st.now))
            .unwrap_or_default();
        (st.now, totals)
    }

    /// The exploration state, or `None` when exploration is off (the common
    /// case: one flag test).
    pub(crate) fn explore_state(&self) -> Option<Arc<ExploreState>> {
        self.explore.get().cloned()
    }

    /// Enables schedule exploration (idempotent; the first call's config
    /// wins) and returns the shared exploration state.
    pub(crate) fn enable_explore(&self, cfg: ExploreConfig) -> Arc<ExploreState> {
        Arc::clone(
            self.explore
                .get_or_init(|| Arc::new(ExploreState::new(cfg))),
        )
    }

    /// Hands out the next deterministic [`crate::Cond`] id (1, 2, 3, … in
    /// first-use order, which is schedule-determined and thus stable for a
    /// given seed).
    pub(crate) fn alloc_cond_id(&self) -> u64 {
        let mut st = self.state.borrow_mut();
        st.cond_seq += 1;
        st.cond_seq
    }

    /// The trace recording state, or `None` when tracing is off (the common
    /// case: one flag test).
    pub(crate) fn trace_state(&self) -> Option<Arc<TraceState>> {
        self.trace.get().cloned()
    }

    /// Whether tracing is on (one flag test).
    pub(crate) fn tracing(&self) -> bool {
        self.trace.get().is_some()
    }

    /// Enables tracing (idempotent) and returns the shared recording state.
    /// The first call also creates the wait-state table.
    pub(crate) fn enable_trace(&self) -> Arc<TraceState> {
        Arc::clone(self.trace.get_or_init(|| {
            self.state.borrow_mut().prof = Some(crate::prof::ProfProcs::new());
            Arc::new(TraceState::new())
        }))
    }

    /// Names of all spawned processes, in pid order.
    pub(crate) fn proc_names(&self) -> Vec<String> {
        self.state
            .borrow()
            .procs
            .iter()
            .map(|p| p.name.clone())
            .collect()
    }

    pub(crate) fn now_nanos(&self) -> u64 {
        self.now.get()
    }

    fn set_now(&self, st: &mut KState, now: u64) {
        st.now = now;
        self.now.set(now);
    }

    pub(crate) fn events(&self) -> u64 {
        self.state.borrow().events
    }

    pub(crate) fn sched_hash(&self) -> u64 {
        self.state.borrow().sched_hash
    }

    fn push_entry(st: &mut KState, time: u64, wake: Wake) {
        let seq = st.seq;
        st.seq += 1;
        st.queue.push(time, seq, wake);
    }

    /// Books a popped entry: event count, schedule hash (one FNV-1a fold
    /// step over `time`, then `seq`), clock advance. Every pop, dead or
    /// live, goes through here exactly once.
    fn book_pop(&self, st: &mut KState, time: u64, seq: u64) {
        st.events += 1;
        let h = (st.sched_hash ^ time).wrapping_mul(FNV_PRIME);
        st.sched_hash = (h ^ seq).wrapping_mul(FNV_PRIME);
        let now = st.now.max(time);
        self.set_now(st, now);
    }

    /// The next entry due by `limit`, shedding [`dead`] wakes on the way.
    /// The host loop and the exploration gather both pop through here, so
    /// Baseline sheds exactly what an unexplored run does.
    fn pop_due(st: &mut KState, limit: Option<u64>) -> Popped {
        let KState { queue, procs, .. } = st;
        queue.pop_due(limit, |wake| dead(procs, wake))
    }

    pub(crate) fn schedule(&self, delay: u64, f: impl FnOnce() + 'static) {
        let mut st = self.state.borrow_mut();
        let at = st.now.saturating_add(delay);
        Self::push_entry(&mut st, at, Wake::Timer(Box::new(f)));
    }

    pub(crate) fn spawn(&self, name: String, f: impl FnOnce() + 'static) -> Pid {
        let mut st = self.state.borrow_mut();
        let pid = Pid(st.procs.len() as u32);
        let rng = SmallRng::seed_from_u64(
            self.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(u64::from(pid.0)),
        );
        st.procs.push(ProcInfo {
            name,
            body: Some(Box::new(f)),
            token: 0,
            parked: true,
            killed: false,
            finished: false,
            dead: Rc::new(Cell::new(false)),
            rng: Some(rng),
            vc: VectorClock::new(),
            scope: None,
        });
        st.unfinished += 1;
        let now = st.now;
        Self::push_entry(&mut st, now, Wake::Proc { pid, token: 0 });
        if let Some(pr) = &mut st.prof {
            pr.on_spawn(pid, now);
        }
        pid
    }

    /// Gives a process its stack on its first dispatch. The coroutine's
    /// body is the process's whole life: run the code, record how it
    /// ended. Nothing may unwind past a coroutine's first frame, so it
    /// catches everything, the kill token included.
    fn start(self: &Rc<Self>, stacks: &mut Vec<Option<Coroutine>>, pid: Pid, body: Body) {
        let kernel = Rc::clone(self);
        let life = move || {
            let panic_msg = match catch_unwind(AssertUnwindSafe(body)) {
                Ok(()) => None,
                Err(payload) if payload.is::<KilledToken>() => None,
                Err(payload) => Some(panic_message(payload.as_ref())),
            };
            kernel.finish(pid, panic_msg);
        };
        let i = pid.0 as usize;
        if stacks.len() <= i {
            stacks.resize_with(i + 1, || None);
        }
        stacks[i] = Some(Coroutine::new(STACK_BYTES, life));
    }

    /// Marks a process finished; its coroutine returns to the host loop
    /// right after.
    fn finish(&self, pid: Pid, panic_msg: Option<String>) {
        let mut st = self.state.borrow_mut();
        let now = st.now;
        if let Some(pr) = &mut st.prof {
            pr.on_finish(pid, now);
        }
        let p = &mut st.procs[pid.0 as usize];
        p.finished = true;
        p.parked = false;
        p.dead.set(true);
        st.unfinished -= 1;
        if let Some(msg) = panic_msg {
            let name = st.procs[pid.0 as usize].name.clone();
            st.panic = Some(format!("process '{name}' panicked: {msg}"));
        }
    }

    /// First half of blocking: bump the wake token, mark the process
    /// parked and, for a wait with a `deadline`, file its timed wake-up.
    /// The caller must then register wake sources and call
    /// [`Kernel::yield_and_park`].
    pub(crate) fn begin_block(&self, pid: Pid, deadline: Option<u64>) -> u64 {
        let mut st = self.state.borrow_mut();
        let p = &mut st.procs[pid.0 as usize];
        p.token += 1;
        p.parked = true;
        let token = p.token;
        if let Some(at) = deadline {
            Self::push_entry(&mut st, at, Wake::Proc { pid, token });
        }
        token
    }

    /// Second half of blocking: switch to the host loop until woken. `key`
    /// is the wait state a traced run books the block under unless a scope
    /// overrides it.
    ///
    /// # Panics
    ///
    /// Unwinds with [`KilledToken`] if the process was killed while parked.
    pub(crate) fn yield_and_park(&self, pid: Pid, key: crate::prof::Key) {
        if self.tracing() {
            let mut st = self.state.borrow_mut();
            let now = st.now;
            let key = st.procs[pid.0 as usize].scope.unwrap_or(key);
            if let Some(pr) = &mut st.prof {
                pr.on_block(pid, now, key);
            }
        }
        park();
    }

    /// Blocks `pid` until `nanos` of virtual time pass: begin-block,
    /// enqueue-wake and the wait-state hook under one state borrow — this is
    /// the hottest blocking path (every `sleep`, `yield_now` and
    /// simulated-latency charge).
    pub(crate) fn sleep(&self, pid: Pid, nanos: u64) {
        {
            let mut st = self.state.borrow_mut();
            let p = &mut st.procs[pid.0 as usize];
            p.token += 1;
            p.parked = true;
            let (token, scope) = (p.token, p.scope);
            let now = st.now;
            Self::push_entry(
                &mut st,
                now.saturating_add(nanos),
                Wake::Proc { pid, token },
            );
            if let Some(pr) = &mut st.prof {
                pr.on_block(pid, now, scope.unwrap_or(crate::prof::SLEEP));
            }
        }
        park();
    }

    /// Replaces the process's wait-state scope, returning the previous one.
    pub(crate) fn swap_scope(
        &self,
        pid: Pid,
        scope: Option<crate::prof::Key>,
    ) -> Option<crate::prof::Key> {
        std::mem::replace(
            &mut self.state.borrow_mut().procs[pid.0 as usize].scope,
            scope,
        )
    }

    /// Wakes a parked process if `token` still matches its current block.
    /// Wakes aimed at killed or finished processes are discarded: the kill
    /// path already queued the wake that unwinds the victim, so honouring a
    /// later notify would only enqueue stale events.
    pub(crate) fn wake(&self, pid: Pid, token: u64) {
        let mut st = self.state.borrow_mut();
        let now = st.now;
        let p = &st.procs[pid.0 as usize];
        if !p.finished && !p.killed && p.parked && p.token == token {
            Self::push_entry(&mut st, now, Wake::Proc { pid, token });
        }
    }

    /// A shared flag that turns true once the process is killed or
    /// finished — i.e. will never again run user code. Used by
    /// [`crate::Mailbox`] to fail sends whose every receiver is gone with
    /// one flag read per owner instead of a kernel visit.
    pub(crate) fn dead_flag(&self, pid: Pid) -> Rc<Cell<bool>> {
        Rc::clone(&self.state.borrow().procs[pid.0 as usize].dead)
    }

    pub(crate) fn kill(&self, pid: Pid) {
        let mut st = self.state.borrow_mut();
        let now = st.now;
        let p = &mut st.procs[pid.0 as usize];
        if p.finished || p.killed {
            return;
        }
        p.killed = true;
        p.dead.set(true);
        if p.parked {
            let token = p.token;
            Self::push_entry(&mut st, now, Wake::Proc { pid, token });
        }
    }

    pub(crate) fn is_finished(&self, pid: Pid) -> bool {
        self.state.borrow().procs[pid.0 as usize].finished
    }

    pub(crate) fn stop(&self) {
        self.state.borrow_mut().stop = true;
    }

    pub(crate) fn proc_name(&self, pid: Pid) -> String {
        self.state.borrow().procs[pid.0 as usize].name.clone()
    }

    pub(crate) fn with_rng<R>(&self, pid: Pid, f: impl FnOnce(&mut SmallRng) -> R) -> R {
        let mut rng = self.state.borrow_mut().procs[pid.0 as usize]
            .rng
            .take()
            .expect("process RNG already borrowed");
        let out = f(&mut rng);
        self.state.borrow_mut().procs[pid.0 as usize].rng = Some(rng);
        out
    }

    /// Snapshot of the process's happens-before clock. Empty (no
    /// allocation, no state borrow) unless a race detector has ticked a
    /// clock somewhere in this simulation.
    pub(crate) fn vc_snapshot(&self, pid: Pid) -> VectorClock {
        if !self.vc_on.get() {
            return VectorClock::new();
        }
        self.state.borrow().procs[pid.0 as usize].vc.clone()
    }

    /// Ticks the process's own clock entry (a release operation) and
    /// returns the new value together with a snapshot of the full clock.
    pub(crate) fn vc_tick(&self, pid: Pid) -> (u64, VectorClock) {
        self.vc_on.set(true);
        let mut st = self.state.borrow_mut();
        let p = &mut st.procs[pid.0 as usize];
        let clk = p.vc.tick(pid.0);
        (clk, p.vc.clone())
    }

    /// Joins `other` into the process's clock (an acquire operation).
    pub(crate) fn vc_join(&self, pid: Pid, other: &VectorClock) {
        if other.is_empty() {
            return;
        }
        self.state.borrow_mut().procs[pid.0 as usize].vc.join(other);
    }

    /// One pop under exploration: gathers every entry due at the served
    /// instant (the ready set, capped), offers it to the strategy, and
    /// restores the rest unbooked in their original relative order. Dead
    /// wakes that pop stay in the choice set — they are part of the
    /// kernel's native pop order, which is what makes the Baseline strategy
    /// bit-identical to an unexplored run.
    fn pop_explored(&self, st: &mut KState, ex: &ExploreState, deadline: Option<u64>) -> Popped {
        let first = match Self::pop_due(st, deadline) {
            Popped::Event(e) => e,
            other => return other,
        };
        let time = first.time;
        let mut ready = vec![first];
        while ready.len() < MAX_READY {
            match Self::pop_due(st, Some(time)) {
                Popped::Event(e) => {
                    debug_assert_eq!(e.time, time, "same-instant gather crossed instants");
                    ready.push(e);
                }
                _ => break,
            }
        }
        let idx = if ready.len() > 1 {
            let choices: Vec<Choice> = ready
                .iter()
                .map(|e| Choice {
                    seq: e.seq,
                    actor: match e.wake {
                        Wake::Timer(_) => ChoiceActor::Timer,
                        Wake::Proc { pid, .. } => ChoiceActor::Proc {
                            pid: pid.0,
                            stale: dead(&st.procs, &e.wake),
                        },
                    },
                })
                .collect();
            let (idx, preempted) = ex.choose(time, &choices);
            if preempted {
                if let Some(tr) = self.trace_state() {
                    tr.record_instant_extern(
                        time,
                        "explore.preempt",
                        0,
                        &[("seq", choices[idx].seq), ("ready", choices.len() as u64)],
                    );
                }
            }
            idx
        } else {
            0
        };
        // `remove` (not swap_remove): the leftovers must keep their seq
        // order for `unpop` to rebuild the same-instant batch correctly.
        let chosen = ready.remove(idx);
        for e in ready.into_iter().rev() {
            st.queue.unpop(e);
        }
        Popped::Event(chosen)
    }

    /// The host loop: the one place events are popped and the one caller
    /// of [`Host::resume`]. `deadline` bounds virtual time (inclusive);
    /// `strict` turns an empty run queue with still-blocked processes into a
    /// [`SimError::Deadlock`].
    fn run_loop(
        self: &Rc<Self>,
        stacks: &mut Vec<Option<Coroutine>>,
        deadline: Option<u64>,
        strict: bool,
    ) -> SimResult<()> {
        let host = Host::enter(self);
        let explore = self.explore_state();
        loop {
            let (pid, killed, body) = {
                let mut st = self.state.borrow_mut();
                if let Some(msg) = st.panic.take() {
                    drop(st);
                    panic!("{msg}");
                }
                if st.stop {
                    return Ok(());
                }
                let popped = match &explore {
                    Some(ex) => self.pop_explored(&mut st, ex, deadline),
                    None => Self::pop_due(&mut st, deadline),
                };
                match popped {
                    Popped::Empty => {
                        // Drained: the clock stands at the deadline or,
                        // without one, at the last entry's instant — popped
                        // or shed.
                        let reached = deadline.unwrap_or_else(|| st.queue.shed_to());
                        let now = st.now.max(reached);
                        self.set_now(&mut st, now);
                        if st.unfinished > 0 && (strict || explore.is_some()) {
                            let unfinished =
                                st.procs.iter().enumerate().filter(|(_, p)| !p.finished);
                            let blocked: Vec<(u32, String)> = unfinished
                                .map(|(i, p)| (i as u32, p.name.clone()))
                                .collect();
                            if let Some(ex) = &explore {
                                // Quiescence with blocked processes: feed
                                // the wait-for graph to the deadlock
                                // detector (strict or not — nothing inside
                                // the simulation can ever wake them).
                                ex.on_quiescence(&blocked);
                            }
                            if strict {
                                let blocked = blocked.into_iter().map(|(_, name)| name).collect();
                                return Err(SimError::Deadlock { blocked });
                            }
                        }
                        return Ok(());
                    }
                    Popped::Beyond => {
                        let now = deadline.expect("bounded pop without a deadline");
                        self.set_now(&mut st, now);
                        return Ok(());
                    }
                    Popped::Event(Entry { time, seq, wake }) => {
                        self.book_pop(&mut st, time, seq);
                        if dead(&st.procs, &wake) {
                            continue;
                        }
                        match wake {
                            Wake::Timer(timer) => {
                                drop(st);
                                timer(); // on the host, in event context
                                continue;
                            }
                            Wake::Proc { pid, .. } => {
                                let p = &st.procs[pid.0 as usize];
                                if explore
                                    .as_ref()
                                    .is_some_and(|ex| ex.note_dispatch(pid.0, &p.name, st.now))
                                {
                                    // Zero-progress spin: the violation is
                                    // recorded; end the run instead of
                                    // feeding the spin forever.
                                    st.stop = true;
                                    continue;
                                }
                                if cfg!(debug_assertions) {
                                    debug_spin_watch(&mut st, pid);
                                }
                                let now = st.now;
                                if let Some(pr) = &mut st.prof {
                                    pr.on_dispatch(pid, now);
                                }
                                let p = &mut st.procs[pid.0 as usize];
                                p.parked = false;
                                (pid, p.killed, p.body.take())
                            }
                        }
                    }
                }
            };
            // `body` is the process's code on its first dispatch.
            match body {
                // Killed before it ever ran: it has no stack to unwind.
                Some(_) if killed => self.finish(pid, None),
                Some(body) => {
                    self.start(stacks, pid, body);
                    host.resume(stacks, pid, killed);
                }
                None => host.resume(stacks, pid, killed),
            }
        }
    }
}

/// A deterministic discrete-event simulation.
///
/// Create one, [`spawn`](Simulation::spawn) processes, then
/// [`run`](Simulation::run) it to completion (or
/// [`run_until`](Simulation::run_until) a virtual deadline). Dropping the
/// simulation kills every remaining process: each unwinds through its
/// destructors and its stack is freed.
///
/// A `Simulation` is `!Send`: its processes' stacks are bound to the
/// thread that created it, so it runs and is dropped there. That is what
/// lets the kernel, and every [`crate::Cond`] and [`crate::Mailbox`] its
/// processes share, keep plain cells instead of locks.
///
/// ```compile_fail,E0277
/// fn send<T: Send>() {}
/// send::<sim::Simulation>();
/// ```
pub struct Simulation {
    kernel: Rc<Kernel>,
    /// The coroutine of every started, unfinished process, by pid. Host
    /// side only — processes reach the kernel, never this.
    stacks: RefCell<Vec<Option<Coroutine>>>,
}

impl fmt::Debug for Simulation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now())
            .finish()
    }
}

impl Simulation {
    /// Creates a new simulation whose randomness derives from `seed`.
    pub fn new(seed: u64) -> Self {
        install_kill_quiet_hook();
        Simulation {
            kernel: Kernel::new(seed),
            stacks: RefCell::new(Vec::new()),
        }
    }

    fn run_loop(&self, deadline: Option<u64>, strict: bool) -> SimResult<()> {
        self.kernel
            .run_loop(&mut self.stacks.borrow_mut(), deadline, strict)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.kernel.now_nanos())
    }

    /// Number of scheduler events executed so far: timer firings, process
    /// wake-ups, and the dead wakes that still pop as no-ops — those whose
    /// process finished or blocked again only after the queue last moved
    /// them (a wait's deadline superseded early is usually dropped inside
    /// the queue and never counted). This is the simulator's wall-clock
    /// work metric: fewer events for the same virtual-time run means a
    /// faster simulation.
    pub fn events_executed(&self) -> u64 {
        self.kernel.events()
    }

    /// Order-sensitive fingerprint of the schedule executed so far: an
    /// FNV-1a fold over every popped `(time, seq)` pair. Two runs that
    /// report the same hash (and the same [`Simulation::events_executed`])
    /// popped the exact same events in the exact same order — the
    /// regression signal for any change that must leave behaviour alone.
    pub fn schedule_hash(&self) -> u64 {
        self.kernel.sched_hash()
    }

    /// Spawns a simulated process, scheduled to start at the current virtual
    /// time.
    pub fn spawn<F>(&self, name: impl Into<String>, f: F) -> Pid
    where
        F: FnOnce() + 'static,
    {
        self.kernel.spawn(name.into(), f)
    }

    /// Runs until every process finishes, [`crate::stop`] is called, or no
    /// progress is possible.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if the run queue drains while
    /// processes are still blocked.
    ///
    /// # Panics
    ///
    /// Re-raises any panic from a simulated process.
    pub fn run(&self) -> SimResult<()> {
        self.run_loop(None, true)
    }

    /// Runs until virtual time reaches `deadline` (events at exactly
    /// `deadline` are processed). Processes blocked without timers are left
    /// parked; this is not an error, because later calls may unblock them.
    ///
    /// # Panics
    ///
    /// Re-raises any panic from a simulated process.
    pub fn run_until(&self, deadline: SimTime) -> SimResult<()> {
        self.run_loop(Some(deadline.as_nanos()), false)
    }

    /// Enables schedule exploration (idempotent; the first call's config
    /// wins). Call before running: subsequent [`Simulation::run`] /
    /// [`Simulation::run_until`] calls route every pop through the
    /// configured strategy's choice points and arm the deadlock and
    /// livelock detectors. With [`crate::ExploreConfig`]'s
    /// [`crate::StrategyKind::Baseline`] the executed schedule is
    /// bit-identical to an unexplored run.
    pub fn enable_exploration(&self, cfg: ExploreConfig) {
        self.kernel.enable_explore(cfg);
    }

    /// The exploration report so far, or `None` when exploration was never
    /// enabled.
    pub fn explore_report(&self) -> Option<crate::explore::ExploreReport> {
        self.kernel.explore_state().map(|ex| ex.report())
    }

    /// Enables virtual-time tracing (idempotent) and returns a
    /// [`crate::trace::Tracer`] handle over what it records. This is the
    /// one observability switch: spans and instants, the per-process wait
    /// states and the utilization gauges of [`crate::prof`]. It never
    /// perturbs the schedule: runs are bit-identical with it on or off
    /// (see [`crate::trace`]).
    pub fn enable_tracing(&self) -> crate::trace::Tracer {
        let state = self.kernel.enable_trace();
        crate::trace::Tracer::new(state, Rc::clone(&self.kernel))
    }

    /// [`Simulation::enable_tracing`], returning a
    /// [`crate::prof::Profiler`]: a view of the same recorder's wait
    /// states and gauges, not a second switch. It stays because the perf
    /// ledger (`benchmark/`) calls it; removing it waits for a change to
    /// the ledger.
    pub fn enable_profiling(&self) -> crate::prof::Profiler {
        crate::prof::Profiler::new(self.enable_tracing())
    }
}

impl Drop for Simulation {
    fn drop(&mut self) {
        let host = Host::enter(&self.kernel);
        let unstarted: Vec<Body> = {
            let mut st = self.kernel.state.borrow_mut();
            st.stop = true;
            let unfinished = st.procs.iter_mut().filter(|p| !p.finished);
            unfinished
                .filter_map(|p| {
                    p.killed = true;
                    p.dead.set(true);
                    p.body.take()
                })
                .collect()
        };
        // Outside the state borrow: what a body captured may call back into
        // the kernel as it drops.
        drop(unstarted);
        // Every process left with a stack is suspended in `park`. Resumed
        // with `killed` set it unwinds through its destructors and its
        // stack is freed. (One that swallows the kill and blocks again
        // stays suspended; `coro` then leaks its stack rather than free
        // live frames.)
        let stacks = self.stacks.get_mut();
        for i in 0..stacks.len() {
            if stacks[i].is_some() {
                host.resume(stacks, Pid(i as u32), true);
            }
        }
    }
}
