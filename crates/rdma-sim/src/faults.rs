//! Deterministic fault injection at the fabric/queue-pair layer.
//!
//! A [`FaultPlan`] is a seeded, declarative schedule of faults to inject
//! into a [`Fabric`]: crash a node at a virtual time or on its Nth verb,
//! drop or delay individual verb completions, slow a node down by a latency
//! multiplier, or pause it for a window to force it to lag. Faults are
//! injected *below* the verb API, so protocol layers (`amcast`,
//! `heron-core`) run their production code paths unmodified and observe
//! faults exactly as they would on real hardware: RDMA exceptions, silently
//! lost unsignaled writes, and stalled completions.
//!
//! Everything is deterministic: timed actions fire at exact virtual
//! instants, verb-indexed faults count the verbs a node issues, and jitter
//! is drawn from a splitmix64 stream seeded by the plan — so a failing
//! seed replays bit-for-bit.
//!
//! ```
//! use rdma_sim::{Fabric, FaultPlan, LatencyModel};
//! use std::time::Duration;
//!
//! let simulation = sim::Simulation::new(1);
//! let fabric = Fabric::new(LatencyModel::connectx4());
//! let a = fabric.add_node("a");
//! let b = fabric.add_node("b");
//! FaultPlan::new(7)
//!     .crash_at(b.id(), Duration::from_micros(5))
//!     .recover_at(b.id(), Duration::from_micros(50))
//!     .arm(&simulation, &fabric);
//! let addr = b.alloc_words(1);
//! simulation.spawn("p", move || {
//!     let qp = a.connect(&b);
//!     sim::sleep(Duration::from_micros(10));
//!     assert!(qp.read_word(addr).is_err()); // b is down
//!     sim::sleep(Duration::from_micros(50));
//!     assert!(qp.read_word(addr).is_ok()); // b recovered
//! });
//! simulation.run().unwrap();
//! ```

use crate::fabric::{Fabric, NodeId};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// One timed crash/recover action, executed by the plan's driver process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TimedAction {
    Crash(NodeId),
    PowerLoss(NodeId),
    Recover(NodeId),
}

/// Verb-indexed and rate faults for one node. Verb indices are 1-based and
/// count every verb the node *issues* (reads, writes, posted writes, CAS,
/// sends; a whole [`crate::WriteBatch`] counts as one verb — one doorbell).
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeVerbFaults {
    /// Crash the node the instant it issues its Nth verb.
    pub(crate) crash_on: Vec<u64>,
    /// Extra completion delay charged to specific verbs.
    pub(crate) delays: Vec<(u64, u64)>,
    /// Verbs whose completion is dropped: signaled verbs fail with an RDMA
    /// exception, unsignaled writes and sends are silently lost.
    pub(crate) drops: Vec<u64>,
    /// Uniformly random extra delay in `[0, jitter_ns]` on every verb.
    pub(crate) jitter_ns: u64,
    /// Latency multiplier applied to the node's verb costs (0 ⇒ 1).
    pub(crate) slowdown: u64,
    /// Pause windows `[from, until)`: a verb issued inside a window stalls
    /// until the window closes.
    pub(crate) pauses: Vec<(u64, u64)>,
}

/// The per-fabric runtime state of an armed plan.
#[derive(Debug, Default)]
pub(crate) struct FaultRuntime {
    /// splitmix64 state for jitter draws.
    rng: u64,
    nodes: HashMap<u32, NodeState>,
}

#[derive(Debug, Default)]
struct NodeState {
    verbs_issued: u64,
    spec: NodeVerbFaults,
}

/// How a verb the fault layer lets through is treated: stalled `stall_ns`
/// at its posting point, its latency charges scaled by `slow`, and with
/// `drop` its completion lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct VerbGate {
    pub(crate) stall_ns: u64,
    pub(crate) slow: u64,
    pub(crate) drop: bool,
}

/// What the fault layer decided about one verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VerbFate {
    Proceed(VerbGate),
    /// The issuing node crashes on this verb.
    CrashLocal,
}

impl VerbFate {
    /// What every verb gets when no plan says otherwise.
    pub(crate) const UNFAULTED: VerbFate = VerbFate::Proceed(VerbGate {
        stall_ns: 0,
        slow: 1,
        drop: false,
    });
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultRuntime {
    /// Classifies the verb a node is about to issue and advances its verb
    /// counter. `now_ns` is the virtual time at the verb's posting point.
    pub(crate) fn verb_fate(&mut self, node: NodeId, now_ns: u64) -> VerbFate {
        let Some(state) = self.nodes.get_mut(&node.0) else {
            return VerbFate::UNFAULTED;
        };
        state.verbs_issued += 1;
        let nth = state.verbs_issued;
        if state.spec.crash_on.contains(&nth) {
            return VerbFate::CrashLocal;
        }
        let mut stall_ns: u64 = state
            .spec
            .delays
            .iter()
            .filter(|(n, _)| *n == nth)
            .map(|(_, d)| d)
            .sum();
        for &(from, until) in &state.spec.pauses {
            if now_ns >= from && now_ns < until {
                stall_ns += until - now_ns;
            }
        }
        if state.spec.jitter_ns > 0 {
            stall_ns += splitmix64(&mut self.rng) % (state.spec.jitter_ns + 1);
        }
        let slow = state.spec.slowdown.max(1);
        VerbFate::Proceed(VerbGate {
            stall_ns,
            slow,
            drop: state.spec.drops.contains(&nth),
        })
    }
}

/// A seeded, declarative fault schedule for one [`Fabric`]: timed or
/// verb-indexed crashes and recoveries, power losses, dropped or delayed
/// verbs, slowdowns, pauses and jitter, all replayed bit-for-bit per seed.
/// Build it with the chainable methods and install it with
/// [`FaultPlan::arm`] before the simulation runs.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    timed: Vec<(u64, TimedAction)>,
    verbs: HashMap<u32, NodeVerbFaults>,
}

impl FaultPlan {
    /// An empty plan. The seed drives jitter draws only; all other faults
    /// are explicit.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..Default::default()
        }
    }

    /// Crashes `node` at virtual time `at` (fail-stop; memory preserved).
    #[must_use]
    pub fn crash_at(mut self, node: NodeId, at: Duration) -> Self {
        self.timed
            .push((at.as_nanos() as u64, TimedAction::Crash(node)));
        self
    }

    /// Crashes `node` at virtual time `at` *and wipes its registered
    /// memory* ([`Fabric::power_loss`]): the fail-stop plus total loss of
    /// volatile state that a datacenter power event inflicts. Recovery
    /// (via [`FaultPlan::recover_at`]) brings the node back with zeroed
    /// memory; only durable storage survives.
    #[must_use]
    pub fn power_loss_at(mut self, node: NodeId, at: Duration) -> Self {
        self.timed
            .push((at.as_nanos() as u64, TimedAction::PowerLoss(node)));
        self
    }

    /// Recovers `node` at virtual time `at`.
    #[must_use]
    pub fn recover_at(mut self, node: NodeId, at: Duration) -> Self {
        self.timed
            .push((at.as_nanos() as u64, TimedAction::Recover(node)));
        self
    }

    /// Crashes `node` the instant it issues its `nth` verb (1-based).
    #[must_use]
    pub fn crash_on_verb(mut self, node: NodeId, nth: u64) -> Self {
        self.verbs.entry(node.0).or_default().crash_on.push(nth);
        self
    }

    /// Delays the completion of `node`'s `nth` verb by `extra`.
    #[must_use]
    pub fn delay_verb(mut self, node: NodeId, nth: u64, extra: Duration) -> Self {
        self.verbs
            .entry(node.0)
            .or_default()
            .delays
            .push((nth, extra.as_nanos() as u64));
        self
    }

    /// Drops the completion of `node`'s `nth` verb: signaled verbs fail
    /// with [`crate::RdmaError::RemoteFailure`], unsignaled writes and
    /// sends are silently lost in the fabric.
    #[must_use]
    pub fn drop_verb(mut self, node: NodeId, nth: u64) -> Self {
        self.verbs.entry(node.0).or_default().drops.push(nth);
        self
    }

    /// Adds uniformly random delay in `[0, max]` to every verb `node`
    /// issues, drawn deterministically from the plan seed.
    #[must_use]
    pub fn jitter(mut self, node: NodeId, max: Duration) -> Self {
        self.verbs.entry(node.0).or_default().jitter_ns = max.as_nanos() as u64;
        self
    }

    /// Multiplies the verb latencies `node` pays by `factor` (≥ 1): a slow
    /// NIC/host that lags behind its peers without being paused.
    #[must_use]
    pub fn slowdown(mut self, node: NodeId, factor: u64) -> Self {
        self.verbs.entry(node.0).or_default().slowdown = factor.max(1);
        self
    }

    /// Stalls every verb `node` issues in `[from, until)` until the window
    /// closes — the plan's tool for forcing a lagger without crashing it.
    #[must_use]
    pub fn pause(mut self, node: NodeId, from: Duration, until: Duration) -> Self {
        self.verbs
            .entry(node.0)
            .or_default()
            .pauses
            .push((from.as_nanos() as u64, until.as_nanos() as u64));
        self
    }

    /// Whether the plan contains no faults at all.
    pub fn is_empty(&self) -> bool {
        self.timed.is_empty() && self.verbs.is_empty()
    }

    /// Installs the verb-level faults into `fabric` and spawns a driver
    /// process on `simulation` that executes the timed crash/recover
    /// actions. Call once, before the simulation runs.
    pub fn arm(&self, simulation: &sim::Simulation, fabric: &Fabric) {
        if !self.verbs.is_empty() {
            let nodes = self.verbs.iter().map(|(id, spec)| {
                let state = NodeState {
                    verbs_issued: 0,
                    spec: spec.clone(),
                };
                (*id, state)
            });
            *fabric.inner.faults.lock() = Some(FaultRuntime {
                rng: self.seed ^ 0x6C62_272E_07BB_0142,
                nodes: nodes.collect(),
            });
            fabric.inner.faults_on.store(true, Ordering::SeqCst);
        }
        if !self.timed.is_empty() {
            let mut timed = self.timed.clone();
            timed.sort_by_key(|(t, _)| *t);
            let fabric = fabric.clone();
            simulation.spawn("fault-driver", move || {
                for (at, action) in timed {
                    let now = sim::now().as_nanos();
                    if at > now {
                        sim::sleep_ns(at - now);
                    }
                    match action {
                        TimedAction::Crash(id) => fabric.crash(id),
                        TimedAction::PowerLoss(id) => fabric.power_loss(id),
                        TimedAction::Recover(id) => fabric.recover(id),
                    }
                }
            });
        }
    }
}

// The protocol-level counterpart of a `FaultPlan`, for detector self-tests
// only: instead of breaking the hardware under a correct protocol, name a
// guard for the protocol layers to leave out, and check that the detector
// built to catch its absence does.
impl Fabric {
    /// **Self-test only.** Asks whoever owns the guard called `guard` to
    /// build without it. Owners ask [`crate::Node::sabotaged`] once, when
    /// they are constructed, so call this before building the deployment;
    /// production configs have no field for it.
    pub fn sabotage(&self, guard: &'static str) {
        self.inner.sabotaged.lock().push(guard);
    }
}

impl crate::Node {
    /// Whether a self-test named `guard` in [`Fabric::sabotage`] on this
    /// node's fabric.
    pub fn sabotaged(&self, guard: &str) -> bool {
        self.fabric.sabotaged.lock().contains(&guard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fabric, LatencyModel, RdmaError};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn two_nodes() -> (sim::Simulation, Fabric, crate::Node, crate::Node) {
        let simulation = sim::Simulation::new(3);
        let fabric = Fabric::new(LatencyModel::connectx4());
        let a = fabric.add_node("a");
        let b = fabric.add_node("b");
        (simulation, fabric, a, b)
    }

    #[test]
    fn timed_crash_and_recover_fire_at_exact_instants() {
        let (simulation, fabric, a, b) = two_nodes();
        let addr = b.alloc_words(1);
        FaultPlan::new(1)
            .crash_at(b.id(), Duration::from_micros(10))
            .recover_at(b.id(), Duration::from_micros(30))
            .arm(&simulation, &fabric);
        simulation.spawn("p", move || {
            let qp = a.connect(&b);
            assert!(qp.read_word(addr).is_ok());
            sim::sleep(Duration::from_micros(15));
            assert!(!b.is_alive());
            assert_eq!(qp.read_word(addr).unwrap_err(), RdmaError::RemoteFailure);
            sim::sleep(Duration::from_micros(20));
            assert!(b.is_alive());
            assert!(qp.read_word(addr).is_ok());
        });
        simulation.run().unwrap();
    }

    #[test]
    fn timed_power_loss_wipes_memory_before_recovery() {
        let (simulation, fabric, a, b) = two_nodes();
        let addr = b.alloc_words(1);
        FaultPlan::new(1)
            .power_loss_at(b.id(), Duration::from_micros(10))
            .recover_at(b.id(), Duration::from_micros(30))
            .arm(&simulation, &fabric);
        let b2 = b.clone();
        simulation.spawn("p", move || {
            let qp = a.connect(&b);
            qp.write_word(addr, 41).unwrap();
            sim::sleep(Duration::from_micros(15));
            assert!(!b2.is_alive());
            assert_eq!(b2.power_cycles(), 1);
            sim::sleep(Duration::from_micros(20));
            assert!(b2.is_alive());
            // The write from before the power loss is gone.
            assert_eq!(qp.read_word(addr).unwrap(), 0);
        });
        simulation.run().unwrap();
    }

    #[test]
    fn crash_on_nth_verb_fails_that_verb_locally() {
        let (simulation, fabric, a, b) = two_nodes();
        let addr = b.alloc_words(1);
        FaultPlan::new(1)
            .crash_on_verb(a.id(), 3)
            .arm(&simulation, &fabric);
        simulation.spawn("p", move || {
            let qp = a.connect(&b);
            assert!(qp.write_word(addr, 1).is_ok());
            assert!(qp.read_word(addr).is_ok());
            // Third verb: the node dies issuing it.
            assert_eq!(qp.write_word(addr, 2).unwrap_err(), RdmaError::LocalFailure);
            assert!(!a.is_alive());
        });
        simulation.run().unwrap();
    }

    #[test]
    fn dropped_signaled_write_errors_and_leaves_memory_untouched() {
        let (simulation, fabric, a, b) = two_nodes();
        let addr = b.alloc_words(1);
        FaultPlan::new(1)
            .drop_verb(a.id(), 1)
            .arm(&simulation, &fabric);
        let b2 = b.clone();
        simulation.spawn("p", move || {
            let qp = a.connect(&b);
            assert_eq!(
                qp.write_word(addr, 7).unwrap_err(),
                RdmaError::RemoteFailure
            );
            assert_eq!(b2.local_read_word(addr).unwrap(), 0);
            // The next attempt (verb 2) goes through.
            assert!(qp.write_word(addr, 7).is_ok());
            assert_eq!(b2.local_read_word(addr).unwrap(), 7);
        });
        simulation.run().unwrap();
    }

    #[test]
    fn dropped_unsignaled_write_is_silently_lost() {
        let (simulation, fabric, a, b) = two_nodes();
        let addr = b.alloc_words(1);
        FaultPlan::new(1)
            .drop_verb(a.id(), 1)
            .arm(&simulation, &fabric);
        let b2 = b.clone();
        simulation.spawn("p", move || {
            let qp = a.connect(&b);
            qp.post_write_word(addr, 9).unwrap(); // dropped in the fabric
            qp.post_write_word(addr.offset(0), 5).unwrap(); // lands
            sim::sleep(Duration::from_micros(100));
            assert_eq!(b2.local_read_word(addr).unwrap(), 5);
        });
        simulation.run().unwrap();
    }

    #[test]
    fn delay_verb_stalls_exactly_the_requested_extra() {
        let (simulation, fabric, a, b) = two_nodes();
        let addr = b.alloc_words(1);
        FaultPlan::new(1)
            .delay_verb(a.id(), 2, Duration::from_micros(50))
            .arm(&simulation, &fabric);
        simulation.spawn("p", move || {
            let qp = a.connect(&b);
            let t0 = sim::now().as_nanos();
            qp.write_word(addr, 1).unwrap();
            let base = sim::now().as_nanos() - t0;
            let t1 = sim::now().as_nanos();
            qp.write_word(addr, 2).unwrap();
            let delayed = sim::now().as_nanos() - t1;
            assert_eq!(delayed, base + 50_000);
        });
        simulation.run().unwrap();
    }

    #[test]
    fn slowdown_multiplies_verb_latency() {
        let (simulation, fabric, a, b) = two_nodes();
        let addr = b.alloc_words(1);
        FaultPlan::new(1)
            .slowdown(a.id(), 3)
            .arm(&simulation, &fabric);
        simulation.spawn("p", move || {
            let qp = a.connect(&b);
            let lat = LatencyModel::connectx4();
            let t0 = sim::now().as_nanos();
            qp.post_write_word(addr, 1).unwrap();
            // Posting cost is tripled for the slowed node.
            assert_eq!(sim::now().as_nanos() - t0, 3 * lat.post_ns);
        });
        simulation.run().unwrap();
    }

    #[test]
    fn pause_window_stalls_verbs_until_it_closes() {
        let (simulation, fabric, a, b) = two_nodes();
        let addr = b.alloc_words(1);
        FaultPlan::new(1)
            .pause(a.id(), Duration::from_micros(1), Duration::from_micros(200))
            .arm(&simulation, &fabric);
        simulation.spawn("p", move || {
            let qp = a.connect(&b);
            sim::sleep(Duration::from_micros(5)); // inside the window
            qp.write_word(addr, 1).unwrap();
            // The verb could only start once the window closed at 200 µs.
            assert!(sim::now().as_nanos() >= 200_000);
        });
        simulation.run().unwrap();
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        fn run(seed: u64) -> u64 {
            let simulation = sim::Simulation::new(9);
            let fabric = Fabric::new(LatencyModel::connectx4());
            let a = fabric.add_node("a");
            let b = fabric.add_node("b");
            let addr = b.alloc_words(1);
            FaultPlan::new(seed)
                .jitter(a.id(), Duration::from_micros(10))
                .arm(&simulation, &fabric);
            let total = Arc::new(AtomicU64::new(0));
            let t = total.clone();
            simulation.spawn("p", move || {
                let qp = a.connect(&b);
                for i in 0..10 {
                    qp.write_word(addr, i).unwrap();
                }
                t.store(sim::now().as_nanos(), Ordering::SeqCst);
            });
            simulation.run().unwrap();
            total.load(Ordering::SeqCst)
        }
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn unlisted_nodes_are_unaffected() {
        let (simulation, fabric, a, b) = two_nodes();
        let addr = b.alloc_words(1);
        FaultPlan::new(1)
            .slowdown(b.id(), 100)
            .arm(&simulation, &fabric);
        simulation.spawn("p", move || {
            let qp = a.connect(&b);
            let lat = LatencyModel::connectx4();
            let t0 = sim::now().as_nanos();
            qp.post_write_word(addr, 1).unwrap();
            assert_eq!(sim::now().as_nanos() - t0, lat.post_ns);
        });
        simulation.run().unwrap();
    }
}
