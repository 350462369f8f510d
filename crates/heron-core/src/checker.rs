//! SMR consistency checker: records complete client histories and verifies
//! replica state and linearizability after a (possibly fault-injected) run.
//!
//! The checker is the oracle of the chaos test suite. It hooks into a
//! deployment at exactly two points — a [`CheckedClient`] wrapper that
//! timestamps every invocation/response, and the read-only diagnostics of
//! [`HeronCluster`] — so the protocol code paths under test carry **no**
//! test-only logic.
//!
//! Three independent checks:
//!
//! * **(a) agreement** — per partition, every replica executed in
//!   timestamp order: its whole executed-request trace at width 1, every
//!   two conflicting commands at width > 1 (a pool runs independent
//!   commands out of order, and shared holders of a key side by side);
//!   and every request *settled*
//!   by a majority (per the replicas' `completed_req` watermarks) is covered
//!   — executed or state-transferred — by at least a majority of replicas;
//! * **(b) store order** — per replica, the store's write-order monitor
//!   caught no write stamped below its object's newest
//!   version; across replicas, equal-timestamp versions are
//!   byte-identical and every replica whose `completed_req` reaches a
//!   write's timestamp holds exactly that version (commit-order
//!   consistency of the dual-versioning scheme, paper §III-A);
//! * **(c) linearizability** — the recorded client history linearizes
//!   against a user-supplied sequential model, using the Wing & Gong
//!   exhaustive search over the (small, closed-loop) concurrent window.
//!
//! Every failure is reported as a [`Violation`] carrying the simulation
//! seed and, when one can be pinned, the offending operation — enough to
//! replay the exact schedule.

// Violations are rich by design (they embed the offending operation for
// replay) and only exist on the cold failure path.
#![allow(clippy::result_large_err)]

use crate::client::HeronClient;
use crate::cluster::HeronCluster;
use crate::types::{ObjectId, PartitionId};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// One client operation as recorded by a [`CheckedClient`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord {
    /// Issuing client id.
    pub client: u64,
    /// The client's per-connection sequence number.
    pub seq: u64,
    /// The raw application request.
    pub request: Vec<u8>,
    /// Virtual time of invocation (nanoseconds).
    pub invoked_ns: u64,
    /// Virtual time the response was observed; `None` if the run ended
    /// with the operation still in flight.
    pub returned_ns: Option<u64>,
    /// The observed response; `None` while in flight.
    pub response: Option<Bytes>,
}

impl OpRecord {
    /// Whether the operation completed before the run ended.
    pub fn completed(&self) -> bool {
        self.returned_ns.is_some()
    }
}

/// A consistency violation, carrying everything needed to reproduce it:
/// the simulation seed and (when one can be pinned) the offending
/// operation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Seed of the simulation run that produced the violation.
    pub seed: u64,
    /// Which check failed: `"agreement"`, `"store"`, or
    /// `"linearizability"`.
    pub check: &'static str,
    /// Human-readable description of the failed assertion.
    pub detail: String,
    /// The operation the violation pins, if any.
    pub op: Option<OpRecord>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} violation (seed {}): {}",
            self.check, self.seed, self.detail
        )?;
        if let Some(op) = &self.op {
            write!(
                f,
                "; offending operation: client {} seq {} request {:02x?} response {:?}",
                op.client, op.seq, op.request, op.response
            )?;
        }
        Ok(())
    }
}

impl std::error::Error for Violation {}

/// A sequential model of the replicated application, used by the
/// linearizability check: `apply` must compute the response the *correct*
/// sequential service would give.
pub trait SequentialSpec {
    /// Full application state.
    type State: Clone;
    /// The initial (bootstrap) state.
    fn initial(&self) -> Self::State;
    /// Applies one request, mutating the state and returning the response.
    fn apply(&self, state: &mut Self::State, request: &[u8]) -> Bytes;
}

/// Records client histories and checks them — one per simulation run.
///
/// Cloning shares the underlying history, so a `Checker` can be handed to
/// many client processes.
#[derive(Clone)]
pub struct Checker {
    seed: u64,
    history: Arc<Mutex<Vec<OpRecord>>>,
}

impl fmt::Debug for Checker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Checker")
            .field("seed", &self.seed)
            .field("ops", &self.history.lock().len())
            .finish()
    }
}

impl Checker {
    /// Creates a checker for a run with the given simulation seed (used
    /// only for reporting).
    pub fn new(seed: u64) -> Self {
        Checker {
            seed,
            history: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// The seed this checker reports violations against.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Attaches a new recording client to `cluster`.
    pub fn client(&self, cluster: &HeronCluster, name: impl Into<String>) -> CheckedClient {
        CheckedClient {
            inner: cluster.client(name),
            history: Arc::clone(&self.history),
        }
    }

    /// A snapshot of the recorded history, in invocation order.
    pub fn history(&self) -> Vec<OpRecord> {
        self.history.lock().clone()
    }

    /// Runs every check: replica-state consistency, then history
    /// linearizability.
    pub fn check<S: SequentialSpec>(
        &self,
        cluster: &HeronCluster,
        spec: &S,
    ) -> Result<(), Violation> {
        self.check_replicas(cluster)?;
        self.check_linearizable(spec)
    }

    /// Checks (a) agreement and (b) store/commit-order consistency against
    /// the final replica states of `cluster`.
    pub fn check_replicas(&self, cluster: &HeronCluster) -> Result<(), Violation> {
        let cfg = cluster.config();
        let n = cfg.replicas_per_partition;
        let majority = cfg.majority();
        for p in 0..cfg.partitions {
            let p = PartitionId(p as u16);
            let completed: Vec<u64> = (0..n).map(|i| cluster.completed_req(p, i)).collect();
            // The settled bound: the majority-th largest completed_req. Every
            // request at or below it finished its write phase (directly or by
            // state transfer) at a majority of replicas.
            let mut sorted = completed.clone();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            let settled = sorted[majority - 1];

            let traces: Vec<Vec<(u64, char)>> = (0..n).map(|i| cluster.exec_trace(p, i)).collect();
            // (a1) every replica executes in timestamp order (the delivery
            // order of the atomic multicast). A pool starts a command past
            // earlier independent ones, so there the order is owed only
            // between conflicting commands (one holds exclusive a key the
            // other holds either way), as the replica's dispatch monitor
            // saw them start; the inline lane owes it between any two.
            for (i, tr) in traces.iter().enumerate() {
                let out_of_order = if cfg.executor_width > 1 {
                    cluster.key_order_violation(p, i).map(|(key, ts, newest)| {
                        format!("executed ts {ts} after ts {newest}, conflicting on key {key}")
                    })
                } else {
                    let mut executed = tr.iter().filter(|&&(_, ev)| ev == 'e').map(|&(ts, _)| ts);
                    let mut last = 0u64;
                    executed.find_map(|ts| {
                        let previous = std::mem::replace(&mut last, ts);
                        (ts <= previous)
                            .then(|| format!("executed ts {ts} out of order (previous {previous})"))
                    })
                };
                if let Some(detail) = out_of_order {
                    return Err(self.violation("agreement", format!("{p} replica {i}: {detail}")));
                }
            }
            // (a2) every settled request is covered by a majority: a replica
            // covers ts if it executed it, or a state transfer carried it past
            // it ('t' entries record the transfer bound).
            let transfer_bound: Vec<u64> = traces
                .iter()
                .map(|tr| {
                    tr.iter()
                        .filter(|&&(_, e)| e == 't')
                        .map(|&(ts, _)| ts)
                        .max()
                        .unwrap_or(0)
                })
                .collect();
            // Only *surviving* executions count as evidence that the
            // canonical history contains a timestamp: an 'e' that is
            // followed (later in the same replica's trace) by a state
            // transfer whose bound covers it was superseded — a crashed
            // minority replica may have executed a timestamp that never
            // settled and was re-sequenced after failover, and the transfer
            // overwrote its effects.
            let executed: BTreeSet<u64> = traces
                .iter()
                .flat_map(|tr| {
                    let mut surviving = Vec::new();
                    let mut later_bound = 0u64;
                    for &(ts, e) in tr.iter().rev() {
                        match e {
                            't' => later_bound = later_bound.max(ts),
                            'e' if ts > later_bound => surviving.push(ts),
                            _ => {}
                        }
                    }
                    surviving
                })
                .collect();
            for &ts in executed.iter().take_while(|&&ts| ts <= settled) {
                let cover = (0..n)
                    .filter(|&i| {
                        transfer_bound[i] >= ts
                            || traces[i].iter().any(|&(t, e)| t == ts && e == 'e')
                    })
                    .count();
                if cover < majority {
                    return Err(self.violation(
                        "agreement",
                        format!(
                            "{p}: settled request ts {ts} (bound {settled}) covered by only \
                             {cover}/{n} replicas, need {majority}"
                        ),
                    ));
                }
            }

            // (b1) per-replica: writes to every object landed in timestamp
            // order, as the store's monitor saw them land.
            for i in 0..n {
                if let Some((oid, ts, newest)) = cluster.store_order_violation(p, i) {
                    return Err(self.violation(
                        "store",
                        format!(
                            "{p} replica {i}: {oid} written at ts {ts} over its newer version \
                             ({newest})"
                        ),
                    ));
                }
            }

            // (b2) cross-replica: replicas that completed a write hold it,
            // byte-identical; equal timestamps always mean equal bytes.
            let mut oids: BTreeSet<ObjectId> = BTreeSet::new();
            for i in 0..n {
                oids.extend(cluster.object_ids(p, i));
            }
            for oid in oids {
                let vers: Vec<Option<(u64, Bytes)>> =
                    (0..n).map(|i| cluster.peek_versioned(p, i, oid)).collect();
                let newest = vers.iter().flatten().map(|&(t, _)| t).max().unwrap_or(0);
                let mut reference: Option<(usize, &Bytes)> = None;
                for i in 0..n {
                    if completed[i] < newest {
                        continue; // legitimately lagging
                    }
                    match &vers[i] {
                        None => {
                            return Err(self.violation(
                                "store",
                                format!(
                                    "{p} replica {i}: completed_req {} but does not host {oid} \
                                     (written at ts {newest})",
                                    completed[i]
                                ),
                            ))
                        }
                        Some((t, v)) => {
                            if *t != newest {
                                return Err(self.violation(
                                    "store",
                                    format!(
                                        "{p} replica {i}: completed_req {} but holds {oid} at ts \
                                         {t}, expected {newest}",
                                        completed[i]
                                    ),
                                ));
                            }
                            match reference {
                                None => reference = Some((i, v)),
                                Some((j, w)) if w != v => {
                                    return Err(self.violation(
                                        "store",
                                        format!(
                                            "{p}: divergent value for {oid} at ts {newest} \
                                             between replicas {j} and {i}"
                                        ),
                                    ))
                                }
                                Some(_) => {}
                            }
                        }
                    }
                }
                for i in 0..n {
                    for j in (i + 1)..n {
                        if let (Some((ti, vi)), Some((tj, vj))) = (&vers[i], &vers[j]) {
                            if ti == tj && vi != vj {
                                return Err(self.violation(
                                    "store",
                                    format!(
                                        "{p}: replicas {i} and {j} hold different bytes for \
                                         {oid} at the same ts {ti}"
                                    ),
                                ));
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Checks (c): the recorded history linearizes against `spec`.
    pub fn check_linearizable<S: SequentialSpec>(&self, spec: &S) -> Result<(), Violation> {
        check_history(&self.history(), spec, self.seed)
    }

    fn violation(&self, check: &'static str, detail: String) -> Violation {
        Violation {
            seed: self.seed,
            check,
            detail,
            op: None,
        }
    }
}

/// A [`HeronClient`] that records every operation into its checker's
/// history. Same blocking closed-loop semantics as the wrapped client.
pub struct CheckedClient {
    inner: HeronClient,
    history: Arc<Mutex<Vec<OpRecord>>>,
}

impl fmt::Debug for CheckedClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CheckedClient")
            .field("inner", &self.inner)
            .finish()
    }
}

impl CheckedClient {
    /// The wrapped client's id.
    pub fn id(&self) -> u64 {
        self.inner.id()
    }

    /// Executes a request, recording invocation and response times. See
    /// [`HeronClient::execute`].
    pub fn execute(&mut self, request: &[u8]) -> Bytes {
        self.run(request, None)
    }

    /// Executes with an explicit destination set. See
    /// [`HeronClient::execute_on`].
    pub fn execute_on(&mut self, request: &[u8], dests: &[PartitionId]) -> Bytes {
        self.run(request, Some(dests))
    }

    fn run(&mut self, request: &[u8], dests: Option<&[PartitionId]>) -> Bytes {
        let idx = {
            let mut h = self.history.lock();
            h.push(OpRecord {
                client: self.inner.id(),
                seq: self.inner.seq() + 1,
                request: request.to_vec(),
                invoked_ns: sim::now().as_nanos(),
                returned_ns: None,
                response: None,
            });
            h.len() - 1
        };
        let resp = match dests {
            Some(d) => self.inner.execute_on(request, d),
            None => self.inner.execute(request),
        };
        let mut h = self.history.lock();
        h[idx].returned_ns = Some(sim::now().as_nanos());
        h[idx].response = Some(resp.clone());
        resp
    }
}

/// Checks an explicit history for linearizability against `spec` — the
/// Wing & Gong search. Exposed separately so tests can corrupt a recorded
/// history and prove the check fires.
///
/// Operations still in flight when the run ended (`returned_ns == None`)
/// may linearize at any point or not at all.
pub fn check_history<S: SequentialSpec>(
    history: &[OpRecord],
    spec: &S,
    seed: u64,
) -> Result<(), Violation> {
    let mut ops: Vec<OpRecord> = history.to_vec();
    ops.sort_by_key(|o| (o.invoked_ns, o.client, o.seq));
    let completed_total = ops.iter().filter(|o| o.completed()).count();
    let mut taken = vec![false; ops.len()];
    let mut search = Search {
        ops: &ops,
        spec,
        steps: 0,
        budget: 2_000_000,
        exhausted: false,
    };
    let init = spec.initial();
    if search.dfs(&mut taken, &init, completed_total) {
        return Ok(());
    }
    if search.exhausted {
        return Err(Violation {
            seed,
            check: "linearizability",
            detail: format!(
                "search budget exhausted after {} steps over {} operations — window too wide \
                 to decide",
                search.steps,
                ops.len()
            ),
            op: first_divergence(&ops, spec),
        });
    }
    // Pin a culprit for the report: replay completed operations in return
    // order and flag the first response the sequential model cannot
    // produce. (Heuristic — with closed-loop clients the replay order is a
    // valid linearization candidate, so the first divergence is almost
    // always the corrupted/violating operation.)
    let culprit = first_divergence(&ops, spec);
    Err(Violation {
        seed,
        check: "linearizability",
        detail: format!(
            "no linearization of {} operations ({} completed) exists",
            ops.len(),
            completed_total
        ),
        op: culprit,
    })
}

struct Search<'a, S: SequentialSpec> {
    ops: &'a [OpRecord],
    spec: &'a S,
    steps: usize,
    budget: usize,
    exhausted: bool,
}

impl<S: SequentialSpec> Search<'_, S> {
    /// Extends the linearization by one operation; `completed_left` counts
    /// completed operations not yet placed. Pending operations are optional:
    /// success requires only that every *completed* operation is placed.
    fn dfs(&mut self, taken: &mut [bool], state: &S::State, completed_left: usize) -> bool {
        if completed_left == 0 {
            return true;
        }
        if self.steps >= self.budget {
            self.exhausted = true;
            return false;
        }
        self.steps += 1;
        // An operation can go next only if it was invoked *strictly* before
        // every unplaced completed operation returned (Wing & Gong
        // minimality). Strict: responses take nonzero virtual time to reach
        // the client, so an operation invoked at the very instant another
        // returned cannot have taken effect first — and closed-loop clients
        // produce exactly that equality between consecutive operations, which
        // must not widen the search window.
        let min_ret = self
            .ops
            .iter()
            .zip(taken.iter())
            .filter(|(o, &t)| !t && o.completed())
            .map(|(o, _)| o.returned_ns.expect("completed"))
            .min()
            .expect("completed_left > 0");
        for i in 0..self.ops.len() {
            if taken[i] || self.ops[i].invoked_ns >= min_ret {
                continue;
            }
            let op = &self.ops[i];
            let mut st = state.clone();
            let resp = self.spec.apply(&mut st, &op.request);
            if let Some(expected) = &op.response {
                if *expected != resp {
                    continue;
                }
            }
            taken[i] = true;
            let left = completed_left - usize::from(op.completed());
            if self.dfs(taken, &st, left) {
                return true;
            }
            taken[i] = false;
            if self.exhausted {
                return false;
            }
        }
        false
    }
}

fn first_divergence<S: SequentialSpec>(ops: &[OpRecord], spec: &S) -> Option<OpRecord> {
    let mut done: Vec<&OpRecord> = ops.iter().filter(|o| o.completed()).collect();
    done.sort_by_key(|o| {
        (
            o.returned_ns.expect("completed"),
            o.invoked_ns,
            o.client,
            o.seq,
        )
    });
    let mut st = spec.initial();
    for op in done {
        let resp = spec.apply(&mut st, &op.request);
        if op.response.as_ref() != Some(&resp) {
            return Some(op.clone());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A single register: request `[1, v]` writes v and returns the old
    /// value; `[2]` reads.
    struct Register;

    impl SequentialSpec for Register {
        type State = u8;
        fn initial(&self) -> u8 {
            0
        }
        fn apply(&self, state: &mut u8, request: &[u8]) -> Bytes {
            match request[0] {
                1 => {
                    let old = *state;
                    *state = request[1];
                    Bytes::copy_from_slice(&[old])
                }
                _ => Bytes::copy_from_slice(&[*state]),
            }
        }
    }

    fn op(
        client: u64,
        seq: u64,
        request: &[u8],
        invoked: u64,
        returned: u64,
        response: &[u8],
    ) -> OpRecord {
        OpRecord {
            client,
            seq,
            request: request.to_vec(),
            invoked_ns: invoked,
            returned_ns: Some(returned),
            response: Some(Bytes::copy_from_slice(response)),
        }
    }

    #[test]
    fn sequential_history_linearizes() {
        let h = vec![
            op(1, 1, &[1, 7], 0, 10, &[0]),
            op(1, 2, &[2], 20, 30, &[7]),
            op(2, 1, &[1, 9], 40, 50, &[7]),
            op(2, 2, &[2], 60, 70, &[9]),
        ];
        check_history(&h, &Register, 1).unwrap();
    }

    #[test]
    fn concurrent_overlap_linearizes_in_either_order() {
        // Two overlapping writes; a later read sees one of them — the
        // order is decided by the read, not real time.
        let h = vec![
            op(1, 1, &[1, 5], 0, 100, &[0]),
            op(2, 1, &[1, 6], 0, 100, &[5]),
            op(1, 2, &[2], 200, 210, &[6]),
        ];
        check_history(&h, &Register, 2).unwrap();
    }

    #[test]
    fn stale_read_is_rejected_and_pins_the_operation() {
        // The read strictly follows the write yet returns the old value.
        let h = vec![op(1, 1, &[1, 7], 0, 10, &[0]), op(2, 1, &[2], 20, 30, &[0])];
        let v = check_history(&h, &Register, 42).unwrap_err();
        assert_eq!(v.check, "linearizability");
        assert_eq!(v.seed, 42);
        let msg = v.to_string();
        let culprit = v.op.expect("culprit pinned");
        assert_eq!((culprit.client, culprit.seq), (2, 1));
        assert!(msg.contains("seed 42"), "{msg}");
        assert!(msg.contains("client 2"), "{msg}");
    }

    #[test]
    fn pending_operation_may_take_effect_or_not() {
        // A write that never returned may explain a read...
        let pending = OpRecord {
            client: 1,
            seq: 1,
            request: vec![1, 3],
            invoked_ns: 0,
            returned_ns: None,
            response: None,
        };
        let h = vec![pending.clone(), op(2, 1, &[2], 50, 60, &[3])];
        check_history(&h, &Register, 3).unwrap();
        // ...and equally may have had no effect.
        let h = vec![pending, op(2, 1, &[2], 50, 60, &[0])];
        check_history(&h, &Register, 3).unwrap();
    }

    #[test]
    fn real_time_order_is_enforced() {
        // w(5) completes before w(6) starts; a read after both must not
        // see 5.
        let h = vec![
            op(1, 1, &[1, 5], 0, 10, &[0]),
            op(1, 2, &[1, 6], 20, 30, &[5]),
            op(2, 1, &[2], 40, 50, &[5]),
        ];
        let v = check_history(&h, &Register, 4).unwrap_err();
        assert_eq!(v.check, "linearizability");
    }
}
