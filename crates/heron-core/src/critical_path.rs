//! Critical-path analysis over a virtual-time trace (see [`sim::trace`]).
//!
//! A request's trace forms a DAG: the client's `client.request` root span,
//! the ordering layer's `mcast.*` instants, and on every delivering replica
//! an `exec.request` span with `exec.phase2` / `exec.execute` /
//! `exec.phase4` children — all stitched together by the multicast message
//! uid (the events' `corr` key). This module walks that DAG two ways:
//!
//! * [`attribute`] averages the per-replica stage durations, reproducing
//!   the paper's Fig. 6 ordering/coordination/execution breakdown purely
//!   from spans — the legacy [`crate::Metrics::mean_breakdown`] counters
//!   become a cross-check for it (they must agree, since the phase spans
//!   open and close at the instants the counters sample).
//! * [`critical_paths`] explains individual requests: for each traced
//!   request it attributes the client-observed latency to ordering,
//!   the executor phases and the reply/other remainder, sorted slowest
//!   first — `trace_explain`'s top-k view.

use sim::trace::{EventKind, TraceEvent};
use std::collections::{BTreeMap, HashMap};

/// A Begin/End pair reassembled from the event stream.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name (e.g. `"exec.request"`).
    pub name: &'static str,
    /// Track (process) it ran on.
    pub track: u32,
    /// Span id.
    pub id: u64,
    /// Enclosing span id (0 = top level).
    pub parent: u64,
    /// Begin time, virtual ns.
    pub t0: u64,
    /// End time, virtual ns (= `t0` for spans never closed).
    pub t1: u64,
    /// Correlation key: the max of the begin and end events' `corr`
    /// (`client.request` learns its uid only at multicast return).
    pub corr: u64,
    /// The begin event's args.
    pub args: Vec<(&'static str, u64)>,
}

impl Span {
    /// Span duration in virtual ns.
    pub fn dur_ns(&self) -> u64 {
        self.t1.saturating_sub(self.t0)
    }

    /// Looks up a begin-arg by name.
    pub fn arg(&self, name: &str) -> Option<u64> {
        self.args.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// Pairs Begin/End events into [`Span`]s (synchronous and flight spans
/// alike). Spans missing their End keep `t1 = t0`.
pub fn spans(events: &[TraceEvent]) -> Vec<Span> {
    let mut out: Vec<Span> = Vec::new();
    let mut open: HashMap<u64, usize> = HashMap::new();
    for e in events {
        match e.kind {
            EventKind::Begin | EventKind::FlightBegin => {
                open.insert(e.span, out.len());
                out.push(Span {
                    name: e.name,
                    track: e.track,
                    id: e.span,
                    parent: e.parent,
                    t0: e.t_ns,
                    t1: e.t_ns,
                    corr: e.corr,
                    args: e.args.to_vec(),
                });
            }
            EventKind::End | EventKind::FlightEnd => {
                if let Some(&i) = open.get(&e.span) {
                    out[i].t1 = out[i].t1.max(e.t_ns);
                    out[i].corr = out[i].corr.max(e.corr);
                }
            }
            EventKind::Instant => {}
        }
    }
    out
}

/// Mean per-stage attribution over the replicas' `exec.request` spans —
/// the trace-derived Fig. 6 breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Attribution {
    /// Samples averaged (replied `exec.request` spans).
    pub n: u64,
    /// Mean multicast-submit → delivery, ns.
    pub ordering_ns: u64,
    /// Mean delivery → executor-pickup dispatch wait (P-SMR pool), ns.
    /// Zero on the width-1 inline lane. Carried as an `exec.request` arg,
    /// not a child span: dispatch waits of concurrent commands overlap
    /// across workers and would not nest as spans.
    pub parallel_ns: u64,
    /// Mean Phase 2 + Phase 4 barrier time, ns.
    pub coordination_ns: u64,
    /// Mean execution (read + compute + write), ns.
    pub execution_ns: u64,
}

/// Computes the mean stage attribution from a trace, over `exec.request`
/// spans whose replica actually replied (an `exec.reply` instant exists on
/// the same track with the same correlation key — exactly the condition
/// under which the legacy breakdown counter sampled). `partitions` filters
/// by the request's involvement count, like
/// [`crate::Metrics::mean_breakdown`].
pub fn attribute(events: &[TraceEvent], partitions: Option<u16>) -> Attribution {
    attribute_where(events, |p| {
        partitions.map(|f| p == u64::from(f)).unwrap_or(true)
    })
}

/// [`attribute`] with an arbitrary filter over the request's partition
/// count — e.g. `|p| p > 1` for the multi-partition aggregate that
/// [`crate::Metrics::mean_breakdown`]-style summaries report.
pub fn attribute_where(events: &[TraceEvent], keep: impl Fn(u64) -> bool) -> Attribution {
    let all = spans(events);
    let replied: std::collections::HashSet<(u32, u64)> = events
        .iter()
        .filter(|e| e.kind == EventKind::Instant && e.name == "exec.reply")
        .map(|e| (e.track, e.corr))
        .collect();
    // Child durations by (parent span id): phase2+phase4 vs execute.
    let mut coord: HashMap<u64, u64> = HashMap::new();
    let mut exec: HashMap<u64, u64> = HashMap::new();
    for s in &all {
        match s.name {
            "exec.phase2" | "exec.phase4" => *coord.entry(s.parent).or_default() += s.dur_ns(),
            "exec.execute" => *exec.entry(s.parent).or_default() += s.dur_ns(),
            _ => {}
        }
    }
    let mut a = Attribution::default();
    for s in all.iter().filter(|s| s.name == "exec.request") {
        if !replied.contains(&(s.track, s.corr)) {
            continue;
        }
        if !keep(s.arg("partitions").unwrap_or(0)) {
            continue;
        }
        a.n += 1;
        a.ordering_ns += s.arg("ordering_ns").unwrap_or(0);
        a.parallel_ns += s.arg("parallel_ns").unwrap_or(0);
        a.coordination_ns += coord.get(&s.id).copied().unwrap_or(0);
        a.execution_ns += exec.get(&s.id).copied().unwrap_or(0);
    }
    a.ordering_ns = a.ordering_ns.checked_div(a.n).unwrap_or(0);
    a.parallel_ns = a.parallel_ns.checked_div(a.n).unwrap_or(0);
    a.coordination_ns = a.coordination_ns.checked_div(a.n).unwrap_or(0);
    a.execution_ns = a.execution_ns.checked_div(a.n).unwrap_or(0);
    a
}

/// One latency segment of a request's critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathSegment {
    /// Stage label.
    pub name: &'static str,
    /// Virtual ns attributed to the stage.
    pub ns: u64,
}

/// A single request's client-observed latency, decomposed along its
/// critical path.
#[derive(Debug, Clone)]
pub struct RequestPath {
    /// Correlation key (multicast uid).
    pub corr: u64,
    /// Issuing client's track.
    pub client_track: u32,
    /// Partitions the request involved.
    pub partitions: u64,
    /// Span id of the home partition's `exec.request` span the path
    /// follows (0 when the request was untraced) — the anchor the blame
    /// analyzer hangs nested wait spans off.
    pub home_span: u64,
    /// End-to-end latency (the `client.request` span), ns.
    pub total_ns: u64,
    /// Stage segments summing to `total_ns`.
    pub segments: Vec<PathSegment>,
}

/// Decomposes every traced request's end-to-end latency, slowest first.
///
/// The client waits for one reply per involved partition; the path shown
/// follows the *home* (lowest) partition's earliest-replying replica —
/// the replica whose reply the client-perceived latency actually tracks —
/// through ordering, the Phase 2 barrier, execution and the Phase 4
/// barrier, with everything else (reply flight, client polling, skew
/// against slower partitions) as the `reply+other` remainder.
pub fn critical_paths(events: &[TraceEvent]) -> Vec<RequestPath> {
    let all = spans(events);
    // Earliest exec.reply per (corr, track).
    let mut reply_at: HashMap<(u64, u32), u64> = HashMap::new();
    for e in events {
        if e.kind == EventKind::Instant && e.name == "exec.reply" {
            let t = reply_at.entry((e.corr, e.track)).or_insert(u64::MAX);
            *t = (*t).min(e.t_ns);
        }
    }
    let mut coord: HashMap<u64, (u64, u64)> = HashMap::new(); // parent → (p2, p4)
    let mut exec: HashMap<u64, u64> = HashMap::new();
    for s in &all {
        match s.name {
            "exec.phase2" => coord.entry(s.parent).or_default().0 += s.dur_ns(),
            "exec.phase4" => coord.entry(s.parent).or_default().1 += s.dur_ns(),
            "exec.execute" => *exec.entry(s.parent).or_default() += s.dur_ns(),
            _ => {}
        }
    }
    // Per corr: the replied exec.request span at the lowest involved
    // partition whose reply came first.
    let mut home: BTreeMap<u64, &Span> = BTreeMap::new();
    for s in all.iter().filter(|s| s.name == "exec.request") {
        if s.corr == 0 || !reply_at.contains_key(&(s.corr, s.track)) {
            continue;
        }
        let better = |cur: &&Span| -> bool {
            let (pa, pb) = (s.arg("partition"), cur.arg("partition"));
            if pa != pb {
                return pa < pb;
            }
            reply_at[&(s.corr, s.track)] < reply_at[&(cur.corr, cur.track)]
        };
        match home.get(&s.corr) {
            Some(cur) if !better(cur) => {}
            _ => {
                home.insert(s.corr, s);
            }
        }
    }
    let mut out: Vec<RequestPath> = Vec::new();
    for root in all.iter().filter(|s| s.name == "client.request") {
        if root.corr == 0 {
            continue;
        }
        let total = root.dur_ns();
        let mut segments = Vec::new();
        if let Some(h) = home.get(&root.corr) {
            let (p2, p4) = coord.get(&h.id).copied().unwrap_or((0, 0));
            let e = exec.get(&h.id).copied().unwrap_or(0);
            let ordering = h.arg("ordering_ns").unwrap_or(0);
            let parallel = h.arg("parallel_ns").unwrap_or(0);
            let accounted = ordering + parallel + p2 + e + p4;
            segments.push(PathSegment {
                name: "ordering",
                ns: ordering,
            });
            if parallel > 0 {
                segments.push(PathSegment {
                    name: "execute.parallel",
                    ns: parallel,
                });
            }
            if p2 + p4 > 0 {
                segments.push(PathSegment {
                    name: "phase2",
                    ns: p2,
                });
            }
            segments.push(PathSegment {
                name: "execute",
                ns: e,
            });
            if p2 + p4 > 0 {
                segments.push(PathSegment {
                    name: "phase4",
                    ns: p4,
                });
            }
            segments.push(PathSegment {
                name: "reply+other",
                ns: total.saturating_sub(accounted),
            });
        } else {
            segments.push(PathSegment {
                name: "untraced",
                ns: total,
            });
        }
        out.push(RequestPath {
            corr: root.corr,
            client_track: root.track,
            partitions: home
                .get(&root.corr)
                .and_then(|h| h.arg("partitions"))
                .unwrap_or(0),
            home_span: home.get(&root.corr).map(|h| h.id).unwrap_or(0),
            total_ns: total,
            segments,
        });
    }
    out.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.corr.cmp(&b.corr)));
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// One positional row of a hand-built trace table (shared with the
    /// blame analyzer's tests).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn ev(
        kind: EventKind,
        t_ns: u64,
        track: u32,
        span: u64,
        parent: u64,
        name: &'static str,
        corr: u64,
        args: &[(&'static str, u64)],
    ) -> TraceEvent {
        TraceEvent {
            t_ns,
            track,
            span,
            parent,
            kind,
            name,
            corr,
            args: sim::trace::SpanArgs::from_slice(args),
        }
    }

    /// A hand-built two-partition request: client latency 100, ordering
    /// 30, phase2 10, execute 25, phase4 15 at the home partition.
    fn sample_events() -> Vec<TraceEvent> {
        use EventKind::{Begin, End, Instant};
        vec![
            // Client root span: corr attached at end.
            ev(Begin, 0, 9, 1, 0, "client.request", 0, &[("client", 7)]),
            // Home partition (0), track 2.
            ev(
                Begin,
                30,
                2,
                2,
                0,
                "exec.request",
                5,
                &[("partition", 0), ("partitions", 2), ("ordering_ns", 30)],
            ),
            ev(Begin, 30, 2, 3, 2, "exec.phase2", 5, &[]),
            ev(End, 40, 2, 3, 2, "exec.phase2", 5, &[]),
            ev(Begin, 40, 2, 4, 2, "exec.execute", 5, &[]),
            ev(End, 65, 2, 4, 2, "exec.execute", 5, &[]),
            ev(Begin, 65, 2, 5, 2, "exec.phase4", 5, &[]),
            ev(End, 80, 2, 5, 2, "exec.phase4", 5, &[]),
            ev(Instant, 81, 2, 0, 2, "exec.reply", 5, &[]),
            ev(End, 82, 2, 2, 0, "exec.request", 5, &[]),
            // Other partition (1), track 4: slower, still replies.
            ev(
                Begin,
                35,
                4,
                6,
                0,
                "exec.request",
                5,
                &[("partition", 1), ("partitions", 2), ("ordering_ns", 35)],
            ),
            ev(Begin, 35, 4, 7, 6, "exec.phase2", 5, &[]),
            ev(End, 50, 4, 7, 6, "exec.phase2", 5, &[]),
            ev(Begin, 50, 4, 8, 6, "exec.execute", 5, &[]),
            ev(End, 70, 4, 8, 6, "exec.execute", 5, &[]),
            ev(Begin, 70, 4, 9, 6, "exec.phase4", 5, &[]),
            ev(End, 90, 4, 9, 6, "exec.phase4", 5, &[]),
            ev(Instant, 91, 4, 0, 6, "exec.reply", 5, &[]),
            ev(End, 92, 4, 6, 0, "exec.request", 5, &[]),
            // Client sees the reply at 100; corr learned by then.
            ev(End, 100, 9, 1, 0, "client.request", 5, &[]),
        ]
    }

    #[test]
    fn spans_pair_begin_and_end() {
        let s = spans(&sample_events());
        let root = s.iter().find(|s| s.name == "client.request").unwrap();
        assert_eq!(root.dur_ns(), 100);
        assert_eq!(root.corr, 5, "corr taken from the end event");
        let p2 = s
            .iter()
            .find(|s| s.name == "exec.phase2" && s.track == 2)
            .unwrap();
        assert_eq!((p2.parent, p2.dur_ns()), (2, 10));
    }

    #[test]
    fn attribution_averages_replied_requests() {
        let a = attribute(&sample_events(), Some(2));
        assert_eq!(a.n, 2);
        assert_eq!(a.ordering_ns, (30 + 35) / 2);
        assert_eq!(a.coordination_ns, (10 + 15 + 15 + 20) / 2);
        assert_eq!(a.execution_ns, (25 + 20) / 2);
        // No single-partition samples in this trace.
        assert_eq!(attribute(&sample_events(), Some(1)).n, 0);
    }

    #[test]
    fn unreplied_requests_are_excluded() {
        let mut events = sample_events();
        events.retain(|e| !(e.name == "exec.reply" && e.track == 4));
        let a = attribute(&events, None);
        assert_eq!(a.n, 1, "track 4 never replied (state transfer path)");
        assert_eq!(a.ordering_ns, 30);
    }

    #[test]
    fn critical_path_follows_home_partition() {
        let paths = critical_paths(&sample_events());
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!((p.corr, p.total_ns, p.partitions), (5, 100, 2));
        let by_name: Vec<(&str, u64)> = p.segments.iter().map(|s| (s.name, s.ns)).collect();
        assert_eq!(
            by_name,
            [
                ("ordering", 30),
                ("phase2", 10),
                ("execute", 25),
                ("phase4", 15),
                ("reply+other", 20)
            ]
        );
        let sum: u64 = p.segments.iter().map(|s| s.ns).sum();
        assert_eq!(sum, p.total_ns, "segments account for the whole latency");
    }

    /// With an executor pool the `exec.request` span carries a
    /// `parallel_ns` arg (dispatch wait); it must surface as its own
    /// segment and the decomposition must still sum exactly.
    #[test]
    fn parallel_wait_is_attributed_and_sums_exactly() {
        use EventKind::{Begin, End, Instant};
        let events = vec![
            ev(Begin, 0, 9, 1, 0, "client.request", 0, &[]),
            ev(
                Begin,
                42,
                2,
                2,
                0,
                "exec.request",
                5,
                &[
                    ("partition", 0),
                    ("partitions", 1),
                    ("ordering_ns", 30),
                    ("parallel_ns", 12),
                ],
            ),
            ev(Begin, 42, 2, 3, 2, "exec.execute", 5, &[]),
            ev(End, 67, 2, 3, 2, "exec.execute", 5, &[]),
            ev(Instant, 68, 2, 0, 2, "exec.reply", 5, &[]),
            ev(End, 69, 2, 2, 0, "exec.request", 5, &[]),
            ev(End, 100, 9, 1, 0, "client.request", 5, &[]),
        ];
        let a = attribute(&events, Some(1));
        assert_eq!((a.n, a.ordering_ns, a.parallel_ns), (1, 30, 12));
        let paths = critical_paths(&events);
        let p = &paths[0];
        let by_name: Vec<(&str, u64)> = p.segments.iter().map(|s| (s.name, s.ns)).collect();
        assert_eq!(
            by_name,
            [
                ("ordering", 30),
                ("execute.parallel", 12),
                ("execute", 25),
                ("reply+other", 33)
            ]
        );
        let sum: u64 = p.segments.iter().map(|s| s.ns).sum();
        assert_eq!(sum, p.total_ns);
    }
}
