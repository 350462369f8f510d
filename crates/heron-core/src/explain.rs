//! Where one request's time went: per-request latency paths over a
//! virtual-time trace (see [`sim::trace`]).
//!
//! A request's trace forms a DAG: the client's `client.request` root span,
//! the ordering layer's `mcast.*` instants, and on every delivering replica
//! an `exec.request` span with `exec.phase2` / `exec.execute` /
//! `exec.phase4` children (the executor's stage clock) — all stitched
//! together by the multicast message uid (the events' `corr` key).
//! [`request_paths`] walks it once and attributes each request's
//! client-observed latency to ordering, the dispatch wait, the executor
//! stages and the reply/other remainder. `pool.park` spans nested under the
//! followed `exec.request` span carve their duration *out of the stage they
//! interrupted* into explicit `park.phase2_starved` / `park.lagging`
//! segments; the carve moves time within a stage, never in or out of the
//! request, so a path's segments always sum exactly to its latency.
//! [`check_latencies`] pairs the paths with the client's recorded
//! latencies ([`crate::Metrics::latencies`]), one for one.
//!
//! The Fig. 6 *aggregate* is not computed here: the stage spans and the
//! [`crate::Breakdown`] rows come from one measurement, and
//! [`crate::Metrics::mean_breakdown`] is the one fold over the rows.

use sim::trace::{EventKind, TraceEvent};
use std::cmp::Reverse;
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
        arg(&self.args, name)
    }
}

/// The value of the arg `name` in an event's or a span's arg list.
fn arg(args: &[(&'static str, u64)], name: &str) -> Option<u64> {
    args.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
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

/// One latency segment of a request's path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Stage or wait-state label (`"phase2"`, `"park.lagging"`, …).
    pub name: &'static str,
    /// Virtual ns attributed to it.
    pub ns: u64,
}

/// A single request's client-observed latency, decomposed along its path.
#[derive(Debug, Clone)]
pub struct RequestPath {
    /// Correlation key (multicast uid).
    pub corr: u64,
    /// Issuing client's track.
    pub client_track: u32,
    /// Partitions the request involved (0 when no replica span was found).
    pub partitions: u64,
    /// End-to-end latency (the `client.request` span), ns.
    pub total_ns: u64,
    /// Segments summing exactly to `total_ns`.
    pub segments: Vec<Segment>,
    /// The client's leader discovery while it waited: each `client.suspect`
    /// instant of the request, in time order.
    pub suspects: Vec<Suspect>,
}

/// One `client.suspect` instant: the client heard nothing from some
/// groups for the ordering layer's election timeout and read their epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Suspect {
    /// Virtual ns since the request began.
    pub after_ns: u64,
    /// The silent groups, a bit per group.
    pub silent: u64,
    /// The newest epoch read there (`u64::MAX`: no replica answered).
    pub epoch: u64,
    /// The groups whose believed leader moved to that epoch's leader.
    pub moved: u64,
}

/// The stages a park can interrupt, in path order; the last is the
/// remainder bucket (a park directly under `exec.request`).
const STAGES: [&str; 4] = ["phase2", "execute", "phase4", "reply+other"];
/// Park labels, in the order they follow their stage.
const PARKS: [&str; 2] = ["park.lagging", "park.phase2_starved"];

/// Per `exec.request` span: stage durations and, per stage, the park time
/// nested inside it by label.
#[derive(Default, Clone, Copy)]
struct Stages {
    ns: [u64; 3],
    parked: [[u64; 2]; 4],
}

fn stage_index(span_name: &str) -> Option<usize> {
    ["exec.phase2", "exec.execute", "exec.phase4"]
        .iter()
        .position(|s| *s == span_name)
}

/// Decomposes every traced request's end-to-end latency, slowest first.
///
/// The client waits for one reply per involved partition; the path shown
/// follows the *home* (lowest) partition's earliest-replying replica —
/// the replica whose reply the client-perceived latency actually tracks —
/// through ordering, the dispatch wait, the Phase 2 barrier, execution and
/// the Phase 4 barrier (parks carved out of each), with everything else
/// (reply flight, client polling, skew against slower partitions) as the
/// `reply+other` remainder. A request no replica span was found for comes
/// back as one `untraced` segment.
pub fn request_paths(events: &[TraceEvent]) -> Vec<RequestPath> {
    let all = spans(events);
    let by_id: HashMap<u64, &Span> = all.iter().map(|s| (s.id, s)).collect();
    // Earliest exec.reply per (corr, track); the client's suspicions per
    // corr, in time order.
    let mut reply_at: HashMap<(u64, u32), u64> = HashMap::new();
    let mut suspects: HashMap<u64, Vec<(u64, &TraceEvent)>> = HashMap::new();
    for e in events.iter().filter(|e| e.kind == EventKind::Instant) {
        if e.name == "exec.reply" {
            let t = reply_at.entry((e.corr, e.track)).or_insert(u64::MAX);
            *t = (*t).min(e.t_ns);
        } else if e.name == "client.suspect" {
            suspects.entry(e.corr).or_default().push((e.t_ns, e));
        }
    }
    // The one walk: stage spans book under their exec.request parent, park
    // spans under the nearest stage on the way up to theirs.
    let mut stages: HashMap<u64, Stages> = HashMap::new();
    for s in &all {
        if let Some(i) = stage_index(s.name) {
            stages.entry(s.parent).or_default().ns[i] += s.dur_ns();
        } else if s.name == "pool.park" {
            let label = usize::from(s.arg("lagging").unwrap_or(0) == 0);
            let (mut stage, mut cur) = (None, s.parent);
            for _ in 0..64 {
                let Some(up) = by_id.get(&cur) else { break };
                if up.name == "exec.request" {
                    stages.entry(up.id).or_default().parked[stage.unwrap_or(3)][label] +=
                        s.dur_ns();
                    break;
                }
                stage = stage.or(stage_index(up.name));
                cur = up.parent;
            }
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
        let h = home.get(&root.corr);
        if let Some(h) = h {
            let st = stages.get(&h.id).copied().unwrap_or_default();
            let ordering = h.arg("ordering_ns").unwrap_or(0);
            let parallel = h.arg("parallel_ns").unwrap_or(0);
            let [p2, e, p4] = st.ns;
            let other = total.saturating_sub(ordering + parallel + p2 + e + p4);
            segments.push(Segment {
                name: "ordering",
                ns: ordering,
            });
            if parallel > 0 {
                segments.push(Segment {
                    name: "execute.parallel",
                    ns: parallel,
                });
            }
            for (i, ns) in [p2, e, p4, other].into_iter().enumerate() {
                if matches!(i, 0 | 2) && p2 + p4 == 0 {
                    continue; // single-partition: no barrier stages
                }
                // A stage's parks nest inside it in time, so they cannot
                // exceed it; clamp anyway so the sum is unconditional.
                let mut remaining = ns;
                let parks = st.parked[i].map(|parked| {
                    let take = parked.min(remaining);
                    remaining -= take;
                    take
                });
                if remaining > 0 || parks == [0, 0] {
                    segments.push(Segment {
                        name: STAGES[i],
                        ns: remaining,
                    });
                }
                for (name, ns) in PARKS.into_iter().zip(parks) {
                    if ns > 0 {
                        segments.push(Segment { name, ns });
                    }
                }
            }
        } else {
            segments.push(Segment {
                name: "untraced",
                ns: total,
            });
        }
        let suspects = suspects
            .get(&root.corr)
            .into_iter()
            .flatten()
            .filter(|(_, e)| e.track == root.track)
            .map(|&(t, e)| Suspect {
                after_ns: t.saturating_sub(root.t0),
                silent: arg(&e.args, "silent").unwrap_or(0),
                epoch: arg(&e.args, "epoch").unwrap_or(0),
                moved: arg(&e.args, "moved").unwrap_or(0),
            })
            .collect();
        out.push(RequestPath {
            corr: root.corr,
            client_track: root.track,
            partitions: h.and_then(|h| h.arg("partitions")).unwrap_or(0),
            total_ns: total,
            segments,
            suspects,
        });
    }
    out.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.corr.cmp(&b.corr)));
    out
}

/// Where a run's request paths and its recorded client latencies
/// disagree (see [`check_latencies`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mismatch {
    /// The path's segments do not sum to its latency.
    Unsummed {
        /// The request's multicast uid.
        uid: u64,
        /// Sum of the path's segments, ns.
        sum_ns: u64,
        /// The `client.request` span's duration, ns.
        total_ns: u64,
    },
    /// A traced request whose latency the client did not record.
    NoLatency {
        /// The request's multicast uid.
        uid: u64,
        /// The `client.request` span's duration, ns.
        total_ns: u64,
    },
    /// A recorded latency no traced request took.
    NoPath {
        /// The recorded latency, ns.
        latency_ns: u64,
    },
}

/// Checks the trace against the client's own record, request for request:
/// every path must sum exactly to its latency, and the paths' latencies
/// and `latencies_ns` (every latency the client recorded, in any order)
/// must be the same multiset. Returns each disagreement — empty when the
/// trace accounts for every recorded request and nothing else.
pub fn check_latencies(paths: &[RequestPath], latencies_ns: &[u64]) -> Vec<Mismatch> {
    let mut paths: Vec<&RequestPath> = paths.iter().collect();
    paths.sort_by_key(|p| Reverse(p.total_ns));
    let mut latencies = latencies_ns.to_vec();
    latencies.sort_unstable_by_key(|&l| Reverse(l));
    let mut latencies = latencies.into_iter().peekable();
    let mut out = Vec::new();
    for p in paths {
        let (uid, total_ns) = (p.corr, p.total_ns);
        let sum_ns = p.segments.iter().map(|s| s.ns).sum();
        if sum_ns != total_ns {
            out.push(Mismatch::Unsummed {
                uid,
                sum_ns,
                total_ns,
            });
        }
        // Both sides run slowest first: a larger latency than this path's
        // can match no path after it.
        while let Some(latency_ns) = latencies.next_if(|&l| l > total_ns) {
            out.push(Mismatch::NoPath { latency_ns });
        }
        if latencies.next_if_eq(&total_ns).is_none() {
            out.push(Mismatch::NoLatency { uid, total_ns });
        }
    }
    out.extend(latencies.map(|latency_ns| Mismatch::NoPath { latency_ns }));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use EventKind::{Begin, End, Instant};

    /// One positional row of a hand-built trace table.
    #[allow(clippy::too_many_arguments)]
    fn ev(
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

    fn named(segments: &[Segment]) -> Vec<(&'static str, u64)> {
        segments.iter().map(|s| (s.name, s.ns)).collect()
    }

    /// A hand-built two-partition request: client latency 100, ordering
    /// 30, phase2 10, execute 25, phase4 15 at the home partition.
    fn sample_events() -> Vec<TraceEvent> {
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

    /// A client's `client.suspect` instants follow its request's path, in
    /// time order and relative to its start; another client's instant on
    /// the same uid does not.
    #[test]
    fn a_path_carries_its_clients_suspicions() {
        let mut events = sample_events();
        let suspect = |t, track, moved| {
            let args = [("silent", 1), ("epoch", 1), ("moved", moved)];
            ev(Instant, t, track, 0, 1, "client.suspect", 5, &args)
        };
        events.insert(1, suspect(20, 9, 0));
        events.insert(2, suspect(25, 3, 1));
        events.insert(3, suspect(40, 9, 1));
        let paths = request_paths(&events);
        let got: Vec<(u64, u64)> = paths[0]
            .suspects
            .iter()
            .map(|s| (s.after_ns, s.moved))
            .collect();
        assert_eq!(got, [(20, 0), (40, 1)]);
        assert_eq!(
            (paths[0].suspects[0].silent, paths[0].suspects[0].epoch),
            (1, 1)
        );
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
    fn path_follows_home_partition() {
        let paths = request_paths(&sample_events());
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!((p.corr, p.total_ns, p.partitions), (5, 100, 2));
        assert_eq!(
            named(&p.segments),
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

    #[test]
    fn unreplied_replicas_are_not_followed() {
        // The home replica never replied (state transfer path): the path
        // follows the other partition's replica instead.
        let mut events = sample_events();
        events.retain(|e| !(e.name == "exec.reply" && e.track == 2));
        let p = &request_paths(&events)[0];
        assert_eq!(
            p.segments[0],
            Segment {
                name: "ordering",
                ns: 35
            }
        );
        assert_eq!(p.segments.iter().map(|s| s.ns).sum::<u64>(), 100);
    }

    /// With an executor pool the `exec.request` span carries a
    /// `parallel_ns` arg (dispatch wait); it must surface as its own
    /// segment and the decomposition must still sum exactly.
    #[test]
    fn parallel_wait_is_attributed_and_sums_exactly() {
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
        let p = &request_paths(&events)[0];
        assert_eq!(
            named(&p.segments),
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

    /// One traced request (latency 100) whose phase2 contains a 6ns
    /// starvation park and whose execute contains a 4ns lagging park.
    fn parked_trace() -> Vec<TraceEvent> {
        vec![
            ev(Begin, 0, 9, 1, 0, "client.request", 0, &[]),
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
            ev(Begin, 32, 2, 10, 3, "pool.park", 0, &[("lagging", 0)]),
            ev(End, 38, 2, 10, 3, "pool.park", 0, &[]),
            ev(End, 40, 2, 3, 2, "exec.phase2", 5, &[]),
            ev(Begin, 40, 2, 4, 2, "exec.execute", 5, &[]),
            ev(Begin, 50, 2, 11, 4, "pool.park", 0, &[("lagging", 1)]),
            ev(End, 54, 2, 11, 4, "pool.park", 0, &[]),
            ev(End, 65, 2, 4, 2, "exec.execute", 5, &[]),
            ev(Begin, 65, 2, 5, 2, "exec.phase4", 5, &[]),
            ev(End, 80, 2, 5, 2, "exec.phase4", 5, &[]),
            ev(Instant, 81, 2, 0, 2, "exec.reply", 5, &[]),
            ev(End, 82, 2, 2, 0, "exec.request", 5, &[]),
            ev(End, 100, 9, 1, 0, "client.request", 5, &[]),
        ]
    }

    #[test]
    fn parks_are_carved_out_of_their_stage() {
        let paths = request_paths(&parked_trace());
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!((p.corr, p.total_ns), (5, 100));
        assert_eq!(
            named(&p.segments),
            [
                ("ordering", 30),
                ("phase2", 4),
                ("park.phase2_starved", 6),
                ("execute", 21),
                ("park.lagging", 4),
                ("phase4", 15),
                ("reply+other", 20),
            ]
        );
    }

    #[test]
    fn segments_sum_exactly_to_latency() {
        let paths = request_paths(&parked_trace());
        assert_eq!(check_latencies(&paths, &[100]), []);
    }

    #[test]
    fn carving_preserves_the_stage_totals() {
        // Park time moves within a stage, never between stages.
        let p = &request_paths(&parked_trace())[0];
        let total = |names: [&str; 2]| -> u64 {
            let in_stage = p.segments.iter().filter(|s| names.contains(&s.name));
            in_stage.map(|s| s.ns).sum()
        };
        assert_eq!(total(["phase2", "park.phase2_starved"]), 10);
        assert_eq!(total(["execute", "park.lagging"]), 25);
    }

    #[test]
    fn check_names_every_unmatched_request() {
        let path = |corr, total_ns, segment_ns| RequestPath {
            corr,
            client_track: 9,
            partitions: 1,
            total_ns,
            segments: vec![Segment {
                name: "execute",
                ns: segment_ns,
            }],
            suspects: Vec::new(),
        };
        let paths = [path(1, 50, 50), path(2, 40, 40), path(3, 30, 29)];
        // Equal latencies pair in any order.
        assert_eq!(check_latencies(&paths[..2], &[40, 50]), []);
        assert_eq!(
            check_latencies(&paths, &[60, 50, 30, 20]),
            [
                Mismatch::NoPath { latency_ns: 60 },
                Mismatch::NoLatency {
                    uid: 2,
                    total_ns: 40
                },
                Mismatch::Unsummed {
                    uid: 3,
                    sum_ns: 29,
                    total_ns: 30
                },
                Mismatch::NoPath { latency_ns: 20 },
            ]
        );
    }
}
