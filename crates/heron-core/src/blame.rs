//! Tail-exemplar blame: decomposes the latency of individual (slow)
//! requests into wait-state segments along their span path.
//!
//! The `client.latency_ns` histogram retains the uids of its slowest
//! samples ([`crate::metrics::Histogram::exemplars`]); this module looks
//! each uid up in the trace and explains where its time went. The starting
//! point is [`crate::critical_path::critical_paths`]'s stage decomposition
//! (ordering / phase2 / execute / phase4 / reply+other); on top of it,
//! `pool.park` spans nested under the home partition's `exec.request` span
//! carve their duration *out of the stage they interrupted* into explicit
//! `park.phase2_starved` / `park.lagging` segments. The carve is
//! category-preserving — park time moves within a stage, never in or out
//! of the request — so each exemplar's segments still sum exactly to its
//! end-to-end latency, and aggregates over blamed requests still match the
//! Fig. 6 breakdown ([`crate::critical_path::attribute`]).

use crate::critical_path::{critical_paths, spans, Span};
use sim::trace::TraceEvent;
use std::collections::HashMap;

/// One wait-state segment of an exemplar's latency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlameSegment {
    /// Stage or wait-state label (`"phase2"`, `"park.lagging"`, …).
    pub name: String,
    /// Virtual ns attributed to it.
    pub ns: u64,
}

/// One tail exemplar, explained.
#[derive(Debug, Clone)]
pub struct BlamedExemplar {
    /// The request's multicast uid (the histogram exemplar's tag).
    pub uid: u64,
    /// The latency the histogram retained it for, ns.
    pub latency_ns: u64,
    /// Client-observed latency per the trace (the `client.request` span).
    /// Equal to `latency_ns` when the request was traced.
    pub total_ns: u64,
    /// Wait-state segments summing exactly to `total_ns`.
    pub segments: Vec<BlameSegment>,
}

/// Which stage a park span interrupted: the nearest ancestor on the way to
/// the home `exec.request` span that is itself a stage span.
fn park_stage(park: &Span, by_id: &HashMap<u64, &Span>, home: u64) -> Option<&'static str> {
    let mut stage = None;
    let mut cur = park.parent;
    let mut hops = 0;
    while cur != 0 && hops < 64 {
        let Some(s) = by_id.get(&cur) else { break };
        if stage.is_none() {
            match s.name {
                "exec.phase2" => stage = Some("phase2"),
                "exec.execute" => stage = Some("execute"),
                "exec.phase4" => stage = Some("phase4"),
                _ => {}
            }
        }
        if s.id == home {
            // Parks directly under exec.request (outside any stage span)
            // interrupted the remainder bucket.
            return Some(stage.unwrap_or("reply+other"));
        }
        cur = s.parent;
        hops += 1;
    }
    None
}

/// Explains histogram exemplars (`(latency_ns, uid)` pairs, as returned by
/// [`crate::metrics::Histogram::exemplars`]) against a trace. Exemplars
/// whose uid never shows up in the trace come back with one `untraced`
/// segment covering the whole latency, so the output always decomposes
/// every input.
pub fn blame_exemplars(events: &[TraceEvent], exemplars: &[(u64, u64)]) -> Vec<BlamedExemplar> {
    let paths = critical_paths(events);
    let by_corr: HashMap<u64, &crate::critical_path::RequestPath> =
        paths.iter().map(|p| (p.corr, p)).collect();
    let all = spans(events);
    let by_id: HashMap<u64, &Span> = all.iter().map(|s| (s.id, s)).collect();
    let parks: Vec<&Span> = all.iter().filter(|s| s.name == "pool.park").collect();

    let mut out = Vec::new();
    for &(latency_ns, uid) in exemplars {
        let Some(path) = by_corr.get(&uid) else {
            out.push(BlamedExemplar {
                uid,
                latency_ns,
                total_ns: latency_ns,
                segments: vec![BlameSegment {
                    name: "untraced".to_string(),
                    ns: latency_ns,
                }],
            });
            continue;
        };
        // Park time per (stage, park label), carved out below.
        let mut carved: HashMap<(&'static str, &'static str), u64> = HashMap::new();
        if path.home_span != 0 {
            for park in &parks {
                let Some(stage) = park_stage(park, &by_id, path.home_span) else {
                    continue;
                };
                let label = if park.arg("lagging").unwrap_or(0) != 0 {
                    "park.lagging"
                } else {
                    "park.phase2_starved"
                };
                *carved.entry((stage, label)).or_default() += park.dur_ns();
            }
        }
        let mut segments = Vec::new();
        for seg in &path.segments {
            let mut remaining = seg.ns;
            let mut parks_here: Vec<(&'static str, u64)> = carved
                .iter()
                .filter(|((stage, _), _)| *stage == seg.name)
                .map(|((_, label), ns)| (*label, *ns))
                .collect();
            parks_here.sort_unstable();
            let mut park_segs = Vec::new();
            for (label, ns) in parks_here {
                // A stage's parks nest inside it in time, so they cannot
                // exceed it; clamp anyway so the sum invariant is
                // unconditional.
                let take = ns.min(remaining);
                remaining -= take;
                if take > 0 {
                    park_segs.push(BlameSegment {
                        name: label.to_string(),
                        ns: take,
                    });
                }
            }
            if remaining > 0 || park_segs.is_empty() {
                segments.push(BlameSegment {
                    name: seg.name.to_string(),
                    ns: remaining,
                });
            }
            segments.extend(park_segs);
        }
        out.push(BlamedExemplar {
            uid,
            latency_ns,
            total_ns: path.total_ns,
            segments,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critical_path::tests::ev;
    use sim::trace::EventKind;

    /// One traced request (latency 100) whose phase2 contains a 6ns
    /// starvation park and whose execute contains a 4ns lagging park.
    fn parked_trace() -> Vec<TraceEvent> {
        use EventKind::{Begin, End, Instant};
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
        let blamed = blame_exemplars(&parked_trace(), &[(100, 5)]);
        assert_eq!(blamed.len(), 1);
        let b = &blamed[0];
        assert_eq!((b.uid, b.latency_ns, b.total_ns), (5, 100, 100));
        let by_name: Vec<(&str, u64)> =
            b.segments.iter().map(|s| (s.name.as_str(), s.ns)).collect();
        assert_eq!(
            by_name,
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
        for b in blame_exemplars(&parked_trace(), &[(100, 5)]) {
            let sum: u64 = b.segments.iter().map(|s| s.ns).sum();
            assert_eq!(sum, b.total_ns);
            assert_eq!(b.total_ns, b.latency_ns);
        }
    }

    #[test]
    fn carving_preserves_the_aggregate_breakdown() {
        // Moving park time within a stage must not change what
        // `attribute` reports per stage.
        let events = parked_trace();
        let a = crate::critical_path::attribute(&events, None);
        let b = &blame_exemplars(&events, &[(100, 5)])[0];
        let phase2: u64 = b
            .segments
            .iter()
            .filter(|s| s.name == "phase2" || s.name == "park.phase2_starved")
            .map(|s| s.ns)
            .sum();
        let execute: u64 = b
            .segments
            .iter()
            .filter(|s| s.name == "execute" || s.name == "park.lagging")
            .map(|s| s.ns)
            .sum();
        assert_eq!(phase2, 10);
        assert_eq!(execute, 25);
        assert_eq!(a.execution_ns, 25);
    }

    #[test]
    fn untraced_exemplars_fall_back_to_one_segment() {
        let blamed = blame_exemplars(&[], &[(77, 42)]);
        assert_eq!(blamed.len(), 1);
        assert_eq!(blamed[0].segments.len(), 1);
        assert_eq!(blamed[0].segments[0].name, "untraced");
        assert_eq!(blamed[0].segments[0].ns, 77);
    }
}
