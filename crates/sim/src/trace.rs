//! Deterministic virtual-time tracing.
//!
//! A tracing layer that records *causal spans* — begin/end pairs stamped in
//! virtual nanoseconds — without perturbing the simulation. The discipline
//! mirrors the race detector's (see `rdma-sim`): recording appends to a
//! host-side buffer and never sleeps, never schedules an event, and never
//! touches a process RNG, so **schedules are bit-identical with tracing on
//! or off**. When tracing is off every hook reduces to one flag test.
//!
//! # Model
//!
//! * Every simulated process is a *track* (its [`Pid`] index). Synchronous
//!   spans opened with [`span`] nest on a per-process span stack; the
//!   [`SpanGuard`] ends the span when dropped, so early returns are safe.
//! * Asynchronous work that is posted by one process and completes in event
//!   context — an RDMA write in flight between doorbell and landing — is a
//!   [`FlightSpan`]: begun on the posting process's track, ended from the
//!   landing closure with an explicit timestamp ([`FlightSpan::end_at`]).
//! * Point events ([`instant`]) mark protocol milestones (message submit,
//!   sequencing, delivery).
//! * Spans carry a `corr` correlation key — Heron uses the multicast message
//!   uid — so one request's spans can be stitched across every process and
//!   partition that touched it.
//!
//! Enable with [`crate::Simulation::enable_tracing`], which returns a
//! [`Tracer`] handle for draining events or exporting a Chrome/Perfetto
//! `trace_event` JSON file (open it directly in `ui.perfetto.dev`).
//!
//! [`Pid`]: crate::Pid

use crate::kernel::{try_with_ctx, Kernel};
use parking_lot::Mutex;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// Track id used for events recorded outside any process (event context).
pub const EXTERN_TRACK: u32 = u32::MAX;

/// What a [`TraceEvent`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A synchronous span opened on a process track.
    Begin,
    /// End of a synchronous span.
    End,
    /// Start of an asynchronous (posted) span.
    FlightBegin,
    /// Completion of an asynchronous span.
    FlightEnd,
    /// A point event.
    Instant,
}

/// One recorded trace event, stamped in virtual nanoseconds.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Virtual time of the event.
    pub t_ns: u64,
    /// Track (process index) the event belongs to, or [`EXTERN_TRACK`].
    pub track: u32,
    /// Span id (`0` for instants). Ids are allocated from 1, in record
    /// order, and are unique within a run.
    pub span: u64,
    /// Enclosing span on the same track at begin time (`0` for top level).
    pub parent: u64,
    /// Event kind.
    pub kind: EventKind,
    /// Static name, e.g. `"exec.phase2"`.
    pub name: &'static str,
    /// Correlation key stitching one request across tracks (0 = none).
    pub corr: u64,
    /// Small numeric payload (`("len", 64)`, …).
    pub args: SpanArgs,
}

/// Inline argument list for trace events.
///
/// Every recording site passes at most a few small numeric args, so a
/// fixed-capacity inline array keeps the hot record path free of heap
/// allocation (the old representation boxed a `Vec` per event). Args
/// beyond [`SpanArgs::CAP`] are dropped.
#[derive(Clone, Copy)]
pub struct SpanArgs {
    len: u8,
    items: [(&'static str, u64); SpanArgs::CAP],
}

impl SpanArgs {
    /// Maximum number of args an event can carry.
    pub const CAP: usize = 5;

    /// Builds from a slice, keeping the first [`SpanArgs::CAP`] entries.
    pub fn from_slice(args: &[(&'static str, u64)]) -> Self {
        debug_assert!(args.len() <= Self::CAP, "trace args beyond CAP are dropped");
        let mut out = SpanArgs::default();
        for &a in args.iter().take(Self::CAP) {
            out.items[out.len as usize] = a;
            out.len += 1;
        }
        out
    }

    /// The recorded args as a slice.
    pub fn as_slice(&self) -> &[(&'static str, u64)] {
        &self.items[..self.len as usize]
    }
}

impl Default for SpanArgs {
    fn default() -> Self {
        SpanArgs {
            len: 0,
            items: [("", 0); Self::CAP],
        }
    }
}

impl std::ops::Deref for SpanArgs {
    type Target = [(&'static str, u64)];
    fn deref(&self) -> &Self::Target {
        self.as_slice()
    }
}

impl PartialEq for SpanArgs {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for SpanArgs {}

impl PartialEq<Vec<(&'static str, u64)>> for SpanArgs {
    fn eq(&self, other: &Vec<(&'static str, u64)>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl fmt::Debug for SpanArgs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

struct TraceBuf {
    next_span: u64,
    events: Vec<TraceEvent>,
    /// Per-process stacks of open synchronous span ids, indexed by track.
    stacks: Vec<Vec<u64>>,
}

/// Shared recording state. Lives on the kernel in a `OnceCell<Arc<_>>`,
/// like the race detector's fabric state, so the off path is one test of
/// an empty cell.
pub(crate) struct TraceState {
    buf: Mutex<TraceBuf>,
}

impl TraceState {
    pub(crate) fn new() -> Self {
        TraceState {
            buf: Mutex::new(TraceBuf {
                next_span: 1,
                events: Vec::new(),
                stacks: Vec::new(),
            }),
        }
    }

    fn begin(
        &self,
        t_ns: u64,
        track: u32,
        name: &'static str,
        corr: u64,
        args: SpanArgs,
        sync: bool,
    ) -> u64 {
        let mut buf = self.buf.lock();
        let span = buf.next_span;
        buf.next_span += 1;
        let mut parent = 0;
        if track != EXTERN_TRACK {
            let idx = track as usize;
            if buf.stacks.len() <= idx {
                buf.stacks.resize_with(idx + 1, Vec::new);
            }
            parent = buf.stacks[idx].last().copied().unwrap_or(0);
            if sync {
                buf.stacks[idx].push(span);
            }
        }
        buf.events.push(TraceEvent {
            t_ns,
            track,
            span,
            parent,
            kind: if sync {
                EventKind::Begin
            } else {
                EventKind::FlightBegin
            },
            name,
            corr,
            args,
        });
        span
    }

    fn end(&self, t_ns: u64, track: u32, span: u64, name: &'static str, corr: u64, sync: bool) {
        let mut buf = self.buf.lock();
        if sync {
            if let Some(stack) = buf.stacks.get_mut(track as usize) {
                if stack.last() == Some(&span) {
                    stack.pop();
                } else {
                    // Out-of-order drop (should not happen with guards);
                    // remove wherever it is so the stack stays sane.
                    stack.retain(|&s| s != span);
                }
            }
        }
        buf.events.push(TraceEvent {
            t_ns,
            track,
            span,
            parent: 0,
            kind: if sync {
                EventKind::End
            } else {
                EventKind::FlightEnd
            },
            name,
            corr,
            args: SpanArgs::default(),
        });
    }

    /// Records an instant on the extern track from host context (the
    /// explorer's preemption markers fire inside the scheduler loop, where
    /// there is no process identity to hang a track on).
    pub(crate) fn record_instant_extern(
        &self,
        t_ns: u64,
        name: &'static str,
        corr: u64,
        args: &[(&'static str, u64)],
    ) {
        self.instant(t_ns, EXTERN_TRACK, name, corr, SpanArgs::from_slice(args));
    }

    fn instant(&self, t_ns: u64, track: u32, name: &'static str, corr: u64, args: SpanArgs) {
        let mut buf = self.buf.lock();
        let parent = if track != EXTERN_TRACK {
            buf.stacks
                .get(track as usize)
                .and_then(|s| s.last().copied())
                .unwrap_or(0)
        } else {
            0
        };
        buf.events.push(TraceEvent {
            t_ns,
            track,
            span: 0,
            parent,
            kind: EventKind::Instant,
            name,
            corr,
            args,
        });
    }
}

/// Runs `f` with the trace state when (a) we are in process context and
/// (b) tracing is enabled. One flag test on the off path.
fn with_trace<R>(f: impl FnOnce(&Arc<TraceState>, u32, u64) -> R) -> Option<R> {
    try_with_ctx(|k, pid| k.trace_state().map(|st| f(&st, pid.index(), k.now_nanos()))).flatten()
}

/// Returns `true` when the calling process is traced. Use to skip expensive
/// argument computation; the recording hooks themselves are already gated.
pub fn enabled() -> bool {
    try_with_ctx(|k, _| k.trace_state().is_some()).unwrap_or(false)
}

/// Opens a synchronous span on the calling process's track. The span ends
/// when the returned guard is dropped. A no-op returning an inert guard
/// when tracing is off or outside process context.
pub fn span(name: &'static str, corr: u64) -> SpanGuard {
    span_args(name, corr, &[])
}

/// [`span`] with numeric arguments attached to the begin event.
pub fn span_args(name: &'static str, corr: u64, args: &[(&'static str, u64)]) -> SpanGuard {
    let inner = with_trace(|st, track, now| {
        let span = st.begin(now, track, name, corr, SpanArgs::from_slice(args), true);
        SpanInner {
            state: Arc::clone(st),
            kernel: current_kernel(),
            track,
            span,
            name,
            corr,
        }
    });
    SpanGuard { inner }
}

/// Records a point event on the calling process's track. No-op when off.
pub fn instant(name: &'static str, corr: u64) {
    instant_args(name, corr, &[]);
}

/// [`instant`] with numeric arguments.
pub fn instant_args(name: &'static str, corr: u64, args: &[(&'static str, u64)]) {
    with_trace(|st, track, now| st.instant(now, track, name, corr, SpanArgs::from_slice(args)));
}

/// Opens an asynchronous span: begun now on the calling process's track,
/// ended later — typically from an event-context landing closure — with
/// [`FlightSpan::end_at`]. Returns `None` when tracing is off, so the
/// handle can be captured into the completion closure exactly like the race
/// detector's write tickets.
pub fn flight_begin(
    name: &'static str,
    corr: u64,
    args: &[(&'static str, u64)],
) -> Option<FlightSpan> {
    with_trace(|st, track, now| {
        let span = st.begin(now, track, name, corr, SpanArgs::from_slice(args), false);
        FlightSpan {
            state: Arc::clone(st),
            track,
            span,
            name,
            corr,
        }
    })
}

fn current_kernel() -> Rc<Kernel> {
    try_with_ctx(|k, _| Rc::clone(k)).expect("span opened outside process context")
}

struct SpanInner {
    state: Arc<TraceState>,
    kernel: Rc<Kernel>,
    track: u32,
    span: u64,
    name: &'static str,
    corr: u64,
}

/// Guard for a synchronous span; records the end event on drop. Inert (zero
/// cost beyond the `Option` check) when tracing was off at open time.
#[must_use = "dropping the guard immediately ends the span"]
pub struct SpanGuard {
    inner: Option<SpanInner>,
}

impl SpanGuard {
    /// Updates the correlation key recorded on the *end* event. Used when
    /// the key (e.g. a message uid) is only known after the span began.
    pub fn set_corr(&mut self, corr: u64) {
        if let Some(inner) = self.inner.as_mut() {
            inner.corr = corr;
        }
    }

    /// The span id, or 0 when tracing is off.
    pub fn id(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.span)
    }

    /// Ends the span at `t_ns`, an instant the caller has just read off
    /// the clock, so a duration computed from that same reading equals the
    /// span's by construction.
    pub fn end_at(mut self, t_ns: u64) {
        if let Some(inner) = self.inner.take() {
            inner.end(t_ns);
        }
    }
}

impl SpanInner {
    fn end(self, t_ns: u64) {
        self.state
            .end(t_ns, self.track, self.span, self.name, self.corr, true);
    }
}

impl fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpanGuard").field("id", &self.id()).finish()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let now = inner.kernel.now_nanos();
            inner.end(now);
        }
    }
}

/// Handle for an in-flight asynchronous span, moved into the scheduled
/// completion closure that ends it.
#[derive(Clone)]
pub struct FlightSpan {
    state: Arc<TraceState>,
    track: u32,
    span: u64,
    name: &'static str,
    corr: u64,
}

impl FlightSpan {
    /// Ends the span at the given virtual time (the completion's arrival
    /// instant, which the poster computed when it scheduled the landing).
    pub fn end_at(self, t_ns: u64) {
        self.state
            .end(t_ns, self.track, self.span, self.name, self.corr, false);
    }
}

impl fmt::Debug for FlightSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlightSpan")
            .field("span", &self.span)
            .field("name", &self.name)
            .finish()
    }
}

/// Handle to a simulation's recorded trace. Cheap to clone; obtained from
/// [`crate::Simulation::enable_tracing`].
#[derive(Clone)]
pub struct Tracer {
    state: Arc<TraceState>,
    kernel: Rc<Kernel>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("events", &self.len())
            .finish()
    }
}

impl Tracer {
    pub(crate) fn new(state: Arc<TraceState>, kernel: Rc<Kernel>) -> Self {
        Tracer { state, kernel }
    }

    /// Snapshot of every event recorded so far, in record order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.state.buf.lock().events.clone()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.state.buf.lock().events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Names of all tracks (process spawn order), for labeling exports.
    pub fn track_names(&self) -> Vec<String> {
        self.kernel.proc_names()
    }

    /// Exports the trace as Chrome/Perfetto `trace_event` JSON. The string
    /// is a complete JSON object that loads directly in `ui.perfetto.dev`
    /// or `chrome://tracing`.
    ///
    /// Synchronous spans become complete (`"X"`) events with microsecond
    /// timestamps, so nesting is reconstructed from durations; flight spans
    /// become async (`"b"`/`"e"`) pairs keyed by span id; instants become
    /// `"i"` events. Spans still open at export time are emitted as if they
    /// ended at the latest recorded timestamp.
    pub fn export_chrome_json(&self) -> String {
        export_chrome_json(&self.events(), &self.track_names())
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Nanoseconds rendered as fractional microseconds (the `ts` unit the
/// trace_event format requires).
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn push_args(out: &mut String, corr: u64, args: &[(&'static str, u64)]) {
    out.push_str(",\"args\":{");
    let mut first = true;
    if corr != 0 {
        out.push_str(&format!("\"corr\":{corr}"));
        first = false;
    }
    for (k, v) in args {
        if !first {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{v}", json_escape(k)));
        first = false;
    }
    out.push('}');
}

/// Renders `events` (with `track_names` labeling the process tracks) as a
/// Chrome `trace_event` JSON string. See [`Tracer::export_chrome_json`].
pub fn export_chrome_json(events: &[TraceEvent], track_names: &[String]) -> String {
    use std::collections::{BTreeSet, HashMap};

    let mut sorted: Vec<&TraceEvent> = events.iter().collect();
    sorted.sort_by_key(|e| e.t_ns); // stable: record order breaks ties
    let t_max = sorted.last().map_or(0, |e| e.t_ns);

    // End events indexed by span id, to pair with their begins.
    let mut ends: HashMap<u64, &TraceEvent> = HashMap::new();
    let mut tracks: BTreeSet<u32> = BTreeSet::new();
    for e in &sorted {
        tracks.insert(e.track);
        if matches!(e.kind, EventKind::End | EventKind::FlightEnd) {
            ends.insert(e.span, e);
        }
    }

    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    let mut emit = |s: String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        out.push_str(&s);
        *first = false;
    };

    emit(
        "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"heron-sim\"}}"
            .to_string(),
        &mut first,
    );
    for &track in &tracks {
        let name = if track == EXTERN_TRACK {
            "event-context".to_string()
        } else {
            track_names
                .get(track as usize)
                .cloned()
                .unwrap_or_else(|| format!("track{track}"))
        };
        emit(
            format!(
                "{{\"ph\":\"M\",\"pid\":0,\"tid\":{track},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                json_escape(&name)
            ),
            &mut first,
        );
    }

    for e in &sorted {
        match e.kind {
            EventKind::Begin => {
                let end_t = ends.get(&e.span).map_or(t_max, |x| x.t_ns);
                let corr = ends.get(&e.span).map_or(e.corr, |x| x.corr.max(e.corr));
                let mut s = format!(
                    "{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{},\"dur\":{},\"name\":\"{}\"",
                    e.track,
                    micros(e.t_ns),
                    micros(end_t.saturating_sub(e.t_ns)),
                    json_escape(e.name)
                );
                push_args(&mut s, corr, &e.args);
                s.push('}');
                emit(s, &mut first);
            }
            EventKind::FlightBegin => {
                let mut s = format!(
                    "{{\"ph\":\"b\",\"cat\":\"flight\",\"id\":\"0x{:x}\",\"pid\":0,\
                     \"tid\":{},\"ts\":{},\"name\":\"{}\"",
                    e.span,
                    e.track,
                    micros(e.t_ns),
                    json_escape(e.name)
                );
                push_args(&mut s, e.corr, &e.args);
                s.push('}');
                emit(s, &mut first);
            }
            EventKind::FlightEnd => {
                emit(
                    format!(
                        "{{\"ph\":\"e\",\"cat\":\"flight\",\"id\":\"0x{:x}\",\"pid\":0,\
                         \"tid\":{},\"ts\":{},\"name\":\"{}\"}}",
                        e.span,
                        e.track,
                        micros(e.t_ns),
                        json_escape(e.name)
                    ),
                    &mut first,
                );
            }
            EventKind::Instant => {
                let mut s = format!(
                    "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{},\"ts\":{},\"name\":\"{}\"",
                    e.track,
                    micros(e.t_ns),
                    json_escape(e.name)
                );
                push_args(&mut s, e.corr, &e.args);
                s.push('}');
                emit(s, &mut first);
            }
            EventKind::End => {} // folded into the matching Begin
        }
    }
    out.push_str("]}");
    out
}

/// Like [`export_chrome_json`], but appends Perfetto counter (`"C"`) tracks
/// after the span events — one named track per entry in `counters`, each a
/// series of `(t_ns, value)` points. The profiler's
/// [`counter_tracks`](crate::prof::ProfReport::counter_tracks) output plugs in
/// directly, so resource-utilization timelines render alongside the spans.
pub fn export_chrome_json_with_counters(
    events: &[TraceEvent],
    track_names: &[String],
    counters: &[(String, Vec<(u64, f64)>)],
) -> String {
    let mut out = export_chrome_json(events, track_names);
    // The base export always ends with "]}"; splice counter events in
    // before the closing brackets rather than re-deriving the body.
    let body_had_events = !out.ends_with("[]}");
    out.truncate(out.len() - 2);
    let mut first = !body_had_events;
    for (name, points) in counters {
        for &(t_ns, value) in points {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":{},\"name\":\"{}\",\
                 \"args\":{{\"value\":{value}}}}}",
                micros(t_ns),
                json_escape(name)
            ));
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulation;
    use std::time::Duration;

    #[test]
    fn tracing_off_records_nothing_and_guards_are_inert() {
        let sim = Simulation::new(1);
        sim.spawn("p", || {
            assert!(!enabled());
            let g = span("outer", 7);
            assert_eq!(g.id(), 0);
            instant("tick", 7);
            assert!(flight_begin("fly", 7, &[]).is_none());
            crate::sleep(Duration::from_nanos(10));
        });
        sim.run().unwrap();
        // Enabling after the fact shows an empty buffer.
        let tracer = sim.enable_tracing();
        assert!(tracer.is_empty());
    }

    #[test]
    fn spans_nest_and_stamp_virtual_time() {
        let sim = Simulation::new(1);
        let tracer = sim.enable_tracing();
        sim.spawn("worker", || {
            let _outer = span("outer", 42);
            crate::sleep(Duration::from_nanos(100));
            {
                let _inner = span_args("inner", 42, &[("len", 64)]);
                crate::sleep(Duration::from_nanos(50));
            }
            instant("mark", 42);
        });
        sim.run().unwrap();
        let ev = tracer.events();
        let begins: Vec<_> = ev.iter().filter(|e| e.kind == EventKind::Begin).collect();
        assert_eq!(begins.len(), 2);
        let outer = begins.iter().find(|e| e.name == "outer").unwrap();
        let inner = begins.iter().find(|e| e.name == "inner").unwrap();
        assert_eq!(outer.t_ns, 0);
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.t_ns, 100);
        assert_eq!(inner.parent, outer.span, "inner nests under outer");
        assert_eq!(inner.args, vec![("len", 64)]);
        let inner_end = ev
            .iter()
            .find(|e| e.kind == EventKind::End && e.span == inner.span)
            .unwrap();
        assert_eq!(inner_end.t_ns, 150);
        let mark = ev.iter().find(|e| e.kind == EventKind::Instant).unwrap();
        assert_eq!(mark.parent, outer.span, "instant attaches to open span");
        // Outer ends after the instant (guard dropped at scope exit).
        let outer_end = ev
            .iter()
            .find(|e| e.kind == EventKind::End && e.span == outer.span)
            .unwrap();
        assert_eq!(outer_end.t_ns, 150);
    }

    #[test]
    fn flight_spans_end_from_event_context() {
        let sim = Simulation::new(1);
        let tracer = sim.enable_tracing();
        sim.spawn("poster", || {
            crate::sleep(Duration::from_nanos(5));
            let f = flight_begin("fly", 9, &[("len", 8)]);
            let arrival = crate::now().as_nanos() + 300;
            crate::schedule_ns(300, move || {
                if let Some(f) = f {
                    f.end_at(arrival);
                }
            });
            crate::sleep(Duration::from_nanos(1000));
        });
        sim.run().unwrap();
        let ev = tracer.events();
        let b = ev
            .iter()
            .find(|e| e.kind == EventKind::FlightBegin)
            .unwrap();
        let e = ev.iter().find(|e| e.kind == EventKind::FlightEnd).unwrap();
        assert_eq!(b.t_ns, 5);
        assert_eq!(e.t_ns, 305);
        assert_eq!(b.span, e.span);
        assert_eq!(b.corr, 9);
    }

    #[test]
    fn tracing_does_not_change_the_schedule() {
        fn run(trace: bool) -> (u64, u64) {
            let sim = Simulation::new(77);
            if trace {
                sim.enable_tracing();
            }
            for i in 0..4u32 {
                sim.spawn(format!("p{i}"), move || {
                    for _ in 0..20 {
                        let _g = span("work", u64::from(i));
                        crate::sleep(Duration::from_nanos(u64::from(i) * 13 + 7));
                        instant("tick", u64::from(i));
                    }
                });
            }
            sim.run().unwrap();
            (sim.events_executed(), sim.now().as_nanos())
        }
        assert_eq!(run(true), run(false), "schedule must be bit-identical");
    }

    #[test]
    fn exporter_golden_small_trace() {
        let sim = Simulation::new(1);
        let tracer = sim.enable_tracing();
        sim.spawn("p0", || {
            let _g = span("outer", 3);
            crate::sleep(Duration::from_nanos(1500));
            instant("mark", 0);
        });
        sim.run().unwrap();
        let json = tracer.export_chrome_json();
        let expected = concat!(
            "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[",
            "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",",
            "\"args\":{\"name\":\"heron-sim\"}},",
            "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"thread_name\",",
            "\"args\":{\"name\":\"p0\"}},",
            "{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":0.000,\"dur\":1.500,",
            "\"name\":\"outer\",\"args\":{\"corr\":3}},",
            "{\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":0,\"ts\":1.500,",
            "\"name\":\"mark\",\"args\":{}}",
            "]}"
        );
        assert_eq!(json, expected);
    }

    #[test]
    fn counter_export_appends_counter_events() {
        let events = Vec::new();
        let counters = vec![
            ("pool.busy".to_string(), vec![(0, 2.0), (100_000, 1.5)]),
            ("qp.sendq".to_string(), vec![(2000, 1.0)]),
        ];
        let json = export_chrome_json_with_counters(&events, &[], &counters);
        let expected = concat!(
            "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[",
            "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",",
            "\"args\":{\"name\":\"heron-sim\"}},",
            "{\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":0.000,",
            "\"name\":\"pool.busy\",\"args\":{\"value\":2}},",
            "{\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":100.000,",
            "\"name\":\"pool.busy\",\"args\":{\"value\":1.5}},",
            "{\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":2.000,",
            "\"name\":\"qp.sendq\",\"args\":{\"value\":1}}",
            "]}"
        );
        assert_eq!(json, expected);
    }

    #[test]
    fn counter_export_without_counters_matches_base_export() {
        let sim = Simulation::new(9);
        let tracer = sim.enable_tracing();
        sim.spawn("p0", || {
            instant("mark", 0);
        });
        sim.run().unwrap();
        let base = tracer.export_chrome_json();
        let with = export_chrome_json_with_counters(&tracer.events(), &tracer.track_names(), &[]);
        assert_eq!(base, with);
    }

    #[test]
    fn enable_tracing_is_idempotent() {
        let sim = Simulation::new(1);
        let t1 = sim.enable_tracing();
        sim.spawn("p", || {
            instant("once", 0);
        });
        let t2 = sim.enable_tracing();
        sim.run().unwrap();
        assert_eq!(t1.len(), 1);
        assert_eq!(t2.len(), 1, "second handle sees the same buffer");
    }
}
