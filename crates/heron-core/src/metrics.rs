//! Measurement plumbing for the paper's evaluation.

use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Per-request latency breakdown recorded at a replica (Fig. 6's stages).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Breakdown {
    /// Multicast submit → delivery at the replica.
    pub ordering_ns: u64,
    /// Delivery → pickup by an executor: the dependency-aware dispatch
    /// wait of the P-SMR executor pool. Exactly zero on the width-1
    /// inline lane, where a command is picked up at delivery.
    pub parallel_ns: u64,
    /// Phase 2 + Phase 4 barrier time.
    pub coordination_ns: u64,
    /// Reading + compute + writing.
    pub execution_ns: u64,
    /// Number of partitions the request addressed.
    pub partitions: u16,
    /// The partition of the replica that recorded this sample. The
    /// client-perceived path is the *home* (lowest) involved partition:
    /// it executes the full request, while the other partitions partially
    /// execute and then wait in Phase 4.
    pub at_partition: u16,
}

/// Mean per-stage breakdown over a set of [`Breakdown`] rows (see
/// [`Metrics::mean_breakdown`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageMeans {
    /// Rows averaged.
    pub n: u64,
    /// Mean [`Breakdown::ordering_ns`].
    pub ordering: Duration,
    /// Mean [`Breakdown::parallel_ns`], the pool's dispatch wait: zero at
    /// width 1, and at width > 1 usually the largest stage.
    pub dispatch: Duration,
    /// Mean [`Breakdown::coordination_ns`].
    pub coordination: Duration,
    /// Mean [`Breakdown::execution_ns`].
    pub execution: Duration,
}

impl fmt::Display for StageMeans {
    /// One table row, `n=… ordering … µs  coordination … µs  execution …
    /// µs`, with the dispatch wait shown whenever there is one.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = |d: Duration| d.as_nanos() as f64 / 1e3;
        write!(f, "n={:<5} ordering {:>8.1} µs", self.n, us(self.ordering))?;
        if !self.dispatch.is_zero() {
            write!(f, "  dispatch {:>8.1} µs", us(self.dispatch))?;
        }
        write!(
            f,
            "  coordination {:>8.1} µs  execution {:>8.1} µs",
            us(self.coordination),
            us(self.execution)
        )
    }
}

/// Wait-for-all statistics per partition (Table I).
#[derive(Debug, Default)]
pub struct DelayCounters {
    /// Multi-partition transactions coordinated.
    pub total: AtomicU64,
    /// Transactions that had to wait beyond the majority for stragglers.
    pub delayed: AtomicU64,
    /// Total extra wait, nanoseconds.
    pub delay_sum_ns: AtomicU64,
}

impl DelayCounters {
    /// `(delayed fraction, average delay)` — Table I's two columns.
    ///
    /// The fraction is `delayed / total` (how many coordinated transactions
    /// waited at all) and the average is `delay_sum / delayed` (mean extra
    /// wait *of the delayed ones* — Table I reports the delay conditional
    /// on being delayed, not amortized over all transactions). Both
    /// denominators are guarded the same way: a zero count yields zero
    /// rather than a division panic or NaN.
    pub fn summary(&self) -> (f64, Duration) {
        let total = self.total.load(Ordering::Relaxed);
        let delayed = self.delayed.load(Ordering::Relaxed);
        let sum = self.delay_sum_ns.load(Ordering::Relaxed);
        let frac = match total {
            0 => 0.0,
            t => delayed as f64 / t as f64,
        };
        let avg = match delayed {
            0 => Duration::ZERO,
            d => Duration::from_nanos(sum / d),
        };
        (frac, avg)
    }
}

/// A log-bucketed histogram (HDR-style): 16 linear sub-buckets per power of
/// two, giving ≤ 1/16 (≈ 6%) relative quantile error over the full `u64`
/// range with a fixed 976-bucket footprint and lock-free recording.
///
/// Values recorded through [`Histogram::record_tagged`] additionally compete
/// for the top-[`EXEMPLAR_K`] exemplar slots: the slowest tagged samples keep
/// their tag (a request uid), so tail quantiles can be traced back to the
/// concrete requests that produced them (Sim-Prof's p999 attribution).
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    /// `(value, tag)` pairs for the largest tagged samples, sorted
    /// descending by value (ties broken by smaller tag, deterministically).
    exemplars: Mutex<Vec<(u64, u64)>>,
}

/// How many tail exemplars each histogram retains.
pub const EXEMPLAR_K: usize = 8;

/// Buckets: values below 16 map 1:1; above, the top 4 bits after the
/// leading one select a linear sub-bucket within the value's power of two.
const HIST_BUCKETS: usize = 976;

fn hist_index(v: u64) -> usize {
    if v < 16 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize; // ≥ 4
    let sub = ((v >> (msb - 4)) & 0xF) as usize;
    ((msb - 3) << 4) + sub
}

fn hist_value(index: usize) -> u64 {
    if index < 16 {
        return index as u64;
    }
    let msb = (index >> 4) + 3;
    (1u64 << msb) + (((index & 0xF) as u64) << (msb - 4))
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            exemplars: Mutex::new(Vec::new()),
        }
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("p50", &self.quantile(0.5))
            .finish()
    }
}

impl Histogram {
    /// Records one value.
    pub fn record(&self, v: u64) {
        self.buckets[hist_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records one value carrying a tag (a request uid; 0 = untagged).
    /// Tagged values compete for the top-[`EXEMPLAR_K`] exemplar slots.
    pub fn record_tagged(&self, v: u64, tag: u64) {
        self.record(v);
        if tag == 0 {
            return;
        }
        let mut ex = self.exemplars.lock();
        ex.push((v, tag));
        ex.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        ex.truncate(EXEMPLAR_K);
    }

    /// The retained `(value, tag)` exemplars, largest value first.
    pub fn exemplars(&self) -> Vec<(u64, u64)> {
        self.exemplars.lock().clone()
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> u64 {
        match self.count() {
            0 => 0,
            n => self.sum.load(Ordering::Relaxed) / n,
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (0.0–1.0, clamped), resolved to the lower bound of
    /// its log bucket; 0 when empty. `quantile(0.5)`, `(0.99)`, `(0.999)`
    /// are the p50/p99/p999 the registry reports.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        let rank = ((n as f64 * q).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return hist_value(i).min(self.max());
            }
        }
        self.max()
    }

    /// `(count, mean, p50, p99, p999, max)` in one call.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            mean: self.mean(),
            p50: self.quantile(0.5),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
            max: self.max(),
        }
    }
}

/// Point-in-time summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Mean value.
    pub mean: u64,
    /// Median (log-bucket resolution).
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Largest sample.
    pub max: u64,
}

/// A named monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the value (used when importing an external atomic).
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A registry of named [`Histogram`]s and [`Counter`]s: the uniform surface
/// over what used to be ad-hoc atomics scattered across the stack.
/// Histograms are per-request and gated behind the same knob as tracing
/// ([`crate::HeronConfig::tracing`]; disabled, a recording site costs one
/// relaxed load, [`MetricsRegistry::is_enabled`]). Counters mark rare
/// events — a checkpoint, a cold restart — and are always on.
///
/// # Naming scheme
///
/// Every name is `<subsystem>.<measure>[_<unit>]`, all lowercase:
///
/// * `<subsystem>` — the producing layer: `client`, `exec`, `fabric`,
///   `recover`, `explore`, `pool`.
/// * `<measure>` — a noun phrase in `snake_case`. Event counts are the bare
///   plural verb/noun (`fabric.reads`, `explore.preemptions`); byte counts
///   are `<verb>_bytes` (`fabric.read_bytes`); high-water marks end in
///   `_peak` (`explore.ready_peak`).
/// * `_<unit>` — appended when the value has one: `_ns` for virtual
///   nanoseconds (`client.latency_ns`, `recover.time_ns`). Unitless counts
///   take no suffix.
///
/// Importers ([`import_fabric`](Self::import_fabric),
/// [`import_explore`](Self::import_explore)) translate source-struct field
/// names into this scheme; the struct fields themselves are not part of the
/// metric namespace.
#[derive(Default)]
pub struct MetricsRegistry {
    enabled: std::sync::atomic::AtomicBool,
    hists: Mutex<std::collections::BTreeMap<&'static str, std::sync::Arc<Histogram>>>,
    counters: Mutex<std::collections::BTreeMap<&'static str, std::sync::Arc<Counter>>>,
}

impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("enabled", &self.is_enabled())
            .field("histograms", &self.hists.lock().len())
            .field("counters", &self.counters.lock().len())
            .finish()
    }
}

impl MetricsRegistry {
    /// Turns histogram recording on.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// One relaxed load: the gate every histogram recording site checks.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &'static str) -> std::sync::Arc<Histogram> {
        std::sync::Arc::clone(self.hists.lock().entry(name).or_default())
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &'static str) -> std::sync::Arc<Counter> {
        std::sync::Arc::clone(self.counters.lock().entry(name).or_default())
    }

    /// Snapshot of every histogram, sorted by name.
    pub fn histogram_snapshots(&self) -> Vec<(&'static str, HistogramSnapshot)> {
        self.hists
            .lock()
            .iter()
            .map(|(name, h)| (*name, h.snapshot()))
            .collect()
    }

    /// Snapshot of every counter, sorted by name.
    pub fn counter_values(&self) -> Vec<(&'static str, u64)> {
        self.counters
            .lock()
            .iter()
            .map(|(name, c)| (*name, c.get()))
            .collect()
    }

    /// Imports the fabric's verb counters under `fabric.*` names, giving
    /// benches one uniform read path instead of poking the raw atomics.
    pub fn import_fabric(&self, stats: &rdma_sim::FabricStats) {
        for (name, value) in [
            ("fabric.reads", &stats.reads),
            ("fabric.writes", &stats.writes),
            ("fabric.posted_writes", &stats.posted_writes),
            ("fabric.cas_ops", &stats.cas_ops),
            ("fabric.sends", &stats.sends),
            ("fabric.doorbells", &stats.doorbells),
            ("fabric.read_bytes", &stats.bytes_read),
            ("fabric.write_bytes", &stats.bytes_written),
        ] {
            self.counter(name).set(value.load(Ordering::Relaxed));
        }
    }

    /// Imports one schedule-exploration run's counters under `explore.*`
    /// names (cumulative across runs imported into the same registry), so
    /// exploration sweeps surface through the same read path as every
    /// other subsystem.
    pub fn import_explore(&self, report: &sim::ExploreReport) {
        self.counter("explore.schedules").add(1);
        self.counter("explore.steps").add(report.steps);
        self.counter("explore.preemptions").add(report.preemptions);
        self.counter("explore.violations")
            .add(report.violations.len() as u64);
        self.counter("explore.progress").add(report.progress);
        // High-water marks, not sums.
        let update_max = |name, v: u64| {
            let c = self.counter(name);
            if v > c.get() {
                c.set(v);
            }
        };
        update_max("explore.ready_peak", report.max_ready as u64);
        update_max("explore.wait_graph_peak", report.max_wait_graph as u64);
    }
}

/// One completed state transfer (Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferRecord {
    /// Payload bytes shipped (raw slot bytes).
    pub bytes: u64,
    /// Requester-observed duration: request written → status cleared.
    pub duration_ns: u64,
    /// Of the shipped bytes, how many belonged to `Native` objects (which
    /// paid (de)serialization).
    pub native_bytes: u64,
}

/// Cluster-wide metrics. Cheap to clone (shared handle).
#[derive(Default)]
pub struct Metrics {
    /// Client-observed end-to-end latencies (closed loop), ns.
    pub latencies: Mutex<Vec<u64>>,
    /// Completed client requests.
    pub completed: AtomicU64,
    /// Per-replica breakdowns (recorded by every replica of the lowest
    /// involved partition).
    pub breakdowns: Mutex<Vec<Breakdown>>,
    /// Wait-for-all counters, indexed by partition.
    pub delays: Vec<DelayCounters>,
    /// Completed state transfers.
    pub transfers: Mutex<Vec<TransferRecord>>,
    /// Requests skipped because state transfer already covered them.
    pub skipped_requests: AtomicU64,
    /// State transfers initiated (by laggers).
    pub transfers_started: AtomicU64,
    /// Named histograms and counters; disabled (one relaxed load per
    /// recording site) unless [`crate::HeronConfig::tracing`] is on.
    registry: MetricsRegistry,
}

impl fmt::Debug for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Metrics")
            .field("completed", &self.completed.load(Ordering::Relaxed))
            .field("latency_samples", &self.latencies.lock().len())
            .finish()
    }
}

impl Metrics {
    /// Creates metrics for a deployment of `partitions` partitions.
    pub fn new(partitions: usize) -> Self {
        Metrics {
            delays: (0..partitions).map(|_| DelayCounters::default()).collect(),
            ..Default::default()
        }
    }

    /// The cluster's named-metrics registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Records a client-observed latency.
    pub fn record_latency(&self, d: Duration) {
        self.record_latency_tagged(d, 0);
    }

    /// Records a client-observed latency tagged with the request uid, so
    /// the `client.latency_ns` histogram can retain it as a tail exemplar
    /// (uid 0 = untagged, exemplar-exempt).
    pub fn record_latency_tagged(&self, d: Duration, uid: u64) {
        let ns = d.as_nanos() as u64;
        self.latencies.lock().push(ns);
        self.completed.fetch_add(1, Ordering::Relaxed);
        if self.registry.is_enabled() {
            self.registry
                .histogram("client.latency_ns")
                .record_tagged(ns, uid);
        }
    }

    /// Records a replica-side breakdown sample.
    pub fn record_breakdown(&self, b: Breakdown) {
        if self.registry.is_enabled() {
            let r = &self.registry;
            r.histogram("exec.ordering_ns").record(b.ordering_ns);
            r.histogram("exec.parallel_ns").record(b.parallel_ns);
            r.histogram("exec.coordination_ns")
                .record(b.coordination_ns);
            r.histogram("exec.execution_ns").record(b.execution_ns);
        }
        self.breakdowns.lock().push(b);
    }

    /// Mean of the recorded latencies.
    pub fn mean_latency(&self) -> Duration {
        let l = self.latencies.lock();
        if l.is_empty() {
            return Duration::ZERO;
        }
        Duration::from_nanos(l.iter().sum::<u64>() / l.len() as u64)
    }

    /// The `q`-quantile (0.0–1.0, clamped) of recorded latencies; zero
    /// when no samples were recorded.
    pub fn latency_quantile(&self, q: f64) -> Duration {
        let mut l = self.latencies.lock().clone();
        if l.is_empty() {
            return Duration::ZERO;
        }
        l.sort_unstable();
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        let idx = ((l.len() - 1) as f64 * q).round() as usize;
        Duration::from_nanos(l[idx])
    }

    /// Sorted copy of all latency samples (for CDF plots).
    pub fn latency_samples_sorted(&self) -> Vec<u64> {
        let mut l = self.latencies.lock().clone();
        l.sort_unstable();
        l
    }

    /// Fig. 6's stages averaged over the rows `keep` selects (all zero
    /// when none) — the one fold every figure, harness and example reads
    /// the stage breakdown through.
    pub fn mean_breakdown(&self, keep: impl Fn(&Breakdown) -> bool) -> StageMeans {
        let rows = self.breakdowns.lock();
        let kept: Vec<&Breakdown> = rows.iter().filter(|b| keep(b)).collect();
        let n = kept.len() as u64;
        let mean = |stage: fn(&Breakdown) -> u64| {
            let sum: u64 = kept.iter().map(|b| stage(b)).sum();
            Duration::from_nanos(sum.checked_div(n).unwrap_or(0))
        };
        StageMeans {
            n,
            ordering: mean(|b| b.ordering_ns),
            dispatch: mean(|b| b.parallel_ns),
            coordination: mean(|b| b.coordination_ns),
            execution: mean(|b| b.execution_ns),
        }
    }

    /// Throughput over a measurement window; zero for an empty window
    /// (instead of `inf`/`NaN` from the division).
    pub fn throughput(&self, window: Duration) -> f64 {
        if window.is_zero() {
            return 0.0;
        }
        self.completed.load(Ordering::Relaxed) as f64 / window.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_stats() {
        let m = Metrics::new(2);
        for us in [10u64, 20, 30, 40] {
            m.record_latency(Duration::from_micros(us));
        }
        assert_eq!(m.mean_latency(), Duration::from_micros(25));
        assert_eq!(m.latency_quantile(0.0), Duration::from_micros(10));
        assert_eq!(m.latency_quantile(1.0), Duration::from_micros(40));
        assert_eq!(m.completed.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn delay_counters_summarize() {
        let c = DelayCounters::default();
        c.total.store(100, Ordering::Relaxed);
        c.delayed.store(8, Ordering::Relaxed);
        c.delay_sum_ns.store(8 * 4_000, Ordering::Relaxed);
        let (frac, avg) = c.summary();
        assert!((frac - 0.08).abs() < 1e-9);
        assert_eq!(avg, Duration::from_nanos(4_000));
    }

    #[test]
    fn delay_counters_zero_total_is_all_zero() {
        let c = DelayCounters::default();
        let (frac, avg) = c.summary();
        assert_eq!(frac, 0.0);
        assert_eq!(avg, Duration::ZERO);
    }

    #[test]
    fn delay_counters_zero_delayed_has_zero_average() {
        // Transactions coordinated, none delayed: the fraction is 0 and the
        // conditional average must be 0, not a division by zero.
        let c = DelayCounters::default();
        c.total.store(50, Ordering::Relaxed);
        let (frac, avg) = c.summary();
        assert_eq!(frac, 0.0);
        assert_eq!(avg, Duration::ZERO);
    }

    #[test]
    fn delay_counters_all_delayed() {
        let c = DelayCounters::default();
        c.total.store(10, Ordering::Relaxed);
        c.delayed.store(10, Ordering::Relaxed);
        c.delay_sum_ns.store(10 * 1_500, Ordering::Relaxed);
        let (frac, avg) = c.summary();
        assert!((frac - 1.0).abs() < 1e-9);
        assert_eq!(avg, Duration::from_nanos(1_500));
    }

    #[test]
    fn histogram_buckets_are_contiguous_and_monotone() {
        // Every value maps to a bucket whose representative is ≤ the value
        // and within 1/16 of it; indices are monotone in the value.
        let mut prev = 0;
        for v in (0..2_000u64).chain([1 << 20, (1 << 20) + 12_345, u64::MAX]) {
            let i = hist_index(v);
            assert!(i < HIST_BUCKETS);
            assert!(i >= prev, "index not monotone at {v}");
            prev = i;
            let lo = hist_value(i);
            assert!(lo <= v);
            assert!(v - lo <= (v >> 4).max(1), "bucket too wide at {v}");
        }
    }

    #[test]
    fn histogram_quantiles() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0, "empty histogram");
        for v in 1..=1000u64 {
            h.record(v * 1_000); // 1µs .. 1ms
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        let p999 = h.quantile(0.999);
        // Log-bucket resolution: within 1/16 of the exact answer.
        assert!((469_000..=500_000).contains(&p50), "p50={p50}");
        assert!((928_000..=990_000).contains(&p99), "p99={p99}");
        assert!(p999 >= p99 && p999 <= 1_000_000, "p999={p999}");
        let p100 = h.quantile(1.0);
        assert!(p100 >= p999 && p100 <= h.max());
        assert_eq!(h.max(), 1_000_000);
        assert_eq!(h.mean(), 500_500);
    }

    #[test]
    fn registry_is_gated_and_deterministic() {
        let m = Metrics::new(1);
        // Disabled: record paths don't populate the registry.
        m.record_latency(Duration::from_micros(10));
        assert_eq!(m.registry().histogram_snapshots().len(), 0);
        // Enabled: they do, and names come back sorted.
        m.registry().enable();
        m.record_latency(Duration::from_micros(10));
        m.record_breakdown(Breakdown {
            ordering_ns: 5,
            parallel_ns: 0,
            coordination_ns: 7,
            execution_ns: 9,
            partitions: 2,
            at_partition: 0,
        });
        let names: Vec<&str> = m
            .registry()
            .histogram_snapshots()
            .iter()
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(
            names,
            [
                "client.latency_ns",
                "exec.coordination_ns",
                "exec.execution_ns",
                "exec.ordering_ns",
                "exec.parallel_ns"
            ]
        );
        assert_eq!(m.registry().histogram("client.latency_ns").count(), 1);
        m.registry().counter("fabric.reads").add(3);
        assert_eq!(m.registry().counter_values(), vec![("fabric.reads", 3)]);
    }

    #[test]
    fn exemplars_keep_the_k_slowest_tagged_samples() {
        let h = Histogram::default();
        for uid in 1..=20u64 {
            h.record_tagged(uid * 100, uid);
        }
        h.record_tagged(5, 0); // untagged: counted, never an exemplar
        let ex = h.exemplars();
        assert_eq!(ex.len(), EXEMPLAR_K);
        assert_eq!(ex[0], (2000, 20), "slowest first");
        assert_eq!(ex[EXEMPLAR_K - 1], (1300, 13));
        assert!(ex.windows(2).all(|w| w[0].0 >= w[1].0), "sorted descending");
        assert_eq!(h.count(), 21, "tagging never changes the distribution");
    }

    #[test]
    fn importer_names_follow_the_documented_scheme() {
        // Byte counts are `<verb>_bytes`, peaks end in `_peak`: the drift
        // the scheme in the `MetricsRegistry` docs exists to prevent.
        let m = Metrics::new(1);
        m.registry().enable();
        m.registry()
            .import_fabric(&rdma_sim::FabricStats::default());
        let names: Vec<&str> = m
            .registry()
            .counter_values()
            .iter()
            .map(|(n, _)| *n)
            .collect();
        assert!(names.contains(&"fabric.read_bytes"));
        assert!(names.contains(&"fabric.write_bytes"));
        assert!(!names.contains(&"fabric.bytes_read"), "old name retired");
        for n in names {
            let (subsys, rest) = n.split_once('.').expect("subsystem prefix");
            assert!(!subsys.is_empty() && !rest.is_empty());
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_lowercase() || c == '.' || c == '_'),
                "non-conforming name {n}"
            );
        }
    }

    #[test]
    fn breakdown_filtering() {
        let m = Metrics::new(1);
        m.record_breakdown(Breakdown {
            ordering_ns: 10,
            parallel_ns: 0,
            coordination_ns: 0,
            execution_ns: 20,
            partitions: 1,
            at_partition: 0,
        });
        m.record_breakdown(Breakdown {
            ordering_ns: 30,
            parallel_ns: 2,
            coordination_ns: 4,
            execution_ns: 40,
            partitions: 4,
            at_partition: 0,
        });
        assert_eq!(
            m.mean_breakdown(|b| b.partitions == 4),
            StageMeans {
                n: 1,
                ordering: Duration::from_nanos(30),
                dispatch: Duration::from_nanos(2),
                coordination: Duration::from_nanos(4),
                execution: Duration::from_nanos(40),
            }
        );
        assert_eq!(
            m.mean_breakdown(|_| true).ordering,
            Duration::from_nanos(20)
        );
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = Metrics::new(1);
        assert_eq!(m.mean_latency(), Duration::ZERO);
        assert_eq!(m.latency_quantile(0.5), Duration::ZERO);
        assert_eq!(m.mean_breakdown(|_| true), StageMeans::default());
    }

    #[test]
    fn throughput_of_empty_window_is_zero_not_nan() {
        let m = Metrics::new(1);
        assert_eq!(m.throughput(Duration::ZERO), 0.0);
        m.record_latency(Duration::from_micros(5));
        // Even with completions, a zero window must not divide by zero.
        assert_eq!(m.throughput(Duration::ZERO), 0.0);
        assert_eq!(m.throughput(Duration::from_secs(1)), 1.0);
    }

    #[test]
    fn quantile_arguments_are_clamped() {
        let m = Metrics::new(1);
        for us in [10u64, 20, 30] {
            m.record_latency(Duration::from_micros(us));
        }
        assert_eq!(m.latency_quantile(-1.0), Duration::from_micros(10));
        assert_eq!(m.latency_quantile(2.0), Duration::from_micros(30));
        assert_eq!(m.latency_quantile(f64::NAN), Duration::from_micros(10));
    }
}
