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
    /// Cold restarts finished: power-cycled replicas rebuilt from their
    /// checkpoint and WAL tail (DESIGN.md §14).
    pub cold_restarts: AtomicU64,
    /// WAL-tail frames the cold restarts fed through the delivery path.
    pub replayed_frames: AtomicU64,
    /// Virtual ns the cold restarts took, summed: restart → last replayed
    /// command finished.
    pub recovery_ns: AtomicU64,
    /// Checkpoints taken (and truncated behind).
    pub checkpoints: AtomicU64,
    /// Ordering-WAL frames checkpoints truncated.
    pub wal_truncated_frames: AtomicU64,
}

impl fmt::Debug for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Metrics")
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

    /// Records a client-observed latency.
    pub fn record_latency(&self, d: Duration) {
        self.latencies.lock().push(d.as_nanos() as u64);
    }

    /// Records a replica-side breakdown sample.
    pub fn record_breakdown(&self, b: Breakdown) {
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

    /// The [`quantile`] `q` of recorded latencies; zero when no samples
    /// were recorded.
    pub fn latency_quantile(&self, q: f64) -> Duration {
        let mut l = self.latencies.lock().clone();
        l.sort_unstable();
        Duration::from_nanos(quantile(&l, q))
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
}

/// The `q`-quantile (0.0–1.0, clamped; NaN reads as 0) of a sorted slice
/// of samples: the nearest-rank element, `T::default()` for no samples.
/// The one quantile routine: [`Metrics::latency_quantile`] and the figure
/// binaries' percentiles both go through it.
pub fn quantile<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
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
        assert_eq!(m.latencies.lock().len(), 4);
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
