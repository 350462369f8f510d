//! Shared load-generation harness: spawn a deployment, drive it with
//! closed-loop clients, and summarize throughput/latency over a
//! measurement window of virtual time.

use crate::null::NullApp;
use dynastar::{DynaStar, DynaStarConfig};
use heron_core::{
    Breakdown, HeronCluster, HeronConfig, Metrics, PartitionId, StageMeans, StateMachine,
};
use rdma_sim::{Fabric, FaultPlan, LatencyModel};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;
use tpcc::{TpccApp, TpccScale};

/// Dataset scale of every TPC-C workload run here.
const SCALE: TpccScale = TpccScale::bench();

/// Which workload the clients issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The standard TPC-C mix (≈10 % multi-partition).
    Tpcc,
    /// TPC-C with every access forced to the home warehouse (Fig. 4's
    /// "Local Tpcc").
    TpccLocal,
    /// Null requests with TPC-C's destination distribution (Fig. 4's
    /// "Heron" bars: coordination without execution).
    Null,
    /// Null requests, single-partition only (approximates Fig. 4's
    /// "Ramcast" bars: the ordering layer plus a reply, with no
    /// coordination and no execution).
    NullLocal,
}

/// Parameters of one load run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Simulation seed.
    pub seed: u64,
    /// Partitions.
    pub partitions: usize,
    /// Warehouses hosted by each partition (TPC-C workloads; default 1,
    /// the paper's shape). More than one gives a parallel executor pool
    /// disjoint conflict classes to exploit.
    pub warehouses_per_partition: u16,
    /// Execution lanes per replica (1 = the delivery driver's inline lane).
    pub executor_width: usize,
    /// Replicas per partition.
    pub replicas: usize,
    /// Closed-loop clients.
    pub clients: usize,
    /// Virtual warm-up time before measuring.
    pub warmup: Duration,
    /// Virtual measurement window.
    pub window: Duration,
    /// Workload.
    pub workload: Workload,
    /// Override for Heron's Phase-4 wait-for-all delay: `None` keeps the
    /// default; `Some(None)` disables the heuristic; `Some(Some(δ))` sets
    /// it.
    pub wait_for_all: Option<Option<Duration>>,
    /// End-to-end batching cap (ordering-layer group commit and
    /// doorbell-coalesced verbs). `1` = unbatched, the paper's baseline
    /// system.
    pub max_batch: usize,
    /// Fixed-work mode: when set, each client issues exactly this many
    /// requests and the run measures the whole execution (virtual time,
    /// simulator events, and wall clock for an identical request set)
    /// instead of counting completions inside a fixed window. `warmup` and
    /// `window` are ignored.
    pub requests: Option<u64>,
    /// Enables the Sim-TSan race detector for the run (Heron only); the
    /// summary's `audit` field then carries the reports and counters.
    pub race_detector: bool,
    /// Enables virtual-time tracing for the run (Heron only); the
    /// summary's `tracer` field then carries the recorded spans.
    pub tracing: bool,
    /// Enables the Sim-Prof wait-state profiler (Heron only); the
    /// summary's `prof` field then carries the report. Like tracing and
    /// the race detector, schedules stay bit-identical either way.
    pub profiling: bool,
    /// Schedule exploration (Heron only): turns every same-instant ready
    /// set into an explicit choice point driven by the configured strategy
    /// and arms the deadlock/livelock detectors; the summary's `explore`
    /// field then carries the report. `None` (the default) costs one flag
    /// test per pop and leaves schedules bit-identical.
    pub explore: Option<sim::ExploreConfig>,
    /// Chaos plan (Heron only): crash the last replica of partition 0 at
    /// the first virtual time and recover it at the second, exercising
    /// crash handling and state transfer under load.
    pub crash: Option<(Duration, Duration)>,
}

impl RunConfig {
    /// A standard configuration for the given shape.
    pub fn new(partitions: usize, replicas: usize, workload: Workload) -> Self {
        RunConfig {
            seed: 42,
            partitions,
            warehouses_per_partition: 1,
            executor_width: 1,
            replicas,
            // The paper saturates at ~2 outstanding requests per
            // partition (53 ktps × 35.7 µs ≈ 1.9 at 2P); a few clients per
            // partition reach peak throughput without deep queues.
            clients: (partitions * 4).clamp(4, 80),
            warmup: Duration::from_millis(5),
            window: Duration::from_millis(25),
            workload,
            wait_for_all: None,
            max_batch: 1,
            requests: None,
            race_detector: false,
            tracing: false,
            profiling: false,
            explore: None,
            crash: None,
        }
    }

    /// Enables schedule exploration with the given configuration.
    #[must_use]
    pub fn with_explore(mut self, cfg: sim::ExploreConfig) -> Self {
        self.explore = Some(cfg);
        self
    }

    /// Sets the executor-pool width per replica.
    #[must_use]
    pub fn with_width(mut self, width: usize) -> Self {
        self.executor_width = width;
        self
    }

    /// Sets how many warehouses each partition hosts (TPC-C workloads).
    #[must_use]
    pub fn with_warehouses_per_partition(mut self, wpp: u16) -> Self {
        assert!(wpp >= 1, "at least one warehouse per partition");
        self.warehouses_per_partition = wpp;
        self
    }

    /// Enables (or disables) the Sim-TSan race detector.
    #[must_use]
    pub fn with_race_detector(mut self, on: bool) -> Self {
        self.race_detector = on;
        self
    }

    /// Enables (or disables) virtual-time tracing.
    #[must_use]
    pub fn with_tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// Enables (or disables) the Sim-Prof wait-state profiler.
    #[must_use]
    pub fn with_profiling(mut self, on: bool) -> Self {
        self.profiling = on;
        self
    }

    /// Schedules a crash of partition 0's last replica at `down`, recovered
    /// at `up`.
    #[must_use]
    pub fn with_crash(mut self, down: Duration, up: Duration) -> Self {
        assert!(up > down, "recovery must come after the crash");
        self.crash = Some((down, up));
        self
    }

    /// Sets the end-to-end batching cap.
    #[must_use]
    pub fn with_max_batch(mut self, n: usize) -> Self {
        self.max_batch = n;
        self
    }

    /// Switches to fixed-work mode: every client issues exactly `n`
    /// requests, then the run ends.
    #[must_use]
    pub fn with_requests(mut self, n: u64) -> Self {
        self.requests = Some(n);
        self
    }

    /// Shrinks the run for `--quick` smoke mode.
    #[must_use]
    pub fn quick(mut self, quick: bool) -> Self {
        if quick {
            self.warmup = Duration::from_millis(2);
            self.window = Duration::from_millis(8);
            self.clients = self.clients.min(32);
        }
        self
    }
}

/// Race-detector output of one run (`None` when the detector was off).
#[derive(Debug, Clone)]
pub struct RaceAuditSummary {
    /// Every race and protocol-lint report the run produced.
    pub reports: Vec<rdma_sim::RaceReport>,
    /// Detector counters (coverage evidence: how much was checked).
    pub stats: rdma_sim::DetectorStats,
}

/// The result of one load run.
#[derive(Debug, Clone, Default)]
pub struct LoadSummary {
    /// Completed requests per second of virtual time.
    pub tps: f64,
    /// Mean end-to-end latency.
    pub mean: Duration,
    /// Latency percentiles over the measurement window: (p50, p95, p99).
    pub p50: Duration,
    /// 95th percentile.
    pub p95: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// Sorted latency samples (µs) for CDF plots: the window's, or in
    /// fixed-work mode every request's.
    pub samples_us: Vec<f64>,
    /// Replica-side stage means of single-partition requests.
    pub single: StageMeans,
    /// Replica-side stage means of multi-partition requests.
    pub multi: StageMeans,
    /// Replica-side stage means of all requests.
    pub all: StageMeans,
    /// The window's raw [`Breakdown`] rows, the ones the three above
    /// average.
    pub breakdowns: Vec<Breakdown>,
    /// Per-partition wait-for-all stats: (delayed fraction, mean delay).
    pub delays: Vec<(f64, Duration)>,
    /// State transfers initiated during the run (lagger events).
    pub transfers_started: u64,
    /// State transfers that ran to completion (snapshot applied and
    /// adopted by the requester).
    pub transfers_completed: usize,
    /// Scheduler events the simulator executed for the whole run (warm-up
    /// included) — the wall-clock cost driver: every event is a pop by
    /// the host loop, most of them a switch into a process and back.
    pub events: u64,
    /// Host wall-clock time for the whole run, milliseconds.
    pub wall_ms: f64,
    /// Race-detector reports and counters (`None` when the detector was
    /// off, always `None` for the DynaStar baseline).
    pub audit: Option<RaceAuditSummary>,
    /// Final virtual time of the run, nanoseconds — with `events`, the
    /// schedule fingerprint determinism checks compare.
    pub virtual_ns: u64,
    /// Order-sensitive FNV fold over every scheduler pop (see
    /// [`sim::Simulation::schedule_hash`]): equal hashes mean the exact
    /// same event schedule (pinned in `tests/schedule_hash.rs`).
    pub schedule_hash: u64,
    /// The run's trace (`None` when tracing was off, always `None` for
    /// the DynaStar baseline).
    pub tracer: Option<sim::trace::Tracer>,
    /// Schedule-exploration report (`None` when exploration was off,
    /// always `None` for the DynaStar baseline).
    pub explore: Option<sim::ExploreReport>,
    /// Sim-Prof report (`None` when profiling was off, always `None` for
    /// the DynaStar baseline).
    pub prof: Option<sim::prof::ProfReport>,
}

/// The `q`-quantile of a sorted slice of samples: the nearest-rank
/// element, zero for no samples.
pub fn quantile<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// Runs `simulation` — whose clients `metrics` records — through `cfg`'s
/// warm-up and measurement window, or to the end in fixed-work mode, and
/// summarizes what the window recorded: throughput, mean and percentile
/// latency, the sorted samples, and the window's [`Breakdown`] rows. Every
/// other field is left empty.
fn measure(simulation: &sim::Simulation, cfg: &RunConfig, metrics: &Metrics) -> LoadSummary {
    let (completed0, samples0, window_secs) = if cfg.requests.is_some() {
        // Fixed work: measure the whole run, cold start included — both
        // sides of a comparison pay it identically.
        simulation.run().expect("fixed-work run");
        (0, 0, simulation.now().as_nanos() as f64 / 1e9)
    } else {
        simulation
            .run_until(sim::SimTime::ZERO + cfg.warmup)
            .expect("warmup");
        let mark = (
            metrics.completed.load(Ordering::Relaxed),
            metrics.latencies.lock().len(),
        );
        metrics.breakdowns.lock().clear(); // rows are window-only from here
        let end = sim::SimTime::ZERO + cfg.warmup + cfg.window;
        simulation.run_until(end).expect("measurement window");
        (mark.0, mark.1, cfg.window.as_secs_f64())
    };
    let completed = metrics.completed.load(Ordering::Relaxed) - completed0;
    let mut samples = metrics.latencies.lock()[samples0..].to_vec();
    samples.sort_unstable();
    let mean = if samples.is_empty() {
        Duration::ZERO
    } else {
        Duration::from_nanos(samples.iter().sum::<u64>() / samples.len() as u64)
    };
    let at = |q| Duration::from_nanos(quantile(&samples, q));
    LoadSummary {
        tps: completed as f64 / window_secs,
        mean,
        p50: at(0.5),
        p95: at(0.95),
        p99: at(0.99),
        samples_us: samples.iter().map(|&ns| ns as f64 / 1_000.0).collect(),
        breakdowns: metrics.breakdowns.lock().clone(),
        ..LoadSummary::default()
    }
}

/// Builds a Heron deployment for `cfg` and drives it with closed-loop
/// clients; returns the measured summary.
pub fn run_heron(cfg: &RunConfig) -> LoadSummary {
    run_heron_on(cfg, &Fabric::new(LatencyModel::connectx4()))
}

/// [`run_heron`] on a fabric the caller prepared — e.g. one a detector
/// self-test armed with [`Fabric::sabotage`].
pub fn run_heron_on(cfg: &RunConfig, fabric: &Fabric) -> LoadSummary {
    let wall_start = std::time::Instant::now();
    let simulation = sim::Simulation::new(cfg.seed);
    if let Some(ex) = &cfg.explore {
        simulation.enable_exploration(ex.clone());
    }
    let profiler = cfg.profiling.then(|| simulation.enable_profiling());
    let warehouses = cfg.partitions as u16 * cfg.warehouses_per_partition;
    let app: Arc<dyn StateMachine> = match cfg.workload {
        Workload::Tpcc | Workload::TpccLocal => {
            Arc::new(TpccApp::new(SCALE, warehouses).with_partitions(cfg.partitions as u16))
        }
        Workload::Null | Workload::NullLocal => Arc::new(NullApp::new(cfg.partitions as u16)),
    };
    let mut hcfg = HeronConfig::new(cfg.partitions, cfg.replicas)
        .with_max_clients(cfg.clients + 2)
        .with_executor_width(cfg.executor_width);
    if let Some(delta) = cfg.wait_for_all {
        hcfg = hcfg.with_wait_for_all(delta);
    }
    hcfg = hcfg
        .with_max_batch(cfg.max_batch)
        .with_race_detector(cfg.race_detector)
        .with_tracing(cfg.tracing);
    let cluster = HeronCluster::build(fabric, hcfg, app);
    cluster.spawn(&simulation);

    if let Some((down, up)) = cfg.crash {
        let victim = cluster.replica_node(PartitionId(0), cfg.replicas - 1).id();
        FaultPlan::new(cfg.seed)
            .crash_at(victim, down)
            .recover_at(victim, up)
            .arm(&simulation, fabric);
    }

    let end = sim::SimTime::ZERO + cfg.warmup + cfg.window;
    let fixed_requests = cfg.requests;
    let live_clients = Arc::new(std::sync::atomic::AtomicUsize::new(cfg.clients));
    for c in 0..cfg.clients {
        let mut client = cluster.client(format!("c{c}"));
        let workload = cfg.workload;
        let partitions = cfg.partitions as u16;
        let seed = cfg.seed * 1000 + c as u64;
        let live = live_clients.clone();
        simulation.spawn(format!("client-{c}"), move || {
            let mut gen = tpcc::TpccGen::new(SCALE, warehouses, seed);
            if workload == Workload::TpccLocal {
                gen.local_only = true;
            }
            let home = (c as u16 % warehouses) + 1;
            let mut issued = 0u64;
            loop {
                match fixed_requests {
                    Some(n) if issued >= n => break,
                    None if sim::now() >= end => break,
                    _ => {}
                }
                match workload {
                    Workload::Tpcc | Workload::TpccLocal => {
                        client.execute(&gen.next(home).encode());
                    }
                    Workload::Null => {
                        // Mirror the TPC-C destination distribution.
                        let mut dests: Vec<PartitionId> = gen
                            .next(home)
                            .warehouses()
                            .into_iter()
                            .map(|w| PartitionId((w - 1) % partitions))
                            .collect();
                        dests.sort_unstable();
                        dests.dedup();
                        client.execute_on(&NullApp::request(&dests), &dests);
                    }
                    Workload::NullLocal => {
                        let dests = [PartitionId((home - 1) % partitions)];
                        client.execute_on(&NullApp::request(&dests), &dests);
                    }
                }
                issued += 1;
            }
            // In fixed-work mode the last client to finish ends the run.
            if fixed_requests.is_some() && live.fetch_sub(1, Ordering::Relaxed) == 1 {
                sim::stop();
            }
        });
    }

    let metrics = cluster.metrics();
    let window = measure(&simulation, cfg, &metrics);
    let delays = metrics
        .delays
        .iter()
        .map(|d| d.summary())
        .collect::<Vec<_>>();
    let transfers_completed = metrics.transfers.lock().len();

    LoadSummary {
        single: metrics.mean_breakdown(|b| b.partitions == 1),
        multi: metrics.mean_breakdown(|b| b.partitions > 1),
        all: metrics.mean_breakdown(|_| true),
        delays,
        transfers_started: metrics.transfers_started.load(Ordering::Relaxed),
        transfers_completed,
        events: simulation.events_executed(),
        wall_ms: wall_start.elapsed().as_secs_f64() * 1_000.0,
        audit: cluster.race_detector().map(|d| RaceAuditSummary {
            reports: d.reports(),
            stats: d.stats(),
        }),
        virtual_ns: simulation.now().as_nanos(),
        schedule_hash: simulation.schedule_hash(),
        tracer: cluster.tracer(),
        explore: simulation.explore_report(),
        prof: profiler.map(|p| p.report()),
        ..window
    }
}

/// Drives the DynaStar baseline with the TPC-C mix for `cfg`'s warm-up and
/// window (its clients have no fixed-work mode); returns the summary.
pub fn run_dynastar_tpcc(cfg: &RunConfig) -> LoadSummary {
    let wall_start = std::time::Instant::now();
    let simulation = sim::Simulation::new(cfg.seed);
    let app = Arc::new(TpccApp::new(SCALE, cfg.partitions as u16));
    let ds = DynaStar::build(
        DynaStarConfig::new(cfg.partitions, cfg.replicas),
        app.clone(),
    );
    ds.spawn(&simulation);

    let end = sim::SimTime::ZERO + cfg.warmup + cfg.window;
    for c in 0..cfg.clients {
        let mut client = ds.client(format!("c{c}"));
        let partitions = cfg.partitions as u16;
        let seed = cfg.seed * 1000 + c as u64;
        simulation.spawn(format!("ds-client-{c}"), move || {
            let mut gen = tpcc::TpccGen::new(SCALE, partitions, seed);
            let home = (c as u16 % partitions) + 1;
            while sim::now() < end {
                client.execute(&gen.next(home).encode());
            }
        });
    }

    let window = measure(&simulation, cfg, &ds.metrics());
    LoadSummary {
        events: simulation.events_executed(),
        wall_ms: wall_start.elapsed().as_secs_f64() * 1_000.0,
        virtual_ns: simulation.now().as_nanos(),
        schedule_hash: simulation.schedule_hash(),
        ..window
    }
}
