//! Shared load-generation harness: spawn a deployment, drive it with
//! closed-loop clients, and summarize throughput/latency over a
//! measurement window of virtual time.

use crate::null::NullApp;
use dynastar::{DynaStar, DynaStarConfig};
use heron_core::{
    quantile, Breakdown, HeronCluster, HeronConfig, Metrics, PartitionId, StageMeans, StateMachine,
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

/// Parameters of one load run: the deployment it builds and the load
/// that drives it.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The deployment: shape, executor width, batching, wait-for-all.
    /// The harness sizes its `max_clients` from [`RunConfig::clients`].
    pub heron: HeronConfig,
    /// Simulation seed.
    pub seed: u64,
    /// Warehouses hosted by each partition (TPC-C workloads; default 1,
    /// the paper's shape). More than one gives a parallel executor pool
    /// disjoint conflict classes to exploit.
    pub warehouses_per_partition: u16,
    /// Closed-loop clients.
    pub clients: usize,
    /// Virtual warm-up time before measuring.
    pub warmup: Duration,
    /// Virtual measurement window.
    pub window: Duration,
    /// Workload.
    pub workload: Workload,
    /// Fixed-work mode: when set, each client issues exactly this many
    /// requests and the run measures the whole execution (virtual time,
    /// simulator events, and wall clock for an identical request set)
    /// instead of counting completions inside a fixed window. `warmup` and
    /// `window` are ignored.
    pub requests: Option<u64>,
    /// Chaos plan (Heron only): crash the last replica of partition 0 at
    /// the first virtual time and recover it at the second, exercising
    /// crash handling and state transfer under load.
    pub crash: Option<(Duration, Duration)>,
}

impl RunConfig {
    /// A standard load on the deployment `heron`.
    pub fn new(heron: HeronConfig, workload: Workload) -> Self {
        RunConfig {
            // The paper saturates at ~2 outstanding requests per
            // partition (53 ktps × 35.7 µs ≈ 1.9 at 2P); a few clients per
            // partition reach peak throughput without deep queues.
            clients: (heron.partitions * 4).clamp(4, 80),
            heron,
            seed: 42,
            warehouses_per_partition: 1,
            warmup: Duration::from_millis(5),
            window: Duration::from_millis(25),
            workload,
            requests: None,
            crash: None,
        }
    }

    /// Sets how many warehouses each partition hosts (TPC-C workloads).
    #[must_use]
    pub fn with_warehouses_per_partition(mut self, wpp: u16) -> Self {
        assert!(wpp >= 1, "at least one warehouse per partition");
        self.warehouses_per_partition = wpp;
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

/// The result of one load run.
#[derive(Debug, Clone, Default)]
pub struct LoadSummary {
    /// Completed requests per second of virtual time.
    pub tps: f64,
    /// Mean end-to-end latency.
    pub mean: Duration,
    /// 99th-percentile latency over the measurement window.
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
    /// Scheduler events the simulator executed for the whole run (warm-up
    /// included) — the wall-clock cost driver: every event is a pop by
    /// the host loop, most of them a switch into a process and back.
    pub events: u64,
    /// Host wall-clock time for the whole run, milliseconds.
    pub wall_ms: f64,
    /// Final virtual time of the run, nanoseconds — with `events`, the
    /// schedule fingerprint determinism checks compare.
    pub virtual_ns: u64,
    /// Order-sensitive FNV fold over every scheduler pop (see
    /// [`sim::Simulation::schedule_hash`]): equal hashes mean the exact
    /// same event schedule (pinned in `tests/schedule_hash.rs`).
    pub schedule_hash: u64,
}

/// Runs `simulation` — whose clients `metrics` records — through `cfg`'s
/// warm-up and measurement window, or to the end in fixed-work mode, and
/// summarizes what the window recorded: throughput, mean and percentile
/// latency, the sorted samples, and the window's [`Breakdown`] rows. Every
/// other field is left empty.
fn measure(simulation: &sim::Simulation, cfg: &RunConfig, metrics: &Metrics) -> LoadSummary {
    let (samples0, window_secs) = if cfg.requests.is_some() {
        // Fixed work: measure the whole run, cold start included — both
        // sides of a comparison pay it identically.
        simulation.run().expect("fixed-work run");
        (0, simulation.now().as_nanos() as f64 / 1e9)
    } else {
        simulation
            .run_until(sim::SimTime::ZERO + cfg.warmup)
            .expect("warmup");
        let mark = metrics.latencies.lock().len();
        metrics.breakdowns.lock().clear(); // rows are window-only from here
        let end = sim::SimTime::ZERO + cfg.warmup + cfg.window;
        simulation.run_until(end).expect("measurement window");
        (mark, cfg.window.as_secs_f64())
    };
    let mut samples = metrics.latencies.lock()[samples0..].to_vec();
    samples.sort_unstable();
    let mean = if samples.is_empty() {
        Duration::ZERO
    } else {
        Duration::from_nanos(samples.iter().sum::<u64>() / samples.len() as u64)
    };
    LoadSummary {
        tps: samples.len() as f64 / window_secs,
        mean,
        p99: Duration::from_nanos(quantile(&samples, 0.99)),
        samples_us: samples.iter().map(|&ns| ns as f64 / 1_000.0).collect(),
        breakdowns: metrics.breakdowns.lock().clone(),
        ..LoadSummary::default()
    }
}

/// Builds a Heron deployment for `cfg` on a fresh simulation and fabric
/// and drives it with closed-loop clients; returns the measured summary.
pub fn run_heron(cfg: &RunConfig) -> LoadSummary {
    let simulation = sim::Simulation::new(cfg.seed);
    run_heron_on(cfg, &simulation, &Fabric::new(LatencyModel::connectx4()))
}

/// [`run_heron`] on a simulation (seeded with `cfg.seed`) and an empty
/// fabric the caller prepared: whatever is switched on them before — the
/// race detector, tracing, profiling, exploration, a self-test's
/// [`Fabric::sabotage`] — rides along, and the caller reads its results
/// from the handle that switched it on.
pub fn run_heron_on(cfg: &RunConfig, simulation: &sim::Simulation, fabric: &Fabric) -> LoadSummary {
    let wall_start = std::time::Instant::now();
    let partitions = cfg.heron.partitions as u16;
    let warehouses = partitions * cfg.warehouses_per_partition;
    let app: Arc<dyn StateMachine> = match cfg.workload {
        Workload::Tpcc | Workload::TpccLocal => {
            Arc::new(TpccApp::new(SCALE, warehouses).with_partitions(partitions))
        }
        Workload::Null | Workload::NullLocal => Arc::new(NullApp::new(partitions)),
    };
    let hcfg = cfg.heron.clone().with_max_clients(cfg.clients + 2);
    let cluster = HeronCluster::build(fabric, hcfg, app);
    cluster.spawn(simulation);

    if let Some((down, up)) = cfg.crash {
        let last = cfg.heron.replicas_per_partition - 1;
        let victim = cluster.replica_node(PartitionId(0), last).id();
        FaultPlan::new(cfg.seed)
            .crash_at(victim, down)
            .recover_at(victim, up)
            .arm(simulation, fabric);
    }

    let end = sim::SimTime::ZERO + cfg.warmup + cfg.window;
    let fixed_requests = cfg.requests;
    let live_clients = Arc::new(std::sync::atomic::AtomicUsize::new(cfg.clients));
    for c in 0..cfg.clients {
        let mut client = cluster.client(format!("c{c}"));
        let workload = cfg.workload;
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
    let window = measure(simulation, cfg, &metrics);
    let delays = metrics
        .delays
        .iter()
        .map(|d| d.summary())
        .collect::<Vec<_>>();
    LoadSummary {
        single: metrics.mean_breakdown(|b| b.partitions == 1),
        multi: metrics.mean_breakdown(|b| b.partitions > 1),
        all: metrics.mean_breakdown(|_| true),
        delays,
        transfers_started: metrics.transfers_started.load(Ordering::Relaxed),
        events: simulation.events_executed(),
        wall_ms: wall_start.elapsed().as_secs_f64() * 1_000.0,
        virtual_ns: simulation.now().as_nanos(),
        schedule_hash: simulation.schedule_hash(),
        ..window
    }
}

/// One point of Fig. 5: Heron, then DynaStar, on TPC-C with `partitions`
/// warehouses. DynaStar gets fewer clients: its leaders saturate with far
/// fewer, and its latency is measured at that load.
pub fn fig5_point(partitions: usize, quick: bool) -> (LoadSummary, LoadSummary) {
    let cfg = RunConfig::new(HeronConfig::new(partitions, 3), Workload::Tpcc).quick(quick);
    let heron = run_heron(&cfg);
    let dynastar = run_dynastar_tpcc(&RunConfig {
        clients: (partitions * 8).clamp(8, 64),
        ..cfg
    });
    (heron, dynastar)
}

/// Drives the DynaStar baseline with the TPC-C mix for `cfg`'s warm-up and
/// window (its clients have no fixed-work mode); returns the summary.
fn run_dynastar_tpcc(cfg: &RunConfig) -> LoadSummary {
    let wall_start = std::time::Instant::now();
    let simulation = sim::Simulation::new(cfg.seed);
    let partitions = cfg.heron.partitions;
    let app = Arc::new(TpccApp::new(SCALE, partitions as u16));
    let ds = DynaStar::build(
        DynaStarConfig::new(partitions, cfg.heron.replicas_per_partition),
        app.clone(),
    );
    ds.spawn(&simulation);

    let end = sim::SimTime::ZERO + cfg.warmup + cfg.window;
    for c in 0..cfg.clients {
        let mut client = ds.client(format!("c{c}"));
        let partitions = partitions as u16;
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
