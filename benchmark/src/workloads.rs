//! The five workloads: deployment shape, request mix and load sizes, all
//! fixed here so that two commits always run identical inputs. Why each
//! exists is recorded in `BENCHMARK.json` and the README.

use bytes::Bytes;
use heron_core::{
    Execution, HeronCluster, HeronConfig, LocalReader, ObjectId, PartitionId, Placement, ReadSet,
    StateMachine,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rdma_sim::{Fabric, LatencyModel};
use std::sync::Arc;
use std::time::Duration;
use tpcc::{TpccApp, TpccGen, TpccScale, Transaction};

/// What the clients send.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Standard TPC-C mix (≈10 % multi-partition).
    Tpcc,
    /// Null requests addressed to the home partition only.
    NullSingle,
    /// Null requests addressed to the home partition and the next one.
    NullPair,
}

/// A crash injected into an open-loop run (virtual times from run start).
#[derive(Clone, Copy)]
pub struct Fault {
    /// Requests offered in the faulted run (fault-free rungs offer
    /// `Spec::open_requests`).
    pub requests: u64,
    pub crash_at: Duration,
    pub recover_at: Duration,
    /// Extra virtual time after the last arrival before unanswered
    /// requests count as failed.
    pub drain: Duration,
}

pub struct Spec {
    pub name: &'static str,
    pub mix: Mix,
    pub partitions: usize,
    pub warehouses_per_partition: u16,
    pub executor_width: usize,
    pub max_batch: usize,
    /// Closed loop: clients × requests each, the first `warmup` of every
    /// client excluded from the statistics.
    pub clients: usize,
    pub requests_per_client: u64,
    pub warmup_per_client: u64,
    /// Open loop: sessions, requests offered per rung, and the fixed rates
    /// (req/s). `rates[0]` / `rates[hi_idx]` feed `open_p99_us_lo/hi`;
    /// the whole list is the `max_rate_tps` ladder. The TPC-C mixes keep
    /// `hi` at the second rung: nearer saturation a replica can fall behind
    /// its peers, and the state transfer that follows can wedge the seed
    /// program (see "Request streams" in the README).
    pub sessions: usize,
    pub open_requests: u64,
    pub open_warmup: u64,
    pub rates: &'static [u64],
    pub hi_idx: usize,
    /// `Some` = the main phase is the open loop at `rates[0]` with
    /// this crash, instead of the closed loop.
    pub fault: Option<Fault>,
}

pub const REPLICAS: usize = 3;
/// p99 limit a ladder rung must meet (from due time).
pub const P99_LIMIT_US: f64 = 500.0;
/// A rung whose share of offered requests still unanswered when arrivals
/// stop exceeds this has a growing backlog (a keeping-up system leaves
/// only rate × latency in flight: < 3 % at every rung that meets the
/// limit).
pub const BACKLOG_SHARE_LIMIT: f64 = 0.05;
/// Virtual µs a fault-free run may take before its pending requests are
/// reported as failed (a healthy run needs < 0.1 s).
pub const STALL_DEADLINE_US: u64 = 1_000_000;
/// Virtual time after the last reply for followers to apply their logs
/// before replicas are compared.
pub const DRAIN: Duration = Duration::from_millis(2);

pub fn spec(name: &str) -> Option<Spec> {
    let base = Spec {
        name: "",
        mix: Mix::Tpcc,
        partitions: 4,
        warehouses_per_partition: 1,
        executor_width: 1,
        max_batch: 1,
        clients: 16,
        requests_per_client: 400,
        warmup_per_client: 50,
        sessions: 32,
        open_requests: 2_000,
        open_warmup: 200,
        rates: &[],
        hi_idx: 2,
        fault: None,
    };
    Some(match name {
        "tpcc_mix" => Spec {
            name: "tpcc_mix",
            hi_idx: 1,
            rates: &[
                80_000, 120_000, 140_000, 160_000, 180_000, 200_000, 220_000, 240_000,
            ],
            ..base
        },
        "null_order" => Spec {
            name: "null_order",
            mix: Mix::NullSingle,
            requests_per_client: 800,
            rates: &[
                200_000, 300_000, 350_000, 400_000, 450_000, 500_000, 550_000,
            ],
            ..base
        },
        "null_coord" => Spec {
            name: "null_coord",
            mix: Mix::NullPair,
            rates: &[
                100_000, 150_000, 175_000, 200_000, 225_000, 250_000, 275_000,
            ],
            ..base
        },
        "tpcc_pool" => Spec {
            name: "tpcc_pool",
            partitions: 2,
            warehouses_per_partition: 4,
            executor_width: 4,
            max_batch: 8,
            clients: 32,
            requests_per_client: 200,
            hi_idx: 1,
            rates: &[
                100_000, 150_000, 175_000, 200_000, 225_000, 250_000, 275_000,
            ],
            ..base
        },
        "failover" => Spec {
            name: "failover",
            partitions: 2,
            sessions: 16,
            rates: &[40_000, 60_000, 80_000, 100_000, 120_000, 140_000, 160_000],
            fault: Some(Fault {
                // 320 virtual ms of arrivals, not the issue's 80. On six
                // request streams in ten the seed program restores service
                // only ≈ 80 ms after the crash (on the others ≈ 42 ms); with
                // 80 ms of arrivals more than half of all requests would
                // then wait, and p50 would measure the outage. Over 320 ms
                // 13–25 % wait, and p50 stays near normal service.
                requests: 12_800,
                crash_at: Duration::from_millis(10),
                recover_at: Duration::from_millis(40),
                drain: Duration::from_millis(20),
            }),
            ..base
        },
        _ => return None,
    })
}

impl Spec {
    pub fn warehouses(&self) -> u16 {
        self.partitions as u16 * self.warehouses_per_partition
    }

    /// Shrinks the load for `--selftest` (same deployment, same mix).
    pub fn shortened(mut self) -> Self {
        self.requests_per_client = self.requests_per_client.min(120);
        self.warmup_per_client = self.warmup_per_client.min(20);
        self.open_requests = self.open_requests.min(600);
        self.open_warmup = self.open_warmup.min(100);
        self
    }

    fn app(&self) -> Arc<dyn StateMachine> {
        match self.mix {
            Mix::Tpcc => Arc::new(
                TpccApp::new(TpccScale::bench(), self.warehouses())
                    .with_partitions(self.partitions as u16),
            ),
            Mix::NullSingle | Mix::NullPair => Arc::new(NullApp {
                partitions: self.partitions as u16,
            }),
        }
    }

    /// Builds and spawns the deployment for `callers` client endpoints.
    /// `traced` turns on the program's two existing public switches.
    pub fn deploy(
        &self,
        seed: u64,
        latency: LatencyModel,
        callers: usize,
        traced: bool,
    ) -> Deployed {
        let simulation = sim::Simulation::new(seed);
        let profiler = traced.then(|| simulation.enable_profiling());
        let fabric = Fabric::new(latency);
        let cfg = HeronConfig::new(self.partitions, REPLICAS)
            .with_max_clients(callers + 2)
            .with_executor_width(self.executor_width)
            .with_max_batch(self.max_batch)
            .with_tracing(traced);
        let cluster = HeronCluster::build(&fabric, cfg, self.app());
        cluster.spawn(&simulation);
        Deployed {
            simulation,
            fabric,
            cluster,
            profiler,
        }
    }

    /// The seeded request stream of caller `index`.
    pub fn requests(&self, seed: u64, index: usize) -> RequestStream {
        RequestStream {
            mix: self.mix,
            partitions: self.partitions as u16,
            warehouses: self.warehouses(),
            gen: TpccGen::new(
                TpccScale::bench(),
                self.warehouses(),
                seed * 1000 + index as u64,
            ),
            rng: SmallRng::seed_from_u64(seed * 1000 + index as u64),
        }
    }
}

pub struct Deployed {
    pub simulation: sim::Simulation,
    pub fabric: Fabric,
    pub cluster: HeronCluster,
    pub profiler: Option<sim::prof::Profiler>,
}

/// One generated request: the only thing the program ever sees.
pub struct Request {
    pub bytes: Vec<u8>,
    /// Involved partitions, ascending.
    pub dests: Vec<PartitionId>,
    check: ReplyCheck,
}

#[derive(Clone, Copy)]
enum ReplyCheck {
    Null,
    /// Reply length in bytes must be one of these.
    Tpcc(&'static [usize]),
}

impl Request {
    /// Sends the request through the client's public call.
    pub fn call(&self, client: &mut heron_core::HeronClient) -> Bytes {
        match self.check {
            // TPC-C routing is the application's job (`destinations`).
            ReplyCheck::Tpcc(_) => client.execute(&self.bytes),
            ReplyCheck::Null => client.execute_on(&self.bytes, &self.dests),
        }
    }

    /// Output check: a null reply is `ok`; a TPC-C reply has the layout
    /// its transaction type returns.
    pub fn reply_ok(&self, reply: &[u8]) -> bool {
        match self.check {
            ReplyCheck::Null => reply == b"ok",
            ReplyCheck::Tpcc(lens) => lens.contains(&reply.len()),
        }
    }
}

pub struct RequestStream {
    mix: Mix,
    partitions: u16,
    warehouses: u16,
    gen: TpccGen,
    rng: SmallRng,
}

impl RequestStream {
    /// The next request. A TPC-C caller is a terminal of warehouse
    /// `home`; a null request picks its home partition at random, so
    /// partitions see uneven, seed-dependent load instead of lock-step
    /// round robin.
    pub fn next(&mut self, home: usize) -> Request {
        match self.mix {
            Mix::Tpcc => {
                let txn = self.gen.next((home as u16 % self.warehouses) + 1);
                let mut dests: Vec<PartitionId> = txn
                    .warehouses()
                    .into_iter()
                    .map(|w| PartitionId((w - 1) % self.partitions))
                    .collect();
                dests.sort_unstable();
                dests.dedup();
                let lens: &'static [usize] = match txn {
                    // o_id + total
                    Transaction::NewOrder { .. } => &[12],
                    // balance
                    Transaction::Payment { .. } => &[8],
                    // balance + last_o_id [+ carrier + total]
                    Transaction::OrderStatus { .. } => &[12, 24],
                    // orders delivered / low-stock count
                    Transaction::Delivery { .. } | Transaction::StockLevel { .. } => &[4],
                };
                Request {
                    bytes: txn.encode(),
                    dests,
                    check: ReplyCheck::Tpcc(lens),
                }
            }
            Mix::NullSingle | Mix::NullPair => {
                let p = self.rng.gen_range(0..self.partitions);
                let mut dests = vec![PartitionId(p)];
                if self.mix == Mix::NullPair {
                    dests.push(PartitionId((p + 1) % self.partitions));
                    dests.sort_unstable();
                }
                Request {
                    bytes: NullApp::encode(&dests),
                    dests,
                    check: ReplyCheck::Null,
                }
            }
        }
    }
}

/// The benchmark's own null state machine: requests carry only their
/// destination list, execution reads and writes nothing and costs no
/// modelled time, so what remains is ordering (+ coordination when two
/// partitions are addressed) and the reply.
struct NullApp {
    partitions: u16,
}

impl NullApp {
    fn encode(dests: &[PartitionId]) -> Vec<u8> {
        let mut v = vec![dests.len() as u8];
        for d in dests {
            v.extend_from_slice(&d.0.to_le_bytes());
        }
        v
    }
}

impl StateMachine for NullApp {
    fn placement(&self, oid: ObjectId) -> Placement {
        Placement::Partition(PartitionId((oid.0 % self.partitions as u64) as u16))
    }

    fn destinations(&self, req: &[u8]) -> Vec<PartitionId> {
        req[1..]
            .chunks_exact(2)
            .take(req[0] as usize)
            .map(|c| PartitionId(u16::from_le_bytes([c[0], c[1]])))
            .collect()
    }

    fn read_set(&self, _req: &[u8]) -> Vec<ObjectId> {
        vec![]
    }

    // Null requests commute with everything.
    fn conflict_keys(&self, _req: &[u8]) -> Vec<u64> {
        vec![]
    }

    fn execute(
        &self,
        _p: PartitionId,
        _req: &[u8],
        _reads: &ReadSet,
        _local: &dyn LocalReader,
    ) -> Execution {
        Execution {
            writes: vec![],
            response: Bytes::from_static(b"ok"),
            compute: Duration::ZERO,
        }
    }

    fn bootstrap(&self, _p: PartitionId) -> Vec<(ObjectId, Bytes)> {
        vec![]
    }
}
