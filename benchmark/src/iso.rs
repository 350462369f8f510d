//! Isolated drivers: one layer at a time, from outside, through its
//! public functions. They give the floor (kernel), the calibrated cost
//! model (verb round trips), and per-call host costs that the full-stack
//! numbers are read against.

use crate::stats::{host_ns, mean, percentile, ratio, Out, SpanLog};
use amcast::{DeliveryEvent, GroupId, Mcast, McastConfig};
use heron_core::{
    LocalReader, ObjectId, PartitionId, Placement, ReadSet, StateMachine, Timestamp, VersionedStore,
};
use rdma_sim::{Fabric, LatencyModel};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tpcc::{TpccApp, TpccScale};

type Spans = Option<Arc<SpanLog>>;

/// Records one isolated-driver call as a root span (traced runs only).
fn call_span(spans: &Spans, name: &'static str, call: u64, virt_start: u64, host_start: u64) {
    if let Some(log) = spans {
        log.record(
            name,
            0,
            call,
            (virt_start, sim::now().as_nanos()),
            (host_start, host_ns()),
        );
    }
}

fn stamp(spans: &Spans) -> (u64, u64) {
    (
        sim::now().as_nanos(),
        if spans.is_some() { host_ns() } else { 0 },
    )
}

/// Runs `simulation` to completion; returns (host ns, events).
fn timed_run(simulation: &sim::Simulation) -> (f64, f64) {
    let t = Instant::now();
    simulation.run().expect("isolated driver deadlocked");
    (
        t.elapsed().as_nanos() as f64,
        simulation.events_executed() as f64,
    )
}

// ---- sim ----------------------------------------------------------------

/// The kernel alone: a timer loop (one process sleeping) and a handoff loop
/// (two processes alternating through a `Cond`). What the full stack pays
/// per event above the handoff figure is added by the layers on top.
pub fn kernel(out: &mut Out) {
    const EVENTS: u64 = 200_000;
    let timers = sim::Simulation::new(1);
    timers.spawn("sleeper", || {
        for _ in 0..EVENTS {
            sim::sleep_ns(100);
        }
    });
    let (ns, events) = timed_run(&timers);
    out.num("sim.kernel_timer_ns_per_event", ratio(ns, events));

    let handoff = sim::Simulation::new(1);
    let turn = Arc::new(Mutex::new(0u8));
    let cond = sim::Cond::new();
    for me in 0..2u8 {
        let (turn, cond) = (Arc::clone(&turn), cond.clone());
        handoff.spawn(format!("player-{me}"), move || {
            for _ in 0..EVENTS / 2 {
                cond.wait_while(|| *turn.lock().expect("turn") != me);
                *turn.lock().expect("turn") = 1 - me;
                cond.notify_all();
            }
        });
    }
    let (ns, events) = timed_run(&handoff);
    out.num("sim.kernel_handoff_ns_per_event", ratio(ns, events));
}

// ---- rdma-sim -------------------------------------------------------------

/// Two nodes, one queue pair: signaled write / read / CAS round trips in
/// virtual time (the calibrated model every virtual metric rests on), and
/// the host cost and event count of a verb.
pub fn rdma(out: &mut Out, latency: LatencyModel, spans: &Spans) {
    const PER_VERB: u64 = 20_000;
    const BATCH: u64 = 8;
    let simulation = sim::Simulation::new(1);
    let fabric = Fabric::new(latency);
    let (a, b) = (fabric.add_node("a"), fabric.add_node("b"));
    let addr = b.alloc_words(BATCH as usize);
    let rtts = Arc::new(Mutex::new([0u64; 3]));
    let (rtts_in, spans_in) = (Arc::clone(&rtts), spans.clone());
    simulation.spawn("verbs", move || {
        let qp = a.connect(&b);
        let mut virt = [0u64; 3];
        for i in 0..PER_VERB {
            let t = stamp(&spans_in);
            qp.write_word(addr, i).expect("write");
            virt[0] += sim::now().as_nanos() - t.0;
            call_span(&spans_in, "rdma.write_word", i, t.0, t.1);

            let t = stamp(&spans_in);
            assert_eq!(qp.read_word(addr).expect("read"), i);
            virt[1] += sim::now().as_nanos() - t.0;
            call_span(&spans_in, "rdma.read_word", i, t.0, t.1);

            let t = stamp(&spans_in);
            assert_eq!(qp.compare_and_swap(addr, i, i + 1).expect("cas"), i);
            virt[2] += sim::now().as_nanos() - t.0;
            call_span(&spans_in, "rdma.compare_and_swap", i, t.0, t.1);
        }
        for i in 0..PER_VERB / BATCH {
            let t = stamp(&spans_in);
            let mut batch = qp.write_batch();
            for w in 0..BATCH {
                batch.push_word(addr.offset(8 * w), i).expect("aligned");
            }
            batch.post().expect("post");
            call_span(&spans_in, "rdma.write_batch", i, t.0, t.1);
        }
        *rtts_in.lock().expect("rtts") = virt;
    });
    let (ns, events) = timed_run(&simulation);
    let verbs = (4 * PER_VERB) as f64;
    let rtts = rtts.lock().expect("rtts");
    out.num("rdma.write_rtt_ns", rtts[0] as f64 / PER_VERB as f64);
    out.num("rdma.read_rtt_ns", rtts[1] as f64 / PER_VERB as f64);
    out.num("rdma.cas_rtt_ns", rtts[2] as f64 / PER_VERB as f64);
    out.num("rdma.host_ns_per_verb", ns / verbs);
    out.num("rdma.events_per_verb", events / verbs);
}

// ---- amcast -----------------------------------------------------------------

struct McastRun {
    /// Multicast → delivered in every destination group, per message.
    deliver_ns: Vec<u64>,
    verbs: f64,
    events: f64,
    host_ns: f64,
    /// Longest stretch after the crash without a new delivery in group 0.
    gap_ns: u64,
}

/// 4 groups × 3 replicas, 8 callers that each wait until their message is
/// delivered in every destination group, retrying like an application
/// would. `crash_at` takes down group 0's leader mid-run.
fn mcast_run(
    seed: u64,
    latency: LatencyModel,
    dests_per_msg: u16,
    per_caller: u64,
    crash_at: Option<Duration>,
    spans: &Spans,
) -> McastRun {
    const GROUPS: u16 = 4;
    const CALLERS: usize = 8;
    // Far below Heron's 20 ms client retry, so a gap measured here is the
    // ordering layer's own takeover time.
    const RETRY: Duration = Duration::from_micros(500);
    let simulation = sim::Simulation::new(seed);
    let fabric = Fabric::new(latency);
    let nodes: Vec<Vec<_>> = (0..GROUPS)
        .map(|g| {
            (0..3)
                .map(|i| fabric.add_node(format!("g{g}r{i}")))
                .collect()
        })
        .collect();
    let mcast = Mcast::build(
        &fabric,
        nodes,
        McastConfig::new(GROUPS as usize, 3).with_max_clients(CALLERS + 2),
    );
    mcast.spawn_replicas(&simulation);

    // (message, group) → first delivery instant; group-0 first deliveries.
    let delivered: Arc<Mutex<HashMap<(u32, u16), u64>>> = Arc::default();
    let marks: Arc<Mutex<Vec<u64>>> = Arc::default();
    let news = sim::Cond::new();
    for g in 0..GROUPS {
        for i in 0..3 {
            let inbox = mcast.deliveries(GroupId(g), i);
            let (delivered, marks, news) =
                (Arc::clone(&delivered), Arc::clone(&marks), news.clone());
            simulation.spawn(format!("consumer-g{g}r{i}"), move || loop {
                if let DeliveryEvent::Deliver(d) = inbox.recv() {
                    let now = sim::now().as_nanos();
                    let mut table = delivered.lock().expect("table");
                    if table.insert((d.id.0, g), now).is_none() {
                        drop(table);
                        if g == 0 {
                            marks.lock().expect("marks").push(now);
                        }
                        news.notify_all();
                    }
                }
            });
        }
    }

    let latencies: Arc<Mutex<Vec<u64>>> = Arc::default();
    let live = Arc::new(Mutex::new(CALLERS));
    for c in 0..CALLERS {
        let node = fabric.add_node(format!("caller-{c}"));
        let mut client = mcast.client(&node);
        let (delivered, news, latencies, live, spans) = (
            Arc::clone(&delivered),
            news.clone(),
            Arc::clone(&latencies),
            Arc::clone(&live),
            spans.clone(),
        );
        simulation.spawn(format!("caller-{c}"), move || {
            let payload = [0xABu8; 64];
            for k in 0..per_caller {
                let home = (c as u64 + k) as u16 % GROUPS;
                let mut dests: Vec<GroupId> = (0..dests_per_msg)
                    .map(|j| GroupId((home + j) % GROUPS))
                    .collect();
                dests.sort_unstable();
                let t = stamp(&spans);
                let uid = client.multicast(&dests, &payload);
                let everywhere = || {
                    let table = delivered.lock().expect("table");
                    dests.iter().all(|g| table.contains_key(&(uid.0, g.0)))
                };
                while !news.wait_while_timeout(|| !everywhere(), RETRY) {
                    client.resubmit(uid, &dests, &payload);
                }
                latencies
                    .lock()
                    .expect("latencies")
                    .push(sim::now().as_nanos() - t.0);
                call_span(&spans, "amcast.multicast", ((c as u64) << 32) | k, t.0, t.1);
            }
            let mut live = live.lock().expect("live");
            *live -= 1;
            if *live == 0 {
                sim::stop();
            }
        });
    }
    if let Some(at) = crash_at {
        let (fabric, victim) = (fabric.clone(), mcast.node(GroupId(0), 0).id());
        simulation.spawn("crash", move || {
            sim::sleep(at);
            fabric.crash(victim);
        });
    }

    let (host_ns, events) = timed_run(&simulation);
    let gap_ns = crash_at.map_or(0, |at| {
        let crash_ns = at.as_nanos() as u64;
        let mut after: Vec<u64> = marks
            .lock()
            .expect("marks")
            .iter()
            .copied()
            .filter(|&t| t >= crash_ns)
            .collect();
        after.push(crash_ns);
        after.sort_unstable();
        after.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0)
    });
    let mut deliver_ns = latencies.lock().expect("latencies").clone();
    deliver_ns.sort_unstable();
    McastRun {
        deliver_ns,
        verbs: crate::load::verbs(fabric.stats()) as f64,
        events,
        host_ns,
        gap_ns,
    }
}

pub fn amcast(out: &mut Out, seed: u64, latency: LatencyModel, spans: &Spans) {
    let mut host = Vec::new();
    for (dests, tag) in [(1u16, "1g"), (2, "2g")] {
        let run = mcast_run(seed, latency, dests, 250, None, spans);
        let n = run.deliver_ns.len() as f64;
        out.num(
            &format!("amcast.deliver_us_{tag}_p50"),
            percentile(&run.deliver_ns, 0.5) as f64 / 1e3,
        );
        out.num(&format!("amcast.verbs_per_mcast_{tag}"), run.verbs / n);
        out.num(&format!("amcast.events_per_mcast_{tag}"), run.events / n);
        host.push(run.host_ns / 1e3 / n);
    }
    out.num(
        "amcast.host_us_per_mcast",
        host.iter().sum::<f64>() / host.len() as f64,
    );
    let crashed = mcast_run(seed, latency, 1, 250, Some(Duration::from_millis(2)), &None);
    out.num("amcast.failover_gap_us", crashed.gap_ns as f64 / 1e3);
}

// ---- heron-core: the dual-version store ---------------------------------------

pub fn store(out: &mut Out, spans: &Spans) {
    const OBJECTS: u64 = 2_000;
    const OPS: u64 = 200_000;
    // One span per chunk: a single get is tens of ns, less than reading
    // the host clock twice.
    const CHUNK: u64 = 1_000;
    let simulation = sim::Simulation::new(1);
    let fabric = Fabric::new(LatencyModel::connectx4());
    let node = fabric.add_node("store");
    let result = Arc::new(Mutex::new((0.0f64, 0.0f64)));
    let (result_in, spans) = (Arc::clone(&result), spans.clone());
    simulation.spawn("store", move || {
        let store = VersionedStore::new(node);
        let value = [7u8; 96];
        for o in 0..OBJECTS {
            store.bootstrap(ObjectId(o), &value);
        }
        let timed = |name: &'static str, op: &mut dyn FnMut(u64)| -> f64 {
            let start = Instant::now();
            for chunk in 0..OPS / CHUNK {
                let t = stamp(&spans);
                for i in chunk * CHUNK..(chunk + 1) * CHUNK {
                    op(i);
                }
                call_span(&spans, name, chunk, t.0, t.1);
            }
            start.elapsed().as_nanos() as f64 / OPS as f64
        };
        // A stride coprime to OBJECTS visits every object, out of order.
        let get = timed("store.get_x1000", &mut |i| {
            black_box(store.get(ObjectId(i * 7919 % OBJECTS)));
        });
        let set = timed("store.set_x1000", &mut |i| {
            store.set(
                ObjectId(i * 7919 % OBJECTS),
                black_box(&value),
                Timestamp::new(i + 1, amcast::MsgId(1)),
            );
        });
        *result_in.lock().expect("result") = (get, set);
    });
    simulation.run().expect("store driver");
    let (get, set) = *result.lock().expect("result");
    out.num("heron.store_get_host_ns", get);
    out.num("heron.store_set_host_ns", set);
}

// ---- tpcc -----------------------------------------------------------------------

/// One partition's objects in a plain map, standing in for the replica's
/// store; counts the reads execution makes through it.
struct MapStore {
    rows: HashMap<ObjectId, bytes::Bytes>,
    reads: std::cell::Cell<u64>,
}

impl LocalReader for MapStore {
    fn read(&self, oid: ObjectId) -> Option<bytes::Bytes> {
        self.reads.set(self.reads.get() + 1);
        self.rows.get(&oid).cloned()
    }
}

/// TPC-C without the simulator: generate, encode, and execute the mix
/// directly against map-backed partitions, doing what the engine does
/// around `execute` (a-priori read set in, local writes applied).
pub fn tpcc(out: &mut Out, seed: u64, spans: &Spans) {
    const PARTITIONS: u16 = 4;
    const TXNS: u64 = 20_000;
    let app = TpccApp::new(TpccScale::bench(), PARTITIONS);

    let t = Instant::now();
    let mut parts: Vec<MapStore> = (0..PARTITIONS)
        .map(|p| MapStore {
            rows: app.bootstrap(PartitionId(p)).into_iter().collect(),
            reads: std::cell::Cell::new(0),
        })
        .collect();
    out.num(
        "tpcc.bootstrap_host_ms_per_wh",
        t.elapsed().as_nanos() as f64 / 1e6 / PARTITIONS as f64,
    );

    let mut gen = app.generator(seed);
    let t = Instant::now();
    let requests: Vec<Vec<u8>> = (0..TXNS)
        .map(|i| gen.next((i % PARTITIONS as u64) as u16 + 1).encode())
        .collect();
    out.num(
        "tpcc.gen_encode_host_ns",
        t.elapsed().as_nanos() as f64 / TXNS as f64,
    );

    let (mut multi, mut reads, mut writes, mut write_bytes, mut executions) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut compute_ns: Vec<u64> = Vec::new();
    let mut execute_ns = 0u64;
    for (i, request) in requests.iter().enumerate() {
        let mut dests = app.destinations(request);
        dests.sort_unstable();
        dests.dedup();
        multi += u64::from(dests.len() > 1);
        // Every involved partition executes against the same pre-state.
        let mut results = Vec::with_capacity(dests.len());
        for &p in &dests {
            let mut read_set = ReadSet::new();
            for oid in app.read_set_at(p, request) {
                let owner = match app.placement(oid) {
                    Placement::Partition(q) => q,
                    Placement::Replicated => p,
                };
                if let Some(v) = parts[owner.0 as usize].rows.get(&oid) {
                    read_set.insert(oid, v.clone());
                }
            }
            reads += read_set.len() as u64;
            let host_start = if spans.is_some() { host_ns() } else { 0 };
            let t = Instant::now();
            let execution =
                black_box(app.execute(p, black_box(request), &read_set, &parts[p.0 as usize]));
            execute_ns += t.elapsed().as_nanos() as u64;
            if let Some(log) = spans {
                // No simulator here: the virtual interval is the modelled
                // compute time the execution reports.
                log.record(
                    "tpcc.execute",
                    0,
                    i as u64,
                    (0, execution.compute.as_nanos() as u64),
                    (host_start, host_ns()),
                );
            }
            executions += 1;
            compute_ns.push(execution.compute.as_nanos() as u64);
            results.push((p, execution));
        }
        for (p, execution) in results {
            for (oid, value) in execution.writes {
                if app.placement(oid) == Placement::Partition(p) {
                    writes += 1;
                    write_bytes += value.len() as u64;
                    parts[p.0 as usize].rows.insert(oid, value);
                }
            }
        }
    }
    reads += parts.iter().map(|p| p.reads.get()).sum::<u64>();
    let n = TXNS as f64;
    out.num(
        "tpcc.execute_host_ns",
        execute_ns as f64 / executions as f64,
    );
    out.num("tpcc.multi_partition_share", multi as f64 / n);
    out.num("tpcc.reads_per_txn", reads as f64 / n);
    out.num("tpcc.writes_per_txn", writes as f64 / n);
    out.num("tpcc.write_bytes_per_txn", write_bytes as f64 / n);
    out.num("tpcc.compute_us_mean", mean(&compute_ns) / 1e3);
}
