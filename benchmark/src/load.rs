//! Full-stack load drivers: the closed loop (callers that wait for a
//! reply) and the open loop (independent users on a seeded Poisson
//! schedule, optionally with a crash), plus the output checks and the
//! per-layer counters both read afterwards. Everything goes through the
//! program's public functions.

use crate::stats::{host_ns, mean, percentile, ratio, Out, SpanLog};
use crate::workloads::{Deployed, Fault, Request, Spec, BACKLOG_SHARE_LIMIT, DRAIN, REPLICAS};
use heron_core::PartitionId;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use rdma_sim::LatencyModel;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

pub struct RunOpts {
    pub seed: u64,
    pub latency: LatencyModel,
    /// `Some` = a traced run: the program's tracing and profiling switches
    /// are on and the benchmark records its own spans here.
    pub spans: Option<Arc<SpanLog>>,
    /// Virtual time a fault-free run may take before its pending requests
    /// are reported as failed (instead of the benchmark hanging).
    pub stall_deadline: Duration,
}

/// One answered request.
#[derive(Clone, Copy)]
struct Sample {
    caller: u32,
    /// Closed loop: the call instant. Open loop: when the request was due.
    due_ns: u64,
    dequeued_ns: u64,
    done_ns: u64,
    ok: bool,
    /// Involves partition 0 (the one `failover` crashes).
    on_p0: bool,
    measured: bool,
}

/// State shared by the benchmark's own simulated processes. The kernel
/// runs one simulated process at a time, so the lock is never contended;
/// it only makes the sharing sound.
#[derive(Default)]
struct Board {
    samples: Vec<Sample>,
    issued: u64,
    live: usize,
    // Open loop only.
    backlog: VecDeque<Job>,
    idle: Vec<usize>,
    closed: bool,
    max_lateness_ns: u64,
    last_due_ns: u64,
    /// Instants at which the backlog became empty.
    emptied_ns: Vec<u64>,
    /// Deepest backlog seen at or after the crash, and when.
    peak: (usize, u64),
}

fn lock(board: &Mutex<Board>) -> MutexGuard<'_, Board> {
    board.lock().expect("a benchmark process panicked")
}

struct Job {
    index: u64,
    due_ns: u64,
    host_due_ns: u64,
    request: Request,
}

/// What a finished run hands to the reporting code.
pub struct Outcome {
    deployed: Deployed,
    samples: Vec<Sample>,
    attempted: u64,
    setup_ns: u64,
    run_ns: u64,
    open: Option<OpenFacts>,
}

struct OpenFacts {
    rate: u64,
    offered: u64,
    max_lateness_ns: u64,
    last_due_ns: u64,
    emptied_ns: Vec<u64>,
    peak: (usize, u64),
    fault: Option<Fault>,
}

fn record_span(
    spans: &Option<Arc<SpanLog>>,
    caller: usize,
    index: u64,
    due: (u64, u64),
    dequeued: (u64, u64),
    done_virt_ns: u64,
    queued: bool,
) {
    if let Some(log) = spans {
        let req = ((caller as u64) << 32) | index;
        let parent = log.record("request", 0, req, (due.0, done_virt_ns), (due.1, host_ns()));
        if queued {
            log.record(
                "open.queue_wait",
                parent,
                req,
                (due.0, dequeued.0),
                (due.1, dequeued.1),
            );
        }
    }
}

/// Spawns the process that ends the run: once every caller is done it lets
/// followers apply their logs for `DRAIN`, then stops the simulation.
fn spawn_finisher(
    simulation: &sim::Simulation,
    board: &Arc<Mutex<Board>>,
    done: &sim::Cond,
    drain: Duration,
) {
    let (board, done) = (Arc::clone(board), done.clone());
    simulation.spawn("bench-finisher", move || {
        done.wait_while(|| lock(&board).live > 0);
        sim::sleep(drain);
        sim::stop();
    });
}

fn caller_done(board: &Mutex<Board>, done: &sim::Cond) {
    let mut b = lock(board);
    b.live -= 1;
    if b.live == 0 {
        drop(b);
        done.notify_all();
    }
}

/// Closed loop: `clients` callers, each sending its next request when the
/// previous reply arrives.
pub fn closed(spec: &Spec, opts: &RunOpts) -> Outcome {
    let d = spec.deploy(opts.seed, opts.latency, spec.clients, opts.spans.is_some());
    let board = Arc::new(Mutex::new(Board {
        live: spec.clients,
        ..Board::default()
    }));
    let done = sim::Cond::new();
    for c in 0..spec.clients {
        let mut client = d.cluster.client(format!("b{c}"));
        let mut stream = spec.requests(opts.seed, c);
        let (board, done, spans) = (Arc::clone(&board), done.clone(), opts.spans.clone());
        let (total, warmup) = (spec.requests_per_client, spec.warmup_per_client);
        d.simulation.spawn(format!("bench-client-{c}"), move || {
            for seq in 0..total {
                let request = stream.next(c);
                lock(&board).issued += 1;
                let start = (
                    sim::now().as_nanos(),
                    if spans.is_some() { host_ns() } else { 0 },
                );
                let reply = request.call(&mut client);
                let done_ns = sim::now().as_nanos();
                record_span(&spans, c, seq, start, start, done_ns, false);
                lock(&board).samples.push(Sample {
                    caller: c as u32,
                    due_ns: start.0,
                    dequeued_ns: start.0,
                    done_ns,
                    ok: request.reply_ok(&reply),
                    on_p0: request.dests.contains(&PartitionId(0)),
                    measured: seq >= warmup,
                });
            }
            caller_done(&board, &done);
        });
    }
    spawn_finisher(&d.simulation, &board, &done, DRAIN);
    finish(d, &board, sim::SimTime::ZERO + opts.stall_deadline, None)
}

/// Open loop: one generator offers `spec.open_requests` requests (with a
/// fault: `fault.requests`) at exponentially distributed gaps (`rate` per
/// second); `sessions` sessions serve a shared FIFO backlog. Latency counts
/// from when a request was due, so a stall charges every request queued
/// behind it.
pub fn open(
    spec: &Spec,
    opts: &RunOpts,
    rate: u64,
    sessions: usize,
    fault: Option<Fault>,
) -> Outcome {
    let d = spec.deploy(opts.seed, opts.latency, sessions, opts.spans.is_some());
    let board = Arc::new(Mutex::new(Board {
        live: sessions,
        // Every session starts idle; the lowest-numbered is taken first.
        idle: (0..sessions).rev().collect(),
        ..Board::default()
    }));
    let done = sim::Cond::new();
    let inboxes: Vec<sim::Mailbox<Option<Job>>> =
        (0..sessions).map(|_| sim::Mailbox::new()).collect();
    let crash_ns = fault.map_or(u64::MAX, |f| f.crash_at.as_nanos() as u64);
    let offered = fault.map_or(spec.open_requests, |f| f.requests);

    for (s, inbox) in inboxes.iter().enumerate() {
        let mut client = d.cluster.client(format!("s{s}"));
        let inbox = inbox.clone();
        let (board, done, spans) = (Arc::clone(&board), done.clone(), opts.spans.clone());
        let warmup = spec.open_warmup;
        d.simulation.spawn(format!("bench-session-{s}"), move || {
            'serve: while let Some(mut job) = inbox.recv() {
                loop {
                    let dequeued = (
                        sim::now().as_nanos(),
                        if spans.is_some() { host_ns() } else { 0 },
                    );
                    let reply = job.request.call(&mut client);
                    let done_ns = sim::now().as_nanos();
                    record_span(
                        &spans,
                        s,
                        job.index,
                        (job.due_ns, job.host_due_ns),
                        dequeued,
                        done_ns,
                        true,
                    );
                    let mut b = lock(&board);
                    b.samples.push(Sample {
                        caller: s as u32,
                        due_ns: job.due_ns,
                        dequeued_ns: dequeued.0,
                        done_ns,
                        ok: job.request.reply_ok(&reply),
                        on_p0: job.request.dests.contains(&PartitionId(0)),
                        measured: job.index >= warmup,
                    });
                    match b.backlog.pop_front() {
                        Some(next) => {
                            if b.backlog.is_empty() {
                                b.emptied_ns.push(done_ns);
                            }
                            job = next;
                        }
                        None if b.closed => break 'serve,
                        None => {
                            b.idle.push(s);
                            break;
                        }
                    }
                }
            }
            caller_done(&board, &done);
        });
    }

    {
        let board = Arc::clone(&board);
        let mut stream = spec.requests(opts.seed, 0);
        let mut rng = SmallRng::seed_from_u64(opts.seed ^ 0x9E37_79B9_7F4A_7C15);
        let (homes, traced) = (spec.warehouses() as usize, opts.spans.is_some());
        d.simulation.spawn("bench-generator", move || {
            let mut due_ns = 0u64;
            for index in 0..offered {
                // Uniform in (0, 1): 53 random bits, offset so ln() is finite.
                let u = ((rng.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
                due_ns += (-u.ln() / rate as f64 * 1e9) as u64;
                sim::sleep_ns(due_ns.saturating_sub(sim::now().as_nanos()));
                let now = sim::now().as_nanos();
                let job = Job {
                    index,
                    due_ns,
                    host_due_ns: if traced { host_ns() } else { 0 },
                    request: stream.next(rng.gen_range(0..homes)),
                };
                let mut b = lock(&board);
                b.issued += 1;
                b.max_lateness_ns = b.max_lateness_ns.max(now - due_ns);
                b.last_due_ns = due_ns;
                match b.idle.pop() {
                    Some(s) => {
                        drop(b);
                        inboxes[s]
                            .send(Some(job))
                            .unwrap_or_else(|_| panic!("idle session {s} died"));
                    }
                    None => {
                        b.backlog.push_back(job);
                        if now >= crash_ns && b.backlog.len() > b.peak.0 {
                            b.peak = (b.backlog.len(), now);
                        }
                    }
                }
            }
            let mut b = lock(&board);
            b.closed = true;
            let idle = std::mem::take(&mut b.idle);
            drop(b);
            for s in idle {
                inboxes[s]
                    .send(None)
                    .unwrap_or_else(|_| panic!("idle session {s} died"));
            }
        });
    }

    if let Some(f) = fault {
        let cluster = d.cluster.clone();
        d.simulation.spawn("bench-fault", move || {
            sim::sleep(f.crash_at);
            // Replica 0 is every group's initial ordering leader.
            cluster.crash_replica(PartitionId(0), 0);
            sim::sleep(f.recover_at - f.crash_at);
            cluster.recover_replica(PartitionId(0), 0);
        });
    }
    spawn_finisher(
        &d.simulation,
        &board,
        &done,
        fault.map_or(DRAIN, |f| f.drain),
    );

    let window = Duration::from_nanos(offered * 1_000_000_000 / rate);
    let deadline = sim::SimTime::ZERO + window + fault.map_or(opts.stall_deadline, |f| f.drain);
    finish(d, &board, deadline, Some((rate, fault)))
}

/// Every verb the fabric carried: reads, signaled and posted writes,
/// compare-and-swaps and sends.
pub fn verbs(f: &rdma_sim::FabricStats) -> u64 {
    let (reads, writes, sends) = f.op_counts();
    reads + writes + sends + f.cas_ops.load(Ordering::Relaxed)
}

fn finish(
    d: Deployed,
    board: &Arc<Mutex<Board>>,
    deadline: sim::SimTime,
    open: Option<(u64, Option<Fault>)>,
) -> Outcome {
    let setup_ns = host_ns();
    d.simulation.run_until(deadline).expect("simulation error");
    let run_ns = host_ns() - setup_ns;
    let mut b = lock(board);
    Outcome {
        samples: std::mem::take(&mut b.samples),
        attempted: b.issued,
        setup_ns,
        run_ns,
        open: open.map(|(rate, fault)| OpenFacts {
            rate,
            offered: b.issued,
            max_lateness_ns: b.max_lateness_ns,
            last_due_ns: b.last_due_ns,
            emptied_ns: std::mem::take(&mut b.emptied_ns),
            peak: b.peak,
            fault,
        }),
        deployed: d,
    }
}

impl Outcome {
    /// Requests that got a wrong reply, and requests that got none.
    fn failures(&self) -> (u64, u64) {
        let bad_replies = self.samples.iter().filter(|s| !s.ok).count() as u64;
        (bad_replies, self.attempted - self.samples.len() as u64)
    }

    /// Ascending latencies of the measured (post-warm-up) requests.
    fn latencies(&self) -> Vec<u64> {
        let mut ns: Vec<u64> = self
            .samples
            .iter()
            .filter(|s| s.measured)
            .map(|s| s.done_ns - s.due_ns)
            .collect();
        ns.sort_unstable();
        ns
    }

    /// Share of offered requests still unanswered when the arrivals stop.
    fn backlog_share(&self, o: &OpenFacts) -> f64 {
        let answered_in_time = self
            .samples
            .iter()
            .filter(|s| s.done_ns <= o.last_due_ns)
            .count();
        1.0 - ratio(answered_in_time as f64, o.offered as f64)
    }

    /// Whether an open-loop rung sustains its rate: every request
    /// answered correctly, p99 within the limit, backlog not growing.
    pub fn rung_verdict(&self, p99_limit_us: f64) -> &'static str {
        let o = self.open.as_ref().expect("rungs are open-loop runs");
        if self.failures() != (0, 0) {
            "failed"
        } else if self.backlog_share(o) > BACKLOG_SHARE_LIMIT {
            "backlog growing"
        } else if percentile(&self.latencies(), 0.99) as f64 / 1e3 > p99_limit_us {
            "p99 over limit"
        } else {
            "pass"
        }
    }

    /// Output checks, end-to-end numbers and the always-on layer counters.
    /// `prefix` namespaces the keys when several rungs share one object.
    pub fn report(&self, out: &mut Out, prefix: &str) {
        let d = &self.deployed;
        let key = |k: &str| format!("{prefix}{k}");

        // ---- output checks ------------------------------------------
        let (bad_replies, unanswered) = self.failures();
        let mut problems: Vec<String> = Vec::new();
        if bad_replies > 0 {
            problems.push(format!("{bad_replies} replies failed their output check"));
        }
        if unanswered > 0 {
            problems.push(format!("{unanswered} requests unanswered at the deadline"));
        }
        // After the drain, live replicas of a partition must agree. The
        // replica the fault plan crashed and recovered is compared too, but
        // whether it has caught up is the program's recovery path: it is
        // counted (the bounded `replicas_in_sync_share`), not failed.
        let crashed = self
            .open
            .as_ref()
            .and_then(|o| o.fault)
            .map(|_| (PartitionId(0), 0usize));
        let (mut in_sync, mut live_replicas) = (0u64, 0u64);
        for p in 0..d.cluster.config().partitions {
            let pid = PartitionId(p as u16);
            let views: Vec<(usize, (u64, u64))> = (0..REPLICAS)
                .filter(|&i| d.cluster.replica_node(pid, i).is_alive())
                .map(|i| {
                    (
                        i,
                        (
                            d.cluster.state_digest(pid, i),
                            d.cluster.completed_req(pid, i),
                        ),
                    )
                })
                .collect();
            let reference = views
                .iter()
                .find(|(i, _)| Some((pid, *i)) != crashed)
                .map(|(_, v)| *v);
            for (i, view) in &views {
                live_replicas += 1;
                if Some(*view) == reference {
                    in_sync += 1;
                } else if Some((pid, *i)) != crashed {
                    problems.push(format!(
                        "replica {i} of partition {p} disagrees with its peers: {views:?}"
                    ));
                }
            }
        }
        out.int(&key("replicas_in_sync"), in_sync);
        out.int(&key("replicas_live"), live_replicas);
        out.int(&key("attempted"), self.attempted);
        out.int(&key("failed"), bad_replies + unanswered);
        out.int(&key("unanswered"), unanswered);
        out.list(&key("problems"), &problems);

        // ---- schedule fingerprint (must repeat exactly) --------------
        let events = d.simulation.events_executed();
        out.text(
            &key("schedule_hash"),
            &format!("{:016x}", d.simulation.schedule_hash()),
        );
        out.int(&key("events"), events);
        out.int(&key("virtual_ns"), d.simulation.now().as_nanos());

        // ---- end to end, virtual clock -------------------------------
        let measured: Vec<&Sample> = self.samples.iter().filter(|s| s.measured).collect();
        let latencies = self.latencies();
        out.int(&key("latency_samples"), latencies.len() as u64);
        out.num(
            &key("latency_p50_us"),
            percentile(&latencies, 0.50) as f64 / 1e3,
        );
        out.num(
            &key("latency_p99_us"),
            percentile(&latencies, 0.99) as f64 / 1e3,
        );
        let (steady_completions, steady_ns) = self.steady_window(&measured);
        out.num(
            &key("tps"),
            ratio(steady_completions as f64 * 1e9, steady_ns as f64),
        );
        // For `run.py`, which pools the request streams of one run.
        out.int(&key("steady_completions"), steady_completions);
        out.int(&key("steady_ns"), steady_ns);
        if prefix.is_empty() {
            out.ints("latencies_ns", &latencies);
        }

        // ---- host clock ------------------------------------------------
        let completed = self.samples.len() as f64;
        out.num(&key("setup_s"), self.setup_ns as f64 / 1e9);
        out.num(&key("run_s"), self.run_ns as f64 / 1e9);
        out.num(
            &key("host_us_per_req"),
            ratio(self.run_ns as f64 / 1e3, completed),
        );
        out.num(
            &key("sim.host_ns_per_event"),
            ratio(self.run_ns as f64, events as f64),
        );
        out.num(&key("sim.events_per_req"), ratio(events as f64, completed));

        if let Some(o) = &self.open {
            self.report_open(out, prefix, o, &measured);
        }
        self.report_layers(out, prefix, completed);
    }

    /// The steady-state window behind `tps`: (completions inside it, its
    /// length in virtual ns). Closed loop: while every caller is past its
    /// warm-up and none has finished. Open loop: from the first measured
    /// due time to the last reply.
    fn steady_window(&self, measured: &[&Sample]) -> (u64, u64) {
        let (from, to) = if self.open.is_some() {
            (
                measured.iter().map(|s| s.due_ns).min().unwrap_or(0),
                measured.iter().map(|s| s.done_ns).max().unwrap_or(0),
            )
        } else {
            let callers = measured.iter().map(|s| s.caller).max().unwrap_or(0) as usize + 1;
            let mut first = vec![u64::MAX; callers];
            let mut last = vec![0u64; callers];
            for s in measured {
                let c = s.caller as usize;
                first[c] = first[c].min(s.due_ns);
                last[c] = last[c].max(s.done_ns);
            }
            (
                first.iter().copied().max().unwrap_or(0),
                last.iter().copied().min().unwrap_or(0),
            )
        };
        let inside = measured
            .iter()
            .filter(|s| s.done_ns > from && s.done_ns <= to)
            .count();
        (inside as u64, to.saturating_sub(from))
    }

    fn report_open(&self, out: &mut Out, prefix: &str, o: &OpenFacts, measured: &[&Sample]) {
        let key = |k: &str| format!("{prefix}{k}");
        out.int(&key("open.rate"), o.rate);
        out.num(
            &key("open.generator_lateness_us"),
            o.max_lateness_ns as f64 / 1e3,
        );
        let waits: Vec<u64> = measured.iter().map(|s| s.dequeued_ns - s.due_ns).collect();
        out.num(&key("open.queue_wait_us_mean"), mean(&waits) / 1e3);
        let backlog_share = self.backlog_share(o);
        out.num(&key("open.backlog_share"), backlog_share);
        out.flag(
            &key("open.backlog_growing"),
            backlog_share > BACKLOG_SHARE_LIMIT,
        );

        let Some(f) = o.fault else { return };
        let crash_ns = f.crash_at.as_nanos() as u64;
        // Longest stretch after the crash in which no request involving
        // the crashed partition completed.
        let mut marks: Vec<u64> = self
            .samples
            .iter()
            .filter(|s| s.on_p0 && s.done_ns >= crash_ns)
            .map(|s| s.done_ns)
            .collect();
        marks.push(crash_ns);
        marks.sort_unstable();
        let gap = marks.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
        out.num(&key("unavailable_us"), gap as f64 / 1e3);
        // Crash → first instant after the deepest backlog at which the
        // queue is empty again.
        let restored = o.emptied_ns.iter().copied().find(|&t| t > o.peak.1);
        let restored_ns = restored.unwrap_or(self.deployed.simulation.now().as_nanos());
        out.num(
            &key("service_restored_us"),
            restored_ns.saturating_sub(crash_ns) as f64 / 1e3,
        );
        out.int(&key("open.backlog_peak"), o.peak.0 as u64);
    }

    /// Counters the program keeps whether or not tracing is on, plus —
    /// on a traced run — what its tracer and profiler recorded.
    fn report_layers(&self, out: &mut Out, prefix: &str, completed: f64) {
        let d = &self.deployed;
        let key = |k: &str| format!("{prefix}{k}");
        let per_req = |v: u64| ratio(v as f64, completed);

        let f = d.fabric.stats();
        let load = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
        let (reads, writes, sends) = f.op_counts();
        out.num(&key("rdma.reads_per_req"), per_req(reads));
        out.num(&key("rdma.writes_per_req"), per_req(writes));
        out.num(&key("rdma.cas_per_req"), per_req(load(&f.cas_ops)));
        out.num(&key("rdma.sends_per_req"), per_req(sends));
        out.num(&key("rdma.doorbells_per_req"), per_req(load(&f.doorbells)));
        out.num(
            &key("rdma.bytes_per_req"),
            per_req(load(&f.bytes_read) + load(&f.bytes_written)),
        );
        // Every verb rings one doorbell unless it rides in a WriteBatch,
        // so this is exactly 1 when nothing is batched.
        out.num(
            &key("rdma.writes_per_doorbell"),
            ratio(verbs(f) as f64, load(&f.doorbells) as f64),
        );

        let m = d.cluster.metrics();
        let rows = m.breakdowns.lock().clone();
        let col = |pick: fn(&heron_core::Breakdown) -> u64, multi_only: bool| -> f64 {
            let xs: Vec<u64> = rows
                .iter()
                .filter(|b| !multi_only || b.partitions > 1)
                .map(pick)
                .collect();
            mean(&xs) / 1e3
        };
        let ordering = col(|b| b.ordering_ns, false);
        let dispatch = col(|b| b.parallel_ns, false);
        let execution = col(|b| b.execution_ns, false);
        out.num(&key("amcast.ordering_us_mean"), ordering);
        out.num(&key("heron.dispatch_wait_us_mean"), dispatch);
        out.num(
            &key("heron.coordination_us_mean"),
            col(|b| b.coordination_ns, true),
        );
        out.num(&key("heron.execution_us_mean"), execution);
        // What is left of the client-observed mean once the four replica
        // stages are taken out: submit CPU, the reply write, the poll.
        let staged = ordering + dispatch + col(|b| b.coordination_ns, false) + execution;
        out.num(
            &key("heron.reply_us_mean"),
            m.mean_latency().as_nanos() as f64 / 1e3 - staged,
        );
        let (mut total, mut delayed, mut delay_ns) = (0u64, 0u64, 0u64);
        for c in &m.delays {
            total += c.total.load(Ordering::Relaxed);
            delayed += c.delayed.load(Ordering::Relaxed);
            delay_ns += c.delay_sum_ns.load(Ordering::Relaxed);
        }
        out.num(
            &key("heron.wait_for_all_delayed_share"),
            ratio(delayed as f64, total as f64),
        );
        out.num(
            &key("heron.wait_for_all_delay_us_mean"),
            ratio(delay_ns as f64 / 1e3, delayed as f64),
        );
        let transfers = m.transfers.lock().clone();
        out.int(
            &key("heron.transfers_started"),
            m.transfers_started.load(Ordering::Relaxed),
        );
        out.int(
            &key("heron.transfer_bytes"),
            transfers.iter().map(|t| t.bytes).sum(),
        );
        let durations: Vec<u64> = transfers.iter().map(|t| t.duration_ns).collect();
        out.num(&key("heron.transfer_us_mean"), mean(&durations) / 1e3);
        out.int(
            &key("heron.skipped_requests"),
            m.skipped_requests.load(Ordering::Relaxed),
        );

        let Some(profiler) = &d.profiler else { return };
        // Names the program no longer emits are listed as absent and read
        // as 0; they never fail the run.
        let mut absent: Vec<String> = Vec::new();
        let report = profiler.report();
        let totals = report.totals();
        let all_ns: u64 = totals.iter().map(|s| s.ns).sum();
        for (metric, prefix_or_name) in [
            ("sim.wait.rdma_mem_share", "blocked.rdma.mem"),
            ("sim.wait.mailbox_share", "blocked.mailbox"),
            ("sim.wait.sleep_share", "sleep"),
            ("sim.wait.parked_share", "parked."),
        ] {
            let hits: Vec<u64> = totals
                .iter()
                .filter(|s| s.state.starts_with(prefix_or_name))
                .map(|s| s.ns)
                .collect();
            if hits.is_empty() {
                absent.push(prefix_or_name.to_string());
            }
            out.num(
                &key(metric),
                ratio(hits.iter().sum::<u64>() as f64, all_ns as f64),
            );
        }
        out.int(&key("sim.threads"), report.procs.len() as u64);
        let busy: Vec<f64> = report
            .gauges
            .iter()
            .filter(|g| g.name.starts_with("pool.busy"))
            .map(|g| g.mean_overall)
            .collect();
        if busy.is_empty() {
            absent.push("pool.busy".to_string());
        }
        out.num(
            &key("heron.pool_busy_mean"),
            ratio(busy.iter().sum(), busy.len() as f64),
        );
        let trace_events = d.cluster.tracer().map_or(0, |t| t.len());
        out.num(&key("trace.events_per_req"), per_req(trace_events as u64));
        out.list(&key("absent"), &absent);
    }
}
