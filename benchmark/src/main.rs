//! `ledger`: one measured child process of the benchmark. `run.py` starts
//! a fresh, pinned process per measurement and aggregates the one-line
//! JSON objects these subcommands print.
//!
//! ```text
//! ledger main --workload W --seed N [--trace 1] [--short 1] [--deadline-us T]
//! ledger open --workload W --seed N [--sessions S] [--short 1] [--rtt-mult K]
//! ledger iso  --seed N [--trace 1] [--rtt-mult K]
//! ledger selftest
//! ```
//!
//! Run from the repository root: traces go to `benchmark/out/`.

mod iso;
mod load;
mod stats;
mod workloads;

use load::RunOpts;
use rdma_sim::LatencyModel;
use stats::{Out, SpanLog};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use workloads::{Spec, P99_LIMIT_US, STALL_DEADLINE_US};

const KNOWN_FLAGS: [&str; 7] = [
    "workload",
    "seed",
    "trace",
    "short",
    "rtt-mult",
    "deadline-us",
    "sessions",
];

struct Args(HashMap<String, String>);

impl Args {
    fn parse(rest: &[String]) -> Result<Args, String> {
        let mut map = HashMap::new();
        for pair in rest.chunks(2) {
            match pair {
                [k, v] if k.starts_with("--") && KNOWN_FLAGS.contains(&&k[2..]) => {
                    map.insert(k[2..].to_string(), v.clone())
                }
                _ => {
                    return Err(format!(
                        "expected `--flag value` with a flag of {KNOWN_FLAGS:?}, got {pair:?}"
                    ))
                }
            };
        }
        Ok(Args(map))
    }

    fn num(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.0.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} {v}: not a whole number")),
        }
    }

    fn spec(&self) -> Result<Spec, String> {
        let name = self.0.get("workload").ok_or("--workload is required")?;
        let spec = workloads::spec(name).ok_or(format!("unknown workload {name}"))?;
        Ok(if self.num("short", 0)? == 1 {
            spec.shortened()
        } else {
            spec
        })
    }

    /// The ConnectX-4 model, with both fabric delays multiplied for the
    /// self-test's sensitivity check.
    fn latency(&self) -> Result<LatencyModel, String> {
        let k = self.num("rtt-mult", 1)?;
        let base = LatencyModel::connectx4();
        Ok(LatencyModel {
            one_way_ns: base.one_way_ns * k,
            ns_per_kib: base.ns_per_kib * k,
            ..base
        })
    }

    /// `--trace 1` turns on the program's tracing and profiling switches
    /// and the benchmark's own span log together.
    fn opts(&self) -> Result<RunOpts, String> {
        Ok(RunOpts {
            seed: self.num("seed", 42)?,
            latency: self.latency()?,
            spans: (self.num("trace", 0)? == 1).then(Arc::default),
            stall_deadline: Duration::from_micros(self.num("deadline-us", STALL_DEADLINE_US)?),
        })
    }
}

fn write_spans(out: &mut Out, spans: &Option<Arc<SpanLog>>, stem: &str) -> Result<(), String> {
    if let Some(log) = spans {
        let path = PathBuf::from(format!("benchmark/out/trace_{stem}.json"));
        let n = log
            .write_json(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        out.int("bench_spans", n as u64);
        out.text("trace_file", &path.display().to_string());
    }
    Ok(())
}

/// The workload's main phase: the closed loop, or for `failover` the open
/// loop with the crash.
fn cmd_main(args: &Args) -> Result<Out, String> {
    let spec = args.spec()?;
    let opts = args.opts()?;
    let outcome = match spec.fault {
        None => load::closed(&spec, &opts),
        Some(fault) => load::open(&spec, &opts, spec.rates[0], spec.sessions, Some(fault)),
    };
    let mut out = Out::default();
    out.text("workload", spec.name);
    outcome.report(&mut out, "");
    write_spans(&mut out, &opts.spans, spec.name)?;
    Ok(out)
}

/// The fault-free open-loop rate ladder, each rung a fresh simulation, up
/// to two consecutive failing rungs (but always as far as the `hi` rate).
/// Rung `R` reports under `rR.`; `lo_rate` and `hi_rate` name the two rungs
/// behind `open_p99_us_lo/hi`.
fn cmd_open(args: &Args) -> Result<Out, String> {
    let spec = args.spec()?;
    let opts = args.opts()?;
    let sessions = args.num("sessions", spec.sessions as u64)? as usize;
    let mut out = Out::default();
    out.text("workload", spec.name);
    out.int("lo_rate", spec.rates[0]);
    out.int("hi_rate", spec.rates[spec.hi_idx]);
    let (mut best, mut misses, mut rungs) = (0u64, 0, Vec::new());
    for (idx, &rate) in spec.rates.iter().enumerate() {
        let outcome = load::open(&spec, &opts, rate, sessions, None);
        let verdict = outcome.rung_verdict(P99_LIMIT_US);
        outcome.report(&mut out, &format!("r{rate}."));
        rungs.push(format!("{rate}:{verdict}"));
        if verdict == "pass" {
            best = rate;
            misses = 0;
        } else {
            misses += 1;
        }
        if misses >= 2 && idx >= spec.hi_idx {
            break;
        }
    }
    out.int("max_rate_tps", best);
    out.list("ladder", &rungs);
    Ok(out)
}

fn cmd_iso(args: &Args) -> Result<Out, String> {
    let RunOpts {
        seed,
        latency,
        spans,
        ..
    } = args.opts()?;
    let mut out = Out::default();
    iso::kernel(&mut out);
    iso::rdma(&mut out, latency, &spans);
    iso::amcast(&mut out, seed, latency, &spans);
    iso::store(&mut out, &spans);
    iso::tpcc(&mut out, seed, &spans);
    write_spans(&mut out, &spans, "isolated")?;
    Ok(out)
}

fn main() -> ExitCode {
    stats::host_ns(); // start the host clock: setup time counts from here
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("usage: ledger main|open|iso|selftest [--key value]...");
        return ExitCode::from(2);
    };
    let result = Args::parse(rest).and_then(|args| match cmd.as_str() {
        "main" => cmd_main(&args),
        "open" => cmd_open(&args),
        "iso" => cmd_iso(&args),
        "selftest" => stats::selftest().map(|()| {
            let mut out = Out::default();
            out.flag("percentiles_ok", true);
            out
        }),
        other => Err(format!("unknown subcommand {other}")),
    });
    match result {
        Ok(out) => {
            out.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}
