//! Order statistics, the one-line JSON result writer, and the benchmark's
//! own span log (spans recorded from these files, around calls into the
//! program — never from inside it).

use std::fmt::Write as _;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it. `0` for an empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn mean(xs: &[u64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<u64>() as f64 / xs.len() as f64
}

/// `a / b`, or 0 when `b` is 0 (a layer that did no work has no ratio).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Host nanoseconds since the process's first call (made at `main` entry).
pub fn host_ns() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A flat JSON object printed as the child's last stdout line; `run.py`
/// aggregates these.
#[derive(Default)]
pub struct Out(Vec<(String, String)>);

impl Out {
    pub fn int(&mut self, key: &str, v: u64) {
        self.0.push((key.to_string(), v.to_string()));
    }

    pub fn num(&mut self, key: &str, v: f64) {
        assert!(v.is_finite(), "metric {key} is not finite");
        self.0.push((key.to_string(), format!("{v}")));
    }

    pub fn text(&mut self, key: &str, v: &str) {
        assert!(!v.contains(['"', '\\']), "plain strings only");
        self.0.push((key.to_string(), format!("\"{v}\"")));
    }

    pub fn flag(&mut self, key: &str, v: bool) {
        self.0.push((key.to_string(), v.to_string()));
    }

    pub fn list(&mut self, key: &str, items: &[String]) {
        let quoted: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
        self.0
            .push((key.to_string(), format!("[{}]", quoted.join(","))));
    }

    pub fn ints(&mut self, key: &str, items: &[u64]) {
        let items: Vec<String> = items.iter().map(u64::to_string).collect();
        self.0
            .push((key.to_string(), format!("[{}]", items.join(","))));
    }

    pub fn print(&self) {
        let body: Vec<String> = self.0.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        println!("{{{}}}", body.join(","));
    }
}

/// One span: a name, an interval in both clocks, the span that caused it
/// and the request it belongs to.
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// 0 = root.
    pub parent: u64,
    pub req: u64,
    pub virt_ns: (u64, u64),
    pub host_ns: (u64, u64),
}

/// In-memory span log, written out once when the child exits.
#[derive(Default)]
pub struct SpanLog(Mutex<Vec<Span>>);

impl SpanLog {
    /// Records a span and returns its id (so a child can name its parent).
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        req: u64,
        virt_ns: (u64, u64),
        host_ns: (u64, u64),
    ) -> u64 {
        let mut spans = self.0.lock().expect("span log poisoned");
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            name,
            id,
            parent,
            req,
            virt_ns,
            host_ns,
        });
        id
    }

    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<usize> {
        let spans = self.0.lock().expect("span log poisoned");
        let mut s = String::with_capacity(spans.len() * 120 + 64);
        s.push_str("{\"clock_units\":\"ns\",\"spans\":[\n");
        for (i, sp) in spans.iter().enumerate() {
            let sep = if i + 1 == spans.len() { "" } else { "," };
            let _ = writeln!(
                s,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"req\":{},\"virt_start\":{},\"virt_end\":{},\"host_start\":{},\"host_end\":{}}}{sep}",
                sp.name, sp.id, sp.parent, sp.req, sp.virt_ns.0, sp.virt_ns.1, sp.host_ns.0, sp.host_ns.1
            );
        }
        s.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)?;
        Ok(spans.len())
    }
}

/// `--selftest`: the percentile code against distributions whose order
/// statistics are known in closed form.
pub fn selftest() -> Result<(), String> {
    let check = |what: &str, got: u64, want: u64| {
        if got == want {
            Ok(())
        } else {
            Err(format!("{what}: got {got}, want {want}"))
        }
    };
    let uniform: Vec<u64> = (1..=1000).collect();
    check("uniform p50", percentile(&uniform, 0.50), 500)?;
    check("uniform p99", percentile(&uniform, 0.99), 990)?;
    check("uniform p100", percentile(&uniform, 1.0), 1000)?;
    check("uniform p0", percentile(&uniform, 0.0), 1)?;
    let point = vec![7u64; 333];
    check("point-mass p50", percentile(&point, 0.5), 7)?;
    check("point-mass p99", percentile(&point, 0.99), 7)?;
    // 98 fast samples and 2 slow ones: p99 must land in the slow mode,
    // p50 and p98 in the fast one.
    let mut bimodal = vec![10u64; 98];
    bimodal.extend([5_000, 9_000]);
    check("bimodal p50", percentile(&bimodal, 0.50), 10)?;
    check("bimodal p98", percentile(&bimodal, 0.98), 10)?;
    check("bimodal p99", percentile(&bimodal, 0.99), 5_000)?;
    check("single", percentile(&[42], 0.99), 42)?;
    check("empty", percentile(&[], 0.99), 0)?;
    if (mean(&uniform) - 500.5).abs() > 1e-9 {
        return Err("mean of 1..=1000".into());
    }
    Ok(())
}
