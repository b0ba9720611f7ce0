//! Shared harness for the paper-reproduction benchmark binaries.
//!
//! Every binary regenerates one table or figure of the paper; this module
//! provides the common runners (trace a workload under Pilgrim /
//! ScalaTrace / raw / untraced) and scale handling for a single-node
//! environment. The paper's largest runs used 4K–16K cluster processors;
//! rank counts here default to laptop-friendly sweeps and can be raised
//! with `--max-procs N` (or `PILGRIM_MAX_PROCS`).

use std::time::{Duration, Instant};

use mpi_sim::{NullTracer, World, WorldConfig};
use mpi_workloads::Body;
use pilgrim::{GlobalTrace, MetricsReport, OverheadStats, PilgrimConfig, PilgrimTracer};
use trace_baselines::{RawTracer, ScalaTraceTracer};

/// The workloads the collector-side binaries rotate their jobs through.
pub const WORKLOADS: [&str; 4] = ["stencil2d", "stencil3d", "lu", "mg"];

/// Result of one traced Pilgrim run.
pub struct PilgrimRun {
    pub trace: GlobalTrace,
    pub wall: Duration,
    pub stats: OverheadStats,
    /// Rank 0's own stats: the rank that performs the final merge work.
    pub stats_rank0: OverheadStats,
    /// All ranks' metrics merged (timers/counters summed), with rank 0's
    /// trace size decomposition attached. All-zero timers unless the run's
    /// [`PilgrimConfig::metrics`] was enabled.
    pub metrics: MetricsReport,
    /// Sum of per-rank local (pre-merge) sizes.
    pub local_bytes: usize,
    pub total_calls: u64,
}

/// Runs a workload under the Pilgrim tracer.
pub fn run_pilgrim(nranks: usize, cfg: PilgrimConfig, body: Body) -> PilgrimRun {
    run_pilgrim_world(&WorldConfig::new(nranks), cfg, body)
}

/// [`run_pilgrim`] with a custom world configuration (overhead
/// experiments enable compute spinning).
pub fn run_pilgrim_world(wcfg: &WorldConfig, cfg: PilgrimConfig, body: Body) -> PilgrimRun {
    let start = Instant::now();
    let mut tracers = World::run(wcfg, |rank| PilgrimTracer::new(rank, cfg), move |env| body(env));
    let wall = start.elapsed();
    let mut stats = OverheadStats::default();
    let mut metrics = MetricsReport::default();
    let mut local_bytes = 0;
    let mut total_calls = 0;
    let mut trace = None;
    let mut stats_rank0 = OverheadStats::default();
    for (rank, t) in tracers.iter_mut().enumerate() {
        local_bytes += t.local_size_bytes();
        total_calls += t.call_count();
        let out = t.take_output();
        stats.merge(&out.stats);
        metrics.merge(&out.metrics);
        if rank == 0 {
            stats_rank0 = out.stats;
            trace = out.trace;
        }
    }
    PilgrimRun {
        trace: trace.expect("rank 0 trace"),
        wall,
        stats,
        stats_rank0,
        metrics,
        local_bytes,
        total_calls,
    }
}

/// `--metrics-out <path>` / `PILGRIM_METRICS_OUT`: where to write a JSON
/// metrics report, if requested.
pub fn metrics_out() -> Option<String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    flag_value(&args, "--metrics-out", "a path", |v| Some(v.to_string()))
        .or_else(|| std::env::var("PILGRIM_METRICS_OUT").ok())
}

/// Writes a metrics report as JSON to `path` and logs where it went.
pub fn write_metrics(path: &str, report: &MetricsReport) {
    std::fs::write(path, report.to_json()).expect("write metrics JSON");
    eprintln!("metrics written to {path}");
}

/// Runs a workload under the ScalaTrace model; returns
/// (size, wall time, distinct groups).
pub fn run_scalatrace(nranks: usize, body: Body) -> (usize, Duration, usize) {
    run_scalatrace_world(&WorldConfig::new(nranks), body)
}

/// [`run_scalatrace`] with a custom world configuration.
pub fn run_scalatrace_world(wcfg: &WorldConfig, body: Body) -> (usize, Duration, usize) {
    let start = Instant::now();
    let tracers = World::run(wcfg, ScalaTraceTracer::new, move |env| body(env));
    let wall = start.elapsed();
    let g = tracers[0].global().expect("rank 0 result");
    (g.size_bytes(), wall, g.groups.len())
}

/// Runs a workload with no tracer; returns wall time.
pub fn run_untraced(nranks: usize, body: Body) -> Duration {
    run_untraced_world(&WorldConfig::new(nranks), body)
}

/// [`run_untraced`] with a custom world configuration.
pub fn run_untraced_world(wcfg: &WorldConfig, body: Body) -> Duration {
    let start = Instant::now();
    World::run(wcfg, |_| NullTracer, move |env| body(env));
    start.elapsed()
}

/// Runs a workload under the raw tracer; returns total bytes.
pub fn run_raw(nranks: usize, body: Body) -> u64 {
    let tracers = World::run(&WorldConfig::new(nranks), RawTracer::new, move |env| body(env));
    tracers.iter().map(|t| t.bytes()).sum()
}

/// A scale knob read from `--name N`, else the environment, else the
/// default; an unparsable value falls through to the next source.
fn scale_knob(name: &str, env: &str, default: usize) -> usize {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == name {
            if let Some(v) = args.next().and_then(|v| v.parse().ok()) {
                return v;
            }
        }
    }
    std::env::var(env).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// `--max-procs` / `PILGRIM_MAX_PROCS`, with a default.
pub fn max_procs(default: usize) -> usize {
    scale_knob("--max-procs", "PILGRIM_MAX_PROCS", default)
}

/// `--iters` / `PILGRIM_ITERS` override for run length.
pub fn iters(default: usize) -> usize {
    scale_knob("--iters", "PILGRIM_ITERS", default)
}

fn flag_value<T>(
    args: &[String],
    name: &str,
    want: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Option<T> {
    args.iter().position(|a| a == name).map(|i| {
        args.get(i + 1).and_then(|v| parse(v)).unwrap_or_else(|| {
            eprintln!("{name} needs {want}");
            std::process::exit(2)
        })
    })
}

/// `--name N` (decimal, or hex with a `0x` prefix); a missing or
/// non-numeric value is a usage error (exit 2).
pub fn flag(args: &[String], name: &str) -> Option<u64> {
    flag_value(args, name, "a numeric value", |v| {
        match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => v.parse().ok(),
        }
    })
}

/// `--name X.Y`, same usage-error rule as [`flag`].
pub fn fflag(args: &[String], name: &str) -> Option<f64> {
    flag_value(args, name, "a numeric value", |v| v.parse().ok())
}

/// `--name VALUE` taken verbatim (paths, addresses, enum words).
pub fn sflag(args: &[String], name: &str) -> Option<String> {
    flag_value(args, name, "a value", |v| Some(v.to_string()))
}

/// Allowed slowdown vs the committed baseline before [`gate`] fails.
const REGRESSION_FLOOR: f64 = 0.9;

/// The flags of a baseline-gated bench: `--json-out PATH`,
/// `--check-against PATH`, `--reps N` (default 2 under the gate, else 1)
/// and `--stat best|min`.
pub struct GateArgs {
    pub json_out: Option<String>,
    pub check_against: Option<String>,
    pub reps: usize,
    /// Keep each row's *worst* rep (`--stat min`, the baseline
    /// recorder) instead of its best (the gate's noise damper).
    pub keep_min: bool,
}

impl GateArgs {
    pub fn parse(args: &[String]) -> GateArgs {
        let check_against = sflag(args, "--check-against");
        let reps = flag(args, "--reps").unwrap_or(if check_against.is_some() { 2 } else { 1 });
        let keep_min = match sflag(args, "--stat").as_deref() {
            None | Some("best") => false,
            Some("min") => true,
            Some(other) => {
                eprintln!("--stat must be best or min, got {other}");
                std::process::exit(2)
            }
        };
        GateArgs {
            json_out: sflag(args, "--json-out"),
            check_against,
            reps: reps.max(1) as usize,
            keep_min,
        }
    }

    /// Runs `sweep` once per rep and keeps, per row, the rep with the
    /// best `rate` (or the worst, under `--stat min`).
    pub fn best_of<R>(
        &self,
        mut sweep: impl FnMut() -> Vec<R>,
        rate: impl Fn(&R) -> f64,
    ) -> Vec<R> {
        let mut best = sweep();
        for _ in 1..self.reps {
            for (slot, fresh) in best.iter_mut().zip(sweep()) {
                if (rate(&fresh) > rate(slot)) != self.keep_min {
                    *slot = fresh;
                }
            }
        }
        best
    }

    /// Writes the schema-1 baseline document when `--json-out` was given.
    pub fn write_json(&self, doc: &str) {
        let Some(path) = &self.json_out else { return };
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1)
        }
        println!("wrote {path}");
    }
}

/// What one gated bench compares against its committed baseline.
pub struct GateSpec {
    /// Binary name, for the verdict lines.
    pub bench: &'static str,
    /// JSON field identifying a row (`"jobs"`, `"shape"`).
    pub key: &'static str,
    /// JSON field holding the gated throughput.
    pub rate: &'static str,
    /// Rows that finish faster than this are scheduler-noise-dominated
    /// (one preemption swings them past the 10% floor): reported, not
    /// gated. A real regression shows on the bigger rows too.
    pub min_wall_ms: f64,
}

/// One fresh row as [`gate`] sees it: its key exactly as the JSON
/// document prints it, its wall time and its throughput.
pub struct GateRow {
    pub key: String,
    pub wall_ms: f64,
    pub rate: f64,
}

/// Pulls `"key":<value>` out of a flat JSON object body, unquoted. The
/// baseline is our own schema-1 output, so a field scan is all the
/// parsing the gate needs.
fn json_value<'d>(obj: &'d str, key: &str) -> Option<&'d str> {
    let needle = format!("\"{key}\":");
    let rest = &obj[obj.find(&needle)? + needle.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// The one regression gate: fresh best-of-N rows against the committed
/// worst-of-N baseline at `path`; any gated row below 90% of its
/// baseline throughput fails the run with exit 1. Baseline rows with no
/// fresh counterpart are out of this run's scope (a quick gate sweeps a
/// prefix of the sweep that produced the baseline).
pub fn gate(spec: &GateSpec, path: &str, fresh: &[GateRow]) {
    let doc = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read baseline {path}: {e}");
        std::process::exit(1)
    });
    let rows = doc.find("\"rows\":[").map_or("", |at| &doc[at..]);
    let baseline: Vec<(&str, f64)> = rows
        .split('{')
        .skip(1)
        .filter_map(|obj| {
            let obj = obj.split('}').next().unwrap_or("");
            Some((json_value(obj, spec.key)?, json_value(obj, spec.rate)?.parse().ok()?))
        })
        .collect();
    if baseline.is_empty() {
        eprintln!("baseline {path} has no rows");
        std::process::exit(1)
    }
    let mut regressed = 0usize;
    for (key, base) in baseline {
        let Some(row) = fresh.iter().find(|r| r.key == key) else { continue };
        let floor = base * REGRESSION_FLOOR;
        let verdict = if row.wall_ms < spec.min_wall_ms {
            format!("skipped (sub-{}ms row, noise-dominated)", spec.min_wall_ms)
        } else if row.rate < floor {
            regressed += 1;
            "REGRESSED".to_string()
        } else {
            "ok".to_string()
        };
        println!(
            "check {}={key}: {:.0} {} vs baseline {base:.0} (floor {floor:.0}) {verdict}",
            spec.key, row.rate, spec.rate
        );
    }
    if regressed > 0 {
        eprintln!("{}: {regressed} row(s) regressed >10% vs {path}", spec.bench);
        std::process::exit(1)
    }
    println!("{}: no row regressed >10% vs {path}", spec.bench);
}

/// Pretty byte counts, KB with one decimal like the paper's plots.
pub fn kb(bytes: usize) -> String {
    format!("{:.1}", bytes as f64 / 1024.0)
}

/// Doubling sweep `start..=max`.
pub fn sweep(start: usize, max: usize) -> Vec<usize> {
    let mut v = Vec::new();
    let mut p = start;
    while p <= max {
        v.push(p);
        p *= 2;
    }
    v
}

/// Square process counts `(k*k) <= max`, starting at 4.
pub fn square_sweep(max: usize) -> Vec<usize> {
    let mut v = Vec::new();
    let mut k = 2;
    while k * k <= max {
        v.push(k * k);
        k *= 2;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps() {
        assert_eq!(sweep(8, 64), vec![8, 16, 32, 64]);
        assert_eq!(square_sweep(64), vec![4, 16, 64]);
        assert_eq!(kb(2048), "2.0");
    }

    #[test]
    fn runners_work_end_to_end() {
        let body = mpi_workloads::by_name("stirturb", 5);
        let run = run_pilgrim(4, PilgrimConfig::default(), body.clone());
        assert!(run.trace.size_bytes() > 0);
        assert!(run.total_calls > 0);
        let (st_size, _, groups) = run_scalatrace(4, body.clone());
        assert!(st_size > 0 && groups >= 1);
        let raw = run_raw(4, body.clone());
        assert!(raw > run.trace.size_bytes() as u64);
        let _ = run_untraced(4, body);
    }
}
