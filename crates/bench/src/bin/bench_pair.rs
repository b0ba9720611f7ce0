//! `bench_pair` — the one timing comparison: two builds of the frozen
//! `benchmarks/pipeline`, run in alternating pairs.
//!
//! ```text
//! bench_pair [--trace] [--workload <name>] <parent-pipeline-exe> <change-pipeline-exe> [pairs=10]
//! ```
//!
//! Run from the repository root (it reads `./BENCHMARK.json` for the
//! workloads, the end-to-end metrics and their bounds). For each workload
//! it runs `<exe> --workload <w> --seed 1` once per side per pair,
//! alternating which side goes first, reads the `"metrics"` of each run's
//! last stdout line, and prints per workload × end-to-end metric both
//! medians, both inter-quartile spreads, the bound, the pairs the change
//! won and a verdict:
//!
//! * `worse` — the change's median is worse than the parent's by more
//!   than the bound;
//! * `unresolved` — a side's spread is wider than the bound and the two
//!   sides' runs overlap, so this box cannot tell;
//! * `ok` — otherwise.
//!
//! With `--trace` it then runs [`TRACE_PAIRS`] more alternating pairs
//! per workload with `--trace 1` and prints, with no verdict, both medians
//! of the layer rows that tell a real regression from a code-layout
//! shift ([`LAYER_ROWS`]), the pairs that carry the row and its pair-sign
//! test: `trace_ns_per_call` is the wall of a traced world, simulator
//! included, so layout alone moves it, and `sim.untraced_ns_per_call`
//! moving beside it is the tell.
//!
//! `--workload <name>` runs that one workload of `BENCHMARK.json` alone:
//! the rerun to make before reading a `worse` on a row that swings between
//! sessions.
//!
//! Exit 1 on any `worse` or if the change's share of failed operations is
//! higher. Timings on this box swing by more than the benchmark's bounds
//! from one session to the next (DESIGN.md §14), so a timing is only ever
//! compared inside such a pair — never against a committed number. It
//! builds nothing and knows no git: README has the two-line recipe that
//! produces the two executables. Ten pairs take about 35 minutes.

use std::process::{exit, Command};

/// Alternating `--trace 1` pairs per workload that `--trace` adds. At
/// p <= [`SIGN_ALPHA`] a sign test over 12 pairs needs a 10:2 split, so
/// it names the side of a move that wins about 9 pairs in 10 (power
/// ~0.9), not one that wins 7 in 10 (power ~0.25).
const TRACE_PAIRS: usize = 12;

/// Two-sided significance at which a row's pair-sign test names a side.
const SIGN_ALPHA: f64 = 0.05;

/// Per-layer rows `--trace` compares: the durable job's wall, its wait
/// for the finish ack and its acks, and the untraced and traced per-call
/// costs.
const LAYER_ROWS: [&str; 5] = [
    "net.job_wall_ms",
    "net.finish_wait_ms",
    "net.acks",
    "sim.untraced_ns_per_call",
    "tracer.intra_ns_per_call",
];

/// One end-to-end metric of `BENCHMARK.json`.
struct Metric {
    name: String,
    higher_is_better: bool,
    /// Relative worsening of the median that counts as a regression.
    bound: f64,
}

#[derive(Debug, PartialEq, Clone, Copy)]
enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

struct Comparison {
    parent_median: f64,
    change_median: f64,
    /// Inter-quartile distance over the median, per side.
    parent_spread: f64,
    change_spread: f64,
    /// Relative move of the median, positive = worse.
    worse_by: f64,
    /// Pairs in which the change read better; ties count for neither.
    won: usize,
    verdict: Verdict,
}

/// The `{...}` objects of `"key": [...]` in `BENCHMARK.json` (this repo's
/// own file: flat objects, no nested arrays).
fn objects<'d>(doc: &'d str, key: &str) -> Vec<&'d str> {
    let Some(at) = doc.find(&format!("\"{key}\": [")) else { return Vec::new() };
    let list = &doc[at..];
    let list = &list[..list.find(']').unwrap_or(list.len())];
    list.split('{').skip(1).map(|obj| obj.split('}').next().unwrap_or("")).collect()
}

/// `"key": <value>` of a flat JSON object, unquoted.
fn field<'d>(obj: &'d str, key: &str) -> Option<&'d str> {
    let needle = format!("\"{key}\":");
    let rest = &obj[obj.find(&needle)? + needle.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// `"name": {"value": <v>, ...}` of a pipeline result line.
fn metric_value(line: &str, name: &str) -> Option<f64> {
    let at = line.find(&format!("\"{name}\": {{"))?;
    field(&line[at..], "value")?.parse().ok()
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    let at = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (sorted[at.floor() as usize], sorted[at.ceil() as usize]);
    lo + (hi - lo) * at.fract()
}

/// Median and inter-quartile distance relative to it.
fn median_and_spread(runs: &[f64]) -> (f64, f64) {
    let mut sorted = runs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let median = quantile(&sorted, 0.5);
    (median, (quantile(&sorted, 0.75) - quantile(&sorted, 0.25)) / median)
}

/// A median to four significant digits (metrics span 1e-3 .. 1e8).
fn four_digits(v: f64) -> String {
    let decimals = (3 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
    format!("{v:.decimals$}")
}

/// Compares one metric on one workload; `parent[i]` and `change[i]` are
/// the two runs of pair `i`.
fn compare(metric: &Metric, parent: &[f64], change: &[f64]) -> Comparison {
    let better = |c: f64, p: f64| if metric.higher_is_better { c > p } else { c < p };
    let (parent_median, parent_spread) = median_and_spread(parent);
    let (change_median, change_spread) = median_and_spread(change);
    let (from, to) = if metric.higher_is_better {
        (change_median, parent_median)
    } else {
        (parent_median, change_median)
    };
    let worse_by = (to - from) / parent_median;
    let separated = |a: &[f64], b: &[f64]| a.iter().all(|&x| b.iter().all(|&y| better(x, y)));
    let overlap = !separated(change, parent) && !separated(parent, change);
    let verdict = if parent_spread.max(change_spread) > metric.bound && overlap {
        Verdict::Unresolved
    } else if worse_by > metric.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    let won = parent.iter().zip(change).filter(|(&p, &c)| better(c, p)).count();
    Comparison {
        parent_median,
        change_median,
        parent_spread,
        change_spread,
        worse_by,
        won,
        verdict,
    }
}

/// Runs one side once, with `--trace 1` when `traced`; returns the result
/// object on its last stdout line.
fn run(exe: &str, workload: &str, traced: bool) -> String {
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", "1"]);
    if traced {
        cmd.args(["--trace", "1"]);
    }
    let out = cmd.output();
    let out = out.unwrap_or_else(|e| {
        eprintln!("bench_pair: cannot run {exe}: {e}");
        exit(1)
    });
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout.lines().last() {
        Some(line) if line.contains("\"metrics\"") => line.to_string(),
        _ => {
            eprintln!("bench_pair: {exe} --workload {workload} printed no result ({})", out.status);
            exit(1)
        }
    }
}

/// Runs `pairs` alternating pairs of one workload; `lines[side][pair]`
/// are the result objects.
fn run_pairs(sides: [&String; 2], workload: &str, pairs: usize, traced: bool) -> [Vec<String>; 2] {
    let mut lines = [Vec::new(), Vec::new()];
    for pair in 0..pairs {
        for side in [pair % 2, 1 - pair % 2] {
            let mode = if traced { " --trace 1" } else { "" };
            eprintln!("bench_pair: {workload}{mode} pair {}/{pairs}, {}", pair + 1, sides[side]);
            lines[side].push(run(sides[side], workload, traced));
        }
    }
    lines
}

/// A row's pair-sign test: in how many pairs the change read higher and
/// lower (ties count for neither), and the two-sided p-value of that
/// split were either side as likely to read higher.
#[derive(Debug)]
struct SignTest {
    higher: usize,
    lower: usize,
    p: f64,
}

fn sign_test(parent: &[f64], change: &[f64]) -> SignTest {
    let higher = parent.iter().zip(change).filter(|(p, c)| c > p).count();
    let lower = parent.iter().zip(change).filter(|(p, c)| c < p).count();
    SignTest { higher, lower, p: two_sided_p(higher, lower) }
}

/// The chance of a split at least as lopsided as `a : b` from fair coins.
fn two_sided_p(a: usize, b: usize) -> f64 {
    let n = a + b;
    let choose = |k: usize| (0..k).fold(1.0, |acc, i| acc * (n - i) as f64 / (i + 1) as f64);
    let tail: f64 = (0..=a.min(b)).map(choose).sum::<f64>() / 2f64.powi(n as i32);
    (2.0 * tail).min(1.0)
}

impl SignTest {
    fn describe(&self) -> String {
        let side = match (self.p <= SIGN_ALPHA, self.higher > self.lower) {
            (false, _) => "no sign",
            (true, true) => "higher",
            (true, false) => "lower",
        };
        let n = self.higher + self.lower;
        format!("{side}, {}/{n} (p={:.3})", self.higher.max(self.lower), self.p)
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let (mut traced, mut only) = (false, None);
    while let Some(flag) = args.first().filter(|a| a.starts_with("--")).cloned() {
        args.remove(0);
        match flag.as_str() {
            "--trace" => traced = true,
            "--workload" if !args.is_empty() => only = Some(args.remove(0)),
            _ => args.clear(), // an unknown flag: the usage line below
        }
    }
    let pairs = match args.as_slice() {
        [_, _] => Some(10),
        [_, _, n] => n.parse().ok().filter(|&n| n > 0),
        _ => None,
    };
    let Some(pairs) = pairs else {
        eprintln!(
            "usage: bench_pair [--trace] [--workload <name>] <parent-pipeline-exe> \
             <change-pipeline-exe> [pairs=10]"
        );
        exit(2)
    };
    let sides = [&args[0], &args[1]];
    let spec = std::fs::read_to_string("BENCHMARK.json").unwrap_or_else(|e| {
        eprintln!("bench_pair: cannot read ./BENCHMARK.json (run from the repository root): {e}");
        exit(2)
    });
    let mut workloads: Vec<&str> =
        objects(&spec, "workloads").iter().filter_map(|w| field(w, "name")).collect();
    if let Some(only) = &only {
        if !workloads.contains(&only.as_str()) {
            eprintln!("bench_pair: BENCHMARK.json has no workload {only:?}: {workloads:?}");
            exit(2)
        }
        workloads.retain(|w| w == only);
    }
    let metrics: Vec<Metric> = objects(&spec, "end_to_end")
        .iter()
        .filter_map(|m| {
            Some(Metric {
                name: field(m, "name")?.to_string(),
                higher_is_better: field(m, "better")? == "higher",
                bound: field(m, "bound")?.parse().ok()?,
            })
        })
        .collect();
    if workloads.is_empty() || metrics.is_empty() {
        eprintln!("bench_pair: BENCHMARK.json names no workloads or no end-to-end metrics");
        exit(2)
    }

    println!(
        "| workload | metric | parent median | change median | worse by % | parent IQR % | \
         change IQR % | bound % | pairs won | verdict |"
    );
    println!("|---|---|---:|---:|---:|---:|---:|---:|---:|---|");
    // Per side: operations failed and attempted over every run.
    let mut ops = [(0u64, 0u64); 2];
    let mut worse = 0usize;
    for &workload in &workloads {
        let lines = run_pairs(sides, workload, pairs, false);
        for (side, runs) in lines.iter().enumerate() {
            for line in runs {
                let count = |key| field(line, key).and_then(|v| v.parse().ok()).unwrap_or(0u64);
                ops[side].0 += count("failed");
                ops[side].1 += count("attempted");
            }
        }
        for metric in &metrics {
            let values = |side: usize| -> Vec<f64> {
                let read = |line: &String| {
                    metric_value(line, &metric.name).unwrap_or_else(|| {
                        eprintln!("bench_pair: a {workload} run lacks metric {}", metric.name);
                        exit(1)
                    })
                };
                lines[side].iter().map(read).collect()
            };
            let c = compare(metric, &values(0), &values(1));
            worse += usize::from(c.verdict == Verdict::Worse);
            println!(
                "| {workload} | {} | {} | {} | {:+.1} | {:.1} | {:.1} | {:.0} | {}/{pairs} | {} |",
                metric.name,
                four_digits(c.parent_median),
                four_digits(c.change_median),
                c.worse_by * 100.0,
                c.parent_spread * 100.0,
                c.change_spread * 100.0,
                metric.bound * 100.0,
                c.won,
                format!("{:?}", c.verdict).to_lowercase()
            );
        }
    }
    let [(parent_failed, parent_ops), (change_failed, change_ops)] = ops;
    println!("\nfailed/attempted: parent {parent_failed}/{parent_ops}, change {change_failed}/{change_ops}");
    if traced {
        layer_table(sides, &workloads);
    }
    // Shares compared as cross products: no division, no 0/0.
    let more_failures = change_failed * parent_ops > parent_failed * change_ops;
    if more_failures {
        eprintln!("bench_pair: the change fails a larger share of operations");
    }
    if worse > 0 {
        eprintln!("bench_pair: {worse} metric(s) worse than the parent beyond their bound");
    }
    exit(i32::from(worse > 0 || more_failures))
}

/// `--trace`: per workload, [`TRACE_PAIRS`] alternating `--trace 1`
/// pairs, and for every [`LAYER_ROWS`] row both medians, the pairs in
/// which both runs carry the row and its sign test over those pairs.
/// Informational: no bound, no verdict, no effect on the exit code.
fn layer_table(sides: [&String; 2], workloads: &[&str]) {
    println!(
        "\n`--trace 1`, {TRACE_PAIRS} pairs per workload, medians and pair-sign test of change \
         against parent at p <= {SIGN_ALPHA} (informational, no verdict):\n"
    );
    println!("| workload | row | parent median | change median | change % | pairs | sign test |");
    println!("|---|---|---:|---:|---:|---:|---|");
    for &workload in workloads {
        let lines = run_pairs(sides, workload, TRACE_PAIRS, true);
        for row in LAYER_ROWS {
            // Pair by pair; a pair in which either run lacks the row drops out.
            let (parent, change): (Vec<f64>, Vec<f64>) = lines[0]
                .iter()
                .zip(&lines[1])
                .filter_map(|(p, c)| Option::zip(metric_value(p, row), metric_value(c, row)))
                .unzip();
            let used = parent.len();
            if used == 0 {
                println!("| {workload} | {row} | n/a | n/a | n/a | 0 | n/a |");
                continue;
            }
            let (p, c) = (median_and_spread(&parent).0, median_and_spread(&change).0);
            let moved =
                if p != 0.0 { format!("{:+.1}", (c - p) / p * 100.0) } else { "n/a".into() };
            println!(
                "| {workload} | {row} | {} | {} | {moved} | {used} | {} |",
                four_digits(p),
                four_digits(c),
                sign_test(&parent, &change).describe()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict(higher_is_better: bool, parent: &[f64], change: &[f64]) -> (Verdict, usize) {
        let metric = Metric { name: "m".into(), higher_is_better, bound: 0.2 };
        let c = compare(&metric, parent, change);
        (c.verdict, c.won)
    }

    #[test]
    fn verdicts_on_canned_runs() {
        let parent = [100.0, 102.0, 98.0, 101.0, 99.0];
        // Clear win and clear loss on a lower-is-better metric, tight spread.
        assert_eq!(verdict(false, &parent, &[50.0, 51.0, 49.0, 50.0, 52.0]), (Verdict::Ok, 5));
        assert_eq!(
            verdict(false, &parent, &[150.0, 151.0, 149.0, 150.0, 152.0]),
            (Verdict::Worse, 0)
        );
        // The same numbers are a loss / a win when higher is better.
        assert_eq!(verdict(true, &parent, &[50.0, 51.0, 49.0, 50.0, 52.0]), (Verdict::Worse, 0));
        assert_eq!(verdict(true, &parent, &[150.0, 151.0, 149.0, 150.0, 152.0]), (Verdict::Ok, 5));
        // Within the 20 % bound: 10 % slower is not a regression.
        assert_eq!(verdict(false, &parent, &[110.0, 112.0, 108.0, 111.0, 109.0]), (Verdict::Ok, 0));
        // Spread wider than the bound and overlapping runs: cannot tell,
        // whichever way the medians fall.
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(
            verdict(false, &noisy, &[130.0, 70.0, 150.0, 90.0, 135.0]).0,
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(false, &noisy, &[65.0, 95.0, 100.0, 75.0, 110.0]).0,
            Verdict::Unresolved
        );
        // Wide spread, but every change run beats every parent run: resolved.
        assert_eq!(verdict(false, &noisy, &[30.0, 50.0, 20.0, 40.0, 55.0]), (Verdict::Ok, 5));
        // ... and fully separated the other way is a loss, not a shrug.
        assert_eq!(verdict(false, &noisy, &[300.0, 500.0, 200.0, 400.0, 550.0]).0, Verdict::Worse);
        // Exact metrics (bytes per call): equal runs tie, nobody wins.
        assert_eq!(verdict(false, &[7.5; 4], &[7.5; 4]), (Verdict::Ok, 0));
    }

    #[test]
    fn sign_tests_name_a_side_only_when_significant() {
        let parent = [10.0; 6];
        // Six pairs, all one way: significant (2/64 < 0.05), either sign.
        let lower = sign_test(&parent, &[9.0; 6]);
        assert!((lower.p - 2.0 / 64.0).abs() < 1e-12);
        assert_eq!(lower.describe(), "lower, 6/6 (p=0.031)");
        assert_eq!(sign_test(&parent, &[11.0; 6]).describe(), "higher, 6/6 (p=0.031)");
        // Three pairs one way are not enough.
        let three = sign_test(&[10.0; 3], &[9.0; 3]);
        assert!((three.p - 0.25).abs() < 1e-12);
        assert_eq!(three.describe(), "no sign, 3/3 (p=0.250)");
        let even = sign_test(&parent, &[9.0, 11.0, 9.0, 11.0, 9.0, 11.0]);
        assert_eq!(even.describe(), "no sign, 3/6 (p=1.000)");
        // Over TRACE_PAIRS pairs a side needs a 10:2 split.
        assert!(two_sided_p(10, 2) <= SIGN_ALPHA && two_sided_p(9, 3) > SIGN_ALPHA);
        // Ties count for neither side.
        let tied = sign_test(&parent, &parent);
        assert_eq!((tied.higher, tied.lower, tied.p), (0, 0, 1.0));
    }

    #[test]
    fn reads_the_benchmark_contract_and_a_result_line() {
        let spec = r#"{"workloads": [
            {"name": "a", "why": "x: y, z"}, {"name": "b", "why": "w"}],
          "end_to_end": [{"name": "open_ms", "unit": "ms", "better": "lower", "bound": 0.2}]}"#;
        let names: Vec<_> = objects(spec, "workloads").iter().map(|w| field(w, "name")).collect();
        assert_eq!(names, [Some("a"), Some("b")]);
        let m = objects(spec, "end_to_end")[0];
        assert_eq!((field(m, "better"), field(m, "bound")), (Some("lower"), Some("0.2")));
        let line = r#"{"correct": true, "attempted": 12, "failed": 1, "metrics": {"setup_s": {"value": 0.25, "unit": "s"}, "open_ms": {"value": 12.5, "unit": "ms"}}}"#;
        assert_eq!(metric_value(line, "open_ms"), Some(12.5));
        assert_eq!(metric_value(line, "probe_ns"), None);
        assert_eq!((field(line, "attempted"), field(line, "failed")), (Some("12"), Some("1")));
        assert_eq!(four_digits(150011208.6), "150011209");
        assert_eq!(four_digits(0.0019637104), "0.001964");
        assert_eq!(four_digits(16.971), "16.97");
    }
}
