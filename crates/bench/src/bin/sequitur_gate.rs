//! `sequitur_gate` — Sequitur push throughput on synthetic terminal
//! streams, with a committed-baseline regression gate.
//!
//! ```text
//! sequitur_gate [--symbols N] [--reps N] [--json-out PATH]
//!               [--check-against PATH] [--stat best|min]
//! ```
//!
//! The online grammar is the hot path of every tracer push, so its
//! throughput is gated the same way ingest throughput is
//! (`ingest_bench`): four deterministic input shapes — a short periodic
//! loop, two nested loop levels, a phase-structured mix, and a
//! high-entropy stream that resists digram reuse — each pushed through
//! [`Grammar::push`] and flattened, reporting sustained symbols/sec.
//!
//! `--json-out PATH` writes the rows as a schema-1 document (the
//! `BENCH_sequitur.json` baseline `scripts/check.sh` keeps in the
//! repo). `--check-against PATH` runs `--reps` sweeps (default 2 under
//! the gate), keeps each row's best symbols/sec (damping scheduler
//! noise), and fails with exit 1 if any row lands below 90% of the
//! baseline. Refresh the baseline with `--reps 3 --stat min`: recording
//! the *worst* rep anchors the baseline at the low end of the noise
//! band, so only a whole-distribution shift trips the gate.

use std::time::Instant;

use pilgrim_bench::{flag, gate, GateArgs, GateRow, GateSpec};
use pilgrim_sequitur::Grammar;

const GATE: GateSpec =
    GateSpec { bench: "sequitur_gate", key: "shape", rate: "symbols_per_sec", min_wall_ms: 5.0 };

/// Deterministic synthetic streams shaped like real traces. Every shape
/// is a pure function of its index so reps and machines agree on input.
fn stream(shape: &str, n: usize) -> Vec<u32> {
    let mut out = Vec::with_capacity(n);
    // SplitMix64 — fixed-seed entropy for the adversarial stream.
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    for i in 0..n {
        let t = match shape {
            // One 8-call loop body repeated forever: Sequitur's best case.
            "periodic8" => (i % 8) as u32,
            // An inner loop of 6 inside an outer loop of 60 with a
            // per-outer-iteration prologue, like a stencil sweep.
            "nested" => {
                if i % 60 < 6 {
                    (100 + i % 6) as u32
                } else {
                    (i % 6) as u32
                }
            }
            // Phase changes every 10k calls, like an app alternating
            // compute/exchange/reduce epochs.
            "mixed" => ((i / 10_000) % 4 * 32 + i % 7) as u32,
            // High-entropy terminals over a 4k alphabet: near-worst case,
            // almost no digram repeats to exploit.
            "noisy4k" => (next() % 4096) as u32,
            _ => unreachable!("unknown shape"),
        };
        out.push(t);
    }
    out
}

struct Row {
    shape: &'static str,
    wall_ms: f64,
    symbols: usize,
    symbols_per_sec: f64,
    rules: usize,
    flat_bytes: usize,
}

fn run_sweep(symbols: usize) -> Vec<Row> {
    ["periodic8", "nested", "mixed", "noisy4k"]
        .into_iter()
        .map(|shape| {
            let input = stream(shape, symbols);
            let start = Instant::now();
            let mut gr = Grammar::new();
            for &t in &input {
                gr.push(t);
            }
            let flat = gr.to_flat();
            let wall = start.elapsed();
            let secs = wall.as_secs_f64().max(1e-9);
            // The flattened grammar must reproduce the input exactly —
            // a throughput number for a wrong grammar is meaningless.
            assert_eq!(flat.expand(), input, "{shape}: lossy grammar");
            Row {
                shape,
                wall_ms: wall.as_secs_f64() * 1e3,
                symbols,
                symbols_per_sec: symbols as f64 / secs,
                rules: flat.num_rules(),
                flat_bytes: flat.byte_size(),
            }
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let symbols = flag(&args, "--symbols").unwrap_or(200_000) as usize;
    let gate_args = GateArgs::parse(&args);
    let reps = gate_args.reps;

    println!(
        "sequitur_gate: {symbols} symbols per shape, {reps} rep{}",
        if reps == 1 { "" } else { "s" }
    );

    let best: Vec<Row> = gate_args.best_of(|| run_sweep(symbols), |r| r.symbols_per_sec);

    println!("| shape | wall (ms) | symbols | symbols/sec | rules | flat bytes |");
    println!("|---|---:|---:|---:|---:|---:|");
    let mut rows: Vec<String> = Vec::new();
    for r in &best {
        println!(
            "| {} | {:.1} | {} | {:.0} | {} | {} |",
            r.shape, r.wall_ms, r.symbols, r.symbols_per_sec, r.rules, r.flat_bytes
        );
        rows.push(format!(
            "{{\"shape\":\"{}\",\"wall_ms\":{:.1},\"symbols\":{},\"symbols_per_sec\":{:.0},\
             \"rules\":{},\"flat_bytes\":{}}}",
            r.shape, r.wall_ms, r.symbols, r.symbols_per_sec, r.rules, r.flat_bytes
        ));
    }

    gate_args.write_json(&format!(
        "{{\"schema\":1,\"bench\":\"sequitur\",\"symbols\":{symbols},\"rows\":[{}]}}\n",
        rows.join(",")
    ));

    if let Some(path) = &gate_args.check_against {
        let fresh: Vec<GateRow> = best
            .iter()
            .map(|r| GateRow {
                key: r.shape.to_string(),
                wall_ms: r.wall_ms,
                rate: r.symbols_per_sec,
            })
            .collect();
        gate(&GATE, path, &fresh);
    }
}
