//! `trace_tool` — record, inspect, verify, export, and replay Pilgrim
//! trace files from the command line.
//!
//! ```text
//! trace_tool record <workload> <ranks> <iters> <out.pilgrim> [--budget <bytes>] [--rr]
//! trace_tool inspect <trace.pilgrim>
//! trace_tool stats <trace.pilgrim>
//! trace_tool validate <trace.pilgrim>
//! trace_tool signatures <trace.pilgrim>
//! trace_tool export <trace.pilgrim> [out.txt]
//! trace_tool decode <trace.pilgrim> <rank> [limit]
//! trace_tool replay <trace.pilgrim> [--strict]
//! trace_tool minimize <trace.pilgrim> <out.pilgrim> <out.json>
//! trace_tool mutate <trace.pilgrim> <out.pilgrim>
//! trace_tool query <trace.pilgrim> [rank]
//! trace_tool slice <trace.pilgrim> <rank> <start> <count>
//! trace_tool matrix <trace.pilgrim>
//! trace_tool fidelity <trace.pilgrim>
//! trace_tool recover <spill_dir>
//! ```
//!
//! ## Record / replay / minimize
//!
//! `record --rr` enables the nondeterminism side-channel
//! ([`pilgrim::rr`]): every wildcard match, completion order, and probe
//! outcome is logged into the container's `PGND` section. `replay
//! --strict` then proves the recording deterministic (exit 0) or names
//! the first mismatching `(rank, call_index)` (exit 1); degraded traces
//! exit 3 with a partial-replay report instead of claiming a
//! divergence. `minimize` shrinks a diverging recording to a
//! self-contained reproducer (container + expected-divergence JSON);
//! `mutate` deterministically corrupts the first logged event — the CI
//! fixture for the strict gate.
//!
//! The query subcommands answer from the compressed grammar (indexed
//! random access + grammar-aware aggregation) and emit deterministic JSON
//! on stdout; index-build and query timings go to stderr.
//!
//! ## JSON envelope (schema 1)
//!
//! Every JSON-producing subcommand (`query`, `slice`, `matrix`,
//! `validate`, `fidelity`, `recover`) emits one object wrapped in a
//! versioned envelope:
//!
//! ```text
//! {"schema":1,"command":"<subcommand>",...,"fidelity":{...}}
//! ```
//!
//! The `"fidelity"` field is always present — `lossless:true` with empty
//! rank lists for clean traces, `null` when the command has no single
//! trace to report on (`recover`, failed `validate`) — so consumers
//! never need to probe for it.
//!
//! ## Exit codes (uniform across subcommands)
//!
//! * `0` — success (for `fidelity`: the trace is lossless; for
//!   `recover`: every job recovered clean; for `replay --strict`: the
//!   recording replayed deterministically)
//! * `1` — invalid input or a detected loss: unreadable file, decode
//!   failure, a `validate` consistency issue, or a `replay` divergence
//! * `2` — usage error
//! * `3` — degraded: `fidelity` on a degraded trace, `recover` with
//!   partial/lost jobs, `record`/`replay`/`minimize` on a trace whose
//!   ranks are truncated, lost, or salvaged
//!
//! Every trace file is a checksummed `PGC1` container: `record` writes
//! one, and every reader decodes it strictly, refusing a damaged file with
//! the byte offset of the first problem (`recover` salvages what it can).

use std::fs;
use std::io::{BufWriter, Write};
use std::process::exit;

use mpi_sim::FuncId;
use pilgrim::{
    json_array, json_string, minimize, replay_strict, CallIterator, DecodeError, Divergence,
    GlobalTrace, JsonObject, MetricsRegistry, MinimizeError, NondetEvent, PartialReplayReport,
    PilgrimConfig, QueryEngine, RankStatus, Stage, StrictReplay, TraceIndex,
};
use pilgrim_bench::run_pilgrim;

fn usage() -> ! {
    eprintln!(
        "usage:\n  trace_tool record <workload> <ranks> <iters> <out.pilgrim> [--budget <bytes>] [--rr]\n  \
         trace_tool inspect <trace.pilgrim>\n  \
         trace_tool stats <trace.pilgrim>\n  \
         trace_tool validate <trace.pilgrim>\n  \
         trace_tool signatures <trace.pilgrim>\n  \
         trace_tool export <trace.pilgrim> [out.txt]\n  \
         trace_tool decode <trace.pilgrim> <rank> [limit]\n  \
         trace_tool replay <trace.pilgrim> [--strict]\n  \
         trace_tool minimize <trace.pilgrim> <out.pilgrim> <out.json>\n  \
         trace_tool mutate <trace.pilgrim> <out.pilgrim>\n  \
         trace_tool query <trace.pilgrim> [rank]\n  \
         trace_tool slice <trace.pilgrim> <rank> <start> <count>\n  \
         trace_tool matrix <trace.pilgrim>\n  \
         trace_tool fidelity <trace.pilgrim>\n  \
         trace_tool recover <spill_dir>\n\nworkloads: {}",
        mpi_workloads::ALL_WORKLOADS.join(", ")
    );
    exit(2)
}

fn func_name(id: u16) -> &'static str {
    FuncId::from_id(id).map_or("MPI_<unknown>", |f| f.name())
}

/// Prints the index-build/query stage timings to stderr (stdout stays
/// deterministic for golden-output checks).
fn report_query_timing(metrics: &MetricsRegistry) {
    let snap = metrics.snapshot();
    eprintln!(
        "index-build {} ns, query {} ns",
        snap.stage_ns(Stage::IndexBuild),
        snap.stage_ns(Stage::Query)
    );
}

fn load(path: &str) -> GlobalTrace {
    let bytes = fs::read(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1)
    });
    GlobalTrace::decode_container(&bytes).unwrap_or_else(|e| {
        eprintln!("{path} is not a valid pilgrim trace: {e}");
        exit(1)
    })
}

fn write_file(path: &str, bytes: &[u8]) {
    fs::write(path, bytes).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        exit(1)
    });
}

/// `["a","b"]` from a list of messages.
fn message_array(items: &[String]) -> String {
    json_array(items.iter().map(|s| json_string(s)))
}

/// A [`pilgrim::FidelityReport`] as a JSON object: the `"fidelity"` member
/// every JSON subcommand carries (schema 1), so consumers never probe for
/// it.
fn fidelity_json(trace: &GlobalTrace) -> String {
    let f = trace.fidelity();
    JsonObject::default()
        .raw("lossless", f.lossless)
        .raw("frozen_ranks", json_array(&f.frozen_ranks))
        .raw("timing_degraded_ranks", json_array(&f.timing_degraded_ranks))
        .raw("sealed_ranks", json_array(&f.sealed_ranks))
        .raw("lost_ranks", json_array(&f.lost_ranks))
        .raw("checkpoint_ranks", json_array(&f.checkpoint_ranks))
        .raw("salvaged_ranks", json_array(&f.salvaged_ranks))
        .raw("net_spilled_ranks", json_array(&f.net_spilled_ranks))
        .raw("events", f.events)
        .finish()
}

/// A [`Divergence`] as a JSON object.
fn divergence_json(d: &Divergence) -> String {
    JsonObject::default()
        .raw("rank", d.rank)
        .raw("call_index", d.call_index)
        .str("expected", &d.expected)
        .str("got", &d.got)
        .finish()
}

/// The envelope of a command that could not read its input: `"ok":false`,
/// the one problem, and `"fidelity":null` — there is no trace to report on.
fn input_failure(command: &str, problem: String) -> ! {
    println!(
        "{}",
        JsonObject::envelope(command)
            .raw("ok", false)
            .raw("problems", message_array(&[problem]))
            .raw("fidelity", "null")
            .finish()
    );
    exit(1)
}

/// The degraded-replay verdict shared by `replay` and `minimize`:
/// schema-1 envelope with the partial-replay rank lists, exit 3.
fn degraded_exit(command: &str, trace: &GlobalTrace, report: &PartialReplayReport) -> ! {
    let first = |pairs: &[(usize, u64)]| json_array(pairs.iter().map(|&(r, _)| r));
    println!(
        "{}",
        JsonObject::envelope(command)
            .raw("degraded", true)
            .raw("replayable_ranks", json_array(&report.replayable_ranks))
            .raw("truncated_ranks", first(&report.truncated_ranks))
            .raw("lost_ranks", json_array(report.lost_ranks.iter().map(|&(r, _)| r)))
            .raw("salvaged_ranks", first(&report.salvaged_ranks))
            .raw("net_spilled_ranks", json_array(&report.net_spilled_ranks))
            .raw("divergence", "null")
            .raw("fidelity", fidelity_json(trace))
            .finish()
    );
    exit(3)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("record") if args.len() >= 5 => {
            let workload = &args[1];
            let ranks: usize = args[2].parse().unwrap_or_else(|_| usage());
            let iters: usize = args[3].parse().unwrap_or_else(|_| usage());
            if let Err(problem) = mpi_workloads::check(workload, ranks) {
                eprintln!("trace_tool record: {problem}");
                exit(2)
            }
            let mut cfg = PilgrimConfig::default();
            let mut rr = false;
            let mut rest = args[5..].iter();
            while let Some(flag) = rest.next() {
                match flag.as_str() {
                    "--budget" => {
                        let budget: usize =
                            rest.next().and_then(|b| b.parse().ok()).unwrap_or_else(|| usage());
                        cfg = cfg.memory_budget(budget);
                    }
                    "--rr" => rr = true,
                    _ => usage(),
                }
            }
            let body = mpi_workloads::by_name(workload, iters);
            let trace = if rr {
                // Side-channel recording: every nondeterministic resolution
                // lands in the container's PGND section for strict replay.
                pilgrim::record(ranks, cfg, move |env| body(env)).unwrap_or_else(|| {
                    eprintln!("recording produced no rank-0 trace");
                    exit(1)
                })
            } else {
                run_pilgrim(ranks, cfg, body).trace
            };
            let bytes = pilgrim::write_container(&trace);
            write_file(&args[4], &bytes);
            println!(
                "{}",
                JsonObject::envelope("record")
                    .str("workload", workload)
                    .raw("ranks", ranks)
                    .raw("calls", trace.total_calls())
                    .raw("bytes", bytes.len())
                    .str("out", &args[4])
                    .raw("rr", rr)
                    .raw("nondet_events", trace.nondet.as_ref().map_or(0, pilgrim::NondetLog::len))
                    .raw("fidelity", fidelity_json(&trace))
                    .finish()
            );
            if trace.is_degraded() {
                exit(3)
            }
        }
        Some("inspect") if args.len() == 2 => {
            let trace = load(&args[1]);
            let report = trace.size_report();
            println!("ranks:            {}", trace.nranks);
            println!("calls:            {}", trace.total_calls());
            println!("signatures (CST): {}", trace.cst.len());
            println!("unique grammars:  {}", trace.unique_grammars);
            println!("grammar rules:    {}", trace.grammar.num_rules());
            println!("size:             {} bytes", report.full_total());
            println!("  CST             {} bytes", report.cst_bytes);
            println!("  grammar         {} bytes", report.grammar_bytes);
            println!("  duration gram.  {} bytes", report.duration_bytes);
            println!("  interval gram.  {} bytes", report.interval_bytes);
            println!("  metadata        {} bytes", report.meta_bytes());
            if trace.completeness.is_complete() {
                println!("completeness:     all {} ranks merged", trace.nranks);
            } else {
                for (rank, round) in trace.completeness.lost_ranks() {
                    println!("completeness:     rank {rank} LOST (merge round {round})");
                }
                for (rank, calls) in trace.completeness.checkpoint_ranks() {
                    println!(
                        "completeness:     rank {rank} truncated at checkpoint ({calls} calls)"
                    );
                }
            }
            // Function histogram from the CST.
            let mut counts: std::collections::HashMap<&str, u64> = Default::default();
            for (_, sig, stats) in trace.cst.iter() {
                if let Some(call) = pilgrim::decode_signature(sig) {
                    let name = FuncId::from_id(call.func).map_or("?", |f| f.name());
                    *counts.entry(name).or_default() += stats.count;
                }
            }
            let mut rows: Vec<_> = counts.into_iter().collect();
            rows.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
            println!("\ntop functions:");
            for (name, c) in rows.into_iter().take(12) {
                println!("  {name:<28}{c:>12}");
            }
        }
        Some("stats") if args.len() == 2 => {
            // Machine-readable size decomposition as JSON. Stage timers are
            // present (and zero): timing only exists while tracing runs.
            let trace = load(&args[1]);
            let mut report = MetricsRegistry::default().snapshot();
            report.size = Some(trace.size_report());
            report.counters.insert("calls".into(), trace.total_calls());
            report.counters.insert("cst.signatures".into(), trace.cst.len() as u64);
            report.counters.insert("cfg.rules".into(), trace.grammar.num_rules() as u64);
            report.counters.insert("merge.unique_grammars".into(), trace.unique_grammars as u64);
            let lost = trace.completeness.lost_ranks().len() as u64;
            let truncated = trace.completeness.checkpoint_ranks().len() as u64;
            report.counters.insert("manifest.lost_ranks".into(), lost);
            report.counters.insert("manifest.checkpoint_ranks".into(), truncated);
            report
                .counters
                .insert("manifest.merged_ranks".into(), trace.nranks as u64 - lost - truncated);
            println!("{}", report.to_json());
        }
        Some("validate") if args.len() == 2 => {
            // Structural validation with a nonzero exit for CI gates: the
            // file must decode (errors name the byte offset) and the
            // decoded trace must be internally consistent (rule graph,
            // rank lengths, manifest coverage, timing maps). Emits the
            // schema-1 envelope; a decode failure carries "fidelity":null
            // because there is no trace to report on.
            let path = &args[1];
            let bytes = match fs::read(path) {
                Ok(b) => b,
                Err(e) => input_failure("validate", format!("cannot read {path}: {e}")),
            };
            let trace = match GlobalTrace::decode_container(&bytes) {
                Ok(t) => t,
                Err(e) => input_failure("validate", format!("decode failed: {e}")),
            };
            let issues = trace.validate();
            let merged = (0..trace.nranks)
                .filter(|&r| trace.completeness.status(r) == RankStatus::Merged)
                .count();
            println!(
                "{}",
                JsonObject::envelope("validate")
                    .raw("ok", issues.is_empty())
                    .raw("bytes", bytes.len())
                    .raw("nranks", trace.nranks)
                    .raw("merged", merged)
                    .raw("lost", trace.completeness.lost_ranks().len())
                    .raw("truncated", trace.completeness.checkpoint_ranks().len())
                    .raw("problems", message_array(&issues))
                    .raw("fidelity", fidelity_json(&trace))
                    .finish()
            );
            if !issues.is_empty() {
                exit(1)
            }
        }
        Some("signatures") if args.len() == 2 => {
            let listing = pilgrim::to_signature_listing(&load(&args[1])).unwrap_or_else(|e| {
                eprintln!("{} does not export: {e}", args[1]);
                exit(1)
            });
            print!("{listing}");
        }
        Some("export") if args.len() >= 2 => {
            // Streamed: definitions, then one EVT row per call straight
            // off the grammar walker, never a materialised rank.
            let trace = load(&args[1]);
            let sink: Box<dyn Write> = match args.get(2) {
                Some(out) => Box::new(fs::File::create(out).unwrap_or_else(|e| {
                    eprintln!("cannot write {out}: {e}");
                    exit(1)
                })),
                None => Box::new(std::io::stdout().lock()),
            };
            let mut sink = BufWriter::new(sink);
            if let Err(e) = pilgrim::write_text(&trace, &mut sink).and_then(|()| sink.flush()) {
                eprintln!("{} does not export: {e}", args[1]);
                exit(1)
            }
            if let Some(out) = args.get(2) {
                let lines = 4 + trace.cst.len() as u64 + trace.total_calls();
                println!("exported {lines} lines to {out}");
            }
        }
        Some("decode") if args.len() >= 3 => {
            // Streamed: `limit` calls cost `limit` calls, wherever the
            // rank sits and however long it is.
            let trace = load(&args[1]);
            let rank: usize = args[2].parse().unwrap_or_else(|_| usage());
            let limit: usize =
                args.get(3).map(|l| l.parse().unwrap_or_else(|_| usage())).unwrap_or(50);
            let fail = |e: DecodeError| -> ! {
                eprintln!("rank {rank} does not decode: {e}");
                exit(1)
            };
            if rank >= trace.nranks {
                fail(DecodeError::NoSuchRank { rank, nranks: trace.nranks })
            }
            let index = TraceIndex::build(&trace);
            for (i, call) in CallIterator::new(&trace, &index, rank).take(limit).enumerate() {
                let call = call.unwrap_or_else(|e| fail(e));
                let name = FuncId::from_id(call.func).map_or("?", |f| f.name());
                println!("{i:>6}  {name}  {} args", call.args.len());
            }
        }
        Some("query") if args.len() == 2 || args.len() == 3 => {
            // Per-signature call counts and apportioned aggregate time,
            // whole trace or one rank, straight from the grammar.
            let trace = load(&args[1]);
            let rank: Option<usize> = args.get(2).map(|r| r.parse().unwrap_or_else(|_| usage()));
            if rank.is_some_and(|r| r >= trace.nranks) {
                eprintln!("trace has {} ranks", trace.nranks);
                exit(1)
            }
            let metrics = MetricsRegistry::new(true);
            let index = TraceIndex::build_with_metrics(&trace, &metrics);
            let engine = QueryEngine::with_metrics(&trace, &index, &metrics);
            let counts = match rank {
                Some(r) => engine.rank_signature_counts(r),
                None => engine.signature_counts().clone(),
            };
            let rows = engine.summarize(&counts);
            let total: u64 = rows.iter().map(|r| r.count).sum();
            let signatures = rows.iter().map(|row| {
                JsonObject::default()
                    .raw("term", row.term)
                    .str("func", func_name(row.func))
                    .raw("count", row.count)
                    .raw("time_ns", row.time_ns)
                    .finish()
            });
            println!(
                "{}",
                JsonObject::envelope("query")
                    .str("scope", &rank.map_or_else(|| "trace".into(), |r| format!("rank {r}")))
                    .raw("calls", total)
                    .raw("signatures", json_array(signatures))
                    .raw("fidelity", fidelity_json(&trace))
                    .finish()
            );
            report_query_timing(&metrics);
        }
        Some("slice") if args.len() == 5 => {
            // A window of one rank's calls via the streaming decoder:
            // constant memory regardless of where the window sits.
            let trace = load(&args[1]);
            let rank: usize = args[2].parse().unwrap_or_else(|_| usage());
            let start: u64 = args[3].parse().unwrap_or_else(|_| usage());
            let count: usize = args[4].parse().unwrap_or_else(|_| usage());
            if rank >= trace.nranks {
                eprintln!("trace has {} ranks", trace.nranks);
                exit(1)
            }
            let metrics = MetricsRegistry::new(true);
            let index = TraceIndex::build_with_metrics(&trace, &metrics);
            let timer = metrics.time_stage(Stage::Query);
            // A start past the rank's end (however far) is an empty window;
            // every call yielded sits below `rank_len`, so `start + i` fits.
            let skip = usize::try_from(start).unwrap_or(usize::MAX);
            let window = CallIterator::new(&trace, &index, rank).skip(skip).take(count);
            let calls = window.enumerate().map(|(i, decoded)| {
                let i = start + i as u64;
                let call = decoded.unwrap_or_else(|e| {
                    eprintln!("rank {rank} call {i}: {e}");
                    exit(1)
                });
                let arg_list = call.args.iter().map(|a| json_string(&pilgrim::format_arg(a)));
                JsonObject::default()
                    .raw("i", i)
                    .str("func", func_name(call.func))
                    .raw("args", json_array(arg_list))
                    .finish()
            });
            let out = JsonObject::envelope("slice")
                .raw("rank", rank)
                .raw("start", start)
                .raw("rank_calls", index.rank_len(rank))
                .raw("calls", json_array(calls))
                .raw("fidelity", fidelity_json(&trace))
                .finish();
            drop(timer);
            println!("{out}");
            report_query_timing(&metrics);
        }
        Some("matrix") if args.len() == 2 => {
            // Point-to-point communication matrix, computed without ever
            // expanding the grammar.
            let trace = load(&args[1]);
            let metrics = MetricsRegistry::new(true);
            let index = TraceIndex::build_with_metrics(&trace, &metrics);
            let engine = QueryEngine::with_metrics(&trace, &index, &metrics);
            let m = engine.comm_matrix();
            let rows = |cells: &[u64]| json_array(cells.chunks(m.nranks.max(1)).map(json_array));
            println!(
                "{}",
                JsonObject::envelope("matrix")
                    .raw("nranks", m.nranks)
                    .raw("sends", rows(&m.sends))
                    .raw("recvs", rows(&m.recvs))
                    .raw("wildcard_recvs", json_array(&m.wildcard_recvs))
                    .raw("dropped", m.dropped)
                    .raw("total_sends", m.total_sends())
                    .raw("total_recvs", m.total_recvs())
                    .raw("fidelity", fidelity_json(&trace))
                    .finish()
            );
            report_query_timing(&metrics);
        }
        Some("fidelity") if args.len() == 2 => {
            // What the trace admits about itself: per-rank degradation
            // ladder progress, lost/truncated/salvaged ranks, and the full
            // governor event log. Exit 0 for lossless traces, 3 for
            // degraded ones, so scripts can gate on fidelity cheaply.
            let trace = load(&args[1]);
            let events = trace.completeness.events.iter().map(|(rank, ev)| {
                JsonObject::default()
                    .raw("rank", rank)
                    .raw("call_index", ev.call_index)
                    .str("stage", ev.stage.name())
                    .str("component", ev.component.name())
                    .raw("bytes", ev.bytes)
                    .finish()
            });
            println!(
                "{}",
                JsonObject::envelope("fidelity")
                    .raw("fidelity", fidelity_json(&trace))
                    .raw("events", json_array(events))
                    .finish()
            );
            if trace.is_degraded() {
                exit(3)
            }
        }
        Some("recover") if args.len() == 2 => {
            // Rebuild every job a crashed ingest session left under its
            // spill directory: replay shard WALs, read back or salvage
            // containers, classify recovered/partial/lost. Exit 0 when
            // every job recovered clean, 3 when anything was partial or
            // lost, 1 when the directory itself is unreadable. The
            // envelope's "fidelity" is null — there is no single trace.
            let dir = std::path::Path::new(&args[1]);
            let report = pilgrim::IngestSession::recover(dir).unwrap_or_else(|e| {
                input_failure("recover", format!("cannot read {}: {e}", args[1]))
            });
            let jobs = report.jobs.iter().map(|job| {
                let output = job.output.as_ref().map(|p| json_string(&p.display().to_string()));
                JsonObject::default()
                    .raw("job", job.job)
                    .str("state", job.state.as_str())
                    .str("source", job.source.as_str())
                    .raw("calls", job.calls)
                    .raw("nranks", job.trace.as_ref().map_or(0, |t| t.nranks))
                    .raw("output", output.unwrap_or_else(|| "null".into()))
                    .raw("problems", message_array(&job.problems))
                    .finish()
            });
            println!(
                "{}",
                JsonObject::envelope("recover")
                    .str("dir", &args[1])
                    .raw("jobs", json_array(jobs))
                    .fields(report.fields())
                    .raw("problems", message_array(&report.problems))
                    .raw("fidelity", "null")
                    .finish()
            );
            if report.partial() + report.lost() > 0 {
                exit(3)
            }
        }
        Some("replay") if args.len() == 2 || (args.len() == 3 && args[2] == "--strict") => {
            let strict = args.len() == 3;
            let trace = load(&args[1]);
            let report = pilgrim::partial_replay_report(&trace);
            if !report.is_fully_replayable() {
                // A truncated rank stops short of its matching sends and
                // receives; replaying it live would deadlock the world.
                degraded_exit("replay", &trace, &report)
            }
            let mut out = JsonObject::envelope("replay");
            out.raw("strict", strict);
            let verdict = if strict {
                match replay_strict(&trace) {
                    StrictReplay::Deterministic(retrace) => {
                        out.raw("calls", retrace.total_calls()).raw("ranks", retrace.nranks);
                        out.raw("identical", true).raw("divergence", "null");
                        0
                    }
                    StrictReplay::Diverged(d) => {
                        out.raw("identical", false).raw("divergence", divergence_json(&d));
                        1
                    }
                    StrictReplay::Degraded(r) => degraded_exit("replay", &trace, &r),
                    StrictReplay::Undecodable(e) => {
                        eprintln!("trace does not decode: {e}");
                        exit(1)
                    }
                }
            } else {
                match pilgrim::replay(&trace) {
                    Ok(replayed) => {
                        let same = replayed.decode_all_ranks() == trace.decode_all_ranks();
                        out.raw("calls", replayed.total_calls()).raw("ranks", replayed.nranks);
                        out.raw("identical", same).raw("divergence", "null");
                        // Governor-degraded (frozen/sealed) traces replay
                        // every call but legitimately renumber grammar
                        // segments on retrace: that is a degraded verdict,
                        // not a loss.
                        if trace.is_degraded() {
                            3
                        } else {
                            i32::from(!same)
                        }
                    }
                    Err(d) => {
                        out.raw("identical", false).raw("divergence", divergence_json(&d));
                        1
                    }
                }
            };
            println!("{}", out.raw("fidelity", fidelity_json(&trace)).finish());
            if verdict != 0 {
                exit(verdict)
            }
        }
        Some("minimize") if args.len() == 4 => {
            // Shrink a diverging recording to the smallest call subset that
            // still reproduces the same (rank, expected, got) divergence.
            // The reproducer JSON carries no paths, so it can be committed
            // as a golden file and diffed byte-for-byte in CI.
            let trace = load(&args[1]);
            match minimize(&trace) {
                Ok(result) => {
                    write_file(&args[2], &pilgrim::write_container(&result.trace));
                    let json = JsonObject::envelope("minimize")
                        .raw("divergence", divergence_json(&result.divergence))
                        .raw("original_calls", result.original_calls)
                        .raw("minimized_calls", result.minimized_calls)
                        .raw("original_bytes", result.original_bytes)
                        .raw("minimized_bytes", result.minimized_bytes)
                        .raw("candidates_tried", result.candidates_tried)
                        .raw("fidelity", fidelity_json(&result.trace))
                        .finish();
                    write_file(&args[3], format!("{json}\n").as_bytes());
                    println!("{json}");
                }
                Err(MinimizeError::Degraded(r)) => degraded_exit("minimize", &trace, &r),
                Err(e) => {
                    eprintln!("cannot minimize: {e}");
                    exit(1)
                }
            }
        }
        Some("mutate") if args.len() == 3 => {
            // Deterministically corrupt the first recorded nondet event so
            // CI can prove strict replay catches it at the exact site.
            let mut trace = load(&args[1]);
            let Some(log) = trace.nondet.as_mut() else {
                eprintln!("{} has no PGND section; record with --rr", args[1]);
                exit(1)
            };
            let site = log.ranks.iter_mut().enumerate().find_map(|(rank, events)| {
                events.iter_mut().next().map(|(&idx, ev)| {
                    *ev = match ev.clone() {
                        NondetEvent::Match { source, tag } => {
                            NondetEvent::Match { source: source + 1, tag }
                        }
                        NondetEvent::Iprobe { hit: Some((s, t)) } => {
                            NondetEvent::Iprobe { hit: Some((s + 1, t)) }
                        }
                        NondetEvent::Iprobe { hit: None } => {
                            NondetEvent::Iprobe { hit: Some((0, 0)) }
                        }
                        NondetEvent::AnyOf { index: Some(i) } => {
                            NondetEvent::AnyOf { index: Some(i + 1) }
                        }
                        NondetEvent::AnyOf { index: None } => NondetEvent::AnyOf { index: Some(0) },
                        NondetEvent::SomeOf { mut indices } => {
                            indices.push(indices.iter().max().map_or(0, |m| m + 1));
                            NondetEvent::SomeOf { indices }
                        }
                        NondetEvent::Flag { flag } => NondetEvent::Flag { flag: !flag },
                    };
                    (rank, idx)
                })
            });
            let Some((rank, idx)) = site else {
                eprintln!("{} recorded no nondet events", args[1]);
                exit(1)
            };
            write_file(&args[2], &pilgrim::write_container(&trace));
            println!(
                "{}",
                JsonObject::envelope("mutate")
                    .raw("rank", rank)
                    .raw("call_index", idx)
                    .str("out", &args[2])
                    .raw("fidelity", fidelity_json(&trace))
                    .finish()
            );
        }
        _ => usage(),
    }
}
