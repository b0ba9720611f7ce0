//! `pipeline`: one workload through every phase of the product —
//! tracer → segment sink → authenticated `PNT1` loopback → collector →
//! WAL → incremental merge → durable container → recover → decode →
//! query — printing every metric by name with its unit and checking
//! every output. See `README.md` beside this package.
//!
//! ```text
//! pipeline --workload <name> --seed <u64> [--seconds <n>] [--trace [0|1]]
//!          [--smoke] [--selfcheck] [--out <dir>]
//! ```
//!
//! Exit codes: 0 every output correct, 1 something was wrong, 2 usage.

mod capture;
mod collector;
mod phases;
mod report;
mod spans;
mod spec;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use collector::Scratch;
use pilgrim::{NetClientStats, NetServerStats};
use report::Report;
use spans::Spans;
use spec::{Workload, PROBES, SHARDS, WINDOW_CALLS, WORKLOADS};
use stats::{max, min, ms, ns_per, q1, Pace};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    selfcheck: bool,
    out: PathBuf,
}

fn usage(problem: &str) -> ExitCode {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!("pipeline: {problem}");
    eprintln!(
        "usage: pipeline --workload <{}> --seed <u64> [--seconds <n>] [--trace [0|1]] [--smoke] \
         [--selfcheck] [--out <dir>]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let (mut traced, mut smoke, mut selfcheck) = (false, false, false);
    let mut out = PathBuf::from("benchmarks/pipeline/out");
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                workload =
                    Some(Workload::by_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                let v = value("--seed")?;
                seed = Some(v.parse::<u64>().map_err(|_| format!("--seed {v:?} is not a u64"))?);
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let s = v.parse::<f64>().ok().filter(|s| s.is_finite() && *s > 0.0);
                seconds = Some(s.ok_or(format!("--seconds {v:?} is not a positive number"))?);
            }
            "--out" => out = PathBuf::from(value("--out")?),
            "--trace" => {
                // `--trace 0|1`, or bare `--trace` for on.
                traced = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => smoke = true,
            "--selfcheck" => selfcheck = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload: if smoke { workload.smoke() } else { workload },
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(if smoke { 0.2 } else { 20.0 }),
        traced,
        smoke,
        selfcheck,
        out,
    })
}

fn header(a: &Args) {
    let w = &a.workload;
    println!(
        "# pipeline workload={} seed={} seconds={} trace={} smoke={}",
        w.name, a.seed, a.seconds, a.traced as u8, a.smoke
    );
    println!(
        "# sizes: phase A 1 rank x {} iters; job {} ranks x {} iters; memory_budget={:?}",
        w.trace_iters, w.ranks, w.job_iters, w.memory_budget
    );
    println!(
        "# collector: {SHARDS} shards, session WAL off, per-connection WAL fsynced before each \
         ack, default NetServerConfig + pre-shared auth key, loopback port 0; client: default \
         NetClientConfig + the key, no spill dir"
    );
    println!(
        "# host: {} hardware threads",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
}

/// How the run is cut up: the number of cycles, each phase's pace (its
/// share of `--seconds` and its minimum samples per turn), and the
/// number of bring-ups.
struct Plan {
    cycles: usize,
    bring_ups: usize,
    trace1: Pace,
    durable: Pace,
    recover: Pace,
    read: Pace,
    layers: Pace,
}

fn plan(a: &Args) -> Plan {
    // A traced cycle is heavier (three worlds a round, whole-job replays),
    // so it gets fewer, longer turns for the same `--seconds`.
    let cycles = match (a.smoke, a.traced) {
        (true, _) => 1,
        (false, true) => 4,
        (false, false) => 8,
    };
    let pace = |share: f64, floor: usize| Pace::new(a.seconds * share / cycles as f64, floor);
    if a.traced {
        Plan {
            cycles,
            bring_ups: 0,
            trace1: pace(0.25, 1),
            // Two jobs a turn: one with spans recorded, one without.
            durable: pace(0.25, 2),
            recover: pace(0.05, 1),
            read: pace(0.15, 1),
            layers: pace(0.30, 1),
        }
    } else {
        Plan {
            cycles,
            bring_ups: if a.smoke { 3 } else { 25 },
            trace1: pace(0.40, 1),
            durable: pace(0.30, 1),
            recover: pace(0.10, 1),
            read: pace(0.20, 1),
            layers: pace(0.0, 0),
        }
    }
}

fn run(a: &Args, scratch: &Scratch) -> std::io::Result<Report> {
    let w = &a.workload;
    let mut p = plan(a);
    let mut report = Report::new(a.traced);
    let mut spans = Spans::new(a.traced);

    // Set-up and input generation: outside `--seconds`.
    let ups = phases::bring_ups(w, scratch, p.bring_ups, &mut report);
    let cap = capture::capture(w, a.seed);
    println!(
        "# job: {} calls, {} segments ({} sealed), {} segment bytes, container {} bytes, generated \
         in {:.3} s",
        cap.calls,
        cap.segments.len(),
        cap.sealed_segments(),
        cap.segment_bytes(),
        cap.expected.len(),
        cap.gen_s
    );
    let worlds: Vec<f64> =
        (0..if a.traced { 3 } else { 0 }).map(|_| capture::untraced_world_ms(w, a.seed)).collect();

    // The measured phases, interleaved: each cycle gives every phase a
    // turn, so each metric's samples span the whole run.
    let probes = if a.smoke { PROBES / 100 } else { PROBES };
    let mut cost = phases::TraceCost::default();
    let mut durable = phases::Durable::start(scratch)?;
    let mut rec = phases::Recovered::default();
    let mut reader = None;
    let mut ly = phases::Layers::default();
    for _ in 0..p.cycles {
        phases::trace1(w, a.seed, &mut p.trace1, a.traced, &mut cost);
        durable.turn(&cap, &mut p.durable, &mut spans, &mut report);
        phases::recover(&cap, scratch, &mut p.recover, &mut rec, &mut spans, &mut report)?;
        if reader.is_none() {
            let container = &durable.samples.container;
            reader =
                phases::Reader::open(&cap, container, a.seed, probes, WINDOW_CALLS, &mut report);
        }
        let Some(reader) = reader.as_mut() else { break };
        reader.turn(&cap, &mut p.read, &mut spans, &mut report);
        if a.traced {
            phases::layers(&cap, scratch, &mut p.layers, &mut ly, &mut spans, &mut report)?;
        }
    }
    println!(
        "# phase seconds: trace1 {:.2}, durable {:.2}, recover {:.2}, read {:.2}, layers {:.2}",
        p.trace1.used(),
        p.durable.used(),
        p.recover.used(),
        p.read.used(),
        p.layers.used()
    );
    let (dur, client, server) = durable.stop();
    let Some(rd) = reader.map(|r| r.samples) else { return Ok(report) };
    println!(
        "# samples: bring-ups {}, trace1 rounds {}, jobs {}, recoveries {}, reads {}, replays {}",
        ups.len(),
        cost.traced.len(),
        dur.jobs,
        rec.wall.len(),
        rd.container.len(),
        ly.net_encode.len()
    );

    if !a.traced {
        // End-to-end metrics: what a user of the system feels.
        let calls = cap.calls;
        report.put("setup_s", q1(&ups));
        report.put("trace_ns_per_call", ns_per(&cost.traced, cost.calls));
        report.put("trace_bytes_per_call", cap.expected.len() as f64 / calls as f64);
        report.put("durable_calls_per_s", calls as f64 / q1(&dur.wall));
        report.put("recover_calls_per_s", calls as f64 / q1(&rec.wall));
        report.put("open_ms", ms(&rd.container) + ms(&rd.validate) + ms(&rd.index_build));
        report.put("decode_calls_per_s", calls as f64 / q1(&rd.decode));
        report.put("query_ms", ms(&rd.sig_counts) + ms(&rd.comm_matrix));
        report.put("probe_ns", ns_per(&rd.probes, probes as u64));
    } else {
        let net = (&dur, &client, &server);
        per_layer(a, &mut report, &cap, &worlds, &cost, net, &rec, &rd, &ly, &spans);
        std::fs::create_dir_all(&a.out)?;
        let path = a.out.join(format!("spans-{}-{}.jsonl", w.name, a.seed));
        spans.write_jsonl(&path)?;
        println!("# spans: {} written to {}", spans.len(), path.display());
        println!("# self time by span name (spans, total ms, self ms):");
        for (name, t) in spans.self_times() {
            println!(
                "#   {name:<24} {:>7} {:>12.3} {:>12.3}",
                t.spans,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    }
    Ok(report)
}

/// Per-layer metrics (`--trace 1`), grouped by the layer they time.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    a: &Args,
    r: &mut Report,
    cap: &capture::Capture,
    worlds: &[f64],
    cost: &phases::TraceCost,
    (dur, client, server): (&phases::DurableSamples, &NetClientStats, &NetServerStats),
    rec: &phases::Recovered,
    rd: &phases::Read,
    ly: &phases::Layers,
    spans: &Spans,
) {
    let calls = cap.calls;
    let frames = cap.frames_per_job();
    let job_wall = q1(&dur.wall);

    println!(
        "# sim.world_wall_ms min {:.3} q1 {:.3} max {:.3} over {} untraced {}-rank worlds",
        min(worlds),
        q1(worlds),
        max(worlds),
        worlds.len(),
        a.workload.ranks
    );
    r.put("sim.untraced_ns_per_call", ns_per(&cost.untraced, cost.calls));
    r.put("sim.world_wall_ms", q1(worlds));
    let per = |s: &[f64]| ns_per(s, cost.calls);
    r.put("tracer.overhead_ns_per_call", per(&cost.traced) - per(&cost.untraced));
    r.put("tracer.intra_ns_per_call", per(&cost.intra));
    r.put("tracer.intercept_ns_per_call", per(&cost.intercept));
    r.put("encode.ns_per_call", per(&cost.encode));
    r.put("sequitur.insert_ns_per_call", per(&cost.insert));
    r.put("tracer.local_bytes", cap.local_bytes as f64);
    r.put("metrics.on_overhead_pct", (q1(&cost.metered) / q1(&cost.traced) - 1.0) * 100.0);

    let counts = ly.counts.as_ref().expect("phase F ran at least once");
    r.put("cst.observe_ns_per_call", ns_per(&ly.cst_observe, calls));
    r.put("cst.signatures", counts.cst_signatures as f64);
    r.put("cst.hit_ratio", 1.0 - counts.cst_signatures as f64 / calls as f64);
    r.put("sequitur.push_ns_per_symbol", ns_per(&ly.sequitur_push, calls));
    r.put("sequitur.rules", counts.sequitur_rules as f64);
    r.put("sequitur.symbols", ly.sequitur_symbols as f64);

    r.put("governor.seals", cap.sealed_segments() as f64);
    r.put("tracer.segments", cap.segments.len() as f64);
    r.put("tracer.segment_bytes", cap.segment_bytes() as f64);

    let merge_s = q1(&ly.merge_accept) + q1(&ly.merge_complete) + q1(&ly.merge_finalize);
    r.put("merge.batch_finalize_ms", cap.batch_finalize_ms);
    r.put("merge.accept_ns_per_segment", ns_per(&ly.merge_accept, cap.segments.len() as u64));
    r.put("merge.finalize_ms", ms(&ly.merge_finalize));
    r.put("merge.unique_grammars", ly.unique_grammars as f64);
    r.put("merge.job_share_pct", merge_s / job_wall * 100.0);

    r.put("net.encode_ns_per_frame", ns_per(&ly.net_encode, frames));
    r.put("net.decode_ns_per_frame", ns_per(&ly.net_decode, frames));
    r.put("net.frames", server.frames as f64);
    r.put("net.wire_bytes_per_call", ly.wire_bytes as f64 / calls as f64);
    r.put("net.acks", client.acks as f64);
    r.put("net.retransmits", client.retransmits as f64);
    r.put("net.backpressure", client.backpressure as f64);
    r.put("net.job_wall_ms", job_wall * 1e3);
    r.put("net.push_ms", ms(&dur.push));
    r.put("net.finish_wait_ms", ms(&dur.finish));
    r.check(client.retransmits == 0, || {
        format!("{} frames were retransmitted on a clean loopback", client.retransmits)
    });
    // The collector may count more frames than this: the client replays
    // its job opens on every connect, so the first open arrives twice.
    r.check(client.acks == dur.jobs * frames && server.frames >= dur.jobs * frames, || {
        format!(
            "{} jobs of {frames} frames, but {} acks and {} frames at the collector",
            dur.jobs, client.acks, server.frames
        )
    });

    let mac_s = q1(&ly.auth_seal) + q1(&ly.auth_verify);
    r.put("auth.seal_ns_per_frame", ns_per(&ly.auth_seal, frames));
    r.put("auth.verify_ns_per_frame", ns_per(&ly.auth_verify, frames));
    r.put("auth.mac_mb_per_s", ly.wire_bytes as f64 / 1e6 / q1(&ly.auth_seal));
    r.put("auth.handshake_ms", ms(&ly.auth_handshake));
    r.put("auth.job_share_pct", mac_s / job_wall * 100.0);

    r.put("wal.append_ns_per_record", ns_per(&ly.wal_append, counts.wal_records));
    r.put("wal.records", counts.wal_records as f64);
    r.put("wal.bytes_per_call", ly.wal_bytes as f64 / calls as f64);
    r.put("wal.read_mb_per_s", ly.wal_bytes as f64 / 1e6 / q1(&ly.wal_decode));
    r.put("wal.job_share_pct", q1(&ly.wal_append) / job_wall * 100.0);

    r.put("ingest.segments", ly.ingest.segments as f64);
    r.put("ingest.bytes", ly.ingest.bytes as f64);
    r.put("ingest.backpressure", ly.ingest.backpressure as f64);
    r.put("ingest.job_ms", ms(&ly.ingest_job));

    r.put("export.write_container_ms", ms(&ly.write_container));
    r.put("export.container_bytes", counts.container_bytes as f64);

    r.put("decode.container_ms", ms(&rd.container));
    r.put("decode.validate_ms", ms(&rd.validate));
    r.put("decode.expand_ns_per_call", ns_per(&rd.expand, calls));
    r.put("query.index_build_ms", ms(&rd.index_build));
    r.put("query.index_bytes", rd.index_bytes as f64);
    r.put("query.sig_counts_ms", ms(&rd.sig_counts));
    r.put("query.comm_matrix_ms", ms(&rd.comm_matrix));
    r.put("query.window_ms", ms(&rd.window));

    r.put("recover.ms", ms(&rec.wall));
    r.put("recover.wal_bytes", rec.wal_bytes as f64);

    // The durable path's layers, each paid once per job: the client
    // encodes and seals, the collector verifies, decodes, logs, merges
    // and writes the container.
    let ledger_s = q1(&ly.net_encode)
        + q1(&ly.net_decode)
        + mac_s
        + q1(&ly.wal_append)
        + merge_s
        + q1(&ly.write_container);
    r.put("bench.gen_s", cap.gen_s);
    r.put("bench.calls", calls as f64);
    r.put("bench.jobs", dur.jobs as f64);
    r.put("bench.trace_overhead_pct", (q1(&dur.wall_spanned) / job_wall - 1.0) * 100.0);
    r.put("bench.ledger_coverage_pct", ledger_s / job_wall * 100.0);
    r.put("bench.spans", spans.len() as f64);
}

/// `--selfcheck`: the exact counts of two runs of the same seed must
/// agree bit for bit.
fn selfcheck(a: &Args, scratch: &Scratch) -> std::io::Result<bool> {
    let mut runs = Vec::new();
    for _ in 0..2 {
        let cap = capture::capture(&a.workload, a.seed);
        let mut report = Report::new(true);
        let mut spans = Spans::new(false);
        let mut ly = phases::Layers::default();
        let mut once = Pace::new(0.0, 1);
        phases::layers(&cap, scratch, &mut once, &mut ly, &mut spans, &mut report)?;
        for f in &report.failures {
            println!("FAILED: {f}");
        }
        runs.push((ly.counts.expect("one replay ran"), cap.expected, report.failed_ops));
    }
    let same = runs[0] == runs[1] && runs[0].2 == 0;
    for ((name, first), (_, second)) in runs[0].0.rows().into_iter().zip(runs[1].0.rows()) {
        println!("{name} {first} {second} {}", if first == second { "same" } else { "DIFFERENT" });
    }
    println!("container bytes {}", if runs[0].1 == runs[1].1 { "identical" } else { "DIFFERENT" });
    println!("selfcheck {}", if same { "ok" } else { "FAILED" });
    Ok(same)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(problem) => return usage(&problem),
    };
    header(&args);
    let scratch = match Scratch::create(&args.out) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pipeline: cannot create a scratch dir under {}: {e}", args.out.display());
            return ExitCode::from(1);
        }
    };
    if args.selfcheck {
        return match selfcheck(&args, &scratch) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("pipeline: {e}");
                ExitCode::from(1)
            }
        };
    }
    let report = match run(&args, &scratch) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("pipeline: {e}");
            return ExitCode::from(1);
        }
    };
    drop(scratch);
    for f in &report.failures {
        println!("FAILED: {f}");
    }
    for name in report.missing() {
        println!("MISSING: {name}");
    }
    report.print_metrics();
    println!("ops {} failed_ops {}", report.ops, report.failed_ops);
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
