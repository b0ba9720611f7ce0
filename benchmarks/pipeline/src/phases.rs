//! The measured phases. Each takes what phase B captured, drives one
//! part of the product through its public functions, checks what came
//! back, and returns the samples its metrics are computed from.
//!
//! - A `trace1`: alternating untraced and traced 1-rank worlds.
//! - set-up: fresh collector bring-ups.
//! - C `durable`: closed loop, one client, one connection, jobs back to
//!   back from `open_job` to the finish ack.
//! - D `recover`: a job acked but not finished, the collector stopped,
//!   `IngestSession::recover`.
//! - E `read`: container bytes to decoded calls and query answers.
//! - F `layers`: single-thread replay of the captured frames through
//!   each layer's public functions.
//!
//! The run cycles through the phases several times ([`Pace`]): every
//! phase keeps its state between its turns and adds samples in each.

use std::hint::black_box;
use std::time::{Duration, Instant};

use mpi_sim::{NullTracer, World, WorldConfig};
use pilgrim::auth::{ct_eq, fresh_nonce, DIR_CLIENT};
use pilgrim::net::NetFrame;
use pilgrim::wal::{decode_wal, split_frame, WalRecord, WalWriter};
use pilgrim::{
    challenge_response, decode_rank_calls, session_key, verify_lossless, write_container, AuthKey,
    CallIterator, Cst, GlobalTrace, IncrementalMerger, IngestConfig, IngestSession, IngestStats,
    MacState, NetClientStats, NetServerStats, PilgrimTracer, QueryEngine, RecoveryState,
    SegmentSink, Stage, TraceIndex, NET_VERSION,
};
use pilgrim_sequitur::Grammar;

use crate::capture::Capture;
use crate::collector::{Collector, Scratch};
use crate::report::Report;
use crate::spans::Spans;
use crate::spec::{Workload, AUTH_KEY, SHARDS};
use crate::stats::{per_call, secs, splitmix, Pace};

/// A batch shorter than this is repeated until it is this long.
const BATCH_FLOOR: Duration = Duration::from_millis(10);

// ---------------------------------------------------------------------
// Phase A
// ---------------------------------------------------------------------

#[derive(Default)]
pub struct TraceCost {
    pub calls: u64,
    /// Wall of each world, seconds.
    pub untraced: Vec<f64>,
    pub traced: Vec<f64>,
    /// `OverheadStats::intra` of each traced world, seconds.
    pub intra: Vec<f64>,
    /// With `PilgrimConfig::metrics(true)`: wall, and the registry's
    /// intercept / encode / grammar-insert stage totals, seconds.
    pub metered: Vec<f64>,
    pub intercept: Vec<f64>,
    pub encode: Vec<f64>,
    pub insert: Vec<f64>,
}

/// Alternates untraced and traced 1-rank worlds of the workload's body
/// (plus a metrics-on world per round when `metered`). One rank means no
/// thread hand-offs, so the traced-minus-untraced difference is tracer
/// cost and not scheduler noise.
pub fn trace1(w: &Workload, seed: u64, pace: &mut Pace, metered: bool, out: &mut TraceCost) {
    let wcfg = WorldConfig::new(1).seed(seed);
    let cfg = w.tracer_config();
    pace.turn();
    while pace.next() {
        let body = w.body(w.trace_iters, seed);
        let start = Instant::now();
        World::run(&wcfg, |_| NullTracer, move |env| body(env));
        out.untraced.push(secs(start.elapsed()));

        let body = w.body(w.trace_iters, seed);
        let start = Instant::now();
        let tracers = World::run(&wcfg, |r| PilgrimTracer::new(r, cfg), move |env| body(env));
        out.traced.push(secs(start.elapsed()));
        out.calls = tracers[0].call_count();
        out.intra.push(secs(tracers[0].stats().intra));

        if metered {
            let body = w.body(w.trace_iters, seed);
            let start = Instant::now();
            let mut tracers = World::run(
                &wcfg,
                |r| PilgrimTracer::new(r, cfg.metrics(true)),
                move |env| body(env),
            );
            out.metered.push(secs(start.elapsed()));
            let m = tracers[0].take_output().metrics;
            out.intercept.push(m.stage_ns(Stage::Intercept) as f64 / 1e9);
            out.encode.push(m.stage_ns(Stage::Encode) as f64 / 1e9);
            out.insert.push(m.stage_ns(Stage::GrammarInsert) as f64 / 1e9);
        }
    }
}

// ---------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------

/// Seconds of each of `n` fresh bring-ups: `IngestSession::new` +
/// `serve` + `NetClient::start` + the first authenticated `JobOpen`
/// acked + one `PilgrimTracer::new` per rank. Tear-down is not timed.
pub fn bring_ups(w: &Workload, scratch: &Scratch, n: usize, report: &mut Report) -> Vec<f64> {
    let cfg = w.tracer_config();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let dir = scratch.dir(&format!("setup-{i}"));
        let start = Instant::now();
        let up = Collector::start(dir.clone());
        let acked = up.as_ref().is_ok_and(|c| {
            let _job = c.client.open_job(0, w.ranks, cfg.merge_identity_check);
            c.wait_acks(1, Duration::from_secs(10))
        });
        let tracers: Vec<PilgrimTracer> =
            (0..w.ranks).map(|r| PilgrimTracer::new(r, cfg)).collect();
        black_box(&tracers);
        out.push(secs(start.elapsed()));
        report.check(acked, || format!("bring-up {i}: the first JobOpen was never acked"));
        if let Ok(c) = up {
            c.client.shutdown();
            c.server.stop();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    out
}

// ---------------------------------------------------------------------
// Phase C
// ---------------------------------------------------------------------

#[derive(Default)]
pub struct DurableSamples {
    /// Per-job wall, seconds, `open_job` to finish ack — jobs recorded
    /// without spans and with spans (`--trace 1` alternates).
    pub wall: Vec<f64>,
    pub wall_spanned: Vec<f64>,
    /// Per spanned job: time inside the client's push/complete/flush
    /// calls, and inside `finish` (the wait for the collector).
    pub push: Vec<f64>,
    pub finish: Vec<f64>,
    pub jobs: u64,
    /// The last job's container, as the collector left it on disk.
    pub container: Vec<u8>,
}

/// Closed loop: one client thread, one connection for the whole run, the
/// next job opens only after the previous finish ack. Every job's
/// container is compared byte for byte with the batch-merged one.
pub struct Durable {
    collector: Collector,
    pub samples: DurableSamples,
}

impl Durable {
    pub fn start(scratch: &Scratch) -> std::io::Result<Durable> {
        let collector = Collector::start(scratch.dir("durable"))?;
        Ok(Durable { collector, samples: DurableSamples::default() })
    }

    pub fn turn(&mut self, cap: &Capture, pace: &mut Pace, spans: &mut Spans, report: &mut Report) {
        let (c, out) = (&self.collector, &mut self.samples);
        let phase = spans.enter("bench.durable", 0);
        pace.turn();
        while pace.next() {
            let job = out.jobs;
            out.jobs += 1;
            // Cloned before the timer starts: a world hands its segments over.
            let (segments, completions) = (cap.segments.clone(), cap.completions.clone());
            // Pairs alternate which of the two goes first, so neither kind
            // always follows the other phases' turn.
            let spanned = spans.enabled() && (job / 2 + job) % 2 == 1;
            spans.set_recording(spanned);

            let root = spans.enter("bench.job", job);
            let start = Instant::now();
            let (handle, _) = spans.time("net.open_job", job, || {
                c.client.open_job(job, cap.ranks, cap.identity_check)
            });
            let mut pushing = Duration::ZERO;
            for seg in segments {
                spans.count("net.segment_bytes", seg.bytes.len() as u64);
                pushing += spans.time("net.push_segment", job, || handle.push_segment(seg)).1;
            }
            for done in completions {
                pushing += spans.time("net.complete_rank", job, || handle.complete_rank(done)).1;
            }
            pushing += spans.time("net.flush", job, || handle.flush()).1;
            let (outcome, finishing) = spans.time("net.finish", job, || handle.finish());
            let wall = secs(start.elapsed());
            spans.exit(root);
            spans.count("net.jobs", 1);
            spans.set_recording(true);

            if spanned {
                out.wall_spanned.push(wall);
                out.push.push(secs(pushing));
                out.finish.push(secs(finishing));
            } else {
                out.wall.push(wall);
            }
            let delivered = outcome.delivered && outcome.lossless == Some(true);
            report.check(delivered && outcome.problems.is_empty(), || {
                format!("job {job} not delivered lossless: {:?}", outcome.problems)
            });
            let path = c.container_path(&handle);
            let bytes = std::fs::read(&path).unwrap_or_default();
            report.check(bytes == cap.expected, || {
                format!("job {job}: collector container differs from the batch-merged container")
            });
            let _ = std::fs::remove_file(&path);
            out.container = bytes;
        }
        spans.exit(phase);
    }

    /// Drains the client and stops the collector; their final counters.
    pub fn stop(self) -> (DurableSamples, NetClientStats, NetServerStats) {
        let client = self.collector.client.shutdown();
        let server = self.collector.server.stop();
        (self.samples, client, server)
    }
}

// ---------------------------------------------------------------------
// Phase D
// ---------------------------------------------------------------------

#[derive(Default)]
pub struct Recovered {
    /// `IngestSession::recover` wall per repetition, seconds.
    pub wall: Vec<f64>,
    /// Bytes of the per-connection WAL recovery replayed.
    pub wal_bytes: u64,
}

/// Each repetition: a fresh collector takes one job, acks every frame,
/// and is stopped before any finish — the state a killed collector
/// leaves. Recovery must classify the job `Recovered` and rebuild the
/// batch-merged bytes.
pub fn recover(
    cap: &Capture,
    scratch: &Scratch,
    pace: &mut Pace,
    out: &mut Recovered,
    spans: &mut Spans,
    report: &mut Report,
) -> std::io::Result<()> {
    let phase = spans.enter("bench.recover", 0);
    pace.turn();
    while pace.next() {
        let rep = out.wall.len() as u64;
        let dir = scratch.dir(&format!("recover-{rep}"));
        let c = Collector::start(dir.clone())?;
        let handle = c.client.open_job(rep, cap.ranks, cap.identity_check);
        for seg in cap.segments.iter().cloned() {
            handle.push_segment(seg);
        }
        for done in cap.completions.iter().cloned() {
            handle.complete_rank(done);
        }
        handle.flush();
        // `shutdown` returns once every frame is acked, i.e. logged.
        let client = c.client.shutdown();
        let server = c.server.stop();
        out.wal_bytes = server.wal_bytes;
        report.check(client.acks == cap.frames_per_job() - 1 && !client.degraded, || {
            format!("recover {rep}: {} of {} frames acked", client.acks, cap.frames_per_job() - 1)
        });

        let (found, took) = spans.time("recover.recover", rep, || IngestSession::recover(&dir));
        out.wall.push(secs(took));
        let rebuilt = found.ok().and_then(|r| match r.jobs.as_slice() {
            [job] if job.state == RecoveryState::Recovered && job.calls == cap.calls => {
                job.output.as_ref().and_then(|p| std::fs::read(p).ok())
            }
            _ => None,
        });
        report.check(rebuilt.as_deref() == Some(&cap.expected[..]), || {
            format!("recover {rep}: job not Recovered with the batch-merged bytes")
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    spans.exit(phase);
    Ok(())
}

// ---------------------------------------------------------------------
// Phase E
// ---------------------------------------------------------------------

#[derive(Default)]
pub struct Read {
    /// Seconds per operation, one entry per sample.
    pub container: Vec<f64>,
    pub validate: Vec<f64>,
    pub index_build: Vec<f64>,
    pub decode: Vec<f64>,
    pub expand: Vec<f64>,
    pub sig_counts: Vec<f64>,
    pub comm_matrix: Vec<f64>,
    pub probes: Vec<f64>,
    pub window: Vec<f64>,
    pub index_bytes: u64,
}

/// Times `f` as one span whose batch repeats until [`BATCH_FLOOR`];
/// returns seconds per call.
fn batch(spans: &mut Spans, name: &'static str, mut f: impl FnMut()) -> f64 {
    let open = spans.enter(name, 0);
    let t = per_call(BATCH_FLOOR, &mut f);
    spans.exit(open);
    t
}

/// The read side over the container the collector wrote: time to first
/// query, full decode, the two whole-trace queries, seeded random
/// probes, and a 1000-call window.
pub struct Reader {
    container: Vec<u8>,
    trace: GlobalTrace,
    index: TraceIndex,
    positions: Vec<(usize, u64)>,
    window: usize,
    checked: bool,
    pub samples: Read,
}

impl Reader {
    /// Decodes the container once and checks it: `validate()` must be
    /// empty and `verify_lossless` against the reference world must
    /// pass. `None` (a failed check) when it does not even decode.
    pub fn open(
        cap: &Capture,
        container: &[u8],
        seed: u64,
        probes: usize,
        window: usize,
        report: &mut Report,
    ) -> Option<Reader> {
        let decoded = GlobalTrace::decode_auto(container);
        report.check(decoded.is_ok(), || "the collector's container does not decode".into());
        let trace = decoded.ok()?;
        let problems = trace.validate();
        report.check(problems.is_empty(), || format!("validate(): {problems:?}"));
        let lossless = verify_lossless(&trace, &cap.reference);
        report.check(lossless.is_ok(), || format!("verify_lossless: {lossless:?}"));
        let index = TraceIndex::build(&trace);
        // Probe positions come from the seed, not from the trace's shape.
        let mut rng = seed ^ 0x70_72_6F_62_65;
        let positions = (0..probes)
            .map(|_| {
                let rank = (splitmix(&mut rng) % trace.nranks as u64) as usize;
                (rank, splitmix(&mut rng) % trace.rank_lengths[rank].max(1))
            })
            .collect();
        let samples = Read { index_bytes: index.byte_size() as u64, ..Read::default() };
        Some(Reader {
            container: container.to_vec(),
            trace,
            index,
            positions,
            window,
            checked: false,
            samples,
        })
    }

    pub fn turn(&mut self, cap: &Capture, pace: &mut Pace, spans: &mut Spans, report: &mut Report) {
        // A fresh decode each turn: the trace and its index land at new
        // addresses with new hash seeds, so the statistics are taken over
        // several memory layouts and not over one process's luck.
        if let Ok(fresh) = GlobalTrace::decode_auto(&self.container) {
            self.index = TraceIndex::build(&fresh);
            self.trace = fresh;
        }
        let Reader { container, trace, index, positions, window, checked, samples: out } = self;
        let mid = (trace.rank_lengths[0] / 2) as usize;
        let phase = spans.enter("bench.read", 0);
        pace.turn();
        while pace.next() {
            out.container.push(batch(spans, "decode.container", || {
                black_box(GlobalTrace::decode_auto(black_box(container)).is_ok());
            }));
            out.validate.push(batch(spans, "decode.validate", || {
                black_box(trace.validate().len());
            }));
            out.index_build.push(batch(spans, "query.index_build", || {
                black_box(TraceIndex::build(black_box(trace)));
            }));
            let (mut decoded, mut runs) = (0u64, 0u64);
            out.decode.push(batch(spans, "decode.rank_calls", || {
                runs += 1;
                for rank in 0..trace.nranks {
                    decoded += decode_rank_calls(trace, rank).map_or(0, |c| c.len() as u64);
                }
            }));
            out.expand.push(batch(spans, "decode.expand", || {
                for rank in 0..trace.nranks {
                    black_box(trace.decode_rank(rank).len());
                }
            }));
            out.sig_counts.push(batch(spans, "query.sig_counts", || {
                black_box(QueryEngine::new(trace, index).signature_counts().len());
            }));
            let engine = QueryEngine::new(trace, index);
            out.comm_matrix.push(batch(spans, "query.comm_matrix", || {
                black_box(engine.comm_matrix().total_sends());
            }));
            let (mut hits, mut sweeps) = (0usize, 0usize);
            out.probes.push(batch(spans, "query.probe", || {
                sweeps += 1;
                hits += positions
                    .iter()
                    .filter(|&&(rank, i)| index.call_at(trace, rank, i).is_some())
                    .count();
            }));
            out.window.push(batch(spans, "query.window", || {
                let calls = CallIterator::new(trace, index, 0).skip(mid).take(*window);
                black_box(calls.filter(|c| c.is_ok()).count());
            }));
            if !*checked {
                *checked = true;
                report.check(decoded == runs * cap.calls, || {
                    format!(
                        "decode_rank_calls gave {decoded} calls in {runs} runs of {}",
                        cap.calls
                    )
                });
                let asked = sweeps * positions.len();
                report.check(hits == asked, || {
                    format!("{} of {asked} probes were out of range", asked - hits)
                });
            }
        }
        spans.exit(phase);
    }
}

// ---------------------------------------------------------------------
// Phase F
// ---------------------------------------------------------------------

/// Counts of one replay that must repeat bit for bit on the same seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactCounts {
    pub calls: u64,
    pub segments: u64,
    pub segment_bytes: u64,
    pub cst_signatures: u64,
    pub sequitur_rules: u64,
    pub container_bytes: u64,
    pub wal_records: u64,
}

impl ExactCounts {
    pub fn rows(&self) -> [(&'static str, u64); 7] {
        [
            ("calls", self.calls),
            ("tracer.segments", self.segments),
            ("tracer.segment_bytes", self.segment_bytes),
            ("cst.signatures", self.cst_signatures),
            ("sequitur.rules", self.sequitur_rules),
            ("export.container_bytes", self.container_bytes),
            ("wal.records", self.wal_records),
        ]
    }
}

/// Seconds of each layer over one job's frames, one entry per replay.
#[derive(Default)]
pub struct Layers {
    pub net_encode: Vec<f64>,
    pub net_decode: Vec<f64>,
    pub auth_seal: Vec<f64>,
    pub auth_verify: Vec<f64>,
    pub auth_handshake: Vec<f64>,
    pub wal_append: Vec<f64>,
    pub wal_decode: Vec<f64>,
    pub merge_accept: Vec<f64>,
    pub merge_complete: Vec<f64>,
    pub merge_finalize: Vec<f64>,
    pub write_container: Vec<f64>,
    pub ingest_job: Vec<f64>,
    pub cst_observe: Vec<f64>,
    pub sequitur_push: Vec<f64>,
    pub wire_bytes: u64,
    pub wal_bytes: u64,
    pub sequitur_symbols: u64,
    pub unique_grammars: u64,
    pub ingest: IngestStats,
    pub counts: Option<ExactCounts>,
}

/// Replays the captured job through each layer once, on this thread.
fn replay(
    cap: &Capture,
    scratch: &Scratch,
    rep: u64,
    out: &mut Layers,
    spans: &mut Spans,
    report: &mut Report,
) -> std::io::Result<()> {
    let job = rep;
    let mut frames =
        vec![NetFrame::JobOpen { job, nranks: cap.ranks, identity_check: cap.identity_check }];
    frames.extend(cap.segments.iter().map(|seg| NetFrame::Segment { job, seg: seg.clone() }));
    frames.extend(cap.completions.iter().map(|d| NetFrame::Complete { job, done: d.clone() }));
    frames.push(NetFrame::Finished { job });
    spans.count("net.frames", frames.len() as u64);

    // Frame codec.
    let (wire, took) =
        spans.time("net.encode", job, || frames.iter().map(NetFrame::encode).collect::<Vec<_>>());
    out.net_encode.push(secs(took));
    out.wire_bytes = wire.iter().map(|b| (b.len() + pilgrim::MAC_LEN) as u64).sum();
    spans.count("net.wire_bytes", out.wire_bytes);
    let (decoded, took) = spans.time("net.decode", job, || {
        wire.iter()
            .filter_map(|bytes| match split_frame(bytes, &mut 0) {
                Some(Ok((kind, payload))) => NetFrame::decode(kind, payload).ok(),
                _ => None,
            })
            .collect::<Vec<_>>()
    });
    out.net_decode.push(secs(took));
    report.check(decoded == frames, || "frames changed across encode/decode".into());

    // MAC chain: the client seals each frame, the collector verifies it.
    let key = AuthKey::from_bytes(AUTH_KEY).expect("the benchmark's key material is not empty");
    let (sk, took) = spans.time("auth.handshake", job, || {
        let nonce = fresh_nonce();
        let proof = challenge_response(&key, &nonce, 1, NET_VERSION);
        let expect = challenge_response(&key, &nonce, 1, NET_VERSION);
        let sk = session_key(&key, &nonce, 1, NET_VERSION);
        black_box(session_key(&key, &nonce, 1, NET_VERSION));
        ct_eq(&proof, &expect).then_some(sk)
    });
    out.auth_handshake.push(secs(took));
    let sk = sk.expect("a response verifies against its own challenge");
    let mut sealer = MacState::new(sk, DIR_CLIENT);
    let (tags, took) =
        spans.time("auth.seal", job, || wire.iter().map(|b| sealer.seal(b)).collect::<Vec<_>>());
    out.auth_seal.push(secs(took));
    let mut verifier = MacState::new(sk, DIR_CLIENT);
    let (verified, took) = spans.time("auth.verify", job, || {
        wire.iter().zip(&tags).filter(|(b, tag)| verifier.verify(b, &tag[..])).count()
    });
    out.auth_verify.push(secs(took));
    report.check(verified == wire.len(), || "a sealed frame failed verification".into());

    // WAL: what the endpoint logs, fsynced record by record, before acks.
    let records: Vec<WalRecord> = frames
        .into_iter()
        .map(|f| match f {
            NetFrame::JobOpen { job, nranks, identity_check } => {
                WalRecord::JobOpen { job, nranks, identity_check }
            }
            NetFrame::Segment { job, seg } => WalRecord::Segment { job, seg },
            NetFrame::Complete { job, done } => WalRecord::Complete { job, done },
            _ => WalRecord::Finished { job },
        })
        .collect();
    let wal_path = scratch.dir(&format!("layers-{rep}.wal"));
    let mut writer = WalWriter::create(&wal_path)?;
    let (appended, took) = spans.time("wal.append", job, || {
        records.iter().map(|rec| writer.append(rec)).collect::<std::io::Result<Vec<u64>>>()
    });
    appended?;
    out.wal_append.push(secs(took));
    out.wal_bytes = writer.clean_len();
    let wal_records = writer.records();
    spans.count("wal.records", wal_records);
    drop(writer);
    let image = std::fs::read(&wal_path)?;
    let (replayed, took) = spans.time("wal.decode", job, || decode_wal(&image));
    out.wal_decode.push(secs(took));
    report.check(
        replayed.is_ok_and(|r| r.torn.is_none() && r.records.len() as u64 == wal_records),
        || "the WAL did not read back every record".into(),
    );
    let _ = std::fs::remove_file(&wal_path);

    // Incremental merge and container write.
    let mut merger = IncrementalMerger::new(cap.ranks).identity_check(cap.identity_check);
    let (accepted, took) = spans.time("merge.accept_segment", job, || {
        cap.segments.iter().filter(|seg| merger.accept_segment(seg).is_ok()).count()
    });
    out.merge_accept.push(secs(took));
    let completions = cap.completions.clone();
    let (completed, took) = spans.time("merge.complete_rank", job, || {
        completions.into_iter().filter_map(|d| merger.complete_rank(d).ok()).count()
    });
    out.merge_complete.push(secs(took));
    report.check(accepted == cap.segments.len() && completed == cap.ranks, || {
        format!("merger took {accepted} segments and {completed} completions")
    });
    let (trace, took) = spans.time("merge.finalize", job, || merger.finalize());
    out.merge_finalize.push(secs(took));
    out.unique_grammars = trace.unique_grammars as u64;
    let (container, took) = spans.time("export.write_container", job, || write_container(&trace));
    out.write_container.push(secs(took));
    report.check(container == cap.expected, || {
        "incremental merge container differs from the batch-merged container".into()
    });

    // The in-process session: sharded queues, shard WAL, spill.
    let dir = scratch.dir(&format!("ingest-{rep}"));
    let session = IngestSession::new(IngestConfig::new().shards(SHARDS).spill_dir(&dir).wal(true))
        .map_err(std::io::Error::other)?;
    let segments = cap.segments.clone();
    let completions = cap.completions.clone();
    let (outcome, took) = spans.time("ingest.job", job, || {
        let handle = session.open_job(cap.ranks, cap.identity_check);
        for seg in segments {
            handle.push_segment(seg);
        }
        for done in completions {
            handle.complete_rank(done);
        }
        session.finish_job(&handle)
    });
    out.ingest_job.push(secs(took));
    out.ingest = session.shutdown();
    report.check(
        outcome.is_lossless()
            && out.ingest.segments == cap.segments.len() as u64
            && out.ingest.bytes == cap.segment_bytes(),
        || format!("in-process ingest lost data: {:?} {:?}", outcome.problems, out.ingest),
    );
    let _ = std::fs::remove_dir_all(&dir);

    // CST and Sequitur, fed each rank's decoded stream as the tracer is.
    let streams = trace.decode_all_ranks();
    let mut signatures = 0u64;
    let (_, took) = spans.time("cst.observe", job, || {
        for terms in &streams {
            let mut cst = Cst::new();
            for &term in terms {
                black_box(cst.observe(trace.cst.signature(term), 1));
            }
            signatures += cst.len() as u64;
        }
    });
    out.cst_observe.push(secs(took));
    let (mut rules, mut symbols) = (0u64, 0u64);
    let (_, took) = spans.time("sequitur.push", job, || {
        for terms in &streams {
            let mut grammar = Grammar::new();
            for &term in terms {
                grammar.push(term);
            }
            let flat = grammar.to_flat();
            rules += flat.num_rules() as u64;
            symbols += flat.total_symbols() as u64;
        }
    });
    out.sequitur_push.push(secs(took));
    out.sequitur_symbols = symbols;

    let counts = ExactCounts {
        calls: cap.calls,
        segments: cap.segments.len() as u64,
        segment_bytes: cap.segment_bytes(),
        cst_signatures: signatures,
        sequitur_rules: rules,
        container_bytes: container.len() as u64,
        wal_records,
    };
    if let Some(before) = &out.counts {
        report.check(*before == counts, || format!("counts changed: {before:?} vs {counts:?}"));
    }
    out.counts = Some(counts);
    Ok(())
}

/// One turn of phase F: replays until the pace says stop.
pub fn layers(
    cap: &Capture,
    scratch: &Scratch,
    pace: &mut Pace,
    out: &mut Layers,
    spans: &mut Spans,
    report: &mut Report,
) -> std::io::Result<()> {
    let phase = spans.enter("bench.layers", 0);
    pace.turn();
    while pace.next() {
        let rep = out.net_encode.len() as u64;
        replay(cap, scratch, rep, out, spans, report)?;
    }
    spans.exit(phase);
    Ok(())
}
