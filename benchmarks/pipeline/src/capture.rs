//! Phase B: generate the job every later phase replays.
//!
//! Three P-rank worlds of the same body and seed: one streaming into a
//! benchmark-owned recording sink (the frames the collector will see),
//! one finalizing through the batch merge (the bytes the collector must
//! reproduce), one with `capture_reference` (the raw calls the decoded
//! container must give back). Input generation, not measured end to end.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use mpi_sim::{NullTracer, World, WorldConfig};
use pilgrim::{
    write_container, CapturedCall, PilgrimConfig, PilgrimTracer, RankCompletion, SegmentSink,
    TraceSegment,
};

use crate::spec::Workload;
use crate::stats::{millis, secs};

#[derive(Default)]
struct RecordingSink {
    segments: Mutex<Vec<TraceSegment>>,
    completions: Mutex<Vec<RankCompletion>>,
}

impl SegmentSink for RecordingSink {
    fn push_segment(&self, seg: TraceSegment) {
        self.segments.lock().expect("a rank panicked mid-push").push(seg);
    }

    fn complete_rank(&self, done: RankCompletion) {
        self.completions.lock().expect("a rank panicked mid-complete").push(done);
    }
}

/// One captured job.
pub struct Capture {
    pub ranks: usize,
    pub identity_check: bool,
    /// Segments in the order every phase pushes them: by sequence
    /// number, then rank — the interleaving of ranks streaming side by
    /// side, made canonical so thread scheduling in phase B cannot
    /// reorder the measured input.
    pub segments: Vec<TraceSegment>,
    pub completions: Vec<RankCompletion>,
    /// Exact call count of the job.
    pub calls: u64,
    /// `write_container` of the batch-merged trace: what the collector's
    /// container must equal byte for byte.
    pub expected: Vec<u8>,
    /// Raw per-rank calls of the reference world.
    pub reference: Vec<Vec<CapturedCall>>,
    /// Rank 0's `inter_cst + inter_cfg` of the batch world.
    pub batch_finalize_ms: f64,
    /// Sum of the batch ranks' pre-merge trace sizes.
    pub local_bytes: u64,
    pub gen_s: f64,
}

impl Capture {
    pub fn segment_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.bytes.len() as u64).sum()
    }

    pub fn sealed_segments(&self) -> u64 {
        self.segments.iter().filter(|s| s.sealed).count() as u64
    }

    /// Frames one job puts on the wire: open, segments, completions,
    /// finish.
    pub fn frames_per_job(&self) -> u64 {
        (self.segments.len() + self.completions.len() + 2) as u64
    }
}

fn world(w: &Workload, seed: u64) -> WorldConfig {
    WorldConfig::new(w.ranks).seed(seed)
}

pub fn capture(w: &Workload, seed: u64) -> Capture {
    let start = Instant::now();
    let cfg = w.tracer_config();

    let sink = Arc::new(RecordingSink::default());
    let body = w.body(w.job_iters, seed);
    let dyn_sink: Arc<dyn SegmentSink> = sink.clone();
    World::run(
        &world(w, seed),
        |rank| PilgrimTracer::new(rank, cfg).with_segment_sink(dyn_sink.clone()),
        move |env| body(env),
    );
    drop(dyn_sink);
    let sink = Arc::into_inner(sink).expect("the world dropped its tracers");
    let mut segments = sink.segments.into_inner().expect("no rank panicked");
    let mut completions = sink.completions.into_inner().expect("no rank panicked");
    segments.sort_by_key(|s| (s.seq, s.rank));
    completions.sort_by_key(|c| c.rank);
    let calls = completions.iter().map(|c| c.call_count).sum();

    let body = w.body(w.job_iters, seed);
    let mut batch =
        World::run(&world(w, seed), |rank| PilgrimTracer::new(rank, cfg), move |env| body(env));
    let local_bytes = batch.iter().map(|t| t.local_size_bytes() as u64).sum();
    let out = batch[0].take_output();
    let trace = out.trace.expect("rank 0 holds the batch-merged trace");
    let expected = write_container(&trace);
    let batch_finalize_ms = millis(out.stats.inter_cst + out.stats.inter_cfg);
    drop(batch);

    let body = w.body(w.job_iters, seed);
    let ref_cfg = PilgrimConfig::default().capture_reference(true);
    let reference =
        World::run(&world(w, seed), |rank| PilgrimTracer::new(rank, ref_cfg), move |env| body(env))
            .iter()
            .map(|t| t.captured().to_vec())
            .collect();

    Capture {
        ranks: w.ranks,
        identity_check: cfg.merge_identity_check,
        segments,
        completions,
        calls,
        expected,
        reference,
        batch_finalize_ms,
        local_bytes,
        gen_s: secs(start.elapsed()),
    }
}

/// Wall of one untraced P-rank world, in milliseconds: the scheduler
/// noise floor the other numbers are read against.
pub fn untraced_world_ms(w: &Workload, seed: u64) -> f64 {
    let body = w.body(w.job_iters, seed);
    let start = Instant::now();
    World::run(&world(w, seed), |_| NullTracer, move |env| body(env));
    millis(start.elapsed())
}
