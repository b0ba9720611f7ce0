//! Fixtures shared by the integration tests that push simulated worlds
//! through the merge paths: one world runner per path, one in-process
//! collector sink, one scratch-directory helper.

#![allow(dead_code)] // each test binary uses its own subset

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use mpi_sim::{World, WorldConfig};
use mpi_workloads::Body;
use pilgrim::{
    GlobalTrace, IncrementalMerger, IngestConfig, IngestSession, PilgrimConfig, PilgrimTracer,
    RankCompletion, RecoveryState, SegmentSink, TraceSegment,
};

/// A fresh (removed if present, not created) per-process scratch path.
pub fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pilgrim-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Streams one simulated world through any segment sink.
pub fn stream_world(
    sink: Arc<dyn SegmentSink>,
    cfg: PilgrimConfig,
    ranks: usize,
    seed: u64,
    body: Body,
) {
    World::run(
        &WorldConfig::new(ranks).seed(seed),
        |rank| PilgrimTracer::new(rank, cfg).with_segment_sink(sink.clone()),
        move |env| body(env),
    );
}

/// [`stream_world`] over the small stencil the transport tests share.
pub fn stream_stencil(sink: Arc<dyn SegmentSink>, cfg: PilgrimConfig, ranks: usize, seed: u64) {
    stream_world(sink, cfg, ranks, seed, mpi_workloads::by_name("stencil3d", 6));
}

/// A [`SegmentSink`] that folds every stream into one shared
/// [`IncrementalMerger`] — the collector side of the streaming path,
/// without the session machinery. `drop_completion` swallows that
/// rank's completion marker (its segments still arrive), modelling a
/// collector that died before the rank finished.
pub struct CollectorSink {
    merger: Mutex<Option<IncrementalMerger>>,
    drop_completion: Option<usize>,
}

impl CollectorSink {
    pub fn new(nranks: usize, cfg: &PilgrimConfig, drop_completion: Option<usize>) -> Arc<Self> {
        let merger = IncrementalMerger::new(nranks).identity_check(cfg.merge_identity_check);
        Arc::new(CollectorSink { merger: Mutex::new(Some(merger)), drop_completion })
    }

    /// Takes the merger out once the world has finished streaming.
    pub fn take(&self) -> IncrementalMerger {
        self.merger.lock().unwrap().take().expect("merger present")
    }
}

impl SegmentSink for CollectorSink {
    fn push_segment(&self, seg: TraceSegment) {
        let mut guard = self.merger.lock().unwrap();
        let merger = guard.as_mut().expect("merger still collecting");
        merger.accept_segment(&seg).expect("stream segment accepted");
    }

    fn complete_rank(&self, done: RankCompletion) {
        if self.drop_completion == Some(done.rank) {
            return;
        }
        let mut guard = self.merger.lock().unwrap();
        let merger = guard.as_mut().expect("merger still collecting");
        merger.complete_rank(done).expect("rank completion accepted");
    }
}

/// The finalize-time batch merge (the paper's log2(P) tree). With a
/// `memory_budget` the ranks retain their sealed segments and assemble
/// them at finalize.
pub fn batch_trace(ranks: usize, seed: u64, cfg: PilgrimConfig, body: Body) -> GlobalTrace {
    let wcfg = WorldConfig::new(ranks).seed(seed);
    let mut tracers = World::run(&wcfg, |rank| PilgrimTracer::new(rank, cfg), move |env| body(env));
    tracers[0].take_output().trace.expect("rank 0 batch trace")
}

/// The same world with every rank streaming into an [`IncrementalMerger`].
pub fn streamed_trace(ranks: usize, seed: u64, cfg: PilgrimConfig, body: Body) -> GlobalTrace {
    let sink = CollectorSink::new(ranks, &cfg, None);
    stream_world(sink.clone(), cfg, ranks, seed, body);
    sink.take().finalize()
}

/// The same world streamed into a WAL-backed session that dies before
/// finishing the job, then rebuilt by crash recovery from the WAL alone.
pub fn recovered_trace(ranks: usize, seed: u64, cfg: PilgrimConfig, body: Body) -> GlobalTrace {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let tag = format!("recovered-{}", RUNS.fetch_add(1, Ordering::Relaxed));
    let dir = temp_dir(&tag);
    let session = IngestSession::new(IngestConfig::new().shards(2).spill_dir(&dir).wal(true))
        .expect("ingest session");
    let handle = session.open_job(ranks, cfg.merge_identity_check);
    stream_world(Arc::new(handle), cfg, ranks, seed, body);
    drop(session);
    let mut report = IngestSession::recover(&dir).expect("recover");
    assert_eq!(report.jobs.len(), 1, "{tag}: one job streamed, one job recovered");
    let job = report.jobs.remove(0);
    assert_eq!(job.state, RecoveryState::Recovered, "{tag}: {:?}", job.problems);
    let _ = std::fs::remove_dir_all(&dir);
    job.trace.expect("recovered job carries its trace")
}

/// CRC-32 (IEEE), bitwise — enough for pinning a handful of containers.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}
