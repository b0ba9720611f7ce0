//! # Pilgrim: scalable and (near) lossless MPI tracing
//!
//! A Rust reproduction of *Pilgrim: Scalable and (near) Lossless MPI
//! Tracing* (Wang, Balaji, Snir — SC '21), built on the `mpi-sim`
//! substrate's PMPI-equivalent tracing seam.
//!
//! Pilgrim records **every** MPI call with **all** of its arguments and
//! still produces tiny traces by exploiting the regularity of MPI
//! programs at three levels:
//!
//! 1. **Call signature table (CST)** — each distinct
//!    `(function, encoded arguments)` tuple is stored once and becomes a
//!    grammar terminal. Opaque handles are replaced by symbolic ids
//!    ([`memtracker`], [`idpool`]); src/dst ranks may be stored relative
//!    to the caller so stencil exchanges collapse to one signature.
//! 2. **Context-free grammar (CFG)** — the per-rank terminal sequence is
//!    compressed online by the optimized Sequitur algorithm
//!    (`pilgrim_sequitur`), whose repetition counts store a loop of `N`
//!    identical iterations in O(1) space.
//! 3. **Inter-process merge** — at finalize, CSTs are globally
//!    deduplicated and per-rank grammars merged pairwise with an identity
//!    check; SPMD programs commonly produce only a handful of unique
//!    grammars, making the merged trace near constant in the rank count.
//!
//! ## Quick start
//!
//! ```
//! use mpi_sim::{World, WorldConfig};
//! use mpi_sim::datatype::BasicType;
//! use pilgrim::{PilgrimTracer, PilgrimConfig};
//!
//! let cfg = WorldConfig::new(4);
//! let mut tracers = World::run(
//!     &cfg,
//!     |rank| PilgrimTracer::new(rank, PilgrimConfig::default()),
//!     |env| {
//!         let world = env.comm_world();
//!         let dt = env.basic(BasicType::Double);
//!         let buf = env.malloc(80);
//!         for _ in 0..100 {
//!             env.bcast(buf, 10, dt, 0, world);
//!         }
//!     },
//! );
//! let trace = tracers[0].take_output().trace.expect("rank 0 holds the trace");
//! assert_eq!(trace.nranks, 4);
//! // 400+ calls compress into a few hundred bytes.
//! assert!(trace.size_bytes() < 1000);
//! let calls = trace.decode_rank(2);
//! assert_eq!(calls.len() as u64, trace.rank_lengths[2]);
//! ```
//!
//! ## Observability
//!
//! Enabling [`PilgrimConfig::metrics`] turns on a per-rank
//! [`MetricsRegistry`] ([`metrics`]): monotonic timers for the six
//! pipeline stages (`intercept`, `encode`, `grammar`, `cst-merge`,
//! `cfg-merge`, `final-sequitur`), named counters (`calls`, …) and byte
//! gauges (`cst.signatures`, `cfg.rules`, `local.bytes`, …). The stage
//! timers partition [`OverheadStats`] exactly: the three intra-process
//! stages sum to `intra`, `cst-merge` equals `inter_cst`, and
//! `cfg-merge` + `final-sequitur` equal `inter_cfg`. When metrics are
//! off (the default) every registry operation is a single branch.
//!
//! At finalize, [`PilgrimTracer::take_output`] returns a
//! [`FinalizeOutput`] bundling the merged trace (rank 0), the rank's
//! [`MetricsReport`] snapshot — with the [`SizeReport`] byte
//! decomposition attached on the rank holding the trace — and its
//! [`OverheadStats`]. Reports from all ranks [`MetricsReport::merge`]
//! into one and export as JSON via [`MetricsReport::to_json`]
//! (`{"size":{...},"timers_ns":{...},"counters":{...}}`, sorted keys, no
//! external dependencies). The `trace_tool stats <trace>` subcommand and
//! the `--metrics-out <path>` flag on the figure binaries emit the same
//! schema from the command line.
//!
//! ## Querying
//!
//! The [`query`] module answers questions about a finished trace without
//! fully expanding its grammar: [`TraceIndex`] gives O(depth) random
//! access to the i-th call of any rank, [`CallIterator`] streams
//! `skip`/`take` windows in constant memory, and [`QueryEngine`] computes
//! per-signature call counts, the send/recv communication matrix, and
//! per-signature aggregate time by evaluating each grammar rule once.
//! Query work is timed under two dedicated metric stages (`index-build`,
//! `query`), and `trace_tool` exposes it as the `query`, `slice`, and
//! `matrix` subcommands.
//!
//! ## Streaming ingest
//!
//! The batch pipeline above holds every rank's piece until a
//! finalize-time binomial merge. The [`ingest`] module inverts that:
//! an [`IncrementalMerger`](merge::IncrementalMerger) folds grammar
//! segments into one merged state *as they arrive* (canonically
//! renumbering at finalize so the result is byte-identical to the batch
//! merge), and an [`IngestSession`](ingest::IngestSession) multiplexes
//! many concurrent jobs over sharded worker threads with bounded,
//! backpressured queues and crash-safe container spill. Attach a rank
//! to a session with [`PilgrimTracer::with_segment_sink`]: the governor's
//! sealed segments then stream out mid-run instead of accumulating, and
//! finalize pushes the final segment plus a
//! [`RankCompletion`](merge::RankCompletion) instead of merging. The
//! `pilgrimd` binary in `pilgrim-bench` is the collector built on this
//! API.
//!
//! ## Errors
//!
//! Every fallible decoder returns `Result<_, `[`DecodeError`]`>` —
//! [`GlobalTrace::decode_container`], [`Cst::decode`](cst::Cst::decode), and
//! `FlatGrammar::decode` in `pilgrim_sequitur` — reporting *why* and at
//! which byte offset a malformed buffer was rejected (truncation, bad
//! rule references, cyclic rule graphs, trailing bytes, impossible
//! counts). The old `Option`-returning `deserialize` entry points have
//! been removed, as have the one-release `#[deprecated]` batch-merge
//! wrappers — the batch merge has a single entry point,
//! [`merge::merge`]`(ctx, piece, &MergeOptions) -> MergeOutcome`.
//!
//! ## Crash recovery
//!
//! With [`IngestConfig::wal`](ingest::IngestConfig) enabled the session
//! write-ahead-logs every stream message per shard ([`wal`]), workers run
//! under panic isolation with bounded retry and poison-segment
//! quarantine, and [`IngestSession::recover`](ingest::IngestSession)
//! ([`recover`]) rebuilds interrupted jobs after a crash — replaying WALs
//! into fresh [`IncrementalMerger`](merge::IncrementalMerger)s and
//! salvaging torn spill containers — classifying each job as
//! `Recovered` / `Partial` / `Lost`. Faults (worker panics, torn spill
//! and WAL writes, disk-full, stalled ranks) are injected
//! deterministically through a seeded
//! [`IngestFaultPlan`](ingest_fault::IngestFaultPlan).

pub mod auth;
pub mod avl;
pub mod checkpoint;
pub mod cst;
pub mod decode;
pub mod encode;
pub mod error;
pub mod export;
pub mod frame;
pub mod governor;
pub mod idpool;
pub mod ingest;
pub mod ingest_fault;
mod layout;
pub mod memtracker;
pub mod merge;
pub mod metrics;
pub mod net;
pub mod net_fault;
pub mod nondet;
pub mod query;
pub mod recover;
pub mod replay;
pub mod rr;
pub mod stats;
pub mod timing;
pub mod trace;
pub mod tracer;
pub mod wal;

pub use auth::{challenge_response, session_key, AuthKey, MacState, MAC_LEN, NONCE_LEN};
pub use checkpoint::{decode_checkpoint, encode_checkpoint, Checkpoint};
pub use cst::{Cst, SigStats};
pub use decode::{
    decode_rank_calls, verify_lossless, verify_lossless_with, SalvageReport, VerifyReport,
};
pub use encode::{decode_signature, EncodedArg, EncodedCall, EncoderConfig, RankCode};
pub use error::DecodeError;
pub use export::{
    format_arg, to_signature_listing, to_text, write_container, write_text, CONTAINER_MAGIC,
    CONTAINER_VERSION,
};
pub use governor::{Component, ComponentBytes, DegradationEvent, DegradationStage, Governor};
pub use ingest::{
    IngestConfig, IngestError, IngestSession, IngestStats, JobDesc, JobHandle, JobId, JobOutcome,
    RetryPolicy, SegmentSink,
};
pub use ingest_fault::IngestFaultPlan;
pub use merge::{
    merge, IncrementalMerger, LocalPiece, MergeError, MergeOptions, MergeOutcome, MergePolicy,
    RankCompletion, SegmentError, TraceSegment,
};
pub use metrics::{
    json_array, json_string, JsonObject, MetricsRegistry, MetricsReport, Stage, StageGuard,
};
pub use net::{
    serve, NetClient, NetClientConfig, NetClientStats, NetJobHandle, NetJobOutcome,
    NetServerConfig, NetServerStats, ServeHandle, NET_MAGIC, NET_VERSION,
};
pub use net_fault::{stable_job_id, AdversaryKind, AdversaryPlan, NetFaultPlan, ADVERSARY_KINDS};
pub use nondet::{NondetEvent, NondetLog};
pub use query::{
    CallIterator, CommMatrix, QueryEngine, SigCounts, SignatureSummary, TermCursor, TraceIndex,
};
pub use recover::{RecoveredJob, RecoveryReport, RecoverySource, RecoveryState};
pub use replay::{partial_replay_report, replay, replay_and_retrace, PartialReplayReport};
pub use rr::{
    first_divergence, minimize, record, record_faulty, replay_directed, replay_strict, Divergence,
    MinimizeError, MinimizeResult, StrictReplay,
};
pub use stats::OverheadStats;
pub use timing::TimingCompressor;
pub use trace::{
    FidelityReport, GlobalTrace, RankStatus, SizeReport, TraceCompleteness, RANK_MAP_NONE,
};
pub use tracer::{CapturedCall, FinalizeOutput, PilgrimConfig, PilgrimTracer, TimingMode};

/// Fixtures shared by the collector modules' unit tests.
#[cfg(test)]
mod test_util {
    use std::path::PathBuf;

    use pilgrim_sequitur::Grammar;

    use crate::checkpoint::encode_checkpoint;
    use crate::cst::Cst;
    use crate::encode::EncoderConfig;
    use crate::merge::{RankCompletion, TraceSegment};

    /// An unsealed segment whose grammar is the signature sequence `sigs`.
    pub(crate) fn segment(rank: usize, seq: u32, sigs: &[&[u8]]) -> TraceSegment {
        let mut cst = Cst::new();
        let mut g = Grammar::new();
        for s in sigs {
            let t = cst.observe(s, 5);
            g.push(t);
        }
        let flat = g.to_flat();
        let bytes = encode_checkpoint(flat.expanded_len(), &cst, &flat);
        TraceSegment { rank, seq, sealed: false, bytes }
    }

    /// A completion with no timing grammars and no degradation events.
    pub(crate) fn completion(rank: usize, calls: u64, segments: u32) -> RankCompletion {
        RankCompletion {
            rank,
            call_count: calls,
            segments,
            duration: None,
            interval: None,
            encoder_cfg: EncoderConfig::default(),
            events: Vec::new(),
        }
    }

    /// A fresh (removed if present, not created) per-process scratch path.
    pub(crate) fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pilgrim-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}
