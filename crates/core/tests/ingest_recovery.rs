//! Crash-recovery end-to-end and property tests for the ingest WAL.
//!
//! The contract under test, from the collector's point of view:
//!
//! - killing the collector mid-run across many concurrent jobs loses
//!   nothing the WAL saw — every WAL-intact job is rebuilt to a
//!   `validate()`-clean trace, and every other job is *reported* as
//!   partial or lost, never silently dropped;
//! - the same [`IngestFaultPlan`] seed injects the same faults, so two
//!   crashed-and-recovered runs produce byte-identical recovered
//!   containers;
//! - recovery never panics on damaged artifacts (truncated or
//!   bit-flipped WALs and containers), and never classifies a job
//!   `Recovered` unless its trace actually validates clean.

#![recursion_limit = "256"]

mod common;

use std::fs;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use common::{stream_world, temp_dir};
use pilgrim::recover::recover_dir;
use pilgrim::wal::{decode_wal, WalRecord, WalWriter};
use pilgrim::{
    encode_checkpoint, Cst, EncoderConfig, GlobalTrace, IngestConfig, IngestFaultPlan,
    IngestSession, PilgrimConfig, PilgrimTracer, RankCompletion, RecoveryState, SegmentSink,
    TraceSegment,
};
use pilgrim_sequitur::Grammar;
use proptest::prelude::*;

/// Streams `jobs` concurrent simulated worlds into a WAL-backed session
/// and "crashes" it: jobs `0..finish` are finished normally, the rest
/// are left open when the session is dropped. Jobs are opened in order
/// from the calling thread so job IDs (the fault-plan coordinates) are
/// deterministic; the streams themselves race freely.
fn run_and_crash(dir: &PathBuf, jobs: usize, finish: usize, ranks: usize, plan: IngestFaultPlan) {
    let session = Arc::new(
        IngestSession::new(IngestConfig::new().shards(2).spill_dir(dir).wal(true).faults(plan))
            .unwrap(),
    );
    let handles: Vec<_> = (0..jobs).map(|_| session.open_job(ranks, true)).collect();
    let workers: Vec<_> = handles
        .into_iter()
        .enumerate()
        .map(|(j, handle)| {
            let session = session.clone();
            std::thread::spawn(move || {
                let workload = ["stencil2d", "stencil3d", "lu", "mg"][j % 4];
                let body = mpi_workloads::by_name(workload, 8);
                let sink: Arc<dyn SegmentSink> = Arc::new(handle.clone());
                stream_world(sink, PilgrimConfig::default(), ranks, 100 + j as u64, body);
                if j < finish {
                    let _ = session.finish_job(&handle);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    // Drop flushes the shard queues (so the WAL is complete) but leaves
    // the unfinished jobs exactly as a dead collector would: no
    // container, no Finished record.
}

#[test]
fn killed_collector_recovers_every_wal_intact_job_across_eight_worlds() {
    let dir = temp_dir("e2e");
    run_and_crash(&dir, 8, 3, 4, IngestFaultPlan::default());

    let report = IngestSession::recover(&dir).unwrap();
    assert_eq!(report.jobs.len(), 8, "a job vanished from the recovery report");
    for job in &report.jobs {
        // Fault-free crash: every job's WAL is intact, so every job —
        // finished or interrupted — must come back fully recovered.
        assert_eq!(
            job.state,
            RecoveryState::Recovered,
            "job {} not recovered: {:?}",
            job.job,
            job.problems
        );
        let trace = job.trace.as_ref().unwrap();
        assert!(trace.validate().is_empty(), "job {} trace invalid", job.job);
        assert!(trace.rank_lengths.iter().sum::<u64>() > 0);
        assert!(job.output.as_ref().is_some_and(|p| p.exists()));
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn poisoned_wal_segment_is_reported_and_costs_only_its_own_job() {
    // A segment is fsynced to the WAL *before* it is folded, so a hostile
    // one — here a grammar naming terminal 7 over a 1-signature CST —
    // outlives the live session's quarantine. Replay has no panic
    // isolation: recovery must refuse the payload by name and carry on.
    let checkpoint = |term: u32| {
        let mut cst = Cst::new();
        cst.observe(b"sig", 5);
        let mut g = Grammar::new();
        g.push(term);
        encode_checkpoint(1, &cst, &g.to_flat())
    };
    let dir = temp_dir("poisoned-wal");
    fs::create_dir_all(dir.join("wal")).unwrap();
    let mut wal = WalWriter::create(dir.join("wal").join("shard-0.wal")).unwrap();
    for (job, term) in [(1u64, 7u32), (2, 0)] {
        let seg = TraceSegment { rank: 0, seq: 0, sealed: false, bytes: checkpoint(term) };
        let done = RankCompletion {
            rank: 0,
            call_count: 1,
            segments: 1,
            duration: None,
            interval: None,
            encoder_cfg: EncoderConfig::default(),
            events: Vec::new(),
        };
        for rec in [
            WalRecord::JobOpen { job, nranks: 1, identity_check: true },
            WalRecord::Segment { job, seg },
            WalRecord::Complete { job, done },
        ] {
            wal.append(&rec).unwrap();
        }
    }
    drop(wal);

    let report = recover_dir(&dir).expect("recovery must not panic or error");
    assert_eq!(report.jobs.len(), 2);
    let (poisoned, honest) = (&report.jobs[0], &report.jobs[1]);
    assert_eq!((poisoned.job, honest.job), (1, 2));
    assert_ne!(poisoned.state, RecoveryState::Recovered);
    assert!(
        poisoned
            .problems
            .iter()
            .any(|p| p.contains("replay segment 0/0") && p.contains("terminal")),
        "the report must name the refused segment: {:?}",
        poisoned.problems
    );
    assert_eq!(honest.state, RecoveryState::Recovered, "problems: {:?}", honest.problems);
    assert_eq!(honest.trace.as_ref().unwrap().rank_lengths, vec![1]);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_job_recovers_identical_to_its_finished_twin() {
    // The same world, once finished by the session and once crashed and
    // WAL-replayed, must serialize to the same bytes: recovery is the
    // merge path, not an approximation of it.
    let dir = temp_dir("twin");
    run_and_crash(&dir, 2, 1, 4, IngestFaultPlan::default());
    let report = IngestSession::recover(&dir).unwrap();
    assert_eq!(report.jobs.len(), 2);
    // Job 0 (stencil2d, seed 100) finished; job 1 streamed the
    // *different* stencil3d world, so compare each against a fresh
    // batch-traced reference instead of against each other.
    for job in &report.jobs {
        assert_eq!(job.state, RecoveryState::Recovered, "problems: {:?}", job.problems);
    }
    let crashed = report.jobs[1].trace.as_ref().unwrap();
    let body = mpi_workloads::by_name("stencil3d", 8);
    let mut tracers = mpi_sim::World::run(
        &mpi_sim::WorldConfig::new(4).seed(101),
        |rank| PilgrimTracer::new(rank, PilgrimConfig::default()),
        move |env| body(env),
    );
    let reference = tracers[0].take_output().trace.unwrap();
    assert_eq!(
        crashed.serialize(),
        reference.serialize(),
        "WAL replay diverged from the batch merge"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn same_fault_seed_recovers_byte_identical_traces() {
    // Two runs under the same seeded fault plan (transient panics,
    // poisoned segments, stalled completions, torn spills and torn WAL
    // appends — everything keyed on (job, rank, seq)) must recover
    // byte-identical containers.
    let plan = IngestFaultPlan::new(0xD15EA5E)
        .segment_panic_rate(0.08)
        .poison_rate(0.03)
        .stall_rate(0.05)
        .spill_io_rate(0.2)
        .wal_io_rate(0.05);
    let recover_bytes = |tag: &str| {
        let dir = temp_dir(tag);
        run_and_crash(&dir, 6, 3, 4, plan.clone());
        let report = IngestSession::recover(&dir).unwrap();
        assert_eq!(report.jobs.len(), 6);
        let bytes: Vec<(u64, &'static str, Option<Vec<u8>>)> = report
            .jobs
            .iter()
            .map(|j| (j.job, j.state.as_str(), j.trace.as_ref().map(|t| t.serialize())))
            .collect();
        let _ = fs::remove_dir_all(&dir);
        bytes
    };
    let first = recover_bytes("det-a");
    let second = recover_bytes("det-b");
    assert_eq!(first, second, "same fault seed produced different recoveries");
}

/// A small but real session directory: two jobs, one finished (spilled
/// container + WAL), one crashed (WAL only).
fn fixture_dir(tag: &str) -> PathBuf {
    let dir = temp_dir(tag);
    run_and_crash(&dir, 2, 1, 2, IngestFaultPlan::default());
    dir
}

fn fixture_wal_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let dir = fixture_dir("walbytes");
        let bytes = fs::read_dir(dir.join("wal"))
            .unwrap()
            .map(|e| fs::read(e.unwrap().path()).unwrap())
            .max_by_key(Vec::len)
            .unwrap();
        let _ = fs::remove_dir_all(&dir);
        bytes
    })
}

fn fixture_container_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let dir = fixture_dir("containerbytes");
        let container = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "pilgrim"))
            .expect("finished job spilled a container");
        let bytes = fs::read(container).unwrap();
        let _ = fs::remove_dir_all(&dir);
        bytes
    })
}

/// Truncating a WAL anywhere and flipping any bit must never panic the
/// decoder: it either replays a clean prefix or fails closed with a
/// decode error.
fn check_wal_decode_survives(cut: usize, flip: usize, bit: u8) {
    let mut bytes = fixture_wal_bytes().to_vec();
    bytes.truncate(cut.min(bytes.len()));
    if !bytes.is_empty() {
        let at = flip % bytes.len();
        bytes[at] ^= 1 << bit;
    }
    if let Ok(replay) = decode_wal(&bytes) {
        assert!(replay.clean_bytes <= bytes.len() as u64);
    }
}

/// Salvage over truncated/bit-flipped containers must never panic, and
/// whatever it does return must validate clean — salvage always
/// degrades to a smaller-but-consistent trace, never an inconsistent
/// one.
fn check_salvage_survives(cut: usize, flip: usize, bit: u8) {
    let mut bytes = fixture_container_bytes().to_vec();
    bytes.truncate(cut.min(bytes.len()));
    let at = flip % bytes.len();
    bytes[at] ^= 1 << bit;
    if let Ok((trace, _report)) = GlobalTrace::decode_salvage(&bytes) {
        assert!(trace.validate().is_empty(), "salvaged trace fails validate()");
    }
}

fn damage_file(path: &PathBuf, cut: usize, flip: usize, bit: u8) {
    let mut bytes = fs::read(path).unwrap();
    bytes.truncate(cut.min(bytes.len()));
    if !bytes.is_empty() {
        let at = flip % bytes.len();
        bytes[at] ^= 1 << bit;
    }
    fs::write(path, &bytes).unwrap();
}

/// Full-directory recovery over a damaged session dir never panics and
/// never overclaims: any job reported `Recovered` has a
/// validate()-clean trace and a complete manifest.
fn check_recovery_never_overclaims(wal_cut: usize, spill_cut: usize, bit: u8, flip: usize) {
    let dir = temp_dir(&format!("dmg-{wal_cut}-{spill_cut}-{bit}-{flip}"));
    run_and_crash(&dir, 2, 1, 2, IngestFaultPlan::default());

    // Damage the biggest WAL and the spilled container in place.
    let wal_path = fs::read_dir(dir.join("wal"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .max_by_key(|p| fs::metadata(p).map(|m| m.len()).unwrap_or(0))
        .unwrap();
    damage_file(&wal_path, wal_cut, flip, bit);
    if let Some(spill) = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "pilgrim"))
    {
        damage_file(&spill, spill_cut, flip, bit);
    }

    let report = IngestSession::recover(&dir).unwrap();
    for job in &report.jobs {
        if job.state == RecoveryState::Recovered {
            let trace = job.trace.as_ref().expect("recovered job carries a trace");
            assert!(
                trace.validate().is_empty(),
                "job {} reported Recovered with an invalid trace",
                job.job
            );
            assert!(trace.completeness.is_complete());
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn wal_decode_never_panics_on_damage(cut in 0usize..4096, flip in 0usize..4096, bit in 0u8..8) {
        check_wal_decode_survives(cut, flip, bit);
    }

    #[test]
    fn salvage_never_panics_on_damage(cut in 16usize..8192, flip in 0usize..8192, bit in 0u8..8) {
        check_salvage_survives(cut, flip, bit);
    }
}

proptest! {
    // Each case rebuilds and re-damages a whole session directory, so
    // keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn recovery_never_overclaims_on_damaged_dirs(
        wal_cut in 0usize..4096,
        spill_cut in 16usize..8192,
        bit in 0u8..8,
        flip in 0usize..4096,
    ) {
        check_recovery_never_overclaims(wal_cut, spill_cut, bit, flip);
    }
}
