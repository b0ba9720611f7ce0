//! End-to-end tests for the resource governor: bounded memory under
//! adversarial workloads, zero behavior change when unbudgeted, full
//! degradation-ladder runs that still decode / verify / replay / query,
//! and seeded determinism of degraded traces.
#![recursion_limit = "512"]

use mpi_sim::{Env, World, WorldConfig};
use mpi_workloads::adversarial::{adversarial, adversarial_seeded};
use pilgrim::{
    partial_replay_report, verify_lossless, write_container, DegradationStage, GlobalTrace,
    PilgrimConfig, PilgrimTracer, QueryEngine, TimingMode, TraceIndex,
};
use proptest::prelude::*;

/// Worst-case working-set growth of a single traced call: a brand-new
/// CST signature, a grammar append, fresh timing and memory-tracker
/// entries. The governor checks *after* each call, so its peak may
/// overshoot the budget by at most this much.
const ONE_CALL_SLACK: u64 = 4096;

fn run_adversarial(
    nranks: usize,
    iters: usize,
    seed: u64,
    cfg: PilgrimConfig,
) -> Vec<PilgrimTracer> {
    World::run(
        &WorldConfig::new(nranks),
        move |rank| PilgrimTracer::new(rank, cfg),
        move |env: &mut Env| adversarial_seeded(env, iters, seed),
    )
}

/// The tentpole invariant, checked for one (iters, seed, budget) point:
/// on a compression-hostile workload, every rank's peak accounted
/// working set stays within the budget plus one call's worst-case
/// footprint, transitions step up the ladder in call order, and the
/// degraded trace still validates and roundtrips.
fn check_bounded(iters: usize, seed: u64, budget: usize) -> Result<(), TestCaseError> {
    let cfg = PilgrimConfig::new().timing(TimingMode::Lossy { base: 1.2 }).memory_budget(budget);
    let mut tracers = run_adversarial(2, iters, seed, cfg);
    for (rank, t) in tracers.iter().enumerate() {
        let peak = t.governor().peak_bytes();
        prop_assert!(
            peak <= budget as u64 + ONE_CALL_SLACK,
            "rank {rank} peak {peak} exceeds budget {budget} + slack"
        );
        for pair in t.governor().events().windows(2) {
            prop_assert!(pair[0].call_index <= pair[1].call_index);
            prop_assert!(
                pair[0].stage < pair[1].stage || pair[1].stage == DegradationStage::SealSegment
            );
        }
    }
    let trace = tracers[0].take_output().trace.expect("rank 0 holds the trace");
    let problems = trace.validate();
    prop_assert!(problems.is_empty(), "degraded trace validates: {problems:?}");
    let back = GlobalTrace::decode_container(&write_container(&trace)).expect("roundtrip");
    prop_assert_eq!(back.decode_all_ranks(), trace.decode_all_ranks());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn peak_memory_stays_within_budget(
        iters in 60usize..220,
        seed in any::<u64>(),
        budget_shift in 14usize..17, // 16 KiB, 32 KiB, 64 KiB
    ) {
        check_bounded(iters, seed, 1 << budget_shift)?;
    }
}

#[test]
fn unreached_budget_is_byte_identical_to_unbudgeted() {
    // A budget the workload never approaches must change nothing: the
    // governor watches but never steps in, and the serialized trace is
    // byte-for-byte what the unbudgeted tracer produces.
    for name in ["lu", "mg"] {
        let body = mpi_workloads::by_name(name, 6);
        let run = |cfg: PilgrimConfig| {
            let body = body.clone();
            let mut tracers = World::run(
                &WorldConfig::new(4),
                move |rank| PilgrimTracer::new(rank, cfg),
                move |env: &mut Env| body(env),
            );
            tracers[0].take_output().trace.expect("trace")
        };
        let plain = run(PilgrimConfig::new());
        let budgeted = run(PilgrimConfig::new().memory_budget(1 << 30));
        assert_eq!(
            write_container(&plain),
            write_container(&budgeted),
            "{name}: governor must be inert"
        );
        assert!(budgeted.completeness.events.is_empty());
        assert!(!budgeted.is_degraded());
    }
}

/// A budget small enough that the capture-laden adversarial run climbs
/// the whole ladder: freeze, aggregate timing, then repeated seals.
fn degraded_run() -> (GlobalTrace, Vec<Vec<pilgrim::CapturedCall>>) {
    let cfg = PilgrimConfig::new()
        .timing(TimingMode::Lossy { base: 1.2 })
        .capture_reference(true)
        .metrics(true)
        .memory_budget(64 * 1024);
    let mut tracers = run_adversarial(2, 200, 7, cfg);
    let refs: Vec<_> = tracers.iter().map(|t| t.captured().to_vec()).collect();
    let trace = tracers[0].take_output().trace.expect("rank 0 holds the trace");
    (trace, refs)
}

#[test]
fn full_ladder_trace_decodes_verifies_and_replays() {
    let (trace, refs) = degraded_run();
    // The run really climbed all three rungs on every rank.
    let fidelity = trace.fidelity();
    assert!(!fidelity.lossless);
    assert_eq!(fidelity.frozen_ranks, vec![0, 1]);
    assert_eq!(fidelity.timing_degraded_ranks, vec![0, 1]);
    assert_eq!(fidelity.sealed_ranks, vec![0, 1]);
    assert!(fidelity.events >= 6, "at least three transitions per rank, got {}", fidelity.events);
    assert!(trace.is_degraded());
    // Degradation coarsens compression and timing — never the call
    // stream. The trace still validates, roundtrips, and verifies
    // losslessly against the raw capture.
    assert!(trace.validate().is_empty(), "{:?}", trace.validate());
    let report = verify_lossless(&trace, &refs).expect("degraded trace is still call-lossless");
    assert_eq!(report.calls_checked, trace.rank_lengths.iter().sum::<u64>());
    let back = GlobalTrace::decode_container(&write_container(&trace)).expect("roundtrip");
    assert_eq!(back.completeness, trace.completeness, "events survive the container");
    // Replay guard: a governor-degraded (but fully merged) trace is
    // still fully replayable — the manifest says so before anyone tries.
    let replay_report = partial_replay_report(&trace);
    assert!(replay_report.is_fully_replayable());
    assert_eq!(replay_report.replayable_ranks, vec![0, 1]);
    // A live replay executes every decoded call without deadlock and
    // reproduces each rank's call count (allocator churn means segment
    // ids — and thus raw signatures — legitimately renumber on retrace).
    let retraced = pilgrim::replay_and_retrace(&trace, PilgrimConfig::new()).expect("replay");
    assert_eq!(retraced.nranks, trace.nranks);
    assert_eq!(retraced.rank_lengths, trace.rank_lengths);
}

#[test]
fn full_ladder_trace_answers_queries_with_fidelity_flags() {
    let (trace, _) = degraded_run();
    let index = TraceIndex::build(&trace);
    let engine = QueryEngine::new(&trace, &index);
    // The engine knows (and reports) that its answers come from a
    // degraded trace.
    assert!(engine.is_degraded());
    let fidelity = engine.fidelity();
    assert_eq!(fidelity.sealed_ranks, vec![0, 1]);
    // And the answers themselves are exact for the call stream: counts
    // sum to the trace length, the matrix sees the ring exchange.
    let total: u64 = engine.signature_counts().values().sum();
    assert_eq!(total, trace.rank_lengths.iter().sum::<u64>());
    let matrix = engine.comm_matrix();
    assert!(matrix.total_sends() > 0, "ring isends are in the matrix");
    // Random access still works through the sealed-segment concatenation.
    let calls = pilgrim::decode_rank_calls(&trace, 1).expect("rank 1 decodes");
    assert_eq!(calls.len() as u64, trace.rank_lengths[1]);
}

#[test]
fn degraded_traces_are_deterministic_under_a_fixed_seed() {
    let cfg = PilgrimConfig::new().timing(TimingMode::Lossy { base: 1.2 }).memory_budget(48 * 1024);
    let bytes: Vec<Vec<u8>> = (0..2)
        .map(|_| {
            let mut tracers = run_adversarial(2, 150, 1234, cfg);
            write_container(&tracers[0].take_output().trace.expect("trace"))
        })
        .collect();
    // Byte-identical including the degradation events in the manifest.
    assert_eq!(bytes[0], bytes[1]);
    let trace = GlobalTrace::decode_container(&bytes[0]).expect("decodes");
    assert!(!trace.completeness.events.is_empty(), "the budget was actually hit");
}

#[test]
fn governor_metrics_are_published() {
    let cfg = PilgrimConfig::new()
        .timing(TimingMode::Lossy { base: 1.2 })
        .metrics(true)
        .memory_budget(32 * 1024);
    let mut tracers = World::run(
        &WorldConfig::new(2),
        move |rank| PilgrimTracer::new(rank, cfg),
        move |env: &mut Env| adversarial(env, 150),
    );
    let budget = tracers[0].governor().budget().expect("budget set");
    let peak = tracers[0].governor().peak_bytes();
    let out = tracers[0].take_output();
    let json = out.metrics.to_json();
    assert!(json.contains("\"governor.peak_bytes\""));
    assert!(json.contains("\"governor.budget_bytes\""));
    assert!(json.contains("\"governor.transitions\""));
    assert!(json.contains("\"governor.sealed_segments\""));
    assert_eq!(out.metrics.counters.get("governor.peak_bytes"), Some(&peak));
    assert_eq!(out.metrics.counters.get("governor.budget_bytes"), Some(&budget));
    assert!(out.metrics.counters.get("governor.transitions").copied().unwrap_or(0) >= 3);
}
