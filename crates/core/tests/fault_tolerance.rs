//! End-to-end fault tolerance: a rank killed mid-run must cost at most
//! its own tail — finalize completes, survivors merge losslessly, and the
//! trace's completeness manifest names the casualty and what its last
//! checkpoint covered.

use mpi_sim::datatype::BasicType;
use mpi_sim::types::ReduceOp;
use mpi_sim::{Env, FaultPlan, RankFailure, World, WorldConfig};
use pilgrim::{
    partial_replay_report, write_container, GlobalTrace, PilgrimConfig, PilgrimTracer, RankStatus,
};

/// Deterministic wildcard-free workload: every rank's call sequence is a
/// pure function of (rank, size, iters).
fn ring_and_allreduce(env: &mut Env, iters: usize) {
    let me = env.world_rank();
    let n = env.world_size();
    let world = env.comm_world();
    let dt = env.basic(BasicType::LongLong);
    let buf = env.malloc(8);
    let tmp = env.malloc(8);
    for i in 0..iters {
        env.heap_write_u64s(buf, &[(me + i) as u64]);
        env.allreduce(buf, tmp, 1, dt, ReduceOp::Max, world);
        let right = ((me + 1) % n) as i32;
        let left = ((me + n - 1) % n) as i32;
        env.sendrecv(buf, 1, dt, right, 7, tmp, 1, dt, left, 7, world);
    }
}

fn faulty_cfg(n: usize, plan: FaultPlan) -> WorldConfig {
    let mut cfg = WorldConfig::new(n);
    cfg.faults = Some(plan);
    cfg
}

/// The surviving ranks' decoded call sequences must match what each rank
/// actually traced (function ids, call for call).
fn assert_survivors_lossless(trace: &GlobalTrace, tracers: &[Option<PilgrimTracer>]) {
    for (rank, tracer) in tracers.iter().enumerate() {
        let Some(t) = tracer else { continue };
        let decoded = pilgrim::decode_rank_calls(trace, rank).expect("decodable rank");
        let captured = t.captured();
        assert_eq!(
            decoded.len(),
            captured.len(),
            "rank {rank}: decoded {} calls, traced {}",
            decoded.len(),
            captured.len()
        );
        for (i, (call, cap)) in decoded.iter().zip(captured).enumerate() {
            assert_eq!(call.func, cap.rec.func as u16, "rank {rank} call {i}: function mismatch");
        }
    }
}

#[test]
fn killed_rank_contributes_its_last_checkpoint() {
    // Acceptance: 8 ranks, rank 5 killed after its 37th traced call,
    // checkpoints every 10 calls -> the merged trace must carry rank 5's
    // first 30 calls and say so in the manifest.
    let cfg =
        PilgrimConfig::new().capture_reference(true).checkpoint_interval(10).merge_timeout_ms(400);
    let plan = FaultPlan::new(0xC0FFEE).kill(5, 37);
    let mut out = World::run_faulty(
        &faulty_cfg(8, plan),
        |rank| PilgrimTracer::new(rank, cfg),
        |env| ring_and_allreduce(env, 30),
    );
    assert_eq!(out.failures, vec![RankFailure { rank: 5, calls: 37 }]);
    assert!(out.tracers[5].is_none());
    let trace =
        out.tracers[0].as_mut().expect("rank 0 survives").take_output().trace.expect("trace");

    // Manifest: rank 5 recovered from its last checkpoint (30 = 3 * 10
    // calls), everyone else fully merged.
    assert!(!trace.completeness.is_complete());
    assert_eq!(trace.completeness.status(5), RankStatus::Checkpoint { calls: 30 });
    for rank in (0..8).filter(|&r| r != 5) {
        assert_eq!(trace.completeness.status(rank), RankStatus::Merged, "rank {rank}");
    }
    assert_eq!(trace.rank_lengths[5], 30, "rank 5's tail is the checkpointed prefix");
    assert_eq!(trace.completeness.checkpoint_ranks(), vec![(5, 30)]);

    // Internal consistency + survivors' losslessness.
    assert_eq!(trace.validate(), Vec::<String>::new());
    assert_survivors_lossless(&trace, &out.tracers);

    // The truncated rank decodes exactly its checkpointed prefix: the
    // same functions the live rank traced in its first 30 calls.
    let truncated = pilgrim::decode_rank_calls(&trace, 5).expect("decodable rank");
    assert_eq!(truncated.len(), 30);
    let reference = pilgrim::decode_rank_calls(&trace, 6).expect("decodable rank");
    for (i, (a, b)) in truncated.iter().zip(&reference).enumerate() {
        assert_eq!(a.func, b.func, "SPMD prefix diverged at call {i}");
    }

    // The manifest survives a container write -> decode roundtrip.
    let bytes = write_container(&trace);
    let back = GlobalTrace::decode_container(&bytes).expect("degraded trace roundtrips");
    assert_eq!(back.completeness, trace.completeness);
    assert_eq!(back.rank_lengths, trace.rank_lengths);

    // Replay classification: 7 live ranks, one truncated, none lost.
    let report = partial_replay_report(&trace);
    assert_eq!(report.replayable_ranks.len(), 7);
    assert_eq!(report.truncated_ranks, vec![(5, 30)]);
    assert!(report.lost_ranks.is_empty());
    assert!(!report.is_fully_replayable());
}

#[test]
fn killed_rank_without_checkpoints_is_lost_not_fatal() {
    let cfg = PilgrimConfig::new().capture_reference(true).merge_timeout_ms(400);
    let plan = FaultPlan::new(11).kill(3, 9);
    let mut out = World::run_faulty(
        &faulty_cfg(4, plan),
        |rank| PilgrimTracer::new(rank, cfg),
        |env| ring_and_allreduce(env, 12),
    );
    let trace = out.tracers[0].as_mut().unwrap().take_output().trace.expect("trace");
    match trace.completeness.status(3) {
        RankStatus::Lost { .. } => {}
        other => panic!("rank 3 should be lost, got {other:?}"),
    }
    assert_eq!(trace.rank_lengths[3], 0, "a lost rank contributes no calls");
    assert_eq!(trace.validate(), Vec::<String>::new());
    assert_survivors_lossless(&trace, &out.tracers);
    let report = partial_replay_report(&trace);
    assert_eq!(report.lost_ranks.len(), 1);
    assert_eq!(report.lost_ranks[0].0, 3);

    let back = GlobalTrace::decode_container(&write_container(&trace)).expect("roundtrip");
    assert_eq!(back.completeness, trace.completeness);
}

#[test]
fn healthy_runs_keep_a_complete_manifest() {
    // Checkpointing on, nobody dies: the manifest must say "complete"
    // (and cost one byte), and the trace must stay fully replayable.
    let cfg = PilgrimConfig::new().checkpoint_interval(5);
    let mut tracers = World::run(
        &WorldConfig::new(4),
        |rank| PilgrimTracer::new(rank, cfg),
        |env| ring_and_allreduce(env, 10),
    );
    let trace = tracers[0].take_output().trace.expect("trace");
    assert!(trace.completeness.is_complete());
    assert_eq!(trace.size_report().manifest_bytes, 1);
    assert!(partial_replay_report(&trace).is_fully_replayable());
}

#[test]
fn killing_a_subtree_root_does_not_lose_its_children() {
    // Rank 4 is a merge-subtree root in an 8-rank binomial tree: ranks 5,
    // 6, 7 would normally route their payloads through it. The degraded
    // merge must adopt the orphans (route them to rank 0 directly) so the
    // only casualty in the manifest is rank 4 itself.
    let cfg = PilgrimConfig::new().capture_reference(true).merge_timeout_ms(400);
    let plan = FaultPlan::new(77).kill(4, 15);
    let mut out = World::run_faulty(
        &faulty_cfg(8, plan),
        |rank| PilgrimTracer::new(rank, cfg),
        |env| ring_and_allreduce(env, 25),
    );
    let trace = out.tracers[0].as_mut().unwrap().take_output().trace.expect("trace");
    for rank in (0..8).filter(|&r| r != 4) {
        assert_eq!(
            trace.completeness.status(rank),
            RankStatus::Merged,
            "alive rank {rank} must merge fully despite its dead subtree root"
        );
    }
    assert!(matches!(trace.completeness.status(4), RankStatus::Lost { .. }));
    assert_survivors_lossless(&trace, &out.tracers);
    assert_eq!(trace.validate(), Vec::<String>::new());
}

#[test]
fn degraded_merge_is_deterministic() {
    // Same fault plan, same workload -> byte-identical surviving trace.
    let run = || {
        let cfg = PilgrimConfig::new().checkpoint_interval(8).merge_timeout_ms(400);
        let plan = FaultPlan::new(0xD00D).kill(6, 21);
        let mut out = World::run_faulty(
            &faulty_cfg(8, plan),
            |rank| PilgrimTracer::new(rank, cfg),
            |env| ring_and_allreduce(env, 20),
        );
        write_container(&out.tracers[0].as_mut().unwrap().take_output().trace.expect("trace"))
    };
    assert_eq!(run(), run());
}
