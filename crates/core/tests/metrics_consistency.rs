//! The six stage timers partition the wall-clock overhead accounting:
//! the three intra-process stages sum to `OverheadStats::intra`, CST merge
//! matches `inter_cst`, and CFG merge plus the final Sequitur pass match
//! `inter_cfg` — so the timer total equals `OverheadStats::total()`.

use mpi_sim::datatype::BasicType;
use mpi_sim::{ReduceOp, World, WorldConfig};
use pilgrim::{MetricsReport, OverheadStats, PilgrimConfig, PilgrimTracer, SizeReport, Stage};

fn run_with_metrics(nranks: usize) -> (MetricsReport, OverheadStats, SizeReport) {
    let cfg = PilgrimConfig::new().metrics(true);
    let mut tracers = World::run(
        &WorldConfig::new(nranks),
        |rank| PilgrimTracer::new(rank, cfg),
        |env| {
            let world = env.comm_world();
            let dt = env.basic(BasicType::Double);
            let buf = env.malloc(256);
            for _ in 0..25 {
                env.bcast(buf, 32, dt, 0, world);
                env.allreduce(buf, buf, 4, dt, ReduceOp::Sum, world);
                env.barrier(world);
            }
        },
    );
    let mut stats = OverheadStats::default();
    let mut report = MetricsReport::default();
    let mut size = SizeReport::default();
    for (rank, t) in tracers.iter_mut().enumerate() {
        let out = t.take_output();
        stats.merge(&out.stats);
        report.merge(&out.metrics);
        if rank == 0 {
            size = out.trace.expect("rank 0 trace").size_report();
        }
    }
    (report, stats, size)
}

#[test]
fn stage_timers_partition_overhead_stats() {
    let (report, stats, _) = run_with_metrics(4);
    let intra = report.stage_ns(Stage::Intercept)
        + report.stage_ns(Stage::Encode)
        + report.stage_ns(Stage::GrammarInsert);
    assert_eq!(intra, stats.intra.as_nanos() as u64);
    assert_eq!(report.stage_ns(Stage::CstMerge), stats.inter_cst.as_nanos() as u64);
    let cfg_merge = report.stage_ns(Stage::CfgMerge) + report.stage_ns(Stage::FinalSequitur);
    assert_eq!(cfg_merge, stats.inter_cfg.as_nanos() as u64);
    assert_eq!(report.total_stage_ns(), stats.total().as_nanos() as u64);
    assert!(report.total_stage_ns() > 0, "a traced run takes nonzero time");
}

#[test]
fn report_counters_and_size_reflect_the_run() {
    let (report, _, trace_size) = run_with_metrics(4);
    // 4 ranks x 25 iterations x 3 calls, plus implicit finalize barriers.
    assert!(report.counters["calls"] >= 300, "calls = {}", report.counters["calls"]);
    assert!(report.counters["cst.signatures"] > 0);
    assert!(report.counters["cfg.rules"] > 0);
    // Merging rank reports keeps rank 0's size block: the trace's own.
    let size = report.size.expect("rank 0 attaches the size block");
    assert_eq!(size, trace_size);
    assert!(size.full_total() > 0);
    // The JSON export carries all three sections.
    let json = report.to_json();
    assert!(json.contains("\"size\":{"));
    assert!(json.contains("\"timers_ns\":{"));
    assert!(json.contains("\"final-sequitur\":"));
    assert!(json.contains("\"counters\":{"));
}

#[test]
fn disabled_metrics_cost_nothing_but_stats_still_accrue() {
    let mut tracers = World::run(&WorldConfig::new(2), PilgrimTracer::with_defaults, |env| {
        let world = env.comm_world();
        let dt = env.basic(BasicType::Double);
        let buf = env.malloc(64);
        for _ in 0..10 {
            env.bcast(buf, 8, dt, 0, world);
        }
    });
    let out = tracers[0].take_output();
    assert_eq!(out.metrics.total_stage_ns(), 0);
    assert!(out.metrics.counters.is_empty());
    assert!(out.stats.total().as_nanos() > 0);
}
