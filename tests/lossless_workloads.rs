//! Cross-crate integration: every evaluation workload, traced with
//! Pilgrim, must decompress to exactly the call stream that was recorded
//! (the paper's correctness check, §4).

use mpi_sim::{World, WorldConfig};
use mpi_workloads::by_name;
use pilgrim::{verify_lossless, write_container, PilgrimConfig, PilgrimTracer};

fn verify_workload(name: &str, nranks: usize, iters: usize) {
    let body = by_name(name, iters);
    let cfg = PilgrimConfig::new().capture_reference(true);
    let mut tracers = World::run(
        &WorldConfig::new(nranks),
        |rank| PilgrimTracer::new(rank, cfg),
        move |env| body(env),
    );
    let trace = tracers[0].take_output().trace.expect("rank 0 trace");
    let refs: Vec<_> = tracers.iter().map(|t| t.captured().to_vec()).collect();
    let report =
        verify_lossless(&trace, &refs).unwrap_or_else(|e| panic!("{name} trace not lossless: {e}"));
    assert!(report.calls_checked > nranks as u64 * iters as u64 / 2);
    // Sanity: the merged trace knows every rank's call count.
    for (rank, t) in tracers.iter().enumerate() {
        assert_eq!(trace.rank_lengths[rank], t.call_count());
    }
}

#[test]
fn stencil2d_lossless() {
    verify_workload("stencil2d", 9, 25);
}

#[test]
fn stencil3d_lossless() {
    verify_workload("stencil3d", 8, 20);
}

#[test]
fn npb_lu_lossless() {
    verify_workload("lu", 4, 30);
}

#[test]
fn npb_mg_lossless() {
    verify_workload("mg", 8, 10);
}

#[test]
fn npb_is_lossless() {
    verify_workload("is", 4, 15);
}

#[test]
fn npb_cg_lossless() {
    verify_workload("cg", 8, 20);
}

#[test]
fn npb_sp_lossless() {
    verify_workload("sp", 4, 12);
}

#[test]
fn npb_bt_lossless() {
    verify_workload("bt", 9, 10);
}

#[test]
fn flash_sedov_lossless() {
    verify_workload("sedov", 8, 25);
}

#[test]
fn flash_cellular_lossless() {
    verify_workload("cellular", 6, 40);
}

#[test]
fn flash_stirturb_lossless() {
    verify_workload("stirturb", 8, 20);
}

#[test]
fn milc_lossless() {
    verify_workload("milc", 8, 3);
}

#[test]
fn osu_suite_lossless() {
    for &(name, f) in mpi_workloads::osu::OSU_BENCHES {
        let cfg = PilgrimConfig::new().capture_reference(true);
        let mut tracers = World::run(
            &WorldConfig::new(2),
            |rank| PilgrimTracer::new(rank, cfg),
            move |env| f(env, 5),
        );
        let trace = tracers[0].take_output().trace.expect("rank 0 trace");
        let refs: Vec<_> = tracers.iter().map(|t| t.captured().to_vec()).collect();
        verify_lossless(&trace, &refs).unwrap_or_else(|e| panic!("{name}: {e}"));
        // OSU kernels compress to a few KB regardless of iterations (§4.1);
        // windowed benchmarks carry one signature per in-flight request.
        assert!(trace.size_bytes() < 16384, "{name} trace is {} bytes", trace.size_bytes());
    }
}

#[test]
fn serialization_roundtrip_for_complex_workload() {
    let body = by_name("cellular", 30);
    let mut tracers =
        World::run(&WorldConfig::new(4), PilgrimTracer::with_defaults, move |env| body(env));
    let trace = tracers[0].take_output().trace.unwrap();
    let back = pilgrim::GlobalTrace::decode_container(&write_container(&trace)).unwrap();
    assert_eq!(back.decode_all_ranks(), trace.decode_all_ranks());
}
