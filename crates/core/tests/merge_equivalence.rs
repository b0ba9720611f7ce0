//! The differential table behind the repo's first invariant: every path
//! to a trace yields byte-identical containers, and every one of them
//! decodes to what the ranks actually called.
//!
//! Rows are paths, columns are scenarios. A path is a function from a
//! scenario to a [`GlobalTrace`]; paths in the same class (with or
//! without the tightened governor budget, which legitimately changes the
//! bytes: sealed segments, degradation events) must agree byte for byte,
//! and every path must pass `verify_lossless` against a
//! `capture_reference` run of the same world. A new path joins by adding
//! a row.

mod common;

use std::sync::Arc;

use common::{batch_trace, recovered_trace, streamed_trace};
use mpi_sim::datatype::BasicType;
use mpi_sim::{Env, World, WorldConfig};
use mpi_workloads::adversarial::adversarial_seeded;
use mpi_workloads::Body;
use pilgrim::{
    verify_lossless, write_container, GlobalTrace, PilgrimConfig, PilgrimTracer, TimingMode,
};

/// A budget small enough that every scenario seals segments mid-run.
const TIGHT_BUDGET: usize = 3000;

struct Path {
    name: &'static str,
    /// Run under [`TIGHT_BUDGET`]: the rank retains (batch) or streams
    /// (collector) governor-sealed segments and reassembles them.
    tight_budget: bool,
    run: fn(usize, u64, PilgrimConfig, Body) -> GlobalTrace,
}

const PATHS: [Path; 5] = [
    Path { name: "batch", tight_budget: false, run: batch_trace },
    Path { name: "batch+budget", tight_budget: true, run: batch_trace },
    Path { name: "streamed", tight_budget: false, run: streamed_trace },
    Path { name: "streamed+budget", tight_budget: true, run: streamed_trace },
    Path { name: "wal-recovered", tight_budget: false, run: recovered_trace },
];

struct Scenario {
    name: &'static str,
    ranks: usize,
    seed: u64,
    cfg: PilgrimConfig,
    body: Body,
}

fn scenarios() -> [Scenario; 4] {
    // Rings and broadcasts work for any rank count; 6 exercises the
    // binomial tree's padding paths on the batch side.
    let ring: Body = Arc::new(|env: &mut Env| {
        let world = env.comm_world();
        let dt = env.basic(BasicType::Double);
        let buf = env.malloc(128);
        let rank = env.comm_rank(world);
        let size = env.comm_size(world);
        for _ in 0..20 {
            env.bcast(buf, 16, dt, 0, world);
            let right = ((rank + 1) % size) as i32;
            let left = ((rank + size - 1) % size) as i32;
            env.sendrecv(buf, 8, dt, right, 7, buf, 8, dt, left, 7, world);
            env.barrier(world);
        }
    });
    [
        Scenario {
            name: "clean stencil2d",
            ranks: 4,
            seed: 7,
            cfg: PilgrimConfig::default(),
            body: mpi_workloads::by_name("stencil2d", 25),
        },
        // The compression-hostile kernel under a budget of its own: the
        // degradation ladder reaches segment sealing on every path.
        Scenario {
            name: "governed adversarial",
            ranks: 4,
            seed: 42,
            cfg: PilgrimConfig::new().memory_budget(48_000),
            body: Arc::new(|env: &mut Env| adversarial_seeded(env, 150, 42)),
        },
        Scenario {
            name: "lossy-timing stencil3d",
            ranks: 4,
            seed: 11,
            cfg: PilgrimConfig::new().timing(TimingMode::Lossy { base: 1.2 }),
            body: mpi_workloads::by_name("stencil3d", 12),
        },
        Scenario {
            name: "6-rank ring",
            ranks: 6,
            seed: 13,
            cfg: PilgrimConfig::default(),
            body: ring,
        },
    ]
}

#[test]
fn every_path_writes_the_same_bytes_and_decodes_losslessly() {
    for sc in scenarios() {
        let reference: Vec<_> = {
            let body = sc.body.clone();
            let cfg = sc.cfg.capture_reference(true);
            World::run(
                &WorldConfig::new(sc.ranks).seed(sc.seed),
                |rank| PilgrimTracer::new(rank, cfg),
                move |env| body(env),
            )
            .iter()
            .map(|t| t.captured().to_vec())
            .collect()
        };
        // First container seen per class: [scenario's own cfg, tight budget].
        let mut expected: [Option<(&str, Vec<u8>)>; 2] = [None, None];
        for path in &PATHS {
            let cfg = if path.tight_budget { sc.cfg.memory_budget(TIGHT_BUDGET) } else { sc.cfg };
            let trace = (path.run)(sc.ranks, sc.seed, cfg, sc.body.clone());
            if path.tight_budget {
                assert!(
                    !trace.fidelity().sealed_ranks.is_empty(),
                    "{} / {}: the tight budget must seal segments",
                    sc.name,
                    path.name
                );
            }
            if let Err(e) = verify_lossless(&trace, &reference) {
                panic!("{} / {}: not lossless: {e}", sc.name, path.name);
            }
            let bytes = write_container(&trace);
            match &expected[path.tight_budget as usize] {
                None => expected[path.tight_budget as usize] = Some((path.name, bytes)),
                Some((first, want)) => assert!(
                    *want == bytes,
                    "{}: {} and {} wrote different containers",
                    sc.name,
                    first,
                    path.name
                ),
            }
        }
    }
}
