//! Evaluation workloads for the Pilgrim reproduction (paper Table 2).
//!
//! Each workload is a function producing a rank body closure for
//! `mpi_sim::World::run`. The closures reproduce the *communication
//! skeletons* of the paper's codes — the sequence and arguments of MPI
//! calls — not their numerics, which trace compression never sees:
//!
//! * [`stencil`] — 2D 5-point (non-periodic) and 3D 7-point (periodic)
//!   halo exchanges (§4.1).
//! * [`npb`] — NAS Parallel Benchmark skeletons: LU, MG, IS, CG, SP, BT
//!   (Fig 5, Fig 10).
//! * [`osu`] — OSU micro-benchmark loops (§4.1).
//! * [`flash`] — FLASH proxies: Sedov, Cellular (AMR), StirTurb
//!   (Fig 6–8), on the [`amr`] block-tree substrate.
//! * [`milc`] — MILC su3_rmd lattice proxy (Fig 9).
//! * [`adversarial`] — compression-hostile random-signature kernels that
//!   drive the resource governor's degradation ladder.
//! * [`master_worker`] — wildcard-receive task farm whose schedule
//!   nondeterminism exercises the record/replay engine (`pilgrim::rr`).

pub mod adversarial;
pub mod amr;
pub mod flash;
pub mod grid;
pub mod master_worker;
pub mod milc;
pub mod npb;
pub mod osu;
pub mod stencil;

use mpi_sim::Env;

/// A boxed rank body, as `World::run` expects.
pub type Body = std::sync::Arc<dyn Fn(&mut Env) + Send + Sync>;

/// Looks up a workload body by name (used by the bench binaries).
/// `iters` scales the main loop; panics on unknown names.
pub fn by_name(name: &str, iters: usize) -> Body {
    match name {
        "stencil2d" => std::sync::Arc::new(move |env: &mut Env| stencil::stencil2d(env, iters, 8)),
        "stencil3d" => std::sync::Arc::new(move |env: &mut Env| stencil::stencil3d(env, iters, 4)),
        "lu" => std::sync::Arc::new(move |env: &mut Env| npb::lu(env, iters)),
        "mg" => std::sync::Arc::new(move |env: &mut Env| npb::mg(env, iters)),
        "is" => std::sync::Arc::new(move |env: &mut Env| npb::is(env, iters)),
        "cg" => std::sync::Arc::new(move |env: &mut Env| npb::cg(env, iters)),
        "sp" => std::sync::Arc::new(move |env: &mut Env| npb::sp(env, iters)),
        "bt" => std::sync::Arc::new(move |env: &mut Env| npb::bt(env, iters)),
        "sedov" => std::sync::Arc::new(move |env: &mut Env| flash::sedov(env, iters)),
        "cellular" => std::sync::Arc::new(move |env: &mut Env| flash::cellular(env, iters)),
        "stirturb" => std::sync::Arc::new(move |env: &mut Env| flash::stirturb(env, iters)),
        "milc" => std::sync::Arc::new(move |env: &mut Env| milc::su3_rmd(env, iters, 16)),
        "adversarial" => {
            std::sync::Arc::new(move |env: &mut Env| adversarial::adversarial(env, iters))
        }
        "master_worker" => {
            std::sync::Arc::new(move |env: &mut Env| master_worker::master_worker(env, iters))
        }
        _ => panic!("unknown workload {name:?}"),
    }
}

/// Whether `by_name(name, _)` can run on `ranks` processes: a known name,
/// at least one rank, and a square count for SP/BT's process grid. The
/// one statement of that rule — binaries report an `Err` as a usage error
/// before any rank thread starts.
pub fn check(name: &str, ranks: usize) -> Result<(), String> {
    if !ALL_WORKLOADS.contains(&name) {
        return Err(format!("unknown workload {name:?} (known: {})", ALL_WORKLOADS.join(", ")));
    }
    if ranks == 0 {
        return Err("a world needs at least 1 rank".to_string());
    }
    if matches!(name, "sp" | "bt") && grid::isqrt(ranks).pow(2) != ranks {
        return Err(format!("{name} requires a square number of processes, got {ranks}"));
    }
    Ok(())
}

/// All workload names `by_name` accepts.
pub const ALL_WORKLOADS: &[&str] = &[
    "stencil2d",
    "stencil3d",
    "lu",
    "mg",
    "is",
    "cg",
    "sp",
    "bt",
    "sedov",
    "cellular",
    "stirturb",
    "milc",
    "adversarial",
    "master_worker",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_states_the_rank_rule_once() {
        for name in ALL_WORKLOADS {
            assert_eq!(check(name, 4), Ok(()), "{name}");
            assert!(check(name, 0).unwrap_err().contains("at least 1 rank"));
        }
        assert!(check("nosuch", 4).unwrap_err().contains("unknown workload"));
        assert!(check("sp", 5).unwrap_err().contains("square"));
        assert_eq!(check("bt", 1), Ok(()));
        assert_eq!(check("lu", 5), Ok(()));
    }
}
