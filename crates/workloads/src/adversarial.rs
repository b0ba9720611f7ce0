//! Adversarial (compression-hostile) workloads for the resource
//! governor.
//!
//! Pilgrim's compression thrives on regularity; these kernels deny it.
//! Every iteration draws fresh pseudo-random call parameters from a
//! deterministic SplitMix64 stream, so nearly every call is a brand-new
//! CST signature, the Sequitur grammar finds almost no repeated digrams
//! to fold, and the tracer's working set grows with the call count
//! instead of staying flat. Against an unbudgeted tracer this produces
//! worst-case memory growth; with `PilgrimConfig::memory_budget` set it
//! drives the governor through its whole degradation ladder, which is
//! exactly what the bounded-memory tests and the `chaos` binary's
//! `governor` layer need.
//!
//! The parameter stream is keyed only by `(seed, iteration)` — never by
//! rank — so every rank draws identical tags and counts and matched
//! sends/receives line up without negotiation: the kernels are
//! deadlock-free and wildcard-free by construction, and a fixed seed
//! reproduces the exact call sequence.

use mpi_sim::datatype::BasicType;
use mpi_sim::types::ReduceOp;
use mpi_sim::Env;

/// One SplitMix64 step: a tiny, high-quality deterministic generator
/// (Steele et al., OOPSLA'14), rank-independent by construction.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// [`adversarial_seeded`] with a fixed default seed.
pub fn adversarial(env: &mut Env, iters: usize) {
    adversarial_seeded(env, iters, 42);
}

/// The adversarial kernel: per iteration, a random-count allreduce, a
/// random-tag/random-count ring exchange, and random-sized allocator
/// churn with a stack-like touch that lands before its allocation (the
/// memory tracker's lazy-segment path).
pub fn adversarial_seeded(env: &mut Env, iters: usize, seed: u64) {
    let me = env.world_rank();
    let n = env.world_size();
    let world = env.comm_world();
    let dt = env.basic(BasicType::Double);
    let sbuf = env.malloc(4096);
    let rbuf = env.malloc(4096);
    let mut shared = seed;
    for _ in 0..iters {
        // A fresh element count nearly every iteration: each allreduce
        // becomes its own CST signature.
        let count = splitmix(&mut shared) % 512 + 1;
        env.allreduce(sbuf, rbuf, count, dt, ReduceOp::Sum, world);
        // Ring exchange whose tag and count churn per iteration. Both
        // sides draw from the shared stream, so the match is exact;
        // irecv-before-isend keeps the ring deadlock-free at any size.
        let tag = (splitmix(&mut shared) % 30_000) as i32;
        let count = splitmix(&mut shared) % 256 + 1;
        if n > 1 {
            let right = ((me + 1) % n) as i32;
            let left = ((me + n - 1) % n) as i32;
            let mut reqs = vec![
                env.irecv(rbuf, count, dt, left, tag, world),
                env.isend(sbuf, count, dt, right, tag, world),
            ];
            env.waitall(&mut reqs);
        }
        // Short-lived random-sized allocations churn the segment tracker
        // and keep buffer signatures from repeating.
        let size = splitmix(&mut shared) % 8192 + 8;
        let scratch = env.malloc(size);
        let count = splitmix(&mut shared) % (size / 8).min(512) + 1;
        env.bcast(scratch, count, dt, 0, world);
        env.free(scratch);
    }
    env.barrier(world);
}
