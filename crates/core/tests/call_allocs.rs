//! The tracer's heap allocations per call, counted: ROADMAP item 3's exact
//! row. A 2-rank `irecv` / `isend` / `waitall` ring runs at two lengths
//! under [`PilgrimTracer`] and under [`NullTracer`]; the simulator's own
//! allocations and every per-run constant cancel in the differences, and
//! what is left is what tracing one ring iteration adds — an integer that
//! repeats exactly on a box where no timing does.
//!
//! Its own test binary: the `#[global_allocator]` counts every allocation
//! of the process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use mpi_sim::datatype::BasicType;
use mpi_sim::{Env, NullTracer, Tracer, World, WorldConfig};
use pilgrim::PilgrimTracer;

/// Allocations the tracer adds to one ring iteration (three calls) in
/// steady state: none, since the tracer reuses one signature buffer. 3
/// while every call built its own `SigWriter` buffer, 7 while each of the
/// two request-creating calls also copied its pool signature into the
/// request's entry and into the pool map's key probe, and 11 before that,
/// when the tracer did not yet read completions off the borrowed record
/// (`Waitall` cloned its request array twice and collected the status
/// bases and the symbolic ids). A change that moves this number says why
/// in CHANGES.md and pins the new one, as with `results/SIZES.tsv`.
const ADDED_PER_ITERATION: u64 = 0;

/// The same ring sending from an interior pointer into a scratch buffer
/// it `malloc`s and `free`s every iteration: the memory tracker's insert,
/// containing-segment lookup and removal add no allocation either.
const ADDED_PER_SCRATCH_ITERATION: u64 = 0;

const RANKS: u64 = 2;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a plain statistic and publishes no
// other data. `realloc` is the default (`alloc` + copy + `dealloc`), so a
// growing buffer counts once per growth.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The ring, sending from `sbuf` or, with `scratch`, from 24 bytes into a
/// 64-byte buffer allocated and freed around each iteration.
fn ring(iters: usize, scratch: bool) -> impl Fn(&mut Env) + Send + Sync + 'static {
    move |env: &mut Env| {
        let me = env.world_rank();
        let n = env.world_size();
        let world = env.comm_world();
        let dt = env.basic(BasicType::LongLong);
        let sbuf = env.malloc(8);
        let rbuf = env.malloc(8);
        let left = ((me + n - 1) % n) as i32;
        let right = ((me + 1) % n) as i32;
        for _ in 0..iters {
            let scratch_buf = scratch.then(|| env.malloc(64));
            let send_from = scratch_buf.map_or(sbuf, |b| b + 24);
            let mut reqs = [
                env.irecv(rbuf, 1, dt, left, 7, world),
                env.isend(send_from, 1, dt, right, 7, world),
            ];
            env.waitall(&mut reqs);
            if let Some(b) = scratch_buf {
                env.free(b);
            }
        }
    }
}

/// Allocations of the whole process while the ring runs `iters` times.
fn allocations<T: Tracer>(iters: usize, scratch: bool, tracer: impl Fn(usize) -> T) -> u64 {
    let before = ALLOCATIONS.load(Relaxed);
    drop(World::run(&WorldConfig::new(RANKS as usize), tracer, ring(iters, scratch)));
    ALLOCATIONS.load(Relaxed) - before
}

#[test]
fn tracing_a_ring_iteration_adds_an_exact_number_of_allocations() {
    const SHORT: usize = 1_000;
    const LONG: usize = 3_000;
    let rows =
        [("ring", false, ADDED_PER_ITERATION), ("scratch ring", true, ADDED_PER_SCRATCH_ITERATION)];
    for (row, scratch, expected) in rows {
        let traced = allocations(LONG, scratch, PilgrimTracer::with_defaults)
            - allocations(SHORT, scratch, PilgrimTracer::with_defaults);
        let untraced = allocations(LONG, scratch, |_| NullTracer)
            - allocations(SHORT, scratch, |_| NullTracer);
        let iterations = RANKS * (LONG - SHORT) as u64;
        // Two rank threads race through finalize, which moves the process-wide
        // count by a handful of allocations a run (4 in 44,000 at the parent),
        // either way; the per-iteration figure is the nearest integer, and
        // what is left over must stay that small.
        let added = traced as i64 - untraced as i64;
        let per_iteration = (added + iterations as i64 / 2).div_euclid(iterations as i64);
        let stray = added.abs_diff(per_iteration * iterations as i64);
        assert!(
            per_iteration == expected as i64 && stray <= iterations / 100,
            "{row}: tracing adds {per_iteration} allocations per iteration (+/- {stray} in all), \
             expected {expected}: {traced} traced and {untraced} untraced allocations over \
             {iterations} iterations"
        );
    }
}
