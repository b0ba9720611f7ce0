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
/// steady state: a `SigWriter` buffer per call, and for each of the two
/// request-creating calls the pool signature kept with the request and the
/// pool map's key probe. 11 before the tracer read completions off the
/// borrowed record (`Waitall` cloned its request array twice and collected
/// the status bases and the symbolic ids). A change that moves this number
/// says why in CHANGES.md and pins the new one, as with `results/SIZES.tsv`.
const ADDED_PER_ITERATION: u64 = 7;

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

fn ring(iters: usize) -> impl Fn(&mut Env) + Send + Sync + 'static {
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
            let mut reqs =
                [env.irecv(rbuf, 1, dt, left, 7, world), env.isend(sbuf, 1, dt, right, 7, world)];
            env.waitall(&mut reqs);
        }
    }
}

/// Allocations of the whole process while the ring runs `iters` times.
fn allocations<T: Tracer>(iters: usize, tracer: impl Fn(usize) -> T) -> u64 {
    let before = ALLOCATIONS.load(Relaxed);
    drop(World::run(&WorldConfig::new(RANKS as usize), tracer, ring(iters)));
    ALLOCATIONS.load(Relaxed) - before
}

#[test]
fn tracing_a_ring_iteration_adds_an_exact_number_of_allocations() {
    const SHORT: usize = 1_000;
    const LONG: usize = 3_000;
    let traced = allocations(LONG, PilgrimTracer::with_defaults)
        - allocations(SHORT, PilgrimTracer::with_defaults);
    let untraced = allocations(LONG, |_| NullTracer) - allocations(SHORT, |_| NullTracer);
    let iterations = RANKS * (LONG - SHORT) as u64;
    let added = traced - untraced;
    // Two rank threads race through finalize, which moves the process-wide
    // count by a handful of allocations a run (4 in 44,000 at the parent);
    // the per-iteration figure is the nearest integer, and what is left
    // over must stay that small.
    let per_iteration = (added + iterations / 2) / iterations;
    let stray = added.abs_diff(per_iteration * iterations);
    assert!(
        per_iteration == ADDED_PER_ITERATION && stray <= iterations / 100,
        "tracing adds {per_iteration} allocations per ring iteration (+/- {stray} in all), \
         expected {ADDED_PER_ITERATION}: {traced} traced and {untraced} untraced allocations \
         over {iterations} iterations"
    );
}
