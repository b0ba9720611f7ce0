//! End-to-end tracer tests: simulator + Pilgrim tracer + merge + decode +
//! lossless verification.

use mpi_sim::datatype::BasicType;
use mpi_sim::types::ReduceOp;
use mpi_sim::{Env, World, WorldConfig, ANY_SOURCE, ANY_TAG, PROC_NULL};
use pilgrim::{verify_lossless, GlobalTrace, PilgrimConfig, PilgrimTracer, TimingMode};

fn traced_run<B: Fn(&mut Env) + Send + Sync + 'static>(
    n: usize,
    cfg: PilgrimConfig,
    body: B,
) -> (GlobalTrace, Vec<PilgrimTracer>) {
    let mut tracers = World::run(&WorldConfig::new(n), |rank| PilgrimTracer::new(rank, cfg), body);
    let trace = tracers[0].take_output().trace.expect("rank 0 trace");
    (trace, tracers)
}

fn verify_cfg() -> PilgrimConfig {
    PilgrimConfig::new().capture_reference(true)
}

fn check(trace: &GlobalTrace, tracers: &[PilgrimTracer]) {
    let refs: Vec<_> = tracers.iter().map(|t| t.captured().to_vec()).collect();
    let report = verify_lossless(trace, &refs).expect("trace must be lossless");
    assert!(report.calls_checked > 0);
}

#[test]
fn bcast_loop_traces_and_verifies() {
    let (trace, tracers) = traced_run(4, verify_cfg(), |env| {
        let world = env.comm_world();
        let dt = env.basic(BasicType::Double);
        let buf = env.malloc(80);
        for _ in 0..50 {
            env.bcast(buf, 10, dt, 0, world);
        }
    });
    assert_eq!(trace.nranks, 4);
    // Init + 50 bcast + Finalize per rank.
    assert_eq!(trace.rank_lengths, vec![52; 4]);
    // All ranks execute identical signatures -> one unique grammar.
    assert_eq!(trace.unique_grammars, 1);
    check(&trace, &tracers);
}

#[test]
fn ring_with_isend_waitall_verifies() {
    let (trace, tracers) = traced_run(6, verify_cfg(), |env| {
        let me = env.world_rank();
        let n = env.world_size();
        let world = env.comm_world();
        let dt = env.basic(BasicType::LongLong);
        let sbuf = env.malloc(8);
        let rbuf = env.malloc(8);
        env.heap_write_u64s(sbuf, &[me as u64]);
        for _ in 0..20 {
            let left = ((me + n - 1) % n) as i32;
            let right = ((me + 1) % n) as i32;
            let mut reqs = vec![
                env.irecv(rbuf, 1, dt, left, 7, world),
                env.isend(sbuf, 1, dt, right, 7, world),
            ];
            env.waitall(&mut reqs);
        }
    });
    check(&trace, &tracers);
    // Relative encoding has no modular arithmetic (paper §4.1: a periodic
    // stencil still has its full set of boundary patterns), so a periodic
    // ring yields exactly 3 patterns: interior, rank 0, rank n-1 — and no
    // more, regardless of the ring size.
    assert!(trace.unique_grammars <= 3, "got {}", trace.unique_grammars);
    assert!(trace.cst.len() < 14, "CST has {} entries", trace.cst.len());
}

#[test]
fn nondeterministic_waitany_still_verifies() {
    let (trace, tracers) = traced_run(4, verify_cfg(), |env| {
        let me = env.world_rank();
        let world = env.comm_world();
        let dt = env.basic(BasicType::LongLong);
        if me == 0 {
            let bufs: Vec<_> = (0..3).map(|_| env.malloc(8)).collect();
            for _ in 0..15 {
                let mut reqs: Vec<_> =
                    bufs.iter().map(|&b| env.irecv(b, 1, dt, ANY_SOURCE, ANY_TAG, world)).collect();
                while env.waitany(&mut reqs).is_some() {}
            }
        } else {
            let buf = env.malloc(8);
            for _ in 0..15 {
                env.send(buf, 1, dt, 0, me as i32, world);
            }
        }
    });
    check(&trace, &tracers);
}

#[test]
fn testsome_paper_example_verifies() {
    // The paper's §1 motivating example: a Testsome drain loop.
    let (trace, tracers) = traced_run(3, verify_cfg(), |env| {
        let me = env.world_rank();
        let world = env.comm_world();
        let dt = env.basic(BasicType::LongLong);
        if me == 0 {
            let bufs: Vec<_> = (0..2).map(|_| env.malloc(8)).collect();
            for _ in 0..10 {
                let mut reqs: Vec<_> = bufs
                    .iter()
                    .zip([1i32, 2])
                    .map(|(&b, s)| env.irecv(b, 1, dt, s, 0, world))
                    .collect();
                let mut done = 0;
                while done < 2 {
                    done += env.testsome(&mut reqs).len();
                }
            }
        } else {
            let buf = env.malloc(8);
            for _ in 0..10 {
                env.send(buf, 1, dt, 0, 0, world);
            }
        }
    });
    check(&trace, &tracers);
    // Testsome records ARE in the trace (unlike ScalaTrace/Cypress).
    let calls = pilgrim::decode_rank_calls(&trace, 0).expect("decodable rank");
    let testsome_id = mpi_sim::FuncId::Testsome.id();
    assert!(calls.iter().any(|c| c.func == testsome_id));
}

#[test]
fn comm_management_verifies() {
    let (trace, tracers) = traced_run(4, verify_cfg(), |env| {
        let me = env.world_rank();
        let world = env.comm_world();
        let dup = env.comm_dup(world);
        env.comm_set_name(dup, "my-comm");
        let sub = env.comm_split(dup, (me % 2) as i32, me as i32).unwrap();
        env.barrier(sub);
        let (idup, mut req) = env.comm_idup(sub);
        env.wait(&mut req);
        env.barrier(idup);
        env.comm_free(idup);
        env.comm_free(sub);
        env.comm_free(dup);
    });
    check(&trace, &tracers);
}

#[test]
fn comm_symbolic_ids_consistent_across_ranks() {
    // Every rank's signature for barrier(sub) must be identical, which
    // requires the globally consistent comm id assignment (§3.3.1).
    let (trace, _tracers) = traced_run(4, verify_cfg(), |env| {
        let me = env.world_rank();
        let world = env.comm_world();
        // Key 0 everywhere: ordering falls back to parent rank, and the
        // split signature stays rank-invariant within a color.
        let sub = env.comm_split(world, (me % 2) as i32, 0).unwrap();
        for _ in 0..5 {
            env.barrier(sub);
        }
        env.comm_free(sub);
    });
    // Two split halves get (potentially) different ids, but within a half
    // all ranks share signatures: at most 2 unique grammars.
    assert!(trace.unique_grammars <= 2, "got {}", trace.unique_grammars);
}

#[test]
fn intercomm_and_merge_verify() {
    let (trace, tracers) = traced_run(4, verify_cfg(), |env| {
        let me = env.world_rank();
        let world = env.comm_world();
        let color = (me >= 2) as i32;
        let local = env.comm_split(world, color, me as i32).unwrap();
        let remote_leader = if color == 0 { 2 } else { 0 };
        let inter = env.intercomm_create(local, 0, world, remote_leader, 9);
        let merged = env.intercomm_merge(inter, color == 1);
        env.barrier(merged);
        env.comm_free(merged);
    });
    check(&trace, &tracers);
}

#[test]
fn derived_types_and_collectives_verify() {
    let (trace, tracers) = traced_run(3, verify_cfg(), |env| {
        let world = env.comm_world();
        let int = env.basic(BasicType::Int);
        let dt64 = env.basic(BasicType::LongLong);
        let vec_t = env.type_vector(4, 1, 2, int);
        env.type_commit(vec_t);
        let buf = env.malloc(64);
        let rbuf = env.malloc(64);
        env.bcast(buf, 1, vec_t, 0, world);
        env.allreduce(buf, rbuf, 2, dt64, ReduceOp::Max, world);
        env.type_free(vec_t);
        let n = env.world_size() as u64;
        let all = env.malloc(8 * n);
        env.allgather(rbuf, 1, dt64, all, 1, dt64, world);
        env.reduce(rbuf, all, 1, dt64, ReduceOp::Sum, 0, world);
        env.scan(rbuf, all, 1, dt64, ReduceOp::Sum, world);
        env.exscan(rbuf, all, 1, dt64, ReduceOp::Sum, world);
        env.alltoall(all, 1, dt64, buf, 1, dt64, world);
    });
    check(&trace, &tracers);
}

#[test]
fn memory_reuse_gives_stable_pointer_encoding() {
    let (trace, _) = traced_run(2, verify_cfg(), |env| {
        let world = env.comm_world();
        let dt = env.basic(BasicType::LongLong);
        // Allocate + free the buffer每 iteration: symbolic segment ids
        // repeat, so all iterations share one signature.
        for _ in 0..30 {
            let buf = env.malloc(64);
            env.bcast(buf, 8, dt, 0, world);
            env.free(buf);
        }
    });
    // Init + 30 bcast + Finalize => CST has 3 signatures per function kind.
    assert!(trace.cst.len() <= 4, "CST has {} entries", trace.cst.len());
}

#[test]
fn proc_null_and_sendrecv_verify() {
    let (trace, tracers) = traced_run(3, verify_cfg(), |env| {
        let me = env.world_rank() as i32;
        let n = env.world_size() as i32;
        let world = env.comm_world();
        let dt = env.basic(BasicType::LongLong);
        let sbuf = env.malloc(8);
        let rbuf = env.malloc(8);
        // Non-periodic shift: boundary ranks talk to PROC_NULL.
        let left = if me == 0 { PROC_NULL } else { me - 1 };
        let right = if me == n - 1 { PROC_NULL } else { me + 1 };
        for _ in 0..10 {
            env.sendrecv(sbuf, 1, dt, right, 0, rbuf, 1, dt, left, 0, world);
        }
    });
    check(&trace, &tracers);
}

#[test]
fn lossy_timing_mode_produces_grammars() {
    let cfg = PilgrimConfig::new().timing(TimingMode::Lossy { base: 1.2 }).capture_reference(true);
    let (trace, tracers) = traced_run(4, cfg, |env| {
        let world = env.comm_world();
        let dt = env.basic(BasicType::Double);
        let buf = env.malloc(64);
        for _ in 0..100 {
            env.compute(5_000);
            env.allreduce(buf, buf, 1, dt, ReduceOp::Sum, world);
        }
    });
    check(&trace, &tracers);
    assert!(!trace.duration_grammars.is_empty());
    assert!(!trace.interval_grammars.is_empty());
    assert_eq!(trace.duration_rank_map.len(), 4);
    // Every rank's duration stream decodes to one bin per call.
    let g = &trace.duration_grammars[trace.duration_rank_map[0] as usize];
    assert_eq!(g.expanded_len(), trace.rank_lengths[0]);
}

#[test]
fn trace_serialization_roundtrip_e2e() {
    let (trace, _) = traced_run(4, PilgrimConfig::default(), |env| {
        let world = env.comm_world();
        let dt = env.basic(BasicType::Double);
        let buf = env.malloc(80);
        for _ in 0..25 {
            env.bcast(buf, 10, dt, 0, world);
            env.barrier(world);
        }
    });
    let bytes = trace.serialize();
    let back = GlobalTrace::decode(&bytes).expect("decodable");
    assert_eq!(back.decode_all_ranks(), trace.decode_all_ranks());
    assert_eq!(back.cst.len(), trace.cst.len());
}

#[test]
fn loop_iteration_count_does_not_grow_trace() {
    let size_for = |iters: usize| -> usize {
        let (trace, _) = traced_run(4, PilgrimConfig::default(), move |env| {
            let world = env.comm_world();
            let dt = env.basic(BasicType::Double);
            let buf = env.malloc(80);
            for _ in 0..iters {
                env.bcast(buf, 10, dt, 0, world);
                env.allreduce(buf, buf, 1, dt, ReduceOp::Sum, world);
            }
        });
        trace.size_bytes()
    };
    let small = size_for(10);
    let large = size_for(10_000);
    // O(1) loop compression: 1000x more calls may only cost a handful of
    // extra bytes (larger varint repetition counters and CST call counts).
    assert!(large <= small + 64, "trace must not grow with iterations: {small} -> {large}");
}

#[test]
fn overhead_stats_are_populated() {
    let (_, tracers) = traced_run(2, PilgrimConfig::default(), |env| {
        let world = env.comm_world();
        let dt = env.basic(BasicType::Double);
        let buf = env.malloc(8);
        for _ in 0..100 {
            env.bcast(buf, 1, dt, 0, world);
        }
    });
    let s = tracers[0].stats();
    assert!(s.intra.as_nanos() > 0);
    assert!(s.total() >= s.intra);
    assert!(tracers[0].local_size_bytes() > 0);
    assert_eq!(tracers[0].call_count(), 102);
}

#[test]
fn persistent_requests_trace_and_verify() {
    let (trace, tracers) = traced_run(2, verify_cfg(), |env| {
        use mpi_sim::datatype::BasicType;
        let me = env.world_rank();
        let world = env.comm_world();
        let dt = env.basic(BasicType::LongLong);
        let buf = env.malloc(8);
        let req = if me == 0 {
            env.send_init(buf, 1, dt, 1, 3, world)
        } else {
            env.recv_init(buf, 1, dt, 0, 3, world)
        };
        for _ in 0..25 {
            env.start(req);
            let mut h = req;
            env.wait(&mut h);
        }
        let mut req = req;
        env.request_free(&mut req);
    });
    check(&trace, &tracers);
    // One persistent request, started 25 times: the symbolic id repeats,
    // so the whole loop is a handful of signatures.
    assert!(trace.cst.len() <= 8, "CST has {} entries", trace.cst.len());
    // The loop compresses to O(1) grammar space.
    assert!(trace.size_bytes() < 600, "trace is {} bytes", trace.size_bytes());
}

/// A persistent request's statuses are encoded relative to the caller's
/// rank in the communicator it was created on, and the verifier has to know
/// that of `MPI_*_init` requests too: on a split half the comm rank is not
/// the world rank.
#[test]
fn persistent_requests_on_a_subcommunicator_verify() {
    let (trace, tracers) = traced_run(4, verify_cfg(), |env| {
        let me = env.world_rank();
        let world = env.comm_world();
        let dt = env.basic(BasicType::LongLong);
        let buf = env.malloc(8);
        let half = env.comm_split(world, (me / 2) as i32, me as i32).unwrap();
        let mut req = if me % 2 == 0 {
            env.send_init(buf, 1, dt, 1, 3, half)
        } else {
            env.recv_init(buf, 1, dt, 0, 3, half)
        };
        for _ in 0..5 {
            env.start(req);
            env.wait(&mut req);
        }
        env.request_free(&mut req);
    });
    check(&trace, &tracers);
}
