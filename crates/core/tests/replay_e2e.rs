//! Mini-app replay tests: a trace replayed as a live program must
//! reproduce the original communication pattern — same call counts and,
//! for deterministic programs, an identical re-trace.

use std::sync::OnceLock;

use mpi_sim::{FuncId, World, WorldConfig};
use pilgrim::cst::Cst;
use pilgrim::encode::SigWriter;
use pilgrim::{
    decode_signature, replay, replay_strict, write_container, Divergence, EncodedArg,
    EncoderConfig, GlobalTrace, PilgrimConfig, PilgrimTracer, StrictReplay, TraceCompleteness,
};
use pilgrim_sequitur::Grammar;
use proptest::prelude::*;

fn trace_workload(name: &str, nranks: usize, iters: usize) -> pilgrim::GlobalTrace {
    let body = mpi_workloads_body(name, iters);
    let mut tracers =
        World::run(&WorldConfig::new(nranks), PilgrimTracer::with_defaults, move |env| body(env));
    tracers[0].take_output().trace.unwrap()
}

fn mpi_workloads_body(name: &str, iters: usize) -> TestBody {
    use mpi_sim::datatype::BasicType;
    use mpi_sim::types::ReduceOp;
    match name {
        "collectives" => std::sync::Arc::new(move |env: &mut mpi_sim::Env| {
            let world = env.comm_world();
            let dt = env.basic(BasicType::Double);
            let n = env.world_size() as u64;
            let buf = env.malloc(8 * n);
            let out = env.malloc(8 * n);
            for _ in 0..iters {
                env.bcast(buf, 1, dt, 0, world);
                env.allreduce(buf, out, 1, dt, ReduceOp::Sum, world);
                env.allgather(buf, 1, dt, out, 1, dt, world);
                env.alltoall(buf, 1, dt, out, 1, dt, world);
                env.barrier(world);
            }
        }),
        "ring" => std::sync::Arc::new(move |env: &mut mpi_sim::Env| {
            let me = env.world_rank();
            let n = env.world_size();
            let world = env.comm_world();
            let dt = env.basic(BasicType::LongLong);
            let sbuf = env.malloc(8);
            let rbuf = env.malloc(8);
            for _ in 0..iters {
                let left = ((me + n - 1) % n) as i32;
                let right = ((me + 1) % n) as i32;
                let mut reqs = vec![
                    env.irecv(rbuf, 1, dt, left, 3, world),
                    env.isend(sbuf, 1, dt, right, 3, world),
                ];
                env.waitall(&mut reqs);
            }
        }),
        "comms" => std::sync::Arc::new(move |env: &mut mpi_sim::Env| {
            let me = env.world_rank();
            let world = env.comm_world();
            let dup = env.comm_dup(world);
            let sub = env.comm_split(dup, (me % 2) as i32, 0).unwrap();
            for _ in 0..iters {
                env.barrier(sub);
                env.barrier(dup);
            }
            env.comm_free(sub);
            env.comm_free(dup);
        }),
        "types" => std::sync::Arc::new(move |env: &mut mpi_sim::Env| {
            use mpi_sim::datatype::BasicType;
            let world = env.comm_world();
            let int = env.basic(BasicType::Int);
            let v = env.type_vector(4, 1, 2, int);
            env.type_commit(v);
            let buf = env.malloc(64);
            for _ in 0..iters {
                env.bcast(buf, 1, v, 0, world);
            }
            env.type_free(v);
        }),
        other => mpi_workloads::by_name(other, iters),
    }
}

type TestBody = std::sync::Arc<dyn Fn(&mut mpi_sim::Env) + Send + Sync>;

/// For a deterministic program, a replay re-traced with Pilgrim is
/// byte-identical to the original trace (same signatures, same grammar).
fn assert_replay_faithful(name: &str, nranks: usize, iters: usize) {
    let original = trace_workload(name, nranks, iters);
    let replayed = replay(&original).expect("replay");
    assert_eq!(replayed.nranks, original.nranks);
    assert_eq!(
        replayed.rank_lengths, original.rank_lengths,
        "{name}: replay must issue the same number of calls per rank"
    );
    assert_eq!(
        replayed.cst.len(),
        original.cst.len(),
        "{name}: replay must produce the same signature set"
    );
    assert_eq!(
        replayed.decode_all_ranks(),
        original.decode_all_ranks(),
        "{name}: replay terminal streams must match"
    );
}

#[test]
fn replay_collectives_faithful() {
    assert_replay_faithful("collectives", 4, 20);
}

#[test]
fn replay_ring_faithful() {
    assert_replay_faithful("ring", 6, 15);
}

#[test]
fn replay_comm_management_faithful() {
    assert_replay_faithful("comms", 4, 10);
}

#[test]
fn replay_derived_types_faithful() {
    assert_replay_faithful("types", 3, 12);
}

#[test]
fn replay_stencil_faithful() {
    assert_replay_faithful("stencil2d", 9, 15);
}

#[test]
fn replay_npb_skeletons_faithful() {
    assert_replay_faithful("lu", 4, 10);
    assert_replay_faithful("mg", 8, 5);
    assert_replay_faithful("is", 4, 8);
}

#[test]
fn replay_milc_faithful() {
    assert_replay_faithful("milc", 8, 2);
}

#[test]
fn replay_nondeterministic_program_completes() {
    // Waitany/ANY_SOURCE programs replay the *pattern*; completion order
    // may differ, but the replay must run to completion and issue the
    // same number of non-test calls.
    use mpi_sim::datatype::BasicType;
    use mpi_sim::{ANY_SOURCE, ANY_TAG};
    let body: TestBody = std::sync::Arc::new(|env: &mut mpi_sim::Env| {
        let me = env.world_rank();
        let world = env.comm_world();
        let dt = env.basic(BasicType::LongLong);
        if me == 0 {
            let bufs: Vec<_> = (0..3).map(|_| env.malloc(8)).collect();
            for _ in 0..10 {
                let mut reqs: Vec<_> =
                    bufs.iter().map(|&b| env.irecv(b, 1, dt, ANY_SOURCE, ANY_TAG, world)).collect();
                while env.waitany(&mut reqs).is_some() {}
            }
        } else {
            let buf = env.malloc(8);
            for _ in 0..10 {
                env.send(buf, 1, dt, 0, me as i32, world);
            }
        }
    });
    let mut tracers =
        World::run(&WorldConfig::new(4), PilgrimTracer::with_defaults, move |env| body(env));
    let original = tracers[0].take_output().trace.unwrap();
    let replayed =
        pilgrim::replay_and_retrace(&original, PilgrimConfig::default()).expect("replay");
    assert_eq!(replayed.nranks, 4);
    assert_eq!(replayed.rank_lengths, original.rank_lengths);
}

#[test]
fn replay_persistent_requests_faithful() {
    let body: TestBody = std::sync::Arc::new(|env: &mut mpi_sim::Env| {
        use mpi_sim::datatype::BasicType;
        let me = env.world_rank();
        let n = env.world_size();
        let world = env.comm_world();
        let dt = env.basic(BasicType::LongLong);
        let sbuf = env.malloc(8);
        let rbuf = env.malloc(8);
        let left = ((me + n - 1) % n) as i32;
        let right = ((me + 1) % n) as i32;
        let reqs = vec![
            env.recv_init(rbuf, 1, dt, left, 0, world),
            env.send_init(sbuf, 1, dt, right, 0, world),
        ];
        for _ in 0..8 {
            env.startall(&reqs);
            let mut active = reqs.clone();
            env.waitall(&mut active);
        }
        for mut r in reqs {
            env.request_free(&mut r);
        }
    });
    let mut tracers =
        World::run(&WorldConfig::new(4), PilgrimTracer::with_defaults, move |env| body(env));
    let original = tracers[0].take_output().trace.unwrap();
    let replayed = replay(&original).expect("replay");
    assert_eq!(replayed.rank_lengths, original.rank_lengths);
    assert_eq!(replayed.decode_all_ranks(), original.decode_all_ranks());
}

#[test]
fn replay_cart_topology_faithful() {
    let body: TestBody = std::sync::Arc::new(|env: &mut mpi_sim::Env| {
        use mpi_sim::datatype::BasicType;
        let world = env.comm_world();
        let n = env.world_size();
        let dims = env.dims_create(n, 2);
        let cart = env.cart_create(world, &dims, &[true, true], false).unwrap();
        let dt = env.basic(BasicType::Double);
        let sbuf = env.malloc(64);
        let rbuf = env.malloc(64);
        for dim in 0..2 {
            let (src, dst) = env.cart_shift(cart, dim, 1);
            for _ in 0..6 {
                env.sendrecv(sbuf, 8, dt, dst, dim as i32, rbuf, 8, dt, src, dim as i32, cart);
            }
        }
        env.comm_free(cart);
    });
    let mut tracers =
        World::run(&WorldConfig::new(6), PilgrimTracer::with_defaults, move |env| body(env));
    let original = tracers[0].take_output().trace.unwrap();
    let replayed = replay(&original).expect("replay");
    assert_eq!(replayed.rank_lengths, original.rank_lengths);
    assert_eq!(replayed.decode_all_ranks(), original.decode_all_ranks());
}

#[test]
fn replay_sendrecv_replace_faithful() {
    let body: TestBody = std::sync::Arc::new(|env: &mut mpi_sim::Env| {
        use mpi_sim::datatype::BasicType;
        let me = env.world_rank();
        let n = env.world_size();
        let world = env.comm_world();
        let dt = env.basic(BasicType::LongLong);
        let buf = env.malloc(8);
        for _ in 0..12 {
            let right = ((me + 1) % n) as i32;
            let left = ((me + n - 1) % n) as i32;
            env.sendrecv_replace(buf, 1, dt, right, 0, left, 0, world);
        }
    });
    let mut tracers =
        World::run(&WorldConfig::new(5), PilgrimTracer::with_defaults, move |env| body(env));
    let original = tracers[0].take_output().trace.unwrap();
    let replayed = replay(&original).expect("replay");
    assert_eq!(replayed.decode_all_ranks(), original.decode_all_ranks());
}

/// A CRC-valid container in which rank `r` issues the raw signatures
/// `ranks[r]`: bytes some writer produced, not a world's record.
fn container(ranks: &[Vec<Vec<u8>>]) -> GlobalTrace {
    let mut cst = Cst::new();
    let mut grammar = Grammar::new();
    for sig in ranks.iter().flatten() {
        grammar.push(cst.observe(sig, 1));
    }
    let trace = GlobalTrace {
        nranks: ranks.len(),
        encoder_cfg: EncoderConfig::default(),
        cst,
        grammar: grammar.to_flat(),
        rank_lengths: ranks.iter().map(|calls| calls.len() as u64).collect(),
        unique_grammars: 1,
        duration_grammars: vec![],
        interval_grammars: vec![],
        duration_rank_map: vec![],
        interval_rank_map: vec![],
        completeness: TraceCompleteness::complete(),
        nondet: None,
    };
    GlobalTrace::decode_container(&write_container(&trace)).expect("a CRC-valid container")
}

/// Both replays of `trace` fail at `(rank, call_index)`; returns the
/// undirected replay's divergence.
fn assert_diverges_at(trace: &GlobalTrace, site: (usize, u64)) -> Divergence {
    let d = replay(trace).expect_err("a call the replay cannot follow");
    assert_eq!((d.rank, d.call_index), site, "{d}");
    match replay_strict(trace) {
        StrictReplay::Diverged(strict) => assert_eq!(strict, d),
        other => panic!("strict replay must diverge at {site:?}: {other:?}"),
    }
    d
}

/// `MPI_Comm_rank(7)`: a well-formed signature whose argument is not the
/// communicator the function takes.
fn comm_rank_of_an_int() -> Vec<u8> {
    let mut w = SigWriter::new(FuncId::CommRank.id());
    w.int(7);
    w.into_bytes()
}

#[test]
fn a_call_the_replay_cannot_follow_is_a_divergence_not_a_panic() {
    let d = assert_diverges_at(&container(&[vec![comm_rank_of_an_int()]]), (0, 0));
    assert_eq!(
        (d.expected.as_str(), d.got.as_str()),
        ("MPI_Comm_rank: Comm at argument 0", "Int(7)")
    );
    let d = assert_diverges_at(&container(&[vec![SigWriter::new(999).into_bytes()]]), (0, 0));
    assert_eq!(d.got, "function id 999");
}

/// `MPI_Recv` / `MPI_Irecv` of one element with tag 5 from `src`
/// (`-1` is `MPI_ANY_SOURCE`), as rank 0 records it.
fn recv_from(func: FuncId, src: i32) -> Vec<u8> {
    let cfg = EncoderConfig::default();
    let mut w = SigWriter::new(func.id());
    w.ptr(0, 0, &cfg);
    w.int(1);
    w.datatype(2);
    w.rank(src, 0, &cfg);
    w.msg_tag(5, 0, &cfg);
    w.comm(0);
    if func == FuncId::Irecv {
        w.request(0);
    }
    w.into_bytes()
}

/// `assert_diverges_at`, failing if the two replays have not returned
/// within a minute.
fn assert_diverges_in_time(trace: GlobalTrace, site: (usize, u64)) {
    let (done, returned) = std::sync::mpsc::channel();
    let replays = std::thread::spawn(move || {
        assert_diverges_at(&trace, site);
        done.send(()).ok();
    });
    match returned.recv_timeout(std::time::Duration::from_secs(60)) {
        Ok(()) => {}
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("replay still running after 60 s: a peer of the halted rank hangs")
        }
        Err(_) => std::panic::resume_unwind(replays.join().expect_err("the replays panicked")),
    }
}

#[test]
fn a_malformed_call_ends_every_peer_waiting_on_it() {
    let cfg = EncoderConfig::default();
    let mut waitany = SigWriter::new(FuncId::Waitany.id());
    waitany.int(1);
    waitany.request_arr([Some(0)]);
    waitany.int(0);
    waitany.status(1, 5, 0, &cfg);
    // Rank 0 waits for a message rank 1 never sends: rank 1 halts at its
    // first call, and rank 0 unwinds whether it waits on rank 1 by name
    // or on any source, blocking or through a request.
    for waits in [
        vec![recv_from(FuncId::Recv, 1)],
        vec![recv_from(FuncId::Recv, -1)],
        vec![recv_from(FuncId::Irecv, -1), waitany.bytes().to_vec()],
    ] {
        assert_diverges_in_time(container(&[waits, vec![comm_rank_of_an_int()]]), (1, 0));
    }
}

/// A 2-rank ring recorded with its nondeterminism log.
fn recorded_ring() -> &'static GlobalTrace {
    static RING: OnceLock<GlobalTrace> = OnceLock::new();
    RING.get_or_init(|| {
        let body = mpi_workloads_body("ring", 3);
        pilgrim::record(2, PilgrimConfig::new(), move |env| body(env)).expect("rank 0 trace")
    })
}

/// Offsets at which a prefix of `sig` decodes: the end of the function id,
/// then the end of each argument in turn.
fn arg_ends(sig: &[u8]) -> Vec<usize> {
    (1..=sig.len()).filter(|&k| decode_signature(&sig[..k]).is_some()).collect()
}

/// One argument's bytes, as a writer puts it in a signature.
fn arg_bytes(write: impl FnOnce(&mut SigWriter)) -> Vec<u8> {
    let mut w = SigWriter::new(0);
    write(&mut w);
    w.bytes()[1..].to_vec()
}

/// `sig` with one shape mutation: `op` 0 swaps the kind of an argument,
/// 1 drops one, 2 appends one, 3 names a function id past the table, 4
/// names a communicator, group or datatype no call created. `None` when
/// the signature has no argument the mutation applies to.
fn mutate(sig: &[u8], op: u8, pos: usize) -> Option<Vec<u8>> {
    let args = decode_signature(sig)?.args;
    let ends = arg_ends(sig);
    let splice = |at: usize, with: &[u8]| [&sig[..ends[at]], with, &sig[ends[at + 1]..]].concat();
    let unknown = 1 << 40;
    let pick = |want: fn(&EncodedArg) -> bool| {
        (0..args.len()).map(|k| (pos + k) % args.len()).find(|&k| want(&args[k]))
    };
    match op {
        0 => {
            let at = pick(|_| true)?;
            let int = matches!(args[at], EncodedArg::Int(_));
            Some(splice(at, &arg_bytes(|w| if int { w.comm(0) } else { w.int(7) })))
        }
        1 => Some(splice(pick(|_| true)?, &[])),
        2 => Some([sig, &arg_bytes(|w| w.int(7))].concat()),
        3 => {
            let mut out = Vec::new();
            pilgrim_sequitur::write_varint(&mut out, (FuncId::ALL.len() + pos) as u64);
            Some([&out, &sig[ends[0]..]].concat())
        }
        _ => {
            let at = pick(|a| {
                matches!(a, EncodedArg::Comm(_) | EncodedArg::Group(_) | EncodedArg::Datatype(_))
            })?;
            Some(splice(
                at,
                &arg_bytes(|w| match args[at] {
                    EncodedArg::Comm(_) => w.comm(unknown),
                    EncodedArg::Group(_) => w.group(unknown),
                    _ => w.datatype(unknown),
                }),
            ))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // One CST entry of a recorded ring replaced by a shape mutation and
    // re-containered: neither replay panics, and a replay that fails
    // names a call whose terminal is the mutated entry.
    #[test]
    fn a_shape_mutated_entry_never_panics_a_replay(pick in 0usize..64, op in 0u8..5, pos in 0usize..16) {
        let ring = recorded_ring();
        let terms = ring.cst.len() as u32;
        let first = (0..terms).map(|k| (pick as u32 + k) % terms).find_map(|t| {
            mutate(ring.cst.signature(t), op, pos).map(|sig| (t, sig))
        });
        let Some((target, sig)) = first else { return Ok(()) };
        // A mutation that lands on another entry would renumber the table.
        if ring.cst.lookup(&sig).is_some() {
            return Ok(());
        }
        let mut cst = Cst::new();
        for (t, old, stats) in ring.cst.iter() {
            cst.intern(if t == target { &sig } else { old }, stats);
        }
        let bytes = write_container(&GlobalTrace { cst, ..ring.clone() });
        let trace = GlobalTrace::decode_container(&bytes).expect("a CRC-valid container");
        let named = |d: &Divergence| trace.decode_rank(d.rank).get(d.call_index as usize).copied();
        if let Err(d) = replay(&trace) {
            prop_assert_eq!(named(&d), Some(target), "replay named {}", d);
        }
        if let StrictReplay::Diverged(d) = replay_strict(&trace) {
            prop_assert_eq!(named(&d), Some(target), "strict replay named {}", d);
        }
    }
}
