//! Pins every call record the simulator emits: function, arguments and
//! the virtual entry/exit timestamps. A deterministic 2-rank script issues
//! every [`FuncId`] at least once (no wildcard sources; every flag-bearing
//! call runs after a barrier that fixes its outcome), a recording tracer
//! captures `(func, args, t0, t1)`, and the listing is compared per MPI
//! function, then as a whole, with digests generated before the wrapper
//! prologue/epilogue of `Env` was unified. Never edit a literal to make a
//! refactor pass: a diff here is a moved virtual timestamp or a changed
//! record.

use std::collections::BTreeMap;

use mpi_sim::datatype::BasicType;
use mpi_sim::{
    CallRec, Env, FuncId, ReduceOp, TraceCtx, Tracer, World, WorldConfig, COLOR_UNDEFINED,
    PROC_NULL,
};

/// Keeps one line per call: `name args t0 t1`.
#[derive(Default)]
struct Recorder(Vec<(FuncId, String)>);

impl Tracer for Recorder {
    fn on_call(&mut self, _ctx: &TraceCtx<'_>, rec: &CallRec, t0: u64, t1: u64) {
        self.0.push((rec.func, format!("{} {:?} {t0} {t1}", rec.func.name(), rec.args)));
    }
}

fn script(env: &mut Env) {
    let w = env.comm_world();
    let me = env.comm_rank(w);
    let n = env.comm_size(w);
    assert_eq!(n, 2);
    let peer = 1 - me as i32;
    let long = env.basic(BasicType::LongLong);
    let a = env.malloc(64);
    let b = env.malloc(64);
    env.heap_write_u64s(a, &(0..8).map(|i| me as u64 * 100 + i).collect::<Vec<_>>());

    // Blocking point-to-point in every send mode, plus the PROC_NULL arms.
    if me == 0 {
        env.send(a, 1, long, 1, 1, w);
        env.bsend(a, 1, long, 1, 2, w);
        env.ssend(a, 1, long, 1, 3, w);
        env.rsend(a, 1, long, 1, 4, w);
        env.send(a, 3, long, 1, 8, w);
    } else {
        for tag in 1..=4 {
            env.recv(b, 1, long, 0, tag, w);
        }
        env.probe(0, 8, w);
        env.recv(b, 3, long, 0, 8, w);
    }
    env.recv(b, 1, long, PROC_NULL, 0, w);
    env.sendrecv(a, 2, long, peer, 5, b, 2, long, peer, 5, w);
    env.sendrecv_replace(b, 2, long, peer, 6, peer, 6, w);
    env.sendrecv(a, 1, long, PROC_NULL, 7, b, 1, long, PROC_NULL, 7, w);
    env.sendrecv_replace(b, 1, long, PROC_NULL, 7, PROC_NULL, 7, w);

    // Nonblocking sends and receives, completed by wait and waitall.
    let mut sends = vec![
        env.isend(a, 1, long, peer, 10, w),
        env.ibsend(a, 1, long, peer, 11, w),
        env.issend(a, 1, long, peer, 12, w),
        env.irsend(a, 1, long, peer, 13, w),
    ];
    let mut recvs: Vec<_> =
        (0..4).map(|i| env.irecv(b + 8 * i, 1, long, peer, 10 + i as i32, w)).collect();
    env.wait(&mut sends[0]);
    env.waitall(&mut sends);
    env.waitall(&mut recvs);
    let mut null_recv = env.irecv(b, 1, long, PROC_NULL, 0, w);
    env.wait(&mut null_recv);
    let mut freed = env.isend(a, 1, long, PROC_NULL, 0, w);
    env.request_free(&mut freed);

    // Iprobe: the hit was sent before the barrier, the miss is never sent.
    if me == 0 {
        env.send(a, 1, long, 1, 20, w);
    }
    env.barrier(w);
    if me == 1 {
        env.iprobe(0, 20, w);
        env.iprobe(0, 21, w);
        env.recv(b, 1, long, 0, 20, w);
    }

    // Test: one message sent before the barrier, one only after the test.
    let mut hit = env.irecv(b, 1, long, peer, 30, w);
    let mut miss = env.irecv(b + 8, 1, long, peer, 31, w);
    env.send(a, 1, long, peer, 30, w);
    env.barrier(w);
    env.test(&mut hit);
    env.test(&mut miss);
    env.test(&mut hit);
    env.barrier(w);
    env.send(a, 1, long, peer, 31, w);
    env.wait(&mut miss);

    // Testany / testsome / testall over a set delivered before the barrier,
    // then over the all-null set it leaves behind.
    let mut set: Vec<_> =
        (0..3).map(|i| env.irecv(b + 8 * i, 1, long, peer, 40 + i as i32, w)).collect();
    for i in 0..3 {
        env.send(a, 1, long, peer, 40 + i, w);
    }
    env.barrier(w);
    env.testany(&mut set);
    env.testsome(&mut set);
    env.testall(&mut set);
    env.testany(&mut set);
    env.testsome(&mut set);

    // Testall: a successful one, then one whose second message comes later.
    let mut all: Vec<_> =
        (0..2).map(|i| env.irecv(b + 8 * i, 1, long, peer, 50 + i as i32, w)).collect();
    let mut part: Vec<_> =
        (0..2).map(|i| env.irecv(b + 16 + 8 * i, 1, long, peer, 52 + i as i32, w)).collect();
    for tag in 50..53 {
        env.send(a, 1, long, peer, tag, w);
    }
    env.barrier(w);
    env.testall(&mut all);
    env.testall(&mut part);
    env.barrier(w);
    env.send(a, 1, long, peer, 53, w);
    env.waitall(&mut part);

    // Waitany / waitsome over a delivered set, then over the null set.
    let mut set: Vec<_> =
        (0..3).map(|i| env.irecv(b + 8 * i, 1, long, peer, 60 + i as i32, w)).collect();
    for i in 0..3 {
        env.send(a, 1, long, peer, 60 + i, w);
    }
    env.barrier(w);
    env.waitany(&mut set);
    env.waitsome(&mut set);
    env.waitany(&mut set);
    env.waitsome(&mut set);

    // Persistent requests: every init, startall, start, completion, free.
    let persistent: Vec<_> = if me == 0 {
        vec![
            env.send_init(a, 1, long, 1, 80, w),
            env.bsend_init(a + 8, 1, long, 1, 81, w),
            env.ssend_init(a + 16, 1, long, 1, 82, w),
            env.rsend_init(a + 24, 1, long, 1, 83, w),
        ]
    } else {
        (0..4).map(|i| env.recv_init(b + 8 * i, 1, long, 0, 80 + i as i32, w)).collect()
    };
    env.startall(&persistent);
    let mut active = persistent.clone();
    env.waitall(&mut active);
    env.start(persistent[0]);
    env.wait(&mut active[0]);
    env.start(persistent[1]);
    env.barrier(w);
    env.test(&mut active[1]);
    for mut r in persistent {
        env.request_free(&mut r);
    }

    // Collectives, blocking and nonblocking.
    env.bcast(a, 2, long, 0, w);
    env.reduce(a, b, 2, long, ReduceOp::Sum, 0, w);
    env.allreduce(a, b, 2, long, ReduceOp::Max, w);
    env.gather(a, 1, long, b, 1, long, 1, w);
    env.gatherv(a, 1, long, b, &[1, 1], &[0, 1], long, 0, w);
    env.scatter(a, 1, long, b, 1, long, 0, w);
    env.scatterv(a, &[1, 1], &[0, 1], long, b, 1, long, 1, w);
    env.allgather(a, 1, long, b, 1, long, w);
    env.allgatherv(a, 1, long, b, &[1, 1], &[1, 0], long, w);
    env.alltoall(a, 1, long, b, 1, long, w);
    env.alltoallv(a, &[1, 1], &[0, 1], long, b, &[1, 1], &[0, 1], long, w);
    env.reduce_scatter_block(a, b, 1, long, ReduceOp::Sum, w);
    env.scan(a, b, 1, long, ReduceOp::Sum, w);
    env.exscan(a, b, 1, long, ReduceOp::Sum, w);
    let mut ib = env.ibarrier(w);
    let mut ia = env.iallreduce(a, b, 1, long, ReduceOp::Min, w);
    env.wait(&mut ib);
    env.wait(&mut ia);

    // Communicator and group management.
    env.comm_set_name(w, "world");
    let dup = env.comm_dup(w);
    let (idup, mut idup_req) = env.comm_idup(w);
    env.wait(&mut idup_req);
    let half = env.comm_split(w, me as i32, 0).expect("own color");
    let undefined = env.comm_split(w, if me == 0 { 0 } else { COLOR_UNDEFINED }, 0);
    let g = env.comm_group(w);
    let g0 = env.group_incl(g, &[0]);
    let created = env.comm_create(w, g0);
    let inter = env.intercomm_create(half, 0, w, peer, 99);
    let merged = env.intercomm_merge(inter, me == 1);
    env.barrier(merged);
    for c in [Some(merged), Some(inter), created, undefined, Some(half), Some(idup), Some(dup)]
        .into_iter()
        .flatten()
    {
        env.comm_free(c);
    }
    env.group_free(g0);
    env.group_free(g);

    // Cartesian topology.
    let dims = env.dims_create(2, 1);
    let cart = env.cart_create(w, &dims, &[true], false).expect("in grid");
    env.cart_rank(cart, &[me]);
    env.cart_coords(cart, me);
    env.cart_shift(cart, 0, 1);
    env.comm_free(cart);

    // Derived datatypes, one of them used for a transfer.
    let c = env.type_contiguous(2, long);
    let v = env.type_vector(2, 1, 2, long);
    let ix = env.type_indexed(&[1, 1], &[0, 2], long);
    let st = env.type_create_struct(&[1, 1], &[0, 16], &[long, long]);
    for t in [c, v, ix, st] {
        env.type_commit(t);
    }
    env.sendrecv(a, 1, v, peer, 90, b, 1, v, peer, 90, w);
    for t in [c, v, ix, st] {
        env.type_free(t);
    }
}

fn fnv1a(lines: impl Iterator<Item = String>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for line in lines {
        for b in line.bytes().chain([b'\n']) {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Per MPI function: how many records both ranks emitted and the digest of
/// their lines, rank 0's first.
const PINS: &[(&str, usize, u64)] = &[
    ("MPI_Init", 2, 0xfdebc825ea27b4a8),
    ("MPI_Finalize", 2, 0x2097968f9acab9f2),
    ("MPI_Comm_rank", 2, 0xdf3d5633e6b53b92),
    ("MPI_Comm_size", 2, 0xc06f13f9dbc25077),
    ("MPI_Comm_dup", 2, 0xcb1813ca72b071a5),
    ("MPI_Comm_split", 4, 0xace4fe654bd101fa),
    ("MPI_Comm_create", 2, 0x2dc716a90ef624d3),
    ("MPI_Comm_idup", 2, 0x8278ab522b1fe0a5),
    ("MPI_Comm_free", 14, 0xd4fe1cc64ac109b6),
    ("MPI_Comm_group", 2, 0x2281190578f30064),
    ("MPI_Comm_set_name", 2, 0x88173f62a56a002f),
    ("MPI_Intercomm_create", 2, 0x297666eb92acc9c1),
    ("MPI_Intercomm_merge", 2, 0xcd00fc2e3e596947),
    ("MPI_Group_incl", 2, 0x34549cbd44d67dd2),
    ("MPI_Group_free", 4, 0x7c569578de21cd8a),
    ("MPI_Send", 27, 0x49ae98243607c6f0),
    ("MPI_Bsend", 1, 0x9e76d403750327fa),
    ("MPI_Ssend", 1, 0xa1588b7a87b1f2c8),
    ("MPI_Rsend", 1, 0x2df8115e711b9f5a),
    ("MPI_Recv", 8, 0xc5bf2ff66463f3db),
    ("MPI_Isend", 4, 0x1697ab9fce14a792),
    ("MPI_Ibsend", 2, 0xfc2b6e2ecde50d72),
    ("MPI_Issend", 2, 0x6d00856f637037a8),
    ("MPI_Irsend", 2, 0xf29156f822cdc261),
    ("MPI_Irecv", 34, 0xd87462ff1348d4ae),
    ("MPI_Sendrecv", 6, 0xe53ebdc47bcdf27a),
    ("MPI_Probe", 1, 0xb7f29153ac15e736),
    ("MPI_Iprobe", 2, 0x99585062db8872fc),
    ("MPI_Wait", 14, 0x2ba8ad865d1a262b),
    ("MPI_Waitall", 8, 0x867b0ba3af336273),
    ("MPI_Waitany", 4, 0xf546fb288d6646b5),
    ("MPI_Waitsome", 4, 0xbcfe3254430563ae),
    ("MPI_Test", 8, 0x52916488db4b50b2),
    ("MPI_Testall", 6, 0x38c8ef13d4500227),
    ("MPI_Testany", 4, 0x4f456de0f292e611),
    ("MPI_Testsome", 4, 0x43e409b1122ddf67),
    ("MPI_Request_free", 10, 0xfc6e1abc173bfcb0),
    ("MPI_Barrier", 18, 0x66b69de7d48132c2),
    ("MPI_Bcast", 2, 0x34c83a1c63780d44),
    ("MPI_Reduce", 2, 0xc7d527d65902cc0f),
    ("MPI_Allreduce", 2, 0xcbd1e41919cfe3ba),
    ("MPI_Gather", 2, 0xa1ca69ec6d09cd4c),
    ("MPI_Gatherv", 2, 0xf4c8bf83f9739b05),
    ("MPI_Scatter", 2, 0xec7bea12204e15c1),
    ("MPI_Scatterv", 2, 0x30764f78abd0bfd6),
    ("MPI_Allgather", 2, 0xf79de5bf55089c54),
    ("MPI_Allgatherv", 2, 0xbb51e99c29f09525),
    ("MPI_Alltoall", 2, 0x02aaccc08accd8a4),
    ("MPI_Alltoallv", 2, 0x873eadd3c20888f4),
    ("MPI_Reduce_scatter_block", 2, 0xd1f499647ff6b78e),
    ("MPI_Scan", 2, 0xd66289b76d859257),
    ("MPI_Exscan", 2, 0x410e611a95aa3417),
    ("MPI_Ibarrier", 2, 0xdd70107d60702de9),
    ("MPI_Iallreduce", 2, 0xef807116e3a96cd4),
    ("MPI_Type_contiguous", 2, 0x9de67dbdcfd997fc),
    ("MPI_Type_vector", 2, 0xda4dcaf252cdba65),
    ("MPI_Type_indexed", 2, 0x0d6f5de13abfe92f),
    ("MPI_Type_create_struct", 2, 0x8caba2e081e46039),
    ("MPI_Type_commit", 8, 0x625b4e4ec3156513),
    ("MPI_Type_free", 8, 0xc01f85dfbcb6a844),
    ("MPI_Send_init", 1, 0x416d25732a6341fb),
    ("MPI_Bsend_init", 1, 0x9f96ba52333ac93a),
    ("MPI_Ssend_init", 1, 0x099a0b36911682fe),
    ("MPI_Rsend_init", 1, 0x2e47b17655ad1d9f),
    ("MPI_Recv_init", 4, 0x1d3b7ced82c6de6e),
    ("MPI_Start", 4, 0xc873122360fc07ad),
    ("MPI_Startall", 2, 0x56470363317c3031),
    ("MPI_Cart_create", 2, 0x0d1e70eea8756ffa),
    ("MPI_Cart_rank", 2, 0xbc29919c0ce9aa80),
    ("MPI_Cart_coords", 2, 0x1808773a5493bcc4),
    ("MPI_Cart_shift", 2, 0x74d6e2649b9c0261),
    ("MPI_Dims_create", 2, 0xd9ad9a8f066a9f84),
    ("MPI_Sendrecv_replace", 4, 0x3f18ad6015b631d4),
];

/// Digest of the whole listing in emission order, rank 0 then rank 1.
const LISTING: u64 = 0x8bacd3f7e6519b3d;

#[test]
fn every_call_record_and_timestamp_is_pinned() {
    let tracers = World::run(&WorldConfig::new(2), |_| Recorder::default(), script);
    let listing: Vec<(usize, FuncId, String)> = tracers
        .into_iter()
        .enumerate()
        .flat_map(|(rank, t)| t.0.into_iter().map(move |(f, line)| (rank, f, line)))
        .collect();

    let mut per_func: BTreeMap<FuncId, Vec<String>> = BTreeMap::new();
    for (rank, f, line) in &listing {
        per_func.entry(*f).or_default().push(format!("{rank} {line}"));
    }
    let missing: Vec<&str> =
        FuncId::ALL.iter().filter(|f| !per_func.contains_key(f)).map(|f| f.name()).collect();
    assert!(missing.is_empty(), "the script never issues {missing:?}");

    let got: Vec<(&str, usize, u64)> = per_func
        .iter()
        .map(|(f, lines)| (f.name(), lines.len(), fnv1a(lines.iter().cloned())))
        .collect();
    let table: String =
        got.iter().map(|(name, n, h)| format!("    (\"{name}\", {n}, {h:#018x}),\n")).collect();
    let moved: Vec<&str> = got
        .iter()
        .zip(PINS.iter().map(Some).chain(std::iter::repeat(None)))
        .filter(|(g, p)| p.is_none_or(|p| p != *g))
        .map(|(g, _)| g.0)
        .collect();
    assert!(
        moved.is_empty() && got.len() == PINS.len(),
        "records of {moved:?} changed; the script now produces\n{table}"
    );
    let whole = fnv1a(listing.iter().map(|(rank, _, line)| format!("{rank} {line}")));
    assert_eq!(whole, LISTING, "the emission order changed: listing digest {whole:#018x}");
}
