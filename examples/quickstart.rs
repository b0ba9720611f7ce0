//! Quickstart: trace a small MPI program with Pilgrim, inspect the
//! compressed trace, decode it, and verify it is lossless.
//!
//! Run with: `cargo run -p pilgrim-examples --bin quickstart`

use mpi_sim::datatype::BasicType;
use mpi_sim::types::ReduceOp;
use mpi_sim::{World, WorldConfig};
use pilgrim::{decode_rank_calls, verify_lossless, write_container, PilgrimConfig, PilgrimTracer};

fn main() {
    // 1. Run a 4-rank MPI program with the Pilgrim tracer attached.
    //    (capture_reference keeps the raw records so we can verify.)
    let cfg = PilgrimConfig::new().capture_reference(true);
    let mut tracers = World::run(
        &WorldConfig::new(4),
        |rank| PilgrimTracer::new(rank, cfg),
        |env| {
            let world = env.comm_world();
            let dt = env.basic(BasicType::Double);
            let buf = env.malloc(80);
            let sum = env.malloc(8);
            for _ in 0..1000 {
                env.bcast(buf, 10, dt, 0, world);
                env.compute(5_000);
                env.allreduce(sum, sum, 1, dt, ReduceOp::Sum, world);
            }
        },
    );

    // 2. Rank 0 holds the merged trace after MPI_Finalize.
    let trace = tracers[0].take_output().trace.expect("rank 0 trace");
    let report = trace.size_report();
    println!("ranks:            {}", trace.nranks);
    println!("MPI calls traced: {}", trace.rank_lengths.iter().sum::<u64>());
    println!("unique grammars:  {}", trace.unique_grammars);
    println!("CST entries:      {}", trace.cst.len());
    println!(
        "trace size:       {} bytes  (CST {} + grammar {} + meta {})",
        trace.size_bytes(),
        report.cst_bytes,
        report.grammar_bytes,
        report.meta_bytes()
    );

    // 3. Decode rank 2's calls back out of the compressed trace.
    let calls = decode_rank_calls(&trace, 2).expect("rank 2 decodes");
    println!("\nfirst three decoded calls of rank 2:");
    for call in calls.iter().take(3) {
        println!("  func id {} with {} recorded arguments", call.func, call.args.len());
    }

    // 4. Verify losslessness against the captured reference.
    let refs: Vec<_> = tracers.iter().map(|t| t.captured().to_vec()).collect();
    let v = verify_lossless(&trace, &refs).expect("trace is lossless");
    println!("\nverified {} calls / {} arguments decode exactly", v.calls_checked, v.args_checked);

    // 5. The trace round-trips through its file format.
    let bytes = write_container(&trace);
    let back = pilgrim::GlobalTrace::decode_container(&bytes).unwrap();
    assert_eq!(back.decode_all_ranks(), trace.decode_all_ranks());
    println!("PGC1 container round-trips at {} bytes", bytes.len());

    // 6. Query the compressed trace without expanding it: indexed random
    //    access and a grammar-aware communication matrix.
    let index = pilgrim::TraceIndex::build(&trace);
    let call_500 = index.call_at(&trace, 2, 500).expect("rank 2 has 3000 calls");
    println!("\nrank 2 call #500 is func id {} (via O(depth) random access)", call_500.func);
    let engine = pilgrim::QueryEngine::new(&trace, &index);
    let matrix = engine.comm_matrix();
    println!("p2p messages sent: {} (this workload is all collectives)", matrix.total_sends());
}
