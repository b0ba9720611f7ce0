//! Failure injection: corrupted and truncated trace files must be
//! rejected cleanly (no panics), decoding must be resilient, and traces
//! surviving a rank kill must be deterministic functions of the fault
//! plan.
#![recursion_limit = "1024"]

use mpi_sim::datatype::BasicType;
use mpi_sim::{FaultPlan, World, WorldConfig};
use pilgrim::{write_container, DecodeError, GlobalTrace, PilgrimConfig, PilgrimTracer};
use proptest::prelude::*;

fn sample_trace_bytes() -> Vec<u8> {
    let mut tracers = World::run(&WorldConfig::new(3), PilgrimTracer::with_defaults, |env| {
        let world = env.comm_world();
        let dt = env.basic(BasicType::Double);
        let buf = env.malloc(64);
        for _ in 0..20 {
            env.bcast(buf, 8, dt, 0, world);
            env.barrier(world);
        }
    });
    write_container(&tracers[0].take_output().trace.unwrap())
}

/// Container bytes of a 4-rank bcast+barrier run where `victim` (never
/// rank 0, which holds the trace) is killed after `kill_at` traced calls.
fn degraded_trace_bytes(
    seed: u64,
    victim: usize,
    kill_at: u64,
    checkpoint: Option<u64>,
) -> Vec<u8> {
    let mut wcfg = WorldConfig::new(4);
    wcfg.faults = Some(FaultPlan::new(seed).kill(victim, kill_at));
    let mut tcfg = PilgrimConfig::new().merge_timeout_ms(400);
    if let Some(iv) = checkpoint {
        tcfg = tcfg.checkpoint_interval(iv);
    }
    let mut out = World::run_faulty(
        &wcfg,
        |rank| PilgrimTracer::new(rank, tcfg),
        |env| {
            let world = env.comm_world();
            let dt = env.basic(BasicType::Double);
            let buf = env.malloc(64);
            for _ in 0..15 {
                env.bcast(buf, 8, dt, 0, world);
                env.barrier(world);
            }
        },
    );
    write_container(&out.tracers[0].as_mut().expect("rank 0 survives").take_output().trace.unwrap())
}

#[test]
fn truncated_traces_are_rejected_with_errors_not_panics() {
    let bytes = sample_trace_bytes();
    // Every strict prefix must return a decode error — never panic, and
    // never succeed (the format has no self-delimiting prefix).
    for cut in 0..bytes.len() {
        let result = std::panic::catch_unwind(|| GlobalTrace::decode_container(&bytes[..cut]));
        let parsed = result.expect("decode must not panic on truncation");
        assert!(parsed.is_err(), "truncation to {cut}/{} bytes must not decode", bytes.len());
    }
}

#[test]
fn empty_input_reports_truncation_at_offset_zero() {
    assert_eq!(
        GlobalTrace::decode_container(&[]).unwrap_err(),
        DecodeError::Truncated { what: "container header", offset: 0 }
    );
}

#[test]
fn trailing_bytes_are_reported() {
    let mut bytes = sample_trace_bytes();
    let len = bytes.len();
    bytes.extend_from_slice(&[0, 0, 0]);
    assert_eq!(
        GlobalTrace::decode_container(&bytes).unwrap_err(),
        DecodeError::TrailingBytes { consumed: len, len: len + 3 }
    );
}

#[test]
fn bitflips_do_not_panic_decoding() {
    let bytes = sample_trace_bytes();
    for i in (0..bytes.len()).step_by(7) {
        for bit in [0u8, 3, 7] {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 1 << bit;
            let result =
                std::panic::catch_unwind(|| GlobalTrace::decode_container(&corrupted).is_err());
            match result {
                Ok(rejected) => assert!(rejected, "bitflip at byte {i} bit {bit} decoded"),
                Err(_) => panic!("decode panicked on bitflip at byte {i} bit {bit}"),
            }
        }
    }
}

#[test]
fn garbage_input_is_rejected() {
    assert!(GlobalTrace::decode_container(&[]).is_err());
    let garbage: Vec<u8> = (0..200u32).map(|i| (i * 37 % 251) as u8).collect();
    assert!(GlobalTrace::decode_container(&garbage).is_err());
}

#[test]
fn decode_signature_handles_arbitrary_bytes() {
    // decode_signature over random byte soup: Some or None, never panic.
    let mut state = 0x1234_5678u64;
    for _ in 0..500 {
        let len = (state % 40) as usize;
        let mut sig = Vec::with_capacity(len);
        for _ in 0..len {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            sig.push((state >> 33) as u8);
        }
        let _ = pilgrim::decode_signature(&sig);
    }
}

#[test]
fn export_of_roundtripped_trace_works() {
    let bytes = sample_trace_bytes();
    let trace = GlobalTrace::decode_container(&bytes).unwrap();
    let text = pilgrim::to_text(&trace).expect("every signature decodes");
    assert!(text.contains("MPI_Bcast"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Same seed, same kill -> byte-identical surviving trace. Every part
    // of the degraded path (bail cascade, bounded gathers, checkpoint
    // recovery, manifest) must be deterministic.
    #[test]
    fn seeded_kills_produce_identical_surviving_traces(
        seed in any::<u64>(),
        victim in 1usize..4,
        kill_at in 1u64..28,
        with_checkpoint in any::<bool>(),
        interval in 2u64..8,
    ) {
        let checkpoint = with_checkpoint.then_some(interval);
        let a = degraded_trace_bytes(seed, victim, kill_at, checkpoint);
        let b = degraded_trace_bytes(seed, victim, kill_at, checkpoint);
        prop_assert_eq!(a, b);
    }

    // A degraded trace's container keeps the no-self-delimiting-prefix
    // property: every strict prefix is rejected with an error, never a
    // panic and never a bogus success.
    #[test]
    fn truncated_degraded_traces_are_rejected(
        victim in 1usize..4,
        kill_at in 1u64..28,
    ) {
        let bytes = degraded_trace_bytes(0xBAD5EED, victim, kill_at, Some(4));
        let decoded = GlobalTrace::decode_container(&bytes).unwrap();
        prop_assert!(!decoded.completeness.is_complete(), "kill must degrade the trace");
        prop_assert_eq!(decoded.validate(), Vec::<String>::new());
        for cut in 0..bytes.len() {
            let result = std::panic::catch_unwind(|| GlobalTrace::decode_container(&bytes[..cut]));
            let parsed = result.expect("decode must not panic on truncation");
            prop_assert!(parsed.is_err(), "truncation to {}/{} bytes decoded", cut, bytes.len());
        }
    }
}
