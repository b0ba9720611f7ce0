//! End-to-end exercises of the record/replay engine (`pilgrim::rr`):
//! recording the nondeterminism side-channel, bit-deterministic directed
//! replay, strict-mode divergence detection, and grammar-aware
//! minimization — all over the wildcard-heavy `master_worker` workload.

use mpi_sim::{FaultPlan, WorldConfig};
use pilgrim::{
    first_divergence, minimize, record, record_faulty, replay_directed, replay_strict,
    write_container, GlobalTrace, MinimizeError, NondetEvent, PilgrimConfig, StrictReplay,
};

fn farm_body(iters: usize) -> impl Fn(&mut mpi_sim::Env) + Send + Sync + 'static {
    move |env: &mut mpi_sim::Env| mpi_workloads::master_worker::master_worker(env, iters)
}

fn record_farm(nranks: usize, iters: usize, seed: u64) -> GlobalTrace {
    let world = WorldConfig::new(nranks).seed(seed);
    record_faulty(&world, PilgrimConfig::new(), farm_body(iters)).expect("rank 0 trace")
}

/// Recording the farm produces a nondet log covering every flavor of
/// runtime choice: wildcard matches, waitany indices, testsome sets, and
/// iprobe outcomes.
#[test]
fn farm_records_all_event_kinds() {
    let trace = record_farm(4, 6, 0x5EED);
    let log = trace.nondet.as_ref().expect("nondet log attached");
    assert_eq!(log.ranks.len(), 4);
    assert!(!log.is_empty());
    let mut saw_match = false;
    let mut saw_anyof = false;
    let mut saw_someof = false;
    let mut saw_iprobe = false;
    let mut saw_flag = false;
    for rank in &log.ranks {
        for ev in rank.values() {
            match ev {
                NondetEvent::Match { .. } => saw_match = true,
                NondetEvent::AnyOf { .. } => saw_anyof = true,
                NondetEvent::SomeOf { .. } => saw_someof = true,
                NondetEvent::Iprobe { .. } => saw_iprobe = true,
                NondetEvent::Flag { .. } => saw_flag = true,
            }
        }
    }
    assert!(saw_match, "no wildcard matches recorded");
    assert!(saw_anyof, "no waitany completions recorded");
    assert!(saw_someof, "no testsome sets recorded");
    assert!(saw_iprobe, "no iprobe outcomes recorded");
    // The farm never calls Test/Testall, so bare flags are optional.
    let _ = saw_flag;
}

/// The recorded log must agree with the log derived from the trace's own
/// statuses — the pure oracle's ground truth on a faithful recording.
#[test]
fn recorded_log_matches_derived_log() {
    let trace = record_farm(4, 5, 7);
    let recorded = trace.nondet.as_ref().expect("nondet log");
    let derived = pilgrim::NondetLog::derive(&trace).expect("derive");
    assert_eq!(recorded, &derived);
}

/// The same agreement where comm rank is not world rank: persistent
/// requests on a split half, started, polled once with `MPI_Test` and
/// waited for. Recorder and deriver read the `Flag` off the same argument
/// of the same shape, each from its own data.
#[test]
fn recorded_log_matches_derived_log_on_a_subcommunicator() {
    let trace = record(4, PilgrimConfig::new(), |env| {
        let me = env.world_rank();
        let world = env.comm_world();
        let dt = env.basic(mpi_sim::datatype::BasicType::LongLong);
        let buf = env.malloc(8);
        let half = env.comm_split(world, (me / 2) as i32, me as i32).unwrap();
        let mut req = if me % 2 == 0 {
            env.send_init(buf, 1, dt, 1, 3, half)
        } else {
            env.recv_init(buf, 1, dt, 0, 3, half)
        };
        for _ in 0..5 {
            env.start(req);
            env.test(&mut req);
            env.wait(&mut req);
        }
        env.request_free(&mut req);
    })
    .expect("rank 0 trace");
    let recorded = trace.nondet.as_ref().expect("nondet log");
    let flags = recorded.ranks.iter().flat_map(|events| events.values());
    assert_eq!(flags.filter(|ev| matches!(ev, NondetEvent::Flag { .. })).count(), 4 * 5);
    let derived = pilgrim::NondetLog::derive(&trace).expect("derive");
    assert_eq!(recorded, &derived);
}

/// Strict replay of a faithful recording is deterministic, and replaying
/// the same recording twice yields byte-identical retrace containers.
#[test]
fn replay_is_bit_deterministic() {
    let trace = record_farm(4, 5, 42);
    let retrace1 = match replay_strict(&trace) {
        StrictReplay::Deterministic(t) => t,
        other => panic!("strict replay failed: {other:?}"),
    };
    let retrace2 = match replay_directed(&trace, PilgrimConfig::new()) {
        StrictReplay::Deterministic(t) => t,
        other => panic!("second replay failed: {other:?}"),
    };
    assert_eq!(
        write_container(&retrace1),
        write_container(&retrace2),
        "two replays of one recording must serialize identically"
    );
    assert!(first_divergence(&retrace1, &retrace2).is_none());
}

/// The retrace replays the recorded schedule, so its call stream matches
/// the original recording call-for-call.
#[test]
fn retrace_matches_recording() {
    let trace = record_farm(3, 8, 99);
    let retrace = match replay_strict(&trace) {
        StrictReplay::Deterministic(t) => t,
        other => panic!("strict replay failed: {other:?}"),
    };
    assert!(
        first_divergence(&trace, &retrace).is_none(),
        "retrace call stream drifted from the recording"
    );
}

/// Bit-determinism holds across world seeds (different schedules, hence
/// different logs — each must replay itself exactly).
#[test]
fn replay_deterministic_across_seeds() {
    for seed in [1u64, 2, 3, 0xDEAD] {
        let trace = record_farm(4, 4, seed);
        match replay_strict(&trace) {
            StrictReplay::Deterministic(_) => {}
            other => panic!("seed {seed}: strict replay failed: {other:?}"),
        }
    }
}

/// Mutates the first wildcard-match event of the log and returns where.
fn mutate_first_match(trace: &mut GlobalTrace) -> (usize, u64) {
    let log = trace.nondet.as_mut().expect("nondet log");
    for (rank, events) in log.ranks.iter_mut().enumerate() {
        for (&idx, ev) in events.iter_mut() {
            if let NondetEvent::Match { source, .. } = ev {
                *source += 1;
                return (rank, idx);
            }
        }
    }
    panic!("recording has no Match events to mutate");
}

/// A single mutated constant in the log is caught by strict replay, and
/// the reported divergence names the exact first mismatching
/// `(rank, call_index)` — found by the pure oracle, no execution needed.
#[test]
fn mutated_log_diverges_at_exact_call() {
    let mut trace = record_farm(4, 5, 11);
    let (rank, idx) = mutate_first_match(&mut trace);
    match replay_strict(&trace) {
        StrictReplay::Diverged(d) => {
            assert_eq!((d.rank, d.call_index), (rank, idx), "wrong divergence site: {d}");
            assert_ne!(d.expected, d.got);
        }
        other => panic!("mutated recording must diverge, got {other:?}"),
    }
}

/// Divergence reports pick the earliest `(call_index, rank)` when
/// several ranks disagree.
#[test]
fn divergence_reports_earliest_site() {
    let mut trace = record_farm(4, 5, 13);
    // Mutate *every* Match event; the report must still name the
    // globally earliest one.
    let mut earliest: Option<(u64, usize)> = None;
    {
        let log = trace.nondet.as_mut().expect("nondet log");
        for (rank, events) in log.ranks.iter_mut().enumerate() {
            for (&idx, ev) in events.iter_mut() {
                if let NondetEvent::Match { source, .. } = ev {
                    *source += 7;
                    let key = (idx, rank);
                    if earliest.is_none_or(|e| key < e) {
                        earliest = Some(key);
                    }
                }
            }
        }
    }
    let (idx, rank) = earliest.expect("no Match events");
    match replay_strict(&trace) {
        StrictReplay::Diverged(d) => {
            assert_eq!((d.call_index, d.rank), (idx, rank), "not the earliest site: {d}");
        }
        other => panic!("expected divergence, got {other:?}"),
    }
}

/// The PGND section survives a container round-trip: serialize, decode,
/// and the log (and its replay verdict) are unchanged.
#[test]
fn nondet_log_survives_container_roundtrip() {
    let trace = record_farm(3, 6, 21);
    let bytes = write_container(&trace);
    let back = GlobalTrace::decode_container(&bytes).expect("container decode");
    assert_eq!(trace.nondet, back.nondet, "PGND did not round-trip");
    match replay_strict(&back) {
        StrictReplay::Deterministic(_) => {}
        other => panic!("round-tripped recording must still replay: {other:?}"),
    }
}

/// Old-style containers (no PGND section) still decode, with
/// `nondet: None`.
#[test]
fn container_without_pgnd_decodes() {
    let mut trace = record_farm(3, 4, 5);
    trace.nondet = None;
    let bytes = write_container(&trace);
    let back = GlobalTrace::decode_container(&bytes).expect("decode without PGND");
    assert!(back.nondet.is_none());
}

/// Minimization shrinks a diverging recording by at least 10x in
/// expanded calls while preserving the exact divergence.
#[test]
fn minimize_shrinks_10x_preserving_divergence() {
    // Plenty of iterations: the reproducer needs only the prefix up to
    // the mutated call, so the tail is all slack for the minimizer.
    let mut trace = record_farm(4, 40, 3);
    let (rank, _) = mutate_first_match(&mut trace);
    let original = match replay_strict(&trace) {
        StrictReplay::Diverged(d) => d,
        other => panic!("expected divergence, got {other:?}"),
    };
    let result = minimize(&trace).expect("minimize");
    assert!(
        result.minimized_calls * 10 <= result.original_calls,
        "only shrank {} -> {} calls",
        result.original_calls,
        result.minimized_calls
    );
    assert!(result.minimized_bytes < result.original_bytes);
    assert_eq!(result.divergence.rank, rank);
    assert_eq!(result.divergence.expected, original.expected);
    assert_eq!(result.divergence.got, original.got);
    assert!(result.candidates_tried > 0);
    // The minimized trace is a self-contained reproducer: it validates,
    // serializes, and strict replay still reports the same divergence.
    let problems = result.trace.validate();
    assert!(problems.is_empty(), "minimized trace invalid: {problems:?}");
    let bytes = write_container(&result.trace);
    let back = GlobalTrace::decode_container(&bytes).expect("minimized container decodes");
    match replay_strict(&back) {
        StrictReplay::Diverged(d) => {
            assert_eq!(d.expected, original.expected);
            assert_eq!(d.got, original.got);
            assert_eq!(d.rank, rank);
        }
        other => panic!("minimized reproducer lost its divergence: {other:?}"),
    }
}

/// A clean recording has no divergence to minimize.
#[test]
fn minimize_refuses_clean_recording() {
    let trace = record_farm(3, 4, 17);
    match minimize(&trace) {
        Err(MinimizeError::NoDivergence) => {}
        other => panic!("expected NoDivergence, got {other:?}"),
    }
}

/// A trace recorded without the side-channel cannot be minimized.
#[test]
fn minimize_requires_log() {
    let mut trace = record_farm(3, 4, 19);
    trace.nondet = None;
    match minimize(&trace) {
        Err(MinimizeError::NoNondetLog) => {}
        other => panic!("expected NoNondetLog, got {other:?}"),
    }
}

/// Recording through a fault plan: the killed rank's trace is degraded,
/// and strict replay classifies it as Degraded — a truncated rank is
/// missing data, not diverging.
///
/// Uses a concrete-source workload (stencil): a wildcard receive can
/// never be proven blocked-on-dead (any live rank might still send), so
/// the farm — like a real non-fault-tolerant MPI code — would hang when
/// a worker dies.
#[test]
fn faulty_recording_degrades_instead_of_diverging() {
    let world = WorldConfig {
        faults: Some(FaultPlan::new(23).kill(3, 40)),
        ..WorldConfig::new(4).seed(23)
    };
    let body = mpi_workloads::by_name("stencil2d", 12);
    let Some(trace) = record_faulty(&world, PilgrimConfig::new(), move |env| body(env)) else {
        panic!("rank 0 should still merge a degraded trace");
    };
    let report = pilgrim::partial_replay_report(&trace);
    assert!(!report.is_fully_replayable(), "kill(3) must degrade the trace");
    match replay_strict(&trace) {
        StrictReplay::Degraded(r) => {
            assert!(!r.is_fully_replayable());
        }
        other => panic!("degraded recording must report Degraded, got {other:?}"),
    }
    match minimize(&trace) {
        Err(MinimizeError::Degraded(_)) => {}
        other => panic!("expected Degraded, got {other:?}"),
    }
}

/// `record` (the healthy-world entry point) works end to end.
#[test]
fn record_healthy_world() {
    let trace = record(3, PilgrimConfig::new(), farm_body(3)).expect("trace");
    assert!(trace.nondet.is_some());
    assert_eq!(trace.nranks, 3);
}

/// Deterministic workloads record an (almost) empty log and replay
/// cleanly — the side-channel costs nothing when nothing is wild.
#[test]
fn deterministic_workload_replays_clean() {
    let body = mpi_workloads::by_name("stencil2d", 4);
    let trace = record_faulty(&WorldConfig::new(4), PilgrimConfig::new(), move |env| body(env))
        .expect("trace");
    match replay_strict(&trace) {
        StrictReplay::Deterministic(_) => {}
        other => panic!("stencil must replay deterministically: {other:?}"),
    }
}

/// first_divergence pinpoints a call-stream edit between two traces.
/// (Two *recordings* of the same seed are generally NOT identical —
/// the OS schedule differs — which is exactly why replay exists; only
/// a trace and its own replay compare equal.)
#[test]
fn first_divergence_locates_call_edits() {
    let a = record_farm(3, 4, 31);
    assert!(first_divergence(&a, &a).is_none(), "a trace must compare equal to itself");
    let longer = record_farm(3, 9, 31);
    let d = first_divergence(&a, &longer).expect("longer run must differ somewhere");
    assert!(d.rank < 3);
    assert_ne!(d.expected, d.got);
}
