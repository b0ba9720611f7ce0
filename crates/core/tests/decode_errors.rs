//! Property tests for the Result-based decoders: corrupted and truncated
//! buffers must come back as the right [`DecodeError`] variant — never a
//! panic — and well-formed buffers must round-trip.

use std::sync::OnceLock;

use mpi_sim::datatype::BasicType;
use mpi_sim::{World, WorldConfig};
use pilgrim::cst::Cst;
use pilgrim::{
    verify_lossless, write_container, CapturedCall, DecodeError, GlobalTrace, PilgrimConfig,
    PilgrimTracer, RankStatus, TimingMode,
};
use pilgrim_sequitur::{FlatGrammar, FlatRule, Grammar, Symbol};
use proptest::prelude::*;

/// A realistic trace (4 ranks, lossy timing so the timing grammar and
/// rank-map decode paths are exercised) in the two forms the corruption
/// tests need: its container bytes and the per-rank reference captures for
/// verify_lossless.
type ContainerFixture = (Vec<u8>, Vec<Vec<CapturedCall>>);

fn container_fixture() -> &'static ContainerFixture {
    static FIX: OnceLock<ContainerFixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let cfg =
            PilgrimConfig::new().timing(TimingMode::Lossy { base: 1.2 }).capture_reference(true);
        let mut tracers = World::run(
            &WorldConfig::new(4),
            |rank| PilgrimTracer::new(rank, cfg),
            |env| {
                let me = env.world_rank();
                let world = env.comm_world();
                let dt = env.basic(BasicType::Double);
                let buf = env.malloc(128);
                for _ in 0..15 {
                    env.bcast(buf, 16, dt, 0, world);
                    if me == 0 {
                        env.send(buf, 4, dt, 1, 7, world);
                    } else if me == 1 {
                        env.recv(buf, 4, dt, 0, 7, world);
                    }
                    env.barrier(world);
                }
            },
        );
        let trace = tracers[0].take_output().trace.unwrap();
        let refs = tracers.iter().map(|t| t.captured().to_vec()).collect();
        (write_container(&trace), refs)
    })
}

/// Section kind bytes of per-rank and nondet container sections (see
/// `export.rs`).
const SEC_RANK: u8 = 6;
const SEC_NONDET: u8 = 7;

/// Walks the container framing, returning `(kind, payload byte range)`
/// per section.
fn sections(bytes: &[u8]) -> Vec<(u8, std::ops::Range<usize>)> {
    let mut pos = 5; // magic + version
    let mut out = Vec::new();
    while pos < bytes.len() {
        let kind = bytes[pos];
        pos += 1;
        let mut len = 0u64;
        let mut shift = 0;
        loop {
            let b = bytes[pos];
            pos += 1;
            len |= u64::from(b & 0x7F) << shift;
            shift += 7;
            if b & 0x80 == 0 {
                break;
            }
        }
        let start = pos;
        pos += len as usize;
        out.push((kind, start..pos));
        pos += 4; // CRC trailer
    }
    out
}

/// A flat grammar built from a terminal sequence through real Sequitur.
fn flat_of(seq: &[u32]) -> FlatGrammar {
    let mut g = Grammar::new();
    for &t in seq {
        g.push(t);
    }
    g.to_flat()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn garbage_never_panics_any_decoder(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = GlobalTrace::decode_container(&bytes);
        let _ = GlobalTrace::decode_salvage(&bytes);
        let _ = FlatGrammar::decode(&bytes);
        let mut pos = 0;
        let _ = Cst::decode(&bytes, &mut pos);
    }

    #[test]
    fn trailing_bytes_are_reported_exactly(extra in proptest::collection::vec(any::<u8>(), 1..16)) {
        let (container, _) = container_fixture();
        let mut bytes = container.clone();
        let len = bytes.len();
        bytes.extend_from_slice(&extra);
        // Anything after the last RANK section is an error, and the error
        // says exactly how much was parsed — unless the first extra byte is
        // the kind of the optional trailing nondet section, whose framing or
        // checksum then fails instead.
        match GlobalTrace::decode_container(&bytes) {
            Err(DecodeError::TrailingBytes { consumed, len: l }) => {
                prop_assert_eq!(consumed, len);
                prop_assert_eq!(l, len + extra.len());
            }
            Err(e) => prop_assert!(extra[0] == SEC_NONDET, "unexpected {e:?}"),
            Ok(_) => prop_assert!(false, "trace with trailing bytes decoded"),
        }
    }

    #[test]
    fn grammar_roundtrips_through_decode(
        seq in proptest::collection::vec(0u32..8, 1..200),
    ) {
        let flat = flat_of(&seq);
        let mut buf = Vec::new();
        flat.serialize(&mut buf);
        let (back, used) = FlatGrammar::decode(&buf).unwrap();
        prop_assert_eq!(used, buf.len());
        prop_assert_eq!(back.expand(), seq);
    }

    #[test]
    fn truncated_grammars_always_err(
        seq in proptest::collection::vec(0u32..8, 1..200),
        cut_seed in any::<usize>(),
    ) {
        let mut buf = Vec::new();
        flat_of(&seq).serialize(&mut buf);
        let cut = cut_seed % buf.len();
        prop_assert!(FlatGrammar::decode(&buf[..cut]).is_err());
    }

    #[test]
    fn out_of_range_rule_refs_are_reported(
        seq in proptest::collection::vec(0u32..8, 1..50),
        bad_rule in 1000u32..1_000_000,
    ) {
        // Serialization does not validate, so a grammar with a dangling
        // rule reference encodes fine — and decode must name the culprit.
        let mut flat = flat_of(&seq);
        flat.rules[0].symbols.push((Symbol::Rule(bad_rule), 1));
        let num_rules = flat.num_rules();
        let mut buf = Vec::new();
        flat.serialize(&mut buf);
        prop_assert_eq!(
            FlatGrammar::decode(&buf).unwrap_err(),
            DecodeError::BadRuleRef { rule: bad_rule, num_rules }
        );
    }

    #[test]
    fn truncated_containers_always_err_never_panic(cut_seed in any::<usize>()) {
        let (bytes, _) = container_fixture();
        let cut = cut_seed % bytes.len();
        // Both readers parse forward and demand complete framing, so every
        // strict prefix must fail — salvage included (there is nothing to
        // salvage without intact framing).
        prop_assert!(GlobalTrace::decode_container(&bytes[..cut]).is_err());
        prop_assert!(GlobalTrace::decode_salvage(&bytes[..cut]).is_err());
    }

    #[test]
    fn bitflipped_containers_always_err_strictly(idx_seed in any::<usize>(), bit in 0u8..8) {
        // The container's per-section CRC32 catches every single-bit error
        // in a payload or checksum, and the framing checks catch the rest:
        // no flip decodes into a different valid trace.
        let (bytes, _) = container_fixture();
        let mut mutated = bytes.clone();
        let idx = idx_seed % mutated.len();
        mutated[idx] ^= 1 << bit;
        prop_assert!(GlobalTrace::decode_container(&mutated).is_err());
    }

    #[test]
    fn bitflipped_containers_salvage_never_lies(idx_seed in any::<usize>(), bit in 0u8..8) {
        let (bytes, refs) = container_fixture();
        let original = GlobalTrace::decode_container(bytes).unwrap();
        let mut mutated = bytes.clone();
        let idx = idx_seed % mutated.len();
        mutated[idx] ^= 1 << bit;
        match GlobalTrace::decode_salvage(&mutated) {
            // Damage to framing, META, CST, or the merged grammar: nothing
            // recoverable, clean error.
            Err(_) => {}
            // One flipped bit damages at most one section, so whatever was
            // salvaged must reproduce every rank's call sequence exactly
            // (a single corrupt RANK section's span is still inferred
            // exactly from the grammar total).
            Ok((t, _)) => {
                prop_assert_eq!(t.nranks, original.nranks);
                prop_assert_eq!(t.decode_all_ranks(), original.decode_all_ranks());
                prop_assert!(verify_lossless(&t, refs).is_ok());
            }
        }
    }

    #[test]
    fn corrupt_rank_section_salvages_every_other_rank(
        rank in 0usize..4,
        off_seed in any::<usize>(),
        delta in 1u8..=255,
    ) {
        let (bytes, refs) = container_fixture();
        let rank_payloads: Vec<_> =
            sections(bytes).into_iter().filter(|(k, _)| *k == SEC_RANK).map(|(_, r)| r).collect();
        prop_assert_eq!(rank_payloads.len(), 4);
        let range = rank_payloads[rank].clone();
        let mut mutated = bytes.clone();
        mutated[range.start + off_seed % range.len()] ^= delta;
        // Strict decode names the damaged section.
        match GlobalTrace::decode_container(&mutated) {
            Err(DecodeError::BadChecksum { section, .. }) => prop_assert_eq!(section, "rank"),
            other => prop_assert!(false, "expected rank checksum failure, got {other:?}"),
        }
        // Salvage recovers everything else — and because only one rank is
        // missing, its span is inferred exactly, so even the damaged
        // rank's calls are intact; only its timing and events are lost.
        let (t, report) = GlobalTrace::decode_salvage(&mutated).unwrap();
        prop_assert_eq!(&report.skipped_ranks, &vec![rank]);
        prop_assert!(matches!(t.completeness.status(rank), RankStatus::Salvaged { .. }));
        prop_assert!(t.is_degraded());
        prop_assert!(t.fidelity().salvaged_ranks.contains(&rank));
        let original = GlobalTrace::decode_container(bytes).unwrap();
        prop_assert_eq!(t.decode_all_ranks(), original.decode_all_ranks());
        prop_assert!(verify_lossless(&t, refs).is_ok());
        prop_assert!(t.validate().is_empty(), "salvaged trace validates: {:?}", t.validate());
    }

    #[test]
    fn cst_roundtrips_and_rejects_truncation(
        sigs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..12), 1..32),
        cut_seed in any::<usize>(),
    ) {
        let mut cst = Cst::new();
        for s in &sigs {
            cst.observe(s, 7);
        }
        let mut buf = Vec::new();
        cst.serialize(&mut buf);
        let mut pos = 0;
        let back = Cst::decode(&buf, &mut pos).unwrap();
        prop_assert_eq!(pos, buf.len());
        prop_assert_eq!(back.len(), cst.len());
        let cut = cut_seed % buf.len();
        let mut pos = 0;
        prop_assert!(Cst::decode(&buf[..cut], &mut pos).is_err());
    }
}

#[test]
fn container_roundtrips_byte_identically() {
    let (container, refs) = container_fixture();
    let strict = GlobalTrace::decode_container(container).expect("clean container decodes");
    // Writing the decoded trace again proves every field survived.
    assert_eq!(&write_container(&strict), container);
    assert!(verify_lossless(&strict, refs).is_ok());
    let (salvaged, report) = GlobalTrace::decode_salvage(container).expect("clean salvage");
    assert!(report.is_clean());
    assert_eq!(&write_container(&salvaged), container);
    assert_eq!(&write_container(&GlobalTrace::decode_auto(container).unwrap()), container);
}

/// The flat serialization earlier versions wrote (no magic, no checksums)
/// for `crafted_trace(flat_of(&[0, 1]), vec![1, 1])`.
const FLAT_TRACE: [u8; 33] = [
    5, 2, 1, 1, 1, 3, 3, 1, 0, 2, 1, 10, 3, 2, 0, 4, 1, 10, 3, 3, 0, 6, 1, 10, 1, 2, 0, 1, 2, 1, 0,
    0, 0,
];

#[test]
fn flat_traces_are_refused_by_every_reader() {
    let magic = DecodeError::Corrupt { what: "container magic", offset: 0 };
    assert_eq!(GlobalTrace::decode_auto(&FLAT_TRACE).unwrap_err(), magic);
    assert_eq!(GlobalTrace::decode_container(&FLAT_TRACE).unwrap_err(), magic);
    assert_eq!(GlobalTrace::decode_salvage(&FLAT_TRACE).unwrap_err(), magic);
}

#[test]
fn container_with_trailing_bytes_is_rejected() {
    let (container, _) = container_fixture();
    let mut bytes = container.clone();
    bytes.push(0);
    assert!(matches!(
        GlobalTrace::decode_container(&bytes),
        Err(DecodeError::TrailingBytes { .. }) | Err(DecodeError::Truncated { .. })
    ));
}

#[test]
fn wrong_container_version_is_corrupt() {
    let (container, _) = container_fixture();
    let mut bytes = container.clone();
    bytes[4] = 99;
    assert_eq!(
        GlobalTrace::decode_container(&bytes).unwrap_err(),
        DecodeError::Corrupt { what: "container version", offset: 4 }
    );
}

#[test]
fn cyclic_grammars_are_rejected() {
    // S -> R1, R1 -> R2, R2 -> R1: structurally well-formed bytes, but the
    // rule graph loops, which would run expand() forever.
    let cyclic = FlatGrammar {
        rules: vec![
            FlatRule { symbols: vec![(Symbol::Rule(1), 1)] },
            FlatRule { symbols: vec![(Symbol::Rule(2), 1)] },
            FlatRule { symbols: vec![(Symbol::Rule(1), 2)] },
        ],
    };
    let mut buf = Vec::new();
    cyclic.serialize(&mut buf);
    assert!(matches!(
        FlatGrammar::decode(&buf).unwrap_err(),
        DecodeError::CyclicRules { rule: 1 | 2 }
    ));
}

#[test]
fn self_referential_rule_is_rejected() {
    let cyclic = FlatGrammar {
        rules: vec![
            FlatRule { symbols: vec![(Symbol::Terminal(3), 1), (Symbol::Rule(1), 1)] },
            FlatRule { symbols: vec![(Symbol::Rule(1), 1)] },
        ],
    };
    let mut buf = Vec::new();
    cyclic.serialize(&mut buf);
    assert_eq!(FlatGrammar::decode(&buf).unwrap_err(), DecodeError::CyclicRules { rule: 1 });
}

#[test]
fn huge_rule_count_is_corruption_not_allocation() {
    // A count of 2^40 rules must be rejected up front, not fed to
    // Vec::with_capacity.
    let mut buf = Vec::new();
    pilgrim_sequitur::write_varint(&mut buf, 1 << 40);
    assert_eq!(
        FlatGrammar::decode(&buf).unwrap_err(),
        DecodeError::Corrupt { what: "rule count", offset: 0 }
    );
}

/// A hand-built trace over a three-signature CST: whatever grammar and
/// rank-length table the caller wants a decoder to be shown.
fn crafted_trace(grammar: FlatGrammar, rank_lengths: Vec<u64>) -> GlobalTrace {
    let mut cst = Cst::new();
    for func in 1u16..=3 {
        let mut sig = pilgrim::encode::SigWriter::new(func);
        sig.int(i64::from(func));
        cst.observe(sig.bytes(), 10);
    }
    GlobalTrace {
        nranks: rank_lengths.len(),
        encoder_cfg: pilgrim::EncoderConfig::default(),
        cst,
        grammar,
        rank_lengths,
        unique_grammars: 1,
        duration_grammars: vec![],
        interval_grammars: vec![],
        duration_rank_map: vec![],
        interval_rank_map: vec![],
        completeness: pilgrim::TraceCompleteness::complete(),
        nondet: None,
    }
}

/// Reads everything a `trace_tool` subcommand would read.
fn read_all(trace: &GlobalTrace) {
    let _ = trace.validate();
    let _ = trace.decode_all_ranks();
    for rank in 0..=trace.nranks {
        let _ = pilgrim::decode_rank_calls(trace, rank);
    }
}

/// CRC-valid bytes from `write_container` itself — not disk damage, a
/// hostile or buggy writer — whose rank-length table disagrees with a
/// grammar that generates two calls: the strict decoder must refuse it, and
/// salvage must clamp it to what the grammar generates.
fn assert_rank_lengths_rejected(lengths: Vec<u64>) {
    let bytes = write_container(&crafted_trace(flat_of(&[0, 1]), lengths.clone()));
    match GlobalTrace::decode_container(&bytes) {
        Err(e) => assert!(
            matches!(e, DecodeError::Corrupt { what: "rank lengths", .. }),
            "{lengths:?}: {e}"
        ),
        Ok(accepted) => {
            read_all(&accepted);
            panic!("decoder accepted rank lengths {lengths:?}");
        }
    }
    let (salvaged, _) = GlobalTrace::decode_salvage(&bytes).unwrap();
    read_all(&salvaged);
    assert!(salvaged.total_calls() <= 2, "{lengths:?} salvaged {:?}", salvaged.rank_lengths);
}

#[test]
fn rank_lengths_that_overrun_or_undershoot_the_grammar_are_rejected() {
    // Ten calls declared: the per-rank split would slice past the expansion.
    assert_rank_lengths_rejected(vec![10]);
    assert_rank_lengths_rejected(vec![1, 0]);
}

#[test]
fn rank_lengths_whose_sum_overflows_are_rejected() {
    assert_rank_lengths_rejected(vec![1 << 63, 1 << 63]);
}

#[test]
fn a_rank_the_trace_does_not_have_is_an_error_not_a_panic() {
    let (container, _) = container_fixture();
    let trace = GlobalTrace::decode_container(container).unwrap();
    assert_eq!(
        pilgrim::decode_rank_calls(&trace, 99).unwrap_err(),
        DecodeError::NoSuchRank { rank: 99, nranks: 4 }
    );
    assert!(trace.decode_rank(99).is_empty());
    assert_eq!(trace.decode_rank(3), trace.decode_all_ranks()[3]);
}

/// A count in a signature that the bytes after it cannot hold — every
/// element takes at least one byte — is corruption, not an allocation or
/// an overflow: `RequestArr`, `StatusArr`, `IntArr` and `Str` at 2^40 and
/// at `u64::MAX`, read directly and through a CRC-valid container.
#[test]
fn signature_counts_past_the_bytes_left_are_corruption_not_allocation() {
    const REQUEST_ARR: u8 = 8;
    const STATUS_ARR: u8 = 11;
    const INT_ARR: u8 = 12;
    const STR: u8 = 15;
    for tag in [REQUEST_ARR, STATUS_ARR, INT_ARR, STR] {
        for count in [1u64 << 40, u64::MAX] {
            let mut sig = vec![1, tag];
            pilgrim_sequitur::write_varint(&mut sig, count);
            assert_eq!(pilgrim::decode_signature(&sig), None, "tag {tag} count {count}");
            let mut cst = Cst::new();
            cst.observe(&sig, 1);
            let bytes =
                write_container(&GlobalTrace { cst, ..crafted_trace(flat_of(&[0]), vec![1]) });
            let read = GlobalTrace::decode_container(&bytes)
                .and_then(|trace| pilgrim::decode_rank_calls(&trace, 0));
            assert_eq!(read, Err(DecodeError::BadSignature { term: 0 }), "tag {tag} count {count}");
        }
    }
}
