//! Property-based tests for the Pilgrim core: signature encode/decode
//! inverses, CST determinism, merge combination, and timing error bounds.

use pilgrim::cst::Cst;
use pilgrim::encode::{decode_signature, EncodedArg, EncoderConfig, RankCode, SigWriter};
use pilgrim::merge::combine_grammars;
use pilgrim::timing::{reconstruct_times, TimingCompressor};
use pilgrim_sequitur::Grammar;
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = EncoderConfig> {
    (any::<bool>(), any::<bool>(), any::<bool>()).prop_map(|(r, a, p)| {
        EncoderConfig::new().relative_ranks(r).relative_aux(a).pointer_offsets(p)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rank_encoding_roundtrips(
        cfg in arb_config(),
        caller in 0i64..4096,
        rank in -2i32..4096,
    ) {
        let mut w = SigWriter::new(7);
        w.rank(rank, caller, &cfg);
        let call = decode_signature(&w.into_bytes()).unwrap();
        match call.args[0] {
            EncodedArg::Rank(code) => prop_assert_eq!(code.absolutize(caller), rank as i64),
            ref other => prop_assert!(false, "unexpected {:?}", other),
        }
    }

    #[test]
    fn int_arrays_roundtrip(vals in proptest::collection::vec(any::<i64>(), 0..64)) {
        let mut w = SigWriter::new(1);
        w.int_arr(&vals);
        let call = decode_signature(&w.into_bytes()).unwrap();
        prop_assert_eq!(call.args[0].clone(), EncodedArg::IntArr(vals));
    }

    #[test]
    fn status_arrays_roundtrip(
        cfg in arb_config(),
        caller in 0i64..512,
        sts in proptest::collection::vec((-2i32..512, -1i32..1000), 0..16),
    ) {
        let mut w = SigWriter::new(2);
        w.status_arr(&sts, caller, &cfg);
        let call = decode_signature(&w.into_bytes()).unwrap();
        match &call.args[0] {
            EncodedArg::StatusArr(decoded) => {
                prop_assert_eq!(decoded.len(), sts.len());
                for ((src, tag), &(rs, rt)) in decoded.iter().zip(&sts) {
                    prop_assert_eq!(src.absolutize(caller), rs as i64);
                    prop_assert_eq!(*tag, rt as i64);
                }
            }
            other => prop_assert!(false, "unexpected {:?}", other),
        }
    }

    #[test]
    fn request_arrays_preserve_null_pattern(
        syms in proptest::collection::vec(proptest::option::of(0u64..100), 0..32),
    ) {
        let mut w = SigWriter::new(3);
        w.request_arr(syms.iter().copied());
        let call = decode_signature(&w.into_bytes()).unwrap();
        prop_assert_eq!(call.args[0].clone(), EncodedArg::RequestArr(syms));
    }

    #[test]
    fn strings_roundtrip(s in "[a-zA-Z0-9 _-]{0,64}") {
        let mut w = SigWriter::new(4);
        w.str(&s);
        let call = decode_signature(&w.into_bytes()).unwrap();
        prop_assert_eq!(call.args[0].clone(), EncodedArg::Str(s));
    }

    #[test]
    fn cst_terminals_depend_only_on_signature(
        sigs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..16), 1..64),
    ) {
        let mut a = Cst::new();
        let mut b = Cst::new();
        for s in &sigs {
            a.observe(s, 1);
        }
        for s in &sigs {
            b.observe(s, 99);
        }
        // Same signature stream -> same terminal assignment, regardless
        // of recorded durations.
        for s in &sigs {
            prop_assert_eq!(a.lookup(s), b.lookup(s));
        }
        prop_assert_eq!(a.len(), b.len());
    }

    #[test]
    fn cst_serialization_roundtrips(
        sigs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..12), 0..48),
        durs in proptest::collection::vec(0u64..10_000, 0..48),
    ) {
        let mut c = Cst::new();
        for (i, s) in sigs.iter().enumerate() {
            c.observe(s, durs.get(i).copied().unwrap_or(1));
        }
        let mut buf = Vec::new();
        c.serialize(&mut buf);
        let mut pos = 0;
        let back = Cst::decode(&buf, &mut pos).unwrap();
        prop_assert_eq!(pos, buf.len());
        prop_assert_eq!(back.len(), c.len());
        for (t, sig, st) in c.iter() {
            prop_assert_eq!(back.signature(t), sig);
            prop_assert_eq!(back.stats(t), st);
        }
    }

    #[test]
    fn combine_grammars_expands_to_rank_concatenation(
        seq_a in proptest::collection::vec(0u32..5, 1..40),
        seq_b in proptest::collection::vec(0u32..5, 1..40),
        pattern in proptest::collection::vec(any::<bool>(), 1..12),
    ) {
        let flat = |seq: &[u32]| {
            let mut g = Grammar::new();
            for &t in seq {
                g.push(t);
            }
            g.to_flat()
        };
        let ga = flat(&seq_a);
        let gb = flat(&seq_b);
        let nranks = pattern.len();
        let mut ranks_a = Vec::new();
        let mut ranks_b = Vec::new();
        for (r, &is_a) in pattern.iter().enumerate() {
            if is_a {
                ranks_a.push((r as u64, seq_a.len() as u64));
            } else {
                ranks_b.push((r as u64, seq_b.len() as u64));
            }
        }
        let mut set = Vec::new();
        if !ranks_a.is_empty() {
            set.push((ga, ranks_a));
        }
        if !ranks_b.is_empty() {
            set.push((gb, ranks_b));
        }
        let (combined, lens) = combine_grammars(&set, nranks);
        let expanded = combined.expand();
        let mut pos = 0usize;
        for (r, &is_a) in pattern.iter().enumerate() {
            let want: &[u32] = if is_a { &seq_a } else { &seq_b };
            prop_assert_eq!(lens[r] as usize, want.len());
            prop_assert_eq!(&expanded[pos..pos + want.len()], want);
            pos += want.len();
        }
        prop_assert_eq!(pos, expanded.len());
    }

    #[test]
    fn timing_reconstruction_error_bounded(
        base_m in 105u32..200, // base in (1.05, 2.0)
        durs in proptest::collection::vec(1u64..1_000_000, 1..120),
        gaps in proptest::collection::vec(1u64..1_000_000, 1..120),
    ) {
        let base = base_m as f64 / 100.0;
        let n = durs.len().min(gaps.len());
        let mut t = TimingCompressor::new(base);
        let mut now = 0u64;
        let mut starts = Vec::new();
        for i in 0..n {
            now += gaps[i];
            starts.push(now);
            t.record(0, now, durs[i]);
        }
        let dbins = t.duration_grammar().expand();
        let ibins = t.interval_grammar().expand();
        let times = reconstruct_times(base, &vec![0u32; n], &dbins, &ibins);
        let bound = base - 1.0;
        for (i, (t0, t1)) in times.iter().enumerate() {
            let rel = (t0 - starts[i] as f64).abs() / starts[i] as f64;
            prop_assert!(rel <= bound + 1e-6, "start {i}: error {rel} > {bound}");
            let dur = t1 - t0;
            let rel_d = (dur - durs[i] as f64) / durs[i] as f64;
            // Ceil binning over-approximates durations within the bound.
            prop_assert!((-1e-6..=bound + 1e-6).contains(&rel_d), "dur {i}: {rel_d}");
        }
    }

    #[test]
    fn rankcode_absolutize_identity(code in -2i64..1000, caller in 0i64..1000) {
        let rc = if code == -1 {
            RankCode::AnySource
        } else if code == -2 {
            RankCode::ProcNull
        } else {
            RankCode::Relative(code - caller)
        };
        prop_assert_eq!(rc.absolutize(caller), code);
    }
}
