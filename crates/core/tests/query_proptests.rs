//! Property tests for the compressed-trace query engine: indexed random
//! access, streaming iteration, and grammar-aware analytics must agree
//! with full decode on arbitrary traces — including across `A -> B^k`
//! repeat boundaries, which the block-repetition strategy below forces
//! Sequitur to emit.

use std::collections::HashMap;

use mpi_sim::{World, WorldConfig};
use pilgrim::cst::{Cst, SigStats};
use pilgrim::encode::{EncoderConfig, SigWriter};
use pilgrim::trace::TraceCompleteness;
use pilgrim::{
    decode_rank_calls, to_signature_listing, write_container, write_text, CallIterator,
    GlobalTrace, PilgrimConfig, PilgrimTracer, QueryEngine, TermCursor, TraceIndex,
};
use pilgrim_sequitur::{DecodeError, FlatGrammar, FlatRule, Grammar, Symbol};
use proptest::prelude::*;

/// Per-rank call sequences built from repeated blocks, so the grammar
/// almost always contains rules with repetition exponents.
fn arb_rank_seqs() -> impl Strategy<Value = Vec<Vec<u32>>> {
    let block = proptest::collection::vec(0u32..5, 1..6);
    // Blocks and reps are both >= 1, so every rank sequence is non-empty.
    let rank = proptest::collection::vec((block, 1usize..7), 1..5).prop_map(|blocks| {
        let mut seq = Vec::new();
        for (body, reps) in blocks {
            for _ in 0..reps {
                seq.extend_from_slice(&body);
            }
        }
        seq
    });
    proptest::collection::vec(rank, 1..4)
}

/// Wraps raw per-rank terminal sequences in a `GlobalTrace`: terminal
/// `t` becomes a real encoded signature for func id `t + 1`, with CST
/// stats matching the terminal's total occurrence count.
fn build_trace(seqs: &[Vec<u32>]) -> GlobalTrace {
    let max_term = seqs.iter().flatten().copied().max().unwrap_or(0);
    let mut counts = vec![0u64; max_term as usize + 1];
    for &t in seqs.iter().flatten() {
        counts[t as usize] += 1;
    }
    let mut cst = Cst::new();
    for (t, &count) in counts.iter().enumerate() {
        let mut w = SigWriter::new(t as u16 + 1);
        w.int(t as i64);
        cst.intern(&w.into_bytes(), SigStats { count, dur_sum: count * (t as u64 + 1) * 7 });
    }
    let mut g = Grammar::new();
    for seq in seqs {
        for &t in seq {
            g.push(t);
        }
    }
    GlobalTrace {
        nranks: seqs.len(),
        encoder_cfg: EncoderConfig::default(),
        cst,
        grammar: g.to_flat(),
        rank_lengths: seqs.iter().map(|s| s.len() as u64).collect(),
        unique_grammars: seqs.len(),
        duration_grammars: vec![],
        interval_grammars: vec![],
        duration_rank_map: vec![],
        interval_rank_map: vec![],
        completeness: TraceCompleteness::complete(),
        nondet: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Indexed random access (`call_at`) agrees with full decode at
    // *every* position of every rank, and returns None one past the end.
    #[test]
    fn indexed_access_matches_full_decode(seqs in arb_rank_seqs()) {
        let trace = build_trace(&seqs);
        let index = TraceIndex::build(&trace);
        prop_assert_eq!(index.nranks(), trace.nranks);
        for rank in 0..trace.nranks {
            let full = decode_rank_calls(&trace, rank).unwrap();
            prop_assert_eq!(index.rank_len(rank), full.len() as u64);
            for (i, want) in full.iter().enumerate() {
                let got = index.call_at(&trace, rank, i as u64);
                prop_assert_eq!(got.as_ref(), Some(want), "rank {} call {}", rank, i);
            }
            prop_assert_eq!(index.call_at(&trace, rank, full.len() as u64), None);
        }
    }

    // `CallIterator::nth(i)` from a fresh iterator agrees with full
    // decode at every position, and streaming the whole rank yields the
    // identical call sequence.
    #[test]
    fn call_iterator_nth_matches_full_decode(seqs in arb_rank_seqs()) {
        let trace = build_trace(&seqs);
        let index = TraceIndex::build(&trace);
        for rank in 0..trace.nranks {
            let full = decode_rank_calls(&trace, rank).unwrap();
            let streamed: Vec<_> = CallIterator::new(&trace, &index, rank)
                .collect::<Result<_, _>>()
                .unwrap();
            prop_assert_eq!(&streamed, &full);
            for (i, want) in full.iter().enumerate() {
                let got = CallIterator::new(&trace, &index, rank).nth(i).unwrap();
                prop_assert_eq!(got.as_ref().ok(), Some(want), "rank {} nth {}", rank, i);
            }
            prop_assert!(CallIterator::new(&trace, &index, rank).nth(full.len()).is_none());
        }
    }

    // `skip(a).take(b)` windows equal the corresponding slice of the
    // full decode, wherever the window lands relative to repeat
    // boundaries.
    #[test]
    fn stream_windows_match_full_slices(
        seqs in arb_rank_seqs(),
        a in 0usize..40,
        b in 0usize..40,
    ) {
        let trace = build_trace(&seqs);
        let index = TraceIndex::build(&trace);
        for rank in 0..trace.nranks {
            let full = decode_rank_calls(&trace, rank).unwrap();
            let lo = a.min(full.len());
            let hi = (lo + b).min(full.len());
            let window: Vec<_> = CallIterator::new(&trace, &index, rank)
                .skip(a)
                .take(b)
                .collect::<Result<_, _>>()
                .unwrap();
            prop_assert_eq!(&window[..], &full[lo..hi], "rank {} skip {} take {}", rank, a, b);
        }
    }

    // Whole-trace, per-rank, and arbitrary-window signature histograms
    // match brute-force occurrence counts over the expanded terminals —
    // and computing them never expands the grammar.
    #[test]
    fn histograms_match_brute_force(
        seqs in arb_rank_seqs(),
        lo in 0u64..80,
        span in 0u64..80,
    ) {
        let trace = build_trace(&seqs);
        let index = TraceIndex::build(&trace);
        let engine = QueryEngine::new(&trace, &index);
        let before = pilgrim_sequitur::expansions();

        let brute = |terms: &[u32]| {
            let mut m: HashMap<u32, u64> = HashMap::new();
            for &t in terms {
                *m.entry(t).or_default() += 1;
            }
            m
        };
        let all: Vec<u32> = seqs.iter().flatten().copied().collect();
        prop_assert_eq!(engine.signature_counts(), &brute(&all));
        for (rank, seq) in seqs.iter().enumerate() {
            prop_assert_eq!(engine.rank_signature_counts(rank), brute(seq), "rank {}", rank);
        }
        let total = all.len() as u64;
        let wlo = lo.min(total);
        let whi = (wlo + span).min(total);
        let window = brute(&all[wlo as usize..whi as usize]);
        prop_assert_eq!(engine.window_counts(wlo, wlo + span), window, "[{}, {})", wlo, whi);

        prop_assert_eq!(pilgrim_sequitur::expansions(), before, "analytics expanded the grammar");
    }
}

/// Small arbitrary grammars of the shapes Sequitur never emits but
/// `FlatGrammar::decode` accepts: empty bodies, zero exponents, rules
/// shared by several parents, terminals past the CST. Rule references
/// point forward, so the graph is acyclic.
fn arb_flat_grammar() -> impl Strategy<Value = FlatGrammar> {
    let body = proptest::collection::vec((0u32..8, 0u64..4), 0..4);
    proptest::collection::vec(body, 1..5).prop_map(|bodies| {
        let nrules = bodies.len() as u32;
        let rules = bodies.into_iter().enumerate().map(|(rid, body)| {
            let later = nrules - rid as u32 - 1;
            let symbols = body.into_iter().map(|(kind, exp)| match kind.checked_sub(4) {
                Some(k) if later > 0 => (Symbol::Rule(rid as u32 + 1 + k % later), exp),
                _ => (Symbol::Terminal(kind % 4), exp),
            });
            FlatRule { symbols: symbols.collect() }
        });
        FlatGrammar { rules: rules.collect() }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Anything `decode_container` accepts is safe to read: every reader a
    // `trace_tool` subcommand reaches returns without panicking — whatever
    // offsets it is asked for and whatever bytes the CST holds — and where
    // `validate()` is clean the cursor and the full expansion agree.
    #[test]
    fn whatever_decode_accepts_is_safe_to_read(
        grammar in arb_flat_grammar(),
        cuts in proptest::collection::vec(any::<u64>(), 1..4),
        hostile in 0u8..4,
        garbage in proptest::option::of(0u32..3),
    ) {
        let mut left = grammar.expanded_len();
        let last = cuts.len() - 1;
        let rank_lengths: Vec<u64> = cuts.iter().enumerate().map(|(i, &cut)| match hostile {
            // Mostly a table that splits the expansion exactly ...
            1.. => {
                let take = if i == last { left } else { cut % (left + 1) };
                left -= take;
                take
            }
            // ... sometimes whatever a hostile writer declares.
            0 if cut % 5 == 0 => 1 << 63,
            0 => cut % 16,
        }).collect();
        let mut trace = build_trace(&[vec![0, 1, 2]]);
        trace.nranks = rank_lengths.len();
        trace.rank_lengths = rank_lengths;
        trace.grammar = grammar;
        // Sometimes one signature is three bytes no encoder wrote.
        let mut cst = Cst::new();
        for (term, sig, stats) in trace.cst.iter() {
            cst.intern(if garbage == Some(term) { &[0xff; 3] } else { sig }, stats);
        }
        trace.cst = cst;
        let Ok(trace) = GlobalTrace::decode_container(&write_container(&trace)) else {
            return Ok(());
        };
        let clean = trace.validate().is_empty();
        let index = TraceIndex::build(&trace);
        let engine = QueryEngine::new(&trace, &index);
        let total = index.total_calls();
        prop_assert_eq!(total, trace.total_calls());
        let all: Vec<Option<u32>> = (0..=total).map(|off| index.term_at(&trace, off)).collect();
        prop_assert_eq!(all[total as usize], None);
        let mut events = 0;
        for rank in 0..=trace.nranks {
            let decoded = decode_rank_calls(&trace, rank);
            let readable = clean && garbage.is_none();
            prop_assert!(decoded.is_ok() || rank == trace.nranks || !readable, "rank {}", rank);
            prop_assert!(decoded.is_err() || rank < trace.nranks, "rank {}", rank);
            let (lo, hi) = index.rank_span(rank);
            let counts = engine.window_counts(lo, hi);
            prop_assert_eq!(counts.values().sum::<u64>(), hi - lo);
            prop_assert_eq!(CallIterator::new(&trace, &index, rank).count() as u64, hi - lo);
            let streamed: Vec<u32> = TermCursor::new(&trace, &index, lo).take((hi - lo) as usize).collect();
            prop_assert_eq!(&streamed, &trace.decode_rank(rank));
            prop_assert_eq!(&streamed, &trace.rank_terms(rank).collect::<Vec<u32>>());
            let probed: Vec<u32> = all[lo as usize..hi as usize].iter().flatten().copied().collect();
            prop_assert_eq!(&probed, &streamed);
            events += streamed.len();
            // Offsets far past the end are past the end, not wrapped.
            prop_assert!(CallIterator::new(&trace, &index, rank).nth(usize::MAX).is_none());
            prop_assert_eq!(index.call_at(&trace, rank, u64::MAX), None);
            prop_assert_eq!(index.call_at(&trace, rank, u64::MAX - lo), None);
        }
        let listing = to_signature_listing(&trace);
        let mut text = Vec::new();
        let written = write_text(&trace, &mut text);
        match garbage {
            Some(term) => {
                prop_assert_eq!(listing, Err(DecodeError::BadSignature { term }));
                prop_assert_eq!(written.unwrap_err().kind(), std::io::ErrorKind::InvalidData);
            }
            None => {
                prop_assert_eq!(listing.unwrap().lines().count(), trace.cst.len());
                prop_assert!(written.is_ok());
                let rows = text.split(|&b| b == b'\n').filter(|l| l.starts_with(b"EVT ")).count();
                prop_assert_eq!(rows, events);
            }
        }
    }
}

proptest! {
    // Real traced workloads are heavier (thread-per-rank simulation), so
    // fewer cases: random workload/size/iters, probing a spread of
    // positions per rank against the full decode.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn workload_traces_probe_consistently(
        wl in (0usize..3).prop_map(|i| ["stencil2d", "ring", "lu"][i]),
        nranks in 2usize..5,
        iters in 1usize..8,
    ) {
        let body: std::sync::Arc<dyn Fn(&mut mpi_sim::Env) + Send + Sync> = match wl {
            "ring" => std::sync::Arc::new(move |env: &mut mpi_sim::Env| {
                let me = env.world_rank();
                let n = env.world_size();
                let world = env.comm_world();
                let dt = env.basic(mpi_sim::datatype::BasicType::LongLong);
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
            other => mpi_workloads::by_name(other, iters),
        };
        let mut tracers = World::run(
            &WorldConfig::new(nranks),
            |rank| PilgrimTracer::new(rank, PilgrimConfig::new()),
            move |env| body(env),
        );
        let trace = tracers[0].take_output().trace.unwrap();
        let index = TraceIndex::build(&trace);
        for rank in 0..nranks {
            let full = decode_rank_calls(&trace, rank).unwrap();
            // Probe ends, middles, and a fixed stride: cheap but covers
            // descents through every level of the rule tree.
            let len = full.len();
            let probes = (0..len).step_by(1 + len / 17).chain([0, len / 2, len - 1]);
            for i in probes {
                let want = &full[i];
                let at = index.call_at(&trace, rank, i as u64);
                prop_assert_eq!(at.as_ref(), Some(want), "{} rank {} call {}", wl, rank, i);
                let got = CallIterator::new(&trace, &index, rank).nth(i).unwrap();
                prop_assert_eq!(got.as_ref().ok(), Some(want), "{} rank {} nth {}", wl, rank, i);
            }
        }
    }
}
