//! Depth and magnitude bounds of the read side, measured: the two hostile
//! containers ROADMAP recorded at PR 20 — a grammar that declares 2^40
//! calls in a few hundred bytes, and a 200 000-rule reference chain — are
//! read through every streaming surface on a 256 KiB stack under a counting
//! allocator. Before the grammar walker the first asked the allocator for
//! 4 TiB in `decode_rank` and the second overflowed the stack in
//! `expand_rule` and `fill_hist`.
//!
//! Its own test binary: the `#[global_allocator]` counts every allocation
//! of the process, so the two tests take turns.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{self, Write};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

use pilgrim::cst::{Cst, SigStats};
use pilgrim::encode::{EncoderConfig, SigWriter};
use pilgrim::trace::TraceCompleteness;
use pilgrim::{
    decode_rank_calls, write_container, write_text, CallIterator, GlobalTrace, QueryEngine,
    SigCounts, TermCursor, TraceIndex,
};
use pilgrim_sequitur::{FlatGrammar, FlatRule, Symbol};

/// Live and peak heap bytes of the whole process.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain statistics and publish no
// other data. `realloc` is the default (`alloc` + copy + `dealloc`), so a
// growing `Vec` counts at its true old-plus-new peak.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
        PEAK.fetch_max(live, Relaxed);
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

static TURN: Mutex<()> = Mutex::new(());

/// Runs `read` on a thread with a 256 KiB stack and returns the peak number
/// of heap bytes live above what was live when it started. The caller holds
/// [`TURN`].
fn peak_on_small_stack(read: impl FnOnce() + Send) -> usize {
    std::thread::scope(|scope| {
        let reader = std::thread::Builder::new().stack_size(256 * 1024).spawn_scoped(scope, || {
            let before = LIVE.load(Relaxed);
            PEAK.store(before, Relaxed);
            read();
            PEAK.load(Relaxed).saturating_sub(before)
        });
        reader.expect("spawn small-stack thread").join().expect("no stack overflow, no panic")
    })
}

/// One rank whose every call is terminal 0 — a real `MPI_Init`-shaped
/// signature — generated by `grammar`, as the bytes `write_container` makes.
fn container(grammar: FlatGrammar) -> Vec<u8> {
    let calls = grammar.expanded_len();
    let mut cst = Cst::new();
    cst.intern(&SigWriter::new(1).into_bytes(), SigStats { count: calls, dur_sum: calls });
    write_container(&GlobalTrace {
        nranks: 1,
        encoder_cfg: EncoderConfig::default(),
        cst,
        grammar,
        rank_lengths: vec![calls],
        unique_grammars: 1,
        duration_grammars: vec![],
        interval_grammars: vec![],
        duration_rank_map: vec![],
        interval_rank_map: vec![],
        completeness: TraceCompleteness::complete(),
        nondet: None,
    })
}

/// A sink that takes `room` bytes and then refuses, like a full disk or a
/// closed pipe.
struct Limited {
    room: usize,
}

impl Write for Limited {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.room == 0 {
            return Err(io::Error::new(io::ErrorKind::StorageFull, "sink is full"));
        }
        let taken = buf.len().min(self.room);
        self.room -= taken;
        Ok(taken)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Peak heap allowed while reading a container of `len` bytes: a constant
/// multiple of its length plus a fixed allowance. Measured: 24x on the
/// chain — the decoded grammar's own 40 bytes a rule, the bottom-up pass's
/// scratch, the index's spans at 32 bytes a rule and the cursor's 24-byte
/// frames, against 5 container bytes a rule — and 21 KiB flat on the 2^40
/// container, which is the export's 8 KiB `BufWriter`, the 1000 terminals
/// and 50 calls the test itself collects, and per-object minimums.
fn allowed(len: usize) -> usize {
    32 * len + 32 * 1024
}

#[test]
fn two_to_the_forty_calls_stream_in_memory_bounded_by_the_container() {
    const CALLS: u64 = 1 << 40;
    let _turn = TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let bytes = container(FlatGrammar {
        rules: vec![FlatRule { symbols: vec![(Symbol::Terminal(0), CALLS)] }],
    });
    let peak = peak_on_small_stack(|| {
        let trace = GlobalTrace::decode_container(&bytes).expect("a run is a valid grammar");
        assert!(trace.validate().is_empty(), "{:?}", trace.validate());
        assert_eq!(trace.total_calls(), CALLS);
        assert_eq!(trace.rank_terms(0).take(1000).collect::<Vec<u32>>(), vec![0; 1000]);
        assert_eq!(trace.rank_terms(1).next(), None);

        let index = TraceIndex::build(&trace);
        let window = CallIterator::new(&trace, &index, 0).skip(1 << 39).take(8);
        assert_eq!(window.filter(|call| call.is_ok()).count(), 8);
        assert!(index.call_at(&trace, 0, CALLS - 1).is_some());
        assert!(index.call_at(&trace, 0, CALLS).is_none());
        assert_eq!(TermCursor::new(&trace, &index, CALLS - 3).count(), 3);

        let engine = QueryEngine::new(&trace, &index);
        assert_eq!(engine.window_counts(1, CALLS - 1), SigCounts::from([(0, CALLS - 2)]));
        assert_eq!(engine.signature_counts(), &SigCounts::from([(0, CALLS)]));

        // What `trace_tool decode <file> 0` prints: the first 50 calls.
        let head: Vec<_> = CallIterator::new(&trace, &index, 0).take(50).collect();
        assert!(head.len() == 50 && head.iter().all(|call| call.is_ok()));

        // What `trace_tool export` writes, until the sink has had enough.
        let mut sink = io::BufWriter::new(Limited { room: 1 << 20 });
        let stopped = write_text(&trace, &mut sink).expect_err("2^40 rows do not fit in 1 MiB");
        assert_eq!(stopped.kind(), io::ErrorKind::StorageFull);
    });
    let allowed = allowed(bytes.len());
    assert!(peak <= allowed, "peak {peak} B for a {} B container (allowed {allowed})", bytes.len());
}

#[test]
fn a_two_hundred_thousand_rule_chain_is_read_without_recursing() {
    // R0 -> R1 -> ... -> R199999 -> t0: one call under 200 000 rules.
    const DEPTH: u32 = 200_000;
    let _turn = TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let rules = (1..=DEPTH).map(|next| {
        let sym = if next == DEPTH { Symbol::Terminal(0) } else { Symbol::Rule(next) };
        FlatRule { symbols: vec![(sym, 1)] }
    });
    let bytes = container(FlatGrammar { rules: rules.collect() });
    let mut engine_peak = 0;
    let peak = peak_on_small_stack(|| {
        let trace = GlobalTrace::decode_container(&bytes).expect("a chain is acyclic");
        assert!(trace.validate().is_empty(), "{:?}", trace.validate());
        assert_eq!(trace.decode_rank(0), vec![0]);
        assert_eq!(trace.decode_all_ranks(), vec![vec![0]]);
        assert_eq!(decode_rank_calls(&trace, 0).map(|calls| calls.len()), Ok(1));
        let mut text = Vec::new();
        write_text(&trace, &mut text).expect("one definition, one event");
        assert!(text.ends_with(b"EVT 0 0\n"));

        let index = TraceIndex::build(&trace);
        assert_eq!(TermCursor::new(&trace, &index, 0).collect::<Vec<u32>>(), vec![0]);
        assert!(index.call_at(&trace, 0, 0).is_some());

        // The engine memoises one histogram per rule: O(rules x distinct
        // terminals) by design, so that product is its bound, not the input.
        let before = (LIVE.load(Relaxed), PEAK.load(Relaxed));
        PEAK.store(before.0, Relaxed);
        let engine = QueryEngine::new(&trace, &index);
        assert_eq!(engine.window_counts(0, 1), SigCounts::from([(0, 1)]));
        assert_eq!(engine.signature_counts(), &SigCounts::from([(0, 1)]));
        engine_peak = PEAK.load(Relaxed) - before.0;
        drop(engine);
        PEAK.store(before.1, Relaxed);
    });
    let allowed = allowed(bytes.len());
    assert!(peak <= allowed, "peak {peak} B for a {} B container (allowed {allowed})", bytes.len());
    // Measured: 179 B a rule — one single-entry `HashMap<u32, u64>` each.
    let allowed = 256 * DEPTH as usize;
    assert!(engine_peak <= allowed, "engine peak {engine_peak} B (allowed {allowed})");
}
