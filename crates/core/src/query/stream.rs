//! Pull-based streaming decode over the grammar walker's explicit-stack
//! [`Cursor`] instead of a materialized expansion.
//!
//! [`TermCursor`] yields raw terminals; [`CallIterator`] decodes them into
//! [`EncodedCall`]s one at a time, so a window query over a billion-call
//! rank holds O(grammar depth) state plus a single decoded call — never a
//! `Vec<EncodedCall>` of the whole rank.

use pilgrim_sequitur::{Cursor, DecodeError};

use crate::encode::EncodedCall;
use crate::trace::GlobalTrace;

use super::index::TraceIndex;

/// Streaming cursor over the terminals a trace's grammar generates,
/// holding only an explicit rule stack (O(grammar depth) memory).
///
/// Created positioned at a global offset; [`TermCursor::next`] advances
/// one terminal at a time, and [`TermCursor::seek`] re-positions in
/// O(depth · log body) using the index — no expansion either way.
#[derive(Debug, Clone)]
pub struct TermCursor<'a>(Cursor<'a>);

impl<'a> TermCursor<'a> {
    /// A cursor positioned at global offset `start`.
    pub fn new(trace: &'a GlobalTrace, index: &'a TraceIndex, start: u64) -> Self {
        TermCursor(index.cursor(trace, start, u64::MAX))
    }

    /// Global offset of the next terminal to be yielded.
    pub fn position(&self) -> u64 {
        self.0.position()
    }

    /// Re-positions the cursor at global offset `off`. Seeking at or past
    /// the end leaves the cursor exhausted.
    pub fn seek(&mut self, off: u64) {
        self.0.seek(off);
    }
}

impl Iterator for TermCursor<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        self.0.next()
    }

    /// Constant-memory skip: seeks directly instead of stepping `n` times.
    fn nth(&mut self, n: usize) -> Option<u32> {
        self.0.nth(n)
    }
}

/// Pull-based call decoder over one rank's window of the trace.
///
/// Wraps a [`Cursor`] clamped to the rank's span and decodes each
/// terminal's CST signature on demand. `skip(n)` is constant-time (it
/// routes through the cursor's seek) and `take(n)` bounds the window, so
/// `iter.skip(a).take(b)` scans an arbitrary slice of a rank in
/// O(depth + b) with O(depth) memory. It reports no `size_hint` — what a
/// rank declares is not what a collector should reserve; ask
/// [`CallIterator::remaining`].
#[derive(Debug, Clone)]
pub struct CallIterator<'a> {
    trace: &'a GlobalTrace,
    terms: Cursor<'a>,
    /// Global offset of the rank's first call.
    start: u64,
}

impl<'a> CallIterator<'a> {
    /// An iterator over all of rank `rank`'s calls.
    pub fn new(trace: &'a GlobalTrace, index: &'a TraceIndex, rank: usize) -> Self {
        let (start, end) = index.rank_span(rank);
        CallIterator { trace, terms: index.cursor(trace, start, end), start }
    }

    /// Rank-local index of the next call to be yielded.
    pub fn position(&self) -> u64 {
        self.terms.position().saturating_sub(self.start)
    }

    /// Remaining calls in the window.
    pub fn remaining(&self) -> u64 {
        self.terms.remaining()
    }
}

impl Iterator for CallIterator<'_> {
    type Item = Result<EncodedCall, DecodeError>;

    fn next(&mut self) -> Option<Self::Item> {
        let term = self.terms.next()?;
        Some(crate::decode::decode_term_call(self.trace, term))
    }

    fn nth(&mut self, n: usize) -> Option<Self::Item> {
        let term = self.terms.nth(n)?;
        Some(crate::decode::decode_term_call(self.trace, term))
    }
}

#[cfg(test)]
mod tests {
    use super::super::index::tests::repeat_trace;
    use super::*;

    #[test]
    fn cursor_streams_the_full_expansion() {
        let t = repeat_trace();
        let idx = TraceIndex::build(&t);
        let full = t.grammar.expand();
        let got: Vec<u32> = TermCursor::new(&t, &idx, 0).collect();
        assert_eq!(got, full);
    }

    #[test]
    fn seek_lands_anywhere_including_repeat_boundaries() {
        let t = repeat_trace();
        let idx = TraceIndex::build(&t);
        let full = t.grammar.expand();
        let mut cur = TermCursor::new(&t, &idx, 0);
        for start in 0..=full.len() {
            cur.seek(start as u64);
            let got: Vec<u32> = cur.clone().collect();
            assert_eq!(got, full[start..], "suffix from {start}");
        }
    }

    #[test]
    fn nth_skips_in_constant_memory_and_matches_indexing() {
        let t = repeat_trace();
        let idx = TraceIndex::build(&t);
        let full = t.grammar.expand();
        for n in [0usize, 1, 5, 11, 12, 13, 18] {
            let mut cur = TermCursor::new(&t, &idx, 0);
            assert_eq!(cur.nth(n), full.get(n).copied(), "nth({n})");
        }
        let mut cur = TermCursor::new(&t, &idx, 0);
        assert_eq!(cur.nth(full.len()), None);
    }

    #[test]
    fn call_iterator_respects_rank_windows() {
        let t = repeat_trace();
        let idx = TraceIndex::build(&t);
        let ranks = t.decode_all_ranks();
        for (rank, rank_terms) in ranks.iter().enumerate() {
            let terms: Vec<u32> = CallIterator::new(&t, &idx, rank)
                .map(|c| {
                    let call = c.expect("decodable");
                    // repeat_trace signatures are one func byte + one arg
                    // byte; the func id distinguishes them.
                    call.func as u32
                })
                .collect();
            let want: Vec<u32> = rank_terms
                .iter()
                .map(|&term| {
                    crate::decode::decode_term_call(&t, term).expect("decodable").func as u32
                })
                .collect();
            assert_eq!(terms, want, "rank {rank}");
            assert_eq!(CallIterator::new(&t, &idx, rank).remaining(), rank_terms.len() as u64);
        }
    }

    #[test]
    fn offsets_past_the_end_are_exhausted_however_far_past() {
        // Rank 1 starts at global offset 13: an index that wraps lands on
        // rank 0's calls instead of past rank 1's end.
        let t = repeat_trace();
        let idx = TraceIndex::build(&t);
        for huge in [6, 7, u64::MAX - 13, u64::MAX - 12, u64::MAX] {
            assert_eq!(idx.rank_term(&t, 1, huge), None, "rank_term {huge}");
            assert_eq!(idx.call_at(&t, 1, huge), None, "call_at {huge}");
            let mut calls = CallIterator::new(&t, &idx, 1);
            assert!(calls.nth(huge as usize).is_none(), "nth {huge}");
            assert_eq!((calls.position(), calls.remaining()), (6, 0));
            let mut terms = TermCursor::new(&t, &idx, 13);
            assert_eq!(terms.nth(huge as usize), None);
            assert_eq!(terms.next(), None);
        }
        assert_eq!(CallIterator::new(&t, &idx, 1).skip(usize::MAX).count(), 0);
        assert_eq!(idx.rank_span(usize::MAX), (0, 0));
    }

    #[test]
    fn call_iterator_skip_take_window() {
        let t = repeat_trace();
        let idx = TraceIndex::build(&t);
        let all: Vec<EncodedCall> =
            CallIterator::new(&t, &idx, 0).map(|c| c.expect("decodable")).collect();
        let window: Vec<EncodedCall> =
            CallIterator::new(&t, &idx, 0).skip(4).take(6).map(|c| c.expect("decodable")).collect();
        assert_eq!(window, all[4..10]);
        // Windows clamped past the end are empty, not panics.
        assert_eq!(CallIterator::new(&t, &idx, 0).skip(1000).count(), 0);
    }
}
