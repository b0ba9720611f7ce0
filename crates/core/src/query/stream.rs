//! Pull-based streaming decode: walk the grammar with an explicit rule
//! stack instead of materializing the expansion.
//!
//! [`TermCursor`] yields raw terminals; [`CallIterator`] decodes them into
//! [`EncodedCall`]s one at a time, so a window query over a billion-call
//! rank holds O(grammar depth) state plus a single decoded call — never a
//! `Vec<EncodedCall>` of the whole rank.

use pilgrim_sequitur::{Symbol, TOP_RULE};

use crate::encode::EncodedCall;
use crate::trace::GlobalTrace;

use super::index::TraceIndex;

/// One level of the descent: the cursor is inside `rule`, at RHS slot
/// `idx`, with `reps_left` instances of `symbols[idx]` not yet started.
#[derive(Debug, Clone, Copy)]
struct Frame {
    rule: usize,
    idx: usize,
    reps_left: u64,
}

/// Streaming cursor over the terminals a trace's grammar generates,
/// holding only an explicit rule stack (O(grammar depth) memory).
///
/// Created positioned at a global offset; [`TermCursor::next`] advances
/// one terminal at a time, and [`TermCursor::seek`] re-positions in
/// O(depth · log body) using the index — no expansion either way.
#[derive(Debug, Clone)]
pub struct TermCursor<'a> {
    trace: &'a GlobalTrace,
    index: &'a TraceIndex,
    stack: Vec<Frame>,
    /// Global offset of the next terminal `next` will yield.
    pos: u64,
}

impl<'a> TermCursor<'a> {
    /// A cursor positioned at global offset `start`.
    pub fn new(trace: &'a GlobalTrace, index: &'a TraceIndex, start: u64) -> Self {
        let mut c = TermCursor { trace, index, stack: Vec::new(), pos: 0 };
        c.seek(start);
        c
    }

    /// Global offset of the next terminal to be yielded.
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Re-positions the cursor at global offset `off` by descending from
    /// the start rule, binary-searching each rule body's cumulative
    /// spans. Seeking at or past the end leaves the cursor exhausted.
    pub fn seek(&mut self, off: u64) {
        self.stack.clear();
        self.pos = off;
        let total = self.index.rule_len(TOP_RULE as usize);
        if off >= total || self.trace.grammar.rules.len() != self.index.rule_lens().len() {
            return;
        }
        let rules = &self.trace.grammar.rules;
        let mut rid = TOP_RULE as usize;
        let mut off = off;
        loop {
            let cum = self.index.cum(rid);
            // Never a zero-width slot, so `unit` below is never 0 — see
            // `TraceIndex::term_at`.
            let slot = cum.partition_point(|&c| c <= off) - 1;
            let (sym, exp) = rules[rid].symbols[slot];
            let within = off - cum[slot];
            match sym {
                Symbol::Terminal(_) => {
                    // `within` instances of the terminal are already
                    // consumed; the next `next()` yields instance `within`.
                    self.stack.push(Frame { rule: rid, idx: slot, reps_left: exp - within });
                    return;
                }
                Symbol::Rule(r) => {
                    let unit = self.index.rule_len(r as usize);
                    let inst = within / unit;
                    // The instance we descend into is already "started".
                    self.stack.push(Frame { rule: rid, idx: slot, reps_left: exp - inst - 1 });
                    rid = r as usize;
                    off = within % unit;
                }
            }
        }
    }
}

impl Iterator for TermCursor<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        let rules = &self.trace.grammar.rules;
        loop {
            let frame = self.stack.last_mut()?;
            let body = &rules[frame.rule].symbols;
            if frame.idx >= body.len() {
                self.stack.pop();
                continue;
            }
            if frame.reps_left == 0 {
                frame.idx += 1;
                if let Some(&(_, exp)) = body.get(frame.idx) {
                    frame.reps_left = exp;
                }
                continue;
            }
            frame.reps_left -= 1;
            match body[frame.idx].0 {
                Symbol::Terminal(t) => {
                    self.pos += 1;
                    return Some(t);
                }
                Symbol::Rule(r) => {
                    let r = r as usize;
                    let first_exp = rules[r].symbols.first().map_or(0, |&(_, e)| e);
                    self.stack.push(Frame { rule: r, idx: 0, reps_left: first_exp });
                }
            }
        }
    }

    /// Constant-memory skip: seeks directly instead of stepping `n` times.
    fn nth(&mut self, n: usize) -> Option<u32> {
        self.seek(self.pos + n as u64);
        self.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.index.rule_len(TOP_RULE as usize).saturating_sub(self.pos) as usize;
        (left, Some(left))
    }
}

/// Pull-based call decoder over one rank's window of the trace.
///
/// Wraps a [`TermCursor`] clamped to the rank's span and decodes each
/// terminal's CST signature on demand. `skip(n)` is constant-time (it
/// routes through [`TermCursor::nth`]'s seek) and `take(n)` bounds the
/// window, so `iter.skip(a).take(b)` scans an arbitrary slice of a rank
/// in O(depth + b) with O(depth) memory.
#[derive(Debug, Clone)]
pub struct CallIterator<'a> {
    cursor: TermCursor<'a>,
    /// Global offset of the rank's first call.
    start: u64,
    /// Global offset one past the rank's last call.
    end: u64,
}

impl<'a> CallIterator<'a> {
    /// An iterator over all of rank `rank`'s calls.
    pub fn new(trace: &'a GlobalTrace, index: &'a TraceIndex, rank: usize) -> Self {
        let (start, end) = index.rank_span(rank);
        CallIterator { cursor: TermCursor::new(trace, index, start), start, end }
    }

    /// Rank-local index of the next call to be yielded.
    pub fn position(&self) -> u64 {
        self.cursor.position().min(self.end) - self.start
    }

    /// Remaining calls in the window.
    pub fn remaining(&self) -> u64 {
        self.end.saturating_sub(self.cursor.position())
    }

    /// The next raw terminal without decoding it.
    fn next_term(&mut self) -> Option<u32> {
        if self.cursor.position() >= self.end {
            return None;
        }
        self.cursor.next()
    }
}

impl Iterator for CallIterator<'_> {
    type Item = Result<EncodedCall, pilgrim_sequitur::DecodeError>;

    fn next(&mut self) -> Option<Self::Item> {
        let term = self.next_term()?;
        Some(crate::decode::decode_term_call(self.cursor.trace, term))
    }

    fn nth(&mut self, n: usize) -> Option<Self::Item> {
        let target = self.cursor.position() + n as u64;
        if target >= self.end {
            self.cursor.seek(self.end);
            return None;
        }
        self.cursor.seek(target);
        self.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.remaining() as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for CallIterator<'_> {}

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
            assert_eq!(CallIterator::new(&t, &idx, rank).len(), rank_terms.len());
        }
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
