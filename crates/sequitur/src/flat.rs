//! Plain-data grammar snapshot: serialization, identity comparison, and
//! expansion (decompression).

use crate::symbol::{Symbol, TOP_RULE};
use crate::walk::{bottom_up, Cursor, Spans};
use std::borrow::Cow;
use std::fmt;

/// Why a serialized grammar (or a larger trace embedding one) failed to
/// decode. Every decoding path in the workspace reports failures through
/// this type rather than a bare `Option`, so callers can distinguish a
/// short read from structural corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// A LEB128 varint ran off the end of the buffer (or exceeded 64 bits).
    TruncatedVarint {
        /// Byte offset at which the varint began.
        offset: usize,
    },
    /// A fixed-size or counted field was cut short.
    Truncated {
        /// Which field was being read.
        what: &'static str,
        /// Byte offset at which the read began.
        offset: usize,
    },
    /// A right-hand-side symbol referenced a rule outside the grammar.
    BadRuleRef {
        /// The out-of-range rule id.
        rule: u32,
        /// Number of rules actually present.
        num_rules: usize,
    },
    /// The rule graph contains a cycle, so the grammar generates no finite
    /// sequence. Well-formed Sequitur output is always acyclic.
    CyclicRules {
        /// A rule participating in the cycle.
        rule: u32,
    },
    /// A grammar terminal's backing entry (in Pilgrim: the CST call
    /// signature the terminal indexes) failed to decode. Produced by
    /// higher layers that resolve terminals against a side table.
    BadSignature {
        /// The terminal whose backing entry is undecodable.
        term: u32,
    },
    /// Decoding succeeded but did not consume the whole buffer.
    TrailingBytes {
        /// Bytes consumed by the decoder.
        consumed: usize,
        /// Total buffer length.
        len: usize,
    },
    /// A structural invariant failed (impossible count, bad tag byte, ...).
    Corrupt {
        /// Which invariant was violated.
        what: &'static str,
        /// Byte offset of the offending field.
        offset: usize,
    },
    /// A checksummed container section's CRC32 did not match its payload.
    BadChecksum {
        /// Which section failed verification.
        section: &'static str,
        /// Byte offset of the section's payload.
        offset: usize,
    },
    /// A rank was asked for that the trace does not have. Produced by
    /// higher layers that split a grammar's expansion by rank.
    NoSuchRank {
        /// The rank asked for.
        rank: usize,
        /// Number of ranks actually present.
        nranks: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DecodeError::TruncatedVarint { offset } => {
                write!(f, "truncated varint at byte {offset}")
            }
            DecodeError::Truncated { what, offset } => {
                write!(f, "truncated {what} at byte {offset}")
            }
            DecodeError::BadRuleRef { rule, num_rules } => {
                write!(f, "rule reference {rule} out of range ({num_rules} rules)")
            }
            DecodeError::BadSignature { term } => {
                write!(f, "undecodable signature for terminal {term}")
            }
            DecodeError::CyclicRules { rule } => {
                write!(f, "rule {rule} participates in a cycle")
            }
            DecodeError::TrailingBytes { consumed, len } => {
                write!(f, "{} trailing bytes after decoding {consumed}", len - consumed)
            }
            DecodeError::Corrupt { what, offset } => {
                write!(f, "corrupt {what} at byte {offset}")
            }
            DecodeError::BadChecksum { section, offset } => {
                write!(f, "checksum mismatch in {section} section at byte {offset}")
            }
            DecodeError::NoSuchRank { rank, nranks } => {
                write!(f, "rank {rank} out of range ({nranks} ranks)")
            }
        }
    }
}

impl DecodeError {
    /// Rebases byte offsets by `base`, for decoders that hand a sub-slice
    /// to a nested decoder but want errors relative to the outer buffer.
    #[must_use]
    pub fn offset_by(self, base: usize) -> Self {
        match self {
            DecodeError::TruncatedVarint { offset } => {
                DecodeError::TruncatedVarint { offset: offset + base }
            }
            DecodeError::Truncated { what, offset } => {
                DecodeError::Truncated { what, offset: offset + base }
            }
            DecodeError::Corrupt { what, offset } => {
                DecodeError::Corrupt { what, offset: offset + base }
            }
            DecodeError::BadChecksum { section, offset } => {
                DecodeError::BadChecksum { section, offset: offset + base }
            }
            DecodeError::TrailingBytes { consumed, len } => {
                DecodeError::TrailingBytes { consumed: consumed + base, len: len + base }
            }
            e @ (DecodeError::BadRuleRef { .. }
            | DecodeError::CyclicRules { .. }
            | DecodeError::BadSignature { .. }
            | DecodeError::NoSuchRank { .. }) => e,
        }
    }
}

impl std::error::Error for DecodeError {}

/// Undecodable input met while writing or reading a stream is
/// [`InvalidData`](std::io::ErrorKind::InvalidData).
impl From<DecodeError> for std::io::Error {
    fn from(e: DecodeError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// Reads a varint, mapping a short read to [`DecodeError::TruncatedVarint`].
pub fn decode_varint(buf: &[u8], pos: &mut usize) -> Result<u64, DecodeError> {
    let offset = *pos;
    read_varint(buf, pos).ok_or(DecodeError::TruncatedVarint { offset })
}

/// One production rule: the right-hand side as `(symbol, exponent)` pairs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FlatRule {
    pub symbols: Vec<(Symbol, u64)>,
}

impl FlatRule {
    /// Rewrites every symbol in place, keeping the exponents — the one
    /// primitive behind terminal renumbering, rule-id offsetting, grafting
    /// and hash-consing.
    pub fn map_symbols(&mut self, mut f: impl FnMut(Symbol) -> Symbol) {
        for (sym, _) in &mut self.symbols {
            *sym = f(*sym);
        }
    }
}

/// A complete grammar in plain-data form. `rules[0]` is the start rule `S`;
/// `Symbol::Rule(i)` refers to `rules[i]`.
///
/// Two grammars are *identical* (the paper's fast `memcmp` check before an
/// inter-process merge) iff their [`FlatGrammar::to_ints`] arrays are equal,
/// which `PartialEq` implements structurally.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct FlatGrammar {
    pub rules: Vec<FlatRule>,
}

impl FlatGrammar {
    /// An empty grammar generating the empty sequence.
    pub fn empty() -> Self {
        FlatGrammar { rules: vec![FlatRule { symbols: Vec::new() }] }
    }

    /// Number of rules, including the start rule.
    #[inline]
    pub fn num_rules(&self) -> usize {
        self.rules.len()
    }

    /// Total number of RHS symbol slots across all rules.
    pub fn total_symbols(&self) -> usize {
        self.rules.iter().map(|r| r.symbols.len()).sum()
    }

    /// [`FlatRule::map_symbols`] over every rule.
    pub fn map_symbols(&mut self, mut f: impl FnMut(Symbol) -> Symbol) {
        for rule in &mut self.rules {
            rule.map_symbols(&mut f);
        }
    }

    /// Moves `other`'s rules behind this grammar's own, shifting their
    /// rule references into the joint id space. Returns the shift, which is
    /// also the new id of `other`'s start rule.
    pub fn append(&mut self, mut other: FlatGrammar) -> u32 {
        let offset = self.rules.len() as u32;
        other.map_symbols(|sym| match sym {
            Symbol::Rule(r) => Symbol::Rule(r + offset),
            terminal => terminal,
        });
        self.rules.append(&mut other.rules);
        offset
    }

    /// Every terminal occurrence on any right-hand side, in rule order.
    pub fn terminals(&self) -> impl Iterator<Item = u32> + '_ {
        self.rules.iter().flat_map(|r| &r.symbols).filter_map(|&(sym, _)| match sym {
            Symbol::Terminal(t) => Some(t),
            Symbol::Rule(_) => None,
        })
    }

    /// The grammar as a flat array of integers — the internal storage format
    /// the paper uses so that grammar identity can be tested with a single
    /// memory comparison.
    pub fn to_ints(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(1 + self.total_symbols() * 2 + self.rules.len());
        out.push(self.rules.len() as u64);
        for rule in &self.rules {
            out.push(rule.symbols.len() as u64);
            for &(sym, exp) in &rule.symbols {
                out.push(sym.to_int());
                out.push(exp);
            }
        }
        out
    }

    /// Rebuilds a grammar from its integer-array form.
    pub fn from_ints(ints: &[u64]) -> Option<Self> {
        let mut it = ints.iter().copied();
        let nrules = it.next()? as usize;
        let mut rules = Vec::with_capacity(nrules);
        for _ in 0..nrules {
            let len = it.next()? as usize;
            let mut symbols = Vec::with_capacity(len);
            for _ in 0..len {
                let sym = Symbol::from_int(it.next()?);
                let exp = it.next()?;
                symbols.push((sym, exp));
            }
            rules.push(FlatRule { symbols });
        }
        Some(FlatGrammar { rules })
    }

    /// Serializes the grammar with LEB128 varints; this is the on-disk form
    /// whose length the trace-size experiments measure.
    pub fn serialize(&self, out: &mut Vec<u8>) {
        for v in self.to_ints() {
            write_varint(out, v);
        }
    }

    /// Serialized size in bytes without materializing the buffer.
    pub fn byte_size(&self) -> usize {
        self.to_ints().iter().map(|&v| varint_len(v)).sum()
    }

    /// Decodes a grammar previously written by [`FlatGrammar::serialize`],
    /// validating structure as it goes: every `Symbol::Rule` reference must
    /// point at an existing rule, the rule graph must be acyclic (so the
    /// grammar generates a finite sequence) and that sequence's length must
    /// fit a `u64`. Returns the grammar and the number of bytes consumed;
    /// the caller decides whether trailing bytes are acceptable.
    pub fn decode(buf: &[u8]) -> Result<(Self, usize), DecodeError> {
        Self::decode_measured(buf).map(|(g, used, _)| (g, used))
    }

    /// [`FlatGrammar::decode`], also handing back the expanded length of
    /// the start rule — validation computes it anyway, so a caller that
    /// checks it against a length table needs no second pass.
    pub fn decode_measured(buf: &[u8]) -> Result<(Self, usize, u64), DecodeError> {
        let mut pos = 0;
        let nrules_off = pos;
        let nrules = decode_varint(buf, &mut pos)? as usize;
        // Each rule costs at least one byte (its length varint), so a count
        // larger than the remaining buffer is corruption, not a real grammar.
        // This also stops a flipped high bit from triggering a huge
        // `Vec::with_capacity` allocation.
        if nrules > buf.len().saturating_sub(pos).saturating_add(1) {
            return Err(DecodeError::Corrupt { what: "rule count", offset: nrules_off });
        }
        let mut rules = Vec::with_capacity(nrules);
        for _ in 0..nrules {
            let len_off = pos;
            let len = decode_varint(buf, &mut pos)? as usize;
            // A symbol costs at least two bytes (symbol + exponent varints).
            if len > buf.len().saturating_sub(pos) / 2 + 1 {
                return Err(DecodeError::Corrupt { what: "rule length", offset: len_off });
            }
            let mut symbols = Vec::with_capacity(len);
            for _ in 0..len {
                let sym = Symbol::from_int(decode_varint(buf, &mut pos)?);
                let exp = decode_varint(buf, &mut pos)?;
                if let Symbol::Rule(r) = sym {
                    if r as usize >= nrules {
                        return Err(DecodeError::BadRuleRef { rule: r, num_rules: nrules });
                    }
                }
                symbols.push((sym, exp));
            }
            rules.push(FlatRule { symbols });
        }
        let g = FlatGrammar { rules };
        let expanded_len = bottom_up(&g, |_, _| {})?.get(TOP_RULE as usize).copied().unwrap_or(0);
        Ok((g, pos, expanded_len))
    }

    /// Expanded length of **every** rule, respecting `A -> B^k` repeat
    /// exponents: `rule_lengths()[r]` is how many terminals rule `r`
    /// generates. Each rule body is visited once (O(grammar size)); this
    /// is the per-rule annotation the trace index is built from. Decoded
    /// grammars are acyclic and overflow-free; one assembled in memory that
    /// is not reports all-zero lengths, so every length check against it
    /// fails instead of the process aborting.
    pub fn rule_lengths(&self) -> Vec<u64> {
        bottom_up(self, |_, _| {}).unwrap_or_else(|_| vec![0; self.rules.len()])
    }

    /// Length of the generated terminal sequence, without expanding it.
    pub fn expanded_len(&self) -> u64 {
        self.rule_lengths().get(TOP_RULE as usize).copied().unwrap_or(0)
    }

    /// Streams offsets `[lo, hi)` of the generated sequence (clamped to it)
    /// through a [`Cursor`] that measures the grammar itself: O(grammar) to
    /// set up, O(depth) memory after that, and it costs what is consumed.
    pub fn terms(&self, lo: u64, hi: u64) -> Cursor<'_> {
        Cursor::new(self, Cow::Owned(Spans::measure(self)), lo, hi)
    }

    /// Fully expands the grammar back into the original terminal sequence.
    /// O(sequence) memory by contract, grown as the walk yields — for input
    /// that is not trusted, stream [`FlatGrammar::terms`] instead.
    pub fn expand(&self) -> Vec<u32> {
        note_expansion();
        self.terms(0, u64::MAX).collect()
    }
}

thread_local! {
    /// Count of full-grammar expansions performed on this thread; see
    /// [`expansions`].
    static EXPANSIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[inline]
fn note_expansion() {
    EXPANSIONS.with(|c| c.set(c.get() + 1));
}

/// Number of full grammar expansions ([`FlatGrammar::expand`]) performed
/// **on the calling thread** so far. Grammar-aware analytics answer queries
/// without ever expanding the grammar; tests assert that by reading this
/// counter before and after a query. Thread-local so concurrently running
/// tests don't interfere.
pub fn expansions() -> u64 {
    EXPANSIONS.with(|c| c.get())
}

/// LEB128 unsigned varint encoding.
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Number of bytes [`write_varint`] produces for `v`.
pub fn varint_len(v: u64) -> usize {
    if v == 0 {
        1
    } else {
        (64 - v.leading_zeros() as usize).div_ceil(7)
    }
}

/// LEB128 unsigned varint decoding; advances `pos`.
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift >= 64 {
            return None;
        }
    }
}
