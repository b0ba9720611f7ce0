//! The call signature table (CST, paper §2.1).
//!
//! Maps each distinct call signature to a grammar terminal and keeps
//! per-signature aggregate timing (the default timing mode: average call
//! duration, §3.2).

use std::collections::HashMap;

use pilgrim_sequitur::{decode_varint, write_varint, DecodeError};

/// Aggregate statistics kept per signature.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SigStats {
    /// Number of calls with this signature.
    pub count: u64,
    /// Sum of call durations (simulated ns).
    pub dur_sum: u64,
}

impl SigStats {
    /// Average duration of calls with this signature.
    pub fn avg_duration(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.dur_sum as f64 / self.count as f64
        }
    }
}

/// A per-rank (or merged) call signature table.
#[derive(Debug, Default, Clone)]
pub struct Cst {
    map: HashMap<Vec<u8>, u32>,
    entries: Vec<(Vec<u8>, SigStats)>,
    /// Incrementally maintained resident-byte estimate (see
    /// [`Cst::approx_bytes`]); updated only when a new entry is interned.
    approx_bytes: usize,
}

/// Estimated per-entry overhead beyond the signature bytes themselves:
/// map key copy, hash-table slot, entry tuple, and stats.
const ENTRY_OVERHEAD: usize = 96;

impl Cst {
    pub fn new() -> Self {
        Cst::default()
    }

    /// Interns a signature, returning its terminal and recording one call
    /// of `duration`.
    pub fn observe(&mut self, sig: &[u8], duration: u64) -> u32 {
        self.intern(sig, SigStats { count: 1, dur_sum: duration })
    }

    /// Interns a signature, adding `stats` to whatever it already holds.
    pub fn intern(&mut self, sig: &[u8], stats: SigStats) -> u32 {
        let term = match self.map.get(sig) {
            Some(&t) => t,
            None => {
                let t = self.entries.len() as u32;
                self.map.insert(sig.to_vec(), t);
                self.entries.push((sig.to_vec(), SigStats::default()));
                self.approx_bytes += 2 * sig.len() + ENTRY_OVERHEAD;
                t
            }
        };
        let held = &mut self.entries[term as usize].1;
        held.count += stats.count;
        held.dur_sum += stats.dur_sum;
        term
    }

    /// Interns every entry of `other` (a segment's, a checkpoint's or a
    /// peer's table) and returns the renumbering `other`'s terminals need
    /// to live in this table: `remap[old] == new`.
    pub fn absorb(&mut self, other: &Cst) -> Vec<u32> {
        other.entries.iter().map(|(sig, stats)| self.intern(sig, *stats)).collect()
    }

    /// O(1) estimate of the table's resident bytes (two copies of every
    /// signature plus per-entry overhead), maintained incrementally for
    /// the governor's live budget accounting — unlike [`Cst::byte_size`],
    /// which is the O(n) serialized size.
    #[inline]
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }

    /// Looks up a signature's terminal without inserting.
    pub fn lookup(&self, sig: &[u8]) -> Option<u32> {
        self.map.get(sig).copied()
    }

    /// Number of distinct signatures.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The signature bytes for a terminal.
    pub fn signature(&self, term: u32) -> &[u8] {
        &self.entries[term as usize].0
    }

    /// The aggregate stats for a terminal.
    pub fn stats(&self, term: u32) -> SigStats {
        self.entries[term as usize].1
    }

    /// Iterates `(terminal, signature, stats)` in terminal order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[u8], SigStats)> + '_ {
        self.entries.iter().enumerate().map(|(i, (sig, st))| (i as u32, sig.as_slice(), *st))
    }

    /// Serialized size in bytes (what the trace-size experiments count).
    pub fn byte_size(&self) -> usize {
        let mut buf = Vec::new();
        self.serialize(&mut buf);
        buf.len()
    }

    /// Serializes the table: count, then per entry (len, bytes, stats).
    pub fn serialize(&self, out: &mut Vec<u8>) {
        write_varint(out, self.entries.len() as u64);
        for (sig, stats) in &self.entries {
            write_varint(out, sig.len() as u64);
            out.extend_from_slice(sig);
            write_varint(out, stats.count);
            write_varint(out, stats.dur_sum);
        }
    }

    /// Decodes a table written by [`Cst::serialize`], advancing `pos` and
    /// reporting exactly where a malformed buffer went wrong.
    pub fn decode(buf: &[u8], pos: &mut usize) -> Result<Cst, DecodeError> {
        let count_off = *pos;
        let n = decode_varint(buf, pos)? as usize;
        // Every entry costs at least three bytes (length + two stat
        // varints), so an impossible count is corruption, not data.
        if n > buf.len().saturating_sub(*pos) / 3 + 1 {
            return Err(DecodeError::Corrupt { what: "CST entry count", offset: count_off });
        }
        let mut cst = Cst::new();
        for _ in 0..n {
            let len = decode_varint(buf, pos)? as usize;
            let sig_off = *pos;
            let sig = buf
                .get(*pos..pos.saturating_add(len))
                .ok_or(DecodeError::Truncated { what: "CST signature", offset: sig_off })?
                .to_vec();
            *pos += len;
            let count = decode_varint(buf, pos)?;
            let dur_sum = decode_varint(buf, pos)?;
            cst.intern(&sig, SigStats { count, dur_sum });
        }
        Ok(cst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_signatures_get_one_terminal() {
        let mut c = Cst::new();
        let a1 = c.observe(b"send:1", 100);
        let b = c.observe(b"recv:0", 150);
        let a2 = c.observe(b"send:1", 120);
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert_eq!(c.len(), 2);
        let st = c.stats(a1);
        assert_eq!(st.count, 2);
        assert_eq!(st.dur_sum, 220);
        assert!((st.avg_duration() - 110.0).abs() < 1e-9);
    }

    #[test]
    fn terminals_are_dense_and_ordered() {
        let mut c = Cst::new();
        for i in 0..10u8 {
            assert_eq!(c.observe(&[i], 1), i as u32);
        }
    }

    #[test]
    fn lookup_does_not_insert() {
        let mut c = Cst::new();
        assert_eq!(c.lookup(b"x"), None);
        c.observe(b"x", 1);
        assert_eq!(c.lookup(b"x"), Some(0));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn serialize_roundtrip() {
        let mut c = Cst::new();
        c.observe(b"alpha", 10);
        c.observe(b"beta", 20);
        c.observe(b"alpha", 30);
        let mut buf = Vec::new();
        c.serialize(&mut buf);
        assert_eq!(buf.len(), c.byte_size());
        let mut pos = 0;
        let back = Cst::decode(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(back.len(), 2);
        assert_eq!(back.signature(0), b"alpha");
        assert_eq!(back.stats(0), SigStats { count: 2, dur_sum: 40 });
    }

    #[test]
    fn intern_merges_stats() {
        let mut c = Cst::new();
        c.intern(b"s", SigStats { count: 3, dur_sum: 30 });
        c.intern(b"s", SigStats { count: 2, dur_sum: 20 });
        assert_eq!(c.stats(0), SigStats { count: 5, dur_sum: 50 });
    }

    #[test]
    fn absorb_returns_the_renumbering() {
        let mut a = Cst::new();
        a.observe(b"x", 1);
        a.observe(b"y", 2);
        let mut b = Cst::new();
        b.observe(b"z", 3);
        b.observe(b"x", 4);
        assert_eq!(a.absorb(&b), vec![2, 0]);
        assert_eq!(a.len(), 3);
        assert_eq!(a.stats(0), SigStats { count: 2, dur_sum: 5 });
        assert_eq!(a.signature(2), b"z");
    }

    #[test]
    fn empty_table_roundtrip() {
        let c = Cst::new();
        let mut buf = Vec::new();
        c.serialize(&mut buf);
        let mut pos = 0;
        let back = Cst::decode(&buf, &mut pos).unwrap();
        assert!(back.is_empty());
    }
}
