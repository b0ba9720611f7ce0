//! Crash-consistent per-rank snapshots.
//!
//! The tracer periodically serializes its CST and grammar
//! ([`PilgrimConfig::checkpoint_interval`](crate::PilgrimConfig)) and
//! deposits the bytes with the runtime. When a rank dies mid-run, the
//! degraded merge recovers the rank's last checkpoint so its trace is
//! truncated — not lost — and the completeness manifest records how many
//! calls the snapshot covered.

use pilgrim_sequitur::{decode_varint, write_varint, DecodeError, FlatGrammar};

use crate::cst::Cst;

/// A decoded per-rank snapshot: everything needed to splice the rank's
/// truncated trace into a merge.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Traced calls covered by this snapshot.
    pub calls: u64,
    /// The rank's CST at snapshot time.
    pub cst: Cst,
    /// The rank's grammar at snapshot time (terminals are local CST ids).
    pub grammar: FlatGrammar,
}

/// Serializes a snapshot of `calls` traced calls.
pub fn encode_checkpoint(calls: u64, cst: &Cst, grammar: &FlatGrammar) -> Vec<u8> {
    let mut out = Vec::new();
    write_varint(&mut out, calls);
    cst.serialize(&mut out);
    grammar.serialize(&mut out);
    out
}

/// Decodes a snapshot written by [`encode_checkpoint`]. The whole buffer
/// must be consumed, and every grammar terminal must name an entry of the
/// snapshot's own CST — everything downstream (segment assembly, the
/// streaming merge, checkpoint recovery, WAL replay) renumbers terminals
/// by indexing that table.
pub fn decode_checkpoint(buf: &[u8]) -> Result<Checkpoint, DecodeError> {
    let mut pos = 0usize;
    let calls = decode_varint(buf, &mut pos)?;
    let cst = Cst::decode(buf, &mut pos)?;
    let grammar_off = pos;
    let (grammar, used) = FlatGrammar::decode(&buf[pos..]).map_err(|e| e.offset_by(pos))?;
    pos += used;
    if grammar.terminals().any(|t| t as usize >= cst.len()) {
        return Err(DecodeError::Corrupt { what: "terminal", offset: grammar_off });
    }
    if pos != buf.len() {
        return Err(DecodeError::TrailingBytes { consumed: pos, len: buf.len() });
    }
    Ok(Checkpoint { calls, cst, grammar })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilgrim_sequitur::Grammar;

    #[test]
    fn checkpoint_roundtrip() {
        let mut cst = Cst::new();
        cst.observe(b"sig-a", 5);
        cst.observe(b"sig-b", 7);
        let mut g = Grammar::new();
        for _ in 0..4 {
            g.push(0);
            g.push(1);
        }
        let bytes = encode_checkpoint(8, &cst, &g.to_flat());
        let ck = decode_checkpoint(&bytes).expect("roundtrip");
        assert_eq!(ck.calls, 8);
        assert_eq!(ck.cst.len(), 2);
        assert_eq!(ck.grammar.expanded_len(), 8);
    }

    #[test]
    fn truncated_checkpoint_is_rejected() {
        let mut cst = Cst::new();
        cst.observe(b"x", 1);
        let mut g = Grammar::new();
        g.push(0);
        let bytes = encode_checkpoint(1, &cst, &g.to_flat());
        for cut in 0..bytes.len() {
            assert!(decode_checkpoint(&bytes[..cut]).is_err(), "prefix {cut} accepted");
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(decode_checkpoint(&extended).is_err(), "trailing byte accepted");
    }

    #[test]
    fn terminal_beyond_the_snapshot_cst_is_rejected() {
        let mut cst = Cst::new();
        cst.observe(b"only", 1);
        let mut g = Grammar::new();
        g.push(7);
        let bytes = encode_checkpoint(1, &cst, &g.to_flat());
        assert!(matches!(
            decode_checkpoint(&bytes),
            Err(DecodeError::Corrupt { what: "terminal", .. })
        ));
    }
}
