//! Optimized Sequitur grammar compression, as used by the Pilgrim MPI tracer
//! (Wang, Balaji, Snir — SC '21, §2.2).
//!
//! A [`Grammar`] incrementally compresses a sequence of `u32` terminal
//! symbols into an acyclic context-free grammar that generates exactly that
//! sequence. The classic Sequitur invariants are enforced online:
//!
//! * **P1 (digram uniqueness)** — no pair of adjacent symbols appears more
//!   than once in the grammar; a repeated digram becomes a new rule.
//! * **P2 (rule utility)** — every rule is referenced more than once;
//!   single-use rules are inlined and deleted.
//!
//! On top of classic Sequitur this implementation adds the paper's
//! *repetition count* optimization: every right-hand-side symbol carries an
//! exponent, and adjacent equal symbols are merged (`B B -> B^2`,
//! `B^i B^j -> B^{i+j}`). A loop of `N` identical iterations therefore
//! compresses to **O(1)** grammar space instead of `O(log N)`.
//!
//! [`FlatGrammar`] is a plain-data snapshot of a grammar used for
//! serialization (compact varint encoding), identity comparison between
//! ranks (an integer-array form that can be compared with `memcmp`
//! semantics), and the inter-process merge implemented by the `pilgrim`
//! crate. Everything that reads a [`FlatGrammar`] back — lengths, random
//! access, streaming expansion, window covers — goes through the one
//! iterative walker in [`walk`](bottom_up): a bottom-up pass and a
//! seekable explicit-stack [`Cursor`].

mod flat;
mod grammar;
mod symbol;
mod walk;

pub use flat::{
    decode_varint, expansions, read_varint, varint_len, write_varint, DecodeError, FlatGrammar,
    FlatRule,
};
pub use grammar::{compress_runs, Grammar, GrammarStats};
pub use symbol::{Symbol, TOP_RULE};
pub use walk::{bottom_up, Cursor, Spans};

#[cfg(test)]
mod tests;
