//! The compressed-trace query engine.
//!
//! A trace is read back in one of two modes, both through the one grammar
//! walker in `pilgrim-sequitur` (DESIGN.md §13). *Materialising*:
//! [`GlobalTrace::decode_rank`](crate::GlobalTrace::decode_rank),
//! `decode_all_ranks` and [`decode_rank_calls`](crate::decode_rank_calls)
//! walk a rank's span and return it whole — O(calls) memory by contract,
//! fine for a trace you recorded yourself. *Streaming*: everything in this
//! module answers from the compressed grammar, in memory bounded by the
//! grammar's size and never by what it generates — the only safe way to
//! read a container whose grammar may be exponentially smaller than its
//! expansion. Three layers:
//!
//! * [`TraceIndex`] — annotates every grammar rule with its expanded
//!   length (respecting `A -> B^k` repeat exponents), giving O(depth)
//!   random access to the i-th call of any rank and O(depth · log body)
//!   seek-to-offset. Built once per trace, serializable alongside it.
//! * [`TermCursor`] / [`CallIterator`] — pull-based streaming decode
//!   over the walker's explicit-stack cursor; `skip`/`take` windows run
//!   in constant memory, never materializing the expansion.
//! * [`QueryEngine`] — grammar-aware analytics (per-signature call
//!   counts, the send/recv communication matrix, per-signature aggregate
//!   time) computed by evaluating each rule body once, bottom-up, and
//!   weighting by repeat counts; a window query sums the cover the cursor
//!   yields for it, descending only into the rule instances it cuts.
//!
//! Index construction is timed under
//! [`Stage::IndexBuild`](crate::metrics::Stage::IndexBuild) and query
//! execution under [`Stage::Query`](crate::metrics::Stage::Query) when a
//! [`MetricsRegistry`](crate::metrics::MetricsRegistry) is supplied, so
//! benchmarks can report query-vs-full-decode speedups.

mod analytics;
mod index;
mod stream;

pub use analytics::{CommMatrix, QueryEngine, SigCounts, SignatureSummary};
pub use index::TraceIndex;
pub use stream::{CallIterator, TermCursor};
