//! Online Sequitur grammar construction with repetition counts.
//!
//! The grammar is stored as a set of rules; each rule's right-hand side is a
//! circular doubly-linked list of nodes threaded through one arena
//! (`Vec<Node>`), with one *guard* node per rule marking the list head. A
//! digram index maps each adjacent symbol pair to one of its occurrences so
//! that property P1 (digram uniqueness) can be enforced in O(1) amortized
//! time per appended symbol.
//!
//! Unlike textbook Sequitur, every node carries an exponent: adjacent equal
//! symbols are merged (`B^i B^j -> B^{i+j}`). Digram keys therefore include
//! the exponents, and a run of N identical loop iterations collapses to a
//! single counted reference in constant space (paper §2.2).
//!
//! Invariant maintenance uses an explicit dirty-node worklist instead of
//! recursion: every mutation marks the digram start positions it disturbed,
//! and `drain` re-checks them until the grammar is quiescent. This keeps the
//! index consistent through the cascade of substitutions, merges, and rule
//! inlinings a single append can trigger.

use std::collections::HashMap;

use crate::flat::{FlatGrammar, FlatRule};
use crate::symbol::{Symbol, TOP_RULE};

type NodeId = u32;
const NIL: NodeId = u32::MAX;

/// Digram key: both symbols and both exponents must match for two digrams
/// to be considered equal occurrences.
type DigramKey = (Symbol, u64, Symbol, u64);

/// FNV-1a with the standard offset basis — a fixed-seed hasher for the
/// digram index. `RandomState` draws a fresh seed per map, which makes
/// the table's bucket layout (and therefore its capacity after the
/// insert/erase churn Sequitur generates) differ between otherwise
/// identical runs; `approx_bytes` counts that capacity, so the resource
/// governor would trip at different calls and break the seeded-run
/// byte-determinism guarantee. A deterministic hash keeps the whole
/// table history a pure function of the input sequence.
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xCBF2_9CE4_8422_2325)
    }
}

impl std::hash::Hasher for Fnv1a {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

type DigramIndex = HashMap<DigramKey, NodeId, std::hash::BuildHasherDefault<Fnv1a>>;

#[derive(Debug, Clone)]
struct Node {
    sym: Symbol,
    exp: u64,
    prev: NodeId,
    next: NodeId,
    /// Rule id this node guards, or `NIL` for ordinary symbol nodes.
    guard_of: u32,
    alive: bool,
}

#[derive(Debug, Clone)]
struct RuleInfo {
    /// Guard node: its `next` is the first RHS node, `prev` the last.
    guard: NodeId,
    /// Number of RHS nodes (across all rules) referencing this rule.
    refs: u32,
    alive: bool,
}

/// An incrementally built Sequitur grammar over `u32` terminals.
///
/// ```
/// use pilgrim_sequitur::Grammar;
/// let mut g = Grammar::new();
/// for _ in 0..1000 {
///     for t in [1, 2, 3] {
///         g.push(t);
///     }
/// }
/// // A loop of 1000 identical iterations compresses to O(1) rules.
/// assert!(g.num_rules() <= 3);
/// let flat = g.to_flat();
/// assert_eq!(flat.expanded_len(), 3000);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Grammar {
    nodes: Vec<Node>,
    free_nodes: Vec<NodeId>,
    rules: Vec<RuleInfo>,
    free_rules: Vec<u32>,
    digrams: DigramIndex,
    dirty: Vec<NodeId>,
    input_len: u64,
    utility_inlines: u64,
    /// Append-only mode: rule creation disabled, digram table dropped.
    frozen: bool,
}

/// A point-in-time snapshot of a grammar's internal size counters, exposed
/// for the `pilgrim` metrics registry. Cheap to take except for the live
/// rule/symbol scans, which are O(nodes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GrammarStats {
    /// Live rules, including the start rule.
    pub rules: usize,
    /// Live right-hand-side symbol slots across all rules.
    pub symbols: usize,
    /// Entries currently held by the digram (P1) uniqueness index.
    pub digram_entries: usize,
    /// Rules deleted so far by the utility (P2) invariant — each one was
    /// inlined back into its single remaining use site.
    pub utility_inlines: u64,
    /// Terminals pushed so far (uncompressed input length).
    pub input_len: u64,
}

impl Grammar {
    /// Creates an empty grammar containing only the start rule `S`.
    pub fn new() -> Self {
        let mut g = Grammar {
            nodes: Vec::new(),
            free_nodes: Vec::new(),
            rules: Vec::new(),
            free_rules: Vec::new(),
            digrams: DigramIndex::default(),
            dirty: Vec::new(),
            input_len: 0,
            utility_inlines: 0,
            frozen: false,
        };
        let top = g.new_rule();
        debug_assert_eq!(top, TOP_RULE);
        g
    }

    /// Appends one terminal to the compressed sequence.
    #[inline]
    pub fn push(&mut self, t: u32) {
        self.push_run(t, 1);
    }

    /// Appends `n` consecutive copies of terminal `t` (a counted run).
    pub fn push_run(&mut self, t: u32, n: u64) {
        if n == 0 {
            return;
        }
        self.input_len += n;
        if self.frozen {
            self.append_frozen(Symbol::Terminal(t), n);
            return;
        }
        self.append_symbol(Symbol::Terminal(t), n);
        self.drain();
    }

    /// Switches the grammar into append-only mode: the digram index and
    /// worklist are dropped, and every subsequent push appends the symbol
    /// to the start rule raw (tail runs still merge). Rules created so far
    /// keep compressing repeats of whole runs, but no new rules form.
    /// Irreversible; memory growth becomes strictly bounded per push.
    pub fn freeze(&mut self) {
        if self.frozen {
            return;
        }
        self.frozen = true;
        self.digrams = DigramIndex::default();
        self.dirty = Vec::new();
    }

    /// True once [`Grammar::freeze`] has been called.
    #[inline]
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// O(1) estimate of the grammar's resident bytes: arena nodes, rule
    /// table, digram index, and worklists at their current lengths. Used
    /// for live budget accounting, where an exact `malloc`-level answer
    /// matters less than a monotone, allocation-free signal.
    pub fn approx_bytes(&self) -> usize {
        const DIGRAM_ENTRY: usize =
            std::mem::size_of::<DigramKey>() + std::mem::size_of::<NodeId>() + 16;
        self.nodes.len() * std::mem::size_of::<Node>()
            + self.rules.len() * std::mem::size_of::<RuleInfo>()
            + self.digrams.capacity() * DIGRAM_ENTRY
            + (self.free_nodes.capacity() + self.dirty.capacity()) * std::mem::size_of::<NodeId>()
    }

    /// Frozen-mode append: merge into the tail run or link a raw node,
    /// with no digram bookkeeping and no rule formation.
    fn append_frozen(&mut self, sym: Symbol, exp: u64) {
        let guard = self.rules[TOP_RULE as usize].guard;
        let last = self.prev(guard);
        if last != guard && self.nodes[last as usize].sym == sym {
            self.nodes[last as usize].exp += exp;
        } else {
            let n = self.alloc_node(sym, exp);
            if let Symbol::Rule(q) = sym {
                self.rules[q as usize].refs += 1;
            }
            self.insert_after(last, n);
        }
    }

    /// Number of terminals pushed so far (the uncompressed sequence length).
    #[inline]
    pub fn input_len(&self) -> u64 {
        self.input_len
    }

    /// Number of live rules, including the start rule.
    pub fn num_rules(&self) -> usize {
        self.rules.iter().filter(|r| r.alive).count()
    }

    /// Total number of right-hand-side symbol nodes across all live rules.
    pub fn num_symbols(&self) -> usize {
        self.nodes.iter().filter(|n| n.alive && n.guard_of == NIL).count()
    }

    /// Snapshots the grammar's size counters for observability.
    pub fn stats(&self) -> GrammarStats {
        GrammarStats {
            rules: self.num_rules(),
            symbols: self.num_symbols(),
            digram_entries: self.digrams.len(),
            utility_inlines: self.utility_inlines,
            input_len: self.input_len,
        }
    }

    /// Snapshots the grammar into its plain-data form with densely
    /// renumbered rule ids (start rule first).
    pub fn to_flat(&self) -> FlatGrammar {
        let mut id_map: HashMap<u32, u32> = HashMap::new();
        let mut order: Vec<u32> = Vec::new();
        // Deterministic order: top rule, then remaining live rules by id.
        id_map.insert(TOP_RULE, 0);
        order.push(TOP_RULE);
        for (id, r) in self.rules.iter().enumerate() {
            let id = id as u32;
            if r.alive && id != TOP_RULE {
                id_map.insert(id, order.len() as u32);
                order.push(id);
            }
        }
        let mut rules = Vec::with_capacity(order.len());
        for &rid in &order {
            let mut symbols = Vec::new();
            let guard = self.rules[rid as usize].guard;
            let mut n = self.nodes[guard as usize].next;
            while n != guard {
                let node = &self.nodes[n as usize];
                let sym = match node.sym {
                    Symbol::Rule(r) => Symbol::Rule(id_map[&r]),
                    s => s,
                };
                symbols.push((sym, node.exp));
                n = node.next;
            }
            rules.push(FlatRule { symbols });
        }
        FlatGrammar { rules }
    }

    // ------------------------------------------------------------------
    // Arena management
    // ------------------------------------------------------------------

    fn new_rule(&mut self) -> u32 {
        let id = match self.free_rules.pop() {
            Some(id) => id,
            None => {
                self.rules.push(RuleInfo { guard: NIL, refs: 0, alive: false });
                (self.rules.len() - 1) as u32
            }
        };
        let guard = self.alloc_node(Symbol::Terminal(0), 0);
        self.nodes[guard as usize].guard_of = id;
        self.nodes[guard as usize].prev = guard;
        self.nodes[guard as usize].next = guard;
        let r = &mut self.rules[id as usize];
        r.guard = guard;
        r.refs = 0;
        r.alive = true;
        id
    }

    fn alloc_node(&mut self, sym: Symbol, exp: u64) -> NodeId {
        match self.free_nodes.pop() {
            Some(id) => {
                let n = &mut self.nodes[id as usize];
                n.sym = sym;
                n.exp = exp;
                n.prev = NIL;
                n.next = NIL;
                n.guard_of = NIL;
                n.alive = true;
                id
            }
            None => {
                self.nodes.push(Node {
                    sym,
                    exp,
                    prev: NIL,
                    next: NIL,
                    guard_of: NIL,
                    alive: true,
                });
                (self.nodes.len() - 1) as NodeId
            }
        }
    }

    /// Unlinks `n` from its list and returns it to the free pool. The caller
    /// must already have forgotten any digrams involving `n`. Decrements the
    /// refcount of a referenced rule but performs no utility action; callers
    /// handle that per the Sequitur match logic.
    fn delete_node(&mut self, n: NodeId) {
        let (prev, next, sym) = {
            let node = &self.nodes[n as usize];
            (node.prev, node.next, node.sym)
        };
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        }
        if let Symbol::Rule(q) = sym {
            self.rules[q as usize].refs -= 1;
        }
        self.nodes[n as usize].alive = false;
        self.free_nodes.push(n);
    }

    #[inline]
    fn is_guard(&self, n: NodeId) -> bool {
        self.nodes[n as usize].guard_of != NIL
    }

    #[inline]
    fn next(&self, n: NodeId) -> NodeId {
        self.nodes[n as usize].next
    }

    #[inline]
    fn prev(&self, n: NodeId) -> NodeId {
        self.nodes[n as usize].prev
    }

    // ------------------------------------------------------------------
    // Digram index
    // ------------------------------------------------------------------

    fn digram_key(&self, n: NodeId) -> Option<DigramKey> {
        let node = &self.nodes[n as usize];
        if !node.alive || node.guard_of != NIL {
            return None;
        }
        let m = &self.nodes[node.next as usize];
        if m.guard_of != NIL {
            return None;
        }
        Some((node.sym, node.exp, m.sym, m.exp))
    }

    /// Removes the digram starting at `n` from the index, if the index entry
    /// actually points at `n` (another occurrence may own the entry).
    fn forget(&mut self, n: NodeId) {
        if n == NIL {
            return;
        }
        if let Some(key) = self.digram_key(n) {
            if self.digrams.get(&key) == Some(&n) {
                self.digrams.remove(&key);
            }
        }
    }

    /// Marks a node whose following digram must be re-checked.
    #[inline]
    fn mark(&mut self, n: NodeId) {
        if n != NIL {
            self.dirty.push(n);
        }
    }

    // ------------------------------------------------------------------
    // Core algorithm
    // ------------------------------------------------------------------

    /// Appends `sym^exp` to the start rule, merging with the current tail if
    /// the symbols match.
    pub(crate) fn append_symbol(&mut self, sym: Symbol, exp: u64) {
        let guard = self.rules[TOP_RULE as usize].guard;
        let last = self.prev(guard);
        if last != guard && self.nodes[last as usize].sym == sym {
            let before = self.prev(last);
            self.forget(before);
            self.nodes[last as usize].exp += exp;
            self.mark(before);
        } else {
            let n = self.alloc_node(sym, exp);
            if let Symbol::Rule(q) = sym {
                self.rules[q as usize].refs += 1;
            }
            self.insert_after(last, n);
            self.mark(last);
        }
    }

    fn insert_after(&mut self, pos: NodeId, n: NodeId) {
        let next = self.next(pos);
        self.nodes[n as usize].prev = pos;
        self.nodes[n as usize].next = next;
        self.nodes[pos as usize].next = n;
        self.nodes[next as usize].prev = n;
    }

    /// Re-checks all dirty digram positions until the grammar satisfies P1.
    fn drain(&mut self) {
        while let Some(n) = self.dirty.pop() {
            if n == NIL || !self.nodes[n as usize].alive {
                continue;
            }
            let Some(key) = self.digram_key(n) else {
                continue;
            };
            match self.digrams.get(&key) {
                None => {
                    self.digrams.insert(key, n);
                }
                Some(&m) if m == n => {}
                Some(&m) => {
                    // Overlapping occurrences are impossible: adjacent equal
                    // symbols are always merged, so a digram has two distinct
                    // symbols and cannot overlap itself.
                    debug_assert!(self.next(m) != n && self.next(n) != m);
                    self.handle_match(n, m, key);
                }
            }
        }
    }

    /// Enforces P1 for a duplicated digram: `n` is the newly observed
    /// occurrence, `m` the indexed one, `key` the digram both spell.
    fn handle_match(&mut self, n: NodeId, m: NodeId, key: DigramKey) {
        debug_assert_eq!(self.digram_key(m), Some(key));
        let m_prev = self.prev(m);
        let m_next = self.next(m);
        let r = if self.is_guard(m_prev) && self.is_guard(self.next(m_next)) {
            // The indexed occurrence is the complete RHS of a rule: reuse it.
            self.nodes[m_prev as usize].guard_of
        } else {
            // Form a new rule from the digram and substitute both uses.
            let (s1, e1, s2, e2) = key;
            let r = self.new_rule();
            let guard = self.rules[r as usize].guard;
            let a = self.alloc_node(s1, e1);
            if let Symbol::Rule(q) = s1 {
                self.rules[q as usize].refs += 1;
            }
            self.insert_after(guard, a);
            let b = self.alloc_node(s2, e2);
            if let Symbol::Rule(q) = s2 {
                self.rules[q as usize].refs += 1;
            }
            self.insert_after(a, b);
            // The rule's own RHS becomes the canonical occurrence of the
            // digram; later occurrences then match the full-rule branch.
            self.digrams.insert(key, a);
            self.substitute(m, r);
            r
        };
        self.substitute(n, r);
        // Rule utility (P2): any rule referenced from r's RHS whose refcount
        // dropped to one lives entirely inside r now; inline it unless the
        // surviving reference is counted (exp > 1), in which case the rule
        // still pays for itself.
        let guard = self.rules[r as usize].guard;
        let mut x = self.next(guard);
        while x != guard {
            let nxt = self.next(x);
            let node = &self.nodes[x as usize];
            if let Symbol::Rule(q) = node.sym {
                if self.rules[q as usize].refs == 1 && node.exp == 1 {
                    self.inline_rule_at(x, q);
                }
            }
            x = nxt;
        }
    }

    /// Replaces the digram starting at `n` with a single reference to `r`.
    fn substitute(&mut self, n: NodeId, r: u32) {
        let p = self.prev(n);
        let b = self.next(n);
        self.forget(p);
        self.forget(n);
        self.forget(b);
        self.delete_node(n);
        self.delete_node(b);
        let nn = self.alloc_node(Symbol::Rule(r), 1);
        self.rules[r as usize].refs += 1;
        self.insert_after(p, nn);
        let merged = self.merge_neighbors(nn);
        self.mark(self.prev(merged));
        self.mark(merged);
    }

    /// Merges `n` with equal-symbol neighbors on both sides, returning the
    /// surviving node. Callers re-mark the surviving node's surroundings.
    fn merge_neighbors(&mut self, n: NodeId) -> NodeId {
        let mut cur = n;
        let p = self.prev(cur);
        if !self.is_guard(p) && self.nodes[p as usize].sym == self.nodes[cur as usize].sym {
            self.forget(self.prev(p));
            self.forget(p);
            self.forget(cur);
            self.nodes[p as usize].exp += self.nodes[cur as usize].exp;
            self.delete_node(cur);
            cur = p;
        }
        let nx = self.next(cur);
        if !self.is_guard(nx) && self.nodes[nx as usize].sym == self.nodes[cur as usize].sym {
            self.forget(self.prev(cur));
            self.forget(cur);
            self.forget(nx);
            self.nodes[cur as usize].exp += self.nodes[nx as usize].exp;
            self.delete_node(nx);
        }
        cur
    }

    /// Inlines the single remaining use of rule `q` (at node `x`, exp 1),
    /// splicing q's RHS in place of `x` and deleting the rule.
    fn inline_rule_at(&mut self, x: NodeId, q: u32) {
        debug_assert_eq!(self.nodes[x as usize].sym, Symbol::Rule(q));
        debug_assert_eq!(self.nodes[x as usize].exp, 1);
        self.utility_inlines += 1;
        let p = self.prev(x);
        let nx = self.next(x);
        self.forget(p);
        self.forget(x);
        let guard = self.rules[q as usize].guard;
        let first = self.next(guard);
        let last = self.prev(guard);
        debug_assert_ne!(first, guard, "inlining an empty rule");
        // Remove x; this drops q's refcount to zero.
        self.delete_node(x);
        // Splice q's RHS chain between p and nx. Interior digram index
        // entries keep pointing at the same (moved) nodes and stay valid.
        self.nodes[p as usize].next = first;
        self.nodes[first as usize].prev = p;
        self.nodes[last as usize].next = nx;
        self.nodes[nx as usize].prev = last;
        // Retire the rule and its guard.
        self.nodes[guard as usize].alive = false;
        self.free_nodes.push(guard);
        self.rules[q as usize].alive = false;
        self.free_rules.push(q);
        // Boundary merges, then re-check the two new junctions.
        let left =
            if !self.is_guard(p) && self.nodes[p as usize].sym == self.nodes[first as usize].sym {
                self.forget(self.prev(p));
                self.forget(first);
                self.nodes[p as usize].exp += self.nodes[first as usize].exp;
                self.delete_node(first);
                self.mark(self.prev(p));
                p
            } else {
                p
            };
        self.mark(left);
        let right_start = self.prev(nx);
        if !self.is_guard(nx)
            && !self.is_guard(right_start)
            && right_start != left
            && self.nodes[right_start as usize].sym == self.nodes[nx as usize].sym
        {
            self.forget(self.prev(right_start));
            self.forget(right_start);
            self.forget(nx);
            self.nodes[right_start as usize].exp += self.nodes[nx as usize].exp;
            self.delete_node(nx);
            self.mark(self.prev(right_start));
        }
        self.mark(right_start);
    }

    // ------------------------------------------------------------------
    // Debug validation (used by tests)
    // ------------------------------------------------------------------

    /// Exhaustively validates structural invariants; O(grammar size).
    #[doc(hidden)]
    pub fn validate(&self) {
        let mut seen: HashMap<DigramKey, NodeId> = HashMap::new();
        for (rid, rule) in self.rules.iter().enumerate() {
            if !rule.alive {
                continue;
            }
            let guard = rule.guard;
            let mut n = self.next(guard);
            let mut prev_sym: Option<Symbol> = None;
            while n != guard {
                let node = &self.nodes[n as usize];
                assert!(node.alive, "dead node linked in rule {rid}");
                assert!(node.exp >= 1, "zero exponent in rule {rid}");
                if let Some(ps) = prev_sym {
                    assert_ne!(ps, node.sym, "unmerged equal neighbors in rule {rid}");
                }
                prev_sym = Some(node.sym);
                if let Some(key) = self.digram_key(n) {
                    // Frozen grammars drop the index and allow duplicate
                    // digrams; P1 only holds for the pre-freeze prefix.
                    if !self.frozen {
                        if let Some(&other) = seen.get(&key) {
                            panic!("P1 violated: digram {key:?} at {other} and {n} (rule {rid})");
                        }
                        seen.insert(key, n);
                        assert_eq!(
                            self.digrams.get(&key),
                            Some(&n),
                            "digram index missing/stale for {key:?}"
                        );
                    }
                }
                n = node.next;
            }
        }
        // Refcount audit.
        let mut refs: HashMap<u32, u32> = HashMap::new();
        for node in &self.nodes {
            if node.alive && node.guard_of == NIL {
                if let Symbol::Rule(q) = node.sym {
                    *refs.entry(q).or_insert(0) += 1;
                }
            }
        }
        for (rid, rule) in self.rules.iter().enumerate() {
            if !rule.alive || rid as u32 == TOP_RULE {
                continue;
            }
            let actual = refs.get(&(rid as u32)).copied().unwrap_or(0);
            assert_eq!(rule.refs, actual, "refcount drift for rule {rid}");
            assert!(actual >= 1, "orphan rule {rid}");
        }
    }
}

/// Compresses a sequence of `(terminal, exponent)` runs into a grammar.
///
/// This powers the final Sequitur pass of the inter-process merge: the
/// caller interns arbitrary symbols (including references to already-merged
/// sub-rules) into a dense terminal alphabet, re-compresses the merged
/// top-level sequence here, and grafts the result back.
pub fn compress_runs(seq: &[(u32, u64)]) -> FlatGrammar {
    let mut g = Grammar::new();
    for &(t, exp) in seq {
        g.push_run(t, exp);
    }
    g.to_flat()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freeze_preserves_the_expansion() {
        let mut live = Grammar::new();
        let mut half = Grammar::new();
        let seq: Vec<u32> = (0..200).map(|i| [1, 2, 3, 4][i % 4]).collect();
        for (i, &t) in seq.iter().enumerate() {
            live.push(t);
            if i == 100 {
                half.freeze();
            }
            half.push(t);
        }
        assert!(half.is_frozen());
        assert_eq!(half.input_len(), live.input_len());
        assert_eq!(half.to_flat().expand(), live.to_flat().expand());
        half.validate();
    }

    #[test]
    fn frozen_grammar_creates_no_new_rules() {
        let mut g = Grammar::new();
        g.freeze();
        for i in 0..500u32 {
            g.push(i % 7);
            g.push(7 + i % 7);
        }
        // Only the start rule exists: repeated digrams never form rules.
        assert_eq!(g.num_rules(), 1);
        assert_eq!(g.stats().digram_entries, 0);
        assert_eq!(g.to_flat().expanded_len(), 1000);
    }

    #[test]
    fn frozen_appends_still_merge_tail_runs() {
        let mut g = Grammar::new();
        g.freeze();
        for _ in 0..1000 {
            g.push(9);
        }
        // A run of one terminal stays a single counted node.
        assert_eq!(g.num_symbols(), 1);
        assert_eq!(g.to_flat().expanded_len(), 1000);
    }

    #[test]
    fn approx_bytes_tracks_growth_and_freeze_drops_the_index() {
        let mut g = Grammar::new();
        let empty = g.approx_bytes();
        for i in 0..2000u32 {
            g.push(i); // all-distinct input: worst case
        }
        let grown = g.approx_bytes();
        assert!(grown > empty);
        g.freeze();
        assert!(g.approx_bytes() < grown, "freeze must release the digram index");
    }
}
