//! The only two ways a [`FlatGrammar`] is ever walked on the read side.
//!
//! A grammar a few hundred bytes long can generate 2^40 terminals and nest
//! 200 000 rules deep, and it arrives from disk or the network, so every
//! traversal here is iterative, checks the offsets it is handed, and never
//! sizes an allocation from a length the grammar merely declares:
//!
//! * [`bottom_up`] visits every rule once, children before parents, while
//!   computing (and overflow-checking) the expanded length of each rule.
//!   Anything that folds a value over rule bodies — the lengths
//!   themselves, [`Spans`], per-rule histograms — is a loop body handed to
//!   it, with no recursion and no cycle check of its own.
//! * [`Cursor`] streams a window `[lo, hi)` of the expansion in order with
//!   an explicit stack (O(depth) memory). It seeks by binary search over
//!   [`Spans`] and yields either `(terminal, run)` pairs or the window's
//!   *cover*: whole rule instances as `(rule, count)`, descending only into
//!   the partially covered ones.

use std::borrow::Cow;

use crate::flat::{DecodeError, FlatGrammar, FlatRule};
use crate::symbol::{Symbol, TOP_RULE};

/// Expanded length of `sym^exp` under the rule lengths `lens`; `None` when
/// it overflows `u64` or `sym` references a rule `lens` does not have.
fn span(lens: &[u64], sym: Symbol, exp: u64) -> Option<u64> {
    match sym {
        Symbol::Terminal(_) => Some(exp),
        Symbol::Rule(r) => lens.get(r as usize)?.checked_mul(exp),
    }
}

/// One iterative post-order walk of the rule-reference graph: returns the
/// expanded length of every rule, and hands each rule to `done` — with the
/// lengths computed so far — the moment its own length is final, which is
/// after every rule it references. Fails on a reference cycle (such a
/// grammar generates no finite sequence), on a reference outside the
/// grammar, and on a length that overflows `u64`.
pub fn bottom_up(
    g: &FlatGrammar,
    mut done: impl FnMut(usize, &[u64]),
) -> Result<Vec<u64>, DecodeError> {
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let mut color = vec![WHITE; g.rules.len()];
    let mut lens = vec![0u64; g.rules.len()];
    // Suspended rules: (rule id, RHS slot to resume at, length so far).
    let mut stack: Vec<(usize, usize, u64)> = Vec::new();
    for start in 0..g.rules.len() {
        if color[start] != WHITE {
            continue;
        }
        stack.push((start, 0, 0));
        color[start] = GRAY;
        'rules: while let Some((rid, mut next, mut total)) = stack.pop() {
            let body = &g.rules[rid].symbols;
            while let Some(&(sym, exp)) = body.get(next) {
                if let Symbol::Rule(r) = sym {
                    match color.get(r as usize) {
                        Some(&BLACK) => {}
                        Some(&GRAY) => return Err(DecodeError::CyclicRules { rule: r }),
                        Some(_) => {
                            // Measure the child first, then resume here.
                            color[r as usize] = GRAY;
                            stack.push((rid, next, total));
                            stack.push((r as usize, 0, 0));
                            continue 'rules;
                        }
                        None => {
                            return Err(DecodeError::BadRuleRef { rule: r, num_rules: lens.len() })
                        }
                    }
                }
                total = span(&lens, sym, exp)
                    .and_then(|s| total.checked_add(s))
                    .ok_or(DecodeError::Corrupt { what: "expanded length", offset: 0 })?;
                next += 1;
            }
            lens[rid] = total;
            color[rid] = BLACK;
            done(rid, &lens);
        }
    }
    Ok(lens)
}

/// Per-rule expanded lengths plus, for every rule body, the cumulative
/// expanded span before each RHS slot — what turns a grammar into a
/// positional structure. All bodies share one flat allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spans {
    lens: Vec<u64>,
    /// Rule `r`'s spans are `cum[base[r]..base[r + 1]]`.
    base: Vec<usize>,
    /// Per rule: the span before each slot, then the rule's total
    /// (`symbols.len() + 1` entries), so the slot covering an offset is
    /// found by binary search.
    cum: Vec<u64>,
}

impl Spans {
    /// Measures `g`. A grammar [`bottom_up`] refuses (only one assembled in
    /// memory can be: decoding runs the same check) measures as all-zero
    /// lengths, so nothing is ever walked through it.
    pub fn measure(g: &FlatGrammar) -> Self {
        Self::from_lens(g, g.rule_lengths()).unwrap_or_else(|| Spans {
            lens: vec![0; g.rules.len()],
            base: vec![0; g.rules.len() + 1],
            cum: Vec::new(),
        })
    }

    /// Spans for `g` under stored rule lengths, or `None` unless every
    /// rule's stored length is exactly the sum of its body's spans under
    /// the stored lengths — which, `g` being acyclic, makes them the true
    /// lengths without a graph walk.
    pub fn from_lens(g: &FlatGrammar, lens: Vec<u64>) -> Option<Self> {
        if lens.len() != g.rules.len() {
            return None;
        }
        let mut base = Vec::with_capacity(lens.len() + 1);
        let mut cum = Vec::with_capacity(g.total_symbols() + lens.len());
        for (rule, &len) in g.rules.iter().zip(&lens) {
            base.push(cum.len());
            let mut acc = 0u64;
            cum.push(acc);
            for &(sym, exp) in &rule.symbols {
                acc = acc.checked_add(span(&lens, sym, exp)?)?;
                cum.push(acc);
            }
            if acc != len {
                return None;
            }
        }
        base.push(cum.len());
        Some(Spans { lens, base, cum })
    }

    /// Expanded length of every rule, indexed by rule id.
    pub fn lens(&self) -> &[u64] {
        &self.lens
    }

    /// Length of the sequence the grammar generates.
    pub fn total(&self) -> u64 {
        self.lens.get(TOP_RULE as usize).copied().unwrap_or(0)
    }

    /// Rule `rule`'s cumulative spans (empty for a rule there is not).
    pub fn body(&self, rule: usize) -> &[u64] {
        match self.base.get(rule..) {
            Some(&[a, b, ..]) => self.cum.get(a..b).unwrap_or(&[]),
            _ => &[],
        }
    }

    /// The terminal at offset `off` of the expansion: a pure binary-search
    /// descent, O(depth · log body), no allocation. `None` past the end, or
    /// when `self` was not measured from `g`.
    pub fn term_at(&self, g: &FlatGrammar, off: u64) -> Option<u32> {
        self.descend(&g.rules, off, |_| {})
    }

    /// Descends from the start rule to the terminal at `off`, reporting
    /// the position reached at each level.
    fn descend<'g>(
        &self,
        rules: &'g [FlatRule],
        mut off: u64,
        mut level: impl FnMut(Frame<'g>),
    ) -> Option<u32> {
        if off >= self.total() || rules.len() != self.lens.len() {
            return None;
        }
        let mut rule = TOP_RULE as usize;
        loop {
            let cum = self.body(rule);
            // The last slot starting at or before `off`. With `off` inside
            // the rule that slot is never zero-width (an empty rule, a zero
            // exponent): such a slot ends where it starts, so the slot
            // after it also starts at or before `off` and wins.
            let slot = cum.partition_point(|&c| c <= off).checked_sub(1)?;
            let rest = rules[rule].symbols.get(slot..)?;
            let &(sym, exp) = rest.first()?;
            let within = off - cum[slot];
            match sym {
                Symbol::Terminal(t) => {
                    level(Frame { rest, left: exp.saturating_sub(within) });
                    return Some(t);
                }
                Symbol::Rule(r) => {
                    // The instance descended into counts as started.
                    let unit = self.lens[r as usize];
                    let started = within.checked_div(unit)?.saturating_add(1);
                    level(Frame { rest, left: exp.saturating_sub(started) });
                    rule = r as usize;
                    off = within % unit;
                }
            }
        }
    }
}

/// One level of a [`Cursor`]'s descent: what is left of a rule body, with
/// `left` instances of its first symbol not yet started.
#[derive(Debug, Clone, Copy)]
struct Frame<'g> {
    rest: &'g [(Symbol, u64)],
    left: u64,
}

impl<'g> Frame<'g> {
    /// Positioned before the first instance of `rest`'s first symbol.
    fn at(rest: &'g [(Symbol, u64)]) -> Self {
        Frame { rest, left: rest.first().map_or(0, |&(_, exp)| exp) }
    }
}

/// A streaming cursor over the window `[lo, hi)` of a grammar's expansion.
///
/// As an [`Iterator`] it yields the window's terminals one by one;
/// [`Cursor::next_run`] yields them as `(terminal, run)` pairs and
/// [`Cursor::next_cover`] as the window's cover. All three advance the same
/// position and may be mixed. It reports no `size_hint`: collecting grows
/// with what the walk yields, never with what the grammar declares.
#[derive(Debug, Clone)]
pub struct Cursor<'g> {
    rules: &'g [FlatRule],
    spans: Cow<'g, Spans>,
    /// The innermost frame, and below it the frames of the enclosing rules.
    top: Frame<'g>,
    stack: Vec<Frame<'g>>,
    /// Offset just past everything handed out so far, `run` included.
    pos: u64,
    /// The walk stops here; pieces are clipped to it.
    end: u64,
    /// The terminal run being handed out one by one, and what is left of it.
    run: (u32, u64),
}

impl<'g> Cursor<'g> {
    /// A cursor over offsets `[lo, hi)` of `g`'s expansion, clamped to it.
    /// `spans` must have been measured from `g`; if its rule count says
    /// otherwise the cursor is exhausted from the start.
    pub fn new(g: &'g FlatGrammar, spans: Cow<'g, Spans>, lo: u64, hi: u64) -> Self {
        let end = hi.min(spans.total());
        let (top, stack) = (Frame::at(&[]), Vec::new());
        let mut c = Cursor { rules: &g.rules, spans, top, stack, pos: 0, end, run: (0, 0) };
        c.seek(lo);
        c
    }

    /// Offset of the next terminal to be yielded.
    pub fn position(&self) -> u64 {
        self.pos - self.run.1
    }

    /// Terminals left in the window.
    pub fn remaining(&self) -> u64 {
        self.end - self.position()
    }

    /// Re-positions at offset `off` in O(depth · log body). At or past the
    /// window's end the cursor is exhausted.
    pub fn seek(&mut self, off: u64) {
        // An empty innermost frame: the first step pops the real one.
        self.top = Frame::at(&[]);
        self.stack.clear();
        self.run.1 = 0;
        self.pos = self.end;
        let stack = &mut self.stack;
        if off < self.end && self.spans.descend(self.rules, off, |f| stack.push(f)).is_some() {
            self.pos = off;
        }
    }

    /// The next `(terminal, run)` pair, clipped to the window.
    pub fn next_run(&mut self) -> Option<(u32, u64)> {
        loop {
            if let (Symbol::Terminal(t), n) = self.step(false)? {
                return Some((t, n));
            }
        }
    }

    /// The next piece of the window's cover: a terminal run, or `count`
    /// whole instances of a rule. Only rule instances the window cuts
    /// through are descended into, so a window costs O(depth · body), not
    /// its length — and the pieces read like one more rule body.
    pub fn next_cover(&mut self) -> Option<(Symbol, u64)> {
        self.step(true)
    }

    fn step(&mut self, whole_rules: bool) -> Option<(Symbol, u64)> {
        if self.run.1 > 0 {
            return Some((Symbol::Terminal(self.run.0), std::mem::take(&mut self.run.1)));
        }
        while self.pos < self.end {
            let room = self.end - self.pos;
            let Some(&(sym, _)) = self.top.rest.first() else {
                self.top = self.stack.pop()?;
                continue;
            };
            let unit = span(self.spans.lens(), sym, 1).unwrap_or(0);
            match sym {
                // A terminal's instances go out as one run (clipped only
                // where the window ends, and then the walk is over).
                Symbol::Terminal(_) if self.top.left > 0 => {
                    let run = self.top.left.min(room);
                    self.pos += run;
                    self.top = Frame::at(&self.top.rest[1..]);
                    return Some((sym, run));
                }
                Symbol::Rule(r) if self.top.left > 0 && unit > 0 => {
                    // Whole instances if they are wanted and fit; otherwise
                    // into the next instance.
                    let fit = if whole_rules { self.top.left.min(room / unit) } else { 0 };
                    if fit > 0 {
                        self.top.left -= fit;
                        self.pos += fit * unit;
                        return Some((sym, fit));
                    }
                    self.top.left -= 1;
                    self.stack.push(self.top);
                    self.top = Frame::at(&self.rules[r as usize].symbols);
                }
                // Nothing left of this slot — or nothing in it: a symbol of
                // zero length is skipped whole, however often it is
                // declared to repeat.
                _ => self.top = Frame::at(&self.top.rest[1..]),
            }
        }
        None
    }
}

impl Iterator for Cursor<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.run.1 == 0 {
            self.run = self.next_run()?;
        }
        self.run.1 -= 1;
        Some(self.run.0)
    }

    /// Constant-memory skip: seeks instead of stepping `n` times. An `n`
    /// that overflows the offset is past the end like any other.
    fn nth(&mut self, n: usize) -> Option<u32> {
        self.seek(Cursor::position(self).checked_add(n as u64).unwrap_or(self.end));
        self.next()
    }
}
