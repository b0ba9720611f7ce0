//! Observability layer: a lightweight registry of named counters, byte
//! gauges, and monotonic per-stage timers, plus a machine-readable
//! [`MetricsReport`] snapshot, the [`counter_set!`] declaration every
//! collector stat set is generated from, and [`JsonObject`], the one
//! hand-rolled JSON writer (the build environment has no serde).
//!
//! The registry is threaded through the tracer hot path and the finalize
//! pipeline. It uses interior mutability (`Cell`/`RefCell`) so timing a
//! stage only needs `&self`, which keeps it compatible with the tracer's
//! `&mut self` methods without borrow gymnastics. A disabled registry
//! (the default) reduces every operation to a branch on a `bool`, so the
//! hot path pays essentially nothing when metrics are off.
//!
//! # Stages
//!
//! The six pipeline stages mirror the paper's overhead decomposition
//! (Fig 7/8): three intra-process stages measured per call
//! ([`Stage::Intercept`], [`Stage::Encode`], [`Stage::GrammarInsert`]) and
//! three finalize-time stages ([`Stage::CstMerge`], [`Stage::CfgMerge`],
//! [`Stage::FinalSequitur`]). Two further stages time post-hoc query work
//! against a finished trace ([`Stage::IndexBuild`], [`Stage::Query`]) and
//! stay zero while tracing runs. Intercept time is recorded *residually* —
//! total `on_call` time minus the encode and grammar-insert portions — so
//! the six stage totals sum exactly to
//! [`OverheadStats::total`](crate::OverheadStats::total).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};
use std::time::{Duration, Instant};

use crate::trace::SizeReport;

/// A pipeline stage with a dedicated monotonic timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Call interception outside encode/grammar work: handle bookkeeping,
    /// request/datatype/group lifecycle, CST lookup, timing capture.
    Intercept,
    /// Argument encoding into the canonical signature byte string.
    Encode,
    /// Feeding the signature terminal into the online Sequitur grammar.
    GrammarInsert,
    /// Gathering, deduplicating and broadcasting CSTs at finalize.
    CstMerge,
    /// Gathering per-rank grammars and hash-consing them together.
    CfgMerge,
    /// The final Sequitur pass over the concatenated rule sequences.
    FinalSequitur,
    /// Building the query engine's trace index (per-rule expanded lengths
    /// and cumulative spans) over a finished trace.
    IndexBuild,
    /// Executing a grammar-aware query (random access, streaming window,
    /// or analytics) against an indexed trace.
    Query,
}

impl Stage {
    /// All stages, in pipeline order. The first six are the tracing
    /// pipeline and partition [`OverheadStats`](crate::OverheadStats);
    /// the last two time post-hoc query work and stay zero during a run.
    pub const ALL: [Stage; 8] = [
        Stage::Intercept,
        Stage::Encode,
        Stage::GrammarInsert,
        Stage::CstMerge,
        Stage::CfgMerge,
        Stage::FinalSequitur,
        Stage::IndexBuild,
        Stage::Query,
    ];

    /// Stable machine-readable name, used as the JSON key.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Intercept => "intercept",
            Stage::Encode => "encode",
            Stage::GrammarInsert => "grammar",
            Stage::CstMerge => "cst-merge",
            Stage::CfgMerge => "cfg-merge",
            Stage::FinalSequitur => "final-sequitur",
            Stage::IndexBuild => "index-build",
            Stage::Query => "query",
        }
    }

    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

/// Per-rank registry of stage timers, named counters, and byte gauges.
///
/// All mutation goes through `&self`; see the module docs for why.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    enabled: bool,
    timers_ns: [Cell<u64>; 8],
    counters: RefCell<BTreeMap<&'static str, u64>>,
    gauges: RefCell<BTreeMap<&'static str, u64>>,
}

impl MetricsRegistry {
    /// A registry that records; `enabled(false)` gives the no-op default.
    pub fn new(enabled: bool) -> Self {
        MetricsRegistry { enabled, ..Default::default() }
    }

    /// Whether this registry records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Starts timing `stage`; the elapsed time is added when the returned
    /// guard drops. Returns an inert guard when disabled.
    #[inline]
    pub fn time_stage(&self, stage: Stage) -> StageGuard<'_> {
        StageGuard {
            registry: self,
            stage,
            start: if self.enabled { Some(Instant::now()) } else { None },
        }
    }

    /// Adds an externally measured duration to a stage timer.
    #[inline]
    pub fn add_stage(&self, stage: Stage, d: Duration) {
        if self.enabled {
            let cell = &self.timers_ns[stage.index()];
            cell.set(cell.get().saturating_add(d.as_nanos() as u64));
        }
    }

    /// Total time recorded against `stage` so far.
    pub fn stage_total(&self, stage: Stage) -> Duration {
        Duration::from_nanos(self.timers_ns[stage.index()].get())
    }

    /// Increments the named counter by `n` (creating it at zero).
    #[inline]
    pub fn incr(&self, name: &'static str, n: u64) {
        if self.enabled {
            *self.counters.borrow_mut().entry(name).or_insert(0) += n;
        }
    }

    /// Current value of a counter; zero if never incremented.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.borrow().get(name).copied().unwrap_or(0)
    }

    /// Sets the named gauge to an absolute value (last write wins).
    #[inline]
    pub fn set_gauge(&self, name: &'static str, value: u64) {
        if self.enabled {
            self.gauges.borrow_mut().insert(name, value);
        }
    }

    /// Snapshots the registry into a plain-data report.
    pub fn snapshot(&self) -> MetricsReport {
        let mut timers_ns = BTreeMap::new();
        for stage in Stage::ALL {
            timers_ns.insert(stage.name().to_string(), self.timers_ns[stage.index()].get());
        }
        let mut counters: BTreeMap<String, u64> =
            self.counters.borrow().iter().map(|(&k, &v)| (k.to_string(), v)).collect();
        for (&k, &v) in self.gauges.borrow().iter() {
            counters.insert(k.to_string(), v);
        }
        MetricsReport { timers_ns, counters, size: None }
    }
}

/// RAII timer: adds the elapsed time to its stage when dropped.
#[derive(Debug)]
pub struct StageGuard<'a> {
    registry: &'a MetricsRegistry,
    stage: Stage,
    start: Option<Instant>,
}

impl Drop for StageGuard<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.registry.add_stage(self.stage, start.elapsed());
        }
    }
}

/// A counter field's snapshot type: `u64`, or `bool` for a latch that is
/// stored as 0/1.
pub(crate) trait CounterValue: Copy {
    fn from_raw(raw: u64) -> Self;
    fn raw(self) -> u64;
}

impl CounterValue for u64 {
    fn from_raw(raw: u64) -> Self {
        raw
    }
    fn raw(self) -> u64 {
        self
    }
}

impl CounterValue for bool {
    fn from_raw(raw: u64) -> Self {
        raw != 0
    }
    fn raw(self) -> u64 {
        u64::from(self)
    }
}

/// Declares one collector counter set **once**. From a single list of
/// documented `name: type` fields (`u64`, or `bool` for a latch) it
/// generates
///
/// - the public `Copy` snapshot struct `$Stats` with exactly those fields,
/// - the module-private live set `$Live`, one relaxed-ordering
///   `AtomicU64` per field — increment sites stay a plain
///   `live.field.fetch_add(1, Ordering::Relaxed)` (or `fetch_max` /
///   `store`) on a struct field: no map, lock or string on a hot path,
/// - `$Live::snapshot()`, the only place the atomics are loaded, and
/// - `$Stats::fields()`, the named-field view: `(name, value)` pairs in
///   declaration order, bools as 0/1 — what [`MetricsReport::absorb`] and
///   stderr summaries iterate — plus `$Stats::write_json`, the same walk
///   with bools kept as JSON bools, for envelopes.
///
/// Adding a counter is one line here and one increment site; every
/// report and envelope picks it up.
macro_rules! counter_set {
    (
        $(#[$stats_meta:meta])*
        pub struct $Stats:ident, live $Live:ident {
            $( $(#[$field_meta:meta])* $field:ident: $ty:ty, )+
        }
    ) => {
        $(#[$stats_meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $Stats {
            $( $(#[$field_meta])* pub $field: $ty, )+
        }

        #[derive(Debug, Default)]
        struct $Live {
            $( $field: std::sync::atomic::AtomicU64, )+
        }

        impl $Live {
            fn snapshot(&self) -> $Stats {
                use std::sync::atomic::Ordering::Relaxed;
                $Stats {
                    $( $field: $crate::metrics::CounterValue::from_raw(self.$field.load(Relaxed)), )+
                }
            }
        }

        impl $Stats {
            /// Every field as `(name, value)`, in declaration order
            /// (bools as 0/1).
            pub fn fields(&self) -> [(&'static str, u64); [$( stringify!($field) ),+].len()] {
                [ $( (stringify!($field), $crate::metrics::CounterValue::raw(self.$field)) ),+ ]
            }

            /// Appends every field to `obj` under its declared name, in
            /// declaration order, bools as JSON bools.
            pub fn write_json(&self, obj: &mut $crate::metrics::JsonObject) {
                $( obj.raw(stringify!($field), self.$field); )+
            }
        }
    };
}
pub(crate) use counter_set;

/// A plain-data snapshot of a [`MetricsRegistry`], optionally joined with
/// a trace size decomposition, exportable as JSON.
///
/// The JSON schema is stable and flat:
///
/// ```json
/// {
///   "size": {
///     "cst_bytes": 123, "grammar_bytes": 456,
///     "duration_bytes": 0, "interval_bytes": 0,
///     "header_bytes": 3, "rank_length_bytes": 4, "rank_map_bytes": 0,
///     "core_total": 586, "full_total": 586
///   },
///   "timers_ns": { "intercept": 0, "encode": 0, "grammar": 0,
///                  "cst-merge": 0, "cfg-merge": 0, "final-sequitur": 0 },
///   "counters": { "calls": 0, "cfg.rules": 0 }
/// }
/// ```
///
/// `"size"` is omitted when no trace was attached (e.g. a rank that did
/// not hold the merged trace).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsReport {
    /// Nanoseconds per stage, keyed by [`Stage::name`].
    pub timers_ns: BTreeMap<String, u64>,
    /// Named counters and gauges.
    pub counters: BTreeMap<String, u64>,
    /// Byte decomposition of the merged trace, when one was produced.
    pub size: Option<SizeReport>,
}

impl MetricsReport {
    /// Nanoseconds recorded for `stage` (zero if absent).
    pub fn stage_ns(&self, stage: Stage) -> u64 {
        self.timers_ns.get(stage.name()).copied().unwrap_or(0)
    }

    /// Sum of all stage timers.
    pub fn total_stage_ns(&self) -> u64 {
        self.timers_ns.values().sum()
    }

    /// Accumulates another report: timers and counters add, and the size
    /// block is taken from whichever report has one (other wins).
    pub fn merge(&mut self, other: &MetricsReport) {
        for (k, v) in &other.timers_ns {
            *self.timers_ns.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        if other.size.is_some() {
            self.size = other.size;
        }
    }

    /// Adds a named-field view (a [`counter_set!`] snapshot's `fields()`,
    /// or [`RecoveryReport::fields`](crate::recover::RecoveryReport::fields))
    /// under `prefix` — `ingest.segments`, `net.server.frames`, … — so
    /// collector numbers leave through the same report as the tracer's.
    pub fn absorb(&mut self, prefix: &str, fields: impl IntoIterator<Item = (&'static str, u64)>) {
        for (name, value) in fields {
            self.counters.insert(format!("{prefix}.{name}"), value);
        }
    }

    /// Renders the report as a compact JSON object (see the type docs for
    /// the schema). Keys are emitted in sorted order, so output is
    /// deterministic and diffable.
    pub fn to_json(&self) -> String {
        let map = |m: &BTreeMap<String, u64>| JsonObject::default().fields(m).finish();
        let mut out = JsonObject::default();
        if let Some(s) = &self.size {
            let size = [
                ("cst_bytes", s.cst_bytes),
                ("grammar_bytes", s.grammar_bytes),
                ("duration_bytes", s.duration_bytes),
                ("interval_bytes", s.interval_bytes),
                ("header_bytes", s.header_bytes),
                ("rank_length_bytes", s.rank_length_bytes),
                ("rank_map_bytes", s.rank_map_bytes),
                ("manifest_bytes", s.manifest_bytes),
                ("core_total", s.core_total()),
                ("full_total", s.full_total()),
            ];
            out.raw("size", JsonObject::default().fields(size).finish());
        }
        out.raw("timers_ns", map(&self.timers_ns)).raw("counters", map(&self.counters)).finish()
    }
}

/// Builds one JSON object member by member, in call order. Every JSON
/// line the workspace prints — [`MetricsReport::to_json`], `pilgrimd`'s
/// and `trace_tool`'s schema-1 envelopes — is rendered here, so keys and
/// strings are escaped one way ([`json_string`]).
#[derive(Debug, Default)]
pub struct JsonObject {
    buf: String,
}

impl JsonObject {
    /// Opens a schema-1 envelope: `{"schema":1,"command":"<command>"`.
    /// Callers append their fields and close with `"exit"` (`pilgrimd`)
    /// or `"fidelity"` (`trace_tool`).
    pub fn envelope(command: &str) -> Self {
        let mut obj = JsonObject::default();
        obj.raw("schema", 1).str("command", command);
        obj
    }

    /// Appends `"key":value` with `value` printed as is: a number, a
    /// bool, `null`, or JSON another writer already rendered.
    pub fn raw(&mut self, key: &str, value: impl Display) -> &mut Self {
        self.buf.push(if self.buf.is_empty() { '{' } else { ',' });
        let _ = write!(self.buf, "{}:{value}", json_string(key));
        self
    }

    /// Appends `"key":"value"` with `value` escaped.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.raw(key, json_string(value))
    }

    /// Appends a named-field view, one numeric member per field.
    pub fn fields<K: AsRef<str>>(
        &mut self,
        fields: impl IntoIterator<Item = (K, impl Display)>,
    ) -> &mut Self {
        for (name, value) in fields {
            self.raw(name.as_ref(), value);
        }
        self
    }

    /// Closes the object and hands back its text.
    pub fn finish(&mut self) -> String {
        if self.buf.is_empty() {
            self.buf.push('{');
        }
        self.buf.push('}');
        std::mem::take(&mut self.buf)
    }
}

/// `[a,b,c]` from items that already print as JSON values.
pub fn json_array(items: impl IntoIterator<Item = impl Display>) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{item}");
    }
    out.push(']');
    out
}

/// Escapes a string as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let m = MetricsRegistry::new(false);
        m.add_stage(Stage::Encode, Duration::from_millis(5));
        m.incr("calls", 3);
        m.set_gauge("bytes", 7);
        {
            let _g = m.time_stage(Stage::Intercept);
            std::thread::yield_now();
        }
        let snap = m.snapshot();
        assert_eq!(snap.total_stage_ns(), 0);
        assert!(snap.counters.is_empty());
    }

    #[test]
    fn guard_accumulates_elapsed_time() {
        let m = MetricsRegistry::new(true);
        {
            let _g = m.time_stage(Stage::CfgMerge);
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(m.stage_total(Stage::CfgMerge) >= Duration::from_millis(1));
    }

    #[test]
    fn counters_and_gauges_land_in_snapshot() {
        let m = MetricsRegistry::new(true);
        m.incr("calls", 2);
        m.incr("calls", 3);
        m.set_gauge("cfg.rules", 10);
        m.set_gauge("cfg.rules", 11);
        let snap = m.snapshot();
        assert_eq!(snap.counters["calls"], 5);
        assert_eq!(snap.counters["cfg.rules"], 11);
    }

    #[test]
    fn json_shape_is_stable() {
        let m = MetricsRegistry::new(true);
        m.add_stage(Stage::Encode, Duration::from_nanos(42));
        m.incr("calls", 1);
        let json = m.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"timers_ns\":{"));
        assert!(json.contains("\"encode\":42"));
        assert!(json.contains("\"counters\":{\"calls\":1}"));
        assert!(!json.contains("\"size\""));
    }

    #[test]
    fn json_escapes_control_characters() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\r\t"), "\"\\r\\t\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn json_object_keeps_call_order_and_escapes_keys_and_strings() {
        assert_eq!(JsonObject::default().finish(), "{}");
        let mut obj = JsonObject::envelope("a\"b");
        obj.raw("n", 3).raw("ok", true).str("s", "x\ty").raw("list", json_array([1, 2]));
        obj.fields([("k\n", 7u64)]);
        assert_eq!(
            obj.raw("exit", 0).finish(),
            "{\"schema\":1,\"command\":\"a\\\"b\",\"n\":3,\"ok\":true,\"s\":\"x\\ty\",\
             \"list\":[1,2],\"k\\n\":7,\"exit\":0}"
        );
    }

    counter_set! {
        /// A miniature stat set: a counter, a latch and a high-water mark.
        pub struct DemoStats, live LiveDemoStats {
            events: u64,
            /// Latched once, never cleared.
            tripped: bool,
            peak: u64,
        }
    }

    #[test]
    fn counter_set_declares_atomics_snapshot_and_view_in_one_order() {
        use std::sync::atomic::Ordering::Relaxed;
        let live = LiveDemoStats::default();
        assert_eq!(live.snapshot(), DemoStats::default());
        live.events.fetch_add(2, Relaxed);
        live.events.fetch_add(3, Relaxed);
        live.peak.fetch_max(40, Relaxed);
        live.peak.fetch_max(9, Relaxed);
        let before = live.snapshot();
        assert_eq!(before, DemoStats { events: 5, tripped: false, peak: 40 });
        live.tripped.store(1, Relaxed);
        let snap = live.snapshot();
        assert!(snap.tripped, "a bool field round-trips through its atomic");
        // Declaration order = fields() order = snapshot field order (the
        // derived Debug prints fields as the struct lists them).
        assert_eq!(snap.fields(), [("events", 5), ("tripped", 1), ("peak", 40)]);
        assert_eq!(format!("{snap:?}"), "DemoStats { events: 5, tripped: true, peak: 40 }");
        let mut obj = JsonObject::default();
        snap.write_json(&mut obj);
        assert_eq!(obj.finish(), "{\"events\":5,\"tripped\":true,\"peak\":40}");
    }

    #[test]
    fn absorb_files_a_view_under_its_prefix() {
        let mut report = MetricsRegistry::new(true).snapshot();
        report.absorb("demo", DemoStats { events: 5, tripped: true, peak: 40 }.fields());
        report.absorb("recover", crate::recover::RecoveryReport::default().fields());
        assert_eq!(report.counters["demo.events"], 5);
        assert_eq!(report.counters["demo.tripped"], 1);
        assert_eq!(report.counters["recover.torn_wals"], 0);
        assert!(report.to_json().contains("\"demo.peak\":40"));
    }

    #[test]
    fn merge_adds_timers_and_counters() {
        let a_reg = MetricsRegistry::new(true);
        a_reg.add_stage(Stage::Encode, Duration::from_nanos(10));
        a_reg.incr("calls", 1);
        let mut a = a_reg.snapshot();
        let b_reg = MetricsRegistry::new(true);
        b_reg.add_stage(Stage::Encode, Duration::from_nanos(32));
        b_reg.incr("calls", 2);
        a.merge(&b_reg.snapshot());
        assert_eq!(a.stage_ns(Stage::Encode), 42);
        assert_eq!(a.counters["calls"], 3);
    }
}
