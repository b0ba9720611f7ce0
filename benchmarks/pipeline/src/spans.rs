//! In-memory spans around the calls the benchmark makes into a layer.
//!
//! A span is `(name, start, end, parent, job)`. The name's prefix up to
//! the first `.` is the layer. Spans nest through an explicit stack (the
//! benchmark drives every layer from one thread), are kept in memory
//! while the run measures, and are written as JSONL when it ends. A
//! layer's self time is its spans' duration minus the part their child
//! spans cover. Spans inside `crates/*` are a later change: everything
//! here is timed from outside, at the public functions.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub job: u64,
}

/// Handle of an open span; `None` while recording is off.
#[must_use]
pub struct Open(Option<u32>);

pub struct Spans {
    /// `--trace 1`.
    enabled: bool,
    /// Recording can be paused (phase C alternates jobs with spans on
    /// and off to measure what recording costs).
    recording: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    counts: BTreeMap<&'static str, u64>,
}

/// Self time of one span name, summed over its spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct SelfTime {
    pub spans: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            recording: enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Pauses or resumes recording; a no-op without `--trace 1`.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = self.enabled && on;
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, job: u64) -> Open {
        if !self.recording {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            job,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let end_ns = self.now_ns();
        self.spans[id as usize].end_ns = end_ns;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
    }

    /// Times one call into a layer and records it as a leaf span. The
    /// duration comes back either way, so a metric and its span are the
    /// same measurement.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        job: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let open = self.enter(name, job);
        let start = Instant::now();
        let out = f();
        let took = start.elapsed();
        self.exit(open);
        (out, took)
    }

    /// Counts work at the same boundary the spans sit on.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.recording {
            *self.counts.entry(name).or_insert(0) += n;
        }
    }

    /// Per span name: how many, their total time, and the time not
    /// covered by child spans.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let row = out.entry(s.name).or_default();
            row.spans += 1;
            row.total_ns += total;
            row.self_ns += total.saturating_sub(covered);
        }
        out
    }

    /// One JSON object per line: every span, then every count.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"job\":{}}}",
                s.name, s.start_ns, s.end_ns, s.job
            )?;
        }
        for (name, n) in &self.counts {
            writeln!(out, "{{\"count\":\"{name}\",\"value\":{n}}}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut s = Spans::new(true);
        let root = s.enter("a.root", 1);
        s.time("b.leaf", 1, || std::thread::sleep(Duration::from_millis(2)));
        s.time("b.leaf", 1, || std::thread::sleep(Duration::from_millis(2)));
        s.exit(root);
        let t = s.self_times();
        assert_eq!(t["b.leaf"].spans, 2);
        assert_eq!(t["b.leaf"].self_ns, t["b.leaf"].total_ns);
        assert_eq!(t["a.root"].self_ns, t["a.root"].total_ns - t["b.leaf"].total_ns);
        assert_eq!(s.spans[1].parent, Some(0));
    }

    #[test]
    fn paused_and_disabled_recorders_keep_nothing_but_still_time() {
        for mut s in [Spans::new(false), {
            let mut s = Spans::new(true);
            s.set_recording(false);
            s
        }] {
            let (v, took) = s.time("x.y", 0, || 7);
            s.count("x.n", 3);
            assert_eq!(v, 7);
            assert!(took >= Duration::ZERO);
            assert_eq!(s.len(), 0);
            assert!(s.counts.is_empty());
        }
        let mut off = Spans::new(false);
        off.set_recording(true);
        let _ = off.time("x.y", 0, || ());
        assert_eq!(off.len(), 0, "--trace 0 never records");
    }
}
