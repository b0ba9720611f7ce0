//! Seeded fault injection for the ingest service layer.
//!
//! [`IngestFaultPlan`] is the collector-side sibling of `mpi_sim`'s
//! `FaultPlan`: every decision — a worker panic while folding a segment,
//! a poisoned segment that panics on every retry, an I/O error or short
//! write on a spill or WAL append, a stalled rank whose completion never
//! arrives, simulated disk exhaustion — is a pure function of the plan's
//! seed and the fault coordinates `(job, rank, seq)`. Two runs with the
//! same plan inject exactly the same faults, which is what the seeded
//! chaos-ingest determinism tests rely on.
//!
//! The plan is threaded through
//! [`IngestConfig::faults`](crate::ingest::IngestConfig); a default plan
//! injects nothing and costs one branch per decision point.

use mpi_sim::fault::{coin, hash4};

/// A seeded, deterministic schedule of ingest-layer faults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IngestFaultPlan {
    /// Seed for every probabilistic decision.
    pub seed: u64,
    /// Probability that folding a segment panics the worker on its
    /// *first* attempt only (a transient fault; the bounded retry then
    /// succeeds).
    pub segment_panic_rate: f64,
    /// Probability that a segment is poisoned: folding it panics on
    /// *every* attempt, so the collector quarantines it after the retry
    /// budget and the rank degrades.
    pub poison_rate: f64,
    /// Probability that a job's container spill fails with an injected
    /// short write — half the bytes land in the `.tmp` file, then the
    /// write errors, leaving a torn temporary for salvage to chew on.
    pub spill_io_rate: f64,
    /// Probability that a segment's WAL append fails with an injected
    /// short write (the frame is torn mid-record; the writer truncates
    /// back to the last clean frame, so the segment is lost to replay).
    pub wal_io_rate: f64,
    /// Probability that a rank's completion is swallowed (a stalled
    /// producer): the rank never completes and the job finishes only
    /// through its deadline seal.
    pub stall_rate: f64,
    /// Simulated disk capacity for spill + WAL writes combined; once the
    /// injected byte meter passes this, every durable write fails with
    /// an out-of-space error. `None` = unbounded.
    pub disk_capacity: Option<u64>,
}

impl IngestFaultPlan {
    pub fn new(seed: u64) -> Self {
        IngestFaultPlan { seed, ..Default::default() }
    }

    pub fn segment_panic_rate(mut self, p: f64) -> Self {
        self.segment_panic_rate = p;
        self
    }

    pub fn poison_rate(mut self, p: f64) -> Self {
        self.poison_rate = p;
        self
    }

    pub fn spill_io_rate(mut self, p: f64) -> Self {
        self.spill_io_rate = p;
        self
    }

    pub fn wal_io_rate(mut self, p: f64) -> Self {
        self.wal_io_rate = p;
        self
    }

    pub fn stall_rate(mut self, p: f64) -> Self {
        self.stall_rate = p;
        self
    }

    pub fn disk_capacity(mut self, bytes: u64) -> Self {
        self.disk_capacity = Some(bytes);
        self
    }

    /// True when the plan can inject at least one fault.
    pub fn is_active(&self) -> bool {
        self.segment_panic_rate > 0.0
            || self.poison_rate > 0.0
            || self.spill_io_rate > 0.0
            || self.wal_io_rate > 0.0
            || self.stall_rate > 0.0
            || self.disk_capacity.is_some()
    }

    /// Transient worker panic while folding segment `(job, rank, seq)`?
    /// Fires on the first attempt only.
    pub fn segment_panics(&self, job: u64, rank: u64, seq: u64) -> bool {
        coin(hash4(self.seed ^ 0x01, job, rank, seq)) < self.segment_panic_rate
    }

    /// Poisoned segment: panics on every attempt, quarantine after the
    /// retry budget.
    pub fn segment_poisoned(&self, job: u64, rank: u64, seq: u64) -> bool {
        coin(hash4(self.seed ^ 0x02, job, rank, seq)) < self.poison_rate
    }

    /// Injected short write on job `job`'s container spill?
    pub fn spill_fails(&self, job: u64) -> bool {
        coin(hash4(self.seed ^ 0x03, job, 0, 0)) < self.spill_io_rate
    }

    /// Injected short write appending segment `(job, rank, seq)` to the
    /// WAL? Keyed on the segment, not the append index, so the decision
    /// does not depend on how concurrent streams interleave.
    pub fn wal_append_fails(&self, job: u64, rank: u64, seq: u64) -> bool {
        coin(hash4(self.seed ^ 0x04, job, rank, seq)) < self.wal_io_rate
    }

    /// Swallow rank `rank`'s completion for job `job` (stalled producer)?
    pub fn completion_stalled(&self, job: u64, rank: u64) -> bool {
        coin(hash4(self.seed ^ 0x05, job, rank, 0)) < self.stall_rate
    }

    /// Does writing `len` more durable bytes (after `already` injected
    /// bytes) exceed the simulated disk?
    pub fn disk_full(&self, already: u64, len: u64) -> bool {
        self.disk_capacity.is_some_and(|cap| already.saturating_add(len) > cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let p = IngestFaultPlan::new(7);
        assert!(!p.is_active());
        for i in 0..200 {
            assert!(!p.segment_panics(i, i, i));
            assert!(!p.segment_poisoned(i, i, i));
            assert!(!p.spill_fails(i));
            assert!(!p.wal_append_fails(i, i, i));
            assert!(!p.completion_stalled(i, i));
            assert!(!p.disk_full(u64::MAX - 1, 1));
        }
    }

    #[test]
    fn decisions_are_seed_deterministic() {
        let a = IngestFaultPlan::new(42).segment_panic_rate(0.3).poison_rate(0.2);
        let b = a.clone();
        for job in 0..16 {
            for seq in 0..16 {
                assert_eq!(a.segment_panics(job, 1, seq), b.segment_panics(job, 1, seq));
                assert_eq!(a.segment_poisoned(job, 1, seq), b.segment_poisoned(job, 1, seq));
            }
        }
        // A different seed flips at least one decision at this rate.
        let c = IngestFaultPlan::new(43).segment_panic_rate(0.3);
        let flips =
            (0..256).filter(|&i| a.segment_panics(i, 1, 0) != c.segment_panics(i, 1, 0)).count();
        assert!(flips > 0, "seeds 42 and 43 agreed on all 256 decisions");
    }

    #[test]
    fn rates_are_roughly_honored() {
        let p = IngestFaultPlan::new(9).segment_panic_rate(0.25);
        let hits = (0..4000).filter(|&i| p.segment_panics(i, i % 7, i % 13)).count();
        assert!((700..1300).contains(&hits), "0.25 rate produced {hits}/4000 hits");
    }

    #[test]
    fn disk_capacity_trips_exactly_once_past_the_cap() {
        let p = IngestFaultPlan::new(1).disk_capacity(1000);
        assert!(p.is_active());
        assert!(!p.disk_full(0, 1000));
        assert!(p.disk_full(1, 1000));
        assert!(p.disk_full(1000, 1));
    }
}
