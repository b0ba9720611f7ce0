//! Sample statistics and the timing loops every phase shares.

use std::time::{Duration, Instant};

/// The statistic every timing is reported as: the first quartile of its
/// samples (linear interpolation between the two nearest ranks).
///
/// On a shared machine the disturbances — a neighbour taking the core, a
/// slow fsync — only ever add time, and they come in spells that can
/// cover more than half of a run, which moves a median but not the fast
/// quartile. Measured on the same runs (README, "Why the first
/// quartile"), its run-to-run spread is close to the median's where
/// both are small and a third of it where the median's is worst.
///
/// Panics on an empty slice: every phase takes at least one sample.
pub fn q1(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "first quartile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = 0.25 * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

pub fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// First quartile of samples in seconds, as milliseconds.
pub fn ms(samples: &[f64]) -> f64 {
    q1(samples) * 1e3
}

/// First quartile of samples in seconds, as nanoseconds per each of `n`
/// items.
pub fn ns_per(samples: &[f64], n: u64) -> f64 {
    q1(samples) * 1e9 / n.max(1) as f64
}

/// Time allowance of one phase. The run goes through its phases in
/// several cycles, so that every metric's samples are spread over the
/// whole run and a slow spell of the machine hits only some of them;
/// each cycle gives the phase one turn. A turn samples until the phase
/// has used its allowance so far (an overrun in one turn is paid back in
/// the next), but takes at least `min_per_turn` samples.
pub struct Pace {
    per_turn: f64,
    min_per_turn: usize,
    allowance: f64,
    used: f64,
    taken: usize,
    sample_started: Option<Instant>,
}

impl Pace {
    pub fn new(seconds_per_turn: f64, min_per_turn: usize) -> Pace {
        Pace {
            per_turn: seconds_per_turn.max(0.0),
            min_per_turn,
            allowance: 0.0,
            used: 0.0,
            taken: 0,
            sample_started: None,
        }
    }

    /// Seconds this phase has spent sampling.
    pub fn used(&self) -> f64 {
        self.used
    }

    /// Opens the phase's turn of the next cycle.
    pub fn turn(&mut self) {
        self.allowance += self.per_turn;
        self.taken = 0;
    }

    /// True while this turn should take another sample. The time between
    /// two calls is the sample's cost.
    pub fn next(&mut self) -> bool {
        if let Some(started) = self.sample_started.take() {
            self.used += started.elapsed().as_secs_f64();
        }
        let go = self.taken < self.min_per_turn || self.used < self.allowance;
        if go {
            self.taken += 1;
            self.sample_started = Some(Instant::now());
        }
        go
    }
}

/// Seconds per call of `f`, from one batch that repeats `f` until
/// `floor` has passed: a microsecond-scale operation is then timed over
/// milliseconds, well above timer and scheduler granularity.
pub fn per_call(floor: Duration, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut n = 0u64;
    loop {
        f();
        n += 1;
        let elapsed = start.elapsed();
        if elapsed >= floor {
            return elapsed.as_secs_f64() / n as f64;
        }
    }
}

/// SplitMix64 (Steele et al., OOPSLA'14): the benchmark's only source of
/// pseudo-randomness, keyed by `--seed`.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_quartile_interpolates_between_ranks() {
        assert_eq!(q1(&[7.0]), 7.0);
        assert_eq!(q1(&[5.0, 1.0, 3.0, 2.0, 4.0]), 2.0);
        assert_eq!(q1(&[4.0, 1.0, 2.0, 3.0]), 1.75);
        // Slow outliers, however many above the quartile, do not move it.
        assert_eq!(q1(&[1.0, 1.0, 1.0, 90.0, 80.0, 70.0, 60.0, 1.0]), 1.0);
    }

    fn samples_in_turn(p: &mut Pace, sample: Duration) -> usize {
        p.turn();
        let mut n = 0;
        while p.next() {
            std::thread::sleep(sample);
            n += 1;
        }
        n
    }

    #[test]
    fn a_turn_takes_its_minimum_and_pays_back_overruns() {
        let mut spent = Pace::new(0.0, 3);
        assert_eq!(samples_in_turn(&mut spent, Duration::ZERO), 3, "no allowance: the minimum");

        let mut p = Pace::new(0.005, 1);
        assert_eq!(samples_in_turn(&mut p, Duration::from_millis(20)), 1);
        // 20 ms used against 10 ms allowed so far: the debt leaves only
        // the minimum, however short the samples now are.
        assert_eq!(samples_in_turn(&mut p, Duration::ZERO), 1);

        let mut roomy = Pace::new(0.05, 1);
        assert!(samples_in_turn(&mut roomy, Duration::from_millis(1)) >= 2);
    }

    #[test]
    fn per_call_runs_at_least_once() {
        let mut n = 0;
        let t = per_call(Duration::ZERO, || n += 1);
        assert_eq!(n, 1);
        assert!(t >= 0.0);
    }
}
