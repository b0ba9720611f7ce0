//! Deterministic simulated clock with a latency/bandwidth cost model.
//!
//! Each rank owns a logical clock in simulated nanoseconds. MPI calls
//! advance it according to a simple cost model (base software overhead +
//! per-byte transfer cost + seeded noise), and synchronizing operations
//! (message receipt, collectives) propagate time between ranks the way
//! causality does on a real machine: a receive cannot complete before the
//! matching send plus the network latency.
//!
//! The paper's timing-compression experiments (§3.2, Fig 10) depend only on
//! durations/intervals being *similar but noisy* across loop iterations;
//! the seeded noise reproduces that regime deterministically.

/// Cost-model parameters, all in simulated nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct ClockModel {
    /// Software overhead charged to every MPI call.
    pub call_overhead: u64,
    /// One-way network latency for point-to-point messages.
    pub latency: u64,
    /// Transfer cost per byte (inverse bandwidth).
    pub per_byte_milli: u64,
    /// Maximum multiplicative noise in parts-per-thousand (0 = none).
    pub noise_ppm: u64,
}

impl Default for ClockModel {
    fn default() -> Self {
        ClockModel {
            call_overhead: 500,
            latency: 1_500,
            per_byte_milli: 350, // ~0.35 ns/byte ≈ 2.8 GB/s
            noise_ppm: 80_000,   // up to 8% jitter
        }
    }
}

/// The jitter stream: xoshiro256** seeded through splitmix64, with
/// Lemire's multiply-shift for bounded draws. Every recorded timing is a
/// function of this exact stream, so it must not change. Not
/// cryptographic; simulation jitter only.
#[derive(Debug)]
struct Xoshiro {
    s: [u64; 4],
}

impl Xoshiro {
    fn seed_from_u64(seed: u64) -> Self {
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        Xoshiro { s: [next(), next(), next(), next()] }
    }

    fn next_u64(&mut self) -> u64 {
        let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// A draw in `[0, bound)` (`bound > 0`).
    fn below(&mut self, bound: u64) -> u64 {
        loop {
            let m = (self.next_u64() as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// A draw in `[0, max]`.
    fn up_to(&mut self, max: u64) -> u64 {
        self.below(max.saturating_add(1))
    }
}

/// Per-rank simulated clock.
#[derive(Debug)]
pub struct SimClock {
    now: u64,
    model: ClockModel,
    rng: Xoshiro,
}

impl SimClock {
    /// Creates a clock for `rank`, seeded deterministically.
    pub fn new(model: ClockModel, seed: u64, rank: usize) -> Self {
        SimClock {
            now: 0,
            model,
            rng: Xoshiro::seed_from_u64(seed ^ (rank as u64).wrapping_mul(0x9E3779B97F4A7C15)),
        }
    }

    /// Current simulated time in nanoseconds.
    #[inline]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Applies the seeded jitter to a base cost.
    fn jitter(&mut self, base: u64) -> u64 {
        if self.model.noise_ppm == 0 {
            return base;
        }
        let f = self.rng.up_to(self.model.noise_ppm);
        base + base * f / 1_000_000
    }

    /// Advances past a local compute region of roughly `ns` nanoseconds.
    pub fn compute(&mut self, ns: u64) {
        let cost = self.jitter(ns);
        self.now += cost;
    }

    /// Charges the fixed software overhead of entering an MPI call.
    pub fn call_entry(&mut self) {
        let cost = self.jitter(self.model.call_overhead);
        self.now += cost;
    }

    /// Cost of transferring `bytes` point-to-point.
    pub fn transfer_cost(&mut self, bytes: u64) -> u64 {
        self.jitter(self.model.latency + bytes * self.model.per_byte_milli / 1000)
    }

    /// A message sent at `send_time` carrying `bytes` becomes visible at the
    /// receiver at this time; receipt pulls the local clock forward.
    pub fn absorb_message(&mut self, send_time: u64, bytes: u64) {
        let arrival = send_time + self.transfer_cost(bytes);
        self.now = self.now.max(arrival);
    }

    /// Synchronizes with a collective whose last participant arrived at
    /// `sync_time`, then charges the collective's own cost for `bytes`.
    pub fn absorb_collective(&mut self, sync_time: u64, bytes: u64) {
        self.now = self.now.max(sync_time);
        let cost = self.transfer_cost(bytes);
        self.now += cost;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet() -> ClockModel {
        ClockModel { noise_ppm: 0, ..ClockModel::default() }
    }

    #[test]
    fn clock_is_monotonic() {
        let mut c = SimClock::new(ClockModel::default(), 42, 3);
        let mut last = c.now();
        for i in 0..100 {
            c.call_entry();
            c.compute(i * 10);
            assert!(c.now() >= last);
            last = c.now();
        }
    }

    #[test]
    fn absorb_message_respects_causality() {
        let mut c = SimClock::new(quiet(), 1, 0);
        c.absorb_message(1_000_000, 1000);
        assert!(c.now() >= 1_000_000 + 1_500);
    }

    #[test]
    fn absorb_message_never_rewinds() {
        let mut c = SimClock::new(quiet(), 1, 0);
        c.compute(10_000_000);
        let before = c.now();
        c.absorb_message(0, 0);
        assert_eq!(c.now(), before);
    }

    #[test]
    fn deterministic_per_seed_and_rank() {
        let mut a = SimClock::new(ClockModel::default(), 7, 2);
        let mut b = SimClock::new(ClockModel::default(), 7, 2);
        for _ in 0..50 {
            a.call_entry();
            b.call_entry();
        }
        assert_eq!(a.now(), b.now());
        let mut c = SimClock::new(ClockModel::default(), 7, 3);
        for _ in 0..50 {
            c.call_entry();
        }
        assert_ne!(a.now(), c.now(), "different ranks should jitter differently");
    }

    #[test]
    fn jitter_stream_is_pinned() {
        // Values of the jitter stream every recorded timing was drawn
        // from: a moved value moves every lossy timing row of the ledger.
        let mut r = Xoshiro::seed_from_u64(0x5EED ^ 3u64.wrapping_mul(0x9E3779B97F4A7C15));
        let raw: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            raw,
            [0xc75ec2fefd89d3d7, 0x65e2af7a3389f9ad, 0x7732bdbaeffd75f2, 0x87fbb6ebe11e1602]
        );
        let draws: Vec<u64> = (0..8).map(|_| r.up_to(80_000)).collect();
        assert_eq!(draws, [22747, 14798, 13224, 24316, 10552, 27536, 57817, 3990]);
    }

    #[test]
    fn rng_deterministic_per_seed() {
        let mut a = Xoshiro::seed_from_u64(7);
        let mut b = Xoshiro::seed_from_u64(7);
        let mut c = Xoshiro::seed_from_u64(8);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn bounded_draws_respect_bounds() {
        let mut r = Xoshiro::seed_from_u64(42);
        for _ in 0..10_000 {
            assert!(r.below(10) < 10);
            assert!(r.up_to(5) <= 5);
        }
        assert_eq!(r.up_to(0), 0);
    }

    #[test]
    fn bounded_draws_cover_values() {
        let mut r = Xoshiro::seed_from_u64(1);
        let mut seen = [false; 6];
        for _ in 0..1000 {
            seen[r.below(6) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn transfer_cost_scales_with_bytes() {
        let mut c = SimClock::new(quiet(), 0, 0);
        let small = c.transfer_cost(1);
        let big = c.transfer_cost(1_000_000);
        assert!(big > small);
    }
}
