//! Deterministic fault injection.
//!
//! A [`FaultPlan`] describes, ahead of time, everything that will go wrong
//! in a run: which ranks die (and at which MPI call), which tool-channel
//! messages are dropped, how application messages are delayed, and which
//! mailboxes stall. All decisions are pure functions of the plan's seed and
//! the message coordinates, so two runs with the same plan inject exactly
//! the same faults — the property the seeded chaos proptests rely on.
//!
//! Rank death is modeled as a controlled unwind: the fabric marks the rank
//! dead, then the rank thread panics with a [`RankKilled`] payload that
//! [`crate::World::run_faulty`] recognizes. Survivors that provably block
//! on a dead peer unwind with [`PeerFailure`] and still flush their trace
//! through the degraded finalize path.

use std::panic::panic_any;

use crate::fabric::WorldRank;

/// Panic payload for a rank killed by its fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankKilled {
    pub rank: WorldRank,
    /// MPI calls completed (and traced) before death.
    pub calls: u64,
}

/// Panic payload raised by a rank provably blocked on a dead peer: the
/// awaited message or collective contribution can never arrive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerFailure {
    pub rank: WorldRank,
    pub dead_rank: WorldRank,
}

/// Unwinds the current rank as killed-by-plan.
pub(crate) fn raise_killed(rank: WorldRank, calls: u64) -> ! {
    panic_any(RankKilled { rank, calls })
}

/// Unwinds the current rank as blocked-on-dead-peer.
pub(crate) fn raise_peer_failure(rank: WorldRank, dead_rank: WorldRank) -> ! {
    panic_any(PeerFailure { rank, dead_rank })
}

/// Installs (once, process-wide) a panic hook that suppresses the default
/// "thread panicked" report for controlled fault unwinds; every other
/// panic is forwarded to the previously installed hook.
pub(crate) fn silence_fault_panics() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let p = info.payload();
            if p.is::<RankKilled>() || p.is::<PeerFailure>() {
                return;
            }
            prev(info);
        }));
    });
}

/// A seeded, deterministic schedule of injected faults.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Seed for all probabilistic decisions (drops, delays).
    pub seed: u64,
    /// `(rank, call_number)`: the rank dies immediately after completing
    /// (and tracing) its `call_number`-th MPI call. Call numbers count
    /// from 1 and include `MPI_Init`.
    pub kills: Vec<(WorldRank, u64)>,
    /// Probability that a tool-channel (merge) message is silently dropped.
    pub drop_prob: f64,
    /// Probability that an application message is delayed.
    pub delay_prob: f64,
    /// Simulated delay (ns) added to a delayed application message.
    pub delay_ns: u64,
    /// `(rank, ns)`: the rank's first tool-channel receive stalls for a
    /// real-time duration derived from `ns` before it starts waiting.
    pub stalls: Vec<(WorldRank, u64)>,
}

impl FaultPlan {
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, ..FaultPlan::default() }
    }

    /// Schedules `rank` to die right after its `at_call`-th MPI call.
    pub fn kill(mut self, rank: WorldRank, at_call: u64) -> Self {
        self.kills.push((rank, at_call));
        self
    }

    /// Drops tool-channel messages with probability `p`.
    pub fn drop_messages(mut self, p: f64) -> Self {
        self.drop_prob = p;
        self
    }

    /// Delays application messages with probability `p` by `ns` simulated
    /// nanoseconds.
    pub fn delay_messages(mut self, p: f64, ns: u64) -> Self {
        self.delay_prob = p;
        self.delay_ns = ns;
        self
    }

    /// Stalls `rank`'s tool mailbox once for a duration derived from `ns`.
    pub fn stall(mut self, rank: WorldRank, ns: u64) -> Self {
        self.stalls.push((rank, ns));
        self
    }

    /// The call number at which `rank` dies, if scheduled.
    pub fn kill_for(&self, rank: WorldRank) -> Option<u64> {
        self.kills.iter().find(|&&(r, _)| r == rank).map(|&(_, n)| n)
    }

    /// Whether any fault (not just kills) is configured.
    pub fn is_active(&self) -> bool {
        !self.kills.is_empty()
            || self.drop_prob > 0.0
            || self.delay_prob > 0.0
            || !self.stalls.is_empty()
    }

    /// Deterministic per-message coin for tool-channel drops. `seq` is the
    /// per-(src, dest) message ordinal, so the decision is stable across
    /// runs regardless of thread interleaving.
    pub(crate) fn drops_message(
        &self,
        src: WorldRank,
        dest: WorldRank,
        tag: i32,
        seq: u64,
    ) -> bool {
        if self.drop_prob <= 0.0 {
            return false;
        }
        coin(hash4(self.seed, src as u64, (dest as u64) << 32 | tag as u32 as u64, seq))
            < self.drop_prob
    }

    /// Deterministic simulated delay (ns) for an application message
    /// delivered to `dest`; 0 when not delayed. `seq` is the per-dest
    /// delivery ordinal.
    pub(crate) fn delay_for(&self, dest: WorldRank, tag: i32, seq: u64) -> u64 {
        if self.delay_prob <= 0.0 {
            return 0;
        }
        if coin(hash4(self.seed ^ 0xDE1A, dest as u64, tag as u32 as u64, seq)) < self.delay_prob {
            self.delay_ns
        } else {
            0
        }
    }

    /// Stall duration for `rank`'s mailbox, if scheduled.
    pub(crate) fn stall_for(&self, rank: WorldRank) -> Option<u64> {
        self.stalls.iter().find(|&&(r, _)| r == rank).map(|&(_, ns)| ns)
    }
}

/// SplitMix64 finalizer — a cheap, well-distributed 64-bit mixer. With
/// [`hash4`] and [`coin`] it is the one hashing vocabulary every seeded
/// fault plan in the workspace draws from, so a plan's decisions are a
/// pure function of its seed and the coordinates hashed.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Mixes four coordinates (seed-salt first) into one hash.
pub fn hash4(a: u64, b: u64, c: u64, d: u64) -> u64 {
    splitmix(splitmix(splitmix(splitmix(a) ^ b) ^ c) ^ d)
}

/// Maps a hash to [0, 1).
pub fn coin(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_lookup() {
        let p = FaultPlan::new(1).kill(3, 40).kill(5, 7);
        assert_eq!(p.kill_for(3), Some(40));
        assert_eq!(p.kill_for(5), Some(7));
        assert_eq!(p.kill_for(0), None);
        assert!(p.is_active());
        assert!(!FaultPlan::new(1).is_active());
    }

    #[test]
    fn drops_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::new(42).drop_messages(0.5);
        let b = FaultPlan::new(42).drop_messages(0.5);
        let c = FaultPlan::new(43).drop_messages(0.5);
        let seq_a: Vec<bool> = (0..64).map(|s| a.drops_message(0, 1, 9, s)).collect();
        let seq_b: Vec<bool> = (0..64).map(|s| b.drops_message(0, 1, 9, s)).collect();
        let seq_c: Vec<bool> = (0..64).map(|s| c.drops_message(0, 1, 9, s)).collect();
        assert_eq!(seq_a, seq_b, "same seed, same drops");
        assert_ne!(seq_a, seq_c, "different seed, different drops");
        let hits = seq_a.iter().filter(|&&d| d).count();
        assert!(hits > 8 && hits < 56, "p=0.5 should drop roughly half, got {hits}/64");
    }

    #[test]
    fn zero_probabilities_never_fire() {
        let p = FaultPlan::new(7);
        assert!((0..256).all(|s| !p.drops_message(0, 1, 0, s)));
        assert!((0..256).all(|s| p.delay_for(1, 0, s) == 0));
    }
}
