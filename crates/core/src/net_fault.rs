//! Seeded fault injection for the `PNT1` wire transport.
//!
//! [`NetFaultPlan`] is the network-layer sibling of
//! [`IngestFaultPlan`](crate::ingest_fault::IngestFaultPlan): every
//! decision — a refused connection, a mid-frame cut, a flipped byte, a
//! stalled send, a duplicated delivery, a permanent partition — is a
//! pure function of the plan's seed and the fault coordinates, keyed
//! splitmix64-style on `(job, rank, seq)` for per-frame faults and on
//! `(client, attempt)` for connection faults. Two runs with the same
//! plan inject exactly the same faults no matter how the client and
//! server threads interleave, which is what the `chaos_net` sweep's
//! bit-identical gate relies on.
//!
//! Frame faults fire on a frame's *first* transmission only (the client
//! keys them off its retransmit counter): a cut or corrupted frame
//! breaks the connection, the client reconnects and resends, and the
//! clean retransmit gets through — otherwise a rate-1.0 cut would loop
//! forever. Duplicate delivery sends the frame twice back-to-back and
//! leans on the server's `(job, rank, seq)` watermark dedup.

use mpi_sim::fault::{coin, hash4, splitmix};

/// A seeded, deterministic schedule of wire-transport faults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetFaultPlan {
    /// Seed for every probabilistic decision.
    pub seed: u64,
    /// Probability that connection attempt `attempt` of a client is
    /// refused before the socket is even dialed.
    pub connect_refuse_rate: f64,
    /// Probability that a frame's first transmission is cut mid-frame:
    /// half the bytes go out, then the connection breaks.
    pub cut_rate: f64,
    /// Probability that one byte of a frame's first transmission is
    /// flipped in flight (the server's CRC fails closed and drops the
    /// connection).
    pub corrupt_rate: f64,
    /// Probability that a frame is delivered twice back-to-back.
    pub duplicate_rate: f64,
    /// Probability that a frame's send stalls for [`NetFaultPlan::stall_ms`]
    /// first (latency only; nothing is lost).
    pub stall_rate: f64,
    /// Stall duration in milliseconds.
    pub stall_ms: u64,
    /// Probability that sending a frame trips a *permanent* partition:
    /// the connection breaks and every later connect attempt by this
    /// client fails, so the retry budget runs out and the client
    /// degrades to local spill.
    pub partition_rate: f64,
}

impl NetFaultPlan {
    pub fn new(seed: u64) -> Self {
        NetFaultPlan { seed, stall_ms: 20, ..Default::default() }
    }

    pub fn connect_refuse_rate(mut self, p: f64) -> Self {
        self.connect_refuse_rate = p;
        self
    }

    pub fn cut_rate(mut self, p: f64) -> Self {
        self.cut_rate = p;
        self
    }

    pub fn corrupt_rate(mut self, p: f64) -> Self {
        self.corrupt_rate = p;
        self
    }

    pub fn duplicate_rate(mut self, p: f64) -> Self {
        self.duplicate_rate = p;
        self
    }

    pub fn stall_rate(mut self, p: f64) -> Self {
        self.stall_rate = p;
        self
    }

    pub fn stall_ms(mut self, ms: u64) -> Self {
        self.stall_ms = ms;
        self
    }

    pub fn partition_rate(mut self, p: f64) -> Self {
        self.partition_rate = p;
        self
    }

    /// True when the plan can inject at least one fault.
    pub fn is_active(&self) -> bool {
        self.connect_refuse_rate > 0.0
            || self.cut_rate > 0.0
            || self.corrupt_rate > 0.0
            || self.duplicate_rate > 0.0
            || self.stall_rate > 0.0
            || self.partition_rate > 0.0
    }

    /// Refuse connection attempt `attempt` of `client`? Keyed on the
    /// attempt index, so a transient refusal storm is a fixed prefix of
    /// the client's (deterministic) attempt sequence.
    pub fn refuses_connect(&self, client: u64, attempt: u64) -> bool {
        coin(hash4(self.seed ^ 0x11, client, attempt, 0)) < self.connect_refuse_rate
    }

    /// Cut frame `(job, rank, seq)` mid-transmission (first send only)?
    pub fn cuts(&self, job: u64, rank: u64, seq: u64) -> bool {
        coin(hash4(self.seed ^ 0x12, job, rank, seq)) < self.cut_rate
    }

    /// Flip a byte of frame `(job, rank, seq)` in flight (first send
    /// only)? The returned offset picks which payload byte.
    pub fn corrupts(&self, job: u64, rank: u64, seq: u64) -> Option<u64> {
        let h = hash4(self.seed ^ 0x13, job, rank, seq);
        (coin(h) < self.corrupt_rate).then(|| splitmix(h))
    }

    /// Deliver frame `(job, rank, seq)` twice?
    pub fn duplicates(&self, job: u64, rank: u64, seq: u64) -> bool {
        coin(hash4(self.seed ^ 0x14, job, rank, seq)) < self.duplicate_rate
    }

    /// Stall before sending frame `(job, rank, seq)`?
    pub fn stalls(&self, job: u64, rank: u64, seq: u64) -> bool {
        coin(hash4(self.seed ^ 0x15, job, rank, seq)) < self.stall_rate
    }

    /// Does sending frame `(job, rank, seq)` trip a permanent partition?
    pub fn partitions(&self, job: u64, rank: u64, seq: u64) -> bool {
        coin(hash4(self.seed ^ 0x16, job, rank, seq)) < self.partition_rate
    }
}

/// The behaviors in the hostile-peer corpus. Each adversary connection
/// in the `chaos_adversary` sweep plays exactly one of these against a
/// live collector; none of them may panic it, hang it, or grow its
/// memory without bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversaryKind {
    /// Random bytes where the `PNT1` magic + hello should be.
    GarbageHello,
    /// Valid magic, then a frame header declaring a huge payload length
    /// that never arrives — probes the decode-size cap.
    OversizeLength,
    /// CRC-valid frames that are semantically invalid: unknown kinds,
    /// truncated payloads, server-only frames sent client→server.
    SemanticGarbage,
    /// A well-formed handshake, then a CRC-valid `JobOpen` declaring an
    /// absurd rank count (~2^50) — probes the declared-allocation
    /// ceiling, which must answer with a typed reject, not reserve
    /// petabytes of merger state.
    HugeJobOpen,
    /// Replays a challenge response captured from an earlier handshake
    /// on a fresh connection — must fail against the fresh nonce.
    HandshakeReplay,
    /// Authenticates with the wrong key and must get a typed reject.
    WrongKey,
    /// Drips a valid frame one byte at a time, slower than the
    /// collector's patience.
    SlowLoris,
    /// Opens a connection and holds it silently, consuming an
    /// admission slot until the idle reaper claims it.
    ConnectHold,
    /// Connects, sends half a hello, and vanishes.
    MidHandshakeDisconnect,
}

/// Every kind in corpus order; the plan cycles through these so a sweep
/// of `n >= ADVERSARY_KINDS.len()` peers covers the whole corpus.
pub const ADVERSARY_KINDS: [AdversaryKind; 9] = [
    AdversaryKind::GarbageHello,
    AdversaryKind::OversizeLength,
    AdversaryKind::SemanticGarbage,
    AdversaryKind::HugeJobOpen,
    AdversaryKind::HandshakeReplay,
    AdversaryKind::WrongKey,
    AdversaryKind::SlowLoris,
    AdversaryKind::ConnectHold,
    AdversaryKind::MidHandshakeDisconnect,
];

/// A seeded, deterministic corpus of hostile peers. Like
/// [`NetFaultPlan`], every decision is a pure function of the seed and
/// the peer index, so two sweeps with the same plan dispatch exactly
/// the same adversaries with exactly the same payload bytes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AdversaryPlan {
    /// Seed for every byte and choice the corpus generates.
    pub seed: u64,
}

impl AdversaryPlan {
    pub fn new(seed: u64) -> Self {
        AdversaryPlan { seed }
    }

    /// Which behavior peer `peer` plays. Cycles the corpus in order so
    /// coverage is guaranteed, not merely probable.
    pub fn kind(&self, peer: u64) -> AdversaryKind {
        ADVERSARY_KINDS[(peer as usize) % ADVERSARY_KINDS.len()]
    }

    /// Per-peer salt for any parameter a behavior needs beyond bytes.
    pub fn salt(&self, peer: u64) -> u64 {
        hash4(self.seed ^ 0x21, peer, 0, 0)
    }

    /// `len` deterministic pseudo-random bytes for peer `peer`.
    pub fn garbage(&self, peer: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut x = hash4(self.seed ^ 0x22, peer, len as u64, 0);
        while out.len() < len {
            x = splitmix(x);
            out.extend_from_slice(&x.to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

/// Mixes a client id and a local job index into the stable wire job id
/// the collector keys everything on. Public because the `pilgrimd send`
/// driver and the chaos sweep both need to predict server-side ids.
pub fn stable_job_id(client_id: u64, local_job: u64) -> u64 {
    hash4(0x504E_5431, client_id, local_job, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let p = NetFaultPlan::new(7);
        assert!(!p.is_active());
        for i in 0..200 {
            assert!(!p.refuses_connect(i, i));
            assert!(!p.cuts(i, i, i));
            assert!(p.corrupts(i, i, i).is_none());
            assert!(!p.duplicates(i, i, i));
            assert!(!p.stalls(i, i, i));
            assert!(!p.partitions(i, i, i));
        }
    }

    #[test]
    fn decisions_are_seed_deterministic() {
        let a = NetFaultPlan::new(42).cut_rate(0.3).corrupt_rate(0.2).duplicate_rate(0.4);
        let b = a.clone();
        for job in 0..16 {
            for seq in 0..16 {
                assert_eq!(a.cuts(job, 1, seq), b.cuts(job, 1, seq));
                assert_eq!(a.corrupts(job, 1, seq), b.corrupts(job, 1, seq));
                assert_eq!(a.duplicates(job, 1, seq), b.duplicates(job, 1, seq));
            }
        }
        let c = NetFaultPlan::new(43).cut_rate(0.3);
        let flips = (0..256).filter(|&i| a.cuts(i, 1, 0) != c.cuts(i, 1, 0)).count();
        assert!(flips > 0, "seeds 42 and 43 agreed on all 256 decisions");
    }

    #[test]
    fn rates_are_roughly_honored() {
        let p = NetFaultPlan::new(9).cut_rate(0.25);
        let hits = (0..4000).filter(|&i| p.cuts(i, i % 7, i % 13)).count();
        assert!((700..1300).contains(&hits), "0.25 rate produced {hits}/4000 hits");
    }

    #[test]
    fn adversary_plan_is_deterministic_and_covers_the_corpus() {
        let a = AdversaryPlan::new(77);
        let b = AdversaryPlan::new(77);
        let mut kinds = std::collections::HashSet::new();
        for peer in 0..32 {
            assert_eq!(a.kind(peer), b.kind(peer));
            assert_eq!(a.salt(peer), b.salt(peer));
            assert_eq!(a.garbage(peer, 64), b.garbage(peer, 64));
            kinds.insert(format!("{:?}", a.kind(peer)));
        }
        assert_eq!(kinds.len(), ADVERSARY_KINDS.len(), "corpus not fully covered");
        // Different seeds produce different payload bytes.
        assert_ne!(a.garbage(0, 64), AdversaryPlan::new(78).garbage(0, 64));
    }

    #[test]
    fn stable_job_ids_do_not_collide_across_clients() {
        let mut seen = std::collections::HashSet::new();
        for client in 0..64 {
            for job in 0..64 {
                assert!(seen.insert(stable_job_id(client, job)), "collision at {client}/{job}");
            }
        }
    }
}
