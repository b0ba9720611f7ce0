//! Live memory-segment tracking (paper §3.3.3).
//!
//! Heap allocations observed through the interposed allocator are kept in
//! a `BTreeMap` keyed by start address (the paper uses an AVL tree; both
//! answer "which live segment contains this address" in O(log N)); each
//! segment carries a symbolic id drawn from a reusable pool. A buffer
//! pointer used in an MPI call is encoded as `(segment id, offset)`, which
//! both strips the meaningless absolute address and lets post-processing
//! match calls operating on the same buffer. Addresses not covered by any
//! tracked segment (stack or static buffers) are registered lazily as
//! one-byte segments.

use std::collections::BTreeMap;

use crate::idpool::IdPool;

/// Encoded form of a memory pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PtrCode {
    /// Symbolic id of the containing segment.
    pub segment: u64,
    /// Byte offset of the pointer within the segment.
    pub offset: u64,
}

/// One live segment, keyed in [`MemTracker`] by its start address.
#[derive(Debug)]
struct Seg {
    size: u64,
    id: u64,
    /// Registered by [`MemTracker::encode_ptr`] rather than the allocator,
    /// so a later real allocation covering it evicts it instead of leaking
    /// its id.
    lazy: bool,
}

/// Tracks live heap segments and their symbolic ids.
#[derive(Debug, Default)]
pub struct MemTracker {
    segs: BTreeMap<u64, Seg>,
    pool: IdPool,
    /// Number of segments with `lazy` set.
    lazy: usize,
}

impl MemTracker {
    pub fn new() -> Self {
        MemTracker::default()
    }

    /// A segment was allocated. Any lazy one-byte segments inside the new
    /// range are evicted first, in ascending address order, and their ids
    /// returned to the pool — the allocator now owns those addresses. A
    /// live segment at the same start (which a correct allocator never
    /// leaves behind) takes the new size and keeps its id.
    pub fn on_alloc(&mut self, addr: u64, size: u64) {
        let size = size.max(1);
        if self.lazy > 0 {
            let end = addr.saturating_add(size);
            for (_, seg) in self.segs.extract_if(addr..end, |_, seg| seg.lazy) {
                self.pool.release(seg.id);
                self.lazy -= 1;
            }
        }
        let pool = &mut self.pool;
        let seg =
            self.segs.entry(addr).or_insert_with(|| Seg { size, id: pool.acquire(), lazy: false });
        seg.size = size;
    }

    /// A segment was freed; its id returns to the pool.
    pub fn on_free(&mut self, addr: u64) {
        if let Some(seg) = self.segs.remove(&addr) {
            self.pool.release(seg.id);
            self.lazy -= usize::from(seg.lazy);
        }
    }

    /// Encodes a pointer. Unknown addresses get a fresh conservative
    /// one-byte segment (stack variables, §3.3.3).
    pub fn encode_ptr(&mut self, addr: u64) -> PtrCode {
        if let Some((&start, seg)) = self.segs.range(..=addr).next_back() {
            if addr - start < seg.size {
                return PtrCode { segment: seg.id, offset: addr - start };
            }
        }
        let id = self.pool.acquire();
        self.segs.insert(addr, Seg { size: 1, id, lazy: true });
        self.lazy += 1;
        PtrCode { segment: id, offset: 0 }
    }

    /// Number of live tracked segments.
    pub fn live_segments(&self) -> usize {
        self.segs.len()
    }

    /// O(1) estimate of the tracker's resident bytes (64 per segment, 16
    /// more per lazy one), for the governor's live budget accounting.
    pub fn approx_bytes(&self) -> usize {
        self.segs.len() * 64 + self.lazy * 16
    }

    /// Footprint of the id space.
    pub fn id_high_water(&self) -> u64 {
        self.pool.high_water()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pointers_resolve_to_segment_and_offset() {
        let mut m = MemTracker::new();
        m.on_alloc(0x1000, 256);
        m.on_alloc(0x2000, 64);
        assert_eq!(m.encode_ptr(0x1000), PtrCode { segment: 0, offset: 0 });
        assert_eq!(m.encode_ptr(0x1080), PtrCode { segment: 0, offset: 0x80 });
        assert_eq!(m.encode_ptr(0x2010), PtrCode { segment: 1, offset: 0x10 });
    }

    #[test]
    fn freed_ids_are_reused_for_new_segments() {
        let mut m = MemTracker::new();
        m.on_alloc(0x1000, 16);
        m.on_free(0x1000);
        m.on_alloc(0x9000, 16);
        // Same symbolic id 0, even at a different address — programs that
        // free and reallocate per iteration produce identical signatures.
        assert_eq!(m.encode_ptr(0x9000).segment, 0);
        assert_eq!(m.id_high_water(), 1);
    }

    #[test]
    fn unknown_address_becomes_stack_segment() {
        let mut m = MemTracker::new();
        let c1 = m.encode_ptr(0x7fff_0000);
        assert_eq!(c1.offset, 0);
        // The same address hits the same lazy segment afterwards.
        let c2 = m.encode_ptr(0x7fff_0000);
        assert_eq!(c1, c2);
        assert_eq!(m.live_segments(), 1);
    }

    #[test]
    fn free_of_untracked_address_is_ignored() {
        let mut m = MemTracker::new();
        m.on_free(0x4444);
        assert_eq!(m.live_segments(), 0);
    }

    #[test]
    fn alloc_over_lazy_segment_reclaims_its_id() {
        let mut m = MemTracker::new();
        // A stack-like address is touched before the allocator claims the
        // region: a lazy one-byte segment is born with id 0.
        let lazy = m.encode_ptr(0x5000);
        assert_eq!(lazy.segment, 0);
        assert_eq!(m.live_segments(), 1);
        // A real allocation covering that address must evict the lazy
        // segment (no duplicate-start panic) and recycle its id.
        m.on_alloc(0x5000, 256);
        assert_eq!(m.live_segments(), 1);
        assert_eq!(m.encode_ptr(0x5000).segment, 0, "lazy id recycled");
        assert_eq!(m.id_high_water(), 1, "lazy segment must not leak an id");
        // Interior lazy segments are evicted too.
        let mid = m.encode_ptr(0x9010);
        m.on_alloc(0x9000, 64);
        assert_eq!(m.live_segments(), 2);
        let code = m.encode_ptr(0x9010);
        assert_eq!(code.segment, mid.segment, "interior lazy id recycled");
        assert_eq!(code.offset, 0x10, "now an offset into the real segment");
        assert_eq!(m.id_high_water(), 2);
    }

    #[test]
    fn freeing_a_lazy_segment_releases_its_id() {
        let mut m = MemTracker::new();
        m.encode_ptr(0x7000);
        m.on_free(0x7000);
        assert_eq!(m.live_segments(), 0);
        m.on_alloc(0x8000, 16);
        assert_eq!(m.encode_ptr(0x8000).segment, 0);
        assert_eq!(m.id_high_water(), 1);
    }

    #[test]
    fn repeated_lazy_then_alloc_cycles_keep_id_high_water_flat() {
        let mut m = MemTracker::new();
        for iter in 0..100u64 {
            let base = 0x10_0000 + iter * 0x1000;
            m.encode_ptr(base + 8); // lazy touch before the alloc lands
            m.on_alloc(base, 512);
            m.encode_ptr(base + 8);
            m.on_free(base);
        }
        assert_eq!(m.live_segments(), 0);
        assert!(m.id_high_water() <= 2, "ids must be recycled, got {}", m.id_high_water());
    }

    #[test]
    fn interleaved_alloc_free_keeps_ids_stable_per_iteration() {
        let mut m = MemTracker::new();
        let mut first: Option<Vec<u64>> = None;
        for iter in 0..5 {
            let base = 0x1000 * (iter + 1) as u64;
            m.on_alloc(base, 128);
            m.on_alloc(base + 0x10000, 128);
            let ids = vec![m.encode_ptr(base).segment, m.encode_ptr(base + 0x10000).segment];
            if let Some(f) = &first {
                assert_eq!(&ids, f);
            } else {
                first = Some(ids);
            }
            m.on_free(base);
            m.on_free(base + 0x10000);
        }
    }

    /// A naive model of [`MemTracker`]: `(start, size, id, lazy)` in a
    /// `Vec` searched linearly, with its own smallest-free-id pool.
    #[derive(Default)]
    struct Model {
        segs: Vec<(u64, u64, u64, bool)>,
        free: Vec<u64>,
        next: u64,
    }

    impl Model {
        fn acquire(&mut self) -> u64 {
            let smallest = (0..self.free.len()).min_by_key(|&i| self.free[i]);
            smallest.map(|i| self.free.swap_remove(i)).unwrap_or_else(|| {
                self.next += 1;
                self.next - 1
            })
        }

        fn remove_where(&mut self, gone: impl Fn(&(u64, u64, u64, bool)) -> bool) {
            let (out, kept) = std::mem::take(&mut self.segs).into_iter().partition(gone);
            self.segs = kept;
            self.free.extend(out.iter().map(|&(_, _, id, _)| id));
        }

        fn on_alloc(&mut self, addr: u64, size: u64) {
            let size = size.max(1);
            let covered = addr..addr.saturating_add(size);
            self.remove_where(|&(start, _, _, lazy)| lazy && covered.contains(&start));
            match self.segs.iter_mut().find(|s| s.0 == addr) {
                Some(seg) => seg.1 = size,
                None => {
                    let id = self.acquire();
                    self.segs.push((addr, size, id, false));
                }
            }
        }

        fn on_free(&mut self, addr: u64) {
            self.remove_where(|&(start, ..)| start == addr);
        }

        fn encode_ptr(&mut self, addr: u64) -> PtrCode {
            let hit =
                self.segs.iter().find(|&&(start, size, ..)| start <= addr && addr - start < size);
            if let Some(&(start, _, id, _)) = hit {
                return PtrCode { segment: id, offset: addr - start };
            }
            let id = self.acquire();
            self.segs.push((addr, 1, id, true));
            PtrCode { segment: id, offset: 0 }
        }

        fn approx_bytes(&self) -> usize {
            self.segs.len() * 64 + self.segs.iter().filter(|s| s.3).count() * 16
        }
    }

    #[test]
    fn matches_a_naive_model_under_random_ops() {
        // Allocations start on 256-byte slots, free or live, and fit inside
        // one, so real segments never overlap; pointers land anywhere, so
        // untracked addresses become lazy segments that later allocations
        // cover.
        const SLOT: u64 = 0x100;
        const SLOTS: u64 = 32;
        const BASE: u64 = 0x1000;
        let mut m = MemTracker::new();
        let mut model = Model::default();
        let mut evicted = 0;
        let mut state = 0x5eed_u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        for step in 0..5000 {
            let addr = BASE + next() % (SLOTS * SLOT);
            match next() % 4 {
                0 => {
                    let (start, size) = (BASE + next() % SLOTS * SLOT, 1 + next() % SLOT);
                    let covered = start..start + size;
                    evicted += model.segs.iter().filter(|s| s.3 && covered.contains(&s.0)).count();
                    m.on_alloc(start, size);
                    model.on_alloc(start, size);
                }
                1 => {
                    // Mostly a live start (real or lazy), sometimes untracked.
                    let live = model.segs.len() as u64;
                    let pick = next() % (live + 1);
                    let target = model.segs.get(pick as usize).map_or(addr, |s| s.0);
                    m.on_free(target);
                    model.on_free(target);
                }
                _ => assert_eq!(m.encode_ptr(addr), model.encode_ptr(addr), "step {step}"),
            }
            assert_eq!(m.live_segments(), model.segs.len(), "step {step}");
            assert_eq!(m.id_high_water(), model.next, "step {step}");
            assert_eq!(m.approx_bytes(), model.approx_bytes(), "step {step}");
        }
        assert!(evicted > 100, "allocations covered only {evicted} lazy segments");
    }
}
