//! Symbolic-id pools (paper §3.3).
//!
//! Pilgrim maps every MPI object to a small locally unique symbolic id. A
//! pool hands out the smallest free id; when the object is released the id
//! returns to the pool, so programs that recycle objects keep using the
//! same few ids — which is exactly what makes signatures repeat.
//!
//! For `MPI_Request` objects a single pool breaks down: completion order is
//! nondeterministic, so id assignment order would differ across loop
//! iterations. [`SigPools`] therefore keeps one pool *per call signature*
//! (§3.4.3), making the k-th request created by a given call site always
//! get the same id regardless of completion order.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// A pool of reusable symbolic ids; always hands out the smallest free id.
#[derive(Debug, Default, Clone)]
pub struct IdPool {
    free: BinaryHeap<Reverse<u64>>,
    next: u64,
}

impl IdPool {
    pub fn new() -> Self {
        IdPool::default()
    }

    /// Takes the smallest available id.
    pub fn acquire(&mut self) -> u64 {
        match self.free.pop() {
            Some(Reverse(id)) => id,
            None => {
                let id = self.next;
                self.next += 1;
                id
            }
        }
    }

    /// Returns an id to the pool.
    pub fn release(&mut self, id: u64) {
        debug_assert!(id < self.next, "release of id never acquired");
        self.free.push(Reverse(id));
    }

    /// Highest id ever handed out plus one (the pool's footprint).
    pub fn high_water(&self) -> u64 {
        self.next
    }
}

/// Per-signature id pools for `MPI_Request` symbolic ids. Pools are named
/// by index, so a live request remembers a `u32` instead of its signature.
#[derive(Debug, Default)]
pub struct SigPools {
    index: HashMap<Vec<u8>, u32>,
    pools: Vec<IdPool>,
}

impl SigPools {
    pub fn new() -> Self {
        SigPools::default()
    }

    /// Acquires an id from the pool of the given signature (the call
    /// signature *excluding* the request argument) and returns it with the
    /// pool's index. The signature is copied only the first time it is seen.
    pub fn acquire(&mut self, sig: &[u8]) -> (u32, u64) {
        let pool = match self.index.get(sig) {
            Some(&pool) => pool,
            None => {
                let pool = self.pools.len() as u32;
                self.index.insert(sig.to_vec(), pool);
                self.pools.push(IdPool::new());
                pool
            }
        };
        (pool, self.pools[pool as usize].acquire())
    }

    /// Releases an id back to the pool [`SigPools::acquire`] took it from.
    pub fn release(&mut self, pool: u32, id: u64) {
        self.pools[pool as usize].release(id);
    }

    /// Number of distinct signature pools.
    pub fn num_pools(&self) -> usize {
        self.pools.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smallest_free_id_first() {
        let mut p = IdPool::new();
        assert_eq!(p.acquire(), 0);
        assert_eq!(p.acquire(), 1);
        assert_eq!(p.acquire(), 2);
        p.release(1);
        p.release(0);
        assert_eq!(p.acquire(), 0, "smallest free id is preferred");
        assert_eq!(p.acquire(), 1);
        assert_eq!(p.acquire(), 3);
        assert_eq!(p.high_water(), 4);
    }

    #[test]
    fn reuse_keeps_footprint_small() {
        let mut p = IdPool::new();
        for _ in 0..1000 {
            let id = p.acquire();
            assert_eq!(id, 0);
            p.release(id);
        }
        assert_eq!(p.high_water(), 1);
    }

    #[test]
    fn per_signature_pools_are_independent() {
        let mut sp = SigPools::new();
        let a = b"sig-a".to_vec();
        let b = b"sig-b".to_vec();
        assert_eq!(sp.acquire(&a), (0, 0));
        assert_eq!(sp.acquire(&b), (1, 0), "different signatures use separate pools");
        assert_eq!(sp.acquire(&a), (0, 1));
        sp.release(0, 0);
        assert_eq!(sp.acquire(&a), (0, 0));
        assert_eq!(sp.num_pools(), 2);
    }

    #[test]
    fn completion_order_does_not_change_assignment() {
        // The paper's §3.4.3 scenario: three requests per iteration,
        // completed in random order; ids must repeat across iterations.
        let mut sp = SigPools::new();
        let sigs: Vec<Vec<u8>> = (0..3).map(|i| vec![i as u8]).collect();
        let mut first_iter: Option<Vec<(u32, u64)>> = None;
        let completion_orders = [[0usize, 1, 2], [2, 1, 0], [1, 2, 0], [0, 2, 1]];
        for order in completion_orders {
            let ids: Vec<(u32, u64)> = sigs.iter().map(|s| sp.acquire(s)).collect();
            if let Some(f) = &first_iter {
                assert_eq!(&ids, f, "ids must be stable across iterations");
            } else {
                first_iter = Some(ids.clone());
            }
            for &i in &order {
                sp.release(ids[i].0, ids[i].1);
            }
        }
    }

    #[test]
    fn single_pool_would_churn_where_sig_pools_do_not() {
        // Demonstrates the failure mode the per-signature design fixes.
        let mut single = IdPool::new();
        let a1 = single.acquire();
        let b1 = single.acquire();
        // Iteration 1 completes b first, then a.
        single.release(b1);
        single.release(a1);
        // Iteration 2 acquires in creation order a, b — now gets the
        // smallest free ids, which SWAPPED relative to iteration 1 only if
        // release order mattered; with min-heap they are stable here, but
        // interleaved completion changes assignment:
        let a2 = single.acquire();
        single.release(a2); // a completes before b is even created
        let b2 = single.acquire();
        assert_eq!(b2, a1, "single pool reassigns a's id to b — churn");
    }
}
