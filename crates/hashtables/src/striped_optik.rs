//! Striped hash table optimized with OPTIK (*java-optik*, §5.2).
//!
//! The paper's optimization of [`crate::StripedHashTable`]: each segment's
//! lock becomes an OPTIK lock, and updates follow the OPTIK pattern:
//!
//! 1. read the segment version, traverse the bucket **read-only**;
//! 2. infeasible updates return `false` without any locking;
//! 3. feasible updates acquire with `lock_version(vn)`: when the version
//!    validates, "no concurrent modification has completed on this bucket,
//!    hence we do not need to re-traverse the bucket" — the first
//!    traversal's findings are applied directly;
//! 4. only on validation failure is the bucket re-traversed under the lock.
//!
//! Failed updates that had to lock release with `revert` so read-only
//! critical sections never advance the version.

use std::sync::atomic::{AtomicPtr, Ordering};

use optik::{OptikLock, OptikVersioned};
use synchro::CachePadded;

use crate::striped::{chain_pool, ChainPool, Node};
use crate::{bucket_of, ConcurrentSet, Key, Val, DEFAULT_SEGMENTS};

/// The striped OPTIK (`java-optik`) hash table. Chain nodes come from a
/// per-table type-stable pool (magazine-cached allocation, QSBR-deferred
/// recycling).
pub struct StripedOptikHashTable {
    buckets: Box<[AtomicPtr<Node>]>,
    segments: Box<[CachePadded<OptikVersioned>]>,
    pool: ChainPool,
}

// SAFETY: updates are serialized per segment via the OPTIK locks;
// searches read atomic pointers of QSBR-protected nodes.
unsafe impl Send for StripedOptikHashTable {}
unsafe impl Sync for StripedOptikHashTable {}

impl StripedOptikHashTable {
    /// Creates a table with `buckets` buckets and `segments` OPTIK stripes.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(buckets: usize, segments: usize) -> Self {
        assert!(buckets > 0, "need at least one bucket");
        assert!(segments > 0, "need at least one segment");
        Self {
            buckets: (0..buckets)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect(),
            segments: (0..segments)
                .map(|_| CachePadded::new(OptikVersioned::new()))
                .collect(),
            pool: chain_pool(),
        }
    }

    /// Creates a table with the paper's default of 128 segments.
    pub fn with_default_segments(buckets: usize) -> Self {
        Self::new(buckets, DEFAULT_SEGMENTS)
    }

    #[inline]
    fn segment(&self, bucket: usize) -> &OptikVersioned {
        &self.segments[bucket % self.segments.len()]
    }

    /// Read-only bucket traversal returning the matching node (if any).
    ///
    /// # Safety
    ///
    /// QSBR grace period required.
    #[inline]
    unsafe fn find_node(&self, bucket: usize, key: Key) -> Option<*mut Node> {
        // SAFETY: per contract.
        unsafe {
            let mut cur = self.buckets[bucket].load(Ordering::Acquire);
            while !cur.is_null() {
                if (*cur).key == key {
                    return Some(cur);
                }
                cur = (*cur).next.load(Ordering::Acquire);
            }
            None
        }
    }

    /// Traversal with predecessor tracking (for unlinking).
    ///
    /// # Safety
    ///
    /// QSBR grace period required.
    #[inline]
    unsafe fn find_with_pred(&self, bucket: usize, key: Key) -> Option<(*mut Node, *mut Node)> {
        // SAFETY: per contract.
        unsafe {
            let mut prev: *mut Node = std::ptr::null_mut();
            let mut cur = self.buckets[bucket].load(Ordering::Acquire);
            while !cur.is_null() {
                if (*cur).key == key {
                    return Some((prev, cur));
                }
                prev = cur;
                cur = (*cur).next.load(Ordering::Acquire);
            }
            None
        }
    }

    /// Unlinks `cur` (with predecessor `prev`, null = bucket head) and
    /// retires it.
    ///
    /// # Safety
    ///
    /// Caller holds the segment lock; `(prev, cur)` must be currently
    /// linked in `bucket`.
    unsafe fn unlink(&self, bucket: usize, prev: *mut Node, cur: *mut Node) -> Val {
        // SAFETY: per contract.
        unsafe {
            let next = (*cur).next.load(Ordering::Relaxed);
            if prev.is_null() {
                self.buckets[bucket].store(next, Ordering::Release);
            } else {
                (*prev).next.store(next, Ordering::Release);
            }
            let val = (*cur).val.load(Ordering::Relaxed);
            // SAFETY: unlinked exactly once under the lock.
            reclaim::with_local(|h| self.pool.retire(cur, h));
            val
        }
    }
}

impl ConcurrentSet for StripedOptikHashTable {
    fn search(&self, key: Key) -> Option<Val> {
        reclaim::quiescent();
        let b = bucket_of(key, self.buckets.len());
        // SAFETY: grace period.
        unsafe {
            self.find_node(b, key)
                .map(|n| (*n).val.load(Ordering::Acquire))
        }
    }

    fn insert(&self, key: Key, val: Val) -> bool {
        reclaim::quiescent();
        let b = bucket_of(key, self.buckets.len());
        let seg = self.segment(b);
        let vn = seg.get_version();
        // Phase 1: optimistic read-only traversal.
        // SAFETY: grace period.
        if unsafe { self.find_node(b, key) }.is_some() {
            // Infeasible: no locking at all (the OPTIK win over `java`).
            return false;
        }
        // Phase 2: lock, learning whether the optimistic traversal is
        // still valid.
        let validated = seg.lock_version(vn);
        // SAFETY: segment lock held.
        unsafe {
            if !validated && self.find_node(b, key).is_some() {
                // Second traversal was needed and found the key.
                seg.revert(); // read-only critical section
                return false;
            }
            let head = self.buckets[b].load(Ordering::Relaxed);
            let node = self.pool.alloc_init(|| Node::make(key, val, head));
            self.buckets[b].store(node, Ordering::Release);
        }
        seg.unlock();
        true
    }

    fn delete(&self, key: Key) -> Option<Val> {
        reclaim::quiescent();
        let b = bucket_of(key, self.buckets.len());
        let seg = self.segment(b);
        let vn = seg.get_version();
        // Phase 1: optimistic traversal with predecessor tracking.
        // SAFETY: grace period.
        let Some((prev, cur)) = (unsafe { self.find_with_pred(b, key) }) else {
            return None; // infeasible: never locks
        };
        let validated = seg.lock_version(vn);
        // SAFETY: segment lock held.
        unsafe {
            if validated {
                // No committed modification since vn: (prev, cur) is still
                // the correct link — skip the second traversal.
                let val = self.unlink(b, prev, cur);
                seg.unlock();
                Some(val)
            } else {
                // Re-traverse under the lock.
                match self.find_with_pred(b, key) {
                    Some((prev, cur)) => {
                        let val = self.unlink(b, prev, cur);
                        seg.unlock();
                        Some(val)
                    }
                    None => {
                        seg.revert();
                        None
                    }
                }
            }
        }
    }

    fn len(&self) -> usize {
        reclaim::quiescent();
        let mut n = 0;
        for b in self.buckets.iter() {
            // SAFETY: grace period.
            unsafe {
                let mut cur = b.load(Ordering::Acquire);
                while !cur.is_null() {
                    n += 1;
                    cur = (*cur).next.load(Ordering::Acquire);
                }
            }
        }
        n
    }
}

impl crate::ConcurrentMap for StripedOptikHashTable {
    fn get(&self, key: Key) -> Option<Val> {
        ConcurrentSet::search(self, key)
    }

    /// OPTIK upsert: both outcomes write, so the operation always locks,
    /// but a successful validation lets it reuse the optimistic traversal's
    /// finding (the matching node, or its absence) without re-walking the
    /// bucket — the same second-traversal elision as `insert`/`delete`.
    fn put(&self, key: Key, val: Val) -> Option<Val> {
        reclaim::quiescent();
        let b = bucket_of(key, self.buckets.len());
        let seg = self.segment(b);
        let vn = seg.get_version();
        // Phase 1: optimistic read-only traversal.
        // SAFETY: grace period.
        let hit = unsafe { self.find_node(b, key) };
        // Phase 2: lock; on validation failure the traversal is stale and
        // must be redone under the lock.
        let validated = seg.lock_version(vn);
        // SAFETY: segment lock held.
        let prev = unsafe {
            let node = if validated {
                hit
            } else {
                self.find_node(b, key)
            };
            match node {
                Some(n) => Some((*n).val.swap(val, Ordering::AcqRel)),
                None => {
                    let head = self.buckets[b].load(Ordering::Relaxed);
                    let node = self.pool.alloc_init(|| Node::make(key, val, head));
                    self.buckets[b].store(node, Ordering::Release);
                    None
                }
            }
        };
        seg.unlock();
        prev
    }

    fn remove(&self, key: Key) -> Option<Val> {
        ConcurrentSet::delete(self, key)
    }

    fn len(&self) -> usize {
        ConcurrentSet::len(self)
    }

    fn for_each(&self, f: &mut dyn FnMut(Key, Val)) {
        reclaim::quiescent();
        for b in self.buckets.iter() {
            // SAFETY: grace period.
            unsafe { crate::striped::for_each_chain(b, f) }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn basic_roundtrip() {
        let t = StripedOptikHashTable::new(8, 4);
        assert!(t.insert(2, 20));
        assert!(t.insert(10, 100));
        assert!(!t.insert(2, 21));
        assert_eq!(t.search(10), Some(100));
        assert_eq!(t.delete(2), Some(20));
        assert_eq!(t.delete(2), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn infeasible_updates_never_bump_version() {
        let t = StripedOptikHashTable::new(4, 1);
        assert!(t.insert(1, 10));
        let v = t.segments[0].get_version();
        assert!(!t.insert(1, 11), "present key");
        assert_eq!(t.delete(2), None, "absent key");
        assert_eq!(t.search(1), Some(10));
        assert_eq!(
            t.segments[0].get_version(),
            v,
            "read-only paths must not synchronize"
        );
    }

    #[test]
    fn failed_update_that_locked_reverts() {
        // Force the !validated + infeasible path: insert under a version
        // that gets invalidated between phases is hard to stage
        // deterministically single-threaded, so exercise revert indirectly:
        // a full sequence of feasible/infeasible ops must leave the lock
        // free and version sane.
        let t = StripedOptikHashTable::new(2, 1);
        for k in 1..=20u64 {
            t.insert(k, k);
        }
        for k in 1..=20u64 {
            assert!(!t.insert(k, 0));
        }
        for k in 1..=20u64 {
            assert_eq!(t.delete(k), Some(k));
        }
        assert!(!t.segments[0].is_locked());
        assert!(t.is_empty());
    }

    #[test]
    fn concurrent_hot_segment_consistent() {
        let t = Arc::new(StripedOptikHashTable::new(8, 1));
        let mut handles = Vec::new();
        for tid in 0..8u64 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                let mut net = 0i64;
                let mut x = tid.wrapping_mul(0xA24BAED4963EE407) | 1;
                for _ in 0..synchro::stress::ops(15_000) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let k = x % 32 + 1;
                    match x % 3 {
                        0 => {
                            if t.insert(k, k) {
                                net += 1;
                            }
                        }
                        1 => {
                            if t.delete(k).is_some() {
                                net -= 1;
                            }
                        }
                        _ => {
                            if let Some(v) = t.search(k) {
                                assert_eq!(v, k);
                            }
                        }
                    }
                }
                net
            }));
        }
        let net: i64 =
            reclaim::offline_while(|| handles.into_iter().map(|h| h.join().unwrap()).sum());
        assert_eq!(t.len() as i64, net);
    }
}
