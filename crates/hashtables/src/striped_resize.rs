//! ConcurrentHashMap-style striped hash table **with per-segment
//! resizing** (*java-resize*).
//!
//! The paper describes Lea's design as "lock striping: It partitions the
//! buckets into n segments. Each segment (and its buckets) is protected by
//! a single lock **and can be individually resized**." The fixed-capacity
//! [`super::StripedHashTable`] is what Figure 10 benchmarks (the paper
//! sizes buckets == elements, so resizing never triggers there); this
//! module implements the resizing half of the design as the workspace's
//! extension, so the table stays O(1) when the initial sizing guess is
//! wrong.
//!
//! Resizing happens under the segment lock only — other segments are
//! completely undisturbed. Searches stay lock-free across a resize: the
//! rehash **clones** every node into the new bucket array, publishes the
//! new array with one release store, and retires the old array and old
//! nodes through QSBR, so a concurrent reader traverses either the old
//! snapshot or the new one, never a mix.

use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

use synchro::{CachePadded, RawLock, TtasLock};

use crate::striped::{chain_pool, ChainPool, Node};
use crate::{ConcurrentSet, Key, Val, DEFAULT_SEGMENTS};

/// One immutable-identity bucket array; replaced wholesale on resize.
struct Table {
    buckets: Box<[AtomicPtr<Node>]>,
}

impl Table {
    fn boxed(buckets: usize) -> *mut Table {
        Box::into_raw(Box::new(Table {
            buckets: (0..buckets)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect(),
        }))
    }
}

struct Segment {
    lock: TtasLock,
    /// Current bucket array; swapped (never mutated in place, except the
    /// chains it points to) under `lock`.
    table: AtomicPtr<Table>,
    /// Elements in this segment; written under `lock`, read lock-free.
    count: AtomicUsize,
}

/// Grow when `count + 1 > buckets * 3/4` (CHM's default load factor).
const LOAD_NUM: usize = 3;
const LOAD_DEN: usize = 4;

/// The resizable striped (`java-resize`) hash table.
///
/// ```
/// use optik_hashtables::{ConcurrentSet, ResizableStripedHashTable};
///
/// // 4 segments, 2 buckets each: grows itself as elements arrive.
/// let t = ResizableStripedHashTable::new(4, 2);
/// for k in 1..=100 {
///     assert!(t.insert(k, k * 10));
/// }
/// assert_eq!(t.len(), 100);
/// assert!(t.capacity() > 8, "segments grew independently");
/// assert_eq!(t.search(37), Some(370));
/// ```
pub struct ResizableStripedHashTable {
    segments: Box<[CachePadded<Segment>]>,
    /// Chain nodes are pooled (type-stable, magazine-cached); the bucket
    /// arrays themselves are plain boxes retired wholesale on resize.
    pool: ChainPool,
}

// SAFETY: updates are serialized per segment; searches read atomic
// pointers of QSBR-protected tables and nodes.
unsafe impl Send for ResizableStripedHashTable {}
unsafe impl Sync for ResizableStripedHashTable {}

/// Fibonacci spreading: segment and bucket come from different bit ranges
/// so `segments` and `buckets` being both small powers of two does not
/// alias.
#[inline]
fn spread(key: Key) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl ResizableStripedHashTable {
    /// Creates a table with `segments` lock stripes, each starting at
    /// `init_buckets` buckets.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(segments: usize, init_buckets: usize) -> Self {
        assert!(segments > 0, "need at least one segment");
        assert!(init_buckets > 0, "need at least one bucket per segment");
        Self {
            segments: (0..segments)
                .map(|_| {
                    CachePadded::new(Segment {
                        lock: TtasLock::new(),
                        table: AtomicPtr::new(Table::boxed(init_buckets)),
                        count: AtomicUsize::new(0),
                    })
                })
                .collect(),
            pool: chain_pool(),
        }
    }

    /// Creates a table with the paper's default of 128 segments, two
    /// initial buckets each.
    pub fn with_default_segments() -> Self {
        Self::new(DEFAULT_SEGMENTS, 2)
    }

    #[inline]
    fn segment(&self, key: Key) -> &Segment {
        // High bits pick the segment...
        &self.segments[(spread(key) >> 48) as usize % self.segments.len()]
    }

    #[inline]
    fn bucket(table: &Table, key: Key) -> &AtomicPtr<Node> {
        // ...low bits pick the bucket within the segment's table.
        &table.buckets[spread(key) as usize % table.buckets.len()]
    }

    /// Total buckets across all segments (for tests/diagnostics).
    pub fn capacity(&self) -> usize {
        self.segments
            .iter()
            .map(|s| {
                // SAFETY: table pointer is always valid (QSBR-retired only
                // after replacement; read under a grace period).
                unsafe { (&*s.table.load(Ordering::Acquire)).buckets.len() }
            })
            .sum()
    }

    /// Lock-free chain lookup in `table`.
    ///
    /// # Safety
    ///
    /// QSBR grace period required.
    #[inline]
    unsafe fn find(table: &Table, key: Key) -> Option<Val> {
        // SAFETY: per contract.
        unsafe {
            let mut cur = Self::bucket(table, key).load(Ordering::Acquire);
            while !cur.is_null() {
                if (*cur).key == key {
                    return Some((*cur).val.load(Ordering::Acquire));
                }
                cur = (*cur).next.load(Ordering::Acquire);
            }
            None
        }
    }

    /// Doubles `seg`'s bucket array, cloning every node.
    ///
    /// # Safety
    ///
    /// `seg.lock` must be held; QSBR grace period required.
    unsafe fn grow(&self, seg: &Segment) {
        // SAFETY: lock held — exclusive writer for this segment.
        unsafe {
            let old = seg.table.load(Ordering::Relaxed);
            let new = Table::boxed((&*old).buckets.len() * 2);
            for b in (*old).buckets.iter() {
                let mut cur = b.load(Ordering::Relaxed);
                while !cur.is_null() {
                    // Clone into the new table (head insertion); readers of
                    // the old table keep an intact chain.
                    let slot = Self::bucket(&*new, (*cur).key);
                    let head = slot.load(Ordering::Relaxed);
                    let key = (*cur).key;
                    let val = (*cur).val.load(Ordering::Relaxed);
                    slot.store(
                        self.pool.alloc_init(|| Node::make(key, val, head)),
                        Ordering::Relaxed,
                    );
                    cur = (*cur).next.load(Ordering::Relaxed);
                }
            }
            // Publish, then retire the old array and every old node.
            seg.table.store(new, Ordering::Release);
            reclaim::with_local(|h| {
                for b in (*old).buckets.iter() {
                    let mut cur = b.load(Ordering::Relaxed);
                    while !cur.is_null() {
                        let next = (*cur).next.load(Ordering::Relaxed);
                        self.pool.retire(cur, h);
                        cur = next;
                    }
                }
                h.retire(old);
            });
        }
    }
}

impl ConcurrentSet for ResizableStripedHashTable {
    fn search(&self, key: Key) -> Option<Val> {
        reclaim::quiescent();
        let seg = self.segment(key);
        // SAFETY: grace period; the table read stays valid through it.
        unsafe { Self::find(&*seg.table.load(Ordering::Acquire), key) }
    }

    fn insert(&self, key: Key, val: Val) -> bool {
        reclaim::quiescent();
        let seg = self.segment(key);
        // Java behaviour: lock first, feasible or not.
        seg.lock.lock();
        // SAFETY: segment lock held; grace period for reads.
        let r = unsafe {
            let table = &*seg.table.load(Ordering::Relaxed);
            if Self::find(table, key).is_some() {
                false
            } else {
                let count = seg.count.load(Ordering::Relaxed);
                if (count + 1) * LOAD_DEN > table.buckets.len() * LOAD_NUM {
                    self.grow(seg);
                }
                let table = &*seg.table.load(Ordering::Relaxed);
                let slot = Self::bucket(table, key);
                let head = slot.load(Ordering::Relaxed);
                let node = self.pool.alloc_init(|| Node::make(key, val, head));
                slot.store(node, Ordering::Release);
                seg.count.store(count + 1, Ordering::Relaxed);
                true
            }
        };
        seg.lock.unlock();
        r
    }

    fn delete(&self, key: Key) -> Option<Val> {
        reclaim::quiescent();
        let seg = self.segment(key);
        seg.lock.lock();
        // SAFETY: segment lock held.
        let r = unsafe {
            let table = &*seg.table.load(Ordering::Relaxed);
            let slot = Self::bucket(table, key);
            let mut prev: *mut Node = std::ptr::null_mut();
            let mut cur = slot.load(Ordering::Relaxed);
            loop {
                if cur.is_null() {
                    break None;
                }
                if (*cur).key == key {
                    let next = (*cur).next.load(Ordering::Relaxed);
                    if prev.is_null() {
                        slot.store(next, Ordering::Release);
                    } else {
                        (*prev).next.store(next, Ordering::Release);
                    }
                    let val = (*cur).val.load(Ordering::Relaxed);
                    // SAFETY: unlinked exactly once under the lock.
                    reclaim::with_local(|h| self.pool.retire(cur, h));
                    seg.count.fetch_sub(1, Ordering::Relaxed);
                    break Some(val);
                }
                prev = cur;
                cur = (*cur).next.load(Ordering::Relaxed);
            }
        };
        seg.lock.unlock();
        r
    }

    fn len(&self) -> usize {
        self.segments
            .iter()
            .map(|s| s.count.load(Ordering::Relaxed))
            .sum()
    }
}

impl crate::ConcurrentMap for ResizableStripedHashTable {
    fn get(&self, key: Key) -> Option<Val> {
        ConcurrentSet::search(self, key)
    }

    /// Upsert under the segment lock; a fresh insert may trigger the
    /// segment's independent growth exactly like [`ConcurrentSet::insert`].
    fn put(&self, key: Key, val: Val) -> Option<Val> {
        reclaim::quiescent();
        let seg = self.segment(key);
        seg.lock.lock();
        // SAFETY: segment lock held; grace period for reads.
        let prev = unsafe {
            let table = &*seg.table.load(Ordering::Relaxed);
            let mut cur = Self::bucket(table, key).load(Ordering::Relaxed);
            let mut hit = None;
            while !cur.is_null() {
                if (*cur).key == key {
                    hit = Some(cur);
                    break;
                }
                cur = (*cur).next.load(Ordering::Relaxed);
            }
            match hit {
                Some(n) => Some((*n).val.swap(val, Ordering::AcqRel)),
                None => {
                    let count = seg.count.load(Ordering::Relaxed);
                    if (count + 1) * LOAD_DEN > table.buckets.len() * LOAD_NUM {
                        self.grow(seg);
                    }
                    let table = &*seg.table.load(Ordering::Relaxed);
                    let slot = Self::bucket(table, key);
                    let head = slot.load(Ordering::Relaxed);
                    let node = self.pool.alloc_init(|| Node::make(key, val, head));
                    slot.store(node, Ordering::Release);
                    seg.count.store(count + 1, Ordering::Relaxed);
                    None
                }
            }
        };
        seg.lock.unlock();
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
        for seg in self.segments.iter() {
            // SAFETY: grace period; the table read stays valid through it.
            unsafe {
                let table = &*seg.table.load(Ordering::Acquire);
                for b in table.buckets.iter() {
                    crate::striped::for_each_chain(b, f);
                }
            }
        }
    }

    #[inline]
    fn prefetch(&self, key: Key) {
        if synchro::prefetch::ACTIVE {
            // The bucket array itself is QSBR-retired on resize: reading
            // it needs a registered thread, which `with_local` ensures.
            reclaim::with_local(|_| {
                let table = self.segment(key).table.load(Ordering::Acquire);
                // SAFETY: grace period (registered, not announcing); the
                // head is only hinted, never dereferenced.
                let head = unsafe { Self::bucket(&*table, key).load(Ordering::Relaxed) };
                synchro::prefetch::read(head);
            });
        }
    }
}

impl Drop for ResizableStripedHashTable {
    fn drop(&mut self) {
        for seg in self.segments.iter() {
            let table = seg.table.load(Ordering::Relaxed);
            // SAFETY: exclusive at drop; the table box is uniquely owned
            // (retired tables were already handed to QSBR). Chain nodes are
            // pool slots and are simply abandoned: the pool's chunks free
            // when the last Arc (here, or held by in-flight retires) drops.
            unsafe {
                drop(Box::from_raw(table));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn basic_roundtrip() {
        let t = ResizableStripedHashTable::new(4, 2);
        assert!(t.insert(1, 10));
        assert!(!t.insert(1, 11));
        assert_eq!(t.search(1), Some(10));
        assert_eq!(t.delete(1), Some(10));
        assert_eq!(t.delete(1), None);
        assert!(t.is_empty());
    }

    #[test]
    fn grows_under_load_and_keeps_every_key() {
        let t = ResizableStripedHashTable::new(1, 2);
        let cap0 = t.capacity();
        for k in 1..=1_000u64 {
            assert!(t.insert(k, k * 3));
        }
        assert!(
            t.capacity() >= 1_000 * LOAD_DEN / LOAD_NUM / 2,
            "table must have grown: {} buckets",
            t.capacity()
        );
        assert!(t.capacity() > cap0);
        for k in 1..=1_000u64 {
            assert_eq!(t.search(k), Some(k * 3), "key {k} lost in resize");
        }
        assert_eq!(t.len(), 1_000);
        for k in 1..=1_000u64 {
            assert_eq!(t.delete(k), Some(k * 3));
        }
        assert!(t.is_empty());
    }

    #[test]
    fn resize_is_per_segment() {
        let t = ResizableStripedHashTable::new(8, 2);
        // Fill heavily; every segment grows independently, none is starved.
        for k in 1..=4_000u64 {
            assert!(t.insert(k, k));
        }
        assert_eq!(t.len(), 4_000);
        // All 8 segments must have grown beyond the initial 2 buckets.
        assert!(t.capacity() > 8 * 2 * 4, "capacity {}", t.capacity());
    }

    #[test]
    fn searches_survive_concurrent_resizes() {
        // Readers hammer stable keys while writers force repeated growth
        // in the same segments; the clone-and-publish scheme must never
        // show a reader a partial table.
        let t = Arc::new(ResizableStripedHashTable::new(2, 2));
        for k in 1..=64u64 {
            assert!(t.insert(k, k + 9));
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = Vec::new();
        for w in 0..2u64 {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut next = 1_000 + w * 1_000_000;
                while !stop.load(Ordering::Relaxed) {
                    // Insert fresh keys to force growth, then delete them
                    // so the run is bounded in memory.
                    for i in 0..512 {
                        assert!(t.insert(next + i, 1));
                    }
                    for i in 0..512 {
                        assert_eq!(t.delete(next + i), Some(1));
                    }
                    next += 512;
                }
                reclaim::offline();
            }));
        }
        for _ in 0..4 {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for k in 1..=64u64 {
                        assert_eq!(t.search(k), Some(k + 9), "stable key {k} vanished");
                    }
                }
                reclaim::offline();
            }));
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        reclaim::online();
        assert_eq!(t.len(), 64);
    }

    #[test]
    fn concurrent_inserts_count_exactly_across_growth() {
        let t = Arc::new(ResizableStripedHashTable::new(4, 2));
        let mut handles = Vec::new();
        for tid in 0..8u64 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                let mut wins = 0u64;
                for i in 0..4_000u64 {
                    // Overlapping ranges: plenty of duplicate attempts.
                    let k = (tid * 1_000 + i) % 6_000 + 1;
                    if t.insert(k, k) {
                        wins += 1;
                    }
                }
                wins
            }));
        }
        let wins: u64 =
            reclaim::offline_while(|| handles.into_iter().map(|h| h.join().unwrap()).sum());
        assert_eq!(t.len() as u64, wins);
        // Every key that reports inserted must be found.
        let mut present = 0;
        for k in 1..=6_000u64 {
            if t.search(k).is_some() {
                present += 1;
            }
        }
        assert_eq!(present, t.len());
    }
}
