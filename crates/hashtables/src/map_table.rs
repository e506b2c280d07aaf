//! Hash table over per-bucket OPTIK array maps (*optik-map*, §5.2).
//!
//! Buckets are fixed-capacity array maps (§4.1) stored in consecutive
//! memory — the design whose contiguous layout triggered the hardware-
//! prefetching pathology on the paper's Xeon for small tables, and which
//! becomes "the fastest hash table on both platforms" once large enough.
//!
//! Because buckets are fixed arrays, an insert into a full bucket fails
//! (returns `false`), exactly like the paper's implementation ("we do not
//! employ array resizing for simplicity"). Size the bucket capacity for
//! the expected load factor.

use optik_maps::{ArrayMap, OptikArrayMap};

use crate::{bucket_of, ConcurrentSet, Key, Val};

/// Default slots per bucket.
pub const DEFAULT_BUCKET_CAPACITY: usize = 8;

/// Hash table with one OPTIK array map per bucket (*optik-map*).
pub struct OptikMapHashTable {
    buckets: Box<[OptikArrayMap]>,
    bucket_capacity: usize,
}

impl OptikMapHashTable {
    /// Creates a table with `buckets` buckets of the default capacity.
    pub fn new(buckets: usize) -> Self {
        Self::with_bucket_capacity(buckets, DEFAULT_BUCKET_CAPACITY)
    }

    /// Creates a table with `buckets` buckets of `capacity` slots each.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn with_bucket_capacity(buckets: usize, capacity: usize) -> Self {
        assert!(buckets > 0, "need at least one bucket");
        assert!(capacity > 0, "bucket capacity must be positive");
        Self {
            buckets: (0..buckets).map(|_| OptikArrayMap::new(capacity)).collect(),
            bucket_capacity: capacity,
        }
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Slots per bucket.
    pub fn bucket_capacity(&self) -> usize {
        self.bucket_capacity
    }

    #[inline]
    fn bucket(&self, key: Key) -> &OptikArrayMap {
        &self.buckets[bucket_of(key, self.buckets.len())]
    }
}

impl ConcurrentSet for OptikMapHashTable {
    // `ArrayMap::` disambiguates: the maps also implement `ConcurrentSet`
    // directly (for the scenario registry), so the bare method calls became
    // ambiguous.
    fn search(&self, key: Key) -> Option<Val> {
        ArrayMap::search(self.bucket(key), key)
    }

    /// Inserts `key`; returns `false` if the key is present **or the bucket
    /// is full** (fixed-capacity buckets, as in the paper).
    fn insert(&self, key: Key, val: Val) -> bool {
        ArrayMap::insert(self.bucket(key), key, val)
    }

    fn delete(&self, key: Key) -> Option<Val> {
        ArrayMap::delete(self.bucket(key), key)
    }

    fn len(&self) -> usize {
        self.buckets.iter().map(ArrayMap::len).sum()
    }
}

impl crate::ConcurrentMap for OptikMapHashTable {
    fn get(&self, key: Key) -> Option<Val> {
        ArrayMap::search(self.bucket(key), key)
    }

    /// Upsert, delegated to the bucket's OPTIK array-map `put`.
    ///
    /// # Panics
    ///
    /// Panics if the key is fresh and its bucket is full (fixed-capacity
    /// buckets, as in the paper) — size `bucket_capacity` for the workload.
    fn put(&self, key: Key, val: Val) -> Option<Val> {
        ArrayMap::put(self.bucket(key), key, val)
    }

    fn remove(&self, key: Key) -> Option<Val> {
        ArrayMap::delete(self.bucket(key), key)
    }

    fn len(&self) -> usize {
        ConcurrentSet::len(self)
    }

    fn for_each(&self, f: &mut dyn FnMut(Key, Val)) {
        for b in self.buckets.iter() {
            ArrayMap::for_each(b, f);
        }
    }

    #[inline]
    fn prefetch(&self, key: Key) {
        if synchro::prefetch::ACTIVE {
            self.bucket(key).prefetch_slots();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn basic_roundtrip() {
        let t = OptikMapHashTable::new(8);
        assert!(t.insert(5, 50));
        assert!(!t.insert(5, 51));
        assert_eq!(t.search(5), Some(50));
        assert_eq!(t.delete(5), Some(50));
        assert!(t.is_empty());
    }

    #[test]
    fn full_bucket_rejects_insert() {
        let t = OptikMapHashTable::with_bucket_capacity(2, 2);
        // Bucket 0 gets keys 2, 4, 6 (mod 2 == 0).
        assert!(t.insert(2, 2));
        assert!(t.insert(4, 4));
        assert!(!t.insert(6, 6), "bucket full");
        // Other bucket unaffected.
        assert!(t.insert(3, 3));
        // Freeing a slot admits the key.
        assert_eq!(t.delete(2), Some(2));
        assert!(t.insert(6, 6));
    }

    #[test]
    fn concurrent_disjoint_keys() {
        let t = Arc::new(OptikMapHashTable::with_bucket_capacity(64, 16));
        let mut handles = Vec::new();
        for tid in 0..8u64 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                let lo = tid * 100 + 1;
                for k in lo..lo + 100 {
                    assert!(t.insert(k, k * 3));
                    assert_eq!(t.search(k), Some(k * 3));
                }
                for k in lo..lo + 100 {
                    assert_eq!(t.delete(k), Some(k * 3));
                }
            }));
        }
        reclaim::offline_while(|| {
            for h in handles {
                h.join().unwrap();
            }
        });
        assert!(t.is_empty());
    }
}
