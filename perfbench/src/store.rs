//! The three store mounts behind one trait, so the client
//! loop is written once and monomorphised per workload.

use std::sync::Arc;

use optik_hashtables::{ResizableStripedHashTable, StripedOptikHashTable};
use optik_kv::{ConcurrentMap, Key, KvStore, OrderedMap, SystemClock, Val};
use optik_skiplists::OptikSkipList2;

use crate::gen::{value_for, Spec, SHARDS};

/// Everything the benchmark calls on a store: the public `KvStore` API,
/// plus the routing and backend entry points the traced run times on
/// their own.
pub trait Target: Sync {
    fn get(&self, k: Key) -> Option<Val>;
    fn put(&self, k: Key, v: Val) -> Option<Val>;
    fn remove(&self, k: Key) -> Option<Val>;
    fn put_with_ttl(&self, k: Key, v: Val, ttl: u64) -> Option<Val>;
    fn multi_get(&self, keys: &[Key]) -> Vec<Option<Val>>;
    fn range_scan(&self, lo: Key, hi: Key) -> Vec<(Key, Val)>;
    fn sweep_expired(&self, budget: usize) -> u64;
    fn shard_of(&self, k: Key) -> usize;
    fn backend_get(&self, shard: usize, k: Key) -> Option<Val>;
    fn backend_range(&self, shard: usize, lo: Key, hi: Key, out: &mut Vec<(Key, Val)>);
    fn snapshot(&self) -> Vec<(Key, Val)>;
    fn len(&self) -> usize;
    fn shard_loads(&self) -> Vec<u64>;
}

macro_rules! common {
    () => {
        fn get(&self, k: Key) -> Option<Val> {
            KvStore::get(self, k)
        }
        fn put(&self, k: Key, v: Val) -> Option<Val> {
            KvStore::put(self, k, v)
        }
        fn remove(&self, k: Key) -> Option<Val> {
            KvStore::remove(self, k)
        }
        fn put_with_ttl(&self, k: Key, v: Val, ttl: u64) -> Option<Val> {
            KvStore::put_with_ttl(self, k, v, ttl)
        }
        fn multi_get(&self, keys: &[Key]) -> Vec<Option<Val>> {
            KvStore::multi_get(self, keys)
        }
        fn sweep_expired(&self, budget: usize) -> u64 {
            KvStore::sweep_expired(self, budget)
        }
        fn shard_of(&self, k: Key) -> usize {
            KvStore::shard_of(self, k)
        }
        fn backend_get(&self, shard: usize, k: Key) -> Option<Val> {
            self.backend(shard).get(k)
        }
        fn snapshot(&self) -> Vec<(Key, Val)> {
            KvStore::snapshot(self)
        }
        fn len(&self) -> usize {
            KvStore::len(self)
        }
        fn shard_loads(&self) -> Vec<u64> {
            KvStore::shard_loads(self)
        }
    };
}

macro_rules! unordered {
    ($($b:ty),*) => {$(
        impl Target for KvStore<$b> {
            common!();
            fn range_scan(&self, _: Key, _: Key) -> Vec<(Key, Val)> {
                unreachable!("no workload range-scans a hash-table store")
            }
            fn backend_range(&self, _: usize, _: Key, _: Key, _: &mut Vec<(Key, Val)>) {
                unreachable!("no workload range-scans a hash-table store")
            }
        }
    )*};
}

unordered!(StripedOptikHashTable, ResizableStripedHashTable);

impl Target for KvStore<OptikSkipList2> {
    common!();
    fn range_scan(&self, lo: Key, hi: Key) -> Vec<(Key, Val)> {
        KvStore::range_scan(self, lo, hi)
    }
    fn backend_range(&self, shard: usize, lo: Key, hi: Key, out: &mut Vec<(Key, Val)>) {
        self.backend(shard)
            .range(lo, hi, &mut |k, v| out.push((k, v)));
    }
}

/// The `examples/sharded_kv` mount, one bucket per filled key.
pub fn build_striped(spec: &Spec) -> KvStore<StripedOptikHashTable> {
    KvStore::with_shards(SHARDS, |_| {
        StripedOptikHashTable::new(spec.fill / SHARDS, 16)
    })
}

/// The `examples/session_store` mount.
pub fn build_ttl() -> KvStore<ResizableStripedHashTable> {
    KvStore::with_shards_ttl(SHARDS, Arc::new(SystemClock::new()), |_| {
        ResizableStripedHashTable::new(8, 2)
    })
}

pub fn build_skiplist(spec: &Spec) -> KvStore<OptikSkipList2> {
    KvStore::with_ordered_shards(SHARDS, spec.range, |_| OptikSkipList2::new())
}

/// Inserts the fill keys, announcing quiescence as the clients do so the
/// filling thread never holds back a grace period (resizes retire).
pub fn fill(store: &impl Target, keys: &[u32]) {
    for (i, &k) in keys.iter().enumerate() {
        let k = u64::from(k);
        store.put(k, value_for(k, 0));
        if i % 1024 == 1023 {
            reclaim::quiescent();
        }
    }
    reclaim::quiescent();
}
