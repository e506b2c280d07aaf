//! Shared interfaces the benchmarked data structures implement.

/// Key type used across all search data structures.
///
/// The value `0` and `u64::MAX` are reserved for head/tail sentinels and
/// empty-slot markers; user keys must lie strictly between them.
pub type Key = u64;

/// Value type used across all data structures.
pub type Val = u64;

/// Smallest user key.
pub const MIN_USER_KEY: Key = 1;
/// Largest user key.
pub const MAX_USER_KEY: Key = u64::MAX - 1;

/// A concurrent search data structure (list, hash table, skip list): the
/// three-operation interface from §2 of the paper.
pub trait ConcurrentSet: Send + Sync {
    /// Searches for `key`, returning its value if present.
    fn search(&self, key: Key) -> Option<Val>;
    /// Inserts `key → val` if absent; returns whether it was inserted.
    fn insert(&self, key: Key, val: Val) -> bool;
    /// Deletes `key`, returning its value if it was present.
    fn delete(&self, key: Key) -> Option<Val>;
    /// Number of elements (O(n); exact only in quiescence).
    fn len(&self) -> usize;
    /// Whether the structure is empty (see [`ConcurrentSet::len`]).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Per-thread session on a [`ConcurrentSet`].
///
/// Structures with thread-local state (e.g. the node-caching lists of §5.1)
/// implement their operations on a handle; stateless structures get a
/// blanket handle that simply forwards. The benchmark runner always goes
/// through handles.
pub trait SetHandle {
    /// See [`ConcurrentSet::search`].
    fn search(&mut self, key: Key) -> Option<Val>;
    /// See [`ConcurrentSet::insert`].
    fn insert(&mut self, key: Key, val: Val) -> bool;
    /// See [`ConcurrentSet::delete`].
    fn delete(&mut self, key: Key) -> Option<Val>;
}

/// Blanket forwarding handle for stateless structures.
impl<S: ConcurrentSet + ?Sized> SetHandle for &S {
    fn search(&mut self, key: Key) -> Option<Val> {
        ConcurrentSet::search(*self, key)
    }
    fn insert(&mut self, key: Key, val: Val) -> bool {
        ConcurrentSet::insert(*self, key, val)
    }
    fn delete(&mut self, key: Key) -> Option<Val> {
        ConcurrentSet::delete(*self, key)
    }
}

/// A concurrent key–value map: the interface the `optik-kv` store layer
/// builds on.
///
/// Where [`ConcurrentSet`] exposes the paper's three-operation *set*
/// semantics (`insert` fails on a present key), a map's `put` is an atomic
/// **upsert**: it replaces the value of a present key and returns the
/// previous binding. The distinction matters for linearizability: a put
/// implemented as `delete` + `insert` would expose a window in which the
/// key is absent, which the map specification
/// ([`crate::linearize::MapSpec`]) rejects — implementors must update
/// values in place under their own synchronization.
///
/// `for_each` exists for snapshot scans: callers must either hold whatever
/// lock excludes writers (the kv store's per-shard OPTIK lock) or tolerate
/// a momentarily inconsistent view and validate afterwards. Traversal
/// safety under concurrent deletion is the implementor's responsibility
/// (the workspace backends retire nodes through QSBR, so a traversal by a
/// registered, non-quiescing thread never touches freed memory).
pub trait ConcurrentMap: Send + Sync {
    /// Looks up `key`, returning its current value if present.
    fn get(&self, key: Key) -> Option<Val>;
    /// Inserts or atomically updates `key → val`, returning the previous
    /// value (`None` if the key was newly inserted).
    ///
    /// # Panics
    ///
    /// Fixed-capacity backends panic when asked to insert a fresh key into
    /// a full structure — capacity is a sizing decision made at
    /// construction, not an outcome callers are expected to handle.
    fn put(&self, key: Key, val: Val) -> Option<Val>;
    /// Removes `key`, returning its value if it was present.
    fn remove(&self, key: Key) -> Option<Val>;
    /// Number of entries (O(n); exact only in quiescence).
    fn len(&self) -> usize;
    /// Whether the map is empty (see [`ConcurrentMap::len`]).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Visits every entry once (see the trait docs for the concurrency
    /// contract).
    fn for_each(&self, f: &mut dyn FnMut(Key, Val));
    /// Hints that [`ConcurrentMap::get`] of `key` follows soon: hash
    /// backends load the key's bucket head and software-prefetch it, so
    /// a batch that hints every key before reading any overlaps its
    /// cache misses. The hint never faults and changes no state; the
    /// default does nothing.
    #[inline]
    fn prefetch(&self, key: Key) {
        let _ = key;
    }
}

/// A [`ConcurrentMap`] over a *key-ordered* structure (skip list, BST):
/// the backend contract for the kv store's range scans.
///
/// `range` visits every live entry with `lo <= key <= hi`, in ascending
/// key order, each key at most once. The concurrency contract mirrors
/// [`ConcurrentMap::for_each`]: exact under whatever lock excludes writers
/// (the kv store's per-shard OPTIK lock during its range fallback),
/// quiescence-consistent otherwise — implementations traverse
/// optimistically with per-step validation (version checks where the
/// structure has OPTIK locks, link re-checks elsewhere) and re-position
/// after the last emitted key on interference, so concurrent updates can
/// be missed or included but never tear the order or duplicate a key.
/// Traversal safety under concurrent deletion is QSBR, as for `for_each`.
pub trait OrderedMap: ConcurrentMap {
    /// Visits every entry with key in `[lo, hi]`, ascending (see the trait
    /// docs for the concurrency contract).
    fn range(&self, lo: Key, hi: Key, f: &mut dyn FnMut(Key, Val));

    /// Collects [`OrderedMap::range`] into a vector (sorted by key).
    fn range_collect(&self, lo: Key, hi: Key) -> Vec<(Key, Val)> {
        let mut out = Vec::new();
        self.range(lo, hi, &mut |k, v| out.push((k, v)));
        out
    }
}

/// A concurrent FIFO queue (§5.4).
pub trait ConcurrentQueue: Send + Sync {
    /// Enqueues `val` at the head of the queue.
    fn enqueue(&self, val: Val);
    /// Dequeues the tail element, if any.
    fn dequeue(&self) -> Option<Val>;
    /// Number of elements (O(n); exact only in quiescence).
    fn len(&self) -> usize;
    /// Whether the queue is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A concurrent LIFO stack (§5.5 — the paper's honest negative result).
///
/// Defined here (rather than in the stacks crate) so the benchmark driver
/// and the correctness tiers can treat stacks like every other structure.
pub trait ConcurrentStack: Send + Sync {
    /// Pushes a value.
    fn push(&self, val: Val);
    /// Pops the most recently pushed value, if any.
    fn pop(&self) -> Option<Val>;
    /// Number of elements (O(n); exact only in quiescence).
    fn len(&self) -> usize;
    /// Whether the stack is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::Mutex;

    struct MutexSet(Mutex<BTreeMap<Key, Val>>);
    impl ConcurrentSet for MutexSet {
        fn search(&self, key: Key) -> Option<Val> {
            self.0.lock().unwrap().get(&key).copied()
        }
        fn insert(&self, key: Key, val: Val) -> bool {
            let mut m = self.0.lock().unwrap();
            if let std::collections::btree_map::Entry::Vacant(e) = m.entry(key) {
                e.insert(val);
                true
            } else {
                false
            }
        }
        fn delete(&self, key: Key) -> Option<Val> {
            self.0.lock().unwrap().remove(&key)
        }
        fn len(&self) -> usize {
            self.0.lock().unwrap().len()
        }
    }

    #[test]
    fn blanket_handle_forwards() {
        let set = MutexSet(Mutex::new(BTreeMap::new()));
        let mut h: &MutexSet = &set;
        assert!(SetHandle::insert(&mut h, 3, 30));
        assert_eq!(SetHandle::search(&mut h, 3), Some(30));
        assert_eq!(SetHandle::delete(&mut h, 3), Some(30));
        assert!(set.is_empty());
    }
}
