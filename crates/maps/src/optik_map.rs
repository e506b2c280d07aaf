//! The OPTIK-based concurrent array map (Figure 6 of the paper).
//!
//! The pessimistic map's operations are split into the three OPTIK phases:
//! (i) optimistic read-only traversal, (ii) single-CAS lock-and-validate,
//! (iii) synchronized write. The payoffs (Figure 7):
//!
//! - searches never lock: they take a key–value snapshot and validate it
//!   against the version number;
//! - infeasible updates (insert of a present key, delete of an absent key)
//!   return without ever synchronizing;
//! - feasible updates that lose the validation race restart *without having
//!   waited behind the lock*.

use std::sync::atomic::{AtomicU64, Ordering};

use optik::{OptikLock, OptikVersioned};
use synchro::Backoff;

use crate::{ArrayMap, Key, Val, EMPTY_KEY};

struct Slot {
    key: AtomicU64,
    val: AtomicU64,
}

/// The OPTIK-based fixed-capacity array map, generic over the OPTIK lock
/// implementation (versioned by default, as in the paper's evaluation).
pub struct OptikArrayMap<L: OptikLock = OptikVersioned> {
    lock: L,
    slots: Box<[Slot]>,
}

impl<L: OptikLock> OptikArrayMap<L> {
    /// Creates a map with `capacity` slots.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            lock: L::default(),
            slots: (0..capacity)
                .map(|_| Slot {
                    key: AtomicU64::new(EMPTY_KEY),
                    val: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// Reads the current OPTIK version — exposed for ablation benches.
    pub fn version(&self) -> optik::Version {
        self.lock.get_version()
    }

    /// Software-prefetches the first line of the slot array (see
    /// `synchro::prefetch::read`): loading the array pointer pulls in the
    /// map header, so a table of maps can hint a lookup's two misses.
    #[inline]
    pub fn prefetch_slots(&self) {
        synchro::prefetch::read(self.slots.as_ptr());
    }
}

impl<L: OptikLock> ArrayMap for OptikArrayMap<L> {
    fn search(&self, key: Key) -> Option<Val> {
        debug_assert_ne!(key, EMPTY_KEY);
        'restart: loop {
            // An *unlocked* version baseline: guarantees the upcoming
            // key/value snapshot was not concurrent with any update that
            // completed mid-traversal (Fig. 6(c) line 3 discussion).
            let vn = self.lock.get_version_wait();
            for slot in self.slots.iter() {
                if slot.key.load(Ordering::Acquire) == key {
                    let val = slot.val.load(Ordering::Relaxed);
                    if self.lock.validate(vn) {
                        return Some(val);
                    }
                    continue 'restart;
                }
            }
            // Not found: linearizable without validation — either the key
            // was absent throughout, or we linearize before a concurrent
            // insert / after a concurrent delete (§4.1 correctness).
            return None;
        }
    }

    fn insert(&self, key: Key, val: Val) -> bool {
        debug_assert_ne!(key, EMPTY_KEY);
        let mut bo = Backoff::adaptive();
        loop {
            let vn = self.lock.get_version();
            if L::is_locked_version(vn) {
                // try_lock_version can never succeed on a locked baseline.
                synchro::relax();
                continue;
            }
            let mut free = None;
            let mut found = false;
            for (i, slot) in self.slots.iter().enumerate() {
                let k = slot.key.load(Ordering::Acquire);
                if k == key {
                    found = true;
                    break;
                }
                if k == EMPTY_KEY && free.is_none() {
                    free = Some(i);
                }
            }
            if found {
                // Infeasible: return false without ever locking. The key was
                // present at some instant during the operation.
                return false;
            }
            if !self.lock.try_lock_version(vn) {
                bo.backoff();
                continue;
            }
            // Critical section: the version validated, so the traversal's
            // conclusions (key absent, `free` still empty) still hold.
            let res = match free {
                Some(i) => {
                    let slot = &self.slots[i];
                    // Value first, then key: a concurrent search matches on
                    // the key, so the value must already be in place (its
                    // snapshot is additionally version-validated).
                    slot.val.store(val, Ordering::Relaxed);
                    slot.key.store(key, Ordering::Release);
                    true
                }
                None => false,
            };
            self.lock.unlock();
            return res;
        }
    }

    fn put(&self, key: Key, val: Val) -> Option<Val> {
        debug_assert_ne!(key, EMPTY_KEY);
        let mut bo = Backoff::adaptive();
        loop {
            let vn = self.lock.get_version();
            if L::is_locked_version(vn) {
                synchro::relax();
                continue;
            }
            // Optimistic traversal: find the key, or the first free slot.
            let mut free = None;
            let mut found = None;
            for (i, slot) in self.slots.iter().enumerate() {
                let k = slot.key.load(Ordering::Acquire);
                if k == key {
                    found = Some(i);
                    break;
                }
                if k == EMPTY_KEY && free.is_none() {
                    free = Some(i);
                }
            }
            // Both outcomes of an upsert are feasible writes, so (unlike
            // insert/delete) put always locks; the validation guarantees
            // the traversal's conclusion (slot index) still holds.
            if !self.lock.try_lock_version(vn) {
                bo.backoff();
                continue;
            }
            let prev = match found {
                Some(i) => {
                    // In-place value replacement: concurrent searches that
                    // overlapped this critical section fail validation and
                    // restart, so no torn (key, value) snapshot escapes.
                    let slot = &self.slots[i];
                    let old = slot.val.load(Ordering::Relaxed);
                    slot.val.store(val, Ordering::Relaxed);
                    Some(old)
                }
                None => {
                    let i = free
                        .expect("put on a full OptikArrayMap: size the capacity for the workload");
                    let slot = &self.slots[i];
                    // Value first, then key (see `insert`).
                    slot.val.store(val, Ordering::Relaxed);
                    slot.key.store(key, Ordering::Release);
                    None
                }
            };
            self.lock.unlock();
            return prev;
        }
    }

    fn delete(&self, key: Key) -> Option<Val> {
        debug_assert_ne!(key, EMPTY_KEY);
        let mut bo = Backoff::adaptive();
        'restart: loop {
            let vn = self.lock.get_version();
            if L::is_locked_version(vn) {
                synchro::relax();
                continue;
            }
            for slot in self.slots.iter() {
                if slot.key.load(Ordering::Acquire) == key {
                    if !self.lock.try_lock_version(vn) {
                        bo.backoff();
                        continue 'restart;
                    }
                    // Validated: the slot still holds `key`.
                    slot.key.store(EMPTY_KEY, Ordering::Relaxed);
                    let val = slot.val.load(Ordering::Relaxed);
                    self.lock.unlock();
                    return Some(val);
                }
            }
            // Not found: no synchronization needed (Fig. 6(a) line 20).
            return None;
        }
    }

    fn len(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.key.load(Ordering::Relaxed) != EMPTY_KEY)
            .count()
    }

    fn capacity(&self) -> usize {
        self.slots.len()
    }

    fn for_each(&self, f: &mut dyn FnMut(Key, Val)) {
        // Raw slot sweep with no version validation — per the trait
        // contract, entry-level consistency is the caller's problem (the kv
        // store scans under its shard lock or validates afterwards).
        for slot in self.slots.iter() {
            let k = slot.key.load(Ordering::Acquire);
            if k != EMPTY_KEY {
                f(k, slot.val.load(Ordering::Relaxed));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optik::OptikTicket;
    use std::sync::Arc;

    #[test]
    fn single_threaded_semantics() {
        let m: OptikArrayMap = OptikArrayMap::new(4);
        assert!(m.insert(9, 90));
        assert!(!m.insert(9, 91));
        assert_eq!(m.search(9), Some(90));
        assert_eq!(m.delete(9), Some(90));
        assert_eq!(m.delete(9), None);
        assert!(m.is_empty());
    }

    #[test]
    fn works_with_ticket_locks_too() {
        let m: OptikArrayMap<OptikTicket> = OptikArrayMap::new(4);
        assert!(m.insert(1, 10));
        assert_eq!(m.search(1), Some(10));
        assert_eq!(m.delete(1), Some(10));
    }

    #[test]
    fn infeasible_updates_do_not_bump_version() {
        let m: OptikArrayMap = OptikArrayMap::new(4);
        assert!(m.insert(1, 10));
        let v = m.version();
        assert!(!m.insert(1, 11), "present key");
        assert_eq!(m.delete(2), None, "absent key");
        assert_eq!(m.search(1), Some(10));
        assert_eq!(m.version(), v, "read-only paths must not synchronize");
    }

    #[test]
    fn full_map_insert_bumps_version_but_fails() {
        // The paper notes this case: a full map forces insert to lock before
        // discovering there is no free slot.
        let m: OptikArrayMap = OptikArrayMap::new(1);
        assert!(m.insert(1, 10));
        let v = m.version();
        assert!(!m.insert(2, 20));
        assert_ne!(m.version(), v, "locked, found no slot, unlocked");
    }

    #[test]
    fn put_upserts_in_place() {
        let m: OptikArrayMap = OptikArrayMap::new(2);
        assert_eq!(m.put(1, 10), None);
        assert_eq!(m.put(1, 11), Some(10));
        assert_eq!(m.search(1), Some(11));
        assert_eq!(m.put(2, 20), None);
        assert_eq!(m.len(), 2);
        // An in-place update must not consume a slot.
        assert_eq!(m.put(2, 21), Some(20));
        assert_eq!(m.delete(1), Some(11));
        assert_eq!(m.put(3, 30), None);
        assert_eq!(m.search(3), Some(30));
    }

    #[test]
    fn concurrent_puts_never_leak_torn_values() {
        // One writer upserts key 1 with even-step values; readers must only
        // ever observe values the writer actually bound.
        let m: Arc<OptikArrayMap> = Arc::new(OptikArrayMap::new(2));
        assert_eq!(m.put(1, 0), None);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = Vec::new();
        {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                for i in 1..=synchro::stress::ops(50_000) {
                    assert_eq!(m.put(1, i * 2), Some((i - 1) * 2), "lost update");
                }
            }));
        }
        for _ in 0..3 {
            let m = Arc::clone(&m);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let v = m.search(1).expect("key 1 is never removed");
                    assert_eq!(v % 2, 0, "torn value {v}");
                }
            }));
        }
        handles.remove(0).join().unwrap();
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn concurrent_disjoint_keys_all_operations_exact() {
        const THREADS: u64 = 8;
        const OPS: u64 = 10_000;
        let m: Arc<OptikArrayMap> = Arc::new(OptikArrayMap::new(THREADS as usize));
        let mut handles = Vec::new();
        for t in 1..=THREADS {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                for i in 0..OPS {
                    assert!(m.insert(t, t * 1000 + i), "thread {t} owns key {t}");
                    assert_eq!(m.search(t), Some(t * 1000 + i));
                    assert_eq!(m.delete(t), Some(t * 1000 + i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(m.is_empty());
    }

    #[test]
    fn searches_never_observe_foreign_values() {
        // Writers cycle key k with values that are multiples of k; readers
        // must never snapshot a (key, value) pair from two different writes.
        const WRITERS: u64 = 4;
        const READERS: usize = 4;
        const OPS: u64 = 20_000;
        let m: Arc<OptikArrayMap> = Arc::new(OptikArrayMap::new(WRITERS as usize));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

        let mut handles = Vec::new();
        for t in 1..=WRITERS {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                for i in 1..=OPS {
                    assert!(m.insert(t, t * i));
                    assert_eq!(m.delete(t), Some(t * i));
                }
            }));
        }
        for _ in 0..READERS {
            let m = Arc::clone(&m);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut hits = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for t in 1..=WRITERS {
                        if let Some(v) = m.search(t) {
                            assert_eq!(v % t, 0, "validated snapshot mixed key {t} with value {v}");
                            hits += 1;
                        }
                    }
                }
                std::hint::black_box(hits);
            }));
        }
        // Join writers (first WRITERS handles), then stop readers.
        for h in handles.drain(..WRITERS as usize) {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn concurrent_contended_slots_maintain_net_count() {
        use std::sync::atomic::AtomicI64;
        let m: Arc<OptikArrayMap> = Arc::new(OptikArrayMap::new(16));
        let net = Arc::new(AtomicI64::new(0));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let m = Arc::clone(&m);
            let net = Arc::clone(&net);
            handles.push(std::thread::spawn(move || {
                for i in 0..synchro::stress::ops(10_000) {
                    let k = (t * 31 + i * 7) % 24 + 1;
                    if (t + i) % 2 == 0 {
                        if m.insert(k, k) {
                            net.fetch_add(1, Ordering::Relaxed);
                        }
                    } else if m.delete(k).is_some() {
                        net.fetch_sub(1, Ordering::Relaxed);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.len() as i64, net.load(Ordering::Relaxed));
    }
}
