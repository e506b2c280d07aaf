//! The TTL layer: per-entry expiry deadlines over a pluggable [`Clock`].
//!
//! A TTL-enabled store ([`KvStore::with_shards_ttl`],
//! [`KvStore::with_ordered_shards_ttl`]) pairs every shard's backend map
//! with a **companion deadline table of the same backend type**: deadlines
//! are `key → absolute expiry tick` entries, written under the shard lock
//! exactly like data writes, and read lock-free exactly like data reads.
//! Reusing the backend for the side table means deadline reads inherit the
//! backend's lock-free lookup and QSBR-safe traversal for free, and the
//! shard's OPTIK version covers the *(value, deadline)* pair — a TTL read
//! validates the shard version around both lookups, so it can never pair a
//! fresh value with a stale deadline (or vice versa).
//!
//! Expiry is **lazy**: a read that finds `deadline <= now` reports a miss
//! (the entry is logically gone the instant the clock passes its
//! deadline), and write paths physically drop an expired entry before
//! acting (so a `put` over an expired key reports `prev = None`). The
//! physical reclaim happens through [`KvStore::sweep_expired`], an
//! incremental sweeper that collects expired candidates per shard and
//! removes them under the shard lock — the backend `remove` retires nodes
//! through the workspace QSBR domain, so sweeping composes with
//! concurrent optimistic readers like any other removal.
//!
//! Clock ticks are opaque `u64`s: [`SystemClock`] counts milliseconds,
//! [`FakeClock`] is a hand-advanced counter for deterministic tests and
//! the linearizability tier (whose TTL spec replays `Advance` operations
//! against recorded histories).

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

// The fake clock's tick counter and the sweeper's cursor participate in
// the TTL validation points (expiry-vs-put races pivot on when `now`
// advances relative to a shard's lock window), so both use the
// schedulable shim atomics — raw in normal builds, yield points under
// `--cfg optik_explore`.
use synchro::shim::{AtomicU64, AtomicUsize};

use optik::OptikLock;
use optik_harness::api::{ConcurrentMap, Key, Val};

use crate::store::KvStore;

/// A monotonic tick source for TTL deadlines. Ticks are opaque; the only
/// contract is monotonicity (`now` never decreases) and that deadlines
/// stay below `u64::MAX` (the store clamps, so backends that reserve
/// `u64::MAX` — fraser's `FROZEN` tombstone — can hold deadline tables).
pub trait Clock: Send + Sync {
    /// The current tick.
    fn now(&self) -> u64;
}

/// Wall-clock ticks: milliseconds since the clock was created.
#[derive(Debug)]
pub struct SystemClock {
    start: Instant,
}

impl SystemClock {
    /// A clock starting at tick 0.
    pub fn new() -> Self {
        Self {
            start: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn now(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }
}

/// A hand-advanced clock for deterministic TTL tests: time moves only
/// when a test calls [`FakeClock::advance`] (or [`FakeClock::set`]).
#[derive(Debug, Default)]
pub struct FakeClock {
    now: AtomicU64,
}

impl FakeClock {
    /// A fake clock at tick 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `ticks`, returning the new now.
    pub fn advance(&self, ticks: u64) -> u64 {
        self.now.fetch_add(ticks, Ordering::SeqCst) + ticks
    }

    /// Jumps the clock to `now` (must not move backwards).
    pub fn set(&self, now: u64) {
        self.now.fetch_max(now, Ordering::SeqCst);
    }
}

impl Clock for FakeClock {
    fn now(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }
}

/// Per-store TTL state: the clock and the sweeper's shard cursor.
pub(crate) struct TtlState {
    pub(crate) clock: Arc<dyn Clock>,
    /// Round-robin shard cursor so consecutive [`KvStore::sweep_expired`]
    /// calls resume where the previous budget ran out.
    pub(crate) cursor: AtomicUsize,
}

impl<B: ConcurrentMap> KvStore<B> {
    fn ttl_state(&self) -> &TtlState {
        self.ttl.as_ref().expect(
            "TTL operation on a store built without a clock \
             (use with_shards_ttl / with_ordered_shards_ttl)",
        )
    }

    /// The store's clock, when TTL-enabled.
    pub fn ttl_clock(&self) -> Option<&Arc<dyn Clock>> {
        self.ttl.as_ref().map(|t| &t.clock)
    }

    /// Inserts or atomically updates `key → val` with an expiry deadline
    /// of `now + ttl` ticks, returning the previous **live** value (an
    /// expired prior binding reports `None` and is physically dropped).
    ///
    /// # Panics
    ///
    /// Panics if the store was built without a clock, or if `ttl` is zero
    /// (the entry would be born expired).
    pub fn put_with_ttl(&self, key: Key, val: Val, ttl: u64) -> Option<Val> {
        assert!(ttl > 0, "a zero TTL would expire the entry at birth");
        self.ttl_state(); // fail fast before taking the lock
        reclaim::op_scope(|| {
            self.write_shard(key, |shard, now| {
                // `now` is sampled under the shard lock (see `write_shard`),
                // so the deadline and the expiry decision share the write's
                // linearization point. Clamp below MAX so the deadline is
                // storable in any backend (fraser reserves u64::MAX) —
                // saturation means "practically never".
                let now = now.expect("ttl store always passes now");
                let deadline = now.saturating_add(ttl).min(u64::MAX - 1);
                shard.drop_expired(key, now);
                let prev = shard.map.put(key, val);
                shard
                    .deadlines
                    .as_ref()
                    .expect("ttl state implies deadline tables")
                    .put(key, deadline);
                (prev, true)
            })
        })
    }

    /// Re-arms (or arms) the expiry of an existing live entry to `now +
    /// ttl` ticks. Returns whether a live entry was found; an expired or
    /// absent key reports `false` (the expired entry is dropped).
    ///
    /// # Panics
    ///
    /// Panics if the store was built without a clock, or if `ttl` is zero.
    pub fn expire_after(&self, key: Key, ttl: u64) -> bool {
        assert!(ttl > 0, "a zero TTL would expire the entry at birth");
        self.ttl_state(); // fail fast before taking the lock
        reclaim::op_scope(|| {
            self.write_shard(key, |shard, now| {
                let now = now.expect("ttl store always passes now");
                let deadline = now.saturating_add(ttl).min(u64::MAX - 1);
                let dropped = shard.drop_expired(key, now);
                if shard.map.get(key).is_some() {
                    shard
                        .deadlines
                        .as_ref()
                        .expect("ttl state implies deadline tables")
                        .put(key, deadline);
                    (true, true)
                } else {
                    (false, dropped)
                }
            })
        })
    }

    /// Incremental expiry sweep: visits shards round-robin (resuming at
    /// the cursor the previous call left), collects candidates whose
    /// deadline has passed, re-checks each under the shard lock, and
    /// physically removes the expired ones — the backend `remove` retires
    /// through QSBR, so the reclaimed nodes stay readable to in-flight
    /// optimistic scans. Examines at most `budget` candidates; returns
    /// how many entries were reclaimed.
    ///
    /// # Panics
    ///
    /// Panics if the store was built without a clock, or if `budget` is
    /// zero.
    pub fn sweep_expired(&self, budget: usize) -> u64 {
        assert!(budget > 0, "a zero budget sweeps nothing");
        // One QSBR operation for the whole sweep.
        reclaim::op_scope(|| {
            optik_probe::count(optik_probe::Event::TtlSweep);
            let _span = optik_probe::trace::span(optik_probe::trace::SpanKind::TtlSweep);
            let ttl = self.ttl_state();
            // Unlike the read/write paths, sampling the clock once up front
            // is sound here: the sweep only *removes*, and the under-lock
            // re-check `d <= now` with a stale (smaller) `now` can only keep
            // an entry the current clock would also call expired — it can
            // never reclaim a live one. Physical reclaim of an expired entry
            // is logically invisible at any instant.
            let now = ttl.clock.now();
            let shards = self.shards.len();
            let mut removed = 0u64;
            let mut examined = 0usize;
            let mut candidates: Vec<Key> = Vec::new();
            for _ in 0..shards {
                // Relaxed is sound: the cursor is pure work-distribution
                // state. Its only invariant is that the RMW itself is atomic
                // (two racing sweepers still claim distinct values); no other
                // memory is published through it, and a stale start shard
                // merely re-scans — every expired entry is still re-verified
                // under the shard lock below.
                let i = ttl.cursor.fetch_add(1, Ordering::Relaxed) % shards;
                let shard = &self.shards[i];
                let dl = shard
                    .deadlines
                    .as_ref()
                    .expect("ttl state implies deadline tables");
                // Candidate collection is a raw (quiescence-consistent)
                // sweep; each candidate is re-decided under the lock.
                candidates.clear();
                dl.for_each(&mut |k, d| {
                    if d <= now {
                        candidates.push(k);
                    }
                });
                if !candidates.is_empty() {
                    shard.lock.lock();
                    let mut modified = false;
                    for &k in &candidates {
                        if examined >= budget {
                            break;
                        }
                        examined += 1;
                        // A candidate may have been re-armed, re-put, swept
                        // by a racing sweeper, or migrated away since the
                        // collection pass.
                        if dl.get(k).is_some_and(|d| d <= now) {
                            shard.map.remove(k);
                            dl.remove(k);
                            modified = true;
                            removed += 1;
                        }
                    }
                    if modified {
                        shard.lock.unlock();
                    } else {
                        shard.lock.revert();
                    }
                }
                if examined >= budget {
                    break;
                }
            }
            optik_probe::count_n(optik_probe::Event::TtlExpired, removed);
            removed
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optik_hashtables::StripedOptikHashTable;

    fn ttl_store(clock: Arc<FakeClock>) -> KvStore<StripedOptikHashTable> {
        KvStore::with_shards_ttl(4, clock, |_| StripedOptikHashTable::new(64, 8))
    }

    #[test]
    fn entries_expire_lazily_on_read() {
        let clock = Arc::new(FakeClock::new());
        let s = ttl_store(Arc::clone(&clock));
        assert_eq!(s.put_with_ttl(1, 10, 5), None);
        s.put(2, 20); // no TTL: lives forever
        assert_eq!(s.get(1), Some(10));
        clock.advance(4);
        assert_eq!(s.get(1), Some(10), "deadline not yet reached");
        clock.advance(1);
        assert_eq!(s.get(1), None, "deadline tick itself is expired");
        assert_eq!(s.get(2), Some(20), "plain puts never expire");
    }

    #[test]
    fn writes_normalize_expired_entries() {
        let clock = Arc::new(FakeClock::new());
        let s = ttl_store(Arc::clone(&clock));
        s.put_with_ttl(1, 10, 5);
        clock.advance(5);
        // A put over an expired key is a fresh insert…
        assert_eq!(s.put(1, 11), None, "expired previous binding is invisible");
        assert_eq!(s.get(1), Some(11));
        clock.advance(100);
        assert_eq!(s.get(1), Some(11), "plain put cleared the deadline");
        // …and a remove of an expired key is a miss.
        s.put_with_ttl(2, 20, 3);
        clock.advance(3);
        assert_eq!(s.remove(2), None);
        // put_with_ttl over an expired key likewise reports fresh.
        s.put_with_ttl(3, 30, 2);
        clock.advance(2);
        assert_eq!(s.put_with_ttl(3, 31, 2), None);
        assert_eq!(s.get(3), Some(31));
    }

    #[test]
    fn expire_after_arms_and_rearms() {
        let clock = Arc::new(FakeClock::new());
        let s = ttl_store(Arc::clone(&clock));
        s.put(1, 10);
        assert!(s.expire_after(1, 5), "live entry found");
        clock.advance(4);
        assert!(s.expire_after(1, 10), "re-arm before expiry");
        clock.advance(9);
        assert_eq!(s.get(1), Some(10), "re-armed deadline holds");
        clock.advance(1);
        assert_eq!(s.get(1), None);
        assert!(!s.expire_after(1, 5), "expired entry is not re-armable");
        assert!(!s.expire_after(999, 5), "absent key");
    }

    #[test]
    fn sweeper_reclaims_expired_entries_within_budget() {
        let clock = Arc::new(FakeClock::new());
        let s = ttl_store(Arc::clone(&clock));
        for k in 1..=32u64 {
            s.put_with_ttl(k, k, 4);
        }
        for k in 33..=40u64 {
            s.put(k, k);
        }
        assert_eq!(s.sweep_expired(1024), 0, "nothing expired yet");
        clock.advance(4);
        assert_eq!(s.len(), 40, "expiry is lazy: physical entries remain");
        let mut swept = 0;
        // Budgeted sweeps make incremental progress until drained.
        loop {
            let n = s.sweep_expired(8);
            if n == 0 {
                break;
            }
            assert!(n <= 8, "budget bounds each sweep");
            swept += n;
        }
        assert_eq!(swept, 32);
        assert_eq!(s.len(), 8, "unexpired entries survive");
        for k in 33..=40u64 {
            assert_eq!(s.get(k), Some(k));
        }
    }

    #[test]
    fn multi_ops_and_scans_see_only_live_entries() {
        let clock = Arc::new(FakeClock::new());
        let s = ttl_store(Arc::clone(&clock));
        s.put_with_ttl(1, 10, 5);
        s.put_with_ttl(2, 20, 50);
        s.put(3, 30);
        clock.advance(10);
        assert_eq!(
            s.multi_get(&[1, 2, 3]),
            vec![None, Some(20), Some(30)],
            "multi_get filters expired entries"
        );
        assert_eq!(s.snapshot(), vec![(2, 20), (3, 30)], "scan filters too");
        // multi_put resurrects expired keys as fresh inserts.
        assert_eq!(s.multi_put(&[(1, 11), (2, 21)]), vec![None, Some(20)]);
        // multi_remove of an expired key is a miss.
        s.put_with_ttl(4, 40, 1);
        clock.advance(1);
        assert_eq!(s.multi_remove(&[4, 3]), vec![None, Some(30)]);
    }

    #[test]
    #[should_panic(expected = "built without a clock")]
    fn ttl_ops_need_a_clock() {
        let s: KvStore<StripedOptikHashTable> =
            KvStore::with_shards(2, |_| StripedOptikHashTable::new(16, 4));
        s.put_with_ttl(1, 1, 10);
    }

    #[test]
    fn fake_clock_is_monotonic() {
        let c = FakeClock::new();
        assert_eq!(c.now(), 0);
        assert_eq!(c.advance(5), 5);
        c.set(3); // backwards jumps are ignored
        assert_eq!(c.now(), 5);
        c.set(9);
        assert_eq!(c.now(), 9);
    }
}
