//! One QSBR announcement per kv operation, pinned with the probe counters.
//!
//! Every workspace backend announces quiescence at the start of each of
//! its operations; a `KvStore` operation that calls its backends more than
//! once runs them inside one `reclaim::op_scope`, so the whole operation
//! counts exactly one `EpochAdvance`. Build and run with:
//!
//! ```text
//! cargo test -p optik-kv --features probe --test announcements
//! ```

#![cfg(feature = "probe")]

use std::sync::{Arc, Mutex, MutexGuard};

use optik_hashtables::{
    OptikMapHashTable, ResizableStripedHashTable, StripedHashTable, StripedOptikHashTable,
};
use optik_kv::{ConcurrentMap, FakeClock, KvStore};
use optik_probe::{Event, Snapshot};

/// The probe counters are process-wide, so a `Snapshot` delta taken by one
/// test also sees every event a concurrently running test counts. Each
/// test holds this lock for its whole run so its deltas are its own.
fn exclusive() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Probe delta of `f`.
fn delta(f: impl FnOnce()) -> Snapshot {
    let before = Snapshot::take();
    f();
    Snapshot::take().delta_since(&before)
}

const BATCH: u64 = 16;

#[test]
fn op_scope_counts_one_epoch_advance() {
    let _serial = exclusive();
    reclaim::quiescent(); // register this thread outside the window
    let d = delta(|| {
        reclaim::op_scope(|| {
            for _ in 0..100 {
                reclaim::quiescent();
            }
            reclaim::op_scope(reclaim::quiescent);
        })
    });
    assert_eq!(d.get(Event::EpochAdvance), 1, "entry announces once");
    let d = delta(reclaim::quiescent);
    assert_eq!(d.get(Event::EpochAdvance), 1, "announcing resumes after it");
}

/// Fills `store` with the batch's keys, then checks that one 16-key
/// `multi_get` counts one announcement and one prefetch per probe.
fn multi_get_announces_once<B: ConcurrentMap>(name: &str, store: KvStore<B>) {
    let keys: Vec<u64> = (1..=BATCH).map(|i| i * 7919).collect();
    for &k in &keys {
        store.put(k, k + 1);
    }
    let mut got = Vec::new();
    let d = delta(|| got = store.multi_get(&keys));
    let want: Vec<Option<u64>> = keys.iter().map(|&k| Some(k + 1)).collect();
    assert_eq!(got, want, "{name}");
    assert_eq!(d.get(Event::EpochAdvance), 1, "{name}: one announcement");
    // Every key is present, so every bucket head is non-null and hinted.
    let hinted = if synchro::prefetch::ACTIVE { BATCH } else { 0 };
    assert_eq!(
        d.get(Event::PrefetchIssued),
        hinted,
        "{name}: one hint per probe"
    );
}

#[test]
fn multi_get_announces_once_on_every_hash_backend() {
    let _serial = exclusive();
    multi_get_announces_once(
        "striped-optik",
        KvStore::with_shards(8, |_| StripedOptikHashTable::new(1024, 16)),
    );
    multi_get_announces_once(
        "striped",
        KvStore::with_shards(8, |_| StripedHashTable::new(1024, 16)),
    );
    multi_get_announces_once(
        "resizable",
        KvStore::with_shards(8, |_| ResizableStripedHashTable::new(16, 8)),
    );
    multi_get_announces_once(
        "optik-map",
        KvStore::with_shards(8, |_| OptikMapHashTable::with_bucket_capacity(64, 16)),
    );
}

#[test]
fn ttl_get_announces_once() {
    let _serial = exclusive();
    let clock = Arc::new(FakeClock::new());
    let store = KvStore::with_shards_ttl(8, clock, |_| StripedOptikHashTable::new(64, 8));
    store.put_with_ttl(5, 50, 10);
    let mut got = None;
    let d = delta(|| got = store.get(5));
    assert_eq!(got, Some(50));
    assert_eq!(
        d.get(Event::EpochAdvance),
        1,
        "value and deadline lookups share one announcement"
    );
}
