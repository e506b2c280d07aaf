//! Cross-crate integration: every `ConcurrentSet` registered in the
//! scenario registry (lists, hash tables, skip lists, array maps, BSTs)
//! is run through the same paper-style concurrent workload and checked
//! against count and visibility invariants. Registering a structure in
//! `optik_bench::scenarios` automatically enrolls it here.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use optik_suite::harness::api::ConcurrentSet;
use optik_suite::harness::scenario::Subject;

fn all_sets() -> Vec<(String, Arc<dyn ConcurrentSet>)> {
    // Deduplicate by subject id, keeping the LAST registration: for the
    // fixed-capacity array maps the later scenarios carry the larger
    // paper workloads (fig7.large: 1024 slots), which fit this file's
    // key ranges; earlier ones (fig7.small: 4 slots) would reject the
    // stable-key fills.
    let reg = optik_bench::scenarios::registry();
    let mut out: Vec<(String, Arc<dyn ConcurrentSet>)> = Vec::new();
    for s in reg.iter() {
        if let Subject::Set(make) = s.subject() {
            let entry = (s.subject_id().to_string(), make());
            match out.iter_mut().find(|(id, _)| *id == s.subject_id()) {
                Some(slot) => *slot = entry,
                None => out.push(entry),
            }
        }
    }
    assert!(
        out.len() >= 20,
        "registry shrank: {} set subjects",
        out.len()
    );
    out
}

/// Body of the net-count stress test, parameterized so the tier-1 run can
/// scale with the core count (see `optik_harness::stress`) while the
/// `--ignored` variant always runs at full 8-core strength.
fn concurrent_workload_preserves_net_count(ops: u64) {
    const THREADS: u64 = 8;
    const KEYS: u64 = 96;
    let ops = ops.max(64);
    for (name, set) in all_sets() {
        let net = Arc::new(AtomicI64::new(0));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let set = Arc::clone(&set);
            let net = Arc::clone(&net);
            let name = name.clone();
            handles.push(std::thread::spawn(move || {
                let mut x = t.wrapping_mul(0x9E3779B97F4A7C15) | 1;
                for _ in 0..ops {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let k = x % KEYS + 1;
                    match x % 3 {
                        0 => {
                            if set.insert(k, k * 31) {
                                net.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        1 => {
                            if set.delete(k).is_some() {
                                net.fetch_sub(1, Ordering::Relaxed);
                            }
                        }
                        _ => {
                            if let Some(v) = set.search(k) {
                                assert_eq!(v, k * 31, "{name}: corrupted value for key {k}");
                            }
                        }
                    }
                }
            }));
        }
        reclaim::offline_while(|| {
            for h in handles {
                h.join().unwrap();
            }
        });
        assert_eq!(
            set.len() as i64,
            net.load(Ordering::Relaxed),
            "{name}: final size vs net successful updates"
        );
    }
}

#[test]
fn concurrent_workload_preserves_net_count_everywhere() {
    concurrent_workload_preserves_net_count(optik_suite::harness::stress::ops(15_000));
}

#[test]
#[ignore = "full 8-core-strength stress tier; run via --ignored"]
fn concurrent_workload_preserves_net_count_everywhere_full() {
    concurrent_workload_preserves_net_count(15_000);
}

/// Wall time above which `stable_keys_remain_visible` reports a subject.
const SLOW_SUBJECT_MS: u128 = 1_000;

fn stable_keys_remain_visible(churn_iters: u64) {
    // Half the key space is immutable; churning the other half must never
    // make a stable key invisible or corrupt its value.
    for (name, set) in all_sets() {
        let started = Instant::now();
        for k in (2..=120u64).step_by(2) {
            assert!(set.insert(k, k + 7), "{name}");
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut churners = Vec::new();
        for t in 0..4u64 {
            let set = Arc::clone(&set);
            churners.push(std::thread::spawn(move || {
                for i in 0..churn_iters {
                    let k = ((t * 17 + i) % 60) * 2 + 1; // odd keys only
                    if i % 2 == 0 {
                        set.insert(k, k + 7);
                    } else {
                        set.delete(k);
                    }
                }
            }));
        }
        let mut readers = Vec::new();
        for _ in 0..4 {
            let set = Arc::clone(&set);
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for k in (2..=120u64).step_by(2) {
                        assert_eq!(set.search(k), Some(k + 7), "stable key {k} lost");
                    }
                }
            }));
        }
        reclaim::offline_while(|| {
            for c in churners {
                c.join().unwrap();
            }
            stop.store(true, Ordering::Relaxed);
            for r in readers {
                r.join().unwrap();
            }
        });
        // Cleanup for the next implementation (fresh structures each loop,
        // so nothing to do — but assert the stable half is intact).
        for k in (2..=120u64).step_by(2) {
            assert_eq!(set.search(k), Some(k + 7), "{name}");
        }
        // Name the slow subjects, so a convoy shows up in the test output.
        let ms = started.elapsed().as_millis();
        if ms > SLOW_SUBJECT_MS {
            eprintln!("{name}: {ms} ms");
        }
    }
}

#[test]
fn stable_keys_remain_visible_during_churn() {
    stable_keys_remain_visible(optik_suite::harness::stress::ops(30_000));
}

#[test]
#[ignore = "full 8-core-strength stress tier; run via --ignored"]
fn stable_keys_remain_visible_during_churn_full() {
    stable_keys_remain_visible(30_000);
}

#[test]
fn single_key_histories_are_linearizable() {
    // Four threads hammer one key; the recorded timed history must admit a
    // legal linearization of the two-state set spec — checked exhaustively
    // by the harness's Wing–Gong style checker.
    use optik_suite::harness::linearize::{check_history, Recorder, SetOp};
    use std::sync::{Barrier, Mutex};

    const KEY: u64 = 42;
    for (name, set) in all_sets() {
        let all = Arc::new(Mutex::new(Vec::new()));
        let barrier = Arc::new(Barrier::new(4));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let set = Arc::clone(&set);
            let all = Arc::clone(&all);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                let mut rec = Recorder::new();
                barrier.wait();
                for i in 0..12u64 {
                    match (t + i) % 3 {
                        0 => rec.record(SetOp::Insert, || set.insert(KEY, KEY)),
                        1 => rec.record(SetOp::Delete, || set.delete(KEY).is_some()),
                        _ => rec.record(SetOp::Search, || set.search(KEY).is_some()),
                    }
                }
                all.lock().unwrap().extend(rec.into_ops());
            }));
        }
        reclaim::offline_while(|| {
            for h in handles {
                h.join().unwrap();
            }
        });
        let history = all.lock().unwrap().clone();
        assert!(
            check_history(&history, false),
            "{name}: non-linearizable single-key history"
        );
        // Clean up the key for the next loop iteration's fresh structure.
        let _ = set.delete(KEY);
    }
}

fn sequential_agreement(tape_len: u64) {
    // Drive every structure with the same operation tape; all must agree
    // with a BTreeMap model (and hence with each other).
    let sets = all_sets();
    let mut model = std::collections::BTreeMap::new();
    let mut x = 0x12345678u64;
    for _ in 0..tape_len {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = x % 128 + 1;
        match x % 3 {
            0 => {
                let expect = !model.contains_key(&k);
                if expect {
                    model.insert(k, k);
                }
                for (name, s) in &sets {
                    assert_eq!(s.insert(k, k), expect, "{name} insert {k}");
                }
            }
            1 => {
                let expect = model.remove(&k);
                for (name, s) in &sets {
                    assert_eq!(s.delete(k), expect, "{name} delete {k}");
                }
            }
            _ => {
                let expect = model.get(&k).copied();
                for (name, s) in &sets {
                    assert_eq!(s.search(k), expect, "{name} search {k}");
                }
            }
        }
    }
    for (name, s) in &sets {
        assert_eq!(s.len(), model.len(), "{name} final length");
    }
}

#[test]
fn sequential_agreement_across_all_implementations() {
    sequential_agreement(optik_suite::harness::stress::ops(30_000));
}

#[test]
#[ignore = "full-length model-agreement tape; run via --ignored"]
fn sequential_agreement_across_all_implementations_full() {
    sequential_agreement(30_000);
}
