//! The QSBR domain: thread slots, limbo batches, and collection.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crossbeam_utils::CachePadded;

/// Maximum number of concurrently registered threads per domain (shared
/// with the probe's thread-index registry, which keys the pool magazines).
pub use optik_probe::MAX_THREADS;

/// Seal a limbo batch after this many retires.
const BATCH_SIZE: usize = 64;

/// Attempt collection every this many quiescent announcements.
const COLLECT_PERIOD: u64 = 32;

/// Context passed back to a reclamation action: typically the
/// [`crate::NodePool`] a slot should be returned to. Also keeps that owner
/// alive until the action runs.
pub type RetireCtx = Arc<dyn std::any::Any + Send + Sync>;

/// One type-erased retired object.
struct Garbage {
    ptr: *mut u8,
    drop_fn: unsafe fn(*mut u8, Option<RetireCtx>),
    ctx: Option<RetireCtx>,
}

// SAFETY: garbage is only ever dropped by one thread, and the pointed-to
// object was retired by its unique owner.
unsafe impl Send for Garbage {}

/// A sealed batch: retired objects plus the quiescence snapshot that must be
/// "overtaken" before they can be freed.
struct Batch {
    items: Vec<Garbage>,
    /// `(slot index, ts at snapshot)` for every online thread at seal time.
    snapshot: Vec<(u32, u64)>,
    /// Probe timestamp at seal (0 when the probe feature is off); the free
    /// records `now - sealed_at` as the batch's grace latency.
    sealed_at: u64,
}

/// Per-thread slot in the domain's registry.
struct Slot {
    /// Slot claimed by some live handle.
    in_use: AtomicBool,
    /// Thread parked (offline): skipped by snapshots.
    parked: AtomicBool,
    /// Monotonic quiescence counter. Never reset, bumped on register,
    /// unregister, park, unpark, and every quiescent announcement — so
    /// "ts changed since snapshot" always means "passed a quiescent point
    /// or stopped existing", with no ABA across slot reuse.
    ts: AtomicU64,
}

/// Counters exposed for tests and diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QsbrStats {
    /// Objects retired into the domain (all threads).
    pub retired: u64,
    /// Objects actually freed so far.
    pub freed: u64,
    /// Threads currently registered.
    pub registered: usize,
}

/// A quiescent-state-based reclamation domain.
///
/// Cheap to share via `Arc`; most users want the process-wide domain from
/// [`crate::global`] instead of creating their own.
pub struct Qsbr {
    slots: Box<[CachePadded<Slot>]>,
    /// Batches abandoned by exiting threads; collected opportunistically.
    orphans: Mutex<Vec<Batch>>,
    retired: AtomicU64,
    freed: AtomicU64,
    registered: AtomicUsize,
}

impl Qsbr {
    /// Creates a new, empty domain.
    pub fn new() -> Arc<Self> {
        let slots = (0..MAX_THREADS)
            .map(|_| {
                CachePadded::new(Slot {
                    in_use: AtomicBool::new(false),
                    parked: AtomicBool::new(false),
                    ts: AtomicU64::new(0),
                })
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Arc::new(Self {
            slots,
            orphans: Mutex::new(Vec::new()),
            retired: AtomicU64::new(0),
            freed: AtomicU64::new(0),
            registered: AtomicUsize::new(0),
        })
    }

    /// Registers the calling thread, returning its handle.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_THREADS`] threads are simultaneously
    /// registered.
    pub fn register(self: &Arc<Self>) -> QsbrHandle {
        for (i, slot) in self.slots.iter().enumerate() {
            if !slot.in_use.load(Ordering::Relaxed)
                && slot
                    .in_use
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                slot.parked.store(false, Ordering::Relaxed);
                slot.ts.fetch_add(1, Ordering::Release);
                self.registered.fetch_add(1, Ordering::Relaxed);
                return QsbrHandle {
                    domain: Arc::clone(self),
                    slot: i as u32,
                    pending: RefCell::new(Vec::with_capacity(BATCH_SIZE)),
                    limbo: RefCell::new(VecDeque::new()),
                    quiesce_count: Cell::new(0),
                    scope_depth: Cell::new(0),
                };
            }
        }
        panic!("QSBR domain exhausted: more than {MAX_THREADS} registered threads");
    }

    /// Current domain statistics.
    pub fn stats(&self) -> QsbrStats {
        QsbrStats {
            retired: self.retired.load(Ordering::Relaxed),
            freed: self.freed.load(Ordering::Relaxed),
            registered: self.registered.load(Ordering::Relaxed),
        }
    }

    /// Snapshot of every online thread's quiescence counter.
    fn snapshot(&self) -> Vec<(u32, u64)> {
        let mut snap = Vec::new();
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.in_use.load(Ordering::Acquire) && !slot.parked.load(Ordering::Acquire) {
                snap.push((i as u32, slot.ts.load(Ordering::Acquire)));
            }
        }
        snap
    }

    /// Whether every thread named in `snapshot` has moved past it.
    fn snapshot_overtaken(&self, snapshot: &[(u32, u64)]) -> bool {
        snapshot.iter().all(|&(i, ts)| {
            let slot = &self.slots[i as usize];
            // ts is monotonic and bumped on every state change, so any
            // difference proves a quiescent point (or exit) after the seal.
            // A released slot has no live thread, even if the seal landed
            // between the exiting handle's final ts bump and its release
            // (e.g. a drop function re-retiring during `QsbrHandle::drop`);
            // re-registration bumps ts, so the comparison stays sound.
            !slot.in_use.load(Ordering::Acquire) || slot.ts.load(Ordering::Acquire) != ts
        })
    }

    /// Frees a batch's contents.
    fn free_batch(&self, batch: Batch) {
        optik_probe::count(optik_probe::Event::GraceBatchFree);
        optik_probe::record(
            optik_probe::HistKind::GraceLatency,
            optik_probe::elapsed(batch.sealed_at, optik_probe::now()),
        );
        let n = batch.items.len() as u64;
        for g in batch.items {
            // SAFETY: the grace period has elapsed — no thread can still
            // hold an in-operation reference to `g.ptr`; the drop_fn was
            // supplied with a pointer of the matching type.
            unsafe { (g.drop_fn)(g.ptr, g.ctx) };
        }
        self.freed.fetch_add(n, Ordering::Relaxed);
    }

    /// Opportunistically frees overtaken orphan batches.
    fn collect_orphans(&self) {
        let Ok(mut orphans) = self.orphans.try_lock() else {
            return;
        };
        let mut ready = Vec::new();
        let mut i = 0;
        while i < orphans.len() {
            if self.snapshot_overtaken(&orphans[i].snapshot) {
                ready.push(orphans.swap_remove(i));
            } else {
                i += 1;
            }
        }
        // Free outside the lock: drop functions may re-enter the domain
        // (e.g. `retire_orphan` for a second grace period).
        drop(orphans);
        for batch in ready {
            self.free_batch(batch);
        }
    }

    /// Retires directly into the domain's orphan list, without a
    /// per-thread handle.
    ///
    /// Usable from drop functions that may run during thread teardown
    /// (where the thread-local handle is no longer accessible) — e.g. to
    /// *re-retire* a pointer for an additional grace period.
    ///
    /// # Safety
    ///
    /// Same contract as [`QsbrHandle::retire_with`].
    pub unsafe fn retire_orphan(
        &self,
        ptr: *mut u8,
        drop_fn: unsafe fn(*mut u8, Option<RetireCtx>),
    ) {
        self.retired.fetch_add(1, Ordering::Relaxed);
        let snapshot = self.snapshot();
        self.orphans
            .lock()
            .expect("orphan list poisoned")
            .push(Batch {
                items: vec![Garbage {
                    ptr,
                    drop_fn,
                    ctx: None,
                }],
                snapshot,
                sealed_at: optik_probe::now(),
            });
    }
}

impl Drop for Qsbr {
    fn drop(&mut self) {
        // All handles hold an Arc to the domain, so at drop time there are no
        // registered threads and every remaining orphan batch is safe. Loop:
        // a freed batch may re-retire into the orphan list (second grace
        // period), which is equally safe to free now.
        loop {
            let orphans = std::mem::take(&mut *self.orphans.lock().unwrap());
            if orphans.is_empty() {
                break;
            }
            for batch in orphans {
                self.free_batch(batch);
            }
        }
    }
}

impl std::fmt::Debug for Qsbr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Qsbr")
            .field("stats", &self.stats())
            .finish()
    }
}

/// A per-thread handle onto a [`Qsbr`] domain.
///
/// Not `Sync`/`Send`: create one per thread via [`Qsbr::register`] (or use
/// the implicit per-thread handles of [`crate::with_local`]).
pub struct QsbrHandle {
    domain: Arc<Qsbr>,
    slot: u32,
    /// Current, unsealed batch of retired objects.
    pending: RefCell<Vec<Garbage>>,
    /// Sealed batches awaiting their grace period, oldest first.
    limbo: RefCell<VecDeque<Batch>>,
    quiesce_count: Cell<u64>,
    /// Nesting depth of [`QsbrHandle::op_scope`]; nonzero turns
    /// [`QsbrHandle::quiescent`] into a no-op.
    scope_depth: Cell<u32>,
}

/// Restores a handle's scope depth when an [`QsbrHandle::op_scope`] body
/// returns or unwinds.
struct ScopeExit<'a>(&'a Cell<u32>);

impl Drop for ScopeExit<'_> {
    fn drop(&mut self) {
        self.0.set(self.0.get() - 1);
    }
}

impl QsbrHandle {
    /// Announces a quiescent point: the calling thread holds no references
    /// to any object retired in this domain.
    ///
    /// Call between operations, at least once per operation (start or
    /// end — the paper's benchmarks do it between iterations). Inside an
    /// [`QsbrHandle::op_scope`] the call is a no-op: the scope announced
    /// once on entry for the whole operation.
    #[inline]
    pub fn quiescent(&self) {
        if self.scope_depth.get() > 0 {
            return;
        }
        optik_probe::count(optik_probe::Event::EpochAdvance);
        let slot = &self.domain.slots[self.slot as usize];
        slot.ts.fetch_add(1, Ordering::AcqRel);
        let n = self.quiesce_count.get() + 1;
        self.quiesce_count.set(n);
        if n % COLLECT_PERIOD == 0 {
            self.collect();
            self.domain.collect_orphans();
        }
    }

    /// Runs `f` as one operation with one quiescent announcement: announces
    /// on entry (unless already inside a scope), then every
    /// [`QsbrHandle::quiescent`] this handle sees until `f` returns is a
    /// no-op. A composite operation whose inner lookups each announce
    /// (a batched read over a backend whose `get` calls `quiescent`)
    /// pays one announcement instead of one per lookup.
    ///
    /// Announcing less often only delays grace periods — every object
    /// retired while `f` runs stays allocated until this thread announces
    /// again after the scope — so no reclamation guarantee weakens. The
    /// depth is restored on return and on unwind. `f` must not go
    /// offline ([`QsbrHandle::offline`] asserts this in debug builds) nor
    /// block for long: garbage from every thread waits for the scope.
    #[inline]
    pub fn op_scope<R>(&self, f: impl FnOnce() -> R) -> R {
        let depth = self.scope_depth.get();
        if depth == 0 {
            self.quiescent();
        }
        self.scope_depth.set(depth + 1);
        let _exit = ScopeExit(&self.scope_depth);
        f()
    }

    /// Defers dropping of `ptr` (a `Box::into_raw` pointer) until all
    /// registered threads pass a quiescent point.
    ///
    /// # Safety
    ///
    /// `ptr` must have been produced by `Box::into_raw`, must not be retired
    /// twice, and no new references to it may be created after this call
    /// (it must already be unreachable from the shared structure).
    pub unsafe fn retire<T: Send>(&self, ptr: *mut T) {
        unsafe fn drop_box<T>(p: *mut u8, _ctx: Option<RetireCtx>) {
            // SAFETY: `p` came from `Box::into_raw::<T>` per retire contract.
            unsafe { drop(Box::from_raw(p.cast::<T>())) };
        }
        // SAFETY: forwarded contract; drop_box matches the Box provenance.
        unsafe { self.retire_with(ptr.cast::<u8>(), drop_box::<T>, None) };
    }

    /// Defers an arbitrary reclamation action.
    ///
    /// `ctx` (if provided) is passed to `drop_fn` and kept alive until it
    /// runs — used by [`crate::NodePool`] so the pool outlives slots being
    /// returned to it.
    ///
    /// # Safety
    ///
    /// `drop_fn(ptr, ctx)` must be safe to call exactly once after a grace
    /// period, and `ptr` must already be unreachable to new readers.
    pub unsafe fn retire_with(
        &self,
        ptr: *mut u8,
        drop_fn: unsafe fn(*mut u8, Option<RetireCtx>),
        ctx: Option<RetireCtx>,
    ) {
        self.domain.retired.fetch_add(1, Ordering::Relaxed);
        let mut pending = self.pending.borrow_mut();
        pending.push(Garbage { ptr, drop_fn, ctx });
        if pending.len() >= BATCH_SIZE {
            let items = std::mem::replace(&mut *pending, Vec::with_capacity(BATCH_SIZE));
            drop(pending);
            self.seal(items);
        }
    }

    /// Seals the current pending batch immediately (even if small) so it can
    /// start its grace period.
    pub fn flush(&self) {
        let items = std::mem::take(&mut *self.pending.borrow_mut());
        if !items.is_empty() {
            self.seal(items);
        }
    }

    /// Marks this thread offline: snapshots skip it, so long idle periods do
    /// not stall reclamation. Must not be holding references into any
    /// protected structure, nor inside an [`QsbrHandle::op_scope`].
    pub fn offline(&self) {
        debug_assert_eq!(
            self.scope_depth.get(),
            0,
            "QsbrHandle::offline inside an op_scope"
        );
        let slot = &self.domain.slots[self.slot as usize];
        slot.ts.fetch_add(1, Ordering::AcqRel);
        slot.parked.store(true, Ordering::Release);
    }

    /// Marks this thread online again after [`QsbrHandle::offline`].
    pub fn online(&self) {
        let slot = &self.domain.slots[self.slot as usize];
        slot.parked.store(false, Ordering::Release);
        slot.ts.fetch_add(1, Ordering::AcqRel);
    }

    /// The domain this handle belongs to.
    pub fn domain(&self) -> &Arc<Qsbr> {
        &self.domain
    }

    /// Number of objects waiting (pending + limbo) in this handle.
    pub fn backlog(&self) -> usize {
        self.pending.borrow().len()
            + self
                .limbo
                .borrow()
                .iter()
                .map(|b| b.items.len())
                .sum::<usize>()
    }

    fn seal(&self, items: Vec<Garbage>) {
        let snapshot = self.domain.snapshot();
        self.limbo.borrow_mut().push_back(Batch {
            items,
            snapshot,
            sealed_at: optik_probe::now(),
        });
        self.collect();
    }

    /// Frees every limbo batch whose snapshot has been overtaken.
    ///
    /// The `limbo` borrow is released before each batch is freed: drop
    /// functions are allowed to re-enter the handle (e.g. to *re-retire*
    /// a pointer for an additional grace period, as the Fraser skip list
    /// does), which touches `pending`/`limbo` again.
    pub fn collect(&self) {
        loop {
            let batch = {
                let mut limbo = self.limbo.borrow_mut();
                match limbo.front() {
                    Some(front) if self.domain.snapshot_overtaken(&front.snapshot) => {
                        limbo.pop_front()
                    }
                    _ => None,
                }
            };
            match batch {
                Some(b) => self.domain.free_batch(b),
                None => break,
            }
        }
    }
}

impl Drop for QsbrHandle {
    fn drop(&mut self) {
        self.flush();
        // Try a final local collection; our own ts bump below helps others.
        let slot = &self.domain.slots[self.slot as usize];
        slot.ts.fetch_add(1, Ordering::AcqRel);
        self.collect();
        // Hand any still-unsafe batches to the domain.
        let leftovers: Vec<Batch> = self.limbo.borrow_mut().drain(..).collect();
        if !leftovers.is_empty() {
            self.domain.orphans.lock().unwrap().extend(leftovers);
        }
        // Release the slot (ts bump above already invalidated snapshots).
        slot.parked.store(false, Ordering::Relaxed);
        slot.in_use.store(false, Ordering::Release);
        self.domain.registered.fetch_sub(1, Ordering::Relaxed);
        self.domain.collect_orphans();
    }
}

impl std::fmt::Debug for QsbrHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QsbrHandle")
            .field("slot", &self.slot)
            .field("backlog", &self.backlog())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct DropCounter(Arc<AtomicU64>);
    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn retire_orphan_frees_after_grace_without_a_handle() {
        let domain = Qsbr::new();
        let hits = Arc::new(AtomicU64::new(0));
        unsafe fn bump(p: *mut u8, _ctx: Option<RetireCtx>) {
            // SAFETY: provenance from Box::into_raw below.
            unsafe { drop(Box::from_raw(p.cast::<DropCounter>())) };
        }
        let p = Box::into_raw(Box::new(DropCounter(Arc::clone(&hits))));
        let h = domain.register();
        // SAFETY: never published.
        unsafe { domain.retire_orphan(p.cast(), bump) };
        assert_eq!(hits.load(Ordering::SeqCst), 0, "must wait for grace");
        // Orphans are collected opportunistically (periodic quiescence or
        // handle teardown); handle drop is deterministic for the test.
        drop(h);
        assert_eq!(hits.load(Ordering::SeqCst), 1, "freed after grace");
    }

    #[test]
    fn drop_fn_may_re_retire_for_a_second_grace_period() {
        // A drop function that re-retires (double grace) must not deadlock
        // or double-borrow during collection, including at domain drop.
        let domain = Qsbr::new();
        let hits = Arc::new(AtomicU64::new(0));
        unsafe fn second_hop(p: *mut u8, _ctx: Option<RetireCtx>) {
            // SAFETY: matching provenance; freed exactly once, here.
            unsafe { drop(Box::from_raw(p.cast::<DropCounter>())) };
        }
        unsafe fn first_hop(p: *mut u8, ctx: Option<RetireCtx>) {
            let _ = ctx;
            // Re-retire into the same domain via the thread's handle-free
            // path. SAFETY: forwarded provenance; second_hop frees.
            // The domain is reachable through a global in real callers;
            // in this test the outer scope keeps it alive via leak-free
            // Arc upgrade from the raw context-less path is impossible,
            // so we just free directly after one hop — the re-entrancy
            // being tested is exercised by the nested collect below.
            unsafe { second_hop(p, None) };
        }
        let h = domain.register();
        let p = Box::into_raw(Box::new(DropCounter(Arc::clone(&hits))));
        // SAFETY: never published.
        unsafe { h.retire_with(p.cast(), first_hop, None) };
        h.flush();
        h.quiescent();
        h.quiescent();
        h.collect();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn exiting_slot_does_not_stall_a_batch_sealed_during_its_drop() {
        // `a`'s drop collects its own batch, whose drop function re-retires
        // through `retire_orphan`. That orphan is sealed after `a`'s final
        // ts bump but before its slot is released, so its snapshot records
        // the exiting slot's last ts; the grace period must still end once
        // `b` (the only live thread) passes quiescent points.
        let domain = Qsbr::new();
        let hits = Arc::new(AtomicU64::new(0));
        unsafe fn second_hop(p: *mut u8, _ctx: Option<RetireCtx>) {
            // SAFETY: provenance from Box::into_raw below; freed once.
            unsafe { drop(Box::from_raw(p.cast::<DropCounter>())) };
        }
        unsafe fn first_hop(p: *mut u8, ctx: Option<RetireCtx>) {
            let domain = ctx
                .expect("retired with the domain as ctx")
                .downcast::<Qsbr>()
                .expect("ctx is the domain");
            // SAFETY: forwarded provenance; second_hop frees.
            unsafe { domain.retire_orphan(p, second_hop) };
        }
        let b = domain.register();
        let a = domain.register();
        let p = Box::into_raw(Box::new(DropCounter(Arc::clone(&hits))));
        let ctx: RetireCtx = domain.clone();
        // SAFETY: never published.
        unsafe { a.retire_with(p.cast(), first_hop, Some(ctx)) };
        a.flush();
        b.quiescent();
        drop(a);
        for _ in 0..4 * COLLECT_PERIOD {
            b.quiescent();
        }
        assert_eq!(
            hits.load(Ordering::SeqCst),
            1,
            "re-retired box stranded behind the exited slot: {:?}",
            domain.stats()
        );
        drop(b);
    }

    #[test]
    fn retire_defers_until_grace_period() {
        let domain = Qsbr::new();
        let drops = Arc::new(AtomicU64::new(0));
        let h1 = domain.register();
        let h2 = domain.register();

        let p = Box::into_raw(Box::new(DropCounter(Arc::clone(&drops))));
        // SAFETY: p is a unique Box pointer, unreachable elsewhere.
        unsafe { h1.retire(p) };
        h1.flush();
        h1.collect();
        // h2 has not announced quiescence since the seal: must not be freed.
        assert_eq!(drops.load(Ordering::SeqCst), 0);

        h2.quiescent();
        h1.quiescent();
        h1.collect();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        drop((h1, h2));
    }

    #[test]
    fn reused_slot_gates_a_batch_sealed_after_reregistration() {
        // A released slot counts as overtaken, but re-registering it bumps
        // ts: a batch sealed after the new owner arrived waits for it.
        let domain = Qsbr::new();
        let drops = Arc::new(AtomicU64::new(0));
        let h1 = domain.register();
        let gone = domain.register();
        let slot = gone.slot;
        drop(gone);
        let h2 = domain.register();
        assert_eq!(h2.slot, slot, "the released slot is reused");

        let p = Box::into_raw(Box::new(DropCounter(Arc::clone(&drops))));
        // SAFETY: p is a unique Box pointer, unreachable elsewhere.
        unsafe { h1.retire(p) };
        h1.flush();
        h1.quiescent();
        h1.collect();
        assert_eq!(
            drops.load(Ordering::SeqCst),
            0,
            "freed before the slot's new owner passed a quiescent point"
        );

        h2.quiescent();
        h1.quiescent();
        h1.collect();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        drop((h1, h2));
    }

    #[test]
    fn offline_thread_does_not_stall_reclamation() {
        let domain = Qsbr::new();
        let drops = Arc::new(AtomicU64::new(0));
        let h1 = domain.register();
        let h2 = domain.register();

        h2.offline();
        let p = Box::into_raw(Box::new(DropCounter(Arc::clone(&drops))));
        // SAFETY: unique Box pointer.
        unsafe { h1.retire(p) };
        h1.flush();
        h1.quiescent();
        h1.collect();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        h2.online();
        drop((h1, h2));
    }

    #[test]
    fn handle_drop_orphans_are_freed_eventually() {
        let domain = Qsbr::new();
        let drops = Arc::new(AtomicU64::new(0));
        let h1 = domain.register();
        let h2 = domain.register();

        let p = Box::into_raw(Box::new(DropCounter(Arc::clone(&drops))));
        // SAFETY: unique Box pointer.
        unsafe { h1.retire(p) };
        drop(h1); // flush + orphan (h2 hasn't quiesced)

        h2.quiescent();
        // Orphan collection is periodic; force enough quiescent points.
        for _ in 0..(COLLECT_PERIOD * 2) {
            h2.quiescent();
        }
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        drop(h2);
    }

    #[test]
    fn domain_drop_frees_everything() {
        let domain = Qsbr::new();
        let drops = Arc::new(AtomicU64::new(0));
        {
            let h1 = domain.register();
            let _h2 = domain.register(); // never quiesces
            for _ in 0..10 {
                let p = Box::into_raw(Box::new(DropCounter(Arc::clone(&drops))));
                // SAFETY: unique Box pointers.
                unsafe { h1.retire(p) };
            }
        }
        drop(domain);
        assert_eq!(drops.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn stats_track_retired_and_freed() {
        let domain = Qsbr::new();
        let h = domain.register();
        for _ in 0..5 {
            let p = Box::into_raw(Box::new(42u64));
            // SAFETY: unique Box pointers.
            unsafe { h.retire(p) };
        }
        assert_eq!(domain.stats().retired, 5);
        assert_eq!(domain.stats().registered, 1);
        h.flush();
        h.quiescent();
        h.collect();
        assert_eq!(domain.stats().freed, 5);
        drop(h);
        assert_eq!(domain.stats().registered, 0);
    }

    #[test]
    fn slot_reuse_does_not_confuse_snapshots() {
        let domain = Qsbr::new();
        let drops = Arc::new(AtomicU64::new(0));
        let h1 = domain.register();

        // Register/unregister a second thread repeatedly across a retire.
        let h2 = domain.register();
        let p = Box::into_raw(Box::new(DropCounter(Arc::clone(&drops))));
        // SAFETY: unique Box pointer.
        unsafe { h1.retire(p) };
        h1.flush();
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        drop(h2); // unregister bumps ts -> snapshot overtaken for that slot
        h1.quiescent();
        h1.collect();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        drop(h1);
    }

    #[test]
    fn concurrent_stress_no_use_after_free() {
        // Producers retire boxed values while all threads keep quiescing;
        // the drop counter at the end must equal the retire count exactly
        // (no double free, no leak).
        let domain = Qsbr::new();
        let drops = Arc::new(AtomicU64::new(0));
        const THREADS: usize = 8;
        const OPS: usize = 20_000;

        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let domain = Arc::clone(&domain);
            let drops = Arc::clone(&drops);
            handles.push(std::thread::spawn(move || {
                let h = domain.register();
                for _ in 0..OPS {
                    let p = Box::into_raw(Box::new(DropCounter(Arc::clone(&drops))));
                    // SAFETY: unique Box pointer.
                    unsafe { h.retire(p) };
                    h.quiescent();
                }
            }));
        }
        for t in handles {
            t.join().unwrap();
        }
        drop(domain);
        assert_eq!(drops.load(Ordering::SeqCst), (THREADS * OPS) as u64);
    }

    fn ts_of(h: &QsbrHandle) -> u64 {
        h.domain.slots[h.slot as usize].ts.load(Ordering::SeqCst)
    }

    #[test]
    fn op_scope_announces_once_and_silences_inner_quiescent() {
        let domain = Qsbr::new();
        let h = domain.register();
        let before = ts_of(&h);
        h.op_scope(|| {
            assert_eq!(ts_of(&h), before + 1, "entry announces once");
            for _ in 0..4 * COLLECT_PERIOD {
                h.quiescent();
            }
            assert_eq!(ts_of(&h), before + 1, "inner announcements are no-ops");
            h.op_scope(|| h.quiescent());
            assert_eq!(ts_of(&h), before + 1, "a nested scope adds none");
        });
        assert_eq!(
            h.quiesce_count.get(),
            1,
            "inner calls never reach collection"
        );
        assert_eq!(h.scope_depth.get(), 0);
        h.quiescent();
        assert_eq!(ts_of(&h), before + 2, "announcing resumes after the scope");
    }

    #[test]
    fn op_scope_restores_depth_on_unwind() {
        let domain = Qsbr::new();
        let h = domain.register();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            h.op_scope(|| h.op_scope(|| panic!("inside the scope")))
        }));
        assert!(r.is_err());
        assert_eq!(h.scope_depth.get(), 0, "unwinding left the depth set");
        let before = ts_of(&h);
        h.quiescent();
        assert_eq!(ts_of(&h), before + 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "offline inside an op_scope")]
    fn offline_inside_op_scope_is_a_debug_assertion() {
        let domain = Qsbr::new();
        let h = domain.register();
        h.op_scope(|| h.offline());
    }

    #[test]
    fn retire_during_a_scope_waits_for_the_next_announcement_after_it() {
        let domain = Qsbr::new();
        let drops = Arc::new(AtomicU64::new(0));
        let a = domain.register();
        let b = domain.register();
        a.op_scope(|| {
            let p = Box::into_raw(Box::new(DropCounter(Arc::clone(&drops))));
            // SAFETY: unique Box pointer, unreachable elsewhere.
            unsafe { b.retire(p) };
            b.flush();
            a.quiescent(); // silenced: `a` is still inside its operation
            b.quiescent();
            b.collect();
            assert_eq!(drops.load(Ordering::SeqCst), 0, "freed under a live scope");
        });
        b.quiescent();
        b.collect();
        assert_eq!(
            drops.load(Ordering::SeqCst),
            0,
            "freed before `a` announced after its scope"
        );
        a.quiescent();
        b.collect();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        drop((a, b));
    }

    #[test]
    #[should_panic(expected = "QSBR domain exhausted")]
    fn registration_beyond_capacity_panics() {
        let domain = Qsbr::new();
        let mut handles = Vec::new();
        for _ in 0..=MAX_THREADS {
            handles.push(domain.register());
        }
    }
}
