//! Quiescent-state-based memory reclamation (QSBR) and type-stable pooling.
//!
//! The OPTIK paper's data structures free unlinked nodes with `ssmem`, "a
//! simple memory allocator with quiescent-based memory reclamation" (§3.3).
//! This crate reproduces that substrate from scratch:
//!
//! - [`Qsbr`] — a reclamation *domain*. Threads register to obtain a
//!   [`QsbrHandle`], announce quiescent points between operations with
//!   [`QsbrHandle::quiescent`], and defer frees with [`QsbrHandle::retire`].
//!   A retired object is dropped only after every registered, online thread
//!   has passed through a quiescent point, so oblivious readers (the paper's
//!   searches never synchronize) can never touch freed memory.
//! - [`NodePool`] — a type-stable node pool: slots are recycled but their memory
//!   is never returned to the OS while the pool lives. This is what makes
//!   the paper's *node caching* (§5.1) safe: a stale cached pointer always
//!   points at *some* node of the right type, and OPTIK version validation
//!   detects reuse.
//! - [`global`]/[`with_local`]/[`quiescent`]/[`op_scope`] — a process-wide default domain
//!   with per-thread handles, so data-structure APIs stay clean
//!   (`list.insert(k, v)` with no explicit guard arguments).
//!
//! # The QSBR contract
//!
//! A thread registered in a domain must either call `quiescent()` regularly
//! (between operations — every workspace structure announces at the start
//! of each of its operations) or mark itself offline with
//! [`QsbrHandle::offline`]; otherwise garbage accumulates. This is the same
//! contract ssmem imposes in the paper, which announces once per
//! *operation*: an operation built from many inner calls runs them inside
//! one [`op_scope`], which announces on entry and silences the inner
//! announcements.

#![warn(missing_docs)]

mod domain;
mod global;
mod pool;

pub use domain::{Qsbr, QsbrHandle, QsbrStats, RetireCtx, MAX_THREADS};
pub use global::{
    global, offline, offline_while, online, op_scope, quiescent, retire_global, with_local,
};
pub use pool::{NodePool, PoolStats, PooledPtr, DEFAULT_CHUNK_CAPACITY, DEFAULT_MAGAZINE_CAPACITY};
