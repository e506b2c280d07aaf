//! Cache-line-sized skip-list nodes, shared by all five lists.
//!
//! A node is a `#[repr(C)]` header (key, value, top level, lock, flags)
//! immediately followed by its tower of `top_level + 1` links. Heights
//! are geometric with p = 1/2, so half of all towers have one link and
//! seven in eight have at most three; a fixed `MAX_LEVEL`-slot tower
//! would spend 192 B of links on nodes that use 8–24. Nodes therefore
//! come from three **slot classes**, each 64-B aligned and a whole number
//! of cache lines:
//!
//! | class | slot  | links (40-B header) | heights   | share of nodes |
//! |-------|-------|---------------------|-----------|----------------|
//! | short | 64 B  | 3                   | 1–3       | 7/8            |
//! | mid   | 128 B | 11                  | 4–11      | ~1/8           |
//! | tall  | 256 B | 24 (`MAX_LEVEL`)    | 12–24     | ~1/2048        |
//!
//! Because every slot starts on a line boundary and no header exceeds
//! [`MAX_HEADER`] bytes, the header and links `0..=2` always share the
//! slot's first line: a descent step or a level-0 range step touches one
//! line per node. The head and tail sentinels are full-height, so they
//! come from the tall class.
//!
//! Each class has its own type-stable [`NodePool`]; [`TowerPool`]
//! dispatches on the header's `top_level`. A slot is only ever recycled
//! within its class, so the pools' type-stability and QSBR contracts hold
//! per class unchanged.
//!
//! Each list's node type is just its header ([`TowerNode`]); the links
//! are not fields of it. [`TowerNode::link`] derives a link's address
//! from the raw node pointer, which carries the provenance of the whole
//! slot. Never reach a link through a reference to the node.

use std::mem::{align_of, offset_of, size_of};
use std::sync::Arc;

use reclaim::{NodePool, QsbrHandle};

use crate::level::MAX_LEVEL;

/// Cache-line size every slot class is aligned to and sized in.
pub(crate) const LINE: usize = 64;

/// Largest header the classes are sized for.
pub(crate) const MAX_HEADER: usize = 40;

/// Link capacity of each slot class, smallest first.
pub(crate) const CLASS_LINKS: [usize; 3] = [3, 11, MAX_LEVEL];

/// A skip-list node: a `#[repr(C)]` header whose tower of links follows
/// it in the enclosing slot. Nodes are only ever handled through raw
/// pointers handed out by a [`TowerPool`].
pub(crate) trait TowerNode: Sized + Send + Sync + 'static {
    /// One tower link (a node pointer, or a marked word).
    type Link: Default + Send + Sync + 'static;

    /// Byte offset of link 0 from the node: the first `Link`-aligned
    /// offset past the header, which is where every [`Slot`] puts it.
    const TOWER_OFFSET: usize = size_of::<Self>().next_multiple_of(align_of::<Self::Link>());

    /// Highest valid link index (tower height − 1).
    fn top_level(&self) -> usize;

    /// Link `level` of `node`'s tower.
    ///
    /// # Safety
    ///
    /// `node` must come from a [`TowerPool`] and still be allocated (QSBR
    /// grace period, or the pool is alive and the slot type-stable), and
    /// `level <= top_level`.
    #[inline]
    unsafe fn link<'a>(node: *const Self, level: usize) -> &'a Self::Link {
        // SAFETY: per contract. The arithmetic stays on the raw pointer,
        // which carries the provenance of the whole slot; the class holds
        // at least `top_level + 1` links.
        unsafe {
            debug_assert!(level <= (*node).top_level(), "link above the tower");
            &*node
                .cast::<u8>()
                .add(Self::TOWER_OFFSET)
                .cast::<Self::Link>()
                .add(level)
        }
    }
}

/// One slot of a class holding `LINKS` links.
#[repr(C, align(64))]
pub(crate) struct Slot<N: TowerNode, const LINKS: usize> {
    node: N,
    links: [N::Link; LINKS],
}

/// Index into [`CLASS_LINKS`] of the smallest class holding a tower of
/// `height` links.
#[inline]
pub(crate) const fn class_of(height: usize) -> usize {
    if height <= CLASS_LINKS[0] {
        0
    } else if height <= CLASS_LINKS[1] {
        1
    } else {
        2
    }
}

/// Compile-time layout checks for node type `N` (call from a `const _`):
/// each class is exactly 64/128/256 B and 64-B aligned, the tower starts
/// where the slots put their links, and the header plus links `0..=2` fit
/// the first line.
pub(crate) const fn assert_layout<N: TowerNode>() {
    assert!(size_of::<N>() <= MAX_HEADER, "header outgrew the classes");
    assert!(size_of::<Slot<N, { CLASS_LINKS[0] }>>() == LINE);
    assert!(size_of::<Slot<N, { CLASS_LINKS[1] }>>() == 2 * LINE);
    assert!(size_of::<Slot<N, { CLASS_LINKS[2] }>>() == 4 * LINE);
    assert!(align_of::<Slot<N, { CLASS_LINKS[0] }>>() == LINE);
    assert!(align_of::<Slot<N, { CLASS_LINKS[1] }>>() == LINE);
    assert!(align_of::<Slot<N, { CLASS_LINKS[2] }>>() == LINE);
    assert!(offset_of!(Slot<N, { CLASS_LINKS[0] }>, node) == 0);
    assert!(offset_of!(Slot<N, { CLASS_LINKS[0] }>, links) == N::TOWER_OFFSET);
    assert!(offset_of!(Slot<N, { CLASS_LINKS[1] }>, links) == N::TOWER_OFFSET);
    assert!(offset_of!(Slot<N, { CLASS_LINKS[2] }>, links) == N::TOWER_OFFSET);
    assert!(N::TOWER_OFFSET + 3 * size_of::<N::Link>() <= LINE);
}

/// Pins a node header's hot fields into the first cache line of every
/// slot and checks the class layout for it (see [`assert_layout`]).
macro_rules! pin_first_line {
    ($node:ty: $($field:ident),+ $(,)?) => {
        const _: () = {
            $(assert!(::std::mem::offset_of!($node, $field) < $crate::tower::LINE);)+
            $crate::tower::assert_layout::<$node>();
        };
    };
}
pub(crate) use pin_first_line;

type Pool<N, const LINKS: usize> = Arc<NodePool<Slot<N, LINKS>>>;

/// One type-stable [`NodePool`] per slot class; allocation and
/// retirement dispatch on the node's `top_level`.
pub(crate) struct TowerPool<N: TowerNode> {
    short: Pool<N, { CLASS_LINKS[0] }>,
    mid: Pool<N, { CLASS_LINKS[1] }>,
    tall: Pool<N, { CLASS_LINKS[2] }>,
}

impl<N: TowerNode> TowerPool<N> {
    /// Three empty class pools.
    pub(crate) fn new() -> Self {
        Self {
            short: NodePool::new(),
            mid: NodePool::new(),
            tall: NodePool::new(),
        }
    }

    /// Allocates `node` in the smallest class holding its tower, with
    /// every link default-initialized (null). Overwrites the whole slot:
    /// see [`NodePool::alloc_init`] for why that needs lists whose readers
    /// hold no node pointer across operations.
    pub(crate) fn alloc(&self, node: N) -> *mut N {
        match class_of(node.top_level() + 1) {
            0 => Self::alloc_in(&self.short, node),
            1 => Self::alloc_in(&self.mid, node),
            _ => Self::alloc_in(&self.tall, node),
        }
    }

    #[inline]
    fn alloc_in<const LINKS: usize>(pool: &NodePool<Slot<N, LINKS>>, node: N) -> *mut N {
        pool.alloc_init(|| Slot {
            node,
            links: std::array::from_fn(|_| N::Link::default()),
        })
        .cast()
    }

    /// Returns `node` to its class pool after a QSBR grace period.
    ///
    /// # Safety
    ///
    /// As [`NodePool::retire`]: `node` came from this pool, is unlinked,
    /// and is retired once.
    pub(crate) unsafe fn retire(&self, node: *mut N, handle: &QsbrHandle) {
        // SAFETY: per contract; the class is a function of top_level,
        // which never changes while the node is allocated.
        unsafe {
            match class_of((*node).top_level() + 1) {
                0 => self.short.retire(node.cast(), handle),
                1 => self.mid.retire(node.cast(), handle),
                _ => self.tall.retire(node.cast(), handle),
            }
        }
    }

    /// Immediately returns a never-published `node` to its class pool.
    ///
    /// # Safety
    ///
    /// As [`NodePool::dealloc_unpublished`].
    pub(crate) unsafe fn dealloc_unpublished(&self, node: *mut N) {
        // SAFETY: per contract.
        unsafe {
            match class_of((*node).top_level() + 1) {
                0 => self.short.dealloc_unpublished(node.cast()),
                1 => self.mid.dealloc_unpublished(node.cast()),
                _ => self.tall.dealloc_unpublished(node.cast()),
            }
        }
    }

    /// Slot ledgers of the short, mid and tall class pools.
    #[cfg(test)]
    pub(crate) fn stats(&self) -> [reclaim::PoolStats; 3] {
        [self.short.stats(), self.mid.stats(), self.tall.stats()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reclaim::PoolStats;
    use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

    #[repr(C)]
    struct TestNode {
        key: u64,
        val: AtomicU64,
        top_level: usize,
        pad: [u64; 2],
    }

    impl TowerNode for TestNode {
        type Link = AtomicPtr<TestNode>;

        fn top_level(&self) -> usize {
            self.top_level
        }
    }

    pin_first_line!(TestNode: key, val, top_level, pad);

    #[test]
    fn every_height_maps_to_the_smallest_class_holding_it() {
        for height in 1..=MAX_LEVEL {
            let class = class_of(height);
            assert!(CLASS_LINKS[class] >= height, "height {height} overflows");
            if class > 0 {
                assert!(CLASS_LINKS[class - 1] < height, "height {height} oversized");
            }
        }
        assert_eq!((class_of(3), class_of(4)), (0, 1));
        assert_eq!((class_of(11), class_of(12)), (1, 2));
        assert_eq!(class_of(MAX_LEVEL), 2);
    }

    #[test]
    fn nodes_are_line_aligned_and_keep_their_links() {
        let pool = TowerPool::<TestNode>::new();
        let nodes: Vec<*mut TestNode> = (1..=MAX_LEVEL)
            .map(|h| {
                pool.alloc(TestNode {
                    key: h as u64,
                    val: AtomicU64::new(h as u64),
                    top_level: h - 1,
                    pad: [0; 2],
                })
            })
            .collect();
        let n = nodes.len();
        // SAFETY: freshly allocated, never published, single-threaded.
        unsafe {
            for (i, &node) in nodes.iter().enumerate() {
                assert_eq!(node as usize % LINE, 0, "slot not line-aligned");
                for l in 0..=(*node).top_level {
                    let link = TestNode::link(node, l);
                    assert!(link.load(Ordering::Relaxed).is_null());
                    link.store(nodes[(i + l) % n], Ordering::Relaxed);
                }
            }
            for (i, &node) in nodes.iter().enumerate() {
                assert_eq!((*node).key, i as u64 + 1, "header clobbered by a tower");
                assert_eq!((*node).val.load(Ordering::Relaxed), i as u64 + 1);
                for l in 0..=(*node).top_level {
                    let link = TestNode::link(node, l).load(Ordering::Relaxed);
                    assert_eq!(link, nodes[(i + l) % n]);
                }
            }
            let live: Vec<u64> = pool.stats().iter().map(PoolStats::live).collect();
            assert_eq!(live, vec![3, 8, 13]);
            for node in nodes {
                pool.dealloc_unpublished(node);
            }
            let live: Vec<u64> = pool.stats().iter().map(PoolStats::live).collect();
            assert_eq!(live, vec![0, 0, 0]);
        }
    }
}
