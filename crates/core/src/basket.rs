//! The basket abstract data type (paper §5.2.1) and the SBQ scalable
//! basket (§5.3.1, Algorithms 8–9).
//!
//! A basket is a linearizable set with three operations: a fallible
//! `insert`, an `extract` that removes *some* element (NULL when empty),
//! and an `empty` check that allows false negatives. The basket interface
//! alone does not imply queue linearizability; an implementation must
//! additionally guarantee the property used in the paper's §5.3.2 proofs:
//! once the basket indicates empty (an extract returns NULL or `empty`
//! returns true at time *t*), every extract invoked after *t* fails.
//!
//! Element encoding: elements are `u64` values in `1..=ELEM_MAX`. `0` is
//! NULL ("no element"); the two top values are the reserved cell markers.

use absmem::{Addr, ThreadCtx};

/// "No element" — returned by `extract` on an empty basket.
pub const NULL_ELEM: u64 = 0;
/// Reserved cell marker: cell awaits its inserter.
pub const INSERT_MARK: u64 = u64::MAX;
/// Reserved cell marker: cell was claimed by an extractor.
pub const EMPTY_MARK: u64 = u64::MAX - 1;
/// Largest legal element value.
pub const ELEM_MAX: u64 = u64::MAX - 2;

/// The pluggable basket ADT of the modular baskets queue (§5.2).
///
/// All operations address the basket's state as `words()` consecutive
/// words starting at `base` (the basket field inside a queue node). `id`
/// is the calling thread's inserter index, dense in `0..inserters`.
pub trait Basket: Clone {
    /// Number of state words a basket instance occupies inside a node.
    fn words(&self) -> usize;

    /// Initializes a freshly allocated basket to the empty state.
    fn init<C: ThreadCtx>(&self, ctx: &mut C, base: Addr);

    /// Constant-time reset after a *single* insert by `id` into a basket
    /// whose node was never linked into the queue (the §5.2.2 node-reuse
    /// optimization).
    fn reset_single<C: ThreadCtx>(&self, ctx: &mut C, base: Addr, id: usize);

    /// Attempts to insert `elem`; may fail non-deterministically.
    fn insert<C: ThreadCtx>(&self, ctx: &mut C, base: Addr, elem: u64, id: usize) -> bool;

    /// Removes and returns some element, or [`NULL_ELEM`] if empty.
    fn extract<C: ThreadCtx>(&self, ctx: &mut C, base: Addr, id: usize) -> u64;

    /// Empty check; false negatives allowed, false positives not.
    fn is_empty<C: ThreadCtx>(&self, ctx: &mut C, base: Addr) -> bool;
}

/// The SBQ scalable basket (Algorithms 8–9).
///
/// Layout (`2 + capacity` words):
///
/// ```text
/// base+0   counter   — FAA ticket dispenser for extractors
/// base+1   empty     — sticky empty bit
/// base+2+i cells[i]  — INSERT_MARK | element | EMPTY_MARK
/// ```
///
/// Inserters write only their private cell (synchronization-free inserts);
/// extractors claim cell indices with one FAA and SWAP the cell out. The
/// `empty` bit short-circuits extractors once the last index is handed
/// out, keeping most of them off the contended counter.
#[derive(Debug, Clone, Copy)]
pub struct SbqBasket {
    /// Number of cells (the paper fixes 44 — the machine's core count).
    pub capacity: usize,
    /// Number of *active* inserters this run; extraction bounds use this
    /// (paper §6.1: "basket emptiness is determined using the number of
    /// enqueuers in the experiment"). Invariant: `inserters <= capacity`.
    pub inserters: usize,
}

impl SbqBasket {
    /// A basket with `capacity` cells, all of which may insert.
    pub fn new(capacity: usize) -> Self {
        SbqBasket {
            capacity,
            inserters: capacity,
        }
    }

    /// A basket with fixed `capacity` but only `inserters` active cells.
    pub fn with_inserters(capacity: usize, inserters: usize) -> Self {
        assert!(inserters <= capacity && inserters > 0);
        SbqBasket {
            capacity,
            inserters,
        }
    }

    const COUNTER: u64 = 0;
    const EMPTY: u64 = 1;
    const CELLS: u64 = 2;
}

impl Basket for SbqBasket {
    fn words(&self) -> usize {
        2 + self.capacity
    }

    fn init<C: ThreadCtx>(&self, ctx: &mut C, base: Addr) {
        ctx.write(base + Self::COUNTER, 0);
        ctx.write(base + Self::EMPTY, 0);
        for i in 0..self.capacity as u64 {
            ctx.write(base + Self::CELLS + i, INSERT_MARK);
        }
    }

    fn reset_single<C: ThreadCtx>(&self, ctx: &mut C, base: Addr, id: usize) {
        // The node was never published, so a plain store suffices to undo
        // the single insert.
        ctx.write(base + Self::CELLS + id as u64, INSERT_MARK);
    }

    fn insert<C: ThreadCtx>(&self, ctx: &mut C, base: Addr, elem: u64, id: usize) -> bool {
        debug_assert!((1..=ELEM_MAX).contains(&elem), "element out of domain");
        // Checked in all builds: an out-of-range id would scribble past
        // the node's allocation — silent corruption in the word arena.
        assert!(
            id < self.capacity,
            "inserter id {id} out of range (capacity {})",
            self.capacity
        );
        if id >= self.inserters {
            // A cell extractors will never scan: the element would be
            // lost. Refuse the insert; the enqueuer retries at the tail.
            return false;
        }
        ctx.cas(base + Self::CELLS + id as u64, INSERT_MARK, elem)
    }

    fn extract<C: ThreadCtx>(&self, ctx: &mut C, base: Addr, _id: usize) -> u64 {
        if ctx.read(base + Self::EMPTY) != 0 {
            return NULL_ELEM;
        }
        loop {
            let index = ctx.faa(base + Self::COUNTER, 1);
            if index >= self.inserters as u64 {
                return NULL_ELEM;
            }
            if index == self.inserters as u64 - 1 {
                // Last ticket: flag the basket empty so future extractors
                // skip the FAA entirely.
                ctx.write(base + Self::EMPTY, 1);
            }
            let element = ctx.swap(base + Self::CELLS + index, EMPTY_MARK);
            if element != INSERT_MARK {
                debug_assert_ne!(element, EMPTY_MARK, "cell extracted twice");
                return element;
            }
            // The cell's inserter never showed up (its CAS will now fail);
            // take the next ticket.
        }
    }

    fn is_empty<C: ThreadCtx>(&self, ctx: &mut C, base: Addr) -> bool {
        ctx.read(base + Self::EMPTY) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use absmem::native::NativeHeap;
    use std::sync::Arc;

    fn setup(b: &SbqBasket) -> (Arc<NativeHeap>, Addr) {
        let heap = Arc::new(NativeHeap::new());
        let mut ctx = heap.ctx(0);
        let base = ctx.alloc(b.words());
        b.init(&mut ctx, base);
        (heap, base)
    }

    #[test]
    fn insert_then_extract_roundtrips() {
        let b = SbqBasket::new(4);
        let (heap, base) = setup(&b);
        let mut ctx = heap.ctx(0);
        assert!(b.insert(&mut ctx, base, 41, 0));
        assert!(b.insert(&mut ctx, base, 42, 1));
        let a = b.extract(&mut ctx, base, 0);
        let c = b.extract(&mut ctx, base, 0);
        assert_eq!((a, c), (41, 42), "extraction follows cell order");
    }

    #[test]
    fn insert_fails_after_cell_claimed() {
        let b = SbqBasket::new(2);
        let (heap, base) = setup(&b);
        let mut ctx = heap.ctx(0);
        // An extract on the empty basket scans (and claims) every cell up
        // to `inserters` — that is exactly how the basket guarantees that
        // once emptiness was indicated, no later insert can be observed
        // (the §5.3.2 property).
        assert_eq!(b.extract(&mut ctx, base, 0), NULL_ELEM);
        assert!(
            !b.insert(&mut ctx, base, 7, 0),
            "claimed cell rejects insert"
        );
        assert!(
            !b.insert(&mut ctx, base, 8, 1),
            "all cells claimed by the scan"
        );
    }

    #[test]
    fn empty_bit_set_by_last_ticket() {
        let b = SbqBasket::new(2);
        let (heap, base) = setup(&b);
        let mut ctx = heap.ctx(0);
        assert!(!b.is_empty(&mut ctx, base));
        let _ = b.extract(&mut ctx, base, 0); // tickets 0 and 1 taken inside
        assert!(b.is_empty(&mut ctx, base), "last ticket sets the bit");
        // Post-empty inserts are lost to extractors but post-empty
        // extracts must fail:
        assert_eq!(b.extract(&mut ctx, base, 0), NULL_ELEM);
    }

    #[test]
    fn extract_skips_never_inserted_cells() {
        let b = SbqBasket::new(3);
        let (heap, base) = setup(&b);
        let mut ctx = heap.ctx(0);
        assert!(b.insert(&mut ctx, base, 99, 2)); // only cell 2 filled
        assert_eq!(b.extract(&mut ctx, base, 0), 99);
    }

    #[test]
    fn inserters_bound_limits_tickets() {
        let b = SbqBasket::with_inserters(8, 2);
        let (heap, base) = setup(&b);
        let mut ctx = heap.ctx(0);
        assert!(b.insert(&mut ctx, base, 5, 1));
        assert_eq!(b.extract(&mut ctx, base, 0), 5);
        // Both tickets are used up; cells 2..8 are never scanned.
        assert_eq!(b.extract(&mut ctx, base, 0), NULL_ELEM);
        assert!(b.is_empty(&mut ctx, base));
    }

    #[test]
    fn reset_single_restores_cell() {
        let b = SbqBasket::new(2);
        let (heap, base) = setup(&b);
        let mut ctx = heap.ctx(0);
        assert!(b.insert(&mut ctx, base, 6, 0));
        b.reset_single(&mut ctx, base, 0);
        assert!(b.insert(&mut ctx, base, 7, 0), "cell reusable after reset");
        assert_eq!(b.extract(&mut ctx, base, 0), 7);
    }

    #[test]
    fn concurrent_insert_extract_conserves_elements() {
        use absmem::native::run_threads;
        use absmem::ThreadCtx as _;
        let b = SbqBasket::new(8);
        let heap = Arc::new(NativeHeap::new());
        let base = {
            let mut ctx = heap.ctx(0);
            let base = ctx.alloc(b.words());
            b.init(&mut ctx, base);
            base
        };
        // 4 inserters (ids 0..4) + 4 extractors.
        let results = run_threads(&heap, 8, |ctx| {
            let tid = ctx.thread_id();
            if tid < 4 {
                let ok = b.insert(ctx, base, 100 + tid as u64, tid);
                (if ok { Some(100 + tid as u64) } else { None }, None)
            } else {
                let mut got = Vec::new();
                loop {
                    let e = b.extract(ctx, base, tid);
                    if e == NULL_ELEM {
                        break;
                    }
                    got.push(e);
                }
                (None, Some(got))
            }
        });
        let inserted: Vec<u64> = results.iter().filter_map(|(i, _)| *i).collect();
        let extracted: Vec<u64> = results
            .iter()
            .filter_map(|(_, g)| g.clone())
            .flatten()
            .collect();
        let mut ex = extracted.clone();
        ex.sort_unstable();
        ex.dedup();
        assert_eq!(ex.len(), extracted.len(), "no element extracted twice");
        for e in &extracted {
            assert!(inserted.contains(e), "extracted {e} was never inserted");
        }
    }
}
