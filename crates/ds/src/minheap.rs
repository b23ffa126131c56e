//! An indexed binary min-heap keyed by `u64` scores over `u32` element ids.
//!
//! NE/NE++ (paper §4.1) keep the secondary-set vertices in a min-heap ordered
//! by external degree, with a lookup table from vertex id to heap slot so that
//! `decrease_key`/`update` run in `O(log |V|)` when a neighbour joins the
//! secondary set. Ties are broken by element id, which makes the expansion
//! deterministic and reproducible across runs.
//!
//! The lookup table can be lent by the caller ([`IndexedMinHeap::with_positions`]):
//! NE++ lends its degree table, whose low-degree entries are redundant with
//! the CSR's segment lengths while it runs, so the heap adds no `|V|`-sized
//! array of its own.

/// Position-table value of an id that is not in the heap.
pub const NOT_IN_HEAP: u32 = u32::MAX;

/// Binary min-heap over `(key, id)` pairs with `O(1)` id lookup.
#[derive(Clone, Debug)]
pub struct IndexedMinHeap {
    /// Heap slots: `(key, id)` ordered as a binary min-heap on `(key, id)`.
    slots: Vec<(u64, u32)>,
    /// `pos[id]` = slot index of `id`, or `NOT_IN_HEAP`.
    pos: Vec<u32>,
}

impl IndexedMinHeap {
    /// Creates a heap able to hold ids `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        Self::with_positions(vec![NOT_IN_HEAP; capacity])
    }

    /// Creates an empty heap over a caller-provided position table for ids
    /// `0..positions.len()`. Every id the caller will pass to the heap must
    /// hold [`NOT_IN_HEAP`]; the entries of other ids may hold
    /// anything, are never written, and come back unchanged from
    /// [`Self::into_positions`]. Such an id must never be passed to any
    /// method: its entry would be read as a slot index.
    pub fn with_positions(positions: Vec<u32>) -> Self {
        IndexedMinHeap { slots: Vec::new(), pos: positions }
    }

    /// Empties the heap and returns its position table: ids that were
    /// passed to the heap hold [`NOT_IN_HEAP`] again, every other
    /// entry is as [`Self::with_positions`] received it.
    pub fn into_positions(mut self) -> Vec<u32> {
        self.clear();
        self.pos
    }

    /// Number of elements currently in the heap.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the heap holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Heap bytes of the backing storage, the position table included (for
    /// memory accounting).
    pub fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<(u64, u32)>() + self.pos.capacity() * 4
    }

    /// Whether `id` is present.
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        debug_assert!((id as usize) < self.pos.len(), "id {id} beyond heap capacity");
        self.pos[id as usize] != NOT_IN_HEAP
    }

    /// Inserts `id` with `key`. Panics if `id` is already present.
    pub fn insert(&mut self, id: u32, key: u64) {
        debug_assert!((id as usize) < self.pos.len(), "id {id} beyond heap capacity");
        assert!(!self.contains(id), "id {id} already in heap");
        let slot = self.slots.len();
        self.slots.push((key, id));
        self.pos[id as usize] = slot as u32;
        self.sift_up(slot);
    }

    /// Updates the key of `id` (up or down), inserting it if absent.
    pub fn update(&mut self, id: u32, key: u64) {
        debug_assert!((id as usize) < self.pos.len(), "id {id} beyond heap capacity");
        let p = self.pos[id as usize];
        if p == NOT_IN_HEAP {
            self.insert(id, key);
            return;
        }
        let p = p as usize;
        let old = self.slots[p].0;
        self.slots[p].0 = key;
        if key < old {
            self.sift_up(p);
        } else if key > old {
            self.sift_down(p);
        }
    }

    /// Decreases the key of `id` by `delta`, saturating at zero.
    /// No-op when `id` is absent.
    pub fn decrease_key_by(&mut self, id: u32, delta: u64) {
        debug_assert!((id as usize) < self.pos.len(), "id {id} beyond heap capacity");
        let p = self.pos[id as usize];
        if p == NOT_IN_HEAP {
            return;
        }
        let p = p as usize;
        self.slots[p].0 = self.slots[p].0.saturating_sub(delta);
        self.sift_up(p);
    }

    /// Removes and returns the `(key, id)` pair with the smallest key
    /// (ties broken by smallest id).
    pub fn pop_min(&mut self) -> Option<(u64, u32)> {
        if self.slots.is_empty() {
            return None;
        }
        let min = self.slots[0];
        self.pos[min.1 as usize] = NOT_IN_HEAP;
        #[expect(
            clippy::expect_used,
            reason = "non-empty: the is_empty early-return is three lines up"
        )]
        let last = self.slots.pop().expect("non-empty");
        if !self.slots.is_empty() {
            self.slots[0] = last;
            self.pos[last.1 as usize] = 0;
            self.sift_down(0);
        }
        Some(min)
    }

    /// Removes `id` from the heap if present; returns its key.
    pub fn remove(&mut self, id: u32) -> Option<u64> {
        debug_assert!((id as usize) < self.pos.len(), "id {id} beyond heap capacity");
        let p = self.pos[id as usize];
        if p == NOT_IN_HEAP {
            return None;
        }
        let p = p as usize;
        let key = self.slots[p].0;
        self.pos[id as usize] = NOT_IN_HEAP;
        #[expect(
            clippy::expect_used,
            reason = "non-empty: pos[id] != NOT_IN_HEAP proves id occupies a slot"
        )]
        let last = self.slots.pop().expect("non-empty");
        if p < self.slots.len() {
            self.slots[p] = last;
            self.pos[last.1 as usize] = p as u32;
            // The replacement may need to travel either direction.
            self.sift_up(p);
            let p = self.pos[last.1 as usize] as usize;
            self.sift_down(p);
        }
        Some(key)
    }

    /// Removes all elements, keeping the id capacity.
    pub fn clear(&mut self) {
        for &(_, id) in &self.slots {
            self.pos[id as usize] = NOT_IN_HEAP;
        }
        self.slots.clear();
    }

    #[inline]
    fn less(a: (u64, u32), b: (u64, u32)) -> bool {
        a < b // lexicographic on (key, id): deterministic tie-break
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if Self::less(self.slots[i], self.slots[parent]) {
                self.swap_slots(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.slots.len();
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            let smallest_child =
                if r < n && Self::less(self.slots[r], self.slots[l]) { r } else { l };
            if Self::less(self.slots[smallest_child], self.slots[i]) {
                self.swap_slots(i, smallest_child);
                i = smallest_child;
            } else {
                break;
            }
        }
    }

    #[inline]
    fn swap_slots(&mut self, a: usize, b: usize) {
        self.slots.swap(a, b);
        self.pos[self.slots[a].1 as usize] = a as u32;
        self.pos[self.slots[b].1 as usize] = b as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn pop_returns_sorted_order() {
        let mut h = IndexedMinHeap::new(10);
        for (id, key) in [(3u32, 7u64), (1, 2), (9, 0), (4, 7), (0, 100)] {
            h.insert(id, key);
        }
        let mut out = Vec::new();
        while let Some((k, id)) = h.pop_min() {
            out.push((k, id));
        }
        assert_eq!(out, vec![(0, 9), (2, 1), (7, 3), (7, 4), (100, 0)]);
    }

    #[test]
    fn ties_break_by_id() {
        let mut h = IndexedMinHeap::new(5);
        h.insert(4, 1);
        h.insert(2, 1);
        h.insert(3, 1);
        assert_eq!(h.pop_min(), Some((1, 2)));
        assert_eq!(h.pop_min(), Some((1, 3)));
        assert_eq!(h.pop_min(), Some((1, 4)));
    }

    #[test]
    fn decrease_key_reorders() {
        let mut h = IndexedMinHeap::new(4);
        h.insert(0, 10);
        h.insert(1, 5);
        h.decrease_key_by(0, 7);
        assert_eq!(h.pop_min(), Some((3, 0)));
        assert_eq!(h.pop_min(), Some((5, 1)));
    }

    #[test]
    fn decrease_key_saturates_and_ignores_absent() {
        let mut h = IndexedMinHeap::new(4);
        h.insert(1, 3);
        h.decrease_key_by(1, 100);
        h.decrease_key_by(2, 5); // absent: no-op
        assert_eq!(h.pop_min(), Some((0, 1)));
        assert!(h.is_empty());
    }

    #[test]
    fn update_moves_both_directions() {
        let mut h = IndexedMinHeap::new(4);
        h.insert(0, 5);
        h.insert(1, 6);
        // The root slot holds the minimum.
        h.update(0, 10); // now 1 is min
        assert_eq!(h.slots[0], (6, 1));
        h.update(0, 1); // now 0 is min
        assert_eq!(h.slots[0], (1, 0));
        h.update(3, 0); // insert via update
        assert_eq!(h.slots[0], (0, 3));
    }

    #[test]
    fn remove_middle_keeps_heap_valid() {
        let mut h = IndexedMinHeap::new(16);
        for id in 0..16u32 {
            h.insert(id, (id as u64 * 7) % 13);
        }
        assert_eq!(h.remove(5), Some((5 * 7) % 13));
        assert_eq!(h.remove(5), None);
        let mut prev = 0;
        let mut n = 0;
        while let Some((k, _)) = h.pop_min() {
            assert!(k >= prev);
            prev = k;
            n += 1;
        }
        assert_eq!(n, 15);
    }

    #[test]
    fn clear_resets_membership() {
        let mut h = IndexedMinHeap::new(4);
        h.insert(2, 9);
        h.clear();
        assert!(!h.contains(2));
        assert!(h.is_empty());
        h.insert(2, 1); // must not panic after clear
        assert_eq!(h.len(), 1);
    }

    #[derive(Clone, Debug)]
    enum Op {
        Insert(u32, u64),
        Update(u32, u64),
        DecreaseBy(u32, u64),
        Remove(u32),
        PopMin,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u32..64, 0u64..1000).prop_map(|(i, k)| Op::Insert(i, k)),
            (0u32..64, 0u64..1000).prop_map(|(i, k)| Op::Update(i, k)),
            (0u32..64, 0u64..50).prop_map(|(i, d)| Op::DecreaseBy(i, d)),
            (0u32..64).prop_map(Op::Remove),
            Just(Op::PopMin),
        ]
    }

    /// Applies `ops` to `h` and to a `BTreeMap` reference model, asserting
    /// they agree after every operation.
    fn check_against_model(h: &mut IndexedMinHeap, ops: Vec<Op>) {
        let mut model: BTreeMap<u32, u64> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert(id, k) => {
                    if let std::collections::btree_map::Entry::Vacant(slot) = model.entry(id) {
                        h.insert(id, k);
                        slot.insert(k);
                    }
                }
                Op::Update(id, k) => {
                    h.update(id, k);
                    model.insert(id, k);
                }
                Op::DecreaseBy(id, d) => {
                    h.decrease_key_by(id, d);
                    if let Some(v) = model.get_mut(&id) {
                        *v = v.saturating_sub(d);
                    }
                }
                Op::Remove(id) => {
                    prop_assert_eq!(h.remove(id), model.remove(&id));
                }
                Op::PopMin => {
                    let expect = model.iter().map(|(&id, &k)| (k, id)).min();
                    let got = h.pop_min();
                    prop_assert_eq!(got, expect);
                    if let Some((_, id)) = got {
                        model.remove(&id);
                    }
                }
            }
            prop_assert_eq!(h.len(), model.len());
        }
    }

    proptest! {
        /// The heap must agree with a BTreeMap-based reference model under
        /// arbitrary interleavings of all operations.
        #[test]
        fn behaves_like_model(ops in proptest::collection::vec(op_strategy(), 0..300)) {
            check_against_model(&mut IndexedMinHeap::new(64), ops);
        }

        /// The same over a lent position table whose never-inserted ids
        /// 64..128 hold arbitrary non-sentinel values: the heap neither
        /// reads nor writes them, and `into_positions` returns them as lent.
        #[test]
        fn lent_table_behaves_like_model(
            ops in proptest::collection::vec(op_strategy(), 0..300),
            foreign in proptest::collection::vec(0u32..u32::MAX, 64..65),
        ) {
            let mut table = vec![NOT_IN_HEAP; 64];
            table.extend_from_slice(&foreign);
            let mut h = IndexedMinHeap::with_positions(table);
            check_against_model(&mut h, ops);
            let back = h.into_positions();
            prop_assert!(back[..64].iter().all(|&p| p == NOT_IN_HEAP));
            prop_assert_eq!(&back[64..], &foreign[..]);
        }
    }
}
