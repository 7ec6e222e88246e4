//! The sector-MSHR file shared by the L1 and the L2 slice.
//!
//! Both caches track an in-flight miss the same way: a fixed array of
//! slots, a key → slot index so later misses to the same sector merge
//! into the outstanding one, and a LIFO free list. A slot's number
//! travels with the request it sends (the L1 puts it in
//! [`L2Request::l1_mshr`](crate::msg::L2Request::l1_mshr), the L2 in its
//! [`DramTag`](crate::mem_ctrl::DramTag)), so the response names the slot
//! it completes. Waiter lists of released slots are recycled: once every
//! slot has been used, a miss allocates nothing.

use crate::fxmap::FxHashMap;
use std::hash::Hash;

/// One occupied slot: the sector it tracks, the requesters waiting for
/// it in arrival order, and the owner's per-miss state `X`.
#[derive(Debug)]
pub(crate) struct Entry<K, W, X> {
    pub(crate) key: K,
    pub(crate) waiters: Vec<W>,
    pub(crate) extra: X,
}

/// A file of MSHR slots keyed by `K`, with waiters `W` and per-miss
/// state `X`.
#[derive(Debug)]
pub(crate) struct MshrFile<K, W, X> {
    slots: Vec<Option<Entry<K, W, X>>>,
    index: FxHashMap<K, usize>,
    /// Free slots; the next allocation takes the last one.
    free: Vec<usize>,
    /// Emptied waiter lists of released slots, reused by the next
    /// allocations.
    spare_waiters: Vec<Vec<W>>,
    /// Oracle counter: slots allocated (request conservation).
    #[cfg(feature = "check-invariants")]
    allocs: u64,
    /// Oracle counter: slots released (request conservation).
    #[cfg(feature = "check-invariants")]
    releases: u64,
}

impl<K: Copy + Eq + Hash, W, X> MshrFile<K, W, X> {
    /// A file of `n` free slots; slot 0 is allocated first.
    pub(crate) fn new(n: usize) -> Self {
        MshrFile {
            slots: (0..n).map(|_| None).collect(),
            index: FxHashMap::default(),
            free: (0..n).rev().collect(),
            spare_waiters: Vec::new(),
            #[cfg(feature = "check-invariants")]
            allocs: 0,
            #[cfg(feature = "check-invariants")]
            releases: 0,
        }
    }

    /// The slot the next [`insert`](Self::insert) takes, or `None` when
    /// every slot is outstanding.
    pub(crate) fn next_free(&self) -> Option<usize> {
        self.free.last().copied()
    }

    /// Allocates the slot [`next_free`](Self::next_free) names for `key`,
    /// with an empty (recycled) waiter list.
    ///
    /// # Panics
    ///
    /// Panics when no slot is free.
    // Invariant: callers insert only after `next_free` returned a slot.
    #[allow(clippy::expect_used)]
    pub(crate) fn insert(&mut self, key: K, extra: X) -> &mut Entry<K, W, X> {
        // lint: allow(panic-freedom) reason=callers insert only after next_free returned a slot, and nothing frees or takes one in between
        let slot = self.free.pop().expect("insert into a full MSHR file");
        #[cfg(feature = "check-invariants")]
        {
            self.allocs += 1;
        }
        self.index.insert(key, slot);
        let waiters = self.spare_waiters.pop().unwrap_or_default();
        self.slots[slot].insert(Entry {
            key,
            waiters,
            extra,
        })
    }

    /// The outstanding entry for `key`, to merge a later miss into.
    pub(crate) fn find_mut(&mut self, key: K) -> Option<&mut Entry<K, W, X>> {
        let &slot = self.index.get(&key)?;
        self.slots[slot].as_mut()
    }

    /// The entry in `slot`.
    ///
    /// # Panics
    ///
    /// Panics when `slot` is not occupied.
    // Invariant: a response names the slot its request was sent from.
    #[allow(clippy::expect_used)]
    pub(crate) fn get_mut(&mut self, slot: usize) -> &mut Entry<K, W, X> {
        // lint: allow(panic-freedom) reason=responses carry the slot their request was allocated; it stays occupied until that response releases it
        self.slots[slot].as_mut().expect("response for a free MSHR")
    }

    /// Frees `slot` and returns its entry. Hand the emptied waiter list
    /// back through [`recycle`](Self::recycle).
    ///
    /// # Panics
    ///
    /// Panics when `slot` is not occupied.
    // Invariant: a response names the slot its request was sent from.
    #[allow(clippy::expect_used)]
    pub(crate) fn release(&mut self, slot: usize) -> Entry<K, W, X> {
        // lint: allow(panic-freedom) reason=responses carry the slot their request was allocated; it stays occupied until that response releases it
        let entry = self.slots[slot].take().expect("release of a free MSHR");
        self.index.remove(&entry.key);
        self.free.push(slot);
        #[cfg(feature = "check-invariants")]
        {
            self.releases += 1;
        }
        entry
    }

    /// Returns a released entry's waiter list for reuse.
    pub(crate) fn recycle(&mut self, mut waiters: Vec<W>) {
        waiters.clear();
        self.spare_waiters.push(waiters);
    }

    /// Outstanding slots.
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` when no miss is outstanding.
    pub(crate) fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The outstanding entries, in slot order.
    #[cfg(feature = "check-invariants")]
    pub(crate) fn entries(&self) -> impl Iterator<Item = &Entry<K, W, X>> {
        self.slots.iter().flatten()
    }

    /// Structural coherence and conservation of the file, checked once
    /// per cycle by the oracle; `owner` names the cache in the message.
    ///
    /// # Panics
    ///
    /// Panics on a leaked slot, a dangling or mismatched index entry, or
    /// allocations that are neither released nor outstanding.
    #[cfg(feature = "check-invariants")]
    pub(crate) fn assert_coherent(&self, owner: impl std::fmt::Display)
    where
        K: std::fmt::Debug,
    {
        assert_eq!(
            self.free.len() + self.index.len(),
            self.slots.len(),
            "invariant violated: {owner} MSHR leak (free + indexed != total)"
        );
        for (&key, &slot) in &self.index {
            match self.slots[slot].as_ref() {
                Some(e) => assert_eq!(
                    e.key, key,
                    "invariant violated: {owner} MSHR index key mismatch at slot {slot}"
                ),
                None => panic!(
                    "invariant violated: {owner} MSHR index maps {key:?} to empty slot {slot}"
                ),
            }
        }
        assert_eq!(
            self.allocs,
            self.releases + self.index.len() as u64,
            "invariant violated: {owner} request conservation \
             (MSHRs allocated != released + outstanding)"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Random allocate / merge / release sequences against a plain model:
    /// one `Option<(key, waiters)>` per slot and a LIFO free stack.
    #[test]
    fn matches_vec_model_and_recycles_waiter_lists() {
        const SLOTS: usize = 6;
        let mut rng = SmallRng::seed_from_u64(0x35A8);
        for case in 0..64 {
            let mut file: MshrFile<u64, u32, u8> = MshrFile::new(SLOTS);
            let mut model: Vec<Option<(u64, Vec<u32>)>> = vec![None; SLOTS];
            let mut model_free: Vec<usize> = (0..SLOTS).rev().collect();
            let mut lists_made = 0;
            let mut next_waiter = 0u32;
            for step in 0..400 {
                let ctx = format!("case {case} step {step}");
                let key = rng.gen_range(0..10u64);
                let held = model
                    .iter()
                    .position(|s| s.as_ref().is_some_and(|m| m.0 == key));
                assert_eq!(file.next_free(), model_free.last().copied(), "{ctx}");
                match (rng.gen_range(0..3), held) {
                    (0 | 1, Some(slot)) => {
                        let e = file.find_mut(key).expect("merge target");
                        e.waiters.push(next_waiter);
                        assert_eq!(e.extra, slot as u8, "{ctx}: wrong entry for {key}");
                        model[slot].as_mut().unwrap().1.push(next_waiter);
                    }
                    (0 | 1, None) => {
                        let Some(slot) = model_free.pop() else {
                            continue;
                        };
                        if file.spare_waiters.is_empty() {
                            lists_made += 1;
                        }
                        let e = file.insert(key, slot as u8);
                        assert!(e.waiters.is_empty(), "{ctx}: recycled list not empty");
                        e.waiters.push(next_waiter);
                        model[slot] = Some((key, vec![next_waiter]));
                    }
                    _ => {
                        let busy: Vec<usize> = (0..SLOTS).filter(|&s| model[s].is_some()).collect();
                        if busy.is_empty() {
                            assert!(file.is_empty(), "{ctx}");
                            continue;
                        }
                        let slot = busy[rng.gen_range(0..busy.len())];
                        let (mkey, mwaiters) = model[slot].take().unwrap();
                        let e = file.release(slot);
                        assert_eq!((e.key, e.extra), (mkey, slot as u8), "{ctx}");
                        assert_eq!(e.waiters, mwaiters, "{ctx}: waiter order");
                        assert!(file.find_mut(mkey).is_none(), "{ctx}: released key found");
                        file.recycle(e.waiters);
                        model_free.push(slot);
                    }
                }
                next_waiter += 1;
                assert_eq!(file.len(), SLOTS - model_free.len(), "{ctx}");
                for (slot, m) in model.iter().enumerate() {
                    if let Some((key, waiters)) = m {
                        let e = file.get_mut(slot);
                        assert_eq!((&e.key, &e.waiters), (key, waiters), "{ctx}: slot {slot}");
                    } else {
                        assert!(
                            file.slots[slot].is_none(),
                            "{ctx}: slot {slot} should be free"
                        );
                    }
                }
                assert!(
                    lists_made <= SLOTS,
                    "{ctx}: {lists_made} waiter lists made for {SLOTS} slots"
                );
                #[cfg(feature = "check-invariants")]
                file.assert_coherent(format_args!("case {case}"));
            }
            assert_eq!(lists_made, SLOTS, "case {case}: every slot must be used");
        }
    }

    #[test]
    #[should_panic(expected = "response for a free MSHR")]
    fn get_mut_on_a_free_slot_panics() {
        let mut file: MshrFile<u64, u32, ()> = MshrFile::new(4);
        let slot = file.next_free().expect("a free slot");
        file.insert(7, ());
        file.release(slot);
        let _ = file.get_mut(slot);
    }

    #[cfg(feature = "check-invariants")]
    #[test]
    #[should_panic(expected = "MSHR leak")]
    fn leaked_slot_trips_coherence_check() {
        let mut file: MshrFile<u64, u32, ()> = MshrFile::new(4);
        file.insert(7, ()).waiters.push(1);
        file.assert_coherent("test L1");
        // A slot taken off the free list but never indexed is leaked.
        file.free.pop();
        file.assert_coherent("test L1");
    }
}
