//! The cycle loop's wake calendar: which SMs and L2 slices tick this
//! cycle, and when each sleeper wakes.
//!
//! A component that cannot act until some future cycle (its sleep memo)
//! leaves the awake set, so the loop neither ticks nor polls it. It
//! rejoins at its memo wake, found by a min-scan over the sleepers on the
//! cycles a timer is due, or earlier when the loop wakes it (a crossbar
//! delivery, an end-of-kernel flush). The awake set iterates in ascending
//! index, the order the loop always ticked components in.
//!
//! Skipped ticks are not counted one by one: each component remembers the
//! first cycle it has not yet accounted for, and the loop settles the
//! span in bulk when the component next ticks, before a telemetry
//! snapshot, and when the run ends.

use crate::types::Cycle;

/// A set of component indices, iterated in ascending order.
#[derive(Debug)]
pub(crate) struct IndexSet {
    words: Vec<u64>,
}

impl IndexSet {
    /// An empty set over `0..n`.
    pub(crate) fn new(n: usize) -> Self {
        IndexSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Adds `i`.
    pub(crate) fn insert(&mut self, i: usize) {
        if let Some(w) = self.words.get_mut(i / 64) {
            *w |= 1 << (i % 64);
        }
    }

    /// Removes `i`.
    pub(crate) fn remove(&mut self, i: usize) {
        if let Some(w) = self.words.get_mut(i / 64) {
            *w &= !(1 << (i % 64));
        }
    }

    /// `true` when `i` is a member.
    pub(crate) fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    /// `true` when the set has no member.
    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The smallest member `>= i`. Iterating with `next_from(i + 1)` sees
    /// removals made along the way.
    pub(crate) fn next_from(&self, i: usize) -> Option<usize> {
        let mut w = i / 64;
        let mut bits = self.words.get(w)? & (!0u64 << (i % 64));
        loop {
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
            w += 1;
            bits = *self.words.get(w)?;
        }
    }
}

/// Awake set, memo wakes and unsettled spans of one kind of component.
#[derive(Debug)]
pub(crate) struct Calendar {
    awake: IndexSet,
    /// Each sleeper's memo wake (`Cycle::MAX`: only the loop wakes it).
    wake: Vec<Cycle>,
    /// The first cycle whose tick each component has neither run nor
    /// accounted for.
    settled: Vec<Cycle>,
    /// No sleeper's memo wake is earlier than this (exact after a scan).
    timer: Cycle,
}

impl Calendar {
    /// `n` components, all awake.
    pub(crate) fn new(n: usize) -> Self {
        let mut awake = IndexSet::new(n);
        for i in 0..n {
            awake.insert(i);
        }
        Calendar {
            awake,
            wake: vec![0; n],
            settled: vec![0; n],
            timer: Cycle::MAX,
        }
    }

    /// `true` when component `i` ticks this cycle.
    pub(crate) fn is_awake(&self, i: usize) -> bool {
        self.awake.contains(i)
    }

    /// `true` when every component sleeps.
    pub(crate) fn all_asleep(&self) -> bool {
        self.awake.is_empty()
    }

    /// The smallest awake index `>= i`.
    pub(crate) fn next_awake(&self, i: usize) -> Option<usize> {
        self.awake.next_from(i)
    }

    /// Component `i` cannot act before `wake` (`Cycle::MAX`: before the
    /// loop wakes it).
    pub(crate) fn sleep(&mut self, i: usize, wake: Cycle) {
        self.awake.remove(i);
        if let Some(w) = self.wake.get_mut(i) {
            *w = wake;
        }
        self.timer = self.timer.min(wake);
    }

    /// Component `i` ticks from the next visit of the loop on.
    pub(crate) fn wake_up(&mut self, i: usize) {
        self.awake.insert(i);
    }

    /// Every component ticks from the next visit of the loop on.
    pub(crate) fn wake_all(&mut self) {
        for i in 0..self.wake.len() {
            self.awake.insert(i);
        }
    }

    /// Wakes every sleeper whose memo wake is `now` or earlier. Scans
    /// the sleepers only on cycles a timer is due.
    pub(crate) fn fire(&mut self, now: Cycle) {
        if now >= self.timer {
            self.rescan(now);
        }
    }

    /// The earliest memo wake among the sleepers, exactly.
    pub(crate) fn next_timer(&mut self) -> Option<Cycle> {
        self.rescan(0);
        (self.timer != Cycle::MAX).then_some(self.timer)
    }

    /// Wakes the sleepers due at `now` and recomputes the timer over the
    /// rest.
    fn rescan(&mut self, now: Cycle) {
        let mut timer = Cycle::MAX;
        for (i, &wake) in self.wake.iter().enumerate() {
            if self.awake.contains(i) {
                continue;
            }
            if wake <= now {
                self.awake.insert(i);
            } else {
                timer = timer.min(wake);
            }
        }
        self.timer = timer;
    }

    /// Component `i` ticks at `now`: returns how many earlier ticks it
    /// skipped since it last ticked or settled.
    pub(crate) fn ticked(&mut self, i: usize, now: Cycle) -> u64 {
        let skipped = self.settle(i, now);
        if let Some(s) = self.settled.get_mut(i) {
            *s = now + 1;
        }
        skipped
    }

    /// Marks component `i`'s ticks before `upto` as accounted for and
    /// returns how many of them it skipped and has not yet accounted.
    pub(crate) fn settle(&mut self, i: usize, upto: Cycle) -> u64 {
        match self.settled.get_mut(i) {
            Some(s) if *s < upto => {
                let skipped = upto - *s;
                *s = upto;
                skipped
            }
            _ => 0,
        }
    }

    /// Oracle build: every sleeper is asleep until a wake later than
    /// `now` that the timer still covers; returns its memo wake.
    ///
    /// # Panics
    ///
    /// Panics when the calendar would skip a component past its wake.
    #[cfg(feature = "check-invariants")]
    pub(crate) fn assert_sleeper(&self, what: &str, i: usize, now: Cycle) -> Cycle {
        let wake = self.wake.get(i).copied().unwrap_or(0);
        assert!(
            wake > now && self.timer <= wake,
            "invariant violated: {what} {i} sleeps in the calendar until \
             {wake} with the timer at {} (cycle {now})",
            self.timer
        );
        wake
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_set_iterates_in_ascending_order_across_words() {
        let mut s = IndexSet::new(130);
        for i in [129, 3, 64, 0, 70] {
            s.insert(i);
        }
        s.remove(70);
        let mut got = Vec::new();
        let mut next = s.next_from(0);
        while let Some(i) = next {
            got.push(i);
            next = s.next_from(i + 1);
        }
        assert_eq!(got, vec![0, 3, 64, 129]);
        assert!(s.contains(64) && !s.contains(70));
        assert_eq!(s.next_from(130), None);
    }

    #[test]
    fn sleepers_wake_at_their_memo_and_settle_their_span() {
        let mut c = Calendar::new(3);
        assert_eq!(c.ticked(1, 0), 0);
        c.sleep(1, 10);
        c.sleep(2, Cycle::MAX);
        assert_eq!(c.next_awake(1), None);
        assert_eq!(c.next_timer(), Some(10));
        c.fire(9);
        assert!(!c.is_awake(1));
        c.fire(10);
        assert!(c.is_awake(1) && !c.is_awake(2));
        // Cycles 1..=9 were skipped; the tick at 10 runs.
        assert_eq!(c.ticked(1, 10), 9);
        assert_eq!(c.next_timer(), None);
        // A settle before a snapshot moves the mark; the next tick
        // counts only what is left.
        assert_eq!(c.settle(2, 5), 5);
        c.wake_up(2);
        assert_eq!(c.ticked(2, 8), 3);
        c.sleep(0, 4);
        c.sleep(1, 20);
        c.sleep(2, 30);
        assert!(c.all_asleep());
        c.wake_all();
        assert_eq!(c.next_awake(0), Some(0));
    }
}
