//! Per-SM L1 data cache.
//!
//! Models the GPU L1 policy: sectored, **write-through, write-no-allocate**
//! (stores always forward to L2; they update a resident sector but never
//! allocate), read-allocate with sector-granularity MSHRs. L1 is indexed by
//! *logical* atoms — address translation to the physical (ECC-carved) space
//! happens at the L1↔L2 boundary via the protection scheme's map, mirroring
//! where real GPUs apply the inline-ECC address swizzle.

use crate::cache::{LookupResult, SectorCache};
use crate::config::CacheConfig;
use crate::msg::{L2Request, L2Response, NO_L1_MSHR};
use crate::mshr::MshrFile;
use crate::types::{AccessKind, Cycle, LogicalAtom, SmId, WarpIdx, ATOMS_PER_LINE};
use std::collections::VecDeque;

/// One access handed from the SM's load/store unit to the L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1Access {
    /// Issuing warp (for load completion notification).
    pub warp: WarpIdx,
    /// Target atom (logical space).
    pub atom: LogicalAtom,
    /// Read or write.
    pub kind: AccessKind,
}

/// Per-L1 statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct L1Stats {
    /// Load hits.
    pub read_hits: u64,
    /// Load misses sent to L2.
    pub read_misses: u64,
    /// Stores forwarded (write-through).
    pub writes: u64,
}

/// The L1 cache pipeline.
#[derive(Debug)]
pub struct L1Cache {
    sm: SmId,
    cache: SectorCache,
    latency: u32,
    in_q: VecDeque<L1Access>,
    in_cap: usize,
    /// Loads that hit, waiting out the hit latency: `(ready, warp)`.
    hit_q: VecDeque<(Cycle, WarpIdx)>,
    /// Outstanding read misses by atom; the waiters are the warps to
    /// notify on fill.
    mshrs: MshrFile<LogicalAtom, WarpIdx, ()>,
    /// Completed load notifications for the SM: one entry per finished
    /// access, identifying the warp.
    completions: Vec<WarpIdx>,
    /// The last tick stalled its head read for lack of a free MSHR. Until
    /// a response frees one, the head can only stall again, so the
    /// pipeline has no event of its own (see
    /// [`next_event`](Self::next_event)).
    mshr_blocked: bool,
    stats: L1Stats,
}

impl L1Cache {
    /// Builds the L1 for one SM.
    pub fn new(sm: SmId, cfg: &CacheConfig) -> Self {
        L1Cache {
            sm,
            cache: SectorCache::new(cfg.sets(), cfg.ways, ATOMS_PER_LINE),
            latency: cfg.latency,
            in_q: VecDeque::with_capacity(cfg.input_queue),
            in_cap: cfg.input_queue,
            hit_q: VecDeque::new(),
            mshrs: MshrFile::new(cfg.mshrs),
            completions: Vec::new(),
            mshr_blocked: false,
            stats: L1Stats::default(),
        }
    }

    /// `true` when the LSU can hand over another access.
    pub fn can_accept(&self) -> bool {
        self.in_q.len() < self.in_cap
    }

    /// Enqueues an access from the SM.
    ///
    /// # Panics
    ///
    /// Panics when the input queue is full (check
    /// [`can_accept`](Self::can_accept)).
    pub fn push(&mut self, access: L1Access) {
        assert!(self.can_accept(), "L1 input queue overflow");
        self.in_q.push_back(access);
    }

    /// Accepts a fill response from the L2 (via the crossbar).
    pub fn accept_response(&mut self, resp: L2Response) {
        debug_assert_eq!(resp.dest, self.sm);
        let mut m = self.mshrs.release(resp.l1_mshr as usize);
        self.mshr_blocked = false;
        // Install; L1 lines are never dirty (write-through), so evictions
        // are silent.
        let _ = self.cache.fill(m.key.0, false);
        self.completions.append(&mut m.waiters);
        self.mshrs.recycle(m.waiters);
    }

    /// Advances the pipeline one cycle. `send` forwards a request toward
    /// the L2 (returns `false` on backpressure); `map` is the protection
    /// scheme's logical→physical translation.
    pub fn tick(
        &mut self,
        now: Cycle,
        map: &mut dyn FnMut(LogicalAtom) -> crate::types::PhysLoc,
        send: &mut dyn FnMut(L2Request) -> bool,
    ) {
        // Release matured hits.
        while let Some(&(ready, warp)) = self.hit_q.front() {
            if ready <= now {
                self.completions.push(warp);
                self.hit_q.pop_front();
            } else {
                break;
            }
        }
        // Process the input queue (one access per cycle — the LSU rate).
        // A head read still blocked on MSHRs (no response has freed one
        // since it stalled) stalls again without the lookup, which would
        // only re-touch its own line (see `next_event`).
        if self.mshr_blocked {
            return;
        }
        if let Some(&access) = self.in_q.front() {
            match access.kind {
                AccessKind::Read => match self.cache.lookup_read(access.atom.0) {
                    LookupResult::Hit => {
                        self.stats.read_hits += 1;
                        self.hit_q
                            .push_back((now + self.latency as Cycle, access.warp));
                        self.in_q.pop_front();
                    }
                    LookupResult::SectorMiss | LookupResult::LineMiss => {
                        if let Some(m) = self.mshrs.find_mut(access.atom) {
                            m.waiters.push(access.warp);
                            self.stats.read_misses += 1;
                            self.in_q.pop_front();
                        } else if let Some(free) = self.mshrs.next_free() {
                            let req = L2Request {
                                loc: map(access.atom),
                                kind: AccessKind::Read,
                                src: self.sm,
                                l1_mshr: free as u32,
                            };
                            if send(req) {
                                self.mshrs.insert(access.atom, ()).waiters.push(access.warp);
                                self.stats.read_misses += 1;
                                self.in_q.pop_front();
                            }
                        } else {
                            self.mshr_blocked = true;
                        }
                    }
                },
                AccessKind::Write { .. } => {
                    // Write-through: update a resident sector, forward
                    // regardless, never allocate.
                    let req = L2Request {
                        loc: map(access.atom),
                        kind: access.kind,
                        src: self.sm,
                        l1_mshr: NO_L1_MSHR,
                    };
                    if send(req) {
                        if self.cache.probe(access.atom.0) {
                            // Keep the L1 copy coherent (timing model: just
                            // refresh LRU; write-through keeps it clean in
                            // L1 while L2 holds the dirty state).
                            let _ = self.cache.lookup_read(access.atom.0);
                        }
                        self.stats.writes += 1;
                        self.in_q.pop_front();
                    }
                }
            }
        }
    }

    /// Drains the load-completion notifications accumulated so far in
    /// place, keeping the buffer's capacity for the next cycle.
    pub fn drain_completions(&mut self) -> std::vec::Drain<'_, WarpIdx> {
        self.completions.drain(..)
    }

    /// Earliest cycle at which this L1 has (or may have) work, for idle
    /// fast-forwarding. `Some(c <= now)` means busy this cycle; a future
    /// cycle is the next matured hit. Outstanding MSHRs carry no event of
    /// their own — their wakeup is the L2/crossbar response that feeds
    /// [`accept_response`](Self::accept_response). Neither does an input
    /// queue whose head read last stalled for lack of an MSHR: only a
    /// response frees one. Until then each tick skips the lookup, which
    /// would re-touch only the head's own line — no other line of this L1
    /// is touched before the response, so the LRU order is the same
    /// either way — and move the cache's own miss counter, which the L1
    /// never reports.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if (!self.in_q.is_empty() && !self.mshr_blocked) || !self.completions.is_empty() {
            return Some(now);
        }
        self.hit_q.front().map(|&(ready, _)| ready)
    }

    /// `true` when no work remains in the L1.
    pub fn is_idle(&self) -> bool {
        self.in_q.is_empty()
            && self.hit_q.is_empty()
            && self.mshrs.is_empty()
            && self.completions.is_empty()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> L1Stats {
        self.stats
    }

    /// Structural coherence and request conservation for the MSHR file
    /// and input queue, checked once per cycle by the oracle.
    ///
    /// # Panics
    ///
    /// Panics on an over-capacity queue, or on an MSHR leak, a dangling
    /// index entry or a request neither answered nor outstanding.
    #[cfg(feature = "check-invariants")]
    pub fn assert_coherent(&self) {
        assert!(
            self.in_q.len() <= self.in_cap,
            "invariant violated: L1 input queue over capacity"
        );
        self.mshrs
            .assert_coherent(format_args!("L1 of SM {}", self.sm.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use crate::types::PhysLoc;

    fn l1() -> L1Cache {
        L1Cache::new(SmId(0), &GpuConfig::tiny().l1)
    }

    fn identity_map(atom: LogicalAtom) -> PhysLoc {
        PhysLoc::new(0, atom.0)
    }

    fn completions(l1: &mut L1Cache) -> Vec<WarpIdx> {
        l1.drain_completions().collect()
    }

    #[test]
    fn miss_forwards_and_fill_completes_waiters() {
        let mut l1 = l1();
        let mut sent = Vec::new();
        l1.push(L1Access {
            warp: 3,
            atom: LogicalAtom(5),
            kind: AccessKind::Read,
        });
        l1.tick(0, &mut identity_map, &mut |r| {
            sent.push(r);
            true
        });
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].loc, PhysLoc::new(0, 5));
        assert!(completions(&mut l1).is_empty());
        // Fill arrives.
        l1.accept_response(L2Response {
            loc: sent[0].loc,
            dest: SmId(0),
            l1_mshr: sent[0].l1_mshr,
        });
        assert_eq!(completions(&mut l1), vec![3]);
        assert_eq!(l1.stats().read_misses, 1);
    }

    #[test]
    fn hit_after_fill_respects_latency() {
        let mut l1 = l1();
        let mut send_ok = |_: L2Request| true;
        l1.push(L1Access {
            warp: 0,
            atom: LogicalAtom(5),
            kind: AccessKind::Read,
        });
        let mut sent = None;
        l1.tick(0, &mut identity_map, &mut |r| {
            sent = Some(r);
            true
        });
        l1.accept_response(L2Response {
            loc: sent.unwrap().loc,
            dest: SmId(0),
            l1_mshr: sent.unwrap().l1_mshr,
        });
        let _ = completions(&mut l1);
        // Now a hit: tiny L1 latency is 4.
        l1.push(L1Access {
            warp: 1,
            atom: LogicalAtom(5),
            kind: AccessKind::Read,
        });
        l1.tick(10, &mut identity_map, &mut send_ok);
        assert!(completions(&mut l1).is_empty());
        l1.tick(13, &mut identity_map, &mut send_ok);
        assert!(completions(&mut l1).is_empty());
        l1.tick(14, &mut identity_map, &mut send_ok);
        assert_eq!(completions(&mut l1), vec![1]);
        assert_eq!(l1.stats().read_hits, 1);
    }

    #[test]
    fn merged_misses_share_one_request() {
        let mut l1 = l1();
        let mut count = 0;
        let mut last = None;
        for warp in 0..3 {
            l1.push(L1Access {
                warp,
                atom: LogicalAtom(9),
                kind: AccessKind::Read,
            });
        }
        for now in 0..3 {
            l1.tick(now, &mut identity_map, &mut |r| {
                count += 1;
                last = Some(r);
                true
            });
        }
        assert_eq!(count, 1, "merged misses must send a single L2 request");
        l1.accept_response(L2Response {
            loc: last.unwrap().loc,
            dest: SmId(0),
            l1_mshr: last.unwrap().l1_mshr,
        });
        let mut done = completions(&mut l1);
        done.sort_unstable();
        assert_eq!(done, vec![0, 1, 2]);
    }

    #[test]
    fn writes_always_forward() {
        let mut l1 = l1();
        let mut sent = Vec::new();
        l1.push(L1Access {
            warp: 0,
            atom: LogicalAtom(7),
            kind: AccessKind::Write { full: true },
        });
        l1.tick(0, &mut identity_map, &mut |r| {
            sent.push(r);
            true
        });
        assert_eq!(sent.len(), 1);
        assert!(sent[0].kind.is_write());
        assert_eq!(sent[0].l1_mshr, NO_L1_MSHR);
        assert_eq!(l1.stats().writes, 1);
        assert!(l1.is_idle());
    }

    #[test]
    fn backpressure_stalls_head() {
        let mut l1 = l1();
        l1.push(L1Access {
            warp: 0,
            atom: LogicalAtom(1),
            kind: AccessKind::Read,
        });
        l1.tick(0, &mut identity_map, &mut |_| false);
        assert_eq!(l1.stats().read_misses, 0);
        assert!(!l1.is_idle());
        // Succeeds once the network accepts.
        l1.tick(1, &mut identity_map, &mut |_| true);
        assert_eq!(l1.stats().read_misses, 1);
    }

    #[test]
    fn mshr_exhaustion_stalls() {
        let cfg = GpuConfig::tiny();
        let mut l1 = L1Cache::new(SmId(0), &cfg.l1);
        // Fill all MSHRs with distinct atoms, draining the input queue as
        // we go (one access per cycle).
        let mut accepted = 0;
        let mut now = 0;
        for i in 0..=cfg.l1.mshrs as u64 {
            l1.push(L1Access {
                warp: if i == cfg.l1.mshrs as u64 { 1 } else { 0 },
                atom: LogicalAtom(i * 100),
                kind: AccessKind::Read,
            });
            l1.tick(now, &mut identity_map, &mut |_| {
                accepted += 1;
                true
            });
            now += 1;
        }
        for _ in 0..10 {
            l1.tick(now, &mut identity_map, &mut |_| {
                accepted += 1;
                true
            });
            now += 1;
        }
        assert_eq!(accepted, cfg.l1.mshrs, "extra miss must wait for an MSHR");
        assert!(!l1.is_idle());
        assert_eq!(
            l1.next_event(now),
            None,
            "only a response unblocks the head"
        );
    }

    #[test]
    #[should_panic(expected = "input queue overflow")]
    fn push_past_capacity_panics() {
        let mut l1 = l1();
        for i in 0..=GpuConfig::tiny().l1.input_queue as u64 {
            l1.push(L1Access {
                warp: 0,
                atom: LogicalAtom(i),
                kind: AccessKind::Read,
            });
        }
    }
}
