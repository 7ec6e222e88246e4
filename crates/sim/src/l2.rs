//! The L2 slice: one bank of the shared last-level cache, co-located with
//! its memory controller.
//!
//! GPUs partition the L2 by memory channel; each slice serves exactly the
//! addresses of its channel, so a slice and its controller form a closed
//! pair. The slice is sectored (128-byte lines, 32-byte sectors),
//! write-back, write-allocate, with sector-granularity MSHRs.
//!
//! Protection hooks (see [`crate::protection`]) fire on demand fills and
//! dirty write-backs; the ECC traffic they generate shares this slice's
//! controller queues with demand traffic — which is precisely the contention
//! CacheCraft attacks.
//!
//! The slice keeps no response queue. A response (a read hit, or a reader
//! of an installed fill) is handed to the caller's `respond` callback in
//! the tick that makes it, ready `l2.latency` cycles later, and the cycle
//! loop puts it straight into the crossbar. A slice therefore never wakes
//! just to send a response.

use crate::cache::{CacheStats, Eviction, LookupResult, SectorCache};
use crate::config::GpuConfig;
use crate::mem_ctrl::{Completion, DramRequest, DramTag, McStats, MemCtrl};
use crate::msg::{L2Request, L2Response};
use crate::mshr::MshrFile;
use crate::protection::{Fill, ProtectionScheme, ProtectionStats, Writeback};
use crate::types::{AccessKind, Cycle, PhysLoc, TrafficClass, ATOMS_PER_LINE, ATOM_BYTES};
use std::collections::VecDeque;

/// Requests the slice pipeline processes per cycle.
pub const SLICE_PORTS: usize = 2;

/// Write-back tasks and pending fills processed per cycle.
const WB_TASKS_PER_CYCLE: usize = 4;

/// The state of one in-flight fill beyond its atom and readers.
#[derive(Debug)]
struct FillState {
    /// DRAM pieces still outstanding (data + ECC fetches).
    pieces_left: u32,
    /// Install the sector dirty (fetch-on-write merge happened).
    dirty_after_fill: bool,
}

/// A deferred write-back: the data write plus the ECC traffic its
/// [`Writeback`] decision issues with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WbTask {
    data: u64,
    ecc_read: Option<u64>,
    ecc_write: Option<u64>,
}

/// Per-slice statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct L2SliceStats {
    /// Sectored-cache counters.
    pub cache: CacheStats,
    /// Demand fills completed.
    pub fills: u64,
    /// Write-backs issued to DRAM (data atoms).
    pub writebacks: u64,
    /// The protection scheme's decisions on this slice's fills and
    /// write-backs, and the buffered ECC writes it drained (the
    /// coalescing watermarks stay zero: the scheme reports those).
    pub protection: ProtectionStats,
}

/// One L2 slice plus its memory controller.
#[derive(Debug)]
pub struct L2Slice {
    channel: u16,
    cache: SectorCache,
    latency: u32,
    in_q: VecDeque<L2Request>,
    in_cap: usize,
    /// In-flight fills by atom; the waiters are the readers to notify,
    /// `(sm, l1_mshr)`.
    mshrs: MshrFile<u64, (u16, u32), FillState>,
    pending_wb: VecDeque<WbTask>,
    /// The slice's memory controller (the cycle loop takes its issue log
    /// and reads its queue depths directly).
    pub(crate) mc: MemCtrl,
    stats: L2SliceStats,
    /// Reused scratch for DRAM completions (hot-path allocation avoidance).
    comp_buf: Vec<Completion>,
    /// Reused scratch for the scheme's drained ECC writes.
    drain_buf: Vec<u64>,
}

impl L2Slice {
    /// Builds the slice for `channel`. `l2_tax_bytes` shrinks the cache by
    /// the capacity the protection scheme repurposes (CacheCraft fragment
    /// store).
    ///
    /// # Panics
    ///
    /// Panics if the tax leaves no valid cache geometry.
    pub fn new(cfg: &GpuConfig, channel: u16, l2_tax_bytes: u64) -> Self {
        let cap = cfg.l2.capacity_bytes.saturating_sub(l2_tax_bytes);
        assert!(cap > 0, "protection tax consumed the whole L2 slice");
        // Keep the configured (power-of-two) set count and absorb the tax
        // by reducing associativity, so capacity is honoured exactly.
        let sets = cfg.l2.sets();
        let ways = (cap / (ATOM_BYTES * ATOMS_PER_LINE * sets)) as u32;
        assert!(ways > 0, "protection tax leaves less than one way");
        L2Slice {
            channel,
            cache: SectorCache::new_hashed(sets, ways, ATOMS_PER_LINE),
            latency: cfg.l2.latency,
            in_q: VecDeque::with_capacity(cfg.l2.input_queue),
            in_cap: cfg.l2.input_queue,
            mshrs: MshrFile::new(cfg.l2.mshrs),
            pending_wb: VecDeque::new(),
            mc: MemCtrl::new(&cfg.mem),
            stats: L2SliceStats::default(),
            comp_buf: Vec::new(),
            drain_buf: Vec::new(),
        }
    }

    /// `true` when the slice can take another request from the crossbar.
    pub fn can_accept(&self) -> bool {
        self.in_q.len() < self.in_cap
    }

    /// Enqueues a request.
    ///
    /// # Panics
    ///
    /// Panics if the input queue is full or the request targets another
    /// channel.
    pub fn push(&mut self, req: L2Request) {
        assert!(self.can_accept(), "L2 slice input queue overflow");
        assert_eq!(
            req.loc.channel, self.channel,
            "request routed to wrong slice"
        );
        self.in_q.push_back(req);
    }

    /// Plans and queues the write-back of `dirty_atoms`. When they leave
    /// in an eviction, `evicted` is it, so the reconstruction residency
    /// check counts its dirty atoms as available although the cache no
    /// longer holds them.
    fn queue_writebacks(
        &mut self,
        dirty_atoms: impl IntoIterator<Item = u64>,
        evicted: Option<Eviction>,
        scheme: &mut dyn ProtectionScheme,
        now: Cycle,
    ) {
        for data in dirty_atoms {
            let cache = &self.cache;
            let decision = scheme.writeback(PhysLoc::new(self.channel, data), now, &mut |a| {
                cache.probe(a) || evicted.is_some_and(|ev| ev.contains(a))
            });
            let (ecc_read, ecc_write) = self.count_writeback(decision);
            self.pending_wb.push_back(WbTask {
                data,
                ecc_read,
                ecc_write,
            });
        }
    }

    /// Counts a fill decision and returns the ECC atom to fetch with the
    /// data. With [`count_writeback`](Self::count_writeback) and the drain
    /// in [`tick`](Self::tick), the one place the protection counters
    /// move.
    fn count_fill(&mut self, decision: Fill) -> Option<u64> {
        let p = &mut self.stats.protection;
        match decision {
            Fill::Unprotected => None,
            Fill::Fetch(ecc) => {
                p.ecc_demand_fetches += 1;
                Some(ecc)
            }
            Fill::OnChip => {
                p.ecc_fetch_hits += 1;
                None
            }
            Fill::FragmentHit => {
                p.ecc_fetch_hits += 1;
                p.fragment_store_hits += 1;
                None
            }
        }
    }

    /// Counts a write-back decision and returns the ECC `(read, write)`
    /// to issue with the data write.
    fn count_writeback(&mut self, decision: Writeback) -> (Option<u64>, Option<u64>) {
        let p = &mut self.stats.protection;
        match decision {
            Writeback::Unprotected => (None, None),
            Writeback::Absorbed => {
                p.absorbed_writebacks += 1;
                (None, None)
            }
            Writeback::Merged => {
                p.absorbed_writebacks += 1;
                p.coalesced_ecc_writes += 1;
                (None, None)
            }
            Writeback::Reconstructed { write } => {
                p.reconstructed_writebacks += 1;
                (None, write)
            }
            Writeback::Rmw { read, write } => {
                p.rmw_writebacks += 1;
                (Some(read), write)
            }
        }
    }

    /// Installs a completed fill, handling any eviction it causes, and
    /// answers its readers through `respond`.
    fn install_fill(
        &mut self,
        mshr_idx: usize,
        scheme: &mut dyn ProtectionScheme,
        now: Cycle,
        respond: &mut dyn FnMut(L2Response, Cycle),
    ) {
        let mut m = self.mshrs.release(mshr_idx);
        let evicted = self.cache.fill(m.key, m.extra.dirty_after_fill);
        self.stats.fills += 1;
        if let Some(ev) = evicted {
            self.queue_writebacks(ev.dirty_atoms(), evicted, scheme, now);
        }
        for (sm, l1_mshr) in m.waiters.drain(..) {
            respond(
                L2Response {
                    loc: PhysLoc::new(self.channel, m.key),
                    dest: crate::types::SmId(sm),
                    l1_mshr,
                },
                now + self.latency as Cycle,
            );
        }
        self.mshrs.recycle(m.waiters);
    }

    /// Attempts to issue the head write-back task (all-or-nothing).
    fn try_issue_wb(&mut self, now: Cycle) -> bool {
        let Some(&task) = self.pending_wb.front() else {
            return false;
        };
        let writes_needed = 1 + task.ecc_write.is_some() as usize;
        let reads_needed = task.ecc_read.is_some() as usize;
        if self.mc.write_free() < writes_needed || self.mc.read_free() < reads_needed {
            return false;
        }
        self.pending_wb.pop_front();
        self.mc.push(
            DramRequest {
                atom: task.data,
                class: TrafficClass::DataWrite,
                tag: DramTag::Write,
            },
            now,
        );
        self.stats.writebacks += 1;
        if let Some(atom) = task.ecc_read {
            self.mc.push(
                DramRequest {
                    atom,
                    class: TrafficClass::EccRead,
                    tag: DramTag::RmwRead,
                },
                now,
            );
        }
        if let Some(atom) = task.ecc_write {
            self.mc.push(
                DramRequest {
                    atom,
                    class: TrafficClass::EccWrite,
                    tag: DramTag::Write,
                },
                now,
            );
        }
        true
    }

    /// Processes one request from the input queue, answering a read hit
    /// through `respond`. Returns `false` when the head request must stall
    /// (left at the front).
    fn process_request(
        &mut self,
        scheme: &mut dyn ProtectionScheme,
        now: Cycle,
        respond: &mut dyn FnMut(L2Response, Cycle),
    ) -> bool {
        let Some(&req) = self.in_q.front() else {
            return false;
        };
        let atom = req.loc.atom;
        let hit = match req.kind {
            AccessKind::Read => self.cache.lookup_read(atom) == LookupResult::Hit,
            AccessKind::Write { .. } => self.cache.lookup_write(atom) == LookupResult::Hit,
        };
        if hit {
            if req.kind == AccessKind::Read {
                respond(
                    L2Response {
                        loc: req.loc,
                        dest: req.src,
                        l1_mshr: req.l1_mshr,
                    },
                    now + self.latency as Cycle,
                );
            }
        } else if let Some(m) = self.mshrs.find_mut(atom) {
            // Merge into the in-flight fill: a reader waits for it, a
            // write makes it install dirty.
            match req.kind {
                AccessKind::Read => m.waiters.push((req.src.0, req.l1_mshr)),
                AccessKind::Write { .. } => m.extra.dirty_after_fill = true,
            }
        } else if req.kind == (AccessKind::Write { full: true }) {
            // Write-allocate without fetch: install dirty.
            if let Some(ev) = self.cache.fill(atom, true) {
                self.queue_writebacks(ev.dirty_atoms(), Some(ev), scheme, now);
            }
        } else if !self.start_fill(req, scheme, now) {
            return false;
        }
        self.in_q.pop_front();
        true
    }

    /// Starts the demand fill of a read miss, or the fetch-on-write of a
    /// partial write to a non-resident sector: an MSHR, the data read and
    /// the ECC fetch the scheme's [`Fill`] asks for. Returns `false` (a
    /// stall) when no MSHR or too few controller read slots are free.
    fn start_fill(
        &mut self,
        req: L2Request,
        scheme: &mut dyn ProtectionScheme,
        now: Cycle,
    ) -> bool {
        // Reserve read slots before consulting the scheme, which mutates
        // its state. A fill needs two (data plus at most one ECC fetch);
        // the reservation keeps a third, because tightening it moves the
        // simulated timing and so needs the goldens re-blessed.
        let idx = match self.mshrs.next_free() {
            Some(idx) if self.mc.read_free() >= 3 => idx,
            _ => return false,
        };
        let decision = scheme.demand_fill(req.loc, now);
        let ecc = self.count_fill(decision);
        let read = req.kind == AccessKind::Read;
        let m = self.mshrs.insert(
            req.loc.atom,
            FillState {
                pieces_left: 1 + ecc.is_some() as u32,
                dirty_after_fill: !read,
            },
        );
        if read {
            m.waiters.push((req.src.0, req.l1_mshr));
        }
        self.mc.push(
            DramRequest {
                atom: req.loc.atom,
                class: TrafficClass::DataRead,
                tag: DramTag::DemandData { mshr: idx },
            },
            now,
        );
        if let Some(atom) = ecc {
            self.mc.push(
                DramRequest {
                    atom,
                    class: TrafficClass::EccRead,
                    tag: DramTag::DemandEcc { mshr: idx },
                },
                now,
            );
        }
        true
    }

    /// Advances the slice and its controller one cycle and returns the
    /// slice's [`next_event`](Self::next_event) after it. Each response
    /// the cycle makes (a read hit, or a reader of an installed fill) goes
    /// to `respond(resp, ready)` at once, with `ready = now + l2.latency`:
    /// the cycle it leaves the slice.
    ///
    /// Until the returned cycle, ticks are provably no-ops apart from the
    /// controller's busy-cycle count, so the cycle loop may sleep the
    /// slice and replace them by
    /// [`account_asleep_span`](Self::account_asleep_span), as long as no
    /// request arrives (a `push`) and no flush queues write-backs (both
    /// wake it). Exact because nothing the tick does can change before
    /// then: no request is queued in the slice, the controller neither
    /// scans (its `scan_asleep_until` is an event) nor completes a read
    /// (the earliest completion is an event) nor refreshes (the next
    /// refresh is an event), and the scheme's drain yields nothing. That
    /// drain gets `write_free - 1` slots, which only a controller issue
    /// can change; a drain that filled its budget left at most one slot
    /// (budget 0), and one that did not has nothing left until the
    /// channel's `next_timed_event`, also an event.
    pub fn tick(
        &mut self,
        scheme: &mut dyn ProtectionScheme,
        now: Cycle,
        respond: &mut dyn FnMut(L2Response, Cycle),
    ) -> Option<Cycle> {
        self.mc.tick(now);
        // 1. Handle DRAM completions (through a reused scratch buffer —
        //    this runs every cycle for every slice).
        let mut comps = std::mem::take(&mut self.comp_buf);
        self.mc.pop_completions_into(now, &mut comps);
        for c in comps.drain(..) {
            match c.req.tag {
                DramTag::DemandData { mshr } | DramTag::DemandEcc { mshr } => {
                    if matches!(c.req.tag, DramTag::DemandEcc { .. }) {
                        scheme.ecc_arrived(PhysLoc::new(self.channel, c.req.atom), now);
                    }
                    let m = self.mshrs.get_mut(mshr);
                    m.extra.pieces_left -= 1;
                    if m.extra.pieces_left == 0 {
                        self.install_fill(mshr, scheme, now, respond);
                    }
                }
                DramTag::RmwRead => {}
                DramTag::Write => unreachable!("writes produce no completions"),
            }
        }
        self.comp_buf = comps;
        // 2. Issue deferred write-backs.
        for _ in 0..WB_TASKS_PER_CYCLE {
            if !self.try_issue_wb(now) {
                break;
            }
        }
        // 3. Drain protection-scheme ECC writes with leftover write slots,
        //    keeping one slot in reserve for data write-backs.
        let budget = self.mc.write_free().saturating_sub(1);
        if budget > 0 {
            scheme.drain_ecc_writes(self.channel, now, budget, &mut self.drain_buf);
            self.stats.protection.ecc_structure_writebacks += self.drain_buf.len() as u64;
            for atom in self.drain_buf.drain(..) {
                self.mc.push(
                    DramRequest {
                        atom,
                        class: TrafficClass::EccWrite,
                        tag: DramTag::Write,
                    },
                    now,
                );
            }
        }
        // 4. Pipeline: up to SLICE_PORTS requests.
        for _ in 0..SLICE_PORTS {
            if !self.process_request(scheme, now, respond) {
                break;
            }
        }
        // 5. A slice with nothing queued of its own can sleep until its
        //    next event. A stalled head request keeps it awake, because
        //    every retry re-runs the lookup (a miss counted, LRU touched):
        //    `next_event` reports `now` for it. The responses just made
        //    are already the crossbar's.
        self.next_event(now, scheme)
    }

    /// Accounts for `span` ticks skipped while asleep (see
    /// [`tick`](Self::tick)), exactly as they would have counted.
    pub fn account_asleep_span(&mut self, span: u64) {
        self.mc.account_idle_span(span);
    }

    /// Oracle build: runs a tick that the cycle loop skips, with the slice
    /// asleep until `wake`, and asserts that it changed nothing but what
    /// [`account_asleep_span`](Self::account_asleep_span) counts, that it
    /// made no response, and that the live
    /// [`next_event`](Self::next_event) never precedes `wake`.
    ///
    /// # Panics
    ///
    /// Panics when `wake` is later than the slice's real next event.
    #[cfg(feature = "check-invariants")]
    pub fn tick_asleep_checked(
        &mut self,
        scheme: &mut dyn ProtectionScheme,
        now: Cycle,
        wake: Cycle,
    ) {
        if let Some(c) = self.next_event(now, scheme) {
            assert!(
                c >= wake,
                "invariant violated: L2 slice {} asleep until {wake} but \
                 next_event says {c} (cycle {now})",
                self.channel
            );
        }
        // The slice stats carry its protection counters, so a scheme
        // decision or drained ECC write inside the sleep fails here too.
        let snapshot = |s: &Self| {
            (
                s.stats(),
                s.mc.stats(),
                s.mc.outstanding(),
                s.pending_wb.len(),
                s.mshrs.len(),
            )
        };
        let mut expect = snapshot(self);
        if self.mc.read_q_len() + self.mc.write_q_len() > 0 {
            expect.1.busy_cycles += 1;
        }
        let mut responses = 0u32;
        self.tick(scheme, now, &mut |_, _| responses += 1);
        assert_eq!(
            responses, 0,
            "invariant violated: L2 slice {} responded during its \
             predicted-idle sleep (cycle {now}, asleep until {wake})",
            self.channel
        );
        assert!(
            snapshot(self) == expect,
            "invariant violated: L2 slice {} made progress during its \
             predicted-idle sleep (cycle {now}, asleep until {wake})",
            self.channel
        );
    }

    /// Queues write-backs for every dirty atom still resident (end-of-kernel
    /// flush), leaving the cache clean. Every flushed atom stays resident
    /// while its write-back is planned, so the residency check needs no
    /// eviction.
    pub fn flush_dirty(&mut self, scheme: &mut dyn ProtectionScheme, now: Cycle) {
        let dirty: Vec<u64> = self
            .cache
            .iter_valid()
            .filter(|&(_, d)| d)
            .map(|(a, _)| a)
            .collect();
        self.queue_writebacks(dirty.iter().copied(), None, scheme, now);
        for &a in &dirty {
            self.cache.clean(a);
        }
    }

    /// Earliest cycle at which this slice has (or may have) work, for
    /// idle fast-forwarding and the slice's sleep in the wake calendar.
    /// `Some(c <= now)` means busy this cycle; `Some(c > now)` is the
    /// earlier of the controller's event ([`MemCtrl::next_event`]) and the
    /// scheme's timed drain deadline for this channel; `None` means
    /// nothing queued, in flight or timed. An MSHR is never outstanding
    /// without a matching controller event, so these checks cover the
    /// whole slice. A response is never the slice's work: it enters the
    /// crossbar in the tick that makes it.
    pub fn next_event(&self, now: Cycle, scheme: &dyn ProtectionScheme) -> Option<Cycle> {
        if !self.in_q.is_empty() || !self.pending_wb.is_empty() {
            return Some(now);
        }
        let mut wake = self.mc.next_event(now).unwrap_or(Cycle::MAX);
        if let Some(due) = scheme.next_timed_event(self.channel) {
            wake = wake.min(due);
        }
        (wake != Cycle::MAX).then_some(wake)
    }

    /// `true` when no work remains anywhere in the slice.
    pub fn is_idle(&self) -> bool {
        self.in_q.is_empty()
            && self.pending_wb.is_empty()
            && self.mshrs.is_empty()
            && self.mc.is_idle()
    }

    /// Slice statistics (cache counters folded in).
    pub fn stats(&self) -> L2SliceStats {
        let mut s = self.stats;
        s.cache = self.cache.stats();
        s
    }

    /// Memory-controller statistics.
    pub fn mc_stats(&self) -> McStats {
        self.mc.stats()
    }

    /// Structural coherence and fill conservation for the slice's MSHR
    /// file and queues, checked once per cycle by the oracle.
    ///
    /// # Panics
    ///
    /// Panics on an MSHR leak, a dangling or mismatched index entry, a
    /// fill neither installed nor outstanding, a zero-piece MSHR that
    /// should already have installed, or an over-capacity input queue.
    #[cfg(feature = "check-invariants")]
    pub fn assert_coherent(&self) {
        assert!(
            self.in_q.len() <= self.in_cap,
            "invariant violated: L2 slice {} input queue over capacity",
            self.channel
        );
        self.mshrs
            .assert_coherent(format_args!("L2 slice {}", self.channel));
        for m in self.mshrs.entries() {
            assert!(
                m.extra.pieces_left >= 1,
                "invariant violated: L2 slice {} MSHR for atom {} has zero pieces \
                 left but was not installed",
                self.channel,
                m.key
            );
        }
    }

    /// MSHRs currently tracking an in-flight miss (telemetry accessor).
    pub fn mshrs_in_use(&self) -> usize {
        self.mshrs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::NO_L1_MSHR;
    use crate::protection::{ChannelInterleave, NoProtection};
    use crate::types::SmId;

    fn slice_and_scheme() -> (L2Slice, NoProtection) {
        let cfg = GpuConfig::tiny();
        let slice = L2Slice::new(&cfg, 0, 0);
        let scheme = NoProtection::new(ChannelInterleave::new(
            cfg.mem.channels,
            cfg.mem.interleave_atoms,
        ));
        (slice, scheme)
    }

    fn read_req(atom: u64) -> L2Request {
        L2Request {
            loc: PhysLoc::new(0, atom),
            kind: AccessKind::Read,
            src: SmId(0),
            l1_mshr: 1,
        }
    }

    fn write_req(atom: u64, full: bool) -> L2Request {
        L2Request {
            loc: PhysLoc::new(0, atom),
            kind: AccessKind::Write { full },
            src: SmId(0),
            l1_mshr: NO_L1_MSHR,
        }
    }

    /// Ticks the slice from `start` until it is idle. Returns every
    /// response with the cycle it is ready, and the first cycle not ticked.
    fn run_until_idle(
        slice: &mut L2Slice,
        scheme: &mut dyn ProtectionScheme,
        start: Cycle,
    ) -> (Vec<(Cycle, L2Response)>, Cycle) {
        let mut responses = Vec::new();
        let mut now = start;
        loop {
            slice.tick(scheme, now, &mut |resp, ready| {
                responses.push((ready, resp))
            });
            now += 1;
            if slice.is_idle() {
                break;
            }
            assert!(now < 100_000, "livelock");
        }
        (responses, now)
    }

    #[test]
    fn read_miss_fills_and_responds() {
        let (mut slice, mut scheme) = slice_and_scheme();
        slice.push(read_req(0));
        let (resps, _) = run_until_idle(&mut slice, &mut scheme, 0);
        assert_eq!(resps.len(), 1);
        assert_eq!(resps[0].1.l1_mshr, 1);
        assert_eq!(slice.stats().fills, 1);
        // Second read is a hit.
        slice.push(read_req(0));
        let (resps, _) = run_until_idle(&mut slice, &mut scheme, 1000);
        assert_eq!(resps.len(), 1);
        assert_eq!(slice.stats().cache.read_hits, 1);
    }

    #[test]
    fn concurrent_misses_merge_in_mshr() {
        let (mut slice, mut scheme) = slice_and_scheme();
        slice.push(read_req(0));
        slice.push(read_req(0));
        slice.push(read_req(0));
        let (resps, _) = run_until_idle(&mut slice, &mut scheme, 0);
        assert_eq!(resps.len(), 3, "all waiters answered");
        // Only one DRAM read happened.
        assert_eq!(slice.mc_stats().class_count(TrafficClass::DataRead), 1);
    }

    #[test]
    fn full_write_allocates_without_fetch() {
        let (mut slice, mut scheme) = slice_and_scheme();
        slice.push(write_req(4, true));
        let (_, _) = run_until_idle(&mut slice, &mut scheme, 0);
        assert!(slice.cache.probe(4));
        assert_eq!(slice.mc_stats().class_count(TrafficClass::DataRead), 0);
    }

    #[test]
    fn partial_write_fetches_on_write() {
        let (mut slice, mut scheme) = slice_and_scheme();
        slice.push(write_req(4, false));
        let (resps, _) = run_until_idle(&mut slice, &mut scheme, 0);
        assert!(resps.is_empty(), "stores produce no responses");
        assert!(slice.cache.probe(4));
        assert_eq!(slice.mc_stats().class_count(TrafficClass::DataRead), 1);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let cfg = GpuConfig::tiny();
        let mut slice = L2Slice::new(&cfg, 0, 0);
        let mut scheme = NoProtection::new(ChannelInterleave::new(2, 8));
        // tiny L2 slice: 16 KiB = 128 lines (set indices are hashed, so
        // guarantee evictions by writing more distinct lines than the whole
        // slice holds). Interleave pushes with ticks to respect the input
        // queue bound.
        let mut now = 0;
        for i in 0..160u64 {
            slice.push(write_req(i * 4, true));
            slice.tick(&mut scheme, now, &mut |_, _| {});
            now += 1;
        }
        let (_, _) = run_until_idle(&mut slice, &mut scheme, now);
        assert!(slice.stats().writebacks >= 1);
        assert!(slice.mc_stats().class_count(TrafficClass::DataWrite) >= 1);
    }

    #[test]
    fn flush_writes_all_dirty_data() {
        let (mut slice, mut scheme) = slice_and_scheme();
        for i in 0..4u64 {
            slice.push(write_req(i, true));
        }
        let (_, end) = run_until_idle(&mut slice, &mut scheme, 0);
        slice.flush_dirty(&mut scheme, end);
        let (_, _) = run_until_idle(&mut slice, &mut scheme, end);
        assert_eq!(slice.mc_stats().class_count(TrafficClass::DataWrite), 4);
    }

    #[test]
    fn write_merges_into_inflight_fetch() {
        let (mut slice, mut scheme) = slice_and_scheme();
        slice.push(read_req(0));
        slice.push(write_req(0, true));
        let (resps, _) = run_until_idle(&mut slice, &mut scheme, 0);
        assert_eq!(resps.len(), 1);
        // One fetch, sector ends dirty: flushing must produce one write.
        slice.flush_dirty(&mut scheme, 10_000);
        let (_, _) = run_until_idle(&mut slice, &mut scheme, 10_000);
        assert_eq!(slice.mc_stats().class_count(TrafficClass::DataRead), 1);
        assert_eq!(slice.mc_stats().class_count(TrafficClass::DataWrite), 1);
    }

    #[test]
    fn l2_tax_shrinks_cache() {
        let cfg = GpuConfig::tiny();
        let full = L2Slice::new(&cfg, 0, 0);
        let taxed = L2Slice::new(&cfg, 0, 8 << 10);
        assert_eq!(full.cache.capacity_bytes(), 16 << 10);
        assert_eq!(taxed.cache.capacity_bytes(), 8 << 10);
    }

    #[test]
    #[should_panic(expected = "wrong slice")]
    fn rejects_misrouted_request() {
        let (mut slice, _) = slice_and_scheme();
        slice.push(L2Request {
            loc: PhysLoc::new(1, 0),
            kind: AccessKind::Read,
            src: SmId(0),
            l1_mshr: 0,
        });
    }

    /// A scheme with time-triggered drains: every write-back buffers an
    /// ECC write that becomes drainable `AGE` cycles later, announced
    /// through `next_timed_event`, and every demand fill fetches ECC.
    #[derive(Debug)]
    struct TimedScheme {
        inner: NoProtection,
        /// Buffered ECC writes `(atom, due)`, dues non-decreasing.
        pending: VecDeque<(u64, Cycle)>,
    }

    impl TimedScheme {
        const AGE: Cycle = 90;
    }

    impl ProtectionScheme for TimedScheme {
        fn name(&self) -> &str {
            "timed"
        }
        fn map(&self, logical: crate::types::LogicalAtom) -> PhysLoc {
            self.inner.map(logical)
        }
        fn demand_fill(&mut self, loc: PhysLoc, _now: Cycle) -> Fill {
            Fill::Fetch((1 << 20) + loc.atom / 8)
        }
        fn writeback(
            &mut self,
            loc: PhysLoc,
            now: Cycle,
            _resident: &mut dyn FnMut(u64) -> bool,
        ) -> Writeback {
            self.pending
                .push_back(((1 << 20) + loc.atom / 8, now + Self::AGE));
            Writeback::Reconstructed { write: None }
        }
        fn drain_ecc_writes(
            &mut self,
            _channel: u16,
            now: Cycle,
            budget: usize,
            out: &mut Vec<u64>,
        ) {
            for _ in 0..budget {
                match self.pending.front() {
                    Some(&(atom, due)) if due <= now => {
                        self.pending.pop_front();
                        out.push(atom);
                    }
                    _ => break,
                }
            }
        }
        fn flush(&mut self) {
            for entry in &mut self.pending {
                entry.1 = 0;
            }
        }
        fn is_drained(&self) -> bool {
            self.pending.is_empty()
        }
        fn next_timed_event(&self, _channel: u16) -> Option<Cycle> {
            self.pending.front().map(|&(_, due)| due)
        }
    }

    /// Bursts of reads and writes (some partial) over a footprint four
    /// times the slice, with idle gaps longer than the refresh interval:
    /// `(cycle, request)` in cycle order.
    fn bursty_script() -> Vec<(Cycle, L2Request)> {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut script = Vec::new();
        let mut at = 0;
        for burst in 0..12u64 {
            for _ in 0..40 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let atom = x % 2048;
                let req = match x % 5 {
                    0 => write_req(atom, true),
                    1 => write_req(atom, false),
                    _ => read_req(atom),
                };
                script.push((at, req));
                at += x % 3;
            }
            at += 300 + 200 * (burst % 4);
        }
        script
    }

    /// Drives a slice through `bursty_script` with refresh on, flushing
    /// once the script is done and then idling to a fixed end cycle (so
    /// the run ends inside a sleep, across several refreshes). With
    /// `skip`, the slice sleeps as the cycle loop sleeps it: until the
    /// next event its last tick returned, or until a request arrives or
    /// the flush, and skipped ticks are accounted in bulk. Returns the
    /// final stats, every response with the cycle it is ready, whether
    /// the slice drained, and the number of skipped ticks.
    fn drive_bursty(skip: bool) -> (L2SliceStats, McStats, Vec<(Cycle, L2Response)>, bool, u64) {
        const END: Cycle = 12_000;
        let mut cfg = GpuConfig::tiny();
        cfg.mem.timing.t_refi = 400;
        cfg.mem.timing.t_rfc = 30;
        let mut slice = L2Slice::new(&cfg, 0, 0);
        let mut scheme = TimedScheme {
            inner: NoProtection::new(ChannelInterleave::new(1, 8)),
            pending: VecDeque::new(),
        };
        let script = bursty_script();
        let mut next = 0;
        let mut responses = Vec::new();
        let mut skipped = 0u64;
        let mut skipped_total = 0u64;
        let mut flushed = false;
        // The slice ticks at every cycle before `wake`'s.
        let mut wake: Cycle = 0;
        let mut now: Cycle = 0;
        while now < END {
            while next < script.len() && script[next].0 <= now && slice.can_accept() {
                slice.push(script[next].1);
                next += 1;
                wake = 0;
            }
            let flush_due = next == script.len() && slice.is_idle() && scheme.is_drained();
            if flush_due && !flushed {
                scheme.flush();
                slice.flush_dirty(&mut scheme, now);
                flushed = true;
                wake = 0;
            }
            if skip && now < wake {
                skipped += 1;
            } else {
                slice.account_asleep_span(skipped);
                skipped_total += skipped;
                skipped = 0;
                let event = slice.tick(&mut scheme, now, &mut |resp, ready| {
                    responses.push((ready, resp));
                });
                wake = event.unwrap_or(Cycle::MAX);
            }
            now += 1;
            let flush_due =
                !flushed && next == script.len() && slice.is_idle() && scheme.is_drained();
            if skip && now < wake && !flush_due {
                // Jump to the wake, stopping early for the next arrival.
                let arrival = script.get(next).map_or(Cycle::MAX, |&(at, _)| at.max(now));
                let to = wake.min(arrival).min(END);
                skipped += to - now;
                now = to;
            }
        }
        slice.account_asleep_span(skipped);
        skipped_total += skipped;
        let drained = flushed && slice.is_idle() && scheme.is_drained();
        (
            slice.stats(),
            slice.mc_stats(),
            responses,
            drained,
            skipped_total,
        )
    }

    #[test]
    fn sleeping_slice_matches_ticked_slice() {
        let (stats_a, mc_a, resp_a, drained, _) = drive_bursty(false);
        let (stats_b, mc_b, resp_b, _, skipped) = drive_bursty(true);
        assert!(drained, "the script must finish before the end cycle");
        assert!(skipped > 6_000, "slept only {skipped} ticks");
        assert!(mc_a.refreshes > 25, "refresh must occur: {mc_a:?}");
        assert!(mc_a.class_count(TrafficClass::EccWrite) > 0, "{mc_a:?}");
        assert!(stats_a.writebacks > 0, "{stats_a:?}");
        assert_eq!(stats_a, stats_b);
        assert_eq!(mc_a, mc_b);
        assert_eq!(resp_a, resp_b);
    }

    #[test]
    fn responses_respect_latency() {
        let (mut slice, mut scheme) = slice_and_scheme();
        // Prefill.
        slice.push(read_req(0));
        let (_, end) = run_until_idle(&mut slice, &mut scheme, 0);
        // A hit at cycle `end` is ready at end + latency (8).
        slice.push(read_req(0));
        let mut ready = Vec::new();
        slice.tick(&mut scheme, end, &mut |_, at| ready.push(at));
        assert_eq!(ready, vec![end + 8]);
    }

    /// A slice whose only in-flight work is a hit response has nothing
    /// left to wake for: the response is already in the crossbar, due at
    /// `t + l2.latency + xbar.latency`.
    #[test]
    fn hit_response_leaves_the_slice_asleep() {
        let cfg = GpuConfig::tiny();
        assert_eq!(cfg.mem.timing.t_refi, 0, "tiny has refresh off");
        let (mut slice, mut scheme) = slice_and_scheme();
        let mut xbar = crate::xbar::Crossbar::new(&cfg.xbar, cfg.core.sms, cfg.mem.channels);
        slice.push(read_req(0));
        let (_, t) = run_until_idle(&mut slice, &mut scheme, 0);
        slice.push(read_req(0));
        let event = slice.tick(&mut scheme, t, &mut |resp, ready| {
            xbar.send_response(resp, ready);
        });
        assert_eq!(slice.stats().cache.read_hits, 1);
        assert!(slice.is_idle());
        assert_eq!(event, None);
        let arrival = t + Cycle::from(cfg.l2.latency) + Cycle::from(cfg.xbar.latency);
        assert_eq!(xbar.next_arrival(), Some(arrival));
        let mut got = Vec::new();
        xbar.deliver_due_responses(arrival - 1, |sm, r| got.push((sm, r.l1_mshr)));
        assert!(got.is_empty(), "delivered early");
        xbar.deliver_due_responses(arrival, |sm, r| got.push((sm, r.l1_mshr)));
        assert_eq!(got, vec![(0, 1)]);
    }
}
