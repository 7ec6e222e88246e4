//! Per-channel memory controller: FR-FCFS scheduling over the DRAM model.
//!
//! Each controller owns one [`DramChannel`] and two bounded queues (reads
//! and writes). Scheduling is First-Ready, First-Come-First-Served within a
//! configurable scan window: row-buffer hits that can issue this cycle are
//! preferred; otherwise the oldest issuable request goes. Writes are
//! buffered and drained in batches between the configured watermarks, the
//! standard technique for amortizing bus-turnaround penalties.
//!
//! ECC transactions travel through the same queues as data (that is the
//! whole point of the inline-ECC performance problem) and are distinguished
//! only by their [`TrafficClass`] for accounting and by their [`DramTag`]
//! for completion routing.

use crate::config::MemConfig;
use crate::dram::{DramChannel, RowOutcome};
use crate::types::{Cycle, TrafficClass};
use ccraft_telemetry::profiler::{MemoStats, PhaseTimer};
use ccraft_telemetry::Histogram;
use std::collections::VecDeque;

/// Self-profiling state for one controller, attached by
/// [`MemCtrl::enable_profile`]. Observation only: nothing in here feeds
/// back into scheduling, and with the profile absent every probe site is
/// a single branch.
#[derive(Debug, Clone, Default)]
pub struct McProfile {
    /// Scan-sleep memo effectiveness: hit = a busy tick short-circuited
    /// by `scan_asleep_until`, miss = a tick that actually scanned.
    pub scan_memo: MemoStats,
    /// Window entries examined per performed first-ready scan.
    pub scan_depth: Histogram,
    /// Host nanoseconds inside `tick` (includes the FR-FCFS section
    /// below).
    pub host_tick_ns: u64,
    /// Host nanoseconds inside the FR-FCFS pick/issue section (DRAM
    /// bank-state probes + issue bookkeeping).
    pub host_sched_ns: u64,
}

/// Completion routing information carried by a DRAM request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DramTag {
    /// Demand data read feeding L2 MSHR `mshr`.
    DemandData {
        /// Slice-local MSHR index awaiting this data.
        mshr: usize,
    },
    /// Demand ECC read gating the fill of L2 MSHR `mshr`.
    DemandEcc {
        /// Slice-local MSHR index awaiting this ECC atom.
        mshr: usize,
    },
    /// Read-modify-write ECC read; fire-and-forget for timing purposes.
    RmwRead,
    /// Any write (data or ECC); no completion routing.
    Write,
}

/// One DRAM transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramRequest {
    /// Channel-local physical atom.
    pub atom: u64,
    /// Traffic class for accounting.
    pub class: TrafficClass,
    /// Completion routing.
    pub tag: DramTag,
}

impl DramRequest {
    /// `true` when the transaction is a write.
    pub fn is_write(&self) -> bool {
        !self.class.is_read()
    }
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    req: DramRequest,
    enqueued: Cycle,
    /// Decomposed once at enqueue: the FR-FCFS scan probes bank state for
    /// every window entry every cycle, and the divisions in
    /// [`DramAddressMap::decompose`] dominate that loop if done inline.
    coord: crate::dram::DramCoord,
}

/// A completed read, handed back to the L2 slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The original request.
    pub req: DramRequest,
    /// Cycle at which data became available.
    pub done: Cycle,
}

/// Controller statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct McStats {
    /// Transactions per class: indexed by [`TrafficClass::ALL`] order.
    pub count: [u64; 4],
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Row-empty accesses.
    pub row_empties: u64,
    /// Row conflicts.
    pub row_conflicts: u64,
    /// Sum of read queueing+service latency (enqueue to data).
    pub read_latency_sum: u64,
    /// Number of reads in the latency sum.
    pub read_latency_count: u64,
    /// Cycles in which at least one queue was non-empty.
    pub busy_cycles: u64,
    /// All-bank refresh operations performed.
    pub refreshes: u64,
}

impl McStats {
    /// Transactions of one class.
    pub fn class_count(&self, class: TrafficClass) -> u64 {
        self.count[class.index()]
    }
}

/// One DRAM transaction as issued to the channel: the record every
/// observer of the DRAM stream reads (see [`MemCtrl::take_last_issue`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueEvent {
    /// Channel-local atom.
    pub atom: u64,
    /// Traffic class of the transaction.
    pub class: TrafficClass,
    /// Cycle the command issued.
    pub start: Cycle,
    /// Cycle the last data beat was on the bus (for a read, the cycle its
    /// data is ready).
    pub end: Cycle,
    /// Cycles the request waited in the controller queue before issue.
    pub queued: Cycle,
}

/// The per-channel memory controller.
///
/// Besides its [`McStats`], a controller keeps one observer slot, the
/// issue log: the [`IssueEvent`] of its latest transaction, which every
/// observer of the DRAM stream (fault injection, the read-latency
/// histogram, the Chrome trace) reads. It issues at most one command per
/// [`tick`](Self::tick), so taking the log after each tick
/// ([`take_last_issue`](Self::take_last_issue)) sees every transaction.
/// With profiling on, `tick` times itself.
#[derive(Debug)]
pub struct MemCtrl {
    chan: DramChannel,
    read_q: VecDeque<Pending>,
    write_q: VecDeque<Pending>,
    read_cap: usize,
    write_cap: usize,
    drain_high: usize,
    drain_low: usize,
    window: usize,
    draining: bool,
    /// Scan-skip memo: until this cycle, every window entry is provably
    /// blocked (bank/precharge/bus constraint not yet expired), so
    /// `pick_and_issue` scans are futile and skipped. Set each time a
    /// full scan of both queues fails, to the earliest cycle any refused
    /// entry can issue (exact, so the next scan issues unless a refresh
    /// intervened), capped at the next refresh (the only event that
    /// changes bank state without an issue); lowered by a push whose
    /// entry could issue sooner.
    scan_asleep_until: Cycle,
    /// (data_ready, completion) pairs not yet collected.
    inflight: Vec<Completion>,
    /// Minimum `done` over `inflight` (`Cycle::MAX` when empty), so the
    /// per-cycle completion pop can skip the scan while nothing is due.
    earliest_done: Cycle,
    stats: McStats,
    /// Oracle counter: read requests accepted (conservation check).
    #[cfg(feature = "check-invariants")]
    pushed_reads: u64,
    /// Oracle counter: write requests accepted (conservation check).
    #[cfg(feature = "check-invariants")]
    pushed_writes: u64,
    /// Oracle counter: completions handed back (conservation check).
    #[cfg(feature = "check-invariants")]
    popped_reads: u64,
    /// The latest transaction issued, until taken.
    last_issue: Option<IssueEvent>,
    /// Self-profiling state, when enabled (boxed: cold by default).
    profile: Option<Box<McProfile>>,
}

impl MemCtrl {
    /// Creates a controller for one channel.
    pub fn new(mem: &MemConfig) -> Self {
        MemCtrl {
            chan: DramChannel::new(mem),
            read_q: VecDeque::with_capacity(mem.read_queue),
            write_q: VecDeque::with_capacity(mem.write_queue),
            read_cap: mem.read_queue,
            write_cap: mem.write_queue,
            drain_high: mem.write_drain_high,
            drain_low: mem.write_drain_low,
            window: mem.sched_window,
            draining: false,
            scan_asleep_until: 0,
            inflight: Vec::new(),
            earliest_done: Cycle::MAX,
            stats: McStats::default(),
            #[cfg(feature = "check-invariants")]
            pushed_reads: 0,
            #[cfg(feature = "check-invariants")]
            pushed_writes: 0,
            #[cfg(feature = "check-invariants")]
            popped_reads: 0,
            last_issue: None,
            profile: None,
        }
    }

    /// Turns on self-profiling (scan-memo hit rates, scan-depth
    /// histogram, host-time attribution). Observation only.
    pub fn enable_profile(&mut self) {
        self.profile = Some(Box::default());
    }

    /// The collected self-profile, when enabled.
    pub fn profile(&self) -> Option<&McProfile> {
        self.profile.as_deref()
    }

    /// Takes the latest transaction issued, if one was issued since the
    /// last take. Taken after every [`tick`](Self::tick), this yields each
    /// transaction once, in issue order.
    pub fn take_last_issue(&mut self) -> Option<IssueEvent> {
        self.last_issue.take()
    }

    /// Current read-queue depth (telemetry accessor).
    pub fn read_q_len(&self) -> usize {
        self.read_q.len()
    }

    /// Current write-queue depth (telemetry accessor).
    pub fn write_q_len(&self) -> usize {
        self.write_q.len()
    }

    /// Free read-queue slots (for all-or-nothing multi-request issue).
    pub fn read_free(&self) -> usize {
        self.read_cap - self.read_q.len()
    }

    /// Free write-queue slots.
    pub fn write_free(&self) -> usize {
        self.write_cap - self.write_q.len()
    }

    /// Enqueues a request.
    ///
    /// # Panics
    ///
    /// Panics if the corresponding queue is full; callers must check
    /// [`read_free`](Self::read_free) / [`write_free`](Self::write_free)
    /// first.
    pub fn push(&mut self, req: DramRequest, now: Cycle) {
        let coord = self.chan.address_map().decompose(req.atom);
        // A fresh entry may be issueable sooner than the sleeping scan's
        // bound. Fold in its own blocked-until (valid because pushes do
        // not touch channel state) instead of resetting the memo: in the
        // steady state a request arrives almost every cycle, and a full
        // reset would make the memo useless exactly when it matters.
        if self.scan_asleep_until > now {
            let entry_bound = self.chan.issue_blocked_until(coord, req.is_write(), now);
            self.scan_asleep_until = self.scan_asleep_until.min(entry_bound.max(now));
        }
        let pending = Pending {
            req,
            enqueued: now,
            coord,
        };
        if req.is_write() {
            assert!(self.write_free() > 0, "write queue overflow");
            self.write_q.push_back(pending);
            #[cfg(feature = "check-invariants")]
            {
                self.pushed_writes += 1;
            }
        } else {
            assert!(self.read_free() > 0, "read queue overflow");
            self.read_q.push_back(pending);
            #[cfg(feature = "check-invariants")]
            {
                self.pushed_reads += 1;
            }
        }
    }

    /// `true` when all queues and in-flight transactions are empty.
    pub fn is_idle(&self) -> bool {
        self.read_q.is_empty() && self.write_q.is_empty() && self.inflight.is_empty()
    }

    /// Outstanding transactions (queued + in flight).
    pub fn outstanding(&self) -> usize {
        self.read_q.len() + self.write_q.len() + self.inflight.len()
    }

    /// Issues the first request of one queue's window that can go this
    /// cycle, in FR-FCFS order. When none can, every window entry was
    /// tried and refused, and the result is the earliest cycle any of
    /// them could issue (`Cycle::MAX` for an empty queue).
    fn pick_and_issue(&mut self, now: Cycle, from_writes: bool) -> Result<(), Cycle> {
        let q = if from_writes {
            &self.write_q
        } else {
            &self.read_q
        };
        if q.is_empty() {
            return Err(Cycle::MAX);
        }
        let window = self.window.min(q.len());
        // First-ready: prefer the oldest row hit that can issue now, else
        // the oldest request of any kind that can issue now.
        let mut fallback: Option<usize> = None;
        let mut chosen: Option<usize> = None;
        for (i, pending) in q.iter().enumerate().take(window) {
            match self.chan.row_outcome_at(pending.coord) {
                RowOutcome::Hit => {
                    chosen = Some(i);
                    break;
                }
                _ if fallback.is_none() => fallback = Some(i),
                _ => {}
            }
        }
        if let Some(p) = &mut self.profile {
            // Entries examined: the scan stops at the first row hit.
            p.scan_depth.record(match chosen {
                Some(i) => (i + 1) as u64,
                None => window as u64,
            });
        }
        // Try the row-hit candidate first, then the oldest request, then
        // the rest of the window in age order. The two candidates are
        // distinct by construction (`chosen` is a hit, `fallback` only
        // records non-hits), so a plain skip in the final pass tries
        // every entry exactly once.
        let rest = (0..window).filter(|&i| Some(i) != chosen && Some(i) != fallback);
        let mut bound = Cycle::MAX;
        for i in chosen.into_iter().chain(fallback).chain(rest) {
            match self.try_issue_at(now, from_writes, i) {
                Ok(()) => return Ok(()),
                Err(b) => bound = bound.min(b),
            }
        }
        Err(bound)
    }

    /// Attempts to issue queue entry `i`; on success removes it and does
    /// all completion/stat/trace bookkeeping, on failure returns the
    /// earliest cycle its DRAM constraints let it issue.
    fn try_issue_at(&mut self, now: Cycle, from_writes: bool, i: usize) -> Result<(), Cycle> {
        let q = if from_writes {
            &mut self.write_q
        } else {
            &mut self.read_q
        };
        let pending = q[i];
        let data_ready = self
            .chan
            .try_issue_at(pending.coord, pending.req.is_write(), now)?;
        q.remove(i);
        self.stats.count[pending.req.class.index()] += 1;
        if !pending.req.is_write() {
            self.stats.read_latency_sum += data_ready - pending.enqueued;
            self.stats.read_latency_count += 1;
            self.inflight.push(Completion {
                req: pending.req,
                done: data_ready,
            });
            self.earliest_done = self.earliest_done.min(data_ready);
        }
        self.last_issue = Some(IssueEvent {
            atom: pending.req.atom,
            class: pending.req.class,
            start: now,
            end: data_ready,
            queued: now - pending.enqueued,
        });
        Ok(())
    }

    /// Advances the controller one cycle: refresh bookkeeping, write-drain
    /// hysteresis, and at most one command issued.
    pub fn tick(&mut self, now: Cycle) {
        let mut tick_t = PhaseTimer::start(self.profile.is_some());
        self.step(now);
        if let Some(p) = &mut self.profile {
            p.host_tick_ns = p.host_tick_ns.saturating_add(tick_t.lap());
        }
    }

    /// The body of [`tick`](Self::tick).
    fn step(&mut self, now: Cycle) {
        self.chan.tick_refresh(now);
        #[cfg(feature = "check-invariants")]
        self.assert_conserved();
        if self.has_queued() {
            self.stats.busy_cycles += 1;
        }
        // Write-drain hysteresis.
        if self.write_q.len() >= self.drain_high {
            self.draining = true;
        } else if self.write_q.len() <= self.drain_low {
            self.draining = false;
        }
        // Scan-skip: while every window entry is provably blocked, both
        // pick_and_issue calls below would fail without side effects, so
        // skip them entirely (see `scan_asleep_until`).
        if now < self.scan_asleep_until {
            if let Some(p) = &mut self.profile {
                if !self.read_q.is_empty() || !self.write_q.is_empty() {
                    p.scan_memo.hit();
                }
            }
            #[cfg(feature = "check-invariants")]
            self.assert_scan_asleep(now);
            return;
        }
        let mut sched_t = PhaseTimer::start(self.profile.is_some());
        if let Some(p) = &mut self.profile {
            if !self.read_q.is_empty() || !self.write_q.is_empty() {
                p.scan_memo.miss();
            }
        }
        // Opportunistically serve the other queue if the first could not
        // issue.
        let writes_first = self.draining || self.read_q.is_empty();
        let issued = self.pick_and_issue(now, writes_first).or_else(|first| {
            self.pick_and_issue(now, !writes_first)
                .map_err(|second| first.min(second))
        });
        // A failed scan refused every window entry of both queues, each
        // with the exact cycle it can issue. A refusal changes no state,
        // so no entry can issue before the earliest of them, and one
        // issues at it, unless a push (which lowers the memo) or a
        // refresh (the cap) intervenes. Never sleep at or before `now`.
        if let Err(bound) = issued {
            if self.has_queued() {
                self.scan_asleep_until = bound.min(self.chan.next_refresh_at()).max(now + 1);
            }
        }
        if let Some(p) = &mut self.profile {
            p.host_sched_ns = p.host_sched_ns.saturating_add(sched_t.lap());
        }
    }

    /// Scan-sleep verification: while `scan_asleep_until` claims every
    /// window entry is blocked, re-check both queues through the
    /// side-effect-free `issue_blocked_until` (the same timing rules as
    /// an issue attempt) and panic if anything could in fact issue.
    #[cfg(feature = "check-invariants")]
    fn assert_scan_asleep(&self, now: Cycle) {
        for p in self.read_q.iter().take(self.window) {
            assert!(
                self.chan.issue_blocked_until(p.coord, false, now) > now,
                "invariant violated: scan asleep until {} but read atom {} is \
                 issueable at {now}",
                self.scan_asleep_until,
                p.req.atom
            );
        }
        for p in self.write_q.iter().take(self.window) {
            assert!(
                self.chan.issue_blocked_until(p.coord, true, now) > now,
                "invariant violated: scan asleep until {} but write atom {} is \
                 issueable at {now}",
                self.scan_asleep_until,
                p.req.atom
            );
        }
    }

    /// Queue-capacity bounds, completion-memo coherence, and request
    /// conservation, checked every tick.
    #[cfg(feature = "check-invariants")]
    fn assert_conserved(&self) {
        assert!(
            self.read_q.len() <= self.read_cap && self.write_q.len() <= self.write_cap,
            "invariant violated: controller queue over capacity"
        );
        let min_done = self
            .inflight
            .iter()
            .map(|c| c.done)
            .min()
            .unwrap_or(Cycle::MAX);
        assert!(
            self.earliest_done <= min_done,
            "invariant violated: earliest_done memo ({}) is later than an \
             in-flight completion ({min_done}) — completions would be delayed",
            self.earliest_done
        );
        let mut issued_reads = 0u64;
        let mut issued_writes = 0u64;
        for class in TrafficClass::ALL {
            if class.is_read() {
                issued_reads += self.stats.count[class.index()];
            } else {
                issued_writes += self.stats.count[class.index()];
            }
        }
        assert_eq!(
            self.pushed_reads,
            self.read_q.len() as u64 + self.inflight.len() as u64 + self.popped_reads,
            "invariant violated: read conservation (pushed != queued + \
             in flight + completed)"
        );
        assert_eq!(
            issued_reads,
            self.inflight.len() as u64 + self.popped_reads,
            "invariant violated: issued reads do not match in-flight plus \
             completed"
        );
        assert_eq!(
            self.pushed_writes,
            self.write_q.len() as u64 + issued_writes,
            "invariant violated: write conservation (pushed != queued + issued)"
        );
    }

    /// Collects read completions whose data is available by `now` into a
    /// caller-owned buffer (cleared first), so the per-cycle hot path can
    /// reuse one allocation.
    pub fn pop_completions_into(&mut self, now: Cycle, out: &mut Vec<Completion>) {
        out.clear();
        if now < self.earliest_done {
            return;
        }
        let mut i = 0;
        let mut next = Cycle::MAX;
        while i < self.inflight.len() {
            if self.inflight[i].done <= now {
                out.push(self.inflight.swap_remove(i));
            } else {
                next = next.min(self.inflight[i].done);
                i += 1;
            }
        }
        self.earliest_done = next;
        #[cfg(feature = "check-invariants")]
        {
            self.popped_reads += out.len() as u64;
        }
        // Deterministic order regardless of swap_remove shuffling.
        out.sort_by_key(|c| (c.done, c.req.atom));
    }

    /// Earliest cycle at which this controller has (or may have) work, for
    /// idle fast-forwarding and the L2 slice's sleep memo. `Some(c)` with
    /// `c <= now` means the controller is busy right now; `Some(c)` with
    /// `c > now` is the earliest of: the scan memo's `scan_asleep_until`
    /// (only while a queue is non-empty — until then every tick is a
    /// skipped scan), the earliest in-flight read completion, and the
    /// next refresh; `None` means fully idle with nothing in flight and
    /// refresh off. Ticks before that cycle only count `busy_cycles`
    /// (see [`account_idle_span`](Self::account_idle_span)).
    ///
    /// The refresh is an event even though the channel catches up on it
    /// lazily, landing in the same state as long as no request issues in
    /// between: the catch-up runs only when a tick follows, and a slice
    /// asleep at the end of the run would never tick again, leaving its
    /// `refreshes` short.
    pub fn next_event(&self, _now: Cycle) -> Option<Cycle> {
        let mut wake = self.earliest_done.min(self.chan.next_refresh_at());
        if self.has_queued() {
            wake = wake.min(self.scan_asleep_until);
        }
        (wake != Cycle::MAX).then_some(wake)
    }

    /// `true` while a read or write waits in a queue (the condition that
    /// counts a tick as busy).
    fn has_queued(&self) -> bool {
        !self.read_q.is_empty() || !self.write_q.is_empty()
    }

    /// Accounts for `span` skipped ticks with no event in them (see
    /// [`next_event`](Self::next_event)), exactly as the ticks would have:
    /// one busy cycle each while a request is queued, and with it one
    /// scan-memo hit (a queued controller sleeps only on its scan memo).
    pub fn account_idle_span(&mut self, span: u64) {
        if self.has_queued() {
            self.stats.busy_cycles += span;
            if let Some(p) = &mut self.profile {
                p.scan_memo.hits.add(span);
            }
        }
    }

    /// Controller statistics (row counters folded in from the channel).
    pub fn stats(&self) -> McStats {
        let mut s = self.stats;
        s.row_hits = self.chan.row_hits;
        s.row_empties = self.chan.row_empties;
        s.row_conflicts = self.chan.row_conflicts;
        s.refreshes = self.chan.refreshes;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;

    fn ctrl() -> MemCtrl {
        MemCtrl::new(&GpuConfig::tiny().mem)
    }

    fn read(atom: u64) -> DramRequest {
        DramRequest {
            atom,
            class: TrafficClass::DataRead,
            tag: DramTag::DemandData { mshr: 0 },
        }
    }

    fn write(atom: u64) -> DramRequest {
        DramRequest {
            atom,
            class: TrafficClass::DataWrite,
            tag: DramTag::Write,
        }
    }

    fn run(mc: &mut MemCtrl, from: Cycle, to: Cycle) -> Vec<Completion> {
        let mut done = Vec::new();
        let mut popped = Vec::new();
        for now in from..to {
            mc.tick(now);
            mc.pop_completions_into(now, &mut popped);
            done.append(&mut popped);
        }
        done
    }

    #[test]
    fn single_read_completes() {
        let mut mc = ctrl();
        mc.push(read(0), 0);
        let done = run(&mut mc, 0, 40);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].req.atom, 0);
        // tRCD(5) + CAS(5) + burst(1) = issue at 0, data at 11.
        assert_eq!(done[0].done, 11);
        assert!(mc.is_idle());
    }

    #[test]
    fn row_hits_preferred_over_older_conflict() {
        let mut mc = ctrl();
        // Open row 0 of bank 0.
        mc.push(read(0), 0);
        let _ = run(&mut mc, 0, 15);
        // Conflict request (hashed bank 0, row 1 = atom 320) enqueued first, then a
        // row hit (atom 1). FR-FCFS issues the hit first.
        mc.push(read(320), 15);
        mc.push(read(1), 15);
        let done = run(&mut mc, 15, 80);
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].req.atom, 1, "row hit should complete first");
        assert_eq!(done[1].req.atom, 320);
    }

    #[test]
    fn writes_buffered_until_watermark() {
        let mut mc = ctrl();
        // tiny(): drain_high=12. Pushing 3 writes with pending reads keeps
        // the controller serving reads; writes drain only when reads dry up.
        mc.push(write(0), 0);
        mc.push(write(1), 0);
        mc.push(read(64), 0);
        // Read issues first (cycle 0) and completes at tRCD+CAS+burst = 11.
        let done = run(&mut mc, 0, 14);
        assert_eq!(done.len(), 1, "read served first");
        // After reads dry up, writes drain opportunistically.
        let _ = run(&mut mc, 14, 80);
        assert!(mc.is_idle());
        let s = mc.stats();
        assert_eq!(s.class_count(TrafficClass::DataWrite), 2);
        assert_eq!(s.class_count(TrafficClass::DataRead), 1);
    }

    #[test]
    fn drain_mode_batches_writes() {
        let mut cfg = GpuConfig::tiny();
        cfg.mem.write_drain_high = 4;
        cfg.mem.write_drain_low = 1;
        let mut mc = MemCtrl::new(&cfg.mem);
        for i in 0..5 {
            mc.push(write(i), 0);
        }
        mc.push(read(64), 0);
        // With the write queue above the watermark the controller enters
        // drain mode: the very first transaction issued is a write, even
        // though a read is waiting.
        mc.tick(0);
        let s = mc.stats();
        assert_eq!(s.class_count(TrafficClass::DataWrite), 1, "{s:?}");
        assert_eq!(s.class_count(TrafficClass::DataRead), 0, "{s:?}");
        // And the whole batch eventually drains.
        let mut popped = Vec::new();
        for now in 1..120 {
            mc.tick(now);
            mc.pop_completions_into(now, &mut popped);
        }
        assert!(mc.is_idle());
        assert_eq!(mc.stats().class_count(TrafficClass::DataWrite), 5);
    }

    #[test]
    fn queue_capacity_respected() {
        let mut mc = ctrl();
        let cap = GpuConfig::tiny().mem.read_queue;
        for i in 0..cap as u64 {
            assert!(mc.read_free() > 0);
            mc.push(read(i), 0);
        }
        assert_eq!(mc.read_free(), 0);
        assert!(mc.write_free() > 0);
    }

    #[test]
    #[should_panic(expected = "read queue overflow")]
    fn push_past_capacity_panics() {
        let mut mc = ctrl();
        for i in 0..=GpuConfig::tiny().mem.read_queue as u64 {
            mc.push(read(i), 0);
        }
    }

    #[test]
    fn streaming_reads_are_mostly_row_hits() {
        let mut mc = ctrl();
        let mut now = 0;
        let mut completed = 0;
        let mut popped = Vec::new();
        let mut next = 0u64;
        while completed < 64 {
            while next < 64 && mc.read_free() > 0 {
                mc.push(read(next), now);
                next += 1;
            }
            mc.tick(now);
            mc.pop_completions_into(now, &mut popped);
            completed += popped.len();
            now += 1;
            assert!(now < 10_000, "livelock");
        }
        let s = mc.stats();
        assert_eq!(s.row_empties, 1);
        assert_eq!(s.row_conflicts, 0);
        assert_eq!(s.row_hits, 63);
    }

    #[test]
    fn mean_read_latency_tracks_queueing() {
        let mut mc = ctrl();
        mc.push(read(0), 0);
        mc.push(read(320), 0); // conflict: will wait
        let _ = run(&mut mc, 0, 100);
        let s = mc.stats();
        assert_eq!(s.read_latency_count, 2);
        assert!(s.read_latency_sum > 2 * 11);
    }

    #[test]
    fn ecc_traffic_counted_separately() {
        let mut mc = ctrl();
        mc.push(
            DramRequest {
                atom: 5,
                class: TrafficClass::EccRead,
                tag: DramTag::RmwRead,
            },
            0,
        );
        mc.push(
            DramRequest {
                atom: 6,
                class: TrafficClass::EccWrite,
                tag: DramTag::Write,
            },
            0,
        );
        let _ = run(&mut mc, 0, 60);
        let s = mc.stats();
        assert_eq!(s.class_count(TrafficClass::EccRead), 1);
        assert_eq!(s.class_count(TrafficClass::EccWrite), 1);
        assert_eq!(s.class_count(TrafficClass::DataRead), 0);
    }

    #[test]
    fn issue_log_records_every_transaction_once() {
        let mut mc = ctrl();
        mc.push(read(0), 0);
        mc.push(read(320), 0); // conflict: queues behind the first read
        mc.push(write(64), 0);
        let issued = |mc: &MemCtrl| mc.stats().count.iter().sum::<u64>();
        let mut events = Vec::new();
        let mut popped = Vec::new();
        for now in 0..120 {
            let before = issued(&mc);
            mc.tick(now);
            mc.pop_completions_into(now, &mut popped);
            let ev = mc.take_last_issue();
            // One command per tick, so the one-event log misses none.
            assert_eq!(issued(&mc) - before, u64::from(ev.is_some()));
            assert!(ev.iter().all(|e| e.start == now));
            events.extend(ev);
        }
        assert_eq!(events.len(), 3);
        assert!(events.iter().all(|e| e.end > e.start));
        assert!(events.iter().any(|e| e.class == TrafficClass::DataWrite));
        // A read's log record spans enqueue to data, as the stats do.
        let s = mc.stats();
        let reads: Vec<&IssueEvent> = events.iter().filter(|e| e.class.is_read()).collect();
        assert_eq!(reads.len() as u64, s.read_latency_count);
        let sum: u64 = reads.iter().map(|e| e.end - e.start + e.queued).sum();
        assert_eq!(sum, s.read_latency_sum);
        assert!(reads.iter().any(|e| e.queued > 0));
        // Taking empties the log.
        assert_eq!(mc.take_last_issue(), None);
    }

    #[test]
    fn completions_sorted_by_time() {
        let mut mc = ctrl();
        mc.push(read(64), 0); // bank 1
        mc.push(read(0), 0); // bank 0
        let done = run(&mut mc, 0, 60);
        assert_eq!(done.len(), 2);
        assert!(done[0].done <= done[1].done);
    }
}
