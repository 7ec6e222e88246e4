//! Streaming-multiprocessor core model: warp scheduling and trace replay.
//!
//! Each SM hosts a set of resident warps replaying [`WarpTrace`]s, whose
//! ops and atom arenas it borrows from the caller's kernel trace for the
//! length of the run. Per cycle the SM can issue one instruction: compute
//! ops retire by simply making the warp busy for their latency; memory ops
//! are streamed through the load/store unit into the L1 at one coalesced
//! access per cycle. Loads block their warp until all sectors return
//! (latency is hidden by switching to other warps — the GPU execution
//! model); stores are posted.
//!
//! Two hardware warp schedulers are modelled: greedy-then-oldest (GTO, the
//! common default) and round-robin.

use crate::config::{CoreConfig, SchedulerPolicy};
use crate::l1::{L1Access, L1Cache};
use crate::trace::{PackedOp, WarpOp, WarpTrace};
use crate::types::{AccessKind, Cycle, LogicalAtom, SmId, WarpIdx};

#[derive(Debug)]
struct WarpState<'t> {
    /// The warp's ops, borrowed from the kernel trace. The slice carries
    /// its length, so `ready`/`done` read no further than this struct.
    ops: &'t [PackedOp],
    /// The warp's atom arena, which its memory ops index.
    atoms: &'t [LogicalAtom],
    /// Next op index.
    pc: usize,
    /// Warp unavailable until this cycle (compute latency).
    ready_at: Cycle,
    /// Outstanding load sectors.
    outstanding: u32,
    /// Accesses of the current memory op not yet handed to the L1.
    issuing_from: usize,
    /// The op at `pc` is a load or store. Cached because the issue stage
    /// and `next_event` ask it of the picked warp every cycle, and the
    /// trace itself is cold in the host cache.
    at_memory_op: bool,
}

impl<'t> WarpState<'t> {
    fn new(trace: &'t WarpTrace) -> Self {
        let (ops, atoms) = trace.parts();
        let at_memory_op = ops.first().is_some_and(|op| op.is_memory());
        WarpState {
            ops,
            atoms,
            pc: 0,
            ready_at: 0,
            outstanding: 0,
            issuing_from: 0,
            at_memory_op,
        }
    }

    /// Moves past the op at `pc`.
    fn advance(&mut self) {
        self.pc += 1;
        self.at_memory_op = self.ops.get(self.pc).is_some_and(|op| op.is_memory());
    }

    /// The op at `pc`.
    fn op(&self) -> WarpOp<'t> {
        self.ops[self.pc].view(self.atoms)
    }

    /// Fully retired: all ops issued, trailing compute latency elapsed,
    /// and no loads outstanding.
    fn done(&self, now: Cycle) -> bool {
        self.pc >= self.ops.len() && self.outstanding == 0 && self.ready_at <= now
    }

    /// Ready to be picked by the scheduler this cycle.
    fn ready(&self, now: Cycle) -> bool {
        self.pc < self.ops.len() && self.ready_at <= now && self.outstanding == 0
    }
}

/// Per-SM statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SmStats {
    /// Instructions issued (trace ops started).
    pub issued_ops: u64,
    /// Idle cycles where no warp was ready (all blocked on memory or
    /// compute latency) — the latency-bound stall reason.
    pub stall_no_ready_warp: u64,
    /// Idle cycles where a ready warp could not issue its memory op
    /// because the LSU was streaming another op — the structural hazard.
    pub stall_lsu_busy: u64,
}

impl SmStats {
    /// Cycles in which no warp could issue: the two stall reasons
    /// partition them.
    pub fn idle_cycles(&self) -> u64 {
        self.stall_no_ready_warp + self.stall_lsu_busy
    }
}

/// Why a tick's issue stage issued nothing, which fixes what the tick
/// counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallReason {
    /// No warp is ready: all are blocked on memory or compute latency.
    /// Counts an idle and a `stall_no_ready_warp` cycle.
    NoReadyWarp,
    /// The picked warp's memory op waits for the busy LSU. Counts an
    /// idle and a `stall_lsu_busy` cycle.
    LsuBusy,
    /// Every warp has retired: the SM counts nothing.
    AllDone,
}

/// One SM: warps plus its private L1. `'t` is the lifetime of the kernel
/// trace the warps replay.
#[derive(Debug)]
pub struct SmCore<'t> {
    id: SmId,
    warps: Vec<WarpState<'t>>,
    policy: SchedulerPolicy,
    /// GTO current warp / RR rotation pointer.
    cursor: usize,
    /// Warp currently streaming a memory op through the LSU, if any.
    lsu_warp: Option<usize>,
    /// The SM's L1 cache.
    pub l1: L1Cache,
    stats: SmStats,
}

impl<'t> SmCore<'t> {
    /// Builds an SM with the given resident warp traces (at most one per
    /// hardware warp slot), borrowed for the SM's lifetime.
    pub fn new(
        id: SmId,
        cfg: &CoreConfig,
        l1: L1Cache,
        traces: impl IntoIterator<Item = &'t WarpTrace>,
    ) -> Self {
        let warps: Vec<WarpState<'t>> = traces.into_iter().map(WarpState::new).collect();
        assert!(
            warps.len() <= cfg.warps_per_sm as usize,
            "more traces than warp slots"
        );
        SmCore {
            id,
            warps,
            policy: cfg.scheduler,
            cursor: 0,
            lsu_warp: None,
            l1,
            stats: SmStats::default(),
        }
    }

    /// The SM identifier.
    pub fn id(&self) -> SmId {
        self.id
    }

    /// `true` when every warp has retired all its ops (including trailing
    /// compute latency) as of `now`.
    pub fn all_warps_done(&self, now: Cycle) -> bool {
        self.warps.iter().all(|w| w.done(now))
    }

    /// Applies completed-load notifications from the L1.
    fn apply_completions(&mut self) {
        let warps = &mut self.warps;
        for warp in self.l1.drain_completions() {
            let w = &mut warps[warp as usize];
            debug_assert!(w.outstanding > 0, "completion for idle warp");
            w.outstanding -= 1;
        }
    }

    /// Streams accesses of the LSU-resident memory op into the L1.
    fn pump_lsu(&mut self) {
        let Some(widx) = self.lsu_warp else { return };
        // A full L1 queue stalls the LSU before the (host-cache-cold)
        // trace is touched.
        if !self.l1.can_accept() {
            return;
        }
        let w = &mut self.warps[widx];
        let (atoms, kind) = match w.op() {
            WarpOp::Load { atoms } => (atoms, AccessKind::Read),
            WarpOp::Store { atoms, full } => (atoms, AccessKind::Write { full }),
            WarpOp::Compute { .. } => unreachable!("compute op in LSU"),
        };
        // One access per cycle through the LSU.
        if w.issuing_from <= atoms.len() {
            let i = w.issuing_from - 1;
            let atom = atoms[i];
            self.l1.push(L1Access {
                warp: widx as WarpIdx,
                atom,
                kind,
            });
            if kind == AccessKind::Read {
                w.outstanding += 1;
            }
            w.issuing_from += 1;
            if w.issuing_from > atoms.len() {
                // All accesses dispatched: retire the op from the front end.
                w.advance();
                w.issuing_from = 0;
                self.lsu_warp = None;
            }
        }
    }

    /// Picks a warp to issue this cycle, per the scheduling policy.
    fn pick_warp(&self, now: Cycle) -> Option<usize> {
        let n = self.warps.len();
        if n == 0 {
            return None;
        }
        match self.policy {
            SchedulerPolicy::GreedyThenOldest => {
                if self.cursor < n && self.warps[self.cursor].ready(now) {
                    return Some(self.cursor);
                }
                (0..n).find(|&i| self.warps[i].ready(now))
            }
            SchedulerPolicy::RoundRobin => (1..=n)
                .map(|k| (self.cursor + k) % n)
                .find(|&i| self.warps[i].ready(now)),
        }
    }

    /// Advances the SM one cycle. `map` and `send` are forwarded to the L1
    /// (protection address translation and crossbar injection).
    ///
    /// Returns why the issue stage issued nothing, or `None` when it
    /// issued. Only a tick that issued nothing can leave the SM
    /// quiescent, so the cycle loop probes [`next_event`](Self::next_event)
    /// for its sleep memo only then instead of paying the scan on every
    /// issuing tick. While the SM then has no event, every later tick
    /// issues nothing for the same reason: the issue stage changed no
    /// state, and the scheduler's pick changes only when a warp becomes
    /// ready, which is an event.
    pub fn tick(
        &mut self,
        now: Cycle,
        map: &mut dyn FnMut(crate::types::LogicalAtom) -> crate::types::PhysLoc,
        send: &mut dyn FnMut(crate::msg::L2Request) -> bool,
    ) -> Option<StallReason> {
        self.l1.tick(now, map, send);
        self.apply_completions();
        // Continue streaming the in-flight memory op.
        self.pump_lsu();
        // Issue stage.
        let Some(widx) = self.pick_warp(now) else {
            if self.all_warps_done(now) {
                return Some(StallReason::AllDone);
            }
            self.stats.stall_no_ready_warp += 1;
            return Some(StallReason::NoReadyWarp);
        };
        let w = &mut self.warps[widx];
        if w.at_memory_op {
            if self.lsu_warp.is_some() {
                // LSU busy: structural hazard, no issue this cycle.
                self.stats.stall_lsu_busy += 1;
                return Some(StallReason::LsuBusy);
            }
            w.issuing_from = 1;
            self.lsu_warp = Some(widx);
            self.stats.issued_ops += 1;
            self.cursor = widx;
            self.pump_lsu();
        } else {
            if let WarpOp::Compute { cycles } = w.op() {
                w.ready_at = now + cycles as Cycle;
            }
            w.advance();
            self.stats.issued_ops += 1;
            self.cursor = widx;
        }
        None
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> SmStats {
        self.stats
    }

    /// Earliest cycle at which this SM can make progress, for idle
    /// fast-forwarding. `Some(c <= now)` means the SM would do real work
    /// this cycle (LSU streaming, a ready warp, pending L1 work);
    /// `Some(c > now)` is the next compute-latency or L1-hit maturation;
    /// `None` means nothing will ever happen without an external response
    /// (or the SM is fully done). Warps blocked on outstanding loads carry
    /// no event of their own — their wakeup is the response chain through
    /// the crossbar/L2/DRAM, which reports its own events. Neither does
    /// an LSU stuck behind a full L1 input queue whose head is blocked on
    /// MSHRs (see [`L1Cache::next_event`]), nor a scheduler that picks a
    /// warp whose memory op waits for that LSU: both move only once a
    /// response arrives, and the pick changes only when a warp becomes
    /// ready.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if self.lsu_warp.is_some() && self.l1.can_accept() {
            return Some(now);
        }
        let mut wake = self.l1.next_event(now);
        if matches!(wake, Some(c) if c <= now) {
            return wake;
        }
        // From here on, a busy LSU is stuck until a response arrives.
        let lsu_stuck = self.lsu_warp.is_some();
        for w in &self.warps {
            if w.outstanding > 0 {
                continue;
            }
            if w.ready_at > now {
                wake = Some(wake.map_or(w.ready_at, |c| c.min(w.ready_at)));
            } else if w.pc < w.ops.len() && !lsu_stuck {
                // Ready to issue this very cycle.
                return Some(now);
            }
        }
        // A stuck LSU holds back memory ops only: the SM still issues if
        // the scheduler picks a warp at a compute op.
        if lsu_stuck
            && self
                .pick_warp(now)
                .is_some_and(|i| !self.warps[i].at_memory_op)
        {
            return Some(now);
        }
        wake
    }

    /// The stall a tick at `now` would count. Exact only when the SM
    /// cannot act at `now` (`next_event(now)` is later): then a picked
    /// warp can only be a memory op waiting for a stuck LSU.
    pub fn stall_reason(&self, now: Cycle) -> StallReason {
        if self.all_warps_done(now) {
            StallReason::AllDone
        } else if self.pick_warp(now).is_some() {
            StallReason::LsuBusy
        } else {
            StallReason::NoReadyWarp
        }
    }

    /// Accounts for `span` ticks skipped while the SM slept, exactly as
    /// the ticks would have counted them. The cycle loop's sleep memo
    /// caches the `reason` [`tick`](Self::tick) returned when the SM fell
    /// asleep, which cannot change before its next event, and settles
    /// the span in bulk instead of re-scanning the warps every cycle.
    pub fn account_stalled_span(&mut self, span: u64, reason: StallReason) {
        let counter = match reason {
            StallReason::NoReadyWarp => &mut self.stats.stall_no_ready_warp,
            StallReason::LsuBusy => &mut self.stats.stall_lsu_busy,
            StallReason::AllDone => return,
        };
        *counter += span;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use crate::msg::L2Request;
    use crate::types::{LogicalAtom, PhysLoc};

    fn mk_sm(traces: &[WarpTrace]) -> SmCore<'_> {
        let cfg = GpuConfig::tiny();
        let l1 = L1Cache::new(SmId(0), &cfg.l1);
        SmCore::new(SmId(0), &cfg.core, l1, traces)
    }

    fn identity(atom: LogicalAtom) -> PhysLoc {
        PhysLoc::new(0, atom.0)
    }

    /// Runs the SM, answering every L2 read after `mem_latency` cycles.
    fn run_with_memory(sm: &mut SmCore<'_>, limit: Cycle, mem_latency: Cycle) -> Cycle {
        let mut pending: Vec<(Cycle, L2Request)> = Vec::new();
        for now in 0..limit {
            // Deliver matured responses.
            let mut i = 0;
            while i < pending.len() {
                if pending[i].0 <= now {
                    let (_, req) = pending.remove(i);
                    sm.l1.accept_response(crate::msg::L2Response {
                        loc: req.loc,
                        dest: req.src,
                        l1_mshr: req.l1_mshr,
                    });
                } else {
                    i += 1;
                }
            }
            let mut newly = Vec::new();
            sm.tick(now, &mut identity, &mut |req| {
                if !req.kind.is_write() {
                    newly.push((now + mem_latency, req));
                }
                true
            });
            pending.extend(newly);
            if sm.all_warps_done(now) && pending.is_empty() {
                return now;
            }
        }
        panic!("SM did not finish within {limit} cycles");
    }

    /// [`run_with_memory`] with the cycle loop's sleep memo: after a tick
    /// that issues nothing, the SM skips ticks until its `next_event` or
    /// a response, and accounts the skipped ticks in bulk. Returns the
    /// finishing cycle, the ticks skipped per stall reason
    /// (`[no ready warp, LSU busy]`), and how many sleeps had no event of
    /// their own (they last until a response).
    fn run_sleeping(
        sm: &mut SmCore<'_>,
        limit: Cycle,
        mem_latency: Cycle,
    ) -> (Cycle, [u64; 2], u64) {
        let mut pending: Vec<(Cycle, L2Request)> = Vec::new();
        let mut wake: Cycle = 0;
        let mut stall = StallReason::AllDone;
        let mut skipped = 0;
        let mut skipped_by = [0; 2];
        let mut response_sleeps = 0;
        let mut settle = |sm: &mut SmCore<'_>, skipped: &mut u64, stall: StallReason| {
            sm.account_stalled_span(*skipped, stall);
            match stall {
                StallReason::NoReadyWarp => skipped_by[0] += *skipped,
                StallReason::LsuBusy => skipped_by[1] += *skipped,
                StallReason::AllDone => {}
            }
            *skipped = 0;
        };
        for now in 0..limit {
            if now < wake && pending.iter().all(|&(at, _)| at > now) {
                skipped += 1;
            } else {
                settle(sm, &mut skipped, stall);
                pending.retain(|&(at, req)| {
                    if at <= now {
                        sm.l1.accept_response(crate::msg::L2Response {
                            loc: req.loc,
                            dest: req.src,
                            l1_mshr: req.l1_mshr,
                        });
                    }
                    at > now
                });
                let mut newly = Vec::new();
                let tick = sm.tick(now, &mut identity, &mut |req| {
                    if !req.kind.is_write() {
                        newly.push((now + mem_latency, req));
                    }
                    true
                });
                pending.extend(newly);
                wake = 0;
                if let Some(reason) = tick {
                    stall = reason;
                    wake = sm.next_event(now).unwrap_or_else(|| {
                        response_sleeps += 1;
                        Cycle::MAX
                    });
                }
            }
            if sm.all_warps_done(now) && pending.is_empty() {
                settle(sm, &mut skipped, stall);
                return (now, skipped_by, response_sleeps);
            }
        }
        panic!("SM did not finish within {limit} cycles");
    }

    /// Warps that exhaust the L1's MSHRs: warp 0 streams 24 misses (the
    /// tiny L1 has 8 MSHRs and an 8-entry queue, so its LSU gets stuck),
    /// warp 1 waits behind the LSU with its own loads, and the others
    /// add compute gaps and posted stores.
    fn mshr_exhausting_warps() -> Vec<WarpTrace> {
        let run = |base: u64, n: u64| -> Vec<LogicalAtom> {
            (0..n).map(|i| LogicalAtom(base + i * 100)).collect()
        };
        vec![
            WarpTrace::new([
                WarpOp::Load { atoms: &run(0, 24) },
                WarpOp::Compute { cycles: 2 },
            ]),
            WarpTrace::new([
                WarpOp::Load {
                    atoms: &run(10_000, 4),
                },
                WarpOp::Compute { cycles: 3 },
                WarpOp::Load {
                    atoms: &run(20_000, 4),
                },
            ]),
            WarpTrace::new([
                WarpOp::Compute { cycles: 20 },
                WarpOp::Load {
                    atoms: &run(30_000, 8),
                },
            ]),
            WarpTrace::new([
                WarpOp::Store {
                    atoms: &(0..4).map(|i| LogicalAtom(40_000 + i)).collect::<Vec<_>>(),
                    full: true,
                },
                WarpOp::Load {
                    atoms: &run(50_000, 2),
                },
            ]),
        ]
    }

    #[test]
    fn mshr_blocked_sm_sleeps_until_a_response() {
        let warps = mshr_exhausting_warps();
        let mut ticked = mk_sm(&warps);
        let end_ticked = run_with_memory(&mut ticked, 10_000, 60);
        let mut slept = mk_sm(&warps);
        let (end_slept, skipped_by, response_sleeps) = run_sleeping(&mut slept, 10_000, 60);
        assert_eq!(end_slept, end_ticked);
        assert_eq!(slept.stats(), ticked.stats());
        assert_eq!(slept.l1.stats(), ticked.l1.stats());
        // Both stall kinds were slept through, and some sleeps lasted
        // until a response.
        assert!(skipped_by.iter().all(|&n| n > 0), "{skipped_by:?}");
        assert!(response_sleeps > 0);
        let s = ticked.stats();
        assert!(s.stall_lsu_busy > 0 && s.stall_no_ready_warp > 0, "{s:?}");
    }

    /// The probe's promise, cycle by cycle: whenever `next_event` says
    /// the SM cannot act now, the tick issues nothing. Warp 1 keeps
    /// issuing compute ops past the stuck LSU, which the probe must see
    /// even though memory ops are waiting too.
    #[test]
    fn quiet_probe_means_the_tick_issues_nothing() {
        let mut warps = mshr_exhausting_warps();
        warps[1] = WarpTrace::new(vec![WarpOp::Compute { cycles: 3 }; 60]);
        let mut sm = mk_sm(&warps);
        let mut pending: Vec<(Cycle, L2Request)> = Vec::new();
        let mut quiet_ticks = 0;
        for now in 0..10_000 {
            pending.retain(|&(at, req)| {
                if at <= now {
                    sm.l1.accept_response(crate::msg::L2Response {
                        loc: req.loc,
                        dest: req.src,
                        l1_mshr: req.l1_mshr,
                    });
                }
                at > now
            });
            let quiet = sm.next_event(now).is_none_or(|c| c > now);
            let before = (sm.stats().issued_ops, sm.l1.stats());
            let mut newly = Vec::new();
            let tick = sm.tick(now, &mut identity, &mut |req| {
                if !req.kind.is_write() {
                    newly.push((now + 60, req));
                }
                true
            });
            if quiet {
                quiet_ticks += 1;
                assert!(tick.is_some(), "quiet SM issued at {now}");
                assert!(newly.is_empty(), "quiet SM sent a request at {now}");
                assert_eq!(sm.stats().issued_ops, before.0);
                let l1 = sm.l1.stats();
                assert_eq!(
                    (l1.read_hits, l1.read_misses),
                    (before.1.read_hits, before.1.read_misses)
                );
            }
            pending.extend(newly);
            if sm.all_warps_done(now) && pending.is_empty() {
                assert!(quiet_ticks > 100, "only {quiet_ticks} quiet ticks");
                return;
            }
        }
        panic!("SM did not finish");
    }

    #[test]
    fn compute_only_warp_finishes_in_sum_of_latencies() {
        let trace = WarpTrace::new(vec![
            WarpOp::Compute { cycles: 10 },
            WarpOp::Compute { cycles: 5 },
        ]);
        let mut sm = mk_sm(std::slice::from_ref(&trace));
        let end = run_with_memory(&mut sm, 1000, 1);
        // Issue at 0, ready at 10, issue at 10, ready at 15.
        assert!((14..=16).contains(&end), "end={end}");
        assert_eq!(sm.stats().issued_ops, 2);
    }

    #[test]
    fn load_blocks_until_response() {
        let trace = WarpTrace::new(vec![
            WarpOp::Load {
                atoms: &[LogicalAtom(0)],
            },
            WarpOp::Compute { cycles: 1 },
        ]);
        let mut sm = mk_sm(std::slice::from_ref(&trace));
        let end = run_with_memory(&mut sm, 1000, 50);
        assert!(end >= 50, "load latency not respected: end={end}");
    }

    #[test]
    fn stores_are_posted() {
        let trace = WarpTrace::new(vec![
            WarpOp::Store {
                atoms: &[LogicalAtom(0)],
                full: true,
            },
            WarpOp::Compute { cycles: 1 },
        ]);
        let mut sm = mk_sm(std::slice::from_ref(&trace));
        // Even with huge memory latency the warp never waits on the store.
        let end = run_with_memory(&mut sm, 100, 10_000);
        assert!(end < 20, "store must not block: end={end}");
    }

    #[test]
    fn multiple_warps_overlap_memory_latency() {
        // 4 warps each loading a distinct atom with 100-cycle memory: TLP
        // should overlap the latencies rather than serializing 4 x 100.
        let mk = |i: u64| {
            WarpTrace::new(vec![WarpOp::Load {
                atoms: &[LogicalAtom(i * 1000)],
            }])
        };
        let traces: Vec<WarpTrace> = (0..4).map(mk).collect();
        let mut sm = mk_sm(&traces);
        let end = run_with_memory(&mut sm, 10_000, 100);
        assert!(end < 200, "latency not overlapped: end={end}");
    }

    #[test]
    fn gto_prefers_current_warp() {
        // Warp 0: two compute ops; warp 1: one compute op. GTO sticks with
        // warp 0 until it stalls.
        let t0 = WarpTrace::new(vec![
            WarpOp::Compute { cycles: 0 },
            WarpOp::Compute { cycles: 0 },
        ]);
        let t1 = WarpTrace::new(vec![WarpOp::Compute { cycles: 0 }]);
        let traces = [t0, t1];
        let mut sm = mk_sm(&traces);
        sm.tick(0, &mut identity, &mut |_| true);
        sm.tick(1, &mut identity, &mut |_| true);
        // After two cycles warp 0 (cursor) should have issued both its ops.
        assert_eq!(sm.warps[0].pc, 2);
        assert_eq!(sm.warps[1].pc, 0);
    }

    #[test]
    fn round_robin_alternates() {
        let mk = || {
            WarpTrace::new(vec![
                WarpOp::Compute { cycles: 0 },
                WarpOp::Compute { cycles: 0 },
            ])
        };
        let cfg = GpuConfig::tiny();
        let mut core_cfg = cfg.core;
        core_cfg.scheduler = SchedulerPolicy::RoundRobin;
        let l1 = L1Cache::new(SmId(0), &cfg.l1);
        let traces = [mk(), mk()];
        let mut sm = SmCore::new(SmId(0), &core_cfg, l1, &traces);
        sm.tick(0, &mut identity, &mut |_| true);
        sm.tick(1, &mut identity, &mut |_| true);
        assert_eq!(sm.warps[0].pc, 1);
        assert_eq!(sm.warps[1].pc, 1);
    }

    #[test]
    fn lsu_structural_hazard_serializes_memory_ops() {
        // Two warps with multi-atom loads: the second cannot start
        // streaming until the first finishes dispatching.
        let mk = |base: u64| {
            WarpTrace::new(vec![WarpOp::Load {
                atoms: &(0..4)
                    .map(|i| LogicalAtom(base + i * 1000))
                    .collect::<Vec<_>>(),
            }])
        };
        let traces = [mk(0), mk(100_000)];
        let mut sm = mk_sm(&traces);
        let mut sent_at: Vec<Cycle> = Vec::new();
        for now in 0..20 {
            sm.tick(now, &mut identity, &mut |req| {
                if !req.kind.is_write() {
                    sent_at.push(now);
                    let _ = req;
                }
                true
            });
        }
        // 8 accesses, at most one per cycle.
        assert_eq!(sent_at.len(), 8);
        for w in sent_at.windows(2) {
            assert!(w[1] > w[0], "more than one LSU access in a cycle");
        }
    }

    #[test]
    fn both_stall_reasons_are_counted() {
        // One warp blocked on a long load: every idle cycle while it waits
        // is a "no ready warp" stall. Two warps with back-to-back memory
        // ops add "LSU busy" structural stalls.
        let t0 = WarpTrace::new(vec![WarpOp::Load {
            atoms: &(0..4).map(|i| LogicalAtom(i * 1000)).collect::<Vec<_>>(),
        }]);
        let t1 = WarpTrace::new(vec![WarpOp::Load {
            atoms: &(0..4)
                .map(|i| LogicalAtom(100_000 + i * 1000))
                .collect::<Vec<_>>(),
        }]);
        let traces = [t0, t1];
        let mut sm = mk_sm(&traces);
        let _ = run_with_memory(&mut sm, 10_000, 100);
        let s = sm.stats();
        assert!(s.stall_no_ready_warp > 0, "{s:?}");
        assert!(s.stall_lsu_busy > 0, "{s:?}");
    }

    #[test]
    fn empty_sm_is_done_immediately() {
        let sm = mk_sm(&[]);
        assert!(sm.all_warps_done(0));
    }

    #[test]
    #[should_panic(expected = "more traces than warp slots")]
    fn rejects_too_many_traces() {
        let cfg = GpuConfig::tiny();
        let traces: Vec<WarpTrace> = (0..cfg.core.warps_per_sm + 1)
            .map(|_| WarpTrace::new(vec![WarpOp::Compute { cycles: 1 }]))
            .collect();
        let l1 = L1Cache::new(SmId(0), &cfg.l1);
        let _ = SmCore::new(SmId(0), &cfg.core, l1, &traces);
    }
}
