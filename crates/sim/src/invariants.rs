//! Runtime invariant oracle (`check-invariants` builds only).
//!
//! The simulator's performance model leans on *memoized idleness*: the
//! cycle loop ticks only the SMs and L2 slices its wake calendar holds
//! awake, jumps over spans in which every component sleeps and no
//! crossbar message is due, and the memory controller skips FR-FCFS
//! scans while `scan_asleep_until` holds. Each memo is an unchecked
//! claim in the default build. Under the `check-invariants` feature
//! this module (plus `#[cfg]`-gated hooks in `gpu.rs`, `calendar.rs`,
//! `mem_ctrl.rs`, `dram.rs`, `l1.rs`, `l2.rs`, `mshr.rs` and `xbar.rs`)
//! turns every claim into an assertion:
//!
//! * **Memo conservativeness** — the loop *ticks through* predicted-idle
//!   spans instead of jumping, and the [`Oracle`] asserts that the
//!   machine's progress signature (every counter that moves only when
//!   real work happens) stays frozen until the predicted wake cycle. A
//!   component that acts earlier than its `next_event` /
//!   `next_timed_event` promised is caught on the very next cycle. Every
//!   cycle, each sleeper must sit in the calendar with a wake ahead that
//!   the calendar's timer covers; a sleeping SM's wake and stall reason
//!   are re-derived from live state, and a sleeping L2 slice is ticked
//!   anyway and must change nothing but the busy cycle its skip would
//!   have counted.
//! * **Scan-sleep exactness** — a sleeping controller scan must find
//!   nothing issuable. The sleep bound is the earliest cycle the failed
//!   scan's refused attempts reported, and `DramChannel::try_issue_at`
//!   and `DramChannel::issue_blocked_until` read one statement of the
//!   timing rules, so the two agree by construction.
//! * **Conservation** — requests in equal requests out plus requests in
//!   flight, at the crossbar, the L1/L2 MSHR files and the controller
//!   queues.
//! * **Protocol timing** — every committed DRAM issue re-asserts the
//!   tRCD/tRP/tRAS/tWR/turnaround/refresh constraints it claims to obey,
//!   and cycle time is checked monotonic.
//!
//! Ticking through idle spans is stats-neutral for completed runs (the
//! design invariant the oracle exists to check), so `SimStats` from an
//! instrumented run are bit-identical to the default build's — the
//! golden-regression values must reproduce under the feature. That
//! includes runs that time out mid-span: every refresh is a controller
//! event, so the jumping build stops on each one the ticking build
//! performs.

use crate::l2::L2Slice;
use crate::sm::SmCore;
use crate::types::Cycle;
use crate::xbar::Crossbar;

/// FNV-1a fold used for the progress signature. Any change to any folded
/// counter changes the signature with overwhelming probability; the
/// signature is only ever compared against itself within one run, so the
/// hash needs no cross-platform stability beyond determinism.
fn fold(sig: u64, v: u64) -> u64 {
    (sig ^ v).wrapping_mul(0x100_0000_01b3)
}

/// Fingerprint of all machine state that moves only when *real work*
/// happens. Stall/idle accounting, refresh catch-up and busy-cycle
/// counters are deliberately excluded — those legitimately advance while
/// the machine is provably idle. Everything else (issue counters, cache
/// hit/miss counters, DRAM transaction counts, queue depths, MSHR
/// occupancy, crossbar transport counters) must be frozen across a
/// predicted-idle span.
pub fn progress_signature(sms: &[SmCore], xbar: &Crossbar, slices: &[L2Slice]) -> u64 {
    let mut sig = 0xcbf2_9ce4_8422_2325;
    for sm in sms {
        sig = fold(sig, sm.stats().issued_ops);
        let l1 = sm.l1.stats();
        sig = fold(sig, l1.read_hits);
        sig = fold(sig, l1.read_misses);
        sig = fold(sig, l1.writes);
    }
    let x = xbar.stats();
    sig = fold(sig, x.requests);
    sig = fold(sig, x.responses);
    sig = fold(sig, x.rejects);
    sig = fold(sig, xbar.queued_requests() as u64);
    sig = fold(sig, xbar.queued_responses() as u64);
    for slice in slices {
        let s = slice.stats();
        sig = fold(sig, s.fills);
        sig = fold(sig, s.writebacks);
        sig = fold(sig, s.cache.read_hits);
        sig = fold(sig, s.cache.read_misses);
        sig = fold(sig, s.cache.write_hits);
        sig = fold(sig, s.cache.write_misses);
        sig = fold(sig, s.cache.evictions);
        let mc = slice.mc_stats();
        for c in mc.count {
            sig = fold(sig, c);
        }
        sig = fold(sig, mc.row_hits);
        sig = fold(sig, mc.row_empties);
        sig = fold(sig, mc.row_conflicts);
        sig = fold(sig, slice.mc.read_q_len() as u64);
        sig = fold(sig, slice.mc.write_q_len() as u64);
        sig = fold(sig, slice.mshrs_in_use() as u64);
    }
    sig
}

/// A predicted-idle span under verification: the loop claimed nothing
/// makes progress strictly before `until`, with the machine fingerprint
/// `sig` at prediction time.
#[derive(Debug, Clone, Copy)]
struct IdleSpan {
    until: Cycle,
    sig: u64,
}

/// Per-run oracle state owned by the cycle loop.
#[derive(Debug, Default)]
pub struct Oracle {
    /// Cycle of the previous `check_cycle` call, for monotonicity.
    last_now: Option<Cycle>,
    /// Currently-verified idle span, when one is predicted.
    span: Option<IdleSpan>,
}

impl Oracle {
    /// Fresh oracle.
    pub fn new() -> Self {
        Oracle::default()
    }

    /// Registers an idle-span prediction: nothing may make progress at
    /// any cycle up to (and at the start of) `until`. Called where the
    /// default build would jump.
    pub fn begin_idle_span(&mut self, until: Cycle, sig: u64) {
        self.span = Some(IdleSpan { until, sig });
    }

    /// Top-of-cycle check: cycle time is strictly monotonic, per-cycle
    /// structural invariants hold everywhere, and — inside a
    /// predicted-idle span — the progress signature is frozen.
    ///
    /// # Panics
    ///
    /// Panics on any invariant violation.
    pub fn check_cycle(&mut self, now: Cycle, sms: &[SmCore], xbar: &Crossbar, slices: &[L2Slice]) {
        if let Some(prev) = self.last_now {
            assert!(
                now > prev,
                "invariant violated: non-monotonic cycle time ({now} after {prev})"
            );
        }
        self.last_now = Some(now);
        xbar.assert_conserved();
        for sm in sms {
            sm.l1.assert_coherent();
        }
        for slice in slices {
            slice.assert_coherent();
        }
        if let Some(span) = self.span {
            if now <= span.until {
                let cur = progress_signature(sms, xbar, slices);
                assert_eq!(
                    cur, span.sig,
                    "invariant violated: progress during predicted-idle span \
                     (cycle {now}, span was predicted idle until {})",
                    span.until
                );
            }
            if now >= span.until {
                self.span = None;
            }
        }
    }
}
