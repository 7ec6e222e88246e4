//! Self-profiling primitives: host wall-time attribution for the
//! simulator and the report types serialized into `results/profile.json`
//! by `ccx run --profile`.
//!
//! # Why host time lives here
//!
//! The determinism lint (`cargo xtask lint`) bans wall-clock tokens in
//! the simulator crates because simulated behavior must never depend on
//! host time. Profiling is the one sanctioned exception: its *output*
//! is host time, and that output is never fed back into the simulation.
//! All `Instant` mentions are confined to this module behind
//! [`HostStamp`] / [`PhaseTimer`], each carrying a documented
//! `lint: allow(wall-clock)` waiver, so simulator code can time itself
//! without naming a clock.
//!
//! # Overhead discipline
//!
//! Same contract as the rest of this crate: every probe is gated on an
//! `Option` (or the `None` arm of [`PhaseTimer`]). Disabled profiling
//! costs one predictable branch per probe site and leaves `SimStats`
//! bit-identical — the golden corpus enforces this.

use crate::{Counter, Histogram};
use serde::{Deserialize, Serialize};
use std::time::Instant; // lint: allow(wall-clock) reason=host-time profiler: wall time is the measured output here and never feeds back into simulated state

/// Schema version stamped into `profile.json` (see [`ProfileReport`]).
pub const PROFILE_SCHEMA: u32 = 1;

/// An opaque host-clock reading. The only way to extract anything from
/// it is a duration relative to another reading, so simulated state
/// cannot absorb absolute host time.
#[derive(Debug, Clone, Copy)]
pub struct HostStamp(Instant); // lint: allow(wall-clock) reason=host-time profiler: opaque stamp type; only durations escape

impl HostStamp {
    /// Reads the host clock now.
    pub fn now() -> Self {
        HostStamp(Instant::now()) // lint: allow(wall-clock) reason=host-time profiler: the single clock-read site behind PhaseTimer
    }

    /// Nanoseconds from this stamp to now (saturating).
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Nanoseconds from `earlier` to this stamp (0 if not actually
    /// earlier; `Instant::duration_since` saturates).
    pub fn since(&self, earlier: HostStamp) -> u64 {
        u64::try_from(self.0.duration_since(earlier.0).as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A restartable lap timer for hot loops.
///
/// Built disabled ([`PhaseTimer::start`] with `enabled == false`) it
/// holds no stamp and [`PhaseTimer::lap`] is a branch returning 0 — the
/// simulator threads one of these through its cycle loop unconditionally
/// and pays nothing when profiling is off.
#[derive(Debug, Clone, Copy)]
pub struct PhaseTimer(Option<HostStamp>);

impl PhaseTimer {
    /// Starts a timer; a disabled timer never reads the clock.
    #[inline]
    pub fn start(enabled: bool) -> Self {
        PhaseTimer(if enabled {
            Some(HostStamp::now())
        } else {
            None
        })
    }

    /// Nanoseconds since the previous lap (or start), and resets the
    /// reference point. Returns 0 when disabled.
    #[inline]
    pub fn lap(&mut self) -> u64 {
        match &mut self.0 {
            Some(stamp) => {
                let now = HostStamp::now();
                let ns = now.since(*stamp);
                *stamp = now;
                ns
            }
            None => 0,
        }
    }

    /// Resets the reference point without attributing the elapsed span
    /// anywhere (used to drop uninteresting sections).
    #[inline]
    pub fn reset(&mut self) {
        if let Some(stamp) = &mut self.0 {
            *stamp = HostStamp::now();
        }
    }

    /// True when this timer actually reads the clock.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }
}

/// Hit/miss tally for a memoization site (SM sleep memo, FR-FCFS
/// scan-sleep memo). Uses [`Counter`] so saturation semantics are shared
/// with every other probe counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MemoStats {
    /// Times the memo short-circuited the work.
    pub hits: Counter,
    /// Times the work actually ran.
    pub misses: Counter,
}

impl MemoStats {
    /// Records a memo hit.
    pub fn hit(&mut self) {
        self.hits.inc();
    }

    /// Records a memo miss.
    pub fn miss(&mut self) {
        self.misses.inc();
    }

    /// Total lookups (saturating).
    pub fn total(&self) -> u64 {
        self.hits.get().saturating_add(self.misses.get())
    }

    /// Fraction of lookups served by the memo, in `[0, 1]` (0 when
    /// nothing was recorded).
    pub fn hit_rate(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.hits.get() as f64 / total as f64
        }
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: &MemoStats) {
        self.hits.add(other.hits.get());
        self.misses.add(other.misses.get());
    }
}

/// Per-channel load row in the imbalance report: how much work one
/// memory channel (and its 1:1 L2 slice + controller) absorbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ChannelLoad {
    /// Channel index.
    pub channel: u32,
    /// DRAM read commands issued (data + ECC).
    pub reads: u64,
    /// DRAM write commands issued (data + ECC).
    pub writes: u64,
    /// Cycles the controller had work queued.
    pub busy_cycles: u64,
    /// Row-buffer hits among issued commands.
    pub row_hits: u64,
    /// Row-buffer empties + conflicts among issued commands.
    pub row_misses: u64,
    /// Host nanoseconds spent ticking this channel's slice domain
    /// (L2 slice + controller + DRAM scheduling).
    pub host_ns: u64,
}

/// A self-profile of one simulator run: where host wall-time went per
/// component, how effective the idle/sleep memos were, and how evenly
/// load spread across channels.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SimProfile {
    /// Simulated cycles covered by the profile.
    pub cycles: u64,
    /// Host nanoseconds for the whole instrumented run.
    pub host_ns_total: u64,
    /// Host nanoseconds attributed per component, in a fixed emission
    /// order (`sm`, `l1`, `xbar`, `l2`, `mc`, `dram`, `flush`,
    /// `idle_probe`, `other`). A vec of pairs rather than a map so JSON
    /// key order is deterministic.
    pub components: Vec<(String, u64)>,
    /// Idle fast-forward jumps taken.
    pub idle_jumps: u64,
    /// Simulated cycles skipped by idle fast-forward.
    pub idle_cycles_skipped: u64,
    /// Distribution of idle fast-forward span lengths, in cycles.
    pub idle_spans: Histogram,
    /// Per-SM sleep memo effectiveness (hit = SM tick skipped).
    pub sm_sleep: MemoStats,
    /// Per-L2-slice sleep memo effectiveness (hit = slice tick skipped),
    /// summed over slices. Defaults to empty so profiles written before
    /// the memo existed still load.
    #[serde(default)]
    pub slice_sleep: MemoStats,
    /// FR-FCFS scan-sleep memo effectiveness (hit = queue scan skipped),
    /// summed over channels. One lookup per busy controller cycle, ticked
    /// or skipped with a sleeping slice: hits + misses equals the
    /// channels' summed `busy_cycles`.
    pub scan_memo: MemoStats,
    /// Window entries examined per performed first-ready scan, summed
    /// over channels.
    pub scan_depth: Histogram,
    /// Per-channel load table.
    pub channels: Vec<ChannelLoad>,
}

impl SimProfile {
    /// Adds `ns` to the named component bucket (appending it if new).
    pub fn add_component_ns(&mut self, name: &str, ns: u64) {
        if let Some((_, total)) = self.components.iter_mut().find(|(n, _)| n == name) {
            *total = total.saturating_add(ns);
        } else {
            self.components.push((name.to_string(), ns));
        }
    }

    /// Host nanoseconds attributed to `name` (0 if absent).
    pub fn component_ns(&self, name: &str) -> u64 {
        self.components
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, ns)| *ns)
    }

    /// Busy-cycle imbalance across channels: max/mean of
    /// [`ChannelLoad::busy_cycles`]. 1.0 is perfectly balanced; returns
    /// 1.0 when there are no channels or no busy cycles at all.
    pub fn busy_imbalance(&self) -> f64 {
        imbalance(self.channels.iter().map(|c| c.busy_cycles))
    }
}

/// max/mean over a sequence (1.0 for empty or all-zero input).
fn imbalance(values: impl Iterator<Item = u64>) -> f64 {
    let mut n = 0u64;
    let mut sum = 0u64;
    let mut max = 0u64;
    for v in values {
        n += 1;
        sum = sum.saturating_add(v);
        max = max.max(v);
    }
    if n == 0 || sum == 0 {
        1.0
    } else {
        max as f64 / (sum as f64 / n as f64)
    }
}

/// One matrix cell's profile inside a [`ProfileReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellProfile {
    /// Workload name.
    pub workload: String,
    /// Protection-scheme name.
    pub scheme: String,
    /// The cell's simulator self-profile.
    pub profile: SimProfile,
}

/// Root of `results/profile.json`: one entry per simulated matrix cell.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ProfileReport {
    /// Format version ([`PROFILE_SCHEMA`]).
    pub schema: u32,
    /// Per-cell profiles in execution order.
    pub cells: Vec<CellProfile>,
}

impl ProfileReport {
    /// Creates an empty report at the current schema version.
    pub fn new() -> Self {
        ProfileReport {
            schema: PROFILE_SCHEMA,
            cells: Vec::new(),
        }
    }

    /// Mean over cells of a per-profile metric (0 when empty).
    fn mean_over_cells(&self, f: impl Fn(&SimProfile) -> f64) -> f64 {
        if self.cells.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.cells.iter().map(|c| f(&c.profile)).sum();
        sum / self.cells.len() as f64
    }

    /// Mean SM sleep-memo hit rate across cells.
    pub fn mean_sm_sleep_hit_rate(&self) -> f64 {
        self.mean_over_cells(|p| p.sm_sleep.hit_rate())
    }

    /// Mean FR-FCFS scan-memo hit rate across cells.
    pub fn mean_scan_memo_hit_rate(&self) -> f64 {
        self.mean_over_cells(|p| p.scan_memo.hit_rate())
    }

    /// Mean per-channel busy-cycle imbalance across cells.
    pub fn mean_busy_imbalance(&self) -> f64 {
        self.mean_over_cells(SimProfile::busy_imbalance)
    }

    /// Total host nanoseconds across cells.
    pub fn total_host_ns(&self) -> u64 {
        self.cells
            .iter()
            .fold(0u64, |acc, c| acc.saturating_add(c.profile.host_ns_total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_phase_timer_is_inert() {
        let mut t = PhaseTimer::start(false);
        assert!(!t.is_enabled());
        assert_eq!(t.lap(), 0);
        t.reset();
        assert_eq!(t.lap(), 0);
    }

    #[test]
    fn enabled_phase_timer_laps_monotonically() {
        let mut t = PhaseTimer::start(true);
        assert!(t.is_enabled());
        // Spin a little so at least some time elapses; laps are always
        // representable and never panic.
        let mut acc = 0u64;
        for i in 0..1000u64 {
            acc = acc.wrapping_add(i);
        }
        assert!(acc > 0);
        let a = t.lap();
        let b = t.lap();
        // Durations are non-negative by construction (u64); just check
        // the timer keeps producing values after a reset.
        t.reset();
        let c = t.lap();
        let _ = (a, b, c);
    }

    #[test]
    fn host_stamp_since_saturates_to_zero_backwards() {
        let a = HostStamp::now();
        let b = HostStamp::now();
        // a is not later than b, so the reversed query is 0.
        assert_eq!(a.since(b), 0);
        assert!(b.since(a) < u64::MAX);
    }

    #[test]
    fn memo_stats_rates() {
        let mut m = MemoStats::default();
        assert_eq!(m.hit_rate(), 0.0);
        m.hit();
        m.hit();
        m.hit();
        m.miss();
        assert_eq!(m.total(), 4);
        assert!((m.hit_rate() - 0.75).abs() < 1e-12);
        let mut other = MemoStats::default();
        other.hit();
        m.merge(&other);
        assert_eq!(m.hits.get(), 4);
    }

    #[test]
    fn imbalance_of_uniform_load_is_one() {
        let mut p = SimProfile::default();
        for ch in 0..4u32 {
            p.channels.push(ChannelLoad {
                channel: ch,
                reads: 100,
                writes: 50,
                busy_cycles: 1000,
                ..Default::default()
            });
        }
        assert!((p.busy_imbalance() - 1.0).abs() < 1e-12);
        // Skew one channel: imbalance rises above 1.
        p.channels[0].busy_cycles = 4000;
        assert!(p.busy_imbalance() > 1.0);
        // Degenerate cases pin at 1.0.
        assert_eq!(SimProfile::default().busy_imbalance(), 1.0);
    }

    #[test]
    fn component_buckets_accumulate() {
        let mut p = SimProfile::default();
        p.add_component_ns("sm", 10);
        p.add_component_ns("l2", 5);
        p.add_component_ns("sm", u64::MAX);
        assert_eq!(p.component_ns("sm"), u64::MAX);
        assert_eq!(p.component_ns("l2"), 5);
        assert_eq!(p.component_ns("nope"), 0);
        assert_eq!(p.components.len(), 2);
    }

    #[test]
    fn profile_report_serde_round_trip() {
        let mut report = ProfileReport::new();
        let mut profile = SimProfile {
            cycles: 1234,
            host_ns_total: 99_000,
            idle_jumps: 3,
            idle_cycles_skipped: 700,
            ..Default::default()
        };
        profile.add_component_ns("sm", 40_000);
        profile.add_component_ns("dram", 9_000);
        profile.idle_spans.record(233);
        profile.sm_sleep.hit();
        profile.sm_sleep.miss();
        profile.slice_sleep.hit();
        profile.scan_memo.hit();
        profile.scan_depth.record(4);
        profile.channels.push(ChannelLoad {
            channel: 0,
            reads: 10,
            writes: 2,
            busy_cycles: 55,
            row_hits: 7,
            row_misses: 5,
            host_ns: 12_000,
        });
        report.cells.push(CellProfile {
            workload: "vecadd".into(),
            scheme: "cachecraft".into(),
            profile,
        });
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: ProfileReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
        assert_eq!(back.schema, PROFILE_SCHEMA);
        assert!(back.mean_sm_sleep_hit_rate() > 0.0);
        assert_eq!(back.total_host_ns(), 99_000);
    }

    #[test]
    fn profile_without_slice_sleep_still_loads() {
        let profile = SimProfile {
            cycles: 10,
            ..Default::default()
        };
        let json = serde_json::to_string(&profile).unwrap();
        let key = "\"slice_sleep\":{\"hits\":0,\"misses\":0},";
        assert!(json.contains(key), "{json}");
        let old = json.replace(key, "");
        let back: SimProfile = serde_json::from_str(&old).unwrap();
        assert_eq!(back, profile);
    }
}
