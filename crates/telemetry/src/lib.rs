//! Observability probes for the CacheCraft simulator.
//!
//! The simulator's headline numbers (`SimStats`) are end-of-run
//! aggregates; this crate adds the instruments needed to see *inside* a
//! run without perturbing it:
//!
//! * [`Histogram`] — log2-bucketed latency histogram with
//!   `p50`/`p90`/`p99`/`max` summaries;
//! * [`Counter`] — a named monotonic counter for probe sites;
//! * [`Sampler`] / [`Timeline`] — epoch snapshots of registered counters
//!   into a cycle-resolved time-series;
//! * [`chrome_trace`] — Chrome trace-event (Perfetto-loadable) JSON
//!   export of per-component activity;
//! * [`manifest`] — per-run `manifest.json` describing what produced a
//!   results directory.
//!
//! # Overhead discipline
//!
//! Every probe site in the simulator is gated on an `Option` owned by the
//! caller. When telemetry is [`TelemetryConfig::Off`] — the default —
//! the per-cycle cost is a single predictable branch, and the
//! emitted `SimStats` are bit-identical to a build without probes.
// Library crates must not abort the process on recoverable conditions:
// panicking escapes are denied outside tests, and the few justified
// invariant panics carry scoped `#[allow]`s with a safety comment.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod chrome_trace;
pub mod manifest;
pub mod profiler;

use serde::{Deserialize, Serialize};

/// Number of log2 buckets in a [`Histogram`]. Bucket 0 holds zeros,
/// bucket `b >= 1` holds values in `[2^(b-1), 2^b - 1]`, and the top
/// bucket saturates (holds everything at or above its lower bound).
pub const HIST_BUCKETS: usize = 33;

/// A log2-bucketed histogram of `u64` samples.
///
/// Recording is O(1): one `leading_zeros`, one add. Percentiles are
/// approximate — a quantile resolves to its bucket's upper bound, capped
/// at the exact observed maximum — which is plenty for latency
/// distributions spanning decades.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    /// Total number of recorded samples.
    pub count: u64,
    /// Sum of all recorded samples (for the exact mean).
    pub sum: u64,
    /// Exact maximum recorded sample.
    pub max: u64,
    /// Per-bucket sample counts.
    pub buckets: [u64; HIST_BUCKETS],
}

/// Bucket index for a sample value.
fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// Inclusive upper bound of a bucket (used as the quantile
/// representative). The top bucket is unbounded, so callers cap it at
/// the observed max.
fn bucket_upper(bucket: usize) -> u64 {
    if bucket == 0 {
        0
    } else if bucket >= HIST_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << bucket) - 1
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            max: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample. All tallies saturate (see [`Histogram::merge`]).
    pub fn record(&mut self, value: u64) {
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
        let b = bucket_of(value);
        self.buckets[b] = self.buckets[b].saturating_add(1);
    }

    /// Returns true if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket containing the `ceil(q * count)`-th sample, capped at the
    /// exact maximum. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return bucket_upper(b).min(self.max);
            }
        }
        self.max
    }

    /// Median (approximate; see [`Histogram::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile (approximate).
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile (approximate).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Merges another histogram into this one.
    ///
    /// All arithmetic saturates: merging histograms whose counts or
    /// bucket tallies sum past `u64::MAX` pins at `u64::MAX` instead of
    /// wrapping (or panicking in debug builds).
    pub fn merge(&mut self, other: &Histogram) {
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
        for (dst, src) in self.buckets.iter_mut().zip(&other.buckets) {
            *dst = dst.saturating_add(*src);
        }
    }
}

/// A named monotonic counter for probe sites.
///
/// Thin wrapper over `u64`; exists so probe code reads as telemetry
/// (`probe.stall_lsu.inc()`) and so counters can be registered with a
/// [`Sampler`] by name. All arithmetic saturates: a counter that would
/// pass `u64::MAX` in a long run pins there instead of wrapping (or
/// panicking in debug builds) — same contract as [`Histogram::merge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Counter(pub u64);

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Adds one (saturating).
    pub fn inc(&mut self) {
        self.0 = self.0.saturating_add(1);
    }

    /// Adds `n` (saturating).
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// One named series of epoch samples in a [`Timeline`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Metric name, e.g. `"dram.reads"`.
    pub name: String,
    /// One point per completed epoch.
    pub points: Vec<f64>,
}

/// A cycle-resolved time-series: one point per registered metric per
/// epoch of `epoch_cycles` simulated cycles.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Timeline {
    /// Epoch length in cycles; point `i` of every series covers cycles
    /// `[i * epoch_cycles, (i + 1) * epoch_cycles)`.
    pub epoch_cycles: u64,
    /// The registered series, in registration order.
    pub series: Vec<Series>,
}

impl Timeline {
    /// Number of completed epochs.
    pub fn epochs(&self) -> usize {
        self.series.first().map_or(0, |s| s.points.len())
    }

    /// Looks up a series by name.
    pub fn series(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name)
    }
}

/// Epoch sampler: snapshots registered counters every [`EPOCH_CYCLES`]
/// cycles into a [`Timeline`]. Start one with `Sampler::default()`.
///
/// The driving loop calls [`Sampler::due`] each cycle (one compare) and,
/// when it fires, computes the current metric values and hands them to
/// [`Sampler::sample`] in registration order.
#[derive(Debug, Clone)]
pub struct Sampler {
    next_due: u64,
    timeline: Timeline,
}

impl Default for Sampler {
    fn default() -> Self {
        Sampler {
            next_due: EPOCH_CYCLES,
            timeline: Timeline {
                epoch_cycles: EPOCH_CYCLES,
                series: Vec::new(),
            },
        }
    }
}

impl Sampler {
    /// Registers a metric; returns its index for [`Sampler::sample`].
    pub fn register(&mut self, name: &str) -> usize {
        self.timeline.series.push(Series {
            name: name.to_string(),
            points: Vec::new(),
        });
        self.timeline.series.len() - 1
    }

    /// True when the epoch ending at `cycle` should be sampled.
    pub fn due(&self, cycle: u64) -> bool {
        cycle >= self.next_due
    }

    /// Cycle at which the next epoch sample falls due.
    ///
    /// Simulators that fast-forward through idle spans must cap each
    /// jump at this cycle so every epoch boundary is still observed and
    /// sampled exactly once.
    pub fn next_due_cycle(&self) -> u64 {
        self.next_due
    }

    /// Records one point per registered series (values in registration
    /// order) and advances to the next epoch.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the number of registered
    /// series.
    pub fn sample(&mut self, values: &[f64]) {
        assert_eq!(
            values.len(),
            self.timeline.series.len(),
            "sample width must match registered series"
        );
        for (series, &v) in self.timeline.series.iter_mut().zip(values) {
            series.points.push(v);
        }
        self.next_due += EPOCH_CYCLES;
    }

    /// Consumes the sampler, returning the accumulated timeline.
    pub fn finish(self) -> Timeline {
        self.timeline
    }
}

/// Epoch length of the timeline sampler, in simulated cycles.
pub const EPOCH_CYCLES: u64 = 1024;

/// Cap on the Chrome trace events one run collects; further events are
/// counted but dropped.
pub const MAX_TRACE_EVENTS: usize = 200_000;

/// How much of a run telemetry records, threaded from the CLI into the
/// simulator. Each level records everything the one before it does.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TelemetryConfig {
    /// Nothing: no probe allocates or records.
    #[default]
    Off,
    /// A DRAM read-latency histogram and an epoch time-series of
    /// [`EPOCH_CYCLES`]-cycle epochs.
    Timeline,
    /// The timeline plus up to [`MAX_TRACE_EVENTS`] Chrome trace events.
    Full,
}

impl TelemetryConfig {
    /// [`TelemetryConfig::Off`]. Kept only for the benchmark crate
    /// (`ccbench/`); ROADMAP item 7 deletes it.
    pub fn disabled() -> Self {
        TelemetryConfig::Off
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(255), 8);
        assert_eq!(bucket_of(256), 9);
        // Top-bucket saturation: everything >= 2^31 shares the last bucket.
        assert_eq!(bucket_of(1 << 31), HIST_BUCKETS - 1);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.max, 0);
    }

    #[test]
    fn quantiles_are_ordered_and_capped_by_max() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 5, 9, 17, 33, 100, 400, 401] {
            h.record(v);
        }
        assert_eq!(h.count, 10);
        assert!(h.p50() >= 1);
        assert!(h.p90() >= h.p50());
        assert!(h.p99() >= h.p90());
        assert!(h.p99() <= h.max);
        assert_eq!(h.max, 401);
        // Single-value histogram: every quantile is that value's bucket,
        // capped at the exact max.
        let mut one = Histogram::new();
        one.record(100);
        assert_eq!(one.p50(), 100);
        assert_eq!(one.p99(), 100);
    }

    #[test]
    fn top_bucket_saturation_does_not_lose_counts() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(1 << 40);
        h.record(1 << 32);
        assert_eq!(h.buckets[HIST_BUCKETS - 1], 3);
        assert_eq!(h.count, 3);
        assert_eq!(h.p50(), h.max);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(4);
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count, 2);
        assert_eq!(a.max, 1000);
        assert_eq!(a.sum, 1004);
    }

    #[test]
    fn merge_saturates_at_u64_max() {
        let mut a = Histogram::new();
        a.count = u64::MAX - 1;
        a.sum = u64::MAX;
        a.max = 7;
        a.buckets[0] = u64::MAX;
        a.buckets[3] = u64::MAX - 2;
        let mut b = Histogram::new();
        b.count = 5;
        b.sum = 100;
        b.max = 9;
        b.buckets[0] = 1;
        b.buckets[3] = 5;
        a.merge(&b);
        assert_eq!(a.count, u64::MAX);
        assert_eq!(a.sum, u64::MAX);
        assert_eq!(a.max, 9);
        assert_eq!(a.buckets[0], u64::MAX);
        assert_eq!(a.buckets[3], u64::MAX);
    }

    #[test]
    fn quantile_and_mean_on_empty_histogram() {
        let h = Histogram::new();
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0);
        }
        assert_eq!(h.mean(), 0.0);
        // Out-of-range q is clamped, not panicking, even when empty.
        assert_eq!(h.quantile(-1.0), 0);
        assert_eq!(h.quantile(2.0), 0);
    }

    #[test]
    fn quantile_and_mean_on_single_bucket_histogram() {
        // All samples land in one bucket ([4, 7] = bucket 3): every
        // quantile resolves to that bucket, capped at the exact max.
        let mut h = Histogram::new();
        for v in [4u64, 5, 6, 6, 5] {
            h.record(v);
        }
        assert_eq!(h.buckets.iter().filter(|&&n| n > 0).count(), 1);
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 6, "q={q}");
        }
        assert_eq!(h.mean(), 26.0 / 5.0);
        // The zero bucket is its own single-bucket case: quantiles are 0
        // but the count is real.
        let mut z = Histogram::new();
        z.record(0);
        z.record(0);
        assert_eq!(z.count, 2);
        assert_eq!(z.quantile(0.5), 0);
        assert_eq!(z.quantile(1.0), 0);
        assert_eq!(z.mean(), 0.0);
    }

    #[test]
    fn sampler_next_due_at_epoch_boundaries() {
        const E: u64 = EPOCH_CYCLES;
        // The boundary cycle itself is due; the cycle before is not,
        // and sampling moves next_due exactly one epoch forward.
        let mut s = Sampler::default();
        s.register("x");
        assert!(!s.due(0));
        assert!(!s.due(E - 1));
        assert!(s.due(E));
        assert_eq!(s.next_due_cycle(), E);
        s.sample(&[1.0]);
        assert_eq!(s.next_due_cycle(), 2 * E);
        assert!(!s.due(E));
        assert!(!s.due(2 * E - 1));
        assert!(s.due(2 * E));
        // An idle fast-forward that overshoots still reads as due; the
        // cap-at-next_due contract is what keeps epochs exact.
        assert!(s.due(10 * E));
        s.sample(&[2.0]);
        assert_eq!(s.next_due_cycle(), 3 * E);
    }

    /// Shared saturation property: `Counter::inc`/`add`,
    /// `Histogram::record`/`merge`, and the profiler's `MemoStats` (which
    /// is built from `Counter`) must never wrap, for any mix of edge
    /// values. Driven by a deterministic LCG, no external inputs.
    #[test]
    fn counters_and_histograms_saturate_instead_of_wrapping() {
        use crate::profiler::MemoStats;
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        let edges = [0u64, 1, u64::MAX / 2, u64::MAX - 1, u64::MAX];
        for round in 0..200 {
            let raw = next();
            let v = if round % 2 == 0 {
                edges[(raw % edges.len() as u64) as usize]
            } else {
                raw
            };

            // Counter: monotone under inc/add from any starting point.
            let mut c = Counter(u64::MAX - (raw % 3));
            let before = c.get();
            c.add(v);
            assert!(c.get() >= before, "add({v}) wrapped from {before}");
            let before = c.get();
            c.inc();
            assert!(c.get() >= before, "inc wrapped from {before}");

            // MemoStats shares Counter semantics at the profiler layer.
            let mut m = MemoStats {
                hits: Counter(u64::MAX),
                misses: Counter(v),
            };
            m.hit();
            assert_eq!(m.hits.get(), u64::MAX);
            let rate = m.hit_rate();
            assert!((0.0..=1.0).contains(&rate));

            // Histogram: record and merge saturate count/sum/buckets.
            let mut h = Histogram::new();
            h.count = u64::MAX - 1;
            h.sum = u64::MAX - 1;
            h.buckets[bucket_of(v)] = u64::MAX - 1;
            let before = h.clone();
            h.record(v);
            h.record(v);
            h.record(v);
            assert_eq!(h.count, u64::MAX);
            assert!(
                h.sum >= before.sum,
                "sum wrapped: {} -> {}",
                before.sum,
                h.sum
            );
            if v > 0 {
                assert_eq!(h.sum, u64::MAX);
            }
            assert_eq!(h.buckets[bucket_of(v)], u64::MAX);
            assert!(h.max >= before.max);

            let mut g = Histogram::new();
            g.record(v);
            g.record(raw);
            let merged_before = h.clone();
            h.merge(&g);
            assert_eq!(h.count, u64::MAX);
            assert!(h.sum >= merged_before.sum);
            for (i, (&after, &b4)) in h.buckets.iter().zip(&merged_before.buckets).enumerate() {
                assert!(after >= b4, "bucket {i} shrank: {b4} -> {after}");
            }
        }
    }

    #[test]
    fn sampler_epochs() {
        let mut s = Sampler::default();
        let reads = s.register("reads");
        let lat = s.register("latency");
        assert_eq!((reads, lat), (0, 1));
        s.sample(&[10.0, 250.0]);
        s.sample(&[12.0, 240.0]);
        let t = s.finish();
        assert_eq!(t.epochs(), 2);
        assert_eq!(t.series("reads").unwrap().points, vec![10.0, 12.0]);
        assert_eq!(t.series("nope"), None);
        assert_eq!(t.epoch_cycles, EPOCH_CYCLES);
    }

    #[test]
    fn histogram_serde_round_trip() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 7, 300, 1 << 20] {
            h.record(v);
        }
        let json = serde_json::to_string(&h).unwrap();
        let back: Histogram = serde_json::from_str(&json).unwrap();
        assert_eq!(h, back);
    }

    #[test]
    fn timeline_serde_round_trip() {
        let mut s = Sampler::default();
        s.register("x");
        s.sample(&[1.5]);
        s.sample(&[2.5]);
        let t = s.finish();
        let json = serde_json::to_string(&t).unwrap();
        let back: Timeline = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
