//! In-situ DRAM fault injection for the timed pipeline.
//!
//! The offline codec campaigns in `ccraft-core` answer "what does this
//! code correct?"; this module answers "what does this *machine* see under
//! load?". A [`FaultInjector`] rides along the simulation loop and
//! observes every DRAM read transaction, in issue order, from the memory
//! controllers' issue logs. Each transaction is independently hit by a
//! fault with the configured per-access probability (optionally derived
//! from a FIT-style per-GB-hour rate); on a hit, one codeword trial runs
//! through the protection scheme's *actual* codec (see
//! [`ProtectionScheme::fault_codec`](crate::protection::ProtectionScheme::fault_codec))
//! and the decode outcome is classified against ground truth as benign /
//! corrected / DUE / SDC.
//!
//! Injection is **observational**: it never changes timing, traffic, or
//! any other [`SimStats`](crate::stats::SimStats) field. A run at rate 0
//! is bit-identical (minus the `faults` block) to a run with injection
//! disabled — the determinism guard in the integration tests relies on
//! this. The trade-off is that a DUE does not, e.g., trigger a replay or
//! kill the kernel; we account outcomes, we do not model error *handling*.
//!
//! Error exposure is class-aware: data-read transactions inject into the
//! data bytes of a codeword, ECC-read transactions into the check bytes.
//! Schemes therefore differentiate naturally — CacheCraft's cached-ECC and
//! reconstruction paths issue fewer ECC reads than inline-naive, so fewer
//! check-side faults are even possible.

use crate::types::{Cycle, TrafficClass, ATOM_BYTES};
use ccraft_ecc::inject::{ErrorPattern, Injector};
use ccraft_ecc::rs::ReedSolomon;
use ccraft_ecc::secded::SecDed64;
use ccraft_ecc::{Codec, DecodeOutcome};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;

/// How often a DRAM read transaction is hit by a fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultRate {
    /// Direct per-transaction probability in `[0, 1]`.
    PerAccess {
        /// Probability that one DRAM read transaction is faulty.
        p: f64,
    },
    /// FIT-style rate: failures per 10^9 device-hours per GB, scaled by an
    /// accelerated exposure window so short simulations still see events.
    FitPerGb {
        /// Failures in time (per 1e9 hours) per GB of accessed data.
        fit: f64,
        /// Modeled hours of exposure attributed to each access.
        exposure_hours: f64,
    },
}

impl FaultRate {
    /// The effective per-transaction probability, clamped to `[0, 1]`.
    pub fn per_access_probability(self) -> f64 {
        match self {
            FaultRate::PerAccess { p } => p.clamp(0.0, 1.0),
            FaultRate::FitPerGb {
                fit,
                exposure_hours,
            } => {
                let gb_per_atom = ATOM_BYTES as f64 / (1u64 << 30) as f64;
                (fit * 1e-9 * gb_per_atom * exposure_hours).clamp(0.0, 1.0)
            }
        }
    }
}

/// Complete in-situ injection configuration for one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Fault shape injected into a codeword on each hit.
    pub pattern: ErrorPattern,
    /// Hit rate per DRAM read transaction.
    pub rate: FaultRate,
    /// RNG seed; runs with equal configs are bit-for-bit reproducible.
    pub seed: u64,
}

impl FaultConfig {
    /// Parses a `<pattern>:<rate>` spec as accepted by `ccx run --inject`.
    ///
    /// Patterns: `bit1 | bit2 | bit3 | burst4 | symbol | chiplane` (the
    /// reliability-campaign names). Rate: either a bare per-access
    /// probability (`1e-6`, `0.001`) or `fit=<N>[@<hours>]` for a
    /// per-GB-hour FIT rate with an optional exposure window (default 1
    /// hour). The seed defaults to 0; callers override it per trial.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (pat_s, rate_s) = spec
            .split_once(':')
            .ok_or_else(|| format!("--inject '{spec}': expected <pattern>:<rate>"))?;
        let pattern = match pat_s {
            "bit1" => ErrorPattern::RandomBits { count: 1 },
            "bit2" => ErrorPattern::RandomBits { count: 2 },
            "bit3" => ErrorPattern::RandomBits { count: 3 },
            "burst4" => ErrorPattern::AdjacentBurst { len: 4 },
            "symbol" => ErrorPattern::SymbolError,
            "chiplane" => ErrorPattern::ChipLane { stride: 4 },
            other => {
                return Err(format!(
                    "--inject: unknown pattern '{other}' \
                     (want bit1|bit2|bit3|burst4|symbol|chiplane)"
                ))
            }
        };
        let rate = if let Some(fit_s) = rate_s.strip_prefix("fit=") {
            let (fit_v, hours_v) = match fit_s.split_once('@') {
                Some((f, h)) => (f, Some(h)),
                None => (fit_s, None),
            };
            let fit: f64 = fit_v
                .parse()
                .map_err(|_| format!("--inject: bad FIT value '{fit_v}'"))?;
            let exposure_hours: f64 = match hours_v {
                Some(h) => h
                    .parse()
                    .map_err(|_| format!("--inject: bad exposure hours '{h}'"))?,
                None => 1.0,
            };
            if !fit.is_finite() || !exposure_hours.is_finite() {
                return Err("--inject: FIT rate and hours must be finite".into());
            }
            if fit < 0.0 || exposure_hours < 0.0 {
                return Err("--inject: FIT rate and hours must be non-negative".into());
            }
            FaultRate::FitPerGb {
                fit,
                exposure_hours,
            }
        } else {
            let p: f64 = rate_s
                .parse()
                .map_err(|_| format!("--inject: bad rate '{rate_s}'"))?;
            if !p.is_finite() {
                return Err(format!("--inject: rate '{rate_s}' must be finite"));
            }
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("--inject: rate {p} outside [0, 1]"));
            }
            FaultRate::PerAccess { p }
        };
        Ok(FaultConfig {
            pattern,
            rate,
            seed: 0,
        })
    }

    /// The same config with a different seed (per-cell derivation).
    pub fn with_seed(self, seed: u64) -> Self {
        FaultConfig { seed, ..self }
    }

    /// Canonical `<pattern>:<rate>` spec, accepted back by
    /// [`FaultConfig::parse`].
    ///
    /// Excludes the seed: two configs with the same canonical spec inject
    /// statistically identical faults. Cell-cache keys, which must pin the
    /// exact fault stream, append the derived per-cell seed to it.
    pub fn canonical_spec(&self) -> String {
        let pattern = match self.pattern {
            ErrorPattern::RandomBits { count: 1 } => "bit1",
            ErrorPattern::RandomBits { count: 2 } => "bit2",
            ErrorPattern::RandomBits { count: 3 } => "bit3",
            ErrorPattern::RandomBits { count } => {
                return format!("bit{count}:{}", self.canonical_rate())
            }
            ErrorPattern::AdjacentBurst { .. } => "burst4",
            ErrorPattern::SymbolError => "symbol",
            ErrorPattern::ChipLane { .. } => "chiplane",
        };
        format!("{pattern}:{}", self.canonical_rate())
    }

    fn canonical_rate(&self) -> String {
        match self.rate {
            FaultRate::PerAccess { p } => format!("{p:e}"),
            FaultRate::FitPerGb {
                fit,
                exposure_hours,
            } => format!("fit={fit:e}@{exposure_hours:e}"),
        }
    }
}

impl fmt::Display for FaultConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = self.rate.per_access_probability();
        write!(
            f,
            "{} @ {:.3e}/access (seed {})",
            self.pattern, p, self.seed
        )
    }
}

/// Which codec a protection scheme actually decodes reads with — the
/// injector runs its codeword trials through this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtectionCodec {
    /// No decode at all: every data fault is silent corruption.
    Unprotected,
    /// SEC-DED (72,64) per 8-byte word — the inline-ECC baseline codecs.
    SecDed64,
    /// RS(36,32) over GF(2^8) — symbol-correcting, chipkill-class.
    Rs36_32,
}

impl ProtectionCodec {
    fn build(self) -> Option<Box<dyn Codec>> {
        match self {
            ProtectionCodec::Unprotected => None,
            ProtectionCodec::SecDed64 => Some(Box::new(SecDed64::new())),
            ProtectionCodec::Rs36_32 => match ReedSolomon::new(36, 32) {
                Ok(c) => Some(Box::new(c)),
                Err(_) => unreachable!("RS(36,32) parameters are statically valid"),
            },
        }
    }
}

/// Classification of one injected fault after decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// The fault did not corrupt consumed data and was not even observed
    /// (e.g. check-side flips the syndrome tolerates).
    Benign,
    /// Observed and corrected; data intact.
    Corrected,
    /// Detected uncorrectable error — data flagged, not consumed.
    Due,
    /// Silent data corruption: data wrong, decoder reported it usable.
    Sdc,
}

impl fmt::Display for FaultOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultOutcome::Benign => "benign",
            FaultOutcome::Corrected => "corrected",
            FaultOutcome::Due => "due",
            FaultOutcome::Sdc => "sdc",
        };
        f.write_str(s)
    }
}

/// One injected-fault event, for Chrome-trace export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Cycle the faulty transaction was observed.
    pub cycle: Cycle,
    /// Channel the transaction issued on.
    pub channel: u16,
    /// Whether the fault hit a data or an ECC read.
    pub class: TrafficClass,
    /// Post-decode classification.
    pub outcome: FaultOutcome,
}

/// Aggregate in-situ injection counters, attached to
/// [`SimStats`](crate::stats::SimStats) when injection was configured.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// DRAM data-read transactions observed (fault-exposed).
    pub data_reads: u64,
    /// DRAM ECC-read transactions observed (fault-exposed).
    pub ecc_reads: u64,
    /// Faults injected (Bernoulli hits over all observed reads).
    pub injected: u64,
    /// Faults with no effect on consumed data and no decoder action.
    pub benign: u64,
    /// Faults corrected by the scheme's codec.
    pub corrected: u64,
    /// Detected uncorrectable errors.
    pub due: u64,
    /// Silent data corruptions.
    pub sdc: u64,
}

impl FaultStats {
    /// Faults the machine noticed (corrected or flagged).
    pub fn detected(&self) -> u64 {
        self.corrected + self.due
    }

    /// SDC fraction of injected faults (0 when nothing was injected).
    pub fn sdc_rate(&self) -> f64 {
        if self.injected == 0 {
            0.0
        } else {
            self.sdc as f64 / self.injected as f64
        }
    }
}

/// Classifies one decode against ground truth: `data_ok` says whether the
/// decoded data matches what was written.
pub fn classify(outcome: DecodeOutcome, data_ok: bool) -> FaultOutcome {
    match outcome {
        DecodeOutcome::Clean => {
            if data_ok {
                FaultOutcome::Benign
            } else {
                FaultOutcome::Sdc
            }
        }
        DecodeOutcome::Corrected { .. } => {
            if data_ok {
                FaultOutcome::Corrected
            } else {
                FaultOutcome::Sdc
            }
        }
        DecodeOutcome::DetectedUncorrectable | DecodeOutcome::TagMismatch => FaultOutcome::Due,
    }
}

/// One codeword trial: encode random data, fault the exposed region
/// (data bytes for a data read, check bytes for an ECC read), decode, and
/// compare against ground truth.
fn codec_trial<R: Rng>(
    codec: &dyn Codec,
    injector: &Injector,
    class: TrafficClass,
    rng: &mut R,
) -> FaultOutcome {
    let k = codec.data_len();
    let original: Vec<u8> = (0..k).map(|_| rng.gen()).collect();
    let check = codec.encode(&original);
    let mut data = original.clone();
    let mut check_stored = check;
    match class {
        TrafficClass::EccRead => {
            let _ = injector.apply(&mut check_stored, rng);
        }
        _ => {
            let _ = injector.apply(&mut data, rng);
        }
    }
    let outcome = codec.decode(&mut data, &check_stored);
    classify(outcome, data == original)
}

/// Samples faults over the DRAM read stream of a running simulation.
///
/// Constructed by the simulator when a [`FaultConfig`] is supplied; fed
/// each issued read via [`observe`](FaultInjector::observe).
#[derive(Debug)]
pub struct FaultInjector {
    rng: SmallRng,
    injector: Injector,
    p: f64,
    codec: Option<Box<dyn Codec>>,
    stats: FaultStats,
    record_events: bool,
    events: Vec<FaultEvent>,
}

impl FaultInjector {
    /// Creates an injector for one run under the given scheme codec.
    pub fn new(cfg: &FaultConfig, codec: ProtectionCodec) -> Self {
        FaultInjector {
            rng: SmallRng::seed_from_u64(cfg.seed),
            injector: Injector::new(cfg.pattern),
            p: cfg.rate.per_access_probability(),
            codec: codec.build(),
            stats: FaultStats::default(),
            record_events: false,
            events: Vec::new(),
        }
    }

    /// Enables per-fault event recording (for Chrome-trace export).
    pub fn set_record_events(&mut self, on: bool) {
        self.record_events = on;
    }

    /// Observes one DRAM transaction of `class` on `channel` issued at
    /// cycle `now`, Bernoulli-sampling a fault for it. Classes other than
    /// [`TrafficClass::DataRead`] / [`TrafficClass::EccRead`] are ignored
    /// (writes overwrite any latent fault).
    pub fn observe(&mut self, class: TrafficClass, channel: u16, now: Cycle) {
        match class {
            TrafficClass::DataRead => self.stats.data_reads += 1,
            TrafficClass::EccRead => self.stats.ecc_reads += 1,
            _ => return,
        }
        if self.p <= 0.0 || !self.rng.gen_bool(self.p) {
            return;
        }
        self.stats.injected += 1;
        let outcome = match &self.codec {
            // Unprotected reads have no decode step: a fault on a data
            // read is consumed as-is (SDC). ECC reads cannot occur.
            None => FaultOutcome::Sdc,
            Some(codec) => codec_trial(codec.as_ref(), &self.injector, class, &mut self.rng),
        };
        match outcome {
            FaultOutcome::Benign => self.stats.benign += 1,
            FaultOutcome::Corrected => self.stats.corrected += 1,
            FaultOutcome::Due => self.stats.due += 1,
            FaultOutcome::Sdc => self.stats.sdc += 1,
        }
        if self.record_events {
            self.events.push(FaultEvent {
                cycle: now,
                channel,
                class,
                outcome,
            });
        }
    }

    /// Drains recorded fault events.
    pub fn take_events(&mut self) -> Vec<FaultEvent> {
        std::mem::take(&mut self.events)
    }

    /// Counters so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds `fi` `n` transactions of `class`, all issued at `now`.
    fn observe_n(fi: &mut FaultInjector, class: TrafficClass, channel: u16, n: u64, now: Cycle) {
        for _ in 0..n {
            fi.observe(class, channel, now);
        }
    }

    #[test]
    fn parse_accepts_probability_and_fit_forms() {
        let c = FaultConfig::parse("symbol:1e-4").unwrap();
        assert_eq!(c.pattern, ErrorPattern::SymbolError);
        assert!(matches!(c.rate, FaultRate::PerAccess { p } if (p - 1e-4).abs() < 1e-18));

        let c = FaultConfig::parse("bit2:fit=5000").unwrap();
        assert_eq!(c.pattern, ErrorPattern::RandomBits { count: 2 });
        assert!(matches!(c.rate, FaultRate::FitPerGb { fit, exposure_hours }
                if fit == 5000.0 && exposure_hours == 1.0));

        let c = FaultConfig::parse("burst4:fit=100@24").unwrap();
        assert!(
            matches!(c.rate, FaultRate::FitPerGb { exposure_hours, .. } if exposure_hours == 24.0)
        );
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "symbol",
            "nosuch:1e-6",
            "bit1:xyz",
            "bit1:2.0",
            "bit1:-0.5",
            "bit1:fit=abc",
            "bit1:fit=10@x",
            "bit1:fit=-1",
        ] {
            assert!(FaultConfig::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_rejects_non_finite_rates() {
        for bad in [
            "bit1:NaN",
            "bit1:nan",
            "bit1:inf",
            "bit1:-inf",
            "bit1:infinity",
            "bit1:fit=NaN",
            "bit1:fit=inf",
            "bit1:fit=10@NaN",
            "bit1:fit=10@inf",
        ] {
            let err = FaultConfig::parse(bad).expect_err(bad);
            assert!(err.contains("finite"), "wrong error for {bad:?}: {err}");
        }
    }

    #[test]
    fn canonical_spec_round_trips_and_omits_seed() {
        for spec in ["symbol:1e-4", "bit2:fit=5000", "burst4:fit=100@24"] {
            let c = FaultConfig::parse(spec).unwrap().with_seed(99);
            let canon = c.canonical_spec();
            let back = FaultConfig::parse(&canon).unwrap();
            assert_eq!(back.pattern, c.pattern, "{spec} -> {canon}");
            assert_eq!(back.rate, c.rate, "{spec} -> {canon}");
            // Seed does not leak into the spec.
            assert_eq!(canon, c.with_seed(0).canonical_spec());
        }
    }

    #[test]
    fn fit_rate_converts_to_tiny_probability() {
        let r = FaultRate::FitPerGb {
            fit: 1000.0,
            exposure_hours: 1.0,
        };
        let p = r.per_access_probability();
        let expected = 1000.0 * 1e-9 * (32.0 / (1u64 << 30) as f64);
        assert!((p - expected).abs() < 1e-24);
        // Absurd rates clamp instead of exceeding 1.
        let r = FaultRate::PerAccess { p: 7.0 };
        assert_eq!(r.per_access_probability(), 1.0);
    }

    #[test]
    fn rate_zero_injects_nothing() {
        let cfg = FaultConfig {
            pattern: ErrorPattern::SymbolError,
            rate: FaultRate::PerAccess { p: 0.0 },
            seed: 1,
        };
        let mut fi = FaultInjector::new(&cfg, ProtectionCodec::SecDed64);
        observe_n(&mut fi, TrafficClass::DataRead, 0, 10_000, 5);
        observe_n(&mut fi, TrafficClass::EccRead, 1, 10_000, 6);
        let s = fi.stats();
        assert_eq!(s.data_reads, 10_000);
        assert_eq!(s.ecc_reads, 10_000);
        assert_eq!(s.injected, 0);
        assert_eq!(s.benign + s.corrected + s.due + s.sdc, 0);
    }

    #[test]
    fn rate_one_faults_every_read() {
        let cfg = FaultConfig {
            pattern: ErrorPattern::RandomBits { count: 1 },
            rate: FaultRate::PerAccess { p: 1.0 },
            seed: 2,
        };
        let mut fi = FaultInjector::new(&cfg, ProtectionCodec::SecDed64);
        observe_n(&mut fi, TrafficClass::DataRead, 0, 500, 1);
        let s = fi.stats();
        assert_eq!(s.injected, 500);
        // SEC-DED corrects every single-bit data fault.
        assert_eq!(s.corrected, 500);
        assert_eq!(s.sdc, 0);
        assert_eq!(s.due, 0);
    }

    #[test]
    fn unprotected_turns_data_faults_into_sdc() {
        let cfg = FaultConfig {
            pattern: ErrorPattern::SymbolError,
            rate: FaultRate::PerAccess { p: 1.0 },
            seed: 3,
        };
        let mut fi = FaultInjector::new(&cfg, ProtectionCodec::Unprotected);
        observe_n(&mut fi, TrafficClass::DataRead, 0, 100, 1);
        let s = fi.stats();
        assert_eq!(s.injected, 100);
        assert_eq!(s.sdc, 100);
        assert_eq!(s.detected(), 0);
        assert_eq!(s.sdc_rate(), 1.0);
    }

    #[test]
    fn rs_corrects_symbol_faults_that_break_secded() {
        // A whole-symbol error overwhelms SEC-DED (DUE or SDC) but RS(36,32)
        // corrects it: the scheme-level contrast the under-load table shows.
        let cfg = FaultConfig {
            pattern: ErrorPattern::SymbolError,
            rate: FaultRate::PerAccess { p: 1.0 },
            seed: 4,
        };
        let mut rs = FaultInjector::new(&cfg, ProtectionCodec::Rs36_32);
        observe_n(&mut rs, TrafficClass::DataRead, 0, 300, 1);
        let s = rs.stats();
        assert_eq!(s.injected, 300);
        assert_eq!(s.corrected, 300, "RS(36,32) corrects any one symbol");

        let mut sd = FaultInjector::new(&cfg, ProtectionCodec::SecDed64);
        observe_n(&mut sd, TrafficClass::DataRead, 0, 300, 1);
        let s = sd.stats();
        assert!(
            s.due + s.sdc > 0,
            "multi-bit symbol faults must defeat SEC-DED sometimes: {s:?}"
        );
    }

    #[test]
    fn ecc_read_faults_hit_check_bytes() {
        let cfg = FaultConfig {
            pattern: ErrorPattern::RandomBits { count: 1 },
            rate: FaultRate::PerAccess { p: 1.0 },
            seed: 5,
        };
        let mut fi = FaultInjector::new(&cfg, ProtectionCodec::SecDed64);
        observe_n(&mut fi, TrafficClass::EccRead, 0, 200, 1);
        let s = fi.stats();
        assert_eq!(s.injected, 200);
        // Check-side single-bit faults are observed and corrected (data
        // untouched), never SDC.
        assert_eq!(s.sdc, 0);
        assert_eq!(s.corrected + s.benign + s.due, 200);
    }

    #[test]
    fn writes_are_ignored() {
        let cfg = FaultConfig {
            pattern: ErrorPattern::SymbolError,
            rate: FaultRate::PerAccess { p: 1.0 },
            seed: 6,
        };
        let mut fi = FaultInjector::new(&cfg, ProtectionCodec::SecDed64);
        observe_n(&mut fi, TrafficClass::DataWrite, 0, 100, 1);
        observe_n(&mut fi, TrafficClass::EccWrite, 0, 100, 1);
        assert_eq!(fi.stats(), FaultStats::default());
    }

    #[test]
    fn same_seed_same_outcome_counts() {
        let cfg = FaultConfig {
            pattern: ErrorPattern::RandomBits { count: 2 },
            rate: FaultRate::PerAccess { p: 0.05 },
            seed: 7,
        };
        let run = || {
            let mut fi = FaultInjector::new(&cfg, ProtectionCodec::SecDed64);
            for cyc in 0..200 {
                observe_n(&mut fi, TrafficClass::DataRead, (cyc % 4) as u16, 3, cyc);
            }
            fi.stats()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn events_recorded_only_when_enabled() {
        let cfg = FaultConfig {
            pattern: ErrorPattern::RandomBits { count: 1 },
            rate: FaultRate::PerAccess { p: 1.0 },
            seed: 8,
        };
        let mut fi = FaultInjector::new(&cfg, ProtectionCodec::SecDed64);
        observe_n(&mut fi, TrafficClass::DataRead, 2, 5, 17);
        assert!(fi.take_events().is_empty());
        fi.set_record_events(true);
        observe_n(&mut fi, TrafficClass::DataRead, 2, 5, 18);
        let evs = fi.take_events();
        assert_eq!(evs.len(), 5);
        assert!(evs
            .iter()
            .all(|e| e.cycle == 18 && e.channel == 2 && e.class == TrafficClass::DataRead));
        assert!(fi.take_events().is_empty(), "take drains");
    }

    #[test]
    fn display_forms() {
        let c = FaultConfig::parse("symbol:1e-4").unwrap().with_seed(9);
        let s = c.to_string();
        assert!(s.contains("symbol") || s.contains("single-symbol"));
        assert!(s.contains("seed 9"));
        assert_eq!(FaultOutcome::Sdc.to_string(), "sdc");
    }
}
