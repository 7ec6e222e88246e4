//! Functional reliability pipeline: end-to-end fault-injection campaigns.
//!
//! The timing simulator treats ECC as traffic; this module verifies the
//! *functional* side — that the codecs the schemes rely on actually
//! deliver their protection — by Monte-Carlo injection over the codeword
//! layouts the schemes store in DRAM (experiment T3):
//!
//! * `SecDed64` — four SEC-DED(72,64) words per 32-byte atom (the 12.5 %
//!   inline-ECC budget),
//! * `Rs36_32` — one RS(36,32) symbol codeword per atom (chipkill-class,
//!   same budget),
//! * `Rs18_16` — RS(18,16) per half atom (t=1 symbol),
//! * `Crc32` — detection-only,
//! * `Tagged4` — SEC-DED with a 4-bit implicit memory tag.
//!
//! Every trial encodes random data, injects one error pattern, decodes,
//! and compares against ground truth. Outcomes distinguish **benign**
//! (decoder saw nothing, data intact), **corrected**, **DUE** (detected
//! uncorrectable) and **SDC** (silent data corruption: the decoder
//! believed an outcome whose data is wrong).

use ccraft_ecc::code::Codec;
use ccraft_ecc::crc::Crc;
use ccraft_ecc::inject::{ErrorPattern, Injector};
use ccraft_ecc::rs::ReedSolomon;
use ccraft_ecc::secded::SecDed64;
use ccraft_ecc::tagged::TaggedSecDed;
use ccraft_sim::faults::{classify, FaultOutcome};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The codecs evaluated in the reliability table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CodecKind {
    /// SEC-DED(72,64): 8 B data + 1 B check per word.
    SecDed64,
    /// RS(36,32): 32 B data + 4 B check, corrects 2 symbols.
    Rs36_32,
    /// RS(18,16): 16 B data + 2 B check, corrects 1 symbol.
    Rs18_16,
    /// CRC-32 over 32 B: detection only.
    Crc32,
    /// SEC-DED(72,64) carrying a 4-bit implicit memory tag.
    Tagged4,
}

impl CodecKind {
    /// All codecs, in report order.
    pub const ALL: [CodecKind; 5] = [
        CodecKind::SecDed64,
        CodecKind::Rs36_32,
        CodecKind::Rs18_16,
        CodecKind::Crc32,
        CodecKind::Tagged4,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            CodecKind::SecDed64 => "SEC-DED(72,64)",
            CodecKind::Rs36_32 => "RS(36,32)",
            CodecKind::Rs18_16 => "RS(18,16)",
            CodecKind::Crc32 => "CRC-32",
            CodecKind::Tagged4 => "Tagged SEC-DED (4b)",
        }
    }
}

impl fmt::Display for CodecKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Aggregate results of a campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignResult {
    /// Trials run.
    pub trials: u64,
    /// Benign outcomes.
    pub benign: u64,
    /// Successful corrections.
    pub corrected: u64,
    /// Detected uncorrectable errors.
    pub due: u64,
    /// Silent data corruptions.
    pub sdc: u64,
}

impl CampaignResult {
    /// Fraction of trials that ended usable **and correct**.
    pub fn success_rate(&self) -> f64 {
        (self.benign + self.corrected) as f64 / self.trials.max(1) as f64
    }

    /// Fraction of trials that silently corrupted data.
    pub fn sdc_rate(&self) -> f64 {
        self.sdc as f64 / self.trials.max(1) as f64
    }

    /// Fraction of trials detected-but-uncorrectable.
    pub fn due_rate(&self) -> f64 {
        self.due as f64 / self.trials.max(1) as f64
    }
}

/// A fault-injection campaign: one codec, one error pattern, many trials.
#[derive(Debug, Clone, Copy)]
pub struct Campaign {
    /// Codec under test.
    pub codec: CodecKind,
    /// Error pattern injected each trial.
    pub pattern: ErrorPattern,
    /// Number of trials.
    pub trials: u32,
    /// RNG seed (campaigns are reproducible).
    pub seed: u64,
}

// The RS parameters here are compile-time constants known to satisfy
// n > k and n <= 255; `new` cannot fail on them.
#[allow(clippy::expect_used)]
fn build_codec(kind: CodecKind) -> Box<dyn Codec> {
    match kind {
        CodecKind::SecDed64 => Box::new(SecDed64::new()),
        CodecKind::Rs36_32 => Box::new(ReedSolomon::new(36, 32).expect("valid params")),
        CodecKind::Rs18_16 => Box::new(ReedSolomon::new(18, 16).expect("valid params")),
        CodecKind::Crc32 => Box::new(Crc::crc32()),
        CodecKind::Tagged4 => unreachable!("tagged codec handled separately"),
    }
}

impl Campaign {
    /// Runs the campaign.
    pub fn run(&self) -> CampaignResult {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let injector = Injector::new(self.pattern);
        let mut result = CampaignResult {
            trials: self.trials as u64,
            ..CampaignResult::default()
        };
        for _ in 0..self.trials {
            let outcome = match self.codec {
                CodecKind::Tagged4 => Self::tagged_trial(&injector, &mut rng),
                kind => {
                    let codec = build_codec(kind);
                    Self::codec_trial(codec.as_ref(), &injector, &mut rng)
                }
            };
            match outcome {
                FaultOutcome::Benign => result.benign += 1,
                FaultOutcome::Corrected => result.corrected += 1,
                FaultOutcome::Due => result.due += 1,
                FaultOutcome::Sdc => result.sdc += 1,
            }
        }
        result
    }

    fn codec_trial<R: Rng>(codec: &dyn Codec, injector: &Injector, rng: &mut R) -> FaultOutcome {
        let k = codec.data_len();
        let original: Vec<u8> = (0..k).map(|_| rng.gen()).collect();
        let check = codec.encode(&original);
        // Inject into the full stored codeword: data ++ check.
        let mut buf = original.clone();
        buf.extend_from_slice(&check);
        let _ = injector.apply(&mut buf, rng);
        let (data_part, check_part) = buf.split_at_mut(k);
        let mut data: Vec<u8> = data_part.to_vec();
        let outcome = codec.decode(&mut data, check_part);
        classify(outcome, data == original)
    }

    // 4-bit tags are a compile-time constant within TaggedSecDed's range.
    #[allow(clippy::expect_used)]
    fn tagged_trial<R: Rng>(injector: &Injector, rng: &mut R) -> FaultOutcome {
        let codec = TaggedSecDed::new(4).expect("4-bit tags fit");
        let tag: u8 = rng.gen_range(0..16);
        let original: [u8; 8] = rng.gen();
        let check = codec.encode(&original, tag);
        let mut buf = original.to_vec();
        buf.extend_from_slice(&check);
        let _ = injector.apply(&mut buf, rng);
        let (data_part, check_part) = buf.split_at_mut(8);
        let mut data = data_part.to_vec();
        let outcome = codec.decode(&mut data, check_part, tag);
        classify(outcome, data == original)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(codec: CodecKind, pattern: ErrorPattern) -> CampaignResult {
        Campaign {
            codec,
            pattern,
            trials: 400,
            seed: 0xCAFE,
        }
        .run()
    }

    #[test]
    fn single_bit_errors_always_corrected_by_secded() {
        let r = run(CodecKind::SecDed64, ErrorPattern::RandomBits { count: 1 });
        assert_eq!(r.corrected + r.benign, r.trials);
        assert_eq!(r.sdc, 0);
        assert!((r.success_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn double_bit_errors_detected_by_secded() {
        let r = run(CodecKind::SecDed64, ErrorPattern::RandomBits { count: 2 });
        assert_eq!(r.sdc, 0, "SEC-DED must never SDC on double errors");
        assert_eq!(r.due, r.trials);
    }

    #[test]
    fn triple_bit_errors_can_escape_secded_but_not_rs() {
        let sec = run(CodecKind::SecDed64, ErrorPattern::RandomBits { count: 3 });
        // SEC-DED mis-corrects many 3-bit patterns.
        assert!(sec.sdc > 0, "expected SDCs from SEC-DED on 3-bit errors");
        // RS(36,32) corrects any 3 bit flips that land in <=2 symbols and
        // detects nearly everything else.
        let rs = run(CodecKind::Rs36_32, ErrorPattern::RandomBits { count: 3 });
        assert!(
            rs.sdc_rate() < sec.sdc_rate() / 4.0,
            "RS {} vs SEC-DED {}",
            rs.sdc_rate(),
            sec.sdc_rate()
        );
    }

    #[test]
    fn chip_errors_corrected_by_symbol_codes_only() {
        let rs = run(CodecKind::Rs36_32, ErrorPattern::SymbolError);
        assert_eq!(rs.sdc, 0);
        assert_eq!(rs.corrected + rs.benign, rs.trials, "{rs:?}");
        let sec = run(CodecKind::SecDed64, ErrorPattern::SymbolError);
        // Whole-symbol errors exceed SEC-DED correction most of the time.
        assert!(sec.due > sec.trials / 3, "{sec:?}");
    }

    #[test]
    fn rs18_corrects_one_symbol_not_two() {
        let one = run(CodecKind::Rs18_16, ErrorPattern::SymbolError);
        assert_eq!(one.sdc, 0);
        assert_eq!(one.corrected + one.benign, one.trials);
        let two = run(CodecKind::Rs18_16, ErrorPattern::RandomBits { count: 16 });
        assert!(two.due > 0);
    }

    #[test]
    fn crc_detects_but_never_corrects() {
        let r = run(CodecKind::Crc32, ErrorPattern::AdjacentBurst { len: 8 });
        assert_eq!(r.corrected, 0);
        assert_eq!(r.sdc, 0, "CRC-32 catches all bursts <= 32 bits");
        assert_eq!(r.due, r.trials);
    }

    #[test]
    fn tagged_codec_still_corrects_single_bits() {
        let r = run(CodecKind::Tagged4, ErrorPattern::RandomBits { count: 1 });
        assert_eq!(r.sdc, 0);
        assert_eq!(r.corrected + r.benign, r.trials);
    }

    #[test]
    fn campaigns_are_reproducible() {
        let a = run(CodecKind::Rs36_32, ErrorPattern::AdjacentBurst { len: 5 });
        let b = run(CodecKind::Rs36_32, ErrorPattern::AdjacentBurst { len: 5 });
        assert_eq!(a, b);
    }

    #[test]
    fn rates_sum_to_one() {
        let r = run(CodecKind::SecDed64, ErrorPattern::AdjacentBurst { len: 4 });
        let total = r.benign + r.corrected + r.due + r.sdc;
        assert_eq!(total, r.trials);
        assert!((r.success_rate() + r.due_rate() + r.sdc_rate() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn codec_names_nonempty() {
        for k in CodecKind::ALL {
            assert!(!k.name().is_empty());
            assert!(!k.to_string().is_empty());
        }
    }
}
