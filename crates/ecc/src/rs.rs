//! Reed–Solomon codes over GF(2^8).
//!
//! Symbol-oriented codes are the standard tool for chipkill-class memory
//! protection: one 8-bit symbol maps onto the bits contributed by one DRAM
//! device (or pin group), so correcting `t` symbols tolerates `t` whole-chip
//! failures regardless of how many bits within the symbol are wrong.
//!
//! [`ReedSolomon`] implements a systematic RS(n, k) encoder and a full
//! hard-decision decoder (Berlekamp–Massey → Chien search → Forney
//! algorithm) correcting up to `t = (n - k) / 2` symbol errors and detecting
//! most heavier patterns.
//!
//! # Examples
//!
//! ```
//! use ccraft_ecc::code::{Codec, DecodeOutcome};
//! use ccraft_ecc::rs::ReedSolomon;
//!
//! // RS(36,32): 32 data symbols + 4 check symbols, corrects 2 symbol errors.
//! let rs = ReedSolomon::new(36, 32).unwrap();
//! let mut data: Vec<u8> = (0..32).collect();
//! let check = rs.encode(&data);
//! data[5] = 0xFF;  // a whole-symbol (chip) error
//! data[17] ^= 0x08; // and an unrelated bit error
//! assert!(matches!(rs.decode(&mut data, &check), DecodeOutcome::Corrected { .. }));
//! assert_eq!(data, (0..32).collect::<Vec<u8>>());
//! ```

use crate::code::{check_lengths, Codec, DecodeOutcome};
use crate::gf256::{poly_eval, Gf256, GROUP_ORDER};
use std::fmt;

/// Error constructing a [`ReedSolomon`] code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildCodeError {
    /// `n` must not exceed 255 (the GF(2^8) block-length limit).
    BlockTooLong,
    /// `k` must satisfy `0 < k < n`.
    BadDimension,
    /// `n - k` must be even (this implementation does not expose
    /// erasure-assisted odd-redundancy decoding).
    OddRedundancy,
}

impl fmt::Display for BuildCodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildCodeError::BlockTooLong => write!(f, "block length exceeds 255 symbols"),
            BuildCodeError::BadDimension => write!(f, "dimension must satisfy 0 < k < n"),
            BuildCodeError::OddRedundancy => write!(f, "redundancy n - k must be even"),
        }
    }
}

impl std::error::Error for BuildCodeError {}

/// A systematic Reed–Solomon code RS(n, k) over GF(2^8).
///
/// Codeword layout: `k` data symbols followed by `n - k` check symbols,
/// i.e. `c(x) = d(x) * x^(n-k) + rem(d(x) * x^(n-k), g(x))` with generator
/// `g(x) = prod_{i=0}^{n-k-1} (x - alpha^i)`.
#[derive(Clone)]
pub struct ReedSolomon {
    n: usize,
    k: usize,
    /// Generator polynomial, highest degree first, monic, length `n-k+1`.
    generator: Vec<Gf256>,
}

impl ReedSolomon {
    /// Builds an RS(n, k) code.
    ///
    /// # Errors
    ///
    /// Returns an error when the parameters are outside the GF(2^8) limits
    /// or the redundancy is odd (see [`BuildCodeError`]).
    pub fn new(n: usize, k: usize) -> Result<Self, BuildCodeError> {
        if n > GROUP_ORDER {
            return Err(BuildCodeError::BlockTooLong);
        }
        if k == 0 || k >= n {
            return Err(BuildCodeError::BadDimension);
        }
        if !(n - k).is_multiple_of(2) {
            return Err(BuildCodeError::OddRedundancy);
        }
        let mut generator = vec![Gf256::ONE];
        for i in 0..(n - k) {
            // Multiply by (x - alpha^i) == (x + alpha^i).
            let root = Gf256::alpha_pow(i as i32);
            let mut next = vec![Gf256::ZERO; generator.len() + 1];
            for (j, &g) in generator.iter().enumerate() {
                next[j] += g; // g * x
                next[j + 1] += g * root; // g * alpha^i
            }
            generator = next;
        }
        Ok(ReedSolomon { n, k, generator })
    }

    /// Number of correctable symbol errors, `t = (n - k) / 2`.
    pub fn t(&self) -> usize {
        (self.n - self.k) / 2
    }

    /// Block length `n` in symbols.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Dimension `k` in symbols.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Computes the `n - k` check symbols for a `k`-symbol message by
    /// polynomial long division.
    fn parity(&self, data: &[u8]) -> Vec<Gf256> {
        let r = self.n - self.k;
        // Remainder register, highest degree first.
        let mut rem = vec![Gf256::ZERO; r];
        for &d in data {
            let factor = Gf256::new(d) + rem[0];
            rem.rotate_left(1);
            rem[r - 1] = Gf256::ZERO;
            if !factor.is_zero() {
                // generator[0] is 1 (monic); skip it.
                for (i, &g) in self.generator[1..].iter().enumerate() {
                    rem[i] += factor * g;
                }
            }
        }
        rem
    }

    /// Computes the 2t syndromes of a full codeword (data ++ check).
    /// `codeword[0]` is the highest-degree coefficient.
    fn syndromes(&self, codeword: &[Gf256]) -> Vec<Gf256> {
        (0..(self.n - self.k))
            .map(|i| poly_eval(codeword, Gf256::alpha_pow(i as i32)))
            .collect()
    }

    /// Berlekamp–Massey: returns the error-locator polynomial
    /// `sigma(x)`, lowest degree first (`sigma[0] == 1`).
    fn berlekamp_massey(syndromes: &[Gf256]) -> Vec<Gf256> {
        let mut sigma = vec![Gf256::ONE];
        let mut prev = vec![Gf256::ONE];
        let mut l = 0usize;
        let mut m = 1usize;
        let mut b = Gf256::ONE;
        for i in 0..syndromes.len() {
            // Discrepancy.
            let mut delta = syndromes[i];
            for j in 1..=l {
                if j < sigma.len() {
                    delta += sigma[j] * syndromes[i - j];
                }
            }
            if delta.is_zero() {
                m += 1;
            } else if 2 * l <= i {
                let temp = sigma.clone();
                let scale = delta / b;
                // sigma -= scale * x^m * prev
                if sigma.len() < prev.len() + m {
                    sigma.resize(prev.len() + m, Gf256::ZERO);
                }
                for (j, &p) in prev.iter().enumerate() {
                    sigma[j + m] += scale * p;
                }
                l = i + 1 - l;
                prev = temp;
                b = delta;
                m = 1;
            } else {
                let scale = delta / b;
                if sigma.len() < prev.len() + m {
                    sigma.resize(prev.len() + m, Gf256::ZERO);
                }
                for (j, &p) in prev.iter().enumerate() {
                    sigma[j + m] += scale * p;
                }
                m += 1;
            }
        }
        // Trim trailing zeros.
        while sigma.len() > 1 && sigma.last() == Some(&Gf256::ZERO) {
            sigma.pop();
        }
        sigma
    }

    /// Chien search: positions `p` (0 = first transmitted symbol) where
    /// `sigma(alpha^{-p_fromend}) == 0`.
    fn chien_search(&self, sigma: &[Gf256]) -> Vec<usize> {
        let mut positions = Vec::new();
        for pos in 0..self.n {
            // Position `pos` (from the front) corresponds to degree
            // n-1-pos, i.e. locator X = alpha^(n-1-pos). A root of sigma at
            // X^{-1} marks an error there.
            let x_inv = Gf256::alpha_pow(-((self.n - 1 - pos) as i32));
            // Evaluate sigma (lowest degree first) at x_inv.
            let mut acc = Gf256::ZERO;
            for &c in sigma.iter().rev() {
                acc = acc * x_inv + c;
            }
            if acc.is_zero() {
                positions.push(pos);
            }
        }
        positions
    }

    /// Forney algorithm: error magnitudes for the found positions.
    // Invariant: locators are alpha^k with k in range, hence nonzero and
    // invertible; a zero locator would mean Chien search returned a
    // position outside the codeword.
    #[allow(clippy::expect_used)]
    fn forney(&self, syndromes: &[Gf256], sigma: &[Gf256], positions: &[usize]) -> Vec<Gf256> {
        // Error evaluator omega(x) = [S(x) * sigma(x)] mod x^(2t),
        // with S(x) = sum S_i x^i (lowest degree first).
        let two_t = syndromes.len();
        let mut omega = vec![Gf256::ZERO; two_t];
        for (i, &s) in syndromes.iter().enumerate() {
            for (j, &c) in sigma.iter().enumerate() {
                if i + j < two_t {
                    omega[i + j] += s * c;
                }
            }
        }
        // Formal derivative of sigma: sigma'(x) keeps odd-power terms.
        let mut dsigma = vec![Gf256::ZERO; sigma.len().saturating_sub(1).max(1)];
        for (j, &c) in sigma.iter().enumerate().skip(1) {
            if j % 2 == 1 {
                dsigma[j - 1] = c; // d/dx of c*x^j = j*c*x^{j-1}; j odd → coefficient c
            }
        }
        positions
            .iter()
            .map(|&pos| {
                let x = Gf256::alpha_pow((self.n - 1 - pos) as i32);
                let x_inv = x.inverse().expect("nonzero locator");
                let mut num = Gf256::ZERO;
                for &c in omega.iter().rev() {
                    num = num * x_inv + c;
                }
                let mut den = Gf256::ZERO;
                for &c in dsigma.iter().rev() {
                    den = den * x_inv + c;
                }
                if den.is_zero() {
                    // Degenerate: signal by returning zero magnitude, the
                    // caller re-checks syndromes and reports DUE.
                    Gf256::ZERO
                } else {
                    // fcr = 0 → magnitude = X^1 * omega(X^-1) / sigma'(X^-1).
                    x * (num / den)
                }
            })
            .collect()
    }
}

impl fmt::Debug for ReedSolomon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReedSolomon")
            .field("n", &self.n)
            .field("k", &self.k)
            .field("t", &self.t())
            .finish()
    }
}

impl Codec for ReedSolomon {
    fn data_len(&self) -> usize {
        self.k
    }

    fn check_len(&self) -> usize {
        self.n - self.k
    }

    fn encode(&self, data: &[u8]) -> Vec<u8> {
        check_lengths(self, data, None);
        self.parity(data).iter().map(|g| g.value()).collect()
    }

    fn decode(&self, data: &mut [u8], check: &[u8]) -> DecodeOutcome {
        check_lengths(self, data, Some(check));
        let codeword: Vec<Gf256> = data
            .iter()
            .chain(check.iter())
            .map(|&b| Gf256::new(b))
            .collect();
        let syndromes = self.syndromes(&codeword);
        if syndromes.iter().all(|s| s.is_zero()) {
            return DecodeOutcome::Clean;
        }
        let sigma = Self::berlekamp_massey(&syndromes);
        let num_errors = sigma.len() - 1;
        if num_errors == 0 || num_errors > self.t() {
            return DecodeOutcome::DetectedUncorrectable;
        }
        let positions = self.chien_search(&sigma);
        if positions.len() != num_errors {
            // Locator polynomial does not split over the field: > t errors.
            return DecodeOutcome::DetectedUncorrectable;
        }
        let magnitudes = self.forney(&syndromes, &sigma, &positions);
        let mut corrected = codeword;
        let mut flipped_bits = 0u32;
        for (&pos, &mag) in positions.iter().zip(magnitudes.iter()) {
            if mag.is_zero() {
                return DecodeOutcome::DetectedUncorrectable;
            }
            corrected[pos] += mag;
            if pos < self.k {
                flipped_bits += mag.value().count_ones();
            }
        }
        // Verify: re-run the syndrome check on the corrected word.
        if self.syndromes(&corrected).iter().any(|s| !s.is_zero()) {
            return DecodeOutcome::DetectedUncorrectable;
        }
        for (i, byte) in data.iter_mut().enumerate() {
            *byte = corrected[i].value();
        }
        DecodeOutcome::Corrected { flipped_bits }
    }

    fn name(&self) -> String {
        format!("RS({},{})", self.n, self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data(k: usize) -> Vec<u8> {
        (0..k)
            .map(|i| (i as u8).wrapping_mul(37).wrapping_add(11))
            .collect()
    }

    #[test]
    fn construction_limits() {
        assert!(ReedSolomon::new(255, 223).is_ok());
        assert_eq!(
            ReedSolomon::new(256, 200).unwrap_err(),
            BuildCodeError::BlockTooLong
        );
        assert_eq!(
            ReedSolomon::new(10, 0).unwrap_err(),
            BuildCodeError::BadDimension
        );
        assert_eq!(
            ReedSolomon::new(10, 10).unwrap_err(),
            BuildCodeError::BadDimension
        );
        assert_eq!(
            ReedSolomon::new(10, 7).unwrap_err(),
            BuildCodeError::OddRedundancy
        );
    }

    #[test]
    fn generator_roots_are_consecutive_alpha_powers() {
        let rs = ReedSolomon::new(36, 32).unwrap();
        for i in 0..4 {
            let root = Gf256::alpha_pow(i);
            assert!(
                poly_eval(&rs.generator, root).is_zero(),
                "alpha^{i} is not a root"
            );
        }
    }

    #[test]
    fn clean_round_trip() {
        for (n, k) in [(36, 32), (18, 16), (72, 64), (255, 223)] {
            let rs = ReedSolomon::new(n, k).unwrap();
            let mut data = sample_data(k);
            let check = rs.encode(&data);
            assert_eq!(check.len(), n - k);
            assert_eq!(rs.decode(&mut data, &check), DecodeOutcome::Clean);
            assert_eq!(data, sample_data(k));
        }
    }

    /// Every single-symbol error (all 255 values at all 32 data and 4
    /// check positions) on seeded random codewords is corrected, and only
    /// data-symbol bits count as flipped.
    #[test]
    fn corrects_every_single_symbol_error_on_random_codewords() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let rs = ReedSolomon::new(36, 32).unwrap();
        let mut rng = SmallRng::seed_from_u64(0x5eed_c0de);
        for _ in 0..4 {
            let original: [u8; 32] = rng.gen();
            let check = rs.encode(&original);
            for pos in 0..36 {
                for err in 1..=255u8 {
                    let mut data = original;
                    let mut bad_check = check.clone();
                    let flipped_bits = if pos < 32 {
                        data[pos] ^= err;
                        err.count_ones()
                    } else {
                        bad_check[pos - 32] ^= err;
                        0
                    };
                    let outcome = rs.decode(&mut data, &bad_check);
                    assert_eq!(
                        outcome,
                        DecodeOutcome::Corrected { flipped_bits },
                        "pos {pos} err {err:#x}"
                    );
                    assert_eq!(data, original, "pos {pos} err {err:#x}");
                }
            }
        }
    }

    #[test]
    fn corrects_double_symbol_errors_with_t2() {
        let rs = ReedSolomon::new(36, 32).unwrap();
        let original = sample_data(32);
        let check = rs.encode(&original);
        for (p1, p2) in [(0usize, 31usize), (3, 4), (10, 20), (0, 1), (30, 31)] {
            let mut data = original.clone();
            data[p1] ^= 0xFF;
            data[p2] ^= 0x42;
            let outcome = rs.decode(&mut data, &check);
            assert!(
                matches!(outcome, DecodeOutcome::Corrected { .. }),
                "({p1},{p2}): {outcome:?}"
            );
            assert_eq!(data, original, "({p1},{p2})");
        }
    }

    #[test]
    fn detects_most_triple_symbol_errors_with_t2() {
        let rs = ReedSolomon::new(36, 32).unwrap();
        let original = sample_data(32);
        let check = rs.encode(&original);
        let mut detected = 0;
        let mut sdc = 0;
        let cases: Vec<(usize, usize, usize)> = (0..24).map(|i| (i, i + 4, i + 8)).collect();
        for &(p1, p2, p3) in &cases {
            let mut data = original.clone();
            data[p1] ^= 0x11;
            data[p2] ^= 0x22;
            data[p3] ^= 0x33;
            match rs.decode(&mut data, &check) {
                DecodeOutcome::DetectedUncorrectable => detected += 1,
                _ => {
                    if data != original {
                        sdc += 1;
                    }
                }
            }
        }
        // A t=2 code can mis-correct some 3-symbol patterns; the vast
        // majority of this structured set must be detected.
        assert!(
            detected >= cases.len() * 9 / 10,
            "only {detected}/{} detected ({sdc} SDC)",
            cases.len()
        );
    }

    #[test]
    fn t1_code_corrects_one_detects_structured_two() {
        let rs = ReedSolomon::new(18, 16).unwrap();
        let original = sample_data(16);
        let check = rs.encode(&original);
        let mut data = original.clone();
        data[7] = !data[7];
        assert!(matches!(
            rs.decode(&mut data, &check),
            DecodeOutcome::Corrected { .. }
        ));
        assert_eq!(data, original);
    }

    #[test]
    fn flipped_bits_accounting() {
        let rs = ReedSolomon::new(36, 32).unwrap();
        let original = sample_data(32);
        let check = rs.encode(&original);
        let mut data = original.clone();
        data[0] ^= 0b0000_0111; // 3 bits
        match rs.decode(&mut data, &check) {
            DecodeOutcome::Corrected { flipped_bits } => assert_eq!(flipped_bits, 3),
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn name_and_lengths() {
        let rs = ReedSolomon::new(36, 32).unwrap();
        assert_eq!(rs.name(), "RS(36,32)");
        assert_eq!(rs.data_len(), 32);
        assert_eq!(rs.check_len(), 4);
        assert_eq!(rs.t(), 2);
    }
}
