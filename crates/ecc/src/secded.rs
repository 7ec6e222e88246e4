//! Single-error-correcting, double-error-detecting (SEC-DED) codes.
//!
//! The workhorse memory-protection code: an extended Hamming code that
//! corrects any single bit error and detects any double bit error within one
//! codeword. [`HammingSecDed`] is the generic bit-level construction for any
//! data width up to 120 bits; [`SecDed64`] is the canonical (72,64) memory
//! configuration (8 data bytes + 1 check byte, 12.5% redundancy) and
//! [`SecDed32`] the (39,32) on-die variant.
//!
//! # Construction
//!
//! Classic positional Hamming layout: codeword bit positions are numbered
//! from 1; positions that are powers of two hold parity bits; the remaining
//! positions hold data bits in order. Parity bit `p_i` (at position `2^i`)
//! covers every position whose binary index has bit `i` set. An overall
//! parity bit extends the code from SEC to SEC-DED:
//!
//! * syndrome == 0, overall parity ok        → clean
//! * syndrome != 0, overall parity violated  → single error at `syndrome`
//! * syndrome != 0, overall parity ok        → double error (uncorrectable)
//! * syndrome == 0, overall parity violated  → error in the parity bit itself

use crate::code::{check_lengths, Codec, DecodeOutcome};

/// Maximum supported data width in bits for the generic construction.
pub const MAX_DATA_BITS: u32 = 120;

/// A bit-level extended Hamming SEC-DED code over up to 120 data bits.
///
/// The codeword (excluding the overall parity bit) is held in a `u128` with
/// position `p` (1-based) stored at bit `p`.
///
/// # Examples
///
/// ```
/// use ccraft_ecc::secded::HammingSecDed;
///
/// let code = HammingSecDed::new(64);
/// assert_eq!(code.check_bits(), 8); // 7 Hamming + 1 overall parity
/// let cw = code.encode_bits(0xDEAD_BEEF_0123_4567);
/// assert_eq!(code.decode_bits(cw).unwrap(), 0xDEAD_BEEF_0123_4567);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HammingSecDed {
    data_bits: u32,
    /// Hamming parity bits (excluding the overall parity bit).
    parity_bits: u32,
    /// Total positions 1..=n in the positional layout.
    n: u32,
}

/// A codeword produced by [`HammingSecDed::encode_bits`]: the positional
/// word plus the overall parity bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct BitCodeword {
    /// Positional layout; bit `p` of this word is codeword position `p`.
    /// Bit 0 is unused.
    pub word: u128,
    /// Overall (extended) parity over all positions.
    pub overall_parity: bool,
}

impl BitCodeword {
    /// Flips codeword position `p` (1-based). Position 0 flips the overall
    /// parity bit.
    ///
    /// # Panics
    ///
    /// Panics if `p > 127`.
    pub fn flip(&mut self, p: u32) {
        assert!(p <= 127, "codeword position out of range");
        if p == 0 {
            self.overall_parity = !self.overall_parity;
        } else {
            self.word ^= 1u128 << p;
        }
    }
}

impl HammingSecDed {
    /// Creates a SEC-DED code for `data_bits` data bits.
    ///
    /// # Panics
    ///
    /// Panics if `data_bits` is zero or exceeds [`MAX_DATA_BITS`].
    pub fn new(data_bits: u32) -> Self {
        assert!(
            data_bits > 0 && data_bits <= MAX_DATA_BITS,
            "data_bits must be in 1..={MAX_DATA_BITS}"
        );
        let mut parity_bits = 0u32;
        while (1u32 << parity_bits) < data_bits + parity_bits + 1 {
            parity_bits += 1;
        }
        let n = data_bits + parity_bits;
        debug_assert!(n < 128);
        HammingSecDed {
            data_bits,
            parity_bits,
            n,
        }
    }

    /// Number of data bits.
    pub fn data_bits(&self) -> u32 {
        self.data_bits
    }

    /// Total check bits including the overall parity bit.
    pub fn check_bits(&self) -> u32 {
        self.parity_bits + 1
    }

    /// Total codeword length in bits (data + check).
    pub fn codeword_bits(&self) -> u32 {
        self.n + 1
    }

    fn is_parity_position(p: u32) -> bool {
        p.is_power_of_two()
    }

    /// Scatters data bits into non-parity positions of the positional word.
    fn scatter(&self, data: u128) -> u128 {
        debug_assert!(self.data_bits == 128 || data >> self.data_bits == 0);
        let mut word = 0u128;
        let mut bit = 0u32;
        for p in 1..=self.n {
            if Self::is_parity_position(p) {
                continue;
            }
            if data >> bit & 1 != 0 {
                word |= 1u128 << p;
            }
            bit += 1;
        }
        word
    }

    /// Gathers data bits back out of the positional word.
    fn gather(&self, word: u128) -> u128 {
        let mut data = 0u128;
        let mut bit = 0u32;
        for p in 1..=self.n {
            if Self::is_parity_position(p) {
                continue;
            }
            if word >> p & 1 != 0 {
                data |= 1u128 << bit;
            }
            bit += 1;
        }
        data
    }

    /// XOR of the positions of all set bits — zero iff all parity checks
    /// pass.
    fn syndrome(word: u128) -> u32 {
        let mut s = 0u32;
        let mut w = word;
        while w != 0 {
            let p = w.trailing_zeros();
            s ^= p;
            w &= w - 1;
        }
        s
    }

    /// Encodes `data` (low `data_bits` bits) into a codeword.
    ///
    /// # Panics
    ///
    /// Panics if `data` has bits set above `data_bits`.
    pub fn encode_bits(&self, data: u128) -> BitCodeword {
        assert!(
            self.data_bits == 128 || data >> self.data_bits == 0,
            "data wider than {} bits",
            self.data_bits
        );
        let mut word = self.scatter(data);
        // Setting each parity bit to the syndrome bit it governs zeroes the
        // syndrome of the completed word.
        let s = Self::syndrome(word);
        for i in 0..self.parity_bits {
            if s >> i & 1 != 0 {
                word |= 1u128 << (1u32 << i);
            }
        }
        debug_assert_eq!(Self::syndrome(word), 0);
        let overall_parity = word.count_ones() % 2 == 1;
        BitCodeword {
            word,
            overall_parity,
        }
    }

    /// Decodes a codeword, correcting a single-bit error.
    ///
    /// Returns the recovered data and the decode outcome, or the outcome
    /// alone when uncorrectable.
    pub fn decode_bits_full(&self, mut cw: BitCodeword) -> (Option<u128>, DecodeOutcome) {
        let syndrome = Self::syndrome(cw.word);
        let parity_ok = (cw.word.count_ones() % 2 == 1) == cw.overall_parity;
        match (syndrome, parity_ok) {
            (0, true) => (Some(self.gather(cw.word)), DecodeOutcome::Clean),
            (0, false) => {
                // The overall parity bit itself flipped; data is intact.
                (
                    Some(self.gather(cw.word)),
                    DecodeOutcome::Corrected { flipped_bits: 0 },
                )
            }
            (s, false) => {
                if s > self.n {
                    // Points outside the codeword: multi-bit error aliasing.
                    return (None, DecodeOutcome::DetectedUncorrectable);
                }
                cw.word ^= 1u128 << s;
                let flipped_bits = if Self::is_parity_position(s) { 0 } else { 1 };
                (
                    Some(self.gather(cw.word)),
                    DecodeOutcome::Corrected { flipped_bits },
                )
            }
            (_, true) => (None, DecodeOutcome::DetectedUncorrectable),
        }
    }

    /// Convenience wrapper over [`decode_bits_full`](Self::decode_bits_full)
    /// returning only usable data.
    pub fn decode_bits(&self, cw: BitCodeword) -> Option<u128> {
        self.decode_bits_full(cw).0
    }
}

/// Byte-oriented SEC-DED codec over `W`-byte words.
///
/// Protects each `W`-byte word with an extended Hamming code whose check
/// bits are packed, together with the overall parity bit, into
/// `ceil((parity_bits+1)/8)` check bytes.
#[derive(Debug, Clone, Copy)]
pub struct SecDedCodec<const W: usize> {
    code: HammingSecDed,
}

impl<const W: usize> SecDedCodec<W> {
    /// Creates the codec.
    ///
    /// # Panics
    ///
    /// Panics if `W * 8` exceeds [`MAX_DATA_BITS`].
    pub fn new() -> Self {
        SecDedCodec {
            code: HammingSecDed::new(W as u32 * 8),
        }
    }

    fn pack_check(&self, cw: &BitCodeword) -> Vec<u8> {
        // Check bits are the parity positions in order plus overall parity.
        let mut bits: Vec<bool> = (0..self.code.parity_bits)
            .map(|i| cw.word >> (1u32 << i) & 1 != 0)
            .collect();
        bits.push(cw.overall_parity);
        let mut out = vec![0u8; self.check_bytes()];
        for (i, &b) in bits.iter().enumerate() {
            if b {
                out[i / 8] |= 1 << (i % 8);
            }
        }
        out
    }

    fn unpack_into(&self, data_word: u128, check: &[u8]) -> BitCodeword {
        let mut word = self.code.scatter(data_word);
        for i in 0..self.code.parity_bits {
            if check[(i / 8) as usize] >> (i % 8) & 1 != 0 {
                word |= 1u128 << (1u32 << i);
            }
        }
        let op_idx = self.code.parity_bits;
        let overall_parity = check[(op_idx / 8) as usize] >> (op_idx % 8) & 1 != 0;
        BitCodeword {
            word,
            overall_parity,
        }
    }

    fn check_bytes(&self) -> usize {
        (self.code.check_bits() as usize).div_ceil(8)
    }
}

impl<const W: usize> Default for SecDedCodec<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const W: usize> Codec for SecDedCodec<W> {
    fn data_len(&self) -> usize {
        W
    }

    fn check_len(&self) -> usize {
        self.check_bytes()
    }

    fn encode(&self, data: &[u8]) -> Vec<u8> {
        check_lengths(self, data, None);
        let mut word = 0u128;
        for (i, &b) in data.iter().enumerate() {
            word |= (b as u128) << (8 * i);
        }
        self.pack_check(&self.code.encode_bits(word))
    }

    fn decode(&self, data: &mut [u8], check: &[u8]) -> DecodeOutcome {
        check_lengths(self, data, Some(check));
        let mut word = 0u128;
        for (i, &b) in data.iter().enumerate() {
            word |= (b as u128) << (8 * i);
        }
        let cw = self.unpack_into(word, check);
        let (recovered, outcome) = self.code.decode_bits_full(cw);
        if let Some(rec) = recovered {
            for (i, byte) in data.iter_mut().enumerate() {
                *byte = (rec >> (8 * i)) as u8;
            }
        }
        outcome
    }

    fn name(&self) -> String {
        format!(
            "SEC-DED({},{})",
            self.code.codeword_bits(),
            self.code.data_bits()
        )
    }
}

/// The canonical (72,64) SEC-DED memory code: 8 data bytes, 1 check byte.
pub type SecDed64 = SecDedCodec<8>;

/// The (39,32) SEC-DED code used for on-die ECC: 4 data bytes, 1 check byte
/// (7 meaningful check bits).
pub type SecDed32 = SecDedCodec<4>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameters_match_textbook() {
        let c64 = HammingSecDed::new(64);
        assert_eq!(c64.check_bits(), 8);
        assert_eq!(c64.codeword_bits(), 72);
        let c32 = HammingSecDed::new(32);
        assert_eq!(c32.check_bits(), 7);
        assert_eq!(c32.codeword_bits(), 39);
        let c8 = HammingSecDed::new(8);
        assert_eq!(c8.check_bits(), 5);
        assert_eq!(c8.codeword_bits(), 13);
    }

    #[test]
    fn clean_round_trip() {
        let code = HammingSecDed::new(64);
        for data in [0u128, 1, u64::MAX as u128, 0xDEAD_BEEF_0123_4567] {
            let cw = code.encode_bits(data);
            let (rec, outcome) = code.decode_bits_full(cw);
            assert_eq!(outcome, DecodeOutcome::Clean);
            assert_eq!(rec.unwrap(), data);
        }
    }

    /// Eight seeded random data words of `code`'s width (at most 64 bits).
    fn random_words(code: &HammingSecDed, seed: u64) -> impl Iterator<Item = u128> {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let mask = (1u128 << code.data_bits) - 1;
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..8).map(move |_| u128::from(rng.gen::<u64>()) & mask)
    }

    #[test]
    fn corrects_every_single_bit_error() {
        for bits in [8, 32, 64] {
            let code = HammingSecDed::new(bits);
            for data in random_words(&code, u64::from(bits)) {
                let clean = code.encode_bits(data);
                for p in 0..=code.n {
                    let mut cw = clean;
                    cw.flip(p);
                    let (rec, outcome) = code.decode_bits_full(cw);
                    assert!(
                        matches!(outcome, DecodeOutcome::Corrected { .. }),
                        "{bits} bits, data {data:#x}: position {p} not corrected: {outcome:?}"
                    );
                    assert_eq!(
                        rec.unwrap(),
                        data,
                        "{bits} bits, data {data:#x}: wrong correction at position {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn detects_every_double_bit_error() {
        for bits in [8, 32, 64] {
            let code = HammingSecDed::new(bits);
            for data in random_words(&code, u64::from(bits)) {
                let clean = code.encode_bits(data);
                for p1 in 0..=code.n {
                    for p2 in (p1 + 1)..=code.n {
                        let mut cw = clean;
                        cw.flip(p1);
                        cw.flip(p2);
                        let (_, outcome) = code.decode_bits_full(cw);
                        assert_eq!(
                            outcome,
                            DecodeOutcome::DetectedUncorrectable,
                            "{bits} bits, data {data:#x}: double error ({p1},{p2}) not detected"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn byte_codec_round_trip_and_correction() {
        let codec = SecDed64::new();
        assert_eq!(codec.data_len(), 8);
        assert_eq!(codec.check_len(), 1);
        let original = *b"\x00\xFF\x55\xAA\x01\x80\x7E\x81";
        let check = codec.encode(&original);
        // Clean decode.
        let mut data = original;
        assert_eq!(codec.decode(&mut data, &check), DecodeOutcome::Clean);
        // Every single-bit data error is corrected back.
        for byte in 0..8 {
            for bit in 0..8 {
                let mut data = original;
                data[byte] ^= 1 << bit;
                let outcome = codec.decode(&mut data, &check);
                assert_eq!(outcome, DecodeOutcome::Corrected { flipped_bits: 1 });
                assert_eq!(data, original, "byte {byte} bit {bit}");
            }
        }
        // Check-byte errors are corrected without touching data.
        for bit in 0..8 {
            let mut data = original;
            let mut bad_check = check.clone();
            bad_check[0] ^= 1 << bit;
            let outcome = codec.decode(&mut data, &bad_check);
            assert_eq!(outcome, DecodeOutcome::Corrected { flipped_bits: 0 });
            assert_eq!(data, original);
        }
    }

    #[test]
    fn byte_codec_detects_double_errors() {
        let codec = SecDed32::new();
        let original = [0x12, 0x34, 0x56, 0x78];
        let check = codec.encode(&original);
        let mut data = original;
        data[0] ^= 0b11; // two adjacent bit flips
        assert_eq!(
            codec.decode(&mut data, &check),
            DecodeOutcome::DetectedUncorrectable
        );
    }

    #[test]
    fn name_and_redundancy() {
        let codec = SecDed64::new();
        assert_eq!(codec.name(), "SEC-DED(72,64)");
        assert!((codec.redundancy() - 0.125).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "data_bits")]
    fn rejects_oversized_width() {
        let _ = HammingSecDed::new(MAX_DATA_BITS + 1);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn rejects_wrong_data_len() {
        let codec = SecDed64::new();
        let _ = codec.encode(&[0u8; 4]);
    }
}
