//! Fixed-point value helpers.
//!
//! The Loom paper evaluates networks quantized to 16-bit fixed point
//! ("`DPNN` uses 16-bit fixed-point activations and weights", §3.1) and exploits
//! the fact that most layers only *need* a handful of those bits. Everything in
//! this module is about answering one question precisely: *how many bits does a
//! given value (or set of values) actually require?*
//!
//! Values are carried as `i32` for headroom, but semantically every weight and
//! activation is a signed 16-bit fixed-point number (`Q` format is irrelevant to
//! the accelerator: only the integer bit pattern matters).

/// Maximum precision any value may use, matching the paper's 16-bit baseline.
pub const MAX_PRECISION: u8 = 16;

/// A precision (bit width) in the inclusive range `1..=16`.
///
/// The newtype statically rules out the zero / >16 widths that the cycle models
/// would otherwise have to guard against at every call site.
///
/// # Examples
///
/// ```
/// use loom_model::fixed::Precision;
/// let p = Precision::new(5).unwrap();
/// assert_eq!(p.bits(), 5);
/// assert!(Precision::new(0).is_none());
/// assert!(Precision::new(17).is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Precision(u8);

impl Precision {
    /// Full 16-bit precision, the baseline the paper compares against.
    pub const FULL: Precision = Precision(MAX_PRECISION);

    /// Creates a precision, returning `None` unless `1 <= bits <= 16`.
    pub fn new(bits: u8) -> Option<Self> {
        if (1..=MAX_PRECISION).contains(&bits) {
            Some(Precision(bits))
        } else {
            None
        }
    }

    /// Creates a precision, clamping into the valid `1..=16` range.
    pub fn saturating(bits: u8) -> Self {
        Precision(bits.clamp(1, MAX_PRECISION))
    }

    /// The width in bits.
    pub fn bits(self) -> u8 {
        self.0
    }

    /// The width in bits as a `u64`, convenient for cycle arithmetic.
    pub fn bits_u64(self) -> u64 {
        u64::from(self.0)
    }

    /// Rounds the precision up to a multiple of `step` (used by the LM2b/LM4b
    /// variants which "accommodate precisions that are multiple of 2 and 4").
    ///
    /// # Panics
    ///
    /// Panics if `step` is zero.
    pub fn round_up_to_multiple(self, step: u8) -> Precision {
        assert!(step > 0, "rounding step must be non-zero");
        let bits = self.0.div_ceil(step) * step;
        Precision::saturating(bits)
    }
}

impl Default for Precision {
    fn default() -> Self {
        Precision::FULL
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}b", self.0)
    }
}

/// Returns the number of bits needed to represent `value` as a signed
/// two's-complement quantity, excluding nothing: a sign bit is always counted
/// for negative numbers, and `0` needs one bit.
///
/// This mirrors the per-layer profiling of Judd et al. and the runtime
/// leading-one detection of Lascorz et al.: for non-negative values it is the
/// position of the leading one plus one; for negative values it is the width of
/// the two's-complement encoding.
///
/// # Examples
///
/// ```
/// use loom_model::fixed::signed_bits;
/// assert_eq!(signed_bits(0), 1);
/// assert_eq!(signed_bits(1), 2);    // 01
/// assert_eq!(signed_bits(-1), 1);   // 1
/// assert_eq!(signed_bits(7), 4);    // 0111
/// assert_eq!(signed_bits(-8), 4);   // 1000
/// assert_eq!(signed_bits(255), 9);
/// ```
pub fn signed_bits(value: i32) -> u8 {
    if value >= 0 {
        (32 - value.leading_zeros() + 1).min(32) as u8
    } else {
        (32 - (!value).leading_zeros() + 1).min(32) as u8
    }
    .max(1)
}

/// Returns the number of magnitude bits needed for `value` when treated as an
/// unsigned quantity (post-ReLU activations are non-negative, and this is the
/// count the OR-tree + leading-one detector of the dynamic precision hardware
/// produces).
///
/// `0` requires one bit by convention, matching the hardware which can never
/// use a zero-cycle precision.
///
/// # Examples
///
/// ```
/// use loom_model::fixed::unsigned_bits;
/// assert_eq!(unsigned_bits(0), 1);
/// assert_eq!(unsigned_bits(1), 1);
/// assert_eq!(unsigned_bits(2), 2);
/// assert_eq!(unsigned_bits(255), 8);
/// assert_eq!(unsigned_bits(256), 9);
/// ```
pub fn unsigned_bits(value: u32) -> u8 {
    (32 - value.leading_zeros()).max(1) as u8
}

/// Returns the smallest precision that can hold every value in `values` as a
/// signed two's-complement number, clamped to 16 bits.
///
/// This is the software model of the per-group precision detectors: a per-bit
/// OR tree followed by a leading-one detector. `v ^ (v >> 31)` marks the bits
/// of `v` that differ from its sign, so OR-folding it over the slice and
/// taking the leading one gives the widest [`signed_bits`] less its sign bit.
/// The fold is branch-free, so it vectorizes and runs at memory speed.
pub fn required_precision(values: &[i32]) -> Precision {
    let fold = values.iter().fold(0, |acc, &v| acc | (v ^ (v >> 31)));
    // The fold is non-negative, so its width is at most 31.
    Precision::saturating((32 - fold.leading_zeros() + 1) as u8)
}

/// Returns the smallest precision that can hold every value in `values` when
/// the values are known non-negative (e.g. post-ReLU activations). Negative
/// values count as zero. Like [`required_precision`], an OR-fold (of
/// `max(v, 0)`) followed by a leading-one detector.
pub fn required_unsigned_precision(values: &[i32]) -> Precision {
    let fold = values.iter().fold(0, |acc, &v| acc | v.max(0));
    Precision::saturating((32 - fold.leading_zeros()) as u8)
}

/// The inclusive value range representable by a signed two's-complement number
/// of the given precision.
///
/// # Examples
///
/// ```
/// use loom_model::fixed::{signed_range, Precision};
/// assert_eq!(signed_range(Precision::new(4).unwrap()), (-8, 7));
/// assert_eq!(signed_range(Precision::new(16).unwrap()), (-32768, 32767));
/// ```
pub fn signed_range(precision: Precision) -> (i32, i32) {
    let p = i64::from(precision.bits());
    let max = (1i64 << (p - 1)) - 1;
    let min = -(1i64 << (p - 1));
    (min as i32, max as i32)
}

/// Clamps `value` into the representable range of a signed number of the given
/// precision. This is the quantization the profiler applies when it trims a
/// layer's precision below what the values would need.
pub fn clamp_to_precision(value: i32, precision: Precision) -> i32 {
    let (min, max) = signed_range(precision);
    value.clamp(min, max)
}

/// Truncates `value` to its `precision` least-significant bits interpreted as a
/// signed two's-complement number. This models what the bit-serial datapath
/// computes if it is (incorrectly) fed fewer bits than a value requires, and is
/// used by tests that check the *lossless* property of dynamic precision
/// reduction: truncating to the detected precision must be the identity.
pub fn truncate_to_precision(value: i32, precision: Precision) -> i32 {
    let p = precision.bits() as u32;
    if p >= 32 {
        return value;
    }
    let shifted = (value as u32) << (32 - p);
    (shifted as i32) >> (32 - p)
}

/// Extracts bit `bit` (0 = LSB) of `value`'s two's-complement encoding.
pub fn bit_of(value: i32, bit: u8) -> u8 {
    ((value as u32) >> bit & 1) as u8
}

/// Packs bit `bit` of every value's two's-complement encoding into one word:
/// bit `i` of the result is [`bit_of`]`(values[i], bit)`.
///
/// This is the transpose at the heart of the packed SIP datapath: once the
/// operands are laid out as one word per bit plane, a SIP's 16-input AND +
/// adder tree becomes a single `AND` + `count_ones()`.
///
/// # Panics
///
/// Panics if `values.len() > 64` (a plane word holds at most 64 lanes).
///
/// # Examples
///
/// ```
/// use loom_model::fixed::bit_plane;
/// assert_eq!(bit_plane(&[1, 0, 3, 2], 0), 0b0101);
/// assert_eq!(bit_plane(&[1, 0, 3, 2], 1), 0b1100);
/// ```
pub fn bit_plane(values: &[i32], bit: u8) -> u64 {
    assert!(values.len() <= 64, "a bit plane holds at most 64 lanes");
    let mut plane = 0u64;
    for (lane, &v) in values.iter().enumerate() {
        plane |= u64::from(bit_of(v, bit)) << lane;
    }
    plane
}

/// Packs the signs of the values into one word: bit `i` is set iff
/// `values[i] < 0`. Together with the bit planes this is all the packed
/// datapath needs to apply two's-complement MSB negation and to detect
/// required precisions word-wise.
///
/// # Panics
///
/// Panics if `values.len() > 64`.
///
/// # Examples
///
/// ```
/// use loom_model::fixed::sign_plane;
/// assert_eq!(sign_plane(&[3, -1, 0, -7]), 0b1010);
/// ```
pub fn sign_plane(values: &[i32]) -> u64 {
    assert!(values.len() <= 64, "a bit plane holds at most 64 lanes");
    let mut plane = 0u64;
    for (lane, &v) in values.iter().enumerate() {
        plane |= u64::from(v < 0) << lane;
    }
    plane
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_rejects_out_of_range() {
        assert!(Precision::new(0).is_none());
        assert!(Precision::new(17).is_none());
        assert_eq!(Precision::new(1).unwrap().bits(), 1);
        assert_eq!(Precision::new(16).unwrap().bits(), 16);
    }

    #[test]
    fn precision_saturating_clamps() {
        assert_eq!(Precision::saturating(0).bits(), 1);
        assert_eq!(Precision::saturating(200).bits(), 16);
        assert_eq!(Precision::saturating(7).bits(), 7);
    }

    #[test]
    fn precision_round_up_to_multiple() {
        let p5 = Precision::new(5).unwrap();
        assert_eq!(p5.round_up_to_multiple(1).bits(), 5);
        assert_eq!(p5.round_up_to_multiple(2).bits(), 6);
        assert_eq!(p5.round_up_to_multiple(4).bits(), 8);
        let p16 = Precision::FULL;
        assert_eq!(p16.round_up_to_multiple(4).bits(), 16);
    }

    #[test]
    fn precision_display() {
        assert_eq!(Precision::new(9).unwrap().to_string(), "9b");
    }

    #[test]
    fn signed_bits_matches_twos_complement_width() {
        for p in 1..=16u8 {
            let (min, max) = signed_range(Precision::new(p).unwrap());
            assert!(signed_bits(min) <= p, "min of {p} bits fits in {p}");
            assert!(signed_bits(max) <= p, "max of {p} bits fits in {p}");
            if p < 16 {
                assert!(signed_bits(max + 1) == p + 1 || max == i32::from(i16::MAX));
            }
        }
        assert_eq!(signed_bits(0), 1);
        assert_eq!(signed_bits(-1), 1);
        assert_eq!(signed_bits(-2), 2);
        assert_eq!(signed_bits(1), 2);
    }

    #[test]
    fn unsigned_bits_basics() {
        assert_eq!(unsigned_bits(0), 1);
        assert_eq!(unsigned_bits(1), 1);
        assert_eq!(unsigned_bits(15), 4);
        assert_eq!(unsigned_bits(16), 5);
        assert_eq!(unsigned_bits(u32::from(u16::MAX)), 16);
    }

    #[test]
    fn required_precision_over_group() {
        assert_eq!(required_precision(&[0, 0, 0]).bits(), 1);
        assert_eq!(required_precision(&[1, -1, 3]).bits(), 3);
        assert_eq!(required_precision(&[127, -128]).bits(), 8);
        assert_eq!(required_precision(&[]).bits(), 1);
    }

    #[test]
    fn truncate_is_identity_at_sufficient_precision() {
        for v in [-32768, -1, 0, 1, 255, 32767] {
            let p = Precision::saturating(signed_bits(v));
            assert_eq!(truncate_to_precision(v, p), v, "value {v}");
        }
    }

    #[test]
    fn truncate_drops_high_bits() {
        assert_eq!(truncate_to_precision(0b1010, Precision::new(3).unwrap()), 2);
        assert_eq!(truncate_to_precision(255, Precision::new(8).unwrap()), -1);
    }

    #[test]
    fn clamp_respects_range() {
        let p = Precision::new(8).unwrap();
        assert_eq!(clamp_to_precision(1000, p), 127);
        assert_eq!(clamp_to_precision(-1000, p), -128);
        assert_eq!(clamp_to_precision(5, p), 5);
    }

    #[test]
    fn bit_of_extracts_bits() {
        let v = 0b1011;
        assert_eq!(bit_of(v, 0), 1);
        assert_eq!(bit_of(v, 1), 1);
        assert_eq!(bit_of(v, 2), 0);
        assert_eq!(bit_of(v, 3), 1);
        assert_eq!(bit_of(-1, 15), 1);
    }

    #[test]
    fn bit_plane_transposes_lane_bits() {
        let values = [5, -1, 0, 2];
        for bit in 0..16u8 {
            let plane = bit_plane(&values, bit);
            for (lane, &v) in values.iter().enumerate() {
                assert_eq!(
                    (plane >> lane & 1) as u8,
                    bit_of(v, bit),
                    "lane {lane} bit {bit}"
                );
            }
        }
        assert_eq!(bit_plane(&[], 3), 0);
    }

    #[test]
    fn sign_plane_marks_negative_lanes() {
        assert_eq!(sign_plane(&[1, -2, -3, 0, i32::MIN]), 0b10110);
        assert_eq!(sign_plane(&[]), 0);
    }

    #[test]
    #[should_panic(expected = "at most 64 lanes")]
    fn bit_plane_rejects_too_many_lanes() {
        bit_plane(&[0; 65], 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `signed_bits` is the smallest two's-complement width that holds the
        /// value: truncating to it is the identity, truncating one bit lower
        /// (when possible) is not.
        #[test]
        fn signed_bits_is_minimal(value in -32768i32..=32767) {
            let bits = signed_bits(value);
            let p = Precision::saturating(bits);
            prop_assert_eq!(truncate_to_precision(value, p), value);
            if bits > 1 {
                let narrower = Precision::saturating(bits - 1);
                prop_assert_ne!(truncate_to_precision(value, narrower), value);
            }
        }

        /// The group detector returns a precision that covers every member.
        #[test]
        fn required_precision_covers_group(values in prop::collection::vec(-32768i32..=32767, 1..64)) {
            let p = required_precision(&values);
            for &v in &values {
                prop_assert_eq!(truncate_to_precision(v, p), v);
            }
        }

        /// Rounding up to a step never decreases the precision and lands on a
        /// multiple of the step (or saturates at 16).
        #[test]
        fn round_up_to_multiple_properties(bits in 1u8..=16, step in 1u8..=4) {
            let p = Precision::new(bits).unwrap();
            let rounded = p.round_up_to_multiple(step);
            prop_assert!(rounded >= p);
            prop_assert!(rounded.bits().is_multiple_of(step) || rounded.bits() == 16);
        }

        /// The OR-fold detectors equal the per-value maximum they replaced,
        /// on 16-bit values and on values past 16 bits, which saturate.
        #[test]
        fn fold_detectors_match_the_per_value_maximum(
            narrow in prop::collection::vec(-32768i32..=32767, 0..300),
            wide in prop::collection::vec(-(1i32 << 24)..=(1 << 24), 0..300),
        ) {
            for values in [&narrow, &wide] {
                prop_assert_eq!(required_precision(values), per_value_signed(values));
                prop_assert_eq!(required_unsigned_precision(values), per_value_unsigned(values));
            }
        }
    }

    /// The per-value signed detector the fold replaced, kept as the oracle.
    fn per_value_signed(values: &[i32]) -> Precision {
        Precision::saturating(values.iter().map(|&v| signed_bits(v)).max().unwrap_or(1))
    }

    /// The per-value unsigned detector the fold replaced, kept as the oracle.
    fn per_value_unsigned(values: &[i32]) -> Precision {
        let bits = values.iter().map(|&v| unsigned_bits(v.max(0) as u32)).max();
        Precision::saturating(bits.unwrap_or(1))
    }

    #[test]
    fn fold_detectors_match_the_per_value_maximum_on_edges() {
        let edges: [&[i32]; 12] = [
            &[],
            &[0],
            &[-1],
            &[0, -1, 0, -1],
            &[32767],
            &[-32768],
            &[32768],
            &[-32769],
            &[65535, 0],
            &[1 << 20, -3],
            &[i32::MIN],
            &[i32::MAX, i32::MIN, 0],
        ];
        for values in edges {
            assert_eq!(
                required_precision(values),
                per_value_signed(values),
                "{values:?}"
            );
            assert_eq!(
                required_unsigned_precision(values),
                per_value_unsigned(values),
                "{values:?}"
            );
        }
        // The 16-bit boundaries, and saturation beyond them.
        assert_eq!(required_precision(&[0, -1]).bits(), 1);
        assert_eq!(required_precision(&[32767, -32768]).bits(), 16);
        assert_eq!(required_precision(&[32768]).bits(), 16);
        assert_eq!(required_precision(&[i32::MIN]).bits(), 16);
        assert_eq!(required_unsigned_precision(&[i32::MAX]).bits(), 16);
        assert_eq!(required_unsigned_precision(&[-5]).bits(), 1);
    }
}
