//! Fixed-point quantization and re-quantization.
//!
//! The quantized inference pipeline mirrors the methodology of the
//! reduced-precision line of work the paper builds on (Judd et al.): weights
//! and activations are linearly quantized to at most 16-bit fixed point, each
//! layer's wide accumulator outputs are scaled back down by a per-layer
//! right-shift, and precision trimming is modeled by clamping/truncating values
//! to the profile precision.

use crate::fixed::{clamp_to_precision, signed_range, Precision};

/// Linear quantizer mapping real values to fixed-point integers with a given
/// number of fractional bits.
///
/// # Examples
///
/// ```
/// use loom_model::quant::Quantizer;
/// use loom_model::fixed::Precision;
///
/// let q = Quantizer::new(8, Precision::new(12).unwrap());
/// let x = q.quantize(1.5);
/// assert_eq!(x, 384);               // 1.5 * 2^8
/// assert!((q.dequantize(x) - 1.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quantizer {
    frac_bits: u8,
    precision: Precision,
}

impl Quantizer {
    /// Creates a quantizer with `frac_bits` fractional bits that clamps results
    /// into the signed range of `precision`.
    pub fn new(frac_bits: u8, precision: Precision) -> Self {
        Quantizer {
            frac_bits,
            precision,
        }
    }

    /// The scale factor `2^frac_bits`.
    pub fn scale(&self) -> f64 {
        f64::from(1u32 << self.frac_bits)
    }

    /// The target precision.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Quantizes a real value to fixed point, rounding to nearest and clamping
    /// into the representable range.
    pub fn quantize(&self, value: f64) -> i32 {
        let scaled = (value * self.scale()).round();
        let (min, max) = signed_range(self.precision);
        scaled.clamp(f64::from(min), f64::from(max)) as i32
    }

    /// Converts a fixed-point value back to a real value.
    pub fn dequantize(&self, value: i32) -> f64 {
        f64::from(value) / self.scale()
    }

    /// Quantizes a slice of real values.
    pub fn quantize_all(&self, values: &[f64]) -> Vec<i32> {
        values.iter().map(|&v| self.quantize(v)).collect()
    }
}

/// Re-quantizes a layer's wide (64-bit) accumulator outputs back into the
/// 16-bit activation domain by an arithmetic right shift with round-to-nearest,
/// then clamps into the range of `target`.
///
/// The shift plays the role of the per-layer output scale a fixed-point
/// inference engine applies between layers.
pub fn requantize(acc: &[i64], shift: u8, target: Precision) -> Vec<i32> {
    let (min, max) = signed_range(target);
    acc.iter()
        .map(|&v| {
            let rounded = if shift == 0 {
                v
            } else {
                let bias = 1i64 << (shift - 1);
                if v >= 0 {
                    (v + bias) >> shift
                } else {
                    -((-v + bias) >> shift)
                }
            };
            rounded.clamp(i64::from(min), i64::from(max)) as i32
        })
        .collect()
}

/// [`requantize`] followed by ReLU, in one branch-free pass: the
/// post-activation outputs of a compute layer. A negative accumulator
/// re-quantizes to a value at most 0, which ReLU zeroes, so every value is
/// `min((max(v, 0) + bias) >> shift, max)` with the same rounding bias.
///
/// The baseline x86-64 target (SSE2) has no 64-bit vector compare, so the
/// max and min do not vectorize there; on x86-64 the pass runs as a copy
/// compiled for AVX-512 or AVX2 when the CPU has either.
pub fn requantize_relu(acc: &[i64], shift: u8, target: Precision) -> Vec<i32> {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY (both calls): the copy's target feature was just detected.
        if std::arch::is_x86_feature_detected!("avx512f") {
            return unsafe { requantize_relu_avx512(acc, shift, target) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return unsafe { requantize_relu_avx2(acc, shift, target) };
        }
    }
    requantize_relu_on(acc, shift, target)
}

/// The body of [`requantize_relu`], inlined into each compiled copy. The
/// rounding add is the bit just below the shift,
/// `(x + 2^(s-1)) >> s == (x >> s) + (x >> (s-1) & 1)`, which cannot
/// overflow, even for `i64::MAX`.
#[inline(always)]
fn requantize_relu_on(acc: &[i64], shift: u8, target: Precision) -> Vec<i32> {
    let max = i64::from(signed_range(target).1);
    let round_bit = shift.saturating_sub(1);
    let round_mask = i64::from(shift > 0);
    acc.iter()
        .map(|&v| {
            let x = v.max(0);
            ((x >> shift) + (x >> round_bit & round_mask)).min(max) as i32
        })
        .collect()
}

/// [`requantize_relu_on`] compiled for AVX-512.
///
/// # Safety
///
/// The CPU must support `avx512f`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn requantize_relu_avx512(acc: &[i64], shift: u8, target: Precision) -> Vec<i32> {
    requantize_relu_on(acc, shift, target)
}

/// [`requantize_relu_on`] compiled for AVX2.
///
/// # Safety
///
/// The CPU must support `avx2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn requantize_relu_avx2(acc: &[i64], shift: u8, target: Precision) -> Vec<i32> {
    requantize_relu_on(acc, shift, target)
}

/// Chooses the smallest right-shift that brings the largest accumulator
/// magnitude within the representable range of `target`.
///
/// The magnitudes are OR-folded rather than maximised: the OR has the bit
/// length of the largest magnitude, which alone decides the shift, and the
/// fold vectorizes.
pub fn choose_requant_shift(acc: &[i64], target: Precision) -> u8 {
    let magnitudes = acc.iter().fold(0, |bits, v| bits | v.unsigned_abs());
    let (_, max) = signed_range(target);
    let limit = max as u64;
    let mut shift = 0u8;
    while shift < 63 && (magnitudes >> shift) > limit {
        shift += 1;
    }
    shift
}

/// Clamps every value to the representable range of `precision`, modelling the
/// effect of storing a layer's data with fewer bits than it would need.
pub fn apply_precision(values: &[i32], precision: Precision) -> Vec<i32> {
    values
        .iter()
        .map(|&v| clamp_to_precision(v, precision))
        .collect()
}

/// Relative root-mean-square error between a reduced-precision output and the
/// full-precision reference, used by the profiler as its accuracy proxy.
///
/// Returns 0.0 when both are identical and 1.0-scale errors when the outputs
/// are completely unrelated. An all-zero reference with a non-zero candidate
/// yields `f64::INFINITY`.
pub fn relative_rmse(reference: &[i64], candidate: &[i64]) -> f64 {
    assert_eq!(reference.len(), candidate.len(), "length mismatch");
    if reference.is_empty() {
        return 0.0;
    }
    let mut err = 0.0f64;
    let mut norm = 0.0f64;
    for (&r, &c) in reference.iter().zip(candidate.iter()) {
        let d = (r - c) as f64;
        err += d * d;
        norm += (r as f64) * (r as f64);
    }
    if norm == 0.0 {
        if err == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (err / norm).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantizer_roundtrip_within_half_lsb() {
        let q = Quantizer::new(10, Precision::FULL);
        for &v in &[0.0, 0.125, -1.75, 3.9990234375, -17.2] {
            let x = q.quantize(v);
            assert!(
                (q.dequantize(x) - v).abs() <= 0.5 / q.scale() + 1e-12,
                "value {v}"
            );
        }
    }

    #[test]
    fn quantizer_clamps_to_precision() {
        let q = Quantizer::new(8, Precision::new(8).unwrap());
        assert_eq!(q.quantize(100.0), 127);
        assert_eq!(q.quantize(-100.0), -128);
    }

    #[test]
    fn quantize_all_maps_each() {
        let q = Quantizer::new(0, Precision::FULL);
        assert_eq!(q.quantize_all(&[1.2, -3.7]), vec![1, -4]);
    }

    #[test]
    fn requantize_rounds_to_nearest() {
        let p = Precision::FULL;
        assert_eq!(requantize(&[7], 2, p), vec![2]);
        assert_eq!(requantize(&[6], 2, p), vec![2]);
        assert_eq!(requantize(&[5], 2, p), vec![1]);
        assert_eq!(requantize(&[-7], 2, p), vec![-2]);
        assert_eq!(requantize(&[100], 0, p), vec![100]);
    }

    #[test]
    fn requantize_clamps_to_target() {
        let p = Precision::new(8).unwrap();
        assert_eq!(requantize(&[1_000_000], 2, p), vec![127]);
        assert_eq!(requantize(&[-1_000_000], 2, p), vec![-128]);
    }

    #[test]
    fn requantize_relu_equals_requantize_then_relu() {
        use crate::reference::relu_in_place;
        for shift in 0u8..=62 {
            let bias: i128 = if shift == 0 { 0 } else { 1 << (shift - 1) };
            for bits in 1u8..=16 {
                let target = Precision::new(bits).unwrap();
                let max = i128::from(signed_range(target).1);
                let mut acc = vec![0i64, 1, -1, 2, -2, 1 << 40, -(1 << 40)];
                // Either side of the smallest accumulator that rounds to the
                // clamp value and to one past it, in both signs, wherever the
                // rounding add stays in range.
                for edge in [max, max + 1] {
                    for d in -1..=1 {
                        let x = (edge << shift) - bias + d;
                        if let (Ok(x), Ok(_)) = (i64::try_from(x), i64::try_from(x + bias)) {
                            acc.extend([x, -x]);
                        }
                    }
                }
                let mut expected = requantize(&acc, shift, target);
                relu_in_place(&mut expected);
                assert_eq!(
                    requantize_relu(&acc, shift, target),
                    expected,
                    "shift {shift}, {bits} bits"
                );
            }
        }
    }

    /// The per-value forms the vectorized passes replaced, kept as their
    /// oracles: the rounding bias added before the shift (in `i128`, so that
    /// it cannot overflow next to `i64::MAX`), and a max of the magnitudes.
    pub(super) fn requantize_relu_oracle(acc: &[i64], shift: u8, target: Precision) -> Vec<i32> {
        let max = i128::from(signed_range(target).1);
        let bias = if shift == 0 { 0 } else { 1i128 << (shift - 1) };
        acc.iter()
            .map(|&v| ((i128::from(v).max(0) + bias) >> shift).min(max) as i32)
            .collect()
    }

    pub(super) fn choose_requant_shift_oracle(acc: &[i64], target: Precision) -> u8 {
        let max_abs = acc.iter().map(|v| v.unsigned_abs()).max().unwrap_or(0);
        let limit = signed_range(target).1 as u64;
        let mut shift = 0u8;
        while shift < 63 && (max_abs >> shift) > limit {
            shift += 1;
        }
        shift
    }

    type Requantizer = fn(&[i64], u8, Precision) -> Vec<i32>;

    /// The dispatched pass and every compiled copy of it this CPU can run.
    pub(super) fn requantize_relu_copies() -> Vec<(&'static str, Requantizer)> {
        let mut copies: Vec<(&'static str, Requantizer)> = vec![
            ("dispatched", requantize_relu),
            ("baseline", requantize_relu_on),
        ];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: `avx512f` was just detected.
                copies.push(("avx512", |a, s, t| unsafe {
                    requantize_relu_avx512(a, s, t)
                }));
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: `avx2` was just detected.
                copies.push(("avx2", |a, s, t| unsafe { requantize_relu_avx2(a, s, t) }));
            }
        }
        copies
    }

    /// Every copy of the requantize pass, and the OR-folded shift, equal the
    /// per-value forms over every shift and precision, on the edge values
    /// (0, ±1, ±2, ±2^40, `i64::MIN`, `i64::MAX`) at every position of
    /// vectors of length 0, 1 and lengths that are no multiple of any vector
    /// width, and on values of every bit length.
    #[test]
    fn vectorized_requantization_matches_the_per_value_forms() {
        let specials = [0, 1, -1, 2, -2, 1 << 40, -(1 << 40), i64::MIN, i64::MAX];
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut random = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as i64) >> (state % 64)
        };
        let mut vectors = Vec::new();
        for len in [0usize, 1, 3, 7, 9, 17, 31, 33] {
            for offset in 0..specials.len() {
                vectors.push(
                    (0..len)
                        .map(|i| specials[(i + offset) % specials.len()])
                        .collect(),
                );
            }
            vectors.push((0..len).map(|_| random()).collect::<Vec<i64>>());
        }
        let copies = requantize_relu_copies();
        for acc in &vectors {
            for bits in 1u8..=16 {
                let target = Precision::new(bits).unwrap();
                assert_eq!(
                    choose_requant_shift(acc, target),
                    choose_requant_shift_oracle(acc, target),
                    "{bits} bits, {acc:?}"
                );
                for shift in 0u8..=62 {
                    let expected = requantize_relu_oracle(acc, shift, target);
                    for (name, copy) in &copies {
                        assert_eq!(
                            copy(acc, shift, target),
                            expected,
                            "{name}: shift {shift}, {bits} bits, {acc:?}"
                        );
                    }
                }
            }
        }
        // The cap: a magnitude of 2^63 needs 64 bits, one more than a shift
        // can take off.
        assert_eq!(
            choose_requant_shift(&[i64::MIN], Precision::new(1).unwrap()),
            63
        );
    }

    #[test]
    fn choose_shift_brings_values_in_range() {
        let acc = vec![123_456_789i64, -987_654, 42];
        let target = Precision::new(12).unwrap();
        let shift = choose_requant_shift(&acc, target);
        let out = requantize(&acc, shift, target);
        let (min, max) = signed_range(target);
        // The chosen shift keeps the (pre-clamp) values within range: verify the
        // extreme value is not saturated by more than rounding.
        assert!(out.iter().all(|&v| v >= min && v <= max));
        assert!(shift > 0);
        assert_eq!(choose_requant_shift(&[1, 2, 3], target), 0);
    }

    #[test]
    fn relative_rmse_zero_for_identical() {
        let a = vec![1, -2, 3];
        assert_eq!(relative_rmse(&a, &a), 0.0);
    }

    #[test]
    fn relative_rmse_grows_with_error() {
        let reference = vec![100, 200, -300];
        let close = vec![101, 199, -302];
        let far = vec![0, 0, 0];
        assert!(relative_rmse(&reference, &close) < relative_rmse(&reference, &far));
        assert!(relative_rmse(&[], &[]) == 0.0);
        assert!(relative_rmse(&[0, 0], &[1, 0]).is_infinite());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Quantize/dequantize round-trips within half an LSB for in-range values.
        #[test]
        fn quantizer_roundtrip(frac in 0u8..12, value in -100.0f64..100.0) {
            let q = Quantizer::new(frac, Precision::FULL);
            let (min, max) = signed_range(Precision::FULL);
            let scaled = value * q.scale();
            prop_assume!(scaled > f64::from(min) && scaled < f64::from(max));
            let x = q.quantize(value);
            prop_assert!((q.dequantize(x) - value).abs() <= 0.5 / q.scale() + 1e-12);
        }

        /// Requantization never leaves the target range and is monotone in its input.
        #[test]
        fn requantize_stays_in_range_and_is_monotone(
            a in -1_000_000i64..1_000_000,
            b in -1_000_000i64..1_000_000,
            shift in 0u8..16,
            bits in 2u8..16,
        ) {
            let target = Precision::new(bits).unwrap();
            let (min, max) = signed_range(target);
            let out = requantize(&[a, b], shift, target);
            prop_assert!(out.iter().all(|&v| v >= min && v <= max));
            if a <= b {
                prop_assert!(out[0] <= out[1], "{a} -> {} vs {b} -> {}", out[0], out[1]);
            }
        }

        /// Every copy of the requantize pass, and the OR-folded shift, equal
        /// the per-value forms on random accumulators of every magnitude.
        #[test]
        fn vectorized_requantization_matches_on_random_accumulators(
            raw in prop::collection::vec(any::<i64>(), 0..40),
            scale in 0u32..64,
            shift in 0u8..63,
            bits in 1u8..=16,
        ) {
            let acc: Vec<i64> = raw.iter().map(|&v| v >> scale).collect();
            let target = Precision::new(bits).unwrap();
            prop_assert_eq!(
                choose_requant_shift(&acc, target),
                super::tests::choose_requant_shift_oracle(&acc, target)
            );
            let expected = super::tests::requantize_relu_oracle(&acc, shift, target);
            for (_, copy) in super::tests::requantize_relu_copies() {
                prop_assert_eq!(copy(&acc, shift, target), expected.clone());
            }
        }

        /// Clamping to a precision is idempotent and never increases magnitude.
        #[test]
        fn apply_precision_is_idempotent(values in prop::collection::vec(-40_000i32..40_000, 1..50), bits in 1u8..=16) {
            let p = Precision::new(bits).unwrap();
            let once = apply_precision(&values, p);
            let twice = apply_precision(&once, p);
            prop_assert_eq!(&once, &twice);
            for (orig, clamped) in values.iter().zip(once.iter()) {
                prop_assert!(clamped.unsigned_abs() <= orig.unsigned_abs().max(1 << (bits - 1)));
            }
        }
    }
}
