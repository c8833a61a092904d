//! Synthetic weight and activation generators.
//!
//! ImageNet-trained models for the six evaluated networks are not available in
//! this environment, so the reproduction substitutes synthetic tensors whose
//! *bit-precision statistics* are calibrated to the paper's published profiles
//! (Table 1) — see `DESIGN.md` §2. The generators below guarantee two
//! properties the simulators depend on:
//!
//! 1. the layer-wide required precision equals the requested profile precision
//!    exactly (a value of maximal magnitude is always planted), and
//! 2. the magnitude distribution is heavy at small values, so per-group
//!    precisions detected at runtime fall below the layer profile — the effect
//!    Loom's dynamic precision reduction exploits.

use crate::fixed::Precision;
use rand::RngExt;

/// Controls how strongly synthetic values concentrate near zero.
///
/// The generator draws the bit-length of each value from a truncated geometric
/// distribution that starts at one bit and grows by one bit per step with
/// probability `1 - p_small`. Larger `p_small` therefore means more small
/// values, lower effective per-group precisions, and more benefit from dynamic
/// precision reduction — matching the heavily zero-skewed magnitude
/// distributions of real post-ReLU activations and trained weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValueDistribution {
    /// Per-step probability that the value's bit-length stops growing.
    pub p_small: f64,
    /// Fraction of exactly-zero values (activation sparsity after ReLU).
    pub zero_fraction: f64,
}

impl ValueDistribution {
    /// Distribution used for synthetic weights: mildly concentrated, no
    /// structural zeros (the paper's Loom does not exploit sparsity).
    pub fn weights() -> Self {
        ValueDistribution {
            p_small: 0.35,
            zero_fraction: 0.02,
        }
    }

    /// Distribution used for synthetic post-ReLU activations: strongly
    /// concentrated near zero with substantial sparsity, which is what drives
    /// the dynamic per-group activation precisions below the profile values.
    pub fn activations() -> Self {
        ValueDistribution {
            p_small: 0.30,
            zero_fraction: 0.45,
        }
    }

    /// Draws one signed value that fits in `precision` bits (two's complement).
    pub fn draw_signed<R: RngExt>(&self, rng: &mut R, precision: Precision) -> i32 {
        Sampler::new(*self).signed(rng, precision)
    }

    /// Draws one non-negative value that fits in `precision` bits (unsigned).
    pub fn draw_unsigned<R: RngExt>(&self, rng: &mut R, precision: Precision) -> i32 {
        Sampler::new(*self).unsigned(rng, precision)
    }
}

/// A [`ValueDistribution`]'s two probabilities as thresholds on the
/// generator's raw 64-bit draws. A uniform `f64` is `(draw >> 11) · 2^-53`,
/// exactly, so `random::<f64>() < p` holds exactly when
/// `draw >> 11 < ceil(p · 2^53)`. Comparing integers draws the same values,
/// and leaves the generator in the same place, without converting every
/// draw to a float.
#[derive(Debug, Clone, Copy)]
struct Sampler {
    /// Draws below this (after `>> 11`) are exact zeros.
    zero: u64,
    /// Draws at or above this (after `>> 11`) grow a value by one bit.
    grow: u64,
}

impl Sampler {
    fn new(dist: ValueDistribution) -> Self {
        // `ceil(p · 2^53)`, the smallest 53-bit draw `m` with `m · 2^-53 >= p`
        // (scaling by a power of two is exact).
        let threshold = |p: f64| (p * (1u64 << 53) as f64).ceil() as u64;
        Sampler {
            zero: threshold(dist.zero_fraction),
            grow: threshold(dist.p_small),
        }
    }

    /// Whether the next value is an exact zero.
    fn zero<R: RngExt>(self, rng: &mut R) -> bool {
        rng.next_u64() >> 11 < self.zero
    }

    /// Draws the number of magnitude bits for one value, in `1..=max_bits`.
    fn bits<R: RngExt>(self, rng: &mut R, max_bits: u8) -> u8 {
        let mut bits = 1u8;
        while bits < max_bits && rng.next_u64() >> 11 >= self.grow {
            bits += 1;
        }
        bits
    }

    /// Draws a magnitude: a bit length in `1..=max_bits`, then a value
    /// uniform below `2^length`.
    fn magnitude<R: RngExt>(self, rng: &mut R, max_bits: u8) -> i32 {
        let max_mag = (1i64 << self.bits(rng, max_bits)) - 1;
        rng.random_range(0..=max_mag) as i32
    }

    fn signed<R: RngExt>(self, rng: &mut R, precision: Precision) -> i32 {
        if self.zero(rng) {
            return 0;
        }
        let mag = self.magnitude(rng, precision.bits().saturating_sub(1).max(1));
        if rng.random::<bool>() {
            mag
        } else {
            -mag
        }
    }

    fn unsigned<R: RngExt>(self, rng: &mut R, precision: Precision) -> i32 {
        if self.zero(rng) {
            return 0;
        }
        self.magnitude(rng, precision.bits())
    }
}

/// Generates `count` synthetic signed weights whose layer-wide required
/// precision is exactly `precision`: a value of maximal negative magnitude is
/// planted at index 0 (two's complement reaches `-2^(P-1)` with `P` bits).
///
/// # Panics
///
/// Panics if `count == 0`.
pub fn synthetic_weights<R: RngExt>(
    rng: &mut R,
    count: usize,
    precision: Precision,
    dist: ValueDistribution,
) -> Vec<i32> {
    assert!(count > 0, "cannot generate an empty weight tensor");
    let sampler = Sampler::new(dist);
    let mut values: Vec<i32> = (0..count).map(|_| sampler.signed(rng, precision)).collect();
    // Plant the extreme value so the layer needs exactly `precision` bits.
    values[0] = -(1i32 << (precision.bits() - 1));
    values
}

/// Generates `count` synthetic weights from a deterministic seed, with the
/// default weight distribution — a convenience for callers (e.g. the scaling
/// study's compressed-weight DRAM model) that need reproducible weight
/// statistics at a given storage precision without threading an RNG through.
pub fn seeded_weights(seed: u64, count: usize, precision: Precision) -> Vec<i32> {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    synthetic_weights(&mut rng, count, precision, ValueDistribution::weights())
}

/// Generates `count` synthetic non-negative activations (post-ReLU) whose
/// layer-wide required precision is exactly `precision`.
///
/// # Panics
///
/// Panics if `count == 0`.
pub fn synthetic_activations<R: RngExt>(
    rng: &mut R,
    count: usize,
    precision: Precision,
    dist: ValueDistribution,
) -> Vec<i32> {
    assert!(count > 0, "cannot generate an empty activation tensor");
    let sampler = Sampler::new(dist);
    let mut values: Vec<i32> = (0..count)
        .map(|_| sampler.unsigned(rng, precision))
        .collect();
    values[0] = (1i32 << precision.bits()) - 1;
    values
}

/// Generates synthetic signed input-image activations (the network input may be
/// signed, e.g. mean-subtracted pixels), with layer-wide precision exactly
/// `precision`.
pub fn synthetic_signed_activations<R: RngExt>(
    rng: &mut R,
    count: usize,
    precision: Precision,
    dist: ValueDistribution,
) -> Vec<i32> {
    assert!(count > 0, "cannot generate an empty activation tensor");
    let sampler = Sampler::new(dist);
    let mut values: Vec<i32> = (0..count).map(|_| sampler.signed(rng, precision)).collect();
    values[0] = (1i32 << (precision.bits() - 1)) - 1;
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::{required_precision, required_unsigned_precision};
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// The floating-point sampler [`Sampler`] replaced, kept as its oracle:
    /// every probability compared against a uniform `f64` draw.
    mod oracle {
        use super::*;

        fn draw_bits(dist: ValueDistribution, rng: &mut StdRng, max_bits: u8) -> u8 {
            let mut bits = 1u8;
            while bits < max_bits && rng.random::<f64>() >= dist.p_small {
                bits += 1;
            }
            bits
        }

        pub fn signed(dist: ValueDistribution, rng: &mut StdRng, precision: Precision) -> i32 {
            if rng.random::<f64>() < dist.zero_fraction {
                return 0;
            }
            let mag_bits = draw_bits(dist, rng, precision.bits().saturating_sub(1).max(1));
            let mag = rng.random_range(0..=(1i64 << mag_bits) - 1) as i32;
            if rng.random::<bool>() {
                mag
            } else {
                -mag
            }
        }

        pub fn unsigned(dist: ValueDistribution, rng: &mut StdRng, precision: Precision) -> i32 {
            if rng.random::<f64>() < dist.zero_fraction {
                return 0;
            }
            let mag_bits = draw_bits(dist, rng, precision.bits());
            rng.random_range(0..=(1i64 << mag_bits) - 1) as i32
        }
    }

    #[test]
    fn integer_thresholds_draw_what_the_float_comparisons_drew() {
        for seed in [0u64, 1, 7, 2018, u64::MAX] {
            for count in [1usize, 2, 31, 400] {
                for bits in 1..=16u8 {
                    let p = Precision::new(bits).unwrap();
                    for dist in [
                        ValueDistribution::weights(),
                        ValueDistribution::activations(),
                    ] {
                        let (mut fast, mut slow) =
                            (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                        let mut expected: Vec<i32> = (0..count)
                            .map(|_| oracle::signed(dist, &mut slow, p))
                            .collect();
                        expected[0] = -(1i32 << (bits - 1));
                        assert_eq!(synthetic_weights(&mut fast, count, p, dist), expected);
                        assert_eq!(fast.next_u64(), slow.next_u64(), "weights, seed {seed}");

                        let mut expected: Vec<i32> = (0..count)
                            .map(|_| oracle::unsigned(dist, &mut slow, p))
                            .collect();
                        expected[0] = (1i32 << bits) - 1;
                        assert_eq!(synthetic_activations(&mut fast, count, p, dist), expected);
                        assert_eq!(fast.next_u64(), slow.next_u64(), "activations, seed {seed}");
                    }
                }
            }
        }
    }

    #[test]
    fn thresholds_hold_at_the_probability_edges() {
        // p = 0 never zeroes and always grows; p = 1 always zeroes and never
        // grows; p = 0.5 splits the 53-bit draws exactly in half.
        let never = Sampler::new(ValueDistribution {
            p_small: 0.0,
            zero_fraction: 0.0,
        });
        assert_eq!((never.zero, never.grow), (0, 0));
        let always = Sampler::new(ValueDistribution {
            p_small: 1.0,
            zero_fraction: 1.0,
        });
        assert_eq!((always.zero, always.grow), (1 << 53, 1 << 53));
        let half = Sampler::new(ValueDistribution {
            p_small: 0.5,
            zero_fraction: 0.5,
        });
        assert_eq!((half.zero, half.grow), (1 << 52, 1 << 52));
        // Each threshold is the smallest draw whose float reaches `p`.
        let unit = |m: u64| m as f64 * (1.0 / (1u64 << 53) as f64);
        for p in [0.02, 0.1, 0.3, 0.35, 0.45, 0.999] {
            let t = Sampler::new(ValueDistribution {
                p_small: p,
                zero_fraction: p,
            })
            .grow;
            assert!(unit(t) >= p && unit(t - 1) < p, "p = {p}");
        }
    }

    #[test]
    fn weights_hit_exact_precision() {
        let mut rng = StdRng::seed_from_u64(7);
        for p in 2..=16u8 {
            let prec = Precision::new(p).unwrap();
            let w = synthetic_weights(&mut rng, 500, prec, ValueDistribution::weights());
            assert_eq!(required_precision(&w), prec, "precision {p}");
        }
    }

    #[test]
    fn activations_hit_exact_precision_and_are_nonnegative() {
        let mut rng = StdRng::seed_from_u64(11);
        for p in 1..=16u8 {
            let prec = Precision::new(p).unwrap();
            let a = synthetic_activations(&mut rng, 500, prec, ValueDistribution::activations());
            assert!(a.iter().all(|&v| v >= 0));
            assert_eq!(required_unsigned_precision(&a), prec, "precision {p}");
        }
    }

    #[test]
    fn signed_activations_hit_exact_precision() {
        let mut rng = StdRng::seed_from_u64(13);
        let prec = Precision::new(9).unwrap();
        let a = synthetic_signed_activations(&mut rng, 200, prec, ValueDistribution::activations());
        assert_eq!(required_precision(&a), prec);
    }

    #[test]
    fn distribution_produces_small_values_often() {
        let mut rng = StdRng::seed_from_u64(3);
        let prec = Precision::new(12).unwrap();
        let a = synthetic_activations(&mut rng, 4000, prec, ValueDistribution::activations());
        let small = a.iter().filter(|&&v| v < 64).count();
        // Most post-ReLU activations should be small — that is what makes
        // dynamic precision reduction worthwhile.
        assert!(
            small > a.len() / 2,
            "only {small} of {} values are small",
            a.len()
        );
    }

    #[test]
    fn deterministic_for_same_seed() {
        let prec = Precision::new(10).unwrap();
        let a: Vec<i32> = synthetic_weights(
            &mut StdRng::seed_from_u64(42),
            64,
            prec,
            ValueDistribution::weights(),
        );
        let b: Vec<i32> = synthetic_weights(
            &mut StdRng::seed_from_u64(42),
            64,
            prec,
            ValueDistribution::weights(),
        );
        assert_eq!(a, b);
    }
}
