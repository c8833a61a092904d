//! Precision traces: the per-group effective precisions the cycle simulators
//! consume.
//!
//! For small networks the traces come from real values: a functional datapath
//! in `loom-sim` reports the per-group activation precisions its detector
//! measured as an [`Explicit`](GroupPrecisionSource::Explicit) source, and
//! [`crate::group`] measures per-group weight precisions. For the six paper
//! networks — whose trained weights and ImageNet inputs are not available — a
//! calibrated statistical model supplies the same information: the average
//! fraction of the profile precision that the runtime detectors actually
//! observe. The calibration constants are derived from the paper's own
//! published results (see `EXPERIMENTS.md`), which is exactly the substitution
//! documented in `DESIGN.md` §2: the cycle model sees precision statistics
//! pinned to the published data.

use loom_model::Precision;

/// Where a layer's per-group effective precisions come from.
#[derive(Debug, Clone, PartialEq)]
pub enum GroupPrecisionSource {
    /// Every group uses the layer's nominal (profile) precision — i.e. dynamic
    /// detection disabled. This is what the plain `Stripes` comparator and a
    /// Loom configuration without dynamic reduction see.
    Nominal,
    /// Groups average `fraction × nominal` bits (0 < fraction ≤ 1): the
    /// statistical model of runtime detection.
    Scaled {
        /// Mean effective precision as a fraction of the nominal precision.
        fraction: f64,
    },
    /// Explicit measured per-group precisions (from real activation or weight
    /// values); indexed cyclically if the simulator needs more groups than
    /// provided.
    Explicit(Vec<Precision>),
    /// Explicit measured average effective bits (possibly fractional), e.g.
    /// Table 3's per-layer effective weight precisions.
    AverageBits(f64),
}

impl GroupPrecisionSource {
    /// Effective precision, in (possibly fractional) bits, of group
    /// `group_index` for a layer whose nominal precision is `nominal`.
    ///
    /// The result is always within `[1, nominal]`: dynamic detection can never
    /// exceed the profile precision and the hardware never uses fewer than one
    /// bit.
    pub fn effective_bits(&self, nominal: Precision, group_index: usize) -> f64 {
        let nominal_bits = f64::from(nominal.bits());
        let raw = match self {
            GroupPrecisionSource::Nominal => nominal_bits,
            GroupPrecisionSource::Scaled { fraction } => nominal_bits * fraction,
            GroupPrecisionSource::Explicit(groups) => {
                if groups.is_empty() {
                    nominal_bits
                } else {
                    f64::from(groups[group_index % groups.len()].bits())
                }
            }
            GroupPrecisionSource::AverageBits(bits) => *bits,
        };
        raw.clamp(1.0, nominal_bits)
    }

    /// Average effective bits over `groups` groups.
    pub fn average_effective_bits(&self, nominal: Precision, groups: usize) -> f64 {
        if groups == 0 {
            return f64::from(nominal.bits());
        }
        (0..groups)
            .map(|g| self.effective_bits(nominal, g))
            .sum::<f64>()
            / groups as f64
    }
}

/// Complete precision information for simulating one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerPrecisionSpec {
    /// Profile (nominal) activation precision for the layer.
    pub activation: Precision,
    /// Profile (nominal) weight precision for the layer.
    pub weight: Precision,
    /// Runtime per-group activation precision source (dynamic reduction).
    pub dynamic_activation: GroupPrecisionSource,
    /// Per-group weight precision source (§4.6, Table 3/4). `Nominal` means the
    /// per-layer profile precision is used throughout, as in Table 2.
    pub group_weight: GroupPrecisionSource,
}

impl LayerPrecisionSpec {
    /// A spec where both activations and weights use the full 16 bits — the
    /// behaviour of the bit-parallel baseline.
    pub fn full_precision() -> Self {
        LayerPrecisionSpec {
            activation: Precision::FULL,
            weight: Precision::FULL,
            dynamic_activation: GroupPrecisionSource::Nominal,
            group_weight: GroupPrecisionSource::Nominal,
        }
    }

    /// A borrowed full-precision spec with `'static` lifetime, for hot paths
    /// that need a fallback spec without allocating (see
    /// `PrecisionAssignment::for_layer` in `loom-sim`).
    pub fn full_precision_static() -> &'static LayerPrecisionSpec {
        static FULL: LayerPrecisionSpec = LayerPrecisionSpec {
            activation: Precision::FULL,
            weight: Precision::FULL,
            dynamic_activation: GroupPrecisionSource::Nominal,
            group_weight: GroupPrecisionSource::Nominal,
        };
        &FULL
    }

    /// A spec using profile precisions only (no runtime detection), as the
    /// `Stripes` comparator and the static-profile Loom rows use.
    pub fn static_profile(activation: Precision, weight: Precision) -> Self {
        LayerPrecisionSpec {
            activation,
            weight,
            dynamic_activation: GroupPrecisionSource::Nominal,
            group_weight: GroupPrecisionSource::Nominal,
        }
    }

    /// Average effective activation bits over `groups` activation groups.
    pub fn effective_activation_bits(&self, groups: usize) -> f64 {
        self.dynamic_activation
            .average_effective_bits(self.activation, groups)
    }

    /// Average effective weight bits over `groups` weight groups.
    pub fn effective_weight_bits(&self, groups: usize) -> f64 {
        self.group_weight
            .average_effective_bits(self.weight, groups)
    }
}

/// Calibrated mean dynamic-activation fraction per network: the fraction of the
/// profile activation precision that the per-group-of-256 runtime detector
/// observes on average, derived from the gap between the paper's static-profile
/// (`Stripes`-style) and Loom results in Table 2.
///
/// Unknown networks get a conservative default of 0.85.
pub fn dynamic_activation_fraction(network: &str) -> f64 {
    match network.to_ascii_lowercase().as_str() {
        "nin" => 0.83,
        "alexnet" => 0.73,
        "googlenet" | "google" => 0.86,
        "vggs" | "vgg-s" => 0.63,
        "vggm" | "vgg-m" => 0.67,
        "vgg19" | "vgg-19" => 0.75,
        _ => 0.80,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(bits: u8) -> Precision {
        Precision::new(bits).unwrap()
    }

    #[test]
    fn nominal_source_returns_nominal_bits() {
        let s = GroupPrecisionSource::Nominal;
        assert_eq!(s.effective_bits(p(9), 0), 9.0);
        assert_eq!(s.average_effective_bits(p(9), 100), 9.0);
    }

    #[test]
    fn scaled_source_never_exceeds_nominal_or_drops_below_one() {
        let s = GroupPrecisionSource::Scaled { fraction: 0.75 };
        assert!((s.effective_bits(p(8), 0) - 6.0).abs() < 1e-12);
        let high = GroupPrecisionSource::Scaled { fraction: 1.5 };
        assert_eq!(high.effective_bits(p(8), 0), 8.0);
        let low = GroupPrecisionSource::Scaled { fraction: 0.01 };
        assert_eq!(low.effective_bits(p(8), 0), 1.0);
    }

    #[test]
    fn explicit_source_cycles_through_groups() {
        let s = GroupPrecisionSource::Explicit(vec![p(3), p(5)]);
        assert_eq!(s.effective_bits(p(8), 0), 3.0);
        assert_eq!(s.effective_bits(p(8), 1), 5.0);
        assert_eq!(s.effective_bits(p(8), 2), 3.0);
        assert_eq!(s.average_effective_bits(p(8), 4), 4.0);
        // Explicit precisions above nominal are clamped (detection can never
        // require more than the profile guarantees).
        let s = GroupPrecisionSource::Explicit(vec![p(12)]);
        assert_eq!(s.effective_bits(p(8), 0), 8.0);
        let empty = GroupPrecisionSource::Explicit(vec![]);
        assert_eq!(empty.effective_bits(p(8), 0), 8.0);
    }

    #[test]
    fn average_bits_source_is_clamped_to_nominal() {
        let s = GroupPrecisionSource::AverageBits(7.62);
        assert!((s.effective_bits(p(11), 0) - 7.62).abs() < 1e-12);
        assert_eq!(s.effective_bits(p(6), 0), 6.0);
    }

    #[test]
    fn layer_spec_constructors() {
        let full = LayerPrecisionSpec::full_precision();
        assert_eq!(full.activation.bits(), 16);
        assert_eq!(full.effective_activation_bits(10), 16.0);
        let spec = LayerPrecisionSpec::static_profile(p(7), p(11));
        assert_eq!(spec.effective_weight_bits(5), 11.0);
    }

    #[test]
    fn zero_groups_average_falls_back_to_nominal() {
        let s = GroupPrecisionSource::Scaled { fraction: 0.5 };
        assert_eq!(s.average_effective_bits(p(10), 0), 10.0);
    }

    #[test]
    fn calibration_fractions_are_sane() {
        for net in loom_model::zoo::NETWORK_NAMES {
            let f = dynamic_activation_fraction(net);
            assert!(f > 0.5 && f <= 1.0, "{net}: {f}");
        }
        assert_eq!(dynamic_activation_fraction("unknown"), 0.80);
    }
}
