//! The vocabulary every simulation shares: [`AcceleratorKind`], the compact
//! serializable key for the six datapaths the paper evaluates (the tables,
//! CSV export and energy model key off it), and the per-layer
//! [`PrecisionAssignment`] a network runs under.
//!
//! The engine holds no per-datapath logic. [`crate::accelerator::build`]
//! turns a kind into its [`Accelerator`](crate::accelerator::Accelerator)
//! model, and
//! [`Accelerator::simulate_network`](crate::accelerator::Accelerator::simulate_network)
//! runs that model over a network.

use crate::config::LoomVariant;
use loom_model::network::Network;
use loom_precision::trace::{GroupPrecisionSource, LayerPrecisionSpec};
use std::fmt;

/// The accelerators the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AcceleratorKind {
    /// The bit-parallel DaDianNao-style baseline.
    Dpnn,
    /// Stripes: bit-serial activations with static per-layer precisions,
    /// convolutional layers only.
    Stripes,
    /// Dynamic Stripes: Stripes plus runtime per-group activation precisions.
    DStripes,
    /// Loom with the given bits-per-cycle variant.
    Loom(LoomVariant),
}

impl AcceleratorKind {
    /// All accelerators in the order Figure 4 plots them.
    pub fn all() -> Vec<AcceleratorKind> {
        vec![
            AcceleratorKind::Dpnn,
            AcceleratorKind::Stripes,
            AcceleratorKind::DStripes,
            AcceleratorKind::Loom(LoomVariant::Lm1b),
            AcceleratorKind::Loom(LoomVariant::Lm2b),
            AcceleratorKind::Loom(LoomVariant::Lm4b),
        ]
    }
}

impl fmt::Display for AcceleratorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AcceleratorKind::Dpnn => write!(f, "DPNN"),
            AcceleratorKind::Stripes => write!(f, "Stripes"),
            AcceleratorKind::DStripes => write!(f, "DStripes"),
            AcceleratorKind::Loom(v) => write!(f, "{v}"),
        }
    }
}

/// A per-network precision assignment: one [`LayerPrecisionSpec`] per *compute*
/// layer, in network order. Non-compute layers (pooling) need no entry.
#[derive(Debug, Clone, PartialEq)]
pub struct PrecisionAssignment {
    specs: Vec<LayerPrecisionSpec>,
}

impl PrecisionAssignment {
    /// Creates an assignment from explicit per-compute-layer specs.
    pub fn new(specs: Vec<LayerPrecisionSpec>) -> Self {
        PrecisionAssignment { specs }
    }

    /// An assignment where every layer runs at the full 16 bits.
    pub fn full_precision(network: &Network) -> Self {
        PrecisionAssignment {
            specs: network
                .compute_layers()
                .map(|_| LayerPrecisionSpec::full_precision())
                .collect(),
        }
    }

    /// The spec for compute layer `index`, falling back to full precision.
    ///
    /// Returns a borrow — this is on the per-layer hot path of every sweep,
    /// and the spec holds per-group `Vec`s that must not be cloned per call.
    pub fn for_layer(&self, index: usize) -> &LayerPrecisionSpec {
        self.specs
            .get(index)
            .unwrap_or_else(|| LayerPrecisionSpec::full_precision_static())
    }

    /// Number of per-layer specs.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the assignment holds no specs.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

/// Builds the precision assignment the paper's headline experiments use for
/// `network`: per-layer profile precisions plus a `Scaled` dynamic activation
/// source with the given fraction, and optionally per-group effective weight
/// precisions (`group_weight_bits`, one entry per *conv* layer as in Table 3).
pub fn assignment_from_profile(
    network: &Network,
    profile: &loom_precision::NetworkProfile,
    dynamic_fraction: Option<f64>,
    group_weight_bits: Option<(&[f64], &[f64])>,
) -> PrecisionAssignment {
    let mut specs = Vec::new();
    let mut conv_idx = 0usize;
    let mut fc_idx = 0usize;
    for layer in network.compute_layers() {
        let spec = if layer.kind.is_conv() {
            let activation = profile.conv_activation(conv_idx);
            let weight = profile.conv_weight;
            let dynamic_activation = match dynamic_fraction {
                Some(fraction) => GroupPrecisionSource::Scaled { fraction },
                None => GroupPrecisionSource::Nominal,
            };
            let group_weight = match group_weight_bits {
                Some((conv_bits, _)) => conv_bits
                    .get(conv_idx)
                    .map(|&b| GroupPrecisionSource::AverageBits(b))
                    .unwrap_or(GroupPrecisionSource::Nominal),
                None => GroupPrecisionSource::Nominal,
            };
            conv_idx += 1;
            LayerPrecisionSpec {
                activation,
                weight,
                dynamic_activation,
                group_weight,
            }
        } else {
            let weight = profile.fc_weight(fc_idx);
            let group_weight = match group_weight_bits {
                Some((_, fc_bits)) => fc_bits
                    .get(fc_idx)
                    .map(|&b| GroupPrecisionSource::AverageBits(b))
                    .unwrap_or(GroupPrecisionSource::Nominal),
                None => GroupPrecisionSource::Nominal,
            };
            fc_idx += 1;
            LayerPrecisionSpec {
                activation: profile.fc_activation(),
                weight,
                dynamic_activation: GroupPrecisionSource::Nominal,
                group_weight,
            }
        };
        specs.push(spec);
    }
    PrecisionAssignment::new(specs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accelerator::build;
    use crate::config::EquivalentConfig;
    use loom_model::zoo;
    use loom_precision::table1;
    use loom_precision::AccuracyTarget;

    const CONFIG: EquivalentConfig = EquivalentConfig::BASELINE_128;
    const LM1B: AcceleratorKind = AcceleratorKind::Loom(LoomVariant::Lm1b);

    fn alexnet_assignment(dynamic: Option<f64>) -> (loom_model::Network, PrecisionAssignment) {
        let net = zoo::alexnet();
        let profile = table1::profile("AlexNet", AccuracyTarget::Lossless).unwrap();
        let assignment = assignment_from_profile(&net, &profile, dynamic, None);
        (net, assignment)
    }

    #[test]
    fn dpnn_cycles_are_independent_of_precisions() {
        let (net, assignment) = alexnet_assignment(Some(0.8));
        let dpnn = build(AcceleratorKind::Dpnn, CONFIG);
        let with_profile = dpnn.simulate_network(&net, &assignment);
        let full = dpnn.simulate_network(&net, &PrecisionAssignment::full_precision(&net));
        assert_eq!(with_profile.total_cycles(), full.total_cycles());
    }

    #[test]
    fn alexnet_static_loom_speedups_match_ideal_formulas() {
        // With the static 100% profile (no dynamic detection), the MAC-weighted
        // ideal predicts ~3.4x for CVLs and ~1.66x for FCLs (see DESIGN.md);
        // the simulated tiling should land close to that.
        let (net, assignment) = alexnet_assignment(None);
        let dpnn = build(AcceleratorKind::Dpnn, CONFIG).simulate_network(&net, &assignment);
        let lm = build(LM1B, CONFIG).simulate_network(&net, &assignment);
        let conv = lm.conv_speedup_vs(&dpnn);
        let fc = lm.fc_speedup_vs(&dpnn);
        assert!((3.0..=3.8).contains(&conv), "conv speedup {conv}");
        assert!((1.5..=1.8).contains(&fc), "fc speedup {fc}");
    }

    #[test]
    fn dynamic_detection_only_helps_loom_convolutions() {
        let (net, static_assignment) = alexnet_assignment(None);
        let (_, dynamic_assignment) = alexnet_assignment(Some(0.8));
        let lm = build(LM1B, CONFIG);
        let lm_static = lm.simulate_network(&net, &static_assignment);
        let lm_dynamic = lm.simulate_network(&net, &dynamic_assignment);
        assert!(lm_dynamic.conv_cycles() < lm_static.conv_cycles());
        assert_eq!(lm_dynamic.fc_cycles(), lm_static.fc_cycles());
    }

    #[test]
    fn stripes_beats_dpnn_but_loses_to_loom_on_convs() {
        let (net, assignment) = alexnet_assignment(Some(0.8));
        let simulate = |kind| build(kind, CONFIG).simulate_network(&net, &assignment);
        let dpnn = simulate(AcceleratorKind::Dpnn);
        let stripes = simulate(AcceleratorKind::Stripes);
        let dstripes = simulate(AcceleratorKind::DStripes);
        let lm = simulate(LM1B);
        let s = stripes.conv_speedup_vs(&dpnn);
        let ds = dstripes.conv_speedup_vs(&dpnn);
        let l = lm.conv_speedup_vs(&dpnn);
        assert!(s > 1.5, "Stripes {s}");
        assert!(ds > s, "DStripes {ds} vs Stripes {s}");
        assert!(l > ds, "Loom {l} vs DStripes {ds}");
        // Stripes gains nothing on FCLs.
        assert_eq!(stripes.fc_cycles(), dpnn.fc_cycles());
    }

    #[test]
    fn loom_storage_is_packed_and_moves_fewer_bits() {
        let (net, assignment) = alexnet_assignment(Some(0.8));
        let dpnn = build(AcceleratorKind::Dpnn, CONFIG).simulate_network(&net, &assignment);
        let lm = build(LM1B, CONFIG).simulate_network(&net, &assignment);
        assert!(lm.total_traffic().total_bits() < dpnn.total_traffic().total_bits());
    }

    #[test]
    fn accelerator_display_names() {
        assert_eq!(AcceleratorKind::Dpnn.to_string(), "DPNN");
        assert_eq!(
            AcceleratorKind::Loom(LoomVariant::Lm2b).to_string(),
            "Loom 2-bit"
        );
        assert_eq!(AcceleratorKind::all().len(), 6);
    }

    #[test]
    fn assignment_accessors() {
        let (net, assignment) = alexnet_assignment(None);
        assert_eq!(assignment.len(), net.compute_layers().count());
        assert!(!assignment.is_empty());
        // Out-of-range layers fall back to full precision, without cloning.
        assert_eq!(assignment.for_layer(999).activation.bits(), 16);
        let a = assignment.for_layer(999) as *const LayerPrecisionSpec;
        let b = assignment.for_layer(999) as *const LayerPrecisionSpec;
        assert_eq!(a, b, "fallback spec is a shared static, not a fresh clone");
    }
}
