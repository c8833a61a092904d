//! Experiment plumbing shared by every table and figure of the evaluation:
//! building precision assignments from the published profiles, running all
//! accelerators over a network, and collecting speedup / efficiency numbers.

use loom_energy::EnergyModel;
use loom_model::network::Network;
use loom_model::zoo;
use loom_precision::table1;
use loom_precision::table3;
use loom_precision::trace::dynamic_activation_fraction;
use loom_precision::AccuracyTarget;
use loom_sim::accelerator;
use loom_sim::counts::NetworkSim;
use loom_sim::engine::{assignment_from_profile, AcceleratorKind, PrecisionAssignment};
use loom_sim::{EquivalentConfig, LoomVariant};

/// Which weight-precision granularity an experiment uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightGranularity {
    /// One weight precision per network/layer as in Table 1 (Table 2, Figure 4).
    PerLayerProfile,
    /// Per-group effective weight precisions as in Table 3 (Table 4).
    PerGroupEffective,
}

/// Settings for one experimental run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentSettings {
    /// Design point (equivalent peak MACs per cycle).
    pub config: EquivalentConfig,
    /// Accuracy target selecting the Table 1 profile.
    pub target: AccuracyTarget,
    /// Whether Loom and DStripes apply runtime per-group activation precision
    /// reduction (the paper's default).
    pub dynamic_activation: bool,
    /// Weight precision granularity.
    pub weights: WeightGranularity,
}

impl Default for ExperimentSettings {
    fn default() -> Self {
        ExperimentSettings {
            config: EquivalentConfig::BASELINE_128,
            target: AccuracyTarget::Lossless,
            dynamic_activation: true,
            weights: WeightGranularity::PerLayerProfile,
        }
    }
}

impl ExperimentSettings {
    /// The Table 4 configuration: per-group weight precisions, 100% profile.
    pub fn per_group_weights() -> Self {
        ExperimentSettings {
            weights: WeightGranularity::PerGroupEffective,
            ..Default::default()
        }
    }
}

/// The precision assignment an experiment uses for `network` under `settings`.
///
/// One assignment serves every accelerator. With
/// `settings.dynamic_activation` its conv layers carry the runtime activation
/// source, which only the accelerators that detect precisions at runtime
/// (Loom, DStripes) read; Stripes and the DPNN baseline ignore it.
pub fn build_assignment(network: &Network, settings: &ExperimentSettings) -> PrecisionAssignment {
    let profile = table1::profile(network.name(), settings.target)
        .unwrap_or_else(|| panic!("no Table 1 profile for network {}", network.name()));
    let fraction = if settings.dynamic_activation {
        Some(dynamic_activation_fraction(network.name()))
    } else {
        None
    };
    let conv_bits_storage;
    let fc_bits_storage;
    let group_bits = match settings.weights {
        WeightGranularity::PerLayerProfile => None,
        WeightGranularity::PerGroupEffective => {
            conv_bits_storage = table3::effective_conv_weight_bits(network.name())
                .unwrap_or_else(|| panic!("no Table 3 data for network {}", network.name()));
            let nominal_fc: Vec<u8> = profile.fc_weights.iter().map(|p| p.bits()).collect();
            fc_bits_storage = table3::effective_fc_weight_bits(
                network.name(),
                &nominal_fc,
                profile.conv_weight.bits(),
            );
            Some((conv_bits_storage.as_slice(), fc_bits_storage.as_slice()))
        }
    };
    assignment_from_profile(network, &profile, fraction, group_bits)
}

/// Speedup and energy efficiency of one accelerator relative to the baseline,
/// split by layer class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelativeResult {
    /// Speedup over the convolutional layers.
    pub conv_speedup: f64,
    /// Speedup over the fully-connected layers (NaN when the network has none).
    pub fc_speedup: f64,
    /// Speedup over all layers combined.
    pub all_speedup: f64,
    /// Energy efficiency over the convolutional layers.
    pub conv_efficiency: f64,
    /// Energy efficiency over the fully-connected layers.
    pub fc_efficiency: f64,
    /// Energy efficiency over all layers combined.
    pub all_efficiency: f64,
}

/// The evaluation of one network: the baseline run plus every comparator.
#[derive(Debug, Clone)]
pub struct NetworkEvaluation {
    /// Network name.
    pub network: String,
    /// Whether the network has fully-connected layers at all (NiN does not).
    pub has_fc: bool,
    /// The baseline simulation.
    pub dpnn: NetworkSim,
    /// Per-accelerator relative results, keyed by the accelerator kind.
    pub relatives: Vec<(AcceleratorKind, RelativeResult)>,
}

impl NetworkEvaluation {
    /// The relative result for one accelerator, if it was evaluated.
    pub fn result_for(&self, kind: AcceleratorKind) -> Option<RelativeResult> {
        self.relatives
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, r)| *r)
    }
}

/// The non-baseline accelerators every evaluation compares against DPNN, in
/// table order.
pub fn comparator_kinds() -> [AcceleratorKind; 5] {
    [
        AcceleratorKind::Stripes,
        AcceleratorKind::DStripes,
        AcceleratorKind::Loom(LoomVariant::Lm1b),
        AcceleratorKind::Loom(LoomVariant::Lm2b),
        AcceleratorKind::Loom(LoomVariant::Lm4b),
    ]
}

/// Runs `network` under `settings` on the baseline and all comparators.
pub fn evaluate_network(network: &Network, settings: &ExperimentSettings) -> NetworkEvaluation {
    let assignment = build_assignment(network, settings);
    let simulate =
        |kind| accelerator::build(kind, settings.config).simulate_network(network, &assignment);
    let dpnn = simulate(AcceleratorKind::Dpnn);
    let energy = EnergyModel::new(settings.config);
    let relatives = comparator_kinds()
        .into_iter()
        .map(|kind| (kind, relative_result(&energy, &dpnn, &simulate(kind), kind)))
        .collect();
    NetworkEvaluation {
        network: network.name().to_string(),
        has_fc: network.fc_layers().count() > 0,
        dpnn,
        relatives,
    }
}

/// Evaluates all six paper networks under `settings`, in table order.
pub fn evaluate_all_networks(settings: &ExperimentSettings) -> Vec<NetworkEvaluation> {
    zoo::all()
        .iter()
        .map(|net| evaluate_network(net, settings))
        .collect()
}

fn relative_result(
    energy: &EnergyModel,
    dpnn: &NetworkSim,
    sim: &NetworkSim,
    kind: AcceleratorKind,
) -> RelativeResult {
    // Per-class efficiency: the paper's Table 2 reports efficiency separately
    // for FCLs and CVLs; the energy model is applied to the per-class cycle
    // and traffic subsets. Off-chip energy is excluded here, matching the §4.3
    // setting (it is accounted for separately in the Figure 5 study).
    let conv_eff = class_efficiency(energy, dpnn, sim, kind, LayerFilter::Conv);
    let fc_eff = class_efficiency(energy, dpnn, sim, kind, LayerFilter::Fc);
    let all_eff = class_efficiency(energy, dpnn, sim, kind, LayerFilter::All);
    RelativeResult {
        conv_speedup: sim.conv_speedup_vs(dpnn),
        fc_speedup: sim.fc_speedup_vs(dpnn),
        all_speedup: sim.speedup_vs(dpnn),
        conv_efficiency: conv_eff,
        fc_efficiency: fc_eff,
        all_efficiency: all_eff,
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum LayerFilter {
    Conv,
    Fc,
    All,
}

fn filtered(sim: &NetworkSim, filter: LayerFilter) -> NetworkSim {
    use loom_sim::counts::LayerClass;
    NetworkSim {
        accelerator: sim.accelerator.clone(),
        network: sim.network.clone(),
        layers: sim
            .layers
            .iter()
            .filter(|l| match filter {
                LayerFilter::Conv => l.class == LayerClass::Conv,
                LayerFilter::Fc => l.class == LayerClass::FullyConnected,
                LayerFilter::All => true,
            })
            .cloned()
            .collect(),
    }
}

fn class_efficiency(
    energy: &EnergyModel,
    dpnn: &NetworkSim,
    sim: &NetworkSim,
    kind: AcceleratorKind,
    filter: LayerFilter,
) -> f64 {
    let dpnn_f = filtered(dpnn, filter);
    let sim_f = filtered(sim, filter);
    if dpnn_f.total_cycles() == 0 || sim_f.total_cycles() == 0 {
        return f64::NAN;
    }
    energy.efficiency(AcceleratorKind::Dpnn, &dpnn_f, 0, kind, &sim_f, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alexnet_headline_numbers_are_in_the_paper_band() {
        let eval = evaluate_network(&zoo::alexnet(), &ExperimentSettings::default());
        let lm1b = eval
            .result_for(AcceleratorKind::Loom(LoomVariant::Lm1b))
            .unwrap();
        // Paper Table 2, AlexNet, 100% profile: conv 4.25x / 3.43x eff,
        // FC 1.65x / 1.34x eff. Allow a generous band for the substitutions.
        assert!(
            (3.4..=5.2).contains(&lm1b.conv_speedup),
            "conv {}",
            lm1b.conv_speedup
        );
        assert!(
            (1.4..=1.9).contains(&lm1b.fc_speedup),
            "fc {}",
            lm1b.fc_speedup
        );
        assert!(
            lm1b.conv_efficiency > 2.0,
            "conv eff {}",
            lm1b.conv_efficiency
        );
        assert!(lm1b.fc_efficiency > 1.0, "fc eff {}", lm1b.fc_efficiency);
    }

    #[test]
    fn stripes_matches_its_published_alexnet_numbers() {
        let eval = evaluate_network(&zoo::alexnet(), &ExperimentSettings::default());
        let stripes = eval.result_for(AcceleratorKind::Stripes).unwrap();
        // Paper: Stripes AlexNet conv 2.34x, FC 1.00x.
        assert!(
            (2.1..=2.6).contains(&stripes.conv_speedup),
            "conv {}",
            stripes.conv_speedup
        );
        assert!(
            (0.99..=1.01).contains(&stripes.fc_speedup),
            "fc {}",
            stripes.fc_speedup
        );
    }

    #[test]
    fn nin_has_no_fc_results() {
        let eval = evaluate_network(&zoo::nin(), &ExperimentSettings::default());
        assert!(!eval.has_fc);
        let lm = eval
            .result_for(AcceleratorKind::Loom(LoomVariant::Lm1b))
            .unwrap();
        assert!(lm.fc_efficiency.is_nan());
        assert!(lm.conv_speedup > 2.0);
    }

    #[test]
    fn per_group_weights_improve_over_per_layer() {
        let net = zoo::alexnet();
        let per_layer = evaluate_network(&net, &ExperimentSettings::default());
        let per_group = evaluate_network(&net, &ExperimentSettings::per_group_weights());
        let a = per_layer
            .result_for(AcceleratorKind::Loom(LoomVariant::Lm1b))
            .unwrap();
        let b = per_group
            .result_for(AcceleratorKind::Loom(LoomVariant::Lm1b))
            .unwrap();
        assert!(b.all_speedup > a.all_speedup);
    }

    #[test]
    fn ninety_nine_percent_profile_is_at_least_as_fast() {
        let net = zoo::alexnet();
        let full = evaluate_network(&net, &ExperimentSettings::default());
        let relaxed = evaluate_network(
            &net,
            &ExperimentSettings {
                target: AccuracyTarget::Relative99,
                ..Default::default()
            },
        );
        let f = full
            .result_for(AcceleratorKind::Loom(LoomVariant::Lm1b))
            .unwrap();
        let r = relaxed
            .result_for(AcceleratorKind::Loom(LoomVariant::Lm1b))
            .unwrap();
        assert!(r.all_speedup >= f.all_speedup * 0.99);
    }
}
