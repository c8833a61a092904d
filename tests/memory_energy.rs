//! Memory-hierarchy and energy-model consistency across crates: footprint
//! arithmetic, bandwidth savings, §4.5 sizing claims, and energy ordering.

use loom_core::experiment::{build_assignment, ExperimentSettings};
use loom_core::loom_energy::area::core_area_ratio;
use loom_core::loom_energy::EnergyModel;
use loom_core::loom_mem::hierarchy::{
    network_weight_bytes, required_am_bytes, MemoryConfig, MemorySystem,
};
use loom_core::loom_mem::traffic::{layer_traffic, StoragePrecision};
use loom_core::loom_model::layer::{FcSpec, LayerKind};
use loom_core::loom_model::zoo;
use loom_core::loom_model::Precision;
use loom_core::loom_precision::{table1, AccuracyTarget};
use loom_core::loom_sim::engine::{AcceleratorKind, Simulator};
use loom_core::loom_sim::{EquivalentConfig, LoomVariant};

#[test]
fn packed_footprints_match_the_paper_formula() {
    // The paper: Loom reduces weight and activation bits read by (16-P)/16.
    let layer = LayerKind::FullyConnected(FcSpec::new(100, 100));
    let baseline = layer_traffic(&layer, StoragePrecision::baseline()).total_bits() as f64;
    for bits in 1u8..=16 {
        let p = Precision::new(bits).unwrap();
        let packed = layer_traffic(&layer, StoragePrecision::packed(p, p)).total_bits() as f64;
        let saving = (baseline - packed) / baseline;
        assert!((saving - f64::from(16 - bits) / 16.0).abs() < 1e-12);
    }
}

#[test]
fn loom_reads_fewer_bits_than_dpnn_on_every_network() {
    let sim = Simulator::baseline_128();
    for net in zoo::all() {
        let assignment = build_assignment(&net, &ExperimentSettings::default());
        let dpnn = sim.simulate(AcceleratorKind::Dpnn, &net, &assignment);
        let lm = sim.simulate(AcceleratorKind::Loom(LoomVariant::Lm1b), &net, &assignment);
        let ratio =
            lm.total_traffic().total_bits() as f64 / dpnn.total_traffic().total_bits() as f64;
        assert!(ratio < 0.85, "{}: traffic ratio {ratio}", net.name());
        assert!(ratio > 0.3, "{}: traffic ratio {ratio}", net.name());
    }
}

#[test]
fn activation_memory_sizing_matches_section_4_5() {
    // DPNN needs ~2 MB for every network except VGG-19; Loom's packed storage
    // halves that (the paper provisions 1 MB).
    let mut max_dpnn = 0u64;
    let mut max_loom = 0u64;
    for net in zoo::all() {
        if net.name() == "VGG19" {
            assert!(required_am_bytes(&net, Precision::FULL) > 4 * 1024 * 1024);
            continue;
        }
        max_dpnn = max_dpnn.max(required_am_bytes(&net, Precision::FULL));
        max_loom = max_loom.max(required_am_bytes(&net, Precision::new(8).unwrap()));
    }
    assert!(
        max_dpnn <= 2 * 1024 * 1024 + 512 * 1024,
        "DPNN AM {max_dpnn}"
    );
    assert!(max_loom <= 1024 * 1024 + 256 * 1024, "Loom AM {max_loom}");
}

#[test]
fn weight_footprint_shrinks_with_profile_precisions() {
    for net in zoo::all() {
        let profile = table1::profile(net.name(), AccuracyTarget::Lossless).unwrap();
        let full = network_weight_bytes(&net, |_| Precision::FULL);
        let packed = network_weight_bytes(&net, |_| profile.conv_weight);
        assert!(packed < full, "{}", net.name());
    }
}

#[test]
fn fully_connected_layers_are_offchip_bound_with_lpddr4() {
    // §4.5: "fully-connected layers are off-chip bound whereas the
    // convolutional layers are compute bound".
    let sim = Simulator::baseline_128();
    let net = zoo::vgg19();
    let assignment = build_assignment(&net, &ExperimentSettings::default());
    let run = sim.simulate(AcceleratorKind::Loom(LoomVariant::Lm1b), &net, &assignment);
    let system = MemorySystem::with_lpddr4(MemoryConfig::loom_default());
    for (layer_sim, layer) in run.layers.iter().zip(net.layers().iter()) {
        let usage = system.evaluate_layer(
            &layer.kind,
            StoragePrecision {
                activation: layer_sim.storage.activation,
                weight: layer_sim.storage.weight,
            },
        );
        if layer.kind.is_fc() && layer.kind.total_weights() > 10_000_000 {
            assert!(
                usage.offchip_cycles > layer_sim.cycles,
                "{} should be memory bound",
                layer_sim.layer_name
            );
        }
        if layer.kind.is_conv() {
            assert!(
                layer_sim.cycles > usage.offchip_cycles / 4,
                "{} should be (nearly) compute bound",
                layer_sim.layer_name
            );
        }
    }
}

#[test]
fn energy_model_orders_designs_as_the_paper_does() {
    let sim = Simulator::baseline_128();
    let model = EnergyModel::baseline_128();
    let net = zoo::vgg_m();
    let assignment = build_assignment(&net, &ExperimentSettings::default());
    let dpnn = sim.simulate(AcceleratorKind::Dpnn, &net, &assignment);
    let mut efficiencies = Vec::new();
    for variant in [LoomVariant::Lm1b, LoomVariant::Lm2b, LoomVariant::Lm4b] {
        let kind = AcceleratorKind::Loom(variant);
        let lm = sim.simulate(kind, &net, &assignment);
        efficiencies.push(model.efficiency(AcceleratorKind::Dpnn, &dpnn, 0, kind, &lm, 0));
    }
    // Every variant is more efficient than the baseline; the per-variant
    // ordering of efficiency/speedup trade-offs is checked in loom-energy.
    for (i, eff) in efficiencies.iter().enumerate() {
        assert!(*eff > 1.5, "variant {i}: {eff}");
    }
}

#[test]
fn area_ratios_hold_across_configurations() {
    for macs in [32usize, 128, 512] {
        let cfg = EquivalentConfig::new(macs).unwrap();
        let r = core_area_ratio(LoomVariant::Lm1b, cfg);
        assert!(r > 1.0 && r < 2.0, "config {macs}: ratio {r}");
    }
}
