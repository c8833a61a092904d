//! Precision exploration on a custom network: derive per-layer precisions with
//! the profiler (the Judd et al. method with an output-fidelity proxy), then
//! see how much speedup each profile buys on Loom — the accuracy vs
//! performance/energy trade-off of §4.3.
//!
//! Run with: `cargo run --release -p loom-core --example precision_explorer`

use loom_core::loom_model::inference::NetworkParams;
use loom_core::loom_model::layer::{ConvSpec, FcSpec, PoolSpec};
use loom_core::loom_model::network::NetworkBuilder;
use loom_core::loom_model::synthetic::{synthetic_activations, ValueDistribution};
use loom_core::loom_model::tensor::{Shape3, Tensor3};
use loom_core::loom_model::Precision;
use loom_core::loom_precision::profiler::{profile_network, ProfilerConfig};
use loom_core::loom_precision::trace::{GroupPrecisionSource, LayerPrecisionSpec};
use loom_core::loom_sim::accelerator::build;
use loom_core::loom_sim::engine::{AcceleratorKind, PrecisionAssignment};
use loom_core::loom_sim::{EquivalentConfig, LoomVariant};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // A small edge-vision network (the kind of embedded workload Loom
    // targets). Filter counts are sized for the 128-row Loom grid: the
    // paper's headline configuration assumes layers with at least 128 filters.
    let net = NetworkBuilder::new("edge-vision")
        .conv("conv1", ConvSpec::simple(3, 32, 32, 128, 3))
        .max_pool("pool1", PoolSpec::new(128, 30, 30, 2, 2))
        .conv("conv2", ConvSpec::simple(128, 15, 15, 128, 3))
        .max_pool("pool2", PoolSpec::new(128, 13, 13, 2, 2))
        .conv("conv3", ConvSpec::simple(128, 6, 6, 256, 3))
        .fully_connected("fc1", FcSpec::new(256 * 4 * 4, 10))
        .build()
        .expect("network is valid");
    let params = NetworkParams::synthetic(&net, &[Precision::new(9).unwrap()], 3);
    let mut rng = StdRng::seed_from_u64(17);
    let inputs: Vec<Tensor3> = (0..2)
        .map(|_| {
            Tensor3::from_vec(
                Shape3::new(3, 32, 32),
                synthetic_activations(
                    &mut rng,
                    3 * 32 * 32,
                    Precision::new(8).unwrap(),
                    ValueDistribution::activations(),
                ),
            )
            .expect("shape matches")
        })
        .collect();

    let config = EquivalentConfig::BASELINE_128;
    let dpnn = build(AcceleratorKind::Dpnn, config)
        .simulate_network(&net, &PrecisionAssignment::full_precision(&net));
    let lm1b = build(AcceleratorKind::Loom(LoomVariant::Lm1b), config);
    println!(
        "{net}\nDPNN baseline: {} cycles/frame\n",
        dpnn.total_cycles()
    );

    for (label, config) in [
        ("no accuracy loss (100%)", ProfilerConfig::lossless()),
        ("1% relative loss (99%)", ProfilerConfig::relaxed()),
    ] {
        let derived = profile_network(&net, &params, &inputs, config);
        let acts: Vec<String> = derived
            .activation_precisions
            .iter()
            .map(|p| p.bits().to_string())
            .collect();
        let specs: Vec<LayerPrecisionSpec> = derived
            .activation_precisions
            .iter()
            .map(|&a| LayerPrecisionSpec {
                activation: a,
                weight: derived.weight_precision,
                dynamic_activation: GroupPrecisionSource::Scaled { fraction: 0.8 },
                group_weight: GroupPrecisionSource::Nominal,
            })
            .collect();
        let assignment = PrecisionAssignment::new(specs);
        let lm = lm1b.simulate_network(&net, &assignment);
        println!(
            "{label}: activations {} bits, weights {} bits -> Loom-1b speedup {:.2}x (fidelity {:.4})",
            acts.join("-"),
            derived.weight_precision.bits(),
            lm.speedup_vs(&dpnn),
            derived.combined_fidelity
        );
    }
}
