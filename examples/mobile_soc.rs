//! The bandwidth-constrained mobile SoC scenario from the paper's
//! introduction: a single LPDDR4-4267 channel, a modest on-chip activation
//! memory, and a network that must hit a real-time frame rate. Shows how
//! Loom's packed storage cuts off-chip traffic and turns memory-bound layers
//! back into compute-bound ones.
//!
//! Run with: `cargo run --release -p loom-core --example mobile_soc`

use loom_core::experiment::{build_assignment, ExperimentSettings};
use loom_core::loom_mem::hierarchy::{MemoryConfig, MemorySystem};
use loom_core::loom_mem::traffic::StoragePrecision;
use loom_core::loom_model::zoo;
use loom_core::loom_sim::accelerator::build;
use loom_core::loom_sim::engine::AcceleratorKind;
use loom_core::loom_sim::LoomVariant;
use loom_core::report::TextTable;

fn main() {
    let network = zoo::vgg_m();
    let settings = ExperimentSettings::default();
    let assignment = build_assignment(&network, &settings);

    let dpnn_mem = MemorySystem::with_lpddr4(MemoryConfig::dpnn_default());
    let loom_mem = MemorySystem::with_lpddr4(MemoryConfig::loom_default());

    let mut table = TextTable::new(vec![
        "Design",
        "Compute cycles",
        "Off-chip MB/frame",
        "Frame cycles",
        "fps",
    ]);
    for (kind, system) in [
        (AcceleratorKind::Dpnn, &dpnn_mem),
        (AcceleratorKind::Loom(LoomVariant::Lm1b), &loom_mem),
    ] {
        let run = build(kind, settings.config).simulate_network(&network, &assignment);
        let mut offchip_bits = 0u64;
        let mut frame_cycles = 0u64;
        for (layer_sim, layer) in run.layers.iter().zip(network.layers().iter()) {
            let usage = system.evaluate_layer(
                &layer.kind,
                StoragePrecision {
                    activation: layer_sim.storage.activation,
                    weight: layer_sim.storage.weight,
                },
            );
            offchip_bits += usage.offchip_bits;
            frame_cycles += layer_sim.cycles.max(usage.offchip_cycles);
        }
        table.row(vec![
            kind.to_string(),
            run.total_cycles().to_string(),
            format!("{:.1}", offchip_bits as f64 / 8.0 / 1e6),
            frame_cycles.to_string(),
            format!("{:.0}", 1e9 / frame_cycles as f64),
        ]);
    }
    println!(
        "Mobile SoC scenario: {} on a single LPDDR4-4267 channel\n",
        network.name()
    );
    println!("{}", table.render());
    println!("Loom both finishes the compute sooner and moves fewer bits per frame,");
    println!("which is exactly the combination the paper argues embedded SoCs need.");
}
