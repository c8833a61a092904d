//! Reproduces Figure 4: per-network performance (a) and energy efficiency (b)
//! of Stripes, DStripes and the Loom variants relative to DPNN for all layers
//! under the 100% accuracy profile.

use loom_core::experiment::{evaluate_all_networks, ExperimentSettings};
use loom_core::tables::figure4;

fn main() {
    let evals = evaluate_all_networks(&ExperimentSettings::default());
    println!("{}", figure4(&evals).render());
}
