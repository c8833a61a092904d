//! Reproduces Table 2: relative execution time speedup and energy efficiency
//! of Stripes and the Loom variants over DPNN, for fully-connected and
//! convolutional layers, under the 100% and 99% accuracy profiles.

use loom_core::experiment::{evaluate_all_networks, ExperimentSettings};
use loom_core::loom_precision::AccuracyTarget;
use loom_core::tables::table2;

fn main() {
    for target in [AccuracyTarget::Lossless, AccuracyTarget::Relative99] {
        let evals = evaluate_all_networks(&ExperimentSettings {
            target,
            ..Default::default()
        });
        println!("{}", table2(target, &evals).render());
    }
}
