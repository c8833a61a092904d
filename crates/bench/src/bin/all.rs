//! Runs every table and figure reproduction in sequence (the full evaluation
//! section of the paper) and writes the underlying data as CSV into
//! `results/` for external plotting.

use loom_core::experiment::{evaluate_all_networks, ExperimentSettings};
use loom_core::export::{evaluations_to_csv, figure5_to_csv, table2_to_csv, table4_to_csv};
use loom_core::loom_precision::AccuracyTarget;
use loom_core::scaling::figure5;
use loom_core::tables::{figure4, table2, table4};
use std::fs;
use std::time::Instant;

fn main() {
    println!(
        "==================== Loom (DAC 2018) reproduction: full evaluation ===================="
    );
    println!();
    let started = Instant::now();

    let results_dir = std::path::Path::new("results");
    let export = fs::create_dir_all(results_dir).is_ok();

    for target in [AccuracyTarget::Lossless, AccuracyTarget::Relative99] {
        let t = table2(target);
        println!("{}", t.render());
        if export {
            let name = match target {
                AccuracyTarget::Lossless => "table2_100.csv",
                AccuracyTarget::Relative99 => "table2_99.csv",
            };
            let _ = fs::write(results_dir.join(name), table2_to_csv(&t));
        }
    }
    let t4 = table4();
    println!("{}", t4.render());
    println!("{}", figure4().render());
    let f5 = figure5();
    println!("{}", f5.render());
    if export {
        let _ = fs::write(results_dir.join("table4.csv"), table4_to_csv(&t4));
        let _ = fs::write(results_dir.join("figure5.csv"), figure5_to_csv(&f5));
        let evals = evaluate_all_networks(&ExperimentSettings::default());
        let _ = fs::write(
            results_dir.join("figure4_all_layers.csv"),
            evaluations_to_csv(&evals),
        );
        println!("CSV data written to {}/", results_dir.display());
    }
    println!("Run `table1`, `table3`, `area`, `ablation` and `aspect_ratio` binaries for the remaining artefacts.");

    println!("Total wall-clock: {:.2}s", started.elapsed().as_secs_f64());
}
