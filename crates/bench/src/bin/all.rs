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

    // The 100% evaluation of the zoo feeds Table 2 (100%), Figure 4 and
    // `figure4_all_layers.csv`.
    let lossless = evaluate_all_networks(&ExperimentSettings::default());
    let relative99 = evaluate_all_networks(&ExperimentSettings {
        target: AccuracyTarget::Relative99,
        ..Default::default()
    });
    for (target, evals, name) in [
        (AccuracyTarget::Lossless, &lossless, "table2_100.csv"),
        (AccuracyTarget::Relative99, &relative99, "table2_99.csv"),
    ] {
        let t = table2(target, evals);
        println!("{}", t.render());
        if export {
            let _ = fs::write(results_dir.join(name), table2_to_csv(&t));
        }
    }
    let t4 = table4();
    println!("{}", t4.render());
    println!("{}", figure4(&lossless).render());
    let f5 = figure5();
    println!("{}", f5.render());
    if export {
        let _ = fs::write(results_dir.join("table4.csv"), table4_to_csv(&t4));
        let _ = fs::write(results_dir.join("figure5.csv"), figure5_to_csv(&f5));
        let _ = fs::write(
            results_dir.join("figure4_all_layers.csv"),
            evaluations_to_csv(&lossless),
        );
        println!("CSV data written to {}/", results_dir.display());
    }
    println!("Run `table1`, `table3`, `area`, `ablation` and `aspect_ratio` binaries for the remaining artefacts.");

    println!("Total wall-clock: {:.2}s", started.elapsed().as_secs_f64());
}
