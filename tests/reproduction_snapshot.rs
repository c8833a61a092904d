//! Byte-for-byte snapshots of every CSV the `all` binary writes to
//! `results/`: Table 2 under both accuracy targets, Table 4, Figure 5 and the
//! all-layers Figure 4 evaluation. `paper_invariants` checks ranges and
//! orderings; this suite pins the exact numbers, so a refactor of the
//! analytic models that moves any of them fails here.
//!
//! Each CSV is built through the same library calls as `all`. After an
//! intended model change, regenerate the snapshots with
//! `cargo run --release -p loom-bench --bin all` and copy `results/*.csv`
//! into `tests/snapshots/`.

use loom_core::experiment::{evaluate_all_networks, ExperimentSettings};
use loom_core::export::{evaluations_to_csv, figure5_to_csv, table2_to_csv, table4_to_csv};
use loom_core::loom_precision::AccuracyTarget;
use loom_core::scaling::figure5;
use loom_core::tables::{table2, table4};

mod snapshot_diff;
use snapshot_diff::first_difference;

#[test]
fn every_results_csv_matches_its_snapshot() {
    let lossless = evaluate_all_networks(&ExperimentSettings::default());
    let generated = [
        (
            "table2_100.csv",
            include_str!("snapshots/table2_100.csv"),
            table2_to_csv(&table2(AccuracyTarget::Lossless, &lossless)),
        ),
        (
            "table2_99.csv",
            include_str!("snapshots/table2_99.csv"),
            table2_to_csv(&table2(
                AccuracyTarget::Relative99,
                &evaluate_all_networks(&ExperimentSettings {
                    target: AccuracyTarget::Relative99,
                    ..Default::default()
                }),
            )),
        ),
        (
            "table4.csv",
            include_str!("snapshots/table4.csv"),
            table4_to_csv(&table4()),
        ),
        (
            "figure5.csv",
            include_str!("snapshots/figure5.csv"),
            figure5_to_csv(&figure5()),
        ),
        (
            "figure4_all_layers.csv",
            include_str!("snapshots/figure4_all_layers.csv"),
            evaluations_to_csv(&lossless),
        ),
    ];
    let mismatches: Vec<String> = generated
        .iter()
        .filter_map(|(name, snapshot, csv)| {
            first_difference(snapshot, csv).map(|diff| format!("{name}: {diff}"))
        })
        .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
