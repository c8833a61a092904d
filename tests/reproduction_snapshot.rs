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

use loom_core::experiment::ExperimentSettings;
use loom_core::export::{evaluations_to_csv, figure5_to_csv, table2_to_csv, table4_to_csv};
use loom_core::loom_precision::AccuracyTarget;
use loom_core::scaling::figure5_with;
use loom_core::sweep::SweepRunner;
use loom_core::tables::{table2_with, table4_with};

/// The first line where `generated` departs from `snapshot`, if any.
fn first_difference(snapshot: &str, generated: &str) -> Option<String> {
    let mut snapshot_lines = snapshot.lines();
    let mut generated_lines = generated.lines();
    for line in 1.. {
        match (snapshot_lines.next(), generated_lines.next()) {
            (None, None) => break,
            (s, g) if s == g => {}
            (s, g) => {
                return Some(format!(
                    "line {line}\n  snapshot:  {}\n  generated: {}",
                    s.unwrap_or("<end>"),
                    g.unwrap_or("<end>")
                ))
            }
        }
    }
    (snapshot != generated).then(|| "trailing newline".to_string())
}

#[test]
fn every_results_csv_matches_its_snapshot() {
    let runner = SweepRunner::new(2);
    let generated = [
        (
            "table2_100.csv",
            include_str!("snapshots/table2_100.csv"),
            table2_to_csv(&table2_with(&runner, AccuracyTarget::Lossless)),
        ),
        (
            "table2_99.csv",
            include_str!("snapshots/table2_99.csv"),
            table2_to_csv(&table2_with(&runner, AccuracyTarget::Relative99)),
        ),
        (
            "table4.csv",
            include_str!("snapshots/table4.csv"),
            table4_to_csv(&table4_with(&runner)),
        ),
        (
            "figure5.csv",
            include_str!("snapshots/figure5.csv"),
            figure5_to_csv(&figure5_with(&runner)),
        ),
        (
            "figure4_all_layers.csv",
            include_str!("snapshots/figure4_all_layers.csv"),
            evaluations_to_csv(&runner.evaluate_zoo(&ExperimentSettings::default())),
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
