//! CSV export of experiment results, for plotting the figures with external
//! tools (the paper's bar charts and scaling curves are easiest to regenerate
//! from flat files).

use crate::experiment::NetworkEvaluation;
use crate::scaling::Figure5;
use crate::tables::{Table2, Table4};
use loom_sim::engine::AcceleratorKind;
use std::fmt::Write as _;

/// Escapes a CSV field (quotes fields containing separators or quotes).
fn field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

fn num(v: f64) -> String {
    if v.is_nan() {
        String::new()
    } else {
        format!("{v:.4}")
    }
}

/// Exports per-network, per-accelerator relative results as CSV with one row
/// per (network, accelerator) pair.
pub fn evaluations_to_csv(evals: &[NetworkEvaluation]) -> String {
    let mut out = String::from(
        "network,accelerator,conv_speedup,fc_speedup,all_speedup,conv_efficiency,fc_efficiency,all_efficiency\n",
    );
    for eval in evals {
        for (kind, r) in &eval.relatives {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{}",
                field(&eval.network),
                field(&kind.to_string()),
                num(r.conv_speedup),
                num(r.fc_speedup),
                num(r.all_speedup),
                num(r.conv_efficiency),
                num(r.fc_efficiency),
                num(r.all_efficiency)
            );
        }
    }
    out
}

/// Exports Table 2 as CSV (one row per network and layer class).
pub fn table2_to_csv(table: &Table2) -> String {
    let mut out = String::from(
        "target,network,layer_class,stripes_perf,stripes_eff,lm1b_perf,lm1b_eff,lm2b_perf,lm2b_eff,lm4b_perf,lm4b_eff\n",
    );
    for row in &table.rows {
        for (class, cols) in [("fcl", row.fcl.as_ref()), ("cvl", Some(&row.cvl))] {
            let Some(cols) = cols else { continue };
            let mut line = format!("{},{},{class}", table.target, field(&row.network));
            for c in cols.iter() {
                let _ = write!(line, ",{},{}", num(c.perf), num(c.eff));
            }
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}

/// Exports Table 4 as CSV.
pub fn table4_to_csv(table: &Table4) -> String {
    let mut out =
        String::from("network,lm1b_perf,lm1b_eff,lm2b_perf,lm2b_eff,lm4b_perf,lm4b_eff\n");
    for (network, cols) in &table.rows {
        let mut line = field(network);
        for c in cols.iter() {
            let _ = write!(line, ",{},{}", num(c.perf), num(c.eff));
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Exports the Figure 5 sweep as CSV (one row per design point).
pub fn figure5_to_csv(figure: &Figure5) -> String {
    let mut out = String::from(
        "config,loom_all,loom_conv,dstripes_all,dstripes_conv,loom_fps_all,loom_fps_conv,weight_memory_bytes,area_overhead,energy_efficiency,loom_all_compressed,weight_compression,loom_offchip_bits,loom_offchip_compressed_bits\n",
    );
    for p in &figure.points {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            p.config,
            num(p.loom_all),
            num(p.loom_conv),
            num(p.dstripes_all),
            num(p.dstripes_conv),
            num(p.loom_fps_all),
            num(p.loom_fps_conv),
            p.weight_memory_bytes,
            num(p.area_overhead),
            num(p.energy_efficiency),
            num(p.loom_all_compressed),
            num(p.weight_compression),
            num(p.loom_offchip_bits),
            num(p.loom_offchip_compressed_bits)
        );
    }
    out
}

/// Convenience: the accelerators in the order the CSV columns assume.
pub fn csv_accelerator_order() -> [AcceleratorKind; 4] {
    use loom_sim::LoomVariant;
    [
        AcceleratorKind::Stripes,
        AcceleratorKind::Loom(LoomVariant::Lm1b),
        AcceleratorKind::Loom(LoomVariant::Lm2b),
        AcceleratorKind::Loom(LoomVariant::Lm4b),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{evaluate_all_networks, evaluate_network, ExperimentSettings};
    use crate::tables::{table2, table4};
    use loom_precision::AccuracyTarget;

    #[test]
    fn evaluation_csv_has_one_row_per_pair() {
        let eval = evaluate_network(&loom_model::zoo::alexnet(), &ExperimentSettings::default());
        let csv = evaluations_to_csv(&[eval]);
        // Header + 5 comparators.
        assert_eq!(csv.lines().count(), 6);
        assert!(csv.starts_with("network,accelerator"));
        assert!(csv.contains("AlexNet,Stripes"));
    }

    #[test]
    fn table_csvs_are_well_formed() {
        let t2 = table2(
            AccuracyTarget::Lossless,
            &evaluate_all_networks(&ExperimentSettings::default()),
        );
        let csv2 = table2_to_csv(&t2);
        // 6 networks x 2 classes - 1 (NiN has no FCL) + header.
        assert_eq!(csv2.lines().count(), 12);
        let field_count = csv2.lines().next().unwrap().split(',').count();
        for line in csv2.lines().skip(1) {
            assert_eq!(line.split(',').count(), field_count, "{line}");
        }
        let t4 = table4();
        let csv4 = table4_to_csv(&t4);
        assert_eq!(csv4.lines().count(), 7);
    }

    #[test]
    fn csv_escaping_handles_commas_and_quotes() {
        assert_eq!(field("plain"), "plain");
        assert_eq!(field("a,b"), "\"a,b\"");
        assert_eq!(field("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(num(f64::NAN), "");
        assert_eq!(csv_accelerator_order().len(), 4);
    }
}
