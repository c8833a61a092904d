//! Reproductions of the paper's Tables 2 and 4 and Figure 4.

use crate::experiment::{
    comparator_kinds, evaluate_all_networks, ExperimentSettings, NetworkEvaluation, RelativeResult,
};
use crate::report::{fmt_ratio, TextTable};
use loom_precision::AccuracyTarget;
use loom_sim::counts::geomean;
use loom_sim::engine::AcceleratorKind;
use loom_sim::LoomVariant;

/// One accelerator column of Table 2 / Table 4: performance and efficiency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfEff {
    /// Relative execution-time speedup over DPNN.
    pub perf: f64,
    /// Relative energy efficiency over DPNN.
    pub eff: f64,
}

/// Table 2: per-network speedup and efficiency for Stripes and the three Loom
/// variants, separately for fully-connected and convolutional layers, under
/// one accuracy target.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// The accuracy target (100% or 99%).
    pub target: AccuracyTarget,
    /// Rows: (network, per-accelerator FCL results, per-accelerator CVL results).
    pub rows: Vec<Table2Row>,
}

/// One Table 2 row.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Network name.
    pub network: String,
    /// FCL (perf, eff) for Stripes, LM1b, LM2b, LM4b; `None` for networks
    /// without FCLs (NiN).
    pub fcl: Option<[PerfEff; 4]>,
    /// CVL (perf, eff) for Stripes, LM1b, LM2b, LM4b.
    pub cvl: [PerfEff; 4],
}

const TABLE_ACCELERATORS: [AcceleratorKind; 4] = [
    AcceleratorKind::Stripes,
    AcceleratorKind::Loom(LoomVariant::Lm1b),
    AcceleratorKind::Loom(LoomVariant::Lm2b),
    AcceleratorKind::Loom(LoomVariant::Lm4b),
];

fn extract(eval: &NetworkEvaluation, pick: impl Fn(&RelativeResult) -> PerfEff) -> [PerfEff; 4] {
    let mut out = [PerfEff {
        perf: 0.0,
        eff: 0.0,
    }; 4];
    for (i, kind) in TABLE_ACCELERATORS.iter().enumerate() {
        let r = eval.result_for(*kind).expect("all comparators evaluated");
        out[i] = pick(&r);
    }
    out
}

/// Tabulates Table 2 from `evals`, the zoo evaluated under `target` at the
/// headline 128 configuration (see [`evaluate_all_networks`]).
pub fn table2(target: AccuracyTarget, evals: &[NetworkEvaluation]) -> Table2 {
    let rows = evals
        .iter()
        .map(|eval| Table2Row {
            network: eval.network.clone(),
            fcl: if eval.has_fc {
                Some(extract(eval, |r| PerfEff {
                    perf: r.fc_speedup,
                    eff: r.fc_efficiency,
                }))
            } else {
                None
            },
            cvl: extract(eval, |r| PerfEff {
                perf: r.conv_speedup,
                eff: r.conv_efficiency,
            }),
        })
        .collect();
    Table2 { target, rows }
}

impl Table2 {
    /// Geometric means over the networks (FCL geomeans skip NiN, as the paper
    /// does).
    pub fn geomeans(&self) -> (Option<[PerfEff; 4]>, [PerfEff; 4]) {
        let mut fcl = [PerfEff {
            perf: 0.0,
            eff: 0.0,
        }; 4];
        let mut cvl = [PerfEff {
            perf: 0.0,
            eff: 0.0,
        }; 4];
        for i in 0..4 {
            let fcl_perf: Vec<f64> = self
                .rows
                .iter()
                .filter_map(|r| r.fcl.map(|f| f[i].perf))
                .collect();
            let fcl_eff: Vec<f64> = self
                .rows
                .iter()
                .filter_map(|r| r.fcl.map(|f| f[i].eff))
                .collect();
            fcl[i] = PerfEff {
                perf: geomean(&fcl_perf),
                eff: geomean(&fcl_eff),
            };
            let cvl_perf: Vec<f64> = self.rows.iter().map(|r| r.cvl[i].perf).collect();
            let cvl_eff: Vec<f64> = self.rows.iter().map(|r| r.cvl[i].eff).collect();
            cvl[i] = PerfEff {
                perf: geomean(&cvl_perf),
                eff: geomean(&cvl_eff),
            };
        }
        (Some(fcl), cvl)
    }

    /// Renders the table in the paper's layout.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Table 2 — Speedup and energy efficiency vs DPNN ({} top-1 accuracy profile)\n\n",
            self.target
        );
        for (title, pick_fcl) in [
            ("FULLY-CONNECTED LAYERS", true),
            ("CONVOLUTIONAL LAYERS", false),
        ] {
            out.push_str(title);
            out.push('\n');
            let mut table = TextTable::new(vec![
                "Network",
                "Stripes Perf",
                "Eff",
                "Loom1b Perf",
                "Eff",
                "Loom2b Perf",
                "Eff",
                "Loom4b Perf",
                "Eff",
            ]);
            for row in &self.rows {
                let cells: Vec<String> = if pick_fcl {
                    match &row.fcl {
                        Some(f) => flatten_cells(&row.network, f),
                        None => vec![
                            row.network.clone(),
                            "n/a".into(),
                            "n/a".into(),
                            "n/a".into(),
                            "n/a".into(),
                            "n/a".into(),
                            "n/a".into(),
                            "n/a".into(),
                            "n/a".into(),
                        ],
                    }
                } else {
                    flatten_cells(&row.network, &row.cvl)
                };
                table.row(cells);
            }
            let (fcl_geo, cvl_geo) = self.geomeans();
            let geo = if pick_fcl { fcl_geo.unwrap() } else { cvl_geo };
            table.row(flatten_cells("Geomean", &geo));
            out.push_str(&table.render());
            out.push('\n');
        }
        out
    }
}

fn flatten_cells(name: &str, cols: &[PerfEff; 4]) -> Vec<String> {
    let mut cells = vec![name.to_string()];
    for c in cols {
        cells.push(fmt_ratio(c.perf));
        cells.push(fmt_ratio(c.eff));
    }
    cells
}

/// Table 4: all-layer speedup and efficiency of the Loom variants when the
/// per-group effective weight precisions of Table 3 are exploited.
#[derive(Debug, Clone)]
pub struct Table4 {
    /// Rows: (network, [LM1b, LM2b, LM4b]).
    pub rows: Vec<(String, [PerfEff; 3])>,
}

/// Generates Table 4 (100% profile, per-group weight precisions).
pub fn table4() -> Table4 {
    let variants = [LoomVariant::Lm1b, LoomVariant::Lm2b, LoomVariant::Lm4b];
    let rows = evaluate_all_networks(&ExperimentSettings::per_group_weights())
        .iter()
        .map(|eval| {
            let mut cols = [PerfEff {
                perf: 0.0,
                eff: 0.0,
            }; 3];
            for (i, v) in variants.iter().enumerate() {
                let r = eval
                    .result_for(AcceleratorKind::Loom(*v))
                    .expect("all variants evaluated");
                cols[i] = PerfEff {
                    perf: r.all_speedup,
                    eff: r.all_efficiency,
                };
            }
            (eval.network.clone(), cols)
        })
        .collect();
    Table4 { rows }
}

impl Table4 {
    /// Geometric mean over the networks.
    pub fn geomeans(&self) -> [PerfEff; 3] {
        let mut out = [PerfEff {
            perf: 0.0,
            eff: 0.0,
        }; 3];
        for i in 0..3 {
            let perf: Vec<f64> = self.rows.iter().map(|(_, c)| c[i].perf).collect();
            let eff: Vec<f64> = self.rows.iter().map(|(_, c)| c[i].eff).collect();
            out[i] = PerfEff {
                perf: geomean(&perf),
                eff: geomean(&eff),
            };
        }
        out
    }

    /// Renders the table in the paper's layout.
    pub fn render(&self) -> String {
        let mut out =
            "Table 4 — All layers combined, per-group weight precisions (100% accuracy)\n\n"
                .to_string();
        let mut table = TextTable::new(vec![
            "Network",
            "Loom1b Perf",
            "Eff",
            "Loom2b Perf",
            "Eff",
            "Loom4b Perf",
            "Eff",
        ]);
        for (name, cols) in &self.rows {
            let mut cells = vec![name.clone()];
            for c in cols {
                cells.push(fmt_ratio(c.perf));
                cells.push(fmt_ratio(c.eff));
            }
            table.row(cells);
        }
        let geo = self.geomeans();
        let mut cells = vec!["Geomean".to_string()];
        for c in &geo {
            cells.push(fmt_ratio(c.perf));
            cells.push(fmt_ratio(c.eff));
        }
        table.row(cells);
        out.push_str(&table.render());
        out
    }
}

/// Figure 4: per-network all-layer performance (a) and energy efficiency (b)
/// of Stripes, DStripes and the Loom variants relative to DPNN, 100% profile.
#[derive(Debug, Clone)]
pub struct Figure4 {
    /// Series names in plot order.
    pub series: Vec<String>,
    /// Rows: (network, per-series performance, per-series efficiency).
    pub rows: Vec<(String, Vec<f64>, Vec<f64>)>,
}

/// Tabulates Figure 4 from `evals`, the zoo evaluated under the default
/// settings (see [`evaluate_all_networks`]).
pub fn figure4(evals: &[NetworkEvaluation]) -> Figure4 {
    let kinds = comparator_kinds();
    let rows = evals
        .iter()
        .map(|eval| {
            let perf: Vec<f64> = kinds
                .iter()
                .map(|k| eval.result_for(*k).unwrap().all_speedup)
                .collect();
            let eff: Vec<f64> = kinds
                .iter()
                .map(|k| eval.result_for(*k).unwrap().all_efficiency)
                .collect();
            (eval.network.clone(), perf, eff)
        })
        .collect();
    Figure4 {
        series: kinds.iter().map(|k| k.to_string()).collect(),
        rows,
    }
}

impl Figure4 {
    /// Geometric means of each series (performance, efficiency).
    pub fn geomeans(&self) -> (Vec<f64>, Vec<f64>) {
        let n = self.series.len();
        let perf = (0..n)
            .map(|i| geomean(&self.rows.iter().map(|(_, p, _)| p[i]).collect::<Vec<_>>()))
            .collect();
        let eff = (0..n)
            .map(|i| geomean(&self.rows.iter().map(|(_, _, e)| e[i]).collect::<Vec<_>>()))
            .collect();
        (perf, eff)
    }

    /// Renders both panels of the figure as text tables.
    pub fn render(&self) -> String {
        let mut out = "Figure 4 — Performance (a) and energy efficiency (b) vs DPNN, all layers, 100% accuracy\n\n".to_string();
        for (panel, idx) in [
            ("(a) Performance", 0usize),
            ("(b) Energy efficiency", 1usize),
        ] {
            out.push_str(panel);
            out.push('\n');
            let mut header = vec!["Network".to_string()];
            header.extend(self.series.iter().cloned());
            let mut table = TextTable::new(header);
            for (net, perf, eff) in &self.rows {
                let values = if idx == 0 { perf } else { eff };
                let mut cells = vec![net.clone()];
                cells.extend(values.iter().map(|v| fmt_ratio(*v)));
                table.row(cells);
            }
            let (gp, ge) = self.geomeans();
            let values = if idx == 0 { gp } else { ge };
            let mut cells = vec!["Geomean".to_string()];
            cells.extend(values.iter().map(|v| fmt_ratio(*v)));
            table.row(cells);
            out.push_str(&table.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossless_table2() -> Table2 {
        table2(
            AccuracyTarget::Lossless,
            &evaluate_all_networks(&ExperimentSettings::default()),
        )
    }

    #[test]
    fn table2_has_six_rows_and_nin_has_no_fcl() {
        let t = lossless_table2();
        assert_eq!(t.rows.len(), 6);
        assert!(t
            .rows
            .iter()
            .find(|r| r.network == "NiN")
            .unwrap()
            .fcl
            .is_none());
        let rendered = t.render();
        assert!(rendered.contains("CONVOLUTIONAL LAYERS"));
        assert!(rendered.contains("Geomean"));
    }

    #[test]
    fn table2_geomeans_land_in_paper_band() {
        // Paper, 100% profile geomeans: Stripes CVL 1.84x, LM1b CVL 3.25x,
        // LM1b FCL 1.74x. The reproduction should land in the same band.
        let t = lossless_table2();
        let (fcl, cvl) = t.geomeans();
        let fcl = fcl.unwrap();
        assert!(
            (1.6..=2.2).contains(&cvl[0].perf),
            "Stripes CVL {}",
            cvl[0].perf
        );
        assert!(
            (2.8..=3.9).contains(&cvl[1].perf),
            "LM1b CVL {}",
            cvl[1].perf
        );
        assert!(
            (1.5..=2.0).contains(&fcl[1].perf),
            "LM1b FCL {}",
            fcl[1].perf
        );
        // Ordering: LM1b fastest on CVLs, LM4b most efficient.
        assert!(cvl[1].perf >= cvl[2].perf && cvl[2].perf >= cvl[3].perf);
        assert!(cvl[3].eff >= cvl[1].eff);
    }

    #[test]
    fn table4_geomeans_exceed_table2_all_layer_numbers() {
        // Per-group weight precisions must improve every variant's all-layer
        // speedup relative to the per-layer profiles (paper: 3.19x -> 4.38x
        // for LM1b).
        let t4 = table4();
        let geo = t4.geomeans();
        assert!(
            (3.5..=5.2).contains(&geo[0].perf),
            "LM1b all {}",
            geo[0].perf
        );
        assert!(geo[0].perf > geo[2].perf, "LM1b > LM4b in performance");
        assert!(t4.render().contains("Geomean"));
    }

    #[test]
    fn figure4_orderings_match_the_paper() {
        let f = figure4(&evaluate_all_networks(&ExperimentSettings::default()));
        assert_eq!(f.series.len(), 5);
        assert_eq!(f.rows.len(), 6);
        let (perf, _eff) = f.geomeans();
        // Stripes < DStripes < LM1b in all-layer performance.
        assert!(perf[0] < perf[1]);
        assert!(perf[1] < perf[2]);
        // LM1b geomean all-layer performance is above 3x (paper: "more than 3x").
        assert!(perf[2] > 3.0, "LM1b all-layer {}", perf[2]);
        assert!(f.render().contains("(b) Energy efficiency"));
    }
}
