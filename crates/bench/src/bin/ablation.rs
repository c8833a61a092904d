//! Ablation study of Loom's design choices (not a table in the paper, but the
//! knobs its architecture section motivates): runtime dynamic activation
//! precision, SIP cascading for few-output FCLs, per-group weight precisions,
//! and the bits-per-cycle variant. Each row removes or changes exactly one
//! mechanism and reports the all-layer speedup over DPNN.

use loom_core::experiment::{build_assignment, ExperimentSettings, WeightGranularity};
use loom_core::loom_model::layer::FcSpec;
use loom_core::loom_model::zoo;
use loom_core::loom_model::Precision;
use loom_core::loom_precision::trace::LayerPrecisionSpec;
use loom_core::loom_sim::accelerator;
use loom_core::loom_sim::config::EquivalentConfig;
use loom_core::loom_sim::counts::geomean;
use loom_core::loom_sim::engine::AcceleratorKind;
use loom_core::loom_sim::loom::fc_schedule;
use loom_core::loom_sim::{dpnn, LoomVariant};
use loom_core::report::TextTable;

/// Geomean over the zoo of `variant`'s all-layer speedup over DPNN.
fn all_layer_speedup(settings: &ExperimentSettings, variant: LoomVariant) -> f64 {
    let speedups: Vec<f64> = zoo::all()
        .iter()
        .map(|net| {
            let assignment = build_assignment(net, settings);
            let simulate =
                |kind| accelerator::build(kind, settings.config).simulate_network(net, &assignment);
            simulate(AcceleratorKind::Loom(variant)).speedup_vs(&simulate(AcceleratorKind::Dpnn))
        })
        .collect();
    geomean(&speedups)
}

fn main() {
    let scope: Vec<String> = zoo::all().iter().map(|n| n.name().to_string()).collect();
    println!(
        "Ablation — geomean all-layer speedup over DPNN (config 128, 100% profiles)\n\
         (networks: {})\n",
        scope.join(", ")
    );
    let mut table = TextTable::new(vec!["Configuration", "Speedup"]);

    let base = ExperimentSettings::default();
    table.row(vec![
        "Loom 1-bit (paper default: dynamic activations, per-layer weights)".to_string(),
        format!("{:.2}", all_layer_speedup(&base, LoomVariant::Lm1b)),
    ]);

    let static_only = ExperimentSettings {
        dynamic_activation: false,
        ..base
    };
    table.row(vec![
        "  - without runtime activation precision detection".to_string(),
        format!("{:.2}", all_layer_speedup(&static_only, LoomVariant::Lm1b)),
    ]);

    let per_group = ExperimentSettings {
        weights: WeightGranularity::PerGroupEffective,
        ..base
    };
    table.row(vec![
        "  + per-group weight precisions (Table 3)".to_string(),
        format!("{:.2}", all_layer_speedup(&per_group, LoomVariant::Lm1b)),
    ]);

    for variant in [LoomVariant::Lm2b, LoomVariant::Lm4b] {
        table.row(vec![
            format!("  {variant} instead of 1-bit"),
            format!("{:.2}", all_layer_speedup(&base, variant)),
        ]);
    }
    println!("{}", table.render());

    // Cascading ablation on the few-output FCL it was designed for.
    println!("SIP cascading on GoogLeNet's 1024->1000 classifier (Pw = 7):");
    let cfg = EquivalentConfig::BASELINE_128;
    let spec = FcSpec::new(1024, 1000);
    let prec = LayerPrecisionSpec::static_profile(Precision::FULL, Precision::new(7).unwrap());
    let baseline = dpnn::fc_cycles(&cfg.dpnn(), &spec);
    for (label, cascading) in [("with cascading", true), ("without cascading", false)] {
        let r = fc_schedule(&cfg.loom(LoomVariant::Lm1b), &spec, &prec, cascading);
        println!(
            "  {label:<18}: {} cycles -> {:.2}x vs DPNN ({} cycles), SIP occupancy {:.0}%",
            r.cycles,
            baseline as f64 / r.cycles as f64,
            baseline,
            r.utilization * 100.0
        );
    }
}
