//! The SIP-grid aspect-ratio study the paper leaves as future work (§3.2:
//! "Alternatively, LM could process 32 filters over 64 windows, however, we
//! leave this investigation for future work").
//!
//! All arrangements below keep the same 2048 SIPs (the "128" configuration) but
//! trade filter rows against window columns. Fewer rows reduce the
//! under-utilisation of layers with few filters; fewer columns reduce the
//! under-utilisation of layers with few windows (late, small feature maps) and
//! shrink the dynamic-precision group, increasing its benefit — the study shows
//! where the paper's 128×16 choice sits.
//!
//! Each arrangement is just a custom [`Accelerator`] instance
//! (`Loom::with_geometry`) run through the same trait machinery as the
//! built-in backends.

use loom_core::experiment::{build_assignment, ExperimentSettings};
use loom_core::loom_model::zoo;
use loom_core::loom_sim::accelerator::{self, Accelerator, Loom};
use loom_core::loom_sim::config::{LoomGeometry, LoomVariant};
use loom_core::loom_sim::counts::geomean;
use loom_core::loom_sim::engine::AcceleratorKind;
use loom_core::report::TextTable;

fn main() {
    let settings = ExperimentSettings::default();
    let dpnn_model = accelerator::build(AcceleratorKind::Dpnn, settings.config);
    let arrangements = [(512usize, 4usize), (256, 8), (128, 16), (64, 32), (32, 64)];

    println!(
        "SIP grid aspect-ratio study — 2048 SIPs, 100% profiles, geomean over the six networks\n"
    );
    let mut table = TextTable::new(vec![
        "Filters x Windows",
        "Conv speedup",
        "FC speedup",
        "All speedup",
    ]);
    for (rows, cols) in arrangements {
        let geometry = LoomGeometry {
            filter_rows: rows,
            window_columns: cols,
            sip_lanes: 16,
            act_bits_per_cycle: 1,
        };
        let custom = Loom::with_geometry(LoomVariant::Lm1b, geometry);
        let mut conv = Vec::new();
        let mut fc = Vec::new();
        let mut all = Vec::new();
        for net in zoo::all() {
            let assignment = build_assignment(&net, &settings);
            let dpnn = dpnn_model.simulate_network(&net, &assignment);
            let lm = custom.simulate_network(&net, &assignment);
            conv.push(lm.conv_speedup_vs(&dpnn));
            if dpnn.fc_cycles() > 0 {
                fc.push(lm.fc_speedup_vs(&dpnn));
            }
            all.push(lm.speedup_vs(&dpnn));
        }
        table.row(vec![
            format!("{rows} x {cols}"),
            format!("{:.2}", geomean(&conv)),
            format!("{:.2}", geomean(&fc)),
            format!("{:.2}", geomean(&all)),
        ]);
    }
    println!("{}", table.render());
    println!("The paper's 128x16 arrangement balances filter- and window-side under-utilisation;");
    println!("wider-window arrangements help networks whose late layers have few filters, at the");
    println!("cost of layers with small feature maps.");
}
