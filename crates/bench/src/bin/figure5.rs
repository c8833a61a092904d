//! Reproduces Figure 5: scaling of Loom and DStripes relative to an
//! equally-provisioned DPNN from 32 to 512 equivalent MACs/cycle, with a
//! single-channel LPDDR4-4267 off-chip memory, plus the §4.5 activation-memory
//! sizing claims.

use loom_core::loom_model::zoo;
use loom_core::report::TextTable;
use loom_core::scaling::{am_sizing, figure5};

fn main() {
    println!("{}", figure5().render());
    println!("Activation-memory sizing (§4.5):");
    let mut table = TextTable::new(vec!["Network", "DPNN AM (16b)", "Loom AM (packed)"]);
    for net in zoo::all() {
        let s = am_sizing(&net);
        table.row(vec![
            net.name().to_string(),
            format!("{:.2} MB", s.dpnn_bytes as f64 / (1024.0 * 1024.0)),
            format!("{:.2} MB", s.loom_bytes as f64 / (1024.0 * 1024.0)),
        ]);
    }
    println!("{}", table.render());
}
