//! Reproduces Table 4: all-layer speedup and energy efficiency of the Loom
//! variants over DPNN when the per-group effective weight precisions of
//! Table 3 are exploited.

use loom_core::tables::table4;

fn main() {
    println!("{}", table4().render());
}
