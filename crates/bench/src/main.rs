//! `loom-bench` — the reproduction harness. The real entry points are the
//! per-table binaries (`table1`..`table4`, `figure4`, `figure5`, `area`,
//! `ablation`, `aspect_ratio`, `all`), `functional_bench` and the Criterion
//! benches; this default binary just points there.

fn main() {
    println!("loom-bench: run one of the reproduction binaries instead:");
    for bin in [
        "table1",
        "table2",
        "table3",
        "table4",
        "figure4",
        "figure5",
        "area",
        "ablation",
        "aspect_ratio",
        "all",
    ] {
        println!("  cargo run --release -p loom-bench --bin {bin}");
    }
    println!("or `cargo bench` for the Criterion micro-benchmarks.");
}
