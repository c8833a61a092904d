//! Criterion benchmarks of whole-network simulation: AlexNet and GoogLeNet on
//! DPNN and Loom-1b, i.e. one cell of Table 2 each, plus the full Figure 4
//! evaluation of a single network.

use criterion::{criterion_group, criterion_main, Criterion};
use loom_core::experiment::{build_assignment, evaluate_network, ExperimentSettings};
use loom_core::loom_model::zoo;
use loom_core::loom_sim::accelerator::build;
use loom_core::loom_sim::engine::AcceleratorKind;
use loom_core::loom_sim::LoomVariant;
use std::hint::black_box;

fn bench_networks(c: &mut Criterion) {
    let settings = ExperimentSettings::default();
    let alexnet = zoo::alexnet();
    let googlenet = zoo::googlenet();
    let assignment_a = build_assignment(&alexnet, &settings);
    let assignment_g = build_assignment(&googlenet, &settings);
    let dpnn = build(AcceleratorKind::Dpnn, settings.config);
    let lm1b = build(AcceleratorKind::Loom(LoomVariant::Lm1b), settings.config);

    c.bench_function("simulate_alexnet_dpnn", |b| {
        b.iter(|| dpnn.simulate_network(black_box(&alexnet), &assignment_a))
    });
    c.bench_function("simulate_alexnet_loom1b", |b| {
        b.iter(|| lm1b.simulate_network(black_box(&alexnet), &assignment_a))
    });
    c.bench_function("simulate_googlenet_loom1b", |b| {
        b.iter(|| lm1b.simulate_network(black_box(&googlenet), &assignment_g))
    });
    c.bench_function("evaluate_alexnet_all_accelerators", |b| {
        b.iter(|| evaluate_network(black_box(&alexnet), &settings))
    });
}

criterion_group!(benches, bench_networks);
criterion_main!(benches);
