//! The per-layer half of a traced run, shared by every workload: untraced
//! and traced batch-1 passes over one input per network, the per-node
//! profile, the single-thread pass behind the pool speed-ups, warm weight
//! store lookups, and the inner-product kernel timings.

use crate::refs::Expect;
use crate::report::{metric, Metric};
use crate::stats::{median, Tally};
use crate::trace::{trace_digest, traced_run, Class, NodeProfile, TracedRun};
use loom_core::loom_model::graph::LayerGraph;
use loom_core::loom_model::inference::{InferenceOptions, InferenceTrace, NetworkParams};
use loom_core::loom_model::synthetic::{
    synthetic_activations, synthetic_weights, ValueDistribution,
};
use loom_core::loom_model::tensor::Tensor3;
use loom_core::loom_model::Precision;
use loom_core::loom_sim::loom::{
    compressed_inner_product, weight_store_stats, wide_inner_product, CompressedWideBlock,
    NetworkEngine, WideBitplaneBlock,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How far the median traced-over-untraced ratio may sit from 1 before the
/// run fails its coverage check. Single calls vary by about 15% on a shared
/// host, so the limit sits outside that noise: a failure means time the
/// trace does not account for.
pub const COVERAGE_TOLERANCE: f64 = 0.20;

/// Interleaved pass pairs run at least, whatever the time budget.
const MIN_PASSES: usize = 5;

/// One network measured layer by layer.
pub struct Subject<'a> {
    /// Metric key (`nin`, `alexnet`, ...).
    pub key: &'static str,
    /// The graph.
    pub graph: &'a LayerGraph,
    /// Its weights.
    pub params: &'a NetworkParams,
    /// The input every pass runs.
    pub input: &'a Tensor3,
    /// Inference options of the workload.
    pub options: InferenceOptions,
    /// The reference the input's result must equal.
    pub expect: &'a Expect,
}

/// Whether a result equals its reference: the full trace by digest, cycles
/// and reduced groups exactly.
pub fn matches(trace: &InferenceTrace, cycles: u64, reduced_groups: u64, expect: &Expect) -> bool {
    cycles == expect.cycles
        && reduced_groups == expect.reduced_groups
        && trace_digest(trace).hex() == expect.digest
}

/// What the per-layer half measured.
pub struct LayerReport {
    /// Per-layer metrics.
    pub metrics: Vec<Metric>,
    /// One tab-separated row per compute node, with a header.
    pub rows: String,
    /// Networks whose traced time strayed beyond [`COVERAGE_TOLERANCE`].
    pub coverage_failures: Vec<String>,
}

/// Runs the per-layer measurement over `subjects` for about `budget`.
pub fn measure(
    subjects: &[Subject<'_>],
    engine: NetworkEngine,
    budget: Duration,
    tally: &mut Tally,
) -> LayerReport {
    let threads = engine.threads();
    let mut verify = |ok: bool| {
        tally.attempted += 1;
        if !ok {
            tally.mismatched += 1;
        }
    };

    // Untraced and traced batch-1 passes, interleaved call by call so that
    // drift in machine speed reaches both alike. The untraced calls are the
    // baseline the trace must add up to; the weight-store counters are
    // summed over them alone.
    let (mut packs, mut hits, mut pack_ns) = (0u64, 0u64, 0u64);
    let phase = Instant::now();
    let mut untraced: Vec<Vec<f64>> = vec![Vec::new(); subjects.len()];
    let mut traced: Vec<Vec<TracedRun>> = subjects.iter().map(|_| Vec::new()).collect();
    while untraced[0].len() < MIN_PASSES || phase.elapsed() < budget {
        for ((s, times), runs) in subjects.iter().zip(&mut untraced).zip(&mut traced) {
            let before = weight_store_stats();
            let started = Instant::now();
            let run = engine
                .run(s.graph, s.params, s.input, s.options)
                .expect("benchmark inputs match their graphs");
            times.push(started.elapsed().as_nanos() as f64);
            let after = weight_store_stats();
            packs += after.packs() - before.packs();
            hits += after.hits() - before.hits();
            pack_ns += after.pack.pack_nanos - before.pack.pack_nanos;
            verify(matches(
                &run.trace,
                run.cycles,
                run.reduced_groups,
                s.expect,
            ));
            drop(run);

            let (trace, run) = traced_run(
                s.graph,
                s.params,
                s.input,
                s.options,
                engine.layer_engine(),
                threads,
            );
            verify(matches(
                &trace,
                run.cycles(),
                run.reduced_groups(),
                s.expect,
            ));
            drop(trace);
            runs.push(run);
        }
    }

    // One traced pass on a single thread, for the pool speed-ups.
    let mut serial_ns = [0.0f64; 3];
    let mut parallel_ns = [0.0f64; 3];
    let mut metrics = Vec::new();
    let mut coverage_failures = Vec::new();
    let mut rows =
        String::from("network\tnode\tclass\tns\tmacs\tpa\tpw\tcycles\treduced_groups\tcost\n");
    for ((s, runs), times) in subjects.iter().zip(&traced).zip(&untraced) {
        let (trace, single) = traced_run(
            s.graph,
            s.params,
            s.input,
            s.options,
            engine.layer_engine(),
            1,
        );
        verify(matches(
            &trace,
            single.cycles(),
            single.reduced_groups(),
            s.expect,
        ));
        drop(trace);
        let profile = NodeProfile::from_passes(runs);
        for (i, class) in Class::ALL.iter().enumerate() {
            serial_ns[i] += single
                .calls
                .iter()
                .filter(|c| c.class == *class)
                .map(|c| c.ns)
                .sum::<f64>();
            parallel_ns[i] += profile.class_ns(*class);
        }

        let n = s.key;
        // Each traced pass ran right after an untraced one, so compare them
        // pair by pair: a traced pass's wall time is its backend calls plus
        // the executor's self time.
        let coverage = median(
            &runs
                .iter()
                .zip(times)
                .map(|(r, u)| r.wall_ns / u)
                .collect::<Vec<_>>(),
        );
        let overhead_ns = median(
            &runs
                .iter()
                .zip(times)
                .map(|(r, u)| r.wall_ns - u)
                .collect::<Vec<_>>(),
        );
        if (coverage - 1.0).abs() > COVERAGE_TOLERANCE {
            coverage_failures.push(format!("{n}: {coverage:.3}"));
        }
        for class in Class::ALL {
            metrics.push(metric(
                format!("{}.ms.{n}", class.name()),
                profile.class_ns(class) / 1e6,
                "ms",
            ));
            metrics.push(metric(
                format!("{}.gbitops.{n}", class.name()),
                profile.class_gbitops(class),
                "bitops/ns",
            ));
        }
        let first = &runs[0];
        metrics.extend([
            metric(format!("graph.self_ms.{n}"), profile.self_ns / 1e6, "ms"),
            metric(
                format!("cost.rank_corr.{n}"),
                profile.cost_rank_corr(),
                "rho",
            ),
            metric(format!("precision.pa_mean.{n}"), profile.pa_mean(), "bits"),
            metric(format!("sim.cycles.{n}"), first.cycles() as f64, "cycles"),
            metric(
                format!("sim.reduced_groups.{n}"),
                first.reduced_groups() as f64,
                "count",
            ),
            metric(format!("trace.coverage.{n}"), coverage, "ratio"),
            metric(format!("trace.overhead_ms.{n}"), overhead_ns / 1e6, "ms"),
            metric(
                format!("store.lookup_ms.{n}"),
                warm_prepack_ms(&engine, s.graph, s.params),
                "ms",
            ),
        ]);
        for r in &profile.rows {
            let _ = writeln!(
                rows,
                "{n}\t{}\t{}\t{:.0}\t{}\t{}\t{}\t{}\t{}\t{}",
                r.name,
                r.class.name(),
                r.ns,
                r.macs,
                r.pa.bits(),
                r.pw.bits(),
                r.cycles,
                r.reduced_groups,
                r.cost
            );
        }
    }
    for (i, class) in Class::ALL.iter().enumerate() {
        let speedup = if parallel_ns[i] > 0.0 {
            serial_ns[i] / parallel_ns[i]
        } else {
            0.0
        };
        metrics.push(metric(
            format!("pool.speedup.{}", class.name()),
            speedup,
            "x",
        ));
    }
    metrics.extend([
        metric("store.packs", packs as f64, "count"),
        metric("store.hits", hits as f64, "count"),
        metric("store.pack_ms", pack_ns as f64 / 1e6, "ms"),
        metric(
            "store.resident_mb",
            weight_store_stats().resident_bytes as f64 / (1u64 << 20) as f64,
            "MB",
        ),
    ]);
    metrics.extend(kernels());
    LayerReport {
        metrics,
        rows,
        coverage_failures,
    }
}

/// Median of three warm `prepack` calls, in milliseconds: every container is
/// already in the weight store, so this is the hash, lookup and precision
/// scan an uncached dispatch pays per layer.
fn warm_prepack_ms(engine: &NetworkEngine, graph: &LayerGraph, params: &NetworkParams) -> f64 {
    let times: Vec<f64> = (0..3)
        .map(|_| {
            let started = Instant::now();
            black_box(engine.prepack(graph, params));
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// Median nanoseconds per call of `routine`, over seven timed blocks each
/// calibrated to at least a millisecond.
fn time_ns<O>(mut routine: impl FnMut() -> O) -> f64 {
    let mut batch = 1u64;
    loop {
        let started = Instant::now();
        for _ in 0..batch {
            black_box(routine());
        }
        if started.elapsed() >= Duration::from_millis(1) || batch >= 1 << 24 {
            break;
        }
        batch *= 2;
    }
    let blocks: Vec<f64> = (0..7)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            started.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    median(&blocks)
}

/// 256-lane inner-product timings on the active kernel tier: the dense wide
/// kernel at 4, 8 and 16 bits and the compressed-weight kernel at 8 bits.
fn kernels() -> Vec<Metric> {
    let mut rng = StdRng::seed_from_u64(2018);
    let mut out = Vec::new();
    for bits in [4u8, 8, 16] {
        let p = Precision::new(bits).expect("kernel precisions are valid");
        let w = synthetic_weights(&mut rng, 256, p, ValueDistribution::weights());
        let a = synthetic_activations(&mut rng, 256, p, ValueDistribution::activations());
        let (w, a) = (WideBitplaneBlock::pack(&w), WideBitplaneBlock::pack(&a));
        out.push(metric(
            format!("kernel.wide_ns.{bits}b"),
            time_ns(|| wide_inner_product(black_box(&w), black_box(&a), p, p, true, false)),
            "ns",
        ));
        if bits == 8 {
            let c = CompressedWideBlock::compress(&w);
            out.push(metric(
                "kernel.compressed_ns.8b",
                time_ns(|| {
                    compressed_inner_product(black_box(&c), black_box(&a), p, p, true, false)
                }),
                "ns",
            ));
        }
    }
    out
}
