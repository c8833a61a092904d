//! The `zoo-b1` workload: the four full-scale networks with Pw = 8 synthetic
//! weights, run through `NetworkEngine::run` one image at a time with
//! activations re-quantized to 8 bits.

use crate::layers::{self, matches, Subject};
use crate::refs::{Expect, Refs};
use crate::report::{metric, peak_rss_mb, Metric, NETS};
use crate::stats::{median, Tally};
use crate::trace::trace_digest;
use crate::Outcome;
use loom_core::loom_model::graph::LayerGraph;
use loom_core::loom_model::inference::{InferenceOptions, NetworkParams};
use loom_core::loom_model::synthetic::{synthetic_activations, ValueDistribution};
use loom_core::loom_model::tensor::Tensor3;
use loom_core::loom_model::zoo::graphs;
use loom_core::loom_model::Precision;
use loom_core::loom_sim::loom::NetworkEngine;
use loom_core::loom_sim::pool;
use loom_serve::json::Json;
use loom_serve::model::serving_geometry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// The zoo networks, in run order (their metric keys are [`NETS`]).
const NETWORKS: [&str; 4] = ["NiN", "AlexNet", "GoogLeNet", "VGGS"];

/// Seed of the synthetic weights: the model is fixed, only inputs vary.
const WEIGHT_SEED: u64 = 2018;

/// Images per network in the workload's image pool. References are
/// regenerated once per pool, and each seed draws its images from it.
const POOL: usize = 6;

/// Activations re-quantized to 8 bits between layers: the regime of the
/// paper's Table 1 profiles.
fn options() -> InferenceOptions {
    InferenceOptions {
        activation_precision: Precision::new(8).expect("8 is a valid precision"),
        ..InferenceOptions::default()
    }
}

struct Model {
    graph: LayerGraph,
    params: NetworkParams,
}

/// The four networks with their synthetic weights.
fn models() -> Vec<Model> {
    NETWORKS
        .iter()
        .map(|name| {
            let graph = graphs::lookup(name).expect("zoo names resolve");
            let params = NetworkParams::synthetic_for_graph(
                &graph,
                &[Precision::new(8).expect("8 is a valid precision")],
                WEIGHT_SEED,
            );
            Model { graph, params }
        })
        .collect()
}

fn engine(threads: usize) -> NetworkEngine {
    NetworkEngine::new(serving_geometry()).with_threads(threads)
}

/// The program's preparation, timed: graphs, synthetic weights, and every
/// layer packed into the process-wide weight store.
fn set_up(engine: &NetworkEngine) -> (Vec<Model>, f64) {
    let started = Instant::now();
    let models = models();
    for m in &models {
        drop(engine.prepack(&m.graph, &m.params));
    }
    (models, started.elapsed().as_secs_f64())
}

/// Seconds of one set-up in this process, which must not have packed the
/// networks before.
pub fn setup_once(threads: usize) -> f64 {
    set_up(&engine(threads)).1
}

/// Network `net`'s image pool: [`POOL`] 8-bit synthetic images.
fn pool(graph: &LayerGraph, net: usize) -> Vec<Tensor3> {
    let shape = graph
        .input_shape()
        .expect("zoo graphs start with a convolution");
    let mut rng = StdRng::seed_from_u64(4242 + net as u64);
    (0..POOL)
        .map(|_| {
            let values = synthetic_activations(
                &mut rng,
                shape.len(),
                Precision::new(8).expect("8 is a valid precision"),
                ValueDistribution::activations(),
            );
            Tensor3::from_vec(shape, values).expect("shape and length agree")
        })
        .collect()
}

/// The pool image `seed` sends network `net`.
fn pick(seed: u64, net: usize) -> usize {
    let mut rng =
        StdRng::seed_from_u64(seed ^ (net as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    (rand::RngCore::next_u64(&mut rng) % POOL as u64) as usize
}

fn key(net: usize, image: usize) -> String {
    format!("{}/{image}", NETS[net])
}

/// The regeneration step: golden-executor traces and single-threaded engine
/// cycles for every image of the pool.
pub fn regenerate(threads: usize) -> Refs {
    let engine = engine(1);
    let models = models();
    let jobs: Vec<(usize, usize, Tensor3)> = models
        .iter()
        .enumerate()
        .flat_map(|(net, m)| {
            pool(&m.graph, net)
                .into_iter()
                .enumerate()
                .map(move |(item, x)| (net, item, x))
        })
        .collect();
    let options = options();
    let results = pool::ordered_map(threads, jobs.len(), |j| {
        let (net, item, input) = &jobs[j];
        let m = &models[*net];
        let golden = m
            .graph
            .run(&m.params, input, options)
            .expect("benchmark inputs match their graphs");
        let run = engine
            .run(&m.graph, &m.params, input, options)
            .expect("benchmark inputs match their graphs");
        if run.trace != golden {
            eprintln!(
                "regen: {} diverges from the golden executor",
                key(*net, *item)
            );
        }
        (
            key(*net, *item),
            Expect {
                digest: trace_digest(&golden).hex(),
                cycles: run.cycles,
                reduced_groups: run.reduced_groups,
                outputs: Vec::new(),
            },
        )
    });
    results.into_iter().collect()
}

/// Runs the workload: set-up, a verified warm-up, then either the timed
/// phase (end-to-end metrics) or the per-layer trace.
pub fn run(seed: u64, seconds: f64, trace: bool, threads: usize, refs: &Refs) -> Outcome {
    let engine = engine(threads);
    let options = options();
    let (models, setup_s) = set_up(&engine);
    // Each network's image for this seed, and the reference it answers to.
    let picks: Vec<usize> = (0..NETWORKS.len()).map(|net| pick(seed, net)).collect();
    let images: Vec<Tensor3> = models
        .iter()
        .enumerate()
        .map(|(net, m)| pool(&m.graph, net).swap_remove(picks[net]))
        .collect();
    let expects: Vec<&Expect> = (0..NETWORKS.len())
        .map(|net| &refs[&key(net, picks[net])])
        .collect();
    let mut tally = Tally::default();
    let mut call = |net: usize| {
        let m = &models[net];
        let started = Instant::now();
        let run = engine
            .run(&m.graph, &m.params, &images[net], options)
            .expect("benchmark inputs match their graphs");
        let elapsed = started.elapsed().as_secs_f64();
        tally.attempted += 1;
        if !matches(&run.trace, run.cycles, run.reduced_groups, expects[net]) {
            tally.mismatched += 1;
        }
        elapsed
    };

    // Warm-up: the first pass after set-up, untimed but verified like every
    // other result.
    for net in 0..NETWORKS.len() {
        call(net);
    }

    if trace {
        let subjects: Vec<Subject<'_>> = models
            .iter()
            .enumerate()
            .map(|(net, m)| Subject {
                key: NETS[net],
                graph: &m.graph,
                params: &m.params,
                input: &images[net],
                options,
                expect: expects[net],
            })
            .collect();
        let report = layers::measure(
            &subjects,
            engine,
            Duration::from_secs_f64(seconds),
            &mut tally,
        );
        let mut metrics = report.metrics;
        metrics.push(metric("error_ratio", tally.error_ratio(), "ratio"));
        return Outcome {
            tally,
            metrics,
            setup_s,
            rows: Some(report.rows),
            check_failures: report.coverage_failures,
            notes: Vec::new(),
        };
    }

    // The timed phase: whole passes over the four networks until the time is
    // up. Only the engine calls are timed; verification happens between them.
    let started = Instant::now();
    let mut latency: Vec<Vec<f64>> = vec![Vec::new(); NETWORKS.len()];
    let mut busy = 0.0;
    while latency[0].is_empty() || started.elapsed().as_secs_f64() < seconds {
        for (net, times) in latency.iter_mut().enumerate() {
            let elapsed = call(net);
            busy += elapsed;
            times.push(elapsed * 1e3);
        }
    }
    let calls = latency.iter().map(Vec::len).sum::<usize>();
    let per_net: Vec<f64> = latency.iter().map(|l| median(l)).collect();
    let mut metrics: Vec<Metric> = vec![
        // One image per engine call.
        metric("images_per_s", calls as f64 / busy, "1/s"),
        metric("requests_per_s", calls as f64 / busy, "1/s"),
        // Too few calls for a measured tail: the median and the slowest of
        // the per-network medians stand for the mix's p50 and p99.
        metric("latency_p50_ms", median(&per_net), "ms"),
        metric(
            "latency_p99_ms",
            per_net.iter().copied().fold(0.0, f64::max),
            "ms",
        ),
    ];
    metrics.extend(
        NETS.iter()
            .zip(&per_net)
            .map(|(n, ms)| metric(format!("{n}_ms"), *ms, "ms")),
    );
    metrics.push(metric("peak_rss_mb", peak_rss_mb(), "MB"));
    Outcome {
        tally,
        metrics,
        setup_s,
        rows: None,
        check_failures: Vec::new(),
        notes: vec![
            ("calls", Json::Number(calls as f64)),
            ("passes", Json::Number(latency[0].len() as f64)),
        ],
    }
}
