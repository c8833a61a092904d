//! Functional-engine benchmark, bit-exactness gate and perf regression guard.
//!
//! Five sections, all emitted into `BENCH_functional.json` together with
//! machine provenance (detected CPU features, per-tier kernel availability,
//! the active kernel tier, physical core count):
//!
//! 1. **Kernels** — times 256-lane inner products at several precisions on
//!    the bit-serial oracle loop and the 256-lane SIMD-wide datapath, alone
//!    and inside a full tile (the kernel call the engine makes); then a
//!    mid-size convolutional layer through the golden `i64` reference and the
//!    functional engine, verifying identical outputs.
//! 2. **Zoo** — runs whole networks (`loom_model::zoo::graphs`, including
//!    branching GoogLeNet) through the batched functional engine and compares
//!    every trace bit-for-bit against the golden graph executor.
//! 3. **Datapaths** — runs one network through the functional datapath of
//!    every accelerator in `AcceleratorKind::all()` (DPNN, Stripes, DStripes,
//!    the Loom variants), recording wall-clock, executed cycles and the
//!    measured speedup over DPNN, bit-exact against the golden executor.
//! 4. **Batch** — runs one network as a batch of 4 across a thread scaling
//!    curve (1/2/4, capped at `--threads`), verifying bit-identical results
//!    at every point.
//! 5. **Latency** — the same network as a *batch of 1* across the same
//!    curve: the cost model splits large layers into intra-layer tasks, so
//!    single-inference latency scales too, bit-identical at every width.
//!
//! CI runs this as a smoke step and fails if any bit-exactness check fails
//! **or** a committed perf floor is broken: `--min-conv-speedup` (default
//! 1.5×, functional engine over the golden `i64` conv), and on multi-core
//! runners `--min-batch-speedup` / `--min-latency-speedup` (no default — the
//! batch and batch-of-1 scaling at the widest thread count).
//!
//! `--threads N` sizes the worker pool (default: the machine's available
//! parallelism). Asking for more threads than the machine has is a hard
//! error (exit 2) — a silently oversubscribed scaling curve reads like a
//! regression — unless `--allow-oversubscribe` is given, which records
//! `oversubscribed: true` and skips the scaling floors loudly. `--reduced`
//! swaps in the topology-preserving `Mini*` networks for a quick run. Every
//! valued flag goes through `loom_core::threads::flag`, so a missing or
//! unparsable value exits 2.
//!
//! The report is one [`Json`] value, written compact on one line.

use loom_core::loom_model::fixed::required_precision;
use loom_core::loom_model::graph::LayerGraph;
use loom_core::loom_model::inference::{InferenceOptions, NetworkParams};
use loom_core::loom_model::reference::conv_forward;
use loom_core::loom_model::synthetic::{
    synthetic_activations, synthetic_weights, ValueDistribution,
};
use loom_core::loom_model::tensor::{Tensor3, Tensor4};
use loom_core::loom_model::zoo::graphs;
use loom_core::loom_model::{layer::ConvSpec, Precision};
use loom_core::loom_sim::accelerator::{self, Accelerator};
use loom_core::loom_sim::config::LoomGeometry;
use loom_core::loom_sim::datapath;
use loom_core::loom_sim::loom::store::fingerprint;
use loom_core::loom_sim::loom::{
    serial_inner_product, tile_inner_products, weight_store_stats, wide_inner_product,
    CompressedWideBlock, FunctionalLoom, NetworkEngine, WideBitplaneBlock, KERNEL_TIERS, TILE,
};
use loom_core::loom_sim::{AcceleratorKind, EquivalentConfig};
use loom_core::threads::flag;
use loom_serve::json::Json;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Default floor for the conv-layer speedup of the functional engine over
/// the golden `i64` conv; CI fails the job below it.
const DEFAULT_MIN_CONV_SPEEDUP: f64 = 1.5;

/// Lanes per kernel micro-benchmark inner product.
const KERNEL_LANES: usize = 256;

/// Blocks in the tile benchmark's weight row: a 3×3×256 filter.
const TILE_ROW_BLOCKS: usize = 9;

/// A JSON object with `members` in order.
fn object<const N: usize>(members: [(&str, Json); N]) -> Json {
    Json::Object(
        members
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

/// `num / den`, or 1.0 when `den` is 0: every speedup in the report.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        1.0
    }
}

/// Times `routine` with batch-size calibration (so `Instant` overhead stays
/// negligible) until ~100 ms have elapsed; returns mean nanoseconds per call.
fn time_ns<O, F: FnMut() -> O>(mut routine: F) -> f64 {
    let mut batch = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..batch {
            black_box(routine());
        }
        if start.elapsed().as_millis() >= 1 || batch >= 1 << 22 {
            break;
        }
        batch *= 4;
    }
    let mut iters = 0u64;
    let mut total = 0u128;
    while total < 100_000_000 {
        let start = Instant::now();
        for _ in 0..batch {
            black_box(routine());
        }
        total += start.elapsed().as_nanos();
        iters += batch;
    }
    total as f64 / iters.max(1) as f64
}

/// [`time_ns`] repeated three times, keeping the fastest — the minimum is the
/// standard noise-robust estimator when the benchmarking core is shared.
fn robust_ns<O, F: FnMut() -> O>(mut routine: F) -> f64 {
    (0..3)
        .map(|_| time_ns(&mut routine))
        .fold(f64::INFINITY, f64::min)
}

/// Micro-benchmarks one 256-lane inner product at `bits`-bit operands on the
/// bit-serial oracle, the wide kernel alone and inside a full tile, and one
/// 256-lane `pack_into` of the activations on the active tier's transposer.
/// The wide operands are pre-transposed, matching how the engine amortises
/// packing. The tile is the engine's kernel call: a compressed 9-block row
/// (a 3×3×256 filter) against `TILE` windows, timed per 256-lane product.
/// Prints the point and returns its report row.
fn bench_kernel(rng: &mut StdRng, bits: u8) -> Json {
    let p = Precision::new(bits).unwrap();
    let weights = synthetic_weights(rng, KERNEL_LANES, p, ValueDistribution::weights());
    let activations = synthetic_activations(rng, KERNEL_LANES, p, ValueDistribution::activations());
    let serial_ns = robust_ns(|| {
        serial_inner_product(
            black_box(&weights),
            black_box(&activations),
            p,
            p,
            true,
            false,
        )
    });
    let w_wide = WideBitplaneBlock::pack(&weights);
    let a_wide = WideBitplaneBlock::pack(&activations);
    let wide_ns =
        robust_ns(|| wide_inner_product(black_box(&w_wide), black_box(&a_wide), p, p, true, false));
    // The tile draws its operands from its own generator, so the data of the
    // sections after the kernels stays what it was.
    let mut tile_rng = StdRng::seed_from_u64(u64::from(bits));
    let row: Vec<CompressedWideBlock> = (0..TILE_ROW_BLOCKS)
        .map(|_| {
            let block =
                synthetic_weights(&mut tile_rng, KERNEL_LANES, p, ValueDistribution::weights());
            CompressedWideBlock::compress(&WideBitplaneBlock::pack(&block))
        })
        .collect();
    let windows: Vec<WideBitplaneBlock> = (0..TILE * TILE_ROW_BLOCKS)
        .map(|_| {
            let block = synthetic_activations(
                &mut tile_rng,
                KERNEL_LANES,
                p,
                ValueDistribution::activations(),
            );
            WideBitplaneBlock::pack(&block)
        })
        .collect();
    let mut out = [0i64; TILE];
    let tile_ns = robust_ns(|| {
        tile_inner_products(black_box(&row), black_box(&windows), &mut out);
        black_box(&out);
    }) / (TILE * TILE_ROW_BLOCKS) as f64;
    let mut block = WideBitplaneBlock::EMPTY;
    let pack_ns = robust_ns(|| {
        block.pack_into(black_box(&activations));
        black_box(&block);
    });
    let wide_speedup = ratio(serial_ns, wide_ns);
    println!(
        "  {bits:>2}-bit: serial {serial_ns:>9.1} ns  wide {wide_ns:>7.1} ns  -> wide \
         {wide_speedup:.1}x serial; in a tile {tile_ns:>6.1} ns; pack {pack_ns:>6.1} ns"
    );
    object([
        ("precision_bits", Json::from(i64::from(bits))),
        ("lanes", Json::from(KERNEL_LANES as i64)),
        ("serial_ns", Json::Number(serial_ns)),
        ("wide_ns", Json::Number(wide_ns)),
        ("tile_ns", Json::Number(tile_ns)),
        ("wide_speedup", Json::Number(wide_speedup)),
        ("pack_ns", Json::Number(pack_ns)),
    ])
}

/// Wall-clock seconds of the fastest of three runs of `routine`, with the
/// last run's result.
fn fastest_of_three<O>(mut routine: impl FnMut() -> O) -> (f64, O) {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..3 {
        let started = Instant::now();
        result = Some(black_box(routine()));
        best = best.min(started.elapsed().as_secs_f64());
    }
    (best, result.expect("three runs"))
}

/// Synthesizes an 8-bit input image for a zoo graph.
fn zoo_input(graph: &LayerGraph, seed: u64) -> Tensor3 {
    let shape = graph
        .input_shape()
        .expect("every zoo graph starts with a convolution");
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor3::from_vec(
        shape,
        synthetic_activations(
            &mut rng,
            shape.len(),
            Precision::new(8).unwrap(),
            ValueDistribution::activations(),
        ),
    )
    .expect("shape and length agree by construction")
}

/// Synthesizes a zoo graph's Pw = 8 weights (seed 2018) and times it.
fn synthesize(graph: &LayerGraph) -> (NetworkParams, f64) {
    let started = Instant::now();
    let params = NetworkParams::synthetic_for_graph(graph, &[Precision::new(8).unwrap()], 2018);
    (params, started.elapsed().as_secs_f64())
}

/// Runs one zoo network through both paths and compares the traces. Prints
/// the network's line and returns its report row and whether the traces
/// matched.
fn bench_zoo_network(
    graph: &LayerGraph,
    params: &NetworkParams,
    synth_seconds: f64,
    geometry: LoomGeometry,
    threads: usize,
) -> (Json, bool) {
    let input = zoo_input(graph, 4242);
    let options = InferenceOptions::default();

    let started = Instant::now();
    let golden = graph
        .run(params, &input, options)
        .expect("zoo graphs chain by construction");
    let golden_seconds = started.elapsed().as_secs_f64();

    let engine = NetworkEngine::new(geometry).with_threads(threads);
    let started = Instant::now();
    let run = engine
        .run(graph, params, &input, options)
        .expect("zoo graphs chain by construction");
    let functional_seconds = started.elapsed().as_secs_f64();
    let matches_reference = run.trace == golden;

    println!(
        "  {:<14} {:>3} nodes {:>6.1} MMACs  synth {synth_seconds:>5.2}s  golden \
         {golden_seconds:>7.2}s  functional {functional_seconds:>7.2}s  {}",
        graph.name(),
        graph.nodes().len(),
        graph.total_macs() as f64 / 1e6,
        if matches_reference {
            "bit-exact"
        } else {
            "MISMATCH"
        }
    );
    let row = object([
        ("network", Json::from(graph.name())),
        ("nodes", Json::from(graph.nodes().len() as i64)),
        ("macs", Json::from(graph.total_macs() as i64)),
        ("synth_seconds", Json::Number(synth_seconds)),
        ("golden_seconds", Json::Number(golden_seconds)),
        ("functional_seconds", Json::Number(functional_seconds)),
        ("cycles", Json::from(run.cycles as i64)),
        ("reduced_groups", Json::from(run.reduced_groups as i64)),
        ("matches_reference", Json::Bool(matches_reference)),
    ]);
    (row, matches_reference)
}

/// Measures one network across a thread scaling curve at the given batch
/// size, checking that every width's runs are bit-identical. Prints the
/// curve on one line under `label` and returns the section's report value,
/// the speedup at the widest point, and whether every run was identical.
fn scaling_bench(
    label: &str,
    graph: &LayerGraph,
    params: &NetworkParams,
    geometry: LoomGeometry,
    batch: usize,
    seed_base: u64,
    thread_curve: &[usize],
) -> (Json, f64, bool) {
    let inputs: Vec<Tensor3> = (0..batch as u64)
        .map(|i| zoo_input(graph, seed_base + i))
        .collect();
    let run_options = InferenceOptions::default();
    let mut curve = Vec::with_capacity(thread_curve.len());
    let mut reference = None;
    let mut identical = true;
    for &threads in thread_curve {
        let started = Instant::now();
        let runs = NetworkEngine::new(geometry)
            .with_threads(threads)
            .run_batch(graph, params, &inputs, run_options)
            .expect("zoo graphs chain by construction");
        curve.push((threads, started.elapsed().as_secs_f64()));
        match &reference {
            None => reference = Some(runs),
            Some(r) => identical &= *r == runs,
        }
    }
    let serial_seconds = curve[0].1;
    let (threads, parallel_seconds) = *curve.last().expect("curve is non-empty");
    let speedup = ratio(serial_seconds, parallel_seconds);
    print!("{label}: {} x{batch} scaling curve:", graph.name());
    let scaling = curve
        .iter()
        .map(|&(threads, seconds)| {
            let speedup = ratio(serial_seconds, seconds);
            print!("  {threads}t {seconds:.2}s ({speedup:.2}x)");
            object([
                ("threads", Json::from(threads as i64)),
                ("seconds", Json::Number(seconds)),
                ("speedup", Json::Number(speedup)),
            ])
        })
        .collect();
    println!("  identical: {identical}");
    let section = object([
        ("network", Json::from(graph.name())),
        ("batch", Json::from(batch as i64)),
        ("threads", Json::from(threads as i64)),
        ("serial_seconds", Json::Number(serial_seconds)),
        ("parallel_seconds", Json::Number(parallel_seconds)),
        ("speedup", Json::Number(speedup)),
        ("identical", Json::Bool(identical)),
        ("scaling", Json::Array(scaling)),
    ]);
    (section, speedup, identical)
}

fn main() {
    let threads = loom_core::threads::resolve(flag("threads"));
    let reduced = std::env::args().any(|a| a == "--reduced");
    let speedup_floor = flag("min-conv-speedup").unwrap_or(DEFAULT_MIN_CONV_SPEEDUP);
    let batch_floor: Option<f64> = flag("min-batch-speedup");
    let latency_floor: Option<f64> = flag("min-latency-speedup");

    // Oversubscription policy: a scaling curve measured with more workers
    // than the machine has cores reads like a perf regression, so asking for
    // one is a hard error rather than a silent 1-thread (or thrashing) run.
    let available = loom_core::threads::available();
    let allow_oversubscribe = std::env::args().any(|a| a == "--allow-oversubscribe");
    let oversubscribed = threads > available;
    if oversubscribed {
        if allow_oversubscribe {
            eprintln!(
                "WARNING: --threads {} exceeds available parallelism {available}; \
                 scaling numbers will not be meaningful and the scaling floors are skipped",
                threads
            );
        } else {
            eprintln!(
                "ERROR: --threads {} exceeds available parallelism {available} \
                 (pass --allow-oversubscribe to force an oversubscribed run)",
                threads
            );
            std::process::exit(2);
        }
    }

    let physical_cores = loom_core::threads::physical_cores();
    let machine_features = loom_core::loom_sim::loom::cpu_features();
    let active_tier = loom_core::loom_sim::loom::active_kernel_tier();
    println!(
        "Machine: {available} logical CPUs, {physical_cores} physical cores; kernel tier {} \
         (popcnt={} avx2={} avx512f={} avx512bw={} avx512vpopcntdq={} avx512ifma={})",
        active_tier.name(),
        machine_features.popcnt,
        machine_features.avx2,
        machine_features.avx512f,
        machine_features.avx512bw,
        machine_features.avx512vpopcntdq,
        machine_features.avx512ifma,
    );

    let mut rng = StdRng::seed_from_u64(2018);

    println!(
        "SIP kernel: {KERNEL_LANES}-lane inner product, bit-serial vs wide (alone, and in a \
         {TILE}-window tile of a {TILE_ROW_BLOCKS}-block row), and the {KERNEL_LANES}-lane \
         transpose"
    );
    let kernels: Vec<Json> = [4u8, 8, 16]
        .iter()
        .map(|&bits| bench_kernel(&mut rng, bits))
        .collect();

    // A mid-size conv layer (VGG-scale channel counts on a small feature map)
    // through the golden reference and the engine, dynamic precision enabled.
    // Best of three each, so the engine's runs are warm (weights packed).
    let spec = ConvSpec::simple(32, 16, 16, 32, 3);
    let pa = Precision::new(8).unwrap();
    let pw = Precision::new(8).unwrap();
    let input = Tensor3::from_vec(
        spec.input_shape(),
        synthetic_activations(
            &mut rng,
            spec.input_shape().len(),
            pa,
            ValueDistribution::activations(),
        ),
    )
    .unwrap();
    let weights = Tensor4::from_vec(
        spec.weight_shape(),
        synthetic_weights(
            &mut rng,
            spec.weight_shape().len(),
            pw,
            ValueDistribution::weights(),
        ),
    )
    .unwrap();
    let geometry = LoomGeometry {
        filter_rows: 16,
        window_columns: 8,
        sip_lanes: 16,
        act_bits_per_cycle: 1,
    };
    let conv_layer = format!(
        "conv {}x{}x{} -> {} filters k{} ({} MACs), Pa={pa} Pw={pw}",
        spec.in_channels,
        spec.in_height,
        spec.in_width,
        spec.filters,
        spec.kernel_h,
        spec.macs()
    );
    println!("Functional engine: {conv_layer}");

    let (conv_golden_seconds, golden) = fastest_of_three(|| conv_forward(&spec, &input, &weights));
    let engine = FunctionalLoom::new(geometry);
    let (conv_wide_seconds, run) =
        fastest_of_three(|| engine.run_conv(&spec, &input, &weights, pa, pw));
    let conv_matches_reference = run.outputs == golden;
    println!(
        "  golden i64 reference : {:.2} ms\n  functional engine    : {:.2} ms\n  identical outputs    : {conv_matches_reference}",
        conv_golden_seconds * 1e3,
        conv_wide_seconds * 1e3
    );

    // Whole networks: golden graph executor vs the batched functional engine,
    // bit-exact trace comparison per network.
    let zoo_names: &[&str] = if reduced {
        &graphs::REDUCED_NAMES
    } else {
        &["NiN", "AlexNet", "GoogLeNet", "VGGS"]
    };
    // One zoo-by-name lookup shared with the serving layer's model catalog
    // (`loom_model::zoo::graphs::lookup`): the suite name lists above select
    // full-scale vs reduced, the resolution itself is common code.
    let resolve = |name: &str| graphs::lookup(name).expect("zoo suite names always resolve");
    println!(
        "Zoo functional suite ({} scale, {} threads):",
        if reduced { "reduced" } else { "full" },
        threads
    );
    // Every bit-exactness check of the run, folded as the sections go.
    let mut all_agree = conv_matches_reference;
    // Each network's weights are synthesized once. AlexNet's (MiniAlexNet's
    // with `--reduced`) also serve the datapath, scaling and pack-once
    // sections below.
    let alexnet_name = if reduced { "MiniAlexNet" } else { "AlexNet" };
    let mut alexnet = None;
    let mut zoo = Vec::with_capacity(zoo_names.len());
    for &name in zoo_names {
        let graph = resolve(name);
        let (params, synth_seconds) = synthesize(&graph);
        let (row, matches) = bench_zoo_network(&graph, &params, synth_seconds, geometry, threads);
        all_agree &= matches;
        zoo.push(row);
        if name == alexnet_name {
            alexnet = Some((graph, params));
        }
    }
    let (alexnet, alexnet_params) = alexnet.expect("both suites include AlexNet");

    // Per-accelerator functional throughput: every backend that exposes a
    // functional datapath runs one network end to end, bit-exact against the
    // golden executor, with cycles and wall-clock per backend.
    // The measured speedup-vs-DPNN series backs Table 2 / Figure 4 with
    // executed (not just modelled) cycle counts.
    let inputs: Vec<Tensor3> = (0..2).map(|i| zoo_input(&alexnet, 7000 + i)).collect();
    let run_options = InferenceOptions::default();
    let golden_traces = alexnet
        .run_batch(&alexnet_params, &inputs, run_options)
        .expect("zoo graphs chain by construction");
    let accelerators: Vec<Box<dyn Accelerator>> = AcceleratorKind::all()
        .into_iter()
        .map(|kind| accelerator::build(kind, EquivalentConfig::BASELINE_128))
        .collect();
    println!(
        "Datapath throughput: {} backends on {} x{}:",
        accelerators.len(),
        alexnet.name(),
        inputs.len()
    );
    // (accelerator, seconds, cycles, reduced groups, matches reference)
    let mut backends = Vec::new();
    for acc in &accelerators {
        let Some(backend) = acc.functional_datapath(threads) else {
            continue;
        };
        let started = Instant::now();
        let runs = datapath::run_network_batch(
            backend.as_ref(),
            &alexnet,
            &alexnet_params,
            &inputs,
            run_options,
        )
        .expect("zoo graphs chain by construction");
        backends.push((
            acc.name(),
            started.elapsed().as_secs_f64(),
            runs.iter().map(|r| r.cycles).sum::<u64>(),
            runs.iter().map(|r| r.reduced_groups).sum::<u64>(),
            runs.iter().map(|r| &r.trace).eq(golden_traces.iter()),
        ));
    }
    let dpnn_cycles = backends.iter().find(|b| b.0 == "DPNN").map(|b| b.2 as f64);
    let datapaths: Vec<Json> = backends
        .into_iter()
        .map(|(accelerator, seconds, cycles, reduced_groups, matches)| {
            let speedup_vs_dpnn = dpnn_cycles.map_or(1.0, |base| ratio(base, cycles as f64));
            println!(
                "  {accelerator:<14} {seconds:>7.2}s  {cycles:>12} cycles  \
                 {speedup_vs_dpnn:>5.2}x vs DPNN  {}",
                if matches { "bit-exact" } else { "MISMATCH" }
            );
            all_agree &= matches;
            object([
                ("accelerator", Json::from(accelerator.as_str())),
                ("network", Json::from(alexnet.name())),
                ("seconds", Json::Number(seconds)),
                ("cycles", Json::from(cycles as i64)),
                ("reduced_groups", Json::from(reduced_groups as i64)),
                ("speedup_vs_dpnn", Json::Number(speedup_vs_dpnn)),
                ("matches_reference", Json::Bool(matches)),
            ])
        })
        .collect();

    // Batched throughput and batch-of-1 latency: one network across a thread
    // scaling curve, capped at the resolved thread budget so an
    // un-oversubscribed run never measures more workers than cores.
    // Bit-identical results are required at every point. The latency section
    // runs the *same single inference* at each width — only the cost model's
    // intra-layer task decomposition makes that curve move.
    let thread_curve: Vec<usize> = [1usize, 2, 4, threads]
        .into_iter()
        .filter(|&t| t <= threads)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let (batch, batch_speedup, batch_identical) = scaling_bench(
        "Batched engine",
        &alexnet,
        &alexnet_params,
        geometry,
        4,
        9000,
        &thread_curve,
    );
    let (latency, latency_speedup, latency_identical) = scaling_bench(
        "Batch-of-1 latency",
        &alexnet,
        &alexnet_params,
        geometry,
        1,
        9500,
        &thread_curve,
    );
    all_agree &= batch_identical && latency_identical;

    // Pack-once probe: prepacking the same model twice must be served from
    // the process-wide weight store the second time — CI gates on this with
    // --require-repack-avoidance.
    let probe_engine = NetworkEngine::new(geometry);
    let first_pack = probe_engine.prepack(&alexnet, &alexnet_params);
    let before_probe = weight_store_stats();
    let second_pack = probe_engine.prepack(&alexnet, &alexnet_params);
    let store = weight_store_stats();
    let repack_avoided = store.packs() == before_probe.packs()
        && store.hits() >= before_probe.hits() + second_pack.packed_layers() as u64
        && first_pack.packed_layers() > 0;
    // The two per-weight passes an uncached dispatch makes over a layer's
    // weights, each timed over every layer of the probe model (fastest of
    // three).
    let probe_weights = alexnet_params
        .layers()
        .iter()
        .map(|layer| layer.tensor.len())
        .sum::<usize>()
        .max(1) as f64;
    let per_weight_ns = |scan: &dyn Fn(&[i32])| {
        let (seconds, ()) = fastest_of_three(|| {
            for layer in alexnet_params.layers() {
                scan(black_box(layer.values()));
            }
        });
        seconds * 1e9 / probe_weights
    };
    let fingerprint_ns_per_weight = per_weight_ns(&|w| {
        black_box(fingerprint(w));
    });
    let precision_scan_ns_per_weight = per_weight_ns(&|w| {
        black_box(required_precision(w));
    });
    let pack_seconds = store.pack.pack_nanos as f64 / 1e9;
    println!(
        "Weight store: {} packs / {} hits, {} resident entries ({:.1} KB); \
         pack time {pack_seconds:.3}s; compressed {:.1} -> {:.1} KB resident \
         (stream ratio {:.2}); repack avoided: {repack_avoided}; per weight: \
         fingerprint {fingerprint_ns_per_weight:.3} ns, precision scan \
         {precision_scan_ns_per_weight:.3} ns",
        store.packs(),
        store.hits(),
        store.entries,
        store.resident_bytes as f64 / 1024.0,
        store.pack.dense_bytes as f64 / 1024.0,
        store.pack.compressed_bytes as f64 / 1024.0,
        store.pack.ratio(),
    );
    let weight_store = object([
        ("packs", Json::from(store.packs() as i64)),
        ("hits", Json::from(store.hits() as i64)),
        ("evictions", Json::from(store.evictions as i64)),
        ("entries", Json::from(store.entries as i64)),
        ("resident_bytes", Json::from(store.resident_bytes as i64)),
        ("pack_seconds", Json::Number(pack_seconds)),
        ("dense_bytes", Json::from(store.pack.dense_bytes as i64)),
        (
            "compressed_bytes",
            Json::from(store.pack.compressed_bytes as i64),
        ),
        ("compression_ratio", Json::Number(store.pack.ratio())),
        ("repack_avoided", Json::Bool(repack_avoided)),
        (
            "fingerprint_ns_per_weight",
            Json::Number(fingerprint_ns_per_weight),
        ),
        (
            "precision_scan_ns_per_weight",
            Json::Number(precision_scan_ns_per_weight),
        ),
    ]);

    let conv_speedup = ratio(conv_golden_seconds, conv_wide_seconds);
    let cpu_features = [
        ("popcnt", machine_features.popcnt),
        ("avx2", machine_features.avx2),
        ("avx512f", machine_features.avx512f),
        ("avx512bw", machine_features.avx512bw),
        ("avx512vpopcntdq", machine_features.avx512vpopcntdq),
        ("avx512ifma", machine_features.avx512ifma),
    ];
    let report = object([
        ("kernels", Json::Array(kernels)),
        ("conv_layer", Json::String(conv_layer)),
        ("conv_golden_seconds", Json::Number(conv_golden_seconds)),
        ("conv_wide_seconds", Json::Number(conv_wide_seconds)),
        ("conv_speedup", Json::Number(conv_speedup)),
        ("conv_matches_reference", Json::Bool(conv_matches_reference)),
        ("available_parallelism", Json::from(available as i64)),
        ("physical_cores", Json::from(physical_cores as i64)),
        ("oversubscribed", Json::Bool(oversubscribed)),
        (
            "cpu_features",
            object(cpu_features.map(|(name, on)| (name, Json::Bool(on)))),
        ),
        (
            "kernel_tiers",
            Json::Object(
                KERNEL_TIERS
                    .iter()
                    .map(|t| (t.name().to_string(), Json::Bool(t.detected())))
                    .collect(),
            ),
        ),
        ("active_kernel_tier", Json::from(active_tier.name())),
        ("zoo", Json::Array(zoo)),
        ("datapaths", Json::Array(datapaths)),
        ("batch", batch),
        ("latency", latency),
        ("weight_store", weight_store),
    ]);
    println!("Conv layer, functional engine over the golden i64 reference: {conv_speedup:.1}x");

    match std::fs::write("BENCH_functional.json", report.to_string() + "\n") {
        Ok(()) => println!("Wrote BENCH_functional.json"),
        Err(e) => {
            // Exit non-zero: a committed baseline exists at the repo root, so
            // silently keeping it would let CI archive stale data as fresh.
            eprintln!("ERROR: could not write BENCH_functional.json: {e}");
            std::process::exit(1);
        }
    }

    if !all_agree {
        eprintln!(
            "ERROR: a bit-exactness check failed (the conv layer or a zoo \
             network vs the golden model, or a parallel batch vs the serial one)"
        );
        std::process::exit(1);
    }
    // Pack-once guard: repacking a model whose weights are already in the
    // store is a perf regression even when results stay bit-exact.
    if std::env::args().any(|a| a == "--require-repack-avoidance") && !repack_avoided {
        eprintln!(
            "ERROR: the second prepack of the probe model was not served from \
             the weight store (repack avoidance regressed)"
        );
        std::process::exit(1);
    }
    // Perf regression guard: the engine falling below the committed floor
    // over the golden conv fails CI even when every result is still
    // bit-exact.
    if conv_speedup < speedup_floor {
        eprintln!(
            "ERROR: conv_speedup {conv_speedup:.1}x fell below the committed floor of \
             {speedup_floor:.1}x"
        );
        std::process::exit(1);
    }
    // Scaling floors (multi-core CI only): the batch and batch-of-1 curves
    // at the widest thread count. Meaningless on an oversubscribed run, so
    // skipped there — loudly, never silently.
    if oversubscribed {
        if batch_floor.is_some() || latency_floor.is_some() {
            eprintln!(
                "WARNING: skipping --min-batch-speedup/--min-latency-speedup: \
                 the run was oversubscribed"
            );
        }
        return;
    }
    let widest = thread_curve.last().expect("curve is non-empty");
    for (name, floor, speedup) in [
        ("batch", batch_floor, batch_speedup),
        ("latency", latency_floor, latency_speedup),
    ] {
        let Some(floor) = floor else { continue };
        if speedup < floor {
            eprintln!(
                "ERROR: {name} speedup {speedup:.2}x at {widest} threads fell below the \
                 committed floor of {floor:.2}x"
            );
            std::process::exit(1);
        }
    }
}
