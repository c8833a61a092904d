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
//!    every backend in the default accelerator [`Registry`] (DPNN, Stripes,
//!    DStripes, the Loom variants), recording wall-clock, executed cycles and
//!    the measured speedup over DPNN, bit-exact against the golden executor.
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
//! `--threads N` / `LOOM_THREADS` size the worker pool with the shared
//! precedence (flag beats env beats available parallelism). Asking for more
//! threads than the machine has is a hard error (exit 2) — a silently
//! oversubscribed scaling curve reads like a regression — unless
//! `--allow-oversubscribe` is given, which records `oversubscribed: true`
//! and skips the scaling floors loudly. `--filter <network>` restricts the
//! zoo section, and `--reduced` swaps in the topology-preserving `Mini*`
//! networks for a quick run.

use loom_core::export::{
    functional_bench_to_json, BatchBench, DatapathThroughputRow, FunctionalBenchReport,
    KernelBench, ScalingPoint, WeightStoreBench, ZooFunctionalRow,
};
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
use loom_core::loom_sim::accelerator::Registry;
use loom_core::loom_sim::config::LoomGeometry;
use loom_core::loom_sim::datapath;
use loom_core::loom_sim::loom::store::fingerprint;
use loom_core::loom_sim::loom::{
    serial_inner_product, tile_inner_products, weight_store_stats, wide_inner_product,
    CompressedWideBlock, FunctionalLoom, NetworkEngine, WideBitplaneBlock, KERNEL_TIERS, TILE,
};
use loom_core::loom_sim::EquivalentConfig;
use loom_core::sweep::SweepOptions;
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
fn bench_kernel(rng: &mut StdRng, bits: u8) -> KernelBench {
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
    KernelBench {
        precision_bits: bits,
        lanes: KERNEL_LANES,
        serial_ns,
        wide_ns,
        tile_ns,
        pack_ns,
    }
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

/// Runs one zoo network through both paths and compares the traces.
fn bench_zoo_network(
    graph: &LayerGraph,
    geometry: LoomGeometry,
    threads: usize,
) -> ZooFunctionalRow {
    let pw = Precision::new(8).unwrap();
    let params = NetworkParams::synthetic_for_graph(graph, &[pw], 2018);
    let input = zoo_input(graph, 4242);
    let options = InferenceOptions::default();

    let started = Instant::now();
    let golden = graph
        .run(&params, &input, options)
        .expect("zoo graphs chain by construction");
    let golden_seconds = started.elapsed().as_secs_f64();

    let engine = NetworkEngine::new(geometry).with_threads(threads);
    let started = Instant::now();
    let run = engine
        .run(graph, &params, &input, options)
        .expect("zoo graphs chain by construction");
    let functional_seconds = started.elapsed().as_secs_f64();

    ZooFunctionalRow {
        network: graph.name().to_string(),
        nodes: graph.nodes().len(),
        macs: graph.total_macs(),
        golden_seconds,
        functional_seconds,
        cycles: run.cycles,
        reduced_groups: run.reduced_groups,
        matches_reference: run.trace == golden,
    }
}

/// Parses a `--<name> <x>` (or `--<name>=<x>`) float flag. `None` when the
/// flag is absent; a flag present with a missing or unparsable value exits
/// non-zero — silently guarding at a default would let a mistyped CI floor
/// pass unnoticed.
fn float_flag(name: &str) -> Option<f64> {
    let reject = |value: &str| -> ! {
        eprintln!("ERROR: --{name} needs a numeric value, got {value:?}");
        std::process::exit(2);
    };
    let flag = format!("--{name}");
    let prefix = format!("--{name}=");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == flag {
            let value = args.next().unwrap_or_default();
            return Some(value.parse().unwrap_or_else(|_| reject(&value)));
        } else if let Some(value) = arg.strip_prefix(&prefix) {
            return Some(value.parse().unwrap_or_else(|_| reject(value)));
        }
    }
    None
}

/// Measures one network across a thread scaling curve at the given batch
/// size, asserting bit-identical runs at every width.
fn scaling_bench(
    graph: &LayerGraph,
    geometry: LoomGeometry,
    batch: usize,
    seed_base: u64,
    thread_curve: &[usize],
) -> BatchBench {
    let params = NetworkParams::synthetic_for_graph(graph, &[Precision::new(8).unwrap()], 2018);
    let inputs: Vec<Tensor3> = (0..batch as u64)
        .map(|i| zoo_input(graph, seed_base + i))
        .collect();
    let run_options = InferenceOptions::default();
    let mut scaling = Vec::with_capacity(thread_curve.len());
    let mut reference = None;
    let mut identical = true;
    for &threads in thread_curve {
        let started = Instant::now();
        let runs = NetworkEngine::new(geometry)
            .with_threads(threads)
            .run_batch(graph, &params, &inputs, run_options)
            .expect("zoo graphs chain by construction");
        let seconds = started.elapsed().as_secs_f64();
        scaling.push(ScalingPoint { threads, seconds });
        match &reference {
            None => reference = Some(runs),
            Some(r) => identical &= *r == runs,
        }
    }
    let serial_seconds = scaling[0].seconds;
    let &ScalingPoint { threads, seconds } = scaling.last().expect("curve is non-empty");
    BatchBench {
        network: graph.name().to_string(),
        batch: inputs.len(),
        threads,
        serial_seconds,
        parallel_seconds: seconds,
        identical,
        scaling,
    }
}

/// Prints one scaling section's curve on a single line.
fn print_scaling(label: &str, bench: &BatchBench) {
    print!("{label}: {} x{} scaling curve:", bench.network, bench.batch);
    for p in &bench.scaling {
        print!(
            "  {}t {:.2}s ({:.2}x)",
            p.threads,
            p.seconds,
            if p.seconds > 0.0 {
                bench.serial_seconds / p.seconds
            } else {
                1.0
            }
        );
    }
    println!("  identical: {}", bench.identical);
}

fn main() {
    let mut options = SweepOptions::from_env();
    let reduced = std::env::args().any(|a| a == "--reduced");
    let speedup_floor = float_flag("min-conv-speedup").unwrap_or(DEFAULT_MIN_CONV_SPEEDUP);
    let batch_floor = float_flag("min-batch-speedup");
    let latency_floor = float_flag("min-latency-speedup");

    // Oversubscription policy: a scaling curve measured with more workers
    // than the machine has cores reads like a perf regression, so asking for
    // one is a hard error rather than a silent 1-thread (or thrashing) run.
    let available = loom_core::threads::available();
    let allow_oversubscribe = std::env::args().any(|a| a == "--allow-oversubscribe");
    let oversubscribed = options.threads > available;
    if oversubscribed {
        if allow_oversubscribe {
            eprintln!(
                "WARNING: --threads {} exceeds available parallelism {available}; \
                 scaling numbers will not be meaningful and the scaling floors are skipped",
                options.threads
            );
        } else {
            eprintln!(
                "ERROR: --threads {} exceeds available parallelism {available} \
                 (pass --allow-oversubscribe to force an oversubscribed run)",
                options.threads
            );
            std::process::exit(2);
        }
    }

    let machine_features = loom_core::loom_sim::loom::cpu_features();
    let active_tier = loom_core::loom_sim::loom::active_kernel_tier();
    println!(
        "Machine: {available} logical CPUs, {} physical cores; kernel tier {} \
         (popcnt={} avx2={} avx512f={} avx512bw={} avx512vpopcntdq={})",
        loom_core::threads::physical_cores(),
        active_tier.name(),
        machine_features.popcnt,
        machine_features.avx2,
        machine_features.avx512f,
        machine_features.avx512bw,
        machine_features.avx512vpopcntdq,
    );

    let mut rng = StdRng::seed_from_u64(2018);

    println!(
        "SIP kernel: {KERNEL_LANES}-lane inner product, bit-serial vs wide (alone, and in a \
         {TILE}-window tile of a {TILE_ROW_BLOCKS}-block row), and the {KERNEL_LANES}-lane \
         transpose"
    );
    let kernels: Vec<KernelBench> = [4u8, 8, 16]
        .iter()
        .map(|&bits| {
            let k = bench_kernel(&mut rng, bits);
            println!(
                "  {bits:>2}-bit: serial {:>9.1} ns  wide {:>7.1} ns  -> wide {:.1}x serial; \
                 in a tile {:>6.1} ns; pack {:>6.1} ns",
                k.serial_ns,
                k.wide_ns,
                k.wide_speedup(),
                k.tile_ns,
                k.pack_ns
            );
            k
        })
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
    // A typo'd --filter must not silently skip the bit-exactness gate: warn
    // and run the full suite instead, like the sweep binaries do.
    if options.matches_nothing_in(zoo_names.iter().copied()) {
        eprintln!(
            "warning: --filter {:?} matches no zoo network; running the full suite",
            options.filter.as_deref().unwrap_or("")
        );
        options.filter = None;
    }
    println!(
        "Zoo functional suite ({} scale, {} threads):",
        if reduced { "reduced" } else { "full" },
        options.threads
    );
    let zoo: Vec<ZooFunctionalRow> = zoo_names
        .iter()
        .filter(|n| options.matches(n))
        .map(|name| {
            let graph = resolve(name);
            let row = bench_zoo_network(&graph, geometry, options.threads);
            println!(
                "  {:<14} {:>3} nodes {:>6.1} MMACs  golden {:>7.2}s  functional {:>7.2}s  {}",
                row.network,
                row.nodes,
                row.macs as f64 / 1e6,
                row.golden_seconds,
                row.functional_seconds,
                if row.matches_reference {
                    "bit-exact"
                } else {
                    "MISMATCH"
                }
            );
            row
        })
        .collect();

    // Per-accelerator functional throughput: every registered backend that
    // exposes a functional datapath runs one network end to end, bit-exact
    // against the golden executor, with cycles and wall-clock per backend.
    // The measured speedup-vs-DPNN series backs Table 2 / Figure 4 with
    // executed (not just modelled) cycle counts.
    let datapaths = if options.filter.is_none() {
        let name = if reduced { "MiniAlexNet" } else { "AlexNet" };
        let graph = resolve(name);
        let params =
            NetworkParams::synthetic_for_graph(&graph, &[Precision::new(8).unwrap()], 2018);
        let inputs: Vec<Tensor3> = (0..2).map(|i| zoo_input(&graph, 7000 + i)).collect();
        let run_options = InferenceOptions::default();
        let golden = graph
            .run_batch(&params, &inputs, run_options)
            .expect("zoo graphs chain by construction");

        let registry = Registry::with_defaults(EquivalentConfig::BASELINE_128);
        println!(
            "Datapath throughput: {} registered backends on {} x{}:",
            registry.len(),
            graph.name(),
            inputs.len()
        );
        let mut rows: Vec<DatapathThroughputRow> = Vec::new();
        for acc in registry.iter() {
            let Some(backend) = acc.functional_datapath(options.threads) else {
                continue;
            };
            let started = Instant::now();
            let runs = datapath::run_network_batch(
                backend.as_ref(),
                &graph,
                &params,
                &inputs,
                run_options,
            )
            .expect("zoo graphs chain by construction");
            let seconds = started.elapsed().as_secs_f64();
            rows.push(DatapathThroughputRow {
                accelerator: acc.name(),
                network: graph.name().to_string(),
                seconds,
                cycles: runs.iter().map(|r| r.cycles).sum(),
                reduced_groups: runs.iter().map(|r| r.reduced_groups).sum(),
                speedup_vs_dpnn: 1.0,
                matches_reference: runs.iter().map(|r| &r.trace).eq(golden.iter()),
            });
        }
        let dpnn_cycles = rows
            .iter()
            .find(|r| r.accelerator == "DPNN")
            .map(|r| r.cycles);
        for row in &mut rows {
            if let Some(base) = dpnn_cycles {
                if row.cycles > 0 {
                    row.speedup_vs_dpnn = base as f64 / row.cycles as f64;
                }
            }
            println!(
                "  {:<14} {:>7.2}s  {:>12} cycles  {:>5.2}x vs DPNN  {}",
                row.accelerator,
                row.seconds,
                row.cycles,
                row.speedup_vs_dpnn,
                if row.matches_reference {
                    "bit-exact"
                } else {
                    "MISMATCH"
                }
            );
        }
        rows
    } else {
        Vec::new()
    };

    // Batched throughput and batch-of-1 latency: one network across a thread
    // scaling curve, capped at the resolved thread budget so an
    // un-oversubscribed run never measures more workers than cores.
    // Bit-identical results are required at every point. The latency section
    // runs the *same single inference* at each width — only the cost model's
    // intra-layer task decomposition makes that curve move.
    let thread_curve: Vec<usize> = [1usize, 2, 4, options.threads]
        .into_iter()
        .filter(|&t| t <= options.threads)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let (batch, latency) = if options.filter.is_none() {
        let name = if reduced { "MiniAlexNet" } else { "AlexNet" };
        let graph = resolve(name);
        let batch = scaling_bench(&graph, geometry, 4, 9000, &thread_curve);
        print_scaling("Batched engine", &batch);
        let latency = scaling_bench(&graph, geometry, 1, 9500, &thread_curve);
        print_scaling("Batch-of-1 latency", &latency);
        (Some(batch), Some(latency))
    } else {
        (None, None)
    };

    // Pack-once probe: prepacking the same model twice must be served from
    // the process-wide weight store the second time — CI gates on this with
    // --require-repack-avoidance.
    let probe_graph = resolve(if reduced { "MiniAlexNet" } else { "AlexNet" });
    let probe_params =
        NetworkParams::synthetic_for_graph(&probe_graph, &[Precision::new(8).unwrap()], 2018);
    let probe_engine = NetworkEngine::new(geometry);
    let first_pack = probe_engine.prepack(&probe_graph, &probe_params);
    let before_probe = weight_store_stats();
    let second_pack = probe_engine.prepack(&probe_graph, &probe_params);
    let after_probe = weight_store_stats();
    let repack_avoided = after_probe.packs() == before_probe.packs()
        && after_probe.hits() >= before_probe.hits() + second_pack.packed_layers() as u64
        && first_pack.packed_layers() > 0;
    // The two per-weight passes an uncached dispatch makes over a layer's
    // weights, each timed over every layer of the probe model (fastest of
    // three).
    let probe_weights = probe_params
        .layers()
        .iter()
        .map(|layer| layer.values.len())
        .sum::<usize>()
        .max(1) as f64;
    let per_weight_ns = |scan: &dyn Fn(&[i32])| {
        let (seconds, ()) = fastest_of_three(|| {
            for layer in probe_params.layers() {
                scan(black_box(&layer.values));
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
    let store = after_probe;
    let weight_store = WeightStoreBench {
        packs: store.packs(),
        hits: store.hits(),
        evictions: store.evictions,
        entries: store.entries,
        resident_bytes: store.resident_bytes,
        pack_seconds: store.pack.pack_nanos as f64 / 1e9,
        dense_bytes: store.pack.dense_bytes,
        compressed_bytes: store.pack.compressed_bytes,
        compression_ratio: store.pack.ratio(),
        repack_avoided,
        fingerprint_ns_per_weight,
        precision_scan_ns_per_weight,
    };
    println!(
        "Weight store: {} packs / {} hits, {} resident entries ({:.1} KB); \
         pack time {:.3}s; compressed {:.1} -> {:.1} KB resident \
         (stream ratio {:.2}); repack avoided: {repack_avoided}; per weight: \
         fingerprint {fingerprint_ns_per_weight:.3} ns, precision scan \
         {precision_scan_ns_per_weight:.3} ns",
        weight_store.packs,
        weight_store.hits,
        weight_store.entries,
        weight_store.resident_bytes as f64 / 1024.0,
        weight_store.pack_seconds,
        weight_store.dense_bytes as f64 / 1024.0,
        weight_store.compressed_bytes as f64 / 1024.0,
        weight_store.compression_ratio,
    );

    let report = FunctionalBenchReport {
        kernels,
        conv_layer,
        conv_golden_seconds,
        conv_wide_seconds,
        conv_matches_reference,
        available_parallelism: available,
        physical_cores: loom_core::threads::physical_cores(),
        oversubscribed,
        cpu_features: vec![
            ("popcnt".to_string(), machine_features.popcnt),
            ("avx2".to_string(), machine_features.avx2),
            ("avx512f".to_string(), machine_features.avx512f),
            ("avx512bw".to_string(), machine_features.avx512bw),
            (
                "avx512vpopcntdq".to_string(),
                machine_features.avx512vpopcntdq,
            ),
        ],
        kernel_tiers: KERNEL_TIERS
            .iter()
            .map(|t| (t.name().to_string(), t.detected()))
            .collect(),
        active_kernel_tier: active_tier.name().to_string(),
        zoo,
        datapaths,
        batch,
        latency,
        weight_store,
    };
    println!(
        "Conv layer, functional engine over the golden i64 reference: {:.1}x",
        report.conv_speedup()
    );

    let json = functional_bench_to_json(&report);
    match std::fs::write("BENCH_functional.json", &json) {
        Ok(()) => println!("Wrote BENCH_functional.json"),
        Err(e) => {
            // Exit non-zero: a committed baseline exists at the repo root, so
            // silently keeping it would let CI archive stale data as fresh.
            eprintln!("ERROR: could not write BENCH_functional.json: {e}");
            std::process::exit(1);
        }
    }

    if !report.all_agree() {
        eprintln!(
            "ERROR: a bit-exactness check failed (the conv layer or a zoo \
             network vs the golden model, or a parallel batch vs the serial one)"
        );
        std::process::exit(1);
    }
    // Pack-once guard: repacking a model whose weights are already in the
    // store is a perf regression even when results stay bit-exact.
    if std::env::args().any(|a| a == "--require-repack-avoidance")
        && !report.weight_store.repack_avoided
    {
        eprintln!(
            "ERROR: the second prepack of the probe model was not served from \
             the weight store (repack avoidance regressed)"
        );
        std::process::exit(1);
    }
    // Perf regression guard: the engine falling below the committed floor
    // over the golden conv fails CI even when every result is still
    // bit-exact.
    if report.conv_speedup() < speedup_floor {
        eprintln!(
            "ERROR: conv_speedup {:.1}x fell below the committed floor of {speedup_floor:.1}x",
            report.conv_speedup()
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
    for (name, floor, section) in [
        ("batch", batch_floor, report.batch.as_ref()),
        ("latency", latency_floor, report.latency.as_ref()),
    ] {
        let Some(floor) = floor else { continue };
        let Some(section) = section else {
            eprintln!("ERROR: --min-{name}-speedup given but the {name} section did not run");
            std::process::exit(1);
        };
        if section.speedup() < floor {
            eprintln!(
                "ERROR: {name} speedup {:.2}x at {} threads fell below the committed floor of {floor:.2}x",
                section.speedup(),
                section.threads
            );
            std::process::exit(1);
        }
    }
}
