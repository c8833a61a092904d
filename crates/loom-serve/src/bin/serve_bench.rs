//! Synthetic load generator and soak gate for the serving front end.
//!
//! Three phases, all over the same deterministic mixed-zoo workload
//! (reduced conv networks + MLP heads, mostly-dynamic with a static-tier
//! minority):
//!
//! 1. **Expected outputs** — every `(model, variant, tier)` the workload can
//!    emit is run through the direct, uncached [`NetworkEngine`] once;
//!    outputs *and* cycle counts become the bit-exactness reference.
//! 2. **Serial baseline** — a prefix of the workload executed one request at
//!    a time on the direct engine (same thread budget as the server, no
//!    packed-weight cache, no coalescing): the cost of serving each request
//!    individually.
//! 3. **Served soak** — an in-process server on an ephemeral port, hammered
//!    by closed-loop keep-alive clients. Every response is verified
//!    bit-identical to the reference; client-side latency, queue depth and
//!    batch size are sampled per request.
//!
//! The report lands in `BENCH_serving.json` (schema documented in
//! `docs/SERVING.md`). The process exits non-zero on any response
//! divergence, or when `--min-batch-speedup` is given and served throughput
//! does not beat the serial baseline by that factor — the CI soak gate.

use loom_core::loom_model::inference::InferenceOptions;
use loom_core::loom_sim::loom::network::NetworkEngine;
use loom_serve::batch::{BatchConfig, Tier};
use loom_serve::client::Client;
use loom_serve::json::Json;
use loom_serve::metrics::{percentile, Counters, Samples};
use loom_serve::model::{serving_geometry, ModelCatalog, ServedModel};
use loom_serve::server::{Server, ServerConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Request slots repeat over this model mix: a serving-weighted profile
/// where the cheap classifier heads take most of the traffic (the high-QPS
/// regime micro-batching exists for) and every reduced conv network still
/// appears each cycle.
const MIX: [&str; 10] = [
    "MiniMLP",
    "MLP",
    "MiniMLP",
    "MiniAlexNet",
    "MiniMLP",
    "MLP",
    "MiniNiN",
    "MiniMLP",
    "MiniVGG",
    "MiniGoogLeNet",
];

/// Distinct synthetic inputs per model.
const VARIANTS: u64 = 8;

/// One workload slot: which model, which input, which tier.
#[derive(Clone, Copy)]
struct Slot {
    model: usize,
    variant: u64,
    tier: Tier,
}

/// The deterministic request stream: slot `i` is always the same triple, so
/// every phase (and every run) sees identical traffic.
fn slot(i: usize, model_count: usize) -> Slot {
    let name = MIX[i % MIX.len()];
    let model = CATALOG_ORDER[..model_count]
        .iter()
        .position(|n| *n == name)
        .expect("mix names are in the catalog");
    Slot {
        model,
        variant: ((i / MIX.len()) as u64).wrapping_mul(7).wrapping_add(3) % VARIANTS,
        tier: if i % 5 == 4 {
            Tier::Static
        } else {
            Tier::Dynamic
        },
    }
}

/// Catalog order (must match [`ModelCatalog::reduced`]).
const CATALOG_ORDER: [&str; 6] = [
    "MiniAlexNet",
    "MiniNiN",
    "MiniVGG",
    "MiniGoogLeNet",
    "MiniMLP",
    "MLP",
];

fn usize_flag(name: &str) -> Option<usize> {
    let reject = |value: &str| -> ! {
        eprintln!("ERROR: --{name} needs a positive integer, got {value:?}");
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

fn string_flag(name: &str) -> Option<String> {
    let flag = format!("--{name}");
    let prefix = format!("--{name}=");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == flag {
            return args.next();
        } else if let Some(value) = arg.strip_prefix(&prefix) {
            return Some(value.to_string());
        }
    }
    None
}

/// The reference answer for one `(model, variant, tier)`.
struct Expected {
    outputs: Vec<i32>,
    cycles: u64,
}

fn main() {
    let requests = usize_flag("requests").unwrap_or(2000);
    let threads = loom_core::threads::resolve(usize_flag("threads"));
    let clients = usize_flag("clients").unwrap_or(8).max(1);
    let window = Duration::from_millis(usize_flag("batch-window-ms").unwrap_or(2) as u64);
    let max_batch = usize_flag("max-batch").unwrap_or(8);
    let max_queue = usize_flag("max-queue").unwrap_or(256);
    let serial_requests = usize_flag("serial-requests")
        .unwrap_or_else(|| (requests / 10).max(2 * MIX.len()))
        .min(requests.max(1));
    let floor = float_flag("min-batch-speedup");
    let require_repack_avoidance = std::env::args().any(|a| a == "--require-repack-avoidance");
    let out_path = string_flag("out").unwrap_or_else(|| "BENCH_serving.json".to_string());

    println!(
        "serve_bench: {requests} requests, {clients} clients, {threads} worker threads \
         (available {}), window {window:?}, max batch {max_batch}",
        loom_core::threads::available()
    );

    // Cold catalog build: every model's weights packed for the first time in
    // this process (the per-model prepack cost serving pays at startup).
    let build_start = Instant::now();
    let catalog = ModelCatalog::reduced();
    let cold_build_seconds = build_start.elapsed().as_secs_f64();
    assert_eq!(
        catalog.models().iter().map(|m| m.name).collect::<Vec<_>>(),
        CATALOG_ORDER,
        "the workload table assumes the reduced catalog order"
    );
    let models: Vec<Arc<ServedModel>> = catalog.models().to_vec();
    println!("catalog: cold build {:.1} ms", cold_build_seconds * 1e3);
    for m in &models {
        let pack = m.cache.pack_stats();
        let unpacked = m.cache.unpacked_fc_layers();
        println!(
            "  {:<14} prepack {:>7.2} ms, packed {:>7.1} -> {:>7.1} KB resident \
             (stream ratio {:.2}){}",
            m.name,
            m.prepack_seconds * 1e3,
            pack.dense_bytes as f64 / 1024.0,
            pack.compressed_bytes as f64 / 1024.0,
            pack.ratio(),
            if unpacked.is_empty() {
                String::new()
            } else {
                format!(", unpacked FC layers: {}", unpacked.join(", "))
            },
        );
    }

    // Phase 1: reference outputs + cycles from the direct, uncached engine.
    println!("phase 1: computing reference outputs (direct engine, uncached)");
    let dynamic_engine = NetworkEngine::new(serving_geometry()).with_threads(threads);
    let static_engine = dynamic_engine.without_dynamic_precision();
    let mut expected: HashMap<(usize, u64, Tier), Expected> = HashMap::new();
    for (mi, model) in models.iter().enumerate() {
        let inputs: Vec<_> = (0..VARIANTS).map(|v| model.synthetic_input(v)).collect();
        for (tier, engine) in [
            (Tier::Dynamic, &dynamic_engine),
            (Tier::Static, &static_engine),
        ] {
            let runs = engine
                .run_batch(
                    &model.graph,
                    &model.params,
                    &inputs,
                    InferenceOptions::default(),
                )
                .expect("catalog inputs always fit their graphs");
            for (v, run) in runs.iter().enumerate() {
                expected.insert(
                    (mi, v as u64, tier),
                    Expected {
                        outputs: run.trace.final_outputs().to_vec(),
                        cycles: run.cycles,
                    },
                );
            }
        }
    }

    // Phase 2: per-request serial baseline — same thread budget, no cache,
    // no coalescing, one request at a time.
    println!("phase 2: serial baseline over {serial_requests} requests");
    let serial_start = Instant::now();
    for i in 0..serial_requests {
        let s = slot(i, models.len());
        let model = &models[s.model];
        let engine = match s.tier {
            Tier::Dynamic => &dynamic_engine,
            Tier::Static => &static_engine,
        };
        let run = engine
            .run(
                &model.graph,
                &model.params,
                &model.synthetic_input(s.variant),
                InferenceOptions::default(),
            )
            .expect("catalog inputs always fit their graphs");
        let want = &expected[&(s.model, s.variant, s.tier)];
        assert_eq!(run.trace.final_outputs(), want.outputs.as_slice());
        assert_eq!(run.cycles, want.cycles);
    }
    let serial_wall = serial_start.elapsed();
    let serial_rps = serial_requests as f64 / serial_wall.as_secs_f64();
    println!(
        "  serial: {serial_requests} requests in {:.2}s -> {serial_rps:.1} req/s",
        serial_wall.as_secs_f64()
    );

    // Pre-render every request body the workload can send.
    let bodies: HashMap<(usize, u64, Tier), String> = expected
        .keys()
        .map(|&(mi, v, tier)| {
            let model = &models[mi];
            let input = model.synthetic_input(v);
            let values = Json::Array(
                input
                    .as_slice()
                    .iter()
                    .map(|&x| Json::from(x as i64))
                    .collect(),
            );
            let body = Json::Object(vec![
                ("model".to_string(), Json::from(model.name)),
                ("tier".to_string(), Json::from(tier.name())),
                ("inputs".to_string(), Json::Array(vec![values])),
            ])
            .to_string();
            ((mi, v, tier), body)
        })
        .collect();

    // Phase 3: the served soak. The server gets its own catalog build — warm
    // this time: every layer must come out of the process-wide weight store
    // instead of being repacked (the CI pack-once gate).
    println!("phase 3: served soak ({clients} closed-loop clients)");
    let store_before_warm = loom_core::loom_sim::loom::weight_store_stats();
    let warm_start = Instant::now();
    let warm_catalog = ModelCatalog::reduced();
    let warm_build_seconds = warm_start.elapsed().as_secs_f64();
    let store_after_warm = loom_core::loom_sim::loom::weight_store_stats();
    let repack_avoided = store_after_warm.packs() == store_before_warm.packs()
        && store_after_warm.hits() > store_before_warm.hits();
    println!(
        "  warm catalog rebuild {:.1} ms (cold was {:.1} ms); repack avoided: {repack_avoided}",
        warm_build_seconds * 1e3,
        cold_build_seconds * 1e3
    );
    let mut server = Server::start(
        warm_catalog,
        ServerConfig {
            port: 0,
            batch: BatchConfig {
                window,
                max_batch,
                max_queue,
                threads,
            },
            max_connections: clients + 8,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            ..ServerConfig::default()
        },
    )
    .expect("binding an ephemeral loopback port");
    let addr = server.addr();

    let next = Arc::new(AtomicUsize::new(0));
    let divergences = Arc::new(AtomicU64::new(0));
    let retried_429 = Arc::new(AtomicU64::new(0));
    let latency_us = Arc::new(Samples::default());
    let queue_depth = Arc::new(Samples::default());
    let batch_items = Arc::new(Samples::default());
    let expected = Arc::new(expected);
    let bodies = Arc::new(bodies);
    let model_count = models.len();

    let served_start = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|_| {
            let next = Arc::clone(&next);
            let divergences = Arc::clone(&divergences);
            let retried_429 = Arc::clone(&retried_429);
            let latency_us = Arc::clone(&latency_us);
            let queue_depth = Arc::clone(&queue_depth);
            let batch_items = Arc::clone(&batch_items);
            let expected = Arc::clone(&expected);
            let bodies = Arc::clone(&bodies);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr, Duration::from_secs(60))
                    .expect("connecting to the loopback server");
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= requests {
                        return;
                    }
                    let s = slot(i, model_count);
                    let key = (s.model, s.variant, s.tier);
                    let body = &bodies[&key];
                    let sent = Instant::now();
                    let response = loop {
                        match client.infer(body) {
                            Ok(r) if r.status == 429 => {
                                // Backpressure: retry after a beat.
                                retried_429.fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(Duration::from_millis(1));
                            }
                            Ok(r) => break r,
                            Err(e) => panic!("client request failed: {e}"),
                        }
                    };
                    latency_us.push(sent.elapsed().as_micros() as u64);
                    if response.status != 200 {
                        eprintln!("DIVERGENCE: slot {i} got HTTP {}", response.status);
                        divergences.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    let want = &expected[&key];
                    if !verify(&response.body, want, &queue_depth, &batch_items) {
                        eprintln!("DIVERGENCE: slot {i} response mismatch");
                        divergences.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("client threads never panic");
    }
    let served_wall = served_start.elapsed();
    let served_rps = requests as f64 / served_wall.as_secs_f64();
    let divergences = divergences.load(Ordering::Relaxed);
    let retried_429 = retried_429.load(Ordering::Relaxed);
    let speedup = served_rps / serial_rps;

    let lat = latency_us.sorted();
    let qd = queue_depth.sorted();
    let bs = batch_items.sorted();
    let mean_batch = if bs.is_empty() {
        0.0
    } else {
        bs.iter().sum::<u64>() as f64 / bs.len() as f64
    };
    println!(
        "  served: {requests} requests in {:.2}s -> {served_rps:.1} req/s \
         ({speedup:.2}x serial), latency p50 {}us p99 {}us, mean batch {mean_batch:.2}, \
         {divergences} divergences, {retried_429} retried 429s",
        served_wall.as_secs_f64(),
        percentile(&lat, 50.0),
        percentile(&lat, 99.0),
    );

    let counters = server.counters();
    let report = Json::Object(vec![
        ("schema".to_string(), Json::from("loom-serve-bench-v1")),
        ("requests".to_string(), Json::from(requests as i64)),
        ("clients".to_string(), Json::from(clients as i64)),
        ("threads".to_string(), Json::from(threads as i64)),
        (
            "available_parallelism".to_string(),
            Json::from(loom_core::threads::available() as i64),
        ),
        (
            "window_ms".to_string(),
            Json::from(window.as_millis() as i64),
        ),
        ("max_batch".to_string(), Json::from(max_batch as i64)),
        (
            "mix".to_string(),
            Json::Array(MIX.iter().map(|&m| Json::from(m)).collect()),
        ),
        (
            "serial".to_string(),
            Json::Object(vec![
                ("requests".to_string(), Json::from(serial_requests as i64)),
                (
                    "wall_ms".to_string(),
                    Json::Number(serial_wall.as_secs_f64() * 1e3),
                ),
                ("rps".to_string(), Json::Number(serial_rps)),
            ]),
        ),
        (
            "served".to_string(),
            Json::Object(vec![
                ("requests".to_string(), Json::from(requests as i64)),
                (
                    "wall_ms".to_string(),
                    Json::Number(served_wall.as_secs_f64() * 1e3),
                ),
                ("rps".to_string(), Json::Number(served_rps)),
                ("latency_us".to_string(), dist(&lat)),
                ("queue_depth".to_string(), dist(&qd)),
                (
                    "batch_items".to_string(),
                    Json::Object(vec![
                        ("p50".to_string(), Json::from(percentile(&bs, 50.0) as i64)),
                        ("p90".to_string(), Json::from(percentile(&bs, 90.0) as i64)),
                        (
                            "max".to_string(),
                            Json::from(bs.last().copied().unwrap_or(0) as i64),
                        ),
                        ("mean".to_string(), Json::Number(mean_batch)),
                    ]),
                ),
                ("retried_429".to_string(), Json::from(retried_429 as i64)),
            ]),
        ),
        ("speedup".to_string(), Json::Number(speedup)),
        ("divergences".to_string(), Json::from(divergences as i64)),
        (
            "prepack".to_string(),
            Json::Object(vec![
                (
                    "cold_build_ms".to_string(),
                    Json::Number(cold_build_seconds * 1e3),
                ),
                (
                    "warm_build_ms".to_string(),
                    Json::Number(warm_build_seconds * 1e3),
                ),
                ("repack_avoided".to_string(), Json::Bool(repack_avoided)),
                (
                    "models".to_string(),
                    Json::Array(
                        models
                            .iter()
                            .map(|m| {
                                let pack = m.cache.pack_stats();
                                Json::Object(vec![
                                    ("name".to_string(), Json::from(m.name)),
                                    (
                                        "prepack_ms".to_string(),
                                        Json::Number(m.prepack_seconds * 1e3),
                                    ),
                                    (
                                        "cache_bytes".to_string(),
                                        Json::from(m.cache.approx_bytes() as i64),
                                    ),
                                    (
                                        "dense_bytes".to_string(),
                                        Json::from(pack.dense_bytes as i64),
                                    ),
                                    (
                                        "compressed_bytes".to_string(),
                                        Json::from(pack.compressed_bytes as i64),
                                    ),
                                    ("compression_ratio".to_string(), Json::Number(pack.ratio())),
                                    (
                                        "unpacked_fc_layers".to_string(),
                                        Json::Array(
                                            m.cache
                                                .unpacked_fc_layers()
                                                .iter()
                                                .map(|n| Json::from(n.as_str()))
                                                .collect(),
                                        ),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "server_counters".to_string(),
            Json::Object(vec![
                (
                    "requests".to_string(),
                    Json::from(Counters::read(&counters.requests) as i64),
                ),
                (
                    "ok".to_string(),
                    Json::from(Counters::read(&counters.ok) as i64),
                ),
                (
                    "overloaded".to_string(),
                    Json::from(Counters::read(&counters.overloaded) as i64),
                ),
                (
                    "rejected".to_string(),
                    Json::from(Counters::read(&counters.rejected) as i64),
                ),
                (
                    "failed".to_string(),
                    Json::from(Counters::read(&counters.failed) as i64),
                ),
            ]),
        ),
    ]);
    std::fs::write(&out_path, report.to_string() + "\n").expect("writing the bench report");
    println!("wrote {out_path}");
    server.stop();

    if divergences > 0 {
        eprintln!("FAIL: {divergences} served responses diverged from the direct engine");
        std::process::exit(1);
    }
    if require_repack_avoidance && !repack_avoided {
        eprintln!(
            "FAIL: the warm catalog rebuild repacked weights instead of hitting \
             the process-wide store"
        );
        std::process::exit(1);
    }
    if let Some(floor) = floor {
        if speedup < floor {
            eprintln!(
                "FAIL: micro-batched throughput {speedup:.2}x serial is below the {floor:.2}x floor"
            );
            std::process::exit(1);
        }
        println!("PASS: {speedup:.2}x serial beats the {floor:.2}x floor, zero divergences");
    }
}

/// Percentile summary of a sorted sample set.
fn dist(sorted: &[u64]) -> Json {
    Json::Object(vec![
        (
            "p50".to_string(),
            Json::from(percentile(sorted, 50.0) as i64),
        ),
        (
            "p90".to_string(),
            Json::from(percentile(sorted, 90.0) as i64),
        ),
        (
            "p99".to_string(),
            Json::from(percentile(sorted, 99.0) as i64),
        ),
        (
            "max".to_string(),
            Json::from(sorted.last().copied().unwrap_or(0) as i64),
        ),
    ])
}

/// Checks one 200 response against the reference; records queue-depth and
/// batch-size samples from the response envelope.
fn verify(body: &str, want: &Expected, queue_depth: &Samples, batch_items: &Samples) -> bool {
    let Ok(json) = Json::parse(body) else {
        return false;
    };
    if let Some(d) = json.get("queue_depth").and_then(Json::as_i64) {
        queue_depth.push(d as u64);
    }
    if let Some(b) = json.get("batch_items").and_then(Json::as_i64) {
        batch_items.push(b as u64);
    }
    let outputs: Option<Vec<i64>> = json
        .get("outputs")
        .and_then(Json::as_array)
        .and_then(|tensors| tensors.first())
        .and_then(Json::as_array)
        .map(|vals| vals.iter().filter_map(Json::as_i64).collect());
    let cycles = json
        .get("cycles")
        .and_then(Json::as_array)
        .and_then(|c| c.first())
        .and_then(Json::as_i64);
    outputs.is_some_and(|o| {
        o.len() == want.outputs.len()
            && o.iter()
                .zip(&want.outputs)
                .all(|(&got, &exp)| got == exp as i64)
    }) && cycles == Some(want.cycles as i64)
}
