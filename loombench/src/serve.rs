//! The `serve-mix` workload: an in-process `loom-serve` over the reduced
//! catalog with the serving binary's default batching, driven over loopback
//! HTTP by closed-loop keep-alive clients that each follow a seeded,
//! serving-weighted request schedule.

use crate::layers::{self, Subject};
use crate::refs::{Expect, Refs};
use crate::report::{metric, peak_rss_mb, Metric, NETS, SERVED};
use crate::stats::{median, p99, quantile, Tally, TAIL_SAMPLES};
use crate::trace::trace_digest;
use crate::Outcome;
use loom_core::loom_model::inference::InferenceOptions;
use loom_core::loom_sim::loom::NetworkEngine;
use loom_core::loom_sim::pool;
use loom_serve::batch::{BatchConfig, Tier};
use loom_serve::client::Client;
use loom_serve::json::Json;
use loom_serve::model::{serving_geometry, ModelCatalog, ServedModel};
use loom_serve::server::{Server, ServerConfig};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Request share of each served model, in percent, in catalog order
/// (`MiniAlexNet`, `MiniNiN`, `MiniVGG`, `MiniGoogLeNet`, `MiniMLP`, `MLP`).
const SHARE: [u64; 6] = [10, 10, 10, 10, 40, 20];

/// The catalog position of the reduced variant each zoo key names
/// (`report::NETS` order).
const NET_MODELS: [usize; 4] = [1, 0, 3, 2];

/// One request in `STATIC_EVERY` runs on the static precision tier.
const STATIC_EVERY: u64 = 5;

/// Distinct inputs per model.
const VARIANTS: u64 = 8;

/// Closed-loop clients; a machine with fewer logical CPUs is refused.
pub const CLIENTS: usize = 2;

/// The input variant ids of model `model` under `seed`.
fn variant_ids(seed: u64, model: usize) -> Vec<u64> {
    let mut rng =
        StdRng::seed_from_u64(seed ^ (model as u64 + 1).wrapping_mul(0xd1b5_4a32_d192_ed03));
    (0..VARIANTS).map(|_| rng.next_u64()).collect()
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    model: usize,
    variant: usize,
    tier: Tier,
}

fn key(model: usize, variant: usize, tier: Tier) -> String {
    format!("{}/{variant}/{}", SERVED[model], tier.name())
}

/// The `client`-th client's request stream under `seed`.
fn schedule(seed: u64, client: usize) -> impl FnMut() -> Slot {
    let mut rng =
        StdRng::seed_from_u64(seed ^ (client as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f));
    move || {
        let mut pick = rng.next_u64() % 100;
        let model = SHARE
            .iter()
            .position(|&share| {
                let hit = pick < share;
                pick = pick.saturating_sub(share);
                hit
            })
            .expect("shares sum to 100");
        Slot {
            model,
            variant: (rng.next_u64() % VARIANTS) as usize,
            tier: if rng.next_u64().is_multiple_of(STATIC_EVERY) {
                Tier::Static
            } else {
                Tier::Dynamic
            },
        }
    }
}

fn engine_for(tier: Tier, threads: usize) -> NetworkEngine {
    let engine = NetworkEngine::new(serving_geometry()).with_threads(threads);
    match tier {
        Tier::Dynamic => engine,
        Tier::Static => engine.without_dynamic_precision(),
    }
}

/// The regeneration step: every `(model, variant, tier)` the schedule can
/// send, through the direct, uncached engine on one thread, plus the golden
/// executor's trace.
pub fn regenerate(seed: u64, threads: usize) -> Refs {
    let catalog = ModelCatalog::reduced();
    let models = catalog.models();
    let per_model = pool::ordered_map(threads, models.len(), |mi| {
        let model = &models[mi];
        let inputs: Vec<_> = variant_ids(seed, mi)
            .into_iter()
            .map(|id| model.synthetic_input(id))
            .collect();
        let options = InferenceOptions::default();
        let golden = model
            .graph
            .run_batch(&model.params, &inputs, options)
            .expect("catalog inputs fit their graphs");
        let mut refs = Vec::new();
        for tier in [Tier::Dynamic, Tier::Static] {
            let runs = engine_for(tier, 1)
                .run_batch(&model.graph, &model.params, &inputs, options)
                .expect("catalog inputs fit their graphs");
            for (v, (run, golden)) in runs.iter().zip(&golden).enumerate() {
                if run.trace != *golden {
                    eprintln!(
                        "regen: {} diverges from the golden executor",
                        key(mi, v, tier)
                    );
                }
                refs.push((
                    key(mi, v, tier),
                    Expect {
                        digest: trace_digest(golden).hex(),
                        cycles: run.cycles,
                        reduced_groups: run.reduced_groups,
                        outputs: golden.final_outputs().to_vec(),
                    },
                ));
            }
        }
        refs
    });
    per_model.into_iter().flatten().collect()
}

/// A request body for one input.
fn body(model: &ServedModel, input: &[i32], tier: Tier) -> String {
    let values: Vec<String> = input.iter().map(i32::to_string).collect();
    format!(
        "{{\"model\":\"{}\",\"tier\":\"{}\",\"inputs\":[[{}]]}}",
        model.name,
        tier.name(),
        values.join(",")
    )
}

/// What one request came back with.
struct Sample {
    slot: Slot,
    /// Client-observed latency, microseconds.
    latency_us: f64,
    /// Status and body, or `None` after a transport error.
    response: Option<(u16, String)>,
    /// 429 answers retried before the final one.
    retried: u64,
}

/// The envelope fields of a verified 200 response.
struct Envelope {
    server_us: f64,
    batch_items: f64,
    queue_depth: f64,
}

/// Checks a response against its reference; the envelope when it matches.
fn verify(body: &str, expect: &Expect) -> Option<Envelope> {
    let json = Json::parse(body).ok()?;
    let first = |field: &str| -> Option<&Json> { json.get(field)?.as_array()?.first() };
    let outputs: Vec<i64> = first("outputs")?
        .as_array()?
        .iter()
        .map(Json::as_i64)
        .collect::<Option<_>>()?;
    let cycles = first("cycles")?.as_i64()?;
    let same = outputs.len() == expect.outputs.len()
        && outputs
            .iter()
            .zip(&expect.outputs)
            .all(|(&a, &b)| a == i64::from(b))
        && cycles == expect.cycles as i64;
    if !same {
        return None;
    }
    let field = |name: &str| json.get(name).and_then(Json::as_i64).map(|v| v as f64);
    Some(Envelope {
        server_us: field("latency_us")?,
        batch_items: field("batch_items")?,
        queue_depth: field("queue_depth")?,
    })
}

/// Sends one request, retrying 429 answers.
fn send(client: &mut Client, body: &str) -> std::io::Result<(u16, String, u64)> {
    let mut retried = 0;
    loop {
        let response = client.infer(body)?;
        if response.status == 429 && retried < 1000 {
            retried += 1;
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        return Ok((response.status, response.body, retried));
    }
}

/// Closed-loop load for `seconds`: returns every request's outcome and the
/// wall time of the phase.
fn load(
    addr: std::net::SocketAddr,
    clients: usize,
    seed: u64,
    seconds: f64,
    bodies: &[Vec<[String; 2]>],
) -> (Vec<Sample>, f64) {
    let started = Instant::now();
    let per_client: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut next = schedule(seed, c);
                    let mut samples = Vec::new();
                    let mut client = None;
                    while started.elapsed().as_secs_f64() < seconds {
                        let slot = next();
                        let body = &bodies[slot.model][slot.variant]
                            [usize::from(slot.tier == Tier::Static)];
                        let sent = Instant::now();
                        if client.is_none() {
                            client = Client::connect(addr, Duration::from_secs(10)).ok();
                        }
                        let outcome = match client.as_mut() {
                            Some(c) => send(c, body),
                            None => Err(std::io::Error::other("connect failed")),
                        };
                        let latency_us = sent.elapsed().as_secs_f64() * 1e6;
                        let (response, retried) = match outcome {
                            Ok((status, text, retried)) => (Some((status, text)), retried),
                            Err(_) => {
                                client = None;
                                (None, 0)
                            }
                        };
                        samples.push(Sample {
                            slot,
                            latency_us,
                            response,
                            retried,
                        });
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    (per_client.into_iter().flatten().collect(), wall)
}

/// The highest percentile, up to the 99th, that keeps ten samples beyond it.
fn tail(values: &[f64]) -> f64 {
    p99(values).unwrap_or_else(|| {
        quantile(
            values,
            (1.0 - TAIL_SAMPLES as f64 / values.len() as f64).max(0.0),
        )
    })
}

/// Median wall time of `routine` in microseconds, over calls filling about
/// 100 ms (at least five).
fn median_us<O>(mut routine: impl FnMut() -> O) -> f64 {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < 5
        || (started.elapsed() < Duration::from_millis(100) && times.len() < 10_000)
    {
        let call = Instant::now();
        black_box(routine());
        times.push(call.elapsed().as_secs_f64() * 1e6);
    }
    median(&times)
}

/// The program's preparation, timed: catalog build (weights synthesized and
/// packed), server start, and the first health check answered. Returns the
/// server, the seconds taken and the catalog build's milliseconds.
fn start(threads: usize) -> (Server, f64, f64) {
    let config = ServerConfig {
        batch: BatchConfig {
            threads,
            ..BatchConfig::default()
        },
        ..ServerConfig::default()
    };
    let started = Instant::now();
    let catalog = ModelCatalog::reduced();
    let build_ms = started.elapsed().as_secs_f64() * 1e3;
    let server = Server::start(catalog, config).expect("binding a loopback port");
    let health = Client::connect(server.addr(), Duration::from_secs(10))
        .and_then(|mut c| c.request("GET", "/healthz", ""))
        .expect("the server answers its health check");
    assert_eq!(health.status, 200, "health check");
    (server, started.elapsed().as_secs_f64(), build_ms)
}

/// Seconds of one set-up in this process, which must not have packed the
/// catalog before.
pub fn setup_once(threads: usize) -> f64 {
    let (mut server, seconds, _) = start(threads);
    server.stop();
    seconds
}

/// Runs the workload: set-up, a verified warm-up, then the timed load
/// phase, followed in a traced run by the serving and per-layer probes.
pub fn run(seed: u64, seconds: f64, trace: bool, threads: usize, refs: &Refs) -> Outcome {
    let (mut server, setup_s, build_ms) = start(threads);
    let addr = server.addr();

    // The client side: the same catalog, for inputs and the engine probes.
    let catalog = ModelCatalog::reduced();
    let models: Vec<Arc<ServedModel>> = catalog.models().to_vec();
    let inputs: Vec<Vec<_>> = (0..models.len())
        .map(|mi| {
            variant_ids(seed, mi)
                .into_iter()
                .map(|id| models[mi].synthetic_input(id))
                .collect()
        })
        .collect();
    let bodies: Vec<Vec<[String; 2]>> = models
        .iter()
        .zip(&inputs)
        .map(|(m, xs)| {
            xs.iter()
                .map(|x| {
                    [
                        body(m, x.as_slice(), Tier::Dynamic),
                        body(m, x.as_slice(), Tier::Static),
                    ]
                })
                .collect()
        })
        .collect();

    // Warm-up: one verified request per model and tier.
    let mut tally = Tally::default();
    let mut warm =
        Client::connect(addr, Duration::from_secs(10)).expect("connecting to the server");
    for (mi, per_model) in bodies.iter().enumerate() {
        for (ti, tier) in [Tier::Dynamic, Tier::Static].into_iter().enumerate() {
            tally.attempted += 1;
            match send(&mut warm, &per_model[0][ti]) {
                Ok((200, text, _)) if verify(&text, &refs[&key(mi, 0, tier)]).is_some() => {}
                Ok((200, _, _)) => tally.mismatched += 1,
                Ok(_) => tally.non_200 += 1,
                Err(_) => tally.transport += 1,
            }
        }
    }
    drop(warm);

    let phase = if trace { seconds / 2.0 } else { seconds };
    let (samples, wall) = load(addr, CLIENTS, seed, phase, &bodies);
    server.stop();

    let mut client_us = Vec::with_capacity(samples.len());
    let mut per_model_us: Vec<Vec<f64>> = vec![Vec::new(); models.len()];
    let (mut server_us, mut transport_us, mut items, mut depth) = (vec![], vec![], vec![], vec![]);
    let mut retried = 0;
    let mut sample_response: Vec<Option<String>> = vec![None; models.len()];
    for s in &samples {
        tally.attempted += 1;
        retried += s.retried;
        client_us.push(s.latency_us);
        per_model_us[s.slot.model].push(s.latency_us);
        match &s.response {
            None => tally.transport += 1,
            Some((200, text)) => {
                match verify(text, &refs[&key(s.slot.model, s.slot.variant, s.slot.tier)]) {
                    Some(env) => {
                        server_us.push(env.server_us);
                        transport_us.push(s.latency_us - env.server_us);
                        items.push(env.batch_items);
                        depth.push(env.queue_depth);
                        sample_response[s.slot.model].get_or_insert_with(|| text.clone());
                    }
                    None => tally.mismatched += 1,
                }
            }
            Some(_) => tally.non_200 += 1,
        }
    }
    let answered = (samples.len() as u64 - tally.transport - tally.non_200) as f64;
    let mut notes = vec![("latency_samples", Json::Number(client_us.len() as f64))];

    if !trace {
        let mut metrics: Vec<Metric> = vec![
            metric("images_per_s", answered / wall, "1/s"),
            metric("requests_per_s", samples.len() as f64 / wall, "1/s"),
            metric("latency_p50_ms", median(&client_us) / 1e3, "ms"),
            metric("latency_p99_ms", tail(&client_us) / 1e3, "ms"),
        ];
        metrics.extend(
            NETS.iter()
                .zip(NET_MODELS)
                .map(|(n, mi)| metric(format!("{n}_ms"), median(&per_model_us[mi]) / 1e3, "ms")),
        );
        metrics.push(metric("peak_rss_mb", peak_rss_mb(), "MB"));
        notes.push((
            "latency_p99_supported",
            Json::Bool(p99(&client_us).is_some()),
        ));
        return Outcome {
            tally,
            metrics,
            setup_s,
            rows: None,
            check_failures: Vec::new(),
            notes,
        };
    }

    // Serving probes: direct cached engine calls at batch 1, and the JSON
    // codec on the workload's own request and response bodies.
    let share = |mi: usize| SHARE[mi] as f64 / 100.0;
    let engine = engine_for(Tier::Dynamic, threads);
    let mut metrics = Vec::new();
    let mut mix_engine_us = 0.0;
    let (mut parse_us, mut encode_us) = (0.0, 0.0);
    for (mi, m) in models.iter().enumerate() {
        let x = std::slice::from_ref(&inputs[mi][0]);
        let us = median_us(|| {
            engine
                .run_batch_cached(
                    &m.graph,
                    &m.params,
                    x,
                    InferenceOptions::default(),
                    Some(&m.cache),
                )
                .expect("catalog inputs fit their graphs")
        });
        mix_engine_us += share(mi) * us;
        metrics.push(metric(format!("serve.engine_us.{}", SERVED[mi]), us, "us"));
        let request = &bodies[mi][0][0];
        parse_us += share(mi) * median_us(|| Json::parse(request));
        if let Some(response) = sample_response[mi]
            .as_deref()
            .and_then(|t| Json::parse(t).ok())
        {
            encode_us += share(mi) * median_us(|| response.to_string());
        }
    }
    let server_p50 = median(&server_us);
    metrics.extend([
        metric("serve.server_p50_us", server_p50, "us"),
        metric("serve.server_p99_us", p99(&server_us).unwrap_or(0.0), "us"),
        metric("serve.transport_p50_us", median(&transport_us), "us"),
        metric("serve.wait_p50_us", server_p50 - mix_engine_us, "us"),
        metric(
            "batch.items_mean",
            items.iter().sum::<f64>() / items.len().max(1) as f64,
            "items",
        ),
        metric("batch.queue_depth_p50", median(&depth), "items"),
        metric("json.parse_us.request", parse_us, "us"),
        metric("json.encode_us.response", encode_us, "us"),
        metric("http.retried_429", retried as f64, "count"),
        metric("http.non_200", tally.non_200 as f64, "count"),
        metric("catalog.build_ms", build_ms, "ms"),
    ]);

    // The per-layer trace over the reduced conv networks, one input each.
    let expects: Vec<&Expect> = NET_MODELS
        .iter()
        .map(|&mi| &refs[&key(mi, 0, Tier::Dynamic)])
        .collect();
    let subjects: Vec<Subject<'_>> = NETS
        .iter()
        .zip(NET_MODELS)
        .zip(&expects)
        .map(|((n, mi), expect)| Subject {
            key: n,
            graph: &models[mi].graph,
            params: &models[mi].params,
            input: &inputs[mi][0],
            options: InferenceOptions::default(),
            expect,
        })
        .collect();
    let report = layers::measure(
        &subjects,
        engine,
        Duration::from_secs_f64(phase),
        &mut tally,
    );
    metrics.extend(report.metrics);
    metrics.push(metric("error_ratio", tally.error_ratio(), "ratio"));
    Outcome {
        tally,
        metrics,
        setup_s,
        rows: Some(report.rows),
        check_failures: report.coverage_failures,
        notes,
    }
}
