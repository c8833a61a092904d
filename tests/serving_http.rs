//! Loopback integration suite for the serving front end: an in-process
//! server on an ephemeral port must answer every catalog model with
//! responses bit-identical to the direct engine — outputs *and* cycle
//! counts — and concurrent clients must coalesce into one micro-batch
//! without changing a single value.

use loom_core::loom_model::inference::InferenceOptions;
use loom_core::loom_sim::loom::network::NetworkEngine;
use loom_serve::batch::BatchConfig;
use loom_serve::client::Client;
use loom_serve::json::Json;
use loom_serve::model::{serving_geometry, ModelCatalog};
use loom_serve::server::{Server, ServerConfig};
use std::time::Duration;

const CLIENT_TIMEOUT: Duration = Duration::from_secs(120);

fn start_server(batch: BatchConfig) -> Server {
    Server::start(
        ModelCatalog::reduced(),
        ServerConfig {
            port: 0,
            batch,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            ..ServerConfig::default()
        },
    )
    .expect("binding an ephemeral loopback port")
}

fn infer_body(model: &str, tier: &str, values: &[i32]) -> String {
    let values = Json::Array(values.iter().map(|&v| Json::from(v as i64)).collect());
    Json::Object(vec![
        ("model".to_string(), Json::from(model)),
        ("tier".to_string(), Json::from(tier)),
        ("inputs".to_string(), Json::Array(vec![values])),
    ])
    .to_string()
}

fn response_outputs(body: &str) -> (Vec<i64>, i64, i64) {
    let json = Json::parse(body).expect("responses are valid JSON");
    let outputs = json
        .get("outputs")
        .and_then(Json::as_array)
        .and_then(|t| t.first())
        .and_then(Json::as_array)
        .expect("responses carry outputs")
        .iter()
        .map(|v| v.as_i64().expect("outputs are integers"))
        .collect();
    let cycles = json
        .get("cycles")
        .and_then(Json::as_array)
        .and_then(|c| c.first())
        .and_then(Json::as_i64)
        .expect("responses carry cycles");
    let batch_items = json
        .get("batch_items")
        .and_then(Json::as_i64)
        .expect("responses carry batch_items");
    (outputs, cycles, batch_items)
}

/// Every registered catalog model, both tiers: the served response equals
/// the direct engine bit-for-bit (outputs and cycles).
#[test]
fn served_responses_are_bit_identical_to_the_direct_engine() {
    let server = start_server(BatchConfig {
        window: Duration::from_millis(1),
        ..BatchConfig::default()
    });
    let mut client = Client::connect(server.addr(), CLIENT_TIMEOUT).unwrap();
    let catalog = ModelCatalog::reduced();
    let dynamic = NetworkEngine::new(serving_geometry());
    let fixed = dynamic.without_dynamic_precision();
    for model in catalog.models() {
        for (tier, engine) in [("dynamic", &dynamic), ("static", &fixed)] {
            let input = model.synthetic_input(1);
            let direct = engine
                .run(
                    &model.graph,
                    &model.params,
                    &input,
                    InferenceOptions::default(),
                )
                .unwrap();
            let response = client
                .infer(&infer_body(model.name, tier, input.as_slice()))
                .unwrap();
            assert_eq!(
                response.status, 200,
                "{}/{tier}: {}",
                model.name, response.body
            );
            let (outputs, cycles, _) = response_outputs(&response.body);
            let want: Vec<i64> = direct
                .trace
                .final_outputs()
                .iter()
                .map(|&v| v as i64)
                .collect();
            assert_eq!(outputs, want, "{}/{tier} outputs diverged", model.name);
            assert_eq!(
                cycles, direct.cycles as i64,
                "{}/{tier} cycles diverged",
                model.name
            );
        }
    }
}

/// Multi-tensor requests come back in request order, each item bit-identical
/// to the equivalent direct batch.
#[test]
fn multi_tensor_requests_preserve_order() {
    let server = start_server(BatchConfig {
        window: Duration::from_millis(1),
        max_batch: 4,
        ..BatchConfig::default()
    });
    let mut client = Client::connect(server.addr(), CLIENT_TIMEOUT).unwrap();
    let catalog = ModelCatalog::reduced();
    let model = catalog.find("MiniMLP").unwrap();
    let inputs: Vec<_> = (0..3).map(|v| model.synthetic_input(v)).collect();
    let tensors = Json::Array(
        inputs
            .iter()
            .map(|t| Json::Array(t.as_slice().iter().map(|&v| Json::from(v as i64)).collect()))
            .collect(),
    );
    let body = Json::Object(vec![
        ("model".to_string(), Json::from("MiniMLP")),
        ("inputs".to_string(), tensors),
    ])
    .to_string();
    let response = client.infer(&body).unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let direct = NetworkEngine::new(serving_geometry())
        .run_batch(
            &model.graph,
            &model.params,
            &inputs,
            InferenceOptions::default(),
        )
        .unwrap();
    let json = Json::parse(&response.body).unwrap();
    let tensors = json.get("outputs").and_then(Json::as_array).unwrap();
    assert_eq!(tensors.len(), 3);
    for (item, run) in tensors.iter().zip(&direct) {
        let got: Vec<i64> = item
            .as_array()
            .unwrap()
            .iter()
            .map(|v| v.as_i64().unwrap())
            .collect();
        let want: Vec<i64> = run
            .trace
            .final_outputs()
            .iter()
            .map(|&v| v as i64)
            .collect();
        assert_eq!(got, want);
    }
}

/// Concurrent clients hitting the same model within one batching window
/// coalesce into a single lock-step dispatch — observable via the response's
/// `batch_items` — and every coalesced response still matches the direct
/// engine exactly.
#[test]
fn concurrent_clients_coalesce_into_one_micro_batch() {
    let fan = 4;
    let server = start_server(BatchConfig {
        // A generous window so all clients land in the head job's batch; the
        // batch dispatches early the moment it fills, so the window's length
        // costs nothing when coalescing works.
        window: Duration::from_millis(2000),
        max_batch: fan,
        max_queue: 64,
        threads: 1,
    });
    let addr = server.addr();
    let catalog = ModelCatalog::reduced();
    let model = catalog.find("MiniMLP").unwrap();
    let handles: Vec<_> = (0..fan)
        .map(|v| {
            let input = model.synthetic_input(v as u64);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr, CLIENT_TIMEOUT).unwrap();
                let response = client
                    .infer(&infer_body("MiniMLP", "dynamic", input.as_slice()))
                    .unwrap();
                (v, response)
            })
        })
        .collect();
    let engine = NetworkEngine::new(serving_geometry());
    for handle in handles {
        let (v, response) = handle.join().unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
        let (outputs, cycles, batch_items) = response_outputs(&response.body);
        assert_eq!(
            batch_items, fan as i64,
            "all {fan} requests must ride one dispatch"
        );
        let direct = engine
            .run(
                &model.graph,
                &model.params,
                &model.synthetic_input(v as u64),
                InferenceOptions::default(),
            )
            .unwrap();
        let want: Vec<i64> = direct
            .trace
            .final_outputs()
            .iter()
            .map(|&x| x as i64)
            .collect();
        assert_eq!(outputs, want, "client {v} diverged inside the micro-batch");
        assert_eq!(cycles, direct.cycles as i64);
    }
}

/// The discovery endpoints: health, the model listing (every catalog entry
/// with its input length), and stats counters that move.
#[test]
fn health_models_and_stats_endpoints_respond() {
    let server = start_server(BatchConfig {
        window: Duration::from_millis(1),
        ..BatchConfig::default()
    });
    let mut client = Client::connect(server.addr(), CLIENT_TIMEOUT).unwrap();
    let health = client.request("GET", "/healthz", "").unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(health.body, r#"{"status":"ok"}"#);

    let models = client.request("GET", "/v1/models", "").unwrap();
    assert_eq!(models.status, 200);
    let json = Json::parse(&models.body).unwrap();
    let listed = json.get("models").and_then(Json::as_array).unwrap();
    let catalog = ModelCatalog::reduced();
    assert_eq!(listed.len(), catalog.models().len());
    for (entry, model) in listed.iter().zip(catalog.models()) {
        assert_eq!(entry.get("name").and_then(Json::as_str), Some(model.name));
        assert_eq!(
            entry.get("input_len").and_then(Json::as_i64),
            Some(model.input_len as i64)
        );
        assert!(entry.get("packed_layers").and_then(Json::as_i64).unwrap() > 0);
    }

    let stats = client.request("GET", "/v1/stats", "").unwrap();
    assert_eq!(stats.status, 200);
    let parsed = Json::parse(&stats.body).unwrap();
    assert!(parsed.get("requests").and_then(Json::as_i64).unwrap() >= 2);
    assert_eq!(parsed.get("overloaded").and_then(Json::as_i64), Some(0));
    assert_eq!(parsed.get("failed").and_then(Json::as_i64), Some(0));
}

/// The `/metrics` endpoint reports the process-wide weight store and every
/// catalog model's prepack cost and compression footprint — the observable
/// contract the serving bench and its CI gate read.
#[test]
fn metrics_endpoint_reports_weight_store_and_per_model_compression() {
    fn as_f64(value: Option<&Json>) -> f64 {
        match value {
            Some(Json::Number(n)) => *n,
            other => panic!("expected a number, got {other:?}"),
        }
    }
    let server = start_server(BatchConfig {
        window: Duration::from_millis(1),
        ..BatchConfig::default()
    });
    let mut client = Client::connect(server.addr(), CLIENT_TIMEOUT).unwrap();
    let metrics = client.request("GET", "/metrics", "").unwrap();
    assert_eq!(metrics.status, 200, "{}", metrics.body);
    let json = Json::parse(&metrics.body).unwrap();

    let store = json.get("weight_store").expect("metrics carry the store");
    // The catalog the server prepacked guarantees a populated store.
    assert!(store.get("packs").and_then(Json::as_i64).unwrap() > 0);
    assert!(store.get("entries").and_then(Json::as_i64).unwrap() > 0);
    assert!(store.get("resident_bytes").and_then(Json::as_i64).unwrap() > 0);
    assert!(store.get("hits").and_then(Json::as_i64).unwrap() >= 0);
    assert!(as_f64(store.get("pack_seconds")) >= 0.0);
    let store_ratio = as_f64(store.get("compression_ratio"));
    assert!(
        store_ratio > 0.0 && store_ratio <= 1.0,
        "store stream ratio {store_ratio} out of range"
    );

    let models = json.get("models").and_then(Json::as_array).unwrap();
    let catalog = ModelCatalog::reduced();
    assert_eq!(models.len(), catalog.models().len());
    for (entry, model) in models.iter().zip(catalog.models()) {
        assert_eq!(entry.get("name").and_then(Json::as_str), Some(model.name));
        assert!(as_f64(entry.get("prepack_seconds")) >= 0.0);
        assert_eq!(
            entry.get("packed_layers").and_then(Json::as_i64),
            Some(model.cache.packed_layers() as i64)
        );
        // Reduced catalog models all fit under the FC prepack cap.
        assert_eq!(
            entry
                .get("unpacked_fc_layers")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(model.cache.unpacked_fc_layers().len())
        );
        let dense = entry.get("dense_bytes").and_then(Json::as_i64).unwrap();
        let compressed = entry
            .get("compressed_bytes")
            .and_then(Json::as_i64)
            .unwrap();
        assert!(dense > 0, "{} dense bytes", model.name);
        assert!(
            compressed > 0 && compressed <= dense,
            "{}: compressed {compressed} vs dense {dense}",
            model.name
        );
        let ratio = as_f64(entry.get("compression_ratio"));
        assert!(
            ratio > 0.0 && ratio <= 1.0,
            "{} stream ratio {ratio} out of range",
            model.name
        );
    }
}

/// The static tier returns the same output values as dynamic (the
/// conformance contract) while costing at least as many cycles — dynamic
/// precision detection only ever trims work.
#[test]
fn static_tier_matches_values_and_costs_no_fewer_cycles() {
    let server = start_server(BatchConfig {
        window: Duration::from_millis(1),
        ..BatchConfig::default()
    });
    let mut client = Client::connect(server.addr(), CLIENT_TIMEOUT).unwrap();
    let catalog = ModelCatalog::reduced();
    let model = catalog.find("MiniAlexNet").unwrap();
    let input = model.synthetic_input(5);
    let body_dyn = infer_body(model.name, "dynamic", input.as_slice());
    let body_static = infer_body(model.name, "static", input.as_slice());
    let dynamic = client.infer(&body_dyn).unwrap();
    let fixed = client.infer(&body_static).unwrap();
    assert_eq!(dynamic.status, 200);
    assert_eq!(fixed.status, 200);
    let (out_dyn, cycles_dyn, _) = response_outputs(&dynamic.body);
    let (out_static, cycles_static, _) = response_outputs(&fixed.body);
    assert_eq!(out_dyn, out_static, "tiers must agree on values");
    assert!(
        cycles_static >= cycles_dyn,
        "static ({cycles_static}) must not beat dynamic ({cycles_dyn})"
    );
}
