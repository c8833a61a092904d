//! The HTTP front end: a blocking acceptor plus one thread per connection,
//! with a hard connection cap (503 at accept), per-connection read/write
//! timeouts (slow-loris connections are dropped without a response), strict
//! request validation (400/404/413), and queue-full admission control
//! surfaced as 429. Inference itself happens on the micro-batcher's
//! dispatcher thread — connection threads only parse, validate, enqueue and
//! wait, so a slow client never holds the worker pool hostage.

use crate::batch::{BatchConfig, MicroBatcher, Overloaded, Tier};
use crate::http::{read_request, write_response, ReadError, Request};
use crate::json::Json;
use crate::metrics::Counters;
use crate::model::{ModelCatalog, ServedModel};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything the server needs to start.
pub struct ServerConfig {
    /// Port to bind on 127.0.0.1 (0 picks an ephemeral port — the loopback
    /// suites use this).
    pub port: u16,
    /// Batching knobs (window, max batch, queue cap, worker threads).
    pub batch: BatchConfig,
    /// Concurrent-connection cap; further connections get an immediate 503.
    pub max_connections: usize,
    /// Per-connection socket read timeout (slow-loris cutoff).
    pub read_timeout: Duration,
    /// Per-connection socket write timeout.
    pub write_timeout: Duration,
    /// Request-body cap in bytes (HTTP 413 beyond it).
    pub max_body_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            port: 0,
            batch: BatchConfig::default(),
            max_connections: 64,
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            max_body_bytes: 8 * 1024 * 1024,
        }
    }
}

struct Inner {
    catalog: ModelCatalog,
    batcher: MicroBatcher,
    counters: Counters,
    shutdown: AtomicBool,
    active_connections: AtomicUsize,
    max_connections: usize,
    read_timeout: Duration,
    write_timeout: Duration,
    max_body_bytes: usize,
}

/// A running server. Dropping it (or calling [`Server::stop`]) shuts the
/// acceptor down and drains the batcher.
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `127.0.0.1:port` and starts accepting.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (port in use, permissions).
    pub fn start(catalog: ModelCatalog, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", config.port))?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            catalog,
            batcher: MicroBatcher::start(config.batch),
            counters: Counters::default(),
            shutdown: AtomicBool::new(false),
            active_connections: AtomicUsize::new(0),
            max_connections: config.max_connections,
            read_timeout: config.read_timeout,
            write_timeout: config.write_timeout,
            max_body_bytes: config.max_body_bytes,
        });
        let acceptor = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("loom-serve-acceptor".to_string())
                .spawn(move || accept_loop(&listener, &inner))
                .expect("spawning the acceptor thread")
        };
        Ok(Server {
            inner,
            addr,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serving counters, for assertions and stats.
    pub fn counters(&self) -> &Counters {
        &self.inner.counters
    }

    /// Stops accepting, waits for the acceptor to exit, and drains the
    /// batcher. In-flight connection threads finish their current request.
    pub fn stop(&mut self) {
        if self.acceptor.is_none() {
            return;
        }
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // Unblock the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }

    /// Blocks until the acceptor exits (the foreground-binary mode).
    pub fn join(mut self) {
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, inner: &Arc<Inner>) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            continue;
        };
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if inner.active_connections.load(Ordering::SeqCst) >= inner.max_connections {
            Counters::bump(&inner.counters.refused_connections);
            let mut stream = stream;
            let _ = stream.set_write_timeout(Some(inner.write_timeout));
            let _ = write_response(
                &mut stream,
                503,
                "Service Unavailable",
                "application/json",
                error_body("server is at its connection limit").as_bytes(),
                false,
            );
            continue;
        }
        inner.active_connections.fetch_add(1, Ordering::SeqCst);
        let conn_inner = Arc::clone(inner);
        let spawned = std::thread::Builder::new()
            .name("loom-serve-conn".to_string())
            .spawn(move || {
                handle_connection(stream, &conn_inner);
                conn_inner.active_connections.fetch_sub(1, Ordering::SeqCst);
            });
        if spawned.is_err() {
            inner.active_connections.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

fn handle_connection(stream: TcpStream, inner: &Inner) {
    if stream.set_read_timeout(Some(inner.read_timeout)).is_err()
        || stream.set_write_timeout(Some(inner.write_timeout)).is_err()
        || stream.set_nodelay(true).is_err()
    {
        return;
    }
    let mut reader = match stream.try_clone() {
        Ok(clone) => io::BufReader::new(clone),
        Err(_) => return,
    };
    let mut stream = stream;
    loop {
        let request = match read_request(&mut reader, inner.max_body_bytes) {
            Ok(request) => request,
            Err(ReadError::Closed) => return,
            Err(ReadError::TimedOut) => {
                // Slow-loris posture: no parsable request arrived in time.
                // Drop the connection without spending a response on it.
                Counters::bump(&inner.counters.timeouts);
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
            Err(ReadError::BodyTooLarge { limit }) => {
                inner.counters.record(413);
                let body = error_body(&format!("request body exceeds {limit} bytes"));
                let _ = write_response(
                    &mut stream,
                    413,
                    "Payload Too Large",
                    "application/json",
                    body.as_bytes(),
                    false,
                );
                return;
            }
            Err(ReadError::HeadersTooLarge) | Err(ReadError::Malformed(_)) => {
                inner.counters.record(400);
                let _ = write_response(
                    &mut stream,
                    400,
                    "Bad Request",
                    "application/json",
                    error_body("malformed HTTP request").as_bytes(),
                    false,
                );
                return;
            }
            Err(ReadError::Io(_)) => return,
        };
        Counters::bump(&inner.counters.requests);
        let keep_alive = request.keep_alive();
        let (status, reason, body) = route(&request, inner);
        inner.counters.record(status);
        if write_response(
            &mut stream,
            status,
            reason,
            "application/json",
            body.as_bytes(),
            keep_alive,
        )
        .is_err()
        {
            // Mid-response disconnects (or write-timeout expiry) just end
            // this connection; the server carries on.
            return;
        }
        if !keep_alive {
            return;
        }
    }
}

fn route(request: &Request, inner: &Inner) -> (u16, &'static str, String) {
    match (request.method.as_str(), request.target.as_str()) {
        ("GET", "/healthz") => (200, "OK", r#"{"status":"ok"}"#.to_string()),
        ("GET", "/v1/models") => (200, "OK", models_body(inner)),
        ("GET", "/v1/stats") => (200, "OK", stats_body(inner)),
        ("GET", "/metrics") => (200, "OK", metrics_body(inner)),
        ("POST", "/v1/infer") => infer(request, inner),
        ("POST", _) | ("GET", _) => (
            404,
            "Not Found",
            error_body(&format!("no such endpoint: {}", request.target)),
        ),
        _ => (
            405,
            "Method Not Allowed",
            error_body(&format!("unsupported method: {}", request.method)),
        ),
    }
}

fn infer(request: &Request, inner: &Inner) -> (u16, &'static str, String) {
    let started = Instant::now();
    let parsed = match parse_infer(request, inner) {
        Ok(parsed) => parsed,
        Err((status, reason, message)) => return (status, reason, error_body(&message)),
    };
    let (model, tier, inputs) = parsed;
    let items = inputs.len();
    let receiver = match inner.batcher.submit(Arc::clone(&model), tier, inputs) {
        Ok(receiver) => receiver,
        Err(Overloaded) => {
            return (
                429,
                "Too Many Requests",
                error_body("inference queue is full, retry later"),
            )
        }
    };
    // The dispatcher always answers exactly once, even on shutdown drain.
    let reply = match receiver.recv() {
        Ok(Ok(reply)) => reply,
        Ok(Err(message)) => return (500, "Internal Server Error", error_body(&message)),
        Err(_) => {
            return (
                500,
                "Internal Server Error",
                error_body("batcher exited before answering"),
            )
        }
    };
    debug_assert_eq!(reply.outputs.len(), items);
    let outputs = Json::Array(
        reply
            .outputs
            .iter()
            .map(|o| Json::Array(o.iter().map(|&v| Json::from(v as i64)).collect()))
            .collect(),
    );
    let cycles = Json::Array(reply.cycles.iter().map(|&c| Json::from(c as i64)).collect());
    let body = Json::Object(vec![
        ("model".to_string(), Json::from(model.name)),
        ("tier".to_string(), Json::from(tier.name())),
        ("outputs".to_string(), outputs),
        ("cycles".to_string(), cycles),
        (
            "batch_items".to_string(),
            Json::from(reply.batch_items as i64),
        ),
        (
            "queue_depth".to_string(),
            Json::from(reply.queue_depth as i64),
        ),
        (
            "latency_us".to_string(),
            Json::from(started.elapsed().as_micros() as i64),
        ),
    ]);
    (200, "OK", body.to_string())
}

type InferParts = (
    Arc<ServedModel>,
    Tier,
    Vec<loom_core::loom_model::tensor::Tensor3>,
);

fn parse_infer(
    request: &Request,
    inner: &Inner,
) -> Result<InferParts, (u16, &'static str, String)> {
    let bad = |m: String| (400, "Bad Request", m);
    let text =
        std::str::from_utf8(&request.body).map_err(|_| bad("body is not UTF-8".to_string()))?;
    let json = Json::parse(text).map_err(|e| bad(e.to_string()))?;
    let name = json
        .get("model")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing string field 'model'".to_string()))?;
    let model = inner.catalog.find(name).ok_or((
        404,
        "Not Found",
        format!("unknown model '{name}' (see GET /v1/models)"),
    ))?;
    let tier = match json.get("tier") {
        None => Tier::Dynamic,
        Some(value) => value
            .as_str()
            .and_then(Tier::parse)
            .ok_or_else(|| bad("field 'tier' must be \"dynamic\" or \"static\"".to_string()))?,
    };
    let raw_inputs = json
        .get("inputs")
        .and_then(Json::as_array)
        .ok_or_else(|| bad("missing array field 'inputs'".to_string()))?;
    if raw_inputs.is_empty() {
        return Err(bad("'inputs' must hold at least one tensor".to_string()));
    }
    let max_batch = inner.batcher.config().max_batch;
    if raw_inputs.len() > max_batch {
        return Err((
            413,
            "Payload Too Large",
            format!(
                "request carries {} tensors, the per-request limit is {max_batch}",
                raw_inputs.len()
            ),
        ));
    }
    let mut inputs = Vec::with_capacity(raw_inputs.len());
    for (index, tensor) in raw_inputs.iter().enumerate() {
        let values = tensor
            .as_array()
            .ok_or_else(|| bad(format!("inputs[{index}] is not an array")))?;
        if values.len() != model.input_len {
            return Err(bad(format!(
                "inputs[{index}] holds {} values, {} expects {}",
                values.len(),
                model.name,
                model.input_len
            )));
        }
        let mut flat = Vec::with_capacity(values.len());
        for (vi, value) in values.iter().enumerate() {
            let v = value
                .as_i64()
                .filter(|v| i32::try_from(*v).is_ok())
                .ok_or_else(|| bad(format!("inputs[{index}][{vi}] is not a 32-bit integer")))?;
            flat.push(v as i32);
        }
        inputs.push(model.input_tensor(flat));
    }
    Ok((model, tier, inputs))
}

fn models_body(inner: &Inner) -> String {
    let models = Json::Array(
        inner
            .catalog
            .models()
            .iter()
            .map(|m| {
                Json::Object(vec![
                    ("name".to_string(), Json::from(m.name)),
                    ("input_len".to_string(), Json::from(m.input_len as i64)),
                    (
                        "packed_layers".to_string(),
                        Json::from(m.cache.packed_layers() as i64),
                    ),
                    (
                        "cache_bytes".to_string(),
                        Json::from(m.cache.approx_bytes() as i64),
                    ),
                ])
            })
            .collect(),
    );
    Json::Object(vec![("models".to_string(), models)]).to_string()
}

/// Weight-cache observability: per-model prepack cost, resident compressed
/// footprint, layers that exceeded the FC prepack cap (and therefore stream
/// their row transpose on every request), plus the process-wide weight-store
/// counters the catalogs share.
fn metrics_body(inner: &Inner) -> String {
    let store = loom_core::loom_sim::loom::weight_store_stats();
    let models = Json::Array(
        inner
            .catalog
            .models()
            .iter()
            .map(|m| {
                let pack = m.cache.pack_stats();
                let unpacked = Json::Array(
                    m.cache
                        .unpacked_fc_layers()
                        .iter()
                        .map(|name| Json::from(name.as_str()))
                        .collect(),
                );
                Json::Object(vec![
                    ("name".to_string(), Json::from(m.name)),
                    (
                        "prepack_seconds".to_string(),
                        Json::Number(m.prepack_seconds),
                    ),
                    (
                        "packed_layers".to_string(),
                        Json::from(m.cache.packed_layers() as i64),
                    ),
                    ("unpacked_fc_layers".to_string(), unpacked),
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
                ])
            })
            .collect(),
    );
    Json::Object(vec![
        (
            "weight_store".to_string(),
            Json::Object(vec![
                ("packs".to_string(), Json::from(store.packs() as i64)),
                ("hits".to_string(), Json::from(store.hits() as i64)),
                ("evictions".to_string(), Json::from(store.evictions as i64)),
                ("entries".to_string(), Json::from(store.entries as i64)),
                (
                    "resident_bytes".to_string(),
                    Json::from(store.resident_bytes as i64),
                ),
                (
                    "pack_seconds".to_string(),
                    Json::Number(store.pack.pack_nanos as f64 / 1e9),
                ),
                (
                    "compression_ratio".to_string(),
                    Json::Number(store.pack.ratio()),
                ),
            ]),
        ),
        ("models".to_string(), models),
    ])
    .to_string()
}

fn stats_body(inner: &Inner) -> String {
    let c = &inner.counters;
    Json::Object(vec![
        (
            "requests".to_string(),
            Json::from(Counters::read(&c.requests) as i64),
        ),
        ("ok".to_string(), Json::from(Counters::read(&c.ok) as i64)),
        (
            "overloaded".to_string(),
            Json::from(Counters::read(&c.overloaded) as i64),
        ),
        (
            "rejected".to_string(),
            Json::from(Counters::read(&c.rejected) as i64),
        ),
        (
            "failed".to_string(),
            Json::from(Counters::read(&c.failed) as i64),
        ),
        (
            "timeouts".to_string(),
            Json::from(Counters::read(&c.timeouts) as i64),
        ),
        (
            "refused_connections".to_string(),
            Json::from(Counters::read(&c.refused_connections) as i64),
        ),
    ])
    .to_string()
}

fn error_body(message: &str) -> String {
    Json::Object(vec![("error".to_string(), Json::from(message))]).to_string()
}
