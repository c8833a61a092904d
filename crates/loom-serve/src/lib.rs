//! # loom-serve
//!
//! Inference-as-a-service front end for the Loom reproduction: a hand-rolled
//! [`std::net`] HTTP/1.1 server that turns the batched functional engine
//! ([`loom_core::loom_sim::loom::network::NetworkEngine`]) into a network
//! service without adding a single external dependency.
//!
//! * [`json`] — the minimal JSON value type the wire protocol uses, and the
//!   one JSON encoder of the repository's BENCH reports.
//! * [`http`] — request/response framing with hard size caps and timeouts.
//! * [`model`] — the served-model catalog: zoo graphs + deterministic
//!   synthetic weights + per-model packed-weight caches built once at
//!   startup.
//! * [`batch`] — the dynamic micro-batcher: requests for the same
//!   `(model, tier)` arriving within one batching window coalesce into a
//!   single lock-step batch dispatch on the shared worker pool.
//! * [`server`] — the acceptor/connection layer: admission control (429 on a
//!   full queue, 503 at the connection cap), slow-loris read timeouts, and
//!   strict protocol validation (400/404/413).
//! * [`client`] — a loopback HTTP client for the integration suites and the
//!   `serve_bench` load generator.
//! * [`metrics`] — counters and percentile extraction.
//!
//! The load generator (`serve_bench`) and the serving binary (`loom-serve`)
//! live in `src/bin/`; `docs/SERVING.md` documents the wire protocol and
//! batching semantics.
//!
//! # Determinism contract
//!
//! Serving is a *view* over the deterministic engine, never a fork of it:
//! every response's `outputs` are bit-identical to a direct
//! `NetworkEngine::run_batch` call on the same inputs, regardless of how
//! requests coalesce into micro-batches, how many worker threads run, or
//! which precision tier is selected. The loopback suites
//! (`tests/serving_http.rs`, `tests/serving_batcher.rs`) and the soak gate
//! in CI pin that contract down.
//!
//! # Quick start
//!
//! ```
//! use loom_serve::client::Client;
//! use loom_serve::model::ModelCatalog;
//! use loom_serve::server::{Server, ServerConfig};
//! use std::time::Duration;
//!
//! let server = Server::start(
//!     ModelCatalog::from_names(["MiniMLP"]),
//!     ServerConfig::default(), // port 0: ephemeral
//! )
//! .unwrap();
//! let mut client = Client::connect(server.addr(), Duration::from_secs(10)).unwrap();
//! let health = client.request("GET", "/healthz", "").unwrap();
//! assert_eq!(health.status, 200);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod client;
pub mod http;
pub mod json;
pub mod metrics;
pub mod model;
pub mod server;

pub use batch::{BatchConfig, MicroBatcher, Tier};
pub use client::Client;
pub use model::{ModelCatalog, ServedModel};
pub use server::{Server, ServerConfig};
