//! The `loom-serve` binary: stands up the inference HTTP front end on the
//! reduced serving catalog and blocks until killed.
//!
//! ```text
//! loom-serve [--port N] [--threads N] [--batch-window-ms N] [--max-batch N]
//!            [--max-queue N] [--max-connections N] [--models a,b,c]
//! ```
//!
//! `--threads` resolves through the shared policy (default: available
//! parallelism). `--models` restricts the catalog to a comma-separated
//! subset of registered zoo names (default: the reduced networks plus the
//! MLP heads). The wire protocol is documented in `docs/SERVING.md`.

use loom_core::threads::flag;
use loom_serve::batch::BatchConfig;
use loom_serve::model::ModelCatalog;
use loom_serve::server::{Server, ServerConfig};
use std::time::Duration;

fn main() {
    let threads = loom_core::threads::resolve(flag("threads"));
    let port: u16 = flag("port").unwrap_or(7070);
    let window = Duration::from_millis(flag("batch-window-ms").unwrap_or(2));
    let max_batch = flag("max-batch").unwrap_or(8);
    let max_queue = flag("max-queue").unwrap_or(64);
    let max_connections = flag("max-connections").unwrap_or(64);

    let catalog = match flag::<String>("models") {
        None => ModelCatalog::reduced(),
        Some(list) => {
            let registered = loom_core::loom_model::zoo::graphs::registered_names();
            let names: Vec<&'static str> = list
                .split(',')
                .map(str::trim)
                .filter(|n| !n.is_empty())
                .map(|n| {
                    *registered
                        .iter()
                        .find(|r| r.eq_ignore_ascii_case(n))
                        .unwrap_or_else(|| {
                            eprintln!(
                                "ERROR: unknown model {n:?}; registered: {}",
                                registered.join(", ")
                            );
                            std::process::exit(2);
                        })
                })
                .collect();
            if names.is_empty() {
                eprintln!("ERROR: --models lists no names");
                std::process::exit(2);
            }
            ModelCatalog::from_names(names)
        }
    };

    let model_names: Vec<&'static str> = catalog.models().iter().map(|m| m.name).collect();
    let config = ServerConfig {
        port,
        batch: BatchConfig {
            window,
            max_batch,
            max_queue,
            threads,
        },
        max_connections,
        ..ServerConfig::default()
    };
    let server = match Server::start(catalog, config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("ERROR: could not bind 127.0.0.1:{port}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "loom-serve listening on http://{} ({} worker threads, window {:?}, max batch {max_batch}, queue {max_queue})",
        server.addr(),
        threads,
        window,
    );
    println!("  models: {}", model_names.join(", "));
    server.join();
}
