//! The dynamic micro-batcher: requests for the same `(model, tier)` that
//! arrive within one batching window coalesce into a single lock-step
//! [`NetworkEngine::run_batch_cached`] dispatch on the shared worker pool.
//!
//! One dispatcher thread owns the queue. When a job arrives at the head, the
//! dispatcher waits until either the head's window elapses or enough matching
//! work has queued to fill `max_batch` input items, then drains every
//! matching job (preserving queue order for the rest) and runs them as one
//! batch. Because the engine's lock-step batches are bit-identical to
//! serial runs at any thread count, coalescing is *invisible* in the
//! response values — only latency and throughput change. That invariant is
//! what the loopback and property suites pin down.

use crate::model::{serving_geometry, ServedModel};
use loom_core::loom_model::inference::InferenceOptions;
use loom_core::loom_model::tensor::Tensor3;
use loom_core::loom_sim::loom::network::NetworkEngine;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Precision tier a request runs under. Both tiers produce bit-identical
/// output values (the conformance suites guarantee it); they differ only in
/// the cycle counts the bit-serial datapath reports, so the tier is part of
/// the batch key rather than a correctness concern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Runtime per-group activation-precision detection (the Loom default).
    Dynamic,
    /// Static profiled precisions only (`without_dynamic_precision`).
    Static,
}

impl Tier {
    /// Parses a request's `tier` field.
    pub fn parse(text: &str) -> Option<Tier> {
        match text {
            "dynamic" => Some(Tier::Dynamic),
            "static" => Some(Tier::Static),
            _ => None,
        }
    }

    /// The wire name (`dynamic` / `static`).
    pub fn name(self) -> &'static str {
        match self {
            Tier::Dynamic => "dynamic",
            Tier::Static => "static",
        }
    }
}

/// Batching knobs.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// How long the head-of-queue job waits for companions before its batch
    /// dispatches.
    pub window: Duration,
    /// Maximum input items per dispatch (and per request).
    pub max_batch: usize,
    /// Maximum queued input items before new submissions are refused
    /// (admission control; the server maps refusal to HTTP 429).
    pub max_queue: usize,
    /// Worker threads the engine fans each dispatch across.
    pub threads: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            window: Duration::from_millis(2),
            max_batch: 8,
            max_queue: 64,
            threads: 1,
        }
    }
}

/// What a completed job returns to its submitter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReply {
    /// Final-layer prediction vector per submitted input, request order.
    pub outputs: Vec<Vec<i32>>,
    /// Bit-serial datapath cycles per submitted input.
    pub cycles: Vec<u64>,
    /// Queued input items (including this job's) when the dispatch started.
    pub queue_depth: usize,
    /// Input items in the dispatch this job rode in.
    pub batch_items: usize,
}

/// Submission failure: the queue is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overloaded;

struct Job {
    model: Arc<ServedModel>,
    tier: Tier,
    inputs: Vec<Tensor3>,
    enqueued_at: Instant,
    respond: mpsc::SyncSender<Result<BatchReply, String>>,
}

struct State {
    queue: VecDeque<Job>,
    queued_items: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    arrived: Condvar,
}

/// The micro-batcher: submit jobs, a dispatcher thread coalesces and runs
/// them. Dropping the batcher shuts the dispatcher down after it drains the
/// queue, so no submitter is left waiting forever.
pub struct MicroBatcher {
    shared: Arc<Shared>,
    config: BatchConfig,
    dispatcher: Option<JoinHandle<()>>,
}

impl MicroBatcher {
    /// Starts the dispatcher thread.
    pub fn start(config: BatchConfig) -> MicroBatcher {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                queued_items: 0,
                shutdown: false,
            }),
            arrived: Condvar::new(),
        });
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("loom-serve-batcher".to_string())
                .spawn(move || dispatch_loop(&shared, config))
                .expect("spawning the dispatcher thread")
        };
        MicroBatcher {
            shared,
            config,
            dispatcher: Some(dispatcher),
        }
    }

    /// The batching knobs this batcher runs with.
    pub fn config(&self) -> &BatchConfig {
        &self.config
    }

    /// Enqueues one request's inputs. Returns the channel the reply arrives
    /// on; the dispatcher always sends exactly one message per job, so a
    /// blocking `recv()` terminates.
    ///
    /// # Errors
    ///
    /// [`Overloaded`] when the queue already holds `max_queue` input items —
    /// the admission-control path the server maps to HTTP 429.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty or exceeds `max_batch` items — the server
    /// validates both before submitting.
    pub fn submit(
        &self,
        model: Arc<ServedModel>,
        tier: Tier,
        inputs: Vec<Tensor3>,
    ) -> Result<mpsc::Receiver<Result<BatchReply, String>>, Overloaded> {
        assert!(
            !inputs.is_empty() && inputs.len() <= self.config.max_batch,
            "the server validates request batch sizes before submitting"
        );
        let (respond, receive) = mpsc::sync_channel(1);
        let mut state = self.shared.state.lock().expect("batcher lock");
        if state.queued_items + inputs.len() > self.config.max_queue {
            return Err(Overloaded);
        }
        state.queued_items += inputs.len();
        state.queue.push_back(Job {
            model,
            tier,
            inputs,
            enqueued_at: Instant::now(),
            respond,
        });
        drop(state);
        self.shared.arrived.notify_all();
        Ok(receive)
    }
}

impl Drop for MicroBatcher {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("batcher lock");
            state.shutdown = true;
        }
        self.shared.arrived.notify_all();
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
    }
}

fn dispatch_loop(shared: &Shared, config: BatchConfig) {
    loop {
        let (batch, queue_depth) = {
            let mut state = shared.state.lock().expect("batcher lock");
            // Sleep until work arrives (or shutdown with an empty queue).
            loop {
                if !state.queue.is_empty() {
                    break;
                }
                if state.shutdown {
                    return;
                }
                state = shared.arrived.wait(state).expect("batcher lock");
            }
            // The head job anchors the batch: wait out the remainder of its
            // window unless matching work already fills max_batch (or the
            // batcher is draining for shutdown).
            let deadline = state.queue.front().expect("non-empty").enqueued_at + config.window;
            loop {
                let head_key = {
                    let head = state.queue.front().expect("non-empty");
                    (Arc::as_ptr(&head.model), head.tier)
                };
                let matching: usize = state
                    .queue
                    .iter()
                    .filter(|j| (Arc::as_ptr(&j.model), j.tier) == head_key)
                    .map(|j| j.inputs.len())
                    .sum();
                if matching >= config.max_batch || state.shutdown {
                    break;
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (next, timeout) = shared
                    .arrived
                    .wait_timeout(state, deadline - now)
                    .expect("batcher lock");
                state = next;
                if timeout.timed_out() {
                    break;
                }
            }
            // Drain every job matching the head's key, in order, up to
            // max_batch items; later-keyed jobs keep their queue positions.
            let head = state.queue.front().expect("non-empty");
            let key = (Arc::as_ptr(&head.model), head.tier);
            let queue_depth = state.queued_items;
            let mut batch: Vec<Job> = Vec::new();
            let mut items = 0usize;
            let mut index = 0;
            while index < state.queue.len() {
                let job = &state.queue[index];
                let job_key = (Arc::as_ptr(&job.model), job.tier);
                if job_key == key
                    && (items + job.inputs.len() <= config.max_batch || batch.is_empty())
                {
                    items += job.inputs.len();
                    let job = state.queue.remove(index).expect("index in bounds");
                    batch.push(job);
                    if items >= config.max_batch {
                        break;
                    }
                } else {
                    index += 1;
                }
            }
            state.queued_items -= items;
            (batch, queue_depth)
        };
        // Lock released: run the batch while new submissions queue freely.
        run_batch(config.threads, batch, queue_depth);
    }
}

/// The engine a tier runs on. Every engine shares the process-global worker
/// pool, so one is built per batch.
fn engine(tier: Tier, threads: usize) -> NetworkEngine {
    let engine = NetworkEngine::new(serving_geometry()).with_threads(threads);
    match tier {
        Tier::Dynamic => engine,
        Tier::Static => engine.without_dynamic_precision(),
    }
}

fn run_batch(threads: usize, batch: Vec<Job>, queue_depth: usize) {
    let model = Arc::clone(&batch[0].model);
    let tier = batch[0].tier;
    let batch_items: usize = batch.iter().map(|j| j.inputs.len()).sum();
    let inputs: Vec<Tensor3> = batch
        .iter()
        .flat_map(|j| j.inputs.iter().cloned())
        .collect();
    // A panic in the engine (a bug, or params that do not fit the graph)
    // fails this batch's jobs, not the dispatcher: left to unwind, it would
    // end the only dispatcher thread and every later request would wait
    // forever.
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        engine(tier, threads)
            .run_batch_cached(
                &model.graph,
                &model.params,
                &inputs,
                InferenceOptions::default(),
                Some(&model.cache),
            )
            .map_err(|e| format!("inference failed: {e:?}"))
    }))
    .unwrap_or_else(|payload| {
        let detail = (payload.downcast_ref::<&str>().copied())
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
        Err(format!(
            "inference panicked: {}",
            detail.unwrap_or("no message")
        ))
    });
    match result {
        Ok(runs) => {
            let mut runs = runs.into_iter();
            for job in batch {
                let job_runs: Vec<_> = runs.by_ref().take(job.inputs.len()).collect();
                let reply = BatchReply {
                    outputs: job_runs
                        .iter()
                        .map(|r| r.trace.final_outputs().to_vec())
                        .collect(),
                    cycles: job_runs.iter().map(|r| r.cycles).collect(),
                    queue_depth,
                    batch_items,
                };
                // A submitter that gave up (dropped the receiver) is fine.
                let _ = job.respond.send(Ok(reply));
            }
        }
        Err(message) => {
            // Inputs are validated before submission, so this is unreachable
            // in practice — but a dispatcher must never die with jobs queued.
            for job in batch {
                let _ = job.respond.send(Err(message.clone()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelCatalog;
    use loom_core::loom_model::inference::NetworkParams;

    #[test]
    fn tier_names_round_trip() {
        for tier in [Tier::Dynamic, Tier::Static] {
            assert_eq!(Tier::parse(tier.name()), Some(tier));
        }
        assert_eq!(Tier::parse("turbo"), None);
    }

    #[test]
    fn single_job_matches_direct_engine() {
        let catalog = ModelCatalog::from_names(["MiniMLP"]);
        let model = catalog.find("MiniMLP").unwrap();
        let input = model.synthetic_input(1);
        let batcher = MicroBatcher::start(BatchConfig {
            window: Duration::from_millis(1),
            ..BatchConfig::default()
        });
        let reply = batcher
            .submit(Arc::clone(&model), Tier::Dynamic, vec![input.clone()])
            .unwrap()
            .recv()
            .unwrap()
            .unwrap();
        let direct = NetworkEngine::new(serving_geometry())
            .run(
                &model.graph,
                &model.params,
                &input,
                InferenceOptions::default(),
            )
            .unwrap();
        assert_eq!(reply.outputs, vec![direct.trace.final_outputs().to_vec()]);
        assert_eq!(reply.cycles, vec![direct.cycles]);
        assert_eq!(reply.batch_items, 1);
    }

    /// A batch whose engine call panics is answered with an error, and the
    /// dispatcher goes on serving: the next, healthy job is answered too.
    #[test]
    fn a_panicking_batch_fails_its_jobs_and_dispatching_goes_on() {
        let catalog = ModelCatalog::from_names(["MiniMLP"]);
        let healthy = catalog.find("MiniMLP").unwrap();
        // The same model with the last layer's weights missing: the executor
        // panics when it reaches that layer.
        let mut layers = healthy.params.layers().to_vec();
        layers.pop();
        let params = NetworkParams::new(layers);
        let broken = Arc::new(ServedModel {
            name: healthy.name,
            graph: healthy.graph.clone(),
            cache: NetworkEngine::new(serving_geometry()).prepack(&healthy.graph, &params),
            params,
            input_len: healthy.input_len,
            input_shape: healthy.input_shape,
            prepack_seconds: 0.0,
        });
        let batcher = MicroBatcher::start(BatchConfig {
            window: Duration::from_millis(1),
            ..BatchConfig::default()
        });
        let input = healthy.synthetic_input(3);
        let failed = batcher
            .submit(broken, Tier::Dynamic, vec![input.clone()])
            .unwrap();
        let served = batcher
            .submit(Arc::clone(&healthy), Tier::Dynamic, vec![input.clone()])
            .unwrap();
        let wait = Duration::from_secs(60);
        let error = failed
            .recv_timeout(wait)
            .expect("the failed job is answered");
        assert!(error.unwrap_err().contains("panicked"));
        let reply = served
            .recv_timeout(wait)
            .expect("the dispatcher survives the panic")
            .expect("the healthy job succeeds");
        let direct = NetworkEngine::new(serving_geometry())
            .run(
                &healthy.graph,
                &healthy.params,
                &input,
                InferenceOptions::default(),
            )
            .unwrap();
        assert_eq!(reply.outputs, vec![direct.trace.final_outputs().to_vec()]);
        assert_eq!(reply.cycles, vec![direct.cycles]);
    }

    #[test]
    fn admission_control_refuses_past_max_queue() {
        let catalog = ModelCatalog::from_names(["MiniMLP"]);
        let model = catalog.find("MiniMLP").unwrap();
        // A long window and a batch larger than the queue: nothing can
        // dispatch before the refusal is observed, so the test is
        // deterministic. Shutdown (drop) then drains the queue early.
        let batcher = MicroBatcher::start(BatchConfig {
            window: Duration::from_secs(30),
            max_batch: 8,
            max_queue: 2,
            threads: 1,
        });
        let input = model.synthetic_input(7);
        let receivers: Vec<_> = (0..2)
            .map(|_| {
                batcher
                    .submit(Arc::clone(&model), Tier::Dynamic, vec![input.clone()])
                    .unwrap()
            })
            .collect();
        assert_eq!(
            batcher
                .submit(Arc::clone(&model), Tier::Dynamic, vec![input.clone()])
                .unwrap_err(),
            Overloaded
        );
        drop(batcher); // drains: every accepted job still gets a reply
        for r in receivers {
            let reply = r.recv().unwrap().unwrap();
            assert_eq!(reply.batch_items, 2, "both queued jobs ride one batch");
        }
    }
}
