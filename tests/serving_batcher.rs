//! Property suite for the micro-batcher: arbitrary arrival orders, arrival
//! timings, batch windows, thread budgets and mixed models must produce
//! per-request results bit-identical to serial one-at-a-time execution on
//! the direct engine (the same invariance contract `pool_invariance.rs`
//! pins for the pool, lifted to the serving layer).

use loom_core::loom_model::inference::InferenceOptions;
use loom_core::loom_sim::loom::network::NetworkEngine;
use loom_serve::batch::{BatchConfig, MicroBatcher, Tier};
use loom_serve::model::{serving_geometry, ModelCatalog, ServedModel};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Models the property jobs draw from: one FC-only head plus two conv
/// networks, so batches mix cheap and expensive, conv and FC work.
const MODELS: [&str; 3] = ["MiniMLP", "MiniAlexNet", "MiniNiN"];

/// Distinct inputs per model.
const VARIANTS: u64 = 4;

struct Env {
    models: Vec<Arc<ServedModel>>,
    /// Serial one-at-a-time reference: outputs and cycles per
    /// `(model, variant, tier)`, from the direct uncached engine.
    expected: HashMap<(usize, u64, Tier), (Vec<i32>, u64)>,
}

fn env() -> &'static Env {
    static ENV: OnceLock<Env> = OnceLock::new();
    ENV.get_or_init(|| {
        let catalog = ModelCatalog::from_names(MODELS);
        let models: Vec<Arc<ServedModel>> = catalog.models().to_vec();
        let dynamic = NetworkEngine::new(serving_geometry());
        let fixed = dynamic.without_dynamic_precision();
        let mut expected = HashMap::new();
        for (mi, model) in models.iter().enumerate() {
            for variant in 0..VARIANTS {
                let input = model.synthetic_input(variant);
                for (tier, engine) in [(Tier::Dynamic, &dynamic), (Tier::Static, &fixed)] {
                    let run = engine
                        .run(
                            &model.graph,
                            &model.params,
                            &input,
                            InferenceOptions::default(),
                        )
                        .expect("catalog inputs always fit their graphs");
                    expected.insert(
                        (mi, variant, tier),
                        (run.trace.final_outputs().to_vec(), run.cycles),
                    );
                }
            }
        }
        Env { models, expected }
    })
}

/// One submitted job, decoded from a random seed: which model and input,
/// which tier, how many tensors it carries, and how long the submitter
/// stalls before enqueueing (arrival-order scrambling).
#[derive(Debug, Clone, Copy)]
struct JobPlan {
    model: usize,
    variant: u64,
    tier: Tier,
    items: usize,
    delay: Duration,
}

impl JobPlan {
    fn decode(seed: u64) -> JobPlan {
        JobPlan {
            model: (seed % MODELS.len() as u64) as usize,
            variant: (seed >> 8) % VARIANTS,
            tier: if (seed >> 16).is_multiple_of(4) {
                Tier::Static
            } else {
                Tier::Dynamic
            },
            items: ((seed >> 24) % 2 + 1) as usize,
            delay: Duration::from_micros((seed >> 32) % 2_500),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any arrival order/timing, any batching knobs: every job's reply is
    /// bit-identical (outputs *and* cycles) to running its inputs serially,
    /// one at a time, on the direct engine.
    #[test]
    fn coalesced_results_match_serial_one_at_a_time(
        seeds in prop::collection::vec(any::<u64>(), 1..12),
        window_ms in 0u64..4,
        max_batch in 1usize..6,
        threads in 1usize..5,
    ) {
        let env = env();
        let batcher = Arc::new(MicroBatcher::start(BatchConfig {
            window: Duration::from_millis(window_ms),
            max_batch,
            max_queue: 1024, // admission control is covered elsewhere
            threads,
        }));
        // A request can never carry more tensors than one batch holds — the
        // server enforces this before submitting, so the plans respect it.
        let plans: Vec<JobPlan> = seeds
            .iter()
            .map(|&s| {
                let mut plan = JobPlan::decode(s);
                plan.items = plan.items.min(max_batch);
                plan
            })
            .collect();
        let workers: Vec<_> = plans
            .iter()
            .map(|&plan| {
                let batcher = Arc::clone(&batcher);
                let model = Arc::clone(&env.models[plan.model]);
                std::thread::spawn(move || {
                    std::thread::sleep(plan.delay);
                    let inputs: Vec<_> = (0..plan.items)
                        .map(|k| model.synthetic_input((plan.variant + k as u64) % VARIANTS))
                        .collect();
                    let receiver = batcher
                        .submit(model, plan.tier, inputs)
                        .expect("queue is sized above the job count");
                    receiver.recv().expect("dispatcher always replies")
                })
            })
            .collect();
        for (plan, worker) in plans.iter().zip(workers) {
            let reply = worker.join().expect("submitters never panic");
            let reply = match reply {
                Ok(reply) => reply,
                Err(e) => return Err(TestCaseError::fail(format!("dispatch failed: {e}"))),
            };
            prop_assert_eq!(reply.outputs.len(), plan.items);
            prop_assert!(reply.batch_items >= plan.items);
            prop_assert!(reply.batch_items <= max_batch.max(plan.items));
            for k in 0..plan.items {
                let key = (plan.model, (plan.variant + k as u64) % VARIANTS, plan.tier);
                let (want_outputs, want_cycles) = &env.expected[&key];
                prop_assert!(
                    &reply.outputs[k] == want_outputs,
                    "model {} variant {} tier {:?} diverged from serial execution",
                    MODELS[plan.model],
                    key.1,
                    plan.tier
                );
                prop_assert_eq!(reply.cycles[k], *want_cycles);
            }
        }
    }
}
