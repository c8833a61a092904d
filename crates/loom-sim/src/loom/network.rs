//! Whole-network, batched execution on the functional Loom engine.
//!
//! [`FunctionalLoom`] answers "does one layer compute the right numbers";
//! [`NetworkEngine`] runs it over a whole [`LayerGraph`] — branches, concats,
//! pooling, re-quantization and all — and batches inputs. It is a thin front
//! over the one Loom network path: [`LoomDatapath`] driven by
//! [`run_network_batch`], the same adapter the conformance harness runs every
//! backend through. The executor is *shared* with the golden model
//! (`loom_model::graph`), so scheduling, re-quantization, ReLU, pooling and
//! concatenation are literally the same code on both paths and the traces
//! must be bit-identical if (and only if) the inner products are.
//!
//! Execution is *lock-step* across the batch
//! ([`LayerGraph::run_batch_with`]): every node runs for all items before the
//! schedule advances, so a layer's weights are resolved **once per batch**
//! and the worker pool is fed fine-grained (item × window-group) tasks — not
//! whole batch items — which keeps all threads busy even when the batch is
//! smaller than the pool. Results merge in task order through the pool's
//! per-job result slots, so they are deterministic at any thread count.
//!
//! A layer's weights come packed from the process-wide weight store
//! ([`crate::loom::store`]), which every entry point resolves them through;
//! only fully-connected layers too big to hold there stream their rows per
//! dispatch. A [`PackedModel`] ([`NetworkEngine::prepack`]) holds a model's
//! resolved layers by name so a served model skips even the store lookup.
//!
//! # Examples
//!
//! Run a batch of two inputs through a small network on two threads and check
//! it against the golden model:
//!
//! ```
//! use loom_model::inference::{InferenceOptions, NetworkParams};
//! use loom_model::layer::{ConvSpec, FcSpec};
//! use loom_model::network::NetworkBuilder;
//! use loom_model::graph::LayerGraph;
//! use loom_model::tensor::{Shape3, Tensor3};
//! use loom_model::Precision;
//! use loom_sim::config::LoomGeometry;
//! use loom_sim::loom::NetworkEngine;
//!
//! let graph = LayerGraph::from_network(
//!     &NetworkBuilder::new("tiny")
//!         .conv("conv1", ConvSpec::simple(1, 6, 6, 2, 3))
//!         .fully_connected("fc1", FcSpec::new(2 * 4 * 4, 4))
//!         .build()
//!         .unwrap(),
//! );
//! let params = NetworkParams::synthetic_for_graph(&graph, &[Precision::new(4).unwrap()], 1);
//! let geometry = LoomGeometry {
//!     filter_rows: 4,
//!     window_columns: 2,
//!     sip_lanes: 4,
//!     act_bits_per_cycle: 1,
//! };
//! let inputs = [
//!     Tensor3::from_vec(Shape3::new(1, 6, 6), (0..36).collect()).unwrap(),
//!     Tensor3::from_vec(Shape3::new(1, 6, 6), (36..72).collect()).unwrap(),
//! ];
//! let options = InferenceOptions::default();
//!
//! let engine = NetworkEngine::new(geometry).with_threads(2);
//! let runs = engine.run_batch(&graph, &params, &inputs, options).unwrap();
//! assert_eq!(runs.len(), 2);
//! // Bit-identical to the golden model, layer by layer.
//! let golden = graph.run_batch(&params, &inputs, options).unwrap();
//! assert_eq!(runs[0].trace, golden[0]);
//! assert_eq!(runs[1].trace, golden[1]);
//! assert!(runs[0].cycles > 0);
//! ```

use crate::config::LoomGeometry;
use crate::datapath::{run_network_batch, LoomDatapath};
use crate::loom::functional::{FunctionalLoom, PackStats, PackedRows};
use crate::loom::store::PreparedLayer;
use loom_model::graph::LayerGraph;
use loom_model::inference::{InferenceError, InferenceOptions, InferenceTrace, NetworkParams};
use loom_model::tensor::Tensor3;
use std::collections::HashMap;

/// Result of running a whole network through the functional engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkRun {
    /// The full forward-pass trace, bit-identical to the golden model's
    /// ([`LayerGraph::run`]) when the datapath is correct.
    pub trace: InferenceTrace,
    /// Total bit-serial cycles over all compute layers.
    pub cycles: u64,
    /// Total activation groups whose precision dynamic detection reduced.
    pub reduced_groups: u64,
}

/// A model's weights prepared for the wide datapath, built once
/// ([`NetworkEngine::prepack`]) and shared read-only by every request that
/// serves the model: each compute layer's packed rows and Pw, by layer name.
/// With it, [`NetworkEngine::run_batch_cached`] skips the per-dispatch
/// weight-store lookup (a fingerprint of every weight) and the Pw scan of FC
/// layers too big to pack; results are bit-identical with and without it.
///
/// It is only valid for the `(graph, params)` pair it was built from: a
/// cache for another graph name is rejected, and the packing layers assert
/// block counts against the layer specs.
pub struct PackedModel {
    graph_name: String,
    layers: HashMap<String, PreparedLayer>,
}

impl PackedModel {
    /// The graph this cache was packed for.
    pub fn graph_name(&self) -> &str {
        &self.graph_name
    }

    /// The prepared weights of the compute layer named `layer`.
    pub(crate) fn layer(&self, layer: &str) -> Option<&PreparedLayer> {
        self.layers.get(layer)
    }

    /// Number of layers with packed weights (FC layers too big to pack do
    /// not count).
    pub fn packed_layers(&self) -> usize {
        self.containers().count()
    }

    /// Every packed container: conv filters and FC rows.
    fn containers(&self) -> impl Iterator<Item = &PackedRows> {
        self.layers
            .values()
            .filter_map(|layer| layer.rows.as_deref())
    }

    /// Approximate resident size of the packed (compressed) planes, for
    /// observability.
    pub fn approx_bytes(&self) -> usize {
        self.containers().map(PackedRows::approx_bytes).sum()
    }

    /// Names of fully-connected layers too big to pack (over 2^22 weights),
    /// which therefore stream their rows on every dispatch (sorted for
    /// stable reporting). Empty for every reduced zoo network and MLP head —
    /// non-empty means the model pays the streaming path on every request.
    pub fn unpacked_fc_layers(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .layers
            .iter()
            .filter(|(_, layer)| layer.rows.is_none())
            .map(|(name, _)| name.clone())
            .collect();
        names.sort();
        names
    }

    /// Aggregated pack cost and compression footprint over every packed
    /// container: original pack wall time, resident bytes before/after
    /// compression and the modeled DRAM stream bits both ways. Containers
    /// served from the weight store report the cost of their original pack.
    pub fn pack_stats(&self) -> PackStats {
        let mut total = PackStats::default();
        for rows in self.containers() {
            total.add(&rows.stats());
        }
        total
    }
}

/// Batched, parallel functional execution of whole layer graphs: a thin
/// front over [`LoomDatapath`] and [`run_network_batch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkEngine {
    engine: FunctionalLoom,
}

impl NetworkEngine {
    /// Creates an engine with the given geometry, dynamic precision
    /// detection enabled, and one worker thread.
    pub fn new(geometry: LoomGeometry) -> Self {
        NetworkEngine {
            engine: FunctionalLoom::new(geometry),
        }
    }

    /// Sets the worker-thread budget (clamped to at least 1). Every
    /// convolution fans (batch item × window group) tasks — and every
    /// fully-connected layer (output-row group) tasks — across one pool of
    /// this size, so the pool stays busy even when the batch is smaller than
    /// the thread count. Results are bit-identical at any thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.engine = self.engine.with_threads(threads);
        self
    }

    /// Disables runtime precision detection.
    pub fn without_dynamic_precision(mut self) -> Self {
        self.engine = self.engine.without_dynamic_precision();
        self
    }

    /// The worker-thread budget.
    pub fn threads(&self) -> usize {
        self.engine.threads()
    }

    /// The per-layer engine this network engine drives.
    pub fn layer_engine(&self) -> FunctionalLoom {
        self.engine
    }

    /// Runs one input through the graph on the functional datapath, with the
    /// full thread budget fanned across each layer's window / output-row
    /// groups. Exactly [`NetworkEngine::run_batch`] with a batch of one.
    ///
    /// Per-layer precisions are taken from the data itself: the activation
    /// precision from each layer's input, the weight precision from the
    /// layer's packed rows (or, for an FC layer too big to pack, from a scan
    /// of its weights). The run is self-contained and deterministic.
    ///
    /// # Errors
    ///
    /// As [`LayerGraph::run`]: shape mismatches, empty graphs, or malformed
    /// concatenations.
    pub fn run(
        &self,
        graph: &LayerGraph,
        params: &NetworkParams,
        input: &Tensor3,
        options: InferenceOptions,
    ) -> Result<NetworkRun, InferenceError> {
        Ok(self
            .run_batch(graph, params, std::slice::from_ref(input), options)?
            .pop()
            .expect("one run per input"))
    }

    /// Runs every input through the graph, lock-step: each layer's weights
    /// are resolved once for the whole batch (from the process-wide weight
    /// store, or streamed for an FC layer too big to pack), and the worker
    /// pool processes (item × window-group) convolution tasks and (output-row
    /// group) fully-connected tasks. Each item's result is bit-identical to
    /// [`NetworkEngine::run`] on that input — and to the golden
    /// [`LayerGraph::run_batch`] — regardless of thread count.
    ///
    /// # Errors
    ///
    /// The first error in (schedule, item) order, as [`NetworkEngine::run`].
    pub fn run_batch(
        &self,
        graph: &LayerGraph,
        params: &NetworkParams,
        inputs: &[Tensor3],
        options: InferenceOptions,
    ) -> Result<Vec<NetworkRun>, InferenceError> {
        self.run_batch_cached(graph, params, inputs, options, None)
    }

    /// Prepares every compute layer's weights for the wide datapath up
    /// front: packed rows from the weight store (every conv layer, and every
    /// FC layer small enough to pack) and Pw. Packed rows record their own
    /// Pw, so only the FC layers too big to pack are scanned for it. Build
    /// once per served model, then pass to
    /// [`NetworkEngine::run_batch_cached`] on every request.
    ///
    /// # Panics
    ///
    /// Panics if `params` does not match the graph's compute layers (wrong
    /// order or weight lengths) — the same contract [`LayerGraph::run_batch`]
    /// enforces at dispatch time.
    pub fn prepack(&self, graph: &LayerGraph, params: &NetworkParams) -> PackedModel {
        let layers = graph
            .compute_layers()
            .zip(params.layers())
            .map(|((name, kind), weights)| {
                assert_eq!(
                    name, weights.layer_name,
                    "params must list weights in compute-layer order"
                );
                (name.to_string(), PreparedLayer::new(kind, weights.values()))
            })
            .collect();
        PackedModel {
            graph_name: graph.name().to_string(),
            layers,
        }
    }

    /// [`NetworkEngine::run_batch`] with a per-model weight cache: layers
    /// found in `cache` skip their per-dispatch weight-store lookup (and the
    /// Pw scan of an FC layer too big to pack). Results are bit-identical to
    /// the uncached run at any thread count.
    ///
    /// # Errors
    ///
    /// As [`NetworkEngine::run_batch`].
    ///
    /// # Panics
    ///
    /// Panics if `cache` was packed for a different graph (by name) —
    /// serving must never silently mix models — or if a cached layer's block
    /// counts do not tile the layer spec (a stale cache).
    pub fn run_batch_cached(
        &self,
        graph: &LayerGraph,
        params: &NetworkParams,
        inputs: &[Tensor3],
        options: InferenceOptions,
        cache: Option<&PackedModel>,
    ) -> Result<Vec<NetworkRun>, InferenceError> {
        if let Some(cache) = cache {
            assert_eq!(
                cache.graph_name,
                graph.name(),
                "packed-weight cache belongs to a different model"
            );
        }
        let datapath = LoomDatapath::with_model(self.engine, cache);
        run_network_batch(&datapath, graph, params, inputs, options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loom::sip::serial_conv;
    use loom_model::fixed::required_precision;
    use loom_model::graph::{GraphBuilder, GraphCompute, GRAPH_INPUT};
    use loom_model::layer::{ConvSpec, FcSpec, PoolSpec};
    use loom_model::reference::fc_forward;
    use loom_model::synthetic::{synthetic_activations, ValueDistribution};
    use loom_model::tensor::{Shape3, Tensor4};
    use loom_model::Precision;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn geometry() -> LoomGeometry {
        LoomGeometry {
            filter_rows: 8,
            window_columns: 4,
            sip_lanes: 8,
            act_bits_per_cycle: 1,
        }
    }

    fn branching_graph() -> LayerGraph {
        let b3 = ConvSpec {
            padding: 1,
            ..ConvSpec::simple(4, 6, 6, 3, 3)
        };
        GraphBuilder::new("fork")
            .conv("stem", GRAPH_INPUT, ConvSpec::simple(2, 8, 8, 4, 3))
            .conv("b1", "stem", ConvSpec::simple(4, 6, 6, 2, 1))
            .conv("b3", "stem", b3)
            .max_pool("bp", "stem", PoolSpec::new(4, 6, 6, 3, 1).with_padding(1))
            .concat("merge", &["b1", "b3", "bp"])
            .fully_connected("fc", "merge", FcSpec::new((2 + 3 + 4) * 36, 6))
            .build()
            .unwrap()
    }

    fn inputs(n: usize) -> Vec<Tensor3> {
        (0..n)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(100 + i as u64);
                Tensor3::from_vec(
                    Shape3::new(2, 8, 8),
                    synthetic_activations(
                        &mut rng,
                        2 * 8 * 8,
                        Precision::new(8).unwrap(),
                        ValueDistribution::activations(),
                    ),
                )
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn branching_network_matches_golden_model() {
        let graph = branching_graph();
        let params = NetworkParams::synthetic_for_graph(&graph, &[Precision::new(7).unwrap()], 3);
        let options = InferenceOptions::default();
        let input = &inputs(1)[0];
        let golden = graph.run(&params, input, options).unwrap();
        let run = NetworkEngine::new(geometry())
            .run(&graph, &params, input, options)
            .unwrap();
        assert_eq!(run.trace, golden);
        assert!(run.cycles > 0);
    }

    #[test]
    fn batch_and_thread_counts_do_not_change_results() {
        let graph = branching_graph();
        let params = NetworkParams::synthetic_for_graph(&graph, &[Precision::new(7).unwrap()], 3);
        let options = InferenceOptions::default();
        let batch = inputs(3);
        let serial = NetworkEngine::new(geometry())
            .run_batch(&graph, &params, &batch, options)
            .unwrap();
        // Batch of N equals N runs of batch 1.
        for (i, input) in batch.iter().enumerate() {
            let single = NetworkEngine::new(geometry())
                .run(&graph, &params, input, options)
                .unwrap();
            assert_eq!(serial[i], single);
        }
        // ... at every thread count.
        for threads in [2, 8] {
            let parallel = NetworkEngine::new(geometry())
                .with_threads(threads)
                .run_batch(&graph, &params, &batch, options)
                .unwrap();
            assert_eq!(parallel, serial);
        }
    }

    /// The bit-serial oracle as a graph backend: every convolution through
    /// [`serial_conv`], fully-connected outputs from the golden kernel with
    /// the engine's cycle formula.
    struct SerialOracle {
        engine: FunctionalLoom,
        cycles: u64,
        reduced_groups: u64,
    }

    impl GraphCompute for SerialOracle {
        fn conv(
            &mut self,
            _layer: &str,
            spec: &ConvSpec,
            input: &Tensor3,
            weights: &Tensor4,
        ) -> Vec<i64> {
            let pa = required_precision(input.as_slice());
            let pw = required_precision(weights.as_slice());
            let run = serial_conv(&self.engine, spec, input, weights, pa, pw);
            self.cycles += run.cycles;
            self.reduced_groups += run.reduced_groups;
            run.outputs
        }

        fn fc(&mut self, _layer: &str, spec: &FcSpec, input: &[i32], weights: &[i32]) -> Vec<i64> {
            self.cycles += self.engine.fc_cycles(spec, required_precision(weights));
            fc_forward(spec, input, weights)
        }
    }

    #[test]
    fn batch_cycles_match_the_bit_serial_oracle() {
        let graph = branching_graph();
        let params = NetworkParams::synthetic_for_graph(&graph, &[Precision::new(7).unwrap()], 3);
        let options = InferenceOptions::default();
        let batch = inputs(2);
        let runs = NetworkEngine::new(geometry())
            .with_threads(2)
            .run_batch(&graph, &params, &batch, options)
            .unwrap();
        for (run, input) in runs.iter().zip(&batch) {
            let mut oracle = SerialOracle {
                engine: FunctionalLoom::new(geometry()),
                cycles: 0,
                reduced_groups: 0,
            };
            let trace = graph
                .run_with(&params, input, options, &[], &mut oracle)
                .unwrap();
            assert_eq!(run.trace, trace);
            assert_eq!(
                (run.cycles, run.reduced_groups),
                (oracle.cycles, oracle.reduced_groups)
            );
            assert!(oracle.reduced_groups > 0, "the inputs exercise detection");
        }
    }

    #[test]
    fn errors_propagate_from_the_executor() {
        let graph = branching_graph();
        let params = NetworkParams::synthetic_for_graph(&graph, &[Precision::new(7).unwrap()], 3);
        let bad_input = Tensor3::zeros(Shape3::new(1, 4, 4));
        let err = NetworkEngine::new(geometry())
            .run(&graph, &params, &bad_input, InferenceOptions::default())
            .unwrap_err();
        assert!(matches!(err, InferenceError::ShapeMismatch { .. }));
    }

    fn mlp_graph() -> LayerGraph {
        GraphBuilder::new("mlp")
            .fully_connected("fc1", GRAPH_INPUT, FcSpec::new(96, 48))
            .fully_connected("fc2", "fc1", FcSpec::new(48, 10))
            .build()
            .unwrap()
    }

    fn mlp_inputs(n: usize) -> Vec<Tensor3> {
        (0..n)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(300 + i as u64);
                Tensor3::from_vec(
                    Shape3::new(1, 1, 96),
                    synthetic_activations(
                        &mut rng,
                        96,
                        Precision::new(8).unwrap(),
                        ValueDistribution::activations(),
                    ),
                )
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn packed_model_cache_is_bit_identical_to_uncached_runs() {
        let options = InferenceOptions::default();
        // Conv + pool + concat + FC graph, and an FC-only (MLP) graph: the
        // two cache paths (filter planes, FC row transposes).
        for (graph, batch) in [(branching_graph(), inputs(3)), (mlp_graph(), mlp_inputs(3))] {
            let params =
                NetworkParams::synthetic_for_graph(&graph, &[Precision::new(7).unwrap()], 3);
            let engine = NetworkEngine::new(geometry()).with_threads(2);
            let cache = engine.prepack(&graph, &params);
            assert_eq!(cache.graph_name(), graph.name());
            assert_eq!(
                cache.packed_layers(),
                graph.compute_layers().count(),
                "every compute layer of {} fits under the prepack limit",
                graph.name()
            );
            assert!(cache.approx_bytes() > 0);
            let uncached = engine.run_batch(&graph, &params, &batch, options).unwrap();
            let cached = engine
                .run_batch_cached(&graph, &params, &batch, options, Some(&cache))
                .unwrap();
            assert_eq!(cached, uncached);
            // The cache stays valid across thread counts and batch shapes.
            let single = NetworkEngine::new(geometry())
                .run_batch_cached(
                    &graph,
                    &params,
                    std::slice::from_ref(&batch[0]),
                    options,
                    Some(&cache),
                )
                .unwrap();
            assert_eq!(single[0], uncached[0]);
        }
    }

    #[test]
    fn oversized_fc_layers_cache_precision_but_stream_rows() {
        let graph = mlp_graph();
        let params = NetworkParams::synthetic_for_graph(&graph, &[Precision::new(7).unwrap()], 3);
        let engine = NetworkEngine::new(geometry());
        let cache = engine.prepack(&graph, &params);
        // Force the "too big to prepack" path by dropping the packed rows,
        // keeping only the cached precisions — results must not change.
        let stripped = PackedModel {
            graph_name: cache.graph_name.clone(),
            layers: cache
                .layers
                .iter()
                .map(|(name, layer)| {
                    (
                        name.clone(),
                        PreparedLayer {
                            rows: None,
                            pw: layer.pw,
                        },
                    )
                })
                .collect(),
        };
        assert_eq!(stripped.packed_layers(), 0);
        // The full cache packed everything, the stripped one nothing — the
        // unpacked-layer report (surfaced by loom-serve `/metrics`) must say so.
        assert!(cache.unpacked_fc_layers().is_empty());
        let mut unpacked = stripped.unpacked_fc_layers();
        unpacked.sort();
        let mut expected: Vec<String> = stripped.layers.keys().cloned().collect();
        expected.sort();
        assert_eq!(unpacked, expected);
        assert!(!expected.is_empty());
        let batch = mlp_inputs(2);
        let options = InferenceOptions::default();
        let uncached = engine.run_batch(&graph, &params, &batch, options).unwrap();
        let cached = engine
            .run_batch_cached(&graph, &params, &batch, options, Some(&stripped))
            .unwrap();
        assert_eq!(cached, uncached);
    }

    #[test]
    fn prepacking_the_same_model_twice_hits_the_weight_store() {
        let graph = branching_graph();
        let params = NetworkParams::synthetic_for_graph(&graph, &[Precision::new(6).unwrap()], 5);
        let engine = NetworkEngine::new(geometry());
        let first = engine.prepack(&graph, &params);
        let before = crate::loom::store::stats();
        let second = engine.prepack(&graph, &params);
        let after = crate::loom::store::stats();
        // Every container in the second cache is served from the store: no
        // new packs, only hits.
        assert_eq!(
            after.packs(),
            before.packs(),
            "second prepack must not repack"
        );
        assert!(after.hits() >= before.hits() + first.packed_layers() as u64);
        assert_eq!(second.packed_layers(), first.packed_layers());
        assert_eq!(second.approx_bytes(), first.approx_bytes());
        let stats = second.pack_stats();
        assert!(stats.compressed_bytes > 0);
        assert!(stats.compressed_bytes <= stats.dense_bytes);
        assert!(stats.compressed_stream_bits <= stats.dense_stream_bits);
    }

    #[test]
    #[should_panic(expected = "different model")]
    fn cache_for_a_different_graph_is_rejected() {
        let graph = branching_graph();
        let params = NetworkParams::synthetic_for_graph(&graph, &[Precision::new(7).unwrap()], 3);
        let other = mlp_graph();
        let other_params =
            NetworkParams::synthetic_for_graph(&other, &[Precision::new(7).unwrap()], 3);
        let engine = NetworkEngine::new(geometry());
        let cache = engine.prepack(&other, &other_params);
        let _ = engine.run_batch_cached(
            &graph,
            &params,
            &inputs(1),
            InferenceOptions::default(),
            Some(&cache),
        );
    }
}
