//! Whole-network, batched execution on the functional Loom engine.
//!
//! [`FunctionalLoom`] answers "does
//! one layer compute the right numbers"; this module chains it over a whole
//! [`LayerGraph`] — branches, concats, pooling, re-quantization and all — and
//! batches inputs. The executor is *shared* with the golden model
//! (`loom_model::graph`): [`NetworkEngine`] plugs the functional datapath in
//! as a [`GraphCompute`] backend, so scheduling, re-quantization, ReLU,
//! pooling and concatenation are literally the same code on both paths and
//! the traces must be bit-identical if (and only if) the inner products are.
//!
//! Execution is *lock-step* across the batch
//! ([`LayerGraph::run_batch_with`]): every node runs for all items before the
//! schedule advances, so a convolution's weight planes are packed **once per
//! batch** and the worker pool is fed fine-grained (item × window-group)
//! tasks — not whole batch items — which keeps all threads busy even when
//! the batch is smaller than the pool. Merging follows the sweep runner's
//! ordered worker-queue pattern, so results are deterministic at any thread
//! count.
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
use crate::loom::functional::{FunctionalLoom, PackStats, PackedRows};
use crate::loom::store;
use loom_model::fixed::required_precision;
use loom_model::graph::{GraphCompute, LayerGraph};
use loom_model::inference::{InferenceError, InferenceOptions, InferenceTrace, NetworkParams};
use loom_model::layer::{ConvSpec, FcSpec, LayerKind};
use loom_model::tensor::{Tensor3, Tensor4};
use loom_model::Precision;
use std::collections::HashMap;
use std::sync::Arc;

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

/// Fully-connected layers whose weight count exceeds this stream their row
/// transpose per dispatch instead of being held in a [`PackedModel`]: a
/// VGG-19-class `fc6` (~100M weights) would pin hundreds of megabytes of
/// bit-plane blocks per served model, while everything up to a few million
/// weights — every reduced network and MLP head — caches comfortably.
pub const FC_PREPACK_MAX_WEIGHTS: usize = 1 << 22;

/// One fully-connected layer's cache entry. `rows` is `None` above
/// [`FC_PREPACK_MAX_WEIGHTS`] (the dispatch streams the transpose as
/// before); the weight precision is cached either way, from the packed rows
/// when there are any.
struct CachedFc {
    rows: Option<Arc<PackedRows>>,
    pw: Precision,
}

/// A model's weights pre-packed for the wide datapath, built once
/// ([`NetworkEngine::prepack`]) and shared read-only across every request
/// that serves the model: per-conv-layer filter planes, per-FC-layer row
/// transposes (bounded by [`FC_PREPACK_MAX_WEIGHTS`]) and per-layer weight
/// precisions (packed planes carry their own).
/// [`NetworkEngine::run_batch_cached`] consults it by layer name; results
/// are bit-identical with and without the cache — only the per-dispatch
/// packing and precision scans disappear.
///
/// The cache is only valid for the exact `(graph, params)` pair it was built
/// from; [`NetworkEngine::run_batch_cached`] rejects a cache whose graph
/// name differs, and the packing layers assert block counts against the
/// layer specs.
pub struct PackedModel {
    graph_name: String,
    conv: HashMap<String, Arc<PackedRows>>,
    fc: HashMap<String, CachedFc>,
}

impl PackedModel {
    /// The graph this cache was packed for.
    pub fn graph_name(&self) -> &str {
        &self.graph_name
    }

    /// Number of layers with cached packed weights (precision-only FC
    /// entries above the prepack limit do not count).
    pub fn packed_layers(&self) -> usize {
        self.conv.len() + self.fc.values().filter(|f| f.rows.is_some()).count()
    }

    /// Every cached container: conv filter planes and packed FC rows.
    fn containers(&self) -> impl Iterator<Item = &PackedRows> {
        let conv = self.conv.values().map(|planes| &**planes);
        conv.chain(self.fc.values().filter_map(|f| f.rows.as_deref()))
    }

    /// Approximate resident size of the packed (compressed) planes, for
    /// observability.
    pub fn approx_bytes(&self) -> usize {
        self.containers().map(PackedRows::approx_bytes).sum()
    }

    /// Names of fully-connected layers whose weight count exceeded
    /// [`FC_PREPACK_MAX_WEIGHTS`] and therefore stream their row transpose
    /// per dispatch instead of being cached (sorted for stable reporting).
    /// Empty for every reduced zoo network and MLP head — non-empty means
    /// the model pays the streaming path on every request.
    pub fn unpacked_fc_layers(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .fc
            .iter()
            .filter(|(_, fc)| fc.rows.is_none())
            .map(|(name, _)| name.clone())
            .collect();
        names.sort();
        names
    }

    /// Aggregated pack cost and compression footprint over every cached
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

/// Batched, parallel functional execution of whole layer graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkEngine {
    engine: FunctionalLoom,
    threads: usize,
}

impl NetworkEngine {
    /// Creates an engine with the given geometry, dynamic precision
    /// detection enabled, and one worker thread.
    pub fn new(geometry: LoomGeometry) -> Self {
        NetworkEngine {
            engine: FunctionalLoom::new(geometry),
            threads: 1,
        }
    }

    /// Sets the worker-thread budget (clamped to at least 1). Every
    /// convolution fans (batch item × window group) tasks — and every
    /// fully-connected layer (output-row group) tasks — across one pool of
    /// this size, so the pool stays busy even when the batch is smaller than
    /// the thread count. Results are bit-identical at any thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Disables runtime precision detection.
    pub fn without_dynamic_precision(mut self) -> Self {
        self.engine = self.engine.without_dynamic_precision();
        self
    }

    /// The worker-thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The per-layer engine this network engine drives.
    pub fn layer_engine(&self) -> FunctionalLoom {
        self.engine
    }

    /// Runs one input through the graph on the functional datapath, with the
    /// full thread budget fanned across each layer's window / output-row
    /// groups. Exactly [`NetworkEngine::run_batch`] with a batch of one.
    ///
    /// Per-layer precisions are taken from the data itself
    /// ([`required_precision`] of the layer's input activations and weights;
    /// a convolution's packed filter planes record the latter), so the run
    /// is self-contained and deterministic.
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

    /// Runs every input through the graph, lock-step: each layer's weight
    /// planes are packed once for the whole batch, and the worker pool
    /// processes (item × window-group) convolution tasks and (output-row
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

    /// Packs every compute layer's weights for the wide datapath up front:
    /// conv filter planes, FC row transposes (layers up to
    /// [`FC_PREPACK_MAX_WEIGHTS`] weights) and per-layer weight precisions.
    /// Packed planes record their own precision, so only the FC layers too
    /// big to hold are scanned for it. Build once per served model, then
    /// pass to [`NetworkEngine::run_batch_cached`] on every request.
    ///
    /// # Panics
    ///
    /// Panics if `params` does not match the graph's compute layers (wrong
    /// count or weight lengths) — the same contract [`LayerGraph::run_batch`]
    /// enforces at dispatch time.
    pub fn prepack(&self, graph: &LayerGraph, params: &NetworkParams) -> PackedModel {
        let mut conv = HashMap::new();
        let mut fc = HashMap::new();
        for ((name, kind), weights) in graph.compute_layers().zip(params.layers()) {
            assert_eq!(
                name, weights.layer_name,
                "params must list weights in compute-layer order"
            );
            match kind {
                LayerKind::Conv(spec) => {
                    conv.insert(name.to_string(), store::conv_planes(spec, &weights.values));
                }
                LayerKind::FullyConnected(spec) => {
                    let rows = (weights.values.len() <= FC_PREPACK_MAX_WEIGHTS)
                        .then(|| store::fc_rows(spec, &weights.values));
                    let pw = rows
                        .as_ref()
                        .map_or_else(|| required_precision(&weights.values), |rows| rows.pw());
                    fc.insert(name.to_string(), CachedFc { rows, pw });
                }
                LayerKind::MaxPool(_) => {}
            }
        }
        PackedModel {
            graph_name: graph.name().to_string(),
            conv,
            fc,
        }
    }

    /// [`NetworkEngine::run_batch`] with a per-model weight cache: layers
    /// found in `cache` skip their per-dispatch weight packing and precision
    /// scan. Results are bit-identical to the uncached run at any thread
    /// count.
    ///
    /// # Errors
    ///
    /// As [`NetworkEngine::run_batch`], plus
    /// [`InferenceError::ShapeMismatch`]-free sanity: a cache packed for a
    /// different graph (by name) panics — serving must never silently mix
    /// models.
    ///
    /// # Panics
    ///
    /// Panics if `cache` was packed for a different graph, or if a cached
    /// layer's block counts do not tile the layer spec (a stale cache).
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
        let mut backend = FunctionalCompute {
            engine: self.engine.with_threads(self.threads),
            cache,
            cycles: vec![0; inputs.len()],
            reduced_groups: vec![0; inputs.len()],
        };
        let traces = graph.run_batch_with(params, inputs, options, &[], &mut backend)?;
        Ok(traces
            .into_iter()
            .zip(backend.cycles)
            .zip(backend.reduced_groups)
            .map(|((trace, cycles), reduced_groups)| NetworkRun {
                trace,
                cycles,
                reduced_groups,
            })
            .collect())
    }
}

/// The functional Loom engine as a [`GraphCompute`] backend: wide-datapath
/// inner products plus per-item cycle and reduced-group accounting. The batch
/// entry points pack each layer's weight planes once and fan fine-grained
/// tasks across the worker pool; a single item is a batch of one.
struct FunctionalCompute<'c> {
    engine: FunctionalLoom,
    cache: Option<&'c PackedModel>,
    cycles: Vec<u64>,
    reduced_groups: Vec<u64>,
}

impl GraphCompute for FunctionalCompute<'_> {
    fn conv(
        &mut self,
        layer: &str,
        spec: &ConvSpec,
        input: &Tensor3,
        weights: &Tensor4,
    ) -> Vec<i64> {
        self.conv_batch(layer, spec, std::slice::from_ref(input), weights)
            .pop()
            .expect("one output per input")
    }

    fn fc(&mut self, layer: &str, spec: &FcSpec, input: &[i32], weights: &[i32]) -> Vec<i64> {
        self.fc_batch(layer, spec, &[input.to_vec()], weights)
            .pop()
            .expect("one output per input")
    }

    fn conv_batch(
        &mut self,
        layer: &str,
        spec: &ConvSpec,
        inputs: &[Tensor3],
        weights: &Tensor4,
    ) -> Vec<Vec<i64>> {
        // The layer's weight planes are packed once for the whole batch, and
        // carry their weight precision.
        let filters = match self.cache.and_then(|cache| cache.conv.get(layer)) {
            Some(planes) => Arc::clone(planes),
            None => store::conv_planes(spec, weights.as_slice()),
        };
        let items: Vec<_> = inputs
            .iter()
            .map(|input| (input, required_precision(input.as_slice())))
            .collect();
        self.engine
            .run_conv_batch(spec, &items, &filters, filters.pw())
            .into_iter()
            .enumerate()
            .map(|(i, run)| {
                self.cycles[i] += run.cycles;
                self.reduced_groups[i] += run.reduced_groups;
                run.outputs
            })
            .collect()
    }

    fn fc_batch(
        &mut self,
        layer: &str,
        spec: &FcSpec,
        inputs: &[Vec<i32>],
        weights: &[i32],
    ) -> Vec<Vec<i64>> {
        let cached = self.cache.and_then(|cache| cache.fc.get(layer));
        let pw = match cached {
            Some(cached) => cached.pw,
            None => required_precision(weights),
        };
        let cycles = self.engine.fc_cycles(spec, pw);
        for item_cycles in &mut self.cycles[..inputs.len()] {
            *item_cycles += cycles;
        }
        let item_slices: Vec<&[i32]> = inputs.iter().map(|v| v.as_slice()).collect();
        let rows = cached.and_then(|cached| cached.rows.as_deref());
        self.engine
            .run_fc_batch(spec, &item_slices, weights, pw, rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loom::sip::serial_conv;
    use loom_model::graph::{GraphBuilder, GRAPH_INPUT};
    use loom_model::layer::PoolSpec;
    use loom_model::reference::fc_forward;
    use loom_model::synthetic::{synthetic_activations, ValueDistribution};
    use loom_model::tensor::Shape3;
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
            conv: HashMap::new(),
            fc: cache
                .fc
                .iter()
                .map(|(name, fc)| {
                    (
                        name.clone(),
                        CachedFc {
                            rows: None,
                            pw: fc.pw,
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
        let mut expected: Vec<String> = stripped.fc.keys().cloned().collect();
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
