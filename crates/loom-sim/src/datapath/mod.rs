//! Functional comparator datapaths behind one seam.
//!
//! Every accelerator in the [`Registry`](crate::accelerator::Registry) — not
//! just Loom — can execute real networks and produce real numbers. This
//! module defines the [`FunctionalDatapath`] trait those value-computing
//! engines implement (activation-serial Stripes, which is DStripes with its
//! runtime precision detection switched on, bit-parallel DPNN, and the
//! bit-serial Loom engine itself), plus the one adapter that plugs any of
//! them into the shared golden graph executor
//! ([`LayerGraph::run_batch_with`]) so scheduling, re-quantization, ReLU,
//! pooling and concatenation are literally the same code on every backend.
//! [`LoomDatapath`] is also how [`crate::loom::NetworkEngine`] and
//! `loom-serve` run Loom networks, so serving, the benchmarks and the
//! conformance harness all run the same Loom code.
//!
//! The payoff is differential testing: [`crate::validate::cross_validate`]
//! runs every registered accelerator over the same network and asserts all of
//! them land bit-exactly on the golden model — and therefore on each other.
//! Adding a backend stays one `Accelerator` impl plus one registry entry;
//! overriding [`Accelerator::functional_datapath`](crate::accelerator::Accelerator::functional_datapath)
//! buys it conformance coverage for free.
//!
//! # Examples
//!
//! Run a network on the functional Stripes datapath and check it against the
//! golden model:
//!
//! ```
//! use loom_model::graph::LayerGraph;
//! use loom_model::inference::{InferenceOptions, NetworkParams};
//! use loom_model::layer::{ConvSpec, FcSpec};
//! use loom_model::network::NetworkBuilder;
//! use loom_model::tensor::{Shape3, Tensor3};
//! use loom_model::Precision;
//! use loom_sim::config::EquivalentConfig;
//! use loom_sim::datapath::{run_network, FunctionalStripes};
//!
//! let graph = LayerGraph::from_network(
//!     &NetworkBuilder::new("tiny")
//!         .conv("conv1", ConvSpec::simple(1, 6, 6, 2, 3))
//!         .fully_connected("fc1", FcSpec::new(2 * 4 * 4, 4))
//!         .build()
//!         .unwrap(),
//! );
//! let params = NetworkParams::synthetic_for_graph(&graph, &[Precision::new(4).unwrap()], 1);
//! let input = Tensor3::from_vec(Shape3::new(1, 6, 6), (0..36).collect()).unwrap();
//! let options = InferenceOptions::default();
//!
//! let stripes = FunctionalStripes::new(EquivalentConfig::BASELINE_128.dpnn());
//! let run = run_network(&stripes, &graph, &params, &input, options).unwrap();
//! let golden = graph.run(&params, &input, options).unwrap();
//! assert_eq!(run.trace, golden);
//! assert!(run.cycles > 0);
//! ```

use crate::config::LoomGeometry;
use crate::loom::functional::{FunctionalLoom, FunctionalRun};
use crate::loom::network::PackedModel;
use crate::loom::store::PreparedLayer;
use crate::loom::NetworkRun;
use loom_model::fixed::required_precision;
use loom_model::graph::{GraphCompute, LayerGraph};
use loom_model::inference::{InferenceError, InferenceOptions, NetworkParams};
use loom_model::layer::{ConvSpec, FcSpec, LayerKind};
use loom_model::tensor::{Tensor3, Tensor4};

pub mod dpnn;
pub mod stripes;

pub use dpnn::FunctionalDpnn;
pub use stripes::{serial_activation_inner_product, FunctionalStripes, StripesConvRun};

/// A functional (value-computing) image of an accelerator's datapath.
///
/// Implementations compute real layer outputs — bit-exact against the golden
/// i64 reference — while accounting cycles the way the accelerator's
/// analytic model does. Per-layer precisions are derived from the data itself
/// ([`required_precision`] of the inputs and weights), so a run is
/// self-contained and deterministic. `layer` is the graph node's name, which
/// a datapath may use to find weights it prepared ahead of the run.
pub trait FunctionalDatapath: Send + Sync {
    /// Computes one convolutional layer's accumulators (golden filter-major
    /// layout) plus the cycles and reduced-group count the datapath spent.
    fn conv(
        &self,
        layer: &str,
        spec: &ConvSpec,
        input: &Tensor3,
        weights: &Tensor4,
    ) -> FunctionalRun;

    /// Computes one fully-connected layer's accumulators (output order) plus
    /// cycle accounting.
    fn fc(&self, layer: &str, spec: &FcSpec, input: &[i32], weights: &[i32]) -> FunctionalRun;

    /// Computes one convolutional layer for every batch item, one run per
    /// item in item order. The default loops [`FunctionalDatapath::conv`];
    /// a datapath that can share work across the batch overrides it, with
    /// results identical to the loop.
    fn conv_batch(
        &self,
        layer: &str,
        spec: &ConvSpec,
        inputs: &[Tensor3],
        weights: &Tensor4,
    ) -> Vec<FunctionalRun> {
        inputs
            .iter()
            .map(|input| self.conv(layer, spec, input, weights))
            .collect()
    }

    /// Computes one fully-connected layer for every batch item, as
    /// [`FunctionalDatapath::conv_batch`] does for convolutions.
    fn fc_batch(
        &self,
        layer: &str,
        spec: &FcSpec,
        inputs: &[Vec<i32>],
        weights: &[i32],
    ) -> Vec<FunctionalRun> {
        inputs
            .iter()
            .map(|input| self.fc(layer, spec, input, weights))
            .collect()
    }
}

/// The Loom engine as a [`FunctionalDatapath`], and the one way a Loom
/// network runs ([`crate::loom::NetworkEngine`] is a thin front over it): the
/// bit-serial SIP grid ([`FunctionalLoom`]), with activation precisions
/// detected from the data. A batch runs lock-step: its (item × task) jobs
/// share one worker pool. Each layer's packed rows and Pw are resolved once
/// per batch:
/// from the borrowed [`PackedModel`] when it holds the layer, else through
/// the weight store ([`crate::loom::store`]).
#[derive(Clone, Copy)]
pub struct LoomDatapath<'m> {
    engine: FunctionalLoom,
    model: Option<&'m PackedModel>,
}

impl<'m> LoomDatapath<'m> {
    /// Wraps the functional Loom engine at the given geometry, fanning each
    /// layer across `threads` workers.
    pub fn new(geometry: LoomGeometry, threads: usize) -> Self {
        Self::with_model(FunctionalLoom::new(geometry).with_threads(threads), None)
    }

    /// `engine`, reading prepared weights from `model` for the layers it
    /// holds.
    pub(crate) fn with_model(engine: FunctionalLoom, model: Option<&'m PackedModel>) -> Self {
        LoomDatapath { engine, model }
    }

    /// `layer`'s packed rows and Pw: the model's when it holds the layer,
    /// resolved from the weights otherwise.
    fn prepared(&self, layer: &str, kind: LayerKind, weights: &[i32]) -> PreparedLayer {
        match self.model.and_then(|model| model.layer(layer)) {
            Some(prepared) => prepared.clone(),
            None => PreparedLayer::new(&kind, weights),
        }
    }
}

impl FunctionalDatapath for LoomDatapath<'_> {
    fn conv(
        &self,
        layer: &str,
        spec: &ConvSpec,
        input: &Tensor3,
        weights: &Tensor4,
    ) -> FunctionalRun {
        self.conv_batch(layer, spec, std::slice::from_ref(input), weights)
            .pop()
            .expect("one run per input")
    }

    fn fc(&self, layer: &str, spec: &FcSpec, input: &[i32], weights: &[i32]) -> FunctionalRun {
        self.fc_batch(layer, spec, &[input.to_vec()], weights)
            .pop()
            .expect("one run per input")
    }

    fn conv_batch(
        &self,
        layer: &str,
        spec: &ConvSpec,
        inputs: &[Tensor3],
        weights: &Tensor4,
    ) -> Vec<FunctionalRun> {
        let prepared = self.prepared(layer, LayerKind::Conv(*spec), weights.as_slice());
        let filters = prepared.rows.expect("convolutions always pack");
        let items: Vec<_> = inputs
            .iter()
            .map(|input| (input, required_precision(input.as_slice())))
            .collect();
        self.engine
            .run_conv_batch(spec, &items, &filters, prepared.pw)
    }

    fn fc_batch(
        &self,
        layer: &str,
        spec: &FcSpec,
        inputs: &[Vec<i32>],
        weights: &[i32],
    ) -> Vec<FunctionalRun> {
        let prepared = self.prepared(layer, LayerKind::FullyConnected(*spec), weights);
        let items: Vec<&[i32]> = inputs.iter().map(Vec::as_slice).collect();
        let rows = prepared.rows.as_deref();
        self.engine
            .run_fc_batch(spec, &items, weights, prepared.pw, rows)
    }
}

/// Any [`FunctionalDatapath`] as a [`GraphCompute`] backend, with each
/// item's cycles and reduced groups attributed to that item. The executor
/// hands it whole batches, which go to the datapath's batch entry points.
struct DatapathCompute<'a> {
    backend: &'a dyn FunctionalDatapath,
    cycles: Vec<u64>,
    reduced_groups: Vec<u64>,
}

impl DatapathCompute<'_> {
    fn record(&mut self, runs: Vec<FunctionalRun>) -> Vec<Vec<i64>> {
        runs.into_iter()
            .enumerate()
            .map(|(item, run)| {
                self.cycles[item] += run.cycles;
                self.reduced_groups[item] += run.reduced_groups;
                run.outputs
            })
            .collect()
    }
}

impl GraphCompute for DatapathCompute<'_> {
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
        let runs = self.backend.conv_batch(layer, spec, inputs, weights);
        self.record(runs)
    }

    fn fc_batch(
        &mut self,
        layer: &str,
        spec: &FcSpec,
        inputs: &[Vec<i32>],
        weights: &[i32],
    ) -> Vec<Vec<i64>> {
        let runs = self.backend.fc_batch(layer, spec, inputs, weights);
        self.record(runs)
    }
}

/// Runs one input through a graph on any functional datapath, sharing the
/// golden executor for everything that is not an inner product. Exactly
/// [`run_network_batch`] with a batch of one.
///
/// # Errors
///
/// As [`LayerGraph::run`]: shape mismatches, empty graphs, or malformed
/// concatenations.
pub fn run_network(
    backend: &dyn FunctionalDatapath,
    graph: &LayerGraph,
    params: &NetworkParams,
    input: &Tensor3,
    options: InferenceOptions,
) -> Result<NetworkRun, InferenceError> {
    Ok(
        run_network_batch(backend, graph, params, std::slice::from_ref(input), options)?
            .pop()
            .expect("one run per input"),
    )
}

/// Runs every input through a graph on any functional datapath, with
/// per-item cycle and reduced-group attribution.
///
/// # Errors
///
/// As [`LayerGraph::run_batch`].
pub fn run_network_batch(
    backend: &dyn FunctionalDatapath,
    graph: &LayerGraph,
    params: &NetworkParams,
    inputs: &[Tensor3],
    options: InferenceOptions,
) -> Result<Vec<NetworkRun>, InferenceError> {
    let mut compute = DatapathCompute {
        backend,
        cycles: vec![0; inputs.len()],
        reduced_groups: vec![0; inputs.len()],
    };
    let traces = graph.run_batch_with(params, inputs, options, &[], &mut compute)?;
    Ok(traces
        .into_iter()
        .zip(compute.cycles)
        .zip(compute.reduced_groups)
        .map(|((trace, cycles), reduced_groups)| NetworkRun {
            trace,
            cycles,
            reduced_groups,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EquivalentConfig;

    use loom_model::graph::{GraphBuilder, GRAPH_INPUT};
    use loom_model::synthetic::{synthetic_activations, ValueDistribution};
    use loom_model::tensor::Shape3;
    use loom_model::Precision;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn branching_graph() -> LayerGraph {
        let b3 = ConvSpec {
            padding: 1,
            ..ConvSpec::simple(4, 6, 6, 3, 3)
        };
        GraphBuilder::new("fork")
            .conv("stem", GRAPH_INPUT, ConvSpec::simple(2, 8, 8, 4, 3))
            .conv("b1", "stem", ConvSpec::simple(4, 6, 6, 2, 1))
            .conv("b3", "stem", b3)
            .concat("merge", &["b1", "b3"])
            .fully_connected("fc", "merge", FcSpec::new((2 + 3) * 36, 6))
            .build()
            .unwrap()
    }

    fn input(seed: u64) -> Tensor3 {
        let mut rng = StdRng::seed_from_u64(seed);
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
    }

    #[test]
    fn every_builtin_datapath_matches_golden_on_a_branching_graph() {
        let graph = branching_graph();
        let params = NetworkParams::synthetic_for_graph(&graph, &[Precision::new(7).unwrap()], 3);
        let options = InferenceOptions::default();
        let inputs = [input(1), input(2)];
        let golden = graph.run_batch(&params, &inputs, options).unwrap();

        let geo = EquivalentConfig::BASELINE_128;
        let backends: Vec<(&str, Box<dyn FunctionalDatapath>)> = vec![
            ("dpnn", Box::new(FunctionalDpnn::new(geo.dpnn()))),
            ("stripes", Box::new(FunctionalStripes::new(geo.dpnn()))),
            ("dstripes", Box::new(FunctionalStripes::dynamic(geo.dpnn()))),
            (
                "loom",
                Box::new(LoomDatapath::new(
                    geo.loom(crate::config::LoomVariant::Lm1b),
                    2,
                )),
            ),
        ];
        for (name, backend) in &backends {
            let runs =
                run_network_batch(backend.as_ref(), &graph, &params, &inputs, options).unwrap();
            assert_eq!(runs.len(), 2, "{name}");
            for (run, golden) in runs.iter().zip(golden.iter()) {
                assert_eq!(&run.trace, golden, "{name} diverged from golden");
                assert!(run.cycles > 0, "{name}");
            }
            // Batch of N equals N batches of one.
            for (i, one) in inputs.iter().enumerate() {
                let single = run_network(backend.as_ref(), &graph, &params, one, options).unwrap();
                assert_eq!(&single, &runs[i], "{name} batch/single divergence");
            }
        }
    }
}
