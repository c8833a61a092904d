//! The outside-in per-layer trace: a benchmark-side [`GraphCompute`] that
//! times every call into the functional engine's public per-layer entry
//! points ([`FunctionalLoom::run_conv`] / [`FunctionalLoom::run_fc`]) while
//! the shared executor ([`LayerGraph::run_batch_with`]) walks the graph.
//!
//! For a batch of one this reproduces `NetworkEngine::run` exactly — the same
//! precision detection, plans, trace, cycles and reduced groups — so the
//! backend calls plus the executor's own time add up to the untraced run.

use crate::stats::{median, spearman, Digest};
use loom_core::loom_model::fixed::required_precision;
use loom_core::loom_model::graph::{GraphCompute, LayerGraph};
use loom_core::loom_model::inference::{InferenceOptions, InferenceTrace, NetworkParams};
use loom_core::loom_model::layer::{ConvSpec, FcSpec};
use loom_core::loom_model::tensor::{Tensor3, Tensor4};
use loom_core::loom_model::Precision;
use loom_core::loom_sim::loom::cost;
use loom_core::loom_sim::loom::FunctionalLoom;
use std::time::Instant;

/// The layer classes per-layer metrics are grouped by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Convolutions with a kernel larger than 1×1.
    Conv,
    /// 1×1 convolutions.
    Conv1x1,
    /// Fully-connected layers.
    Fc,
}

impl Class {
    /// Every class, in report order.
    pub const ALL: [Class; 3] = [Class::Conv, Class::Conv1x1, Class::Fc];

    /// The metric-name stem.
    pub fn name(self) -> &'static str {
        match self {
            Class::Conv => "conv",
            Class::Conv1x1 => "conv1x1",
            Class::Fc => "fc",
        }
    }
}

/// One backend call: a compute node of the graph.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeCall {
    /// Node name.
    pub name: String,
    /// Layer class.
    pub class: Class,
    /// Wall time of the call, including the precision scans the untraced
    /// engine also does per dispatch.
    pub ns: f64,
    /// Multiply-accumulates.
    pub macs: u64,
    /// Activation precision the node ran at: detected on a convolution's
    /// input, full width for a fully-connected layer.
    pub pa: Precision,
    /// Weight precision detected on the node's weights.
    pub pw: Precision,
    /// Functional cycles the call reported.
    pub cycles: u64,
    /// Activation groups whose precision dynamic detection reduced.
    pub reduced_groups: u64,
    /// The cost model's estimate of the node's parallel work.
    pub cost: u64,
}

/// The timing wrapper around the functional engine.
struct TracedCompute {
    engine: FunctionalLoom,
    calls: Vec<NodeCall>,
}

impl GraphCompute for TracedCompute {
    fn conv(
        &mut self,
        layer: &str,
        spec: &ConvSpec,
        input: &Tensor3,
        weights: &Tensor4,
    ) -> Vec<i64> {
        let started = Instant::now();
        let pa = required_precision(input.as_slice());
        let pw = required_precision(weights.as_slice());
        let run = self.engine.run_conv(spec, input, weights, pa, pw);
        let ns = started.elapsed().as_nanos() as f64;
        self.calls.push(NodeCall {
            name: layer.to_string(),
            class: if spec.kernel_h == 1 && spec.kernel_w == 1 {
                Class::Conv1x1
            } else {
                Class::Conv
            },
            ns,
            macs: spec.macs(),
            pa,
            pw,
            cycles: run.cycles,
            reduced_groups: run.reduced_groups,
            cost: cost::conv_cost(spec, pa, pw),
        });
        run.outputs
    }

    fn fc(&mut self, layer: &str, spec: &FcSpec, input: &[i32], weights: &[i32]) -> Vec<i64> {
        let started = Instant::now();
        let pw = required_precision(weights);
        let run = self.engine.run_fc(spec, input, weights, pw);
        let ns = started.elapsed().as_nanos() as f64;
        self.calls.push(NodeCall {
            name: layer.to_string(),
            class: Class::Fc,
            ns,
            macs: spec.macs(),
            // The engine streams FC activations at full width, as
            // `cost::fc_cost` models them.
            pa: Precision::FULL,
            pw,
            cycles: run.cycles,
            reduced_groups: run.reduced_groups,
            cost: cost::fc_cost(spec, 1, pw),
        });
        run.outputs
    }
}

/// The timings of one traced forward pass.
pub struct TracedRun {
    /// Wall time of the whole pass, in nanoseconds.
    pub wall_ns: f64,
    /// Backend calls in execution order.
    pub calls: Vec<NodeCall>,
}

impl TracedRun {
    /// Total functional cycles.
    pub fn cycles(&self) -> u64 {
        self.calls.iter().map(|c| c.cycles).sum()
    }

    /// Total reduced activation groups.
    pub fn reduced_groups(&self) -> u64 {
        self.calls.iter().map(|c| c.reduced_groups).sum()
    }
}

/// Runs one input through `graph` with every backend call timed, on
/// `threads` pool workers. Callers verify the trace and drop it before the
/// next pass, as an untraced caller would.
pub fn traced_run(
    graph: &LayerGraph,
    params: &NetworkParams,
    input: &Tensor3,
    options: InferenceOptions,
    engine: FunctionalLoom,
    threads: usize,
) -> (InferenceTrace, TracedRun) {
    let mut backend = TracedCompute {
        engine: engine.with_threads(threads),
        calls: Vec::with_capacity(graph.nodes().len()),
    };
    let started = Instant::now();
    let trace = graph
        .run_batch_with(
            params,
            std::slice::from_ref(input),
            options,
            &[],
            &mut backend,
        )
        .expect("benchmark inputs match their graphs")
        .pop()
        .expect("one trace per input");
    let wall_ns = started.elapsed().as_nanos() as f64;
    (
        trace,
        TracedRun {
            wall_ns,
            calls: backend.calls,
        },
    )
}

/// The digest results are verified by: every layer's name, outputs,
/// accumulators and re-quantization shift.
pub fn trace_digest(trace: &InferenceTrace) -> Digest {
    let mut d = Digest::default();
    for layer in &trace.layers {
        d.text(&layer.layer_name);
        d.i32s(&layer.outputs);
        d.i64s(&layer.accumulators);
        d.word(u64::from(layer.requant_shift));
    }
    d
}

/// Per-node medians over several traced passes of one network.
pub struct NodeProfile {
    /// One row per compute node, with `ns` the median over passes.
    pub rows: Vec<NodeCall>,
    /// Median over passes of the wall time not spent in backend calls.
    pub self_ns: f64,
}

impl NodeProfile {
    /// Folds passes of the same network and input into medians.
    ///
    /// # Panics
    ///
    /// Panics if `passes` is empty or the passes disagree on their nodes.
    pub fn from_passes(passes: &[TracedRun]) -> NodeProfile {
        let first = passes.first().expect("at least one traced pass");
        let rows = first
            .calls
            .iter()
            .enumerate()
            .map(|(i, call)| {
                let ns: Vec<f64> = passes
                    .iter()
                    .map(|p| {
                        assert_eq!(p.calls[i].name, call.name, "passes walk the same nodes");
                        p.calls[i].ns
                    })
                    .collect();
                NodeCall {
                    ns: median(&ns),
                    ..call.clone()
                }
            })
            .collect();
        let self_ns: Vec<f64> = passes
            .iter()
            .map(|p| p.wall_ns - p.calls.iter().map(|c| c.ns).sum::<f64>())
            .collect();
        NodeProfile {
            rows,
            self_ns: median(&self_ns),
        }
    }

    /// Summed median time of the class's nodes, in nanoseconds.
    pub fn class_ns(&self, class: Class) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.class == class)
            .map(|r| r.ns)
            .sum()
    }

    /// Achieved bit-op throughput of the class (MACs × Pa × Pw per ns);
    /// 0 when the network has no node of the class.
    pub fn class_gbitops(&self, class: Class) -> f64 {
        let (mut bitops, mut ns) = (0.0, 0.0);
        for r in self.rows.iter().filter(|r| r.class == class) {
            bitops += r.macs as f64 * r.pa.bits() as f64 * r.pw.bits() as f64;
            ns += r.ns;
        }
        if ns > 0.0 {
            bitops / ns
        } else {
            0.0
        }
    }

    /// Spearman correlation between the cost model and measured node time;
    /// 0 when it is undefined.
    pub fn cost_rank_corr(&self) -> f64 {
        let cost: Vec<f64> = self.rows.iter().map(|r| r.cost as f64).collect();
        let ns: Vec<f64> = self.rows.iter().map(|r| r.ns).collect();
        let r = spearman(&cost, &ns);
        if r.is_finite() {
            r
        } else {
            0.0
        }
    }

    /// MAC-weighted mean activation precision over compute nodes.
    pub fn pa_mean(&self) -> f64 {
        let macs: f64 = self.rows.iter().map(|r| r.macs as f64).sum();
        self.rows
            .iter()
            .map(|r| r.macs as f64 * r.pa.bits() as f64)
            .sum::<f64>()
            / macs.max(1.0)
    }
}
