//! Cross-validation between models — functional vs analytic, and backend vs
//! backend.
//!
//! The repository carries two independent implementations of every
//! accelerator: a *functional* model ([`crate::loom::functional`] for Loom,
//! [`crate::datapath`] for the DPNN/Stripes/DStripes comparators), which
//! actually computes every output, and the *analytic* cycle models, which
//! only count cycles but run fast enough to sweep whole networks. This module
//! checks them against each other (and against the golden reference from
//! `loom-model`) on concrete layers, which is how the repository establishes
//! that the fast models used for every table and figure are trustworthy.
//!
//! [`cross_validate`] closes the loop at the network level: every accelerator
//! in a [`Registry`] that exposes a
//! [`functional_datapath`](crate::accelerator::Accelerator::functional_datapath)
//! runs the same inputs through the shared graph executor, and all of them
//! must land bit-exactly on the golden model — and therefore on each other.

use crate::accelerator::Registry;
use crate::config::LoomGeometry;
use crate::datapath::run_network_batch;
use crate::loom::functional::FunctionalLoom;
use crate::loom::schedule::{conv_schedule, fc_schedule};
use loom_model::layer::{ConvSpec, FcSpec};
use loom_model::reference::{conv_forward, fc_forward};
use loom_model::tensor::{Tensor3, Tensor4};
use loom_model::Precision;
use loom_precision::trace::LayerPrecisionSpec;
use std::fmt;

/// Outcome of validating one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    /// Whether the functional model's outputs match the golden reference
    /// exactly.
    pub outputs_match: bool,
    /// Cycles reported by the functional model.
    pub functional_cycles: u64,
    /// Cycles reported by the analytic schedule.
    pub analytic_cycles: u64,
    /// Relative cycle disagreement `|functional - analytic| / analytic`.
    pub cycle_error: f64,
}

impl ValidationReport {
    /// Whether the two models agree: outputs are exact and the cycle counts
    /// differ by at most `tolerance` (relative).
    pub fn agrees_within(&self, tolerance: f64) -> bool {
        self.outputs_match && self.cycle_error <= tolerance
    }
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "outputs {} | functional {} cycles vs analytic {} cycles ({:.2}% apart)",
            if self.outputs_match {
                "exact"
            } else {
                "MISMATCH"
            },
            self.functional_cycles,
            self.analytic_cycles,
            self.cycle_error * 100.0
        )
    }
}

/// Validates a convolutional layer: the functional engine (dynamic precision
/// disabled, so both models see the same static precisions) must produce the
/// reference outputs and a cycle count matching the analytic schedule.
pub fn validate_conv(
    geometry: LoomGeometry,
    spec: &ConvSpec,
    input: &Tensor3,
    weights: &Tensor4,
    pa: Precision,
    pw: Precision,
) -> ValidationReport {
    let reference = conv_forward(spec, input, weights);
    let functional = FunctionalLoom::new(geometry)
        .without_dynamic_precision()
        .run_conv(spec, input, weights, pa, pw);
    let analytic = conv_schedule(&geometry, spec, &LayerPrecisionSpec::static_profile(pa, pw));
    report(
        functional.outputs == reference,
        functional.cycles,
        analytic.cycles,
    )
}

/// Validates a fully-connected layer the same way.
pub fn validate_fc(
    geometry: LoomGeometry,
    spec: &FcSpec,
    input: &[i32],
    weights: &[i32],
    pw: Precision,
) -> ValidationReport {
    let reference = fc_forward(spec, input, weights);
    let functional = FunctionalLoom::new(geometry).run_fc(spec, input, weights, pw);
    let analytic = fc_schedule(
        &geometry,
        spec,
        &LayerPrecisionSpec::static_profile(Precision::FULL, pw),
        true,
    );
    report(
        functional.outputs == reference,
        functional.cycles,
        analytic.cycles,
    )
}

/// Validates any [`crate::accelerator::Accelerator`] implementation whose
/// analytic convolutional cycle model should agree with the bit-exact
/// functional Loom engine: the functional outputs must match the golden
/// reference and the trait impl's cycle count must match the functional run.
///
/// This is the check to run when registering a new Loom-like backend — it
/// grounds the backend's fast cycle model in a datapath that demonstrably
/// computes the right answers.
///
/// # Panics
///
/// Panics if `geometry` disagrees with the accelerator's own reported grid
/// shape — comparing a functional run of one datapath against the analytic
/// cycles of another would validate nothing.
pub fn validate_accelerator_conv(
    accelerator: &dyn crate::accelerator::Accelerator,
    geometry: LoomGeometry,
    spec: &ConvSpec,
    input: &Tensor3,
    weights: &Tensor4,
    pa: Precision,
    pw: Precision,
) -> ValidationReport {
    let summary = accelerator.geometry();
    assert_eq!(
        (summary.rows, summary.columns),
        (geometry.filter_rows, geometry.window_columns),
        "functional geometry does not match the accelerator's grid ({})",
        accelerator.name()
    );
    let reference = conv_forward(spec, input, weights);
    let functional = FunctionalLoom::new(geometry)
        .without_dynamic_precision()
        .run_conv(spec, input, weights, pa, pw);
    let (cycles, _utilization) =
        accelerator.conv_cycles(spec, &LayerPrecisionSpec::static_profile(pa, pw));
    report(functional.outputs == reference, functional.cycles, cycles)
}

/// Outcome of validating a whole network: the batched functional engine
/// against the golden graph executor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkValidation {
    /// Whether every batch item's functional trace is bit-identical to the
    /// golden model's.
    pub traces_match: bool,
    /// Number of layer nodes each trace covers.
    pub layers: usize,
    /// Total bit-serial cycles over the batch.
    pub cycles: u64,
    /// Total dynamically reduced activation groups over the batch.
    pub reduced_groups: u64,
}

/// Validates a whole network end to end: runs `inputs` through the golden
/// graph executor and through the batched functional engine
/// ([`crate::loom::NetworkEngine`] with `threads` workers), and compares the
/// traces bit-for-bit — every layer's inputs, accumulators, re-quantization
/// shift and outputs. This is the zoo-level check CI's functional suite
/// fails on: the graphs come from `loom_model::zoo::graphs`.
///
/// # Errors
///
/// Propagates executor errors (shape mismatches, malformed concats) from
/// either path.
pub fn validate_network(
    geometry: LoomGeometry,
    graph: &loom_model::graph::LayerGraph,
    params: &loom_model::inference::NetworkParams,
    inputs: &[loom_model::tensor::Tensor3],
    options: loom_model::inference::InferenceOptions,
    threads: usize,
) -> Result<NetworkValidation, loom_model::inference::InferenceError> {
    let golden = graph.run_batch(params, inputs, options)?;
    let runs = crate::loom::NetworkEngine::new(geometry)
        .with_threads(threads)
        .run_batch(graph, params, inputs, options)?;
    Ok(NetworkValidation {
        traces_match: runs.iter().map(|r| &r.trace).eq(golden.iter()),
        layers: golden.first().map(|t| t.layers.len()).unwrap_or(0),
        cycles: runs.iter().map(|r| r.cycles).sum(),
        reduced_groups: runs.iter().map(|r| r.reduced_groups).sum(),
    })
}

/// One registered backend's conformance result in a [`CrossValidation`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendConformance {
    /// The accelerator's display name.
    pub accelerator: String,
    /// Whether every batch item's trace is bit-identical to the golden
    /// model's (layer inputs, accumulators, re-quantization and outputs).
    pub matches_golden: bool,
    /// Total cycles this backend spent over the batch.
    pub cycles: u64,
    /// Total dynamically reduced activation groups over the batch.
    pub reduced_groups: u64,
}

/// Outcome of running every registered functional datapath over one network:
/// the differential conformance record the harness and CI key off.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrossValidation {
    /// The network the backends ran.
    pub network: String,
    /// Per-backend results, in registry order.
    pub backends: Vec<BackendConformance>,
}

impl CrossValidation {
    /// Whether at least one backend ran and every backend matched the golden
    /// model — which, by transitivity, means all backends also agree with
    /// each other bit-for-bit.
    pub fn all_match(&self) -> bool {
        !self.backends.is_empty() && self.backends.iter().all(|b| b.matches_golden)
    }
}

/// Runs `inputs` through the golden graph executor once, then through every
/// accelerator in `registry` that exposes a functional datapath (with
/// `threads` workers each), and records which backends reproduce the golden
/// traces bit-exactly. Backends without a functional datapath are skipped —
/// they simply don't appear in the result.
///
/// # Errors
///
/// Propagates executor errors (shape mismatches, malformed concats) from the
/// golden run or any backend run.
pub fn cross_validate(
    registry: &Registry,
    graph: &loom_model::graph::LayerGraph,
    params: &loom_model::inference::NetworkParams,
    inputs: &[loom_model::tensor::Tensor3],
    options: loom_model::inference::InferenceOptions,
    threads: usize,
) -> Result<CrossValidation, loom_model::inference::InferenceError> {
    let golden = graph.run_batch(params, inputs, options)?;
    let mut backends = Vec::new();
    for acc in registry.iter() {
        let Some(datapath) = acc.functional_datapath(threads) else {
            continue;
        };
        let runs = run_network_batch(datapath.as_ref(), graph, params, inputs, options)?;
        backends.push(BackendConformance {
            accelerator: acc.name(),
            matches_golden: runs.iter().map(|r| &r.trace).eq(golden.iter()),
            cycles: runs.iter().map(|r| r.cycles).sum(),
            reduced_groups: runs.iter().map(|r| r.reduced_groups).sum(),
        });
    }
    Ok(CrossValidation {
        network: graph.name().to_string(),
        backends,
    })
}

fn report(outputs_match: bool, functional_cycles: u64, analytic_cycles: u64) -> ValidationReport {
    let cycle_error = if analytic_cycles == 0 {
        if functional_cycles == 0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (functional_cycles as f64 - analytic_cycles as f64).abs() / analytic_cycles as f64
    };
    ValidationReport {
        outputs_match,
        functional_cycles,
        analytic_cycles,
        cycle_error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_model::synthetic::{synthetic_activations, synthetic_weights, ValueDistribution};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn geometry() -> LoomGeometry {
        LoomGeometry {
            filter_rows: 8,
            window_columns: 4,
            sip_lanes: 4,
            act_bits_per_cycle: 1,
        }
    }

    #[test]
    fn conv_models_agree() {
        let spec = ConvSpec::simple(3, 9, 9, 8, 3);
        let mut rng = StdRng::seed_from_u64(5);
        let pa = Precision::new(7).unwrap();
        let pw = Precision::new(6).unwrap();
        let input = Tensor3::from_vec(
            spec.input_shape(),
            synthetic_activations(
                &mut rng,
                spec.input_shape().len(),
                pa,
                ValueDistribution::activations(),
            ),
        )
        .unwrap();
        let weights = Tensor4::from_vec(
            spec.weight_shape(),
            synthetic_weights(
                &mut rng,
                spec.weight_shape().len(),
                pw,
                ValueDistribution::weights(),
            ),
        )
        .unwrap();
        let r = validate_conv(geometry(), &spec, &input, &weights, pa, pw);
        assert!(r.outputs_match, "{r}");
        // The analytic model adds a one-cycle pipeline fill; otherwise exact.
        assert!(r.agrees_within(0.02), "{r}");
        // With detection on, the whole run matches the bit-serial oracle.
        let engine = FunctionalLoom::new(geometry());
        assert_eq!(
            engine.run_conv(&spec, &input, &weights, pa, pw),
            crate::loom::sip::serial_conv(&engine, &spec, &input, &weights, pa, pw)
        );

        // The trait-based check must agree with the direct schedule check
        // when the registered backend wraps the same analytic schedule.
        let acc =
            crate::accelerator::Loom::with_geometry(crate::config::LoomVariant::Lm1b, geometry());
        let rt = validate_accelerator_conv(&acc, geometry(), &spec, &input, &weights, pa, pw);
        assert_eq!(rt.analytic_cycles, r.analytic_cycles);
        assert!(rt.agrees_within(0.02), "{rt}");
    }

    #[test]
    fn fc_models_agree() {
        let spec = FcSpec::new(48, 24);
        let mut rng = StdRng::seed_from_u64(6);
        let pw = Precision::new(9).unwrap();
        let input = synthetic_activations(
            &mut rng,
            48,
            Precision::new(10).unwrap(),
            ValueDistribution::activations(),
        );
        let weights = synthetic_weights(&mut rng, 48 * 24, pw, ValueDistribution::weights());
        let r = validate_fc(geometry(), &spec, &input, &weights, pw);
        assert!(r.agrees_within(0.01), "{r}");
        assert!(r.to_string().contains("exact"));
    }

    #[test]
    fn network_validation_matches_on_a_small_graph() {
        use loom_model::graph::LayerGraph;
        use loom_model::inference::{InferenceOptions, NetworkParams};
        use loom_model::layer::PoolSpec;
        use loom_model::network::NetworkBuilder;
        use loom_model::tensor::Shape3;

        let graph = LayerGraph::from_network(
            &NetworkBuilder::new("tiny")
                .conv("c1", ConvSpec::simple(2, 8, 8, 4, 3))
                .max_pool("p1", PoolSpec::new(4, 6, 6, 2, 2))
                .fully_connected("f1", FcSpec::new(4 * 3 * 3, 5))
                .build()
                .unwrap(),
        );
        let params = NetworkParams::synthetic_for_graph(&graph, &[Precision::new(6).unwrap()], 4);
        let mut rng = StdRng::seed_from_u64(12);
        let inputs: Vec<_> = (0..2)
            .map(|_| {
                loom_model::tensor::Tensor3::from_vec(
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
            .collect();
        let v = validate_network(
            geometry(),
            &graph,
            &params,
            &inputs,
            InferenceOptions::default(),
            2,
        )
        .unwrap();
        assert!(v.traces_match);
        assert_eq!(v.layers, 3);
        assert!(v.cycles > 0);
    }

    #[test]
    fn cross_validation_covers_every_registered_backend() {
        use crate::config::EquivalentConfig;
        use loom_model::graph::LayerGraph;
        use loom_model::inference::{InferenceOptions, NetworkParams};
        use loom_model::network::NetworkBuilder;
        use loom_model::tensor::Shape3;

        let graph = LayerGraph::from_network(
            &NetworkBuilder::new("tiny")
                .conv("c1", ConvSpec::simple(2, 8, 8, 4, 3))
                .fully_connected("f1", FcSpec::new(4 * 6 * 6, 5))
                .build()
                .unwrap(),
        );
        let params = NetworkParams::synthetic_for_graph(&graph, &[Precision::new(6).unwrap()], 4);
        let mut rng = StdRng::seed_from_u64(12);
        let inputs = [loom_model::tensor::Tensor3::from_vec(
            Shape3::new(2, 8, 8),
            synthetic_activations(
                &mut rng,
                2 * 8 * 8,
                Precision::new(8).unwrap(),
                ValueDistribution::activations(),
            ),
        )
        .unwrap()];
        let registry = Registry::with_defaults(EquivalentConfig::BASELINE_128);
        let v = cross_validate(
            &registry,
            &graph,
            &params,
            &inputs,
            InferenceOptions::default(),
            2,
        )
        .unwrap();
        assert_eq!(v.network, "tiny");
        // All six defaults expose functional datapaths, so all six appear.
        assert_eq!(v.backends.len(), registry.len());
        assert!(v.all_match(), "{v:?}");
        for b in &v.backends {
            assert!(b.cycles > 0, "{}", b.accelerator);
        }
        // An empty conformance record never counts as agreement.
        assert!(!CrossValidation {
            network: String::new(),
            backends: Vec::new()
        }
        .all_match());
    }

    #[test]
    fn report_flags_cycle_disagreement() {
        let r = report(true, 150, 100);
        assert!(!r.agrees_within(0.3));
        assert!((r.cycle_error - 0.5).abs() < 1e-12);
        let degenerate = report(true, 5, 0);
        assert!(degenerate.cycle_error.is_infinite());
        assert_eq!(report(true, 0, 0).cycle_error, 0.0);
    }
}
