//! The served-model catalog: each entry pairs a zoo graph with deterministic
//! synthetic weights and a [`PackedModel`] weight cache built once at startup
//! and shared read-only by every request ([`NetworkEngine::run_batch_cached`]
//! reads each layer's packed rows and precision from it instead of looking
//! the layer up in the weight store per dispatch).

use loom_core::loom_model::graph::LayerGraph;
use loom_core::loom_model::inference::NetworkParams;
use loom_core::loom_model::tensor::{Shape3, Tensor3};
use loom_core::loom_model::zoo::graphs;
use loom_core::loom_model::Precision;
use loom_core::loom_sim::config::LoomGeometry;
use loom_core::loom_sim::loom::network::{NetworkEngine, PackedModel};
use std::sync::Arc;

/// Seed for the catalog's synthetic weights: the paper's publication year,
/// fixed so every server process (and the loopback test suites) serves
/// bit-identical models.
pub const CATALOG_SEED: u64 = 2018;

/// The geometry every served engine uses — the same tile as the functional
/// benchmark, so serving numbers compare directly against `BENCH_functional`.
pub fn serving_geometry() -> LoomGeometry {
    LoomGeometry {
        filter_rows: 16,
        window_columns: 8,
        sip_lanes: 16,
        act_bits_per_cycle: 1,
    }
}

/// One servable model: graph, weights, input geometry and the shared packed
/// cache.
pub struct ServedModel {
    /// Canonical zoo name (the request's `model` field, case-insensitive).
    pub name: &'static str,
    /// The layer graph.
    pub graph: LayerGraph,
    /// Deterministic synthetic weights ([`CATALOG_SEED`]).
    pub params: NetworkParams,
    /// Flat input length a request tensor must match.
    pub input_len: usize,
    /// Shape input tensors are bound to (`1×1×n` for FC-first graphs).
    pub input_shape: Shape3,
    /// Weights pre-packed for the wide datapath, shared across requests.
    pub cache: PackedModel,
    /// Wall-clock seconds this model's `prepack` took at catalog build —
    /// near zero when the process-wide weight store already held the layers
    /// (e.g. a catalog rebuilt in the same process).
    pub prepack_seconds: f64,
}

impl ServedModel {
    fn build(name: &'static str, engine: &NetworkEngine) -> ServedModel {
        let graph = graphs::lookup(name).expect("catalog names come from the zoo registry");
        let params = NetworkParams::synthetic_for_graph(
            &graph,
            &[Precision::new(7).expect("7 is a valid precision")],
            CATALOG_SEED,
        );
        let input_shape = graph.input_shape().unwrap_or_else(|| {
            let len = graph
                .input_len()
                .expect("every zoo graph has a derivable input length");
            Shape3::new(1, 1, len)
        });
        let started = std::time::Instant::now();
        let cache = engine.prepack(&graph, &params);
        let prepack_seconds = started.elapsed().as_secs_f64();
        ServedModel {
            name,
            input_len: input_shape.len(),
            input_shape,
            cache,
            prepack_seconds,
            graph,
            params,
        }
    }

    /// Wraps a request's flat values in this model's input shape.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.input_len` — the server validates
    /// lengths before building tensors.
    pub fn input_tensor(&self, values: Vec<i32>) -> Tensor3 {
        Tensor3::from_vec(self.input_shape, values).expect("length was validated against input_len")
    }

    /// A deterministic synthetic input for this model: the same `variant`
    /// always yields the same tensor, so load generators and loopback suites
    /// can precompute expected outputs.
    pub fn synthetic_input(&self, variant: u64) -> Tensor3 {
        use loom_core::loom_model::synthetic::{synthetic_activations, ValueDistribution};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(CATALOG_SEED ^ (variant.wrapping_mul(0x9E37_79B9)));
        let values = synthetic_activations(
            &mut rng,
            self.input_len,
            Precision::new(8).expect("8 is a valid precision"),
            ValueDistribution::activations(),
        );
        self.input_tensor(values)
    }
}

/// The set of models a server instance serves, resolved by name.
pub struct ModelCatalog {
    models: Vec<Arc<ServedModel>>,
}

impl ModelCatalog {
    /// The serving default: every reduced validation network plus the MLP
    /// heads — models small enough that a loopback soak covers thousands of
    /// requests, while still spanning conv-heavy and FC-heavy behaviour.
    pub fn reduced() -> ModelCatalog {
        let names = graphs::REDUCED_NAMES
            .iter()
            .chain(graphs::MLP_NAMES.iter())
            .copied();
        Self::from_names(names)
    }

    /// A catalog of exactly the given zoo names.
    ///
    /// # Panics
    ///
    /// Panics if a name is not in the zoo registry
    /// ([`graphs::registered_names`]).
    pub fn from_names(names: impl IntoIterator<Item = &'static str>) -> ModelCatalog {
        // Prepacking is geometry-independent in layout but the engine carries
        // the geometry; a bare single-thread engine is enough to build caches.
        let engine = NetworkEngine::new(serving_geometry());
        ModelCatalog {
            models: names
                .into_iter()
                .map(|name| Arc::new(ServedModel::build(name, &engine)))
                .collect(),
        }
    }

    /// Looks a model up by case-insensitive name.
    pub fn find(&self, name: &str) -> Option<Arc<ServedModel>> {
        self.models
            .iter()
            .find(|m| m.name.eq_ignore_ascii_case(name))
            .cloned()
    }

    /// All models, catalog order.
    pub fn models(&self) -> &[Arc<ServedModel>] {
        &self.models
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_catalog_serves_conv_and_fc_models() {
        let catalog = ModelCatalog::reduced();
        assert_eq!(catalog.models().len(), 6);
        let mlp = catalog.find("minimlp").expect("case-insensitive lookup");
        assert_eq!(mlp.name, "MiniMLP");
        assert_eq!(mlp.input_len, 784);
        assert_eq!(mlp.input_shape, Shape3::new(1, 1, 784));
        assert!(mlp.cache.packed_layers() > 0);
        let conv = catalog.find("MiniAlexNet").unwrap();
        assert_eq!(conv.input_len, conv.input_shape.len());
        assert!(conv.cache.approx_bytes() > 0);
        assert!(catalog.find("NoSuchNet").is_none());
    }

    #[test]
    fn catalogs_are_deterministic_across_builds() {
        let a = ModelCatalog::reduced();
        let b = ModelCatalog::reduced();
        for (ma, mb) in a.models().iter().zip(b.models()) {
            assert_eq!(ma.name, mb.name);
            assert_eq!(ma.params, mb.params, "{} weights must be stable", ma.name);
        }
    }
}
