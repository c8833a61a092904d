//! The first-class accelerator abstraction: every evaluated datapath (DPNN,
//! Stripes with or without dynamic detection, the Loom variants) is an
//! implementation of the [`Accelerator`] trait, and the [`Registry`]
//! replaces the per-datapath `match` dispatch that used to live inside the
//! simulation engine.
//!
//! Adding a new backend means writing one impl of [`Accelerator`] and
//! registering it; the engine, the experiment plumbing, the tables and the
//! CSV export all consume the trait and need no changes (see
//! `docs/ARCHITECTURE.md`, "Accelerator trait & sweep runner"). Backends
//! that additionally override [`Accelerator::functional_datapath`] get pulled
//! into the differential conformance harness automatically: every registered
//! functional datapath is run over the zoo and checked bit-exact against the
//! golden model and every other backend.

use crate::config::{DpnnGeometry, EquivalentConfig, LoomGeometry, LoomVariant};
use crate::counts::{LayerClass, LayerSim, NetworkSim};
use crate::datapath::{FunctionalDatapath, FunctionalDpnn, FunctionalStripes, LoomDatapath};
use crate::engine::{AcceleratorKind, PrecisionAssignment};
use crate::loom::schedule::{conv_schedule, fc_schedule};
use crate::{dpnn, stripes};
use loom_mem::traffic::{layer_traffic, StoragePrecision};
use loom_model::layer::{ConvSpec, FcSpec, LayerKind};
use loom_model::network::Network;
use loom_model::Precision;
use loom_precision::trace::{GroupPrecisionSource, LayerPrecisionSpec};
use std::fmt;

/// Everything an accelerator needs to simulate one layer.
#[derive(Debug, Clone, Copy)]
pub struct LayerContext<'a> {
    /// Layer name (for the simulation record).
    pub name: &'a str,
    /// Layer geometry and class.
    pub layer: &'a LayerKind,
    /// Precision information for the layer.
    pub precision: &'a LayerPrecisionSpec,
}

/// Datapath shape metadata an [`Accelerator`] reports about itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeometrySummary {
    /// Rows of the compute grid (inner-product units for DPNN-style tiles,
    /// filter rows of SIPs for Loom).
    pub rows: usize,
    /// Columns of the compute grid (activation lanes for DPNN-style tiles,
    /// window columns for Loom).
    pub columns: usize,
    /// Equivalent peak 16b×16b MACs per cycle (the normalisation every
    /// comparison in the paper uses).
    pub equivalent_macs_per_cycle: usize,
}

/// A simulated datapath: per-layer cycle/traffic modelling plus identifying
/// metadata. Implementations must be [`Send`] + [`Sync`] so the parallel
/// sweep runner can share them across worker threads.
pub trait Accelerator: Send + Sync {
    /// The serializable key identifying this accelerator (tables, CSV export
    /// and the energy model key off it).
    fn kind(&self) -> AcceleratorKind;

    /// Human-readable name used in reports (defaults to the kind's display
    /// form).
    fn name(&self) -> String {
        self.kind().to_string()
    }

    /// The shape of the compute grid at this design point.
    fn geometry(&self) -> GeometrySummary;

    /// The precision this accelerator stores a layer's data at (drives the
    /// bit-traffic accounting).
    fn storage_precision(&self, ctx: &LayerContext<'_>) -> StoragePrecision;

    /// Cycle count and datapath utilization for a convolutional layer.
    fn conv_cycles(&self, spec: &ConvSpec, precision: &LayerPrecisionSpec) -> (u64, f64);

    /// Cycle count and datapath utilization for a fully-connected layer.
    fn fc_cycles(&self, spec: &FcSpec, precision: &LayerPrecisionSpec) -> (u64, f64);

    /// The functional (value-computing) image of this datapath, if it has
    /// one: an engine that executes real layers bit-exactly and accounts
    /// cycles consistently with the analytic model above. Backends that
    /// return one are cross-validated against the golden model and every
    /// other registered backend by [`crate::validate::cross_validate`] — so
    /// overriding this default is all it takes to opt a new accelerator into
    /// the differential conformance harness. `threads` is the worker budget
    /// for engines that fan layer jobs across a pool.
    fn functional_datapath(&self, threads: usize) -> Option<Box<dyn FunctionalDatapath>> {
        let _ = threads;
        None
    }

    /// Simulates a single layer: cycles from the class-specific kernel,
    /// traffic priced at this accelerator's storage precision.
    fn simulate_layer(&self, ctx: &LayerContext<'_>) -> LayerSim {
        let storage = self.storage_precision(ctx);
        let traffic = layer_traffic(ctx.layer, storage);
        let (class, cycles, utilization) = match ctx.layer {
            LayerKind::Conv(spec) => {
                let (cycles, utilization) = self.conv_cycles(spec, ctx.precision);
                (LayerClass::Conv, cycles, utilization)
            }
            LayerKind::FullyConnected(spec) => {
                let (cycles, utilization) = self.fc_cycles(spec, ctx.precision);
                (LayerClass::FullyConnected, cycles, utilization)
            }
            LayerKind::MaxPool(_) => (LayerClass::Other, 0, 1.0),
        };
        LayerSim {
            layer_name: ctx.name.to_string(),
            class,
            macs: ctx.layer.macs(),
            cycles,
            utilization,
            storage,
            traffic,
        }
    }

    /// Simulates a whole network under a per-compute-layer precision
    /// assignment (non-compute layers run at full precision).
    fn simulate_network(&self, network: &Network, assignment: &PrecisionAssignment) -> NetworkSim {
        let mut layers = Vec::with_capacity(network.layers().len());
        let mut compute_idx = 0usize;
        for layer in network.layers() {
            let precision = if layer.kind.is_compute() {
                let spec = assignment.for_layer(compute_idx);
                compute_idx += 1;
                spec
            } else {
                LayerPrecisionSpec::full_precision_static()
            };
            layers.push(self.simulate_layer(&LayerContext {
                name: &layer.name,
                layer: &layer.kind,
                precision,
            }));
        }
        NetworkSim {
            accelerator: self.name(),
            network: network.name().to_string(),
            layers,
        }
    }
}

/// The bit-parallel DaDianNao-style baseline: 16-bit datapath, 16-bit
/// storage, insensitive to precisions.
#[derive(Debug, Clone, Copy)]
pub struct Dpnn {
    geometry: DpnnGeometry,
}

impl Dpnn {
    /// Creates the baseline at the given design point.
    pub fn new(config: EquivalentConfig) -> Self {
        Dpnn {
            geometry: config.dpnn(),
        }
    }
}

impl Accelerator for Dpnn {
    fn kind(&self) -> AcceleratorKind {
        AcceleratorKind::Dpnn
    }

    fn geometry(&self) -> GeometrySummary {
        GeometrySummary {
            rows: self.geometry.filters,
            columns: self.geometry.lanes,
            equivalent_macs_per_cycle: self.geometry.macs_per_cycle(),
        }
    }

    fn storage_precision(&self, _ctx: &LayerContext<'_>) -> StoragePrecision {
        StoragePrecision::baseline()
    }

    fn conv_cycles(&self, spec: &ConvSpec, _precision: &LayerPrecisionSpec) -> (u64, f64) {
        (
            dpnn::conv_cycles(&self.geometry, spec),
            dpnn::conv_utilization(&self.geometry, spec),
        )
    }

    fn fc_cycles(&self, spec: &FcSpec, _precision: &LayerPrecisionSpec) -> (u64, f64) {
        (
            dpnn::fc_cycles(&self.geometry, spec),
            dpnn::fc_utilization(&self.geometry, spec),
        )
    }

    fn functional_datapath(&self, _threads: usize) -> Option<Box<dyn FunctionalDatapath>> {
        Some(Box::new(FunctionalDpnn::new(self.geometry)))
    }
}

/// Stripes: bit-serial activations, convolutional layers only (FCLs fall
/// back to the bit-parallel schedule). Built by [`Stripes::dynamic`] it is
/// Dynamic Stripes: the same tile, plus runtime per-group activation
/// precision detection.
#[derive(Debug, Clone, Copy)]
pub struct Stripes {
    geometry: DpnnGeometry,
    dynamic: bool,
}

impl Stripes {
    /// Creates the Stripes comparator (static per-layer precisions) at the
    /// given design point.
    pub fn new(config: EquivalentConfig) -> Self {
        Stripes {
            geometry: config.dpnn(),
            dynamic: false,
        }
    }

    /// Creates the Dynamic Stripes comparator at the given design point.
    pub fn dynamic(config: EquivalentConfig) -> Self {
        Stripes {
            dynamic: true,
            ..Stripes::new(config)
        }
    }
}

impl Accelerator for Stripes {
    fn kind(&self) -> AcceleratorKind {
        if self.dynamic {
            AcceleratorKind::DStripes
        } else {
            AcceleratorKind::Stripes
        }
    }

    fn geometry(&self) -> GeometrySummary {
        GeometrySummary {
            rows: self.geometry.filters,
            columns: self.geometry.lanes,
            equivalent_macs_per_cycle: self.geometry.macs_per_cycle(),
        }
    }

    /// A bit-serial memory interface for conv-layer activations only;
    /// weights and FCL data stay at the full 16 bits.
    fn storage_precision(&self, ctx: &LayerContext<'_>) -> StoragePrecision {
        if ctx.layer.is_conv() {
            StoragePrecision::packed(ctx.precision.activation, Precision::FULL)
        } else {
            StoragePrecision::baseline()
        }
    }

    fn conv_cycles(&self, spec: &ConvSpec, precision: &LayerPrecisionSpec) -> (u64, f64) {
        let groups = if self.dynamic {
            &precision.dynamic_activation
        } else {
            &GroupPrecisionSource::Nominal
        };
        (
            stripes::conv_cycles_dynamic(&self.geometry, spec, precision.activation, groups),
            dpnn::conv_utilization(&self.geometry, spec),
        )
    }

    fn fc_cycles(&self, spec: &FcSpec, _precision: &LayerPrecisionSpec) -> (u64, f64) {
        (
            dpnn::fc_cycles(&self.geometry, spec),
            dpnn::fc_utilization(&self.geometry, spec),
        )
    }

    fn functional_datapath(&self, _threads: usize) -> Option<Box<dyn FunctionalDatapath>> {
        Some(Box::new(if self.dynamic {
            FunctionalStripes::dynamic(self.geometry)
        } else {
            FunctionalStripes::new(self.geometry)
        }))
    }
}

/// Loom: bit-serial weights × activations at 1, 2 or 4 activation bits per
/// cycle, with packed storage for both operand streams.
#[derive(Debug, Clone, Copy)]
pub struct Loom {
    variant: LoomVariant,
    geometry: LoomGeometry,
}

impl Loom {
    /// Creates the Loom datapath for `variant` at the given design point.
    pub fn new(config: EquivalentConfig, variant: LoomVariant) -> Self {
        Loom {
            variant,
            geometry: config.loom(variant),
        }
    }

    /// Creates a Loom datapath over an explicit SIP-grid geometry (e.g. the
    /// aspect-ratio study's non-square arrangements).
    pub fn with_geometry(variant: LoomVariant, geometry: LoomGeometry) -> Self {
        Loom { variant, geometry }
    }

    /// The bits-per-cycle variant this instance models.
    pub fn variant(&self) -> LoomVariant {
        self.variant
    }
}

impl Accelerator for Loom {
    fn kind(&self) -> AcceleratorKind {
        AcceleratorKind::Loom(self.variant)
    }

    fn geometry(&self) -> GeometrySummary {
        GeometrySummary {
            rows: self.geometry.filter_rows,
            columns: self.geometry.window_columns,
            equivalent_macs_per_cycle: self.geometry.bit_products_per_cycle() / 256,
        }
    }

    fn storage_precision(&self, ctx: &LayerContext<'_>) -> StoragePrecision {
        StoragePrecision::packed(ctx.precision.activation, ctx.precision.weight)
    }

    fn conv_cycles(&self, spec: &ConvSpec, precision: &LayerPrecisionSpec) -> (u64, f64) {
        let r = conv_schedule(&self.geometry, spec, precision);
        (r.cycles, r.utilization)
    }

    fn fc_cycles(&self, spec: &FcSpec, precision: &LayerPrecisionSpec) -> (u64, f64) {
        let r = fc_schedule(&self.geometry, spec, precision, true);
        (r.cycles, r.utilization)
    }

    fn functional_datapath(&self, threads: usize) -> Option<Box<dyn FunctionalDatapath>> {
        Some(Box::new(LoomDatapath::new(self.geometry, threads)))
    }
}

/// Instantiates the built-in accelerator for `kind` at `config`. This is the
/// single place the datapath enumeration is mapped to implementations.
pub fn build(kind: AcceleratorKind, config: EquivalentConfig) -> Box<dyn Accelerator> {
    match kind {
        AcceleratorKind::Dpnn => Box::new(Dpnn::new(config)),
        AcceleratorKind::Stripes => Box::new(Stripes::new(config)),
        AcceleratorKind::DStripes => Box::new(Stripes::dynamic(config)),
        AcceleratorKind::Loom(variant) => Box::new(Loom::new(config, variant)),
    }
}

/// The set of accelerators a [`crate::engine::Simulator`] dispatches over,
/// keyed by [`AcceleratorKind`]. Registering an accelerator whose `kind()`
/// is already present replaces the previous entry, so experiments can swap a
/// custom implementation in behind an existing key.
pub struct Registry {
    config: EquivalentConfig,
    entries: Vec<Box<dyn Accelerator>>,
}

impl Registry {
    /// An empty registry at the given design point.
    pub fn empty(config: EquivalentConfig) -> Self {
        Registry {
            config,
            entries: Vec::new(),
        }
    }

    /// A registry holding all six paper accelerators, in Figure 4 plot order.
    pub fn with_defaults(config: EquivalentConfig) -> Self {
        let mut registry = Registry::empty(config);
        for kind in AcceleratorKind::all() {
            registry.register(build(kind, config));
        }
        registry
    }

    /// The design point this registry's accelerators were built for.
    pub fn config(&self) -> EquivalentConfig {
        self.config
    }

    /// Registers an accelerator, replacing any previous entry with the same
    /// kind.
    pub fn register(&mut self, accelerator: Box<dyn Accelerator>) {
        let kind = accelerator.kind();
        if let Some(existing) = self.entries.iter_mut().find(|a| a.kind() == kind) {
            *existing = accelerator;
        } else {
            self.entries.push(accelerator);
        }
    }

    /// Looks up the accelerator registered for `kind`.
    pub fn get(&self, kind: AcceleratorKind) -> Option<&dyn Accelerator> {
        self.entries
            .iter()
            .find(|a| a.kind() == kind)
            .map(|a| a.as_ref())
    }

    /// Iterates the registered accelerators in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Accelerator> {
        self.entries.iter().map(|a| a.as_ref())
    }

    /// The kinds currently registered, in registration order.
    pub fn kinds(&self) -> Vec<AcceleratorKind> {
        self.entries.iter().map(|a| a.kind()).collect()
    }

    /// Number of registered accelerators.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry holds no accelerators.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("config", &self.config)
            .field("kinds", &self.kinds())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::assignment_from_profile;
    use loom_model::zoo;
    use loom_precision::{table1, AccuracyTarget};

    #[test]
    fn registry_holds_all_six_defaults_in_figure4_order() {
        let registry = Registry::with_defaults(EquivalentConfig::BASELINE_128);
        assert_eq!(registry.len(), 6);
        assert!(!registry.is_empty());
        assert_eq!(registry.kinds(), AcceleratorKind::all());
        for kind in AcceleratorKind::all() {
            let acc = registry.get(kind).expect("default registered");
            assert_eq!(acc.kind(), kind);
            assert_eq!(acc.name(), kind.to_string());
        }
        assert!(format!("{registry:?}").contains("Registry"));
    }

    #[test]
    fn register_replaces_same_kind_entry() {
        let cfg = EquivalentConfig::BASELINE_128;
        let mut registry = Registry::empty(cfg);
        assert!(registry.get(AcceleratorKind::Dpnn).is_none());
        registry.register(Box::new(Dpnn::new(cfg)));
        registry.register(Box::new(Dpnn::new(cfg)));
        assert_eq!(registry.len(), 1);
        assert_eq!(registry.config(), cfg);
    }

    #[test]
    fn geometries_are_bandwidth_normalised() {
        let cfg = EquivalentConfig::BASELINE_128;
        for acc in Registry::with_defaults(cfg).iter() {
            let g = acc.geometry();
            assert_eq!(
                g.equivalent_macs_per_cycle,
                cfg.macs_per_cycle(),
                "{}",
                acc.name()
            );
            assert!(g.rows > 0 && g.columns > 0);
        }
    }

    #[test]
    fn every_default_accelerator_exposes_a_functional_datapath() {
        let registry = Registry::with_defaults(EquivalentConfig::BASELINE_128);
        for acc in registry.iter() {
            assert!(
                acc.functional_datapath(1).is_some(),
                "{} has no functional datapath",
                acc.name()
            );
        }
    }

    #[test]
    fn loom_impl_exposes_its_variant() {
        let lm = Loom::new(EquivalentConfig::BASELINE_128, LoomVariant::Lm2b);
        assert_eq!(lm.variant(), LoomVariant::Lm2b);
        assert_eq!(lm.kind(), AcceleratorKind::Loom(LoomVariant::Lm2b));
        assert_eq!(lm.geometry().columns, 8);
    }

    #[test]
    fn trait_network_simulation_orders_loom_above_dstripes() {
        let net = zoo::alexnet();
        let profile = table1::profile("AlexNet", AccuracyTarget::Lossless).unwrap();
        let assignment = assignment_from_profile(&net, &profile, Some(0.8), None);
        let registry = Registry::with_defaults(EquivalentConfig::BASELINE_128);
        let dpnn = registry
            .get(AcceleratorKind::Dpnn)
            .unwrap()
            .simulate_network(&net, &assignment);
        let ds = registry
            .get(AcceleratorKind::DStripes)
            .unwrap()
            .simulate_network(&net, &assignment);
        let lm = registry
            .get(AcceleratorKind::Loom(LoomVariant::Lm1b))
            .unwrap()
            .simulate_network(&net, &assignment);
        assert!(lm.conv_speedup_vs(&dpnn) > ds.conv_speedup_vs(&dpnn));
        assert_eq!(dpnn.layers.len(), net.layers().len());
    }
}
