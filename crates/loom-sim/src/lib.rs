//! # loom-sim
//!
//! Cycle-level simulators for the Loom accelerator reproduction:
//!
//! * [`config`] — design points (equivalent peak compute bandwidth) and the
//!   DPNN / Loom geometries derived from them.
//! * [`dpnn`] — the bit-parallel DaDianNao-style baseline (§3.1).
//! * [`stripes`] — the Stripes comparator; Dynamic Stripes is the same model
//!   with runtime per-group activation precision detection switched on.
//! * [`loom`] — the Loom engine: the bit-exact SIP functional model, a
//!   functional layer engine validated against the golden model, and the
//!   analytic convolutional / fully-connected schedules with dynamic
//!   activation precisions, per-group weight precisions, SIP cascading and
//!   the LM1b/LM2b/LM4b variants.
//! * [`datapath`] — functional (value-computing) images of every comparator
//!   datapath: bit-parallel DPNN, activation-serial Stripes (DStripes when
//!   built with detection), and the Loom engine behind one
//!   [`datapath::FunctionalDatapath`] seam, so any registered accelerator can
//!   run whole networks bit-exact against the golden model.
//! * [`accelerator`] — the [`accelerator::Accelerator`] trait every datapath
//!   implements, plus the [`accelerator::Registry`] the engine dispatches
//!   through (add a backend by implementing the trait and registering it;
//!   overriding `functional_datapath` buys conformance coverage for free).
//! * [`engine`] — the unified [`engine::Simulator`] front end.
//! * [`counts`] — per-layer / per-network cycle and traffic records.
//! * [`pool`] — the persistent work-stealing worker pool every parallel path
//!   (layer fan-out, batched inference, sweeps) shares, with cost-model task
//!   granularity chosen per layer by [`loom::cost`](crate::loom).
//!
//! # Example
//!
//! ```
//! use loom_sim::engine::{AcceleratorKind, PrecisionAssignment, Simulator, assignment_from_profile};
//! use loom_sim::config::LoomVariant;
//! use loom_precision::{table1, AccuracyTarget};
//! use loom_model::zoo;
//!
//! let net = zoo::alexnet();
//! let profile = table1::profile("AlexNet", AccuracyTarget::Lossless).unwrap();
//! let assignment = assignment_from_profile(&net, &profile, None, None);
//! let sim = Simulator::baseline_128();
//! let dpnn = sim.simulate(AcceleratorKind::Dpnn, &net, &assignment);
//! let lm = sim.simulate(AcceleratorKind::Loom(LoomVariant::Lm1b), &net, &assignment);
//! assert!(lm.speedup_vs(&dpnn) > 1.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod accelerator;
pub mod config;
pub mod counts;
pub mod datapath;
pub mod dpnn;
pub mod engine;
pub mod loom;
pub mod pool;
pub mod stripes;
pub mod validate;

pub use accelerator::{Accelerator, GeometrySummary, LayerContext, Registry};
pub use config::{EquivalentConfig, LoomVariant};
pub use counts::{LayerClass, LayerSim, NetworkSim};
pub use engine::{AcceleratorKind, PrecisionAssignment, Simulator};
