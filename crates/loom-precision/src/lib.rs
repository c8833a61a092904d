//! # loom-precision
//!
//! Precision machinery for the Loom accelerator reproduction: everything that
//! determines *how many bits* each piece of data needs.
//!
//! * [`profile`] — per-network precision profiles (per-layer activation
//!   precisions, per-network conv weight precision, per-layer FC weight
//!   precisions) and accuracy targets.
//! * [`table1`] — the paper's published Table 1 profiles, embedded verbatim.
//! * [`table3`] — the paper's published Table 3 average effective per-group
//!   weight precisions.
//! * [`profiler`] — the Judd et al. search procedure that derives profiles,
//!   demonstrated with an output-fidelity proxy on runnable networks.
//! * [`dynamic`] — a standalone model of runtime per-group-of-256 activation
//!   precision detection (Lascorz et al. "Dynamic Stripes"), the OR-tree +
//!   leading-one detector; the simulators' detectors live in `loom-sim`.
//! * [`group`] — per-group-of-16 weight precision detection (DPRed, §4.6).
//! * [`stats`] — bit-length histograms and the expected group-maximum
//!   precision that links value distributions to effective precisions (a
//!   standalone model no table or figure reads).
//! * [`trace`] — the per-layer precision specifications the cycle simulators
//!   consume, including the calibrated statistical model used when real
//!   activation values are unavailable.
//!
//! # Example
//!
//! ```
//! use loom_precision::{table1, profile::AccuracyTarget};
//!
//! let alexnet = table1::profile("AlexNet", AccuracyTarget::Lossless).unwrap();
//! assert_eq!(alexnet.conv_activations.len(), 5);
//! assert_eq!(alexnet.conv_weight.bits(), 11);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dynamic;
pub mod group;
pub mod profile;
pub mod profiler;
pub mod stats;
pub mod table1;
pub mod table3;
pub mod trace;

pub use profile::{AccuracyTarget, NetworkProfile};
pub use trace::{GroupPrecisionSource, LayerPrecisionSpec};
