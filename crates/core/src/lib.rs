//! # loom-core
//!
//! Top-level library of the Loom reproduction (Sharify et al., DAC 2018): it
//! ties the CNN model substrate, precision machinery, cycle simulators, memory
//! hierarchy and energy/area models together into the experiments the paper
//! reports.
//!
//! * [`experiment`] — precision-assignment construction and per-network
//!   evaluation of every accelerator (DPNN, Stripes, DStripes, LM1b/2b/4b).
//! * [`threads`] — the one thread-budget policy every binary shares
//!   (`--threads`, else available parallelism), the one flag parser, and
//!   physical-core detection for bench provenance.
//! * [`tables`] — Table 2, Table 4 and Figure 4 reproductions.
//! * [`scaling`] — the Figure 5 scaling study with a realistic memory system.
//! * [`report`] — plain-text table rendering shared by the reproduction
//!   binaries in the `loom-bench` crate.
//! * [`export`] — CSV export of every experiment's data for external
//!   plotting.
//!
//! Every table and figure is computed serially, one network and one
//! accelerator at a time. [`table2`] and [`figure4`] tabulate the
//! evaluations they are given, so the `all` binary evaluates the 100% zoo
//! once for Table 2 (100%), Figure 4 and its all-layers CSV: the whole
//! evaluation section is 198 analytic simulations of about a millisecond
//! each.
//!
//! # Quick start
//!
//! ```
//! use loom_core::experiment::{evaluate_network, ExperimentSettings};
//! use loom_sim::engine::AcceleratorKind;
//! use loom_sim::LoomVariant;
//!
//! let alexnet = loom_model::zoo::alexnet();
//! let eval = evaluate_network(&alexnet, &ExperimentSettings::default());
//! let lm1b = eval.result_for(AcceleratorKind::Loom(LoomVariant::Lm1b)).unwrap();
//! assert!(lm1b.conv_speedup > 1.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiment;
pub mod export;
pub mod report;
pub mod scaling;
pub mod tables;
pub mod threads;

pub use experiment::{evaluate_all_networks, evaluate_network, ExperimentSettings};
pub use scaling::{figure5, Figure5};
pub use tables::{figure4, table2, table4};

// Re-export the crates a downstream user needs to drive the library without
// having to depend on each one individually.
pub use loom_energy;
pub use loom_mem;
pub use loom_model;
pub use loom_precision;
pub use loom_sim;
