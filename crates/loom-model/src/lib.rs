//! # loom-model
//!
//! CNN model substrate for the Loom accelerator reproduction (Sharify et al.,
//! "Loom: Exploiting Weight and Activation Precisions to Accelerate
//! Convolutional Neural Networks", DAC 2018).
//!
//! This crate provides everything the accelerator simulators need to describe
//! and execute the evaluated workloads:
//!
//! * [`fixed`] — fixed-point precision arithmetic: how many bits a value or a
//!   group of values actually needs.
//! * [`tensor`] — dense integer activation and weight tensors.
//! * [`layer`] / [`network`] — layer and network geometry descriptors.
//! * [`reference`](mod@reference) / [`im2col`] — golden integer implementations of
//!   convolution, fully-connected, pooling and ReLU layers.
//! * [`quant`] — linear quantization and inter-layer re-quantization.
//! * [`graph`] — explicit layer DAGs with branch/concat nodes, topological
//!   scheduling, and the one executor every path shares.
//! * [`synthetic`] — synthetic weight/activation generators calibrated to the
//!   paper's precision profiles (the ImageNet-trained originals are not
//!   available; see `DESIGN.md` for the substitution).
//! * [`inference`] — quantized forward inference (single inputs and batches)
//!   over chains and layer graphs.
//! * [`zoo`] — descriptors of the six evaluated networks (NiN, AlexNet,
//!   GoogLeNet, VGG-S, VGG-M, VGG-19).
//!
//! # Example
//!
//! ```
//! use loom_model::zoo;
//!
//! let alexnet = zoo::alexnet();
//! let conv_gmacs = alexnet.conv_macs() as f64 / 1e9;
//! assert!(conv_gmacs > 0.5);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fixed;
pub mod graph;
pub mod im2col;
pub mod inference;
pub mod layer;
pub mod network;
pub mod quant;
pub mod reference;
pub mod synthetic;
pub mod tensor;
pub mod zoo;

pub use fixed::Precision;
pub use graph::{GraphBuilder, LayerGraph};
pub use layer::{ConvSpec, FcSpec, Layer, LayerKind, PoolSpec};
pub use network::{Network, NetworkBuilder};
