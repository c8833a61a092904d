//! # loom-mem
//!
//! Memory hierarchy substrate for the Loom accelerator reproduction:
//!
//! * [`compress`] — sparse compressed bitplane weight storage: all-zero and
//!   pure-sign-extension planes elided behind per-block plane bitmaps, with
//!   lossless round trips and modeled stream/resident footprints.
//! * [`dram`] — the single-channel LPDDR4-4267 off-chip memory of §4.5.
//! * [`traffic`] — per-layer bit traffic at a given storage precision.
//! * [`hierarchy`] — the assembled memory system: spill detection, off-chip
//!   traffic and memory-bound cycle counts per layer.
//!
//! Three standalone models sit beside them, called by no simulator:
//! [`packing`] (bit-interleaved storage of one group at one precision, §3.2),
//! [`transposer`] (the output-activation transposer) and [`buffers`] (the
//! ABin/ABout SRAM and AM/WM eDRAM as capacity/access-count models). The
//! engine packs and transposes through `loom-sim`'s `WideBitplaneBlock`.
//!
//! # Example
//!
//! ```
//! use loom_mem::traffic::{layer_traffic, StoragePrecision};
//! use loom_mem::CompressedPlanes;
//! use loom_model::layer::{FcSpec, LayerKind};
//! use loom_model::Precision;
//!
//! // Weights packed at 10 bits stream 10/16 of the 16-bit baseline's bits.
//! let fc = LayerKind::FullyConnected(FcSpec::new(100, 10));
//! let p10 = Precision::new(10).unwrap();
//! let packed = layer_traffic(&fc, StoragePrecision::packed(p10, p10));
//! assert_eq!(packed.weight_bits, 1000 * 10);
//!
//! // The compressed format stores only planes that carry data: values of
//! // 10 signed bits leave the planes above bit 8 as pure sign extension.
//! let weights: Vec<i32> = (0..256).map(|i| (i * 37) % 601 - 300).collect();
//! let block = CompressedPlanes::compress_values(&weights);
//! assert!(block.stored_planes().len() <= 9);
//! assert!(block.compressed_bits() < block.dense_bits());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod buffers;
pub mod compress;
pub mod dram;
pub mod hierarchy;
pub mod packing;
pub mod traffic;
pub mod transposer;

pub use compress::{CompressedPlanes, PlaneRef};
pub use dram::DramChannel;
pub use hierarchy::{MemoryConfig, MemorySystem};
pub use traffic::{LayerTraffic, StoragePrecision};
