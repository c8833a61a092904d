//! The Loom bit-serial engine: the bit-serial SIP model (the readable
//! oracle), the 256-lane packed bitplane / popcount datapath the engine runs
//! and its packed-plane precision detector, the functional layer engine and
//! its batched whole-network driver, and the analytic schedules for
//! convolutional and fully-connected layers.

pub mod cost;
pub mod functional;
pub mod network;
mod packed;
pub mod schedule;
pub mod sip;
pub mod store;
pub mod wide;

pub use functional::{FunctionalLoom, FunctionalRun, PackStats};
pub use network::{NetworkEngine, NetworkRun, PackedModel};
pub use schedule::{conv_schedule, fc_schedule, ScheduleResult};
pub use sip::{reference_inner_product, serial_conv, serial_inner_product, Sip};
pub use store::{stats as weight_store_stats, WeightStoreStats};
pub use wide::{
    active_kernel_tier, compressed_inner_product, cpu_features, tile_inner_products,
    wide_inner_product, wide_inner_product_slices, CompressedWideBlock, CpuFeatures, KernelTier,
    WeightBlock, WideBitplaneBlock, KERNEL_TIERS, TILE, WIDE_LANES,
};
