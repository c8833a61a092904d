//! The complete on-/off-chip memory hierarchy used by the scaling study
//! (Figure 5): an activation memory (AM), a weight memory (WM), the ABin/ABout
//! buffers, and a single off-chip LPDDR4 channel.
//!
//! The hierarchy answers two questions per layer: how many bits must travel
//! off chip (weights are streamed per frame; activations spill when a layer's
//! working set exceeds the AM), and how many accelerator cycles that traffic
//! occupies on the channel.

use crate::dram::DramChannel;
use crate::traffic::{activation_working_set_bits, layer_traffic, LayerTraffic, StoragePrecision};
use loom_model::layer::LayerKind;
use loom_model::network::Network;
use loom_model::Precision;

/// Sizing of the on-chip memories.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryConfig {
    /// Activation memory capacity in bytes.
    pub am_bytes: u64,
    /// Weight memory capacity in bytes.
    pub wm_bytes: u64,
}

impl MemoryConfig {
    /// The baseline DPNN sizing from §4.5: a 2 MB activation memory.
    pub fn dpnn_default() -> Self {
        MemoryConfig {
            am_bytes: 2 * 1024 * 1024,
            wm_bytes: 2 * 1024 * 1024,
        }
    }

    /// The Loom sizing from §4.5: packed activations let a 1 MB AM hold the
    /// same layers the baseline needs 2 MB for.
    pub fn loom_default() -> Self {
        MemoryConfig {
            am_bytes: 1024 * 1024,
            wm_bytes: 2 * 1024 * 1024,
        }
    }
}

/// Per-layer memory behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerMemoryUse {
    /// On-chip traffic for the layer.
    pub traffic: LayerTraffic,
    /// The layer's activation working set in bits.
    pub working_set_bits: u64,
    /// Bits that must cross the off-chip interface for this layer: all weights
    /// (streamed per frame) plus twice the activation spill (written out and
    /// read back).
    pub offchip_bits: u64,
    /// Accelerator cycles the off-chip transfer occupies at peak bandwidth.
    pub offchip_cycles: u64,
}

/// The memory hierarchy model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemorySystem {
    /// On-chip memory sizing.
    pub config: MemoryConfig,
    /// The off-chip channel.
    pub dram: DramChannel,
}

impl MemorySystem {
    /// Creates a hierarchy with the given sizing and an LPDDR4-4267 channel.
    pub fn with_lpddr4(config: MemoryConfig) -> Self {
        MemorySystem {
            config,
            dram: DramChannel::lpddr4_4267(),
        }
    }

    /// Evaluates one layer stored at the given precisions: the
    /// [`evaluate_layer_compressed`](Self::evaluate_layer_compressed) case
    /// whose weight stream is not compressed (ratio 1.0).
    pub fn evaluate_layer(&self, kind: &LayerKind, storage: StoragePrecision) -> LayerMemoryUse {
        self.evaluate_layer_compressed(kind, storage, 1.0)
    }

    /// Evaluates one layer whose weights stream in the compressed bitplane
    /// format (see [`crate::compress`]): the weight stream costs
    /// `weight_ratio × dense` bits, where `weight_ratio` is the layer's
    /// measured compressed-over-dense ratio. Activations are unaffected.
    pub fn evaluate_layer_compressed(
        &self,
        kind: &LayerKind,
        storage: StoragePrecision,
        weight_ratio: f64,
    ) -> LayerMemoryUse {
        let mut traffic = layer_traffic(kind, storage);
        traffic.weight_bits = (traffic.weight_bits as f64 * weight_ratio).ceil() as u64;
        let working_set = activation_working_set_bits(kind, storage.activation);
        let spill = working_set.saturating_sub(self.config.am_bytes * 8);
        // Spilled activations are written off chip and read back: 2x traffic.
        let offchip_bits = traffic.weight_bits + 2 * spill;
        LayerMemoryUse {
            traffic,
            working_set_bits: working_set,
            offchip_bits,
            offchip_cycles: self.dram.cycles_for_bits(offchip_bits),
        }
    }

    /// Total off-chip bits for a whole network, storing every layer's
    /// activations at `activation` bits and its weights at `weight` bits.
    pub fn network_offchip_bits(
        &self,
        network: &Network,
        storage_for_layer: impl Fn(usize, &LayerKind) -> StoragePrecision,
    ) -> u64 {
        network
            .layers()
            .iter()
            .enumerate()
            .map(|(i, layer)| {
                self.evaluate_layer(&layer.kind, storage_for_layer(i, &layer.kind))
                    .offchip_bits
            })
            .sum()
    }
}

/// The smallest activation-memory capacity (in bytes) that lets every compute
/// layer of `network` keep its activation working set on chip when activations
/// are stored at `activation` bits. This reproduces the §4.5 sizing argument
/// (2 MB for the baseline, 1 MB for Loom, VGG-19 excepted).
pub fn required_am_bytes(network: &Network, activation: Precision) -> u64 {
    network
        .layers()
        .iter()
        .filter(|l| l.kind.is_compute())
        .map(|l| activation_working_set_bits(&l.kind, activation).div_ceil(8))
        .max()
        .unwrap_or(0)
}

/// Total weight footprint of a network in bytes when each compute layer `i`
/// stores its weights at `weight_bits(i)` bits.
pub fn network_weight_bytes(network: &Network, weight_bits: impl Fn(usize) -> Precision) -> u64 {
    network
        .compute_layers()
        .enumerate()
        .map(|(i, l)| (l.kind.total_weights() * weight_bits(i).bits_u64()).div_ceil(8))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_model::layer::{ConvSpec, FcSpec};
    use loom_model::zoo;

    #[test]
    fn small_layer_stays_on_chip() {
        let sys = MemorySystem::with_lpddr4(MemoryConfig::dpnn_default());
        let conv = LayerKind::Conv(ConvSpec::simple(3, 32, 32, 16, 3));
        let usage = sys.evaluate_layer(&conv, StoragePrecision::baseline());
        assert_eq!(usage.offchip_bits, usage.traffic.weight_bits);
        assert!(usage.working_set_bits < sys.config.am_bytes * 8);
    }

    #[test]
    fn oversized_working_set_spills() {
        let sys = MemorySystem::with_lpddr4(MemoryConfig {
            am_bytes: 1024,
            wm_bytes: 1024,
        });
        let conv = LayerKind::Conv(ConvSpec::simple(64, 64, 64, 64, 3));
        let usage = sys.evaluate_layer(&conv, StoragePrecision::baseline());
        assert!(usage.offchip_bits > usage.traffic.weight_bits);
        assert!(usage.offchip_cycles > 0);
    }

    #[test]
    fn compressed_weights_cut_offchip_traffic_but_not_spill() {
        let sys = MemorySystem::with_lpddr4(MemoryConfig::dpnn_default());
        let conv = LayerKind::Conv(ConvSpec::simple(3, 32, 32, 16, 3));
        let dense = sys.evaluate_layer(&conv, StoragePrecision::baseline());
        let compressed = sys.evaluate_layer_compressed(&conv, StoragePrecision::baseline(), 0.5);
        assert_eq!(
            compressed.traffic.weight_bits,
            dense.traffic.weight_bits / 2
        );
        assert_eq!(compressed.working_set_bits, dense.working_set_bits);
        assert!(compressed.offchip_bits < dense.offchip_bits);
        // A ratio of 1.0 reproduces the dense evaluation exactly.
        let unity = sys.evaluate_layer_compressed(&conv, StoragePrecision::baseline(), 1.0);
        assert_eq!(unity, dense);
    }

    #[test]
    fn fc_layers_are_weight_traffic_dominated() {
        let sys = MemorySystem::with_lpddr4(MemoryConfig::dpnn_default());
        let fc = LayerKind::FullyConnected(FcSpec::new(25088, 4096));
        let usage = sys.evaluate_layer(&fc, StoragePrecision::baseline());
        assert!(usage.traffic.weight_bits > 100 * usage.traffic.input_activation_bits);
        // At 16b, VGG-19 fc6 weights alone are ~200 MB of traffic -> clearly
        // off-chip bound.
        assert!(usage.offchip_cycles > 1_000_000);
    }

    #[test]
    fn packed_storage_halves_am_requirement() {
        // §4.5: with 16b activations most layers fit in 2 MB; with ~8b packed
        // activations they fit in ~1 MB. VGG-19 is the outlier either way.
        for net in zoo::all() {
            if net.name() == "VGG19" {
                continue;
            }
            let full = required_am_bytes(&net, Precision::FULL);
            let packed = required_am_bytes(&net, Precision::new(8).unwrap());
            assert!(
                full <= 2 * 1024 * 1024 + 512 * 1024,
                "{}: {full}",
                net.name()
            );
            assert!(packed <= full / 2 + 1, "{}", net.name());
        }
        let vgg19_full = required_am_bytes(&zoo::vgg19(), Precision::FULL);
        assert!(
            vgg19_full > 4 * 1024 * 1024,
            "VGG-19 cannot fit on chip at 16b"
        );
    }

    #[test]
    fn weight_footprint_scales_with_precision() {
        let net = zoo::alexnet();
        let full = network_weight_bytes(&net, |_| Precision::FULL);
        let packed = network_weight_bytes(&net, |_| Precision::new(8).unwrap());
        assert!(packed * 2 <= full + net.compute_layers().count() as u64);
    }

    #[test]
    fn network_offchip_accumulates_all_layers() {
        let sys = MemorySystem::with_lpddr4(MemoryConfig::dpnn_default());
        let net = zoo::alexnet();
        let total = sys.network_offchip_bits(&net, |_, _| StoragePrecision::baseline());
        // At minimum all weights cross the interface once.
        let weight_bits: u64 = net.total_weights() * 16;
        assert!(total >= weight_bits);
    }
}
