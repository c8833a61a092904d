//! The Figure 5 scaling study: how Loom and DStripes compare to an
//! equally-provisioned DPNN as the equivalent peak compute bandwidth grows from
//! 32 to 512 MACs/cycle, with a realistic memory hierarchy (finite activation
//! memory, single-channel LPDDR4-4267 off-chip memory).

use crate::experiment::{build_assignment, ExperimentSettings};
use loom_energy::area::area;
use loom_energy::EnergyModel;
use loom_mem::compress::CompressedPlanes;
use loom_mem::hierarchy::{required_am_bytes, MemoryConfig, MemorySystem};
use loom_mem::traffic::StoragePrecision;
use loom_model::network::Network;
use loom_model::synthetic;
use loom_model::zoo;
use loom_model::Precision;
use loom_precision::table1;
use loom_sim::accelerator;
use loom_sim::counts::{geomean, NetworkSim};
use loom_sim::engine::AcceleratorKind;
use loom_sim::{EquivalentConfig, LoomVariant};
use std::sync::OnceLock;

/// One design point of the scaling study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingPoint {
    /// Equivalent peak compute bandwidth (MACs/cycle).
    pub config: usize,
    /// Loom-1b performance relative to DPNN, all layers (geomean).
    pub loom_all: f64,
    /// Loom-1b performance relative to DPNN, convolutional layers only.
    pub loom_conv: f64,
    /// DStripes performance relative to DPNN, all layers.
    pub dstripes_all: f64,
    /// DStripes performance relative to DPNN, convolutional layers only.
    pub dstripes_conv: f64,
    /// Loom-1b absolute throughput in frames per second (geomean, all layers).
    pub loom_fps_all: f64,
    /// Loom-1b absolute throughput in frames per second (conv layers only).
    pub loom_fps_conv: f64,
    /// Weight-memory capacity provisioned at this design point, bytes.
    pub weight_memory_bytes: u64,
    /// Loom-1b total area (core + memories) relative to DPNN.
    pub area_overhead: f64,
    /// Loom-1b energy efficiency relative to DPNN including off-chip traffic.
    pub energy_efficiency: f64,
    /// Loom-1b performance relative to DPNN, all layers, when weights stream
    /// from DRAM in the compressed bit-plane format (zero and
    /// sign-extension planes elided).
    pub loom_all_compressed: f64,
    /// Loom-1b off-chip bits per frame with dense packed weight streams
    /// (geomean across networks).
    pub loom_offchip_bits: f64,
    /// Loom-1b off-chip bits per frame with compressed weight streams
    /// (geomean across networks).
    pub loom_offchip_compressed_bits: f64,
    /// Modeled compressed-over-packed weight-stream ratio (geomean across
    /// networks); below 1.0 means the compressed format beats packed
    /// precision-`pw` storage.
    pub weight_compression: f64,
}

/// The assembled Figure 5 data.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure5 {
    /// One entry per design point, in sweep order (32..512).
    pub points: Vec<ScalingPoint>,
}

/// Weight-memory capacity the study provisions at each design point (the
/// paper's annotations: 512 KB at "32" up to 8 MB at "512").
pub fn weight_memory_bytes(config: usize) -> u64 {
    16 * 1024 * config as u64
}

/// Values the compression-ratio table is measured over per precision; large
/// enough that the truncated-geometric weight statistics are stable.
const COMPRESSION_SAMPLE: usize = 4096;

/// Modeled compressed-over-packed weight-stream ratio for weights stored at
/// `precision` bits: synthetic weights with the calibrated distribution are
/// compressed into the bit-plane format (zero and sign-extension planes
/// elided) and the stream size is compared against packed `precision`-bit
/// storage. Each 256-lane block ships whichever of the two encodings is
/// smaller (the compressed header has room for the format-select flag), so
/// compression never loses: low-precision layers fall back to packed storage,
/// high-precision layers elide their mostly-empty upper planes. Memoized per
/// precision — the statistics depend only on the distribution and the
/// precision, not the layer.
fn weight_compression_ratio(precision: Precision) -> f64 {
    static TABLE: OnceLock<Vec<f64>> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut ratios = vec![1.0];
        for bits in 1..=16u8 {
            let prec = Precision::new(bits).expect("1..=16 are valid precisions");
            let weights =
                synthetic::seeded_weights(0x10f5_c0de ^ u64::from(bits), COMPRESSION_SAMPLE, prec);
            let mut packed_bits = 0u64;
            let mut stream_bits = 0u64;
            for chunk in weights.chunks(256) {
                let block = CompressedPlanes::compress_values(chunk);
                let packed = chunk.len() as u64 * u64::from(bits);
                packed_bits += packed;
                stream_bits += block.compressed_bits().min(packed);
            }
            ratios.push(stream_bits as f64 / packed_bits as f64);
        }
        ratios
    });
    table[precision.bits() as usize]
}

/// Per-frame costs with the memory system.
struct FrameCosts {
    /// Execution cycles: per layer, the maximum of compute cycles and
    /// off-chip transfer cycles (compute and transfers overlap via double
    /// buffering), summed over the network.
    cycles: u64,
    /// Off-chip bits moved per frame.
    offchip_bits: u64,
    /// Weight bits streamed per frame (the component compression shrinks).
    weight_bits: u64,
}

/// Evaluates a network's per-frame memory costs; with `compressed` the weight
/// streams are scaled by the modeled compression ratio at each layer's
/// storage precision.
fn frame_costs(
    sim: &NetworkSim,
    network: &Network,
    system: &MemorySystem,
    compressed: bool,
) -> FrameCosts {
    let mut costs = FrameCosts {
        cycles: 0,
        offchip_bits: 0,
        weight_bits: 0,
    };
    for (layer_sim, layer) in sim.layers.iter().zip(network.layers().iter()) {
        let storage = StoragePrecision {
            activation: layer_sim.storage.activation,
            weight: layer_sim.storage.weight,
        };
        let usage = if compressed {
            system.evaluate_layer_compressed(
                &layer.kind,
                storage,
                weight_compression_ratio(storage.weight),
            )
        } else {
            system.evaluate_layer(&layer.kind, storage)
        };
        costs.cycles += layer_sim.cycles.max(usage.offchip_cycles);
        costs.offchip_bits += usage.offchip_bits;
        costs.weight_bits += usage.traffic.weight_bits;
    }
    costs
}

/// Per-frame execution cycles with the memory system (dense weight streams).
fn frame_cycles(sim: &NetworkSim, network: &Network, system: &MemorySystem) -> u64 {
    frame_costs(sim, network, system, false).cycles
}

/// Runs the full scaling sweep (all six networks, geomean aggregation).
pub fn figure5() -> Figure5 {
    Figure5 {
        points: EquivalentConfig::scaling_sweep()
            .into_iter()
            .map(scaling_point)
            .collect(),
    }
}

fn scaling_point(config: EquivalentConfig) -> ScalingPoint {
    let settings = ExperimentSettings {
        config,
        ..Default::default()
    };
    let energy = EnergyModel::new(config);
    let wm = weight_memory_bytes(config.macs_per_cycle());

    let mut loom_all = Vec::new();
    let mut loom_conv = Vec::new();
    let mut dstripes_all = Vec::new();
    let mut dstripes_conv = Vec::new();
    let mut loom_fps_all = Vec::new();
    let mut loom_fps_conv = Vec::new();
    let mut efficiency = Vec::new();
    let mut loom_all_compressed = Vec::new();
    let mut offchip_dense = Vec::new();
    let mut offchip_compressed = Vec::new();
    let mut weight_compression = Vec::new();

    for network in zoo::all() {
        // DPNN keeps 16-bit data and needs the 2 MB AM of §4.5; Loom's packed
        // storage fits the same layers in 1 MB.
        let dpnn_system = MemorySystem::with_lpddr4(MemoryConfig {
            am_bytes: MemoryConfig::dpnn_default().am_bytes,
            wm_bytes: wm,
        });
        let loom_system = MemorySystem::with_lpddr4(MemoryConfig {
            am_bytes: MemoryConfig::loom_default().am_bytes,
            wm_bytes: wm,
        });

        let assignment = build_assignment(&network, &settings);
        let simulate =
            |kind| accelerator::build(kind, config).simulate_network(&network, &assignment);
        let dpnn = simulate(AcceleratorKind::Dpnn);
        let lm = simulate(AcceleratorKind::Loom(LoomVariant::Lm1b));
        let ds = simulate(AcceleratorKind::DStripes);

        let dpnn_frame = frame_cycles(&dpnn, &network, &dpnn_system);
        let lm_costs = frame_costs(&lm, &network, &loom_system, false);
        let lm_costs_c = frame_costs(&lm, &network, &loom_system, true);
        let lm_frame = lm_costs.cycles;
        let ds_frame = frame_cycles(&ds, &network, &dpnn_system);

        loom_all.push(dpnn_frame as f64 / lm_frame as f64);
        dstripes_all.push(dpnn_frame as f64 / ds_frame as f64);
        loom_fps_all.push(1e9 / lm_frame as f64);

        // The compressed-weights series: same compute, weight streams shrunk
        // by the modeled bit-plane compression ratio.
        loom_all_compressed.push(dpnn_frame as f64 / lm_costs_c.cycles as f64);
        offchip_dense.push((lm_costs.offchip_bits.max(1)) as f64);
        offchip_compressed.push((lm_costs_c.offchip_bits.max(1)) as f64);
        weight_compression.push(lm_costs_c.weight_bits as f64 / lm_costs.weight_bits.max(1) as f64);

        // Convolutional layers only (compute bound, §4.5).
        loom_conv.push(lm.conv_speedup_vs(&dpnn));
        dstripes_conv.push(ds.conv_speedup_vs(&dpnn));
        loom_fps_conv.push(1e9 / lm.conv_cycles().max(1) as f64);

        // Energy including off-chip traffic. Loom's traffic is priced at one
        // storage precision for every layer, FC included: 8-bit packed
        // activations and the network's conv weight precision.
        let dpnn_off =
            dpnn_system.network_offchip_bits(&network, |_, _| StoragePrecision::baseline());
        let profile = table1::profile(network.name(), settings.target).unwrap();
        let loom_storage = StoragePrecision::packed(
            Precision::new(8).unwrap_or(Precision::FULL),
            profile.conv_weight,
        );
        let loom_off = loom_system.network_offchip_bits(&network, |_, _| loom_storage);
        efficiency.push(energy.efficiency(
            AcceleratorKind::Dpnn,
            &dpnn,
            dpnn_off,
            AcceleratorKind::Loom(LoomVariant::Lm1b),
            &lm,
            loom_off,
        ));
    }

    let lm_area = area(
        AcceleratorKind::Loom(LoomVariant::Lm1b),
        config,
        MemoryConfig::loom_default().am_bytes,
        wm,
    );
    let dpnn_area = area(
        AcceleratorKind::Dpnn,
        config,
        MemoryConfig::dpnn_default().am_bytes,
        wm,
    );

    ScalingPoint {
        config: config.macs_per_cycle(),
        loom_all: geomean(&loom_all),
        loom_conv: geomean(&loom_conv),
        dstripes_all: geomean(&dstripes_all),
        dstripes_conv: geomean(&dstripes_conv),
        loom_fps_all: geomean(&loom_fps_all),
        loom_fps_conv: geomean(&loom_fps_conv),
        weight_memory_bytes: wm,
        area_overhead: lm_area.total_mm2() / dpnn_area.total_mm2(),
        energy_efficiency: geomean(&efficiency),
        loom_all_compressed: geomean(&loom_all_compressed),
        loom_offchip_bits: geomean(&offchip_dense),
        loom_offchip_compressed_bits: geomean(&offchip_compressed),
        weight_compression: geomean(&weight_compression),
    }
}

impl Figure5 {
    /// Renders the figure's data as a text table.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Figure 5 — Scaling vs equivalent DPNN peak compute bandwidth (LPDDR4-4267 off-chip)\n\n",
        );
        let mut table = crate::report::TextTable::new(vec![
            "Config",
            "Loom-all",
            "Loom-conv",
            "DStripes-all",
            "DStripes-conv",
            "Loom fps(all)",
            "Loom fps(conv)",
            "WM",
            "Area ovh",
            "Energy eff",
            "Loom-all(cw)",
            "W-comp",
            "Offchip Mb",
            "Offchip Mb(cw)",
        ]);
        for p in &self.points {
            table.row(vec![
                p.config.to_string(),
                format!("{:.2}", p.loom_all),
                format!("{:.2}", p.loom_conv),
                format!("{:.2}", p.dstripes_all),
                format!("{:.2}", p.dstripes_conv),
                format!("{:.0}", p.loom_fps_all),
                format!("{:.0}", p.loom_fps_conv),
                format!("{} KB", p.weight_memory_bytes / 1024),
                format!("{:.2}", p.area_overhead),
                format!("{:.2}", p.energy_efficiency),
                format!("{:.2}", p.loom_all_compressed),
                format!("{:.2}", p.weight_compression),
                format!("{:.1}", p.loom_offchip_bits / 1e6),
                format!("{:.1}", p.loom_offchip_compressed_bits / 1e6),
            ]);
        }
        out.push_str(&table.render());
        out
    }
}

/// The §4.5 on-chip activation-memory sizing claim: the capacity each design
/// needs so that most layers avoid off-chip activation spills.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AmSizing {
    /// Bytes the baseline (16-bit storage) needs for the network.
    pub dpnn_bytes: u64,
    /// Bytes Loom (packed storage at ~profile precision) needs.
    pub loom_bytes: u64,
}

/// Computes the activation-memory requirement of a network for both designs.
pub fn am_sizing(network: &Network) -> AmSizing {
    AmSizing {
        dpnn_bytes: required_am_bytes(network, Precision::FULL),
        loom_bytes: required_am_bytes(network, Precision::new(8).expect("8 is valid")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_memory_matches_paper_annotations() {
        assert_eq!(weight_memory_bytes(32), 512 * 1024);
        assert_eq!(weight_memory_bytes(128), 2 * 1024 * 1024);
        assert_eq!(weight_memory_bytes(512), 8 * 1024 * 1024);
    }

    #[test]
    fn loom_advantage_shrinks_at_large_configs() {
        let fig = figure5();
        assert_eq!(fig.points.len(), 5);
        let first = &fig.points[0];
        let last = &fig.points[4];
        // Loom's relative conv advantage drops as the grid outgrows the layers.
        assert!(first.loom_conv > last.loom_conv);
        // DStripes' relative performance stays roughly constant.
        assert!((last.dstripes_conv / first.dstripes_conv - 1.0).abs() < 0.25);
        // Loom outperforms DPNN at every design point.
        for p in &fig.points {
            assert!(p.loom_all > 1.0, "config {}", p.config);
        }
        // Absolute throughput still grows with the configuration.
        assert!(last.loom_fps_conv > first.loom_fps_conv);
        assert!(fig.render().contains("Figure 5"));
    }

    #[test]
    fn compressed_weight_streams_cut_traffic_and_never_hurt() {
        // The compression table itself: the per-block format select means
        // compression never loses to packed storage, and the win grows with
        // precision (more elidable high planes).
        for bits in 1..=16u8 {
            let r = weight_compression_ratio(Precision::new(bits).unwrap());
            assert!(r > 0.0 && r <= 1.0, "ratio {r} at {bits} bits");
        }
        assert!(
            weight_compression_ratio(Precision::new(16).unwrap())
                < weight_compression_ratio(Precision::new(8).unwrap())
        );
        assert!(weight_compression_ratio(Precision::FULL) < 1.0);
        let fig = figure5();
        for p in &fig.points {
            assert!(
                p.weight_compression > 0.0 && p.weight_compression <= 1.0,
                "config {}: weight compression {}",
                p.config,
                p.weight_compression
            );
            assert!(
                p.loom_offchip_compressed_bits <= p.loom_offchip_bits,
                "config {}",
                p.config
            );
            // Shrinking transfers can only help overlapped frame time.
            assert!(
                p.loom_all_compressed >= p.loom_all * (1.0 - 1e-12),
                "config {}",
                p.config
            );
        }
        let rendered = fig.render();
        assert!(rendered.contains("Loom-all(cw)"));
        assert!(rendered.contains("W-comp"));
    }

    #[test]
    fn dstripes_catches_up_at_the_largest_configs() {
        // Paper: "At 256 LM and DStripes perform nearly identically and at 512
        // the latter performs better" (convolutional layers). The reproduction
        // should show the gap closing monotonically.
        let fig = figure5();
        let gap_at = |i: usize| fig.points[i].loom_conv / fig.points[i].dstripes_conv;
        assert!(gap_at(0) > gap_at(3));
        assert!(gap_at(3) > gap_at(4) * 0.95);
    }

    #[test]
    fn am_sizing_matches_section_4_5() {
        // DPNN needs about 2 MB for most networks; Loom about half of that.
        // VGG-19 is the documented outlier that cannot fit on chip.
        for net in zoo::all() {
            let s = am_sizing(&net);
            if net.name() == "VGG19" {
                assert!(s.dpnn_bytes > 4 * 1024 * 1024);
            } else {
                assert!(
                    s.dpnn_bytes <= 2 * 1024 * 1024 + 512 * 1024,
                    "{}",
                    net.name()
                );
            }
            assert!(s.loom_bytes * 2 <= s.dpnn_bytes + 1, "{}", net.name());
        }
    }
}
