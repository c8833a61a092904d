//! CSV export of experiment results, for plotting the figures with external
//! tools (the paper's bar charts and scaling curves are easiest to regenerate
//! from flat files).

use crate::experiment::NetworkEvaluation;
use crate::scaling::Figure5;
use crate::tables::{Table2, Table4};
use loom_sim::engine::AcceleratorKind;
use std::fmt::Write as _;

/// Escapes a CSV field (quotes fields containing separators or quotes).
fn field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

fn num(v: f64) -> String {
    if v.is_nan() {
        String::new()
    } else {
        format!("{v:.4}")
    }
}

/// Exports per-network, per-accelerator relative results as CSV with one row
/// per (network, accelerator) pair.
pub fn evaluations_to_csv(evals: &[NetworkEvaluation]) -> String {
    let mut out = String::from(
        "network,accelerator,conv_speedup,fc_speedup,all_speedup,conv_efficiency,fc_efficiency,all_efficiency\n",
    );
    for eval in evals {
        for (kind, r) in &eval.relatives {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{}",
                field(&eval.network),
                field(&kind.to_string()),
                num(r.conv_speedup),
                num(r.fc_speedup),
                num(r.all_speedup),
                num(r.conv_efficiency),
                num(r.fc_efficiency),
                num(r.all_efficiency)
            );
        }
    }
    out
}

/// Exports Table 2 as CSV (one row per network and layer class).
pub fn table2_to_csv(table: &Table2) -> String {
    let mut out = String::from(
        "target,network,layer_class,stripes_perf,stripes_eff,lm1b_perf,lm1b_eff,lm2b_perf,lm2b_eff,lm4b_perf,lm4b_eff\n",
    );
    for row in &table.rows {
        for (class, cols) in [("fcl", row.fcl.as_ref()), ("cvl", Some(&row.cvl))] {
            let Some(cols) = cols else { continue };
            let mut line = format!("{},{},{class}", table.target, field(&row.network));
            for c in cols.iter() {
                let _ = write!(line, ",{},{}", num(c.perf), num(c.eff));
            }
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}

/// Exports Table 4 as CSV.
pub fn table4_to_csv(table: &Table4) -> String {
    let mut out =
        String::from("network,lm1b_perf,lm1b_eff,lm2b_perf,lm2b_eff,lm4b_perf,lm4b_eff\n");
    for (network, cols) in &table.rows {
        let mut line = field(network);
        for c in cols.iter() {
            let _ = write!(line, ",{},{}", num(c.perf), num(c.eff));
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Exports the Figure 5 sweep as CSV (one row per design point).
pub fn figure5_to_csv(figure: &Figure5) -> String {
    let mut out = String::from(
        "config,loom_all,loom_conv,dstripes_all,dstripes_conv,loom_fps_all,loom_fps_conv,weight_memory_bytes,area_overhead,energy_efficiency,loom_all_compressed,weight_compression,loom_offchip_bits,loom_offchip_compressed_bits\n",
    );
    for p in &figure.points {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            p.config,
            num(p.loom_all),
            num(p.loom_conv),
            num(p.dstripes_all),
            num(p.dstripes_conv),
            num(p.loom_fps_all),
            num(p.loom_fps_conv),
            p.weight_memory_bytes,
            num(p.area_overhead),
            num(p.energy_efficiency),
            num(p.loom_all_compressed),
            num(p.weight_compression),
            num(p.loom_offchip_bits),
            num(p.loom_offchip_compressed_bits)
        );
    }
    out
}

/// Escapes a JSON string (quotes and control characters).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One kernel micro-benchmark point: nanoseconds per `lanes`-lane inner
/// product for the bit-serial oracle loop and the 256-lane SIMD-wide
/// datapath (alone, and inside a full tile), and per `lanes`-lane transpose
/// into a wide block, at one operand precision.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelBench {
    /// Operand precision (both weights and activations), in bits.
    pub precision_bits: u8,
    /// Lanes per inner product (the wide block width, 256).
    pub lanes: usize,
    /// Mean wall-clock per inner product for the bit-serial oracle.
    pub serial_ns: f64,
    /// Mean wall-clock per inner product for the 256-lane wide kernel
    /// (pre-transposed operands, as the engine amortises packing).
    pub wide_ns: f64,
    /// Mean wall-clock per 256-lane product inside a full tile on the active
    /// kernel tier: a 9-block row (a 3×3×256 filter) against `TILE` windows,
    /// the kernel call the engine makes.
    pub tile_ns: f64,
    /// Mean wall-clock per `lanes`-lane `pack_into` of the activation operand
    /// on the active kernel tier's transposer.
    pub pack_ns: f64,
}

impl KernelBench {
    /// Serial-over-wide speedup (1.0 when the wide time is 0).
    pub fn wide_speedup(&self) -> f64 {
        if self.wide_ns > 0.0 {
            self.serial_ns / self.wide_ns
        } else {
            1.0
        }
    }
}

/// One zoo network run end to end through both the golden graph executor and
/// the batched functional engine, with bit-exact trace comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ZooFunctionalRow {
    /// Network name (a `loom_model::zoo::graphs` graph).
    pub network: String,
    /// Layer-graph nodes the trace covers.
    pub nodes: usize,
    /// Total MACs of the graph.
    pub macs: u64,
    /// Wall-clock seconds of generating the network's synthetic weights
    /// (`NetworkParams::synthetic_for_graph`), the bulk of a cold start.
    pub synth_seconds: f64,
    /// Wall-clock seconds of the golden (reference-kernel) forward pass.
    pub golden_seconds: f64,
    /// Wall-clock seconds of the functional (bit-serial datapath) pass.
    pub functional_seconds: f64,
    /// Total bit-serial cycles the functional engine reported.
    pub cycles: u64,
    /// Activation groups dynamic precision detection reduced.
    pub reduced_groups: u64,
    /// Whether the functional trace was bit-identical to the golden trace.
    /// CI fails the job when false.
    pub matches_reference: bool,
}

/// One registered accelerator's functional end-to-end run over a zoo
/// network: the measured (not just modeled) series behind Table 2 / Figure 4.
/// Every backend shares the golden graph executor, so its trace must be
/// bit-identical to the reference; `cycles` is the backend's own datapath
/// accounting, consistent with its analytic `Accelerator` model.
#[derive(Debug, Clone, PartialEq)]
pub struct DatapathThroughputRow {
    /// Accelerator display name, in Figure 4 plot order.
    pub accelerator: String,
    /// Network the backend ran.
    pub network: String,
    /// Wall-clock seconds of the functional pass on this backend.
    pub seconds: f64,
    /// Modeled datapath cycles the backend reported.
    pub cycles: u64,
    /// Activation groups runtime precision detection reduced.
    pub reduced_groups: u64,
    /// Modeled-cycle speedup versus the DPNN row of the same network (1.0
    /// for DPNN itself, and when no DPNN row exists to normalise against).
    pub speedup_vs_dpnn: f64,
    /// Whether the run was bit-identical to the golden model. CI fails the
    /// job when false.
    pub matches_reference: bool,
}

/// One point of the batched-throughput scaling curve: the same batch on a
/// given worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingPoint {
    /// Worker threads of this run.
    pub threads: usize,
    /// Wall-clock seconds of the batch.
    pub seconds: f64,
}

/// Batched-throughput measurement: one network run as a batch across a
/// per-thread scaling curve (1/2/4 workers), with bit-exact result
/// comparison at every point. Interpret the speedups against the top-level
/// `available_parallelism` — a single-core runner cannot show one.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchBench {
    /// Network the batch ran.
    pub network: String,
    /// Batch size.
    pub batch: usize,
    /// Worker threads of the widest parallel run.
    pub threads: usize,
    /// Wall-clock seconds of the batch on one worker thread.
    pub serial_seconds: f64,
    /// Wall-clock seconds of the batch on `threads` workers.
    pub parallel_seconds: f64,
    /// Whether every run's results were bit-identical to the one-thread run.
    pub identical: bool,
    /// The full per-thread scaling curve, including the 1-thread point.
    pub scaling: Vec<ScalingPoint>,
}

impl BatchBench {
    /// Serial-over-parallel wall-clock ratio (1.0 when parallel time is 0).
    pub fn speedup(&self) -> f64 {
        if self.parallel_seconds > 0.0 {
            self.serial_seconds / self.parallel_seconds
        } else {
            1.0
        }
    }
}

/// Process-wide weight-store and compression statistics at the end of a
/// benchmark run, plus the explicit repack-avoidance probe: the same model
/// prepacked twice, with the second pack required to be served from the
/// store. CI gates on `repack_avoided` and archives the compression stats.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightStoreBench {
    /// Containers packed (store misses) over the whole run.
    pub packs: u64,
    /// Lookups served from the store over the whole run.
    pub hits: u64,
    /// Containers evicted by the store's FIFO cap.
    pub evictions: u64,
    /// Containers resident at the end of the run.
    pub entries: u64,
    /// Approximate resident bytes of the packed (compressed) containers.
    pub resident_bytes: u64,
    /// Wall-clock seconds spent packing, cumulative over every store miss.
    pub pack_seconds: f64,
    /// Resident bytes the equivalent dense block layout would occupy.
    pub dense_bytes: u64,
    /// Resident bytes of the compressed blocks actually held.
    pub compressed_bytes: u64,
    /// Compressed-over-dense modeled DRAM stream ratio.
    pub compression_ratio: f64,
    /// Whether the second prepack of the probe model was fully served from
    /// the store (no repacking). CI fails when `--require-repack-avoidance`
    /// is given and this is false.
    pub repack_avoided: bool,
    /// Nanoseconds per weight of the store's content fingerprint, over the
    /// probe model's weights.
    pub fingerprint_ns_per_weight: f64,
    /// Nanoseconds per weight of `required_precision`, over the probe
    /// model's weights.
    pub precision_scan_ns_per_weight: f64,
}

/// One functional-benchmark measurement: the SIP kernel micro-benchmarks, a
/// mid-size convolutional layer through the functional engine and the golden
/// `i64` reference, the zoo networks through the whole-network engine
/// against the golden model, and a batched-throughput scaling curve.
/// Rendered as machine-readable JSON by [`functional_bench_to_json`]
/// (consumed by CI as `BENCH_functional.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionalBenchReport {
    /// Kernel micro-benchmark points, one per operand precision.
    pub kernels: Vec<KernelBench>,
    /// Human-readable description of the benchmarked conv layer.
    pub conv_layer: String,
    /// Wall-clock seconds of the conv layer on the golden `i64` reference.
    pub conv_golden_seconds: f64,
    /// Wall-clock seconds of the conv layer on the functional engine.
    pub conv_wide_seconds: f64,
    /// Whether the engine's conv outputs equal the golden reference's. CI
    /// fails the job when false.
    pub conv_matches_reference: bool,
    /// Cores the benchmarking machine exposed (contextualises the batch
    /// speedup: a single-core runner cannot show one).
    pub available_parallelism: usize,
    /// Physical cores of the machine (SMT siblings collapsed) — scaling
    /// floors are judged against this, not logical CPUs.
    pub physical_cores: usize,
    /// Whether the run was forced past the machine's available parallelism
    /// (`--allow-oversubscribe`). Scaling numbers from such a run are not
    /// comparable to a committed floor.
    pub oversubscribed: bool,
    /// Runtime-detected CPU features relevant to the wide kernels, as
    /// `(name, detected)` pairs in a stable order.
    pub cpu_features: Vec<(String, bool)>,
    /// Per-tier kernel availability, as `(tier name, detected)` pairs
    /// slowest to fastest.
    pub kernel_tiers: Vec<(String, bool)>,
    /// The kernel tier the wide datapath dispatched to on this machine.
    pub active_kernel_tier: String,
    /// Whole-network zoo runs, in suite order.
    pub zoo: Vec<ZooFunctionalRow>,
    /// Per-accelerator functional throughput rows (every backend over the
    /// conformance network), in `AcceleratorKind::all()` order.
    pub datapaths: Vec<DatapathThroughputRow>,
    /// Batched-throughput measurement, if the benchmark ran one.
    pub batch: Option<BatchBench>,
    /// Batch-of-1 latency scaling measurement (the same network as a single
    /// inference, intra-layer tasks fanned across the pool), if run.
    pub latency: Option<BatchBench>,
    /// Weight-store counters, compression footprint and the repack-avoidance
    /// probe outcome.
    pub weight_store: WeightStoreBench,
}

impl FunctionalBenchReport {
    /// Golden-over-engine wall-clock ratio for the conv layer (1.0 when the
    /// engine time is 0) — the headline speedup the CI perf guard floors.
    pub fn conv_speedup(&self) -> f64 {
        if self.conv_wide_seconds > 0.0 {
            self.conv_golden_seconds / self.conv_wide_seconds
        } else {
            1.0
        }
    }

    /// Whether every bit-exactness check in the report passed: the conv
    /// layer, every zoo network against the golden model, every
    /// per-accelerator datapath row, and every parallel batch run against
    /// the serial one. CI fails the job when false.
    pub fn all_agree(&self) -> bool {
        self.conv_matches_reference
            && self.zoo.iter().all(|z| z.matches_reference)
            && self.datapaths.iter().all(|d| d.matches_reference)
            && self.batch.as_ref().is_none_or(|b| b.identical)
            && self.latency.as_ref().is_none_or(|l| l.identical)
    }
}

/// Renders a [`FunctionalBenchReport`] as JSON (no external dependencies —
/// the build environment has no serde).
pub fn functional_bench_to_json(report: &FunctionalBenchReport) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"kernels\": [\n");
    for (i, k) in report.kernels.iter().enumerate() {
        let comma = if i + 1 < report.kernels.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "    {{\"precision_bits\": {}, \"lanes\": {}, \"serial_ns\": {:.2}, \"wide_ns\": {:.2}, \"tile_ns\": {:.2}, \"wide_speedup\": {:.2}, \"pack_ns\": {:.2}}}{comma}",
            k.precision_bits,
            k.lanes,
            k.serial_ns,
            k.wide_ns,
            k.tile_ns,
            k.wide_speedup(),
            k.pack_ns
        );
    }
    out.push_str("  ],\n");
    let _ = writeln!(
        out,
        "  \"conv_layer\": {},",
        json_string(&report.conv_layer)
    );
    let _ = writeln!(
        out,
        "  \"conv_golden_seconds\": {:.6},",
        report.conv_golden_seconds
    );
    let _ = writeln!(
        out,
        "  \"conv_wide_seconds\": {:.6},",
        report.conv_wide_seconds
    );
    let _ = writeln!(out, "  \"conv_speedup\": {:.4},", report.conv_speedup());
    let _ = writeln!(
        out,
        "  \"conv_matches_reference\": {},",
        report.conv_matches_reference
    );
    let _ = writeln!(
        out,
        "  \"available_parallelism\": {},",
        report.available_parallelism
    );
    let _ = writeln!(out, "  \"physical_cores\": {},", report.physical_cores);
    let _ = writeln!(out, "  \"oversubscribed\": {},", report.oversubscribed);
    let flag_map = |pairs: &[(String, bool)]| -> String {
        pairs
            .iter()
            .map(|(name, on)| format!("{}: {on}", json_string(name)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let _ = writeln!(
        out,
        "  \"cpu_features\": {{{}}},",
        flag_map(&report.cpu_features)
    );
    let _ = writeln!(
        out,
        "  \"kernel_tiers\": {{{}}},",
        flag_map(&report.kernel_tiers)
    );
    let _ = writeln!(
        out,
        "  \"active_kernel_tier\": {},",
        json_string(&report.active_kernel_tier)
    );
    out.push_str("  \"zoo\": [\n");
    for (i, z) in report.zoo.iter().enumerate() {
        let comma = if i + 1 < report.zoo.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"network\": {}, \"nodes\": {}, \"macs\": {}, \"synth_seconds\": {:.6}, \"golden_seconds\": {:.6}, \"functional_seconds\": {:.6}, \"cycles\": {}, \"reduced_groups\": {}, \"matches_reference\": {}}}{comma}",
            json_string(&z.network),
            z.nodes,
            z.macs,
            z.synth_seconds,
            z.golden_seconds,
            z.functional_seconds,
            z.cycles,
            z.reduced_groups,
            z.matches_reference
        );
    }
    out.push_str("  ],\n");
    out.push_str("  \"datapaths\": [\n");
    for (i, d) in report.datapaths.iter().enumerate() {
        let comma = if i + 1 < report.datapaths.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "    {{\"accelerator\": {}, \"network\": {}, \"seconds\": {:.6}, \"cycles\": {}, \"reduced_groups\": {}, \"speedup_vs_dpnn\": {:.4}, \"matches_reference\": {}}}{comma}",
            json_string(&d.accelerator),
            json_string(&d.network),
            d.seconds,
            d.cycles,
            d.reduced_groups,
            d.speedup_vs_dpnn,
            d.matches_reference
        );
    }
    out.push_str("  ],\n");
    let batch_json = |b: &BatchBench| -> String {
        let scaling: Vec<String> = b
            .scaling
            .iter()
            .map(|p| {
                let speedup = if p.seconds > 0.0 {
                    b.serial_seconds / p.seconds
                } else {
                    1.0
                };
                format!(
                    "{{\"threads\": {}, \"seconds\": {:.6}, \"speedup\": {:.4}}}",
                    p.threads, p.seconds, speedup
                )
            })
            .collect();
        format!(
            "{{\"network\": {}, \"batch\": {}, \"threads\": {}, \"serial_seconds\": {:.6}, \"parallel_seconds\": {:.6}, \"speedup\": {:.4}, \"identical\": {}, \"scaling\": [{}]}}",
            json_string(&b.network),
            b.batch,
            b.threads,
            b.serial_seconds,
            b.parallel_seconds,
            b.speedup(),
            b.identical,
            scaling.join(", ")
        )
    };
    match &report.batch {
        Some(b) => {
            let _ = writeln!(out, "  \"batch\": {},", batch_json(b));
        }
        None => out.push_str("  \"batch\": null,\n"),
    }
    match &report.latency {
        Some(l) => {
            let _ = writeln!(out, "  \"latency\": {},", batch_json(l));
        }
        None => out.push_str("  \"latency\": null,\n"),
    }
    let ws = &report.weight_store;
    let _ = writeln!(
        out,
        "  \"weight_store\": {{\"packs\": {}, \"hits\": {}, \"evictions\": {}, \"entries\": {}, \"resident_bytes\": {}, \"pack_seconds\": {:.6}, \"dense_bytes\": {}, \"compressed_bytes\": {}, \"compression_ratio\": {:.4}, \"repack_avoided\": {}, \"fingerprint_ns_per_weight\": {:.4}, \"precision_scan_ns_per_weight\": {:.4}}}",
        ws.packs,
        ws.hits,
        ws.evictions,
        ws.entries,
        ws.resident_bytes,
        ws.pack_seconds,
        ws.dense_bytes,
        ws.compressed_bytes,
        ws.compression_ratio,
        ws.repack_avoided,
        ws.fingerprint_ns_per_weight,
        ws.precision_scan_ns_per_weight
    );
    out.push_str("}\n");
    out
}

/// Convenience: the accelerators in the order the CSV columns assume.
pub fn csv_accelerator_order() -> [AcceleratorKind; 4] {
    use loom_sim::LoomVariant;
    [
        AcceleratorKind::Stripes,
        AcceleratorKind::Loom(LoomVariant::Lm1b),
        AcceleratorKind::Loom(LoomVariant::Lm2b),
        AcceleratorKind::Loom(LoomVariant::Lm4b),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{evaluate_all_networks, evaluate_network, ExperimentSettings};
    use crate::tables::{table2, table4};
    use loom_precision::AccuracyTarget;

    #[test]
    fn evaluation_csv_has_one_row_per_pair() {
        let eval = evaluate_network(&loom_model::zoo::alexnet(), &ExperimentSettings::default());
        let csv = evaluations_to_csv(&[eval]);
        // Header + 5 comparators.
        assert_eq!(csv.lines().count(), 6);
        assert!(csv.starts_with("network,accelerator"));
        assert!(csv.contains("AlexNet,Stripes"));
    }

    #[test]
    fn table_csvs_are_well_formed() {
        let t2 = table2(
            AccuracyTarget::Lossless,
            &evaluate_all_networks(&ExperimentSettings::default()),
        );
        let csv2 = table2_to_csv(&t2);
        // 6 networks x 2 classes - 1 (NiN has no FCL) + header.
        assert_eq!(csv2.lines().count(), 12);
        let field_count = csv2.lines().next().unwrap().split(',').count();
        for line in csv2.lines().skip(1) {
            assert_eq!(line.split(',').count(), field_count, "{line}");
        }
        let t4 = table4();
        let csv4 = table4_to_csv(&t4);
        assert_eq!(csv4.lines().count(), 7);
    }

    #[test]
    fn functional_bench_json_is_well_formed() {
        let report = FunctionalBenchReport {
            kernels: vec![
                KernelBench {
                    precision_bits: 8,
                    lanes: 256,
                    serial_ns: 1000.0,
                    wide_ns: 10.0,
                    tile_ns: 4.5,
                    pack_ns: 30.0,
                },
                KernelBench {
                    precision_bits: 16,
                    lanes: 256,
                    serial_ns: 4000.0,
                    wide_ns: 40.0,
                    tile_ns: 20.25,
                    pack_ns: 50.0,
                },
            ],
            conv_layer: "conv 32x16x16 k3".into(),
            conv_golden_seconds: 2.0,
            conv_wide_seconds: 0.05,
            conv_matches_reference: true,
            available_parallelism: 4,
            physical_cores: 2,
            oversubscribed: false,
            cpu_features: vec![("popcnt".into(), true), ("avx512f".into(), false)],
            kernel_tiers: vec![("portable".into(), true), ("avx2".into(), true)],
            active_kernel_tier: "avx2".into(),
            zoo: vec![ZooFunctionalRow {
                network: "MiniGoogLeNet".into(),
                nodes: 30,
                macs: 1_000_000,
                synth_seconds: 0.25,
                golden_seconds: 0.5,
                functional_seconds: 1.5,
                cycles: 123,
                reduced_groups: 7,
                matches_reference: true,
            }],
            datapaths: vec![
                DatapathThroughputRow {
                    accelerator: "DPNN".into(),
                    network: "MiniAlexNet".into(),
                    seconds: 0.4,
                    cycles: 4000,
                    reduced_groups: 0,
                    speedup_vs_dpnn: 1.0,
                    matches_reference: true,
                },
                DatapathThroughputRow {
                    accelerator: "DStripes".into(),
                    network: "MiniAlexNet".into(),
                    seconds: 0.5,
                    cycles: 1000,
                    reduced_groups: 12,
                    speedup_vs_dpnn: 4.0,
                    matches_reference: true,
                },
            ],
            batch: Some(BatchBench {
                network: "AlexNet".into(),
                batch: 4,
                threads: 4,
                serial_seconds: 8.0,
                parallel_seconds: 2.0,
                identical: true,
                scaling: vec![
                    ScalingPoint {
                        threads: 1,
                        seconds: 8.0,
                    },
                    ScalingPoint {
                        threads: 2,
                        seconds: 4.0,
                    },
                    ScalingPoint {
                        threads: 4,
                        seconds: 2.0,
                    },
                ],
            }),
            latency: Some(BatchBench {
                network: "AlexNet".into(),
                batch: 1,
                threads: 4,
                serial_seconds: 2.0,
                parallel_seconds: 1.0,
                identical: true,
                scaling: vec![
                    ScalingPoint {
                        threads: 1,
                        seconds: 2.0,
                    },
                    ScalingPoint {
                        threads: 4,
                        seconds: 1.0,
                    },
                ],
            }),
            weight_store: WeightStoreBench {
                packs: 12,
                hits: 20,
                evictions: 0,
                entries: 12,
                resident_bytes: 48_000,
                pack_seconds: 0.125,
                dense_bytes: 96_000,
                compressed_bytes: 48_000,
                compression_ratio: 0.55,
                repack_avoided: true,
                fingerprint_ns_per_weight: 0.125,
                precision_scan_ns_per_weight: 0.5,
            },
        };
        assert!((report.conv_speedup() - 40.0).abs() < 1e-12);
        assert!((report.kernels[0].wide_speedup() - 100.0).abs() < 1e-12);
        let json = functional_bench_to_json(&report);
        assert!(json.contains("\"precision_bits\": 8"));
        assert!(json.contains("\"lanes\": 256"));
        assert!(json.contains(
            "\"wide_ns\": 10.00, \"tile_ns\": 4.50, \"wide_speedup\": 100.00, \"pack_ns\": 30.00}"
        ));
        assert!(json.contains("\"wide_ns\": 40.00, \"tile_ns\": 20.25,"));
        assert!(json.contains("\"conv_golden_seconds\": 2.000000"));
        assert!(json.contains("\"conv_speedup\": 40.0000"));
        assert!(json.contains("\"conv_wide_seconds\": 0.050000"));
        assert!(json.contains("\"conv_matches_reference\": true"));
        assert!(json.contains(
            "\"network\": \"MiniGoogLeNet\", \"nodes\": 30, \"macs\": 1000000, \
             \"synth_seconds\": 0.250000, \"golden_seconds\": 0.500000, \"functional_seconds\": 1.500000"
        ));
        assert!(json.contains("\"matches_reference\": true"));
        assert!(json.contains("\"speedup\": 4.0000"));
        assert!(json.contains("\"scaling\": [{\"threads\": 1"));
        assert!(json.contains("{\"threads\": 2, \"seconds\": 4.000000, \"speedup\": 2.0000}"));
        assert!(report.all_agree());
        assert!((report.batch.as_ref().unwrap().speedup() - 4.0).abs() < 1e-12);
        assert!(json.trim_start().starts_with('{') && json.trim_end().ends_with('}'));
        // Escaping: a pathological name stays a single JSON string.
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert!(json.contains("\"accelerator\": \"DStripes\""));
        assert!(json.contains("\"speedup_vs_dpnn\": 4.0000"));
        // A diverging conv layer, zoo row, datapath row, or batch flips the
        // gate.
        let mut bad = report.clone();
        bad.conv_matches_reference = false;
        assert!(!bad.all_agree());
        let mut bad = report.clone();
        bad.zoo[0].matches_reference = false;
        assert!(!bad.all_agree());
        let mut bad = report.clone();
        bad.datapaths[1].matches_reference = false;
        assert!(!bad.all_agree());
        // Machine provenance fields round-trip into the JSON.
        assert!(json.contains("\"physical_cores\": 2"));
        assert!(json.contains("\"oversubscribed\": false"));
        assert!(json.contains("\"cpu_features\": {\"popcnt\": true, \"avx512f\": false}"));
        assert!(json.contains("\"kernel_tiers\": {\"portable\": true, \"avx2\": true}"));
        assert!(json.contains("\"active_kernel_tier\": \"avx2\""));
        // The batch-of-1 latency section mirrors the batch one.
        assert!(json.contains("\"latency\": {\"network\": \"AlexNet\", \"batch\": 1"));
        // The weight-store section carries the pack-once and compression
        // numbers CI archives.
        assert!(json.contains(
            "\"weight_store\": {\"packs\": 12, \"hits\": 20, \"evictions\": 0, \"entries\": 12, \
             \"resident_bytes\": 48000, \"pack_seconds\": 0.125000, \"dense_bytes\": 96000, \
             \"compressed_bytes\": 48000, \"compression_ratio\": 0.5500, \"repack_avoided\": true, \
             \"fingerprint_ns_per_weight\": 0.1250, \"precision_scan_ns_per_weight\": 0.5000}"
        ));
        assert!((report.latency.as_ref().unwrap().speedup() - 2.0).abs() < 1e-12);
        let mut bad = report.clone();
        bad.batch.as_mut().unwrap().identical = false;
        assert!(!bad.all_agree());
        let mut bad = report.clone();
        bad.latency.as_mut().unwrap().identical = false;
        assert!(!bad.all_agree());
        let mut no_batch = report.clone();
        no_batch.batch = None;
        no_batch.latency = None;
        assert!(no_batch.all_agree());
        assert!(functional_bench_to_json(&no_batch).contains("\"batch\": null"));
        let degenerate = KernelBench {
            precision_bits: 4,
            lanes: 256,
            serial_ns: 1.0,
            wide_ns: 0.0,
            tile_ns: 0.0,
            pack_ns: 0.0,
        };
        assert_eq!(degenerate.wide_speedup(), 1.0);
        let zero = FunctionalBenchReport {
            conv_wide_seconds: 0.0,
            ..report
        };
        assert_eq!(zero.conv_speedup(), 1.0);
    }

    #[test]
    fn csv_escaping_handles_commas_and_quotes() {
        assert_eq!(field("plain"), "plain");
        assert_eq!(field("a,b"), "\"a,b\"");
        assert_eq!(field("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(num(f64::NAN), "");
        assert_eq!(csv_accelerator_order().len(), 4);
    }
}
