//! Metric catalogs, machine provenance, and the result line.

use crate::stats::Tally;
use loom_serve::json::Json;

/// The zoo networks, by metric key. On `serve-mix` each key names the
/// reduced (`Mini*`) variant of the same network.
pub const NETS: [&str; 4] = ["nin", "alexnet", "googlenet", "vggs"];

/// The served models `serve.engine_us.<model>` is reported for, in catalog
/// order.
pub const SERVED: [&str; 6] = [
    "minialexnet",
    "mininin",
    "minivgg",
    "minigooglenet",
    "minimlp",
    "mlp",
];

/// A measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// The value; non-finite values are reported as 0.
    pub value: f64,
    /// Unit, as `BENCHMARK.json` lists it.
    pub unit: &'static str,
}

/// Builds a [`Metric`].
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Every end-to-end metric with its unit; each run with tracing off reports
/// all of them.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    let mut all = vec![
        ("setup_s".to_string(), "s"),
        ("images_per_s".to_string(), "1/s"),
        ("requests_per_s".to_string(), "1/s"),
        ("latency_p50_ms".to_string(), "ms"),
        ("latency_p99_ms".to_string(), "ms"),
    ];
    all.extend(NETS.iter().map(|n| (format!("{n}_ms"), "ms")));
    all.push(("peak_rss_mb".to_string(), "MB"));
    all
}

/// Every per-layer metric with its unit; each traced run reports all of
/// them, with 0 for a layer its workload does not exercise.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all = Vec::new();
    for n in NETS {
        for (stem, unit) in [
            ("conv.ms", "ms"),
            ("conv1x1.ms", "ms"),
            ("fc.ms", "ms"),
            ("conv.gbitops", "bitops/ns"),
            ("conv1x1.gbitops", "bitops/ns"),
            ("fc.gbitops", "bitops/ns"),
            ("graph.self_ms", "ms"),
            ("store.lookup_ms", "ms"),
            ("cost.rank_corr", "rho"),
            ("precision.pa_mean", "bits"),
            ("sim.cycles", "cycles"),
            ("sim.reduced_groups", "count"),
            ("trace.coverage", "ratio"),
            ("trace.overhead_ms", "ms"),
        ] {
            all.push((format!("{stem}.{n}"), unit));
        }
    }
    for name in [
        "kernel.wide_ns.4b",
        "kernel.wide_ns.8b",
        "kernel.wide_ns.16b",
        "kernel.compressed_ns.8b",
    ] {
        all.push((name.to_string(), "ns"));
    }
    for class in ["conv", "conv1x1", "fc"] {
        all.push((format!("pool.speedup.{class}"), "x"));
    }
    for (name, unit) in [
        ("store.packs", "count"),
        ("store.hits", "count"),
        ("store.pack_ms", "ms"),
        ("store.resident_mb", "MB"),
        ("catalog.build_ms", "ms"),
        ("serve.server_p50_us", "us"),
        ("serve.server_p99_us", "us"),
        ("serve.transport_p50_us", "us"),
        ("serve.wait_p50_us", "us"),
    ] {
        all.push((name.to_string(), unit));
    }
    all.extend(
        SERVED
            .iter()
            .map(|m| (format!("serve.engine_us.{m}"), "us")),
    );
    for (name, unit) in [
        ("batch.items_mean", "items"),
        ("batch.queue_depth_p50", "items"),
        ("json.parse_us.request", "us"),
        ("json.encode_us.response", "us"),
        ("http.retried_429", "count"),
        ("http.non_200", "count"),
        ("error_ratio", "ratio"),
    ] {
        all.push((name.to_string(), unit));
    }
    all
}

/// Orders `measured` by `catalog` and fills each catalog metric the run did
/// not measure with 0.
///
/// # Panics
///
/// Panics if a measured metric is missing from the catalog or carries a
/// different unit — a benchmark bug.
pub fn complete(measured: Vec<Metric>, catalog: &[(String, &'static str)]) -> Vec<Metric> {
    for m in &measured {
        let listed = catalog.iter().find(|(name, _)| *name == m.name);
        assert_eq!(
            listed.map(|(_, unit)| *unit),
            Some(m.unit),
            "metric {} is not in the catalog with unit {}",
            m.name,
            m.unit
        );
    }
    catalog
        .iter()
        .map(|(name, unit)| {
            measured
                .iter()
                .find(|m| m.name == *name)
                .cloned()
                .unwrap_or_else(|| metric(name.clone(), 0.0, unit))
        })
        .collect()
}

/// The process's peak resident set (`VmHWM`), in MiB; 0 when the kernel
/// does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit the checkout was made from, read from `.git` when present.
fn git_sha() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?.lines().find_map(|line| {
                let (sha, name) = line.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// A finite JSON number: NaN and infinities, which JSON cannot carry, become 0.
fn number(v: f64) -> Json {
    Json::Number(if v.is_finite() { v } else { 0.0 })
}

/// A JSON array of numbers.
pub fn numbers(values: &[f64]) -> Json {
    Json::Array(values.iter().map(|&v| number(v)).collect())
}

/// Machine and run provenance as one JSON object: the logical CPU count,
/// physical cores, the active kernel tier, CPU features and the git sha,
/// followed by run-specific notes.
pub fn provenance(notes: Vec<(&str, Json)>) -> Json {
    use loom_core::loom_sim::loom::{active_kernel_tier, cpu_features};
    let f = cpu_features();
    let features = [
        ("popcnt", f.popcnt),
        ("avx2", f.avx2),
        ("avx512f", f.avx512f),
        ("avx512bw", f.avx512bw),
        ("avx512vpopcntdq", f.avx512vpopcntdq),
    ];
    let mut fields: Vec<(String, Json)> = vec![
        (
            "nproc".into(),
            number(loom_core::threads::available() as f64),
        ),
        (
            "physical_cores".into(),
            number(loom_core::threads::physical_cores() as f64),
        ),
        ("kernel_tier".into(), active_kernel_tier().name().into()),
        (
            "cpu_features".into(),
            Json::Object(
                features
                    .iter()
                    .map(|&(name, on)| (name.to_string(), Json::Bool(on)))
                    .collect(),
            ),
        ),
        ("git_sha".into(), git_sha().as_str().into()),
    ];
    fields.extend(notes.into_iter().map(|(k, v)| (k.to_string(), v)));
    Json::Object(fields)
}

/// The result line the benchmark ends its output with.
pub fn result_line(correct: bool, tally: &Tally, metrics: &[Metric]) -> Json {
    let metrics = metrics
        .iter()
        .map(|m| {
            let entry = vec![
                ("value".to_string(), number(m.value)),
                ("unit".to_string(), m.unit.into()),
            ];
            (m.name.clone(), Json::Object(entry))
        })
        .collect();
    Json::Object(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), number(tally.attempted.max(1) as f64)),
        ("failed".into(), number(tally.failed() as f64)),
        ("metrics".into(), Json::Object(metrics)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogs here and the metric lists in `BENCHMARK.json` must agree
    /// name for name and unit for unit.
    #[test]
    fn catalogs_match_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let json = Json::parse(text).expect("BENCHMARK.json parses");
        for (section, catalog) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            let listed: Vec<(String, String)> = json
                .get(section)
                .and_then(Json::as_array)
                .expect("section is an array")
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let expected: Vec<(String, String)> = catalog
                .iter()
                .map(|(n, u)| (n.clone(), u.to_string()))
                .collect();
            assert_eq!(listed, expected, "{section}");
        }
    }

    #[test]
    fn complete_fills_unmeasured_metrics_with_zero() {
        let catalog = vec![("a".to_string(), "ms"), ("b".to_string(), "s")];
        let done = complete(vec![metric("b", 2.0, "s")], &catalog);
        assert_eq!(done, vec![metric("a", 0.0, "ms"), metric("b", 2.0, "s")]);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let tally = Tally {
            attempted: 3,
            ..Tally::default()
        };
        let line = result_line(true, &tally, &[metric("x_ms", f64::NAN, "ms")]).to_string();
        let json = Json::parse(&line).expect("the result line parses");
        assert_eq!(json.get("attempted").and_then(Json::as_i64), Some(3));
        assert_eq!(json.get("failed").and_then(Json::as_i64), Some(0));
        let x = json.get("metrics").and_then(|m| m.get("x_ms"));
        assert_eq!(
            x.and_then(|x| x.get("value")).and_then(Json::as_i64),
            Some(0)
        );
        assert!(!line.contains('\n'));
    }
}
