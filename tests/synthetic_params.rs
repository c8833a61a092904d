//! Pins the synthetic weights the repository benchmark runs: each full-scale
//! zoo network's parameters at seed 2018 with Pw = 8 (the data of loombench's
//! `zoo-b1` workload), hashed with 64-bit FNV-1a over every layer name and
//! every weight in compute-layer order.
//!
//! A change to how `NetworkParams::synthetic_for_graph` draws its values
//! changes the data every benchmark reference, cycle count and snapshot was
//! made from, so it must show here first. The networks hold 178.4M weights
//! between them, which a debug build hashes too slowly; run the file with
//! `cargo test --release -p loom-core --test synthetic_params`.

use loom_core::loom_model::inference::NetworkParams;
use loom_core::loom_model::zoo::graphs;
use loom_core::loom_model::Precision;

/// Seed of the benchmark's synthetic weights.
const WEIGHT_SEED: u64 = 2018;

/// 64-bit FNV-1a over each layer's name bytes, then its weights as
/// little-endian `i32` bytes, layer by layer.
fn digest(params: &NetworkParams) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash = (hash ^ u64::from(b)).wrapping_mul(PRIME);
        }
    };
    for layer in params.layers() {
        eat(layer.layer_name.as_bytes());
        for v in layer.values() {
            eat(&v.to_le_bytes());
        }
    }
    hash
}

fn assert_pinned(network: &str, expected: u64) {
    let graph = graphs::lookup(network).expect("zoo names resolve");
    let params =
        NetworkParams::synthetic_for_graph(&graph, &[Precision::new(8).unwrap()], WEIGHT_SEED);
    let got = digest(&params);
    assert_eq!(
        got, expected,
        "{network}: weight digest {got:#018x}, pinned {expected:#018x}"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full-scale network; run in release")]
fn nin_weights_are_pinned() {
    assert_pinned("NiN", 0x6ee7_5a4b_38d5_8b12);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full-scale network; run in release")]
fn alexnet_weights_are_pinned() {
    assert_pinned("AlexNet", 0x306e_300d_450f_132b);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full-scale network; run in release")]
fn googlenet_weights_are_pinned() {
    assert_pinned("GoogLeNet", 0x3b19_3f64_ddf7_7281);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full-scale network; run in release")]
fn vggs_weights_are_pinned() {
    assert_pinned("VGGS", 0x4c92_4d71_ee2b_3f1c);
}
