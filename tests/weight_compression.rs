//! The compressed bitplane weight format is lossless and invisible to the
//! datapath: round trips are bit-exact over ragged lanes and adversarial
//! plane patterns, the compressed kernel matches the dense kernel under
//! every signedness combination, and the compressed conv path — the only
//! conv path since the pack-once store landed — is bit-identical (outputs
//! *and* cycles) at every thread budget and against the bit-serial
//! oracle.

use loom_core::loom_mem::compress::{PLANE_COUNT, PLANE_WORDS};
use loom_core::loom_mem::{CompressedPlanes, PlaneRef};
use loom_core::loom_model::layer::ConvSpec;
use loom_core::loom_model::synthetic::{
    synthetic_activations, synthetic_weights, ValueDistribution,
};
use loom_core::loom_model::tensor::{Tensor3, Tensor4};
use loom_core::loom_model::Precision;
use loom_core::loom_sim::config::LoomGeometry;
use loom_core::loom_sim::loom::{
    compressed_inner_product, serial_conv, wide_inner_product, CompressedWideBlock, FunctionalLoom,
    WideBitplaneBlock,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Thread budgets the conv suite sweeps (mirrors `pool_invariance`).
const THREAD_CURVE: [usize; 4] = [1, 2, 4, 8];

/// Every (weights_signed, activations_signed) kernel combination.
const SIGNEDNESS: [(bool, bool); 4] = [(false, false), (false, true), (true, false), (true, true)];

/// Dense plane/sign reference built independently of both packers.
fn dense_of(values: &[i32]) -> ([[u64; PLANE_WORDS]; PLANE_COUNT], [u64; PLANE_WORDS]) {
    let mut planes = [[0u64; PLANE_WORDS]; PLANE_COUNT];
    let mut signs = [0u64; PLANE_WORDS];
    for (lane, &v) in values.iter().enumerate() {
        let (word, bit) = (lane / 64, lane % 64);
        for (plane, words) in planes.iter_mut().enumerate() {
            words[word] |= u64::from((v as u32) >> plane & 1) << bit;
        }
        signs[word] |= u64::from(v < 0) << bit;
    }
    (planes, signs)
}

/// Maps one byte to an adversarial value: all-zero planes, pure sign
/// extension (-1), extreme magnitudes, and a checkerboard that forces a
/// stored plane to differ from the sign plane by a single bit.
fn adversarial(byte: u8) -> i32 {
    match byte % 8 {
        0 => 0,
        1 => -1,
        2 => i32::from(i16::MIN),
        3 => i32::from(i16::MAX),
        4 => 1,
        5 => -2,
        6 => 0x5555,
        _ => i32::from(byte as i8),
    }
}

/// Clamps a raw sample into the value range of a `bits`-wide operand.
fn bounded(raw: u32, bits: u32, signed: bool) -> i32 {
    let magnitude = (raw % (1 << bits)) as i32;
    if signed {
        magnitude - (1 << (bits - 1))
    } else {
        magnitude
    }
}

/// Shared checks: both packers round-trip exactly and the stream accounting
/// follows the stored-plane count.
fn assert_round_trip(values: &[i32]) -> CompressedPlanes {
    let (planes, signs) = dense_of(values);
    let c = CompressedPlanes::compress_values(values);
    assert_eq!(c.lanes(), values.len());
    let (back, back_signs) = c.to_dense();
    assert_eq!(back, planes, "magnitude planes must round-trip exactly");
    assert_eq!(back_signs, signs, "the sign plane must round-trip exactly");
    assert_eq!(
        c,
        CompressedPlanes::from_dense(values.len(), &planes, &signs)
    );
    let lanes = values.len() as u64;
    assert_eq!(
        c.compressed_bits(),
        32 + lanes + c.stored_planes().len() as u64 * lanes,
        "stream accounting must follow the stored-plane count"
    );
    let block = WideBitplaneBlock::pack(values);
    assert_eq!(CompressedWideBlock::compress(&block).decompress(), block);
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Round trips are exact for arbitrary 16-bit values at every ragged
    /// lane count 1..=256.
    #[test]
    fn round_trip_is_exact_over_ragged_lanes(
        values in prop::collection::vec(-32768i32..32768, 1..257),
    ) {
        assert_round_trip(&values);
    }

    /// Round trips survive adversarial plane patterns — all-zero blocks,
    /// pure sign extension, extreme magnitudes — and every plane resolves
    /// to the class its dense content dictates (zero beats sign-extension
    /// when both apply, so elision never loses information).
    #[test]
    fn adversarial_plane_patterns_round_trip(
        bytes in prop::collection::vec(any::<u8>(), 1..257),
    ) {
        let values: Vec<i32> = bytes.iter().map(|&b| adversarial(b)).collect();
        let c = assert_round_trip(&values);
        let (planes, signs) = dense_of(&values);
        for bit in 0..PLANE_COUNT {
            match c.plane(bit as u8) {
                PlaneRef::Zero => prop_assert_eq!(planes[bit], [0; PLANE_WORDS]),
                PlaneRef::SignExtended => {
                    prop_assert_eq!(planes[bit], signs);
                    prop_assert_ne!(planes[bit], [0; PLANE_WORDS]);
                }
                PlaneRef::Stored(words) => {
                    prop_assert_eq!(*words, planes[bit]);
                    prop_assert_ne!(*words, signs);
                }
            }
        }
    }

    /// The compressed kernel computes the same inner product as the dense
    /// kernel for every signedness combination and ragged lane count, at
    /// whatever tier this host dispatches.
    #[test]
    fn compressed_kernel_matches_dense_for_all_signedness(
        raw in prop::collection::vec(any::<u32>(), 1..257),
        pw_bits in 2u32..9,
        pa_bits in 2u32..9,
    ) {
        let pw = Precision::new(pw_bits as u8).unwrap();
        let pa = Precision::new(pa_bits as u8).unwrap();
        for (weights_signed, activations_signed) in SIGNEDNESS {
            // One u32 sample carries both operands: weights from the high
            // half, activations from the low half.
            let weights: Vec<i32> = raw
                .iter()
                .map(|&r| bounded(r >> 16, pw_bits, weights_signed))
                .collect();
            let activations: Vec<i32> = raw
                .iter()
                .map(|&r| bounded(r & 0xFFFF, pa_bits, activations_signed))
                .collect();
            let dense = WideBitplaneBlock::pack(&weights);
            let acts = WideBitplaneBlock::pack(&activations);
            let compressed = CompressedWideBlock::compress(&dense);
            prop_assert_eq!(
                compressed_inner_product(
                    &compressed, &acts, pw, pa, weights_signed, activations_signed,
                ),
                wide_inner_product(&dense, &acts, pw, pa, weights_signed, activations_signed)
            );
        }
    }
}

fn conv_operands(spec: &ConvSpec, seed: u64) -> (Tensor3, Tensor4) {
    let p8 = Precision::new(8).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let input = Tensor3::from_vec(
        spec.input_shape(),
        synthetic_activations(
            &mut rng,
            spec.input_shape().len(),
            p8,
            ValueDistribution::activations(),
        ),
    )
    .unwrap();
    let weights = Tensor4::from_vec(
        spec.weight_shape(),
        synthetic_weights(
            &mut rng,
            spec.weight_shape().len(),
            p8,
            ValueDistribution::weights(),
        ),
    )
    .unwrap();
    (input, weights)
}

fn wide_geometry() -> LoomGeometry {
    LoomGeometry {
        filter_rows: 16,
        window_columns: 8,
        sip_lanes: 16,
        act_bits_per_cycle: 1,
    }
}

/// The wide conv path — which packs filters through the compressed weight
/// store — is bit-identical (outputs, cycles, reduced groups) at every
/// thread budget, and its outputs and cycles match the dense bit-serial
/// oracle exactly.
#[test]
fn compressed_conv_matches_dense_reference_at_every_thread_count() {
    let spec = ConvSpec::simple(32, 16, 16, 32, 3);
    let (input, weights) = conv_operands(&spec, 4242);
    let p8 = Precision::new(8).unwrap();
    let engine = FunctionalLoom::new(wide_geometry());
    let reference = serial_conv(&engine, &spec, &input, &weights, p8, p8);
    let baseline = engine.run_conv(&spec, &input, &weights, p8, p8);
    assert_eq!(
        baseline, reference,
        "the compressed wide path must match the bit-serial reference"
    );
    for threads in THREAD_CURVE {
        let run = FunctionalLoom::new(wide_geometry())
            .with_threads(threads)
            .run_conv(&spec, &input, &weights, p8, p8);
        assert_eq!(baseline, run, "threads={threads}");
    }
}

/// Same invariance for a filter-tiled shape (few window groups, many
/// filters), the decomposition where per-tile packing could plausibly
/// diverge from the shared compressed cache.
#[test]
fn compressed_filter_tiled_conv_is_thread_invariant() {
    let spec = ConvSpec::simple(96, 6, 6, 128, 3);
    let (input, weights) = conv_operands(&spec, 4243);
    let p8 = Precision::new(8).unwrap();
    let baseline = FunctionalLoom::new(wide_geometry()).run_conv(&spec, &input, &weights, p8, p8);
    for threads in THREAD_CURVE {
        let run = FunctionalLoom::new(wide_geometry())
            .with_threads(threads)
            .run_conv(&spec, &input, &weights, p8, p8);
        assert_eq!(baseline, run, "threads={threads}");
    }
}
