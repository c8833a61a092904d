//! Synthetic weight and activation generators.
//!
//! ImageNet-trained models for the six evaluated networks are not available in
//! this environment, so the reproduction substitutes synthetic tensors whose
//! *bit-precision statistics* are calibrated to the paper's published profiles
//! (Table 1) — see `DESIGN.md` §2. The generators below guarantee two
//! properties the simulators depend on:
//!
//! 1. the layer-wide required precision equals the requested profile precision
//!    exactly (a value of maximal magnitude is always planted), and
//! 2. the magnitude distribution is heavy at small values, so per-group
//!    precisions detected at runtime fall below the layer profile — the effect
//!    Loom's dynamic precision reduction exploits.
//!
//! # Bulk generation
//!
//! The functions that take the caller's generator ([`synthetic_weights`],
//! [`synthetic_activations`], [`ValueDistribution::draw_signed`], …) draw
//! value by value, and leave the generator exactly past the last draw a
//! value used. A whole network's weights are far too many for that: at
//! Pw = 8 a weight takes 5.55 raw draws on average, and the loop exit that
//! ends its growth run is mispredicted about once per value.
//!
//! [`seeded_weights`] and
//! [`NetworkParams::synthetic_for_graph`](crate::inference::NetworkParams::synthetic_for_graph)
//! seed their own generator and drop it, so they decode in bulk instead:
//!
//! - A producer thread owns the seeded [`StdRng`]. It fills fixed-size
//!   chunks of raw `next_u64` draws, marks each draw's stop bit (whether it
//!   would end a value's growth run; the marking loop is also compiled for
//!   AVX-512, where it is one compare per eight draws), and runs up to a
//!   few chunks ahead.
//! - The calling thread decodes each value from a chunk without branching
//!   on its growth run: the zero test on the value's first draw, the growth
//!   run as one trailing-zero count over the stop bits of the next
//!   `max_bits − 1` draws, the magnitude as the top `bits` bits of its draw
//!   (exactly what `random_range(0..=2^bits − 1)` returns), and the sign as
//!   the next draw's top bit.
//! - A value reads at most [`MAX_PRECISION`]` + 1` draws, so the undecoded
//!   tail of a chunk is carried to the front of the next one. Tensors decode
//!   in order from the one stream, each at its own precision, and the
//!   planted extreme value goes to index 0 as before.
//!
//! The result equals the draw-by-draw functions called tensor by tensor on
//! `StdRng::seed_from_u64(seed)`, value for value; the tests below hold the
//! bulk path to that oracle. Draws the producer made past the last value are
//! discarded, which is why only functions that own their generator decode
//! in bulk.
//!
//! Marking the stop bits on the producer keeps the compares off the
//! decoder's chain from one value's position to the next. Decoding must
//! follow stream order, so there is exactly one producer and one consumer:
//! a pool would have nothing to split. This crate also sits
//! below `loom_sim::pool` and cannot reach it.
//!
//! The speed-up rests on one property of set-up: a second core is idle
//! while the weights are made, so generating and decoding overlap. The same
//! code runs on one CPU, where the two threads take turns and pay for the
//! separate pass over each chunk: there the four zoo networks took about 6%
//! longer than drawing value by value (3.48 s against 3.27 s, median of six
//! alternating runs pinned to one core of a 2-vCPU host).

use crate::fixed::{Precision, MAX_PRECISION};
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread;

/// Controls how strongly synthetic values concentrate near zero.
///
/// The generator draws the bit-length of each value from a truncated geometric
/// distribution that starts at one bit and grows by one bit per step with
/// probability `1 - p_small`. Larger `p_small` therefore means more small
/// values, lower effective per-group precisions, and more benefit from dynamic
/// precision reduction — matching the heavily zero-skewed magnitude
/// distributions of real post-ReLU activations and trained weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValueDistribution {
    /// Per-step probability that the value's bit-length stops growing.
    pub p_small: f64,
    /// Fraction of exactly-zero values (activation sparsity after ReLU).
    pub zero_fraction: f64,
}

impl ValueDistribution {
    /// Distribution used for synthetic weights: mildly concentrated, no
    /// structural zeros (the paper's Loom does not exploit sparsity).
    pub fn weights() -> Self {
        ValueDistribution {
            p_small: 0.35,
            zero_fraction: 0.02,
        }
    }

    /// Distribution used for synthetic post-ReLU activations: strongly
    /// concentrated near zero with substantial sparsity, which is what drives
    /// the dynamic per-group activation precisions below the profile values.
    pub fn activations() -> Self {
        ValueDistribution {
            p_small: 0.30,
            zero_fraction: 0.45,
        }
    }

    /// Draws one signed value that fits in `precision` bits (two's complement).
    pub fn draw_signed<R: RngExt>(&self, rng: &mut R, precision: Precision) -> i32 {
        Sampler::new(*self).signed(rng, precision)
    }

    /// Draws one non-negative value that fits in `precision` bits (unsigned).
    pub fn draw_unsigned<R: RngExt>(&self, rng: &mut R, precision: Precision) -> i32 {
        Sampler::new(*self).unsigned(rng, precision)
    }
}

/// A [`ValueDistribution`]'s two probabilities as thresholds on the
/// generator's raw 64-bit draws. A uniform `f64` is `(draw >> 11) · 2^-53`,
/// exactly, so `random::<f64>() < p` holds exactly when
/// `draw >> 11 < ceil(p · 2^53)`. Comparing integers draws the same values,
/// and leaves the generator in the same place, without converting every
/// draw to a float.
#[derive(Debug, Clone, Copy)]
struct Sampler {
    /// Draws below this (after `>> 11`) are exact zeros.
    zero: u64,
    /// Draws at or above this (after `>> 11`) grow a value by one bit.
    grow: u64,
}

impl Sampler {
    fn new(dist: ValueDistribution) -> Self {
        // `ceil(p · 2^53)`, the smallest 53-bit draw `m` with `m · 2^-53 >= p`
        // (scaling by a power of two is exact).
        let threshold = |p: f64| (p * (1u64 << 53) as f64).ceil() as u64;
        Sampler {
            zero: threshold(dist.zero_fraction),
            grow: threshold(dist.p_small),
        }
    }

    /// Marks which draws would stop a value's growth run: bit `i` of
    /// `stops[j]` for draw `8j + i`, over whole groups of eight draws.
    fn mark_stops(self, draws: &[u64], stops: &mut [u8]) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the CPU supports AVX-512F, checked just above.
            return unsafe { self.mark_stops_avx512(draws, stops) };
        }
        self.mark_stops_on(draws, stops);
    }

    /// The body of [`mark_stops`](Self::mark_stops), inlined into each
    /// compiled copy.
    #[inline(always)]
    fn mark_stops_on(self, draws: &[u64], stops: &mut [u8]) {
        for (eight, byte) in draws.chunks_exact(8).zip(stops) {
            *byte = eight.iter().enumerate().fold(0, |bits, (i, &draw)| {
                bits | u8::from(draw >> 11 < self.grow) << i
            });
        }
    }

    /// [`mark_stops_on`](Self::mark_stops_on) compiled for AVX-512, where
    /// it becomes one unsigned compare per eight draws.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn mark_stops_avx512(self, draws: &[u64], stops: &mut [u8]) {
        self.mark_stops_on(draws, stops);
    }

    /// Whether the next value is an exact zero.
    fn zero<R: RngExt>(self, rng: &mut R) -> bool {
        rng.next_u64() >> 11 < self.zero
    }

    /// Draws the number of magnitude bits for one value, in `1..=max_bits`.
    fn bits<R: RngExt>(self, rng: &mut R, max_bits: u8) -> u8 {
        let mut bits = 1u8;
        while bits < max_bits && rng.next_u64() >> 11 >= self.grow {
            bits += 1;
        }
        bits
    }

    /// Draws a magnitude: a bit length in `1..=max_bits`, then a value
    /// uniform below `2^length`.
    fn magnitude<R: RngExt>(self, rng: &mut R, max_bits: u8) -> i32 {
        let max_mag = (1i64 << self.bits(rng, max_bits)) - 1;
        rng.random_range(0..=max_mag) as i32
    }

    fn signed<R: RngExt>(self, rng: &mut R, precision: Precision) -> i32 {
        if self.zero(rng) {
            return 0;
        }
        let mag = self.magnitude(rng, signed_magnitude_bits(precision));
        if rng.random::<bool>() {
            mag
        } else {
            -mag
        }
    }

    fn unsigned<R: RngExt>(self, rng: &mut R, precision: Precision) -> i32 {
        if self.zero(rng) {
            return 0;
        }
        self.magnitude(rng, precision.bits())
    }
}

/// The widest magnitude a signed value of `precision` bits draws: one bit
/// goes to the sign, and even a 1-bit value draws a 1-bit magnitude.
fn signed_magnitude_bits(precision: Precision) -> u8 {
    precision.bits().saturating_sub(1).max(1)
}

/// Generates `count` synthetic signed weights whose layer-wide required
/// precision is exactly `precision`: a value of maximal negative magnitude is
/// planted at index 0 (two's complement reaches `-2^(P-1)` with `P` bits).
///
/// # Panics
///
/// Panics if `count == 0`.
pub fn synthetic_weights<R: RngExt>(
    rng: &mut R,
    count: usize,
    precision: Precision,
    dist: ValueDistribution,
) -> Vec<i32> {
    assert!(count > 0, "cannot generate an empty weight tensor");
    let sampler = Sampler::new(dist);
    let mut values: Vec<i32> = (0..count).map(|_| sampler.signed(rng, precision)).collect();
    // Plant the extreme value so the layer needs exactly `precision` bits.
    values[0] = -(1i32 << (precision.bits() - 1));
    values
}

/// Generates `count` synthetic weights from a deterministic seed, with the
/// default weight distribution — a convenience for callers (e.g. the scaling
/// study's compressed-weight DRAM model) that need reproducible weight
/// statistics at a given storage precision without threading an RNG through.
/// The values are [`synthetic_weights`]'s on `StdRng::seed_from_u64(seed)`,
/// decoded in bulk (see the [module docs](self)).
///
/// # Panics
///
/// Panics if `count == 0`.
pub fn seeded_weights(seed: u64, count: usize, precision: Precision) -> Vec<i32> {
    seeded_weight_tensors(seed, &[(count, precision)])
        .pop()
        .expect("one tensor in, one out")
}

/// Generates `count` synthetic non-negative activations (post-ReLU) whose
/// layer-wide required precision is exactly `precision`.
///
/// # Panics
///
/// Panics if `count == 0`.
pub fn synthetic_activations<R: RngExt>(
    rng: &mut R,
    count: usize,
    precision: Precision,
    dist: ValueDistribution,
) -> Vec<i32> {
    assert!(count > 0, "cannot generate an empty activation tensor");
    let sampler = Sampler::new(dist);
    let mut values: Vec<i32> = (0..count)
        .map(|_| sampler.unsigned(rng, precision))
        .collect();
    values[0] = (1i32 << precision.bits()) - 1;
    values
}

/// Generates synthetic signed input-image activations (the network input may be
/// signed, e.g. mean-subtracted pixels), with layer-wide precision exactly
/// `precision`.
pub fn synthetic_signed_activations<R: RngExt>(
    rng: &mut R,
    count: usize,
    precision: Precision,
    dist: ValueDistribution,
) -> Vec<i32> {
    assert!(count > 0, "cannot generate an empty activation tensor");
    let sampler = Sampler::new(dist);
    let mut values: Vec<i32> = (0..count).map(|_| sampler.signed(rng, precision)).collect();
    values[0] = (1i32 << (precision.bits() - 1)) - 1;
    values
}

/// Raw draws the producer thread fills per chunk.
const CHUNK: usize = 8192;

/// Draws of room before a chunk's fresh draws, for the undecoded tail (fewer
/// than `MAX_DRAWS` draws) the decoder carries over from the previous chunk.
const HEAD: usize = 64;

/// The most raw draws one signed value reads: the zero test, up to
/// `MAX_PRECISION - 2` growth draws, the magnitude and the sign (Pw = 16).
const MAX_DRAWS: usize = MAX_PRECISION as usize + 1;

// The room holds any tail, and the fresh draws start on a whole byte of stop
// bits.
const _: () = assert!(HEAD >= MAX_DRAWS && HEAD.is_multiple_of(8) && CHUNK.is_multiple_of(8));

/// Chunks circulating between the producer and the decoder.
const CHUNKS_IN_FLIGHT: usize = 4;

/// Signed weights for consecutive tensors from one generator seeded with
/// `seed`, with the default weight distribution: `tensors` lists each
/// tensor's length and precision in draw order. Value for value, this is
/// [`synthetic_weights`] called on each tensor in turn with one
/// `StdRng::seed_from_u64(seed)`, decoded in bulk (see the
/// [module docs](self)).
///
/// # Panics
///
/// Panics if a length is zero.
pub(crate) fn seeded_weight_tensors(seed: u64, tensors: &[(usize, Precision)]) -> Vec<Vec<i32>> {
    let sampler = Sampler::new(ValueDistribution::weights());
    let (full_tx, full_rx) = mpsc::sync_channel(CHUNKS_IN_FLIGHT);
    let (free_tx, free_rx) = mpsc::channel();
    for _ in 0..CHUNKS_IN_FLIGHT {
        free_tx.send(Chunk::new()).expect("the receiver is alive");
    }
    thread::scope(|scope| {
        scope.spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed);
            // Runs ahead until the decoder hangs up.
            while let Ok(mut chunk) = free_rx.recv() {
                chunk.fill(&mut rng, sampler);
                if full_tx.send(chunk).is_err() {
                    break;
                }
            }
        });
        let mut draws = DrawStream::new(full_rx, free_tx);
        tensors
            .iter()
            .map(|&(count, precision)| draws.signed_tensor(sampler, count, precision))
            .collect()
    })
}

/// Raw draws with their stop bits: whether each would end a value's growth
/// run.
struct Chunk {
    /// `HEAD` draws of room, then `CHUNK` fresh ones.
    draws: Box<[u64]>,
    /// Bit `i % 8` of byte `i / 8` is draw `i`'s stop bit, then eight bytes
    /// of padding so [`stop_bits`](Self::stop_bits) can read past the last
    /// draw.
    stops: Box<[u8]>,
}

impl Chunk {
    fn new() -> Self {
        Chunk {
            draws: vec![0; HEAD + CHUNK].into_boxed_slice(),
            stops: vec![0; (HEAD + CHUNK) / 8 + 8].into_boxed_slice(),
        }
    }

    /// Fills the fresh draws from `rng` and marks their stop bits.
    fn fill(&mut self, rng: &mut StdRng, sampler: Sampler) {
        for draw in &mut self.draws[HEAD..] {
            *draw = rng.next_u64();
        }
        sampler.mark_stops(&self.draws[HEAD..], &mut self.stops[HEAD / 8..]);
    }

    /// The stop bits of draws `at..`, draw `at`'s in bit 0; at least 57 of
    /// them are real.
    fn stop_bits(&self, at: usize) -> u64 {
        let bytes = self.stops[at / 8..at / 8 + 8]
            .try_into()
            .expect("eight bytes");
        u64::from_le_bytes(bytes) >> (at % 8)
    }
}

/// The decoder's end of the producer thread's chunks: the chunk being
/// decoded and the position of the next undecoded draw in it.
struct DrawStream {
    full: Receiver<Chunk>,
    free: Sender<Chunk>,
    chunk: Chunk,
    pos: usize,
}

impl DrawStream {
    fn new(full: Receiver<Chunk>, free: Sender<Chunk>) -> Self {
        let chunk = full
            .recv()
            .expect("the producer fills chunks until hung up");
        DrawStream {
            full,
            free,
            chunk,
            pos: HEAD,
        }
    }

    /// Moves to the next chunk, carrying the undecoded tail (fewer than
    /// `MAX_DRAWS` draws) into the room before its fresh draws, and hands the
    /// finished chunk back to the producer.
    fn advance(&mut self, sampler: Sampler) {
        let mut next = self
            .full
            .recv()
            .expect("the producer fills chunks until hung up");
        let tail = &self.chunk.draws[self.pos..];
        let start = HEAD - tail.len();
        next.draws[start..HEAD].copy_from_slice(tail);
        sampler.mark_stops(&next.draws[..HEAD], &mut next.stops[..HEAD / 8]);
        let done = std::mem::replace(&mut self.chunk, next);
        self.free
            .send(done)
            .expect("the producer runs until hung up");
        self.pos = start;
    }

    /// The next `count` signed values of `precision` bits, with the extreme
    /// value planted at index 0 as [`synthetic_weights`] does.
    fn signed_tensor(&mut self, sampler: Sampler, count: usize, precision: Precision) -> Vec<i32> {
        assert!(count > 0, "cannot generate an empty weight tensor");
        let max_bits = u32::from(signed_magnitude_bits(precision));
        let mut values = Vec::with_capacity(count);
        while values.len() < count {
            if self.chunk.draws.len() - self.pos < MAX_DRAWS {
                self.advance(sampler);
            }
            self.decode_signed(sampler, max_bits, &mut values, count);
        }
        values[0] = -(1i32 << (precision.bits() - 1));
        values
    }

    /// Decodes the signed values [`Sampler::signed`] would draw with a
    /// magnitude of at most `max_bits` bits from the chunk, pushing them onto
    /// `values` until it holds `count` or fewer than `MAX_DRAWS` draws
    /// remain.
    ///
    /// No branch depends on a value's growth run. The run is the
    /// trailing-zero count of the stop bits after the zero-test draw, capped
    /// at the `max_bits − 1` growth draws; a zero value advances one draw,
    /// and a non-zero one advances past its sign draw.
    fn decode_signed(
        &mut self,
        sampler: Sampler,
        max_bits: u32,
        values: &mut Vec<i32>,
        count: usize,
    ) {
        let (chunk, mut pos) = (&self.chunk, self.pos);
        let growth_draws = max_bits - 1;
        while values.len() < count && pos + MAX_DRAWS <= chunk.draws.len() {
            let next = &chunk.draws[pos..pos + MAX_DRAWS];
            // Growth draws before the first that stops the value growing.
            let run = chunk.stop_bits(pos + 1).trailing_zeros();
            // Bits the value grew, and growth draws it read (the stopping
            // one included).
            let grown = run.min(growth_draws);
            let read = (run + 1).min(growth_draws) as usize;
            let magnitude = (next[1 + read] >> (63 - grown)) as i32;
            let signed = if next[2 + read] >> 63 == 1 {
                magnitude
            } else {
                -magnitude
            };
            let zero = next[0] >> 11 < sampler.zero;
            values.push(if zero { 0 } else { signed });
            pos += if zero { 1 } else { 3 + read };
        }
        self.pos = pos;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::{required_precision, required_unsigned_precision};
    use proptest::prelude::*;

    /// The floating-point sampler [`Sampler`] replaced, kept as its oracle:
    /// every probability compared against a uniform `f64` draw.
    mod oracle {
        use super::*;

        fn draw_bits(dist: ValueDistribution, rng: &mut StdRng, max_bits: u8) -> u8 {
            let mut bits = 1u8;
            while bits < max_bits && rng.random::<f64>() >= dist.p_small {
                bits += 1;
            }
            bits
        }

        pub fn signed(dist: ValueDistribution, rng: &mut StdRng, precision: Precision) -> i32 {
            if rng.random::<f64>() < dist.zero_fraction {
                return 0;
            }
            let mag_bits = draw_bits(dist, rng, precision.bits().saturating_sub(1).max(1));
            let mag = rng.random_range(0..=(1i64 << mag_bits) - 1) as i32;
            if rng.random::<bool>() {
                mag
            } else {
                -mag
            }
        }

        pub fn unsigned(dist: ValueDistribution, rng: &mut StdRng, precision: Precision) -> i32 {
            if rng.random::<f64>() < dist.zero_fraction {
                return 0;
            }
            let mag_bits = draw_bits(dist, rng, precision.bits());
            rng.random_range(0..=(1i64 << mag_bits) - 1) as i32
        }
    }

    #[test]
    fn integer_thresholds_draw_what_the_float_comparisons_drew() {
        for seed in [0u64, 1, 7, 2018, u64::MAX] {
            for count in [1usize, 2, 31, 400] {
                for bits in 1..=16u8 {
                    let p = Precision::new(bits).unwrap();
                    for dist in [
                        ValueDistribution::weights(),
                        ValueDistribution::activations(),
                    ] {
                        let (mut fast, mut slow) =
                            (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                        let mut expected: Vec<i32> = (0..count)
                            .map(|_| oracle::signed(dist, &mut slow, p))
                            .collect();
                        expected[0] = -(1i32 << (bits - 1));
                        assert_eq!(synthetic_weights(&mut fast, count, p, dist), expected);
                        assert_eq!(fast.next_u64(), slow.next_u64(), "weights, seed {seed}");

                        let mut expected: Vec<i32> = (0..count)
                            .map(|_| oracle::unsigned(dist, &mut slow, p))
                            .collect();
                        expected[0] = (1i32 << bits) - 1;
                        assert_eq!(synthetic_activations(&mut fast, count, p, dist), expected);
                        assert_eq!(fast.next_u64(), slow.next_u64(), "activations, seed {seed}");
                    }
                }
            }
        }
    }

    #[test]
    fn per_rng_functions_leave_the_generator_where_the_oracle_does() {
        for dist in [
            ValueDistribution::weights(),
            ValueDistribution::activations(),
        ] {
            for bits in 1..=16u8 {
                let p = Precision::new(bits).unwrap();
                let seed = u64::from(bits);
                let (mut rng, mut slow) =
                    (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                assert_eq!(
                    dist.draw_signed(&mut rng, p),
                    oracle::signed(dist, &mut slow, p)
                );
                assert_eq!(
                    dist.draw_unsigned(&mut rng, p),
                    oracle::unsigned(dist, &mut slow, p)
                );
                synthetic_weights(&mut rng, 37, p, dist);
                synthetic_signed_activations(&mut rng, 37, p, dist);
                for _ in 0..2 * 37 {
                    oracle::signed(dist, &mut slow, p);
                }
                synthetic_activations(&mut rng, 37, p, dist);
                for _ in 0..37 {
                    oracle::unsigned(dist, &mut slow, p);
                }
                assert_eq!(rng.next_u64(), slow.next_u64(), "Pw {bits}");
            }
        }
    }

    #[test]
    fn stop_marks_agree_on_every_path() {
        let sampler = Sampler::new(ValueDistribution::weights());
        let mut rng = StdRng::seed_from_u64(5);
        let mut draws: Vec<u64> = (0..4096).map(|_| rng.next_u64()).collect();
        // The threshold's neighbours, where an off-by-one would show.
        let edge = sampler.grow << 11;
        draws[..4].copy_from_slice(&[edge - 1, edge, 0, u64::MAX]);
        let expected: Vec<u8> = draws
            .chunks(8)
            .map(|eight| {
                (0..8)
                    .filter(|&i| eight[i] >> 11 < sampler.grow)
                    .map(|i| 1u8 << i)
                    .sum()
            })
            .collect();
        assert_eq!(expected[0] & 0b1111, 0b0101);
        let (mut dispatched, mut portable) = (vec![0; 512], vec![0; 512]);
        sampler.mark_stops(&draws, &mut dispatched);
        sampler.mark_stops_on(&draws, &mut portable);
        assert_eq!(dispatched, expected);
        assert_eq!(portable, expected);
    }

    /// The bulk path's oracle: [`synthetic_weights`] on each tensor in turn,
    /// drawing from one generator.
    fn draw_by_draw(seed: u64, tensors: &[(usize, Precision)]) -> Vec<Vec<i32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        tensors
            .iter()
            .map(|&(count, p)| synthetic_weights(&mut rng, count, p, ValueDistribution::weights()))
            .collect()
    }

    #[test]
    fn bulk_decoding_matches_draw_by_draw_at_every_precision() {
        for bits in 1..=16u8 {
            let p = Precision::new(bits).unwrap();
            // Alone, and chained between tensors of other widths.
            let wide = Precision::new(17 - bits).unwrap();
            for tensors in [vec![(3000, p)], vec![(700, wide), (3000, p), (5, wide)]] {
                for seed in [0, 2018] {
                    assert_eq!(
                        seeded_weight_tensors(seed, &tensors),
                        draw_by_draw(seed, &tensors),
                        "Pw {bits}, seed {seed}, tensors {tensors:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn bulk_decoding_matches_draw_by_draw_around_chunk_sizes() {
        let lengths = [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7];
        for bits in [1u8, 2, 8, 16] {
            let p = Precision::new(bits).unwrap();
            for count in lengths {
                assert_eq!(
                    seeded_weight_tensors(7, &[(count, p)]),
                    draw_by_draw(7, &[(count, p)]),
                    "Pw {bits}, {count} values"
                );
            }
            let chained: Vec<_> = lengths.iter().map(|&count| (count, p)).collect();
            assert_eq!(
                seeded_weight_tensors(9, &chained),
                draw_by_draw(9, &chained),
                "Pw {bits}, chained"
            );
        }
    }

    #[test]
    fn seeded_weights_is_the_draw_by_draw_tensor() {
        for bits in [1u8, 4, 8, 13, 16] {
            let p = Precision::new(bits).unwrap();
            let mut oracle = draw_by_draw(0x10f5_c0de, &[(4096, p)]);
            assert_eq!(seeded_weights(0x10f5_c0de, 4096, p), oracle.remove(0));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn bulk_decoding_matches_draw_by_draw_on_chained_tensors(
            seed in any::<u64>(),
            lengths in prop::collection::vec(1usize..3 * CHUNK + 8, 1..6),
            widths in prop::collection::vec(1u8..=16, 6..7),
        ) {
            let tensors: Vec<_> = lengths
                .iter()
                .zip(&widths)
                .map(|(&count, &bits)| (count, Precision::new(bits).unwrap()))
                .collect();
            prop_assert_eq!(seeded_weight_tensors(seed, &tensors), draw_by_draw(seed, &tensors));
        }
    }

    #[test]
    fn thresholds_hold_at_the_probability_edges() {
        // p = 0 never zeroes and always grows; p = 1 always zeroes and never
        // grows; p = 0.5 splits the 53-bit draws exactly in half.
        let never = Sampler::new(ValueDistribution {
            p_small: 0.0,
            zero_fraction: 0.0,
        });
        assert_eq!((never.zero, never.grow), (0, 0));
        let always = Sampler::new(ValueDistribution {
            p_small: 1.0,
            zero_fraction: 1.0,
        });
        assert_eq!((always.zero, always.grow), (1 << 53, 1 << 53));
        let half = Sampler::new(ValueDistribution {
            p_small: 0.5,
            zero_fraction: 0.5,
        });
        assert_eq!((half.zero, half.grow), (1 << 52, 1 << 52));
        // Each threshold is the smallest draw whose float reaches `p`.
        let unit = |m: u64| m as f64 * (1.0 / (1u64 << 53) as f64);
        for p in [0.02, 0.1, 0.3, 0.35, 0.45, 0.999] {
            let t = Sampler::new(ValueDistribution {
                p_small: p,
                zero_fraction: p,
            })
            .grow;
            assert!(unit(t) >= p && unit(t - 1) < p, "p = {p}");
        }
    }

    #[test]
    fn weights_hit_exact_precision() {
        let mut rng = StdRng::seed_from_u64(7);
        for p in 2..=16u8 {
            let prec = Precision::new(p).unwrap();
            let w = synthetic_weights(&mut rng, 500, prec, ValueDistribution::weights());
            assert_eq!(required_precision(&w), prec, "precision {p}");
        }
    }

    #[test]
    fn activations_hit_exact_precision_and_are_nonnegative() {
        let mut rng = StdRng::seed_from_u64(11);
        for p in 1..=16u8 {
            let prec = Precision::new(p).unwrap();
            let a = synthetic_activations(&mut rng, 500, prec, ValueDistribution::activations());
            assert!(a.iter().all(|&v| v >= 0));
            assert_eq!(required_unsigned_precision(&a), prec, "precision {p}");
        }
    }

    #[test]
    fn signed_activations_hit_exact_precision() {
        let mut rng = StdRng::seed_from_u64(13);
        let prec = Precision::new(9).unwrap();
        let a = synthetic_signed_activations(&mut rng, 200, prec, ValueDistribution::activations());
        assert_eq!(required_precision(&a), prec);
    }

    #[test]
    fn distribution_produces_small_values_often() {
        let mut rng = StdRng::seed_from_u64(3);
        let prec = Precision::new(12).unwrap();
        let a = synthetic_activations(&mut rng, 4000, prec, ValueDistribution::activations());
        let small = a.iter().filter(|&&v| v < 64).count();
        // Most post-ReLU activations should be small — that is what makes
        // dynamic precision reduction worthwhile.
        assert!(
            small > a.len() / 2,
            "only {small} of {} values are small",
            a.len()
        );
    }

    #[test]
    fn deterministic_for_same_seed() {
        let prec = Precision::new(10).unwrap();
        let a: Vec<i32> = synthetic_weights(
            &mut StdRng::seed_from_u64(42),
            64,
            prec,
            ValueDistribution::weights(),
        );
        let b: Vec<i32> = synthetic_weights(
            &mut StdRng::seed_from_u64(42),
            64,
            prec,
            ValueDistribution::weights(),
        );
        assert_eq!(a, b);
    }
}
