//! The Serial Inner-Product unit (SIP, Figure 3 of the paper) as a bit-exact
//! functional model.
//!
//! Every cycle a SIP ANDs 16 single-bit activations with the 16 single-bit
//! weights held in its weight registers (WRs), reduces them with a 16-input
//! adder tree, and shift-accumulates the result: `AC1` accumulates over the
//! activation bits of one weight-bit plane, and `AC2`/the output register (OR)
//! accumulates the weight-bit planes. A negation block subtracts the partial
//! sum that corresponds to the most significant bit of two's-complement
//! operands.
//!
//! [`serial_inner_product`] runs this exact bit-level recipe end to end and is
//! proven (by unit and property tests) to equal the ordinary integer inner
//! product for any operand precisions — the core functional-equivalence claim
//! of the whole design.
//!
//! Nothing here runs inside the engine. This module is the readable oracle:
//! [`serial_conv`] tiles a whole convolution onto the grid with
//! [`serial_inner_product`], and the tests check the wide datapath of
//! [`crate::loom::functional`] against it, outputs, cycles and reduced groups
//! alike.

use crate::loom::functional::{FunctionalLoom, FunctionalRun};
use loom_model::fixed::{bit_of, required_precision, required_unsigned_precision, Precision};
use loom_model::im2col::window_patch;
use loom_model::layer::ConvSpec;
use loom_model::tensor::{Tensor3, Tensor4};

/// Computes the inner product of `weights` and `activations` exactly the way a
/// SIP does: bit-serially over `pw` weight bits (outer) and `pa` activation
/// bits (inner), with two's-complement negation applied to the most significant
/// bit plane of whichever operands are signed.
///
/// The operands must be representable in `pw`/`pa` bits respectively (signed
/// two's-complement if the corresponding `*_signed` flag is set, unsigned
/// otherwise); the caller — like the real hardware's software stack — is
/// responsible for choosing sufficient precisions.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn serial_inner_product(
    weights: &[i32],
    activations: &[i32],
    pw: Precision,
    pa: Precision,
    weights_signed: bool,
    activations_signed: bool,
) -> i64 {
    assert_eq!(
        weights.len(),
        activations.len(),
        "weights and activations must pair up lane by lane"
    );
    let mut or_register = 0i64;
    for wb in 0..pw.bits() {
        // Load this bit plane of every weight into the WRs.
        let weight_bits: Vec<u8> = weights.iter().map(|&w| bit_of(w, wb)).collect();
        // AC1: accumulate over the activation bits.
        let mut acc1 = 0i64;
        for ab in 0..pa.bits() {
            let mut partial = 0i64;
            for (lane, &a) in activations.iter().enumerate() {
                partial += i64::from(bit_of(a, ab) & weight_bits[lane]);
            }
            if activations_signed && ab == pa.bits() - 1 {
                partial = -partial;
            }
            acc1 += partial << ab;
        }
        // Negation block: the weight MSB column is subtracted for signed weights.
        if weights_signed && wb == pw.bits() - 1 {
            acc1 = -acc1;
        }
        // AC2 / OR: accumulate the weight bit plane at its significance.
        or_register += acc1 << wb;
    }
    or_register
}

/// Reference integer inner product used to cross-check the bit-serial model.
pub fn reference_inner_product(weights: &[i32], activations: &[i32]) -> i64 {
    weights
        .iter()
        .zip(activations.iter())
        .map(|(&w, &a)| i64::from(w) * i64::from(a))
        .sum()
}

/// Runs a convolutional layer the slow, literal way, as the test oracle for
/// [`FunctionalLoom::run_conv`]. The layer is tiled as §3.2 describes:
/// `window_columns` windows per group, `sip_lanes` weights per SIP chunk, and
/// `filter_rows` filters per pass. Every chunk's products are
/// [`serial_inner_product`]s. With dynamic precision on, each (window group ×
/// chunk) block detects its activation precision from the materialised group
/// values. Grouped convolutions skip detection, as the engine does.
///
/// The engine must return the same [`FunctionalRun`]: outputs, cycles and
/// reduced groups.
///
/// # Panics
///
/// Panics if the tensors do not match the spec.
pub fn serial_conv(
    engine: &FunctionalLoom,
    spec: &ConvSpec,
    input: &Tensor3,
    weights: &Tensor4,
    pa: Precision,
    pw: Precision,
) -> FunctionalRun {
    assert_eq!(input.shape(), spec.input_shape(), "input shape mismatch");
    assert_eq!(
        weights.shape(),
        spec.weight_shape(),
        "weight shape mismatch"
    );
    let geometry = engine.geometry();
    let signed = input.as_slice().iter().any(|&v| v < 0);
    let detect = engine.dynamic_precision && spec.groups == 1;
    let group_in = spec.in_channels / spec.groups;
    let group_out = spec.filters / spec.groups;
    let wpf = spec.weights_per_filter();
    let windows = spec.windows();
    let filter_groups = spec.filters.div_ceil(geometry.filter_rows) as u64;
    let b = u64::from(geometry.act_bits_per_cycle);

    let mut outputs = vec![0i64; spec.filters * windows];
    let mut cycles = 0u64;
    let mut reduced_groups = 0u64;
    for window_base in (0..windows).step_by(geometry.window_columns) {
        let window_end = windows.min(window_base + geometry.window_columns);
        // One patch per (window, conv group), indexed [col][group].
        let patches: Vec<Vec<Vec<i32>>> = (window_base..window_end)
            .map(|w| {
                let (oy, ox) = (w / spec.out_width(), w % spec.out_width());
                (0..spec.groups)
                    .map(|g| window_patch(spec, input, oy, ox, g * group_in, group_in))
                    .collect()
            })
            .collect();
        for lo in (0..wpf).step_by(geometry.sip_lanes) {
            let hi = wpf.min(lo + geometry.sip_lanes);
            let effective_pa = if detect {
                let group: Vec<i32> = patches
                    .iter()
                    .flat_map(|per_group| per_group[0][lo..hi].iter().copied())
                    .collect();
                let detected = if signed {
                    required_precision(&group)
                } else {
                    required_unsigned_precision(&group)
                }
                .min(pa);
                if detected < pa {
                    reduced_groups += 1;
                }
                detected
            } else {
                pa
            };
            cycles += filter_groups * pw.bits_u64() * effective_pa.bits_u64().div_ceil(b);
            for k in 0..spec.filters {
                let filter = &weights.filter(k)[lo..hi];
                for (col, per_group) in patches.iter().enumerate() {
                    outputs[k * windows + window_base + col] += serial_inner_product(
                        filter,
                        &per_group[k / group_out][lo..hi],
                        pw,
                        effective_pa,
                        true,
                        signed,
                    );
                }
            }
        }
    }
    FunctionalRun {
        outputs,
        cycles,
        reduced_groups,
    }
}

/// A stateful SIP for cycle-by-cycle simulation (used by the functional engine
/// and the Section 2 walkthrough example). One instance corresponds to one SIP
/// in the grid; its lane count is configurable (16 in the real design, 2 in the
/// paper's illustrative example).
///
/// The weight registers are held as one plane word (one bit per lane), so
/// every cycle is a single `AND` + `count_ones()`, the operation
/// [`crate::loom::wide_inner_product`] applies 256 lanes at a time. The
/// bit-slice API ([`load_weight_bits`](Self::load_weight_bits) /
/// [`cycle`](Self::cycle)) remains for didactic callers and simply packs on
/// the way in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sip {
    lanes: usize,
    weight_plane: u64,
    acc1: i64,
    or_register: i64,
    cycles: u64,
}

impl Sip {
    /// Lanes a SIP can hold: one per bit of its weight-register plane word.
    pub const MAX_LANES: usize = u64::BITS as usize;

    /// Creates a SIP with the given number of weight registers / lanes.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` exceeds [`Sip::MAX_LANES`].
    pub fn new(lanes: usize) -> Self {
        assert!(
            lanes <= Self::MAX_LANES,
            "a SIP holds at most {} lanes",
            Self::MAX_LANES
        );
        Sip {
            lanes,
            weight_plane: 0,
            acc1: 0,
            or_register: 0,
            cycles: 0,
        }
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Cycles this SIP has executed.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// One bit set per lane (`1 << 64` would overflow, hence the check).
    fn lane_mask(&self) -> u64 {
        if self.lanes == Self::MAX_LANES {
            u64::MAX
        } else {
            (1u64 << self.lanes) - 1
        }
    }

    /// Loads one bit of each weight into the weight registers.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != lanes`.
    pub fn load_weight_bits(&mut self, bits: &[u8]) {
        assert_eq!(bits.len(), self.lanes, "one weight bit per lane");
        let mut plane = 0u64;
        for (lane, &bit) in bits.iter().enumerate() {
            plane |= u64::from(bit & 1) << lane;
        }
        self.weight_plane = plane;
    }

    /// Loads an already-packed weight bit plane (bit `i` = lane `i`) into the
    /// weight registers.
    ///
    /// # Panics
    ///
    /// Panics if `plane` has bits set beyond the SIP's lanes.
    pub fn load_weight_plane(&mut self, plane: u64) {
        assert_eq!(
            plane & !self.lane_mask(),
            0,
            "weight plane has bits beyond the {} lanes",
            self.lanes
        );
        self.weight_plane = plane;
    }

    /// Executes one cycle: multiplies the incoming activation bits (at
    /// significance `act_bit`) with the WR contents and accumulates into AC1.
    /// `negate` subtracts the partial sum, implementing the two's-complement
    /// MSB handling for signed activations.
    ///
    /// # Panics
    ///
    /// Panics if `activation_bits.len() != lanes`.
    pub fn cycle(&mut self, activation_bits: &[u8], act_bit: u8, negate: bool) {
        assert_eq!(
            activation_bits.len(),
            self.lanes,
            "one activation bit per lane"
        );
        let mut plane = 0u64;
        for (lane, &bit) in activation_bits.iter().enumerate() {
            plane |= u64::from(bit & 1) << lane;
        }
        self.cycle_packed(plane, act_bit, negate);
    }

    /// Executes one cycle on an already-packed activation bit plane: the
    /// 16-input AND + adder tree collapses to `(plane & WRs).count_ones()`.
    ///
    /// # Panics
    ///
    /// Panics if `plane` has bits set beyond the SIP's lanes.
    pub fn cycle_packed(&mut self, plane: u64, act_bit: u8, negate: bool) {
        assert_eq!(
            plane & !self.lane_mask(),
            0,
            "activation plane has bits beyond the {} lanes",
            self.lanes
        );
        let mut partial = i64::from((plane & self.weight_plane).count_ones());
        if negate {
            partial = -partial;
        }
        self.acc1 += partial << act_bit;
        self.cycles += 1;
    }

    /// Commits the finished weight-bit plane into the output register at
    /// significance `weight_bit` and clears AC1. `negate` implements the
    /// two's-complement MSB handling for signed weights.
    pub fn commit_weight_bit(&mut self, weight_bit: u8, negate: bool) {
        let plane = if negate { -self.acc1 } else { self.acc1 };
        self.or_register += plane << weight_bit;
        self.acc1 = 0;
    }

    /// Adds a cascaded partial sum from the neighbouring SIP (the multiplexer
    /// after AC1 in Figure 3).
    pub fn cascade_in(&mut self, partial: i64) {
        self.or_register += partial;
    }

    /// The accumulated output activation.
    pub fn output(&self) -> i64 {
        self.or_register
    }

    /// Applies the SIP's max comparator (used for max-pooling support).
    pub fn max_with(&mut self, value: i64) {
        self.or_register = self.or_register.max(value);
    }

    /// Clears all accumulator state for the next output.
    pub fn reset(&mut self) {
        self.acc1 = 0;
        self.or_register = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_for_small_signed_operands() {
        let weights = vec![-3, 2, 0, -1];
        let activations = vec![1, -2, 3, 2];
        let pw = required_precision(&weights);
        let pa = required_precision(&activations);
        assert_eq!(
            serial_inner_product(&weights, &activations, pw, pa, true, true),
            reference_inner_product(&weights, &activations)
        );
    }

    #[test]
    fn matches_reference_for_unsigned_activations() {
        let weights = vec![-100, 37, 12, -8, 0, 1, 55, -61];
        let activations = vec![0, 5, 255, 128, 7, 33, 100, 1];
        assert_eq!(
            serial_inner_product(
                &weights,
                &activations,
                Precision::new(8).unwrap(),
                Precision::new(8).unwrap(),
                true,
                false
            ),
            reference_inner_product(&weights, &activations)
        );
    }

    #[test]
    fn full_sixteen_bit_operands_are_exact() {
        let weights = vec![i32::from(i16::MIN), i32::from(i16::MAX), -12345, 31000];
        let activations = vec![i32::from(i16::MAX), i32::from(i16::MIN), 29876, -30000];
        assert_eq!(
            serial_inner_product(
                &weights,
                &activations,
                Precision::FULL,
                Precision::FULL,
                true,
                true
            ),
            reference_inner_product(&weights, &activations)
        );
    }

    #[test]
    fn one_bit_weights_behave_like_masks() {
        let weights = vec![1, 0, 1, 1];
        let activations = vec![9, 7, 3, 1];
        assert_eq!(
            serial_inner_product(
                &weights,
                &activations,
                Precision::new(1).unwrap(),
                Precision::new(4).unwrap(),
                false,
                false
            ),
            13
        );
    }

    #[test]
    fn paper_example_two_bit_engine() {
        // The Section 2 example: 2-bit activations and weights, two lanes per
        // subunit. Subunit (0,0) computes w0·a for filter 0.
        let a = vec![2, 3]; // a0, a1
        let w_filter0 = vec![1, 3];
        let p2 = Precision::new(2).unwrap();
        let expected = reference_inner_product(&w_filter0, &a);
        assert_eq!(
            serial_inner_product(&w_filter0, &a, p2, p2, false, false),
            expected
        );
    }

    #[test]
    fn stateful_sip_reproduces_one_shot_function() {
        let weights = vec![-5, 3, 7, -2];
        let activations = vec![4, 1, -3, 6];
        let pw = required_precision(&weights);
        let pa = required_precision(&activations);
        let mut sip = Sip::new(4);
        for wb in 0..pw.bits() {
            let bits: Vec<u8> = weights.iter().map(|&w| bit_of(w, wb)).collect();
            sip.load_weight_bits(&bits);
            for ab in 0..pa.bits() {
                let a_bits: Vec<u8> = activations.iter().map(|&a| bit_of(a, ab)).collect();
                sip.cycle(&a_bits, ab, ab == pa.bits() - 1);
            }
            sip.commit_weight_bit(wb, wb == pw.bits() - 1);
        }
        assert_eq!(
            sip.output(),
            reference_inner_product(&weights, &activations)
        );
        assert_eq!(sip.cycles(), u64::from(pw.bits()) * u64::from(pa.bits()));
        sip.reset();
        assert_eq!(sip.output(), 0);
    }

    #[test]
    fn cascade_and_max_support() {
        let mut sip = Sip::new(2);
        sip.cascade_in(10);
        assert_eq!(sip.output(), 10);
        sip.max_with(25);
        assert_eq!(sip.output(), 25);
        sip.max_with(3);
        assert_eq!(sip.output(), 25);
    }

    #[test]
    #[should_panic(expected = "one weight bit per lane")]
    fn wrong_lane_count_panics() {
        let mut sip = Sip::new(4);
        sip.load_weight_bits(&[1, 0]);
    }

    #[test]
    fn packed_cycle_path_matches_bit_slice_path() {
        use loom_model::fixed::bit_plane;
        let weights = vec![-5, 3, 7, -2, 11, -13];
        let activations = vec![4, 1, -3, 6, -7, 2];
        let pw = required_precision(&weights);
        let pa = required_precision(&activations);

        let mut slice_sip = Sip::new(weights.len());
        let mut plane_sip = Sip::new(weights.len());
        for wb in 0..pw.bits() {
            let bits: Vec<u8> = weights.iter().map(|&w| bit_of(w, wb)).collect();
            slice_sip.load_weight_bits(&bits);
            plane_sip.load_weight_plane(bit_plane(&weights, wb));
            for ab in 0..pa.bits() {
                let a_bits: Vec<u8> = activations.iter().map(|&a| bit_of(a, ab)).collect();
                let negate = ab == pa.bits() - 1;
                slice_sip.cycle(&a_bits, ab, negate);
                plane_sip.cycle_packed(bit_plane(&activations, ab), ab, negate);
            }
            slice_sip.commit_weight_bit(wb, wb == pw.bits() - 1);
            plane_sip.commit_weight_bit(wb, wb == pw.bits() - 1);
        }
        assert_eq!(slice_sip, plane_sip);
        assert_eq!(
            plane_sip.output(),
            reference_inner_product(&weights, &activations)
        );
        // A full-width SIP accepts every bit of its plane word.
        let mut full = Sip::new(Sip::MAX_LANES);
        full.load_weight_plane(u64::MAX);
        full.cycle_packed(u64::MAX, 0, false);
        full.commit_weight_bit(0, false);
        assert_eq!(full.output(), 64);
    }

    #[test]
    #[should_panic(expected = "beyond the 4 lanes")]
    fn out_of_lane_plane_bits_panic() {
        let mut sip = Sip::new(4);
        sip.load_weight_plane(0b10000);
    }
}
