//! Precision detection over packed bit planes: the software image of the
//! hardware's per-group OR tree + leading-one detector.
//!
//! A value needs `b + 2` bits in two's complement (`b + 1` unsigned), where
//! `b` is its highest bit that differs from its sign. The magnitude view of a
//! packed plane ([`WideBitplaneBlock::magnitude_words`], `plane ^ sign`) marks
//! exactly those bits, so ORing the magnitude planes of everything a SIP group
//! consumes and finding the highest non-empty plane detects the group's
//! precision without materialising its values. [`MagnitudeOr`] is that fold.
//! The convolution engine keeps one per worker, absorbs each window's packed
//! blocks into it, and reads it once per `sip_lanes` chunk — lane ranges that
//! need not line up with the 64-lane plane words.

use crate::loom::wide::{WideBitplaneBlock, WIDE_WORDS};
use loom_model::fixed::{Precision, MAX_PRECISION};

/// An OR fold of packed magnitude planes over a row of 256-lane block slots.
///
/// [`absorb`](Self::absorb) ORs a block's magnitude planes into the lanes of
/// its slot; [`detected_precision`](Self::detected_precision) reads the
/// highest non-empty plane over a lane range. For signed values that equals
/// [`loom_model::fixed::required_precision`] over the absorbed values in the
/// range, and for non-negative values
/// [`loom_model::fixed::required_unsigned_precision`]. Lanes no block filled
/// read as zero.
#[derive(Debug, Clone, Default)]
pub(crate) struct MagnitudeOr {
    /// Words per plane row (`slots × WIDE_WORDS`).
    words: usize,
    /// `MAX_PRECISION` plane rows of `words` words each.
    planes: Vec<u64>,
}

impl MagnitudeOr {
    /// Empties the fold and sizes it for `slots` blocks of lanes, reusing the
    /// storage.
    pub(crate) fn reset(&mut self, slots: usize) {
        self.words = slots * WIDE_WORDS;
        self.planes.clear();
        self.planes
            .resize(usize::from(MAX_PRECISION) * self.words, 0);
    }

    /// ORs `block`'s magnitude planes into slot `slot` (lanes
    /// `256 × slot ..`). Planes at or above the block's magnitude width have
    /// no magnitude bits, so they are skipped.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not below the slot count of the last
    /// [`reset`](Self::reset).
    pub(crate) fn absorb(&mut self, slot: usize, block: &WideBitplaneBlock) {
        let base = slot * WIDE_WORDS;
        assert!(base < self.words, "slot {slot} is outside the fold");
        for bit in 0..block.magnitude_width() {
            let row = usize::from(bit) * self.words + base;
            let fold = &mut self.planes[row..row + WIDE_WORDS];
            for (word, m) in fold.iter_mut().zip(block.magnitude_words(bit)) {
                *word |= m;
            }
        }
    }

    /// The smallest precision covering every absorbed value in lanes
    /// `[lo, hi)`: signed two's-complement width when `signed`, magnitude
    /// bits otherwise (the unsigned reading assumes non-negative values, as
    /// post-ReLU activations are). A range holding only zeros detects the
    /// 1-bit minimum.
    pub(crate) fn detected_precision(&self, lo: usize, hi: usize, signed: bool) -> Precision {
        let highest = (0..MAX_PRECISION)
            .rev()
            .find(|&bit| self.range_has_bit(bit, lo, hi));
        match highest {
            None => Precision::saturating(1),
            Some(bit) => Precision::saturating(bit + if signed { 2 } else { 1 }),
        }
    }

    /// Whether any lane in `[lo, hi)` of plane `bit` is set. The range may
    /// straddle word boundaries (the SIP chunk width need not divide 64).
    fn range_has_bit(&self, bit: u8, lo: usize, hi: usize) -> bool {
        let row = &self.planes[usize::from(bit) * self.words..][..self.words];
        let (w0, w1) = (lo / 64, (hi - 1) / 64);
        for (w, &value) in row.iter().enumerate().take(w1 + 1).skip(w0) {
            let mut word = value;
            if w == w0 {
                word &= !0u64 << (lo % 64);
            }
            if w == w1 {
                let top = (hi - 1) % 64;
                if top < 63 {
                    word &= (1u64 << (top + 1)) - 1;
                }
            }
            if word != 0 {
                return true;
            }
        }
        false
    }
}

/// Besides the fold, these tests pin the packed form within one plane word
/// (at most 64 lanes), the granularity of the SIP's weight registers; the
/// tests in `wide` work across word boundaries.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::loom::sip::{reference_inner_product, serial_inner_product, Sip};
    use crate::loom::wide::{wide_inner_product, wide_inner_product_slices};
    use loom_model::fixed::{bit_plane, required_precision, required_unsigned_precision};

    /// Folds `values` into a one-slot fold and detects over their lanes.
    fn detect(values: &[i32], signed: bool) -> Precision {
        let mut fold = MagnitudeOr::default();
        fold.reset(1);
        fold.absorb(0, &WideBitplaneBlock::pack(values));
        fold.detected_precision(0, values.len(), signed)
    }

    #[test]
    fn pack_roundtrips_sixteen_bit_values() {
        let values = vec![0, 1, -1, 32767, -32768, 1234, -4321];
        let block = WideBitplaneBlock::pack(&values);
        assert_eq!(block.lanes(), values.len());
        assert_eq!(block.unpack(), values);
        assert_eq!(block.sign_words(), &[0b101_0100, 0, 0, 0]);
        // Lanes past the seventh pack as zeros in every plane.
        for bit in 0..MAX_PRECISION {
            let words = block.plane_words(bit);
            assert_eq!(words[0] & !0b111_1111, 0, "bit {bit}");
            assert_eq!(words[1..], [0; 3], "bit {bit}");
        }
    }

    #[test]
    fn pack_roundtrips_all_64_lanes() {
        let values: Vec<i32> = (0..64).map(|i| i * 1021 - 31000).collect();
        let block = WideBitplaneBlock::pack(&values);
        assert_eq!(block.unpack(), values);
        // A full first word, and nothing spills into the next.
        for bit in 0..MAX_PRECISION {
            let words = block.plane_words(bit);
            assert_eq!(words[0], bit_plane(&values, bit), "bit {bit}");
            assert_eq!(words[1..], [0; 3], "bit {bit}");
        }
    }

    /// A SIP keeps its weight registers in one plane word, so it cannot hold
    /// a 65th lane.
    #[test]
    #[should_panic(expected = "at most 64 lanes")]
    fn pack_rejects_more_than_64_lanes() {
        Sip::new(Sip::MAX_LANES + 1);
    }

    #[test]
    fn packed_matches_serial_and_reference() {
        let weights = vec![-3, 2, 0, -1, 7, -8];
        let activations = vec![1, -2, 3, 2, -4, 5];
        let pw = required_precision(&weights);
        let pa = required_precision(&activations);
        let packed = wide_inner_product_slices(&weights, &activations, pw, pa, true, true);
        assert_eq!(
            packed,
            serial_inner_product(&weights, &activations, pw, pa, true, true)
        );
        assert_eq!(packed, reference_inner_product(&weights, &activations));
    }

    #[test]
    fn mismatched_lane_counts_treat_missing_lanes_as_zero() {
        let weights = WideBitplaneBlock::pack(&[3, 5, 7, 9]);
        let activations = WideBitplaneBlock::pack(&[2, 4]);
        let p = Precision::new(5).unwrap();
        assert_eq!(
            wide_inner_product(&weights, &activations, p, p, false, false),
            3 * 2 + 5 * 4
        );
        // The fold reads lanes the activations never filled as zero.
        let mut fold = MagnitudeOr::default();
        fold.reset(1);
        fold.absorb(0, &activations);
        assert_eq!(fold.detected_precision(2, 4, false).bits(), 1);
        assert_eq!(fold.detected_precision(0, 4, false).bits(), 3);
    }

    #[test]
    fn magnitude_or_matches_vec_based_detectors() {
        let signed_groups: [&[i32]; 4] = [&[0, 0], &[1, -1, 3], &[127, -128], &[-1, -1]];
        for values in signed_groups {
            assert_eq!(
                detect(values, true),
                required_precision(values),
                "signed {values:?}"
            );
        }
        let unsigned_groups: [&[i32]; 3] = [&[0], &[1, 2, 3], &[255, 17]];
        for values in unsigned_groups {
            assert_eq!(
                detect(values, false),
                required_unsigned_precision(values),
                "unsigned {values:?}"
            );
        }
    }

    #[test]
    fn magnitude_or_folds_across_blocks() {
        let mut fold = MagnitudeOr::default();
        fold.reset(1);
        fold.absorb(0, &WideBitplaneBlock::pack(&[1, 2]));
        fold.absorb(0, &WideBitplaneBlock::pack(&[-100]));
        fold.absorb(0, &WideBitplaneBlock::pack(&[0, 0, 0]));
        assert_eq!(
            fold.detected_precision(0, 3, true),
            required_precision(&[1, 2, -100, 0, 0, 0])
        );
        let mut empty = MagnitudeOr::default();
        empty.reset(1);
        assert_eq!(empty.detected_precision(0, 256, true).bits(), 1);
        assert_eq!(empty.detected_precision(0, 256, false).bits(), 1);

        // Across slots: a range straddling the block boundary sees both
        // sides, and a range on one side sees only that side.
        let mut fold = MagnitudeOr::default();
        fold.reset(2);
        fold.absorb(0, &WideBitplaneBlock::pack(&[3; 256]));
        fold.absorb(1, &WideBitplaneBlock::pack(&[0, 0, 900]));
        assert_eq!(fold.detected_precision(250, 259, false).bits(), 10);
        assert_eq!(fold.detected_precision(250, 258, false).bits(), 2);
        assert_eq!(fold.detected_precision(256, 258, false).bits(), 1);
    }
}
