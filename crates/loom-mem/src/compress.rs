//! Sparse compressed bitplane storage for packed weights (§3.2 extended per
//! the MAC-less processor of Liguori, arXiv 2012.06018).
//!
//! A dense 256-lane bitplane block stores all [`MAX_PRECISION`] magnitude
//! planes plus a sign plane, even though per-block magnitude detection means
//! every plane at or above the detected cutoff is either all zeros or pure
//! sign extension, and skewed weight distributions leave low planes empty
//! too. [`CompressedPlanes`] elides both classes: a 16-bit `stored_mask`
//! says which planes are materialised, a 16-bit `sign_ext_mask` marks the
//! planes that equal the sign plane (reconstructed from it for free), and
//! every other plane is implicitly zero. The encoding is lossless —
//! [`CompressedPlanes::to_dense`] reproduces the dense plane array
//! bit-for-bit — and both the modeled DRAM stream footprint
//! ([`compressed_bits`](CompressedPlanes::compressed_bits)) and the resident
//! in-memory footprint ([`resident_bytes`](CompressedPlanes::resident_bytes))
//! are exposed so the traffic/energy models and the bench reports can account
//! the savings.

use loom_model::fixed::MAX_PRECISION;

/// 64-bit words per bitplane (matches the SIMD-wide block of `loom-sim`).
pub const PLANE_WORDS: usize = 4;

/// Lanes per bitplane block (`64 * PLANE_WORDS`).
pub const PLANE_LANES: usize = 64 * PLANE_WORDS;

/// Bitplane count of the dense layout (one per magnitude bit).
pub const PLANE_COUNT: usize = MAX_PRECISION as usize;

/// How one plane of a [`CompressedPlanes`] block resolves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaneRef<'a> {
    /// The plane is materialised: these are its words.
    Stored(&'a [u64; PLANE_WORDS]),
    /// The plane equals the sign plane (pure sign extension above the
    /// block's magnitude cutoff); read [`CompressedPlanes::signs`] instead.
    SignExtended,
    /// The plane is all zeros and was elided entirely.
    Zero,
}

/// A 256-lane bitplane block with all-zero and pure-sign-extension planes
/// elided. Construct with [`from_dense`](Self::from_dense) (from a dense
/// plane array) or [`compress_values`](Self::compress_values) (straight from
/// values, for traffic modeling); recover the dense layout with
/// [`to_dense`](Self::to_dense).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedPlanes {
    lanes: usize,
    stored_mask: u16,
    sign_ext_mask: u16,
    signs: [u64; PLANE_WORDS],
    stored: Box<[[u64; PLANE_WORDS]]>,
}

impl CompressedPlanes {
    /// Compresses a dense plane array (16 magnitude planes + sign plane).
    /// Classification is purely content-based, so the round trip through
    /// [`to_dense`](Self::to_dense) is exact for any input.
    ///
    /// # Panics
    ///
    /// Panics if `lanes > PLANE_LANES`.
    pub fn from_dense(
        lanes: usize,
        planes: &[[u64; PLANE_WORDS]; PLANE_COUNT],
        signs: &[u64; PLANE_WORDS],
    ) -> Self {
        assert!(
            lanes <= PLANE_LANES,
            "a compressed block holds at most {PLANE_LANES} lanes, got {lanes}"
        );
        let mut stored_mask = 0u16;
        let mut sign_ext_mask = 0u16;
        let mut stored = Vec::new();
        for (bit, plane) in planes.iter().enumerate() {
            if *plane == [0; PLANE_WORDS] {
                // Elided as implicitly zero — including when the sign plane
                // is also zero, so the cheaper class wins.
            } else if plane == signs {
                sign_ext_mask |= 1 << bit;
            } else {
                stored_mask |= 1 << bit;
                stored.push(*plane);
            }
        }
        CompressedPlanes {
            lanes,
            stored_mask,
            sign_ext_mask,
            signs: *signs,
            stored: stored.into_boxed_slice(),
        }
    }

    /// Compresses up to [`PLANE_LANES`] values (16-bit two's complement)
    /// directly, without building a dense block first — the path the traffic
    /// models use to measure a layer's compressed footprint.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() > PLANE_LANES`.
    pub fn compress_values(values: &[i32]) -> Self {
        assert!(
            values.len() <= PLANE_LANES,
            "a compressed block holds at most {PLANE_LANES} lanes, got {}",
            values.len()
        );
        let mut planes = [[0u64; PLANE_WORDS]; PLANE_COUNT];
        let mut signs = [0u64; PLANE_WORDS];
        for (lane, &v) in values.iter().enumerate() {
            let (word, bit) = (lane / 64, lane % 64);
            // Bits above a 16-bit value's magnitude equal its sign in two's
            // complement, so extracting all 16 low bits of `v as u32` yields
            // exactly the dense packer's sign-filled high planes.
            let u = v as u32;
            for (plane, words) in planes.iter_mut().enumerate() {
                words[word] |= u64::from(u >> plane & 1) << bit;
            }
            signs[word] |= u64::from(v < 0) << bit;
        }
        Self::from_dense(values.len(), &planes, &signs)
    }

    /// Reconstructs the dense plane array and sign plane, bit-identical to
    /// what [`from_dense`](Self::from_dense) consumed.
    pub fn to_dense(&self) -> ([[u64; PLANE_WORDS]; PLANE_COUNT], [u64; PLANE_WORDS]) {
        let mut planes = [[0u64; PLANE_WORDS]; PLANE_COUNT];
        let mut next = 0usize;
        for (bit, plane) in planes.iter_mut().enumerate() {
            if self.stored_mask >> bit & 1 == 1 {
                *plane = self.stored[next];
                next += 1;
            } else if self.sign_ext_mask >> bit & 1 == 1 {
                *plane = self.signs;
            }
        }
        (planes, self.signs)
    }

    /// Resolves plane `bit`.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= PLANE_COUNT`.
    pub fn plane(&self, bit: u8) -> PlaneRef<'_> {
        let bit = usize::from(bit);
        assert!(bit < PLANE_COUNT, "plane {bit} out of range");
        if self.stored_mask >> bit & 1 == 1 {
            let index = (self.stored_mask & ((1 << bit) - 1)).count_ones() as usize;
            PlaneRef::Stored(&self.stored[index])
        } else if self.sign_ext_mask >> bit & 1 == 1 {
            PlaneRef::SignExtended
        } else {
            PlaneRef::Zero
        }
    }

    /// Number of packed lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Bitmap of materialised planes (bit `b` set ⇒ plane `b` stored).
    pub fn stored_mask(&self) -> u16 {
        self.stored_mask
    }

    /// Bitmap of planes that equal the sign plane.
    pub fn sign_ext_mask(&self) -> u16 {
        self.sign_ext_mask
    }

    /// The sign plane (bit set ⇒ the lane is negative).
    pub fn signs(&self) -> &[u64; PLANE_WORDS] {
        &self.signs
    }

    /// The materialised planes, ascending bit order.
    pub fn stored_planes(&self) -> &[[u64; PLANE_WORDS]] {
        &self.stored
    }

    /// Modeled DRAM stream footprint of this block in bits: the two plane
    /// bitmaps, the sign plane, and each stored plane at `lanes` bits (a
    /// ragged block streams only its populated lanes).
    pub fn compressed_bits(&self) -> u64 {
        let lanes = self.lanes as u64;
        32 + lanes + self.stored.len() as u64 * lanes
    }

    /// The dense baseline the same lanes stream at: 16 bits per value.
    pub fn dense_bits(&self) -> u64 {
        self.lanes as u64 * MAX_PRECISION as u64
    }

    /// Resident in-memory footprint of this block (headers + sign plane +
    /// stored plane words).
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.stored.len() * std::mem::size_of::<[u64; PLANE_WORDS]>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn round_trip_is_exact_over_ragged_lanes() {
        for lanes in [1usize, 7, 63, 64, 65, 128, 200, 255, 256] {
            let values: Vec<i32> = (0..lanes as i32)
                .map(|i| (i * 977) % 30000 - 15000)
                .collect();
            let (planes, signs) = dense_of(&values);
            let compressed = CompressedPlanes::from_dense(lanes, &planes, &signs);
            assert_eq!(compressed.lanes(), lanes);
            let (back, back_signs) = compressed.to_dense();
            assert_eq!(back, planes, "{lanes} lanes");
            assert_eq!(back_signs, signs);
            // compress_values is the same encoding, without the dense detour.
            assert_eq!(compressed, CompressedPlanes::compress_values(&values));
        }
    }

    #[test]
    fn all_zero_planes_are_elided_not_stored() {
        // Even values: plane 0 is all zeros and must cost nothing.
        let values: Vec<i32> = (0..256).map(|i| (i % 50) * 2).collect();
        let c = CompressedPlanes::compress_values(&values);
        assert_eq!(c.stored_mask() & 1, 0);
        assert_eq!(c.plane(0), PlaneRef::Zero);
        // An all-zero block stores nothing at all.
        let zero = CompressedPlanes::compress_values(&[0; 256]);
        assert_eq!(zero.stored_planes().len(), 0);
        assert_eq!(zero.stored_mask(), 0);
        assert_eq!(zero.sign_ext_mask(), 0);
        assert_eq!(zero.compressed_bits(), 32 + 256);
    }

    #[test]
    fn sign_extension_planes_resolve_to_the_sign_plane() {
        // All -1: every plane equals the sign plane, so nothing is stored.
        let c = CompressedPlanes::compress_values(&[-1; 100]);
        assert_eq!(c.stored_planes().len(), 0);
        assert_eq!(c.sign_ext_mask(), u16::MAX);
        for bit in 0..PLANE_COUNT as u8 {
            assert_eq!(c.plane(bit), PlaneRef::SignExtended);
        }
        let (planes, signs) = c.to_dense();
        assert!(planes.iter().all(|p| *p == signs));
    }

    #[test]
    fn narrow_values_store_only_their_magnitude_planes() {
        // 4-bit signed values: planes 0..3 may be populated, planes 3..16 are
        // pure sign extension — the compressed stream carries ≤ 3 planes.
        let values: Vec<i32> = (0..256).map(|i| (i % 15) - 7).collect();
        let c = CompressedPlanes::compress_values(&values);
        assert!(c.stored_planes().len() <= 3, "{}", c.stored_planes().len());
        assert!(c.compressed_bits() < c.dense_bits());
    }

    #[test]
    fn footprint_accumulates_across_blocks() {
        // A tensor streams as consecutive 256-lane blocks, the chunking the
        // wide datapath packs filters in: 600 values are 256 + 256 + 88.
        let values: Vec<i32> = (0..600).map(|i| (i % 13) - 6).collect();
        let blocks: Vec<CompressedPlanes> = values
            .chunks(PLANE_LANES)
            .map(CompressedPlanes::compress_values)
            .collect();
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks.iter().map(|b| b.lanes()).sum::<usize>(), 600);
        let dense: u64 = blocks.iter().map(|b| b.dense_bits()).sum();
        let compressed: u64 = blocks.iter().map(|b| b.compressed_bits()).sum();
        assert_eq!(dense, 600 * 16);
        assert!(compressed < dense);
        // The ragged last block streams only its populated lanes.
        let last = &blocks[2];
        assert_eq!(
            last.compressed_bits(),
            32 + 88 + last.stored_planes().len() as u64 * 88
        );
    }

    #[test]
    #[should_panic(expected = "at most 256 lanes")]
    fn oversized_blocks_are_rejected() {
        CompressedPlanes::compress_values(&[0; 257]);
    }
}
