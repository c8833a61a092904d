//! The SIP datapath the engine runs: bit planes as words, AND + popcount as
//! the adder tree, 256 lanes per block, and one weight row against a tile of
//! activation rows per kernel call.
//!
//! [`super::sip::serial_inner_product`] models the SIP of Figure 3 one bit ×
//! one lane at a time, which is faithful but slow. A SIP cycle — 16
//! single-bit AND gates feeding a 16-input adder tree — is exactly a
//! word-wide `AND` followed by `count_ones()` once the operands are
//! *transposed*: instead of one word per lane holding all of a value's bits,
//! keep one word per **bit plane** holding that bit of every lane.
//! [`WideBitplaneBlock`] performs the transpose for up to [`WIDE_LANES`] (256)
//! lanes held as `[u64; 4]` plane words, so one AND + popcount evaluates
//! sixteen SIPs' worth of one-bit products at once. The arithmetic schedule is
//! the same weight-bit outer / activation-bit inner walk as the serial model,
//! with the same two's-complement MSB negations — only the order in which a
//! plane pair's one-bit products are summed changes, and integer addition is
//! associative, so the result is bit-identical to the serial model by
//! construction (pinned by the property suite in
//! `tests/functional_equivalence.rs` across 1–256 lanes, ragged tails,
//! 1–16-bit precisions and all four signedness combinations).
//!
//! The kernel evaluates a **tile** ([`tile_inner_products`]), as Loom's SIP
//! grid does (§3.2): a filter occupies a row of SIPs whose columns work on
//! different windows, so a weight bit, once loaded, serves a whole window
//! group, and each SIP holds its partial sum until the window's last chunk.
//! One call takes one weight row (every 256-lane block of a conv filter or of
//! a fully-connected output row) and up to [`TILE`] activation rows (the
//! windows of one window group, or the items of a fully-connected batch). Per
//! block, each weight plane is resolved and broadcast once for the whole
//! tile; each member keeps one vector accumulator across all of the row's
//! blocks, and each accumulator is reduced once, at the end. A block runs at
//! the weight block's detected Pw and the widest member's detected Pa, which
//! is exact because the extra planes are zero or sign extension; zero weight
//! blocks and blocks whose every member is zero are skipped.
//! [`wide_inner_product`] and [`compressed_inner_product`] are the one-block,
//! one-member case at explicit precisions.
//!
//! Five kernel tiers are dispatched at runtime on x86-64 (the fastest
//! detected tier is chosen once, into a process-wide [`KernelTier`]). Each
//! takes the tile form, and all produce identical results:
//!
//! * **AVX-512 + `vpopcntdq` + `ifma`** — `_mm512_popcnt_epi64` counts a
//!   whole plane pair per instruction: two adjacent activation planes load
//!   with one 512-bit read (the plane array is contiguous), AND against the
//!   weight plane broadcast once per block, and popcount per 64-bit lane.
//!   One `_mm512_madd52lo_epu64` per plane pair weighs the counts against a
//!   static table (`2^k` in lanes 0–3 for the even plane, `2^(k+1)` in
//!   lanes 4–7 for the odd one). Each member's activation pairs load into
//!   registers once per block, and the pair loop is unrolled per activation
//!   width: one specialization per clean pair count and top-plane case,
//!   chosen once per block. The weights' negated MSB plane goes to its own
//!   negative accumulator.
//! * **AVX-512 (`avx512f` + `avx512bw`)** — the `vpshufb` nibble-lookup
//!   popcount at 512-bit width for parts without `vpopcntdq`: four
//!   activation planes fold into one `_mm512_sad_epu8` (two per load, byte
//!   counts combined as `c01 + 4·c23`), weighed by Horner steps.
//! * **AVX2** — `_mm256_and_si256` + a `vpshufb` nibble-lookup popcount
//!   (`_mm256_sad_epu8` folds four planes' byte counts into four lane sums
//!   that are shift-accumulated vector-wide).
//! * **`popcnt`** — four scalar `count_ones` per plane pair, compiled with
//!   the `popcnt` feature enabled.
//! * **portable** — the same loop on the baseline target, for non-x86 hosts.
//!
//! Packing is dispatched from the same once-resolved tier. Both AVX-512 tiers
//! transpose 64 lanes at a time, byte-sliced: `vpmovdb` narrows each lane to
//! a byte, and one `_mm512_movepi8_mask` of the bytes' top bits is a whole
//! plane word (masked loads for a ragged tail). The AVX2 tier transposes
//! eight lanes per `_mm256_movemask_ps`, and the others one bit at a time;
//! all produce identical blocks, and every packer writes every word, so a
//! used block is re-packed in place without a reset. Every packer OR-folds
//! `v ^ (v >> 31)` over the values. The fold's width is the block's
//! magnitude width: every plane at or above it of a two's-complement value
//! equals its sign, so those planes are filled with the sign words instead
//! of extracted (the AVX-512 packer extracts planes 0–7 in one pass and
//! planes 8–15 only for blocks wider than 8 bits). The block keeps the
//! width, so [`WideBitplaneBlock::detected_precision`] and
//! [`WideBitplaneBlock::is_zero`] read it instead of rescanning 16 planes.

use loom_mem::compress::{CompressedPlanes, PlaneRef, PLANE_LANES, PLANE_WORDS};
use loom_model::fixed::{Precision, MAX_PRECISION};

/// Lanes per [`WideBitplaneBlock`]: four 64-bit plane words.
pub const WIDE_LANES: usize = 256;

/// Plane words per block (`WIDE_LANES / 64`).
pub const WIDE_WORDS: usize = WIDE_LANES / 64;

// The compressed format in loom-mem and the wide block here must agree on
// block geometry for the zero-copy plane handoff below.
const _: () = assert!(WIDE_LANES == PLANE_LANES && WIDE_WORDS == PLANE_WORDS);

/// Up to 256 lanes of operands, transposed into `[u64; 4]` words per bit
/// plane.
///
/// Bit `i % 64` of word `i / 64` of [`plane_words`](Self::plane_words)`(b)`
/// is bit `b` of lane `i`'s two's-complement encoding;
/// [`sign_words`](Self::sign_words) marks the negative lanes. Lanes beyond
/// [`lanes`](Self::lanes) pack as zeros and contribute nothing to any inner
/// product, which is how ragged tails (`lanes % 64 != 0`) are handled.
///
/// # Examples
///
/// ```
/// use loom_sim::loom::{wide_inner_product, WideBitplaneBlock};
/// use loom_sim::loom::reference_inner_product;
/// use loom_model::fixed::required_precision;
///
/// let weights: Vec<i32> = (0..200).map(|i| (i % 17) - 8).collect();
/// let activations: Vec<i32> = (0..200).map(|i| (i % 23) - 11).collect();
/// let w = WideBitplaneBlock::pack(&weights);
/// let a = WideBitplaneBlock::pack(&activations);
/// let dot = wide_inner_product(
///     &w,
///     &a,
///     required_precision(&weights),
///     required_precision(&activations),
///     true,
///     true,
/// );
/// assert_eq!(dot, reference_inner_product(&weights, &activations));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WideBitplaneBlock {
    lanes: usize,
    planes: [[u64; WIDE_WORDS]; MAX_PRECISION as usize],
    signs: [u64; WIDE_WORDS],
    /// Planes below this hold magnitude bits; the rest equal the sign plane.
    width: u8,
}

impl WideBitplaneBlock {
    /// A block holding no lanes (all planes zero).
    pub const EMPTY: WideBitplaneBlock = WideBitplaneBlock {
        lanes: 0,
        planes: [[0; WIDE_WORDS]; MAX_PRECISION as usize],
        signs: [0; WIDE_WORDS],
        width: 0,
    };

    /// Transposes `values` into wide bit-plane form.
    ///
    /// Operands must be representable in 16-bit two's complement.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() > 256`.
    pub fn pack(values: &[i32]) -> Self {
        let mut block = Self::EMPTY;
        block.pack_into(values);
        block
    }

    /// Re-packs the block in place from `values`, reusing the storage — the
    /// arena path the conv/FC pipelines use to avoid per-window allocation.
    /// The transposer is the one of [`active_kernel_tier`]; the block's
    /// magnitude width (and so its detected precision and zero flag) comes
    /// from the same pass.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() > 256`.
    pub fn pack_into(&mut self, values: &[i32]) {
        // SAFETY: `active_kernel_tier` only selects tiers detected on this
        // CPU.
        unsafe { self.pack_on(active_kernel_tier(), values) };
    }

    /// [`pack_into`](Self::pack_into) on the transposer of `tier`.
    ///
    /// # Safety
    ///
    /// `tier` must be detected on this CPU ([`KernelTier::detected`]).
    unsafe fn pack_on(&mut self, tier: KernelTier, values: &[i32]) {
        assert!(
            values.len() <= WIDE_LANES,
            "a WideBitplaneBlock holds at most {WIDE_LANES} lanes, got {}",
            values.len()
        );
        debug_assert!(tier.detected(), "{} is not detected", tier.name());
        // Every packer writes every plane and sign word and the width, so a
        // used block needs no reset first.
        self.lanes = values.len();
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY (each arm): the caller guarantees `tier` is detected,
            // which implies its features; both AVX-512 tiers include
            // `avx512f` and `avx512bw`.
            match tier {
                KernelTier::Avx512 | KernelTier::Avx512Vpopcnt => {
                    return unsafe { pack_avx512(self, values) };
                }
                KernelTier::Avx2 => return unsafe { pack_avx2(self, values) },
                KernelTier::Popcnt | KernelTier::Portable => {}
            }
        }
        pack_scalar(self, values);
    }

    /// Number of packed lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The four words holding bit `bit` of every lane.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 16`.
    pub fn plane_words(&self, bit: u8) -> &[u64; WIDE_WORDS] {
        &self.planes[usize::from(bit)]
    }

    /// The four words marking the negative lanes.
    pub fn sign_words(&self) -> &[u64; WIDE_WORDS] {
        &self.signs
    }

    /// The magnitude view of plane `bit` (bit differs from the lane's sign),
    /// as consumed by the precision detectors.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 16`.
    pub fn magnitude_words(&self, bit: u8) -> [u64; WIDE_WORDS] {
        let plane = &self.planes[usize::from(bit)];
        std::array::from_fn(|w| plane[w] ^ self.signs[w])
    }

    /// Number of planes holding magnitude bits (`0..=16`): the width of the
    /// widest lane less its sign bit. Every plane at or above it equals the
    /// sign plane, so its [`magnitude_words`](Self::magnitude_words) are zero.
    pub(crate) fn magnitude_width(&self) -> u8 {
        self.width
    }

    /// Whether any packed lane is negative.
    fn has_negative_lanes(&self) -> bool {
        self.signs != [0; WIDE_WORDS]
    }

    /// Whether every packed lane is zero (such a block contributes nothing to
    /// any inner product, so the engine skips it outright).
    pub fn is_zero(&self) -> bool {
        self.width == 0 && !self.has_negative_lanes()
    }

    /// The smallest precision covering every packed lane: signed
    /// two's-complement width when `signed`, magnitude bits otherwise. Equals
    /// [`loom_model::fixed::required_precision`] /
    /// [`loom_model::fixed::required_unsigned_precision`] over the same
    /// values. The engine computes inner products at this width — every
    /// skipped higher plane is either all zeros or pure sign extension, and
    /// the narrower schedule is exactly what the serial model produces at the
    /// same precision.
    pub fn detected_precision(&self, signed: bool) -> Precision {
        Precision::saturating(self.width + u8::from(signed))
    }

    /// Reconstructs the packed values (inverse of [`pack`](Self::pack) for
    /// operands representable in 16-bit two's complement).
    pub fn unpack(&self) -> Vec<i32> {
        (0..self.lanes)
            .map(|lane| {
                let (word, bit) = (lane / 64, lane % 64);
                let mut v: u32 = 0;
                for plane in 0..MAX_PRECISION {
                    v |= ((self.planes[usize::from(plane)][word] >> bit & 1) as u32) << plane;
                }
                if self.signs[word] >> bit & 1 == 1 {
                    v |= !0u32 << MAX_PRECISION;
                }
                v as i32
            })
            .collect()
    }
}

/// Slot marker: the plane is all zeros (elided, contributes nothing).
const SLOT_ZERO: u8 = 0xff;
/// Slot marker: the plane equals the sign plane (pure sign extension).
const SLOT_SIGN: u8 = 0xfe;

/// A [`WideBitplaneBlock`] stored in the sparse compressed format of
/// [`loom_mem::compress`]: all-zero planes are elided, pure-sign-extension
/// planes resolve to the shared sign plane, and only the remaining planes are
/// materialised. The wide kernels consume this form directly — an elided
/// plane is skipped in the weight-bit loop (its contribution is exactly
/// zero), and a sign-extension plane reads the sign words, so every inner
/// product is bit-identical to the dense path on every kernel tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedWideBlock {
    inner: CompressedPlanes,
    /// Per-bit resolution LUT: [`SLOT_ZERO`], [`SLOT_SIGN`], or an index
    /// into the stored-plane array — one branchless lookup per weight bit.
    slots: [u8; MAX_PRECISION as usize],
    /// The dense block's magnitude width.
    width: u8,
}

impl CompressedWideBlock {
    /// Compresses a dense block. Lossless: [`decompress`](Self::decompress)
    /// reproduces `block` exactly, including lanes and sign words.
    pub fn compress(block: &WideBitplaneBlock) -> Self {
        let inner = CompressedPlanes::from_dense(block.lanes, &block.planes, &block.signs);
        let mut slots = [SLOT_ZERO; MAX_PRECISION as usize];
        let mut next = 0u8;
        for (bit, slot) in slots.iter_mut().enumerate() {
            *slot = match inner.plane(bit as u8) {
                PlaneRef::Stored(_) => {
                    next += 1;
                    next - 1
                }
                PlaneRef::SignExtended => SLOT_SIGN,
                PlaneRef::Zero => SLOT_ZERO,
            };
        }
        CompressedWideBlock {
            inner,
            slots,
            width: block.width,
        }
    }

    /// Reconstructs the dense block, bit-identical to what
    /// [`compress`](Self::compress) consumed.
    pub fn decompress(&self) -> WideBitplaneBlock {
        let (planes, signs) = self.inner.to_dense();
        WideBitplaneBlock {
            lanes: self.inner.lanes(),
            planes,
            signs,
            width: self.width,
        }
    }

    /// Number of packed lanes.
    pub fn lanes(&self) -> usize {
        self.inner.lanes()
    }

    /// Whether every packed lane is zero (same contract as
    /// [`WideBitplaneBlock::is_zero`]).
    pub fn is_zero(&self) -> bool {
        self.width == 0 && *self.inner.signs() == [0; WIDE_WORDS]
    }

    /// The smallest precision covering every packed lane — identical to
    /// [`WideBitplaneBlock::detected_precision`] on the dense block, from the
    /// magnitude width captured at compression time.
    pub fn detected_precision(&self, signed: bool) -> Precision {
        Precision::saturating(self.width + u8::from(signed))
    }

    /// The underlying compressed-plane storage (footprint accounting).
    pub fn planes(&self) -> &CompressedPlanes {
        &self.inner
    }

    /// Resident bytes of this block (headers + stored plane words).
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>() - std::mem::size_of::<CompressedPlanes>()
            + self.inner.resident_bytes()
    }
}

/// A 256-lane weight block in either form the kernels read in place: a dense
/// [`WideBitplaneBlock`] (fully-connected rows streamed through a worker
/// arena) or a [`CompressedWideBlock`] (packed conv filters and cached
/// fully-connected rows). Both forms give bit-identical products. Sealed:
/// the kernels rely on the plane, width and zero facts each form reports.
pub trait WeightBlock: sealed::WeightPlanes {}

impl WeightBlock for WideBitplaneBlock {}
impl WeightBlock for CompressedWideBlock {}

mod sealed {
    use super::{CompressedWideBlock, WideBitplaneBlock, SLOT_SIGN, SLOT_ZERO, WIDE_WORDS};

    /// What the kernels read of a weight block.
    pub trait WeightPlanes {
        /// The words of plane `wb`, or `None` when the plane is all zeros
        /// (an elided compressed plane), which the kernels skip.
        fn plane(&self, wb: usize) -> Option<&[u64; WIDE_WORDS]>;
        /// The block's magnitude width.
        fn width(&self) -> u8;
        /// Whether every lane is zero.
        fn all_zero(&self) -> bool;
    }

    impl WeightPlanes for WideBitplaneBlock {
        #[inline(always)]
        fn plane(&self, wb: usize) -> Option<&[u64; WIDE_WORDS]> {
            Some(&self.planes[wb])
        }

        #[inline(always)]
        fn width(&self) -> u8 {
            self.width
        }

        #[inline(always)]
        fn all_zero(&self) -> bool {
            self.is_zero()
        }
    }

    impl WeightPlanes for CompressedWideBlock {
        /// One slot lookup: an elided plane is `None`, a sign-extension
        /// plane reads the shared sign words.
        #[inline(always)]
        fn plane(&self, wb: usize) -> Option<&[u64; WIDE_WORDS]> {
            match self.slots[wb] {
                SLOT_ZERO => None,
                SLOT_SIGN => Some(self.inner.signs()),
                index => Some(&self.inner.stored_planes()[usize::from(index)]),
            }
        }

        #[inline(always)]
        fn width(&self) -> u8 {
            self.width
        }

        #[inline(always)]
        fn all_zero(&self) -> bool {
            self.is_zero()
        }
    }
}

/// The magnitude width of `values`: the highest of their 16 packed planes
/// in which some bit differs from its lane's sign, plus one (0 when every
/// value is 0 or -1). The OR-fold of `v ^ (v >> 31)` marks exactly those
/// bits; it is branch-free, so it vectorizes inside each packer. Bits above
/// the 16 packed planes are masked off, so the width matches what a rescan
/// of the planes would find for any `i32`.
#[inline(always)]
fn magnitude_width(values: &[i32]) -> u8 {
    let fold = values.iter().fold(0, |acc, &v| acc | (v ^ (v >> 31)));
    let packed = fold as u32 & ((1 << MAX_PRECISION) - 1);
    (32 - packed.leading_zeros()) as u8
}

/// Sets the block's magnitude width from `values` and clears its sign words
/// and the planes below that width, which the bit-at-a-time packers OR into.
#[inline(always)]
fn clear_for(block: &mut WideBitplaneBlock, values: &[i32]) {
    block.width = magnitude_width(values);
    block.signs = [0; WIDE_WORDS];
    block.planes[..usize::from(block.width)].fill([0; WIDE_WORDS]);
}

/// Fills the planes at and above the block's magnitude width from the sign
/// words.
#[inline(always)]
fn fill_sign_planes(block: &mut WideBitplaneBlock) {
    for plane in usize::from(block.width)..usize::from(MAX_PRECISION) {
        block.planes[plane] = block.signs;
    }
}

/// Portable bit-by-bit transpose.
fn pack_scalar(block: &mut WideBitplaneBlock, values: &[i32]) {
    clear_for(block, values);
    let cutoff = usize::from(block.width);
    for (lane, &v) in values.iter().enumerate() {
        let (word, bit) = (lane / 64, lane % 64);
        let u = v as u32;
        for plane in 0..cutoff {
            block.planes[plane][word] |= u64::from(u >> plane & 1) << bit;
        }
        block.signs[word] |= u64::from(v < 0) << bit;
    }
    fill_sign_planes(block);
}

/// AVX2 transpose: eight lanes at a time via `_mm256_movemask_ps`, which
/// collects the sign bit of each 32-bit lane — shifting the target bit into
/// the sign position turns one movemask into eight transposed plane bits.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn pack_avx2(block: &mut WideBitplaneBlock, values: &[i32]) {
    use std::arch::x86_64::*;
    clear_for(block, values);
    let cutoff = usize::from(block.width);
    let mut chunk = 0usize;
    while chunk * 8 < values.len() {
        let base = chunk * 8;
        let v = if base + 8 <= values.len() {
            _mm256_loadu_si256(values.as_ptr().add(base).cast())
        } else {
            // Ragged tail: zero lanes pack as zeros, contributing nothing.
            let mut tail = [0i32; 8];
            tail[..values.len() - base].copy_from_slice(&values[base..]);
            _mm256_loadu_si256(tail.as_ptr().cast())
        };
        let (word, bit) = (base / 64, base % 64);
        block.signs[word] |= u64::from(_mm256_movemask_ps(_mm256_castsi256_ps(v)) as u32) << bit;
        for plane in 0..cutoff {
            let shifted = _mm256_sll_epi32(v, _mm_cvtsi32_si128((31 - plane) as i32));
            let bits = _mm256_movemask_ps(_mm256_castsi256_ps(shifted)) as u32;
            block.planes[plane][word] |= u64::from(bits) << bit;
        }
        chunk += 1;
    }
    fill_sign_planes(block);
}

/// AVX-512 transpose, byte-sliced: 64 lanes at a time. The magnitude width
/// is OR-folded in registers as the lanes load (a ragged tail loads through a
/// lane mask; masked-off lanes read as zero and never touch memory). Planes
/// 0–7 come from each lane's low byte ([`pack_byte_planes`]); planes 8–15
/// come the same way from the bytes of `v >> 8`, and only when the block is
/// wider than 8 bits. As in the other packers, the planes at and above the
/// width are then filled from the sign words, so every word of every plane
/// is written.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn pack_avx512(block: &mut WideBitplaneBlock, values: &[i32]) {
    use std::arch::x86_64::*;
    let zero = _mm512_setzero_si512();
    let mut fold = zero;
    let mut signs = [0u64; WIDE_WORDS];
    // Sixteen lanes per vector, four vectors per plane word.
    let lanes: [[__m512i; 4]; WIDE_WORDS] = std::array::from_fn(|word| {
        std::array::from_fn(|q| {
            let base = word * 64 + q * 16;
            let count = values.len().saturating_sub(base).min(16);
            let mask = ((1u32 << count) - 1) as __mmask16;
            let at = values.as_ptr().add(base.min(values.len()));
            let v = _mm512_maskz_loadu_epi32(mask, at.cast());
            fold = _mm512_or_si512(fold, _mm512_xor_si512(v, _mm512_srai_epi32::<31>(v)));
            signs[word] |= u64::from(_mm512_cmplt_epi32_mask(v, zero)) << (16 * q);
            v
        })
    });
    let packed = _mm512_reduce_or_epi32(fold) as u32 & ((1 << MAX_PRECISION) - 1);
    block.width = (32 - packed.leading_zeros()) as u8;
    block.signs = signs;
    for (word, lanes) in lanes.iter().enumerate() {
        pack_byte_planes::<0>(block, word, lanes);
        if block.width > 8 {
            pack_byte_planes::<8>(block, word, lanes);
        }
    }
    fill_sign_planes(block);
}

/// Writes word `word` of planes `SHIFT..SHIFT + 8` from that word's 64 lanes
/// (four 16-lane vectors). `vpmovdb` narrows bits `SHIFT..SHIFT + 8` of each
/// lane to one byte of a 512-bit vector, so one `_mm512_movepi8_mask` of the
/// bytes' top bits is a whole plane word, and adding the bytes to themselves
/// shifts the next plane's bit to the top.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
#[inline]
unsafe fn pack_byte_planes<const SHIFT: u32>(
    block: &mut WideBitplaneBlock,
    word: usize,
    lanes: &[std::arch::x86_64::__m512i; 4],
) {
    use std::arch::x86_64::*;
    let narrow = |v: __m512i| _mm512_cvtepi32_epi8(_mm512_srli_epi32::<SHIFT>(v));
    let mut bytes = _mm512_castsi128_si512(narrow(lanes[0]));
    bytes = _mm512_inserti32x4::<1>(bytes, narrow(lanes[1]));
    bytes = _mm512_inserti32x4::<2>(bytes, narrow(lanes[2]));
    bytes = _mm512_inserti32x4::<3>(bytes, narrow(lanes[3]));
    for plane in (SHIFT as usize..SHIFT as usize + 8).rev() {
        block.planes[plane][word] = _mm512_movepi8_mask(bytes);
        bytes = _mm512_add_epi8(bytes, bytes);
    }
}

/// Activation rows one kernel call evaluates against one weight row: the
/// tile's members, which are the windows of one window group or the items of
/// a fully-connected batch. Eight members cover a whole window group of the
/// serving geometry; on a 2-vCPU `avx512-vpopcnt` host, `zoo-b1` ran 3.38
/// images/s with eight against 3.11 with four.
pub const TILE: usize = 8;

/// The precisions and signedness one block's products run at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlockPlan {
    pw: usize,
    pa: usize,
    weights_signed: bool,
    activations_signed: bool,
}

impl BlockPlan {
    fn new(pw: Precision, pa: Precision, weights_signed: bool, activations_signed: bool) -> Self {
        BlockPlan {
            pw: usize::from(pw.bits()),
            pa: usize::from(pa.bits()),
            weights_signed,
            activations_signed,
        }
    }

    /// Activation planes that add: all `pa` of them, less the MSB plane
    /// two's complement subtracts when the activations are signed.
    #[inline(always)]
    fn body_planes(self) -> usize {
        self.pa - usize::from(self.activations_signed)
    }

    /// Whether weight plane `wb` is subtracted (the MSB of signed weights).
    #[inline(always)]
    fn negates_weight_plane(self, wb: usize) -> bool {
        self.weights_signed && wb == self.pw - 1
    }
}

/// How a kernel call picks each block's [`BlockPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Schedule {
    /// The engine's rule. Weights run signed at the weight block's detected
    /// precision. Activations run at the widest member's detected precision,
    /// signed when any member has a negative lane. This is exact, because
    /// every plane above a block's own width is zero or sign extension. A
    /// zero weight block is skipped, and so is a block whose every member is
    /// zero.
    Detected,
    /// The same plan for every block, as the explicit-precision entry points
    /// ([`wide_inner_product`], [`compressed_inner_product`]) ask.
    Fixed(BlockPlan),
}

impl Schedule {
    /// The plan of one block given its weight block and the tile members'
    /// activation blocks at the same position, or `None` when the block adds
    /// nothing to any member.
    #[inline(always)]
    fn plan<'a, W: WeightBlock>(
        self,
        weights: &W,
        members: impl Iterator<Item = &'a WideBitplaneBlock>,
    ) -> Option<BlockPlan> {
        match self {
            Schedule::Fixed(plan) => Some(plan),
            Schedule::Detected => {
                if weights.all_zero() {
                    return None;
                }
                let (width, negative) = members.fold((0, false), |(width, negative), a| {
                    (width.max(a.width), negative | a.has_negative_lanes())
                });
                if width == 0 && !negative {
                    return None;
                }
                Some(BlockPlan {
                    pw: usize::from(Precision::saturating(weights.width() + 1).bits()),
                    pa: usize::from(Precision::saturating(width + u8::from(negative)).bits()),
                    weights_signed: true,
                    activations_signed: negative,
                })
            }
        }
    }
}

/// The portable tile kernel, also the `popcnt` tier's body: four AND +
/// popcount word operations per plane pair, summed exactly as the serial
/// schedule sums them, only reassociated. Per block, each live weight plane
/// is resolved once for the whole tile; each member's products then
/// accumulate into its own `i64` across every block of the row.
#[inline(always)]
fn tile_scalar<W: WeightBlock>(
    weights: &[W],
    activations: &[WideBitplaneBlock],
    schedule: Schedule,
    out: &mut [i64],
) {
    const NO_PLANE: [u64; WIDE_WORDS] = [0; WIDE_WORDS];
    let blocks = weights.len();
    let mut totals = [0i64; TILE];
    for (b, w) in weights.iter().enumerate() {
        let Some(plan) = schedule.plan(w, activations.iter().skip(b).step_by(blocks)) else {
            continue;
        };
        // Elided all-zero weight planes contribute zero to every product
        // (the negated MSB plane too: -0 = 0), so only live planes are kept.
        let mut planes = [&NO_PLANE; MAX_PRECISION as usize];
        let mut bits = [0usize; MAX_PRECISION as usize];
        let mut live = 0;
        for wb in 0..plan.pw {
            if let Some(plane) = w.plane(wb) {
                planes[live] = plane;
                bits[live] = wb;
                live += 1;
            }
        }
        let body = plan.body_planes();
        for (total, member) in totals.iter_mut().zip(activations.chunks_exact(blocks)) {
            let a = &member[b];
            let mut sum = 0i64;
            for (&wp, &wb) in planes[..live].iter().zip(&bits[..live]) {
                let count = |ap: &[u64; WIDE_WORDS]| {
                    i64::from(
                        (wp[0] & ap[0]).count_ones()
                            + (wp[1] & ap[1]).count_ones()
                            + (wp[2] & ap[2]).count_ones()
                            + (wp[3] & ap[3]).count_ones(),
                    )
                };
                let mut acc = 0i64;
                for (ab, ap) in a.planes[..body].iter().enumerate() {
                    acc += count(ap) << ab;
                }
                if plan.activations_signed {
                    acc -= count(&a.planes[plan.pa - 1]) << (plan.pa - 1);
                }
                if plan.negates_weight_plane(wb) {
                    sum -= acc << wb;
                } else {
                    sum += acc << wb;
                }
            }
            *total += sum;
        }
    }
    out.copy_from_slice(&totals[..out.len()]);
}

/// [`tile_scalar`] compiled with the `popcnt` instruction enabled.
///
/// # Safety
///
/// The CPU must support `popcnt`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
unsafe fn tile_popcnt<W: WeightBlock>(
    weights: &[W],
    activations: &[WideBitplaneBlock],
    schedule: Schedule,
    out: &mut [i64],
) {
    tile_scalar(weights, activations, schedule, out)
}

/// The shift counts `0..16` for `_mm256_sll_epi64` / `_mm512_sll_epi64`,
/// built once per call.
///
/// # Safety
///
/// The CPU must support `sse2`, as every x86-64 CPU does.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
#[inline]
unsafe fn bit_shift_table() -> [std::arch::x86_64::__m128i; MAX_PRECISION as usize] {
    use std::arch::x86_64::*;
    let mut table = [_mm_setzero_si128(); MAX_PRECISION as usize];
    for (bit, shift) in table.iter_mut().enumerate() {
        *shift = _mm_cvtsi32_si128(bit as i32);
    }
    table
}

/// Sums the four `u64` lanes of an AVX2 register.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn hsum_epi64(v: std::arch::x86_64::__m256i) -> i64 {
    use std::arch::x86_64::*;
    let lo = _mm256_castsi256_si128(v);
    let hi = _mm256_extracti128_si256::<1>(v);
    let sum = _mm_add_epi64(lo, hi);
    _mm_cvtsi128_si64(_mm_add_epi64(sum, _mm_unpackhi_epi64(sum, sum)))
}

/// AVX2 tile kernel: one 256-bit AND per plane pair, a `vpshufb`
/// nibble-lookup popcount, and `_mm256_sad_epu8` byte folding. Four
/// activation planes share one `sad`. Each member keeps one vector
/// accumulator across every block of the row, with the MSB negations applied
/// in-vector, and pays one horizontal reduction at the end.
///
/// # Safety
///
/// The CPU must support `avx2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tile_avx2<W: WeightBlock>(
    weights: &[W],
    activations: &[WideBitplaneBlock],
    schedule: Schedule,
    out: &mut [i64],
) {
    use std::arch::x86_64::*;
    #[rustfmt::skip]
    let lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
    );
    let low_mask = _mm256_set1_epi8(0x0f);
    let zero = _mm256_setzero_si256();
    // Nibble-lookup popcount of `wp & ap` as per-byte counts (each ≤ 8). The
    // weight plane is pre-split into nibble halves once per block (`wp_lo`
    // has high nibbles zeroed, so `wp_lo & ap` *is* the AND's low nibbles),
    // leaving one AND + shift + AND + two lookups per pair.
    macro_rules! pair_counts {
        ($wp_lo:expr, $wp_hi:expr, $ap:expr) => {{
            let ap = _mm256_loadu_si256($ap.as_ptr().cast());
            let lo = _mm256_and_si256($wp_lo, ap);
            let hi = _mm256_and_si256($wp_hi, _mm256_srli_epi32::<4>(ap));
            _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi))
        }};
    }
    let shifts = bit_shift_table();
    let blocks = weights.len();
    let mut totals = [zero; TILE];
    for (b, w) in weights.iter().enumerate() {
        let Some(plan) = schedule.plan(w, activations.iter().skip(b).step_by(blocks)) else {
            continue;
        };
        // Each live weight plane, split into nibble halves once for the tile.
        let mut halves = [(zero, zero); MAX_PRECISION as usize];
        let mut bits = [0usize; MAX_PRECISION as usize];
        let mut live = 0;
        for wb in 0..plan.pw {
            if let Some(plane) = w.plane(wb) {
                let wp = _mm256_loadu_si256(plane.as_ptr().cast());
                halves[live] = (
                    _mm256_and_si256(wp, low_mask),
                    _mm256_and_si256(_mm256_srli_epi32::<4>(wp), low_mask),
                );
                bits[live] = wb;
                live += 1;
            }
        }
        let body = plan.body_planes();
        for (total, member) in totals.iter_mut().zip(activations.chunks_exact(blocks)) {
            let a = &member[b];
            let mut sum = zero;
            for (&(wp_lo, wp_hi), &wb) in halves[..live].iter().zip(&bits[..live]) {
                let mut acc = zero;
                let mut ab = 0usize;
                // Four planes' byte counts combine as c0 + 2·c1 + 4·c2 + 8·c3
                // (≤ 120, well inside a byte) before one fold.
                while ab + 3 < body {
                    let c0 = pair_counts!(wp_lo, wp_hi, a.planes[ab]);
                    let c1 = pair_counts!(wp_lo, wp_hi, a.planes[ab + 1]);
                    let c2 = pair_counts!(wp_lo, wp_hi, a.planes[ab + 2]);
                    let c3 = pair_counts!(wp_lo, wp_hi, a.planes[ab + 3]);
                    let t = _mm256_add_epi8(_mm256_add_epi8(c3, c3), c2);
                    let t = _mm256_add_epi8(_mm256_add_epi8(t, t), c1);
                    let t = _mm256_add_epi8(_mm256_add_epi8(t, t), c0);
                    let sums = _mm256_sad_epu8(t, zero);
                    acc = _mm256_add_epi64(acc, _mm256_sll_epi64(sums, shifts[ab]));
                    ab += 4;
                }
                while ab < body {
                    let sums = _mm256_sad_epu8(pair_counts!(wp_lo, wp_hi, a.planes[ab]), zero);
                    acc = _mm256_add_epi64(acc, _mm256_sll_epi64(sums, shifts[ab]));
                    ab += 1;
                }
                if plan.activations_signed {
                    let msb = plan.pa - 1;
                    let sums = _mm256_sad_epu8(pair_counts!(wp_lo, wp_hi, a.planes[msb]), zero);
                    acc = _mm256_sub_epi64(acc, _mm256_sll_epi64(sums, shifts[msb]));
                }
                let acc = _mm256_sll_epi64(acc, shifts[wb]);
                sum = if plan.negates_weight_plane(wb) {
                    _mm256_sub_epi64(sum, acc)
                } else {
                    _mm256_add_epi64(sum, acc)
                };
            }
            *total = _mm256_add_epi64(*total, sum);
        }
    }
    for (out, total) in out.iter_mut().zip(totals) {
        *out = hsum_epi64(total);
    }
}

/// Broadcasts a 256-bit weight plane into both halves of a zmm register, so
/// one 512-bit AND pairs it against two adjacent activation planes at once.
/// (`_mm512_inserti64x4` needs only `avx512f`.)
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn broadcast_plane_512(plane: &[u64; WIDE_WORDS]) -> std::arch::x86_64::__m512i {
    use std::arch::x86_64::*;
    let wp = _mm256_loadu_si256(plane.as_ptr().cast());
    _mm512_inserti64x4(_mm512_castsi256_si512(wp), wp, 1)
}

/// Loads activation planes `ab` and `ab + 1` with one 512-bit read. The
/// `planes` array is contiguous (`[[u64; 4]; 16]`), so adjacent planes are
/// adjacent in memory; the caller guarantees `ab + 1 < MAX_PRECISION`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn load_plane_pair_512(block: &WideBitplaneBlock, ab: usize) -> std::arch::x86_64::__m512i {
    use std::arch::x86_64::*;
    debug_assert!(ab + 1 < usize::from(MAX_PRECISION));
    _mm512_loadu_si512(
        block
            .planes
            .as_ptr()
            .cast::<u64>()
            .add(ab * WIDE_WORDS)
            .cast(),
    )
}

/// Loads activation plane `ab` into the low half of a zmm register, upper
/// half zeroed (odd plane counts and the MSB correction plane).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn load_plane_single_512(
    block: &WideBitplaneBlock,
    ab: usize,
) -> std::arch::x86_64::__m512i {
    use std::arch::x86_64::*;
    debug_assert!(ab < usize::from(MAX_PRECISION));
    _mm512_maskz_loadu_epi64(
        0x0f,
        block
            .planes
            .as_ptr()
            .cast::<u64>()
            .add(ab * WIDE_WORDS)
            .cast(),
    )
}

/// AVX-512 `vpshufb` tile kernel (`avx512f` + `avx512bw`): the AVX2
/// nibble-lookup popcount at double width. Each 512-bit load covers two
/// adjacent activation planes; two loads (four planes) combine their byte
/// counts as `c01 + 4·c23` (≤ 40 per byte) before one `_mm512_sad_epu8`, so
/// lanes 0–3 carry a quad's even planes and lanes 4–7 its odd ones; Horner
/// steps (shift by four) weigh the quads. Accumulation and the
/// once-per-member reduction are as in [`tile_avx512_vpopcnt`].
///
/// # Safety
///
/// The CPU must support `avx512f` and `avx512bw`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn tile_avx512<W: WeightBlock>(
    weights: &[W],
    activations: &[WideBitplaneBlock],
    schedule: Schedule,
    out: &mut [i64],
) {
    use std::arch::x86_64::*;
    #[rustfmt::skip]
    let lut = _mm512_broadcast_i32x4(_mm_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
    ));
    let low_mask = _mm512_set1_epi8(0x0f);
    let zero = _mm512_setzero_si512();
    // Byte-wise popcount of `wp & ap`, both nibble halves (same scheme as the
    // AVX2 kernel).
    macro_rules! pair_counts {
        ($wp_lo:expr, $wp_hi:expr, $ap:expr) => {{
            let ap = $ap;
            let lo = _mm512_and_si512($wp_lo, ap);
            let hi = _mm512_and_si512($wp_hi, _mm512_srli_epi32::<4>(ap));
            _mm512_add_epi8(_mm512_shuffle_epi8(lut, lo), _mm512_shuffle_epi8(lut, hi))
        }};
    }
    let bit_shifts = bit_shift_table();
    let blocks = weights.len();
    let mut totals = [zero; TILE];
    for (b, w) in weights.iter().enumerate() {
        let Some(plan) = schedule.plan(w, activations.iter().skip(b).step_by(blocks)) else {
            continue;
        };
        // Each live weight plane, broadcast and split into nibble halves
        // once for the tile.
        let mut halves = [(zero, zero); MAX_PRECISION as usize];
        let mut bits = [0usize; MAX_PRECISION as usize];
        let mut live = 0;
        for wb in 0..plan.pw {
            if let Some(plane) = w.plane(wb) {
                let wz = broadcast_plane_512(plane);
                halves[live] = (
                    _mm512_and_si512(wz, low_mask),
                    _mm512_and_si512(_mm512_srli_epi32::<4>(wz), low_mask),
                );
                bits[live] = wb;
                live += 1;
            }
        }
        let body = plan.body_planes();
        let quads = body / 4;
        for (total, member) in totals.iter_mut().zip(activations.chunks_exact(blocks)) {
            let a = &member[b];
            let mut sum = zero;
            for (&(wp_lo, wp_hi), &wb) in halves[..live].iter().zip(&bits[..live]) {
                // Horner over the added planes, top down, four per step:
                // one `sad` folds a pair of loads combined as c01 + 4·c23,
                // so lanes 0–3 carry planes q and q+2, lanes 4–7 planes q+1
                // and q+3. The 1–3 planes above the last full quad start it.
                let top = 4 * quads;
                let mut acc = match body - top {
                    0 => zero,
                    1 => _mm512_sad_epu8(
                        pair_counts!(wp_lo, wp_hi, load_plane_single_512(a, top)),
                        zero,
                    ),
                    2 => _mm512_sad_epu8(
                        pair_counts!(wp_lo, wp_hi, load_plane_pair_512(a, top)),
                        zero,
                    ),
                    _ => {
                        let c01 = pair_counts!(wp_lo, wp_hi, load_plane_pair_512(a, top));
                        let c2 = pair_counts!(wp_lo, wp_hi, load_plane_single_512(a, top + 2));
                        let c2x2 = _mm512_add_epi8(c2, c2);
                        _mm512_sad_epu8(_mm512_add_epi8(c01, _mm512_add_epi8(c2x2, c2x2)), zero)
                    }
                };
                for q in (0..quads).rev() {
                    let c01 = pair_counts!(wp_lo, wp_hi, load_plane_pair_512(a, 4 * q));
                    let c23 = pair_counts!(wp_lo, wp_hi, load_plane_pair_512(a, 4 * q + 2));
                    let c23x2 = _mm512_add_epi8(c23, c23);
                    let t = _mm512_add_epi8(c01, _mm512_add_epi8(c23x2, c23x2));
                    acc = _mm512_add_epi64(_mm512_slli_epi64::<4>(acc), _mm512_sad_epu8(t, zero));
                }
                // The odd planes sit one bit above their pair's even plane.
                let mut acc = _mm512_mask_add_epi64(acc, 0xf0, acc, acc);
                if plan.activations_signed {
                    let msb = plan.pa - 1;
                    let ap = load_plane_single_512(a, msb);
                    let sums = _mm512_sad_epu8(pair_counts!(wp_lo, wp_hi, ap), zero);
                    acc = _mm512_sub_epi64(acc, _mm512_sll_epi64(sums, bit_shifts[msb]));
                }
                let acc = _mm512_sll_epi64(acc, bit_shifts[wb]);
                sum = if plan.negates_weight_plane(wb) {
                    _mm512_sub_epi64(sum, acc)
                } else {
                    _mm512_add_epi64(sum, acc)
                };
            }
            *total = _mm512_add_epi64(*total, sum);
        }
    }
    for (out, total) in out.iter_mut().zip(totals) {
        *out = _mm512_reduce_add_epi64(total);
    }
}

/// The pair weights [`tile_avx512_vpopcnt`] multiplies each plane pair's
/// per-lane popcounts by: lanes 0–3 of entry `k` hold `2^k` (a pair's even
/// plane) and lanes 4–7 hold `2^(k + 1)` (its odd plane). Weight plane `wb`
/// against the activation pair `2j`, `2j + 1` reads entry `wb + 2j`; the
/// highest is 15 + 14, the top weight plane against the top pair.
#[cfg(target_arch = "x86_64")]
#[repr(C, align(64))]
struct PairWeights([[u64; 8]; 2 * MAX_PRECISION as usize - 2]);

#[cfg(target_arch = "x86_64")]
static PAIR_WEIGHTS: PairWeights = {
    let mut table = [[0; 8]; 2 * MAX_PRECISION as usize - 2];
    let mut k = 0;
    while k < table.len() {
        let mut lane = 0;
        while lane < 8 {
            table[k][lane] = 1 << (k + lane / 4);
            lane += 1;
        }
        k += 1;
    }
    PairWeights(table)
};

/// The entries of [`PAIR_WEIGHTS`] one weight plane reads: entry `2j` weighs
/// its products with activation pair `j`.
#[cfg(target_arch = "x86_64")]
type PlaneWeights = [[u64; 8]; MAX_PRECISION as usize - 1];

/// A live weight plane as [`pair_block`] reads it: its words broadcast into
/// both halves of a zmm register, and the pair weights of its bit.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct BroadcastPlane {
    words: std::arch::x86_64::__m512i,
    weights: &'static PlaneWeights,
}

/// The `TOP` cases of [`pair_block`]: which activation planes lie above a
/// block's clean pairs (the pairs whose two planes both add), and how they
/// are weighed.
#[cfg(target_arch = "x86_64")]
mod top {
    /// None: the activations are unsigned and Pa is even.
    pub const NONE: u8 = 0;
    /// One plane, added: the activations are unsigned and Pa is odd.
    pub const ODD_ADDS: u8 = 1;
    /// One plane, the signed MSB, subtracted: Pa is odd.
    pub const ODD_SUBTRACTS: u8 = 2;
    /// A pair whose even plane adds and whose odd plane, the signed MSB,
    /// subtracts: Pa is even.
    pub const SIGNED_PAIR: u8 = 3;
}

/// AVX-512 `vpopcntdq` tile kernel: `_mm512_popcnt_epi64` counts each 64-bit
/// lane of the AND directly, and one `_mm512_madd52lo_epu64` weighs a plane
/// pair's counts. Per block, each live weight plane is broadcast into both
/// halves of a zmm register once for the whole tile, and the block's Pa
/// picks one [`pair_block`] specialization, which runs every member. A
/// member's activation planes load two per 512-bit read, so lanes 0–3 count
/// a pair's even plane and lanes 4–7 its odd one; [`PAIR_WEIGHTS`] holds
/// both lane groups' weights, so no shift is needed. A member's accumulator
/// carries its signed partial sums across every block of the row and is
/// reduced once, at the end. Kept as a separate function (not a
/// const-generic switch) so `avx512vpopcntdq` and `avx512ifma` codegen never
/// reaches parts that only detect `avx512f`/`avx512bw`.
///
/// # Safety
///
/// The CPU must support `avx512f`, `avx512vpopcntdq` and `avx512ifma`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq,avx512ifma")]
unsafe fn tile_avx512_vpopcnt<W: WeightBlock>(
    weights: &[W],
    activations: &[WideBitplaneBlock],
    schedule: Schedule,
    out: &mut [i64],
) {
    use std::arch::x86_64::*;
    let zero = _mm512_setzero_si512();
    let blocks = weights.len();
    let mut totals = [zero; TILE];
    for (b, w) in weights.iter().enumerate() {
        let Some(plan) = schedule.plan(w, activations.iter().skip(b).step_by(blocks)) else {
            continue;
        };
        // Each live weight plane, broadcast once for the tile; elided planes
        // contribute nothing and are left out. The weights' negated MSB
        // plane is kept apart.
        let mut planes = [BroadcastPlane {
            words: zero,
            weights: plane_weights(0),
        }; MAX_PRECISION as usize];
        let (mut live, mut msb) = (0, None);
        for wb in 0..plan.pw {
            let Some(words) = w.plane(wb) else { continue };
            let plane = BroadcastPlane {
                words: broadcast_plane_512(words),
                weights: plane_weights(wb),
            };
            if plan.negates_weight_plane(wb) {
                msb = Some(plane);
            } else {
                planes[live] = plane;
                live += 1;
            }
        }
        let (planes, msb) = (&planes[..live], msb.as_ref());
        let members = activations.iter().skip(b).step_by(blocks);
        let (odd, signed) = (plan.pa % 2 == 1, plan.activations_signed);
        let pairs = plan.pa / 2 - usize::from(signed && !odd);
        macro_rules! by_pairs {
            ($top:ident: $($pairs:literal)*) => {
                match pairs {
                    $($pairs => pair_block::<$pairs, { top::$top }>(planes, msb, members, &mut totals),)*
                    _ => unreachable!("Pa is 1..=16"),
                }
            };
        }
        match (odd, signed) {
            (false, false) => by_pairs!(NONE: 1 2 3 4 5 6 7 8),
            (true, false) => by_pairs!(ODD_ADDS: 0 1 2 3 4 5 6 7),
            (true, true) => by_pairs!(ODD_SUBTRACTS: 0 1 2 3 4 5 6 7),
            (false, true) => by_pairs!(SIGNED_PAIR: 0 1 2 3 4 5 6 7),
        }
    }
    for (out, total) in out.iter_mut().zip(totals) {
        *out = _mm512_reduce_add_epi64(total);
    }
}

/// The [`PAIR_WEIGHTS`] entries weight plane `wb` reads.
#[cfg(target_arch = "x86_64")]
fn plane_weights(wb: usize) -> &'static PlaneWeights {
    PAIR_WEIGHTS.0[wb..]
        .first_chunk()
        .expect("weight planes are 0..16")
}

/// One block of [`tile_avx512_vpopcnt`] for every member, at a Pa of
/// `2 * PAIRS` clean planes plus the `TOP` case's ([`top`]). The member's
/// clean pairs and top planes load into registers once; every weight plane
/// then meets them in an unrolled run of AND + popcount + one
/// `_mm512_madd52lo_epu64` per pair ([`plane_products`]). Products that add
/// go to one accumulator and products that subtract to another: the
/// activations' signed MSB is subtracted, and the weights' MSB plane
/// (`msb`), negated, swaps the two. Not inlined, so both weight-block forms
/// share the 32 specializations.
///
/// # Safety
///
/// The CPU must support `avx512f`, `avx512vpopcntdq` and `avx512ifma`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq,avx512ifma")]
#[inline(never)]
unsafe fn pair_block<'a, const PAIRS: usize, const TOP: u8>(
    planes: &[BroadcastPlane],
    msb: Option<&BroadcastPlane>,
    members: impl Iterator<Item = &'a WideBitplaneBlock>,
    totals: &mut [std::arch::x86_64::__m512i; TILE],
) {
    use std::arch::x86_64::*;
    let zero = _mm512_setzero_si512();
    for (total, a) in totals.iter_mut().zip(members) {
        let mut pairs = [zero; PAIRS];
        for (j, pair) in pairs.iter_mut().enumerate() {
            *pair = load_plane_pair_512(a, 2 * j);
        }
        let top = match TOP {
            top::NONE => zero,
            top::SIGNED_PAIR => load_plane_pair_512(a, 2 * PAIRS),
            _ => load_plane_single_512(a, 2 * PAIRS),
        };
        let (mut add, mut sub) = (zero, zero);
        for plane in planes {
            let (plus, minus) = plane_products::<PAIRS, TOP>(plane, &pairs, top);
            add = _mm512_add_epi64(add, plus);
            sub = _mm512_add_epi64(sub, minus);
        }
        if let Some(msb) = msb {
            let (plus, minus) = plane_products::<PAIRS, TOP>(msb, &pairs, top);
            add = _mm512_add_epi64(add, minus);
            sub = _mm512_add_epi64(sub, plus);
        }
        *total = _mm512_add_epi64(*total, _mm512_sub_epi64(add, sub));
    }
}

/// One weight plane's products with a member's clean `pairs` and `top`
/// planes, weighed: the sum of those that add and the sum of those that
/// subtract. Each plane sums on its own, so the planes' `madd` chains are
/// independent.
///
/// # Safety
///
/// The CPU must support `avx512f`, `avx512vpopcntdq` and `avx512ifma`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq,avx512ifma")]
#[inline]
unsafe fn plane_products<const PAIRS: usize, const TOP: u8>(
    plane: &BroadcastPlane,
    pairs: &[std::arch::x86_64::__m512i; PAIRS],
    top: std::arch::x86_64::__m512i,
) -> (std::arch::x86_64::__m512i, std::arch::x86_64::__m512i) {
    use std::arch::x86_64::*;
    let zero = _mm512_setzero_si512();
    let weight = |k: usize| _mm512_load_si512(plane.weights[k].as_ptr().cast());
    let counts = |ap| _mm512_popcnt_epi64(_mm512_and_si512(plane.words, ap));
    let mut plus = zero;
    for (j, &pair) in pairs.iter().enumerate() {
        plus = _mm512_madd52lo_epu64(plus, counts(pair), weight(2 * j));
    }
    let mut minus = zero;
    match TOP {
        top::ODD_ADDS => plus = _mm512_madd52lo_epu64(plus, counts(top), weight(2 * PAIRS)),
        top::ODD_SUBTRACTS => minus = _mm512_madd52lo_epu64(zero, counts(top), weight(2 * PAIRS)),
        top::SIGNED_PAIR => {
            let (counts, weight) = (counts(top), weight(2 * PAIRS));
            plus = _mm512_mask_madd52lo_epu64(plus, 0x0f, counts, weight);
            minus = _mm512_mask_madd52lo_epu64(zero, 0xf0, counts, weight);
        }
        _ => {}
    }
    (plus, minus)
}

/// The kernel tiers [`tile_inner_products`] and [`wide_inner_product`]
/// dispatch across, slowest to fastest. All tiers compute bit-identical
/// results; the fastest detected one is selected once per process
/// ([`active_kernel_tier`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KernelTier {
    /// The plain Rust plane-pair loop; always available.
    Portable,
    /// [`Portable`](Self::Portable) compiled with scalar `popcnt` enabled.
    Popcnt,
    /// 256-bit `vpshufb` nibble-lookup popcount.
    Avx2,
    /// 512-bit `vpshufb` nibble-lookup popcount (`avx512f` + `avx512bw`).
    Avx512,
    /// 512-bit `vpopcntdq` per-lane popcount weighed by `vpmadd52luq`
    /// (`avx512f` + `avx512vpopcntdq` + `avx512ifma`, plus `avx512bw` for the
    /// byte-sliced transposer it shares with [`Avx512`](Self::Avx512)).
    Avx512Vpopcnt,
}

/// Every tier, slowest to fastest (the order dispatch prefers, reversed).
pub const KERNEL_TIERS: [KernelTier; 5] = [
    KernelTier::Portable,
    KernelTier::Popcnt,
    KernelTier::Avx2,
    KernelTier::Avx512,
    KernelTier::Avx512Vpopcnt,
];

impl KernelTier {
    /// Stable lower-case name (used in bench JSON and logs).
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Portable => "portable",
            KernelTier::Popcnt => "popcnt",
            KernelTier::Avx2 => "avx2",
            KernelTier::Avx512 => "avx512",
            KernelTier::Avx512Vpopcnt => "avx512-vpopcnt",
        }
    }

    /// Whether the running CPU supports this tier.
    pub fn detected(self) -> bool {
        match self {
            KernelTier::Portable => true,
            #[cfg(target_arch = "x86_64")]
            KernelTier::Popcnt => std::arch::is_x86_feature_detected!("popcnt"),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512bw")
            }
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx512Vpopcnt => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512bw")
                    && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
                    && std::arch::is_x86_feature_detected!("avx512ifma")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

/// The tier the kernels ([`tile_inner_products`], [`wide_inner_product`]) and
/// the transposers use on this machine: the fastest detected one, chosen once
/// per process.
pub fn active_kernel_tier() -> KernelTier {
    static TIER: std::sync::OnceLock<KernelTier> = std::sync::OnceLock::new();
    *TIER.get_or_init(|| {
        KERNEL_TIERS
            .into_iter()
            .rev()
            .find(|tier| tier.detected())
            .unwrap_or(KernelTier::Portable)
    })
}

/// Runtime-detected CPU features relevant to the wide kernels, for bench
/// provenance reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct CpuFeatures {
    pub popcnt: bool,
    pub avx2: bool,
    pub avx512f: bool,
    pub avx512bw: bool,
    pub avx512vpopcntdq: bool,
    pub avx512ifma: bool,
}

/// Detects the wide-kernel CPU features on the running machine (all `false`
/// off x86-64).
pub fn cpu_features() -> CpuFeatures {
    #[cfg(target_arch = "x86_64")]
    {
        CpuFeatures {
            popcnt: std::arch::is_x86_feature_detected!("popcnt"),
            avx2: std::arch::is_x86_feature_detected!("avx2"),
            avx512f: std::arch::is_x86_feature_detected!("avx512f"),
            avx512bw: std::arch::is_x86_feature_detected!("avx512bw"),
            avx512vpopcntdq: std::arch::is_x86_feature_detected!("avx512vpopcntdq"),
            avx512ifma: std::arch::is_x86_feature_detected!("avx512ifma"),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        CpuFeatures {
            popcnt: false,
            avx2: false,
            avx512f: false,
            avx512bw: false,
            avx512vpopcntdq: false,
            avx512ifma: false,
        }
    }
}

/// Evaluates one weight row against a tile of up to [`TILE`] activation rows
/// — the kernel form every tier takes, and the one the engine runs. `weights`
/// holds the row's 256-lane blocks (a conv filter, or a fully-connected
/// output row); `activations` holds `out.len()` members of as many blocks,
/// member-major: block `b` of member `m` is `activations[m * weights.len() +
/// b]`. Writes `out[m]`, the exact inner product of the row with member `m`.
///
/// Each block runs signed at the weight block's detected precision and at
/// the widest member's detected activation precision, signed when any
/// member's block has a negative lane: every plane above a block's own width
/// is zero or sign extension, so the products are exact. A zero weight
/// block is skipped, and so is a block whose every member is zero. Per
/// block, each weight plane is resolved and broadcast once for the whole
/// tile; each member keeps one accumulator across every block of the row,
/// reduced once, at the end. Dispatches to the fastest detected
/// [`KernelTier`]; all tiers are bit-identical.
///
/// **Accumulator bound.** A lane of a member's accumulator (a 64-bit vector
/// lane, or the scalar tiers' `i64`) gathers, per block, at most 256 one-bit
/// products per plane pair, each pair weighted by at most 2^30, so one block
/// moves it by less than 256 · (2^16 − 1)^2 < 2^40. A row of fewer than
/// 2^23 blocks (2.1·10^9 inputs) therefore never overflows it; VGGS fc6, the
/// widest zoo row, has 72. The `avx512-vpopcnt` tier keeps a member-block's
/// positive and negative partial sums apart; a 64-bit lane counts at most 64
/// one-bit products per plane pair, so each stays below
/// 64 · (2^16 − 1)^2 < 2^38 per lane. One `vpmadd52luq` product is a count
/// of at most 64 times a pair weight of at most 2^30, so it is below
/// 64 · 2^30 < 2^52 and the instruction's low 52 bits are the whole product.
///
/// Operands must be representable in 16-bit two's complement, as for any
/// packed block.
///
/// # Panics
///
/// Panics if `out.len() > TILE`, or if `activations.len()` is not
/// `out.len() * weights.len()`.
///
/// # Examples
///
/// ```
/// use loom_sim::loom::{reference_inner_product, tile_inner_products, WideBitplaneBlock};
///
/// let weights: Vec<i32> = (0..600).map(|i| (i % 13) - 6).collect();
/// let row: Vec<_> = weights.chunks(256).map(WideBitplaneBlock::pack).collect();
/// let members: Vec<Vec<i32>> = (0..3)
///     .map(|m| (0..600).map(|i| (i * (m + 2)) % 50).collect())
///     .collect();
/// let activations: Vec<_> = members
///     .iter()
///     .flat_map(|member| member.chunks(256).map(WideBitplaneBlock::pack))
///     .collect();
/// let mut out = [0i64; 3];
/// tile_inner_products(&row, &activations, &mut out);
/// for (member, &dot) in members.iter().zip(&out) {
///     assert_eq!(dot, reference_inner_product(&weights, member));
/// }
/// ```
pub fn tile_inner_products<W: WeightBlock>(
    weights: &[W],
    activations: &[WideBitplaneBlock],
    out: &mut [i64],
) {
    assert!(
        out.len() <= TILE,
        "a tile holds at most {TILE} members, got {}",
        out.len()
    );
    assert_eq!(
        activations.len(),
        out.len() * weights.len(),
        "every member needs one activation block per weight block"
    );
    // SAFETY: `active_kernel_tier` only selects tiers detected on this CPU.
    unsafe {
        tile_on(
            active_kernel_tier(),
            weights,
            activations,
            Schedule::Detected,
            out,
        )
    }
}

/// Computes the inner product of two wide blocks exactly the way
/// [`super::sip::serial_inner_product`] does at the given precisions — the
/// same weight-bit outer / activation-bit inner schedule, the same MSB
/// negations — with each plane pair evaluated 256 lanes at a time. This is
/// the one-block, one-member case of the tile kernel
/// ([`tile_inner_products`]), at explicit rather than detected precisions,
/// on the fastest detected [`KernelTier`]; all tiers are bit-identical.
///
/// The blocks may have different lane counts: missing lanes pack as zero
/// planes and contribute nothing.
pub fn wide_inner_product(
    weights: &WideBitplaneBlock,
    activations: &WideBitplaneBlock,
    pw: Precision,
    pa: Precision,
    weights_signed: bool,
    activations_signed: bool,
) -> i64 {
    fixed_inner_product(
        weights,
        activations,
        BlockPlan::new(pw, pa, weights_signed, activations_signed),
    )
}

/// [`wide_inner_product`] with the weight operand in compressed form: the
/// kernels read the stored planes in place (no re-densifying) and skip
/// elided all-zero planes in the weight-bit loop. Bit-identical to the dense
/// path on every kernel tier at any precision pair and signedness.
pub fn compressed_inner_product(
    weights: &CompressedWideBlock,
    activations: &WideBitplaneBlock,
    pw: Precision,
    pa: Precision,
    weights_signed: bool,
    activations_signed: bool,
) -> i64 {
    fixed_inner_product(
        weights,
        activations,
        BlockPlan::new(pw, pa, weights_signed, activations_signed),
    )
}

/// The 1 × 1 tile at a fixed plan, on the active tier.
fn fixed_inner_product<W: WeightBlock>(
    weights: &W,
    activations: &WideBitplaneBlock,
    plan: BlockPlan,
) -> i64 {
    let mut out = [0];
    // SAFETY: `active_kernel_tier` only selects tiers detected on this CPU.
    unsafe {
        tile_on(
            active_kernel_tier(),
            std::slice::from_ref(weights),
            std::slice::from_ref(activations),
            Schedule::Fixed(plan),
            &mut out,
        )
    };
    out[0]
}

/// Runs the tile kernel of `tier` under `schedule`. `activations` holds
/// `out.len() ≤ TILE` members of `weights.len()` blocks each, member-major.
///
/// # Safety
///
/// `tier` must be detected on this CPU ([`KernelTier::detected`]).
unsafe fn tile_on<W: WeightBlock>(
    tier: KernelTier,
    weights: &[W],
    activations: &[WideBitplaneBlock],
    schedule: Schedule,
    out: &mut [i64],
) {
    debug_assert!(tier.detected(), "{} is not detected", tier.name());
    debug_assert!(out.len() <= TILE && activations.len() == out.len() * weights.len());
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY (each arm): the caller guarantees `tier` is detected, which
        // implies the kernel's features.
        match tier {
            KernelTier::Avx512Vpopcnt => {
                return unsafe { tile_avx512_vpopcnt(weights, activations, schedule, out) };
            }
            KernelTier::Avx512 => {
                return unsafe { tile_avx512(weights, activations, schedule, out) };
            }
            KernelTier::Avx2 => return unsafe { tile_avx2(weights, activations, schedule, out) },
            KernelTier::Popcnt => {
                return unsafe { tile_popcnt(weights, activations, schedule, out) };
            }
            KernelTier::Portable => {}
        }
    }
    tile_scalar(weights, activations, schedule, out)
}

/// Convenience wrapper: packs both slices and takes their
/// [`wide_inner_product`]. Use the block form to amortise packing when an
/// operand is reused.
///
/// # Panics
///
/// Panics if the slices have different lengths or more than 256 lanes.
pub fn wide_inner_product_slices(
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
    wide_inner_product(
        &WideBitplaneBlock::pack(weights),
        &WideBitplaneBlock::pack(activations),
        pw,
        pa,
        weights_signed,
        activations_signed,
    )
}

#[cfg(test)]
mod tests {
    use super::sealed::WeightPlanes as _;
    use super::*;
    use crate::loom::sip::{reference_inner_product, serial_inner_product};
    use loom_model::fixed::{
        bit_plane, required_precision, required_unsigned_precision, sign_plane,
    };

    fn ragged_values(n: usize) -> Vec<i32> {
        (0..n).map(|i| (i as i32 * 977) % 30000 - 15000).collect()
    }

    /// Which lanes of [`values_of_width`] are negative.
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Signs {
        NonNegative,
        Negative,
        Mixed,
    }

    /// `lanes` values whose magnitude width (highest bit differing from the
    /// sign, plus one) is exactly `width`, with the given signs.
    fn values_of_width(lanes: usize, width: u8, signs: Signs) -> Vec<i32> {
        let limit = (1u32 << width) - 1;
        let mut state = 0x9e37_79b9u32 ^ (lanes as u32) << 8 ^ u32::from(width);
        (0..lanes)
            .map(|lane| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                let mut magnitude = (state >> 8) & limit;
                if lane == lanes / 2 && width > 0 {
                    magnitude |= 1 << (width - 1);
                }
                let negative = match signs {
                    Signs::NonNegative => false,
                    Signs::Negative => true,
                    Signs::Mixed => state >> 31 == 1,
                };
                if negative {
                    !(magnitude as i32)
                } else {
                    magnitude as i32
                }
            })
            .collect()
    }

    /// The tiers whose transposers this CPU can run.
    fn detected_tiers() -> impl Iterator<Item = KernelTier> {
        KERNEL_TIERS.into_iter().filter(|tier| tier.detected())
    }

    /// Packs `values` on the transposer of `tier`.
    ///
    /// # Panics
    ///
    /// Panics if `tier` is not detected on this CPU.
    fn pack_on(tier: KernelTier, values: &[i32]) -> WideBitplaneBlock {
        assert!(tier.detected(), "{} is not detected", tier.name());
        let mut block = WideBitplaneBlock::EMPTY;
        // SAFETY: `tier` was just checked to be detected.
        unsafe { block.pack_on(tier, values) };
        block
    }

    /// The plane-rescanning detector the magnitude width replaced, kept as
    /// the oracle.
    fn rescanned_precision(block: &WideBitplaneBlock, signed: bool) -> Precision {
        let highest = (0..MAX_PRECISION)
            .rev()
            .find(|&bit| block.magnitude_words(bit) != [0; WIDE_WORDS]);
        match highest {
            None => Precision::saturating(1),
            Some(bit) => Precision::saturating(bit + if signed { 2 } else { 1 }),
        }
    }

    /// The plane-rescanning zero detector, kept as the oracle.
    fn rescanned_zero(block: &WideBitplaneBlock) -> bool {
        block.signs == [0; WIDE_WORDS] && block.planes.iter().all(|p| *p == [0; WIDE_WORDS])
    }

    /// The per-block plane-pair loop the tile kernels replaced, kept as
    /// their oracle: four AND + popcount word operations per plane pair at
    /// the given precisions, with the activation MSB negated as a correction
    /// after an unsigned accumulation (subtracting the MSB term twice equals
    /// negating it).
    fn wide_product_core<W: WeightBlock>(
        w: &W,
        a: &WideBitplaneBlock,
        pw: usize,
        pa: usize,
        weights_signed: bool,
        activations_signed: bool,
    ) -> i64 {
        let pa_msb = pa - 1;
        let mut or_register = 0i64;
        for wb in 0..pw {
            let Some(wp) = w.plane(wb) else { continue };
            let count = |ap: &[u64; WIDE_WORDS]| {
                i64::from(
                    (wp[0] & ap[0]).count_ones()
                        + (wp[1] & ap[1]).count_ones()
                        + (wp[2] & ap[2]).count_ones()
                        + (wp[3] & ap[3]).count_ones(),
                )
            };
            let mut acc1 = 0i64;
            for (ab, ap) in a.planes[..pa].iter().enumerate() {
                acc1 += count(ap) << ab;
            }
            if activations_signed {
                acc1 -= count(&a.planes[pa_msb]) << (pa_msb + 1);
            }
            if weights_signed && wb == pw - 1 {
                acc1 = -acc1;
            }
            or_register += acc1 << wb;
        }
        or_register
    }

    /// The engine's per-block rule before tiles, kept as the oracle of the
    /// detected schedule: each (block, member) product at the weight block's
    /// and the member block's own detected precisions, signed when the
    /// member block has a negative lane, zero blocks skipped.
    fn per_block_oracle<W: WeightBlock>(row: &[W], member: &[WideBitplaneBlock]) -> i64 {
        row.iter()
            .zip(member)
            .filter(|(w, a)| !w.all_zero() && !a.is_zero())
            .map(|(w, a)| {
                let signed = a.has_negative_lanes();
                let pw = Precision::saturating(w.width() + 1).bits();
                let pa = a.detected_precision(signed).bits();
                wide_product_core(w, a, pw.into(), pa.into(), true, signed)
            })
            .sum()
    }

    /// The tile kernel of `tier` over the `activations.len() / row.len()`
    /// members of `activations`.
    ///
    /// # Panics
    ///
    /// Panics if `tier` is not detected on this CPU.
    fn tile_on_tier<W: WeightBlock>(
        tier: KernelTier,
        row: &[W],
        activations: &[WideBitplaneBlock],
        schedule: Schedule,
    ) -> Vec<i64> {
        assert!(tier.detected(), "{} is not detected", tier.name());
        let mut out = vec![0; activations.len() / row.len()];
        // SAFETY: `tier` was just checked to be detected.
        unsafe { tile_on(tier, row, activations, schedule, &mut out) };
        out
    }

    /// One block against one member on `tier` at fixed precisions: the 1 × 1
    /// tile the explicit-precision entry points run.
    fn fixed_on<W: WeightBlock>(
        tier: KernelTier,
        w: &W,
        a: &WideBitplaneBlock,
        pw: usize,
        pa: usize,
        weights_signed: bool,
        activations_signed: bool,
    ) -> i64 {
        let plan = BlockPlan {
            pw,
            pa,
            weights_signed,
            activations_signed,
        };
        tile_on_tier(
            tier,
            std::slice::from_ref(w),
            std::slice::from_ref(a),
            Schedule::Fixed(plan),
        )[0]
    }
    #[test]
    fn pack_roundtrips_across_word_boundaries() {
        for lanes in [0, 1, 63, 64, 65, 127, 128, 200, 255, 256] {
            let values = ragged_values(lanes);
            let block = WideBitplaneBlock::pack(&values);
            assert_eq!(block.lanes(), lanes);
            assert_eq!(block.unpack(), values, "{lanes} lanes");
        }
    }

    #[test]
    #[should_panic(expected = "at most 256 lanes")]
    fn pack_rejects_more_than_256_lanes() {
        WideBitplaneBlock::pack(&[0; 257]);
    }

    /// Every detected transposer tier packs exactly what the scalar
    /// transposer packs, over every ragged lane count, every magnitude width
    /// and both signs (each width and sign at the lane counts around word
    /// boundaries, one of them at every other lane count).
    #[test]
    fn scalar_pack_matches_dispatched_pack() {
        let every_case: Vec<(u8, Signs)> = (0..=MAX_PRECISION)
            .flat_map(|w| [Signs::NonNegative, Signs::Negative, Signs::Mixed].map(|s| (w, s)))
            .collect();
        for lanes in 1..=WIDE_LANES {
            let cases = if [1, 15, 16, 17, 63, 64, 65, 200, 255, 256].contains(&lanes) {
                every_case.clone()
            } else {
                vec![every_case[lanes % every_case.len()]]
            };
            for (width, signs) in cases {
                let values = values_of_width(lanes, width, signs);
                let scalar = pack_on(KernelTier::Portable, &values);
                assert_eq!(scalar.magnitude_width(), width, "{lanes} lanes {signs:?}");
                assert_eq!(scalar.unpack(), values);
                for tier in detected_tiers() {
                    assert_eq!(
                        pack_on(tier, &values),
                        scalar,
                        "{} {lanes} lanes width {width} {signs:?}",
                        tier.name()
                    );
                }
            }
        }
        let values = ragged_values(100);
        assert_eq!(
            WideBitplaneBlock::pack(&values),
            pack_on(KernelTier::Portable, &values)
        );
    }

    /// Re-packing a used block equals a fresh pack on every detected
    /// transposer: every packer writes every word, so nothing of a wide
    /// block with negative lanes survives a short, narrow re-pack.
    #[test]
    fn repacking_a_used_block_equals_a_fresh_pack() {
        for tier in detected_tiers() {
            for used in [Signs::Negative, Signs::Mixed] {
                let wide = values_of_width(WIDE_LANES, MAX_PRECISION, used);
                for lanes in [1, 17, 63, 65] {
                    for width in [0, 3, 8, 9] {
                        for signs in [Signs::NonNegative, Signs::Negative, Signs::Mixed] {
                            let values = values_of_width(lanes, width, signs);
                            let mut block = pack_on(tier, &wide);
                            // SAFETY: `detected_tiers` yields detected tiers.
                            unsafe { block.pack_on(tier, &values) };
                            assert_eq!(
                                block,
                                pack_on(KernelTier::Portable, &values),
                                "{} over {used:?}: {lanes} lanes width {width} {signs:?}",
                                tier.name()
                            );
                        }
                    }
                }
            }
        }
    }

    /// Each plane word equals the single-word transpose of its 64 lanes.
    #[test]
    fn wide_planes_match_narrow_blocks() {
        let values = ragged_values(256);
        let wide = WideBitplaneBlock::pack(&values);
        for word in 0..WIDE_WORDS {
            let narrow = &values[word * 64..(word + 1) * 64];
            for bit in 0..MAX_PRECISION {
                assert_eq!(
                    wide.plane_words(bit)[word],
                    bit_plane(narrow, bit),
                    "bit {bit}"
                );
            }
            assert_eq!(wide.sign_words()[word], sign_plane(narrow));
        }
    }

    #[test]
    fn wide_product_matches_serial_and_reference_on_ragged_lanes() {
        for lanes in [1, 16, 63, 64, 65, 130, 256] {
            let weights: Vec<i32> = (0..lanes).map(|i| (i % 255) - 127).collect();
            let activations: Vec<i32> = (0..lanes).map(|i| (i * 7) % 256).collect();
            let pw = required_precision(&weights);
            let pa = required_unsigned_precision(&activations);
            let wide = wide_inner_product_slices(&weights, &activations, pw, pa, true, false);
            assert_eq!(
                wide,
                serial_inner_product(&weights, &activations, pw, pa, true, false),
                "{lanes} lanes"
            );
            assert_eq!(wide, reference_inner_product(&weights, &activations));
        }
    }

    #[test]
    fn kernel_tiers_agree_where_detected() {
        let weights = ragged_values(256);
        let activations: Vec<i32> = ragged_values(256).iter().map(|v| v / 3).collect();
        let w = WideBitplaneBlock::pack(&weights);
        let a = WideBitplaneBlock::pack(&activations);
        let portable = wide_product_core(&w, &a, 16, 16, true, true);
        for tier in detected_tiers() {
            assert_eq!(
                fixed_on(tier, &w, &a, 16, 16, true, true),
                portable,
                "{}",
                tier.name()
            );
        }
        assert_eq!(portable, reference_inner_product(&weights, &activations));
    }

    #[test]
    fn avx512_tiers_match_portable_across_precisions_and_signedness() {
        // Sweeps every (pw, pa) pair under all four signedness combinations,
        // so the `avx512` kernel meets every quad remainder and the
        // `avx512-vpopcnt` kernel every pair count and top-plane case. Each
        // case runs one dense block against one member, the compressed form
        // of the block against the same member, and both forms against a
        // full tile of distinct members of every width and sign.
        let avx512_tiers: Vec<_> = [KernelTier::Avx512, KernelTier::Avx512Vpopcnt]
            .into_iter()
            .filter(|tier| tier.detected())
            .collect();
        for lanes in [1, 63, 130, 256] {
            let weights = ragged_values(lanes);
            let activations: Vec<i32> = ragged_values(lanes).iter().map(|v| v / 5).collect();
            let w = WideBitplaneBlock::pack(&weights);
            let c = CompressedWideBlock::compress(&w);
            let a = WideBitplaneBlock::pack(&activations);
            let members: Vec<_> = std::iter::once(a)
                .chain((1..TILE).map(|m| {
                    let width = (5 * m as u8 + 1) % (MAX_PRECISION + 1);
                    let signs = [Signs::Mixed, Signs::Negative, Signs::NonNegative][m % 3];
                    WideBitplaneBlock::pack(&values_of_width(lanes, width, signs))
                }))
                .collect();
            for pw in 1..=16usize {
                for pa in 1..=16usize {
                    for (ws, as_) in [(true, true), (true, false), (false, true), (false, false)] {
                        let plan = BlockPlan {
                            pw,
                            pa,
                            weights_signed: ws,
                            activations_signed: as_,
                        };
                        let expected: Vec<i64> = members
                            .iter()
                            .map(|member| wide_product_core(&w, member, pw, pa, ws, as_))
                            .collect();
                        let portable = expected[0];
                        for &tier in &avx512_tiers {
                            let case = format!("{} {lanes} lanes pw={pw} pa={pa}", tier.name());
                            assert_eq!(portable, fixed_on(tier, &w, &a, pw, pa, ws, as_), "{case}");
                            assert_eq!(
                                portable,
                                fixed_on(tier, &c, &a, pw, pa, ws, as_),
                                "compressed {case}"
                            );
                            assert_eq!(
                                tile_on_tier(
                                    tier,
                                    std::slice::from_ref(&w),
                                    &members,
                                    Schedule::Fixed(plan)
                                ),
                                expected,
                                "tile {plan:?} {case}"
                            );
                            assert_eq!(
                                tile_on_tier(
                                    tier,
                                    std::slice::from_ref(&c),
                                    &members,
                                    Schedule::Fixed(plan)
                                ),
                                expected,
                                "compressed tile {plan:?} {case}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Every tile shape the engine hands the kernel, on every detected tier:
    /// tiles of 1..=TILE members; rows of 1–4 blocks with a ragged last
    /// block; member widths that differ per block, so the shared-Pa rule
    /// runs; a zero weight block, an all-even block (plane 0 elided when
    /// compressed) and an all-zero member; compressed rows (with elided and
    /// sign-extension planes) and dense ones; and signed or non-negative
    /// weights and activations in all four combinations. Under the detected
    /// schedule each output equals the per-block oracle sum and the
    /// reference product; at fixed precisions (some below the operands'
    /// widths) each equals the per-block `wide_product_core` sum under all
    /// four signedness flags.
    #[test]
    fn tile_kernel_matches_per_block_products_on_every_tier() {
        let signs = |negative: bool| {
            if negative {
                Signs::Mixed
            } else {
                Signs::NonNegative
            }
        };
        for blocks in 1..=4usize {
            let row_len = (blocks - 1) * WIDE_LANES + [256, 1, 77, 200][blocks - 1];
            let lanes = |b: usize| WIDE_LANES.min(row_len - b * WIDE_LANES);
            for (weights_negative, acts_negative) in
                [(false, false), (false, true), (true, false), (true, true)]
            {
                let weights: Vec<i32> = (0..blocks)
                    .flat_map(|b| {
                        let mut values =
                            values_of_width(lanes(b), [7, 0, 5, 12][b], signs(weights_negative));
                        if b == 2 {
                            values.iter_mut().for_each(|v| *v &= !1);
                        }
                        values
                    })
                    .collect();
                let members: Vec<Vec<i32>> = (0..TILE)
                    .map(|m| {
                        (0..blocks)
                            .flat_map(|b| match m {
                                1 => vec![0; lanes(b)],
                                _ => values_of_width(
                                    lanes(b),
                                    ((m * 5 + b * 3) % 16) as u8,
                                    signs(acts_negative),
                                ),
                            })
                            .collect()
                    })
                    .collect();
                let dense: Vec<_> = weights
                    .chunks(WIDE_LANES)
                    .map(WideBitplaneBlock::pack)
                    .collect();
                let compressed: Vec<_> = dense.iter().map(CompressedWideBlock::compress).collect();
                let packed: Vec<Vec<_>> = members
                    .iter()
                    .map(|m| m.chunks(WIDE_LANES).map(WideBitplaneBlock::pack).collect())
                    .collect();
                for size in 1..=TILE {
                    let acts = packed[..size].concat();
                    let expected: Vec<i64> = packed[..size]
                        .iter()
                        .map(|member| per_block_oracle(&dense, member))
                        .collect();
                    for (member, &dot) in members.iter().zip(&expected) {
                        assert_eq!(dot, reference_inner_product(&weights, member));
                    }
                    for tier in detected_tiers() {
                        let case = format!(
                            "{} {blocks} blocks {size} members negative {weights_negative}/{acts_negative}",
                            tier.name()
                        );
                        assert_eq!(
                            tile_on_tier(tier, &dense, &acts, Schedule::Detected),
                            expected,
                            "dense {case}"
                        );
                        assert_eq!(
                            tile_on_tier(tier, &compressed, &acts, Schedule::Detected),
                            expected,
                            "compressed {case}"
                        );
                        for (weights_signed, activations_signed) in
                            [(true, true), (true, false), (false, true), (false, false)]
                        {
                            for (pw, pa) in [(16, 16), (3, 9)] {
                                let plan = BlockPlan {
                                    pw,
                                    pa,
                                    weights_signed,
                                    activations_signed,
                                };
                                let fixed: Vec<i64> = packed[..size]
                                    .iter()
                                    .map(|member| {
                                        dense
                                            .iter()
                                            .zip(member)
                                            .map(|(w, a)| {
                                                wide_product_core(
                                                    w,
                                                    a,
                                                    pw,
                                                    pa,
                                                    weights_signed,
                                                    activations_signed,
                                                )
                                            })
                                            .sum()
                                    })
                                    .collect();
                                assert_eq!(
                                    tile_on_tier(tier, &compressed, &acts, Schedule::Fixed(plan)),
                                    fixed,
                                    "{plan:?} {case}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// The cross-block accumulator's worst case, on every tier: VGGS fc6's
    /// 18432-input row (72 blocks) at Pw = Pa = 16, with operands -1 (every
    /// plane set) and -32768 (only the MSB plane set), in a full tile.
    #[test]
    fn cross_block_accumulator_holds_the_widest_row() {
        const INPUTS: usize = 18432;
        let tile = |weights: &[i32], activations: &[i32], schedule: Schedule| {
            let row: Vec<_> = weights
                .chunks(WIDE_LANES)
                .map(WideBitplaneBlock::pack)
                .collect();
            assert_eq!(row.len(), 72);
            let member: Vec<_> = activations
                .chunks(WIDE_LANES)
                .map(WideBitplaneBlock::pack)
                .collect();
            let acts = member.repeat(TILE);
            let expected = vec![reference_inner_product(weights, activations); TILE];
            for tier in detected_tiers() {
                assert_eq!(
                    tile_on_tier(tier, &row, &acts, schedule),
                    expected,
                    "{} {schedule:?}",
                    tier.name()
                );
            }
        };
        let full = Schedule::Fixed(BlockPlan {
            pw: 16,
            pa: 16,
            weights_signed: true,
            activations_signed: true,
        });
        for (w, a) in [(-1, -1), (-1, -32768), (-32768, -1), (-32768, -32768)] {
            tile(&vec![w; INPUTS], &vec![a; INPUTS], full);
        }
        // The detected schedule reaches Pw = Pa = 16 when every block mixes
        // both operands.
        let mixed: Vec<i32> = (0..INPUTS)
            .map(|i| if i % 3 == 0 { -1 } else { -32768 })
            .collect();
        assert_eq!(
            WideBitplaneBlock::pack(&mixed[..256])
                .detected_precision(true)
                .bits(),
            16
        );
        tile(&mixed, &mixed, Schedule::Detected);
        tile(&mixed, &vec![-32768; INPUTS], Schedule::Detected);
    }

    #[test]
    fn active_tier_is_detected_and_fastest() {
        let active = active_kernel_tier();
        assert!(active.detected());
        for tier in KERNEL_TIERS {
            if tier > active {
                assert!(
                    !tier.detected(),
                    "{} beats active {}",
                    tier.name(),
                    active.name()
                );
            }
        }
        // The tier names are stable identifiers for the bench JSON.
        let names: Vec<_> = KERNEL_TIERS.iter().map(|t| t.name()).collect();
        assert_eq!(
            names,
            ["portable", "popcnt", "avx2", "avx512", "avx512-vpopcnt"]
        );
        let features = cpu_features();
        // The portable tier never depends on features; vector tiers imply
        // their feature bits.
        assert!(KernelTier::Portable.detected());
        assert_eq!(KernelTier::Avx2.detected(), features.avx2);
        assert_eq!(
            KernelTier::Avx512.detected(),
            features.avx512f && features.avx512bw
        );
        assert_eq!(
            KernelTier::Avx512Vpopcnt.detected(),
            features.avx512f
                && features.avx512bw
                && features.avx512vpopcntdq
                && features.avx512ifma
        );
    }

    #[test]
    fn mismatched_lane_counts_treat_missing_lanes_as_zero() {
        let weights = WideBitplaneBlock::pack(&ragged_values(200));
        let activations = WideBitplaneBlock::pack(&ragged_values(70));
        let expected = reference_inner_product(&ragged_values(200)[..70], &ragged_values(70));
        assert_eq!(
            wide_inner_product(
                &weights,
                &activations,
                Precision::FULL,
                Precision::FULL,
                true,
                true
            ),
            expected
        );
    }

    #[test]
    fn detected_precision_matches_vec_detectors() {
        for tier in detected_tiers() {
            for lanes in [1, 5, 64, 77, 200, 256] {
                for width in 0..=MAX_PRECISION {
                    for signs in [Signs::NonNegative, Signs::Negative, Signs::Mixed] {
                        let values = values_of_width(lanes, width, signs);
                        let block = pack_on(tier, &values);
                        let case = format!("{} {lanes} lanes width {width} {signs:?}", tier.name());
                        assert_eq!(block.detected_precision(true), required_precision(&values));
                        assert_eq!(
                            block.detected_precision(true),
                            rescanned_precision(&block, true),
                            "{case}"
                        );
                        if signs == Signs::NonNegative {
                            assert_eq!(
                                block.detected_precision(false),
                                required_unsigned_precision(&values),
                                "{case}"
                            );
                            assert_eq!(
                                block.detected_precision(false),
                                rescanned_precision(&block, false),
                                "{case}"
                            );
                        }
                    }
                }
            }
            // Bits beyond the 16 packed planes never count.
            for values in [
                &[1 << 20, 3][..],
                &[-(1 << 20)],
                &[i32::MIN, i32::MAX],
                &[1 << 16],
            ] {
                let block = pack_on(tier, values);
                for signed in [true, false] {
                    assert_eq!(
                        block.detected_precision(signed),
                        rescanned_precision(&block, signed),
                        "{} {values:?}",
                        tier.name()
                    );
                }
            }
        }
        for lanes in [1, 5, 64, 77, 256] {
            let values = ragged_values(lanes);
            let block = WideBitplaneBlock::pack(&values);
            assert_eq!(block.detected_precision(true), required_precision(&values));
            let magnitudes: Vec<i32> = values.iter().map(|v| v.abs() & 0x7fff).collect();
            let block = WideBitplaneBlock::pack(&magnitudes);
            assert_eq!(
                block.detected_precision(false),
                required_unsigned_precision(&magnitudes)
            );
        }
    }

    #[test]
    fn zero_blocks_are_flagged() {
        assert!(WideBitplaneBlock::pack(&[0; 100]).is_zero());
        assert!(WideBitplaneBlock::EMPTY.is_zero());
        assert!(!WideBitplaneBlock::pack(&[0, 0, 1]).is_zero());
        assert!(!WideBitplaneBlock::pack(&[-1]).is_zero());
        for tier in detected_tiers() {
            for lanes in [1, 17, 64, 65, 200, 256] {
                let zeros = vec![0; lanes];
                assert!(pack_on(tier, &zeros).is_zero(), "{} {lanes}", tier.name());
                // One non-zero lane anywhere, including a ragged tail's last
                // lane. A value whose only set bits lie above the 16 packed
                // planes packs as zero, as the rescan sees it.
                for lane in [0, lanes / 2, lanes - 1] {
                    for value in [1, -1, 1 << 15, -(1 << 15), 1 << 16] {
                        let mut values = zeros.clone();
                        values[lane] = value;
                        let block = pack_on(tier, &values);
                        assert_eq!(
                            block.is_zero(),
                            rescanned_zero(&block),
                            "{} {lanes} lanes, {value} at {lane}",
                            tier.name()
                        );
                        assert_eq!(block.is_zero(), value == 1 << 16);
                    }
                }
            }
        }
    }

    #[test]
    fn compressed_block_round_trips_exactly() {
        for lanes in [0, 1, 63, 64, 65, 130, 255, 256] {
            let values = ragged_values(lanes);
            let dense = WideBitplaneBlock::pack(&values);
            let compressed = CompressedWideBlock::compress(&dense);
            assert_eq!(compressed.decompress(), dense, "{lanes} lanes");
            assert_eq!(compressed.lanes(), lanes);
            assert_eq!(compressed.is_zero(), dense.is_zero());
            for signed in [true, false] {
                assert_eq!(
                    compressed.detected_precision(signed),
                    dense.detected_precision(signed),
                    "{lanes} lanes signed={signed}"
                );
            }
        }
    }

    #[test]
    fn compressed_block_elides_adversarial_planes() {
        // All-even weights: plane 0 is all zeros and must be elided.
        let evens: Vec<i32> = (0..256).map(|i| (i % 40) * 2 - 38).collect();
        let dense = WideBitplaneBlock::pack(&evens);
        let c = CompressedWideBlock::compress(&dense);
        assert_eq!(c.plane(0), None);
        assert_eq!(c.decompress(), dense);
        // All -1: every plane is pure sign extension — nothing is stored.
        let dense = WideBitplaneBlock::pack(&[-1; 256]);
        let c = CompressedWideBlock::compress(&dense);
        assert_eq!(c.planes().stored_planes().len(), 0);
        assert_eq!(c.decompress(), dense);
        assert!(!c.is_zero());
        // All zero: nothing stored, block flagged zero.
        let c = CompressedWideBlock::compress(&WideBitplaneBlock::pack(&[0; 100]));
        assert!(c.is_zero());
        assert_eq!(c.planes().stored_planes().len(), 0);
    }

    #[test]
    fn compressed_product_matches_dense_across_tiers_and_precisions() {
        // The compressed weight path must be bit-identical to the dense path
        // on every kernel, at every (pw, pa) pair (so both the elided-plane
        // skip and the sign-extension resolution are exercised below, at, and
        // above the detected width), under all four signedness combinations.
        for lanes in [1, 63, 130, 256] {
            let weights = ragged_values(lanes);
            let activations: Vec<i32> = ragged_values(lanes).iter().map(|v| v / 5).collect();
            let w = WideBitplaneBlock::pack(&weights);
            let c = CompressedWideBlock::compress(&w);
            let a = WideBitplaneBlock::pack(&activations);
            for pw in 1..=16usize {
                for pa in 1..=16usize {
                    for (ws, as_) in [(true, true), (true, false), (false, true), (false, false)] {
                        let dense = wide_product_core(&w, &a, pw, pa, ws, as_);
                        assert_eq!(
                            dense,
                            wide_product_core(&c, &a, pw, pa, ws, as_),
                            "oracle {lanes} lanes pw={pw} pa={pa}"
                        );
                        for tier in detected_tiers() {
                            assert_eq!(
                                dense,
                                fixed_on(tier, &c, &a, pw, pa, ws, as_),
                                "{} {lanes} lanes pw={pw} pa={pa}",
                                tier.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn compressed_inner_product_matches_dispatched_dense() {
        let weights = ragged_values(256);
        let activations: Vec<i32> = ragged_values(256).iter().map(|v| v / 3).collect();
        let w = WideBitplaneBlock::pack(&weights);
        let c = CompressedWideBlock::compress(&w);
        let a = WideBitplaneBlock::pack(&activations);
        let pw = required_precision(&weights);
        let pa = required_precision(&activations);
        assert_eq!(
            compressed_inner_product(&c, &a, pw, pa, true, true),
            wide_inner_product(&w, &a, pw, pa, true, true),
        );
        assert_eq!(
            compressed_inner_product(&c, &a, pw, pa, true, true),
            reference_inner_product(&weights, &activations),
        );
    }

    /// The magnitude view is each bit plane XOR the sign plane: set where a
    /// bit differs from the lane's sign.
    #[test]
    fn magnitude_words_fold_like_the_narrow_detector() {
        let values = vec![3, -100, 0, 17, -1];
        let wide = WideBitplaneBlock::pack(&values);
        for bit in 0..MAX_PRECISION {
            assert_eq!(
                wide.magnitude_words(bit)[0],
                bit_plane(&values, bit) ^ sign_plane(&values)
            );
        }
    }
}
