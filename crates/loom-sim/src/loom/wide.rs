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
//! * **AVX-512 + `vpopcntdq`** — `_mm512_popcnt_epi64` counts a whole plane
//!   pair per instruction: two adjacent activation planes load with one
//!   512-bit read (the plane array is contiguous), AND against the weight
//!   plane broadcast once per block, and popcount per 64-bit lane; Horner
//!   steps weigh the plane pairs and the weight planes, and the odd planes'
//!   extra factor of two is applied once per output.
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
//! transpose sixteen lanes per `_mm512_test_epi32_mask` (masked loads for a
//! ragged tail), the AVX2 tier eight lanes per `_mm256_movemask_ps`, and the
//! others one bit at a time; all produce identical blocks. Every packer
//! first OR-folds `v ^ (v >> 31)` over the values. The fold's width is the
//! block's magnitude width: packing stops extracting planes there (every
//! higher plane of a two's-complement value equals its sign, so those planes
//! are filled with the sign words directly), and the block keeps it, so
//! [`WideBitplaneBlock::detected_precision`] and
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
        *self = Self::EMPTY;
        self.lanes = values.len();
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY (each arm): the caller guarantees `tier` is detected,
            // which implies its features; both AVX-512 tiers include
            // `avx512f`.
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
    block.width = magnitude_width(values);
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
    block.width = magnitude_width(values);
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

/// AVX-512F transpose: sixteen lanes per `_mm512_test_epi32_mask`, which
/// sets one mask bit per 32-bit lane whose target bit is set. Four 16-lane
/// loads cover a 64-lane plane word, so each word of each plane is written
/// once; a ragged tail loads through a lane mask (masked-off lanes read as
/// zero and never touch memory).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn pack_avx512(block: &mut WideBitplaneBlock, values: &[i32]) {
    use std::arch::x86_64::*;
    block.width = magnitude_width(values);
    let zero = _mm512_setzero_si512();
    for word in 0..values.len().div_ceil(64) {
        let mut quarters = [zero; 4];
        for (q, quarter) in quarters.iter_mut().enumerate() {
            let base = word * 64 + q * 16;
            if base >= values.len() {
                break;
            }
            let lanes = (values.len() - base).min(16);
            let mask = (u32::MAX >> (32 - lanes)) as __mmask16;
            *quarter = _mm512_maskz_loadu_epi32(mask, values.as_ptr().add(base).cast());
        }
        let mut signs = 0u64;
        for (q, &v) in quarters.iter().enumerate() {
            signs |= u64::from(_mm512_cmplt_epi32_mask(v, zero)) << (16 * q);
        }
        block.signs[word] = signs;
        for plane in 0..usize::from(block.width) {
            let bit = _mm512_set1_epi32(1 << plane);
            let mut bits = 0u64;
            for (q, &v) in quarters.iter().enumerate() {
                bits |= u64::from(_mm512_test_epi32_mask(v, bit)) << (16 * q);
            }
            block.planes[plane][word] = bits;
        }
    }
    fill_sign_planes(block);
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

/// AVX-512 `vpopcntdq` tile kernel: `_mm512_popcnt_epi64` counts each 64-bit
/// lane of the AND directly, with no nibble lookup or byte folding. Each
/// weight plane is broadcast into both halves of a zmm register once per
/// block for the whole tile. A member's activation planes load two per
/// 512-bit read, so lanes 0–3 count a pair's even plane and lanes 4–7 its
/// odd one; Horner steps weigh the pairs (shift by two) and the weight
/// planes (shift by one), and the odd planes' extra factor of two is applied
/// once per member, at the reduction. A member's accumulator carries its
/// signed partial sums (MSB negations applied in-vector) across every block
/// of the row and is reduced once, at the end. Kept as a separate function
/// (not a const-generic switch) so `avx512vpopcntdq` codegen never reaches
/// parts that only detect `avx512f`/`avx512bw`.
///
/// # Safety
///
/// The CPU must support `avx512f` and `avx512vpopcntdq`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
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
        // Each weight plane, broadcast once for the tile; elided planes
        // are left out of `live` and only shift the Horner sum.
        let mut planes = [zero; MAX_PRECISION as usize];
        let mut live = 0u32;
        for (wb, slot) in planes[..plan.pw].iter_mut().enumerate() {
            if let Some(plane) = w.plane(wb) {
                *slot = broadcast_plane_512(plane);
                live |= 1 << wb;
            }
        }
        let (pairs, odd) = (plan.pa / 2, plan.pa % 2 == 1);
        for (total, member) in totals.iter_mut().zip(activations.chunks_exact(blocks)) {
            let a = &member[b];
            let mut sum = zero;
            for wb in (0..plan.pw).rev() {
                sum = _mm512_add_epi64(sum, sum);
                if live >> wb & 1 == 0 {
                    continue;
                }
                let wz = planes[wb];
                let count = |ap| _mm512_popcnt_epi64(_mm512_and_si512(wz, ap));
                // Horner over the activation planes, top down, a pair per
                // step. The top plane is the single one of an odd count;
                // when the activations are signed it is the MSB, negated
                // (the upper half of the top pair for an even count).
                let mut pair = pairs;
                let mut acc = zero;
                if odd {
                    let counts = count(load_plane_single_512(a, plan.pa - 1));
                    acc = if plan.activations_signed {
                        _mm512_sub_epi64(zero, counts)
                    } else {
                        counts
                    };
                } else if plan.activations_signed {
                    pair -= 1;
                    let counts = count(load_plane_pair_512(a, 2 * pair));
                    acc = _mm512_mask_sub_epi64(counts, 0xf0, zero, counts);
                }
                while pair > 0 {
                    pair -= 1;
                    let counts = count(load_plane_pair_512(a, 2 * pair));
                    acc = _mm512_add_epi64(_mm512_slli_epi64::<2>(acc), counts);
                }
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
        // The odd planes sit one bit above their pair's even plane.
        *out = _mm512_reduce_add_epi64(_mm512_mask_add_epi64(total, 0xf0, total, total));
    }
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
    /// 512-bit `vpopcntdq` per-lane popcount (`avx512f` + `avx512vpopcntdq`).
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
                    && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
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
/// widest zoo row, has 72.
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
            let weights: Vec<i32> = (0..lanes).map(|i| (i as i32 % 255) - 127).collect();
            let activations: Vec<i32> = (0..lanes).map(|i| (i as i32 * 7) % 256).collect();
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
        // Sweeps every (pw, pa) pair so both the plane-pair remainder (odd
        // pa) and the four-plane fast path of the AVX-512 kernels are hit,
        // under all four signedness combinations.
        let avx512_tiers: Vec<_> = [KernelTier::Avx512, KernelTier::Avx512Vpopcnt]
            .into_iter()
            .filter(|tier| tier.detected())
            .collect();
        for lanes in [1, 63, 130, 256] {
            let weights = ragged_values(lanes);
            let activations: Vec<i32> = ragged_values(lanes).iter().map(|v| v / 5).collect();
            let w = WideBitplaneBlock::pack(&weights);
            let a = WideBitplaneBlock::pack(&activations);
            for pw in 1..=16usize {
                for pa in 1..=16usize {
                    for (ws, as_) in [(true, true), (true, false), (false, true), (false, false)] {
                        let portable = wide_product_core(&w, &a, pw, pa, ws, as_);
                        for &tier in &avx512_tiers {
                            assert_eq!(
                                portable,
                                fixed_on(tier, &w, &a, pw, pa, ws, as_),
                                "{} {lanes} lanes pw={pw} pa={pa}",
                                tier.name()
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
            features.avx512f && features.avx512vpopcntdq
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
