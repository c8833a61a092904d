//! `im2col` lowering of convolutions to matrix form.
//!
//! Both accelerators consume convolutions as a sequence of inner products: one
//! per (filter, window) pair, each of length `weights_per_filter`. Lowering the
//! input activations into a `windows × weights_per_filter` matrix makes the
//! convolutional and fully-connected data paths identical, which is exactly how
//! the functional Loom model in `loom-sim` processes both layer types.

use crate::layer::ConvSpec;
use crate::tensor::Tensor3;

/// The activations of one convolution window, flattened in `CHW` kernel order
/// (channel-major, then kernel row, then kernel column) so that they align with
/// [`crate::tensor::Tensor4::filter`].
pub type WindowPatch = Vec<i32>;

/// Lowers the input of a convolution to a `windows × weights_per_filter`
/// matrix, one row per output spatial position in row-major (`oy`, `ox`) order.
///
/// Out-of-bounds positions introduced by padding contribute zeros.
///
/// # Panics
///
/// Panics if `input` does not match the spec's input shape.
///
/// # Examples
///
/// ```
/// use loom_model::im2col::im2col;
/// use loom_model::layer::ConvSpec;
/// use loom_model::tensor::{Shape3, Tensor3};
///
/// let spec = ConvSpec::simple(1, 3, 3, 1, 2);
/// let input = Tensor3::from_vec(Shape3::new(1, 3, 3), (1..=9).collect()).unwrap();
/// let patches = im2col(&spec, &input);
/// assert_eq!(patches.len(), 4);                 // 2x2 output positions
/// assert_eq!(patches[0], vec![1, 2, 4, 5]);     // top-left window
/// ```
pub fn im2col(spec: &ConvSpec, input: &Tensor3) -> Vec<WindowPatch> {
    assert_eq!(input.shape(), spec.input_shape(), "input shape mismatch");
    let group_in = spec.in_channels / spec.groups;
    let mut patches = Vec::with_capacity(spec.windows());
    for oy in 0..spec.out_height() {
        for ox in 0..spec.out_width() {
            patches.push(window_patch(spec, input, oy, ox, 0, group_in));
        }
    }
    patches
}

/// Extracts the window patch for output position `(oy, ox)` restricted to the
/// channel range `[c_base, c_base + c_count)`. Grouped convolutions use this to
/// give each filter group its own slice of the input channels.
///
/// This is the reference form, one padded read per value. The oracles use it
/// ([`conv_via_im2col`] here, the bit-serial conv in `loom-sim`), so they do
/// not share the row copies of [`window_patch_into`].
pub fn window_patch(
    spec: &ConvSpec,
    input: &Tensor3,
    oy: usize,
    ox: usize,
    c_base: usize,
    c_count: usize,
) -> WindowPatch {
    let mut patch = Vec::with_capacity(c_count * spec.kernel_h * spec.kernel_w);
    for c in 0..c_count {
        for ky in 0..spec.kernel_h {
            for kx in 0..spec.kernel_w {
                let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                patch.push(input.get_padded(c_base + c, iy, ix));
            }
        }
    }
    patch
}

/// Appends the window patch for output position `(oy, ox)` to `patch` instead
/// of allocating a fresh vector — the arena form the functional datapaths use
/// on their hot path (one scratch buffer per worker, cleared per window).
///
/// Equal to [`window_patch`], but each (channel, kernel row) run is copied as
/// one slice, and a 1×1 window is one strided walk down the channels. Kernel
/// rows and columns that fall in the padding stay zero.
pub fn window_patch_into(
    spec: &ConvSpec,
    input: &Tensor3,
    oy: usize,
    ox: usize,
    c_base: usize,
    c_count: usize,
    patch: &mut Vec<i32>,
) {
    let shape = input.shape();
    let (kh, kw) = (spec.kernel_h, spec.kernel_w);
    let y0 = (oy * spec.stride) as isize - spec.padding as isize;
    let x0 = (ox * spec.stride) as isize - spec.padding as isize;
    // The kernel rows and columns inside the input: `[ky0, ky1)`, `[kx0, kx1)`.
    let inside = |origin: isize, kernel: usize, extent: usize| {
        let lo = (-origin).clamp(0, kernel as isize);
        let hi = (extent as isize - origin).clamp(lo, kernel as isize);
        (lo as usize, hi as usize)
    };
    let (ky0, ky1) = inside(y0, kh, shape.h);
    let (kx0, kx1) = inside(x0, kw, shape.w);
    let start = patch.len();
    patch.resize(start + c_count * kh * kw, 0);
    let out = &mut patch[start..];
    if ky0 == ky1 || kx0 == kx1 {
        return;
    }
    let data = input.as_slice();
    let channel_len = shape.h * shape.w;
    // Every position read below lies inside the input: the first is kernel
    // position (ky0, kx0) of channel `c_base`.
    let first = c_base * channel_len
        + (y0 + ky0 as isize) as usize * shape.w
        + (x0 + kx0 as isize) as usize;
    if kh == 1 && kw == 1 {
        for (c, value) in out.iter_mut().enumerate() {
            *value = data[first + c * channel_len];
        }
        return;
    }
    // One (patch offset, input offset) pair per in-bounds run.
    let runs = (0..c_count).flat_map(|c| {
        (ky0..ky1).map(move |ky| {
            (
                (c * kh + ky) * kw + kx0,
                first + c * channel_len + (ky - ky0) * shape.w,
            )
        })
    });
    match kx1 - kx0 {
        2 => copy_runs::<2>(out, data, 2, runs),
        3 => copy_runs::<3>(out, data, 3, runs),
        4 => copy_runs::<4>(out, data, 4, runs),
        5 => copy_runs::<5>(out, data, 5, runs),
        7 => copy_runs::<7>(out, data, 7, runs),
        len => copy_runs::<0>(out, data, len, runs),
    }
}

/// Copies `len` values from `data` into `out` at each (patch offset, input
/// offset) pair of `runs`. A nonzero `N` is the run length as a constant, so
/// each copy is a few moves rather than a `memcpy` call.
#[inline(always)]
fn copy_runs<const N: usize>(
    out: &mut [i32],
    data: &[i32],
    len: usize,
    runs: impl Iterator<Item = (usize, usize)>,
) {
    let len = if N > 0 { N } else { len };
    for (dst, src) in runs {
        out[dst..dst + len].copy_from_slice(&data[src..src + len]);
    }
}

/// Computes a convolution through the lowered form: for every window row of the
/// im2col matrix, takes the inner product with every filter. The result is laid
/// out as `filters × windows` (filter-major) to match
/// [`crate::reference::conv_forward`].
///
/// This exists as an independent second implementation of convolution used to
/// cross-check the direct reference implementation.
pub fn conv_via_im2col(
    spec: &ConvSpec,
    input: &Tensor3,
    weights: &crate::tensor::Tensor4,
) -> Vec<i64> {
    assert_eq!(
        weights.shape(),
        spec.weight_shape(),
        "weight shape mismatch"
    );
    let group_in = spec.in_channels / spec.groups;
    let group_out = spec.filters / spec.groups;
    let windows = spec.windows();
    let mut output = vec![0i64; spec.filters * windows];
    for k in 0..spec.filters {
        let group = k / group_out;
        let c_base = group * group_in;
        let filter = weights.filter(k);
        let mut w_idx = 0usize;
        for oy in 0..spec.out_height() {
            for ox in 0..spec.out_width() {
                let patch = window_patch(spec, input, oy, ox, c_base, group_in);
                let acc: i64 = patch
                    .iter()
                    .zip(filter.iter())
                    .map(|(&a, &w)| i64::from(a) * i64::from(w))
                    .sum();
                output[k * windows + w_idx] = acc;
                w_idx += 1;
            }
        }
    }
    output
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::conv_forward;
    use crate::tensor::{Shape3, Shape4, Tensor4};

    #[test]
    fn im2col_row_count_matches_windows() {
        let spec = ConvSpec {
            in_channels: 2,
            in_height: 5,
            in_width: 5,
            filters: 3,
            kernel_h: 3,
            kernel_w: 3,
            stride: 2,
            padding: 1,
            groups: 1,
        };
        let input = Tensor3::zeros(spec.input_shape());
        let patches = im2col(&spec, &input);
        assert_eq!(patches.len(), spec.windows());
        assert_eq!(patches[0].len(), spec.weights_per_filter());
    }

    #[test]
    fn im2col_padding_contributes_zeros() {
        let spec = ConvSpec {
            in_channels: 1,
            in_height: 2,
            in_width: 2,
            filters: 1,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: 1,
            groups: 1,
        };
        let input = Tensor3::from_vec(Shape3::new(1, 2, 2), vec![1, 2, 3, 4]).unwrap();
        let patches = im2col(&spec, &input);
        // Top-left window: only the bottom-right 2x2 of the kernel overlaps the image.
        assert_eq!(patches[0], vec![0, 0, 0, 0, 1, 2, 0, 3, 4]);
    }

    /// The row-copy gather appends exactly the per-element reference patch,
    /// for every window of random specs: kernels 1–11 (square or not),
    /// strides 1–4, padding 0–3, inputs with `in_height != in_width`, and
    /// each filter group's channel range.
    #[test]
    fn window_patch_into_matches_the_per_element_gather() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let mut checked = 0;
        while checked < 300 {
            let groups = 1 + draw(3);
            let kernel_h = 1 + draw(11);
            let kernel_w = if draw(2) == 0 { kernel_h } else { 1 + draw(11) };
            let spec = ConvSpec {
                in_channels: groups * (1 + draw(3)),
                in_height: 1 + draw(16),
                in_width: 1 + draw(16),
                filters: groups,
                kernel_h,
                kernel_w,
                stride: 1 + draw(4),
                padding: draw(4),
                groups,
            };
            if spec.in_height == spec.in_width || spec.validate().is_err() {
                continue;
            }
            checked += 1;
            let n = spec.input_shape().len();
            // Nonzero values, so a zero in a patch can only be padding.
            let input = Tensor3::from_vec(spec.input_shape(), (1..=n as i32).collect()).unwrap();
            let group_in = spec.in_channels / groups;
            for oy in 0..spec.out_height() {
                for ox in 0..spec.out_width() {
                    for g in 0..groups {
                        let mut patch = vec![-1; 3];
                        window_patch_into(
                            &spec,
                            &input,
                            oy,
                            ox,
                            g * group_in,
                            group_in,
                            &mut patch,
                        );
                        assert_eq!(patch[..3], [-1; 3], "{spec:?}");
                        assert_eq!(
                            patch[3..],
                            window_patch(&spec, &input, oy, ox, g * group_in, group_in),
                            "{spec:?} window ({oy}, {ox}) group {g}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn conv_via_im2col_matches_direct_reference() {
        let spec = ConvSpec {
            in_channels: 3,
            in_height: 7,
            in_width: 6,
            filters: 4,
            kernel_h: 3,
            kernel_w: 2,
            stride: 2,
            padding: 1,
            groups: 1,
        };
        let n_in = spec.input_shape().len();
        let n_w = spec.weight_shape().len();
        let input = Tensor3::from_vec(
            spec.input_shape(),
            (0..n_in).map(|i| (i as i32 * 7919 % 251) - 125).collect(),
        )
        .unwrap();
        let weights = Tensor4::from_vec(
            spec.weight_shape(),
            (0..n_w).map(|i| (i as i32 * 104729 % 61) - 30).collect(),
        )
        .unwrap();
        assert_eq!(
            conv_via_im2col(&spec, &input, &weights),
            conv_forward(&spec, &input, &weights)
        );
    }

    #[test]
    fn conv_via_im2col_matches_direct_reference_grouped() {
        let spec = ConvSpec {
            in_channels: 4,
            in_height: 5,
            in_width: 5,
            filters: 6,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: 0,
            groups: 2,
        };
        let input = Tensor3::from_vec(
            spec.input_shape(),
            (0..spec.input_shape().len())
                .map(|i| (i as i32 % 17) - 8)
                .collect(),
        )
        .unwrap();
        let weights = Tensor4::from_vec(
            Shape4::new(6, 2, 3, 3),
            (0..6 * 2 * 9).map(|i| (i % 9) - 4).collect(),
        )
        .unwrap();
        assert_eq!(
            conv_via_im2col(&spec, &input, &weights),
            conv_forward(&spec, &input, &weights)
        );
    }
}
