//! Reference (golden) integer implementations of the compute layers.
//!
//! These straightforward implementations define *the* correct answer: the
//! bit-serial functional model in `loom-sim` and every scheduling optimisation
//! must produce results identical to them. They are deliberately simple —
//! quadruple loops, no blocking — so that their correctness is evident by
//! inspection. Max pooling is the exception: every executor path runs it, so
//! it folds rows into column maxima, and its tests pin it to the per-element
//! loop.

use crate::layer::{ConvSpec, FcSpec, PoolSpec};
use crate::tensor::{Tensor3, Tensor4};

/// Computes a convolutional layer over integer inputs and weights.
///
/// Accumulation is performed in `i64` and the result is returned without any
/// re-quantization; callers (the quantized inference pipeline) decide how to
/// scale outputs back down.
///
/// # Panics
///
/// Panics if the tensor shapes do not match the spec.
pub fn conv_forward(spec: &ConvSpec, input: &Tensor3, weights: &Tensor4) -> Vec<i64> {
    assert_eq!(input.shape(), spec.input_shape(), "input shape mismatch");
    assert_eq!(
        weights.shape(),
        spec.weight_shape(),
        "weight shape mismatch"
    );

    let out_h = spec.out_height();
    let out_w = spec.out_width();
    let group_in = spec.in_channels / spec.groups;
    let group_out = spec.filters / spec.groups;
    let mut output = vec![0i64; spec.filters * out_h * out_w];

    for k in 0..spec.filters {
        let group = k / group_out;
        let c_base = group * group_in;
        for oy in 0..out_h {
            for ox in 0..out_w {
                let mut acc = 0i64;
                for c in 0..group_in {
                    for ky in 0..spec.kernel_h {
                        for kx in 0..spec.kernel_w {
                            let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                            let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                            let a = input.get_padded(c_base + c, iy, ix);
                            let w = weights.get(k, c, ky, kx);
                            acc += i64::from(a) * i64::from(w);
                        }
                    }
                }
                output[(k * out_h + oy) * out_w + ox] = acc;
            }
        }
    }
    output
}

/// Computes a fully-connected layer: `out[k] = sum_i weights[k][i] * input[i]`.
///
/// # Panics
///
/// Panics if `input.len() != spec.in_features` or the weight matrix does not
/// have `out_features * in_features` entries.
pub fn fc_forward(spec: &FcSpec, input: &[i32], weights: &[i32]) -> Vec<i64> {
    assert_eq!(input.len(), spec.in_features, "input length mismatch");
    assert_eq!(
        weights.len(),
        spec.in_features * spec.out_features,
        "weight length mismatch"
    );
    let mut output = vec![0i64; spec.out_features];
    for (k, out) in output.iter_mut().enumerate() {
        let row = &weights[k * spec.in_features..(k + 1) * spec.in_features];
        *out = row
            .iter()
            .zip(input.iter())
            .map(|(&w, &a)| i64::from(w) * i64::from(a))
            .sum();
    }
    output
}

/// Computes a max-pooling layer. Positions introduced by padding are skipped
/// (never treated as zeros), so every output is the max of real inputs only.
///
/// Each output row folds its window's input rows into one row of column
/// maxima, then reads every window of that row as a plain slice of it. The
/// columns outside the input (the padding, and whatever a clipped window
/// reaches past it) hold `i32::MIN`, so they never win a max.
///
/// # Panics
///
/// Panics if the input shape does not match the spec.
pub fn max_pool_forward(spec: &PoolSpec, input: &Tensor3) -> Tensor3 {
    assert_eq!(input.shape(), spec.input_shape(), "input shape mismatch");
    let (in_h, in_w) = (spec.in_height, spec.in_width);
    let (out_h, out_w) = (spec.out_height(), spec.out_width());
    let (window, stride, pad) = (spec.window, spec.stride, spec.padding);
    let span = (in_w + 2 * pad).max((out_w - 1) * stride + window);
    let mut columns = vec![i32::MIN; span];
    let mut output = Vec::with_capacity(spec.channels * out_h * out_w);
    for plane in input.as_slice().chunks_exact(in_h * in_w) {
        for oy in 0..out_h {
            // The window's input rows, clipped to the input: never empty,
            // because the padding is smaller than the window.
            let top = (oy * stride).saturating_sub(pad);
            let bottom = (oy * stride + window - pad).min(in_h);
            let maxima = &mut columns[pad..pad + in_w];
            maxima.copy_from_slice(&plane[top * in_w..][..in_w]);
            for row in plane[(top + 1) * in_w..bottom * in_w].chunks_exact(in_w) {
                for (m, &v) in maxima.iter_mut().zip(row) {
                    *m = (*m).max(v);
                }
            }
            // Window `ox` is `columns[ox * stride..][..window]`: fold each
            // window's `d`-th column into the output row, one pass per `d`.
            let start = output.len();
            output.resize(start + out_w, i32::MIN);
            let row = &mut output[start..];
            for d in 0..window {
                // Stride 1 gets its own loop: it vectorizes, a strided
                // iterator does not.
                if stride == 1 {
                    for (o, &v) in row.iter_mut().zip(&columns[d..]) {
                        *o = (*o).max(v);
                    }
                } else {
                    for (o, &v) in row.iter_mut().zip(columns[d..].iter().step_by(stride)) {
                        *o = (*o).max(v);
                    }
                }
            }
        }
    }
    Tensor3::from_vec(spec.output_shape(), output).expect("one value per output")
}

/// Applies the ReLU non-linearity in place.
pub fn relu_in_place(values: &mut [i32]) {
    for v in values {
        *v = (*v).max(0);
    }
}

/// Applies ReLU to a 64-bit accumulator vector, producing 64-bit outputs.
pub fn relu_i64(values: &[i64]) -> Vec<i64> {
    values.iter().map(|&v| v.max(0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::{Shape3, Shape4};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn conv_identity_kernel_passes_input_through() {
        // 1x1 kernel with weight 1 on a single channel reproduces the input.
        let spec = ConvSpec::simple(1, 3, 3, 1, 1);
        let input = Tensor3::from_vec(Shape3::new(1, 3, 3), (1..=9).collect()).unwrap();
        let weights = Tensor4::from_vec(Shape4::new(1, 1, 1, 1), vec![1]).unwrap();
        let out = conv_forward(&spec, &input, &weights);
        assert_eq!(out, (1..=9).map(i64::from).collect::<Vec<_>>());
    }

    #[test]
    fn conv_sums_over_kernel_and_channels() {
        // 2 channels, 2x2 input, 2x2 kernel of ones: output = sum of all 8 inputs.
        let spec = ConvSpec::simple(2, 2, 2, 1, 2);
        let input = Tensor3::from_vec(Shape3::new(2, 2, 2), vec![1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        let weights = Tensor4::from_vec(Shape4::new(1, 2, 2, 2), vec![1; 8]).unwrap();
        let out = conv_forward(&spec, &input, &weights);
        assert_eq!(out, vec![36]);
    }

    #[test]
    fn conv_respects_stride_and_padding() {
        let spec = ConvSpec {
            in_channels: 1,
            in_height: 3,
            in_width: 3,
            filters: 1,
            kernel_h: 3,
            kernel_w: 3,
            stride: 2,
            padding: 1,
            groups: 1,
        };
        let input = Tensor3::from_vec(Shape3::new(1, 3, 3), vec![1; 9]).unwrap();
        let weights = Tensor4::from_vec(Shape4::new(1, 1, 3, 3), vec![1; 9]).unwrap();
        let out = conv_forward(&spec, &input, &weights);
        // Output is 2x2; corner windows see 4 valid pixels each.
        assert_eq!(out, vec![4, 4, 4, 4]);
    }

    #[test]
    fn conv_grouped_keeps_groups_independent() {
        // 2 channels, 2 filters, 2 groups: filter 0 sees only channel 0, filter 1 only channel 1.
        let spec = ConvSpec {
            in_channels: 2,
            in_height: 1,
            in_width: 1,
            filters: 2,
            kernel_h: 1,
            kernel_w: 1,
            stride: 1,
            padding: 0,
            groups: 2,
        };
        let input = Tensor3::from_vec(Shape3::new(2, 1, 1), vec![10, 100]).unwrap();
        let weights = Tensor4::from_vec(Shape4::new(2, 1, 1, 1), vec![1, 1]).unwrap();
        let out = conv_forward(&spec, &input, &weights);
        assert_eq!(out, vec![10, 100]);
    }

    #[test]
    fn conv_negative_weights_accumulate_correctly() {
        let spec = ConvSpec::simple(1, 2, 2, 1, 2);
        let input = Tensor3::from_vec(Shape3::new(1, 2, 2), vec![3, -5, 7, 11]).unwrap();
        let weights = Tensor4::from_vec(Shape4::new(1, 1, 2, 2), vec![-1, 2, -3, 4]).unwrap();
        let out = conv_forward(&spec, &input, &weights);
        assert_eq!(out, vec![-3 - 10 - 21 + 44]);
    }

    #[test]
    fn fc_matrix_vector() {
        let spec = FcSpec::new(3, 2);
        let input = [1, 2, 3];
        let weights = [1, 0, 0, /* row 0 */ 0, 1, -1 /* row 1 */];
        let out = fc_forward(&spec, &input, &weights);
        assert_eq!(out, vec![1, -1]);
    }

    #[test]
    fn max_pool_takes_window_maximum() {
        let spec = PoolSpec::new(1, 4, 4, 2, 2);
        let input = Tensor3::from_vec(Shape3::new(1, 4, 4), (0..16).collect()).unwrap();
        let out = max_pool_forward(&spec, &input);
        assert_eq!(out.as_slice(), &[5, 7, 13, 15]);
    }

    #[test]
    fn padded_max_pool_skips_padding() {
        // 3x3 stride-1 pad-1 pooling on an all-negative input: padding must
        // never win the max, so every output stays negative.
        let spec = PoolSpec::new(1, 3, 3, 3, 1).with_padding(1);
        let input = Tensor3::from_vec(Shape3::new(1, 3, 3), vec![-9; 9]).unwrap();
        let out = max_pool_forward(&spec, &input);
        assert_eq!((spec.out_height(), spec.out_width()), (3, 3));
        assert!(out.as_slice().iter().all(|&v| v == -9));
    }

    /// The per-element loop [`max_pool_forward`] replaced, kept as its
    /// oracle: every window position checked against the input bounds.
    fn max_pool_oracle(spec: &PoolSpec, input: &Tensor3) -> Vec<i32> {
        let mut output = Vec::new();
        for c in 0..spec.channels {
            for oy in 0..spec.out_height() {
                for ox in 0..spec.out_width() {
                    let mut best = i32::MIN;
                    for wy in 0..spec.window {
                        for wx in 0..spec.window {
                            let iy = (oy * spec.stride + wy) as isize - spec.padding as isize;
                            let ix = (ox * spec.stride + wx) as isize - spec.padding as isize;
                            if iy >= 0
                                && ix >= 0
                                && (iy as usize) < spec.in_height
                                && (ix as usize) < spec.in_width
                            {
                                best = best.max(input.get(c, iy as usize, ix as usize));
                            }
                        }
                    }
                    output.push(best);
                }
            }
        }
        output
    }

    #[test]
    fn max_pool_matches_the_per_element_oracle() {
        // Windows 1-4, strides 1-3, every padding below the window, and
        // inputs from 1x1 up: small inputs clip windows on every side, and
        // mostly negative values make any padding that won a max visible.
        let mut rng = StdRng::seed_from_u64(5);
        let mut checked = 0;
        for window in 1..=4 {
            for stride in 1..=3 {
                for padding in 0..window {
                    for in_h in 1..=7 {
                        for in_w in 1..=7 {
                            let spec =
                                PoolSpec::new(2, in_h, in_w, window, stride).with_padding(padding);
                            let values = (0..2 * in_h * in_w)
                                .map(|_| rng.random_range(-60..20))
                                .collect();
                            let input = Tensor3::from_vec(spec.input_shape(), values).unwrap();
                            let out = max_pool_forward(&spec, &input);
                            assert_eq!(out.shape(), spec.output_shape(), "{spec:?}");
                            assert_eq!(out.as_slice(), max_pool_oracle(&spec, &input), "{spec:?}");
                            assert!(out.as_slice().iter().all(|&v| v > i32::MIN), "{spec:?}");
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(checked, 10 * 3 * 49);
    }

    #[test]
    fn relu_clamps_negatives() {
        let mut v = vec![-3, 0, 5];
        relu_in_place(&mut v);
        assert_eq!(v, vec![0, 0, 5]);
        assert_eq!(relu_i64(&[-1, 2]), vec![0, 2]);
    }
}
