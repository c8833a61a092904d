//! Layer descriptors: the geometry every simulator consumes.
//!
//! A layer descriptor captures exactly the information Loom's and DPNN's cycle
//! models need — input/output shapes, filter dimensions, strides, padding —
//! together with derived quantities such as the multiply-accumulate (MAC)
//! count, number of windows, and weights per filter.

use crate::tensor::{Shape3, Shape4};
use std::fmt;

/// Error produced when a layer's geometry is internally inconsistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerError {
    message: String,
}

impl LayerError {
    fn new(message: impl Into<String>) -> Self {
        LayerError {
            message: message.into(),
        }
    }
}

impl fmt::Display for LayerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid layer geometry: {}", self.message)
    }
}

impl std::error::Error for LayerError {}

/// A convolutional layer (CVL in the paper's terminology).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvSpec {
    /// Input channels.
    pub in_channels: usize,
    /// Input spatial height.
    pub in_height: usize,
    /// Input spatial width.
    pub in_width: usize,
    /// Number of filters (output channels).
    pub filters: usize,
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
    /// Number of filter groups (AlexNet-style grouped convolution). Each group
    /// sees `in_channels / groups` channels and produces `filters / groups`
    /// outputs.
    pub groups: usize,
}

impl ConvSpec {
    /// Creates a convolution spec with stride 1, no padding and a single group.
    pub fn simple(
        in_channels: usize,
        in_height: usize,
        in_width: usize,
        filters: usize,
        kernel: usize,
    ) -> Self {
        ConvSpec {
            in_channels,
            in_height,
            in_width,
            filters,
            kernel_h: kernel,
            kernel_w: kernel,
            stride: 1,
            padding: 0,
            groups: 1,
        }
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns an error if any dimension is zero, the stride is zero, groups do
    /// not divide channels/filters, or the kernel does not fit the padded input.
    pub fn validate(&self) -> Result<(), LayerError> {
        if self.in_channels == 0
            || self.in_height == 0
            || self.in_width == 0
            || self.filters == 0
            || self.kernel_h == 0
            || self.kernel_w == 0
        {
            return Err(LayerError::new("dimensions must be non-zero"));
        }
        if self.stride == 0 {
            return Err(LayerError::new("stride must be non-zero"));
        }
        if self.groups == 0 {
            return Err(LayerError::new("groups must be non-zero"));
        }
        if !self.in_channels.is_multiple_of(self.groups)
            || !self.filters.is_multiple_of(self.groups)
        {
            return Err(LayerError::new(
                "groups must divide both input channels and filters",
            ));
        }
        if self.kernel_h > self.in_height + 2 * self.padding
            || self.kernel_w > self.in_width + 2 * self.padding
        {
            return Err(LayerError::new("kernel larger than padded input"));
        }
        Ok(())
    }

    /// Output spatial height.
    pub fn out_height(&self) -> usize {
        (self.in_height + 2 * self.padding - self.kernel_h) / self.stride + 1
    }

    /// Output spatial width.
    pub fn out_width(&self) -> usize {
        (self.in_width + 2 * self.padding - self.kernel_w) / self.stride + 1
    }

    /// Output shape (`filters × out_h × out_w`).
    pub fn output_shape(&self) -> Shape3 {
        Shape3::new(self.filters, self.out_height(), self.out_width())
    }

    /// Input shape.
    pub fn input_shape(&self) -> Shape3 {
        Shape3::new(self.in_channels, self.in_height, self.in_width)
    }

    /// Weight tensor shape (per-group channel count).
    pub fn weight_shape(&self) -> Shape4 {
        Shape4::new(
            self.filters,
            self.in_channels / self.groups,
            self.kernel_h,
            self.kernel_w,
        )
    }

    /// Number of sliding windows = output spatial positions.
    pub fn windows(&self) -> usize {
        self.out_height() * self.out_width()
    }

    /// Inner-product length for one output: weights per filter.
    pub fn weights_per_filter(&self) -> usize {
        (self.in_channels / self.groups) * self.kernel_h * self.kernel_w
    }

    /// Total number of weights in the layer.
    pub fn total_weights(&self) -> u64 {
        self.filters as u64 * self.weights_per_filter() as u64
    }

    /// Total number of input activations.
    pub fn total_input_activations(&self) -> u64 {
        self.input_shape().len() as u64
    }

    /// Total number of output activations.
    pub fn total_output_activations(&self) -> u64 {
        self.output_shape().len() as u64
    }

    /// Total multiply-accumulate operations for the layer.
    pub fn macs(&self) -> u64 {
        self.windows() as u64 * self.filters as u64 * self.weights_per_filter() as u64
    }
}

/// A fully-connected layer (FCL).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FcSpec {
    /// Number of input activations.
    pub in_features: usize,
    /// Number of output activations.
    pub out_features: usize,
}

impl FcSpec {
    /// Creates a fully-connected spec.
    pub fn new(in_features: usize, out_features: usize) -> Self {
        FcSpec {
            in_features,
            out_features,
        }
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns an error if either dimension is zero.
    pub fn validate(&self) -> Result<(), LayerError> {
        if self.in_features == 0 || self.out_features == 0 {
            return Err(LayerError::new("dimensions must be non-zero"));
        }
        Ok(())
    }

    /// Total number of weights.
    pub fn total_weights(&self) -> u64 {
        self.in_features as u64 * self.out_features as u64
    }

    /// Weight tensor shape: `out × in × 1 × 1`, so the row-major `out × in`
    /// matrix is the tensor's backing slice.
    pub fn weight_shape(&self) -> Shape4 {
        Shape4::new(self.out_features, self.in_features, 1, 1)
    }

    /// Total multiply-accumulate operations (one weight, one MAC: no reuse).
    pub fn macs(&self) -> u64 {
        self.total_weights()
    }
}

/// A spatial max-pooling layer. Loom and DPNN both handle pooling with
/// dedicated comparators; it contributes activation traffic but no MACs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PoolSpec {
    /// Input channels (= output channels).
    pub channels: usize,
    /// Input spatial height.
    pub in_height: usize,
    /// Input spatial width.
    pub in_width: usize,
    /// Pooling window size.
    pub window: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding (same on all sides). Padded positions never win the max
    /// (they are skipped, not treated as zeros), matching the padded pooling
    /// layers of GoogLeNet's inception modules.
    pub padding: usize,
}

impl PoolSpec {
    /// Creates an unpadded pooling spec.
    pub fn new(
        channels: usize,
        in_height: usize,
        in_width: usize,
        window: usize,
        stride: usize,
    ) -> Self {
        PoolSpec {
            channels,
            in_height,
            in_width,
            window,
            stride,
            padding: 0,
        }
    }

    /// Sets the padding. The inception modules pool with a 3×3 window at
    /// stride 1 and padding 1, which preserves the spatial size so the branch
    /// can be concatenated with the convolutional branches.
    ///
    /// # Panics
    ///
    /// Panics if `padding >= window` (a window could then cover padding only,
    /// leaving its output undefined).
    pub fn with_padding(mut self, padding: usize) -> Self {
        assert!(
            padding < self.window,
            "pool padding must be smaller than the window"
        );
        self.padding = padding;
        self
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns an error if the padding is not smaller than the window (a
    /// window could then cover padding only, leaving its output undefined).
    pub fn validate(&self) -> Result<(), LayerError> {
        if self.padding >= self.window {
            return Err(LayerError::new(
                "pool padding must be smaller than the window",
            ));
        }
        Ok(())
    }

    /// Output spatial height.
    pub fn out_height(&self) -> usize {
        let padded = self.in_height + 2 * self.padding;
        if padded < self.window {
            1
        } else {
            (padded - self.window) / self.stride + 1
        }
    }

    /// Output spatial width.
    pub fn out_width(&self) -> usize {
        let padded = self.in_width + 2 * self.padding;
        if padded < self.window {
            1
        } else {
            (padded - self.window) / self.stride + 1
        }
    }

    /// Output shape.
    pub fn output_shape(&self) -> Shape3 {
        Shape3::new(self.channels, self.out_height(), self.out_width())
    }

    /// Input shape.
    pub fn input_shape(&self) -> Shape3 {
        Shape3::new(self.channels, self.in_height, self.in_width)
    }
}

/// The kind of a network layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// A convolutional layer.
    Conv(ConvSpec),
    /// A fully-connected layer.
    FullyConnected(FcSpec),
    /// A max-pooling layer.
    MaxPool(PoolSpec),
}

impl LayerKind {
    /// Total MACs for the layer (zero for pooling).
    pub fn macs(&self) -> u64 {
        match self {
            LayerKind::Conv(c) => c.macs(),
            LayerKind::FullyConnected(f) => f.macs(),
            LayerKind::MaxPool(_) => 0,
        }
    }

    /// Whether the layer performs inner products (convolutional or
    /// fully-connected) and therefore occupies the accelerator datapath.
    pub fn is_compute(&self) -> bool {
        matches!(self, LayerKind::Conv(_) | LayerKind::FullyConnected(_))
    }

    /// Whether this is a convolutional layer.
    pub fn is_conv(&self) -> bool {
        matches!(self, LayerKind::Conv(_))
    }

    /// Whether this is a fully-connected layer.
    pub fn is_fc(&self) -> bool {
        matches!(self, LayerKind::FullyConnected(_))
    }

    /// Shape of the layer's weight tensor (empty for pooling).
    pub fn weight_shape(&self) -> Shape4 {
        match self {
            LayerKind::Conv(c) => c.weight_shape(),
            LayerKind::FullyConnected(f) => f.weight_shape(),
            LayerKind::MaxPool(_) => Shape4::new(0, 0, 0, 0),
        }
    }

    /// Number of weights stored for the layer.
    pub fn total_weights(&self) -> u64 {
        match self {
            LayerKind::Conv(c) => c.total_weights(),
            LayerKind::FullyConnected(f) => f.total_weights(),
            LayerKind::MaxPool(_) => 0,
        }
    }

    /// Number of input activations consumed by the layer.
    pub fn total_input_activations(&self) -> u64 {
        match self {
            LayerKind::Conv(c) => c.total_input_activations(),
            LayerKind::FullyConnected(f) => f.in_features as u64,
            LayerKind::MaxPool(p) => p.input_shape().len() as u64,
        }
    }

    /// Number of output activations produced by the layer.
    pub fn total_output_activations(&self) -> u64 {
        match self {
            LayerKind::Conv(c) => c.total_output_activations(),
            LayerKind::FullyConnected(f) => f.out_features as u64,
            LayerKind::MaxPool(p) => p.output_shape().len() as u64,
        }
    }
}

/// A named network layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layer {
    /// Human-readable layer name (e.g. `conv2`, `fc6`, `inception_4a`).
    pub name: String,
    /// Geometry.
    pub kind: LayerKind,
}

impl Layer {
    /// Creates a convolutional layer.
    pub fn conv(name: impl Into<String>, spec: ConvSpec) -> Self {
        Layer {
            name: name.into(),
            kind: LayerKind::Conv(spec),
        }
    }

    /// Creates a fully-connected layer.
    pub fn fully_connected(name: impl Into<String>, spec: FcSpec) -> Self {
        Layer {
            name: name.into(),
            kind: LayerKind::FullyConnected(spec),
        }
    }

    /// Creates a max-pooling layer.
    pub fn max_pool(name: impl Into<String>, spec: PoolSpec) -> Self {
        Layer {
            name: name.into(),
            kind: LayerKind::MaxPool(spec),
        }
    }

    /// Total MACs for the layer.
    pub fn macs(&self) -> u64 {
        self.kind.macs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_output_dims_stride_and_padding() {
        // AlexNet conv1: 3x227x227, 96 filters of 11x11, stride 4 -> 55x55.
        let c = ConvSpec {
            in_channels: 3,
            in_height: 227,
            in_width: 227,
            filters: 96,
            kernel_h: 11,
            kernel_w: 11,
            stride: 4,
            padding: 0,
            groups: 1,
        };
        c.validate().unwrap();
        assert_eq!(c.out_height(), 55);
        assert_eq!(c.out_width(), 55);
        assert_eq!(c.windows(), 3025);
        assert_eq!(c.weights_per_filter(), 363);
        assert_eq!(c.macs(), 3025 * 96 * 363);
    }

    #[test]
    fn conv_grouped_reduces_weights() {
        // AlexNet conv2 style: 96 in, 256 out, 5x5, 2 groups.
        let c = ConvSpec {
            in_channels: 96,
            in_height: 27,
            in_width: 27,
            filters: 256,
            kernel_h: 5,
            kernel_w: 5,
            stride: 1,
            padding: 2,
            groups: 2,
        };
        c.validate().unwrap();
        assert_eq!(c.out_height(), 27);
        assert_eq!(c.weights_per_filter(), 48 * 25);
        assert_eq!(c.total_weights(), 256 * 48 * 25);
    }

    #[test]
    fn conv_validation_failures() {
        let mut c = ConvSpec::simple(3, 8, 8, 4, 3);
        c.stride = 0;
        assert!(c.validate().is_err());
        let mut c = ConvSpec::simple(3, 8, 8, 4, 3);
        c.groups = 2; // does not divide 3 channels
        assert!(c.validate().is_err());
        let c = ConvSpec::simple(3, 2, 2, 4, 3);
        assert!(c.validate().is_err());
        let c = ConvSpec::simple(0, 8, 8, 4, 3);
        assert!(c.validate().is_err());
    }

    #[test]
    fn fc_macs_equal_weights() {
        let f = FcSpec::new(4096, 1000);
        f.validate().unwrap();
        assert_eq!(f.total_weights(), 4096 * 1000);
        assert_eq!(f.macs(), f.total_weights());
        assert!(FcSpec::new(0, 10).validate().is_err());
    }

    #[test]
    fn pool_output_dims() {
        let p = PoolSpec::new(96, 55, 55, 3, 2);
        assert_eq!(p.out_height(), 27);
        assert_eq!(p.out_width(), 27);
        assert_eq!(p.output_shape().len(), 96 * 27 * 27);
    }

    #[test]
    fn padded_pool_output_dims() {
        // GoogLeNet stem: 3x3 stride-2 pad-1 pooling halves 112 -> 56.
        let p = PoolSpec::new(64, 112, 112, 3, 2).with_padding(1);
        assert_eq!((p.out_height(), p.out_width()), (56, 56));
        // Inception pool branch: 3x3 stride-1 pad-1 preserves the size.
        let p = PoolSpec::new(192, 28, 28, 3, 1).with_padding(1);
        assert_eq!((p.out_height(), p.out_width()), (28, 28));
    }

    #[test]
    #[should_panic(expected = "pool padding")]
    fn pool_padding_must_be_smaller_than_window() {
        let _ = PoolSpec::new(4, 8, 8, 2, 2).with_padding(2);
    }

    #[test]
    fn pool_validate_catches_field_level_overpadding() {
        // The builder asserts, but the fields are public; validate() is the
        // net that Network::new and GraphBuilder::build use.
        let mut p = PoolSpec::new(4, 8, 8, 2, 2);
        assert!(p.validate().is_ok());
        p.padding = 2;
        assert!(p.validate().is_err());
    }

    #[test]
    fn layer_kind_helpers() {
        let conv = LayerKind::Conv(ConvSpec::simple(3, 8, 8, 4, 3));
        let fc = LayerKind::FullyConnected(FcSpec::new(10, 5));
        let pool = LayerKind::MaxPool(PoolSpec::new(3, 8, 8, 2, 2));
        assert!(conv.is_conv() && conv.is_compute());
        assert!(fc.is_fc() && fc.is_compute());
        assert!(!pool.is_compute());
        assert_eq!(pool.macs(), 0);
        assert_eq!(fc.total_weights(), 50);
        assert_eq!(conv.total_input_activations(), 3 * 8 * 8);
        assert_eq!(conv.total_output_activations(), 4 * 6 * 6);
    }
}
