//! The paper's Table 3: average effective per-layer weight precisions for
//! groups of 16 weights, used by the Table 4 experiment ("for these estimates
//! we assume that performance scales linearly with weight precision").
//!
//! The values are fractional because they are averages over all groups of 16
//! weights in each layer.

/// Returns the Table 3 average effective weight precision of every
/// convolutional layer of `network`, in layer order, if the network is one of
/// the six evaluated ones.
pub fn effective_conv_weight_bits(network: &str) -> Option<Vec<f64>> {
    let values: &[f64] = match network.to_ascii_lowercase().as_str() {
        "nin" => &[
            8.85, 10.29, 10.21, 7.65, 9.13, 9.04, 7.63, 8.65, 8.62, 7.79, 7.96, 8.18,
        ],
        "alexnet" => &[8.36, 7.62, 7.62, 7.44, 7.55],
        // 6.28 is GoogLeNet's fourth conv layer in Table 3, not 2π.
        #[allow(clippy::approx_constant)]
        "googlenet" | "google" => &[
            6.19, 5.75, 6.80, 6.28, 5.34, 6.70, 6.31, 5.02, 5.49, 7.89, 4.83,
        ],
        "vggs" | "vgg-s" => &[9.94, 6.96, 8.53, 8.13, 8.10],
        "vggm" | "vgg-m" => &[9.87, 7.55, 8.52, 8.16, 8.14],
        "vgg19" | "vgg-19" => &[
            10.98, 9.81, 9.31, 9.09, 8.58, 8.04, 7.89, 7.86, 7.51, 7.20, 7.36, 7.47, 7.61, 7.66,
            7.66, 7.63,
        ],
        _ => return None,
    };
    Some(values.to_vec())
}

/// Estimated effective per-group weight precisions for the fully-connected
/// layers. Table 3 only reports convolutional layers; for the all-layer
/// estimates of Table 4 the fully-connected weight precisions are scaled by the
/// same effective/nominal ratio observed on the network's convolutional layers
/// (documented substitution — see `EXPERIMENTS.md`).
pub fn effective_fc_weight_bits(
    network: &str,
    nominal_fc_bits: &[u8],
    nominal_conv_bits: u8,
) -> Vec<f64> {
    let conv = match effective_conv_weight_bits(network) {
        Some(v) => v,
        None => return nominal_fc_bits.iter().map(|&b| f64::from(b)).collect(),
    };
    if conv.is_empty() || nominal_conv_bits == 0 {
        return nominal_fc_bits.iter().map(|&b| f64::from(b)).collect();
    }
    let mean_conv: f64 = conv.iter().sum::<f64>() / conv.len() as f64;
    let ratio = (mean_conv / f64::from(nominal_conv_bits)).min(1.0);
    nominal_fc_bits
        .iter()
        .map(|&b| (f64::from(b) * ratio).max(1.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_model::zoo;

    #[test]
    fn entry_counts_match_conv_layer_counts() {
        for net in zoo::all() {
            let bits = effective_conv_weight_bits(net.name()).unwrap();
            assert_eq!(bits.len(), net.conv_layers().count(), "{}", net.name());
        }
    }

    #[test]
    fn effective_bits_are_below_the_nominal_profiles() {
        use crate::profile::AccuracyTarget;
        use crate::table1;
        for net in zoo::NETWORK_NAMES {
            let nominal = table1::profile(net, AccuracyTarget::Lossless)
                .unwrap()
                .conv_weight;
            let effective = effective_conv_weight_bits(net).unwrap();
            let mean: f64 = effective.iter().sum::<f64>() / effective.len() as f64;
            assert!(
                mean < f64::from(nominal.bits()),
                "{net}: mean effective {mean} vs nominal {nominal}"
            );
        }
    }

    #[test]
    fn unknown_network_returns_none() {
        assert!(effective_conv_weight_bits("resnet").is_none());
    }

    #[test]
    fn fc_estimates_scale_by_conv_ratio() {
        let fc = effective_fc_weight_bits("AlexNet", &[10, 9, 9], 11);
        assert_eq!(fc.len(), 3);
        for (est, &nominal) in fc.iter().zip([10u8, 9, 9].iter()) {
            assert!(*est < f64::from(nominal));
            assert!(*est >= 1.0);
        }
        // Unknown network falls back to nominal.
        let fallback = effective_fc_weight_bits("resnet", &[10], 11);
        assert_eq!(fallback, vec![10.0]);
    }
}
