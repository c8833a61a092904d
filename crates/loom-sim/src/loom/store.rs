//! The process-wide pack-once weight store.
//!
//! Transposing and compressing a layer's weights into wide bit-plane blocks
//! is pure in the weights and the layer dimensions. The store keys each
//! packed container by the weight matrix's dimensions plus a 128-bit
//! [`fingerprint`] of its weights, so a network's layers are packed exactly
//! once per process and shared as [`std::sync::Arc`]'d planes.
//!
//! Every entry point gets a layer's rows from one resolver, `layer_rows`:
//! uncached network runs and the conformance harness (through the Loom
//! datapath), `NetworkEngine::prepack` and every `loom-serve` catalog build,
//! and `FunctionalLoom::run_conv` / `run_fc`. Its one rule: convolutions
//! always pack, and fully-connected layers pack up to 2^22 weights; above
//! that their rows stream through per-thread arenas on every dispatch, and
//! a prepared layer scans their Pw from the weights.
//!
//! The fingerprint reads the weights a 64-bit word at a time into four
//! independent lanes, each step a folded 64×64→128-bit multiply, with the
//! length mixed into the finalizer. It runs at memory speed, because every
//! uncached dispatch pays it. It is a non-cryptographic content key: a hit
//! is trusted without comparing the weights, so two layers with the same
//! dimensions whose fingerprints collided would share planes. Verifying hits,
//! or keying by identity instead of content, is still open (ROADMAP, "One
//! weight-preparation path").
//!
//! Entries are evicted FIFO beyond a fixed cap so long-running processes
//! (test harnesses, soak benches cycling synthetic layers) cannot grow the
//! store without bound. [`stats`] exposes pack/hit counters, cumulative pack
//! cost and compression footprint, and the current resident size — the bench
//! binaries report them and CI gates on repack avoidance.

use crate::loom::functional::{PackStats, PackedRows};
use loom_model::fixed::{required_precision, Precision};
use loom_model::layer::LayerKind;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock};

/// Maximum containers the store holds before FIFO eviction kicks in. Real
/// zoo networks hold well under this many compute layers; the cap only
/// bounds pathological churn (e.g. property tests generating fresh layers).
const MAX_ENTRIES: usize = 512;

/// Counters and footprints of the process-wide weight store.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WeightStoreStats {
    /// Convolution containers packed (store misses).
    pub conv_packs: u64,
    /// Convolution lookups served from the store.
    pub conv_hits: u64,
    /// Fully-connected containers packed (store misses).
    pub fc_packs: u64,
    /// Fully-connected lookups served from the store.
    pub fc_hits: u64,
    /// Containers evicted by the FIFO cap.
    pub evictions: u64,
    /// Containers currently resident.
    pub entries: u64,
    /// Approximate bytes currently resident.
    pub resident_bytes: u64,
    /// Cumulative pack cost and compression footprint over every pack.
    pub pack: PackStats,
}

impl WeightStoreStats {
    /// Total packs across layer kinds.
    pub fn packs(&self) -> u64 {
        self.conv_packs + self.fc_packs
    }

    /// Total hits across layer kinds.
    pub fn hits(&self) -> u64 {
        self.conv_hits + self.fc_hits
    }
}

/// A packed container's identity: its row count and row length (a conv's
/// filters × weights per filter, an FC layer's outputs × inputs) plus the
/// content fingerprint. Equal keys pack to identical blocks, whichever layer
/// kind asked first.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    dims: (usize, usize),
    hash: (u64, u64),
}

impl WeightStoreStats {
    /// Counts one lookup of a `layer`'s rows: a pack or a hit.
    fn count(&mut self, layer: &LayerKind, hit: bool) {
        let counter = match (layer.is_conv(), hit) {
            (true, false) => &mut self.conv_packs,
            (true, true) => &mut self.conv_hits,
            (false, false) => &mut self.fc_packs,
            (false, true) => &mut self.fc_hits,
        };
        *counter += 1;
    }
}

/// Start states of the fingerprint's four lanes.
const LANE_SEEDS: [u64; 4] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];

/// Odd per-lane multipliers, one per lane so equal words in different lanes
/// mix differently.
const LANE_MULTIPLIERS: [u64; 4] = [
    0x9e37_79b9_7f4a_7c15,
    0xc2b2_ae3d_27d4_eb4f,
    0x1656_67b1_9e37_79f9,
    0xd6e8_feb8_6659_fd93,
];

/// The high and low halves of the full 128-bit product, XORed together.
#[inline(always)]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

/// Two values as one little-endian 64-bit word.
#[inline(always)]
fn pair_word(lo: i32, hi: i32) -> u64 {
    u64::from(lo as u32) | u64::from(hi as u32) << 32
}

/// A 128-bit content fingerprint of `values`, read a 64-bit word (two
/// values) at a time. Words go round-robin to four independent lanes, so the
/// multiplies of one round overlap. Each step XORs the word into its lane and
/// takes a folded 64×64→128-bit multiply. The length is mixed into the
/// finalizer, so a trailing zero changes the fingerprint even though an odd
/// tail pads with zero.
///
/// It is a non-cryptographic content key, not a checksum: together with
/// the dimensions it makes accidental collisions vanishingly unlikely, but
/// a hit is not verified against the weights.
pub fn fingerprint(values: &[i32]) -> (u64, u64) {
    let mut lanes = LANE_SEEDS;
    let mut absorb = |lane: usize, word: u64| {
        lanes[lane] = folded_multiply(lanes[lane] ^ word, LANE_MULTIPLIERS[lane]);
    };
    let rounds = values.chunks_exact(8);
    let tail = rounds.remainder();
    for round in rounds {
        for lane in 0..4 {
            absorb(lane, pair_word(round[2 * lane], round[2 * lane + 1]));
        }
    }
    for (lane, pair) in tail.chunks(2).enumerate() {
        absorb(lane, pair_word(pair[0], pair.get(1).copied().unwrap_or(0)));
    }
    let len = values.len() as u64;
    let [a, b, c, d] = lanes;
    let left = folded_multiply(a ^ LANE_SEEDS[2], b ^ LANE_MULTIPLIERS[2]);
    let right = folded_multiply(c ^ LANE_SEEDS[3], d ^ LANE_MULTIPLIERS[3]);
    (
        folded_multiply(left ^ len, right ^ LANE_MULTIPLIERS[0]),
        folded_multiply(right ^ len, left ^ LANE_MULTIPLIERS[1]),
    )
}

/// The store proper — kept as a plain struct so eviction can be unit-tested
/// on a local instance with a small cap.
struct Store {
    cap: usize,
    entries: HashMap<Key, Arc<PackedRows>>,
    order: VecDeque<Key>,
    stats: WeightStoreStats,
}

impl Store {
    fn new(cap: usize) -> Self {
        Store {
            cap,
            entries: HashMap::new(),
            order: VecDeque::new(),
            stats: WeightStoreStats::default(),
        }
    }

    fn insert(&mut self, key: Key, entry: Arc<PackedRows>) {
        self.stats.resident_bytes += entry.approx_bytes() as u64;
        self.order.push_back(key.clone());
        self.entries.insert(key, entry);
        while self.entries.len() > self.cap {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            if let Some(evicted) = self.entries.remove(&oldest) {
                self.stats.resident_bytes -= evicted.approx_bytes() as u64;
                self.stats.evictions += 1;
            }
        }
        self.stats.entries = self.entries.len() as u64;
    }
}

fn global() -> &'static Mutex<Store> {
    static STORE: OnceLock<Mutex<Store>> = OnceLock::new();
    STORE.get_or_init(|| Mutex::new(Store::new(MAX_ENTRIES)))
}

/// Fully-connected layers above this many weights are not packed: their rows
/// stream through a per-thread arena on every dispatch. A VGG-19-class `fc6`
/// (~100M weights) would pin hundreds of megabytes of bit-plane blocks, while
/// everything up to a few million weights (every reduced network and MLP
/// head, AlexNet's and VGG-S's `fc8`, GoogLeNet's `fc`) packs comfortably.
const FC_PREPACK_MAX_WEIGHTS: usize = 1 << 22;

/// One compute layer's weights as the wide datapath reads them: the packed
/// rows and the weight precision Pw that sets the layer's cycles.
#[derive(Clone)]
pub(crate) struct PreparedLayer {
    /// The packed rows: a convolution's filters or a fully-connected layer's
    /// output rows. `None` only for a fully-connected layer above the packing
    /// cap, whose rows stream per dispatch.
    pub(crate) rows: Option<Arc<PackedRows>>,
    /// Recorded by the packed rows, or scanned once from the weights when
    /// there are none.
    pub(crate) pw: Precision,
}

impl PreparedLayer {
    /// Resolves `layer`'s packed rows ([`layer_rows`], whose panics it
    /// shares) and its Pw.
    pub(crate) fn new(layer: &LayerKind, weights: &[i32]) -> Self {
        let rows = layer_rows(layer, weights);
        let pw = rows
            .as_ref()
            .map_or_else(|| required_precision(weights), |rows| rows.pw());
        PreparedLayer { rows, pw }
    }
}

/// A compute layer's packed, compressed rows (a convolution's filters in
/// filter-major order, a fully-connected layer's output rows), from the store
/// or packed into it. This is the one place a layer's weights meet the store,
/// for every entry point: `None` only for a fully-connected layer above the
/// packing cap, whose rows stream instead.
///
/// # Panics
///
/// Panics if the weight count does not match the layer, or if the layer is
/// a pooling layer (which has no weights).
pub(crate) fn layer_rows(layer: &LayerKind, weights: &[i32]) -> Option<Arc<PackedRows>> {
    let (row_len, count) = match layer {
        LayerKind::Conv(spec) => (spec.weights_per_filter(), spec.total_weights()),
        LayerKind::FullyConnected(spec) => (spec.in_features, spec.total_weights()),
        LayerKind::MaxPool(_) => panic!("pooling layers have no weights"),
    };
    assert_eq!(weights.len() as u64, count, "weight count mismatch");
    let streamed = !layer.is_conv() && weights.len() > FC_PREPACK_MAX_WEIGHTS;
    (!streamed).then(|| packed(layer, weights, row_len))
}

/// `weights`, read as rows of `row_len`, packed — from the store when the
/// same (dimensions, weights) pair was packed before in this process, packed
/// and inserted otherwise.
fn packed(layer: &LayerKind, weights: &[i32], row_len: usize) -> Arc<PackedRows> {
    let key = Key {
        dims: (weights.len() / row_len, row_len),
        hash: fingerprint(weights),
    };
    {
        let mut store = global().lock().expect("weight store poisoned");
        if let Some(rows) = store.entries.get(&key) {
            let rows = Arc::clone(rows);
            store.stats.count(layer, true);
            return rows;
        }
    }
    // Pack outside the lock: layer packs are milliseconds on big networks and
    // must not serialize unrelated threads behind the store mutex.
    let rows = Arc::new(PackedRows::pack(weights, row_len));
    let mut store = global().lock().expect("weight store poisoned");
    store.stats.count(layer, false);
    store.stats.pack.add(&rows.stats());
    if let Some(existing) = store.entries.get(&key) {
        // Another thread packed the same layer concurrently; share theirs.
        return Arc::clone(existing);
    }
    store.insert(key, Arc::clone(&rows));
    rows
}

/// A snapshot of the store's counters and footprints.
pub fn stats() -> WeightStoreStats {
    global().lock().expect("weight store poisoned").stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_model::layer::{ConvSpec, FcSpec};

    fn conv_weights(spec: &ConvSpec, salt: i32) -> Vec<i32> {
        let n = spec.weight_shape().len() as i32;
        (0..n).map(|i| (i * 31 + salt) % 200 - 100).collect()
    }

    fn conv_planes(spec: &ConvSpec, weights: &[i32]) -> Arc<PackedRows> {
        layer_rows(&LayerKind::Conv(*spec), weights).expect("convolutions always pack")
    }

    fn fc_rows(spec: &FcSpec, weights: &[i32]) -> Arc<PackedRows> {
        layer_rows(&LayerKind::FullyConnected(*spec), weights).expect("under the packing cap")
    }

    /// Convolutions pack, fully-connected layers pack up to the cap and
    /// stream one weight beyond it, and Pw is the weights' required
    /// precision either way.
    #[test]
    fn resolver_packs_up_to_the_fc_cap_and_streams_beyond() {
        let spec = ConvSpec::simple(3, 6, 6, 4, 3);
        let weights = conv_weights(&spec, 90051);
        let conv = PreparedLayer::new(&LayerKind::Conv(spec), &weights);
        assert!(conv.rows.is_some());
        assert_eq!(conv.pw, required_precision(&weights));

        let fc_weights = |count: usize| -> Vec<i32> {
            let mut weights: Vec<i32> = (0..count as i32)
                .map(|i| (i * 7 + 90061) % 61 - 30)
                .collect();
            // The widest weight is the last one, in the last row's last block.
            weights[count - 1] = -3000;
            weights
        };
        let at_cap = FcSpec::new(1024, FC_PREPACK_MAX_WEIGHTS / 1024);
        let weights = fc_weights(FC_PREPACK_MAX_WEIGHTS);
        let packed = PreparedLayer::new(&LayerKind::FullyConnected(at_cap), &weights);
        assert!(packed.rows.is_some(), "a layer of exactly the cap packs");
        assert_eq!(packed.pw, required_precision(&weights));
        assert_eq!(packed.pw.bits(), 13);

        // 2^22 + 1 = 5 × 838861.
        let over_cap = FcSpec::new(5, (FC_PREPACK_MAX_WEIGHTS + 1) / 5);
        let weights = fc_weights(FC_PREPACK_MAX_WEIGHTS + 1);
        assert_eq!(weights.len(), over_cap.in_features * over_cap.out_features);
        let streamed = PreparedLayer::new(&LayerKind::FullyConnected(over_cap), &weights);
        assert!(streamed.rows.is_none(), "one weight more streams");
        assert_eq!(streamed.pw, required_precision(&weights));
        assert_eq!(streamed.pw.bits(), 13);
    }

    #[test]
    fn conv_lookups_share_one_packed_container() {
        let spec = ConvSpec::simple(3, 6, 6, 4, 3);
        // A salt no other test uses, so the entry is freshly packed here.
        let weights = conv_weights(&spec, 90001);
        let before = stats();
        let first = conv_planes(&spec, &weights);
        let second = conv_planes(&spec, &weights);
        assert!(Arc::ptr_eq(&first, &second), "second lookup must hit");
        let after = stats();
        assert!(after.conv_packs > before.conv_packs);
        assert!(after.conv_hits > before.conv_hits);
        assert!(after.pack.pack_nanos >= before.pack.pack_nanos);
        assert!(after.pack.dense_stream_bits > before.pack.dense_stream_bits);
        // Different weights are a different entry.
        let other = conv_planes(&spec, &conv_weights(&spec, 90002));
        assert!(!Arc::ptr_eq(&first, &other));
    }

    #[test]
    fn fc_lookups_share_one_packed_container() {
        let spec = FcSpec::new(40, 6);
        let weights: Vec<i32> = (0..240).map(|i| (i * 13 + 90011) % 101 - 50).collect();
        let first = fc_rows(&spec, &weights);
        let second = fc_rows(&spec, &weights);
        assert!(Arc::ptr_eq(&first, &second));
        let mut changed = weights.clone();
        changed[0] += 1;
        assert!(!Arc::ptr_eq(&first, &fc_rows(&spec, &changed)));
    }

    #[test]
    fn same_dims_different_content_do_not_collide() {
        let spec = ConvSpec::simple(2, 5, 5, 2, 3);
        let a = conv_planes(&spec, &conv_weights(&spec, 90021));
        let b = conv_planes(&spec, &conv_weights(&spec, 90022));
        assert!(!Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn eviction_is_fifo_and_keeps_accounting_consistent() {
        // Exercised on a local instance so the global store's entries (shared
        // with concurrently running tests) are untouched.
        let mut store = Store::new(2);
        for salt in 0..4 {
            let weights: Vec<i32> = (0..16).map(|i| i + salt).collect();
            let key = Key {
                dims: (2, 8),
                hash: fingerprint(&weights),
            };
            store.insert(key, Arc::new(PackedRows::pack(&weights, 8)));
        }
        assert_eq!(store.entries.len(), 2);
        assert_eq!(store.stats.entries, 2);
        assert_eq!(store.stats.evictions, 2);
        let resident: u64 = store
            .entries
            .values()
            .map(|rows| rows.approx_bytes() as u64)
            .sum();
        assert_eq!(store.stats.resident_bytes, resident);
    }

    #[test]
    fn content_hash_is_order_sensitive() {
        assert_ne!(fingerprint(&[1, 2, 3]), fingerprint(&[3, 2, 1]));
        assert_ne!(fingerprint(&[0]), fingerprint(&[0, 0]));
        assert_ne!(fingerprint(&[]), fingerprint(&[0]));
        // 37 values: four full rounds of eight plus a ragged, odd tail. The
        // probed indices cover both halves of a word, every lane, a later
        // round and the padded tail.
        let base: Vec<i32> = (0..37).map(|i| (i * 7919) % 4001 - 2000).collect();
        let reference = fingerprint(&base);
        for index in [0, 1, 2, 5, 7, 8, 19, 35, 36] {
            for bit in 0..32 {
                let mut flipped = base.clone();
                flipped[index] ^= 1 << bit;
                assert_ne!(
                    fingerprint(&flipped),
                    reference,
                    "bit {bit} of value {index}"
                );
            }
            // Values that agree in their low 16 bits.
            let mut high = base.clone();
            high[index] = high[index].wrapping_add(0x5a5a << 16);
            assert_ne!(fingerprint(&high), reference, "high half of value {index}");
        }
        for index in [0, 1, 6, 7, 15, 35] {
            let mut swapped = base.clone();
            swapped.swap(index, index + 1);
            assert_ne!(fingerprint(&swapped), reference, "swap at {index}");
        }
    }

    #[test]
    fn packed_rows_record_the_weights_precision() {
        // The widest value sits in the last, ragged block of a row, so a Pw
        // that skipped the tail would read narrower.
        let spec = FcSpec::new(300, 3);
        let mut weights: Vec<i32> = (0..900).map(|i| (i * 13 + 90031) % 31 - 15).collect();
        weights[2 * 300 + 290] = -700;
        let rows = fc_rows(&spec, &weights);
        assert_eq!(rows.pw(), required_precision(&weights));
        assert_eq!(rows.pw().bits(), 11);

        let spec = ConvSpec::simple(3, 6, 6, 4, 3);
        let weights = conv_weights(&spec, 90041);
        let filters = conv_planes(&spec, &weights);
        assert_eq!(filters.pw(), required_precision(&weights));
        let zeros = vec![0; spec.weight_shape().len()];
        assert_eq!(conv_planes(&spec, &zeros).pw().bits(), 1);
    }
}
