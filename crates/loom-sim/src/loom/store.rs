//! The process-wide pack-once weight store.
//!
//! Transposing and compressing a layer's weights into wide bit-plane blocks
//! is pure in the weights and the layer dimensions, yet before this store the
//! engine repeated it per `run_conv` call, per `NetworkEngine::prepack`, and
//! per conformance-harness backend. The store keys each packed container by
//! the weight matrix's dimensions plus a double-FNV content hash of its
//! weights, so a
//! network's filters are packed exactly once per process: `run_conv`, the
//! batched network engine, the datapath conformance harness and every
//! `loom-serve` catalog build share the same [`std::sync::Arc`]'d planes.
//!
//! Entries are evicted FIFO beyond a fixed cap so long-running processes
//! (test harnesses, soak benches cycling synthetic layers) cannot grow the
//! store without bound. [`stats`] exposes pack/hit counters, cumulative pack
//! cost and compression footprint, and the current resident size — the bench
//! binaries report them and CI gates on repack avoidance.

use crate::loom::functional::{PackStats, PackedRows};
use loom_model::layer::{ConvSpec, FcSpec};
use loom_model::tensor::Tensor4;
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
/// content hash. Equal keys pack to identical blocks, whichever layer kind
/// asked first.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    dims: (usize, usize),
    hash: (u64, u64),
}

/// Which counter pair a lookup updates.
#[derive(Clone, Copy)]
enum Kind {
    Conv,
    Fc,
}

impl WeightStoreStats {
    fn count(&mut self, kind: Kind, hit: bool) {
        let counter = match (kind, hit) {
            (Kind::Conv, false) => &mut self.conv_packs,
            (Kind::Conv, true) => &mut self.conv_hits,
            (Kind::Fc, false) => &mut self.fc_packs,
            (Kind::Fc, true) => &mut self.fc_hits,
        };
        *counter += 1;
    }
}

/// FNV-1a over the weight values; two independent seeds give a 128-bit
/// content fingerprint, which together with the dimension key makes
/// accidental collisions vanishingly unlikely.
fn fnv1a(values: &[i32], seed: u64) -> u64 {
    let mut h = seed;
    for &v in values {
        for b in (v as u32).to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn content_hash(values: &[i32]) -> (u64, u64) {
    (
        fnv1a(values, 0xcbf2_9ce4_8422_2325),
        fnv1a(values, 0x6c62_272e_07bb_0142),
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

/// A convolution's packed, compressed filter planes.
///
/// # Panics
///
/// Panics if the weights do not match the spec.
pub(crate) fn conv_planes(spec: &ConvSpec, weights: &Tensor4) -> Arc<PackedRows> {
    assert_eq!(
        weights.shape(),
        spec.weight_shape(),
        "weight shape mismatch"
    );
    packed(Kind::Conv, weights.as_slice(), spec.weights_per_filter())
}

/// A fully-connected layer's packed, compressed row transpose.
///
/// # Panics
///
/// Panics if the weights do not match the spec.
pub(crate) fn fc_rows(spec: &FcSpec, weights: &[i32]) -> Arc<PackedRows> {
    assert_eq!(
        weights.len(),
        spec.in_features * spec.out_features,
        "weight length mismatch"
    );
    packed(Kind::Fc, weights, spec.in_features)
}

/// `weights`, read as rows of `row_len`, packed — from the store when the
/// same (dimensions, weights) pair was packed before in this process, packed
/// and inserted otherwise.
fn packed(kind: Kind, weights: &[i32], row_len: usize) -> Arc<PackedRows> {
    let key = Key {
        dims: (weights.len() / row_len, row_len),
        hash: content_hash(weights),
    };
    {
        let mut store = global().lock().expect("weight store poisoned");
        if let Some(rows) = store.entries.get(&key) {
            let rows = Arc::clone(rows);
            store.stats.count(kind, true);
            return rows;
        }
    }
    // Pack outside the lock: layer packs are milliseconds on big networks and
    // must not serialize unrelated threads behind the store mutex.
    let rows = Arc::new(PackedRows::pack(weights, row_len));
    let mut store = global().lock().expect("weight store poisoned");
    store.stats.count(kind, false);
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

    fn conv_weights(spec: &ConvSpec, salt: i32) -> Tensor4 {
        let n = spec.weight_shape().len();
        Tensor4::from_vec(
            spec.weight_shape(),
            (0..n as i32).map(|i| (i * 31 + salt) % 200 - 100).collect(),
        )
        .unwrap()
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
                hash: content_hash(&weights),
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
        assert_ne!(content_hash(&[1, 2, 3]), content_hash(&[3, 2, 1]));
        assert_ne!(content_hash(&[0]), content_hash(&[0, 0]));
    }
}
