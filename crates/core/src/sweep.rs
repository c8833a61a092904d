//! The parallel sweep runner: fans (network × accelerator × settings) jobs
//! across the shared [`loom_sim::pool`] worker pool with deterministic
//! result ordering and a memoizing result cache keyed by
//! `(network, kind, settings)`.
//!
//! Every table and figure of the paper is a sweep over this product space, so
//! the reproduction binaries (`table2`, `table4`, `figure4`, `figure5`,
//! `all`, `sweep_bench`) all drive a [`SweepRunner`]. A runner with one
//! thread executes jobs inline in submission order, which makes the serial
//! and parallel paths literally the same code — the determinism tests assert
//! the outputs are identical.

use crate::experiment::{
    assemble_evaluation, build_assignment, comparator_kinds, ExperimentSettings, NetworkEvaluation,
};
use loom_model::network::Network;
use loom_model::zoo;
use loom_sim::accelerator;
use loom_sim::counts::NetworkSim;
use loom_sim::engine::{AcceleratorKind, PrecisionAssignment};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Command-line options shared by the sweep-driving binaries: `--threads N`
/// (or the `LOOM_THREADS` environment variable) and
/// `--filter <network|accelerator>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepOptions {
    /// Worker threads for the sweep.
    pub threads: usize,
    /// Case-insensitive substring restricting networks and/or accelerators.
    pub filter: Option<String>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            threads: crate::threads::available(),
            filter: None,
        }
    }
}

impl SweepOptions {
    /// Parses options from an iterator of command-line arguments (excluding
    /// the program name). Unrecognised arguments are ignored so binaries can
    /// layer their own flags on top. Precedence for the thread count (the
    /// shared [`crate::threads::resolve`] policy): `--threads` beats
    /// `LOOM_THREADS` beats [`crate::threads::available`].
    pub fn parse<I, S>(args: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut flag: Option<usize> = None;
        let mut filter: Option<String> = None;
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_ref() {
                "--threads" => {
                    if let Some(n) = args.next().and_then(|v| v.as_ref().parse::<usize>().ok()) {
                        if n > 0 {
                            flag = Some(n);
                        }
                    }
                }
                "--filter" => {
                    filter = args.next().map(|v| v.as_ref().to_string());
                }
                other => {
                    if let Some(n) = other.strip_prefix("--threads=") {
                        if let Ok(n) = n.parse::<usize>() {
                            if n > 0 {
                                flag = Some(n);
                            }
                        }
                    } else if let Some(f) = other.strip_prefix("--filter=") {
                        filter = Some(f.to_string());
                    }
                }
            }
        }
        SweepOptions {
            threads: crate::threads::resolve(flag),
            filter,
        }
    }

    /// Parses the current process's command-line arguments.
    pub fn from_env() -> Self {
        SweepOptions::parse(std::env::args().skip(1))
    }

    /// Whether `name` matches the filter (no filter matches everything).
    pub fn matches(&self, name: &str) -> bool {
        match &self.filter {
            None => true,
            Some(f) => name.to_ascii_lowercase().contains(&f.to_ascii_lowercase()),
        }
    }

    /// True when a filter is set but matches none of `names`. Binaries use
    /// this to warn the user (a typo'd `--filter` falls back to the full
    /// matrix — see [`SweepOptions::apply`] — and that should be loud, not
    /// silent).
    pub fn matches_nothing_in<I, S>(&self, names: I) -> bool
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        self.filter.is_some() && !names.into_iter().any(|n| self.matches(n.as_ref()))
    }

    /// Applies the filter to a (networks × accelerators) matrix. The filter
    /// restricts a dimension only when it matches something in it, so
    /// `--filter alexnet` keeps every accelerator and `--filter stripes`
    /// keeps every network. A filter that matches neither dimension leaves
    /// the full matrix in place — pair with
    /// [`SweepOptions::matches_nothing_in`] to warn in that case.
    pub fn apply(
        &self,
        networks: Vec<Network>,
        kinds: Vec<AcceleratorKind>,
    ) -> (Vec<Network>, Vec<AcceleratorKind>) {
        if self.filter.is_none() {
            return (networks, kinds);
        }
        let matched_networks: Vec<Network> = networks
            .iter()
            .filter(|n| self.matches(n.name()))
            .cloned()
            .collect();
        let matched_kinds: Vec<AcceleratorKind> = kinds
            .iter()
            .copied()
            .filter(|k| self.matches(&k.to_string()))
            .collect();
        (
            if matched_networks.is_empty() {
                networks
            } else {
                matched_networks
            },
            if matched_kinds.is_empty() {
                kinds
            } else {
                matched_kinds
            },
        )
    }
}

/// One job of a sweep: simulate `network` on `kind` under `settings`.
///
/// The network is identified by name plus a cheap structural fingerprint
/// (layer count and total MACs), so two structurally different networks that
/// happen to share a name cannot silently serve each other's cached results.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SweepKey {
    /// Network name (unique within the zoo).
    pub network: String,
    /// Structural fingerprint: (layer count, total MACs).
    pub fingerprint: (usize, u64),
    /// Accelerator kind.
    pub kind: AcceleratorKind,
    /// Experiment settings (design point, accuracy target, dynamic
    /// activations, weight granularity).
    pub settings: ExperimentSettings,
}

impl SweepKey {
    fn new(network: &Network, kind: AcceleratorKind, settings: &ExperimentSettings) -> Self {
        let layers = network.layers();
        SweepKey {
            network: network.name().to_string(),
            fingerprint: (layers.len(), layers.iter().map(|l| l.kind.macs()).sum()),
            kind,
            settings: *settings,
        }
    }
}

/// The parallel sweep runner: a worker pool plus a memoizing result cache.
///
/// Results are cached by [`SweepKey`], so a binary that reuses one runner
/// across tables (as `all` does) simulates each (network, accelerator,
/// settings) point exactly once regardless of how many tables consume it.
/// Precision assignments are memoized separately per (network, settings), so
/// the six per-network accelerator runs share one assignment build.
pub struct SweepRunner {
    threads: usize,
    cache: Mutex<HashMap<SweepKey, Arc<NetworkSim>>>,
    assignments: Mutex<HashMap<(String, ExperimentSettings), Arc<PrecisionAssignment>>>,
}

impl SweepRunner {
    /// A runner with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        SweepRunner {
            threads: threads.max(1),
            cache: Mutex::new(HashMap::new()),
            assignments: Mutex::new(HashMap::new()),
        }
    }

    /// A single-threaded runner: jobs run inline, in submission order.
    pub fn serial() -> Self {
        SweepRunner::new(1)
    }

    /// A runner configured from parsed [`SweepOptions`].
    pub fn from_options(options: &SweepOptions) -> Self {
        SweepRunner::new(options.threads)
    }

    /// Worker threads this runner fans jobs across.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of memoized simulation results.
    pub fn cached_results(&self) -> usize {
        self.cache.lock().expect("sweep cache poisoned").len()
    }

    /// The memoized precision assignment for `network` under `settings`.
    fn assignment(
        &self,
        network: &Network,
        settings: &ExperimentSettings,
    ) -> Arc<PrecisionAssignment> {
        let key = (network.name().to_string(), *settings);
        if let Some(hit) = self
            .assignments
            .lock()
            .expect("assignment cache poisoned")
            .get(&key)
            .cloned()
        {
            return hit;
        }
        let assignment = Arc::new(build_assignment(network, settings));
        self.assignments
            .lock()
            .expect("assignment cache poisoned")
            .entry(key)
            .or_insert_with(|| assignment.clone())
            .clone()
    }

    /// Simulates one sweep point, memoized. Concurrent calls for the same key
    /// may both compute (the cache lock is not held while simulating), but
    /// both produce identical results and one wins the insert. Only the
    /// accelerator needed for the job is built.
    pub fn simulate(
        &self,
        network: &Network,
        kind: AcceleratorKind,
        settings: &ExperimentSettings,
    ) -> Arc<NetworkSim> {
        let key = SweepKey::new(network, kind, settings);
        if let Some(hit) = self
            .cache
            .lock()
            .expect("sweep cache poisoned")
            .get(&key)
            .cloned()
        {
            return hit;
        }
        let assignment = self.assignment(network, settings);
        let accelerator = accelerator::build(kind, settings.config);
        let sim = Arc::new(accelerator.simulate_network(network, &assignment));
        self.cache
            .lock()
            .expect("sweep cache poisoned")
            .entry(key)
            .or_insert_with(|| sim.clone())
            .clone()
    }

    /// Runs `f` over every item, fanning the items across the shared
    /// [`loom_sim::pool`] worker pool (the same persistent workers the layer
    /// engines use, so a sweep and the inference it drives never fight over
    /// oversubscribed scoped threads). The result vector is in item order
    /// regardless of which worker ran which item or in what order they
    /// finished.
    pub fn parallel_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        loom_sim::pool::ordered_map(self.threads, items.len(), |i| f(&items[i]))
    }

    /// Evaluates `networks` under `settings` on the baseline and every
    /// comparator, fanning the (network × accelerator) product across the
    /// worker pool. The output is ordered by the input network order and is
    /// identical to calling [`crate::experiment::evaluate_network`] per
    /// network.
    pub fn evaluate_networks(
        &self,
        networks: &[Network],
        settings: &ExperimentSettings,
    ) -> Vec<NetworkEvaluation> {
        self.evaluate_networks_on(networks, &comparator_kinds(), settings)
    }

    /// Like [`SweepRunner::evaluate_networks`] but against a subset of
    /// comparators (e.g. a `--filter`ed partial sweep). The DPNN baseline is
    /// always simulated — every relative result is normalised to it — and is
    /// skipped from `comparators` if present.
    pub fn evaluate_networks_on(
        &self,
        networks: &[Network],
        comparators: &[AcceleratorKind],
        settings: &ExperimentSettings,
    ) -> Vec<NetworkEvaluation> {
        let mut kinds = vec![AcceleratorKind::Dpnn];
        kinds.extend(
            comparators
                .iter()
                .copied()
                .filter(|&k| k != AcceleratorKind::Dpnn),
        );
        let jobs: Vec<(usize, AcceleratorKind)> = (0..networks.len())
            .flat_map(|ni| kinds.iter().map(move |&k| (ni, k)))
            .collect();
        let sims = self.parallel_map(&jobs, |&(ni, kind)| {
            self.simulate(&networks[ni], kind, settings)
        });
        let per_network = kinds.len();
        networks
            .iter()
            .enumerate()
            .map(|(ni, network)| {
                let base = ni * per_network;
                // Only the baseline is cloned out of its Arc (the evaluation
                // owns it); comparator sims are borrowed, consumed into
                // relative results, and stay shared in the cache.
                let dpnn = sims[base].as_ref().clone();
                let comparator_sims = kinds[1..]
                    .iter()
                    .enumerate()
                    .map(|(ci, &kind)| (kind, sims[base + 1 + ci].as_ref()));
                assemble_evaluation(network, settings, dpnn, comparator_sims)
            })
            .collect()
    }

    /// Evaluates all six paper networks under `settings`, in table order —
    /// the parallel equivalent of
    /// [`crate::experiment::evaluate_all_networks`].
    pub fn evaluate_zoo(&self, settings: &ExperimentSettings) -> Vec<NetworkEvaluation> {
        self.evaluate_networks(&zoo::all(), settings)
    }
}

impl std::fmt::Debug for SweepRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepRunner")
            .field("threads", &self.threads)
            .field("cached_results", &self.cached_results())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_item_order() {
        let runner = SweepRunner::new(4);
        let items: Vec<usize> = (0..64).collect();
        let doubled = runner.parallel_map(&items, |&i| i * 2);
        assert_eq!(doubled, (0..64).map(|i| i * 2).collect::<Vec<_>>());
        // Serial fast path produces the same thing.
        assert_eq!(
            SweepRunner::serial().parallel_map(&items, |&i| i * 2),
            doubled
        );
    }

    #[test]
    fn cache_returns_the_same_arc_on_the_second_call() {
        let runner = SweepRunner::serial();
        let net = zoo::nin();
        let settings = ExperimentSettings::default();
        let first = runner.simulate(&net, AcceleratorKind::Dpnn, &settings);
        let second = runner.simulate(&net, AcceleratorKind::Dpnn, &settings);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(runner.cached_results(), 1);
        // A different settings key is a different cache entry.
        let other = runner.simulate(
            &net,
            AcceleratorKind::Dpnn,
            &ExperimentSettings::per_group_weights(),
        );
        assert!(!Arc::ptr_eq(&first, &other));
        assert_eq!(runner.cached_results(), 2);
    }

    #[test]
    fn options_parsing_and_precedence() {
        let o = SweepOptions::parse(["--threads", "3", "--filter", "alexnet"]);
        assert_eq!(o.threads, 3);
        assert_eq!(o.filter.as_deref(), Some("alexnet"));
        let o = SweepOptions::parse(["--threads=7", "--filter=Stripes"]);
        assert_eq!(o.threads, 7);
        assert_eq!(o.filter.as_deref(), Some("Stripes"));
        // Zero and garbage thread counts are ignored.
        let o = SweepOptions::parse(["--threads", "0"]);
        assert!(o.threads >= 1);
        let o = SweepOptions::parse(["--threads", "banana"]);
        assert!(o.threads >= 1);
        assert!(o.matches("anything"));
    }

    #[test]
    fn no_match_filters_are_detectable() {
        let options = SweepOptions {
            threads: 1,
            filter: Some("alexnt".to_string()), // typo
        };
        let names = zoo::all()
            .iter()
            .map(|n| n.name().to_string())
            .collect::<Vec<_>>();
        assert!(options.matches_nothing_in(names.iter()));
        let options = SweepOptions {
            threads: 1,
            filter: Some("alexnet".to_string()),
        };
        assert!(!options.matches_nothing_in(names.iter()));
        assert!(!SweepOptions::default().matches_nothing_in(names.iter()));
    }

    #[test]
    fn sweep_key_fingerprints_structurally_different_networks() {
        use loom_model::layer::ConvSpec;
        use loom_model::network::NetworkBuilder;
        let small = NetworkBuilder::new("Impostor")
            .conv("c1", ConvSpec::simple(3, 9, 9, 8, 3))
            .build()
            .unwrap();
        let large = NetworkBuilder::new("Impostor")
            .conv("c1", ConvSpec::simple(3, 17, 17, 16, 3))
            .build()
            .unwrap();
        let settings = ExperimentSettings::default();
        let a = SweepKey::new(&small, AcceleratorKind::Dpnn, &settings);
        let b = SweepKey::new(&large, AcceleratorKind::Dpnn, &settings);
        assert_eq!(a.network, b.network);
        assert_ne!(a, b, "same name, different structure must not collide");
    }

    #[test]
    fn filter_restricts_only_the_matching_dimension() {
        let options = SweepOptions {
            threads: 1,
            filter: Some("alexnet".to_string()),
        };
        let (nets, kinds) = options.apply(zoo::all(), AcceleratorKind::all());
        assert_eq!(nets.len(), 1);
        assert_eq!(nets[0].name(), "AlexNet");
        assert_eq!(kinds.len(), 6, "no accelerator matches 'alexnet'");

        let options = SweepOptions {
            threads: 1,
            filter: Some("stripes".to_string()),
        };
        let (nets, kinds) = options.apply(zoo::all(), AcceleratorKind::all());
        assert_eq!(nets.len(), 6, "no network matches 'stripes'");
        assert_eq!(kinds.len(), 2, "Stripes and DStripes");

        let options = SweepOptions {
            threads: 1,
            filter: Some("no-such-thing".to_string()),
        };
        let (nets, kinds) = options.apply(zoo::all(), AcceleratorKind::all());
        assert_eq!((nets.len(), kinds.len()), (6, 6));
    }

    #[test]
    fn parallel_evaluation_matches_the_serial_path() {
        let settings = ExperimentSettings::default();
        let networks = [zoo::nin(), zoo::alexnet()];
        let parallel = SweepRunner::new(4).evaluate_networks(&networks, &settings);
        for (eval, network) in parallel.iter().zip(networks.iter()) {
            let serial = crate::experiment::evaluate_network(network, &settings);
            assert_eq!(eval.network, serial.network);
            assert_eq!(eval.dpnn, serial.dpnn);
            assert_eq!(eval.relatives.len(), serial.relatives.len());
            for ((pk, pr), (sk, sr)) in eval.relatives.iter().zip(serial.relatives.iter()) {
                assert_eq!(pk, sk);
                // Bit-wise comparison: NaN (absent layer classes) must match
                // NaN, which `==` on floats would reject.
                for (p, s) in [
                    (pr.conv_speedup, sr.conv_speedup),
                    (pr.fc_speedup, sr.fc_speedup),
                    (pr.all_speedup, sr.all_speedup),
                    (pr.conv_efficiency, sr.conv_efficiency),
                    (pr.fc_efficiency, sr.fc_efficiency),
                    (pr.all_efficiency, sr.all_efficiency),
                ] {
                    assert_eq!(p.to_bits(), s.to_bits(), "{} on {pk}", eval.network);
                }
            }
        }
    }
}
