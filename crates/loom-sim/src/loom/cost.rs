//! The per-layer cost model that picks task granularity for the pool.
//!
//! A layer's parallel work is estimated as **MACs × effective precision**
//! (`Pa` bits × `Pw` bits — the same product the analytic cycle models scale
//! with), and the estimate chooses how many tasks the layer fans across the
//! [work-stealing pool](crate::pool):
//!
//! * **Small layers** (below [`TASK_GRAIN`]) run as a single task — inline on
//!   the submitting thread for batch-of-1, or one task per batch item — so
//!   pool dispatch overhead never exceeds the work it parallelises.
//! * **Large layers** split into enough tasks to fill the thread budget
//!   (and a few times over, so stealing can balance skew), capped so no task
//!   drops far below the grain.
//!
//! Convolutions split along two axes: consecutive **window-group ranges**
//! first (disjoint output windows, zero redundancy), then **filter tiles**
//! when a layer has too few window groups to fill the budget — the case that
//! makes *batch-of-1 latency* scale. Filter tiles re-pack the same activation
//! windows, so they are only engaged when window groups alone cannot feed the
//! pool, and each tile keeps a healthy filter count. Fully-connected layers
//! split along output rows, with the rows-per-task chosen by the same budget
//! instead of a fixed constant.
//!
//! Granularity never affects results: tasks cover disjoint output ranges,
//! detection folds and cycle accounting stay per window group (filter tile 0
//! accounts for the whole filter dimension), and merging is in task order —
//! so any plan is bit-identical to the serial schedule.

use loom_model::fixed::Precision;
use loom_model::layer::{ConvSpec, FcSpec};

/// Cost-model units (MAC × bit-products) one task should amortise: tasks
/// below this run inline rather than paying pool dispatch. The tile kernel
/// runs convolutions at 420–560 such bit-ops per ns on two threads of a
/// 2-vCPU `avx512-vpopcnt` host (traced `zoo-b1`), about 250 per thread, so
/// this is roughly 130 µs of one thread's work.
pub const TASK_GRAIN: u64 = 1 << 25;

/// Over-decomposition factor: at most this many tasks per thread, so the
/// stealing deques can balance skewed task costs without shredding the work
/// into dispatch overhead.
pub const TASKS_PER_THREAD: usize = 4;

/// Modeled parallel work of a convolution: MACs × `Pa` bits × `Pw` bits.
pub fn conv_cost(spec: &ConvSpec, pa: Precision, pw: Precision) -> u64 {
    let macs = spec.windows() as u64 * spec.weights_per_filter() as u64 * spec.filters as u64;
    macs * pa.bits_u64() * pw.bits_u64()
}

/// Modeled parallel work of a fully-connected layer over `items` batch
/// inputs: MACs × 16 activation bits × `Pw` bits.
pub fn fc_cost(spec: &FcSpec, items: usize, pw: Precision) -> u64 {
    let macs = spec.in_features as u64 * spec.out_features as u64 * items as u64;
    macs * 16 * pw.bits_u64()
}

/// How many tasks a layer of the given cost should split into on a budget of
/// `units` threads: 1 when the layer is too small to amortise dispatch,
/// otherwise between `units` and `units ×` [`TASKS_PER_THREAD`], bounded by
/// the cost-per-grain.
pub fn task_budget(units: usize, cost: u64) -> usize {
    if units <= 1 {
        return 1;
    }
    let by_cost = (cost / TASK_GRAIN) as usize;
    if by_cost <= 1 {
        return 1;
    }
    by_cost.min(units * TASKS_PER_THREAD).max(units)
}

/// A convolution's task decomposition: `window_chunks × filter_tiles` tasks,
/// each covering a consecutive range of window groups and a contiguous filter
/// tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvPlan {
    /// Number of consecutive window-group ranges.
    pub window_chunks: usize,
    /// Window groups per chunk (the last chunk may be ragged).
    pub groups_per_chunk: usize,
    /// Filter tiles per window chunk (1 unless window groups alone cannot
    /// fill the thread budget).
    pub filter_tiles: usize,
}

impl ConvPlan {
    /// A single-task plan covering the whole layer.
    pub fn single(window_groups: usize) -> Self {
        ConvPlan {
            window_chunks: 1,
            groups_per_chunk: window_groups.max(1),
            filter_tiles: 1,
        }
    }

    /// Total pool tasks the plan fans out.
    pub fn tasks(&self) -> usize {
        self.window_chunks * self.filter_tiles
    }
}

/// Plans a convolution of `cost` with `window_groups` architectural window
/// groups and `filters` filters for a budget of `units` threads. Window
/// groups split first; filter tiles engage only when there are fewer window
/// groups than the task budget (the batch-of-1 latency case), and each tile
/// keeps at least 8 filters so the re-packed activation windows stay
/// amortised.
pub fn plan_conv(units: usize, window_groups: usize, filters: usize, cost: u64) -> ConvPlan {
    let target = task_budget(units, cost);
    if target <= 1 || window_groups == 0 {
        return ConvPlan::single(window_groups);
    }
    let chunks = target.min(window_groups);
    let groups_per_chunk = window_groups.div_ceil(chunks);
    let window_chunks = window_groups.div_ceil(groups_per_chunk);
    let filter_tiles = if window_chunks >= target {
        1
    } else {
        let wanted = target.div_ceil(window_chunks);
        wanted.min((filters / 8).max(1)).min(filters.max(1))
    };
    ConvPlan {
        window_chunks,
        groups_per_chunk,
        filter_tiles,
    }
}

/// Output rows per fully-connected task for a budget of `units` threads:
/// the row count that yields [`task_budget`] tasks, floored at 4 rows so one
/// task amortises its weight-row packing.
pub fn fc_rows_per_task(units: usize, out_features: usize, cost: u64) -> usize {
    let target = task_budget(units, cost);
    out_features
        .div_ceil(target)
        .max(4)
        .min(out_features.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_layers_stay_single_task() {
        assert_eq!(task_budget(8, TASK_GRAIN / 2), 1);
        assert_eq!(task_budget(1, u64::MAX / 2), 1);
        let plan = plan_conv(8, 40, 64, TASK_GRAIN);
        assert_eq!(plan.tasks(), 1);
    }

    #[test]
    fn large_layers_fill_the_thread_budget() {
        let cost = TASK_GRAIN * 100;
        let budget = task_budget(4, cost);
        assert!((4..=16).contains(&budget), "{budget}");
        let plan = plan_conv(4, 190, 96, cost);
        assert_eq!(plan.filter_tiles, 1, "plenty of window groups: no tiling");
        assert!(plan.tasks() >= 4);
        assert!(plan.window_chunks <= 190);
        // Chunks tile the groups exactly.
        assert_eq!(plan.window_chunks, 190usize.div_ceil(plan.groups_per_chunk));
    }

    #[test]
    fn few_window_groups_engage_filter_tiles() {
        // 3 window groups cannot fill 8 threads: filter tiles make up the
        // difference, bounded to keep >= 8 filters per tile.
        let plan = plan_conv(8, 3, 64, TASK_GRAIN * 64);
        assert_eq!(plan.window_chunks, 3);
        assert!(plan.filter_tiles > 1);
        assert!(plan.filter_tiles <= 8);
        assert!(plan.tasks() >= 6);
    }

    #[test]
    fn fc_rows_scale_with_cost() {
        // A big FC layer on 4 threads: several tasks, each >= 4 rows.
        let rows = fc_rows_per_task(4, 4096, TASK_GRAIN * 128);
        assert!(rows >= 4 && rows < 4096, "{rows}");
        // Tiny layer: one task.
        assert_eq!(fc_rows_per_task(4, 128, TASK_GRAIN / 4), 128);
    }

    #[test]
    fn costs_scale_with_precision() {
        let spec = ConvSpec::simple(8, 16, 16, 8, 3);
        let p4 = Precision::new(4).unwrap();
        let p8 = Precision::new(8).unwrap();
        assert_eq!(conv_cost(&spec, p8, p8), 4 * conv_cost(&spec, p4, p4));
        let fc = FcSpec::new(256, 64);
        assert_eq!(fc_cost(&fc, 2, p8), 2 * fc_cost(&fc, 1, p8));
    }
}
