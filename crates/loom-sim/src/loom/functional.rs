//! A functional (value-producing) Loom engine.
//!
//! The analytic cycle models in [`crate::loom::schedule`] answer "how long
//! does it take"; this module answers "does the bit-serial machine actually
//! compute the right numbers". It maps convolutional and fully-connected
//! layers onto a grid of [`Sip`](crate::loom::sip)-equivalent units exactly as
//! §3.2 describes — filters along rows, windows (CVL) or output slices (FCL)
//! along columns, 16 weights per SIP — and returns both the computed outputs
//! and the cycles spent, with optional dynamic per-group activation precision
//! detection.
//!
//! The inner products run on the 256-lane `[u64; 4]` datapath of
//! [`crate::loom::wide`], with runtime SIMD dispatch. Window patches are
//! extracted into per-thread pack arenas (scratch reused across a thread's
//! jobs) and packed into wide blocks once per window. Products then take one
//! tile-kernel call per (filter, window tile), or per (output row, item tile)
//! for a fully-connected batch: the call broadcasts each of the row's weight
//! planes once for up to [`TILE`] windows or items, and reduces each
//! member's accumulator once per output. Cycle accounting follows the
//! architectural per-SIP-group detector (window group × `sip_lanes` chunk),
//! however the arithmetic is vectorised.
//!
//! Outputs are checked against the golden model from `loom-model`, cycles
//! against the analytic schedules, and whole runs against the bit-serial
//! oracle [`crate::loom::sip::serial_conv`].

use crate::config::LoomGeometry;
use crate::loom::cost::{self, ConvPlan};
use crate::loom::packed::MagnitudeOr;
use crate::loom::store;
use crate::loom::wide::{
    tile_inner_products, CompressedWideBlock, WeightBlock, WideBitplaneBlock, TILE, WIDE_LANES,
};
use crate::pool;
use loom_model::fixed::Precision;
use loom_model::im2col::window_patch_into;
use loom_model::layer::{ConvSpec, FcSpec, LayerKind};
use loom_model::tensor::{Tensor3, Tensor4};
use std::cell::RefCell;

/// Result of running a layer through the functional engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionalRun {
    /// Output accumulators in the same layout as the golden model
    /// (filter-major for convolutions, output index order for FCLs).
    pub outputs: Vec<i64>,
    /// Cycles the bit-serial execution took.
    pub cycles: u64,
    /// Number of activation groups whose precision was reduced below the
    /// nominal activation precision by dynamic detection.
    pub reduced_groups: u64,
}

/// The functional Loom engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FunctionalLoom {
    geometry: LoomGeometry,
    /// Whether per-group activation precisions are detected at runtime.
    pub(crate) dynamic_precision: bool,
    /// Worker threads layer jobs are fanned across.
    threads: usize,
}

impl FunctionalLoom {
    /// Creates an engine with the given geometry, dynamic precision detection
    /// enabled (the paper's default), and one worker thread.
    pub fn new(geometry: LoomGeometry) -> Self {
        FunctionalLoom {
            geometry,
            dynamic_precision: true,
            threads: 1,
        }
    }

    /// Fans each layer's jobs across `threads` pool workers (clamped to at
    /// least 1): the cost model's convolution tasks and fully-connected
    /// output-row groups. Results are bit-identical at any thread count: jobs
    /// write disjoint output ranges and the cycle and reduced-group counters
    /// are merged in job order.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Worker threads layer jobs are fanned across.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Disables runtime precision detection (profile precisions only).
    pub fn without_dynamic_precision(mut self) -> Self {
        self.dynamic_precision = false;
        self
    }

    /// The engine geometry.
    pub fn geometry(&self) -> LoomGeometry {
        self.geometry
    }

    /// Runs a convolutional layer.
    ///
    /// `pa`/`pw` are the layer's profile precisions. They set the cycles and
    /// the task plan, not the products: every block's product runs at the
    /// block's detected weight and activation precisions, so the outputs are
    /// exact for any `pa`/`pw`. Whether the activations are signed is
    /// detected from the data: per input for the cycles, per block for the
    /// products.
    ///
    /// # Panics
    ///
    /// Panics if the tensors do not match the spec.
    pub fn run_conv(
        &self,
        spec: &ConvSpec,
        input: &Tensor3,
        weights: &Tensor4,
        pa: Precision,
        pw: Precision,
    ) -> FunctionalRun {
        assert_eq!(
            weights.shape(),
            spec.weight_shape(),
            "weight shape mismatch"
        );
        let filters = store::layer_rows(&LayerKind::Conv(*spec), weights.as_slice())
            .expect("convolutions always pack");
        self.run_conv_batch(spec, &[(input, pa)], &filters, pw)
            .pop()
            .expect("one run per input")
    }

    /// Runs one convolution for every `(input, pa)` item against packed
    /// filters, lock-step: (item × cost-model task) jobs fan across one pool.
    /// Each item plans for its share of the thread budget — a batch of one
    /// gets the whole budget (intra-layer batch-of-1 parallelism), a batch as
    /// wide as the pool gets one task per item.
    pub(crate) fn run_conv_batch(
        &self,
        spec: &ConvSpec,
        items: &[(&Tensor3, Precision)],
        filters: &PackedRows,
        pw: Precision,
    ) -> Vec<FunctionalRun> {
        let units = self.threads.div_ceil(items.len()).max(1);
        let jobs: Vec<_> = items
            .iter()
            .map(|&(input, pa)| self.wide_conv_job(spec, input, filters, pa, pw, units))
            .collect();
        self.run_conv_jobs(&jobs)
    }

    /// Runs every job's tasks on one pool and returns one run per job.
    fn run_conv_jobs(&self, jobs: &[WideConvJob<'_>]) -> Vec<FunctionalRun> {
        // Each item plans from its *own* activation precision, so task counts
        // can differ across the batch: map the flat pool index to
        // (item, local task) through a prefix sum rather than assuming item
        // 0's count holds for everyone.
        let mut task_base = Vec::with_capacity(jobs.len());
        let mut total_tasks = 0usize;
        for job in jobs {
            task_base.push(total_tasks);
            total_tasks += job.task_count();
        }
        let results = pool::ordered_map(self.threads, total_tasks, |task| {
            let item = task_base.partition_point(|&base| base <= task) - 1;
            CONV_ARENA.with_borrow_mut(|arena| jobs[item].run_task(arena, task - task_base[item]))
        });
        let mut results = results.into_iter();
        jobs.iter()
            .map(|job| {
                let tasks: Vec<_> = results.by_ref().take(job.task_count()).collect();
                merge_conv_tasks(job.spec.filters, job.windows, tasks)
            })
            .collect()
    }

    /// Runs a fully-connected layer. Every SIP is assigned one output
    /// activation; with fewer than `rows × columns` outputs the engine
    /// cascades, slicing each output's inputs across multiple SIPs on the same
    /// row and reducing the partial sums at the end (§3.2 "Processing Layers
    /// with Few Outputs").
    ///
    /// `pw` sets the cycles and the task plan, not the products: as in
    /// [`run_conv`](Self::run_conv), every block's product runs at the
    /// block's detected precisions, so the outputs are exact for any `pw`.
    /// The weight rows come packed from the weight store, except for layers
    /// too big to hold there, whose rows stream through a per-thread arena.
    ///
    /// # Panics
    ///
    /// Panics if the slices do not match the spec.
    pub fn run_fc(
        &self,
        spec: &FcSpec,
        input: &[i32],
        weights: &[i32],
        pw: Precision,
    ) -> FunctionalRun {
        let rows = store::layer_rows(&LayerKind::FullyConnected(*spec), weights);
        self.run_fc_batch(spec, &[input], weights, pw, rows.as_deref())
            .pop()
            .expect("one run per input")
    }

    /// Runs one fully-connected layer for every input. Inputs pack once per
    /// item; each weight row comes from `rows` (the layer's packed rows) or,
    /// when there are none, is streamed once for the whole batch; output-row
    /// groups fan across the pool. Every item's cycles are those of `pw`.
    ///
    /// # Panics
    ///
    /// Panics if an input, the weights or `rows` do not match the spec.
    pub(crate) fn run_fc_batch(
        &self,
        spec: &FcSpec,
        inputs: &[&[i32]],
        weights: &[i32],
        pw: Precision,
        rows: Option<&PackedRows>,
    ) -> Vec<FunctionalRun> {
        let job = WideFcJob::new(spec, inputs, weights, pw, self.threads, rows);
        let row_chunks = pool::ordered_map(self.threads, job.row_group_count(), |g| {
            FC_ARENA.with_borrow_mut(|arena| job.run_rows(arena, g))
        });
        let cycles = self.fc_cycles(spec, pw);
        let mut runs: Vec<FunctionalRun> = inputs
            .iter()
            .map(|_| FunctionalRun {
                outputs: Vec::with_capacity(spec.out_features),
                cycles,
                reduced_groups: 0,
            })
            .collect();
        for chunk in row_chunks {
            for row in chunk.chunks_exact(inputs.len()) {
                for (run, &value) in runs.iter_mut().zip(row) {
                    run.outputs.push(value);
                }
            }
        }
        runs
    }

    /// Cycles a fully-connected layer occupies the grid for: steady-state
    /// cycles plus the pipeline fill (staggered weight loading across
    /// columns) and the cascade reduction cycles. The arithmetic
    /// vectorisation never changes what the hardware would spend.
    pub(crate) fn fc_cycles(&self, spec: &FcSpec, pw: Precision) -> u64 {
        let lanes = self.geometry.sip_lanes;
        let b = u64::from(self.geometry.act_bits_per_cycle);
        let concurrent = self.geometry.concurrent_fc_outputs();
        let act_cycles_per_weight_bit = (lanes as u64).div_ceil(b);

        // Cascading: slice each output over `slices` SIPs when outputs are few.
        let slices = if spec.out_features < concurrent {
            (concurrent / spec.out_features)
                .min(self.geometry.window_columns)
                .max(1)
        } else {
            1
        };
        let chunks = spec.in_features.div_ceil(lanes);
        let chunks_per_slice = chunks.div_ceil(slices);
        let output_groups = (spec.out_features * slices).div_ceil(concurrent) as u64;

        let steady =
            output_groups * chunks_per_slice as u64 * pw.bits_u64() * act_cycles_per_weight_bit;
        let fill = (self.geometry.window_columns as u64 - 1) * act_cycles_per_weight_bit;
        let reduction = slices as u64 - 1;
        steady + fill + reduction
    }

    /// Builds the shared, read-only context for one (layer, input) pair on
    /// the wide datapath, with its task decomposition planned by the cost
    /// model for a budget of `units` threads. The returned job exposes
    /// (window-chunk × filter-tile) tasks — the granularity the batched
    /// network engine fans across the pool.
    ///
    /// # Panics
    ///
    /// As [`FunctionalLoom::run_conv`].
    fn wide_conv_job<'a>(
        &self,
        spec: &'a ConvSpec,
        input: &'a Tensor3,
        filters: &'a PackedRows,
        pa: Precision,
        pw: Precision,
        units: usize,
    ) -> WideConvJob<'a> {
        assert_eq!(input.shape(), spec.input_shape(), "input shape mismatch");
        assert_eq!(
            (filters.rows(), filters.blocks_per_row),
            (spec.filters, spec.weights_per_filter().div_ceil(WIDE_LANES)),
            "weight planes do not tile the filters"
        );
        let wpf = spec.weights_per_filter();
        let cols = self.geometry.window_columns;
        let windows = spec.windows();
        let plan = cost::plan_conv(
            units,
            windows.div_ceil(cols),
            spec.filters,
            cost::conv_cost(spec, pa, pw),
        );
        WideConvJob {
            spec,
            input,
            filters,
            pa,
            pw,
            // An OR of the values is negative exactly when one of them is;
            // unlike an early-exit search, the fold vectorizes.
            activations_signed: input.as_slice().iter().fold(0, |acc, &v| acc | v) < 0,
            detection: self.dynamic_precision && spec.groups == 1,
            cols,
            rows: self.geometry.filter_rows,
            sip_lanes: self.geometry.sip_lanes,
            b: u64::from(self.geometry.act_bits_per_cycle),
            out_w: spec.out_width(),
            windows,
            group_in: spec.in_channels / spec.groups,
            group_out: spec.filters / spec.groups,
            wpf,
            sip_chunks: wpf.div_ceil(self.geometry.sip_lanes),
            wide_blocks: wpf.div_ceil(WIDE_LANES),
            plan,
        }
    }
}

/// Merges per-task partial results into the layer-wide filter-major output
/// layout, accumulating cycles and reduced-group counts in task order
/// (bit-identical at any thread count — tasks cover disjoint
/// `(filter range × window range)` rectangles).
fn merge_conv_tasks(filters: usize, windows: usize, tasks: Vec<ConvTaskRun>) -> FunctionalRun {
    let mut outputs = vec![0i64; filters * windows];
    let mut cycles = 0u64;
    let mut reduced_groups = 0u64;
    for task in tasks {
        cycles += task.cycles;
        reduced_groups += task.reduced_groups;
        for f in 0..task.filter_count {
            let dst = (task.filter_base + f) * windows + task.window_base;
            outputs[dst..dst + task.window_count]
                .copy_from_slice(&task.outputs[f * task.window_count..][..task.window_count]);
        }
    }
    FunctionalRun {
        outputs,
        cycles,
        reduced_groups,
    }
}

/// Cost and footprint of packing one weight container into the compressed
/// wide format: wall time spent transposing + compressing, the resident bytes
/// a dense block layout would have needed versus what the compressed blocks
/// actually hold, and the modeled DRAM stream bits both ways. Aggregated
/// across containers by the weight store and the bench reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PackStats {
    /// Nanoseconds spent transposing and compressing.
    pub pack_nanos: u64,
    /// Resident bytes of the equivalent dense block layout.
    pub dense_bytes: u64,
    /// Resident bytes of the compressed blocks actually held.
    pub compressed_bytes: u64,
    /// Modeled DRAM stream bits of the dense layout (16 bits per weight).
    pub dense_stream_bits: u64,
    /// Modeled DRAM stream bits of the compressed layout (bitmaps + sign
    /// plane + stored planes).
    pub compressed_stream_bits: u64,
}

impl PackStats {
    /// Compressed-over-dense stream ratio (1.0 when nothing was packed).
    pub fn ratio(&self) -> f64 {
        if self.dense_stream_bits > 0 {
            self.compressed_stream_bits as f64 / self.dense_stream_bits as f64
        } else {
            1.0
        }
    }

    /// Accumulates another container's stats into this one.
    pub fn add(&mut self, other: &PackStats) {
        self.pack_nanos += other.pack_nanos;
        self.dense_bytes += other.dense_bytes;
        self.compressed_bytes += other.compressed_bytes;
        self.dense_stream_bits += other.dense_stream_bits;
        self.compressed_stream_bits += other.compressed_stream_bits;
    }

    /// Absorbs one freshly compressed block into the footprint counters.
    fn absorb_block(&mut self, block: &CompressedWideBlock) {
        self.dense_bytes += std::mem::size_of::<WideBitplaneBlock>() as u64;
        self.compressed_bytes += block.resident_bytes() as u64;
        self.dense_stream_bits += block.planes().dense_bits();
        self.compressed_stream_bits += block.planes().compressed_bits();
    }
}

/// A weight matrix in compressed wide bit-plane form: each row (a conv
/// filter, or a fully-connected output row) split into `blocks_per_row`
/// 256-lane blocks, row-major. Every block carries its detected precision
/// and all-zero flag from the pack, and the container records the matrix's
/// weight precision Pw, the widest block's. Packed once per layer, held by
/// the weight store, and read in place by every task and batch item.
pub(crate) struct PackedRows {
    blocks: Vec<CompressedWideBlock>,
    blocks_per_row: usize,
    pw: Precision,
    stats: PackStats,
}

impl PackedRows {
    /// Transposes and compresses `weights`, read as rows of `row_len` values.
    pub(crate) fn pack(weights: &[i32], row_len: usize) -> Self {
        let start = std::time::Instant::now();
        let blocks_per_row = row_len.div_ceil(WIDE_LANES);
        let mut blocks = Vec::with_capacity(weights.len() / row_len * blocks_per_row);
        let mut pw = Precision::saturating(1);
        let mut stats = PackStats::default();
        let mut block = WideBitplaneBlock::EMPTY;
        for row in weights.chunks(row_len) {
            for chunk in row.chunks(WIDE_LANES) {
                block.pack_into(chunk);
                pw = pw.max(block.detected_precision(true));
                let compressed = CompressedWideBlock::compress(&block);
                stats.absorb_block(&compressed);
                blocks.push(compressed);
            }
        }
        stats.pack_nanos = start.elapsed().as_nanos() as u64;
        PackedRows {
            blocks,
            blocks_per_row,
            pw,
            stats,
        }
    }

    /// Number of packed rows.
    fn rows(&self) -> usize {
        self.blocks.len() / self.blocks_per_row
    }

    /// The weight precision Pw: the smallest precision covering every packed
    /// weight, equal to [`loom_model::fixed::required_precision`] of the
    /// weights (which must be representable in 16-bit two's complement, as
    /// for any packed operand).
    pub(crate) fn pw(&self) -> Precision {
        self.pw
    }

    /// Approximate resident size, for cache observability.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.blocks
            .iter()
            .map(CompressedWideBlock::resident_bytes)
            .sum()
    }

    /// Pack cost and compression footprint of this container.
    pub(crate) fn stats(&self) -> PackStats {
        self.stats
    }
}

/// Per-thread scratch for the wide convolutional path: the window patch
/// buffer, the packed activation blocks of the current window group, and
/// the magnitude-OR fold the architectural precision detector reads. Reused
/// across every window-group job its thread runs — the "pack arena".
#[derive(Default)]
struct ConvArena {
    patch: Vec<i32>,
    acts: Vec<WideBitplaneBlock>,
    fold: MagnitudeOr,
}

thread_local! {
    /// This thread's conv pack arena: the caller's lives across layers, a
    /// pool helper's for its batch.
    static CONV_ARENA: RefCell<ConvArena> = RefCell::default();
}

/// Everything a wide convolutional task needs, shared read-only across the
/// pool's threads (and across batch items — the weight planes are packed once
/// per layer).
struct WideConvJob<'a> {
    spec: &'a ConvSpec,
    input: &'a Tensor3,
    filters: &'a PackedRows,
    pa: Precision,
    pw: Precision,
    activations_signed: bool,
    detection: bool,
    cols: usize,
    rows: usize,
    sip_lanes: usize,
    b: u64,
    out_w: usize,
    windows: usize,
    group_in: usize,
    group_out: usize,
    wpf: usize,
    sip_chunks: usize,
    wide_blocks: usize,
    /// Cost-model task decomposition (window chunks × filter tiles).
    plan: ConvPlan,
}

impl WideConvJob<'_> {
    /// Number of architectural window groups (`cols` windows each).
    fn group_count(&self) -> usize {
        self.windows.div_ceil(self.cols)
    }

    /// Number of independent pool tasks the cost model planned for this
    /// layer.
    fn task_count(&self) -> usize {
        self.plan.tasks()
    }

    /// Runs task `task_idx` of the plan: a consecutive range of window
    /// groups × one contiguous filter tile. Each window group is processed
    /// with exactly the serial schedule — patch extraction, packing, the
    /// per-group detection fold and per-`sip_lanes`-chunk cycle accounting —
    /// so any decomposition is bit-identical to the serial engine. Cycles and
    /// reduced-group counts are attributed to filter tile 0 only (they cover
    /// the whole filter dimension already), so totals never depend on the
    /// tiling.
    fn run_task(&self, arena: &mut ConvArena, task_idx: usize) -> ConvTaskRun {
        let tiles = self.plan.filter_tiles;
        let chunk = task_idx / tiles;
        let tile = task_idx % tiles;
        let g0 = chunk * self.plan.groups_per_chunk;
        let g1 = (g0 + self.plan.groups_per_chunk).min(self.group_count());
        let window_base = g0 * self.cols;
        let window_count = (g1 * self.cols).min(self.windows) - window_base;
        let filter_base = self.spec.filters * tile / tiles;
        let filter_count = self.spec.filters * (tile + 1) / tiles - filter_base;
        let account = tile == 0;

        let mut outputs = vec![0i64; filter_count * window_count];
        let mut cycles = 0u64;
        let mut reduced_groups = 0u64;
        for g in g0..g1 {
            let group_window_base = g * self.cols;
            let col_offset = group_window_base - window_base;
            let (c, r) = self.run_group_into(
                arena,
                g,
                filter_base,
                filter_count,
                col_offset,
                window_count,
                &mut outputs,
                account,
            );
            cycles += c;
            reduced_groups += r;
        }
        ConvTaskRun {
            window_base,
            window_count,
            filter_base,
            filter_count,
            outputs,
            cycles,
            reduced_groups,
        }
    }

    /// Runs one architectural window group for a filter tile: extract each
    /// window's patch into the arena, pack it into wide blocks, fold the
    /// magnitude planes for the architectural detector, account cycles per
    /// `sip_lanes` chunk exactly as the serial model does (when `account`),
    /// then evaluate the filter tile's products, one kernel call per
    /// (filter, window tile), into `outputs` at `col_offset`. Returns the
    /// group's (cycles, reduced-group) contribution.
    #[allow(clippy::too_many_arguments)]
    fn run_group_into(
        &self,
        arena: &mut ConvArena,
        group_idx: usize,
        filter_base: usize,
        filter_count: usize,
        col_offset: usize,
        task_window_count: usize,
        outputs: &mut [i64],
        account: bool,
    ) -> (u64, u64) {
        let window_base = group_idx * self.cols;
        let window_count = self.cols.min(self.windows - window_base);
        let bpp = self.wide_blocks;
        let conv_groups = self.spec.groups;
        let folding = self.detection && account;

        arena
            .acts
            .resize(window_count * conv_groups * bpp, WideBitplaneBlock::EMPTY);
        if folding {
            arena.fold.reset(bpp);
        }

        // Pack every (window, conv-group) patch into wide blocks — each
        // window is packed once per (layer, filter tile), into storage the
        // thread reuses across its tasks. One conv group's windows are
        // contiguous, member-major, as the tile kernel reads them.
        for col in 0..window_count {
            let w = window_base + col;
            let (oy, ox) = (w / self.out_w, w % self.out_w);
            for g in 0..conv_groups {
                arena.patch.clear();
                window_patch_into(
                    self.spec,
                    self.input,
                    oy,
                    ox,
                    g * self.group_in,
                    self.group_in,
                    &mut arena.patch,
                );
                for blk in 0..bpp {
                    let base = blk * WIDE_LANES;
                    let count = WIDE_LANES.min(self.wpf - base);
                    let idx = (g * window_count + col) * bpp + blk;
                    arena.acts[idx].pack_into(&arena.patch[base..base + count]);
                    // The architectural detector ORs the magnitude planes of
                    // everything the SIP columns consume concurrently.
                    if folding && g == 0 {
                        arena.fold.absorb(blk, &arena.acts[idx]);
                    }
                }
            }
        }

        // Cycle accounting per `sip_lanes` chunk — the block occupies the SIP
        // array for Pw × ceil(Pa_detected / b) cycles regardless of the
        // arithmetic vectorisation, so this is exactly the serial model's
        // count. Grouped convolutions interleave channel ranges per filter
        // group, so detection is skipped for them (a conservative
        // simplification; AlexNet's grouped layers still benefit from their
        // static profile precisions).
        let filter_groups = self.spec.filters.div_ceil(self.rows) as u64;
        let mut cycles = 0u64;
        let mut reduced_groups = 0u64;
        if account {
            for chunk in 0..self.sip_chunks {
                let lane_base = chunk * self.sip_lanes;
                let lane_count = self.sip_lanes.min(self.wpf - lane_base);
                let effective_pa = if self.detection {
                    let detected = arena
                        .fold
                        .detected_precision(
                            lane_base,
                            lane_base + lane_count,
                            self.activations_signed,
                        )
                        .min(self.pa);
                    if detected < self.pa {
                        reduced_groups += 1;
                    }
                    detected
                } else {
                    self.pa
                };
                cycles +=
                    filter_groups * self.pw.bits_u64() * effective_pa.bits_u64().div_ceil(self.b);
            }
        }

        // Products: one tile-kernel call per (filter, window tile), each
        // filter block's planes broadcast once for the tile's windows and
        // each window's sum reduced once. Blocks run at their detected
        // precisions, which is exact.
        for f in 0..filter_count {
            let k = filter_base + f;
            let filter = &self.filters.blocks[k * bpp..][..bpp];
            let windows = &arena.acts[k / self.group_out * window_count * bpp..];
            let out = &mut outputs[f * task_window_count + col_offset..][..window_count];
            for (t, out) in out.chunks_mut(TILE).enumerate() {
                let tile = &windows[t * TILE * bpp..][..out.len() * bpp];
                tile_inner_products(filter, tile, out);
            }
        }
        (cycles, reduced_groups)
    }
}

/// Per-thread scratch for the wide fully-connected path: one output row's
/// packed weight blocks, reused across every row its thread evaluates.
#[derive(Default)]
struct FcArena {
    blocks: Vec<WideBitplaneBlock>,
}

thread_local! {
    /// This thread's FC row arena, with the conv arena's lifetimes.
    static FC_ARENA: RefCell<FcArena> = RefCell::default();
}

/// A fully-connected layer over one or more batch items on the wide
/// datapath. Inputs are packed once per item up front; weight rows are packed
/// once per *task* and applied to every item, so a batch shares the entire
/// row transpose. Tasks are disjoint output-row groups — the granularity the
/// network engine fans across its pool.
struct WideFcJob<'a> {
    spec: &'a FcSpec,
    weights: &'a [i32],
    chunks: usize,
    /// Batch items.
    batch: usize,
    /// Every item's input, packed once into `chunks` wide blocks, item-major
    /// as the tile kernel reads them.
    items: Vec<WideBitplaneBlock>,
    /// Pre-transposed weight rows from a per-model cache; when absent, each
    /// task streams its rows through its thread's arena.
    packed: Option<&'a PackedRows>,
    /// Output rows per pool task, chosen by the cost model.
    rows_per_task: usize,
}

impl<'a> WideFcJob<'a> {
    /// Packs every item's input activations into wide blocks, with the
    /// output-rows-per-task granularity planned by the cost model for a
    /// budget of `units` threads. When `packed` carries the layer's
    /// cached row transpose, tasks read it instead of re-packing — results
    /// are bit-identical either way.
    ///
    /// # Panics
    ///
    /// Panics if any input, the weight slice, or the packed cache does not
    /// match the spec.
    fn new(
        spec: &'a FcSpec,
        inputs: &[&[i32]],
        weights: &'a [i32],
        pw: Precision,
        units: usize,
        packed: Option<&'a PackedRows>,
    ) -> Self {
        assert_eq!(
            weights.len(),
            spec.in_features * spec.out_features,
            "weight length mismatch"
        );
        let chunks = spec.in_features.div_ceil(WIDE_LANES);
        if let Some(rows) = packed {
            assert_eq!(
                (rows.rows(), rows.blocks_per_row),
                (spec.out_features, chunks),
                "packed rows do not tile the layer"
            );
        }
        let items = inputs
            .iter()
            .flat_map(|input| {
                assert_eq!(input.len(), spec.in_features, "input length mismatch");
                input.chunks(WIDE_LANES).map(WideBitplaneBlock::pack)
            })
            .collect();
        let rows_per_task = cost::fc_rows_per_task(
            units,
            spec.out_features,
            cost::fc_cost(spec, inputs.len(), pw),
        );
        WideFcJob {
            spec,
            weights,
            chunks,
            batch: inputs.len(),
            items,
            packed,
            rows_per_task,
        }
    }

    /// Number of independent output-row tasks.
    fn row_group_count(&self) -> usize {
        self.spec.out_features.div_ceil(self.rows_per_task)
    }

    /// Evaluates output rows `[g * rows_per_task, …)` for every item. The
    /// result is row-major (`rows × items`): `out[(r - r0) * items + item]`.
    fn run_rows(&self, arena: &mut FcArena, g: usize) -> Vec<i64> {
        let r0 = g * self.rows_per_task;
        let r1 = (r0 + self.rows_per_task).min(self.spec.out_features);
        let mut out = vec![0i64; (r1 - r0) * self.batch];
        if self.packed.is_none() {
            arena.blocks.resize(self.chunks, WideBitplaneBlock::EMPTY);
        }
        for r in r0..r1 {
            let row_out = &mut out[(r - r0) * self.batch..][..self.batch];
            // One row's blocks, either read from the per-model compressed
            // cache or streamed into the thread's arena; the cached blocks were
            // produced by the same transpose (compressed losslessly), so both
            // feed the kernel identical planes, precisions and zero flags.
            match self.packed {
                Some(rows) => self.run_row(&rows.blocks[r * self.chunks..][..self.chunks], row_out),
                None => {
                    let row =
                        &self.weights[r * self.spec.in_features..(r + 1) * self.spec.in_features];
                    for (block, values) in arena.blocks.iter_mut().zip(row.chunks(WIDE_LANES)) {
                        block.pack_into(values);
                    }
                    self.run_row(&arena.blocks, row_out);
                }
            }
        }
        out
    }

    /// One output row against every item: one tile-kernel call per item
    /// tile, each block at its detected precisions.
    fn run_row<W: WeightBlock>(&self, row: &[W], out: &mut [i64]) {
        for (t, out) in out.chunks_mut(TILE).enumerate() {
            let tile = &self.items[t * TILE * self.chunks..][..out.len() * self.chunks];
            tile_inner_products(row, tile, out);
        }
    }
}

/// One conv task's finished partial results: the outputs for its disjoint
/// `(filter range × window range)` rectangle (filter-major, `filter_count ×
/// window_count`) plus its cycle and reduced-group contributions (zero for
/// filter tiles other than 0).
struct ConvTaskRun {
    window_base: usize,
    window_count: usize,
    filter_base: usize,
    filter_count: usize,
    outputs: Vec<i64>,
    cycles: u64,
    reduced_groups: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EquivalentConfig, LoomVariant};
    use crate::loom::sip::serial_conv;
    use loom_model::fixed::required_precision;
    use loom_model::reference::{conv_forward, fc_forward};
    use loom_model::synthetic::{synthetic_activations, synthetic_weights, ValueDistribution};
    use loom_model::tensor::Shape4;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_geometry() -> LoomGeometry {
        // A scaled-down grid keeps the functional tests fast while exercising
        // the same tiling logic: 8 filter rows × 4 window columns × 4 lanes.
        LoomGeometry {
            filter_rows: 8,
            window_columns: 4,
            sip_lanes: 4,
            act_bits_per_cycle: 1,
        }
    }

    #[test]
    fn conv_outputs_match_reference() {
        let spec = ConvSpec {
            in_channels: 3,
            in_height: 6,
            in_width: 6,
            filters: 10,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: 1,
            groups: 1,
        };
        let mut rng = StdRng::seed_from_u64(21);
        let pa = Precision::new(7).unwrap();
        let pw = Precision::new(6).unwrap();
        let input = Tensor3::from_vec(
            spec.input_shape(),
            synthetic_activations(
                &mut rng,
                spec.input_shape().len(),
                pa,
                ValueDistribution::activations(),
            ),
        )
        .unwrap();
        let weights = Tensor4::from_vec(
            spec.weight_shape(),
            synthetic_weights(
                &mut rng,
                spec.weight_shape().len(),
                pw,
                ValueDistribution::weights(),
            ),
        )
        .unwrap();
        let engine = FunctionalLoom::new(small_geometry());
        let run = engine.run_conv(&spec, &input, &weights, pa, pw);
        assert_eq!(run.outputs, conv_forward(&spec, &input, &weights));
        assert!(run.cycles > 0);
    }

    #[test]
    fn engine_matches_the_bit_serial_oracle() {
        let spec = ConvSpec {
            padding: 1,
            ..ConvSpec::simple(3, 7, 7, 6, 3)
        };
        let mut rng = StdRng::seed_from_u64(99);
        let pa = Precision::new(8).unwrap();
        let pw = Precision::new(6).unwrap();
        let input = Tensor3::from_vec(
            spec.input_shape(),
            synthetic_activations(
                &mut rng,
                spec.input_shape().len(),
                pa,
                ValueDistribution::activations(),
            ),
        )
        .unwrap();
        let weights = Tensor4::from_vec(
            spec.weight_shape(),
            synthetic_weights(
                &mut rng,
                spec.weight_shape().len(),
                pw,
                ValueDistribution::weights(),
            ),
        )
        .unwrap();
        // Window groups of 1, 3, 5 and 8 windows (and 12, two tiles) over
        // 49 windows: single windows, partial and full tiles, and ragged
        // last groups, in outputs, cycles and reduced groups.
        for window_columns in [1, 3, 5, 8, 12] {
            let dynamic = FunctionalLoom::new(LoomGeometry {
                window_columns,
                ..small_geometry()
            });
            for engine in [dynamic, dynamic.without_dynamic_precision()] {
                let run = engine.run_conv(&spec, &input, &weights, pa, pw);
                assert_eq!(
                    run,
                    serial_conv(&engine, &spec, &input, &weights, pa, pw),
                    "{window_columns} window columns"
                );
            }
        }
    }

    #[test]
    fn filter_tiles_and_ragged_window_chunks_match_the_oracle() {
        // 49 windows in groups of 4: 13 groups, the last of one window.
        let spec = ConvSpec {
            padding: 1,
            ..ConvSpec::simple(3, 7, 7, 6, 3)
        };
        let mut rng = StdRng::seed_from_u64(7);
        let pa = Precision::new(8).unwrap();
        let pw = Precision::new(6).unwrap();
        let inputs: Vec<Tensor3> = (0..2)
            .map(|_| {
                let values = synthetic_activations(
                    &mut rng,
                    spec.input_shape().len(),
                    pa,
                    ValueDistribution::activations(),
                );
                Tensor3::from_vec(spec.input_shape(), values).unwrap()
            })
            .collect();
        let weights = Tensor4::from_vec(
            spec.weight_shape(),
            synthetic_weights(
                &mut rng,
                spec.weight_shape().len(),
                pw,
                ValueDistribution::weights(),
            ),
        )
        .unwrap();
        let filters = PackedRows::pack(weights.as_slice(), spec.weights_per_filter());
        // Item 0: chunks of 3, 3, 3, 3 and 1 groups × three filter tiles of
        // two filters. Item 1: chunks of 5, 5 and 3 groups × two tiles of
        // three filters. Every task's rectangle is ragged somewhere.
        let plans = [
            ConvPlan {
                window_chunks: 5,
                groups_per_chunk: 3,
                filter_tiles: 3,
            },
            ConvPlan {
                window_chunks: 3,
                groups_per_chunk: 5,
                filter_tiles: 2,
            },
        ];
        for threads in [1, 4] {
            let dynamic = FunctionalLoom::new(small_geometry()).with_threads(threads);
            for engine in [dynamic, dynamic.without_dynamic_precision()] {
                let jobs: Vec<_> = inputs
                    .iter()
                    .zip(plans)
                    .map(|(input, plan)| WideConvJob {
                        plan,
                        ..engine.wide_conv_job(&spec, input, &filters, pa, pw, threads)
                    })
                    .collect();
                let runs = engine.run_conv_jobs(&jobs);
                assert_eq!(runs.len(), 2);
                for (run, input) in runs.iter().zip(&inputs) {
                    assert_eq!(
                        run,
                        &serial_conv(&engine, &spec, input, &weights, pa, pw),
                        "{threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn conv_dynamic_precision_is_lossless_and_faster() {
        let spec = ConvSpec::simple(4, 8, 8, 6, 3);
        let mut rng = StdRng::seed_from_u64(33);
        let pa = Precision::new(9).unwrap();
        let pw = Precision::new(7).unwrap();
        let input = Tensor3::from_vec(
            spec.input_shape(),
            synthetic_activations(
                &mut rng,
                spec.input_shape().len(),
                pa,
                ValueDistribution::activations(),
            ),
        )
        .unwrap();
        let weights = Tensor4::from_vec(
            spec.weight_shape(),
            synthetic_weights(
                &mut rng,
                spec.weight_shape().len(),
                pw,
                ValueDistribution::weights(),
            ),
        )
        .unwrap();
        let geometry = small_geometry();
        let with_dynamic = FunctionalLoom::new(geometry).run_conv(&spec, &input, &weights, pa, pw);
        let without = FunctionalLoom::new(geometry)
            .without_dynamic_precision()
            .run_conv(&spec, &input, &weights, pa, pw);
        // Same outputs (lossless), fewer or equal cycles, some groups reduced.
        assert_eq!(with_dynamic.outputs, without.outputs);
        assert!(with_dynamic.cycles <= without.cycles);
        assert!(with_dynamic.reduced_groups > 0);
        assert_eq!(without.reduced_groups, 0);
    }

    #[test]
    fn grouped_conv_outputs_match_reference() {
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
        let mut rng = StdRng::seed_from_u64(55);
        let pa = Precision::new(6).unwrap();
        let pw = Precision::new(5).unwrap();
        let input = Tensor3::from_vec(
            spec.input_shape(),
            synthetic_activations(
                &mut rng,
                spec.input_shape().len(),
                pa,
                ValueDistribution::activations(),
            ),
        )
        .unwrap();
        let weights = Tensor4::from_vec(
            Shape4::new(6, 2, 3, 3),
            synthetic_weights(&mut rng, 6 * 2 * 9, pw, ValueDistribution::weights()),
        )
        .unwrap();
        let engine = FunctionalLoom::new(small_geometry()).without_dynamic_precision();
        let run = engine.run_conv(&spec, &input, &weights, pa, pw);
        assert_eq!(run.outputs, conv_forward(&spec, &input, &weights));
        assert_eq!(run, serial_conv(&engine, &spec, &input, &weights, pa, pw));
    }

    #[test]
    fn fc_outputs_match_reference() {
        // 300 inputs: a full block and a ragged one.
        let spec = FcSpec::new(300, 12);
        let mut rng = StdRng::seed_from_u64(77);
        let pw = Precision::new(8).unwrap();
        let input = synthetic_activations(
            &mut rng,
            300,
            Precision::new(10).unwrap(),
            ValueDistribution::activations(),
        );
        let weights = synthetic_weights(&mut rng, 300 * 12, pw, ValueDistribution::weights());
        let engine = FunctionalLoom::new(small_geometry());
        let run = engine.run_fc(&spec, &input, &weights, pw);
        assert!(input.iter().all(|&v| v >= 0), "the unsigned branch");
        assert_eq!(run.outputs, fc_forward(&spec, &input, &weights));
        assert!(run.cycles > 0);
        // Negative inputs take the signed branch: one negative lane in the
        // ragged block, and a first block of negatives only.
        let mut signed = input.clone();
        signed[290] = -513;
        for v in &mut signed[..256] {
            *v = -*v - 1;
        }
        let signed_run = engine.run_fc(&spec, &signed, &weights, pw);
        assert_eq!(signed_run.outputs, fc_forward(&spec, &signed, &weights));
        assert_eq!(signed_run.cycles, run.cycles);
    }

    /// Pw sets the cycles and the task plan, not the products, on both layer
    /// types: 8-bit weights passed with Pw = 2 still give the reference
    /// outputs, and the cycles are those of the Pw passed in. (`serial_conv`
    /// is the literal hardware model, so it is compared only at a valid Pw.)
    #[test]
    fn pw_sets_cycles_not_products() {
        let mut rng = StdRng::seed_from_u64(314);
        let p8 = Precision::new(8).unwrap();
        let p2 = Precision::new(2).unwrap();
        let engine = FunctionalLoom::new(small_geometry());

        let spec = ConvSpec {
            padding: 1,
            ..ConvSpec::simple(3, 6, 6, 5, 3)
        };
        let input = Tensor3::from_vec(
            spec.input_shape(),
            synthetic_activations(
                &mut rng,
                spec.input_shape().len(),
                p8,
                ValueDistribution::activations(),
            ),
        )
        .unwrap();
        let weights = Tensor4::from_vec(
            spec.weight_shape(),
            synthetic_weights(
                &mut rng,
                spec.weight_shape().len(),
                p8,
                ValueDistribution::weights(),
            ),
        )
        .unwrap();
        assert!(required_precision(weights.as_slice()) > p2);
        let narrow = engine.run_conv(&spec, &input, &weights, p8, p2);
        let full = engine.run_conv(&spec, &input, &weights, p8, p8);
        assert_eq!(narrow.outputs, conv_forward(&spec, &input, &weights));
        assert_eq!(narrow.reduced_groups, full.reduced_groups);
        assert_eq!(4 * narrow.cycles, full.cycles);

        let spec = FcSpec::new(300, 12);
        let input = synthetic_activations(&mut rng, 300, p8, ValueDistribution::activations());
        let weights = synthetic_weights(&mut rng, 300 * 12, p8, ValueDistribution::weights());
        assert!(required_precision(&weights) > p2);
        let narrow = engine.run_fc(&spec, &input, &weights, p2);
        assert_eq!(narrow.outputs, fc_forward(&spec, &input, &weights));
        assert_eq!(narrow.cycles, engine.fc_cycles(&spec, p2));
        assert!(narrow.cycles < engine.run_fc(&spec, &input, &weights, p8).cycles);
    }

    /// Batches of 1–9 items (a full tile and one more at 9), of differing
    /// widths and some with negative lanes, through both the streamed and
    /// the packed row forms, equal the reference item by item. Input lengths
    /// cover a single lane, one lane short of a block, a full block, one lane
    /// into a second block, and ragged multi-block rows: `run_fc` takes the
    /// packed form for every layer under the store's cap, so this is where
    /// the streamed form stays covered.
    #[test]
    fn fc_batches_match_reference_per_item() {
        let mut rng = StdRng::seed_from_u64(901);
        let pw = Precision::new(7).unwrap();
        let engine = FunctionalLoom::new(small_geometry()).with_threads(2);
        for in_features in [1, 255, 256, 257, 300, 600] {
            let spec = FcSpec::new(in_features, 10);
            let weights =
                synthetic_weights(&mut rng, in_features * 10, pw, ValueDistribution::weights());
            let inputs: Vec<Vec<i32>> = (0..9u8)
                .map(|i| {
                    let pa = Precision::new(1 + i).unwrap();
                    let mut input = synthetic_activations(
                        &mut rng,
                        in_features,
                        pa,
                        ValueDistribution::activations(),
                    );
                    if i % 3 == 2 {
                        input[usize::from(i) * 30 % in_features] = -i32::from(i) - 1;
                    }
                    input
                })
                .collect();
            let rows = PackedRows::pack(&weights, spec.in_features);
            for batch in 1..=inputs.len() {
                let items: Vec<&[i32]> = inputs[..batch].iter().map(Vec::as_slice).collect();
                for packed in [None, Some(&rows)] {
                    let runs = engine.run_fc_batch(&spec, &items, &weights, pw, packed);
                    assert_eq!(runs.len(), batch);
                    for (item, run) in items.iter().zip(&runs) {
                        assert_eq!(
                            run.outputs,
                            fc_forward(&spec, item, &weights),
                            "{in_features} inputs, batch {batch}, packed {}",
                            packed.is_some()
                        );
                        assert_eq!(run.cycles, engine.fc_cycles(&spec, pw));
                    }
                }
            }
        }
    }

    #[test]
    fn fc_threads_do_not_change_results() {
        let spec = FcSpec::new(300, 170);
        let mut rng = StdRng::seed_from_u64(123);
        let pw = Precision::new(7).unwrap();
        let input = synthetic_activations(
            &mut rng,
            300,
            Precision::new(8).unwrap(),
            ValueDistribution::activations(),
        );
        let weights = synthetic_weights(&mut rng, 300 * 170, pw, ValueDistribution::weights());
        let serial = FunctionalLoom::new(small_geometry()).run_fc(&spec, &input, &weights, pw);
        assert_eq!(serial.outputs, fc_forward(&spec, &input, &weights));
        for threads in [2, 5] {
            let parallel = FunctionalLoom::new(small_geometry())
                .with_threads(threads)
                .run_fc(&spec, &input, &weights, pw);
            assert_eq!(parallel, serial, "{threads} threads");
        }
    }

    #[test]
    fn fc_cycles_shrink_with_weight_precision() {
        let spec = FcSpec::new(64, 64);
        let mut rng = StdRng::seed_from_u64(78);
        let input = synthetic_activations(
            &mut rng,
            64,
            Precision::new(8).unwrap(),
            ValueDistribution::activations(),
        );
        let weights = synthetic_weights(
            &mut rng,
            64 * 64,
            Precision::new(4).unwrap(),
            ValueDistribution::weights(),
        );
        let engine = FunctionalLoom::new(small_geometry());
        let narrow = engine.run_fc(&spec, &input, &weights, Precision::new(4).unwrap());
        let wide = engine.run_fc(&spec, &input, &weights, Precision::FULL);
        assert_eq!(narrow.outputs, wide.outputs);
        assert!(narrow.cycles < wide.cycles);
    }

    #[test]
    fn full_scale_geometry_paper_quantum() {
        // With the real 128-row × 16-column grid, a 256-input × 2048-output FC
        // slice at Pw = 16 takes 16 × 16 = 256 cycles of steady state per input
        // chunk — matching DPNN as §3.2 requires.
        let geometry = EquivalentConfig::BASELINE_128.loom(LoomVariant::Lm1b);
        let engine = FunctionalLoom::new(geometry);
        let spec = FcSpec::new(16, 2048);
        let input = vec![1i32; 16];
        let weights = vec![1i32; 16 * 2048];
        let run = engine.run_fc(&spec, &input, &weights, Precision::FULL);
        let fill = (16 - 1) * 16;
        assert_eq!(run.cycles, 256 + fill);
        assert!(run.outputs.iter().all(|&o| o == 16));
    }
}
