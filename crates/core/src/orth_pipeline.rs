//! The orthogonalization pipeline: block pairs streaming through the
//! orth-AIE layers (Algorithm 1 lines 4–16; pipeline model of Fig. 7).
//!
//! Each block-pair pass:
//!
//! 1. **Tx** — the `2k` columns stream from the PL sender FIFOs through
//!    the four input PLIOs (dynamic-forwarding packets, one per column).
//! 2. **Layers** — the pass flows through the `2k−1` orth-layers. Between
//!    layers, columns move per the ordering's movement pattern; neighbor
//!    accesses cost a lock hand-off, DMA transfers serialize on the
//!    layer's DMA channel and occupy a doubled buffer. Band-break
//!    transitions (across placement bands) route through a mem-layer:
//!    every column pays a double DMA hop.
//! 3. **Rx** — updated columns return to the PL receiver FIFOs over the
//!    two output PLIOs; the blocks become available for their next pass.
//!
//! Passes pipeline freely until a round-robin dependency forces a stall
//! (a block's next pass cannot start before its previous Rx completes) —
//! the `t_algo`/`t_datawait` effects of Eq. (10)–(11) emerge from this
//! dependency tracking rather than being bolted on.
//!
//! # Hot-path memory discipline
//!
//! `run_pass` executes once per block pair per iteration — hundreds of
//! thousands of times in a large factorization — so it must not touch
//! the allocator. Everything a pass needs is prepared once:
//!
//! * immutable plan data (schedule, movement classification, port maps,
//!   cost models) lives in the shared [`PlanHandle`] and is *borrowed*,
//!   never cloned, per layer;
//! * mutable scratch (`col_avail`, `prev_end`, `slot_ready`,
//!   `layer_end`, pair/column/convergence buffers) lives in
//!   `PassScratch`, sized at construction and reused via
//!   `clear()`/overwrite every pass;
//! * all transfer/kernel durations depend only on the configuration, so
//!   they are computed once in [`OrthPipeline::new`].
//!
//! The steady-state pass therefore performs zero heap allocations (the
//! counting-allocator test in `tests/zero_alloc.rs` enforces this).

use crate::config::{FidelityMode, HeteroSvdConfig};
use crate::plan_cache::{PlanHandle, StepKind};
use crate::replay::TimingProfile;
use aie_sim::plio::PlioDirection;
use aie_sim::stats::SimStats;
use aie_sim::time::TimePs;
use aie_sim::timeline::Timeline;
use std::sync::Arc;
use svd_kernels::adaptive::{did_rotate, AdaptiveState};
use svd_kernels::parallel::{
    orthogonalize_pairs_serial, orthogonalize_pairs_serial_adaptive, RotationPool,
};
use svd_kernels::Matrix;

/// One block-pair pass in the execution trace (enabled with
/// [`crate::HeteroSvdConfigBuilder::record_trace`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PassRecord {
    /// Outer iteration index.
    pub iteration: usize,
    /// Pass index within the iteration.
    pub pass: usize,
    /// The block pair processed.
    pub blocks: (usize, usize),
    /// When the pass's Tx became eligible (both blocks ready).
    pub ready: TimePs,
    /// When both blocks were back in the PL FIFOs.
    pub end: TimePs,
}

/// Result of one orthogonalization iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationOutcome {
    /// Wall-clock completion time of the iteration.
    pub end: TimePs,
    /// Largest Eq. (6) convergence measure observed (0 in timing-only).
    pub max_convergence: f64,
    /// Non-identity rotations applied (0 in timing-only).
    pub rotations: usize,
}

/// Reusable per-pass scratch, allocated once and recycled every pass.
#[derive(Debug)]
struct PassScratch {
    /// Tx completion time of each local column (len `2k`).
    col_avail: Vec<TimePs>,
    /// Completion time of each slot in the previous layer (len `k`).
    prev_end: Vec<TimePs>,
    /// Input-ready time of each slot in the current layer (len `k`).
    slot_ready: Vec<TimePs>,
    /// Completion time of each slot in the current layer (len `k`).
    layer_end: Vec<TimePs>,
    /// Global column indices of the current block pair (capacity `2k`).
    cols: Vec<usize>,
    /// Global column-index pairs of the current layer (capacity `k`).
    pairs: Vec<(usize, usize)>,
    /// Per-slot convergence values of the current layer (len `k`).
    conv: Vec<f32>,
    /// Dirty-column/pair-cache state of the convergence-adaptive engine
    /// (`None` with [`crate::HeteroSvdConfig::adaptive_sweeps`] off or
    /// outside functional fidelity). Sized once at construction — the
    /// steady-state pass stays allocation-free.
    adaptive: Option<AdaptiveState<f32>>,
}

/// Host-compute counters of the convergence-adaptive engine: how much
/// functional work the gating and the dirty-column cache avoided. Purely
/// observational — modeled timing and [`SimStats`] never depend on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct AdaptiveCounters {
    /// Visits answered from the pair cache (both columns untouched since
    /// a gated visit): even the dot products were skipped.
    pub memo_skips: u64,
    /// Visits that ran the dot products but skipped `compute_rotation`
    /// and the O(n) apply (measure below the sweep threshold).
    pub gated_rotations: u64,
}

/// The orth-stage simulator. One instance persists across iterations so
/// that resource timelines (and therefore pipelining) carry over.
#[derive(Debug)]
pub struct OrthPipeline<'a> {
    config: &'a HeteroSvdConfig,
    plan: &'a PlanHandle,
    plio_in: Vec<Timeline>,
    plio_out: Vec<Timeline>,
    cores: Vec<Timeline>,
    /// Per-(layer, slot) tile DMA channels (lateral DMA and band-break
    /// copies through the mem-layer tiles run in parallel across slots).
    dma_channels: Vec<Timeline>,
    /// Per-layer DMA-layer tile channel (the wraparound copy's landing
    /// buffer is a single dedicated mem-AIE per layer, §III-C).
    wrap_channels: Vec<Timeline>,
    /// Per-layer row stream-switch backbone: lateral DMA hops within a
    /// row share its bandwidth and serialize (the congestion the
    /// co-design eliminates).
    switch_channels: Vec<Timeline>,
    /// Time each block's data is available in the PL FIFOs.
    block_ready: Vec<TimePs>,
    /// Input PLIO port of each local column (precomputed, len `2k`).
    in_ports: Vec<usize>,
    /// Output PLIO port of each local column (precomputed, len `2k`).
    out_ports: Vec<usize>,
    /// Final-layer slot of each local column (precomputed, len `2k`).
    rx_slot: Vec<usize>,
    scratch: PassScratch,
    // Durations depend only on the configuration: computed once.
    tx_dur: TimePs,
    rx_dur: TimePs,
    orth_dur: TimePs,
    neighbor_dur: TimePs,
    lateral_dur: TimePs,
    wrap_dur: TimePs,
    break_dur: TimePs,
    hls_dur: TimePs,
    /// Numerical-noise gate for rotations (see
    /// [`svd_kernels::rotation::compute_rotation_gated`]).
    norm_floor_sq: f32,
    stats: SimStats,
    trace: Vec<PassRecord>,
    iterations_run: usize,
    /// Cached timing profile of this plan; when set and valid for the
    /// initial block-ready state, iterations replay it instead of
    /// re-scheduling every [`Timeline`].
    replay: Option<Arc<TimingProfile>>,
    /// Whether iterations replay from the profile, decided once at the
    /// first iteration (a run never switches live ↔ replay mid-flight:
    /// replay does not advance the timelines, so the live path could not
    /// resume from a replayed prefix).
    replay_active: bool,
}

impl<'a> OrthPipeline<'a> {
    /// Builds the pipeline for a validated configuration and its plan.
    pub fn new(config: &'a HeteroSvdConfig, plan: &'a PlanHandle) -> Self {
        let k = config.engine_parallelism;
        let layers = plan.placement.num_layers();
        let m_bytes = config.column_bytes();
        let plio_plan = plan.plio_plan;
        // Interface contention (Eq. 8–10 under co-residency): the 32/24
        // GB/s directional caps are per interface *group* — one task
        // pipeline's port set — not array-global (see
        // [`aie_sim::plio`]; it is how the paper's 26 parallel task
        // pipelines scale linearly in Table VI). A co-resident tenant's
        // full-height stripe sits over its own AIE–PL interface columns
        // and owns a disjoint PLIO lane block
        // ([`crate::routing::assign_tenant_lanes`]), so each tenant
        // throttles only against its own group cap: `active_ports` is
        // the tenant's own port count regardless of `co_residency`.
        // Cross-tenant contention is carried by the shared NoC/DDR path
        // instead (`DdrModel::contended_burst_time` splits sustained
        // bandwidth `co_residency` ways on initial block loads and the
        // result store).
        let active_ports = plio_plan.orth_in;
        let in_ports: Vec<usize> = (0..2 * k)
            .map(|c| plio_plan.input_port_of_column(c, k))
            .collect();
        let out_ports: Vec<usize> = (0..2 * k)
            .map(|c| plio_plan.output_port_of_column(c, k))
            .collect();
        let mut rx_slot = vec![0usize; 2 * k];
        let last_layer = plan
            .schedule
            .layers()
            .last()
            .expect("k >= 1 guarantees layers");
        for (s, &(i, j)) in last_layer.pairs_by_slot.iter().enumerate() {
            rx_slot[i] = s;
            rx_slot[j] = s;
        }
        OrthPipeline {
            config,
            plan,
            plio_in: vec![Timeline::new(); plio_plan.orth_in],
            plio_out: vec![Timeline::new(); plio_plan.orth_out],
            cores: vec![Timeline::new(); layers * k],
            dma_channels: vec![Timeline::new(); layers.max(1) * k],
            wrap_channels: vec![Timeline::new(); layers.max(1)],
            switch_channels: vec![Timeline::new(); layers.max(1)],
            block_ready: vec![TimePs::ZERO; plan.partition.num_blocks()],
            in_ports,
            out_ports,
            rx_slot,
            scratch: PassScratch {
                col_avail: vec![TimePs::ZERO; 2 * k],
                prev_end: vec![TimePs::ZERO; k],
                slot_ready: vec![TimePs::ZERO; k],
                layer_end: vec![TimePs::ZERO; k],
                cols: Vec::with_capacity(2 * k),
                pairs: Vec::with_capacity(k),
                conv: vec![0.0; k],
                adaptive: (config.adaptive_sweeps && config.fidelity == FidelityMode::Functional)
                    .then(|| AdaptiveState::new(config.cols)),
            },
            tx_dur: plan.plio.throttled_transfer_time(
                m_bytes,
                1,
                PlioDirection::ToAie,
                active_ports,
            ),
            rx_dur: plan.plio.throttled_transfer_time(
                m_bytes,
                1,
                PlioDirection::ToPl,
                active_ports,
            ),
            orth_dur: plan.kernels.orth_time(config.rows),
            neighbor_dur: plan.kernels.neighbor_handoff_time(),
            // Route lengths: lateral DMA crosses one switch boundary; the
            // wraparound spans the band (k columns plus the DMA-layer
            // tile); band-break hops climb to the boundary mem-layer and
            // descend into the next band.
            lateral_dur: plan.dma.transfer_time_with_hops(m_bytes, 2),
            wrap_dur: plan.dma.transfer_time_with_hops(m_bytes, k as u64 + 1),
            break_dur: plan.dma.transfer_time_with_hops(m_bytes, 3),
            hls_dur: plan.pl.hls_overhead(1, config.pl_freq),
            norm_floor_sq: 0.0,
            stats: SimStats::new(),
            trace: Vec::new(),
            iterations_run: 0,
            replay: None,
            replay_active: false,
        }
    }

    /// Sets the initial availability of each block (the serialized DDR
    /// loads of the first iteration, Eq. 12).
    pub fn set_block_ready(&mut self, ready: Vec<TimePs>) {
        assert_eq!(ready.len(), self.block_ready.len(), "block count mismatch");
        self.block_ready = ready;
    }

    /// Sets the numerical-noise floor for rotation gating (computed from
    /// the input matrix; see [`Matrix::column_norm_floor_sq`]).
    pub fn set_norm_floor_sq(&mut self, floor_sq: f32) {
        self.norm_floor_sq = floor_sq;
    }

    /// Sets the adaptive engine's rotation threshold for the next
    /// iteration (the driver derives it from the previous iteration's
    /// convergence; see [`svd_kernels::adaptive::sweep_threshold`]).
    /// No-op when the adaptive engine is off; `0` keeps it inert.
    pub fn set_rotation_threshold(&mut self, threshold: f64) {
        if let Some(state) = self.scratch.adaptive.as_mut() {
            state.set_threshold(threshold as f32);
        }
    }

    /// The adaptive engine's skipped-work counters, `None` when it is
    /// off.
    pub fn adaptive_counters(&self) -> Option<AdaptiveCounters> {
        self.scratch.adaptive.as_ref().map(|s| AdaptiveCounters {
            memo_skips: s.memo_skips(),
            gated_rotations: s.gated_rotations(),
        })
    }

    /// Attaches a cached timing profile. Replay only activates if, at the
    /// first iteration, the pipeline's block-ready state equals the state
    /// the profile was probed from (anything else falls back to live
    /// simulation — attaching a profile can never change results).
    pub fn set_replay_profile(&mut self, profile: Arc<TimingProfile>) {
        assert_eq!(
            self.iterations_run, 0,
            "a profile must be attached before the first iteration"
        );
        self.replay = Some(profile);
    }

    /// Whether iterations are replaying the attached profile (meaningful
    /// after the first iteration has run).
    pub fn replay_active(&self) -> bool {
        self.replay_active
    }

    /// Snapshot of all mutable timing state: every block's ready time
    /// followed by every resource timeline's `available_at`. Two
    /// consecutive iterations whose signatures differ by one uniform
    /// shift prove the schedule is steady (see [`crate::replay`]).
    pub(crate) fn state_signature(&self) -> Vec<TimePs> {
        let timelines = self.plio_in.len()
            + self.plio_out.len()
            + self.cores.len()
            + self.dma_channels.len()
            + self.wrap_channels.len()
            + self.switch_channels.len();
        let mut sig = Vec::with_capacity(self.block_ready.len() + timelines);
        sig.extend(self.block_ready.iter().copied());
        for t in self
            .plio_in
            .iter()
            .chain(&self.plio_out)
            .chain(&self.cores)
            .chain(&self.dma_channels)
            .chain(&self.wrap_channels)
            .chain(&self.switch_channels)
        {
            sig.push(t.available_at());
        }
        sig
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Consumes the pipeline, returning its statistics.
    pub fn into_stats(self) -> SimStats {
        self.stats
    }

    /// The recorded execution trace (empty unless
    /// [`crate::HeteroSvdConfig::record_trace`] is set).
    pub fn trace(&self) -> &[PassRecord] {
        &self.trace
    }

    /// Consumes the pipeline, returning `(stats, trace)`.
    pub fn into_parts(self) -> (SimStats, Vec<PassRecord>) {
        (self.stats, self.trace)
    }

    /// Runs one full iteration over all block pairs, updating `b` in
    /// place when the fidelity is functional (serial rotations).
    pub fn run_iteration(&mut self, b: &mut Matrix<f32>) -> IterationOutcome {
        self.run_iteration_with(b, None)
    }

    /// [`OrthPipeline::run_iteration`] with an optional worker pool: a
    /// layer's independent rotations are distributed across the pool,
    /// producing bit-identical results to the serial path (disjoint
    /// columns; convergence reduced in slot order).
    pub fn run_iteration_with(
        &mut self,
        b: &mut Matrix<f32>,
        pool: Option<&RotationPool>,
    ) -> IterationOutcome {
        // Span bracketing is observational: the modeled clock below never
        // reads the wall clock, so the knob cannot perturb timing. The
        // journal's ring is preallocated and sampled-out spans are two
        // atomic ops, keeping the iteration allocation-free either way.
        let span_start = self.config.observability.then(std::time::Instant::now);
        if self.iterations_run == 0 {
            self.replay_active = self
                .replay
                .as_ref()
                .is_some_and(|p| p.initial_block_ready() == self.block_ready.as_slice());
        }
        let outcome = if self.replay_active {
            let profile = Arc::clone(self.replay.as_ref().expect("replay_active implies profile"));
            self.run_iteration_replay(&profile, b, pool)
        } else {
            self.run_iteration_live(b, pool)
        };
        if let Some(t0) = span_start {
            crate::obs::global().record(
                crate::obs::Stage::SimReplay,
                None,
                t0.elapsed(),
                Some(outcome.end),
            );
        }
        outcome
    }

    /// One fully live-simulated iteration (every `Timeline` scheduled).
    fn run_iteration_live(
        &mut self,
        b: &mut Matrix<f32>,
        pool: Option<&RotationPool>,
    ) -> IterationOutcome {
        let plan = self.plan;
        let mut max_conv = 0.0_f64;
        let mut rotations = 0usize;
        let mut iteration_end = self
            .block_ready
            .iter()
            .copied()
            .fold(TimePs::ZERO, TimePs::max);

        // Config validation guarantees cols % (2·P_eng) == 0, so there are
        // always at least two blocks.
        debug_assert!(plan.partition.num_blocks() >= 2, "block count must be >= 2");
        for (pass, (u, v)) in plan.pair_schedule.iter().enumerate() {
            let ready = self.block_ready[u].max(self.block_ready[v]);
            let end = self.run_pass(b, u, v, pool, &mut max_conv, &mut rotations);
            if self.config.record_trace {
                self.trace.push(PassRecord {
                    iteration: self.iterations_run,
                    pass,
                    blocks: (u, v),
                    ready,
                    end,
                });
            }
            iteration_end = iteration_end.max(end);
        }

        self.iterations_run += 1;
        self.stats.iterations += 1;
        IterationOutcome {
            end: iteration_end,
            max_convergence: max_conv,
            rotations,
        }
    }

    /// One iteration via the cached profile: the functional math still
    /// runs (same pass/layer/slot order as the live path, so results are
    /// bit-identical), but all timing — pass records, the iteration end,
    /// the stats delta — comes from O(1) profile lookups instead of
    /// `Timeline` scheduling. Zero allocations outside trace recording,
    /// like the live path.
    fn run_iteration_replay(
        &mut self,
        profile: &TimingProfile,
        b: &mut Matrix<f32>,
        pool: Option<&RotationPool>,
    ) -> IterationOutcome {
        let plan = self.plan;
        let iteration = self.iterations_run;
        let mut max_conv = 0.0_f64;
        let mut rotations = 0usize;

        if self.config.fidelity == FidelityMode::Functional {
            let layers = plan.placement.num_layers();
            for (u, v) in plan.pair_schedule.iter() {
                self.scratch.cols.clear();
                self.scratch.cols.extend(plan.partition.block_range(u));
                self.scratch.cols.extend(plan.partition.block_range(v));
                for layer in 0..layers {
                    let pairs = &plan.schedule.layers()[layer].pairs_by_slot;
                    self.scratch.pairs.clear();
                    for &(i, j) in pairs.iter() {
                        self.scratch
                            .pairs
                            .push((self.scratch.cols[i], self.scratch.cols[j]));
                    }
                    match (pool, self.scratch.adaptive.as_mut()) {
                        (Some(pool), Some(state)) => pool.execute_adaptive(
                            b,
                            &self.scratch.pairs,
                            self.norm_floor_sq,
                            &mut self.scratch.conv,
                            state,
                        ),
                        (Some(pool), None) => pool.execute(
                            b,
                            &self.scratch.pairs,
                            self.norm_floor_sq,
                            &mut self.scratch.conv,
                        ),
                        (None, Some(state)) => orthogonalize_pairs_serial_adaptive(
                            b,
                            &self.scratch.pairs,
                            self.norm_floor_sq,
                            &mut self.scratch.conv,
                            state,
                        ),
                        (None, None) => orthogonalize_pairs_serial(
                            b,
                            &self.scratch.pairs,
                            self.norm_floor_sq,
                            &mut self.scratch.conv,
                        ),
                    }
                    // Reduce in slot order, exactly like the live path.
                    // Without the adaptive state the threshold is 0 and
                    // `did_rotate` degenerates to the legacy `conv > 0`.
                    let threshold = self
                        .scratch
                        .adaptive
                        .as_ref()
                        .map_or(0.0, |s| s.threshold());
                    for &conv in &self.scratch.conv[..pairs.len()] {
                        if did_rotate(conv, threshold) {
                            rotations += 1;
                        }
                        let conv = conv as f64;
                        if conv > max_conv {
                            max_conv = conv;
                        }
                    }
                }
            }
        }

        if self.config.record_trace {
            profile.for_each_pass(iteration, |pass, p| {
                self.trace.push(PassRecord {
                    iteration,
                    pass,
                    blocks: p.blocks,
                    ready: p.ready,
                    end: p.end,
                });
            });
        }

        self.stats.accumulate(profile.iter_stats());
        self.iterations_run += 1;
        IterationOutcome {
            end: profile.iteration_end(iteration),
            max_convergence: max_conv,
            rotations,
        }
    }

    /// Streams one block pair through the array. Returns the time both
    /// blocks are back in the PL FIFOs.
    fn run_pass(
        &mut self,
        b: &mut Matrix<f32>,
        u: usize,
        v: usize,
        pool: Option<&RotationPool>,
        max_conv: &mut f64,
        rotations: &mut usize,
    ) -> TimePs {
        let plan = self.plan;
        let k = self.config.engine_parallelism;
        let m_bytes = self.config.column_bytes();
        let ready = self.block_ready[u].max(self.block_ready[v]);
        let functional = self.config.fidelity == FidelityMode::Functional;

        self.scratch.cols.clear();
        self.scratch.cols.extend(plan.partition.block_range(u));
        self.scratch.cols.extend(plan.partition.block_range(v));
        let num_cols = self.scratch.cols.len();

        // ---- Tx: PL -> AIE over the four input ports (Eq. 8). ----
        for local in 0..num_cols {
            let (_, end) = self.plio_in[self.in_ports[local]].schedule(ready, self.tx_dur);
            self.scratch.col_avail[local] = end;
            self.stats.plio_bytes_in += m_bytes;
            self.stats.plio_busy += self.tx_dur;
            self.stats.plio_transfers += 1;
        }

        // ---- Layers. ----
        let layers = plan.placement.num_layers();
        self.scratch.prev_end.fill(TimePs::ZERO);
        for layer in 0..layers {
            let pairs = &plan.schedule.layers()[layer].pairs_by_slot;

            if layer == 0 {
                for (s, &(i, j)) in pairs.iter().enumerate() {
                    self.scratch.slot_ready[s] =
                        self.scratch.col_avail[i].max(self.scratch.col_avail[j]);
                }
            } else {
                self.movement_ready(layer, m_bytes);
            }

            for s in 0..pairs.len() {
                let (_, end) =
                    self.cores[layer * k + s].schedule(self.scratch.slot_ready[s], self.orth_dur);
                self.scratch.layer_end[s] = end;
                self.stats.orth_invocations += 1;
                self.stats.orth_busy += self.orth_dur;
            }
            if functional {
                self.scratch.pairs.clear();
                for &(i, j) in pairs.iter() {
                    self.scratch
                        .pairs
                        .push((self.scratch.cols[i], self.scratch.cols[j]));
                }
                match (pool, self.scratch.adaptive.as_mut()) {
                    (Some(pool), Some(state)) => pool.execute_adaptive(
                        b,
                        &self.scratch.pairs,
                        self.norm_floor_sq,
                        &mut self.scratch.conv,
                        state,
                    ),
                    (Some(pool), None) => pool.execute(
                        b,
                        &self.scratch.pairs,
                        self.norm_floor_sq,
                        &mut self.scratch.conv,
                    ),
                    (None, Some(state)) => orthogonalize_pairs_serial_adaptive(
                        b,
                        &self.scratch.pairs,
                        self.norm_floor_sq,
                        &mut self.scratch.conv,
                        state,
                    ),
                    (None, None) => orthogonalize_pairs_serial(
                        b,
                        &self.scratch.pairs,
                        self.norm_floor_sq,
                        &mut self.scratch.conv,
                    ),
                }
                // Reduce in slot order so the serial and parallel paths
                // accumulate identically. Without the adaptive state the
                // threshold is 0 and `did_rotate` degenerates to the
                // legacy `conv > 0` count.
                let threshold = self
                    .scratch
                    .adaptive
                    .as_ref()
                    .map_or(0.0, |s| s.threshold());
                for &conv in &self.scratch.conv[..pairs.len()] {
                    if did_rotate(conv, threshold) {
                        *rotations += 1;
                    }
                    let conv = conv as f64;
                    if conv > *max_conv {
                        *max_conv = conv;
                    }
                }
            }
            std::mem::swap(&mut self.scratch.prev_end, &mut self.scratch.layer_end);
        }

        // ---- Rx: AIE -> PL over the two output ports. ----
        let mut block_u_end = TimePs::ZERO;
        let mut block_v_end = TimePs::ZERO;
        for local in 0..num_cols {
            let rx_ready = self.scratch.prev_end[self.rx_slot[local]];
            let (_, end) = self.plio_out[self.out_ports[local]].schedule(rx_ready, self.rx_dur);
            self.stats.plio_bytes_out += m_bytes;
            self.stats.plio_busy += self.rx_dur;
            self.stats.plio_transfers += 1;
            if local < k {
                block_u_end = block_u_end.max(end);
            } else {
                block_v_end = block_v_end.max(end);
            }
        }

        // HLS loop-switch overhead when the receiver hands the blocks back
        // to the arrangement module (t_hls contribution per pass).
        self.block_ready[u] = block_u_end + self.hls_dur;
        self.block_ready[v] = block_v_end + self.hls_dur;
        self.block_ready[u].max(self.block_ready[v])
    }

    /// Computes each slot's input-ready time for the transition into
    /// `layer` from the plan's pre-classified movement table, scheduling
    /// DMA transfers on the appropriate channels.
    fn movement_ready(&mut self, layer: usize, m_bytes: usize) {
        let plan = self.plan;
        let k = self.config.engine_parallelism;
        self.scratch.slot_ready.fill(TimePs::ZERO);
        for step in &plan.movement[layer - 1] {
            let ready = self.scratch.prev_end[step.producer];
            let arrival = match step.kind {
                StepKind::BandBreak => {
                    // Through the mem-layer: two DMA hops (store + reload),
                    // parallel across the k mem-layer tiles.
                    let channel = layer * k + step.producer;
                    let (_, mid) = self.dma_channels[channel].schedule(ready, self.break_dur);
                    let (_, end) = self.dma_channels[channel].schedule(mid, self.break_dur);
                    self.stats.dma_transfers += 2;
                    self.stats.dma_bytes += 2 * m_bytes;
                    self.stats.dma_busy += self.break_dur + self.break_dur;
                    end
                }
                StepKind::Neighbor => {
                    self.stats.neighbor_accesses += 1;
                    ready + self.neighbor_dur
                }
                StepKind::Wrap => {
                    // Through the layer's DMA-layer tile.
                    let (_, end) = self.wrap_channels[layer].schedule(ready, self.wrap_dur);
                    self.stats.dma_transfers += 1;
                    self.stats.dma_bytes += m_bytes;
                    self.stats.dma_busy += self.wrap_dur;
                    end
                }
                StepKind::Lateral => {
                    // Lateral DMA: hops along the row's stream switch.
                    let (_, end) = self.switch_channels[layer].schedule(ready, self.lateral_dur);
                    self.stats.dma_transfers += 1;
                    self.stats.dma_bytes += m_bytes;
                    self.stats.dma_busy += self.lateral_dur;
                    end
                }
            };
            self.scratch.slot_ready[step.slot] = self.scratch.slot_ready[step.slot].max(arrival);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HeteroSvdConfig;
    use svd_kernels::block::BlockPartition;
    use svd_orderings::movement::{DataflowKind, OrderingKind};

    fn config(n: usize, p_eng: usize) -> HeteroSvdConfig {
        HeteroSvdConfig::builder(n, n)
            .engine_parallelism(p_eng)
            .pl_freq_mhz(208.3)
            .build()
            .unwrap()
    }

    fn run_one(config: &HeteroSvdConfig, b: &mut Matrix<f32>) -> (IterationOutcome, SimStats) {
        let plan = PlanHandle::build(config).unwrap();
        let mut pipe = OrthPipeline::new(config, &plan);
        let out = pipe.run_iteration(b);
        (out, pipe.into_stats())
    }

    fn sample(n: usize) -> Matrix<f32> {
        Matrix::from_fn(n, n, |r, c| {
            (((r * 31 + c * 17 + 3) % 13) as f32) / 3.0 - 2.0 + if r == c { 2.0 } else { 0.0 }
        })
    }

    #[test]
    fn iteration_reduces_convergence() {
        let cfg = config(16, 2);
        let mut b = sample(16);
        let plan = PlanHandle::build(&cfg).unwrap();
        let mut pipe = OrthPipeline::new(&cfg, &plan);
        let first = pipe.run_iteration(&mut b);
        let mut later = first;
        for _ in 0..4 {
            later = pipe.run_iteration(&mut b);
        }
        assert!(first.max_convergence > 0.0);
        assert!(
            later.max_convergence < first.max_convergence,
            "{} -> {}",
            first.max_convergence,
            later.max_convergence
        );
    }

    #[test]
    fn time_advances_monotonically() {
        let cfg = config(16, 2);
        let mut b = sample(16);
        let plan = PlanHandle::build(&cfg).unwrap();
        let mut pipe = OrthPipeline::new(&cfg, &plan);
        let t1 = pipe.run_iteration(&mut b).end;
        let t2 = pipe.run_iteration(&mut b).end;
        assert!(t2 > t1);
        assert!(t1 > TimePs::ZERO);
    }

    #[test]
    fn codesign_produces_fewer_dmas_than_naive() {
        // k = 3 keeps the 5 orth-layers in a single band, so no band-break
        // DMA clouds the comparison: per pass, ring+naive needs 2k(k-1)=12
        // DMAs and the co-design 2(k-1)=4 — a 3x reduction.
        let mut naive_cfg = config(24, 3);
        naive_cfg.ordering = OrderingKind::Ring;
        naive_cfg.dataflow = DataflowKind::NaiveMemory;
        let codesign_cfg = config(24, 3);

        let (_, naive_stats) = run_one(&naive_cfg, &mut sample(24));
        let (_, codesign_stats) = run_one(&codesign_cfg, &mut sample(24));
        assert_eq!(naive_stats.dma_transfers, 3 * codesign_stats.dma_transfers);
        let passes = naive_cfg.num_block_pairs();
        assert_eq!(naive_stats.dma_transfers, passes * 12);
        assert_eq!(codesign_stats.dma_transfers, passes * 4);
    }

    #[test]
    fn codesign_is_faster_than_naive() {
        let mut naive_cfg = config(32, 4);
        naive_cfg.ordering = OrderingKind::Ring;
        naive_cfg.dataflow = DataflowKind::NaiveMemory;
        let codesign_cfg = config(32, 4);

        let (naive, _) = run_one(&naive_cfg, &mut sample(32));
        let (codesign, _) = run_one(&codesign_cfg, &mut sample(32));
        assert!(
            codesign.end < naive.end,
            "codesign {} vs naive {}",
            codesign.end,
            naive.end
        );
    }

    #[test]
    fn dma_counts_match_movement_analysis() {
        // Single-band placement (k=2 -> 3 layers), one block pair per
        // iteration pass set: DMA per pass must equal the per-pass
        // analysis formula.
        let cfg = config(16, 2);
        let plan = PlanHandle::build(&cfg).unwrap();
        assert_eq!(plan.placement.num_bands(), 1);
        let (_, stats) = run_one(&cfg, &mut sample(16));
        let passes = cfg.num_block_pairs();
        let per_pass = svd_orderings::movement::codesign_dma_count(2);
        assert_eq!(stats.dma_transfers, passes * per_pass);
    }

    #[test]
    fn stats_count_invocations_and_bytes() {
        let cfg = config(16, 2);
        let (_, stats) = run_one(&cfg, &mut sample(16));
        let passes = cfg.num_block_pairs(); // p=8 blocks -> 28 passes
        let pairs_per_pass = 2 * (2 * 2 - 1); // k(2k-1) = 6
        assert_eq!(stats.orth_invocations, passes * pairs_per_pass);
        // Every pass moves 2k columns in and out.
        assert_eq!(stats.plio_bytes_in, passes * 4 * 16 * 4);
        assert_eq!(stats.plio_bytes_out, stats.plio_bytes_in);
    }

    #[test]
    fn trace_records_every_pass_and_shows_pipelining() {
        let mut cfg = config(16, 2);
        cfg.record_trace = true;
        let plan = PlanHandle::build(&cfg).unwrap();
        let mut pipe = OrthPipeline::new(&cfg, &plan);
        let mut b = sample(16);
        pipe.run_iteration(&mut b);
        pipe.run_iteration(&mut b);
        let trace = pipe.trace();
        assert_eq!(trace.len(), 2 * cfg.num_block_pairs());
        // Pass ends are strictly increasing in schedule order.
        for w in trace.windows(2) {
            assert!(w[1].end > w[0].end);
        }
        // Pipelining: some pass becomes ready before its predecessor ends.
        let overlapped = trace.windows(2).any(|w| w[1].ready < w[0].end);
        assert!(overlapped, "expected overlapping passes in the pipeline");
        // Iteration indices recorded.
        assert_eq!(trace.first().unwrap().iteration, 0);
        assert_eq!(trace.last().unwrap().iteration, 1);
    }

    #[test]
    fn trace_is_empty_when_disabled() {
        let cfg = config(16, 2);
        let plan = PlanHandle::build(&cfg).unwrap();
        let mut pipe = OrthPipeline::new(&cfg, &plan);
        pipe.run_iteration(&mut sample(16));
        assert!(pipe.trace().is_empty());
    }

    #[test]
    fn functional_matches_software_block_jacobi() {
        // One hardware iteration must produce the same matrix as one
        // software block-Jacobi iteration (same pair order, same math).
        let cfg = config(16, 2);
        let mut hw = sample(16);
        run_one(&cfg, &mut hw);

        let mut sw = sample(16);
        let floor = sw.column_norm_floor_sq();
        let partition = BlockPartition::new(16, 2).unwrap();
        let schedule = svd_kernels::block::BlockPairSchedule::round_robin(8);
        for (u, v) in schedule.iter() {
            let cols = partition.pair_columns(u, v);
            svd_kernels::block::orthogonalize_column_set(&mut sw, &cols, floor);
        }
        for c in 0..16 {
            for r in 0..16 {
                let d = (hw[(r, c)] - sw[(r, c)]).abs();
                assert!(d < 1e-6, "mismatch at ({r},{c}): {d}");
            }
        }
    }

    #[test]
    fn parallel_iteration_is_bit_identical_to_serial() {
        let cfg = config(24, 3);
        let plan = PlanHandle::build(&cfg).unwrap();

        let mut serial = sample(24);
        let mut pipe_s = OrthPipeline::new(&cfg, &plan);
        let out_s = pipe_s.run_iteration(&mut serial);

        let mut pooled = sample(24);
        let mut pipe_p = OrthPipeline::new(&cfg, &plan);
        let out_p = svd_kernels::parallel::with_pool(3, |pool| {
            pipe_p.run_iteration_with(&mut pooled, Some(pool))
        });

        assert_eq!(serial.as_slice(), pooled.as_slice());
        assert_eq!(out_s, out_p);
        assert_eq!(pipe_s.stats(), pipe_p.stats());
    }
}
