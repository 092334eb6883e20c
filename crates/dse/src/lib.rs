#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Design-space exploration for HeteroSVD micro-architectures
//! (§IV-C, Eq. 15–16).
//!
//! Given a problem (`M × N`, batch size `B`), the DSE selects the
//! first-order parameters of Table I — engine parallelism `P_eng`, task
//! parallelism `P_task`, and the PL frequency — minimizing runtime subject
//! to the AIE / PLIO / BRAM / URAM budgets:
//!
//! ```text
//! min  runtime(P_eng, P_task, Freq)
//! s.t. Resourceᵢ(P_eng, P_task) ≤ Cᵢ,  i ∈ {AIE, PLIO, BRAM, URAM}
//! ```
//!
//! The two-stage flow of Fig. 8:
//!
//! 1. **Stage 1 — feasibility.** Enumerate `P_eng`; for each, place the
//!    design ([`heterosvd::Placement`]) and keep every `P_task` whose
//!    resource usage fits the VCK190 budgets (Eq. 16).
//! 2. **Stage 2 — evaluation.** Score each feasible point with the
//!    analytic performance model ([`perf_model::estimate`]) and the
//!    power model, then pick the optimum for the requested objective
//!    (latency or throughput).
//!
//! The sweep parallelizes over `P_eng` on the workspace's shared
//! [`heterosvd::BatchPool`] — the full space (≤ 286 points, §IV-A)
//! evaluates in milliseconds, compared to "more than seven hours" per
//! point through the vendor EDA flow.
//!
//! # Example
//!
//! ```
//! use heterosvd_dse::{DseConfig, Objective, run_dse};
//!
//! let result = run_dse(&DseConfig::new(256, 256).batch(100).iterations(6));
//! let best = result.best(Objective::MaxThroughput).expect("feasible design");
//! assert!(best.point.task_parallelism >= 1);
//! ```

use aie_sim::calibration::{Calibration, PowerCalibration};
use aie_sim::device::DeviceProfile;
use aie_sim::resources::{ResourceBudget, ResourceUsage};
use aie_sim::time::TimePs;
use heterosvd::{tenant_capacity, HeteroSvdConfig, Placement};
use perf_model::{estimate_with, Bottleneck, DesignPoint};
use serde::{Deserialize, Serialize};

/// Optimization objective (the paper optimizes either latency or
/// throughput depending on the application scenario, §IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Objective {
    /// Minimize single-task latency (`t_task`).
    MinLatency,
    /// Maximize batch throughput (tasks/s).
    MaxThroughput,
    /// Maximize energy efficiency (tasks/s/W).
    MaxEnergyEfficiency,
}

/// DSE problem description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DseConfig {
    /// Matrix rows.
    pub rows: usize,
    /// Matrix columns.
    pub cols: usize,
    /// Batch size `B` (number of independent tasks).
    pub batch: usize,
    /// Orthogonalization iterations per task.
    pub iterations: usize,
    /// Optional fixed PL frequency in MHz (default: each design's
    /// achievable frequency).
    pub freq_mhz: Option<f64>,
    /// Optional candidate frequency grid in MHz: each candidate at or
    /// below a design's achievable frequency is evaluated as a separate
    /// point (the third first-order parameter of Table I). Ignored when
    /// `freq_mhz` is set.
    pub freq_candidates_mhz: Vec<f64>,
    /// Resource budgets (default VCK190). Checked *in addition to* the
    /// device's own budget — override to model what-if capacities.
    pub budget: ResourceBudget,
    /// Target device profile (default VCK190).
    pub device: DeviceProfile,
    /// Timing calibration.
    pub calibration: Calibration,
    /// Power calibration.
    pub power: PowerCalibration,
}

impl DseConfig {
    /// A DSE problem for an `rows × cols` matrix, batch 1, six iterations.
    pub fn new(rows: usize, cols: usize) -> Self {
        DseConfig {
            rows,
            cols,
            batch: 1,
            iterations: 6,
            freq_mhz: None,
            freq_candidates_mhz: Vec::new(),
            budget: ResourceBudget::VCK190,
            device: DeviceProfile::VCK190,
            calibration: Calibration::DEFAULT,
            power: PowerCalibration::DEFAULT,
        }
    }

    /// Sets the batch size.
    pub fn batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Sets the iteration count.
    pub fn iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Fixes the PL frequency in MHz for every design point.
    pub fn freq_mhz(mut self, mhz: f64) -> Self {
        self.freq_mhz = Some(mhz);
        self
    }

    /// Sets a candidate frequency grid (MHz); candidates above a design's
    /// achievable frequency are skipped for that design.
    pub fn freq_candidates_mhz(mut self, candidates: Vec<f64>) -> Self {
        self.freq_candidates_mhz = candidates;
        self
    }

    /// Targets a different device profile (its budget replaces the
    /// default one too).
    pub fn device(mut self, device: DeviceProfile) -> Self {
        self.budget = device.budget;
        self.device = device;
        self
    }
}

/// One evaluated design point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignEvaluation {
    /// The first-order parameters.
    pub point: DesignPoint,
    /// Resource usage after placement.
    pub usage: ResourceUsage,
    /// Single-task latency.
    pub latency: TimePs,
    /// Batch system time (Eq. 14).
    pub system_time: TimePs,
    /// Batch throughput in tasks/s.
    pub throughput: f64,
    /// Estimated power in watts.
    pub power_watts: f64,
    /// Energy efficiency in tasks/s/W.
    pub energy_efficiency: f64,
    /// The resource bounding this design's pass rate.
    pub bottleneck: Bottleneck,
}

/// Result of a DSE sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DseResult {
    /// All feasible design points, in `(P_eng, P_task)` order.
    pub evaluations: Vec<DesignEvaluation>,
    /// Number of candidate points rejected by stage 1.
    pub infeasible: usize,
}

impl DseResult {
    /// The best feasible design for an objective.
    pub fn best(&self, objective: Objective) -> Option<&DesignEvaluation> {
        match objective {
            Objective::MinLatency => self.evaluations.iter().min_by(|a, b| {
                a.latency
                    .cmp(&b.latency)
                    .then(a.power_watts.total_cmp(&b.power_watts))
            }),
            Objective::MaxThroughput => self.evaluations.iter().max_by(|a, b| {
                a.throughput
                    .total_cmp(&b.throughput)
                    .then(b.power_watts.total_cmp(&a.power_watts))
            }),
            Objective::MaxEnergyEfficiency => self
                .evaluations
                .iter()
                .max_by(|a, b| a.energy_efficiency.total_cmp(&b.energy_efficiency)),
        }
    }

    /// The Pareto frontier over (latency ↓, throughput ↑, power ↓):
    /// points not dominated by any other feasible point.
    pub fn pareto_frontier(&self) -> Vec<&DesignEvaluation> {
        let dominates = |a: &DesignEvaluation, b: &DesignEvaluation| {
            a.latency <= b.latency
                && a.throughput >= b.throughput
                && a.power_watts <= b.power_watts
                && (a.latency < b.latency
                    || a.throughput > b.throughput
                    || a.power_watts < b.power_watts)
        };
        self.evaluations
            .iter()
            .filter(|cand| !self.evaluations.iter().any(|other| dominates(other, cand)))
            .collect()
    }

    /// Stage-1 style selection: for each `P_eng`, the point with the
    /// maximum feasible `P_task` ("maximize task parallelism by fully
    /// utilizing resource", Fig. 8).
    pub fn max_task_points(&self) -> Vec<&DesignEvaluation> {
        let mut out: Vec<&DesignEvaluation> = Vec::new();
        for eval in &self.evaluations {
            match out
                .iter_mut()
                .find(|e| e.point.engine_parallelism == eval.point.engine_parallelism)
            {
                Some(slot) => {
                    if eval.point.task_parallelism > slot.point.task_parallelism {
                        *slot = eval;
                    }
                }
                None => out.push(eval),
            }
        }
        out
    }
}

/// Evaluates one `(P_eng, P_task)` candidate at the configured (or
/// achievable) frequency: stage-1 placement + feasibility, then stage-2
/// performance/power scoring. Returns `None` when the point is invalid
/// or infeasible.
pub fn evaluate_point(cfg: &DseConfig, p_eng: usize, p_task: usize) -> Option<DesignEvaluation> {
    evaluate_point_at(cfg, p_eng, p_task, cfg.freq_mhz)
}

/// [`evaluate_point`] at an explicit frequency override (MHz).
pub fn evaluate_point_at(
    cfg: &DseConfig,
    p_eng: usize,
    p_task: usize,
    freq_mhz: Option<f64>,
) -> Option<DesignEvaluation> {
    if p_eng == 0 || !cfg.cols.is_multiple_of(2 * p_eng) {
        return None;
    }
    // The accelerator checks the device budget itself; the DSE's own
    // (possibly what-if) budget is checked below.
    let mut device = cfg.device;
    device.budget = cfg.budget;
    let mut builder = HeteroSvdConfig::builder(cfg.rows, cfg.cols)
        .engine_parallelism(p_eng)
        .task_parallelism(p_task)
        .device(device)
        .calibration(cfg.calibration);
    if let Some(mhz) = freq_mhz {
        builder = builder.pl_freq_mhz(mhz);
    }
    let hw_cfg = builder.build().ok()?;
    let placement = Placement::plan(&hw_cfg).ok()?;
    let usage = placement.usage();
    cfg.budget.check(&usage).ok()?;

    let point = DesignPoint {
        rows: cfg.rows,
        cols: cfg.cols,
        engine_parallelism: p_eng,
        task_parallelism: p_task,
        pl_freq_mhz: hw_cfg.pl_freq.mhz(),
        iterations: cfg.iterations,
    };
    let est = estimate_with(&point, &cfg.calibration);
    let system_time = est.system_time(cfg.batch, p_task);
    let throughput = est.throughput(cfg.batch, p_task);
    let power_watts = cfg.power.power_watts(
        usage.aie,
        usage.uram,
        usage.bram,
        point.pl_freq_mhz,
        usage.luts,
    );
    Some(DesignEvaluation {
        point,
        usage,
        latency: est.task,
        system_time,
        throughput,
        power_watts,
        energy_efficiency: throughput / power_watts,
        bottleneck: est.bottleneck,
    })
}

/// Runs the full two-stage DSE sweep over `P_eng ∈ [1, 11]` and
/// `P_task ∈ [1, 26]` (Table I), parallelized over `P_eng`.
pub fn run_dse(cfg: &DseConfig) -> DseResult {
    // One pool task per P_eng column of the sweep. The shared pool's
    // workers are long-lived (not scoped), so each task owns a clone of
    // the config; results come back in submission = P_eng order.
    let tasks: Vec<_> = (1..=heterosvd::config::MAX_ENGINE_PARALLELISM)
        .map(|p_eng| {
            let cfg = cfg.clone();
            move || -> Result<(Vec<DesignEvaluation>, usize), heterosvd::HeteroSvdError> {
                let mut evals = Vec::new();
                let mut infeasible = 0usize;
                for p_task in 1..=heterosvd::config::MAX_TASK_PARALLELISM {
                    match evaluate_point(&cfg, p_eng, p_task) {
                        Some(e) => {
                            // Explore lower candidate frequencies too
                            // (they trade latency for power).
                            let achievable = e.point.pl_freq_mhz;
                            for &mhz in &cfg.freq_candidates_mhz {
                                if cfg.freq_mhz.is_none() && mhz < achievable && mhz > 0.0 {
                                    if let Some(extra) =
                                        evaluate_point_at(&cfg, p_eng, p_task, Some(mhz))
                                    {
                                        evals.push(extra);
                                    }
                                }
                            }
                            evals.push(e);
                        }
                        None => infeasible += 1,
                    }
                }
                Ok((evals, infeasible))
            }
        })
        .collect();
    let per_eng = heterosvd::batch_pool::global()
        .run_batch_with(tasks)
        .expect("dse worker panicked");

    let mut evaluations = Vec::new();
    let mut infeasible = 0;
    for (evals, inf) in per_eng {
        evaluations.extend(evals);
        infeasible += inf;
    }
    DseResult {
        evaluations,
        infeasible,
    }
}

// --------------------------------------------------------- workload mix

/// One shape class of an observed serving workload: how much array-bound
/// traffic it contributes and how full its same-shape batches run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObservedShape {
    /// Matrix rows.
    pub rows: usize,
    /// Matrix columns.
    pub cols: usize,
    /// Relative array-bound request weight (any positive scale; the mix
    /// objective normalizes). Apply traffic and cache-absorbed low-rank
    /// updates never reach the array, so they carry no weight here.
    pub weight: f64,
    /// Mean same-shape batch fill observed (clamped to `>= 1`).
    pub batch_fill: f64,
}

/// An observed serving workload: the per-shape traffic mix plus the
/// packing evidence the controller gathered over its window. This is the
/// model the online DSE re-plans against.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadMix {
    /// Shape classes with their traffic weights and batch fills.
    pub shapes: Vec<ObservedShape>,
    /// Orthogonalization iterations per task charged by the estimate.
    pub iterations: usize,
    /// Whether the service co-schedules same-shape batches as tenants on
    /// disjoint sub-arrays (PR 7 packing). When set, a candidate `P_eng`
    /// is credited its stripe capacity as the Eq. 14 wave divisor.
    pub array_packing: bool,
    /// Mean packed-wave width observed over the window (0 when no packed
    /// wave ran yet). Widths `>= 2` cap the packing credit: the model
    /// never assumes wider waves than the traffic actually forms.
    pub observed_wave_width: f64,
}

impl WorkloadMix {
    /// `true` when the mix carries no positively-weighted shape.
    pub fn is_empty(&self) -> bool {
        !self.shapes.iter().any(|s| s.weight > 0.0)
    }

    /// Sum of the shape weights.
    pub fn total_weight(&self) -> f64 {
        self.shapes.iter().map(|s| s.weight.max(0.0)).sum()
    }

    /// Whether `other` describes the same traffic within a relative
    /// tolerance: identical shape sets and packing flag, normalized
    /// weights / batch fills / wave width each within `rel_tol`. The
    /// incremental re-search reuses its cached sweep across ticks whose
    /// mixes are similar.
    pub fn similar_to(&self, other: &WorkloadMix, rel_tol: f64) -> bool {
        if self.array_packing != other.array_packing
            || self.iterations != other.iterations
            || self.shapes.len() != other.shapes.len()
        {
            return false;
        }
        let close = |a: f64, b: f64| {
            let scale = a.abs().max(b.abs());
            scale <= f64::EPSILON || (a - b).abs() <= rel_tol * scale
        };
        if !close(self.observed_wave_width, other.observed_wave_width) {
            return false;
        }
        let (wa, wb) = (
            self.total_weight().max(1e-12),
            other.total_weight().max(1e-12),
        );
        self.shapes.iter().all(|s| {
            other.shapes.iter().any(|o| {
                o.rows == s.rows
                    && o.cols == s.cols
                    && close(s.weight / wa, o.weight / wb)
                    && close(s.batch_fill, o.batch_fill)
            })
        })
    }
}

/// Per-shape contribution to a mix evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixShapeScore {
    /// Matrix rows.
    pub rows: usize,
    /// Matrix columns.
    pub cols: usize,
    /// The Eq. 14 wave divisor used: the credited packed-wave width when
    /// the candidate packs this shape, else the candidate's `P_task`.
    pub wave: usize,
    /// Modeled tasks/s for this shape under the candidate plan.
    pub throughput: f64,
}

/// A `(P_eng, P_task)` candidate scored against a whole [`WorkloadMix`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixEvaluation {
    /// Candidate engine parallelism.
    pub engine_parallelism: usize,
    /// Candidate task parallelism.
    pub task_parallelism: usize,
    /// The objective: weight-normalized aggregate throughput (tasks/s)
    /// over the mix's shapes.
    pub weighted_throughput: f64,
    /// Worst-case (max over shapes) estimated power in watts.
    pub power_watts: f64,
    /// Per-shape breakdown, in mix order.
    pub per_shape: Vec<MixShapeScore>,
}

/// Result of a mix-parameterized DSE sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixDseResult {
    /// All candidates feasible for *every* shape of the mix, in
    /// `(P_eng, P_task)` order.
    pub evaluations: Vec<MixEvaluation>,
    /// Candidates rejected (invalid blocking or infeasible placement for
    /// at least one observed shape).
    pub infeasible: usize,
}

impl MixDseResult {
    /// The candidate maximizing the mix objective (ties prefer lower
    /// power, mirroring [`DseResult::best`]).
    pub fn best(&self) -> Option<&MixEvaluation> {
        self.evaluations.iter().max_by(|a, b| {
            a.weighted_throughput
                .total_cmp(&b.weighted_throughput)
                .then(b.power_watts.total_cmp(&a.power_watts))
        })
    }

    /// The mix objective of a specific candidate, if it was feasible.
    pub fn score_of(&self, p_eng: usize, p_task: usize) -> Option<f64> {
        self.evaluations
            .iter()
            .find(|e| e.engine_parallelism == p_eng && e.task_parallelism == p_task)
            .map(|e| e.weighted_throughput)
    }
}

/// Scores one `(P_eng, P_task)` candidate against an observed workload
/// mix: Eq. 15–16 feasibility and the analytic estimate run per shape
/// (`base` supplies budgets / device / calibration; rows, cols, batch and
/// iterations come from the mix), extended with the PR 7 packing
/// dimension — when the service packs, a candidate's stripe capacity
/// (bounded by the shape's batch fill and the observed wave width)
/// replaces `P_task` as the Eq. 14 wave divisor. Returns `None` when the
/// candidate cannot serve every observed shape.
pub fn evaluate_mix_point(
    base: &DseConfig,
    mix: &WorkloadMix,
    p_eng: usize,
    p_task: usize,
) -> Option<MixEvaluation> {
    if mix.is_empty() || p_eng == 0 {
        return None;
    }
    // A swap must keep all observed traffic admissible: a candidate that
    // cannot block any observed shape is rejected outright.
    if mix.shapes.iter().any(|s| !s.cols.is_multiple_of(2 * p_eng)) {
        return None;
    }
    let capacity = tenant_capacity(base.device.geometry, p_eng);
    let mut per_shape = Vec::with_capacity(mix.shapes.len());
    let mut weighted = 0.0;
    let mut power_watts: f64 = 0.0;
    for shape in &mix.shapes {
        let fill = shape.batch_fill.max(1.0);
        let batch = fill.round().max(1.0) as usize;
        let mut cfg = base.clone();
        cfg.rows = shape.rows;
        cfg.cols = shape.cols;
        cfg.batch = batch;
        cfg.iterations = mix.iterations;
        let eval = evaluate_point_at(&cfg, p_eng, p_task, base.freq_mhz)?;
        let wave = if mix.array_packing && capacity >= 2 && batch >= 2 {
            let mut wave = capacity.min(batch);
            if mix.observed_wave_width >= 2.0 {
                wave = wave.min(mix.observed_wave_width.ceil() as usize).max(2);
            }
            wave
        } else {
            p_task
        };
        let est = estimate_with(&eval.point, &base.calibration);
        let throughput = est.throughput(batch, wave);
        per_shape.push(MixShapeScore {
            rows: shape.rows,
            cols: shape.cols,
            wave,
            throughput,
        });
        weighted += shape.weight.max(0.0) * throughput;
        power_watts = power_watts.max(eval.power_watts);
    }
    let total = mix.total_weight();
    if total <= 0.0 {
        return None;
    }
    Some(MixEvaluation {
        engine_parallelism: p_eng,
        task_parallelism: p_task,
        weighted_throughput: weighted / total,
        power_watts,
        per_shape,
    })
}

/// Runs the full mix-parameterized sweep over the Table I ranges,
/// parallelized over `P_eng` like [`run_dse`].
pub fn run_mix_dse(base: &DseConfig, mix: &WorkloadMix) -> MixDseResult {
    let tasks: Vec<_> = (1..=heterosvd::config::MAX_ENGINE_PARALLELISM)
        .map(|p_eng| {
            let base = base.clone();
            let mix = mix.clone();
            move || -> Result<(Vec<MixEvaluation>, usize), heterosvd::HeteroSvdError> {
                let mut evals = Vec::new();
                let mut infeasible = 0usize;
                for p_task in 1..=heterosvd::config::MAX_TASK_PARALLELISM {
                    match evaluate_mix_point(&base, &mix, p_eng, p_task) {
                        Some(e) => evals.push(e),
                        None => infeasible += 1,
                    }
                }
                Ok((evals, infeasible))
            }
        })
        .collect();
    let per_eng = heterosvd::batch_pool::global()
        .run_batch_with(tasks)
        .expect("mix dse worker panicked");
    let mut evaluations = Vec::new();
    let mut infeasible = 0;
    for (evals, inf) in per_eng {
        evaluations.extend(evals);
        infeasible += inf;
    }
    MixDseResult {
        evaluations,
        infeasible,
    }
}

/// Incremental re-search over successive observed mixes: a full sweep
/// runs only when the mix actually moved ([`WorkloadMix::similar_to`]);
/// stationary traffic reuses the cached result, so the controller's
/// steady-state tick costs one similarity check instead of a sweep.
#[derive(Debug, Default)]
pub struct MixSearch {
    cached: Option<(WorkloadMix, MixDseResult)>,
    rel_tol: f64,
    /// Full sweeps executed.
    pub searches: u64,
    /// Ticks served from the cached sweep.
    pub reused: u64,
}

impl MixSearch {
    /// A search that reuses its cached sweep while successive mixes stay
    /// within `rel_tol` relative change (see [`WorkloadMix::similar_to`]).
    pub fn new(rel_tol: f64) -> Self {
        MixSearch {
            cached: None,
            rel_tol: rel_tol.max(0.0),
            searches: 0,
            reused: 0,
        }
    }

    /// The sweep result for `mix`, cached or fresh.
    pub fn research(&mut self, base: &DseConfig, mix: &WorkloadMix) -> MixDseResult {
        if let Some((prev, result)) = &self.cached {
            if prev.similar_to(mix, self.rel_tol) {
                self.reused += 1;
                return result.clone();
            }
        }
        let result = run_mix_dse(base, mix);
        self.searches += 1;
        self.cached = Some((mix.clone(), result.clone()));
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_finds_feasible_points_for_256() {
        let result = run_dse(&DseConfig::new(256, 256).batch(100).iterations(6));
        assert!(!result.evaluations.is_empty());
        // Points must honor Table I ranges and the budgets.
        for e in &result.evaluations {
            assert!(e.point.engine_parallelism <= 11);
            assert!(e.point.task_parallelism <= 26);
            assert!(e.usage.aie <= 400);
            assert!(e.usage.uram <= 463);
            assert!(e.power_watts > 0.0);
        }
        assert!(result.infeasible > 0);
    }

    #[test]
    fn latency_optimum_prefers_high_engine_parallelism() {
        // Table VI: high P_eng minimizes latency.
        let result = run_dse(&DseConfig::new(256, 256).freq_mhz(208.3));
        let best = result.best(Objective::MinLatency).unwrap();
        assert!(
            best.point.engine_parallelism >= 8,
            "latency-optimal P_eng = {}",
            best.point.engine_parallelism
        );
    }

    #[test]
    fn throughput_optimum_prefers_high_task_parallelism() {
        // Table VI: low P_eng + high P_task maximizes throughput.
        let result = run_dse(&DseConfig::new(256, 256).batch(100).freq_mhz(208.3));
        let best = result.best(Objective::MaxThroughput).unwrap();
        let latency_best = result.best(Objective::MinLatency).unwrap();
        assert!(best.point.task_parallelism > latency_best.point.task_parallelism);
        assert!(best.point.engine_parallelism < latency_best.point.engine_parallelism);
    }

    #[test]
    fn max_task_points_are_resource_saturated() {
        let result = run_dse(&DseConfig::new(256, 256).freq_mhz(208.3));
        for e in result.max_task_points() {
            // One more task must be infeasible (or at the Table I cap).
            if e.point.task_parallelism < 26 {
                let cfg = DseConfig::new(256, 256).freq_mhz(208.3);
                assert!(
                    evaluate_point(
                        &cfg,
                        e.point.engine_parallelism,
                        e.point.task_parallelism + 1
                    )
                    .is_none(),
                    "P_eng={} P_task={} is not saturated",
                    e.point.engine_parallelism,
                    e.point.task_parallelism
                );
            }
        }
    }

    #[test]
    fn power_increases_with_resources() {
        let cfg = DseConfig::new(256, 256).freq_mhz(208.3);
        let small = evaluate_point(&cfg, 2, 1).unwrap();
        let large = evaluate_point(&cfg, 2, 20).unwrap();
        assert!(large.power_watts > small.power_watts);
    }

    #[test]
    fn invalid_blocking_is_skipped() {
        // P_eng = 3 does not divide 256 columns evenly (256 % 6 != 0).
        let cfg = DseConfig::new(256, 256);
        assert!(evaluate_point(&cfg, 3, 1).is_none());
        // P_eng = 0 and giant P_task also rejected.
        assert!(evaluate_point(&cfg, 0, 1).is_none());
        assert!(evaluate_point(&cfg, 2, 27).is_none());
    }

    #[test]
    fn table6_trend_latency_and_throughput() {
        // Reproduce Table VI's qualitative trade-off at 256x256, 208.3 MHz:
        // P_eng up => latency down; P_task up => throughput up.
        let cfg = DseConfig::new(256, 256)
            .batch(100)
            .iterations(6)
            .freq_mhz(208.3);
        let e2 = evaluate_point(&cfg, 2, 26).unwrap();
        let e4 = evaluate_point(&cfg, 4, 9).unwrap();
        let e8 = evaluate_point(&cfg, 8, 2).unwrap();
        assert!(e8.latency < e4.latency && e4.latency < e2.latency);
        assert!(e2.throughput > e4.throughput && e4.throughput > e8.throughput);
        assert!(e2.power_watts > e8.power_watts);
    }

    #[test]
    fn aie_ml_device_changes_the_feasible_set() {
        // The estimated AIE-ML device has fewer AIEs and less URAM: its
        // feasible set shrinks, but designs still exist.
        let vck = run_dse(&DseConfig::new(256, 256).batch(100));
        let aie_ml = run_dse(
            &DseConfig::new(256, 256)
                .batch(100)
                .device(DeviceProfile::VE2802_ESTIMATE),
        );
        assert!(!aie_ml.evaluations.is_empty());
        assert!(aie_ml.evaluations.len() < vck.evaluations.len());
        for e in &aie_ml.evaluations {
            assert!(e.usage.aie <= DeviceProfile::VE2802_ESTIMATE.budget.aie);
            assert!(e.usage.uram <= DeviceProfile::VE2802_ESTIMATE.budget.uram);
        }
    }

    #[test]
    fn pareto_frontier_is_nonempty_and_undominated() {
        let result = run_dse(&DseConfig::new(256, 256).batch(100).iterations(6));
        let frontier = result.pareto_frontier();
        assert!(!frontier.is_empty());
        assert!(frontier.len() <= result.evaluations.len());
        // Both single-objective optima must be on the frontier.
        let lat = result.best(Objective::MinLatency).unwrap();
        let tput = result.best(Objective::MaxThroughput).unwrap();
        assert!(frontier.iter().any(|e| e.point == lat.point));
        assert!(frontier.iter().any(|e| e.point == tput.point));
        // No frontier point dominates another frontier point.
        for a in &frontier {
            for b in &frontier {
                if a.point != b.point {
                    let dominates = a.latency <= b.latency
                        && a.throughput >= b.throughput
                        && a.power_watts <= b.power_watts
                        && (a.latency < b.latency
                            || a.throughput > b.throughput
                            || a.power_watts < b.power_watts);
                    assert!(!dominates, "{:?} dominates {:?}", a.point, b.point);
                }
            }
        }
    }

    #[test]
    fn frequency_candidates_expand_the_space() {
        let base = run_dse(&DseConfig::new(128, 128));
        let swept = run_dse(&DseConfig::new(128, 128).freq_candidates_mhz(vec![208.3, 310.0]));
        assert!(swept.evaluations.len() > base.evaluations.len());
        // Lower frequencies cost latency but save power.
        let slow = swept
            .evaluations
            .iter()
            .filter(|e| e.point.engine_parallelism == 8 && e.point.task_parallelism == 1)
            .collect::<Vec<_>>();
        assert!(slow.len() >= 2);
        let fastest = slow
            .iter()
            .max_by(|a, b| a.point.pl_freq_mhz.total_cmp(&b.point.pl_freq_mhz))
            .unwrap();
        let slowest = slow
            .iter()
            .min_by(|a, b| a.point.pl_freq_mhz.total_cmp(&b.point.pl_freq_mhz))
            .unwrap();
        assert!(slowest.latency > fastest.latency);
        assert!(slowest.power_watts < fastest.power_watts);
    }

    #[test]
    fn energy_efficiency_objective_selects_consistently() {
        let result = run_dse(&DseConfig::new(128, 128).batch(100));
        let best = result.best(Objective::MaxEnergyEfficiency).unwrap();
        for e in &result.evaluations {
            assert!(best.energy_efficiency >= e.energy_efficiency);
        }
    }

    fn mix(shapes: &[(usize, usize, f64, f64)], packing: bool) -> WorkloadMix {
        WorkloadMix {
            shapes: shapes
                .iter()
                .map(|&(rows, cols, weight, batch_fill)| ObservedShape {
                    rows,
                    cols,
                    weight,
                    batch_fill,
                })
                .collect(),
            iterations: 6,
            array_packing: packing,
            observed_wave_width: 0.0,
        }
    }

    #[test]
    fn small_batched_mix_prefers_packing_capacity() {
        // Full 16-deep batches of 64x64: the stripe capacity at low P_eng
        // (16 tenants at P_eng = 2 on VCK190) divides Eq. 14, so the mix
        // optimum sits at low engine parallelism.
        let base = DseConfig::new(64, 64).freq_mhz(208.3);
        let result = run_mix_dse(&base, &mix(&[(64, 64, 1.0, 16.0)], true));
        let best = result.best().unwrap();
        assert!(
            best.engine_parallelism <= 2,
            "packed-mix optimum P_eng = {}",
            best.engine_parallelism
        );
        assert!(best.per_shape[0].wave >= 2, "packing credit missing");
    }

    #[test]
    fn large_single_mix_prefers_high_engine_parallelism() {
        // Singleton 256x256 arrivals: throughput = 1 / t_task, so the
        // optimum is the latency-optimal high-P_eng corner (Table VI).
        let base = DseConfig::new(256, 256).freq_mhz(208.3);
        let result = run_mix_dse(&base, &mix(&[(256, 256, 1.0, 1.0)], true));
        let best = result.best().unwrap();
        assert!(
            best.engine_parallelism >= 8,
            "single-mix optimum P_eng = {}",
            best.engine_parallelism
        );
    }

    #[test]
    fn candidates_must_serve_every_observed_shape() {
        // 40 columns block at P_eng ∈ {1, 2, 4, 5, 10} only; P_eng = 8
        // (2·8 = 16 does not divide 40) must be absent even though the
        // other shape would accept it.
        let base = DseConfig::new(64, 64).freq_mhz(208.3);
        let result = run_mix_dse(&base, &mix(&[(64, 64, 1.0, 1.0), (40, 40, 1.0, 1.0)], true));
        assert!(!result.evaluations.is_empty());
        assert!(result.evaluations.iter().all(|e| e.engine_parallelism != 8));
        assert!(evaluate_mix_point(&base, &mix(&[(40, 40, 1.0, 1.0)], true), 8, 1).is_none());
    }

    #[test]
    fn observed_wave_width_caps_the_packing_credit() {
        let base = DseConfig::new(64, 64).freq_mhz(208.3);
        let mut m = mix(&[(64, 64, 1.0, 16.0)], true);
        let uncapped = evaluate_mix_point(&base, &m, 2, 4).unwrap();
        m.observed_wave_width = 4.0;
        let capped = evaluate_mix_point(&base, &m, 2, 4).unwrap();
        assert!(uncapped.per_shape[0].wave > capped.per_shape[0].wave);
        assert_eq!(capped.per_shape[0].wave, 4);
        assert!(uncapped.weighted_throughput > capped.weighted_throughput);
    }

    #[test]
    fn mix_search_reuses_stationary_mixes_and_resweeps_on_shift() {
        let base = DseConfig::new(64, 64).freq_mhz(208.3);
        let mut search = MixSearch::new(0.1);
        let a = mix(&[(64, 64, 10.0, 4.0)], true);
        let first = search.research(&base, &a);
        // Same traffic at a different counter scale: still one sweep.
        let second = search.research(&base, &mix(&[(64, 64, 20.0, 4.0)], true));
        assert_eq!(first, second);
        assert_eq!((search.searches, search.reused), (1, 1));
        // A real mix shift re-sweeps.
        search.research(&base, &mix(&[(128, 128, 10.0, 1.0)], true));
        assert_eq!((search.searches, search.reused), (2, 1));
    }

    #[test]
    fn empty_mix_scores_nothing() {
        let base = DseConfig::new(64, 64).freq_mhz(208.3);
        let empty = mix(&[], true);
        assert!(empty.is_empty());
        assert!(evaluate_mix_point(&base, &empty, 2, 1).is_none());
    }
}
