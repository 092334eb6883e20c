//! The accelerator driver: Algorithm 1 end to end.

use crate::config::{FidelityMode, HeteroSvdConfig};
use crate::norm_pipeline::run_norm_stage;
use crate::orth_pipeline::{AdaptiveCounters, OrthPipeline};
use crate::placement::Placement;
use crate::plan_cache::{self, PlanHandle};
use crate::timing::TimingBreakdown;
use crate::{batch_pool, replay, HeteroSvdError};
use aie_sim::ddr::DdrModel;
use aie_sim::resources::ResourceUsage;
use aie_sim::stats::SimStats;
use aie_sim::time::TimePs;
use std::sync::Arc;
use svd_kernels::jacobi::{SvdResult, SweepStats};
use svd_kernels::{Matrix, SvdError};

/// Sweep accounting of a warm-started run (see
/// [`Accelerator::run_warm_f32`]): how many iterations the seeded
/// problem actually needed against the budget a cold run may spend, so
/// profilers and the serving metrics can attribute saved sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmStartCounters {
    /// Columns of the seeding basis `V_prev`.
    pub basis_cols: usize,
    /// Iterations the warm-started run used.
    pub warm_iterations: usize,
    /// The configured cold-run iteration ceiling
    /// ([`HeteroSvdConfig::max_iterations`], or the fixed count when
    /// pinned) — the budget a cold solve of the same problem may spend.
    pub cold_budget: usize,
}

impl WarmStartCounters {
    /// Iterations the warm start saved against the cold budget.
    pub fn iterations_saved(&self) -> usize {
        self.cold_budget.saturating_sub(self.warm_iterations)
    }
}

/// Everything one accelerator run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct HeteroSvdOutput {
    /// The factorization: `u` (normalized columns), `sigma`, convergence
    /// history. `v` is `None` — Algorithm 1 outputs `U` and `Σ` only.
    /// In timing-only fidelity the factors are zeros.
    pub result: SvdResult<f32>,
    /// Simulated hardware statistics.
    pub stats: SimStats,
    /// Timing breakdown (Eq. 8–14 decomposition).
    pub timing: TimingBreakdown,
    /// Resources the design occupies.
    pub usage: ResourceUsage,
    /// Per-pass execution trace (empty unless
    /// [`HeteroSvdConfig::record_trace`] is set).
    pub trace: Vec<crate::orth_pipeline::PassRecord>,
    /// Skipped-work counters of the convergence-adaptive engine (`None`
    /// with [`HeteroSvdConfig::adaptive_sweeps`] off or outside
    /// functional fidelity). Observational only: timing and stats never
    /// depend on them.
    pub adaptive: Option<AdaptiveCounters>,
    /// Sweep accounting of a warm-started run (`None` for cold runs; see
    /// [`Accelerator::run_warm_f32`]).
    pub warm_start: Option<WarmStartCounters>,
    /// Per-resource utilization of this run (`None` with
    /// [`HeteroSvdConfig::observability`] off). Derived purely from
    /// `stats`, so it is identical live or replayed and never feeds back
    /// into the model.
    pub utilization: Option<crate::obs::UtilizationReport>,
}

/// A configured HeteroSVD accelerator instance.
///
/// Construction validates the placement and the Eq. (16) resource budgets;
/// [`Accelerator::run`] then factorizes matrices of the configured shape.
#[derive(Debug, Clone)]
pub struct Accelerator {
    config: HeteroSvdConfig,
    /// The immutable plan, shared through the process-wide cache:
    /// cloning an accelerator (one per serving replica) shares the plan
    /// instead of re-running placement.
    plan: Arc<PlanHandle>,
}

impl Accelerator {
    /// Builds an accelerator, planning its placement (or reusing a
    /// cached plan of the same design) and checking the target device's
    /// resource budgets (Eq. 16).
    ///
    /// # Errors
    ///
    /// Returns [`HeteroSvdError::Infeasible`] when the placement does not
    /// fit tile memory or the design exceeds a resource budget.
    pub fn new(config: HeteroSvdConfig) -> Result<Self, HeteroSvdError> {
        // Co-resident tenants are full-height column stripes: the array
        // must fit `co_residency` disjoint stripes of this design's
        // width, or the contention model would describe an impossible
        // packing.
        let capacity =
            crate::placement::tenant_capacity(config.device.geometry, config.engine_parallelism);
        if config.co_residency > capacity.max(1) {
            return Err(HeteroSvdError::Infeasible(
                aie_sim::SimError::ResourceExceeded {
                    resource: "tenant stripes",
                    used: config.co_residency,
                    budget: capacity,
                },
            ));
        }
        let plan = plan_cache::global().get_or_build(&config)?;
        config.device.budget.check(&plan.placement.usage())?;
        Ok(Accelerator { config, plan })
    }

    /// The validated configuration.
    pub fn config(&self) -> &HeteroSvdConfig {
        &self.config
    }

    /// The planned placement.
    pub fn placement(&self) -> &Placement {
        &self.plan.placement
    }

    /// The shared plan (placement, schedule, calibrated models).
    pub fn plan(&self) -> &Arc<PlanHandle> {
        &self.plan
    }

    /// Factorizes `a` (shape must match the configuration).
    ///
    /// # Errors
    ///
    /// * [`HeteroSvdError::InvalidConfig`] when `a`'s shape does not match.
    /// * [`HeteroSvdError::Numeric`] when `a` is non-finite or the
    ///   iteration fails to converge within `max_iterations` (adaptive
    ///   mode only).
    pub fn run(&self, a: &Matrix<f64>) -> Result<HeteroSvdOutput, HeteroSvdError> {
        // The f32 cast is already a fresh working copy — hand it
        // straight to the pipeline instead of cloning a second time.
        self.run_owned(a.cast::<f32>())
    }

    /// [`Accelerator::run`] for an `f32` input (the device's native type).
    pub fn run_f32(&self, a: &Matrix<f32>) -> Result<HeteroSvdOutput, HeteroSvdError> {
        self.run_owned(a.clone())
    }

    /// Core driver: runs the full Algorithm 1 on the working copy `b`,
    /// consumed directly (no second buffer).
    pub(crate) fn run_owned(&self, mut b: Matrix<f32>) -> Result<HeteroSvdOutput, HeteroSvdError> {
        let cfg = &self.config;
        if b.rows() != cfg.rows || b.cols() != cfg.cols {
            return Err(HeteroSvdError::InvalidConfig(format!(
                "matrix is {}x{} but the accelerator was configured for {}x{}",
                b.rows(),
                b.cols(),
                cfg.rows,
                cfg.cols
            )));
        }
        if cfg.fidelity == FidelityMode::Functional && !b.is_finite() {
            return Err(HeteroSvdError::Numeric(SvdError::NonFinite));
        }
        let mut stats = SimStats::new();
        let mut timing = TimingBreakdown::default();

        // ---- First-iteration DDR loads (Eq. 12): blocks arrive serially.
        let ddr = DdrModel::new(cfg.calibration);
        let (ready, ddr_time, ddr_bytes) = replay::ddr_initial_ready(cfg);
        stats.ddr_bytes += ddr_bytes;
        stats.ddr_transfers += cfg.num_blocks();
        stats.ddr_busy += ddr_time;
        timing.ddr_time = ddr_time;

        // ---- Orthogonalization iterations, driven by the system module
        // (Fig. 2): it decides when to leave the orthogonalization stage.
        let mut pipe = OrthPipeline::new(cfg, &self.plan);
        pipe.set_block_ready(ready);
        pipe.set_norm_floor_sq(b.column_norm_floor_sq());
        if cfg.timing_replay {
            // The profile was probed from the same Eq. 12 state the
            // pipeline just got, so replay activates (and is exact).
            if let Some(profile) = self.plan.timing_profile(cfg) {
                pipe.set_replay_profile(profile);
            }
        }

        let mut system = crate::pl_modules::SystemModule::new(
            cfg.precision,
            cfg.max_iterations,
            cfg.fixed_iterations,
        );
        let mut history = Vec::new();
        let mut orth_end = timing.ddr_time;
        let mut last_convergence = 0.0;

        while system.phase() == crate::pl_modules::Phase::Orthogonalizing {
            pipe.set_rotation_threshold(system.rotation_threshold());
            let outcome = pipe.run_iteration(&mut b);
            orth_end = outcome.end;
            timing.iteration_ends.push(outcome.end);
            history.push(SweepStats {
                sweep: system.iterations(),
                max_convergence: outcome.max_convergence,
                rotations: outcome.rotations,
            });
            last_convergence = outcome.max_convergence;
            system.iteration_done(outcome.max_convergence);
        }

        if cfg.fidelity == FidelityMode::Functional && system.hit_iteration_budget(last_convergence)
        {
            return Err(HeteroSvdError::Numeric(SvdError::NotConverged {
                sweeps: history.len(),
                off_diagonal: last_convergence,
            }));
        }

        let adaptive = pipe.adaptive_counters();
        let (orth_stats, trace) = pipe.into_parts();
        stats.merge(&orth_stats);
        stats.iterations = history.len();

        // ---- Normalization stage (Eq. 7).
        let norm = run_norm_stage(cfg, &self.plan.placement, &mut b, orth_end, &mut stats);
        timing.norm_time = norm.end.saturating_sub(orth_end);

        // ---- Results back to DDR. Co-resident tenants drain through the
        // same controller, so the store shares bandwidth like the loads.
        let result_bytes = cfg.rows * cfg.cols * 4 + cfg.cols * 4;
        let store = ddr.contended_burst_time(result_bytes, cfg.co_residency);
        stats.ddr_bytes += result_bytes;
        stats.ddr_transfers += 1;
        stats.ddr_busy += store;
        timing.task_time = norm.end + store;
        stats.elapsed = timing.task_time;

        let sigma = if cfg.fidelity == FidelityMode::Functional {
            norm.sigma
        } else {
            vec![0.0; cfg.cols]
        };

        let utilization = cfg
            .observability
            .then(|| crate::obs::UtilizationReport::from_stats(&stats, self.resource_counts()));

        Ok(HeteroSvdOutput {
            result: SvdResult {
                u: b,
                sigma,
                v: None,
                sweeps: history.len(),
                history,
            },
            stats,
            timing,
            usage: self.plan.placement.usage(),
            trace,
            adaptive,
            warm_start: None,
            utilization,
        })
    }

    /// Warm-started factorization: seeds the iteration from a cached
    /// right basis `v_prev` (typically recovered from this client's
    /// previous solve). The host forms `B = A·V_prev` in `f64` (PS-side
    /// preprocessing — the accelerator's streamed columns are those of
    /// `B`), the normal Algorithm 1 pipeline runs on `B`, and because
    /// `V_prev` is orthogonal the resulting `U` and `Σ` are those of
    /// `A`. When `A` is close to the basis's source matrix, `B`'s
    /// columns are already nearly orthogonal and the system module
    /// leaves the orthogonalization stage after one or two iterations —
    /// the whole point of the warm start. The output's
    /// [`SvdResult::v`] is the composed `V_prev·V_B` (recovered from
    /// `B`), and [`HeteroSvdOutput::warm_start`] carries the sweep
    /// accounting.
    ///
    /// # Errors
    ///
    /// * [`HeteroSvdError::InvalidConfig`] unless the fidelity is
    ///   functional and `v_prev` is square with side `cols`.
    /// * Whatever [`Accelerator::run_f32`] returns for `B`.
    pub fn run_warm_f32(
        &self,
        a: &Matrix<f32>,
        v_prev: &Matrix<f32>,
    ) -> Result<HeteroSvdOutput, HeteroSvdError> {
        let cfg = &self.config;
        if cfg.fidelity != FidelityMode::Functional {
            return Err(HeteroSvdError::InvalidConfig(
                "warm-started runs require functional fidelity".into(),
            ));
        }
        if v_prev.rows() != cfg.cols || v_prev.cols() != cfg.cols {
            return Err(HeteroSvdError::InvalidConfig(format!(
                "warm-start basis must be {0}x{0}, got {1}x{2}",
                cfg.cols,
                v_prev.rows(),
                v_prev.cols()
            )));
        }
        // A cached basis carries zero columns where `recover_v` gated a
        // noise-floor σ; seeding with them would annihilate any update
        // component outside the previous numerical row space.
        // `warm_seed` completes the basis to a full rotation and forms
        // `B = A·V_seed` in f64, structurally — O(m·n·r) for r live
        // columns — so the host-side preprocessing stays cheap next to
        // the solve it seeds.
        let (b, v_seed) =
            svd_kernels::incremental::warm_seed(a, v_prev).map_err(HeteroSvdError::Numeric)?;
        let mut out = self.run_owned(b.clone())?;
        let v_b = out.result.recover_v(&b).map_err(HeteroSvdError::Numeric)?;
        let v = v_seed.matmul(&v_b).map_err(HeteroSvdError::Numeric)?;
        out.result.v = Some(v);
        out.warm_start = Some(WarmStartCounters {
            basis_cols: v_prev.cols(),
            warm_iterations: out.result.sweeps,
            cold_budget: cfg.fixed_iterations.unwrap_or(cfg.max_iterations),
        });
        Ok(out)
    }

    /// How many instances of each profiled resource class this design
    /// instantiates. AIE cores are the orth cores only — matching the
    /// `orth_busy` counter the utilization is computed from — and the
    /// DMA count covers per-(layer, slot) channels plus each layer's
    /// wraparound and stream-switch backbone, mirroring
    /// [`crate::orth_pipeline::OrthPipeline`]'s timeline layout.
    fn resource_counts(&self) -> crate::obs::ResourceCounts {
        let cfg = &self.config;
        let k = cfg.engine_parallelism;
        let layers = self.plan.placement.num_layers();
        let plio = self.plan.plio_plan;
        crate::obs::ResourceCounts {
            plio_ports: plio.orth_in + plio.orth_out + plio.norm,
            aie_cores: layers * k,
            dma_channels: layers.max(1) * k + 2 * layers.max(1),
            ddr_controllers: 1,
        }
    }

    /// Factorizes a batch of distinct matrices on the process-wide
    /// [`batch_pool`] (persistent bounded workers instead of one OS
    /// thread per matrix). The batch's *system time* follows Eq. (14) —
    /// `⌈B / P_task⌉ · t_task` — and is returned alongside the outputs.
    ///
    /// # Errors
    ///
    /// Returns the first error any task produced. A panicking worker
    /// is contained and surfaces as [`HeteroSvdError::WorkerPanicked`]
    /// rather than unwinding through the caller.
    pub fn run_many(
        &self,
        matrices: &[Matrix<f64>],
    ) -> Result<(Vec<HeteroSvdOutput>, TimePs), HeteroSvdError> {
        self.run_many_f32(matrices.iter().map(|a| a.cast::<f32>()).collect())
    }

    /// [`Accelerator::run_many`] taking owned `f32` matrices (the
    /// device's native type): callers that already hold `f32` data —
    /// the serving path casts once at admission — hand it over without
    /// any clone or re-cast.
    ///
    /// # Errors
    ///
    /// As [`Accelerator::run_many`].
    pub fn run_many_f32(
        &self,
        matrices: Vec<Matrix<f32>>,
    ) -> Result<(Vec<HeteroSvdOutput>, TimePs), HeteroSvdError> {
        if matrices.is_empty() {
            return Err(HeteroSvdError::InvalidConfig(
                "batch must contain at least one matrix".into(),
            ));
        }
        let num_tasks = matrices.len();
        let tasks = matrices
            .into_iter()
            .map(|b| {
                let acc = self.clone();
                Box::new(move || acc.run_owned(b)) as Box<_>
            })
            .collect();
        let outputs = batch_pool::global().run_batch(tasks)?;
        let slowest = outputs
            .iter()
            .max_by_key(|o| o.timing.task_time)
            .expect("batch is non-empty");
        let sys = slowest
            .timing
            .system_time(num_tasks, self.config.task_parallelism);
        Ok((outputs, sys))
    }

    /// The movement/DMA analysis of one block-pair pass under this
    /// accelerator's ordering, dataflow, and physical placement rows
    /// (the Fig. 3 analysis specialized to the planned design).
    pub fn movement_report(&self) -> svd_orderings::movement::MovementReport {
        let placement = &self.plan.placement;
        svd_orderings::movement::analyze_with_rows(
            self.config.ordering,
            self.config.dataflow,
            self.config.engine_parallelism,
            |layer| placement.row_of_layer(layer.min(placement.num_layers() - 1)),
        )
    }

    /// Simulates a batch of `num_tasks` identical tasks: one task is
    /// simulated, then the system time follows Eq. (14)
    /// (`⌈num_tasks/P_task⌉ · t_task` — the `P_task` pipelines are
    /// independent replicas).
    ///
    /// Returns the single-task output plus the batch system time.
    pub fn run_batch(
        &self,
        a: &Matrix<f64>,
        num_tasks: usize,
    ) -> Result<(HeteroSvdOutput, TimePs), HeteroSvdError> {
        if num_tasks == 0 {
            return Err(HeteroSvdError::InvalidConfig(
                "batch must contain at least one task".into(),
            ));
        }
        let out = self.run(a)?;
        let sys = out
            .timing
            .system_time(num_tasks, self.config.task_parallelism);
        Ok((out, sys))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svd_kernels::jacobi::{hestenes_jacobi, JacobiOptions};
    use svd_kernels::verify;

    fn sample(n: usize) -> Matrix<f64> {
        Matrix::from_fn(n, n, |r, c| {
            ((r * 41 + c * 17 + 5) % 23) as f64 / 5.0 - 2.0 + if r == c { 2.0 } else { 0.0 }
        })
    }

    fn accel(n: usize, p_eng: usize) -> Accelerator {
        Accelerator::new(
            HeteroSvdConfig::builder(n, n)
                .engine_parallelism(p_eng)
                .pl_freq_mhz(208.3)
                .build()
                .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn run_many_f32_matches_run_many() {
        // The zero-copy entry point must be behaviorally identical to the
        // f64 one (which casts and delegates to it).
        let acc = accel(16, 2);
        let mats: Vec<Matrix<f64>> = (0..3).map(|i| sample(16).scaled(1.0 + i as f64)).collect();
        let (by_ref, sys_ref) = acc.run_many(&mats).unwrap();
        let owned: Vec<Matrix<f32>> = mats.iter().map(|a| a.cast::<f32>()).collect();
        let (by_val, sys_val) = acc.run_many_f32(owned).unwrap();
        assert_eq!(sys_ref, sys_val);
        for (a, b) in by_ref.iter().zip(&by_val) {
            assert_eq!(a.result.u.as_slice(), b.result.u.as_slice());
            assert_eq!(a.timing, b.timing);
        }
        assert!(acc.run_many_f32(Vec::new()).is_err());
    }

    #[test]
    fn factorization_matches_golden_model() {
        let a = sample(32);
        let out = accel(32, 4).run(&a).unwrap();
        let golden = hestenes_jacobi(&a, &JacobiOptions::default()).unwrap();
        let err = verify::singular_value_error(
            &golden.sorted_singular_values(),
            &out.result.sorted_singular_values(),
        );
        assert!(err < 1e-4, "singular value error {err}");
        assert!(verify::column_orthogonality_error(&out.result.u) < 1e-3);
    }

    #[test]
    fn reconstruction_error_is_small() {
        let a = sample(16);
        let out = accel(16, 2).run(&a).unwrap();
        assert!(out.result.reconstruction_error(&a.cast()) < 1e-4);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let a = sample(16);
        let err = accel(32, 4).run(&a).unwrap_err();
        assert!(matches!(err, HeteroSvdError::InvalidConfig(_)));
    }

    #[test]
    fn non_finite_input_rejected() {
        let mut a = sample(16);
        a[(3, 3)] = f64::NAN;
        let err = accel(16, 2).run(&a).unwrap_err();
        assert!(matches!(err, HeteroSvdError::Numeric(SvdError::NonFinite)));
    }

    #[test]
    fn timing_is_populated_and_ordered() {
        let a = sample(16);
        let out = accel(16, 2).run(&a).unwrap();
        assert!(out.timing.ddr_time > TimePs::ZERO);
        assert!(out.timing.iterations() >= 1);
        let ends = &out.timing.iteration_ends;
        assert!(ends.windows(2).all(|w| w[0] < w[1]));
        assert!(out.timing.task_time > *ends.last().unwrap());
        assert_eq!(out.stats.elapsed, out.timing.task_time);
    }

    #[test]
    fn fixed_iterations_run_exactly() {
        let a = sample(16);
        let acc = Accelerator::new(
            HeteroSvdConfig::builder(16, 16)
                .engine_parallelism(2)
                .fixed_iterations(6)
                .pl_freq_mhz(208.3)
                .build()
                .unwrap(),
        )
        .unwrap();
        let out = acc.run(&a).unwrap();
        assert_eq!(out.timing.iterations(), 6);
        assert_eq!(out.result.sweeps, 6);
    }

    #[test]
    fn timing_only_mode_skips_math() {
        let a = sample(16);
        let acc = Accelerator::new(
            HeteroSvdConfig::builder(16, 16)
                .engine_parallelism(2)
                .fidelity(FidelityMode::TimingOnly)
                .fixed_iterations(6)
                .pl_freq_mhz(208.3)
                .build()
                .unwrap(),
        )
        .unwrap();
        let out = acc.run(&a).unwrap();
        assert!(out.timing.task_time > TimePs::ZERO);
        assert!(out.result.sigma.iter().all(|&s| s == 0.0));
        assert_eq!(out.stats.orth_invocations, 6 * 28 * 6); // iters*passes*pairs
    }

    #[test]
    fn timing_only_matches_functional_timing() {
        // The clock must not depend on fidelity: identical schedules.
        let a = sample(16);
        let functional = accel(16, 2);
        let f_out = {
            let acc = Accelerator::new(
                HeteroSvdConfig::builder(16, 16)
                    .engine_parallelism(2)
                    .fixed_iterations(4)
                    .pl_freq_mhz(208.3)
                    .build()
                    .unwrap(),
            )
            .unwrap();
            acc.run(&a).unwrap()
        };
        let t_out = {
            let acc = Accelerator::new(
                HeteroSvdConfig::builder(16, 16)
                    .engine_parallelism(2)
                    .fidelity(FidelityMode::TimingOnly)
                    .fixed_iterations(4)
                    .pl_freq_mhz(208.3)
                    .build()
                    .unwrap(),
            )
            .unwrap();
            acc.run(&a).unwrap()
        };
        let _ = functional;
        assert_eq!(f_out.timing.task_time, t_out.timing.task_time);
    }

    #[test]
    fn run_many_factorizes_each_matrix() {
        let acc = accel(16, 2);
        let mats: Vec<Matrix<f64>> = (0..4).map(|i| sample(16).scaled(1.0 + i as f64)).collect();
        let (outs, sys) = acc.run_many(&mats).unwrap();
        assert_eq!(outs.len(), 4);
        // Scaling the matrix scales sigma: outputs must differ accordingly.
        let s0 = outs[0].result.sorted_singular_values()[0];
        let s3 = outs[3].result.sorted_singular_values()[0];
        assert!((s3 / s0 - 4.0).abs() < 1e-3, "{s3} vs {s0}");
        // P_task = 1: four waves.
        assert_eq!(sys.0, outs[0].timing.task_time.0 * 4);
        assert!(acc.run_many(&[]).is_err());
    }

    #[test]
    fn warm_start_reuses_basis_and_saves_iterations() {
        let a0 = sample(32);
        let acc = accel(32, 4);
        let cold = acc.run(&a0).unwrap();
        let v_prev = cold.result.recover_v(&a0.cast()).unwrap();
        // Small perturbation of the same matrix: the cached basis still
        // nearly diagonalizes it, so the system module leaves the
        // orthogonalization stage early.
        let a1 = Matrix::from_fn(32, 32, |r, c| {
            a0[(r, c)] + ((r * 7 + c * 13) % 5) as f64 * 1e-4
        });
        let warm = acc.run_warm_f32(&a1.cast(), &v_prev).unwrap();
        let golden = hestenes_jacobi(&a1, &JacobiOptions::default()).unwrap();
        let err = verify::singular_value_error(
            &golden.sorted_singular_values(),
            &warm.result.sorted_singular_values(),
        );
        assert!(err < 1e-4, "singular value error {err}");
        assert!(
            warm.result.sweeps < cold.result.sweeps,
            "warm {} vs cold {}",
            warm.result.sweeps,
            cold.result.sweeps
        );
        let counters = warm.warm_start.expect("warm run carries counters");
        assert_eq!(counters.basis_cols, 32);
        assert_eq!(counters.warm_iterations, warm.result.sweeps);
        assert!(counters.iterations_saved() > 0);
        // The composed V_prev·V_B must itself be an orthogonal basis.
        let v = warm.result.v.as_ref().expect("warm run composes V");
        assert!(verify::column_orthogonality_error(v) < 1e-3);
        assert!(warm.result.reconstruction_error(&a1.cast()) < 1e-4);
    }

    #[test]
    fn warm_start_requires_fidelity_and_shape() {
        let a: Matrix<f32> = sample(16).cast();
        let eye = Matrix::<f32>::from_fn(16, 16, |r, c| if r == c { 1.0 } else { 0.0 });
        // Wrong basis shape: rejected.
        let small = Matrix::<f32>::from_fn(8, 8, |r, c| if r == c { 1.0 } else { 0.0 });
        assert!(matches!(
            accel(16, 2).run_warm_f32(&a, &small),
            Err(HeteroSvdError::InvalidConfig(_))
        ));
        // Timing-only fidelity has no factors to warm-start from.
        let timing_only = Accelerator::new(
            HeteroSvdConfig::builder(16, 16)
                .engine_parallelism(2)
                .fidelity(FidelityMode::TimingOnly)
                .fixed_iterations(4)
                .pl_freq_mhz(208.3)
                .build()
                .unwrap(),
        )
        .unwrap();
        assert!(matches!(
            timing_only.run_warm_f32(&a, &eye),
            Err(HeteroSvdError::InvalidConfig(_))
        ));
    }

    #[test]
    fn movement_report_matches_configured_design() {
        let acc = accel(16, 2);
        let report = acc.movement_report();
        // Single band at k=2: the co-design's 2(k-1) = 2 DMAs per pass.
        assert_eq!(report.dma_transfers, 2);
    }

    #[test]
    fn batch_system_time_follows_eq14() {
        let a = sample(16);
        let acc = accel(16, 2);
        let (out, sys) = acc.run_batch(&a, 10).unwrap();
        // P_task = 1: 10 sequential waves.
        assert_eq!(sys.0, out.timing.task_time.0 * 10);
        assert!(acc.run_batch(&a, 0).is_err());
    }

    #[test]
    fn higher_engine_parallelism_reduces_latency() {
        let a = sample(64);
        let slow = accel(64, 2).run(&a).unwrap();
        let fast = accel(64, 8).run(&a).unwrap();
        assert!(
            fast.timing.task_time < slow.timing.task_time,
            "P_eng=8 {} vs P_eng=2 {}",
            fast.timing.task_time,
            slow.timing.task_time
        );
    }

    #[test]
    fn co_residency_slows_clock_but_not_math() {
        // Packing tenants shares PLIO interface groups and the DDR
        // controller: the modeled clock must slow down, while the
        // functional math (which never reads the knob) stays
        // bit-identical.
        let a = sample(16);
        let build = |co: usize| {
            Accelerator::new(
                HeteroSvdConfig::builder(16, 16)
                    .engine_parallelism(2)
                    .co_residency(co)
                    .fixed_iterations(4)
                    .pl_freq_mhz(208.3)
                    .build()
                    .unwrap(),
            )
            .unwrap()
        };
        let solo = build(1).run(&a).unwrap();
        let packed = build(4).run(&a).unwrap();
        assert!(
            packed.timing.task_time > solo.timing.task_time,
            "packed {} vs solo {}",
            packed.timing.task_time,
            solo.timing.task_time
        );
        assert_eq!(solo.result.u.as_slice(), packed.result.u.as_slice());
        assert_eq!(solo.result.sigma, packed.result.sigma);
    }

    #[test]
    fn co_residency_beyond_stripe_capacity_is_infeasible() {
        // P_eng=8 stripes are 3 bands x 9 = 27 columns wide: only one
        // fits the 50-column array, so two tenants are impossible.
        let cfg = HeteroSvdConfig::builder(64, 64)
            .engine_parallelism(8)
            .co_residency(2)
            .build()
            .unwrap();
        assert!(matches!(
            Accelerator::new(cfg),
            Err(HeteroSvdError::Infeasible(_))
        ));
        // P_eng=4 fits five.
        let ok = HeteroSvdConfig::builder(64, 64)
            .engine_parallelism(4)
            .co_residency(5)
            .build()
            .unwrap();
        assert!(Accelerator::new(ok).is_ok());
    }

    #[test]
    fn infeasible_designs_rejected_at_construction() {
        // P_eng=8 and P_task=26 blows the AIE budget.
        let cfg = HeteroSvdConfig::builder(64, 64)
            .engine_parallelism(8)
            .task_parallelism(26)
            .build()
            .unwrap();
        assert!(matches!(
            Accelerator::new(cfg),
            Err(HeteroSvdError::Infeasible(_))
        ));
    }
}
