//! Service configuration.

use crate::error::ServeError;
use heterosvd::FidelityMode;
use std::time::Duration;

/// Configuration for [`crate::SvdService`].
///
/// The accelerator-side knobs (`engine_parallelism`, `task_parallelism`,
/// precision, fidelity) are shared by every replica; each replica builds
/// one [`heterosvd::Accelerator`] per distinct request shape and reuses
/// it across batches. Replicas always replay the cached per-plan timing
/// profile (exact, the accelerator's default) and charge Eq. (14).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Number of accelerator replicas (worker threads).
    pub workers: usize,
    /// Bound of the admission queue; `try_submit` returns
    /// [`ServeError::QueueFull`] beyond it.
    pub queue_capacity: usize,
    /// Largest batch a replica forms.
    pub max_batch: usize,
    /// Longest a decompose or apply request waits for batch-mates,
    /// counted from its admission: each batch key lingers on its own
    /// clock and is formed once its oldest queued request has waited
    /// this long (or the key has `max_batch` requests queued, or
    /// admission closes). Update keys are due as soon as they are
    /// queued: an update batch runs its members one by one, so waiting
    /// for batch-mates buys nothing.
    pub max_linger: Duration,
    /// Engine parallelism (`P_eng`) of every replica.
    pub engine_parallelism: usize,
    /// Task parallelism (`P_task`) of every replica: the divisor in the
    /// Eq. (14) batch system time `⌈B / P_task⌉ · t_task`.
    pub task_parallelism: usize,
    /// Convergence precision forwarded to the accelerator.
    pub precision: f64,
    /// Fixed iteration count (None = adaptive convergence).
    pub fixed_iterations: Option<usize>,
    /// Whether replicas compute real factorizations or timing only.
    pub fidelity: FidelityMode,
    /// Whether the service and its replicas emit observability data:
    /// per-stage span journal entries, per-resource utilization reports,
    /// and the aggregates behind [`crate::MetricsReport`]. Forwarded to
    /// [`heterosvd::HeteroSvdConfig::observability`]; modeled timing and
    /// results are bit-identical either way, so this defaults on.
    pub observability: bool,
    /// Byte budget of the service's factor store (resident truncated
    /// factors published by decompose requests and served by apply
    /// requests). Least-recently-used models are evicted past it; the
    /// most recently published model is always retained.
    pub factor_store_bytes: usize,
    /// Whether replicas spatially co-schedule a same-shape decompose
    /// batch as multiple tenants on disjoint sub-arrays (multi-problem
    /// array packing). When the shape's stripe footprint fits `w >= 2`
    /// tenants (see [`heterosvd::tenant_capacity`]), the batch executes
    /// as waves of `w` concurrent problems with Eq. (14) charged on the
    /// wave's max completion under shared PLIO/DDR bandwidth; otherwise
    /// the replica falls back to the sequential path. Per-matrix factors
    /// are bit-identical either way (the contention model never touches
    /// the math), so this defaults on. Like `observability`, the knob
    /// never enters the plan-cache key — but the packed tenant count
    /// does, via [`heterosvd::HeteroSvdConfig::co_residency`], so packed
    /// and solo timing profiles are never conflated.
    pub array_packing: bool,
    /// Whether the service accepts incremental-update requests
    /// ([`crate::SvdService::try_submit_update`]) and maintains the
    /// per-client factor cache behind them. Off (the default), the
    /// decompose/apply paths are bit-identical to a build without the
    /// feature: the knob never reaches the accelerator config, and no
    /// cache is consulted. Requires [`FidelityMode::Functional`] (warm starts
    /// need real factors to seed from).
    pub incremental: bool,
    /// Byte budget of the per-client factor cache backing incremental
    /// updates (previous matrix + V basis + spectrum + truncated
    /// factors per client). Least-recently-used clients are
    /// evicted past it; the most recently refreshed client is always
    /// retained.
    pub factor_cache_bytes: usize,
    /// Staleness bound: updates whose relative Frobenius delta
    /// `‖ΔA‖_F / ‖A_prev‖_F` exceeds this fall back to a full
    /// recompute (forwarded to
    /// [`svd_kernels::incremental::StalenessBound`]).
    pub max_delta_rel: f64,
    /// Staleness bound: after this many consecutive warm-started or
    /// low-rank solves without a full recompute, the next update falls
    /// back to full (bounds accumulated basis drift).
    pub max_warm_solves: u32,
    /// Truncation rank `r` of the factors cached per client for the
    /// low-rank fast path (clamped to `min(rows, cols)` per shape).
    pub update_cache_rank: usize,
    /// Largest delta rank `k` the low-rank fast path factors an update
    /// into; deltas that do not compress to `<= k` take the warm-start
    /// route instead.
    pub max_update_rank: usize,
    /// Whether the service runs the closed-loop online-DSE controller:
    /// a thread that aggregates per-shape windowed traffic into an
    /// observed [`heterosvd_dse::WorkloadMix`], re-runs the Eq. 15–16
    /// sweep against it on a cadence, and hot-swaps replicas to the
    /// winning `(P_eng, P_task)` plan with drain-and-replace semantics
    /// (in-flight batches finish on the plan they started under). Off by
    /// default: the configured `engine_parallelism`/`task_parallelism`
    /// stay frozen, exactly as before.
    pub autoscale: bool,
    /// Cadence of the controller's observe → re-search → maybe-swap tick.
    pub autoscale_interval: Duration,
    /// Hysteresis: minimum time the service dwells on its current plan
    /// before the controller may swap again (suppresses churn under a
    /// stationary mix).
    pub autoscale_min_dwell: Duration,
    /// Hysteresis: after a swap, the controller skips re-search for this
    /// long so post-swap windows reflect the new plan before it is
    /// re-scored.
    pub autoscale_cooldown: Duration,
    /// Hysteresis: a candidate plan must beat the current plan's mix
    /// objective by this relative fraction (e.g. `0.1` = 10%) to trigger
    /// a swap.
    pub autoscale_improvement: f64,
    /// The admission scheduler's mode. On, it serves requests by
    /// effective deadline: earliest-deadline-first batch formation (any
    /// idle replica cuts the most urgent due key), EDF eviction under a
    /// full queue, per-class batch/linger policy, and windowed load
    /// shedding. Off (the default), it serves them in admission order:
    /// the oldest due key forms first, a full queue refuses every push,
    /// every class gets the configured batch/linger budget, and nothing
    /// is shed. Factor outputs are bit-identical either way — the mode
    /// only decides *when* requests execute, never what they compute.
    pub shape_classed: bool,
    /// Load-shedding trigger: when the windowed fraction of admitted
    /// requests that time out (formation- plus exec-side) exceeds this,
    /// the service sheds Batch-class traffic with
    /// [`ServeError::Overloaded`]; past twice this, Standard sheds too.
    /// The level decays once the fraction falls below half the
    /// threshold. Only consulted with `shape_classed` on.
    pub shed_threshold: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            max_batch: 8,
            max_linger: Duration::from_millis(2),
            engine_parallelism: 2,
            task_parallelism: 4,
            precision: 1e-6,
            fixed_iterations: None,
            fidelity: FidelityMode::Functional,
            observability: true,
            factor_store_bytes: 64 << 20,
            array_packing: true,
            incremental: false,
            factor_cache_bytes: 256 << 20,
            max_delta_rel: 0.25,
            max_warm_solves: 8,
            update_cache_rank: 16,
            max_update_rank: 8,
            autoscale: false,
            autoscale_interval: Duration::from_millis(100),
            autoscale_min_dwell: Duration::from_secs(1),
            autoscale_cooldown: Duration::from_millis(250),
            autoscale_improvement: 0.10,
            shape_classed: false,
            shed_threshold: 0.3,
        }
    }
}

impl ServeConfig {
    /// Validates the cross-field invariants the service relies on.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidRequest`] describing the first violated
    /// invariant.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.workers == 0 {
            return Err(ServeError::InvalidRequest("workers must be >= 1".into()));
        }
        if self.queue_capacity == 0 {
            return Err(ServeError::InvalidRequest(
                "queue_capacity must be >= 1".into(),
            ));
        }
        if self.max_batch == 0 {
            return Err(ServeError::InvalidRequest("max_batch must be >= 1".into()));
        }
        if self.engine_parallelism == 0 {
            return Err(ServeError::InvalidRequest(
                "engine_parallelism must be >= 1".into(),
            ));
        }
        if self.task_parallelism == 0 {
            return Err(ServeError::InvalidRequest(
                "task_parallelism must be >= 1".into(),
            ));
        }
        if self.factor_store_bytes == 0 {
            return Err(ServeError::InvalidRequest(
                "factor_store_bytes must be >= 1".into(),
            ));
        }
        if self.fidelity == FidelityMode::TimingOnly && self.fixed_iterations.is_none() {
            // Fail at start() rather than letting every replica build
            // error out request by request.
            return Err(ServeError::InvalidRequest(
                "timing-only fidelity requires fixed_iterations".into(),
            ));
        }
        if self.incremental {
            if self.fidelity != FidelityMode::Functional {
                return Err(ServeError::InvalidRequest(
                    "incremental updates require functional fidelity".into(),
                ));
            }
            if self.factor_cache_bytes == 0 {
                return Err(ServeError::InvalidRequest(
                    "factor_cache_bytes must be >= 1".into(),
                ));
            }
            if !self.max_delta_rel.is_finite() || self.max_delta_rel <= 0.0 {
                return Err(ServeError::InvalidRequest(
                    "max_delta_rel must be finite and > 0".into(),
                ));
            }
            if self.max_warm_solves == 0 {
                return Err(ServeError::InvalidRequest(
                    "max_warm_solves must be >= 1".into(),
                ));
            }
            if self.update_cache_rank == 0 {
                return Err(ServeError::InvalidRequest(
                    "update_cache_rank must be >= 1".into(),
                ));
            }
            if self.max_update_rank == 0 {
                return Err(ServeError::InvalidRequest(
                    "max_update_rank must be >= 1".into(),
                ));
            }
        }
        if self.shape_classed
            && (!self.shed_threshold.is_finite()
                || self.shed_threshold <= 0.0
                || self.shed_threshold > 1.0)
        {
            return Err(ServeError::InvalidRequest(
                "shed_threshold must be finite and in (0, 1]".into(),
            ));
        }
        if self.autoscale {
            if self.autoscale_interval.is_zero() {
                return Err(ServeError::InvalidRequest(
                    "autoscale_interval must be > 0".into(),
                ));
            }
            if !self.autoscale_improvement.is_finite() || self.autoscale_improvement < 0.0 {
                return Err(ServeError::InvalidRequest(
                    "autoscale_improvement must be finite and >= 0".into(),
                ));
            }
        }
        Ok(())
    }

    /// The staleness bound incremental classification runs under.
    pub fn staleness_bound(&self) -> svd_kernels::incremental::StalenessBound {
        svd_kernels::incremental::StalenessBound {
            max_delta_rel: self.max_delta_rel,
            max_warm_solves: self.max_warm_solves,
        }
    }

    /// The smallest column count a request may have: one block pair.
    pub fn min_cols(&self) -> usize {
        2 * self.engine_parallelism
    }

    /// The accelerator configuration every replica uses for `shape`
    /// requests — the single construction site, so each replica of the
    /// pool derives an *identical* config and therefore shares one
    /// cached plan (see [`heterosvd::plan_cache`]).
    ///
    /// # Errors
    ///
    /// [`heterosvd::HeteroSvdError::InvalidConfig`] when the shape or
    /// knobs are invalid (admission normally rejects such shapes first).
    pub fn accelerator_config(
        &self,
        shape: (usize, usize),
    ) -> Result<heterosvd::HeteroSvdConfig, heterosvd::HeteroSvdError> {
        self.build_config_at(shape, self.engine_parallelism, self.task_parallelism, 1)
    }

    /// [`ServeConfig::accelerator_config`] at an explicit live plan
    /// instead of the frozen `engine_parallelism`/`task_parallelism`
    /// knobs — the construction site replicas use while the online-DSE
    /// autoscaler re-plans them. Every non-plan knob (precision,
    /// fidelity, observability, ...) still comes from `self`, so two
    /// replicas on the same plan generation share one cached plan.
    ///
    /// # Errors
    ///
    /// [`heterosvd::HeteroSvdError::InvalidConfig`] when the shape does
    /// not block under `p_eng` (the caller falls back to the base plan).
    pub fn accelerator_config_at(
        &self,
        shape: (usize, usize),
        p_eng: usize,
        p_task: usize,
    ) -> Result<heterosvd::HeteroSvdConfig, heterosvd::HeteroSvdError> {
        self.build_config_at(shape, p_eng, p_task, 1)
    }

    /// The accelerator configuration for a *packed* wave of `tenants`
    /// co-resident problems: Eq. (14) divides the batch by the tenant
    /// count, and [`heterosvd::HeteroSvdConfig::co_residency`] scales the
    /// shared PLIO/DDR interfaces so each tenant's modeled time reflects
    /// `tenants`-way contention (Eq. 9–12). `tenants` enters the plan
    /// fingerprint, so packed and solo timing profiles never conflate.
    ///
    /// # Errors
    ///
    /// [`heterosvd::HeteroSvdError`] when the shape or knobs are invalid
    /// or `tenants` stripes exceed the device's capacity.
    pub fn packed_accelerator_config(
        &self,
        shape: (usize, usize),
        tenants: usize,
    ) -> Result<heterosvd::HeteroSvdConfig, heterosvd::HeteroSvdError> {
        self.build_config_at(shape, self.engine_parallelism, tenants, tenants)
    }

    /// [`ServeConfig::packed_accelerator_config`] at an explicit live
    /// `P_eng` (see [`ServeConfig::accelerator_config_at`]).
    ///
    /// # Errors
    ///
    /// [`heterosvd::HeteroSvdError`] when the shape or knobs are invalid
    /// or `tenants` stripes exceed the device's capacity at `p_eng`.
    pub fn packed_accelerator_config_at(
        &self,
        shape: (usize, usize),
        p_eng: usize,
        tenants: usize,
    ) -> Result<heterosvd::HeteroSvdConfig, heterosvd::HeteroSvdError> {
        self.build_config_at(shape, p_eng, tenants, tenants)
    }

    /// How many tenants a replica should pack a `batch`-request wave
    /// into: `min(stripe capacity, batch)`, or 1 when packing is off,
    /// the batch is a singleton, or the shape's stripe doesn't fit at
    /// least two tenants (the sequential fallback).
    pub fn packed_tenants(&self, shape: (usize, usize), batch: usize) -> usize {
        self.packed_tenants_at(shape, batch, self.engine_parallelism)
    }

    /// [`ServeConfig::packed_tenants`] under an explicit live `P_eng`
    /// (the stripe capacity is a function of the engine parallelism the
    /// current plan actually runs).
    pub fn packed_tenants_at(&self, shape: (usize, usize), batch: usize, p_eng: usize) -> usize {
        if !self.array_packing || batch < 2 {
            return 1;
        }
        let capacity = match self.accelerator_config_at(shape, p_eng, self.task_parallelism) {
            Ok(cfg) => heterosvd::tenant_capacity(cfg.geometry(), cfg.engine_parallelism),
            Err(_) => 1,
        };
        if capacity < 2 {
            return 1;
        }
        capacity.min(batch)
    }

    fn build_config_at(
        &self,
        shape: (usize, usize),
        engine_parallelism: usize,
        task_parallelism: usize,
        co_residency: usize,
    ) -> Result<heterosvd::HeteroSvdConfig, heterosvd::HeteroSvdError> {
        let mut builder = heterosvd::HeteroSvdConfig::builder(shape.0, shape.1)
            .engine_parallelism(engine_parallelism)
            .task_parallelism(task_parallelism)
            .co_residency(co_residency)
            .precision(self.precision)
            .fidelity(self.fidelity)
            .observability(self.observability);
        if let Some(iters) = self.fixed_iterations {
            builder = builder.fixed_iterations(iters);
        }
        builder.build()
    }

    /// Checks that a `rows x cols` request is admissible under the
    /// replica shape constraints (`rows >= cols`, `cols` a positive
    /// multiple of `2 * P_eng`).
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidRequest`] naming the violated constraint.
    pub fn check_shape(&self, rows: usize, cols: usize) -> Result<(), ServeError> {
        let unit = self.min_cols();
        if cols == 0 || !cols.is_multiple_of(unit) {
            return Err(ServeError::InvalidRequest(format!(
                "cols = {cols} must be a positive multiple of 2*P_eng = {unit}"
            )));
        }
        if rows < cols {
            return Err(ServeError::InvalidRequest(format!(
                "rows = {rows} must be >= cols = {cols} (submit the transpose)"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        ServeConfig::default().validate().unwrap();
    }

    #[test]
    fn zero_knobs_are_rejected() {
        for mutate in [
            (|c: &mut ServeConfig| c.workers = 0) as fn(&mut ServeConfig),
            |c| c.queue_capacity = 0,
            |c| c.max_batch = 0,
            |c| c.engine_parallelism = 0,
            |c| c.task_parallelism = 0,
            |c| c.factor_store_bytes = 0,
        ] {
            let mut c = ServeConfig::default();
            mutate(&mut c);
            assert!(c.validate().is_err(), "accepted invalid config {c:?}");
        }
    }

    #[test]
    fn incremental_knob_invariants() {
        let c = ServeConfig {
            incremental: true,
            ..ServeConfig::default()
        };
        c.validate().unwrap();
        assert_eq!(c.staleness_bound().max_delta_rel, c.max_delta_rel);
        assert_eq!(c.staleness_bound().max_warm_solves, c.max_warm_solves);
        // The knob requires functional fidelity plus positive bounds.
        for mutate in [
            (|c: &mut ServeConfig| {
                c.fidelity = FidelityMode::TimingOnly;
                c.fixed_iterations = Some(4);
            }) as fn(&mut ServeConfig),
            |c| c.factor_cache_bytes = 0,
            |c| c.max_delta_rel = 0.0,
            |c| c.max_delta_rel = f64::NAN,
            |c| c.max_warm_solves = 0,
            |c| c.update_cache_rank = 0,
            |c| c.max_update_rank = 0,
        ] {
            let mut c = ServeConfig {
                incremental: true,
                ..ServeConfig::default()
            };
            mutate(&mut c);
            assert!(c.validate().is_err(), "accepted invalid config {c:?}");
            // Every one of these bounds is vacuous with the knob off.
            c.incremental = false;
            c.validate().unwrap();
        }
    }

    #[test]
    fn packed_tenants_respects_knob_capacity_and_batch() {
        let mut c = ServeConfig::default(); // P_eng = 2 -> capacity 16 on VCK190
        assert_eq!(c.packed_tenants((16, 16), 8), 8, "batch-bound");
        assert_eq!(c.packed_tenants((16, 16), 64), 16, "capacity-bound");
        assert_eq!(c.packed_tenants((16, 16), 1), 1, "singleton stays solo");
        c.array_packing = false;
        assert_eq!(c.packed_tenants((16, 16), 8), 1, "knob off");
        c.array_packing = true;
        c.engine_parallelism = 8; // stripe capacity 1 -> sequential fallback
        assert_eq!(c.packed_tenants((32, 32), 8), 1);
    }

    #[test]
    fn packed_config_sets_wave_width_and_contention_class() {
        let c = ServeConfig::default();
        let cfg = c.packed_accelerator_config((16, 16), 4).unwrap();
        assert_eq!(cfg.task_parallelism, 4);
        assert_eq!(cfg.co_residency, 4);
        let solo = c.accelerator_config((16, 16)).unwrap();
        assert_eq!(solo.co_residency, 1);
    }

    #[test]
    fn autoscale_knob_invariants() {
        let mut c = ServeConfig {
            autoscale: true,
            ..ServeConfig::default()
        };
        c.validate().unwrap();
        c.autoscale_interval = Duration::ZERO;
        assert!(c.validate().is_err());
        c.autoscale_interval = Duration::from_millis(50);
        for bad in [f64::NAN, f64::INFINITY, -0.5] {
            c.autoscale_improvement = bad;
            assert!(c.validate().is_err(), "accepted improvement {bad}");
        }
        c.autoscale_improvement = 0.0;
        c.validate().unwrap();
        // Every bound is vacuous with the controller off.
        c.autoscale = false;
        c.autoscale_interval = Duration::ZERO;
        c.validate().unwrap();
    }

    #[test]
    fn shape_classed_knob_invariants() {
        let mut c = ServeConfig {
            shape_classed: true,
            ..ServeConfig::default()
        };
        c.validate().unwrap();
        for bad in [f64::NAN, f64::INFINITY, 0.0, -0.1, 1.5] {
            c.shed_threshold = bad;
            assert!(c.validate().is_err(), "accepted shed_threshold {bad}");
            // The bound is vacuous with the scheduler off.
            c.shape_classed = false;
            c.validate().unwrap();
            c.shape_classed = true;
        }
    }

    #[test]
    fn plan_parameterized_configs_match_the_frozen_ones() {
        let c = ServeConfig::default();
        let frozen = c.accelerator_config((16, 16)).unwrap();
        let live = c
            .accelerator_config_at((16, 16), c.engine_parallelism, c.task_parallelism)
            .unwrap();
        assert_eq!(frozen, live, "identity plan must derive the same config");
        let swapped = c.accelerator_config_at((32, 32), 4, 2).unwrap();
        assert_eq!(swapped.engine_parallelism, 4);
        assert_eq!(swapped.task_parallelism, 2);
        // A live P_eng the shape cannot block under is an error the
        // replica maps to the base-plan fallback.
        assert!(c.accelerator_config_at((16, 6), 2, 1).is_err());
        // Stripe capacity follows the live plan, not the frozen knob.
        assert_eq!(c.packed_tenants_at((32, 32), 8, 2), 8);
        assert_eq!(c.packed_tenants_at((32, 32), 8, 8), 1);
        let packed = c.packed_accelerator_config_at((32, 32), 4, 3).unwrap();
        assert_eq!(packed.engine_parallelism, 4);
        assert_eq!(packed.co_residency, 3);
    }

    #[test]
    fn shape_constraints_follow_the_accelerator() {
        let c = ServeConfig::default(); // P_eng = 2 -> cols % 4 == 0
        c.check_shape(16, 8).unwrap();
        c.check_shape(8, 8).unwrap();
        assert!(c.check_shape(16, 6).is_err());
        assert!(c.check_shape(16, 0).is_err());
        assert!(c.check_shape(4, 8).is_err());
    }
}
