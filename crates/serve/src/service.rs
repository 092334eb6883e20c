//! The serving front end: admission, replica pool, lifecycle.

use crate::batcher::{self, Batch, BatchEntry, FormOutcome};
use crate::config::ServeConfig;
use crate::error::ServeError;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::report::{CacheReport, MetricsReport, ShapeUtilization};
use crate::request::{
    ApplyHandle, ApplyResponse, BatchKey, Completion, Handle, LatencyRecord, Payload,
    PendingRequest, PlanInfo, PublishSpec, RequestHandle, RequestId, RequestState, SloClass,
    SubmitOptions, SvdResponse, UpdateHandle, UpdateResponse,
};
use crate::scheduler::{ClassScheduler, PushError, ShedController, SHED_BATCH, SHED_STANDARD};
use aie_sim::TimePs;
use factor_store::{FactorStore, ModelId, PublishedFactors};
use heterosvd::apply::ApplyShape;
use heterosvd::factor_cache::{ClientId, FactorCache, FactorCacheEntry};
use heterosvd::obs::{self, ResourceCounts, Stage, UtilizationReport};
use heterosvd::{Accelerator, ApplyModel, HeteroSvdError, HeteroSvdOutput};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;
use svd_kernels::incremental::{
    classify_update, lowrank_update, FallbackReason, UpdateClass, UpdateRoute,
};
use svd_kernels::JacobiOptions;
use svd_kernels::Matrix;

/// A batch-serving SVD service.
///
/// Requests enter through a bounded admission scheduler ([`SvdService::try_submit`]
/// exerts backpressure with [`ServeError::QueueFull`]). Each idle replica
/// of the accelerator pool cuts the next batch of compatible requests
/// from it and executes that batch via [`Accelerator::run_many`],
/// charging every request in it the Eq. (14) system time
/// `⌈B / P_task⌉ · t_task`.
///
/// Alongside full factorizations the service runs a decompose-once /
/// apply-constantly path: [`SvdService::try_submit_publish`] truncates a
/// successful factorization and publishes it into the service's
/// [`FactorStore`], and [`SvdService::try_submit_apply`] streams a vector
/// through the store-resident rank-r factors — numerically exact (the
/// same `f32` arithmetic a direct truncated product performs) and
/// charged with the modeled Eq. 8–14 apply-pipeline time.
///
/// A replica that panics while serving a batch is contained: the batch's
/// requests fail with [`ServeError::WorkerPanicked`], the replica thread
/// retires, and a replacement is spawned so capacity recovers.
/// [`SvdService::shutdown`] (also run on drop) closes admission, drains
/// everything already queued, and joins all threads.
pub struct SvdService {
    inner: Arc<Inner>,
    autoscaler: Mutex<Option<JoinHandle<()>>>,
    shutdown_done: AtomicBool,
}

pub(crate) struct Inner {
    pub(crate) config: ServeConfig,
    /// Admitted requests awaiting batch formation: FIFO, or classed
    /// EDF with [`ServeConfig::shape_classed`] on.
    admission: ClassScheduler,
    /// The formation lock: an idle replica holds it while it cuts its
    /// next batch, so one replica forms at a time. It owns the load
    /// shedder (classed mode only), whose holder is its single writer.
    formation: Mutex<Option<ShedController>>,
    pub(crate) metrics: Metrics,
    next_id: AtomicU64,
    replicas_live: AtomicUsize,
    workers: Mutex<Vec<JoinHandle<()>>>,
    shutting_down: AtomicBool,
    /// Truncated factors published by decompose requests and served by
    /// apply requests; apply admission pins the current version.
    store: FactorStore,
    /// Per-client previous factorization state backing incremental
    /// updates; update admission pins the client's entry and classifies
    /// against it. Empty (and never consulted) with
    /// [`ServeConfig::incremental`] off.
    pub(crate) factor_cache: FactorCache,
    /// Timing model of the rank-r apply pipeline, sharing the replicas'
    /// calibration and PL frequency so modeled apply and decompose times
    /// are directly comparable.
    apply_model: ApplyModel,
    /// Per-shape resource utilization, merged across every batch each
    /// replica completes (empty with observability off).
    utilization: Mutex<HashMap<(usize, usize), UtilizationReport>>,
    /// The `(P_eng, P_task)` plan replicas execute under. Starts at the
    /// configured knobs at generation 0; the autoscale controller swaps
    /// it between batches. Replicas read it exactly once per batch, so
    /// every batch executes wholly under one plan generation
    /// (drain-and-replace: an in-flight batch finishes on the plan it
    /// started under).
    pub(crate) live_plan: Mutex<PlanInfo>,
    /// Autoscaler parking spot: `autoscale_stop` flips on shutdown and
    /// `autoscale_cv` wakes the thread so it exits without waiting out
    /// its interval.
    pub(crate) autoscale_stop: Mutex<bool>,
    pub(crate) autoscale_cv: Condvar,
}

impl Inner {
    /// The metrics snapshot with the live gauges: queue depth, live
    /// replicas, the shed level and the current plan.
    fn snapshot(&self) -> MetricsSnapshot {
        let current_plan = *self.live_plan.lock();
        MetricsSnapshot {
            current_plan,
            shed_level: u64::from(self.admission.shed_level()),
            ..self.metrics.snapshot(
                self.admission.len(),
                self.replicas_live.load(Ordering::SeqCst),
            )
        }
    }

    /// Per-(key, class) batch-formation budget: how large the key's
    /// batch may grow and how long a request of the class may wait for
    /// batch-mates, counted from its admission. FIFO admission gives
    /// every key and class the configured `(max_batch, max_linger)`;
    /// classed admission adjusts it:
    ///
    /// * Interactive requests linger a quarter of the configured budget —
    ///   their SLO buys latency with fill, Eq. 14 be damned.
    /// * When the shape's observed critical resource is PLIO (I/O-bound,
    ///   e.g. 26.6% PLIO vs higher core slack at small shapes), batches
    ///   are capped at the packed-stripe capacity: growing a batch past
    ///   the co-resident wave width only adds linger, because the extra
    ///   requests serialize into a second wave anyway.
    fn class_policy(&self, key: BatchKey, class: SloClass) -> (usize, std::time::Duration) {
        let mut max_batch = self.config.max_batch;
        let mut linger = self.config.max_linger;
        if !self.config.shape_classed {
            return (max_batch, linger);
        }
        if class == SloClass::Interactive {
            linger /= 4;
        }
        if let BatchKey::Decompose { rows, cols } | BatchKey::Update { rows, cols } = key {
            let shape = (rows, cols);
            let plio_critical = self
                .utilization
                .lock()
                .get(&shape)
                .is_some_and(|report| report.critical == heterosvd::obs::ResourceKind::Plio);
            if plio_critical {
                let p_eng = self.live_plan.lock().engine_parallelism;
                let capacity = self.config.packed_tenants_at(shape, usize::MAX, p_eng);
                if capacity >= 2 {
                    max_batch = max_batch.min(capacity);
                }
            }
        }
        (max_batch, linger)
    }

    /// Builds one exportable observability capture: metrics snapshot +
    /// per-shape utilization + cache/store counters + global
    /// span-journal summary.
    fn metrics_report(&self) -> MetricsReport {
        let snapshot = self.snapshot();
        let mut utilization: Vec<ShapeUtilization> = self
            .utilization
            .lock()
            .iter()
            .map(|(&(rows, cols), report)| ShapeUtilization {
                rows,
                cols,
                report: report.clone(),
            })
            .collect();
        utilization.sort_by_key(|s| (s.rows, s.cols));
        MetricsReport {
            snapshot,
            utilization,
            caches: CacheReport {
                plan: heterosvd::plan_cache::global().stats(),
                apply_profiles: heterosvd::apply::global_profiles().stats(),
                factor_store: self.store.stats(),
                factor_cache: self.factor_cache.stats(),
            },
            journal: obs::global().summary(),
        }
    }
}

impl SvdService {
    /// Validates `config`, spawns the replica pool, and starts serving.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidRequest`] when the configuration is invalid.
    pub fn start(config: ServeConfig) -> Result<Self, ServeError> {
        config.validate()?;
        // The apply timing model shares the calibration and PL frequency
        // of the replicas' accelerator config (built at the minimal
        // admissible shape; the knobs are shape-independent).
        let unit = config.min_cols();
        let apply_model = ApplyModel::from_config(
            &config
                .accelerator_config((unit, unit))
                .map_err(ServeError::from)?,
        )
        .map_err(ServeError::from)?;
        // Only classed admission sheds.
        let shed = config.shape_classed.then(|| {
            ShedController::new(config.shed_threshold, std::time::Duration::from_millis(100))
        });
        let inner = Arc::new(Inner {
            admission: ClassScheduler::new(config.queue_capacity, config.shape_classed),
            formation: Mutex::new(shed),
            metrics: Metrics::new(),
            next_id: AtomicU64::new(0),
            replicas_live: AtomicUsize::new(0),
            workers: Mutex::new(Vec::new()),
            shutting_down: AtomicBool::new(false),
            store: FactorStore::new(config.factor_store_bytes),
            factor_cache: FactorCache::new(config.factor_cache_bytes),
            apply_model,
            utilization: Mutex::new(HashMap::new()),
            live_plan: Mutex::new(base_plan(&config, 0)),
            autoscale_stop: Mutex::new(false),
            autoscale_cv: Condvar::new(),
            config,
        });
        for _ in 0..inner.config.workers {
            spawn_replica(&inner);
        }
        let autoscaler = inner.config.autoscale.then(|| {
            let controller_inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("svd-autoscaler".into())
                .spawn(move || crate::autoscale::autoscale_main(controller_inner))
                .expect("failed to spawn autoscaler thread")
        });
        Ok(SvdService {
            inner,
            autoscaler: Mutex::new(autoscaler),
            shutdown_done: AtomicBool::new(false),
        })
    }

    /// Submits `matrix` with the service's default options.
    ///
    /// # Errors
    ///
    /// See [`SvdService::try_submit_with`].
    pub fn try_submit(&self, matrix: Matrix<f64>) -> Result<RequestHandle, ServeError> {
        self.try_submit_with(matrix, SubmitOptions::default())
    }

    /// Submits `matrix`, never blocking: a full queue is reported as
    /// [`ServeError::QueueFull`] so the caller can back off.
    ///
    /// # Errors
    ///
    /// * [`ServeError::InvalidRequest`] — the shape violates the replica
    ///   constraints ([`ServeConfig::check_shape`]).
    /// * [`ServeError::QueueFull`] — backpressure; retry later.
    /// * [`ServeError::ShuttingDown`] — the service no longer admits.
    pub fn try_submit_with(
        &self,
        matrix: Matrix<f64>,
        options: SubmitOptions,
    ) -> Result<RequestHandle, ServeError> {
        self.submit_decompose(matrix, None, options, false)
    }

    /// Submits `matrix` for decomposition and — on success — truncates
    /// the factorization to `rank` and publishes it as the next version
    /// of `model` in the service's factor store, where
    /// [`SvdService::try_submit_apply`] can serve it.
    ///
    /// # Errors
    ///
    /// As [`SvdService::try_submit_with`], plus
    /// [`ServeError::InvalidRequest`] when `rank` is outside
    /// `1..=cols`.
    pub fn try_submit_publish(
        &self,
        model: ModelId,
        matrix: Matrix<f64>,
        rank: usize,
    ) -> Result<RequestHandle, ServeError> {
        self.try_submit_publish_with(model, matrix, rank, SubmitOptions::default())
    }

    /// [`SvdService::try_submit_publish`] with explicit options.
    ///
    /// # Errors
    ///
    /// See [`SvdService::try_submit_publish`].
    pub fn try_submit_publish_with(
        &self,
        model: ModelId,
        matrix: Matrix<f64>,
        rank: usize,
        options: SubmitOptions,
    ) -> Result<RequestHandle, ServeError> {
        self.submit_decompose(matrix, Some(PublishSpec { model, rank }), options, false)
    }

    /// Submits a rank-r apply `y = U_r·Σ_r·V_rᵀ·x` against the factors
    /// of `model` with the service's default options. The current factor
    /// version is pinned at admission: a republish or eviction racing
    /// the request cannot change (or free) the factors it applies.
    ///
    /// `rank_hint` caps the applied rank; `None` applies the full stored
    /// rank. The served result is bit-identical to the direct truncated
    /// product at the same rank.
    ///
    /// # Errors
    ///
    /// * [`ServeError::InvalidRequest`] — no published factors for
    ///   `model`, the length of `x` does not match, or the rank hint is
    ///   outside `1..=stored_rank`.
    /// * [`ServeError::QueueFull`] / [`ServeError::ShuttingDown`] — as
    ///   for decompose submission.
    pub fn try_submit_apply(
        &self,
        model: ModelId,
        x: &[f64],
        rank_hint: Option<usize>,
    ) -> Result<ApplyHandle, ServeError> {
        self.try_submit_apply_with(model, x, rank_hint, SubmitOptions::default())
    }

    /// [`SvdService::try_submit_apply`] with explicit options.
    ///
    /// # Errors
    ///
    /// See [`SvdService::try_submit_apply`].
    pub fn try_submit_apply_with(
        &self,
        model: ModelId,
        x: &[f64],
        rank_hint: Option<usize>,
        options: SubmitOptions,
    ) -> Result<ApplyHandle, ServeError> {
        self.admit(options, false, Completion::into_apply, |inner| {
            let invalid = |msg| Err(ServeError::InvalidRequest(msg));
            let Some(factors) = inner.store.get(model) else {
                return invalid(format!("{model} has no published factors"));
            };
            if x.len() != factors.meta.cols {
                return invalid(format!(
                    "input length {} does not match {model} cols {}",
                    x.len(),
                    factors.meta.cols
                ));
            }
            let rank = rank_hint.unwrap_or(factors.meta.rank);
            if rank == 0 || rank > factors.meta.rank {
                return invalid(format!(
                    "rank hint {rank} outside 1..={} stored for {model}",
                    factors.meta.rank
                ));
            }
            Ok(Payload::Apply {
                // Cast to the device's native f32 once, at admission.
                x: x.iter().map(|&v| v as f32).collect(),
                factors,
                rank,
            })
        })
    }

    /// Submits an incremental update of `client`'s matrix with the
    /// service's default options.
    ///
    /// # Errors
    ///
    /// See [`SvdService::try_submit_update_with`].
    pub fn try_submit_update(
        &self,
        client: ClientId,
        matrix: Matrix<f64>,
    ) -> Result<UpdateHandle, ServeError> {
        self.try_submit_update_with(client, matrix, SubmitOptions::default())
    }

    /// Submits an incremental update: the service classifies `matrix`
    /// against `client`'s cached previous factorization at admission
    /// (pinning the cache entry, so an eviction racing the request
    /// cannot change the basis it was classified against) and the
    /// replica executes the chosen route — a warm-started Jacobi solve
    /// seeded from the cached right basis, a host-only Brand-style
    /// low-rank bump of the cached truncated factors, or a full
    /// recompute when the update is too stale (or the client is cold).
    /// Every route refreshes the client's cache entry for the next
    /// update.
    ///
    /// # Errors
    ///
    /// * [`ServeError::InvalidRequest`] — [`ServeConfig::incremental`]
    ///   is off, the shape violates the replica constraints, or the
    ///   matrix contains non-finite values.
    /// * [`ServeError::QueueFull`] / [`ServeError::ShuttingDown`] — as
    ///   for decompose submission.
    pub fn try_submit_update_with(
        &self,
        client: ClientId,
        matrix: Matrix<f64>,
        options: SubmitOptions,
    ) -> Result<UpdateHandle, ServeError> {
        self.admit(options, false, Completion::into_update, |inner| {
            if !inner.config.incremental {
                return Err(ServeError::InvalidRequest(
                    "incremental updates are disabled (set ServeConfig::incremental)".into(),
                ));
            }
            inner.config.check_shape(matrix.rows(), matrix.cols())?;
            let shape = (matrix.rows(), matrix.cols());
            // Cast to the device's native f32 once, at admission (the
            // fingerprint and classification run on exactly the bits the
            // solve will see).
            let matrix = matrix.cast::<f32>();
            let entry = inner.factor_cache.get(client);
            let class = entry
                .as_deref()
                .map(|cached| {
                    // The low-rank path re-truncates to the cached rank r,
                    // so the augmented core must fit: k <= min(m, n) - r.
                    let k_budget = inner
                        .config
                        .max_update_rank
                        .min(shape.0.min(shape.1).saturating_sub(cached.truncated.rank()));
                    classify_update(
                        &matrix,
                        &cached.a_prev,
                        cached.warm_solves_since_full,
                        &inner.config.staleness_bound(),
                        k_budget,
                    )
                    .map_err(|e| ServeError::from(HeteroSvdError::Numeric(e)))
                })
                .transpose()?;
            Ok(Payload::Update {
                matrix,
                shape,
                client,
                entry,
                class,
            })
        })
    }

    /// Chaos/test hook: admits a request whose replica panics instead of
    /// executing it, exercising the containment and replacement path.
    #[doc(hidden)]
    pub fn try_submit_poison(&self, rows: usize, cols: usize) -> Result<RequestHandle, ServeError> {
        self.submit_decompose(
            Matrix::zeros(rows, cols),
            None,
            SubmitOptions::default(),
            true,
        )
    }

    fn submit_decompose(
        &self,
        matrix: Matrix<f64>,
        publish: Option<PublishSpec>,
        options: SubmitOptions,
        poison: bool,
    ) -> Result<RequestHandle, ServeError> {
        self.admit(options, poison, Completion::into_svd, |inner| {
            if let Some(PublishSpec { rank, .. }) = publish {
                if rank == 0 || rank > matrix.cols() {
                    return Err(ServeError::InvalidRequest(format!(
                        "publish rank {rank} outside 1..={}",
                        matrix.cols()
                    )));
                }
            }
            inner.config.check_shape(matrix.rows(), matrix.cols())?;
            Ok(Payload::Decompose {
                shape: (matrix.rows(), matrix.cols()),
                // Cast to the device's native f32 once, here: the request
                // queues at half the memory and the replica moves the data
                // straight into the accelerator with no further conversion.
                matrix: matrix.cast::<f32>(),
                publish,
            })
        })
    }

    /// The one admission path. It refuses after shutdown, builds the
    /// payload with `build` (counting a refused payload in
    /// `rejected_invalid`), sheds by class under overload, stamps the id
    /// and deadline, and pushes into the bounded admission scheduler.
    fn admit<R>(
        &self,
        options: SubmitOptions,
        poison: bool,
        unwrap: fn(Completion) -> R,
        build: impl FnOnce(&Inner) -> Result<Payload, ServeError>,
    ) -> Result<Handle<R>, ServeError> {
        let inner = &*self.inner;
        if inner.shutting_down.load(Ordering::SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        let payload = build(inner).inspect_err(|_| {
            inner
                .metrics
                .rejected_invalid
                .fetch_add(1, Ordering::Relaxed);
        })?;
        let submitted_at = Instant::now();
        // Load shedding (classed mode only; the FIFO tier never
        // rises): past the controller's tier, Batch (then also
        // Standard) traffic is refused at the door with a retryable
        // error rather than queued into certain timeout.
        let level = inner.admission.shed_level();
        let shed = match options.class {
            SloClass::Batch => level >= SHED_BATCH,
            SloClass::Standard => level >= SHED_STANDARD,
            SloClass::Interactive => false,
        };
        if shed {
            inner.metrics.record_shed(options.class);
            return Err(ServeError::Overloaded);
        }
        let id = RequestId(inner.next_id.fetch_add(1, Ordering::Relaxed));
        let state = RequestState::new();
        let request = PendingRequest {
            id,
            payload,
            state: Arc::clone(&state),
            submitted_at,
            deadline: options.timeout.map(|t| submitted_at + t),
            seen_at: None,
            class: options.class,
            poison,
        };
        let rtype = request.request_type();
        match inner.admission.try_push(request, &inner.metrics) {
            Ok(()) => {
                inner.metrics.record_submitted(rtype, options.class);
                if inner.config.observability {
                    obs::global().record(Stage::Admit, Some(id.0), submitted_at.elapsed(), None);
                }
                Ok(Handle { id, state, unwrap })
            }
            Err(PushError::Full(_)) => {
                inner.metrics.rejected_full.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::QueueFull {
                    capacity: inner.config.queue_capacity,
                })
            }
            Err(PushError::Closed(_)) => Err(ServeError::ShuttingDown),
        }
    }

    /// The service's factor store: published truncated factors and
    /// their hit/miss/eviction counters.
    pub fn store(&self) -> &FactorStore {
        &self.inner.store
    }

    /// The per-client factor cache backing incremental updates: cached
    /// bases, hit/miss/eviction counters, and per-client byte usage.
    pub fn factor_cache(&self) -> &FactorCache {
        &self.inner.factor_cache
    }

    /// A point-in-time view of the service's counters and latency
    /// percentiles.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.snapshot()
    }

    /// The configuration the service was started with.
    pub fn config(&self) -> &ServeConfig {
        &self.inner.config
    }

    /// The plan replicas currently execute under. With
    /// [`ServeConfig::autoscale`] off this is the configured
    /// `(engine_parallelism, task_parallelism)` at generation 0 forever;
    /// with it on, the controller advances it on every committed swap.
    pub fn current_plan(&self) -> PlanInfo {
        *self.inner.live_plan.lock()
    }

    /// One exportable observability capture: the metrics snapshot,
    /// per-shape resource utilization merged across every completed
    /// batch, plan/profile-cache and factor-store counters, and the
    /// global span-journal summary. Render it with
    /// [`MetricsReport::to_json`] or [`MetricsReport::to_prometheus`].
    pub fn metrics_report(&self) -> MetricsReport {
        self.inner.metrics_report()
    }

    /// Stops admitting, drains every queued request to a terminal state,
    /// and joins all replicas. Idempotent; also run on drop.
    pub fn shutdown(&self) {
        if self.shutdown_done.swap(true, Ordering::SeqCst) {
            return;
        }
        self.inner.shutting_down.store(true, Ordering::SeqCst);
        self.inner.admission.close();
        *self.inner.autoscale_stop.lock() = true;
        self.inner.autoscale_cv.notify_all();
        if let Some(handle) = self.autoscaler.lock().take() {
            let _ = handle.join();
        }
        // Replicas drain the closed admission scheduler and retire.
        // Replacement replicas may register while we join, so loop until
        // the registry is empty.
        loop {
            let drained: Vec<JoinHandle<()>> = {
                let mut workers = self.inner.workers.lock();
                workers.drain(..).collect()
            };
            if drained.is_empty() {
                break;
            }
            for handle in drained {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for SvdService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Spawns one replica thread and registers it for shutdown joining.
fn spawn_replica(inner: &Arc<Inner>) {
    inner
        .metrics
        .replicas_spawned
        .fetch_add(1, Ordering::Relaxed);
    inner.replicas_live.fetch_add(1, Ordering::SeqCst);
    let thread_inner = Arc::clone(inner);
    let handle = std::thread::Builder::new()
        .name("svd-replica".into())
        .spawn(move || replica_main(thread_inner))
        .expect("failed to spawn replica thread");
    inner.workers.lock().push(handle);
}

/// Replica thread: cuts a batch under the formation lock, releases the
/// lock and executes that batch, until admission is closed and drained.
/// A panic while serving a batch fails that batch, retires this replica,
/// and spawns a replacement.
fn replica_main(inner: Arc<Inner>) {
    let policy = |key, class| inner.class_policy(key, class);
    let mut accelerators: HashMap<AcceleratorKey, (Accelerator, PlanInfo)> = HashMap::new();
    let mut accel_generation: u64 = 0;
    loop {
        let formed = {
            let mut shed = inner.formation.lock();
            if let Some(shed) = shed.as_mut() {
                shed.update(&inner.metrics, &inner.admission);
            }
            batcher::form_batch(&inner.admission, &inner.config, &inner.metrics, &policy)
        };
        let mut batch = match formed {
            FormOutcome::Formed(batch) => batch,
            FormOutcome::Idle => continue,
            FormOutcome::Drained => break,
        };
        // Read the live plan exactly once per batch: the whole batch
        // executes under this plan even if the controller swaps mid-run
        // (drain-and-replace).
        let plan = *inner.live_plan.lock();
        if plan.generation != accel_generation {
            // The plan changed since this replica last built its
            // accelerators; drop them so this batch (and every later
            // one) rebuilds under the new plan.
            accelerators.clear();
            accel_generation = plan.generation;
        }
        let exec_started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            execute_batch(&inner, &mut accelerators, &mut batch, exec_started, plan)
        }));
        if let Err(payload) = outcome {
            let err = ServeError::from(HeteroSvdError::worker_panicked(payload.as_ref()));
            inner.metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
            fail_batch(&inner.metrics, &batch, &err);
            inner.replicas_live.fetch_sub(1, Ordering::SeqCst);
            // Replace the poisoned replica; during shutdown the
            // replacement drains the closed scheduler and retires.
            spawn_replica(&inner);
            return;
        }
    }
    inner.replicas_live.fetch_sub(1, Ordering::SeqCst);
}

/// Ends every still-pending request of `batch` with `err`: the one
/// failure path for a whole batch (accelerator build or run error,
/// replica panic).
fn fail_batch(metrics: &Metrics, batch: &Batch, err: &ServeError) {
    for entry in &batch.entries {
        entry.request.finish(Err(err.clone()), metrics);
    }
}

/// The latency record of `entry`, completing now in a batch of
/// `batch_size` that a replica started at `exec_started`.
fn latency(
    entry: &BatchEntry,
    exec_started: Instant,
    batch_size: usize,
    sim_exec_ps: u64,
    plan: PlanInfo,
) -> LatencyRecord {
    LatencyRecord {
        queue_wait: entry
            .picked_at
            .saturating_duration_since(entry.request.submitted_at),
        batch_linger: exec_started.saturating_duration_since(entry.picked_at),
        sim_exec_ps,
        batch_size,
        wall_total: entry.request.submitted_at.elapsed(),
        plan,
    }
}

/// The configured plan at `generation`: the plan the service starts
/// on, and the attribution of work that never touches the accelerator
/// array (apply batches and host-only update routes), whatever the live
/// decompose plan is.
fn base_plan(config: &ServeConfig, generation: u64) -> PlanInfo {
    PlanInfo {
        engine_parallelism: config.engine_parallelism,
        task_parallelism: config.task_parallelism,
        generation,
    }
}

/// Runs one batch on this replica: last-moment lifecycle checks, then
/// the decompose, apply or update execution path for the batch's key.
fn execute_batch(
    inner: &Inner,
    accelerators: &mut HashMap<AcceleratorKey, (Accelerator, PlanInfo)>,
    batch: &mut Batch,
    exec_started: Instant,
    plan: PlanInfo,
) {
    // Second drop point, distinct from the check at the cut: a request
    // cancelled, or whose deadline passed, between the cut and this
    // exec start ends here and leaves the batch. Waiting for a busy
    // pool happens in the queue, so its expiries count at formation.
    let now = Instant::now();
    batch
        .entries
        .retain(|entry| !entry.request.end_if_dead(now, true, &inner.metrics));
    if batch.entries.is_empty() {
        return;
    }
    if let Some(pill) = batch.entries.iter().find(|entry| entry.request.poison) {
        panic!("poison pill {} detonated in replica", pill.request.id);
    }

    inner
        .metrics
        .batches_dispatched
        .fetch_add(1, Ordering::Relaxed);
    match batch.key {
        BatchKey::Decompose { rows, cols } => {
            execute_decompose(inner, accelerators, batch, exec_started, (rows, cols), plan);
        }
        BatchKey::Apply { .. } => execute_apply(inner, batch, exec_started, plan),
        BatchKey::Update { rows, cols } => {
            execute_update(inner, accelerators, batch, exec_started, (rows, cols), plan);
        }
    }
}

/// Runs one shape-uniform decompose batch on this replica's accelerator,
/// charging each request the shared Eq. (14) system time. Each
/// request's matrix is *moved* into the accelerator (zero-copy) — except
/// a publish request's, which is cloned first because truncation may
/// need the original to recover `V` — while the entry itself stays
/// behind for completion bookkeeping and for [`fail_batch`] should this
/// replica panic.
fn execute_decompose(
    inner: &Inner,
    accelerators: &mut HashMap<AcceleratorKey, (Accelerator, PlanInfo)>,
    batch: &mut Batch,
    exec_started: Instant,
    shape: (usize, usize),
    plan: PlanInfo,
) {
    let size = batch.entries.len();
    // Packing decision: a same-shape batch of w >= 2 small problems
    // executes as one wave of w co-resident tenants on disjoint
    // sub-grids. Any failure along the packed path (config, placement,
    // lanes, accelerator build) falls back to the sequential w = 1 path
    // rather than failing the batch.
    let mut tenants = inner
        .config
        .packed_tenants_at(shape, size, plan.engine_parallelism);
    if tenants >= 2
        && (plan_wave_placement(inner, shape, tenants, plan).is_none()
            || cached_accelerator(accelerators, inner, shape, tenants, plan).is_err())
    {
        tenants = 1;
    }
    let (accelerator, plan_info) =
        match cached_accelerator(accelerators, inner, shape, tenants, plan) {
            Ok(pair) => pair,
            Err(e) => return fail_batch(&inner.metrics, batch, &ServeError::from(e)),
        };
    if tenants >= 2 {
        inner.metrics.record_packed(size as u64);
    }

    // Move each matrix out of its entry instead of cloning it (the old
    // path copied rows × cols × 8 bytes per request per batch). The
    // empty placeholder does not allocate. Publish requests keep a copy
    // of the original: `SvdResult::truncate` recovers V from it.
    let mut matrices: Vec<Matrix<f32>> = Vec::with_capacity(size);
    let mut publishes: Vec<Option<(PublishSpec, Matrix<f32>)>> = Vec::with_capacity(size);
    for entry in &mut batch.entries {
        let Payload::Decompose {
            matrix, publish, ..
        } = &mut entry.request.payload
        else {
            unreachable!("non-decompose request in a decompose batch")
        };
        let m = std::mem::replace(matrix, Matrix::zeros(0, 0));
        publishes.push(publish.map(|spec| (spec, m.clone())));
        matrices.push(m);
    }
    let (outputs, system_time) = match accelerator.run_many_f32(matrices) {
        Ok(run) => run,
        Err(e) => return fail_batch(&inner.metrics, batch, &ServeError::from(e)),
    };
    if inner.config.observability {
        obs::global().record(
            Stage::ReplicaExec,
            None,
            exec_started.elapsed(),
            Some(system_time),
        );
        // Merge each run's utilization into the per-shape aggregate:
        // horizons and busy times add, so the busy fractions stay
        // per-run averages.
        let mut batch_util: Option<UtilizationReport> = None;
        for output in &outputs {
            if let Some(util) = output.utilization.as_ref() {
                match batch_util.as_mut() {
                    Some(acc) => acc.merge(util),
                    None => batch_util = Some(util.clone()),
                }
            }
        }
        if let Some(util) = batch_util {
            merge_shape_utilization(inner, shape, util);
        }
    }
    for ((entry, output), publish) in batch.entries.iter().zip(outputs).zip(publishes) {
        // Publish before finishing so a caller that waits on the publish
        // handle observes the new version.
        let published = match publish {
            Some((spec, original)) => {
                output
                    .result
                    .truncate(&original, spec.rank)
                    .map(|truncated| {
                        inner.store.publish(spec.model, truncated);
                    })
            }
            None => Ok(()),
        };
        let result = match published {
            Ok(()) => Ok(Completion::Svd(SvdResponse {
                id: entry.request.id,
                latency: latency(entry, exec_started, size, system_time.0, plan_info),
                output,
            })),
            Err(e) => Err(ServeError::from(HeteroSvdError::Numeric(e))),
        };
        entry.request.finish(result, &inner.metrics);
    }
}

/// Runs one (model, version)-uniform apply batch directly against the
/// pinned store-resident factors: the numeric work is the exact rank-r
/// product (no accelerator involvement, no factor copies), and every
/// request is charged the modeled Eq. 8–14 apply-pipeline system time
/// `⌈B / P_task⌉ · max_entry(t_apply)` from the replayed profile cache.
fn execute_apply(inner: &Inner, batch: &Batch, exec_started: Instant, plan: PlanInfo) {
    let size = batch.entries.len();
    let factors: Arc<PublishedFactors> = match &batch.entries[0].request.payload {
        Payload::Apply { factors, .. } => Arc::clone(factors),
        _ => unreachable!("non-apply request in an apply batch"),
    };
    let meta = factors.meta;

    // First pass: modeled timing (replayed after the first probe per
    // (shape, rank)) and the exact rank-r products.
    let mut worst_timing: Option<heterosvd::ApplyTiming> = None;
    let mut batch_util: Option<UtilizationReport> = None;
    let mut results: Vec<Result<(usize, Vec<f32>), ServeError>> = Vec::with_capacity(size);
    for entry in &batch.entries {
        let Payload::Apply { x, rank, .. } = &entry.request.payload else {
            unreachable!("non-apply request in an apply batch")
        };
        let rank = *rank;
        let outcome = ApplyShape::new(meta.rows, meta.cols, rank)
            .map_err(ServeError::from)
            .and_then(|shape| {
                let profile =
                    heterosvd::apply::global_profiles().get_or_probe(&inner.apply_model, shape);
                if worst_timing.is_none_or(|t| profile.timing.total > t.total) {
                    worst_timing = Some(profile.timing);
                }
                if inner.config.observability {
                    let util = UtilizationReport::from_stats(
                        &profile.stats,
                        ResourceCounts {
                            plio_ports: 2,
                            aie_cores: inner.apply_model.engine_parallelism(),
                            dma_channels: 0,
                            ddr_controllers: 0,
                        },
                    );
                    match batch_util.as_mut() {
                        Some(acc) => acc.merge(&util),
                        None => batch_util = Some(util),
                    }
                }
                factors
                    .factors
                    .apply_rank(x, rank)
                    .map_err(|e| ServeError::from(HeteroSvdError::Numeric(e)))
            });
        results.push(outcome.map(|y| (rank, y)));
    }

    // Eq. 14 over the batch: the slowest entry's apply time paces each
    // wave of P_task concurrent applies.
    let system = worst_timing.map(|t| t.system_time(size, inner.apply_model.task_parallelism()));
    let system_ps = system.map_or(0, |t| t.0);
    if inner.config.observability {
        obs::global().record(Stage::Apply, None, exec_started.elapsed(), system);
        if let Some(util) = batch_util {
            merge_shape_utilization(inner, (meta.rows, meta.cols), util);
        }
    }

    // Second pass: finish every request with the shared batch system
    // time, under the base plan (apply never touches the array).
    let plan = base_plan(&inner.config, plan.generation);
    for (entry, result) in batch.entries.iter().zip(results) {
        let result = result.map(|(rank, y)| {
            Completion::Apply(ApplyResponse {
                id: entry.request.id,
                model: factors.model,
                version: factors.version,
                rank,
                y,
                meta,
                latency: latency(entry, exec_started, size, system_ps, plan),
            })
        });
        entry.request.finish(result, &inner.metrics);
    }
}

/// Runs one shape-uniform update batch. Unlike decompose there is no
/// shared accelerator run: each request rides its own client's cached
/// basis along the route pinned at admission, so requests execute
/// independently — a warm-started solve through this replica's
/// accelerator, a host-only low-rank bump, or a full recompute.
fn execute_update(
    inner: &Inner,
    accelerators: &mut HashMap<AcceleratorKey, (Accelerator, PlanInfo)>,
    batch: &mut Batch,
    exec_started: Instant,
    shape: (usize, usize),
    plan: PlanInfo,
) {
    let size = batch.entries.len();
    for entry in &mut batch.entries {
        let Payload::Update {
            matrix,
            client,
            entry: cached,
            class,
            ..
        } = &mut entry.request.payload
        else {
            unreachable!("non-update request in an update batch")
        };
        // Moved, never cloned — same discipline as decompose.
        let matrix = std::mem::replace(matrix, Matrix::zeros(0, 0));
        let (client, cached, class) = (*client, cached.take(), class.take());
        let route = class
            .as_ref()
            .map_or(UpdateRoute::Full(FallbackReason::ColdStart), |c| c.route);
        let delta_rel = class.as_ref().map_or(0.0, |c| c.delta_rel);
        let started = Instant::now();
        let outcome = run_update_route(
            inner,
            accelerators,
            shape,
            client,
            matrix,
            cached,
            class,
            plan,
        );
        let result = outcome.map(|(sigma, output, modeled, plan_info)| {
            match route {
                UpdateRoute::WarmStart => inner.metrics.record_warm_start_hit(),
                UpdateRoute::LowRank { .. } => inner.metrics.record_lowrank_hit(),
                // Cold-start fulls are cache misses, not staleness;
                // only classification-driven fallbacks count here.
                UpdateRoute::Full(FallbackReason::ColdStart) => {}
                UpdateRoute::Full(_) => inner.metrics.record_staleness_fallback(),
            }
            if inner.config.observability {
                obs::global().record(
                    Stage::Update,
                    Some(entry.request.id.0),
                    started.elapsed(),
                    modeled,
                );
                if let Some(util) = output.as_ref().and_then(|o| o.utilization.as_ref()) {
                    merge_shape_utilization(inner, shape, util.clone());
                }
            }
            // 0 for the host-only low-rank route: no modeled accelerator
            // time exists (that's the speedup).
            let sim_exec_ps = modeled.map_or(0, |t| t.0);
            Completion::Update(UpdateResponse {
                id: entry.request.id,
                client,
                route,
                delta_rel,
                sigma,
                warm_start: output.as_ref().and_then(|o| o.warm_start),
                output,
                latency: latency(entry, exec_started, size, sim_exec_ps, plan_info),
            })
        });
        entry.request.finish(result, &inner.metrics);
    }
}

/// What [`run_update_route`] hands back per request: the served
/// spectrum, the accelerator output when one ran, the modeled task
/// time (`None` for the host-only low-rank route), and the plan the
/// route executed under (the frozen base plan for host-only routes).
type UpdateOutcome = (Vec<f32>, Option<HeteroSvdOutput>, Option<TimePs>, PlanInfo);

/// Executes one update along its admitted route and refreshes the
/// client's cache entry.
#[allow(clippy::too_many_arguments)]
fn run_update_route(
    inner: &Inner,
    accelerators: &mut HashMap<AcceleratorKey, (Accelerator, PlanInfo)>,
    shape: (usize, usize),
    client: ClientId,
    matrix: Matrix<f32>,
    cached: Option<Arc<FactorCacheEntry>>,
    class: Option<UpdateClass<f32>>,
    plan: PlanInfo,
) -> Result<UpdateOutcome, ServeError> {
    let route = class
        .as_ref()
        .map_or(UpdateRoute::Full(FallbackReason::ColdStart), |c| c.route);
    // Truncation rank of the refreshed cache entry, clamped per shape.
    let cache_rank = inner
        .config
        .update_cache_rank
        .min(shape.0.min(shape.1))
        .max(1);
    // Host-only routes never touch the accelerator array; their plan
    // attribution is the frozen base plan at the current generation.
    let host_plan = base_plan(&inner.config, plan.generation);
    let numeric = |e| ServeError::from(HeteroSvdError::Numeric(e));
    match route {
        UpdateRoute::LowRank { rank: 0 } => {
            // Identical resubmission: the cached truncated factors
            // already answer it. No solve, no republish.
            let cached = cached.expect("rank-0 route requires a cache entry");
            Ok((cached.truncated.sigma.clone(), None, None, host_plan))
        }
        UpdateRoute::LowRank { .. } => {
            let cached = cached.expect("low-rank route requires a cache entry");
            let factor = class
                .and_then(|c| c.factor)
                .expect("low-rank route carries the factored delta");
            let updated = lowrank_update(&cached.truncated, &factor, &core_jacobi_options(inner))
                .map_err(numeric)?;
            let sigma = updated.sigma.clone();
            // The full basis and spectrum stay stale (the warm-solve
            // budget bounds how long before a full refresh); only the
            // truncated factors and the fingerprint advance.
            inner.factor_cache.publish(FactorCacheEntry::new(
                client,
                matrix,
                cached.v.clone(),
                cached.sigma.clone(),
                updated,
                cached.warm_solves_since_full + 1,
            ));
            Ok((sigma, None, None, host_plan))
        }
        UpdateRoute::WarmStart => {
            let cached = cached.expect("warm route requires a cache entry");
            let (accelerator, plan_info) = cached_accelerator(accelerators, inner, shape, 1, plan)
                .map_err(ServeError::from)?;
            let output = accelerator
                .run_warm_f32(&matrix, &cached.v)
                .map_err(ServeError::from)?;
            let modeled = output.timing.task_time;
            let v = output.result.v.clone().expect("warm runs compose V");
            let truncated = output
                .result
                .truncate(&matrix, cache_rank)
                .map_err(numeric)?;
            let sigma = sorted_sigma(&output.result.sigma);
            inner.factor_cache.publish(FactorCacheEntry::new(
                client,
                matrix,
                v,
                sigma.clone(),
                truncated,
                cached.warm_solves_since_full + 1,
            ));
            Ok((sigma, Some(output), Some(modeled), plan_info))
        }
        UpdateRoute::Full(_) => {
            let (accelerator, plan_info) = cached_accelerator(accelerators, inner, shape, 1, plan)
                .map_err(ServeError::from)?;
            let output = accelerator.run_f32(&matrix).map_err(ServeError::from)?;
            let modeled = output.timing.task_time;
            let v = output.result.recover_v(&matrix).map_err(numeric)?;
            let truncated = output
                .result
                .truncate_with_v(&v, cache_rank)
                .map_err(numeric)?;
            let sigma = sorted_sigma(&output.result.sigma);
            // Full refresh: the staleness counter restarts.
            inner.factor_cache.publish(FactorCacheEntry::new(
                client,
                matrix,
                v,
                sigma.clone(),
                truncated,
                0,
            ));
            Ok((sigma, Some(output), Some(modeled), plan_info))
        }
    }
}

/// The accelerator reports singular values in pipeline column order;
/// the update path serves them descending (matching the truncated
/// factors the low-rank route serves), so the order is a contract, not
/// an artifact of the route taken.
fn sorted_sigma(sigma: &[f32]) -> Vec<f32> {
    let mut sorted = sigma.to_vec();
    sorted.sort_unstable_by(|a, b| b.partial_cmp(a).expect("sigma is finite"));
    sorted
}

/// Jacobi options for the host-side low-rank core solve: `f32` core
/// arithmetic cannot push the off-diagonal as far as the accelerator's
/// default `f64`-tuned precision, so the configured precision is
/// floored at an `f32`-reachable level.
fn core_jacobi_options(inner: &Inner) -> JacobiOptions {
    JacobiOptions {
        precision: inner.config.precision.max(1e-5),
        compute_v: true,
        adaptive: false,
        ..JacobiOptions::default()
    }
}

/// Merges `util` into the per-shape aggregate under `shape`.
fn merge_shape_utilization(inner: &Inner, shape: (usize, usize), util: UtilizationReport) {
    let mut shapes = inner.utilization.lock();
    match shapes.get_mut(&shape) {
        Some(acc) => acc.merge(&util),
        None => {
            shapes.insert(shape, util);
        }
    }
}

/// Replica accelerator-cache key: request shape plus the wave's tenant
/// count (1 = the sequential path). Packed and solo accelerators are
/// distinct because the tenant count changes both the Eq. (14) wave
/// width and the contention class of the timing profile.
type AcceleratorKey = ((usize, usize), usize);

/// Resolves the accelerator config for `shape` under the live plan,
/// plus the plan attribution actually in effect. A shape the live plan
/// cannot serve — first seen *after* a swap, violating the new
/// `P_eng`'s divisibility constraint (the mix DSE only guarantees
/// feasibility for shapes observed before it swept) — falls back to
/// the frozen base plan, which admission already validated against.
fn plan_config(
    inner: &Inner,
    shape: (usize, usize),
    tenants: usize,
    plan: PlanInfo,
) -> Result<(heterosvd::HeteroSvdConfig, PlanInfo), HeteroSvdError> {
    let live = if tenants >= 2 {
        inner
            .config
            .packed_accelerator_config_at(shape, plan.engine_parallelism, tenants)
    } else {
        inner
            .config
            .accelerator_config_at(shape, plan.engine_parallelism, plan.task_parallelism)
    };
    let config = match live {
        Ok(config) => config,
        Err(e) if plan.engine_parallelism == inner.config.engine_parallelism => return Err(e),
        Err(_) => {
            if tenants >= 2 {
                inner.config.packed_accelerator_config(shape, tenants)?
            } else {
                inner.config.accelerator_config(shape)?
            }
        }
    };
    let info = PlanInfo {
        engine_parallelism: config.engine_parallelism,
        task_parallelism: config.task_parallelism,
        generation: plan.generation,
    };
    Ok((config, info))
}

/// Returns this replica's accelerator for `shape` at `tenants`-way
/// co-residency under the live plan, building it on first use, plus
/// the plan attribution it was built under.
fn cached_accelerator<'a>(
    accelerators: &'a mut HashMap<AcceleratorKey, (Accelerator, PlanInfo)>,
    inner: &Inner,
    shape: (usize, usize),
    tenants: usize,
    plan: PlanInfo,
) -> Result<(&'a Accelerator, PlanInfo), HeteroSvdError> {
    use std::collections::hash_map::Entry;
    match accelerators.entry((shape, tenants)) {
        Entry::Occupied(slot) => {
            let (accelerator, info) = slot.into_mut();
            Ok((accelerator, *info))
        }
        Entry::Vacant(slot) => {
            let (config, info) = plan_config(inner, shape, tenants, plan)?;
            let accelerator = Accelerator::new(config)?;
            let (accelerator, info) = slot.insert((accelerator, info));
            Ok((accelerator, *info))
        }
    }
}

/// Places one packed wave: carves `tenants` disjoint full-height stripes
/// out of the device and assigns each its private PLIO lane block.
/// Returns `None` when the wave does not fit (the caller falls back to
/// the sequential path). The stripes are released when the allocator
/// drops — placement is per-wave, so a replica's next wave (possibly a
/// different shape) starts from an empty array.
fn plan_wave_placement(
    inner: &Inner,
    shape: (usize, usize),
    tenants: usize,
    plan: PlanInfo,
) -> Option<Vec<heterosvd::SubGrid>> {
    let (config, _) = plan_config(inner, shape, 1, plan).ok()?;
    let mut allocator = heterosvd::SubGridAllocator::new(config.geometry());
    let stripes: Vec<heterosvd::SubGrid> = (0..tenants)
        .map(|_| allocator.allocate_tenant(config.engine_parallelism))
        .collect::<Option<Vec<_>>>()?;
    heterosvd::assign_tenant_lanes(tenants, config.device.budget.plio).ok()?;
    Some(stripes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn test_matrix(rows: usize, cols: usize, salt: u64) -> Matrix<f64> {
        Matrix::from_fn(rows, cols, |r, c| {
            let x = (r as u64 * 31 + c as u64 * 7 + salt * 13) % 17;
            x as f64 / 4.0 - 2.0 + if r == c { 3.0 } else { 0.0 }
        })
    }

    fn quick_config() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_capacity: 32,
            max_batch: 4,
            max_linger: Duration::from_millis(1),
            ..ServeConfig::default()
        }
    }

    #[test]
    fn single_request_round_trip() {
        let service = SvdService::start(quick_config()).unwrap();
        let handle = service.try_submit(test_matrix(8, 8, 1)).unwrap();
        let response = handle.wait().unwrap();
        assert_eq!(response.output.result.sigma.len(), 8);
        assert!(response.latency.sim_exec_ps > 0);
        service.shutdown();
        let m = service.metrics();
        assert_eq!(m.completed_ok, 1);
        assert_eq!(m.replicas_live, 0);
    }

    #[test]
    fn packed_waves_are_bit_identical_to_sequential() {
        // The same eight matrices through a packing service and a
        // sequential one: every factor must match bitwise (the
        // contention model never touches the math), and the packing
        // service must have actually packed at least one wave.
        let matrices: Vec<_> = (0..8).map(|s| test_matrix(16, 16, s)).collect();
        let run = |packing: bool| {
            let config = ServeConfig {
                workers: 1,
                max_batch: 8,
                // Long linger so the replica reliably forms multi-request
                // batches from the burst below.
                max_linger: Duration::from_millis(50),
                array_packing: packing,
                ..quick_config()
            };
            let service = SvdService::start(config).unwrap();
            let handles: Vec<_> = matrices
                .iter()
                .map(|m| service.try_submit(m.clone()).unwrap())
                .collect();
            let outputs: Vec<_> = handles.into_iter().map(|h| h.wait().unwrap()).collect();
            service.shutdown();
            (outputs, service.metrics())
        };
        let (packed, packed_metrics) = run(true);
        let (sequential, sequential_metrics) = run(false);
        assert!(
            packed_metrics.packed_batches >= 1,
            "packing service never packed: {packed_metrics:?}"
        );
        assert!(
            packed_metrics.packed_requests >= 2,
            "a packed wave covers at least two requests: {packed_metrics:?}"
        );
        assert_eq!(sequential_metrics.packed_batches, 0);
        for (p, s) in packed.iter().zip(&sequential) {
            assert_eq!(p.output.result.sigma, s.output.result.sigma);
            assert_eq!(p.output.result.u.as_slice(), s.output.result.u.as_slice());
        }
    }

    #[test]
    fn unpackable_shape_falls_back_to_sequential() {
        // P_eng = 8 stripes span the whole array (capacity 1), so even a
        // full batch must take the sequential path — and still succeed.
        let config = ServeConfig {
            workers: 1,
            max_batch: 4,
            max_linger: Duration::from_millis(50),
            engine_parallelism: 8,
            // A P_eng = 8 pipeline nearly fills the array; replicated
            // pipelines would blow the Eq. 16 AIE budget outright.
            task_parallelism: 1,
            ..quick_config()
        };
        let service = SvdService::start(config).unwrap();
        let handles: Vec<_> = (0..4)
            .map(|s| service.try_submit(test_matrix(16, 16, s)).unwrap())
            .collect();
        for h in handles {
            h.wait().unwrap();
        }
        service.shutdown();
        let m = service.metrics();
        assert_eq!(m.completed_ok, 4);
        assert_eq!(m.packed_batches, 0, "capacity-1 shape must not pack");
    }

    #[test]
    fn invalid_shape_is_rejected_at_admission() {
        let service = SvdService::start(quick_config()).unwrap();
        // P_eng = 2 means cols must be a multiple of 4.
        let err = service.try_submit(test_matrix(9, 6, 0)).unwrap_err();
        assert!(matches!(err, ServeError::InvalidRequest(_)));
        assert_eq!(service.metrics().rejected_invalid, 1);
    }

    #[test]
    fn submissions_after_shutdown_are_refused() {
        let service = SvdService::start(quick_config()).unwrap();
        service.shutdown();
        let err = service.try_submit(test_matrix(8, 8, 0)).unwrap_err();
        assert_eq!(err, ServeError::ShuttingDown);
        let err = service
            .try_submit_apply(ModelId(0), &[0.0; 8], None)
            .unwrap_err();
        assert_eq!(err, ServeError::ShuttingDown);
    }

    #[test]
    fn cancelled_request_completes_with_cancelled() {
        // One slow-to-start service path: saturate with a linger so the
        // cancel lands while the request is still queued.
        let config = ServeConfig {
            max_linger: Duration::from_millis(50),
            ..quick_config()
        };
        let service = SvdService::start(config).unwrap();
        let handle = service.try_submit(test_matrix(8, 8, 2)).unwrap();
        handle.cancel();
        match handle.wait() {
            Err(ServeError::Cancelled) => {}
            // The race is legal: the batch may already have executed.
            Ok(response) => assert_eq!(response.output.result.sigma.len(), 8),
            Err(other) => panic!("unexpected terminal state: {other:?}"),
        }
        service.shutdown();
    }

    #[test]
    fn zero_timeout_requests_time_out() {
        let service = SvdService::start(quick_config()).unwrap();
        let handle = service
            .try_submit_with(
                test_matrix(8, 8, 3),
                SubmitOptions {
                    timeout: Some(Duration::ZERO),
                    ..SubmitOptions::default()
                },
            )
            .unwrap();
        assert_eq!(handle.wait().unwrap_err(), ServeError::DeadlineExceeded);
        assert_eq!(service.metrics().timed_out, 1);
        service.shutdown();
    }

    #[test]
    fn deadline_expiring_during_linger_is_counted_at_batcher() {
        // The request is alive when a forming replica first sees it
        // (generous 100 ms deadline) but the batch lingers 400 ms
        // waiting to fill, so the deadline has passed by the time the
        // batch seals. The regression this guards: the cut must drop
        // (and count) the expired request on the formation side of the
        // boundary — before the fix it rode the formed batch and was
        // miscounted as a replica-side timeout, which tells an operator
        // to grow the pool when the actual remedy is a shorter linger.
        let config = ServeConfig {
            workers: 1,
            max_batch: 4,
            max_linger: Duration::from_millis(400),
            ..quick_config()
        };
        let service = SvdService::start(config).unwrap();
        let handle = service
            .try_submit_with(
                test_matrix(8, 8, 4),
                SubmitOptions {
                    timeout: Some(Duration::from_millis(100)),
                    ..SubmitOptions::default()
                },
            )
            .unwrap();
        assert_eq!(handle.wait().unwrap_err(), ServeError::DeadlineExceeded);
        let m = service.metrics();
        assert_eq!(m.timed_out, 1);
        assert_eq!(m.timed_out_at_batcher, 1);
        assert_eq!(m.timed_out_at_exec, 0);
        assert_eq!(m.per_type.decompose.timed_out_at_batcher, 1);
        service.shutdown();
    }

    #[test]
    fn publish_then_apply_round_trip_is_bit_identical() {
        let service = SvdService::start(quick_config()).unwrap();
        let a = test_matrix(8, 8, 5);
        let model = ModelId(1);
        service
            .try_submit_publish(model, a.clone(), 4)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(service.store().version_of(model), Some(1));

        let x: Vec<f64> = (0..8).map(|i| i as f64 / 3.0 - 1.0).collect();
        let response = service
            .try_submit_apply(model, &x, None)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(response.model, model);
        assert_eq!(response.version, 1);
        assert_eq!(response.rank, 4);
        assert!(response.latency.sim_exec_ps > 0);
        assert!(response.meta.retained_energy > 0.0);

        // Bit-identical to the direct truncated product at the same rank.
        let pinned = service.store().get(model).unwrap();
        let xf: Vec<f32> = x.iter().map(|&v| v as f32).collect();
        let expect = pinned.factors.apply_rank(&xf, 4).unwrap();
        assert_eq!(response.y, expect);

        let m = service.metrics();
        assert_eq!(m.per_type.apply.completed_ok, 1);
        assert_eq!(m.per_type.decompose.completed_ok, 1);
        assert_eq!(m.per_type.apply.submitted, 1);
        assert!(m.per_type.apply.sim_exec_ps.p50 > 0);
        service.shutdown();
    }

    #[test]
    fn rank_hint_caps_the_applied_rank() {
        let service = SvdService::start(quick_config()).unwrap();
        let model = ModelId(9);
        service
            .try_submit_publish(model, test_matrix(8, 8, 6), 6)
            .unwrap()
            .wait()
            .unwrap();
        let x = vec![0.5; 8];
        let response = service
            .try_submit_apply(model, &x, Some(2))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(response.rank, 2);
        // A rank-2 apply must equal the rank-2 prefix of the factors.
        let pinned = service.store().get(model).unwrap();
        let expect = pinned.factors.apply_rank(&[0.5f32; 8], 2).unwrap();
        assert_eq!(response.y, expect);
        service.shutdown();
    }

    #[test]
    fn apply_validation_rejects_bad_requests() {
        let service = SvdService::start(quick_config()).unwrap();
        // Unknown model.
        let err = service
            .try_submit_apply(ModelId(404), &[0.0; 8], None)
            .unwrap_err();
        assert!(matches!(err, ServeError::InvalidRequest(_)));
        // Publish, then bad vector length and bad rank hints.
        let model = ModelId(2);
        service
            .try_submit_publish(model, test_matrix(8, 8, 7), 4)
            .unwrap()
            .wait()
            .unwrap();
        for (x_len, hint) in [(7, None), (8, Some(0)), (8, Some(5))] {
            let err = service
                .try_submit_apply(model, &vec![0.0; x_len], hint)
                .unwrap_err();
            assert!(
                matches!(err, ServeError::InvalidRequest(_)),
                "{x_len} {hint:?}"
            );
        }
        // Publish rank outside 1..=cols.
        let err = service
            .try_submit_publish(ModelId(3), test_matrix(8, 8, 8), 9)
            .unwrap_err();
        assert!(matches!(err, ServeError::InvalidRequest(_)));
        assert_eq!(service.metrics().rejected_invalid, 5);
        service.shutdown();
    }

    fn incremental_config() -> ServeConfig {
        ServeConfig {
            incremental: true,
            ..quick_config()
        }
    }

    #[test]
    fn updates_require_the_incremental_knob() {
        let service = SvdService::start(quick_config()).unwrap();
        let err = service
            .try_submit_update(ClientId(1), test_matrix(8, 8, 0))
            .unwrap_err();
        assert!(matches!(err, ServeError::InvalidRequest(_)));
        assert_eq!(service.metrics().rejected_invalid, 1);
        service.shutdown();
    }

    #[test]
    fn update_routes_cold_identical_and_warm() {
        let service = SvdService::start(incremental_config()).unwrap();
        let client = ClientId(7);
        let a0 = test_matrix(8, 8, 20);

        // Cold start: no cached entry, full solve, cache refreshed.
        let cold = service
            .try_submit_update(client, a0.clone())
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(cold.route, UpdateRoute::Full(FallbackReason::ColdStart));
        assert_eq!(cold.sigma.len(), 8);
        assert!(cold.latency.sim_exec_ps > 0);
        assert!(cold.output.is_some());
        assert!(service.factor_cache().get(client).is_some());

        // Identical resubmission: served from the cached truncated
        // factors with zero modeled accelerator time.
        let same = service
            .try_submit_update(client, a0.clone())
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(same.route, UpdateRoute::LowRank { rank: 0 });
        assert_eq!(same.latency.sim_exec_ps, 0);
        assert!(same.output.is_none());
        assert_eq!(same.sigma, cold.sigma);

        // Small dense drift: the default cache rank fills min(m, n), so
        // no low-rank headroom remains and the warm start runs.
        let a1 = Matrix::from_fn(8, 8, |r, c| {
            a0[(r, c)] + ((r * 7 + c * 13) % 5) as f64 * 1e-4
        });
        let warm = service
            .try_submit_update(client, a1.clone())
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(warm.route, UpdateRoute::WarmStart);
        assert!(warm.delta_rel > 0.0 && warm.delta_rel < 0.25);
        let counters = warm.warm_start.expect("warm route reports counters");
        assert_eq!(counters.basis_cols, 8);
        assert!(warm.latency.sim_exec_ps > 0);
        // Warm accuracy: the spectrum matches a cold decompose of the
        // same matrix to f32 working precision.
        let golden = service.try_submit(a1).unwrap().wait().unwrap();
        let golden_sigma = sorted_sigma(&golden.output.result.sigma);
        let sig_max = f64::from(golden_sigma[0]);
        for (w, g) in warm.sigma.iter().zip(&golden_sigma) {
            assert!(
                (f64::from(*w) - f64::from(*g)).abs() / sig_max < 1e-4,
                "warm {w} vs cold {g}"
            );
        }

        let m = service.metrics();
        assert_eq!(m.lowrank_hits, 1);
        assert_eq!(m.warm_start_hits, 1);
        assert_eq!(m.staleness_fallbacks, 0);
        assert_eq!(m.per_type.update.submitted, 3);
        assert_eq!(m.per_type.update.completed_ok, 3);
        service.shutdown();
    }

    #[test]
    fn column_perturbation_takes_the_lowrank_fast_path() {
        // A small cache rank leaves low-rank headroom (r + k <= n), and
        // a single-column perturbation factors to a rank-1 delta.
        let config = ServeConfig {
            update_cache_rank: 4,
            ..incremental_config()
        };
        let service = SvdService::start(config).unwrap();
        let client = ClientId(3);
        let a0 = test_matrix(8, 8, 30);
        service
            .try_submit_update(client, a0.clone())
            .unwrap()
            .wait()
            .unwrap();
        let a1 = Matrix::from_fn(8, 8, |r, c| {
            a0[(r, c)] + if c == 2 { 1e-3 * (r + 1) as f64 } else { 0.0 }
        });
        let bumped = service
            .try_submit_update(client, a1)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(bumped.route, UpdateRoute::LowRank { rank: 1 });
        assert_eq!(bumped.sigma.len(), 4, "low-rank serves the cached rank");
        assert_eq!(bumped.latency.sim_exec_ps, 0, "host-only route");
        assert!(bumped.output.is_none());
        assert_eq!(service.metrics().lowrank_hits, 1);
        service.shutdown();
    }

    #[test]
    fn staleness_fallback_is_bit_identical_to_incremental_off() {
        // A large delta trips the staleness bound; the resulting full
        // solve must be bit-identical to the same matrix served by a
        // service with the knob off (the fallback IS the cold path).
        let a0 = test_matrix(8, 8, 40);
        let a1 = Matrix::from_fn(8, 8, |r, c| a0[(r, c)] + test_matrix(8, 8, 41)[(r, c)]);

        let on = SvdService::start(incremental_config()).unwrap();
        let client = ClientId(11);
        on.try_submit_update(client, a0.clone())
            .unwrap()
            .wait()
            .unwrap();
        let fallback = on
            .try_submit_update(client, a1.clone())
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(
            fallback.route,
            UpdateRoute::Full(FallbackReason::DeltaTooLarge)
        );
        assert!(fallback.delta_rel > 0.25);
        assert_eq!(on.metrics().staleness_fallbacks, 1);
        on.shutdown();

        let off = SvdService::start(quick_config()).unwrap();
        let golden = off.try_submit(a1).unwrap().wait().unwrap();
        off.shutdown();
        // The served spectrum is the golden one reordered descending —
        // the same bits, by contract of the update path.
        assert_eq!(fallback.sigma, sorted_sigma(&golden.output.result.sigma));
        let output = fallback.output.expect("full route carries the output");
        assert_eq!(
            output.result.u.as_slice(),
            golden.output.result.u.as_slice()
        );
    }

    #[test]
    fn warm_budget_exhaustion_forces_a_full_refresh() {
        let config = ServeConfig {
            max_warm_solves: 2,
            ..incremental_config()
        };
        let service = SvdService::start(config).unwrap();
        let client = ClientId(5);
        let mut a = test_matrix(8, 8, 50);
        service
            .try_submit_update(client, a.clone())
            .unwrap()
            .wait()
            .unwrap();
        let mut routes = Vec::new();
        for step in 0..3 {
            a = Matrix::from_fn(8, 8, |r, c| {
                a[(r, c)] + ((r * 3 + c * 5 + step) % 7) as f64 * 1e-4
            });
            let response = service
                .try_submit_update(client, a.clone())
                .unwrap()
                .wait()
                .unwrap();
            routes.push(response.route);
        }
        assert_eq!(routes[0], UpdateRoute::WarmStart);
        assert_eq!(routes[1], UpdateRoute::WarmStart);
        assert_eq!(
            routes[2],
            UpdateRoute::Full(FallbackReason::WarmBudgetExhausted),
            "third consecutive warm solve exceeds the budget of 2"
        );
        // The full refresh restarted the counter: warm again.
        let a_next = Matrix::from_fn(8, 8, |r, c| a[(r, c)] + 1e-4 * ((r + c) % 3) as f64);
        let after = service
            .try_submit_update(client, a_next)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(after.route, UpdateRoute::WarmStart);
        assert_eq!(service.metrics().staleness_fallbacks, 1);
        service.shutdown();
    }

    #[test]
    fn evicted_clients_cold_start_instead_of_serving_stale_factors() {
        // A budget that holds exactly one client: publishing a second
        // evicts the first, whose next update must re-classify as a
        // cold start (never a stale rank-0 serve).
        let config = ServeConfig {
            factor_cache_bytes: 2_000,
            ..incremental_config()
        };
        let service = SvdService::start(config).unwrap();
        let a = test_matrix(8, 8, 60);
        service
            .try_submit_update(ClientId(1), a.clone())
            .unwrap()
            .wait()
            .unwrap();
        service
            .try_submit_update(ClientId(2), test_matrix(8, 8, 61))
            .unwrap()
            .wait()
            .unwrap();
        let stats = service.factor_cache().stats();
        assert!(stats.evictions >= 1, "budget holds one client: {stats:?}");
        assert!(service.factor_cache().get(ClientId(1)).is_none());
        let redo = service
            .try_submit_update(ClientId(1), a)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(redo.route, UpdateRoute::Full(FallbackReason::ColdStart));
        service.shutdown();
    }

    #[test]
    fn update_report_exports_cache_and_route_counters() {
        let service = SvdService::start(incremental_config()).unwrap();
        let client = ClientId(42);
        let a = test_matrix(8, 8, 70);
        service
            .try_submit_update(client, a.clone())
            .unwrap()
            .wait()
            .unwrap();
        service
            .try_submit_update(client, a)
            .unwrap()
            .wait()
            .unwrap();
        let report = service.metrics_report();
        assert_eq!(report.snapshot.lowrank_hits, 1);
        assert_eq!(report.snapshot.per_type.update.completed_ok, 2);
        assert_eq!(report.caches.factor_cache.publishes, 1);
        assert_eq!(report.caches.factor_cache.misses, 1);
        assert_eq!(report.caches.factor_cache.hits, 1);
        assert_eq!(report.caches.factor_cache.resident_clients, 1);
        assert_eq!(report.caches.factor_cache.clients.len(), 1);
        assert_eq!(report.caches.factor_cache.clients[0].client, 42);
        let prom = report.to_prometheus();
        assert!(prom.contains("hsvd_lowrank_hits_total 1"));
        assert!(prom.contains("hsvd_factor_cache_hits_total 1"));
        assert!(prom.contains("hsvd_factor_cache_client_bytes{client=\"42\"}"));
        assert!(prom.contains("hsvd_completed_ok_by_type_total{type=\"update\"} 2"));
        // The update stage reached the span journal.
        let update_stage = report
            .journal
            .stages
            .iter()
            .find(|s| s.stage == "update")
            .expect("update spans recorded");
        assert!(update_stage.count >= 1);
        service.shutdown();
    }

    #[test]
    fn metrics_report_carries_utilization_and_journal() {
        let service = SvdService::start(quick_config()).unwrap();
        let handles: Vec<_> = (0..4)
            .map(|salt| service.try_submit(test_matrix(8, 8, salt)).unwrap())
            .collect();
        for handle in handles {
            handle.wait().unwrap();
        }
        let report = service.metrics_report();
        assert_eq!(report.snapshot.completed_ok, 4);
        let shape = report
            .utilization
            .iter()
            .find(|s| (s.rows, s.cols) == (8, 8))
            .expect("utilization recorded for the served shape");
        let aie = shape.report.resource(heterosvd::obs::ResourceKind::AieCore);
        assert!(aie.ops > 0, "AIE cores did work");
        assert!(aie.busy_fraction > 0.0 && aie.busy_fraction <= 1.0);
        // The journal saw the serving stages (spans are process-global,
        // so other tests may have added more — only lower-bound them).
        let admit = report
            .journal
            .stages
            .iter()
            .find(|s| s.stage == "admit")
            .unwrap();
        assert!(admit.count >= 4);
        // Both renderings include the per-shape utilization.
        assert!(report.to_json().contains("\"critical\""));
        assert!(report
            .to_prometheus()
            .contains("hsvd_critical_resource{shape=\"8x8\""));
        service.shutdown();
    }

    #[test]
    fn report_exports_cache_and_store_counters() {
        let service = SvdService::start(quick_config()).unwrap();
        let model = ModelId(77);
        service
            .try_submit_publish(model, test_matrix(8, 8, 12), 3)
            .unwrap()
            .wait()
            .unwrap();
        let x = vec![1.0; 8];
        for _ in 0..3 {
            service
                .try_submit_apply(model, &x, None)
                .unwrap()
                .wait()
                .unwrap();
        }
        let report = service.metrics_report();
        assert_eq!(report.caches.factor_store.publishes, 1);
        assert!(report.caches.factor_store.hits >= 3);
        assert_eq!(report.caches.factor_store.resident_models, 1);
        // The plan cache served the decompose; the profile cache saw the
        // applies (global counters — lower-bound only).
        assert!(report.caches.plan.hits + report.caches.plan.misses >= 1);
        assert!(report.caches.apply_profiles.hits + report.caches.apply_profiles.misses >= 3);
        let prom = report.to_prometheus();
        assert!(prom.contains("hsvd_factor_store_hits_total"));
        assert!(prom.contains("hsvd_plan_cache_hits_total"));
        assert!(prom.contains("hsvd_apply_profile_cache_hits_total"));
        assert!(prom.contains("type=\"apply\""));
        service.shutdown();
    }

    #[test]
    fn observability_off_keeps_results_and_skips_reports() {
        let config = ServeConfig {
            observability: false,
            ..quick_config()
        };
        let service = SvdService::start(config).unwrap();
        let handle = service.try_submit(test_matrix(8, 8, 11)).unwrap();
        let response = handle.wait().unwrap();
        assert_eq!(response.output.result.sigma.len(), 8);
        assert!(response.output.utilization.is_none());
        let report = service.metrics_report();
        assert!(report.utilization.is_empty());
        service.shutdown();
    }

    #[test]
    fn rare_interactive_class_jumps_a_dominant_batch_backlog() {
        // A 95:5-style mix on one worker: 40 dominant (16,16)
        // Batch-class requests flood the queue, then 4 rare (8,8)
        // Interactive requests arrive behind them. Under shape-blind
        // FIFO the rare requests drain after the whole backlog; with the
        // class scheduler their 100 ms EDF horizon seeds them ahead, so
        // every rare request must finish faster than the slowest
        // dominant one.
        let config = ServeConfig {
            workers: 1,
            queue_capacity: 64,
            max_batch: 4,
            max_linger: Duration::from_millis(1),
            shape_classed: true,
            ..ServeConfig::default()
        };
        let service = SvdService::start(config).unwrap();
        let dominant: Vec<_> = (0..40)
            .map(|s| {
                service
                    .try_submit_with(
                        test_matrix(16, 16, s),
                        SubmitOptions {
                            class: SloClass::Batch,
                            ..SubmitOptions::default()
                        },
                    )
                    .unwrap()
            })
            .collect();
        let rare: Vec<_> = (0..4)
            .map(|s| {
                service
                    .try_submit_with(
                        test_matrix(8, 8, 100 + s),
                        SubmitOptions {
                            class: SloClass::Interactive,
                            ..SubmitOptions::default()
                        },
                    )
                    .unwrap()
            })
            .collect();
        let rare_walls: Vec<Duration> = rare
            .into_iter()
            .map(|h| h.wait().unwrap().latency.wall_total)
            .collect();
        let dominant_walls: Vec<Duration> = dominant
            .into_iter()
            .map(|h| h.wait().unwrap().latency.wall_total)
            .collect();
        let worst_dominant = *dominant_walls.iter().max().unwrap();
        for (i, wall) in rare_walls.iter().enumerate() {
            assert!(
                *wall < worst_dominant,
                "rare request {i} waited out the backlog: {wall:?} vs worst dominant {worst_dominant:?}"
            );
        }
        let m = service.metrics();
        assert_eq!(m.per_class.interactive.completed_ok, 4);
        assert_eq!(m.per_class.batch.completed_ok, 40);
        assert!(m.per_class.interactive.wall_us.p99 <= m.per_class.batch.wall_us.p99);
        service.shutdown();
    }

    #[test]
    fn classed_service_factors_match_fifo_service() {
        // Scheduling only reorders *when* requests execute: the same six
        // matrices through a shape-classed service and a FIFO one must
        // produce bitwise-identical factors.
        let matrices: Vec<_> = (0..6).map(|s| test_matrix(16, 16, 40 + s)).collect();
        let run = |classed: bool| {
            let config = ServeConfig {
                workers: 1,
                shape_classed: classed,
                ..quick_config()
            };
            let service = SvdService::start(config).unwrap();
            let outputs: Vec<_> = matrices
                .iter()
                .map(|m| service.try_submit(m.clone()).unwrap())
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.wait().unwrap())
                .collect();
            service.shutdown();
            outputs
        };
        let classed = run(true);
        let fifo = run(false);
        for (c, f) in classed.iter().zip(&fifo) {
            assert_eq!(c.output.result.sigma, f.output.result.sigma);
            assert_eq!(c.output.result.u.as_slice(), f.output.result.u.as_slice());
        }
    }
}
