#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Batch-serving runtime for the HeteroSVD accelerator.
//!
//! The simulator crates answer "how fast is one factorization?"; this
//! crate answers the system-level question the paper's Eq. (14) batch
//! model raises: how does a *pool* of accelerators behave under a stream
//! of concurrent SVD requests?
//!
//! ```text
//!  callers ──try_submit──▶ [admission scheduler]       (backpressure;
//!                             ▲    ▲    ▲               FIFO or EDF order)
//!                             │    │    │              an idle replica cuts
//!                             │    │    │              the next due key under
//!                             │    │    │              the formation lock
//!                          replica pool (N threads)    (run_many; panic
//!                             │    │    │               containment +
//!                            results to handles         replacement)
//! ```
//!
//! * **Backpressure** — [`SvdService::try_submit`] never blocks; a full
//!   admission scheduler is [`ServeError::QueueFull`] and the caller
//!   backs off.
//! * **Dynamic batching** — same-shape requests are coalesced up to the
//!   configured batch size or linger budget, each batch key lingering on
//!   its own clock while its requests stay queued. Update keys are due
//!   as soon as they are queued: an update batch runs its members one
//!   by one, so waiting for batch-mates buys nothing. An idle replica
//!   cuts the batch (one replica forms at a time), so a batch is cut only
//!   when a replica can run it and a busy pool packs its backlog into
//!   full batches; the replica then executes it with
//!   [`heterosvd::Accelerator::run_many`]; every request in a batch of
//!   size `B` is charged the Eq. (14) system time `⌈B / P_task⌉ · t_task`
//!   (see [`LatencyRecord::sim_exec_ps`]).
//! * **Shape-classed SLO scheduling** — admission keeps per
//!   (batch key, [`SloClass`]) sub-queues in one scheduler whose mode is
//!   [`ServeConfig::shape_classed`]. Off (the default), requests are
//!   served in admission order. On, they are served by effective
//!   deadline: among the due batch keys, any idle replica cuts the one
//!   holding the earliest deadline (EDF) instead of the oldest request,
//!   a full scheduler evicts the latest-deadline lower-priority request
//!   to admit a more urgent one, and a windowed timeout-fraction load
//!   shedder sheds Batch (then Standard) traffic with
//!   [`ServeError::Overloaded`] before the queue collapses.
//! * **Lifecycle** — per-request deadlines, cancellation, worker-panic
//!   containment (the poisoned replica is retired and replaced), and
//!   drain-on-shutdown. Every request kind enters through one admission
//!   path and is answered through one [`Handle`] type. Every admitted
//!   request ends exactly once, in a terminal step that counts its
//!   outcome before the handle can see it. After a drained shutdown,
//!   `submitted == completed_ok + failed + cancelled + timed_out +
//!   evicted` (see [`MetricsSnapshot`]).
//! * **Decompose-once / apply-constantly** —
//!   [`SvdService::try_submit_publish`] truncates a successful
//!   factorization to rank r and publishes it (versioned, LRU
//!   byte-budgeted) into the service's [`FactorStore`];
//!   [`SvdService::try_submit_apply`] then serves `y = U_r·Σ_r·V_rᵀ·x`
//!   against the store-resident factors, bit-identical to the direct
//!   truncated product and charged the modeled Eq. 8–14 apply-pipeline
//!   time.
//! * **Incremental updates** — with [`ServeConfig::incremental`] on,
//!   [`SvdService::try_submit_update`] serves repeated SVDs of a
//!   slowly-drifting per-client matrix from cached previous factors:
//!   classification at admission routes each update to a warm-started
//!   Jacobi solve (seeded from the cached right basis), a host-only
//!   Brand-style low-rank bump of the cached truncated factors, or a
//!   full recompute once the staleness bound trips — all accounted in
//!   `warm_start_hits` / `lowrank_hits` / `staleness_fallbacks`.
//! * **Observability** — [`SvdService::metrics`] returns a serializable
//!   [`MetricsSnapshot`] with counters, queue depth, rolling throughput,
//!   and queue-wait/linger/execution percentiles;
//!   [`SvdService::metrics_report`] additionally folds in per-shape
//!   accelerator resource utilization (busy fractions + the critical
//!   resource) and the per-stage span-journal summary, exportable as
//!   JSON or Prometheus text via [`MetricsReport`].
//! * **Closed-loop online DSE** — with [`ServeConfig::autoscale`] on, a
//!   controller thread folds the observed traffic (per-shape arrival
//!   weights, batch fill, update routing split, packed-wave width) into
//!   a [`heterosvd_dse::WorkloadMix`], re-runs the analytic Eq. 15–16
//!   sweep against it each tick, and hot-swaps replicas to the winning
//!   `(P_eng, P_task)` plan with drain-and-replace semantics: every
//!   batch executes wholly under one plan generation (reported in
//!   [`PlanInfo`]), bit-identical to a static service pinned at that
//!   plan. Hysteresis (cooldown, min-dwell, improvement threshold)
//!   suppresses churn under stationary traffic.
//!
//! # Quickstart
//!
//! ```
//! use heterosvd_serve::{ServeConfig, SvdService};
//! use svd_kernels::Matrix;
//!
//! # fn main() -> Result<(), heterosvd_serve::ServeError> {
//! let service = SvdService::start(ServeConfig::default())?;
//! let a = Matrix::from_fn(8, 8, |r, c| ((r * 5 + c * 3) % 7) as f64 + if r == c { 4.0 } else { 0.0 });
//! let handle = service.try_submit(a)?;
//! let response = handle.wait()?;
//! assert_eq!(response.output.result.sigma.len(), 8);
//! println!("charged {} ps in a batch of {}", response.latency.sim_exec_ps, response.latency.batch_size);
//! service.shutdown();
//! # Ok(())
//! # }
//! ```

mod autoscale;
mod batcher;
mod config;
mod error;
mod metrics;
mod report;
mod request;
mod scheduler;
mod service;

pub use config::ServeConfig;
pub use error::ServeError;
pub use metrics::{
    ClassSnapshot, MetricsSnapshot, PerClassBreakdown, PerTypeBreakdown, Percentiles,
    ShapeSnapshot, TypeSnapshot,
};
pub use report::{CacheReport, MetricsReport, ShapeUtilization};
pub use request::{
    ApplyHandle, ApplyResponse, Handle, LatencyRecord, PlanInfo, PublishSpec, RequestHandle,
    RequestId, RequestType, SloClass, SubmitOptions, SvdResponse, UpdateHandle, UpdateResponse,
};
pub use service::SvdService;

// Factor-store types surface directly in this crate's API
// (`SvdService::try_submit_publish` / `store()`); re-export them so
// callers need only one dependency.
pub use factor_store::{FactorMeta, FactorStore, FactorStoreStats, ModelId, PublishedFactors};

// Same for the incremental-update surface: the client-keyed factor
// cache behind `try_submit_update` / `factor_cache()` and the routing
// vocabulary carried by `UpdateResponse`.
pub use heterosvd::factor_cache::{ClientBytes, ClientId, FactorCache, FactorCacheStats};
pub use svd_kernels::incremental::{FallbackReason, StalenessBound, UpdateRoute};
