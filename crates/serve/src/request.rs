//! Request lifecycle: submission options, handles, and latency records.

use crate::error::ServeError;
use crate::metrics::{Metrics, Outcome};
use factor_store::{FactorMeta, ModelId, PublishedFactors};
use heterosvd::factor_cache::{ClientId, FactorCacheEntry};
use heterosvd::{HeteroSvdOutput, WarmStartCounters};
use parking_lot::{Condvar, Mutex};
use serde::Serialize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use svd_kernels::incremental::{UpdateClass, UpdateRoute};
use svd_kernels::Matrix;

/// Opaque id assigned at admission, unique within a service instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub(crate) u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req-{}", self.0)
    }
}

/// The request kinds the service admits, batched and metered separately
/// so apply traffic does not dilute decompose latency stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestType {
    /// Full factorization of a submitted matrix.
    Decompose,
    /// Rank-r matvec against store-resident factors.
    Apply,
    /// Incremental re-factorization of a client's evolving matrix
    /// against its cached factors (warm start / low-rank fast path).
    Update,
}

impl serde::Serialize for RequestType {
    fn serialize(&self) -> serde::Value {
        serde::Value::Str(self.name().to_string())
    }
}

impl RequestType {
    /// Every request type, in metrics/report order.
    pub const ALL: [RequestType; 3] = [
        RequestType::Decompose,
        RequestType::Apply,
        RequestType::Update,
    ];

    /// Stable snake_case name (used in exports).
    pub fn name(self) -> &'static str {
        match self {
            RequestType::Decompose => "decompose",
            RequestType::Apply => "apply",
            RequestType::Update => "update",
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            RequestType::Decompose => 0,
            RequestType::Apply => 1,
            RequestType::Update => 2,
        }
    }
}

/// Service-level-objective class attached at submission. Under
/// shape-classed scheduling (see `scheduler`) the class sets the
/// request's *scheduling horizon* — the effective deadline the EDF
/// batch formation and admission eviction order on when no explicit timeout
/// was given — and its shedding priority under overload. It never, by
/// itself, times a request out: only an explicit per-request timeout
/// produces `DeadlineExceeded`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum SloClass {
    /// Latency-sensitive traffic: shortest scheduling horizon, shed
    /// last, and batched under a quartered linger budget.
    Interactive,
    /// The default class: the service's pre-SLO behavior.
    #[default]
    Standard,
    /// Throughput traffic: longest horizon, first to be shed or
    /// evicted when an urgent request arrives at a full queue.
    Batch,
}

impl serde::Serialize for SloClass {
    fn serialize(&self) -> serde::Value {
        serde::Value::Str(self.name().to_string())
    }
}

impl SloClass {
    /// Every class, in metrics/report order.
    pub const ALL: [SloClass; 3] = [SloClass::Interactive, SloClass::Standard, SloClass::Batch];

    /// Stable snake_case name (used in exports and CLI flags).
    pub fn name(self) -> &'static str {
        match self {
            SloClass::Interactive => "interactive",
            SloClass::Standard => "standard",
            SloClass::Batch => "batch",
        }
    }

    /// Parses the stable name (CLI flags).
    ///
    /// # Errors
    ///
    /// The offending string when it names no class.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "interactive" => Ok(SloClass::Interactive),
            "standard" => Ok(SloClass::Standard),
            "batch" => Ok(SloClass::Batch),
            other => Err(format!(
                "unknown SLO class {other} (expected interactive|standard|batch)"
            )),
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            SloClass::Interactive => 0,
            SloClass::Standard => 1,
            SloClass::Batch => 2,
        }
    }

    /// Shedding/eviction priority; higher is more urgent and kept
    /// longer under overload.
    pub(crate) fn priority(self) -> u8 {
        match self {
            SloClass::Interactive => 2,
            SloClass::Standard => 1,
            SloClass::Batch => 0,
        }
    }

    /// The scheduling horizon: how far past submission the request's
    /// effective deadline sits when the caller gave no explicit
    /// timeout. Orders the EDF pick; never enforced as a timeout.
    pub(crate) fn horizon(self) -> Duration {
        match self {
            SloClass::Interactive => Duration::from_millis(100),
            SloClass::Standard => Duration::from_secs(1),
            SloClass::Batch => Duration::from_secs(10),
        }
    }
}

/// Instruction attached to a decompose request: after the factorization
/// succeeds, truncate it to `rank` and publish the factors as the next
/// version of `model` in the service's factor store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublishSpec {
    /// The model the factors belong to.
    pub model: ModelId,
    /// Truncation rank (validated against the matrix at admission).
    pub rank: usize,
}

/// Per-request options accepted at submission.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SubmitOptions {
    /// The request's deadline, counted from admission (`None`: no
    /// deadline). It covers wall-clock queueing and lingering; once a
    /// batch starts executing the request is carried to completion.
    pub timeout: Option<Duration>,
    /// The request's SLO class (default [`SloClass::Standard`]). With
    /// `shape_classed` scheduling it sets the request's EDF order, its
    /// linger budget and its shed/evict priority; in the default FIFO
    /// mode it only labels the per-class metrics.
    pub class: SloClass,
}

/// The plan a request executed under. Autoscale swaps change the live
/// plan between batches, so callers auditing results (e.g. the bench
/// bit-identity gate) group responses by generation: every request in
/// one generation ran wholly under one plan, and its factors match a
/// static service pinned at that plan bit for bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize)]
pub struct PlanInfo {
    /// Engine parallelism (P_eng) the executing accelerator used.
    pub engine_parallelism: usize,
    /// Task parallelism (P_task) the executing accelerator used.
    pub task_parallelism: usize,
    /// Plan generation at execution time (bumps once per committed
    /// autoscale swap; 0 until the first swap).
    pub generation: u64,
}

/// Where each slice of a request's life went.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyRecord {
    /// Wall-clock time from admission until a replica forming a batch
    /// first saw the request queued. A forming replica surveys the queue
    /// on every arrival, so this is near zero while a replica is idle;
    /// while every replica is busy executing, it is the wait for one to
    /// free up.
    pub queue_wait: Duration,
    /// Wall-clock time from that first sighting until the replica that
    /// cut the batch started it: waiting for batch-mates (the request's
    /// key lingers on its own clock, at most the configured max linger
    /// counted from admission; an update key is due as soon as it is
    /// queued and never waits for batch-mates), plus any stretch in
    /// which every replica turned busy before one cut it. A cut batch
    /// runs at once on the replica that cut it; there is no dispatch
    /// wait.
    pub batch_linger: Duration,
    /// Simulated execution time charged to the request, in picoseconds.
    /// Decompose and apply requests are charged their batch's Eq. (14)
    /// system time `⌈B / P_task⌉ · t_task`, the same for every member.
    /// Update requests execute one by one, so each is charged its own
    /// route's task time (0 for the host-only low-rank route), not a
    /// batch time.
    pub sim_exec_ps: u64,
    /// Size of the batch the request executed in (for updates, the
    /// formed batch, although its members are charged separately).
    pub batch_size: usize,
    /// Wall-clock time from admission until completion.
    pub wall_total: Duration,
    /// The plan the request executed under (base plan for apply and
    /// host-only routes, which never touch the accelerator array).
    pub plan: PlanInfo,
}

/// Successful result of a served decompose request.
#[derive(Debug, Clone)]
pub struct SvdResponse {
    /// Id echoed from the handle.
    pub id: RequestId,
    /// The accelerator output (factors, stats, per-task timing).
    pub output: HeteroSvdOutput,
    /// The request's latency decomposition.
    pub latency: LatencyRecord,
}

/// Successful result of a served apply request.
#[derive(Debug, Clone)]
pub struct ApplyResponse {
    /// Id echoed from the handle.
    pub id: RequestId,
    /// The model whose factors served the request.
    pub model: ModelId,
    /// The factor version the request was pinned to at admission.
    pub version: u64,
    /// The rank actually applied.
    pub rank: usize,
    /// The rank-r product `y = U_r·Σ_r·V_rᵀ·x`.
    pub y: Vec<f32>,
    /// Rank/accuracy metadata of the serving factor version.
    pub meta: FactorMeta,
    /// The request's latency decomposition (`sim_exec_ps` charges the
    /// Eq. 8–14 apply pipeline system time).
    pub latency: LatencyRecord,
}

/// Successful result of a served incremental-update request.
#[derive(Debug, Clone)]
pub struct UpdateResponse {
    /// Id echoed from the handle.
    pub id: RequestId,
    /// The client whose cached factors routed the request.
    pub client: ClientId,
    /// The route the update actually executed (pinned at admission).
    pub route: UpdateRoute,
    /// Measured `‖ΔA‖_F / ‖A‖_F` against the cached previous matrix
    /// (`∞` on shape change, `0` with no cache entry — the cold path).
    pub delta_rel: f64,
    /// Singular values served, descending. Warm-start and full routes
    /// return the complete spectrum; the low-rank route returns the
    /// cached truncation rank.
    pub sigma: Vec<f32>,
    /// The accelerator output when one ran (warm-start and full routes;
    /// `None` for the host-only low-rank route).
    pub output: Option<HeteroSvdOutput>,
    /// Warm-start sweep accounting when the warm route executed.
    pub warm_start: Option<WarmStartCounters>,
    /// The request's latency decomposition (`sim_exec_ps` is 0 for the
    /// host-only low-rank route).
    pub latency: LatencyRecord,
}

/// Either terminal payload a request can complete with; each handle
/// unwraps its own variant. The variants differ in size (an
/// `SvdResponse` carries full factors), but exactly one instance
/// exists per in-flight request and it is moved, never copied, so the
/// indirection boxing would buy costs more than the slack bytes.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub(crate) enum Completion {
    Svd(SvdResponse),
    Apply(ApplyResponse),
    Update(UpdateResponse),
}

// A handle is only ever completed by the execution path of the payload
// its admission paired it with, so a foreign variant is unreachable.
impl Completion {
    pub(crate) fn into_svd(self) -> SvdResponse {
        let Completion::Svd(response) = self else {
            unreachable!("decompose handle completed with a foreign response")
        };
        response
    }

    pub(crate) fn into_apply(self) -> ApplyResponse {
        let Completion::Apply(response) = self else {
            unreachable!("apply handle completed with a foreign response")
        };
        response
    }

    pub(crate) fn into_update(self) -> UpdateResponse {
        let Completion::Update(response) = self else {
            unreachable!("update handle completed with a foreign response")
        };
        response
    }

    fn latency(&self) -> &LatencyRecord {
        match self {
            Completion::Svd(response) => &response.latency,
            Completion::Apply(response) => &response.latency,
            Completion::Update(response) => &response.latency,
        }
    }
}

/// Caller-side handle to an admitted request, delivering `R` — one of
/// [`SvdResponse`], [`ApplyResponse`] or [`UpdateResponse`] (see the
/// [`RequestHandle`], [`ApplyHandle`] and [`UpdateHandle`] aliases).
///
/// The request ends exactly once, and its outcome is counted in the
/// service metrics before the handle can observe it: a caller that reads
/// [`crate::SvdService::metrics`] right after [`Handle::wait`] returns
/// sees its own request counted. Waiting consumes the handle, so a
/// result is delivered exactly once.
#[derive(Debug)]
pub struct Handle<R> {
    pub(crate) id: RequestId,
    pub(crate) state: Arc<RequestState>,
    /// Unwraps the handle's own [`Completion`] variant.
    pub(crate) unwrap: fn(Completion) -> R,
}

/// Handle to an admitted decompose (or decompose-and-publish) request.
pub type RequestHandle = Handle<SvdResponse>;
/// Handle to an admitted apply request.
pub type ApplyHandle = Handle<ApplyResponse>;
/// Handle to an admitted incremental-update request.
pub type UpdateHandle = Handle<UpdateResponse>;

impl<R> Handle<R> {
    /// The id assigned at admission.
    pub fn id(&self) -> RequestId {
        self.id
    }

    /// Requests cancellation. Best-effort: a request already executing
    /// is carried to completion; one still queued or lingering completes
    /// with [`ServeError::Cancelled`].
    pub fn cancel(&self) {
        self.state.cancelled.store(true, Ordering::SeqCst);
    }

    /// Whether a result is already available (non-blocking).
    pub fn is_finished(&self) -> bool {
        self.state.slot.lock().is_some()
    }

    /// Blocks until the request completes and takes the result.
    ///
    /// # Errors
    ///
    /// Whatever terminal error the request ended with.
    pub fn wait(self) -> Result<R, ServeError> {
        self.state.wait_take().map(self.unwrap)
    }

    /// Blocks up to `timeout` for completion.
    ///
    /// # Errors
    ///
    /// `Err(self)` hands the handle back on timeout so the caller can
    /// keep waiting or cancel.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Result<R, ServeError>, Self> {
        match self.state.wait_take_until(Instant::now() + timeout) {
            Some(result) => Ok(result.map(self.unwrap)),
            None => Err(self),
        }
    }
}

/// Shared completion slot between the handle and the service threads.
#[derive(Debug)]
pub(crate) struct RequestState {
    slot: Mutex<Option<Result<Completion, ServeError>>>,
    done: Condvar,
    pub(crate) cancelled: AtomicBool,
}

impl RequestState {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(RequestState {
            slot: Mutex::new(None),
            done: Condvar::new(),
            cancelled: AtomicBool::new(false),
        })
    }

    /// Completes the request if still pending; the first completion
    /// wins and later ones are dropped. The winner runs `count` under
    /// the slot lock before storing the result, so no waiter can see the
    /// result before it is counted. Returns whether this call won.
    fn complete(
        &self,
        result: Result<Completion, ServeError>,
        count: impl FnOnce(&Result<Completion, ServeError>),
    ) -> bool {
        let mut slot = self.slot.lock();
        if slot.is_some() {
            return false;
        }
        count(&result);
        *slot = Some(result);
        drop(slot);
        self.done.notify_all();
        true
    }

    /// Fails the request with `err`, uncounted.
    #[cfg(test)]
    pub(crate) fn fail(&self, err: ServeError) -> bool {
        self.complete(Err(err), |_| {})
    }

    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }

    fn wait_take(&self) -> Result<Completion, ServeError> {
        let mut slot = self.slot.lock();
        while slot.is_none() {
            self.done.wait(&mut slot);
        }
        slot.take().expect("slot filled")
    }

    fn wait_take_until(&self, deadline: Instant) -> Option<Result<Completion, ServeError>> {
        let mut slot = self.slot.lock();
        loop {
            if let Some(result) = slot.take() {
                return Some(result);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            self.done.wait_for(&mut slot, deadline - now);
        }
    }
}

/// The work a pending request carries: a matrix to decompose or a vector
/// to stream through store-resident factors.
#[derive(Debug)]
pub(crate) enum Payload {
    Decompose {
        /// The request's matrix in the device's native `f32`: cast once
        /// at admission (halving queued-request memory vs. storing the
        /// caller's `f64`), then *moved* — never cloned — into the
        /// accelerator when its batch executes.
        matrix: Matrix<f32>,
        shape: (usize, usize),
        /// When set, the replica truncates and publishes the successful
        /// factorization into the service's factor store.
        publish: Option<PublishSpec>,
    },
    Apply {
        /// The input vector in device `f32`.
        x: Vec<f32>,
        /// The factor version pinned at admission: the `Arc` keeps it
        /// alive (and bit-identical) even if a republish or eviction
        /// replaces it in the store mid-flight, and the replica applies
        /// it without copying any factor data.
        factors: Arc<PublishedFactors>,
        /// The rank actually applied (`<=` the stored rank).
        rank: usize,
    },
    Update {
        /// The updated matrix in device `f32` (same move-not-clone
        /// discipline as `Decompose`).
        matrix: Matrix<f32>,
        shape: (usize, usize),
        /// The client whose factor-cache slot keys this update stream.
        client: ClientId,
        /// The cache entry pinned at admission (`None` on a cold
        /// start): the `Arc` keeps the previous basis alive even if
        /// the cache evicts it mid-flight, so the replica never reads
        /// a basis the classification didn't see.
        entry: Option<Arc<FactorCacheEntry>>,
        /// The route decided at admission against the pinned entry;
        /// `None` on a cold start (full solve, no classification ran).
        class: Option<UpdateClass<f32>>,
    },
}

/// What batch formation coalesces on: decompose batches are
/// shape-uniform (one accelerator run), apply batches are
/// (model, version)-uniform (one pinned factor set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum BatchKey {
    Decompose {
        rows: usize,
        cols: usize,
    },
    Apply {
        model: u64,
        version: u64,
    },
    /// Update batches are shape-uniform like decompose, but execute
    /// per-request (each rides its own cached basis and route), so an
    /// update key never lingers for batch-mates: it is due as soon as
    /// it is queued.
    Update {
        rows: usize,
        cols: usize,
    },
}

impl BatchKey {
    /// Whether the key's requests wait for batch-mates. Eq. 14 charges
    /// a batch `⌈B / P_task⌉ · t_task`, so waiting pays only when the
    /// members share one run: decompose and apply batches do, update
    /// batches run their members one by one and share nothing.
    pub(crate) fn lingers(self) -> bool {
        !matches!(self, BatchKey::Update { .. })
    }
}

/// A request travelling through the service internals.
#[derive(Debug)]
pub(crate) struct PendingRequest {
    pub(crate) id: RequestId,
    pub(crate) payload: Payload,
    pub(crate) state: Arc<RequestState>,
    pub(crate) submitted_at: Instant,
    pub(crate) deadline: Option<Instant>,
    /// When a replica forming a batch first saw the request queued
    /// (`None` until its first survey); the end of the request's queue
    /// wait.
    pub(crate) seen_at: Option<Instant>,
    /// SLO class stamped at admission; read by the shape-classed
    /// scheduler and the per-class metrics.
    pub(crate) class: SloClass,
    /// Test/chaos hook: the replica that picks this request up panics
    /// (inside its containment boundary) instead of executing it.
    pub(crate) poison: bool,
}

impl PendingRequest {
    /// Ends the request with `result`: `Ok` is a completion,
    /// [`ServeError::Overloaded`] an eviction, and any other error a
    /// failure. A request ends once; later calls are no-ops.
    pub(crate) fn finish(&self, result: Result<Completion, ServeError>, metrics: &Metrics) {
        let outcome = match &result {
            Ok(_) => Outcome::Completed,
            Err(ServeError::Overloaded) => Outcome::Evicted,
            Err(_) => Outcome::Failed,
        };
        self.end(result, outcome, metrics)
    }

    /// Ends the request if it was cancelled, or timed out by `now` — a
    /// timeout counted at exec start when `at_exec`, else at formation.
    /// Returns whether the request is dead (ended here or before).
    pub(crate) fn end_if_dead(&self, now: Instant, at_exec: bool, metrics: &Metrics) -> bool {
        let (err, outcome) = if self.state.is_cancelled() {
            (ServeError::Cancelled, Outcome::Cancelled)
        } else if self.deadline.is_some_and(|d| now >= d) {
            let point = if at_exec {
                Outcome::TimedOutAtExec
            } else {
                Outcome::TimedOutAtBatcher
            };
            (ServeError::DeadlineExceeded, point)
        } else {
            return false;
        };
        self.end(Err(err), outcome, metrics);
        true
    }

    /// The one terminal step: stores `result` and counts `outcome` (plus,
    /// on `Ok`, the latency sample under the request's type, class and
    /// shape) before any waiter can see it.
    fn end(&self, result: Result<Completion, ServeError>, outcome: Outcome, metrics: &Metrics) {
        let rtype = self.request_type();
        self.state.complete(result, |result| {
            metrics.record_outcome(rtype, self.class, outcome);
            if let Ok(completion) = result {
                metrics.record_latency(completion.latency(), rtype, self.shape(), self.class);
            }
        });
    }

    /// The matrix shape of decompose and update requests; apply
    /// requests carry none.
    fn shape(&self) -> Option<(usize, usize)> {
        match &self.payload {
            Payload::Decompose { shape, .. } | Payload::Update { shape, .. } => Some(*shape),
            Payload::Apply { .. } => None,
        }
    }

    /// The instant the EDF scheduler orders this request by: the
    /// explicit deadline when one was set, otherwise submission time
    /// plus the class horizon. Purely a scheduling key — a request
    /// whose *effective* deadline passes is served late, not timed out.
    pub(crate) fn effective_deadline(&self) -> Instant {
        self.deadline
            .unwrap_or_else(|| self.submitted_at + self.class.horizon())
    }

    pub(crate) fn batch_key(&self) -> BatchKey {
        match &self.payload {
            Payload::Decompose { shape, .. } => BatchKey::Decompose {
                rows: shape.0,
                cols: shape.1,
            },
            Payload::Apply { factors, .. } => BatchKey::Apply {
                model: factors.model.0,
                version: factors.version,
            },
            Payload::Update { shape, .. } => BatchKey::Update {
                rows: shape.0,
                cols: shape.1,
            },
        }
    }

    pub(crate) fn request_type(&self) -> RequestType {
        match &self.payload {
            Payload::Decompose { .. } => RequestType::Decompose,
            Payload::Apply { .. } => RequestType::Apply,
            Payload::Update { .. } => RequestType::Update,
        }
    }
}

/// Queued-request fixtures shared by the admission and formation tests.
#[cfg(test)]
pub(crate) mod fixtures {
    use super::*;
    use svd_kernels::TruncatedSvd;

    /// A decompose request of `shape` and `class`, admitted now.
    pub(crate) fn pending(id: u64, shape: (usize, usize), class: SloClass) -> PendingRequest {
        PendingRequest {
            id: RequestId(id),
            payload: Payload::Decompose {
                matrix: Matrix::zeros(shape.0, shape.1),
                shape,
                publish: None,
            },
            state: RequestState::new(),
            submitted_at: Instant::now(),
            deadline: None,
            seen_at: None,
            class,
            poison: false,
        }
    }

    /// A request admitted `age` ago: one that has already waited that
    /// long in the queue, without the test sleeping for it.
    pub(crate) fn aged(
        id: u64,
        shape: (usize, usize),
        class: SloClass,
        age: Duration,
    ) -> PendingRequest {
        let mut request = pending(id, shape, class);
        request.submitted_at -= age;
        request
    }

    /// Rank-2 factors of a 4×4 matrix, published as `model` `version`.
    pub(crate) fn published(model: u64, version: u64) -> Arc<PublishedFactors> {
        let factors = TruncatedSvd {
            u: Matrix::zeros(4, 2),
            sigma: vec![2.0f32, 1.0],
            v: Matrix::zeros(4, 2),
            tail_sigma: 0.0,
            retained_energy: 1.0,
        };
        let bytes = factors.approx_bytes();
        Arc::new(PublishedFactors {
            model: ModelId(model),
            version,
            meta: FactorMeta {
                rows: 4,
                cols: 4,
                rank: 2,
                tail_sigma: 0.0,
                retained_energy: 1.0,
                bytes,
            },
            factors,
        })
    }

    /// A cold Standard-class update request of `shape` from client
    /// `id`, admitted now.
    pub(crate) fn pending_update(id: u64, shape: (usize, usize)) -> PendingRequest {
        PendingRequest {
            id: RequestId(id),
            payload: Payload::Update {
                matrix: Matrix::zeros(shape.0, shape.1),
                shape,
                client: ClientId(id),
                entry: None,
                class: None,
            },
            state: RequestState::new(),
            submitted_at: Instant::now(),
            deadline: None,
            seen_at: None,
            class: SloClass::Standard,
            poison: false,
        }
    }

    /// A Standard-class apply request against `factors`, admitted now.
    pub(crate) fn pending_apply(id: u64, factors: Arc<PublishedFactors>) -> PendingRequest {
        PendingRequest {
            id: RequestId(id),
            payload: Payload::Apply {
                x: vec![0.0; factors.meta.cols],
                rank: factors.meta.rank,
                factors,
            },
            state: RequestState::new(),
            submitted_at: Instant::now(),
            deadline: None,
            seen_at: None,
            class: SloClass::Standard,
            poison: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_completion_wins() {
        let state = RequestState::new();
        assert!(state.fail(ServeError::Cancelled));
        assert!(!state.fail(ServeError::DeadlineExceeded));
        // The losing write did not clobber the winner.
        let handle = RequestHandle {
            id: RequestId(1),
            state,
            unwrap: Completion::into_svd,
        };
        assert_eq!(handle.wait().unwrap_err(), ServeError::Cancelled);
    }

    #[test]
    fn wait_returns_the_stored_result() {
        let state = RequestState::new();
        let handle = RequestHandle {
            id: RequestId(7),
            state: Arc::clone(&state),
            unwrap: Completion::into_svd,
        };
        let writer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            state.fail(ServeError::DeadlineExceeded);
        });
        assert_eq!(handle.wait().unwrap_err(), ServeError::DeadlineExceeded);
        writer.join().unwrap();
    }

    #[test]
    fn wait_timeout_hands_the_handle_back() {
        let state = RequestState::new();
        let handle = RequestHandle {
            id: RequestId(9),
            state,
            unwrap: Completion::into_svd,
        };
        let handle = handle
            .wait_timeout(Duration::from_millis(2))
            .expect_err("nothing completed it");
        handle.cancel();
        assert!(handle.state.is_cancelled());
    }

    #[test]
    fn apply_handle_round_trips_its_response() {
        let state = RequestState::new();
        let handle = ApplyHandle {
            id: RequestId(3),
            state: Arc::clone(&state),
            unwrap: Completion::into_apply,
        };
        let response = ApplyResponse {
            id: RequestId(3),
            model: ModelId(42),
            version: 2,
            rank: 4,
            y: vec![1.0, 2.0],
            meta: FactorMeta {
                rows: 2,
                cols: 2,
                rank: 4,
                tail_sigma: 0.0,
                retained_energy: 1.0,
                bytes: 64,
            },
            latency: LatencyRecord {
                queue_wait: Duration::ZERO,
                batch_linger: Duration::ZERO,
                sim_exec_ps: 10,
                batch_size: 1,
                wall_total: Duration::ZERO,
                plan: PlanInfo::default(),
            },
        };
        assert!(state.complete(Ok(Completion::Apply(response)), |_| {}));
        let got = handle.wait().unwrap();
        assert_eq!(got.model, ModelId(42));
        assert_eq!(got.y, vec![1.0, 2.0]);
    }

    #[test]
    fn terminal_step_counts_one_outcome_per_request() {
        let metrics = Metrics::new();
        let now = Instant::now();
        let pending = |id| fixtures::pending(id, (4, 4), SloClass::Standard);
        // A live request passes the lifecycle check untouched.
        let evicted = pending(1);
        assert!(!evicted.end_if_dead(now, true, &metrics));
        // Overloaded is an eviction; a later end is a no-op, not a
        // second count.
        evicted.finish(Err(ServeError::Overloaded), &metrics);
        evicted.finish(Err(ServeError::WorkerPanicked("late".into())), &metrics);
        pending(2).finish(Err(ServeError::WorkerPanicked("boom".into())), &metrics);
        // A timeout counts at the drop point that found it, once.
        let mut expired = pending(3);
        expired.deadline = Some(now);
        assert!(expired.end_if_dead(now, true, &metrics));
        assert!(expired.end_if_dead(now, false, &metrics));
        let cancelled = pending(4);
        cancelled.state.cancelled.store(true, Ordering::SeqCst);
        assert!(cancelled.end_if_dead(now, false, &metrics));
        let m = metrics.snapshot(0, 0);
        assert_eq!(
            (
                m.evicted,
                m.failed,
                m.timed_out_at_exec,
                m.timed_out_at_batcher
            ),
            (1, 1, 1, 0)
        );
        assert_eq!((m.cancelled, m.completed_ok), (1, 0));
        assert_eq!((m.shed, m.per_class.standard.shed), (1, 1));
    }

    #[test]
    fn slo_class_names_round_trip_and_order() {
        assert_eq!(SloClass::default(), SloClass::Standard);
        for (i, class) in SloClass::ALL.iter().enumerate() {
            assert_eq!(class.index(), i);
            assert_eq!(SloClass::parse(class.name()).unwrap(), *class);
        }
        assert!(SloClass::parse("bulk").is_err());
        // Interactive is most urgent on both axes the scheduler uses.
        assert!(SloClass::Interactive.priority() > SloClass::Standard.priority());
        assert!(SloClass::Standard.priority() > SloClass::Batch.priority());
        assert!(SloClass::Interactive.horizon() < SloClass::Standard.horizon());
        assert!(SloClass::Standard.horizon() < SloClass::Batch.horizon());
    }

    #[test]
    fn effective_deadline_prefers_the_explicit_timeout() {
        let now = Instant::now();
        let mut req = PendingRequest {
            id: RequestId(1),
            payload: Payload::Decompose {
                matrix: Matrix::zeros(4, 4),
                shape: (4, 4),
                publish: None,
            },
            state: RequestState::new(),
            submitted_at: now,
            deadline: None,
            seen_at: None,
            class: SloClass::Batch,
            poison: false,
        };
        assert_eq!(req.effective_deadline(), now + SloClass::Batch.horizon());
        req.deadline = Some(now + Duration::from_millis(3));
        assert_eq!(req.effective_deadline(), now + Duration::from_millis(3));
    }

    #[test]
    fn request_type_names_are_stable() {
        assert_eq!(RequestType::Decompose.name(), "decompose");
        assert_eq!(RequestType::Apply.name(), "apply");
        assert_eq!(RequestType::Update.name(), "update");
        assert_eq!(RequestType::ALL.len(), 3);
        for (i, rtype) in RequestType::ALL.iter().enumerate() {
            assert_eq!(rtype.index(), i);
        }
    }
}
