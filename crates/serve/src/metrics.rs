//! Service observability: counters, gauges, latency percentiles.

use crate::request::{LatencyRecord, PlanInfo, RequestType, SloClass};
use parking_lot::Mutex;
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Cap on retained latency samples; the recorder keeps the most recent
/// window so a long-running service does not grow without bound.
const MAX_SAMPLES: usize = 65_536;

/// Cap on retained per-shape execution samples (each observed shape
/// keeps its own bounded window).
const MAX_SHAPE_SAMPLES: usize = 4_096;

/// Cap on retained per-SLO-class wall-latency samples.
const MAX_CLASS_SAMPLES: usize = 16_384;

/// How an admitted request ended: exactly one per request, counted by
/// the request's terminal step before its waiter can see the result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// Served successfully.
    Completed,
    /// Ended in an accelerator, numeric or replica error.
    Failed,
    /// Cancelled by its submitter before execution.
    Cancelled,
    /// Deadline expiry caught at batch formation (the request never
    /// left the admission queue in time).
    TimedOutAtBatcher,
    /// Deadline expiry caught at replica-exec start (admitted in time,
    /// but the deadline passed between its batch's cut and exec start).
    TimedOutAtExec,
    /// Evicted from a full classed queue to admit a more urgent request.
    Evicted,
}

impl Outcome {
    const COUNT: usize = 6;
}

/// Live metric state shared by the service threads.
pub(crate) struct Metrics {
    started_at: Instant,
    pub(crate) rejected_full: AtomicU64,
    pub(crate) rejected_invalid: AtomicU64,
    pub(crate) worker_panics: AtomicU64,
    pub(crate) replicas_spawned: AtomicU64,
    pub(crate) batches_dispatched: AtomicU64,
    /// Batches executed as packed waves (>= 2 co-resident tenants on
    /// disjoint sub-grids) rather than the sequential path.
    pub(crate) packed_batches: AtomicU64,
    /// Requests served inside packed waves.
    pub(crate) packed_requests: AtomicU64,
    /// Update requests served via the warm-start route (cached basis
    /// seeded the Jacobi solve).
    pub(crate) warm_start_hits: AtomicU64,
    /// Update requests served via the host-only low-rank fast path.
    pub(crate) lowrank_hits: AtomicU64,
    /// Update requests that classified stale (delta too large, warm
    /// budget exhausted, or shape change) and fell back to a full
    /// recompute. Cold starts (no cache entry) are *not* counted here;
    /// they show up as factor-cache misses.
    pub(crate) staleness_fallbacks: AtomicU64,
    /// Plan swaps committed by the autoscale controller (each one
    /// drains in-flight batches under the old plan and replaces the
    /// replica-side accelerator state).
    pub(crate) plan_swaps: AtomicU64,
    /// DSE re-searches the autoscale controller actually ran (cached
    /// stationary ticks do not count).
    pub(crate) dse_runs: AtomicU64,
    /// The outcome table: admissions and one count per [`Outcome`] for
    /// each request type, indexed by [`RequestType::index`]. Every
    /// aggregate request counter is a sum over it.
    per_type: [TypeMetrics; 3],
    /// Per-SLO-class slice, indexed by [`SloClass::index`].
    per_class: [ClassMetrics; 3],
    /// Per-matrix-shape slice: completions by type, batch fill, and a
    /// bounded execution-sample window per observed (rows, cols). Fed
    /// by shape-bearing completions (decompose/update); apply traffic
    /// carries no matrix shape and stays aggregate-only.
    shapes: Mutex<BTreeMap<(usize, usize), ShapeEntry>>,
    samples: Mutex<Vec<Sample>>,
    /// Start of the current throughput window: advanced by every
    /// snapshot so `throughput_rps_window` measures completions since
    /// the *previous* snapshot, not since service start.
    window: Mutex<WindowState>,
}

struct WindowState {
    since: Instant,
    completed: u64,
}

impl WindowState {
    fn new() -> Self {
        WindowState {
            since: Instant::now(),
            completed: 0,
        }
    }

    /// Completions-per-second since the previous call, then the window
    /// restarts at `completed`.
    fn advance(&mut self, completed: u64) -> f64 {
        let span = self.since.elapsed().as_secs_f64();
        let delta = completed.saturating_sub(self.completed);
        self.since = Instant::now();
        self.completed = completed;
        if span > 0.0 {
            delta as f64 / span
        } else {
            0.0
        }
    }
}

/// One request type's row of the outcome table (each type also gets
/// its own throughput window, advanced by the same snapshots as the
/// aggregate).
struct TypeMetrics {
    submitted: AtomicU64,
    /// Indexed by `Outcome as usize`.
    ended: [AtomicU64; Outcome::COUNT],
    window: Mutex<WindowState>,
}

impl TypeMetrics {
    fn new() -> Self {
        TypeMetrics {
            submitted: AtomicU64::new(0),
            ended: std::array::from_fn(|_| AtomicU64::new(0)),
            window: Mutex::new(WindowState::new()),
        }
    }

    fn ended(&self, outcome: Outcome) -> u64 {
        self.ended[outcome as usize].load(Ordering::Relaxed)
    }
}

/// Per-SLO-class slice: admission/completion/shed counters plus a
/// bounded window of end-to-end wall latencies, so per-class p99s are
/// reportable (the scheduler's whole point is the rare class's tail).
struct ClassMetrics {
    submitted: AtomicU64,
    completed_ok: AtomicU64,
    /// Requests of this class rejected or evicted by the overload
    /// policy (completed with `ServeError::Overloaded`).
    shed: AtomicU64,
    wall_samples: Mutex<Vec<u64>>,
}

impl ClassMetrics {
    fn new() -> Self {
        ClassMetrics {
            submitted: AtomicU64::new(0),
            completed_ok: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            wall_samples: Mutex::new(Vec::new()),
        }
    }
}

/// Per-shape accumulator behind the `shapes` map.
struct ShapeEntry {
    /// Completions indexed by [`RequestType::index`].
    completed: [u64; 3],
    /// Sum of executed batch sizes over shape-bearing completions, so
    /// the controller can recover the mean observed batch fill.
    batch_fill_sum: u64,
    batch_fill_count: u64,
    exec_samples: Vec<u64>,
    window: WindowState,
}

impl ShapeEntry {
    fn new() -> Self {
        ShapeEntry {
            completed: [0; 3],
            batch_fill_sum: 0,
            batch_fill_count: 0,
            exec_samples: Vec::new(),
            window: WindowState::new(),
        }
    }
}

/// Cumulative per-shape counters handed to the autoscale controller,
/// which diffs successive reads on its own cadence (never draining the
/// scrape-owned windows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ShapeTotals {
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    /// Completions indexed by [`RequestType::index`].
    pub(crate) completed: [u64; 3],
    pub(crate) batch_fill_sum: u64,
    pub(crate) batch_fill_count: u64,
}

#[derive(Clone, Copy)]
struct Sample {
    rtype: RequestType,
    queue_wait_us: u64,
    linger_us: u64,
    sim_exec_ps: u64,
    batch_size: u64,
}

impl Metrics {
    pub(crate) fn new() -> Self {
        Metrics {
            started_at: Instant::now(),
            rejected_full: AtomicU64::new(0),
            rejected_invalid: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            replicas_spawned: AtomicU64::new(0),
            batches_dispatched: AtomicU64::new(0),
            packed_batches: AtomicU64::new(0),
            packed_requests: AtomicU64::new(0),
            warm_start_hits: AtomicU64::new(0),
            lowrank_hits: AtomicU64::new(0),
            staleness_fallbacks: AtomicU64::new(0),
            plan_swaps: AtomicU64::new(0),
            dse_runs: AtomicU64::new(0),
            per_type: [TypeMetrics::new(), TypeMetrics::new(), TypeMetrics::new()],
            per_class: [
                ClassMetrics::new(),
                ClassMetrics::new(),
                ClassMetrics::new(),
            ],
            shapes: Mutex::new(BTreeMap::new()),
            samples: Mutex::new(Vec::new()),
            window: Mutex::new(WindowState::new()),
        }
    }

    fn of(&self, rtype: RequestType) -> &TypeMetrics {
        &self.per_type[rtype.index()]
    }

    fn of_class(&self, class: SloClass) -> &ClassMetrics {
        &self.per_class[class.index()]
    }

    pub(crate) fn record_submitted(&self, rtype: RequestType, class: SloClass) {
        self.of(rtype).submitted.fetch_add(1, Ordering::Relaxed);
        self.of_class(class)
            .submitted
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Counts how one admitted request of `rtype` and `class` ended. A
    /// completion also counts toward its class, and an eviction toward
    /// its class's `shed`.
    pub(crate) fn record_outcome(&self, rtype: RequestType, class: SloClass, outcome: Outcome) {
        self.of(rtype).ended[outcome as usize].fetch_add(1, Ordering::Relaxed);
        let class = self.of_class(class);
        let class_counter = match outcome {
            Outcome::Completed => &class.completed_ok,
            Outcome::Evicted => &class.shed,
            _ => return,
        };
        class_counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests of every type that ended in `outcome`.
    pub(crate) fn total(&self, outcome: Outcome) -> u64 {
        self.per_type.iter().map(|t| t.ended(outcome)).sum()
    }

    /// Records a request of `class` the load shedder refused at
    /// admission. It was never admitted, so it has no outcome.
    pub(crate) fn record_shed(&self, class: SloClass) {
        self.of_class(class).shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one packed wave covering `requests` co-scheduled requests.
    pub(crate) fn record_packed(&self, requests: u64) {
        self.packed_batches.fetch_add(1, Ordering::Relaxed);
        self.packed_requests.fetch_add(requests, Ordering::Relaxed);
    }

    pub(crate) fn record_warm_start_hit(&self) {
        self.warm_start_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_lowrank_hit(&self) {
        self.lowrank_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_staleness_fallback(&self) {
        self.staleness_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_plan_swap(&self) {
        self.plan_swaps.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_dse_run(&self) {
        self.dse_runs.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_latency(
        &self,
        rec: &LatencyRecord,
        rtype: RequestType,
        shape: Option<(usize, usize)>,
        class: SloClass,
    ) {
        {
            let mut walls = self.of_class(class).wall_samples.lock();
            if walls.len() >= MAX_CLASS_SAMPLES {
                let keep = walls.split_off(MAX_CLASS_SAMPLES / 2);
                *walls = keep;
            }
            walls.push(rec.wall_total.as_micros() as u64);
        }
        if let Some(shape) = shape {
            let mut shapes = self.shapes.lock();
            let entry = shapes.entry(shape).or_insert_with(ShapeEntry::new);
            entry.completed[rtype.index()] += 1;
            entry.batch_fill_sum += rec.batch_size as u64;
            entry.batch_fill_count += 1;
            if entry.exec_samples.len() >= MAX_SHAPE_SAMPLES {
                let keep = entry.exec_samples.split_off(MAX_SHAPE_SAMPLES / 2);
                entry.exec_samples = keep;
            }
            entry.exec_samples.push(rec.sim_exec_ps);
        }
        let mut samples = self.samples.lock();
        if samples.len() >= MAX_SAMPLES {
            // Drop the oldest half in one move to amortize the shift.
            let keep = samples.split_off(MAX_SAMPLES / 2);
            *samples = keep;
        }
        samples.push(Sample {
            rtype,
            queue_wait_us: rec.queue_wait.as_micros() as u64,
            linger_us: rec.batch_linger.as_micros() as u64,
            sim_exec_ps: rec.sim_exec_ps,
            batch_size: rec.batch_size as u64,
        });
    }

    /// Cumulative per-shape counters for the autoscale controller. The
    /// controller diffs successive reads; nothing here drains the
    /// windows the metrics scrape owns.
    pub(crate) fn shape_totals(&self) -> Vec<ShapeTotals> {
        self.shapes
            .lock()
            .iter()
            .map(|(&(rows, cols), e)| ShapeTotals {
                rows,
                cols,
                completed: e.completed,
                batch_fill_sum: e.batch_fill_sum,
                batch_fill_count: e.batch_fill_count,
            })
            .collect()
    }

    fn type_snapshot(&self, rtype: RequestType, samples: &[Sample]) -> TypeSnapshot {
        let tm = self.of(rtype);
        let completed = tm.ended(Outcome::Completed);
        let window_rate = tm.window.lock().advance(completed);
        let mut queue_wait: Vec<u64> = samples
            .iter()
            .filter(|s| s.rtype == rtype)
            .map(|s| s.queue_wait_us)
            .collect();
        let mut exec: Vec<u64> = samples
            .iter()
            .filter(|s| s.rtype == rtype)
            .map(|s| s.sim_exec_ps)
            .collect();
        TypeSnapshot {
            submitted: tm.submitted.load(Ordering::Relaxed),
            completed_ok: completed,
            cancelled: tm.ended(Outcome::Cancelled),
            timed_out_at_batcher: tm.ended(Outcome::TimedOutAtBatcher),
            timed_out_at_exec: tm.ended(Outcome::TimedOutAtExec),
            throughput_rps_window: window_rate,
            queue_wait_us: Percentiles::from_samples(&mut queue_wait),
            sim_exec_ps: Percentiles::from_samples(&mut exec),
        }
    }

    fn class_snapshot(&self, class: SloClass) -> ClassSnapshot {
        let cm = self.of_class(class);
        let mut walls = cm.wall_samples.lock().clone();
        ClassSnapshot {
            submitted: cm.submitted.load(Ordering::Relaxed),
            completed_ok: cm.completed_ok.load(Ordering::Relaxed),
            shed: cm.shed.load(Ordering::Relaxed),
            wall_us: Percentiles::from_samples(&mut walls),
        }
    }

    fn shape_snapshots(&self) -> Vec<ShapeSnapshot> {
        let mut shapes = self.shapes.lock();
        shapes
            .iter_mut()
            .map(|(&(rows, cols), entry)| {
                let completed: u64 = entry.completed.iter().sum();
                let window_rate = entry.window.advance(completed);
                let mean_fill = if entry.batch_fill_count == 0 {
                    0.0
                } else {
                    entry.batch_fill_sum as f64 / entry.batch_fill_count as f64
                };
                let mut exec = entry.exec_samples.clone();
                ShapeSnapshot {
                    rows,
                    cols,
                    completed_decompose: entry.completed[RequestType::Decompose.index()],
                    completed_apply: entry.completed[RequestType::Apply.index()],
                    completed_update: entry.completed[RequestType::Update.index()],
                    mean_batch_fill: mean_fill,
                    throughput_rps_window: window_rate,
                    sim_exec_ps: Percentiles::from_samples(&mut exec),
                }
            })
            .collect()
    }

    pub(crate) fn snapshot(&self, queue_depth: usize, replicas_live: usize) -> MetricsSnapshot {
        let samples = self.samples.lock().clone();
        let elapsed = self.started_at.elapsed().as_secs_f64();
        let completed = self.total(Outcome::Completed);
        // Windowed rate: completions since the previous snapshot divided
        // by the wall time since it, then the window restarts here. A
        // long-running service reports its *current* rate instead of a
        // lifetime average polluted by warmup and idle stretches.
        let window_rate = self.window.lock().advance(completed);
        let timed_out_batcher = self.total(Outcome::TimedOutAtBatcher);
        let timed_out_exec = self.total(Outcome::TimedOutAtExec);
        let mut queue_wait: Vec<u64> = samples.iter().map(|s| s.queue_wait_us).collect();
        let mut linger: Vec<u64> = samples.iter().map(|s| s.linger_us).collect();
        let mut exec: Vec<u64> = samples.iter().map(|s| s.sim_exec_ps).collect();
        let mean_batch = if samples.is_empty() {
            0.0
        } else {
            samples.iter().map(|s| s.batch_size as f64).sum::<f64>() / samples.len() as f64
        };
        let shed_total: u64 = self
            .per_class
            .iter()
            .map(|cm| cm.shed.load(Ordering::Relaxed))
            .sum();
        MetricsSnapshot {
            submitted: self
                .per_type
                .iter()
                .map(|t| t.submitted.load(Ordering::Relaxed))
                .sum(),
            rejected_queue_full: self.rejected_full.load(Ordering::Relaxed),
            rejected_invalid: self.rejected_invalid.load(Ordering::Relaxed),
            completed_ok: completed,
            failed: self.total(Outcome::Failed),
            cancelled: self.total(Outcome::Cancelled),
            shed: shed_total,
            evicted: self.total(Outcome::Evicted),
            timed_out: timed_out_batcher + timed_out_exec,
            timed_out_at_batcher: timed_out_batcher,
            timed_out_at_exec: timed_out_exec,
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            replicas_spawned: self.replicas_spawned.load(Ordering::Relaxed),
            replicas_live: replicas_live as u64,
            batches_dispatched: self.batches_dispatched.load(Ordering::Relaxed),
            // The service fills in its scheduler's shed level.
            shed_level: 0,
            packed_batches: self.packed_batches.load(Ordering::Relaxed),
            packed_requests: self.packed_requests.load(Ordering::Relaxed),
            warm_start_hits: self.warm_start_hits.load(Ordering::Relaxed),
            lowrank_hits: self.lowrank_hits.load(Ordering::Relaxed),
            staleness_fallbacks: self.staleness_fallbacks.load(Ordering::Relaxed),
            queue_depth: queue_depth as u64,
            mean_batch_size: mean_batch,
            throughput_rps: if elapsed > 0.0 {
                completed as f64 / elapsed
            } else {
                0.0
            },
            throughput_rps_window: window_rate,
            queue_wait_us: Percentiles::from_samples(&mut queue_wait),
            batch_linger_us: Percentiles::from_samples(&mut linger),
            sim_exec_ps: Percentiles::from_samples(&mut exec),
            per_type: PerTypeBreakdown {
                decompose: self.type_snapshot(RequestType::Decompose, &samples),
                apply: self.type_snapshot(RequestType::Apply, &samples),
                update: self.type_snapshot(RequestType::Update, &samples),
            },
            per_class: PerClassBreakdown {
                interactive: self.class_snapshot(SloClass::Interactive),
                standard: self.class_snapshot(SloClass::Standard),
                batch: self.class_snapshot(SloClass::Batch),
            },
            per_shape: self.shape_snapshots(),
            plan_swaps: self.plan_swaps.load(Ordering::Relaxed),
            dse_runs: self.dse_runs.load(Ordering::Relaxed),
            // The service fills in its live plan.
            current_plan: PlanInfo::default(),
        }
    }
}

/// p50/p95/p99/max summary of one latency axis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Percentiles {
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Largest observed sample.
    pub max: u64,
}

impl Percentiles {
    /// Summarizes `samples` (sorted in place); zeros when empty.
    pub fn from_samples(samples: &mut [u64]) -> Self {
        if samples.is_empty() {
            return Percentiles {
                p50: 0,
                p95: 0,
                p99: 0,
                max: 0,
            };
        }
        samples.sort_unstable();
        // Nearest-rank percentiles: the smallest sample with at least
        // q of the distribution at or below it.
        let at = |q: f64| {
            let rank = (samples.len() as f64 * q).ceil() as usize;
            samples[rank.saturating_sub(1).min(samples.len() - 1)]
        };
        Percentiles {
            p50: at(0.50),
            p95: at(0.95),
            p99: at(0.99),
            max: *samples.last().expect("non-empty"),
        }
    }
}

/// Per-request-type slice of a [`MetricsSnapshot`]: the counters,
/// windowed rate, and latency summaries of one traffic class.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TypeSnapshot {
    /// Requests of this type admitted past the queue bound check.
    pub submitted: u64,
    /// Requests of this type completed successfully.
    pub completed_ok: u64,
    /// Requests of this type cancelled before execution. (The aggregate
    /// `cancelled` counter alone cannot attribute cancellations to the
    /// traffic they hit.)
    pub cancelled: u64,
    /// Deadline expiries of this type caught at batch formation.
    pub timed_out_at_batcher: u64,
    /// Deadline expiries of this type caught at replica-exec start.
    pub timed_out_at_exec: u64,
    /// Completions of this type per second since the previous snapshot.
    pub throughput_rps_window: f64,
    /// Queue-wait percentiles of this type (microseconds).
    pub queue_wait_us: Percentiles,
    /// Modeled execution-time percentiles of this type (picoseconds):
    /// Eq. (14) batch system time for decompose, the Eq. 8–14 apply
    /// pipeline system time for apply.
    pub sim_exec_ps: Percentiles,
}

/// Per-matrix-shape slice of a [`MetricsSnapshot`]: windowed
/// throughput, batch fill, and modeled-execution percentiles for one
/// observed (rows, cols). Apply traffic carries no matrix shape and is
/// not represented here.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ShapeSnapshot {
    /// Matrix rows of this shape class.
    pub rows: usize,
    /// Matrix columns of this shape class.
    pub cols: usize,
    /// Decompose completions of this shape.
    pub completed_decompose: u64,
    /// Apply completions attributed to this shape (zero today: apply
    /// requests are host-side matvecs with no matrix shape).
    pub completed_apply: u64,
    /// Update completions of this shape.
    pub completed_update: u64,
    /// Mean executed batch size over this shape's completions.
    pub mean_batch_fill: f64,
    /// Completions of this shape per second since the previous
    /// snapshot (each snapshot advances the window).
    pub throughput_rps_window: f64,
    /// Modeled execution-time percentiles of this shape (picoseconds).
    pub sim_exec_ps: Percentiles,
}

/// Per-SLO-class slice of a [`MetricsSnapshot`]: admission, completion,
/// and shed counters plus end-to-end wall-latency percentiles. The
/// shape-classed scheduler's acceptance gate reads the rare class's
/// `wall_us.p99` from here.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ClassSnapshot {
    /// Requests of this class admitted past the queue bound check.
    pub submitted: u64,
    /// Requests of this class completed successfully.
    pub completed_ok: u64,
    /// Requests of this class shed by the overload policy (rejected at
    /// admission or evicted from a full queue; both complete with
    /// `ServeError::Overloaded`).
    pub shed: u64,
    /// End-to-end wall-latency percentiles of this class (microseconds,
    /// submit to completion).
    pub wall_us: Percentiles,
}

/// The per-SLO-class split carried by every [`MetricsSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PerClassBreakdown {
    /// Interactive (tightest-horizon) traffic.
    pub interactive: ClassSnapshot,
    /// Standard (default) traffic.
    pub standard: ClassSnapshot,
    /// Batch (throughput-oriented, first shed) traffic.
    pub batch: ClassSnapshot,
}

/// The per-type split carried by every [`MetricsSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PerTypeBreakdown {
    /// Decompose (full factorization) traffic.
    pub decompose: TypeSnapshot,
    /// Apply (rank-r matvec) traffic.
    pub apply: TypeSnapshot,
    /// Incremental update (warm-start / low-rank / fallback) traffic.
    pub update: TypeSnapshot,
}

/// Point-in-time view of the service's counters and latency summaries.
///
/// Serializable so operators can scrape it as JSON.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MetricsSnapshot {
    /// Requests admitted past the queue bound check.
    pub submitted: u64,
    /// Submissions rejected with `QueueFull` (backpressure events).
    pub rejected_queue_full: u64,
    /// Submissions rejected for shape/validation reasons.
    pub rejected_invalid: u64,
    /// Requests completed successfully.
    pub completed_ok: u64,
    /// Requests that ended in an accelerator or replica error.
    pub failed: u64,
    /// Requests cancelled before execution.
    pub cancelled: u64,
    /// Requests shed by the overload policy across all classes (sum of
    /// the per-class `shed` counters): door refusals, which were never
    /// admitted, plus `evicted`.
    pub shed: u64,
    /// Admitted requests evicted from a full classed queue to admit a
    /// more urgent one (completed with `ServeError::Overloaded`). With
    /// the shutdown drained, `submitted == completed_ok + failed +
    /// cancelled + timed_out + evicted`.
    pub evicted: u64,
    /// Requests whose deadline elapsed before execution (both drop
    /// points combined).
    pub timed_out: u64,
    /// Deadline expiries caught at batch formation.
    pub timed_out_at_batcher: u64,
    /// Deadline expiries caught at replica-exec start (would otherwise
    /// have burned a replica slot computing a result nobody reads).
    pub timed_out_at_exec: u64,
    /// Replica panics contained by the service.
    pub worker_panics: u64,
    /// Replicas spawned over the service lifetime (initial + replacements).
    pub replicas_spawned: u64,
    /// Replicas currently alive.
    pub replicas_live: u64,
    /// Batches replicas executed.
    pub batches_dispatched: u64,
    /// Current load-shed tier: 0 = none, 1 = Batch class shed,
    /// 2 = Batch + Standard shed.
    pub shed_level: u64,
    /// Batches executed as packed waves (>= 2 co-resident tenants).
    pub packed_batches: u64,
    /// Requests served inside packed waves.
    pub packed_requests: u64,
    /// Update requests served via the warm-start route.
    pub warm_start_hits: u64,
    /// Update requests served via the host-only low-rank fast path.
    pub lowrank_hits: u64,
    /// Update requests that classified stale and fell back to a full
    /// recompute (cold starts excluded — those are cache misses).
    pub staleness_fallbacks: u64,
    /// Admission queue depth at snapshot time.
    pub queue_depth: u64,
    /// Mean executed batch size over the sample window.
    pub mean_batch_size: f64,
    /// Completed requests per wall-clock second since service start
    /// (lifetime average).
    pub throughput_rps: f64,
    /// Completed requests per second since the previous snapshot (each
    /// snapshot advances the window). Prefer this for steady-state
    /// rates: the lifetime average never recovers from warmup or idle.
    pub throughput_rps_window: f64,
    /// Queue-wait percentiles (microseconds).
    pub queue_wait_us: Percentiles,
    /// Batch-linger percentiles (microseconds).
    pub batch_linger_us: Percentiles,
    /// Simulated Eq. (14) execution-time percentiles (picoseconds).
    pub sim_exec_ps: Percentiles,
    /// The same counters split by request type, so apply traffic (orders
    /// of magnitude cheaper) does not mask decompose regressions.
    pub per_type: PerTypeBreakdown,
    /// The counters and wall-latency tails split by SLO class, so the
    /// dominant class's volume does not mask a rare class's starvation.
    pub per_class: PerClassBreakdown,
    /// Per-matrix-shape windowed series (throughput, batch fill,
    /// execution percentiles), sorted by (rows, cols).
    pub per_shape: Vec<ShapeSnapshot>,
    /// Plan swaps committed by the autoscale controller.
    pub plan_swaps: u64,
    /// DSE re-searches the controller actually ran (stationary ticks
    /// reuse the cached sweep and do not count).
    pub dse_runs: u64,
    /// The plan replicas currently execute under.
    pub current_plan: PlanInfo,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Ends `n` Standard-class requests of `rtype` in `outcome`.
    fn end_n(m: &Metrics, rtype: RequestType, outcome: Outcome, n: usize) {
        for _ in 0..n {
            m.record_outcome(rtype, SloClass::Standard, outcome);
        }
    }

    #[test]
    fn percentiles_of_known_distribution() {
        let mut xs: Vec<u64> = (1..=100).collect();
        let p = Percentiles::from_samples(&mut xs);
        assert_eq!(p.p50, 50);
        assert_eq!(p.p95, 95);
        assert_eq!(p.p99, 99);
        assert_eq!(p.max, 100);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let p = Percentiles::from_samples(&mut [42]);
        assert_eq!(
            p,
            Percentiles {
                p50: 42,
                p95: 42,
                p99: 42,
                max: 42
            }
        );
    }

    #[test]
    fn ties_resolve_to_the_tied_value() {
        // All samples equal: every percentile is that value.
        let mut xs = vec![7u64; 1000];
        let p = Percentiles::from_samples(&mut xs);
        assert_eq!((p.p50, p.p95, p.p99, p.max), (7, 7, 7, 7));
        // Heavy tie at the low end: p50 sits inside the tie, the tail
        // percentiles escape it.
        let mut xs: Vec<u64> = std::iter::repeat_n(1, 90)
            .chain(std::iter::once(100))
            .chain(std::iter::repeat_n(200, 9))
            .collect();
        let p = Percentiles::from_samples(&mut xs);
        assert_eq!(p.p50, 1);
        assert_eq!(p.p95, 200);
        assert_eq!(p.p99, 200);
        assert_eq!(p.max, 200);
    }

    #[test]
    fn large_n_nearest_rank_is_exact() {
        // 10_000 samples 1..=10_000: nearest-rank p_q is exactly
        // ceil(n*q), with no interpolation and no off-by-one.
        let mut xs: Vec<u64> = (1..=10_000).collect();
        let p = Percentiles::from_samples(&mut xs);
        assert_eq!(p.p50, 5_000);
        assert_eq!(p.p95, 9_500);
        assert_eq!(p.p99, 9_900);
        assert_eq!(p.max, 10_000);
    }

    #[test]
    fn windowed_rate_resets_per_snapshot() {
        let m = Metrics::new();
        end_n(&m, RequestType::Decompose, Outcome::Completed, 100);
        std::thread::sleep(Duration::from_millis(5));
        let first = m.snapshot(0, 0);
        assert!(first.throughput_rps > 0.0);
        assert!(first.throughput_rps_window > 0.0);
        // No completions since the first snapshot: the windowed rate
        // drops to exactly zero while the lifetime average stays stale.
        std::thread::sleep(Duration::from_millis(5));
        let second = m.snapshot(0, 0);
        assert_eq!(second.throughput_rps_window, 0.0);
        assert!(second.throughput_rps > 0.0);
        // New completions show up in the next window.
        end_n(&m, RequestType::Decompose, Outcome::Completed, 50);
        std::thread::sleep(Duration::from_millis(5));
        let third = m.snapshot(0, 0);
        assert!(third.throughput_rps_window > 0.0);
    }

    #[test]
    fn timed_out_splits_by_drop_point() {
        let m = Metrics::new();
        end_n(&m, RequestType::Decompose, Outcome::TimedOutAtBatcher, 3);
        end_n(&m, RequestType::Apply, Outcome::TimedOutAtExec, 2);
        let snap = m.snapshot(0, 0);
        assert_eq!(snap.timed_out, 5);
        assert_eq!(snap.timed_out_at_batcher, 3);
        assert_eq!(snap.timed_out_at_exec, 2);
    }

    #[test]
    fn per_type_counters_split_decompose_from_apply() {
        let m = Metrics::new();
        m.record_submitted(RequestType::Decompose, SloClass::Standard);
        m.record_submitted(RequestType::Apply, SloClass::Standard);
        m.record_submitted(RequestType::Apply, SloClass::Standard);
        end_n(&m, RequestType::Apply, Outcome::Completed, 1);
        end_n(&m, RequestType::Decompose, Outcome::TimedOutAtBatcher, 1);
        end_n(&m, RequestType::Apply, Outcome::TimedOutAtExec, 1);
        m.record_latency(
            &LatencyRecord {
                queue_wait: Duration::from_micros(10),
                batch_linger: Duration::ZERO,
                sim_exec_ps: 1_000,
                batch_size: 1,
                wall_total: Duration::from_micros(20),
                plan: PlanInfo::default(),
            },
            RequestType::Apply,
            None,
            SloClass::Standard,
        );
        std::thread::sleep(Duration::from_millis(2));
        let snap = m.snapshot(0, 0);
        // Aggregates see the union...
        assert_eq!(snap.submitted, 3);
        assert_eq!(snap.completed_ok, 1);
        assert_eq!(snap.timed_out, 2);
        // ...and the split attributes each event to its type.
        assert_eq!(snap.per_type.decompose.submitted, 1);
        assert_eq!(snap.per_type.apply.submitted, 2);
        assert_eq!(snap.per_type.apply.completed_ok, 1);
        assert_eq!(snap.per_type.decompose.completed_ok, 0);
        assert_eq!(snap.per_type.decompose.timed_out_at_batcher, 1);
        assert_eq!(snap.per_type.apply.timed_out_at_batcher, 0);
        assert_eq!(snap.per_type.apply.timed_out_at_exec, 1);
        assert_eq!(snap.per_type.apply.sim_exec_ps.p50, 1_000);
        assert_eq!(snap.per_type.decompose.sim_exec_ps.p50, 0);
        assert!(snap.per_type.apply.throughput_rps_window > 0.0);
        assert_eq!(snap.per_type.decompose.throughput_rps_window, 0.0);
    }

    #[test]
    fn update_route_counters_and_per_type_split() {
        let m = Metrics::new();
        m.record_submitted(RequestType::Update, SloClass::Standard);
        m.record_submitted(RequestType::Update, SloClass::Standard);
        end_n(&m, RequestType::Update, Outcome::Completed, 1);
        m.record_warm_start_hit();
        m.record_lowrank_hit();
        m.record_lowrank_hit();
        m.record_staleness_fallback();
        m.record_latency(
            &LatencyRecord {
                queue_wait: Duration::from_micros(5),
                batch_linger: Duration::ZERO,
                sim_exec_ps: 777,
                batch_size: 1,
                wall_total: Duration::from_micros(9),
                plan: PlanInfo::default(),
            },
            RequestType::Update,
            Some((8, 8)),
            SloClass::Standard,
        );
        let snap = m.snapshot(0, 0);
        assert_eq!(snap.warm_start_hits, 1);
        assert_eq!(snap.lowrank_hits, 2);
        assert_eq!(snap.staleness_fallbacks, 1);
        assert_eq!(snap.per_type.update.submitted, 2);
        assert_eq!(snap.per_type.update.completed_ok, 1);
        assert_eq!(snap.per_type.update.sim_exec_ps.p50, 777);
        // The update samples do not leak into the other types.
        assert_eq!(snap.per_type.decompose.sim_exec_ps.p50, 0);
        assert_eq!(snap.per_type.apply.sim_exec_ps.p50, 0);
        let json = serde_json::to_string(&snap).unwrap();
        assert!(json.contains("\"warm_start_hits\":1"));
        assert!(json.contains("\"update\""));
    }

    #[test]
    fn empty_percentiles_are_zero() {
        let p = Percentiles::from_samples(&mut []);
        assert_eq!(
            p,
            Percentiles {
                p50: 0,
                p95: 0,
                p99: 0,
                max: 0
            }
        );
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let m = Metrics::new();
        for _ in 0..3 {
            m.record_submitted(RequestType::Decompose, SloClass::Standard);
        }
        end_n(&m, RequestType::Decompose, Outcome::Completed, 2);
        m.record_latency(
            &LatencyRecord {
                queue_wait: Duration::from_micros(120),
                batch_linger: Duration::from_micros(40),
                sim_exec_ps: 5_000,
                batch_size: 2,
                wall_total: Duration::from_micros(200),
                plan: PlanInfo::default(),
            },
            RequestType::Decompose,
            Some((16, 8)),
            SloClass::Standard,
        );
        let snap = m.snapshot(1, 2);
        let json = serde_json::to_string_pretty(&snap).unwrap();
        assert!(json.contains("\"submitted\": 3"));
        assert!(json.contains("\"queue_wait_us\""));
        assert!(json.contains("\"p95\""));
        assert!(json.contains("\"per_type\""));
        assert!(json.contains("\"apply\""));
        assert!(json.contains("\"decompose\""));
    }

    #[test]
    fn sample_window_is_bounded() {
        let m = Metrics::new();
        for i in 0..(MAX_SAMPLES + 10) {
            m.record_latency(
                &LatencyRecord {
                    queue_wait: Duration::from_micros(i as u64),
                    batch_linger: Duration::ZERO,
                    sim_exec_ps: 1,
                    batch_size: 1,
                    wall_total: Duration::ZERO,
                    plan: PlanInfo::default(),
                },
                RequestType::Decompose,
                Some((4, 4)),
                SloClass::Standard,
            );
        }
        assert!(m.samples.lock().len() <= MAX_SAMPLES);
        assert!(m.of_class(SloClass::Standard).wall_samples.lock().len() <= MAX_CLASS_SAMPLES);
        let shapes = m.shapes.lock();
        assert!(shapes[&(4, 4)].exec_samples.len() <= MAX_SHAPE_SAMPLES);
        // The cumulative counters are unaffected by the sample bound.
        assert_eq!(shapes[&(4, 4)].completed[0] as usize, MAX_SAMPLES + 10);
    }

    fn record_of(exec_ps: u64, batch: usize) -> LatencyRecord {
        LatencyRecord {
            queue_wait: Duration::from_micros(1),
            batch_linger: Duration::ZERO,
            sim_exec_ps: exec_ps,
            batch_size: batch,
            wall_total: Duration::from_micros(2),
            plan: PlanInfo::default(),
        }
    }

    #[test]
    fn per_shape_series_split_and_window() {
        let m = Metrics::new();
        let std = SloClass::Standard;
        m.record_latency(
            &record_of(1_000, 4),
            RequestType::Decompose,
            Some((64, 64)),
            std,
        );
        m.record_latency(
            &record_of(2_000, 4),
            RequestType::Decompose,
            Some((64, 64)),
            std,
        );
        m.record_latency(
            &record_of(9_000, 1),
            RequestType::Update,
            Some((256, 256)),
            std,
        );
        // Shapeless apply traffic never creates a shape row.
        m.record_latency(&record_of(10, 1), RequestType::Apply, None, std);
        std::thread::sleep(Duration::from_millis(2));
        let snap = m.snapshot(0, 0);
        assert_eq!(snap.per_shape.len(), 2);
        let small = &snap.per_shape[0];
        assert_eq!((small.rows, small.cols), (64, 64));
        assert_eq!(small.completed_decompose, 2);
        assert_eq!(small.completed_update, 0);
        assert!((small.mean_batch_fill - 4.0).abs() < 1e-9);
        assert!(small.throughput_rps_window > 0.0);
        assert_eq!(small.sim_exec_ps.max, 2_000);
        let big = &snap.per_shape[1];
        assert_eq!((big.rows, big.cols), (256, 256));
        assert_eq!(big.completed_update, 1);
        assert!((big.mean_batch_fill - 1.0).abs() < 1e-9);
        // Windows advance per snapshot: a quiet second snapshot reads 0.
        std::thread::sleep(Duration::from_millis(2));
        let second = m.snapshot(0, 0);
        assert_eq!(second.per_shape[0].throughput_rps_window, 0.0);
        // The controller-facing totals stay cumulative across snapshots.
        let totals = m.shape_totals();
        assert_eq!(totals.len(), 2);
        assert_eq!(totals[0].completed[RequestType::Decompose.index()], 2);
        assert_eq!(totals[0].batch_fill_sum, 8);
        assert_eq!(totals[1].completed[RequestType::Update.index()], 1);
    }

    /// Regression test: cancellations used to bump only an aggregate
    /// counter, so a cancellation storm against one request type was
    /// invisible in the per-type breakdown. The split must attribute
    /// each cancellation to its type.
    #[test]
    fn cancellations_split_per_request_type() {
        let m = Metrics::new();
        end_n(&m, RequestType::Apply, Outcome::Cancelled, 2);
        end_n(&m, RequestType::Decompose, Outcome::Cancelled, 1);
        let snap = m.snapshot(0, 0);
        assert_eq!(snap.cancelled, 3);
        assert_eq!(snap.per_type.apply.cancelled, 2);
        assert_eq!(snap.per_type.decompose.cancelled, 1);
        assert_eq!(snap.per_type.update.cancelled, 0);
        let json = serde_json::to_string(&snap).unwrap();
        assert!(json.contains("\"cancelled\""));
    }

    #[test]
    fn per_class_counters_and_wall_tails_split_by_slo_class() {
        let m = Metrics::new();
        m.record_submitted(RequestType::Decompose, SloClass::Interactive);
        m.record_submitted(RequestType::Decompose, SloClass::Batch);
        m.record_submitted(RequestType::Decompose, SloClass::Batch);
        m.record_outcome(
            RequestType::Decompose,
            SloClass::Interactive,
            Outcome::Completed,
        );
        // One door refusal and one eviction: both are shed, only the
        // eviction was admitted.
        m.record_shed(SloClass::Batch);
        m.record_outcome(RequestType::Decompose, SloClass::Batch, Outcome::Evicted);
        let mut rec = record_of(100, 1);
        rec.wall_total = Duration::from_micros(250);
        m.record_latency(&rec, RequestType::Decompose, None, SloClass::Interactive);
        let snap = m.snapshot(0, 0);
        assert_eq!(snap.per_class.interactive.submitted, 1);
        assert_eq!(snap.per_class.interactive.completed_ok, 1);
        assert_eq!(snap.per_class.interactive.wall_us.p99, 250);
        assert_eq!(snap.per_class.batch.submitted, 2);
        assert_eq!(snap.per_class.batch.shed, 2);
        assert_eq!(snap.per_class.batch.wall_us.p99, 0);
        assert_eq!(snap.per_class.standard.submitted, 0);
        assert_eq!(snap.shed, 2);
        assert_eq!(snap.evicted, 1);
        let json = serde_json::to_string(&snap).unwrap();
        assert!(json.contains("\"per_class\""));
        assert!(json.contains("\"interactive\""));
        assert!(json.contains("\"wall_us\""));
    }

    #[test]
    fn plan_counters_surface_in_snapshot() {
        let m = Metrics::new();
        m.record_dse_run();
        m.record_dse_run();
        m.record_plan_swap();
        let snap = m.snapshot(0, 0);
        assert_eq!(snap.plan_swaps, 1);
        assert_eq!(snap.dse_runs, 2);
        let json = serde_json::to_string(&snap).unwrap();
        assert!(json.contains("\"plan_swaps\":1"));
        assert!(json.contains(
            "\"current_plan\":{\"engine_parallelism\":0,\"task_parallelism\":0,\"generation\":0}"
        ));
        assert!(json.contains("\"per_shape\""));
    }
}
