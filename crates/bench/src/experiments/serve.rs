//! Serving-path benchmark: requests/sec through the batch data path.
//!
//! The **optimized** variant pushes a request stream (256×256
//! timing-only requests, fixed 6 iterations) through the real
//! [`heterosvd_serve::SvdService`]: f32 cast once at admission,
//! matrices *moved* into the accelerator, batches run on the persistent
//! [`heterosvd::BatchPool`], and per-plan timing replay on (the
//! default).
//!
//! Reported: completed requests, wall seconds, requests/sec, and
//! p50/p99 request wall latency in microseconds.

use crate::workload::{self, TraceEvent};
use heterosvd::{Accelerator, FidelityMode, HeteroSvdError};
use heterosvd_serve::{Percentiles, ServeConfig, SloClass, SubmitOptions, SvdService};
use std::time::{Duration, Instant};
use svd_kernels::Matrix;

/// One measured variant of the serving path.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ServeRow {
    /// Variant name: `optimized`, the one measured variant (CI keys its
    /// checks on it).
    pub variant: String,
    /// Requests pushed through the variant.
    pub requests: usize,
    /// Requests that completed successfully.
    pub completed: usize,
    /// Wall-clock seconds from first submission to last completion.
    pub wall_secs: f64,
    /// Completed requests per wall-clock second.
    pub requests_per_sec: f64,
    /// Median request wall latency (admission → completion), µs.
    pub p50_wall_us: u64,
    /// 99th-percentile request wall latency, µs.
    pub p99_wall_us: u64,
    /// The service's windowed throughput over exactly the measured
    /// serving interval (completions per second between the snapshot
    /// taken at submission start and the one taken after the last
    /// completion). Unlike `requests_per_sec`, this excludes the
    /// service's own startup from the denominator.
    pub requests_per_sec_window: f64,
    /// Windowed decompose-class rate over the same interval (the
    /// service tracks per-type windows; surfacing them here keeps
    /// packed-vs-sequential runs comparable per request class).
    pub decompose_rps_window: f64,
    /// Windowed apply-class rate over the same interval. Zero for this
    /// decompose-only workload, emitted for schema stability.
    pub apply_rps_window: f64,
    /// Batches the service executed as packed multi-tenant waves.
    pub packed_batches: u64,
    /// Requests served inside packed waves.
    pub packed_requests: u64,
}

/// The complete serving report (serialized to `BENCH_serve.json`).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ServeReport {
    /// Matrix dimension of the workload (n×n).
    pub n: usize,
    /// Engine parallelism `P_eng` of every accelerator.
    pub p_eng: usize,
    /// Task parallelism `P_task` (Eq. 14 divisor).
    pub p_task: usize,
    /// Largest batch the service forms.
    pub max_batch: usize,
    /// Fixed iteration count per request.
    pub iterations: usize,
    /// One row per variant.
    pub results: Vec<ServeRow>,
    /// The shape-classed scheduler A/B on the 95:5 multi-shape bursty
    /// trace. `None` when the multishape experiment was not run.
    pub multishape: Option<MultiShapeReport>,
}

/// One scheduler variant (`fifo` or `classed`) of the multi-shape run.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct MultiShapeRow {
    /// `fifo` (shape-blind) or `classed` (EDF shape-classed).
    pub scheduler: String,
    /// Dominant-shape requests completed.
    pub dominant_completed: usize,
    /// Rare-shape requests completed.
    pub rare_completed: usize,
    /// p99 end-to-end wall latency of the dominant shape, µs.
    pub dominant_p99_wall_us: u64,
    /// p99 end-to-end wall latency of the rare shape, µs.
    pub rare_p99_wall_us: u64,
    /// Dominant-shape completions per wall second over the replay.
    pub dominant_rps: f64,
    /// Interactive-class p99 wall latency from the service's own
    /// per-class metrics (classes are stamped and recorded in both
    /// modes; only the *scheduler* is class-blind under FIFO).
    pub interactive_p99_wall_us: u64,
    /// Batch-class p99 wall latency from the per-class metrics.
    pub batch_p99_wall_us: u64,
    /// Requests shed or evicted by the overload policy.
    pub shed: u64,
}

/// A/B report of the shape-classed scheduler on the seeded 95:5
/// two-shape bursty trace (dominant Batch-class small matrices, rare
/// Interactive-class larger ones), replayed identically through both
/// schedulers.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct MultiShapeReport {
    /// Trace seed (both variants replay the identical stream).
    pub seed: u64,
    /// Quick mode (shorter trace, relaxed gates).
    pub quick: bool,
    /// Dominant request shape as `rows x cols`.
    pub dominant_shape: String,
    /// Rare request shape as `rows x cols`.
    pub rare_shape: String,
    /// Events in the trace.
    pub events: usize,
    /// One row per scheduler variant.
    pub rows: Vec<MultiShapeRow>,
    /// `fifo.rare_p99_wall_us / classed.rare_p99_wall_us` — how much
    /// the classed scheduler improves the rare class's tail.
    pub rare_p99_improvement: f64,
    /// `classed.dominant_rps / fifo.dominant_rps` — the throughput the
    /// dominant shape gives up for that tail.
    pub dominant_throughput_ratio: f64,
    /// Every sampled factorization matched a solo accelerator run
    /// bitwise, under both schedulers.
    pub factors_bit_identical: bool,
    /// Acceptance-gate violations (empty = all gates pass): rare-class
    /// tail improvement, dominant-throughput retention, bit-identity.
    pub gate_violations: Vec<String>,
}

fn request_matrix(n: usize, seed: usize) -> Matrix<f64> {
    Matrix::from_fn(n, n, |r, c| {
        ((r * 31 + c * 17 + seed * 7 + 3) % 13) as f64 / 3.0 - 2.0 + if r == c { 2.0 } else { 0.0 }
    })
}

/// The current serving stack end to end.
fn run_optimized(
    n: usize,
    p_eng: usize,
    p_task: usize,
    max_batch: usize,
    iterations: usize,
    requests: usize,
) -> Result<ServeRow, heterosvd_serve::ServeError> {
    let service = SvdService::start(ServeConfig {
        workers: 2,
        queue_capacity: requests.max(1),
        max_batch,
        max_linger: Duration::from_micros(200),
        engine_parallelism: p_eng,
        task_parallelism: p_task,
        fidelity: FidelityMode::TimingOnly,
        fixed_iterations: Some(iterations),
        ..ServeConfig::default()
    })?;
    let mut wall_us: Vec<u64> = Vec::with_capacity(requests);
    let mut completed = 0usize;
    // Snapshot once to pin the throughput window to the start of the
    // measured interval; the post-run snapshot then reports completions
    // per second over exactly the serving span, startup excluded.
    let _ = service.metrics();
    let start = Instant::now();
    let handles: Vec<_> = (0..requests)
        .map(|i| service.try_submit(request_matrix(n, i)))
        .collect::<Result<_, _>>()?;
    for handle in handles {
        let response = handle.wait()?;
        completed += 1;
        wall_us.push(response.latency.wall_total.as_micros() as u64);
    }
    let secs = start.elapsed().as_secs_f64();
    let snapshot = service.metrics();
    service.shutdown();
    let pct = Percentiles::from_samples(&mut wall_us);
    Ok(ServeRow {
        variant: "optimized".to_string(),
        requests,
        completed,
        wall_secs: secs,
        requests_per_sec: if secs > 0.0 {
            completed as f64 / secs
        } else {
            0.0
        },
        p50_wall_us: pct.p50,
        p99_wall_us: pct.p99,
        requests_per_sec_window: snapshot.throughput_rps_window,
        decompose_rps_window: snapshot.per_type.decompose.throughput_rps_window,
        apply_rps_window: snapshot.per_type.apply.throughput_rps_window,
        packed_batches: snapshot.packed_batches,
        packed_requests: snapshot.packed_requests,
    })
}

/// Measures the serving stack on an `n×n` timing-only workload and
/// returns the report.
///
/// # Errors
///
/// Service errors, reported as [`HeteroSvdError::InvalidConfig`].
pub fn run(
    n: usize,
    p_eng: usize,
    p_task: usize,
    max_batch: usize,
    iterations: usize,
    requests: usize,
) -> Result<ServeReport, HeteroSvdError> {
    assert!(requests > 0, "need at least one request");
    let optimized = run_optimized(n, p_eng, p_task, max_batch, iterations, requests)
        .map_err(|e| HeteroSvdError::InvalidConfig(format!("serving variant failed: {e}")))?;
    Ok(ServeReport {
        n,
        p_eng,
        p_task,
        max_batch,
        iterations,
        results: vec![optimized],
        multishape: None,
    })
}

/// Shape of the dominant (Batch-class) request stream.
const MULTISHAPE_DOMINANT: (usize, usize) = (32, 32);
/// Shape of the rare (Interactive-class) request stream.
const MULTISHAPE_RARE: (usize, usize) = (64, 64);

/// Replays the given trace through one scheduler variant and measures
/// per-shape tails, dominant throughput, and bit-identity of a sample
/// of served factors against a solo accelerator (every rare request
/// plus every 10th dominant one).
fn run_multishape_variant(
    classed: bool,
    trace: &[TraceEvent],
) -> Result<(MultiShapeRow, bool), HeteroSvdError> {
    let config = ServeConfig {
        workers: 1,
        // Roomy enough that nothing is rejected or EDF-evicted: the A/B
        // isolates *ordering*, so both variants must complete the whole
        // trace (and serve the same factor set).
        queue_capacity: trace.len().max(1),
        max_batch: 4,
        max_linger: Duration::from_millis(2),
        fixed_iterations: Some(4),
        shape_classed: classed,
        ..ServeConfig::default()
    };
    // Solo references, one per shape, pinned at the service's own plan:
    // packing and scheduling must never touch the math.
    let reference_of = |shape: (usize, usize)| -> Result<Accelerator, HeteroSvdError> {
        Accelerator::new(config.accelerator_config(shape)?)
    };
    let dominant_ref = reference_of(MULTISHAPE_DOMINANT)?;
    let rare_ref = reference_of(MULTISHAPE_RARE)?;

    let service = SvdService::start(config)
        .map_err(|e| HeteroSvdError::InvalidConfig(format!("multishape service: {e}")))?;
    let start = Instant::now();
    let mut pending = Vec::with_capacity(trace.len());
    let mut dominant_seen = 0usize;
    for event in trace {
        let due = start + Duration::from_secs_f64(event.at_ms / 1000.0);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let rare = event.shape == MULTISHAPE_RARE;
        let class = if rare {
            SloClass::Interactive
        } else {
            SloClass::Batch
        };
        // Sample for the bit-identity check: all rare + every 10th
        // dominant (solo reference runs are the expensive part).
        let sampled = rare || {
            dominant_seen += 1;
            dominant_seen % 10 == 1
        };
        let matrix = workload::random_matrix(event.shape.0, event.shape.1, event.seed);
        let sample = sampled.then(|| matrix.clone());
        let handle = service
            .try_submit_with(
                matrix,
                SubmitOptions {
                    class,
                    ..SubmitOptions::default()
                },
            )
            .map_err(|e| HeteroSvdError::InvalidConfig(format!("multishape submit: {e}")))?;
        pending.push((event.shape, sample, handle));
    }

    let mut dominant_wall_us = Vec::new();
    let mut rare_wall_us = Vec::new();
    let mut bit_identical = true;
    for (shape, sample, handle) in pending {
        let response = handle
            .wait()
            .map_err(|e| HeteroSvdError::InvalidConfig(format!("multishape wait: {e}")))?;
        let wall = response.latency.wall_total.as_micros() as u64;
        if shape == MULTISHAPE_RARE {
            rare_wall_us.push(wall);
        } else {
            dominant_wall_us.push(wall);
        }
        if let Some(matrix) = sample {
            let reference = if shape == MULTISHAPE_RARE {
                &rare_ref
            } else {
                &dominant_ref
            };
            let expected = reference.run(&matrix)?;
            let got = &response.output.result;
            let want = &expected.result;
            let same_sigma = got
                .sigma
                .iter()
                .map(|x| x.to_bits())
                .eq(want.sigma.iter().map(|x| x.to_bits()));
            if !same_sigma || got.u.as_slice() != want.u.as_slice() {
                bit_identical = false;
            }
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let snapshot = service.metrics();
    service.shutdown();

    let dominant_completed = dominant_wall_us.len();
    let rare_completed = rare_wall_us.len();
    let row = MultiShapeRow {
        scheduler: if classed { "classed" } else { "fifo" }.to_string(),
        dominant_completed,
        rare_completed,
        dominant_p99_wall_us: Percentiles::from_samples(&mut dominant_wall_us).p99,
        rare_p99_wall_us: Percentiles::from_samples(&mut rare_wall_us).p99,
        dominant_rps: if wall > 0.0 {
            dominant_completed as f64 / wall
        } else {
            0.0
        },
        interactive_p99_wall_us: snapshot.per_class.interactive.wall_us.p99,
        batch_p99_wall_us: snapshot.per_class.batch.wall_us.p99,
        shed: snapshot.shed,
    };
    Ok((row, bit_identical))
}

/// Runs the shape-classed-scheduler A/B on the seeded 95:5 two-shape
/// bursty trace: the identical open-loop stream through a shape-blind
/// FIFO service and through the EDF shape-classed one, gating on the
/// rare class's tail improvement, the dominant class's retained
/// throughput, and bit-identity of the served factors.
///
/// # Errors
///
/// Accelerator or service errors from either variant.
pub fn run_multishape(quick: bool, seed: u64) -> Result<MultiShapeReport, HeteroSvdError> {
    let trace = workload::multishape_trace(quick, seed);
    let (fifo, fifo_ok) = run_multishape_variant(false, &trace)?;
    let (classed, classed_ok) = run_multishape_variant(true, &trace)?;
    let factors_bit_identical = fifo_ok && classed_ok;

    let rare_p99_improvement = if classed.rare_p99_wall_us > 0 {
        fifo.rare_p99_wall_us as f64 / classed.rare_p99_wall_us as f64
    } else {
        f64::INFINITY
    };
    let dominant_throughput_ratio = if fifo.dominant_rps > 0.0 {
        classed.dominant_rps / fifo.dominant_rps
    } else {
        f64::NAN
    };

    // Quick mode (CI smoke) relaxes the gates: short traces make the
    // tail ratio noisier and the throughput denominator smaller.
    let (min_improvement, min_throughput) = if quick { (1.5, 0.90) } else { (2.0, 0.95) };
    let mut gate_violations = Vec::new();
    // `is_nan ||` (not a negated `>=`): a NaN ratio must gate too.
    if rare_p99_improvement.is_nan() || rare_p99_improvement < min_improvement {
        gate_violations.push(format!(
            "rare-class p99 improvement {rare_p99_improvement:.2}x < required {min_improvement:.2}x"
        ));
    }
    if dominant_throughput_ratio.is_nan() || dominant_throughput_ratio < min_throughput {
        gate_violations.push(format!(
            "dominant throughput ratio {dominant_throughput_ratio:.3} < required {min_throughput:.2}"
        ));
    }
    if !factors_bit_identical {
        gate_violations.push("served factors diverged from the solo accelerator".to_string());
    }

    Ok(MultiShapeReport {
        seed,
        quick,
        dominant_shape: format!("{}x{}", MULTISHAPE_DOMINANT.0, MULTISHAPE_DOMINANT.1),
        rare_shape: format!("{}x{}", MULTISHAPE_RARE.0, MULTISHAPE_RARE.1),
        events: trace.len(),
        rows: vec![fifo, classed],
        rare_p99_improvement,
        dominant_throughput_ratio,
        factors_bit_identical,
        gate_violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The service completes every request on a small workload and the
    /// report is internally consistent.
    #[test]
    fn small_workload_report_is_consistent() {
        let report = run(32, 2, 2, 4, 3, 8).unwrap();
        assert_eq!(report.results.len(), 1);
        let r = &report.results[0];
        assert_eq!(r.variant, "optimized");
        assert_eq!(r.completed, 8, "dropped requests");
        assert!(r.requests_per_sec > 0.0, "zero throughput");
        assert!(r.p99_wall_us >= r.p50_wall_us);
        assert!(
            r.requests_per_sec_window > 0.0,
            "windowed rate should cover the serving span"
        );
        assert!(
            r.decompose_rps_window > 0.0,
            "decompose-class rate should be nonzero"
        );
        assert_eq!(r.apply_rps_window, 0.0, "no apply traffic here");
        assert!(r.packed_requests >= r.packed_batches);
    }

    /// The multi-shape A/B completes the identical trace under both
    /// schedulers, serves bit-identical factors, and never trails FIFO
    /// on the rare class's tail. (The full ≥2x-improvement gate is
    /// enforced by `repro -- serve`, where the trace is long enough to
    /// be stable; here we pin the invariants that must never flake.)
    #[test]
    fn multishape_ab_is_consistent_and_bit_identical() {
        let report = run_multishape(true, 42).unwrap();
        assert_eq!(report.rows.len(), 2);
        assert_eq!(report.rows[0].scheduler, "fifo");
        assert_eq!(report.rows[1].scheduler, "classed");
        for row in &report.rows {
            assert!(
                row.rare_completed >= 4,
                "{}: rare starved out",
                row.scheduler
            );
            assert!(
                row.dominant_completed >= row.rare_completed * 10,
                "{}: mix collapsed",
                row.scheduler
            );
            assert_eq!(
                row.shed, 0,
                "{}: nothing should shed at this depth",
                row.scheduler
            );
        }
        assert_eq!(
            report.rows[0].dominant_completed, report.rows[1].dominant_completed,
            "both variants must complete the identical trace"
        );
        assert_eq!(report.rows[0].rare_completed, report.rows[1].rare_completed);
        assert!(report.factors_bit_identical, "scheduling touched the math");
        assert!(
            report.rare_p99_improvement >= 1.0,
            "classed scheduler made the rare tail worse: {:.2}x",
            report.rare_p99_improvement
        );
        assert!(report.dominant_throughput_ratio.is_finite());
        // Schema stability: the report roundtrips through JSON with the
        // per-class fields the CI smoke checks for.
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("rare_p99_improvement"));
        assert!(json.contains("interactive_p99_wall_us"));
        let back: MultiShapeReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.events, report.events);
    }
}
