//! Incremental-SVD serving benchmark (serialized to
//! `BENCH_update.json`): the warm-start / low-rank update path against
//! full recompute on an update-heavy per-client trace.
//!
//! The trace models the production pattern the incremental path exists
//! for: each client owns a slowly-drifting low-rank matrix and
//! re-submits it after small perturbations. Per client the stream is
//!
//! 1. a cold start (the baseline full solve that seeds the cache),
//! 2. rank-1 row/column bumps (the `LowRank` fast path — host-only
//!    Brand updates of the cached truncated factors, zero modeled
//!    accelerator time),
//! 3. one dense-ish drift whose delta rank exceeds the low-rank budget
//!    but stays inside the staleness bound (the `WarmStart` route: a
//!    Jacobi solve seeded from the cached right basis),
//! 4. one shock whose relative delta trips `max_delta_rel` (the
//!    staleness fallback — a full recompute, by contract bit-identical
//!    to the same matrix through an `incremental = off` service),
//! 5. an identical resubmission (the `LowRank {rank: 0}` route served
//!    straight from the cache).
//!
//! The identical trace runs through two services: **incremental** (the
//! update path, `try_submit_update`) and **full** (`incremental` off,
//! every request a cold `try_submit` decompose). Both run the same
//! functional fidelity, worker count, and submission order, so the
//! wall-clock ratio is the end-to-end speedup of the update path.
//! Exactness rides along: served spectra are compared against the `f64`
//! golden model, and every full-recompute route (cold start or
//! staleness fallback) must be bit-identical to the `incremental = off`
//! service's answer for the same matrix.

use heterosvd::HeteroSvdError;
use heterosvd_serve::{
    ClientId, FallbackReason, ServeConfig, SvdService, UpdateResponse, UpdateRoute,
};
use rand::distributions::{Distribution, StandardNormal};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};
use svd_kernels::{hestenes_jacobi, JacobiOptions, Matrix};

/// Engine parallelism of both measured services (cols must be a
/// multiple of `2 · P_eng`, so every power-of-two size ≥ 64 is legal).
pub const P_ENG: usize = 4;
/// Effective rank of each client's base matrix: a decaying spectrum
/// with this many significant components.
pub const EFF_RANK: usize = 6;
/// Truncation rank of the cached factors. Sized so the whole trace's
/// rank growth (base + bump directions + drift + shock) stays inside
/// it and the low-rank path never discards signal.
pub const CACHE_RANK: usize = 24;
/// Delta-rank budget of the low-rank fast path: rank-1 bumps qualify,
/// the rank-`DRIFT_RANK` drift does not (it warm-starts instead).
pub const MAX_UPDATE_RANK: usize = 2;
/// Rank of the mid-trace drift perturbation.
const DRIFT_RANK: usize = 4;
/// Largest spectrum component of every base matrix.
const SIGMA0: f64 = 32.0;
/// The trace's sv-error gate vs the `f64` golden model.
pub const SV_ERROR_GATE: f64 = 1e-5;
/// The end-to-end speedup gate at `n ≥ min_gate_n`.
pub const SPEEDUP_GATE: f64 = 5.0;

/// What one request of the per-client stream does to the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// First request: the base matrix itself (cold start).
    Base,
    /// Rank-1 row or column perturbation (low-rank fast path).
    Bump,
    /// Rank-[`DRIFT_RANK`] drift inside the staleness bound (warm start).
    Drift,
    /// Large low-rank shock past `max_delta_rel` (staleness fallback).
    Shock,
    /// Identical resubmission (rank-0 low-rank route).
    Resubmit,
}

/// The request schedule: drift at 2/5 of the stream, shock at 7/10,
/// an identical resubmission right after the shock, bumps elsewhere.
fn kind(i: usize, requests: usize) -> Kind {
    assert!(requests >= 8, "the trace needs at least 8 requests");
    if i == 0 {
        Kind::Base
    } else if i == requests * 2 / 5 {
        Kind::Drift
    } else if i == requests * 7 / 10 {
        Kind::Shock
    } else if i == requests * 7 / 10 + 1 {
        Kind::Resubmit
    } else {
        Kind::Bump
    }
}

fn gauss(rng: &mut StdRng, len: usize) -> Vec<f64> {
    (0..len).map(|_| StandardNormal.sample(rng)).collect()
}

fn unit(mut v: Vec<f64>) -> Vec<f64> {
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-300);
    for x in &mut v {
        *x /= norm;
    }
    v
}

/// `a += s · u·vᵀ`.
fn outer_add(a: &mut Matrix<f64>, s: f64, u: &[f64], v: &[f64]) {
    for (r, &ur) in u.iter().enumerate() {
        for (c, &vc) in v.iter().enumerate() {
            a[(r, c)] += s * ur * vc;
        }
    }
}

/// A rank-`EFF_RANK` base matrix with spectrum `SIGMA0 · 0.6^i`.
fn base_matrix(rng: &mut StdRng, n: usize) -> Matrix<f64> {
    let mut a = Matrix::zeros(n, n);
    for i in 0..EFF_RANK {
        let u = unit(gauss(rng, n));
        let v = unit(gauss(rng, n));
        outer_add(&mut a, SIGMA0 * 0.6f64.powi(i as i32), &u, &v);
    }
    a
}

/// Adds a rank-`rank` perturbation scaled to `ratio · ‖A‖_F`.
fn add_scaled_noise(rng: &mut StdRng, a: &mut Matrix<f64>, rank: usize, ratio: f64) {
    let n = a.rows();
    let mut delta = Matrix::zeros(n, n);
    for _ in 0..rank {
        let u = unit(gauss(rng, n));
        let v = unit(gauss(rng, n));
        outer_add(&mut delta, 1.0, &u, &v);
    }
    let scale = ratio * a.frobenius_norm() / delta.frobenius_norm().max(1e-300);
    for r in 0..n {
        for c in 0..n {
            a[(r, c)] += scale * delta[(r, c)];
        }
    }
}

/// One client's request stream: the matrix each request submits.
///
/// Bumps cycle over three fixed row/column targets so repeated bumps
/// revisit the same directions and the trace's total rank stays within
/// [`CACHE_RANK`].
fn client_trace(n: usize, client: u64, requests: usize) -> Vec<Matrix<f64>> {
    let mut rng = StdRng::seed_from_u64(0x0DD5_EED0 ^ (client.wrapping_mul(7919)));
    let mut a = base_matrix(&mut rng, n);
    let mut bumps = 0usize;
    (0..requests)
        .map(|i| {
            match kind(i, requests) {
                Kind::Base | Kind::Resubmit => {}
                Kind::Bump => {
                    // Rank-1 perturbation of one column (even bumps) or
                    // one row (odd bumps), ~3% of ‖A‖_F.
                    let j = bumps / 2 % 3;
                    let g = unit(gauss(&mut rng, n));
                    let s = 0.03 * a.frobenius_norm();
                    if bumps.is_multiple_of(2) {
                        for r in 0..n {
                            a[(r, j)] += s * g[r];
                        }
                    } else {
                        for c in 0..n {
                            a[(j, c)] += s * g[c];
                        }
                    }
                    bumps += 1;
                }
                Kind::Drift => add_scaled_noise(&mut rng, &mut a, DRIFT_RANK, 0.08),
                Kind::Shock => add_scaled_noise(&mut rng, &mut a, 2, 0.5),
            }
            a.clone()
        })
        .collect()
}

fn service_config(n: usize, incremental: bool) -> ServeConfig {
    ServeConfig {
        workers: 1,
        queue_capacity: 64,
        max_batch: 1,
        max_linger: Duration::from_micros(20),
        engine_parallelism: P_ENG,
        incremental,
        update_cache_rank: CACHE_RANK.min(n),
        max_update_rank: MAX_UPDATE_RANK,
        // The trace is long and bump-heavy by design; the warm-solve
        // budget is not the behavior under test (the serve suite covers
        // WarmBudgetExhausted), so keep it out of the way.
        max_warm_solves: 64,
        ..ServeConfig::default()
    }
}

/// One matrix-size point of the incremental-vs-full comparison.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct UpdateRow {
    /// Matrix dimension of the workload (n×n).
    pub n: usize,
    /// Clients in the trace.
    pub clients: usize,
    /// Total requests pushed through each service.
    pub requests: usize,
    /// Wall-clock seconds for the trace through the incremental service.
    pub incremental_wall_secs: f64,
    /// Wall-clock seconds for the same trace as full recomputes.
    pub full_wall_secs: f64,
    /// `full_wall_secs / incremental_wall_secs`.
    pub speedup: f64,
    /// Summed modeled accelerator time of the incremental run, ms
    /// (low-rank routes charge zero — they never touch the array).
    pub incremental_modeled_ms: f64,
    /// Summed modeled accelerator time of the full-recompute run, ms.
    pub full_modeled_ms: f64,
    /// Warm-started solves (service counter).
    pub warm_start_hits: u64,
    /// Low-rank fast-path hits, including rank-0 resubmissions.
    pub lowrank_hits: u64,
    /// Classification-driven full recomputes (the shock requests).
    pub staleness_fallbacks: u64,
    /// Cache-miss full solves (one per client).
    pub cold_starts: u64,
    /// Mean Jacobi sweeps of the warm-started solves.
    pub mean_warm_sweeps: f64,
    /// Max relative sv error vs the `f64` golden model over the checked
    /// requests (normalized by the golden `σ_max`).
    pub max_sv_rel_error: f64,
    /// Requests actually compared against a golden solve (all of them
    /// at n ≤ 128; a per-client sample of routes above that).
    pub golden_checked: usize,
    /// Whether every full-recompute route served a spectrum
    /// bit-identical to the `incremental = off` service's.
    pub fallback_bit_identical: bool,
    /// Factor-cache resident bytes after the trace.
    pub cache_resident_bytes: u64,
    /// Factor-cache windowed hit rate over the trace.
    pub cache_hit_rate_window: f64,
}

/// The complete report (serialized to `BENCH_update.json`).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct UpdateReport {
    /// Clients per measured size.
    pub clients: usize,
    /// Requests per client.
    pub requests_per_client: usize,
    /// Truncation rank of the cached factors.
    pub update_cache_rank: usize,
    /// Delta-rank budget of the low-rank path.
    pub max_update_rank: usize,
    /// One row per measured matrix size.
    pub rows: Vec<UpdateRow>,
}

fn sorted_desc(sigma: &[f32]) -> Vec<f32> {
    let mut s = sigma.to_vec();
    s.sort_by(|a, b| b.total_cmp(a));
    s
}

/// Max `|σ_served − σ_golden| / σ_golden_max`. The served spectrum may
/// be truncated (the low-rank routes serve the cached rank); missing
/// tail entries compare against the golden tail as zeros, so a
/// truncation that discards real signal shows up as error.
fn sv_rel_error(golden_desc: &[f64], served: &[f32]) -> f64 {
    let scale = golden_desc.first().copied().unwrap_or(0.0).max(1e-300);
    let mut s: Vec<f64> = served.iter().map(|&x| f64::from(x)).collect();
    s.sort_by(|a, b| b.total_cmp(a));
    s.resize(golden_desc.len(), 0.0);
    golden_desc
        .iter()
        .zip(&s)
        .map(|(g, m)| (g - m).abs() / scale)
        .fold(0.0, f64::max)
}

/// Measures one size point: the same round-robin trace through the
/// incremental service and the full-recompute service.
fn run_size(n: usize, clients: usize, requests_per_client: usize) -> Result<UpdateRow, String> {
    let traces: Vec<Vec<Matrix<f64>>> = (0..clients)
        .map(|c| client_trace(n, c as u64, requests_per_client))
        .collect();

    // --- Incremental service: classify-and-route updates.
    let service = SvdService::start(service_config(n, true)).map_err(|e| e.to_string())?;
    let mut responses: Vec<UpdateResponse> = Vec::with_capacity(clients * requests_per_client);
    let start = Instant::now();
    for i in 0..requests_per_client {
        for (c, trace) in traces.iter().enumerate() {
            // Per-client requests are strictly sequential (each refresh
            // of the cache entry classifies the next update); clients
            // interleave round-robin, as concurrent tenants would.
            let response = service
                .try_submit_update(ClientId(c as u64), trace[i].clone())
                .and_then(|h| h.wait())
                .map_err(|e| format!("update n={n} client={c} request={i}: {e}"))?;
            responses.push(response);
        }
    }
    let incremental_wall = start.elapsed();
    let metrics = service.metrics();
    let cache = service.factor_cache().stats();
    service.shutdown();

    // --- Full-recompute service: the identical trace, incremental off.
    let service = SvdService::start(service_config(n, false)).map_err(|e| e.to_string())?;
    let mut full_sigma: Vec<Vec<f32>> = Vec::with_capacity(responses.len());
    let mut full_modeled_ps = 0u64;
    let start = Instant::now();
    for i in 0..requests_per_client {
        for (c, trace) in traces.iter().enumerate() {
            let response = service
                .try_submit(trace[i].clone())
                .and_then(|h| h.wait())
                .map_err(|e| format!("full n={n} client={c} request={i}: {e}"))?;
            full_modeled_ps += response.latency.sim_exec_ps;
            full_sigma.push(sorted_desc(&response.output.result.sigma));
        }
    }
    let full_wall = start.elapsed();
    service.shutdown();

    // --- Exactness: every full-recompute route (cold start and
    // staleness fallback) must be bit-identical to the off-service.
    let mut fallback_bit_identical = true;
    let mut full_routes = 0usize;
    for (response, full) in responses.iter().zip(&full_sigma) {
        if matches!(response.route, UpdateRoute::Full(_)) {
            full_routes += 1;
            if response.sigma != *full {
                fallback_bit_identical = false;
            }
        }
    }
    if full_routes == 0 {
        fallback_bit_identical = false; // nothing proved — fail the gate
    }

    // --- Accuracy vs the f64 golden model. Every request is checked at
    // small n; above that, a per-client sample covering each route
    // class (the warm start, the fallback, the post-fallback cache
    // serve, and the stream tail) keeps golden cost bounded.
    let drift_at = requests_per_client * 2 / 5;
    let shock_at = requests_per_client * 7 / 10;
    let checked_requests: Vec<usize> = (0..requests_per_client)
        .filter(|&i| {
            n <= 128 || [drift_at, shock_at, shock_at + 1, requests_per_client - 1].contains(&i)
        })
        .collect();
    let mut max_sv_rel_error = 0.0f64;
    let mut golden_checked = 0usize;
    for &i in &checked_requests {
        for (c, trace) in traces.iter().enumerate() {
            let golden = hestenes_jacobi(&trace[i], &JacobiOptions::default())
                .map_err(|e| format!("golden n={n} client={c} request={i}: {e}"))?;
            let golden_desc: Vec<f64> = golden.sorted_singular_values();
            let response = &responses[i * clients + c];
            let err = sv_rel_error(&golden_desc, &response.sigma);
            max_sv_rel_error = max_sv_rel_error.max(err);
            golden_checked += 1;
        }
    }

    // --- Route accounting from the responses themselves (the service
    // counters corroborate via the metrics snapshot).
    let cold_starts = responses
        .iter()
        .filter(|r| r.route == UpdateRoute::Full(FallbackReason::ColdStart))
        .count() as u64;
    let warm_sweeps: Vec<usize> = responses
        .iter()
        .filter_map(|r| r.warm_start.map(|w| w.warm_iterations))
        .collect();
    let mean_warm_sweeps = if warm_sweeps.is_empty() {
        0.0
    } else {
        warm_sweeps.iter().sum::<usize>() as f64 / warm_sweeps.len() as f64
    };
    let incremental_modeled_ps: u64 = responses.iter().map(|r| r.latency.sim_exec_ps).sum();

    let incremental_wall_secs = incremental_wall.as_secs_f64();
    let full_wall_secs = full_wall.as_secs_f64();
    Ok(UpdateRow {
        n,
        clients,
        requests: clients * requests_per_client,
        incremental_wall_secs,
        full_wall_secs,
        speedup: if incremental_wall_secs > 0.0 {
            full_wall_secs / incremental_wall_secs
        } else {
            f64::NAN
        },
        incremental_modeled_ms: incremental_modeled_ps as f64 / 1e9,
        full_modeled_ms: full_modeled_ps as f64 / 1e9,
        warm_start_hits: metrics.warm_start_hits,
        lowrank_hits: metrics.lowrank_hits,
        staleness_fallbacks: metrics.staleness_fallbacks,
        cold_starts,
        mean_warm_sweeps,
        max_sv_rel_error,
        golden_checked,
        fallback_bit_identical,
        cache_resident_bytes: cache.resident_bytes,
        cache_hit_rate_window: cache.hit_rate_window,
    })
}

/// Measures the update-heavy trace at each size in `sizes`.
///
/// # Errors
///
/// Service, accelerator, or golden-model errors from either variant.
pub fn run(
    sizes: &[usize],
    clients: usize,
    requests_per_client: usize,
) -> Result<UpdateReport, HeteroSvdError> {
    let mut rows = Vec::with_capacity(sizes.len());
    for &n in sizes {
        rows.push(
            run_size(n, clients, requests_per_client).map_err(HeteroSvdError::InvalidConfig)?,
        );
    }
    Ok(UpdateReport {
        clients,
        requests_per_client,
        update_cache_rank: CACHE_RANK,
        max_update_rank: MAX_UPDATE_RANK,
        rows,
    })
}

/// The incremental-serving acceptance gates: ≥5× end-to-end speedup vs
/// full recompute at `n ≥ min_gate_n`, sv error ≤ 1e-5 vs the `f64`
/// golden on every row, the staleness-fallback path bit-identical to
/// `incremental = off`, and every route class actually exercised (one
/// cold start, warm start, and fallback per client; low-rank hits for
/// the bulk of the stream).
///
/// Pass `min_gate_n = usize::MAX` to skip the scale gate (CI smoke runs
/// sizes the wall-clock floor is not calibrated for).
pub fn gate_violations(report: &UpdateReport, min_gate_n: usize) -> Vec<String> {
    let mut violations = Vec::new();
    let clients = report.clients as u64;
    for row in &report.rows {
        if !row.fallback_bit_identical {
            violations.push(format!(
                "n={}: full-recompute routes are not bit-identical to incremental=off",
                row.n
            ));
        }
        // NaN must fail the gate, so the comparison is written positively.
        if row.max_sv_rel_error.is_nan() || row.max_sv_rel_error > SV_ERROR_GATE {
            violations.push(format!(
                "n={}: sv error {:.2e} vs f64 golden above the {SV_ERROR_GATE:.0e} gate",
                row.n, row.max_sv_rel_error
            ));
        }
        if row.golden_checked == 0 {
            violations.push(format!(
                "n={}: no request was checked against a golden",
                row.n
            ));
        }
        if row.cold_starts != clients {
            violations.push(format!(
                "n={}: {} cold starts for {} clients",
                row.n, row.cold_starts, clients
            ));
        }
        if row.warm_start_hits < clients {
            violations.push(format!(
                "n={}: only {} warm-start hits (expected one per client)",
                row.n, row.warm_start_hits
            ));
        }
        if row.staleness_fallbacks < clients {
            violations.push(format!(
                "n={}: only {} staleness fallbacks (expected one per client)",
                row.n, row.staleness_fallbacks
            ));
        }
        let expected_lowrank = (row.requests as u64).saturating_sub(3 * clients);
        if row.lowrank_hits < expected_lowrank {
            violations.push(format!(
                "n={}: only {} low-rank hits (trace schedules {})",
                row.n, row.lowrank_hits, expected_lowrank
            ));
        }
        // As above: a NaN speedup must count as a violation.
        if row.n >= min_gate_n && (row.speedup.is_nan() || row.speedup < SPEEDUP_GATE) {
            violations.push(format!(
                "n={}: incremental speedup {:.2}x below the {SPEEDUP_GATE:.0}x gate",
                row.n, row.speedup
            ));
        }
    }
    if min_gate_n != usize::MAX && !report.rows.iter().any(|r| r.n >= min_gate_n) {
        violations.push(format!("no n>={min_gate_n} row to gate"));
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small run exercises every route class and is internally
    /// consistent: the exactness gates (bit-identity, sv accuracy,
    /// route coverage) hold even at a size the scale gate skips.
    #[test]
    fn small_trace_report_is_consistent() {
        let report = run(&[64], 2, 10).unwrap();
        assert_eq!(report.rows.len(), 1);
        let row = &report.rows[0];
        assert_eq!(row.requests, 20);
        assert_eq!(row.cold_starts, 2, "one cold start per client");
        assert_eq!(row.warm_start_hits, 2, "one drift per client");
        assert_eq!(row.staleness_fallbacks, 2, "one shock per client");
        assert_eq!(
            row.cold_starts + row.warm_start_hits + row.staleness_fallbacks + row.lowrank_hits,
            row.requests as u64,
            "every request routed"
        );
        assert!(row.fallback_bit_identical);
        assert!(
            row.max_sv_rel_error <= SV_ERROR_GATE,
            "sv error {:.2e}",
            row.max_sv_rel_error
        );
        assert_eq!(
            row.golden_checked, row.requests,
            "n<=128 checks every request"
        );
        assert!(row.cache_resident_bytes > 0);
        // 18 classification hits / 2 cold-start misses over the window.
        assert!(
            row.cache_hit_rate_window >= 0.89,
            "trace is cache-hot after warmup"
        );
        assert!(
            row.incremental_modeled_ms < row.full_modeled_ms,
            "low-rank routes must shed modeled accelerator time"
        );
        let violations = gate_violations(&report, usize::MAX);
        assert!(violations.is_empty(), "{violations:?}");
    }
}
