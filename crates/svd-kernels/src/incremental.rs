//! Incremental SVD: warm-start seeding and Brand-style low-rank updates.
//!
//! Production SVD traffic is update-heavy: a client re-submits a matrix
//! that differs from its previous request by a few rows or columns
//! (streaming covariance, recommender-style rank-1 bumps). One-sided
//! Jacobi converges in one or two sweeps from a good starting basis, so
//! a cached right basis `V` from the previous solve turns a full
//! factorization into a near-no-op:
//!
//! * [`warm_start`] — seed the iteration with the cached basis: form
//!   `B = A·V_prev` (whose columns are already nearly orthogonal when
//!   `A ≈ A_prev`), sweep `B` to convergence, and compose the right
//!   basis `V = V_prev·V_B`. Because `V_prev` is orthogonal, `U` and
//!   `Σ` of `B` *are* those of `A`.
//! * [`lowrank_update`] — Brand's append/bump: when `ΔA = A − A_prev`
//!   factors as `C·Wᵀ` with small numerical rank `k`, rotate a cached
//!   rank-`r` [`TruncatedSvd`] through one `(r+k)×(r+k)` inner SVD
//!   instead of touching the full matrix at all.
//! * [`classify_update`] — the staleness bound: measure
//!   `‖ΔA‖_F / ‖A‖_F`, probe the delta's numerical rank, and route to
//!   the low-rank bump, the warm start, or a full recompute. The full
//!   route is *exactly* the cold path, so exceeding the bound is
//!   bit-identical to never having cached anything.

use crate::approx::TruncatedSvd;
use crate::jacobi::{hestenes_jacobi, JacobiOptions, SvdResult};
use crate::matrix::Matrix;
use crate::qr::householder_qr;
use crate::scalar::Real;
use crate::SvdError;

/// When the incremental paths must give up and recompute from scratch.
///
/// Both limits bound *accumulated* drift: `max_delta_rel` bounds the
/// single-step relative change `‖ΔA‖_F / ‖A‖_F`, and `max_warm_solves`
/// bounds how many consecutive warm/low-rank solves may reuse a basis
/// before a full solve refreshes it (each warm solve is accurate, but
/// the cached `V` ages with every low-rank bump that skips refreshing
/// it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StalenessBound {
    /// Largest `‖ΔA‖_F / ‖A‖_F` the warm paths accept.
    pub max_delta_rel: f64,
    /// Largest number of warm/low-rank solves since the last full solve.
    pub max_warm_solves: u32,
}

impl Default for StalenessBound {
    fn default() -> Self {
        StalenessBound {
            max_delta_rel: 0.25,
            max_warm_solves: 8,
        }
    }
}

/// Why an update routed to full recompute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// The new matrix's shape differs from the cached one.
    ShapeChanged,
    /// `‖ΔA‖_F / ‖A‖_F` exceeded [`StalenessBound::max_delta_rel`].
    DeltaTooLarge,
    /// Too many warm solves since the last full solve.
    WarmBudgetExhausted,
    /// No cached factors existed for this client — never produced by
    /// [`classify_update`] (which requires a previous matrix), only by
    /// callers reporting a cache miss as a full solve.
    ColdStart,
}

/// The execution route chosen for one update request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateRoute {
    /// Brand-style bump of the cached truncated factors; `rank` is the
    /// numerical rank of the delta (`0` = identical resubmission, serve
    /// the cached factors directly).
    LowRank {
        /// Numerical rank of `ΔA` (columns of the `C·Wᵀ` factorization).
        rank: usize,
    },
    /// Seed Jacobi from the cached right basis.
    WarmStart,
    /// Full recompute — exactly the cold path.
    Full(FallbackReason),
}

/// A low-rank factorization `ΔA ≈ C·Wᵀ` of the update delta.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaFactor<T> {
    /// Left factor, `m × k`.
    pub c: Matrix<T>,
    /// Right factor, `n × k`.
    pub w: Matrix<T>,
}

/// The outcome of [`classify_update`]: the route plus the measured
/// staleness and (for the low-rank route) the factored delta.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateClass<T> {
    /// Chosen route.
    pub route: UpdateRoute,
    /// Measured `‖ΔA‖_F / ‖A_new‖_F` (`∞` on shape change).
    pub delta_rel: f64,
    /// `ΔA ≈ C·Wᵀ` when the route is a positive-rank low-rank bump.
    pub factor: Option<DeltaFactor<T>>,
}

/// Routes one update against the cached previous matrix.
///
/// `warm_solves_since_full` is the caller's counter of consecutive
/// non-full solves on this cache entry; `max_update_rank` bounds the
/// delta rank the low-rank path accepts (larger deltas that still pass
/// the staleness bound take the warm start).
///
/// # Errors
///
/// [`SvdError::NonFinite`] when `a_new` contains NaN or infinities.
pub fn classify_update<T: Real>(
    a_new: &Matrix<T>,
    a_prev: &Matrix<T>,
    warm_solves_since_full: u32,
    bound: &StalenessBound,
    max_update_rank: usize,
) -> Result<UpdateClass<T>, SvdError> {
    if !a_new.is_finite() {
        return Err(SvdError::NonFinite);
    }
    if a_new.rows() != a_prev.rows() || a_new.cols() != a_prev.cols() {
        return Ok(UpdateClass {
            route: UpdateRoute::Full(FallbackReason::ShapeChanged),
            delta_rel: f64::INFINITY,
            factor: None,
        });
    }
    let delta = a_new.sub(a_prev)?;
    let delta_norm = delta.frobenius_norm();
    let a_norm = a_new.frobenius_norm();
    let delta_rel = if delta_norm == 0.0 {
        0.0
    } else if a_norm == 0.0 {
        f64::INFINITY
    } else {
        delta_norm / a_norm
    };
    if delta_rel == 0.0 {
        // Identical resubmission: the cached factors already answer it.
        return Ok(UpdateClass {
            route: UpdateRoute::LowRank { rank: 0 },
            delta_rel,
            factor: None,
        });
    }
    if warm_solves_since_full >= bound.max_warm_solves {
        return Ok(UpdateClass {
            route: UpdateRoute::Full(FallbackReason::WarmBudgetExhausted),
            delta_rel,
            factor: None,
        });
    }
    if delta_rel > bound.max_delta_rel {
        return Ok(UpdateClass {
            route: UpdateRoute::Full(FallbackReason::DeltaTooLarge),
            delta_rel,
            factor: None,
        });
    }
    match factor_delta_with_norm(&delta, delta_norm, max_update_rank) {
        Some(factor) => Ok(UpdateClass {
            route: UpdateRoute::LowRank {
                rank: factor.c.cols(),
            },
            delta_rel,
            factor: Some(factor),
        }),
        None => Ok(UpdateClass {
            route: UpdateRoute::WarmStart,
            delta_rel,
            factor: None,
        }),
    }
}

/// Attempts to factor `delta ≈ C·Wᵀ` with at most `max_rank` columns.
///
/// Three probes run in order of cost: dirty-*column* scan (a column
/// perturbation touches few columns, so `C` = those columns and `W` =
/// the selection), dirty-*row* scan (the transposed pattern), then a
/// randomized range finder (one power iteration, deterministic test
/// matrix) for dense-but-low-rank deltas such as rank-1 outer-product
/// bumps. Returns `None` when no probe captures the delta to machine
/// precision within the rank budget.
pub fn factor_delta<T: Real>(delta: &Matrix<T>, max_rank: usize) -> Option<DeltaFactor<T>> {
    factor_delta_with_norm(delta, delta.frobenius_norm(), max_rank)
}

/// [`factor_delta`] with `‖delta‖_F` already measured, so
/// [`classify_update`] scans the delta for its norm only once.
fn factor_delta_with_norm<T: Real>(
    delta: &Matrix<T>,
    total_norm: f64,
    max_rank: usize,
) -> Option<DeltaFactor<T>> {
    let (m, n) = (delta.rows(), delta.cols());
    if max_rank == 0 || m == 0 || n == 0 || total_norm == 0.0 {
        return None;
    }
    // The dust floor: entries this far below the delta's own scale are
    // rounding noise, not signal (the residual check below uses the
    // same scale).
    let floor = total_norm * T::EPSILON.to_f64() * 4.0;
    let floor_sq = floor * floor;

    let (col_norm_sq, row_norm_sq) = col_row_norms_sq(delta);

    // ---- Probe 1: column-sparse delta.
    let dirty_cols: Vec<usize> = (0..n).filter(|&j| col_norm_sq[j] > floor_sq).collect();
    if !dirty_cols.is_empty() && dirty_cols.len() <= max_rank {
        let k = dirty_cols.len();
        let c = Matrix::from_fn(m, k, |i, j| delta[(i, dirty_cols[j])]);
        let w = Matrix::from_fn(
            n,
            k,
            |i, j| {
                if i == dirty_cols[j] {
                    T::ONE
                } else {
                    T::ZERO
                }
            },
        );
        return Some(DeltaFactor { c, w });
    }

    // ---- Probe 2: row-sparse delta (`Δ = Σ e_i·r_iᵀ`).
    let dirty_rows: Vec<usize> = (0..m).filter(|&i| row_norm_sq[i] > floor_sq).collect();
    if !dirty_rows.is_empty() && dirty_rows.len() <= max_rank {
        let k = dirty_rows.len();
        let c = Matrix::from_fn(
            m,
            k,
            |i, j| {
                if i == dirty_rows[j] {
                    T::ONE
                } else {
                    T::ZERO
                }
            },
        );
        let w = Matrix::from_fn(n, k, |i, j| delta[(dirty_rows[j], i)]);
        return Some(DeltaFactor { c, w });
    }

    // ---- Probe 3: randomized range finder with one power iteration.
    // The test matrix is a deterministic SplitMix64 stream so repeated
    // classifications of the same delta agree bit-for-bit.
    let probe = (max_rank + 4).min(m).min(n);
    if probe == 0 {
        return None;
    }
    let mut seed = 0x9E37_79B9_7F4A_7C15_u64 ^ ((m as u64) << 32) ^ n as u64;
    let omega = Matrix::from_fn(n, probe, |_, _| {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        T::from_f64((z >> 11) as f64 * (2.0 / (1u64 << 53) as f64) - 1.0)
    });
    let y = delta.matmul(&omega).ok()?;
    // One power step sharpens the captured subspace: Y ← Δ·(Δᵀ·Y).
    let y = delta.matmul(&delta.transpose().matmul(&y).ok()?).ok()?;
    let q = householder_qr(&y).ok()?.q;
    let w = delta.transpose().matmul(&q).ok()?; // n × probe, Wᵀ = QᵀΔ
                                                // Compress the oversampled capture back to the rank budget. The
                                                // probe deliberately overshoots (`max_rank + 4` columns) so the
                                                // range finder converges, but handing the caller a probe-width
                                                // factor would let a rank-(max_rank+1) delta masquerade as "low
                                                // rank". A small SVD of the `n × probe` right factor re-expresses
                                                // `Δ ≈ Q·Wᵀ = Q·V_w·Σ_w·U_wᵀ` in singular directions; only the top
                                                // `max_rank` survive, and the residual test then decides honestly.
    let small_opts = JacobiOptions {
        precision: (T::EPSILON.to_f64() * 64.0).max(1e-13),
        ..JacobiOptions::default()
    };
    let w_svd = hestenes_jacobi(&w, &small_opts).ok()?;
    let w_v = w_svd.v.as_ref()?;
    let keep: Vec<usize> = w_svd
        .descending_order()
        .into_iter()
        .take(max_rank)
        .filter(|&j| w_svd.sigma[j].to_f64() > floor)
        .collect();
    if keep.is_empty() {
        return None;
    }
    let k = keep.len();
    // C = Q·V_w·Σ_w (m × k), W = U_w (n × k) over the kept directions.
    let mut v_keep = Matrix::zeros(probe, k);
    let mut w_k = Matrix::zeros(n, k);
    for (t, &j) in keep.iter().enumerate() {
        let s = w_svd.sigma[j];
        for (slot, &x) in v_keep.col_mut(t).iter_mut().zip(w_v.col(j).iter()) {
            *slot = s * x;
        }
        w_k.col_mut(t).copy_from_slice(w_svd.u.col(j));
    }
    let c = q.matmul(&v_keep).ok()?;
    // Residual check: ‖Δ − C·Wᵀ‖_F must be machine-level noise.
    let recon = c.matmul(&w_k.transpose()).ok()?;
    let residual = delta.sub(&recon).ok()?.frobenius_norm();
    if residual <= total_norm * T::EPSILON.to_f64() * 64.0 {
        Some(DeltaFactor { c, w: w_k })
    } else {
        None
    }
}

/// Columns that one [`col_row_norms_sq`] scan advances in lockstep.
const NORM_LANES: usize = 8;

/// Squared column and row norms of `a`, filled in one scan. Every sum
/// adds its terms in index order, so each is bit-identical to summing
/// its column or row on its own. The scan advances [`NORM_LANES`]
/// columns in lockstep, so their sums run as independent add chains
/// rather than one serial chain.
fn col_row_norms_sq<T: Real>(a: &Matrix<T>) -> (Vec<f64>, Vec<f64>) {
    let (m, n) = (a.rows(), a.cols());
    let mut col = vec![0.0_f64; n];
    let mut row = vec![0.0_f64; m];
    let split = n - n % NORM_LANES;
    for j0 in (0..split).step_by(NORM_LANES) {
        let cols: [&[T]; NORM_LANES] = std::array::from_fn(|t| a.col(j0 + t));
        let mut sums = [0.0_f64; NORM_LANES];
        for (i, r) in row.iter_mut().enumerate() {
            for t in 0..NORM_LANES {
                let x = cols[t][i].to_f64();
                sums[t] += x * x;
                *r += x * x;
            }
        }
        col[j0..j0 + NORM_LANES].copy_from_slice(&sums);
    }
    for (j, sum) in col.iter_mut().enumerate().skip(split) {
        for (r, x) in row.iter_mut().zip(a.col(j)) {
            let x = x.to_f64();
            *sum += x * x;
            *r += x * x;
        }
    }
    (col, row)
}

/// Completes an orthonormal-but-rank-deficient basis to a full rotation.
///
/// The input's columns must each be either unit-norm (pairwise
/// orthogonal — the live directions) or exactly zero (the dead slots
/// [`SvdResult::recover_v`]'s noise gate leaves behind a rank-deficient
/// solve). The dead slots are filled with an orthonormal basis of the
/// live span's complement, so the result is orthogonal and agrees with
/// the input on every live column.
///
/// Cost is `O(n²·r)` for `r` live columns — *not* the `O(n³)` of a full
/// QR re-factorization. The trick: Householder-factor just the live
/// columns (a tall `n × r` QR), whose full orthogonal factor
/// `Q = H_0···H_{r-1}` sends `e_0..e_{r-1}` onto the live span — so its
/// trailing columns `Q·e_r .. Q·e_{n-1}` are exactly the complement
/// basis, each costing `r` reflector applications. Reflectors are
/// orthogonal by construction, so there is no Gram matrix to condition
/// and no degenerate case to special-case.
///
/// # Errors
///
/// [`SvdError::DimensionMismatch`] when the input is not square;
/// [`SvdError::NonFinite`] for non-finite input.
pub fn complete_basis<T: Real>(v_prev: &Matrix<T>) -> Result<Matrix<T>, SvdError> {
    let n = v_prev.rows();
    if v_prev.cols() != n {
        return Err(SvdError::DimensionMismatch(format!(
            "basis must be square, got {}x{}",
            v_prev.rows(),
            v_prev.cols()
        )));
    }
    if !v_prev.is_finite() {
        return Err(SvdError::NonFinite);
    }
    let (live, dead) = dead_live_split(v_prev);
    if dead.is_empty() {
        return Ok(v_prev.clone());
    }
    if live.is_empty() {
        return Ok(Matrix::identity(n));
    }
    let (out64, _) = completion_f64(&v_prev.cast::<f64>(), &live, &dead);
    let mut out = out64.cast::<T>();
    // The f64 round trip is exact for widened values, but copy the live
    // columns back anyway so the bit-preservation contract never hinges
    // on cast semantics.
    for &j in &live {
        out.col_mut(j).copy_from_slice(v_prev.col(j));
    }
    Ok(out)
}

/// Splits basis columns into live (non-zero) and dead (all-zero) slots.
fn dead_live_split<T: Real>(v_prev: &Matrix<T>) -> (Vec<usize>, Vec<usize>) {
    let (mut live, mut dead) = (Vec::new(), Vec::new());
    for j in 0..v_prev.cols() {
        if v_prev.col(j).iter().all(|&x| x == T::ZERO) {
            dead.push(j);
        } else {
            live.push(j);
        }
    }
    (live, dead)
}

/// The `f64` core of [`complete_basis`]: Householder-factors the live
/// columns (an `n × r` tall QR, `O(n·r²)`) and fills the dead slots with
/// trailing columns of the full orthogonal factor `Q = H_0·H_1···H_{r-1}`.
/// `Q` maps `e_0..e_{r-1}` onto an orthonormal basis of the live span, so
/// `Q·e_r .. Q·e_{n-1}` are exactly the complement basis — each one costs
/// `r` reflector applications, `O(n·r)`, so the whole completion is
/// `O(n²·r)`. No Gram matrix, no conditioning hazard: reflectors are
/// orthogonal by construction. Returns the completed basis and the
/// reflectors (reflector `k` spans rows `k..n`), which [`warm_seed`]
/// reuses to form `A·Q`'s trailing columns without a dense GEMM.
fn completion_f64(
    v64: &Matrix<f64>,
    live: &[usize],
    dead: &[usize],
) -> (Matrix<f64>, Vec<Vec<f64>>) {
    let n = v64.rows();
    let r = live.len();
    let mut work = Matrix::from_fn(n, r, |i, j| v64[(i, live[j])]);
    let mut reflectors: Vec<Vec<f64>> = Vec::with_capacity(r);
    for k in 0..r {
        let col = work.col(k);
        let tail = &col[k..];
        let norm_sq: f64 = tail.iter().map(|&x| x * x).sum();
        let norm = norm_sq.sqrt();
        let mut v: Vec<f64> = tail.to_vec();
        if norm > 0.0 {
            let alpha = if v[0] >= 0.0 { -norm } else { norm };
            v[0] -= alpha;
            let v_norm_sq: f64 = v.iter().map(|&x| x * x).sum();
            if v_norm_sq > 0.0 {
                for j in k..r {
                    let cj = work.col_mut(j);
                    let dot: f64 = v.iter().zip(cj[k..].iter()).map(|(&vi, &x)| vi * x).sum();
                    let scale = 2.0 * dot / v_norm_sq;
                    for (vi, x) in v.iter().zip(cj[k..].iter_mut()) {
                        *x -= scale * *vi;
                    }
                }
            }
        }
        reflectors.push(v);
    }
    let mut out = v64.clone();
    let mut x = vec![0.0f64; n];
    for (t, &slot) in dead.iter().enumerate() {
        x.fill(0.0);
        x[r + t] = 1.0;
        for k in (0..r).rev() {
            let v = &reflectors[k];
            let v_norm_sq: f64 = v.iter().map(|&vi| vi * vi).sum();
            if v_norm_sq == 0.0 {
                continue;
            }
            let dot: f64 = v.iter().zip(x[k..].iter()).map(|(&vi, &xi)| vi * xi).sum();
            let scale = 2.0 * dot / v_norm_sq;
            for (vi, xi) in v.iter().zip(x[k..].iter_mut()) {
                *xi -= scale * *vi;
            }
        }
        out.col_mut(slot).copy_from_slice(&x);
    }
    (out, reflectors)
}

/// Forms the warm-start seed pair `(B, V_seed)`: `V_seed` is
/// [`complete_basis`] of `v_prev` and `B = A·V_seed`, accumulated in
/// `f64` so the seeding product adds no target-precision rounding of its
/// own before the iteration starts.
///
/// When the cached basis is rank-deficient (`r` live columns, the rest
/// dead), the product is formed structurally in `O(m·n·r)` instead of
/// the dense `O(m·n²)` GEMM: live slots are `A·v_j` against the original
/// columns, and dead slots are trailing columns of `A·H_0···H_{r-1}` —
/// the same Householder reflectors that define the completion, applied
/// to `A` from the right at `O(m·n)` each. For a hot-matrix cache whose
/// effective rank is far below `n`, this turns the seeding step from the
/// dominant warm-path cost into noise.
///
/// # Errors
///
/// [`SvdError::DimensionMismatch`] when `v_prev` is not square with side
/// `a.cols()`; [`SvdError::NonFinite`] for non-finite input.
pub fn warm_seed<T: Real>(
    a: &Matrix<T>,
    v_prev: &Matrix<T>,
) -> Result<(Matrix<T>, Matrix<T>), SvdError> {
    let (m, n) = (a.rows(), a.cols());
    if v_prev.rows() != n || v_prev.cols() != n {
        return Err(SvdError::DimensionMismatch(format!(
            "warm-start basis must be {n}x{n}, got {}x{}",
            v_prev.rows(),
            v_prev.cols()
        )));
    }
    if !a.is_finite() || !v_prev.is_finite() {
        return Err(SvdError::NonFinite);
    }
    let (live, dead) = dead_live_split(v_prev);
    if live.is_empty() {
        // All-zero basis: the completion is the identity, B is A itself.
        return Ok((a.clone(), Matrix::identity(n)));
    }
    let a64 = a.cast::<f64>();
    if dead.is_empty() {
        // Full-rank basis: nothing to complete, the product is dense.
        let b = a64.matmul(&v_prev.cast::<f64>())?.cast::<T>();
        return Ok((b, v_prev.clone()));
    }
    let v64 = v_prev.cast::<f64>();
    let (v_seed64, reflectors) = completion_f64(&v64, &live, &dead);
    let r = live.len();
    // Live slots of B: A against the original basis columns, so B and
    // V_seed agree on exactly the directions the cache certified.
    let v_live = Matrix::from_fn(n, r, |i, j| v64[(i, live[j])]);
    let b_live = a64.matmul(&v_live)?;
    // Dead slots of B: apply each live reflector to A from the right;
    // columns r.. of the running product are A·(Q·e_{r+t}).
    let mut prod = a64;
    let mut y = vec![0.0f64; m];
    for refl in &reflectors {
        let v_norm_sq: f64 = refl.iter().map(|&x| x * x).sum();
        if v_norm_sq == 0.0 {
            continue;
        }
        let k = n - refl.len();
        y.fill(0.0);
        for (p, &vp) in refl.iter().enumerate() {
            for (yi, &ci) in y.iter_mut().zip(prod.col(k + p).iter()) {
                *yi += vp * ci;
            }
        }
        let scale = 2.0 / v_norm_sq;
        for (p, &vp) in refl.iter().enumerate() {
            let f = scale * vp;
            for (ci, &yi) in prod.col_mut(k + p).iter_mut().zip(y.iter()) {
                *ci -= f * yi;
            }
        }
    }
    let mut b64 = Matrix::<f64>::zeros(m, n);
    for (t, &slot) in live.iter().enumerate() {
        b64.col_mut(slot).copy_from_slice(b_live.col(t));
    }
    for (t, &slot) in dead.iter().enumerate() {
        b64.col_mut(slot).copy_from_slice(prod.col(r + t));
    }
    let mut v_seed = v_seed64.cast::<T>();
    for &j in &live {
        v_seed.col_mut(j).copy_from_slice(v_prev.col(j));
    }
    Ok((b64.cast::<T>(), v_seed))
}

/// One-sided Jacobi seeded from a cached right basis.
///
/// Forms `B = A·V_prev` (in `f64`, so the seeding GEMM adds no rounding
/// of its own), sweeps `B` to convergence, and returns the SVD of `A`
/// with `v = Some(V_prev·V_B)`. When `A` is close to the matrix
/// `V_prev` was computed from, `B`'s columns are already nearly
/// orthogonal and the iteration converges in one or two sweeps — the
/// returned [`SvdResult::sweeps`] says how many it actually took.
///
/// Zero columns in `v_prev` (the [`SvdResult::recover_v`] noise gate
/// leaves them behind a rank-deficient solve) are completed to a full
/// rotation before seeding, so update components outside the previous
/// numerical row space remain visible to the iteration.
///
/// # Errors
///
/// * [`SvdError::DimensionMismatch`] when `v_prev` is not square with
///   side `a.cols()`.
/// * [`SvdError::NonFinite`] for non-finite input.
/// * Whatever the inner [`hestenes_jacobi`] returns (e.g.
///   [`SvdError::NotConverged`]).
pub fn warm_start<T: Real>(
    a: &Matrix<T>,
    v_prev: &Matrix<T>,
    opts: &JacobiOptions,
) -> Result<SvdResult<T>, SvdError> {
    let n = a.cols();
    if v_prev.rows() != n || v_prev.cols() != n {
        return Err(SvdError::DimensionMismatch(format!(
            "warm-start basis must be {n}x{n}, got {}x{}",
            v_prev.rows(),
            v_prev.cols()
        )));
    }
    if !a.is_finite() || !v_prev.is_finite() {
        return Err(SvdError::NonFinite);
    }
    // A cached basis can carry zero columns where `recover_v` gated a
    // noise-floor σ. Those mark rank deficiency, not directions —
    // seeding with them would annihilate every update component outside
    // the previous numerical row space (`B = A·V_prev` never sees it),
    // silently dropping singular directions the update introduced.
    // `warm_seed` completes the basis to a full rotation and forms the
    // f64 seeding product structurally (O(m·n·r) for r live columns).
    let (b, v_seed) = warm_seed(a, v_prev)?;
    // `compute_v` tracks the extra rotations; it is incompatible with
    // the adaptive memo, and a warm start needs neither (the whole
    // point is that one or two plain sweeps suffice).
    let inner_opts = JacobiOptions {
        compute_v: true,
        adaptive: false,
        ..*opts
    };
    let solved = hestenes_jacobi(&b, &inner_opts)?;
    let v_b = solved
        .v
        .as_ref()
        .expect("compute_v was set, so v is present");
    let v = v_seed.matmul(v_b)?;
    Ok(SvdResult {
        u: solved.u,
        sigma: solved.sigma,
        v: Some(v),
        sweeps: solved.sweeps,
        history: solved.history,
    })
}

/// Brand-style rank-`k` update of a cached rank-`r` truncated SVD.
///
/// Given `A_prev ≈ U·Σ·Vᵀ` (the cached factors) and
/// `A_new = A_prev + C·Wᵀ`, projects the update onto the cached bases
/// plus their orthogonal complements (`P = orth(C − U·UᵀC)`,
/// `Q = orth(W − V·VᵀW)`), factors the small `(r+k)×(r+k)` core
/// `K = diag(Σ, 0) + [UᵀC; R_P]·[VᵀW; R_Q]ᵀ`, and rotates the bases:
/// `U' = [U P]·U_K`, `V' = [V Q]·V_K`. The result is re-truncated to
/// rank `r`, with the discarded energy folded into
/// [`TruncatedSvd::tail_sigma`]. The full matrix is never touched —
/// cost is `O((m+n)·(r+k)²)` against the cold path's `O(m·n²)`.
///
/// # Errors
///
/// * [`SvdError::DimensionMismatch`] when the factor shapes disagree
///   with the cached factors, or `r + k` exceeds either matrix
///   dimension (the update is not "low-rank" for this problem).
/// * [`SvdError::NonFinite`] for non-finite update factors.
/// * Whatever the inner [`hestenes_jacobi`] on the core returns.
pub fn lowrank_update<T: Real>(
    cached: &TruncatedSvd<T>,
    delta: &DeltaFactor<T>,
    opts: &JacobiOptions,
) -> Result<TruncatedSvd<T>, SvdError> {
    let (m, n, r) = (cached.rows(), cached.cols(), cached.rank());
    let k = delta.c.cols();
    if delta.c.rows() != m || delta.w.rows() != n || delta.w.cols() != k || k == 0 {
        return Err(SvdError::DimensionMismatch(format!(
            "delta factors {}x{} / {}x{} do not update cached {m}x{n} rank-{r} factors",
            delta.c.rows(),
            delta.c.cols(),
            delta.w.rows(),
            delta.w.cols()
        )));
    }
    if r + k > m || r + k > n {
        return Err(SvdError::DimensionMismatch(format!(
            "augmented rank {} exceeds matrix dimension {}x{}",
            r + k,
            m,
            n
        )));
    }
    if !delta.c.is_finite() || !delta.w.is_finite() {
        return Err(SvdError::NonFinite);
    }

    // Project the update onto the cached bases and their complements.
    let ut_c = cached.u.transpose().matmul(&delta.c)?; // r × k
    let c_perp = delta.c.sub(&cached.u.matmul(&ut_c)?)?;
    let qr_c = householder_qr(&c_perp)?; // P: m×k, R_P: k×k
    let vt_w = cached.v.transpose().matmul(&delta.w)?; // r × k
    let w_perp = delta.w.sub(&cached.v.matmul(&vt_w)?)?;
    let qr_w = householder_qr(&w_perp)?; // Q: n×k, R_Q: k×k

    // Core: K = diag(Σ, 0) + [UᵀC; R_P]·[VᵀW; R_Q]ᵀ.
    let dim = r + k;
    let left = Matrix::from_fn(dim, k, |i, j| {
        if i < r {
            ut_c[(i, j)]
        } else {
            qr_c.r[(i - r, j)]
        }
    });
    let right = Matrix::from_fn(dim, k, |i, j| {
        if i < r {
            vt_w[(i, j)]
        } else {
            qr_w.r[(i - r, j)]
        }
    });
    let mut core = left.matmul(&right.transpose())?;
    for i in 0..r {
        core[(i, i)] += cached.sigma[i];
    }
    let core_opts = JacobiOptions {
        compute_v: true,
        adaptive: false,
        ..*opts
    };
    let small = hestenes_jacobi(&core, &core_opts)?;
    let small_v = small.v.as_ref().expect("compute_v was set");

    // Keep the top r of the r+k rotated directions.
    let order = {
        let mut idx: Vec<usize> = (0..dim).collect();
        idx.sort_by(|&a, &b| small.sigma[b].partial_cmp(&small.sigma[a]).unwrap());
        idx
    };
    let u_keep = Matrix::from_fn(dim, r, |i, j| small.u[(i, order[j])]);
    let v_keep = Matrix::from_fn(dim, r, |i, j| small_v[(i, order[j])]);
    let up = Matrix::from_fn(m, dim, |i, j| {
        if j < r {
            cached.u[(i, j)]
        } else {
            qr_c.q[(i, j - r)]
        }
    });
    let vq = Matrix::from_fn(n, dim, |i, j| {
        if j < r {
            cached.v[(i, j)]
        } else {
            qr_w.q[(i, j - r)]
        }
    });
    let u = up.matmul(&u_keep)?;
    let v = vq.matmul(&v_keep)?;
    let sigma: Vec<T> = order[..r].iter().map(|&i| small.sigma[i]).collect();

    // Energy bookkeeping: discarded core directions join the tail.
    let dropped_sq: f64 = order[r..]
        .iter()
        .map(|&i| small.sigma[i].to_f64().powi(2))
        .sum();
    let tail_sq = cached.tail_sigma.to_f64().powi(2) + dropped_sq;
    let kept_sq: f64 = sigma.iter().map(|s| s.to_f64().powi(2)).sum();
    let total_sq = kept_sq + tail_sq;
    Ok(TruncatedSvd {
        u,
        sigma,
        v,
        tail_sigma: T::from_f64(tail_sq.sqrt()),
        retained_energy: if total_sq > 0.0 {
            kept_sq / total_sq
        } else {
            1.0
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;

    fn pseudo(m: usize, n: usize, seed: u64) -> Matrix<f64> {
        Matrix::from_fn(m, n, |r, c| {
            let x = (r as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add((c as u64).wrapping_mul(1442695040888963407))
                .wrapping_add(seed.wrapping_mul(2862933555777941757));
            let z = x ^ (x >> 29);
            (z % 4096) as f64 / 2048.0 - 1.0 + if r == c { 1.5 } else { 0.0 }
        })
    }

    /// A matrix with geometrically decaying spectrum (`σ_i ≈ ρ^i`).
    fn decaying(n: usize, rho: f64, seed: u64) -> Matrix<f64> {
        let q = householder_qr(&pseudo(n, n, seed)).unwrap().q;
        let p = householder_qr(&pseudo(n, n, seed ^ 0xABCD)).unwrap().q;
        let mut scaled = q.clone();
        for j in 0..n {
            let s = rho.powi(j as i32);
            for x in scaled.col_mut(j) {
                *x *= s;
            }
        }
        scaled.matmul(&p.transpose()).unwrap()
    }

    fn opts() -> JacobiOptions {
        JacobiOptions {
            precision: 1e-10,
            ..Default::default()
        }
    }

    fn solve_cold(a: &Matrix<f64>) -> SvdResult<f64> {
        hestenes_jacobi(a, &opts()).unwrap()
    }

    fn perturb_cols(a: &Matrix<f64>, cols: &[usize], scale: f64, seed: u64) -> Matrix<f64> {
        let mut out = a.clone();
        for (t, &j) in cols.iter().enumerate() {
            for (i, x) in out.col_mut(j).iter_mut().enumerate() {
                let noise = pseudo(a.rows(), 1, seed.wrapping_add(t as u64))[(i, 0)];
                *x += scale * noise;
            }
        }
        out
    }

    #[test]
    fn warm_start_matches_cold_after_small_update() {
        let a0 = pseudo(24, 16, 1);
        let cold0 = solve_cold(&a0);
        let v_prev = cold0.recover_v(&a0).unwrap();
        let a1 = perturb_cols(&a0, &[2, 9], 0.05, 7);
        let warm = warm_start(&a1, &v_prev, &opts()).unwrap();
        let cold1 = solve_cold(&a1);
        let err = verify::singular_value_error(
            &cold1.sorted_singular_values(),
            &warm.sorted_singular_values(),
        );
        assert!(err < 10.0 * opts().precision, "sv error {err}");
        // The composed V actually reconstructs A.
        let v = warm.v.as_ref().unwrap();
        assert!(verify::reconstruction_error(&a1, &warm.u, &warm.sigma, v) < 1e-8);
        assert!(verify::column_orthogonality_error(v) < 1e-8);
    }

    #[test]
    fn warm_start_saves_sweeps() {
        let a0 = pseudo(32, 32, 3);
        let v_prev = solve_cold(&a0).recover_v(&a0).unwrap();
        let a1 = perturb_cols(&a0, &[0], 0.01, 11);
        let warm = warm_start(&a1, &v_prev, &opts()).unwrap();
        let cold = solve_cold(&a1);
        assert!(
            warm.sweeps < cold.sweeps,
            "warm {} vs cold {} sweeps",
            warm.sweeps,
            cold.sweeps
        );
        assert!(warm.sweeps <= 4, "warm start took {} sweeps", warm.sweeps);
    }

    #[test]
    fn warm_start_handles_ill_conditioned_updates() {
        // Spectrum spanning 10 orders of magnitude.
        let a0 = decaying(16, 0.2, 5);
        let v_prev = solve_cold(&a0).recover_v(&a0).unwrap();
        let a1 = perturb_cols(&a0, &[3], 1e-4, 9);
        let warm = warm_start(&a1, &v_prev, &opts()).unwrap();
        let cold = solve_cold(&a1);
        let err = verify::singular_value_error(
            &cold.sorted_singular_values(),
            &warm.sorted_singular_values(),
        );
        assert!(err < 10.0 * opts().precision, "sv error {err}");
    }

    #[test]
    fn warm_start_handles_rank_deficient_updates() {
        // Two identical columns: the previous basis has a zeroed column
        // from the `recover_v` noise gate; the warm solve must stay
        // finite and accurate.
        let base = pseudo(20, 8, 13);
        let a0 = Matrix::from_fn(20, 8, |r, c| base[(r, c.min(6))]);
        let v_prev = solve_cold(&a0).recover_v(&a0).unwrap();
        let a1 = perturb_cols(&a0, &[1], 0.02, 17);
        let warm = warm_start(&a1, &v_prev, &opts()).unwrap();
        assert!(warm.u.is_finite());
        let cold = solve_cold(&a1);
        let err = verify::singular_value_error(
            &cold.sorted_singular_values(),
            &warm.sorted_singular_values(),
        );
        assert!(err < 10.0 * opts().precision, "sv error {err}");
    }

    #[test]
    fn complete_basis_restores_orthogonality() {
        // A rank-6 basis in R^32: 26 dead columns, completed in
        // O(n²·r). The result must be orthogonal and preserve the live
        // columns exactly.
        let n = 32;
        let r = 6;
        let q = householder_qr(&pseudo(n, r, 71)).unwrap().q;
        let mut v_prev = Matrix::<f64>::zeros(n, n);
        for j in 0..r {
            v_prev.col_mut(2 * j).copy_from_slice(q.col(j));
        }
        let completed = complete_basis(&v_prev).unwrap();
        assert!(verify::column_orthogonality_error(&completed) < 1e-12);
        for j in 0..r {
            assert_eq!(completed.col(2 * j), v_prev.col(2 * j), "live col moved");
        }
        // Full-rank input passes through untouched; empty input is the
        // identity.
        let full = householder_qr(&pseudo(n, n, 73)).unwrap().q;
        assert_eq!(complete_basis(&full).unwrap(), full);
        assert_eq!(
            complete_basis(&Matrix::<f64>::zeros(4, 4)).unwrap(),
            Matrix::<f64>::identity(4)
        );
    }

    #[test]
    fn warm_start_rejects_bad_basis_shapes() {
        let a = pseudo(8, 8, 1);
        let v = Matrix::<f64>::identity(4);
        assert!(matches!(
            warm_start(&a, &v, &opts()),
            Err(SvdError::DimensionMismatch(_))
        ));
    }

    #[test]
    fn column_update_is_detected_and_matches_direct() {
        // ρ = 0.25 keeps the rank-12 truncation tail (σ₁₃/σ₁ ≈ 6e-8)
        // well under the 1e-6 gate, so the measured error is the Brand
        // update's own.
        let a0 = decaying(16, 0.25, 21);
        let cached = solve_cold(&a0).truncate(&a0, 12).unwrap();
        let a1 = perturb_cols(&a0, &[4, 11], 0.01, 23);
        let delta = a1.sub(&a0).unwrap();
        let factor = factor_delta(&delta, 4).expect("column update is rank 2");
        assert_eq!(factor.c.cols(), 2);
        let bumped = lowrank_update(&cached, &factor, &opts()).unwrap();
        let direct = solve_cold(&a1);
        let golden = direct.sorted_singular_values();
        let err = verify::singular_value_error(&golden[..12], &bumped.sigma);
        assert!(err < 1e-6, "sv error {err}");
        // The bumped factors reconstruct A_new up to the truncated tail.
        let recon_err =
            a1.sub(&bumped.reconstruct()).unwrap().frobenius_norm() / a1.frobenius_norm();
        assert!(recon_err < 1e-4, "reconstruction error {recon_err}");
    }

    #[test]
    fn row_and_dense_rank1_updates_are_detected() {
        // n = 24 leaves room for the randomized probe's r + k ≤ n bound
        // (rank 12 + 8 probe columns), and ρ = 0.25 keeps the truncation
        // tail under the gate.
        let a0 = decaying(24, 0.25, 31);
        // Row update: perturb two rows.
        let mut a_row = a0.clone();
        for j in 0..24 {
            a_row[(3, j)] += 0.01 * ((j * 7 % 5) as f64 - 2.0);
            a_row[(8, j)] += 0.02 * ((j * 3 % 7) as f64 - 3.0);
        }
        let row_factor = factor_delta(&a_row.sub(&a0).unwrap(), 4).expect("row update");
        assert_eq!(row_factor.c.cols(), 2);
        // Dense rank-1 bump: Δ = x·yᵀ touches every entry.
        let x = pseudo(24, 1, 41);
        let y = pseudo(24, 1, 43);
        let bump = x.matmul(&y.transpose()).unwrap().scaled(0.01);
        let dense_factor = factor_delta(&bump, 4).expect("rank-1 bump");
        // The oversampled probe must not leak into the returned factor:
        // a rank-1 delta factors with exactly one column.
        assert_eq!(dense_factor.c.cols(), 1);
        let cached = solve_cold(&a0).truncate(&a0, 12).unwrap();
        let bumped = lowrank_update(&cached, &dense_factor, &opts()).unwrap();
        let a1 = Matrix::from_fn(24, 24, |r, c| a0[(r, c)] + bump[(r, c)]);
        let golden = solve_cold(&a1).sorted_singular_values();
        let err = verify::singular_value_error(&golden[..12], &bumped.sigma);
        assert!(err < 1e-6, "sv error {err}");
    }

    #[test]
    fn factor_delta_rejects_high_rank_deltas() {
        let dense = pseudo(16, 16, 51);
        assert!(factor_delta(&dense, 4).is_none());
        assert!(factor_delta(&Matrix::<f64>::zeros(8, 8), 4).is_none());
        // A dense rank-4 delta must not squeeze through a rank-2 budget
        // by riding on the probe's oversampling columns.
        let g = pseudo(16, 4, 53);
        let h = pseudo(16, 4, 57);
        let rank4 = g.matmul(&h.transpose()).unwrap();
        assert!(factor_delta(&rank4, 2).is_none());
        let at_budget = factor_delta(&rank4, 4).expect("rank-4 delta within budget");
        assert_eq!(at_budget.c.cols(), 4);
    }

    #[test]
    fn classify_routes_by_staleness() {
        let a0 = pseudo(12, 8, 61);
        let bound = StalenessBound::default();
        // Identical resubmission: rank-0 low-rank.
        let same = classify_update(&a0, &a0, 0, &bound, 4).unwrap();
        assert_eq!(same.route, UpdateRoute::LowRank { rank: 0 });
        assert_eq!(same.delta_rel, 0.0);
        // Small column perturbation: low-rank with the factored delta.
        let a1 = perturb_cols(&a0, &[2], 0.01, 63);
        let low = classify_update(&a1, &a0, 0, &bound, 4).unwrap();
        assert_eq!(low.route, UpdateRoute::LowRank { rank: 1 });
        assert!(low.factor.is_some());
        // Same delta with the warm budget exhausted: full recompute.
        let tired = classify_update(&a1, &a0, bound.max_warm_solves, &bound, 4).unwrap();
        assert_eq!(
            tired.route,
            UpdateRoute::Full(FallbackReason::WarmBudgetExhausted)
        );
        // Huge delta: full recompute.
        let far = perturb_cols(&a0, &(0..8).collect::<Vec<_>>(), 2.0, 65);
        let stale = classify_update(&far, &a0, 0, &bound, 4).unwrap();
        assert_eq!(
            stale.route,
            UpdateRoute::Full(FallbackReason::DeltaTooLarge)
        );
        assert!(stale.delta_rel > bound.max_delta_rel);
        // Shape change: full recompute.
        let wide = pseudo(12, 4, 67);
        let reshaped = classify_update(&wide, &a0, 0, &bound, 4).unwrap();
        assert_eq!(
            reshaped.route,
            UpdateRoute::Full(FallbackReason::ShapeChanged)
        );
        // Moderate dense delta inside the bound but above the rank
        // budget: warm start.
        let dense = Matrix::from_fn(12, 8, |r, c| a0[(r, c)] + 0.02 * pseudo(12, 8, 69)[(r, c)]);
        let warm = classify_update(&dense, &a0, 0, &bound, 2).unwrap();
        assert_eq!(warm.route, UpdateRoute::WarmStart);
    }

    /// FNV-1a over the shape and element bits of each factor: a hash
    /// that is stable across toolchains, unlike `DefaultHasher`.
    fn factor_bits_hash(factor: &DeltaFactor<f32>) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325_u64;
        let mut eat = |word: u64| {
            for byte in word.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
            }
        };
        for m in [&factor.c, &factor.w] {
            eat(m.rows() as u64);
            eat(m.cols() as u64);
            for &x in m.as_slice() {
                eat(u64::from(x.to_bits()));
            }
        }
        h
    }

    #[test]
    fn one_scan_norms_match_separate_sums() {
        // 21 columns: two lockstep groups plus a 5-column tail.
        let a = pseudo(13, 21, 91);
        let (col, row) = col_row_norms_sq(&a);
        for (j, &sum) in col.iter().enumerate() {
            let alone: f64 = a.col(j).iter().map(|x| x * x).sum();
            assert_eq!(sum.to_bits(), alone.to_bits(), "column {j}");
        }
        for (i, &sum) in row.iter().enumerate() {
            let mut alone = 0.0_f64;
            for j in 0..a.cols() {
                alone += a[(i, j)] * a[(i, j)];
            }
            assert_eq!(sum.to_bits(), alone.to_bits(), "row {i}");
        }
    }

    #[test]
    fn classification_golden_at_128() {
        // Pins the route, `delta_rel` and factor bits of the three
        // low-rank probes on f32 deltas at the serving size, so a
        // rewrite of the classifier's norm passes must stay bit-exact.
        // The row-sparse delta dirties every column (probe 1 fails) and
        // the dense rank-1 bump every row (probe 2 fails).
        let n = 128;
        let a0 = pseudo(n, n, 81);
        let cols = perturb_cols(&a0, &[5, 40, 99], 0.01, 83);
        let mut rows = a0.clone();
        for j in 0..n {
            rows[(17, j)] += 0.01 * ((j * 7 % 5) as f64 - 2.0);
            rows[(90, j)] += 0.02 * ((j * 3 % 7) as f64 - 3.0);
        }
        // Dyadic factors keep the bump exact in f32, so its f32 delta is
        // still exactly rank 1.
        let dense = Matrix::from_fn(n, n, |r, c| {
            let x = (r % 5) as f64 + 1.0;
            let y = (c % 7) as f64 - 3.5;
            a0[(r, c)] + x * y / 512.0
        });
        let prev = a0.cast::<f32>();
        let bound = StalenessBound::default();
        let got: Vec<(UpdateRoute, u64, u64)> = [&cols, &rows, &dense]
            .into_iter()
            .map(|a1| {
                let class = classify_update(&a1.cast::<f32>(), &prev, 0, &bound, 8).unwrap();
                (
                    class.route,
                    class.delta_rel.to_bits(),
                    class.factor.as_ref().map_or(0, factor_bits_hash),
                )
            })
            .collect();
        assert_eq!(
            got,
            [
                (
                    UpdateRoute::LowRank { rank: 3 },
                    0x3f58_bba3_e737_2d87,
                    0x9a7b_4909_4f29_9970
                ),
                (
                    UpdateRoute::LowRank { rank: 2 },
                    0x3f79_f7f1_6837_5330,
                    0x1240_1670_0c9b_787e
                ),
                (
                    UpdateRoute::LowRank { rank: 1 },
                    0x3f97_2393_fc52_3972,
                    0xfc69_c84a_61f7_f547
                ),
            ]
        );
    }

    #[test]
    fn lowrank_update_rejects_mismatched_shapes() {
        let a0 = decaying(12, 0.5, 71);
        let cached = solve_cold(&a0).truncate(&a0, 6).unwrap();
        let bad = DeltaFactor {
            c: Matrix::<f64>::zeros(10, 2),
            w: Matrix::<f64>::zeros(12, 2),
        };
        assert!(lowrank_update(&cached, &bad, &opts()).is_err());
        // Augmented rank exceeding the dimension is rejected too.
        let too_big = DeltaFactor {
            c: Matrix::<f64>::identity(12).columns_range(0, 8),
            w: Matrix::<f64>::identity(12).columns_range(0, 8),
        };
        assert!(lowrank_update(&cached, &too_big, &opts()).is_err());
    }
}
