//! Jacobi plane rotations (Eq. 3–5 of the paper).
//!
//! The one-sided Hestenes–Jacobi method orthogonalizes a pair of columns
//! `(aᵢ, aⱼ)` by post-multiplying with a 2×2 rotation
//!
//! ```text
//! [bᵢ, bⱼ] = [aᵢ, aⱼ] · [ c  -s ]
//!                        [ s   c ]
//! ```
//!
//! chosen such that `bᵢᵀ·bⱼ = 0`. The rotation is computed from the three
//! inner products `α = aᵢᵀaᵢ`, `β = aⱼᵀaⱼ`, `γ = aᵢᵀaⱼ` — exactly the
//! quantities the orth-AIE kernel computes on hardware.
//!
//! The inner products are accumulated in [`VECTOR_LANES`]-wide chunks with
//! one partial accumulator per lane, mirroring the AIE vector unit's
//! 8-lane fp32 MACs, and reduced in a fixed tree order so results are
//! deterministic run to run. For `f32` the accumulation dispatches to the
//! bit-identical AVX kernel in [`crate::simd`] when the CPU supports it.
//! [`column_products_scalar`] keeps the strict sequential accumulation as
//! a reference.

use crate::scalar::Real;
use serde::{Deserialize, Serialize};

/// Accumulator lanes of the modeled AIE vector unit (8 × fp32 per MAC).
pub const VECTOR_LANES: usize = 8;

/// A computed plane rotation `(c, s)` together with the convergence measure
/// of the column pair it was derived from.
///
/// # Example
///
/// ```
/// use svd_kernels::rotation::{compute_rotation, apply_rotation};
///
/// let mut x = vec![3.0_f64, 0.0];
/// let mut y = vec![1.0_f64, 1.0];
/// let rot = compute_rotation(
///     x.iter().map(|v| v * v).sum(),
///     y.iter().map(|v| v * v).sum(),
///     x.iter().zip(&y).map(|(a, b)| a * b).sum(),
/// );
/// apply_rotation(&mut x, &mut y, rot);
/// let dot: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
/// assert!(dot.abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JacobiRotation<T> {
    /// Cosine component `c = 1 / sqrt(1 + t²)`.
    pub c: T,
    /// Sine component `s = t·c` with the sign convention of Eq. (4).
    pub s: T,
    /// Convergence measure `|γ| / sqrt(α·β)` of Eq. (6) *before* rotation.
    pub convergence: T,
    /// `true` when the pair was already orthogonal (within machine noise)
    /// and no rotation needs to be applied.
    pub identity: bool,
}

impl<T: Real> JacobiRotation<T> {
    /// The identity rotation (applied to an already-orthogonal pair).
    pub fn identity() -> Self {
        JacobiRotation {
            c: T::ONE,
            s: T::ZERO,
            convergence: T::ZERO,
            identity: true,
        }
    }
}

/// Computes the Jacobi rotation for a column pair from its inner products.
///
/// `alpha = aᵢᵀaᵢ`, `beta = aⱼᵀaⱼ`, `gamma = aᵢᵀaⱼ` (Eq. 4–5):
///
/// ```text
/// τ = (β − α) / (2γ),   t = sign(τ) / (|τ| + sqrt(1 + τ²)),
/// c = 1 / sqrt(1 + t²), s = t·c
/// ```
///
/// When `gamma` is zero (columns already orthogonal) or either norm is zero
/// (degenerate column), the identity rotation is returned.
pub fn compute_rotation<T: Real>(alpha: T, beta: T, gamma: T) -> JacobiRotation<T> {
    let norm_prod = alpha * beta;
    if gamma == T::ZERO || norm_prod == T::ZERO {
        return JacobiRotation::identity();
    }
    let convergence = gamma.abs() / norm_prod.sqrt();

    // Note on signs: the paper (Eq. 4-5) defines τ with |γ| and folds
    // sign(γ) into s. For the rotation convention of Eq. (3)
    // (B = [aᵢ,aⱼ]·[[c,−s],[s,c]]), the orthogonality condition
    // cs(β−α) + (c²−s²)γ = 0 has the small-magnitude root
    // t = sign(τ)/(|τ| + sqrt(1+τ²)) with τ = (α−β)/(2γ), which is the
    // algebraically equivalent form used here.
    //
    // The τ → t → (c, s) chain runs in f64 and rounds once at the end.
    // In f32 the five chained roundings leave a correlated bias in
    // c² + s² − 1 of order ε/8 per rotation; over the ~n·sweeps
    // applications a column sees during a full SVD the bias compounds
    // into an O(n·sweeps·ε) drift of the column norm (≈ 8e-5 relative at
    // n = 512 — well above the 1e-5 singular-value gate). Rounding the
    // f64 coefficients once leaves only an unbiased ±ε/2 cast error, so
    // the drift reverts to a random walk (observed ≈ 3e-6 at n = 512).
    // For T = f64 the conversions are the identity and nothing changes.
    let tau = (alpha.to_f64() - beta.to_f64()) / (2.0 * gamma.to_f64());
    let sign = if tau < 0.0 { -1.0 } else { 1.0 };
    let t = sign / (tau.abs() + (1.0 + tau * tau).sqrt());
    let c64 = 1.0 / (1.0 + t * t).sqrt();
    let c = T::from_f64(c64);
    let s = T::from_f64(t * c64);
    JacobiRotation {
        c,
        s,
        convergence,
        identity: false,
    }
}

/// Applies the rotation in place to a column pair:
/// `x ← c·x + s·y`, `y ← −s·x + c·y` (the two columns of Eq. 3).
///
/// The identity rotation leaves the data untouched (and costs no FLOPs on
/// the accelerator).
///
/// # Panics
///
/// Panics if the two slices have different lengths.
pub fn apply_rotation<T: Real>(x: &mut [T], y: &mut [T], rot: JacobiRotation<T>) {
    assert_eq!(x.len(), y.len(), "column pair length mismatch");
    if rot.identity {
        return;
    }
    let (c, s) = (rot.c, rot.s);
    if T::simd_apply_rotation(x, y, c, s) {
        return;
    }
    apply_rotation_portable(x, y, c, s);
}

/// The portable apply traversal `x ← c·x + s·y`, `y ← c·y − s·x`, shared
/// by [`apply_rotation`]'s non-SIMD path and the scalar baseline kernel.
///
/// The update is element-independent (no accumulation), so the plain zip
/// loop auto-vectorizes onto packed multiply-adds and is bit-identical to
/// any chunked rewrite of it; only the inner-product reductions need
/// explicit [`VECTOR_LANES`] chunking.
#[inline]
pub fn apply_rotation_portable<T: Real>(x: &mut [T], y: &mut [T], c: T, s: T) {
    for (xi, yi) in x.iter_mut().zip(y.iter_mut()) {
        let xv = *xi;
        let yv = *yi;
        *xi = c * xv + s * yv;
        *yi = c * yv - s * xv;
    }
}

/// Reduces the lane accumulators in a fixed tree order (pairwise, then
/// pairwise again), matching the AIE shift-rotate reduction and keeping
/// the summation order independent of slice length.
#[inline]
pub(crate) fn reduce_lanes<T: Real>(l: [T; VECTOR_LANES]) -> T {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// Inner products `(α, β, γ)` of a column pair, the input to
/// [`compute_rotation`].
///
/// Accumulates in [`VECTOR_LANES`]-wide chunks with one partial sum per
/// lane (the vectorized form the orth-AIE executes), reduced by
/// `reduce_lanes`; the trailing `len % VECTOR_LANES` elements are added
/// sequentially afterwards. The result is deterministic but differs from
/// [`column_products_scalar`] by the usual floating-point reassociation
/// error.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn column_products<T: Real>(x: &[T], y: &[T]) -> (T, T, T) {
    assert_eq!(x.len(), y.len(), "column pair length mismatch");
    if let Some(products) = T::simd_column_products(x, y) {
        return products;
    }
    let split = x.len() - x.len() % VECTOR_LANES;
    let (xv, xt) = x.split_at(split);
    let (yv, yt) = y.split_at(split);
    let mut a = [T::ZERO; VECTOR_LANES];
    let mut b = [T::ZERO; VECTOR_LANES];
    let mut g = [T::ZERO; VECTOR_LANES];
    for (xc, yc) in xv
        .chunks_exact(VECTOR_LANES)
        .zip(yv.chunks_exact(VECTOR_LANES))
    {
        for l in 0..VECTOR_LANES {
            let xi = xc[l];
            let yi = yc[l];
            a[l] += xi * xi;
            b[l] += yi * yi;
            g[l] += xi * yi;
        }
    }
    let mut alpha = reduce_lanes(a);
    let mut beta = reduce_lanes(b);
    let mut gamma = reduce_lanes(g);
    for (&xi, &yi) in xt.iter().zip(yt.iter()) {
        alpha += xi * xi;
        beta += yi * yi;
        gamma += xi * yi;
    }
    (alpha, beta, gamma)
}

/// [`column_products`] with strict sequential accumulation (one running
/// sum per product). This is the pre-vectorization reference used by the
/// hot-path benchmarks and by tests bounding the reassociation error of
/// the chunked kernel.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn column_products_scalar<T: Real>(x: &[T], y: &[T]) -> (T, T, T) {
    assert_eq!(x.len(), y.len(), "column pair length mismatch");
    let mut alpha = T::ZERO;
    let mut beta = T::ZERO;
    let mut gamma = T::ZERO;
    for (&xi, &yi) in x.iter().zip(y.iter()) {
        alpha += xi * xi;
        beta += yi * yi;
        gamma += xi * yi;
    }
    (alpha, beta, gamma)
}

/// [`compute_rotation`] gated by a numerical-noise floor: when either
/// column's squared norm is at or below `floor_sq`, the column is
/// numerically zero (its singular value is below the round-off level of
/// the factorization) and the pair counts as converged.
///
/// Without this gate, a rank-deficient matrix never converges in finite
/// precision: its zero columns keep a noise-level mutual correlation whose
/// Eq. (6) measure stays O(1). Use
/// [`crate::matrix::Matrix::column_norm_floor_sq`] to derive the floor.
pub fn compute_rotation_gated<T: Real>(
    alpha: T,
    beta: T,
    gamma: T,
    floor_sq: T,
) -> JacobiRotation<T> {
    if alpha <= floor_sq || beta <= floor_sq {
        return JacobiRotation::identity();
    }
    compute_rotation(alpha, beta, gamma)
}

/// Orthogonalizes a column pair in place and returns the pre-rotation
/// convergence measure of Eq. (6). This is the exact unit of work performed
/// by one orth-AIE invocation (Algorithm 1, lines 8–12).
pub fn orthogonalize_pair<T: Real>(x: &mut [T], y: &mut [T]) -> T {
    orthogonalize_pair_gated(x, y, T::ZERO)
}

/// [`orthogonalize_pair`] with the numerical-noise gate of
/// [`compute_rotation_gated`]: the fused product → rotation → apply unit
/// of work of one orth-AIE invocation. The product traversal accumulates
/// [`VECTOR_LANES`] wide (AVX-accelerated for `f32` where available, see
/// [`crate::simd`]); identity rotations skip the apply traversal entirely
/// (zero FLOPs on the accelerator).
pub fn orthogonalize_pair_gated<T: Real>(x: &mut [T], y: &mut [T], floor_sq: T) -> T {
    let (alpha, beta, gamma) = column_products(x, y);
    let rot = compute_rotation_gated(alpha, beta, gamma, floor_sq);
    apply_rotation(x, y, rot);
    rot.convergence
}

/// [`orthogonalize_pair_gated`] built on [`column_products_scalar`]: the
/// pre-vectorization hot path, kept as the baseline the hot-path
/// benchmarks compare against.
pub fn orthogonalize_pair_gated_scalar<T: Real>(x: &mut [T], y: &mut [T], floor_sq: T) -> T {
    let (alpha, beta, gamma) = column_products_scalar(x, y);
    let rot = compute_rotation_gated(alpha, beta, gamma, floor_sq);
    if !rot.identity {
        apply_rotation_portable(x, y, rot.c, rot.s);
    }
    rot.convergence
}

/// [`orthogonalize_pair_gated`] with a threshold-Jacobi gate (de Rijk /
/// Demmel–Veselić): the fused α/β/γ products always run, but when the
/// Eq. (6) measure falls below `threshold` the `compute_rotation` tail and
/// the O(n) apply traversal are skipped entirely — the pair is already
/// orthogonal *enough* for this sweep.
///
/// Returns the exact pre-rotation measure either way, so convergence
/// accounting is unaffected by gating. With `threshold == 0` this is
/// bit-identical to [`orthogonalize_pair_gated`] (the measure is
/// non-negative, so the gate never fires).
///
/// A rotation was applied iff the returned measure is positive and
/// `>= threshold` — see [`crate::adaptive::did_rotate`].
pub fn orthogonalize_pair_thresholded<T: Real>(
    x: &mut [T],
    y: &mut [T],
    floor_sq: T,
    threshold: T,
) -> T {
    let (alpha, beta, gamma) = column_products(x, y);
    let rot = compute_rotation_gated(alpha, beta, gamma, floor_sq);
    if rot.convergence >= threshold {
        apply_rotation(x, y, rot);
    }
    rot.convergence
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dot(x: &[f64], y: &[f64]) -> f64 {
        x.iter().zip(y).map(|(a, b)| a * b).sum()
    }

    #[test]
    fn rotation_orthogonalizes_pair() {
        let mut x = vec![1.0, 2.0, 3.0, -1.0];
        let mut y = vec![0.5, -1.0, 2.0, 4.0];
        let conv = orthogonalize_pair(&mut x, &mut y);
        assert!(conv > 0.0);
        assert!(dot(&x, &y).abs() < 1e-12);
    }

    #[test]
    fn rotation_preserves_frobenius_norm() {
        // The rotation is orthogonal, so ||x||² + ||y||² is invariant.
        let mut x = vec![1.0, 2.0, 3.0];
        let mut y = vec![-4.0, 5.0, 6.0];
        let before = dot(&x, &x) + dot(&y, &y);
        orthogonalize_pair(&mut x, &mut y);
        let after = dot(&x, &x) + dot(&y, &y);
        assert!((before - after).abs() < 1e-10 * before);
    }

    #[test]
    fn orthogonal_input_returns_identity() {
        let x = vec![1.0, 0.0];
        let y = vec![0.0, 1.0];
        let (a, b, g) = column_products(&x, &y);
        let rot = compute_rotation(a, b, g);
        assert!(rot.identity);
        assert_eq!(rot.convergence, 0.0);
    }

    #[test]
    fn zero_column_returns_identity() {
        let rot = compute_rotation(0.0, 4.0, 0.0);
        assert!(rot.identity);
    }

    #[test]
    fn convergence_measure_matches_eq6() {
        let x = vec![2.0, 0.0];
        let y = vec![1.0, 1.0];
        let (a, b, g) = column_products(&x, &y);
        let rot = compute_rotation(a, b, g);
        // |γ|/sqrt(αβ) = 2 / sqrt(4·2) = 1/sqrt(2)
        assert!((rot.convergence - 1.0 / 2.0_f64.sqrt()).abs() < 1e-14);
    }

    #[test]
    fn c_s_satisfy_unit_circle() {
        let rot = compute_rotation(3.0, 5.0, 1.5);
        assert!((rot.c * rot.c + rot.s * rot.s - 1.0).abs() < 1e-14);
    }

    #[test]
    fn works_in_f32() {
        let mut x = vec![1.0_f32, 2.0, 3.0];
        let mut y = vec![3.0_f32, -1.0, 0.5];
        orthogonalize_pair(&mut x, &mut y);
        let d: f32 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!(d.abs() < 1e-5);
    }

    #[test]
    fn apply_identity_is_noop() {
        let mut x = vec![1.0, 2.0];
        let mut y = vec![3.0, 4.0];
        apply_rotation(&mut x, &mut y, JacobiRotation::identity());
        assert_eq!(x, vec![1.0, 2.0]);
        assert_eq!(y, vec![3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut x = vec![1.0];
        let mut y = vec![1.0, 2.0];
        let _ = orthogonalize_pair(&mut x, &mut y);
    }

    #[test]
    fn chunked_products_match_scalar_reference() {
        // Lengths around the lane width exercise both the vector body and
        // the scalar tail.
        for n in [1, 5, 7, 8, 9, 16, 23, 64, 100] {
            let x: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 11) as f64 - 5.0).collect();
            let y: Vec<f64> = (0..n).map(|i| ((i * 5 + 1) % 13) as f64 - 6.0).collect();
            let (a1, b1, g1) = column_products(&x, &y);
            let (a2, b2, g2) = column_products_scalar(&x, &y);
            let tol = 1e-12 * (n as f64).max(1.0);
            assert!((a1 - a2).abs() <= tol * a2.abs().max(1.0), "alpha n={n}");
            assert!((b1 - b2).abs() <= tol * b2.abs().max(1.0), "beta n={n}");
            assert!((g1 - g2).abs() <= tol * g2.abs().max(1.0), "gamma n={n}");
        }
    }

    #[test]
    fn chunked_products_are_deterministic() {
        let x: Vec<f32> = (0..97).map(|i| (i as f32 * 0.37).sin()).collect();
        let y: Vec<f32> = (0..97).map(|i| (i as f32 * 0.61).cos()).collect();
        let first = column_products(&x, &y);
        for _ in 0..8 {
            assert_eq!(column_products(&x, &y), first);
        }
    }

    #[test]
    fn fused_and_scalar_paths_orthogonalize_identically_well() {
        let mk = || {
            let x: Vec<f32> = (0..40).map(|i| ((i * 13 + 5) % 17) as f32 - 8.0).collect();
            let y: Vec<f32> = (0..40).map(|i| ((i * 11 + 2) % 19) as f32 - 9.0).collect();
            (x, y)
        };
        let (mut x1, mut y1) = mk();
        let (mut x2, mut y2) = mk();
        let c1 = orthogonalize_pair_gated(&mut x1, &mut y1, 0.0);
        let c2 = orthogonalize_pair_gated_scalar(&mut x2, &mut y2, 0.0);
        assert!((c1 - c2).abs() < 1e-5);
        let d1: f32 = x1.iter().zip(&y1).map(|(a, b)| a * b).sum();
        let d2: f32 = x2.iter().zip(&y2).map(|(a, b)| a * b).sum();
        assert!(d1.abs() < 1e-3 && d2.abs() < 1e-3);
    }

    #[test]
    fn thresholded_with_zero_threshold_is_bit_identical_to_gated() {
        let mk = || {
            let x: Vec<f32> = (0..40).map(|i| ((i * 13 + 5) % 17) as f32 - 8.0).collect();
            let y: Vec<f32> = (0..40).map(|i| ((i * 11 + 2) % 19) as f32 - 9.0).collect();
            (x, y)
        };
        let (mut x1, mut y1) = mk();
        let (mut x2, mut y2) = mk();
        let c1 = orthogonalize_pair_gated(&mut x1, &mut y1, 0.0);
        let c2 = orthogonalize_pair_thresholded(&mut x2, &mut y2, 0.0, 0.0);
        assert_eq!(c1, c2);
        assert_eq!(x1, x2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn thresholded_skips_apply_below_threshold() {
        // Pair with a small but nonzero measure: a threshold above it must
        // leave the columns untouched while still reporting the measure.
        let mut x = vec![1.0_f64, 0.0, 0.0, 0.0];
        let mut y = vec![1e-4_f64, 1.0, 0.0, 0.0];
        let (a, b, g) = column_products(&x, &y);
        let exact = compute_rotation(a, b, g).convergence;
        let before = (x.clone(), y.clone());
        let conv = orthogonalize_pair_thresholded(&mut x, &mut y, 0.0, 1e-2);
        assert_eq!(conv, exact);
        assert!(conv > 0.0 && conv < 1e-2);
        assert_eq!((x, y), before, "gated pair must not be rotated");
    }

    #[test]
    fn thresholded_rotates_at_or_above_threshold() {
        let mut x = vec![1.0_f64, 2.0, 3.0, -1.0];
        let mut y = vec![0.5_f64, -1.0, 2.0, 4.0];
        let conv = orthogonalize_pair_thresholded(&mut x, &mut y, 0.0, 1e-3);
        assert!(conv >= 1e-3);
        assert!(dot(&x, &y).abs() < 1e-12, "pair must be orthogonalized");
    }

    #[test]
    fn tau_sign_symmetry() {
        // Swapping the roles of alpha/beta flips the sign of t (and s).
        let r1 = compute_rotation(2.0, 8.0, 1.0);
        let r2 = compute_rotation(8.0, 2.0, 1.0);
        assert!((r1.s + r2.s).abs() < 1e-14);
        assert!((r1.c - r2.c).abs() < 1e-14);
    }
}
