//! Low-rank approximation utilities on top of an SVD.
//!
//! Algorithm 1 (and therefore the accelerator) outputs `U` and `Σ` only.
//! The applications the paper motivates — beamforming, recommender
//! denoising, compression — need the rank-k approximation
//! `A_k = Σᵢ σᵢ·uᵢ·vᵢᵀ`; the right singular vectors are recovered from
//! `vᵢ = Aᵀuᵢ / σᵢ`, which is exact for the nonzero singular values.

use crate::jacobi::SvdResult;
use crate::matrix::Matrix;
use crate::scalar::Real;
use crate::SvdError;

/// The rank-`r` truncation of an SVD: `U_r` (m×r), `Σ_r` (descending),
/// and `V_r` (n×r), plus the accuracy metadata the Eckart–Young theorem
/// attaches to the cut — the retained-energy fraction
/// `Σ_{i≤r} σᵢ² / Σ σᵢ²` and the tail singular value `σ_{r+1}` (the
/// spectral-norm error of the truncation; zero at full rank).
///
/// This is the unit a factor store serves: applying it to a vector
/// computes `y = U_r·Σ_r·V_rᵀ·x` without ever materializing the rank-r
/// matrix, in `O((m + n)·r)` flops instead of `O(m·n)`.
#[derive(Debug, Clone, PartialEq)]
pub struct TruncatedSvd<T> {
    /// Left singular vectors, one column per retained component (m×r).
    pub u: Matrix<T>,
    /// Retained singular values, sorted descending (length r).
    pub sigma: Vec<T>,
    /// Right singular vectors, one column per retained component (n×r).
    pub v: Matrix<T>,
    /// The first discarded singular value `σ_{r+1}` — the Eckart–Young
    /// spectral-norm error bound. Zero when nothing was discarded.
    pub tail_sigma: T,
    /// Fraction of the squared Frobenius energy the truncation keeps:
    /// `Σ_{i≤r} σᵢ² / Σ σᵢ²` (1.0 for a zero matrix).
    pub retained_energy: f64,
}

impl<T: Real> TruncatedSvd<T> {
    /// Number of retained components.
    pub fn rank(&self) -> usize {
        self.sigma.len()
    }

    /// Row count `m` of the matrix the factors approximate.
    pub fn rows(&self) -> usize {
        self.u.rows()
    }

    /// Column count `n` of the matrix the factors approximate.
    pub fn cols(&self) -> usize {
        self.v.rows()
    }

    /// Approximate resident size of the factors in bytes (the payload a
    /// byte-budgeted store should charge for them).
    pub fn approx_bytes(&self) -> usize {
        let elem = std::mem::size_of::<T>();
        (self.u.rows() * self.u.cols() + self.v.rows() * self.v.cols() + self.sigma.len()) * elem
    }

    /// Applies the full retained rank: `y = U_r·Σ_r·V_rᵀ·x`.
    ///
    /// # Errors
    ///
    /// See [`TruncatedSvd::apply_rank`].
    pub fn apply(&self, x: &[T]) -> Result<Vec<T>, SvdError> {
        self.apply_rank(x, self.rank())
    }

    /// Applies the leading `rank ≤ r` components: `y = U_k·Σ_k·V_kᵀ·x`
    /// over the `rank` largest singular values.
    ///
    /// The evaluation order is fixed — `t = Vᵀx` (per-component dot
    /// products in ascending component order), `s = Σ·t`, then
    /// `y = Σⱼ sⱼ·uⱼ` accumulated component by component — so the result
    /// is bit-identical across calls, stores, and serving replicas.
    ///
    /// # Errors
    ///
    /// * [`SvdError::DimensionMismatch`] — `x.len() != n`.
    /// * [`SvdError::InvalidParameter`] — `rank` is zero or exceeds the
    ///   retained rank.
    pub fn apply_rank(&self, x: &[T], rank: usize) -> Result<Vec<T>, SvdError> {
        if x.len() != self.cols() {
            return Err(SvdError::DimensionMismatch(format!(
                "input has {} elements but the factors expect {}",
                x.len(),
                self.cols()
            )));
        }
        if rank == 0 || rank > self.rank() {
            return Err(SvdError::InvalidParameter(format!(
                "apply rank {rank} outside 1..={}",
                self.rank()
            )));
        }
        let mut y = vec![T::ZERO; self.rows()];
        for j in 0..rank {
            let t: T = self
                .v
                .col(j)
                .iter()
                .zip(x.iter())
                .map(|(&vj, &xi)| vj * xi)
                .sum();
            let s = self.sigma[j] * t;
            if s == T::ZERO {
                continue;
            }
            for (slot, &uj) in y.iter_mut().zip(self.u.col(j).iter()) {
                *slot += s * uj;
            }
        }
        Ok(y)
    }

    /// Materializes the rank-r approximation `A_r = U_r·Σ_r·V_rᵀ`
    /// (diagnostics / tests; serving should use [`TruncatedSvd::apply`]).
    pub fn reconstruct(&self) -> Matrix<T> {
        let (m, n) = (self.rows(), self.cols());
        let mut a = Matrix::zeros(m, n);
        for j in 0..self.rank() {
            let sigma = self.sigma[j];
            if sigma <= T::ZERO {
                continue;
            }
            for c in 0..n {
                let w = sigma * self.v[(c, j)];
                if w == T::ZERO {
                    continue;
                }
                let col = a.col_mut(c);
                for (slot, &ur) in col.iter_mut().zip(self.u.col(j).iter()) {
                    *slot += ur * w;
                }
            }
        }
        a
    }
}

impl<T: Real> SvdResult<T> {
    /// Cuts this factorization to its `rank` largest components,
    /// recovering `V` from `a` when the solver did not accumulate it
    /// (the accelerator never does — see [`SvdResult::recover_v`]).
    /// Only the `rank` retained columns of `V` are recovered, each
    /// bit-identical to the same column of [`SvdResult::recover_v`].
    ///
    /// Components whose singular value sits at the numerical noise
    /// floor (`σⱼ ≤ 64·ε·σ_max`, the same gate [`SvdResult::recover_v`]
    /// applies) keep their σ but get **zero** `u`/`v` columns: past the
    /// matrix's numerical rank the iterate columns are normalized
    /// round-off, not orthonormal directions, and a downstream
    /// [`lowrank_update`](crate::incremental::lowrank_update) projecting
    /// against them would leak energy through the complement.
    ///
    /// # Errors
    ///
    /// * [`SvdError::InvalidParameter`] — `rank` is zero or exceeds the
    ///   number of singular values.
    /// * [`SvdError::DimensionMismatch`] — `a`'s shape does not match
    ///   the factors (checked only when `V` must be recovered).
    pub fn truncate(&self, a: &Matrix<T>, rank: usize) -> Result<TruncatedSvd<T>, SvdError> {
        if let Some(v) = &self.v {
            return self.truncate_with_v(v, rank);
        }
        self.check_rank(rank)?;
        self.check_source(a)?;
        let gate = self.recovery_gate();
        Ok(self.cut(rank, a.cols(), |j, col| self.recover_v_col(a, j, gate, col)))
    }

    /// [`SvdResult::truncate`] against a right basis the caller already
    /// holds — the accumulated `V`, or one from [`SvdResult::recover_v`]
    /// — so a caller that needs the full basis anyway recovers it once.
    ///
    /// # Errors
    ///
    /// * [`SvdError::InvalidParameter`] — `rank` is zero or exceeds the
    ///   number of singular values.
    /// * [`SvdError::DimensionMismatch`] — `v` is not n×n for the
    ///   factors' n columns.
    pub fn truncate_with_v(&self, v: &Matrix<T>, rank: usize) -> Result<TruncatedSvd<T>, SvdError> {
        self.check_rank(rank)?;
        let n = self.sigma.len();
        if v.rows() != n || v.cols() != n {
            return Err(SvdError::DimensionMismatch(format!(
                "right basis is {}x{} but the factors have {n} columns",
                v.rows(),
                v.cols()
            )));
        }
        Ok(self.cut(rank, n, |j, col| col.copy_from_slice(v.col(j))))
    }

    fn check_rank(&self, rank: usize) -> Result<(), SvdError> {
        if rank == 0 || rank > self.sigma.len() {
            return Err(SvdError::InvalidParameter(format!(
                "truncation rank {rank} outside 1..={}",
                self.sigma.len()
            )));
        }
        Ok(())
    }

    /// The truncation proper: `v_col(j, out)` fills the right singular
    /// vector of component `j` into the zeroed column `out` (n long).
    fn cut(
        &self,
        rank: usize,
        n: usize,
        mut v_col: impl FnMut(usize, &mut [T]),
    ) -> TruncatedSvd<T> {
        let order = self.descending_order();
        let m = self.u.rows();
        let sigma_max = order.first().map_or(T::ZERO, |&j| self.sigma[j]);
        let gate = T::from_f64(64.0) * T::EPSILON * sigma_max;
        let mut u = Matrix::zeros(m, rank);
        let mut v = Matrix::zeros(n, rank);
        let mut sigma = Vec::with_capacity(rank);
        for (slot, &j) in order.iter().take(rank).enumerate() {
            if self.sigma[j] > gate {
                u.col_mut(slot).copy_from_slice(self.u.col(j));
                v_col(j, v.col_mut(slot));
            }
            sigma.push(self.sigma[j]);
        }
        let tail_sigma = order
            .get(rank)
            .map_or(T::ZERO, |&j| self.sigma[j].max(T::ZERO));
        let total: f64 = self.sigma.iter().map(|s| s.to_f64() * s.to_f64()).sum();
        let kept: f64 = sigma.iter().map(|s| s.to_f64() * s.to_f64()).sum();
        let retained_energy = if total > 0.0 { kept / total } else { 1.0 };
        TruncatedSvd {
            u,
            sigma,
            v,
            tail_sigma,
            retained_energy,
        }
    }
}

impl<T: Real> SvdResult<T> {
    /// Recovers the right singular vectors from the original matrix:
    /// `vⱼ = Aᵀuⱼ / σⱼ`.
    ///
    /// Columns whose singular value sits at the numerical noise floor
    /// (`σⱼ ≤ 64·ε·σ_max`) become zero columns: dividing by a noise-level
    /// σ amplifies round-off into garbage directions whose contributions
    /// would *worsen* any reconstruction built from them.
    ///
    /// Useful when the factorization came from the accelerator, which —
    /// like Algorithm 1 — does not accumulate `V`.
    ///
    /// # Errors
    ///
    /// Returns [`SvdError::DimensionMismatch`] when `a`'s shape does not
    /// match the factors.
    pub fn recover_v(&self, a: &Matrix<T>) -> Result<Matrix<T>, SvdError> {
        self.check_source(a)?;
        let n = a.cols();
        let gate = self.recovery_gate();
        let mut v = Matrix::zeros(n, n);
        for j in 0..n {
            self.recover_v_col(a, j, gate, v.col_mut(j));
        }
        Ok(v)
    }

    fn check_source(&self, a: &Matrix<T>) -> Result<(), SvdError> {
        if a.rows() != self.u.rows() || a.cols() != self.u.cols() {
            return Err(SvdError::DimensionMismatch(format!(
                "matrix is {}x{} but factors are {}x{}",
                a.rows(),
                a.cols(),
                self.u.rows(),
                self.u.cols()
            )));
        }
        Ok(())
    }

    /// The noise floor `64·ε·σ_max` below which no `V` column is
    /// recovered.
    fn recovery_gate(&self) -> T {
        let sigma_max = self
            .sigma
            .iter()
            .fold(T::ZERO, |acc, &s| if s > acc { s } else { acc });
        T::from_f64(64.0) * T::EPSILON * sigma_max
    }

    /// Writes `vⱼ = Aᵀuⱼ / σⱼ` into the zeroed column `out`, leaving it
    /// zero when `σⱼ ≤ gate`.
    fn recover_v_col(&self, a: &Matrix<T>, j: usize, gate: T, out: &mut [T]) {
        let sigma = self.sigma[j];
        if sigma <= gate {
            return;
        }
        let u_j = self.u.col(j);
        for (c, slot) in out.iter_mut().enumerate() {
            let dot: T = a.col(c).iter().zip(u_j.iter()).map(|(&x, &y)| x * y).sum();
            *slot = dot / sigma;
        }
    }

    /// Indices of the singular values sorted descending.
    pub fn descending_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.sigma.len()).collect();
        order.sort_by(|&a, &b| {
            self.sigma[b]
                .partial_cmp(&self.sigma[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        order
    }

    /// The best rank-`k` approximation `A_k = Σᵢ σᵢ·uᵢ·vᵢᵀ` over the `k`
    /// largest singular values (Eckart–Young optimal in Frobenius norm).
    ///
    /// # Example
    ///
    /// ```
    /// use svd_kernels::{hestenes_jacobi, JacobiOptions, Matrix};
    ///
    /// # fn main() -> Result<(), svd_kernels::SvdError> {
    /// let a = Matrix::from_fn(6, 4, |r, c| (r + 1) as f64 * (c + 1) as f64);
    /// let svd = hestenes_jacobi(&a, &JacobiOptions::default())?;
    /// // A is rank one: its rank-1 approximation is exact.
    /// let a1 = svd.low_rank_approximation(&a, 1)?;
    /// assert!(a1.sub(&a)?.frobenius_norm() < 1e-9);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// * [`SvdError::InvalidParameter`] when `k` exceeds the number of
    ///   singular values.
    /// * [`SvdError::DimensionMismatch`] from [`SvdResult::recover_v`].
    pub fn low_rank_approximation(&self, a: &Matrix<T>, k: usize) -> Result<Matrix<T>, SvdError> {
        if k > self.sigma.len() {
            return Err(SvdError::InvalidParameter(format!(
                "rank {k} exceeds the {} singular values",
                self.sigma.len()
            )));
        }
        let v = match &self.v {
            Some(v) => v.clone(),
            None => self.recover_v(a)?,
        };
        let order = self.descending_order();
        let (rows, cols) = (self.u.rows(), v.rows());
        let mut approx = Matrix::zeros(rows, cols);
        for &j in order.iter().take(k) {
            let sigma = self.sigma[j];
            if sigma <= T::ZERO {
                continue;
            }
            let u_j = self.u.col(j);
            for c in 0..cols {
                let w = sigma * v[(c, j)];
                if w == T::ZERO {
                    continue;
                }
                let col = approx.col_mut(c);
                for (slot, &ur) in col.iter_mut().zip(u_j.iter()) {
                    *slot += ur * w;
                }
            }
        }
        Ok(approx)
    }

    /// Numerical rank: singular values above `tol · σ_max`.
    pub fn rank(&self, tol: f64) -> usize {
        let max = self
            .sigma
            .iter()
            .map(|s| s.to_f64())
            .fold(0.0_f64, f64::max);
        if max == 0.0 {
            return 0;
        }
        self.sigma.iter().filter(|s| s.to_f64() > tol * max).count()
    }

    /// Nuclear norm `Σ σᵢ` (used for compression/energy diagnostics).
    pub fn nuclear_norm(&self) -> f64 {
        self.sigma.iter().map(|s| s.to_f64()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jacobi::{hestenes_jacobi, JacobiOptions};
    use crate::verify;

    fn sample(m: usize, n: usize) -> Matrix<f64> {
        Matrix::from_fn(m, n, |r, c| {
            ((r * 31 + c * 7 + 3) % 17) as f64 / 4.0 - 2.0 + if r == c { 2.0 } else { 0.0 }
        })
    }

    fn svd_without_v(a: &Matrix<f64>) -> SvdResult<f64> {
        hestenes_jacobi(
            a,
            &JacobiOptions {
                compute_v: false,
                precision: 1e-13,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn recovered_v_matches_accumulated_v() {
        let a = sample(10, 6);
        let with_v = hestenes_jacobi(&a, &JacobiOptions::default()).unwrap();
        let without_v = svd_without_v(&a);
        let v_acc = with_v.v.as_ref().unwrap();
        let v_rec = without_v.recover_v(&a).unwrap();
        // Columns may differ in order between the two runs; compare via
        // reconstruction instead.
        let err = verify::reconstruction_error(&a, &without_v.u, &without_v.sigma, &v_rec);
        assert!(err < 1e-10, "reconstruction via recovered V: {err}");
        let err_acc = verify::reconstruction_error(&a, &with_v.u, &with_v.sigma, v_acc);
        assert!(err_acc < 1e-10);
    }

    #[test]
    fn recover_v_is_orthogonal() {
        let a = sample(12, 8);
        let svd = svd_without_v(&a);
        let v = svd.recover_v(&a).unwrap();
        assert!(verify::column_orthogonality_error(&v) < 1e-8);
    }

    #[test]
    fn recover_v_shape_mismatch_errors() {
        let a = sample(10, 6);
        let svd = svd_without_v(&a);
        let wrong = sample(8, 6);
        assert!(matches!(
            svd.recover_v(&wrong),
            Err(SvdError::DimensionMismatch(_))
        ));
    }

    #[test]
    fn full_rank_approximation_reconstructs() {
        let a = sample(9, 5);
        let svd = svd_without_v(&a);
        let full = svd.low_rank_approximation(&a, 5).unwrap();
        let err = full.sub(&a).unwrap().frobenius_norm() / a.frobenius_norm();
        assert!(err < 1e-10, "full-rank reconstruction error {err}");
    }

    #[test]
    fn truncation_error_is_tail_energy() {
        // Eckart-Young: ||A - A_k||_F^2 = sum of discarded sigma^2.
        let a = sample(10, 6);
        let svd = svd_without_v(&a);
        let order = svd.descending_order();
        for k in [1usize, 3, 5] {
            let ak = svd.low_rank_approximation(&a, k).unwrap();
            let err = ak.sub(&a).unwrap().frobenius_norm();
            let tail: f64 = order[k..]
                .iter()
                .map(|&j| svd.sigma[j] * svd.sigma[j])
                .sum::<f64>()
                .sqrt();
            assert!(
                (err - tail).abs() < 1e-9 * a.frobenius_norm().max(1.0),
                "k={k}: err {err} vs tail {tail}"
            );
        }
    }

    #[test]
    fn rank_detects_planted_rank() {
        let left = sample(12, 3);
        let right = sample(3, 7);
        let a = left.matmul(&right).unwrap();
        let svd = hestenes_jacobi(&a, &JacobiOptions::default()).unwrap();
        assert_eq!(svd.rank(1e-9), 3);
    }

    #[test]
    fn oversized_rank_rejected() {
        let a = sample(6, 4);
        let svd = svd_without_v(&a);
        assert!(matches!(
            svd.low_rank_approximation(&a, 5),
            Err(SvdError::InvalidParameter(_))
        ));
    }

    #[test]
    fn nuclear_norm_sums_singular_values() {
        let mut a: Matrix<f64> = Matrix::zeros(3, 3);
        a[(0, 0)] = 3.0;
        a[(1, 1)] = 2.0;
        let svd = hestenes_jacobi(&a, &JacobiOptions::default()).unwrap();
        assert!((svd.nuclear_norm() - 5.0).abs() < 1e-10);
    }

    #[test]
    fn noise_floor_sigmas_do_not_pollute_reconstruction() {
        // A rank-2 matrix factorized in low precision: singular values
        // beyond the true rank are round-off noise. Including them in a
        // "higher rank" approximation must not make it worse (this was a
        // real bug: v = A^T u / sigma amplifies noise for tiny sigma).
        let left = sample(12, 2);
        let right = sample(2, 8);
        let a = left.matmul(&right).unwrap();
        let a32: Matrix<f32> = a.cast();
        let svd32 = hestenes_jacobi(
            &a32,
            &JacobiOptions {
                precision: 1e-6,
                compute_v: false,
                ..Default::default()
            },
        )
        .unwrap();
        let norm = a32.frobenius_norm();
        let err_at = |k: usize| {
            let ak = svd32.low_rank_approximation(&a32, k).unwrap();
            ak.sub(&a32).unwrap().frobenius_norm() / norm
        };
        let e2 = err_at(2);
        let e8 = err_at(8);
        assert!(e2 < 1e-5, "rank-2 error {e2}");
        assert!(
            e8 <= e2 * 1.01 + 1e-6,
            "rank-8 error {e8} worse than rank-2 {e2}"
        );
    }

    #[test]
    fn zero_rank_of_zero_matrix() {
        let a: Matrix<f64> = Matrix::zeros(4, 4);
        let svd = hestenes_jacobi(&a, &JacobiOptions::default()).unwrap();
        assert_eq!(svd.rank(1e-12), 0);
        let ak = svd.low_rank_approximation(&a, 2).unwrap();
        assert_eq!(ak.frobenius_norm(), 0.0);
    }

    #[test]
    fn truncate_reconstruct_matches_low_rank_approximation() {
        let a = sample(10, 6);
        let svd = svd_without_v(&a);
        for k in [1usize, 3, 6] {
            let trunc = svd.truncate(&a, k).unwrap();
            assert_eq!(trunc.rank(), k);
            assert_eq!(trunc.rows(), 10);
            assert_eq!(trunc.cols(), 6);
            let direct = svd.low_rank_approximation(&a, k).unwrap();
            let err = trunc.reconstruct().sub(&direct).unwrap().frobenius_norm();
            assert!(err < 1e-10 * a.frobenius_norm(), "k={k}: {err}");
        }
    }

    #[test]
    fn truncate_sigma_is_descending_with_tail_metadata() {
        let a = sample(12, 8);
        let svd = svd_without_v(&a);
        let trunc = svd.truncate(&a, 3).unwrap();
        assert!(trunc.sigma.windows(2).all(|w| w[0] >= w[1]));
        let order = svd.descending_order();
        assert!((trunc.tail_sigma - svd.sigma[order[3]]).abs() < 1e-12);
        assert!(trunc.retained_energy > 0.0 && trunc.retained_energy < 1.0);
        let full = svd.truncate(&a, 8).unwrap();
        assert_eq!(full.tail_sigma, 0.0);
        assert!((full.retained_energy - 1.0).abs() < 1e-12);
    }

    #[test]
    fn truncate_past_numerical_rank_zeroes_dead_columns() {
        // An exactly rank-3 matrix truncated to rank 6: the three dead
        // components keep their (noise-level) σ but their u/v columns
        // must be exactly zero, so the cached factors stay a valid
        // partial isometry for downstream Brand updates.
        let g = sample(12, 3);
        let h = sample(8, 3);
        let a = g.matmul(&h.transpose()).unwrap();
        let svd = hestenes_jacobi(&a, &JacobiOptions::default()).unwrap();
        let t = svd.truncate(&a, 6).unwrap();
        assert_eq!(t.rank(), 6);
        for j in 3..6 {
            assert!(t.u.col(j).iter().all(|&x| x == 0.0), "u col {j} not zero");
            assert!(t.v.col(j).iter().all(|&x| x == 0.0), "v col {j} not zero");
        }
        // Live columns stay orthonormal and reconstruct A.
        let recon_err = a.sub(&t.reconstruct()).unwrap().frobenius_norm() / a.frobenius_norm();
        assert!(recon_err < 1e-10, "reconstruction error {recon_err}");
    }

    #[test]
    fn truncate_matches_a_truncation_of_the_full_recovered_v_bit_for_bit() {
        // `truncate` recovers only the kept columns of V. Every rank must
        // match a truncation built from the full `recover_v` bit for bit,
        // in f32 (the serving precision) and f64, including past the
        // numerical rank where the noise gate zeroes columns.
        fn bits<T: Real>(xs: &[T]) -> Vec<u64> {
            xs.iter().map(|x| x.to_f64().to_bits()).collect()
        }
        fn check<T: Real>(a: &Matrix<T>, precision: f64) {
            let svd = hestenes_jacobi(
                a,
                &JacobiOptions {
                    compute_v: false,
                    precision,
                    ..Default::default()
                },
            )
            .unwrap();
            let v_full = svd.recover_v(a).unwrap();
            let order = svd.descending_order();
            for rank in 1..=svd.sigma.len() {
                let t = svd.truncate(a, rank).unwrap();
                let reference = svd.truncate_with_v(&v_full, rank).unwrap();
                assert_eq!(bits(t.u.as_slice()), bits(reference.u.as_slice()));
                assert_eq!(bits(t.v.as_slice()), bits(reference.v.as_slice()));
                assert_eq!(t.sigma, reference.sigma);
                assert_eq!(t.tail_sigma, reference.tail_sigma);
                assert_eq!(t.retained_energy, reference.retained_energy);
                // Each live column is the recovered column itself.
                for (slot, &j) in order.iter().take(rank).enumerate() {
                    if t.u.col(slot).iter().any(|&x| x != T::ZERO) {
                        assert_eq!(bits(t.v.col(slot)), bits(v_full.col(j)), "rank {rank}");
                    }
                }
            }
        }
        check(&sample(12, 8), 1e-13);
        check::<f32>(&sample(12, 8).cast(), 1e-6);
        let deficient = sample(12, 3).matmul(&sample(8, 3).transpose()).unwrap();
        check(&deficient, 1e-13);
        check::<f32>(&deficient.cast(), 1e-6);
    }

    #[test]
    fn truncate_with_v_rejects_a_misshapen_basis() {
        let a = sample(10, 6);
        let svd = svd_without_v(&a);
        assert!(matches!(
            svd.truncate_with_v(&Matrix::zeros(6, 5), 2),
            Err(SvdError::DimensionMismatch(_))
        ));
    }

    #[test]
    fn apply_matches_materialized_matvec() {
        let a = sample(9, 5);
        let svd = svd_without_v(&a);
        let trunc = svd.truncate(&a, 4).unwrap();
        let x: Vec<f64> = (0..5).map(|i| (i as f64) * 0.5 - 1.0).collect();
        let y = trunc.apply(&x).unwrap();
        let ak = trunc.reconstruct();
        for (r, &yr) in y.iter().enumerate() {
            let direct: f64 = (0..5).map(|c| ak[(r, c)] * x[c]).sum();
            assert!((yr - direct).abs() < 1e-9, "row {r}: {yr} vs {direct}");
        }
    }

    #[test]
    fn apply_rank_prefix_matches_smaller_truncation() {
        // Applying rank k through a rank-r store entry must equal the
        // rank-k truncation applied at full rank: prefix semantics.
        let a = sample(10, 6);
        let svd = svd_without_v(&a);
        let big = svd.truncate(&a, 5).unwrap();
        let small = svd.truncate(&a, 2).unwrap();
        let x: Vec<f64> = (0..6).map(|i| 1.0 - (i as f64) * 0.3).collect();
        let via_big = big.apply_rank(&x, 2).unwrap();
        let via_small = small.apply(&x).unwrap();
        assert_eq!(via_big, via_small);
    }

    #[test]
    fn apply_is_deterministic_in_f32() {
        let a = sample(16, 8);
        let a32: Matrix<f32> = a.cast();
        let svd = hestenes_jacobi(
            &a32,
            &JacobiOptions {
                precision: 1e-6,
                compute_v: false,
                ..Default::default()
            },
        )
        .unwrap();
        let trunc = svd.truncate(&a32, 4).unwrap();
        let x: Vec<f32> = (0..8).map(|i| (i as f32) * 0.25 - 1.0).collect();
        let first = trunc.apply(&x).unwrap();
        for _ in 0..4 {
            assert_eq!(trunc.apply(&x).unwrap(), first);
        }
    }

    #[test]
    fn truncate_and_apply_reject_bad_arguments() {
        let a = sample(8, 4);
        let svd = svd_without_v(&a);
        assert!(matches!(
            svd.truncate(&a, 0),
            Err(SvdError::InvalidParameter(_))
        ));
        assert!(matches!(
            svd.truncate(&a, 5),
            Err(SvdError::InvalidParameter(_))
        ));
        let trunc = svd.truncate(&a, 2).unwrap();
        assert!(matches!(
            trunc.apply(&[1.0; 3]),
            Err(SvdError::DimensionMismatch(_))
        ));
        assert!(matches!(
            trunc.apply_rank(&[1.0; 4], 3),
            Err(SvdError::InvalidParameter(_))
        ));
        assert!(matches!(
            trunc.apply_rank(&[1.0; 4], 0),
            Err(SvdError::InvalidParameter(_))
        ));
    }

    #[test]
    fn approx_bytes_counts_factor_payload() {
        let a = sample(10, 6);
        let svd = svd_without_v(&a);
        let trunc = svd.truncate(&a, 3).unwrap();
        // f64: (10*3 + 6*3 + 3) * 8 bytes.
        assert_eq!(trunc.approx_bytes(), (30 + 18 + 3) * 8);
    }
}
