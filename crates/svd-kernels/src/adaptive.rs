//! Convergence-adaptive sweep state: threshold-Jacobi gating plus
//! dirty-column pair skipping.
//!
//! Classic cyclic Jacobi visits every one of the `n·(n−1)/2` column pairs
//! in every sweep, even in late sweeps where almost all pairs already
//! satisfy the Eq. (6) criterion and the rotation is numerically a no-op.
//! Two classic refinements cut that waste without giving up convergence:
//!
//! 1. **Threshold gating** (de Rijk / Demmel–Veselić): a per-sweep
//!    threshold gates each rotation — after the fused α/β/γ products, a
//!    pair whose measure `|γ|/√(αβ)` falls below the threshold skips the
//!    rotation and the O(n) apply traversal. The schedule
//!    ([`sweep_threshold`]) contracts with the measured convergence and is
//!    floored at the target precision, so a gated rotation is always one
//!    the final accuracy could have absorbed anyway.
//! 2. **Dirty-column pair skipping**: every column carries a version
//!    counter bumped when a rotation touches it, and every pair caches the
//!    measure of its last visit together with the column versions it was
//!    computed from ([`PairVisit`]). If neither column changed since a
//!    visit that was gated, the inner products would be *bitwise
//!    identical* — so the cached measure is reused and even the O(n) dot
//!    products are skipped. This is exact memoization, not an
//!    approximation: only the threshold gate itself perturbs the
//!    iteration.
//!
//! The memoization invariant in one line: a [`PairVisit`] entry stores the
//! *pre-rotation* column versions, and an applied rotation bumps both
//! columns' versions afterwards — so an entry written by a rotating visit
//! can never match and a stale measure can never be replayed.
//!
//! With `threshold == 0` the state is inert (the measure is non-negative,
//! so neither the gate nor the memo can ever fire) and the sweep is
//! bit-identical to the exact engine. All bookkeeping lives in two flat
//! vectors allocated up front, preserving the zero-alloc steady state of
//! the orthogonalization pipeline.

use crate::matrix::Matrix;
use crate::rotation::orthogonalize_pair_thresholded;
use crate::scalar::Real;

/// Convergence level at which the threshold schedule trusts the
/// quadratic tail of one-sided Jacobi (see [`sweep_threshold`]).
///
/// Above this level the iteration is still in its chaotic early phase:
/// gating *any* rotation there defers work whose off-diagonal mass
/// compounds and measurably delays convergence (deferred pairs interact
/// with every rotation sharing a column, so even sub-dominant skips
/// stretch the pre-quadratic phase by whole sweeps). Below it the sweep
/// maximum contracts at least quadratically, and a pair gated at `prev²`
/// sits exactly where the exact sweep would have left it anyway.
pub const QUADRATIC_ONSET: f64 = 1e-2;

/// The per-sweep rotation threshold of the adaptive engine.
///
/// * First sweep (`prev_max_conv == None`) and any sweep while the
///   previous maximum is above [`QUADRATIC_ONSET`]: the target
///   `precision`. Only pairs that already satisfy the final Eq. (6)
///   criterion are gated — skipping them perturbs the factorization at
///   the level the accuracy budget absorbs by definition, so the early
///   trajectory is preserved sweep for sweep.
/// * Once the previous maximum falls below [`QUADRATIC_ONSET`]:
///   `max(precision, prev²)`. In the quadratic regime the exact sweep
///   would contract every measure to ~`prev²` anyway; gating below that
///   level leaves the next sweep's maximum — which gated pairs still
///   feed, since the measure is reported exactly — on the natural
///   trajectory. The threshold stays below `prev`, so the dominant pair
///   always rotates and the iteration cannot livelock.
pub fn sweep_threshold(prev_max_conv: Option<f64>, precision: f64) -> f64 {
    match prev_max_conv {
        Some(prev) if prev < QUADRATIC_ONSET => (prev * prev).max(precision),
        _ => precision,
    }
}

/// `true` when a call to
/// [`orthogonalize_pair_thresholded`] with this measure and threshold
/// applied a rotation: the measure is positive (not the identity) and at
/// or above the gate.
#[inline]
pub fn did_rotate<T: Real>(conv: T, threshold: T) -> bool {
    conv > T::ZERO && conv >= threshold
}

/// Canonical index of the unordered pair `{u, v}` in a flat triangular
/// array: with `i < j`, `pair_id = j·(j−1)/2 + i`, covering
/// `0..cols·(cols−1)/2`.
#[inline]
pub fn pair_id(u: usize, v: usize) -> usize {
    let (i, j) = if u < v { (u, v) } else { (v, u) };
    j * (j - 1) / 2 + i
}

/// One pair's last-visit record: the Eq. (6) measure it computed and the
/// versions both columns had *before* any rotation of that visit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairVisit<T> {
    /// Measure `|γ|/√(αβ)` computed at the last visit.
    pub conv: T,
    /// Version of the lower-indexed column when `conv` was computed.
    pub ver_lo: u32,
    /// Version of the higher-indexed column when `conv` was computed.
    pub ver_hi: u32,
}

/// Dirty-column versions plus the per-pair last-visit cache for one
/// matrix, with the current sweep's threshold.
///
/// Allocated once up front (`cols` version counters plus
/// `cols·(cols−1)/2` cache entries); every visit afterwards is
/// allocation-free.
#[derive(Debug)]
pub struct AdaptiveState<T> {
    threshold: T,
    col_version: Vec<u32>,
    cache: Vec<PairVisit<T>>,
    memo_skips: u64,
    gated_rotations: u64,
}

impl<T: Real> AdaptiveState<T> {
    /// Fresh state for a matrix with `cols` columns. Column versions start
    /// at 1 and cache entries at version 0, so no pair can memo-skip
    /// before its first real visit.
    pub fn new(cols: usize) -> Self {
        AdaptiveState {
            threshold: T::ZERO,
            col_version: vec![1; cols],
            cache: vec![
                PairVisit {
                    conv: T::ZERO,
                    ver_lo: 0,
                    ver_hi: 0,
                };
                cols * cols.saturating_sub(1) / 2
            ],
            memo_skips: 0,
            gated_rotations: 0,
        }
    }

    /// Sets the rotation threshold for the next sweep (see
    /// [`sweep_threshold`]). `0` makes the state inert (exact sweeps).
    pub fn set_threshold(&mut self, threshold: T) {
        self.threshold = threshold;
    }

    /// The current rotation threshold.
    pub fn threshold(&self) -> T {
        self.threshold
    }

    /// Number of visits answered from the pair cache (both columns clean
    /// since a gated visit): even the dot products were skipped.
    pub fn memo_skips(&self) -> u64 {
        self.memo_skips
    }

    /// Number of visits that ran the products but gated the rotation
    /// (measure below the threshold, identity pairs included).
    pub fn gated_rotations(&self) -> u64 {
        self.gated_rotations
    }

    /// Visits the column pair `(u, v)` of `m`: memo-skip when both columns
    /// are clean since a gated visit, otherwise run the threshold-gated
    /// kernel and update the dirty-column/cache state. Returns the exact
    /// Eq. (6) measure of the pair in both cases.
    pub fn visit(&mut self, m: &mut Matrix<T>, u: usize, v: usize, floor_sq: T) -> T {
        let (x, y) = m.col_pair_mut(u, v);
        let (lo, hi) = if u < v { (u, v) } else { (v, u) };
        let pid = pair_id(lo, hi);
        let ver_lo = self.col_version[lo];
        let ver_hi = self.col_version[hi];
        let entry = self.cache[pid];
        if entry.ver_lo == ver_lo && entry.ver_hi == ver_hi && entry.conv < self.threshold {
            // Both columns untouched since a gated visit: the products would
            // be bitwise identical, so the cached measure stands in exactly.
            self.memo_skips += 1;
            return entry.conv;
        }
        let conv = orthogonalize_pair_thresholded(x, y, floor_sq, self.threshold);
        // Record the *pre-rotation* versions: if the rotation fired, the bumps
        // below immediately invalidate this entry, so a stale measure can
        // never be replayed.
        self.cache[pid] = PairVisit {
            conv,
            ver_lo,
            ver_hi,
        };
        if did_rotate(conv, self.threshold) {
            self.col_version[lo] = ver_lo.wrapping_add(1);
            self.col_version[hi] = ver_hi.wrapping_add(1);
        } else {
            self.gated_rotations += 1;
        }
        conv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rotation::orthogonalize_pair_gated;

    fn test_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
        Matrix::from_fn(rows, cols, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state % 2000) as f64 - 1000.0) / 100.0
        })
    }

    #[test]
    fn pair_id_is_a_bijection_over_the_triangle() {
        let cols = 9;
        let mut seen = vec![false; cols * (cols - 1) / 2];
        for j in 1..cols {
            for i in 0..j {
                let id = pair_id(i, j);
                assert_eq!(id, pair_id(j, i), "order-independent");
                assert!(!seen[id], "duplicate id {id} for ({i},{j})");
                seen[id] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn schedule_starts_at_precision_and_contracts() {
        let precision = 1e-6;
        assert_eq!(sweep_threshold(None, precision), precision);
        // Pre-quadratic phase: the gate stays pinned at precision so no
        // trajectory-relevant rotation is ever deferred.
        assert_eq!(sweep_threshold(Some(0.5), precision), precision);
        assert_eq!(sweep_threshold(Some(QUADRATIC_ONSET), precision), precision);
        // Quadratic tail: the gate tracks the natural contraction rate.
        let t = sweep_threshold(Some(1e-3), precision);
        assert_eq!(t, 1e-6);
        assert!(t < 1e-3, "dominant pair stays eligible");
        assert_eq!(
            sweep_threshold(Some(2e-4), precision),
            4e-8_f64.max(precision)
        );
        // Floored at precision once convergence gets close.
        assert_eq!(sweep_threshold(Some(2e-6), precision), precision);
    }

    #[test]
    fn zero_threshold_state_is_inert_and_bit_identical() {
        let mut exact = test_matrix(12, 6, 3);
        let mut adaptive = exact.clone();
        let mut state = AdaptiveState::new(6);
        state.set_threshold(0.0);
        for _ in 0..3 {
            for j in 1..6 {
                for i in 0..j {
                    let (x, y) = exact.col_pair_mut(i, j);
                    let c1 = orthogonalize_pair_gated(x, y, 0.0);
                    let c2 = state.visit(&mut adaptive, i, j, 0.0);
                    assert_eq!(c1, c2);
                }
            }
        }
        assert_eq!(exact.as_slice(), adaptive.as_slice());
        assert_eq!(state.memo_skips(), 0, "nothing can memo-skip at 0");
    }

    #[test]
    fn clean_gated_pair_memo_skips_and_reports_cached_measure() {
        let mut m = test_matrix(10, 4, 7);
        let mut state = AdaptiveState::new(4);
        // Huge threshold: every visit is gated, nothing rotates, so the
        // second full cycle must be answered entirely from the cache.
        state.set_threshold(1e9);
        let mut first = Vec::new();
        for j in 1..4 {
            for i in 0..j {
                first.push(state.visit(&mut m, i, j, 0.0));
            }
        }
        assert_eq!(state.memo_skips(), 0);
        let before = m.as_slice().to_vec();
        let mut second = Vec::new();
        for j in 1..4 {
            for i in 0..j {
                second.push(state.visit(&mut m, i, j, 0.0));
            }
        }
        assert_eq!(first, second, "cached measures are exact");
        assert_eq!(state.memo_skips(), 6);
        assert_eq!(m.as_slice(), &before[..]);
    }

    #[test]
    fn rotation_dirties_both_columns() {
        let mut m = test_matrix(10, 4, 11);
        let mut state = AdaptiveState::new(4);
        // Small threshold: the random pair (0,1) rotates.
        state.set_threshold(1e-12);
        let skips_before = state.memo_skips();
        state.visit(&mut m, 0, 1, 0.0);
        // Both columns now dirty: revisiting (0,1) — and any pair touching
        // column 0 or 1 — must recompute, not memo-skip.
        state.visit(&mut m, 0, 1, 0.0);
        state.visit(&mut m, 1, 2, 0.0);
        assert_eq!(state.memo_skips(), skips_before);
    }

    #[test]
    fn recompute_when_threshold_drops_below_cached_measure() {
        let mut m = test_matrix(10, 4, 5);
        let mut state = AdaptiveState::new(4);
        state.set_threshold(1e9);
        let conv = state.visit(&mut m, 0, 1, 0.0); // gated, cached
        assert!(conv > 0.0);
        // Tighten the threshold below the cached measure: the pair is no
        // longer converged for this sweep and must rotate.
        state.set_threshold(conv / 2.0);
        let skips = state.memo_skips();
        let conv2 = state.visit(&mut m, 0, 1, 0.0);
        assert_eq!(conv, conv2, "clean columns reproduce the measure");
        assert_eq!(state.memo_skips(), skips, "not a memo skip");
        // The rotation fired, so the pair is now (nearly) orthogonal.
        let conv3 = state.visit(&mut m, 0, 1, 0.0);
        assert!(conv3 < conv2);
    }
}
