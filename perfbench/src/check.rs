//! Output checks, run after the timed window.
//!
//! * Sampled decompose factors must be bit-identical to a solo
//!   `Accelerator` built from `ServeConfig::accelerator_config`, and
//!   their σ within [`SIGMA_TOL`] of an f64 `hestenes_jacobi`.
//! * Every apply `y` must be bit-identical to
//!   `TruncatedSvd::apply_rank` on the version pinned in its response,
//!   and within [`APPLY_TOL`] of the same product evaluated in f64.
//! * Sampled update σ must be within [`SIGMA_TOL`] (full route),
//!   [`WARM_TOL`] (warm start) or [`LOWRANK_TOL`] (low-rank route,
//!   which serves the cached truncation) of an f64 SVD of the
//!   submitted matrix.

use crate::load::{hash_bits, Kind, Output, Record, Versions};
use heterosvd::Accelerator;
use heterosvd_serve::{PublishedFactors, ServeConfig};
use std::collections::BTreeMap;
use std::sync::Arc;
use svd_kernels::incremental::UpdateRoute;
use svd_kernels::{hestenes_jacobi, JacobiOptions, Matrix};

/// Largest σ error (relative to σ_max) of a full factorization.
pub const SIGMA_TOL: f64 = 1e-4;
/// Largest σ error of a warm-started update: seeding from the cached
/// basis, possibly after several non-full solves, costs one to two
/// digits against a cold solve (up to 1.03e-3 seen on the
/// `update-drift` inputs).
pub const WARM_TOL: f64 = 1e-2;
/// Largest σ error of the low-rank route's truncated spectrum (up to
/// 4e-3 seen on the `update-drift` inputs, whose spectra are not low
/// rank).
pub const LOWRANK_TOL: f64 = 1e-2;
/// Largest relative error of an apply `y` against its f64 evaluation.
pub const APPLY_TOL: f64 = 1e-4;

/// The outcome of checking one run's outputs.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Outputs checked.
    pub checked: usize,
    /// Indices (into the records) of outputs that failed a check, with
    /// the reason.
    pub wrong: Vec<(usize, String)>,
    /// Largest relative error seen against an f64 reference.
    pub out_err_max: f64,
}

impl CheckReport {
    /// Adds the report of a later batch of records, whose indices start
    /// at `offset`.
    pub fn absorb(&mut self, other: CheckReport, offset: usize) {
        self.checked += other.checked;
        self.wrong
            .extend(other.wrong.into_iter().map(|(i, why)| (i + offset, why)));
        self.out_err_max = self.out_err_max.max(other.out_err_max);
    }
}

/// Checks every kept output in `records`.
pub fn check(config: &ServeConfig, records: &[Record], versions: &Versions) -> CheckReport {
    let mut report = CheckReport::default();
    let mut solo: BTreeMap<usize, Accelerator> = BTreeMap::new();
    let mut apply_hashes = BTreeMap::new();
    for (i, rec) in records.iter().enumerate() {
        if !rec.ok() {
            continue;
        }
        let verdict = match (&rec.output, &rec.check, rec.kind) {
            (Output::Decompose { u, sigma }, Some(a), Kind::Decompose) => {
                check_decompose(config, &mut solo, a, u, sigma)
            }
            (
                Output::Apply {
                    x,
                    model,
                    version,
                    rank,
                    y_hash,
                    y,
                },
                _,
                Kind::Apply,
            ) => match versions.get(&(model.0, *version)) {
                Some(f) => check_apply(f, x, *rank, *y_hash, y.as_deref(), &mut apply_hashes),
                None => Err(format!("{model} v{version} was never seen in the store")),
            },
            (Output::Update { sigma }, Some(a), Kind::Update) => {
                let tol = match rec.route {
                    Some(UpdateRoute::LowRank { .. }) => LOWRANK_TOL,
                    Some(UpdateRoute::WarmStart) => WARM_TOL,
                    _ => SIGMA_TOL,
                };
                sigma_error(a, sigma).and_then(|err| {
                    if err <= tol {
                        Ok(err)
                    } else {
                        Err(format!(
                            "update σ error {err:.3e} > {tol:.0e} on route {:?}",
                            rec.route
                        ))
                    }
                })
            }
            _ => continue,
        };
        report.checked += 1;
        match verdict {
            Ok(err) => report.out_err_max = report.out_err_max.max(err),
            Err(why) => report.wrong.push((i, why)),
        }
    }
    report
}

fn check_decompose(
    config: &ServeConfig,
    solo: &mut BTreeMap<usize, Accelerator>,
    a: &Matrix<f64>,
    u: &Matrix<f32>,
    sigma: &[f32],
) -> Result<f64, String> {
    let n = a.cols();
    let accelerator = match solo.entry(n) {
        std::collections::btree_map::Entry::Occupied(e) => e.into_mut(),
        std::collections::btree_map::Entry::Vacant(e) => {
            let cfg = config
                .accelerator_config((a.rows(), n))
                .map_err(|e| e.to_string())?;
            e.insert(Accelerator::new(cfg).map_err(|e| e.to_string())?)
        }
    };
    let reference = accelerator
        .run_f32(&a.cast::<f32>())
        .map_err(|e| format!("solo accelerator: {e}"))?;
    let same_bits = |x: &[f32], y: &[f32]| {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    if !same_bits(reference.result.u.as_slice(), u.as_slice())
        || !same_bits(&reference.result.sigma, sigma)
    {
        return Err(format!("{n}x{n} factors differ from the solo accelerator"));
    }
    let err = sigma_error(a, sigma)?;
    if err > SIGMA_TOL {
        return Err(format!("decompose σ error {err:.3e} > {SIGMA_TOL:.0e}"));
    }
    Ok(err)
}

/// Largest `|σ_served − σ_ref| / σ_ref_max` over the served values,
/// matched in descending order against an f64 reference SVD of `a`.
pub fn sigma_error(a: &Matrix<f64>, served: &[f32]) -> Result<f64, String> {
    let opts = JacobiOptions {
        compute_v: false,
        ..JacobiOptions::default()
    };
    let reference = hestenes_jacobi(a, &opts)
        .map_err(|e| format!("f64 reference: {e}"))?
        .sorted_singular_values();
    let mut got: Vec<f64> = served.iter().map(|&s| f64::from(s)).collect();
    got.sort_by(|p, q| q.total_cmp(p));
    if got.len() > reference.len() || got.is_empty() {
        return Err(format!("served {} singular values", got.len()));
    }
    let scale = reference[0].max(f64::MIN_POSITIVE);
    Ok(reference
        .iter()
        .zip(&got)
        .map(|(r, g)| (r - g).abs() / scale)
        .fold(0.0, f64::max))
}

/// The hash of `apply_rank`'s `y` per (model, version, rank, input):
/// inputs come from a shared pool, so most applies repeat one.
type ApplyHashes = BTreeMap<(u64, u64, usize, *const Vec<f64>), u64>;

fn check_apply(
    f: &PublishedFactors,
    x: &Arc<Vec<f64>>,
    rank: usize,
    y_hash: u64,
    y: Option<&[f32]>,
    hashes: &mut ApplyHashes,
) -> Result<f64, String> {
    let differs = || {
        Err(format!(
            "apply y differs from apply_rank on {} v{}",
            f.model, f.version
        ))
    };
    let key = (f.model.0, f.version, rank, Arc::as_ptr(x));
    if let (None, Some(&expected)) = (y, hashes.get(&key)) {
        return if expected == y_hash {
            Ok(0.0)
        } else {
            differs()
        };
    }
    let x32: Vec<f32> = x.iter().map(|&v| v as f32).collect();
    let expected = f
        .factors
        .apply_rank(&x32, rank)
        .map_err(|e| format!("apply_rank: {e}"))?;
    let hash = hash_bits(&expected);
    hashes.insert(key, hash);
    if hash != y_hash || y.is_some_and(|y| y != expected.as_slice()) {
        return differs();
    }
    let Some(y) = y else { return Ok(0.0) };
    // The same product in f64 over the same (f32) factors.
    let t = &f.factors;
    let mut y64 = vec![0.0f64; t.rows()];
    for j in 0..rank {
        let dot: f64 =
            t.v.col(j)
                .iter()
                .zip(&x32)
                .map(|(&v, &xi)| f64::from(v) * f64::from(xi))
                .sum();
        let s = f64::from(t.sigma[j]) * dot;
        for (acc, &uj) in y64.iter_mut().zip(t.u.col(j)) {
            *acc += s * f64::from(uj);
        }
    }
    let norm = y64.iter().map(|v| v * v).sum::<f64>().sqrt();
    let diff = y64
        .iter()
        .zip(y)
        .map(|(r, &g)| (r - f64::from(g)).powi(2))
        .sum::<f64>()
        .sqrt();
    let err = diff / norm.max(f64::MIN_POSITIVE);
    if err > APPLY_TOL {
        return Err(format!("apply y error {err:.3e} > {APPLY_TOL:.0e}"));
    }
    Ok(err)
}
