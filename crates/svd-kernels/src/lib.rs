#![warn(missing_docs)]
#![deny(unsafe_code)]

//! Dense linear algebra and reference SVD kernels.
//!
//! This crate is the mathematical substrate of the HeteroSVD reproduction.
//! It provides:
//!
//! * [`Matrix`] — a column-major dense matrix over [`Real`] scalars
//!   (`f32`/`f64`). Column-major storage mirrors the column-vector view of
//!   the one-sided Jacobi method, where every operation touches whole
//!   columns.
//! * [`rotation`] — the two-sided plane rotation of Eq. (3)–(5) of the
//!   paper, computed from the three inner products of a column pair.
//! * [`adaptive`] — threshold-Jacobi gating and dirty-column pair
//!   skipping: the convergence-adaptive sweep state shared by the host
//!   solvers and the accelerator's functional pipeline.
//! * [`jacobi`] — the reference one-sided Hestenes–Jacobi SVD, the golden
//!   model every accelerator result is checked against.
//! * [`block`] — matrix blocking utilities and the block-Jacobi driver
//!   (Algorithm 1's software analog) used for large problems.
//! * [`approx`] — right-singular-vector recovery and Eckart–Young
//!   low-rank approximation on top of an accelerator factorization.
//! * [`incremental`] — warm-start Jacobi seeding from a cached right
//!   basis and Brand-style low-rank updates of truncated factors, with
//!   the staleness classifier that routes between them and a full
//!   recompute.
//! * [`io`] — CSV matrix reading/writing (the `hsvd` CLI's format).
//! * [`qr`] — Householder QR and QR-preconditioned SVD for tall
//!   matrices (a classic block-Jacobi acceleration).
//! * [`verify`] — reconstruction-error and orthogonality checks.
//!
//! # Example
//!
//! ```
//! use svd_kernels::{jacobi, Matrix};
//!
//! # fn main() -> Result<(), svd_kernels::SvdError> {
//! let a = Matrix::from_fn(8, 8, |r, c| 1.0 / (1.0 + r as f64 + c as f64));
//! let svd = jacobi::hestenes_jacobi(&a, &jacobi::JacobiOptions::default())?;
//! assert!(svd.reconstruction_error(&a) < 1e-10);
//! # Ok(())
//! # }
//! ```

pub mod adaptive;
pub mod approx;
pub mod block;
pub mod incremental;
pub mod io;
pub mod jacobi;
pub mod matrix;
pub mod qr;
pub mod rotation;
pub mod scalar;
// The AVX intrinsics are the only `unsafe` in this crate.
#[allow(unsafe_code)]
pub mod simd;
pub mod verify;

mod error;

pub use approx::TruncatedSvd;
pub use block::{BlockJacobiOptions, BlockPairSchedule, BlockPartition};
pub use error::SvdError;
pub use incremental::{
    classify_update, factor_delta, lowrank_update, warm_start, DeltaFactor, FallbackReason,
    StalenessBound, UpdateClass, UpdateRoute,
};
pub use jacobi::{hestenes_jacobi, JacobiOptions, SvdResult, SweepStats};
pub use matrix::Matrix;
pub use rotation::JacobiRotation;
pub use scalar::Real;
