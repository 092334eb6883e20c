#![warn(missing_docs)]

//! HeteroSVD: a block-Jacobi SVD accelerator on the (simulated) Versal
//! ACAP — reproduction of the DAC 2025 paper's primary contribution.
//!
//! The accelerator executes Algorithm 1 of the paper: a large matrix is
//! split into column blocks; block pairs stream from PL FIFOs through an
//! array of orthogonalization AIEs arranged as `2k−1` layers of `k`
//! orth-AIEs (the shifting ring ordering, §III-B); once the convergence
//! rate of Eq. (6) drops below the target precision, a normalization stage
//! (norm-AIEs) produces `Σ` and `U` (Eq. 7).
//!
//! Because the real hardware is unavailable, the accelerator runs on the
//! [`aie_sim`] substrate: the arithmetic is performed for real in `f32`
//! (so results are numerically genuine and checked against the `f64`
//! golden model), while transfers and kernel invocations are scheduled
//! onto resource timelines to produce cycle-approximate latency, DMA, and
//! utilization statistics.
//!
//! # Quickstart
//!
//! ```
//! use heterosvd::{Accelerator, HeteroSvdConfig};
//! use svd_kernels::Matrix;
//!
//! # fn main() -> Result<(), heterosvd::HeteroSvdError> {
//! let a = Matrix::from_fn(32, 32, |r, c| ((r * 7 + c * 3) % 11) as f64 - 5.0);
//! let config = HeteroSvdConfig::builder(32, 32)
//!     .engine_parallelism(4)
//!     .build()?;
//! let out = Accelerator::new(config)?.run(&a)?;
//! assert!(out.result.reconstruction_error(&a.cast()) < 1e-4);
//! println!("latency = {} ms", out.timing.task_time.as_millis());
//! # Ok(())
//! # }
//! ```

pub mod accelerator;
pub mod apply;
pub mod batch_pool;
pub mod config;
pub mod energy;
pub mod factor_cache;
pub mod norm_pipeline;
pub mod obs;
pub mod orth_pipeline;
pub mod pl_modules;
pub mod placement;
pub mod plan_cache;
pub mod render;
pub mod replay;
pub mod routing;
pub mod svd;
pub mod timing;

mod error;

pub use accelerator::{Accelerator, HeteroSvdOutput, WarmStartCounters};
pub use apply::{ApplyModel, ApplyProfile, ApplyProfileCache, ApplyShape, ApplyTiming};
pub use batch_pool::BatchPool;
pub use config::{FidelityMode, HeteroSvdConfig, HeteroSvdConfigBuilder};
pub use energy::{EnergyBreakdown, EnergyModel};
pub use error::HeteroSvdError;
pub use factor_cache::{ClientBytes, ClientId, FactorCache, FactorCacheEntry, FactorCacheStats};
pub use obs::{JournalSummary, ObsConfig, ResourceKind, SpanJournal, Stage, UtilizationReport};
pub use orth_pipeline::AdaptiveCounters;
pub use placement::{tenant_capacity, tenant_stripe_width, Placement, SubGrid, SubGridAllocator};
pub use plan_cache::CacheStats;
pub use plan_cache::{PlanCache, PlanHandle};
pub use replay::TimingProfile;
pub use routing::{assign_tenant_lanes, PlioPlan, TenantLanes};
pub use timing::TimingBreakdown;
