//! Hot-path microbenchmark: the orthogonalization sweep.
//!
//! One variant, **optimized-serial**, runs the functional workload (one
//! full round-robin sweep over every block pair) through the
//! `OrthPipeline`: hoisted scratch, chunked 8-lane kernels, a shared
//! [`heterosvd::PlanHandle`], and the one serial rotation path.
//!
//! Reported: mean ns per block-pair pass, full sweeps per second, heap
//! allocations per pass (from a counting allocator the calling binary
//! installs), and a matrix checksum after the measured sweeps, which a
//! test pins bit for bit.

use heterosvd::orth_pipeline::OrthPipeline;
use heterosvd::{HeteroSvdConfig, HeteroSvdError, PlanHandle};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use svd_kernels::block::{BlockPairSchedule, BlockPartition};
use svd_kernels::Matrix;

/// Counting [`GlobalAlloc`] for the binaries that drive this benchmark.
///
/// Delegates to [`System`] and counts every `alloc`/`realloc`; install
/// with `#[global_allocator]` and pass `&|| ALLOC.count()` to [`run`] so
/// allocations-per-pass can be reported.
pub struct CountingAllocator {
    count: AtomicU64,
}

impl CountingAllocator {
    /// A fresh zero-count allocator (const so it can back a static).
    pub const fn new() -> Self {
        CountingAllocator {
            count: AtomicU64::new(0),
        }
    }

    /// Allocations (plus reallocations) observed so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

impl Default for CountingAllocator {
    fn default() -> Self {
        CountingAllocator::new()
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.count.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// One measured variant of the sweep hot path.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct HotpathRow {
    /// Always `optimized-serial`, the one rotation path.
    pub variant: String,
    /// Mean wall-clock nanoseconds per block-pair pass.
    pub ns_per_pass: f64,
    /// Full round-robin sweeps per second.
    pub sweeps_per_sec: f64,
    /// Heap allocations per pass during the measured sweeps.
    pub allocations_per_pass: f64,
    /// Sum of all matrix entries after the warm-up and measured sweeps.
    pub checksum: f64,
}

/// The complete hot-path report (serialized to `BENCH_hotpath.json`).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct HotpathReport {
    /// Matrix dimension of the workload (n×n).
    pub n: usize,
    /// Engine parallelism `P_eng` (k orth-AIEs per layer).
    pub p_eng: usize,
    /// Block-pair passes in one full sweep.
    pub passes_per_sweep: usize,
    /// Measured sweeps (after one warm-up sweep).
    pub measured_sweeps: usize,
    /// One row per measured variant.
    pub results: Vec<HotpathRow>,
}

fn test_matrix(n: usize) -> Matrix<f32> {
    Matrix::from_fn(n, n, |r, c| {
        (((r * 31 + c * 17 + 3) % 13) as f32) / 3.0 - 2.0 + if r == c { 2.0 } else { 0.0 }
    })
}

fn checksum(b: &Matrix<f32>) -> f64 {
    b.as_slice().iter().map(|&x| x as f64).sum()
}

fn config(n: usize, p_eng: usize) -> Result<HeteroSvdConfig, HeteroSvdError> {
    HeteroSvdConfig::builder(n, n)
        .engine_parallelism(p_eng)
        .pl_freq_mhz(208.3)
        .build()
}

/// Measures the sweep on an `n×n` functional workload and returns the
/// report. `alloc_count` reads the calling binary's
/// [`CountingAllocator`] (pass `&|| 0` to skip allocation accounting).
pub fn run(
    n: usize,
    p_eng: usize,
    measured_sweeps: usize,
    alloc_count: &dyn Fn() -> u64,
) -> Result<HotpathReport, HeteroSvdError> {
    assert!(measured_sweeps > 0, "need at least one measured sweep");
    let cfg = config(n, p_eng)?;
    let passes_per_sweep = {
        let p = BlockPartition::new(n, p_eng)
            .expect("validated")
            .num_blocks();
        BlockPairSchedule::round_robin(p).iter().count()
    };

    let plan = PlanHandle::build(&cfg)?;
    let mut pipe = OrthPipeline::new(&cfg, &plan);
    let mut b = test_matrix(n);
    pipe.set_norm_floor_sq(b.column_norm_floor_sq());
    pipe.run_iteration(&mut b); // warm-up
    let allocs_before = alloc_count();
    let start = Instant::now();
    for _ in 0..measured_sweeps {
        pipe.run_iteration(&mut b);
    }
    let elapsed = start.elapsed();
    let serial = row(
        "optimized-serial",
        elapsed,
        measured_sweeps,
        passes_per_sweep,
        alloc_count() - allocs_before,
        checksum(&b),
    );

    Ok(HotpathReport {
        n,
        p_eng,
        passes_per_sweep,
        measured_sweeps,
        results: vec![serial],
    })
}

/// Runs `sweeps` optimized sweeps on a fresh `n×n` workload and returns
/// the final matrix checksum.
pub fn sweep_optimized(n: usize, p_eng: usize, sweeps: usize) -> Result<f64, HeteroSvdError> {
    let cfg = config(n, p_eng)?;
    let plan = PlanHandle::build(&cfg)?;
    let mut pipe = OrthPipeline::new(&cfg, &plan);
    let mut b = test_matrix(n);
    pipe.set_norm_floor_sq(b.column_norm_floor_sq());
    for _ in 0..sweeps {
        pipe.run_iteration(&mut b);
    }
    Ok(checksum(&b))
}

fn row(
    variant: &str,
    elapsed: std::time::Duration,
    sweeps: usize,
    passes_per_sweep: usize,
    allocations: u64,
    checksum: f64,
) -> HotpathRow {
    let total_passes = (sweeps * passes_per_sweep) as f64;
    let secs = elapsed.as_secs_f64();
    HotpathRow {
        variant: variant.to_string(),
        ns_per_pass: secs * 1e9 / total_passes,
        sweeps_per_sec: sweeps as f64 / secs,
        allocations_per_pass: allocations as f64 / total_passes,
        checksum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The report is internally consistent on a small workload, and its
    /// checksum is the one `sweep_optimized` reaches after the same
    /// warm-up plus measured sweeps.
    #[test]
    fn small_workload_report_is_consistent() {
        let report = run(32, 4, 2, &|| 0).unwrap();
        assert_eq!(report.n, 32);
        assert_eq!(report.results.len(), 1);
        let r = &report.results[0];
        assert_eq!(r.variant, "optimized-serial");
        assert!(r.ns_per_pass > 0.0, "ns/pass must be positive");
        assert!(r.sweeps_per_sec > 0.0);
        assert_eq!(
            r.checksum.to_bits(),
            sweep_optimized(32, 4, 3).unwrap().to_bits()
        );
    }

    /// The 256², P_eng 4 sweep checksum after 3 sweeps, bit for bit: the
    /// `optimized-serial` checksum `repro -- --quick hotpath` reports
    /// (1 warm-up plus 2 measured sweeps).
    #[test]
    fn sweep_checksum_matches_the_recorded_golden() {
        let checksum = sweep_optimized(256, 4, 3).unwrap();
        assert_eq!(checksum.to_bits(), 55.89098860984086_f64.to_bits());
    }
}
