//! Steady-state hot-path allocation audit.
//!
//! The orthogonalization inner loop (`OrthPipeline::run_pass`) executes
//! once per block pair per iteration; the PR-2 optimization hoisted all
//! of its scratch into buffers owned by the pipeline. This test installs
//! a counting global allocator and proves the property the design doc
//! claims: after a warm-up iteration, further iterations perform ZERO
//! heap allocations.
//!
//! This lives in its own integration-test binary so the
//! `#[global_allocator]` cannot interfere with other tests, and it
//! contains a single `#[test]` so no sibling test thread can allocate
//! inside the tracked window.

use heterosvd::orth_pipeline::OrthPipeline;
use heterosvd::{HeteroSvdConfig, PlanHandle};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use svd_kernels::Matrix;

static TRACKING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_iterations_do_not_allocate() {
    // Leave observability ON but sample every span out: the hot path
    // still walks the record() entry (two relaxed atomics) and must not
    // reach the journal's ring mutex or any heap.
    heterosvd::obs::configure(heterosvd::obs::ObsConfig {
        enabled: true,
        sample_every: u64::MAX,
    });
    let cfg = HeteroSvdConfig::builder(32, 32)
        .engine_parallelism(4)
        .pl_freq_mhz(208.3)
        .build()
        .unwrap();
    let plan = PlanHandle::build(&cfg).unwrap();
    let mut pipe = OrthPipeline::new(&cfg, &plan);
    pipe.set_norm_floor_sq(0.0);
    // `adaptive_sweeps` defaults on, so the dirty-column versions and the
    // per-pair visit cache are live. Arm the threshold gate so the tracked
    // iterations exercise the full adaptive path — gating, version bumps,
    // and cache-hit memo skips — not just the inert threshold-0 sweep.
    pipe.set_rotation_threshold(1e-3);
    let mut b = Matrix::from_fn(32, 32, |r, c| {
        (((r * 31 + c * 17 + 3) % 13) as f32) / 3.0 - 2.0 + if r == c { 2.0 } else { 0.0 }
    });

    // Warm-up: the first iteration may lazily size anything left.
    pipe.run_iteration(&mut b);

    let counters_before = pipe
        .adaptive_counters()
        .expect("adaptive engine on by default");
    TRACKING.store(true, Ordering::SeqCst);
    for _ in 0..3 {
        pipe.run_iteration(&mut b);
    }
    TRACKING.store(false, Ordering::SeqCst);

    let allocations = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        allocations, 0,
        "steady-state run_pass must not touch the allocator ({allocations} allocations observed \
         across 3 iterations)"
    );
    let counters_after = pipe.adaptive_counters().unwrap();
    assert!(
        counters_after.gated_rotations > counters_before.gated_rotations
            || counters_after.memo_skips > counters_before.memo_skips,
        "tracked iterations were expected to exercise the adaptive gate \
         (before {counters_before:?}, after {counters_after:?})"
    );

    // The timing-replay path must uphold the same guarantee: profile
    // lookups plus the rotation math, nothing heap-bound per iteration.
    let profile = plan
        .timing_profile(&cfg)
        .expect("plan reaches a steady state");
    let mut replayed = OrthPipeline::new(&cfg, &plan);
    replayed.set_norm_floor_sq(0.0);
    replayed.set_block_ready(profile.initial_block_ready().to_vec());
    replayed.set_replay_profile(profile);
    let mut b2 = Matrix::from_fn(32, 32, |r, c| {
        (((r * 31 + c * 17 + 3) % 13) as f32) / 3.0 - 2.0 + if r == c { 2.0 } else { 0.0 }
    });
    replayed.run_iteration(&mut b2);
    assert!(replayed.replay_active(), "profile should activate replay");

    ALLOCATIONS.store(0, Ordering::SeqCst);
    TRACKING.store(true, Ordering::SeqCst);
    for _ in 0..3 {
        replayed.run_iteration(&mut b2);
    }
    TRACKING.store(false, Ordering::SeqCst);

    let allocations = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        allocations, 0,
        "replayed iterations must not touch the allocator ({allocations} allocations observed \
         across 3 iterations)"
    );
}
