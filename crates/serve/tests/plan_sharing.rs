//! Plan-cache integration: a replica pool must plan each design once
//! (not once per replica).

use heterosvd_serve::{ServeConfig, SvdService};
use std::time::Duration;
use svd_kernels::Matrix;

fn well_conditioned(rows: usize, cols: usize, salt: u64) -> Matrix<f64> {
    Matrix::from_fn(rows, cols, |r, c| {
        ((r as u64 * 29 + c as u64 * 11 + salt * 7) % 13) as f64 / 3.0
            + if r == c { 5.0 } else { 0.0 }
    })
}

/// Replica startup no longer re-plans per worker: after a pool of four
/// replicas has served requests of one shape, the global plan cache
/// records exactly one build of that design.
#[test]
fn replica_pool_shares_one_plan() {
    // A shape/knob combination no other test uses, so the probe below
    // counts only this test's builds.
    let config = ServeConfig {
        workers: 4,
        queue_capacity: 32,
        max_batch: 2,
        max_linger: Duration::from_millis(1),
        engine_parallelism: 3,
        task_parallelism: 5,
        // Pin the sequential path: with packing on, multi-request
        // batches build their own per-co-residency-class plans (probed
        // once each — see `plan_cache::co_residency_classes_split_plans`)
        // and the solo plan counted below might never build.
        array_packing: false,
        ..ServeConfig::default()
    };
    let shape = (42, 12);
    let accel_cfg = config.accelerator_config(shape).unwrap();
    assert_eq!(heterosvd::plan_cache::global().builds_for(&accel_cfg), 0);

    let service = SvdService::start(config).unwrap();
    let handles: Vec<_> = (0..8)
        .map(|salt| {
            service
                .try_submit(well_conditioned(shape.0, shape.1, salt))
                .unwrap()
        })
        .collect();
    for handle in handles {
        handle.wait().expect("request must complete");
    }
    service.shutdown();

    assert_eq!(
        heterosvd::plan_cache::global().builds_for(&accel_cfg),
        1,
        "every replica must share the one cached plan"
    );
}
