//! Acceptance tests for the serving runtime's headline behaviors: exact
//! backpressure at the queue bound, worker-panic containment with
//! replica replacement, Eq. (14) batch time charging consistent with
//! `Accelerator::run_many`, and batches cut only when a replica can run
//! them.

use heterosvd::{Accelerator, HeteroSvdConfig};
use heterosvd_serve::{ServeConfig, ServeError, SubmitOptions, SvdService};
use std::time::Duration;
use svd_kernels::Matrix;

fn well_conditioned(rows: usize, cols: usize, salt: u64) -> Matrix<f64> {
    Matrix::from_fn(rows, cols, |r, c| {
        ((r as u64 * 29 + c as u64 * 11 + salt * 7) % 13) as f64 / 3.0
            + if r == c { 5.0 } else { 0.0 }
    })
}

/// Backpressure: lingering requests wait in the admission queue, so
/// while every shape lingers, submissions accumulate there; once it
/// holds `queue_capacity` requests the next submission is rejected with
/// `QueueFull`, and every admitted request still completes.
#[test]
fn backpressure_rejects_beyond_queue_bound() {
    let capacity = 6;
    let service = SvdService::start(ServeConfig {
        workers: 1,
        queue_capacity: capacity,
        max_batch: 64,
        // Long linger: nothing is formed while the burst below fills
        // the queue.
        max_linger: Duration::from_millis(400),
        ..ServeConfig::default()
    })
    .unwrap();

    // Seed the queue with shape (8, 8)...
    let seed = service.try_submit(well_conditioned(8, 8, 0)).unwrap();
    std::thread::sleep(Duration::from_millis(50));

    // ...then burst more (12, 8) requests than the queue can hold. Both
    // shapes are still lingering, so these stay queued.
    let mut admitted = vec![seed];
    let mut rejections = 0;
    for salt in 0..(capacity as u64 + 4) {
        match service.try_submit(well_conditioned(12, 8, salt)) {
            Ok(handle) => admitted.push(handle),
            Err(ServeError::QueueFull { capacity: c }) => {
                assert_eq!(c, capacity);
                rejections += 1;
            }
            Err(other) => panic!("unexpected admission error: {other}"),
        }
    }
    assert!(
        rejections >= 4,
        "expected the burst to overflow the bound, got {rejections} rejections"
    );

    // Backpressure is loss-free for admitted work: everything completes.
    for handle in admitted {
        handle.wait().expect("admitted request must complete");
    }
    service.shutdown();
    let m = service.metrics();
    assert_eq!(m.rejected_queue_full, rejections);
    assert_eq!(m.completed_ok, m.submitted);
}

/// Panic containment: a poison request kills its replica but only its
/// own batch fails; the pool replaces the replica and the next request
/// succeeds.
#[test]
fn worker_panic_degrades_to_single_failed_request() {
    let service = SvdService::start(ServeConfig {
        workers: 1,
        queue_capacity: 16,
        max_batch: 1, // isolate the poison pill in its own batch
        max_linger: Duration::from_millis(1),
        ..ServeConfig::default()
    })
    .unwrap();

    let poisoned = service.try_submit_poison(8, 8).unwrap();
    match poisoned.wait() {
        Err(ServeError::WorkerPanicked(msg)) => {
            assert!(msg.contains("poison"), "payload lost: {msg}")
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }

    // The replacement replica serves the next request normally.
    let after = service.try_submit(well_conditioned(8, 8, 3)).unwrap();
    let response = after.wait().expect("service must recover after a panic");
    assert_eq!(response.output.result.sigma.len(), 8);

    service.shutdown();
    let m = service.metrics();
    assert_eq!(m.worker_panics, 1);
    assert_eq!(m.failed, 1);
    assert_eq!(m.completed_ok, 1);
    assert_eq!(m.replicas_spawned, 2, "poisoned replica must be replaced");
    assert_eq!(m.replicas_live, 0);
}

/// Eq. (14) charging: every request in a batch of size `B` is charged
/// `⌈B / P_task⌉ · t_task`, exactly what `Accelerator::run_many` reports
/// for the same batch.
#[test]
fn batched_requests_are_charged_eq14_system_time() {
    let p_task = 3;
    let service = SvdService::start(ServeConfig {
        workers: 1,
        queue_capacity: 16,
        max_batch: 5,
        max_linger: Duration::from_millis(300),
        task_parallelism: p_task,
        // This test pins the *sequential* Eq. (14) charge; the packed
        // wave charge has its own acceptance test below.
        array_packing: false,
        ..ServeConfig::default()
    })
    .unwrap();

    // Identical matrices: every batch member has the same task time, so
    // each response is self-checkable regardless of how the requests
    // were grouped into batches.
    let matrix = well_conditioned(8, 8, 5);
    let handles: Vec<_> = (0..5)
        .map(|_| {
            service
                .try_submit_with(matrix.clone(), SubmitOptions::default())
                .unwrap()
        })
        .collect();

    let responses: Vec<_> = handles
        .into_iter()
        .map(|h| h.wait().expect("batch request must complete"))
        .collect();

    let mut saw_real_batch = false;
    for response in &responses {
        let batch = response.latency.batch_size;
        assert!((1..=5).contains(&batch));
        saw_real_batch |= batch > 1;
        let t_task = response.output.timing.task_time.0;
        let expected = t_task * batch.div_ceil(p_task) as u64;
        assert_eq!(
            response.latency.sim_exec_ps, expected,
            "Eq. 14 violated for batch of {batch}"
        );

        // Cross-check against run_many on an identical batch.
        let config = HeteroSvdConfig::builder(8, 8)
            .engine_parallelism(2)
            .task_parallelism(p_task)
            .precision(1e-6)
            .build()
            .unwrap();
        let accelerator = Accelerator::new(config).unwrap();
        let copies: Vec<Matrix<f64>> = (0..batch).map(|_| matrix.clone()).collect();
        let (_, system_time) = accelerator.run_many(&copies).unwrap();
        assert_eq!(
            response.latency.sim_exec_ps, system_time.0,
            "service charge disagrees with run_many for batch of {batch}"
        );
    }
    assert!(
        saw_real_batch,
        "linger window failed to coalesce any batch; responses all ran solo"
    );
    service.shutdown();
}

/// Packed Eq. (14) charging: with `array_packing` on (the default) a
/// small-shape batch executes as one wave of `w = min(capacity, B)`
/// co-resident tenants, so every member is charged `⌈B / w⌉ · t_task` —
/// one wave when the whole batch fits the array, regardless of the
/// configured `task_parallelism`.
#[test]
fn packed_batch_is_charged_on_the_wave() {
    let service = SvdService::start(ServeConfig {
        workers: 1,
        queue_capacity: 16,
        max_batch: 5,
        max_linger: Duration::from_millis(300),
        task_parallelism: 3,
        ..ServeConfig::default()
    })
    .unwrap();

    let matrix = well_conditioned(8, 8, 5);
    let handles: Vec<_> = (0..5)
        .map(|_| {
            service
                .try_submit_with(matrix.clone(), SubmitOptions::default())
                .unwrap()
        })
        .collect();
    let mut saw_real_batch = false;
    for handle in handles {
        let response = handle.wait().expect("packed request must complete");
        let batch = response.latency.batch_size;
        saw_real_batch |= batch > 1;
        // P_eng = 2 stripes have capacity 16 on the VCK190, so w = batch
        // and the wave count ⌈batch / w⌉ is always 1: the charge is the
        // (contention-scaled) task time itself. The response's own
        // timing already reflects the wave's co-residency class.
        assert_eq!(
            response.latency.sim_exec_ps, response.output.timing.task_time.0,
            "wave charge violated for batch of {batch}"
        );
    }
    assert!(
        saw_real_batch,
        "linger window failed to coalesce any batch; responses all ran solo"
    );
    service.shutdown();
    let m = service.metrics();
    assert!(m.packed_batches >= 1, "no wave was packed: {m:?}");
    assert_eq!(m.completed_ok, 5);
}

/// A busy pool packs its backlog into one batch. The only replica is
/// busy with a large solve while eight small requests arrive; with no
/// linger each is due at once, but no batch is cut until the replica
/// frees up, so all eight leave together as one full batch instead of
/// in whatever fragments had arrived by each cut.
#[test]
fn busy_pool_packs_its_backlog_into_one_batch() {
    let service = SvdService::start(ServeConfig {
        workers: 1,
        max_batch: 8,
        max_linger: Duration::ZERO,
        ..ServeConfig::default()
    })
    .unwrap();

    let big = service.try_submit(well_conditioned(256, 256, 0)).unwrap();
    // Wait (without sleeping) until the replica has started the solve.
    while service.metrics().batches_dispatched != 1 {
        std::thread::yield_now();
    }
    let handles: Vec<_> = (0..8)
        .map(|salt| service.try_submit(well_conditioned(16, 16, salt)).unwrap())
        .collect();
    for handle in handles {
        let response = handle.wait().expect("backlogged request must complete");
        assert_eq!(response.latency.batch_size, 8);
    }
    big.wait().expect("the large solve must complete");
    service.shutdown();
}
