//! Request accounting: the load shedder's door refusals stay out of the
//! ledger of admitted requests, and a request's outcome is counted
//! before its waiter can see it.

use heterosvd_serve::{ServeConfig, ServeError, SloClass, SubmitOptions, SvdService};
use std::time::{Duration, Instant};
use svd_kernels::Matrix;

fn matrix() -> Matrix<f64> {
    Matrix::from_fn(8, 8, |r, c| {
        ((r * 5 + c * 3) % 7) as f64 + if r == c { 4.0 } else { 0.0 }
    })
}

fn zero_timeout(class: SloClass) -> SubmitOptions {
    SubmitOptions {
        timeout: Some(Duration::ZERO),
        class,
    }
}

/// Regression test: `shed` adds door refusals, which were never
/// admitted, to evictions of admitted requests, so once the shedder
/// refused anyone the exported counters could not balance against
/// `submitted`. Evictions now have their own counter.
#[test]
fn door_refusals_are_shed_but_not_evicted() {
    let service = SvdService::start(ServeConfig {
        shape_classed: true,
        shed_threshold: 0.3,
        ..ServeConfig::default()
    })
    .unwrap();
    // Interactive traffic is never shed, so no tier the shedder reaches
    // early can refuse these.
    let handles: Vec<_> = (0..20)
        .map(|_| {
            service
                .try_submit_with(matrix(), zero_timeout(SloClass::Interactive))
                .unwrap()
        })
        .collect();
    for handle in handles {
        assert_eq!(handle.wait().unwrap_err(), ServeError::DeadlineExceeded);
    }
    // Every request timed out, so the shedder's next evaluation raises
    // the tier past Batch.
    let deadline = Instant::now() + Duration::from_secs(3);
    while service.metrics().shed_level < 1 {
        assert!(Instant::now() < deadline, "the shed level never rose");
        std::thread::sleep(Duration::from_millis(1));
    }
    let refused = service.try_submit_with(
        matrix(),
        SubmitOptions {
            class: SloClass::Batch,
            ..SubmitOptions::default()
        },
    );
    assert_eq!(refused.unwrap_err(), ServeError::Overloaded);
    service.shutdown();
    let m = service.metrics();
    assert_eq!((m.shed, m.per_class.batch.shed, m.evicted), (1, 1, 0));
    assert_eq!(m.submitted, 20);
    assert_eq!(
        m.submitted,
        m.completed_ok + m.failed + m.cancelled + m.timed_out + m.evicted,
        "ledger does not balance: {m:?}"
    );
}

/// A waiter that reads the metrics as soon as `wait` returns finds its
/// own request counted: the terminal step counts the outcome before the
/// result becomes visible.
#[test]
fn a_waiter_sees_its_own_outcome_counted() {
    let service = SvdService::start(ServeConfig {
        max_linger: Duration::ZERO,
        ..ServeConfig::default()
    })
    .unwrap();
    for i in 1..=3_000u64 {
        let handle = service
            .try_submit_with(matrix(), zero_timeout(SloClass::Standard))
            .unwrap();
        assert_eq!(handle.wait().unwrap_err(), ServeError::DeadlineExceeded);
        assert_eq!(
            service.metrics().timed_out,
            i,
            "request {i} was not yet counted when its waiter woke"
        );
    }
    service.shutdown();
}
