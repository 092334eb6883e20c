//! Property-based tests of the serving runtime.
//!
//! The invariant the batcher and admission must hold under arbitrary
//! traffic: no request is ever dropped or completed twice regardless of
//! arrival order, cancellations, and deadlines. (The admission bound and
//! FIFO order are properties of the crate's admission scheduler, tested
//! against a model queue beside it.)

use heterosvd::FidelityMode;
use heterosvd_serve::{ServeConfig, ServeError, SvdService};
use proptest::prelude::*;
use std::time::Duration;
use svd_kernels::Matrix;

/// A fast, lifecycle-heavy configuration: timing-only replicas so the
/// accelerator step is instantaneous and the properties concentrate on
/// the queue/batcher/lifecycle machinery.
fn lifecycle_config(queue_capacity: usize, max_batch: usize) -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_capacity,
        max_batch,
        max_linger: Duration::from_micros(500),
        fidelity: FidelityMode::TimingOnly,
        fixed_iterations: Some(2),
        ..ServeConfig::default()
    }
}

fn matrix_for(shape_idx: usize) -> Matrix<f64> {
    // All shapes valid for P_eng = 2 (cols a multiple of 4).
    let (rows, cols) = [(8, 8), (12, 8), (12, 12)][shape_idx % 3];
    Matrix::from_fn(rows, cols, |r, c| {
        ((r * 13 + c * 5 + shape_idx) % 11) as f64 - 5.0 + if r == c { 6.0 } else { 0.0 }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under random arrivals, cancellations, and instant deadlines,
    /// every admitted request reaches exactly one terminal state and the
    /// ledger balances: admitted = completed + cancelled + timed out +
    /// failed, with nothing dropped and nothing double-counted.
    #[test]
    fn no_request_is_dropped_or_duplicated(
        arrivals in prop::collection::vec((0usize..3, 0u8..4), 1..24),
        capacity in 4usize..12,
    ) {
        let service = SvdService::start(lifecycle_config(capacity, 4)).unwrap();
        let mut handles = Vec::new();
        let mut admitted = 0u64;
        for (shape_idx, fate) in arrivals {
            let options = heterosvd_serve::SubmitOptions {
                // fate 1: a deadline that has effectively already passed.
                timeout: if fate == 1 { Some(Duration::ZERO) } else { None },
                ..heterosvd_serve::SubmitOptions::default()
            };
            match service.try_submit_with(matrix_for(shape_idx), options) {
                Ok(handle) => {
                    admitted += 1;
                    if fate == 2 {
                        handle.cancel();
                    }
                    handles.push(handle);
                }
                Err(ServeError::QueueFull { .. }) => {}
                Err(other) => return Err(TestCaseError::fail(format!("unexpected: {other}"))),
            }
        }
        // Each handle yields exactly one result (wait consumes it).
        let mut terminal = 0u64;
        for handle in handles {
            match handle.wait() {
                Ok(_)
                | Err(ServeError::Cancelled)
                | Err(ServeError::DeadlineExceeded) => terminal += 1,
                Err(other) => return Err(TestCaseError::fail(format!("bad terminal: {other}"))),
            }
        }
        prop_assert_eq!(terminal, admitted);
        service.shutdown();
        let m = service.metrics();
        prop_assert_eq!(m.submitted, admitted);
        prop_assert_eq!(
            m.completed_ok + m.cancelled + m.timed_out + m.failed,
            admitted,
            "ledger does not balance: {:?}",
            m
        );
        prop_assert_eq!(m.failed, 0);
        prop_assert_eq!(m.queue_depth, 0);
    }
}
