//! Property-based tests of the serving runtime.
//!
//! The invariant the batcher and admission must hold under arbitrary
//! traffic: every admitted request ends exactly once, whatever the
//! request kinds, classes, arrival order, cancellations, deadlines and
//! evictions, and the outcome counters balance against what the handles
//! saw. (The admission bound and FIFO order are properties of the
//! crate's admission scheduler, tested against a model queue beside it.)

use heterosvd_serve::{
    ClientId, Handle, ModelId, ServeConfig, ServeError, SloClass, SubmitOptions, SvdService,
};
use proptest::prelude::*;
use std::time::Duration;
use svd_kernels::Matrix;

/// A lifecycle-heavy configuration: a short linger and a small
/// admission bound, with every request kind enabled.
fn ledger_config(queue_capacity: usize, shape_classed: bool) -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_capacity,
        max_batch: 4,
        max_linger: Duration::from_micros(500),
        incremental: true,
        shape_classed,
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

/// The caller's side of one admitted request, whatever its kind: the
/// wait, reduced to its terminal state.
type Waiter = Box<dyn FnOnce() -> Result<(), ServeError>>;

fn waiter<R: 'static>(handle: Handle<R>, cancel: bool) -> Waiter {
    if cancel {
        handle.cancel();
    }
    Box::new(move || handle.wait().map(drop))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random decompose, apply and update requests of random classes,
    /// each with a fate of none, an instant deadline, or a cancel, under
    /// FIFO or classed admission. Every handle ends in one terminal
    /// state, each state's count matches the exported counter, and the
    /// ledger balances: submitted = completed + failed + cancelled +
    /// timed out + evicted. Only classed admission evicts.
    #[test]
    fn no_request_is_dropped_or_duplicated(
        arrivals in prop::collection::vec((0u8..3, 0usize..3, 0usize..3, 0u8..3), 1..32),
        capacity in 2usize..9,
        classed in any::<bool>(),
    ) {
        let service = SvdService::start(ledger_config(capacity, classed)).unwrap();
        // Apply traffic needs a published model: one more admitted
        // request, completed before the random traffic starts.
        let model = ModelId(1);
        service.try_submit_publish(model, matrix_for(0), 4).unwrap().wait().unwrap();
        let mut waiters: Vec<Waiter> = Vec::new();
        for (kind, shape, class, fate) in arrivals {
            let options = SubmitOptions {
                timeout: (fate == 1).then_some(Duration::ZERO),
                class: SloClass::ALL[class],
            };
            let cancel = fate == 2;
            let admitted = match kind {
                0 => service
                    .try_submit_with(matrix_for(shape), options)
                    .map(|h| waiter(h, cancel)),
                1 => service
                    .try_submit_apply_with(model, &[0.5; 8], None, options)
                    .map(|h| waiter(h, cancel)),
                _ => service
                    .try_submit_update_with(ClientId(shape as u64), matrix_for(shape), options)
                    .map(|h| waiter(h, cancel)),
            };
            match admitted {
                Ok(waiter) => waiters.push(waiter),
                // Refused at the door: never admitted, so never ended.
                Err(ServeError::QueueFull { .. } | ServeError::Overloaded) => {}
                Err(other) => return Err(TestCaseError::fail(format!("unexpected: {other}"))),
            }
        }
        let admitted = waiters.len() as u64 + 1;
        let (mut ok, mut cancelled, mut timed_out, mut evicted) = (1u64, 0u64, 0u64, 0u64);
        for wait in waiters {
            match wait() {
                Ok(()) => ok += 1,
                Err(ServeError::Cancelled) => cancelled += 1,
                Err(ServeError::DeadlineExceeded) => timed_out += 1,
                Err(ServeError::Overloaded) => evicted += 1,
                Err(other) => return Err(TestCaseError::fail(format!("bad terminal: {other}"))),
            }
        }
        service.shutdown();
        let m = service.metrics();
        prop_assert_eq!(m.submitted, admitted);
        prop_assert_eq!(m.completed_ok, ok);
        prop_assert_eq!(m.cancelled, cancelled);
        prop_assert_eq!(m.timed_out, timed_out);
        prop_assert_eq!(m.evicted, evicted);
        prop_assert_eq!(m.failed, 0);
        prop_assert_eq!(
            m.completed_ok + m.failed + m.cancelled + m.timed_out + m.evicted,
            m.submitted,
            "ledger does not balance: {:?}",
            m
        );
        if !classed {
            prop_assert_eq!(m.evicted, 0, "FIFO admission never evicts");
        }
        prop_assert_eq!(m.queue_depth, 0);
    }
}
