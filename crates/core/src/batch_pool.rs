//! Persistent, bounded worker pool for batch factorizations.
//!
//! [`crate::Accelerator::run_many`] used to spawn one OS thread per
//! matrix per batch — thread creation on every call, unbounded
//! concurrency for large batches. The pool replaces that with a fixed
//! set of long-lived workers (sized to the host, capped at
//! [`MAX_BATCH_WORKERS`]) shared process-wide: batches from every
//! accelerator and every serving replica feed one queue, tasks drain as
//! workers free up, and results return to each caller in submission
//! order.
//!
//! A panicking task is contained on the worker (which survives and
//! keeps serving) and surfaces to its caller as
//! [`HeteroSvdError::WorkerPanicked`], matching the old scoped-thread
//! semantics.
//!
//! Tasks must not themselves block on [`BatchPool::run_batch`] — a task
//! waiting for pool capacity it is occupying would deadlock once every
//! worker does it. The accelerator's tasks are plain `run_owned` calls,
//! which never re-enter the pool.

use crate::accelerator::HeteroSvdOutput;
use crate::HeteroSvdError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};

/// Upper bound on pool workers; beyond this, batch tasks queue.
pub const MAX_BATCH_WORKERS: usize = 16;

type BatchResult = Result<HeteroSvdOutput, HeteroSvdError>;
type BatchTask = Box<dyn FnOnce() -> BatchResult + Send + 'static>;

/// A type-erased unit of pool work: the thunk owns its task, its reply
/// channel, and its panic handling, so workers stay oblivious to the
/// result type and the pool can serve heterogeneous callers
/// (factorizations, DSE sweeps, …) from one queue.
struct Job {
    thunk: Box<dyn FnOnce() + Send + 'static>,
}

/// A fixed-size pool of batch workers fed by one shared queue.
pub struct BatchPool {
    submit: Sender<Job>,
    workers: usize,
}

impl BatchPool {
    /// Spawns a pool with `workers` long-lived worker threads.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let (submit, jobs) = channel::<Job>();
        let jobs = Arc::new(Mutex::new(jobs));
        for i in 0..workers {
            let jobs = Arc::clone(&jobs);
            std::thread::Builder::new()
                .name(format!("svd-batch-{i}"))
                .spawn(move || worker_main(jobs))
                .expect("failed to spawn batch worker");
        }
        BatchPool { submit, workers }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs every task on the pool and returns their results in
    /// submission order, or the first (by submission order) error.
    ///
    /// # Errors
    ///
    /// The first failing task's error; a panicking task surfaces as
    /// [`HeteroSvdError::WorkerPanicked`].
    pub fn run_batch(&self, tasks: Vec<BatchTask>) -> Result<Vec<HeteroSvdOutput>, HeteroSvdError> {
        self.run_batch_with(tasks)
    }

    /// [`Self::run_batch`] for arbitrary result types: runs every task
    /// on the pool and returns their `Ok` values in submission order,
    /// or the first (by submission order) error.
    ///
    /// This is the entry point for non-factorization batch work (the
    /// DSE sweep parallelizes its `P_eng` columns here), so the whole
    /// workspace shares one bounded set of worker threads instead of
    /// spawning scoped threads per call site.
    ///
    /// # Errors
    ///
    /// The first failing task's error; a panicking task surfaces as
    /// [`HeteroSvdError::WorkerPanicked`].
    pub fn run_batch_with<T, F>(&self, tasks: Vec<F>) -> Result<Vec<T>, HeteroSvdError>
    where
        T: Send + 'static,
        F: FnOnce() -> Result<T, HeteroSvdError> + Send + 'static,
    {
        let n = tasks.len();
        let (reply, results) = channel::<(usize, Result<T, HeteroSvdError>)>();
        for (seq, task) in tasks.into_iter().enumerate() {
            let reply = reply.clone();
            let job = Job {
                thunk: Box::new(move || {
                    let result = catch_unwind(AssertUnwindSafe(task)).unwrap_or_else(|payload| {
                        Err(HeteroSvdError::worker_panicked(payload.as_ref()))
                    });
                    // The caller may have bailed on an earlier error;
                    // that is fine.
                    let _ = reply.send((seq, result));
                }),
            };
            // Workers live for the whole process; the queue never closes.
            self.submit.send(job).expect("batch pool queue closed");
        }
        drop(reply);
        let mut slots: Vec<Option<Result<T, HeteroSvdError>>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            let (seq, result) = results.recv().map_err(|_| {
                HeteroSvdError::WorkerPanicked("batch pool reply channel closed".into())
            })?;
            slots[seq] = Some(result);
        }
        slots
            .into_iter()
            .map(|r| r.expect("every task replies exactly once"))
            .collect()
    }
}

fn worker_main(jobs: Arc<Mutex<Receiver<Job>>>) {
    loop {
        let job = {
            let queue = match jobs.lock() {
                Ok(queue) => queue,
                Err(poisoned) => poisoned.into_inner(),
            };
            match queue.recv() {
                Ok(job) => job,
                // Queue dropped: the pool is gone, retire the worker.
                Err(_) => return,
            }
        };
        // The thunk contains its own panic barrier and reply; nothing
        // here can unwind across the loop.
        (job.thunk)();
    }
}

/// The process-wide pool every [`crate::Accelerator::run_many`] call
/// shares, sized to the host's available parallelism.
pub fn global() -> &'static BatchPool {
    static GLOBAL: OnceLock<BatchPool> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        BatchPool::new(host.clamp(1, MAX_BATCH_WORKERS))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Accelerator, HeteroSvdConfig};
    use svd_kernels::Matrix;

    fn tiny_output() -> BatchResult {
        let cfg = HeteroSvdConfig::builder(16, 16)
            .engine_parallelism(2)
            .pl_freq_mhz(208.3)
            .build()
            .unwrap();
        let acc = Accelerator::new(cfg).unwrap();
        let a = Matrix::from_fn(16, 16, |r, c| {
            ((r * 41 + c * 17 + 5) % 23) as f64 / 5.0 - 2.0 + if r == c { 2.0 } else { 0.0 }
        });
        acc.run(&a)
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let pool = BatchPool::new(3);
        let tasks: Vec<BatchTask> = (0..6).map(|_| Box::new(tiny_output) as BatchTask).collect();
        let outs = pool.run_batch(tasks).unwrap();
        assert_eq!(outs.len(), 6);
        // The pool persists: a second batch reuses the same workers.
        let again: Vec<BatchTask> = (0..2).map(|_| Box::new(tiny_output) as BatchTask).collect();
        assert_eq!(pool.run_batch(again).unwrap().len(), 2);
    }

    #[test]
    fn panicking_task_surfaces_as_error_and_pool_survives() {
        let pool = BatchPool::new(2);
        let tasks: Vec<BatchTask> = vec![
            Box::new(tiny_output),
            Box::new(|| panic!("injected batch worker failure")),
        ];
        let err = pool.run_batch(tasks).unwrap_err();
        assert!(
            matches!(
                &err,
                HeteroSvdError::WorkerPanicked(msg) if msg.contains("injected batch worker failure")
            ),
            "unexpected error: {err:?}"
        );
        // The worker that contained the panic still serves new tasks.
        let tasks: Vec<BatchTask> = (0..4).map(|_| Box::new(tiny_output) as BatchTask).collect();
        assert_eq!(pool.run_batch(tasks).unwrap().len(), 4);
    }
}
