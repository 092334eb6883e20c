//! Batch formation: every batch key lingers on its own clock.
//!
//! Requests stay in the admission [`ClassScheduler`] until their batch
//! is formed. An idle replica forms its own next batch, one replica at a
//! time under the service's formation lock, so a batch is cut only when
//! a replica can run it. A key is *due* once it has its batch cap
//! queued, once its oldest queued request has waited its linger budget
//! (counted from admission), or once admission closes. The replica cuts
//! the due key holding the earliest [`ClassScheduler::order`] — the
//! oldest request in FIFO mode, the earliest deadline in classed mode —
//! and otherwise sleeps until the next push or the earliest key
//! deadline. No key waits out another key's linger, and a due key takes
//! every queued peer up to its cap.

use crate::config::ServeConfig;
use crate::metrics::Metrics;
use crate::request::{BatchKey, PendingRequest, SloClass};
use crate::scheduler::ClassScheduler;
use std::time::{Duration, Instant};

/// How long one formation call waits with nothing due before it
/// returns [`FormOutcome::Idle`], letting the forming replica run its
/// periodic work (the load shedder) before it forms again.
const POLL_TICK: Duration = Duration::from_millis(20);

/// One request inside a formed batch, stamped when a forming replica
/// first saw it queued.
pub(crate) struct BatchEntry {
    pub(crate) request: PendingRequest,
    pub(crate) picked_at: Instant,
}

/// A batch cut for the replica that formed it: decompose batches are
/// shape-uniform, apply batches are (model, version)-uniform.
pub(crate) struct Batch {
    pub(crate) key: BatchKey,
    pub(crate) entries: Vec<BatchEntry>,
}

/// Outcome of one batch-formation attempt.
pub(crate) enum FormOutcome {
    /// A batch is ready to execute.
    Formed(Batch),
    /// Nothing came due within a poll tick (or the due key held only
    /// cancelled or expired requests); caller decides what next.
    Idle,
    /// The queue is closed and fully drained; the replica should retire.
    Drained,
}

/// Per-(key, class) formation budget: the batch cap and how long a
/// request may wait for batch-mates, counted from its admission.
pub(crate) type Policy<'a> = &'a dyn Fn(BatchKey, SloClass) -> (usize, Duration);

/// Forms the next batch: surveys the queue, cuts the most urgent due
/// key, and otherwise sleeps until the next push or the earliest key
/// deadline — returning [`FormOutcome::Idle`] after a [`POLL_TICK`]
/// with nothing due. `policy` gives each (key, class) its cap and
/// linger budget, each clamped to `config`.
pub(crate) fn form_batch(
    admission: &ClassScheduler,
    config: &ServeConfig,
    metrics: &Metrics,
    policy: Policy<'_>,
) -> FormOutcome {
    let idle_at = Instant::now() + POLL_TICK;
    loop {
        // Snapshot the push sequence *before* surveying: a push that
        // races with the survey advances it and the wait below returns
        // immediately instead of sleeping through the arrival.
        let seen = admission.push_seq();
        let now = Instant::now();
        match next_due(admission, config, policy, now) {
            Next::Form { key, cap } => return cut_batch(admission, key, cap, config, metrics),
            Next::Drained => return FormOutcome::Drained,
            Next::Wait(due) => {
                if now >= idle_at {
                    return FormOutcome::Idle;
                }
                let until = due.map_or(idle_at, |due| due.min(idle_at));
                admission.wait_for_push(seen, until);
            }
        }
    }
}

/// What one survey of the admission structure decided.
#[derive(Debug, PartialEq)]
enum Next {
    /// Cut up to `cap` requests of `key`.
    Form { key: BatchKey, cap: usize },
    /// Nothing is due; the earliest key deadline when anything is queued.
    Wait(Option<Instant>),
    /// Admission is closed and empty.
    Drained,
}

/// One batch key's queued requests, as a survey found them.
struct KeyState {
    key: BatchKey,
    queued: usize,
    /// Admission time of the key's oldest queued request, per class.
    oldest: [Option<Instant>; SloClass::ALL.len()],
    /// Earliest [`ClassScheduler::order`] among the key's queued
    /// requests: its rank among the due keys.
    first: Instant,
}

/// Surveys every queued request — stamping the ones a forming replica
/// sees for the first time — and picks the due key to form: the one holding
/// the earliest [`ClassScheduler::order`].
fn next_due(
    admission: &ClassScheduler,
    config: &ServeConfig,
    policy: Policy<'_>,
    now: Instant,
) -> Next {
    let closed = admission.is_closed();
    let mut keys: Vec<KeyState> = Vec::new();
    admission.for_each_queued(|request| {
        request.seen_at.get_or_insert(now);
        let key = request.batch_key();
        let order = admission.order(request);
        let state = match keys.iter().position(|k| k.key == key) {
            Some(i) => &mut keys[i],
            None => {
                keys.push(KeyState {
                    key,
                    queued: 0,
                    oldest: [None; SloClass::ALL.len()],
                    first: order,
                });
                keys.last_mut().expect("just pushed")
            }
        };
        state.queued += 1;
        state.first = state.first.min(order);
        let oldest = &mut state.oldest[request.class.index()];
        *oldest = Some(oldest.map_or(request.submitted_at, |t| t.min(request.submitted_at)));
    });
    if keys.is_empty() {
        return if closed {
            Next::Drained
        } else {
            Next::Wait(None)
        };
    }

    // The policy runs outside the admission lock: it may take the
    // service's own locks.
    let mut best: Option<(Instant, BatchKey, usize)> = None;
    let mut earliest_due: Option<Instant> = None;
    for state in &keys {
        let mut cap = config.max_batch;
        let mut due_at: Option<Instant> = None;
        for class in SloClass::ALL {
            let Some(oldest) = state.oldest[class.index()] else {
                continue;
            };
            let (class_cap, linger) = policy(state.key, class);
            cap = cap.min(class_cap.max(1));
            let class_due = oldest + linger.min(config.max_linger);
            due_at = Some(due_at.map_or(class_due, |d| d.min(class_due)));
        }
        let due_at = due_at.expect("a surveyed key has a queued class");
        if closed || state.queued >= cap || now >= due_at {
            if best.is_none_or(|(first, _, _)| state.first < first) {
                best = Some((state.first, state.key, cap));
            }
        } else {
            earliest_due = Some(earliest_due.map_or(due_at, |d| d.min(due_at)));
        }
    }
    match best {
        Some((_, key, cap)) => Next::Form { key, cap },
        None => Next::Wait(earliest_due),
    }
}

/// Cuts `key`'s batch from the queue: up to `cap` live requests,
/// taken in [`ClassScheduler::order`]. Cancelled and deadline-expired
/// requests are completed with their terminal error as they are taken
/// and never reach a replica; the cut tops the batch back up from the
/// key's remaining peers.
fn cut_batch(
    admission: &ClassScheduler,
    key: BatchKey,
    cap: usize,
    config: &ServeConfig,
    metrics: &Metrics,
) -> FormOutcome {
    let mut entries: Vec<BatchEntry> = Vec::with_capacity(cap);
    loop {
        let wanted = cap - entries.len();
        let taken = admission.take_matching(key, wanted);
        let exhausted = taken.len() < wanted;
        let now = Instant::now();
        for request in taken {
            if !request.end_if_dead(now, false, metrics) {
                let picked_at = request.seen_at.unwrap_or(now);
                entries.push(BatchEntry { request, picked_at });
            }
        }
        if exhausted || entries.len() == cap {
            break;
        }
    }
    if entries.is_empty() {
        return FormOutcome::Idle;
    }

    if config.observability {
        let journal = heterosvd::obs::global();
        for entry in &entries {
            journal.record(
                heterosvd::obs::Stage::Queue,
                Some(entry.request.id.0),
                entry
                    .picked_at
                    .saturating_duration_since(entry.request.submitted_at),
                None,
            );
        }
        // One formation span per batch: how long it lingered from its
        // first request's first sighting to the cut, stamped with that
        // request's id.
        journal.record(
            heterosvd::obs::Stage::BatchForm,
            Some(entries[0].request.id.0),
            Instant::now().saturating_duration_since(entries[0].picked_at),
            None,
        );
    }

    FormOutcome::Formed(Batch { key, entries })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Outcome;
    use crate::request::fixtures::{self, pending_apply, published};
    use crate::request::RequestType;
    use crate::{ServeError, SvdService};
    use std::sync::atomic::Ordering;
    use std::sync::Arc;
    use svd_kernels::Matrix;

    fn pending(id: u64, shape: (usize, usize)) -> PendingRequest {
        fixtures::pending(id, shape, SloClass::Standard)
    }

    fn aged(id: u64, shape: (usize, usize), age: Duration) -> PendingRequest {
        fixtures::aged(id, shape, SloClass::Standard, age)
    }

    /// A FIFO-mode scheduler bounded at `capacity`, as the service
    /// builds it with `shape_classed` off.
    fn fifo(capacity: usize) -> ClassScheduler {
        ClassScheduler::new(capacity, false)
    }

    fn admit(queue: &ClassScheduler, request: PendingRequest) {
        queue.try_push(request, &Metrics::new()).unwrap();
    }

    fn config(max_batch: usize, linger: Duration) -> ServeConfig {
        ServeConfig {
            max_batch,
            max_linger: linger,
            ..ServeConfig::default()
        }
    }

    /// One FIFO formation call under `config`'s own cap and linger, as
    /// a service replica makes it.
    fn form(queue: &ClassScheduler, config: &ServeConfig, metrics: &Metrics) -> FormOutcome {
        form_batch(queue, config, metrics, &|_, _| {
            (config.max_batch, config.max_linger)
        })
    }

    fn formed(out: FormOutcome) -> Batch {
        match out {
            FormOutcome::Formed(batch) => batch,
            FormOutcome::Idle => panic!("expected a batch, got Idle"),
            FormOutcome::Drained => panic!("expected a batch, got Drained"),
        }
    }

    fn ids(batch: &Batch) -> Vec<u64> {
        batch.entries.iter().map(|e| e.request.id.0).collect()
    }

    const SQUARE: BatchKey = BatchKey::Decompose { rows: 8, cols: 8 };
    const TALL: BatchKey = BatchKey::Decompose { rows: 12, cols: 8 };

    #[test]
    fn coalesces_only_matching_shapes() {
        let queue = fifo(16);
        let metrics = Metrics::new();
        admit(&queue, pending(1, (8, 8)));
        admit(&queue, pending(2, (12, 8)));
        admit(&queue, pending(3, (8, 8)));
        let batch = formed(form(&queue, &config(4, Duration::from_millis(1)), &metrics));
        assert_eq!(batch.key, SQUARE);
        assert_eq!(ids(&batch), vec![1, 3]);
        assert_eq!(queue.len(), 1, "the (12,8) request stays queued");
    }

    #[test]
    fn apply_batches_split_by_model_and_version() {
        // Same model, two versions: a version bump mid-stream must not
        // mix pinned factor sets inside one batch.
        let queue = fifo(16);
        let metrics = Metrics::new();
        let v1 = published(7, 1);
        let v2 = published(7, 2);
        admit(&queue, pending_apply(1, Arc::clone(&v1)));
        admit(&queue, pending_apply(2, Arc::clone(&v2)));
        admit(&queue, pending_apply(3, v1));
        let batch = formed(form(&queue, &config(4, Duration::from_millis(1)), &metrics));
        assert_eq!(
            batch.key,
            BatchKey::Apply {
                model: 7,
                version: 1
            }
        );
        assert_eq!(ids(&batch), vec![1, 3]);
        assert_eq!(queue.len(), 1, "the v2 request stays queued");
        assert!(batch
            .entries
            .iter()
            .all(|e| e.request.request_type() == RequestType::Apply));
    }

    #[test]
    fn apply_and_decompose_never_share_a_batch() {
        let queue = fifo(16);
        let metrics = Metrics::new();
        admit(&queue, pending(1, (4, 4)));
        admit(&queue, pending_apply(2, published(1, 1)));
        let batch = formed(form(&queue, &config(4, Duration::from_millis(1)), &metrics));
        assert_eq!(batch.key, BatchKey::Decompose { rows: 4, cols: 4 });
        assert_eq!(batch.entries.len(), 1);
        assert_eq!(queue.len(), 1, "the apply request stays queued");
    }

    #[test]
    fn full_batch_short_circuits_the_linger() {
        // A key holding its cap is due at once: a 5 s linger would
        // otherwise leave this call Idle after one poll tick.
        let queue = fifo(16);
        let metrics = Metrics::new();
        for id in 0..3 {
            admit(&queue, pending(id, (8, 8)));
        }
        let start = Instant::now();
        let batch = formed(form(&queue, &config(3, Duration::from_secs(5)), &metrics));
        assert_eq!(batch.entries.len(), 3);
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn cancelled_requests_never_reach_a_batch() {
        let queue = fifo(16);
        let metrics = Metrics::new();
        let doomed = pending(1, (8, 8));
        doomed.state.cancelled.store(true, Ordering::SeqCst);
        let doomed_state = Arc::clone(&doomed.state);
        admit(&queue, doomed);
        admit(&queue, pending(2, (8, 8)));
        let batch = formed(form(&queue, &config(2, Duration::from_millis(1)), &metrics));
        assert_eq!(ids(&batch), vec![2]);
        assert!(!doomed_state.fail(ServeError::Cancelled));
        assert_eq!(metrics.total(Outcome::Cancelled), 1);
    }

    #[test]
    fn cut_tops_the_batch_up_past_dead_requests() {
        // Two of the first three peers are cancelled: the cut keeps
        // taking from the key's queued peers until the batch holds its
        // cap of live requests.
        let queue = fifo(16);
        let metrics = Metrics::new();
        for id in 0..5 {
            let request = aged(id, (8, 8), Duration::from_secs(2));
            if id == 0 || id == 2 {
                request.state.cancelled.store(true, Ordering::SeqCst);
            }
            admit(&queue, request);
        }
        let batch = formed(form(&queue, &config(3, Duration::from_secs(1)), &metrics));
        assert_eq!(ids(&batch), vec![1, 3, 4]);
        assert_eq!(queue.len(), 0);
        assert_eq!(metrics.total(Outcome::Cancelled), 2);
    }

    #[test]
    fn expired_deadline_is_a_terminal_timeout() {
        let queue = fifo(4);
        let metrics = Metrics::new();
        let mut stale = pending(1, (8, 8));
        stale.deadline = Some(Instant::now() - Duration::from_millis(1));
        admit(&queue, stale);
        let out = form(&queue, &config(2, Duration::from_millis(1)), &metrics);
        assert!(matches!(out, FormOutcome::Idle));
        assert_eq!(metrics.total(Outcome::TimedOutAtBatcher), 1);
        let snapshot = metrics.snapshot(0, 0);
        assert_eq!(snapshot.per_type.decompose.timed_out_at_batcher, 1);
        assert_eq!(snapshot.per_type.apply.timed_out_at_batcher, 0);
    }

    /// Regression test: a request whose deadline expires *during* the
    /// linger used to ride the formed batch to a replica anyway, where
    /// it burned a batch slot and was miscounted as an exec-side
    /// timeout. The request now lingers in the queue, and the cut must
    /// drop it formation-side — here it is the only entry, so the whole
    /// batch dissolves into `Idle`.
    #[test]
    fn deadline_expiring_during_linger_is_dropped_before_dispatch() {
        let queue = fifo(8);
        let metrics = Metrics::new();
        // Admitted 400 ms ago with a 50 ms deadline: its 300 ms linger
        // outlived the deadline and nothing arrived to fill the batch.
        let mut request = aged(1, (8, 8), Duration::from_millis(400));
        request.deadline = Some(request.submitted_at + Duration::from_millis(50));
        let state = Arc::clone(&request.state);
        admit(&queue, request);
        let out = form(&queue, &config(4, Duration::from_millis(300)), &metrics);
        assert!(
            matches!(out, FormOutcome::Idle),
            "expired entry must not form a batch"
        );
        assert_eq!(metrics.total(Outcome::TimedOutAtBatcher), 1);
        assert_eq!(metrics.total(Outcome::TimedOutAtExec), 0);
        // The request was completed with the timeout by the cut.
        assert!(!state.fail(ServeError::DeadlineExceeded));
    }

    #[test]
    fn linger_wakes_promptly_on_new_arrival() {
        // With a 10 s linger the key only comes due when the second
        // request fills it; formation must wake on that push instead
        // of sleeping out the linger (generous bound for loaded CI
        // machines).
        let queue = Arc::new(fifo(8));
        let metrics = Metrics::new();
        admit(&queue, pending(1, (8, 8)));
        let q2 = Arc::clone(&queue);
        let pusher = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            admit(&q2, pending(2, (8, 8)));
        });
        let start = Instant::now();
        let config = config(2, Duration::from_secs(10));
        let batch = loop {
            match form(&queue, &config, &metrics) {
                FormOutcome::Formed(batch) => break batch,
                FormOutcome::Idle => continue,
                FormOutcome::Drained => panic!("queue never closed"),
            }
        };
        pusher.join().unwrap();
        assert_eq!(batch.entries.len(), 2);
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "batch took {:?}; formation slept through the arrival",
            start.elapsed()
        );
    }

    #[test]
    fn closed_queue_with_nonmatching_leftover_ends_the_linger() {
        // A closed queue can never grow a batch: every key is due at
        // once instead of sleeping out its 10 s linger, which would
        // leave these calls Idle.
        let queue = fifo(8);
        let metrics = Metrics::new();
        admit(&queue, pending(1, (8, 8)));
        admit(&queue, pending(2, (12, 8)));
        queue.close();
        let config = config(4, Duration::from_secs(10));
        let start = Instant::now();
        assert_eq!(ids(&formed(form(&queue, &config, &metrics))), vec![1]);
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "lingered {:?} on a closed queue",
            start.elapsed()
        );
        assert_eq!(ids(&formed(form(&queue, &config, &metrics))), vec![2]);
        assert!(matches!(
            form(&queue, &config, &metrics),
            FormOutcome::Drained
        ));
    }

    #[test]
    fn empty_queue_reports_idle_then_drained_after_close() {
        let queue = fifo(4);
        let metrics = Metrics::new();
        let config = config(2, Duration::from_millis(1));
        assert!(matches!(form(&queue, &config, &metrics), FormOutcome::Idle));
        queue.close();
        assert!(matches!(
            form(&queue, &config, &metrics),
            FormOutcome::Drained
        ));
    }

    #[test]
    fn full_key_is_formed_before_an_older_lingering_key() {
        // Key A's request is older but lingers under a 10 s budget; key
        // B reaches `max_batch`. B is due and is formed at once — A does
        // not hold it back, and A stays queued on its own clock.
        let queue = fifo(16);
        let metrics = Metrics::new();
        admit(&queue, pending(1, (8, 8)));
        for id in 2..6 {
            admit(&queue, pending(id, (12, 8)));
        }
        let batch = formed(form(&queue, &config(4, Duration::from_secs(10)), &metrics));
        assert_eq!(batch.key, TALL);
        assert_eq!(ids(&batch), vec![2, 3, 4, 5]);
        assert_eq!(queue.len(), 1, "key A keeps lingering");
    }

    #[test]
    fn due_key_takes_every_queued_peer_in_one_batch() {
        // Five requests of one key have waited out their 1 s linger,
        // interleaved with a younger key that has not: one batch takes
        // all five, and the cap still splits a longer backlog.
        let queue = fifo(16);
        let metrics = Metrics::new();
        let old = Duration::from_secs(2);
        for id in 0..5 {
            admit(&queue, aged(id, (8, 8), old));
            if id % 2 == 0 {
                admit(&queue, pending(100 + id, (12, 8)));
            }
        }
        let batch = formed(form(&queue, &config(8, Duration::from_secs(1)), &metrics));
        assert_eq!(batch.key, SQUARE);
        assert_eq!(ids(&batch), vec![0, 1, 2, 3, 4]);
        assert_eq!(queue.len(), 3, "the young key keeps lingering");

        for id in 10..16 {
            admit(&queue, aged(id, (8, 8), old));
        }
        let config = config(4, Duration::from_secs(1));
        assert_eq!(
            ids(&formed(form(&queue, &config, &metrics))),
            vec![10, 11, 12, 13]
        );
        assert_eq!(ids(&formed(form(&queue, &config, &metrics))), vec![14, 15]);
    }

    #[test]
    fn closing_admission_forms_every_remaining_key_at_once() {
        let queue = fifo(16);
        let metrics = Metrics::new();
        admit(&queue, pending(1, (8, 8)));
        admit(&queue, pending(2, (12, 8)));
        admit(&queue, pending(3, (8, 8)));
        admit(&queue, pending_apply(4, published(1, 1)));
        let config = config(8, Duration::from_secs(10));
        let policy = |_: BatchKey, _: SloClass| (config.max_batch, config.max_linger);
        assert!(matches!(
            next_due(&queue, &config, &policy, Instant::now()),
            Next::Wait(Some(_))
        ));
        queue.close();
        // Oldest request first, every key in one call each, no waiting.
        assert_eq!(ids(&formed(form(&queue, &config, &metrics))), vec![1, 3]);
        assert_eq!(ids(&formed(form(&queue, &config, &metrics))), vec![2]);
        assert_eq!(ids(&formed(form(&queue, &config, &metrics))), vec![4]);
        assert!(matches!(
            form(&queue, &config, &metrics),
            FormOutcome::Drained
        ));
    }

    #[test]
    fn lingering_requests_stay_queued_and_are_stamped_once() {
        // Nothing is due: the survey leaves every request queued (so
        // the queue-depth gauge counts it), reports the key's deadline,
        // and stamps each request's first sighting — which a later
        // survey does not move and the batch entry inherits.
        let queue = fifo(16);
        let metrics = Metrics::new();
        for id in 0..3 {
            admit(&queue, pending(id, (8, 8)));
        }
        let config = config(8, Duration::from_secs(10));
        let policy = |_: BatchKey, _: SloClass| (config.max_batch, config.max_linger);
        let mut oldest = None;
        queue.for_each_queued(|r| {
            oldest.get_or_insert(r.submitted_at);
        });
        let first = Instant::now();
        assert_eq!(
            next_due(&queue, &config, &policy, first),
            Next::Wait(Some(oldest.unwrap() + config.max_linger))
        );
        assert_eq!(queue.len(), 3);
        let later = first + Duration::from_millis(5);
        assert!(matches!(
            next_due(&queue, &config, &policy, later),
            Next::Wait(Some(_))
        ));
        queue.for_each_queued(|r| assert_eq!(r.seen_at, Some(first)));
        queue.close();
        let batch = formed(form(&queue, &config, &metrics));
        assert!(batch.entries.iter().all(|e| e.picked_at == first));
    }

    #[test]
    fn queue_depth_counts_lingering_requests() {
        let service = SvdService::start(ServeConfig {
            workers: 1,
            max_batch: 8,
            max_linger: Duration::from_secs(10),
            ..ServeConfig::default()
        })
        .unwrap();
        let handles: Vec<_> = (0..3)
            .map(|s| {
                let a = Matrix::from_fn(8, 8, |r, c| {
                    ((r * 3 + c + s) % 7) as f64 + if r == c { 4.0 } else { 0.0 }
                });
                service.try_submit(a).unwrap()
            })
            .collect();
        assert_eq!(service.metrics().queue_depth, 3);
        // Shutdown closes admission: the lingering key is formed at once
        // and every request completes.
        service.shutdown();
        for handle in handles {
            assert_eq!(handle.wait().unwrap().latency.batch_size, 3);
        }
        assert_eq!(service.metrics().queue_depth, 0);
    }
}
