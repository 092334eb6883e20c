//! Admission: the one structure requests wait in until their batch is
//! cut, plus the load shedder behind it.
//!
//! Every admitted request lands in a per-([`BatchKey`], [`SloClass`])
//! sub-queue of the service's [`ClassScheduler`], sorted by
//! [`ClassScheduler::order`]. An idle replica ranks due keys by the
//! same order and cuts each batch in it, so formation never asks which
//! mode it serves. [`crate::ServeConfig::shape_classed`] picks the mode:
//!
//! * **FIFO** (the default) — the order is the admission time. The
//!   replica forms the due key holding the oldest request, a batch
//!   takes its key's requests in arrival order, and a full scheduler
//!   refuses every push with `Full`. Classes and deadlines never reorder
//!   anything, and nothing is shed.
//! * **Classed** — the order is the *effective* deadline (the explicit
//!   deadline, or submission time plus the class horizon), and:
//!   - **EDF formation**: among the due keys, the replica forms the one
//!     holding the earliest deadline, so a rare Interactive request
//!     jumps a backlog of Batch-class work instead of waiting it out,
//!     and any idle replica serves whichever class is most urgent.
//!   - **EDF admission**: a full scheduler evicts the latest-deadline
//!     request of an equal-or-lower-priority class when the incoming
//!     one is strictly more urgent (the victim completes with
//!     [`ServeError::Overloaded`]).
//!   - **Load shedding**: a [`ShedController`] watches the windowed
//!     timeout fraction and sheds Batch (then Standard) traffic at
//!     admission before the queue collapses.
//!
//! Admission only decides *when* requests execute; per-request factors
//! are bit-identical in both modes and to a solo accelerator run.

use crate::error::ServeError;
use crate::metrics::{Metrics, Outcome};
use crate::request::{BatchKey, PendingRequest, SloClass};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// No class is shed.
pub(crate) const SHED_NONE: u8 = 0;
/// Batch-class traffic is shed at admission.
pub(crate) const SHED_BATCH: u8 = 1;
/// Batch- and Standard-class traffic are shed at admission.
pub(crate) const SHED_STANDARD: u8 = 2;

/// Outcome of a failed push.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum PushError<T> {
    /// The scheduler was at capacity; the item is handed back.
    Full(T),
    /// The scheduler was closed; the item is handed back.
    Closed(T),
}

/// One per-(key, class) sub-queue, never empty, ascending by
/// [`ClassScheduler::order`] (arrival order among ties, preserved by
/// the insertion sort).
struct ClassQueue {
    key: BatchKey,
    class: SloClass,
    buf: VecDeque<PendingRequest>,
}

struct SchedState {
    /// Live sub-queues; one is dropped the moment it empties, so a
    /// retired key (e.g. a republished model's old version) leaves
    /// nothing behind for later scans.
    queues: Vec<ClassQueue>,
    /// Total requests across all sub-queues (bounded by `capacity`).
    len: usize,
    /// Bumps on every successful push; a forming replica snapshots it
    /// before surveying so a racing push wakes its wait immediately.
    push_seq: u64,
    closed: bool,
}

/// The service's bounded admission structure, FIFO or classed.
pub(crate) struct ClassScheduler {
    state: Mutex<SchedState>,
    /// Signalled on every push and on close; the forming replica's wait
    /// parks here.
    push_cv: Condvar,
    capacity: usize,
    /// Classed (EDF order, evicting) rather than FIFO admission.
    classed: bool,
    /// Current shed tier, written by the [`ShedController`] and read by
    /// admission ([`SHED_NONE`] / [`SHED_BATCH`] / [`SHED_STANDARD`]).
    shed_level: AtomicU8,
}

impl ClassScheduler {
    /// An empty scheduler bounded at `capacity` requests, classed or
    /// FIFO.
    pub(crate) fn new(capacity: usize, classed: bool) -> Self {
        ClassScheduler {
            state: Mutex::new(SchedState {
                queues: Vec::new(),
                len: 0,
                push_seq: 0,
                closed: false,
            }),
            push_cv: Condvar::new(),
            capacity,
            classed,
            shed_level: AtomicU8::new(SHED_NONE),
        }
    }

    /// The key requests are served by, earliest first: the effective
    /// deadline in classed mode, the admission time in FIFO mode.
    /// Sub-queues are sorted by it, a batch is cut in it, and the
    /// forming replica cuts the due key holding the earliest.
    pub(crate) fn order(&self, request: &PendingRequest) -> Instant {
        if self.classed {
            request.effective_deadline()
        } else {
            request.submitted_at
        }
    }

    pub(crate) fn shed_level(&self) -> u8 {
        self.shed_level.load(Ordering::Relaxed)
    }

    pub(crate) fn set_shed_level(&self, level: u8) {
        self.shed_level.store(level, Ordering::Relaxed);
    }

    /// Admits `request` into its (key, class) sub-queue, in
    /// [`ClassScheduler::order`]. A full classed scheduler evicts the
    /// latest-deadline request among equal-or-lower-priority classes
    /// when the incoming request is strictly more urgent (the victim
    /// completes with [`ServeError::Overloaded`] and is counted evicted);
    /// otherwise, and always in FIFO mode, a full push fails `Full`.
    // A rejected push hands the request back by value so the caller can
    // complete it: the large Err variant is the point, not an accident.
    #[allow(clippy::result_large_err)]
    pub(crate) fn try_push(
        &self,
        request: PendingRequest,
        metrics: &Metrics,
    ) -> Result<(), PushError<PendingRequest>> {
        let mut st = self.state.lock();
        if st.closed {
            return Err(PushError::Closed(request));
        }
        let order = self.order(&request);
        if st.len >= self.capacity {
            // Only classed admission evicts. The candidate: across
            // every sub-queue of equal-or-lower priority, the request
            // with the LATEST deadline (each sub-queue's back).
            let priority = request.class.priority();
            let victim = st
                .queues
                .iter()
                .enumerate()
                .filter(|(_, q)| self.classed && q.class.priority() <= priority)
                .map(|(qi, q)| (qi, self.order(q.buf.back().expect("non-empty"))))
                .max_by_key(|&(_, latest)| latest);
            match victim {
                Some((qi, latest)) if order < latest => {
                    let evicted = st.queues[qi].buf.pop_back().expect("non-empty");
                    if st.queues[qi].buf.is_empty() {
                        st.queues.remove(qi);
                    }
                    st.len -= 1;
                    evicted.finish(Err(ServeError::Overloaded), metrics);
                }
                _ => return Err(PushError::Full(request)),
            }
        }
        let key = request.batch_key();
        let class = request.class;
        let qi = match st
            .queues
            .iter()
            .position(|q| q.key == key && q.class == class)
        {
            Some(qi) => qi,
            None => {
                st.queues.push(ClassQueue {
                    key,
                    class,
                    buf: VecDeque::new(),
                });
                st.queues.len() - 1
            }
        };
        // Arrivals nearly always sort last (always in FIFO mode, bar
        // racing submitters), so check the back before a binary search:
        // its probes would read requests the formation survey last wrote.
        let buf = &mut st.queues[qi].buf;
        if buf.back().is_none_or(|r| self.order(r) <= order) {
            buf.push_back(request);
        } else {
            let pos = buf.partition_point(|r| self.order(r) <= order);
            buf.insert(pos, request);
        }
        st.len += 1;
        st.push_seq += 1;
        drop(st);
        self.push_cv.notify_all();
        Ok(())
    }

    /// Removes up to `max` queued requests whose batch key is `key`,
    /// earliest [`ClassScheduler::order`] first *across* classes — so a
    /// batch formed for an urgent request still coalesces same-key work
    /// from lower-priority classes (fill amortizes Eq. 14 for everyone).
    /// Each take costs a scan of the live sub-queues, never of the
    /// queued requests.
    pub(crate) fn take_matching(&self, key: BatchKey, max: usize) -> Vec<PendingRequest> {
        let mut st = self.state.lock();
        let mut taken = Vec::new();
        while taken.len() < max {
            let Some(qi) = st
                .queues
                .iter()
                .enumerate()
                .filter(|(_, q)| q.key == key)
                .min_by_key(|(_, q)| self.order(q.buf.front().expect("non-empty")))
                .map(|(qi, _)| qi)
            else {
                break;
            };
            taken.push(st.queues[qi].buf.pop_front().expect("non-empty"));
            if st.queues[qi].buf.is_empty() {
                st.queues.remove(qi);
            }
            st.len -= 1;
        }
        taken
    }

    /// Calls `visit` on every queued request under the scheduler's
    /// lock. Formation uses it to survey (and stamp) the requests
    /// that stay queued while their batch keys linger.
    pub(crate) fn for_each_queued<F: FnMut(&mut PendingRequest)>(&self, mut visit: F) {
        let mut st = self.state.lock();
        for queue in &mut st.queues {
            queue.buf.iter_mut().for_each(&mut visit);
        }
    }

    /// Monotonic count of successful pushes. Snapshot it *before*
    /// surveying, then hand it to [`ClassScheduler::wait_for_push`]: a
    /// push racing with the survey advances the sequence and the wait
    /// returns immediately, so no arrival is ever slept through.
    pub(crate) fn push_seq(&self) -> u64 {
        self.state.lock().push_seq
    }

    /// Blocks until a push lands after the `seen` sequence snapshot,
    /// returning `true` (the request may already have been taken — the
    /// caller re-surveys to find out). Returns `false` when `deadline`
    /// passes or the scheduler closes with no new push: in both cases
    /// nothing can have arrived since `seen`.
    pub(crate) fn wait_for_push(&self, seen: u64, deadline: Instant) -> bool {
        let mut st = self.state.lock();
        loop {
            if st.push_seq != seen {
                return true;
            }
            if st.closed {
                return false;
            }
            if self.push_cv.wait_until(&mut st, deadline).timed_out() {
                return st.push_seq != seen;
            }
        }
    }

    /// Closes admission: pushes fail from now on, and queued requests
    /// stay to be drained by the replicas. Idempotent.
    pub(crate) fn close(&self) {
        let mut st = self.state.lock();
        st.closed = true;
        drop(st);
        self.push_cv.notify_all();
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.state.lock().closed
    }

    /// Requests awaiting batch formation (a gauge, racy by nature).
    pub(crate) fn len(&self) -> usize {
        self.state.lock().len
    }
}

/// Windowed overload policy: on a cadence, diffs the service's timeout
/// and completion counters and maps the timeout fraction to a shed
/// tier — above [`crate::ServeConfig::shed_threshold`] Batch sheds,
/// above twice it Standard sheds too, and below half of it the tier
/// decays one step. Lives under the service's formation lock, so the
/// replica holding it is the shed level's single writer.
pub(crate) struct ShedController {
    threshold: f64,
    min_interval: Duration,
    last_eval: Instant,
    prev_timeouts: u64,
    prev_completed: u64,
    level: u8,
}

impl ShedController {
    pub(crate) fn new(threshold: f64, min_interval: Duration) -> Self {
        ShedController {
            threshold,
            min_interval,
            last_eval: Instant::now(),
            prev_timeouts: 0,
            prev_completed: 0,
            level: SHED_NONE,
        }
    }

    /// Re-evaluates the shed tier from the windowed deltas; a no-op
    /// between cadence ticks and over idle windows (no completions or
    /// timeouts means no evidence either way — the tier holds).
    pub(crate) fn update(&mut self, metrics: &Metrics, scheduler: &ClassScheduler) {
        if self.last_eval.elapsed() < self.min_interval {
            return;
        }
        let timeouts =
            metrics.total(Outcome::TimedOutAtBatcher) + metrics.total(Outcome::TimedOutAtExec);
        let completed = metrics.total(Outcome::Completed);
        let timeout_delta = timeouts.saturating_sub(self.prev_timeouts);
        let completed_delta = completed.saturating_sub(self.prev_completed);
        self.prev_timeouts = timeouts;
        self.prev_completed = completed;
        self.last_eval = Instant::now();
        let total = timeout_delta + completed_delta;
        if total == 0 {
            return;
        }
        let frac = timeout_delta as f64 / total as f64;
        let level = if frac > 2.0 * self.threshold {
            SHED_STANDARD
        } else if frac > self.threshold {
            // Past the threshold the tier ratchets up to (or holds at)
            // Batch shedding; an already-escalated tier does not relax
            // until the fraction clears the decay band below.
            self.level.max(SHED_BATCH)
        } else if frac < self.threshold / 2.0 {
            self.level.saturating_sub(1)
        } else {
            self.level
        };
        if level != self.level {
            self.level = level;
            scheduler.set_shed_level(level);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::{self, FormOutcome};
    use crate::config::ServeConfig;
    use crate::request::fixtures::{aged, pending, pending_apply, published};
    use crate::request::RequestType;
    use proptest::prelude::*;
    use std::sync::Arc;

    /// One formation call: every (key, class) gets a cap of 4 and a
    /// 1 s linger.
    fn form(sched: &ClassScheduler, metrics: &Metrics) -> FormOutcome {
        let config = ServeConfig {
            max_linger: Duration::from_secs(1),
            ..ServeConfig::default()
        };
        batcher::form_batch(sched, &config, metrics, &|_, _| (4, config.max_linger))
    }

    fn formed_ids(out: FormOutcome) -> Vec<u64> {
        match out {
            FormOutcome::Formed(batch) => batch.entries.iter().map(|e| e.request.id.0).collect(),
            FormOutcome::Idle => panic!("expected a batch, got Idle"),
            FormOutcome::Drained => panic!("expected a batch, got Drained"),
        }
    }

    fn pending_at(
        id: u64,
        shape: (usize, usize),
        class: SloClass,
        deadline: Instant,
    ) -> PendingRequest {
        let mut request = pending(id, shape, class);
        request.deadline = Some(deadline);
        request
    }

    #[test]
    fn seed_pick_is_edf_across_classes_and_shapes() {
        let sched = ClassScheduler::new(16, true);
        let metrics = Metrics::new();
        // Ten Batch-class requests of the dominant shape queue first;
        // an Interactive request of a rarer shape lands last. Both keys
        // are due, and the Interactive class horizon (100 ms) orders it
        // far ahead of the 10 s Batch horizon, so EDF forms it first —
        // FIFO mode would have served the dominant backlog first.
        let waited = Duration::from_secs(2);
        for id in 0..10 {
            sched
                .try_push(aged(id, (32, 32), SloClass::Batch, waited), &metrics)
                .unwrap();
        }
        sched
            .try_push(aged(99, (8, 8), SloClass::Interactive, waited), &metrics)
            .unwrap();
        assert_eq!(formed_ids(form(&sched, &metrics)), vec![99]);
        assert_eq!(sched.len(), 10);
    }

    #[test]
    fn explicit_deadlines_order_within_a_class() {
        let sched = ClassScheduler::new(16, true);
        let metrics = Metrics::new();
        let now = Instant::now();
        for (id, secs) in [(1, 5), (2, 1), (3, 3)] {
            sched
                .try_push(
                    pending_at(
                        id,
                        (8, 8),
                        SloClass::Standard,
                        now + Duration::from_secs(secs),
                    ),
                    &metrics,
                )
                .unwrap();
        }
        sched.close();
        assert_eq!(
            formed_ids(form(&sched, &metrics)),
            vec![2, 3, 1],
            "EDF, not FIFO"
        );
    }

    #[test]
    fn fifo_mode_ignores_deadlines_classes_and_eviction() {
        // With shape_classed off, neither explicit deadlines nor classes
        // reorder anything: a batch is cut in admission order.
        let sched = ClassScheduler::new(4, false);
        let metrics = Metrics::new();
        let now = Instant::now();
        let arrivals = [
            (1, 5, SloClass::Batch),
            (2, 1, SloClass::Interactive),
            (3, 3, SloClass::Standard),
            (4, 2, SloClass::Interactive),
        ];
        for (id, secs, class) in arrivals {
            // Admitted in id order, each deadline `secs` out.
            let mut request = aged(id, (8, 8), class, Duration::from_millis(10 - id));
            request.deadline = Some(now + Duration::from_secs(secs));
            sched.try_push(request, &metrics).unwrap();
        }
        // Full: an Interactive request with an earlier deadline than
        // every queued one is refused, not admitted by eviction — not
        // even of the Batch-class request.
        let err = sched
            .try_push(pending_at(5, (8, 8), SloClass::Interactive, now), &metrics)
            .unwrap_err();
        assert!(matches!(err, PushError::Full(_)));
        assert_eq!(sched.len(), 4);
        assert_eq!(metrics.snapshot(0, 0).shed, 0);
        sched.close();
        assert_eq!(formed_ids(form(&sched, &metrics)), vec![1, 2, 3, 4]);
    }

    #[test]
    fn fifo_mode_forms_the_key_holding_the_oldest_request() {
        // The Interactive (8,8) request would win EDF, but FIFO mode
        // forms the due key whose request was admitted first.
        let sched = ClassScheduler::new(16, false);
        let metrics = Metrics::new();
        sched
            .try_push(
                aged(1, (32, 32), SloClass::Batch, Duration::from_secs(3)),
                &metrics,
            )
            .unwrap();
        sched
            .try_push(
                aged(2, (8, 8), SloClass::Interactive, Duration::from_secs(2)),
                &metrics,
            )
            .unwrap();
        assert_eq!(formed_ids(form(&sched, &metrics)), vec![1]);
        assert_eq!(formed_ids(form(&sched, &metrics)), vec![2]);
    }

    #[test]
    fn full_scheduler_evicts_the_latest_lower_priority_deadline() {
        let sched = ClassScheduler::new(2, true);
        let metrics = Metrics::new();
        let victim = pending(1, (32, 32), SloClass::Batch);
        let victim_state = Arc::clone(&victim.state);
        sched.try_push(victim, &metrics).unwrap();
        sched
            .try_push(pending(2, (32, 32), SloClass::Standard), &metrics)
            .unwrap();
        // Full. An Interactive request is strictly more urgent than the
        // Batch-class back (100 ms vs 10 s horizon): the Batch request
        // is evicted with Overloaded and the urgent one admitted.
        sched
            .try_push(pending(3, (8, 8), SloClass::Interactive), &metrics)
            .unwrap();
        assert_eq!(sched.len(), 2);
        assert_eq!(
            sched.state.lock().queues.len(),
            2,
            "the victim's emptied sub-queue is dropped"
        );
        assert!(
            !victim_state.fail(ServeError::Cancelled),
            "victim already completed (with Overloaded)"
        );
        let snap = metrics.snapshot(0, 0);
        assert_eq!(snap.per_class.batch.shed, 1);
        assert_eq!(snap.shed, 1);
        assert_eq!(snap.evicted, 1);
        assert_eq!(snap.failed, 0);
        // The evicted request is gone; the urgent one is formed first.
        sched.close();
        assert_eq!(formed_ids(form(&sched, &metrics)), vec![3]);
        assert_eq!(formed_ids(form(&sched, &metrics)), vec![2]);
    }

    #[test]
    fn eviction_never_preempts_a_higher_priority_class() {
        let sched = ClassScheduler::new(1, true);
        let metrics = Metrics::new();
        sched
            .try_push(pending(1, (8, 8), SloClass::Interactive), &metrics)
            .unwrap();
        // A Batch-class request cannot evict Interactive work no matter
        // the deadlines: the push fails Full, exactly like FIFO mode.
        let err = sched
            .try_push(pending(2, (32, 32), SloClass::Batch), &metrics)
            .unwrap_err();
        assert!(matches!(err, PushError::Full(_)));
        // Equal priority with a *later* deadline doesn't evict either.
        let err = sched
            .try_push(
                pending_at(
                    3,
                    (8, 8),
                    SloClass::Interactive,
                    Instant::now() + Duration::from_secs(60),
                ),
                &metrics,
            )
            .unwrap_err();
        assert!(matches!(err, PushError::Full(_)));
        assert_eq!(metrics.snapshot(0, 0).shed, 0);
    }

    #[test]
    fn take_matching_crosses_classes_but_not_keys() {
        let sched = ClassScheduler::new(16, true);
        let metrics = Metrics::new();
        sched
            .try_push(pending(1, (8, 8), SloClass::Batch), &metrics)
            .unwrap();
        sched
            .try_push(pending(2, (16, 16), SloClass::Standard), &metrics)
            .unwrap();
        sched
            .try_push(pending(3, (8, 8), SloClass::Interactive), &metrics)
            .unwrap();
        let taken = sched.take_matching(BatchKey::Decompose { rows: 8, cols: 8 }, 8);
        // Both (8,8) requests join — Interactive first (earlier
        // horizon) — while the (16,16) request stays queued.
        let ids: Vec<u64> = taken.iter().map(|r| r.id.0).collect();
        assert_eq!(ids, vec![3, 1]);
        assert_eq!(sched.len(), 1);
    }

    /// Regression test: draining a sub-queue used to leave it behind in
    /// `queues` for good. Apply keys carry the factor version, so every
    /// republish leaked one sub-queue that each push, take and formation
    /// survey scanned from then on.
    #[test]
    fn drained_sub_queues_are_dropped_in_both_modes() {
        for classed in [false, true] {
            let sched = ClassScheduler::new(8, classed);
            let metrics = Metrics::new();
            for version in 1..=50 {
                sched
                    .try_push(pending_apply(version, published(7, version)), &metrics)
                    .unwrap();
                let key = BatchKey::Apply { model: 7, version };
                assert_eq!(sched.take_matching(key, 8).len(), 1);
            }
            assert_eq!(sched.len(), 0);
            assert_eq!(
                sched.state.lock().queues.len(),
                0,
                "classed={classed}: drained sub-queues leaked"
            );
        }
    }

    /// Perf guard for FIFO-mode cuts: one sweep per queued request, each
    /// matching at the front (formation's steady state on a deep
    /// single-key backlog), must cost O(1) per take. A take that
    /// rebuilt or rescanned the backlog would make this drain
    /// O(depth²) — ~5×10⁸ element moves, tens of seconds in a debug
    /// build — while the sub-queue pop clears the wall bound by orders
    /// of magnitude even on a loaded CI machine.
    #[test]
    fn take_matching_front_match_is_constant_time() {
        const DEPTH: usize = 32_768;
        let sched = ClassScheduler::new(DEPTH, false);
        let metrics = Metrics::new();
        let base = Instant::now();
        for id in 0..DEPTH as u64 {
            let mut request = pending(id, (4, 4), SloClass::Standard);
            request.submitted_at = base + Duration::from_nanos(id);
            sched.try_push(request, &metrics).unwrap();
        }
        let key = BatchKey::Decompose { rows: 4, cols: 4 };
        let start = Instant::now();
        let mut drained = Vec::with_capacity(DEPTH);
        for _ in 0..DEPTH {
            let taken = sched.take_matching(key, 1);
            assert_eq!(taken.len(), 1);
            drained.extend(taken.iter().map(|r| r.id.0));
        }
        let elapsed = start.elapsed();
        assert_eq!(sched.len(), 0);
        assert_eq!(drained, (0..DEPTH as u64).collect::<Vec<_>>());
        assert!(
            elapsed < Duration::from_secs(5),
            "take_matching drained {DEPTH} front matches in {elapsed:?}; \
             each take is scanning the backlog instead of popping a sub-queue"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// FIFO mode against a model `VecDeque` under random pushes (of
        /// mixed keys and classes) and cuts: depth never exceeds the
        /// bound, a push fails `Full` exactly at capacity, and each cut
        /// takes its key's requests in admission order.
        #[test]
        fn fifo_mode_matches_a_model_queue(
            capacity in 1usize..9,
            ops in prop::collection::vec((0u8..3, 0usize..3, 0usize..3, 1usize..4), 1..64),
        ) {
            const SHAPES: [(usize, usize); 3] = [(4, 4), (8, 8), (12, 8)];
            let sched = ClassScheduler::new(capacity, false);
            let metrics = Metrics::new();
            let base = Instant::now();
            let mut model: VecDeque<(u64, BatchKey)> = VecDeque::new();
            for (id, (op, shape, class, max)) in ops.into_iter().enumerate() {
                let (rows, cols) = SHAPES[shape];
                let key = BatchKey::Decompose { rows, cols };
                if op < 2 {
                    let id = id as u64;
                    let mut request = pending(id, (rows, cols), SloClass::ALL[class]);
                    // Admission order is admission-time order.
                    request.submitted_at = base + Duration::from_micros(id);
                    match sched.try_push(request, &metrics) {
                        Ok(()) => {
                            prop_assert!(model.len() < capacity);
                            model.push_back((id, key));
                        }
                        Err(PushError::Full(r)) => {
                            prop_assert_eq!(r.id.0, id);
                            prop_assert_eq!(model.len(), capacity);
                        }
                        Err(PushError::Closed(_)) => prop_assert!(false, "never closed"),
                    }
                } else {
                    let taken: Vec<u64> =
                        sched.take_matching(key, max).iter().map(|r| r.id.0).collect();
                    let mut expected = Vec::new();
                    model.retain(|&(id, k)| {
                        let take = k == key && expected.len() < max;
                        if take {
                            expected.push(id);
                        }
                        !take
                    });
                    prop_assert_eq!(taken, expected);
                }
                prop_assert_eq!(sched.len(), model.len());
                prop_assert!(sched.len() <= capacity, "depth exceeded the bound");
            }
        }
    }

    // The sleeps in the blocking tests below only make the blocked path
    // likely; every interleaving satisfies their assertions.

    #[test]
    fn wait_for_push_wakes_on_new_push() {
        let sched = Arc::new(ClassScheduler::new(4, false));
        let seen = sched.push_seq();
        let pusher = Arc::clone(&sched);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            pusher
                .try_push(pending(1, (8, 8), SloClass::Standard), &Metrics::new())
                .unwrap();
        });
        let start = Instant::now();
        assert!(sched.wait_for_push(seen, Instant::now() + Duration::from_secs(10)));
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "woke via deadline, not push"
        );
        t.join().unwrap();
    }

    #[test]
    fn wait_for_push_false_at_deadline_without_push() {
        let sched = ClassScheduler::new(4, false);
        let seen = sched.push_seq();
        assert!(!sched.wait_for_push(seen, Instant::now() + Duration::from_millis(5)));
        // A deadline already in the past returns immediately.
        assert!(!sched.wait_for_push(seen, Instant::now() - Duration::from_millis(1)));
    }

    #[test]
    fn wait_for_push_false_on_close_without_push() {
        let sched = Arc::new(ClassScheduler::new(4, false));
        let seen = sched.push_seq();
        let closer = Arc::clone(&sched);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            closer.close();
        });
        let start = Instant::now();
        assert!(!sched.wait_for_push(seen, Instant::now() + Duration::from_secs(10)));
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "close did not wake the waiter"
        );
        t.join().unwrap();
    }

    #[test]
    fn wait_for_push_sees_push_that_raced_the_snapshot() {
        // A push landing between the snapshot and the wait advances the
        // sequence, so the wait returns true immediately even though the
        // notification fired before anyone was waiting — the lost-wakeup
        // case the sequence number exists to prevent.
        let sched = ClassScheduler::new(4, false);
        let seen = sched.push_seq();
        sched
            .try_push(pending(1, (8, 8), SloClass::Standard), &Metrics::new())
            .unwrap();
        let start = Instant::now();
        assert!(sched.wait_for_push(seen, Instant::now() + Duration::from_secs(10)));
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn closed_scheduler_reports_drained() {
        let sched = ClassScheduler::new(4, true);
        let metrics = Metrics::new();
        sched
            .try_push(pending(1, (8, 8), SloClass::Standard), &metrics)
            .unwrap();
        sched.close();
        // Already-queued work still drains...
        assert_eq!(formed_ids(form(&sched, &metrics)), vec![1]);
        // ...then the scheduler reports drained, and new pushes fail.
        assert!(matches!(form(&sched, &metrics), FormOutcome::Drained));
        let err = sched
            .try_push(pending(2, (8, 8), SloClass::Standard), &metrics)
            .unwrap_err();
        assert!(matches!(err, PushError::Closed(_)));
    }

    #[test]
    fn shed_controller_escalates_and_decays_with_the_timeout_fraction() {
        let metrics = Metrics::new();
        let sched = ClassScheduler::new(4, true);
        let mut shed = ShedController::new(0.3, Duration::ZERO);
        let end = |outcome, n| {
            for _ in 0..n {
                metrics.record_outcome(RequestType::Decompose, SloClass::Standard, outcome);
            }
        };
        // Window 1: 1 timeout / 9 completions = 10% < threshold.
        end(Outcome::Completed, 9);
        end(Outcome::TimedOutAtExec, 1);
        shed.update(&metrics, &sched);
        assert_eq!(sched.shed_level(), SHED_NONE);
        // Window 2: 4 timeouts / 6 completions = 40% > 30%; both drop
        // points count.
        end(Outcome::Completed, 6);
        end(Outcome::TimedOutAtExec, 2);
        end(Outcome::TimedOutAtBatcher, 2);
        shed.update(&metrics, &sched);
        assert_eq!(sched.shed_level(), SHED_BATCH);
        // Window 3: 7/10 = 70% > 60%: Standard sheds too.
        end(Outcome::Completed, 3);
        end(Outcome::TimedOutAtExec, 7);
        shed.update(&metrics, &sched);
        assert_eq!(sched.shed_level(), SHED_STANDARD);
        // Windows 4-5: clean traffic decays one tier per window.
        end(Outcome::Completed, 82);
        shed.update(&metrics, &sched);
        assert_eq!(sched.shed_level(), SHED_BATCH);
        end(Outcome::Completed, 100);
        shed.update(&metrics, &sched);
        assert_eq!(sched.shed_level(), SHED_NONE);
        // An idle window holds the tier instead of decaying on silence.
        shed.update(&metrics, &sched);
        assert_eq!(sched.shed_level(), SHED_NONE);
    }

    #[test]
    fn classed_formation_picks_urgent_and_sweeps_same_key() {
        let sched = ClassScheduler::new(16, true);
        let metrics = Metrics::new();
        let waited = Duration::from_secs(2);
        for id in 0..3 {
            sched
                .try_push(aged(id, (32, 32), SloClass::Batch, waited), &metrics)
                .unwrap();
        }
        sched
            .try_push(aged(9, (8, 8), SloClass::Interactive, waited), &metrics)
            .unwrap();
        // First batch: the urgent (8,8) Interactive, which has no
        // same-key peers — a singleton, ahead of the Batch backlog.
        assert_eq!(formed_ids(form(&sched, &metrics)), vec![9]);
        // Second batch: the (32,32) Batch-class backlog coalesces.
        assert_eq!(formed_ids(form(&sched, &metrics)), vec![0, 1, 2]);
    }

    #[test]
    fn full_key_is_formed_before_a_more_urgent_lingering_key() {
        // EDF orders only the keys that are due: a fresh Interactive
        // request lingering on its own clock does not hold back a
        // Batch-class key that has reached its cap, and stays queued.
        let sched = ClassScheduler::new(16, true);
        let metrics = Metrics::new();
        sched
            .try_push(pending(9, (8, 8), SloClass::Interactive), &metrics)
            .unwrap();
        for id in 0..4 {
            sched
                .try_push(pending(id, (32, 32), SloClass::Batch), &metrics)
                .unwrap();
        }
        assert_eq!(formed_ids(form(&sched, &metrics)), vec![0, 1, 2, 3]);
        assert_eq!(sched.len(), 1, "the Interactive key keeps lingering");
    }

    #[test]
    fn a_due_key_takes_every_class_of_its_queued_peers() {
        // One due request makes its key due for every class queued
        // under it: the cut takes the young Interactive and Standard
        // peers with it, earliest effective deadline first.
        let sched = ClassScheduler::new(16, true);
        let metrics = Metrics::new();
        sched
            .try_push(
                aged(1, (8, 8), SloClass::Batch, Duration::from_secs(2)),
                &metrics,
            )
            .unwrap();
        sched
            .try_push(pending(2, (8, 8), SloClass::Standard), &metrics)
            .unwrap();
        sched
            .try_push(pending(3, (8, 8), SloClass::Interactive), &metrics)
            .unwrap();
        assert_eq!(formed_ids(form(&sched, &metrics)), vec![3, 2, 1]);
        assert_eq!(sched.len(), 0);
    }

    #[test]
    fn lingering_requests_stay_in_the_scheduler() {
        // Nothing is due under a 1 s linger: the call returns Idle with
        // every request still queued and counted.
        let sched = ClassScheduler::new(16, true);
        let metrics = Metrics::new();
        for id in 0..3 {
            sched
                .try_push(pending(id, (8, 8), SloClass::Standard), &metrics)
                .unwrap();
        }
        assert!(matches!(form(&sched, &metrics), FormOutcome::Idle));
        assert_eq!(sched.len(), 3);
    }
}
