//! Shape-classed SLO scheduling: EDF sub-queues and stealing dispatch.
//!
//! With [`crate::ServeConfig::shape_classed`] on, admission routes into
//! per-([`BatchKey`], [`SloClass`]) sub-queues held by a
//! [`ClassScheduler`] instead of the shape-blind FIFO
//! [`crate::queue::BoundedQueue`]:
//!
//! * **EDF formation** — among the batch keys that are due, the batcher
//!   forms the one holding the earliest *effective* deadline (the
//!   explicit deadline, or submission time plus the class horizon). A
//!   rare Interactive request therefore jumps a backlog of Batch-class
//!   work instead of waiting out the FIFO.
//! * **EDF admission** — a full scheduler does not blindly reject: an
//!   incoming request that is strictly more urgent than the
//!   latest-deadline request of an equal-or-lower-priority class evicts
//!   it (the victim completes with [`ServeError::Overloaded`]).
//! * **Work stealing** — formed batches land in per-sub-pool dispatch
//!   queues ([`StealingDispatch`]); an idle replica first drains its
//!   home pool, then steals from the most backlogged one, so a hot
//!   class cannot strand capacity.
//! * **Load shedding** — a [`ShedController`] watches the windowed
//!   timeout fraction and sheds Batch (then Standard) traffic at
//!   admission before the queue collapses.
//!
//! The scheduler only reorders *when* requests execute; per-request
//! factors stay bit-identical to the FIFO path and to a solo
//! accelerator run.

use crate::batcher::{Admission, Batch};
use crate::error::ServeError;
use crate::metrics::Metrics;
use crate::queue::{PopResult, PushError};
use crate::request::{BatchKey, PendingRequest, SloClass};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// No class is shed.
pub(crate) const SHED_NONE: u8 = 0;
/// Batch-class traffic is shed at admission.
pub(crate) const SHED_BATCH: u8 = 1;
/// Batch- and Standard-class traffic are shed at admission.
pub(crate) const SHED_STANDARD: u8 = 2;

/// One per-(key, class) sub-queue, ordered ascending by effective
/// deadline (FIFO among ties, preserved by the insertion sort).
struct ClassQueue {
    key: BatchKey,
    class: SloClass,
    buf: VecDeque<PendingRequest>,
}

struct SchedState {
    queues: Vec<ClassQueue>,
    /// Total requests across all sub-queues (bounded by `capacity`).
    len: usize,
    /// Bumps on every successful push; the batcher snapshots it before
    /// surveying so a racing push wakes its wait immediately.
    push_seq: u64,
    closed: bool,
}

/// The shape-classed admission structure replacing the FIFO queue.
pub(crate) struct ClassScheduler {
    state: Mutex<SchedState>,
    /// Signalled on every push and on close; the batcher's wait parks
    /// here.
    push_cv: Condvar,
    capacity: usize,
    /// Current shed tier, written by the [`ShedController`] and read by
    /// admission ([`SHED_NONE`] / [`SHED_BATCH`] / [`SHED_STANDARD`]).
    shed_level: AtomicU8,
}

impl ClassScheduler {
    pub(crate) fn new(capacity: usize) -> Self {
        ClassScheduler {
            state: Mutex::new(SchedState {
                queues: Vec::new(),
                len: 0,
                push_seq: 0,
                closed: false,
            }),
            push_cv: Condvar::new(),
            capacity,
            shed_level: AtomicU8::new(SHED_NONE),
        }
    }

    pub(crate) fn shed_level(&self) -> u8 {
        self.shed_level.load(Ordering::Relaxed)
    }

    pub(crate) fn set_shed_level(&self, level: u8) {
        self.shed_level.store(level, Ordering::Relaxed);
    }

    /// Admits `request` into its (key, class) sub-queue, sorted by
    /// effective deadline. A full scheduler evicts the latest-deadline
    /// request among equal-or-lower-priority classes when the incoming
    /// request is strictly more urgent (the victim completes with
    /// [`ServeError::Overloaded`] and is counted shed); otherwise the
    /// push fails `Full` exactly like the FIFO queue.
    // A rejected push hands the request back by value, same as
    // `BoundedQueue::try_push` — the caller completes it, so the large
    // Err variant is the point, not an accident.
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
        if st.len >= self.capacity {
            let incoming_deadline = request.effective_deadline();
            let priority = request.class.priority();
            // The eviction candidate: across every sub-queue of
            // equal-or-lower priority, the request with the LATEST
            // effective deadline (each sub-queue's back, since queues
            // are deadline-sorted).
            let victim = st
                .queues
                .iter()
                .enumerate()
                .filter(|(_, q)| q.class.priority() <= priority && !q.buf.is_empty())
                .max_by_key(|(_, q)| q.buf.back().expect("non-empty").effective_deadline())
                .map(|(qi, q)| (qi, q.buf.back().expect("non-empty").effective_deadline()));
            match victim {
                Some((qi, victim_deadline)) if incoming_deadline < victim_deadline => {
                    let evicted = st.queues[qi].buf.pop_back().expect("non-empty");
                    st.len -= 1;
                    if evicted.state.complete(Err(ServeError::Overloaded)) {
                        metrics.record_shed(evicted.class);
                    }
                }
                _ => return Err(PushError::Full(request)),
            }
        }
        let key = request.batch_key();
        let class = request.class;
        let deadline = request.effective_deadline();
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
        let buf = &mut st.queues[qi].buf;
        let pos = buf.partition_point(|r| r.effective_deadline() <= deadline);
        buf.insert(pos, request);
        st.len += 1;
        st.push_seq += 1;
        drop(st);
        self.push_cv.notify_all();
        Ok(())
    }

    /// Removes up to `max` queued requests whose batch key is `key`,
    /// earliest effective deadline first *across* classes — so a batch
    /// formed for an urgent request still coalesces same-shape work from
    /// lower-priority classes (fill amortizes Eq. 14 for everyone).
    pub(crate) fn take_matching(&self, key: BatchKey, max: usize) -> Vec<PendingRequest> {
        let mut st = self.state.lock();
        let mut taken = Vec::new();
        while taken.len() < max {
            let qi = st
                .queues
                .iter()
                .enumerate()
                .filter(|(_, q)| q.key == key && !q.buf.is_empty())
                .min_by_key(|(_, q)| q.buf.front().expect("non-empty").effective_deadline())
                .map(|(qi, _)| qi);
            let Some(qi) = qi else { break };
            taken.push(st.queues[qi].buf.pop_front().expect("non-empty"));
            st.len -= 1;
        }
        taken
    }

    pub(crate) fn close(&self) {
        let mut st = self.state.lock();
        st.closed = true;
        drop(st);
        self.push_cv.notify_all();
    }

    pub(crate) fn len(&self) -> usize {
        self.state.lock().len
    }
}

impl Admission for ClassScheduler {
    const EDF: bool = true;

    fn is_closed(&self) -> bool {
        self.state.lock().closed
    }

    fn push_seq(&self) -> u64 {
        self.state.lock().push_seq
    }

    fn wait_for_push(&self, seen: u64, deadline: Instant) -> bool {
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

    fn for_each_queued(&self, visit: &mut dyn FnMut(&mut PendingRequest)) {
        let mut st = self.state.lock();
        for queue in &mut st.queues {
            queue.buf.iter_mut().for_each(&mut *visit);
        }
    }

    fn take_key(&self, key: BatchKey, max: usize) -> Vec<PendingRequest> {
        self.take_matching(key, max)
    }
}

/// Per-sub-pool dispatch with work stealing. Batches route to a pool by
/// their key hash; each replica drains its home pool first and steals
/// from the most backlogged other pool when idle. With one pool (FIFO
/// mode) this degenerates to exactly the old single dispatch queue.
pub(crate) struct StealingDispatch {
    state: Mutex<DispatchState>,
    /// Poppers (replicas) park here for new batches.
    items_cv: Condvar,
    /// Pushers (the batcher) park here for space.
    space_cv: Condvar,
    /// Global bound across all pools, preserving the FIFO-mode
    /// backpressure contract (`workers * 2`).
    capacity: usize,
    pools: usize,
}

struct DispatchState {
    pools: Vec<VecDeque<Batch>>,
    len: usize,
    closed: bool,
}

impl StealingDispatch {
    pub(crate) fn new(pools: usize, capacity: usize) -> Self {
        let pools = pools.max(1);
        StealingDispatch {
            state: Mutex::new(DispatchState {
                pools: (0..pools).map(|_| VecDeque::new()).collect(),
                len: 0,
                closed: false,
            }),
            items_cv: Condvar::new(),
            space_cv: Condvar::new(),
            capacity: capacity.max(1),
            pools,
        }
    }

    /// Blocks until space, then routes `batch` to its key's pool.
    pub(crate) fn push(&self, batch: Batch) -> Result<(), PushError<Batch>> {
        let mut st = self.state.lock();
        loop {
            if st.closed {
                return Err(PushError::Closed(batch));
            }
            if st.len < self.capacity {
                break;
            }
            self.space_cv.wait(&mut st);
        }
        let pool = pool_of(&batch.key, self.pools);
        st.pools[pool].push_back(batch);
        st.len += 1;
        drop(st);
        self.items_cv.notify_all();
        Ok(())
    }

    /// Pops the next batch for the replica homed at pool `home`: the
    /// home pool first, else a steal from the most backlogged pool
    /// (counted in [`Metrics::record_batch_stolen`]).
    pub(crate) fn pop(
        &self,
        home: usize,
        timeout: Duration,
        metrics: &Metrics,
    ) -> PopResult<Batch> {
        let deadline = Instant::now() + timeout;
        let home = home % self.pools;
        let mut st = self.state.lock();
        loop {
            if st.len > 0 {
                let pool = if !st.pools[home].is_empty() {
                    home
                } else {
                    let victim = (0..self.pools)
                        .filter(|&p| !st.pools[p].is_empty())
                        .max_by_key(|&p| st.pools[p].len())
                        .expect("len > 0 implies a non-empty pool");
                    metrics.record_batch_stolen();
                    victim
                };
                let batch = st.pools[pool].pop_front().expect("non-empty pool");
                st.len -= 1;
                drop(st);
                self.space_cv.notify_one();
                return PopResult::Item(batch);
            }
            if st.closed {
                return PopResult::Closed;
            }
            if self.items_cv.wait_until(&mut st, deadline).timed_out() && st.len == 0 {
                return PopResult::TimedOut;
            }
        }
    }

    pub(crate) fn close(&self) {
        let mut st = self.state.lock();
        st.closed = true;
        drop(st);
        self.items_cv.notify_all();
        self.space_cv.notify_all();
    }
}

fn pool_of(key: &BatchKey, pools: usize) -> usize {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut hasher);
    (hasher.finish() as usize) % pools
}

/// Windowed overload policy: on a cadence, diffs the service's timeout
/// and completion counters and maps the timeout fraction to a shed
/// tier — above [`crate::ServeConfig::shed_threshold`] Batch sheds,
/// above twice it Standard sheds too, and below half of it the tier
/// decays one step. Runs on the batcher thread (the single writer of
/// the shed level).
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
        let timeouts = metrics.timed_out_batcher.load(Ordering::Relaxed)
            + metrics.timed_out_exec.load(Ordering::Relaxed);
        let completed = metrics.completed_ok.load(Ordering::Relaxed);
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
            metrics.set_shed_level(u64::from(level));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::{self, BatchEntry, FormOutcome};
    use crate::config::ServeConfig;
    use crate::request::{Payload, RequestId, RequestState};
    use std::sync::Arc;
    use svd_kernels::Matrix;

    fn pending(id: u64, shape: (usize, usize), class: SloClass) -> PendingRequest {
        PendingRequest {
            id: RequestId(id),
            payload: Payload::Decompose {
                matrix: Matrix::zeros(shape.0, shape.1),
                shape,
                publish: None,
            },
            state: RequestState::new(),
            submitted_at: Instant::now(),
            deadline: None,
            seen_at: None,
            class,
            poison: false,
        }
    }

    /// A request admitted `age` ago, without the test sleeping for it.
    fn aged(id: u64, shape: (usize, usize), class: SloClass, age: Duration) -> PendingRequest {
        let mut request = pending(id, shape, class);
        request.submitted_at -= age;
        request
    }

    /// One classed formation call: every (key, class) gets a cap of 4
    /// and a 1 s linger.
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

    fn batch_of(id: u64, shape: (usize, usize)) -> Batch {
        Batch {
            key: BatchKey::Decompose {
                rows: shape.0,
                cols: shape.1,
            },
            entries: vec![BatchEntry {
                request: pending(id, shape, SloClass::Standard),
                picked_at: Instant::now(),
            }],
        }
    }

    #[test]
    fn seed_pick_is_edf_across_classes_and_shapes() {
        let sched = ClassScheduler::new(16);
        let metrics = Metrics::new();
        // Ten Batch-class requests of the dominant shape queue first;
        // an Interactive request of a rarer shape lands last. Both keys
        // are due, and the Interactive class horizon (100 ms) orders it
        // far ahead of the 10 s Batch horizon, so EDF forms it first —
        // the FIFO would have served the dominant backlog first.
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
        let sched = ClassScheduler::new(16);
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
    fn full_scheduler_evicts_the_latest_lower_priority_deadline() {
        let sched = ClassScheduler::new(2);
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
        assert!(
            !victim_state.complete(Err(ServeError::Cancelled)),
            "victim already completed (with Overloaded)"
        );
        let snap = metrics.snapshot(0, 0);
        assert_eq!(snap.per_class.batch.shed, 1);
        assert_eq!(snap.shed, 1);
        // The evicted request is gone; the urgent one is formed first.
        sched.close();
        assert_eq!(formed_ids(form(&sched, &metrics)), vec![3]);
        assert_eq!(formed_ids(form(&sched, &metrics)), vec![2]);
    }

    #[test]
    fn eviction_never_preempts_a_higher_priority_class() {
        let sched = ClassScheduler::new(1);
        let metrics = Metrics::new();
        sched
            .try_push(pending(1, (8, 8), SloClass::Interactive), &metrics)
            .unwrap();
        // A Batch-class request cannot evict Interactive work no matter
        // the deadlines: the push fails Full, exactly like the FIFO.
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
        let sched = ClassScheduler::new(16);
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

    #[test]
    fn closed_scheduler_reports_drained() {
        let sched = ClassScheduler::new(4);
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
    fn stealing_pop_prefers_home_then_raids_the_backlog() {
        let metrics = Metrics::new();
        let dispatch = StealingDispatch::new(2, 8);
        // Two batches of a key that hashes to some pool P; a replica
        // homed at the *other* pool must steal them (and be counted),
        // while a replica homed at P pops for free.
        let pool = pool_of(&batch_of(0, (8, 8)).key, 2);
        assert!(dispatch.push(batch_of(1, (8, 8))).is_ok());
        assert!(dispatch.push(batch_of(2, (8, 8))).is_ok());
        let other = 1 - pool;
        match dispatch.pop(other, Duration::from_millis(10), &metrics) {
            PopResult::Item(b) => assert_eq!(b.entries[0].request.id, RequestId(1)),
            _ => panic!("expected a stolen batch"),
        }
        assert_eq!(metrics.batches_stolen.load(Ordering::Relaxed), 1);
        match dispatch.pop(pool, Duration::from_millis(10), &metrics) {
            PopResult::Item(b) => assert_eq!(b.entries[0].request.id, RequestId(2)),
            _ => panic!("expected a home-pool batch"),
        }
        assert_eq!(
            metrics.batches_stolen.load(Ordering::Relaxed),
            1,
            "home pop is not a steal"
        );
        dispatch.close();
        assert!(matches!(
            dispatch.pop(0, Duration::from_millis(5), &metrics),
            PopResult::Closed
        ));
    }

    #[test]
    fn single_pool_dispatch_is_plain_fifo() {
        let metrics = Metrics::new();
        let dispatch = StealingDispatch::new(1, 4);
        assert!(dispatch.push(batch_of(1, (8, 8))).is_ok());
        assert!(dispatch.push(batch_of(2, (16, 16))).is_ok());
        for expect in [1u64, 2] {
            match dispatch.pop(7, Duration::from_millis(10), &metrics) {
                PopResult::Item(b) => assert_eq!(b.entries[0].request.id, RequestId(expect)),
                _ => panic!("expected a batch"),
            }
        }
        assert_eq!(metrics.batches_stolen.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn shed_controller_escalates_and_decays_with_the_timeout_fraction() {
        let metrics = Metrics::new();
        let sched = ClassScheduler::new(4);
        let mut shed = ShedController::new(0.3, Duration::ZERO);
        // Window 1: 1 timeout / 9 completions = 10% < threshold.
        metrics.completed_ok.store(9, Ordering::Relaxed);
        metrics.timed_out_exec.store(1, Ordering::Relaxed);
        shed.update(&metrics, &sched);
        assert_eq!(sched.shed_level(), SHED_NONE);
        // Window 2: 4 timeouts / 6 completions = 40% > 30%.
        metrics.completed_ok.store(15, Ordering::Relaxed);
        metrics.timed_out_exec.store(5, Ordering::Relaxed);
        shed.update(&metrics, &sched);
        assert_eq!(sched.shed_level(), SHED_BATCH);
        assert_eq!(metrics.shed_level.load(Ordering::Relaxed), 1);
        // Window 3: 7/10 = 70% > 60%: Standard sheds too.
        metrics.completed_ok.store(18, Ordering::Relaxed);
        metrics.timed_out_exec.store(12, Ordering::Relaxed);
        shed.update(&metrics, &sched);
        assert_eq!(sched.shed_level(), SHED_STANDARD);
        // Windows 4-5: clean traffic decays one tier per window.
        metrics.completed_ok.store(100, Ordering::Relaxed);
        shed.update(&metrics, &sched);
        assert_eq!(sched.shed_level(), SHED_BATCH);
        metrics.completed_ok.store(200, Ordering::Relaxed);
        shed.update(&metrics, &sched);
        assert_eq!(sched.shed_level(), SHED_NONE);
        // An idle window holds the tier instead of decaying on silence.
        shed.update(&metrics, &sched);
        assert_eq!(sched.shed_level(), SHED_NONE);
    }

    #[test]
    fn classed_formation_picks_urgent_and_sweeps_same_key() {
        let sched = ClassScheduler::new(16);
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
        let sched = ClassScheduler::new(16);
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
        let sched = ClassScheduler::new(16);
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
        let sched = ClassScheduler::new(16);
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
