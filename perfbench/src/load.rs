//! The single-threaded load generator: submits through the public
//! `try_submit*` API, observes completions through the handles, and
//! keeps one [`Record`] per request.

use crate::workload::{Item, Lane, Work};
use heterosvd_serve::{
    ApplyHandle, ApplyResponse, LatencyRecord, ModelId, PublishedFactors, RequestHandle,
    ServeError, SubmitOptions, SvdResponse, SvdService, UpdateHandle, UpdateResponse,
};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};
use svd_kernels::incremental::UpdateRoute;
use svd_kernels::Matrix;

/// Longest the generator blocks on one handle before it re-checks the
/// schedule and the other handles: bounds how late it notices a
/// completion that is not the oldest outstanding one.
const POLL: Duration = Duration::from_micros(200);
/// How long a phase waits for its stragglers before counting them as
/// failed.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);

/// Which request kind a record is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Plain decompose.
    Decompose,
    /// Apply.
    Apply,
    /// Incremental update.
    Update,
    /// Republish (a decompose that publishes factors).
    Publish,
}

/// Which phase submitted a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Open-loop phase on the workload's service (observability on, as
    /// `ServeConfig::default()` has it).
    Open,
    /// Open-loop phase on a service with observability off: the first
    /// half of a traced run, the baseline of its tracing overhead.
    Untraced,
    /// Closed-loop saturation phase.
    Closed,
}

/// What the output checks need from a completed request.
#[derive(Debug)]
pub enum Output {
    /// Nothing kept (unsampled decompose or publish).
    None,
    /// Served factors of a sampled decompose.
    Decompose { u: Matrix<f32>, sigma: Vec<f32> },
    /// A served apply and its input. Every `y` is kept as a hash of its
    /// bits; sampled ones are also kept whole for the f64 error.
    Apply {
        x: Arc<Vec<f64>>,
        model: ModelId,
        version: u64,
        rank: usize,
        y_hash: u64,
        y: Option<Vec<f32>>,
    },
    /// A served update's spectrum.
    Update { sigma: Vec<f32> },
}

/// One submitted request.
#[derive(Debug)]
pub struct Record {
    /// Request kind.
    pub kind: Kind,
    /// Submitting phase.
    pub phase: Phase,
    /// When the request was due (open loop) or released (closed loop).
    pub due: Instant,
    /// When the `try_submit*` call started.
    pub call_start: Instant,
    /// When the `try_submit*` call returned.
    pub call_end: Instant,
    /// When the generator saw `wait()` return.
    pub done: Option<Instant>,
    /// The service's latency decomposition of a successful request.
    pub latency: Option<LatencyRecord>,
    /// The terminal error (refusal, failure, straggler), if any.
    pub error: Option<String>,
    /// Output kept for the checks.
    pub output: Output,
    /// Input kept for the checks (sampled decompose/update).
    pub check: Option<Matrix<f64>>,
    /// The route of a served update.
    pub route: Option<UpdateRoute>,
    /// Iterations a warm-started update saved against a cold solve.
    pub warm_saved: Option<usize>,
}

impl Record {
    /// Whether the request completed OK.
    pub fn ok(&self) -> bool {
        self.error.is_none() && self.done.is_some()
    }

    /// Due-to-observed latency in ms.
    pub fn e2e_ms(&self) -> Option<f64> {
        self.done
            .map(|d| d.saturating_duration_since(self.due).as_secs_f64() * 1e3)
    }
}

enum Handle {
    Decompose(RequestHandle),
    Apply(ApplyHandle),
    Update(UpdateHandle),
}

enum Response {
    Decompose(Box<SvdResponse>),
    Apply(ApplyResponse),
    Update(Box<UpdateResponse>),
}

impl Handle {
    fn is_finished(&self) -> bool {
        match self {
            Handle::Decompose(h) => h.is_finished(),
            Handle::Apply(h) => h.is_finished(),
            Handle::Update(h) => h.is_finished(),
        }
    }

    fn wait_timeout(self, timeout: Duration) -> Result<Result<Response, ServeError>, Self> {
        match self {
            Handle::Decompose(h) => h
                .wait_timeout(timeout)
                .map(|r| r.map(|v| Response::Decompose(Box::new(v))))
                .map_err(Handle::Decompose),
            Handle::Apply(h) => h
                .wait_timeout(timeout)
                .map(|r| r.map(Response::Apply))
                .map_err(Handle::Apply),
            Handle::Update(h) => h
                .wait_timeout(timeout)
                .map(|r| r.map(|v| Response::Update(Box::new(v))))
                .map_err(Handle::Update),
        }
    }
}

struct Pending {
    record: usize,
    lane: Option<usize>,
    handle: Handle,
}

/// Published factors by (model, version).
pub type Versions = BTreeMap<(u64, u64), Arc<PublishedFactors>>;

/// Drives one service through the open- and closed-loop phases.
pub struct Generator<'a> {
    service: &'a SvdService,
    pending: VecDeque<Pending>,
    /// An empty buffer `harvest` moves the scanned handles into, so its
    /// pass allocates nothing.
    spare: VecDeque<Pending>,
    /// Every request submitted so far.
    pub records: Vec<Record>,
    /// Every factor version seen in the store, for the apply checks.
    pub versions: Versions,
    lane_busy: Vec<usize>,
    applies: usize,
}

/// One in this many completed applies keeps its whole `y` for the f64
/// error check (every `y` is bit-checked through its hash).
const APPLY_KEEP_EVERY: usize = 64;

/// FNV-1a over the bit patterns of `y`.
pub fn hash_bits(y: &[f32]) -> u64 {
    y.iter().fold(0xCBF2_9CE4_8422_2325, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01B3)
    })
}

/// What the closed-loop phase measured, per window of equal length.
#[derive(Debug, Clone, Default)]
pub struct ClosedLoop {
    /// Non-publish completions per second in each window.
    pub rps: Vec<f64>,
    /// Process CPU ms per such completion in each window.
    pub cpu_ms_per_req: Vec<f64>,
}

impl<'a> Generator<'a> {
    /// A generator over `service`.
    pub fn new(service: &'a SvdService) -> Self {
        let mut g = Generator {
            service,
            pending: VecDeque::new(),
            spare: VecDeque::new(),
            records: Vec::new(),
            versions: BTreeMap::new(),
            lane_busy: Vec::new(),
            applies: 0,
        };
        g.note_versions();
        g
    }

    /// Every record, and every factor version seen in the store. Ends
    /// the borrow of the service.
    pub fn into_records(self) -> (Vec<Record>, Versions) {
        (self.records, self.versions)
    }

    /// Records the store's current version of every model.
    fn note_versions(&mut self) {
        for m in 0..crate::workload::MODELS as u64 {
            if let Some(f) = self.service.store().get(ModelId(m)) {
                self.versions.entry((m, f.version)).or_insert(f);
            }
        }
    }

    fn submit(&mut self, item: Item, due: Instant, phase: Phase, lane: Option<usize>) {
        let Item { work, check, .. } = item;
        let call_start = Instant::now();
        let (kind, submitted, output) = match work {
            Work::Decompose { matrix, class } => (
                Kind::Decompose,
                self.service
                    .try_submit_with(
                        matrix,
                        SubmitOptions {
                            class,
                            ..SubmitOptions::default()
                        },
                    )
                    .map(Handle::Decompose),
                Output::None,
            ),
            Work::Publish { model, matrix } => (
                Kind::Publish,
                self.service
                    .try_submit_publish(model, matrix, crate::workload::MODEL_RANK)
                    .map(Handle::Decompose),
                Output::None,
            ),
            Work::Apply { model, x } => {
                let submitted = self
                    .service
                    .try_submit_apply_with(
                        model,
                        &x,
                        None,
                        SubmitOptions {
                            class: heterosvd_serve::SloClass::Interactive,
                            ..SubmitOptions::default()
                        },
                    )
                    .map(Handle::Apply);
                let output = Output::Apply {
                    x,
                    model,
                    version: 0,
                    rank: 0,
                    y_hash: 0,
                    y: None,
                };
                (Kind::Apply, submitted, output)
            }
            Work::Update { client, matrix } => (
                Kind::Update,
                self.service
                    .try_submit_update(client, matrix)
                    .map(Handle::Update),
                Output::None,
            ),
        };
        let call_end = Instant::now();
        let record = self.records.len();
        let error = match submitted {
            Ok(handle) => {
                self.pending.push_back(Pending {
                    record,
                    lane,
                    handle,
                });
                if let Some(l) = lane {
                    self.lane_busy[l] += 1;
                }
                None
            }
            Err(e) => Some(format!("refused: {e}")),
        };
        self.records.push(Record {
            kind,
            phase,
            due,
            call_start,
            call_end,
            done: None,
            latency: None,
            error,
            output,
            check,
            route: None,
            warm_saved: None,
        });
    }

    fn finish(&mut self, record: usize, lane: Option<usize>, result: Result<Response, ServeError>) {
        let now = Instant::now();
        if let Some(l) = lane {
            self.lane_busy[l] -= 1;
        }
        let rec = &mut self.records[record];
        rec.done = Some(now);
        match result {
            Err(e) => rec.error = Some(format!("failed: {e}")),
            Ok(Response::Decompose(r)) => {
                rec.latency = Some(r.latency);
                if rec.check.is_some() {
                    let SvdResponse { output, .. } = *r;
                    rec.output = Output::Decompose {
                        u: output.result.u,
                        sigma: output.result.sigma,
                    };
                }
            }
            Ok(Response::Apply(r)) => {
                rec.latency = Some(r.latency);
                let keep = self.applies.is_multiple_of(APPLY_KEEP_EVERY);
                self.applies += 1;
                if let Output::Apply {
                    model,
                    version,
                    rank,
                    y_hash,
                    y,
                    ..
                } = &mut rec.output
                {
                    *model = r.model;
                    *version = r.version;
                    *rank = r.rank;
                    *y_hash = hash_bits(&r.y);
                    *y = keep.then_some(r.y);
                }
            }
            Ok(Response::Update(r)) => {
                rec.latency = Some(r.latency);
                rec.route = Some(r.route);
                rec.warm_saved = r.warm_start.map(|w| w.iterations_saved());
                if rec.check.is_some() {
                    rec.output = Output::Update { sigma: r.sigma };
                }
            }
        }
        if rec.kind == Kind::Publish {
            self.note_versions();
        }
    }

    /// Takes every finished handle off the pending list, in one pass
    /// from the first finished one that keeps the others in order.
    fn harvest(&mut self) {
        let Some(first) = self.pending.iter().position(|p| p.handle.is_finished()) else {
            return;
        };
        let mut scan = std::mem::take(&mut self.spare);
        scan.extend(self.pending.drain(first..));
        for Pending {
            record,
            lane,
            handle,
        } in scan.drain(..)
        {
            let handle = if handle.is_finished() {
                match handle.wait_timeout(Duration::ZERO) {
                    Ok(result) => {
                        self.finish(record, lane, result);
                        continue;
                    }
                    Err(handle) => handle,
                }
            } else {
                handle
            };
            self.pending.push_back(Pending {
                record,
                lane,
                handle,
            });
        }
        self.spare = scan;
    }

    /// Blocks until `until`, waking early when the oldest outstanding
    /// request completes and at least every [`POLL`].
    fn block(&mut self, until: Instant) {
        let now = Instant::now();
        if until <= now {
            return;
        }
        let budget = (until - now).min(POLL);
        match self.pending.pop_front() {
            None => std::thread::sleep(until - now),
            Some(Pending {
                record,
                lane,
                handle,
            }) => match handle.wait_timeout(budget) {
                Ok(result) => self.finish(record, lane, result),
                Err(handle) => self.pending.push_front(Pending {
                    record,
                    lane,
                    handle,
                }),
            },
        }
    }

    /// Waits for every outstanding request; stragglers past the drain
    /// limit count as failed.
    fn drain(&mut self) {
        let deadline = Instant::now() + DRAIN_LIMIT;
        loop {
            self.harvest();
            if self.pending.is_empty() || Instant::now() >= deadline {
                break;
            }
            self.block(deadline);
        }
        for p in std::mem::take(&mut self.pending) {
            let rec = &mut self.records[p.record];
            rec.error = Some("straggler: not complete at the drain limit".into());
            p.handle_cancel();
        }
    }

    /// Replays `items` open-loop: each is submitted when due, whether or
    /// not earlier ones completed. Due times count from `skip` seconds
    /// into the schedule, which starts now.
    pub fn open_loop(&mut self, items: Vec<Item>, skip: f64, phase: Phase) {
        let start = Instant::now() + Duration::from_millis(1);
        let mut items = items.into_iter().peekable();
        while let Some(next) = items.peek() {
            let due = start + Duration::from_secs_f64((next.at - skip).max(0.0));
            if Instant::now() >= due {
                let item = items.next().expect("peeked");
                self.submit(item, due, phase, None);
                continue;
            }
            self.harvest();
            self.block(due);
        }
        self.drain();
    }

    /// Keeps `window` requests outstanding per lane for `seconds`, plus
    /// the `timed` republishes on their schedule, and measures each of
    /// `windows` equal slices of the phase.
    pub fn closed_loop(
        &mut self,
        mut lanes: Vec<Lane>,
        window: usize,
        timed: Vec<Item>,
        seconds: f64,
        windows: usize,
    ) -> ClosedLoop {
        self.lane_busy = vec![0; lanes.len()];
        let mut timed = timed.into_iter().peekable();
        let first = self.records.len();
        let start = Instant::now();
        let slice = Duration::from_secs_f64(seconds / windows as f64);
        let bounds: Vec<Instant> = (0..=windows).map(|k| start + slice * k as u32).collect();
        let end = bounds[windows];
        let mut cpu = vec![crate::stats::process_cpu_ms()];
        while Instant::now() < end {
            for (l, lane) in lanes.iter_mut().enumerate() {
                while self.lane_busy[l] < window {
                    let Some(item) = lane.next() else { break };
                    self.submit(item, Instant::now(), Phase::Closed, Some(l));
                }
            }
            let now = Instant::now();
            while let Some(item) = timed.next_if(|i| start + Duration::from_secs_f64(i.at) <= now) {
                let due = start + Duration::from_secs_f64(item.at);
                self.submit(item, due, Phase::Closed, None);
            }
            self.harvest();
            if cpu.len() <= windows && now >= bounds[cpu.len()] {
                cpu.push(crate::stats::process_cpu_ms());
            }
            let next_timed = timed
                .peek()
                .map_or(end, |i| start + Duration::from_secs_f64(i.at));
            self.block(next_timed.min(bounds[cpu.len().min(windows)]));
        }
        while cpu.len() <= windows {
            cpu.push(crate::stats::process_cpu_ms());
        }
        let mut done = vec![0usize; windows];
        for r in &self.records[first..] {
            if let (Kind::Apply | Kind::Decompose | Kind::Update, true, Some(d)) =
                (r.kind, r.ok(), r.done)
            {
                if let Some(k) = bounds.windows(2).position(|b| b[0] <= d && d < b[1]) {
                    done[k] += 1;
                }
            }
        }
        self.drain();
        ClosedLoop {
            rps: done
                .iter()
                .map(|&n| n as f64 / slice.as_secs_f64())
                .collect(),
            cpu_ms_per_req: done
                .iter()
                .zip(cpu.windows(2))
                .map(|(&n, c)| crate::stats::ratio(c[1] - c[0], n as f64))
                .collect(),
        }
    }
}

impl Pending {
    fn handle_cancel(self) {
        match self.handle {
            Handle::Decompose(h) => h.cancel(),
            Handle::Apply(h) => h.cancel(),
            Handle::Update(h) => h.cancel(),
        }
    }
}
