//! The repository benchmark: a single-threaded load generator over the
//! public `heterosvd-serve` API, plus timed layer probes into the core,
//! kernel, model and factor-store crates. See `perfbench/README.md`
//! for the workloads, every metric, and how they relate.

pub mod check;
pub mod load;
pub mod probe;
pub mod rng;
pub mod setup;
pub mod stats;
pub mod workload;

use heterosvd_serve::{MetricsReport, ServeConfig};
use load::{Generator, Kind, Phase, Record};
use stats::{mean, median, quantile, ratio};
use std::collections::BTreeMap;
use std::time::Instant;
use workload::{Work, Workload, OPEN_SHARE};

/// Fresh-process set-ups behind `setup_s`, besides the run's own. One
/// more runs before them and is not counted: the first set-up after a
/// previous run is often the slowest.
pub const SETUP_CHILDREN: usize = 10;
/// The open loop's events are cut into this many consecutive chunks
/// and the closed loop into this many windows. Each latency and
/// throughput figure is the median over them, so a host stall that
/// hits one chunk barely moves it.
pub const SEGMENTS: usize = 6;
/// A run is invalid when the generator's p99 lateness exceeds this
/// share of the workload's `p50_ms`: the load it applied was not the
/// schedule it claims. Such a run says so on stderr; its latency
/// figures should be discarded.
pub const MAX_LAG_SHARE: f64 = 1.0;
/// Most `serve.stage_sum_err` a traced run may show (the stages must
/// tile end-to-end latency within 5%).
pub const MAX_STAGE_SUM_ERR: f64 = 0.05;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
    /// Whether the value is modeled or counted and must repeat exactly
    /// for a given seed.
    pub exact: bool,
}

/// Metrics by name, in name order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(pub BTreeMap<String, Metric>);

impl Metrics {
    /// Records a metric that varies from run to run (wall time, or a
    /// modeled figure that depends on how requests batched).
    pub fn measured(&mut self, name: &str, value: f64, unit: &'static str) {
        self.insert(name, value, unit, false);
    }

    /// Records a modeled or counted metric that must repeat exactly.
    pub fn exact(&mut self, name: &str, value: f64, unit: &'static str) {
        self.insert(name, value, unit, true);
    }

    fn insert(&mut self, name: &str, value: f64, unit: &'static str, exact: bool) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0
            .insert(name.to_string(), Metric { value, unit, exact });
    }

    /// The metrics that must repeat exactly for a given seed.
    pub fn exact_only(&self) -> BTreeMap<String, f64> {
        self.0
            .iter()
            .filter(|(_, m)| m.exact)
            .map(|(k, m)| (k.clone(), m.value))
            .collect()
    }
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which traffic mix.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds (open plus closed loop).
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Only set the service up and print the set-up seconds.
    pub setup_only: bool,
}

/// What one run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Every output check passed and the run was valid.
    pub correct: bool,
    /// Requests submitted.
    pub attempted: usize,
    /// Requests refused, failed, unfinished, or with a wrong output.
    pub failed: usize,
    /// The reported metrics.
    pub metrics: Metrics,
    /// Why the run is not correct, if it is not.
    pub problems: Vec<String>,
}

impl Outcome {
    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|(k, m)| {
                format!(
                    "\"{k}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Parses `--workload W --seed N --seconds S --trace 0|1 [--setup-only]`.
///
/// # Errors
///
/// A usage message for a missing, unknown or malformed argument.
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut setup_only = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--setup-only" => setup_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        setup_only,
    })
}

/// Sets the workload's service up once in this process and returns the
/// wall seconds it took.
///
/// # Errors
///
/// Any set-up failure.
pub fn setup_once(w: Workload, seed: u64) -> Result<f64, String> {
    let inputs = workload::build(w, seed, 0.0);
    let (service, secs) = setup::setup(w, &w.serve_config(), &inputs)?;
    service.shutdown();
    Ok(secs)
}

/// Runs `--setup-only` in a fresh process (cold plan cache, cold batch
/// pool) and returns its set-up seconds.
fn setup_in_child(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args([
            "--workload",
            args.workload.name(),
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
            "--setup-only",
        ])
        .output()
        .map_err(|e| format!("set-up child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "set-up child failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    stdout
        .lines()
        .last()
        .and_then(|l| l.trim().parse().ok())
        .ok_or_else(|| format!("set-up child printed no time: {stdout}"))
}

/// One full run: set-up, open loop, closed loop, then (traced runs)
/// layer probes, then output checks.
///
/// A traced run plays the first half of its open loop on a service with
/// observability off, the baseline of `bench.trace_overhead_pct`. It
/// then sets up the workload's own service, whose clients (in
/// `update-drift`) start where the first half left them, for the second
/// half and the closed loop.
///
/// # Errors
///
/// Set-up or probe failures; request failures are counted, not errors.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let config = w.serve_config();
    // Not counted: see `SETUP_CHILDREN`.
    setup_in_child(args)?;
    let mut setup_secs = (0..SETUP_CHILDREN)
        .map(|_| setup_in_child(args))
        .collect::<Result<Vec<f64>, String>>()?;
    let mut inputs = workload::build(w, args.seed, args.seconds);
    let t_open = args.seconds * OPEN_SHARE;
    let trace = args.trace;

    let mut records = Vec::new();
    let mut checks = check::CheckReport::default();
    let mut skip = 0.0;
    if trace {
        skip = t_open / 2.0;
        let rest = inputs
            .open
            .split_off(inputs.open.partition_point(|i| i.at < skip));
        let head = std::mem::replace(&mut inputs.open, rest);
        let untraced = ServeConfig {
            observability: false,
            ..config.clone()
        };
        let (service, _) = setup::setup(w, &untraced, &inputs)?;
        for item in &head {
            if let Work::Update { client, matrix } = &item.work {
                inputs.clients[client.0 as usize] = matrix.clone();
            }
        }
        let mut gen = Generator::new(&service);
        gen.open_loop(head, 0.0, Phase::Untraced);
        let (head_records, versions) = gen.into_records();
        service.shutdown();
        checks.absorb(check::check(&config, &head_records, &versions), 0);
        records = head_records;
    }

    let (service, secs) = setup::setup(w, &config, &inputs)?;
    setup_secs.push(secs);
    let mut gen = Generator::new(&service);
    let offset = records.len();
    gen.records = records;
    gen.open_loop(inputs.open, skip, Phase::Open);
    // Before the closed loop, whose record count grows with throughput:
    // past this point the peak would track the generator's bookkeeping
    // more than the service.
    let rss_mb = stats::peak_rss_mb();
    let closed = gen.closed_loop(
        inputs.lanes,
        w.window(),
        inputs.closed_timed,
        args.seconds - t_open,
        SEGMENTS,
    );

    let mut metrics = Metrics::default();
    let report = trace.then(|| service.metrics_report());
    if trace {
        probe::serve_probes(&service, args.seed, &mut metrics)?;
    }
    let (mut records, versions) = gen.into_records();
    service.shutdown();
    if trace {
        probe::core_probes(&config, args.seed, &probe::SIZES, &mut metrics)?;
        probe::store_probes(args.seed, &mut metrics);
        probe::update_probes(&config, args.seed, &mut metrics)?;
    }

    checks.absorb(check::check(&config, &records[offset..], &versions), offset);
    // From here on, a request whose output failed its check is a failed
    // request: it counts in `failed` and misses its SLO.
    for (i, why) in &checks.wrong {
        records[*i].error = Some(format!("wrong output: {why}"));
    }
    let mut problems: Vec<String> = checks
        .wrong
        .iter()
        .take(5)
        .map(|(i, why)| format!("request {i}: {why}"))
        .collect();
    if checks.checked == 0 {
        problems.push("no output was checked".into());
    }
    let records = &records;
    let attempted = records.len();
    let failed = records.iter().filter(|r| !r.ok()).count();
    if let Some(r) = records.iter().find(|r| !r.ok()) {
        problems.push(format!(
            "{failed} of {attempted} requests did not complete OK, e.g. {}",
            r.error.as_deref().unwrap_or("unfinished")
        ));
    }
    if let Some(report) = &report {
        layer_metrics(records, report, &config, &mut metrics);
    }

    let open = open_records(records, |p| p != Phase::Closed);
    let events = open_events(&open);
    let e2e: Vec<f64> = events.iter().flatten().copied().collect();
    let p50 = median(&e2e);
    let lag: Vec<f64> = open.iter().map(|r| lag_ms(r)).collect();
    let lag_p99 = quantile(&lag, 0.99);
    if lag_p99 > MAX_LAG_SHARE * p50 {
        eprintln!(
            "perfbench: invalid run: generator lag p99 {lag_p99:.3} ms exceeds \
             {MAX_LAG_SHARE} x p50 {p50:.3} ms; the offered load was not the schedule"
        );
    }
    if trace {
        metrics.measured("check.out_err_max", checks.out_err_max, "ratio");
        let err = metrics
            .0
            .get("serve.stage_sum_err")
            .map_or(0.0, |m| m.value);
        if err > MAX_STAGE_SUM_ERR {
            problems.push(format!(
                "stages do not tile end-to-end latency: error {err:.4}"
            ));
        }
    } else {
        metrics.measured("setup_s", median(&setup_secs), "s");
        let by_chunk = |stat: &dyn Fn(&[f64], usize) -> f64| {
            let chunks: Vec<f64> = events
                .chunks(events.len().div_ceil(SEGMENTS).max(1))
                .map(|c| stat(&c.iter().flatten().copied().collect::<Vec<_>>(), c.len()))
                .collect();
            median(&chunks)
        };
        metrics.measured("p50_ms", by_chunk(&|ok, _| median(ok)), "ms");
        metrics.measured("p90_ms", by_chunk(&|ok, _| quantile(ok, 0.90)), "ms");
        let slo = w.slo_ms();
        metrics.measured(
            "slo_attain",
            by_chunk(&|ok, n| ratio(ok.iter().filter(|&&ms| ms <= slo).count() as f64, n as f64)),
            "ratio",
        );
        metrics.measured("max_rps", median(&closed.rps), "1/s");
        metrics.measured("cpu_ms_per_req", median(&closed.cpu_ms_per_req), "ms");
        metrics.measured(
            "ok_frac",
            ratio((attempted - failed) as f64, attempted as f64),
            "ratio",
        );
        let charged: Vec<f64> = records
            .iter()
            .filter(|r| r.kind != Kind::Publish && r.ok())
            .filter_map(|r| r.latency)
            .map(|l| l.sim_exec_ps as f64 / l.batch_size.max(1) as f64 / 1e6)
            .collect();
        metrics.measured("modeled_us_per_req", mean(&charged), "us");
        metrics.measured("rss_mb", rss_mb, "MiB");
    }
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        problems,
    })
}

/// The non-publish records of the phases `keep` selects, in submission
/// order.
fn open_records(records: &[Record], keep: impl Fn(Phase) -> bool) -> Vec<&Record> {
    records
        .iter()
        .filter(|r| keep(r.phase) && r.kind != Kind::Publish)
        .collect()
}

/// End-to-end latency (ms) of each open-loop arrival event, `None`
/// when any of its requests failed. A burst's requests share one due
/// time and complete, for the client that sent it, when the last one
/// does.
fn open_events(open: &[&Record]) -> Vec<Option<f64>> {
    let mut events: Vec<Option<f64>> = Vec::new();
    let mut last_due = None;
    for r in open {
        let e2e = ok_e2e(r);
        if last_due == Some(r.due) {
            let event = events.last_mut().expect("a previous request");
            *event = event.zip(e2e).map(|(a, b)| a.max(b));
        } else {
            events.push(e2e);
        }
        last_due = Some(r.due);
    }
    events
}

fn ok_e2e(r: &Record) -> Option<f64> {
    if r.ok() {
        r.e2e_ms()
    } else {
        None
    }
}

fn lag_ms(r: &Record) -> f64 {
    r.call_start.saturating_duration_since(r.due).as_secs_f64() * 1e3
}

fn secs(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64()
}

/// Per-layer metrics of the traced open-loop half, the closed loop's
/// service counters, and the untraced half for the tracing overhead.
fn layer_metrics(
    records: &[Record],
    report: &MetricsReport,
    config: &ServeConfig,
    out: &mut Metrics,
) {
    let traced = open_records(records, |p| p == Phase::Open);
    let mut series: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for r in &traced {
        series.entry("lag").or_default().push(lag_ms(r));
        let (Some(done), Some(l)) = (r.done, r.latency) else {
            continue;
        };
        let e2e = secs(r.due, done);
        let lag = secs(r.due, r.call_start);
        let submit = secs(r.call_start, r.call_end);
        let queue = l.queue_wait.as_secs_f64();
        let linger = l.batch_linger.as_secs_f64();
        let wall = l.wall_total.as_secs_f64();
        let exec = wall - queue - linger;
        let handoff = e2e - lag - submit - wall;
        let tiled = lag + submit + queue + linger + exec.max(0.0) + handoff.max(0.0);
        series.entry("e2e").or_default().push(e2e);
        series.entry("tiled").or_default().push(tiled);
        series.entry("submit").or_default().push(submit * 1e6);
        series.entry("queue").or_default().push(queue * 1e3);
        series.entry("linger").or_default().push(linger * 1e3);
        series.entry("exec").or_default().push(exec * 1e3);
        series.entry("handoff").or_default().push(handoff * 1e6);
    }
    let get = |k: &str| series.get(k).map_or(&[][..], Vec::as_slice);
    for (key, name, unit) in [
        ("submit", "serve.submit_us", "us"),
        ("queue", "serve.queue_ms", "ms"),
        ("linger", "serve.linger_ms", "ms"),
        ("exec", "serve.exec_ms", "ms"),
        ("handoff", "serve.handoff_us", "us"),
        ("lag", "bench.gen_lag_ms", "ms"),
    ] {
        out.measured(&format!("{name}.p50"), median(get(key)), unit);
        out.measured(&format!("{name}.p99"), quantile(get(key), 0.99), unit);
    }
    // Summed over the traced requests. The service's clock starts
    // inside the submit call, so a generator descheduled there makes
    // `handoff` negative; clamped at zero, that overlap shows as error.
    let total = |k: &str| get(k).iter().sum::<f64>();
    out.measured(
        "serve.stage_sum_err",
        ratio((total("tiled") - total("e2e")).abs(), total("e2e")),
        "ratio",
    );
    let event_p50 = |p: Phase| {
        let events = open_events(&open_records(records, |q| q == p));
        median(&events.into_iter().flatten().collect::<Vec<_>>())
    };
    let untraced = event_p50(Phase::Untraced);
    out.measured(
        "bench.trace_overhead_pct",
        ratio(event_p50(Phase::Open) - untraced, untraced) * 100.0,
        "%",
    );

    let snap = &report.snapshot;
    out.measured(
        "serve.batch_fill",
        snap.mean_batch_size / config.max_batch as f64,
        "ratio",
    );
    out.measured(
        "serve.packed_frac",
        ratio(
            snap.packed_requests as f64,
            snap.per_type.decompose.completed_ok as f64,
        ),
        "ratio",
    );
    let hit = |hits: u64, misses: u64| ratio(hits as f64, (hits + misses) as f64);
    let caches = &report.caches;
    out.measured(
        "core.plan_cache_hit_frac",
        hit(caches.plan.hits, caches.plan.misses),
        "ratio",
    );
    out.measured(
        "store.hit_frac",
        hit(caches.factor_store.hits, caches.factor_store.misses),
        "ratio",
    );
    out.measured(
        "update.factor_cache_hit_frac",
        hit(caches.factor_cache.hits, caches.factor_cache.misses),
        "ratio",
    );

    use svd_kernels::incremental::UpdateRoute;
    let routes: Vec<UpdateRoute> = records.iter().filter_map(|r| r.route).collect();
    let share = |pred: fn(&UpdateRoute) -> bool| {
        ratio(
            routes.iter().filter(|r| pred(r)).count() as f64,
            routes.len() as f64,
        )
    };
    out.measured(
        "update.route_frac.lowrank",
        share(|r| matches!(r, UpdateRoute::LowRank { .. })),
        "ratio",
    );
    out.measured(
        "update.route_frac.warm",
        share(|r| matches!(r, UpdateRoute::WarmStart)),
        "ratio",
    );
    out.measured(
        "update.route_frac.full",
        share(|r| matches!(r, UpdateRoute::Full(_))),
        "ratio",
    );
    let saved: Vec<f64> = records
        .iter()
        .filter_map(|r| r.warm_saved)
        .map(|s| s as f64)
        .collect();
    out.measured("update.warm_iters_saved", mean(&saved), "count");
}
