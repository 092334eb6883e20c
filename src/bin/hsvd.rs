//! `hsvd` — command-line front end for the HeteroSVD reproduction.
//!
//! ```text
//! hsvd run --random 128                 # factorize a seeded random 128x128 matrix
//! hsvd run matrix.csv --p-eng 8         # factorize a CSV matrix
//! hsvd serve-bench --requests 200 --workers 4 --seed 7
//! ```
//!
//! `run` prints the singular values and the simulated hardware
//! statistics (optionally writing `Σ` and `U` to CSV); `serve-bench`
//! drives the batch-serving runtime with a seeded open-loop workload and
//! reports throughput and latency percentiles. For compatibility with
//! pre-subcommand invocations, `hsvd matrix.csv` is treated as
//! `hsvd run matrix.csv`.

use heterosvd_bench::workload::{bursty_trace, multishape_trace, shifting_mix_phases};
use heterosvd_repro::heterosvd::{Accelerator, FidelityMode, HeteroSvdConfig};
use heterosvd_repro::serve::{
    ClientId, ModelId, ServeConfig, ServeError, SloClass, SubmitOptions, SvdService,
};
use heterosvd_repro::svd_kernels::{io as matrix_io, Matrix};
use rand::{Rng, SeedableRng};
use std::io::Write;
use std::process::ExitCode;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------- args

/// Shared flag cursor: walks an argument list handing out flag values
/// with uniform error messages. Both subcommands parse through this.
struct ArgCursor {
    args: std::vec::IntoIter<String>,
}

impl ArgCursor {
    fn new(args: Vec<String>) -> Self {
        ArgCursor {
            args: args.into_iter(),
        }
    }

    fn next(&mut self) -> Option<String> {
        self.args.next()
    }

    /// The raw value following a flag.
    fn value(&mut self, flag: &str) -> Result<String, String> {
        self.args
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))
    }

    /// The parsed value following a flag.
    fn parse<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        self.value(flag)?
            .parse()
            .map_err(|e| format!("invalid value for {flag}: {e}"))
    }
}

fn usage() -> &'static str {
    "usage: hsvd <command> [options]\n\
     \n\
     commands:\n\
       run          factorize one matrix on the simulated accelerator\n\
       serve-bench  benchmark the batch-serving runtime\n\
     \n\
     run [matrix.csv | --random N] [options]:\n\
       --random N          factorize a seeded random NxN matrix\n\
       --seed S            RNG seed for --random (default 1)\n\
       --p-eng K           engine parallelism, 1..=11 (default 4)\n\
       --p-task T          task parallelism, 1..=26 (default 1)\n\
       --freq MHZ          PL frequency (default: achievable)\n\
       --precision EPS     convergence threshold (default 1e-6)\n\
       --iterations N      fixed iteration count instead of convergence\n\
       --sigma-out FILE    write singular values to a CSV file\n\
       --u-out FILE        write U to a CSV file\n\
     \n\
     serve-bench [options]:\n\
       --requests N        number of requests to submit (default 200)\n\
       --workers W         accelerator replicas (default 4)\n\
       --seed S            workload RNG seed (default 7)\n\
       --rate RPS          open-loop arrival rate, req/s (default 5000)\n\
       --queue-cap N       admission queue bound (default 128)\n\
       --max-batch B       dynamic batcher size cap (default 8)\n\
       --linger-us U       formation linger of decompose and apply keys,\n\
     \x20                   in µs; update keys never linger (default 500)\n\
       --p-eng K           engine parallelism per replica (default 2)\n\
       --p-task T          task parallelism per replica (default 4)\n\
       --timing-only       skip numerics (timing model, 6 fixed sweeps;\n\
     \x20                   incompatible with --apply-ratio)\n\
       --shape RxC         fix every request to one RxC shape (default:\n\
     \x20                   a seeded mix of four shapes)\n\
       --apply-ratio R     mixed traffic: R rank-r apply requests per\n\
     \x20                   decompose request (default 0 = decompose\n\
     \x20                   only); models are published up front and\n\
     \x20                   applies are served from the factor store\n\
       --models M          distinct models to publish for mixed traffic\n\
     \x20                   (default 4)\n\
       --update-ratio R    incremental traffic: R update requests per\n\
     \x20                   decompose request (default 0 = none); each\n\
     \x20                   update perturbs a per-client hot matrix and\n\
     \x20                   the service routes it warm-start / low-rank /\n\
     \x20                   full recompute (incompatible with\n\
     \x20                   --timing-only)\n\
       --clients N         distinct hot-matrix clients for update\n\
     \x20                   traffic (default 4)\n\
       --rank R            published truncation rank (default cols/4,\n\
     \x20                   at least 1)\n\
       --packing on|off    multi-problem array packing: co-schedule a\n\
     \x20                   same-shape batch as tenants on disjoint\n\
     \x20                   sub-arrays (default on). With the same --seed,\n\
     \x20                   on/off runs replay the identical trace for a\n\
     \x20                   packed-vs-sequential A/B\n\
       --autoscale on|off  closed-loop online DSE: a controller thread\n\
     \x20                   observes the served mix, re-runs the Eq. 15-16\n\
     \x20                   sweep, and hot-swaps the plan with\n\
     \x20                   drain-and-replace semantics (default off).\n\
     \x20                   Factors stay bit-identical across swaps\n\
       --trace bursty      replay the canonical shifting-mix bursty trace\n\
     \x20                   (large-matrix singles, then deep small-matrix\n\
     \x20                   bursts, then singles; same generator as\n\
     \x20                   `repro -- dse`) instead of the Poisson stream;\n\
     \x20                   ignores --requests/--rate, incompatible with\n\
     \x20                   --shape/--apply-ratio/--update-ratio. With the\n\
     \x20                   same --seed, --autoscale on/off runs replay\n\
     \x20                   the identical trace for an adaptive-vs-static\n\
     \x20                   A/B\n\
       --trace multishape  replay the 95:5 two-shape trace shared with\n\
     \x20                   `repro -- serve`: dominant 32x32 batch-class\n\
     \x20                   bursts plus rare 64x64 interactive-class\n\
     \x20                   singles (classes fixed per shape). Same\n\
     \x20                   constraints as --trace bursty; with the same\n\
     \x20                   --seed, --classed on/off runs replay the\n\
     \x20                   identical trace for a scheduler A/B\n\
       --classed on|off    shape-classed SLO-aware scheduling: per-class\n\
     \x20                   EDF sub-queues with eviction, load shedding\n\
     \x20                   (lowest class first), and any idle replica\n\
     \x20                   cutting the most urgent due batch (default\n\
     \x20                   off = shape-blind FIFO). Factors are\n\
     \x20                   bit-identical either way\n\
       --class C           SLO class stamped on decompose requests:\n\
     \x20                   interactive|standard|batch (default standard;\n\
     \x20                   incompatible with --trace multishape, which\n\
     \x20                   assigns classes per shape)\n\
       --shed-threshold F  timed-out/throughput fraction in (0,1] above\n\
     \x20                   which the classed scheduler starts shedding\n\
     \x20                   batch-class admissions (default 0.3; needs\n\
     \x20                   --classed on)\n\
       --metrics-out FILE  write the end-of-run metrics report to FILE\n\
     \x20                   as JSON and to FILE with a .prom extension in\n\
     \x20                   Prometheus text format (counters, percentiles,\n\
     \x20                   span-stage summaries, per-shape resource\n\
     \x20                   utilization + critical resource)"
}

// ---------------------------------------------------------------- run

struct RunArgs {
    input: Option<String>,
    random: Option<usize>,
    seed: u64,
    p_eng: usize,
    p_task: usize,
    freq_mhz: Option<f64>,
    precision: f64,
    iterations: Option<usize>,
    sigma_out: Option<String>,
    u_out: Option<String>,
}

fn parse_run_args(mut cursor: ArgCursor) -> Result<RunArgs, String> {
    let mut args = RunArgs {
        input: None,
        random: None,
        seed: 1,
        p_eng: 4,
        p_task: 1,
        freq_mhz: None,
        precision: 1e-6,
        iterations: None,
        sigma_out: None,
        u_out: None,
    };
    while let Some(arg) = cursor.next() {
        match arg.as_str() {
            "--random" => args.random = Some(cursor.parse("--random")?),
            "--seed" => args.seed = cursor.parse("--seed")?,
            "--p-eng" => args.p_eng = cursor.parse("--p-eng")?,
            "--p-task" => args.p_task = cursor.parse("--p-task")?,
            "--freq" => args.freq_mhz = Some(cursor.parse("--freq")?),
            "--precision" => args.precision = cursor.parse("--precision")?,
            "--iterations" => args.iterations = Some(cursor.parse("--iterations")?),
            "--sigma-out" => args.sigma_out = Some(cursor.value("--sigma-out")?),
            "--u-out" => args.u_out = Some(cursor.value("--u-out")?),
            "--help" | "-h" => return Err(usage().to_string()),
            other if other.starts_with('-') => return Err(format!("unknown option {other}")),
            other => args.input = Some(other.to_string()),
        }
    }
    if args.input.is_none() && args.random.is_none() {
        return Err(usage().to_string());
    }
    Ok(args)
}

fn cmd_run(cursor: ArgCursor) -> Result<(), String> {
    let args = parse_run_args(cursor)?;

    let a = match (&args.input, args.random) {
        (Some(path), _) => matrix_io::read_csv_path(path).map_err(|e| e.to_string())?,
        (None, Some(n)) => {
            let mut rng = rand::rngs::StdRng::seed_from_u64(args.seed);
            Matrix::from_fn(n, n, |r, c| {
                let v: f64 = rng.gen_range(-1.0..1.0);
                if r == c {
                    v + 2.0
                } else {
                    v
                }
            })
        }
        _ => unreachable!("validated in parse_run_args"),
    };

    // Transpose wide matrices (the one-sided method needs rows >= cols).
    let (a, transposed) = if a.rows() < a.cols() {
        (a.transpose(), true)
    } else {
        (a, false)
    };
    if transposed {
        eprintln!(
            "note: input is wide; factorizing the transpose ({}x{})",
            a.rows(),
            a.cols()
        );
    }

    // Adapt the requested engine parallelism to the problem and pad the
    // matrix with zero rows/columns to a valid shape: zero-padding leaves
    // the (nonzero) singular values untouched, and the noise-floor gate
    // handles the padded zero columns.
    let orig_cols = a.cols();
    let p_eng = (1..=args.p_eng.clamp(1, 11))
        .rev()
        .min_by_key(|k| {
            let padded = orig_cols.div_ceil(2 * k) * 2 * k;
            (padded - orig_cols, args.p_eng.abs_diff(*k))
        })
        .unwrap_or(1);
    let padded_cols = orig_cols.div_ceil(2 * p_eng) * 2 * p_eng;
    let padded_rows = a.rows().max(padded_cols);
    let a = if padded_cols != orig_cols || padded_rows != a.rows() {
        eprintln!(
            "note: padding {}x{} to {}x{} (P_eng {})",
            a.rows(),
            orig_cols,
            padded_rows,
            padded_cols,
            p_eng
        );
        let src = a;
        Matrix::from_fn(padded_rows, padded_cols, |r, c| {
            if r < src.rows() && c < src.cols() {
                src[(r, c)]
            } else {
                0.0
            }
        })
    } else {
        a
    };

    let mut builder = HeteroSvdConfig::builder(a.rows(), a.cols())
        .engine_parallelism(p_eng)
        .task_parallelism(args.p_task)
        .precision(args.precision);
    if let Some(mhz) = args.freq_mhz {
        builder = builder.pl_freq_mhz(mhz);
    }
    if let Some(iters) = args.iterations {
        builder = builder.fixed_iterations(iters);
    }
    let config = builder.build().map_err(|e| e.to_string())?;
    let accelerator = Accelerator::new(config).map_err(|e| e.to_string())?;
    let out = accelerator.run(&a).map_err(|e| e.to_string())?;

    let mut svs = out.result.sorted_singular_values();
    svs.truncate(orig_cols); // drop the padded zero columns' values
    println!("singular values ({}):", svs.len());
    let shown = svs.len().min(16);
    let line: Vec<String> = svs[..shown].iter().map(|s| format!("{s:.6}")).collect();
    println!(
        "  {}{}",
        line.join(", "),
        if svs.len() > shown { ", ..." } else { "" }
    );
    println!(
        "converged in {} iterations; simulated latency {:.3} ms on {} AIEs ({} DMA transfers)",
        out.result.sweeps,
        out.timing.task_time.as_millis(),
        out.usage.aie,
        out.stats.dma_transfers
    );

    if let Some(path) = &args.sigma_out {
        let sigma = Matrix::from_fn(svs.len(), 1, |r, _| svs[r] as f64);
        matrix_io::write_csv_path(&sigma, path).map_err(|e| e.to_string())?;
        println!("wrote sigma to {path}");
    }
    if let Some(path) = &args.u_out {
        matrix_io::write_csv_path(&out.result.u, path).map_err(|e| e.to_string())?;
        println!("wrote U to {path}");
    }
    Ok(())
}

// ---------------------------------------------------------- serve-bench

/// Arrival process replayed by `serve-bench`.
#[derive(Clone, Copy, PartialEq)]
#[cfg_attr(test, derive(Debug))]
enum TraceKind {
    /// Seeded Poisson stream over the four-shape mix (the default).
    Poisson,
    /// The canonical shifting-mix bursty trace (`repro -- dse`).
    Bursty,
    /// The 95:5 two-shape trace (`repro -- serve`): dominant Batch-class
    /// small-matrix bursts plus rare Interactive-class larger singles.
    Multishape,
}

#[cfg_attr(test, derive(Debug))]
struct BenchArgs {
    requests: usize,
    workers: usize,
    seed: u64,
    rate: f64,
    queue_cap: usize,
    max_batch: usize,
    linger_us: u64,
    p_eng: usize,
    p_task: usize,
    timing_only: bool,
    shape: Option<(usize, usize)>,
    apply_ratio: f64,
    models: usize,
    rank: Option<usize>,
    update_ratio: f64,
    clients: usize,
    metrics_out: Option<String>,
    packing: bool,
    autoscale: bool,
    trace: TraceKind,
    classed: bool,
    class: Option<SloClass>,
    shed_threshold: Option<f64>,
}

/// Parses a `RxC` (or bare `N`, meaning NxN) shape argument.
fn parse_shape(value: &str) -> Result<(usize, usize), String> {
    let err = || format!("invalid value for --shape: {value} (expected RxC, e.g. 256x256)");
    match value.split_once(['x', 'X']) {
        Some((r, c)) => {
            let rows = r.trim().parse().map_err(|_| err())?;
            let cols = c.trim().parse().map_err(|_| err())?;
            Ok((rows, cols))
        }
        None => {
            let n = value.trim().parse().map_err(|_| err())?;
            Ok((n, n))
        }
    }
}

fn parse_bench_args(mut cursor: ArgCursor) -> Result<BenchArgs, String> {
    let mut args = BenchArgs {
        requests: 200,
        workers: 4,
        seed: 7,
        rate: 5000.0,
        queue_cap: 128,
        max_batch: 8,
        linger_us: 500,
        p_eng: 2,
        p_task: 4,
        timing_only: false,
        shape: None,
        apply_ratio: 0.0,
        models: 4,
        rank: None,
        update_ratio: 0.0,
        clients: 4,
        metrics_out: None,
        packing: true,
        autoscale: false,
        trace: TraceKind::Poisson,
        classed: false,
        class: None,
        shed_threshold: None,
    };
    while let Some(arg) = cursor.next() {
        match arg.as_str() {
            "--requests" => args.requests = cursor.parse("--requests")?,
            "--workers" => args.workers = cursor.parse("--workers")?,
            "--seed" => args.seed = cursor.parse("--seed")?,
            "--rate" => args.rate = cursor.parse("--rate")?,
            "--queue-cap" => args.queue_cap = cursor.parse("--queue-cap")?,
            "--max-batch" => args.max_batch = cursor.parse("--max-batch")?,
            "--linger-us" => args.linger_us = cursor.parse("--linger-us")?,
            "--p-eng" => args.p_eng = cursor.parse("--p-eng")?,
            "--p-task" => args.p_task = cursor.parse("--p-task")?,
            "--timing-only" => args.timing_only = true,
            "--shape" => args.shape = Some(parse_shape(&cursor.value("--shape")?)?),
            "--apply-ratio" => args.apply_ratio = cursor.parse("--apply-ratio")?,
            "--models" => args.models = cursor.parse("--models")?,
            "--rank" => args.rank = Some(cursor.parse("--rank")?),
            "--update-ratio" => args.update_ratio = cursor.parse("--update-ratio")?,
            "--clients" => args.clients = cursor.parse("--clients")?,
            "--metrics-out" => args.metrics_out = Some(cursor.value("--metrics-out")?),
            "--packing" => {
                args.packing = match cursor.value("--packing")?.as_str() {
                    "on" => true,
                    "off" => false,
                    other => {
                        return Err(format!(
                            "invalid value for --packing: {other} (expected on|off)"
                        ))
                    }
                }
            }
            "--autoscale" => {
                args.autoscale = match cursor.value("--autoscale")?.as_str() {
                    "on" => true,
                    "off" => false,
                    other => {
                        return Err(format!(
                            "invalid value for --autoscale: {other} (expected on|off)"
                        ))
                    }
                }
            }
            "--trace" => {
                args.trace = match cursor.value("--trace")?.as_str() {
                    "bursty" => TraceKind::Bursty,
                    "multishape" => TraceKind::Multishape,
                    "poisson" => TraceKind::Poisson,
                    other => {
                        return Err(format!(
                            "invalid value for --trace: {other} \
                             (expected bursty|multishape|poisson)"
                        ))
                    }
                }
            }
            "--classed" => {
                args.classed = match cursor.value("--classed")?.as_str() {
                    "on" => true,
                    "off" => false,
                    other => {
                        return Err(format!(
                            "invalid value for --classed: {other} (expected on|off)"
                        ))
                    }
                }
            }
            "--class" => args.class = Some(SloClass::parse(&cursor.value("--class")?)?),
            "--shed-threshold" => args.shed_threshold = Some(cursor.parse("--shed-threshold")?),
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown option {other}")),
        }
    }
    if args.requests == 0 {
        return Err("serve-bench needs --requests >= 1".to_string());
    }
    // `!(x > 0.0)` instead of `x <= 0.0`: the latter lets NaN through.
    if !(args.rate.is_finite() && args.rate > 0.0) {
        return Err("serve-bench needs a finite --rate > 0".to_string());
    }
    if !(args.apply_ratio.is_finite() && args.apply_ratio >= 0.0) {
        return Err("serve-bench needs a finite --apply-ratio >= 0".to_string());
    }
    if args.apply_ratio > 0.0 {
        if args.models == 0 {
            return Err("mixed traffic needs --models >= 1".to_string());
        }
        if args.timing_only {
            return Err("apply traffic is served from real published factors; \
                 --apply-ratio is incompatible with --timing-only"
                .to_string());
        }
    }
    if args.rank == Some(0) {
        return Err("serve-bench needs --rank >= 1".to_string());
    }
    if args.trace != TraceKind::Poisson {
        let name = if args.trace == TraceKind::Bursty {
            "bursty"
        } else {
            "multishape"
        };
        if args.shape.is_some() {
            return Err(format!(
                "--trace {name} carries its own shape mix; incompatible with --shape"
            ));
        }
        if args.apply_ratio > 0.0 || args.update_ratio > 0.0 {
            return Err(format!(
                "--trace {name} is decompose-only; incompatible \
                 with --apply-ratio/--update-ratio"
            ));
        }
    }
    if args.trace == TraceKind::Multishape && args.class.is_some() {
        return Err("--trace multishape assigns classes per shape (rare = \
             interactive, dominant = batch); incompatible with --class"
            .to_string());
    }
    if let Some(t) = args.shed_threshold {
        if !(t.is_finite() && t > 0.0 && t <= 1.0) {
            return Err("serve-bench needs --shed-threshold in (0, 1]".to_string());
        }
        if !args.classed {
            return Err("--shed-threshold drives the classed scheduler's \
                 load shedding; needs --classed on"
                .to_string());
        }
    }
    if !(args.update_ratio.is_finite() && args.update_ratio >= 0.0) {
        return Err("serve-bench needs a finite --update-ratio >= 0".to_string());
    }
    if args.update_ratio > 0.0 {
        if args.clients == 0 {
            return Err("update traffic needs --clients >= 1".to_string());
        }
        if args.timing_only {
            return Err("incremental updates warm-start from real factors; \
                 --update-ratio is incompatible with --timing-only"
                .to_string());
        }
    }
    Ok(args)
}

fn cmd_serve_bench(cursor: ArgCursor) -> Result<(), String> {
    let args = parse_bench_args(cursor)?;

    let service = SvdService::start(ServeConfig {
        workers: args.workers,
        queue_capacity: args.queue_cap,
        max_batch: args.max_batch,
        max_linger: Duration::from_micros(args.linger_us),
        engine_parallelism: args.p_eng,
        task_parallelism: args.p_task,
        fidelity: if args.timing_only {
            FidelityMode::TimingOnly
        } else {
            FidelityMode::Functional
        },
        // Timing-only fidelity cannot estimate convergence, so pin the
        // sweep count to the paper's typical iteration budget.
        fixed_iterations: args.timing_only.then_some(6),
        array_packing: args.packing,
        autoscale: args.autoscale,
        incremental: args.update_ratio > 0.0,
        shape_classed: args.classed,
        shed_threshold: args
            .shed_threshold
            .unwrap_or(ServeConfig::default().shed_threshold),
        ..ServeConfig::default()
    })
    .map_err(|e| e.to_string())?;

    // The workload is generated up front from the seed so the matrices
    // (and hence every functional result) are deterministic; the arrival
    // process replays exponential inter-arrival gaps open-loop.
    let mut rng = rand::rngs::StdRng::seed_from_u64(args.seed);
    let unit = 2 * args.p_eng;
    let shapes = match args.shape {
        // A fixed --shape pins every request (one plan, one utilization
        // row — e.g. `--shape 256x256 --p-eng 4` for the paper's design
        // point).
        Some((rows, cols)) => vec![(rows, cols)],
        None => vec![
            (2 * unit, 2 * unit),
            (3 * unit, 2 * unit),
            (3 * unit, 3 * unit),
            (4 * unit, 3 * unit),
        ],
    };
    let random_matrix = |rng: &mut rand::rngs::StdRng, rows: usize, cols: usize| {
        Matrix::from_fn(rows, cols, |r, c| {
            let v: f64 = rng.gen_range(-1.0..1.0);
            if r == c {
                v + 3.0
            } else {
                v
            }
        })
    };

    // Mixed traffic warms the factor store first: one published model
    // per `--models` slot (round-robin over the shape mix), waited to
    // completion so every later apply is a store hit.
    let mixed = args.apply_ratio > 0.0;
    let published: Vec<(ModelId, usize)> = if mixed {
        (0..args.models)
            .map(|m| {
                let (rows, cols) = shapes[m % shapes.len()];
                let rank = args.rank.unwrap_or((cols / 4).max(1));
                let model = ModelId(m as u64);
                service
                    .try_submit_publish(model, random_matrix(&mut rng, rows, cols), rank)
                    .and_then(|handle| handle.wait())
                    .map_err(|e| {
                        format!("publishing model {m} ({rows}x{cols} rank {rank}): {e}")
                    })?;
                Ok((model, cols))
            })
            .collect::<Result<_, String>>()?
    } else {
        Vec::new()
    };

    // Update traffic keeps one hot matrix per client: each update
    // request perturbs the client's current matrix (mostly small rank-1
    // bumps, an occasional large shock past the staleness bound) and
    // resubmits it, so the service exercises the whole routing spectrum
    // — cold full solves, low-rank bumps, warm starts, and fallbacks.
    let update_traffic = args.update_ratio > 0.0;
    let mut client_state: Vec<Matrix<f64>> = if update_traffic {
        (0..args.clients)
            .map(|c| {
                let (rows, cols) = shapes[c % shapes.len()];
                random_matrix(&mut rng, rows, cols)
            })
            .collect()
    } else {
        Vec::new()
    };
    // Each client is primed the same way: one waited-for update (a cold
    // full solve) before the timed stream, so every timed update is
    // classified against cached factors instead of racing its client's
    // cold start.
    for (c, matrix) in client_state.iter().enumerate() {
        service
            .try_submit_update(ClientId(c as u64), matrix.clone())
            .and_then(|handle| handle.wait())
            .map_err(|e| format!("priming client {c}: {e}"))?;
    }
    let mut client_updates = vec![0usize; client_state.len()];

    enum Work {
        Decompose(Matrix<f64>, SloClass),
        Apply {
            model: ModelId,
            x: Vec<f64>,
        },
        Update {
            client: ClientId,
            matrix: Matrix<f64>,
        },
    }
    // Class stamped on decompose traffic: --class when given, otherwise
    // Standard. The multishape trace overrides per shape below.
    let default_class = args.class.unwrap_or(SloClass::Standard);
    // Request-type mix: decompose weight 1, each ratio adds its own
    // weight. `p_apply` stays conditioned on "not an update", so with
    // --update-ratio 0 the draw sequence (and hence every checksum) is
    // unchanged.
    let p_update = args.update_ratio / (1.0 + args.apply_ratio + args.update_ratio);
    let p_apply = args.apply_ratio / (args.apply_ratio + 1.0);
    // `--trace bursty` replays the canonical shifting-mix trace shared
    // with `repro -- dse`, `--trace multishape` the 95:5 two-shape
    // trace shared with `repro -- serve` (absolute arrival offsets
    // converted to gaps); otherwise the Poisson stream below draws
    // `--requests` arrivals.
    let workload: Vec<(Work, f64)> = if args.trace != TraceKind::Poisson {
        let events = if args.trace == TraceKind::Bursty {
            bursty_trace(&shifting_mix_phases(false), args.seed)
        } else {
            multishape_trace(false, args.seed)
        };
        let mut prev_ms = 0.0;
        events
            .iter()
            .map(|e| {
                let gap_secs = (e.at_ms - prev_ms) / 1e3;
                prev_ms = e.at_ms;
                let matrix = heterosvd_bench::workload::random_matrix(e.shape.0, e.shape.1, e.seed);
                // Multishape carries the SLO split the classed scheduler
                // is benched on: the rare larger shape is Interactive,
                // the dominant burst shape is Batch.
                let class = if args.trace == TraceKind::Multishape {
                    if e.shape == (64, 64) {
                        SloClass::Interactive
                    } else {
                        SloClass::Batch
                    }
                } else {
                    default_class
                };
                (Work::Decompose(matrix, class), gap_secs)
            })
            .collect()
    } else {
        (0..args.requests)
            .map(|_| {
                let work = if update_traffic && rng.gen_bool(p_update) {
                    let c = rng.gen_range(0..client_state.len());
                    let a = &mut client_state[c];
                    client_updates[c] += 1;
                    // Every 10th update per client shocks the matrix hard
                    // enough to exceed the staleness bound (full-recompute
                    // fallback); every 10th offset by 5 drifts it with a
                    // perturbation wider than the default rank-8 low-rank
                    // budget (warm start); the rest are ~2% rank-1 bumps
                    // the low-rank fast path absorbs.
                    let (rel, rank) = match client_updates[c] % 10 {
                        0 => (0.5, 1),
                        5 => (0.08, 12),
                        _ => (0.02, 1),
                    };
                    for _ in 0..rank {
                        let u: Vec<f64> = (0..a.rows()).map(|_| rng.gen_range(-1.0..1.0)).collect();
                        let v: Vec<f64> = (0..a.cols()).map(|_| rng.gen_range(-1.0..1.0)).collect();
                        let u_norm = u.iter().map(|x| x * x).sum::<f64>().sqrt();
                        let v_norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
                        let scale = rel / rank as f64 * a.frobenius_norm()
                            / (u_norm * v_norm).max(f64::MIN_POSITIVE);
                        for col in 0..a.cols() {
                            for row in 0..a.rows() {
                                a[(row, col)] += scale * u[row] * v[col];
                            }
                        }
                    }
                    Work::Update {
                        client: ClientId(c as u64),
                        matrix: a.clone(),
                    }
                } else if mixed && rng.gen_bool(p_apply) {
                    let (model, cols) = published[rng.gen_range(0..published.len())];
                    let x: Vec<f64> = (0..cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    Work::Apply { model, x }
                } else {
                    let (rows, cols) = shapes[rng.gen_range(0..shapes.len())];
                    Work::Decompose(random_matrix(&mut rng, rows, cols), default_class)
                };
                let u: f64 = rng.gen_range(1e-9..1.0);
                let gap_secs = -u.ln() / args.rate;
                (work, gap_secs)
            })
            .collect()
    };

    if args.trace == TraceKind::Multishape {
        println!(
            "serve-bench: {} requests from the 95:5 multishape trace (dominant 32x32 batch-class, \
             rare 64x64 interactive-class), {} workers, seed {}, scheduler {}",
            workload.len(),
            args.workers,
            args.seed,
            if args.classed {
                "shape-classed"
            } else {
                "fifo"
            },
        );
    } else if args.trace == TraceKind::Bursty {
        println!(
            "serve-bench: {} requests from the shifting-mix bursty trace, {} workers, seed {}, autoscale {}",
            workload.len(),
            args.workers,
            args.seed,
            if args.autoscale { "on" } else { "off" },
        );
    } else {
        println!(
            "serve-bench: {} requests, {} workers, seed {}, ~{:.0} req/s open-loop{}",
            args.requests,
            args.workers,
            args.seed,
            args.rate,
            match (mixed, update_traffic) {
                (true, true) => format!(
                    " (mixed, {} applies + {} updates per decompose, {} models, {} clients)",
                    args.apply_ratio,
                    args.update_ratio,
                    published.len(),
                    client_state.len()
                ),
                (true, false) => format!(
                    " (mixed, {} applies per decompose over {} models)",
                    args.apply_ratio,
                    published.len()
                ),
                (false, true) => format!(
                    " ({} updates per decompose over {} clients)",
                    args.update_ratio,
                    client_state.len()
                ),
                (false, false) => String::new(),
            }
        );
    }

    enum BenchHandle {
        Decompose(heterosvd_repro::serve::RequestHandle),
        Apply(heterosvd_repro::serve::ApplyHandle),
        Update(heterosvd_repro::serve::UpdateHandle),
    }
    let bench_start = Instant::now();
    let mut next_arrival = Instant::now();
    let mut handles = Vec::with_capacity(args.requests);
    let mut dropped = 0u64;
    for (work, gap_secs) in workload {
        next_arrival += Duration::from_secs_f64(gap_secs);
        let now = Instant::now();
        if next_arrival > now {
            std::thread::sleep(next_arrival - now);
        }
        let admitted = match work {
            Work::Decompose(matrix, class) => service
                .try_submit_with(
                    matrix,
                    SubmitOptions {
                        class,
                        ..SubmitOptions::default()
                    },
                )
                .map(BenchHandle::Decompose),
            Work::Apply { model, x } => service
                .try_submit_apply(model, &x, None)
                .map(BenchHandle::Apply),
            Work::Update { client, matrix } => service
                .try_submit_update(client, matrix)
                .map(BenchHandle::Update),
        };
        match admitted {
            Ok(handle) => handles.push(handle),
            // Open-loop: an over-capacity or load-shed arrival is
            // dropped, not retried (the shed split is in the metrics).
            Err(ServeError::QueueFull { .. }) | Err(ServeError::Overloaded) => dropped += 1,
            Err(other) => return Err(other.to_string()),
        }
    }

    let mut sigma_checksum = 0.0f64;
    let mut apply_checksum = 0.0f64;
    let mut update_checksum = 0.0f64;
    let mut completed = 0u64;
    let mut failed = 0u64;
    for handle in handles {
        match handle {
            BenchHandle::Decompose(handle) => match handle.wait() {
                Ok(response) => {
                    completed += 1;
                    sigma_checksum += response
                        .output
                        .result
                        .sigma
                        .iter()
                        .map(|&s| s as f64)
                        .sum::<f64>();
                }
                Err(_) => failed += 1,
            },
            BenchHandle::Apply(handle) => match handle.wait() {
                Ok(response) => {
                    completed += 1;
                    apply_checksum += response.y.iter().map(|&v| v as f64).sum::<f64>();
                }
                Err(_) => failed += 1,
            },
            BenchHandle::Update(handle) => match handle.wait() {
                Ok(response) => {
                    completed += 1;
                    update_checksum += response.sigma.iter().map(|&s| s as f64).sum::<f64>();
                }
                Err(_) => failed += 1,
            },
        }
    }
    let wall = bench_start.elapsed();
    service.shutdown();
    let report = service.metrics_report();
    let m = &report.snapshot;

    let us = |ps: u64| ps as f64 / 1e6;
    // The warm-up publishes and client primes are admitted through the
    // same queue but are not part of the measured traffic; keep the
    // ledger line consistent with the bench-local completed/failed
    // counts.
    println!(
        "admitted {} | dropped at admission {} | completed {} | failed {}",
        m.submitted - (published.len() + client_state.len()) as u64,
        dropped,
        completed,
        failed
    );
    println!(
        "batches {} | mean batch size {:.2} | worker panics {} | replicas spawned {}",
        m.batches_dispatched, m.mean_batch_size, m.worker_panics, m.replicas_spawned
    );
    println!(
        "array packing {} | packed waves {} | packed requests {}",
        if args.packing { "on" } else { "off" },
        m.packed_batches,
        m.packed_requests
    );
    if args.autoscale {
        println!(
            "autoscale on | plan swaps {} | dse runs {} | final plan P_eng={} P_task={} generation {}",
            m.plan_swaps,
            m.dse_runs,
            m.current_plan.engine_parallelism,
            m.current_plan.task_parallelism,
            m.current_plan.generation
        );
    }
    println!(
        "wall time {:.1} ms | throughput {:.0} req/s",
        wall.as_secs_f64() * 1e3,
        completed as f64 / wall.as_secs_f64()
    );
    if args.classed {
        // Per-SLO-class split: the whole point of the classed scheduler
        // is that these tails diverge by class, not by arrival order.
        for (name, c) in [
            ("interactive", &m.per_class.interactive),
            ("standard", &m.per_class.standard),
            ("batch", &m.per_class.batch),
        ] {
            println!(
                "class {name:>11}: submitted {} | ok {} | shed {} | wall p50/p99 {} / {} µs",
                c.submitted, c.completed_ok, c.shed, c.wall_us.p50, c.wall_us.p99
            );
        }
        println!("shed total {} | shed level {}", m.shed, m.shed_level);
    }
    println!(
        "queue wait   p50/p95/p99/max  {} / {} / {} / {} µs",
        m.queue_wait_us.p50, m.queue_wait_us.p95, m.queue_wait_us.p99, m.queue_wait_us.max
    );
    println!(
        "batch linger p50/p95/p99/max  {} / {} / {} / {} µs",
        m.batch_linger_us.p50, m.batch_linger_us.p95, m.batch_linger_us.p99, m.batch_linger_us.max
    );
    println!(
        "sim exec     p50/p95/p99/max  {:.3} / {:.3} / {:.3} / {:.3} µs (Eq. 14 charged time)",
        us(m.sim_exec_ps.p50),
        us(m.sim_exec_ps.p95),
        us(m.sim_exec_ps.p99),
        us(m.sim_exec_ps.max)
    );
    if args.timing_only {
        println!("sigma checksum n/a (timing-only fidelity)");
    } else {
        println!(
            "sigma checksum {sigma_checksum:.6} (deterministic for --seed {})",
            args.seed
        );
    }
    if mixed {
        println!(
            "apply checksum {apply_checksum:.6} (deterministic for --seed {})",
            args.seed
        );
        for (name, t) in [
            ("decompose", &m.per_type.decompose),
            ("apply", &m.per_type.apply),
        ] {
            println!(
                "{name:>9}: submitted {} | ok {} | timed out {}+{} | queue wait p50/p99 {} / {} µs | sim exec p50/p99 {:.3} / {:.3} µs",
                t.submitted,
                t.completed_ok,
                t.timed_out_at_batcher,
                t.timed_out_at_exec,
                t.queue_wait_us.p50,
                t.queue_wait_us.p99,
                us(t.sim_exec_ps.p50),
                us(t.sim_exec_ps.p99),
            );
        }
        let store = service.store().stats();
        let looked_up = store.hits + store.misses;
        println!(
            "factor store: {} models / {} bytes resident | {} publishes | hit rate {:.1}% ({} / {} lookups)",
            store.resident_models,
            store.resident_bytes,
            store.publishes,
            if looked_up > 0 {
                store.hits as f64 / looked_up as f64 * 100.0
            } else {
                0.0
            },
            store.hits,
            looked_up
        );
    }
    if update_traffic {
        // Not fixed by the seed: an update is classified against
        // whatever its client's previous solve has cached by then, so
        // its route follows completion order.
        println!("update checksum {update_checksum:.6}");
        let t = &m.per_type.update;
        println!(
            "   update: submitted {} | ok {} | warm-start hits {} | low-rank hits {} | staleness fallbacks {} | queue wait p50/p99 {} / {} µs",
            t.submitted,
            t.completed_ok,
            m.warm_start_hits,
            m.lowrank_hits,
            m.staleness_fallbacks,
            t.queue_wait_us.p50,
            t.queue_wait_us.p99,
        );
        // The report's embedded snapshot already drained the stats
        // window; a second `stats()` call here would read an empty one.
        let cache = &report.caches.factor_cache;
        let looked_up = cache.hits + cache.misses;
        println!(
            "factor cache: {} clients / {} bytes resident | {} publishes | {} evictions | hit rate {:.1}% lifetime, {:.1}% window",
            cache.resident_clients,
            cache.resident_bytes,
            cache.publishes,
            cache.evictions,
            if looked_up > 0 {
                cache.hits as f64 / looked_up as f64 * 100.0
            } else {
                0.0
            },
            cache.hit_rate_window * 100.0
        );
    }

    // Per-shape resource utilization: which hardware resource bounds
    // each plan (the `*` marks the critical resource — see DESIGN.md
    // §12 for how this relates to the Eq. 8–14 timing terms).
    for shape in &report.utilization {
        let parts: Vec<String> = shape
            .report
            .resources
            .iter()
            .map(|r| {
                format!(
                    "{} {:.1}%{}",
                    r.kind.name(),
                    r.busy_fraction * 100.0,
                    if r.kind == shape.report.critical {
                        "*"
                    } else {
                        ""
                    }
                )
            })
            .collect();
        println!(
            "utilization {}x{}: {} (critical: {})",
            shape.rows,
            shape.cols,
            parts.join(" | "),
            shape.report.critical.name()
        );
    }

    if let Some(path) = &args.metrics_out {
        std::fs::write(path, report.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        let prom_path = std::path::Path::new(path).with_extension("prom");
        std::fs::write(&prom_path, report.to_prometheus())
            .map_err(|e| format!("writing {}: {e}", prom_path.display()))?;
        println!(
            "wrote metrics to {path} (JSON) and {} (Prometheus)",
            prom_path.display()
        );
    }
    Ok(())
}

// --------------------------------------------------------------- main

fn run() -> Result<(), String> {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        return Err(usage().to_string());
    }
    match argv[0].as_str() {
        "run" => cmd_run(ArgCursor::new(argv.split_off(1))),
        "serve-bench" => cmd_serve_bench(ArgCursor::new(argv.split_off(1))),
        "--help" | "-h" | "help" => Err(usage().to_string()),
        // Pre-subcommand compatibility: `hsvd matrix.csv [...]`.
        _ => cmd_run(ArgCursor::new(argv)),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            let _ = writeln!(std::io::stderr(), "{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench(args: &[&str]) -> Result<BenchArgs, String> {
        parse_bench_args(ArgCursor::new(args.iter().map(|s| s.to_string()).collect()))
    }

    #[test]
    fn shape_parses_rxc_and_bare_n() {
        assert_eq!(parse_shape("256x256").unwrap(), (256, 256));
        assert_eq!(parse_shape("384X128").unwrap(), (384, 128));
        assert_eq!(parse_shape("64").unwrap(), (64, 64));
    }

    /// Malformed shapes come back as a single-line usage error naming
    /// the flag — never a panic.
    #[test]
    fn malformed_shape_is_a_one_line_usage_error() {
        for bad in ["12x", "x12", "axb", "", "12x12x12", "-4x4"] {
            let err = parse_shape(bad).expect_err(bad);
            assert!(err.contains("invalid value for --shape"), "{bad}: {err}");
            assert!(!err.contains('\n'), "multi-line error for {bad}: {err}");
        }
        let err = bench(&["--shape", "12x"]).unwrap_err();
        assert!(err.contains("invalid value for --shape"), "{err}");
    }

    #[test]
    fn mixed_traffic_flags_parse() {
        let args = bench(&["--apply-ratio", "20", "--models", "3", "--rank", "8"]).unwrap();
        assert_eq!(args.apply_ratio, 20.0);
        assert_eq!(args.models, 3);
        assert_eq!(args.rank, Some(8));
    }

    /// Out-of-range and non-finite rates/ratios are rejected with a
    /// one-line message (NaN must not slip through a `<=` comparison).
    #[test]
    fn out_of_range_numbers_are_rejected() {
        for bad in [
            vec!["--apply-ratio", "-1"],
            vec!["--apply-ratio", "NaN"],
            vec!["--apply-ratio", "inf"],
            vec!["--rate", "NaN"],
            vec!["--rate", "0"],
            vec!["--rate", "-5"],
            vec!["--rank", "0"],
            vec!["--requests", "0"],
            vec!["--apply-ratio", "4", "--models", "0"],
            vec!["--update-ratio", "-1"],
            vec!["--update-ratio", "NaN"],
            vec!["--update-ratio", "4", "--clients", "0"],
        ] {
            let err = bench(&bad).expect_err(&bad.join(" "));
            assert!(!err.contains('\n'), "multi-line error for {bad:?}: {err}");
        }
    }

    #[test]
    fn packing_flag_parses_and_defaults_on() {
        assert!(bench(&[]).unwrap().packing, "packing defaults on");
        assert!(!bench(&["--packing", "off"]).unwrap().packing);
        assert!(bench(&["--packing", "on"]).unwrap().packing);
        let err = bench(&["--packing", "maybe"]).unwrap_err();
        assert!(err.contains("invalid value for --packing"), "{err}");
        assert!(!err.contains('\n'), "multi-line error: {err}");
    }

    #[test]
    fn autoscale_flag_parses_and_defaults_off() {
        assert!(!bench(&[]).unwrap().autoscale, "autoscale defaults off");
        assert!(bench(&["--autoscale", "on"]).unwrap().autoscale);
        assert!(!bench(&["--autoscale", "off"]).unwrap().autoscale);
        let err = bench(&["--autoscale", "maybe"]).unwrap_err();
        assert!(err.contains("invalid value for --autoscale"), "{err}");
        assert!(!err.contains('\n'), "multi-line error: {err}");
    }

    #[test]
    fn trace_flag_parses_and_rejects_conflicts() {
        assert_eq!(bench(&[]).unwrap().trace, TraceKind::Poisson);
        assert_eq!(
            bench(&["--trace", "bursty"]).unwrap().trace,
            TraceKind::Bursty
        );
        assert_eq!(
            bench(&["--trace", "multishape"]).unwrap().trace,
            TraceKind::Multishape
        );
        assert_eq!(
            bench(&["--trace", "poisson"]).unwrap().trace,
            TraceKind::Poisson
        );
        let err = bench(&["--trace", "diurnal"]).unwrap_err();
        assert!(err.contains("invalid value for --trace"), "{err}");
        for trace in ["bursty", "multishape"] {
            for conflict in [
                vec!["--trace", trace, "--shape", "64x64"],
                vec!["--trace", trace, "--apply-ratio", "4"],
                vec!["--trace", trace, "--update-ratio", "2"],
            ] {
                let err = bench(&conflict).expect_err(&conflict.join(" "));
                assert!(err.contains(&format!("--trace {trace}")), "{err}");
                assert!(!err.contains('\n'), "multi-line error: {err}");
            }
        }
    }

    #[test]
    fn classed_scheduler_flags_parse() {
        let defaults = bench(&[]).unwrap();
        assert!(!defaults.classed, "classed defaults off");
        assert!(defaults.class.is_none(), "class defaults unset");
        assert!(defaults.shed_threshold.is_none());
        assert!(bench(&["--classed", "on"]).unwrap().classed);
        assert!(!bench(&["--classed", "off"]).unwrap().classed);
        let err = bench(&["--classed", "maybe"]).unwrap_err();
        assert!(err.contains("invalid value for --classed"), "{err}");
        assert_eq!(
            bench(&["--class", "interactive"]).unwrap().class,
            Some(SloClass::Interactive)
        );
        assert_eq!(
            bench(&["--class", "batch"]).unwrap().class,
            Some(SloClass::Batch)
        );
        let err = bench(&["--class", "gold"]).unwrap_err();
        assert!(err.contains("unknown SLO class"), "{err}");
        let args = bench(&["--classed", "on", "--shed-threshold", "0.5"]).unwrap();
        assert_eq!(args.shed_threshold, Some(0.5));
    }

    /// The shed threshold is meaningless without the classed scheduler,
    /// and must be a usable fraction.
    #[test]
    fn shed_threshold_is_validated() {
        for bad in [
            vec!["--classed", "on", "--shed-threshold", "0"],
            vec!["--classed", "on", "--shed-threshold", "1.5"],
            vec!["--classed", "on", "--shed-threshold", "NaN"],
            vec!["--shed-threshold", "0.5"],
        ] {
            let err = bench(&bad).expect_err(&bad.join(" "));
            assert!(
                err.contains("--shed-threshold") || err.contains("--classed"),
                "{err}"
            );
            assert!(!err.contains('\n'), "multi-line error: {err}");
        }
    }

    /// Classes are fixed per shape on the multishape trace; a global
    /// --class would silently contradict them.
    #[test]
    fn class_conflicts_with_multishape_trace() {
        let err = bench(&["--trace", "multishape", "--class", "interactive"]).unwrap_err();
        assert!(err.contains("--class"), "{err}");
        assert!(!err.contains('\n'), "multi-line error: {err}");
    }

    #[test]
    fn apply_ratio_conflicts_with_timing_only() {
        let err = bench(&["--apply-ratio", "4", "--timing-only"]).unwrap_err();
        assert!(err.contains("--timing-only"), "{err}");
    }

    #[test]
    fn update_traffic_flags_parse() {
        let args = bench(&["--update-ratio", "8", "--clients", "6"]).unwrap();
        assert_eq!(args.update_ratio, 8.0);
        assert_eq!(args.clients, 6);
        let defaults = bench(&[]).unwrap();
        assert_eq!(defaults.update_ratio, 0.0);
        assert_eq!(defaults.clients, 4);
    }

    /// Incremental updates warm-start from real cached factors, which
    /// timing-only fidelity never produces.
    #[test]
    fn update_ratio_conflicts_with_timing_only() {
        let err = bench(&["--update-ratio", "4", "--timing-only"]).unwrap_err();
        assert!(err.contains("--timing-only"), "{err}");
    }

    #[test]
    fn unknown_options_are_rejected() {
        let err = bench(&["--bogus"]).unwrap_err();
        assert!(err.contains("unknown option --bogus"), "{err}");
    }
}
