//! `repro` — regenerates every table and figure of the HeteroSVD paper.
//!
//! ```text
//! cargo run --release -p heterosvd-bench --bin repro -- all
//! cargo run --release -p heterosvd-bench --bin repro -- table2 table4 fig3
//! cargo run --release -p heterosvd-bench --bin repro -- --quick all
//! ```
//!
//! `--quick` limits the sweeps to sizes ≤ 256 (the 512/1024 simulations
//! take minutes). `--out DIR` additionally writes each experiment's rows
//! as JSON for downstream plotting. An unknown name or flag, or `--out`
//! without a directory, prints the usage and exits 2.

use heterosvd_bench::experiments::{
    ablation, accuracy, adaptive, apply, autoscale, convergence, devices, dse_report, fig3, fig9,
    hotpath, pack, scalability, serve, table2, table3, table4, table5, table6, update,
};
use heterosvd_bench::workload::{shifting_mix_phases, stationary_phases};
use std::sync::OnceLock;

/// Counting allocator so the `hotpath` experiment can report heap
/// allocations per pass (pure counting; delegates to the system
/// allocator).
#[global_allocator]
static ALLOC: hotpath::CountingAllocator = hotpath::CountingAllocator::new();

static OUT_DIR: OnceLock<Option<String>> = OnceLock::new();

fn set_out_dir(dir: Option<String>) {
    let _ = OUT_DIR.set(dir);
}

/// Persists an experiment's rows as JSON when `--out DIR` was given.
fn persist<T: serde::Serialize>(name: &str, rows: &T) {
    if let Some(Some(dir)) = OUT_DIR.get() {
        let path = format!("{dir}/{name}.json");
        match serde_json::to_string_pretty(rows) {
            Ok(json) => {
                if let Err(e) = std::fs::write(&path, json) {
                    eprintln!("cannot write {path}: {e}");
                } else {
                    println!("[wrote {path}]");
                }
            }
            Err(e) => eprintln!("cannot serialize {name}: {e}"),
        }
    }
}

/// Persists a report like [`persist`], then writes it to
/// `BENCH_<bench>.json` at the repo root regardless of `--out` (the
/// `BENCH_<BENCH>_OUT` environment variable overrides the path). Exits
/// nonzero when the file cannot be written. Callers emit before they
/// gate, so a violated gate still leaves its report behind.
fn emit<T: serde::Serialize>(name: &str, bench: &str, report: &T) {
    persist(name, report);
    let path = std::env::var(format!("BENCH_{}_OUT", bench.to_uppercase()))
        .unwrap_or_else(|_| format!("{}/../../BENCH_{bench}.json", env!("CARGO_MANIFEST_DIR")));
    match serde_json::to_string_pretty(report) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json + "\n") {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
            println!("[wrote {path}]");
        }
        Err(e) => {
            eprintln!("cannot serialize {name} report: {e}");
            std::process::exit(1);
        }
    }
}

/// An experiment's entry point; the flag is `--quick`.
type Experiment = fn(bool);

/// Every experiment `repro` runs, in the order `all` runs them. Names
/// on the command line are checked against this list, and `main`
/// dispatches on it.
const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("table2", |quick| run_table2(sizes(quick))),
    ("table3", |quick| run_table3(sizes(quick))),
    ("table4", run_table4),
    ("table5", run_table5),
    ("table6", |_| run_table6()),
    ("fig3", |_| run_fig3()),
    ("fig5", |_| run_fig5()),
    ("fig9", |quick| run_fig9(sizes(quick))),
    ("dse", |quick| {
        run_dse_report();
        run_autoscale(quick);
    }),
    ("ablation", |_| run_ablation()),
    ("pipeline", |_| run_pipeline()),
    ("cpu", run_cpu),
    ("scalability", run_scalability),
    ("devices", |_| run_devices()),
    ("convergence", run_convergence),
    ("accuracy", run_accuracy),
    ("hotpath", run_hotpath),
    ("adaptive", run_adaptive),
    ("serve", run_serve),
    ("apply", run_apply),
    ("pack", run_pack),
    ("update", run_update),
];

/// The matrix sizes of the size sweeps.
fn sizes(quick: bool) -> &'static [usize] {
    if quick {
        &[128, 256]
    } else {
        &[128, 256, 512, 1024]
    }
}

/// A parsed command line.
#[derive(Debug)]
struct Args {
    quick: bool,
    out_dir: Option<String>,
    /// Experiment names; empty (or containing `all`) runs every one.
    selected: Vec<String>,
}

impl Args {
    fn wants(&self, name: &str) -> bool {
        self.selected.is_empty() || self.selected.iter().any(|s| s == "all" || s == name)
    }
}

/// Parses `[--quick] [--out DIR] [NAME ...]`, rejecting an unknown
/// flag, an unknown name, and `--out` without a directory after it.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        quick: false,
        out_dir: None,
        selected: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => parsed.quick = true,
            "--out" => match it.next() {
                Some(dir) if !dir.starts_with("--") => parsed.out_dir = Some(dir.clone()),
                _ => return Err("--out needs a directory".into()),
            },
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            name if name == "all" || EXPERIMENTS.iter().any(|(n, _)| *n == name) => {
                parsed.selected.push(name.to_string())
            }
            name => return Err(format!("unknown experiment {name}")),
        }
    }
    Ok(parsed)
}

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: repro [--quick] [--out DIR] [all | NAME ...]\nnames: {}",
        names.join(" ")
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("repro: {e}\n{}", usage());
        std::process::exit(2);
    });
    if let Some(dir) = &args.out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {dir}: {e}");
            std::process::exit(1);
        }
    }
    set_out_dir(args.out_dir.clone());
    for (name, run) in EXPERIMENTS {
        if args.wants(name) {
            run(args.quick);
        }
    }
}

fn run_update(quick: bool) {
    println!(
        "\n=== Incremental SVD: warm-start / low-rank update path vs full recompute \
         (P_eng={}, cache rank {}, update rank <= {}) ===",
        update::P_ENG,
        update::CACHE_RANK,
        update::MAX_UPDATE_RANK
    );
    // Quick sizes keep the f64 golden per-request check affordable (CI
    // smoke); the full run adds the gated n=512 point. 24 requests per
    // client keeps the trace update-heavy (one drift, one shock, one
    // resubmission — the rest rank-1 bumps), the regime the fast path
    // is built for.
    let (sizes, clients, per_client): (&[usize], usize, usize) = if quick {
        (&[64, 128], 2, 10)
    } else {
        (&[256, 512], 2, 24)
    };
    let report = match update::run(sizes, clients, per_client) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("update failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "{:>6} {:>9} | {:>10} {:>10} {:>8} | {:>5} {:>5} {:>5} {:>5} | {:>9} {:>8} | {:>6}",
        "size",
        "requests",
        "incr(s)",
        "full(s)",
        "speedup",
        "cold",
        "warm",
        "lowrk",
        "fall",
        "sv-err",
        "golden",
        "bits"
    );
    for r in &report.rows {
        println!(
            "{:>6} {:>9} | {:>10.3} {:>10.3} {:>7.2}x | {:>5} {:>5} {:>5} {:>5} | {:>9.1e} {:>8} | {:>6}",
            r.n,
            r.requests,
            r.incremental_wall_secs,
            r.full_wall_secs,
            r.speedup,
            r.cold_starts,
            r.warm_start_hits,
            r.lowrank_hits,
            r.staleness_fallbacks,
            r.max_sv_rel_error,
            r.golden_checked,
            if r.fallback_bit_identical { "ok" } else { "FAIL" }
        );
        println!(
            "       modeled: {:.3} ms incremental vs {:.3} ms full | mean warm sweeps {:.1} | \
             cache {} bytes resident, window hit rate {:.1}%",
            r.incremental_modeled_ms,
            r.full_modeled_ms,
            r.mean_warm_sweeps,
            r.cache_resident_bytes,
            r.cache_hit_rate_window * 100.0
        );
    }
    emit("update", "update", &report);

    // Gates: quick (CI smoke) enforces the exactness criteria only; the
    // full run additionally enforces the 5x speedup floor at n=512.
    let violations = update::gate_violations(&report, if quick { usize::MAX } else { 512 });
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("update gate violated: {v}");
        }
        std::process::exit(1);
    }
}

fn run_pack(quick: bool) {
    println!(
        "\n=== Array packing: packed vs sequential serve throughput \
         (P_eng={}, {} iterations/request, modeled time) ===",
        pack::P_ENG,
        pack::ITERATIONS
    );
    let requests = if quick { 10 } else { 20 };
    let report = match pack::run(&[128, 256], requests) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("pack failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "{:>6} {:>8} {:>9} | {:>12} {:>12} | {:>12} {:>12} {:>8} | {:>6} {:>6} {:>6}",
        "size",
        "tenants",
        "requests",
        "seq(ms)",
        "packed(ms)",
        "seq req/s",
        "pack req/s",
        "speedup",
        "waves",
        "bits",
        "replay"
    );
    for r in &report.rows {
        println!(
            "{:>6} {:>8} {:>9} | {:>12.3} {:>12.3} | {:>12.0} {:>12.0} {:>7.2}x | {:>6} {:>6} {:>6}",
            r.n,
            r.tenants,
            r.requests,
            r.sequential_modeled_ms,
            r.packed_modeled_ms,
            r.sequential_throughput,
            r.packed_throughput,
            r.speedup,
            r.packed_waves,
            if r.bit_identical { "ok" } else { "FAIL" },
            if r.replay_invariant { "ok" } else { "FAIL" }
        );
    }
    emit("pack", "pack", &report);

    // Gates: nonzero exit on any violated packing acceptance criterion
    // (speedup floors, bit-identity, replay invariance, packed waves).
    let violations = pack::gate_violations(&report);
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("pack gate violated: {v}");
        }
        std::process::exit(1);
    }
}

fn run_apply(quick: bool) {
    println!(
        "\n=== Apply path: decompose-once / apply-constantly serving \
         (P_eng={}, P_task={}, {} iterations/decompose) ===",
        apply::P_ENG,
        apply::P_TASK,
        apply::ITERATIONS
    );
    let (sizes, applies, probes, mixed_requests): (&[usize], usize, usize, usize) = if quick {
        (&[64, 256], 256, 3, 105)
    } else {
        (&[64, 256, 512], 1024, 6, 420)
    };
    let report = match apply::run(sizes, &[4, 16, 32], applies, probes, mixed_requests, 20) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("apply failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "{:>6} {:>6} | {:>10} {:>12} {:>12} {:>10} | {:>12} {:>12}",
        "size", "rank", "applies", "apply/s", "decomp/s", "speedup", "p50 wall(us)", "p99 wall(us)"
    );
    for r in &report.rows {
        println!(
            "{:>6} {:>6} | {:>10} {:>12.0} {:>12.2} {:>9.0}x | {:>12} {:>12}",
            r.n,
            r.rank,
            r.applies,
            r.applies_per_sec,
            r.decomposes_per_sec,
            r.speedup_vs_decompose,
            r.p50_wall_us,
            r.p99_wall_us
        );
    }
    let m = &report.mixed;
    println!(
        "mixed {}:1 at n={}: {} applies ok (p99 {} us wall), {} decomposes ok (p99 {} us wall), \
         store hit rate {:.1}%",
        m.apply_ratio,
        m.n,
        m.apply.completed_ok,
        m.apply_wall_us.p99,
        m.decompose.completed_ok,
        m.decompose_wall_us.p99,
        m.store_hit_rate * 100.0
    );
    println!(
        "exactness: max |served - direct| = {:e}, modeled timing replay-identical: {}",
        report.max_abs_delta, report.replay_identical
    );
    emit("apply", "apply", &report);

    // Gates: the binary exits nonzero on any violated serving
    // acceptance criterion (speedup floor, mix, hit rate, exactness).
    let violations = apply::gate_violations(&report);
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("apply gate violated: {v}");
        }
        std::process::exit(1);
    }
}

fn run_adaptive(quick: bool) {
    println!(
        "\n=== Adaptive sweep engine: exact vs threshold-gated + dirty-pair memo \
         (fixed {} iterations, precision 1e-6, P_eng=4) ===",
        adaptive::FIXED_ITERATIONS
    );
    let sizes: &[usize] = if quick {
        &[64, 256]
    } else {
        &[64, 256, 512, 1024]
    };
    let report = match adaptive::run(sizes, 4, 1e-6) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("adaptive failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "{:>6} {:>9} | {:>10} {:>10} {:>8} | {:>5} {:>5} | {:>11} {:>11} | {:>10} {:>10}",
        "size",
        "variant",
        "wall(s)",
        "rotations",
        "conv@",
        "sv-e",
        "orth",
        "memo skips",
        "gated",
        "speedup",
        "sv-delta"
    );
    for size in &report.sizes {
        for row in [&size.exact, &size.adaptive] {
            println!(
                "{:>6} {:>9} | {:>10.3} {:>10} {:>8} | {:>5.0e} {:>5.0e} | {:>11} {:>11} | {:>10} {:>10}",
                size.n,
                row.variant,
                row.wall_secs,
                row.rotations,
                row.converged_sweep
                    .map_or_else(|| "-".to_string(), |s| s.to_string()),
                row.sv_error_vs_golden,
                row.u_orth_error,
                row.memo_skips,
                row.gated_rotations,
                if row.variant == "adaptive" {
                    format!("{:.2}x", size.speedup)
                } else {
                    String::new()
                },
                if row.variant == "adaptive" {
                    format!("{:.1e}", size.sv_delta_adaptive_vs_exact)
                } else {
                    String::new()
                },
            );
        }
        if !size.timing_identical || !size.stats_identical {
            println!(
                "  n={}: WARNING modeled timing/stats differ between variants",
                size.n
            );
        }
    }
    emit("adaptive", "adaptive", &report);

    // Gates: quick (CI smoke) requires no regression at n=256; the full
    // run additionally enforces the 1.8x speedup floor at n=512.
    let violations = adaptive::gate_violations(&report, if quick { usize::MAX } else { 512 });
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("adaptive gate violated: {v}");
        }
        std::process::exit(1);
    }
}

fn run_serve(quick: bool) {
    println!("\n=== Serving path: requests/sec (256x256, P_eng=4, timing-only, 6 iterations) ===");
    let requests = if quick { 32 } else { 128 };
    let mut report = match serve::run(256, 4, 4, 8, 6, requests) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("serve failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "{:>12} | {:>9} {:>10} {:>10} {:>12} | {:>12} {:>12}",
        "variant", "requests", "completed", "wall(s)", "req/s", "p50 wall(us)", "p99 wall(us)"
    );
    for r in &report.results {
        println!(
            "{:>12} | {:>9} {:>10} {:>10.3} {:>12.1} | {:>12} {:>12}",
            r.variant,
            r.requests,
            r.completed,
            r.wall_secs,
            r.requests_per_sec,
            r.p50_wall_us,
            r.p99_wall_us
        );
    }
    // Per-type windowed rates: the service tracks decompose and apply
    // classes separately, so packed-vs-sequential runs stay comparable
    // per class even under mixed traffic.
    for r in &report.results {
        println!(
            "{:>12} | windowed req/s: {:.1} total, {:.1} decompose, {:.1} apply | packed: {} batches / {} requests",
            r.variant,
            r.requests_per_sec_window,
            r.decompose_rps_window,
            r.apply_rps_window,
            r.packed_batches,
            r.packed_requests
        );
    }

    // Shape-classed scheduler A/B: the identical 95:5 two-shape bursty
    // trace through shape-blind FIFO and through the EDF shape-classed
    // scheduler, gated on the rare class's tail, the dominant class's
    // retained throughput, and factor bit-identity.
    println!("\n=== Multi-shape SLO scheduling: FIFO vs shape-classed (95:5 bursty trace) ===");
    let multishape = match serve::run_multishape(quick, 42) {
        Ok(ms) => ms,
        Err(e) => {
            eprintln!("multishape serve failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "{:>10} | {:>9} {:>9} | {:>14} {:>14} | {:>12} | {:>6}",
        "scheduler", "dominant", "rare", "dom p99(us)", "rare p99(us)", "dom req/s", "shed"
    );
    for row in &multishape.rows {
        println!(
            "{:>10} | {:>9} {:>9} | {:>14} {:>14} | {:>12.1} | {:>6}",
            row.scheduler,
            row.dominant_completed,
            row.rare_completed,
            row.dominant_p99_wall_us,
            row.rare_p99_wall_us,
            row.dominant_rps,
            row.shed
        );
    }
    println!(
        "rare-class p99 improvement: {:.2}x | dominant throughput retained: {:.3} | factors bit-identical: {}",
        multishape.rare_p99_improvement,
        multishape.dominant_throughput_ratio,
        multishape.factors_bit_identical
    );
    let multishape_violations = multishape.gate_violations.clone();
    report.multishape = Some(multishape);
    emit("serve", "serve", &report);

    // Self-gate: the classed scheduler must actually buy the rare class
    // its tail without giving up the dominant class's throughput, and
    // scheduling must never touch the math.
    if !multishape_violations.is_empty() {
        for v in &multishape_violations {
            eprintln!("multishape gate violated: {v}");
        }
        std::process::exit(1);
    }
}

fn run_hotpath(quick: bool) {
    println!("\n=== Hot path: orthogonalization sweep (256x256, P_eng=4) ===");
    let sweeps = if quick { 2 } else { 5 };
    let report = match hotpath::run(256, 4, sweeps, &|| ALLOC.count()) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("hotpath failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "{:>20} | {:>12} {:>12} {:>12} | {:>18}",
        "variant", "ns/pass", "sweeps/s", "allocs/pass", "checksum"
    );
    for r in &report.results {
        println!(
            "{:>20} | {:>12.0} {:>12.3} {:>12.2} | {:>18.6}",
            r.variant, r.ns_per_pass, r.sweeps_per_sec, r.allocations_per_pass, r.checksum
        );
    }
    emit("hotpath", "hotpath", &report);
}

fn run_table2(sizes: &[usize]) {
    println!("\n=== Table II: latency & resources vs FPGA [6] (6 iterations) ===");
    println!(
        "{:>6} | {:>11} {:>11} {:>8} | {:>11} {:>8} | {:>6} {:>6} {:>8} {:>9}",
        "size",
        "FPGA(s)",
        "HSVD(s)",
        "speedup",
        "paper-HSVD",
        "paper-x",
        "URAM",
        "AIE",
        "LUT",
        "freq(MHz)"
    );
    match table2::run(sizes) {
        Ok(rows) => {
            persist("table2", &rows);
            for r in rows {
                let paper = table2::PAPER_ROWS.iter().find(|p| p.0 == r.n);
                let (paper_l, paper_s) = paper.map(|p| (p.2, p.3)).unwrap_or((f64::NAN, f64::NAN));
                println!(
                    "{:>6} | {:>11.4} {:>11.4} {:>7.2}x | {:>11.4} {:>7.2}x | {:>6} {:>6} {:>8} {:>9.1}",
                    r.n,
                    r.fpga_latency,
                    r.hsvd_latency,
                    r.speedup,
                    paper_l,
                    paper_s,
                    r.uram,
                    r.aie,
                    r.luts,
                    r.freq_mhz
                );
            }
        }
        Err(e) => eprintln!("table2 failed: {e}"),
    }
}

fn run_table3(sizes: &[usize]) {
    println!("\n=== Table III: latency/throughput/energy-efficiency vs GPU [11] (batch 100, converge 1e-6) ===");
    println!(
        "{:>6} {:>5} | {:>10} {:>10} {:>8} | {:>10} {:>10} {:>8} | {:>8} {:>8} {:>8} | {:>9}",
        "size",
        "iter",
        "GPU lat",
        "GPU tput",
        "GPU EE",
        "HSVD lat",
        "HSVD tput",
        "HSVD EE",
        "lat-x",
        "tput-x",
        "EE-x",
        "(Pe,Pt)"
    );
    match table3::run(sizes) {
        Ok(rows) => {
            persist("table3", &rows);
            for r in rows {
                println!(
                    "{:>6} {:>5} | {:>10.4} {:>10.2} {:>8.3} | {:>10.4} {:>10.2} {:>8.3} | {:>7.2}x {:>7.2}x {:>7.2}x | ({},{})",
                    r.n,
                    r.iterations,
                    r.gpu_latency,
                    r.gpu_throughput,
                    r.gpu_ee,
                    r.hsvd_latency,
                    r.hsvd_throughput,
                    r.hsvd_ee,
                    r.gpu_latency / r.hsvd_latency,
                    r.hsvd_throughput / r.gpu_throughput,
                    r.hsvd_ee / r.gpu_ee,
                    r.tp_config.0,
                    r.tp_config.1
                );
            }
            println!("paper:  lat 7.22x/3.30x/1.15x/0.86x  tput 1.77x/1.10x/0.89x/0.36x  EE 13.18x/7.76x/6.50x/4.36x");
        }
        Err(e) => eprintln!("table3 failed: {e}"),
    }
}

fn run_table4(quick: bool) {
    println!("\n=== Table IV: performance model vs simulator (1 iteration, 208.3 MHz) ===");
    println!(
        "{:>6} {:>6} | {:>10} {:>10} {:>7} | {:>10} {:>10} {:>7}",
        "size", "P_eng", "sim(ms)", "model(ms)", "err", "paper-brd", "paper-mod", "p-err"
    );
    let configs: Vec<(usize, usize)> = if quick {
        table4::paper_configs()
            .into_iter()
            .filter(|&(n, _)| n <= 256)
            .collect()
    } else {
        table4::paper_configs()
    };
    match table4::run(&configs) {
        Ok(rows) => {
            persist("table4", &rows);
            let mut max_err = 0.0_f64;
            let mut sum_err = 0.0_f64;
            for r in &rows {
                let paper = table4::PAPER_ROWS
                    .iter()
                    .find(|p| p.0 == r.n && p.1 == r.p_eng)
                    .unwrap();
                println!(
                    "{:>6} {:>6} | {:>10.3} {:>10.3} {:>6.2}% | {:>10.3} {:>10.3} {:>6.2}%",
                    r.n,
                    r.p_eng,
                    r.measured_ms,
                    r.model_ms,
                    r.error * 100.0,
                    paper.2,
                    paper.3,
                    (paper.3 - paper.2).abs() / paper.2 * 100.0
                );
                max_err = max_err.max(r.error);
                sum_err += r.error;
            }
            println!(
                "model-vs-sim error: max {:.2}%, avg {:.2}% (paper: max 3.03%, avg 1.78%)",
                max_err * 100.0,
                sum_err / rows.len() as f64 * 100.0
            );
        }
        Err(e) => eprintln!("table4 failed: {e}"),
    }
}

fn run_table5(quick: bool) {
    println!("\n=== Table V: model vs simulator across DSE-chosen scenarios (1 iteration) ===");
    println!(
        "{:>6} {:>6} | {:>9} {:>6} {:>6} | {:>12} {:>12} {:>7}",
        "size", "batch", "freq", "P_eng", "P_task", "sim(ms)", "model(ms)", "err"
    );
    let scenarios: Vec<(usize, usize)> = if quick {
        table5::paper_scenarios()
            .into_iter()
            .filter(|&(n, _)| n <= 256)
            .collect()
    } else {
        table5::paper_scenarios()
    };
    match table5::run(&scenarios) {
        Ok(rows) => {
            persist("table5", &rows);
            let mut max_err = 0.0_f64;
            let mut sum_err = 0.0_f64;
            for r in &rows {
                println!(
                    "{:>6} {:>6} | {:>9.1} {:>6} {:>6} | {:>12.3} {:>12.3} {:>6.2}%",
                    r.n,
                    r.batch,
                    r.freq_mhz,
                    r.p_eng,
                    r.p_task,
                    r.measured_ms,
                    r.model_ms,
                    r.error * 100.0
                );
                max_err = max_err.max(r.error);
                sum_err += r.error;
            }
            println!(
                "model-vs-sim error: max {:.2}%, avg {:.2}% (paper: max 7.52%, avg 4.33%)",
                max_err * 100.0,
                sum_err / rows.len() as f64 * 100.0
            );
        }
        Err(e) => eprintln!("table5 failed: {e}"),
    }
}

fn run_table6() {
    println!("\n=== Table VI: micro-architecture sweep at 256x256, 208.3 MHz, 6 iterations ===");
    println!(
        "{:>6} {:>6} | {:>6} {:>6} | {:>12} {:>12} {:>8} | paper: latency/tput/power",
        "P_eng", "P_task", "AIE", "URAM", "latency(ms)", "tput(t/s)", "power(W)"
    );
    match table6::run(256, &[2, 4, 6, 8]) {
        Ok(rows) => {
            persist("table6", &rows);
            for r in &rows {
                let paper = table6::PAPER_ROWS.iter().find(|p| p.0 == r.p_eng).unwrap();
                println!(
                    "{:>6} {:>6} | {:>6} {:>6} | {:>12.3} {:>12.2} {:>8.2} | {:.3}/{:.1}/{:.2}",
                    r.p_eng,
                    r.p_task,
                    r.aie,
                    r.uram,
                    r.latency_ms,
                    r.throughput,
                    r.power_watts,
                    paper.4,
                    paper.5,
                    paper.6
                );
            }
        }
        Err(e) => eprintln!("table6 failed: {e}"),
    }
}

fn run_fig3() {
    println!("\n=== Fig. 3: DMA transfers per block-pair pass (ring vs shifting ring) ===");
    println!(
        "{:>4} | {:>11} {:>15} {:>15} {:>14} {:>10} | {:>9}",
        "k",
        "ring+naive",
        "ring+relocated",
        "shifting+naive",
        "round-robin",
        "co-design",
        "reduction"
    );
    let fig3_rows = fig3::run(11);
    persist("fig3", &fig3_rows);
    for r in fig3_rows {
        println!(
            "{:>4} | {:>11} {:>15} {:>15} {:>14} {:>10} | {:>8.1}x",
            r.k,
            r.ring_naive,
            r.ring_relocated,
            r.shifting_naive,
            r.round_robin_relocated,
            r.codesign,
            r.reduction
        );
    }
    println!(
        "paper formulas: ring+naive = 2k(k-1), co-design = 2(k-1); \
         round-robin [17] shown at its best (relocated): 2(k-1)^2"
    );
    println!("\nFig. 3 diagram regenerated for the paper's 6-column example (k = 3):\n");
    print!(
        "{}",
        svd_orderings::render::render_ordering(
            svd_orderings::movement::OrderingKind::Ring,
            svd_orderings::movement::DataflowKind::NaiveMemory,
            3,
            |l| l,
        )
    );
    println!();
    print!(
        "{}",
        svd_orderings::render::render_ordering(
            svd_orderings::movement::OrderingKind::ShiftingRing,
            svd_orderings::movement::DataflowKind::Relocated,
            3,
            |l| l,
        )
    );
}

fn run_fig5() {
    use heterosvd::{HeteroSvdConfig, Placement};
    println!("\n=== Fig. 5: AIE placement (regenerated from the placement engine) ===");
    for p_eng in [2usize, 8] {
        let cfg = HeteroSvdConfig::builder(64, 64)
            .engine_parallelism(p_eng)
            .build()
            .unwrap();
        let placement = Placement::plan(&cfg).unwrap();
        println!(
            "\nP_eng = {p_eng}: {} orth-layers in {} band(s), {} AIEs/task",
            placement.num_layers(),
            placement.num_bands(),
            placement.counts().total()
        );
        print!("{}", placement.render());
    }
}

fn run_fig9(sizes: &[usize]) {
    println!("\n=== Fig. 9: throughput & utilization vs design size (batch 100) ===");
    println!(
        "{:>6} | {:>10} {:>9} {:>9} | {:>10} {:>9} {:>9} | {:>6}",
        "size", "GPU tput", "GPU core", "GPU mem", "HSVD tput", "HSVD core", "HSVD bw", "P_task"
    );
    match fig9::run(sizes) {
        Ok(rows) => {
            persist("fig9", &rows);
            for r in rows {
                println!(
                    "{:>6} | {:>10.2} {:>8.1}% {:>8.1}% | {:>10.2} {:>8.1}% {:>8.1}% | {:>6}",
                    r.n,
                    r.gpu_throughput,
                    r.gpu_core_util * 100.0,
                    r.gpu_mem_util * 100.0,
                    r.hsvd_throughput,
                    r.hsvd_core_util * 100.0,
                    r.hsvd_mem_util * 100.0,
                    r.p_task
                );
            }
        }
        Err(e) => eprintln!("fig9 failed: {e}"),
    }
}

fn run_devices() {
    println!("\n=== Device porting study (extension): VCK190 vs estimated AIE-ML (batch 100, 6 iterations) ===");
    println!(
        "{:>34} {:>6} | {:>8} | {:>9} {:>12} | {:>9} {:>12}",
        "device", "size", "feasible", "lat cfg", "latency(ms)", "tput cfg", "tput(t/s)"
    );
    let rows = devices::run(&[128, 256], 6);
    persist("devices", &rows);
    for r in &rows {
        println!(
            "{:>34} {:>6} | {:>8} | ({:>2},{:>2}) {:>12.3} | ({:>2},{:>2}) {:>12.1}",
            r.device,
            r.n,
            r.feasible,
            r.latency_config.0,
            r.latency_config.1,
            r.latency_ms,
            r.throughput_config.0,
            r.throughput_config.1,
            r.throughput
        );
    }
    println!("(AIE-ML profile is estimated from public specs; a porting study, not a measurement)");
}

fn run_scalability(quick: bool) {
    println!(
        "\n=== Scalability what-if (extension): does more URAM flip the Table III crossover? ==="
    );
    println!(
        "{:>6} {:>6} {:>10} | {:>6} | {:>12} {:>12} {:>8}",
        "size", "URAMx", "freq", "P_task", "HSVD(t/s)", "GPU(t/s)", "ratio"
    );
    let sizes: &[(usize, usize)] = if quick {
        &[(256, 11), (512, 13)]
    } else {
        &[(256, 11), (512, 13), (1024, 14)]
    };
    let rows = scalability::run(sizes);
    persist("scalability", &rows);
    for r in &rows {
        println!(
            "{:>6} {:>6} {:>10} | {:>6} | {:>12.2} {:>12.2} {:>7.2}x",
            r.n,
            r.uram_scale,
            if r.optimistic_frequency {
                "450 fixed"
            } else {
                "derated"
            },
            r.p_task,
            r.hsvd_throughput,
            r.gpu_throughput,
            r.ratio
        );
    }
    println!("(paper S V-B: 'with adequate RAM resources and optimized operating frequency,\n HeteroSVD has the potential to outperform GPU solutions')");
}

fn run_cpu(quick: bool) {
    use baselines::CpuBaseline;
    use heterosvd::{Accelerator, FidelityMode, HeteroSvdConfig};
    use heterosvd_bench::workload::random_matrix;
    println!("\n=== CPU software baseline (extension): host block-Jacobi vs simulated accelerator (6 iterations) ===");
    println!(
        "{:>6} | {:>12} {:>12} | {:>8}",
        "size", "CPU(ms)", "HSVD(ms)", "speedup"
    );
    let sizes: &[usize] = if quick { &[128, 256] } else { &[128, 256, 512] };
    let cpu = CpuBaseline::new();
    for &n in sizes {
        let a = random_matrix(n, n, 4242);
        let m = cpu.measure(&a, 6, 2);
        let cfg = HeteroSvdConfig::builder(n, n)
            .engine_parallelism(8)
            .fidelity(FidelityMode::TimingOnly)
            .fixed_iterations(6)
            .build()
            .unwrap();
        let hsvd_ms = Accelerator::new(cfg)
            .unwrap()
            .run(&svd_kernels::Matrix::zeros(n, n))
            .unwrap()
            .timing
            .task_time
            .as_millis();
        println!(
            "{:>6} | {:>12.3} {:>12.3} | {:>7.1}x",
            n,
            m.latency * 1e3,
            hsvd_ms,
            m.latency * 1e3 / hsvd_ms
        );
    }
    println!("(CPU numbers are host-machine wall clock; single-threaded f64 solver)");
}

fn run_pipeline() {
    use heterosvd::{Accelerator, FidelityMode, HeteroSvdConfig};
    println!("\n=== Pipeline trace: block-pair passes through the array (128x128, P_eng=8, 208.3 MHz) ===");
    let cfg = HeteroSvdConfig::builder(128, 128)
        .engine_parallelism(8)
        .pl_freq_mhz(208.3)
        .fidelity(FidelityMode::TimingOnly)
        .fixed_iterations(1)
        .record_trace(true)
        .build()
        .unwrap();
    match Accelerator::new(cfg).and_then(|a| a.run(&svd_kernels::Matrix::zeros(128, 128))) {
        Ok(out) => {
            // Show the round boundary: passes 4..20 cover rounds 1-2
            // (8 passes per round) including the dependency stall.
            print!("{}", heterosvd::render::render_gantt(&out.trace, 4, 16, 90));
            println!("(bars overlap while the pipeline streams; the gap at each 8-pass round\n boundary is the t_algo/t_datawait dependency stall of Eq. 10-11)");
        }
        Err(e) => eprintln!("pipeline trace failed: {e}"),
    }
}

fn run_convergence(quick: bool) {
    println!("\n=== Convergence study: iterations to precision (block size 8, 3 seeds) ===");
    println!(
        "{:>6} {:>10} | {:>10} {:>6} {:>14}",
        "size", "precision", "mean iter", "max", "final measure"
    );
    let sizes: &[usize] = if quick {
        &[32, 64, 128]
    } else {
        &[32, 64, 128, 256]
    };
    let conv_rows = convergence::run(sizes, &[1e-2, 1e-6, 1e-10], 8, 3);
    persist("convergence", &conv_rows);
    for r in conv_rows {
        println!(
            "{:>6} {:>10.0e} | {:>10.1} {:>6} {:>14.3e}",
            r.n, r.precision, r.mean_iterations, r.max_iterations, r.final_measure
        );
    }
}

fn run_accuracy(quick: bool) {
    println!("\n=== QoR study: f32 accelerator vs f64 golden (precision 1e-6) ===");
    println!(
        "{:>6} {:>6} {:>6} | {:>12} {:>14} {:>16}",
        "size", "P_eng", "iter", "sv error", "orthogonality", "reconstruction"
    );
    let sizes: &[usize] = if quick {
        &[32, 64, 128]
    } else {
        &[32, 64, 128, 256]
    };
    match accuracy::run(sizes, 4) {
        Ok(rows) => {
            persist("accuracy", &rows);
            for r in rows {
                println!(
                    "{:>6} {:>6} {:>6} | {:>12.2e} {:>14.2e} {:>16.2e}",
                    r.n, r.p_eng, r.iterations, r.sv_error, r.orthogonality, r.reconstruction
                );
            }
        }
        Err(e) => eprintln!("accuracy failed: {e}"),
    }
}

fn run_ablation() {
    println!(
        "\n=== Ablation: the two halves of the co-design (1024x48 tall matrix, P_eng=3, 6 iterations) ==="
    );
    println!(
        "{:>34} | {:>12} {:>10} {:>10} {:>12}",
        "variant", "latency(ms)", "DMA", "neighbor", "DMA bytes"
    );
    match ablation::run(1024, 48, 3) {
        Ok(rows) => {
            persist("ablation", &rows);
            let base = rows[0].latency_ms;
            for r in &rows {
                println!(
                    "{:>34} | {:>12.3} {:>10} {:>10} {:>12} ({:.2}x)",
                    r.name,
                    r.latency_ms,
                    r.dma_transfers,
                    r.neighbor_accesses,
                    r.dma_bytes,
                    base / r.latency_ms
                );
            }
        }
        Err(e) => eprintln!("ablation failed: {e}"),
    }
}

fn run_autoscale(quick: bool) {
    println!(
        "\n=== Closed-loop online DSE: adaptive vs static plans on a \
         shifting bursty trace ({} iterations/request, modeled time) ===",
        autoscale::ITERATIONS
    );
    let report = match autoscale::run(&shifting_mix_phases(quick), &stationary_phases(quick), 7) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("autoscale bench failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "{:>10} {:>6} {:>7} {:>9} | {:>12} {:>12} | {:>6} {:>9}",
        "variant", "P_eng", "P_task", "requests", "modeled(ms)", "req/s", "swaps", "dse runs"
    );
    for row in std::iter::once(&report.adaptive).chain(&report.statics) {
        println!(
            "{:>10} {:>6} {:>7} {:>9} | {:>12.3} {:>12.0} | {:>6} {:>9}",
            row.label,
            row.engine_parallelism,
            row.task_parallelism,
            row.requests,
            row.modeled_ms,
            row.throughput_rps,
            row.plan_swaps,
            row.dse_runs
        );
    }
    println!(
        "adaptive speedup {:.2}x vs best static | {} distinct plans | factors bit-identical: {} | \
         stationary: {} swaps over {} dse runs at (P_eng={}, P_task={})",
        report.speedup_vs_best_static,
        report.distinct_plans,
        if report.bit_identical { "yes" } else { "NO" },
        report.stationary.plan_swaps,
        report.stationary.dse_runs,
        report.stationary.engine_parallelism,
        report.stationary.task_parallelism
    );
    emit("autoscale", "dse", &report);

    // Gates: nonzero exit on any violated closed-loop criterion. The
    // full trace enforces the 1.3x headline; the quick CI smoke keeps
    // every exactness/swap gate but relaxes the speedup floor to the
    // shorter trace's reliable margin.
    let violations = autoscale::gate_violations(&report, if quick { 1.15 } else { 1.3 });
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("dse gate violated: {v}");
        }
        std::process::exit(1);
    }
}

fn run_dse_report() {
    println!("\n=== DSE flow (Eq. 15-16): full sweep at 256x256, batch 100, 6 iterations ===");
    let report = dse_report::run(256, 100, 6);
    persist("dse", &report);
    println!(
        "feasible points: {} / {} candidates, sweep took {:.1} ms",
        report.feasible,
        report.feasible + report.infeasible,
        report.sweep_ms
    );
    for (label, best) in [
        ("min-latency", &report.best_latency),
        ("max-throughput", &report.best_throughput),
        ("max-energy-eff", &report.best_ee),
    ] {
        if let Some(b) = best {
            println!(
                "{label:>15}: P_eng={} P_task={} freq={:.1}MHz latency={:.3}ms tput={:.1}t/s {:.2}W EE={:.3}",
                b.point.engine_parallelism,
                b.point.task_parallelism,
                b.point.pl_freq_mhz,
                b.latency.as_millis(),
                b.throughput,
                b.power_watts,
                b.energy_efficiency
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn unknown_experiment_is_rejected() {
        assert!(parse(&["--quick", "tabel2"]).is_err());
    }

    #[test]
    fn out_needs_a_directory() {
        assert!(parse(&["hotpath", "--out"]).is_err());
        assert!(parse(&["--out", "--quick", "hotpath"]).is_err());
    }

    #[test]
    fn unknown_flag_is_rejected() {
        assert!(parse(&["--quik", "hotpath"]).is_err());
    }

    #[test]
    fn valid_command_lines_parse() {
        let quick = parse(&["--quick"]).unwrap();
        assert!(quick.quick && quick.selected.is_empty() && quick.wants("table2"));
        let all = parse(&["all"]).unwrap();
        assert!(!all.quick && all.wants("update"));
        let out = parse(&["--out", "data", "pack"]).unwrap();
        assert_eq!(out.out_dir.as_deref(), Some("data"));
        assert!(out.wants("pack") && !out.wants("hotpath"));
    }

    #[test]
    fn usage_lists_every_experiment() {
        let usage = usage();
        for (name, _) in EXPERIMENTS {
            assert!(usage.contains(name), "{name} missing from usage");
        }
    }
}
