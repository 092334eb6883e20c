//! Layer probes: direct, timed calls into `heterosvd` (core),
//! `svd-kernels`, `perf-model` and `factor-store` on seeded inputs,
//! run after the load phase of a traced run.
//!
//! Metrics labelled *modeled* (`core.modeled_task_us.*`,
//! `perf_model.residual_pct.*`, `serve.apply_modeled_us`) and the
//! counts (`kernels.sweeps.*`) depend only on the seed and must repeat
//! exactly; everything else is host wall time.

use crate::rng::Rng;
use crate::stats::{mean, median, ratio};
use crate::workload::{drift, MODEL_N, MODEL_RANK, UPDATE_N};
use crate::Metrics;
use heterosvd::orth_pipeline::OrthPipeline;
use heterosvd::{Accelerator, HeteroSvdConfig, PlanHandle};
use heterosvd_serve::{FactorStore, ModelId, ServeConfig, SvdService};
use perf_model::{estimate, DesignPoint};
use std::hint::black_box;
use std::time::Instant;
use svd_kernels::block::{block_jacobi, BlockJacobiOptions, BlockPairSchedule, BlockPartition};
use svd_kernels::incremental::{classify_update, lowrank_update, warm_start};
use svd_kernels::{hestenes_jacobi, JacobiOptions, Matrix, TruncatedSvd};

/// Square sizes every traced run probes: the union of the workloads'
/// shapes, so each per-layer metric exists on every workload.
pub const SIZES: [usize; 4] = [32, 64, 128, 256];
/// Seeded matrices per probed size.
const REPS: usize = 3;
/// Batch size of the `run_many_f32` probe (the service's `max_batch`).
const MANY: usize = 8;
/// Engine parallelism of the `core.pass_ns` probe (the hot-path
/// microbenchmark's design point).
const PASS_P_ENG: usize = 4;

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Core, kernel and model probes at every size in `sizes`. Wall
/// metrics are medians over repetitions.
///
/// # Errors
///
/// The first accelerator, kernel or plan failure.
pub fn core_probes(
    config: &ServeConfig,
    seed: u64,
    sizes: &[usize],
    out: &mut Metrics,
) -> Result<(), String> {
    for &n in sizes {
        let cfg = config
            .accelerator_config((n, n))
            .map_err(|e| e.to_string())?;
        let mut rng = Rng::new(seed, 100 + n as u64);
        // A seeded diagonal boost in [1, 5) per matrix varies the
        // conditioning, and so the sweep count and the modeled time,
        // from seed to seed.
        let inputs: Vec<Matrix<f32>> = (0..REPS)
            .map(|_| {
                let boost = 1.0 + 4.0 * rng.unit();
                Matrix::from_fn(n, n, |r, c| {
                    (rng.symmetric() + if r == c { boost } else { 0.0 }) as f32
                })
            })
            .collect();

        let builds: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                black_box(PlanHandle::build(&cfg)).map(|_| ms(t))
            })
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        out.measured(&format!("core.plan_build_ms.{n}"), median(&builds), "ms");

        let acc = Accelerator::new(cfg.clone()).map_err(|e| e.to_string())?;
        acc.run_f32(&inputs[0]).map_err(|e| e.to_string())?;
        let mut run_ms = Vec::new();
        let mut modeled_us = Vec::new();
        let mut residual = Vec::new();
        let (mut skips, mut rotations) = (0u64, 0u64);
        for a in &inputs {
            let t = Instant::now();
            let o = acc.run_f32(a).map_err(|e| e.to_string())?;
            run_ms.push(ms(t));
            let task = o.timing.task_time;
            modeled_us.push(task.0 as f64 / 1e6);
            let model = estimate(&DesignPoint {
                rows: n,
                cols: n,
                engine_parallelism: cfg.engine_parallelism,
                task_parallelism: cfg.task_parallelism,
                pl_freq_mhz: cfg.pl_freq.mhz(),
                iterations: o.timing.iterations(),
            })
            .task;
            residual.push((model.0 as f64 - task.0 as f64) / task.0 as f64 * 100.0);
            if let Some(c) = o.adaptive {
                skips += c.memo_skips + c.gated_rotations;
            }
            rotations += o
                .result
                .history
                .iter()
                .map(|s| s.rotations as u64)
                .sum::<u64>();
        }
        out.measured(&format!("core.run_ms.{n}"), median(&run_ms), "ms");
        out.exact(
            &format!("core.modeled_task_us.{n}"),
            mean(&modeled_us),
            "us",
        );
        out.exact(
            &format!("perf_model.residual_pct.{n}"),
            mean(&residual),
            "%",
        );
        out.exact(
            &format!("core.skip_frac.{n}"),
            ratio(skips as f64, (skips + rotations) as f64),
            "ratio",
        );

        let many: Vec<f64> = (0..2)
            .map(|_| {
                let batch = (0..MANY).map(|i| inputs[i % REPS].clone()).collect();
                let t = Instant::now();
                acc.run_many_f32(batch).map(|_| ms(t))
            })
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        out.measured(&format!("core.run_many_ms.{n}"), median(&many), "ms");

        out.measured(&format!("core.pass_ns.{n}"), pass_ns(n)?, "ns");

        let opts = BlockJacobiOptions {
            block_cols: cfg.engine_parallelism,
            precision: cfg.precision,
            ..BlockJacobiOptions::default()
        };
        let mut jacobi_ms = Vec::new();
        let mut sweeps = Vec::new();
        for a in &inputs {
            let t = Instant::now();
            let r = block_jacobi(a, &opts).map_err(|e| e.to_string())?;
            jacobi_ms.push(ms(t));
            sweeps.push(r.sweeps as f64);
        }
        out.measured(&format!("kernels.jacobi_ms.{n}"), median(&jacobi_ms), "ms");
        out.exact(&format!("kernels.sweeps.{n}"), mean(&sweeps), "count");
    }
    Ok(())
}

/// Nanoseconds per block-pair pass of the orthogonalization sweep, by
/// the `repro -- hotpath` protocol (its test matrix, P_eng = 4, 208.3
/// MHz PL, one warm-up and two measured sweeps), median of 5 repeats.
fn pass_ns(n: usize) -> Result<f64, String> {
    let cfg = HeteroSvdConfig::builder(n, n)
        .engine_parallelism(PASS_P_ENG)
        .functional_parallelism(1)
        .pl_freq_mhz(208.3)
        .build()
        .map_err(|e| e.to_string())?;
    let plan = PlanHandle::build(&cfg).map_err(|e| e.to_string())?;
    let blocks = BlockPartition::new(n, PASS_P_ENG)
        .map_err(|e| e.to_string())?
        .num_blocks();
    let passes = BlockPairSchedule::round_robin(blocks).len();
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let mut b = Matrix::from_fn(n, n, |r, c| {
                (((r * 31 + c * 17 + 3) % 13) as f32) / 3.0 - 2.0 + if r == c { 2.0 } else { 0.0 }
            });
            let mut pipe = OrthPipeline::new(&cfg, &plan);
            pipe.set_norm_floor_sq(b.column_norm_floor_sq());
            pipe.run_iteration(&mut b);
            let t = Instant::now();
            for _ in 0..2 {
                pipe.run_iteration(&mut b);
            }
            black_box(&b);
            t.elapsed().as_nanos() as f64 / (2 * passes) as f64
        })
        .collect();
    Ok(median(&samples))
}

/// Apply-kernel and factor-store probes on a 256² rank-32 factor set.
pub fn store_probes(seed: u64, out: &mut Metrics) {
    let mut rng = Rng::new(seed, 300);
    let factors = || {
        let mut rng = Rng::new(seed, 301);
        let mut m = |rows| Matrix::from_fn(rows, MODEL_RANK, |_, _| rng.symmetric() as f32);
        TruncatedSvd {
            u: m(MODEL_N),
            v: m(MODEL_N),
            sigma: (0..MODEL_RANK).map(|i| 1.0 / (i + 1) as f32).collect(),
            tail_sigma: 0.0,
            retained_energy: 1.0,
        }
    };
    let t = factors();
    let x: Vec<f32> = rng.vector(MODEL_N).iter().map(|&v| v as f32).collect();
    let apply_us: Vec<f64> = (0..5)
        .map(|_| {
            let s = Instant::now();
            for _ in 0..500 {
                black_box(t.apply_rank(black_box(&x), MODEL_RANK).expect("valid rank"));
            }
            s.elapsed().as_secs_f64() * 1e6 / 500.0
        })
        .collect();
    out.measured("kernels.apply_rank_us", median(&apply_us), "us");

    let store = FactorStore::new(64 << 20);
    for m in 0..4 {
        store.publish(ModelId(m), factors());
    }
    let get_us: Vec<f64> = (0..5)
        .map(|_| {
            let s = Instant::now();
            for i in 0..5000u64 {
                black_box(store.get(ModelId(i % 4)));
            }
            s.elapsed().as_secs_f64() * 1e6 / 5000.0
        })
        .collect();
    out.measured("store.get_us", median(&get_us), "us");
}

/// Incremental-update kernel probes on seeded 128² matrices: one 2%
/// rank-1 bump classified, absorbed by the low-rank route, and solved
/// by a warm start.
///
/// # Errors
///
/// The first kernel failure.
pub fn update_probes(config: &ServeConfig, seed: u64, out: &mut Metrics) -> Result<(), String> {
    let mut rng = Rng::new(seed, 400);
    let a_prev64 = rng.matrix(UPDATE_N, UPDATE_N);
    let mut a_new64 = a_prev64.clone();
    drift(&mut rng, &mut a_new64, 1);
    let (a_prev, a_new): (Matrix<f32>, Matrix<f32>) = (a_prev64.cast(), a_new64.cast());
    let svd_opts = JacobiOptions {
        precision: config.precision.max(1e-5),
        compute_v: true,
        adaptive: false,
        ..JacobiOptions::default()
    };
    let prev = hestenes_jacobi(&a_prev, &svd_opts).map_err(|e| e.to_string())?;
    let cached = prev
        .truncate(&a_prev, config.update_cache_rank)
        .map_err(|e| e.to_string())?;
    let v_prev = prev.v.clone().ok_or("reference SVD returned no V")?;
    let k_budget = config
        .max_update_rank
        .min(UPDATE_N - config.update_cache_rank);

    let mut class = None;
    let classify_us: Vec<f64> = (0..9)
        .map(|_| {
            let s = Instant::now();
            class = Some(classify_update(
                &a_new,
                &a_prev,
                0,
                &config.staleness_bound(),
                k_budget,
            ));
            s.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    out.measured("kernels.classify_us", median(&classify_us), "us");
    let class = class
        .expect("classified at least once")
        .map_err(|e| e.to_string())?;
    let factor = class
        .factor
        .ok_or("the 2% rank-1 bump did not classify as low-rank")?;

    let lowrank_ms: Vec<f64> = (0..5)
        .map(|_| {
            let s = Instant::now();
            lowrank_update(&cached, &factor, &svd_opts).map(|r| {
                black_box(r);
                ms(s)
            })
        })
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    out.measured("kernels.lowrank_ms", median(&lowrank_ms), "ms");

    let warm_opts = JacobiOptions {
        precision: config.precision,
        ..svd_opts
    };
    let warm_ms: Vec<f64> = (0..3)
        .map(|_| {
            let s = Instant::now();
            warm_start(&a_new, &v_prev, &warm_opts).map(|r| {
                black_box(r);
                ms(s)
            })
        })
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    out.measured("kernels.warm_start_ms", median(&warm_ms), "ms");
    Ok(())
}

/// Serve-path probes on the idle `service` after the load: three
/// republishes of a probe model (round-trip wall time) and one solo
/// apply at a seeded rank, whose Eq. 8–14 charge (`sim_exec_ps` at
/// batch size 1) is modeled and exact.
///
/// # Errors
///
/// The first refused or failed request.
pub fn serve_probes(service: &SvdService, seed: u64, out: &mut Metrics) -> Result<(), String> {
    let mut rng = Rng::new(seed, 500);
    let model = ModelId(1000);
    let mut publish_ms = Vec::new();
    for _ in 0..3 {
        let a = rng.matrix(MODEL_N, MODEL_N);
        let s = Instant::now();
        service
            .try_submit_publish(model, a, MODEL_RANK)
            .and_then(|h| h.wait())
            .map_err(|e| format!("probe publish: {e}"))?;
        publish_ms.push(ms(s));
    }
    out.measured("store.publish_ms.p50", median(&publish_ms), "ms");
    let x = rng.vector(MODEL_N);
    let rank = 1 + rng.below(MODEL_RANK);
    let r = service
        .try_submit_apply(model, &x, Some(rank))
        .and_then(|h| h.wait())
        .map_err(|e| format!("probe apply: {e}"))?;
    out.exact(
        "serve.apply_modeled_us",
        r.latency.sim_exec_ps as f64 / 1e6,
        "us",
    );
    Ok(())
}
