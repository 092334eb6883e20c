//! Closed-loop online DSE: the autoscale controller thread.
//!
//! The controller closes the loop between the service's observability
//! plane and the analytic Eq. 15–16 design-space sweep. Each tick it
//!
//! 1. **observes** — diffs the cumulative per-shape completion
//!    counters, the factor-cache hit/miss totals, and the packed-wave
//!    counters against its previous tick, building an observed
//!    [`WorkloadMix`] (per-shape arrival weight, batch fill, and the
//!    apply/update routing split that decides how much update traffic
//!    actually reaches the array);
//! 2. **re-plans** — re-runs the workload-mix DSE against that model
//!    through a [`MixSearch`], which reuses the cached sweep while the
//!    mix stays similar (a stationary service costs one similarity
//!    check per tick, not a sweep);
//! 3. **maybe swaps** — commits the winning `(P_eng, P_task)` plan to
//!    the replicas' shared live [`PlanInfo`] with drain-and-replace
//!    semantics, but only past three hysteresis gates: a post-swap
//!    cooldown (skip re-scoring until post-swap windows reflect the
//!    new plan), a minimum dwell time on the current plan, and a
//!    relative improvement threshold the candidate must clear.
//!
//! Everything the controller reads is a *cumulative* counter: it never
//! drains the windowed state metrics snapshots own, so running the
//! controller does not perturb what operators see.

use crate::metrics::ShapeTotals;
use crate::request::PlanInfo;
use crate::service::Inner;
use heterosvd_dse::{DseConfig, MixSearch, ObservedShape, WorkloadMix};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Relative tolerance under which two successive observed mixes count
/// as the same traffic and the cached sweep is reused.
const MIX_SIMILARITY_TOL: f64 = 0.15;

/// Controller thread: observe → re-plan → maybe-swap every
/// [`crate::ServeConfig::autoscale_interval`] until shutdown flips
/// `autoscale_stop`.
pub(crate) fn autoscale_main(inner: Arc<Inner>) {
    let interval = inner.config.autoscale_interval;
    let mut controller = Controller::new(&inner);
    let mut stop = inner.autoscale_stop.lock();
    loop {
        if *stop {
            return;
        }
        if inner.autoscale_cv.wait_for(&mut stop, interval).timed_out() {
            drop(stop);
            controller.tick(&inner);
            stop = inner.autoscale_stop.lock();
        }
    }
}

/// Cumulative counter sample one tick diffs against the previous.
#[derive(Default)]
struct Sample {
    shapes: HashMap<(usize, usize), ShapeTotals>,
    cache_hits: u64,
    cache_misses: u64,
    warm_hits: u64,
    lowrank_hits: u64,
    packed_requests: u64,
    packed_batches: u64,
}

struct Controller {
    search: MixSearch,
    prev: Sample,
    started: Instant,
    last_swap: Option<Instant>,
    /// DSE problem template; per-shape rows/cols/batch/iterations are
    /// overridden by the mix evaluation.
    base: DseConfig,
}

impl Controller {
    fn new(inner: &Inner) -> Self {
        let unit = inner.config.min_cols();
        let base =
            DseConfig::new(unit, unit).iterations(inner.config.fixed_iterations.unwrap_or(6));
        Controller {
            search: MixSearch::new(MIX_SIMILARITY_TOL),
            prev: Sample::default(),
            started: Instant::now(),
            last_swap: None,
            base,
        }
    }

    fn sample(inner: &Inner) -> Sample {
        Sample {
            shapes: inner
                .metrics
                .shape_totals()
                .into_iter()
                .map(|t| ((t.rows, t.cols), t))
                .collect(),
            // lookup_totals (not stats()) keeps the scrape-owned
            // hit-rate window untouched.
            cache_hits: inner.factor_cache.lookup_totals().0,
            cache_misses: inner.factor_cache.lookup_totals().1,
            warm_hits: inner.metrics.warm_start_hits.load(Ordering::Relaxed),
            lowrank_hits: inner.metrics.lowrank_hits.load(Ordering::Relaxed),
            packed_requests: inner.metrics.packed_requests.load(Ordering::Relaxed),
            packed_batches: inner.metrics.packed_batches.load(Ordering::Relaxed),
        }
    }

    /// Builds the observed mix from the delta between `now` and the
    /// previous tick's sample. Returns `None` when no shape-bearing
    /// traffic completed since.
    fn observe(&self, inner: &Inner, now: &Sample) -> Option<WorkloadMix> {
        // How much of the update traffic actually reached the array:
        // cache misses recompute in full, and cache hits split between
        // the warm-start route (array) and the host-only low-rank fast
        // path by the observed route counters.
        let hits_d = now.cache_hits.saturating_sub(self.prev.cache_hits);
        let misses_d = now.cache_misses.saturating_sub(self.prev.cache_misses);
        let warm_d = now.warm_hits.saturating_sub(self.prev.warm_hits);
        let lowrank_d = now.lowrank_hits.saturating_sub(self.prev.lowrank_hits);
        let lookups = hits_d + misses_d;
        let hit_rate = if lookups == 0 {
            0.0
        } else {
            hits_d as f64 / lookups as f64
        };
        let routed = warm_d + lowrank_d;
        let warm_frac = if routed == 0 {
            1.0
        } else {
            warm_d as f64 / routed as f64
        };
        let array_update_fraction = (1.0 - hit_rate) + hit_rate * warm_frac;

        let mut shapes = Vec::new();
        for (&(rows, cols), totals) in &now.shapes {
            let prev = self.prev.shapes.get(&(rows, cols));
            let delta =
                |pick: fn(&ShapeTotals) -> u64| pick(totals).saturating_sub(prev.map_or(0, pick));
            let decompose_d = delta(|t| t.completed[0]);
            let update_d = delta(|t| t.completed[2]);
            let weight = decompose_d as f64 + update_d as f64 * array_update_fraction;
            if weight <= 0.0 {
                continue;
            }
            let fill_sum = delta(|t| t.batch_fill_sum);
            let fill_count = delta(|t| t.batch_fill_count);
            let mut batch_fill = if fill_count == 0 {
                1.0
            } else {
                (fill_sum as f64 / fill_count as f64).max(1.0)
            };
            // Shape-classed scheduling makes batch size a policy output,
            // not just an arrival artifact: the per-class batcher fills
            // PLIO-critical shapes to the packed-stripe capacity. Plan
            // for that steady state rather than the startup transient —
            // floor the observed fill at the stripe capacity the current
            // plan could co-schedule (capped by the configured batch).
            if inner.config.shape_classed && inner.config.array_packing {
                let p_eng = inner.live_plan.lock().engine_parallelism;
                let capacity = inner
                    .config
                    .packed_tenants_at((rows, cols), usize::MAX, p_eng);
                if capacity >= 2 {
                    batch_fill = batch_fill.max(capacity.min(inner.config.max_batch) as f64);
                }
            }
            shapes.push(ObservedShape {
                rows,
                cols,
                weight,
                batch_fill,
            });
        }
        if shapes.is_empty() {
            return None;
        }
        shapes.sort_by_key(|s| (s.rows, s.cols));
        let packed_req_d = now
            .packed_requests
            .saturating_sub(self.prev.packed_requests);
        let packed_batch_d = now.packed_batches.saturating_sub(self.prev.packed_batches);
        // 0.0 = no packed waves observed yet: leave the packing credit
        // uncapped so the sweep can discover packing gains the current
        // plan's stripe capacity forbids.
        let observed_wave_width = if packed_batch_d == 0 {
            0.0
        } else {
            packed_req_d as f64 / packed_batch_d as f64
        };
        Some(WorkloadMix {
            shapes,
            iterations: self.base.iterations,
            array_packing: inner.config.array_packing,
            observed_wave_width,
        })
    }

    fn tick(&mut self, inner: &Inner) {
        let now = Self::sample(inner);
        // Post-swap cooldown: let the windows refill under the new plan
        // before re-scoring (the sample still advances so the next
        // scored tick diffs post-swap traffic only).
        if let Some(last) = self.last_swap {
            if last.elapsed() < inner.config.autoscale_cooldown {
                self.prev = now;
                return;
            }
        }
        let Some(mix) = self.observe(inner, &now) else {
            self.prev = now;
            return;
        };
        self.prev = now;

        let searches_before = self.search.searches;
        let result = self.search.research(&self.base, &mix);
        if self.search.searches > searches_before {
            inner.metrics.record_dse_run();
        }
        let Some(best) = result.best() else { return };

        let plan = *inner.live_plan.lock();
        if (best.engine_parallelism, best.task_parallelism)
            == (plan.engine_parallelism, plan.task_parallelism)
        {
            return;
        }
        // Improvement gate: the candidate must beat the current plan's
        // mix score by the configured fraction. A current plan that
        // cannot serve the observed mix at all (no score) always loses.
        let current = result.score_of(plan.engine_parallelism, plan.task_parallelism);
        let improves = match current {
            Some(score) => {
                best.weighted_throughput > score * (1.0 + inner.config.autoscale_improvement)
            }
            None => true,
        };
        if !improves {
            return;
        }
        // Dwell gate: stay on the current plan at least min_dwell.
        let dwelled = self.last_swap.unwrap_or(self.started).elapsed();
        if dwelled < inner.config.autoscale_min_dwell {
            return;
        }
        // Prewarm the winning plan for every observed shape in the
        // shared probe-once plan cache, so no in-band request pays the
        // plan build after the swap. Any prewarm failure vetoes the
        // swap (the DSE claimed feasibility; disagreeing means the
        // analytic model and the builder diverged — stay put).
        for shape in &mix.shapes {
            let Ok(config) = inner.config.accelerator_config_at(
                (shape.rows, shape.cols),
                best.engine_parallelism,
                best.task_parallelism,
            ) else {
                return;
            };
            if heterosvd::plan_cache::global().prewarm(&config).is_err() {
                return;
            }
        }
        // Commit: bump the generation and publish. Replicas read the
        // plan once per batch, so in-flight batches drain under the old
        // plan and everything after executes under the new one.
        {
            let mut live = inner.live_plan.lock();
            *live = PlanInfo {
                engine_parallelism: best.engine_parallelism,
                task_parallelism: best.task_parallelism,
                generation: live.generation + 1,
            };
        }
        inner.metrics.record_plan_swap();
        self.last_swap = Some(Instant::now());
    }
}
