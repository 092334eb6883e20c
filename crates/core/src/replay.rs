//! Timing-replay profiles: simulate a plan's orthogonalization timeline
//! once, then replay it with O(1) table lookups.
//!
//! The paper's clock (Eq. 8–14) is a pure function of the *design* —
//! ordering, `P_eng`, calibration — never of the matrix being
//! factorized (`timing_only_matches_functional_timing` in
//! `accelerator.rs` pins this). Every resource timeline is a max-plus
//! system: a pass's start is `max(ready, available_at)` and its end adds
//! a configuration-derived constant. Such systems reach a *steady state*
//! — once two consecutive iterations shift every piece of timing state
//! (block-ready times plus every timeline's `available_at`) by one
//! uniform `Δ`, all subsequent iterations repeat the same per-pass
//! schedule shifted by further multiples of `Δ`:
//!
//! > if `S_{i} = S_{i-1} + Δ` component-wise, then because every pass
//! > output is built from `max(·)` and `+ const` over components of the
//! > previous state, `out_{i+1} = out_i + Δ` and `S_{i+1} = S_i + Δ`.
//!
//! [`TimingProfile::build`] probes a fresh pipeline (first iteration
//! with the staggered Eq. 12 DDR block-ready times, then more until the
//! uniform shift appears), storing each probed iteration's per-pass
//! record template and the per-iteration [`SimStats`] delta. Replaying
//! iteration `i` is then a table lookup (for `i` within the probed
//! prefix) or a shift of the steady template (beyond it) — no `Timeline`
//! scheduling at all. Functional runs keep doing the rotation math;
//! timing-only runs become near-free.
//!
//! A profile is only sound for the exact initial state it was probed
//! from, so [`crate::orth_pipeline::OrthPipeline`] activates replay
//! only when its initial block-ready vector equals the profile's
//! ([`TimingProfile::initial_block_ready`]); any other start falls back
//! to live simulation. Plans whose schedule never settles into a uniform
//! shift within the probe budget simply get no profile (`build` returns
//! `None`) — correctness never depends on the probe succeeding.

use crate::config::{FidelityMode, HeteroSvdConfig};
use crate::orth_pipeline::OrthPipeline;
use crate::plan_cache::PlanHandle;
use aie_sim::ddr::DdrModel;
use aie_sim::stats::SimStats;
use aie_sim::time::TimePs;
use svd_kernels::Matrix;

/// Probe budget: iterations simulated before giving up on finding a
/// steady state. Pipelined schedules settle after the DDR stagger drains
/// (typically 2–3 iterations); the margin covers deep multi-band
/// placements.
const MAX_PROBE_ITERATIONS: usize = 12;

/// Timing of one block-pair pass within a profiled iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassTemplate {
    /// The block pair processed.
    pub blocks: (usize, usize),
    /// When the pass's Tx became eligible.
    pub ready: TimePs,
    /// When both blocks were back in the PL FIFOs.
    pub end: TimePs,
}

/// One fully profiled iteration: its completion time and every pass.
#[derive(Debug, Clone, PartialEq, Eq)]
struct IterationTemplate {
    /// Wall-clock completion time of the iteration.
    end: TimePs,
    /// Per-pass records, in schedule order.
    passes: Vec<PassTemplate>,
}

/// A plan's cached orthogonalization timeline: probed once, replayed for
/// every subsequent run of the same design.
#[derive(Debug)]
pub struct TimingProfile {
    /// The Eq. 12 staggered DDR block-ready vector the probe started
    /// from; replay is valid only for runs starting identically.
    initial_block_ready: Vec<TimePs>,
    /// Probed iterations, index = iteration. The last entry is the
    /// steady-state reference that later iterations shift from.
    prefix: Vec<IterationTemplate>,
    /// Uniform per-iteration shift once steady.
    steady_delta: TimePs,
    /// Stats counters one iteration adds (identical every iteration:
    /// the counters depend only on the schedule structure, never on
    /// times).
    iter_stats: SimStats,
}

impl TimingProfile {
    /// Probes the orthogonalization timeline of `plan` under `config`,
    /// returning `None` when no steady state appears within the probe
    /// budget (callers then keep simulating live).
    pub fn build(config: &HeteroSvdConfig, plan: &PlanHandle) -> Option<TimingProfile> {
        // One journal span covers the whole probe (its wall cost is what
        // replay amortizes away); the modeled time is the steady-state
        // per-iteration shift the probe discovered, if any.
        let span_start = config.observability.then(std::time::Instant::now);
        let built = Self::build_inner(config, plan);
        if let Some(t0) = span_start {
            crate::obs::global().record(
                crate::obs::Stage::SimReplay,
                None,
                t0.elapsed(),
                built.as_ref().map(|p| p.steady_delta),
            );
        }
        built
    }

    fn build_inner(config: &HeteroSvdConfig, plan: &PlanHandle) -> Option<TimingProfile> {
        // The probe is timing-only regardless of the caller's fidelity:
        // the clock is data-independent, so one probe serves both.
        let mut probe_cfg = config.clone();
        probe_cfg.fidelity = FidelityMode::TimingOnly;
        probe_cfg.fixed_iterations = Some(1);
        probe_cfg.record_trace = true;
        // The probe's internal iterations are an implementation detail;
        // only the single probe span above reaches the journal.
        probe_cfg.observability = false;

        let (initial, _, _) = ddr_initial_ready(&probe_cfg);
        let mut pipe = OrthPipeline::new(&probe_cfg, plan);
        pipe.set_block_ready(initial.clone());
        // Timing-only passes never touch the matrix.
        let mut dummy = Matrix::zeros(0, 0);

        let mut prefix: Vec<IterationTemplate> = Vec::new();
        let mut prev_sig: Option<Vec<TimePs>> = None;
        let mut prev_stats = SimStats::new();
        let mut iter_stats: Option<SimStats> = None;
        let mut trace_cursor = 0usize;

        for _ in 0..MAX_PROBE_ITERATIONS {
            let outcome = pipe.run_iteration(&mut dummy);

            // Per-iteration stats must be constant or replay would drift.
            let stats_delta = pipe.stats().delta_since(&prev_stats);
            prev_stats = *pipe.stats();
            match &iter_stats {
                None => iter_stats = Some(stats_delta),
                Some(first) if *first != stats_delta => return None,
                Some(_) => {}
            }

            let passes: Vec<PassTemplate> = pipe.trace()[trace_cursor..]
                .iter()
                .map(|r| PassTemplate {
                    blocks: r.blocks,
                    ready: r.ready,
                    end: r.end,
                })
                .collect();
            trace_cursor = pipe.trace().len();
            prefix.push(IterationTemplate {
                end: outcome.end,
                passes,
            });

            let sig = pipe.state_signature();
            if let Some(prev) = &prev_sig {
                if let Some(delta) = uniform_shift(prev, &sig) {
                    return Some(TimingProfile {
                        initial_block_ready: initial,
                        prefix,
                        steady_delta: delta,
                        iter_stats: iter_stats.expect("set on first iteration"),
                    });
                }
            }
            prev_sig = Some(sig);
        }
        None
    }

    /// The Eq. 12 block-ready vector this profile is valid for.
    pub fn initial_block_ready(&self) -> &[TimePs] {
        &self.initial_block_ready
    }

    /// The stats counters one replayed iteration adds.
    pub fn iter_stats(&self) -> &SimStats {
        &self.iter_stats
    }

    /// Iterations that were simulated live during the probe (later ones
    /// replay as shifts of the last).
    pub fn probed_iterations(&self) -> usize {
        self.prefix.len()
    }

    /// The template and absolute time shift for `iteration`.
    fn template_for(&self, iteration: usize) -> (&IterationTemplate, TimePs) {
        let last = self.prefix.len() - 1;
        if iteration <= last {
            (&self.prefix[iteration], TimePs::ZERO)
        } else {
            let shift = self.steady_delta.0 * (iteration - last) as u64;
            (&self.prefix[last], TimePs(shift))
        }
    }

    /// Completion time of `iteration` (0-based).
    pub fn iteration_end(&self, iteration: usize) -> TimePs {
        let (template, shift) = self.template_for(iteration);
        TimePs(template.end.0 + shift.0)
    }

    /// Visits every pass of `iteration` in schedule order with its
    /// absolute (shift-applied) timing.
    pub fn for_each_pass(&self, iteration: usize, mut f: impl FnMut(usize, PassTemplate)) {
        let (template, shift) = self.template_for(iteration);
        for (pass, p) in template.passes.iter().enumerate() {
            f(
                pass,
                PassTemplate {
                    blocks: p.blocks,
                    ready: TimePs(p.ready.0 + shift.0),
                    end: TimePs(p.end.0 + shift.0),
                },
            );
        }
    }
}

/// The serialized first-iteration DDR loads of Eq. 12: per-block ready
/// times, the total load time (`t_DDR`), and the bytes loaded. Shared by
/// the accelerator driver and the profile probe so that replay validity
/// reduces to vector equality. With `co_residency > 1` each burst is
/// contention-scaled — the co-resident tenants' loaders split the single
/// DDR controller's bandwidth — and because the probe clones the caller's
/// config, packed profiles start from the same contended stagger the
/// packed live run does, keeping replay exact per co-residency class.
pub(crate) fn ddr_initial_ready(config: &HeteroSvdConfig) -> (Vec<TimePs>, TimePs, usize) {
    let ddr = DdrModel::new(config.calibration);
    let p = config.num_blocks();
    let block_bytes = config.engine_parallelism * config.column_bytes();
    let mut ready = Vec::with_capacity(p);
    let mut t = TimePs::ZERO;
    for _ in 0..p {
        t += ddr.contended_burst_time(block_bytes, config.co_residency);
        ready.push(t);
    }
    (ready, t, p * block_bytes)
}

/// Returns the uniform positive shift between two state signatures, or
/// `None` if the shift is not uniform. Components that are zero in both
/// belong to resources the schedule never touches (e.g. band-break DMA
/// channels of a single-band placement) and are ignored.
fn uniform_shift(prev: &[TimePs], cur: &[TimePs]) -> Option<TimePs> {
    debug_assert_eq!(prev.len(), cur.len());
    let mut delta: Option<TimePs> = None;
    for (&p, &c) in prev.iter().zip(cur) {
        if p == TimePs::ZERO && c == TimePs::ZERO {
            continue;
        }
        if c < p {
            return None;
        }
        let d = TimePs(c.0 - p.0);
        match delta {
            None => delta = Some(d),
            Some(existing) if existing != d => return None,
            Some(_) => {}
        }
    }
    // A zero shift would replay a frozen clock; only a strictly
    // advancing steady state is usable.
    delta.filter(|d| *d > TimePs::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;
    use svd_orderings::movement::{DataflowKind, OrderingKind};

    fn config(n: usize, p_eng: usize) -> HeteroSvdConfig {
        HeteroSvdConfig::builder(n, n)
            .engine_parallelism(p_eng)
            .pl_freq_mhz(208.3)
            .build()
            .unwrap()
    }

    #[test]
    fn uniform_shift_detects_steady_state() {
        let prev = vec![TimePs(10), TimePs::ZERO, TimePs(30)];
        let cur = vec![TimePs(15), TimePs::ZERO, TimePs(35)];
        assert_eq!(uniform_shift(&prev, &cur), Some(TimePs(5)));
        // Non-uniform shift.
        let skew = vec![TimePs(15), TimePs::ZERO, TimePs(36)];
        assert_eq!(uniform_shift(&prev, &skew), None);
        // Zero shift is rejected.
        assert_eq!(uniform_shift(&prev, &prev), None);
        // Time going backwards is rejected.
        let back = vec![TimePs(5), TimePs::ZERO, TimePs(25)];
        assert_eq!(uniform_shift(&prev, &back), None);
    }

    #[test]
    fn profile_builds_and_matches_live_simulation() {
        let cfg = config(16, 2);
        let plan = PlanHandle::build(&cfg).unwrap();
        let profile = TimingProfile::build(&cfg, &plan).expect("steady state within probe budget");
        assert!(profile.probed_iterations() >= 2);
        assert!(profile.steady_delta > TimePs::ZERO);

        // A live timing-only pipeline started from the same Eq. 12 state
        // must agree with the profile for probed AND extrapolated
        // iterations.
        let mut live_cfg = cfg.clone();
        live_cfg.fidelity = FidelityMode::TimingOnly;
        live_cfg.fixed_iterations = Some(1);
        let (initial, _, _) = ddr_initial_ready(&live_cfg);
        let mut pipe = OrthPipeline::new(&live_cfg, &plan);
        pipe.set_block_ready(initial);
        let mut dummy = Matrix::zeros(0, 0);
        for iteration in 0..profile.probed_iterations() + 5 {
            let live = pipe.run_iteration(&mut dummy);
            assert_eq!(
                profile.iteration_end(iteration),
                live.end,
                "iteration {iteration}"
            );
        }
    }

    #[test]
    fn profile_pass_templates_match_live_trace() {
        let mut cfg = config(24, 3);
        cfg.record_trace = true;
        let plan = PlanHandle::build(&cfg).unwrap();
        let profile = TimingProfile::build(&cfg, &plan).expect("steady state");

        let mut live_cfg = cfg.clone();
        live_cfg.fidelity = FidelityMode::TimingOnly;
        live_cfg.fixed_iterations = Some(1);
        let (initial, _, _) = ddr_initial_ready(&live_cfg);
        let mut pipe = OrthPipeline::new(&live_cfg, &plan);
        pipe.set_block_ready(initial);
        let mut dummy = Matrix::zeros(0, 0);
        let total = profile.probed_iterations() + 3;
        for _ in 0..total {
            pipe.run_iteration(&mut dummy);
        }
        let live = pipe.trace();
        let passes_per_iter = cfg.num_block_pairs();
        for iteration in 0..total {
            profile.for_each_pass(iteration, |pass, p| {
                let rec = &live[iteration * passes_per_iter + pass];
                assert_eq!(p.blocks, rec.blocks, "iter {iteration} pass {pass}");
                assert_eq!(p.ready, rec.ready, "iter {iteration} pass {pass}");
                assert_eq!(p.end, rec.end, "iter {iteration} pass {pass}");
            });
        }
    }

    #[test]
    fn profiles_build_across_orderings_and_dataflows() {
        for ordering in [
            OrderingKind::ShiftingRing,
            OrderingKind::Ring,
            OrderingKind::RoundRobin,
        ] {
            for dataflow in [DataflowKind::Relocated, DataflowKind::NaiveMemory] {
                let mut cfg = config(16, 2);
                cfg.ordering = ordering;
                cfg.dataflow = dataflow;
                let plan = PlanHandle::build(&cfg).unwrap();
                assert!(
                    TimingProfile::build(&cfg, &plan).is_some(),
                    "no steady state for {ordering:?}/{dataflow:?}"
                );
            }
        }
    }

    #[test]
    fn contended_ddr_stagger_is_slower_but_still_steady() {
        let solo = config(16, 2);
        let mut packed = solo.clone();
        packed.co_residency = 4;
        let (solo_ready, solo_total, bytes) = ddr_initial_ready(&solo);
        let (packed_ready, packed_total, packed_bytes) = ddr_initial_ready(&packed);
        assert_eq!(bytes, packed_bytes, "contention never changes payload");
        assert_eq!(solo_ready.len(), packed_ready.len());
        assert!(packed_total > solo_total);
        for (s, p) in solo_ready.iter().zip(&packed_ready) {
            assert!(p > s, "every contended stagger point is later");
        }
        // The contended start state still settles into a steady state,
        // so packed waves keep O(1) replay.
        let plan = PlanHandle::build(&packed).unwrap();
        let profile = TimingProfile::build(&packed, &plan).expect("steady state under contention");
        assert_eq!(profile.initial_block_ready(), &packed_ready[..]);
    }

    #[test]
    fn iter_stats_capture_one_iteration() {
        let cfg = config(16, 2);
        let plan = PlanHandle::build(&cfg).unwrap();
        let profile = TimingProfile::build(&cfg, &plan).unwrap();
        let s = profile.iter_stats();
        assert_eq!(s.iterations, 1);
        let passes = cfg.num_block_pairs();
        assert_eq!(s.orth_invocations, passes * 2 * (2 * 2 - 1));
        assert_eq!(s.plio_bytes_in, passes * 4 * 16 * 4);
        assert_eq!(s.plio_bytes_out, s.plio_bytes_in);
    }
}
