//! Shared, immutable accelerator plans and their cache.
//!
//! Planning an accelerator — placing the orth-layers, deriving the
//! hardware schedule, building the calibrated timing models, and
//! analyzing every inter-layer movement — is pure: it depends only on
//! the problem shape and the architectural knobs, never on matrix
//! contents or runtime state. [`PlanHandle`] freezes all of it into one
//! immutable object that every pipeline instance borrows, and
//! [`PlanCache`] shares those objects across accelerator instances:
//! a serving pool that clones one accelerator per replica now plans
//! once instead of once per worker.
//!
//! The cache key is `(shape, fingerprint)` where the fingerprint hashes
//! exactly the config fields a plan depends on (`P_eng`, `P_task`, the
//! co-residency class, PL frequency, ordering, dataflow, device,
//! calibration). Numerical knobs (precision, iteration policy, fidelity,
//! trace recording, timing replay, adaptive sweeps) are deliberately
//! excluded — an exact and an adaptive run of the same design share one
//! plan. The
//! co-residency class *is* fingerprinted because the lazily probed
//! timing profile cached on the plan embeds contention-scaled PLIO/DDR
//! durations: a packed wave and a solo run must not share a probe.

use crate::config::HeteroSvdConfig;
use crate::placement::Placement;
use crate::routing::PlioPlan;
use crate::HeteroSvdError;
use aie_sim::dma::DmaModel;
use aie_sim::kernel::KernelCostModel;
use aie_sim::pl::PlModel;
use aie_sim::plio::PlioModel;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use svd_kernels::block::{BlockPairSchedule, BlockPartition};
use svd_orderings::movement::{classify, AccessKind, Movement};
use svd_orderings::HardwareSchedule;

/// How a column reaches its slot across one layer transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// Shared-buffer neighbor access (lock hand-off).
    Neighbor,
    /// Lateral DMA along the row's stream switch.
    Lateral,
    /// Wraparound DMA through the layer's DMA-layer tile.
    Wrap,
    /// Band-break: two DMA hops through the boundary mem-layer.
    BandBreak,
}

/// One column movement of a layer transition, pre-classified at plan
/// time so the per-pass hot loop neither allocates nor re-derives the
/// movement pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MovementStep {
    /// Destination slot in the new layer.
    pub slot: usize,
    /// Source slot in the previous layer.
    pub producer: usize,
    /// Transport class (decides cost model and channel).
    pub kind: StepKind,
}

/// An immutable, shareable accelerator plan: everything about a design
/// that is independent of the matrices it will factorize.
#[derive(Debug)]
pub struct PlanHandle {
    /// The physical placement (layer rows, bands, tile assignment).
    pub placement: Placement,
    /// The `2k−1`-layer orthogonalization schedule.
    pub schedule: HardwareSchedule,
    /// Column blocking.
    pub partition: BlockPartition,
    /// Round-robin block-pair order of one iteration.
    pub pair_schedule: BlockPairSchedule,
    /// PLIO port assignment.
    pub plio_plan: PlioPlan,
    /// Calibrated PLIO transfer model.
    pub plio: PlioModel,
    /// Calibrated DMA model.
    pub dma: DmaModel,
    /// Calibrated kernel cost model.
    pub kernels: KernelCostModel,
    /// Calibrated PL model.
    pub pl: PlModel,
    /// Pre-classified movements of each layer transition:
    /// `movement[layer - 1]` holds the steps into `layer`.
    pub movement: Vec<Vec<MovementStep>>,
    /// Lazily probed timing-replay profile (see [`crate::replay`]):
    /// `None` before the first probe, `Some(None)` when the probe found
    /// no steady state. Cached here so every run of the plan — across
    /// accelerator clones and serving replicas — probes at most once.
    timing_profile: OnceLock<Option<Arc<crate::replay::TimingProfile>>>,
}

impl PlanHandle {
    /// Plans a design: placement, schedule, models, movement analysis.
    ///
    /// # Errors
    ///
    /// [`HeteroSvdError::Infeasible`] when the placement does not fit.
    pub fn build(config: &HeteroSvdConfig) -> Result<Self, HeteroSvdError> {
        let placement = Placement::plan(config)?;
        let k = config.engine_parallelism;
        let partition =
            BlockPartition::new(config.cols, k).expect("config validation guarantees divisibility");
        let layers = placement.num_layers();

        let mut movement = Vec::with_capacity(layers.saturating_sub(1));
        for layer in 1..layers {
            let src_row = placement.row_of_layer(layer - 1);
            let dest_row = placement.row_of_layer(layer);
            let band_break = placement.is_band_break(layer - 1);
            let moves = config
                .ordering
                .transition_movements_rows(src_row, dest_row, k);
            let mut steps = Vec::with_capacity(moves.len());
            for (idx, mv) in moves.iter().enumerate() {
                let slot = idx % k;
                let producer = match mv {
                    Movement::Straight => slot,
                    Movement::Leftward => (slot + 1).min(k - 1),
                    Movement::Rightward => slot.saturating_sub(1),
                    Movement::Wraparound => k - 1,
                };
                let kind = if band_break {
                    StepKind::BandBreak
                } else {
                    match classify(*mv, dest_row, config.dataflow) {
                        AccessKind::Neighbor => StepKind::Neighbor,
                        AccessKind::Dma if *mv == Movement::Wraparound => StepKind::Wrap,
                        AccessKind::Dma => StepKind::Lateral,
                    }
                };
                steps.push(MovementStep {
                    slot,
                    producer,
                    kind,
                });
            }
            movement.push(steps);
        }

        Ok(PlanHandle {
            placement,
            schedule: HardwareSchedule::new(k, config.ordering),
            partition,
            pair_schedule: BlockPairSchedule::round_robin(partition.num_blocks()),
            plio_plan: PlioPlan::standard(),
            plio: PlioModel::new(config.calibration, config.pl_freq),
            dma: DmaModel::new(config.calibration),
            kernels: KernelCostModel::new(config.calibration),
            pl: PlModel::new(config.calibration),
            movement,
            timing_profile: OnceLock::new(),
        })
    }

    /// This plan's timing-replay profile, probing it on first use and
    /// caching the result (including a failed probe). The profile
    /// depends only on plan-relevant config fields — the same fields
    /// [`PlanKey`] fingerprints — so one probe is sound for every config
    /// that shares this plan.
    pub fn timing_profile(
        &self,
        config: &HeteroSvdConfig,
    ) -> Option<Arc<crate::replay::TimingProfile>> {
        self.timing_profile
            .get_or_init(|| crate::replay::TimingProfile::build(config, self).map(Arc::new))
            .clone()
    }
}

/// Cache key: problem shape plus a fingerprint of every plan-relevant
/// config field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    rows: usize,
    cols: usize,
    fingerprint: u64,
}

impl PlanKey {
    /// Derives the key of `config`'s plan.
    pub fn of(config: &HeteroSvdConfig) -> Self {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        config.engine_parallelism.hash(&mut h);
        config.task_parallelism.hash(&mut h);
        config.co_residency.hash(&mut h);
        config.pl_freq.mhz().to_bits().hash(&mut h);
        // Structured knobs hash via their serialized form, which the
        // vendored serde stack supports for any derived `Serialize`.
        for json in [
            serde_json::to_string(&config.ordering),
            serde_json::to_string(&config.dataflow),
            serde_json::to_string(&config.device),
            serde_json::to_string(&config.calibration),
        ] {
            json.expect("config knobs serialize infallibly")
                .hash(&mut h);
        }
        PlanKey {
            rows: config.rows,
            cols: config.cols,
            fingerprint: h.finish(),
        }
    }
}

struct CacheInner {
    /// Cached plans plus a monotonically increasing last-use stamp.
    plans: HashMap<PlanKey, (Arc<PlanHandle>, u64)>,
    /// Times each key's plan was (re)built — probe for tests asserting
    /// that replicas share rather than re-plan.
    builds: HashMap<PlanKey, u64>,
    clock: u64,
}

/// Counter snapshot of a [`PlanCache`] (exported through the serving
/// metrics report, satellite of the factor-store subsystem).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to build a plan.
    pub misses: u64,
    /// Plans dropped by the LRU policy.
    pub evictions: u64,
    /// Plans currently resident.
    pub resident: u64,
    /// The configured capacity.
    pub capacity: u64,
}

/// A small LRU cache of [`PlanHandle`]s.
pub struct PlanCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl PlanCache {
    /// Creates a cache retaining at most `capacity` plans.
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity: capacity.max(1),
            inner: Mutex::new(CacheInner {
                plans: HashMap::new(),
                builds: HashMap::new(),
                clock: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Returns the shared plan for `config`, building (and caching) it
    /// on first use. Building happens under the cache lock, so
    /// concurrent replicas of one design trigger exactly one build.
    ///
    /// # Errors
    ///
    /// Propagates [`PlanHandle::build`] failures (nothing is cached).
    pub fn get_or_build(
        &self,
        config: &HeteroSvdConfig,
    ) -> Result<Arc<PlanHandle>, HeteroSvdError> {
        let key = PlanKey::of(config);
        let mut inner = self.inner.lock().unwrap();
        inner.clock += 1;
        let stamp = inner.clock;
        if let Some((plan, last_use)) = inner.plans.get_mut(&key) {
            *last_use = stamp;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(plan));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let plan = Arc::new(PlanHandle::build(config)?);
        *inner.builds.entry(key).or_insert(0) += 1;
        if inner.plans.len() >= self.capacity {
            if let Some(oldest) = inner
                .plans
                .iter()
                .min_by_key(|(_, (_, last_use))| *last_use)
                .map(|(k, _)| *k)
            {
                inner.plans.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.plans.insert(key, (Arc::clone(&plan), stamp));
        Ok(plan)
    }

    /// Builds (or retrieves) the plan for `config` and probes its
    /// timing-replay profile up front. The online-DSE autoscaler calls
    /// this for every observed shape before hot-swapping replicas to a
    /// winning plan, so the first post-swap batch replays a cached
    /// steady-state profile instead of paying the probe inline.
    ///
    /// # Errors
    ///
    /// Propagates [`PlanHandle::build`] failures (nothing is cached).
    pub fn prewarm(&self, config: &HeteroSvdConfig) -> Result<Arc<PlanHandle>, HeteroSvdError> {
        let plan = self.get_or_build(config)?;
        if config.timing_replay {
            let _ = plan.timing_profile(config);
        }
        Ok(plan)
    }

    /// Whether `config`'s plan is already resident (no build, no LRU
    /// touch — a read-only probe for swap readiness).
    pub fn contains(&self, config: &HeteroSvdConfig) -> bool {
        let key = PlanKey::of(config);
        self.inner.lock().unwrap().plans.contains_key(&key)
    }

    /// How many plans the cache currently retains.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().plans.len()
    }

    /// `true` when no plans are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many times `config`'s plan has been built by this cache
    /// (0 = never; 1 = planned once and shared since).
    pub fn builds_for(&self, config: &HeteroSvdConfig) -> u64 {
        let key = PlanKey::of(config);
        *self.inner.lock().unwrap().builds.get(&key).unwrap_or(&0)
    }

    /// Counter snapshot for the metrics path.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident: self.len() as u64,
            capacity: self.capacity as u64,
        }
    }
}

/// Maximum plans the process-wide cache retains.
pub const GLOBAL_PLAN_CAPACITY: usize = 16;

/// The process-wide plan cache every [`crate::Accelerator`] uses.
pub fn global() -> &'static PlanCache {
    static GLOBAL: OnceLock<PlanCache> = OnceLock::new();
    GLOBAL.get_or_init(|| PlanCache::new(GLOBAL_PLAN_CAPACITY))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(n: usize, p_eng: usize) -> HeteroSvdConfig {
        HeteroSvdConfig::builder(n, n)
            .engine_parallelism(p_eng)
            .pl_freq_mhz(208.3)
            .build()
            .unwrap()
    }

    #[test]
    fn prewarm_builds_once_and_marks_residency() {
        let cache = PlanCache::new(4);
        let cfg = config(16, 2);
        assert!(!cache.contains(&cfg));
        let a = cache.prewarm(&cfg).unwrap();
        assert!(cache.contains(&cfg));
        assert_eq!(cache.builds_for(&cfg), 1);
        // Prewarming again (the autoscaler re-confirming a plan) reuses
        // the same handle and probes nothing new.
        let b = cache.prewarm(&cfg).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.builds_for(&cfg), 1);
    }

    #[test]
    fn identical_configs_share_one_plan() {
        let cache = PlanCache::new(4);
        let a = cache.get_or_build(&config(16, 2)).unwrap();
        let b = cache.get_or_build(&config(16, 2)).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.builds_for(&config(16, 2)), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn numerical_knobs_do_not_split_plans() {
        let cache = PlanCache::new(4);
        let base = config(16, 2);
        let mut tweaked = base.clone();
        tweaked.precision = 1e-3;
        tweaked.record_trace = true;
        tweaked.fixed_iterations = Some(3);
        tweaked.timing_replay = false;
        tweaked.adaptive_sweeps = !base.adaptive_sweeps;
        let a = cache.get_or_build(&base).unwrap();
        let b = cache.get_or_build(&tweaked).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn distinct_designs_get_distinct_plans() {
        let cache = PlanCache::new(8);
        let a = cache.get_or_build(&config(16, 2)).unwrap();
        let b = cache.get_or_build(&config(32, 2)).unwrap();
        let c = cache.get_or_build(&config(16, 4)).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn co_residency_classes_split_plans() {
        // The cached timing profile embeds contention-scaled durations,
        // so co-residency classes must never share a plan (and hence
        // never share a probe).
        let cache = PlanCache::new(8);
        let solo = config(16, 2);
        let mut packed = solo.clone();
        packed.co_residency = 4;
        let a = cache.get_or_build(&solo).unwrap();
        let b = cache.get_or_build(&packed).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn lru_evicts_beyond_capacity() {
        let cache = PlanCache::new(2);
        let a1 = cache.get_or_build(&config(16, 2)).unwrap();
        cache.get_or_build(&config(32, 2)).unwrap();
        // Touch the first so the second is the LRU victim.
        cache.get_or_build(&config(16, 2)).unwrap();
        cache.get_or_build(&config(48, 2)).unwrap();
        assert_eq!(cache.len(), 2);
        // First plan still shared (not rebuilt)...
        let a2 = cache.get_or_build(&config(16, 2)).unwrap();
        assert!(Arc::ptr_eq(&a1, &a2));
        assert_eq!(cache.builds_for(&config(16, 2)), 1);
        // ...while the evicted one rebuilds on next use.
        cache.get_or_build(&config(32, 2)).unwrap();
        assert_eq!(cache.builds_for(&config(32, 2)), 2);
    }

    #[test]
    fn stats_count_hits_misses_and_evictions() {
        let cache = PlanCache::new(2);
        cache.get_or_build(&config(16, 2)).unwrap(); // miss
        cache.get_or_build(&config(16, 2)).unwrap(); // hit
        cache.get_or_build(&config(32, 2)).unwrap(); // miss
        cache.get_or_build(&config(48, 2)).unwrap(); // miss + eviction
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.resident, 2);
        assert_eq!(stats.capacity, 2);
    }

    #[test]
    fn timing_profile_probes_once_and_is_shared() {
        let cfg = config(16, 2);
        let plan = PlanHandle::build(&cfg).unwrap();
        let a = plan.timing_profile(&cfg).expect("steady state");
        let b = plan.timing_profile(&cfg).expect("cached");
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn movement_table_covers_every_transition() {
        let cfg = config(24, 3);
        let plan = PlanHandle::build(&cfg).unwrap();
        assert_eq!(plan.movement.len(), plan.placement.num_layers() - 1);
        for steps in &plan.movement {
            assert_eq!(steps.len(), 2 * cfg.engine_parallelism);
            for s in steps {
                assert!(s.slot < cfg.engine_parallelism);
                assert!(s.producer < cfg.engine_parallelism);
            }
        }
    }
}
