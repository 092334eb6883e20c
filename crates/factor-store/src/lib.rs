//! Versioned, byte-budgeted store of truncated SVD factors.
//!
//! A decompose-rarely / apply-constantly serving system keeps the rank-r
//! factors (U_r, Σ_r, V_r) of each client model resident between
//! requests. This crate provides that residency layer:
//!
//! * **Versioning** — each successful decompose publishes a new immutable
//!   [`PublishedFactors`] version behind an `Arc`. Readers clone the
//!   `Arc` and never block writers; in-flight applies pin whatever
//!   version they admitted against even if a republish or eviction
//!   replaces it mid-flight.
//! * **LRU byte-budget eviction** — the store charges each model its
//!   factor payload ([`svd_kernels::TruncatedSvd::approx_bytes`]) and
//!   evicts least-recently-used models when the total exceeds the
//!   budget, mirroring the `PlanCache` idiom in `heterosvd::plan_cache`.
//! * **Accuracy metadata** — every version carries the retained-energy
//!   fraction and tail singular value of its truncation, so serving can
//!   report how lossy each model's compression is.
//! * **Counters** — hit / miss / eviction / publish totals surface
//!   through [`FactorStore::stats`] for the metrics path.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use serde::Serialize;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use svd_kernels::TruncatedSvd;

/// Identifier of a client model whose factors the store holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct ModelId(pub u64);

impl std::fmt::Display for ModelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "model-{}", self.0)
    }
}

/// Rank / accuracy metadata attached to a published factor version.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FactorMeta {
    /// Row count `m` of the decomposed matrix.
    pub rows: usize,
    /// Column count `n` of the decomposed matrix.
    pub cols: usize,
    /// Retained rank `r`.
    pub rank: usize,
    /// First discarded singular value `σ_{r+1}` (Eckart–Young spectral
    /// error of the truncation; zero at full rank).
    pub tail_sigma: f32,
    /// Fraction of squared Frobenius energy the truncation keeps.
    pub retained_energy: f64,
    /// Resident payload the store charges for this version.
    pub bytes: usize,
}

/// One immutable published version of a model's truncated factors.
#[derive(Debug, Clone, PartialEq)]
pub struct PublishedFactors {
    /// Which model this version belongs to.
    pub model: ModelId,
    /// Monotonic per-model version number, starting at 1. The counter
    /// survives eviction: re-publishing an evicted model continues the
    /// sequence rather than restarting it.
    pub version: u64,
    /// The rank-r factors served for this version.
    pub factors: TruncatedSvd<f32>,
    /// Rank / accuracy metadata of the truncation.
    pub meta: FactorMeta,
}

/// Counter snapshot of a [`FactorStore`] (serialized into the serving
/// metrics report).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct FactorStoreStats {
    /// Lookups that found a resident version.
    pub hits: u64,
    /// Lookups for models not resident (never published or evicted).
    pub misses: u64,
    /// Models removed by the byte-budget LRU policy.
    pub evictions: u64,
    /// Versions published.
    pub publishes: u64,
    /// Bytes currently charged against the budget.
    pub resident_bytes: u64,
    /// Models currently resident.
    pub resident_models: u64,
    /// The configured byte budget.
    pub byte_budget: u64,
    /// Hit fraction over the window since the previous
    /// [`FactorStore::stats`] call (0.0 when the window saw no
    /// lookups). Lifetime totals above never reset; this windowed view
    /// is what an autoscaler or dashboard should watch — the same
    /// idiom as the serving throughput gauge.
    pub hit_rate_window: f64,
}

struct StoreInner {
    /// model id -> (latest published version, last-touch stamp).
    models: HashMap<u64, (Arc<PublishedFactors>, u64)>,
    /// Next version number per model; survives eviction.
    next_version: HashMap<u64, u64>,
    resident_bytes: usize,
    clock: u64,
}

/// Thread-safe versioned store of truncated factors with LRU
/// byte-budget eviction.
///
/// Lock discipline matches `heterosvd::plan_cache::PlanCache`: one std
/// `Mutex` around the map, held only for map manipulation (factor
/// payloads are `Arc`-shared, so gets are O(1) pointer clones and
/// publishes never copy factor data under the lock).
pub struct FactorStore {
    byte_budget: usize,
    inner: Mutex<StoreInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    publishes: AtomicU64,
    /// (hits, lookups) at the start of the current stats window.
    window: Mutex<(u64, u64)>,
}

impl std::fmt::Debug for FactorStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("FactorStore")
            .field("byte_budget", &self.byte_budget)
            .field("stats", &stats)
            .finish()
    }
}

impl FactorStore {
    /// Creates a store that evicts least-recently-used models once the
    /// resident factor payload exceeds `byte_budget` bytes. The most
    /// recently published model is always retained, even when it alone
    /// exceeds the budget — a store that cannot hold the model it was
    /// just asked to serve would livelock the decompose-publish path.
    pub fn new(byte_budget: usize) -> Self {
        FactorStore {
            byte_budget,
            inner: Mutex::new(StoreInner {
                models: HashMap::new(),
                next_version: HashMap::new(),
                resident_bytes: 0,
                clock: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            publishes: AtomicU64::new(0),
            window: Mutex::new((0, 0)),
        }
    }

    /// Publishes `factors` as the next version of `model`, returning the
    /// immutable published handle. The previous version (if any) is
    /// unlinked immediately — in-flight readers holding its `Arc` keep
    /// it alive until they finish — and least-recently-used *other*
    /// models are evicted while the store exceeds its byte budget.
    pub fn publish(&self, model: ModelId, factors: TruncatedSvd<f32>) -> Arc<PublishedFactors> {
        let bytes = factors.approx_bytes();
        let meta = FactorMeta {
            rows: factors.rows(),
            cols: factors.cols(),
            rank: factors.rank(),
            tail_sigma: factors.tail_sigma,
            retained_energy: factors.retained_energy,
            bytes,
        };
        let mut inner = self.inner.lock().expect("factor store poisoned");
        let version = {
            let slot = inner.next_version.entry(model.0).or_insert(1);
            let v = *slot;
            *slot += 1;
            v
        };
        let published = Arc::new(PublishedFactors {
            model,
            version,
            factors,
            meta,
        });
        inner.clock += 1;
        let stamp = inner.clock;
        if let Some((old, _)) = inner
            .models
            .insert(model.0, (Arc::clone(&published), stamp))
        {
            inner.resident_bytes -= old.meta.bytes;
        }
        inner.resident_bytes += bytes;
        self.publishes.fetch_add(1, Ordering::Relaxed);
        while inner.resident_bytes > self.byte_budget && inner.models.len() > 1 {
            let victim = inner
                .models
                .iter()
                .filter(|(&id, _)| id != model.0)
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(&id, _)| id);
            match victim {
                Some(id) => {
                    if let Some((evicted, _)) = inner.models.remove(&id) {
                        inner.resident_bytes -= evicted.meta.bytes;
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
                None => break,
            }
        }
        published
    }

    /// Looks up the latest resident version of `model`, bumping its LRU
    /// stamp. Returns `None` (a recorded miss) when the model was never
    /// published or has been evicted.
    pub fn get(&self, model: ModelId) -> Option<Arc<PublishedFactors>> {
        let mut inner = self.inner.lock().expect("factor store poisoned");
        inner.clock += 1;
        let stamp = inner.clock;
        match inner.models.get_mut(&model.0) {
            Some((published, last_used)) => {
                *last_used = stamp;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(published))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Latest published version number of `model`, if resident.
    pub fn version_of(&self, model: ModelId) -> Option<u64> {
        let inner = self.inner.lock().expect("factor store poisoned");
        inner.models.get(&model.0).map(|(p, _)| p.version)
    }

    /// Number of models currently resident.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("factor store poisoned")
            .models
            .len()
    }

    /// Whether the store holds no models.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured byte budget.
    pub fn byte_budget(&self) -> usize {
        self.byte_budget
    }

    /// Counter snapshot for the metrics path. Reading the snapshot
    /// closes the current hit-rate window and opens the next one.
    pub fn stats(&self) -> FactorStoreStats {
        let (resident_bytes, resident_models) = {
            let inner = self.inner.lock().expect("factor store poisoned");
            (inner.resident_bytes as u64, inner.models.len() as u64)
        };
        let hits = self.hits.load(Ordering::Relaxed);
        let misses = self.misses.load(Ordering::Relaxed);
        let lookups = hits + misses;
        let hit_rate_window = {
            let mut window = self.window.lock().expect("factor store poisoned");
            let (hits0, lookups0) = *window;
            *window = (hits, lookups);
            let delta = lookups.saturating_sub(lookups0);
            if delta == 0 {
                0.0
            } else {
                hits.saturating_sub(hits0) as f64 / delta as f64
            }
        };
        FactorStoreStats {
            hits,
            misses,
            evictions: self.evictions.load(Ordering::Relaxed),
            publishes: self.publishes.load(Ordering::Relaxed),
            resident_bytes,
            resident_models,
            byte_budget: self.byte_budget as u64,
            hit_rate_window,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svd_kernels::{hestenes_jacobi, JacobiOptions, Matrix};

    fn factors(m: usize, n: usize, rank: usize, seed: u64) -> TruncatedSvd<f32> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Matrix::from_fn(m, n, |_, _| rng.gen_range(-1.0f32..1.0));
        let svd = hestenes_jacobi(
            &a,
            &JacobiOptions {
                precision: 1e-5,
                compute_v: false,
                ..Default::default()
            },
        )
        .unwrap();
        svd.truncate(&a, rank).unwrap()
    }

    #[test]
    fn publish_then_get_round_trips() {
        let store = FactorStore::new(1 << 20);
        let f = factors(8, 4, 2, 1);
        let published = store.publish(ModelId(7), f.clone());
        assert_eq!(published.version, 1);
        assert_eq!(published.meta.rank, 2);
        assert_eq!(published.meta.bytes, f.approx_bytes());
        let got = store.get(ModelId(7)).unwrap();
        assert!(Arc::ptr_eq(&published, &got));
        assert!(store.get(ModelId(8)).is_none());
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.publishes), (1, 1, 1));
        assert_eq!(stats.resident_models, 1);
        assert_eq!(stats.resident_bytes, f.approx_bytes() as u64);
    }

    #[test]
    fn republish_bumps_version_and_keeps_old_readers_alive() {
        let store = FactorStore::new(1 << 20);
        let v1 = store.publish(ModelId(1), factors(8, 4, 2, 1));
        let v2 = store.publish(ModelId(1), factors(8, 4, 3, 2));
        assert_eq!((v1.version, v2.version), (1, 2));
        // The store serves the newest version...
        assert_eq!(store.get(ModelId(1)).unwrap().version, 2);
        // ...while the pinned v1 Arc still resolves (readers never block
        // or see freed data).
        assert_eq!(v1.meta.rank, 2);
        assert_eq!(store.stats().resident_models, 1);
    }

    #[test]
    fn version_counter_survives_eviction() {
        let f = factors(8, 4, 2, 1);
        let budget = f.approx_bytes(); // exactly one model fits
        let store = FactorStore::new(budget);
        store.publish(ModelId(1), f.clone());
        store.publish(ModelId(2), factors(8, 4, 2, 2)); // evicts model 1
        assert!(store.get(ModelId(1)).is_none());
        let republished = store.publish(ModelId(1), f);
        assert_eq!(republished.version, 2, "version continues after eviction");
    }

    #[test]
    fn lru_evicts_least_recently_used_not_most() {
        let f = factors(8, 4, 2, 1);
        let budget = 2 * f.approx_bytes();
        let store = FactorStore::new(budget);
        store.publish(ModelId(1), factors(8, 4, 2, 1));
        store.publish(ModelId(2), factors(8, 4, 2, 2));
        // Touch model 1 so model 2 is the LRU.
        store.get(ModelId(1)).unwrap();
        store.publish(ModelId(3), factors(8, 4, 2, 3));
        assert!(store.get(ModelId(1)).is_some());
        assert!(store.get(ModelId(2)).is_none(), "LRU model evicted");
        assert!(store.get(ModelId(3)).is_some());
        assert_eq!(store.stats().evictions, 1);
    }

    #[test]
    fn just_published_model_is_never_evicted() {
        let f = factors(32, 16, 8, 1); // bigger than the budget below
        let store = FactorStore::new(16);
        let published = store.publish(ModelId(5), f);
        assert_eq!(store.get(ModelId(5)).unwrap().version, published.version);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn eviction_respects_byte_budget() {
        let f = factors(8, 4, 2, 1);
        let one = f.approx_bytes();
        let store = FactorStore::new(3 * one);
        for id in 0..8u64 {
            store.publish(ModelId(id), factors(8, 4, 2, id));
        }
        let stats = store.stats();
        assert!(stats.resident_bytes <= 3 * one as u64);
        assert_eq!(stats.resident_models, 3);
        assert_eq!(stats.evictions, 5);
        // The most recent publishes survive.
        assert!(store.get(ModelId(7)).is_some());
        assert!(store.get(ModelId(0)).is_none());
    }

    #[test]
    fn stats_window_tracks_recent_hit_rate() {
        let store = FactorStore::new(1 << 20);
        store.publish(ModelId(1), factors(8, 4, 2, 1));
        store.get(ModelId(1)).unwrap(); // hit
        assert!(store.get(ModelId(2)).is_none()); // miss
        let first = store.stats();
        assert!((first.hit_rate_window - 0.5).abs() < 1e-12);
        // The window restarts: an all-hit stretch reads 1.0 even though
        // the lifetime rate is 3/4.
        store.get(ModelId(1)).unwrap();
        store.get(ModelId(1)).unwrap();
        let second = store.stats();
        assert!((second.hit_rate_window - 1.0).abs() < 1e-12);
        assert_eq!((second.hits, second.misses), (3, 1));
        // An empty window reads 0.0, not NaN.
        assert_eq!(store.stats().hit_rate_window, 0.0);
    }

    #[test]
    fn concurrent_gets_and_publishes_are_safe() {
        let store = Arc::new(FactorStore::new(1 << 20));
        store.publish(ModelId(0), factors(8, 4, 2, 0));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    if i % 10 == 0 {
                        store.publish(ModelId(t), factors(8, 4, 2, t * 100 + i));
                    }
                    if let Some(p) = store.get(ModelId(t % 2)) {
                        assert!(p.version >= 1);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = store.stats();
        assert_eq!(stats.publishes, 1 + 4 * 5);
    }
}
