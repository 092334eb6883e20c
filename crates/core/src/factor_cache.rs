//! Per-client incremental-SVD factor cache.
//!
//! The warm-start and low-rank update paths (see
//! [`svd_kernels::incremental`]) only pay off when the previous solve's
//! factors are still around by the time the client's next matrix
//! arrives. This module provides that residency layer for the serving
//! path:
//!
//! * **Per-client entries** — each [`FactorCacheEntry`] snapshots one
//!   client's previous matrix (the delta baseline), its recovered right
//!   basis `V` and spectrum `Σ` (the warm-start seed), the truncated
//!   factors (the Brand-update state), and how many warm solves have
//!   run since the last full recompute (the staleness counter).
//! * **LRU byte-budget eviction** — the cache charges each entry its
//!   full resident payload and evicts least-recently-used clients past
//!   the budget, reusing the clock-LRU idiom of
//!   [`crate::plan_cache::PlanCache`] / `factor_store::FactorStore`.
//!   An evicted client simply takes the full-recompute path on its next
//!   update — eviction can never serve a stale basis.
//! * **Counters** — hit / miss / eviction / publish totals plus a
//!   windowed hit rate and per-client resident bytes surface through
//!   [`FactorCache::stats`] for the metrics report.

use serde::Serialize;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use svd_kernels::{Matrix, TruncatedSvd};

/// Identifier of a client whose incremental state the cache holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct ClientId(pub u64);

impl std::fmt::Display for ClientId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "client-{}", self.0)
    }
}

/// One client's cached incremental-SVD state: everything the update
/// router needs to classify the next matrix and run the warm-start or
/// low-rank fast path. Immutable behind an `Arc` — refreshes publish a
/// replacement entry, and in-flight updates pin whatever entry they
/// admitted against even if a republish or eviction replaces it.
#[derive(Debug, Clone)]
pub struct FactorCacheEntry {
    /// Which client this state belongs to.
    pub client: ClientId,
    /// The matrix the factors below were computed from — the baseline
    /// the next update's delta is measured against.
    pub a_prev: Matrix<f32>,
    /// Right singular basis of `a_prev` (the warm-start seed).
    pub v: Matrix<f32>,
    /// Singular values of `a_prev`, descending.
    pub sigma: Vec<f32>,
    /// Truncated factors of `a_prev` (the Brand-update state).
    pub truncated: TruncatedSvd<f32>,
    /// Warm/low-rank solves since the last full recompute — compared
    /// against [`svd_kernels::StalenessBound::max_warm_solves`].
    pub warm_solves_since_full: u32,
    /// Resident payload the cache charges for this entry.
    pub bytes: usize,
}

fn matrix_bytes(a: &Matrix<f32>) -> usize {
    std::mem::size_of_val(a.as_slice())
}

impl FactorCacheEntry {
    /// Builds an entry, computing its byte charge.
    pub fn new(
        client: ClientId,
        a_prev: Matrix<f32>,
        v: Matrix<f32>,
        sigma: Vec<f32>,
        truncated: TruncatedSvd<f32>,
        warm_solves_since_full: u32,
    ) -> Self {
        let bytes = matrix_bytes(&a_prev)
            + matrix_bytes(&v)
            + sigma.len() * std::mem::size_of::<f32>()
            + truncated.approx_bytes();
        FactorCacheEntry {
            client,
            a_prev,
            v,
            sigma,
            truncated,
            warm_solves_since_full,
            bytes,
        }
    }
}

/// Resident bytes of one client (stats breakdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ClientBytes {
    /// The client.
    pub client: u64,
    /// Bytes its entry currently charges against the budget.
    pub bytes: u64,
}

/// Counter snapshot of a [`FactorCache`] (serialized into the serving
/// metrics report).
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct FactorCacheStats {
    /// Lookups that found a resident entry.
    pub hits: u64,
    /// Lookups for clients not resident (never published or evicted).
    pub misses: u64,
    /// Entries removed by the byte-budget LRU policy.
    pub evictions: u64,
    /// Entries published (first publishes and refreshes alike).
    pub publishes: u64,
    /// Bytes currently charged against the budget.
    pub resident_bytes: u64,
    /// Clients currently resident.
    pub resident_clients: u64,
    /// The configured byte budget.
    pub byte_budget: u64,
    /// Hit fraction over the window since the previous `stats()` call
    /// (0.0 when the window saw no lookups) — same windowed idiom as
    /// the serving throughput gauge.
    pub hit_rate_window: f64,
    /// Per-client resident bytes, ascending by client id.
    pub clients: Vec<ClientBytes>,
}

struct CacheInner {
    /// client id -> (entry, last-touch stamp).
    entries: HashMap<u64, (Arc<FactorCacheEntry>, u64)>,
    resident_bytes: usize,
    clock: u64,
}

/// Thread-safe per-client factor cache with LRU byte-budget eviction.
///
/// Lock discipline matches [`crate::plan_cache::PlanCache`]: one std
/// `Mutex` around the map, held only for map manipulation (entries are
/// `Arc`-shared, so gets are O(1) pointer clones).
pub struct FactorCache {
    byte_budget: usize,
    inner: Mutex<CacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    publishes: AtomicU64,
    /// (hits, lookups) at the start of the current stats window.
    window: Mutex<(u64, u64)>,
}

impl std::fmt::Debug for FactorCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FactorCache")
            .field("byte_budget", &self.byte_budget)
            .field("resident", &self.len())
            .finish()
    }
}

impl FactorCache {
    /// Creates a cache that evicts least-recently-used clients once the
    /// resident payload exceeds `byte_budget` bytes. The most recently
    /// published client is always retained, even when its entry alone
    /// exceeds the budget — a cache that cannot hold the entry it was
    /// just handed would make every update a guaranteed miss.
    pub fn new(byte_budget: usize) -> Self {
        FactorCache {
            byte_budget,
            inner: Mutex::new(CacheInner {
                entries: HashMap::new(),
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

    /// Publishes `entry` as the client's current state, replacing any
    /// previous entry (in-flight readers holding the old `Arc` keep it
    /// alive until they finish) and evicting least-recently-used
    /// *other* clients while the cache exceeds its byte budget.
    pub fn publish(&self, entry: FactorCacheEntry) -> Arc<FactorCacheEntry> {
        let client = entry.client.0;
        let bytes = entry.bytes;
        let entry = Arc::new(entry);
        let mut inner = self.inner.lock().expect("factor cache poisoned");
        inner.clock += 1;
        let stamp = inner.clock;
        if let Some((old, _)) = inner.entries.insert(client, (Arc::clone(&entry), stamp)) {
            inner.resident_bytes -= old.bytes;
        }
        inner.resident_bytes += bytes;
        self.publishes.fetch_add(1, Ordering::Relaxed);
        while inner.resident_bytes > self.byte_budget && inner.entries.len() > 1 {
            let victim = inner
                .entries
                .iter()
                .filter(|(&id, _)| id != client)
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(&id, _)| id);
            match victim {
                Some(id) => {
                    if let Some((evicted, _)) = inner.entries.remove(&id) {
                        inner.resident_bytes -= evicted.bytes;
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
                None => break,
            }
        }
        entry
    }

    /// Looks up the client's resident entry, bumping its LRU stamp.
    /// Returns `None` (a recorded miss) when the client was never
    /// published or has been evicted — the caller then takes the full
    /// recompute path, so eviction can never serve a stale basis.
    pub fn get(&self, client: ClientId) -> Option<Arc<FactorCacheEntry>> {
        let mut inner = self.inner.lock().expect("factor cache poisoned");
        inner.clock += 1;
        let stamp = inner.clock;
        match inner.entries.get_mut(&client.0) {
            Some((entry, last_used)) => {
                *last_used = stamp;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(entry))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Drops the client's entry (if resident), forcing its next update
    /// onto the full-recompute path.
    pub fn invalidate(&self, client: ClientId) {
        let mut inner = self.inner.lock().expect("factor cache poisoned");
        if let Some((evicted, _)) = inner.entries.remove(&client.0) {
            inner.resident_bytes -= evicted.bytes;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of clients currently resident.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("factor cache poisoned")
            .entries
            .len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured byte budget.
    pub fn byte_budget(&self) -> usize {
        self.byte_budget
    }

    /// Cumulative (hits, misses) without touching the windowed
    /// hit-rate state, so background readers diffing the counters on
    /// their own cadence — e.g. an autoscale controller — do not
    /// clobber the window [`stats`](Self::stats) reports to scrapes.
    pub fn lookup_totals(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Counter snapshot for the metrics path. Reading the snapshot
    /// closes the current hit-rate window and opens the next one.
    pub fn stats(&self) -> FactorCacheStats {
        let (resident_bytes, resident_clients, clients) = {
            let inner = self.inner.lock().expect("factor cache poisoned");
            let mut clients: Vec<ClientBytes> = inner
                .entries
                .iter()
                .map(|(&id, (entry, _))| ClientBytes {
                    client: id,
                    bytes: entry.bytes as u64,
                })
                .collect();
            clients.sort_by_key(|c| c.client);
            (
                inner.resident_bytes as u64,
                inner.entries.len() as u64,
                clients,
            )
        };
        let hits = self.hits.load(Ordering::Relaxed);
        let misses = self.misses.load(Ordering::Relaxed);
        let lookups = hits + misses;
        let hit_rate_window = {
            let mut window = self.window.lock().expect("factor cache poisoned");
            let (hits0, lookups0) = *window;
            *window = (hits, lookups);
            let dl = lookups.saturating_sub(lookups0);
            if dl == 0 {
                0.0
            } else {
                hits.saturating_sub(hits0) as f64 / dl as f64
            }
        };
        FactorCacheStats {
            hits,
            misses,
            evictions: self.evictions.load(Ordering::Relaxed),
            publishes: self.publishes.load(Ordering::Relaxed),
            resident_bytes,
            resident_clients,
            byte_budget: self.byte_budget as u64,
            hit_rate_window,
            clients,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svd_kernels::{hestenes_jacobi, JacobiOptions};

    fn entry(client: u64, n: usize, scale: f32, warm_solves: u32) -> FactorCacheEntry {
        let a = Matrix::from_fn(n, n, |r, c| {
            scale * (((r * 31 + c * 7 + 3) % 13) as f32 / 6.0 - 1.0)
                + if r == c { 2.0 * scale } else { 0.0 }
        });
        let svd = hestenes_jacobi(
            &a,
            &JacobiOptions {
                precision: 1e-5,
                compute_v: true,
                adaptive: false,
                ..Default::default()
            },
        )
        .unwrap();
        let v = svd.v.clone().unwrap();
        let sigma = svd.sorted_singular_values();
        let truncated = svd.truncate(&a, (n / 2).max(1)).unwrap();
        FactorCacheEntry::new(ClientId(client), a, v, sigma, truncated, warm_solves)
    }

    #[test]
    fn publish_then_get_round_trips() {
        let cache = FactorCache::new(1 << 20);
        let e = entry(7, 8, 1.0, 0);
        let bytes = e.bytes;
        let published = cache.publish(e);
        let got = cache.get(ClientId(7)).unwrap();
        assert!(Arc::ptr_eq(&published, &got));
        assert_eq!(got.warm_solves_since_full, 0);
        assert!(cache.get(ClientId(8)).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.publishes), (1, 1, 1));
        assert_eq!(stats.resident_bytes, bytes as u64);
        assert_eq!(
            stats.clients,
            vec![ClientBytes {
                client: 7,
                bytes: bytes as u64
            }]
        );
    }

    #[test]
    fn republish_replaces_and_recharges_bytes() {
        let cache = FactorCache::new(1 << 20);
        cache.publish(entry(1, 8, 1.0, 0));
        let refreshed = cache.publish(entry(1, 8, 2.0, 3));
        let got = cache.get(ClientId(1)).unwrap();
        assert!(Arc::ptr_eq(&refreshed, &got));
        assert_eq!(got.warm_solves_since_full, 3);
        let stats = cache.stats();
        assert_eq!(stats.resident_clients, 1);
        assert_eq!(stats.resident_bytes, refreshed.bytes as u64);
        assert_eq!(stats.publishes, 2);
    }

    #[test]
    fn byte_budget_evicts_lru_never_the_just_published() {
        let one = entry(0, 8, 1.0, 0).bytes;
        let cache = FactorCache::new(2 * one);
        cache.publish(entry(1, 8, 1.0, 0));
        cache.publish(entry(2, 8, 1.0, 0));
        // Touch client 1 so client 2 is the LRU victim.
        cache.get(ClientId(1)).unwrap();
        cache.publish(entry(3, 8, 1.0, 0));
        assert!(cache.get(ClientId(1)).is_some());
        assert!(cache.get(ClientId(2)).is_none(), "LRU client evicted");
        assert!(cache.get(ClientId(3)).is_some());
        assert_eq!(cache.stats().evictions, 1);
        // An entry bigger than the whole budget still publishes.
        let tight = FactorCache::new(16);
        tight.publish(entry(9, 8, 1.0, 0));
        assert!(tight.get(ClientId(9)).is_some());
    }

    #[test]
    fn eviction_forces_full_recompute_not_a_stale_basis() {
        // The staleness property at the cache level: once evicted, a
        // client's basis is unreachable — `get` returns `None` and the
        // router must take the full path. The refreshed entry then
        // restarts the warm-solve counter from zero.
        let one = entry(0, 8, 1.0, 0).bytes;
        let cache = FactorCache::new(one);
        cache.publish(entry(1, 8, 1.0, 7));
        cache.publish(entry(2, 8, 1.0, 0)); // evicts client 1
        assert!(cache.get(ClientId(1)).is_none());
        let refreshed = cache.publish(entry(1, 8, 3.0, 0));
        assert_eq!(refreshed.warm_solves_since_full, 0);
        // Invalidation is an explicit eviction with the same guarantee.
        cache.invalidate(ClientId(1));
        assert!(cache.get(ClientId(1)).is_none());
    }

    #[test]
    fn stats_window_tracks_recent_hit_rate() {
        let cache = FactorCache::new(1 << 20);
        cache.publish(entry(1, 8, 1.0, 0));
        cache.get(ClientId(1)).unwrap(); // hit
        assert!(cache.get(ClientId(2)).is_none()); // miss
        let first = cache.stats();
        assert!((first.hit_rate_window - 0.5).abs() < 1e-12);
        // The window restarts: an all-hit stretch reads 1.0 even though
        // the lifetime rate is 3/4.
        cache.get(ClientId(1)).unwrap();
        cache.get(ClientId(1)).unwrap();
        let second = cache.stats();
        assert!((second.hit_rate_window - 1.0).abs() < 1e-12);
        assert_eq!(second.hits, 3);
        assert_eq!(second.misses, 1);
        // An empty window reads 0.0, not NaN.
        assert_eq!(cache.stats().hit_rate_window, 0.0);
    }

    #[test]
    fn per_client_bytes_sum_to_resident() {
        let cache = FactorCache::new(1 << 20);
        cache.publish(entry(3, 8, 1.0, 0));
        cache.publish(entry(1, 16, 1.0, 0));
        cache.publish(entry(2, 8, 2.0, 0));
        let stats = cache.stats();
        assert_eq!(stats.clients.len(), 3);
        let ids: Vec<u64> = stats.clients.iter().map(|c| c.client).collect();
        assert_eq!(ids, vec![1, 2, 3], "ascending by client id");
        let sum: u64 = stats.clients.iter().map(|c| c.bytes).sum();
        assert_eq!(sum, stats.resident_bytes);
    }

    #[test]
    fn concurrent_gets_and_publishes_are_safe() {
        let cache = Arc::new(FactorCache::new(1 << 20));
        cache.publish(entry(0, 8, 1.0, 0));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let cache = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                for i in 0..25 {
                    if i % 5 == 0 {
                        cache.publish(entry(t, 8, 1.0 + t as f32, i as u32));
                    }
                    if let Some(e) = cache.get(ClientId(t % 2)) {
                        assert_eq!(e.client, ClientId(t % 2));
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cache.stats().publishes, 1 + 4 * 5);
    }
}
