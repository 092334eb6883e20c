//! Aggregated metrics export: one serializable report combining the
//! counter/percentile snapshot, per-shape accelerator resource
//! utilization, and the span-journal summary, renderable as JSON or
//! Prometheus text exposition.

use crate::metrics::{ClassSnapshot, MetricsSnapshot, TypeSnapshot};
use factor_store::FactorStoreStats;
use heterosvd::obs::{JournalSummary, UtilizationReport};
use heterosvd::{CacheStats, FactorCacheStats};
use serde::Serialize;
use std::fmt::Write as _;

/// Resource utilization aggregated over every batch of one request
/// shape (rows x cols) served so far.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ShapeUtilization {
    /// Request rows.
    pub rows: usize,
    /// Request cols.
    pub cols: usize,
    /// Per-resource busy fractions and the critical resource, merged
    /// across all completed runs of this shape.
    pub report: UtilizationReport,
}

/// Hit/miss/eviction counters of the caches and the factor store the
/// serving path leans on. The plan and apply-profile caches are
/// process-global; the factor store belongs to the service.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CacheReport {
    /// The global execution-plan cache (decompose path).
    pub plan: CacheStats,
    /// The global apply-profile cache (one timing probe per shape,
    /// replayed for every steady-state apply).
    pub apply_profiles: CacheStats,
    /// The service's factor store (publishes, lookup hits/misses,
    /// evictions, resident bytes).
    pub factor_store: FactorStoreStats,
    /// The service's per-client factor cache backing incremental
    /// updates (hits/misses/evictions, resident and per-client bytes,
    /// windowed hit rate).
    pub factor_cache: FactorCacheStats,
}

/// One exportable observability capture of the whole service: the
/// metrics snapshot, per-shape resource utilization, cache/store
/// counters, and the global span-journal summary.
///
/// Produced by [`crate::SvdService::metrics_report`] and rendered by
/// [`MetricsReport::to_json`] / [`MetricsReport::to_prometheus`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MetricsReport {
    /// Counters, gauges, and latency percentiles.
    pub snapshot: MetricsSnapshot,
    /// Resource utilization per served request shape, sorted by
    /// (rows, cols). Empty when observability is disabled or nothing
    /// has completed yet.
    pub utilization: Vec<ShapeUtilization>,
    /// Plan-cache, apply-profile-cache, and factor-store counters.
    pub caches: CacheReport,
    /// Per-stage span summary from the global journal.
    pub journal: JournalSummary,
}

impl MetricsReport {
    /// Renders the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("MetricsReport serializes infallibly")
    }

    /// Renders the report in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP`/`# TYPE` headers, one sample per line,
    /// labels for quantiles, span stages, and per-shape resources.
    pub fn to_prometheus(&self) -> String {
        fn counter(out: &mut String, name: &str, help: &str, value: u64) {
            let _ = writeln!(out, "# HELP hsvd_{name} {help}");
            let _ = writeln!(out, "# TYPE hsvd_{name} counter");
            let _ = writeln!(out, "hsvd_{name} {value}");
        }
        fn gauge(out: &mut String, name: &str, help: &str, value: f64) {
            let _ = writeln!(out, "# HELP hsvd_{name} {help}");
            let _ = writeln!(out, "# TYPE hsvd_{name} gauge");
            let _ = writeln!(out, "hsvd_{name} {value}");
        }
        let mut buf = String::new();
        let out = &mut buf;
        let s = &self.snapshot;
        counter(out, "submitted_total", "Requests admitted.", s.submitted);
        counter(
            out,
            "rejected_queue_full_total",
            "Submissions rejected by backpressure.",
            s.rejected_queue_full,
        );
        counter(
            out,
            "rejected_invalid_total",
            "Submissions rejected for shape/validation reasons.",
            s.rejected_invalid,
        );
        counter(
            out,
            "completed_ok_total",
            "Requests completed successfully.",
            s.completed_ok,
        );
        counter(
            out,
            "failed_total",
            "Requests that ended in an error.",
            s.failed,
        );
        counter(
            out,
            "cancelled_total",
            "Requests cancelled before execution.",
            s.cancelled,
        );
        counter(
            out,
            "worker_panics_total",
            "Replica panics contained by the service.",
            s.worker_panics,
        );
        counter(
            out,
            "replicas_spawned_total",
            "Replicas spawned over the service lifetime.",
            s.replicas_spawned,
        );
        counter(
            out,
            "batches_dispatched_total",
            "Batches replicas executed.",
            s.batches_dispatched,
        );
        counter(
            out,
            "packed_batches_total",
            "Batches executed as packed multi-tenant waves.",
            s.packed_batches,
        );
        counter(
            out,
            "packed_requests_total",
            "Requests served inside packed waves.",
            s.packed_requests,
        );
        counter(
            out,
            "warm_start_hits_total",
            "Update requests served via the warm-start route.",
            s.warm_start_hits,
        );
        counter(
            out,
            "lowrank_hits_total",
            "Update requests served via the host-only low-rank fast path.",
            s.lowrank_hits,
        );
        counter(
            out,
            "staleness_fallbacks_total",
            "Update requests that classified stale and recomputed in full.",
            s.staleness_fallbacks,
        );
        let _ = writeln!(
            out,
            "# HELP hsvd_timed_out_total Deadline expiries by drop point."
        );
        let _ = writeln!(out, "# TYPE hsvd_timed_out_total counter");
        let _ = writeln!(
            out,
            "hsvd_timed_out_total{{point=\"batcher\"}} {}",
            s.timed_out_at_batcher
        );
        let _ = writeln!(
            out,
            "hsvd_timed_out_total{{point=\"exec\"}} {}",
            s.timed_out_at_exec
        );
        gauge(
            out,
            "replicas_live",
            "Replicas currently alive.",
            s.replicas_live as f64,
        );
        gauge(
            out,
            "queue_depth",
            "Admission queue depth.",
            s.queue_depth as f64,
        );
        gauge(
            out,
            "mean_batch_size",
            "Mean executed batch size over the sample window.",
            s.mean_batch_size,
        );
        gauge(
            out,
            "throughput_rps",
            "Completed requests per second since start (lifetime).",
            s.throughput_rps,
        );
        gauge(
            out,
            "throughput_rps_window",
            "Completed requests per second since the previous snapshot.",
            s.throughput_rps_window,
        );

        // Autoscale controller: plan swaps, DSE runs, the live plan.
        counter(
            out,
            "plan_swaps_total",
            "Plan swaps committed by the autoscale controller.",
            s.plan_swaps,
        );
        counter(
            out,
            "dse_runs_total",
            "Workload-mix DSE sweeps the controller actually ran.",
            s.dse_runs,
        );
        let _ = writeln!(
            out,
            "# HELP hsvd_current_plan The plan replicas currently execute under."
        );
        let _ = writeln!(out, "# TYPE hsvd_current_plan gauge");
        for (param, value) in [
            (
                "engine_parallelism",
                s.current_plan.engine_parallelism as u64,
            ),
            ("task_parallelism", s.current_plan.task_parallelism as u64),
            ("generation", s.current_plan.generation),
        ] {
            let _ = writeln!(out, "hsvd_current_plan{{param=\"{param}\"}} {value}");
        }

        // Per-shape windowed series (decompose/update traffic only;
        // apply requests carry no matrix shape).
        let _ = writeln!(
            out,
            "# HELP hsvd_completed_by_shape_total Completions per matrix shape by request type."
        );
        let _ = writeln!(out, "# TYPE hsvd_completed_by_shape_total counter");
        for sh in &s.per_shape {
            for (label, v) in [
                ("decompose", sh.completed_decompose),
                ("apply", sh.completed_apply),
                ("update", sh.completed_update),
            ] {
                let _ = writeln!(
                    out,
                    "hsvd_completed_by_shape_total{{shape=\"{}x{}\",type=\"{label}\"}} {v}",
                    sh.rows, sh.cols
                );
            }
        }
        let _ = writeln!(
            out,
            "# HELP hsvd_throughput_rps_window_by_shape Windowed completion rate per matrix shape."
        );
        let _ = writeln!(out, "# TYPE hsvd_throughput_rps_window_by_shape gauge");
        for sh in &s.per_shape {
            let _ = writeln!(
                out,
                "hsvd_throughput_rps_window_by_shape{{shape=\"{}x{}\"}} {}",
                sh.rows, sh.cols, sh.throughput_rps_window
            );
        }
        let _ = writeln!(
            out,
            "# HELP hsvd_mean_batch_fill_by_shape Mean executed batch size per matrix shape."
        );
        let _ = writeln!(out, "# TYPE hsvd_mean_batch_fill_by_shape gauge");
        for sh in &s.per_shape {
            let _ = writeln!(
                out,
                "hsvd_mean_batch_fill_by_shape{{shape=\"{}x{}\"}} {}",
                sh.rows, sh.cols, sh.mean_batch_fill
            );
        }
        let _ = writeln!(
            out,
            "# HELP hsvd_sim_exec_ps_by_shape Modeled execution time per matrix shape (picoseconds)."
        );
        let _ = writeln!(out, "# TYPE hsvd_sim_exec_ps_by_shape summary");
        for sh in &s.per_shape {
            let p = &sh.sim_exec_ps;
            for (q, v) in [("0.5", p.p50), ("0.95", p.p95), ("0.99", p.p99)] {
                let _ = writeln!(
                    out,
                    "hsvd_sim_exec_ps_by_shape{{shape=\"{}x{}\",quantile=\"{q}\"}} {v}",
                    sh.rows, sh.cols
                );
            }
            let _ = writeln!(
                out,
                "hsvd_sim_exec_ps_by_shape_max{{shape=\"{}x{}\"}} {}",
                sh.rows, sh.cols, p.max
            );
        }

        // Per-request-type split: the same counters with a type label.
        let per_type: [(&str, &TypeSnapshot); 3] = [
            ("decompose", &s.per_type.decompose),
            ("apply", &s.per_type.apply),
            ("update", &s.per_type.update),
        ];
        for (name, help, pick) in [
            (
                "submitted_by_type_total",
                "Requests admitted, by request type.",
                (|t: &TypeSnapshot| t.submitted) as fn(&TypeSnapshot) -> u64,
            ),
            (
                "completed_ok_by_type_total",
                "Requests completed successfully, by request type.",
                |t| t.completed_ok,
            ),
            (
                "timed_out_at_batcher_by_type_total",
                "Deadline expiries at batch formation, by request type.",
                |t| t.timed_out_at_batcher,
            ),
            (
                "timed_out_at_exec_by_type_total",
                "Deadline expiries at replica-exec start, by request type.",
                |t| t.timed_out_at_exec,
            ),
            (
                "cancelled_by_type_total",
                "Requests cancelled before execution, by request type.",
                |t| t.cancelled,
            ),
        ] {
            let _ = writeln!(out, "# HELP hsvd_{name} {help}");
            let _ = writeln!(out, "# TYPE hsvd_{name} counter");
            for (label, t) in per_type {
                let _ = writeln!(out, "hsvd_{name}{{type=\"{label}\"}} {}", pick(t));
            }
        }
        let _ = writeln!(
            out,
            "# HELP hsvd_throughput_rps_window_by_type Windowed completion rate by request type."
        );
        let _ = writeln!(out, "# TYPE hsvd_throughput_rps_window_by_type gauge");
        for (label, t) in per_type {
            let _ = writeln!(
                out,
                "hsvd_throughput_rps_window_by_type{{type=\"{label}\"}} {}",
                t.throughput_rps_window
            );
        }
        for (name, help, pick) in [
            (
                "queue_wait_us_by_type",
                "Queue wait by request type (microseconds).",
                (|t: &TypeSnapshot| t.queue_wait_us) as fn(&TypeSnapshot) -> crate::Percentiles,
            ),
            (
                "sim_exec_ps_by_type",
                "Modeled execution time by request type (picoseconds).",
                |t| t.sim_exec_ps,
            ),
        ] {
            let _ = writeln!(out, "# HELP hsvd_{name} {help}");
            let _ = writeln!(out, "# TYPE hsvd_{name} summary");
            for (label, t) in per_type {
                let p = pick(t);
                for (q, v) in [("0.5", p.p50), ("0.95", p.p95), ("0.99", p.p99)] {
                    let _ = writeln!(out, "hsvd_{name}{{type=\"{label}\",quantile=\"{q}\"}} {v}");
                }
                let _ = writeln!(out, "hsvd_{name}_max{{type=\"{label}\"}} {}", p.max);
            }
        }

        // Per-SLO-class split (shape-classed scheduling) and the
        // scheduler's own counters. All-zero in shape-blind mode.
        let per_class: [(&str, &ClassSnapshot); 3] = [
            ("interactive", &s.per_class.interactive),
            ("standard", &s.per_class.standard),
            ("batch", &s.per_class.batch),
        ];
        for (name, help, pick) in [
            (
                "submitted_by_class_total",
                "Requests admitted, by SLO class.",
                (|c: &ClassSnapshot| c.submitted) as fn(&ClassSnapshot) -> u64,
            ),
            (
                "completed_ok_by_class_total",
                "Requests completed successfully, by SLO class.",
                |c| c.completed_ok,
            ),
            (
                "shed_by_class_total",
                "Requests refused or evicted by the overload policy, by SLO class.",
                |c| c.shed,
            ),
        ] {
            let _ = writeln!(out, "# HELP hsvd_{name} {help}");
            let _ = writeln!(out, "# TYPE hsvd_{name} counter");
            for (label, c) in per_class {
                let _ = writeln!(out, "hsvd_{name}{{class=\"{label}\"}} {}", pick(c));
            }
        }
        let _ = writeln!(
            out,
            "# HELP hsvd_wall_us_by_class End-to-end wall latency by SLO class (microseconds)."
        );
        let _ = writeln!(out, "# TYPE hsvd_wall_us_by_class summary");
        for (label, c) in per_class {
            let p = &c.wall_us;
            for (q, v) in [("0.5", p.p50), ("0.95", p.p95), ("0.99", p.p99)] {
                let _ = writeln!(
                    out,
                    "hsvd_wall_us_by_class{{class=\"{label}\",quantile=\"{q}\"}} {v}"
                );
            }
            let _ = writeln!(
                out,
                "hsvd_wall_us_by_class_max{{class=\"{label}\"}} {}",
                p.max
            );
        }
        counter(
            out,
            "shed_total",
            "Requests refused or evicted by the overload policy.",
            s.shed,
        );
        counter(
            out,
            "evicted_total",
            "Admitted requests evicted from a full queue by the overload policy.",
            s.evicted,
        );
        gauge(
            out,
            "shed_level",
            "Current load-shedding tier (0 none, 1 batch, 2 batch+standard).",
            s.shed_level as f64,
        );

        // Plan/profile-cache and factor-store counters.
        for (prefix, stats) in [
            ("plan_cache", &self.caches.plan),
            ("apply_profile_cache", &self.caches.apply_profiles),
        ] {
            counter(
                out,
                &format!("{prefix}_hits_total"),
                "Cache lookups served from a resident entry.",
                stats.hits,
            );
            counter(
                out,
                &format!("{prefix}_misses_total"),
                "Cache lookups that built/probed a new entry.",
                stats.misses,
            );
            counter(
                out,
                &format!("{prefix}_evictions_total"),
                "Entries evicted by the LRU policy.",
                stats.evictions,
            );
            gauge(
                out,
                &format!("{prefix}_resident"),
                "Entries currently resident.",
                stats.resident as f64,
            );
        }
        let fs = &self.caches.factor_store;
        counter(
            out,
            "factor_store_hits_total",
            "Factor lookups that found a resident version.",
            fs.hits,
        );
        counter(
            out,
            "factor_store_misses_total",
            "Factor lookups for models with no resident version.",
            fs.misses,
        );
        counter(
            out,
            "factor_store_evictions_total",
            "Factor versions evicted by the byte-budget LRU policy.",
            fs.evictions,
        );
        counter(
            out,
            "factor_store_publishes_total",
            "Factor versions published.",
            fs.publishes,
        );
        gauge(
            out,
            "factor_store_resident_bytes",
            "Bytes of resident truncated factors.",
            fs.resident_bytes as f64,
        );
        gauge(
            out,
            "factor_store_resident_models",
            "Models with a resident factor version.",
            fs.resident_models as f64,
        );
        gauge(
            out,
            "factor_store_hit_rate_window",
            "Factor-store hit fraction since the previous stats capture.",
            fs.hit_rate_window,
        );
        let fc = &self.caches.factor_cache;
        counter(
            out,
            "factor_cache_hits_total",
            "Update cache lookups that found the client's entry.",
            fc.hits,
        );
        counter(
            out,
            "factor_cache_misses_total",
            "Update cache lookups for clients with no resident entry.",
            fc.misses,
        );
        counter(
            out,
            "factor_cache_evictions_total",
            "Client entries evicted by the byte-budget LRU policy.",
            fc.evictions,
        );
        counter(
            out,
            "factor_cache_publishes_total",
            "Client entries published (refreshed factors).",
            fc.publishes,
        );
        gauge(
            out,
            "factor_cache_resident_bytes",
            "Bytes of resident per-client update state.",
            fc.resident_bytes as f64,
        );
        gauge(
            out,
            "factor_cache_resident_clients",
            "Clients with a resident cache entry.",
            fc.resident_clients as f64,
        );
        gauge(
            out,
            "factor_cache_hit_rate_window",
            "Factor-cache hit fraction since the previous stats capture.",
            fc.hit_rate_window,
        );
        let _ = writeln!(
            out,
            "# HELP hsvd_factor_cache_client_bytes Resident bytes per cached client."
        );
        let _ = writeln!(out, "# TYPE hsvd_factor_cache_client_bytes gauge");
        for cb in &fc.clients {
            let _ = writeln!(
                out,
                "hsvd_factor_cache_client_bytes{{client=\"{}\"}} {}",
                cb.client, cb.bytes
            );
        }

        for (name, help, p) in [
            (
                "queue_wait_us",
                "Queue wait (microseconds).",
                &s.queue_wait_us,
            ),
            (
                "batch_linger_us",
                "Batch linger (microseconds).",
                &s.batch_linger_us,
            ),
            (
                "sim_exec_ps",
                "Simulated Eq. (14) execution time (picoseconds).",
                &s.sim_exec_ps,
            ),
        ] {
            let _ = writeln!(out, "# HELP hsvd_{name} {help}");
            let _ = writeln!(out, "# TYPE hsvd_{name} summary");
            for (q, v) in [("0.5", p.p50), ("0.95", p.p95), ("0.99", p.p99)] {
                let _ = writeln!(out, "hsvd_{name}{{quantile=\"{q}\"}} {v}");
            }
            let _ = writeln!(out, "hsvd_{name}_max {}", p.max);
        }

        let _ = writeln!(
            out,
            "# HELP hsvd_stage_spans_total Spans recorded per stage."
        );
        let _ = writeln!(out, "# TYPE hsvd_stage_spans_total counter");
        for st in &self.journal.stages {
            let _ = writeln!(
                out,
                "hsvd_stage_spans_total{{stage=\"{}\"}} {}",
                st.stage, st.count
            );
        }
        let _ = writeln!(
            out,
            "# HELP hsvd_stage_wall_us_total Wall-clock microseconds spent per stage."
        );
        let _ = writeln!(out, "# TYPE hsvd_stage_wall_us_total counter");
        for st in &self.journal.stages {
            let _ = writeln!(
                out,
                "hsvd_stage_wall_us_total{{stage=\"{}\"}} {}",
                st.stage, st.wall_us_total
            );
        }
        let _ = writeln!(
            out,
            "# HELP hsvd_stage_modeled_ps_total Modeled picoseconds accumulated per stage."
        );
        let _ = writeln!(out, "# TYPE hsvd_stage_modeled_ps_total counter");
        for st in &self.journal.stages {
            let _ = writeln!(
                out,
                "hsvd_stage_modeled_ps_total{{stage=\"{}\"}} {}",
                st.stage, st.modeled_ps_total
            );
        }
        let _ = writeln!(
            out,
            "# HELP hsvd_spans_sampled_out_total Span records dropped by sampling."
        );
        let _ = writeln!(out, "# TYPE hsvd_spans_sampled_out_total counter");
        let _ = writeln!(
            out,
            "hsvd_spans_sampled_out_total {}",
            self.journal.sampled_out
        );

        let _ = writeln!(
            out,
            "# HELP hsvd_resource_busy_fraction Busy fraction per resource class per shape."
        );
        let _ = writeln!(out, "# TYPE hsvd_resource_busy_fraction gauge");
        for shape in &self.utilization {
            for r in &shape.report.resources {
                let _ = writeln!(
                    out,
                    "hsvd_resource_busy_fraction{{shape=\"{}x{}\",resource=\"{}\"}} {}",
                    shape.rows,
                    shape.cols,
                    r.kind.name(),
                    r.busy_fraction
                );
            }
        }
        let _ = writeln!(
            out,
            "# HELP hsvd_resource_ops_total Operations per resource class per shape."
        );
        let _ = writeln!(out, "# TYPE hsvd_resource_ops_total counter");
        for shape in &self.utilization {
            for r in &shape.report.resources {
                let _ = writeln!(
                    out,
                    "hsvd_resource_ops_total{{shape=\"{}x{}\",resource=\"{}\"}} {}",
                    shape.rows,
                    shape.cols,
                    r.kind.name(),
                    r.ops
                );
            }
        }
        let _ = writeln!(
            out,
            "# HELP hsvd_critical_resource The busiest resource class per shape (value always 1)."
        );
        let _ = writeln!(out, "# TYPE hsvd_critical_resource gauge");
        for shape in &self.utilization {
            let _ = writeln!(
                out,
                "hsvd_critical_resource{{shape=\"{}x{}\",resource=\"{}\"}} 1",
                shape.rows,
                shape.cols,
                shape.report.critical.name()
            );
        }
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Metrics, Outcome};
    use crate::request::{LatencyRecord, PlanInfo, RequestType, SloClass};
    use aie_sim::{SimStats, TimePs};
    use heterosvd::obs::{ResourceCounts, UtilizationReport};
    use std::time::Duration;

    fn sample_report() -> MetricsReport {
        let metrics = Metrics::new();
        metrics.record_plan_swap();
        metrics.record_dse_run();
        metrics.record_outcome(RequestType::Apply, SloClass::Standard, Outcome::Cancelled);
        // One door refusal (Batch) and one eviction (Standard): both shed.
        metrics.record_shed(SloClass::Batch);
        metrics.record_outcome(RequestType::Apply, SloClass::Standard, Outcome::Evicted);
        metrics.record_outcome(
            RequestType::Decompose,
            SloClass::Standard,
            Outcome::Completed,
        );
        metrics.record_latency(
            &LatencyRecord {
                queue_wait: Duration::from_micros(1),
                batch_linger: Duration::ZERO,
                sim_exec_ps: 5_000,
                batch_size: 2,
                wall_total: Duration::from_micros(2),
                plan: PlanInfo {
                    engine_parallelism: 8,
                    task_parallelism: 3,
                    generation: 1,
                },
            },
            RequestType::Decompose,
            Some((64, 64)),
            SloClass::Standard,
        );
        let snapshot = MetricsSnapshot {
            current_plan: PlanInfo {
                engine_parallelism: 8,
                task_parallelism: 3,
                generation: 1,
            },
            shed_level: 1,
            ..metrics.snapshot(0, 2)
        };
        let stats = SimStats {
            orth_invocations: 8,
            norm_invocations: 4,
            dma_transfers: 6,
            plio_transfers: 16,
            ddr_transfers: 3,
            elapsed: TimePs(1_000),
            orth_busy: TimePs(900),
            dma_busy: TimePs(200),
            ddr_busy: TimePs(100),
            ..SimStats::default()
        };
        let report = UtilizationReport::from_stats(
            &stats,
            ResourceCounts {
                plio_ports: 4,
                aie_cores: 4,
                dma_channels: 4,
                ddr_controllers: 1,
            },
        );
        MetricsReport {
            snapshot,
            utilization: vec![ShapeUtilization {
                rows: 256,
                cols: 256,
                report,
            }],
            caches: CacheReport {
                plan: CacheStats {
                    hits: 10,
                    misses: 2,
                    evictions: 1,
                    resident: 1,
                    capacity: 32,
                },
                apply_profiles: CacheStats::default(),
                factor_store: FactorStoreStats {
                    hits: 40,
                    misses: 1,
                    evictions: 0,
                    publishes: 2,
                    resident_bytes: 4096,
                    resident_models: 2,
                    byte_budget: 1 << 20,
                    hit_rate_window: 0.975,
                },
                factor_cache: FactorCacheStats {
                    hits: 12,
                    misses: 3,
                    evictions: 1,
                    publishes: 5,
                    resident_bytes: 8192,
                    resident_clients: 2,
                    byte_budget: 2 << 20,
                    hit_rate_window: 0.8,
                    clients: vec![
                        heterosvd::ClientBytes {
                            client: 7,
                            bytes: 4096,
                        },
                        heterosvd::ClientBytes {
                            client: 9,
                            bytes: 4096,
                        },
                    ],
                },
            },
            journal: heterosvd::obs::SpanJournal::with_capacity(4).summary(),
        }
    }

    #[test]
    fn json_round_trips_key_fields() {
        let json = sample_report().to_json();
        assert!(json.contains("\"snapshot\""));
        assert!(json.contains("\"utilization\""));
        assert!(json.contains("\"journal\""));
        assert!(json.contains("\"critical\""));
        assert!(json.contains("\"rows\": 256"));
        assert!(json.contains("\"caches\""));
        assert!(json.contains("\"factor_store\""));
        assert!(json.contains("\"factor_cache\""));
        assert!(json.contains("\"hit_rate_window\""));
        assert!(json.contains("\"warm_start_hits\""));
        assert!(json.contains("\"per_type\""));
        assert!(json.contains("\"update\""));
        assert!(json.contains("\"per_shape\""));
        assert!(json.contains("\"current_plan\""));
        assert!(json.contains("\"plan_swaps\": 1"));
        assert!(json.contains("\"dse_runs\": 1"));
        assert!(json.contains("\"engine_parallelism\": 8"));
        // Shape-classed scheduling fields and the cancellation split.
        assert!(json.contains("\"per_class\""));
        assert!(json.contains("\"interactive\""));
        assert!(json.contains("\"wall_us\""));
        assert!(json.contains("\"cancelled\": 1"));
        assert!(json.contains("\"shed\": 2"));
        assert!(json.contains("\"evicted\": 1"));
        assert!(json.contains("\"shed_level\": 1"));
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let text = sample_report().to_prometheus();
        for line in text.lines() {
            assert!(
                line.starts_with("# ") || line.starts_with("hsvd_"),
                "unexpected exposition line: {line}"
            );
        }
        assert!(text.contains("# TYPE hsvd_submitted_total counter"));
        assert!(text.contains("hsvd_timed_out_total{point=\"batcher\"}"));
        assert!(text.contains("hsvd_queue_wait_us{quantile=\"0.95\"}"));
        assert!(text.contains("hsvd_stage_spans_total{stage=\"admit\"}"));
        assert!(text.contains("hsvd_submitted_by_type_total{type=\"apply\"}"));
        assert!(text.contains("hsvd_sim_exec_ps_by_type{type=\"decompose\",quantile=\"0.99\"}"));
        assert!(text.contains("hsvd_plan_cache_hits_total 10"));
        assert!(text.contains("hsvd_factor_store_publishes_total 2"));
        assert!(text.contains("hsvd_factor_store_resident_bytes 4096"));
        assert!(text.contains("hsvd_factor_store_hit_rate_window 0.975"));
        assert!(text.contains("hsvd_warm_start_hits_total 0"));
        assert!(text.contains("hsvd_lowrank_hits_total 0"));
        assert!(text.contains("hsvd_staleness_fallbacks_total 0"));
        assert!(text.contains("hsvd_submitted_by_type_total{type=\"update\"}"));
        assert!(text.contains("hsvd_factor_cache_hits_total 12"));
        assert!(text.contains("hsvd_factor_cache_resident_bytes 8192"));
        assert!(text.contains("hsvd_factor_cache_hit_rate_window 0.8"));
        assert!(text.contains("hsvd_factor_cache_client_bytes{client=\"7\"} 4096"));
        assert!(text.contains("hsvd_resource_busy_fraction{shape=\"256x256\",resource=\"plio\"}"));
        assert!(text.contains("hsvd_critical_resource{shape=\"256x256\""));
        assert!(text.contains("hsvd_plan_swaps_total 1"));
        assert!(text.contains("hsvd_dse_runs_total 1"));
        assert!(text.contains("hsvd_current_plan{param=\"engine_parallelism\"} 8"));
        assert!(text.contains("hsvd_current_plan{param=\"generation\"} 1"));
        assert!(
            text.contains("hsvd_completed_by_shape_total{shape=\"64x64\",type=\"decompose\"} 1")
        );
        assert!(text.contains("hsvd_throughput_rps_window_by_shape{shape=\"64x64\"}"));
        assert!(text.contains("hsvd_mean_batch_fill_by_shape{shape=\"64x64\"} 2"));
        assert!(text.contains("hsvd_sim_exec_ps_by_shape{shape=\"64x64\",quantile=\"0.99\"}"));
        assert!(text.contains("hsvd_sim_exec_ps_by_shape_max{shape=\"64x64\"} 5000"));
        // Cancellation split and the shape-classed scheduler families.
        assert!(text.contains("hsvd_cancelled_by_type_total{type=\"apply\"} 1"));
        assert!(text.contains("hsvd_cancelled_by_type_total{type=\"decompose\"} 0"));
        assert!(text.contains("hsvd_submitted_by_class_total{class=\"interactive\"}"));
        assert!(text.contains("hsvd_completed_ok_by_class_total{class=\"standard\"} 1"));
        assert!(text.contains("hsvd_shed_by_class_total{class=\"batch\"} 1"));
        assert!(text.contains("hsvd_shed_by_class_total{class=\"standard\"} 1"));
        assert!(text.contains("hsvd_wall_us_by_class{class=\"standard\",quantile=\"0.99\"}"));
        assert!(text.contains("hsvd_shed_total 2"));
        assert!(text.contains("hsvd_evicted_total 1"));
        assert!(text.contains("hsvd_shed_level 1"));
    }

    #[test]
    fn every_type_header_precedes_its_samples() {
        let text = sample_report().to_prometheus();
        let mut typed: std::collections::HashSet<String> = std::collections::HashSet::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                typed.insert(rest.split_whitespace().next().unwrap().to_string());
            } else if !line.starts_with('#') && !line.is_empty() {
                let metric = line
                    .split(['{', ' '])
                    .next()
                    .unwrap()
                    .trim_end_matches("_max");
                assert!(
                    typed.contains(metric),
                    "sample {metric} appears before its # TYPE header"
                );
            }
        }
    }
}
