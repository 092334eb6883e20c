#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Analytic performance model of the HeteroSVD pipeline (§IV-B,
//! Eq. 8–14).
//!
//! The model estimates the latency and throughput of a HeteroSVD design
//! point *without* running the cycle-approximate simulator — the
//! fast-evaluation half of the automatic design optimization framework.
//! Its structure mirrors the paper's Fig. 7 decomposition:
//!
//! * **Transfer terms** (Eq. 8): the PLIO streaming time of a column and
//!   the per-port occupancy of a block-pair pass (Tx over four ports, Rx
//!   over two).
//! * **Steady-state pass interval**: the pipeline processes one block
//!   pair per interval `t_pass = max(bottleneck occupancies)` — the AIE
//!   kernel time (with the Eq. 9 AIE-wait folded in), the Tx/Rx port
//!   occupancies, and the DMA chains (wraparound tile; band-break corner
//!   chain).
//! * **Dependency terms** (Eq. 10–11): the round-robin data dependency
//!   inserts a stall at each round boundary when the pipeline fill path
//!   exceeds roughly half a round of steady passes (the `t_algo` /
//!   `t_datawait` analog).
//! * **DDR serialization** (Eq. 12) and the normalization stage.
//! * **System composition** (Eq. 14): `t_sys = ⌈B / P_task⌉ · t_task`.
//!
//! Validation: [`estimate`] tracks the `heterosvd` simulator within a few
//! percent across the Table IV/V configurations (see the `table4`
//! regenerator in `heterosvd-bench`).
//!
//! # Example
//!
//! ```
//! use perf_model::{estimate, DesignPoint};
//!
//! let point = DesignPoint {
//!     rows: 128,
//!     cols: 128,
//!     engine_parallelism: 8,
//!     task_parallelism: 1,
//!     pl_freq_mhz: 208.3,
//!     iterations: 1,
//! };
//! let est = estimate(&point);
//! assert!(est.iteration.as_millis() > 0.0);
//! ```

use aie_sim::calibration::Calibration;
use aie_sim::ddr::DdrModel;
use aie_sim::dma::DmaModel;
use aie_sim::kernel::KernelCostModel;
use aie_sim::pl::PlModel;
use aie_sim::plio::{PlioDirection, PlioModel};
use aie_sim::time::{Frequency, TimePs};
use serde::{Deserialize, Serialize};

/// Which resource bounds the steady-state pass interval — the
/// diagnostic that tells a designer *why* a configuration performs as
/// it does (the Fig. 9 discussion in machine-readable form).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Bottleneck {
    /// The orth kernel occupies each core longest (compute-bound).
    OrthKernel,
    /// The four input PLIOs limit the pass rate (ingress-bound).
    TxPorts,
    /// The two output PLIOs limit the pass rate (egress-bound).
    RxPorts,
    /// The wraparound DMA through the DMA-layer tile limits it.
    WrapDma,
    /// The band-break corner chain through the mem-layer limits it.
    BandBreakChain,
}

/// PL → AIE orth input ports per task (fixed by the routing plan).
const ORTH_IN_PORTS: usize = 4;
/// AIE → PL orth output ports per task.
const ORTH_OUT_PORTS: usize = 2;

/// Inputs to the performance model: the problem and the first-order
/// micro-architecture parameters (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DesignPoint {
    /// Matrix rows `m`.
    pub rows: usize,
    /// Matrix columns `n`.
    pub cols: usize,
    /// Engine parallelism `P_eng`.
    pub engine_parallelism: usize,
    /// Task parallelism `P_task`.
    pub task_parallelism: usize,
    /// PL clock in MHz.
    pub pl_freq_mhz: f64,
    /// Orthogonalization iterations (`ITER` in Eq. 14).
    pub iterations: usize,
}

impl DesignPoint {
    /// Number of column blocks.
    pub fn num_blocks(&self) -> usize {
        self.cols / self.engine_parallelism.max(1)
    }

    /// Block pairs per iteration (`num`).
    pub fn num_block_pairs(&self) -> usize {
        let p = self.num_blocks();
        p * p.saturating_sub(1) / 2
    }
}

/// The model's latency decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PerfEstimate {
    /// Streaming time of one column over one PLIO (Eq. 8).
    pub column_tx: TimePs,
    /// Steady-state interval between block-pair completions.
    pub pass_interval: TimePs,
    /// Pipeline fill path of one pass (Tx → layers → Rx).
    pub fill: TimePs,
    /// Stall inserted at each round-robin round boundary (Eq. 10–11
    /// analog).
    pub round_stall: TimePs,
    /// One orthogonalization iteration (`t_iter`, Eq. 13).
    pub iteration: TimePs,
    /// Serialized first-iteration DDR loads (`t_DDR`, Eq. 12).
    pub ddr: TimePs,
    /// Normalization stage (`t_norm`).
    pub norm: TimePs,
    /// Single-task latency (`t_task`, Eq. 14).
    pub task: TimePs,
    /// The resource bounding the steady-state pass rate.
    pub bottleneck: Bottleneck,
}

impl PerfEstimate {
    /// System time for a batch of `num_tasks` (Eq. 14).
    pub fn system_time(&self, num_tasks: usize, p_task: usize) -> TimePs {
        TimePs(self.task.0 * num_tasks.div_ceil(p_task.max(1)) as u64)
    }

    /// Throughput in tasks/second for a batch.
    pub fn throughput(&self, num_tasks: usize, p_task: usize) -> f64 {
        let t = self.system_time(num_tasks, p_task).as_secs();
        if t == 0.0 {
            0.0
        } else {
            num_tasks as f64 / t
        }
    }
}

/// Estimates the performance of a design point with the default
/// calibration.
pub fn estimate(point: &DesignPoint) -> PerfEstimate {
    estimate_with(point, &Calibration::DEFAULT)
}

/// [`estimate`] with an explicit calibration.
pub fn estimate_with(point: &DesignPoint, cal: &Calibration) -> PerfEstimate {
    let k = point.engine_parallelism.max(1);
    let m_bytes = point.rows * 4;
    let pl_freq = Frequency::from_mhz(point.pl_freq_mhz);
    let plio = PlioModel::new(*cal, pl_freq);
    let kernels = KernelCostModel::new(*cal);
    let dma = DmaModel::new(*cal);
    let pl = PlModel::new(*cal);
    let ddr_model = DdrModel::new(*cal);

    // The 24/32 GB/s PLIO caps are per interface group (one task's port
    // set); independent pipelines use separate interface tiles.
    let active_in = ORTH_IN_PORTS;
    let active_out = ORTH_OUT_PORTS;
    let column_tx = plio.throttled_transfer_time(m_bytes, 1, PlioDirection::ToAie, active_in);
    let column_rx = plio.throttled_transfer_time(m_bytes, 1, PlioDirection::ToPl, active_out);

    // Per-port occupancy of one pass: 2k columns over 4 in / 2 out ports.
    let tx_occ = TimePs(column_tx.0 * (2 * k).div_ceil(ORTH_IN_PORTS) as u64);
    let rx_occ = TimePs(column_rx.0 * (2 * k).div_ceil(ORTH_OUT_PORTS) as u64);

    let t_orth = kernels.orth_time(point.rows);
    // Wraparound DMA spans the band (k columns + DMA-layer tile);
    // band-break copies climb through the boundary mem-layer.
    let t_wrap = dma.transfer_time_with_hops(m_bytes, k as u64 + 1);
    let t_break = dma.transfer_time_with_hops(m_bytes, 3);
    let t_move = kernels.neighbor_handoff_time();

    // Placement geometry: layers fold into bands of rows-2 usable rows.
    let layers = 2 * k - 1;
    let usable_rows = 6; // VCK190: 8 rows minus the two boundary mem rows
    let num_bands = layers.div_ceil(usable_rows);
    let band_breaks = num_bands - 1;

    // Band-break corner chain: the last producer forwards its two columns
    // plus the wraparound through the mem-layer — 3 movements × 2 hops.
    let chain = if band_breaks > 0 && k >= 2 {
        TimePs(6 * t_break.0)
    } else {
        TimePs::ZERO
    };

    let candidates = [
        (t_orth, Bottleneck::OrthKernel),
        (tx_occ, Bottleneck::TxPorts),
        (rx_occ, Bottleneck::RxPorts),
        (t_wrap, Bottleneck::WrapDma),
        (chain, Bottleneck::BandBreakChain),
    ];
    let (pass_interval, bottleneck) = candidates
        .into_iter()
        .max_by_key(|(t, _)| *t)
        .expect("candidate list is non-empty");

    // Fill path: Tx, the layer chain (kernel + hand-off each), band-break
    // double-hops, Rx, and the HLS loop switch (t_hls per pass).
    let hls = pl.hls_overhead(1, pl_freq);
    let fill = TimePs(
        tx_occ.0
            + layers as u64 * (t_orth.0 + t_move.0)
            + band_breaks as u64 * 2 * t_break.0
            + rx_occ.0
            + hls.0,
    );

    // Round-robin dependency (Eq. 10-11 analog): the first pass of a round
    // depends on a block received mid-previous-round; a stall appears when
    // the fill path exceeds ~half a round of steady passes.
    let p = point.num_blocks();
    let passes_per_round = (p / 2).max(1);
    let rounds = p.saturating_sub(1);
    let covered = TimePs((passes_per_round as u64 / 2 + 1) * pass_interval.0);
    let round_stall = fill.saturating_sub(covered);

    let num = point.num_block_pairs();
    let iteration = TimePs(
        num as u64 * pass_interval.0 + rounds.saturating_sub(1) as u64 * round_stall.0 + fill.0,
    );

    // DDR: serialized block loads (Eq. 12).
    let block_bytes = k * m_bytes;
    let ddr = TimePs(ddr_model.burst_time(block_bytes).0 * p as u64);

    // Normalization: n columns stream through one in / one out port and k
    // norm cores; the stage is limited by its slowest serial resource.
    let t_norm_kernel = kernels.norm_time(point.rows);
    let norm_in = TimePs(column_tx.0 * point.cols as u64);
    let norm_out = TimePs(column_rx.0 * point.cols as u64);
    let norm_cores = TimePs(t_norm_kernel.0 * point.cols.div_ceil(k) as u64);
    let norm = TimePs(
        norm_in.max(norm_out).max(norm_cores).0 + column_tx.0 + t_norm_kernel.0 + column_rx.0,
    );

    // Result store to DDR.
    let store = ddr_model.burst_time(point.rows * point.cols * 4 + point.cols * 4);

    let task = TimePs(ddr.0 + point.iterations as u64 * iteration.0 + norm.0 + store.0);

    PerfEstimate {
        column_tx,
        pass_interval,
        fill,
        round_stall,
        iteration,
        ddr,
        norm,
        task,
        bottleneck,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(n: usize, p_eng: usize, mhz: f64) -> DesignPoint {
        DesignPoint {
            rows: n,
            cols: n,
            engine_parallelism: p_eng,
            task_parallelism: 1,
            pl_freq_mhz: mhz,
            iterations: 1,
        }
    }

    #[test]
    fn iteration_matches_paper_table4_within_20_percent() {
        // Paper Table IV on-board single-iteration times (ms) at 208.3 MHz.
        let rows = [
            (128usize, 2usize, 0.993),
            (256, 2, 6.151),
            (512, 2, 43.229),
            (128, 4, 0.395),
            (256, 4, 2.853),
            (512, 4, 21.584),
            (128, 8, 0.214),
            (256, 8, 1.475),
            (512, 8, 10.965),
        ];
        for (n, p_eng, paper_ms) in rows {
            let est = estimate(&point(n, p_eng, 208.3));
            let model_ms = est.iteration.as_millis();
            let rel = (model_ms - paper_ms).abs() / paper_ms;
            assert!(
                rel < 0.20,
                "{n}x{n} P_eng={p_eng}: model {model_ms:.3} ms vs paper {paper_ms:.3} ms ({rel:.3})"
            );
        }
    }

    #[test]
    fn latency_decreases_with_engine_parallelism() {
        let t2 = estimate(&point(256, 2, 208.3)).iteration;
        let t4 = estimate(&point(256, 4, 208.3)).iteration;
        let t8 = estimate(&point(256, 8, 208.3)).iteration;
        assert!(t4 < t2);
        assert!(t8 < t4);
    }

    #[test]
    fn latency_scales_superlinearly_with_size() {
        let t128 = estimate(&point(128, 4, 208.3)).iteration;
        let t256 = estimate(&point(256, 4, 208.3)).iteration;
        // 4x the pairs, 2x the column length: between 4x and 9x slower.
        let ratio = t256.0 as f64 / t128.0 as f64;
        assert!((4.0..9.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn higher_frequency_reduces_transfer_bound_latency() {
        let slow = estimate(&point(128, 8, 208.3));
        let fast = estimate(&point(128, 8, 450.0));
        assert!(fast.iteration < slow.iteration);
        assert!(fast.column_tx < slow.column_tx);
    }

    #[test]
    fn task_composition_adds_all_stages() {
        let p = DesignPoint {
            iterations: 6,
            ..point(128, 4, 208.3)
        };
        let est = estimate(&p);
        assert!(est.task.0 >= est.ddr.0 + 6 * est.iteration.0 + est.norm.0);
    }

    #[test]
    fn system_time_and_throughput() {
        let mut p = point(128, 4, 208.3);
        p.task_parallelism = 9;
        let est = estimate(&p);
        assert_eq!(est.system_time(9, 9), est.task);
        assert_eq!(est.system_time(100, 9).0, est.task.0 * 12);
        let tput = est.throughput(100, 9);
        assert!(tput > 0.0);
        assert!((tput - 100.0 / est.system_time(100, 9).as_secs()).abs() < 1e-9);
    }

    #[test]
    fn group_cap_binds_only_at_extreme_frequencies() {
        // At 450 MHz, four 7.2 GB/s ports stay under the 32 GB/s group
        // cap; at 600 MHz (9.6 GB/s each) they exceed it and throttle.
        let nominal = estimate(&point(128, 4, 450.0));
        let extreme = estimate(&point(128, 4, 600.0));
        let expected_unthrottled = nominal.column_tx.0 as f64 * 450.0 / 600.0;
        assert!(extreme.column_tx.0 as f64 > expected_unthrottled * 1.1);
    }

    #[test]
    fn bottleneck_diagnosis_matches_the_regimes() {
        // P_eng = 2 at 128: kernel-bound; P_eng = 8 at 128: Rx-bound
        // (8 columns per output port); P_eng = 4 at 128: the band-break
        // corner chain binds (Table IV cadence analysis).
        assert_eq!(
            estimate(&point(128, 2, 208.3)).bottleneck,
            Bottleneck::OrthKernel
        );
        assert_eq!(
            estimate(&point(128, 8, 208.3)).bottleneck,
            Bottleneck::RxPorts
        );
        assert_eq!(
            estimate(&point(128, 4, 208.3)).bottleneck,
            Bottleneck::BandBreakChain
        );
    }

    #[test]
    fn degenerate_point_is_finite() {
        let p = point(16, 1, 208.3);
        let est = estimate(&p);
        assert!(est.task.0 > 0);
        assert!(est.iteration.0 > 0);
    }
}
