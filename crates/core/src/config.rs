//! Accelerator configuration (the micro-architecture parameters of
//! Table I) and its builder.

use crate::HeteroSvdError;
use aie_sim::calibration::Calibration;
use aie_sim::device::DeviceProfile;
use aie_sim::geometry::ArrayGeometry;
use aie_sim::pl::PlModel;
use aie_sim::time::Frequency;
use serde::{Deserialize, Serialize};
use svd_orderings::movement::{DataflowKind, OrderingKind};

/// Maximum engine parallelism supported by the placement (Table I:
/// `P_eng ∈ [1, 11]`).
pub const MAX_ENGINE_PARALLELISM: usize = 11;
/// Maximum task parallelism (Table I: `P_task ∈ [1, 26]`).
pub const MAX_TASK_PARALLELISM: usize = 26;

/// Simulation fidelity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum FidelityMode {
    /// Execute the kernels' arithmetic for real (f32) alongside the timing
    /// simulation; convergence is measured, results are returned.
    #[default]
    Functional,
    /// Timing-only: skip the arithmetic (large parameter sweeps). Requires
    /// `fixed_iterations`; the returned factors are zeros.
    TimingOnly,
}

/// Full configuration of a HeteroSVD instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeteroSvdConfig {
    /// Matrix rows `m` (column length on the AIEs).
    pub rows: usize,
    /// Matrix columns `n`; must be a multiple of `2 · engine_parallelism`.
    pub cols: usize,
    /// `P_eng`: orth-AIEs per layer; the column-block size.
    pub engine_parallelism: usize,
    /// `P_task`: independent task pipelines instantiated on the device.
    pub task_parallelism: usize,
    /// PL clock; defaults to the achievable frequency of the design.
    pub pl_freq: Frequency,
    /// SVD ordering (the co-design uses [`OrderingKind::ShiftingRing`]).
    pub ordering: OrderingKind,
    /// Output-placement dataflow (the co-design uses
    /// [`DataflowKind::Relocated`]).
    pub dataflow: DataflowKind,
    /// Convergence threshold for Eq. (6) (§V-B uses `1e-6`).
    pub precision: f64,
    /// Maximum outer iterations when converging adaptively.
    pub max_iterations: usize,
    /// Run exactly this many iterations (the paper's Table II/VI protocol
    /// fixes six); required in [`FidelityMode::TimingOnly`].
    pub fixed_iterations: Option<usize>,
    /// Simulation fidelity.
    pub fidelity: FidelityMode,
    /// Record a per-pass execution trace (see
    /// [`crate::orth_pipeline::PassRecord`]); off by default.
    pub record_trace: bool,
    /// Replay the plan's cached timing profile instead of re-simulating
    /// every `Timeline` (default on). Replay is exact by construction —
    /// the clock is data-independent and the profile is only used when
    /// the run starts from the state it was probed from — so this knob
    /// exists for benchmarking and cross-checking, not correctness.
    pub timing_replay: bool,
    /// Convergence-adaptive sweep engine for functional fidelity
    /// (default on): threshold-Jacobi gating skips the rotation apply
    /// for pairs whose Eq. (6) measure is below the per-sweep threshold,
    /// and dirty-column tracking answers repeat visits of untouched
    /// pairs from a cache without re-running the dot products. The
    /// accelerator still streams every pass — modeled timing, stats, and
    /// traces are bit-identical with the knob on or off — so this only
    /// cuts host-side functional compute; singular values stay within
    /// the configured `precision`'s accuracy budget of the exact engine.
    pub adaptive_sweeps: bool,
    /// Co-residency class: how many tenant pipelines share the device's
    /// PL/NoC interfaces *concurrently* with this one (default 1 — the
    /// whole-array assumption every pre-packing plan made). Unlike
    /// `task_parallelism` (a pure Eq. 14 divisor that assumes each
    /// pipeline sees an empty device), co-residency feeds the shared
    /// interface bandwidth model: PLIO transfers are throttled as if
    /// `co_residency` port groups stream through the Eq. 8 interface
    /// caps together, and the Eq. 12 first-iteration DDR loads (and the
    /// result store) split the controller's bandwidth `co_residency`
    /// ways. Functional arithmetic never reads this knob, so factors
    /// are bit-identical across classes; modeled timing is not, which
    /// is why the class is part of the plan-cache fingerprint.
    pub co_residency: usize,
    /// Observability (default on): emit per-iteration spans into the
    /// global [`crate::obs`] journal and attach a per-run
    /// [`crate::obs::UtilizationReport`] to the output. Purely
    /// observational — modeled timing, stats, and traces are
    /// bit-identical with the knob on or off — and allocation-free on
    /// the sweep hot path (the journal ring is preallocated; sampled-out
    /// spans cost two atomic ops).
    pub observability: bool,
    /// Target device (geometry, budgets, tile memory; default VCK190).
    pub device: DeviceProfile,
    /// Timing calibration.
    pub calibration: Calibration,
}

impl HeteroSvdConfig {
    /// Starts building a configuration for an `rows × cols` problem.
    pub fn builder(rows: usize, cols: usize) -> HeteroSvdConfigBuilder {
        HeteroSvdConfigBuilder::new(rows, cols)
    }

    /// Number of column blocks (`p = n / P_eng`).
    pub fn num_blocks(&self) -> usize {
        self.cols / self.engine_parallelism
    }

    /// Number of block pairs per iteration (`num` in Eq. 11–13).
    pub fn num_block_pairs(&self) -> usize {
        let p = self.num_blocks();
        p * (p.saturating_sub(1)) / 2
    }

    /// Bytes of one fp32 column.
    pub fn column_bytes(&self) -> usize {
        self.rows * 4
    }

    /// The target device's AIE array geometry.
    pub fn geometry(&self) -> ArrayGeometry {
        self.device.geometry
    }
}

/// Builder for [`HeteroSvdConfig`] (see [`HeteroSvdConfig::builder`]).
#[derive(Debug, Clone)]
pub struct HeteroSvdConfigBuilder {
    rows: usize,
    cols: usize,
    engine_parallelism: usize,
    task_parallelism: usize,
    pl_freq_mhz: Option<f64>,
    ordering: OrderingKind,
    dataflow: DataflowKind,
    precision: f64,
    max_iterations: usize,
    fixed_iterations: Option<usize>,
    fidelity: FidelityMode,
    record_trace: bool,
    /// Value given to the hidden `functional_parallelism` shim; `build`
    /// accepts only 1.
    functional_parallelism: usize,
    timing_replay: bool,
    adaptive_sweeps: bool,
    co_residency: usize,
    observability: bool,
    device: DeviceProfile,
    calibration: Calibration,
}

impl HeteroSvdConfigBuilder {
    fn new(rows: usize, cols: usize) -> Self {
        HeteroSvdConfigBuilder {
            rows,
            cols,
            engine_parallelism: 4,
            task_parallelism: 1,
            pl_freq_mhz: None,
            ordering: OrderingKind::ShiftingRing,
            dataflow: DataflowKind::Relocated,
            precision: 1e-6,
            max_iterations: 30,
            fixed_iterations: None,
            fidelity: FidelityMode::Functional,
            record_trace: false,
            functional_parallelism: 1,
            timing_replay: true,
            adaptive_sweeps: true,
            co_residency: 1,
            observability: true,
            device: DeviceProfile::VCK190,
            calibration: Calibration::DEFAULT,
        }
    }

    /// Sets `P_eng` (orth-AIEs per layer / columns per block).
    pub fn engine_parallelism(mut self, p_eng: usize) -> Self {
        self.engine_parallelism = p_eng;
        self
    }

    /// Sets `P_task` (parallel task pipelines).
    pub fn task_parallelism(mut self, p_task: usize) -> Self {
        self.task_parallelism = p_task;
        self
    }

    /// Overrides the PL clock in MHz (default: the design's achievable
    /// frequency from [`PlModel::achievable_frequency`]).
    pub fn pl_freq_mhz(mut self, mhz: f64) -> Self {
        self.pl_freq_mhz = Some(mhz);
        self
    }

    /// Selects the SVD ordering (default: shifting ring).
    pub fn ordering(mut self, ordering: OrderingKind) -> Self {
        self.ordering = ordering;
        self
    }

    /// Selects the output dataflow (default: relocated).
    pub fn dataflow(mut self, dataflow: DataflowKind) -> Self {
        self.dataflow = dataflow;
        self
    }

    /// Sets the convergence threshold (default `1e-6`).
    pub fn precision(mut self, precision: f64) -> Self {
        self.precision = precision;
        self
    }

    /// Caps adaptive convergence at `max_iterations` (default 30).
    pub fn max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations;
        self
    }

    /// Runs exactly `iters` outer iterations (the paper's fixed-six
    /// protocol for Tables II/VI).
    pub fn fixed_iterations(mut self, iters: usize) -> Self {
        self.fixed_iterations = Some(iters);
        self
    }

    /// Sets the simulation fidelity (default functional).
    pub fn fidelity(mut self, fidelity: FidelityMode) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// Records a per-pass execution trace in the output (default off;
    /// costs memory proportional to passes × iterations).
    pub fn record_trace(mut self, record: bool) -> Self {
        self.record_trace = record;
        self
    }

    /// Kept so callers that pass `.functional_parallelism(1)` still
    /// compile. Functional rotations run on one serial path, so `build`
    /// rejects any other value, and the configuration does not record
    /// it.
    #[doc(hidden)]
    pub fn functional_parallelism(mut self, workers: usize) -> Self {
        self.functional_parallelism = workers;
        self
    }

    /// Enables or disables timing replay (default on). Disabling forces
    /// full `Timeline` re-simulation every run — useful for equivalence
    /// tests and for measuring what replay saves.
    pub fn timing_replay(mut self, replay: bool) -> Self {
        self.timing_replay = replay;
        self
    }

    /// Enables or disables the convergence-adaptive sweep engine
    /// (default on). Only host-side functional compute is affected:
    /// modeled timing, stats, and traces are bit-identical either way.
    /// Turn it off to force the exact engine (every pair's rotation
    /// computed and applied every visit) — useful for golden-model
    /// comparisons and for measuring what the gating saves.
    pub fn adaptive_sweeps(mut self, adaptive: bool) -> Self {
        self.adaptive_sweeps = adaptive;
        self
    }

    /// Sets the co-residency class (default 1): the number of tenant
    /// pipelines sharing the PLIO/DDR interfaces concurrently with this
    /// one. Must be `>= 1`. Modeled timing is contention-scaled per
    /// class; functional results are bit-identical across classes.
    pub fn co_residency(mut self, tenants: usize) -> Self {
        self.co_residency = tenants;
        self
    }

    /// Enables or disables observability (default on): span emission
    /// into the global journal plus the per-run utilization report.
    /// Modeled timing, stats, and traces are bit-identical either way.
    pub fn observability(mut self, enabled: bool) -> Self {
        self.observability = enabled;
        self
    }

    /// Targets a different device profile (default VCK190; see
    /// [`DeviceProfile::VE2802_ESTIMATE`] for the AIE-ML porting study).
    pub fn device(mut self, device: DeviceProfile) -> Self {
        self.device = device;
        self
    }

    /// Overrides the timing calibration.
    pub fn calibration(mut self, calibration: Calibration) -> Self {
        self.calibration = calibration;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`HeteroSvdError::InvalidConfig`] when:
    /// * `rows < cols` (the one-sided method needs tall matrices),
    /// * `cols` is not a positive multiple of `2 · P_eng` (a block pair
    ///   must consist of two full blocks),
    /// * `P_eng ∉ [1, 11]` or `P_task ∉ [1, 26]` (Table I),
    /// * the precision is not positive, or
    /// * timing-only fidelity is requested without `fixed_iterations`.
    pub fn build(self) -> Result<HeteroSvdConfig, HeteroSvdError> {
        if self.rows == 0 || self.cols == 0 {
            return Err(HeteroSvdError::InvalidConfig(
                "matrix dimensions must be positive".into(),
            ));
        }
        if self.rows < self.cols {
            return Err(HeteroSvdError::InvalidConfig(format!(
                "one-sided jacobi requires rows >= cols, got {}x{}",
                self.rows, self.cols
            )));
        }
        if self.engine_parallelism == 0 || self.engine_parallelism > MAX_ENGINE_PARALLELISM {
            return Err(HeteroSvdError::InvalidConfig(format!(
                "engine parallelism must be in [1, {MAX_ENGINE_PARALLELISM}], got {}",
                self.engine_parallelism
            )));
        }
        if self.task_parallelism == 0 || self.task_parallelism > MAX_TASK_PARALLELISM {
            return Err(HeteroSvdError::InvalidConfig(format!(
                "task parallelism must be in [1, {MAX_TASK_PARALLELISM}], got {}",
                self.task_parallelism
            )));
        }
        if !self.cols.is_multiple_of(2 * self.engine_parallelism) {
            return Err(HeteroSvdError::InvalidConfig(format!(
                "columns ({}) must be a multiple of 2*P_eng ({})",
                self.cols,
                2 * self.engine_parallelism
            )));
        }
        if self.precision.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(HeteroSvdError::InvalidConfig(
                "precision must be positive".into(),
            ));
        }
        if self.fidelity == FidelityMode::TimingOnly && self.fixed_iterations.is_none() {
            return Err(HeteroSvdError::InvalidConfig(
                "timing-only fidelity requires fixed_iterations".into(),
            ));
        }
        if let Some(0) = self.fixed_iterations {
            return Err(HeteroSvdError::InvalidConfig(
                "fixed_iterations must be at least 1".into(),
            ));
        }
        if self.functional_parallelism != 1 {
            return Err(HeteroSvdError::InvalidConfig(format!(
                "functional rotations run serially: functional_parallelism must be 1, got {}",
                self.functional_parallelism
            )));
        }
        if self.co_residency == 0 {
            return Err(HeteroSvdError::InvalidConfig(
                "co_residency must be at least 1".into(),
            ));
        }

        let pl_model = PlModel::new(self.calibration);
        let pl_freq = match self.pl_freq_mhz {
            Some(mhz) => {
                if !(mhz.is_finite() && mhz > 0.0) {
                    return Err(HeteroSvdError::InvalidConfig(
                        "PL frequency must be positive".into(),
                    ));
                }
                Frequency::from_mhz(mhz)
            }
            None => pl_model.achievable_frequency(self.cols, self.task_parallelism),
        };

        Ok(HeteroSvdConfig {
            rows: self.rows,
            cols: self.cols,
            engine_parallelism: self.engine_parallelism,
            task_parallelism: self.task_parallelism,
            pl_freq,
            ordering: self.ordering,
            dataflow: self.dataflow,
            precision: self.precision,
            max_iterations: self.max_iterations,
            fixed_iterations: self.fixed_iterations,
            fidelity: self.fidelity,
            record_trace: self.record_trace,
            timing_replay: self.timing_replay,
            adaptive_sweeps: self.adaptive_sweeps,
            co_residency: self.co_residency,
            observability: self.observability,
            device: self.device,
            calibration: self.calibration,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_build_succeeds() {
        let c = HeteroSvdConfig::builder(128, 128).build().unwrap();
        assert_eq!(c.engine_parallelism, 4);
        assert_eq!(c.task_parallelism, 1);
        assert_eq!(c.num_blocks(), 32);
        assert_eq!(c.num_block_pairs(), 32 * 31 / 2);
        assert_eq!(c.column_bytes(), 512);
        // Default PL clock comes from the achievable-frequency model.
        assert!((c.pl_freq.mhz() - 450.0).abs() < 1.0);
    }

    #[test]
    fn explicit_frequency_is_respected() {
        let c = HeteroSvdConfig::builder(128, 128)
            .pl_freq_mhz(208.3)
            .build()
            .unwrap();
        assert!((c.pl_freq.mhz() - 208.3).abs() < 1e-9);
    }

    #[test]
    fn rejects_wide_matrices() {
        let err = HeteroSvdConfig::builder(64, 128).build().unwrap_err();
        assert!(matches!(err, HeteroSvdError::InvalidConfig(_)));
    }

    #[test]
    fn rejects_bad_blocking() {
        // 100 columns with P_eng=8 -> 2*8=16 does not divide 100.
        let err = HeteroSvdConfig::builder(100, 100)
            .engine_parallelism(8)
            .build()
            .unwrap_err();
        assert!(matches!(err, HeteroSvdError::InvalidConfig(_)));
    }

    #[test]
    fn rejects_out_of_range_parallelism() {
        assert!(HeteroSvdConfig::builder(128, 128)
            .engine_parallelism(12)
            .build()
            .is_err());
        assert!(HeteroSvdConfig::builder(128, 128)
            .engine_parallelism(0)
            .build()
            .is_err());
        assert!(HeteroSvdConfig::builder(128, 128)
            .task_parallelism(27)
            .build()
            .is_err());
    }

    #[test]
    fn timing_only_requires_fixed_iterations() {
        let err = HeteroSvdConfig::builder(128, 128)
            .fidelity(FidelityMode::TimingOnly)
            .build()
            .unwrap_err();
        assert!(matches!(err, HeteroSvdError::InvalidConfig(_)));

        assert!(HeteroSvdConfig::builder(128, 128)
            .fidelity(FidelityMode::TimingOnly)
            .fixed_iterations(6)
            .build()
            .is_ok());
    }

    #[test]
    fn rejects_zero_fixed_iterations_and_bad_precision() {
        assert!(HeteroSvdConfig::builder(128, 128)
            .fixed_iterations(0)
            .build()
            .is_err());
        assert!(HeteroSvdConfig::builder(128, 128)
            .precision(0.0)
            .build()
            .is_err());
        assert!(HeteroSvdConfig::builder(128, 128)
            .precision(f64::NAN)
            .build()
            .is_err());
    }

    #[test]
    fn functional_parallelism_defaults_and_validates() {
        // The hidden shim accepts only the serial setting.
        let built = |workers| {
            HeteroSvdConfig::builder(128, 128)
                .functional_parallelism(workers)
                .build()
        };
        assert_eq!(
            built(1).unwrap(),
            HeteroSvdConfig::builder(128, 128).build().unwrap()
        );
        for workers in [0, 2] {
            assert!(
                matches!(built(workers), Err(HeteroSvdError::InvalidConfig(_))),
                "functional_parallelism({workers}) must be rejected"
            );
        }
    }

    #[test]
    fn replay_and_pipelining_knobs_default_and_build() {
        let c = HeteroSvdConfig::builder(128, 128).build().unwrap();
        assert!(c.timing_replay);
        assert!(c.adaptive_sweeps);
        assert!(c.observability);
        let c = HeteroSvdConfig::builder(128, 128)
            .timing_replay(false)
            .adaptive_sweeps(false)
            .observability(false)
            .build()
            .unwrap();
        assert!(!c.timing_replay);
        assert!(!c.adaptive_sweeps);
        assert!(!c.observability);
    }

    #[test]
    fn co_residency_defaults_to_single_tenant_and_validates() {
        let c = HeteroSvdConfig::builder(128, 128).build().unwrap();
        assert_eq!(c.co_residency, 1);
        let c = HeteroSvdConfig::builder(128, 128)
            .co_residency(4)
            .build()
            .unwrap();
        assert_eq!(c.co_residency, 4);
        assert!(HeteroSvdConfig::builder(128, 128)
            .co_residency(0)
            .build()
            .is_err());
    }

    #[test]
    fn rectangular_matrices_supported() {
        let c = HeteroSvdConfig::builder(256, 64)
            .engine_parallelism(4)
            .build()
            .unwrap();
        assert_eq!(c.num_blocks(), 16);
        assert_eq!(c.column_bytes(), 1024);
    }
}
