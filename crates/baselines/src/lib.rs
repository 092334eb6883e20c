#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Calibrated models of the baselines HeteroSVD is compared against.
//!
//! The paper evaluates against two published accelerators that we cannot
//! run (no XC7V690T board, no RTX 3090):
//!
//! * [`fpga`] — the ultra-parallel BCV-Jacobi FPGA solver of Hu et al.
//!   \[6\], modeled as a cubic cycle-count law fit to its published
//!   latencies (Table II) at its 200 MHz peak frequency.
//! * [`gpu`] — the W-cycle batched SVD of Xiao et al. \[11\] on an RTX
//!   3090, modeled from its published single-matrix latencies and
//!   batch-100 throughputs (Table III) with a launch-plus-marginal batch
//!   law, 270 W board power, and the qualitative utilization-vs-size
//!   curves of Fig. 9.
//!
//! Both models *are* the published numbers — the same information the
//! paper's authors had when comparing — wrapped in parametric laws so the
//! benches can sweep sizes and batch shapes.
//!
//! A third comparator, [`cpu`], is an extension: it *measures* the
//! workspace's own software solver on the host machine, for the
//! machine-local "what does a plain CPU do" question.

pub mod cpu;
pub mod fpga;
pub mod gpu;

pub use cpu::CpuBaseline;
pub use fpga::FpgaBaseline;
pub use gpu::GpuBaseline;
