#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! SVD pair orderings and AIE data-movement analysis.
//!
//! The order in which column pairs are orthogonalized is mathematically
//! flexible (any complete ordering converges) but *physically* decisive on
//! the Versal AIE array: it determines whether inter-layer column hand-offs
//! are cheap neighbor accesses or expensive DMA transfers (§III-B of the
//! paper).
//!
//! This crate provides:
//!
//! * [`schedule`] — complete tournament schedules mapping pair rounds onto
//!   orth-layers, with per-ordering slot assignment (including the paper's
//!   shifting ring ordering).
//! * [`movement`] — the movement/DMA analysis behind Fig. 3: per-transition
//!   movement multisets for ring vs shifting-ring ordering, neighbor/DMA
//!   classification under naive vs relocated dataflow, and the closed-form
//!   totals `2k(k−1)` vs `2(k−1)`.
//!
//! # Example
//!
//! ```
//! use svd_orderings::movement::{analyze, DataflowKind, OrderingKind};
//!
//! let naive = analyze(OrderingKind::Ring, DataflowKind::NaiveMemory, 4);
//! let codesign = analyze(OrderingKind::ShiftingRing, DataflowKind::Relocated, 4);
//! assert_eq!(naive.dma_transfers, 2 * 4 * 3);   // 2k(k-1)
//! assert_eq!(codesign.dma_transfers, 2 * 3);    // 2(k-1)
//! ```

pub mod movement;
pub mod render;
pub mod schedule;

pub use movement::{analyze, AccessKind, DataflowKind, Movement, MovementReport, OrderingKind};
pub use schedule::{HardwareSchedule, Layer};
