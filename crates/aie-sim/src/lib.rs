#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Cycle-approximate simulator of the Versal ACAP compute fabric.
//!
//! The HeteroSVD paper targets the AMD VCK190 board (VC1902 device): an
//! 8×50 array of AI engines (AIEs) at 1.25 GHz, programmable logic (PL)
//! with BRAM/URAM, and a NoC to DDR. This crate models the pieces of that
//! platform the accelerator's behaviour depends on:
//!
//! * [`geometry`] — tile coordinates, the checkerboard core/memory
//!   orientation, and the neighbor-access rules that make the shifting
//!   ring ordering profitable (§II-B, Fig. 1).
//! * [`memory`] — per-tile data memory (4 banks × 8 KB) with allocation
//!   tracking; DMA buffers double the footprint.
//! * [`kernel`] — the AIE kernel cost model (8-lane fp32 vector unit,
//!   call/lock overheads) for the orthogonalization and normalization
//!   kernels.
//! * [`plio`]/[`dma`]/[`ddr`] — interface bandwidth models: PLIO streams
//!   (128-bit per PL cycle; 24 GB/s AIE→PL and 32 GB/s PL→AIE per-group
//!   caps), inter-tile DMA, and DDR loads.
//! * [`switch`]/[`packet`] — the tile stream switches: hop-based
//!   routing, static broadcast trees, and dynamic (packet-switched)
//!   forwarding tables (Fig. 1b).
//! * [`pl`] — PL-side FIFO sizing and its BRAM/URAM cost, HLS loop
//!   overheads, and achievable-frequency derating.
//! * [`timeline`] — a deterministic resource-timeline simulation engine:
//!   every hardware resource is a timeline that serializes the operations
//!   scheduled onto it; dependencies propagate ready times.
//! * [`resources`] — VCK190 resource budgets and usage accounting for the
//!   DSE feasibility check (Eq. 16).
//! * [`calibration`] — every timing/power constant in one place, with the
//!   provenance of each value.
//!
//! The simulator is *cycle-approximate*: it models transfers and kernel
//! invocations (not individual instructions), which is the granularity of
//! the paper's own performance model (Fig. 7).

pub mod calibration;
pub mod ddr;
pub mod device;
pub mod dma;
pub mod geometry;
pub mod kernel;
pub mod memory;
pub mod packet;
pub mod pl;
pub mod plio;
pub mod resources;
pub mod stats;
pub mod switch;
pub mod time;
pub mod timeline;

mod error;

pub use device::DeviceProfile;
pub use error::SimError;
pub use geometry::{ArrayGeometry, TileCoord};
pub use resources::{ResourceBudget, ResourceUsage};
pub use stats::SimStats;
pub use time::{Frequency, TimePs};
pub use timeline::{SimEngine, Timeline};
