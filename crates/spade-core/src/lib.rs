//! The SPADE accelerator model — the primary contribution of *SPADE: A
//! Flexible and Scalable Accelerator for SpMM and SDDMM* (ISCA 2023).
//!
//! SPADE tightly couples accelerator processing elements (PEs) with the
//! cores of a multicore, as if they were advanced functional units: PEs
//! share the host's STLB, L2 and LLC and use its virtual addresses, so no
//! data is ever copied between host and accelerator (§4.1). Flexibility
//! comes from a high-level tile ISA (§4.2) whose knobs — tile sizes,
//! scheduling barriers, cache bypassing — adapt execution to the sparsity
//! structure of the input.
//!
//! Crate layout:
//!
//! * [`Primitive`], [`RMatrixPolicy`], [`CMatrixPolicy`] — the kernel and
//!   bypass knobs of the tile ISA,
//! * [`ExecutionPlan`] / [`PlanSearchSpace`] — the flexibility knobs and
//!   the Table 3 search space behind `SPADE Opt`,
//! * [`Schedule`] — CPE tile scheduling with the SpMM row-panel constraint
//!   and scheduling barriers (§4.3); each PE's stream of [`PeCommand`]s
//!   is the tile ISA (§4.2) as the simulator executes it,
//! * [`vrf`] — the vector register file with its tag CAM (§5.1),
//! * [`pe`] — the three-stage latency-tolerant PE pipeline (§4.4),
//! * [`SpadeSystem`] — the integrated system: run SpMM/SDDMM end to end,
//!   with functional results validated against the gold kernels,
//! * [`SystemConfig`] — Table 1 microarchitecture presets and the Table 4
//!   CFG0–CFG4 feature progression.
//!
//! # Example
//!
//! ```
//! use spade_core::{ExecutionPlan, SpadeSystem, SystemConfig};
//! use spade_matrix::{reference, Coo, DenseMatrix};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let a = Coo::from_triplets(128, 128, &[(0, 5, 1.0), (100, 7, 2.0)])?;
//! let b = DenseMatrix::from_fn(128, 32, |r, _| r as f32);
//! let mut system = SpadeSystem::new(SystemConfig::scaled(8));
//! let run = system.run_spmm(&a, &b, &ExecutionPlan::spmm_base(&a)?)?;
//! assert!(reference::dense_close(&run.output, &reference::spmm(&a, &b), 1e-3));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addr;
pub mod advisor;
mod bitset;
mod config;
mod diag;
mod error;
mod isa;
pub mod pe;
mod plan;
mod report;
mod schedule;
mod system;
pub mod vrf;

pub use addr::AddressMap;
pub use config::{PipelineConfig, SystemConfig};
pub use diag::{PeSnapshot, StallDiagnostics, StallKind, WatchdogConfig};
pub use error::SpadeError;
pub use isa::{CMatrixPolicy, Primitive, RMatrixPolicy};
pub use plan::{BarrierPolicy, ExecutionPlan, PlanSearchSpace};
pub use report::RunReport;
pub use schedule::{PeCommand, Schedule};
pub use system::{run_sddmm_checked, run_spmm_checked, SddmmRun, SpadeSystem, SpmmRun, SpmvRun};

// Observability types from the simulation layer, re-exported so downstream
// crates (bench, CLI) need only `spade_core` for telemetry and tracing.
pub use spade_sim::{JsonValue, TelemetrySample, TelemetrySeries, TraceEvent, TraceLog};
