//! Experiment harness reproducing every table and figure of the SPADE
//! (ISCA 2023) evaluation.
//!
//! Each `[[bench]]` target regenerates one paper artifact (Figure 2,
//! Figure 9–14, Tables 2, 5, 6, the §7.G area/power numbers and the §7.D
//! mode-transition overheads), printing the same rows/series the paper
//! reports. EXPERIMENTS.md records paper-vs-measured for all of them.
//!
//! ## Scaling
//!
//! The benchmark suite is generated at ~1/64 of the SuiteSparse node
//! counts (see `spade_matrix::generators`), so the machine models used by
//! the benches scale their *capacity* parameters — L1/L2/LLC sizes, GPU
//! L2 and device memory, Sextans scratchpad — by the same factor, keeping
//! every working-set:cache ratio, and therefore the shape of every result,
//! intact. Bandwidths and latencies are NOT scaled: they are properties of
//! the machines, not of the problem size. Tile-size knobs are scaled the
//! same way (the bench search space preserves the structure of Table 3:
//! three row panels × three column panels, barriers on the medium column
//! panel).
//!
//! ## Environment knobs
//!
//! * `SPADE_BENCH_FAST=1` — quarter-size suite and fewer PEs, for smoke
//!   runs.
//! * `SPADE_BENCH_PES=n` — override the SPADE PE count (default 224).
//! * `SPADE_THREADS=n` — worker threads for the [`parallel`] experiment
//!   engine (default: the host's available parallelism; `1` forces the
//!   serial path). Results are bit-identical for every thread count.

#![warn(missing_docs)]

pub mod cache;
pub mod machines;
pub mod metrics;
pub mod model;
pub mod parallel;
pub mod perf;
pub mod request;
pub mod runner;
pub mod service;
pub mod suite;
pub mod table;

/// Nominal factor by which the generated suite is smaller than the
/// SuiteSparse originals (node counts; see DESIGN.md).
pub const SUITE_SCALE: f64 = 64.0;

/// Factor applied to *capacity* parameters (L2, LLC, GPU L2/memory,
/// Sextans scratchpad). The per-graph node scales actually range from 61×
/// (KRO) to 388× (ORK) around the 64× nominal; capacities use a factor in
/// the upper part of that range so that the reuse-critical high-RU
/// matrices keep cMatrix working sets larger than the LLC, preserving the
/// paper's working-set:cache ratios (ORK 4.7×, KRO 1.5×, LIV 6×, DEL 25×
/// at K=32).
pub const CAPACITY_SCALE: f64 = 160.0;

/// Whether fast (smoke-test) mode is enabled via `SPADE_BENCH_FAST`.
pub fn fast_mode() -> bool {
    std::env::var("SPADE_BENCH_FAST").is_ok_and(|v| v == "1")
}

/// Whether the full Table 3 plan search is enabled via
/// `SPADE_BENCH_FULL` (default: the reduced quick search).
pub fn full_search() -> bool {
    std::env::var("SPADE_BENCH_FULL").is_ok_and(|v| v == "1")
}

/// The SPADE PE count used by the benches (default 224, the paper's
/// system; `SPADE_BENCH_PES` overrides; fast mode defaults to 56).
pub fn bench_pes() -> usize {
    if let Ok(v) = std::env::var("SPADE_BENCH_PES") {
        if let Ok(n) = v.parse() {
            return n;
        }
    }
    if fast_mode() {
        56
    } else {
        224
    }
}

/// The matrix scale used by the benches.
pub fn bench_scale() -> spade_matrix::generators::Scale {
    if fast_mode() {
        spade_matrix::generators::Scale::Small
    } else {
        spade_matrix::generators::Scale::Default
    }
}
