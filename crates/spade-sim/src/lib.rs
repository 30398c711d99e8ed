//! Cycle-level memory-system simulation substrate for the SPADE
//! reproduction.
//!
//! The SPADE paper evaluates the accelerator with SST + DRAMsim3
//! simulations (§6.A). This crate is the Rust stand-in for that substrate:
//! a timing model of the host multicore's memory system that both the
//! SPADE processing elements and the baseline CPU model issue requests
//! into.
//!
//! The model is *tag-only* and *completion-time based*: caches track tags,
//! dirty bits and LRU state (data values are computed functionally by the
//! callers), and every access returns the cycle at which its data arrives,
//! computed from hit/miss outcomes, link latencies and bandwidth queues at
//! the LLC banks and DRAM channels. Concurrency limits come from the finite
//! queues of the requesting pipelines, matching how the paper's
//! configuration study (Table 4) varies queue sizes rather than MSHR
//! counts.
//!
//! Components:
//!
//! * [`Cache`] — set-associative, write-back, LRU (used for PE L1s, the
//!   bypass-buffer victim cache, core L2s, and the LLC slices),
//! * [`Dram`] — multi-channel bandwidth/latency model,
//! * [`Stlb`] — secondary TLB with pinned pages (SPADE PEs can miss in the
//!   TLB but never page-fault, §4.1),
//! * [`MemorySystem`] — the full hierarchy: per-agent L1/BBF → shared L2
//!   per cluster → banked LLC → DRAM, with the cache-bypass paths and the
//!   link-latency knob (§7.B) and per-level statistics.
//!
//! # Example
//!
//! ```
//! use spade_sim::{MemConfig, MemorySystem, AccessPath, DataClass};
//!
//! let mut mem = MemorySystem::new(MemConfig::small_test(2));
//! // Agent 0 reads line 7 through its cache hierarchy: a cold miss.
//! let t1 = mem.read(0, 7, AccessPath::Cached, DataClass::CMatrix, 0);
//! // The same line again: an L1 hit, so it completes much faster.
//! let t2 = mem.read(0, 7, AccessPath::Cached, DataClass::CMatrix, t1);
//! assert!(t2 - t1 < t1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod audit;
mod cache;
mod config;
mod dram;
mod fault;
mod hierarchy;
pub mod json;
mod stats;
mod telemetry;
mod tlb;
mod trace;

pub use audit::{audit_enabled, ReadTracker};
pub use cache::{AccessOutcome, Cache, CacheConfig, Victim};
pub use config::MemConfig;
pub use dram::{Dram, DramConfig};
pub use fault::FaultConfig;
pub use hierarchy::{AccessPath, MemorySystem};
pub use json::{FrameError, FrameReader, JsonValue};
pub use stats::{DataClass, LevelKind, LevelStats, MemStats};
pub use telemetry::{
    level_name, TelemetryCounters, TelemetryGauges, TelemetryRecorder, TelemetrySample,
    TelemetrySeries,
};
pub use tlb::{Stlb, StlbConfig};
pub use trace::{TraceEvent, TraceLog, TracePhase, TRACE_PID};

/// Simulation time in SPADE PE cycles (0.8 GHz unless rescaled).
pub type Cycle = u64;

/// A cache-line address (byte address divided by the line size).
pub type Line = u64;

/// Bytes per cache line across the modeled system.
pub const LINE_BYTES: u64 = 64;

/// Default PE clock in GHz (Table 1).
pub const PE_GHZ: f64 = 0.8;

/// Converts nanoseconds to PE cycles at the default 0.8 GHz clock.
///
/// ```
/// assert_eq!(spade_sim::ns_to_cycles(60.0), 48);
/// ```
pub fn ns_to_cycles(ns: f64) -> Cycle {
    (ns * PE_GHZ).round() as Cycle
}

/// Converts PE cycles to nanoseconds at the default 0.8 GHz clock.
pub fn cycles_to_ns(cycles: Cycle) -> f64 {
    cycles as f64 / PE_GHZ
}

/// Converts a gigabytes-per-second bandwidth into bytes per PE cycle.
///
/// ```
/// // 410 GB/s at 0.8 GHz is 512.5 B per cycle.
/// assert!((spade_sim::gbps_to_bytes_per_cycle(410.0) - 512.5).abs() < 1.0);
/// ```
pub fn gbps_to_bytes_per_cycle(gbps: f64) -> f64 {
    gbps / PE_GHZ
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_conversion_roundtrip() {
        let cycles = ns_to_cycles(480.0);
        assert_eq!(cycles, 384);
        assert!((cycles_to_ns(cycles) - 480.0).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_conversion() {
        let bpc = gbps_to_bytes_per_cycle(304.0);
        assert!((bpc - 380.0).abs() < 0.1);
    }
}
