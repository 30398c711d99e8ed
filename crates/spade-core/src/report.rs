//! Execution reports: the metrics every figure and table of the evaluation
//! is built from.

use spade_sim::{cycles_to_ns, level_name, Cycle, DataClass, JsonValue, LevelKind, MemStats};

use crate::pe::PeStats;

/// Timing and traffic summary of one simulated SPADE-mode section.
///
/// Equality ignores [`RunReport::host_wall_ns`]: two runs of the same job
/// are *deterministically equal* when every simulated metric matches, even
/// though the host needed different amounts of real time for them.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Total SPADE-mode cycles (0.8 GHz PE cycles), including the
    /// termination flush.
    pub cycles: Cycle,
    /// Wall-clock nanoseconds at the 0.8 GHz PE clock.
    pub time_ns: f64,
    /// Total DRAM accesses (reads + write-backs).
    pub dram_accesses: u64,
    /// Total LLC lookups.
    pub llc_accesses: u64,
    /// Memory requests issued per cycle across all PEs (the latency
    /// tolerance metric of Figure 10).
    pub requests_per_cycle: f64,
    /// Achieved DRAM bandwidth in GB/s.
    pub achieved_gbps: f64,
    /// Fraction of the configured DRAM bandwidth used.
    pub dram_utilization: f64,
    /// Non-zeros processed.
    pub total_nnz: u64,
    /// Non-zeros on the most-loaded PE (load-imbalance diagnostic).
    pub max_pe_nnz: u64,
    /// Scheduling barriers executed.
    pub num_barriers: u32,
    /// Cycles spent after compute finished, in the SPADE→CPU transition
    /// (VRF drain + L1/BBF write-back & invalidate, §7.D).
    pub termination_cycles: Cycle,
    /// STLB page walks.
    pub tlb_misses: u64,
    /// Full per-level memory statistics.
    pub mem: MemStats,
    /// vOps executed across all PEs.
    pub total_vops: u64,
    /// Aggregate allocation-stall cycles (no free vector register).
    pub stall_no_vr: u64,
    /// Aggregate reservation-station-full stall cycles.
    pub stall_no_rs: u64,
    /// Host wall-clock nanoseconds the simulation itself took. This is a
    /// property of the host machine, not of the modelled hardware; it is
    /// excluded from equality comparisons.
    pub host_wall_ns: f64,
}

impl PartialEq for RunReport {
    fn eq(&self, other: &Self) -> bool {
        // Everything except host_wall_ns: simulated metrics only.
        self.cycles == other.cycles
            && self.time_ns == other.time_ns
            && self.dram_accesses == other.dram_accesses
            && self.llc_accesses == other.llc_accesses
            && self.requests_per_cycle == other.requests_per_cycle
            && self.achieved_gbps == other.achieved_gbps
            && self.dram_utilization == other.dram_utilization
            && self.total_nnz == other.total_nnz
            && self.max_pe_nnz == other.max_pe_nnz
            && self.num_barriers == other.num_barriers
            && self.termination_cycles == other.termination_cycles
            && self.tlb_misses == other.tlb_misses
            && self.mem == other.mem
            && self.total_vops == other.total_vops
            && self.stall_no_vr == other.stall_no_vr
            && self.stall_no_rs == other.stall_no_rs
    }
}

impl RunReport {
    /// Builds a report from the end-of-run state.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn collect(
        cycles: Cycle,
        mem_stats: MemStats,
        achieved_gbps: f64,
        dram_utilization: f64,
        pe_stats: &[PeStats],
        total_nnz: u64,
        max_pe_nnz: u64,
        num_barriers: u32,
    ) -> Self {
        let compute_end = pe_stats
            .iter()
            .map(|s| s.flush_started_at)
            .max()
            .unwrap_or(0);
        RunReport {
            cycles,
            time_ns: cycles_to_ns(cycles),
            dram_accesses: mem_stats.dram_accesses(),
            llc_accesses: mem_stats.llc_accesses(),
            requests_per_cycle: mem_stats.requests_per_cycle(cycles),
            achieved_gbps,
            dram_utilization,
            total_nnz,
            max_pe_nnz,
            num_barriers,
            termination_cycles: cycles.saturating_sub(compute_end),
            tlb_misses: mem_stats.tlb_misses,
            total_vops: pe_stats.iter().map(|s| s.vops).sum(),
            stall_no_vr: pe_stats.iter().map(|s| s.stall_no_vr).sum(),
            stall_no_rs: pe_stats.iter().map(|s| s.stall_no_rs).sum(),
            mem: mem_stats,
            host_wall_ns: 0.0,
        }
    }

    /// Simulation throughput: simulated PE cycles per host wall-clock
    /// second. The figure of merit for simulator-performance work — a
    /// faster simulator moves this up with `cycles` unchanged. Zero when no
    /// host time was recorded.
    pub fn sim_cycles_per_host_sec(&self) -> f64 {
        if self.host_wall_ns <= 0.0 {
            0.0
        } else {
            self.cycles as f64 / (self.host_wall_ns / 1e9)
        }
    }

    /// Effective GFLOP/s for SpMM (`2·nnz·K` flops) at the given dense row
    /// size.
    pub fn spmm_gflops(&self, k: usize) -> f64 {
        if self.time_ns == 0.0 {
            return 0.0;
        }
        2.0 * self.total_nnz as f64 * k as f64 / self.time_ns
    }

    /// Fraction of total time spent in the termination transition.
    pub fn termination_fraction(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.termination_cycles as f64 / self.cycles as f64
        }
    }

    /// This report as a JSON object, including the per-level and per-class
    /// memory statistics. `host_wall_ns` is included for convenience but —
    /// like report equality — it describes the host, not the simulated
    /// hardware, so tooling that compares artifacts should ignore it.
    pub fn to_json(&self) -> JsonValue {
        let levels = LevelKind::ALL
            .iter()
            .map(|level| {
                let s = self.mem.level(*level);
                (
                    level_name(*level),
                    JsonValue::object([
                        ("accesses", s.accesses.into()),
                        ("hits", s.hits.into()),
                        ("misses", s.misses().into()),
                        ("writebacks", s.writebacks.into()),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        let dram_by_class = DataClass::ALL
            .iter()
            .map(|class| {
                let name = match class {
                    DataClass::SparseIn => "sparse_in",
                    DataClass::SparseOut => "sparse_out",
                    DataClass::RMatrix => "r_matrix",
                    DataClass::CMatrix => "c_matrix",
                };
                (name, self.mem.dram_by_class(*class).into())
            })
            .collect::<Vec<_>>();
        JsonValue::object([
            ("cycles", self.cycles.into()),
            ("time_ns", self.time_ns.into()),
            ("dram_accesses", self.dram_accesses.into()),
            ("llc_accesses", self.llc_accesses.into()),
            ("requests_per_cycle", self.requests_per_cycle.into()),
            ("achieved_gbps", self.achieved_gbps.into()),
            ("dram_utilization", self.dram_utilization.into()),
            ("total_nnz", self.total_nnz.into()),
            ("max_pe_nnz", self.max_pe_nnz.into()),
            ("num_barriers", self.num_barriers.into()),
            ("termination_cycles", self.termination_cycles.into()),
            ("tlb_misses", self.tlb_misses.into()),
            ("faults_injected", self.mem.faults_injected.into()),
            ("requests_issued", self.mem.requests_issued.into()),
            ("levels", JsonValue::object(levels)),
            ("dram_by_class", JsonValue::object(dram_by_class)),
            ("total_vops", self.total_vops.into()),
            ("stall_no_vr", self.stall_no_vr.into()),
            ("stall_no_rs", self.stall_no_rs.into()),
            ("host_wall_ns", self.host_wall_ns.into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cycles: Cycle, flush_at: Cycle) -> RunReport {
        let pe = PeStats {
            tuples: 100,
            vops: 200,
            flush_started_at: flush_at,
            ..Default::default()
        };
        RunReport::collect(cycles, MemStats::new(), 10.0, 0.5, &[pe], 100, 100, 0)
    }

    #[test]
    fn termination_fraction_is_relative() {
        let r = report(1000, 900);
        assert_eq!(r.termination_cycles, 100);
        assert!((r.termination_fraction() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn gflops_counts_two_flops_per_element() {
        let r = report(800, 800); // 800 cycles = 1000 ns
        let g = r.spmm_gflops(32);
        assert!((g - 2.0 * 100.0 * 32.0 / 1000.0).abs() < 1e-9);
    }

    #[test]
    fn zero_cycle_report_is_safe() {
        let r = report(0, 0);
        assert_eq!(r.termination_fraction(), 0.0);
        assert_eq!(r.requests_per_cycle, 0.0);
    }

    #[test]
    fn json_rendering_is_valid_and_complete() {
        let r = report(1000, 900);
        let text = r.to_json().render();
        assert_eq!(spade_sim::json::validate(&text), Ok(()));
        for key in [
            "\"cycles\":1000",
            "\"requests_per_cycle\"",
            "\"levels\"",
            "\"llc\"",
            "\"dram_by_class\"",
            "\"total_vops\":200",
        ] {
            assert!(text.contains(key), "missing {key} in {text}");
        }
    }
}
