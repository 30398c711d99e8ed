//! Baseline machines for the SPADE evaluation (§6).
//!
//! The paper compares the simulated SPADE accelerator against three
//! machines:
//!
//! * a real dual-socket **Intel Ice Lake** server (56 cores) running MKL
//!   SpMM / TACO SDDMM — modeled here as a timing simulation of 56
//!   out-of-order cores on the same memory-hierarchy substrate SPADE uses
//!   ([`cpu`]);
//! * a real **NVIDIA V100** running cuSPARSE/dgSPARSE — modeled as a
//!   bandwidth-roofline with an L2 reuse filter ([`gpu`]), since SpMM and
//!   SDDMM are bandwidth-bound on GPUs;
//! * the **Sextans** FPGA accelerator, idealized exactly as §6.A describes:
//!   memory-time-only, 8-byte compressed tuples, scaled-up scratchpads and
//!   50 % peak bandwidth utilization ([`sextans`]).
//!
//! [`transfer`] models the host↔device PCIe traffic and address-mapping
//! overhead that Figure 2 shows dominating single-iteration GPU execution —
//! the overhead SPADE eliminates by construction.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cpu;
pub mod gpu;
pub mod sextans;
pub mod transfer;

/// Timing summary shared by all baseline models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineReport {
    /// Kernel execution time in nanoseconds (excludes any host↔device
    /// transfer).
    pub kernel_ns: f64,
    /// DRAM lines touched (reads + writes).
    pub dram_accesses: u64,
    /// DRAM bytes moved.
    pub dram_bytes: u64,
    /// Achieved DRAM bandwidth in GB/s during the kernel.
    pub achieved_gbps: f64,
    /// Fraction of the machine's peak bandwidth achieved.
    pub utilization: f64,
}

impl BaselineReport {
    /// Builds a report from traffic and time.
    pub fn from_traffic(dram_accesses: u64, kernel_ns: f64, peak_gbps: f64) -> Self {
        let dram_bytes = dram_accesses * 64;
        let achieved = if kernel_ns > 0.0 {
            dram_bytes as f64 / kernel_ns
        } else {
            0.0
        };
        BaselineReport {
            kernel_ns,
            dram_accesses,
            dram_bytes,
            achieved_gbps: achieved,
            utilization: if peak_gbps > 0.0 {
                achieved / peak_gbps
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_derives_bandwidth() {
        // 1000 lines in 64 µs: 64 kB / 64000 ns = 1 GB/s.
        let r = BaselineReport::from_traffic(1000, 64_000.0, 10.0);
        assert_eq!(r.dram_bytes, 64_000);
        assert!((r.achieved_gbps - 1.0).abs() < 1e-9);
        assert!((r.utilization - 0.1).abs() < 1e-9);
    }

    #[test]
    fn zero_time_is_safe() {
        let r = BaselineReport::from_traffic(10, 0.0, 10.0);
        assert_eq!(r.achieved_gbps, 0.0);
    }
}
