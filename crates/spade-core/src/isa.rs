//! The kernel and bypass knobs of the SPADE tile ISA (Figure 4c).
//!
//! SPADE is programmable through five coarse-grained instructions that the
//! control processing element (CPE) writes into each PE's memory-mapped
//! input registers: *Initialization*, *Tile*, *Scheduling Barrier*,
//! *WB&Invalidate* and *Termination*. Instructions are tile-granular, so
//! PEs never fetch or decode fine-grained instruction streams (§4.2).
//!
//! The simulator executes that ISA as a [`PeCommand`](crate::PeCommand)
//! stream per PE (Tile, Barrier, WbInvalidate, Terminate) plus the
//! [`RuntimeParams`](crate::pe::RuntimeParams) that the Initialization
//! instruction would carry. This module holds the enums those two share.

/// Which kernel a SPADE-mode section executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Primitive {
    /// Sparse × dense → dense.
    Spmm,
    /// Sampled dense × dense → sparse.
    Sddmm,
}

impl std::fmt::Display for Primitive {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Primitive::Spmm => write!(f, "SpMM"),
            Primitive::Sddmm => write!(f, "SDDMM"),
        }
    }
}

/// Cache-hierarchy policy for rMatrix accesses (§5.2).
///
/// The rMatrix (`D` in SpMM, `B` in SDDMM) is only reused within a single
/// PE, so caching it can pollute the shared caches. SPADE exposes three
/// choices: cache it normally, bypass all caches, or bypass while staging
/// the small reused working set in the BBF's victim cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RMatrixPolicy {
    /// Through the cache hierarchy.
    Cache,
    /// Bypass all caches (high VRF reuse case).
    Bypass,
    /// Bypass the caches but stage lines in the BBF victim cache (small
    /// reused working set, large total footprint).
    BypassVictim,
}

/// Cache-hierarchy policy for cMatrix accesses.
///
/// The cMatrix is shared across PEs and processed in row order inside a
/// tile, so VRF reuse is rare and caching is usually best (§5.2); bypass
/// remains available as a knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CMatrixPolicy {
    /// Through the cache hierarchy (the recommended default).
    Cache,
    /// Bypass all caches.
    Bypass,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_display_matches_paper() {
        assert_eq!(Primitive::Spmm.to_string(), "SpMM");
        assert_eq!(Primitive::Sddmm.to_string(), "SDDMM");
    }

    #[test]
    fn policies_are_copy_and_comparable() {
        let p = RMatrixPolicy::BypassVictim;
        let q = p;
        assert_eq!(p, q);
        assert_ne!(CMatrixPolicy::Cache, CMatrixPolicy::Bypass);
    }
}
