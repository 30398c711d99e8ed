//! Execution plans: the flexibility knobs of SPADE (§2.2, §7.C).
//!
//! A plan fixes everything a programmer or compiler decides before a
//! SPADE-mode section: the tile row/column panel sizes, the cache-bypass
//! strategies of the two dense matrices, and whether scheduling barriers
//! order tile execution across PEs. `SPADE Base` uses no knobs; `SPADE Opt`
//! is, per matrix, the best-performing plan from the Table 3 search space.

use spade_matrix::{Coo, TilingConfig};

use crate::{CMatrixPolicy, RMatrixPolicy, SpadeError};

/// Whether and how the CPE inserts scheduling barriers (Figure 5b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BarrierPolicy {
    /// Tiles execute in row-panel order per PE; no cross-PE ordering.
    None,
    /// A barrier after every group of `group` column panels: all PEs
    /// finish a group before any starts the next, keeping the concurrent
    /// cMatrix working set bounded.
    EveryColumnPanels {
        /// Column panels per barrier group (≥ 1).
        group: u32,
    },
}

impl BarrierPolicy {
    /// Barrier after every single column panel.
    pub fn per_column_panel() -> Self {
        BarrierPolicy::EveryColumnPanels { group: 1 }
    }

    /// `true` if barriers are inserted.
    pub fn is_enabled(&self) -> bool {
        matches!(self, BarrierPolicy::EveryColumnPanels { .. })
    }
}

/// A complete setting of SPADE's flexibility knobs for one kernel run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExecutionPlan {
    /// Sparse-matrix tiling (row/column panel sizes).
    pub tiling: TilingConfig,
    /// rMatrix cache policy.
    pub r_policy: RMatrixPolicy,
    /// cMatrix cache policy.
    pub c_policy: CMatrixPolicy,
    /// Scheduling-barrier policy.
    pub barriers: BarrierPolicy,
}

impl ExecutionPlan {
    /// The SPADE Base plan for SpMM (§7.A): 256-row panels, one column
    /// panel spanning the whole matrix, no bypassing, no barriers.
    ///
    /// # Errors
    ///
    /// Returns [`SpadeError::Matrix`] if the matrix has zero columns.
    pub fn spmm_base(a: &Coo) -> Result<Self, SpadeError> {
        Ok(Self::base_for_cols(a.num_cols()))
    }

    /// The Base plan of [`ExecutionPlan::spmm_base`] for a matrix with
    /// `num_cols` columns, the only property of the matrix it depends on.
    pub fn base_for_cols(num_cols: usize) -> Self {
        ExecutionPlan {
            tiling: TilingConfig::new(256, num_cols.max(1)).expect("both panel sizes are positive"),
            r_policy: RMatrixPolicy::Cache,
            c_policy: CMatrixPolicy::Cache,
            barriers: BarrierPolicy::None,
        }
    }

    /// The SPADE Base plan for SDDMM — identical knob settings.
    ///
    /// # Errors
    ///
    /// Returns [`SpadeError::Matrix`] if the matrix has zero columns.
    pub fn sddmm_base(a: &Coo) -> Result<Self, SpadeError> {
        Self::spmm_base(a)
    }

    /// A plan with explicit knob settings.
    ///
    /// # Errors
    ///
    /// Returns [`SpadeError::Matrix`] for invalid panel sizes.
    pub fn with_knobs(
        row_panel: usize,
        col_panel: usize,
        r_policy: RMatrixPolicy,
        c_policy: CMatrixPolicy,
        barriers: BarrierPolicy,
    ) -> Result<Self, SpadeError> {
        Ok(ExecutionPlan {
            tiling: TilingConfig::new(row_panel, col_panel)?,
            r_policy,
            c_policy,
            barriers,
        })
    }
}

/// The SPADE Opt search space of Table 3 for a given dense row size `K`.
///
/// Row panels {64, 256, 1024}; column panels {8192, 524288, all} for K=32
/// and {2048, 131072, all} for K=128; rMatrix bypass on/off; barriers only
/// for the medium column panel. For matrices with very few rows (MYC) the
/// caller may add a row panel of 16 (§7.A).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanSearchSpace {
    /// Row panel sizes to try.
    pub row_panels: Vec<usize>,
    /// Column panel sizes to try; `usize::MAX` means "all columns".
    pub col_panels: Vec<usize>,
    /// rMatrix policies to try.
    pub r_policies: Vec<RMatrixPolicy>,
    /// Column panel size at which barriers are also tried.
    pub barrier_col_panel: usize,
}

impl PlanSearchSpace {
    /// The Table 3 space for dense row size `k`.
    pub fn table3(k: usize) -> Self {
        let (mid, small) = if k >= 128 {
            (131_072, 2_048)
        } else {
            (524_288, 8_192)
        };
        PlanSearchSpace {
            row_panels: vec![64, 256, 1024],
            col_panels: vec![small, mid, usize::MAX],
            r_policies: vec![RMatrixPolicy::Cache, RMatrixPolicy::BypassVictim],
            barrier_col_panel: mid,
        }
    }

    /// A reduced space for quick experiments: 2 row panels × 2 column
    /// panels × 2 rMatrix policies (+ barrier variants).
    pub fn quick(k: usize) -> Self {
        let mut s = Self::table3(k);
        s.row_panels = vec![64, 1024];
        s.col_panels = vec![s.col_panels[0], usize::MAX];
        s.barrier_col_panel = s.col_panels[0];
        s
    }

    /// Adds a row panel size (e.g. 16 for MYC's load balance, §7.A).
    pub fn with_row_panel(mut self, rp: usize) -> Self {
        if !self.row_panels.contains(&rp) {
            self.row_panels.insert(0, rp);
        }
        self
    }

    /// Enumerates every plan in the space for matrix `a`.
    ///
    /// Column panel sizes are clamped to the matrix width, and duplicate
    /// plans (after clamping) are removed.
    pub fn enumerate(&self, a: &Coo) -> Vec<ExecutionPlan> {
        self.enumerate_for_cols(a.num_cols())
    }

    /// Enumerates the space for a matrix with `num_cols` columns, the only
    /// property of the matrix the space depends on (see
    /// [`PlanSearchSpace::enumerate`]).
    pub fn enumerate_for_cols(&self, num_cols: usize) -> Vec<ExecutionPlan> {
        let mut plans = Vec::new();
        let ncols = num_cols.max(1);
        for &rp in &self.row_panels {
            for &cp_raw in &self.col_panels {
                let cp = cp_raw.min(ncols);
                for &rpol in &self.r_policies {
                    let barrier_options: &[BarrierPolicy] =
                        if cp_raw == self.barrier_col_panel && cp < ncols {
                            &[
                                BarrierPolicy::None,
                                BarrierPolicy::EveryColumnPanels { group: 1 },
                            ]
                        } else {
                            &[BarrierPolicy::None]
                        };
                    for &b in barrier_options {
                        if let Ok(plan) =
                            ExecutionPlan::with_knobs(rp, cp, rpol, CMatrixPolicy::Cache, b)
                        {
                            plans.push(plan);
                        }
                    }
                }
            }
        }
        plans.sort_by_key(|p| {
            (
                p.tiling.row_panel_size,
                p.tiling.col_panel_size,
                p.r_policy as u8 as usize,
                p.barriers.is_enabled() as usize,
            )
        });
        plans.dedup();
        plans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spade_matrix::Coo;

    fn matrix(cols: usize) -> Coo {
        Coo::from_triplets(cols, cols, &[(0, 0, 1.0)]).unwrap()
    }

    #[test]
    fn base_plan_spans_all_columns() {
        let a = matrix(1000);
        let p = ExecutionPlan::spmm_base(&a).unwrap();
        assert_eq!(p.tiling.row_panel_size, 256);
        assert_eq!(p.tiling.col_panel_size, 1000);
        assert!(!p.barriers.is_enabled());
        assert_eq!(p.r_policy, RMatrixPolicy::Cache);
    }

    #[test]
    fn table3_space_depends_on_k() {
        let s32 = PlanSearchSpace::table3(32);
        let s128 = PlanSearchSpace::table3(128);
        assert!(s32.col_panels.contains(&524_288));
        assert!(s128.col_panels.contains(&131_072));
    }

    #[test]
    fn enumerate_clamps_and_dedups() {
        // A small matrix: all column-panel settings clamp to the same
        // width, so plans collapse.
        let a = matrix(100);
        let plans = PlanSearchSpace::table3(32).enumerate(&a);
        // 3 RPs × 1 effective CP × 2 rMatrix policies (no barriers since
        // cp == ncols).
        assert_eq!(plans.len(), 6);
    }

    #[test]
    fn enumerate_includes_barrier_variants_for_medium_cp() {
        let a = matrix(2_000_000);
        let plans = PlanSearchSpace::table3(32).enumerate(&a);
        let with_barriers = plans.iter().filter(|p| p.barriers.is_enabled()).count();
        // Barriers only for the medium column panel: 3 RPs × 2 policies.
        assert_eq!(with_barriers, 6);
        // Total: 3 RP × 3 CP × 2 pol + 6 barrier variants = 24.
        assert_eq!(plans.len(), 24);
    }

    #[test]
    fn with_row_panel_prepends_once() {
        let s = PlanSearchSpace::table3(32)
            .with_row_panel(16)
            .with_row_panel(16);
        assert_eq!(s.row_panels, vec![16, 64, 256, 1024]);
    }

    #[test]
    fn quick_space_is_smaller() {
        let a = matrix(2_000_000);
        let quick = PlanSearchSpace::quick(32).enumerate(&a);
        let full = PlanSearchSpace::table3(32).enumerate(&a);
        assert!(quick.len() < full.len());
        assert!(!quick.is_empty());
    }

    #[test]
    fn barrier_policy_helpers() {
        assert!(BarrierPolicy::per_column_panel().is_enabled());
        assert!(!BarrierPolicy::None.is_enabled());
    }
}
