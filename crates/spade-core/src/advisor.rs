//! Structure-driven plan selection — the "inspector" role of §4.2.
//!
//! Before a SPADE-mode section, "a compiler or a programmer analyzes the
//! sparse input matrix and decides on a set of good configuration
//! parameters". [`advise`] is that analysis pass: a heuristic that reads
//! the matrix's structural statistics (degree skew, locality, row count)
//! and the target system's capacities, and picks tile sizes, bypass
//! strategies and a barrier policy *without* running the §7.A exhaustive
//! search. It encodes the paper's own findings:
//!
//! * low-RU matrices (near-diagonal, low degree) want full-width column
//!   panels and plain caching — SPADE Base is already a good fit (§7.A);
//! * high-RU, hub-heavy matrices want column panels sized to the LLC and
//!   scheduling barriers to bound the concurrent cMatrix working set
//!   (§7.C, Table 5);
//! * matrices with very few rows want small row panels to fight load
//!   imbalance (MYC in §7.A);
//! * rMatrix bypass helps when rMatrix rows are barely reused outside the
//!   VRF (low average degree per row panel), and hurts when the reused
//!   working set overflows the victim cache (Table 6).

use spade_matrix::analysis::{MatrixFeatures, MatrixStats, RestructuringUtility};
use spade_matrix::{Coo, TilingConfig, CACHE_LINE_BYTES, FLOATS_PER_LINE};

use crate::{
    BarrierPolicy, CMatrixPolicy, ExecutionPlan, PlanSearchSpace, RMatrixPolicy, SpadeError,
    SystemConfig,
};

/// Which tier of the advise policy produced a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdviseSource {
    /// A fitted cost model ranked the candidate plans.
    Model,
    /// The structural heuristic ([`advise`]) picked the plan.
    Heuristic,
    /// Exhaustive simulation (`find_opt`) picked the plan.
    Exhaustive,
}

impl AdviseSource {
    /// Stable lower-case name, used in wire responses and metric labels.
    pub fn as_str(&self) -> &'static str {
        match self {
            AdviseSource::Model => "model",
            AdviseSource::Heuristic => "heuristic",
            AdviseSource::Exhaustive => "exhaustive",
        }
    }
}

impl std::fmt::Display for AdviseSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The outcome of [`advise_tiered`]: a plan plus where it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct Advice {
    /// The selected execution plan.
    pub plan: ExecutionPlan,
    /// Which tier selected it.
    pub source: AdviseSource,
    /// The model's cycle prediction for the plan, when the model tier ran.
    pub predicted_cycles: Option<f64>,
}

/// A fitted cost model's view, as the advisor needs it: rank candidate
/// plans by predicted cycles without simulating.
///
/// Implemented by `spade-bench`'s trained `CostModel`; defined here so the
/// advisor stays free of the training machinery (spade-core cannot depend
/// on spade-bench).
pub trait PlanRanker {
    /// `true` when the model trusts its own predictions enough to drive
    /// plan selection (trained on enough rows, acceptable holdout error,
    /// matching feature-vector version). Unconfident rankers are skipped
    /// and the heuristic tier answers instead.
    fn confident(&self) -> bool;

    /// Ranks `plans` for a matrix with structural `features`, dense row
    /// size `k` and `pes` processing elements. Returns `(index into
    /// plans, predicted cycles)` sorted ascending by predicted cycles
    /// (ties broken by index), or `None` when the model cannot score
    /// these inputs.
    fn rank(
        &self,
        features: &MatrixFeatures,
        k: usize,
        pes: usize,
        plans: &[ExecutionPlan],
    ) -> Option<Vec<(usize, f64)>>;
}

/// The candidate plans the model tier ranks: the quick Table-3 space plus
/// the structural heuristic's pick and SPADE Base, deduplicated. Base is
/// always present, so a sane ranker can never do worse than the worst
/// candidate and an exhaustive sweep over this list contains the
/// heuristic answer.
///
/// # Errors
///
/// Returns [`SpadeError::Matrix`] only for degenerate shapes (zero
/// columns).
pub fn advise_candidates(
    a: &Coo,
    k: usize,
    system: &SystemConfig,
) -> Result<Vec<ExecutionPlan>, SpadeError> {
    let mut plans = PlanSearchSpace::quick(k).enumerate(a);
    let heuristic = advise(a, k, system)?;
    if !plans.contains(&heuristic) {
        plans.push(heuristic);
    }
    let base = ExecutionPlan::spmm_base(a)?;
    if !plans.contains(&base) {
        plans.push(base);
    }
    Ok(plans)
}

/// Three-tier plan selection (the default `advise` policy):
///
/// 1. **Model** — when `ranker` is present and [`PlanRanker::confident`],
///    rank the [`advise_candidates`] list and return the top plan with
///    its predicted cycles.
/// 2. **Heuristic** — otherwise fall back to the structural [`advise`].
/// 3. **Exhaustive** — full simulation is *not* run here; callers that
///    want `find_opt` ground truth invoke it explicitly (it is demoted
///    to an offline verification path).
///
/// # Errors
///
/// Returns [`SpadeError::Matrix`] only for degenerate shapes (zero
/// columns).
pub fn advise_tiered(
    a: &Coo,
    k: usize,
    system: &SystemConfig,
    ranker: Option<&dyn PlanRanker>,
) -> Result<Advice, SpadeError> {
    if let Some(model) = ranker {
        if model.confident() {
            let features = MatrixFeatures::compute(a);
            let candidates = advise_candidates(a, k, system)?;
            if let Some(ranked) = model.rank(&features, k, system.num_pes, &candidates) {
                if let Some(&(best, predicted)) = ranked.first() {
                    if best < candidates.len() && predicted.is_finite() {
                        return Ok(Advice {
                            plan: candidates[best],
                            source: AdviseSource::Model,
                            predicted_cycles: Some(predicted),
                        });
                    }
                }
            }
        }
    }
    Ok(Advice {
        plan: advise(a, k, system)?,
        source: AdviseSource::Heuristic,
        predicted_cycles: None,
    })
}

/// Picks an execution plan for `a` with dense row size `k` on `system`,
/// from structure alone (no simulation).
///
/// This is a fast heuristic, not the exhaustive `SPADE Opt` search: it is
/// expected to recover most of Opt's gain at none of its cost. Use
/// [`crate::PlanSearchSpace`] when search time is acceptable.
///
/// # Errors
///
/// Returns [`SpadeError::Matrix`] only for degenerate shapes (zero
/// columns).
pub fn advise(a: &Coo, k: usize, system: &SystemConfig) -> Result<ExecutionPlan, SpadeError> {
    let stats = MatrixStats::compute(a);
    let ru = stats.classify_ru();
    let num_pes = system.num_pes.max(1);
    let ncols = a.num_cols().max(1);
    let nrows = a.num_rows().max(1);
    let dense_row_bytes = k.max(1).div_ceil(FLOATS_PER_LINE) * CACHE_LINE_BYTES;

    // Row panel: aim for at least ~8 panels per PE so the CPE can balance
    // load; clamp so a panel still holds a few cache lines of work.
    let target_panels = num_pes * 8;
    let mut row_panel = (nrows / target_panels).max(1);
    // Hub-heavy matrices skew nnz per panel: halve the panel to give the
    // scheduler finer grains.
    if stats.degree_skew > 50.0 {
        row_panel = (row_panel / 2).max(1);
    }
    // Low-RU matrices are SPADE Base's home turf (§7.A): finer row panels
    // buy no locality and only add scheduling grains, so never go below
    // Base's 256 there. This keeps the advise floor at Base for the
    // matrices where restructuring cannot help.
    if ru == RestructuringUtility::Low {
        row_panel = row_panel.max(256);
    }

    // Column panel: low-RU matrices keep the full width (tiling buys
    // nothing, §7.A); otherwise size the panel so one cMatrix slice fits
    // comfortably in the LLC (the §5.2/§7.C working-set argument).
    let llc_bytes = system.mem.llc.size_bytes;
    let col_panel = match ru {
        RestructuringUtility::Low => ncols,
        _ => {
            let slice_rows = (llc_bytes / 2 / dense_row_bytes).max(16);
            slice_rows.min(ncols)
        }
    };

    // Barriers: only useful when the matrix is actually column-tiled and
    // reuse is worth coordinating (medium/high RU with real column cuts).
    let barriers = if col_panel < ncols && ru == RestructuringUtility::High {
        BarrierPolicy::per_column_panel()
    } else {
        BarrierPolicy::None
    };

    // rMatrix policy: with low average degree the rMatrix sees little
    // reuse beyond the VRF, so bypassing avoids cache pollution — provided
    // the per-panel rMatrix footprint fits the victim cache (the Table 6
    // overflow hazard).
    let vc_bytes = system.mem.victim.map(|v| v.size_bytes).unwrap_or(0);
    let panel_r_bytes = row_panel * dense_row_bytes;
    let low_reuse = stats.avg_degree < 4.0;
    let r_policy = if low_reuse && vc_bytes > 0 && panel_r_bytes <= vc_bytes / 2 {
        RMatrixPolicy::BypassVictim
    } else {
        RMatrixPolicy::Cache
    };

    Ok(ExecutionPlan {
        tiling: TilingConfig::new(row_panel, col_panel)?,
        r_policy,
        c_policy: CMatrixPolicy::Cache,
        barriers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spade_matrix::generators::{Benchmark, Scale};

    fn system() -> SystemConfig {
        SystemConfig::scaled(56)
    }

    #[test]
    fn low_ru_matrices_keep_full_column_panels() {
        let a = Benchmark::Roa.generate(Scale::Tiny);
        let p = advise(&a, 32, &system()).unwrap();
        assert_eq!(p.tiling.col_panel_size, a.num_cols());
        assert!(!p.barriers.is_enabled());
    }

    #[test]
    fn high_ru_matrices_get_column_tiles_and_barriers() {
        let a = Benchmark::Ork.generate(Scale::Default);
        let mut sys = system();
        // Shrink the LLC so the cMatrix cannot fit (the barrier regime).
        sys.mem.llc = spade_sim::CacheConfig::new(64 * 1024, 8);
        let p = advise(&a, 32, &sys).unwrap();
        assert!(p.tiling.col_panel_size < a.num_cols());
        assert!(p.barriers.is_enabled());
    }

    #[test]
    fn few_row_matrices_get_small_row_panels() {
        let myc = Benchmark::Myc.generate(Scale::Tiny);
        let roa = Benchmark::Roa.generate(Scale::Tiny);
        let pm = advise(&myc, 32, &system()).unwrap();
        let pr = advise(&roa, 32, &system()).unwrap();
        assert!(pm.tiling.row_panel_size < pr.tiling.row_panel_size);
    }

    #[test]
    fn rmatrix_bypass_respects_victim_capacity() {
        let a = Benchmark::Del.generate(Scale::Tiny);
        // Large K makes the per-panel rMatrix footprint overflow the VC.
        let p512 = advise(&a, 512, &system()).unwrap();
        let p32 = advise(&a, 32, &system()).unwrap();
        if p512.tiling.row_panel_size * 512 * 4 > 8 * 1024 {
            assert_eq!(p512.r_policy, RMatrixPolicy::Cache);
        }
        // Small K on small panels is the bypass sweet spot.
        let _ = p32;
    }

    #[test]
    fn advised_plans_run_correctly() {
        use crate::{run_spmm_checked, SpadeSystem};
        use spade_matrix::DenseMatrix;
        for b in [Benchmark::Kro, Benchmark::Roa, Benchmark::Myc] {
            let a = b.generate(Scale::Tiny);
            let dense = DenseMatrix::from_fn(a.num_cols(), 32, |r, c| ((r + c) % 9) as f32);
            let plan = advise(&a, 32, &system()).unwrap();
            let mut sys = SpadeSystem::new(SystemConfig::scaled(8));
            run_spmm_checked(&mut sys, &a, &dense, &plan);
        }
    }

    /// A ranker that always prefers the last candidate, for wiring tests.
    struct LastPlanRanker {
        confident: bool,
    }

    impl PlanRanker for LastPlanRanker {
        fn confident(&self) -> bool {
            self.confident
        }
        fn rank(
            &self,
            _features: &MatrixFeatures,
            _k: usize,
            _pes: usize,
            plans: &[ExecutionPlan],
        ) -> Option<Vec<(usize, f64)>> {
            Some(
                (0..plans.len())
                    .rev()
                    .enumerate()
                    .map(|(rank, idx)| (idx, 1000.0 + rank as f64))
                    .collect(),
            )
        }
    }

    #[test]
    fn advise_candidates_include_heuristic_and_base() {
        let a = Benchmark::Myc.generate(Scale::Tiny);
        let sys = system();
        let candidates = advise_candidates(&a, 32, &sys).unwrap();
        let heuristic = advise(&a, 32, &sys).unwrap();
        let base = ExecutionPlan::spmm_base(&a).unwrap();
        assert!(candidates.contains(&heuristic));
        assert!(candidates.contains(&base));
        let mut dedup = candidates.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), candidates.len(), "candidates contain dupes");
    }

    #[test]
    fn tiered_advise_uses_model_when_confident() {
        let a = Benchmark::Kro.generate(Scale::Tiny);
        let sys = system();
        let advice =
            advise_tiered(&a, 32, &sys, Some(&LastPlanRanker { confident: true })).unwrap();
        assert_eq!(advice.source, AdviseSource::Model);
        assert_eq!(advice.predicted_cycles, Some(1000.0));
        let candidates = advise_candidates(&a, 32, &sys).unwrap();
        assert_eq!(advice.plan, *candidates.last().unwrap());
    }

    #[test]
    fn tiered_advise_falls_back_when_not_confident() {
        let a = Benchmark::Kro.generate(Scale::Tiny);
        let sys = system();
        let advice =
            advise_tiered(&a, 32, &sys, Some(&LastPlanRanker { confident: false })).unwrap();
        assert_eq!(advice.source, AdviseSource::Heuristic);
        assert_eq!(advice.plan, advise(&a, 32, &sys).unwrap());
        assert_eq!(advice.predicted_cycles, None);
        let no_model = advise_tiered(&a, 32, &sys, None).unwrap();
        assert_eq!(no_model.source, AdviseSource::Heuristic);
        assert_eq!(no_model.plan, advice.plan);
    }

    #[test]
    fn advise_source_names_are_wire_stable() {
        assert_eq!(AdviseSource::Model.as_str(), "model");
        assert_eq!(AdviseSource::Heuristic.as_str(), "heuristic");
        assert_eq!(AdviseSource::Exhaustive.to_string(), "exhaustive");
    }

    #[test]
    fn advised_beats_or_matches_base_on_high_ru() {
        use crate::{run_spmm_checked, SpadeSystem};
        use spade_matrix::DenseMatrix;
        let a = Benchmark::Myc.generate(Scale::Tiny);
        let dense = DenseMatrix::from_fn(a.num_cols(), 32, |r, c| ((r * 3 + c) % 7) as f32);
        let sys_cfg = SystemConfig::scaled(8);
        let base = run_spmm_checked(
            &mut SpadeSystem::new(sys_cfg.clone()),
            &a,
            &dense,
            &ExecutionPlan::spmm_base(&a).unwrap(),
        );
        let advised_plan = advise(&a, 32, &sys_cfg).unwrap();
        let advised = run_spmm_checked(
            &mut SpadeSystem::new(sys_cfg.clone()),
            &a,
            &dense,
            &advised_plan,
        );
        assert!(
            advised.report.cycles <= base.report.cycles,
            "advised {} vs base {}",
            advised.report.cycles,
            base.report.cycles
        );
    }
}
