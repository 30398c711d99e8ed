//! Run helpers: execute SPADE variants (Base / Opt / scaled-up) on a
//! workload, with functional validation against the memoized gold kernels.
//!
//! All sweeps route through the [`crate::parallel::ParallelRunner`]; the
//! helpers here build job lists and fold their reports. `find_opt` fans the
//! whole candidate space out across host cores and picks the winner with
//! the same tie-breaking the historical serial loop used (first
//! strictly-better candidate in enumeration order wins), so the selected
//! plan and its report are identical to a serial search.

use std::sync::Arc;

use spade_core::advisor::PlanRanker;
use spade_core::{ExecutionPlan, Primitive, RunReport, SystemConfig};
use spade_matrix::analysis::MatrixFeatures;

use crate::machines;
use crate::parallel::{Job, ParallelRunner};
use crate::suite::Workload;

/// How many model-ranked candidates `spade-cli advise --exact` simulates
/// (see [`prune_candidates`]) before falling back on the Base plan
/// comparison. Covers the true optimum on the quick space (6–8 searched
/// plans) with room to spare.
pub const PRUNE_TOP_N: usize = 5;

/// Runs one SPADE execution of `primitive` on `w` under `plan`, validating
/// the functional result against the workload's cached gold output.
pub fn run_spade(
    config: &SystemConfig,
    w: &Workload,
    primitive: Primitive,
    plan: &ExecutionPlan,
) -> RunReport {
    Job::new(
        &Arc::new(w.clone()),
        &Arc::new(config.clone()),
        primitive,
        *plan,
    )
    .execute()
}

/// The SPADE Base report for a workload.
pub fn run_base(config: &SystemConfig, w: &Workload, primitive: Primitive) -> RunReport {
    run_spade(config, w, primitive, &machines::base_plan(&w.a))
}

/// The Opt candidate set for a workload: the (quick) Table 3-shaped space,
/// with the tiny row panel MYC-like matrices also try (§7.A), followed by
/// the Base plan (SPADE Opt can never be worse than Base). The ordering is
/// the contract [`select_opt`] relies on.
pub fn opt_candidates(w: &Workload, quick: bool) -> Vec<ExecutionPlan> {
    let mut space = if quick {
        machines::quick_search_space(w.k)
    } else {
        machines::search_space(w.k)
    };
    if w.a.num_rows() < 4_096 {
        space = space.with_row_panel(2);
    }
    let mut plans = space.enumerate(&w.a);
    plans.push(machines::base_plan(&w.a));
    plans
}

/// Folds the reports of [`opt_candidates`] back into the best (plan,
/// report) pair: the first strictly-fastest searched candidate, unless the
/// Base plan (last entry) ties or beats it.
///
/// # Panics
///
/// Panics if `plans`/`reports` are empty or their lengths differ.
pub fn select_opt(plans: &[ExecutionPlan], reports: &[RunReport]) -> (ExecutionPlan, RunReport) {
    assert_eq!(plans.len(), reports.len(), "one report per candidate");
    assert!(!plans.is_empty(), "empty candidate set");
    let (searched, base) = (&reports[..reports.len() - 1], &reports[reports.len() - 1]);
    let mut best: Option<usize> = None;
    for (i, r) in searched.iter().enumerate() {
        if best.is_none_or(|b| r.cycles < searched[b].cycles) {
            best = Some(i);
        }
    }
    match best {
        Some(i) if searched[i].cycles <= base.cycles => (plans[i], searched[i].clone()),
        _ => (plans[plans.len() - 1], base.clone()),
    }
}

/// Searches the (quick) Table 3-shaped space in parallel and returns the
/// best plan and its report — the SPADE Opt methodology (§7.A).
pub fn find_opt(
    config: &SystemConfig,
    w: &Workload,
    primitive: Primitive,
    quick: bool,
) -> (ExecutionPlan, RunReport) {
    best_plan(config, w, primitive, &opt_candidates(w, quick))
}

/// Simulates `plans`, a candidate list that ends with the Base plan, in
/// parallel and returns the [`select_opt`] winner.
pub fn best_plan(
    config: &SystemConfig,
    w: &Workload,
    primitive: Primitive,
    plans: &[ExecutionPlan],
) -> (ExecutionPlan, RunReport) {
    let workload = Arc::new(w.clone());
    let config = Arc::new(config.clone());
    let jobs: Vec<Job> = plans
        .iter()
        .map(|&plan| Job::new(&workload, &config, primitive, plan))
        .collect();
    let reports = ParallelRunner::from_env().run(&jobs);
    select_opt(plans, &reports)
}

/// Reduces a candidate list that ends with the Base plan to the ranker's
/// `top_n` searched plans (in original enumeration order) followed by
/// Base, so [`select_opt`]'s tie-breaking is unchanged: whenever the true
/// optimum (the first minimal-cycle searched candidate) survives the
/// pruning, the selected `(plan, report)` pair is the unpruned one.
/// Returns the input unchanged when the ranker is absent, unconfident,
/// declines to rank, or `top_n` is 0 or already covers the list.
pub fn prune_candidates(
    plans: &[ExecutionPlan],
    w: &Workload,
    config: &SystemConfig,
    ranker: Option<&dyn PlanRanker>,
    top_n: usize,
) -> Vec<ExecutionPlan> {
    let searched = plans.len().saturating_sub(1);
    let Some(model) = ranker else {
        return plans.to_vec();
    };
    if !model.confident() || top_n == 0 || searched <= top_n {
        return plans.to_vec();
    }
    let features = MatrixFeatures::compute(&w.a);
    let Some(ranked) = model.rank(&features, w.k, config.num_pes, &plans[..searched]) else {
        return plans.to_vec();
    };
    let mut keep: Vec<usize> = ranked.iter().take(top_n).map(|&(i, _)| i).collect();
    keep.sort_unstable();
    let mut pruned: Vec<ExecutionPlan> = keep.into_iter().map(|i| plans[i]).collect();
    pruned.push(plans[searched]);
    pruned
}

/// Geometric mean of a non-empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spade_matrix::generators::{Benchmark, Scale};

    #[test]
    fn geomean_of_identity() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn opt_is_never_slower_than_base() {
        let w = Workload::prepare(Benchmark::Kro, Scale::Tiny, 32);
        let cfg = machines::spade_system(8);
        let base = run_base(&cfg, &w, Primitive::Spmm);
        let (_, opt) = find_opt(&cfg, &w, Primitive::Spmm, true);
        assert!(opt.cycles <= base.cycles);
    }

    #[test]
    fn sddmm_runs_validate() {
        let w = Workload::prepare(Benchmark::Myc, Scale::Tiny, 32);
        let cfg = machines::spade_system(8);
        let r = run_base(&cfg, &w, Primitive::Sddmm);
        assert!(r.cycles > 0);
    }

    #[test]
    fn candidates_end_with_the_base_plan() {
        let w = Workload::prepare(Benchmark::Kro, Scale::Tiny, 32);
        let plans = opt_candidates(&w, true);
        assert_eq!(*plans.last().unwrap(), machines::base_plan(&w.a));
        // MYC-sized matrices add the tiny row panel.
        assert!(plans.iter().any(|p| p.tiling.row_panel_size == 2));
    }

    #[test]
    fn reports_carry_host_wall_clock_and_throughput() {
        let w = Workload::prepare(Benchmark::Myc, Scale::Tiny, 32);
        let cfg = machines::spade_system(4);
        let r = run_base(&cfg, &w, Primitive::Spmm);
        assert!(r.host_wall_ns > 0.0);
        assert!(r.sim_cycles_per_host_sec() > 0.0);
    }
}
