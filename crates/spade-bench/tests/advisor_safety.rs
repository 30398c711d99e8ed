//! Safety properties of the three-tier `advise` policy.
//!
//! Whatever tier answers — fitted model, structural heuristic, or
//! exhaustive search — the contract is the same: the returned plan must
//! actually run (valid tiling, correct SpMM result), and on the tiny
//! suite it must never be slower than the SPADE Base plan the user would
//! have gotten for free. The fuzz leg drives the tiers over mutated
//! MatrixMarket documents, so structurally weird-but-parsable matrices
//! (empty rows, single columns, duplicate-free noise) are covered, not
//! just the curated benchmark generators. Seeded with the in-tree
//! `Rng64`, so failures reproduce exactly.

use std::io::Cursor;

use spade_bench::model::{CostModel, TrainingRow};
use spade_bench::runner::find_opt;
use spade_bench::suite::Workload;
use spade_core::advisor::{advise, advise_tiered, AdviseSource};
use spade_core::{
    run_spmm_checked, ExecutionPlan, Primitive, RMatrixPolicy, SpadeSystem, SystemConfig,
};
use spade_matrix::analysis::MatrixFeatures;
use spade_matrix::generators::{Benchmark, Scale};
use spade_matrix::mm::{read_matrix_market, write_matrix_market};
use spade_matrix::rng::Rng64;
use spade_matrix::{Coo, DenseMatrix};

/// A confident cost model fitted on an exactly log-linear synthetic law
/// (`cycles = row_panel * 1000`), so `fit` converges with a tiny holdout
/// error and `confident()` is true without running any simulation.
fn synthetic_model() -> CostModel {
    let mut rows = Vec::new();
    for b in Benchmark::ALL {
        let a = b.generate(Scale::Tiny);
        let f = MatrixFeatures::compute(&a).as_vec();
        for rp in [64usize, 256, 1024] {
            for cp in [a.num_cols().max(1), 512] {
                for r_policy in [RMatrixPolicy::Cache, RMatrixPolicy::BypassVictim] {
                    rows.push(TrainingRow {
                        benchmark: b.short_name().to_string(),
                        features: f.clone(),
                        row_panel: rp,
                        col_panel: cp,
                        r_policy,
                        barriers: false,
                        k: 16,
                        pes: 4,
                        cycles: (rp as u64) * 1000,
                    });
                }
            }
        }
    }
    CostModel::fit(&rows).expect("fit synthetic model")
}

/// A well-formed seed document to mutate (same recipe as `mm_fuzz`).
fn seed_doc(rng: &mut Rng64) -> Vec<u8> {
    let n = rng.gen_range(4..24usize);
    let mut triplets = Vec::new();
    for _ in 0..rng.gen_range(1..48usize) {
        triplets.push((
            rng.gen_range(0..n) as u32,
            rng.gen_range(0..n) as u32,
            rng.gen_range(1..1000u32) as f32 * 0.125,
        ));
    }
    triplets.sort_by_key(|t| (t.0, t.1));
    triplets.dedup_by_key(|t| (t.0, t.1));
    let coo = Coo::from_triplets(n, n, &triplets).unwrap();
    let mut buf = Vec::new();
    write_matrix_market(&coo, &mut buf).unwrap();
    buf
}

/// Runs `plan` end to end with the correctness check; a plan that cannot
/// execute (bad tiling, scheduler wedge, wrong numerics) fails loudly.
fn assert_plan_runs(a: &Coo, k: usize, config: &SystemConfig, plan: &ExecutionPlan) {
    let dense = DenseMatrix::from_fn(a.num_cols(), k, |r, c| ((r * 3 + c) % 7) as f32);
    run_spmm_checked(&mut SpadeSystem::new(config.clone()), a, &dense, plan);
}

/// Fuzz leg: every matrix that survives the MatrixMarket parser — however
/// mutated — gets a runnable plan from the model tier, the heuristic
/// tier, and (on a sampled subset; it simulates) the exhaustive tier.
/// Degenerate shapes (zero columns) may be rejected, but only with a
/// typed error, never a panic or an invalid plan.
#[test]
fn mutated_matrix_market_inputs_always_yield_runnable_plans() {
    let mut rng = Rng64::seed_from_u64(0x5AFE_AD51);
    let model = synthetic_model();
    let config = SystemConfig::scaled(4);
    let k = 16;
    let mut parsed = 0usize;
    let mut exhaustive_checked = 0usize;
    for _ in 0..30 {
        let doc = seed_doc(&mut rng);
        for _ in 0..8 {
            let mut m = doc.clone();
            for _ in 0..rng.gen_range(1..6usize) {
                let i = rng.gen_range(0..m.len());
                match rng.gen_range(0..3u32) {
                    0 => m[i] ^= 1 << rng.gen_range(0..8u32),
                    1 => m[i] = rng.next_u64() as u8,
                    _ => {
                        let b = m[i];
                        m.insert(i, b);
                    }
                }
            }
            let Ok(a) = read_matrix_market(Cursor::new(m)) else {
                continue;
            };
            // Byte mutations can inflate the header dimensions; bound the
            // simulated shapes so the corpus stays fast.
            if a.num_rows() == 0 || a.num_rows() > 20_000 || a.num_cols() > 20_000 {
                continue;
            }
            parsed += 1;

            match advise(&a, k, &config) {
                Ok(plan) => assert_plan_runs(&a, k, &config, &plan),
                Err(e) => assert!(a.num_cols() == 0, "heuristic rejected a sane matrix: {e}"),
            }

            match advise_tiered(&a, k, &config, Some(&model)) {
                Ok(advice) => {
                    assert!(
                        matches!(advice.source, AdviseSource::Model | AdviseSource::Heuristic),
                        "fast path must never claim the exhaustive tier"
                    );
                    assert_plan_runs(&a, k, &config, &advice.plan);
                }
                Err(e) => assert!(a.num_cols() == 0, "tiered rejected a sane matrix: {e}"),
            }

            if exhaustive_checked < 3 && a.num_cols() > 0 && a.nnz() > 0 {
                let w = Workload::from_matrix(format!("fuzz{parsed}"), a.clone(), k);
                let (plan, report) = find_opt(&config, &w, Primitive::Spmm, true, None, 0);
                assert!(report.cycles > 0, "exhaustive tier returned an empty run");
                assert_plan_runs(&a, k, &config, &plan);
                exhaustive_checked += 1;
            }
        }
    }
    assert!(
        parsed >= 20,
        "mutation corpus too hostile: only {parsed} documents parsed"
    );
    assert_eq!(exhaustive_checked, 3, "exhaustive tier never sampled");
}

/// Suite leg: on every tiny benchmark the fast advise path (model tier
/// and the bare heuristic) returns a plan at least as fast as SPADE Base.
/// This is the no-regression floor of the three-tier policy: asking for
/// advice must never be worse than not asking.
#[test]
fn advised_plan_never_slower_than_base_on_tiny_suite() {
    let config = SystemConfig::scaled(8);
    let k = 32;
    for b in Benchmark::ALL {
        let a = b.generate(Scale::Tiny);
        let dense = DenseMatrix::from_fn(a.num_cols(), k, |r, c| ((r * 3 + c) % 7) as f32);
        let base_plan = ExecutionPlan::spmm_base(&a).unwrap();
        let base = run_spmm_checked(
            &mut SpadeSystem::new(config.clone()),
            &a,
            &dense,
            &base_plan,
        );
        let advice = advise_tiered(&a, k, &config, None).unwrap();
        assert_eq!(advice.plan, advise(&a, k, &config).unwrap());
        let advised = run_spmm_checked(
            &mut SpadeSystem::new(config.clone()),
            &a,
            &dense,
            &advice.plan,
        );
        assert!(
            advised.report.cycles <= base.report.cycles,
            "{}: advised plan {:?} took {} cycles vs base {}",
            b.short_name(),
            advice.plan,
            advised.report.cycles,
            base.report.cycles
        );
    }
}
