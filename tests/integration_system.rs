//! Whole-system integration tests: every machine model in the workspace
//! runs the same workloads and is validated against the gold kernels.

use spade::core::{
    run_sddmm_checked, run_spmm_checked, BarrierPolicy, CMatrixPolicy, ExecutionPlan, Primitive,
    RMatrixPolicy, SpadeSystem, SystemConfig,
};
use spade::matrix::generators::{Benchmark, Scale};
use spade::matrix::{reference, DenseMatrix, TilingConfig};

fn dense_for(a: &spade::matrix::Coo, k: usize) -> DenseMatrix {
    DenseMatrix::from_fn(a.num_rows().max(a.num_cols()), k, |r, c| {
        ((r * 31 + c * 7) % 23) as f32 * 0.0625 - 0.5
    })
}

#[test]
fn spade_matches_gold_on_every_benchmark_spmm() {
    for b in Benchmark::ALL {
        let a = b.generate(Scale::Tiny);
        let bm = dense_for(&a, 32);
        let mut sys = SpadeSystem::new(SystemConfig::scaled(8));
        let plan = ExecutionPlan::spmm_base(&a).unwrap();
        let run = run_spmm_checked(&mut sys, &a, &bm, &plan);
        assert!(run.report.cycles > 0, "{}", b.short_name());
        assert_eq!(run.report.total_nnz, a.nnz() as u64);
    }
}

#[test]
fn spade_matches_gold_on_every_benchmark_sddmm() {
    for b in Benchmark::ALL {
        let a = b.generate(Scale::Tiny);
        let bm = dense_for(&a, 32);
        let ct = dense_for(&a, 32);
        let mut sys = SpadeSystem::new(SystemConfig::scaled(8));
        let plan = ExecutionPlan::sddmm_base(&a).unwrap();
        let run = run_sddmm_checked(&mut sys, &a, &bm, &ct, &plan);
        assert_eq!(run.output.nnz(), a.nnz(), "{}", b.short_name());
    }
}

#[test]
fn all_plan_knob_combinations_stay_correct() {
    let a = Benchmark::Kro.generate(Scale::Tiny);
    let bm = dense_for(&a, 32);
    for rp in [4usize, 64] {
        for cp in [128usize, usize::MAX] {
            for r_policy in [
                RMatrixPolicy::Cache,
                RMatrixPolicy::Bypass,
                RMatrixPolicy::BypassVictim,
            ] {
                for barriers in [BarrierPolicy::None, BarrierPolicy::per_column_panel()] {
                    let plan = ExecutionPlan {
                        tiling: TilingConfig::new(rp, cp.min(a.num_cols())).unwrap(),
                        r_policy,
                        c_policy: CMatrixPolicy::Cache,
                        barriers,
                    };
                    let mut sys = SpadeSystem::new(SystemConfig::scaled(8));
                    run_spmm_checked(&mut sys, &a, &bm, &plan);
                }
            }
        }
    }
}

#[test]
fn table4_configs_stay_correct_and_progress_in_performance() {
    let a = Benchmark::Del.generate(Scale::Tiny);
    let bm = dense_for(&a, 32);
    let base = SystemConfig::scaled(16);
    let plan = ExecutionPlan {
        tiling: TilingConfig::new(8, a.num_cols()).unwrap(),
        r_policy: RMatrixPolicy::Cache,
        c_policy: CMatrixPolicy::Cache,
        barriers: BarrierPolicy::None,
    };
    let mut times = Vec::new();
    for level in 0..=4u8 {
        let cfg = SystemConfig::table4_cfg(&base, level);
        let mut sys = SpadeSystem::new(cfg);
        let run = run_spmm_checked(&mut sys, &a, &bm, &plan);
        times.push(run.report.time_ns);
    }
    // The paper's progression: CFG4 (full featured) beats CFG0.
    assert!(
        times[4] < times[0],
        "CFG4 {}ns should beat CFG0 {}ns",
        times[4],
        times[0]
    );
}

#[test]
fn cpu_gpu_sextans_agree_functionally() {
    let a = Benchmark::Pap.generate(Scale::Tiny);
    let bm = dense_for(&a, 32);
    let gold = reference::spmm(&a, &bm);

    let cpu = spade::baselines::cpu::CpuModel::new(spade::baselines::cpu::CpuConfig::small_test(4));
    assert!(reference::dense_close(
        &cpu.run_spmm(&a, &bm).output,
        &gold,
        1e-4
    ));

    let gpu = spade::baselines::gpu::GpuModel::new(spade::baselines::gpu::GpuConfig::v100());
    assert!(reference::dense_close(
        &gpu.run_spmm(&a, &bm).output,
        &gold,
        1e-4
    ));

    let sx = spade::baselines::sextans::SextansModel::new(
        spade::baselines::sextans::SextansConfig::idealized(),
    );
    assert!(reference::dense_close(
        &sx.run_spmm(&a, &bm).output,
        &gold,
        1e-4
    ));
}

#[test]
fn scaled_up_system_is_not_slower_on_parallel_work() {
    // A mesh has abundant row panels: doubling the machine must help.
    let a = Benchmark::Del.generate(Scale::Tiny);
    let bm = dense_for(&a, 32);
    let plan = ExecutionPlan {
        tiling: TilingConfig::new(8, a.num_cols()).unwrap(),
        r_policy: RMatrixPolicy::Cache,
        c_policy: CMatrixPolicy::Cache,
        barriers: BarrierPolicy::None,
    };
    let base = SystemConfig::scaled(16);
    let t1 = run_spmm_checked(&mut SpadeSystem::new(base.clone()), &a, &bm, &plan)
        .report
        .time_ns;
    let t2 = run_spmm_checked(&mut SpadeSystem::new(base.scaled_up(2)), &a, &bm, &plan)
        .report
        .time_ns;
    assert!(t2 < t1, "2x system {t2}ns vs base {t1}ns");
}

#[test]
fn k128_and_k32_both_validate() {
    let a = Benchmark::Ser.generate(Scale::Tiny);
    for k in [32usize, 128] {
        let bm = dense_for(&a, k);
        let mut sys = SpadeSystem::new(SystemConfig::scaled(8));
        let plan = ExecutionPlan::spmm_base(&a).unwrap();
        let run = run_spmm_checked(&mut sys, &a, &bm, &plan);
        assert_eq!(
            run.report.total_vops,
            a.nnz() as u64 * (k / 16) as u64,
            "K={k}"
        );
    }
}

#[test]
fn energy_model_consumes_reports() {
    let a = Benchmark::Kro.generate(Scale::Tiny);
    let bm = dense_for(&a, 32);
    let mut sys = SpadeSystem::new(SystemConfig::scaled(8));
    let run = run_spmm_checked(&mut sys, &a, &bm, &ExecutionPlan::spmm_base(&a).unwrap());
    let breakdown = spade::energy::EnergyModel::spade_10nm().power_breakdown(&run.report, 8);
    assert!(breakdown.total_w() > 0.0);
    let f = breakdown.fractions();
    assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    // DRAM dominates SPADE-mode power (Figure 14).
    assert!(f[3] > 0.3, "DRAM fraction {}", f[3]);
}

#[test]
fn primitive_display_names() {
    assert_eq!(Primitive::Spmm.to_string(), "SpMM");
    assert_eq!(Primitive::Sddmm.to_string(), "SDDMM");
}
