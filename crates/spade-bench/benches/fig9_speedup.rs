//! Figure 9: speedup of the SPADE variants and the GPU (ignoring data
//! transfers) over the CPU, for SpMM and SDDMM at K = 32 and K = 128.
//!
//! Paper headline (averages over all four panels): SPADE Base 1.67×,
//! SPADE Opt 2.32×, SPADE2 Base 3.52× over the CPU; 1.03× / 1.34× / 2.00×
//! over the GPU. Low-RU matrices favour the GPU's higher bandwidth;
//! high/medium-RU matrices favour SPADE Opt's flexibility.
//!
//! All SPADE simulations for one panel (per graph: the Opt candidate
//! sweep + the scaled-up SPADE2 Base) go through the parallel experiment
//! engine as one job list. There is no separate Base job: Base is the
//! sweep's trailing entry, so each graph simulates it once.

use std::sync::Arc;

use spade_bench::parallel::{self, Job};
use spade_bench::{
    bench_pes, bench_scale, fast_mode, full_search, machines, runner, suite::Workload, table,
};
use spade_core::Primitive;
use spade_matrix::generators::Benchmark;

fn main() {
    let pes = bench_pes();
    let scale = bench_scale();
    let spade1 = Arc::new(machines::spade_system(pes));
    let spade2 = Arc::new(spade1.scaled_up(2));
    let cpu = machines::cpu_model();
    let gpu = machines::gpu_model();
    let ks: &[usize] = if fast_mode() { &[32] } else { &[32, 128] };
    let kernels: &[Primitive] = if fast_mode() {
        &[Primitive::Spmm]
    } else {
        &[Primitive::Spmm, Primitive::Sddmm]
    };

    let mut all_base = Vec::new();
    let mut all_opt = Vec::new();
    let mut all_s2 = Vec::new();
    let mut all_gpu = Vec::new();

    for &kernel in kernels {
        for &k in ks {
            table::banner(
                &format!(
                    "Figure 9: {kernel} K={k} — speedup over the {}-core CPU",
                    cpu.config().cores
                ),
                &format!(
                    "{pes}-PE SPADE, suite scale {scale:?}; GPU ignores host-device transfers."
                ),
            );

            // One shared workload per graph; one job list for the whole
            // panel. Per graph the list holds: the Opt candidate sweep
            // (whose last entry IS the Base plan), then SPADE2 Base.
            let workloads: Vec<Arc<Workload>> = Benchmark::ALL
                .iter()
                .map(|&b| Arc::new(Workload::prepare(b, scale, k)))
                .collect();
            let mut jobs = Vec::new();
            let mut candidate_plans = Vec::new();
            for w in &workloads {
                let plans = runner::opt_candidates(w, !full_search());
                for &plan in &plans {
                    jobs.push(Job::new(w, &spade1, kernel, plan));
                }
                jobs.push(Job::new(w, &spade2, kernel, machines::base_plan(&w.a)));
                candidate_plans.push(plans);
            }
            let reports = parallel::run_and_summarize(&jobs);

            let mut rows = Vec::new();
            let mut cursor = 0;
            for (w, plans) in workloads.iter().zip(&candidate_plans) {
                let searched = &reports[cursor..cursor + plans.len()];
                // The Base plan is the trailing candidate by contract.
                let base = searched.last().expect("non-empty candidates").clone();
                let (opt_plan, opt) = runner::select_opt(plans, searched);
                let s2 = reports[cursor + plans.len()].clone();
                cursor += plans.len() + 1;

                let cpu_ns = match kernel {
                    Primitive::Spmm => cpu.run_spmm(&w.a, w.b_for_spmm()).report.kernel_ns,
                    Primitive::Sddmm => cpu.run_sddmm(&w.a, &w.b, &w.c_t).report.kernel_ns,
                };
                let (gpu_ns, fits) = match kernel {
                    Primitive::Spmm => {
                        let g = gpu.run_spmm(&w.a, w.b_for_spmm());
                        (g.report.kernel_ns, g.fits_memory)
                    }
                    Primitive::Sddmm => {
                        let g = gpu.run_sddmm(&w.a, &w.b, &w.c_t);
                        (g.report.kernel_ns, g.fits_memory)
                    }
                };
                // Paper convention: speedup 1 when the matrix does not fit
                // the GPU memory.
                let gpu_speedup = if fits { cpu_ns / gpu_ns } else { 1.0 };

                let (bs, os, s2s) = (
                    cpu_ns / base.time_ns,
                    cpu_ns / opt.time_ns,
                    cpu_ns / s2.time_ns,
                );
                all_base.push(bs);
                all_opt.push(os);
                all_s2.push(s2s);
                all_gpu.push(gpu_speedup);
                rows.push(vec![
                    w.name.clone(),
                    w.benchmark
                        .expect("suite workload")
                        .expected_ru()
                        .to_string(),
                    table::f2(gpu_speedup),
                    table::f2(bs),
                    table::f2(os),
                    table::f2(s2s),
                    format!(
                        "rp={} cp={} {:?} barriers={}",
                        opt_plan.tiling.row_panel_size,
                        if opt_plan.tiling.col_panel_size >= w.a.num_cols() {
                            "all".to_string()
                        } else {
                            opt_plan.tiling.col_panel_size.to_string()
                        },
                        opt_plan.r_policy,
                        opt_plan.barriers.is_enabled(),
                    ),
                ]);
            }
            table::print_table(
                &[
                    "Graph",
                    "RU",
                    "GPU(kernel)",
                    "SPADE Base",
                    "SPADE Opt",
                    "SPADE2 Base",
                    "Opt plan",
                ],
                &rows,
            );
        }
    }

    table::banner("Figure 9 summary (geometric means over all panels)", "");
    table::print_table(
        &["Variant", "Speedup vs CPU", "Paper"],
        &[
            vec![
                "GPU (kernel)".into(),
                table::f2(runner::geomean(&all_gpu)),
                "~1.7".into(),
            ],
            vec![
                "SPADE Base".into(),
                table::f2(runner::geomean(&all_base)),
                "1.67".into(),
            ],
            vec![
                "SPADE Opt".into(),
                table::f2(runner::geomean(&all_opt)),
                "2.32".into(),
            ],
            vec![
                "SPADE2 Base".into(),
                table::f2(runner::geomean(&all_s2)),
                "3.52".into(),
            ],
        ],
    );
}
