//! Figure 11: execution time of SpMM (K=32) across tile row-panel ×
//! column-panel settings, normalized to the worst setting, for KRO, DEL
//! and MYC.
//!
//! Paper reading: KRO (high RU) wants a small column panel and a large
//! row panel (maximizes cMatrix reuse); DEL (low RU) wants a column panel
//! spanning all columns; MYC (few rows) wants small row panels to fight
//! load imbalance.
//!
//! The whole 3-graph × 3×3-cell grid is one job list for the parallel
//! experiment engine. A column panel wider than a graph clamps to its
//! column count, so on a narrow graph two cells of a row can be the same
//! plan: each distinct plan is simulated once and every cell reads its
//! report.

use std::sync::Arc;

use spade_bench::parallel::{self, Job};
use spade_bench::{bench_pes, bench_scale, machines, suite::Workload, table};
use spade_core::{BarrierPolicy, CMatrixPolicy, ExecutionPlan, Primitive, RMatrixPolicy};
use spade_matrix::generators::Benchmark;

fn main() {
    let pes = bench_pes();
    let scale = bench_scale();
    let cfg = Arc::new(machines::spade_system(pes));
    // The bench-scaled analogue of the paper's {8k, 500k, MAX} × {64, 256,
    // 1024} grid (no bypassing, no barriers).
    let col_panels = [1_024usize, 8_192, usize::MAX];
    let row_panels = [4usize, 16, 64];
    let graphs = [Benchmark::Kro, Benchmark::Del, Benchmark::Myc];

    // Build the full grid as one job list.
    let workloads: Vec<Arc<Workload>> = graphs
        .iter()
        .map(|&b| Arc::new(Workload::prepare(b, scale, 32)))
        .collect();
    let mut jobs = Vec::new();
    // The job index of every cell, graph by graph in row-major order.
    let mut cell_jobs = Vec::new();
    for w in &workloads {
        for &rp in &row_panels {
            // Clamping keeps the ascending order, so equal panels are
            // adjacent.
            let mut last_cp = None;
            for &cp in &col_panels {
                let cp = cp.min(w.a.num_cols().max(1));
                if last_cp != Some(cp) {
                    let plan = ExecutionPlan::with_knobs(
                        rp,
                        cp,
                        RMatrixPolicy::Cache,
                        CMatrixPolicy::Cache,
                        BarrierPolicy::None,
                    )
                    .expect("valid tile knobs");
                    jobs.push(Job::new(w, &cfg, Primitive::Spmm, plan));
                    last_cp = Some(cp);
                }
                cell_jobs.push(jobs.len() - 1);
            }
        }
    }
    let reports = parallel::run_and_summarize(&jobs);

    let cells = row_panels.len() * col_panels.len();
    for (g, w) in workloads.iter().enumerate() {
        table::banner(
            &format!("Figure 11({}): SpMM K=32 tile-size sensitivity", w.name),
            "Times normalized to the worst setting; lower is better.",
        );
        let mut times = vec![vec![0f64; col_panels.len()]; row_panels.len()];
        let mut worst = 0f64;
        for (i, _) in row_panels.iter().enumerate() {
            for (j, _) in col_panels.iter().enumerate() {
                let r = &reports[cell_jobs[g * cells + i * col_panels.len() + j]];
                times[i][j] = r.time_ns;
                worst = worst.max(r.time_ns);
            }
        }
        let mut rows = Vec::new();
        for (i, &rp) in row_panels.iter().enumerate() {
            let mut row = vec![format!("RP={rp}")];
            row.extend(times[i].iter().map(|&t| table::f2(t / worst)));
            rows.push(row);
        }
        table::print_table(&["", "CP=1k", "CP=8k", "CP=MAX"], &rows);

        // Identify the best cell for the summary line.
        let (mut bi, mut bj) = (0, 0);
        for i in 0..row_panels.len() {
            for j in 0..col_panels.len() {
                if times[i][j] < times[bi][bj] {
                    (bi, bj) = (i, j);
                }
            }
        }
        println!(
            "best: RP={} CP={}",
            row_panels[bi],
            if col_panels[bj] == usize::MAX {
                "MAX".to_string()
            } else {
                col_panels[bj].to_string()
            }
        );
    }
}
