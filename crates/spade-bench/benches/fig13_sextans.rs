//! Figure 13: bandwidth utilization, DRAM accesses and speedup of SPADE
//! Opt, normalized to the idealized Sextans accelerator (SpMM K=32).
//!
//! Paper headline: SPADE Opt achieves ~40 % higher average bandwidth
//! utilization, 32 % fewer memory accesses (up to 73 % for ROA), and a
//! 2.4× average speedup (max 5.1×); ideal Sextans wins marginally only on
//! ORK and LIV, whose barrier-friendly behaviour resembles Sextans'
//! batched execution. Including PCIe transfers, SPADE Opt is 52.4× faster
//! for a single iteration.

use spade_bench::{bench_pes, bench_scale, machines, runner, suite::Workload, table};
use spade_core::Primitive;
use spade_matrix::generators::Benchmark;

fn main() {
    let pes = bench_pes();
    let scale = bench_scale();
    let cfg = machines::spade_system(pes);
    let sextans = machines::sextans_model();
    let xfer = machines::transfer_model();

    table::banner(
        "Figure 13: SPADE Opt vs ideal Sextans, SpMM K=32",
        "All metrics normalized to Sextans (in increasing number of rows).",
    );
    let mut benches: Vec<Benchmark> = Benchmark::ALL.to_vec();
    benches.sort_by_key(|b| b.generate(spade_matrix::generators::Scale::Tiny).num_rows());

    let mut speedups = Vec::new();
    let mut access_ratios = Vec::new();
    let mut util_ratios = Vec::new();
    let mut xfer_speedups = Vec::new();
    let mut rows = Vec::new();
    for b in benches {
        let w = Workload::prepare(b, scale, 32);
        let s = sextans.run_spmm(&w.a, w.b_for_spmm());
        let (_, opt) = runner::find_opt(&cfg, &w, Primitive::Spmm, true);

        let util_ratio = opt.dram_utilization / s.report.utilization.max(1e-9);
        let access_ratio = opt.dram_accesses as f64 / s.report.dram_accesses.max(1) as f64;
        let speedup = s.report.kernel_ns / opt.time_ns;
        // Single-iteration comparison with the PCIe transfer Sextans needs.
        let xfer_ns = xfer.spmm_roundtrip_ns(&w.a, w.b_for_spmm());
        let xfer_speedup = (s.report.kernel_ns + xfer_ns) / opt.time_ns;

        util_ratios.push(util_ratio);
        access_ratios.push(access_ratio);
        speedups.push(speedup);
        xfer_speedups.push(xfer_speedup);
        rows.push(vec![
            b.short_name().to_string(),
            table::f2(util_ratio),
            table::f2(access_ratio),
            table::f2(speedup),
            table::f2(xfer_speedup),
        ]);
    }
    table::print_table(
        &[
            "Graph",
            "BW utilization",
            "Memory accesses",
            "Speedup",
            "Speedup (incl. PCIe)",
        ],
        &rows,
    );
    println!();
    table::print_table(
        &["Metric (average)", "Measured", "Paper"],
        &[
            vec![
                "BW utilization vs Sextans".into(),
                table::f2(runner::geomean(&util_ratios)),
                "~1.4".into(),
            ],
            vec![
                "Memory accesses vs Sextans".into(),
                table::f2(runner::geomean(&access_ratios)),
                "~0.68".into(),
            ],
            vec![
                "Speedup (kernel)".into(),
                table::f2(runner::geomean(&speedups)),
                "2.4".into(),
            ],
            vec![
                "Speedup (incl. PCIe)".into(),
                table::f2(runner::geomean(&xfer_speedups)),
                "52.4".into(),
            ],
        ],
    );
}
