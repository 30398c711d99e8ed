//! Figure 10: impact of progressively adding system features (Table 4
//! CFG0 → CFG5) on DRAM accesses, LLC accesses, requests per cycle and
//! execution time, for three link latencies (60/480/960 ns).
//!
//! Paper reading: CFG1–CFG3 raise requests/cycle without reducing LLC or
//! DRAM traffic (more latency tolerance); CFG4 and CFG5 raise
//! requests/cycle while *cutting* LLC and DRAM accesses (lower average
//! latency). The gains of the progressive optimizations grow with the
//! link latency.

use spade_bench::{bench_pes, bench_scale, fast_mode, machines, runner, suite::Workload, table};
use spade_core::{Primitive, SystemConfig};
use spade_matrix::generators::Benchmark;
use spade_sim::ns_to_cycles;

fn main() {
    // CFG0/CFG1 run a quarter of the PEs in clusters of 4, so the PE count
    // is rounded down to a multiple of 16 (fast mode's 56 becomes 48).
    let pes = bench_pes() / 16 * 16;
    assert!(pes > 0, "Figure 10 needs at least 16 PEs");
    let scale = bench_scale();
    let base = machines::spade_system(pes);
    let benches: &[Benchmark] = if fast_mode() {
        &[Benchmark::Kro, Benchmark::Del, Benchmark::Roa]
    } else if spade_bench::full_search() {
        &Benchmark::ALL
    } else {
        // Two representatives per RU class keep the default run short;
        // SPADE_BENCH_FULL=1 uses all ten like the paper.
        &[
            Benchmark::Del,
            Benchmark::Roa,
            Benchmark::Liv,
            Benchmark::Ser,
            Benchmark::Ork,
            Benchmark::Kro,
        ]
    };
    let lls: &[f64] = if fast_mode() {
        &[60.0, 960.0]
    } else {
        &[60.0, 480.0, 960.0]
    };

    let workloads: Vec<Workload> = benches
        .iter()
        .map(|&b| Workload::prepare(b, scale, 32))
        .collect();

    // Reference: CFG0 at 60 ns.
    let mut reference: Option<[Vec<f64>; 4]> = None;

    for &ll_ns in lls {
        table::banner(
            &format!("Figure 10: SpMM K=32, link latency = {ll_ns} ns, {pes} PEs at CFG2-5"),
            "Geometric means over the suite, normalized to CFG0 at 60 ns.",
        );
        let mut rows = Vec::new();
        for level in 0..=5u8 {
            let mut dram = Vec::new();
            let mut llc = Vec::new();
            let mut rpc = Vec::new();
            let mut time = Vec::new();
            for w in &workloads {
                let report = if level == 5 {
                    // CFG5 = CFG4 + flexible execution (SPADE Opt); the
                    // paper evaluates it at 60 ns only.
                    if (ll_ns - 60.0).abs() > 1.0 {
                        continue;
                    }
                    let mut cfg = SystemConfig::table4_cfg(&base, 4);
                    cfg.mem.link_latency = ns_to_cycles(ll_ns);
                    runner::find_opt(&cfg, w, Primitive::Spmm, true, None, 0).1
                } else {
                    let mut cfg = SystemConfig::table4_cfg(&base, level);
                    cfg.mem.link_latency = ns_to_cycles(ll_ns);
                    runner::run_base(&cfg, w, Primitive::Spmm)
                };
                dram.push(report.dram_accesses.max(1) as f64);
                llc.push(report.llc_accesses.max(1) as f64);
                rpc.push(report.requests_per_cycle.max(1e-9));
                time.push(report.time_ns);
            }
            if dram.is_empty() {
                continue;
            }
            let metrics = [
                runner::geomean(&dram),
                runner::geomean(&llc),
                runner::geomean(&rpc),
                runner::geomean(&time),
            ];
            if reference.is_none() {
                reference = Some([dram.clone(), llc.clone(), rpc.clone(), time.clone()]);
            }
            let base_metrics: Vec<f64> = reference
                .as_ref()
                .expect("reference set on first row")
                .iter()
                .map(|v| runner::geomean(v))
                .collect();
            rows.push(vec![
                format!("CFG{level}"),
                table::f2(metrics[0] / base_metrics[0]),
                table::f2(metrics[1] / base_metrics[1]),
                table::f2(metrics[2] / base_metrics[2]),
                table::f2(metrics[3] / base_metrics[3]),
            ]);
        }
        table::print_table(
            &[
                "Config",
                "DRAM accesses",
                "LLC accesses",
                "Requests/cycle",
                "Execution time",
            ],
            &rows,
        );
    }
}
