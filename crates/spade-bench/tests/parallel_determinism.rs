//! The parallel experiment engine must be invisible in the results: for
//! the same job list, any worker count returns bit-identical reports in
//! the same (job) order as the serial path.

use std::sync::Arc;

use spade_bench::machines;
use spade_bench::parallel::{Job, ParallelRunner};
use spade_bench::runner;
use spade_bench::suite::Workload;
use spade_core::{Primitive, RunReport, SystemConfig};
use spade_matrix::generators::{Benchmark, Scale};

/// A mixed job list: two graphs × both primitives × several plans, all
/// sharing workloads and the machine config.
fn job_list() -> Vec<Job> {
    let cfg = Arc::new(machines::spade_system(4));
    let mut jobs = Vec::new();
    for benchmark in [Benchmark::Myc, Benchmark::Kro] {
        let w = Arc::new(Workload::prepare(benchmark, Scale::Tiny, 32));
        for primitive in [Primitive::Spmm, Primitive::Sddmm] {
            for plan in runner::opt_candidates(&w, true) {
                jobs.push(Job::new(&w, &cfg, primitive, plan));
            }
        }
    }
    jobs
}

#[test]
fn parallel_reports_are_bit_identical_to_serial() {
    let jobs = job_list();
    let serial: Vec<RunReport> = ParallelRunner::new(1).run(&jobs);
    for threads in [2, 4, 8] {
        let parallel = ParallelRunner::new(threads).run(&jobs);
        // RunReport equality covers every simulated metric (cycles, vOps,
        // cache/DRAM counters, bandwidth) — only the host wall clock is
        // excluded.
        assert_eq!(
            parallel, serial,
            "{threads}-thread run diverged from the serial reference"
        );
    }
}

#[test]
fn find_opt_is_deterministic_across_runs() {
    let cfg: SystemConfig = machines::spade_system(4);
    let w = Workload::prepare(Benchmark::Myc, Scale::Tiny, 32);
    let (plan_a, report_a) = runner::find_opt(&cfg, &w, Primitive::Spmm, true);
    let (plan_b, report_b) = runner::find_opt(&cfg, &w, Primitive::Spmm, true);
    assert_eq!(plan_a, plan_b);
    assert_eq!(report_a, report_b);
}

#[test]
fn duplicate_heavy_lists_still_return_per_slot_reports() {
    let cfg = Arc::new(machines::spade_system(4));
    let w = Arc::new(Workload::prepare(Benchmark::Myc, Scale::Tiny, 32));
    let plan = machines::base_plan(&w.a);
    let job = Job::new(&w, &cfg, Primitive::Spmm, plan);
    let jobs = vec![job.clone(), job.clone(), job.clone(), job];
    let reports = ParallelRunner::new(4).run(&jobs);
    assert_eq!(reports.len(), 4);
    for r in &reports[1..] {
        assert_eq!(*r, reports[0]);
    }
}
