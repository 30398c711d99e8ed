//! The event-driven ready-queue scheduler is an optimization of the naive
//! cycle-by-cycle tick loop, not a model change: for any workload, plan,
//! fault schedule and worker count, the two drivers must produce
//! byte-identical reports, telemetry series and event traces — including
//! the committed golden trace file.

use std::sync::Arc;

use spade_bench::machines;
use spade_bench::parallel::{Job, JobOutput, ParallelRunner};
use spade_bench::suite::Workload;
use spade_core::{BarrierPolicy, ExecutionPlan, Primitive, SystemConfig};
use spade_matrix::generators::{Benchmark, Scale};
use spade_matrix::TilingConfig;
use spade_sim::FaultConfig;

/// Serializes a job output to comparable byte strings: the simulated
/// report JSON (host wall clock stripped by comparing the report struct
/// separately), the telemetry series JSON and the Chrome trace JSON.
fn observable_bytes(o: &JobOutput) -> (String, String) {
    let telemetry = o
        .telemetry
        .as_ref()
        .map(|s| s.to_json().render())
        .unwrap_or_default();
    let trace = o
        .trace
        .as_ref()
        .map(|t| t.to_chrome_json())
        .unwrap_or_default();
    (telemetry, trace)
}

/// Builds paired (event, naive) observed jobs for a fig9 subset: base
/// plans on an 8-PE machine, plus four column panels with a barrier after
/// each on a 16-PE, 4-cluster machine, where every PE blocks at each
/// barrier and a release wakes PEs in every cluster at once. On MYC and
/// KRO, Table 4's CFG0 and CFG1 also run base plans at four pipeline steps
/// per system cycle (`clock_mult = 4`), and the barrier plan also runs on
/// 72 PEs, past the first 64-PE word of the event loop's due sets (ROA,
/// the slowest graph under the naive oracle, skips these three).
fn paired_jobs() -> Vec<Job> {
    let base_machine = Arc::new(machines::spade_system(8));
    let barrier_machine = Arc::new(machines::spade_system(16));
    let cfg0 = Arc::new(SystemConfig::table4_cfg(&machines::spade_system(16), 0));
    let cfg1 = Arc::new(SystemConfig::table4_cfg(&machines::spade_system(16), 1));
    let wide_machine = Arc::new(machines::spade_system(72));
    let mut jobs = Vec::new();
    for benchmark in [Benchmark::Myc, Benchmark::Kro, Benchmark::Roa] {
        let w = Arc::new(Workload::prepare(benchmark, Scale::Tiny, 32));
        let base_plan = machines::base_plan(&w.a);
        let barrier_plan = ExecutionPlan {
            tiling: TilingConfig::new(8, w.a.num_cols().div_ceil(4)).unwrap(),
            barriers: BarrierPolicy::per_column_panel(),
            ..base_plan
        };
        let mut machines = vec![(&base_machine, base_plan), (&barrier_machine, barrier_plan)];
        if benchmark != Benchmark::Roa {
            machines.extend([
                (&cfg0, base_plan),
                (&cfg1, base_plan),
                (&wide_machine, barrier_plan),
            ]);
        }
        for (cfg, plan) in machines {
            for primitive in [Primitive::Spmm, Primitive::Sddmm] {
                let job = Job::new(&w, cfg, primitive, plan)
                    .with_telemetry(Some(128))
                    .with_trace(true);
                jobs.push(job.clone());
                jobs.push(job.with_naive_loop(true));
            }
        }
    }
    jobs
}

/// Asserts that every (event, naive) pair in `outputs` matches on the
/// report, the telemetry bytes and the trace bytes.
fn assert_pairs_identical(jobs: &[Job], outputs: &[JobOutput]) {
    for (pair, job) in outputs.chunks_exact(2).zip(jobs.chunks_exact(2)) {
        let label = format!(
            "{}/{:?}/{} PEs/clock_mult={}/barriers={}",
            job[0].workload.name,
            job[0].primitive,
            job[0].config.num_pes,
            job[0].config.pipeline.clock_mult,
            job[0].plan.barriers.is_enabled()
        );
        assert_eq!(
            pair[0].report, pair[1].report,
            "{label}: drivers disagree on the simulated report"
        );
        let (event_telemetry, event_trace) = observable_bytes(&pair[0]);
        let (naive_telemetry, naive_trace) = observable_bytes(&pair[1]);
        assert!(
            event_telemetry == naive_telemetry,
            "{label}: telemetry series differ between drivers"
        );
        assert!(
            event_trace == naive_trace,
            "{label}: event traces differ between drivers"
        );
        assert!(
            !event_trace.is_empty() && !event_telemetry.is_empty(),
            "{label}: observability was requested but came back empty"
        );
    }
}

#[test]
fn drivers_agree_on_reports_telemetry_and_traces_across_thread_counts() {
    let jobs = paired_jobs();
    let serial: Vec<JobOutput> = ParallelRunner::new(1)
        .run_outputs(&jobs)
        .into_iter()
        .map(|r| r.expect("job failed"))
        .collect();
    assert_pairs_identical(&jobs, &serial);
    // Same check through the multi-worker engine, and the engine itself
    // must be invisible: each slot byte-identical to the serial run.
    for threads in [2, 4] {
        let parallel: Vec<JobOutput> = ParallelRunner::new(threads)
            .run_outputs(&jobs)
            .into_iter()
            .map(|r| r.expect("job failed"))
            .collect();
        assert_pairs_identical(&jobs, &parallel);
        for (i, (p, s)) in parallel.iter().zip(&serial).enumerate() {
            assert_eq!(p.report, s.report, "slot {i} drifted across thread counts");
            assert_eq!(observable_bytes(p), observable_bytes(s));
        }
    }
}

#[test]
fn drivers_agree_under_nonzero_fault_plans() {
    // Fault injection perturbs latencies mid-flight — precisely the kind
    // of schedule the ready queue must reproduce cycle-for-cycle.
    for seed in [3u64, 0xC0FFEE] {
        let mut cfg = machines::spade_system(4);
        cfg.mem.faults = FaultConfig::stress(seed);
        let cfg = Arc::new(cfg);
        let w = Arc::new(Workload::prepare(Benchmark::Myc, Scale::Tiny, 32));
        let mut jobs = Vec::new();
        for primitive in [Primitive::Spmm, Primitive::Sddmm] {
            let base = Job::new(&w, &cfg, primitive, machines::base_plan(&w.a))
                .with_telemetry(Some(64))
                .with_trace(true);
            jobs.push(base.clone());
            jobs.push(base.with_naive_loop(true));
        }
        let outputs: Vec<JobOutput> = ParallelRunner::new(2)
            .run_outputs(&jobs)
            .into_iter()
            .map(|r| r.expect("faulted job failed"))
            .collect();
        let faults = outputs[0].report.mem.faults_injected;
        assert!(faults > 0, "stress({seed}) plan injected nothing");
        assert_pairs_identical(&jobs, &outputs);
    }
}

/// Replays the golden-trace recipe (`spade-cli trace myc --scale tiny
/// --k 16 --pes 4 --window 256`) under both drivers and checks both
/// against the committed file byte for byte.
#[test]
fn golden_trace_is_reproduced_by_both_drivers() {
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/trace_smoke.trace.json"
    );
    let golden = std::fs::read_to_string(golden_path).expect("golden trace file missing");

    let a = Benchmark::Myc.generate(Scale::Tiny);
    let plan = ExecutionPlan::spmm_base(&a).unwrap();
    let cfg = Arc::new(SystemConfig::scaled(4));
    let w = Arc::new(Workload::from_matrix("myc".to_string(), a, 16));
    for naive in [false, true] {
        let output = Job::new(&w, &cfg, Primitive::Spmm, plan)
            .with_telemetry(Some(256))
            .with_trace(true)
            .with_naive_loop(naive)
            .try_execute_full()
            .expect("golden workload failed");
        let mut trace = output.trace.expect("tracing produced no event log");
        let series = output.telemetry.expect("telemetry was requested");
        // Same post-processing the CLI applies before writing the file.
        let lane = cfg.num_pes as u64 + 1;
        trace.set_lane(lane, "telemetry");
        trace.add_telemetry(&series, lane);
        trace.sort_by_time();
        let driver = if naive { "naive" } else { "event-driven" };
        assert!(
            trace.to_chrome_json() == golden,
            "{driver} driver drifted from the committed golden trace"
        );
    }
}
