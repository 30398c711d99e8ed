//! The `sweep` workload: a researcher's Fig. 9 run, simulated in-process
//! through the library the Fig. 9 bench uses — Base SpMM and SDDMM on all
//! ten graphs plus the quick-search Opt candidates on two graphs, as
//! independent jobs on a two-worker `ParallelRunner`.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

use spade_bench::parallel::{Job, ParallelRunner};
use spade_bench::service::canonical_report;
use spade_bench::suite::Workload;
use spade_bench::{machines, runner};
use spade_core::{Primitive, RunReport, Schedule, SpadeSystem, SystemConfig};
use spade_matrix::generators::{Benchmark, Scale};
use spade_matrix::{reference, TiledCoo};
use spade_sim::{JsonValue, LevelKind};

use crate::host;
use crate::inputs;
use crate::metrics::{self, Outcome};
use crate::spans::{self, Recorder, Span};
use crate::Run;

/// Set-ups per untraced run; `setup_s` is their median. One set-up takes
/// about 0.2 s and varies by a third from one to the next.
const SETUPS: usize = 9;

/// Dense row size of every job (the Fig. 9 K).
const K: usize = 32;

/// `ParallelRunner` workers: both cores of the host the benchmark was
/// sized on.
const WORKERS: usize = 2;

/// How a job list entry picks its plan.
#[derive(Clone, Copy, PartialEq)]
enum Plan {
    /// `machines::base_plan`: the Fig. 9 Base.
    Base,
    /// Every quick-search Opt candidate but the last, which is Base.
    OptCandidates,
}

struct Shape {
    scale: Scale,
    config: SystemConfig,
    jobs: Vec<(Benchmark, Primitive, Plan)>,
}

fn shape(smoke: bool) -> Shape {
    let mut jobs = Vec::new();
    for b in Benchmark::ALL {
        jobs.push((b, Primitive::Spmm, Plan::Base));
        jobs.push((b, Primitive::Sddmm, Plan::Base));
    }
    // Opt candidates on a low-RU graph wide enough for the barrier plans
    // (DEL) and on the tiny-row-panel fractal (MYC).
    if !smoke {
        jobs.push((Benchmark::Del, Primitive::Spmm, Plan::OptCandidates));
    }
    jobs.push((Benchmark::Myc, Primitive::Spmm, Plan::OptCandidates));
    Shape {
        scale: if smoke { Scale::Tiny } else { Scale::Small },
        config: machines::spade_system(56),
        jobs,
    }
}

/// Generates the seeded graphs, their dense operands and gold outputs —
/// the set-up `setup_s` times — recording spans when `rec` is given, and
/// returns the job list.
fn prepare(shape: &Shape, seed: u64, mut rec: Option<&mut Recorder>) -> Vec<Job> {
    let mut workloads: Vec<(Benchmark, Arc<Workload>)> = Vec::new();
    for &(b, _, _) in &shape.jobs {
        if workloads.iter().any(|(g, _)| *g == b) {
            continue;
        }
        let group = workloads.len() as u64;
        let a = timed(&mut rec, "generators.generate", group, || {
            inputs::graph(b, shape.scale, seed)
        });
        let w = timed(&mut rec, "suite.prepare", group, || {
            Workload::from_matrix(b.short_name(), a, K)
        });
        for prim in [Primitive::Spmm, Primitive::Sddmm] {
            if shape.jobs.iter().any(|j| j.0 == b && j.1 == prim) {
                timed(&mut rec, "reference.gold", group, || match prim {
                    Primitive::Spmm => {
                        w.gold_spmm();
                    }
                    Primitive::Sddmm => {
                        w.gold_sddmm();
                    }
                });
            }
        }
        workloads.push((b, Arc::new(w)));
    }
    let config = Arc::new(shape.config.clone());
    let mut jobs = Vec::new();
    for &(b, prim, plan) in &shape.jobs {
        let (_, w) = workloads.iter().find(|(g, _)| *g == b).expect("jobs above");
        match plan {
            Plan::Base => jobs.push(Job::new(w, &config, prim, machines::base_plan(&w.a))),
            Plan::OptCandidates => {
                let plans = runner::opt_candidates(w, true);
                let searched = &plans[..plans.len() - 1];
                jobs.extend(searched.iter().map(|&p| Job::new(w, &config, prim, p)));
            }
        }
    }
    jobs
}

fn timed<T>(
    rec: &mut Option<&mut Recorder>,
    name: &'static str,
    group: u64,
    f: impl FnOnce() -> T,
) -> T {
    match rec {
        Some(r) => r.span(name, group, |_| f()),
        None => f(),
    }
}

/// One untraced pass over the job list: per-job reports (or errors) and
/// CPU times, plus the pass's wall time and stolen time.
struct Pass {
    reports: Vec<Result<RunReport, String>>,
    /// Each job's CPU seconds on its worker thread.
    job_cpu_s: Vec<f64>,
    wall_s: f64,
    /// Seconds the hypervisor took from the host's CPUs during the pass.
    stolen_s: f64,
}

fn run_pass(jobs: &[Job]) -> Pass {
    let (start, stolen0) = (Instant::now(), host::steal_seconds());
    let timed = |job: &Job| {
        let t = host::thread_cpu_s();
        let r = no_retry(|| job.try_execute().map_err(|e| e.to_string()));
        (r, host::thread_cpu_s() - t)
    };
    // `run_tasks` is the pool under `ParallelRunner::run_results`; the job
    // list has no duplicates, so this is the same work with each job's
    // CPU time visible.
    let results: Vec<(Result<RunReport, String>, f64)> = ParallelRunner::new(WORKERS)
        .run_tasks(jobs.len(), |i| Ok(timed(&jobs[i])))
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| (Err(format!("task failed: {}", e.message)), 0.0)))
        .collect();
    let wall_s = start.elapsed().as_secs_f64();
    let stolen_s = host::steal_seconds() - stolen0;
    let (reports, job_cpu_s) = results.into_iter().unzip();
    Pass {
        reports,
        job_cpu_s,
        wall_s,
        stolen_s,
    }
}

/// Runs `f`, turning a panic into an error: a job that panics counts as
/// failed even though the runner would retry it once.
pub fn no_retry<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .unwrap_or_else(|_| Err("panicked".into()))
}

/// The canonical (host-field-free) JSON of a report: what the daemon
/// stores and what the output digest covers.
fn canonical_json(report: &RunReport) -> String {
    canonical_report(report).to_json().render()
}

/// Prints the digest and exact totals of one pass's simulated outputs.
fn print_outputs(workload: &str, seed: u64, reports: &[RunReport]) {
    let mut digest = host::FNV_OFFSET;
    for r in reports {
        digest = host::fnv(digest, canonical_json(r).as_bytes());
    }
    println!(
        "outputs {workload} seed={seed} jobs={} digest={digest:016x} system.sim_cycles={} system.vops={} dram.accesses={}",
        reports.len(),
        reports.iter().map(|r| r.cycles).sum::<u64>(),
        reports.iter().map(|r| r.total_vops).sum::<u64>(),
        reports.iter().map(|r| r.dram_accesses).sum::<u64>(),
    );
}

/// A pass's job CPU seconds (`None` for a failed job) and the host speed
/// while it ran.
struct Timed {
    job_cpu_s: Vec<Option<f64>>,
    speed: f64,
}

/// Sets the time-based end-to-end metrics from set-up and pass CPU
/// times, each multiplied by the host speed while it was measured (speed
/// 1 everywhere gives the values as measured).
fn set_timed_metrics(
    out: &mut Outcome,
    setup_s: &[f64],
    setup_speed: f64,
    passes: &[Timed],
    cycles: u64,
) {
    let pass_s: Vec<f64> = passes
        .iter()
        .map(|p| p.job_cpu_s.iter().flatten().sum::<f64>() * p.speed)
        .collect();
    let jobs = passes.first().map_or(0, |p| p.job_cpu_s.len());
    let job_ms: Vec<f64> = (0..jobs)
        .filter_map(|j| {
            let ms: Vec<f64> = passes
                .iter()
                .filter_map(|p| p.job_cpu_s[j].map(|s| s * 1e3 * p.speed))
                .collect();
            (!ms.is_empty()).then(|| metrics::median(&ms))
        })
        .collect();
    let lat = metrics::sorted(&job_ms);
    let cpu_s = metrics::median(&pass_s);
    out.set("setup_s", metrics::median(setup_s) * setup_speed);
    out.set("sim_mcycles_per_s", cycles as f64 / cpu_s / 1e6);
    out.set("req_p50_ms", metrics::quantile(&lat, 0.5));
    out.set("req_p99_ms", metrics::quantile(&lat, 0.99));
    out.set("req_per_s", jobs as f64 / cpu_s);
}

pub fn untraced(run: &Run) -> Result<Outcome, String> {
    let shape = shape(run.smoke);
    let origin = Instant::now();
    let ns = || origin.elapsed().as_nanos() as u64;
    let probe = host::HostProbe::start(origin);
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut jobs = None;
    let setup_from = ns();
    for _ in 0..SETUPS {
        // Drop the previous set first: only one is ever resident.
        drop(jobs.take());
        let t = host::thread_cpu_s();
        jobs = Some(prepare(&shape, run.seed, None));
        setup_s.push(host::thread_cpu_s() - t);
    }
    let setup_to = ns();
    let jobs = jobs.expect("at least one set-up");
    // Each job's first report, which its repeats must reproduce, and every
    // pass with its start and end. Passes repeat while another one fits in
    // `--seconds`.
    let mut first: Vec<Option<RunReport>> = vec![None; jobs.len()];
    let mut passes: Vec<(Pass, u64, u64)> = Vec::new();
    let start = Instant::now();
    loop {
        let from = ns();
        let mut pass = run_pass(&jobs);
        let p = passes.len();
        for (j, result) in std::mem::take(&mut pass.reports).into_iter().enumerate() {
            let check = match (result, &first[j]) {
                (Err(e), _) => Err(format!("job {j}: {e}")),
                (Ok(r), Some(f)) if r != *f => {
                    Err(format!("job {j}: repeat {p} changed the simulated report"))
                }
                (Ok(r), _) => {
                    first[j].get_or_insert(r);
                    Ok(())
                }
            };
            if check.is_err() {
                pass.job_cpu_s[j] = f64::NAN;
            }
            out.check(check);
        }
        let wall_s = pass.wall_s;
        passes.push((pass, from, ns()));
        if start.elapsed().as_secs_f64() + wall_s > run.seconds {
            break;
        }
    }
    let reports: Vec<RunReport> = first.into_iter().flatten().collect();
    if reports.is_empty() {
        return Err(format!(
            "every job failed, first: {:?}",
            out.failures.first()
        ));
    }
    print_outputs(&run.workload, run.seed, &reports);
    let cycles: u64 = reports.iter().map(|r| r.cycles).sum();

    // Time is CPU time: the hypervisor of a shared host takes whole
    // stretches of the guest's CPUs away, which stretches wall time but
    // not the CPU time the simulation ran for. How fast those CPUs ran
    // while each pass (and the set-up) was measured is the probe's part.
    let samples = probe.finish();
    let speed = |from: u64, to: u64| host::host_speed(host::samples_between(&samples, from, to));
    let timed = |scaled: bool| -> Vec<Timed> {
        passes
            .iter()
            .map(|(pass, from, to)| Timed {
                job_cpu_s: pass
                    .job_cpu_s
                    .iter()
                    .map(|&s| (!s.is_nan()).then_some(s))
                    .collect(),
                speed: if scaled { speed(*from, *to) } else { 1.0 },
            })
            .collect()
    };
    let mut measured = Outcome::default();
    set_timed_metrics(&mut measured, &setup_s, 1.0, &timed(false), cycles);
    measured.print_measured(host::host_speed(&samples));
    let scaled = timed(true);
    let setup_speed = speed(setup_from, setup_to);
    set_timed_metrics(&mut out, &setup_s, setup_speed, &scaled, cycles);
    let rounded = |v: Vec<f64>| {
        v.iter()
            .map(|w| (w * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    };
    println!(
        "set-ups: CPU {:?} s, host speed {setup_speed:.3}",
        rounded(setup_s.clone())
    );
    println!(
        "jobs: {} per pass on {} worker(s); pass wall {:?} s, job CPU {:?} s, stolen {:?} s, \
         host speed {:?}; fail_ratio {}/{}",
        jobs.len(),
        WORKERS,
        rounded(passes.iter().map(|p| p.0.wall_s).collect()),
        rounded(
            passes
                .iter()
                .map(|p| p.0.job_cpu_s.iter().filter(|s| !s.is_nan()).sum())
                .collect()
        ),
        rounded(passes.iter().map(|p| p.0.stolen_s).collect()),
        rounded(scaled.iter().map(|t| t.speed).collect()),
        out.failed,
        out.attempted
    );
    out.set("peak_rss_mb", host::peak_rss_mb("self")?);
    Ok(out)
}

/// Small per-thread ids for the trace's thread lanes.
fn lane() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    thread_local!(static LANE: u32 = NEXT.fetch_add(1, Ordering::Relaxed));
    LANE.with(|l| *l)
}

/// Runs one job through the layers' public functions in order — tile,
/// schedule, simulate, compare with gold, key, render, parse — recording a
/// span around each call. The output check is the benchmark's own, with
/// the program's tolerance. The gold output must already be computed.
pub fn traced_job(
    rec: &mut Recorder,
    group: u64,
    job: &Job,
) -> Result<(RunReport, String), String> {
    let (w, plan, prim) = (&job.workload, &job.plan, job.primitive);
    rec.span("parallel.job", group, |rec| {
        let tiled = rec
            .span("tiled.tile", group, |_| TiledCoo::new(&w.a, plan.tiling))
            .map_err(|e| format!("tiling: {e}"))?;
        rec.span("schedule.build", group, |_| {
            Schedule::build(&tiled, job.config.num_pes, prim, plan.barriers)
        });
        let config = &job.config;
        let run_index = rec.spans.len();
        let run_err = |e| format!("{prim} run failed: {e}");
        let (report, ok) = match prim {
            Primitive::Spmm => {
                let run = rec
                    .span("system.run", group, |_| {
                        SpadeSystem::new((**config).clone()).run_spmm(&w.a, w.b_for_spmm(), plan)
                    })
                    .map_err(run_err)?;
                let ok = rec.span("reference.check", group, |_| {
                    reference::dense_close(&run.output, w.gold_spmm(), 1e-3)
                });
                (run.report, ok)
            }
            Primitive::Sddmm => {
                let run = rec
                    .span("system.run", group, |_| {
                        SpadeSystem::new((**config).clone()).run_sddmm(&w.a, &w.b, &w.c_t, plan)
                    })
                    .map_err(run_err)?;
                let ok = rec.span("reference.check", group, |_| {
                    reference::first_mismatch(run.output.vals(), w.gold_sddmm(), 1e-3).is_none()
                });
                (run.report, ok)
            }
        };
        // The simulator's own wall time for its cycle loop, inside the run.
        let run_end = rec.spans[run_index].end_ns;
        rec.closed(
            "system.cycle_loop",
            group,
            run_end.saturating_sub(report.host_wall_ns as u64),
            run_end,
            Some(run_index),
        );
        if !ok {
            return Err(format!("simulated {prim} diverged from the gold kernel"));
        }
        rec.span("cache.key", group, |_| job.cache_key());
        let text = rec.span("json.render", group, |_| canonical_json(&report));
        let parsed = rec
            .span("json.parse", group, |_| JsonValue::parse(&text))
            .map_err(|e| format!("report JSON does not parse: {e}"))?;
        if parsed.render() != text {
            return Err("report JSON does not survive a parse/render round trip".into());
        }
        Ok((report, text))
    })
}

/// Per-layer metrics from the reports of the traced pass.
pub fn report_metrics(out: &mut Outcome, reports: &[RunReport]) {
    let sum = |f: &dyn Fn(&RunReport) -> f64| reports.iter().map(f).sum::<f64>();
    let level = |l: LevelKind| {
        let acc = sum(&|r| r.mem.level(l).accesses as f64);
        (acc, sum(&|r| r.mem.level(l).hits as f64) / acc.max(1.0))
    };
    let (wall_ns, cycles, vops) = (
        sum(&|r| r.host_wall_ns),
        sum(&|r| r.cycles as f64),
        sum(&|r| r.total_vops as f64),
    );
    out.set("system.simulate_s", wall_ns / 1e9);
    out.set("system.sim_cycles", cycles);
    out.set("system.vops", vops);
    out.set(
        "system.stall_cycles",
        sum(&|r| (r.stall_no_vr + r.stall_no_rs) as f64),
    );
    out.set("system.ns_per_cycle", wall_ns / cycles.max(1.0));
    out.set("system.ns_per_vop", wall_ns / vops.max(1.0));
    let (l1, l1_rate) = level(LevelKind::L1);
    out.set("hierarchy.l1_accesses", l1);
    out.set("hierarchy.l1_hit_rate", l1_rate);
    out.set("hierarchy.bbf_accesses", level(LevelKind::Bbf).0);
    out.set("hierarchy.l2_hit_rate", level(LevelKind::L2).1);
    let (llc, llc_rate) = level(LevelKind::Llc);
    out.set("hierarchy.llc_accesses", llc);
    out.set("hierarchy.llc_hit_rate", llc_rate);
    out.set("dram.accesses", sum(&|r| r.dram_accesses as f64));
    out.set(
        "dram.gbps",
        sum(&|r| r.achieved_gbps * r.time_ns) / sum(&|r| r.time_ns).max(1.0),
    );
    out.set("tlb.misses", sum(&|r| r.tlb_misses as f64));
}

/// Per-call means of the leaf layers, from the spans.
pub fn span_metrics(out: &mut Outcome, spans: &[Span]) {
    out.set(
        "generators.generate_ms",
        spans::mean_ms(spans, "generators.generate"),
    );
    out.set("suite.prepare_ms", spans::mean_ms(spans, "suite.prepare"));
    out.set("tiled.tile_ms", spans::mean_ms(spans, "tiled.tile"));
    out.set("schedule.build_ms", spans::mean_ms(spans, "schedule.build"));
    out.set("reference.gold_ms", spans::mean_ms(spans, "reference.gold"));
    out.set(
        "reference.check_ms",
        spans::mean_ms(spans, "reference.check"),
    );
    out.set("cache.key_ms", spans::mean_ms(spans, "cache.key"));
    out.set("json.parse_us", spans::mean_ms(spans, "json.parse") * 1e3);
    out.set("json.render_us", spans::mean_ms(spans, "json.render") * 1e3);
}

pub fn traced(run: &Run) -> Result<(Outcome, Vec<Span>), String> {
    let shape = shape(run.smoke);
    let mut out = Outcome::default();
    let origin = Instant::now();
    let mut setup_rec = Recorder::new(origin, 0);
    let jobs = prepare(&shape, run.seed, Some(&mut setup_rec));

    let untraced = run_pass(&jobs);
    let expected: Vec<Option<String>> = untraced
        .reports
        .iter()
        .map(|r| r.as_ref().ok().map(canonical_json))
        .collect();

    let cpu0 = host::cpu_seconds("self")?;
    let pass_start = origin.elapsed().as_nanos() as u64;
    let traced_job_at = |i: usize| {
        let mut rec = Recorder::new(origin, lane());
        let result = no_retry(|| traced_job(&mut rec, i as u64, &jobs[i]));
        (result, rec)
    };
    let results: Vec<_> = ParallelRunner::new(WORKERS)
        .run_tasks(jobs.len(), |i| Ok(traced_job_at(i)))
        .into_iter()
        .map(|r| r.map_err(|e| e.message))
        .collect::<Result<_, _>>()?;
    let pass_end = origin.elapsed().as_nanos() as u64;
    let cpu = host::cpu_seconds("self")? - cpu0;

    let mut recorders = vec![setup_rec];
    let mut reports = Vec::new();
    for (i, (result, rec)) in results.into_iter().enumerate() {
        recorders.push(rec);
        out.check(match (result, &expected[i]) {
            (Err(e), _) => Err(format!("job {i}: {e}")),
            (Ok((_, text)), Some(want)) if &text != want => Err(format!(
                "job {i}: traced report differs from the untraced one"
            )),
            (Ok((_, _)), None) => Err(format!("job {i}: the untraced run failed")),
            (Ok((report, _)), Some(_)) => {
                reports.push(report);
                Ok(())
            }
        });
    }
    let spans = spans::merge(recorders);
    let wall_s = (pass_end - pass_start) as f64 / 1e9;
    let jobs: Vec<&Span> = spans.iter().filter(|s| s.name == "parallel.job").collect();
    let job_s: Vec<f64> = jobs.iter().map(|s| s.dur_ns() as f64 / 1e9).collect();
    report_metrics(&mut out, &reports);
    span_metrics(&mut out, &spans);
    out.set("parallel.jobs", job_s.len() as f64);
    out.set("parallel.busy_s", job_s.iter().sum());
    out.set(
        "parallel.utilization",
        job_s.iter().sum::<f64>() / (wall_s * WORKERS as f64),
    );
    out.set(
        "parallel.max_job_s",
        job_s.iter().copied().fold(0.0, f64::max),
    );
    out.set("process.cpu_s", cpu);
    out.set(
        "process.cpu_util",
        cpu / (wall_s * host::host_cores() as f64),
    );
    let pass_spans: Vec<Span> = spans
        .iter()
        .filter(|s| s.start_ns >= pass_start)
        .cloned()
        .collect();
    out.set(
        "trace.coverage",
        spans::coverage(&pass_spans, pass_start, pass_end),
    );
    out.set(
        "trace.overhead_pct",
        (wall_s / untraced.wall_s - 1.0) * 100.0,
    );
    if let Ok(reports) = untraced
        .reports
        .iter()
        .cloned()
        .collect::<Result<Vec<_>, _>>()
    {
        print_outputs(&run.workload, run.seed, &reports);
    }
    println!("layer parallel.failed {} count", out.failed);
    println!(
        "layer service.*, cache.get_ms/put_ms/index_flush_ms/hits/misses/stores/hit_ratio, \
         advisor.*: not exercised by {} (the serve traced run prints them)",
        run.workload
    );
    println!(
        "trace: untraced pass {:.3} s, traced pass {wall_s:.3} s",
        untraced.wall_s
    );
    Ok((out, spans))
}
