//! The `bench-perf` harness: simulator-throughput measurement.
//!
//! Runs the Figure 9 suite under both cycle-loop drivers — the event-driven
//! ready-queue scheduler and the naive cycle-by-cycle oracle — and records
//! each run's `sim_cycles_per_host_sec`. Both drivers produce bit-identical
//! simulated results (checked here report-for-report on every invocation),
//! so the only difference worth recording is how fast the host produced
//! them.
//!
//! The JSON document this module emits is committed as `BENCH_sim.json`,
//! the repository's simulator-performance trajectory: re-run it after
//! scheduler or hot-path changes and compare.
//!
//! The runs go one at a time on one worker, whatever `SPADE_THREADS`
//! says: on a 2-core host an event job and a naive job running at once
//! share the cores, and each wall time would absorb the other's
//! interference.

use std::sync::Arc;
use std::time::Instant;

use spade_core::{JsonValue, Primitive, SystemConfig};
use spade_matrix::generators::Scale;

use crate::machines;
use crate::parallel::{Job, ParallelRunner};
use crate::runner::geomean;
use crate::suite::Workload;

/// One (workload, primitive) measurement: identical simulations under both
/// drivers, with the host throughput each achieved.
#[derive(Debug, Clone)]
pub struct PerfRow {
    /// Workload short name.
    pub workload: String,
    /// Kernel measured.
    pub primitive: Primitive,
    /// Simulated cycles (identical under both drivers by construction).
    pub cycles: u64,
    /// Simulated cycles per host second under the event-driven scheduler.
    pub event_cps: f64,
    /// Simulated cycles per host second under the naive tick loop.
    pub naive_cps: f64,
}

impl PerfRow {
    /// Event-driven over naive host throughput; zero if the naive rate is
    /// unmeasurable (degenerate sub-nanosecond run).
    pub fn speedup(&self) -> f64 {
        if self.naive_cps > 0.0 {
            self.event_cps / self.naive_cps
        } else {
            0.0
        }
    }
}

/// A complete `bench-perf` result: the per-row measurements plus the
/// context needed to reproduce them.
#[derive(Debug, Clone)]
pub struct PerfSummary {
    /// Suite scale the rows were measured at.
    pub scale: Scale,
    /// Dense row size.
    pub k: usize,
    /// SPADE PE count.
    pub pes: usize,
    /// One row per (workload, primitive).
    pub rows: Vec<PerfRow>,
}

impl PerfSummary {
    /// Geometric-mean speedup of the event-driven driver over the naive
    /// loop across all rows.
    pub fn geomean_speedup(&self) -> f64 {
        geomean(&self.rows.iter().map(PerfRow::speedup).collect::<Vec<_>>())
    }

    /// Geometric-mean event-driven throughput (simulated cycles per host
    /// second).
    pub fn geomean_event_cps(&self) -> f64 {
        geomean(&self.rows.iter().map(|r| r.event_cps).collect::<Vec<_>>())
    }

    /// Geometric-mean naive-loop throughput.
    pub fn geomean_naive_cps(&self) -> f64 {
        geomean(&self.rows.iter().map(|r| r.naive_cps).collect::<Vec<_>>())
    }

    /// The summary as the `BENCH_sim.json` document.
    pub fn to_json(&self) -> JsonValue {
        let rows: Vec<JsonValue> = self
            .rows
            .iter()
            .map(|r| {
                JsonValue::object([
                    ("workload", JsonValue::from(r.workload.as_str())),
                    ("kernel", r.primitive.to_string().to_lowercase().into()),
                    ("cycles", r.cycles.into()),
                    ("event_sim_cycles_per_host_sec", r.event_cps.into()),
                    ("naive_sim_cycles_per_host_sec", r.naive_cps.into()),
                    ("speedup", r.speedup().into()),
                ])
            })
            .collect();
        JsonValue::object([
            ("bench", JsonValue::from("bench-perf")),
            ("scale", format!("{:?}", self.scale).to_lowercase().into()),
            ("k", self.k.into()),
            ("pes", self.pes.into()),
            ("geomean_speedup", self.geomean_speedup().into()),
            (
                "geomean_event_sim_cycles_per_host_sec",
                self.geomean_event_cps().into(),
            ),
            (
                "geomean_naive_sim_cycles_per_host_sec",
                self.geomean_naive_cps().into(),
            ),
            ("workloads", JsonValue::Array(rows)),
        ])
    }
}

/// Measures every (workload, primitive) pair under both drivers, one run
/// at a time, and checks that each pair's simulated reports are identical
/// (`RunReport` equality ignores host wall clock — everything simulated
/// must match).
///
/// # Errors
///
/// Returns a message when any simulation fails, diverges from the gold
/// kernel, or — the reason this harness exists — the two drivers disagree
/// on any simulated metric.
pub fn measure(
    workloads: &[Arc<Workload>],
    config: &Arc<SystemConfig>,
    primitives: &[Primitive],
) -> Result<Vec<PerfRow>, String> {
    let mut jobs = Vec::new();
    for w in workloads {
        for &p in primitives {
            jobs.push(Job::new(w, config, p, machines::base_plan(&w.a)));
            jobs.push(Job::new(w, config, p, machines::base_plan(&w.a)).with_naive_loop(true));
        }
    }
    // One worker, whatever `SPADE_THREADS` says (see the module doc).
    let results = ParallelRunner::new(1).run_results(&jobs);
    let mut rows = Vec::new();
    for (pair, job) in results.chunks_exact(2).zip(jobs.chunks_exact(2)) {
        let event = pair[0].as_ref().map_err(|e| e.to_string())?;
        let naive = pair[1].as_ref().map_err(|e| e.to_string())?;
        if event != naive {
            return Err(format!(
                "drivers disagree on {}/{:?}: event {} cycles vs naive {} cycles",
                job[0].workload.name, job[0].primitive, event.cycles, naive.cycles
            ));
        }
        rows.push(PerfRow {
            workload: job[0].workload.name.clone(),
            primitive: job[0].primitive,
            cycles: event.cycles,
            event_cps: event.sim_cycles_per_host_sec(),
            naive_cps: naive.sim_cycles_per_host_sec(),
        });
    }
    Ok(rows)
}

/// Runs the full Figure 9 suite (both kernels) at `scale` and returns the
/// summary ready to serialize as `BENCH_sim.json`.
///
/// # Errors
///
/// See [`measure`].
pub fn run_suite_perf(scale: Scale, k: usize, pes: usize) -> Result<PerfSummary, String> {
    let workloads: Vec<Arc<Workload>> = Workload::suite(scale, k)
        .into_iter()
        .map(Arc::new)
        .collect();
    let config = Arc::new(machines::spade_system(pes));
    let rows = measure(&workloads, &config, &[Primitive::Spmm, Primitive::Sddmm])?;
    Ok(PerfSummary {
        scale,
        k,
        pes,
        rows,
    })
}

/// One benchmark's advise measurement: selection latency of the default
/// tiered `advise` path vs the quick `find_opt` sweep, and the quality of
/// the plan it picked (cycles relative to the exhaustive quick Opt).
#[derive(Debug, Clone)]
pub struct AdviseBenchRow {
    /// Workload short name.
    pub workload: String,
    /// Cycles of the exhaustive quick-Opt plan (the quality baseline).
    pub opt_cycles: u64,
    /// Cycles of the plan the tiered advise selected.
    pub advised_cycles: u64,
    /// Which tier answered (`model` or `heuristic`).
    pub source: String,
    /// Wall microseconds the tiered selection took (features + candidate
    /// enumeration + ranking; no simulation).
    pub advise_us: f64,
    /// Wall microseconds the quick `find_opt` sweep took.
    pub find_opt_us: f64,
}

impl AdviseBenchRow {
    /// Selected-plan cycles over exhaustive-Opt cycles (1.0 = perfect).
    pub fn quality(&self) -> f64 {
        if self.opt_cycles > 0 {
            self.advised_cycles as f64 / self.opt_cycles as f64
        } else {
            0.0
        }
    }

    /// `find_opt` wall time over advise wall time.
    pub fn speedup(&self) -> f64 {
        if self.advise_us > 0.0 {
            self.find_opt_us / self.advise_us
        } else {
            0.0
        }
    }
}

/// The `bench-advise` result: per-benchmark rows, suite geomeans, and the
/// model fitted on the full sweep (the shippable artifact).
#[derive(Debug, Clone)]
pub struct AdviseBench {
    /// Suite scale the sweep ran at.
    pub scale: Scale,
    /// Dense row size.
    pub k: usize,
    /// SPADE PE count.
    pub pes: usize,
    /// One row per Figure 9 benchmark.
    pub rows: Vec<AdviseBenchRow>,
    /// The cost model fitted on every sweep row (all benchmarks), for
    /// saving next to the bench JSON. Per-benchmark rows above were scored
    /// with leave-one-benchmark-out models, so the quality numbers are
    /// honest about unseen matrices.
    pub model: crate::model::CostModel,
}

impl AdviseBench {
    /// Geomean of selected-plan cycles over exhaustive-Opt cycles — the
    /// `--gate-advise-quality` number (≤ 1.0 is ideal).
    pub fn geomean_quality(&self) -> f64 {
        geomean(
            &self
                .rows
                .iter()
                .map(AdviseBenchRow::quality)
                .collect::<Vec<_>>(),
        )
    }

    /// Geomean of `find_opt` wall time over advise wall time — the
    /// `--gate-advise-speedup` number.
    pub fn geomean_speedup(&self) -> f64 {
        geomean(
            &self
                .rows
                .iter()
                .map(AdviseBenchRow::speedup)
                .collect::<Vec<_>>(),
        )
    }

    /// The `"bench_advise"` section for `BENCH_sim.json`.
    pub fn to_json(&self) -> JsonValue {
        let rows: Vec<JsonValue> = self
            .rows
            .iter()
            .map(|r| {
                JsonValue::object([
                    ("workload", JsonValue::from(r.workload.as_str())),
                    ("opt_cycles", r.opt_cycles.into()),
                    ("advised_cycles", r.advised_cycles.into()),
                    ("quality", r.quality().into()),
                    ("source", r.source.as_str().into()),
                    ("advise_us", r.advise_us.into()),
                    ("find_opt_us", r.find_opt_us.into()),
                    ("speedup", r.speedup().into()),
                ])
            })
            .collect();
        JsonValue::object([
            ("scale", format!("{:?}", self.scale).to_lowercase().into()),
            ("k", self.k.into()),
            ("pes", self.pes.into()),
            ("geomean_quality", self.geomean_quality().into()),
            ("geomean_speedup", self.geomean_speedup().into()),
            ("holdout_mare", self.model.accuracy.holdout_mare.into()),
            ("rows", JsonValue::Array(rows)),
        ])
    }
}

/// Turns one simulated `(plan, report)` pair into a training row.
fn training_row(
    benchmark: &str,
    features: &[f64],
    plan: &spade_core::ExecutionPlan,
    k: usize,
    pes: usize,
    cycles: u64,
) -> crate::model::TrainingRow {
    crate::model::TrainingRow {
        benchmark: benchmark.to_string(),
        features: features.to_vec(),
        row_panel: plan.tiling.row_panel_size,
        col_panel: plan.tiling.col_panel_size,
        r_policy: plan.r_policy,
        barriers: plan.barriers.is_enabled(),
        k,
        pes,
        cycles,
    }
}

/// Runs the advise benchmark over the Figure 9 suite.
///
/// Per benchmark, the quick `find_opt` sweep is run (timed — that is the
/// latency being replaced) and every simulated candidate becomes a
/// training row. The tiered advise is then timed per benchmark with a
/// model fitted on *the other nine benchmarks' rows* (leave-one-out, so
/// the model never saw the matrix it advises), and the selected plan's
/// cycles are looked up from the sweep. No simulation happens on the
/// advise path.
///
/// # Errors
///
/// Returns a message when a simulation fails or the full-sweep model
/// cannot be fitted.
pub fn run_advise_bench(
    scale: Scale,
    k: usize,
    pes: usize,
    runner: &ParallelRunner,
) -> Result<AdviseBench, String> {
    use crate::model::{CostModel, TrainingRow};
    use crate::runner::{opt_candidates, select_opt};
    use spade_core::advisor::{advise_candidates, advise_tiered};
    use spade_core::ExecutionPlan;
    use spade_matrix::analysis::MatrixFeatures;

    let config = Arc::new(machines::spade_system(pes));
    let workloads: Vec<Arc<Workload>> = Workload::suite(scale, k)
        .into_iter()
        .map(Arc::new)
        .collect();

    struct Sweep {
        plan_cycles: Vec<(ExecutionPlan, u64)>,
        opt_cycles: u64,
        find_opt_us: f64,
    }

    let mut sweeps: Vec<Sweep> = Vec::new();
    let mut all_rows: Vec<TrainingRow> = Vec::new();
    for w in &workloads {
        // The timed quick find_opt sweep (same code path as find_opt).
        let plans = opt_candidates(w, true);
        let start = Instant::now();
        let jobs: Vec<Job> = plans
            .iter()
            .map(|&p| Job::new(w, &config, Primitive::Spmm, p))
            .collect();
        let reports = runner.run(&jobs);
        let (_, opt_report) = select_opt(&plans, &reports);
        let find_opt_us = start.elapsed().as_secs_f64() * 1e6;

        // Simulate the advise candidates the sweep missed (untimed): the
        // lookup table must cover every plan the advisor can select.
        let adv_plans = advise_candidates(&w.a, k, &config).map_err(|e| e.to_string())?;
        let extra: Vec<ExecutionPlan> = adv_plans
            .iter()
            .filter(|p| !plans.contains(p))
            .copied()
            .collect();
        let extra_jobs: Vec<Job> = extra
            .iter()
            .map(|&p| Job::new(w, &config, Primitive::Spmm, p))
            .collect();
        let extra_reports = runner.run(&extra_jobs);

        let features = MatrixFeatures::compute(&w.a).as_vec();
        let mut plan_cycles: Vec<(ExecutionPlan, u64)> = Vec::new();
        for (p, r) in plans.iter().zip(&reports).map(|(p, r)| (*p, r.cycles)) {
            plan_cycles.push((p, r));
        }
        for (p, r) in extra
            .iter()
            .zip(&extra_reports)
            .map(|(p, r)| (*p, r.cycles))
        {
            plan_cycles.push((p, r));
        }
        for &(p, cycles) in &plan_cycles {
            all_rows.push(training_row(&w.name, &features, &p, k, pes, cycles));
        }
        sweeps.push(Sweep {
            plan_cycles,
            opt_cycles: opt_report.cycles,
            find_opt_us,
        });
    }

    let mut rows = Vec::new();
    for (w, sweep) in workloads.iter().zip(&sweeps) {
        // Leave-one-benchmark-out: the model advising `w` never saw it.
        let train: Vec<TrainingRow> = all_rows
            .iter()
            .filter(|r| r.benchmark != w.name)
            .cloned()
            .collect();
        let model = CostModel::fit(&train)?;

        let start = Instant::now();
        let advice = advise_tiered(&w.a, k, &config, Some(&model)).map_err(|e| e.to_string())?;
        let advise_us = (start.elapsed().as_secs_f64() * 1e6).max(0.01);

        let advised_cycles = sweep
            .plan_cycles
            .iter()
            .find(|(p, _)| *p == advice.plan)
            .map(|&(_, c)| c)
            .ok_or_else(|| format!("advised plan for {} missing from the sweep", w.name))?;
        rows.push(AdviseBenchRow {
            workload: w.name.clone(),
            opt_cycles: sweep.opt_cycles,
            advised_cycles,
            source: advice.source.as_str().to_string(),
            advise_us,
            find_opt_us: sweep.find_opt_us,
        });
    }

    let model = CostModel::fit(&all_rows)?;
    Ok(AdviseBench {
        scale,
        k,
        pes,
        rows,
        model,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spade_matrix::generators::Benchmark;

    #[test]
    fn both_drivers_agree_and_produce_throughput() {
        let w = Arc::new(Workload::prepare(Benchmark::Myc, Scale::Tiny, 32));
        let cfg = Arc::new(machines::spade_system(4));
        let rows = measure(&[w], &cfg, &[Primitive::Spmm]).unwrap();
        assert_eq!(rows.len(), 1);
        assert!(rows[0].cycles > 0);
        assert!(rows[0].event_cps > 0.0);
        assert!(rows[0].naive_cps > 0.0);
    }

    #[test]
    fn summary_json_is_valid_and_complete() {
        let summary = PerfSummary {
            scale: Scale::Tiny,
            k: 32,
            pes: 4,
            rows: vec![PerfRow {
                workload: "myc".into(),
                primitive: Primitive::Spmm,
                cycles: 1000,
                event_cps: 4.0e6,
                naive_cps: 2.0e6,
            }],
        };
        assert!((summary.geomean_speedup() - 2.0).abs() < 1e-12);
        let text = summary.to_json().render();
        assert_eq!(spade_sim::json::validate(&text), Ok(()));
        assert!(text.contains("\"geomean_speedup\""));
        assert!(text.contains("\"event_sim_cycles_per_host_sec\""));
        assert!(text.contains("\"scale\":\"tiny\""));
    }

    #[test]
    fn advise_bench_measures_latency_and_quality() {
        let bench = run_advise_bench(Scale::Tiny, 16, 4, &ParallelRunner::new(2)).unwrap();
        assert_eq!(bench.rows.len(), Benchmark::ALL.len());
        for row in &bench.rows {
            assert!(row.opt_cycles > 0);
            assert!(row.advised_cycles > 0);
            assert!(row.advise_us > 0.0);
            assert!(
                row.find_opt_us > row.advise_us,
                "{}: advise not faster",
                row.workload
            );
            assert!(
                row.source == "model" || row.source == "heuristic",
                "unexpected source {}",
                row.source
            );
        }
        // Quality can dip below 1.0: the advise candidates include the
        // structural heuristic's pick, which is outside the quick search
        // space and sometimes beats quick Opt.
        let quality = bench.geomean_quality();
        assert!(quality > 0.0 && quality < 1.5, "geomean quality {quality}");
        assert!(bench.geomean_speedup() > 1.0);
        let text = bench.to_json().render();
        assert_eq!(spade_sim::json::validate(&text), Ok(()));
        assert!(text.contains("\"geomean_quality\""));
        assert!(text.contains("\"geomean_speedup\""));
        assert!(text.contains("\"source\""));
    }

    #[test]
    fn zero_naive_rate_yields_zero_speedup() {
        let row = PerfRow {
            workload: "x".into(),
            primitive: Primitive::Spmm,
            cycles: 1,
            event_cps: 1.0,
            naive_cps: 0.0,
        };
        assert_eq!(row.speedup(), 0.0);
    }
}
