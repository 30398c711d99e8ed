//! `perfbench`: the repository's benchmark. One command runs one of two
//! seeded workloads — `sweep` and `serve` — and prints the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of a traced
//! run (`--trace 1`), then one JSON result line. See README.md beside
//! this crate; `run.py` builds the program and calls this binary.
//!
//! ```text
//! perfbench --workload <sweep|serve> --seed <n> --seconds <s>
//!           --trace <0|1> --daemon <path to spade-cli> [--smoke]
//! ```

mod host;
mod inputs;
mod metrics;
mod serve;
mod sim;
mod spans;

use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["sweep", "serve"];

/// Inherited settings that would change what is measured.
const REFUSED_ENV: [&str; 5] = [
    "SPADE_SIM_SHARDS",
    "SPADE_MEM_SLOW_PATH",
    "SPADE_THREADS",
    "SPADE_AUDIT",
    "SPADE_LOG",
];

/// One invocation's settings.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Seconds-long sizes for the benchmark's own smoke test.
    pub smoke: bool,
    daemon: Option<PathBuf>,
    pub root: PathBuf,
    /// Per-invocation directory for daemon caches; removed at exit.
    pub scratch: PathBuf,
}

impl Run {
    /// The `spade-cli` binary the `serve` workload starts.
    pub fn daemon(&self) -> Result<PathBuf, String> {
        self.daemon
            .clone()
            .ok_or_else(|| "--daemon <path to spade-cli> is required for serve".into())
    }
}

fn parse_args(argv: &[String]) -> Result<Run, String> {
    let value = |flag: &str| -> Result<Option<String>, String> {
        match argv.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => argv
                .get(i + 1)
                .cloned()
                .map(Some)
                .ok_or_else(|| format!("{flag} needs a value")),
        }
    };
    let workload = value("--workload")?.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?} (sweep|serve)"));
    }
    let seed = match value("--seed")? {
        Some(s) => s
            .parse()
            .map_err(|_| format!("--seed: {s:?} is not a number"))?,
        None => inputs::DEFAULT_SEED,
    };
    let seconds: f64 = match value("--seconds")? {
        Some(s) => s
            .parse()
            .map_err(|_| format!("--seconds: {s:?} is not a number"))?,
        None => 45.0,
    };
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match value("--trace")?.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace: {other:?} is not 0 or 1")),
    };
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if !root.join("crates").is_dir() || !root.join("Cargo.toml").is_file() {
        return Err(format!(
            "{} is not the repository root (no Cargo.toml and crates/)",
            root.display()
        ));
    }
    let scratch = root
        .join(".perfbench")
        .join(format!("run-{}", std::process::id()));
    Ok(Run {
        workload,
        seed,
        seconds,
        trace,
        smoke: argv.iter().any(|a| a == "--smoke"),
        daemon: value("--daemon")?.map(PathBuf::from),
        root,
        scratch,
    })
}

fn refuse_inherited_toggles() -> Result<(), String> {
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| REFUSED_ENV.contains(&k.as_str()) || k.starts_with("SPADE_BENCH_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: each changes what is measured",
            set.join(", ")
        ))
    }
}

fn execute(run: &Run) -> Result<metrics::Outcome, String> {
    let provenance = host::provenance(&run.root, &run.workload, run.seed, run.seconds, run.trace);
    println!("provenance {provenance}");
    println!(
        "model: no hardware reference results exist in this repository, so the simulator \
         is unvalidated here and no error figure is given (paper-vs-measured: EXPERIMENTS.md)"
    );
    if !run.trace {
        return match run.workload.as_str() {
            "serve" => serve::untraced(run),
            _ => sim::untraced(run),
        };
    }
    let (out, spans) = match run.workload.as_str() {
        "serve" => serve::traced(run)?,
        _ => sim::traced(run)?,
    };
    let total: f64 = spans::self_time_by_layer(&spans).values().sum();
    for (layer, secs) in spans::self_time_by_layer(&spans) {
        println!(
            "self {layer:<10} {secs:>9.4} s  {:>5.1}% of span time",
            secs / total * 100.0
        );
    }
    let mut lanes: Vec<u32> = spans.iter().map(|s| s.tid).collect();
    lanes.sort_unstable();
    lanes.dedup();
    let names: Vec<(u32, String)> = lanes
        .into_iter()
        .map(|t| (t, format!("thread {t}")))
        .collect();
    let path = run
        .root
        .join(".perfbench")
        .join(format!("trace-{}-seed{}.json", run.workload, run.seed));
    std::fs::write(&path, spans::chrome_trace(&spans, &names, &provenance))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("trace file {} ({} spans)", path.display(), spans.len());
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let run = match refuse_inherited_toggles().and_then(|()| parse_args(&argv)) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&run.scratch);
    let outcome = std::fs::create_dir_all(&run.scratch)
        .map_err(|e| format!("{}: {e}", run.scratch.display()))
        .and_then(|()| execute(&run));
    let _ = std::fs::remove_dir_all(&run.scratch);
    let metrics_list = if run.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let line = outcome.and_then(|out| {
        for failure in &out.failures {
            eprintln!("perfbench: check failed: {failure}");
        }
        out.print(metrics_list);
        out.result_line(metrics_list).map(|line| (line, out.failed))
    });
    match line {
        Ok((line, failed)) => {
            println!("{line}");
            if failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
