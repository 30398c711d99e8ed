//! Metric names, units and directions, order statistics, and the result
//! line. The two lists mirror `BENCHMARK.json` (a test pins them).

use std::collections::BTreeMap;

/// One metric as `BENCHMARK.json` declares it.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Printed by every untraced run (`--trace 0`), for every workload.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower"),
    m("sim_mcycles_per_s", "Mcycles/s", "higher"),
    m("req_p50_ms", "ms", "lower"),
    m("req_p99_ms", "ms", "lower"),
    m("req_per_s", "1/s", "higher"),
    m("peak_rss_mb", "MiB", "lower"),
];

/// End-to-end metrics that are times, and those that are rates: both are
/// reported at the reference host speed (see [`Outcome::at_reference_speed`]).
const TIMES: [&str; 3] = ["setup_s", "req_p50_ms", "req_p99_ms"];
const RATES: [&str; 2] = ["sim_mcycles_per_s", "req_per_s"];

/// Printed by every traced run (`--trace 1`), for every workload. Layer
/// metrics that exist on one workload only (daemon request stages, the
/// result-cache store path, the advisor) are printed as text by the
/// `serve` traced run instead: the result line carries the same keys for
/// every workload.
pub const PER_LAYER: &[Metric] = &[
    m("generators.generate_ms", "ms", "lower"),
    m("suite.prepare_ms", "ms", "lower"),
    m("tiled.tile_ms", "ms", "lower"),
    m("schedule.build_ms", "ms", "lower"),
    m("reference.gold_ms", "ms", "lower"),
    m("reference.check_ms", "ms", "lower"),
    m("system.simulate_s", "s", "lower"),
    m("system.sim_cycles", "cycles", "lower"),
    m("system.vops", "count", "lower"),
    m("system.stall_cycles", "cycles", "lower"),
    m("system.ns_per_cycle", "ns", "lower"),
    m("system.ns_per_vop", "ns", "lower"),
    m("hierarchy.l1_accesses", "count", "lower"),
    m("hierarchy.l1_hit_rate", "ratio", "higher"),
    m("hierarchy.bbf_accesses", "count", "lower"),
    m("hierarchy.l2_hit_rate", "ratio", "higher"),
    m("hierarchy.llc_accesses", "count", "lower"),
    m("hierarchy.llc_hit_rate", "ratio", "higher"),
    m("dram.accesses", "count", "lower"),
    m("dram.gbps", "GB/s", "higher"),
    m("tlb.misses", "count", "lower"),
    m("parallel.jobs", "count", "higher"),
    m("parallel.busy_s", "s", "lower"),
    m("parallel.utilization", "ratio", "higher"),
    m("parallel.max_job_s", "s", "lower"),
    m("cache.key_ms", "ms", "lower"),
    m("json.parse_us", "us", "lower"),
    m("json.render_us", "us", "lower"),
    m("process.cpu_s", "s", "lower"),
    m("process.cpu_util", "ratio", "higher"),
    m("trace.coverage", "ratio", "higher"),
    m("trace.overhead_pct", "%", "lower"),
];

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Whether `unit` is a valid unit: at most 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

/// Nearest-rank quantile of an ascending slice (`q` in (0, 1]).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (nearest rank, like [`quantile`]).
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// What one invocation measured: operation counts and named values.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<&'static str, f64>,
    /// The first few failure messages, printed before the result line.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Counts one checked operation; `Err` is a failure.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = result {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(message);
            }
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Rescales the named times and rates to the reference host speed:
    /// times × `speed`, rates ÷ `speed`, where `speed` is
    /// [`crate::host::host_speed`] over the stretch they were measured in.
    pub fn at_reference_speed(&mut self, speed: f64, names: &[&str]) {
        for &name in names {
            if let Some(v) = self.values.get_mut(name) {
                if TIMES.contains(&name) {
                    *v *= speed;
                } else if RATES.contains(&name) {
                    *v /= speed;
                }
            }
        }
    }

    /// One line per time and rate as measured, before any rescaling, with
    /// the run's host speed.
    pub fn print_measured(&self, speed: f64) {
        for name in TIMES.iter().chain(&RATES) {
            if let Some(v) = self.values.get(name) {
                println!("measured {name:<24} {v:>14.6} (host speed {speed:.4})");
            }
        }
    }

    /// One readable line per metric: name, value, unit, direction.
    pub fn print(&self, metrics: &[Metric]) {
        for metric in metrics {
            if let Some(value) = self.values.get(metric.name) {
                println!(
                    "metric {:<24} {value:>14.6} {:<9} ({} is better)",
                    metric.name, metric.unit, metric.better
                );
            }
        }
    }

    /// The result line for `metrics` (every one must have been set to a
    /// finite value).
    pub fn result_line(&self, metrics: &[Metric]) -> Result<String, String> {
        if self.attempted == 0 {
            return Err("no operation was attempted".into());
        }
        let mut fields = Vec::with_capacity(metrics.len());
        for metric in metrics {
            let value = *self
                .values
                .get(metric.name)
                .ok_or_else(|| format!("metric {} was not measured", metric.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is not finite ({value})", metric.name));
            }
            if !valid_name(metric.name) || !valid_unit(metric.unit) {
                return Err(format!(
                    "metric {} has a malformed name or unit",
                    metric.name
                ));
            }
            fields.push(format!(
                "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                metric.name, metric.unit
            ));
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            fields.join(",")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spade_sim::JsonValue;

    fn benchmark_json() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        JsonValue::parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(doc: &JsonValue, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    #[test]
    fn metric_names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(metric.name), "{}", metric.name);
            assert!(valid_unit(metric.unit), "{}", metric.unit);
            assert!(matches!(metric.better, "higher" | "lower"));
            assert!(seen.insert(metric.name), "{} twice", metric.name);
        }
        assert!(!valid_name("_x") && !valid_name("a b") && !valid_name(&"a".repeat(65)));
        assert!(!valid_unit("") && !valid_unit("m s"));
    }

    #[test]
    fn lists_match_benchmark_json() {
        let doc = benchmark_json();
        let ours = |list: &[Metric]| -> Vec<(String, String, String)> {
            list.iter()
                .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), ours(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), ours(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
        for w in doc.get("end_to_end").and_then(JsonValue::as_array).unwrap() {
            let bound = w.get("bound").and_then(JsonValue::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }

    #[test]
    fn result_line_parses_and_covers_every_metric() {
        for list in [END_TO_END, PER_LAYER] {
            let mut out = Outcome::default();
            out.check(Ok(()));
            for (i, metric) in list.iter().enumerate() {
                out.set(metric.name, 0.1 + i as f64 / 3.0);
            }
            let line = out.result_line(list).unwrap();
            let doc = JsonValue::parse(&line).unwrap();
            let keys: Vec<&str> = doc
                .entries()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let metrics = doc.get("metrics").unwrap().entries().unwrap();
            assert_eq!(metrics.len(), list.len());
            for ((name, value), metric) in metrics.iter().zip(list) {
                assert_eq!(name, metric.name);
                assert!(value.get("value").and_then(JsonValue::as_f64).is_some());
                assert_eq!(
                    value.get("unit").and_then(JsonValue::as_str),
                    Some(metric.unit)
                );
            }
        }
        let mut partial = Outcome::default();
        partial.set("setup_s", f64::NAN);
        assert!(partial.result_line(END_TO_END).is_err());
    }

    #[test]
    fn failures_are_counted_not_dropped() {
        let mut out = Outcome::default();
        out.check(Ok(()));
        out.check(Err("bad".into()));
        assert_eq!((out.attempted, out.failed), (2, 1));
        assert_eq!(out.failures, ["bad"]);
    }

    #[test]
    fn reference_speed_scales_times_up_and_rates_down() {
        let mut out = Outcome::default();
        for (name, v) in [("setup_s", 2.0), ("req_p99_ms", 10.0), ("req_per_s", 4.0)] {
            out.set(name, v);
        }
        out.set("peak_rss_mb", 50.0);
        // A host at half the reference speed: times shrink, rates grow.
        let all: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        out.at_reference_speed(0.5, &all);
        assert_eq!(out.values["setup_s"], 1.0);
        assert_eq!(out.values["req_p99_ms"], 5.0);
        assert_eq!(out.values["req_per_s"], 8.0);
        assert_eq!(out.values["peak_rss_mb"], 50.0);
        let listed: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert!(TIMES.iter().chain(&RATES).all(|n| listed.contains(n)));
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[3.0], 0.99), 3.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
