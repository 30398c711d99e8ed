//! In-memory spans recorded around calls into the program's layers, and
//! what a traced run derives from them: per-layer self time, the share of
//! wall time the spans cover, and a Chrome `traceEvents` file.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval. `name` is `<layer>.<what>`; spans of one job or
/// request share `group`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub group: u64,
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Spans of one thread; nesting follows the call structure.
pub struct Recorder {
    origin: Instant,
    tid: u32,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(origin: Instant, tid: u32) -> Self {
        Recorder {
            origin,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, group: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            group,
            tid: self.tid,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Records an interval measured elsewhere (a daemon log event, the
    /// simulator's own cycle-loop wall time) under the innermost open
    /// span, or under `parent` when given.
    pub fn closed(
        &mut self,
        name: &'static str,
        group: u64,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            group,
            tid: self.tid,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent: parent.or(self.open.last().copied()),
        });
        self.spans.len() - 1
    }
}

/// Joins per-thread recorders into one list, re-basing parent indices.
pub fn merge(recorders: Vec<Recorder>) -> Vec<Span> {
    let mut all = Vec::new();
    for rec in recorders {
        let offset = all.len();
        all.extend(rec.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }
    all
}

/// Self time per layer in seconds: each span's duration minus the part
/// its children cover.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut by_layer = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        *by_layer.entry(s.layer()).or_insert(0.0) +=
            s.dur_ns().saturating_sub(children) as f64 / 1e9;
    }
    by_layer
}

/// Share of the window `[start_ns, end_ns]` covered by the union of the
/// root spans inside it.
pub fn coverage(spans: &[Span], start_ns: u64, end_ns: u64) -> f64 {
    let mut roots: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.start_ns.max(start_ns), s.end_ns.min(end_ns)))
        .collect();
    roots.sort_unstable();
    let (mut covered, mut reach) = (0u64, start_ns);
    for (start, end) in roots {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered as f64 / end_ns.saturating_sub(start_ns).max(1) as f64
}

/// Mean duration in milliseconds of the spans called `name`.
pub fn mean_ms(spans: &[Span], name: &str) -> f64 {
    let durs: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    crate::metrics::mean(&durs)
}

/// The spans as a Chrome `traceEvents` document (complete events, µs
/// timestamps), with `metadata` attached as `otherData`.
pub fn chrome_trace(spans: &[Span], thread_names: &[(u32, String)], metadata: &str) -> String {
    let mut events: Vec<String> = thread_names
        .iter()
        .map(|(tid, name)| {
            format!(
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":{}}}}}",
                spade_sim::JsonValue::from(name.as_str()).render()
            )
        })
        .collect();
    for s in spans {
        let parent = s
            .parent
            .map_or("null".to_string(), |p| format!("\"{}\"", spans[p].name));
        events.push(format!(
            "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"group\":{},\"parent\":{parent}}}}}",
            s.name,
            s.layer(),
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.group
        ));
    }
    format!(
        "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\",\"otherData\":{metadata}}}\n",
        events.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            group: 0,
            tid: 0,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("parallel.job", 0, 100, None),
            span("tiled.tile", 10, 30, Some(0)),
            span("system.run", 30, 90, Some(0)),
        ];
        let t = self_time_by_layer(&spans);
        assert_eq!(t["parallel"], 20e-9);
        assert_eq!(t["tiled"], 20e-9);
        assert_eq!(t["system"], 60e-9);
    }

    #[test]
    fn coverage_is_the_union_of_roots() {
        let spans = [
            span("a.x", 0, 40, None),
            span("a.y", 20, 60, None),
            span("a.z", 30, 35, Some(0)),
            span("a.w", 80, 100, None),
        ];
        assert!((coverage(&spans, 0, 100) - 0.8).abs() < 1e-12);
        assert!((coverage(&spans, 50, 100) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_and_trace_parses() {
        let mut rec = Recorder::new(Instant::now(), 1);
        rec.span("parallel.job", 7, |rec| {
            rec.span("tiled.tile", 7, |_| ());
            let start = rec.now_ns();
            rec.closed("system.cycle_loop", 7, start, start + 5, None);
        });
        let spans = merge(vec![rec]);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let doc = chrome_trace(&spans, &[(1, "worker".into())], "{\"seed\":1}");
        let parsed = spade_sim::JsonValue::parse(&doc).expect("valid JSON");
        assert_eq!(
            parsed
                .get("traceEvents")
                .and_then(|e| e.as_array())
                .map(<[_]>::len),
            Some(4)
        );
    }
}
