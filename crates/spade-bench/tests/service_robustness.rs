//! Robustness suite for the experiment daemon (`spade_bench::service`):
//! cold/warm byte-identity through the crash-safe cache, byzantine
//! clients (garbage, partial frames, oversized lines, dropped
//! connections), overload back-pressure, per-request deadlines, and
//! graceful shutdown with drain.
//!
//! Every test binds its own daemon on port 0 — the suites are
//! independent and parallel-safe.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::Duration;

use spade_bench::service::{Service, ServiceClient, ServiceConfig, ServiceSummary};
use spade_sim::JsonValue;

/// Binds a daemon with `config`, serves it on a background thread, and
/// returns the address plus the join handle yielding the summary.
fn spawn_service(config: ServiceConfig) -> (SocketAddr, std::thread::JoinHandle<ServiceSummary>) {
    let svc = Service::bind("127.0.0.1:0", config).expect("bind");
    let addr = svc.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || svc.run().expect("service run"));
    (addr, handle)
}

fn test_config(cache_dir: Option<&Path>) -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        queue_capacity: 2,
        max_connections: 16,
        read_timeout: Duration::from_millis(50),
        cache_dir: cache_dir.map(Path::to_path_buf),
        ..ServiceConfig::default()
    }
}

fn parse(response: &str) -> JsonValue {
    JsonValue::parse(response).unwrap_or_else(|e| panic!("bad response {response:?}: {e}"))
}

fn shutdown_and_join(
    addr: &SocketAddr,
    handle: std::thread::JoinHandle<ServiceSummary>,
) -> ServiceSummary {
    let mut c = ServiceClient::connect(addr).expect("connect for shutdown");
    let resp = parse(&c.request_line("{\"cmd\":\"shutdown\"}").expect("shutdown"));
    assert_eq!(resp.get("ok").and_then(JsonValue::as_bool), Some(true));
    handle.join().expect("service thread")
}

const RUN_MYC: &str = r#"{"cmd":"run","benchmark":"myc","k":16,"pes":4,"scale":"tiny"}"#;

#[test]
fn cold_then_warm_cache_hits_are_byte_identical() {
    let dir = std::env::temp_dir().join(format!("spade_svc_warm_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (addr, handle) = spawn_service(test_config(Some(&dir)));

    let mut client = ServiceClient::connect(&addr).expect("connect");
    let cold = client.request_line(RUN_MYC).expect("cold run");
    let warm = client.request_line(RUN_MYC).expect("warm run");
    let cold_doc = parse(&cold);
    let warm_doc = parse(&warm);
    assert_eq!(cold_doc.get("ok").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(
        cold_doc.get("cached").and_then(JsonValue::as_bool),
        Some(false),
        "first request must simulate"
    );
    assert_eq!(
        warm_doc.get("cached").and_then(JsonValue::as_bool),
        Some(true),
        "second request must hit the cache"
    );
    // The headline property: the served result bytes are identical.
    assert_eq!(
        cold_doc.get("result").expect("result").render(),
        warm_doc.get("result").expect("result").render()
    );
    assert_eq!(cold_doc.get("key").unwrap(), warm_doc.get("key").unwrap());
    // No host-wall noise in the payload — that's what makes the bytes
    // reproducible across hosts and restarts.
    let report = cold_doc
        .get("result")
        .and_then(|r| r.get("report"))
        .expect("report");
    assert_eq!(
        report.get("host_wall_ns").and_then(JsonValue::as_f64),
        Some(0.0)
    );

    let summary = shutdown_and_join(&addr, handle);
    assert_eq!(summary.served_ok, 2);
    let cache = summary.cache.expect("cache stats");
    assert_eq!((cache.misses, cache.hits, cache.stores), (1, 1, 1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_entries_survive_a_daemon_restart() {
    let dir = std::env::temp_dir().join(format!("spade_svc_restart_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let (addr, handle) = spawn_service(test_config(Some(&dir)));
    let mut client = ServiceClient::connect(&addr).expect("connect");
    let first = parse(&client.request_line(RUN_MYC).expect("cold run"));
    assert_eq!(
        first.get("cached").and_then(JsonValue::as_bool),
        Some(false)
    );
    shutdown_and_join(&addr, handle);

    // A new daemon process-equivalent over the same directory: the very
    // first request is served from disk, byte-identical.
    let (addr, handle) = spawn_service(test_config(Some(&dir)));
    let mut client = ServiceClient::connect(&addr).expect("reconnect");
    let revived = parse(&client.request_line(RUN_MYC).expect("warm run"));
    assert_eq!(
        revived.get("cached").and_then(JsonValue::as_bool),
        Some(true)
    );
    assert_eq!(
        revived.get("result").expect("result").render(),
        first.get("result").expect("result").render()
    );
    shutdown_and_join(&addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn byzantine_clients_fail_their_requests_not_the_daemon() {
    let (addr, handle) = spawn_service(test_config(None));

    // Garbage on a connection fails that request; the same connection
    // keeps working afterwards.
    let mut client = ServiceClient::connect(&addr).expect("connect");
    let garbage = parse(
        &client
            .request_line("\u{1}\u{2} not json at all")
            .expect("garbage"),
    );
    assert_eq!(garbage.get("ok").and_then(JsonValue::as_bool), Some(false));
    assert_eq!(
        garbage
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(JsonValue::as_str),
        Some("bad_request")
    );
    let ping = parse(
        &client
            .request_line("{\"cmd\":\"ping\"}")
            .expect("ping after garbage"),
    );
    assert_eq!(ping.get("ok").and_then(JsonValue::as_bool), Some(true));

    // Valid JSON that is not a valid request: still just a bad_request.
    for frame in [
        "null",
        "[1,2,3]",
        "{\"no_cmd\":true}",
        "{\"cmd\":\"frobnicate\"}",
        "{\"cmd\":\"run\"}",
        "{\"cmd\":\"run\",\"benchmark\":\"nope\"}",
        "{\"cmd\":\"run\",\"benchmark\":\"myc\",\"k\":17}",
        "{\"cmd\":\"run\",\"benchmark\":\"myc\",\"pes\":3}",
        "{\"cmd\":\"run\",\"benchmark\":\"myc\",\"pes\":1000000}",
        "{\"cmd\":\"run\",\"benchmark\":\"myc\",\"rmatrix\":\"psychic\"}",
        "{\"cmd\":\"search\",\"benchmark\":\"myc\",\"kernel\":\"sddmm\"}",
    ] {
        let resp = parse(&client.request_line(frame).expect("reply"));
        assert_eq!(
            resp.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(JsonValue::as_str),
            Some("bad_request"),
            "frame {frame:?} should be rejected"
        );
    }

    // A client that sends half a frame and disappears costs nothing.
    {
        let mut half = TcpStream::connect(addr).expect("connect");
        half.write_all(b"{\"cmd\":\"ru").expect("partial write");
        // Dropped here: mid-frame EOF on the daemon side.
    }

    // An oversized line is answered with a structured error, then the
    // connection closes (framing is unrecoverable).
    {
        let mut big = ServiceClient::connect(&addr).expect("connect");
        let huge = format!(
            "{{\"cmd\":\"run\",\"pad\":\"{}\"}}",
            "x".repeat(2 * 1024 * 1024)
        );
        let resp = parse(&big.request_line(&huge).expect("oversize reply"));
        assert_eq!(
            resp.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(JsonValue::as_str),
            Some("bad_request")
        );
        assert!(big.read_response().is_err(), "connection should be closed");
    }

    // After all of that, the daemon still serves real work.
    let run = parse(&client.request_line(RUN_MYC).expect("run after abuse"));
    assert_eq!(run.get("ok").and_then(JsonValue::as_bool), Some(true));

    let summary = shutdown_and_join(&addr, handle);
    assert!(
        summary.bad_frames >= 11,
        "bad frames: {}",
        summary.bad_frames
    );
    // Only the real run counts (ping/status are not work); the point is
    // that it went through untouched by the abuse around it.
    assert_eq!(summary.served_ok, 1, "garbage never blocks real requests");
}

#[test]
fn overload_answers_with_backpressure_not_buffering() {
    let config = ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        // Fault injection: every job is held for 3 s before it runs, so
        // the worker is *provably* busy while the burst below arrives —
        // no dependence on simulation wall time.
        worker_delay: Some(Duration::from_secs(3)),
        ..test_config(None)
    };
    let (addr, handle) = spawn_service(config);

    // Occupy the single worker with one request and the single queue
    // slot with a second. Neither reply is awaited yet — each connection
    // holds at most one in-flight request.
    let slow = std::thread::spawn(move || {
        let mut c = ServiceClient::connect(&addr).expect("connect slow");
        c.request_line(r#"{"cmd":"search","benchmark":"myc","k":16,"pes":4,"no_cache":true}"#)
            .expect("slow search")
    });
    std::thread::sleep(Duration::from_millis(500));
    let queued = std::thread::spawn(move || {
        let mut c = ServiceClient::connect(&addr).expect("connect queued");
        c.request_line(r#"{"cmd":"run","benchmark":"myc","k":16,"pes":4,"no_cache":true}"#)
            .expect("queued run")
    });
    std::thread::sleep(Duration::from_millis(500));

    // The burst: every extra request is answered *immediately* with a
    // structured overload reply, not buffered.
    for i in 0..4 {
        let mut c = ServiceClient::connect(&addr).expect("connect burst");
        let resp = parse(
            &c.request_line(&format!(
                "{{\"cmd\":\"run\",\"benchmark\":\"kro\",\"k\":16,\"pes\":4,\"no_cache\":true,\"id\":{i}}}"
            ))
            .expect("burst reply"),
        );
        assert_eq!(
            resp.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(JsonValue::as_str),
            Some("overloaded"),
            "burst request {i} got {}",
            resp.render()
        );
        assert!(
            resp.get("retry_after_ms")
                .and_then(JsonValue::as_u64)
                .is_some(),
            "overload replies carry a retry hint"
        );
    }

    // The admitted requests still complete normally.
    let slow = parse(&slow.join().expect("slow thread"));
    let queued = parse(&queued.join().expect("queued thread"));
    assert_eq!(slow.get("ok").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(queued.get("ok").and_then(JsonValue::as_bool), Some(true));

    let summary = shutdown_and_join(&addr, handle);
    assert_eq!(summary.rejected_overload, 4);
    assert_eq!(summary.served_ok, 2);
}

#[test]
fn deadline_exceeded_is_a_structured_error() {
    let (addr, handle) = spawn_service(test_config(None));
    let mut client = ServiceClient::connect(&addr).expect("connect");
    let resp = parse(
        &client
            .request_line(r#"{"cmd":"run","benchmark":"myc","k":16,"pes":4,"deadline_cycles":50}"#)
            .expect("deadline run"),
    );
    assert_eq!(resp.get("ok").and_then(JsonValue::as_bool), Some(false));
    assert_eq!(
        resp.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(JsonValue::as_str),
        Some("deadline_exceeded"),
        "got {}",
        resp.render()
    );
    // The same request with a workable deadline succeeds — the ceiling
    // is per-request, not sticky.
    let ok = parse(
        &client
            .request_line(
                r#"{"cmd":"run","benchmark":"myc","k":16,"pes":4,"deadline_cycles":1000000}"#,
            )
            .expect("ok run"),
    );
    assert_eq!(ok.get("ok").and_then(JsonValue::as_bool), Some(true));
    let summary = shutdown_and_join(&addr, handle);
    assert_eq!((summary.served_ok, summary.served_err), (1, 1));
}

#[test]
fn status_and_ping_report_live_state() {
    let (addr, handle) = spawn_service(test_config(None));
    let mut client = ServiceClient::connect(&addr).expect("connect");
    let ping = parse(&client.request_line("{\"cmd\":\"ping\"}").expect("ping"));
    assert_eq!(ping.get("protocol").and_then(JsonValue::as_u64), Some(4));
    let status = parse(&client.request_line("{\"cmd\":\"status\"}").expect("status"));
    for field in [
        "uptime_ms",
        "queue_depth",
        "queue_capacity",
        "in_flight",
        "workers",
        "served_ok",
        "served_err",
        "rejected_overload",
        "bad_frames",
        "connections",
    ] {
        assert!(status.get(field).is_some(), "status missing {field}");
    }
    assert_eq!(
        status.get("shutting_down").and_then(JsonValue::as_bool),
        Some(false)
    );
    assert!(status.get("cache").is_some_and(|c| *c == JsonValue::Null));
    shutdown_and_join(&addr, handle);
}

#[test]
fn status_right_after_a_reply_counts_no_finished_job() {
    let (addr, handle) = spawn_service(test_config(None));
    let mut client = ServiceClient::connect(&addr).expect("connect");
    for round in 0..20 {
        let run = parse(
            &client
                .request_line(
                    r#"{"cmd":"run","benchmark":"myc","k":16,"pes":4,"scale":"tiny","no_cache":true}"#,
                )
                .expect("run"),
        );
        assert_eq!(run.get("ok").and_then(JsonValue::as_bool), Some(true));
        let status = parse(&client.request_line("{\"cmd\":\"status\"}").expect("status"));
        for gauge in ["in_flight", "queue_depth"] {
            assert_eq!(
                status.get(gauge).and_then(JsonValue::as_u64),
                Some(0),
                "round {round}: {gauge} still counts the answered run"
            );
        }
    }
    shutdown_and_join(&addr, handle);
}

#[test]
fn shutdown_drains_and_new_requests_are_turned_away() {
    let (addr, handle) = spawn_service(test_config(None));
    // A connection opened before shutdown...
    let mut early = ServiceClient::connect(&addr).expect("connect early");
    let mut late = ServiceClient::connect(&addr).expect("connect late");
    let resp = parse(
        &early
            .request_line("{\"cmd\":\"shutdown\"}")
            .expect("shutdown"),
    );
    assert_eq!(
        resp.get("draining").and_then(JsonValue::as_bool),
        Some(true)
    );
    // Give every handler a read-timeout tick to observe the flag.
    std::thread::sleep(Duration::from_millis(250));
    // ...whose next request lands during the drain: answered with a
    // structured shutting_down error (or the connection is closed),
    // never silently dropped into a dead queue.
    match late.request_line("{\"cmd\":\"ping\"}") {
        Ok(reply) => {
            let doc = parse(&reply);
            assert_eq!(
                doc.get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(JsonValue::as_str),
                Some("shutting_down")
            );
        }
        Err(e) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::UnexpectedEof
                    | std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::BrokenPipe
            ),
            "unexpected error during drain: {e}"
        ),
    }
    let summary = handle.join().expect("service thread");
    assert_eq!(summary.served_err, 0);
}

// ---------------------------------------------------------------------------
// Observability: metrics scrapes, the dataset query surface, wire traces,
// and the pure-observation guarantee
// ---------------------------------------------------------------------------

use std::sync::Arc;

use spade_bench::parallel::{Job, ParallelRunner};
use spade_bench::service::trace_document;
use spade_bench::suite::Workload;
use spade_core::{ExecutionPlan, Primitive, SystemConfig};
use spade_matrix::generators::{Benchmark, Scale};

const TRACE_MYC: &str =
    r#"{"cmd":"trace","benchmark":"myc","k":16,"pes":4,"scale":"tiny","window":64}"#;

#[test]
fn metrics_scrape_reflects_requests_and_cache_traffic() {
    let dir = std::env::temp_dir().join(format!("spade_svc_metrics_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (addr, handle) = spawn_service(test_config(Some(&dir)));

    let mut client = ServiceClient::connect(&addr).expect("connect");
    let ping = parse(&client.request_line("{\"cmd\":\"ping\"}").expect("ping"));
    assert_eq!(ping.get("ok").and_then(JsonValue::as_bool), Some(true));
    for _ in 0..2 {
        let run = parse(&client.request_line(RUN_MYC).expect("run"));
        assert_eq!(run.get("ok").and_then(JsonValue::as_bool), Some(true));
    }

    let resp = parse(
        &client
            .request_line("{\"cmd\":\"metrics\"}")
            .expect("metrics"),
    );
    assert_eq!(resp.get("ok").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(resp.get("protocol").and_then(JsonValue::as_u64), Some(4));
    let snap = spade_bench::metrics::MetricsSnapshot::from_json(
        resp.get("result").expect("metrics result"),
    )
    .expect("decode snapshot");

    let requests = |cmd: &str, outcome: &str| {
        snap.counter(
            "spade_requests_total",
            &[("cmd", cmd), ("outcome", outcome)],
        )
    };
    assert_eq!(requests("ping", "ok"), Some(1));
    assert_eq!(requests("run", "ok"), Some(2));
    assert_eq!(requests("run", "error"), Some(0));
    // One cold miss+store, one warm hit — the registry mirrors the cache.
    assert_eq!(snap.counter("spade_cache_misses_total", &[]), Some(1));
    assert_eq!(snap.counter("spade_cache_hits_total", &[]), Some(1));
    assert_eq!(snap.counter("spade_cache_stores_total", &[]), Some(1));
    assert_eq!(snap.counter("spade_deadline_kills_total", &[]), Some(0));
    // Exactly one job reached a worker (the warm request never queued),
    // so each latency histogram holds one observation.
    for name in [
        "spade_queue_wait_microseconds",
        "spade_exec_microseconds",
        "spade_sim_cycles",
    ] {
        let h = snap
            .find(name, &[])
            .unwrap_or_else(|| panic!("missing {name}"));
        assert_eq!(h.histogram_count(), Some(1), "{name}");
    }

    // Satellite: the drain summary carries the same snapshot shape, with
    // the metrics scrape itself now counted too.
    let summary = shutdown_and_join(&addr, handle);
    let m = &summary.metrics;
    assert_eq!(
        m.counter("spade_requests_total", &[("cmd", "run"), ("outcome", "ok")]),
        Some(2)
    );
    assert_eq!(
        m.counter(
            "spade_requests_total",
            &[("cmd", "metrics"), ("outcome", "ok")]
        ),
        Some(1)
    );
    assert_eq!(m.counter("spade_cache_hits_total", &[]), Some(1));
    assert!(
        summary.to_json().get("metrics").is_some(),
        "machine-readable drain summary must embed the metrics snapshot"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_query_reflects_exactly_the_cached_entries() {
    let dir = std::env::temp_dir().join(format!("spade_svc_query_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (addr, handle) = spawn_service(test_config(Some(&dir)));

    let mut client = ServiceClient::connect(&addr).expect("connect");
    let mut keys = Vec::new();
    for req in [
        RUN_MYC,
        r#"{"cmd":"run","benchmark":"kro","k":16,"pes":4,"scale":"tiny"}"#,
        TRACE_MYC,
    ] {
        let doc = parse(&client.request_line(req).expect("seed request"));
        assert_eq!(doc.get("ok").and_then(JsonValue::as_bool), Some(true));
        keys.push(
            doc.get("key")
                .and_then(JsonValue::as_str)
                .expect("cached request carries its key")
                .to_string(),
        );
    }
    keys.sort();

    let query = |client: &mut ServiceClient, req: &str| {
        let doc = parse(&client.request_line(req).expect("query"));
        assert_eq!(
            doc.get("ok").and_then(JsonValue::as_bool),
            Some(true),
            "{req}"
        );
        doc.get("result").expect("query result").clone()
    };

    // The unfiltered catalog is exactly the entries the runs above wrote.
    let all = query(&mut client, r#"{"cmd":"query"}"#);
    assert_eq!(all.get("total").and_then(JsonValue::as_u64), Some(3));
    assert_eq!(all.get("matched").and_then(JsonValue::as_u64), Some(3));
    let mut listed: Vec<String> = all
        .get("entries")
        .and_then(JsonValue::as_array)
        .expect("entries")
        .iter()
        .map(|e| {
            e.get("key")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string()
        })
        .collect();
    listed.sort();
    assert_eq!(listed, keys, "catalog must mirror the cache exactly");

    // Filters: by benchmark, by kind, and a filter that matches nothing.
    let myc = query(
        &mut client,
        r#"{"cmd":"query","benchmark":"myc","kind":"run"}"#,
    );
    assert_eq!(myc.get("matched").and_then(JsonValue::as_u64), Some(1));
    let entry = &myc.get("entries").and_then(JsonValue::as_array).unwrap()[0];
    assert_eq!(
        entry.get("benchmark").and_then(JsonValue::as_str),
        Some("MYC")
    );
    assert_eq!(
        entry.get("kernel").and_then(JsonValue::as_str),
        Some("spmm")
    );
    assert_eq!(entry.get("kind").and_then(JsonValue::as_str), Some("run"));
    assert!(entry.get("cycles").and_then(JsonValue::as_u64).unwrap() > 0);
    let traces = query(&mut client, r#"{"cmd":"query","kind":"trace"}"#);
    assert_eq!(traces.get("matched").and_then(JsonValue::as_u64), Some(1));
    let none = query(
        &mut client,
        r#"{"cmd":"query","benchmark":"kro","kind":"trace"}"#,
    );
    assert_eq!(none.get("matched").and_then(JsonValue::as_u64), Some(0));

    // Bad filter values are bad requests, like every other wire field.
    let bad = parse(
        &client
            .request_line(r#"{"cmd":"query","kind":"frobnicate"}"#)
            .expect("bad query"),
    );
    assert_eq!(bad.get("ok").and_then(JsonValue::as_bool), Some(false));

    shutdown_and_join(&addr, handle);

    // Delete the advisory index: a restarted daemon must rebuild the
    // catalog from the entry payloads themselves.
    std::fs::remove_file(dir.join("index.json")).expect("remove index");
    let (addr, handle) = spawn_service(test_config(Some(&dir)));
    let mut client = ServiceClient::connect(&addr).expect("reconnect");
    let rebuilt = query(&mut client, r#"{"cmd":"query"}"#);
    let mut listed: Vec<String> = rebuilt
        .get("entries")
        .and_then(JsonValue::as_array)
        .expect("entries")
        .iter()
        .map(|e| {
            e.get("key")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string()
        })
        .collect();
    listed.sort();
    assert_eq!(listed, keys, "catalog must survive losing index.json");
    shutdown_and_join(&addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wire_served_trace_is_byte_identical_to_a_local_trace() {
    let dir = std::env::temp_dir().join(format!("spade_svc_trace_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (addr, handle) = spawn_service(test_config(Some(&dir)));

    let mut client = ServiceClient::connect(&addr).expect("connect");
    let cold = client.request_line(TRACE_MYC).expect("cold trace");
    let cold_doc = parse(&cold);
    assert_eq!(cold_doc.get("ok").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(
        cold_doc.get("cached").and_then(JsonValue::as_bool),
        Some(false)
    );
    let result = cold_doc.get("result").expect("trace result");
    assert_eq!(result.get("window").and_then(JsonValue::as_u64), Some(64));

    // The envelope splices the Chrome JSON in verbatim; everything after
    // `"trace":` up to the two closing braces is the document itself.
    let idx = cold.find(",\"trace\":").expect("trace field in response");
    let wire_trace = &cold[idx + ",\"trace\":".len()..cold.len() - 2];

    // The same job executed locally, exactly as `spade-cli trace` builds
    // it (defaults mirrored from the wire parser, including the service's
    // default deadline).
    let workload = Arc::new(Workload::prepare(Benchmark::Myc, Scale::Tiny, 16));
    let plan = ExecutionPlan::spmm_base(&workload.a).expect("plan");
    let config = Arc::new(SystemConfig::scaled(4));
    let job = Job::new(&workload, &config, Primitive::Spmm, plan)
        .with_deadline_cycles(Some(4_000_000_000))
        .with_telemetry(Some(64))
        .with_trace(true);
    let mut outputs = ParallelRunner::new(1).run_outputs(std::slice::from_ref(&job));
    let output = outputs.pop().expect("one output").expect("local trace run");
    let (chrome, events) = trace_document(&output, config.num_pes).expect("local document");

    assert_eq!(
        result.get("events").and_then(JsonValue::as_u64),
        Some(events as u64)
    );
    assert!(
        wire_trace == chrome,
        "wire-served trace differs from the locally built document"
    );

    // A warm repeat is a cache hit with the same bytes.
    let warm = client.request_line(TRACE_MYC).expect("warm trace");
    let warm_doc = parse(&warm);
    assert_eq!(
        warm_doc.get("cached").and_then(JsonValue::as_bool),
        Some(true)
    );
    let warm_idx = warm
        .find(",\"trace\":")
        .expect("trace field in warm response");
    assert!(
        warm[warm_idx..warm.len() - 2].strip_prefix(",\"trace\":") == Some(&chrome[..]),
        "cache-served trace bytes drifted"
    );

    shutdown_and_join(&addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn observability_never_changes_served_bytes() {
    // Two daemons over fresh caches, identical except that one has JSON
    // span logging enabled. Every reply — run, trace, query — must be
    // byte-identical: metrics and logs observe, they never participate.
    let base = std::env::temp_dir().join(format!("spade_svc_pure_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let requests = [
        RUN_MYC,
        RUN_MYC,
        TRACE_MYC,
        r#"{"cmd":"query","kind":"run"}"#,
    ];

    let mut transcripts: Vec<Vec<String>> = Vec::new();
    for (tag, log_json) in [("plain", false), ("logged", true)] {
        let dir = base.join(tag);
        let config = ServiceConfig {
            log_json,
            ..test_config(Some(&dir))
        };
        let (addr, handle) = spawn_service(config);
        let mut client = ServiceClient::connect(&addr).expect("connect");
        let mut lines = Vec::new();
        for req in requests {
            lines.push(client.request_line(req).expect("request"));
        }
        shutdown_and_join(&addr, handle);
        transcripts.push(lines);
    }

    for (i, (plain, logged)) in transcripts[0].iter().zip(&transcripts[1]).enumerate() {
        assert!(
            plain == logged,
            "request {i} ({}) served different bytes with logging on",
            requests[i]
        );
    }
    let _ = std::fs::remove_dir_all(&base);
}

// ---------------------------------------------------------------------------
// Protocol v3: batch sweeps, server-side aggregation, and the bugfix
// sweep (index freshness, load-scaled back-pressure, limit: 0)
// ---------------------------------------------------------------------------

use spade_bench::service::{scaled_retry_after_ms, MAX_RETRY_AFTER_MS};

/// The raw bytes of the first `"result":` object at or after `from` —
/// brace-matched and string-aware, so byte-identity assertions compare
/// the spliced payload itself, not a parse/re-render of it.
fn raw_result_slice(raw: &str, from: usize) -> &str {
    let rel = raw[from..].find("\"result\":").expect("result field") + "\"result\":".len();
    let start = from + rel;
    let bytes = raw.as_bytes();
    assert_eq!(bytes[start], b'{', "result payload must be an object");
    let (mut depth, mut in_str, mut escaped) = (0usize, false, false);
    for (i, &b) in bytes[start..].iter().enumerate() {
        if in_str {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_str = false;
            }
            continue;
        }
        match b {
            b'"' => in_str = true,
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return &raw[start..=start + i];
                }
            }
            _ => {}
        }
    }
    panic!("unterminated result object in {raw:?}");
}

fn jobs_of(doc: &JsonValue) -> Vec<JsonValue> {
    doc.get("result")
        .and_then(|r| r.get("jobs"))
        .and_then(JsonValue::as_array)
        .expect("batch jobs array")
        .to_vec()
}

fn batch_count(doc: &JsonValue, field: &str) -> u64 {
    doc.get("result")
        .and_then(|r| r.get(field))
        .and_then(JsonValue::as_u64)
        .unwrap_or_else(|| panic!("batch count {field} in {}", doc.render()))
}

/// Batch tests that expect every job admitted need headroom beyond the
/// deliberately tiny default queue: phase-1 admission never waits, so a
/// queue shallower than the batch races the workers' dequeue timing.
fn batch_config(cache_dir: Option<&Path>) -> ServiceConfig {
    ServiceConfig {
        queue_capacity: 8,
        ..test_config(cache_dir)
    }
}

const BATCH_3: &str = concat!(
    r#"{"cmd":"batch","scale":"tiny","jobs":["#,
    r#"{"benchmark":"myc","k":16,"pes":4},"#,
    r#"{"benchmark":"kro","k":16,"pes":4},"#,
    r#"{"benchmark":"myc","k":16,"pes":8}]}"#
);

const SOLO_3: [&str; 3] = [
    r#"{"cmd":"run","benchmark":"myc","k":16,"pes":4,"scale":"tiny"}"#,
    r#"{"cmd":"run","benchmark":"kro","k":16,"pes":4,"scale":"tiny"}"#,
    r#"{"cmd":"run","benchmark":"myc","k":16,"pes":8,"scale":"tiny"}"#,
];

#[test]
fn batch_jobs_are_byte_identical_to_individual_requests() {
    // Two fresh daemons over separate caches: one serves the jobs
    // individually, the other as a single batch. The per-job payload
    // bytes must match — cold (simulated) and warm (cache-served).
    let solo_dir = std::env::temp_dir().join(format!("spade_svc_b_solo_{}", std::process::id()));
    let batch_dir = std::env::temp_dir().join(format!("spade_svc_b_batch_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&solo_dir);
    let _ = std::fs::remove_dir_all(&batch_dir);

    let (addr, handle) = spawn_service(test_config(Some(&solo_dir)));
    let mut client = ServiceClient::connect(&addr).expect("connect solo");
    let mut solo_payloads = Vec::new();
    for req in SOLO_3 {
        let raw = client.request_line(req).expect("solo run");
        let doc = parse(&raw);
        assert_eq!(doc.get("ok").and_then(JsonValue::as_bool), Some(true));
        solo_payloads.push(raw_result_slice(&raw, 0).to_string());
    }
    shutdown_and_join(&addr, handle);

    let (addr, handle) = spawn_service(batch_config(Some(&batch_dir)));
    let mut client = ServiceClient::connect(&addr).expect("connect batch");
    let cold = client.request_line(BATCH_3).expect("cold batch");
    let cold_doc = parse(&cold);
    assert_eq!(cold_doc.get("ok").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(batch_count(&cold_doc, "total"), 3);
    assert_eq!(batch_count(&cold_doc, "succeeded"), 3);
    assert_eq!(batch_count(&cold_doc, "cached"), 0);
    assert_eq!(batch_count(&cold_doc, "failed"), 0);
    assert_eq!(batch_count(&cold_doc, "rejected"), 0);
    for (i, job) in jobs_of(&cold_doc).iter().enumerate() {
        assert_eq!(job.get("index").and_then(JsonValue::as_u64), Some(i as u64));
        assert_eq!(job.get("ok").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(job.get("cached").and_then(JsonValue::as_bool), Some(false));
        assert!(job.get("key").and_then(JsonValue::as_str).is_some());
    }
    // The headline acceptance property: each batch slot splices exactly
    // the bytes the standalone request served.
    for (i, solo) in solo_payloads.iter().enumerate() {
        let at = cold
            .find(&format!("{{\"index\":{i},"))
            .expect("job slot marker");
        assert!(
            raw_result_slice(&cold, at) == solo,
            "cold batch job {i} payload differs from the standalone reply"
        );
    }

    // Warm repeat: every slot is a cache hit with the same bytes.
    let warm = client.request_line(BATCH_3).expect("warm batch");
    let warm_doc = parse(&warm);
    assert_eq!(batch_count(&warm_doc, "succeeded"), 3);
    assert_eq!(batch_count(&warm_doc, "cached"), 3);
    for (i, job) in jobs_of(&warm_doc).iter().enumerate() {
        assert_eq!(job.get("cached").and_then(JsonValue::as_bool), Some(true));
        let at = warm
            .find(&format!("{{\"index\":{i},"))
            .expect("warm job slot");
        assert!(
            raw_result_slice(&warm, at) == solo_payloads[i],
            "warm batch job {i} payload drifted"
        );
    }

    // And the cross-check: standalone requests on the batch daemon are
    // warm hits serving the very same bytes.
    for (req, solo) in SOLO_3.iter().zip(&solo_payloads) {
        let raw = client.request_line(req).expect("solo on batch daemon");
        let doc = parse(&raw);
        assert_eq!(doc.get("cached").and_then(JsonValue::as_bool), Some(true));
        assert!(raw_result_slice(&raw, 0) == solo.as_str());
    }

    let summary = shutdown_and_join(&addr, handle);
    // Per-job work units: 3 cold + 3 warm batch + 3 warm standalone.
    assert_eq!(summary.served_ok, 9);
    let batch_jobs = |outcome: &str| {
        summary
            .metrics
            .counter("spade_batch_jobs_total", &[("outcome", outcome)])
    };
    assert_eq!(batch_jobs("ok"), Some(3));
    assert_eq!(batch_jobs("cached"), Some(3));
    assert_eq!(batch_jobs("rejected"), Some(0));
    assert_eq!(batch_jobs("error"), Some(0));
    assert_eq!(
        summary.metrics.counter(
            "spade_requests_total",
            &[("cmd", "batch"), ("outcome", "ok")]
        ),
        Some(2)
    );
    let _ = std::fs::remove_dir_all(&solo_dir);
    let _ = std::fs::remove_dir_all(&batch_dir);
}

#[test]
fn batch_sweep_expands_the_cross_product_in_order() {
    let (addr, handle) = spawn_service(batch_config(None));
    let mut client = ServiceClient::connect(&addr).expect("connect");
    let resp = parse(
        &client
            .request_line(
                r#"{"cmd":"batch","scale":"tiny","sweep":{"benchmarks":["myc","kro"],"k":[16],"pes":[4,8]}}"#,
            )
            .expect("sweep batch"),
    );
    assert_eq!(resp.get("ok").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(batch_count(&resp, "total"), 4);
    assert_eq!(batch_count(&resp, "succeeded"), 4);
    // benchmarks × k × pes, benchmark-major: the reply order is a
    // deterministic function of the request.
    let expect = [("myc", 4), ("myc", 8), ("kro", 4), ("kro", 8)];
    for (i, job) in jobs_of(&resp).iter().enumerate() {
        let result = job.get("result").expect("job result");
        let bench = result
            .get("benchmark")
            .and_then(JsonValue::as_str)
            .expect("benchmark");
        assert!(
            bench.eq_ignore_ascii_case(expect[i].0),
            "job {i}: {bench} != {}",
            expect[i].0
        );
        assert_eq!(
            result.get("pes").and_then(JsonValue::as_u64),
            Some(expect[i].1),
            "job {i}"
        );
    }
    let summary = shutdown_and_join(&addr, handle);
    assert_eq!(summary.served_ok, 4);
}

#[test]
fn batch_structural_errors_reject_while_bad_jobs_poison_only_their_slot() {
    let (addr, handle) = spawn_service(batch_config(None));
    let mut client = ServiceClient::connect(&addr).expect("connect");
    // Structural problems reject the whole request as bad_request.
    for frame in [
        r#"{"cmd":"batch"}"#,
        r#"{"cmd":"batch","jobs":[{"benchmark":"myc"}],"sweep":{"benchmarks":["myc"]}}"#,
        r#"{"cmd":"batch","jobs":[]}"#,
        r#"{"cmd":"batch","jobs":"myc"}"#,
        r#"{"cmd":"batch","sweep":{"benchmarks":[]}}"#,
        r#"{"cmd":"batch","sweep":{"k":[16]}}"#,
    ] {
        let resp = parse(&client.request_line(frame).expect("reply"));
        assert_eq!(
            resp.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(JsonValue::as_str),
            Some("bad_request"),
            "frame {frame:?} got {}",
            resp.render()
        );
    }
    // A malformed job spec poisons exactly its own slot.
    let resp = parse(
        &client
            .request_line(concat!(
                r#"{"cmd":"batch","scale":"tiny","jobs":["#,
                r#"{"benchmark":"myc","k":16,"pes":4},"#,
                r#"{"benchmark":"nope"},"#,
                r#"{"benchmark":"kro","k":16,"pes":4}]}"#
            ))
            .expect("poisoned batch"),
    );
    assert_eq!(resp.get("ok").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(batch_count(&resp, "succeeded"), 2);
    assert_eq!(batch_count(&resp, "failed"), 1);
    let jobs = jobs_of(&resp);
    assert_eq!(jobs[0].get("ok").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(jobs[2].get("ok").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(
        jobs[1]
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(JsonValue::as_str),
        Some("bad_request")
    );
    let summary = shutdown_and_join(&addr, handle);
    assert_eq!((summary.served_ok, summary.served_err), (2, 0));
}

#[test]
fn batch_deadline_poisoned_job_fails_alone() {
    let (addr, handle) = spawn_service(batch_config(None));
    let mut client = ServiceClient::connect(&addr).expect("connect");
    let resp = parse(
        &client
            .request_line(concat!(
                r#"{"cmd":"batch","scale":"tiny","jobs":["#,
                r#"{"benchmark":"myc","k":16,"pes":4},"#,
                r#"{"benchmark":"myc","k":16,"pes":4,"deadline_cycles":50},"#,
                r#"{"benchmark":"kro","k":16,"pes":4}]}"#
            ))
            .expect("batch with poisoned middle job"),
    );
    assert_eq!(resp.get("ok").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(batch_count(&resp, "succeeded"), 2);
    assert_eq!(batch_count(&resp, "failed"), 1);
    let jobs = jobs_of(&resp);
    assert_eq!(jobs[0].get("ok").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(jobs[2].get("ok").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(
        jobs[1]
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(JsonValue::as_str),
        Some("deadline_exceeded"),
        "got {}",
        jobs[1].render()
    );
    let summary = shutdown_and_join(&addr, handle);
    assert_eq!((summary.served_ok, summary.served_err), (2, 1));
    assert_eq!(
        summary
            .metrics
            .counter("spade_batch_jobs_total", &[("outcome", "error")]),
        Some(1)
    );
    assert_eq!(
        summary.metrics.counter("spade_deadline_kills_total", &[]),
        Some(1)
    );
}

#[test]
fn mid_batch_overload_admits_what_fits() {
    let config = ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        worker_delay: Some(Duration::from_secs(3)),
        ..test_config(None)
    };
    let base_retry = config.retry_after_ms;
    let (addr, handle) = spawn_service(config);

    // Occupy the single worker; the batch below then fills the single
    // queue slot with its first job and gets per-job rejections for the
    // rest — admission is per job, never all-or-nothing.
    let slow = std::thread::spawn(move || {
        let mut c = ServiceClient::connect(&addr).expect("connect slow");
        c.request_line(r#"{"cmd":"run","benchmark":"myc","k":16,"pes":4,"no_cache":true}"#)
            .expect("slow run")
    });
    std::thread::sleep(Duration::from_millis(600));

    let mut client = ServiceClient::connect(&addr).expect("connect batch");
    let resp = parse(
        &client
            .request_line(concat!(
                r#"{"cmd":"batch","scale":"tiny","no_cache":true,"jobs":["#,
                r#"{"benchmark":"kro","k":16,"pes":4},"#,
                r#"{"benchmark":"myc","k":16,"pes":8},"#,
                r#"{"benchmark":"kro","k":16,"pes":8}]}"#
            ))
            .expect("overloaded batch"),
    );
    assert_eq!(resp.get("ok").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(batch_count(&resp, "total"), 3);
    assert_eq!(batch_count(&resp, "succeeded"), 1);
    assert_eq!(batch_count(&resp, "rejected"), 2);
    assert_eq!(batch_count(&resp, "failed"), 0);
    let jobs = jobs_of(&resp);
    assert_eq!(jobs[0].get("ok").and_then(JsonValue::as_bool), Some(true));
    for (i, job) in jobs.iter().enumerate().skip(1) {
        assert_eq!(
            job.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(JsonValue::as_str),
            Some("overloaded"),
            "job {i} got {}",
            job.render()
        );
        // The satellite fix: the retry hint is scaled from live load,
        // not the static base — at full occupancy it is strictly larger.
        let hint = job
            .get("retry_after_ms")
            .and_then(JsonValue::as_u64)
            .expect("rejected slots carry a retry hint");
        assert!(
            hint >= 5 * base_retry,
            "hint {hint} not scaled up from base {base_retry} at full occupancy"
        );
        assert!(hint <= MAX_RETRY_AFTER_MS);
    }

    let slow = parse(&slow.join().expect("slow thread"));
    assert_eq!(slow.get("ok").and_then(JsonValue::as_bool), Some(true));
    let summary = shutdown_and_join(&addr, handle);
    assert_eq!(summary.rejected_overload, 2);
    assert_eq!(summary.served_ok, 2);
}

#[test]
fn retry_hint_scales_monotonically_with_load() {
    let base = 100;
    // Idle floor: an empty queue and no recorded waits keep the base.
    assert_eq!(scaled_retry_after_ms(base, 0, 8, 0), base);
    // Monotone in occupancy, up to 5x base at a full queue.
    let mut last = 0;
    for depth in 0..=8 {
        let hint = scaled_retry_after_ms(base, depth, 8, 0);
        assert!(hint >= last, "hint regressed at depth {depth}");
        last = hint;
    }
    assert_eq!(scaled_retry_after_ms(base, 8, 8, 0), 5 * base);
    // Depth beyond capacity clamps instead of exploding.
    assert_eq!(scaled_retry_after_ms(base, 1000, 8, 0), 5 * base);
    // Monotone in the observed mean queue wait (microseconds → ms).
    assert_eq!(
        scaled_retry_after_ms(base, 4, 8, 250_000),
        scaled_retry_after_ms(base, 4, 8, 0) + 250
    );
    // And capped: a pathological backlog never asks for more than the
    // ceiling.
    assert_eq!(
        scaled_retry_after_ms(base, 8, 8, u64::MAX),
        MAX_RETRY_AFTER_MS
    );
}

#[test]
fn group_by_aggregates_match_a_client_side_fold() {
    let dir = std::env::temp_dir().join(format!("spade_svc_agg_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (addr, handle) = spawn_service(test_config(Some(&dir)));
    let mut client = ServiceClient::connect(&addr).expect("connect");
    for req in SOLO_3 {
        let doc = parse(&client.request_line(req).expect("seed run"));
        assert_eq!(doc.get("ok").and_then(JsonValue::as_bool), Some(true));
    }
    // A fourth run so the kro group also has two members.
    let doc = parse(
        &client
            .request_line(r#"{"cmd":"run","benchmark":"kro","k":16,"pes":8,"scale":"tiny"}"#)
            .expect("seed run"),
    );
    assert_eq!(doc.get("ok").and_then(JsonValue::as_bool), Some(true));

    // The reference: a client-side fold over the plain query rows.
    let rows = parse(&client.request_line(r#"{"cmd":"query"}"#).expect("query"));
    let rows = rows
        .get("result")
        .and_then(|r| r.get("entries"))
        .and_then(JsonValue::as_array)
        .expect("entries")
        .to_vec();
    assert_eq!(rows.len(), 4);
    let mut fold: std::collections::BTreeMap<String, Vec<&JsonValue>> =
        std::collections::BTreeMap::new();
    for row in &rows {
        let bench = row
            .get("benchmark")
            .and_then(JsonValue::as_str)
            .expect("benchmark")
            .to_string();
        fold.entry(bench).or_default().push(row);
    }

    let agg = parse(
        &client
            .request_line(r#"{"cmd":"query","group_by":"benchmark"}"#)
            .expect("agg"),
    );
    assert_eq!(agg.get("ok").and_then(JsonValue::as_bool), Some(true));
    let result = agg.get("result").expect("agg result");
    assert_eq!(
        result.get("group_by").and_then(JsonValue::as_str),
        Some("benchmark")
    );
    assert_eq!(
        result.get("groups_matched").and_then(JsonValue::as_u64),
        Some(fold.len() as u64)
    );
    let groups = result
        .get("groups")
        .and_then(JsonValue::as_array)
        .expect("groups");
    assert_eq!(groups.len(), fold.len());
    for group in groups {
        let label = group
            .get("group")
            .and_then(JsonValue::as_str)
            .expect("label");
        let members = &fold[label];
        let cycles: Vec<u64> = members
            .iter()
            .map(|m| m.get("cycles").and_then(JsonValue::as_u64).unwrap())
            .collect();
        assert_eq!(
            group.get("count").and_then(JsonValue::as_u64),
            Some(cycles.len() as u64)
        );
        assert_eq!(
            group.get("min_cycles").and_then(JsonValue::as_u64),
            cycles.iter().min().copied()
        );
        assert_eq!(
            group.get("max_cycles").and_then(JsonValue::as_u64),
            cycles.iter().max().copied()
        );
        let mean = cycles.iter().sum::<u64>() as f64 / cycles.len() as f64;
        assert_eq!(
            group.get("mean_cycles").and_then(JsonValue::as_f64),
            Some(mean)
        );
        // Best: fewest cycles, key as tie-break — identical to the fold.
        let best = members
            .iter()
            .min_by_key(|m| {
                (
                    m.get("cycles").and_then(JsonValue::as_u64).unwrap(),
                    m.get("key")
                        .and_then(JsonValue::as_str)
                        .unwrap()
                        .to_string(),
                )
            })
            .unwrap();
        assert_eq!(
            group.get("best").expect("best").render(),
            best.render(),
            "best entry for {label}"
        );
    }

    // `matrix` is an accepted alias, pes grouping has two labels, and an
    // unknown key is a bad request.
    let alias = parse(
        &client
            .request_line(r#"{"cmd":"query","group_by":"matrix"}"#)
            .expect("alias agg"),
    );
    assert_eq!(
        alias
            .get("result")
            .and_then(|r| r.get("group_by"))
            .and_then(JsonValue::as_str),
        Some("benchmark")
    );
    let by_pes = parse(
        &client
            .request_line(r#"{"cmd":"query","group_by":"pes"}"#)
            .expect("pes agg"),
    );
    assert_eq!(
        by_pes
            .get("result")
            .and_then(|r| r.get("groups_matched"))
            .and_then(JsonValue::as_u64),
        Some(2)
    );
    let bad = parse(
        &client
            .request_line(r#"{"cmd":"query","group_by":"plan"}"#)
            .expect("bad agg"),
    );
    assert_eq!(
        bad.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(JsonValue::as_str),
        Some("bad_request")
    );

    shutdown_and_join(&addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn query_limit_zero_is_rejected_not_silently_empty() {
    let dir = std::env::temp_dir().join(format!("spade_svc_limit0_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (addr, handle) = spawn_service(test_config(Some(&dir)));
    let mut client = ServiceClient::connect(&addr).expect("connect");
    let resp = parse(
        &client
            .request_line(r#"{"cmd":"query","limit":0}"#)
            .expect("limit 0"),
    );
    assert_eq!(resp.get("ok").and_then(JsonValue::as_bool), Some(false));
    assert_eq!(
        resp.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(JsonValue::as_str),
        Some("bad_request")
    );
    assert!(
        resp.get("error")
            .and_then(|e| e.get("message"))
            .and_then(JsonValue::as_str)
            .is_some_and(|m| m.contains("limit")),
        "message should name the offending field: {}",
        resp.render()
    );
    // An explicit positive limit still works.
    let ok = parse(
        &client
            .request_line(r#"{"cmd":"query","limit":5}"#)
            .expect("limit 5"),
    );
    assert_eq!(ok.get("ok").and_then(JsonValue::as_bool), Some(true));
    shutdown_and_join(&addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn index_flushes_during_normal_operation_not_only_at_drain() {
    let dir = std::env::temp_dir().join(format!("spade_svc_flush_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (addr, handle) = spawn_service(test_config(Some(&dir)));
    let mut client = ServiceClient::connect(&addr).expect("connect");
    let mut keys = Vec::new();
    for req in &SOLO_3[..2] {
        let doc = parse(&client.request_line(req).expect("run"));
        keys.push(
            doc.get("key")
                .and_then(JsonValue::as_str)
                .expect("key")
                .to_string(),
        );
    }
    // The satellite fix: with an idle queue every store flushes the
    // index before the reply is sent, so the on-disk catalog is already
    // current — no drain needed. (A SIGKILL now loses nothing; the
    // process-level test lives in spade-cli's serve_daemon suite.)
    let text = std::fs::read_to_string(dir.join("index.json"))
        .expect("index.json must exist while the daemon is still running");
    let index = JsonValue::parse(&text).expect("parse index");
    let listed: Vec<&str> = index
        .get("dataset")
        .and_then(JsonValue::as_array)
        .expect("dataset rows")
        .iter()
        .filter_map(|e| e.get("key").and_then(JsonValue::as_str))
        .collect();
    for key in &keys {
        assert!(
            listed.contains(&key.as_str()),
            "store {key} missing from the live index {listed:?}"
        );
    }
    shutdown_and_join(&addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Advise: plan selection on the connection thread
// ---------------------------------------------------------------------------

/// Synthetic training set with an exactly log-linear cycle law
/// (`cycles = 1000 · row_panel`), so the fitted model passes its own
/// confidence gate without running a single simulation.
fn synthetic_model() -> spade_bench::model::CostModel {
    use spade_bench::model::{CostModel, TrainingRow};
    use spade_core::RMatrixPolicy;
    use spade_matrix::analysis::MatrixFeatures;
    use spade_matrix::generators::{Benchmark, Scale};
    let mut rows = Vec::new();
    for b in Benchmark::ALL {
        let a = b.generate(Scale::Tiny);
        let f = MatrixFeatures::compute(&a).as_vec();
        for rp in [64usize, 256, 1024] {
            for cp in [a.num_cols().max(1), 512] {
                for r_policy in [RMatrixPolicy::Cache, RMatrixPolicy::BypassVictim] {
                    rows.push(TrainingRow {
                        benchmark: b.short_name().to_string(),
                        features: f.clone(),
                        row_panel: rp,
                        col_panel: cp,
                        r_policy,
                        barriers: false,
                        k: 16,
                        pes: 4,
                        cycles: (rp as u64) * 1000,
                    });
                }
            }
        }
    }
    CostModel::fit(&rows).expect("fit synthetic model")
}

fn assert_advise_ok(resp: &JsonValue, expect_source: &str) {
    assert_eq!(
        resp.get("ok").and_then(JsonValue::as_bool),
        Some(true),
        "advise reply {}",
        resp.render()
    );
    let result = resp.get("result").expect("advise result");
    assert_eq!(
        result.get("source").and_then(JsonValue::as_str),
        Some(expect_source),
        "advise tier in {}",
        result.render()
    );
    let plan = result.get("plan").expect("advised plan");
    assert!(plan
        .get("row_panel_size")
        .and_then(JsonValue::as_u64)
        .is_some());
    assert!(plan
        .get("col_panel_size")
        .and_then(JsonValue::as_u64)
        .is_some());
    assert!(result
        .get("latency_us")
        .and_then(JsonValue::as_u64)
        .is_some());
}

#[test]
fn advise_answers_while_every_worker_is_busy() {
    let config = ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        worker_delay: Some(Duration::from_secs(3)),
        ..test_config(None)
    };
    let (addr, handle) = spawn_service(config);

    // Occupy the single worker and the single queue slot; a sim-queued
    // advise would now block for seconds or bounce with `overloaded`.
    let slow = std::thread::spawn(move || {
        let mut c = ServiceClient::connect(&addr).expect("connect slow");
        c.request_line(r#"{"cmd":"run","benchmark":"myc","k":16,"pes":4,"no_cache":true}"#)
            .expect("slow run")
    });
    std::thread::sleep(Duration::from_millis(300));
    let queued = std::thread::spawn(move || {
        let mut c = ServiceClient::connect(&addr).expect("connect queued");
        c.request_line(r#"{"cmd":"run","benchmark":"kro","k":16,"pes":4,"no_cache":true}"#)
            .expect("queued run")
    });
    std::thread::sleep(Duration::from_millis(300));

    // The daemon is saturated, yet advise answers promptly — it rides
    // the connection thread, not the admission queue.
    let mut c = ServiceClient::connect(&addr).expect("connect advise");
    let started = std::time::Instant::now();
    let resp = parse(
        &c.request_line(r#"{"cmd":"advise","benchmark":"pac","k":16,"pes":4,"scale":"tiny"}"#)
            .expect("advise under load"),
    );
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "advise must not wait for the 3 s worker delay"
    );
    assert_advise_ok(&resp, "heuristic");

    let slow = parse(&slow.join().expect("slow thread"));
    let queued = parse(&queued.join().expect("queued thread"));
    assert_eq!(slow.get("ok").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(queued.get("ok").and_then(JsonValue::as_bool), Some(true));
    shutdown_and_join(&addr, handle);
}

#[test]
fn cold_or_corrupt_model_degrades_advise_to_heuristic_not_error() {
    let dir = std::env::temp_dir().join(format!("spade_svc_model_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create model dir");

    // Cold: the configured model file does not exist.
    let config = ServiceConfig {
        model_path: Some(dir.join("missing.model")),
        ..test_config(None)
    };
    let (addr, handle) = spawn_service(config);
    let mut c = ServiceClient::connect(&addr).expect("connect");
    let resp = parse(
        &c.request_line(r#"{"cmd":"advise","benchmark":"myc","k":16,"pes":4,"scale":"tiny"}"#)
            .expect("advise cold"),
    );
    assert_advise_ok(&resp, "heuristic");
    shutdown_and_join(&addr, handle);

    // Corrupt: a valid model file with flipped bytes must fail its
    // checksum and degrade, not error.
    let corrupt = dir.join("corrupt.model");
    synthetic_model().save(&corrupt).expect("save model");
    let mut bytes = std::fs::read(&corrupt).expect("read model");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&corrupt, &bytes).expect("corrupt model");
    let config = ServiceConfig {
        model_path: Some(corrupt),
        ..test_config(None)
    };
    let (addr, handle) = spawn_service(config);
    let mut c = ServiceClient::connect(&addr).expect("connect corrupt");
    let resp = parse(
        &c.request_line(r#"{"cmd":"advise","benchmark":"myc","k":16,"pes":4,"scale":"tiny"}"#)
            .expect("advise corrupt"),
    );
    assert_advise_ok(&resp, "heuristic");
    shutdown_and_join(&addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn loaded_model_drives_advise_and_lands_in_metrics() {
    let dir = std::env::temp_dir().join(format!("spade_svc_model_ok_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create model dir");
    let path = dir.join("trained.model");
    synthetic_model().save(&path).expect("save model");

    let config = ServiceConfig {
        model_path: Some(path),
        ..test_config(None)
    };
    let (addr, handle) = spawn_service(config);
    let mut c = ServiceClient::connect(&addr).expect("connect");
    let resp = parse(
        &c.request_line(r#"{"cmd":"advise","benchmark":"myc","k":16,"pes":4,"scale":"tiny"}"#)
            .expect("advise with model"),
    );
    assert_advise_ok(&resp, "model");
    assert!(
        resp.get("result")
            .and_then(|r| r.get("predicted_cycles"))
            .and_then(JsonValue::as_f64)
            .is_some_and(f64::is_finite),
        "model tier reports its prediction: {}",
        resp.render()
    );

    // The counter and histogram from the satellite land in the
    // exposition (and therefore in any scrape).
    let summary = shutdown_and_join(&addr, handle);
    let prom = summary.metrics.to_prometheus();
    assert!(
        prom.contains("spade_advise_total{source=\"model\"} 1"),
        "advise counter missing from exposition:\n{prom}"
    );
    assert!(
        prom.contains("spade_advise_latency_microseconds_count 1"),
        "advise latency histogram missing from exposition:\n{prom}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Key digests: a restarted daemon serves hits from its first request on
// ---------------------------------------------------------------------------

/// The key and raw result bytes of a single-job reply.
fn key_and_result(raw: &str) -> (String, String) {
    let doc = parse(raw);
    assert_eq!(
        doc.get("cached").and_then(JsonValue::as_bool),
        Some(true),
        "not a cache hit: {raw}"
    );
    let key = doc.get("key").and_then(JsonValue::as_str).expect("key");
    (key.to_string(), raw_result_slice(raw, 0).to_string())
}

#[test]
fn restarted_daemon_hits_on_a_graphs_first_and_later_requests() {
    // A restarted daemon knows no graph: the first request naming one
    // computes its key digest, later ones read it from the table. Both
    // must hit the entries the earlier daemon stored, with its keys and
    // bytes, as a `run`, as a `batch` slot and as a `search`.
    const RUN_MYC: &str = r#"{"cmd":"run","benchmark":"myc","k":16,"pes":4}"#;
    const RUN_KRO: &str = r#"{"cmd":"run","benchmark":"kro","k":16,"pes":4}"#;
    const SEARCH_MYC: &str = r#"{"cmd":"search","benchmark":"myc","k":16,"pes":4}"#;
    const SEARCH_DEL: &str = r#"{"cmd":"search","benchmark":"del","k":16,"pes":4}"#;
    const BATCH_KRO_MYC: &str = concat!(
        r#"{"cmd":"batch","k":16,"pes":4,"jobs":["#,
        r#"{"benchmark":"kro"},{"benchmark":"myc"}]}"#
    );
    let dir = std::env::temp_dir().join(format!("spade_svc_digest_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let (addr, handle) = spawn_service(test_config(Some(&dir)));
    let mut client = ServiceClient::connect(&addr).expect("connect");
    let mut stored = std::collections::BTreeMap::new();
    for req in [RUN_MYC, RUN_KRO, SEARCH_MYC, SEARCH_DEL] {
        let raw = client.request_line(req).expect("cold request");
        let doc = parse(&raw);
        assert_eq!(doc.get("cached").and_then(JsonValue::as_bool), Some(false));
        let key = doc.get("key").and_then(JsonValue::as_str).expect("key");
        stored.insert(
            req,
            (key.to_string(), raw_result_slice(&raw, 0).to_string()),
        );
    }
    shutdown_and_join(&addr, handle);

    let (addr, handle) = spawn_service(test_config(Some(&dir)));
    let mut client = ServiceClient::connect(&addr).expect("reconnect");
    let mut request = |req: &str| client.request_line(req).expect("warm request");
    // MYC's and DEL's first sights, as a run and as a search.
    assert_eq!(key_and_result(&request(RUN_MYC)), stored[RUN_MYC]);
    assert_eq!(key_and_result(&request(SEARCH_DEL)), stored[SEARCH_DEL]);
    // A batch whose first slot is KRO's first sight and whose second
    // reads MYC's digest from the table.
    let batch = request(BATCH_KRO_MYC);
    let doc = parse(&batch);
    assert_eq!(batch_count(&doc, "cached"), 2, "{batch}");
    for (i, (job, req)) in jobs_of(&doc).iter().zip([RUN_KRO, RUN_MYC]).enumerate() {
        let at = batch.find(&format!("{{\"index\":{i},")).expect("slot");
        assert_eq!(
            job.get("key").and_then(JsonValue::as_str),
            Some(stored[req].0.as_str())
        );
        assert!(raw_result_slice(&batch, at) == stored[req].1, "slot {i}");
    }
    // Later sights of every graph, as a run and as a search.
    assert_eq!(key_and_result(&request(RUN_KRO)), stored[RUN_KRO]);
    assert_eq!(key_and_result(&request(SEARCH_MYC)), stored[SEARCH_MYC]);
    assert_eq!(key_and_result(&request(SEARCH_DEL)), stored[SEARCH_DEL]);

    let summary = shutdown_and_join(&addr, handle);
    let cache = summary.cache.expect("cache stats");
    assert_eq!((cache.hits, cache.misses, cache.stores), (7, 0, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// One admission path: envelopes and counters
// ---------------------------------------------------------------------------

#[test]
fn every_reply_echoes_the_frame_id_after_cmd() {
    let (addr, handle) = spawn_service(test_config(None));
    let mut client = ServiceClient::connect(&addr).expect("connect");
    for (frame, prefix) in [
        (
            r#"{"cmd":"ping","id":7}"#,
            r#"{"ok":true,"cmd":"ping","id":7,"#,
        ),
        (
            r#"{"cmd":"status","id":"s-1"}"#,
            r#"{"ok":true,"cmd":"status","id":"s-1","#,
        ),
        (
            r#"{"cmd":"metrics","id":8}"#,
            r#"{"ok":true,"cmd":"metrics","id":8,"protocol":4,"#,
        ),
        // A rejected frame has no command to name, but its id is echoed.
        (
            r#"{"cmd":"run","id":10,"benchmark":"nope"}"#,
            r#"{"ok":false,"id":10,"error":{"kind":"bad_request","#,
        ),
        (
            r#"{"cmd":"frobnicate","id":-3}"#,
            r#"{"ok":false,"id":-3,"error":{"kind":"bad_request","#,
        ),
        // Only a string or an integer is an id.
        (
            r#"{"cmd":"ping","id":1.5}"#,
            r#"{"ok":true,"cmd":"ping","protocol":4}"#,
        ),
        (
            r#"{"cmd":"ping","id":[1]}"#,
            r#"{"ok":true,"cmd":"ping","protocol":4}"#,
        ),
    ] {
        let reply = client.request_line(frame).expect("reply");
        assert!(reply.starts_with(prefix), "{frame} -> {reply}");
    }
    let reply = client
        .request_line(r#"{"cmd":"shutdown","id":"bye"}"#)
        .expect("shutdown");
    assert_eq!(
        reply,
        r#"{"ok":true,"cmd":"shutdown","id":"bye","draining":true}"#
    );
    handle.join().expect("service thread");
}

/// Waits until the daemon's `status` satisfies `ready`.
fn wait_for_status(addr: &SocketAddr, ready: impl Fn(&JsonValue) -> bool) {
    let mut client = ServiceClient::connect(addr).expect("connect for status");
    for _ in 0..1_000 {
        let status = parse(&client.request_line(r#"{"cmd":"status"}"#).expect("status"));
        if ready(&status) {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("daemon never reached the awaited state");
}

/// Drives one daemon with a cache hit, a miss, a request the full queue
/// refuses and a blown deadline — as standalone requests, or as the slots
/// of one batch — and returns its drain summary. A held worker makes the
/// refusal deterministic: the miss and the deadline fill both queue slots
/// before the third job is offered.
fn admission_mix(as_batch: bool) -> ServiceSummary {
    let dir = std::env::temp_dir().join(format!("spade_svc_mix_{as_batch}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServiceConfig {
        workers: 1,
        queue_capacity: 2,
        worker_delay: Some(Duration::from_millis(800)),
        ..test_config(Some(&dir))
    };
    let (addr, handle) = spawn_service(config);
    let mut client = ServiceClient::connect(&addr).expect("connect");
    // Stores the entry the hit reads.
    let warm = parse(&client.request_line(RUN_MYC).expect("warm"));
    assert_eq!(warm.get("ok").and_then(JsonValue::as_bool), Some(true));
    let blocker = std::thread::spawn(move || {
        let mut c = ServiceClient::connect(&addr).expect("connect blocker");
        c.request_line(
            r#"{"cmd":"run","benchmark":"pac","k":16,"pes":4,"scale":"tiny","no_cache":true}"#,
        )
        .expect("blocker")
    });
    wait_for_status(&addr, |s| {
        s.get("in_flight").and_then(JsonValue::as_u64) == Some(1)
            && s.get("queue_depth").and_then(JsonValue::as_u64) == Some(0)
    });
    let jobs = [
        r#"{"benchmark":"kro","k":16,"pes":4,"scale":"tiny"}"#,
        r#"{"benchmark":"myc","k":16,"pes":4,"scale":"tiny","deadline_cycles":50}"#,
        r#"{"benchmark":"liv","k":16,"pes":4,"scale":"tiny"}"#,
        r#"{"benchmark":"myc","k":16,"pes":4,"scale":"tiny"}"#,
    ];
    let kinds: Vec<Option<String>> = if as_batch {
        let line = format!(r#"{{"cmd":"batch","jobs":[{}]}}"#, jobs.join(","));
        jobs_of(&parse(&client.request_line(&line).expect("batch")))
            .iter()
            .map(error_kind)
            .collect()
    } else {
        let as_run = |job: &str| format!(r#"{{"cmd":"run",{}"#, &job[1..]);
        let queued: Vec<_> = jobs[..2]
            .iter()
            .map(|job| {
                let line = as_run(job);
                std::thread::spawn(move || {
                    let mut c = ServiceClient::connect(&addr).expect("connect queued");
                    parse(&c.request_line(&line).expect("queued"))
                })
            })
            .collect();
        wait_for_status(&addr, |s| {
            s.get("queue_depth").and_then(JsonValue::as_u64) == Some(2)
        });
        let refused = parse(&client.request_line(&as_run(jobs[2])).expect("refused"));
        let hit = parse(&client.request_line(&as_run(jobs[3])).expect("hit"));
        let mut replies: Vec<JsonValue> = queued
            .into_iter()
            .map(|t| t.join().expect("queued thread"))
            .collect();
        replies.extend([refused, hit]);
        replies.iter().map(error_kind).collect()
    };
    assert_eq!(
        kinds,
        [
            None,
            Some("deadline_exceeded".into()),
            Some("overloaded".into()),
            None
        ]
    );
    let blocker = parse(&blocker.join().expect("blocker thread"));
    assert_eq!(blocker.get("ok").and_then(JsonValue::as_bool), Some(true));
    let summary = shutdown_and_join(&addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
    summary
}

fn error_kind(reply: &JsonValue) -> Option<String> {
    let kind = reply.get("error")?.get("kind")?.as_str()?;
    Some(kind.to_string())
}

#[test]
fn standalone_requests_and_batch_slots_move_the_same_counters() {
    let counters = |s: &ServiceSummary| {
        (
            s.served_ok,
            s.served_err,
            s.rejected_overload,
            s.metrics.counter("spade_deadline_kills_total", &[]),
        )
    };
    let standalone = counters(&admission_mix(false));
    let batch = counters(&admission_mix(true));
    assert_eq!(standalone, batch);
    // Warm-up, blocker, hit and miss served; the deadline failed; the
    // refusal is back-pressure, not a failure.
    assert_eq!(standalone, (4, 1, 1, Some(1)));
}
