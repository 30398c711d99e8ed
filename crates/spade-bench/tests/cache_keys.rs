//! Golden cache keys. A key names an on-disk cache entry, so its bytes
//! must survive every daemon restart and upgrade: a key that drifts
//! silently orphans every result stored under the old one. The literals
//! below were recorded from the daemon's `run`, `trace` and `search`
//! replies; any change to key composition fails here, naming the request
//! whose key moved. A deliberate change bumps `KEY_SCHEMA` and re-records
//! the table.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use spade_bench::cache::ResultCache;
use spade_bench::parallel::Job;
use spade_bench::service::{Service, ServiceClient, ServiceConfig};
use spade_bench::suite::Workload;
use spade_core::{ExecutionPlan, Primitive, RMatrixPolicy, SystemConfig};
use spade_matrix::generators::{Benchmark, Scale};
use spade_matrix::TilingConfig;
use spade_sim::JsonValue;

/// Golden requests at the protocol defaults (tiny scale, `k` 32, 56
/// PEs), each as `<cmd> <graph> <kernel> <plan> <deadline> <key>`: plan
/// `base`, or `victim` for `rp:4, rmatrix:"victim"`; deadline `default`
/// (the service default) or `0` (unbounded); `-` where `search` takes no
/// kernel or plan; and the key the daemon answers the request under.
const GOLDEN: &[&str] = &[
    "run myc spmm base default 07f84867b281fef5b6f3e710bef5084d",
    "run myc spmm base 0 d0e3f0e378f6f397d8e431d2a81079ff",
    "run myc spmm victim default 59d0f4be9c8addf229bfa410092db9ca",
    "run myc spmm victim 0 a0f85782d79b357a3231b65a61bae4a2",
    "run myc sddmm base default 35cf78a01a5b85174825132693dba9ff",
    "run myc sddmm base 0 a2a7280b5b4fa0dd275d65970fd3af55",
    "run myc sddmm victim default 217778e23e50a2cc0ee16d6c926ec574",
    "run myc sddmm victim 0 d4d4631a34cfb7c8c3870c3eb2462da0",
    "run kro spmm base default c081138f821ca6e14a4e2228de378c89",
    "run kro spmm base 0 fbdd659add86170b649a2c55f6acb8a3",
    "run kro spmm victim default 97c55a13f7302a52efb86bec65a996da",
    "run kro spmm victim 0 9602d66d40e3521adec93881a05dec12",
    "run kro sddmm base default 47edc80069c69f51ac7e1a904ee4a7a9",
    "run kro sddmm base 0 61fe7ebe5442eb5ba5439f628cc19c83",
    "run kro sddmm victim default ac15c35a53b0cae2ed945c304380903a",
    "run kro sddmm victim 0 92fa78d0d30c1cca94c6e7b5e6931432",
    "trace myc spmm base default t45ae7dfc278332065f4e180d895718ae",
    "trace myc spmm base 0 t60cfdfd38b36d86ab27c585e2895e802",
    "trace myc spmm victim default td927f6afcc942fe821594c75df93e9d0",
    "trace myc spmm victim 0 t7e2a116e67af37194bf7a5cb1ea29411",
    "trace myc sddmm base default t90173095ea212ad73dba7e60e974d22f",
    "trace myc sddmm base 0 tb6fa89c5d6dbea9934314f8aa2f9dbe1",
    "trace myc sddmm victim default t82696e30161a412944f39f66362ca7d1",
    "trace myc sddmm victim 0 t5cc1012962df682f0659a44dfd59a3d7",
    "trace kro spmm base default t8d735f44887989df13eb460ffd800717",
    "trace kro spmm base 0 t199271f7084fd41fb201b7f2bd9657e7",
    "trace kro spmm victim default t9f83514309ce9cbdbc3a17935babfd05",
    "trace kro spmm victim 0 t5c6b0b61ef64494f4aff3b8128c9fef7",
    "trace kro sddmm base default te2f3e8eddcea154619461e697d4e34de",
    "trace kro sddmm base 0 t7b9c1ccba6ae153121e20300edb4cc99",
    "trace kro sddmm victim default tac941efb01a53fab3a45acef7aadcb63",
    "trace kro sddmm victim 0 td900ca5e8325f6d83cfc80c3bb7a08a0",
    "search myc - - default s9614612a51fa39623bac71cc12be78aa",
    "search myc - - 0 scf5abf3f1dc17ff3e55c03c3eeab028b",
    "search kro - - default s108ed4f4d59cb06bfbb555c36e21d273",
    "search kro - - 0 s3a0cd2471f520305975430bbb4ae509d",
];

/// A golden row's request name (its first five fields) and key.
fn golden(row: &str) -> (&str, &str) {
    row.rsplit_once(' ')
        .expect("a golden row ends with its key")
}

/// The fields of a golden request name.
fn fields(name: &str) -> [&str; 5] {
    let fields: Vec<&str> = name.split(' ').collect();
    fields.try_into().expect("five fields per golden name")
}

/// The wire request a golden name stands for.
fn request_line(name: &str) -> String {
    let [cmd, bench, kernel, plan, deadline] = fields(name);
    let mut s = format!("{{\"cmd\":\"{cmd}\",\"benchmark\":\"{bench}\"");
    if kernel != "-" {
        s.push_str(&format!(",\"kernel\":\"{kernel}\""));
    }
    if plan == "victim" {
        s.push_str(",\"rp\":4,\"rmatrix\":\"victim\"");
    }
    if deadline == "0" {
        s.push_str(",\"deadline_cycles\":0");
    }
    s.push('}');
    s
}

fn benchmark(name: &str) -> Benchmark {
    Benchmark::ALL
        .into_iter()
        .find(|b| b.short_name().eq_ignore_ascii_case(name))
        .expect("golden rows name Table 2 graphs")
}

/// The job a `run`/`trace` golden name describes, built through the
/// public API from a freshly prepared workload.
fn job(name: &str) -> Job {
    let [cmd, bench, kernel, plan, deadline] = fields(name);
    let w = Arc::new(Workload::prepare(benchmark(bench), Scale::Tiny, 32));
    let config = Arc::new(SystemConfig::scaled(56));
    let mut p = ExecutionPlan::spmm_base(&w.a).expect("base plan");
    if plan == "victim" {
        p.tiling = TilingConfig::new(4, p.tiling.col_panel_size).expect("rp 4");
        p.r_policy = RMatrixPolicy::BypassVictim;
    }
    let primitive = if kernel == "sddmm" {
        Primitive::Sddmm
    } else {
        Primitive::Spmm
    };
    let deadline = match deadline {
        "0" => None,
        _ => ServiceConfig::default().default_deadline_cycles,
    };
    let job = Job::new(&w, &config, primitive, p).with_deadline_cycles(deadline);
    match cmd {
        "trace" => job.with_telemetry(Some(256)).with_trace(true),
        _ => job,
    }
}

#[test]
fn golden_keys_are_stable_on_the_job_path() {
    for (name, golden) in GOLDEN.iter().map(|row| golden(row)) {
        let key = match fields(name)[0] {
            "run" => job(name).cache_key(),
            "trace" => job(name).trace_cache_key(),
            _ => continue,
        };
        assert_eq!(key, golden, "key of {name} moved");
    }
}

fn spawn_service(dir: &Path) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let svc = Service::bind(
        "127.0.0.1:0",
        ServiceConfig {
            workers: 1,
            read_timeout: Duration::from_millis(50),
            cache_dir: Some(dir.to_path_buf()),
            ..ServiceConfig::default()
        },
    )
    .expect("bind");
    let addr = svc.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || {
        svc.run().expect("service run");
    });
    (addr, handle)
}

#[test]
fn golden_keys_serve_the_entries_stored_under_them() {
    // A cache directory holding one entry under every golden key, as an
    // earlier daemon would have left it: the daemon must answer each
    // request from that entry — same key, same bytes — without
    // simulating anything.
    let dir = std::env::temp_dir().join(format!("spade_golden_keys_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let payload = |key: &str| format!("{{\"golden\":\"{key}\"}}");
    {
        let cache = ResultCache::open(&dir).expect("open cache");
        for (_, key) in GOLDEN.iter().map(|row| golden(row)) {
            cache.put(key, payload(key).as_bytes()).expect("put");
        }
    }
    let (addr, handle) = spawn_service(&dir);
    let mut client = ServiceClient::connect(&addr).expect("connect");
    for (name, golden) in GOLDEN.iter().map(|row| golden(row)) {
        let reply = client.request_line(&request_line(name)).expect("request");
        let doc = JsonValue::parse(&reply).expect("reply is JSON");
        assert_eq!(
            doc.get("key").and_then(JsonValue::as_str),
            Some(golden),
            "key of {name} moved"
        );
        assert_eq!(
            doc.get("cached").and_then(JsonValue::as_bool),
            Some(true),
            "{name} was not served from the entry stored under its key"
        );
        assert!(
            reply.ends_with(&format!(",\"result\":{}}}", payload(golden))),
            "{name} served other bytes: {reply}"
        );
    }
    client
        .request_line("{\"cmd\":\"shutdown\"}")
        .expect("shutdown");
    handle.join().expect("service thread");
    let _ = std::fs::remove_dir_all(&dir);
}
