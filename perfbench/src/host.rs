//! Host-side facts: memory, CPU time and stolen time from `/proc` and the
//! CPU clocks, provenance, and the output digest.

use std::os::raw::{c_int, c_long};
use std::path::Path;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Clock ticks per second in `/proc/<pid>/stat` (USER_HZ; 100 on Linux).
const TICKS_PER_S: f64 = 100.0;

/// Peak resident set of `pid` (`self` for this process) in MiB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// User plus system CPU seconds `pid` has used so far.
pub fn cpu_seconds(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => Ok((u + s) / TICKS_PER_S),
        _ => Err(format!("{path}: unexpected format")),
    }
}

#[repr(C)]
struct Timespec {
    sec: c_long,
    nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

fn cpu_clock(clock: c_int) -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: clock_gettime writes one timespec through a valid pointer.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// CPU seconds the calling thread has run so far (nanosecond clock). On
/// a guest with steal-time accounting this excludes time the hypervisor
/// ran other tenants on the guest's CPUs.
pub fn thread_cpu_s() -> f64 {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Seconds the host's CPUs have spent stolen by the hypervisor so far:
/// the `steal` column of `/proc/stat`, summed over CPUs.
pub fn steal_seconds() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |t| t / TICKS_PER_S)
}

/// How often [`HostProbe`] takes a sample.
const PROBE_EVERY: Duration = Duration::from_millis(100);

/// Words in the reference kernel's table: 256 KiB, which a core's L2
/// holds, so a burst measures the core rather than the memory the
/// workload left behind.
const PROBE_TABLE: usize = 1 << 15;

/// Table updates per reference burst.
const PROBE_STEPS: u32 = 250_000;

/// Thread CPU seconds one reference burst takes at the reference speed
/// (the typical burst on the host this benchmark was sized on).
pub const PROBE_NOMINAL_S: f64 = 0.0018;

/// Puts the reference table in its starting state, which also brings it
/// into the core's caches whatever the workload left there.
fn reset_table(table: &mut [u64]) {
    for (i, w) in table.iter_mut().enumerate() {
        *w = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// The reference kernel: fixed, data-dependent read-modify-writes of a
/// core-resident table (reset first by [`reset_table`]). It is the
/// benchmark's own code and calls nothing in the program, so its CPU time
/// tracks only how fast the host's cores run at the moment — which other
/// tenants of a shared host move by tens of percent for minutes at a time.
fn reference_burst(table: &mut [u64]) -> u64 {
    let mask = table.len() - 1;
    let (mut x, mut acc) = (0x2545_f491_4f6c_dd1d_u64, 0u64);
    for _ in 0..PROBE_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = x as usize & mask;
        let v = table[i];
        acc = acc.wrapping_add(v);
        if v & 1 == 0 {
            table[i] = v.wrapping_mul(3).wrapping_add(acc);
        } else {
            table[i ^ 1] ^= acc;
        }
    }
    acc
}

/// One [`HostProbe`] sample.
pub struct ProbeSample {
    /// Nanoseconds since the probe's origin.
    pub t_ns: u64,
    /// The host's stolen seconds so far ([`steal_seconds`]).
    pub stolen_s: f64,
    /// Thread CPU seconds of one reference burst.
    pub burst_s: f64,
}

/// Samples the host on a thread of its own until finished: the steal
/// counter and the CPU time of one reference burst, every
/// [`PROBE_EVERY`] (about 2 % of one core).
pub struct HostProbe {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<Vec<ProbeSample>>>,
}

impl HostProbe {
    /// Starts sampling; sample times are nanoseconds since `origin`.
    pub fn start(origin: Instant) -> HostProbe {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut table = vec![0u64; PROBE_TABLE];
            let mut samples = Vec::new();
            loop {
                reset_table(&mut table);
                let t = thread_cpu_s();
                std::hint::black_box(reference_burst(&mut table));
                samples.push(ProbeSample {
                    burst_s: thread_cpu_s() - t,
                    t_ns: origin.elapsed().as_nanos() as u64,
                    stolen_s: steal_seconds(),
                });
                if flag.load(Ordering::Relaxed) {
                    return samples;
                }
                std::thread::sleep(PROBE_EVERY);
            }
        });
        HostProbe {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops sampling and returns the samples in time order, the last one
    /// taken after the stop.
    pub fn finish(mut self) -> Vec<ProbeSample> {
        self.stop.store(true, Ordering::Relaxed);
        self.handle
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default()
    }
}

impl Drop for HostProbe {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// How fast the host ran over `samples` relative to the reference speed:
/// the nominal burst time over the median measured one (0.8: the cores
/// ran 20 % slower than the reference).
pub fn host_speed(samples: &[ProbeSample]) -> f64 {
    let bursts: Vec<f64> = samples.iter().map(|s| s.burst_s).collect();
    PROBE_NOMINAL_S / crate::metrics::median(&bursts)
}

/// The samples taken between `from_ns` and `to_ns`, or all of them when
/// none was.
pub fn samples_between(samples: &[ProbeSample], from_ns: u64, to_ns: u64) -> &[ProbeSample] {
    let a = samples.partition_point(|s| s.t_ns < from_ns);
    let b = samples.partition_point(|s| s.t_ns <= to_ns);
    if a < b {
        &samples[a..b]
    } else {
        samples
    }
}

/// Stolen seconds between `from_ns` and `to_ns`, from probe samples: the
/// counter as last read at or before each end.
pub fn stolen_between(samples: &[ProbeSample], from_ns: u64, to_ns: u64) -> f64 {
    let at = |t: u64| {
        let i = samples.partition_point(|s| s.t_ns <= t);
        samples[i.saturating_sub(1).min(samples.len() - 1)].stolen_s
    };
    if samples.is_empty() {
        0.0
    } else {
        at(to_ns) - at(from_ns)
    }
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// FNV-1a over `bytes`, continuing from `hash` (start with
/// [`FNV_OFFSET`]).
pub fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Digest of the source the program is built from: every file under
/// `crates/` plus the root manifests, in path order. Checkouts without
/// git history still get a name for what was measured.
fn source_digest(root: &Path) -> String {
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    let mut dirs = vec![root.join("crates")];
    while let Some(dir) = dirs.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                dirs.push(path);
            } else {
                files.push(path);
            }
        }
    }
    files.sort();
    let mut hash = FNV_OFFSET;
    for file in files {
        if let Ok(bytes) = std::fs::read(&file) {
            let rel = file.strip_prefix(root).unwrap_or(&file);
            hash = fnv(hash, rel.to_string_lossy().as_bytes());
            hash = fnv(hash, &bytes);
        }
    }
    format!("{hash:016x}")
}

/// The provenance object printed by every run and embedded in traces.
pub fn provenance(root: &Path, workload: &str, seed: u64, seconds: f64, trace: bool) -> String {
    // Only the checkout's own history names the commit, not an enclosing
    // repository's.
    let commit = root
        .join(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"], root))
        .flatten()
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    let rustc = command_line("rustc", &["--version"], root).unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    spade_sim::JsonValue::object([
        ("workload", workload.into()),
        ("seed", seed.into()),
        ("default_seed", crate::inputs::DEFAULT_SEED.into()),
        ("held_out_seed", crate::inputs::HELD_OUT_SEED.into()),
        ("seconds", seconds.into()),
        ("trace", trace.into()),
        ("host_cores", host_cores().into()),
        ("commit", commit.into()),
        ("source_digest", source_digest(root).into()),
        ("rustc", rustc.into()),
        ("profile", profile.into()),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t_ns: u64, stolen_s: f64, burst_s: f64) -> ProbeSample {
        ProbeSample {
            t_ns,
            stolen_s,
            burst_s,
        }
    }

    #[test]
    fn stolen_time_is_read_at_each_end_of_an_interval() {
        let s = [
            sample(0, 1.0, 0.0),
            sample(100, 1.5, 0.0),
            sample(200, 4.0, 0.0),
        ];
        assert_eq!(stolen_between(&s, 0, 150), 0.5);
        assert_eq!(stolen_between(&s, 100, 250), 2.5);
        assert_eq!(stolen_between(&s, 0, 99), 0.0);
        assert_eq!(stolen_between(&[], 0, 99), 0.0);
    }

    #[test]
    fn samples_between_falls_back_to_all_when_none_was_taken() {
        let s = [
            sample(0, 0.0, 1.0),
            sample(100, 0.0, 2.0),
            sample(200, 0.0, 3.0),
        ];
        let bursts = |s: &[ProbeSample]| s.iter().map(|s| s.burst_s).collect::<Vec<_>>();
        assert_eq!(bursts(samples_between(&s, 50, 200)), [2.0, 3.0]);
        assert_eq!(bursts(samples_between(&s, 0, 0)), [1.0]);
        assert_eq!(bursts(samples_between(&s, 120, 180)), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn host_speed_is_the_nominal_burst_over_the_median_one() {
        let slow = [0.004, 0.004, 0.1].map(|b| sample(0, 0.0, PROBE_NOMINAL_S * b / 0.004));
        assert!((host_speed(&slow) - 1.0).abs() < 1e-12);
        let half = [sample(0, 0.0, 2.0 * PROBE_NOMINAL_S)];
        assert!((host_speed(&half) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn the_probe_samples_until_finished() {
        let samples = HostProbe::start(Instant::now()).finish();
        assert!(!samples.is_empty());
        assert!(samples.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
        assert!(samples.iter().all(|s| s.burst_s > 0.0));
        assert!(host_speed(&samples).is_finite());
    }
}
