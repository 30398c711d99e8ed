//! Crash-safe, content-addressed on-disk result cache.
//!
//! The experiment daemon answers heavy repeated traffic — re-running a
//! fig9 sweep is the common case — so finished results are persisted and
//! served back in microseconds instead of re-simulated. The cache must
//! survive exactly the things a long-lived service sees: a SIGKILL in the
//! middle of a write, a disk that filled up, an old daemon's stale format,
//! a corrupted byte. The design makes every failure mode either invisible
//! or a recompute, never a wrong answer:
//!
//! * **Atomic commits.** An entry is written to a temp file in the cache
//!   directory, fsynced and published with [`std::fs::rename`] — on POSIX
//!   a rename within one filesystem is atomic, so a reader only ever
//!   observes either no entry or a complete one. A crash mid-write leaves
//!   a `*.partial` temp file that no reader ever opens; leftovers are
//!   swept on the next [`ResultCache::open`]. Saved cost models are
//!   written by the same routine.
//! * **Self-verifying entries.** Every file carries a magic + format
//!   version header and a length + FNV-1a checksum footer. A reader
//!   validates all four before trusting a byte; any mismatch — truncation,
//!   bit rot, a half-written file that somehow got the right name —
//!   quarantines the entry and reports a miss, forcing a recompute.
//! * **Versioned format.** [`CACHE_FORMAT_VERSION`] is part of the header;
//!   entries from an older (or newer) daemon are invalidated, not
//!   misparsed.
//! * **Entries are the only on-disk state.** Nothing derived from them
//!   is persisted: the daemon catalogs the cache by decoding every entry
//!   when it binds, so a corrupt entry is quarantined then instead of
//!   being listed.
//!
//! Keys are content hashes of the full job identity (see
//! [`crate::parallel::Job::cache_key`]): same simulation in, same key out,
//! across processes and hosts.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use spade_core::JsonValue;

/// On-disk entry format version. Bump on any layout or payload-schema
/// change: old entries then quarantine cleanly instead of being misread.
pub const CACHE_FORMAT_VERSION: u32 = 2;

/// Entry-file magic. The trailing byte doubles as a format epoch guard:
/// a file that is not even ours never reaches version checking.
const MAGIC: &[u8; 8] = b"SPADERC\0";

/// magic (8) + version (4) + payload length (8).
const HEADER_LEN: usize = 20;

/// payload length again (8) + FNV-1a checksum of the payload (8).
const FOOTER_LEN: usize = 16;

/// Distinguishes the temp and quarantine files this process writes.
static SEQ: AtomicU64 = AtomicU64::new(0);

/// Streaming FNV-1a 64-bit hash — the workspace's dependency-free content
/// hash for cache keys and entry checksums. Stable across platforms,
/// processes and builds (unlike `DefaultHasher`, which is randomly
/// seeded per process).
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Absorbs a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// The hash of everything absorbed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// The 128-bit content hash behind cache keys: two independently seeded
/// [`Fnv64`] streams absorbing the same bytes, which pushes collisions
/// out of practical reach. The state is plain data, so a hash of a shared
/// prefix can be copied and extended once per key.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KeyHasher {
    lo: Fnv64,
    hi: Fnv64,
}

impl KeyHasher {
    pub(crate) fn new() -> Self {
        let mut hi = Fnv64::new();
        hi.write_u64(0x5eed_5eed_5eed_5eed);
        KeyHasher {
            lo: Fnv64::new(),
            hi,
        }
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        self.lo.write(bytes);
        self.hi.write(bytes);
    }

    pub(crate) fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    pub(crate) fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// The 32 hex digits of the hash, after `prefix` (which names the key
    /// space: run keys have none, search keys `s`, trace keys `t`).
    pub(crate) fn key(&self, prefix: &str) -> String {
        format!("{prefix}{:016x}{:016x}", self.lo.finish(), self.hi.finish())
    }
}

/// One-shot FNV-1a of a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// Counters a [`ResultCache`] keeps about its own behavior, surfaced by
/// the daemon's `status` response and its drain summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Entries served from disk.
    pub hits: u64,
    /// Lookups that found nothing (or nothing trustworthy).
    pub misses: u64,
    /// Entries committed.
    pub stores: u64,
    /// Entries rejected on read — truncated, corrupted, or stale-format —
    /// and moved aside for recompute.
    pub quarantined: u64,
}

impl CacheStats {
    /// These counters as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("hits", self.hits.into()),
            ("misses", self.misses.into()),
            ("stores", self.stores.into()),
            ("quarantined", self.quarantined.into()),
        ])
    }
}

/// A content-addressed result cache rooted at one directory. Safe to share
/// across threads (`&self` everywhere, counters atomic); safe to share
/// across *processes* because commits are atomic renames and readers
/// verify every entry.
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    quarantined: AtomicU64,
}

impl ResultCache {
    /// Opens (creating if needed) the cache at `dir` and sweeps temp files
    /// left behind by crashed writers — a `*.partial` file is by
    /// construction an entry that was never committed.
    ///
    /// # Errors
    ///
    /// Returns the underlying error when the directory cannot be created
    /// or listed.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            if name.to_string_lossy().ends_with(".partial") {
                // Best-effort: a sweep race with another starting daemon
                // is fine, someone removes it.
                let _ = fs::remove_file(entry.path());
            }
        }
        Ok(ResultCache {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        })
    }

    /// The cache's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// A snapshot of the hit/miss/store/quarantine counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }

    /// Number of committed entries currently on disk.
    pub fn len(&self) -> usize {
        fs::read_dir(&self.dir)
            .map(|rd| {
                rd.flatten()
                    .filter(|e| e.file_name().to_string_lossy().ends_with(".entry"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Whether no committed entries exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The keys of every committed entry on disk, sorted. A key is just
    /// the entry's file stem — content-addressed, so enumeration needs no
    /// index.
    pub fn keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = fs::read_dir(&self.dir)
            .map(|rd| {
                rd.flatten()
                    .filter_map(|e| {
                        let name = e.file_name().to_string_lossy().into_owned();
                        name.strip_suffix(".entry").map(str::to_string)
                    })
                    .collect()
            })
            .unwrap_or_default();
        keys.sort();
        keys
    }

    /// Reads `key` without touching the hit/miss counters — for catalog
    /// builds that walk the cache, which are bookkeeping, not request
    /// traffic. A damaged entry is still quarantined (that counter
    /// records real events, not traffic).
    pub fn peek(&self, key: &str) -> Option<Vec<u8>> {
        let path = self.entry_path(key);
        let bytes = fs::read(&path).ok()?;
        match decode_framed(MAGIC, CACHE_FORMAT_VERSION, &bytes) {
            Ok(payload) => Some(payload.to_vec()),
            Err(reason) => {
                self.quarantine(&path, &reason);
                None
            }
        }
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.entry"))
    }

    /// Looks up `key`. Returns the payload only if the entry passes every
    /// check — magic, format version, both length records, checksum. An
    /// entry that fails any check is quarantined (moved into
    /// `quarantine/`, or deleted if even that fails) and reported as a
    /// miss, so the caller recomputes instead of trusting a corrupt file.
    pub fn get(&self, key: &str) -> Option<Vec<u8>> {
        let path = self.entry_path(key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match decode_framed(MAGIC, CACHE_FORMAT_VERSION, &bytes) {
            Ok(payload) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(payload.to_vec())
            }
            Err(reason) => {
                self.quarantine(&path, &reason);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Commits `payload` under `key`: temp file, fsync, atomic rename.
    /// Readers never observe a partial entry; a crash at any instant
    /// leaves either the old state or the new one.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error (disk full, permissions); the
    /// cache directory is left without a (new) entry but never with a
    /// half-written one under `key`.
    pub fn put(&self, key: &str, payload: &[u8]) -> io::Result<()> {
        let framed = encode_framed(MAGIC, CACHE_FORMAT_VERSION, payload);
        write_durable(&self.entry_path(key), &framed)?;
        self.stores.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Moves a failed entry aside so the next writer can recompute and
    /// commit cleanly, keeping the bad bytes around for diagnosis.
    fn quarantine(&self, path: &Path, reason: &str) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        let qdir = self.dir.join("quarantine");
        let moved = fs::create_dir_all(&qdir).is_ok() && {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| "entry".into());
            let seq = SEQ.fetch_add(1, Ordering::Relaxed);
            fs::rename(path, qdir.join(format!("{name}.{seq}.bad"))).is_ok()
        };
        if !moved {
            let _ = fs::remove_file(path);
        }
        eprintln!("spade-cache: quarantined {} ({reason})", path.display());
    }

    /// Writes `index.json` next to the entries: format version, entry
    /// count, and the behavior counters, written atomically like an
    /// entry. Nothing reads the file and the daemon never writes it: its
    /// catalog is built from the entries themselves. It is kept only
    /// because perfbench's `serve` replay times it
    /// (`cache.index_flush_ms`).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the write fails.
    pub fn flush_index(&self) -> io::Result<PathBuf> {
        let doc = JsonValue::object([
            ("format_version", JsonValue::from(CACHE_FORMAT_VERSION)),
            ("entries", self.len().into()),
            ("stats", self.stats().to_json()),
        ]);
        let path = self.dir.join("index.json");
        write_durable(&path, doc.render().as_bytes())?;
        Ok(path)
    }
}

/// Frames `payload` as one self-verifying file image:
/// `magic | version | len | payload | len | fnv1a(payload)` — the layout
/// of cache entries and of saved cost models.
pub(crate) fn encode_framed(magic: &[u8; 8], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + FOOTER_LEN);
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out
}

/// Validates a file image framed by [`encode_framed`] with `magic` and
/// `version` and returns its payload slice, or why it was refused.
pub(crate) fn decode_framed<'a>(
    magic: &[u8; 8],
    version: u32,
    bytes: &'a [u8],
) -> Result<&'a [u8], String> {
    if bytes.len() < HEADER_LEN + FOOTER_LEN {
        return Err("truncated before the header/footer".into());
    }
    if &bytes[..8] != magic {
        return Err("bad magic".into());
    }
    let found = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if found != version {
        return Err(format!("format v{found} is not the supported v{version}"));
    }
    let header_len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let expected = (bytes.len() - HEADER_LEN - FOOTER_LEN) as u64;
    if header_len != expected {
        return Err("header length disagrees with the file size".into());
    }
    let payload = &bytes[HEADER_LEN..bytes.len() - FOOTER_LEN];
    let footer = &bytes[bytes.len() - FOOTER_LEN..];
    let footer_len = u64::from_le_bytes(footer[..8].try_into().expect("8 bytes"));
    if footer_len != header_len {
        return Err("footer length disagrees with the header".into());
    }
    let checksum = u64::from_le_bytes(footer[8..].try_into().expect("8 bytes"));
    if checksum != fnv1a(payload) {
        return Err("checksum mismatch".into());
    }
    Ok(payload)
}

/// Writes `bytes` to `path` durably: a uniquely named `*.partial` temp
/// file next to it, fsync, rename over `path`, then a best-effort sync of
/// the directory so the rename itself is durable. A crash at any instant
/// leaves the old file or the new one, never a torn or empty one; a
/// failed write removes its temp file.
///
/// # Errors
///
/// Returns the underlying I/O error (disk full, permissions).
pub(crate) fn write_durable(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".{}.{}.partial",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = PathBuf::from(tmp);
    let result = File::create(&tmp)
        .and_then(|mut f| f.write_all(bytes).and_then(|()| f.sync_all()))
        .and_then(|()| fs::rename(&tmp, path));
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
        return result;
    }
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    if let Ok(d) = File::open(dir.unwrap_or(Path::new("."))) {
        let _ = d.sync_all();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_cache(tag: &str) -> ResultCache {
        let dir =
            std::env::temp_dir().join(format!("spade_cache_test_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ResultCache::open(dir).unwrap()
    }

    #[test]
    fn fnv_is_stable() {
        // Reference vectors for FNV-1a 64.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv64::new();
        h.write_u64(7);
        h.write_u32(9);
        let a = h.finish();
        let mut h = Fnv64::new();
        h.write(&7u64.to_le_bytes());
        h.write(&9u32.to_le_bytes());
        assert_eq!(a, h.finish());
    }

    #[test]
    fn roundtrip_hits_after_store() {
        let c = tmp_cache("roundtrip");
        let key = "00112233445566778899aabbccddeeff";
        assert_eq!(c.get(key), None);
        c.put(key, b"{\"cycles\":42}").unwrap();
        assert_eq!(c.get(key).as_deref(), Some(&b"{\"cycles\":42}"[..]));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.stores, s.quarantined), (1, 1, 1, 0));
        assert_eq!(c.len(), 1);
        let _ = fs::remove_dir_all(c.dir());
    }

    #[test]
    fn every_truncation_of_an_entry_is_rejected() {
        // The crash-safety core: whatever prefix of the final bytes a
        // dying writer could have left under the entry name (it cannot,
        // thanks to rename — but belt and braces), the reader must refuse
        // it. This is the same property a SIGKILL mid-write exercises.
        let c = tmp_cache("truncation");
        let key = "aaaabbbbccccddddeeeeffff00001111";
        c.put(key, b"payload bytes that matter").unwrap();
        let full = fs::read(c.entry_path(key)).unwrap();
        for cut in 0..full.len() {
            fs::write(c.entry_path(key), &full[..cut]).unwrap();
            assert_eq!(c.get(key), None, "accepted a {cut}-byte truncation");
            // The bad file was quarantined; the slot is clean again.
            assert!(!c.entry_path(key).exists());
        }
        // The intact image still reads back fine.
        fs::write(c.entry_path(key), &full).unwrap();
        assert_eq!(
            c.get(key).as_deref(),
            Some(&b"payload bytes that matter"[..])
        );
        assert_eq!(c.stats().quarantined, full.len() as u64);
        let _ = fs::remove_dir_all(c.dir());
    }

    #[test]
    fn corrupted_bytes_are_quarantined_not_trusted() {
        let c = tmp_cache("corrupt");
        let key = "11112222333344445555666677778888";
        c.put(key, b"all these bytes are load-bearing").unwrap();
        let mut bytes = fs::read(c.entry_path(key)).unwrap();
        let mid = HEADER_LEN + 4;
        bytes[mid] ^= 0x40;
        fs::write(c.entry_path(key), &bytes).unwrap();
        assert_eq!(c.get(key), None);
        assert!(c.dir().join("quarantine").exists());
        // Recompute-and-store works after quarantine.
        c.put(key, b"all these bytes are load-bearing").unwrap();
        assert!(c.get(key).is_some());
        let _ = fs::remove_dir_all(c.dir());
    }

    #[test]
    fn stale_format_version_is_invalidated() {
        let c = tmp_cache("version");
        let key = "deadbeefdeadbeefdeadbeefdeadbeef";
        c.put(key, b"old world").unwrap();
        let mut bytes = fs::read(c.entry_path(key)).unwrap();
        bytes[8] = bytes[8].wrapping_add(1); // bump the stored version
        fs::write(c.entry_path(key), &bytes).unwrap();
        assert_eq!(c.get(key), None, "a stale-format entry must not parse");
        let _ = fs::remove_dir_all(c.dir());
    }

    #[test]
    fn partial_temp_files_are_invisible_and_swept() {
        let c = tmp_cache("sweep");
        let key = "0123456789abcdef0123456789abcdef";
        // Simulate a writer killed mid-write: a temp file exists, the
        // entry does not.
        fs::write(
            c.dir().join(format!("{key}.999.0.partial")),
            b"half-written garbage",
        )
        .unwrap();
        assert_eq!(c.get(key), None, "temp files must never satisfy a read");
        // A fresh open (daemon restart) sweeps the leftover.
        let dir = c.dir().to_path_buf();
        drop(c);
        let c = ResultCache::open(&dir).unwrap();
        assert!(
            !fs::read_dir(&dir)
                .unwrap()
                .flatten()
                .any(|e| e.file_name().to_string_lossy().ends_with(".partial")),
            "restart must sweep crashed writers' temp files"
        );
        let _ = c;
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn index_flush_is_valid_json() {
        let c = tmp_cache("index");
        c.put("ffffeeeeddddccccbbbbaaaa99998888", b"x").unwrap();
        let path = c.flush_index().unwrap();
        let text = fs::read_to_string(&path).unwrap();
        let doc = spade_sim::json::JsonValue::parse(&text).unwrap();
        assert_eq!(
            doc.get("format_version").and_then(|v| v.as_u64()),
            Some(u64::from(CACHE_FORMAT_VERSION))
        );
        assert_eq!(doc.get("entries").and_then(|v| v.as_u64()), Some(1));
        let _ = fs::remove_dir_all(c.dir());
    }

    #[test]
    fn empty_payloads_are_fine() {
        let c = tmp_cache("empty");
        let key = "e0e0e0e0e0e0e0e0e0e0e0e0e0e0e0e0";
        c.put(key, b"").unwrap();
        assert_eq!(c.get(key).as_deref(), Some(&b""[..]));
        assert!(!c.is_empty());
        let _ = fs::remove_dir_all(c.dir());
    }
}
