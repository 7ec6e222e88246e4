//! Content-addressed cell result cache.
//!
//! Every matrix cell's result is keyed by a canonical digest of
//! everything that determines it: scheme (including its full config),
//! workload, machine config, size class, seed, fault-injection spec,
//! cargo feature flags, and the code version captured by
//! [`ccraft_telemetry::manifest::Provenance`]. Two processes that agree
//! on those inputs agree on the digest, so a warm `ccraft-serve` daemon
//! can answer a repeated sweep without simulating anything.
//!
//! Entries are stored durably through [`crate::store`]
//! (`write_durable`/`read_verified`), and an entry is served only when
//! its checksum footer verifies: a damaged or footer-less entry is
//! quarantined to `<digest>.json.corrupt-<n>` on read and reported as a
//! miss — the cell is recomputed, never served from unverified bytes.
//! In front of the disk sits an in-memory index of known digests, so a
//! cold miss costs one set probe, not a filesystem round trip.
//!
//! [`CellKey::for_cell`] and [`cached`] are the one memoization path:
//! experiment runs go through a run-local cache at `<results>/cells/`
//! (see [`crate::checkpoint::Run`]), and the `ccraft-serve` daemon
//! through its long-lived one.

use crate::error::Error;
use crate::lock_clean;
use crate::runner::{cell_faults, CacheDisposition, CellRun, ExpOptions};
use crate::store;
use ccraft_core::factory::SchemeKind;
use ccraft_sim::config::GpuConfig;
use ccraft_sim::stats::SimStats;
use ccraft_telemetry::manifest::Provenance;
use ccraft_workloads::Workload;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// FNV-1a 64-bit offset basis (first digest half).
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// A second, independent basis (the first basis XOR a large odd
/// constant) so the two halves of the digest are decorrelated.
const FNV_BASIS_B: u64 = FNV_BASIS ^ 0x9e37_79b9_7f4a_7c15;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes` from an explicit basis. Pure arithmetic — no
/// `DefaultHasher`, whose output is allowed to vary across processes and
/// releases, which would break the cross-process digest guarantee.
pub fn fnv1a64(bytes: &[u8], basis: u64) -> u64 {
    let mut h = basis;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Everything that determines one cell's result. All fields are part of
/// the digest; changing any single one changes the key.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellKey {
    /// Scheme identity *with its configuration* — the `Debug` rendering
    /// of `SchemeKind`, which includes e.g. CacheCraft's geometry, so two
    /// schemes sharing a short name but differing in config never alias.
    pub scheme: String,
    /// Workload short name.
    pub workload: String,
    /// Machine (GPU config) description.
    pub machine: String,
    /// Size class name.
    pub size: String,
    /// Base RNG seed for the cell.
    pub seed: u64,
    /// The cell's derived fault-injection config as
    /// `<canonical spec>@seed=<seed>`, or `"none"`.
    pub inject: String,
    /// Cargo feature flags that alter runtime behavior, sorted.
    pub features: Vec<String>,
    /// Code version (git commit + toolchain from `Provenance`).
    pub code_version: String,
}

impl CellKey {
    /// The key of what [`crate::runner::run_cell`] computes for these
    /// arguments. The machine is the full `Debug` rendering of `cfg`
    /// (sensitivity sweeps vary one field of a base machine), and the
    /// injection field carries the per-cell derived seed, so two cells
    /// of one `--inject` matrix never alias.
    pub fn for_cell(
        cfg: &GpuConfig,
        opts: &ExpOptions,
        idx: usize,
        workload: Workload,
        scheme: SchemeKind,
    ) -> CellKey {
        CellKey {
            scheme: format!("{scheme:?}"),
            workload: workload.name().to_string(),
            machine: format!("{cfg:?}"),
            size: opts.size.to_string(),
            seed: opts.seed,
            inject: cell_faults(opts, idx).map_or_else(
                || "none".to_string(),
                |fc| format!("{}@seed={}", fc.canonical_spec(), fc.seed),
            ),
            features: features(),
            code_version: code_version().to_string(),
        }
    }

    /// The canonical byte string the digest is computed over: one
    /// `field=value` line per field, in fixed order. Newlines inside
    /// values are escaped so no two distinct keys share a canonical form.
    pub fn canonical(&self) -> String {
        let esc = |s: &str| s.replace('\\', "\\\\").replace('\n', "\\n");
        let mut features = self.features.clone();
        features.sort_unstable();
        format!(
            "ccraft-cellkey:v1\nscheme={}\nworkload={}\nmachine={}\nsize={}\nseed={}\ninject={}\nfeatures={}\ncode_version={}\n",
            esc(&self.scheme),
            esc(&self.workload),
            esc(&self.machine),
            esc(&self.size),
            self.seed,
            esc(&self.inject),
            esc(&features.join(",")),
            esc(&self.code_version),
        )
    }

    /// 128-bit content digest as 32 lowercase hex characters: two
    /// independent FNV-1a-64 passes over [`CellKey::canonical`].
    /// Deterministic across processes, platforms, and releases.
    pub fn digest(&self) -> String {
        let canon = self.canonical();
        let a = fnv1a64(canon.as_bytes(), FNV_BASIS);
        let b = fnv1a64(canon.as_bytes(), FNV_BASIS_B);
        format!("{a:016x}{b:016x}")
    }
}

/// One durable cache entry: the full key (for post-mortem and collision
/// rejection) and the result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheEntry {
    /// Digest the entry was stored under.
    pub digest: String,
    /// The key that produced it, verbatim.
    pub key: CellKey,
    /// The simulated result.
    pub stats: SimStats,
}

/// Counters describing cache behavior, snapshot via
/// [`ResultCache::counters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheCounters {
    /// Lookups served from a durable entry.
    pub hits: u64,
    /// Lookups that found no entry (including index negatives).
    pub misses: u64,
    /// Misses answered by the in-memory index without touching disk.
    pub negative_hits: u64,
    /// Entries written.
    pub inserts: u64,
    /// Entries quarantined after failing checksum or schema verification.
    pub corrupt: u64,
}

/// A directory of content-addressed cell results with an in-memory
/// digest index. All methods take `&self`; the cache is shared across
/// executor threads via `Arc`.
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
    /// Digests known to exist on disk.
    index: Mutex<BTreeSet<String>>,
    hits: AtomicU64,
    misses: AtomicU64,
    negative_hits: AtomicU64,
    inserts: AtomicU64,
    corrupt: AtomicU64,
}

impl ResultCache {
    /// Opens (creating if needed) the cache directory and indexes any
    /// existing entries. Quarantine leftovers (`*.corrupt-*`) are
    /// ignored.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the directory cannot be created or
    /// listed.
    pub fn open(dir: &Path) -> Result<ResultCache, Error> {
        std::fs::create_dir_all(dir)
            .map_err(|e| Error::io(format!("creating cache dir {}", dir.display()), e))?;
        let cache = ResultCache {
            dir: dir.to_path_buf(),
            index: Mutex::new(BTreeSet::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            negative_hits: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
        };
        let entries = std::fs::read_dir(dir)
            .map_err(|e| Error::io(format!("listing cache dir {}", dir.display()), e))?;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(digest) = name.strip_suffix(".json") {
                if digest.len() == 32 && digest.bytes().all(|b| b.is_ascii_hexdigit()) {
                    cache.remember(digest);
                }
            }
        }
        Ok(cache)
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        lock_clean(&self.index).len()
    }

    /// True when no entries are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the behavior counters.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            negative_hits: self.negative_hits.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
        }
    }

    fn entry_path(&self, digest: &str) -> PathBuf {
        self.dir.join(format!("{digest}.json"))
    }

    /// Marks `digest` present in the index.
    fn remember(&self, digest: &str) {
        lock_clean(&self.index).insert(digest.to_string());
    }

    /// Looks `key` up. Returns the verified entry on a hit; `None` on a
    /// miss — including when the durable entry exists but fails checksum
    /// or schema verification, or has no checksum footer at all (the file
    /// is quarantined by [`store::read_verified`] or moved aside here, so
    /// the caller recomputes instead of consuming unverified bytes).
    pub fn lookup(&self, key: &CellKey) -> Option<CacheEntry> {
        let digest = key.digest();
        if !lock_clean(&self.index).contains(&digest) {
            self.negative_hits.fetch_add(1, Ordering::Relaxed);
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let path = self.entry_path(&digest);
        let entry = match store::read_verified(&path) {
            Ok(v) if v.verified => std::str::from_utf8(&v.payload)
                .ok()
                .and_then(|text| serde_json::from_str::<CacheEntry>(text).ok()),
            // No footer: nothing vouches that these are the bytes `insert`
            // wrote.
            Ok(_) => None,
            Err(Error::Corrupt { .. }) => {
                // read_verified already moved the file aside.
                self.forget(&digest);
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            Err(_) => {
                // Indexed but gone from disk (a racing delete).
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match entry {
            // Digest collisions are astronomically unlikely but cheap to
            // reject: the stored key must match the requested one.
            Some(entry) if entry.key == *key => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry)
            }
            _ => {
                // Footer-less, not UTF-8, unparseable or aliased:
                // quarantine and recompute.
                // A failed rename is not fatal — the entry is forgotten
                // and counted corrupt either way, and the next read will
                // retry — but it must not be silent: the cache directory
                // needs operator attention.
                if let Err(e) = store::quarantine(&path) {
                    eprintln!("cellcache: quarantine of {} failed: {e}", path.display());
                }
                self.forget(&digest);
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a freshly computed result under `key`. The third argument
    /// is ignored; it once carried the producer's `sim_threads`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the durable write fails; the index is
    /// only updated on success.
    pub fn insert(&self, key: &CellKey, stats: &SimStats, _sim_threads: u32) -> Result<(), Error> {
        let digest = key.digest();
        let entry = CacheEntry {
            digest: digest.clone(),
            key: key.clone(),
            stats: stats.clone(),
        };
        let text = serde_json::to_string_pretty(&entry)
            .map_err(|e| Error::Config(format!("serializing cache entry {digest}: {e}")))?;
        store::write_durable(&self.entry_path(&digest), text.as_bytes())?;
        self.remember(&digest);
        self.inserts.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Drops `digest` from the in-memory index.
    fn forget(&self, digest: &str) {
        lock_clean(&self.index).remove(digest);
    }
}

/// Serves `key` from `cache`, or runs `simulate` and inserts its
/// result. An insert failure is reported on stderr and the fresh result
/// returned anyway: a cell that could not be memoized is still correct.
pub fn cached(cache: &ResultCache, key: &CellKey, simulate: impl FnOnce() -> SimStats) -> CellRun {
    if let Some(entry) = cache.lookup(key) {
        return CellRun {
            stats: entry.stats,
            cache: CacheDisposition::Hit,
        };
    }
    let stats = simulate();
    if let Err(e) = cache.insert(key, &stats, 1) {
        eprintln!("warning: cell cache insert failed: {e}");
    }
    CellRun {
        stats,
        cache: CacheDisposition::Miss,
    }
}

/// Cargo features that alter runtime behavior, as every key records
/// them: an oracle build never shares entries with a stock one.
pub fn features() -> Vec<String> {
    if cfg!(feature = "check-invariants") {
        vec!["check-invariants".to_string()]
    } else {
        Vec::new()
    }
}

/// This process's build/host provenance, captured once, on first use:
/// the capture spawns `rustc` and `git` (tens of milliseconds), which
/// must not delay a run's first output. Cache keys and the run manifest
/// share it, so a process pays for the capture once.
pub fn provenance() -> &'static Provenance {
    static PROVENANCE: OnceLock<Provenance> = OnceLock::new();
    PROVENANCE.get_or_init(Provenance::capture)
}

/// The code version every key embeds (`<rustc -V> @ <git commit>`).
fn code_version() -> &'static str {
    static VERSION: OnceLock<String> = OnceLock::new();
    VERSION.get_or_init(|| {
        let prov = provenance();
        format!("{} @ {}", prov.rustc, prov.git_commit)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccraft_core::factory::run_scheme;
    use ccraft_workloads::SizeClass;

    fn sample_key() -> CellKey {
        CellKey {
            scheme: format!("{:?}", SchemeKind::NoProtection),
            workload: "vecadd".to_string(),
            machine: "tiny".to_string(),
            size: "tiny".to_string(),
            seed: 1,
            inject: "none".to_string(),
            features: vec!["check-invariants".to_string()],
            code_version: "rustc 1.80 @ abc123".to_string(),
        }
    }

    fn sample_stats() -> SimStats {
        run_scheme(
            &GpuConfig::tiny(),
            SchemeKind::NoProtection,
            &Workload::VecAdd.generate(SizeClass::Tiny, 1),
        )
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ccraft-cellcache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn digest_is_stable_and_process_independent() {
        let key = sample_key();
        // Two independent computations agree (no per-process salt) and
        // the exact value is pinned: any accidental change to the
        // canonical form or hash constants breaks cross-process and
        // cross-release cache reuse, which this test makes loud.
        assert_eq!(key.digest(), sample_key().digest());
        assert_eq!(key.digest().len(), 32);
        assert!(key.digest().bytes().all(|b| b.is_ascii_hexdigit()));
        let recomputed = {
            let a = fnv1a64(key.canonical().as_bytes(), FNV_BASIS);
            let b = fnv1a64(key.canonical().as_bytes(), FNV_BASIS_B);
            format!("{a:016x}{b:016x}")
        };
        assert_eq!(key.digest(), recomputed);
    }

    #[test]
    fn every_field_reaches_the_digest() {
        let base = sample_key();
        let variants = [
            CellKey {
                scheme: format!("{:?}", SchemeKind::InlineNaive { coverage: 8 }),
                ..base.clone()
            },
            CellKey {
                workload: "saxpy".to_string(),
                ..base.clone()
            },
            CellKey {
                machine: "small".to_string(),
                ..base.clone()
            },
            CellKey {
                size: "small".to_string(),
                ..base.clone()
            },
            CellKey {
                seed: 2,
                ..base.clone()
            },
            CellKey {
                inject: "symbol:p=0.0001".to_string(),
                ..base.clone()
            },
            CellKey {
                features: Vec::new(),
                ..base.clone()
            },
            CellKey {
                code_version: "rustc 1.80 @ def456".to_string(),
                ..base.clone()
            },
        ];
        let mut digests: Vec<String> = variants.iter().map(CellKey::digest).collect();
        digests.push(base.digest());
        let unique: BTreeSet<&String> = digests.iter().collect();
        assert_eq!(
            unique.len(),
            digests.len(),
            "every key field must change the digest: {digests:?}"
        );
    }

    #[test]
    fn feature_order_does_not_change_the_digest() {
        let mut a = sample_key();
        a.features = vec!["b".to_string(), "a".to_string()];
        let mut b = sample_key();
        b.features = vec!["a".to_string(), "b".to_string()];
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn insert_then_lookup_round_trips() {
        let dir = temp_dir("roundtrip");
        let cache = ResultCache::open(&dir).expect("open cache");
        let key = sample_key();
        assert!(cache.lookup(&key).is_none(), "cold cache misses");
        let stats = sample_stats();
        cache.insert(&key, &stats, 1).expect("insert");
        let entry = cache.lookup(&key).expect("hit after insert");
        assert_eq!(entry.stats, stats);
        assert_eq!(entry.key, key);
        // A different seed is a different cell: still a miss.
        let other = CellKey {
            seed: 99,
            ..sample_key()
        };
        assert!(cache.lookup(&other).is_none());
        let c = cache.counters();
        assert_eq!(c.hits, 1);
        assert_eq!(c.inserts, 1);
        assert!(c.misses >= 2);
        assert_eq!(
            c.negative_hits, 2,
            "the cold miss and the unknown-seed miss must be answered by the index: {c:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_survives_reopen_in_a_new_instance() {
        // Same config through "two processes": a second ResultCache over
        // the same directory reindexes the entry and serves the hit.
        let dir = temp_dir("reopen");
        let key = sample_key();
        let stats = sample_stats();
        {
            let cache = ResultCache::open(&dir).expect("open cache");
            cache.insert(&key, &stats, 1).expect("insert");
        }
        let reopened = ResultCache::open(&dir).expect("reopen cache");
        assert_eq!(reopened.len(), 1);
        let entry = reopened.lookup(&key).expect("hit across instances");
        assert_eq!(entry.stats, stats);
        // Entries written by the channel-sharded engine also carried a
        // `sim_threads` field; they still hit.
        let path = dir.join(format!("{}.json", key.digest()));
        let (text, _) = store::read_verified_string(&path).expect("read back");
        let old = text.replacen("\"digest\":", "\"sim_threads\": 4, \"digest\":", 1);
        assert_ne!(old, text, "no digest field to precede");
        store::write_durable(&path, old.as_bytes()).expect("rewrite");
        let reopened = ResultCache::open(&dir).expect("reopen cache");
        let entry = reopened.lookup(&key).expect("old entry still hits");
        assert_eq!(entry.stats, stats);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_entry_is_quarantined_and_recomputed_not_served() {
        let dir = temp_dir("corrupt");
        let cache = ResultCache::open(&dir).expect("open cache");
        let key = sample_key();
        let stats = sample_stats();
        cache.insert(&key, &stats, 1).expect("insert");
        // Bump the first digit of the stats: the JSON still parses and
        // the key still matches, so only the crc32 footer can tell.
        let path = dir.join(format!("{}.json", key.digest()));
        let mut bytes = std::fs::read(&path).expect("read entry");
        let at = bytes
            .windows(7)
            .position(|w| w == b"\"stats\"")
            .expect("stats");
        let i = at
            + bytes[at..]
                .iter()
                .position(u8::is_ascii_digit)
                .expect("a digit");
        bytes[i] = if bytes[i] == b'9' { b'8' } else { bytes[i] + 1 };
        std::fs::write(&path, &bytes).expect("corrupt entry");

        assert!(
            cache.lookup(&key).is_none(),
            "a corrupted entry must be a miss, never served"
        );
        assert!(!path.exists(), "the damaged file was moved aside");
        let quarantined = std::fs::read_dir(&dir)
            .expect("list dir")
            .flatten()
            .any(|e| e.file_name().to_string_lossy().contains(".corrupt-"));
        assert!(quarantined, "quarantine sibling must exist");
        assert_eq!(cache.counters().corrupt, 1);
        // The quarantined digest left the index: the next lookup misses
        // without touching disk.
        assert!(cache.lookup(&key).is_none());
        assert_eq!(cache.counters().negative_hits, 1);

        // Recompute-and-reinsert heals the cache.
        cache.insert(&key, &stats, 1).expect("reinsert");
        assert_eq!(cache.lookup(&key).expect("healed hit").stats, stats);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_key_under_same_digest_is_rejected() {
        // Simulate a digest collision by writing an entry whose stored
        // key differs from the lookup key at the colliding path.
        let dir = temp_dir("collision");
        let cache = ResultCache::open(&dir).expect("open cache");
        let key = sample_key();
        let stats = sample_stats();
        cache.insert(&key, &stats, 1).expect("insert");
        let path = dir.join(format!("{}.json", key.digest()));
        let (text, _) = store::read_verified_string(&path).expect("read back");
        let mut entry: CacheEntry = serde_json::from_str(&text).expect("parse");
        entry.key.seed = 12345; // now the stored key lies
        let forged = serde_json::to_string_pretty(&entry).expect("serialize");
        store::write_durable(&path, forged.as_bytes()).expect("rewrite");
        cache.remember(&key.digest());
        assert!(
            cache.lookup(&key).is_none(),
            "an aliased entry must not be served"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn panicking_simulation_leaves_no_entry() {
        let dir = temp_dir("panic");
        let cache = ResultCache::open(&dir).expect("open cache");
        let key = sample_key();
        let panicked = std::panic::catch_unwind(|| {
            cached(&cache, &key, || panic!("simulation panics"));
        });
        assert!(panicked.is_err());
        assert_eq!(cache.len(), 0, "a failed cell must not be memoized");
        // The next attempt simulates again and memoizes its result.
        let mut simulated = false;
        let run = cached(&cache, &key, || {
            simulated = true;
            sample_stats()
        });
        assert!(simulated);
        assert_eq!(run.cache, CacheDisposition::Miss);
        assert_eq!(cache.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_cells_differing_only_by_index_get_distinct_keys() {
        let cfg = GpuConfig::tiny();
        let plain = ExpOptions {
            size: SizeClass::Tiny,
            ..ExpOptions::default()
        };
        let injected = ExpOptions {
            inject: Some(ccraft_sim::faults::FaultConfig::parse("symbol:1e-4").unwrap()),
            ..plain
        };
        let key = |opts: &ExpOptions, idx| {
            CellKey::for_cell(&cfg, opts, idx, Workload::Spmv, SchemeKind::NoProtection)
        };
        // Each injected cell draws its own fault stream from its index.
        assert_ne!(key(&injected, 0).digest(), key(&injected, 1).digest());
        assert!(key(&injected, 0).inject.starts_with("symbol:1e-4@seed="));
        // Without injection the index determines nothing.
        assert_eq!(key(&plain, 0), key(&plain, 1));
        assert_eq!(key(&plain, 0).inject, "none");
        // The machine is the full config, not a preset name.
        let mut bigger = cfg;
        bigger.l2.capacity_bytes *= 2;
        assert_ne!(
            key(&plain, 0),
            CellKey::for_cell(&bigger, &plain, 0, Workload::Spmv, SchemeKind::NoProtection)
        );
    }

    #[test]
    fn footerless_entry_is_quarantined_not_served() {
        let dir = temp_dir("footerless");
        let cache = ResultCache::open(&dir).expect("open cache");
        let key = sample_key();
        cache.insert(&key, &sample_stats(), 1).expect("insert");
        // The entry's JSON parses, but nothing vouches for it.
        let path = dir.join(format!("{}.json", key.digest()));
        let bytes = std::fs::read(&path).expect("read entry");
        std::fs::write(&path, store::strip_footer(&bytes)).expect("drop footer");
        assert!(
            cache.lookup(&key).is_none(),
            "a footer-less entry was served"
        );
        assert!(!path.exists(), "the footer-less file was moved aside");
        assert_eq!(cache.counters().corrupt, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Mutated entry files — torn, bit-flipped, footer-edited, random
    /// JSON, another key's entry — must never panic a lookup nor hand
    /// out another key's stats; whatever cannot be served is quarantined.
    #[test]
    fn fuzzed_entry_files_are_quarantined_never_served() {
        let dir = temp_dir("fuzz");
        let cache = ResultCache::open(&dir).expect("open cache");
        let key = sample_key();
        let other = CellKey {
            workload: "saxpy".to_string(),
            ..sample_key()
        };
        let stats = sample_stats();
        let other_stats = run_scheme(
            &GpuConfig::tiny(),
            SchemeKind::NoProtection,
            &Workload::Saxpy.generate(SizeClass::Tiny, 1),
        );
        assert_ne!(stats, other_stats);
        cache.insert(&key, &stats, 1).expect("insert");
        cache.insert(&other, &other_stats, 1).expect("insert");
        let path = dir.join(format!("{}.json", key.digest()));
        let valid = std::fs::read(&path).expect("read entry");
        let foreign = std::fs::read(dir.join(format!("{}.json", other.digest()))).expect("read");
        let footer_at = valid.len()
            - valid
                .iter()
                .rev()
                .skip(1)
                .position(|&b| b == b'\n')
                .expect("footer line")
            - 1;

        let mut rng = 0x5eed_u64;
        let mut next = move |bound: usize| {
            rng = crate::splitmix64(rng);
            (rng % bound.max(1) as u64) as usize
        };
        let mut served = 0;
        for round in 0..300 {
            let bytes: Vec<u8> = match round % 6 {
                0 => valid[..next(valid.len())].to_vec(),
                1 => {
                    let mut b = valid.clone();
                    for _ in 0..=next(3) {
                        let i = next(b.len());
                        b[i] ^= 1 << next(8);
                    }
                    b
                }
                2 => {
                    let mut b = valid.clone();
                    let i = footer_at + next(b.len() - footer_at);
                    const EDITS: &[u8] = b"0123456789abcdefABCDEF:=\n#x";
                    b[i] = EDITS[next(EDITS.len())];
                    b
                }
                3 => {
                    let mut json = random_json(&mut next, 3).into_bytes();
                    if next(3) == 0 {
                        // Not UTF-8, under a footer that verifies.
                        json.insert(next(json.len() + 1), 0xff);
                    }
                    if next(2) == 0 {
                        json
                    } else {
                        store::encode(&json)
                    }
                }
                4 => foreign.clone(),
                _ => {
                    let mut b = foreign.clone();
                    b.truncate(footer_at.min(b.len()));
                    b
                }
            };
            std::fs::write(&path, &bytes).expect("write mutated entry");
            cache.remember(&key.digest());
            match cache.lookup(&key) {
                Some(entry) => {
                    assert_eq!(entry.key, key, "round {round}");
                    assert_eq!(entry.stats, stats, "round {round}: another key's stats");
                    served += 1;
                }
                None => assert!(!path.exists(), "round {round}: a bad entry stayed in place"),
            }
            let _ = std::fs::remove_file(&path);
        }
        // Only an entry whose footer still verifies may be served: at
        // this seed, the three footer edits that wrote back the byte
        // already there.
        assert!(served <= 3, "{served} mutated entries served");
        assert!(cache.counters().corrupt >= 297);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A random JSON value of bounded depth, biased toward the entry's
    /// own field names.
    fn random_json(next: &mut impl FnMut(usize) -> usize, depth: u32) -> String {
        const WORDS: [&str; 6] = ["digest", "key", "stats", "seed", "", "\\u00e9"];
        match if depth == 0 { next(4) } else { next(6) } {
            0 => [
                "null",
                "true",
                "false",
                "-0",
                "1e999",
                "18446744073709551616",
            ][next(6)]
            .to_string(),
            1 => format!("{}", next(usize::MAX) as i64),
            2 => format!("\"{}\"", WORDS[next(WORDS.len())]),
            3 => ["{", "[", "\"", "}", "]", ",", ":"][next(7)].to_string(),
            4 => {
                let items: Vec<String> =
                    (0..next(4)).map(|_| random_json(next, depth - 1)).collect();
                format!("[{}]", items.join(","))
            }
            _ => {
                let fields: Vec<String> = (0..next(4))
                    .map(|_| {
                        format!(
                            "\"{}\":{}",
                            WORDS[next(WORDS.len())],
                            random_json(next, depth - 1)
                        )
                    })
                    .collect();
                format!("{{{}}}", fields.join(","))
            }
        }
    }
}
