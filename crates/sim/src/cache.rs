//! A generic set-associative, sectored cache model.
//!
//! Used for the per-SM L1, the per-channel L2 slice, and (by the protection
//! crate) dedicated ECC caches and fragment stores. The model tracks tags,
//! per-sector valid/dirty bits and LRU state — no data contents, since this
//! is a timing simulator (functional ECC behaviour is verified separately).
//!
//! A *line* groups `atoms_per_line` consecutive 32-byte atoms under one tag
//! (4 for the GPU caches, 1 for ECC-atom-granularity structures). Addresses
//! are channel-local physical atom indices.

use std::fmt;

/// Result of a read lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupResult {
    /// The requested atom is valid in the cache.
    Hit,
    /// The line is resident but this sector is not valid (sector miss).
    SectorMiss,
    /// No line with this tag is resident.
    LineMiss,
}

/// A victim evicted to make room for a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// First atom of the evicted line.
    pub base_atom: u64,
    /// Sectors that were valid and dirty: bit `k` is atom `base_atom + k`.
    pub dirty: u8,
}

impl Eviction {
    /// The atoms (absolute) that were valid and dirty, in ascending order.
    pub fn dirty_atoms(self) -> impl Iterator<Item = u64> {
        (0..8)
            .filter(move |&k| self.dirty & (1 << k) != 0)
            .map(move |k| self.base_atom + k)
    }

    /// `true` when `atom` left dirty in this eviction.
    pub fn contains(self, atom: u64) -> bool {
        atom.checked_sub(self.base_atom)
            .is_some_and(|k| k < 8 && self.dirty & (1 << k) != 0)
    }
}

/// Aggregate counters for one cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Read lookups that hit a valid sector.
    pub read_hits: u64,
    /// Read lookups that missed (sector or line).
    pub read_misses: u64,
    /// Write lookups that found the sector valid or the line resident.
    pub write_hits: u64,
    /// Write lookups that found no resident line.
    pub write_misses: u64,
    /// Lines evicted.
    pub evictions: u64,
    /// Evictions that carried at least one dirty sector.
    pub dirty_evictions: u64,
}

#[derive(Debug, Clone, Copy)]
struct Line {
    /// Line-granularity tag (`atom >> line_shift`); `u64::MAX` = invalid.
    tag: u64,
    valid: u8,
    dirty: u8,
    last_use: u64,
}

const INVALID: u64 = u64::MAX;

impl Line {
    fn empty() -> Self {
        Line {
            tag: INVALID,
            valid: 0,
            dirty: 0,
            last_use: 0,
        }
    }
}

/// The cache model. See the module docs for the addressing convention.
#[derive(Clone)]
pub struct SectorCache {
    sets: u64,
    ways: u32,
    /// log2 of `atoms_per_line`: tags and sectors come from shifts and
    /// masks, not from dividing by a runtime value.
    line_shift: u32,
    /// XOR-fold higher tag bits into the set index (GPU L2s hash their set
    /// selection; essential when the address stream is strided, e.g. the
    /// row-tail ECC atoms of a co-located inline layout).
    hashed: bool,
    lines: Vec<Line>,
    stamp: u64,
    stats: CacheStats,
}

impl SectorCache {
    /// Creates a cache with plain modulo set indexing.
    ///
    /// # Panics
    ///
    /// Panics unless `sets` is a positive power of two, `ways` is positive,
    /// and `atoms_per_line` is 1, 2 or 4.
    pub fn new(sets: u64, ways: u32, atoms_per_line: u64) -> Self {
        Self::build(sets, ways, atoms_per_line, false)
    }

    /// Creates a cache with a hashed (XOR-folded) set index.
    ///
    /// # Panics
    ///
    /// Same conditions as [`new`](Self::new).
    pub fn new_hashed(sets: u64, ways: u32, atoms_per_line: u64) -> Self {
        Self::build(sets, ways, atoms_per_line, true)
    }

    fn build(sets: u64, ways: u32, atoms_per_line: u64, hashed: bool) -> Self {
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "sets must be a power of two"
        );
        assert!(ways > 0, "ways must be positive");
        assert!(
            matches!(atoms_per_line, 1 | 2 | 4),
            "atoms_per_line must be 1, 2 or 4"
        );
        SectorCache {
            sets,
            ways,
            line_shift: atoms_per_line.trailing_zeros(),
            hashed,
            lines: vec![Line::empty(); (sets * ways as u64) as usize],
            stamp: 0,
            stats: CacheStats::default(),
        }
    }

    /// Builds a cache from a capacity in bytes (32 B per atom), modulo
    /// indexing.
    ///
    /// # Panics
    ///
    /// Panics if the implied set count is not a positive power of two.
    pub fn with_capacity(capacity_bytes: u64, ways: u32, atoms_per_line: u64) -> Self {
        let line_bytes = atoms_per_line * crate::types::ATOM_BYTES;
        let sets = capacity_bytes / (line_bytes * ways as u64);
        Self::new(sets, ways, atoms_per_line)
    }

    /// Builds a hashed-index cache from a capacity in bytes.
    ///
    /// # Panics
    ///
    /// Panics if the implied set count is not a positive power of two.
    pub fn with_capacity_hashed(capacity_bytes: u64, ways: u32, atoms_per_line: u64) -> Self {
        let line_bytes = atoms_per_line * crate::types::ATOM_BYTES;
        let sets = capacity_bytes / (line_bytes * ways as u64);
        Self::new_hashed(sets, ways, atoms_per_line)
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.sets * self.ways as u64 * self.atoms_per_line() * crate::types::ATOM_BYTES
    }

    /// Atoms per line: 1, 2 or 4.
    fn atoms_per_line(&self) -> u64 {
        1 << self.line_shift
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn tag_of(&self, atom: u64) -> u64 {
        atom >> self.line_shift
    }

    fn sector_of(&self, atom: u64) -> u8 {
        1 << (atom & (self.atoms_per_line() - 1))
    }

    fn set_range(&self, tag: u64) -> std::ops::Range<usize> {
        let set = if self.hashed {
            let bits = self.sets.trailing_zeros().max(1);
            let shr = |t: u64, s: u32| if s < 64 { t >> s } else { 0 };
            let folded = tag ^ shr(tag, bits) ^ shr(tag, 2 * bits) ^ shr(tag, 3 * bits);
            (folded & (self.sets - 1)) as usize
        } else {
            (tag & (self.sets - 1)) as usize
        };
        let start = set * self.ways as usize;
        start..start + self.ways as usize
    }

    fn find(&self, tag: u64) -> Option<usize> {
        self.set_range(tag).find(|&i| self.lines[i].tag == tag)
    }

    fn touch(&mut self, idx: usize) {
        self.stamp += 1;
        self.lines[idx].last_use = self.stamp;
    }

    /// Non-destructive residency probe: is the atom valid right now?
    /// Does not update LRU or statistics.
    pub fn probe(&self, atom: u64) -> bool {
        let tag = self.tag_of(atom);
        self.find(tag)
            .is_some_and(|i| self.lines[i].valid & self.sector_of(atom) != 0)
    }

    /// Read lookup: updates LRU and hit/miss statistics.
    pub fn lookup_read(&mut self, atom: u64) -> LookupResult {
        let tag = self.tag_of(atom);
        match self.find(tag) {
            Some(i) if self.lines[i].valid & self.sector_of(atom) != 0 => {
                self.touch(i);
                self.stats.read_hits += 1;
                LookupResult::Hit
            }
            Some(i) => {
                self.touch(i);
                self.stats.read_misses += 1;
                LookupResult::SectorMiss
            }
            None => {
                self.stats.read_misses += 1;
                LookupResult::LineMiss
            }
        }
    }

    /// Write lookup. On a resident line the sector is made valid and dirty
    /// (a full-sector overwrite; partial writes must be preceded by a fill,
    /// which the caller decides via [`LookupResult`]).
    ///
    /// Returns `Hit` when the line was resident (sector state updated),
    /// `LineMiss` otherwise (nothing changed; caller allocates via
    /// [`fill`](Self::fill)).
    pub fn lookup_write(&mut self, atom: u64) -> LookupResult {
        let tag = self.tag_of(atom);
        match self.find(tag) {
            Some(i) => {
                let s = self.sector_of(atom);
                self.lines[i].valid |= s;
                self.lines[i].dirty |= s;
                self.touch(i);
                self.stats.write_hits += 1;
                LookupResult::Hit
            }
            None => {
                self.stats.write_misses += 1;
                LookupResult::LineMiss
            }
        }
    }

    /// Installs the atom (valid, optionally dirty), allocating its line if
    /// needed. Returns the eviction performed to make room, if any.
    // Invariant: every set has ways > 0, so a victim always exists.
    #[allow(clippy::expect_used)]
    pub fn fill(&mut self, atom: u64, dirty: bool) -> Option<Eviction> {
        let tag = self.tag_of(atom);
        let s = self.sector_of(atom);
        if let Some(i) = self.find(tag) {
            self.lines[i].valid |= s;
            if dirty {
                self.lines[i].dirty |= s;
            }
            self.touch(i);
            return None;
        }
        // Victim: invalid way if any, else LRU.
        let range = self.set_range(tag);
        let victim = range
            .clone()
            .find(|&i| self.lines[i].tag == INVALID)
            .unwrap_or_else(|| {
                range
                    .min_by_key(|&i| self.lines[i].last_use)
                    // lint: allow(panic-freedom) reason=set_range is never empty: ways >= 1 is enforced by GpuConfig::validate before the first cycle
                    .expect("ways > 0")
            });
        let evicted = if self.lines[victim].tag != INVALID {
            self.stats.evictions += 1;
            let line = self.lines[victim];
            let dirty = line.valid & line.dirty;
            if dirty != 0 {
                self.stats.dirty_evictions += 1;
            }
            Some(Eviction {
                base_atom: line.tag << self.line_shift,
                dirty,
            })
        } else {
            None
        };
        self.lines[victim] = Line {
            tag,
            valid: s,
            dirty: if dirty { s } else { 0 },
            last_use: 0,
        };
        self.touch(victim);
        evicted
    }

    /// Marks a resident atom clean (after its write-back completed).
    /// No-op when not resident.
    pub fn clean(&mut self, atom: u64) {
        let tag = self.tag_of(atom);
        if let Some(i) = self.find(tag) {
            self.lines[i].dirty &= !self.sector_of(atom);
        }
    }

    /// Iterates over all currently valid atoms (for drain/flush logic),
    /// yielding `(atom, dirty)`.
    pub fn iter_valid(&self) -> impl Iterator<Item = (u64, bool)> + '_ {
        self.lines.iter().flat_map(move |line| {
            (0..self.atoms_per_line()).filter_map(move |k| {
                if line.tag != INVALID && line.valid & (1 << k) != 0 {
                    Some((
                        (line.tag << self.line_shift) + k,
                        line.dirty & (1 << k) != 0,
                    ))
                } else {
                    None
                }
            })
        })
    }

    /// Number of currently valid atoms.
    pub fn valid_atoms(&self) -> usize {
        self.iter_valid().count()
    }
}

impl fmt::Debug for SectorCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SectorCache")
            .field("sets", &self.sets)
            .field("ways", &self.ways)
            .field("atoms_per_line", &self.atoms_per_line())
            .field("valid_atoms", &self.valid_atoms())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = SectorCache::new(4, 2, 4);
        assert_eq!(c.lookup_read(5), LookupResult::LineMiss);
        assert!(c.fill(5, false).is_none());
        assert_eq!(c.lookup_read(5), LookupResult::Hit);
        assert!(c.probe(5));
        // Sibling sector of the same line: line resident, sector missing.
        assert_eq!(c.lookup_read(6), LookupResult::SectorMiss);
        assert!(!c.probe(6));
    }

    #[test]
    fn lru_eviction_order() {
        // 1 set, 2 ways, 1 atom/line: third distinct fill evicts the LRU.
        let mut c = SectorCache::new(1, 2, 1);
        c.fill(10, false);
        c.fill(20, false);
        c.lookup_read(10); // 10 is now MRU
        let ev = c.fill(30, false).expect("eviction");
        assert_eq!(ev.base_atom, 20);
        assert!(c.probe(10));
        assert!(!c.probe(20));
        assert!(c.probe(30));
    }

    #[test]
    fn dirty_eviction_reports_dirty_atoms() {
        let mut c = SectorCache::new(1, 1, 4);
        c.fill(0, false);
        c.fill(1, true);
        c.fill(2, false);
        // New line in the single way evicts line 0 with atom 1 dirty.
        let ev = c.fill(100, false).expect("eviction");
        assert_eq!(ev.base_atom, 0);
        assert_eq!(ev.dirty_atoms().collect::<Vec<_>>(), vec![1]);
        assert!(ev.contains(1));
        assert!(!ev.contains(0) && !ev.contains(2) && !ev.contains(101));
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = SectorCache::new(2, 2, 4);
        c.fill(8, false);
        assert_eq!(c.lookup_write(9), LookupResult::Hit); // same line
        let dirty: Vec<u64> = c.iter_valid().filter(|&(_, d)| d).map(|(a, _)| a).collect();
        assert_eq!(dirty, vec![9]);
        // Clean it back.
        c.clean(9);
        assert!(c.iter_valid().all(|(_, d)| !d));
    }

    #[test]
    fn write_miss_does_not_allocate() {
        let mut c = SectorCache::new(2, 2, 4);
        assert_eq!(c.lookup_write(3), LookupResult::LineMiss);
        assert!(!c.probe(3));
        assert_eq!(c.stats().write_misses, 1);
    }

    #[test]
    fn capacity_and_with_capacity() {
        let c = SectorCache::with_capacity(16 << 10, 8, 4);
        assert_eq!(c.capacity_bytes(), 16 << 10);
        let ecc = SectorCache::with_capacity(8 << 10, 8, 1);
        assert_eq!(ecc.capacity_bytes(), 8 << 10);
    }

    #[test]
    fn stats_accumulate() {
        let mut c = SectorCache::new(2, 1, 4);
        c.lookup_read(0);
        c.fill(0, false);
        c.lookup_read(0);
        c.lookup_write(0);
        let s = c.stats();
        assert_eq!(s.read_misses, 1);
        assert_eq!(s.read_hits, 1);
        assert_eq!(s.write_hits, 1);
    }

    #[test]
    fn fill_existing_line_adds_sector_without_eviction() {
        let mut c = SectorCache::new(1, 1, 4);
        c.fill(0, false);
        assert!(c.fill(3, false).is_none()); // same line
        assert_eq!(c.valid_atoms(), 2);
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = SectorCache::new(4, 1, 1);
        for atom in 0..4 {
            c.fill(atom, false);
        }
        assert_eq!(c.valid_atoms(), 4);
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2_sets() {
        let _ = SectorCache::new(3, 1, 4);
    }

    #[test]
    fn ecc_granularity_cache() {
        // atoms_per_line = 1: every atom has its own tag (ECC cache mode).
        let mut c = SectorCache::new(4, 2, 1);
        c.fill(0, false);
        assert_eq!(c.lookup_read(4), LookupResult::LineMiss); // same set, new tag
        c.fill(4, false);
        assert!(c.probe(0) && c.probe(4));
    }
}
