//! Timing-only set-associative cache with true LRU replacement.

/// Geometry of a cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheParams {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Associativity (ways per set).
    pub assoc: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
}

impl CacheParams {
    /// The paper's cache: 64KB, 4-way; we use 32-byte lines (the ST200's
    /// line size, which the paper inherits from the Lx platform).
    pub const fn paper() -> Self {
        CacheParams {
            size_bytes: 64 * 1024,
            assoc: 4,
            line_bytes: 32,
        }
    }

    /// Number of sets.
    pub const fn n_sets(&self) -> u32 {
        self.size_bytes / (self.assoc * self.line_bytes)
    }
}

/// Hit/miss counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed (and allocated).
    pub misses: u64,
    /// Lines evicted to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in [0, 1]; 0 for no accesses.
    pub fn miss_ratio(&self) -> f64 {
        let a = self.accesses();
        if a == 0 {
            0.0
        } else {
            self.misses as f64 / a as f64
        }
    }
}

/// Tag value marking an invalid line. Real tags are `asid << 32 | line`
/// with a 16-bit ASID and a ≤27-bit line index, so they never collide with
/// the sentinel; folding validity into the tag keeps the hit loop to a
/// single compare per way.
const INVALID_TAG: u64 = u64::MAX;

#[derive(Clone, Copy, Debug)]
struct Line {
    /// Tag combines the address tag with the ASID so multiprogrammed threads
    /// contend for capacity without aliasing (u64: asid in the high bits);
    /// [`INVALID_TAG`] marks an empty way.
    tag: u64,
    /// Monotonic timestamp of last touch; smallest = LRU victim.
    last_use: u64,
}

/// A set-associative, allocate-on-miss, true-LRU cache.
///
/// The cache carries no data — it only answers "would this access hit?" —
/// because the simulator keeps architectural bytes in [`crate::Memory`].
/// Stores allocate like loads (write-allocate); write-back traffic is not
/// modelled separately, matching the paper's single "miss penalty" cost.
/// Every access walks its set's ways once.
#[derive(Clone, Debug)]
pub struct Cache {
    params: CacheParams,
    lines: Vec<Line>,
    set_shift: u32,
    set_mask: u32,
    tick: u64,
    stats: CacheStats,
    /// Tag evicted by the most recent allocating miss ([`INVALID_TAG`]
    /// before the first eviction). Diagnostic: lets the model-based tests
    /// pin the *eviction order*, not just the counts.
    last_victim: u64,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    pub fn new(params: CacheParams) -> Self {
        let n_sets = params.n_sets();
        assert!(n_sets.is_power_of_two(), "set count must be a power of two");
        assert!(params.line_bytes.is_power_of_two());
        Cache {
            params,
            lines: vec![
                Line {
                    tag: INVALID_TAG,
                    last_use: 0
                };
                (n_sets * params.assoc) as usize
            ],
            set_shift: params.line_bytes.trailing_zeros(),
            set_mask: n_sets - 1,
            tick: 0,
            stats: CacheStats::default(),
            last_victim: INVALID_TAG,
        }
    }

    /// Geometry.
    pub fn params(&self) -> CacheParams {
        self.params
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets counters (not contents).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Tag evicted by the most recent allocating miss, or `None` if no
    /// eviction has happened since construction. Tags combine the ASID
    /// (high 32 bits) with the line index, as stored in the ways.
    pub fn last_victim(&self) -> Option<u64> {
        match self.last_victim {
            INVALID_TAG => None,
            t => Some(t),
        }
    }

    /// Recency order of a set's resident tags, most recently used first
    /// (diagnostic: the model-based tests compare this against a reference
    /// LRU to pin future eviction order).
    pub fn set_recency(&self, set: u32) -> Vec<u64> {
        let ways = self.params.assoc as usize;
        let base = (set & self.set_mask) as usize * ways;
        let mut resident: Vec<&Line> = self.lines[base..base + ways]
            .iter()
            .filter(|l| l.tag != INVALID_TAG)
            .collect();
        resident.sort_by_key(|l| std::cmp::Reverse(l.last_use));
        resident.iter().map(|l| l.tag).collect()
    }

    /// Accesses `addr` in address space `asid`; allocates on miss.
    /// Returns `true` on hit.
    #[inline]
    pub fn access(&mut self, asid: u16, addr: u32) -> bool {
        self.access_line(asid, addr >> self.set_shift)
    }

    /// Accesses cache line `line_idx` (`addr >> log2(line_bytes)`) in
    /// address space `asid`. Callers that walk several consecutive lines
    /// of one fetch (see `MemSystem::fetch_access`) step the line index
    /// directly instead of recomputing set and tag from a byte address
    /// each time.
    #[inline]
    pub fn access_line(&mut self, asid: u16, line_idx: u32) -> bool {
        // ASID folded into the tag once; validity is folded in too
        // (INVALID_TAG), so the hit loop is one compare per way.
        let tag = ((asid as u64) << 32) | line_idx as u64;
        self.tick += 1;
        let set = (line_idx & self.set_mask) as usize;
        let ways = self.params.assoc as usize;
        let base = set * ways;
        let set_lines = &mut self.lines[base..base + ways];

        // Hit path: touch and return.
        for line in set_lines.iter_mut() {
            if line.tag == tag {
                line.last_use = self.tick;
                self.stats.hits += 1;
                return true;
            }
        }

        // Miss: fill the LRU (or first invalid) way.
        self.stats.misses += 1;
        let mut victim = 0;
        let mut oldest = u64::MAX;
        #[allow(unused_assignments)]
        for (i, line) in set_lines.iter().enumerate() {
            if line.tag == INVALID_TAG {
                victim = i;
                oldest = 0;
                break;
            }
            if line.last_use < oldest {
                oldest = line.last_use;
                victim = i;
            }
        }
        if set_lines[victim].tag != INVALID_TAG {
            self.stats.evictions += 1;
            self.last_victim = set_lines[victim].tag;
        }
        set_lines[victim] = Line {
            tag,
            last_use: self.tick,
        };
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 16B lines = 64B.
        Cache::new(CacheParams {
            size_bytes: 64,
            assoc: 2,
            line_bytes: 16,
        })
    }

    #[test]
    fn paper_geometry() {
        let p = CacheParams::paper();
        assert_eq!(p.n_sets(), 512);
        let c = Cache::new(p);
        assert_eq!(c.lines.len(), 2048);
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert!(!c.access(0, 0x00));
        assert!(c.access(0, 0x00));
        assert!(c.access(0, 0x0f)); // same line
        assert!(!c.access(0, 0x10)); // next line, other set
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Set 0 holds lines with addr bits [4] == 0: 0x00, 0x20, 0x40...
        c.access(0, 0x00); // miss, fill way A
        c.access(0, 0x20); // miss, fill way B
        c.access(0, 0x00); // hit, A is now MRU
        c.access(0, 0x40); // miss, evicts B (0x20)
        assert!(c.access(0, 0x00), "0x00 must survive");
        assert!(!c.access(0, 0x20), "0x20 must have been evicted");
        assert_eq!(c.stats().evictions, 2); // 0x20 evicted, then 0x40 by 0x20
    }

    #[test]
    fn counters_balance() {
        let mut c = tiny();
        for i in 0..100 {
            c.access(0, (i * 8) % 256);
        }
        let s = c.stats();
        assert_eq!(s.accesses(), 100);
        assert_eq!(s.hits + s.misses, 100);
        assert!(s.miss_ratio() > 0.0 && s.miss_ratio() <= 1.0);
    }

    #[test]
    fn filter_never_changes_eviction_order() {
        // Fill set 0's two ways, hit the MRU one repeatedly (the repeat-line
        // pattern of an instruction stream), then allocate a third line:
        // the LRU victim must be the *other* way.
        let mut c = tiny();
        c.access(0, 0x00); // way A
        c.access(0, 0x20); // way B (now MRU)
        for _ in 0..5 {
            assert!(c.access(0, 0x20)); // repeat hits keep B most recent
        }
        c.access(0, 0x40); // evicts A (0x00), the true LRU
        assert_eq!(c.last_victim(), Some(0x00 >> 4));
        assert!(c.access(0, 0x20), "B must survive");
        assert!(!c.access(0, 0x00), "A must have been evicted");
    }

    #[test]
    fn set_recency_orders_mru_first() {
        let mut c = tiny();
        c.access(0, 0x00);
        c.access(0, 0x20);
        // Re-touching 0x00 bumps its recency back to MRU.
        c.access(0, 0x00);
        assert_eq!(c.set_recency(0), vec![0x00 >> 4, 0x20 >> 4]);
        let mut d = tiny();
        d.access(0, 0x00);
        d.access(0, 0x00); // a repeat hit must not reorder the set
        d.access(0, 0x20);
        assert_eq!(d.set_recency(0), vec![0x20 >> 4, 0x00 >> 4]);
    }
}
