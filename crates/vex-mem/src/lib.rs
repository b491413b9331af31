//! # vex-mem — memory hierarchy model
//!
//! Two independent pieces, matching how the paper's simulator treats memory:
//!
//! * [`Cache`]: a *timing-only* set-associative cache with true LRU
//!   replacement. The paper's configuration (§VI-A) is a single-level 64KB,
//!   4-way set-associative cache for both instructions and data with a
//!   20-cycle miss penalty and no L2; [`CacheParams::paper`] encodes it.
//!   Multiprogrammed threads share the cache but live in disjoint address
//!   spaces, so lookups are tagged with an address-space id (ASID) — threads
//!   contend for capacity without aliasing each other's data.
//! * [`Memory`]: a flat, per-thread *functional* backing store with
//!   byte/half/word access. Timing is entirely the cache's business; the
//!   backing store always holds the architecturally current bytes.
//!
//! A [`MemSystem`] bundles the two caches, the miss penalty, and a
//! perfect-memory switch (the paper's *IPCp* runs disable misses).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod memory;

pub use cache::{Cache, CacheParams, CacheStats};
pub use memory::Memory;

#[cfg(test)]
mod memconfig_tests {
    use super::*;

    #[test]
    fn custom_geometry_reaches_the_caches() {
        let cfg = MemConfig {
            icache: CacheParams {
                size_bytes: 8 * 1024,
                assoc: 2,
                line_bytes: 64,
            },
            dcache: CacheParams {
                size_bytes: 256 * 1024,
                assoc: 8,
                line_bytes: 32,
            },
            miss_penalty: 35,
        };
        let mut m = MemSystem::new(cfg, false);
        assert_eq!(m.icache.params(), cfg.icache);
        assert_eq!(m.dcache.params(), cfg.dcache);
        assert_eq!(m.data_access(0, 0x100), 35);
        assert_eq!(m.data_access(0, 0x100), 0);
    }

    #[test]
    fn paper_constructor_matches_config() {
        let m = MemSystem::paper();
        assert_eq!(m.icache.params(), MemConfig::paper().icache);
        assert_eq!(m.miss_penalty, PAPER_MISS_PENALTY);
        assert!(!m.perfect);
    }
}

/// The paper's cache-miss penalty in cycles (400MHz core, 50ns DRAM critical
/// word: §VI-A footnote).
pub const PAPER_MISS_PENALTY: u32 = 20;

/// Full memory-hierarchy geometry: both cache shapes plus the miss penalty.
///
/// This is the *configuration* a [`MemSystem`] is built from; run specs and
/// `SimConfig` carry a `MemConfig` so non-paper cache geometries are
/// reachable without touching the simulator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemConfig {
    /// Instruction-cache geometry.
    pub icache: CacheParams,
    /// Data-cache geometry.
    pub dcache: CacheParams,
    /// Extra cycles a thread stalls on a miss (either cache).
    pub miss_penalty: u32,
}

impl MemConfig {
    /// The paper's memory system: 64KB 4-way I$ and D$, 20-cycle miss.
    pub const fn paper() -> Self {
        MemConfig {
            icache: CacheParams::paper(),
            dcache: CacheParams::paper(),
            miss_penalty: PAPER_MISS_PENALTY,
        }
    }
}

impl Default for MemConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Instruction + data cache pair with shared timing policy.
#[derive(Clone, Debug)]
pub struct MemSystem {
    /// Instruction cache (shared by all hardware threads, ASID-tagged).
    pub icache: Cache,
    /// Data cache (shared by all hardware threads, ASID-tagged).
    pub dcache: Cache,
    /// Extra cycles a thread stalls on a miss.
    pub miss_penalty: u32,
    /// When true, every access hits (the paper's perfect-memory *IPCp* mode).
    pub perfect: bool,
    /// `log2(icache line)` cached off the geometry: `fetch_access` runs
    /// ~once per instruction and should not re-derive it per call.
    fetch_shift: u32,
}

impl MemSystem {
    /// Builds a memory system with the given geometry. `perfect` short-
    /// circuits every access to a hit (the *IPCp* runs), leaving the cache
    /// arrays untouched.
    pub fn new(cfg: MemConfig, perfect: bool) -> Self {
        MemSystem {
            icache: Cache::new(cfg.icache),
            dcache: Cache::new(cfg.dcache),
            miss_penalty: cfg.miss_penalty,
            perfect,
            fetch_shift: cfg.icache.line_bytes.trailing_zeros(),
        }
    }

    /// The paper's memory system: 64KB 4-way I$ and D$, 20-cycle miss.
    pub fn paper() -> Self {
        Self::new(MemConfig::paper(), false)
    }

    /// Perfect memory: all accesses hit in the assumed latency.
    pub fn perfect() -> Self {
        Self::new(MemConfig::paper(), true)
    }

    /// Data access: returns the stall penalty in cycles (0 on hit).
    #[inline]
    pub fn data_access(&mut self, asid: u16, addr: u32) -> u32 {
        if self.perfect {
            return 0;
        }
        if self.dcache.access(asid, addr) {
            0
        } else {
            self.miss_penalty
        }
    }

    /// Instruction fetch covering `[addr, addr + len)`: returns the stall
    /// penalty (0 if every spanned line hits). Misses on multiple lines of
    /// one fetch overlap, as the critical-word transfers pipeline. Spanned
    /// lines are probed by stepping the line index directly
    /// ([`Cache::access_line`]), not by rebuilding set/tag per byte address.
    #[inline]
    pub fn fetch_access(&mut self, asid: u16, addr: u32, len: u32) -> u32 {
        if self.perfect {
            return 0;
        }
        let first = addr >> self.fetch_shift;
        let last = (addr + len.max(1) - 1) >> self.fetch_shift;
        let mut penalty = 0;
        for l in first..=last {
            if !self.icache.access_line(asid, l) {
                penalty = self.miss_penalty;
            }
        }
        penalty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_memory_never_stalls() {
        let mut m = MemSystem::perfect();
        for i in 0..10_000u32 {
            assert_eq!(m.data_access(0, i * 4096), 0);
        }
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut m = MemSystem::paper();
        assert_eq!(m.data_access(0, 0x100), PAPER_MISS_PENALTY);
        assert_eq!(m.data_access(0, 0x100), 0);
        // Same line, different word.
        assert_eq!(m.data_access(0, 0x104), 0);
    }

    #[test]
    fn asids_do_not_alias() {
        let mut m = MemSystem::paper();
        assert_eq!(m.data_access(0, 0x100), PAPER_MISS_PENALTY);
        // Same address, different address space: its own cold miss.
        assert_eq!(m.data_access(1, 0x100), PAPER_MISS_PENALTY);
        assert_eq!(m.data_access(0, 0x100), 0);
        assert_eq!(m.data_access(1, 0x100), 0);
    }

    #[test]
    fn fetch_spanning_two_lines_misses_once_in_penalty() {
        let mut m = MemSystem::paper();
        let line = m.icache.params().line_bytes;
        // A fetch straddling a line boundary touches two lines but the
        // penalty does not accumulate (overlapping refills).
        assert_eq!(m.fetch_access(0, line - 4, 8), PAPER_MISS_PENALTY);
        assert_eq!(m.fetch_access(0, line - 4, 8), 0);
        assert_eq!(m.icache.stats().misses, 2);
    }
}
