//! Model-based property tests for the cache: the set-associative LRU
//! implementation must agree, access for access, with a naive reference
//! model (per-set vectors with explicit recency ordering).

use proptest::prelude::*;
use vex_mem::{Cache, CacheParams};

/// Naive reference: per set, a most-recently-used-first list of tags.
/// Tracks hit/miss/eviction counts and the exact eviction sequence, so the
/// implementation can be pinned to the model in aggregate *and* in
/// replacement order.
struct RefLru {
    params: CacheParams,
    sets: Vec<Vec<u64>>,
    hits: u64,
    misses: u64,
    evicted: Vec<u64>,
}

impl RefLru {
    fn new(params: CacheParams) -> Self {
        RefLru {
            sets: vec![Vec::new(); params.n_sets() as usize],
            params,
            hits: 0,
            misses: 0,
            evicted: Vec::new(),
        }
    }

    fn access(&mut self, asid: u16, addr: u32) -> bool {
        self.access_line(asid, addr / self.params.line_bytes)
    }

    fn access_line(&mut self, asid: u16, line: u32) -> bool {
        let set = (line % self.params.n_sets()) as usize;
        let tag = ((asid as u64) << 32) | line as u64;
        let ways = self.params.assoc as usize;
        let s = &mut self.sets[set];
        if let Some(pos) = s.iter().position(|&t| t == tag) {
            let t = s.remove(pos);
            s.insert(0, t);
            self.hits += 1;
            true
        } else {
            s.insert(0, tag);
            if s.len() > ways {
                self.evicted.push(s.pop().unwrap());
            }
            self.misses += 1;
            false
        }
    }
}

fn tiny_params() -> CacheParams {
    CacheParams {
        size_bytes: 1024,
        assoc: 4,
        line_bytes: 32,
    }
}

proptest! {
    /// Every access sequence produces identical hit/miss outcomes in the
    /// real cache and the reference model.
    #[test]
    fn lru_matches_reference_model(
        accesses in prop::collection::vec((0u16..3, 0u32..8192), 1..600)
    ) {
        let params = tiny_params();
        let mut cache = Cache::new(params);
        let mut model = RefLru::new(params);
        for (i, (asid, addr)) in accesses.iter().enumerate() {
            let real = cache.access(*asid, *addr);
            let want = model.access(*asid, *addr);
            prop_assert_eq!(real, want, "divergence at access {} ({:x})", i, addr);
        }
    }

    /// Counter bookkeeping: hits + misses == accesses, evictions < misses+1.
    #[test]
    fn counters_are_consistent(
        accesses in prop::collection::vec(0u32..65536, 1..400)
    ) {
        let mut cache = Cache::new(tiny_params());
        for a in &accesses {
            cache.access(0, *a);
        }
        let s = cache.stats();
        prop_assert_eq!(s.accesses(), accesses.len() as u64);
        prop_assert!(s.evictions <= s.misses);
        prop_assert!(s.miss_ratio() >= 0.0 && s.miss_ratio() <= 1.0);
    }

    /// A working set that fits within one set's ways never misses after
    /// the cold pass, regardless of access order.
    #[test]
    fn resident_set_always_hits_after_warmup(
        order in prop::collection::vec(0usize..4, 16..200)
    ) {
        let params = tiny_params(); // 8 sets, 4 ways
        let mut cache = Cache::new(params);
        // Four lines, all mapping to set 0 (stride = sets * line).
        let stride = params.n_sets() * params.line_bytes;
        let lines: Vec<u32> = (0..4).map(|i| i * stride).collect();
        for &l in &lines {
            cache.access(0, l);
        }
        cache.reset_stats();
        for &i in &order {
            prop_assert!(cache.access(0, lines[i]), "line {i} missed while resident");
        }
    }
}

proptest! {
    /// `access` and `access_line` interleaved agree with the reference
    /// model per access, in the aggregate `CacheStats`, in the *eviction
    /// order* (every evicted tag, in sequence), and in each set's final
    /// recency order, which decides every future eviction.
    #[test]
    fn eviction_order_and_recency_match_the_reference_lru(
        ops in prop::collection::vec(
            (any::<bool>(), 0u16..3, 0u32..2048), 1..800)
    ) {
        let params = tiny_params(); // 8 sets, 4 ways, 32B lines
        let mut cache = Cache::new(params);
        let mut model = RefLru::new(params);
        let mut real_evictions: Vec<u64> = Vec::new();
        for (i, (by_line, asid, x)) in ops.iter().enumerate() {
            let evictions_before = cache.stats().evictions;
            let (real, want) = if *by_line {
                // Direct line-index entry point (the fetch path's form).
                (cache.access_line(*asid, *x), model.access_line(*asid, *x))
            } else {
                (cache.access(*asid, *x), model.access(*asid, *x))
            };
            prop_assert_eq!(real, want, "outcome diverged at access {}", i);
            if cache.stats().evictions > evictions_before {
                real_evictions.push(cache.last_victim().expect("eviction recorded"));
            }
        }
        let s = cache.stats();
        prop_assert_eq!(s.hits, model.hits, "hit counts diverged");
        prop_assert_eq!(s.misses, model.misses, "miss counts diverged");
        prop_assert_eq!(s.evictions, model.evicted.len() as u64);
        prop_assert_eq!(&real_evictions, &model.evicted, "eviction order diverged");
        for set in 0..params.n_sets() {
            prop_assert_eq!(
                cache.set_recency(set),
                model.sets[set as usize].clone(),
                "recency order diverged in set {}", set
            );
        }
    }

    /// The fetch path (line-index stepping over spanned lines) produces
    /// exactly the same `CacheStats` as probing the reference model line by
    /// line: the hit/miss/eviction *counts* pin the fast path, not just the
    /// per-access outcomes.
    #[test]
    fn fetch_access_stats_match_reference_model(
        fetches in prop::collection::vec((0u16..3, 0u32..16384, 1u32..96), 1..300)
    ) {
        let mut sys = vex_mem::MemSystem::paper();
        let params = sys.icache.params();
        let mut model = RefLru::new(params);
        let (mut hits, mut misses) = (0u64, 0u64);
        for (asid, addr, len) in fetches {
            let pen = sys.fetch_access(asid, addr, len);
            let mut missed = false;
            let line = params.line_bytes;
            for l in (addr / line)..=((addr + len.max(1) - 1) / line) {
                if model.access(asid, l * line) {
                    hits += 1;
                } else {
                    misses += 1;
                    missed = true;
                }
            }
            prop_assert_eq!(pen > 0, missed, "penalty disagrees with model");
        }
        let s = sys.icache.stats();
        prop_assert_eq!(s.hits, hits, "hit count diverged");
        prop_assert_eq!(s.misses, misses, "miss count diverged");
    }
}

/// Functional memory: a write-then-read sequence behaves like a HashMap of
/// bytes (model-based).
mod memory_model {
    use proptest::prelude::*;
    use std::collections::HashMap;
    use vex_mem::Memory;

    proptest! {
        #[test]
        fn memory_matches_byte_map(
            ops in prop::collection::vec(
                (any::<bool>(), 0u32..1_000_000, any::<u32>(), 1u8..5), 1..300)
        ) {
            let mut mem = Memory::new();
            let mut model: HashMap<u32, u8> = HashMap::new();
            for (is_write, addr, value, size) in ops {
                let size = match size { 1 => 1u32, 2 => 2, _ => 4 };
                if is_write {
                    match size {
                        1 => mem.write_u8(addr, value as u8),
                        2 => mem.write_u16(addr, value as u16),
                        _ => mem.write_u32(addr, value),
                    }
                    for (i, b) in value.to_le_bytes().into_iter().take(size as usize).enumerate() {
                        model.insert(addr.wrapping_add(i as u32), b);
                    }
                } else {
                    let got = match size {
                        1 => mem.read_u8(addr) as u32,
                        2 => mem.read_u16(addr) as u32,
                        _ => mem.read_u32(addr),
                    };
                    let mut want = [0u8; 4];
                    for i in 0..size {
                        want[i as usize] =
                            *model.get(&addr.wrapping_add(i)).unwrap_or(&0);
                    }
                    let want = u32::from_le_bytes(want) & if size == 4 { u32::MAX } else { (1 << (8 * size)) - 1 };
                    prop_assert_eq!(got, want);
                }
            }
        }
    }
}
