//! Functional backing store: a flat, sparsely-allocated byte-addressable
//! memory private to one program run.

use std::cell::Cell;

/// Log2 of the allocation granule (64KB pages).
const PAGE_SHIFT: u32 = 16;
/// Allocation granule in bytes.
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// TLB sentinel: no page latched. Real page indices are `addr >> 16` with
/// 32-bit addresses, so they never reach the sentinel.
const TLB_NONE: u32 = u32::MAX;

/// Page-lookup counters: how often the one-entry software TLB short-cut
/// the page-directory walk. Hot-region locality shows up as a hit rate
/// near 1; `walks` counts full directory lookups (TLB misses).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PageLookupStats {
    /// Lookups absorbed by the one-entry TLB.
    pub tlb_hits: u64,
    /// Full page-directory walks (every lookup that was not a TLB hit).
    pub walks: u64,
}

/// Sparse little-endian memory. Pages materialise zero-filled on first
/// touch, so untouched reads return zero like a fresh process image.
///
/// Addresses are 32-bit; the page directory is a flat vector indexed by the
/// high address bits, so lookups are one shift and one bounds-checked index
/// (no hashing on the simulator's hot path). A one-entry software TLB
/// latches the most recently resolved page, so hot-region accesses (the
/// common case: a benchmark hammering one working-set page) skip the
/// directory walk entirely.
#[derive(Clone, Debug)]
pub struct Memory {
    pages: Vec<Option<Box<[u8]>>>,
    /// One-entry software TLB: index of the most recently resolved
    /// *materialised* page, or [`TLB_NONE`].
    ///
    /// Invariant (relied on by the `unsafe` fast paths): when not
    /// [`TLB_NONE`], `tlb_page < pages.len()` and `pages[tlb_page]` is
    /// `Some`. The invariant is monotone — the directory never shrinks and
    /// a materialised page is never freed ([`Memory::clear`] zeroes in
    /// place) — and cloning preserves it; `clear` still drops the latch so
    /// a respawned run re-walks on first touch.
    ///
    /// `Cell` because reads latch too and the read API takes `&self`.
    tlb_page: Cell<u32>,
    /// Lookups absorbed by the TLB.
    tlb_hits: Cell<u64>,
    /// Full directory walks.
    walks: Cell<u64>,
}

impl Default for Memory {
    fn default() -> Self {
        Self::new()
    }
}

impl Memory {
    /// An empty memory.
    pub fn new() -> Self {
        Memory {
            pages: Vec::new(),
            tlb_page: Cell::new(TLB_NONE),
            tlb_hits: Cell::new(0),
            walks: Cell::new(0),
        }
    }

    /// Bytes currently materialised (for footprint reporting).
    pub fn resident_bytes(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count() * PAGE_SIZE
    }

    /// Page-lookup counters so far (TLB hits versus directory walks).
    pub fn lookup_stats(&self) -> PageLookupStats {
        PageLookupStats {
            tlb_hits: self.tlb_hits.get(),
            walks: self.walks.get(),
        }
    }

    /// Clears all contents (returns to the all-zero image). Materialised
    /// pages are zeroed in place rather than freed: a respawning benchmark
    /// touches the same working set again immediately, so recycling the
    /// allocations keeps the run-restart path off the allocator. The TLB
    /// latch is dropped with the image; the lookup *counters* persist so a
    /// profile over a many-respawn run covers the whole run, like every
    /// other fast-path counter.
    pub fn clear(&mut self) {
        for page in self.pages.iter_mut().flatten() {
            page.fill(0);
        }
        self.tlb_page.set(TLB_NONE);
    }

    #[inline]
    fn page(&self, addr: u32) -> Option<&[u8]> {
        let idx = addr >> PAGE_SHIFT;
        if idx == self.tlb_page.get() {
            self.tlb_hits.set(self.tlb_hits.get() + 1);
            // SAFETY: the TLB invariant (see `tlb_page`) guarantees the
            // index is in bounds and the page is materialised.
            return Some(unsafe {
                self.pages
                    .get_unchecked(idx as usize)
                    .as_deref()
                    .unwrap_unchecked()
            });
        }
        self.walks.set(self.walks.get() + 1);
        let p = self.pages.get(idx as usize).and_then(|p| p.as_deref());
        if p.is_some() {
            self.tlb_page.set(idx);
        }
        p
    }

    #[inline]
    fn page_mut(&mut self, addr: u32) -> &mut [u8] {
        let idx = addr >> PAGE_SHIFT;
        if idx == self.tlb_page.get() {
            self.tlb_hits.set(self.tlb_hits.get() + 1);
            // SAFETY: the TLB invariant (see `tlb_page`) guarantees the
            // index is in bounds and the page is materialised.
            return unsafe {
                self.pages
                    .get_unchecked_mut(idx as usize)
                    .as_deref_mut()
                    .unwrap_unchecked()
            };
        }
        self.walks.set(self.walks.get() + 1);
        let idx_us = idx as usize;
        if idx_us >= self.pages.len() {
            self.pages.resize_with(idx_us + 1, || None);
        }
        let p = self.pages[idx_us].get_or_insert_with(|| vec![0u8; PAGE_SIZE].into_boxed_slice());
        self.tlb_page.set(idx);
        p
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&self, addr: u32) -> u8 {
        match self.page(addr) {
            Some(p) => p[(addr as usize) & (PAGE_SIZE - 1)],
            None => 0,
        }
    }

    /// Writes one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u32, v: u8) {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        self.page_mut(addr)[off] = v;
    }

    /// Reads a little-endian 16-bit value (any alignment; accesses within
    /// one page take a single-lookup fast path).
    #[inline]
    pub fn read_u16(&self, addr: u32) -> u16 {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + 2 <= PAGE_SIZE {
            return match self.page(addr) {
                Some(p) => u16::from_le_bytes([p[off], p[off + 1]]),
                None => 0,
            };
        }
        u16::from_le_bytes([self.read_u8(addr), self.read_u8(addr.wrapping_add(1))])
    }

    /// Writes a little-endian 16-bit value.
    #[inline]
    pub fn write_u16(&mut self, addr: u32, v: u16) {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        let b = v.to_le_bytes();
        if off + 2 <= PAGE_SIZE {
            let p = self.page_mut(addr);
            p[off] = b[0];
            p[off + 1] = b[1];
            return;
        }
        self.write_u8(addr, b[0]);
        self.write_u8(addr.wrapping_add(1), b[1]);
    }

    /// Reads a little-endian 32-bit value (any alignment; aligned accesses
    /// within one page take a fast path).
    #[inline]
    pub fn read_u32(&self, addr: u32) -> u32 {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + 4 <= PAGE_SIZE {
            if let Some(p) = self.page(addr) {
                // Single bounds check via the array conversion.
                let word: [u8; 4] = p[off..off + 4].try_into().unwrap();
                return u32::from_le_bytes(word);
            }
            return 0;
        }
        u32::from_le_bytes([
            self.read_u8(addr),
            self.read_u8(addr.wrapping_add(1)),
            self.read_u8(addr.wrapping_add(2)),
            self.read_u8(addr.wrapping_add(3)),
        ])
    }

    /// Writes a little-endian 32-bit value.
    #[inline]
    pub fn write_u32(&mut self, addr: u32, v: u32) {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + 4 <= PAGE_SIZE {
            let p = self.page_mut(addr);
            p[off..off + 4].copy_from_slice(&v.to_le_bytes());
            return;
        }
        for (i, b) in v.to_le_bytes().into_iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u32), b);
        }
    }

    /// Reads a little-endian 64-bit value (any alignment; accesses within
    /// one page take a single-lookup fast path, like the narrower widths).
    #[inline]
    pub fn read_u64(&self, addr: u32) -> u64 {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + 8 <= PAGE_SIZE {
            if let Some(p) = self.page(addr) {
                let word: [u8; 8] = p[off..off + 8].try_into().unwrap();
                return u64::from_le_bytes(word);
            }
            return 0;
        }
        (self.read_u32(addr) as u64) | ((self.read_u32(addr.wrapping_add(4)) as u64) << 32)
    }

    /// Writes a little-endian 64-bit value.
    #[inline]
    pub fn write_u64(&mut self, addr: u32, v: u64) {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + 8 <= PAGE_SIZE {
            let p = self.page_mut(addr);
            p[off..off + 8].copy_from_slice(&v.to_le_bytes());
            return;
        }
        self.write_u32(addr, v as u32);
        self.write_u32(addr.wrapping_add(4), (v >> 32) as u32);
    }

    /// Copies a byte slice into memory at `base`, one page-sized
    /// `copy_from_slice` at a time (the respawn path reloads whole data
    /// segments through here).
    pub fn write_bytes(&mut self, base: u32, bytes: &[u8]) {
        let mut addr = base;
        let mut rest = bytes;
        while !rest.is_empty() {
            let off = (addr as usize) & (PAGE_SIZE - 1);
            let n = rest.len().min(PAGE_SIZE - off);
            self.page_mut(addr)[off..off + n].copy_from_slice(&rest[..n]);
            rest = &rest[n..];
            addr = addr.wrapping_add(n as u32);
        }
    }

    /// Reads `len` bytes starting at `base`.
    pub fn read_bytes(&self, base: u32, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| self.read_u8(base.wrapping_add(i as u32)))
            .collect()
    }

    /// A 64-bit digest of the architectural image: FNV-1a over (page
    /// index, page bytes) of every resident page that is not all zero, in
    /// page order. It is order-dependent and byte-serial — about 100 µs per
    /// resident 64KB page — and is kept for the `mem digest` column of
    /// `vex run`. To compare two images, use [`Memory::first_difference`],
    /// which is exact and compares whole pages at once.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut mix = |b: u8| {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        };
        for (idx, page) in self.pages.iter().enumerate() {
            if let Some(p) = page {
                // Skip all-zero pages: they are indistinguishable from
                // untouched ones architecturally.
                if p.iter().all(|&b| b == 0) {
                    continue;
                }
                for b in (idx as u32).to_le_bytes() {
                    mix(b);
                }
                for &b in p.iter() {
                    mix(b);
                }
            }
        }
        h
    }

    /// The lowest address at which `self` and `other` hold different
    /// bytes, or `None` when the two images are architecturally equal. An
    /// absent page reads as zero, so it equals a materialised all-zero
    /// page (the equivalence [`Memory::digest`] also makes). Pages are
    /// compared whole, as slices.
    pub fn first_difference(&self, other: &Memory) -> Option<u32> {
        static ZERO_PAGE: [u8; PAGE_SIZE] = [0; PAGE_SIZE];
        fn resident(m: &Memory, idx: usize) -> Option<&[u8]> {
            m.pages.get(idx)?.as_deref()
        }
        for idx in 0..self.pages.len().max(other.pages.len()) {
            let (a, b) = match (resident(self, idx), resident(other, idx)) {
                (None, None) => continue,
                (a, b) => (a.unwrap_or(&ZERO_PAGE), b.unwrap_or(&ZERO_PAGE)),
            };
            if a != b {
                let off = a
                    .iter()
                    .zip(b)
                    .position(|(x, y)| x != y)
                    .expect("unequal pages of one size differ at some offset");
                return Some(((idx << PAGE_SHIFT) | off) as u32);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_reads_zero() {
        let m = Memory::new();
        assert_eq!(m.read_u32(0x1234), 0);
        assert_eq!(m.read_u8(0xffff_fff0), 0);
    }

    #[test]
    fn round_trip_word() {
        let mut m = Memory::new();
        m.write_u32(0x100, 0xdead_beef);
        assert_eq!(m.read_u32(0x100), 0xdead_beef);
        assert_eq!(m.read_u8(0x100), 0xef); // little-endian
        assert_eq!(m.read_u16(0x102), 0xdead);
    }

    #[test]
    fn cross_page_word() {
        let mut m = Memory::new();
        let addr = (1 << PAGE_SHIFT) - 2; // straddles the page boundary
        m.write_u32(addr, 0x0102_0304);
        assert_eq!(m.read_u32(addr), 0x0102_0304);
    }

    #[test]
    fn bytes_round_trip() {
        let mut m = Memory::new();
        let data: Vec<u8> = (0..=255).collect();
        m.write_bytes(0x8000, &data);
        assert_eq!(m.read_bytes(0x8000, 256), data);
    }

    #[test]
    fn digest_distinguishes_states_and_ignores_zero_pages() {
        let mut a = Memory::new();
        let mut b = Memory::new();
        assert_eq!(a.digest(), b.digest());
        a.write_u32(0x40, 7);
        assert_ne!(a.digest(), b.digest());
        b.write_u32(0x40, 7);
        assert_eq!(a.digest(), b.digest());
        // Touching a page with zeros only must not change the digest.
        b.write_u8(0x9_0000, 0);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn first_difference_of_identical_images_is_none() {
        let mut a = Memory::new();
        a.write_u32(0x40, 0xdead_beef);
        a.write_u8(0x3_0001, 9);
        let b = a.clone();
        assert_eq!(a.first_difference(&b), None);
        assert_eq!(Memory::new().first_difference(&Memory::new()), None);
    }

    #[test]
    fn first_difference_treats_absent_pages_as_zero() {
        let mut touched = Memory::new();
        touched.write_u8(0x9_0000, 0); // materialises page 9, all zero
        let untouched = Memory::new();
        assert_eq!(touched.first_difference(&untouched), None);
        assert_eq!(untouched.first_difference(&touched), None);
    }

    #[test]
    fn first_difference_finds_a_byte_on_a_page_only_one_side_has() {
        let mut a = Memory::new();
        a.write_u8(0x5_1234, 5);
        let b = Memory::new();
        assert_eq!(a.first_difference(&b), Some(0x5_1234));
        assert_eq!(b.first_difference(&a), Some(0x5_1234));
    }

    #[test]
    fn first_difference_reports_the_lowest_address() {
        let mut a = Memory::new();
        let mut b = Memory::new();
        a.write_u8(0x2_0010, 1);
        b.write_u8(0x2_0010, 1);
        // Two pages differ; the lower page wins even though its byte sits
        // at a higher offset, and within a page the lower offset wins.
        a.write_u8(0x7_0008, 2);
        a.write_u8(0x3_fff0, 3);
        a.write_u8(0x3_8000, 4);
        assert_eq!(a.first_difference(&b), Some(0x3_8000));
        assert_eq!(b.first_difference(&a), Some(0x3_8000));
    }

    #[test]
    fn first_difference_sees_the_last_byte_of_a_page() {
        let mut a = Memory::new();
        let mut b = Memory::new();
        a.write_u32(0x1_0000, 7);
        b.write_u32(0x1_0000, 7);
        let last = (2 << PAGE_SHIFT) - 1;
        a.write_u8(last, 0x80);
        assert_eq!(a.first_difference(&b), Some(last));
    }

    #[test]
    fn first_difference_of_a_cleared_memory_against_a_new_one_is_none() {
        let mut m = Memory::new();
        m.write_u32(0x100, 1);
        m.write_u64(0x4_0000, u64::MAX);
        m.clear();
        assert_eq!(m.first_difference(&Memory::new()), None);
        assert_eq!(Memory::new().first_difference(&m), None);
    }

    #[test]
    fn clear_resets() {
        let mut m = Memory::new();
        m.write_u32(0x100, 1);
        let resident = m.resident_bytes();
        m.clear();
        assert_eq!(m.read_u32(0x100), 0);
        // Pages are recycled (zeroed in place) for the respawn path, not
        // freed; the image is still architecturally all-zero.
        assert_eq!(m.resident_bytes(), resident);
        assert_eq!(m.digest(), Memory::new().digest());
    }

    #[test]
    fn round_trip_u64() {
        let mut m = Memory::new();
        m.write_u64(0x200, 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u64(0x200), 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u32(0x200), 0x89ab_cdef); // little-endian halves
        assert_eq!(m.read_u32(0x204), 0x0123_4567);
        // Straddling the page boundary still round-trips.
        let addr = (1 << PAGE_SHIFT) - 3;
        m.write_u64(addr, 0xfeed_face_cafe_f00d);
        assert_eq!(m.read_u64(addr), 0xfeed_face_cafe_f00d);
    }

    #[test]
    fn tlb_latches_hot_page_and_counts() {
        let mut m = Memory::new();
        m.write_u32(0x100, 7); // materialises page 0, walks and latches
        let after_write = m.lookup_stats();
        assert_eq!(after_write.walks, 1);
        m.read_u32(0x100);
        m.read_u32(0x7f00); // same page
        let s = m.lookup_stats();
        assert_eq!(s.tlb_hits, after_write.tlb_hits + 2);
        assert_eq!(s.walks, 1, "hot-page reads must not re-walk");
        // A different page walks again.
        m.write_u8(0x9_0000, 1);
        assert_eq!(m.lookup_stats().walks, 2);
    }

    #[test]
    fn tlb_does_not_latch_unmaterialised_pages() {
        let m = Memory::new();
        assert_eq!(m.read_u32(0x5_0000), 0);
        assert_eq!(m.read_u32(0x5_0000), 0);
        let s = m.lookup_stats();
        assert_eq!(s.tlb_hits, 0, "absent pages must not enter the TLB");
        assert_eq!(s.walks, 2);
    }

    #[test]
    fn clear_invalidates_the_tlb() {
        // The respawn path: after `clear`, the first access must walk the
        // directory again, while the counters keep covering the whole run.
        let mut m = Memory::new();
        m.write_u32(0x100, 1); // walk 1 (materialise + latch)
        m.read_u32(0x104); // latched: TLB hit
        let before = m.lookup_stats();
        assert_eq!(before.tlb_hits, 1);
        assert_eq!(before.walks, 1);
        m.clear();
        assert_eq!(m.lookup_stats(), before, "counters persist across clear");
        m.read_u32(0x100);
        let s = m.lookup_stats();
        assert_eq!(s.walks, 2, "post-clear access must walk, not phantom-hit");
        assert_eq!(s.tlb_hits, 1);
    }
}
