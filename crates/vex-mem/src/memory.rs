//! Functional backing store: a flat, sparsely-allocated byte-addressable
//! memory private to one program run.

use std::cell::RefCell;

/// Log2 of the allocation granule (64KB pages).
const PAGE_SHIFT: u32 = 16;
/// Allocation granule in bytes.
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
/// Most pages a thread keeps for reuse after its memories are dropped
/// (16 MB).
const FREE_PAGES_MAX: usize = 256;

thread_local! {
    /// Pages of this thread's dropped memories, waiting to be reused by
    /// the next memory built on the thread. A process that builds and
    /// drops engines in a loop (`vex fuzz` builds 24 per seed) then gets
    /// its pages back already mapped, instead of from the allocator, which
    /// may have returned them to the kernel in between.
    static FREE_PAGES: RefCell<Vec<Box<[u8]>>> = const { RefCell::new(Vec::new()) };
}

/// A zero-filled page: one from the thread's free list, zeroed, or else a
/// new allocation.
fn zeroed_page() -> Box<[u8]> {
    match FREE_PAGES.try_with(|free| free.borrow_mut().pop()) {
        Ok(Some(mut page)) => {
            page.fill(0);
            page
        }
        _ => vec![0u8; PAGE_SIZE].into_boxed_slice(),
    }
}

/// Sparse little-endian memory. Pages materialise zero-filled on first
/// touch, so untouched reads return zero like a fresh process image.
///
/// Addresses are 32-bit; the page directory is a flat vector indexed by the
/// high address bits, so a lookup is one shift and one bounds-checked index
/// (no hashing on the simulator's hot path).
#[derive(Clone, Debug, Default)]
pub struct Memory {
    pages: Vec<Option<Box<[u8]>>>,
}

impl Drop for Memory {
    /// Hands the pages to this thread's free list, up to its cap.
    fn drop(&mut self) {
        // `try_with`: during thread teardown the list may be gone already,
        // and the pages are then simply freed.
        let _ = FREE_PAGES.try_with(|free| {
            let mut free = free.borrow_mut();
            let room = FREE_PAGES_MAX.saturating_sub(free.len());
            free.extend(self.pages.drain(..).flatten().take(room));
        });
    }
}

impl Memory {
    /// An empty memory.
    pub fn new() -> Self {
        Memory { pages: Vec::new() }
    }

    /// Bytes currently materialised (for footprint reporting).
    pub fn resident_bytes(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count() * PAGE_SIZE
    }

    /// Clears all contents (returns to the all-zero image). Materialised
    /// pages are zeroed in place rather than freed: a respawning benchmark
    /// touches the same working set again immediately, so recycling the
    /// allocations keeps the run-restart path off the allocator.
    pub fn clear(&mut self) {
        for page in self.pages.iter_mut().flatten() {
            page.fill(0);
        }
    }

    #[inline]
    fn page(&self, addr: u32) -> Option<&[u8]> {
        self.pages.get((addr >> PAGE_SHIFT) as usize)?.as_deref()
    }

    #[inline]
    fn page_mut(&mut self, addr: u32) -> &mut [u8] {
        let idx = (addr >> PAGE_SHIFT) as usize;
        if idx >= self.pages.len() {
            self.pages.resize_with(idx + 1, || None);
        }
        self.pages[idx].get_or_insert_with(zeroed_page)
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
        for idx in 0..self.pages.len().max(other.pages.len()) {
            let base = (idx << PAGE_SHIFT) as u32;
            let (a, b) = match (self.page(base), other.page(base)) {
                (None, None) => continue,
                (a, b) => (a.unwrap_or(&ZERO_PAGE), b.unwrap_or(&ZERO_PAGE)),
            };
            if a != b {
                let off = a
                    .iter()
                    .zip(b)
                    .position(|(x, y)| x != y)
                    .expect("unequal pages of one size differ at some offset");
                return Some(base | off as u32);
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
        let back: Vec<u8> = (0..256).map(|i| m.read_u8(0x8000 + i)).collect();
        assert_eq!(back, data);
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
        m.write_u32(0x4_0000, u32::MAX);
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
    fn recycled_pages_come_back_zeroed() {
        FREE_PAGES.with(|free| free.borrow_mut().clear());
        let mut old = Memory::new();
        old.write_u32(0x3_0100, 0xdead_beef);
        old.write_u8(0x3_ffff, 0x80);
        drop(old);
        assert_eq!(FREE_PAGES.with(|free| free.borrow().len()), 1);
        // The same page again, on the same thread: it is the one just
        // freed, and it must read as if freshly allocated.
        let mut m = Memory::new();
        m.write_u8(0x3_0000, 0);
        assert_eq!(FREE_PAGES.with(|free| free.borrow().len()), 0);
        assert_eq!(m.read_u32(0x3_0100), 0);
        assert_eq!(m.read_u8(0x3_ffff), 0);
        assert_eq!(m.first_difference(&Memory::new()), None);
    }

    #[test]
    fn the_free_list_keeps_at_most_its_cap() {
        FREE_PAGES.with(|free| free.borrow_mut().clear());
        let mut m = Memory::new();
        for page in 0..FREE_PAGES_MAX as u32 + 3 {
            m.write_u8(page << PAGE_SHIFT, 1);
        }
        drop(m);
        assert_eq!(FREE_PAGES.with(|free| free.borrow().len()), FREE_PAGES_MAX);
        FREE_PAGES.with(|free| free.borrow_mut().clear());
    }
}
