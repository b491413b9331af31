//! Functional backing store: a flat, sparsely-allocated byte-addressable
//! memory private to one program run, started from an immutable [`Image`]
//! whose pages it shares until it first writes to them.

use std::cell::RefCell;
use std::sync::Arc;

/// Log2 of the allocation granule (64KB pages).
const PAGE_SHIFT: u32 = 16;
/// Allocation granule in bytes.
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
/// Most pages a thread keeps for reuse after its memories are dropped
/// (16 MB).
const FREE_PAGES_MAX: usize = 256;

thread_local! {
    /// Owned pages of this thread's dropped or reset memories, waiting to
    /// be reused by the next page a memory on the thread makes its own. A
    /// process that builds and drops engines in a loop (`vex fuzz` builds
    /// 24 per seed) then gets its pages back already mapped, instead of
    /// from the allocator, which may have returned them to the kernel in
    /// between.
    static FREE_PAGES: RefCell<Vec<Box<[u8]>>> = const { RefCell::new(Vec::new()) };
}

/// A page from the thread's free list, with whatever bytes it held.
fn recycled_page() -> Option<Box<[u8]>> {
    FREE_PAGES
        .try_with(|free| free.borrow_mut().pop())
        .ok()
        .flatten()
}

/// A zero-filled page: one from the thread's free list, zeroed, or else a
/// new allocation.
fn zeroed_page() -> Box<[u8]> {
    match recycled_page() {
        Some(mut page) => {
            page.fill(0);
            page
        }
        None => vec![0u8; PAGE_SIZE].into_boxed_slice(),
    }
}

/// A private copy of a shared page. A recycled page is not zeroed first:
/// the copy overwrites all of it.
fn copied_page(shared: &[u8]) -> Box<[u8]> {
    match recycled_page() {
        Some(mut page) => {
            page.copy_from_slice(shared);
            page
        }
        None => Box::from(shared),
    }
}

/// `bytes` placed at `base`, split at page boundaries: each piece with
/// its start address. Addresses wrap at 4 GB.
fn page_chunks(base: u32, bytes: &[u8]) -> impl Iterator<Item = (u32, &[u8])> {
    let mut addr = base;
    let mut rest = bytes;
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let room = PAGE_SIZE - (addr as usize & (PAGE_SIZE - 1));
        let (chunk, tail) = rest.split_at(rest.len().min(room));
        let at = addr;
        rest = tail;
        addr = addr.wrapping_add(chunk.len() as u32);
        Some((at, chunk))
    })
}

/// An immutable initial memory image: the 64KB pages that hold a
/// program's data segments, each built once and then shared by every
/// [`Memory`] started from the image ([`Memory::from_image`],
/// [`Memory::reset_to`]). Cloning an image clones one pointer.
#[derive(Clone, Debug)]
pub struct Image {
    pages: Arc<[Option<Arc<[u8]>>]>,
}

impl Image {
    /// The image holding each `(base, bytes)` segment at its base address,
    /// later segments over earlier ones, and zero everywhere else. Each
    /// page is allocated once, zero-filled, and then has its segments
    /// copied in place.
    pub fn new<'a>(segments: impl IntoIterator<Item = (u32, &'a [u8])>) -> Image {
        let mut pages: Vec<Option<Arc<[u8]>>> = Vec::new();
        for (base, bytes) in segments {
            for (addr, chunk) in page_chunks(base, bytes) {
                let idx = (addr >> PAGE_SHIFT) as usize;
                let off = (addr as usize) & (PAGE_SIZE - 1);
                if idx >= pages.len() {
                    pages.resize(idx + 1, None);
                }
                let page = pages[idx]
                    .get_or_insert_with(|| std::iter::repeat(0).take(PAGE_SIZE).collect());
                Arc::get_mut(page).expect("a page under construction is not shared yet")
                    [off..off + chunk.len()]
                    .copy_from_slice(chunk);
            }
        }
        Image {
            pages: pages.into(),
        }
    }

    /// The memory pages of the image, shared.
    fn shared_pages(&self) -> impl Iterator<Item = Page> + '_ {
        self.pages.iter().map(|p| match p {
            Some(p) => Page::Shared(Arc::clone(p)),
            None => Page::Absent,
        })
    }
}

/// One page of a [`Memory`].
#[derive(Clone, Debug, Default)]
enum Page {
    /// Never touched: reads zero.
    #[default]
    Absent,
    /// An [`Image`]'s page, shared with the image and every memory started
    /// from it; the first write replaces it with an owned copy.
    Shared(Arc<[u8]>),
    /// This memory's own page.
    Owned(Box<[u8]>),
}

impl Page {
    #[inline]
    fn bytes(&self) -> Option<&[u8]> {
        match self {
            Page::Owned(p) => Some(p),
            Page::Shared(p) => Some(p),
            Page::Absent => None,
        }
    }

    /// Replaces a shared page with an owned copy, and an absent page with
    /// an owned zero page.
    #[cold]
    fn make_owned(&mut self) {
        let owned = match self {
            Page::Shared(shared) => copied_page(shared),
            _ => zeroed_page(),
        };
        *self = Page::Owned(owned);
    }
}

/// Sparse little-endian memory. Untouched pages read zero, like a fresh
/// process image; pages of the [`Image`] a memory started from are shared
/// until written (copy-on-write).
///
/// Addresses are 32-bit; the page directory is a flat vector indexed by the
/// high address bits, so a lookup is one shift and one bounds-checked index
/// (no hashing on the simulator's hot path).
#[derive(Clone, Debug, Default)]
pub struct Memory {
    pages: Vec<Page>,
}

impl Drop for Memory {
    fn drop(&mut self) {
        self.recycle();
    }
}

impl Memory {
    /// An empty memory.
    pub fn new() -> Self {
        Memory { pages: Vec::new() }
    }

    /// A memory holding `image`, sharing all of its pages: no page is
    /// copied until it is written.
    pub fn from_image(image: &Image) -> Self {
        Memory {
            pages: image.shared_pages().collect(),
        }
    }

    /// Returns the memory to `image`, as [`Memory::from_image`] builds it.
    /// The pages it owned go to this thread's free list.
    pub fn reset_to(&mut self, image: &Image) {
        self.recycle();
        self.pages.extend(image.shared_pages());
    }

    /// Empties the page directory, handing owned pages to this thread's
    /// free list up to its cap.
    fn recycle(&mut self) {
        let owned = self.pages.drain(..).filter_map(|p| match p {
            Page::Owned(p) => Some(p),
            _ => None,
        });
        // `try_with`: during thread teardown the list may be gone already,
        // and the pages are then simply freed.
        let _ = FREE_PAGES.try_with(|free| {
            let mut free = free.borrow_mut();
            let room = FREE_PAGES_MAX.saturating_sub(free.len());
            free.extend(owned.take(room));
        });
    }

    /// Bytes currently materialised, shared or owned (for footprint
    /// reporting).
    pub fn resident_bytes(&self) -> usize {
        self.pages.iter().filter(|p| p.bytes().is_some()).count() * PAGE_SIZE
    }

    /// Pages this memory owns: those it wrote since it was built or reset,
    /// where a shared page was copied or an absent one allocated.
    pub fn owned_pages(&self) -> usize {
        self.pages
            .iter()
            .filter(|p| matches!(p, Page::Owned(_)))
            .count()
    }

    #[inline]
    fn page(&self, addr: u32) -> Option<&[u8]> {
        self.pages.get((addr >> PAGE_SHIFT) as usize)?.bytes()
    }

    /// The page holding `addr`, made owned first if it is not.
    #[inline]
    fn page_mut(&mut self, addr: u32) -> &mut [u8] {
        let idx = (addr >> PAGE_SHIFT) as usize;
        if idx >= self.pages.len() {
            self.pages.resize_with(idx + 1, Page::default);
        }
        let page = &mut self.pages[idx];
        if !matches!(page, Page::Owned(_)) {
            page.make_owned();
        }
        match page {
            Page::Owned(p) => p,
            _ => unreachable!("the page was just made owned"),
        }
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
    /// `copy_from_slice` at a time.
    pub fn write_bytes(&mut self, base: u32, bytes: &[u8]) {
        for (addr, chunk) in page_chunks(base, bytes) {
            let off = (addr as usize) & (PAGE_SIZE - 1);
            self.page_mut(addr)[off..off + chunk.len()].copy_from_slice(chunk);
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
            if let Some(p) = page.bytes() {
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
    /// compared whole, as slices, and two that share one allocation are
    /// equal without a look.
    pub fn first_difference(&self, other: &Memory) -> Option<u32> {
        static ZERO_PAGE: [u8; PAGE_SIZE] = [0; PAGE_SIZE];
        for idx in 0..self.pages.len().max(other.pages.len()) {
            if let (Some(Page::Shared(a)), Some(Page::Shared(b))) =
                (self.pages.get(idx), other.pages.get(idx))
            {
                if Arc::ptr_eq(a, b) {
                    continue;
                }
            }
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

    /// Two segments, one of them crossing from page 0 into page 1, and
    /// one on page 3.
    fn two_page_image() -> Image {
        let low: Vec<u8> = (0..64).map(|i| i as u8 + 1).collect();
        Image::new([(0xffe0, &low[..]), (0x3_0010, &[0xaa, 0xbb][..])])
    }

    #[test]
    fn an_image_holds_its_segments_and_later_segments_win() {
        let image = Image::new([(0x10, &[1, 2, 3, 4][..]), (0x12, &[9][..])]);
        let m = Memory::from_image(&image);
        assert_eq!(m.read_u32(0x10), 0x0409_0201);
        assert_eq!(m.read_u8(0x14), 0);
        let m = Memory::from_image(&two_page_image());
        assert_eq!(m.read_u8(0xffe0), 1);
        assert_eq!(m.read_u16(0xffff), 0x2120, "crosses into page 1");
        assert_eq!(m.read_u8(0x1_001f), 64);
        assert_eq!(m.read_u16(0x3_0010), 0xbbaa);
        assert_eq!(m.resident_bytes(), 3 * PAGE_SIZE);
        assert_eq!(m.owned_pages(), 0);
    }

    #[test]
    fn a_write_copies_only_its_page_and_shows_nowhere_else() {
        let image = two_page_image();
        let mut a = Memory::from_image(&image);
        let b = Memory::from_image(&image);
        a.write_u8(0xfff0, 0x55);
        assert_eq!(a.owned_pages(), 1);
        assert_eq!(a.read_u8(0xfff0), 0x55);
        assert_eq!(a.read_u8(0xffe0), 1, "the copy keeps the image's bytes");
        assert_eq!(b.read_u8(0xfff0), 17);
        assert_eq!(Memory::from_image(&image).read_u8(0xfff0), 17);
        assert_eq!(a.first_difference(&b), Some(0xfff0));
        assert_eq!(b.first_difference(&Memory::from_image(&image)), None);
    }

    #[test]
    fn first_difference_compares_the_pages_of_two_images() {
        let one = Image::new([(0x3_0010, &[0xaa, 0xbb][..])]);
        let other = Image::new([(0x3_0010, &[0xaa, 0xbc][..])]);
        let (a, b) = (Memory::from_image(&one), Memory::from_image(&other));
        assert_eq!(a.first_difference(&b), Some(0x3_0011));
        assert_eq!(b.first_difference(&a), Some(0x3_0011));
    }

    #[test]
    fn reset_to_returns_to_the_image_and_owns_no_page() {
        let image = two_page_image();
        let mut m = Memory::from_image(&image);
        m.write_u32(0x1_0000, u32::MAX);
        m.write_u8(0x7_0000, 3);
        assert_eq!(m.owned_pages(), 2);
        m.reset_to(&image);
        assert_eq!(m.owned_pages(), 0);
        assert_eq!(m.read_u8(0x7_0000), 0);
        assert_eq!(m.first_difference(&Memory::from_image(&image)), None);
        assert_eq!(m.digest(), Memory::from_image(&image).digest());
    }

    #[test]
    fn reset_to_an_empty_image_reads_as_a_new_memory() {
        let mut m = Memory::new();
        m.write_u32(0x100, 1);
        m.write_u32(0x4_0000, u32::MAX);
        m.reset_to(&Image::new([]));
        assert_eq!(m.resident_bytes(), 0);
        assert_eq!(m.first_difference(&Memory::new()), None);
        assert_eq!(Memory::new().first_difference(&m), None);
        assert_eq!(m.digest(), Memory::new().digest());
    }

    #[test]
    fn a_copied_page_from_the_free_list_holds_only_the_image_bytes() {
        FREE_PAGES.with(|free| free.borrow_mut().clear());
        let mut dirty = Memory::new();
        dirty.write_bytes(0, &[0xee; PAGE_SIZE]);
        drop(dirty);
        assert_eq!(FREE_PAGES.with(|free| free.borrow().len()), 1);
        let image = two_page_image();
        let mut m = Memory::from_image(&image);
        m.write_u8(0x3_0000, 7);
        assert_eq!(FREE_PAGES.with(|free| free.borrow().len()), 0);
        let mut want = Memory::from_image(&image);
        want.write_u8(0x3_0000, 7);
        assert_eq!(
            m.first_difference(&Memory::from_image(&image)),
            Some(0x3_0000)
        );
        assert_eq!(m.read_u16(0x3_0010), 0xbbaa);
        assert_eq!(m.read_u8(0x3_ffff), 0);
        assert_eq!(m.digest(), want.digest());
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
