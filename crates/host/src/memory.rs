//! Host memory: the storage target behind each storage node's NIC.
//!
//! The paper deliberately abstracts the storage medium ("we assume that the
//! storage medium can digest data at network bandwidth or higher", §III) —
//! for in-memory/NVMM file systems handlers write directly to main memory.
//! We model exactly that: a sparse byte store that actually holds the
//! written bytes, so integration tests can verify that replicas are
//! byte-identical and parity chunks are algebraically correct.
//!
//! The store is a set of non-overlapping extents ordered by address, each
//! a [`Bytes`] window. What a DMA write lands is kept without a copy when
//! other handles share its buffer — a window of the client's payload, a DMA
//! batch — so bytes the wire carried exist once however many memories they
//! land in; windows of one buffer that meet join into one extent. A buffer
//! nobody else holds (a parity accumulator, a rebuilt packet) and every
//! CPU-side [`HostMemory::write`] are copied, into an extent memory owns
//! and grows in place, so the buffer can go back to its pool. Memory never
//! grows or rewrites a buffer it did not make, even once it is the last
//! holder: that would copy a client's payload to extend it. A staging
//! slot (`HostMemory::stage`) becomes one zeroed copy when its first
//! packet lands, and every packet staged there is copied into it in place.
//!
//! The extents are one vector sorted by address. Every operation finds its
//! place with one binary search, and the extents on either side of it are
//! the neighbouring indices; a packet that lands clear of what is stored
//! costs that search and nothing else. Inserting or removing an extent
//! moves only the entries after its index, and the traffic keeps those
//! few: regions come from a bump allocator, so what lands is mostly at or
//! near the end. Entries moved per insert, remove or drain, mean and most
//! (longest vector), seed 1: `small_write_storm` 0.94 and 21 (4,001),
//! `repl_write_ring` 9.8 and 51 (1,040), `ec_write_stream` 6.4 and 83
//! (655), `read_hot_cached` 0.96 and 15 (257), `read_ec_degraded` 3.0 and
//! 28 (574), the long churn run 0.49 and 15 (3,351).

use std::cell::RefCell;
use std::ops::Range;
use std::rc::Rc;

use bytes::{BufMut, Bytes};

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Sparse byte-addressable memory with a bump allocator.
pub struct HostMemory {
    /// Non-empty, non-overlapping extents sorted by address.
    extents: Vec<Extent>,
    next_alloc: u64,
    bytes_written: u64,
}

impl Default for HostMemory {
    fn default() -> Self {
        HostMemory {
            extents: Vec::new(),
            next_alloc: PAGE_SIZE as u64,
            bytes_written: 0,
        }
    }
}

/// One stored run of bytes at `at`: a window of a buffer landed as it
/// came, or a copy memory made (`owned`), which it grows and overwrites in
/// place while no other handle shares it.
struct Extent {
    at: u64,
    bytes: Bytes,
    owned: bool,
}

impl Extent {
    fn end(&self) -> u64 {
        self.at + self.bytes.len() as u64
    }

    /// The part of the extent within `[lo, hi)`, which it must cover.
    fn slice(&self, lo: u64, hi: u64) -> Extent {
        let (from, to) = ((lo - self.at) as usize, (hi - self.at) as usize);
        let (at, bytes, owned) = (lo, self.bytes.slice(from..to), self.owned);
        Extent { at, bytes, owned }
    }
}

/// Shared handle: the NIC (DMA engine), the CPU model, and test code all
/// reference the same memory.
pub type SharedMemory = Rc<RefCell<HostMemory>>;

impl HostMemory {
    pub fn new() -> SharedMemory {
        // Leave the zero page unallocated so address 0 can serve as a
        // conventional "null" in tests.
        Rc::new(RefCell::new(HostMemory::default()))
    }

    /// Allocate a region of `len` bytes, returning its base address.
    /// Allocations are page-aligned, which keeps regions disjoint.
    pub fn alloc(&mut self, len: u64) -> u64 {
        let base = self.next_alloc;
        let pages = len.div_ceil(PAGE_SIZE as u64).max(1);
        self.next_alloc += pages * PAGE_SIZE as u64;
        base
    }

    /// The index of the first extent starting at or after `addr`.
    fn index(&self, addr: u64) -> usize {
        self.extents.partition_point(|e| e.at < addr)
    }

    /// Insert `e` at index `i`. The first extent makes room for sixteen,
    /// so a small memory (a client's) allocates once, not at 4, 8 and 16.
    fn insert(&mut self, i: usize, e: Extent) {
        if self.extents.capacity() == 0 {
            self.extents.reserve_exact(16);
        }
        self.extents.insert(i, e);
    }

    /// Write a copy of `data` at `addr`.
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        self.bytes_written += data.len() as u64;
        if data.is_empty() {
            return;
        }
        let end = addr + data.len() as u64;
        let j = self.index(end);
        if j > 0 && self.overwrite(j - 1, addr, data) {
            return;
        }
        let i = self.clear(j, addr, end);
        self.put_copy(i, addr, data);
    }

    /// Overwrite `data` at `addr` in place when the extent at index `i` is
    /// a copy memory alone holds that covers it.
    fn overwrite(&mut self, i: usize, addr: u64, data: &[u8]) -> bool {
        let e = &mut self.extents[i];
        if !e.owned || e.at > addr || e.end() < addr + data.len() as u64 {
            return false;
        }
        let off = (addr - e.at) as usize;
        let Some(bytes) = e.bytes.try_mut() else {
            return false;
        };
        bytes[off..off + data.len()].copy_from_slice(data);
        true
    }

    /// Land a DMA-written buffer at `addr`: kept as it is when other
    /// handles share it, copied when the caller's is the only one.
    pub(crate) fn land(&mut self, addr: u64, data: &Bytes) {
        if data.is_unique() || data.is_empty() {
            return self.write(addr, data);
        }
        self.bytes_written += data.len() as u64;
        let end = addr + data.len() as u64;
        let i = self.clear(self.index(end), addr, end);
        self.put_shared(i, addr, data.clone());
    }

    /// Write a copy of `data` at `addr` in the staging slot `slot`. The
    /// slot's first packet makes all of it one zeroed copy, which its
    /// packets, in whatever order, then overwrite in place.
    pub(crate) fn stage(&mut self, slot: Range<u64>, addr: u64, data: &[u8]) {
        let len = slot.end - slot.start;
        let mut i = self.index(slot.start);
        let held = self.extents.get(i);
        if !held.is_some_and(|e| e.at == slot.start && e.owned && e.bytes.len() as u64 >= len) {
            i = self.clear(self.index(slot.end), slot.start, slot.end);
            let (at, owned) = (slot.start, true);
            let bytes = Bytes::from(vec![0u8; len as usize]);
            self.insert(i, Extent { at, bytes, owned });
        }
        if self.overwrite(i, addr, data) {
            self.bytes_written += data.len() as u64;
        } else {
            self.write(addr, data);
        }
    }

    /// Remove every byte of `[lo, hi)`, given `j`, [`Self::index`] of
    /// `hi`: extents it covers go, extents it cuts keep the parts outside
    /// it. Returns the index at which the range now goes. The extents it
    /// meets sit just before `j`, so a range that meets none costs one
    /// comparison.
    fn clear(&mut self, mut j: usize, lo: u64, hi: u64) -> usize {
        let mut i = j;
        while i > 0 && self.extents[i - 1].end() > lo {
            i -= 1;
        }
        if i == j || lo >= hi {
            return j; // it meets nothing, or is empty and cuts nothing
        }
        let first = &mut self.extents[i];
        if first.at < lo {
            let end = first.end();
            let tail = (end > hi).then(|| first.slice(hi, end));
            *first = first.slice(first.at, lo);
            if let Some(tail) = tail {
                self.insert(j, tail);
                return j;
            }
            i += 1;
        }
        if let Some(last) = self.extents[i..j].last_mut() {
            let end = last.end();
            if end > hi {
                *last = last.slice(hi, end);
                j -= 1;
            }
        }
        self.extents.drain(i..j);
        i
    }

    /// Store a copy of `data` at `addr`, cleared and at index `i`, joined
    /// with the copies memory alone holds on either side: the one ending
    /// there grows in place, and the one starting right after is absorbed
    /// when it is no longer than `data` — copies land out of order too (a
    /// short last packet overtakes), but absorbing longer runs re-copies
    /// them each time the order is scrambled, as parity streams under load
    /// are.
    fn put_copy(&mut self, i: usize, addr: u64, data: &[u8]) {
        let end = addr + data.len() as u64;
        let next = self.extents.get(i).filter(|n| n.at == end && n.owned);
        let next = match next {
            Some(n) if n.bytes.len() <= data.len() && n.bytes.is_unique() => {
                Some(self.extents.remove(i))
            }
            _ => None,
        };
        let next = next.as_ref().map_or(&[][..], |n| &n.bytes[..]);
        if let Some(prev) = self.extents[..i].last_mut() {
            if prev.owned && prev.end() == addr && prev.bytes.try_extend(data) {
                prev.bytes.try_extend(next);
                return;
            }
        }
        let mut joined = Vec::with_capacity(data.len() + next.len());
        joined.extend_from_slice(data);
        joined.extend_from_slice(next);
        let (at, bytes, owned) = (addr, Bytes::from(joined), true);
        self.insert(i, Extent { at, bytes, owned });
    }

    /// Store `bytes` at `addr`, cleared and at index `i`, joined with the
    /// neighbouring windows of the same buffer on either side.
    fn put_shared(&mut self, i: usize, addr: u64, mut bytes: Bytes) {
        let end = addr + bytes.len() as u64;
        let next = self.extents.get(i).filter(|next| next.at == end);
        if let Some(joined) = next.and_then(|next| bytes.try_join(&next.bytes)) {
            self.extents.remove(i);
            bytes = joined;
        }
        if let Some(prev) = self.extents[..i].last_mut() {
            if prev.end() == addr {
                if let Some(joined) = prev.bytes.try_join(&bytes) {
                    prev.bytes = joined;
                    return;
                }
            }
        }
        let (at, owned) = (addr, false);
        self.insert(i, Extent { at, bytes, owned });
    }

    /// The stored bytes within `[addr, addr + len)` in address order, each
    /// with its offset from `addr`; what lies between reads as zero.
    fn pieces(&self, addr: u64, len: usize) -> impl Iterator<Item = (usize, &[u8])> {
        let hi = addr + len as u64;
        let first = self.extents.partition_point(|e| e.end() <= addr);
        self.extents[first..]
            .iter()
            .take_while(move |e| e.at < hi)
            .map(move |e| {
                let lo = e.at.max(addr);
                let end = e.end().min(hi);
                let piece = &e.bytes[(lo - e.at) as usize..(end - e.at) as usize];
                ((lo - addr) as usize, piece)
            })
    }

    /// Read `len` bytes at `addr`; untouched bytes read as zero.
    pub fn read(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        self.read_to(addr, len, &mut out);
        out
    }

    /// Put the `len` bytes at `addr` into `out`, in order; untouched bytes
    /// put zeros. [`Self::read`] and [`Self::read_into`] call it with a
    /// vector and a slice, and the client with the tail of its cache's run
    /// (`bytes::BytesRun`), memory not yet initialised, to copy a landed
    /// read there once.
    pub fn read_to(&self, addr: u64, len: usize, out: &mut (impl BufMut + ?Sized)) {
        let mut filled = 0;
        for (off, piece) in self.pieces(addr, len) {
            out.put_bytes(0, off - filled);
            out.put_slice(piece);
            filled = off + piece.len();
        }
        out.put_bytes(0, len - filled);
    }

    /// Read `out.len()` bytes at `addr` into a caller-owned buffer —
    /// the allocation-free variant of [`Self::read`] the streaming EC
    /// aggregation loops use. Untouched bytes read as zero.
    pub fn read_into(&self, addr: u64, mut out: &mut [u8]) {
        self.read_to(addr, out.len(), &mut out);
    }

    /// Read `len` bytes at `addr` as a [`Bytes`]: a slice of the stored
    /// buffer when one extent holds the whole range, else a fresh copy.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Bytes {
        if len == 0 {
            return Bytes::new();
        }
        let i = self.extents.partition_point(|e| e.at <= addr);
        if let Some(e) = i.checked_sub(1).map(|h| &self.extents[h]) {
            let off = (addr - e.at) as usize;
            if off + len <= e.bytes.len() {
                return e.bytes.slice(off..off + len);
            }
        }
        Bytes::from(self.read(addr, len))
    }

    /// [`Self::read_bytes`], then forget the range: the region's owner is
    /// done with it. A range that spans extents comes back as a fresh
    /// copy, so a reader that keeps the bytes in a buffer of its own copies
    /// them there with [`Self::read_to`] and [`Self::free`] instead, once:
    /// the client does for every read its cache keeps.
    pub fn take(&mut self, addr: u64, len: usize) -> Bytes {
        let bytes = self.read_bytes(addr, len);
        self.free(addr, len as u64);
        bytes
    }

    /// Forget `len` bytes at `addr`; they read as zero again.
    pub fn free(&mut self, addr: u64, len: u64) {
        let end = addr + len;
        self.clear(self.index(end), addr, end);
    }

    /// Total bytes ever written (diagnostic).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Number of distinct 4 KiB pages holding stored bytes (diagnostic;
    /// sparse footprint).
    pub fn resident_pages(&self) -> usize {
        let (mut pages, mut uncounted) = (0, 0);
        for e in &self.extents {
            let first = (e.at >> PAGE_SHIFT).max(uncounted);
            let last = (e.end() - 1) >> PAGE_SHIFT;
            if last >= first {
                pages += last - first + 1;
                uncounted = last + 1;
            }
        }
        pages as usize
    }

    /// Number of extents the stored bytes are held in (diagnostic: one
    /// per run that landed whole).
    pub fn extent_count(&self) -> usize {
        self.extents.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip_within_page() {
        let m = HostMemory::new();
        m.borrow_mut().write(100, b"hello");
        assert_eq!(m.borrow().read(100, 5), b"hello");
    }

    #[test]
    fn write_read_across_page_boundary() {
        let m = HostMemory::new();
        let data: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        let addr = PAGE_SIZE as u64 - 123;
        m.borrow_mut().write(addr, &data);
        assert_eq!(m.borrow().read(addr, data.len()), data);
        assert_eq!(m.borrow().resident_pages(), 4, "pages 0..=3 hold bytes");
    }

    #[test]
    fn unwritten_memory_reads_zero() {
        let m = HostMemory::new();
        assert_eq!(m.borrow().read(1 << 30, 8), vec![0u8; 8]);
        assert_eq!(m.borrow().resident_pages(), 0);
    }

    #[test]
    fn alloc_regions_are_disjoint() {
        let m = HostMemory::new();
        let a = m.borrow_mut().alloc(5000);
        let b = m.borrow_mut().alloc(1);
        let c = m.borrow_mut().alloc(0);
        assert!(b >= a + 5000);
        assert!(c > b);
        m.borrow_mut().write(a, &vec![0xAA; 5000]);
        m.borrow_mut().write(b, &[0xBB]);
        assert_eq!(m.borrow().read(a, 5000), vec![0xAA; 5000]);
        assert_eq!(m.borrow().read(b, 1), vec![0xBB]);
    }

    #[test]
    fn overlapping_writes_last_wins() {
        let m = HostMemory::new();
        m.borrow_mut().write(0, &[1, 1, 1, 1]);
        m.borrow_mut().write(1, &[2, 2]);
        assert_eq!(m.borrow().read(0, 4), vec![1, 2, 2, 1]);
        assert_eq!(m.borrow().bytes_written(), 6);
    }

    #[test]
    fn shared_buffers_are_stored_not_copied() {
        let mut m = HostMemory::default();
        let payload = Bytes::from((0..=255u8).collect::<Vec<u8>>());
        m.land(0x1000, &payload.slice(..100));
        let stored = m.read_bytes(0x1000, 100);
        assert_eq!(stored.as_ptr(), payload.as_ptr(), "the payload's own bytes");
        // The caller's handle is the only one: the bytes are copied and
        // the buffer stays free to go back to its pool.
        let lone = Bytes::from(vec![7u8; 64]);
        m.land(0x2000, &lone);
        assert_ne!(m.read_bytes(0x2000, 64).as_ptr(), lone.as_ptr());
        assert!(lone.is_unique(), "memory kept no handle on it");
    }

    #[test]
    fn copies_that_meet_grow_one_extent() {
        let mut m = HostMemory::default();
        // One pair out of order, and a short last packet overtaking.
        let order = [(0u8, 10), (2, 10), (1, 10), (3, 10), (4, 10), (5, 10)];
        for (i, len) in order.into_iter().chain([(7, 5), (6, 10)]) {
            m.land(0x1000 + i as u64 * 10, &Bytes::from(vec![i; len]));
        }
        assert_eq!(m.extent_count(), 1);
        assert_eq!(m.read(0x1000 + 35, 10), [3, 3, 3, 3, 3, 4, 4, 4, 4, 4]);
        assert_eq!(m.read(0x1000 + 70, 10), [7, 7, 7, 7, 7, 0, 0, 0, 0, 0]);
        // An overwrite inside it happens in place.
        m.write(0x1000 + 12, &[9, 9]);
        assert_eq!(m.extent_count(), 1);
        assert_eq!(m.read(0x1000 + 10, 4), [1, 1, 9, 9]);
    }

    #[test]
    fn a_stored_payload_is_never_grown_even_once_memory_alone_holds_it() {
        let mut m = HostMemory::default();
        let payload = Bytes::from(vec![1u8; 4096]);
        m.land(0x1000, &payload.clone());
        let at = payload.as_ptr();
        drop(payload);
        m.land(0x2000, &Bytes::from(vec![2u8; 100]));
        m.land(0x1000 - 100, &Bytes::from(vec![3u8; 100]));
        m.write(0x1000 + 10, &[4]);
        // A copy before it, its head, a copy inside it, its tail, a copy
        // after it.
        assert_eq!(m.extent_count(), 5);
        assert_eq!(m.read_bytes(0x1000, 10).as_ptr(), at, "not moved");
        assert_eq!(m.read(0x1000 + 9, 3), [1, 4, 1]);
    }

    #[test]
    fn take_returns_a_slice_and_forgets_the_range() {
        let mut m = HostMemory::default();
        let payload = Bytes::from(vec![5u8; 8192]);
        m.land(0x4000, &payload.clone());
        let got = m.take(0x4000 + 10, 100);
        assert_eq!(got.as_ptr(), payload[10..].as_ptr());
        assert_eq!(m.read(0x4000 + 8, 4), [5, 5, 0, 0], "the range reads zero");
        assert_eq!(m.extent_count(), 2, "head and tail remain");
        assert!(m.take(0x4000 + 4000, 0).is_empty());
        assert_eq!(m.extent_count(), 2, "an empty range cuts nothing");
        m.free(0x4000, 8192);
        assert_eq!((m.extent_count(), m.resident_pages()), (0, 0));
    }

    #[test]
    fn a_staging_slot_is_one_copy_its_packets_land_in() {
        let mut m = HostMemory::default();
        let slot = 0x1000..0x1000 + 300;
        m.write(0x1000 + 290, &[8; 20]);
        // Out of order, and shorter than the slot.
        for i in [1u8, 0, 2] {
            let lone = Bytes::from(vec![i + 1; 100]);
            m.stage(slot.clone(), 0x1000 + i as u64 * 100, &lone);
            assert!(lone.is_unique(), "copied, not kept");
        }
        assert_eq!(m.extent_count(), 2, "the slot, and the tail cut off it");
        assert_eq!(m.read(0x1000 + 98, 4), [1, 1, 2, 2]);
        assert_eq!(m.read(0x1000 + 298, 4), [3, 3, 8, 8]);
        m.free(slot.start, 300);
        assert_eq!(m.extent_count(), 1);
    }
}
