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

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::ops::Range;
use std::rc::Rc;

use bytes::Bytes;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Sparse byte-addressable memory with a bump allocator.
pub struct HostMemory {
    /// Non-empty, non-overlapping extents keyed by base address.
    extents: BTreeMap<u64, Extent>,
    next_alloc: u64,
    bytes_written: u64,
}

impl Default for HostMemory {
    fn default() -> Self {
        HostMemory {
            extents: BTreeMap::new(),
            next_alloc: PAGE_SIZE as u64,
            bytes_written: 0,
        }
    }
}

/// One stored run of bytes: a window of a buffer landed as it came, or a
/// copy memory made (`owned`), which it grows and overwrites in place
/// while no other handle shares it.
struct Extent {
    bytes: Bytes,
    owned: bool,
}

impl Extent {
    fn len(&self) -> u64 {
        self.bytes.len() as u64
    }

    fn slice(&self, range: impl std::ops::RangeBounds<usize>) -> Extent {
        let bytes = self.bytes.slice(range);
        Extent { bytes, ..*self }
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

    /// Write a copy of `data` at `addr`.
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        self.bytes_written += data.len() as u64;
        if data.is_empty() {
            return;
        }
        let end = addr + data.len() as u64;
        // Inside a copy memory alone holds: overwrite it in place.
        if let Some((&at, e)) = self.extents.range_mut(..=addr).next_back() {
            if e.owned && at + e.len() >= end {
                if let Some(bytes) = e.bytes.try_mut() {
                    let off = (addr - at) as usize;
                    bytes[off..off + data.len()].copy_from_slice(data);
                    return;
                }
            }
        }
        self.clear(addr, end);
        self.put_copy(addr, data);
    }

    /// Land a DMA-written buffer at `addr`: kept as it is when other
    /// handles share it, copied when the caller's is the only one.
    pub(crate) fn land(&mut self, addr: u64, data: &Bytes) {
        if data.is_unique() {
            return self.write(addr, data);
        }
        self.bytes_written += data.len() as u64;
        self.clear(addr, addr + data.len() as u64);
        self.put_shared(addr, data.clone());
    }

    /// Write a copy of `data` at `addr` in the staging slot `slot`. The
    /// slot's first packet makes all of it one zeroed copy, which its
    /// packets, in whatever order, then overwrite in place.
    pub(crate) fn stage(&mut self, slot: Range<u64>, addr: u64, data: &[u8]) {
        let len = slot.end - slot.start;
        let held = self.extents.get(&slot.start);
        if !held.is_some_and(|e| e.owned && e.len() >= len) {
            self.clear(slot.start, slot.end);
            let (bytes, owned) = (Bytes::from(vec![0u8; len as usize]), true);
            self.extents.insert(slot.start, Extent { bytes, owned });
        }
        self.write(addr, data);
    }

    /// Remove every byte of `[lo, hi)`: extents it covers go, extents it
    /// cuts keep the parts outside it.
    fn clear(&mut self, lo: u64, hi: u64) {
        if lo >= hi {
            return; // an empty range cuts nothing
        }
        if let Some((&at, e)) = self.extents.range_mut(..lo).next_back() {
            let end = at + e.len();
            if end > lo {
                let tail = (end > hi).then(|| e.slice((hi - at) as usize..));
                *e = e.slice(..(lo - at) as usize);
                if let Some(tail) = tail {
                    self.extents.insert(hi, tail);
                    return;
                }
            }
        }
        while let Some((&at, _)) = self.extents.range(lo..hi).next() {
            let e = self.extents.remove(&at).expect("just found");
            let end = at + e.len();
            if end > hi {
                self.extents.insert(hi, e.slice((hi - at) as usize..));
            }
        }
    }

    /// Store a copy of `data` in the cleared range at `addr`, joined with
    /// the copies memory alone holds on either side: the one ending there
    /// grows in place, and the one starting right after is absorbed when
    /// it is no longer than `data` — copies land out of order too (a short
    /// last packet overtakes), but absorbing longer runs re-copies them
    /// each time the order is scrambled, as parity streams under load are.
    fn put_copy(&mut self, addr: u64, data: &[u8]) {
        let end = addr + data.len() as u64;
        let next = match self.extents.get(&end) {
            Some(next)
                if next.owned && next.len() <= data.len() as u64 && next.bytes.is_unique() =>
            {
                self.extents.remove(&end)
            }
            _ => None,
        };
        let next = next.as_ref().map_or(&[][..], |n| &n.bytes[..]);
        if let Some((&at, prev)) = self.extents.range_mut(..addr).next_back() {
            if prev.owned && at + prev.len() == addr && prev.bytes.try_extend(data) {
                prev.bytes.try_extend(next);
                return;
            }
        }
        let mut joined = Vec::with_capacity(data.len() + next.len());
        joined.extend_from_slice(data);
        joined.extend_from_slice(next);
        let bytes = Bytes::from(joined);
        self.extents.insert(addr, Extent { bytes, owned: true });
    }

    /// Store `bytes` in the cleared range at `addr`, joined with the
    /// neighbouring windows of the same buffer on either side.
    fn put_shared(&mut self, addr: u64, mut bytes: Bytes) {
        let end = addr + bytes.len() as u64;
        let next = self.extents.get(&end);
        if let Some(joined) = next.and_then(|next| bytes.try_join(&next.bytes)) {
            self.extents.remove(&end);
            bytes = joined;
        }
        if let Some((&at, prev)) = self.extents.range_mut(..addr).next_back() {
            if at + prev.len() == addr {
                if let Some(joined) = prev.bytes.try_join(&bytes) {
                    prev.bytes = joined;
                    return;
                }
            }
        }
        let owned = false;
        self.extents.insert(addr, Extent { bytes, owned });
    }

    /// The stored bytes within `[addr, addr + len)` in address order, each
    /// with its offset from `addr`; what lies between reads as zero.
    fn pieces(&self, addr: u64, len: usize) -> impl Iterator<Item = (usize, &[u8])> {
        let hi = addr + len as u64;
        let head = self.extents.range(..addr).next_back();
        let head = head.filter(|&(&at, e)| at + e.len() > addr);
        head.into_iter()
            .chain(self.extents.range(addr..hi))
            .map(move |(&at, e)| {
                let lo = at.max(addr);
                let end = (at + e.len()).min(hi);
                let piece = &e.bytes[(lo - at) as usize..(end - at) as usize];
                ((lo - addr) as usize, piece)
            })
    }

    /// Read `len` bytes at `addr`; untouched bytes read as zero.
    pub fn read(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        for (off, piece) in self.pieces(addr, len) {
            out.resize(off, 0);
            out.extend_from_slice(piece);
        }
        out.resize(len, 0);
        out
    }

    /// Read `out.len()` bytes at `addr` into a caller-owned buffer —
    /// the allocation-free variant of [`Self::read`] the streaming EC
    /// aggregation loops use. Untouched bytes read as zero.
    pub fn read_into(&self, addr: u64, out: &mut [u8]) {
        let mut filled = 0;
        for (off, piece) in self.pieces(addr, out.len()) {
            out[filled..off].fill(0);
            filled = off + piece.len();
            out[off..filled].copy_from_slice(piece);
        }
        out[filled..].fill(0);
    }

    /// Read `len` bytes at `addr` as a [`Bytes`]: a slice of the stored
    /// buffer when one extent holds the whole range, else a fresh copy.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Bytes {
        if len == 0 {
            return Bytes::new();
        }
        if let Some((&at, e)) = self.extents.range(..=addr).next_back() {
            let off = (addr - at) as usize;
            if off + len <= e.bytes.len() {
                return e.bytes.slice(off..off + len);
            }
        }
        Bytes::from(self.read(addr, len))
    }

    /// [`Self::read_bytes`], then forget the range: the region's owner is
    /// done with it.
    pub fn take(&mut self, addr: u64, len: usize) -> Bytes {
        let bytes = self.read_bytes(addr, len);
        self.free(addr, len as u64);
        bytes
    }

    /// Forget `len` bytes at `addr`; they read as zero again.
    pub fn free(&mut self, addr: u64, len: u64) {
        self.clear(addr, addr + len);
    }

    /// Total bytes ever written (diagnostic).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Number of distinct 4 KiB pages holding stored bytes (diagnostic;
    /// sparse footprint).
    pub fn resident_pages(&self) -> usize {
        let (mut pages, mut uncounted) = (0, 0);
        for (&at, e) in &self.extents {
            let first = (at >> PAGE_SHIFT).max(uncounted);
            let last = (at + e.len() - 1) >> PAGE_SHIFT;
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
