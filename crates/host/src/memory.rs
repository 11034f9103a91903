//! Host memory: the storage target behind each storage node's NIC.
//!
//! The paper deliberately abstracts the storage medium ("we assume that the
//! storage medium can digest data at network bandwidth or higher", §III) —
//! for in-memory/NVMM file systems handlers write directly to main memory.
//! We model exactly that: a sparse, page-granular byte store that actually
//! holds the written bytes, so integration tests can verify that replicas
//! are byte-identical and parity chunks are algebraically correct.

use std::cell::RefCell;
use std::rc::Rc;

use nadfs_simnet::IdMap;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Sparse byte-addressable memory with a bump allocator.
pub struct HostMemory {
    pages: IdMap<u64, Box<[u8; PAGE_SIZE]>>,
    next_alloc: u64,
    bytes_written: u64,
}

impl Default for HostMemory {
    fn default() -> Self {
        HostMemory {
            pages: IdMap::default(),
            next_alloc: PAGE_SIZE as u64,
            bytes_written: 0,
        }
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

    /// Write `data` at `addr`, creating pages on demand.
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        self.bytes_written += data.len() as u64;
        let mut off = 0usize;
        while off < data.len() {
            let a = addr + off as u64;
            let page = a >> PAGE_SHIFT;
            let in_page = (a as usize) & (PAGE_SIZE - 1);
            let n = (PAGE_SIZE - in_page).min(data.len() - off);
            let p = self
                .pages
                .entry(page)
                .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
            p[in_page..in_page + n].copy_from_slice(&data[off..off + n]);
            off += n;
        }
    }

    /// Read `len` bytes at `addr`; untouched bytes read as zero.
    pub fn read(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let a = addr + out.len() as u64;
            let page = a >> PAGE_SHIFT;
            let in_page = (a as usize) & (PAGE_SIZE - 1);
            let n = (PAGE_SIZE - in_page).min(len - out.len());
            match self.pages.get(&page) {
                Some(p) => out.extend_from_slice(&p[in_page..in_page + n]),
                None => out.resize(out.len() + n, 0),
            }
        }
        out
    }

    /// Read `out.len()` bytes at `addr` into a caller-owned buffer —
    /// the allocation-free variant of [`Self::read`] the streaming EC
    /// aggregation loops use. Untouched bytes read as zero.
    pub fn read_into(&self, addr: u64, out: &mut [u8]) {
        let len = out.len();
        let mut off = 0usize;
        while off < len {
            let a = addr + off as u64;
            let page = a >> PAGE_SHIFT;
            let in_page = (a as usize) & (PAGE_SIZE - 1);
            let n = (PAGE_SIZE - in_page).min(len - off);
            match self.pages.get(&page) {
                Some(p) => out[off..off + n].copy_from_slice(&p[in_page..in_page + n]),
                None => out[off..off + n].fill(0),
            }
            off += n;
        }
    }

    /// XOR `data` into memory at `addr` (used by CPU-side EC aggregation
    /// fallback and by the firmware EC engine model).
    pub fn xor_in(&mut self, addr: u64, data: &[u8]) {
        let mut cur = self.read(addr, data.len());
        for (c, d) in cur.iter_mut().zip(data) {
            *c ^= d;
        }
        self.write(addr, &cur);
    }

    /// Total bytes ever written (diagnostic).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Number of resident pages (diagnostic; sparse footprint).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
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
    fn xor_in_accumulates() {
        let m = HostMemory::new();
        m.borrow_mut().xor_in(64, &[0b1010, 0b1111]);
        m.borrow_mut().xor_in(64, &[0b0110, 0b1111]);
        assert_eq!(m.borrow().read(64, 2), vec![0b1100, 0b0000]);
    }

    #[test]
    fn overlapping_writes_last_wins() {
        let m = HostMemory::new();
        m.borrow_mut().write(0, &[1, 1, 1, 1]);
        m.borrow_mut().write(1, &[2, 2]);
        assert_eq!(m.borrow().read(0, 4), vec![1, 2, 2, 1]);
        assert_eq!(m.borrow().bytes_written(), 6);
    }
}
