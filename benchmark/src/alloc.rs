//! Counting global allocator: every heap allocation (and reallocation)
//! the process makes bumps a relaxed atomic. Always on, so both sides of
//! a comparison pay the same one instruction; exact, so
//! `host_allocs_per_op` repeats bit-for-bit for a given seed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

pub struct CountingAlloc;

// Relaxed: the count publishes no other data, it is only read back by
// the thread that did the allocating.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Heap allocations made by this process so far.
pub fn count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    #[test]
    fn counts_each_allocation_once() {
        // The test binary installs the same allocator (see main.rs).
        // Other test threads allocate too, so assert a lower bound.
        let before = super::count();
        let v: Vec<Box<u64>> = (0..100).map(Box::new).collect();
        std::hint::black_box(&v);
        let after = super::count();
        assert!(after - before >= 101, "saw {} allocations", after - before);
    }
}
