//! Recycled, length-tracked byte buffers for packet payloads.
//!
//! The streaming EC data path touches a buffer per packet (intermediate
//! parities, aggregation accumulators, DMA staging). Allocating each one
//! fresh puts the allocator on the per-packet critical path; a real NIC
//! instead cycles a fixed ring of buffers. [`BufPool`] models that
//! discipline: `get` hands out a zeroed buffer (reusing a retired
//! allocation when one is available), `put` retires a buffer for reuse.
//! Hit/miss counters make the steady-state allocation rate observable —
//! the `ec_throughput` benchmark asserts it reaches zero.
//!
//! The pool is deliberately dumb about sizing: any retired buffer whose
//! *capacity* covers a request can serve it (`get` length-tracks via
//! `Vec::resize`), so one pool serves mixed packet sizes (full MTU
//! payloads plus ragged tails).

use std::cell::RefCell;
use std::rc::Rc;

/// Counters exposed for benchmarks and diagnostics.
#[derive(Clone, Copy, Debug, Default)]
pub struct PoolStats {
    /// Buffers handed out.
    pub gets: u64,
    /// Handed out from the free list (no allocation).
    pub hits: u64,
    /// Handed out by allocating fresh (the free list was empty or too
    /// small).
    pub misses: u64,
    /// Buffers returned.
    pub puts: u64,
    /// Returned buffers dropped because the pool was at capacity.
    pub dropped: u64,
}

impl PoolStats {
    /// Fraction of `get`s served without allocating.
    pub fn hit_rate(&self) -> f64 {
        if self.gets == 0 {
            return 1.0;
        }
        self.hits as f64 / self.gets as f64
    }
}

/// Default cap on bytes retained per pool: enough for a deep ring of
/// chunk-sized staging buffers without letting recycled whole-block
/// payloads (which can be many MiB each) accumulate without bound.
pub const DEFAULT_MAX_RETAINED_BYTES: usize = 16 << 20;

/// Free buffers of one exact capacity, most recently retired last.
#[derive(Debug)]
struct SizeClass {
    cap: usize,
    bufs: Vec<Vec<u8>>,
}

/// Emptied size classes are pruned once the class list grows past this,
/// so a class that drains and refills every packet keeps its storage
/// while a long run's one-off tail sizes do not pile up.
const MAX_IDLE_CLASSES: usize = 64;

/// A pool of recycled byte buffers. Single-threaded (the simulator is a
/// single-threaded event loop); share it as a [`SharedBufPool`].
///
/// Free buffers are grouped by capacity and the groups kept sorted, so
/// `get` is a binary search over the handful of distinct capacities in
/// play (best fit) and `put` a push — neither moves the thousands of
/// same-sized packet buffers a cluster-wide ring holds.
#[derive(Debug)]
pub struct BufPool {
    /// Size classes by ascending capacity; a class may be empty.
    free: Vec<SizeClass>,
    /// Free buffers over all classes.
    available: usize,
    /// Maximum retired buffers retained; beyond this, `put` drops.
    max_retained: usize,
    /// Maximum total capacity retained (bounds memory when block-sized
    /// payloads recycle through a ring sized in buffer counts).
    max_retained_bytes: usize,
    /// Total capacity currently on the free list.
    retained_bytes: usize,
    stats: PoolStats,
}

/// Shared handle; one per cluster (or per stand-alone NIC or benchmark
/// loop).
pub type SharedBufPool = Rc<RefCell<BufPool>>;

impl BufPool {
    /// New pool retaining at most `max_retained` free buffers and
    /// [`DEFAULT_MAX_RETAINED_BYTES`] of capacity.
    pub fn new(max_retained: usize) -> BufPool {
        BufPool::with_byte_cap(max_retained, DEFAULT_MAX_RETAINED_BYTES)
    }

    /// New pool with an explicit retained-capacity budget.
    pub fn with_byte_cap(max_retained: usize, max_retained_bytes: usize) -> BufPool {
        BufPool {
            free: Vec::new(),
            available: 0,
            max_retained,
            max_retained_bytes,
            retained_bytes: 0,
            stats: PoolStats::default(),
        }
    }

    /// New pool behind a shared handle.
    pub fn shared(max_retained: usize) -> SharedBufPool {
        Rc::new(RefCell::new(BufPool::new(max_retained)))
    }

    /// Best-fit take: a free buffer of the smallest capacity ≥ `len`
    /// (binary search over the size classes), so a handful of jumbo
    /// buffers don't get nibbled away by small requests.
    fn take_fit(&mut self, len: usize) -> Option<Vec<u8>> {
        let i = self.free.partition_point(|c| c.cap < len);
        let buf = self.free[i..].iter_mut().find_map(|c| c.bufs.pop())?;
        self.available -= 1;
        self.retained_bytes -= buf.capacity();
        Some(buf)
    }

    /// A zeroed buffer of exactly `len` bytes, recycled when possible.
    pub fn get(&mut self, len: usize) -> Vec<u8> {
        self.stats.gets += 1;
        match self.take_fit(len) {
            Some(mut buf) => {
                self.stats.hits += 1;
                buf.clear();
                buf.resize(len, 0);
                buf
            }
            None => {
                self.stats.misses += 1;
                vec![0u8; len]
            }
        }
    }

    /// A buffer of exactly `len` bytes with **unspecified contents** —
    /// for callers that overwrite every byte (e.g. a full-slice multiply
    /// or DMA read), skipping `get`'s zero fill on the hot path.
    pub fn get_dirty(&mut self, len: usize) -> Vec<u8> {
        self.stats.gets += 1;
        match self.take_fit(len) {
            Some(mut buf) => {
                self.stats.hits += 1;
                if buf.len() >= len {
                    buf.truncate(len);
                } else {
                    buf.resize(len, 0); // only the extension is filled
                }
                buf
            }
            None => {
                self.stats.misses += 1;
                vec![0u8; len]
            }
        }
    }

    /// An **empty** buffer with capacity ≥ `cap` — for callers that grow
    /// it incrementally (e.g. multi-packet message reassembly) and want
    /// the backing allocation recycled rather than fresh.
    pub fn get_spare(&mut self, cap: usize) -> Vec<u8> {
        self.stats.gets += 1;
        match self.take_fit(cap) {
            Some(mut buf) => {
                self.stats.hits += 1;
                buf.clear();
                buf
            }
            None => {
                self.stats.misses += 1;
                Vec::with_capacity(cap)
            }
        }
    }

    /// Retire a buffer for reuse. Zero-capacity buffers are dropped (there
    /// is nothing to reuse); beyond the count or byte budget the buffer is
    /// freed instead.
    pub fn put(&mut self, buf: Vec<u8>) {
        self.stats.puts += 1;
        let cap = buf.capacity();
        if cap == 0
            || self.available >= self.max_retained
            || self.retained_bytes + cap > self.max_retained_bytes
        {
            self.stats.dropped += 1;
            return;
        }
        self.available += 1;
        self.retained_bytes += cap;
        let mut i = self.free.partition_point(|c| c.cap < cap);
        if self.free.get(i).is_some_and(|c| c.cap == cap) {
            self.free[i].bufs.push(buf);
            return;
        }
        if self.free.len() >= MAX_IDLE_CLASSES {
            self.free.retain(|c| !c.bufs.is_empty());
            i = self.free.partition_point(|c| c.cap < cap);
        }
        let bufs = vec![buf];
        self.free.insert(i, SizeClass { cap, bufs });
    }

    /// Buffers currently available for reuse.
    pub fn available(&self) -> usize {
        self.available
    }

    /// Total capacity (bytes) currently retained on the free list.
    pub fn retained_bytes(&self) -> usize {
        self.retained_bytes
    }

    /// The retained-capacity budget this pool was built with.
    pub fn max_retained_bytes(&self) -> usize {
        self.max_retained_bytes
    }

    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Reset the counters (buffers stay pooled) — lets a benchmark measure
    /// the steady state separately from warmup.
    pub fn reset_stats(&mut self) {
        self.stats = PoolStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_put_cycle_reuses_allocation() {
        let mut p = BufPool::new(8);
        let a = p.get(100);
        assert_eq!(a.len(), 100);
        let ptr = a.as_ptr();
        p.put(a);
        let b = p.get(64);
        assert_eq!(b.len(), 64);
        assert_eq!(b.as_ptr(), ptr, "smaller request reuses the buffer");
        let s = p.stats();
        assert_eq!((s.gets, s.hits, s.misses), (2, 1, 1));
    }

    #[test]
    fn recycled_buffers_come_back_zeroed() {
        let mut p = BufPool::new(8);
        let mut a = p.get(16);
        a.fill(0xFF);
        p.put(a);
        let b = p.get(16);
        assert_eq!(b, vec![0u8; 16]);
    }

    #[test]
    fn best_fit_prefers_smallest_adequate_buffer() {
        let mut p = BufPool::new(8);
        let big = Vec::with_capacity(4096);
        let small = Vec::with_capacity(128);
        p.put(big);
        p.put(small);
        let b = p.get(64);
        assert!(b.capacity() < 4096, "small request must not take the jumbo");
        let j = p.get(2048);
        assert!(j.capacity() >= 4096, "jumbo still available for a big ask");
    }

    #[test]
    fn capacity_cap_drops_excess() {
        let mut p = BufPool::new(2);
        for _ in 0..4 {
            p.put(Vec::with_capacity(10));
        }
        assert_eq!(p.available(), 2);
        assert_eq!(p.stats().dropped, 2);
    }

    #[test]
    fn byte_budget_bounds_retained_memory() {
        let mut p = BufPool::with_byte_cap(256, 1000);
        p.put(Vec::with_capacity(600));
        p.put(Vec::with_capacity(600)); // would exceed 1000 retained bytes
        assert_eq!(p.available(), 1);
        assert_eq!(p.stats().dropped, 1);
        assert!(p.retained_bytes() <= 1000);
        // Draining the pool frees the budget again.
        let b = p.get(600);
        assert_eq!(p.retained_bytes(), 0);
        p.put(b);
        assert_eq!(p.available(), 1);
    }

    #[test]
    fn get_dirty_skips_zeroing_but_tracks_length() {
        let mut p = BufPool::new(8);
        let mut a = p.get(32);
        a.fill(0xAB);
        p.put(a);
        let d = p.get_dirty(16);
        assert_eq!(d.len(), 16);
        assert_eq!(d, vec![0xAB; 16], "contents are unspecified, not zeroed");
        p.put(d);
        let grown = p.get_dirty(24);
        assert_eq!(grown.len(), 24);
        assert_eq!(&grown[..16], &[0xAB; 16][..]);
    }

    #[test]
    fn get_spare_returns_empty_recycled_capacity() {
        let mut p = BufPool::new(8);
        let mut a = p.get(256);
        a.fill(0x7F);
        let ptr = a.as_ptr();
        p.put(a);
        let s = p.get_spare(100);
        assert!(s.is_empty());
        assert!(s.capacity() >= 100);
        assert_eq!(s.as_ptr(), ptr, "reuses the retired allocation");
        assert_eq!(p.stats().hits, 1);
        let fresh = p.get_spare(64);
        assert!(fresh.is_empty() && fresh.capacity() >= 64);
        assert_eq!(p.stats().misses, 2, "initial get plus the empty-pool spare");
    }

    #[test]
    fn too_small_free_buffer_is_a_miss_not_a_panic() {
        let mut p = BufPool::new(8);
        p.put(Vec::with_capacity(8));
        let b = p.get(1024);
        assert_eq!(b.len(), 1024);
        assert_eq!(p.stats().misses, 1);
        assert_eq!(p.available(), 1, "small buffer stays pooled");
    }

    #[test]
    fn idle_size_classes_are_pruned_not_accumulated() {
        let mut p = BufPool::new(4096);
        // A long run's one-off tail sizes: each retires once and is
        // taken again, leaving its class empty.
        for cap in 1..=1000usize {
            p.put(Vec::with_capacity(cap));
            assert_eq!(p.get_spare(cap).capacity(), cap);
        }
        assert_eq!(p.available(), 0);
        assert!(p.free.len() <= MAX_IDLE_CLASSES, "{} classes", p.free.len());
        // Live classes survive the pruning, in capacity order.
        for cap in [300usize, 100, 200] {
            p.put(Vec::with_capacity(cap));
        }
        for cap in 1001..=1100usize {
            p.put(Vec::with_capacity(cap));
            p.get_spare(cap);
        }
        assert_eq!(p.available(), 3);
        assert_eq!(p.get_spare(150).capacity(), 200);
        assert_eq!(p.get_spare(1).capacity(), 100);
        assert_eq!(p.get_spare(1).capacity(), 300);
        assert_eq!(p.retained_bytes(), 0);
    }

    #[test]
    fn hit_rate_reporting() {
        let mut p = BufPool::new(8);
        assert_eq!(p.stats().hit_rate(), 1.0, "vacuous before any get");
        let a = p.get(10);
        p.put(a);
        let _b = p.get(10);
        assert_eq!(p.stats().hit_rate(), 0.5);
        p.reset_stats();
        assert_eq!(p.stats().gets, 0);
    }
}
