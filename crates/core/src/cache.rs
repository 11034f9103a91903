//! Client-side read cache + readahead, keyed by the extent-map
//! generation.
//!
//! Every `read_at` the cache absorbs skips the whole uncached pipeline: a
//! control-plane resolve, a capability header, the per-stripe fan-out of
//! one-sided reads, and — for degraded ranges — a full k-shard
//! reconstruction. This is the Lustre/AsyncFS-style client cache the
//! roadmap seeds, with invalidation made *precise* by the generation
//! counter PR 4 threaded through commits and repair re-homing
//! ([`nadfs_meta::ExtentMap::generation`]): every cached byte range is
//! tagged with the generation of the [`ReadPlan`] that fetched it, and a
//! [`MetaEvent::LayoutChanged`] callback for a newer generation drops
//! exactly the affected file — nothing else.
//!
//! Coherence invariants:
//!
//! * **Fill**: bytes enter the cache from a completed read or write only
//!   while their generation is the file's live one at the control plane
//!   ([`ControlPlane::live_generation`]): a fetch that an invalidation or
//!   an unlink overtook never resurrects stale bytes, and the cache keeps
//!   no generation of a file it holds nothing of.
//! * **Invalidate**: any commit, overwrite, or repair re-homing bumps the
//!   file's generation; the control plane fans the event to every
//!   registered cache over the same callback channel namespace mutations
//!   ride. Unlink/rename-replace publish `generation == u64::MAX`,
//!   dropping the file unconditionally.
//! * **EOF**: a short read proves where the committed EOF was at that
//!   generation, so repeat reads past EOF (and EOF-clamped tails) are
//!   served locally too. Size can only move with a commit, which bumps
//!   the generation, so a cached EOF is exactly as fresh as the data.
//!
//! Readahead is overfetch-based: the client driver asks
//! [`ReadCache::plan_readahead`] how far past a missing range to fetch.
//! Sequential streams (detected by `offset == previous end`) ramp the
//! window multiplicatively up to a cap; random access fetches exactly
//! what was asked. The overfetched bytes land in the cache, so a
//! streaming reader alternates one fan-out miss with a run of local hits.
//!
//! Read fills are copied once, into the file's current *run*: one
//! allocation of fixed capacity ([`BytesRun`]) that never reallocates, so
//! each fill is a frozen window of it. A fill that abuts the span before
//! it in the same run joins that span without a copy, so a sequential
//! stream is one span per run and a hit that crosses two of its fills is
//! a slice like any other; only a hit that crosses two runs (or two
//! write-through buffers) is stitched into a fresh buffer.
//!
//! [`MetaEvent::LayoutChanged`]: crate::control::MetaEvent::LayoutChanged
//! [`ControlPlane::live_generation`]: crate::control::ControlPlane::live_generation
//! [`ReadPlan`]: nadfs_meta::ReadPlan

use std::collections::BTreeMap;

use bytes::{BufMut, Bytes, BytesRun, RunTail};
use nadfs_simnet::IdMap;

/// Cap on cached payload bytes per client: least-recently-used *other*
/// files are evicted first, then the freshly-filled file's own coldest
/// (lowest-offset) bytes are trimmed, so even a single long sequential
/// scan stays bounded.
const CAPACITY_BYTES: usize = 16 << 20;
/// First readahead window granted to a detected sequential stream.
const READAHEAD_INIT: u32 = 64 << 10;
/// Ceiling the per-stream window ramps to (doubling per miss while the
/// stream stays sequential).
const READAHEAD_MAX: u32 = 1 << 20;
/// Most bytes one run holds: two full readahead fills, so a stream at its
/// ceiling opens a run every second fill. (16 MiB runs were a quarter
/// slower on `read_hot_cached`: the allocator serves a block that size
/// from a fresh mapping every time.)
const RUN_BYTES: usize = 2 * READAHEAD_MAX as usize;

nadfs_simnet::declare_stats! {
    /// Observable cache behavior (asserted by tests, reported by benches).
    #[derive(Clone, Copy, Debug, Default)]
    pub struct ReadCacheStats {
        /// Lookups served entirely from client memory.
        pub hits: u64 => counter,
        /// Hits that had to copy: the range straddled cached spans of two
        /// buffers (two runs, or write-through payloads), so the bytes were
        /// stitched into a fresh buffer. Every other hit is a slice of the
        /// span's own buffer.
        pub stitched_hits: u64 => counter,
        /// Lookups that had to go to the network.
        pub misses: u64 => counter,
        /// Bytes served from cache (EOF-clamped: what the caller got).
        pub(crate) hit_bytes: u64 => counter,
        /// Files dropped by generation callbacks (commit/overwrite/repair).
        pub invalidations: u64 => counter,
        /// Fills discarded because the file's generation moved (or the file
        /// went) while the fetch was in flight: the stale-resurrection guard.
        pub(crate) stale_fills: u64 => counter,
        /// Files evicted by the capacity cap.
        pub(crate) evictions: u64 => counter,
        /// Bytes inserted into the cache (fills, including readahead).
        pub(crate) inserted_bytes: u64 => counter,
        /// Bytes fetched beyond what callers asked for (readahead volume).
        pub readahead_bytes: u64 => counter,
        /// Fills populated straight from a locally written payload
        /// (write-through), making read-after-write a local hit.
        pub write_fills: u64 => counter,
        /// Control-plane prefetch advisories received.
        pub hints: u64 => counter,
        /// Readahead plans boosted by a prefetch advisory.
        pub(crate) hint_boosts: u64 => counter,
    }
}

impl ReadCacheStats {
    /// Hit fraction over all lookups (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// What a [`ReadCache::lookup`] hit serves.
#[derive(Clone, Debug)]
pub struct CachedRead {
    /// The bytes (possibly shorter than requested when the cached EOF
    /// clamps the range, exactly like a short `pread`): a slice of the
    /// cached span's buffer, or a stitched copy when the range straddles
    /// spans of two buffers.
    pub data: Bytes,
    /// Generation of the extent map the bytes were fetched under.
    pub generation: u64,
}

/// Cached state of one file: disjoint byte spans plus the committed EOF
/// when a short read has proven it.
struct FileCache {
    generation: u64,
    /// Disjoint spans keyed by start offset. Overlapping fills merge;
    /// exactly-adjacent fills join when they are windows of one buffer
    /// (successive fills of one run, the sequential-readahead shape) and
    /// stay separate otherwise, so nothing is re-copied to coalesce —
    /// lookups stitch across abutting spans of two buffers.
    spans: BTreeMap<u64, Bytes>,
    /// The run this file's read fills are copied into, if one is open.
    run: Option<BytesRun>,
    bytes: usize,
    /// Committed size, once a clamped read has revealed it. Valid for as
    /// long as the generation holds (size only moves with a commit, and
    /// every commit bumps the generation).
    eof: Option<u64>,
    /// LRU clock value of the last touch.
    touched: u64,
}

impl FileCache {
    /// Copy the `len` bytes `put` writes to the end of the file's run. A
    /// fill that does not fit fills the run's rest and goes on in a new
    /// run of [`RUN_BYTES`] (or of what is left of the fill, if that is
    /// more), so every run is filled to its end.
    fn append(&mut self, len: usize, put: impl FnOnce(&mut dyn BufMut)) -> Filled {
        let room = self.run.as_ref().map_or(0, BytesRun::remaining);
        if len <= room {
            let run = self.run.as_mut().expect("an open run");
            let head = run.append_with(len, |tail| put(tail)).expect("room");
            return Filled::one(head);
        }
        let mut next = BytesRun::with_capacity((len - room).max(RUN_BYTES));
        let filled = match self.run.as_mut().filter(|_| room > 0) {
            None => Filled::one(next.append_with(len, |tail| put(tail)).expect("room")),
            Some(run) => {
                let mut rest = None;
                let head = run.append_with(room, |head| {
                    let split = |tail: &mut RunTail<'_>| {
                        put(&mut Split {
                            head,
                            tail,
                            left: room,
                        })
                    };
                    rest = next.append_with(len - room, split);
                });
                Filled {
                    head: head.expect("the open run's room"),
                    rest: rest.expect("the new run's room"),
                }
            }
        };
        self.run = Some(next);
        filled
    }
}

/// The tails of two runs as one [`BufMut`]: the first `left` bytes put
/// go to `head`, the rest to `tail`.
struct Split<'a> {
    head: &'a mut dyn BufMut,
    tail: &'a mut dyn BufMut,
    left: usize,
}

impl BufMut for Split<'_> {
    fn put_slice(&mut self, s: &[u8]) {
        let (head, tail) = s.split_at(s.len().min(self.left));
        self.left -= head.len();
        self.head.put_slice(head);
        self.tail.put_slice(tail);
    }

    fn put_bytes(&mut self, val: u8, cnt: usize) {
        let head = cnt.min(self.left);
        self.left -= head;
        self.head.put_bytes(val, head);
        self.tail.put_bytes(val, cnt - head);
    }
}

/// A fill's bytes as the cache keeps them: a window of one run, and a
/// window of the next when the fill ran on into it (else empty).
pub(crate) struct Filled {
    head: Bytes,
    rest: Bytes,
}

impl Filled {
    fn one(head: Bytes) -> Filled {
        let rest = Bytes::new();
        Filled { head, rest }
    }

    fn len(&self) -> usize {
        self.head.len() + self.rest.len()
    }

    /// The fill's first `n` bytes: a slice of the head window, or a copy
    /// when they run on into the rest.
    pub(crate) fn prefix(&self, n: usize) -> Bytes {
        if n <= self.head.len() {
            return self.head.slice(..n);
        }
        let mut data = Vec::with_capacity(n);
        data.extend_from_slice(&self.head);
        data.extend_from_slice(&self.rest[..n - self.head.len()]);
        Bytes::from(data)
    }
}

/// Per-file sequential-stream detector state.
#[derive(Clone, Copy, Debug, Default)]
struct StreamState {
    /// Offset one past the end of the last access.
    next_expected: u64,
    /// Current readahead window (0 until the stream looks sequential).
    window: u32,
    /// At least one access has been seen (so `next_expected` means
    /// something).
    primed: bool,
    /// Whether the most recent access continued the stream.
    last_sequential: bool,
}

/// The per-client read cache. One instance hangs off each
/// [`crate::client::ClientApp`] (probed and filled by the read op in
/// `client/read.rs`, filled write-through by `client/write.rs`) and is
/// registered with the control plane for generation callbacks at cluster
/// build time.
#[derive(Default)]
pub struct ReadCache {
    pub stats: ReadCacheStats,
    /// `enforce_capacity` picks its victim by iterating this table, and
    /// the pick does not depend on the iteration order: every `touched`
    /// is a distinct tick of `clock` (one tick per lookup or fill, stamped
    /// on one file), so the minimum is unique.
    files: IdMap<u64, FileCache>,
    /// Cached payload bytes over all files (the sum of their `bytes`).
    total_bytes: usize,
    streams: IdMap<u64, StreamState>,
    /// Control-plane prefetch advisories: per file, the range some client
    /// (maybe this one) is about to scan. Consumed by the next
    /// [`ReadCache::plan_readahead`] for the file.
    hints: IdMap<u64, (u64, u32)>,
    clock: u64,
}

impl ReadCache {
    /// Cached payload bytes currently held.
    pub fn cached_bytes(&self) -> usize {
        self.total_bytes
    }

    /// Drop everything cached for `file`.
    fn drop_file(&mut self, file: u64) {
        if let Some(f) = self.files.remove(&file) {
            self.total_bytes -= f.bytes;
        }
    }

    /// Number of files with cached data.
    pub fn cached_files(&self) -> usize {
        self.files.len()
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Serve `[offset, offset + len)` of `file` from cache, or report a
    /// miss. A hit requires every byte up to the (possibly EOF-clamped)
    /// end to be cached, in one span or in exactly-abutting ones; reads
    /// entirely past a known EOF hit with zero bytes. Updates hit/miss
    /// stats and the sequential-stream tracker.
    pub fn lookup(&mut self, file: u64, offset: u64, len: u32) -> Option<CachedRead> {
        let now = self.tick();
        let result = self.try_serve(file, offset, len, now);
        match &result {
            Some(r) => {
                self.stats.hits += 1;
                self.stats.hit_bytes += r.data.len() as u64;
            }
            None => self.stats.misses += 1,
        }
        self.note_access(file, offset, len);
        result
    }

    fn try_serve(&mut self, file: u64, offset: u64, len: u32, now: u64) -> Option<CachedRead> {
        let f = self.files.get_mut(&file)?;
        // Clamp like resolve_read does: a known EOF shortens the request;
        // without one the full range must be covered.
        let want_end = offset.saturating_add(len as u64);
        let end = match f.eof {
            Some(eof) => want_end.min(eof.max(offset)),
            None => want_end,
        };
        let served = (end - offset) as usize;
        if served == 0 {
            // Entirely past the committed EOF: an empty short read,
            // answerable with no data at all.
            f.touched = now;
            return Some(CachedRead {
                data: Bytes::new(),
                generation: f.generation,
            });
        }
        let (&start, span) = f.spans.range(..=offset).next_back()?;
        let span_end = start + span.len() as u64;
        if span_end <= offset {
            return None;
        }
        let lo = (offset - start) as usize;
        let data = if span_end >= end {
            // Inside one span: hand out a slice of its buffer.
            span.slice(lo..lo + served)
        } else {
            // Stitch across spans: adjacent fills are stored separately
            // (so sequential streams never pay a re-coalescing copy), so
            // a hit may cross several exactly-abutting spans.
            let mut data = Vec::with_capacity(served);
            data.extend_from_slice(&span[lo..]);
            let mut pos = span_end;
            for (&s, v) in f.spans.range(span_end..) {
                if pos >= end {
                    break;
                }
                if s != pos {
                    return None; // gap inside the requested range
                }
                let take = ((end - pos) as usize).min(v.len());
                data.extend_from_slice(&v[..take]);
                pos += take as u64;
            }
            if pos < end {
                return None;
            }
            self.stats.stitched_hits += 1;
            Bytes::from(data)
        };
        f.touched = now;
        Some(CachedRead {
            data,
            generation: f.generation,
        })
    }

    /// Record an access for sequential-stream detection (both hits and
    /// misses advance the stream).
    fn note_access(&mut self, file: u64, offset: u64, len: u32) {
        let s = self.streams.entry(file).or_default();
        let sequential = s.primed && offset == s.next_expected;
        if !sequential {
            s.window = 0; // the stream broke (or just started)
        }
        s.last_sequential = sequential;
        s.primed = true;
        s.next_expected = offset.saturating_add(len as u64);
    }

    /// How many bytes past `offset + len` the driver should overfetch for
    /// this miss. Zero for random access; a multiplicatively ramping
    /// window for sequential streams. Call *after* [`Self::lookup`]
    /// missed (lookup advances the stream tracker this consults).
    pub(crate) fn plan_readahead(&mut self, file: u64, offset: u64, len: u32) -> u32 {
        let (last_sequential, window) = {
            let s = self.streams.entry(file).or_default();
            (s.last_sequential, s.window)
        };
        let mut w = if !last_sequential {
            0
        } else if window == 0 {
            READAHEAD_INIT
        } else {
            window.saturating_mul(2).min(READAHEAD_MAX)
        };
        // A control-plane prefetch advisory can grant (or widen) a window
        // even before the local stream detector warms up — e.g. when
        // another client's scan of the same file taught the control plane
        // the access pattern. One-shot: consumed by the first plan.
        if let Some(&(h_off, h_len)) = self.hints.get(&file) {
            let tail = offset.saturating_add(len as u64);
            let h_end = h_off.saturating_add(h_len as u64);
            if h_off <= tail && h_end > tail {
                let boost = ((h_end - tail) as u32).min(READAHEAD_MAX);
                if boost > w {
                    w = boost;
                    self.stats.hint_boosts += 1;
                }
                self.hints.remove(&file);
            }
        }
        if w > 0 {
            self.streams.entry(file).or_default().window = w;
        }
        w
    }

    /// Control-plane prefetch advisory: some client is sequentially
    /// scanning `file` and is about to need `[offset, offset + len)`.
    pub(crate) fn note_hint(&mut self, file: u64, offset: u64, len: u32) {
        self.stats.hints += 1;
        self.hints.insert(file, (offset, len));
    }

    /// Write-through population: a locally acknowledged write's payload
    /// enters the cache under the file's `live` (post-commit) generation,
    /// so read-after-write is a local hit; `None` (the file went while the
    /// write was in flight) refuses the fill.
    pub(crate) fn fill_from_write(&mut self, file: u64, live: Option<u64>, at: u64, data: Bytes) {
        self.stats.write_fills += 1;
        let len = data.len() as u32;
        match live {
            Some(generation) => self.fill_shared(file, generation, at, data, len),
            None => self.stats.stale_fills += 1,
        }
    }

    /// [`Self::fill_shared`] for a caller that only has the bytes on
    /// loan: copies them into the file's run.
    pub fn fill(
        &mut self,
        file: u64,
        generation: u64,
        offset: u64,
        data: &[u8],
        requested_len: u32,
    ) {
        let put = |tail: &mut dyn BufMut| tail.put_slice(data);
        self.fill_with(file, generation, offset, data.len(), requested_len, put);
    }

    /// [`Self::fill_shared`] with `len` bytes that `put` writes, in
    /// order, to the end of the file's run: the bytes cached, or `None`,
    /// without calling `put`, when the fill is older than what the cache
    /// holds of the file. The read path copies a landed response in this
    /// way, once.
    pub(crate) fn fill_with(
        &mut self,
        file: u64,
        generation: u64,
        offset: u64,
        len: usize,
        requested_len: u32,
        put: impl FnOnce(&mut dyn BufMut),
    ) -> Option<Filled> {
        let now = self.tick();
        let f = self.admit(file, generation, now)?;
        let filled = if len == 0 {
            Filled::one(Bytes::new())
        } else {
            f.append(len, put)
        };
        self.store(file, offset, &filled, requested_len);
        Some(filled)
    }

    /// Fill the cache with bytes fetched under `generation`; the cache
    /// keeps a reference to `data`'s buffer, not a copy.
    /// `requested_len` is what the fetch asked for; when `data` came back
    /// shorter, the clamp proves the committed EOF at `offset +
    /// data.len()`. A fill older than what the cache holds of the file
    /// is discarded; whether `generation` is still live is the caller's
    /// to check (the client asks the control plane).
    pub fn fill_shared(
        &mut self,
        file: u64,
        generation: u64,
        offset: u64,
        data: Bytes,
        requested_len: u32,
    ) {
        let now = self.tick();
        if self.admit(file, generation, now).is_some() {
            self.store(file, offset, &Filled::one(data), requested_len);
        }
    }

    /// The entry a fill of `file` at `generation` goes into, touched at
    /// `now`; `None`, counting a stale fill, when the cache holds a newer
    /// generation of the file.
    fn admit(&mut self, file: u64, generation: u64, now: u64) -> Option<&mut FileCache> {
        let f = self.files.entry(file).or_insert_with(|| FileCache {
            generation,
            spans: BTreeMap::new(),
            run: None,
            bytes: 0,
            eof: None,
            touched: now,
        });
        if f.generation < generation {
            // A newer fill supersedes everything cached at the old
            // generation (the invalidation event may still be in flight).
            f.spans.clear();
            self.total_bytes -= f.bytes;
            f.bytes = 0;
            f.eof = None;
            f.generation = generation;
        } else if f.generation > generation {
            self.stats.stale_fills += 1;
            return None;
        }
        f.touched = now;
        Some(f)
    }

    /// Cache `filled` at `offset` of `file`, which [`Self::admit`] took,
    /// learn the EOF a clamped fetch proves, and enforce the cap.
    fn store(&mut self, file: u64, offset: u64, filled: &Filled, requested_len: u32) {
        let f = self.files.get_mut(&file).expect("an admitted file");
        let len = filled.len();
        if (len as u32) < requested_len {
            // The fetch was EOF-clamped. With data this pins the
            // committed size exactly; an empty fetch only proves
            // `size <= offset`. Either way the candidate is an upper
            // bound, so min-merging tightens toward the true size and a
            // past-EOF probe can never *loosen* a previously learned
            // (smaller, exact) EOF.
            let cand = offset + len as u64;
            f.eof = Some(f.eof.map_or(cand, |e| e.min(cand)));
        }
        if len > 0 {
            self.stats.inserted_bytes += len as u64;
            self.total_bytes -= f.bytes;
            let rest_at = offset + filled.head.len() as u64;
            for (at, data) in [(offset, &filled.head), (rest_at, &filled.rest)] {
                if !data.is_empty() {
                    Self::insert_span(f, at, data.clone());
                }
            }
            self.total_bytes += f.bytes;
        }
        self.enforce_capacity(file);
    }

    /// Insert `[offset, offset + data.len())`, merging any *overlapping*
    /// spans (new bytes win overlaps — at equal generation the bytes are
    /// identical anyway). An exactly-adjacent span joins the new one when
    /// both are windows of one buffer, which costs no copy; one of another
    /// buffer is left separate, as copying them together would re-copy a
    /// whole accumulated stream on every fill, and lookups stitch across
    /// it instead. A fill that overlaps nothing, or covers everything it
    /// overlaps, is stored as it came; only one that leaves part of an old
    /// span sticking out copies.
    fn insert_span(f: &mut FileCache, offset: u64, data: Bytes) {
        let end = offset + data.len() as u64;
        // Every span that overlaps the new range: the one starting at or
        // before `offset` if it reaches past it, and all starting inside.
        let first = match f.spans.range(..=offset).next_back() {
            Some((&s, v)) if s + v.len() as u64 > offset => s,
            _ => offset,
        };
        let absorb: Vec<u64> = f.spans.range(first..end).map(|(&s, _)| s).collect();
        // What the old spans hold outside the new range.
        let (mut head, mut tail) = (Bytes::new(), Bytes::new());
        for s in absorb {
            let v = f.spans.remove(&s).expect("absorbed span");
            f.bytes -= v.len();
            if s < offset {
                head = v.slice(..(offset - s) as usize);
            }
            if s + v.len() as u64 > end {
                tail = v.slice((end - s) as usize..);
            }
        }
        let mut start = offset - head.len() as u64;
        let mut span = if head.is_empty() && tail.is_empty() {
            data
        } else {
            let mut merged = Vec::with_capacity(head.len() + data.len() + tail.len());
            merged.extend_from_slice(&head);
            merged.extend_from_slice(&data);
            merged.extend_from_slice(&tail);
            Bytes::from(merged)
        };
        f.bytes += span.len();
        // Joins keep the sum of the span lengths, so `f.bytes` holds.
        let end = start + span.len() as u64;
        if let Some(joined) = f.spans.get(&end).and_then(|next| span.try_join(next)) {
            f.spans.remove(&end);
            span = joined;
        }
        let prev = f.spans.range(..start).next_back();
        let prev = prev.filter(|(&s, v)| s + v.len() as u64 == start);
        if let Some((s, joined)) = prev.and_then(|(&s, v)| Some((s, v.try_join(&span)?))) {
            f.spans.remove(&s);
            (start, span) = (s, joined);
        }
        f.spans.insert(start, span);
    }

    /// Evict least-recently-touched *other* files until under the cap;
    /// if the just-filled file alone busts it, shed its coldest bytes —
    /// lowest offsets first, the bytes a forward stream left behind.
    /// (A sequential stream is one span per run, so a long scan sheds
    /// whole spans from its head and trims at most one. The trimmed span
    /// still pins its whole run, so the footprint is bounded by the cap
    /// plus one run, and the room the file's open run has not filled.)
    fn enforce_capacity(&mut self, just_filled: u64) {
        while self.total_bytes > CAPACITY_BYTES {
            let victim = self
                .files
                .iter()
                .filter(|(&id, _)| id != just_filled)
                .min_by_key(|(_, f)| f.touched)
                .map(|(&id, _)| id);
            if let Some(id) = victim {
                self.drop_file(id);
                self.stats.evictions += 1;
                continue;
            }
            let excess = self.total_bytes - CAPACITY_BYTES;
            let Some(f) = self.files.get_mut(&just_filled) else {
                return;
            };
            let Some((s, v)) = f.spans.pop_first() else {
                return;
            };
            // Shed the whole span, or trim exactly the head so the hot
            // tail stays cached.
            let shed = v.len().min(excess);
            if shed < v.len() {
                f.spans.insert(s + shed as u64, v.slice(shed..));
            }
            f.bytes -= shed;
            self.total_bytes -= shed;
            // Each pass sheds at least one byte, so this terminates.
        }
    }

    /// Generation callback from the control plane: `file`'s extent map
    /// moved to `generation`. Drops cached data older than it; `u64::MAX`
    /// means the file is gone (unlink/rename-replace), stream and hint too.
    pub fn note_generation(&mut self, file: u64, generation: u64) {
        if self
            .files
            .get(&file)
            .is_some_and(|f| f.generation < generation)
        {
            self.drop_file(file);
            self.stats.invalidations += 1;
        }
        if generation == u64::MAX {
            self.streams.remove(&file);
            self.hints.remove(&file);
        }
    }

    /// Drop every cached byte (stats survive). Not counted as
    /// invalidations — that stat means generation-callback coherence
    /// traffic, and manual drops (measurements, tests) are not that.
    pub fn clear(&mut self) {
        self.files.clear();
        self.total_bytes = 0;
        self.streams.clear();
        self.hints.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(n: usize, tag: u8) -> Vec<u8> {
        (0..n).map(|i| (i as u8) ^ tag).collect()
    }

    #[test]
    fn miss_then_fill_then_hit_roundtrips() {
        let mut c = ReadCache::default();
        assert!(c.lookup(1, 0, 100).is_none());
        let d = bytes(200, 7);
        c.fill(1, 3, 0, &d, 200);
        let r = c.lookup(1, 50, 100).expect("hit");
        assert_eq!(r.data[..], d[50..150]);
        assert_eq!(r.generation, 3);
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 1);
        assert_eq!(c.stats.hit_bytes, 100);
    }

    #[test]
    fn partial_coverage_is_a_miss() {
        let mut c = ReadCache::default();
        c.fill(1, 1, 100, &bytes(100, 1), 100);
        assert!(c.lookup(1, 150, 100).is_none(), "tail uncovered");
        assert!(c.lookup(1, 0, 50).is_none(), "head uncovered");
        assert!(c.lookup(1, 120, 50).is_some(), "interior covered");
    }

    #[test]
    fn adjacent_spans_stitch_and_overlapping_spans_merge() {
        let mut c = ReadCache::default();
        // Two buffers of their own, as write-through fills are.
        c.fill_shared(1, 1, 0, Bytes::from(bytes(100, 2)), 100);
        c.fill_shared(1, 1, 100, Bytes::from(bytes(100, 3)), 100); // no re-copy
        assert_eq!(c.files[&1].spans.len(), 2, "adjacent buffers stay separate");
        let r = c.lookup(1, 0, 200).expect("stitched hit");
        assert_eq!(&r.data[..100], &bytes(100, 2)[..]);
        assert_eq!(&r.data[100..], &bytes(100, 3)[..]);
        let r = c.lookup(1, 50, 100).expect("hit across the seam");
        assert_eq!(&r.data[..50], &bytes(100, 2)[50..]);
        assert_eq!(&r.data[50..], &bytes(100, 3)[..50]);
        c.fill(1, 1, 50, &bytes(100, 4), 100); // overlapping: new wins
        let r = c.lookup(1, 0, 200).expect("hit");
        assert_eq!(&r.data[50..150], &bytes(100, 4)[..]);
        assert_eq!(c.cached_files(), 1);
        assert_eq!(c.files[&1].spans.len(), 1, "overlap merged everything");
    }

    #[test]
    fn eof_from_short_fill_serves_clamped_and_empty_reads() {
        let mut c = ReadCache::default();
        // Asked for 300, got 250: EOF proven at 250.
        c.fill(1, 2, 0, &bytes(250, 5), 300);
        let r = c.lookup(1, 200, 100).expect("clamped hit");
        assert_eq!(r.data.len(), 50, "short read at the cached EOF");
        let past = c.lookup(1, 250, 100).expect("past-EOF hit");
        assert!(past.data.is_empty());
        let way_past = c.lookup(1, u64::MAX, 100).expect("u64::MAX hit");
        assert!(way_past.data.is_empty(), "no overflow, no phantom bytes");
    }

    #[test]
    fn newer_generation_invalidates_exactly_that_file() {
        let mut c = ReadCache::default();
        c.fill(1, 1, 0, &bytes(100, 1), 100);
        c.fill(2, 1, 0, &bytes(100, 2), 100);
        c.note_generation(1, 2);
        assert!(c.lookup(1, 0, 100).is_none(), "file 1 dropped");
        assert!(c.lookup(2, 0, 100).is_some(), "file 2 untouched");
        assert_eq!(c.stats.invalidations, 1);
        // Same-generation events are no-ops.
        c.note_generation(2, 1);
        assert!(c.lookup(2, 0, 100).is_some());
    }

    #[test]
    fn newer_fill_supersedes_older_cached_generation() {
        let mut c = ReadCache::default();
        c.fill(1, 1, 0, &bytes(100, 1), 100);
        // Overwrite committed (gen 2) and a fresh read filled before the
        // callback got processed: the old span must not linger.
        c.fill(1, 2, 200, &bytes(50, 2), 50);
        assert!(c.lookup(1, 0, 100).is_none(), "gen-1 span dropped");
        assert_eq!(c.lookup(1, 200, 50).expect("hit").generation, 2);
    }

    #[test]
    fn unlink_drops_unconditionally() {
        let mut c = ReadCache::default();
        c.fill(1, 9, 0, &bytes(10, 1), 10);
        c.note_generation(1, u64::MAX);
        assert!(c.lookup(1, 0, 10).is_none());
        assert_eq!(c.stats.invalidations, 1);
    }

    #[test]
    fn sequential_stream_ramps_readahead_and_random_gets_none() {
        let mut c = ReadCache::default();
        // Random access: no window.
        assert!(c.lookup(1, 500, 50).is_none());
        assert_eq!(c.plan_readahead(1, 500, 50), 0);
        assert!(c.lookup(1, 90, 50).is_none());
        assert_eq!(c.plan_readahead(1, 90, 50), 0, "stream broke");
        // Sequential: 140 follows 90+50.
        assert!(c.lookup(1, 140, 50).is_none());
        assert_eq!(c.plan_readahead(1, 140, 50), READAHEAD_INIT, "granted");
        // Each sequential miss doubles the window up to the cap.
        let (mut off, mut window) = (190, READAHEAD_INIT);
        while window < READAHEAD_MAX {
            window *= 2;
            assert!(c.lookup(1, off, 50).is_none());
            assert_eq!(c.plan_readahead(1, off, 50), window, "doubled");
            off += 50;
        }
        assert_eq!(window, READAHEAD_MAX, "capped");
        assert!(c.lookup(1, off, 50).is_none());
        assert_eq!(c.plan_readahead(1, off, 50), READAHEAD_MAX, "stays capped");
        // A seek resets the ramp.
        assert!(c.lookup(1, 5_000, 50).is_none());
        assert_eq!(c.plan_readahead(1, 5_000, 50), 0);
    }

    #[test]
    fn capacity_evicts_lru_files() {
        // Two fills fit under the cap, three do not.
        const FILL: usize = CAPACITY_BYTES / 5 * 2;
        let len = FILL as u32;
        let mut c = ReadCache::default();
        c.fill(1, 1, 0, &bytes(FILL, 1), len);
        c.fill(2, 1, 0, &bytes(FILL, 2), len);
        let _ = c.lookup(1, 0, 10); // touch 1: file 2 is now LRU
        c.fill(3, 1, 0, &bytes(FILL, 3), len);
        assert!(c.cached_bytes() <= CAPACITY_BYTES);
        assert!(c.lookup(2, 0, len).is_none(), "LRU file evicted");
        assert!(c.lookup(3, 0, len).is_some(), "fresh fill kept");
        assert_eq!(c.stats.evictions, 1);
    }

    #[test]
    fn sequential_scan_of_twice_the_capacity_stays_bounded() {
        // A lone streaming file must still respect the cap: the bytes the
        // stream left behind are shed head-first.
        // The cap is ten and a half fills.
        const FILL: usize = CAPACITY_BYTES * 2 / 21;
        let mut c = ReadCache::default();
        let cap = CAPACITY_BYTES;
        for i in 0..(2 * cap).div_ceil(FILL) {
            c.fill(1, 1, (i * FILL) as u64, &bytes(FILL, i as u8), FILL as u32);
            assert!(c.cached_bytes() <= cap, "fill {i}: {}", c.cached_bytes());
            let f = &c.files[&1];
            assert_eq!(f.bytes, c.cached_bytes(), "running total drifted");
            assert_eq!(f.spans.values().map(Bytes::len).sum::<usize>(), f.bytes);
            // The spans are whole runs but for the trimmed head and the
            // open tail, and each pins its run: the footprint is at most
            // the cap, the head's shed bytes and the open run's room.
            let pinned = f.spans.len() * RUN_BYTES;
            assert!(pinned <= cap + 2 * RUN_BYTES, "fill {i} pins too much");
        }
        assert!(
            c.cached_bytes() > cap - FILL,
            "the trim sheds only the excess"
        );
        // The hot tail (the most recent fill) survives; the cold head
        // was shed.
        let last = (2 * cap).div_ceil(FILL) - 1;
        assert!(c.lookup(1, (last * FILL) as u64, FILL as u32).is_some());
        assert!(c.lookup(1, 0, FILL as u32).is_none(), "cold head trimmed");
    }

    #[test]
    fn hit_inside_one_span_is_a_slice_of_its_buffer() {
        let mut c = ReadCache::default();
        c.fill_shared(1, 1, 0, Bytes::from(bytes(100, 2)), 100);
        c.fill_shared(1, 1, 100, Bytes::from(bytes(100, 3)), 100);
        let r = c.lookup(1, 110, 50).expect("hit");
        let span = c.files[&1].spans[&100].as_ptr_range();
        assert!(span.contains(&r.data.as_ptr()), "a copy, not a slice");
        assert_eq!(r.data[..], bytes(100, 3)[10..60]);
        assert_eq!(c.stats.stitched_hits, 0);
        let r = c.lookup(1, 90, 50).expect("hit across the seam");
        assert!(!span.contains(&r.data.as_ptr()));
        assert_eq!(c.stats.stitched_hits, 1);
        assert_eq!(c.stats.hits, 2);
    }

    #[test]
    fn adjacent_fills_of_one_run_join_and_a_hit_across_them_is_a_slice() {
        let mut c = ReadCache::default();
        c.fill(1, 1, 0, &bytes(100, 2), 100);
        c.fill(1, 1, 100, &bytes(100, 3), 100);
        assert_eq!(c.files[&1].spans.len(), 1, "adjacent fills of one run join");
        let span = c.files[&1].spans[&0].as_ptr_range();
        let r = c.lookup(1, 50, 100).expect("hit across the fills");
        assert!(span.contains(&r.data.as_ptr()), "a copy, not a slice");
        assert_eq!(&r.data[..50], &bytes(100, 2)[50..]);
        assert_eq!(&r.data[50..], &bytes(100, 3)[..50]);
        // Fills that land in the run out of file order join nothing: the
        // one at 200, appended after the one at 300, follows that one in
        // the run, not the span before it in the file.
        c.fill(1, 1, 300, &bytes(100, 5), 100);
        c.fill(1, 1, 200, &bytes(100, 4), 100);
        assert_eq!(c.files[&1].spans.len(), 3);
        assert_eq!(
            c.lookup(1, 150, 200).expect("stitched").data[50..150],
            bytes(100, 4)
        );
        assert_eq!((c.stats.stitched_hits, c.stats.hits), (1, 2));
    }

    #[test]
    fn a_fill_that_does_not_fit_fills_the_run_and_goes_on_in_a_new_one() {
        let mut c = ReadCache::default();
        let fill = RUN_BYTES / 4 * 3;
        let run_len = |c: &ReadCache| c.files[&1].run.as_ref().map(BytesRun::len);
        c.fill(1, 1, 0, &bytes(fill, 1), fill as u32);
        // The second fill's first third ends the first run.
        c.fill(1, 1, fill as u64, &bytes(fill, 2), fill as u32);
        assert_eq!(run_len(&c), Some(2 * fill - RUN_BYTES));
        let spans: Vec<(u64, usize)> = c.files[&1]
            .spans
            .iter()
            .map(|(&s, v)| (s, v.len()))
            .collect();
        assert_eq!(
            spans,
            [(0, RUN_BYTES), (RUN_BYTES as u64, 2 * fill - RUN_BYTES)]
        );
        let r = c.lookup(1, fill as u64 - 10, 20).expect("across the fills");
        assert_eq!(r.data[10..], bytes(fill, 2)[..10]);
        assert_eq!(
            c.stats.stitched_hits, 0,
            "both fills' bytes lie in the first run"
        );
        let r = c
            .lookup(1, RUN_BYTES as u64 - 10, 20)
            .expect("across the runs");
        let seam = RUN_BYTES - fill;
        assert_eq!(r.data[..], bytes(fill, 2)[seam - 10..seam + 10]);
        assert_eq!(c.stats.stitched_hits, 1);
        // A fill longer than a run goes on in a run as long as its rest.
        let (big, room) = (2 * RUN_BYTES, RUN_BYTES - run_len(&c).expect("open"));
        c.fill(1, 1, 2 * fill as u64, &bytes(big, 3), big as u32);
        let run = c.files[&1].run.as_ref().expect("a run");
        assert_eq!((run.len(), run.remaining()), (big - room, 0));
        let all = (2 * fill + big) as u32;
        assert_eq!(c.lookup(1, 0, all).expect("all").data.len(), all as usize);
    }

    #[test]
    fn a_fill_split_across_runs_serves_its_prefix_whole() {
        let mut c = ReadCache::default();
        let fill = RUN_BYTES / 4 * 3;
        c.fill(1, 1, 0, &bytes(fill, 1), fill as u32);
        let data = bytes(fill, 2);
        let put = |tail: &mut dyn BufMut| tail.put_slice(&data);
        let filled = c
            .fill_with(1, 1, fill as u64, fill, fill as u32, put)
            .expect("live");
        let head = RUN_BYTES - fill;
        assert_eq!((filled.head.len(), filled.rest.len()), (head, fill - head));
        assert_eq!(filled.prefix(head)[..], data[..head]);
        assert_eq!(
            filled.prefix(head).as_ptr(),
            filled.head.as_ptr(),
            "a slice"
        );
        assert_eq!(filled.prefix(head + 1)[..], data[..head + 1], "a copy");
        assert_eq!(filled.prefix(fill)[..], data[..]);
        // A stale fill is refused before anything is written.
        c.note_generation(1, 2);
        let put = |_: &mut dyn BufMut| panic!("a refused fill wrote");
        c.fill(1, 2, 0, &[1], 1);
        assert!(c.fill_with(1, 1, 0, 5, 5, put).is_none());
    }

    #[test]
    fn past_eof_probe_does_not_loosen_a_learned_eof() {
        let mut c = ReadCache::default();
        // Committed size 4096: asked for 8192, got 4096 → exact EOF.
        c.fill(1, 2, 0, &bytes(4096, 3), 8192);
        assert_eq!(c.lookup(1, 0, 8192).expect("clamped hit").data.len(), 4096);
        // A far past-EOF probe returns empty; its upper bound (the probe
        // offset) must NOT overwrite the exact EOF...
        c.fill(1, 2, 1_000_000, &[], 100);
        let r = c.lookup(1, 0, 8192).expect("still a clamped hit");
        assert_eq!(r.data.len(), 4096, "EOF stayed exact");
        // ...and tighter bounds still apply in the other order.
        let mut c = ReadCache::default();
        c.fill(2, 1, 1_000_000, &[], 100); // bound: size <= 1_000_000
        c.fill(2, 1, 0, &bytes(4096, 3), 8192); // exact: 4096
        assert_eq!(c.lookup(2, 0, 8192).expect("hit").data.len(), 4096);
        assert!(c.lookup(2, 5_000, 10).expect("past EOF").data.is_empty());
    }

    #[test]
    fn prefetch_hint_boosts_readahead_once() {
        let mut c = ReadCache::default();
        c.note_hint(1, 0, 2000);
        assert!(c.lookup(1, 0, 50).is_none());
        // First access is not locally sequential yet, but the advisory
        // grants the window covering the rest of the hinted range.
        assert_eq!(c.plan_readahead(1, 0, 50), 1950);
        assert_eq!(c.stats.hint_boosts, 1);
        assert_eq!(c.stats.hints, 1);
        // One-shot: a later non-sequential access gets no window.
        assert!(c.lookup(1, 50_000, 50).is_none());
        assert_eq!(c.plan_readahead(1, 50_000, 50), 0);
    }

    #[test]
    fn write_fill_serves_read_after_write() {
        let mut c = ReadCache::default();
        c.fill_from_write(1, Some(3), 0, Bytes::from(bytes(100, 6)));
        let r = c.lookup(1, 0, 100).expect("read-after-write hit");
        assert_eq!(r.data, bytes(100, 6));
        assert_eq!(r.generation, 3);
        assert_eq!(c.stats.write_fills, 1);
        // A write fill proves no EOF: reading past it still misses.
        assert!(c.lookup(1, 0, 200).is_none());
    }

    #[test]
    fn hit_rate_reports() {
        let mut c = ReadCache::default();
        assert_eq!(c.stats.hit_rate(), 0.0);
        c.fill(1, 1, 0, &bytes(100, 1), 100);
        let _ = c.lookup(1, 0, 50);
        let _ = c.lookup(1, 500, 50);
        assert!((c.stats.hit_rate() - 0.5).abs() < 1e-9);
    }
}
