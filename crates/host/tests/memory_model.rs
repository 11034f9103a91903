//! `HostMemory` against a flat byte-array model: whatever mix of copies,
//! shared windows, overwrites and staged packets lands, every read agrees
//! with the model, and `take` and `free` leave the range unwritten (`take`
//! giving back what it held) — also across a few hundred extents, where
//! what is inserted, removed and drained sits at the front, the middle and
//! the end of memory's extents.

use bytes::{Bytes, BytesRun};
use proptest::collection::vec;
use proptest::prelude::*;

use nadfs_host::{DmaConfig, DmaEngine, HostMemory};
use nadfs_simnet::Time;

/// The modelled region: five pages, page-aligned. Lands and writes go in
/// the first four.
const BASE: u64 = 0x10_000;
const LANDS: usize = 4 << 12;
const SPAN: usize = LANDS + (1 << 12);
/// Length of each shared source buffer.
const BUF: usize = 6000;
/// Three adjacent staging slots in the last page, which only `stage`,
/// `take` and `free` reach: a slot is then still the one copy its first
/// packet made exactly when no `take` or `free` met it since.
const SLOTS: usize = LANDS + 100;
const SLOT: usize = 1200;

/// The reference: the region's bytes, and which of them were written.
struct Model {
    bytes: Vec<u8>,
    written: Vec<bool>,
}

impl Model {
    fn put(&mut self, off: usize, data: &[u8]) {
        self.bytes[off..off + data.len()].copy_from_slice(data);
        self.written[off..off + data.len()].fill(true);
    }

    fn forget(&mut self, off: usize, len: usize) {
        self.bytes[off..off + len].fill(0);
        self.written[off..off + len].fill(false);
    }

    fn pages(&self) -> usize {
        self.written
            .chunks(1 << 12)
            .filter(|p| p.contains(&true))
            .count()
    }
}

/// Whether `[at, at + len)` meets staging slot `slot`.
fn meets_slot(slot: usize, at: usize, len: usize) -> bool {
    let lo = SLOTS + slot * SLOT;
    at < lo + SLOT && lo < at + len
}

fn pattern(seed: u64, len: usize) -> Vec<u8> {
    (0..len as u64)
        .map(|i| (seed.wrapping_mul(0x9E37_79B9) ^ i.wrapping_mul(31)) as u8 | 1)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Steps are `(kind, buffer, offset, len, probe)`: kind 0 lands a
    // buffer nobody else holds, 1 a window of a shared buffer at that
    // buffer's own base (so neighbouring windows can join), 2 the same
    // window somewhere else, 3 a CPU-side copy, 4 a `take`, 5 a packet
    // staged in slot `buffer`, 6 a `free`. Only `take` and `free` reach
    // the staging page.
    #[test]
    fn memory_matches_a_flat_model(
        bases in vec(0usize..LANDS - BUF, 3),
        steps in vec((0u8..7, 0usize..3, 0usize..SPAN, 1usize..3000, 0usize..SPAN), 1..40),
    ) {
        let mem = HostMemory::new();
        let mut dma = DmaEngine::new(DmaConfig::default(), mem.clone());
        let bufs: Vec<Bytes> = (0..3).map(|i| Bytes::from(pattern(i + 1, BUF))).collect();
        let mut model = Model { bytes: vec![0; SPAN], written: vec![false; SPAN] };
        let mut staged = [false; 3];
        for (i, &(kind, b, at, len, probe)) in steps.iter().enumerate() {
            let (anywhere, at) = (at.min(SPAN - len), at.min(LANDS - len));
            let lo = at.min(BUF - len);
            match kind {
                0 => {
                    let lone = Bytes::from(pattern(100 + i as u64, len));
                    dma.land(Time::ZERO, BASE + at as u64, &lone);
                    model.put(at, &lone);
                    prop_assert!(lone.is_unique(), "memory kept the caller's buffer");
                }
                1 | 2 => {
                    let at = if kind == 1 { bases[b] + lo } else { at };
                    let window = bufs[b].slice(lo..lo + len);
                    dma.land(Time::ZERO, BASE + at as u64, &window);
                    model.put(at, &window);
                }
                3 => {
                    let data = pattern(200 + i as u64, len);
                    mem.borrow_mut().write(BASE + at as u64, &data);
                    model.put(at, &data);
                }
                4 | 6 => {
                    let at = anywhere;
                    if kind == 4 {
                        let got = mem.borrow_mut().take(BASE + at as u64, len);
                        prop_assert_eq!(&got[..], &model.bytes[at..at + len], "take @{}+{}", at, len);
                    } else {
                        mem.borrow_mut().free(BASE + at as u64, len as u64);
                    }
                    model.forget(at, len);
                    for (slot, staged) in staged.iter_mut().enumerate() {
                        *staged &= !meets_slot(slot, at, len);
                    }
                }
                _ => {
                    let slot = SLOTS + b * SLOT;
                    let off = anywhere % SLOT;
                    let data = pattern(300 + i as u64, len.min(SLOT - off));
                    let range = BASE + slot as u64..BASE + (slot + SLOT) as u64;
                    dma.stage(Time::ZERO, range, BASE + (slot + off) as u64, &data);
                    if !std::mem::replace(&mut staged[b], true) {
                        model.put(slot, &[0; SLOT]);
                    }
                    model.put(slot + off, &data);
                }
            }
            let m = mem.borrow();
            prop_assert_eq!(m.read(BASE, SPAN), model.bytes.clone(), "step {}", i);
            let (p_at, p_len) = (probe.min(SPAN - 1), len.min(SPAN - probe.min(SPAN - 1)));
            let want = &model.bytes[p_at..p_at + p_len];
            let mut into = vec![0xEE; p_len];
            m.read_into(BASE + p_at as u64, &mut into);
            prop_assert_eq!(&into[..], want, "read_into step {}", i);
            let mut run = BytesRun::with_capacity(p_len);
            let got = run.append_with(p_len, |tail| m.read_to(BASE + p_at as u64, p_len, tail));
            prop_assert_eq!(&got.expect("fits")[..], want, "read_to step {}", i);
            prop_assert_eq!(&m.read_bytes(BASE + p_at as u64, p_len)[..], want, "read_bytes step {}", i);
            prop_assert_eq!(m.resident_pages(), model.pages(), "step {}", i);
        }
    }

    // However the packets of one buffer land — payload handlers finish
    // out of order — its windows join into one extent, which is the
    // buffer itself.
    #[test]
    fn windows_of_one_buffer_land_as_one_extent(
        cuts in vec(1usize..BUF, 0..12),
        order in vec(any::<u64>(), 13),
    ) {
        let buf = Bytes::from(pattern(9, BUF));
        let mut edges: Vec<usize> = cuts.into_iter().chain([0, BUF]).collect();
        edges.sort_unstable();
        edges.dedup();
        let windows = edges.windows(2).map(|w| (w[0], w[1]));
        let mut shuffled: Vec<_> = order.iter().zip(windows).collect();
        shuffled.sort_unstable();
        let mem = HostMemory::new();
        let mut dma = DmaEngine::new(DmaConfig::default(), mem.clone());
        for (_, (lo, hi)) in shuffled {
            dma.land(Time::ZERO, BASE + lo as u64, &buf.slice(lo..hi));
        }
        let m = mem.borrow();
        prop_assert_eq!(m.extent_count(), 1);
        prop_assert_eq!(m.read_bytes(BASE, BUF).as_ptr(), buf.as_ptr(), "the buffer's own bytes");
    }
}

/// The many-extent region: four pages of 64-byte pieces.
const MANY: usize = 4 << 12;
const PIECE: usize = 64;

/// What lands in the many-extent region, before shuffling: each piece as
/// three windows of `buf` at its own base (joining into one extent), every
/// fourth as three copies instead, and every fifth overlapped by a copy
/// that runs across the gap after it into the next piece.
fn many_lands(buf: &Bytes) -> Vec<(usize, Bytes)> {
    let mut lands = Vec::new();
    for (p, off) in (0..MANY / PIECE).map(|p| (p, p * PIECE)) {
        for (lo, hi) in [(0, 13), (13, 27), (27, 40)] {
            let window = buf.slice(off + lo..off + hi);
            let copy = Bytes::from(pattern((p * 3 + lo) as u64, hi - lo));
            lands.push((off + lo, if p % 4 == 3 { copy } else { window }));
        }
        if p % 5 == 0 && off + 120 <= MANY {
            lands.push((off + 20, Bytes::from(pattern(p as u64 + 7, 100))));
        }
    }
    lands
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // A few hundred extents at once, landed in shuffled order, then cut
    // by frees from the front, the middle and the end of the region: a
    // short one inside one extent splits it in two, a long one drains a
    // run of them. After every step the whole region reads as the model.
    #[test]
    fn many_extents_match_a_flat_model(
        order in vec(any::<u64>(), 4 * MANY / PIECE),
        frees in vec((0usize..3, 0usize..400, 1usize..2000, any::<bool>()), 12),
    ) {
        let buf = Bytes::from(pattern(5, MANY));
        let mut lands: Vec<_> = order.into_iter().zip(many_lands(&buf)).collect();
        lands.sort_unstable_by_key(|&(key, _)| key);
        let mem = HostMemory::new();
        let mut dma = DmaEngine::new(DmaConfig::default(), mem.clone());
        let mut model = Model { bytes: vec![0; MANY], written: vec![false; MANY] };
        for (i, (_, (at, data))) in lands.iter().enumerate() {
            dma.land(Time::ZERO, BASE + *at as u64, data);
            model.put(*at, data);
            prop_assert_eq!(mem.borrow().read(BASE, MANY), model.bytes.clone(), "land {}", i);
        }
        prop_assert!(mem.borrow().extent_count() > 200, "{} extents", mem.borrow().extent_count());
        for (i, &(place, off, len, short)) in frees.iter().enumerate() {
            let len = if short { len % 30 + 1 } else { len };
            let at = match place {
                0 => off,
                1 => MANY / 2 + off - 200,
                _ => MANY - len - off.min(MANY - len),
            }
            .min(MANY - len);
            mem.borrow_mut().free(BASE + at as u64, len as u64);
            model.forget(at, len);
            let m = mem.borrow();
            prop_assert_eq!(m.read(BASE, MANY), model.bytes.clone(), "free {} @{}+{}", i, at, len);
            prop_assert_eq!(m.resident_pages(), model.pages(), "free {}", i);
        }
    }
}
