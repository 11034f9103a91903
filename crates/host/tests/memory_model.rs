//! `HostMemory` against a flat byte-array model: whatever mix of copies,
//! shared windows and overwrites lands, every read agrees with the model,
//! and `take` gives back what the range held and leaves it unwritten.

use bytes::Bytes;
use proptest::collection::vec;
use proptest::prelude::*;

use nadfs_host::{DmaConfig, DmaEngine, HostMemory};
use nadfs_simnet::Time;

/// The modelled region: four pages, page-aligned.
const BASE: u64 = 0x10_000;
const SPAN: usize = 4 << 12;
/// Length of each shared source buffer.
const BUF: usize = 6000;

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
    // window somewhere else, 3 a CPU-side copy, 4 a `take`.
    #[test]
    fn memory_matches_a_flat_model(
        bases in vec(0usize..SPAN - BUF, 3),
        steps in vec((0u8..5, 0usize..3, 0usize..SPAN, 1usize..3000, 0usize..SPAN), 1..40),
    ) {
        let mem = HostMemory::new();
        let mut dma = DmaEngine::new(DmaConfig::default(), mem.clone());
        let bufs: Vec<Bytes> = (0..3).map(|i| Bytes::from(pattern(i + 1, BUF))).collect();
        let mut model = Model { bytes: vec![0; SPAN], written: vec![false; SPAN] };
        for (i, &(kind, b, at, len, probe)) in steps.iter().enumerate() {
            let at = at.min(SPAN - len);
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
                _ => {
                    let got = mem.borrow_mut().take(BASE + at as u64, len);
                    prop_assert_eq!(&got[..], &model.bytes[at..at + len], "take @{}+{}", at, len);
                    model.forget(at, len);
                }
            }
            let m = mem.borrow();
            prop_assert_eq!(m.read(BASE, SPAN), model.bytes.clone(), "step {}", i);
            let (p_at, p_len) = (probe.min(SPAN - 1), len.min(SPAN - probe.min(SPAN - 1)));
            let want = &model.bytes[p_at..p_at + p_len];
            let mut into = vec![0xEE; p_len];
            m.read_into(BASE + p_at as u64, &mut into);
            prop_assert_eq!(&into[..], want, "read_into step {}", i);
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
