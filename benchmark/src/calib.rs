//! The calibration kernel: a fixed piece of work, shaped like the
//! simulator's inner loop (a binary heap of boxed records, a splitmix
//! stream, 4 KiB memory touches), that calls no repo code and is FROZEN
//! after the PR that introduced it. Every host-clock number is reported
//! in *reference seconds*:
//!
//! ```text
//! ref_s = cpu_s * K_REF_S / K
//! ```
//!
//! where `K` is this kernel's CPU time on the box and at the time of the
//! run, and `K_REF_S` is its cost on the reference box.
//!
//! The kernel is timed in [`SLICES`] equal parts, and a run takes a
//! reading before the first repetition and after each one. `K` is the
//! sum over slices of each slice's lower quartile over the readings
//! ([`steady_s`]). Why that and not the mean of the neighbouring
//! readings: on the 2-vCPU sandbox this was defined on, interference
//! from other tenants only ever slows a section down, by up to 4x for
//! hundreds of milliseconds, and it hits this kernel and the workloads
//! by different amounts. The lower quartile of a short, deterministic
//! section's instances estimates its uninterfered cost; the workloads'
//! measured phases are cut and estimated the same way
//! (`workloads::SEGMENTS`), and the ratio of the two repeated best of
//! the estimators tried (README, "Calibration").
//!
//! Changing anything in `kernel` or `K_REF_S` rebases every `host_*`
//! and `setup_s` number ever recorded. Don't.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::cpu::CpuClock;
use crate::stats;

/// CPU seconds one `kernel()` call takes on the reference box (the
/// 2-core sandbox this benchmark was defined on): [`steady_s`] of 20
/// readings, as `selfcheck` prints it.
pub const K_REF_S: f64 = 0.105;

/// Parts one kernel run is timed in.
pub const SLICES: usize = 16;
const ITERS: u64 = 1_000_000;
const SLICE_ITERS: u64 = ITERS / SLICES as u64;
const HEAP_DEPTH: usize = 1024;
const PAGE: usize = 4096;
const PAGES: usize = 2048; // 8 MiB: larger than L2, so touches reach memory
const TOUCH_EVERY: u64 = 8;

struct Rec {
    key: u64,
    payload: [u64; 5],
}

impl PartialEq for Rec {
    fn eq(&self, o: &Rec) -> bool {
        self.key == o.key
    }
}
impl Eq for Rec {}
impl PartialOrd for Rec {
    fn partial_cmp(&self, o: &Rec) -> Option<std::cmp::Ordering> {
        Some(self.cmp(o))
    }
}
impl Ord for Rec {
    fn cmp(&self, o: &Rec) -> std::cmp::Ordering {
        self.key.cmp(&o.key)
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One run of the fixed kernel, calling `lap` as each of the [`SLICES`]
/// parts ends; the return value only defeats dead-code elimination.
pub fn kernel(mut lap: impl FnMut()) -> u64 {
    let mut heap: BinaryHeap<Reverse<Box<Rec>>> = BinaryHeap::with_capacity(HEAP_DEPTH + 1);
    let mut mem = vec![0u8; PAGE * PAGES];
    let mut state = 0x00C0_FFEE_u64;
    let mut acc = 0u64;
    for i in 0..ITERS {
        let r = splitmix(&mut state);
        heap.push(Reverse(Box::new(Rec {
            key: r,
            payload: [r; 5],
        })));
        if heap.len() > HEAP_DEPTH {
            let Reverse(top) = heap.pop().expect("non-empty");
            acc ^= top.key ^ top.payload[(r & 3) as usize];
        }
        if i % TOUCH_EVERY == 0 {
            let at = (r as usize % PAGES) * PAGE;
            let page = &mut mem[at..at + PAGE];
            page.fill(r as u8);
            acc = acc.wrapping_add(page[(r >> 32) as usize % PAGE] as u64);
        }
        if (i + 1) % SLICE_ITERS == 0 {
            lap();
        }
    }
    std::hint::black_box(acc)
}

/// CPU nanoseconds of each slice of one kernel run.
pub type Reading = [u64; SLICES];

/// One kernel run, now.
pub fn measure(clock: &CpuClock) -> Reading {
    let mut reading = [0; SLICES];
    let mut slice = 0;
    let mut t0 = clock.now_ns();
    kernel(|| {
        let t1 = clock.now_ns();
        reading[slice] = t1 - t0;
        slice += 1;
        t0 = t1;
    });
    reading
}

/// CPU seconds of the whole of one reading.
pub fn total_s(reading: &Reading) -> f64 {
    reading.iter().sum::<u64>() as f64 / 1e9
}

/// `K`: each slice's steady value over `readings`, summed, seconds.
pub fn steady_s(readings: &[Reading]) -> f64 {
    let ns: u64 = (0..SLICES)
        .map(|j| stats::steady(readings.iter().map(|r| r[j])))
        .sum();
    ns as f64 / 1e9
}

/// Raw CPU nanoseconds → reference seconds, given the kernel's cost `k`
/// (seconds) on this box during this run.
pub fn to_ref_s(cpu_ns: f64, k: f64) -> f64 {
    cpu_ns / 1e9 * K_REF_S / k
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_laps_once_per_slice() {
        let mut laps = 0;
        let a = kernel(|| laps += 1);
        assert_eq!(laps, SLICES);
        assert_eq!(a, kernel(|| {}));
    }

    #[test]
    fn steady_takes_each_slice_from_its_best_reading() {
        let mut a = [10; SLICES];
        let mut b = [20; SLICES];
        a[3] = 50; // a burst hit slice 3 of the first reading only
        b[7] = 5;
        assert_eq!(total_s(&a), (10 * 15 + 50) as f64 / 1e9);
        assert_eq!(steady_s(&[a, b]), (10 * 14 + 20 + 5) as f64 / 1e9);
    }

    #[test]
    fn reference_conversion_scales_with_machine_speed() {
        // A box twice as slow (K doubles) reports the same reference time
        // for a section that also took twice as long.
        let fast = to_ref_s(1e9, K_REF_S);
        let slow = to_ref_s(2e9, 2.0 * K_REF_S);
        assert!((fast - 1.0).abs() < 1e-12);
        assert!((slow - fast).abs() < 1e-12);
    }
}
