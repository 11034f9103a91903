//! The host clock: CPU time the calling thread has run, from
//! `/proc/thread-self/schedstat` (nanoseconds on-CPU, first field; the
//! benchmark is single-threaded, so that is the process). CPU time,
//! not wall time, so a preempted run is not charged for the wait. Where
//! the file is absent the clock falls back to `Instant` and every
//! `host_*` number is wall-clock; [`CpuClock::is_wall`] says which.
//!
//! The kernel brings that counter up to date only when the scheduler
//! runs (a tick or a context switch): read cold, it is up to 4 ms stale
//! on the reference box. Yielding the CPU first makes the scheduler
//! account the time run so far; measured there, a read after a yield is
//! within 3-4 us of the truth and costs about 3 us.

use std::time::Instant;

const SCHEDSTAT: &str = "/proc/thread-self/schedstat";

pub struct CpuClock {
    origin: Instant,
    wall: bool,
}

/// First whitespace-separated field of a schedstat line: ns on-CPU.
pub fn parse_schedstat(s: &str) -> Option<u64> {
    s.split_ascii_whitespace().next()?.parse().ok()
}

fn read_schedstat() -> Option<u64> {
    std::thread::yield_now();
    parse_schedstat(&std::fs::read_to_string(SCHEDSTAT).ok()?)
}

impl CpuClock {
    pub fn new() -> CpuClock {
        CpuClock {
            origin: Instant::now(),
            wall: read_schedstat().is_none(),
        }
    }

    /// True when `now_ns` is wall-clock (no schedstat on this kernel).
    pub fn is_wall(&self) -> bool {
        self.wall
    }

    /// Nanoseconds of CPU this process has consumed (wall-clock since
    /// construction in the fallback).
    pub fn now_ns(&self) -> u64 {
        if !self.wall {
            if let Some(ns) = read_schedstat() {
                return ns;
            }
        }
        self.origin.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_first_field() {
        assert_eq!(parse_schedstat("123456789 42 7\n"), Some(123_456_789));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
    }

    #[test]
    fn cpu_time_advances_with_work_and_never_goes_back() {
        let clock = CpuClock::new();
        // Well under a scheduler tick: a stale counter would read 0.
        let mut read = Vec::new();
        for _ in 0..9 {
            let t0 = clock.now_ns();
            let mut x = 1u64;
            let spin = Instant::now();
            while spin.elapsed().as_micros() < 500 {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
            }
            read.push(clock.now_ns().checked_sub(t0).expect("went backwards"));
        }
        read.sort_unstable();
        let median = read[read.len() / 2];
        // CPU time cannot exceed the wall time spent (plus the read's own
        // cost); preemption by other tests can only make it smaller.
        assert!(
            (250_000..=700_000).contains(&median),
            "500 us of work read as {median} ns (all: {read:?})"
        );
    }
}
