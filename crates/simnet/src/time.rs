//! Simulated time, durations, and bandwidth.
//!
//! Time is kept in integer **picoseconds** so that all the rates used by the
//! paper are exact: at 400 Gbit/s a byte serializes in exactly 20 ps, so a
//! 2048 B MTU frame takes 40 960 ps = 40.96 ns with no rounding drift.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An absolute simulation timestamp in picoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

/// A span of simulated time in picoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(pub u64);

impl Time {
    pub const ZERO: Time = Time(0);

    #[inline]
    pub fn ps(self) -> u64 {
        self.0
    }
    #[inline]
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / 1e3
    }
    #[inline]
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1e6
    }
    /// Duration elapsed since `earlier`, saturating at zero.
    #[inline]
    pub fn since(self, earlier: Time) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }
}

impl Dur {
    pub const ZERO: Dur = Dur(0);

    #[inline]
    pub const fn from_ps(ps: u64) -> Dur {
        Dur(ps)
    }
    #[inline]
    pub const fn from_ns(ns: u64) -> Dur {
        Dur(ns * 1_000)
    }
    #[inline]
    pub const fn from_us(us: u64) -> Dur {
        Dur(us * 1_000_000)
    }
    #[inline]
    pub const fn from_ms(ms: u64) -> Dur {
        Dur(ms * 1_000_000_000)
    }
    /// Build from a (possibly fractional) nanosecond count, rounding to ps.
    #[inline]
    pub fn from_ns_f64(ns: f64) -> Dur {
        Dur((ns * 1e3).round() as u64)
    }
    #[inline]
    pub fn ps(self) -> u64 {
        self.0
    }
    #[inline]
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / 1e3
    }
    #[inline]
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1e6
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    #[inline]
    fn add(self, d: Dur) -> Time {
        Time(self.0 + d.0)
    }
}
impl AddAssign<Dur> for Time {
    #[inline]
    fn add_assign(&mut self, d: Dur) {
        self.0 += d.0;
    }
}
impl Sub<Time> for Time {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: Time) -> Dur {
        Dur(self.0 - rhs.0)
    }
}
impl Add for Dur {
    type Output = Dur;
    #[inline]
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0 + rhs.0)
    }
}
impl AddAssign for Dur {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}
impl Sub for Dur {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0 - rhs.0)
    }
}
impl Mul<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn mul(self, rhs: u64) -> Dur {
        Dur(self.0 * rhs)
    }
}
impl Div<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn div(self, rhs: u64) -> Dur {
        Dur(self.0 / rhs)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ns", self.as_ns())
    }
}
impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ns", self.as_ns())
    }
}
impl fmt::Debug for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ns", self.as_ns())
    }
}
impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ns", self.as_ns())
    }
}

/// A transmission or processing rate.
///
/// Stored as bits per second; transmission times are computed with 128-bit
/// intermediates so they are exact for all realistic rates and sizes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Bandwidth {
    bits_per_sec: u64,
}

impl Bandwidth {
    #[inline]
    pub const fn from_gbit_per_sec(gbit: u64) -> Bandwidth {
        Bandwidth {
            bits_per_sec: gbit * 1_000_000_000,
        }
    }
    /// Decimal gigabytes per second (the unit the paper's figure labels use).
    #[inline]
    pub const fn from_gbyte_per_sec(gb: u64) -> Bandwidth {
        Bandwidth {
            bits_per_sec: gb * 8_000_000_000,
        }
    }
    #[inline]
    pub fn gbit_per_sec(self) -> f64 {
        self.bits_per_sec as f64 / 1e9
    }

    /// Time to transmit `bytes` at this rate (rounded up to a picosecond).
    #[inline]
    pub fn tx_time(self, bytes: u64) -> Dur {
        debug_assert!(self.bits_per_sec > 0);
        let bits = bytes as u128 * 8;
        let ps = (bits * 1_000_000_000_000u128).div_ceil(self.bits_per_sec as u128);
        Dur(ps as u64)
    }

    /// Bytes transferable in `d` (rounded down).
    #[cfg(test)]
    fn bytes_in(self, d: Dur) -> u64 {
        let bits = d.0 as u128 * self.bits_per_sec as u128 / 1_000_000_000_000u128;
        (bits / 8) as u64
    }
}

/// Compute an achieved rate from a byte count and elapsed time.
pub fn achieved_gbit_per_sec(bytes: u64, elapsed: Dur) -> f64 {
    if elapsed == Dur::ZERO {
        return f64::INFINITY;
    }
    (bytes as f64 * 8.0) / (elapsed.0 as f64 / 1e12) / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mtu_frame_at_400g_serializes_in_40960_ps() {
        let bw = Bandwidth::from_gbit_per_sec(400);
        assert_eq!(bw.tx_time(2048), Dur(40_960));
    }

    #[test]
    fn one_byte_at_400g_is_20_ps() {
        let bw = Bandwidth::from_gbit_per_sec(400);
        assert_eq!(bw.tx_time(1), Dur(20));
    }

    #[test]
    fn tx_time_rounds_up() {
        // 3 bits/s: 1 byte = 8 bits -> 8/3 s, must round up.
        let bw = Bandwidth { bits_per_sec: 3 };
        assert_eq!(bw.tx_time(1).0, 8_000_000_000_000u64.div_ceil(3));
    }

    #[test]
    fn bytes_in_inverts_tx_time() {
        let bw = Bandwidth::from_gbit_per_sec(100);
        let d = bw.tx_time(1 << 20);
        assert_eq!(bw.bytes_in(d), 1 << 20);
    }

    #[test]
    fn time_arithmetic() {
        let t = Time::ZERO + Dur::from_ns(5) + Dur::from_us(1);
        assert_eq!(t.ps(), 1_005_000);
        assert_eq!((t - Time(5_000)).ps(), 1_000_000);
        assert_eq!(t.since(Time(u64::MAX)), Dur::ZERO);
    }

    #[test]
    fn gbyte_units_are_decimal() {
        let bw = Bandwidth::from_gbyte_per_sec(50);
        assert_eq!(bw.bits_per_sec, 400_000_000_000);
        assert_eq!(bw.tx_time(50), Dur::from_ns(1), "50 B at 50 GB/s is 1 ns");
    }

    #[test]
    fn achieved_rate_roundtrip() {
        // 50 GB/s for 1 MiB should be ~419.43 Gbit/s... check the math:
        // 1 MiB = 1048576 B at 400 Gbit/s takes 1048576*20ps = 20.97152us.
        let bw = Bandwidth::from_gbit_per_sec(400);
        let d = bw.tx_time(1 << 20);
        let g = achieved_gbit_per_sec(1 << 20, d);
        assert!((g - 400.0).abs() < 1e-6, "{g}");
    }

    #[test]
    fn dur_display_in_ns() {
        assert_eq!(format!("{}", Dur::from_ns(42)), "42.000ns");
    }
}
