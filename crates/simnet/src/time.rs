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
        Dur(round_u64(ns * 1e3))
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

const PS_PER_S: u64 = 1_000_000_000_000;

/// `x.round() as u64` for every `f64` (halves away from zero; negatives
/// and NaN to 0, saturating at `u64::MAX`), without libm's `round`.
/// Truncation saturates the same way, and below 2⁵³ the fraction
/// `x - trunc(x)` is exact, so comparing it with 0.5 rounds exactly; from
/// 2⁵³ up every `f64` is an integer and the fraction is 0.
#[inline]
pub fn round_u64(x: f64) -> u64 {
    let t = x as u64;
    if x - t as f64 >= 0.5 {
        t.saturating_add(1)
    } else {
        t
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
/// Stored as bits per second; transmission times are exact integer
/// divisions, in 64 bits where the product fits and 128 bits otherwise.
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
        if bytes < Self::NARROW_BYTES {
            Dur((bytes * 8 * PS_PER_S).div_ceil(self.bits_per_sec))
        } else {
            Dur(self.tx_time_wide(bytes))
        }
    }

    /// Below this many bytes `bytes × 8 × 10¹²` is under 2²⁴ × 2⁴⁰ = 2⁶⁴,
    /// so [`Self::tx_time`] divides in 64 bits; every packet is.
    const NARROW_BYTES: u64 = 1 << 21;

    fn tx_time_wide(self, bytes: u64) -> u64 {
        let ps = (bytes as u128 * 8 * PS_PER_S as u128).div_ceil(self.bits_per_sec as u128);
        ps as u64
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

    /// The 64-bit division agrees with the 128-bit one wherever it is
    /// taken, up to the boundary, and the 128-bit one takes over there.
    #[test]
    fn narrow_tx_time_equals_the_wide_division() {
        let edge = Bandwidth::NARROW_BYTES;
        for gbit in [100, 200, 400] {
            let bw = Bandwidth::from_gbit_per_sec(gbit);
            for bytes in [1, 2048, 64 << 10, edge - 1, edge, edge + 1] {
                assert_eq!(
                    bw.tx_time(bytes).ps(),
                    bw.tx_time_wide(bytes),
                    "{bytes} B at {gbit} Gbit/s"
                );
            }
        }
        // The largest narrow product fits in 64 bits.
        assert!((edge - 1).checked_mul(8 * PS_PER_S).is_some());
        let slow = Bandwidth { bits_per_sec: 3 };
        assert_eq!(slow.tx_time(edge - 1).ps(), slow.tx_time_wide(edge - 1));
    }

    /// `round_u64` is `f64::round` followed by the saturating cast.
    #[test]
    fn round_u64_is_round_then_cast() {
        let two52 = (1u64 << 52) as f64;
        let two53 = (1u64 << 53) as f64;
        let two64 = 18_446_744_073_709_551_616.0_f64;
        let mut cases = vec![
            0.0,
            -0.0,
            0.5,
            1.5,
            2.5,
            0.49999999999999994,
            0.5000000000000001,
            1.4999999999999998,
            two52 - 0.5,
            two52 + 0.5,
            two52 + 1.0,
            two53,
            two53 + 2.0,
            two53 - 1.0,
            two64,
            two64 * 2.0,
            two64 - 2048.0,
            f64::MAX,
            -0.4,
            -0.5,
            -1.5,
            -two64,
            f64::MIN,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::EPSILON,
        ];
        // And a spread of magnitudes, halves and near-halves.
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for _ in 0..20_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let v = f64::from_bits(x);
            cases.push(v);
            let m = (x >> 11) as f64 / (1u64 << (x % 60)) as f64;
            cases.extend([m, m.trunc() + 0.5, m + 0.5, m - 0.5]);
        }
        for v in cases {
            assert_eq!(round_u64(v), v.round() as u64, "{v:e} ({:#x})", v.to_bits());
        }
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
