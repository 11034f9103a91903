//! Stats structs that declare their own metrics-snapshot keys, so a
//! field's key is written once, beside the field.

use std::fmt::{self, Write};

use super::MetricsHub;

/// Declare a stats struct and its snapshot export ([`Stats`]). A field
/// is exported by appending `=> counter` or `=> gauge` and, optionally,
/// its key suffix (the field's name by default); an array field adds
/// `per` and the names of its elements, one key each. A field without
/// `=>` is not exported. `: Sum` after the struct's name also generates a
/// `+=` that adds every exported field, for stats the snapshot sums.
///
/// ```
/// nadfs_simnet::declare_stats! {
///     #[derive(Clone, Copy, Debug, Default)]
///     pub struct PortStats: Sum {
///         pub sent: u64 => counter,              // <prefix>.sent
///         pub busy_ps: u64 => counter "link.busy_ps",
///         pub depth: u64 => gauge,
///         pub per_lane: [u64; 2] => counter per ["a", "b"], // .per_lane.a, .b
///         pub scratch: u64,                      // not exported
///     }
/// }
/// ```
#[macro_export]
macro_rules! declare_stats {
    (@key $field:ident) => { stringify!($field) };
    (@key $field:ident $key:literal) => { $key };
    (@put $out:ident, $v:expr, $kind:ident, $key:expr) => { $out.$kind(&[$key], $v) };
    (@put $out:ident, $v:expr, $kind:ident, $key:expr, $names:expr) => {
        for (name, &v) in $names.into_iter().zip(&$v) {
            $out.$kind(&[$key, name], v)
        }
    };
    (@sum [] $($t:tt)*) => {};
    (@sum [Sum] $name:ident $($field:ident $kind:ident [$($names:expr)?])*) => {
        impl ::std::ops::AddAssign<&$name> for $name {
            fn add_assign(&mut self, o: &$name) {
                $($crate::declare_stats!(@add self.$field, o.$field $(, $names)?);)*
            }
        }
    };
    (@add $a:expr, $b:expr) => { $a += $b };
    (@add $a:expr, $b:expr, $names:expr) => {
        for (a, b) in $a.iter_mut().zip($b) {
            *a += b
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident $(: $sum:ident)? {
            $(
                $(#[$fmeta:meta])*
                $fvis:vis $field:ident : $ty:ty
                    $(=> $kind:ident $($key:literal)? $(per $names:expr)?)?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $ty,)*
        }
        impl $crate::telemetry::Stats for $name {
            fn export(&self, out: &mut $crate::telemetry::StatsOut<'_>) {
                $($(
                    $crate::declare_stats!(
                        @put out, self.$field, $kind,
                        $crate::declare_stats!(@key $field $($key)?) $(, $names)?
                    );
                )?)*
            }
        }
        $crate::declare_stats!(@sum [$($sum)?] $name $($($field $kind [$($names)?])?)*);
    };
}

/// A stats struct declared with [`declare_stats!`].
pub trait Stats {
    /// Write every exported field under the prefix `out` holds.
    fn export(&self, out: &mut StatsOut<'_>);
}

/// Writes stats into a [`MetricsHub`], building every key in one reused
/// buffer: the current prefix, then `.`-joined parts per value.
pub struct StatsOut<'a> {
    hub: &'a mut MetricsHub,
    key: String,
}

impl<'a> StatsOut<'a> {
    pub fn new(hub: &'a mut MetricsHub) -> StatsOut<'a> {
        StatsOut {
            hub,
            key: String::new(),
        }
    }

    /// Export every declared field of `stats` under `prefix` (a `&str`,
    /// or `format_args!` for an indexed one), which stays the prefix of
    /// the keys that follow.
    pub fn put(&mut self, prefix: impl fmt::Display, stats: &impl Stats) {
        self.key.clear();
        write!(self.key, "{prefix}").expect("a String takes any write");
        stats.export(self);
    }

    /// Set counter `<prefix>.<parts joined by '.'>` to `v`.
    pub fn counter(&mut self, parts: &[&str], v: u64) {
        self.set(parts, |hub, key| hub.counter_set(key, v));
    }

    /// Set gauge `<prefix>.<parts joined by '.'>` to `v`.
    pub fn gauge(&mut self, parts: &[&str], v: u64) {
        self.set(parts, |hub, key| hub.gauge_set(key, v as f64));
    }

    fn set(&mut self, parts: &[&str], set: impl FnOnce(&mut MetricsHub, &str)) {
        let prefix = self.key.len();
        for p in parts {
            self.key.push('.');
            self.key.push_str(p);
        }
        set(self.hub, &self.key);
        self.key.truncate(prefix);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::declare_stats! {
        /// A stats struct with every kind of field.
        #[derive(Clone, Copy, Debug, Default)]
        struct Probe: Sum {
            /// Counted under its own name.
            sent: u64 => counter,
            busy_ps: u64 => counter "link.busy_ps",
            depth: u64 => gauge,
            per_lane: [u64; 2] => counter per ["a", "b"],
            scratch: u64,
        }
    }

    #[test]
    fn declared_fields_export_under_their_keys() {
        let p = Probe {
            sent: 1,
            busy_ps: 2,
            depth: 3,
            per_lane: [4, 5],
            scratch: 6,
        };
        let mut hub = MetricsHub::new();
        StatsOut::new(&mut hub).put(format_args!("port.{}", 7), &p);
        let snap = hub.snapshot();
        let counters: Vec<_> = snap
            .counters
            .iter()
            .map(|(k, v)| (k.as_str(), *v))
            .collect();
        assert_eq!(
            counters,
            [
                ("port.7.link.busy_ps", 2),
                ("port.7.per_lane.a", 4),
                ("port.7.per_lane.b", 5),
                ("port.7.sent", 1),
            ]
        );
        assert_eq!(snap.gauges, [("port.7.depth".to_owned(), 3.0)]);
    }

    #[test]
    fn sum_adds_every_exported_field() {
        let mut a = Probe {
            sent: 1,
            per_lane: [1, 2],
            scratch: 3,
            ..Probe::default()
        };
        let b = a;
        a += &b;
        assert_eq!((a.sent, a.per_lane, a.scratch), (2, [2, 4], 3));
    }
}
