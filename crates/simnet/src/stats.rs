//! Measurement helpers: running scalar summaries.

use crate::time::Dur;

/// A running summary of scalar samples: count and sum.
///
/// Nothing reads back individual samples, so none are kept — a pSPIN
/// packet records seven of these. The sum accumulates in arrival order,
/// so `mean()` is bit-for-bit what summing a stored vector would give.
#[derive(Clone, Debug, Default)]
pub struct Sampler {
    n: usize,
    sum: f64,
}

impl Sampler {
    pub fn record(&mut self, v: f64) {
        self.n += 1;
        self.sum += v;
    }

    pub fn record_dur_ns(&mut self, d: Dur) {
        self.record(d.as_ns());
    }

    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// NaN when nothing was recorded.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            return f64::NAN;
        }
        self.sum / self.n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_summary() {
        let mut s = Sampler::default();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            s.record(v);
        }
        assert_eq!(s.len(), 5);
        assert!((s.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn sampler_empty_is_nan() {
        let s = Sampler::default();
        assert!(s.mean().is_nan());
        assert!(s.is_empty());
    }

    #[test]
    fn mean_matches_summing_the_samples_in_arrival_order() {
        // Values whose sum depends on the order of additions: the running
        // sum must round exactly as a left-to-right sum of the vector.
        let vs = [1e16, 3.0, -1e16, 0.1, 2106.0, 1e-9, 7.25];
        let mut s = Sampler::default();
        for v in vs {
            s.record(v);
        }
        let stored = vs.iter().sum::<f64>() / vs.len() as f64;
        assert_eq!(s.mean().to_bits(), stored.to_bits());
    }
}
