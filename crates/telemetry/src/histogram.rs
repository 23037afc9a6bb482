//! Fixed log-bucket histograms with quantile estimation.

use std::cell::RefCell;
use std::rc::Rc;

use serde::{Deserialize, Serialize};

/// Buckets per octave (bucket boundaries at powers of `2^(1/4)`), giving
/// quantile estimates within about ±9 % of the true value.
const SUB_OCTAVE: i32 = 4;
/// Lowest representable bucket exponent (`2^-16` ≈ 1.5e-5).
const MIN_EXP: i32 = -16 * SUB_OCTAVE;
/// Highest representable bucket exponent (`2^48` ≈ 2.8e14).
const MAX_EXP: i32 = 48 * SUB_OCTAVE;

#[derive(Debug, Clone, Default, PartialEq)]
struct HistData {
    /// Sparse `(bucket index, count)` pairs, kept sorted by index.
    buckets: Vec<(i16, u64)>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    zero_or_less: u64,
}

/// Bucket index for a positive value.
fn bucket_of(v: f64) -> i16 {
    let exp = (v.log2() * f64::from(SUB_OCTAVE)).floor() as i64;
    exp.clamp(i64::from(MIN_EXP), i64::from(MAX_EXP)) as i16
}

/// Geometric midpoint of a bucket (the representative quantile value).
fn bucket_mid(index: i16) -> f64 {
    let step = 1.0 / f64::from(SUB_OCTAVE);
    2f64.powf((f64::from(index) + 0.5) * step)
}

impl HistData {
    fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        if v <= 0.0 {
            self.zero_or_less += 1;
            return;
        }
        let idx = bucket_of(v);
        match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
            Ok(pos) => self.buckets[pos].1 += 1,
            Err(pos) => self.buckets.insert(pos, (idx, 1)),
        }
    }

    /// Estimated value at quantile `q` in `[0, 1]`.
    fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.count as f64 - 1.0)).round() as u64;
        if rank < self.zero_or_less {
            // Non-positive observations sort first and are not bucketed;
            // approximate them with the recorded minimum.
            return self.min.min(0.0);
        }
        let mut seen = self.zero_or_less;
        for &(idx, n) in &self.buckets {
            seen += n;
            if rank < seen {
                return bucket_mid(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            zero_or_less: self.zero_or_less,
            buckets: self.buckets.clone(),
        }
    }
}

/// A handle to a histogram registered in a
/// [`Registry`](crate::Registry). Cloning shares the underlying series.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    data: Rc<RefCell<HistData>>,
}

impl Histogram {
    /// Records one observation. Non-finite values are ignored.
    pub fn observe(&self, v: f64) {
        self.data.borrow_mut().observe(v);
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.data.borrow().count
    }

    /// An immutable snapshot with quantile estimates.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.data.borrow().snapshot()
    }
}

/// An immutable histogram summary: totals, extrema, estimated quantiles,
/// and the sparse bucket counts they derive from (kept so snapshots can
/// be merged without losing resolution). The all-zero `Default` is the
/// snapshot of an empty histogram.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 90th percentile.
    pub p90: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
    /// Observations ≤ 0 (sorted below all buckets).
    pub zero_or_less: u64,
    /// Sparse `(log-bucket index, count)` pairs, sorted by index.
    pub buckets: Vec<(i16, u64)>,
}

impl HistogramSnapshot {
    /// Mean of all observations (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Folds `other` into `self`, recomputing the quantile estimates.
    ///
    /// Empty snapshots report `min = max = 0.0` as placeholders, so both
    /// directions guard against contaminating real extrema: an empty
    /// `other` is a no-op, and an empty `self` adopts `other`'s extrema
    /// wholesale (pinned by `tests/prop_histogram.rs` against a
    /// merge-of-raw-observations reference).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        let mut data = HistData {
            buckets: self.buckets.clone(),
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { other.min } else { self.min },
            max: if self.count == 0 { other.max } else { self.max },
            zero_or_less: self.zero_or_less,
        };
        for &(idx, n) in &other.buckets {
            match data.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
                Ok(pos) => data.buckets[pos].1 += n,
                Err(pos) => data.buckets.insert(pos, (idx, n)),
            }
        }
        data.count += other.count;
        data.sum += other.sum;
        data.min = data.min.min(other.min);
        data.max = data.max.max(other.max);
        data.zero_or_less += other.zero_or_less;
        *self = data.snapshot();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_uniform_distribution() {
        let h = Histogram::default();
        for i in 1..=10_000 {
            h.observe(f64::from(i));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10_000);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 10_000.0);
        // Log buckets at 2^(1/4) resolve quantiles within ~±9 %.
        assert!((s.p50 / 5_000.0).ln().abs() < 0.1, "p50 = {}", s.p50);
        assert!((s.p90 / 9_000.0).ln().abs() < 0.1, "p90 = {}", s.p90);
        assert!((s.p99 / 9_900.0).ln().abs() < 0.1, "p99 = {}", s.p99);
        assert!((s.mean() - 5_000.5).abs() < 1e-6);
    }

    #[test]
    fn quantiles_of_constant_distribution() {
        let h = Histogram::default();
        for _ in 0..100 {
            h.observe(70.0);
        }
        let s = h.snapshot();
        for q in [s.p50, s.p90, s.p99] {
            assert!((q / 70.0).ln().abs() < 0.1, "quantile {q} far from 70");
        }
    }

    #[test]
    fn empty_and_nonpositive_observations() {
        let h = Histogram::default();
        let s = h.snapshot();
        assert_eq!((s.count, s.p50, s.min, s.max), (0, 0.0, 0.0, 0.0));
        h.observe(0.0);
        h.observe(-5.0);
        h.observe(f64::NAN);
        let s = h.snapshot();
        assert_eq!(s.count, 2, "NaN must be ignored");
        assert_eq!(s.min, -5.0);
        assert!(s.p50 <= 0.0);
    }

    #[test]
    fn merge_matches_single_series() {
        let a = Histogram::default();
        let b = Histogram::default();
        let whole = Histogram::default();
        for i in 1..=1000 {
            let v = f64::from(i) * 0.37;
            if i % 2 == 0 {
                a.observe(v);
            } else {
                b.observe(v);
            }
            whole.observe(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        let expect = whole.snapshot();
        // Sums differ in the last ulp (different addition order).
        assert!((merged.sum - expect.sum).abs() < 1e-9 * expect.sum);
        merged.sum = expect.sum;
        assert_eq!(merged, expect);
    }
}
