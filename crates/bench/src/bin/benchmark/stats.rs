//! Reported values, medians and quartiles of repeated measurements.

use serde::Value;

/// One metric over a measurement's repeats.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// The reported figure (see the constructors).
    pub value: f64,
    /// One reading per repeat; the quartiles, min and max are theirs.
    pub samples: Vec<f64>,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    /// The median of `samples`.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample set.
    pub fn of(samples: Vec<f64>) -> Summary {
        let value = median(&samples);
        Summary::with_value(value, samples)
    }

    /// `value` reported for `samples`.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample set.
    pub fn with_value(value: f64, samples: Vec<f64>) -> Summary {
        assert!(!samples.is_empty(), "a summary needs at least one sample");
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        let (q1, q3) = quartiles(&sorted);
        Summary {
            value,
            q1,
            q3,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            samples,
        }
    }

    /// Distance between the quartiles as a share of the value.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.value.abs()
        }
    }

    /// The summary as the fields of a JSON object.
    pub fn fields(&self) -> Vec<(String, Value)> {
        vec![
            ("value".into(), number(self.value)),
            ("q1".into(), number(self.q1)),
            ("q3".into(), number(self.q3)),
            ("min".into(), number(self.min)),
            ("max".into(), number(self.max)),
            (
                "samples".into(),
                Value::Seq(self.samples.iter().copied().map(number).collect()),
            ),
        ]
    }

    /// Reads an object holding [`Summary::fields`]; the quartiles are
    /// recomputed from the samples.
    pub fn from_value(v: &Value) -> Option<Summary> {
        let samples: Vec<f64> = v
            .get("samples")?
            .as_seq()?
            .iter()
            .map(Value::as_f64)
            .collect::<Option<_>>()?;
        if samples.is_empty() {
            return None;
        }
        Some(Summary::with_value(v.get("value")?.as_f64()?, samples))
    }
}

/// A number as JSON; a non-finite value (never expected) reads as 0.
pub fn number(x: f64) -> Value {
    Value::F64(if x.is_finite() { x } else { 0.0 })
}

/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Combines repeats that each measured the same pieces of work: piece `i`
/// of every repeat did identical work. Each piece takes `pick` over the
/// repeats, and the picks add up.
///
/// # Panics
///
/// Panics when the repeats split into different numbers of pieces.
pub fn sum_of_pieces(repeats: &[&[f64]], pick: impl Fn(&[f64]) -> f64) -> f64 {
    let n = repeats.first().map_or(0, |r| r.len());
    assert!(
        repeats.iter().all(|r| r.len() == n),
        "every repeat splits into the same pieces"
    );
    (0..n)
        .map(|i| pick(&repeats.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .sum()
}

/// The smallest value.
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// First and third quartiles by the method of Python's
/// `statistics.quantiles(data, n=4)` (the default "exclusive" method),
/// so spreads read the same here as in scripts that check them. With two
/// samples that method extrapolates past both; a single sample is its
/// own quartiles.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let len = sorted.len();
    if len == 1 {
        return (sorted[0], sorted[0]);
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        // statistics.quantiles([5, 1, 3, 2, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 4.5));
        let s = Summary::of(vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!((s.value, s.min, s.max), (2.5, 1.0, 4.0));
    }

    #[test]
    fn pieces_are_picked_one_by_one() {
        // A slow spell hits a different piece in each repeat; the
        // per-piece pick drops every one of them.
        let a = [1.0, 5.0, 1.0];
        let b = [1.0, 1.0, 5.0];
        let c = [5.0, 1.0, 1.0];
        assert_eq!(sum_of_pieces(&[&a, &b, &c], fastest), 3.0);
        assert_eq!(sum_of_pieces(&[&a, &b, &c], median), 3.0);
        assert_eq!(median(&[7.0, 7.0, 7.0]), 7.0);
    }

    #[test]
    fn summaries_round_trip_through_json() {
        let s = Summary::with_value(1.5, vec![2.0, 1.0, 3.0]);
        assert_eq!(Summary::from_value(&Value::Map(s.fields())), Some(s));
    }
}
