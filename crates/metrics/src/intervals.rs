//! Interval arithmetic over jiffy timestamps.

/// A set of half-open intervals `[start, end)` in jiffies, kept merged and
/// sorted.
///
/// # Examples
///
/// ```
/// use enviromic_metrics::IntervalSet;
///
/// let mut s = IntervalSet::new();
/// s.add(0, 10);
/// s.add(5, 20);
/// s.add(30, 40);
/// assert_eq!(s.total_len(), 30);
/// assert_eq!(s.intervals(), &[(0, 20), (30, 40)]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntervalSet {
    /// Merged, sorted, non-touching intervals.
    merged: Vec<(u64, u64)>,
}

impl IntervalSet {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> Self {
        IntervalSet::default()
    }

    /// Adds one interval (no-op when empty or inverted).
    pub fn add(&mut self, start: u64, end: u64) {
        if end <= start {
            return;
        }
        // Binary search for the insertion point, then merge neighbours.
        let idx = self.merged.partition_point(|&(a, _)| a < start);
        self.merged.insert(idx, (start, end));
        // Merge left neighbour and any right overlaps.
        let mut i = idx.saturating_sub(1);
        while i + 1 < self.merged.len() {
            let (a1, b1) = self.merged[i];
            let (a2, b2) = self.merged[i + 1];
            if a2 <= b1 {
                self.merged[i] = (a1, b1.max(b2));
                self.merged.remove(i + 1);
            } else if i < idx {
                i += 1;
            } else {
                break;
            }
        }
    }

    /// The merged intervals.
    #[must_use]
    pub fn intervals(&self) -> &[(u64, u64)] {
        &self.merged
    }

    /// Total covered length.
    #[must_use]
    pub fn total_len(&self) -> u64 {
        self.merged.iter().map(|(a, b)| b - a).sum()
    }

    /// True when nothing is covered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.merged.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_merges_overlaps_in_any_order() {
        let mut s = IntervalSet::new();
        s.add(10, 20);
        s.add(0, 5);
        s.add(4, 11); // bridges both
        assert_eq!(s.intervals(), &[(0, 20)]);
        assert_eq!(s.total_len(), 20);
    }

    #[test]
    fn touching_intervals_merge() {
        let mut s = IntervalSet::new();
        s.add(0, 10);
        s.add(10, 20);
        assert_eq!(s.intervals(), &[(0, 20)]);
    }

    #[test]
    fn disjoint_intervals_stay_apart() {
        let mut s = IntervalSet::new();
        s.add(0, 5);
        s.add(10, 15);
        assert_eq!(s.intervals().len(), 2);
        assert_eq!(s.total_len(), 10);
    }

    #[test]
    fn empty_and_inverted_are_ignored() {
        let mut s = IntervalSet::new();
        s.add(5, 5);
        s.add(9, 3);
        assert!(s.is_empty());
    }
}
