//! Property tests: the IntervalSet agrees with a naive boolean-array
//! model on arbitrary interval collections.

use enviromic_metrics::IntervalSet;
use proptest::prelude::*;

fn naive_union_len(intervals: &[(u64, u64)], universe: u64) -> u64 {
    let mut covered = vec![false; universe as usize];
    for &(a, b) in intervals {
        for slot in covered
            .iter_mut()
            .take((b.min(universe)) as usize)
            .skip(a as usize)
        {
            *slot = true;
        }
    }
    covered.iter().filter(|&&c| c).count() as u64
}

proptest! {
    #[test]
    fn union_matches_naive_model(
        raw in proptest::collection::vec((0u64..200, 0u64..200), 0..40)
    ) {
        let intervals: Vec<(u64, u64)> = raw;
        let mut set = IntervalSet::new();
        for &(a, b) in &intervals {
            set.add(a, b);
        }
        let expect = naive_union_len(&intervals, 200);
        prop_assert_eq!(set.total_len(), expect);
        // Merged intervals are sorted, disjoint, and non-touching.
        for w in set.intervals().windows(2) {
            prop_assert!(w[0].1 < w[1].0, "not merged: {:?}", set.intervals());
        }
    }
}
