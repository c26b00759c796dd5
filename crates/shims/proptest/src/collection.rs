//! Collection strategies: `vec` and `btree_set`.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::collections::BTreeSet;
use std::ops::Range;

/// A `Vec` of `size.start..size.end` elements drawn from `element`.
pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
    assert!(size.start < size.end, "empty size range");
    VecStrategy { element, size }
}

/// The strategy returned by [`vec()`].
#[derive(Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = self.size.end - self.size.start;
        let n = self.size.start + rng.below(span.max(1));
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}

/// A `BTreeSet` of *up to* `size.end - 1` elements (duplicates collapse,
/// as in real proptest's set strategies).
pub fn btree_set<S>(element: S, size: Range<usize>) -> BTreeSetStrategy<S>
where
    S: Strategy,
    S::Value: Ord,
{
    assert!(size.start < size.end, "empty size range");
    BTreeSetStrategy { element, size }
}

/// The strategy returned by [`btree_set`].
#[derive(Clone)]
pub struct BTreeSetStrategy<S> {
    element: S,
    size: Range<usize>,
}

impl<S> Strategy for BTreeSetStrategy<S>
where
    S: Strategy,
    S::Value: Ord,
{
    type Value = BTreeSet<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
        let span = self.size.end - self.size.start;
        let n = self.size.start + rng.below(span.max(1));
        let mut out = BTreeSet::new();
        // Bounded retries: small element domains may not have n distinct
        // values, in which case a smaller set is acceptable.
        let mut attempts = 0;
        while out.len() < n && attempts < n * 8 + 8 {
            out.insert(self.element.generate(rng));
            attempts += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_sizes_and_elements() {
        let mut rng = TestRng::from_seed(11);
        for _ in 0..200 {
            let v = vec(0u32..5, 1..4).generate(&mut rng);
            assert!((1..4).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 5));
        }
    }

    #[test]
    fn btree_set_respects_minimum_when_domain_allows() {
        let mut rng = TestRng::from_seed(12);
        for _ in 0..100 {
            let s = btree_set(0u32..100, 3..6).generate(&mut rng);
            assert!(s.len() >= 3 && s.len() < 6);
        }
        // Tiny domain: sets shrink gracefully instead of spinning.
        let s = btree_set(0u32..2, 3..6).generate(&mut rng);
        assert!(s.len() <= 2);
    }
}
