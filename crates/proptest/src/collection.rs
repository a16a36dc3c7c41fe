//! Collection strategies (`vec`).

use crate::strategy::Strategy;
use crate::test_runner::TestRunner;
use rand::RngExt;
use std::ops::{Range, RangeInclusive};

/// An inclusive size window for generated collections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeRange {
    lo: usize,
    hi: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            lo: r.start,
            hi: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty size range");
        SizeRange {
            lo: *r.start(),
            hi: *r.end(),
        }
    }
}

/// A `Vec` strategy: `size` elements (sampled from the window), each from
/// `element`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// The strategy returned by [`vec()`].
#[derive(Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, runner: &mut TestRunner) -> Vec<S::Value> {
        let len = runner.rng.random_range(self.size.lo..=self.size.hi);
        (0..len).map(|_| self.element.generate(runner)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_runner::TestRunner;

    #[test]
    fn fixed_and_ranged_sizes() {
        let mut r = TestRunner::deterministic();
        let fixed = vec(0u32..5, 6);
        assert_eq!(fixed.generate(&mut r).len(), 6);
        let ranged = vec(0u32..5, 0..20);
        let mut saw_small = false;
        let mut saw_large = false;
        for _ in 0..200 {
            let v = ranged.generate(&mut r);
            assert!(v.len() < 20);
            saw_small |= v.len() < 5;
            saw_large |= v.len() >= 15;
        }
        assert!(saw_small && saw_large);
    }
}
