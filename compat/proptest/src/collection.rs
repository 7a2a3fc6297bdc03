//! Collection strategies (`prop::collection::vec`).

use std::ops::{Range, RangeInclusive};

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// An inclusive size bound for generated collections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeRange {
    lo: usize,
    hi: usize,
}

impl From<usize> for SizeRange {
    /// A fixed size.
    fn from(n: usize) -> SizeRange {
        SizeRange { lo: n, hi: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> SizeRange {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            lo: r.start,
            hi: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> SizeRange {
        assert!(r.start() <= r.end(), "empty size range");
        SizeRange {
            lo: *r.start(),
            hi: *r.end(),
        }
    }
}

/// Generates a `Vec` whose length lies in `size` and whose elements come
/// from `element`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// See [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.size.hi - self.size.lo + 1) as u64;
        let len = self.size.lo + rng.below(span) as usize;
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_and_elements_in_bounds() {
        let mut rng = TestRng::seed_from_u64(5);
        let strat = vec(0u64..7, 2..5);
        for _ in 0..200 {
            let v = strat.generate(&mut rng);
            assert!((2..=4).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 7));
        }
        let fixed = vec(0u64..7, 3);
        assert_eq!(fixed.generate(&mut rng).len(), 3);
    }
}
