//! Monomials: products of provenance tokens with exponents.

use std::collections::BTreeMap;
use std::fmt;

/// A monomial over variables `V`: a finite product `x₁^e₁ · x₂^e₂ · …` with
/// positive exponents, in canonical (sorted, deduplicated) form.
///
/// The empty monomial is the multiplicative unit `1`.
/// Exponent arithmetic saturates at `u32::MAX`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Monomial<V: Ord + Clone> {
    factors: BTreeMap<V, u32>,
}

impl<V: Ord + Clone> Monomial<V> {
    /// The unit monomial `1`.
    pub(crate) fn unit() -> Self {
        Monomial {
            factors: BTreeMap::new(),
        }
    }

    /// Build from `(variable, exponent)` pairs; zero exponents are dropped,
    /// duplicates are combined.
    pub fn from_pairs<I: IntoIterator<Item = (V, u32)>>(pairs: I) -> Self {
        let mut factors: BTreeMap<V, u32> = BTreeMap::new();
        for (v, e) in pairs {
            if e > 0 {
                let slot = factors.entry(v).or_insert(0);
                *slot = slot.saturating_add(e);
            }
        }
        Monomial { factors }
    }

    /// True iff this is the unit monomial.
    pub(crate) fn is_unit(&self) -> bool {
        self.factors.is_empty()
    }

    /// Iterate `(variable, exponent)` in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (&V, u32)> {
        self.factors.iter().map(|(v, &e)| (v, e))
    }

    /// Product of two monomials (exponents add).
    pub(crate) fn times(&self, other: &Self) -> Self {
        // Merge the smaller map into the larger to bound work.
        let (big, small) = if self.factors.len() >= other.factors.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut factors = big.factors.clone();
        for (v, &e) in &small.factors {
            let slot = factors.entry(v.clone()).or_insert(0);
            *slot = slot.saturating_add(e);
        }
        Monomial { factors }
    }
}

impl<V: Ord + Clone + fmt::Display> fmt::Display for Monomial<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_unit() {
            return write!(f, "1");
        }
        for (i, (v, e)) in self.factors.iter().enumerate() {
            if i > 0 {
                write!(f, "·")?;
            }
            if *e == 1 {
                write!(f, "{v}")?;
            } else {
                write!(f, "{v}^{e}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type M = Monomial<u32>;

    fn pairs(m: &M) -> Vec<(u32, u32)> {
        m.iter().map(|(v, e)| (*v, e)).collect()
    }

    #[test]
    fn unit_properties() {
        let u = M::unit();
        assert!(u.is_unit());
        assert_eq!(pairs(&u), []);
        assert_eq!(u.to_string(), "1");
    }

    #[test]
    fn var_and_times() {
        let x = M::from_pairs([(1, 1)]);
        let y = M::from_pairs([(2, 1)]);
        let xy = x.times(&y);
        assert_eq!(pairs(&xy), [(1, 1), (2, 1)]);
        let x2y = xy.times(&x);
        assert_eq!(pairs(&x2y), [(1, 2), (2, 1)]);
        // Exponents saturate instead of overflowing.
        let huge = M::from_pairs([(1, u32::MAX)]);
        assert_eq!(pairs(&huge.times(&x2y)), [(1, u32::MAX), (2, 1)]);
    }

    #[test]
    fn times_unit_is_identity() {
        let x = M::from_pairs([(5, 1)]);
        assert_eq!(x.times(&M::unit()), x);
        assert_eq!(M::unit().times(&x), x);
    }

    #[test]
    fn times_is_commutative() {
        let a = M::from_pairs([(1, 2), (3, 1)]);
        let b = M::from_pairs([(2, 1), (3, 4)]);
        assert_eq!(a.times(&b), b.times(&a));
    }

    #[test]
    fn from_pairs_canonicalizes() {
        // Zero exponents dropped, duplicates combined.
        let m = M::from_pairs([(2, 1), (1, 0), (2, 2)]);
        assert_eq!(pairs(&m), [(2, 3)]);
        let m = M::from_pairs([(1, u32::MAX), (1, 1)]);
        assert_eq!(pairs(&m), [(1, u32::MAX)], "saturates");
    }

    #[test]
    fn display_with_exponents() {
        let m = M::from_pairs([(1, 2), (7, 1)]);
        assert_eq!(m.to_string(), "1^2·7");
    }

    #[test]
    fn ordering_is_deterministic() {
        let a = M::from_pairs([(1, 1)]);
        let b = M::from_pairs([(2, 1)]);
        assert!(a < b);
        assert!(M::unit() < a);
    }

    #[test]
    fn variables_iteration() {
        let m = M::from_pairs([(3, 1), (1, 2)]);
        let vars: Vec<u32> = m.iter().map(|(v, _)| *v).collect();
        assert_eq!(vars, vec![1, 3]);
    }
}
