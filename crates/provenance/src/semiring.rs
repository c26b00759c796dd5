//! The commutative semiring abstraction and the one concrete semiring the
//! CDSS evaluates provenance in.
//!
//! A commutative semiring `(K, +, ·, 0, 1)` has `(K, +, 0)` a commutative
//! monoid, `(K, ·, 1)` a commutative monoid, `·` distributing over `+`, and
//! `0` annihilating. The crate's tests check all of these laws with
//! `proptest` for [`Boolean`] and for [`Polynomial`](crate::Polynomial)
//! itself.

use std::fmt;

/// A commutative semiring.
pub trait Semiring: Clone + PartialEq + fmt::Debug {
    /// Additive identity; annihilates under multiplication.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Commutative, associative addition (alternative derivations).
    fn plus(&self, other: &Self) -> Self;
    /// Commutative, associative multiplication (joint use).
    fn times(&self, other: &Self) -> Self;

    /// True iff `self == 0`. Used to short-circuit hot paths.
    fn is_zero(&self) -> bool {
        *self == Self::zero()
    }
}

/// The Boolean semiring `({false,true}, ∨, ∧)` — set semantics: evaluating
/// a polynomial with some tokens mapped to `false` decides whether the
/// tuple is still derivable without them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Boolean(pub bool);

impl Semiring for Boolean {
    fn zero() -> Self {
        Boolean(false)
    }
    fn one() -> Self {
        Boolean(true)
    }
    fn plus(&self, other: &Self) -> Self {
        Boolean(self.0 || other.0)
    }
    fn times(&self, other: &Self) -> Self {
        Boolean(self.0 && other.0)
    }
}

impl fmt::Display for Boolean {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Assert all commutative-semiring laws on a triple of elements. Panics with
/// a named law on violation.
#[cfg(test)]
pub(crate) fn check_semiring_laws<S: Semiring>(a: &S, b: &S, c: &S) {
    // Additive monoid.
    assert_eq!(a.plus(&b.plus(c)), a.plus(b).plus(c), "plus associativity");
    assert_eq!(a.plus(b), b.plus(a), "plus commutativity");
    assert_eq!(a.plus(&S::zero()), *a, "plus identity");
    // Multiplicative monoid.
    assert_eq!(
        a.times(&b.times(c)),
        a.times(b).times(c),
        "times associativity"
    );
    assert_eq!(a.times(b), b.times(a), "times commutativity");
    assert_eq!(a.times(&S::one()), *a, "times identity");
    // Distributivity and annihilation.
    assert_eq!(
        a.times(&b.plus(c)),
        a.times(b).plus(&a.times(c)),
        "distributivity"
    );
    assert_eq!(a.times(&S::zero()), S::zero(), "annihilation");
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn boolean_table() {
        let t = Boolean(true);
        let f = Boolean(false);
        assert_eq!(Boolean::zero(), f);
        assert_eq!(Boolean::one(), t);
        assert_eq!(t.plus(&f), t);
        assert_eq!(f.plus(&f), f);
        assert_eq!(t.times(&f), f);
        assert_eq!(t.times(&t), t);
        assert!(f.is_zero());
        assert!(!t.is_zero());
    }

    proptest! {
        #[test]
        fn boolean_laws(a: bool, b: bool, c: bool) {
            check_semiring_laws(&Boolean(a), &Boolean(b), &Boolean(c));
        }
    }
}
