//! Provenance polynomials: the free commutative semiring N\[X\].

use crate::monomial::Monomial;
use crate::semiring::Semiring;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A polynomial in N\[X\] with variables (provenance tokens) `V`, kept in
/// canonical form: a map from monomial to positive coefficient.
///
/// This is the most informative provenance annotation of the PODS'07
/// hierarchy: every commutative-semiring evaluation factors through
/// [`eval`](Polynomial::eval) (the universal property).
///
/// Coefficient arithmetic saturates at `u64::MAX` and exponent arithmetic
/// at `u32::MAX` (a graph with enough alternative derivations could
/// otherwise overflow them), so the semiring laws hold exactly for
/// polynomials whose coefficients and exponents stay below those bounds.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Polynomial<V: Ord + Clone> {
    terms: BTreeMap<Monomial<V>, u64>,
}

impl<V: Ord + Clone + fmt::Debug> Polynomial<V> {
    /// The single-variable polynomial `v` — the annotation of a base tuple.
    pub fn var(v: V) -> Self {
        Self::term(Monomial::from_pairs([(v, 1)]), 1)
    }

    /// The polynomial for a single monomial with coefficient.
    pub(crate) fn term(m: Monomial<V>, coefficient: u64) -> Self {
        let mut terms = BTreeMap::new();
        if coefficient > 0 {
            terms.insert(m, coefficient);
        }
        Polynomial { terms }
    }

    /// Number of monomials.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Iterate `(monomial, coefficient)` in monomial order.
    pub fn iter(&self) -> impl Iterator<Item = (&Monomial<V>, u64)> {
        self.terms.iter().map(|(m, &c)| (m, c))
    }

    /// All distinct variables appearing in the polynomial.
    pub fn variables(&self) -> BTreeSet<V> {
        self.terms
            .keys()
            .flat_map(|m| m.iter().map(|(v, _)| v.clone()))
            .collect()
    }

    /// True iff variable `v` occurs anywhere.
    pub fn mentions(&self, v: &V) -> bool {
        self.terms.keys().any(|m| m.iter().any(|(w, _)| w == v))
    }

    /// In-place addition, avoiding an intermediate clone on the hot path of
    /// semi-naive evaluation.
    pub fn plus_assign(&mut self, other: &Self) {
        for (m, &c) in &other.terms {
            let slot = self.terms.entry(m.clone()).or_insert(0);
            *slot = slot.saturating_add(c);
        }
    }

    /// Evaluate under any commutative semiring by mapping each variable
    /// through `f` (the universal property of N\[X\]).
    ///
    /// Coefficients become `n`-fold sums and exponents `e`-fold products, so
    /// idempotent semirings collapse them as the theory prescribes. Both
    /// are computed by repeated doubling / squaring, in time logarithmic in
    /// the coefficient and the exponent.
    pub fn eval<S: Semiring>(&self, mut f: impl FnMut(&V) -> S) -> S {
        let mut acc = S::zero();
        for (m, &coeff) in &self.terms {
            let mut term = S::one();
            for (v, e) in m.iter() {
                let val = f(v);
                if val.is_zero() {
                    term = S::zero();
                    break;
                }
                term = term.times(&power(val, e));
            }
            if term.is_zero() {
                continue;
            }
            acc = acc.plus(&multiple(term, coeff));
        }
        acc
    }
}

/// `x^e` (`e ≥ 1`) by square-and-multiply.
fn power<S: Semiring>(mut x: S, mut e: u32) -> S {
    let mut acc = S::one();
    loop {
        if e & 1 == 1 {
            acc = acc.times(&x);
        }
        e >>= 1;
        if e == 0 {
            return acc;
        }
        x = x.times(&x);
    }
}

/// `x + x + … + x` (`n ≥ 1` copies) by double-and-add.
fn multiple<S: Semiring>(mut x: S, mut n: u64) -> S {
    let mut acc = S::zero();
    loop {
        if n & 1 == 1 {
            acc = acc.plus(&x);
        }
        n >>= 1;
        if n == 0 {
            return acc;
        }
        x = x.plus(&x);
    }
}

impl<V: Ord + Clone> Semiring for Polynomial<V>
where
    V: fmt::Debug,
{
    fn zero() -> Self {
        Polynomial {
            terms: BTreeMap::new(),
        }
    }

    fn one() -> Self {
        Polynomial::term(Monomial::unit(), 1)
    }

    fn plus(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.plus_assign(other);
        out
    }

    fn times(&self, other: &Self) -> Self {
        if self.terms.is_empty() || other.terms.is_empty() {
            return Self::zero();
        }
        let mut terms: BTreeMap<Monomial<V>, u64> = BTreeMap::new();
        for (m1, &c1) in &self.terms {
            for (m2, &c2) in &other.terms {
                let slot = terms.entry(m1.times(m2)).or_insert(0);
                *slot = slot.saturating_add(c1.saturating_mul(c2));
            }
        }
        Polynomial { terms }
    }

    fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }
}

impl<V: Ord + Clone + fmt::Display> fmt::Display for Polynomial<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "0");
        }
        for (i, (m, c)) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            if *c == 1 {
                write!(f, "{m}")?;
            } else if m.is_unit() {
                write!(f, "{c}")?;
            } else {
                write!(f, "{c}·{m}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::{check_semiring_laws, Boolean};
    use proptest::prelude::*;

    type P = Polynomial<u32>;
    type M = Monomial<u32>;

    fn x() -> P {
        P::var(1)
    }
    fn y() -> P {
        P::var(2)
    }
    fn z() -> P {
        P::var(3)
    }
    fn constant(n: u64) -> P {
        P::term(M::unit(), n)
    }
    /// `(monomial as (var, exponent) pairs, coefficient)` in monomial order.
    fn terms(p: &P) -> Vec<(Vec<(u32, u32)>, u64)> {
        p.iter()
            .map(|(m, c)| (m.iter().map(|(v, e)| (*v, e)).collect(), c))
            .collect()
    }
    /// Boolean evaluation with the `dead` tokens mapped to `false`.
    fn alive_without(p: &P, dead: &BTreeSet<u32>) -> bool {
        p.eval(|v| Boolean(!dead.contains(v))).0
    }

    #[test]
    fn zero_and_one() {
        assert!(P::zero().is_zero());
        assert!(!P::one().is_zero());
        assert_eq!(P::one(), constant(1));
        assert_eq!(P::zero().num_terms(), 0);
        assert_eq!(P::one().to_string(), "1");
    }

    #[test]
    fn paper_example_square() {
        // (x + y)^2 = x^2 + 2xy + y^2 — the PODS'07 running example shape.
        let p = x().plus(&y());
        let sq = p.times(&p);
        assert_eq!(
            terms(&sq),
            [
                (vec![(1, 1), (2, 1)], 2),
                (vec![(1, 2)], 1),
                (vec![(2, 2)], 1)
            ]
        );
    }

    #[test]
    fn display_canonical() {
        let p = x().plus(&y()).plus(&x());
        assert_eq!(p.to_string(), "2·1 + 2");
        assert_eq!(constant(4).to_string(), "4");
    }

    #[test]
    fn eval_counting_counts_derivations() {
        // 2xy + x^2 with x=2, y=3 → 2*2*3 + 4 = 16, counted in N[X]'s
        // constants.
        let p =
            P::term(M::from_pairs([(1, 1), (2, 1)]), 2).plus(&P::term(M::from_pairs([(1, 2)]), 1));
        let n = p.eval(|v| constant(if *v == 1 { 2 } else { 3 }));
        assert_eq!(n, constant(16));
        // Every token present: one derivation per coefficient unit.
        assert_eq!(p.eval(|_| constant(1)), constant(3));
    }

    #[test]
    fn eval_boolean_is_derivability() {
        let p = x().times(&y()).plus(&z());
        // z present alone suffices.
        let b = p.eval(|v| Boolean(*v == 3));
        assert_eq!(b, Boolean(true));
        // x alone does not (x·y needs y).
        let b = p.eval(|v| Boolean(*v == 1));
        assert_eq!(b, Boolean(false));
    }

    #[test]
    fn eval_zero_short_circuits() {
        let p = x().times(&y());
        assert_eq!(p.eval(|_| P::zero()), P::zero());
        assert_eq!(P::zero().eval(|_: &u32| constant(7)), P::zero());
        assert_eq!(p.eval(|_| Boolean(false)), Boolean(false));
        assert_eq!(P::zero().eval(|_: &u32| Boolean(true)), Boolean(false));
    }

    #[test]
    fn eval_is_logarithmic_in_coefficients_and_exponents() {
        // A naive n-fold sum would take 2^64 steps here.
        let p = P::term(M::from_pairs([(1, 1)]), u64::MAX);
        assert_eq!(p.eval(|_| Boolean(true)), Boolean(true));
        let p = P::term(M::from_pairs([(1, u32::MAX)]), u64::MAX);
        assert_eq!(p.eval(|_| Boolean(true)), Boolean(true));
        assert_eq!(p.eval(|_| constant(1)), constant(u64::MAX));
        // Square-and-multiply agrees with the repeated product.
        let p = P::term(M::from_pairs([(1, 5), (2, 3)]), 6);
        let sum = x().plus(&y());
        let mut expected = constant(6);
        for _ in 0..8 {
            expected = expected.times(&sum);
        }
        assert_eq!(p.eval(|_| sum.clone()), expected);
    }

    #[test]
    fn coefficients_saturate() {
        let xy = M::from_pairs([(1, 1), (2, 1)]);
        let p =
            P::term(M::from_pairs([(1, 1)]), u64::MAX).times(&P::term(M::from_pairs([(2, 1)]), 2));
        assert_eq!(p, P::term(xy.clone(), u64::MAX));
        let mut q = P::term(xy.clone(), u64::MAX);
        q.plus_assign(&P::term(xy.clone(), 1));
        assert_eq!(q, P::term(xy, u64::MAX));
    }

    #[test]
    fn substitution_unfolds() {
        // Evaluating into N[X] itself substitutes polynomials for
        // variables: p = x·y with x ↦ (a + b), y ↦ y.
        let p = x().times(&y());
        let out = p.eval(|v| {
            if *v == 1 {
                P::var(10).plus(&P::var(11))
            } else {
                P::var(*v)
            }
        });
        // = a·y + b·y
        assert_eq!(out, P::var(10).times(&y()).plus(&P::var(11).times(&y())));
        assert!(!out.mentions(&1));
    }

    #[test]
    fn derivability_without_dead_tokens() {
        let p = x().times(&y()).plus(&z());
        let dead_z = BTreeSet::from([3u32]);
        assert!(alive_without(&p, &dead_z), "x·y survives");
        let dead_xz = BTreeSet::from([1u32, 3]);
        assert!(!alive_without(&p, &dead_xz), "both derivations dead");
        assert!(
            alive_without(&P::one(), &dead_xz),
            "constants always derivable"
        );
        assert!(!alive_without(&P::zero(), &BTreeSet::new()));
    }

    #[test]
    fn restrict_without_removes_dead_monomials() {
        // Mapping dead tokens to 0 and the rest to themselves drops every
        // monomial that mentions a dead token.
        let p = x().times(&y()).plus(&z());
        let dead = BTreeSet::from([3u32]);
        let restricted = p.eval(|v| {
            if dead.contains(v) {
                P::zero()
            } else {
                P::var(*v)
            }
        });
        assert_eq!(restricted, x().times(&y()));
        // Restriction and Boolean evaluation agree.
        assert_eq!(!restricted.is_zero(), alive_without(&p, &dead));
    }

    #[test]
    fn variables_and_mentions() {
        let p = x().times(&y()).plus(&constant(4));
        assert_eq!(p.variables(), BTreeSet::from([1, 2]));
        assert!(p.mentions(&1));
        assert!(!p.mentions(&9));
    }

    fn poly_strategy() -> impl Strategy<Value = P> {
        // Up to 4 terms, vars in 0..5, exponents 1..3, coefficients 1..4.
        proptest::collection::vec(
            (proptest::collection::vec((0u32..5, 1u32..3), 0..3), 1u64..4),
            0..4,
        )
        .prop_map(|terms| {
            let mut p = P::zero();
            for (pairs, coeff) in terms {
                p.plus_assign(&P::term(M::from_pairs(pairs), coeff));
            }
            p
        })
    }

    proptest! {
        #[test]
        fn polynomial_semiring_laws(a in poly_strategy(), b in poly_strategy(), c in poly_strategy()) {
            check_semiring_laws(&a, &b, &c);
        }

        /// The universal property: evaluation is a homomorphism. The target
        /// is N[X] itself under a renaming that merges variables, so wrong
        /// coefficient or exponent handling shows.
        #[test]
        fn eval_commutes_with_plus_and_times(a in poly_strategy(), b in poly_strategy()) {
            let f = |v: &u32| P::var(v % 3);
            prop_assert_eq!(a.plus(&b).eval(f), a.eval(f).plus(&b.eval(f)));
            prop_assert_eq!(a.times(&b).eval(f), a.eval(f).times(&b.eval(f)));
        }

        /// Boolean evaluation is "some monomial mentions no dead token".
        #[test]
        fn boolean_eval_matches_restriction(a in poly_strategy(), dead in proptest::collection::btree_set(0u32..5, 0..4)) {
            let some_monomial_alive = a
                .iter()
                .any(|(m, _)| m.iter().all(|(v, _)| !dead.contains(v)));
            prop_assert_eq!(alive_without(&a, &dead), some_monomial_alive);
        }

        /// plus_assign agrees with plus.
        #[test]
        fn plus_assign_matches_plus(a in poly_strategy(), b in poly_strategy()) {
            let mut c = a.clone();
            c.plus_assign(&b);
            prop_assert_eq!(c, a.plus(&b));
        }

        /// Evaluating into N[X] with every variable mapped to itself is the
        /// identity.
        #[test]
        fn identity_substitution(a in poly_strategy()) {
            prop_assert_eq!(a.eval(|v| P::var(*v)), a);
        }
    }
}
