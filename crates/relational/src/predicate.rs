//! Boolean predicates over tuples.
//!
//! The reconciliation layer's *trust conditions* ("Crete trusts updates
//! where the data concerns organisms it studies") are predicates over update
//! contents; mapping bodies may also carry comparison filters. Predicates
//! compare a column against a literal and compose with and/or/not.

use crate::error::RelationalError;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::Result;
use std::fmt;

/// Comparison operators. Comparisons between values of different variants
/// (other than equality) use the total value order, so they are always
/// defined — important because trust conditions must never fail at
/// reconciliation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Apply the operator to two values using the total value order.
    pub fn apply(self, l: &Value, r: &Value) -> bool {
        let ord = l.cmp(r);
        match self {
            CmpOp::Eq => ord.is_eq(),
            CmpOp::Ne => ord.is_ne(),
            CmpOp::Lt => ord.is_lt(),
            CmpOp::Le => ord.is_le(),
            CmpOp::Gt => ord.is_gt(),
            CmpOp::Ge => ord.is_ge(),
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// A boolean predicate over one tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate {
    /// Always true.
    True,
    /// Always false.
    False,
    /// Compare the value in column `col` against a literal.
    Compare {
        /// Column of the input tuple.
        col: usize,
        /// Operator.
        op: CmpOp,
        /// The literal right-hand side.
        value: Value,
    },
    /// Conjunction (empty = true).
    And(Vec<Predicate>),
    /// Disjunction (empty = false).
    Or(Vec<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// `column = literal`, the workhorse trust-condition form.
    pub fn col_eq(col: usize, v: impl Into<Value>) -> Predicate {
        Predicate::col_cmp(col, CmpOp::Eq, v)
    }

    /// `column <op> literal`.
    pub fn col_cmp(col: usize, op: CmpOp, v: impl Into<Value>) -> Predicate {
        Predicate::Compare {
            col,
            op,
            value: v.into(),
        }
    }

    /// Evaluate against a tuple.
    pub fn eval(&self, tuple: &Tuple) -> Result<bool> {
        match self {
            Predicate::True => Ok(true),
            Predicate::False => Ok(false),
            Predicate::Compare { col, op, value } => {
                let v = tuple.get(*col).ok_or_else(|| {
                    RelationalError::ExprError(format!(
                        "column {col} out of range for tuple of arity {}",
                        tuple.arity()
                    ))
                })?;
                Ok(op.apply(v, value))
            }
            Predicate::And(ps) => {
                for p in ps {
                    if !p.eval(tuple)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Predicate::Or(ps) => {
                for p in ps {
                    if p.eval(tuple)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Predicate::Not(p) => Ok(!p.eval(tuple)?),
        }
    }

    /// The largest column index referenced, if any.
    pub fn max_column(&self) -> Option<usize> {
        match self {
            Predicate::True | Predicate::False => None,
            Predicate::Compare { col, .. } => Some(*col),
            Predicate::And(ps) | Predicate::Or(ps) => {
                ps.iter().filter_map(Predicate::max_column).max()
            }
            Predicate::Not(p) => p.max_column(),
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::True => write!(f, "true"),
            Predicate::False => write!(f, "false"),
            Predicate::Compare { col, op, value } => write!(f, "${col} {op} {value}"),
            Predicate::And(ps) => {
                if ps.is_empty() {
                    return write!(f, "true");
                }
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " and ")?;
                    }
                    write!(f, "({p})")?;
                }
                Ok(())
            }
            Predicate::Or(ps) => {
                if ps.is_empty() {
                    return write!(f, "false");
                }
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " or ")?;
                    }
                    write!(f, "({p})")?;
                }
                Ok(())
            }
            Predicate::Not(p) => write!(f, "not ({p})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    #[test]
    fn constants() {
        let t = tuple![1];
        assert!(Predicate::True.eval(&t).unwrap());
        assert!(!Predicate::False.eval(&t).unwrap());
    }

    #[test]
    fn col_eq() {
        let t = tuple!["HIV", "gp120"];
        assert!(Predicate::col_eq(0, "HIV").eval(&t).unwrap());
        assert!(!Predicate::col_eq(0, "Plasmodium").eval(&t).unwrap());
    }

    #[test]
    fn comparisons() {
        let t = tuple![5];
        assert!(Predicate::col_cmp(0, CmpOp::Gt, 3).eval(&t).unwrap());
        assert!(Predicate::col_cmp(0, CmpOp::Ge, 5).eval(&t).unwrap());
        assert!(Predicate::col_cmp(0, CmpOp::Le, 5).eval(&t).unwrap());
        assert!(!Predicate::col_cmp(0, CmpOp::Lt, 5).eval(&t).unwrap());
        assert!(Predicate::col_cmp(0, CmpOp::Ne, 4).eval(&t).unwrap());
    }

    #[test]
    fn and_or_not() {
        let t = tuple![5, "x"];
        let p = Predicate::And(vec![
            Predicate::col_cmp(0, CmpOp::Gt, 1),
            Predicate::col_eq(1, "x"),
        ]);
        assert!(p.eval(&t).unwrap());
        let q = Predicate::Or(vec![Predicate::col_eq(1, "y"), Predicate::col_eq(0, 5)]);
        assert!(q.eval(&t).unwrap());
        assert!(!Predicate::Not(Box::new(q)).eval(&t).unwrap());
    }

    #[test]
    fn empty_and_is_true_empty_or_is_false() {
        let t = tuple![1];
        assert!(Predicate::And(vec![]).eval(&t).unwrap());
        assert!(!Predicate::Or(vec![]).eval(&t).unwrap());
    }

    #[test]
    fn cross_variant_comparison_uses_total_order() {
        // Int < Str in the total order; never panics.
        let t = tuple![1];
        assert!(Predicate::col_cmp(0, CmpOp::Lt, "a").eval(&t).unwrap());
    }

    #[test]
    fn short_circuit_avoids_errors_after_decision() {
        // First conjunct false => second (which would error) never evaluated.
        let t = tuple![1];
        let p = Predicate::And(vec![
            Predicate::False,
            Predicate::col_eq(99, 1), // out of range
        ]);
        assert!(!p.eval(&t).unwrap());
    }

    #[test]
    fn error_propagates_when_reached() {
        let t = tuple![1];
        assert!(Predicate::col_eq(99, 1).eval(&t).is_err());
    }

    #[test]
    fn max_column() {
        let p = Predicate::And(vec![
            Predicate::col_eq(2, 1),
            Predicate::Not(Box::new(Predicate::col_eq(7, 1))),
        ]);
        assert_eq!(p.max_column(), Some(7));
        assert_eq!(Predicate::True.max_column(), None);
    }

    #[test]
    fn display() {
        let p = Predicate::And(vec![
            Predicate::col_eq(0, "HIV"),
            Predicate::col_cmp(1, CmpOp::Gt, 2),
        ]);
        assert_eq!(p.to_string(), "($0 = 'HIV') and ($1 > 2)");
    }
}
