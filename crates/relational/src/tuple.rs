//! Immutable tuples (rows).

use crate::value::Value;
use std::fmt;
use std::ops::Index;
use std::sync::Arc;

/// An immutable row of values.
///
/// Backed by `Arc<[Value]>` so clones are a pointer bump — tuples flow
/// through the mapping engine, provenance tables, update logs, and the
/// reconciliation engine, and every layer keeps references to the same rows.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple(Arc<[Value]>);

impl Tuple {
    /// Build a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple(values.into())
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// True iff the tuple has no columns.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The value at column `i`, if in range.
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.0.get(i)
    }

    /// All values as a slice.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// Project onto the given column indexes (panics if any is out of range;
    /// schema validation guarantees ranges before this is reached).
    pub fn project(&self, cols: &[usize]) -> Tuple {
        // Collected straight into the `Arc`: one allocation.
        Tuple(cols.iter().map(|&c| self.0[c].clone()).collect())
    }

    /// Project onto the given columns, returning owned values in a plain
    /// `Vec` (used as an index key without the `Tuple` wrapper).
    pub fn key_values(&self, cols: &[usize]) -> Vec<Value> {
        cols.iter().map(|&c| self.0[c].clone()).collect()
    }

    /// A new tuple with column `i` replaced by `v`.
    pub fn with_value(&self, i: usize, v: Value) -> Tuple {
        let mut vals: Vec<Value> = self.0.to_vec();
        vals[i] = v;
        Tuple::new(vals)
    }

    /// True iff any column holds a labeled null.
    pub fn has_labeled_null(&self) -> bool {
        self.0.iter().any(Value::is_labeled_null)
    }

    /// Iterate over values.
    pub fn iter(&self) -> std::slice::Iter<'_, Value> {
        self.0.iter()
    }
}

impl Index<usize> for Tuple {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        &self.0[i]
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Tuple(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a Tuple {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// Convenience macro for tuple literals in tests and examples:
/// `tuple!["HIV", 1, 2.5]`.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::Tuple::new(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = tuple!["HIV", 42];
        assert_eq!(t.arity(), 2);
        assert_eq!(t[0], Value::str("HIV"));
        assert_eq!(t.get(1), Some(&Value::Int(42)));
        assert_eq!(t.get(2), None);
        assert!(!t.is_empty());
    }

    #[test]
    fn clone_is_shallow() {
        let t = tuple![1, 2, 3];
        let u = t.clone();
        assert_eq!(t, u);
        assert!(Arc::ptr_eq(&t.0, &u.0));
    }

    #[test]
    fn projection() {
        let t = tuple!["org", 1, "seq"];
        assert_eq!(t.project(&[2, 0]), tuple!["seq", "org"]);
        assert_eq!(t.project(&[]), Tuple::new(vec![]));
        assert_eq!(t.key_values(&[1]), vec![Value::Int(1)]);
    }

    #[test]
    fn with_value_replaces_single_column() {
        let t = tuple![1, 2];
        let u = t.with_value(1, Value::Int(9));
        assert_eq!(u, tuple![1, 9]);
        assert_eq!(t, tuple![1, 2], "original unchanged");
    }

    #[test]
    fn labeled_null_detection() {
        let t = Tuple::new(vec![Value::Int(1), Value::skolem("f", vec![Value::Int(1)])]);
        assert!(t.has_labeled_null());
        assert!(!tuple![1, 2].has_labeled_null());
    }

    #[test]
    fn display() {
        let t = tuple!["a", 1];
        assert_eq!(t.to_string(), "('a', 1)");
        assert_eq!(Tuple::new(vec![]).to_string(), "()");
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a = tuple![1, 2];
        let b = tuple![1, 3];
        let c = tuple![2, 0];
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    fn from_iterator() {
        let t: Tuple = (0..3).map(Value::Int).collect();
        assert_eq!(t, tuple![0, 1, 2]);
        let total: i64 = t.iter().filter_map(Value::as_int).sum();
        assert_eq!(total, 3);
    }
}
