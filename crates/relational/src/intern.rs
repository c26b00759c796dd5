//! Value interning: `Value` ⇄ dense `u32` symbols.
//!
//! The update-exchange engine's inner loops — semi-naive join probes,
//! fixpoint membership checks, provenance-node interning — previously paid
//! deep structural hashing on every `Value` (strings walk their bytes,
//! labeled nulls walk their whole argument tree) and cloned `Arc<str>`s to
//! build per-probe index keys. [`ValueInterner`] collapses every distinct
//! value to one dense [`Sym`] so that, inside the engine:
//!
//! * tuple equality and hashing are word-wide integer operations
//!   ([`SymTuple`]);
//! * index keys are fixed-width `[Sym]` slices — no per-probe `Vec<Value>`
//!   materialization;
//! * inventing a labeled null during rule firing is one hash-map probe
//!   over `(function, arg syms)` instead of allocating a `SkolemValue`
//!   tree ([`ValueInterner::intern_skolem`]).
//!
//! Symbols are **process-local**: they encode insertion order, so they
//! must never be persisted. Durable layers (the WAL codec) serialize the
//! resolved [`Value`] structurally; on recovery a fresh interner may
//! assign completely different symbols and the engine state is still
//! identical (see `crates/core/tests/durable_intern_roundtrip.rs`).

use crate::fxhash::FxHashMap;
use crate::tuple::Tuple;
use crate::value::Value;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A dense symbol for an interned [`Value`]. Two symbols from the same
/// interner are equal iff their values are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(pub u32);

impl Sym {
    /// Sentinel for "no symbol" (unbound join variable). Never returned
    /// by an interner.
    pub const NONE: Sym = Sym(u32::MAX);

    /// True iff this is the [`Sym::NONE`] sentinel.
    #[inline]
    pub fn is_none(self) -> bool {
        self.0 == u32::MAX
    }

    /// The dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// An immutable row of interned symbols — the engine-internal twin of
/// [`Tuple`]. Clones are a pointer bump; equality and hashing touch only
/// `u32`s.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SymTuple(Arc<[Sym]>);

impl SymTuple {
    /// Build from symbols.
    pub fn new(syms: Vec<Sym>) -> Self {
        SymTuple(syms.into())
    }

    /// Build from a borrowed symbol slice: one allocation, so callers can
    /// assemble a row in a reused buffer.
    pub fn from_slice(syms: &[Sym]) -> Self {
        SymTuple(Arc::from(syms))
    }

    /// Number of columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// True iff the tuple has no columns.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// All symbols as a slice.
    #[inline]
    pub fn syms(&self) -> &[Sym] {
        &self.0
    }

    /// The symbol at column `i`, if in range.
    pub fn get(&self, i: usize) -> Option<Sym> {
        self.0.get(i).copied()
    }
}

impl std::ops::Index<usize> for SymTuple {
    type Output = Sym;
    #[inline]
    fn index(&self, i: usize) -> &Sym {
        &self.0[i]
    }
}

/// Hash maps keyed by `SymTuple` answer probes with a borrowed `&[Sym]`:
/// the derived `Hash` and `Eq` of `Arc<[Sym]>` are those of `[Sym]`.
impl Borrow<[Sym]> for SymTuple {
    #[inline]
    fn borrow(&self) -> &[Sym] {
        &self.0
    }
}

impl FromIterator<Sym> for SymTuple {
    fn from_iter<T: IntoIterator<Item = Sym>>(iter: T) -> Self {
        SymTuple(iter.into_iter().collect())
    }
}

/// Interner counters, surfaced through `EngineStats` into the experiment
/// tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InternerStats {
    /// Distinct values interned (current size of the symbol table).
    pub symbols: u64,
    /// `intern` calls answered from the table (no new symbol).
    pub hits: u64,
    /// Labeled nulls invented through the skolem fast path.
    pub skolem_fast_path: u64,
}

/// The `Value` ⇄ [`Sym`] table.
///
/// Interning is injective: `intern(a) == intern(b)` iff `a == b`, so the
/// engine compares symbols where it used to compare values. Resolution
/// (`Sym` → `&Value`) is a dense-vector index.
#[derive(Debug, Clone, Default)]
pub struct ValueInterner {
    by_id: Vec<Value>,
    by_value: HashMap<Value, Sym>,
    /// Fast path for labeled nulls invented during rule firing: function
    /// symbol → (arg symbols → labeled-null symbol). Two levels so a hit
    /// probes with borrowed `&str` / `&[Sym]` keys — no allocation in the
    /// hot loop, and no `SkolemValue` tree rebuilt just to look it up.
    /// The inner keys are symbols this interner assigned, so they hash
    /// with the word hasher; `by_value` holds peer-supplied values and
    /// keeps std's keyed hasher.
    skolems: HashMap<Arc<str>, FxHashMap<Box<[Sym]>, Sym>>,
    hits: u64,
    skolem_fast_path: u64,
}

impl ValueInterner {
    /// An empty interner.
    pub fn new() -> Self {
        ValueInterner::default()
    }

    /// Number of distinct interned values.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// True iff nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// Current counters.
    pub fn stats(&self) -> InternerStats {
        InternerStats {
            symbols: self.by_id.len() as u64,
            hits: self.hits,
            skolem_fast_path: self.skolem_fast_path,
        }
    }

    /// Intern a value, returning its symbol (existing or fresh).
    pub fn intern(&mut self, v: &Value) -> Sym {
        if let Some(&s) = self.by_value.get(v) {
            self.hits += 1;
            return s;
        }
        self.insert_new(v.clone())
    }

    fn insert_new(&mut self, v: Value) -> Sym {
        // analyze: allow(panic) -- u32 symbol capacity (4B interned values) is an accepted engine limit
        let s = Sym(u32::try_from(self.by_id.len()).expect("interner overflow"));
        self.by_id.push(v.clone());
        self.by_value.insert(v, s);
        s
    }

    /// Look up a value's symbol without interning.
    pub fn get(&self, v: &Value) -> Option<Sym> {
        self.by_value.get(v).copied()
    }

    /// The value behind a symbol. Panics on a foreign/sentinel symbol —
    /// symbols only come from this interner.
    #[inline]
    pub fn resolve(&self, s: Sym) -> &Value {
        &self.by_id[s.index()]
    }

    /// Intern every column of a tuple.
    pub fn intern_tuple(&mut self, t: &Tuple) -> SymTuple {
        t.values().iter().map(|v| self.intern(v)).collect()
    }

    /// Look up a tuple's symbols without interning, into `out` (cleared
    /// first): `false` if **any** column was never interned (then no
    /// stored tuple can equal it). The buffer is the caller's, so a
    /// lookup allocates nothing once it has grown.
    pub fn get_syms(&self, t: &Tuple, out: &mut Vec<Sym>) -> bool {
        out.clear();
        for v in t.values() {
            match self.get(v) {
                Some(s) => out.push(s),
                None => return false,
            }
        }
        true
    }

    /// Resolve a symbol tuple back to values.
    pub fn resolve_tuple(&self, st: &SymTuple) -> Tuple {
        st.syms().iter().map(|&s| self.resolve(s).clone()).collect()
    }

    /// Intern the labeled null `function(args…)` from already-interned
    /// argument symbols. After the first invention of a given null, this
    /// is a single hash probe over integers — the hot path of Skolem-head
    /// rule firing.
    pub fn intern_skolem(&mut self, function: &Arc<str>, args: &[Sym]) -> Sym {
        // Borrowed-key probes (`&str`, then `&[Sym]`): a hit allocates
        // nothing.
        if let Some(&s) = self
            .skolems
            .get(function.as_ref() as &str)
            .and_then(|by_args| by_args.get(args))
        {
            self.skolem_fast_path += 1;
            return s;
        }
        let value = Value::Skolem(Arc::new(crate::value::SkolemValue::new(
            Arc::clone(function),
            args.iter().map(|&a| self.resolve(a).clone()).collect(),
        )));
        let s = self.intern(&value);
        self.skolems
            .entry(Arc::clone(function))
            .or_default()
            .insert(Box::from(args), s);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    #[test]
    fn intern_is_injective_and_idempotent() {
        let mut i = ValueInterner::new();
        let a = i.intern(&Value::str("x"));
        let b = i.intern(&Value::str("x"));
        let c = i.intern(&Value::str("y"));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(i.len(), 2);
        assert_eq!(i.stats().hits, 1);
        assert_eq!(i.resolve(a), &Value::str("x"));
    }

    #[test]
    fn tuple_roundtrip() {
        let mut i = ValueInterner::new();
        let t = tuple!["HIV", 42, 2.5];
        let st = i.intern_tuple(&t);
        assert_eq!(st.arity(), 3);
        assert_eq!(i.resolve_tuple(&st), t);
        // Same values → same symbols → equal SymTuples.
        assert_eq!(i.intern_tuple(&tuple!["HIV", 42, 2.5]), st);
    }

    #[test]
    fn get_tuple_without_interning() {
        let mut i = ValueInterner::new();
        let mut buf = Vec::new();
        assert!(!i.get_syms(&tuple![1], &mut buf));
        let st = i.intern_tuple(&tuple![1, 2]);
        assert!(i.get_syms(&tuple![1, 2], &mut buf));
        assert_eq!(buf.as_slice(), st.syms());
        assert_eq!(SymTuple::from_slice(&buf), st);
        assert!(!i.get_syms(&tuple![1, 3], &mut buf), "3 never interned");
        assert_eq!(i.len(), 2, "get does not intern");
    }

    #[test]
    fn skolem_fast_path_matches_structural_interning() {
        let mut i = ValueInterner::new();
        let f: Arc<str> = Arc::from("f_m1_oid");
        let a1 = i.intern(&Value::str("HIV"));
        let a2 = i.intern(&Value::Int(3));
        let fast = i.intern_skolem(&f, &[a1, a2]);
        // Structural interning of the same labeled null must agree.
        let structural = i.intern(&Value::skolem(
            Arc::clone(&f),
            vec![Value::str("HIV"), Value::Int(3)],
        ));
        assert_eq!(fast, structural);
        // Second invention takes the integer fast path.
        let again = i.intern_skolem(&f, &[a1, a2]);
        assert_eq!(again, fast);
        assert_eq!(i.stats().skolem_fast_path, 1);
        // Different args → different null.
        assert_ne!(i.intern_skolem(&f, &[a2, a1]), fast);
    }

    #[test]
    fn sym_tuple_is_integer_keyed() {
        let mut i = ValueInterner::new();
        let a = i.intern_tuple(&tuple!["a", "b"]);
        let b = i.intern_tuple(&tuple!["a", "b"]);
        assert_eq!(a, b);
        assert_eq!(a[0], b[0]);
        assert!(a.get(2).is_none());
        assert!(!a.is_empty());
        assert_eq!(a.syms().len(), 2);
    }

    #[test]
    fn none_sentinel() {
        assert!(Sym::NONE.is_none());
        assert!(!Sym(0).is_none());
        assert_eq!(Sym(7).to_string(), "s7");
    }

    #[test]
    fn nested_skolem_values_intern() {
        let mut i = ValueInterner::new();
        let inner = Value::skolem("g", vec![Value::Int(7)]);
        let outer = Value::skolem("f", vec![inner.clone(), Value::str("x")]);
        let s_outer = i.intern(&outer);
        let s_inner = i.intern(&inner);
        assert_ne!(s_outer, s_inner);
        assert_eq!(i.resolve(s_outer), &outer);
    }
}
