//! The rule language: terms, atoms, filters, rules.
//!
//! Rules are plain conjunctive datalog extended with **Skolem terms in rule
//! heads** — the compiled form of existential variables in schema mappings
//! (see [`crate::tgd`]). Example, the paper's `MC→A` split mapping:
//!
//! ```text
//! O(org, f_oid(org))                   :- OPS(org, prot, seq)
//! P(prot, f_pid(prot))                 :- OPS(org, prot, seq)
//! S(f_oid(org), f_pid(prot), seq)      :- OPS(org, prot, seq)
//! ```

use crate::error::DatalogError;
use crate::Result;
use orchestra_relational::{CmpOp, Value};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A term in an atom: variable, constant, or Skolem application.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// A named variable.
    Var(Arc<str>),
    /// A constant value.
    Const(Value),
    /// A Skolem function applied to terms (variables/constants). Only
    /// meaningful in rule heads; evaluating one constructs a labeled null.
    Skolem {
        /// The Skolem function symbol.
        function: Arc<str>,
        /// Arguments (must be bound by the body).
        args: Vec<Term>,
    },
}

impl Term {
    /// A variable term.
    pub fn var(name: impl AsRef<str>) -> Term {
        Term::Var(Arc::from(name.as_ref()))
    }

    /// A constant term.
    pub fn val(v: impl Into<Value>) -> Term {
        Term::Const(v.into())
    }

    /// A Skolem application term.
    pub fn skolem(function: impl AsRef<str>, args: Vec<Term>) -> Term {
        Term::Skolem {
            function: Arc::from(function.as_ref()),
            args,
        }
    }

    /// Collect the variables of this term into `out`.
    pub fn collect_vars(&self, out: &mut BTreeSet<Arc<str>>) {
        match self {
            Term::Var(v) => {
                out.insert(Arc::clone(v));
            }
            Term::Const(_) => {}
            Term::Skolem { args, .. } => {
                for a in args {
                    a.collect_vars(out);
                }
            }
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "{c}"),
            Term::Skolem { function, args } => {
                write!(f, "#{function}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// A relational atom `R(t1, …, tn)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    /// Relation name.
    pub relation: Arc<str>,
    /// Terms, one per column.
    pub terms: Vec<Term>,
}

impl Atom {
    /// Build an atom.
    pub fn new(relation: impl AsRef<str>, terms: Vec<Term>) -> Atom {
        Atom {
            relation: Arc::from(relation.as_ref()),
            terms,
        }
    }

    /// Atom whose terms are all variables, from names.
    pub fn vars(relation: impl AsRef<str>, names: &[&str]) -> Atom {
        Atom::new(relation, names.iter().map(Term::var).collect())
    }

    /// Arity.
    pub fn arity(&self) -> usize {
        self.terms.len()
    }

    /// All variables in the atom.
    pub fn variables(&self) -> BTreeSet<Arc<str>> {
        let mut out = BTreeSet::new();
        for t in &self.terms {
            t.collect_vars(&mut out);
        }
        out
    }

    /// True iff the atom contains a Skolem term.
    pub fn has_skolem(&self) -> bool {
        self.terms.iter().any(|t| matches!(t, Term::Skolem { .. }))
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.relation)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

/// A comparison filter between two terms (no Skolems allowed).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Filter {
    /// Left operand.
    pub left: Term,
    /// Operator.
    pub op: CmpOp,
    /// Right operand.
    pub right: Term,
}

impl Filter {
    /// Build a filter.
    pub fn new(left: Term, op: CmpOp, right: Term) -> Filter {
        Filter { left, op, right }
    }

    /// All variables referenced.
    pub fn variables(&self) -> BTreeSet<Arc<str>> {
        let mut out = BTreeSet::new();
        self.left.collect_vars(&mut out);
        self.right.collect_vars(&mut out);
        out
    }
}

impl fmt::Display for Filter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.left, self.op, self.right)
    }
}

/// Identifies a rule; mapping compilation gives every rule a readable name
/// like `"MA->C"` or `"MC->A#2"`, which shows up in provenance displays.
pub type RuleId = Arc<str>;

/// A datalog rule `head :- body, filters`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// Rule identifier (unique within a program).
    pub id: RuleId,
    /// Head atom; may contain Skolem terms.
    pub head: Atom,
    /// Positive body atoms (at least one).
    pub body: Vec<Atom>,
    /// Comparison filters over body variables.
    pub filters: Vec<Filter>,
}

impl Rule {
    /// Build a rule and check *safety*: every head and filter variable must
    /// occur in some body atom, and the body must be non-empty.
    pub fn new(
        id: impl AsRef<str>,
        head: Atom,
        body: Vec<Atom>,
        filters: Vec<Filter>,
    ) -> Result<Rule> {
        let id: RuleId = Arc::from(id.as_ref());
        if body.is_empty() {
            return Err(DatalogError::UnsafeRule {
                rule: id.to_string(),
                variable: "<empty body>".to_string(),
            });
        }
        let mut bound: BTreeSet<Arc<str>> = BTreeSet::new();
        for atom in &body {
            bound.extend(atom.variables());
        }
        for v in head.variables() {
            if !bound.contains(&v) {
                return Err(DatalogError::UnsafeRule {
                    rule: id.to_string(),
                    variable: v.to_string(),
                });
            }
        }
        for filt in &filters {
            for v in filt.variables() {
                if !bound.contains(&v) {
                    return Err(DatalogError::UnsafeRule {
                        rule: id.to_string(),
                        variable: v.to_string(),
                    });
                }
            }
        }
        Ok(Rule {
            id,
            head,
            body,
            filters,
        })
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {} :- ", self.id, self.head)?;
        for (i, a) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        for filt in &self.filters {
            write!(f, ", {filt}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn term_constructors_and_vars() {
        let t = Term::skolem("f", vec![Term::var("x"), Term::val(1)]);
        let mut vars = BTreeSet::new();
        t.collect_vars(&mut vars);
        assert_eq!(vars.len(), 1);
        assert!(vars.contains("x"));
        assert_eq!(t.to_string(), "#f(x, 1)".replace(", ", ","));
    }

    #[test]
    fn atom_vars_and_skolem_detection() {
        let a = Atom::new(
            "S",
            vec![
                Term::skolem("f_oid", vec![Term::var("org")]),
                Term::var("seq"),
            ],
        );
        assert_eq!(a.arity(), 2);
        assert!(a.has_skolem());
        let vars = a.variables();
        assert!(vars.contains("org"));
        assert!(vars.contains("seq"));
        assert!(!Atom::vars("R", &["x"]).has_skolem());
    }

    #[test]
    fn rule_safety_ok() {
        let r = Rule::new(
            "m",
            Atom::vars("T", &["x", "y"]),
            vec![Atom::vars("R", &["x", "y"])],
            vec![],
        );
        assert!(r.is_ok());
    }

    #[test]
    fn rule_safety_rejects_unbound_head_var() {
        let r = Rule::new(
            "m",
            Atom::vars("T", &["x", "z"]),
            vec![Atom::vars("R", &["x", "y"])],
            vec![],
        );
        assert!(matches!(r, Err(DatalogError::UnsafeRule { .. })));
    }

    #[test]
    fn rule_safety_rejects_unbound_skolem_arg() {
        let r = Rule::new(
            "m",
            Atom::new(
                "T",
                vec![Term::skolem("f", vec![Term::var("z")]), Term::var("x")],
            ),
            vec![Atom::vars("R", &["x", "y"])],
            vec![],
        );
        assert!(matches!(r, Err(DatalogError::UnsafeRule { .. })));
    }

    #[test]
    fn rule_safety_rejects_unbound_filter_var() {
        let r = Rule::new(
            "m",
            Atom::vars("T", &["x"]),
            vec![Atom::vars("R", &["x", "y"])],
            vec![Filter::new(Term::var("q"), CmpOp::Eq, Term::val(1))],
        );
        assert!(matches!(r, Err(DatalogError::UnsafeRule { .. })));
    }

    #[test]
    fn rule_safety_rejects_empty_body() {
        let r = Rule::new("m", Atom::vars("T", &["x"]), vec![], vec![]);
        assert!(r.is_err());
    }

    #[test]
    fn display_rule() {
        let r = Rule::new(
            "MA->C",
            Atom::vars("OPS", &["org", "prot", "seq"]),
            vec![
                Atom::vars("O", &["org", "oid"]),
                Atom::vars("P", &["prot", "pid"]),
                Atom::vars("S", &["oid", "pid", "seq"]),
            ],
            vec![],
        )
        .unwrap();
        let s = r.to_string();
        assert!(s.starts_with("[MA->C] OPS(org, prot, seq) :- O(org, oid)"));
    }

    #[test]
    fn filter_variables() {
        let f = Filter::new(Term::var("a"), CmpOp::Lt, Term::var("b"));
        assert_eq!(f.variables().len(), 2);
        assert_eq!(f.to_string(), "a < b");
    }
}
