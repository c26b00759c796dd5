//! Rule compilation: what is fixed once the engine is built.
//!
//! Every rule is compiled once, against the schema and the engine's
//! interner, into a [`CompiledRule`]: relations become dense [`RelId`]s,
//! variables a dense numbering in first-occurrence order, and constants
//! symbols, so a runtime comparison is a symbol comparison.
//! [`compile_rule`] is the one place every rule passes, so it also checks
//! what evaluation relies on: a Skolem term is a head column whose
//! arguments are variables or constants, never a body or filter term, so
//! the join only ever meets variables and constants.
//!
//! **Cached join plans.** The greedy join order (delta atom first, then
//! most-bound-first) depends only on `(rule, delta position)`, so it is
//! compiled once per pair into a [`JoinPlan`] whose steps record
//! statically which columns to probe, which to bind, and which filters
//! become ready. The join ([`crate::join`]) interprets these plans: it
//! never re-plans and never clones a rule.

use crate::ast::{Atom, Rule, Term};
use crate::error::DatalogError;
use crate::node::RelId;
use crate::Result;
use orchestra_relational::{CmpOp, DatabaseSchema, FxHashMap, Sym, ValueInterner};
use std::collections::HashMap;
use std::sync::Arc;

/// A variable, by its dense id, or a pre-interned constant: every body
/// and filter term, probe-key part and Skolem argument.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Slot {
    Var(usize),
    Const(Sym),
}

impl Slot {
    /// The slot's symbol under the join's current bindings.
    #[inline]
    pub(crate) fn sym(self, bindings: &[Sym]) -> Sym {
        match self {
            Slot::Var(v) => bindings[v],
            Slot::Const(s) => s,
        }
    }

    /// Whether the slot's symbol is known once the variables marked in
    /// `bound` are.
    fn is_bound(self, bound: &[bool]) -> bool {
        match self {
            Slot::Var(v) => bound[v],
            Slot::Const(_) => true,
        }
    }
}

/// A head column: a slot, or a Skolem function over slots, which invents
/// a labeled null.
#[derive(Debug, Clone)]
pub(crate) enum HeadSlot {
    Slot(Slot),
    Skolem {
        function: Arc<str>,
        args: Box<[Slot]>,
    },
}

#[derive(Debug, Clone)]
pub(crate) struct CompiledAtom<S = Slot> {
    pub(crate) rel: RelId,
    pub(crate) slots: Vec<S>,
}

#[derive(Debug, Clone)]
pub(crate) struct CompiledFilter {
    pub(crate) op: CmpOp,
    pub(crate) left: Slot,
    pub(crate) right: Slot,
}

#[derive(Debug, Clone)]
pub(crate) struct CompiledRule {
    pub(crate) head: CompiledAtom<HeadSlot>,
    pub(crate) body: Vec<CompiledAtom>,
    pub(crate) filters: Vec<CompiledFilter>,
    pub(crate) num_vars: usize,
}

/// The compiled mapping program, which no round mutates.
#[derive(Debug, Clone)]
pub(crate) struct Program {
    pub(crate) rules: Vec<CompiledRule>,
    /// One join plan per rule and delta position.
    pub(crate) plans: Vec<Vec<JoinPlan>>,
    /// Indexed by RelId: the `(rule index, body atom position)` pairs
    /// that read the relation, in rule order.
    pub(crate) rules_by_body: Vec<Vec<(u32, u32)>>,
}

impl Program {
    /// Compile `rules`, in order, and plan each for a delta at every body
    /// position. `rel_ids` names the schema's relations.
    pub(crate) fn compile(
        schema: &DatabaseSchema,
        rel_ids: &FxHashMap<Arc<str>, RelId>,
        interner: &mut ValueInterner,
        rules: &[Rule],
    ) -> Result<Program> {
        let mut program = Program {
            rules: Vec::with_capacity(rules.len()),
            plans: Vec::with_capacity(rules.len()),
            rules_by_body: vec![Vec::new(); rel_ids.len()],
        };
        for (ri, rule) in rules.iter().enumerate() {
            let c = compile_rule(schema, rel_ids, interner, rule)?;
            for (ai, atom) in c.body.iter().enumerate() {
                program.rules_by_body[atom.rel.index()].push((ri as u32, ai as u32));
            }
            program.plans.push(
                (0..c.body.len())
                    .map(|ai| JoinPlan::build(&c, ai))
                    .collect(),
            );
            program.rules.push(c);
        }
        Ok(program)
    }
}

/// Compile one rule. Every atom's relation must be in the schema with the
/// atom's arity, and every variable must occur in a body atom. A Skolem
/// term is accepted only as a head column whose arguments are variables
/// or constants: anywhere else it is [`DatalogError::MisplacedSkolem`].
/// Constants are interned in body, head, filter order.
fn compile_rule(
    schema: &DatabaseSchema,
    rel_ids: &FxHashMap<Arc<str>, RelId>,
    interner: &mut ValueInterner,
    rule: &Rule,
) -> Result<CompiledRule> {
    let rel_of = |atom: &Atom| -> Result<RelId> {
        let rs = schema
            .relation(&atom.relation)
            .map_err(|_| DatalogError::UnknownRelation(atom.relation.to_string()))?;
        if rs.arity() != atom.arity() {
            return Err(DatalogError::ArityMismatch {
                relation: atom.relation.to_string(),
                expected: rs.arity(),
                actual: atom.arity(),
            });
        }
        Ok(rel_ids[&atom.relation])
    };
    let head_rel = rel_of(&rule.head)?;
    let body_rels = rule.body.iter().map(rel_of).collect::<Result<Vec<_>>>()?;

    // Dense variable numbering in first-occurrence order.
    let mut var_ids: HashMap<Arc<str>, usize> = HashMap::new();
    for atom in &rule.body {
        for t in &atom.terms {
            if let Term::Var(v) = t {
                let next = var_ids.len();
                var_ids.entry(Arc::clone(v)).or_insert(next);
            }
        }
    }
    let slot =
        |t: &Term, interner: &mut ValueInterner| -> Result<Slot> {
            match t {
                Term::Var(v) => var_ids.get(v).map(|&id| Slot::Var(id)).ok_or_else(|| {
                    DatalogError::UnsafeRule {
                        rule: rule.id.to_string(),
                        variable: v.to_string(),
                    }
                }),
                Term::Const(c) => Ok(Slot::Const(interner.intern(c))),
                Term::Skolem { .. } => Err(DatalogError::MisplacedSkolem {
                    rule: rule.id.to_string(),
                    term: t.to_string(),
                }),
            }
        };

    let mut body = Vec::with_capacity(rule.body.len());
    for (atom, rel) in rule.body.iter().zip(body_rels) {
        let slots = atom
            .terms
            .iter()
            .map(|t| slot(t, interner))
            .collect::<Result<_>>()?;
        body.push(CompiledAtom { rel, slots });
    }
    let mut head = CompiledAtom {
        rel: head_rel,
        slots: Vec::with_capacity(rule.head.arity()),
    };
    for t in &rule.head.terms {
        head.slots.push(match t {
            Term::Skolem { function, args } => HeadSlot::Skolem {
                function: Arc::clone(function),
                args: args
                    .iter()
                    .map(|a| slot(a, interner))
                    .collect::<Result<_>>()?,
            },
            t => HeadSlot::Slot(slot(t, interner)?),
        });
    }
    let mut filters = Vec::with_capacity(rule.filters.len());
    for f in &rule.filters {
        filters.push(CompiledFilter {
            op: f.op,
            left: slot(&f.left, interner)?,
            right: slot(&f.right, interner)?,
        });
    }
    Ok(CompiledRule {
        head,
        body,
        filters,
        num_vars: var_ids.len(),
    })
}

/// How a step obtains its candidate tuples.
#[derive(Debug, Clone)]
pub(crate) enum Source {
    /// The round's delta slice (every plan's first step).
    Delta,
    /// Full iteration of the relation's live tuples (nothing bound).
    Scan,
    /// Index probe on the statically bound columns, keyed by these slots.
    Probe {
        cols: Box<[usize]>,
        key: Box<[Slot]>,
    },
}

/// Per-column action when matching one candidate tuple.
#[derive(Debug, Clone)]
pub(crate) enum ColAction {
    /// Column is covered by the probe key — guaranteed to match.
    Ignore,
    /// Column must equal this constant (delta/scan steps only).
    CheckConst(Sym),
    /// First occurrence of an unbound variable: bind it.
    Bind(usize),
    /// Variable already bound (earlier step, or earlier column of this
    /// atom): must match.
    CheckVar(usize),
}

/// One step of a compiled join: which atom, how to get candidates, what to
/// do per column, and which filters become ready afterwards.
#[derive(Debug, Clone)]
pub(crate) struct StepPlan {
    pub(crate) atom: usize,
    pub(crate) source: Source,
    pub(crate) actions: Box<[ColAction]>,
    /// Variables this step binds (reset on backtrack).
    pub(crate) binds: Box<[usize]>,
    /// Filters whose variables are all bound once this step matched.
    pub(crate) filters: Box<[usize]>,
}

/// A join order plus per-step access paths, compiled once per
/// `(rule, delta position)`.
#[derive(Debug, Clone)]
pub(crate) struct JoinPlan {
    pub(crate) steps: Vec<StepPlan>,
}

impl JoinPlan {
    /// Greedy join order — the delta atom first, then repeatedly the atom
    /// with the most statically bound positions (constants + bound
    /// variables) — with every step's access path decided at compile
    /// time.
    fn build(rule: &CompiledRule, delta_pos: usize) -> JoinPlan {
        let n = rule.body.len();
        let mut bound = vec![false; rule.num_vars];
        let mut used = vec![false; n];
        let mut filter_done = vec![false; rule.filters.len()];
        let mut steps = Vec::with_capacity(n);
        for step_i in 0..n {
            let ai = match step_i {
                0 => delta_pos,
                _ => {
                    let mut best = usize::MAX;
                    let mut best_score = -1i64;
                    for (cand, &cand_used) in used.iter().enumerate() {
                        if cand_used {
                            continue;
                        }
                        let score = rule.body[cand]
                            .slots
                            .iter()
                            .filter(|s| s.is_bound(&bound))
                            .count() as i64;
                        if score > best_score {
                            best_score = score;
                            best = cand;
                        }
                    }
                    best
                }
            };
            used[ai] = true;
            let atom = &rule.body[ai];
            let is_delta = step_i == 0;
            let bound_before = bound.clone();
            let mut probe_cols: Vec<usize> = Vec::new();
            let mut key: Vec<Slot> = Vec::new();
            let mut actions: Vec<ColAction> = Vec::with_capacity(atom.slots.len());
            let mut binds: Vec<usize> = Vec::new();
            for (ci, &slot) in atom.slots.iter().enumerate() {
                // A probe covers what was known before this step; the
                // delta step has no probe and checks it instead.
                if !is_delta && slot.is_bound(&bound_before) {
                    probe_cols.push(ci);
                    key.push(slot);
                    actions.push(ColAction::Ignore);
                    continue;
                }
                actions.push(match slot {
                    Slot::Const(s) => ColAction::CheckConst(s),
                    // Bound before, or repeated within this atom: the
                    // first occurrence binds, later ones compare.
                    Slot::Var(v) if bound[v] => ColAction::CheckVar(v),
                    Slot::Var(v) => {
                        bound[v] = true;
                        binds.push(v);
                        ColAction::Bind(v)
                    }
                });
            }
            let source = if is_delta {
                Source::Delta
            } else if probe_cols.is_empty() {
                Source::Scan
            } else {
                Source::Probe {
                    cols: probe_cols.into(),
                    key: key.into(),
                }
            };
            let filters: Vec<usize> = rule
                .filters
                .iter()
                .enumerate()
                .filter(|(fi, f)| {
                    !filter_done[*fi] && f.left.is_bound(&bound) && f.right.is_bound(&bound)
                })
                .map(|(fi, _)| fi)
                .collect();
            for &fi in &filters {
                filter_done[fi] = true;
            }
            steps.push(StepPlan {
                atom: ai,
                source,
                actions: actions.into(),
                binds: binds.into(),
                filters: filters.into(),
            });
        }
        JoinPlan { steps }
    }
}
