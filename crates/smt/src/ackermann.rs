//! Ackermannization: elimination of uninterpreted function applications.
//!
//! Every application `f(args…)` is replaced by a fresh variable, and for
//! each pair of applications of the same function a functional-consistency
//! constraint `args₁ = args₂ ⇒ res₁ = res₂` is added. This is sound and
//! complete for quantifier-free formulas and lets the bit-blaster stay
//! purely propositional.
//!
//! The validator is the one caller: it eliminates the applications of
//! every formula before any solver sees it, so what a solver blasts is
//! QF_BV. Over an ∃∀ obligation it decides per application which side
//! the replacement variable quantifies with (see DESIGN.md, "Key
//! algorithmic notes").

use crate::fxhash::FxHashMap;
use crate::term::{Ctx, FuncId, Op, TermId};

/// Result of Ackermannizing a formula.
#[derive(Debug)]
pub struct Ackermannized {
    /// The rewritten formula (applications replaced by variables).
    pub formula: TermId,
    /// The added functional-consistency constraints.
    pub constraints: Vec<TermId>,
    /// Map from each original application term to its replacement variable.
    pub app_vars: Vec<(TermId, TermId)>,
}

/// The tables of one [`ackermannize`] call.
#[derive(Default)]
struct Ackermannizer {
    memo: FxHashMap<TermId, TermId>,
    /// (func, rewritten args) -> replacement var
    table: FxHashMap<(FuncId, Vec<TermId>), TermId>,
    /// per func: list of (rewritten args, var)
    by_func: FxHashMap<FuncId, Vec<(Vec<TermId>, TermId)>>,
    app_vars: Vec<(TermId, TermId)>,
}

impl Ackermannizer {
    /// Rewrites `t` to contain no `Apply` nodes. The consistency
    /// constraints of each new application (paired against every earlier
    /// application of the same function) are appended to `constraints`.
    fn rewrite(&mut self, ctx: &Ctx, t: TermId, constraints: &mut Vec<TermId>) -> TermId {
        if let Some(&r) = self.memo.get(&t) {
            return r;
        }
        let args = ctx.args(t);
        let new_args = args.map(|a| self.rewrite(ctx, a, constraints));
        let apply = ctx.with_node(t, |op, _, _| match op {
            Op::Apply(f) => Some(*f),
            _ => None,
        });
        let r = match apply {
            Some(f) => {
                let key = (f, new_args.to_vec());
                if let Some(&v) = self.table.get(&key) {
                    v
                } else {
                    let prior = self.by_func.entry(f).or_default();
                    let name = format!("{}!{}", ctx.func_name(f), prior.len());
                    let v = ctx.var(&name, ctx.func_ret_sort(f));
                    for (args_i, var_i) in prior.iter() {
                        let eqs: Vec<TermId> = args_i
                            .iter()
                            .zip(new_args.iter())
                            .map(|(&a, &b)| ctx.eq(a, b))
                            .collect();
                        let all_eq = ctx.and_many(&eqs);
                        let res_eq = ctx.eq(*var_i, v);
                        constraints.push(ctx.implies(all_eq, res_eq));
                    }
                    prior.push((new_args.to_vec(), v));
                    self.table.insert(key, v);
                    self.app_vars.push((t, v));
                    v
                }
            }
            // Variables and literals have no operands, so they keep `t`;
            // a node with operands is never a literal, so its operator
            // copies without touching the heap.
            None if *new_args == *args => t,
            None => ctx.rebuild(ctx.op(t), &new_args),
        };
        self.memo.insert(t, r);
        r
    }
}

/// Rewrites `t` so it contains no `Apply` nodes. A formula without
/// applications comes back as itself, with no constraint, and interns
/// no term.
pub fn ackermannize(ctx: &Ctx, t: TermId) -> Ackermannized {
    let mut ack = Ackermannizer::default();
    let mut constraints = Vec::new();
    let formula = ack.rewrite(ctx, t, &mut constraints);
    Ackermannized {
        formula,
        constraints,
        app_vars: ack.app_vars,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::Budget;
    use crate::solver::Solver;
    use crate::term::Sort;

    #[test]
    fn removes_applications() {
        let ctx = Ctx::new();
        let f = ctx.func("f", &[Sort::BitVec(8)], Sort::BitVec(8));
        let x = ctx.var("x", Sort::BitVec(8));
        let y = ctx.var("y", Sort::BitVec(8));
        let fx = ctx.apply(f, &[x]);
        let fy = ctx.apply(f, &[y]);
        let ack = ackermannize(&ctx, ctx.ne(fx, fy));
        assert_eq!(ack.app_vars.len(), 2);
        assert_eq!(ack.constraints.len(), 1);
        assert!(ctx.has_apply(fx) && !ctx.has_apply(ack.formula));
        for &c in &ack.constraints {
            assert!(!ctx.has_apply(c));
        }
    }

    #[test]
    fn identical_applications_share_a_var() {
        let ctx = Ctx::new();
        let f = ctx.func("f", &[Sort::BitVec(8)], Sort::BitVec(8));
        let x = ctx.var("x", Sort::BitVec(8));
        let fx1 = ctx.apply(f, &[x]);
        let fx2 = ctx.apply(f, &[x]);
        assert_eq!(fx1, fx2); // hash-consed
        let ack = ackermannize(&ctx, ctx.eq(fx1, fx2));
        assert_eq!(ack.app_vars.len(), 0); // folded away by eq(x, x) = true
    }

    #[test]
    fn nested_applications() {
        let ctx = Ctx::new();
        let f = ctx.func("f", &[Sort::BitVec(8)], Sort::BitVec(8));
        let x = ctx.var("x", Sort::BitVec(8));
        let ffx = ctx.apply(f, &[ctx.apply(f, &[x])]);
        let ack = ackermannize(&ctx, ctx.eq(ffx, x));
        assert_eq!(ack.app_vars.len(), 2);
        assert_eq!(ack.constraints.len(), 1);
    }

    #[test]
    fn no_application_is_the_identity() {
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(8));
        let t = ctx.bv_ult(x, ctx.bv_lit_u64(8, 5));
        let terms = ctx.num_terms();
        let ack = ackermannize(&ctx, t);
        assert_eq!(ack.formula, t);
        assert!(ack.constraints.is_empty() && ack.app_vars.is_empty());
        assert_eq!(ctx.num_terms(), terms);
    }

    /// The solvers blast what they are given: an Ackermannized formula
    /// with its constraints asserted keeps functional consistency.
    #[test]
    fn ackermannized_uf_consistency_through_the_solver() {
        let ctx = Ctx::new();
        let f = ctx.func("f", &[Sort::BitVec(8)], Sort::BitVec(8));
        let x = ctx.var("x", Sort::BitVec(8));
        let y = ctx.var("y", Sort::BitVec(8));
        let fx = ctx.apply(f, &[x]);
        let fy = ctx.apply(f, &[y]);
        let check = |t: TermId| {
            let ack = ackermannize(&ctx, t);
            let mut s = Solver::new(&ctx);
            s.assert(ack.formula);
            for &c in &ack.constraints {
                s.assert(c);
            }
            s.check(Budget::unlimited())
        };
        assert!(check(ctx.and(ctx.eq(x, y), ctx.ne(fx, fy))).is_unsat());
        // Without x == y, f(x) != f(y) is satisfiable.
        assert!(check(ctx.ne(fx, fy)).is_sat());
    }
}
