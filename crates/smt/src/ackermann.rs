//! Ackermannization: elimination of uninterpreted function applications.
//!
//! Every application `f(args…)` is replaced by a fresh variable, and for
//! each pair of applications of the same function a functional-consistency
//! constraint `args₁ = args₂ ⇒ res₁ = res₂` is added. This is sound and
//! complete for quantifier-free formulas and lets the bit-blaster stay
//! purely propositional.

use crate::fxhash::FxHashMap;
use crate::term::{Ctx, FuncId, Op, TermId};

/// Result of Ackermannizing a set of assertions.
#[derive(Debug)]
pub struct Ackermannized {
    /// The rewritten assertions (applications replaced by variables).
    pub assertions: Vec<TermId>,
    /// The added functional-consistency constraints.
    pub constraints: Vec<TermId>,
    /// Map from each original application term to its replacement variable.
    pub app_vars: Vec<(TermId, TermId)>,
}

/// Stateful Ackermannization for incremental solving: the application
/// table persists across [`rewrite`](Self::rewrite) calls, so assertions
/// pushed one at a time share replacement variables with everything
/// rewritten before, and only the consistency constraints pairing *new*
/// applications against old ones are emitted — each exactly once.
#[derive(Debug, Default)]
pub struct Ackermannizer {
    memo: FxHashMap<TermId, TermId>,
    /// (func, rewritten args) -> replacement var
    table: FxHashMap<(FuncId, Vec<TermId>), TermId>,
    /// per func: list of (rewritten args, var)
    by_func: FxHashMap<FuncId, Vec<(Vec<TermId>, TermId)>>,
    app_vars: Vec<(TermId, TermId)>,
}

impl Ackermannizer {
    /// Creates an empty rewriter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Map from each original application term to its replacement
    /// variable, across every `rewrite` so far.
    pub fn app_vars(&self) -> &[(TermId, TermId)] {
        &self.app_vars
    }

    /// Rewrites `t` to contain no `Apply` nodes. Functional-consistency
    /// constraints for newly seen applications (paired against every
    /// previously seen application of the same function) are appended to
    /// `constraints`.
    pub fn rewrite(&mut self, ctx: &Ctx, t: TermId, constraints: &mut Vec<TermId>) -> TermId {
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

/// Rewrites `assertions` so they contain no `Apply` nodes.
pub fn ackermannize(ctx: &Ctx, assertions: &[TermId]) -> Ackermannized {
    let mut ack = Ackermannizer::new();
    let mut constraints = Vec::new();
    let rewritten: Vec<TermId> = assertions
        .iter()
        .map(|&t| ack.rewrite(ctx, t, &mut constraints))
        .collect();
    Ackermannized {
        assertions: rewritten,
        constraints,
        app_vars: ack.app_vars,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Sort;

    #[test]
    fn removes_applications() {
        let ctx = Ctx::new();
        let f = ctx.func("f", &[Sort::BitVec(8)], Sort::BitVec(8));
        let x = ctx.var("x", Sort::BitVec(8));
        let y = ctx.var("y", Sort::BitVec(8));
        let fx = ctx.apply(f, &[x]);
        let fy = ctx.apply(f, &[y]);
        let assertion = ctx.ne(fx, fy);
        let ack = ackermannize(&ctx, &[assertion]);
        assert_eq!(ack.app_vars.len(), 2);
        assert_eq!(ack.constraints.len(), 1);
        // Rewritten assertion must not contain Apply.
        fn has_apply(ctx: &Ctx, t: TermId) -> bool {
            matches!(ctx.op(t), Op::Apply(_)) || ctx.args(t).iter().any(|&a| has_apply(ctx, a))
        }
        assert!(!has_apply(&ctx, ack.assertions[0]));
        for &c in &ack.constraints {
            assert!(!has_apply(&ctx, c));
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
        let ack = ackermannize(&ctx, &[ctx.eq(fx1, fx2)]);
        assert_eq!(ack.app_vars.len(), 0); // folded away by eq(x, x) = true
    }

    #[test]
    fn nested_applications() {
        let ctx = Ctx::new();
        let f = ctx.func("f", &[Sort::BitVec(8)], Sort::BitVec(8));
        let x = ctx.var("x", Sort::BitVec(8));
        let ffx = ctx.apply(f, &[ctx.apply(f, &[x])]);
        let assertion = ctx.eq(ffx, x);
        let ack = ackermannize(&ctx, &[assertion]);
        assert_eq!(ack.app_vars.len(), 2);
        assert_eq!(ack.constraints.len(), 1);
    }
}
