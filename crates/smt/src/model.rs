//! Models (satisfying assignments) and a concrete term evaluator.

use crate::bv::BitVec;
use crate::fxhash::FxHashMap;
use crate::term::{Ctx, Op, Sort, TermId, VarId};

/// A concrete value: either a boolean or a bit-vector.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Value {
    /// Boolean value.
    Bool(bool),
    /// Bit-vector value.
    Bv(BitVec),
}

impl Value {
    /// The boolean payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is a bit-vector.
    pub fn as_bool(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            Value::Bv(v) => panic!("expected Bool value, found {v:?}"),
        }
    }

    /// The bit-vector payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is a boolean.
    pub fn as_bv(&self) -> &BitVec {
        match self {
            Value::Bv(v) => v,
            Value::Bool(b) => panic!("expected BitVec value, found {b:?}"),
        }
    }

    /// The default (zero) value of a sort.
    pub fn default_of(sort: Sort) -> Value {
        match sort {
            Sort::Bool => Value::Bool(false),
            Sort::BitVec(w) => Value::Bv(BitVec::zero(w)),
        }
    }
}

/// A (partial) assignment from variables to concrete values.
///
/// Variables missing from the model evaluate to the zero value of their
/// sort — mirroring partial models from SMT solvers, which the paper's
/// over-approximation check (§3.8) relies on: a variable absent from the
/// model did not matter for satisfiability.
#[derive(Clone, Debug, Default)]
pub struct Model {
    values: FxHashMap<VarId, Value>,
}

impl Model {
    /// Creates an empty model.
    pub fn new() -> Self {
        Model::default()
    }

    /// Sets the value of a variable.
    pub fn set(&mut self, v: VarId, val: Value) {
        self.values.insert(v, val);
    }

    /// Reads a variable's value if the model constrains it.
    pub fn get(&self, v: VarId) -> Option<&Value> {
        self.values.get(&v)
    }

    /// True if the model assigns the variable.
    pub fn contains(&self, v: VarId) -> bool {
        self.values.contains_key(&v)
    }

    /// Number of assigned variables.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no variable is assigned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates over the assignments.
    pub fn iter(&self) -> impl Iterator<Item = (&VarId, &Value)> {
        self.values.iter()
    }

    /// Evaluates a term under this model. Unassigned variables take the
    /// zero value of their sort; uninterpreted applications evaluate their
    /// arguments and return zero (callers should Ackermannize first if
    /// function values matter).
    pub fn eval(&self, ctx: &Ctx, t: TermId) -> Value {
        let mut memo = FxHashMap::default();
        self.eval_rec(ctx, t, &mut memo)
    }

    /// Evaluates a boolean term to a `bool`.
    ///
    /// # Panics
    ///
    /// Panics if the term is not boolean-sorted.
    pub fn eval_bool(&self, ctx: &Ctx, t: TermId) -> bool {
        self.eval(ctx, t).as_bool()
    }

    /// Evaluates a bit-vector term to a `BitVec`.
    ///
    /// # Panics
    ///
    /// Panics if the term is not bit-vector-sorted.
    pub fn eval_bv(&self, ctx: &Ctx, t: TermId) -> BitVec {
        self.eval(ctx, t).as_bv().clone()
    }

    fn eval_rec(&self, ctx: &Ctx, t: TermId, memo: &mut FxHashMap<TermId, Value>) -> Value {
        if let Some(v) = memo.get(&t) {
            return v.clone();
        }
        let op = ctx.op(t);
        let args = ctx.args(t);
        let b = |i: usize, memo: &mut FxHashMap<TermId, Value>| -> Value {
            self.eval_rec(ctx, args[i], memo)
        };
        let val = match op {
            Op::True => Value::Bool(true),
            Op::False => Value::Bool(false),
            Op::BvLit(v) => Value::Bv(v),
            Op::Var(v) => self
                .values
                .get(&v)
                .cloned()
                .unwrap_or_else(|| Value::default_of(ctx.sort(t))),
            Op::Not => Value::Bool(!b(0, memo).as_bool()),
            Op::And => Value::Bool(b(0, memo).as_bool() && b(1, memo).as_bool()),
            Op::Or => Value::Bool(b(0, memo).as_bool() || b(1, memo).as_bool()),
            Op::BXor => Value::Bool(b(0, memo).as_bool() ^ b(1, memo).as_bool()),
            Op::Implies => Value::Bool(!b(0, memo).as_bool() || b(1, memo).as_bool()),
            Op::Eq => Value::Bool(b(0, memo) == b(1, memo)),
            Op::Ite => {
                if b(0, memo).as_bool() {
                    b(1, memo)
                } else {
                    b(2, memo)
                }
            }
            Op::BvNot => Value::Bv(b(0, memo).as_bv().not()),
            Op::BvNeg => Value::Bv(b(0, memo).as_bv().neg()),
            Op::BvAnd => Value::Bv(b(0, memo).as_bv().and(b(1, memo).as_bv())),
            Op::BvOr => Value::Bv(b(0, memo).as_bv().or(b(1, memo).as_bv())),
            Op::BvXor => Value::Bv(b(0, memo).as_bv().xor(b(1, memo).as_bv())),
            Op::BvAdd => Value::Bv(b(0, memo).as_bv().add(b(1, memo).as_bv())),
            Op::BvSub => Value::Bv(b(0, memo).as_bv().sub(b(1, memo).as_bv())),
            Op::BvMul => Value::Bv(b(0, memo).as_bv().mul(b(1, memo).as_bv())),
            Op::BvUdiv => Value::Bv(b(0, memo).as_bv().udiv(b(1, memo).as_bv())),
            Op::BvUrem => Value::Bv(b(0, memo).as_bv().urem(b(1, memo).as_bv())),
            Op::BvSdiv => Value::Bv(b(0, memo).as_bv().sdiv(b(1, memo).as_bv())),
            Op::BvSrem => Value::Bv(b(0, memo).as_bv().srem(b(1, memo).as_bv())),
            Op::BvShl => Value::Bv(b(0, memo).as_bv().shl(b(1, memo).as_bv())),
            Op::BvLshr => Value::Bv(b(0, memo).as_bv().lshr(b(1, memo).as_bv())),
            Op::BvAshr => Value::Bv(b(0, memo).as_bv().ashr(b(1, memo).as_bv())),
            Op::Ult => Value::Bool(b(0, memo).as_bv().ult(b(1, memo).as_bv())),
            Op::Ule => Value::Bool(b(0, memo).as_bv().ule(b(1, memo).as_bv())),
            Op::Slt => Value::Bool(b(0, memo).as_bv().slt(b(1, memo).as_bv())),
            Op::Sle => Value::Bool(b(0, memo).as_bv().sle(b(1, memo).as_bv())),
            Op::Concat => Value::Bv(b(0, memo).as_bv().concat(b(1, memo).as_bv())),
            Op::Extract(hi, lo) => Value::Bv(b(0, memo).as_bv().extract(hi, lo)),
            Op::ZExt(w) => Value::Bv(b(0, memo).as_bv().zext(w)),
            Op::SExt(w) => Value::Bv(b(0, memo).as_bv().sext(w)),
            Op::Apply(_) => {
                for i in 0..args.len() {
                    let _ = b(i, memo);
                }
                Value::default_of(ctx.sort(t))
            }
        };
        memo.insert(t, val.clone());
        val
    }

    /// Evaluates a term under this model *without* zero-defaulting:
    /// returns `None` when the result genuinely depends on a variable the
    /// model does not assign (a don't-care). This is the provenance-aware
    /// companion to [`Model::eval`] — counterexample printers use it to
    /// report unassigned inputs as `any` instead of a fabricated zero.
    ///
    /// Short-circuits are honored: `false ∧ x`, `true ∨ x`, and friends
    /// are definite even when the other side is not. `Ite` with an
    /// indefinite condition is definite only when both branches agree.
    /// Uninterpreted applications are always indefinite.
    pub fn try_eval(&self, ctx: &Ctx, t: TermId) -> Option<Value> {
        let mut memo = FxHashMap::default();
        self.try_eval_rec(ctx, t, &mut memo)
    }

    fn try_eval_rec(
        &self,
        ctx: &Ctx,
        t: TermId,
        memo: &mut FxHashMap<TermId, Option<Value>>,
    ) -> Option<Value> {
        if let Some(v) = memo.get(&t) {
            return v.clone();
        }
        let op = ctx.op(t);
        let args = ctx.args(t);
        let val: Option<Value> = match op {
            // Leaves are definite except unassigned variables.
            Op::True | Op::False | Op::BvLit(_) => Some(self.eval(ctx, t)),
            Op::Var(v) => self.values.get(&v).cloned(),
            // Boolean connectives with definite short-circuit sides.
            Op::And => {
                let a = self.try_eval_rec(ctx, args[0], memo);
                let b = self.try_eval_rec(ctx, args[1], memo);
                match (&a, &b) {
                    (Some(x), _) if !x.as_bool() => Some(Value::Bool(false)),
                    (_, Some(y)) if !y.as_bool() => Some(Value::Bool(false)),
                    (Some(_), Some(_)) => Some(Value::Bool(true)),
                    _ => None,
                }
            }
            Op::Or => {
                let a = self.try_eval_rec(ctx, args[0], memo);
                let b = self.try_eval_rec(ctx, args[1], memo);
                match (&a, &b) {
                    (Some(x), _) if x.as_bool() => Some(Value::Bool(true)),
                    (_, Some(y)) if y.as_bool() => Some(Value::Bool(true)),
                    (Some(_), Some(_)) => Some(Value::Bool(false)),
                    _ => None,
                }
            }
            Op::Implies => {
                let a = self.try_eval_rec(ctx, args[0], memo);
                let b = self.try_eval_rec(ctx, args[1], memo);
                match (&a, &b) {
                    (Some(x), _) if !x.as_bool() => Some(Value::Bool(true)),
                    (_, Some(y)) if y.as_bool() => Some(Value::Bool(true)),
                    (Some(_), Some(_)) => Some(Value::Bool(false)),
                    _ => None,
                }
            }
            Op::Ite => {
                let c = self.try_eval_rec(ctx, args[0], memo);
                let x = self.try_eval_rec(ctx, args[1], memo);
                let y = self.try_eval_rec(ctx, args[2], memo);
                match c {
                    Some(cv) => {
                        if cv.as_bool() {
                            x
                        } else {
                            y
                        }
                    }
                    None => match (x, y) {
                        (Some(xv), Some(yv)) if xv == yv => Some(xv),
                        _ => None,
                    },
                }
            }
            Op::Apply(_) => None,
            // Everything else is strict: definite iff all arguments are.
            _ => {
                let mut ok = true;
                for &a in args.iter() {
                    if self.try_eval_rec(ctx, a, memo).is_none() {
                        ok = false;
                    }
                }
                if ok {
                    Some(self.eval(ctx, t))
                } else {
                    None
                }
            }
        };
        memo.insert(t, val.clone());
        val
    }

    /// Converts the model's binding for a variable term into a literal term
    /// (for substitution back into formulas).
    pub fn value_term(&self, ctx: &Ctx, var_term: TermId) -> TermId {
        let v = ctx
            .as_var(var_term)
            .expect("value_term expects a variable term");
        let sort = ctx.sort(var_term);
        match self.values.get(&v) {
            Some(Value::Bool(b)) => ctx.bool_lit(*b),
            Some(Value::Bv(x)) => ctx.bv_lit(x.clone()),
            None => match sort {
                Sort::Bool => ctx.fals(),
                Sort::BitVec(w) => ctx.bv_lit(BitVec::zero(w)),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_arithmetic() {
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(8));
        let y = ctx.var("y", Sort::BitVec(8));
        let t = ctx.bv_mul(ctx.bv_add(x, y), x);
        let mut m = Model::new();
        m.set(ctx.as_var(x).unwrap(), Value::Bv(BitVec::from_u64(8, 3)));
        m.set(ctx.as_var(y).unwrap(), Value::Bv(BitVec::from_u64(8, 4)));
        assert_eq!(m.eval_bv(&ctx, t).to_u64(), 21);
    }

    #[test]
    fn eval_defaults_unassigned_to_zero() {
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(8));
        let c = ctx.var("c", Sort::Bool);
        let m = Model::new();
        assert_eq!(m.eval_bv(&ctx, x).to_u64(), 0);
        assert!(!m.eval_bool(&ctx, c));
    }

    #[test]
    fn eval_ite_and_comparisons() {
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(8));
        let big = ctx.bv_lit_u64(8, 100);
        let cond = ctx.bv_ult(x, big);
        let t = ctx.ite(cond, ctx.bv_lit_u64(8, 1), ctx.bv_lit_u64(8, 2));
        let mut m = Model::new();
        m.set(ctx.as_var(x).unwrap(), Value::Bv(BitVec::from_u64(8, 50)));
        assert_eq!(m.eval_bv(&ctx, t).to_u64(), 1);
        m.set(ctx.as_var(x).unwrap(), Value::Bv(BitVec::from_u64(8, 200)));
        assert_eq!(m.eval_bv(&ctx, t).to_u64(), 2);
    }

    #[test]
    fn try_eval_distinguishes_dont_cares_from_zeros() {
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(8));
        let y = ctx.var("y", Sort::BitVec(8));
        let c = ctx.var("c", Sort::Bool);
        let mut m = Model::new();
        m.set(ctx.as_var(x).unwrap(), Value::Bv(BitVec::from_u64(8, 7)));

        // Assigned: definite. Unassigned: a don't-care, not zero.
        assert_eq!(m.try_eval(&ctx, x), Some(Value::Bv(BitVec::from_u64(8, 7))));
        assert_eq!(m.try_eval(&ctx, y), None);
        assert_eq!(m.try_eval(&ctx, c), None);
        // eval still zero-defaults (CEGQI instantiation depends on it).
        assert_eq!(m.eval_bv(&ctx, y).to_u64(), 0);

        // Strict ops propagate indefiniteness; short-circuits don't.
        assert_eq!(m.try_eval(&ctx, ctx.bv_add(x, y)), None);
        let fy = ctx.eq(y, y); // folds to true: definite without y
        assert_eq!(m.try_eval(&ctx, fy), Some(Value::Bool(true)));
        let anded = ctx.and(ctx.fals(), c);
        assert_eq!(m.try_eval(&ctx, anded), Some(Value::Bool(false)));
        let ored = ctx.or(ctx.tru(), c);
        assert_eq!(m.try_eval(&ctx, ored), Some(Value::Bool(true)));
    }

    #[test]
    fn value_term_round_trip() {
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(8));
        let mut m = Model::new();
        m.set(ctx.as_var(x).unwrap(), Value::Bv(BitVec::from_u64(8, 42)));
        let t = m.value_term(&ctx, x);
        assert_eq!(ctx.as_bv_lit(t).unwrap().to_u64(), 42);
    }
}
