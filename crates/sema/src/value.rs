//! Symbolic values: the `(value, ispoison)` pairs of paper §3.1, extended
//! with the per-register set of undef variables of §3.3.

use alive2_ir::types::Type;
use alive2_smt::fxhash::FxHashMap;
use alive2_smt::term::{Ctx, TermId};
use std::collections::BTreeSet;

/// A symbolic scalar: an SMT value term, a poison flag, and the undef
/// variables embedded in `value` that must be refreshed on each observation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScalarVal {
    /// The value, meaningful only when `poison` is false. Integers and
    /// floats are bit-vectors of the type's width; pointers are
    /// `bid ++ off` concatenations.
    pub value: TermId,
    /// Boolean term: the value is poison.
    pub poison: TermId,
    /// Undef variables appearing in `value`; each register-file lookup
    /// rewrites them with fresh variables (§3.3). `freeze` clears the set.
    pub undef_vars: BTreeSet<TermId>,
}

impl ScalarVal {
    /// A fully defined scalar.
    pub fn defined(value: TermId, ctx: &Ctx) -> ScalarVal {
        ScalarVal {
            value,
            poison: ctx.fals(),
            undef_vars: BTreeSet::new(),
        }
    }

    /// A poison scalar of the given width.
    pub fn poison(ctx: &Ctx, width: u32) -> ScalarVal {
        ScalarVal {
            value: ctx.bv_lit_u64(width, 0),
            poison: ctx.tru(),
            undef_vars: BTreeSet::new(),
        }
    }
}

/// A symbolic IR value: scalar or aggregate (element-wise, §3.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SymValue {
    /// A scalar value.
    Scalar(ScalarVal),
    /// An aggregate value, one entry per element/field.
    Aggregate(Vec<SymValue>),
}

impl SymValue {
    /// The scalar payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is an aggregate.
    pub fn as_scalar(&self) -> &ScalarVal {
        match self {
            SymValue::Scalar(s) => s,
            SymValue::Aggregate(_) => panic!("expected scalar symbolic value"),
        }
    }

    /// The aggregate elements.
    ///
    /// # Panics
    ///
    /// Panics if the value is a scalar.
    pub fn as_aggregate(&self) -> &[SymValue] {
        match self {
            SymValue::Aggregate(v) => v,
            SymValue::Scalar(_) => panic!("expected aggregate symbolic value"),
        }
    }

    /// All undef variables anywhere in the value.
    pub fn undef_vars(&self) -> BTreeSet<TermId> {
        match self {
            SymValue::Scalar(s) => s.undef_vars.clone(),
            SymValue::Aggregate(vs) => {
                let mut out = BTreeSet::new();
                for v in vs {
                    out.extend(v.undef_vars());
                }
                out
            }
        }
    }

    /// True if any component may carry undef variables.
    pub fn has_undef_vars(&self) -> bool {
        match self {
            SymValue::Scalar(s) => !s.undef_vars.is_empty(),
            SymValue::Aggregate(vs) => vs.iter().any(SymValue::has_undef_vars),
        }
    }

    /// A boolean term: some component is poison.
    pub fn any_poison(&self, ctx: &Ctx) -> TermId {
        match self {
            SymValue::Scalar(s) => s.poison,
            SymValue::Aggregate(vs) => {
                let parts: Vec<TermId> = vs.iter().map(|v| v.any_poison(ctx)).collect();
                ctx.or_many(&parts)
            }
        }
    }

    /// Rewrites every undef variable with a fresh one, collecting the fresh
    /// variables into `fresh_acc` (they join the function's non-determinism
    /// set). This is the §3.3 register-file lookup.
    pub fn refresh_undef(&self, ctx: &Ctx, fresh_acc: &mut Vec<TermId>) -> SymValue {
        match self {
            SymValue::Scalar(s) => {
                if s.undef_vars.is_empty() {
                    return self.clone();
                }
                let mut map = FxHashMap::default();
                let mut new_vars = BTreeSet::new();
                for &uv in &s.undef_vars {
                    let sort = ctx.sort(uv);
                    let fresh = ctx.var("undef", sort);
                    fresh_acc.push(fresh);
                    new_vars.insert(fresh);
                    map.insert(uv, fresh);
                }
                let value = ctx.substitute(s.value, &map);
                let poison = ctx.substitute(s.poison, &map);
                SymValue::Scalar(ScalarVal {
                    value,
                    poison,
                    undef_vars: new_vars,
                })
            }
            SymValue::Aggregate(vs) => {
                SymValue::Aggregate(vs.iter().map(|v| v.refresh_undef(ctx, fresh_acc)).collect())
            }
        }
    }

    /// Freezes the value: undef variables stop being refreshed (they keep
    /// one arbitrary, fixed assignment) and poison is replaced by a fresh
    /// non-deterministic choice (§3.3). The pick's width follows the value
    /// term's sort, so pointers freeze at their encoded width.
    pub fn freeze(&self, ctx: &Ctx, fresh_acc: &mut Vec<TermId>) -> SymValue {
        match self {
            SymValue::Scalar(s) => {
                let pick = ctx.var("freeze", ctx.sort(s.value));
                fresh_acc.push(pick);
                let value = ctx.ite(s.poison, pick, s.value);
                SymValue::Scalar(ScalarVal {
                    value,
                    poison: ctx.fals(),
                    // Undef vars stay in the expression but are no longer
                    // listed, so lookups do not refresh them: every later
                    // observation sees the same arbitrary value.
                    undef_vars: BTreeSet::new(),
                })
            }
            SymValue::Aggregate(vs) => {
                let elems = vs.iter().map(|v| v.freeze(ctx, fresh_acc)).collect();
                SymValue::Aggregate(elems)
            }
        }
    }

    /// Flattens the value to a single `(bits, poison)` pair by
    /// concatenating aggregate elements (first element highest, §3.1).
    pub fn flatten(&self, ctx: &Ctx) -> ScalarVal {
        match self {
            SymValue::Scalar(s) => s.clone(),
            SymValue::Aggregate(vs) => {
                assert!(!vs.is_empty(), "cannot flatten empty aggregate");
                let flat: Vec<ScalarVal> = vs.iter().map(|v| v.flatten(ctx)).collect();
                let mut value = flat[0].value;
                let mut poison = flat[0].poison;
                let mut undef_vars = flat[0].undef_vars.clone();
                for s in &flat[1..] {
                    value = ctx.concat(value, s.value);
                    poison = ctx.or(poison, s.poison);
                    undef_vars.extend(s.undef_vars.iter().copied());
                }
                ScalarVal {
                    value,
                    poison,
                    undef_vars,
                }
            }
        }
    }
}

/// The element type of an aggregate at index `i`.
pub fn elem_type(ty: &Type, i: usize) -> &Type {
    match ty {
        Type::Vector(_, t) | Type::Array(_, t) => t,
        Type::Struct(ts) => &ts[i],
        other => panic!("not an aggregate type: {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alive2_smt::term::Sort;

    #[test]
    fn refresh_creates_fresh_vars_per_lookup() {
        let ctx = Ctx::new();
        let u = ctx.var("undef0", Sort::BitVec(8));
        let sv = SymValue::Scalar(ScalarVal {
            value: u,
            poison: ctx.fals(),
            undef_vars: [u].into_iter().collect(),
        });
        let mut fresh = Vec::new();
        let a = sv.refresh_undef(&ctx, &mut fresh);
        let b = sv.refresh_undef(&ctx, &mut fresh);
        assert_eq!(fresh.len(), 2);
        assert_ne!(a.as_scalar().value, b.as_scalar().value);
        assert_ne!(a.as_scalar().value, u);
    }

    #[test]
    fn refresh_without_undef_is_identity() {
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(8));
        let sv = SymValue::Scalar(ScalarVal::defined(x, &ctx));
        let mut fresh = Vec::new();
        let a = sv.refresh_undef(&ctx, &mut fresh);
        assert!(fresh.is_empty());
        assert_eq!(a.as_scalar().value, x);
    }

    #[test]
    fn freeze_clears_undef_set() {
        let ctx = Ctx::new();
        let u = ctx.var("undef0", Sort::BitVec(8));
        let sv = SymValue::Scalar(ScalarVal {
            value: u,
            poison: ctx.fals(),
            undef_vars: [u].into_iter().collect(),
        });
        let mut fresh = Vec::new();
        let frozen = sv.freeze(&ctx, &mut fresh);
        assert!(!frozen.has_undef_vars());
        // After freezing, lookups do not change the value.
        let mut fresh2 = Vec::new();
        let again = frozen.refresh_undef(&ctx, &mut fresh2);
        assert_eq!(frozen, again);
        assert!(fresh2.is_empty());
    }

    #[test]
    fn freeze_replaces_poison_with_choice() {
        let ctx = Ctx::new();
        let sv = SymValue::Scalar(ScalarVal::poison(&ctx, 8));
        let mut fresh = Vec::new();
        let frozen = sv.freeze(&ctx, &mut fresh);
        assert_eq!(frozen.as_scalar().poison, ctx.fals());
        assert_eq!(fresh.len(), 1);
        assert_eq!(frozen.as_scalar().value, fresh[0]);
    }

    #[test]
    fn flatten_concatenates_elements() {
        let ctx = Ctx::new();
        let a = ctx.bv_lit_u64(8, 0xab);
        let b = ctx.bv_lit_u64(8, 0xcd);
        let agg = SymValue::Aggregate(vec![
            SymValue::Scalar(ScalarVal::defined(a, &ctx)),
            SymValue::Scalar(ScalarVal::defined(b, &ctx)),
        ]);
        let flat = agg.flatten(&ctx);
        assert_eq!(ctx.as_bv_lit(flat.value).unwrap().to_u64(), 0xabcd);
        assert_eq!(flat.poison, ctx.fals());
    }

    #[test]
    fn aggregate_poison_is_any_element() {
        let ctx = Ctx::new();
        let ok = SymValue::Scalar(ScalarVal::defined(ctx.bv_lit_u64(8, 1), &ctx));
        let bad = SymValue::Scalar(ScalarVal::poison(&ctx, 8));
        let agg = SymValue::Aggregate(vec![ok, bad]);
        assert_eq!(agg.any_poison(&ctx), ctx.tru());
    }
}
