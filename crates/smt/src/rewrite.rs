//! Saturation-style term rewriting over the hash-consed DAG.
//!
//! The pass walks a refinement obligation bottom-up and repeatedly applies
//! bit-vector and boolean identities that the local smart constructors in
//! [`crate::term`] cannot see (they only look one node deep): ring-style
//! normalization of `bvadd`/`bvsub`/`bvneg` chains, bitwise chain
//! flattening with complement/absorption detection, shift/extract/concat
//! fusion, comparison and `ite` canonicalization, and equality
//! cancellation. Many real Alive2 refinement queries reduce to literal
//! `true`/`false` here, so no CNF is ever built for them; the residue
//! falls through to [`crate::bitblast`] → CDCL unchanged.
//!
//! Termination is enforced twice over: every rule is one-directional with
//! a decreasing measure (operand width, count of a syntactic construct, or
//! distance from a canonical ordering), and the whole pass carries a
//! global fuel of rule firings plus a per-node hop cap, so even a buggy
//! rule pair cannot loop. The pass is pure simplification — input and
//! output are equivalent for all variable assignments — which the
//! differential harness in `tests/rewrite.rs` checks against the solver.

use crate::bv::BitVec;
use crate::fxhash::FxHashMap;
use crate::term::{Ctx, Op, TermId};
use alive2_obs::stats::RewriteFamily;

/// All rule families, in `family_idx` order (for the flush loop).
const FAMILIES: [RewriteFamily; 6] = [
    RewriteFamily::SumNormalize,
    RewriteFamily::BitwiseAbsorb,
    RewriteFamily::ShiftExtract,
    RewriteFamily::IteCmp,
    RewriteFamily::EqCancel,
    RewriteFamily::DivFold,
];

/// Maps an op to the rule family its `rewrite_node` dispatch arm belongs
/// to. Mirrors the dispatch exactly, so the per-family fire counts
/// partition `rewrite_steps`: ops the dispatcher leaves alone (the `_`
/// arm) never fire a rule and are classified arbitrarily here.
fn family_idx(op: &Op) -> usize {
    let fam = match op {
        Op::BvAdd | Op::BvSub | Op::BvNeg | Op::BvMul => RewriteFamily::SumNormalize,
        Op::Not
        | Op::And
        | Op::Or
        | Op::Implies
        | Op::BXor
        | Op::BvAnd
        | Op::BvOr
        | Op::BvXor
        | Op::BvNot => RewriteFamily::BitwiseAbsorb,
        Op::BvShl
        | Op::BvLshr
        | Op::BvAshr
        | Op::Extract(..)
        | Op::ZExt(_)
        | Op::SExt(_)
        | Op::Concat => RewriteFamily::ShiftExtract,
        Op::Ite | Op::Ult | Op::Ule | Op::Slt | Op::Sle => RewriteFamily::IteCmp,
        Op::Eq => RewriteFamily::EqCancel,
        Op::BvUdiv | Op::BvUrem | Op::BvSdiv | Op::BvSrem => RewriteFamily::DivFold,
        _ => RewriteFamily::IteCmp,
    };
    FAMILIES.iter().position(|&f| f == fam).unwrap()
}

/// Default global fuel: total rule firings allowed per [`simplify`] call.
pub const DEFAULT_FUEL: u64 = 65_536;

/// Cap on consecutive rule firings applied to a single node visit.
const MAX_HOPS: u32 = 128;

/// Caps for linear-sum decomposition (atoms / traversal pops / |coeff|).
const LIN_MAX_ATOMS: usize = 8;
const LIN_MAX_POPS: usize = 64;
const LIN_MAX_COEFF: i64 = 8;

/// Rewrites `t` to an equivalent, usually smaller term. Records the number
/// of rule firings via the `rewrite_steps` counter.
pub fn simplify(ctx: &Ctx, t: TermId) -> TermId {
    simplify_with_fuel(ctx, t, DEFAULT_FUEL)
}

/// [`simplify`] with an explicit fuel bound (rule firings). `fuel = 0`
/// still constant-folds through the smart constructors but fires no rules.
pub fn simplify_with_fuel(ctx: &Ctx, t: TermId, fuel: u64) -> TermId {
    let mut rw = Rewriter {
        ctx,
        memo: FxHashMap::default(),
        fuel,
        steps: 0,
        fams: [0; 6],
    };
    let r = rw.simp(t);
    alive2_obs::stats::record_rewrite_steps(rw.steps);
    for (i, &fam) in FAMILIES.iter().enumerate() {
        alive2_obs::stats::record_rewrite_family(fam, rw.fams[i]);
    }
    debug_assert_eq!(
        rw.fams.iter().sum::<u64>(),
        rw.steps,
        "family fire counts must partition rewrite_steps"
    );
    r
}

struct Rewriter<'a> {
    ctx: &'a Ctx,
    memo: FxHashMap<TermId, TermId>,
    fuel: u64,
    steps: u64,
    /// Per-family fire counts, indexed like [`FAMILIES`].
    fams: [u64; 6],
}

impl<'a> Rewriter<'a> {
    /// Simplifies `t` to a local fixpoint: children first (memoized), then
    /// node-level rules until none fires or the hop/fuel budget runs out.
    /// Recursion depth is bounded by the DAG height (same profile as
    /// `Ctx::substitute`); rule chains burn fuel iteratively, not on the
    /// stack.
    fn simp(&mut self, t: TermId) -> TermId {
        if let Some(&r) = self.memo.get(&t) {
            return r;
        }
        let mut cur = t;
        let mut hops = 0u32;
        loop {
            let args = self.ctx.args(cur);
            // No rule rewrites a leaf (a literal or a variable).
            if args.is_empty() {
                break;
            }
            let new_args = args.map(|a| self.simp(a));
            if *new_args != *args {
                let rebuilt = self.ctx.rebuild(self.ctx.op(cur), &new_args);
                if rebuilt != cur {
                    cur = rebuilt;
                    continue;
                }
            }
            if self.fuel == 0 || self.ctx.over_budget() {
                break;
            }
            // Classify by the op *before* the rewrite: that is the
            // dispatch arm whose rule fired.
            let fam = family_idx(&self.ctx.op(cur));
            let next = self.rewrite_node(cur);
            if next == cur {
                break;
            }
            self.fuel -= 1;
            self.steps += 1;
            self.fams[fam] += 1;
            hops += 1;
            cur = next;
            if hops > MAX_HOPS {
                break;
            }
        }
        self.memo.insert(t, cur);
        self.memo.insert(cur, cur);
        cur
    }

    /// One rule-application attempt at the root of `t`. Returns `t` itself
    /// when no rule fires.
    fn rewrite_node(&mut self, t: TermId) -> TermId {
        let ctx = self.ctx;
        match ctx.op(t) {
            Op::Not => self.rw_not(t),
            Op::And | Op::Or => self.rw_bool_chain(t),
            Op::Implies => {
                // a => b  ≡  ¬a ∨ b: canonicalizing into the or-chain
                // machinery buys dedup/complement/absorption for free.
                let a = ctx.args(t);
                let na = ctx.not(a[0]);
                ctx.or(na, a[1])
            }
            Op::BXor => self.rw_bxor(t),
            Op::Eq => self.rw_eq(t),
            Op::Ite => self.rw_ite(t),
            Op::Ult | Op::Ule | Op::Slt | Op::Sle => self.rw_cmp(t),
            Op::BvAdd | Op::BvSub | Op::BvNeg => self.rw_add_normal(t),
            Op::BvMul => self.rw_mul(t),
            Op::BvAnd | Op::BvOr | Op::BvXor => self.rw_bitwise(t),
            Op::BvNot => self.rw_bv_not(t),
            Op::BvShl | Op::BvLshr | Op::BvAshr => self.rw_shift(t),
            Op::BvUdiv | Op::BvUrem | Op::BvSdiv | Op::BvSrem => self.rw_div(t),
            Op::Extract(hi, lo) => self.rw_extract(t, hi, lo),
            Op::ZExt(w) => {
                // zext → concat with a zero literal; extract-of-concat in
                // the smart constructor then does the slicing for free.
                let a = ctx.args(t)[0];
                let aw = ctx.sort(a).width();
                let zeros = ctx.bv_lit(BitVec::zero(w - aw));
                ctx.concat(zeros, a)
            }
            Op::SExt(w) => {
                let a = ctx.args(t)[0];
                if let Op::SExt(_) = ctx.op(a) {
                    return ctx.sext(ctx.args(a)[0], w);
                }
                t
            }
            Op::Concat => self.rw_concat(t),
            _ => t,
        }
    }

    // ---- boolean layer ---------------------------------------------------

    fn rw_not(&mut self, t: TermId) -> TermId {
        let ctx = self.ctx;
        let a = ctx.args(t)[0];
        let args = ctx.args(a);
        match ctx.op(a) {
            // ¬(x < y) flips to the dual comparison.
            Op::Ult => ctx.bv_ule(args[1], args[0]),
            Op::Ule => ctx.bv_ult(args[1], args[0]),
            Op::Slt => ctx.bv_sle(args[1], args[0]),
            Op::Sle => ctx.bv_slt(args[1], args[0]),
            Op::Implies => {
                let nb = ctx.not(args[1]);
                ctx.and(args[0], nb)
            }
            // De Morgan: push negation toward the leaves so the chain
            // normalizer sees complements.
            Op::And => {
                let (na, nb) = (ctx.not(args[0]), ctx.not(args[1]));
                ctx.or(na, nb)
            }
            Op::Or => {
                let (na, nb) = (ctx.not(args[0]), ctx.not(args[1]));
                ctx.and(na, nb)
            }
            Op::Ite if ctx.sort(a).is_bool() => {
                let (nt, ne) = (ctx.not(args[1]), ctx.not(args[2]));
                ctx.ite(args[0], nt, ne)
            }
            _ => t,
        }
    }

    /// Flattens an and/or chain, dedups, detects complements, and applies
    /// absorption (`x ∧ (x ∨ y) = x`). Idempotent: the rebuilt chain
    /// re-collects to the same sorted element set.
    fn rw_bool_chain(&mut self, t: TermId) -> TermId {
        let ctx = self.ctx;
        let op = ctx.op(t);
        let is_and = matches!(op, Op::And);
        let mut elems = Vec::new();
        collect_chain(ctx, &op, t, &mut elems);
        elems.sort();
        elems.dedup();
        // Complement pair anywhere in the chain decides the whole term.
        for &e in &elems {
            if let Op::Not = ctx.op(e) {
                let inner = ctx.args(e)[0];
                if elems.binary_search(&inner).is_ok() {
                    return ctx.bool_lit(!is_and);
                }
            }
        }
        // Absorption: drop any element that is a dual-op chain containing
        // another element of this chain.
        let dual = if is_and { Op::Or } else { Op::And };
        let keep: Vec<TermId> = elems
            .iter()
            .copied()
            .filter(|&e| {
                if ctx.op(e) != dual {
                    return true;
                }
                let mut sub = Vec::new();
                collect_chain(ctx, &dual, e, &mut sub);
                !sub.iter()
                    .any(|s| *s != e && elems.binary_search(s).is_ok())
            })
            .collect();
        let rebuilt = if is_and {
            ctx.and_many(&keep)
        } else {
            ctx.or_many(&keep)
        };
        if rebuilt != t {
            rebuilt
        } else {
            t
        }
    }

    fn rw_bxor(&mut self, t: TermId) -> TermId {
        let ctx = self.ctx;
        let args = ctx.args(t);
        // Hoist negations out: ¬a ⊕ b = ¬(a ⊕ b). Double negation then
        // cancels in the constructor, so ¬a ⊕ ¬b converges to a ⊕ b.
        for (x, y) in [(args[0], args[1]), (args[1], args[0])] {
            if let Op::Not = ctx.op(x) {
                let inner = ctx.args(x)[0];
                let bx = ctx.bxor(inner, y);
                return ctx.not(bx);
            }
        }
        t
    }

    fn rw_ite(&mut self, t: TermId) -> TermId {
        let ctx = self.ctx;
        let args = ctx.args(t);
        let (c, th, el) = (args[0], args[1], args[2]);
        if let Op::Not = ctx.op(c) {
            return ctx.ite(ctx.args(c)[0], el, th);
        }
        // Nested ite on the same condition collapses.
        if let Op::Ite = ctx.op(th) {
            let ta = ctx.args(th);
            if ta[0] == c {
                return ctx.ite(c, ta[1], el);
            }
        }
        if let Op::Ite = ctx.op(el) {
            let ea = ctx.args(el);
            if ea[0] == c {
                return ctx.ite(c, th, ea[2]);
            }
        }
        t
    }

    // ---- equality --------------------------------------------------------

    fn rw_eq(&mut self, t: TermId) -> TermId {
        let ctx = self.ctx;
        let args = ctx.args(t);
        let (a, b) = (args[0], args[1]);
        if ctx.sort(a).is_bool() {
            // iff with a negated side: ¬x = y  ≡  ¬(x = y).
            for (x, y) in [(a, b), (b, a)] {
                if let Op::Not = ctx.op(x) {
                    let e = ctx.eq(ctx.args(x)[0], y);
                    return ctx.not(e);
                }
            }
            return t;
        }
        // Concat on either side splits into high/low equalities; extracts
        // on the other side constant-fold or resolve against concats.
        for (x, y) in [(a, b), (b, a)] {
            if let Op::Concat = ctx.op(x) {
                let xa = ctx.args(x);
                let w = ctx.sort(x).width();
                let lw = ctx.sort(xa[1]).width();
                let yh = ctx.extract(y, w - 1, lw);
                let yl = ctx.extract(y, lw - 1, 0);
                let eh = ctx.eq(xa[0], yh);
                let el = ctx.eq(xa[1], yl);
                return ctx.and(eh, el);
            }
        }
        // ite against a literal pushes the equality into the branches.
        for (x, y) in [(a, b), (b, a)] {
            if let (Op::Ite, Some(_)) = (ctx.op(x), ctx.as_bv_lit(y)) {
                let xa = ctx.args(x);
                let et = ctx.eq(xa[1], y);
                let ee = ctx.eq(xa[2], y);
                return ctx.ite(xa[0], et, ee);
            }
        }
        // Strip bitwise complements: ¬a = ¬b ≡ a = b; ¬a = k ≡ a = ¬k.
        if let (Op::BvNot, Op::BvNot) = (ctx.op(a), ctx.op(b)) {
            return ctx.eq(ctx.args(a)[0], ctx.args(b)[0]);
        }
        for (x, y) in [(a, b), (b, a)] {
            if let (Op::BvNot, Some(k)) = (ctx.op(x), ctx.as_bv_lit(y)) {
                let nk = ctx.bv_lit(k.not());
                return ctx.eq(ctx.args(x)[0], nk);
            }
        }
        // Move a literal out of an xor chain onto the literal side.
        for (x, y) in [(a, b), (b, a)] {
            if let (Op::BvXor, Some(k)) = (ctx.op(x), ctx.as_bv_lit(y)) {
                let mut chain = Vec::new();
                collect_chain(ctx, &Op::BvXor, x, &mut chain);
                if let Some(pos) = chain.iter().position(|&e| ctx.as_bv_lit(e).is_some()) {
                    let c1 = ctx.as_bv_lit(chain[pos]).unwrap();
                    chain.remove(pos);
                    let rest = chain
                        .iter()
                        .skip(1)
                        .fold(chain[0], |acc, &e| ctx.bv_xor(acc, e));
                    let moved = ctx.bv_lit(c1.xor(&k));
                    return ctx.eq(rest, moved);
                }
            }
        }
        self.rw_eq_linear(t, a, b)
    }

    /// Linear cancellation: decompose both sides through add/sub/neg into a
    /// coefficient map plus a net literal, cancel, and rebuild a canonical
    /// `Σ pos = Σ neg + lit`. Sign-normalization on the lowest `TermId`
    /// makes both storage orientations of the `eq` node converge to one
    /// normal form, so the rule is a no-op on its own output.
    fn rw_eq_linear(&mut self, t: TermId, a: TermId, b: TermId) -> TermId {
        let ctx = self.ctx;
        let w = ctx.sort(a).width();
        let (Some((ma, la)), Some((mb, lb))) = (self.linear_decompose(a), self.linear_decompose(b))
        else {
            return t;
        };
        // Nothing to cancel between syntactically unrelated sides.
        if !ma.keys().any(|k| mb.contains_key(k)) && ma.len() + mb.len() > 2 {
            return t;
        }
        let mut map = ma;
        for (k, c) in mb {
            *map.entry(k).or_insert(0) -= c;
        }
        map.retain(|_, c| *c != 0);
        let mut lit = la.sub(&lb);
        if map.values().any(|c| c.abs() > LIN_MAX_COEFF) {
            return t;
        }
        if map.is_empty() {
            return ctx.bool_lit(lit.is_zero());
        }
        let mut items: Vec<(TermId, i64)> = map.into_iter().collect();
        items.sort();
        if items[0].1 < 0 {
            for it in items.iter_mut() {
                it.1 = -it.1;
            }
            lit = lit.neg();
        }
        let pos: Vec<(TermId, i64)> = items.iter().copied().filter(|&(_, c)| c > 0).collect();
        let neg: Vec<(TermId, i64)> = items
            .iter()
            .map(|&(x, c)| (x, -c))
            .filter(|&(_, c)| c > 0)
            .collect();
        let lhs = self
            .fold_sum(&pos)
            .unwrap_or_else(|| ctx.bv_lit(BitVec::zero(w)));
        // Σ pos + lit − Σ neg = 0  ⇒  Σ pos = Σ neg + (−lit).
        let rhs_lit = lit.neg();
        let rhs = match (self.fold_sum(&neg), rhs_lit.is_zero()) {
            (Some(n), true) => n,
            (Some(n), false) => ctx.bv_add(n, ctx.bv_lit(rhs_lit)),
            (None, _) => ctx.bv_lit(rhs_lit),
        };
        let rebuilt = ctx.eq(lhs, rhs);
        if rebuilt != t {
            rebuilt
        } else {
            t
        }
    }

    // ---- additive normalization ------------------------------------------

    /// Canonicalizes an add/sub/neg tree as `Σ pos − Σ neg (+ lit)`. Shares
    /// `fold_sum` with `rw_eq_linear` so both reach the same fixpoint.
    fn rw_add_normal(&mut self, t: TermId) -> TermId {
        let ctx = self.ctx;
        let Some((map, lit)) = self.linear_decompose(t) else {
            return t;
        };
        if map.values().any(|c| c.abs() > LIN_MAX_COEFF) {
            return t;
        }
        let mut items: Vec<(TermId, i64)> = map.into_iter().filter(|&(_, c)| c != 0).collect();
        items.sort();
        let pos: Vec<(TermId, i64)> = items.iter().copied().filter(|&(_, c)| c > 0).collect();
        let neg: Vec<(TermId, i64)> = items
            .iter()
            .map(|&(x, c)| (x, -c))
            .filter(|&(_, c)| c > 0)
            .collect();
        let mut res = match (self.fold_sum(&pos), self.fold_sum(&neg)) {
            (Some(p), Some(n)) => ctx.bv_sub(p, n),
            (Some(p), None) => p,
            (None, Some(n)) => ctx.bv_neg(n),
            (None, None) => return ctx.bv_lit(lit),
        };
        if !lit.is_zero() {
            res = ctx.bv_add(res, ctx.bv_lit(lit));
        }
        if res != t {
            res
        } else {
            t
        }
    }

    /// Decomposes `t` through BvAdd/BvSub/BvNeg/BvLit into atom
    /// coefficients plus a net literal. `None` when the tree is too large
    /// to be worth normalizing.
    fn linear_decompose(&self, t: TermId) -> Option<(FxHashMap<TermId, i64>, BitVec)> {
        let ctx = self.ctx;
        let w = ctx.sort(t).width();
        let mut map: FxHashMap<TermId, i64> = FxHashMap::default();
        let mut lit = BitVec::zero(w);
        let mut stack: Vec<(TermId, i64)> = vec![(t, 1)];
        let mut pops = 0usize;
        while let Some((cur, sign)) = stack.pop() {
            pops += 1;
            if pops > LIN_MAX_POPS {
                return None;
            }
            let args = ctx.args(cur);
            match ctx.op(cur) {
                Op::BvAdd => {
                    stack.push((args[0], sign));
                    stack.push((args[1], sign));
                }
                Op::BvSub => {
                    stack.push((args[0], sign));
                    stack.push((args[1], -sign));
                }
                Op::BvNeg => stack.push((args[0], -sign)),
                Op::BvLit(v) => {
                    lit = if sign > 0 { lit.add(&v) } else { lit.sub(&v) };
                }
                _ => {
                    *map.entry(cur).or_insert(0) += sign;
                    if map.len() > LIN_MAX_ATOMS {
                        return None;
                    }
                }
            }
        }
        map.retain(|_, c| *c != 0);
        Some((map, lit))
    }

    /// Folds `Σ coeff·term` over sorted items (coefficients positive).
    fn fold_sum(&self, items: &[(TermId, i64)]) -> Option<TermId> {
        let ctx = self.ctx;
        let mut acc: Option<TermId> = None;
        for &(x, c) in items {
            for _ in 0..c {
                acc = Some(match acc {
                    None => x,
                    Some(a) => ctx.bv_add(a, x),
                });
            }
        }
        acc
    }

    // ---- multiplicative / bitwise chains ---------------------------------

    fn rw_mul(&mut self, t: TermId) -> TermId {
        let ctx = self.ctx;
        let mut chain = Vec::new();
        collect_chain(ctx, &Op::BvMul, t, &mut chain);
        let w = ctx.sort(t).width();
        let mut lit = BitVec::one(w);
        let mut rest: Vec<TermId> = Vec::new();
        for e in chain {
            match ctx.as_bv_lit(e) {
                Some(v) => lit = lit.mul(&v),
                None => rest.push(e),
            }
        }
        if lit.is_zero() {
            return ctx.bv_lit(lit);
        }
        rest.sort();
        let base = match rest.split_first() {
            None => return ctx.bv_lit(lit),
            Some((&h, tail)) => tail.iter().fold(h, |acc, &e| ctx.bv_mul(acc, e)),
        };
        let rebuilt = if lit.is_one() {
            base
        } else if lit.is_all_ones() {
            ctx.bv_neg(base)
        } else if lit.is_power_of_two() {
            let k = ctx.bv_lit(BitVec::from_u64(w, lit.trailing_zeros() as u64));
            ctx.bv_shl(base, k)
        } else {
            ctx.bv_mul(base, ctx.bv_lit(lit))
        };
        if rebuilt != t {
            rebuilt
        } else {
            t
        }
    }

    fn rw_bitwise(&mut self, t: TermId) -> TermId {
        let ctx = self.ctx;
        let op = ctx.op(t);
        let w = ctx.sort(t).width();
        let mut chain = Vec::new();
        collect_chain(ctx, &op, t, &mut chain);
        let mut lit = match op {
            Op::BvAnd => BitVec::all_ones(w),
            _ => BitVec::zero(w),
        };
        let mut rest: Vec<TermId> = Vec::new();
        for e in chain {
            match ctx.as_bv_lit(e) {
                Some(v) => {
                    lit = match op {
                        Op::BvAnd => lit.and(&v),
                        Op::BvOr => lit.or(&v),
                        _ => lit.xor(&v),
                    }
                }
                None => rest.push(e),
            }
        }
        rest.sort();
        if matches!(op, Op::BvAnd | Op::BvOr) {
            rest.dedup();
        } else {
            // xor: equal pair cancels to zero.
            let mut out = Vec::with_capacity(rest.len());
            let mut i = 0;
            while i < rest.len() {
                if i + 1 < rest.len() && rest[i] == rest[i + 1] {
                    i += 2;
                } else {
                    out.push(rest[i]);
                    i += 1;
                }
            }
            rest = out;
        }
        // Complement detection: x and ¬x in one chain.
        let mut i = 0;
        while i < rest.len() {
            let e = rest[i];
            if let Op::BvNot = ctx.op(e) {
                let inner = ctx.args(e)[0];
                if let Ok(j) = rest.binary_search(&inner) {
                    match op {
                        Op::BvAnd => return ctx.bv_lit(BitVec::zero(w)),
                        Op::BvOr => return ctx.bv_lit(BitVec::all_ones(w)),
                        _ => {
                            lit = lit.xor(&BitVec::all_ones(w));
                            let (lo, hi) = if j < i { (j, i) } else { (i, j) };
                            rest.remove(hi);
                            rest.remove(lo);
                            continue;
                        }
                    }
                }
            }
            i += 1;
        }
        // Absorbing literal ends the chain outright.
        match op {
            Op::BvAnd if lit.is_zero() => return ctx.bv_lit(lit),
            Op::BvOr if lit.is_all_ones() => return ctx.bv_lit(lit),
            _ => {}
        }
        let identity = match op {
            Op::BvAnd => lit.is_all_ones(),
            _ => lit.is_zero(),
        };
        let apply = |a: TermId, b: TermId| match op {
            Op::BvAnd => ctx.bv_and(a, b),
            Op::BvOr => ctx.bv_or(a, b),
            _ => ctx.bv_xor(a, b),
        };
        let rebuilt = match rest.split_first() {
            None => ctx.bv_lit(lit),
            Some((&h, tail)) => {
                let base = tail.iter().fold(h, |acc, &e| apply(acc, e));
                if identity {
                    base
                } else {
                    apply(base, ctx.bv_lit(lit))
                }
            }
        };
        if rebuilt != t {
            return rebuilt;
        }
        // Binary distribution over concat when the other side is a concat
        // or literal: bit-parallel ops act independently on the halves.
        let args = ctx.args(t);
        if args.len() == 2 {
            for (x, y) in [(args[0], args[1]), (args[1], args[0])] {
                if let Op::Concat = ctx.op(x) {
                    let other_ok = matches!(ctx.op(y), Op::Concat) || ctx.as_bv_lit(y).is_some();
                    if other_ok {
                        let xa = ctx.args(x);
                        let lw = ctx.sort(xa[1]).width();
                        let yh = ctx.extract(y, w - 1, lw);
                        let yl = ctx.extract(y, lw - 1, 0);
                        let h = apply(xa[0], yh);
                        let l = apply(xa[1], yl);
                        return ctx.concat(h, l);
                    }
                }
            }
        }
        t
    }

    fn rw_bv_not(&mut self, t: TermId) -> TermId {
        let ctx = self.ctx;
        let a = ctx.args(t)[0];
        if let Op::Concat = ctx.op(a) {
            let aa = ctx.args(a);
            let (nh, nl) = (ctx.bv_not(aa[0]), ctx.bv_not(aa[1]));
            return ctx.concat(nh, nl);
        }
        t
    }

    // ---- shifts, division ------------------------------------------------

    fn rw_shift(&mut self, t: TermId) -> TermId {
        let ctx = self.ctx;
        let op = ctx.op(t);
        let args = ctx.args(t);
        let (a, sh) = (args[0], args[1]);
        let Some(k) = ctx.as_bv_lit(sh) else {
            return t;
        };
        let w = ctx.sort(a).width();
        // Oversized shift: SMT-LIB shifts by ≥ width produce 0 (ashr: the
        // sign fill). `w` always fits in `w` bits since w < 2^w.
        let wlit = BitVec::from_u64(w, w as u64);
        if !k.ult(&wlit) {
            return match op {
                Op::BvAshr => {
                    let sign = ctx.extract(a, w - 1, w - 1);
                    ctx.sext(sign, w)
                }
                _ => ctx.bv_lit(BitVec::zero(w)),
            };
        }
        let ku = lit_to_u64(&k).expect("shift < width fits u64") as u32;
        if ku == 0 {
            return t;
        }
        // In-range shift by a literal is a slice-and-pad: expose it to the
        // extract/concat fusion rules.
        match op {
            Op::BvShl => {
                let hi = ctx.extract(a, w - 1 - ku, 0);
                ctx.concat(hi, ctx.bv_lit(BitVec::zero(ku)))
            }
            Op::BvLshr => {
                let lo = ctx.extract(a, w - 1, ku);
                ctx.concat(ctx.bv_lit(BitVec::zero(ku)), lo)
            }
            _ => {
                let lo = ctx.extract(a, w - 1, ku);
                ctx.sext(lo, w)
            }
        }
    }

    fn rw_div(&mut self, t: TermId) -> TermId {
        let ctx = self.ctx;
        let op = ctx.op(t);
        let args = ctx.args(t);
        let (a, b) = (args[0], args[1]);
        let w = ctx.sort(t).width();
        if a == b && matches!(op, Op::BvUrem | Op::BvSrem) {
            // x rem x = 0 for x ≠ 0; rem-by-zero returns the dividend, and
            // the dividend is 0 in that case too.
            return ctx.bv_lit(BitVec::zero(w));
        }
        let Some(k) = ctx.as_bv_lit(b) else {
            return t;
        };
        if k.is_zero() {
            // SMT-LIB totalization of division by zero.
            return match op {
                Op::BvUdiv => ctx.bv_lit(BitVec::all_ones(w)),
                Op::BvUrem | Op::BvSrem => a,
                _ => {
                    let neg = ctx.bv_slt(a, ctx.bv_lit(BitVec::zero(w)));
                    ctx.ite(
                        neg,
                        ctx.bv_lit(BitVec::one(w)),
                        ctx.bv_lit(BitVec::all_ones(w)),
                    )
                }
            };
        }
        if k.is_one() {
            return match op {
                Op::BvUdiv | Op::BvSdiv => a,
                _ => ctx.bv_lit(BitVec::zero(w)),
            };
        }
        match op {
            Op::BvUdiv if k.is_power_of_two() => {
                let sh = ctx.bv_lit(BitVec::from_u64(w, k.trailing_zeros() as u64));
                ctx.bv_lshr(a, sh)
            }
            Op::BvUrem if k.is_power_of_two() => {
                let mask = ctx.bv_lit(k.sub(&BitVec::one(w)));
                ctx.bv_and(a, mask)
            }
            // sdiv/srem by −1: the quotient wraps (INT_MIN included), the
            // remainder is always 0.
            Op::BvSdiv if k.is_all_ones() => ctx.bv_neg(a),
            Op::BvSrem if k.is_all_ones() => ctx.bv_lit(BitVec::zero(w)),
            _ => t,
        }
    }

    // ---- comparisons -----------------------------------------------------

    fn rw_cmp(&mut self, t: TermId) -> TermId {
        let ctx = self.ctx;
        let op = ctx.op(t);
        let args = ctx.args(t);
        let (a, b) = (args[0], args[1]);
        let w = ctx.sort(a).width();
        let la = ctx.as_bv_lit(a);
        let lb = ctx.as_bv_lit(b);
        // Literal bound endpoints collapse to equalities or constants.
        match op {
            Op::Ule => {
                if lb.as_ref().is_some_and(|v| v.is_all_ones()) {
                    return ctx.tru();
                }
                if la.as_ref().is_some_and(|v| v.is_zero()) {
                    return ctx.tru();
                }
                if la.as_ref().is_some_and(|v| v.is_all_ones()) {
                    return ctx.eq(b, ctx.bv_lit(BitVec::all_ones(w)));
                }
                if lb.as_ref().is_some_and(|v| v.is_zero()) {
                    return ctx.eq(a, ctx.bv_lit(BitVec::zero(w)));
                }
            }
            Op::Ult => {
                if lb.as_ref().is_some_and(|v| v.is_zero()) {
                    return ctx.fals();
                }
                if la.as_ref().is_some_and(|v| v.is_all_ones()) {
                    return ctx.fals();
                }
                if lb.as_ref().is_some_and(|v| v.is_one()) {
                    return ctx.eq(a, ctx.bv_lit(BitVec::zero(w)));
                }
                if la.as_ref().is_some_and(|v| v.is_zero()) {
                    return ctx.ne(b, ctx.bv_lit(BitVec::zero(w)));
                }
                if lb.as_ref().is_some_and(|v| v.is_all_ones()) {
                    return ctx.ne(a, ctx.bv_lit(BitVec::all_ones(w)));
                }
            }
            Op::Sle => {
                if la.as_ref().is_some_and(|v| *v == BitVec::min_signed(w)) {
                    return ctx.tru();
                }
                if lb.as_ref().is_some_and(|v| *v == BitVec::max_signed(w)) {
                    return ctx.tru();
                }
                if lb.as_ref().is_some_and(|v| *v == BitVec::min_signed(w)) {
                    return ctx.eq(a, ctx.bv_lit(BitVec::min_signed(w)));
                }
                if la.as_ref().is_some_and(|v| *v == BitVec::max_signed(w)) {
                    return ctx.eq(b, ctx.bv_lit(BitVec::max_signed(w)));
                }
            }
            Op::Slt => {
                if lb.as_ref().is_some_and(|v| *v == BitVec::min_signed(w)) {
                    return ctx.fals();
                }
                if la.as_ref().is_some_and(|v| *v == BitVec::max_signed(w)) {
                    return ctx.fals();
                }
                if la.as_ref().is_some_and(|v| *v == BitVec::min_signed(w)) {
                    return ctx.ne(b, ctx.bv_lit(BitVec::min_signed(w)));
                }
                if lb.as_ref().is_some_and(|v| *v == BitVec::max_signed(w)) {
                    return ctx.ne(a, ctx.bv_lit(BitVec::max_signed(w)));
                }
            }
            _ => {}
        }
        // Structural unsigned bounds: x ≤ x|y, x&y ≤ x, lshr/urem shrink.
        if matches!(op, Op::Ule) && self.le_structural(a, b) {
            return ctx.tru();
        }
        if matches!(op, Op::Ult) && self.le_structural(b, a) {
            return ctx.fals();
        }
        // Lexicographic expansion over a concat boundary.
        if let Some(r) = self.split_cmp(&op, a, b) {
            return r;
        }
        t
    }

    /// Syntactic certificate for unsigned `x ≤ y`.
    fn le_structural(&self, x: TermId, y: TermId) -> bool {
        let ctx = self.ctx;
        // y is an or-chain containing x.
        if let Op::BvOr = ctx.op(y) {
            let mut c = Vec::new();
            collect_chain(ctx, &Op::BvOr, y, &mut c);
            if c.contains(&x) {
                return true;
            }
        }
        // x is an and-chain containing y.
        if let Op::BvAnd = ctx.op(x) {
            let mut c = Vec::new();
            collect_chain(ctx, &Op::BvAnd, x, &mut c);
            if c.contains(&y) {
                return true;
            }
        }
        // lshr(y, _) ≤ y and urem(y, _) ≤ y (urem by 0 returns y itself;
        // udiv is excluded: udiv-by-zero is all-ones).
        if matches!(ctx.op(x), Op::BvLshr | Op::BvUrem if ctx.args(x)[0] == y) {
            return true;
        }
        // The post-rewrite spelling of lshr-by-literal:
        // concat(0…0, y[w−1:k]) ≤ y.
        if let Op::Concat = ctx.op(x) {
            let xa = ctx.args(x);
            if ctx.as_bv_lit(xa[0]).is_some_and(|v| v.is_zero()) {
                let k = ctx.sort(xa[0]).width();
                let w = ctx.sort(y).width();
                if let Op::Extract(hi, lo) = ctx.op(xa[1]) {
                    if ctx.args(xa[1])[0] == y && hi == w - 1 && lo == k {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// `cmp(concat(h1,l1), rhs)` expands lexicographically when `rhs` is a
    /// literal or a concat with the same split. Signed order lives in the
    /// high half; the low half always compares unsigned.
    fn split_cmp(&mut self, op: &Op, a: TermId, b: TermId) -> Option<TermId> {
        let ctx = self.ctx;
        let (cc, other, swapped) = match (ctx.op(a), ctx.op(b)) {
            (Op::Concat, _) => (a, b, false),
            (_, Op::Concat) => (b, a, true),
            _ => return None,
        };
        let ca = ctx.args(cc);
        let lw = ctx.sort(ca[1]).width();
        let w = ctx.sort(cc).width();
        let matches_split = match ctx.op(other) {
            Op::Concat => ctx.sort(ctx.args(other)[1]).width() == lw,
            Op::BvLit(_) => true,
            _ => false,
        };
        if !matches_split {
            return None;
        }
        let (h2, l2) = (ctx.extract(other, w - 1, lw), ctx.extract(other, lw - 1, 0));
        let (h1, l1) = (ca[0], ca[1]);
        let ((h1, h2), (l1, l2)) = if swapped {
            ((h2, h1), (l2, l1))
        } else {
            ((h1, h2), (l1, l2))
        };
        let high_strict = match op {
            Op::Slt | Op::Sle => ctx.bv_slt(h1, h2),
            _ => ctx.bv_ult(h1, h2),
        };
        let low = match op {
            Op::Ult | Op::Slt => ctx.bv_ult(l1, l2),
            _ => ctx.bv_ule(l1, l2),
        };
        let he = ctx.eq(h1, h2);
        let tie = ctx.and(he, low);
        Some(ctx.or(high_strict, tie))
    }

    // ---- extract / concat fusion -----------------------------------------

    fn rw_extract(&mut self, t: TermId, hi: u32, lo: u32) -> TermId {
        let ctx = self.ctx;
        let a = ctx.args(t)[0];
        let args = ctx.args(a);
        match ctx.op(a) {
            Op::Extract(_, l1) => ctx.extract(args[0], l1 + hi, l1 + lo),
            // Bit-parallel ops commute with slicing at any range.
            Op::BvAnd | Op::BvOr | Op::BvXor => {
                let x = ctx.extract(args[0], hi, lo);
                let y = ctx.extract(args[1], hi, lo);
                ctx.rebuild(ctx.op(a), &[x, y])
            }
            Op::BvNot => {
                let x = ctx.extract(args[0], hi, lo);
                ctx.bv_not(x)
            }
            Op::Ite => {
                let x = ctx.extract(args[1], hi, lo);
                let y = ctx.extract(args[2], hi, lo);
                ctx.ite(args[0], x, y)
            }
            Op::SExt(_) => {
                let w0 = ctx.sort(args[0]).width();
                if hi < w0 {
                    ctx.extract(args[0], hi, lo)
                } else {
                    let lo2 = lo.min(w0 - 1);
                    let r = ctx.extract(args[0], w0 - 1, lo2);
                    ctx.sext(r, hi - lo + 1)
                }
            }
            // Straddling slice of a concat: split at the seam. (Fully
            // within one side is resolved by the smart constructor.)
            Op::Concat => {
                let lw = ctx.sort(args[1]).width();
                debug_assert!(lo < lw && hi >= lw);
                let h = ctx.extract(args[0], hi - lw, 0);
                let l = ctx.extract(args[1], lw - 1, lo);
                ctx.concat(h, l)
            }
            // Truncation commutes with modular arithmetic (NOT with
            // shifts: a shift amount can exceed the truncated width).
            Op::BvAdd | Op::BvSub | Op::BvMul if lo == 0 => {
                let x = ctx.extract(args[0], hi, 0);
                let y = ctx.extract(args[1], hi, 0);
                ctx.rebuild(ctx.op(a), &[x, y])
            }
            Op::BvNeg if lo == 0 => {
                let x = ctx.extract(args[0], hi, 0);
                ctx.bv_neg(x)
            }
            _ => t,
        }
    }

    fn rw_concat(&mut self, t: TermId) -> TermId {
        let ctx = self.ctx;
        let args = ctx.args(t);
        let (h, l) = (args[0], args[1]);
        // Right-associate so literal/extract merging sees neighbors.
        if let Op::Concat = ctx.op(h) {
            let ha = ctx.args(h);
            let inner = ctx.concat(ha[1], l);
            return ctx.concat(ha[0], inner);
        }
        // Adjacent ites on one condition share it:
        // concat(ite(c,a,b), ite(c,d,e)) → ite(c, concat(a,d), concat(b,e)),
        // so the slice fusion below can rebuild a word stored byte by byte.
        // No rule pushes an ite back into a concat.
        if let Op::Ite = ctx.op(h) {
            let ha = ctx.args(h);
            let merge = |x: TermId| -> Option<TermId> {
                let Op::Ite = ctx.op(x) else {
                    return None;
                };
                let xa = ctx.args(x);
                (xa[0] == ha[0]).then(|| {
                    let th = ctx.concat(ha[1], xa[1]);
                    let el = ctx.concat(ha[2], xa[2]);
                    ctx.ite(ha[0], th, el)
                })
            };
            if let Some(m) = merge(l) {
                return m;
            }
            if let Op::Concat = ctx.op(l) {
                let la = ctx.args(l);
                if let Some(m) = merge(la[0]) {
                    return ctx.concat(m, la[1]);
                }
            }
        }
        // Merge a literal with the literal head of the low side.
        if let (Some(v1), Op::Concat) = (ctx.as_bv_lit(h), ctx.op(l)) {
            let la = ctx.args(l);
            if let Some(v2) = ctx.as_bv_lit(la[0]) {
                return ctx.concat(ctx.bv_lit(v1.concat(&v2)), la[1]);
            }
        }
        // Adjacent slices of one term fuse back together.
        if let Op::Extract(h1, m1) = ctx.op(h) {
            let x = ctx.args(h)[0];
            if let Op::Extract(h2, l2) = ctx.op(l) {
                if ctx.args(l)[0] == x && m1 == h2 + 1 {
                    return ctx.extract(x, h1, l2);
                }
            }
            if let Op::Concat = ctx.op(l) {
                let la = ctx.args(l);
                if let Op::Extract(h2, l2) = ctx.op(la[0]) {
                    if ctx.args(la[0])[0] == x && m1 == h2 + 1 {
                        let fused = ctx.extract(x, h1, l2);
                        return ctx.concat(fused, la[1]);
                    }
                }
            }
        }
        t
    }
}

/// Flattens a nested chain of the same binary operator into its leaves.
fn collect_chain(ctx: &Ctx, op: &Op, t: TermId, out: &mut Vec<TermId>) {
    if ctx.op(t) == *op {
        for &a in ctx.args(t).iter() {
            collect_chain(ctx, op, a, out);
        }
    } else {
        out.push(t);
    }
}

/// The value of a literal as `u64`, for any width, when it fits.
fn lit_to_u64(v: &BitVec) -> Option<u64> {
    let words = v.words();
    if words.iter().skip(1).any(|&w| w != 0) {
        return None;
    }
    Some(words.first().copied().unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Sort;

    fn ctx_x_y(w: u32) -> (Ctx, TermId, TermId) {
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(w));
        let y = ctx.var("y", Sort::BitVec(w));
        (ctx, x, y)
    }

    #[test]
    fn family_fire_counts_partition_rewrite_steps() {
        let snap = alive2_obs::counters_snapshot();
        let (ctx, x, y) = ctx_x_y(8);
        // Mix rule families: ring normalization, equality cancellation,
        // bitwise absorption, shift fusion, division fold.
        let s = ctx.bv_sub(ctx.bv_add(x, y), y);
        let _ = simplify(&ctx, ctx.eq(s, x));
        let _ = simplify(&ctx, ctx.bv_and(x, ctx.bv_and(x, y)));
        let two = ctx.bv_lit_u64(8, 2);
        let _ = simplify(&ctx, ctx.bv_shl(ctx.bv_shl(x, two), two));
        let zero = ctx.bv_lit_u64(8, 0);
        let _ = simplify(&ctx, ctx.bv_udiv(x, zero));
        let mut job = alive2_obs::JobStats::default();
        job.absorb_since(&snap);
        assert!(job.rewrite_steps > 0, "corpus must fire rules");
        let fam_sum = job.rw_sum_normalize
            + job.rw_bitwise_absorb
            + job.rw_shift_extract
            + job.rw_ite_cmp
            + job.rw_eq_cancel
            + job.rw_div_fold;
        assert_eq!(
            fam_sum, job.rewrite_steps,
            "families must partition the aggregate step count"
        );
        assert!(job.rw_sum_normalize > 0, "linear cancellation fired");
    }

    #[test]
    fn discharges_add_commutes_refinement() {
        let (ctx, x, y) = ctx_x_y(8);
        // (x + y) == (y + x) — the classic Alive2 freebie.
        let lhs = ctx.bv_add(x, y);
        let rhs = ctx.bv_add(y, x);
        let claim = ctx.eq(lhs, rhs);
        assert_eq!(ctx.as_bool_lit(simplify(&ctx, claim)), Some(true));
    }

    #[test]
    fn linear_cancellation() {
        let (ctx, x, y) = ctx_x_y(8);
        // (x + y) - y == x
        let s = ctx.bv_sub(ctx.bv_add(x, y), y);
        let claim = ctx.eq(s, x);
        assert_eq!(ctx.as_bool_lit(simplify(&ctx, claim)), Some(true));
        // x + 1 == x is always false… but only width-aware algebra knows;
        // here it reduces to eq with distinct literals.
        let one = ctx.bv_lit_u64(8, 1);
        let claim2 = ctx.eq(ctx.bv_add(x, one), x);
        assert_eq!(ctx.as_bool_lit(simplify(&ctx, claim2)), Some(false));
    }

    #[test]
    fn eq_linear_orientation_converges() {
        let (ctx, x, y) = ctx_x_y(8);
        let k = ctx.bv_lit_u64(8, 3);
        let a = ctx.bv_add(x, k);
        let e1 = ctx.eq(a, y);
        let e2 = ctx.eq(y, a);
        let (s1, s2) = (simplify(&ctx, e1), simplify(&ctx, e2));
        assert_eq!(s1, s2, "both orientations reach one normal form");
    }

    #[test]
    fn demorgan_complement_discharges() {
        let ctx = Ctx::new();
        let p = ctx.var("p", Sort::Bool);
        let q = ctx.var("q", Sort::Bool);
        // ¬(p ∧ q) ∨ p ∨ q  ≡ true (complement appears after De Morgan).
        let np = ctx.not(ctx.and(p, q));
        let f = ctx.or(ctx.or(np, p), q);
        assert_eq!(ctx.as_bool_lit(simplify(&ctx, f)), Some(true));
    }

    #[test]
    fn absorption() {
        let ctx = Ctx::new();
        let p = ctx.var("p", Sort::Bool);
        let q = ctx.var("q", Sort::Bool);
        let f = ctx.and(p, ctx.or(p, q));
        assert_eq!(simplify(&ctx, f), p);
    }

    #[test]
    fn implies_becomes_or_and_discharges() {
        let ctx = Ctx::new();
        let p = ctx.var("p", Sort::Bool);
        let q = ctx.var("q", Sort::Bool);
        let f = ctx.implies(ctx.and(p, q), p);
        assert_eq!(ctx.as_bool_lit(simplify(&ctx, f)), Some(true));
    }

    #[test]
    fn not_comparison_flips() {
        let (ctx, x, y) = ctx_x_y(8);
        let f = ctx.not(ctx.bv_ult(x, y));
        assert_eq!(simplify(&ctx, f), ctx.bv_ule(y, x));
    }

    #[test]
    fn shift_by_literal_becomes_slice() {
        let (ctx, x, _) = ctx_x_y(8);
        let two = ctx.bv_lit_u64(8, 2);
        // (x << 2) >> 2 keeps the low 6 bits: equals x & 0x3f.
        let v = ctx.bv_lshr(ctx.bv_shl(x, two), two);
        let mask = ctx.bv_lit_u64(8, 0x3f);
        let claim = ctx.eq(v, ctx.bv_and(x, mask));
        assert_eq!(ctx.as_bool_lit(simplify(&ctx, claim)), Some(true));
    }

    #[test]
    fn oversized_shift_is_zero() {
        let (ctx, x, _) = ctx_x_y(8);
        let k = ctx.bv_lit_u64(8, 9);
        let f = ctx.eq(ctx.bv_shl(x, k), ctx.bv_lit_u64(8, 0));
        assert_eq!(ctx.as_bool_lit(simplify(&ctx, f)), Some(true));
        let g = ctx.eq(ctx.bv_lshr(x, k), ctx.bv_lit_u64(8, 0));
        assert_eq!(ctx.as_bool_lit(simplify(&ctx, g)), Some(true));
    }

    #[test]
    fn division_rules() {
        let (ctx, x, _) = ctx_x_y(8);
        let zero = ctx.bv_lit_u64(8, 0);
        let four = ctx.bv_lit_u64(8, 4);
        // urem by zero is the dividend.
        assert_eq!(simplify(&ctx, ctx.bv_urem(x, zero)), x);
        // udiv by zero is all-ones.
        let ones = ctx.bv_lit(BitVec::all_ones(8));
        assert_eq!(simplify(&ctx, ctx.bv_udiv(x, zero)), ones);
        // urem by a power of two is a mask.
        let r = simplify(&ctx, ctx.bv_urem(x, four));
        assert_eq!(r, ctx.bv_and(x, ctx.bv_lit_u64(8, 3)));
        // x rem x = 0 even at x = 0.
        assert_eq!(simplify(&ctx, ctx.bv_urem(x, x)), zero);
        assert_eq!(simplify(&ctx, ctx.bv_srem(x, x)), zero);
        // sdiv by −1 wraps through negation (INT_MIN included).
        let m1 = ctx.bv_lit(BitVec::all_ones(8));
        assert_eq!(simplify(&ctx, ctx.bv_sdiv(x, m1)), ctx.bv_neg(x));
    }

    #[test]
    fn mul_by_power_of_two_is_shift_then_slice() {
        let (ctx, x, _) = ctx_x_y(8);
        let eight = ctx.bv_lit_u64(8, 8);
        let two = ctx.bv_lit_u64(8, 2);
        let four = ctx.bv_lit_u64(8, 4);
        // (x * 2) * 4 ≡ x << 3 ≡ concat(x[4:0], 000).
        let lhs = ctx.bv_mul(ctx.bv_mul(x, two), four);
        let rhs = ctx.bv_shl(x, ctx.bv_lit_u64(8, 3));
        let claim = ctx.eq(lhs, rhs);
        assert_eq!(ctx.as_bool_lit(simplify(&ctx, claim)), Some(true));
        let _ = eight;
    }

    #[test]
    fn bitwise_chain_complement() {
        let (ctx, x, y) = ctx_x_y(8);
        let nx = ctx.bv_not(x);
        let f = ctx.bv_and(ctx.bv_and(x, y), nx);
        assert!(ctx.as_bv_lit(simplify(&ctx, f)).unwrap().is_zero());
        let g = ctx.bv_or(ctx.bv_or(x, y), nx);
        assert!(ctx.as_bv_lit(simplify(&ctx, g)).unwrap().is_all_ones());
        let h = ctx.bv_xor(ctx.bv_xor(x, y), x);
        assert_eq!(simplify(&ctx, h), y);
    }

    #[test]
    fn unsigned_bound_rules() {
        let (ctx, x, y) = ctx_x_y(8);
        let f = ctx.bv_ule(ctx.bv_and(x, y), x);
        assert_eq!(ctx.as_bool_lit(simplify(&ctx, f)), Some(true));
        let g = ctx.bv_ule(x, ctx.bv_or(x, y));
        assert_eq!(ctx.as_bool_lit(simplify(&ctx, g)), Some(true));
        let two = ctx.bv_lit_u64(8, 2);
        let h = ctx.bv_ule(ctx.bv_lshr(x, two), x);
        // lshr first becomes a slice; the zext-range comparison then
        // discharges lexicographically.
        assert_eq!(ctx.as_bool_lit(simplify(&ctx, h)), Some(true));
    }

    #[test]
    fn zext_range_check_discharges() {
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(8));
        // zext(x, 16) < 256 — always true.
        let z = ctx.zext(x, 16);
        let f = ctx.bv_ult(z, ctx.bv_lit_u64(16, 256));
        assert_eq!(ctx.as_bool_lit(simplify(&ctx, f)), Some(true));
    }

    #[test]
    fn extract_concat_roundtrip_discharges() {
        let (ctx, x, _) = ctx_x_y(8);
        // concat(x[7:4], x[3:0]) == x
        let h = ctx.extract(x, 7, 4);
        let l = ctx.extract(x, 3, 0);
        let f = ctx.eq(ctx.concat(h, l), x);
        assert_eq!(ctx.as_bool_lit(simplify(&ctx, f)), Some(true));
    }

    #[test]
    fn bytes_under_one_condition_fuse_back_into_the_word() {
        // A word stored byte by byte and read back: each byte is
        // ite(c, u[8i+7:8i], x[8i+7:8i]), concatenated high byte first.
        let (ctx, x, u) = ctx_x_y(32);
        let c = ctx.var("c", Sort::Bool);
        let bytes: Vec<TermId> = (0..4)
            .rev()
            .map(|i| {
                let (hi, lo) = (8 * i + 7, 8 * i);
                ctx.ite(c, ctx.extract(u, hi, lo), ctx.extract(x, hi, lo))
            })
            .collect();
        let word = ctx.ite(c, u, x);
        assert_eq!(simplify(&ctx, ctx.concat_many(&bytes)), word);
        let right = ctx.concat(
            bytes[0],
            ctx.concat(bytes[1], ctx.concat(bytes[2], bytes[3])),
        );
        assert_eq!(simplify(&ctx, right), word);
        // Two bytes on `c` above a plain low half: the right-nested case.
        let low = ctx.extract(x, 15, 0);
        let mixed = ctx.concat(bytes[0], ctx.concat(bytes[1], low));
        let high = ctx.ite(c, ctx.extract(u, 31, 16), ctx.extract(x, 31, 16));
        assert_eq!(simplify(&ctx, mixed), ctx.concat(high, low));
    }

    #[test]
    fn trunc_commutes_with_add() {
        let (ctx, x, y) = ctx_x_y(8);
        // trunc(x + y) == trunc(x) + trunc(y)
        let s = ctx.bv_add(x, y);
        let lhs = ctx.extract(s, 3, 0);
        let rhs = ctx.bv_add(ctx.extract(x, 3, 0), ctx.extract(y, 3, 0));
        let f = ctx.eq(lhs, rhs);
        assert_eq!(ctx.as_bool_lit(simplify(&ctx, f)), Some(true));
    }

    #[test]
    fn ite_canonicalization() {
        let (ctx, x, y) = ctx_x_y(8);
        let c = ctx.var("c", Sort::Bool);
        let nc = ctx.not(c);
        let f = ctx.ite(nc, x, y);
        assert_eq!(simplify(&ctx, f), ctx.ite(c, y, x));
        let nested = ctx.ite(c, ctx.ite(c, x, y), y);
        assert_eq!(simplify(&ctx, nested), ctx.ite(c, x, y));
    }

    #[test]
    fn eq_ite_literal_push() {
        let (ctx, x, y) = ctx_x_y(8);
        let c = ctx.var("c", Sort::Bool);
        let k = ctx.bv_lit_u64(8, 5);
        let f = ctx.eq(ctx.ite(c, x, y), k);
        let expect = ctx.ite(c, ctx.eq(x, k), ctx.eq(y, k));
        assert_eq!(simplify(&ctx, f), simplify(&ctx, expect));
    }

    #[test]
    fn xor_literal_moves_across_eq() {
        let (ctx, x, _) = ctx_x_y(8);
        let c1 = ctx.bv_lit_u64(8, 0xf0);
        let c2 = ctx.bv_lit_u64(8, 0xff);
        let f = ctx.eq(ctx.bv_xor(x, c1), c2);
        assert_eq!(simplify(&ctx, f), ctx.eq(x, ctx.bv_lit_u64(8, 0x0f)));
    }

    #[test]
    fn fuel_zero_fires_no_rules() {
        let (ctx, x, y) = ctx_x_y(8);
        let s = ctx.bv_sub(ctx.bv_add(x, y), y);
        let claim = ctx.eq(s, x);
        let r = simplify_with_fuel(&ctx, claim, 0);
        assert_eq!(r, claim, "no fuel, no rewriting");
    }

    #[test]
    fn fuel_is_bounded_on_adversarial_input() {
        // A deep alternating tree that invites many rule firings still
        // terminates (fuel/hop caps) and stays equivalent.
        let ctx = Ctx::new();
        let mut t = ctx.var("x", Sort::BitVec(16));
        for i in 0..200u64 {
            let k = ctx.bv_lit_u64(16, i + 1);
            t = if i % 3 == 0 {
                ctx.bv_sub(ctx.bv_add(t, k), k)
            } else if i % 3 == 1 {
                ctx.bv_xor(ctx.bv_xor(t, k), k)
            } else {
                ctx.bv_not(ctx.bv_not(t))
            };
        }
        let x = ctx.var("x", Sort::BitVec(16));
        let _ = x;
        let r = simplify(&ctx, t);
        // The whole telescoping tower collapses back to the variable.
        assert!(matches!(ctx.op(r), Op::Var(_)));
    }

    #[test]
    fn sext_of_sext_collapses() {
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(4));
        let f = ctx.sext(ctx.sext(x, 8), 16);
        assert_eq!(simplify(&ctx, f), ctx.sext(x, 16));
    }

    #[test]
    fn ashr_oversized_is_sign_fill() {
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(8));
        let k = ctx.bv_lit_u64(8, 12);
        let f = ctx.bv_ashr(x, k);
        let sign = ctx.extract(x, 7, 7);
        assert_eq!(simplify(&ctx, f), ctx.sext(sign, 8));
    }
}
