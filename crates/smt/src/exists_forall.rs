//! CEGQI (counterexample-guided quantifier instantiation) for ∃∀ queries.
//!
//! The Alive2 refinement check (paper §5.2–§5.3) is, after negation, a
//! formula of the shape `∃ X. ∀ Y. φ(X, Y)` where `Y` is the source
//! function's non-determinism (`undef` choices, `freeze` picks, call
//! outputs). Over finite bit-vector domains CEGQI is a decision procedure:
//!
//! 1. Guess `X` satisfying φ for every universal instantiation seen so far.
//! 2. Verify the guess: search `Y` with `¬φ(x*, Y)`.
//! 3. If none exists, `x*` is a witness; otherwise add the found `y*` as a
//!    new instantiation and repeat.
//!
//! The candidate step runs on one [`IncrementalSolver`] kept alive across
//! the loop: each instantiation is an activation-guarded clause group, so
//! iteration `k+1` starts from iteration `k`'s learned clauses.

use crate::cache::{self, CnfSizes, TermKey, TermOutcome, TermScope};
use crate::model::Model;
use crate::sat::Budget;
use crate::solver::{Activation, IncrementalSolver, SmtResult, Solver};
use crate::term::{Ctx, TermId};
use std::collections::HashMap;
use std::time::Instant;

/// Outcome of an ∃∀ solve.
#[derive(Clone, Debug)]
pub enum EfResult {
    /// A witness for the existential variables was found; the model fixes
    /// the existentials (universals are absent).
    Sat(Model),
    /// No witness exists: `∀X. ∃Y. ¬φ`.
    Unsat,
    /// Resource budget exhausted before a definitive answer.
    Timeout,
    /// Memory budget exhausted.
    OutOfMemory,
}

impl EfResult {
    /// True for the `Sat` outcome.
    pub fn is_sat(&self) -> bool {
        matches!(self, EfResult::Sat(_))
    }

    /// True for the `Unsat` outcome.
    pub fn is_unsat(&self) -> bool {
        matches!(self, EfResult::Unsat)
    }
}

/// Configuration for the CEGQI loop.
#[derive(Clone, Copy, Debug)]
pub struct EfConfig {
    /// Budget for each underlying SAT call.
    pub budget: Budget,
    /// Maximum number of refinement iterations.
    pub max_iterations: u32,
    /// Overall wall-clock limit in milliseconds for the whole loop.
    pub max_millis: u64,
    /// Run the term-rewriting pass before bit-blasting (default) on φ and
    /// on the one-shot queries: the verify step and the no-universal
    /// check. The candidate checks are never rewritten (see
    /// [`IncrementalSolver`]). Obligations that rewrite to a literal are
    /// discharged with zero CNF; `false` sends φ to the solvers as built
    /// (`tests/rewrite.rs` compares the two). Verdicts are identical either
    /// way (the pass is pure simplification), though models may differ in
    /// don't-care bits.
    pub rewrite: bool,
}

impl Default for EfConfig {
    fn default() -> Self {
        EfConfig {
            budget: Budget::unlimited(),
            max_iterations: 64,
            max_millis: u64::MAX,
            rewrite: true,
        }
    }
}

/// Solves `∃ (free vars ∖ universals). ∀ universals. φ`.
///
/// `universals` must be variable terms; every other free variable of `phi`
/// is treated as existential. The returned model (on `Sat`) assigns the
/// existential variables that mattered.
pub fn solve_exists_forall(
    ctx: &Ctx,
    universals: &[TermId],
    phi: TermId,
    config: EfConfig,
) -> EfResult {
    solve_exists_forall_with_seeds(ctx, universals, phi, config, &[], &[])
}

/// Like [`solve_exists_forall`], with caller-provided *seed instantiations*
/// of the universal variables. Seeds may map universals to arbitrary terms
/// over the existential variables (symbolic instantiations); they are
/// conjoined to the candidate constraint up front. Sound and complete
/// regardless of seed quality — good seeds (e.g. matching a source
/// function's undef choices to the target's) make the loop converge in one
/// iteration instead of chasing fresh values.
///
/// `prefer_false` names boolean existentials a witness should leave false
/// when it can (the validator passes each argument's `isundef` and
/// `ispoison` flags, so a counterexample prefers defined inputs). A
/// witness that sets some of them gets one more candidate check with
/// those flags false, and the answer keeps whichever witness passes the
/// verify step, the new one first. Both are witnesses, so the verdict is
/// the same either way; only the model can change.
///
/// Inside an engine job the whole obligation is a term-tier cache entry
/// ([`TermKey::of_obligation`]): φ, the seeds and the settings that shape
/// the witness are keyed before anything else runs, so a hit skips the
/// rewriter, every candidate and verify check, and bit-blasting. A stored
/// witness is re-validated by the verify step before reuse.
pub fn solve_exists_forall_with_seeds(
    ctx: &Ctx,
    universals: &[TermId],
    phi: TermId,
    config: EfConfig,
    seeds: &[HashMap<TermId, TermId>],
    prefer_false: &[TermId],
) -> EfResult {
    for u in universals {
        assert!(
            ctx.as_var(*u).is_some(),
            "universal quantifier binds non-variable term"
        );
    }
    let Some(scope) = cache::term_scope() else {
        return solve_live(ctx, universals, phi, config, seeds, prefer_false);
    };
    let key = TermKey::of_obligation(ctx, universals, phi, seeds, config.rewrite, prefer_false);
    if let Some(r) = replay(ctx, scope, &key, universals, phi, config) {
        return r;
    }
    let result = solve_live(ctx, universals, phi, config, seeds, prefer_false);
    let outcome = match &result {
        EfResult::Unsat => Some(TermOutcome::Unsat),
        EfResult::Sat(m) => key.encode_model(ctx, m).map(TermOutcome::Sat),
        EfResult::Timeout | EfResult::OutOfMemory => None,
    };
    if let Some(outcome) = outcome {
        cache::global().store_term(scope, &key, outcome, CnfSizes::default());
    }
    result
}

/// Answers an obligation from the term tier. `Unsat` is taken as stored;
/// a stored witness `x*` must pass the verify step (`¬φ(x*, Y)` unsat)
/// first, and one that fails counts as `cache_reval` and leaves the
/// obligation to the live loop. A hit is recorded as one query profile
/// that adds no CNF-size sample.
fn replay(
    ctx: &Ctx,
    scope: TermScope,
    key: &TermKey,
    universals: &[TermId],
    phi: TermId,
    config: EfConfig,
) -> Option<EfResult> {
    let started = Instant::now();
    let (outcome, _) = cache::global().lookup_term(scope, key)?;
    let result = match outcome {
        TermOutcome::Unsat => EfResult::Unsat,
        TermOutcome::Sat(bits) => {
            let exist_vars = existentials(ctx, universals, phi);
            match key.decode_model(ctx, &bits).filter(|x| {
                refute(ctx, phi, &exist_vars, x, config.rewrite, config.budget).is_unsat()
            }) {
                Some(x) => EfResult::Sat(x),
                None => {
                    alive2_obs::stats::record_cache_reval();
                    return None;
                }
            }
        }
    };
    alive2_obs::stats::record_cache_hit();
    alive2_obs::profile::record_query(alive2_obs::QueryProfile {
        wall_us: started.elapsed().as_micros() as u64,
        cache: alive2_obs::profile::CacheOutcome::Hit,
        obligation: true,
        result: if result.is_sat() { "sat" } else { "unsat" },
        ..alive2_obs::QueryProfile::default()
    });
    Some(result)
}

/// The existential variables of an obligation: φ's free variables that
/// are not universal.
fn existentials(ctx: &Ctx, universals: &[TermId], phi: TermId) -> Vec<TermId> {
    ctx.free_vars(phi)
        .into_iter()
        .filter(|v| !universals.contains(v))
        .collect()
}

/// CEGQI's verify step: fixes the existentials to candidate `x` and
/// searches for universals refuting it (`¬φ(x, Y)`). `Unsat` means `x`
/// is a witness. Always a one-shot solve: verification queries recur
/// across reruns of the same job, so they stay cache-eligible.
fn refute(
    ctx: &Ctx,
    phi: TermId,
    exist_vars: &[TermId],
    x: &Model,
    rewrite: bool,
    budget: Budget,
) -> SmtResult {
    let x_subst: HashMap<TermId, TermId> = exist_vars
        .iter()
        .map(|&v| (v, x.value_term(ctx, v)))
        .collect();
    let phi_x = ctx.substitute(phi, &x_subst);
    let mut verify = Solver::new(ctx);
    verify.set_rewrite(rewrite);
    verify.assert(ctx.not(phi_x));
    verify.check(budget)
}

/// The CEGQI loop itself, with no term-tier traffic.
fn solve_live(
    ctx: &Ctx,
    universals: &[TermId],
    phi: TermId,
    config: EfConfig,
    seeds: &[HashMap<TermId, TermId>],
    prefer_false: &[TermId],
) -> EfResult {
    let start = Instant::now();
    // Two clocks: the relative per-query cap (`max_millis`, restarted per
    // ∃∀ solve) and the job-wide absolute deadline riding on the budget.
    let deadline_exceeded = |start: &Instant| {
        start.elapsed().as_millis() as u64 >= config.max_millis || config.budget.deadline_passed()
    };
    // `None` once the loop's wall-clock cap is spent: the caller should
    // report Timeout immediately rather than launch a solve with a phantom
    // sliver of budget.
    let budget_left = |start: &Instant| -> Option<Budget> {
        let mut b = config.budget;
        if config.max_millis != u64::MAX {
            let used = start.elapsed().as_millis() as u64;
            let left = config.max_millis.saturating_sub(used);
            if left == 0 {
                return None;
            }
            b.max_millis = b.max_millis.min(left);
        }
        Some(b)
    };

    // Rewrite φ once up front: a literal here settles the whole ∃∀ query
    // (∀Y.true is true, and a false body admits no witness) with no CNF,
    // no CEGQI loop, and no cache traffic. When residue remains, the loop
    // keeps the ORIGINAL φ: CEGQI's convergence rides on the shape of the
    // formula it substitutes into (zero-biased candidate models, slice-free
    // counterexamples), and a structurally normalized φ makes the loop
    // crawl through refinements one value at a time. `Solver` still
    // rewrites each one-shot verify query the loop issues; the candidate
    // checks are fully instantiated, so the smart constructors fold them.
    let phi = if config.rewrite && ctx.as_bool_lit(phi).is_none() {
        let r = crate::rewrite::simplify(ctx, phi);
        if ctx.as_bool_lit(r).is_some() {
            alive2_obs::stats::record_rewrite_discharged();
            r
        } else {
            phi
        }
    } else {
        phi
    };
    if let Some(b) = ctx.as_bool_lit(phi) {
        return if b {
            EfResult::Sat(Model::new())
        } else {
            EfResult::Unsat
        };
    }

    // No universals: plain SAT.
    if universals.is_empty() {
        if ctx.over_budget() {
            return EfResult::OutOfMemory;
        }
        let Some(b) = budget_left(&start) else {
            return EfResult::Timeout;
        };
        let mut s = Solver::new(ctx);
        s.set_rewrite(config.rewrite);
        s.assert(phi);
        return match s.check(b) {
            SmtResult::Sat(m) => EfResult::Sat(m),
            SmtResult::Unsat => EfResult::Unsat,
            SmtResult::Timeout => EfResult::Timeout,
            SmtResult::OutOfMemory => EfResult::OutOfMemory,
        };
    }

    // Instantiation set; seed with the all-zero assignment plus any
    // caller-provided seeds (completed with zeros for unmapped universals).
    let mut instantiations: Vec<HashMap<TermId, TermId>> = Vec::new();
    {
        let mut zero = HashMap::new();
        for &u in universals {
            let m = Model::new();
            zero.insert(u, m.value_term(ctx, u));
        }
        for seed in seeds {
            let mut inst = zero.clone();
            for (&u, &t) in seed {
                if inst.contains_key(&u) {
                    inst.insert(u, t);
                }
            }
            instantiations.push(inst);
        }
        instantiations.push(zero);
    }

    // The existential variables are a property of φ alone — computed once,
    // not per iteration.
    let exist_vars = existentials(ctx, universals, phi);

    // The candidate solver: one solver alive across the whole loop. Each
    // instantiation of φ is pushed exactly once as an activation-guarded
    // group, and every check activates all groups pushed so far — the
    // solver keeps its learned clauses and activities warm from one
    // candidate step to the next. (The groups are individually
    // retractable by dropping their activation from a check; only the
    // witness preference adds one that the loop's checks leave out.)
    let mut cand = IncrementalSolver::new(ctx);
    let mut groups: Vec<Activation> = Vec::new();
    let mut pushed = 0usize;

    // Tag every query issued inside the loop with its iteration index
    // (profile attribution); the guard clears the tag on any exit path.
    struct IterTag;
    impl Drop for IterTag {
        fn drop(&mut self) {
            alive2_obs::profile::set_cegqi_iter(None);
        }
    }
    let _iter_tag = IterTag;

    for iter in 0..config.max_iterations {
        // Span-close point for the per-job deadline: each iteration opens
        // under a fresh deadline check, so a deadline hit surfaces as a
        // Timeout at an iteration boundary rather than mid-solve.
        let _sp = alive2_obs::span(alive2_obs::Phase::Cegqi);
        alive2_obs::stats::record_cegqi_iter();
        alive2_obs::profile::set_cegqi_iter(Some(u64::from(iter)));
        if deadline_exceeded(&start) {
            return EfResult::Timeout;
        }
        // Every iteration substitutes fresh instantiations into φ, growing
        // the term DAG; a tripped context budget ends the loop as OOM
        // before the box starts swapping.
        if ctx.over_budget() {
            return EfResult::OutOfMemory;
        }
        let Some(b) = budget_left(&start) else {
            return EfResult::Timeout;
        };
        // Candidate step: find X satisfying φ under every instantiation.
        while pushed < instantiations.len() {
            let g = cand.new_group();
            cand.assert_in(g, ctx.substitute(phi, &instantiations[pushed]));
            groups.push(g);
            pushed += 1;
        }
        let x_model = match cand.check(&groups, b) {
            SmtResult::Sat(m) => m,
            SmtResult::Unsat => return EfResult::Unsat,
            SmtResult::Timeout => return EfResult::Timeout,
            SmtResult::OutOfMemory => return EfResult::OutOfMemory,
        };
        // Verification step: fix X := x*, search for a counter-instantiation.
        let Some(b) = budget_left(&start) else {
            return EfResult::Timeout;
        };
        match refute(ctx, phi, &exist_vars, &x_model, config.rewrite, b) {
            SmtResult::Unsat => {
                let is_witness = |m: &Model| {
                    budget_left(&start).is_some_and(|b| {
                        refute(ctx, phi, &exist_vars, m, config.rewrite, b).is_unsat()
                    })
                };
                let b = budget_left(&start);
                let x = prefer_defined(
                    ctx,
                    &mut cand,
                    &groups,
                    x_model,
                    prefer_false,
                    b,
                    is_witness,
                );
                return EfResult::Sat(x);
            }
            SmtResult::Sat(y_model) => {
                let mut inst = HashMap::new();
                for &u in universals {
                    inst.insert(u, y_model.value_term(ctx, u));
                }
                instantiations.push(inst);
            }
            SmtResult::Timeout => return EfResult::Timeout,
            SmtResult::OutOfMemory => return EfResult::OutOfMemory,
        }
    }
    // Distinguish "ran out of iterations" from a wall-clock timeout: both
    // surface as Timeout, but only this path bumps the exhaustion counter.
    alive2_obs::stats::record_cegqi_iter_exhausted();
    EfResult::Timeout
}

/// The witness preference of [`solve_exists_forall_with_seeds`]: returns
/// witness `x`, or one that leaves every `prefer_false` flag false. The
/// alternative is asked for only when `x` sets a flag: one more check of
/// the candidate solver under `groups` plus a new group asserting every
/// flag `x` assigns false. It replaces `x` only if `is_witness` (the
/// verify step) accepts it too.
fn prefer_defined(
    ctx: &Ctx,
    cand: &mut IncrementalSolver,
    groups: &[Activation],
    x: Model,
    prefer_false: &[TermId],
    budget: Option<Budget>,
    is_witness: impl Fn(&Model) -> bool,
) -> Model {
    // Only flags the candidate solver knows: a new variable would leave
    // the term tier's key and make the witness uncacheable.
    let assigned: Vec<(TermId, bool)> = prefer_false
        .iter()
        .filter_map(|&f| Some((f, x.try_eval(ctx, f)?.as_bool())))
        .collect();
    let Some(b) = budget.filter(|_| assigned.iter().any(|&(_, set)| set)) else {
        return x;
    };
    let g = cand.new_group();
    for &(f, _) in &assigned {
        cand.assert_in(g, ctx.not(f));
    }
    let active: Vec<Activation> = groups.iter().copied().chain([g]).collect();
    match cand.check(&active, b) {
        SmtResult::Sat(y) if is_witness(&y) => y,
        _ => x,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Sort;

    #[test]
    fn exists_x_forall_y_sat() {
        // ∃x. ∀y. x & y == y  holds with x = all-ones.
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(4));
        let y = ctx.var("y", Sort::BitVec(4));
        let phi = ctx.eq(ctx.bv_and(x, y), y);
        match solve_exists_forall(&ctx, &[y], phi, EfConfig::default()) {
            EfResult::Sat(m) => {
                assert!(m.eval_bv(&ctx, x).is_all_ones());
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn exists_x_forall_y_unsat() {
        // ∃x. ∀y. x == y  fails for width > 0... actually for width >= 1
        // there are at least two y values.
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(4));
        let y = ctx.var("y", Sort::BitVec(4));
        let phi = ctx.eq(x, y);
        assert!(solve_exists_forall(&ctx, &[y], phi, EfConfig::default()).is_unsat());
    }

    #[test]
    fn no_universals_degenerates_to_sat() {
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(4));
        let phi = ctx.eq(x, ctx.bv_lit_u64(4, 7));
        match solve_exists_forall(&ctx, &[], phi, EfConfig::default()) {
            EfResult::Sat(m) => assert_eq!(m.eval_bv(&ctx, x).to_u64(), 7),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn forall_with_arithmetic() {
        // ∃x. ∀y. (y + x) - x == y  is valid for any x; expect sat.
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(8));
        let y = ctx.var("y", Sort::BitVec(8));
        let phi = ctx.eq(ctx.bv_sub(ctx.bv_add(y, x), x), y);
        assert!(solve_exists_forall(&ctx, &[y], phi, EfConfig::default()).is_sat());
    }

    #[test]
    fn mixed_exists_multiple_universals() {
        // ∃x. ∀y,z. x ule (y | x) — true since y|x ≥ x bitwise.
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(4));
        let y = ctx.var("y", Sort::BitVec(4));
        let z = ctx.var("z", Sort::BitVec(4));
        let ored = ctx.bv_or(y, x);
        let phi = ctx.and(ctx.bv_ule(x, ored), ctx.eq(z, z));
        assert!(solve_exists_forall(&ctx, &[y, z], phi, EfConfig::default()).is_sat());
    }

    #[test]
    fn iteration_limit_reports_timeout() {
        // A query needing several refinements with max_iterations = 1:
        // ∃x. ∀y. x != y is unsat, but the first candidate is found and
        // refuted, so with 1 iteration we cannot conclude; expect Timeout
        // (conservative) rather than a wrong verdict.
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(8));
        let y = ctx.var("y", Sort::BitVec(8));
        let phi = ctx.ne(x, y);
        let config = EfConfig {
            max_iterations: 1,
            ..EfConfig::default()
        };
        match solve_exists_forall(&ctx, &[y], phi, config) {
            EfResult::Timeout | EfResult::Unsat => {}
            other => panic!("must not claim sat: {other:?}"),
        }
    }

    #[test]
    fn repeated_ef_queries_hit_the_query_cache() {
        // A later run of the same engine asks the same ∃∀ problem: it must
        // be answered from the cache with no live solve of any kind.
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(8));
        let y = ctx.var("y", Sort::BitVec(8));
        // ∃x. ∀y. y*x == y ∧ (y & 0xD1) ule y — holds with x = 1. The
        // multiplier forces real SAT search.
        let c = ctx.bv_lit_u64(8, 0xD1);
        let phi = ctx.and(ctx.eq(ctx.bv_mul(y, x), y), ctx.bv_ule(ctx.bv_and(y, c), y));
        let run = |run| {
            cache::set_term_scope(Some(TermScope {
                engine: 3001,
                run,
                visible_below: run,
                job: 0,
            }));
            let snap = alive2_obs::counters_snapshot();
            let r = solve_exists_forall(&ctx, &[y], phi, EfConfig::default());
            let mut d = alive2_obs::JobStats::default();
            d.absorb_since(&snap);
            cache::set_term_scope(None);
            (r, d)
        };
        let (r1, d1) = run(0);
        let (r2, d2) = run(1);
        assert!(r1.is_sat() && r2.is_sat());
        assert!(d1.sat_solves + d1.incremental_solves > 0, "{d1:?}");
        assert_eq!(
            d2.sat_solves + d2.incremental_solves,
            0,
            "the later run must not solve live: {d2:?}"
        );
        assert!(d2.cache_hits > 0, "{d2:?}");
        assert_eq!(d2.cache_misses, 0, "{d2:?}");
    }

    #[test]
    fn mixed_problems_get_their_known_answers() {
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(6));
        let y = ctx.var("y", Sort::BitVec(6));
        let z = ctx.var("z", Sort::BitVec(6));
        // A mixed bag of valid identities and impossible demands, each
        // with its known answer.
        let problems: Vec<(TermId, Vec<TermId>, bool)> = vec![
            (ctx.eq(ctx.bv_and(x, y), y), vec![y], true), // x = ~0
            (ctx.eq(x, y), vec![y], false),
            (ctx.eq(ctx.bv_sub(ctx.bv_add(y, x), x), y), vec![y], true), // any x
            (ctx.bv_ult(y, x), vec![y], false),                          // y = ~0 refutes every x
            (
                ctx.bv_ule(ctx.bv_and(y, z), ctx.bv_or(y, x)),
                vec![y, z],
                true,
            ),
        ];
        for (i, (phi, unis, sat)) in problems.iter().enumerate() {
            let r = solve_exists_forall(&ctx, unis, *phi, EfConfig::default());
            if *sat {
                let EfResult::Sat(m) = &r else {
                    panic!("problem {i}: expected a witness, got {r:?}");
                };
                // The witness really holds for every universal value.
                let x_subst = HashMap::from([(x, m.value_term(&ctx, x))]);
                let inst = ctx.substitute(*phi, &x_subst);
                assert_eq!(
                    crate::solver::is_valid(&ctx, inst, Budget::unlimited()),
                    Some(true),
                    "problem {i}"
                );
            } else {
                assert!(r.is_unsat(), "problem {i}: expected unsat, got {r:?}");
            }
        }
    }

    #[test]
    fn candidate_steps_reuse_the_live_solver() {
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(8));
        let y = ctx.var("y", Sort::BitVec(8));
        // ∃x. ∀y. (y & x) ule (y ^ 0x35) — a witness exists (x = 0), and
        // a candidate that misses it is refuted and refined.
        let phi = ctx.bv_ule(ctx.bv_and(y, x), ctx.bv_xor(y, ctx.bv_lit_u64(8, 0x35)));
        let snap = alive2_obs::counters_snapshot();
        let r = solve_exists_forall(&ctx, &[y], phi, EfConfig::default());
        let mut d = alive2_obs::JobStats::default();
        d.absorb_since(&snap);
        assert!(r.is_sat(), "{r:?}");
        assert!(
            d.incremental_solves > 0,
            "candidate steps must check on a live solver: {d:?}"
        );
        // Past iteration 1 every check inherits the previous clause db.
        if d.incremental_solves > 1 {
            assert!(d.clauses_reused > 0, "{d:?}");
        }
    }

    #[test]
    fn witness_leaves_preferred_flags_false_when_it_can() {
        // ∃d,e ∀y. (d ∨ e) ∧ (y & x) ule y: either flag alone makes a
        // witness, so whichever one is preferred false stays false.
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(8));
        let y = ctx.var("y", Sort::BitVec(8));
        let d = ctx.var("d", Sort::Bool);
        let e = ctx.var("e", Sort::Bool);
        let phi = ctx.and(ctx.or(d, e), ctx.bv_ule(ctx.bv_and(y, x), y));
        for (keep, other) in [(d, e), (e, d)] {
            let r =
                solve_exists_forall_with_seeds(&ctx, &[y], phi, EfConfig::default(), &[], &[keep]);
            let EfResult::Sat(m) = r else {
                panic!("expected a witness, got {r:?}");
            };
            assert!(!m.eval(&ctx, keep).as_bool(), "{m:?}");
            assert!(m.eval(&ctx, other).as_bool(), "{m:?}");
        }
        // When every witness sets the flag, the first one stands.
        let phi = ctx.and(d, ctx.bv_ule(ctx.bv_and(y, x), y));
        let r = solve_exists_forall_with_seeds(&ctx, &[y], phi, EfConfig::default(), &[], &[d]);
        let EfResult::Sat(m) = r else {
            panic!("expected a witness, got {r:?}");
        };
        assert!(m.eval(&ctx, d).as_bool());
    }

    #[test]
    fn iteration_cap_exhaustion_is_counted() {
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(8));
        let y = ctx.var("y", Sort::BitVec(8));
        let phi = ctx.ne(x, y); // unsat, but needs > 1 iteration to see
        let config = EfConfig {
            max_iterations: 1,
            ..EfConfig::default()
        };
        let snap = alive2_obs::counters_snapshot();
        let r = solve_exists_forall(&ctx, &[y], phi, config);
        let mut d = alive2_obs::JobStats::default();
        d.absorb_since(&snap);
        match r {
            // If the cap bites, the exhaustion counter must say so.
            EfResult::Timeout => assert_eq!(d.cegqi_iter_exhausted, 1, "{d:?}"),
            EfResult::Unsat => assert_eq!(d.cegqi_iter_exhausted, 0, "{d:?}"),
            other => panic!("must not claim sat: {other:?}"),
        }
    }
}
