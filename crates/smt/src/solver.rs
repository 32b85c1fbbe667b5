//! The user-facing SMT solver: assert terms, check satisfiability under a
//! resource budget, and extract models.
//!
//! Two entry points share the pipeline from terms to an answer
//! (Ackermannize, then bit-blast straight into the CDCL solver the
//! blaster owns), one search step (CNF sizes, the solve, its counts and
//! the projection of a SAT assignment back onto the term-level
//! variables) and one profile tail:
//!
//! * [`Solver`] — the one-shot path. Each check rewrites and
//!   Ackermannizes the formula and, inside an engine job, looks the term
//!   DAG up in the query cache before any CNF exists. A miss blasts the
//!   DAG into a fresh blaster and searches its solver.
//! * [`IncrementalSolver`] — a persistent push-assertion /
//!   check-under-assumptions solver that keeps one blaster, and with it
//!   one CDCL solver, alive across checks. Its results depend on solver
//!   history (warm state, activation literals), not on one formula, so
//!   its checks are never cached one by one. The CEGQI loop it serves is
//!   cached whole instead, as an obligation (see
//!   [`exists_forall`](crate::exists_forall)).
//!
//! The two stay two types because a one-shot check does three things an
//! incremental one does not: it is keyed in the query cache by its
//! formula, it rewrites its conjunction, and it counts as a
//! `sat_solves`. A merged type would branch on which caller it serves;
//! sharing the tail is simpler.

use crate::ackermann::{ackermannize, Ackermannizer};
use crate::bitblast::BitBlaster;
use crate::cache::{self, CnfSizes, TermKey, TermOutcome, TermScope};
use crate::model::{Model, Value};
use crate::sat::{Budget, Lit, SatOutcome};
use crate::term::{Ctx, Sort, TermId};

/// The outcome of an SMT check.
#[derive(Clone, Debug)]
pub enum SmtResult {
    /// Satisfiable, with a model over the assertions' free variables.
    Sat(Model),
    /// Unsatisfiable.
    Unsat,
    /// The time/conflict budget was exhausted.
    Timeout,
    /// The memory budget was exhausted.
    OutOfMemory,
}

impl SmtResult {
    /// True if the result is `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, SmtResult::Sat(_))
    }

    /// True if the result is `Unsat`.
    pub fn is_unsat(&self) -> bool {
        matches!(self, SmtResult::Unsat)
    }

    /// True if the check ran out of resources.
    pub fn is_resource_exhausted(&self) -> bool {
        matches!(self, SmtResult::Timeout | SmtResult::OutOfMemory)
    }

    /// The model, if satisfiable.
    pub fn model(&self) -> Option<&Model> {
        match self {
            SmtResult::Sat(m) => Some(m),
            _ => None,
        }
    }
}

/// Runs one check inside the tail every check shares: the query span,
/// the outcome counter, the wall time and the profile record. `body`
/// fills the rest of the record.
fn profiled(
    incremental: bool,
    body: impl FnOnce(&mut alive2_obs::QueryProfile) -> SmtResult,
) -> SmtResult {
    let _sp = alive2_obs::span(alive2_obs::Phase::Query);
    let started = std::time::Instant::now();
    let mut prof = alive2_obs::QueryProfile {
        incremental,
        ..alive2_obs::QueryProfile::default()
    };
    let result = body(&mut prof);
    let (tag, count): (&'static str, fn()) = match &result {
        SmtResult::Sat(_) => ("sat", alive2_obs::stats::record_smt_sat),
        SmtResult::Unsat => ("unsat", alive2_obs::stats::record_smt_unsat),
        SmtResult::Timeout => ("timeout", alive2_obs::stats::record_smt_unknown),
        SmtResult::OutOfMemory => ("oom", alive2_obs::stats::record_smt_unknown),
    };
    count();
    prof.result = tag;
    prof.wall_us = started.elapsed().as_micros() as u64;
    alive2_obs::profile::record_query(prof);
    result
}

/// Searches what `bb` has emitted under `assumptions`, the search step
/// both solvers share: it records the CNF sizes and the search counts in
/// `prof`, counts a failed-assumption core, and projects a model onto
/// the free variables of `roots`. "Pre" is the CNF as blasted, "post"
/// the live clause population at dispatch.
fn search(
    ctx: &Ctx,
    bb: &mut BitBlaster,
    roots: &[TermId],
    assumptions: &[Lit],
    budget: Budget,
    prof: &mut alive2_obs::QueryProfile,
) -> SmtResult {
    prof.vars_pre = bb.sat.num_vars() as u64;
    prof.clauses_pre = bb.num_clauses() as u64;
    prof.vars_post = prof.vars_pre;
    prof.clauses_post = bb.sat.num_clauses() as u64;
    prof.solved = true;
    let outcome = bb.sat.solve_assuming(assumptions, budget);
    let st = bb.sat.stats();
    prof.conflicts = st.conflicts;
    prof.decisions = st.decisions;
    prof.propagations = st.propagations;
    prof.restarts = st.restarts;
    prof.learnts_kept = bb.sat.num_learnts() as u64;
    match outcome {
        SatOutcome::TimedOut => SmtResult::Timeout,
        SatOutcome::OutOfMemory => SmtResult::OutOfMemory,
        SatOutcome::Unsat => {
            if !bb.sat.failed_assumptions().is_empty() {
                alive2_obs::stats::record_assumption_core();
            }
            SmtResult::Unsat
        }
        SatOutcome::Sat => SmtResult::Sat(project_model(ctx, bb, roots)),
    }
}

/// A one-shot SMT solver over a [`Ctx`].
///
/// # Examples
///
/// ```
/// use alive2_smt::solver::Solver;
/// use alive2_smt::term::{Ctx, Sort};
/// use alive2_smt::sat::Budget;
///
/// let ctx = Ctx::new();
/// let x = ctx.var("x", Sort::BitVec(8));
/// let five = ctx.bv_lit_u64(8, 5);
/// let mut s = Solver::new(&ctx);
/// s.assert(ctx.bv_ult(x, five));
/// let r = s.check(Budget::unlimited());
/// assert!(r.is_sat());
/// let m = r.model().unwrap();
/// assert!(m.eval_bv(&ctx, x).to_u64() < 5);
/// ```
#[derive(Debug)]
pub struct Solver<'a> {
    ctx: &'a Ctx,
    assertions: Vec<TermId>,
    rewrite: bool,
}

impl<'a> Solver<'a> {
    /// Creates a solver over the given context.
    pub fn new(ctx: &'a Ctx) -> Self {
        Solver {
            ctx,
            assertions: Vec::new(),
            rewrite: true,
        }
    }

    /// Enables/disables the term-rewriting pass that runs ahead of
    /// bit-blasting (default on; `tests/rewrite.rs` turns it off to check
    /// that it changes no answer). The pass runs before the cache key is
    /// taken, so keys see the simplified formula.
    pub fn set_rewrite(&mut self, on: bool) {
        self.rewrite = on;
    }

    /// Adds an assertion (must be boolean-sorted).
    ///
    /// # Panics
    ///
    /// Panics if `t` is not boolean-sorted.
    pub fn assert(&mut self, t: TermId) {
        assert!(self.ctx.sort(t).is_bool(), "assertions must be boolean");
        self.assertions.push(t);
    }

    /// The asserted terms.
    pub fn assertions(&self) -> &[TermId] {
        &self.assertions
    }

    /// Checks satisfiability of the conjunction of assertions.
    ///
    /// The returned model is *partial* in the sense of §3.8 of the paper:
    /// it only assigns variables whose CNF encoding was actually created
    /// (i.e. variables that appear in the formula after simplification).
    pub fn check(&self, budget: Budget) -> SmtResult {
        profiled(false, |prof| self.check_inner(budget, prof))
    }

    fn check_inner(&self, budget: Budget, prof: &mut alive2_obs::QueryProfile) -> SmtResult {
        // Fast path: syntactically trivial. The empty model means "every
        // variable is a don't-care" — provenance the counterexample
        // printer surfaces via `Model::try_eval` (it renders them as
        // `any` rather than the fabricated zeros of `eval`).
        let mut conj = self.ctx.and_many(&self.assertions);
        if let Some(b) = self.ctx.as_bool_lit(conj) {
            return if b {
                SmtResult::Sat(Model::new())
            } else {
                SmtResult::Unsat
            };
        }
        // Term-level rewriting: try to discharge the whole obligation by
        // algebra before any CNF exists. The residue (if any) is what gets
        // blasted, so downstream cache keys see the simplified formula.
        if self.rewrite {
            let steps_before = alive2_obs::stats::rewrite_steps_now();
            let r = crate::rewrite::simplify(self.ctx, conj);
            prof.rewrite_steps = alive2_obs::stats::rewrite_steps_now() - steps_before;
            if let Some(b) = self.ctx.as_bool_lit(r) {
                alive2_obs::stats::record_rewrite_discharged();
                prof.discharged = true;
                return if b {
                    SmtResult::Sat(Model::new())
                } else {
                    SmtResult::Unsat
                };
            }
            alive2_obs::stats::record_rewrite_residue();
            conj = r;
        }
        let ack = ackermannize(self.ctx, &[conj]);
        // Roots include the Ackermann result variables (mapped back to
        // applications by callers that care).
        let roots: Vec<TermId> = ack
            .assertions
            .iter()
            .chain(&ack.constraints)
            .copied()
            .collect();

        // Inside an engine job the rewritten, Ackermannized DAG is keyed
        // before any CNF exists, so a hit skips blasting and the solve.
        let tier = cache::term_scope().map(|scope| (scope, TermKey::of_query(self.ctx, &roots)));
        if let Some((scope, key)) = &tier {
            if let Some(r) = self.replay(*scope, key, &roots, prof) {
                return r;
            }
            alive2_obs::stats::record_cache_miss();
            if prof.cache == alive2_obs::profile::CacheOutcome::None {
                prof.cache = alive2_obs::profile::CacheOutcome::Miss;
            }
        }
        let result = self.solve_roots(&roots, budget, prof);
        if let Some((scope, key)) = &tier {
            let outcome = match &result {
                SmtResult::Unsat => Some(TermOutcome::Unsat),
                SmtResult::Sat(m) => key.encode_model(self.ctx, m).map(TermOutcome::Sat),
                SmtResult::Timeout | SmtResult::OutOfMemory => None,
            };
            if let Some(outcome) = outcome {
                let sizes = CnfSizes {
                    vars_pre: prof.vars_pre,
                    clauses_pre: prof.clauses_pre,
                    vars_post: prof.vars_post,
                    clauses_post: prof.clauses_post,
                };
                cache::global().store_term(*scope, key, outcome, sizes);
            }
        }
        result
    }

    /// Answers a query from the cache: `Unsat` as stored, `Sat` once
    /// the stored model, mapped back onto this context, satisfies every
    /// root. A model that fails counts as `cache_reval` and leaves the
    /// query to the live path. A hit replays the CNF sizes of the solve
    /// that wrote the entry into `prof`.
    fn replay(
        &self,
        scope: TermScope,
        key: &TermKey,
        roots: &[TermId],
        prof: &mut alive2_obs::QueryProfile,
    ) -> Option<SmtResult> {
        let (outcome, sizes) = cache::global().lookup_term(scope, key)?;
        let result = match outcome {
            TermOutcome::Unsat => SmtResult::Unsat,
            TermOutcome::Sat(bits) => match key.decode_model(self.ctx, &bits) {
                Some(m) if roots.iter().all(|&t| m.eval(self.ctx, t).as_bool()) => {
                    SmtResult::Sat(m)
                }
                _ => {
                    alive2_obs::stats::record_cache_reval();
                    prof.cache = alive2_obs::profile::CacheOutcome::Reval;
                    return None;
                }
            },
        };
        alive2_obs::stats::record_cache_hit();
        prof.cache = alive2_obs::profile::CacheOutcome::Hit;
        prof.vars_pre = sizes.vars_pre;
        prof.clauses_pre = sizes.clauses_pre;
        prof.vars_post = sizes.vars_post;
        prof.clauses_post = sizes.clauses_post;
        Some(result)
    }

    /// Blasts `roots` into a fresh blaster and searches it with no
    /// assumptions. The solver runs even when `add_clause`'s level-0
    /// propagation already settles the formula, so every blasted query
    /// is one live solve.
    fn solve_roots(
        &self,
        roots: &[TermId],
        budget: Budget,
        prof: &mut alive2_obs::QueryProfile,
    ) -> SmtResult {
        let mut bb = BitBlaster::new(self.ctx);
        for &t in roots {
            bb.assert_term(t);
        }
        alive2_obs::stats::record_sat_solve();
        search(self.ctx, &mut bb, roots, &[], budget, prof)
    }
}

/// Projects the satisfying assignment of `bb`'s solver back through the
/// blaster onto the free variables of `roots`. A solver that answered
/// `Sat` has assigned every variable it holds, so the only don't-cares
/// are the variables the blaster never materialized: they stay out of
/// the model, and the counterexample printer renders them as `any`, not
/// as a fabricated zero.
fn project_model(ctx: &Ctx, bb: &BitBlaster, roots: &[TermId]) -> Model {
    let lit_val = |l: Lit| -> Option<bool> {
        bb.sat
            .value(l.var())
            .map(|b| if l.is_positive() { b } else { !b })
    };
    let mut model = Model::new();
    for vt in ctx.free_vars_many(roots) {
        let v = ctx.as_var(vt).expect("free var is a Var term");
        let value = match ctx.sort(vt) {
            Sort::Bool => bb.bool_var_lit(v).and_then(lit_val).map(Value::Bool),
            Sort::BitVec(_) => bb.bv_var_lits(v).and_then(|lits| {
                let bits: Option<Vec<bool>> = lits.iter().map(|&l| lit_val(l)).collect();
                bits.map(|b| Value::Bv(crate::bv::BitVec::from_bits(&b)))
            }),
        };
        if let Some(value) = value {
            model.set(v, value);
        }
    }
    model
}

/// An activation literal guarding a retractable clause group of an
/// [`IncrementalSolver`]. A group's clauses only bind while its
/// activation is passed to [`IncrementalSolver::check`]; leaving it out
/// retracts the whole group without touching the clause database.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Activation(Lit);

/// A persistent SMT solver: assertions are pushed once and stay loaded;
/// each [`check`](Self::check) reuses the live CDCL solver — clause
/// database, learned clauses, VSIDS activities — warm.
///
/// New assertions are bit-blasted *incrementally*: the blaster's
/// term→literal map is stable, so a pushed assertion only adds the
/// clauses for structure not already encoded, straight into the live
/// solver (`clauses_reused` counts the clauses emitted before the
/// previous check, which a check inherits instead of rebuilding).
///
/// Its one client is CEGQI's candidate step, and two choices are fixed
/// for it rather than left to a setting:
///
/// * **No rewriting.** Assertions are blasted as pushed. Candidate
///   queries are fully instantiated, so the smart constructors already
///   fold them, and restructuring the CNF defeats the zero-phase bias
///   below: the loop then crawls through near-miss candidates one value
///   at a time (observed on the undef-duplication known bugs).
/// * **Zero-biased models.** Every check starts from the all-false phase
///   default instead of the phases saved by the previous solve, while
///   learned clauses and activities stay warm. Saved phases would hand
///   back a near-copy of the previous (refuted) candidate, and CEGQI on
///   wide bit-vectors then crawls through refinements one value at a
///   time.
///
/// # Cache eligibility
///
/// Incremental checks never consult or populate the query cache. The
/// cache stores results that are a function of one formula; an
/// incremental verdict (and its model) is a function of the solver's
/// history — which groups are active, what was learned under earlier
/// assumptions. The CEGQI candidate loop is cached a level up:
/// `solve_exists_forall_with_seeds` keys the whole obligation, so a
/// rerun skips every incremental check of the loop.
///
/// # Examples
///
/// ```
/// use alive2_smt::solver::IncrementalSolver;
/// use alive2_smt::term::{Ctx, Sort};
/// use alive2_smt::sat::Budget;
///
/// let ctx = Ctx::new();
/// let x = ctx.var("x", Sort::BitVec(8));
/// let mut s = IncrementalSolver::new(&ctx);
/// s.assert(ctx.bv_ult(x, ctx.bv_lit_u64(8, 5)));
/// let g = s.new_group();
/// s.assert_in(g, ctx.bv_ult(ctx.bv_lit_u64(8, 2), x));
/// assert!(s.check(&[g], Budget::unlimited()).is_sat()); // 2 < x < 5
/// assert!(s.check(&[], Budget::unlimited()).is_sat()); // group retracted
/// ```
#[derive(Debug)]
pub struct IncrementalSolver<'a> {
    ctx: &'a Ctx,
    bb: BitBlaster<'a>,
    ack: Ackermannizer,
    /// Every assertion root (permanent and grouped) plus the Ackermann
    /// consistency constraints — the model projection domain.
    roots: Vec<TermId>,
    /// Clauses the blaster had emitted at the last check.
    checked_clauses: usize,
}

impl<'a> IncrementalSolver<'a> {
    /// Creates an empty persistent solver over the given context.
    pub fn new(ctx: &'a Ctx) -> Self {
        IncrementalSolver {
            ctx,
            bb: BitBlaster::new(ctx),
            ack: Ackermannizer::new(),
            roots: Vec::new(),
            checked_clauses: 0,
        }
    }

    /// Ackermannizes `t` incrementally and blasts it to a single literal,
    /// or to `None` when it folded to `true`. A folded `false` blasts to
    /// the false constant, whose clause the solver reduces to `¬g` (or
    /// to the empty clause for a permanent assertion). Consistency
    /// constraints pairing new applications against all previously
    /// pushed ones are asserted permanently (sound even for grouped
    /// assertions: the constraints are implications over shared
    /// application variables).
    fn blast_root(&mut self, t: TermId) -> Option<Lit> {
        let mut constraints = Vec::new();
        let r = self.ack.rewrite(self.ctx, t, &mut constraints);
        for c in constraints {
            self.roots.push(c);
            let l = self.bb.blast_bool(c);
            self.bb.add_clause(&[l]);
        }
        if self.ctx.as_bool_lit(r) == Some(true) {
            return None;
        }
        self.roots.push(r);
        Some(self.bb.blast_bool(r))
    }

    /// Pushes a permanent assertion (must be boolean-sorted). There is no
    /// pop: retraction is modeled with [`new_group`](Self::new_group) /
    /// [`assert_in`](Self::assert_in).
    pub fn assert(&mut self, t: TermId) {
        assert!(self.ctx.sort(t).is_bool(), "assertions must be boolean");
        if let Some(l) = self.blast_root(t) {
            self.bb.add_clause(&[l]);
        }
    }

    /// Allocates a fresh activation literal for a retractable clause group.
    pub fn new_group(&mut self) -> Activation {
        Activation(self.bb.fresh())
    }

    /// Pushes an assertion guarded by group `g`: it binds only in checks
    /// whose activation set includes `g` (encoded as `¬g ∨ t`).
    pub fn assert_in(&mut self, g: Activation, t: TermId) {
        assert!(self.ctx.sort(t).is_bool(), "assertions must be boolean");
        if let Some(l) = self.blast_root(t) {
            self.bb.add_clause(&[g.0.negate(), l]);
        }
    }

    /// Checks satisfiability of the permanent assertions plus the groups
    /// in `active`, reusing all warm solver state. Activation literals
    /// are passed to the SAT core as *assumptions* (decided at level 0's
    /// edge), so nothing about the activation set is ever learned into
    /// the clause database.
    ///
    /// On unsat caused by the activation set,
    /// [`failed_groups`](Self::failed_groups) names a failed core.
    pub fn check(&mut self, active: &[Activation], budget: Budget) -> SmtResult {
        profiled(true, |prof| {
            let reused = std::mem::replace(&mut self.checked_clauses, self.bb.num_clauses());
            alive2_obs::stats::record_incremental_solve();
            alive2_obs::stats::record_clauses_reused(reused as u64);
            alive2_obs::stats::record_learnts_kept(self.bb.sat.num_learnts() as u64);
            self.bb.sat.reset_phases();
            let assumptions: Vec<Lit> = active.iter().map(|a| a.0).collect();
            search(
                self.ctx,
                &mut self.bb,
                &self.roots,
                &assumptions,
                budget,
                prof,
            )
        })
    }

    /// The failed-assumption core of the most recent unsat check, mapped
    /// back to activation handles: a subset of that check's `active` set
    /// that is already jointly unsatisfiable with the permanent clauses.
    /// Empty when the permanent assertions are unsat on their own.
    pub fn failed_groups(&self) -> Vec<Activation> {
        self.bb
            .sat
            .failed_assumptions()
            .iter()
            .map(|&l| Activation(l))
            .collect()
    }
}

/// Convenience: checks whether `t` is valid (true in all models) under the
/// budget. Returns `Some(true)` if valid, `Some(false)` if a countermodel
/// exists, `None` on resource exhaustion.
pub fn is_valid(ctx: &Ctx, t: TermId, budget: Budget) -> Option<bool> {
    let mut s = Solver::new(ctx);
    s.assert(ctx.not(t));
    match s.check(budget) {
        SmtResult::Unsat => Some(true),
        SmtResult::Sat(_) => Some(false),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Sort;

    #[test]
    fn sat_with_model() {
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(8));
        let y = ctx.var("y", Sort::BitVec(8));
        let sum = ctx.bv_add(x, y);
        let mut s = Solver::new(&ctx);
        s.assert(ctx.eq(sum, ctx.bv_lit_u64(8, 10)));
        s.assert(ctx.bv_ult(x, ctx.bv_lit_u64(8, 3)));
        let r = s.check(Budget::unlimited());
        let m = r.model().expect("sat");
        let xv = m.eval_bv(&ctx, x).to_u64();
        let yv = m.eval_bv(&ctx, y).to_u64();
        assert!(xv < 3);
        assert_eq!((xv + yv) & 0xff, 10);
    }

    #[test]
    fn unsat_arithmetic() {
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(8));
        // x < x is unsat
        let mut s = Solver::new(&ctx);
        let xp1 = ctx.bv_add(x, ctx.bv_lit_u64(8, 1));
        // x + 1 == x is unsat
        s.assert(ctx.eq(xp1, x));
        assert!(s.check(Budget::unlimited()).is_unsat());
    }

    #[test]
    fn validity_of_commutativity() {
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(8));
        let y = ctx.var("y", Sort::BitVec(8));
        // These fold to the same term by canonical ordering, but check the
        // full pipeline with a non-trivial identity: (x + y) - y == x.
        let t = ctx.eq(ctx.bv_sub(ctx.bv_add(x, y), y), x);
        assert_eq!(is_valid(&ctx, t, Budget::unlimited()), Some(true));
        // x * 2 == x << 1
        let two = ctx.bv_lit_u64(8, 2);
        let one = ctx.bv_lit_u64(8, 1);
        let t2 = ctx.eq(ctx.bv_mul(x, two), ctx.bv_shl(x, one));
        assert_eq!(is_valid(&ctx, t2, Budget::unlimited()), Some(true));
        // x - 1 == x + 1 is invalid
        let t3 = ctx.eq(ctx.bv_sub(x, one), ctx.bv_add(x, one));
        assert_eq!(is_valid(&ctx, t3, Budget::unlimited()), Some(false));
    }

    #[test]
    fn uf_consistency() {
        let ctx = Ctx::new();
        let f = ctx.func("f", &[Sort::BitVec(8)], Sort::BitVec(8));
        let x = ctx.var("x", Sort::BitVec(8));
        let y = ctx.var("y", Sort::BitVec(8));
        let fx = ctx.apply(f, &[x]);
        let fy = ctx.apply(f, &[y]);
        let mut s = Solver::new(&ctx);
        s.assert(ctx.eq(x, y));
        s.assert(ctx.ne(fx, fy));
        assert!(s.check(Budget::unlimited()).is_unsat());
        // Without x == y, f(x) != f(y) is satisfiable.
        let mut s2 = Solver::new(&ctx);
        s2.assert(ctx.ne(fx, fy));
        assert!(s2.check(Budget::unlimited()).is_sat());
    }

    #[test]
    fn trivial_paths() {
        let ctx = Ctx::new();
        let s = Solver::new(&ctx);
        assert!(s.check(Budget::unlimited()).is_sat()); // empty = true
        let mut s2 = Solver::new(&ctx);
        s2.assert(ctx.fals());
        assert!(s2.check(Budget::unlimited()).is_unsat());
    }

    /// Runs one check and returns it with the counter deltas it caused
    /// (thread-local, so parallel tests don't interfere).
    fn probe(s: &Solver, budget: Budget) -> (SmtResult, alive2_obs::JobStats) {
        let snap = alive2_obs::counters_snapshot();
        let r = s.check(budget);
        let mut d = alive2_obs::JobStats::default();
        d.absorb_since(&snap);
        (r, d)
    }

    /// [`probe`] under a cache scope of `engine`: run 0 writes entries
    /// and run 1 reads what run 0 stored.
    fn probe_in(
        engine: u64,
        run: u32,
        s: &Solver,
        budget: Budget,
    ) -> (SmtResult, alive2_obs::JobStats) {
        cache::set_term_scope(Some(TermScope {
            engine,
            run,
            visible_below: run,
            job: 0,
        }));
        let r = probe(s, budget);
        cache::set_term_scope(None);
        r
    }

    #[test]
    fn timeout_results_are_not_cached() {
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(8));
        // x² = 0xB5 is unsat (odd squares are 1 mod 8, 0xB5 is 5 mod 8)
        // but refuting a multiplier circuit needs real search, so a
        // zero-conflict budget deterministically times out at the first
        // conflict. Bit 1 of 0xB5 is clear on purpose: gate hashing makes
        // bit 1 of x² the constant 0, so a constant with it set (0xB7)
        // is refuted without a conflict.
        let mut s = Solver::new(&ctx);
        s.assert(ctx.eq(ctx.bv_mul(x, x), ctx.bv_lit_u64(8, 0xB5)));
        let starved = Budget {
            max_conflicts: 0,
            ..Budget::unlimited()
        };
        const ENGINE: u64 = 2001;

        let (r1, d1) = probe_in(ENGINE, 0, &s, starved);
        assert!(matches!(r1, SmtResult::Timeout), "{r1:?}");
        assert_eq!((d1.cache_misses, d1.sat_solves), (1, 1));
        // A later run must miss again: budget verdicts are a property of
        // the run, never cached.
        let (r2, d2) = probe_in(ENGINE, 1, &s, starved);
        assert!(matches!(r2, SmtResult::Timeout), "{r2:?}");
        assert_eq!((d2.cache_hits, d2.cache_misses), (0, 1));
        // Solve for real: a live solve, and the outcome is now cached.
        let (r3, d3) = probe_in(ENGINE, 0, &s, Budget::unlimited());
        assert!(matches!(r3, SmtResult::Unsat), "{r3:?}");
        assert_eq!((d3.sat_solves, d3.cache_hits), (1, 0));
        // The cached answer replays without search — even under the same
        // starved budget that timed out before.
        let (r4, d4) = probe_in(ENGINE, 1, &s, starved);
        assert!(matches!(r4, SmtResult::Unsat), "{r4:?}");
        assert_eq!((d4.sat_solves, d4.cache_hits), (0, 1));
    }

    #[test]
    fn cached_sat_replay_matches_live_model() {
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(8));
        let y = ctx.var("y", Sort::BitVec(8));
        let mut s = Solver::new(&ctx);
        s.assert(ctx.eq(ctx.bv_add(x, y), ctx.bv_lit_u64(8, 0xC3)));
        s.assert(ctx.bv_ult(x, ctx.bv_lit_u64(8, 0x1D)));
        const ENGINE: u64 = 2002;
        let (r1, d1) = probe_in(ENGINE, 0, &s, Budget::unlimited());
        let (r2, d2) = probe_in(ENGINE, 1, &s, Budget::unlimited());
        assert_eq!((d1.sat_solves, d1.cache_misses), (1, 1), "{d1:?}");
        assert_eq!(d2.sat_solves, 0, "the later run must replay: {d2:?}");
        assert_eq!(d2.cache_hits, 1);
        let (m1, m2) = (r1.model().unwrap(), r2.model().unwrap());
        // The replayed model is exactly the live one.
        assert_eq!(m1.eval_bv(&ctx, x), m2.eval_bv(&ctx, x));
        assert_eq!(m1.eval_bv(&ctx, y), m2.eval_bv(&ctx, y));
    }

    #[test]
    fn unit_propagation_solves_equalities_without_search() {
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(8));
        let mut s = Solver::new(&ctx);
        s.assert(ctx.eq(x, ctx.bv_lit_u64(8, 0xA7)));
        let (r, d) = probe(&s, Budget::unlimited());
        let m = r.model().expect("sat");
        assert_eq!(m.eval_bv(&ctx, x).to_u64(), 0xA7);
        // One live solve, and `add_clause`'s level-0 propagation left it
        // nothing to search. Outside an engine job there is no cache.
        assert_eq!((d.sat_solves, d.cache_misses), (1, 0));
        assert_eq!(d.h_conflicts.count(), 1);
        assert_eq!(
            d.h_conflicts.max(),
            0,
            "level-0 propagation needs no search"
        );
    }

    #[test]
    fn trivially_true_model_reports_vars_as_dont_cares() {
        // The fast path returns an *empty* model. The bug this guards
        // against: `eval` silently zero-defaults, fabricating an all-zero
        // "counterexample"; `try_eval` must expose the don't-care.
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(8));
        let tauto = ctx.eq(ctx.bv_and(x, x), x); // folds to true
        let mut s = Solver::new(&ctx);
        s.assert(tauto);
        let r = s.check(Budget::unlimited());
        let m = r.model().expect("sat");
        assert!(m.is_empty());
        assert_eq!(m.try_eval(&ctx, x), None, "x is a don't-care, not zero");
    }

    #[test]
    fn partial_model_omits_simplified_vars() {
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(8));
        let y = ctx.var("y", Sort::BitVec(8));
        // y * 0 removes y from the formula entirely.
        let t = ctx.eq(ctx.bv_add(x, ctx.bv_mul(y, ctx.bv_lit_u64(8, 0))), x);
        let mut s = Solver::new(&ctx);
        s.assert(t);
        match s.check(Budget::unlimited()) {
            SmtResult::Sat(m) => {
                assert!(!m.contains(ctx.as_var(y).unwrap()));
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    /// Runs one incremental check and returns it with the counter deltas.
    fn probe_inc(
        s: &mut IncrementalSolver,
        active: &[Activation],
        budget: Budget,
    ) -> (SmtResult, alive2_obs::JobStats) {
        let snap = alive2_obs::counters_snapshot();
        let r = s.check(active, budget);
        let mut d = alive2_obs::JobStats::default();
        d.absorb_since(&snap);
        (r, d)
    }

    #[test]
    fn incremental_grows_and_agrees_with_one_shot() {
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(8));
        let y = ctx.var("y", Sort::BitVec(8));
        let mut inc = IncrementalSolver::new(&ctx);
        let asserts = [
            ctx.eq(ctx.bv_add(x, y), ctx.bv_lit_u64(8, 10)),
            ctx.bv_ult(x, ctx.bv_lit_u64(8, 3)),
            ctx.bv_ult(ctx.bv_lit_u64(8, 5), y),
        ];
        let mut so_far = Vec::new();
        for a in asserts {
            inc.assert(a);
            so_far.push(a);
            let mut fresh = Solver::new(&ctx);
            for &t in &so_far {
                fresh.assert(t);
            }
            let inc_r = inc.check(&[], Budget::unlimited());
            let fresh_r = fresh.check(Budget::unlimited());
            assert_eq!(inc_r.is_sat(), fresh_r.is_sat(), "diverged at {so_far:?}");
            if let Some(m) = inc_r.model() {
                // The incremental model must actually satisfy the asserts.
                let xv = m.eval_bv(&ctx, x).to_u64();
                let yv = m.eval_bv(&ctx, y).to_u64();
                assert_eq!((xv + yv) & 0xff, 10);
            }
        }
        // Adding y < 8 squeezes x+y to at most 2+7 = 9 < 10: unsat.
        inc.assert(ctx.bv_ult(y, ctx.bv_lit_u64(8, 8)));
        let r = inc.check(&[], Budget::unlimited());
        assert!(r.is_unsat(), "x<3 ∧ 5<y<8 ∧ x+y=10 must be unsat: {r:?}");
    }

    #[test]
    fn activation_groups_retract() {
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(8));
        let mut s = IncrementalSolver::new(&ctx);
        s.assert(ctx.bv_ult(x, ctx.bv_lit_u64(8, 10)));
        let g1 = s.new_group();
        s.assert_in(g1, ctx.bv_ult(ctx.bv_lit_u64(8, 20), x)); // x > 20
        let g2 = s.new_group();
        s.assert_in(g2, ctx.eq(x, ctx.bv_lit_u64(8, 5)));
        // g1 conflicts with the permanent bound; g2 doesn't.
        assert!(s.check(&[g1], Budget::unlimited()).is_unsat());
        let core = s.failed_groups();
        assert_eq!(core, vec![g1]);
        assert!(s.check(&[g2], Budget::unlimited()).is_sat());
        assert!(s.check(&[g1, g2], Budget::unlimited()).is_unsat());
        // Dropping every group retracts all guarded constraints.
        let r = s.check(&[], Budget::unlimited());
        let m = r.model().expect("sat with groups retracted");
        assert!(m.eval_bv(&ctx, x).to_u64() < 10);
    }

    #[test]
    fn incremental_counters_and_cache_bypass() {
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(8));
        let mut s = IncrementalSolver::new(&ctx);
        s.assert(ctx.bv_ult(x, ctx.bv_lit_u64(8, 100)));
        let (r1, d1) = probe_inc(&mut s, &[], Budget::unlimited());
        assert!(r1.is_sat());
        assert_eq!(d1.incremental_solves, 1);
        assert_eq!(d1.clauses_reused, 0, "first check has nothing to reuse");
        assert_eq!(
            (d1.sat_solves, d1.cache_hits, d1.cache_misses),
            (0, 0, 0),
            "incremental checks must bypass the query cache: {d1:?}"
        );
        // What the first check reported as `clauses_pre`.
        let pre1 = s.bb.num_clauses() as u64;
        s.assert(ctx.bv_ult(ctx.bv_lit_u64(8, 50), x));
        let (r2, d2) = probe_inc(&mut s, &[], Budget::unlimited());
        assert!(r2.is_sat());
        assert_eq!(d2.incremental_solves, 1);
        assert!(d2.clauses_reused > 0, "second check reuses the db: {d2:?}");
        assert_eq!((d2.cache_hits, d2.cache_misses), (0, 0));
        // Each check reuses exactly what the previous one was given,
        // clauses the blaster emitted since then excluded.
        assert_eq!(d2.clauses_reused, pre1, "{d2:?}");
        let pre2 = s.bb.num_clauses() as u64;
        assert!(pre2 > pre1, "the second assertion emitted no clause");
        let (_, d3) = probe_inc(&mut s, &[], Budget::unlimited());
        assert_eq!(d3.clauses_reused, pre2, "{d3:?}");
    }

    #[test]
    fn gates_are_shared_across_groups_and_retract_soundly() {
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(8));
        let y = ctx.var("y", Sort::BitVec(8));
        let small_y = ctx.bv_ult(y, ctx.bv_lit_u64(8, 10));
        let g1_body = ctx.bv_ult(x, y);
        // x - y runs the same carry chain as x <u y: x + ¬y + 1.
        let g2_body = ctx.eq(ctx.bv_sub(x, y), ctx.bv_lit_u64(8, 5));
        let mut s = IncrementalSolver::new(&ctx);
        s.assert(small_y);
        let g1 = s.new_group();
        s.assert_in(g1, g1_body);
        let before = s.bb.num_clauses();
        let g2 = s.new_group();
        s.assert_in(g2, g2_body);
        let added = s.bb.num_clauses() - before;
        // The same assertion blasted without g1's gates.
        let mut alone = BitBlaster::new(&ctx);
        alone.assert_term(g2_body);
        assert!(
            added < alone.num_clauses() - 1,
            "g2 reused none of g1's gates: {added} clauses"
        );
        // Every activation set, g1 retracted included, agrees with a
        // fresh solver over the same assertions: x <u y <u 10 and
        // x - y = 5 together need y >= 251.
        for active in [vec![], vec![g1], vec![g2], vec![g1, g2]] {
            let mut fresh = Solver::new(&ctx);
            fresh.assert(small_y);
            let mut bodies = vec![small_y];
            for (g, body) in [(g1, g1_body), (g2, g2_body)] {
                if active.contains(&g) {
                    fresh.assert(body);
                    bodies.push(body);
                }
            }
            let r = s.check(&active, Budget::unlimited());
            assert_eq!(
                r.is_sat(),
                fresh.check(Budget::unlimited()).is_sat(),
                "{active:?}"
            );
            if let Some(m) = r.model() {
                for &t in &bodies {
                    assert!(m.eval(&ctx, t).as_bool(), "{active:?}");
                }
            }
        }
        assert!(s.check(&[g1, g2], Budget::unlimited()).is_unsat());
    }

    #[test]
    fn incremental_assumption_core_counter() {
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(8));
        let mut s = IncrementalSolver::new(&ctx);
        let g = s.new_group();
        s.assert_in(g, ctx.bv_ult(x, ctx.bv_lit_u64(8, 4)));
        s.assert_in(g, ctx.bv_ult(ctx.bv_lit_u64(8, 4), x));
        let (r, d) = probe_inc(&mut s, &[g], Budget::unlimited());
        assert!(r.is_unsat());
        assert_eq!(d.assumption_cores, 1);
        assert_eq!(s.failed_groups(), vec![g]);
    }

    #[test]
    fn incremental_uf_consistency_across_pushes() {
        // Ackermann constraints must pair applications pushed in
        // *different* assert calls.
        let ctx = Ctx::new();
        let f = ctx.func("f", &[Sort::BitVec(8)], Sort::BitVec(8));
        let x = ctx.var("x", Sort::BitVec(8));
        let y = ctx.var("y", Sort::BitVec(8));
        let mut s = IncrementalSolver::new(&ctx);
        s.assert(ctx.eq(ctx.apply(f, &[x]), ctx.bv_lit_u64(8, 1)));
        assert!(s.check(&[], Budget::unlimited()).is_sat());
        s.assert(ctx.eq(ctx.apply(f, &[y]), ctx.bv_lit_u64(8, 2)));
        assert!(s.check(&[], Budget::unlimited()).is_sat());
        s.assert(ctx.eq(x, y)); // forces f(x) = f(y), i.e. 1 = 2
        assert!(s.check(&[], Budget::unlimited()).is_unsat());
    }

    #[test]
    fn incremental_handles_constant_folds() {
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(8));
        let mut s = IncrementalSolver::new(&ctx);
        s.assert(ctx.tru()); // folds away
        assert!(s.check(&[], Budget::unlimited()).is_sat());
        let g = s.new_group();
        s.assert_in(g, ctx.fals()); // group is inconsistent when active
        assert!(s.check(&[g], Budget::unlimited()).is_unsat());
        assert!(s.check(&[], Budget::unlimited()).is_sat());
        s.assert(ctx.eq(x, x)); // another fold-to-true
        assert!(s.check(&[], Budget::unlimited()).is_sat());
        s.assert(ctx.fals()); // permanently unsat
        assert!(s.check(&[], Budget::unlimited()).is_unsat());
        assert!(s.check(&[g], Budget::unlimited()).is_unsat());
    }

    #[test]
    fn permanent_false_survives_later_folded_groups() {
        // A group body that folds to a constant, pushed after a permanent
        // `false`, must not make the solver forget the `false`.
        let ctx = Ctx::new();
        for body in [ctx.tru(), ctx.fals()] {
            let mut s = IncrementalSolver::new(&ctx);
            s.assert(ctx.fals());
            let g = s.new_group();
            s.assert_in(g, body);
            let r = s.check(&[], Budget::unlimited());
            assert!(r.is_unsat(), "assert(false), assert_in(g, {body:?}): {r:?}");
            assert!(s.check(&[g], Budget::unlimited()).is_unsat());
        }
    }
}
