//! The user-facing SMT solver: assert terms, check satisfiability under a
//! resource budget, and extract models.
//!
//! Two entry points share the term-to-CNF pipeline:
//!
//! * [`Solver`] — the one-shot path. Each check rewrites and
//!   Ackermannizes the formula, then consults the query cache twice:
//!   the term tier (inside an engine job) on the term DAG before any CNF
//!   exists, then the CNF tier on the preprocessed, canonicalized CNF.
//!   A live solve always runs on the canonical CNF, so its result is a
//!   pure function of that formula.
//! * [`IncrementalSolver`] — a persistent push-assertion /
//!   check-under-assumptions solver that keeps its bit-blaster, clause
//!   database, learned clauses, and variable activities alive across
//!   checks. Its results depend on solver history (warm state, activation
//!   literals), not on a canonical formula, so its checks are never cached
//!   one by one. The CEGQI loop it serves is cached whole instead, as an
//!   obligation in the term tier (see
//!   [`exists_forall`](crate::exists_forall)).

use crate::ackermann::{ackermannize, Ackermannizer};
use crate::bitblast::BitBlaster;
use crate::cache::{self, CachedOutcome, CnfSizes, TermKey, TermOutcome, TermScope};
use crate::model::{Model, Value};
use crate::sat::{Budget, Lit, SatOutcome, SatSolver, SatVar};
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

/// The profile-record outcome tag of a result.
fn result_str(r: &SmtResult) -> &'static str {
    match r {
        SmtResult::Sat(_) => "sat",
        SmtResult::Unsat => "unsat",
        SmtResult::Timeout => "timeout",
        SmtResult::OutOfMemory => "oom",
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
    /// bit-blasting (default on; the `--no-rewrite` escape hatch). The
    /// pass is applied *before* CNF construction, so cache fingerprints
    /// are computed on the simplified formula.
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
        let _sp = alive2_obs::span(alive2_obs::Phase::Query);
        let started = std::time::Instant::now();
        let mut prof = alive2_obs::QueryProfile::default();
        let result = self.check_inner(budget, &mut prof);
        match &result {
            SmtResult::Sat(_) => alive2_obs::stats::record_smt_sat(),
            SmtResult::Unsat => alive2_obs::stats::record_smt_unsat(),
            SmtResult::Timeout | SmtResult::OutOfMemory => alive2_obs::stats::record_smt_unknown(),
        }
        prof.wall_us = started.elapsed().as_micros() as u64;
        prof.result = result_str(&result);
        alive2_obs::profile::record_query(prof);
        result
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

        // Term tier: inside an engine job the rewritten, Ackermannized
        // DAG is keyed before any CNF exists, so a hit skips blasting,
        // preprocessing and the CNF-level lookup too.
        let tier = cache::term_scope().map(|scope| (scope, TermKey::of_query(self.ctx, &roots)));
        if let Some((scope, key)) = &tier {
            if let Some(r) = self.replay(*scope, key, &roots, prof) {
                return r;
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

    /// Answers a query from the term tier: `Unsat` as stored, `Sat` once
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

    /// Blasts `roots`, preprocesses and canonicalizes the CNF, and answers
    /// from the CNF tier or a live solve of the canonical formula.
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

        // Preprocess, canonicalize, and always solve the *canonical*
        // formula: the solve result is then a pure function of the
        // canonical CNF, so a cache replay is bit-identical to the live
        // solve it memoized and verdicts cannot depend on cache state.
        prof.vars_pre = u64::from(bb.cnf.num_vars());
        prof.clauses_pre = bb.cnf.clauses().len() as u64;
        let pre = cache::preprocess(&bb.cnf);
        if pre.conflict {
            return SmtResult::Unsat;
        }
        let canon = cache::canonicalize(&pre);
        prof.vars_post = u64::from(canon.num_vars);
        prof.clauses_post = canon.clauses.len() as u64;

        // Projects an assignment over canonical variables back through
        // the blaster onto the term-level free variables. Distinguishes
        // three cases per SAT variable: forced at level 0 (preprocess),
        // assigned by the search (canonical map), or eliminated/never
        // materialized — a genuine don't-care, left out of the model.
        let build_model = |bits: &[Option<bool>]| -> Model {
            let sat_val = |sv: SatVar| -> Option<bool> {
                pre.assigned[sv.0 as usize].or_else(|| {
                    canon
                        .var_map
                        .get(&sv)
                        .and_then(|&cv| bits.get(cv as usize).copied().flatten())
                })
            };
            let lit_val = |l: Lit| -> Option<bool> {
                sat_val(l.var()).map(|b| if l.is_positive() { b } else { !b })
            };
            let mut model = Model::new();
            for vt in self.ctx.free_vars_many(roots) {
                let v = self.ctx.as_var(vt).expect("free var is a Var term");
                match self.ctx.sort(vt) {
                    Sort::Bool => {
                        if let Some(b) = bb.bool_var_lit(v).and_then(lit_val) {
                            model.set(v, Value::Bool(b));
                        }
                    }
                    Sort::BitVec(_) => {
                        let Some(lits) = bb.bv_var_lits(v) else {
                            continue;
                        };
                        let vals: Vec<Option<bool>> = lits.iter().map(|&l| lit_val(l)).collect();
                        if vals.iter().all(Option::is_none) {
                            continue; // wholly unconstrained: don't-care
                        }
                        // Partially constrained: the free bits really can
                        // be anything, so zero them (re-validation below
                        // checks exactly this zero-completion).
                        let bools: Vec<bool> = vals.iter().map(|b| b.unwrap_or(false)).collect();
                        model.set(v, Value::Bv(crate::bv::BitVec::from_bits(&bools)));
                    }
                }
            }
            model
        };

        if canon.clauses.is_empty() {
            // Level-0 propagation satisfied every clause; no search (and
            // no cache traffic — this is as cheap as a hit) needed.
            return SmtResult::Sat(build_model(&[]));
        }

        let fp = canon.fingerprint();
        let vars = canon.num_vars;
        let nclauses = canon.clauses.len() as u32;
        let qcache = cache::global();
        match qcache.lookup(fp, vars, nclauses) {
            Some(CachedOutcome::Unsat) => {
                alive2_obs::stats::record_cache_hit();
                prof.cache = alive2_obs::profile::CacheOutcome::Hit;
                return SmtResult::Unsat;
            }
            Some(CachedOutcome::Sat(bits)) => {
                // Soundness backstop: replay the cached assignment and
                // re-validate it against the actual assertions before
                // trusting it. A stale, corrupted, or colliding entry
                // degrades to a live solve, never to a wrong verdict.
                let model = build_model(&bits);
                if roots.iter().all(|&t| model.eval(self.ctx, t).as_bool()) {
                    alive2_obs::stats::record_cache_hit();
                    prof.cache = alive2_obs::profile::CacheOutcome::Hit;
                    return SmtResult::Sat(model);
                }
                alive2_obs::stats::record_cache_reval();
                prof.cache = alive2_obs::profile::CacheOutcome::Reval;
            }
            None => {}
        }
        alive2_obs::stats::record_cache_miss();
        alive2_obs::stats::record_sat_solve();
        if prof.cache == alive2_obs::profile::CacheOutcome::None {
            prof.cache = alive2_obs::profile::CacheOutcome::Miss;
        }
        prof.solved = true;
        let mut sat = canon.to_solver();
        let outcome = sat.solve(budget);
        let st = sat.stats();
        prof.conflicts = st.conflicts;
        prof.decisions = st.decisions;
        prof.propagations = st.propagations;
        prof.restarts = st.restarts;
        prof.learnts_kept = sat.num_learnts() as u64;
        match outcome {
            // Budget verdicts are a property of this run, not of the
            // formula: never cached.
            SatOutcome::TimedOut => SmtResult::Timeout,
            SatOutcome::OutOfMemory => SmtResult::OutOfMemory,
            SatOutcome::Unsat => {
                qcache.store(fp, vars, nclauses, CachedOutcome::Unsat);
                SmtResult::Unsat
            }
            SatOutcome::Sat => {
                let bits = sat.assignment();
                qcache.store(fp, vars, nclauses, CachedOutcome::Sat(bits.clone()));
                SmtResult::Sat(build_model(&bits))
            }
        }
    }
}

/// An activation literal guarding a retractable clause group of an
/// [`IncrementalSolver`]. A group's clauses only bind while its
/// activation is passed to [`IncrementalSolver::check`]; leaving it out
/// retracts the whole group without touching the clause database.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Activation(Lit);

/// A persistent SMT solver: assertions are pushed once and stay loaded;
/// each [`check`](Self::check) reuses the live CDCL solver — clause
/// database, learned clauses, VSIDS activities, saved phases — warm.
///
/// New assertions are bit-blasted *incrementally*: the blaster's
/// term→literal map is stable, so a pushed assertion only appends the
/// clauses for structure not already encoded (`clauses_reused` counts
/// what a check inherited instead of rebuilding).
///
/// # Cache eligibility
///
/// Incremental checks never consult or populate the query cache. Both
/// tiers store results that are a function of one formula; an
/// incremental verdict (and its model) is a function of the solver's
/// history — which groups are active, what was learned under earlier
/// assumptions — and the live clause list is never canonicalized. The
/// CEGQI candidate loop, this solver's one client, is cached a level up:
/// `solve_exists_forall_with_seeds` keys the whole obligation in the term
/// tier, so a rerun skips every incremental check of the loop.
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
    sat: SatSolver,
    ack: Ackermannizer,
    /// Prefix of `bb.cnf` already loaded into `sat`.
    synced_vars: u32,
    synced_clauses: usize,
    /// Every rewritten assertion root (permanent and grouped) plus the
    /// Ackermann consistency constraints — the model projection domain.
    roots: Vec<TermId>,
    /// A pushed assertion folded to `false`: permanently unsat.
    falsified: bool,
    checks: u64,
    /// Clause count at the last inprocessing pass (drives the "database
    /// grew enough to re-simplify" heuristic).
    simplified_at: usize,
    /// Reset saved phases to the zero default before each check (see
    /// [`set_zero_phase`](Self::set_zero_phase)).
    zero_phase: bool,
    /// Apply the term-rewriting pass to each pushed assertion.
    rewrite: bool,
}

impl<'a> IncrementalSolver<'a> {
    /// Creates an empty persistent solver over the given context.
    pub fn new(ctx: &'a Ctx) -> Self {
        IncrementalSolver {
            ctx,
            bb: BitBlaster::new(ctx),
            sat: SatSolver::new(),
            ack: Ackermannizer::new(),
            synced_vars: 0,
            synced_clauses: 0,
            roots: Vec::new(),
            falsified: false,
            checks: 0,
            simplified_at: 0,
            zero_phase: false,
            rewrite: true,
        }
    }

    /// Enables/disables the term-rewriting pass applied to each pushed
    /// assertion (default on; the `--no-rewrite` escape hatch).
    pub fn set_rewrite(&mut self, on: bool) {
        self.rewrite = on;
    }

    /// When enabled, every check starts from the all-false phase default
    /// instead of the phases saved by the previous solve, biasing models
    /// toward mostly-zero assignments while keeping learned clauses and
    /// variable activities warm. Model-*shape* sensitive loops (CEGQI's
    /// candidate step) converge much faster on such regular models; pure
    /// sat/unsat clients should leave this off and keep full phase reuse.
    pub fn set_zero_phase(&mut self, on: bool) {
        self.zero_phase = on;
    }

    /// Ackermannizes `t` incrementally and blasts it to a single literal.
    /// Consistency constraints pairing new applications against all
    /// previously pushed ones are asserted permanently (sound even for
    /// grouped assertions: the constraints are implications over shared
    /// application variables).
    fn blast_rewritten(&mut self, t: TermId) -> Option<Lit> {
        let t = if self.rewrite && self.ctx.as_bool_lit(t).is_none() {
            let r = crate::rewrite::simplify(self.ctx, t);
            if self.ctx.as_bool_lit(r).is_some() {
                alive2_obs::stats::record_rewrite_discharged();
            } else {
                alive2_obs::stats::record_rewrite_residue();
            }
            r
        } else {
            t
        };
        let mut constraints = Vec::new();
        let r = self.ack.rewrite(self.ctx, t, &mut constraints);
        for c in constraints {
            self.roots.push(c);
            let l = self.bb.blast_bool(c);
            self.bb.cnf.add_clause(&[l]);
        }
        match self.ctx.as_bool_lit(r) {
            Some(true) => None,
            Some(false) => {
                self.falsified = true;
                None
            }
            None => {
                self.roots.push(r);
                Some(self.bb.blast_bool(r))
            }
        }
    }

    /// Pushes a permanent assertion (must be boolean-sorted). There is no
    /// pop: retraction is modeled with [`new_group`](Self::new_group) /
    /// [`assert_in`](Self::assert_in).
    pub fn assert(&mut self, t: TermId) {
        assert!(self.ctx.sort(t).is_bool(), "assertions must be boolean");
        if let Some(l) = self.blast_rewritten(t) {
            self.bb.cnf.add_clause(&[l]);
        }
    }

    /// Allocates a fresh activation literal for a retractable clause group.
    pub fn new_group(&mut self) -> Activation {
        Activation(Lit::new(self.bb.cnf.new_var(), true))
    }

    /// Pushes an assertion guarded by group `g`: it binds only in checks
    /// whose activation set includes `g` (encoded as `¬g ∨ t`).
    pub fn assert_in(&mut self, g: Activation, t: TermId) {
        assert!(self.ctx.sort(t).is_bool(), "assertions must be boolean");
        match self.blast_rewritten(t) {
            Some(l) => self.bb.cnf.add_clause(&[g.0.negate(), l]),
            None if self.falsified => {
                // The body folded to `false`: the group is unsatisfiable
                // whenever active, but the solver as a whole is not.
                self.falsified = false;
                self.bb.cnf.add_clause(&[g.0.negate()]);
            }
            None => {}
        }
    }

    /// Loads the not-yet-synced suffix of the blasted CNF into the live
    /// solver. Returns the number of clauses that were already resident
    /// (the reuse payload of this check).
    fn sync(&mut self) -> usize {
        let reused = self.synced_clauses;
        while self.synced_vars < self.bb.cnf.num_vars() {
            self.sat.new_var();
            self.synced_vars += 1;
        }
        while self.synced_clauses < self.bb.cnf.num_clauses() {
            self.sat.add_clause(self.bb.cnf.clause(self.synced_clauses));
            self.synced_clauses += 1;
        }
        reused
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
        let _sp = alive2_obs::span(alive2_obs::Phase::Query);
        let started = std::time::Instant::now();
        let mut prof = alive2_obs::QueryProfile {
            incremental: true,
            ..alive2_obs::QueryProfile::default()
        };
        let result = self.check_live(active, budget, &mut prof);
        match &result {
            SmtResult::Sat(_) => alive2_obs::stats::record_smt_sat(),
            SmtResult::Unsat => alive2_obs::stats::record_smt_unsat(),
            SmtResult::Timeout | SmtResult::OutOfMemory => alive2_obs::stats::record_smt_unknown(),
        }
        prof.wall_us = started.elapsed().as_micros() as u64;
        prof.result = result_str(&result);
        alive2_obs::profile::record_query(prof);
        result
    }

    fn check_live(
        &mut self,
        active: &[Activation],
        budget: Budget,
        prof: &mut alive2_obs::QueryProfile,
    ) -> SmtResult {
        if self.falsified {
            return SmtResult::Unsat;
        }
        let reused = self.sync();
        alive2_obs::stats::record_incremental_solve();
        alive2_obs::stats::record_clauses_reused(reused as u64);
        alive2_obs::stats::record_learnts_kept(self.sat.num_learnts() as u64);
        // For the live solver "pre" is the blasted CNF and "post" is the
        // resident clause population at dispatch (no canonical layer).
        prof.vars_pre = u64::from(self.bb.cnf.num_vars());
        prof.clauses_pre = self.bb.cnf.clauses().len() as u64;
        prof.vars_post = u64::from(self.bb.cnf.num_vars());
        prof.solved = true;
        self.checks += 1;
        // Bounded inprocessing once the database has grown by ≥25% since
        // the last pass — keeps long-lived solvers from drowning in
        // subsumed clauses without paying the sweep on every check.
        let live = self.sat.num_clauses();
        if self.checks > 1 && live > self.simplified_at + self.simplified_at / 4 {
            self.sat.simplify();
            self.simplified_at = self.sat.num_clauses();
        } else if self.checks == 1 {
            self.simplified_at = live;
        }
        if self.zero_phase {
            self.sat.reset_phases();
        }
        prof.clauses_post = self.sat.num_clauses() as u64;
        let assumptions: Vec<Lit> = active.iter().map(|a| a.0).collect();
        let outcome = self.sat.solve_assuming(&assumptions, budget);
        let st = self.sat.stats();
        prof.conflicts = st.conflicts;
        prof.decisions = st.decisions;
        prof.propagations = st.propagations;
        prof.restarts = st.restarts;
        prof.learnts_kept = self.sat.num_learnts() as u64;
        match outcome {
            SatOutcome::TimedOut => SmtResult::Timeout,
            SatOutcome::OutOfMemory => SmtResult::OutOfMemory,
            SatOutcome::Unsat => {
                if !self.sat.failed_assumptions().is_empty() {
                    alive2_obs::stats::record_assumption_core();
                }
                SmtResult::Unsat
            }
            SatOutcome::Sat => SmtResult::Sat(self.build_model()),
        }
    }

    /// The failed-assumption core of the most recent unsat check, mapped
    /// back to activation handles: a subset of that check's `active` set
    /// that is already jointly unsatisfiable with the permanent clauses.
    /// Empty when the permanent assertions are unsat on their own.
    pub fn failed_groups(&self) -> Vec<Activation> {
        self.sat
            .failed_assumptions()
            .iter()
            .map(|&l| Activation(l))
            .collect()
    }

    /// Projects the SAT assignment back onto term-level free variables.
    /// Unlike the one-shot path there is no preprocessing or
    /// canonicalization layer: blaster literals map straight to solver
    /// variables. Variables never materialized by the blaster are
    /// genuine don't-cares and stay absent.
    fn build_model(&self) -> Model {
        let lit_val = |l: Lit| -> Option<bool> {
            self.sat
                .value(l.var())
                .map(|b| if l.is_positive() { b } else { !b })
        };
        let mut model = Model::new();
        for vt in self.ctx.free_vars_many(&self.roots) {
            let v = self.ctx.as_var(vt).expect("free var is a Var term");
            match self.ctx.sort(vt) {
                Sort::Bool => {
                    if let Some(b) = self.bb.bool_var_lit(v).and_then(lit_val) {
                        model.set(v, Value::Bool(b));
                    }
                }
                Sort::BitVec(_) => {
                    let Some(lits) = self.bb.bv_var_lits(v) else {
                        continue;
                    };
                    let vals: Vec<Option<bool>> = lits.iter().map(|&l| lit_val(l)).collect();
                    if vals.iter().all(Option::is_none) {
                        continue;
                    }
                    let bools: Vec<bool> = vals.iter().map(|b| b.unwrap_or(false)).collect();
                    model.set(v, Value::Bv(crate::bv::BitVec::from_bits(&bools)));
                }
            }
        }
        model
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

    #[test]
    fn timeout_results_are_not_cached() {
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(8));
        // x² = 0xB5 is unsat (odd squares are 1 mod 8, 0xB5 is 5 mod 8)
        // but refuting a multiplier circuit needs real search, so a
        // zero-conflict budget deterministically times out at the first
        // conflict. Bit 1 of 0xB5 is clear on purpose: gate hashing makes
        // bit 1 of x² the constant 0, so a constant with it set (0xB7)
        // is refuted without a conflict. Distinctive constants: no other
        // test in this process shares the fingerprint, so the shared
        // global cache stays predictable here.
        let mut s = Solver::new(&ctx);
        s.assert(ctx.eq(ctx.bv_mul(x, x), ctx.bv_lit_u64(8, 0xB5)));
        let starved = Budget {
            max_conflicts: 0,
            ..Budget::unlimited()
        };

        let (r1, d1) = probe(&s, starved);
        assert!(matches!(r1, SmtResult::Timeout), "{r1:?}");
        assert_eq!(d1.cache_misses, 1);
        // A second identical check must miss again: budget verdicts are a
        // property of the run, never cached.
        let (r2, d2) = probe(&s, starved);
        assert!(matches!(r2, SmtResult::Timeout), "{r2:?}");
        assert_eq!((d2.cache_hits, d2.cache_misses), (0, 1));
        // Solve for real: a live solve, and the outcome is now cached.
        let (r3, d3) = probe(&s, Budget::unlimited());
        assert!(matches!(r3, SmtResult::Unsat), "{r3:?}");
        assert_eq!((d3.sat_solves, d3.cache_hits), (1, 0));
        // The cached answer replays without search — even under the same
        // starved budget that timed out before.
        let (r4, d4) = probe(&s, starved);
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
        let (r1, d1) = probe(&s, Budget::unlimited());
        let (r2, d2) = probe(&s, Budget::unlimited());
        assert_eq!(d2.sat_solves, 0, "second check must replay: {d2:?}");
        assert_eq!(d2.cache_hits, 1);
        let (m1, m2) = (r1.model().unwrap(), r2.model().unwrap());
        // Bit-identical replay: the cached model is exactly the live one.
        assert_eq!(m1.eval_bv(&ctx, x), m2.eval_bv(&ctx, x));
        assert_eq!(m1.eval_bv(&ctx, y), m2.eval_bv(&ctx, y));
        let _ = d1;
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
        assert_eq!(d.sat_solves, 0, "level-0 propagation needs no search");
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
        s.assert(ctx.bv_ult(ctx.bv_lit_u64(8, 50), x));
        let (r2, d2) = probe_inc(&mut s, &[], Budget::unlimited());
        assert!(r2.is_sat());
        assert_eq!(d2.incremental_solves, 1);
        assert!(d2.clauses_reused > 0, "second check reuses the db: {d2:?}");
        assert_eq!((d2.cache_hits, d2.cache_misses), (0, 0));
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
        // Blast the assertions as written, as the blaster below does.
        s.set_rewrite(false);
        s.assert(small_y);
        let g1 = s.new_group();
        s.assert_in(g1, g1_body);
        let before = s.bb.cnf.num_clauses();
        let g2 = s.new_group();
        s.assert_in(g2, g2_body);
        let added = s.bb.cnf.num_clauses() - before;
        // The same assertion blasted without g1's gates.
        let mut alone = BitBlaster::new(&ctx);
        alone.assert_term(g2_body);
        assert!(
            added < alone.cnf.num_clauses() - 1,
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
}
