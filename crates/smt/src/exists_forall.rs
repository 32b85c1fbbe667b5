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
//!
//! Before the loop, *seed settling* tries a few caller-chosen
//! instantiations `Y := s(X)` by simplification alone: when the instances
//! fold to `false` together, no `X` survives them, so the obligation is
//! `Unsat` with no CNF and no candidate check. The caller hands them over
//! in stages, and a later stage is tried only when the earlier ones fail.

use crate::cache::{self, CnfSizes, TermKey, TermOutcome, TermScope};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::model::Model;
use crate::sat::Budget;
use crate::solver::{Activation, IncrementalSolver, SmtResult, Solver};
use crate::term::{Ctx, Op, TermId};
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
    solve_exists_forall_with_seeds(ctx, universals, phi, config, &[], |_, _| None, &[])
}

/// Like [`solve_exists_forall`], with caller-provided *seed instantiations*
/// of the universal variables. Seeds may map universals to arbitrary terms
/// over the existential variables (symbolic instantiations); they are
/// conjoined to the candidate constraint up front. Sound and complete
/// regardless of seed quality — good seeds (e.g. matching a source
/// function's undef choices to the target's) make the loop converge in one
/// iteration instead of chasing fresh values.
///
/// `settle(live, k)` builds the seeds of stage `k` of *seed settling* from
/// φ's free variables `live`, or `None` past the last stage. Stage 0 is
/// asked for when the obligation reaches the loop: after a cache miss,
/// with universals, and when the rewriter leaves φ unsolved, so a warm or
/// discharged obligation never pays for it; stage `k + 1` only when the
/// stages before it fail. The seeds are tried before the loop and never
/// added to it. Each distinct one is substituted into φ (unmapped
/// universals take zero, as in the loop), loop seeds included, and an
/// instance an earlier stage tried is not tried again. A stage's new
/// instances are conjoined and simplified on their own: top-level
/// propagation of atoms and of equality classes of variables, plus the
/// rewriter when [`EfConfig::rewrite`] is on. A stage whose conjunction
/// becomes `false` answers `Unsat`. That is sound for any seeds: if
/// φ(X, s₁(X)) ∧ … ∧ φ(X, s_k(X)) is unsatisfiable for every X, each X is
/// refuted by one of the instantiations Y := s_i(X), so no witness
/// exists. A witness satisfies every instance, so settling can never hide
/// a `Sat` answer; it only replaces a loop `Unsat` or a `Timeout`.
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
/// rewriter, seed settling, every candidate and verify check, and
/// bit-blasting. A stored witness is re-validated by the verify step
/// before reuse. The settling seeds are not keyed: they can only produce
/// `Unsat`, which is a property of φ and the universals alone.
pub fn solve_exists_forall_with_seeds(
    ctx: &Ctx,
    universals: &[TermId],
    phi: TermId,
    config: EfConfig,
    seeds: &[FxHashMap<TermId, TermId>],
    settle: impl FnMut(&FxHashSet<TermId>, usize) -> Option<Vec<FxHashMap<TermId, TermId>>>,
    prefer_false: &[TermId],
) -> EfResult {
    for u in universals {
        assert!(
            ctx.as_var(*u).is_some(),
            "universal quantifier binds non-variable term"
        );
    }
    let Some(scope) = cache::term_scope() else {
        return solve_live(ctx, universals, phi, config, seeds, settle, prefer_false);
    };
    let key = TermKey::of_obligation(ctx, universals, phi, seeds, config.rewrite, prefer_false);
    if let Some(r) = replay(ctx, scope, &key, universals, phi, config) {
        return r;
    }
    let result = solve_live(ctx, universals, phi, config, seeds, settle, prefer_false);
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
            let exist_vars = existentials(ctx.free_vars(phi), universals);
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

/// The existential variables of an obligation: φ's free variables `free`
/// that are not universal, in id order (the verify step builds their
/// values in this order).
fn existentials(free: FxHashSet<TermId>, universals: &[TermId]) -> Vec<TermId> {
    let mut exist: Vec<TermId> = free
        .into_iter()
        .filter(|v| !universals.contains(v))
        .collect();
    exist.sort_unstable();
    exist
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
    let x_subst: FxHashMap<TermId, TermId> = exist_vars
        .iter()
        .map(|&v| (v, x.value_term(ctx, v)))
        .collect();
    let phi_x = ctx.substitute(phi, &x_subst);
    let mut verify = Solver::new(ctx);
    verify.set_rewrite(rewrite);
    verify.assert(ctx.not(phi_x));
    verify.check(budget)
}

/// Seed settling, then the CEGQI loop itself, with no term-tier traffic.
fn solve_live(
    ctx: &Ctx,
    universals: &[TermId],
    phi: TermId,
    config: EfConfig,
    seeds: &[FxHashMap<TermId, TermId>],
    mut settle: impl FnMut(&FxHashSet<TermId>, usize) -> Option<Vec<FxHashMap<TermId, TermId>>>,
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
    // Seed settling instantiates the residue instead: it is equivalent to
    // φ, and its instances rewrite in about half the time.
    let (phi, residue) = if config.rewrite && ctx.as_bool_lit(phi).is_none() {
        let r = crate::rewrite::simplify(ctx, phi);
        if ctx.as_bool_lit(r).is_some() {
            alive2_obs::stats::record_rewrite_discharged();
            (r, r)
        } else {
            (phi, r)
        }
    } else {
        (phi, phi)
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

    // φ's free variables give the settling seeds their live terms and
    // the loop its existentials — computed once, not per iteration.
    let free = ctx.free_vars(phi);

    // Instantiation set; seed with the all-zero assignment plus any
    // caller-provided seeds (completed with zeros for unmapped universals).
    let mut zero = FxHashMap::default();
    for &u in universals {
        let m = Model::new();
        zero.insert(u, m.value_term(ctx, u));
    }
    if settled_by_seed(ctx, residue, &zero, config.rewrite, |k| settle(&free, k)) {
        return EfResult::Unsat;
    }
    let mut instantiations: Vec<FxHashMap<TermId, TermId>> =
        seeds.iter().map(|seed| completed(&zero, seed)).collect();
    instantiations.push(zero);
    let exist_vars = existentials(free, universals);

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
                let mut inst = FxHashMap::default();
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

/// `seed` over the all-zero instantiation `zero`: universals the seed
/// leaves unmapped take zero, and entries for other variables are ignored.
fn completed(
    zero: &FxHashMap<TermId, TermId>,
    seed: &FxHashMap<TermId, TermId>,
) -> FxHashMap<TermId, TermId> {
    let mut inst = zero.clone();
    for (&u, &t) in seed {
        if inst.contains_key(&u) {
            inst.insert(u, t);
        }
    }
    inst
}

/// Seed settling (see [`solve_exists_forall_with_seeds`]): true when the
/// instances of `phi` (φ, or any formula equivalent to it) under the
/// distinct seeds of one of the stages `stage(0)`, `stage(1)`, …
/// simplify, as one conjunction, to `false`; a stage is built only when
/// the ones before it fail, and it conjoins only the instances no earlier
/// stage tried. Simplifying a stage's instances together shares the
/// rewriter's work on the parts of φ that no seed changes. A settled
/// obligation writes one profile record, with `obligation` and
/// `discharged` set and no CNF. Nothing is built on an over-budget
/// context; the loop reports the OOM.
fn settled_by_seed(
    ctx: &Ctx,
    phi: TermId,
    zero: &FxHashMap<TermId, TermId>,
    rewrite: bool,
    mut stage: impl FnMut(usize) -> Option<Vec<FxHashMap<TermId, TermId>>>,
) -> bool {
    if ctx.over_budget() {
        return false;
    }
    let started = Instant::now();
    let steps_before = alive2_obs::stats::rewrite_steps_now();
    let rewritten = |t: TermId| {
        if rewrite && ctx.as_bool_lit(t).is_none() {
            crate::rewrite::simplify(ctx, t)
        } else {
            t
        }
    };
    let mut tried: Vec<FxHashMap<TermId, TermId>> = Vec::new();
    for seeds in (0..).map_while(&mut stage) {
        let mut instances = Vec::new();
        for seed in &seeds {
            let inst = completed(zero, seed);
            if !tried.contains(&inst) {
                instances.push(ctx.substitute(phi, &inst));
                tried.push(inst);
            }
        }
        let t = rewritten(propagate_literals(ctx, ctx.and_many(&instances)));
        if ctx.as_bool_lit(t) == Some(false) {
            alive2_obs::profile::record_query(alive2_obs::QueryProfile {
                wall_us: started.elapsed().as_micros() as u64,
                rewrite_steps: alive2_obs::stats::rewrite_steps_now() - steps_before,
                discharged: true,
                obligation: true,
                result: "unsat",
                ..alive2_obs::QueryProfile::default()
            });
            return true;
        }
    }
    false
}

/// Top-level propagation. Every conjunct of `t` is a *unit*: `¬a` fixes
/// the atom `a` to false and any other conjunct fixes itself to true,
/// except a conjunct `v = w` between two variables, which puts them in
/// one equality class instead. Each fixed atom is then replaced by its
/// literal inside every unit, the units themselves are kept, and every
/// class is replaced by its fixed value when a member is a fixed Boolean
/// variable, else by its lowest-id member. Two values for one atom or one
/// class give `false`. This repeats to a fixpoint.
///
/// Under its kept units a fixed atom has its value, so replacing it is
/// an equivalence. A class drops the equation `v = w`, so the result is
/// not equivalent to `t`, but every model of `t` gives all members of a
/// class one value: the result is satisfiable exactly when `t` is, every
/// model of `t` satisfies it, and `false` means `t` is unsatisfiable.
fn propagate_literals(ctx: &Ctx, mut t: TermId) -> TermId {
    let is_var = |v: TermId| ctx.as_var(v).is_some();
    let is_class = |c: TermId| {
        ctx.with_node(c, |op, args, _| {
            matches!(op, Op::Eq) && is_var(args[0]) && is_var(args[1])
        })
    };
    while ctx.as_bool_lit(t).is_none() {
        // Union-find over variable terms, each class rooted at its lowest
        // id, so neither the roots nor the map below depend on the order
        // in which conjuncts are found.
        let mut parent: FxHashMap<TermId, TermId> = FxHashMap::default();
        let find = |parent: &FxHashMap<TermId, TermId>, mut v: TermId| {
            while let Some(&p) = parent.get(&v) {
                v = p;
            }
            v
        };
        let mut fixed: FxHashMap<TermId, bool> = FxHashMap::default();
        let mut fix = |atom: TermId, value: bool| *fixed.entry(atom).or_insert(value) == value;
        let conjuncts = conjuncts(ctx, t);
        let mut members: Vec<TermId> = Vec::new();
        for &c in &conjuncts {
            let args = ctx.args(c);
            let (atom, value) = match ctx.op(c) {
                _ if is_class(c) => {
                    members.extend(&args);
                    let (a, b) = (find(&parent, args[0]), find(&parent, args[1]));
                    if a != b {
                        parent.insert(a.max(b), a.min(b));
                    }
                    continue;
                }
                Op::Not => (args[0], false),
                _ => (c, true),
            };
            if !fix(atom, value) {
                return ctx.fals();
            }
        }
        let mut class_value: FxHashMap<TermId, bool> = FxHashMap::default();
        for (&v, &value) in fixed.iter().filter(|(&v, _)| is_var(v)) {
            if *class_value.entry(find(&parent, v)).or_insert(value) != value {
                return ctx.fals();
            }
        }
        let mut map: FxHashMap<TermId, TermId> = FxHashMap::default();
        for (&a, &value) in &fixed {
            map.insert(a, ctx.bool_lit(value));
        }
        for v in members {
            let root = find(&parent, v);
            let to = class_value.get(&root).map_or(root, |&b| ctx.bool_lit(b));
            if to != v {
                map.insert(v, to);
            }
        }
        // One memo for every conjunct. A unit keeps its own node, and its
        // operands (or its atom's, under a `¬`) are substituted; a class
        // equation is substituted whole and so becomes `true`.
        let mut memo: FxHashMap<TermId, TermId> = FxHashMap::default();
        let below = |a: TermId, memo: &mut FxHashMap<TermId, TermId>| {
            let args = ctx.args(a);
            let new_args = args.map(|x| ctx.subst_rec(x, &map, memo));
            if *new_args == *args {
                a
            } else {
                ctx.rebuild(ctx.op(a), &new_args)
            }
        };
        let kept: Vec<TermId> = conjuncts
            .iter()
            .map(|&c| match ctx.op(c) {
                _ if is_class(c) => ctx.subst_rec(c, &map, &mut memo),
                Op::Not => ctx.not(below(ctx.args(c)[0], &mut memo)),
                _ => below(c, &mut memo),
            })
            .collect();
        if kept == conjuncts {
            break;
        }
        t = ctx.and_many(&kept);
    }
    t
}

/// The top-level conjuncts of `t`, each once, in depth-first order: the
/// leaves of the `And` nodes reachable from `t` through `And` nodes
/// (`t` itself when it is no conjunction).
fn conjuncts(ctx: &Ctx, t: TermId) -> Vec<TermId> {
    let mut out = Vec::new();
    let mut seen = FxHashSet::default();
    let mut stack = vec![t];
    while let Some(c) = stack.pop() {
        if !seen.insert(c) {
            continue;
        }
        match ctx.op(c) {
            Op::And => stack.extend_from_slice(&ctx.args(c)),
            _ => out.push(c),
        }
    }
    out
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
    use crate::bv::BitVec;
    use crate::model::Value;
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
                let x_subst = FxHashMap::from_iter([(x, m.value_term(&ctx, x))]);
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
            let r = solve_exists_forall_with_seeds(
                &ctx,
                &[y],
                phi,
                EfConfig::default(),
                &[],
                |_, _| None,
                &[keep],
            );
            let EfResult::Sat(m) = r else {
                panic!("expected a witness, got {r:?}");
            };
            assert!(!m.eval(&ctx, keep).as_bool(), "{m:?}");
            assert!(m.eval(&ctx, other).as_bool(), "{m:?}");
        }
        // When every witness sets the flag, the first one stands.
        let phi = ctx.and(d, ctx.bv_ule(ctx.bv_and(y, x), y));
        let r = solve_exists_forall_with_seeds(
            &ctx,
            &[y],
            phi,
            EfConfig::default(),
            &[],
            |_, _| None,
            &[d],
        );
        let EfResult::Sat(m) = r else {
            panic!("expected a witness, got {r:?}");
        };
        assert!(m.eval(&ctx, d).as_bool());
    }

    /// The settling stages `seeds[0]`, `seeds[1]`, ….
    fn stages<'a>(
        seeds: &'a [&'a [FxHashMap<TermId, TermId>]],
    ) -> impl FnMut(usize) -> Option<Vec<FxHashMap<TermId, TermId>>> + 'a {
        |k| seeds.get(k).map(|s| s.to_vec())
    }

    /// Runs `f` and returns its result with the counters it moved.
    fn counted<T>(f: impl FnOnce() -> T) -> (T, alive2_obs::JobStats) {
        let snap = alive2_obs::counters_snapshot();
        let r = f();
        let mut d = alive2_obs::JobStats::default();
        d.absorb_since(&snap);
        (r, d)
    }

    #[test]
    fn a_seed_instance_that_folds_settles_without_the_loop() {
        // ∃x,p ∀u. ¬p ∧ (p ∨ u ≠ x) has no witness, but the loop refutes
        // one x at a time. The seed u := x leaves ¬p ∧ p, which only
        // literal propagation folds, so settling needs no rewriter.
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(8));
        let p = ctx.var("p", Sort::Bool);
        let u = ctx.var("u", Sort::BitVec(8));
        let phi = ctx.and(ctx.not(p), ctx.or(p, ctx.ne(u, x)));
        let settle = [FxHashMap::from_iter([(u, x)])];
        let capped = EfConfig {
            max_iterations: 4,
            ..EfConfig::default()
        };
        let (r, d) = counted(|| solve_exists_forall(&ctx, &[u], phi, capped));
        assert!(matches!(r, EfResult::Timeout), "{r:?}");
        assert_eq!(d.cegqi_iter_exhausted, 1, "{d:?}");
        for rewrite in [false, true] {
            let config = EfConfig { rewrite, ..capped };
            let (r, d) = counted(|| {
                solve_exists_forall_with_seeds(
                    &ctx,
                    &[u],
                    phi,
                    config,
                    &[],
                    |_, k| (k == 0).then(|| settle.to_vec()),
                    &[],
                )
            });
            assert!(r.is_unsat(), "rewrite {rewrite}: {r:?}");
            assert_eq!(d.cegqi_iters, 0, "{d:?}");
            assert_eq!(d.incremental_solves + d.sat_solves, 0, "{d:?}");
            // One profile record, with no CNF-size sample.
            assert_eq!(d.h_latency_us.count(), 1, "{d:?}");
            assert!(d.h_cnf_clauses.is_empty(), "{d:?}");
            if !rewrite {
                assert_eq!(d.rewrite_steps, 0, "{d:?}");
            }
        }
        // A settling seed that is also a loop seed settles too.
        let (r, d) = counted(|| {
            solve_exists_forall_with_seeds(
                &ctx,
                &[u],
                phi,
                capped,
                &settle,
                |_, k| (k == 0).then(|| settle.to_vec()),
                &[],
            )
        });
        assert!(r.is_unsat(), "{r:?}");
        assert_eq!(d.cegqi_iters, 0, "{d:?}");
        assert_eq!(d.incremental_solves + d.sat_solves, 0, "{d:?}");
    }

    #[test]
    fn a_seed_instance_that_needs_a_variable_class_settles() {
        // ∃x,w ∀u. x = w ∧ u·w ≠ x·x has no witness: u := x refutes every
        // x. Under the seed u := x the instance is x = w ∧ x·w ≠ x·x,
        // which only folds once w joins x's class; the rewriter alone
        // leaves it, and the loop alone hits a 4-round cap.
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(8));
        let w = ctx.var("w", Sort::BitVec(8));
        let u = ctx.var("u", Sort::BitVec(8));
        let phi = ctx.and(ctx.eq(x, w), ctx.ne(ctx.bv_mul(u, w), ctx.bv_mul(x, x)));
        let settle = [FxHashMap::from_iter([(u, x)])];
        let instance = ctx.substitute(phi, &settle[0]);
        assert_eq!(
            ctx.as_bool_lit(crate::rewrite::simplify(&ctx, instance)),
            None
        );
        let capped = EfConfig {
            max_iterations: 4,
            ..EfConfig::default()
        };
        let (r, d) = counted(|| solve_exists_forall(&ctx, &[u], phi, capped));
        assert!(matches!(r, EfResult::Timeout), "{r:?}");
        assert_eq!(d.cegqi_iter_exhausted, 1, "{d:?}");
        for rewrite in [false, true] {
            let config = EfConfig { rewrite, ..capped };
            let (r, d) = counted(|| {
                solve_exists_forall_with_seeds(
                    &ctx,
                    &[u],
                    phi,
                    config,
                    &[],
                    |_, k| (k == 0).then(|| settle.to_vec()),
                    &[],
                )
            });
            assert!(r.is_unsat(), "rewrite {rewrite}: {r:?}");
            assert_eq!(d.cegqi_iters, 0, "{d:?}");
            assert_eq!(d.incremental_solves + d.sat_solves, 0, "{d:?}");
        }
    }

    #[test]
    fn a_seed_never_settles_an_obligation_with_a_witness() {
        // ∃x,p ∀u. (p ∨ u ≠ x) ∧ (u & x) == u holds with p and x = 0xff.
        // The seed u := x propagates p and folds to true, not false, and
        // the loop still returns a witness the verify step accepts.
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(8));
        let p = ctx.var("p", Sort::Bool);
        let u = ctx.var("u", Sort::BitVec(8));
        let phi = ctx.and(ctx.or(p, ctx.ne(u, x)), ctx.eq(ctx.bv_and(u, x), u));
        let settle = [FxHashMap::from_iter([(u, x)])];
        for rewrite in [false, true] {
            let config = EfConfig {
                rewrite,
                ..EfConfig::default()
            };
            let r = solve_exists_forall_with_seeds(
                &ctx,
                &[u],
                phi,
                config,
                &[],
                |_, k| (k == 0).then(|| settle.to_vec()),
                &[],
            );
            let EfResult::Sat(m) = r else {
                panic!("rewrite {rewrite}: expected a witness, got {r:?}");
            };
            let exist_vars = existentials(ctx.free_vars(phi), &[u]);
            assert!(refute(&ctx, phi, &exist_vars, &m, rewrite, Budget::unlimited()).is_unsat());
        }
    }

    #[test]
    fn settling_agrees_with_brute_force_on_small_problems() {
        // Random ∃x,y,p,r ∀u,q problems over 2-bit vectors with two random
        // seeds, settled as one stage and as one stage per seed: settling
        // may answer Unsat only where brute force finds no witness, and the
        // whole solve must give the brute-force answer. Clauses mix
        // Boolean variables with non-variable atoms (signed and unsigned
        // comparisons, equalities over `bvadd`), alone or under
        // disjunctions, and some problems get a complementary `slt`/`sle`
        // or `ult`/`ule` pair. Some also get top-level equalities between
        // two variables of one sort, Bool pairs included, and a fixed
        // Boolean, so settling meets equality classes and classes fixed to
        // a literal.
        let ctx = Ctx::new();
        let bv2 = |name| ctx.var(name, Sort::BitVec(2));
        let boolean = |name| ctx.var(name, Sort::Bool);
        let (x, y, u) = (bv2("x"), bv2("y"), bv2("u"));
        let (p, r, q) = (boolean("p"), boolean("r"), boolean("q"));
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut rand = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let lit = |v: u64| ctx.bv_lit_u64(2, v);
        let (mut settled, mut changed, mut later) = (0, 0, 0);
        for round in 0..600 {
            let bv = |rand: &mut dyn FnMut(u64) -> u64, over_u: bool| {
                let a = [x, y, lit(rand(4)), u][rand(if over_u { 4 } else { 3 }) as usize];
                match rand(5) {
                    0 => ctx.bv_add(a, [x, lit(1)][rand(2) as usize]),
                    1 => ctx.bv_and(a, x),
                    2 => ctx.bv_not(a),
                    _ => a,
                }
            };
            let mut clauses = Vec::new();
            for _ in 0..1 + rand(3) {
                let mut lits = Vec::new();
                for _ in 0..1 + rand(2) {
                    let (a, b) = (bv(&mut rand, true), bv(&mut rand, true));
                    let atom = match rand(9) {
                        0 => ctx.eq(a, b),
                        1 => ctx.bv_ult(a, b),
                        2 => ctx.bv_ule(a, b),
                        3 => ctx.bv_slt(a, b),
                        4 => ctx.bv_sle(a, b),
                        5 => ctx.eq(ctx.bv_add(a, b), bv(&mut rand, true)),
                        k => [p, q, r][k as usize - 6],
                    };
                    lits.push(if rand(2) == 0 { ctx.not(atom) } else { atom });
                }
                clauses.push(ctx.or_many(&lits));
            }
            // Complementary comparisons: `b < a` and `a ≤ b` are each
            // other's negation as two different atoms. Mostly both
            // top-level; sometimes one sits in a disjunction.
            if rand(3) == 0 {
                let (a, b) = (bv(&mut rand, true), bv(&mut rand, true));
                let (lt, le) = if rand(2) == 0 {
                    (ctx.bv_slt(b, a), ctx.bv_sle(a, b))
                } else {
                    (ctx.bv_ult(b, a), ctx.bv_ule(a, b))
                };
                clauses.push(if rand(2) == 0 { ctx.not(lt) } else { lt });
                clauses.push(match rand(4) {
                    0 => ctx.or(le, [p, r][rand(2) as usize]),
                    1 => ctx.not(le),
                    _ => le,
                });
            }
            // Equalities between two variables: mostly top-level, where
            // they form classes, and sometimes negated or in a disjunction,
            // where they must not.
            let classes = rand(3);
            for _ in 0..classes {
                let vars = if rand(2) == 0 { [x, y, u] } else { [p, r, q] };
                let i = rand(3) as usize;
                let eq = ctx.eq(vars[i], vars[(i + 1 + rand(2) as usize) % 3]);
                clauses.push(match rand(4) {
                    0 => ctx.not(eq),
                    1 => ctx.or(eq, [p, r][rand(2) as usize]),
                    _ => eq,
                });
                if rand(3) == 0 {
                    let b = [p, r][rand(2) as usize];
                    clauses.push(if rand(2) == 0 { ctx.not(b) } else { b });
                }
            }
            let phi = ctx.and_many(&clauses);
            let mut seed = || {
                let u_term = bv(&mut rand, false);
                let q_term = [p, ctx.not(p), r, ctx.eq(x, lit(rand(4)))][rand(4) as usize];
                FxHashMap::from_iter([(u, u_term), (q, q_term)])
            };
            let settle = [seed(), seed()];
            // `e` packs x, y, p, r and `a` packs u, q.
            let holds = |t: TermId, e: u64, a: u64| {
                let mut m = Model::new();
                for (t, val) in [
                    (x, Value::Bv(BitVec::from_u64(2, e & 3))),
                    (y, Value::Bv(BitVec::from_u64(2, e >> 2 & 3))),
                    (p, Value::Bool(e & 16 != 0)),
                    (r, Value::Bool(e & 32 != 0)),
                    (u, Value::Bv(BitVec::from_u64(2, a & 3))),
                    (q, Value::Bool(a & 4 != 0)),
                ] {
                    m.set(ctx.as_var(t).unwrap(), val);
                }
                m.eval(&ctx, t).as_bool()
            };
            let witness = (0..64).any(|e| (0..8).all(|a| holds(phi, e, a)));
            let zero = FxHashMap::from_iter([(u, lit(0)), (q, ctx.fals())]);
            // Propagation keeps an instance satisfiable exactly when it
            // was, and every model of the instance satisfies the result.
            for (i, s) in settle.iter().enumerate() {
                let instance = ctx.substitute(phi, &completed(&zero, s));
                let propagated = propagate_literals(&ctx, instance);
                let sat = |t: TermId| (0..64).any(|e| holds(t, e, 0));
                assert_eq!(
                    sat(instance),
                    sat(propagated),
                    "round {round}: {} became {}",
                    ctx.display(instance),
                    ctx.display(propagated)
                );
                for e in (0..64).filter(|&e| holds(instance, e, 0)) {
                    assert!(
                        holds(propagated, e, 0),
                        "round {round}: {} lost model {e} in {}",
                        ctx.display(instance),
                        ctx.display(propagated)
                    );
                }
                changed += usize::from(i == 0 && classes > 0 && propagated != instance);
            }
            for rewrite in [false, true] {
                let settles = |seeds: &[&[FxHashMap<TermId, TermId>]]| {
                    settled_by_seed(&ctx, phi, &zero, rewrite, stages(seeds))
                };
                let together = settles(&[&settle]);
                let staged = settles(&[&settle[..1], &settle[1..]]);
                for (settles, how) in [(together, "one stage"), (staged, "two stages")] {
                    assert!(
                        !(settles && witness),
                        "round {round}: settled {} under {settle:?} in {how}",
                        ctx.display(phi)
                    );
                }
                settled += usize::from(together);
                later += usize::from(staged && !settles(&[&settle[..1]]));
                let config = EfConfig {
                    rewrite,
                    ..EfConfig::default()
                };
                let r = solve_exists_forall_with_seeds(
                    &ctx,
                    &[u, q],
                    phi,
                    config,
                    &[],
                    |_, k| settle.get(k).map(|s| vec![s.clone()]),
                    &[],
                );
                assert_eq!(r.is_sat(), witness, "round {round}: {r:?}");
                assert_eq!(r.is_unsat(), !witness, "round {round}: {r:?}");
            }
        }
        assert!(settled > 100, "too few problems settled: {settled}");
        assert!(
            later > 20,
            "too few problems settled by the second stage: {later}"
        );
        assert!(
            changed > 100,
            "too few problems with equalities changed: {changed}"
        );
    }

    #[test]
    fn a_later_stage_settles_what_the_first_leaves() {
        // ∃x,p ∀u,v. ¬p ∧ (p ∨ u ≠ x ∨ v ≠ x) has no witness. The first
        // stage maps only u to x and leaves v at zero, which a model with
        // x ≠ 0 survives; the second stage, tried because the first
        // failed, maps v too and settles.
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(8));
        let p = ctx.var("p", Sort::Bool);
        let u = ctx.var("u", Sort::BitVec(8));
        let v = ctx.var("v", Sort::BitVec(8));
        let phi = ctx.and(ctx.not(p), ctx.or_many(&[p, ctx.ne(u, x), ctx.ne(v, x)]));
        let zero = FxHashMap::from_iter([(u, ctx.bv_lit_u64(8, 0)), (v, ctx.bv_lit_u64(8, 0))]);
        let first = [FxHashMap::from_iter([(u, x)])];
        let second = [FxHashMap::from_iter([(u, x), (v, x)])];
        for rewrite in [false, true] {
            assert!(!settled_by_seed(
                &ctx,
                phi,
                &zero,
                rewrite,
                stages(&[&first])
            ));
            assert!(settled_by_seed(
                &ctx,
                phi,
                &zero,
                rewrite,
                stages(&[&first, &second])
            ));
        }
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
