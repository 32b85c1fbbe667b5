//! The bounded translation validator: checks that a target function
//! refines a source function (paper §5, §6).
//!
//! Refinement is discharged as a sequence of smaller queries (§5.3) — this
//! both yields precise error messages and keeps each SMT problem small.
//! Every query is the *negation* of a refinement condition, solved as
//! `∃ inputs, N_tgt. ∀ N_src. violation`, so a `Sat` answer is a
//! counterexample and `Unsat` means that part of refinement holds.

use crate::refine::{memory_refined_at, value_refined};
use crate::report::{CounterExample, QueryKind};
use alive2_ir::function::Function;
use alive2_ir::module::Module;
use alive2_obs::Phase;
use alive2_sema::config::EncodeConfig;
use alive2_sema::encode::{encode_function, CallSite, EncodeError, EncodedFn, Env};
use alive2_sema::value::SymValue;
use alive2_smt::ackermann::ackermannize;
use alive2_smt::exists_forall::{solve_exists_forall_with_seeds, EfConfig, EfResult};
use alive2_smt::fxhash::{FxHashMap, FxHashSet, FxHasher};
use alive2_smt::model::Model;
use alive2_smt::sat::Budget;
use alive2_smt::solver::{SmtResult, Solver};
use alive2_smt::term::{Ctx, Sort, TermId, VarId};
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// The outcome of validating one function pair.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// The target refines the source within the bound.
    Correct,
    /// Refinement is violated; the report describes the counterexample.
    Incorrect(CounterExample),
    /// A counterexample exists but depends on an over-approximated feature
    /// (§3.8): nothing can be concluded. The strings name the features.
    Inconclusive(Vec<String>),
    /// The combined precondition is unsatisfiable (encoding bug or
    /// vacuous pair) — reported rather than silently passing (§5.3 step 1).
    PreconditionFalse,
    /// Resource budget exhausted.
    Timeout,
    /// Memory budget exhausted.
    OutOfMemory,
    /// The pair uses unsupported features and was skipped (§3.8).
    Unsupported(String),
    /// The validator itself panicked on this job; the string is the panic
    /// payload. A crash is contained to its job (the worker pool keeps
    /// running) and counted in its own Fig. 7-style column, mirroring how
    /// the paper's harness survives per-test validator failures (§8.2).
    Crash(String),
}

impl Verdict {
    /// True for `Correct`.
    pub fn is_correct(&self) -> bool {
        matches!(self, Verdict::Correct)
    }

    /// True for `Incorrect`.
    pub fn is_incorrect(&self) -> bool {
        matches!(self, Verdict::Incorrect(_))
    }

    /// A short, stable name for the verdict class — the journal's and the
    /// summary JSON's `verdict` field, and the Fig. 7 column the verdict
    /// counts toward.
    pub fn kind(&self) -> &'static str {
        match self {
            Verdict::Correct => "correct",
            Verdict::Incorrect(_) => "incorrect",
            Verdict::Inconclusive(_) => "inconclusive",
            Verdict::PreconditionFalse => "precondition_false",
            Verdict::Timeout => "timeout",
            Verdict::OutOfMemory => "oom",
            Verdict::Unsupported(_) => "unsupported",
            Verdict::Crash(_) => "crash",
        }
    }
}

/// Statistics for one validation job: [`alive2_obs::JobStats`] — query
/// counts, SMT sat/unsat/unknown splits, CEGQI iterations, term-DAG and
/// hash-cons meters, per-phase busy time, and the furthest
/// [`Phase`](alive2_obs::Phase) the job reached.
pub use alive2_obs::JobStats as ValidateStats;

/// Validates that `tgt` refines `src` under the given module and
/// configuration.
pub fn validate_pair(
    module: &Module,
    src: &Function,
    tgt: &Function,
    cfg: &EncodeConfig,
) -> Verdict {
    validate_pair_with_stats(module, src, tgt, cfg).0
}

/// Like [`validate_pair`], also returning statistics.
pub fn validate_pair_with_stats(
    module: &Module,
    src: &Function,
    tgt: &Function,
    cfg: &EncodeConfig,
) -> (Verdict, ValidateStats) {
    validate_pair_with_deadline(module, src, tgt, cfg, None)
}

/// Like [`validate_pair_with_stats`], additionally bounded by an absolute
/// wall-clock deadline shared by every query of this pair (the engine's
/// per-job cap). Exceeding it yields [`Verdict::Timeout`].
pub fn validate_pair_with_deadline(
    module: &Module,
    src: &Function,
    tgt: &Function,
    cfg: &EncodeConfig,
    deadline: Option<Instant>,
) -> (Verdict, ValidateStats) {
    let start = Instant::now();
    let snap = alive2_obs::counters_snapshot();
    let mut stats = ValidateStats {
        phase: Phase::Encode,
        ..ValidateStats::default()
    };
    alive2_obs::set_job_phase(Phase::Encode);

    // Finalizes the stats record: counter deltas since job start, the
    // term-context meters, wall time, and the final phase (`Done` for
    // conclusive verdicts; the firing phase for Timeout/OOM/Unsupported,
    // which is what the journal and crash triage report).
    let seal =
        |mut stats: ValidateStats, v: Verdict, ctx: Option<&Ctx>| -> (Verdict, ValidateStats) {
            stats.absorb_since(&snap);
            if let Some(ctx) = ctx {
                stats.terms = ctx.num_terms() as u32;
                stats.mem_bytes = ctx.mem_bytes() as u64;
                stats.hc_hits = ctx.hc_hits();
                stats.hc_misses = ctx.hc_misses();
            }
            stats.millis = start.elapsed().as_millis() as u64;
            if matches!(
                v,
                Verdict::Correct
                    | Verdict::Incorrect(_)
                    | Verdict::Inconclusive(_)
                    | Verdict::PreconditionFalse
            ) {
                stats.phase = Phase::Done;
            }
            alive2_obs::set_job_phase(stats.phase);
            (v, stats)
        };
    let past_deadline = || deadline.is_some_and(|d| Instant::now() >= d);

    // Times the term-context teardown: dropping the env frees the
    // hash-cons tables and the term DAG, which scales with peak term
    // count — real per-job cost that would otherwise show up only as a
    // busy-time-vs-wall-time gap. Every return path that owns an env
    // goes through here so the Teardown phase captures all of it.
    let finish = |out: (Verdict, ValidateStats), env: Env| -> (Verdict, ValidateStats) {
        let _sp = alive2_obs::span(Phase::Teardown);
        drop(env);
        out
    };

    if past_deadline() {
        return seal(stats, Verdict::Timeout, None);
    }
    let env = {
        let _sp = alive2_obs::span(Phase::Encode);
        Env::new(*cfg, module, src).map(|env| env.with_deadline(deadline))
    };
    let env = match env {
        Ok(e) => e,
        Err(u) => return seal(stats, Verdict::Unsupported(u.reason), None),
    };
    // Encoding polls the deadline once per instruction, so a deadline
    // that passes mid-function is reported as a timeout in the *encode*
    // phase rather than lingering until the first SAT-budget boundary
    // deep in the solve phase.
    let stopped = |e: EncodeError| match e {
        EncodeError::Unsupported(u) => Verdict::Unsupported(u.reason),
        EncodeError::OutOfMemory => Verdict::OutOfMemory,
        EncodeError::Timeout => Verdict::Timeout,
    };
    let mut src_enc = match encode_function(&env, src) {
        Ok(e) => e,
        Err(e) => {
            let sealed = seal(stats, stopped(e), Some(&env.ctx));
            return finish(sealed, env);
        }
    };
    let mut tgt_enc = match encode_function(&env, tgt) {
        Ok(e) => e,
        Err(e) => {
            let sealed = seal(stats, stopped(e), Some(&env.ctx));
            return finish(sealed, env);
        }
    };
    // The same check once more for the target's tail after its last
    // instruction.
    if past_deadline() {
        let sealed = seal(stats, Verdict::Timeout, Some(&env.ctx));
        return finish(sealed, env);
    }
    stats.phase = Phase::Solve;
    alive2_obs::set_job_phase(Phase::Solve);
    let v = {
        let _sp = alive2_obs::span(Phase::Solve);
        check_refinement(&env, &mut src_enc, &mut tgt_enc, cfg, deadline, &mut stats)
    };
    let sealed = seal(stats, v, Some(&env.ctx));
    // The encoded functions hold only ids into the env's context; drop
    // them first so `finish` times the whole context teardown.
    drop(src_enc);
    drop(tgt_enc);
    finish(sealed, env)
}

/// Builds the §6 call-relation constraints.
fn call_constraints(ctx: &Ctx, src_calls: &[CallSite], tgt_calls: &[CallSite]) -> TermId {
    let mut parts: Vec<TermId> = Vec::new();

    // Case 1: two calls in the source with equal inputs produce equal
    // outputs (the strengthened, equality-based condition the paper uses).
    for i in 0..src_calls.len() {
        for j in (i + 1)..src_calls.len() {
            let (a, b) = (&src_calls[i], &src_calls[j]);
            if a.match_class != b.match_class || a.arg_values.len() != b.arg_values.len() {
                continue;
            }
            // §6 optimization: only relate calls whose preceding-call
            // ranges overlap; our single-path `seq` is exactly that rank,
            // and differing ranks mean another call (which may have changed
            // memory) sits between them.
            if a.seq.abs_diff(b.seq) > 1 {
                continue;
            }
            let mut eq_in = vec![ctx.and(a.guard, b.guard)];
            for (x, y) in a.arg_values.iter().zip(&b.arg_values) {
                eq_in.push(ctx.eq(*x, *y));
            }
            for (x, y) in a.arg_poisons.iter().zip(&b.arg_poisons) {
                eq_in.push(ctx.eq(*x, *y));
            }
            let same = ctx.and_many(&eq_in);
            let mut eq_out = vec![ctx.eq(a.ub_var, b.ub_var)];
            if let (Some(va), Some(vb)) = (a.ret_value, b.ret_value) {
                eq_out.push(ctx.eq(va, vb));
            }
            if let (Some(pa), Some(pb)) = (a.ret_poison, b.ret_poison) {
                eq_out.push(ctx.eq(pa, pb));
            }
            parts.push(ctx.implies(same, ctx.and_many(&eq_out)));
        }
    }

    // Case 3: each target call must correspond to some source call with
    // equal inputs; its outputs then refine that call's outputs. A call
    // with no correspondent is treated as target UB (§6).
    for t in tgt_calls {
        let candidates: Vec<&CallSite> = src_calls
            .iter()
            .filter(|s| s.match_class == t.match_class && s.arg_values.len() == t.arg_values.len())
            .collect();
        let mut matches: Vec<TermId> = Vec::new();
        for s in &candidates {
            let mut eq_in = vec![s.guard];
            for (x, y) in s.arg_values.iter().zip(&t.arg_values) {
                eq_in.push(ctx.eq(*x, *y));
            }
            for (x, y) in s.arg_poisons.iter().zip(&t.arg_poisons) {
                eq_in.push(ctx.eq(*x, *y));
            }
            matches.push(ctx.and_many(&eq_in));
        }
        // Output binding: the first matching source call wins.
        let mut no_earlier = ctx.tru();
        let mut bound = Vec::new();
        for (k, s) in candidates.iter().enumerate() {
            let selected = ctx.and(matches[k], no_earlier);
            let mut out = vec![ctx.implies(t.ub_var, s.ub_var)];
            if let (Some(vs), Some(vt)) = (s.ret_value, t.ret_value) {
                let ps = s.ret_poison.expect("poison flag accompanies value");
                let pt = t.ret_poison.expect("poison flag accompanies value");
                // Source poison is refined by anything; otherwise outputs
                // are equal and not poison.
                let exact = ctx.and(ctx.eq(vs, vt), ctx.not(pt));
                out.push(ctx.or(ps, exact));
            }
            bound.push(ctx.implies(ctx.and(t.guard, selected), ctx.and_many(&out)));
            no_earlier = ctx.and(no_earlier, ctx.not(matches[k]));
        }
        // No match at all: the call is new in the target — UB.
        bound.push(ctx.implies(ctx.and(t.guard, no_earlier), t.ub_var));
        parts.extend(bound);
    }
    ctx.and_many(&parts)
}

/// How [`build_seed`] assigns pool entries to universals.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SeedMode {
    /// k-th universal of a group gets the k-th pool entry; extras unmapped.
    InOrder,
    /// Like `InOrder` but wrapping around the pool (round-robin).
    RoundRobin,
    /// Every universal of a group maps to the group's *last* pool entry —
    /// the "all observations equal the target's final choice" witness.
    AllToLast,
}

/// The group of every universal and pool term of one query, `(name
/// class, sort)`: variables with equal names share a class, and class 0
/// holds the unnamed, non-variable pool terms. Built once per query, so
/// seeding compares names once per term and never copies one.
struct SeedGroups {
    of: FxHashMap<TermId, (u32, Sort)>,
}

impl SeedGroups {
    fn new(ctx: &Ctx, terms: impl IntoIterator<Item = TermId>) -> SeedGroups {
        // Name hash → every (variable, class) seen with a name of that hash.
        let mut named: FxHashMap<u64, Vec<(VarId, u32)>> = FxHashMap::default();
        let mut classes = 0u32;
        let mut of = FxHashMap::default();
        for t in terms {
            let mut class = 0;
            if let Some(v) = ctx.as_var(t) {
                let hash = ctx.with_var_name(v, |n| {
                    let mut h = FxHasher::default();
                    n.hash(&mut h);
                    (!n.is_empty()).then(|| h.finish())
                });
                if let Some(hash) = hash {
                    let same_hash = named.entry(hash).or_default();
                    let same_name = |&&(w, _): &&(VarId, u32)| {
                        ctx.with_var_name(v, |a| ctx.with_var_name(w, |b| a == b))
                    };
                    class = match same_hash.iter().find(same_name) {
                        Some(&(_, c)) => c,
                        None => {
                            classes += 1;
                            same_hash.push((v, classes));
                            classes
                        }
                    };
                }
            }
            of.insert(t, (class, ctx.sort(t)));
        }
        SeedGroups { of }
    }
}

/// Builds the symbolic seed instantiation of every [`SeedMode`] for
/// CEGQI, in the order CEGQI adds them: source non-determinism variables
/// are matched with entries from a pool of target-side terms. Universals
/// go in creation order. Each one is matched within its group, (name,
/// sort), since encoders name their non-determinism by provenance
/// ("undef", "freeze", …); when its group has no entry to give, it falls
/// back to every pool term of its sort, which includes non-variable terms
/// such as the target's return value. The mode picks the entry:
///
/// - [`SeedMode::InOrder`]: the k-th universal of a group gets the k-th
///   entry; a universal left over after both pools stays unmapped;
/// - [`SeedMode::RoundRobin`]: the same, wrapping around the pool, so
///   several universals can share one target term (e.g. `x+x` vs `2*x`);
/// - [`SeedMode::AllToLast`]: every universal gets the pool's last entry.
///
/// Source and target encode similar code, so "the source's k-th undef
/// choice equals the target's k-th" is usually exactly the witness that
/// lets the source reproduce the target's behavior, collapsing the CEGQI
/// loop to one iteration. Purely heuristic: soundness and completeness do
/// not depend on seed quality.
///
/// Seed settling calls this a second time with *live* terms only: the
/// universals and the pool variables that occur free in φ (non-variable
/// pool terms stay). An undef register is re-instantiated on every read,
/// so earlier instantiations are often dead in φ, and in creation order
/// they would take the pool entries the live ones need.
fn build_seeds(
    groups: &SeedGroups,
    universals: &[TermId],
    pool: &[TermId],
) -> [FxHashMap<TermId, TermId>; 3] {
    // Group pool terms by (name, sort) for variables — encoders name their
    // non-determinism by provenance ("undef", "uninit", "freeze",
    // "nan_pattern", …), so like matches like — and by sort alone for
    // non-variable pool terms (e.g. the target's return-value expression).
    let mut by_group: FxHashMap<(u32, Sort), Vec<TermId>> = FxHashMap::default();
    let mut by_sort: FxHashMap<Sort, Vec<TermId>> = FxHashMap::default();
    for &t in pool {
        let g = groups.of[&t];
        by_group.entry(g).or_default().push(t);
        by_sort.entry(g.1).or_default().push(t);
    }
    let mut ordered = universals.to_vec();
    ordered.sort();
    [SeedMode::InOrder, SeedMode::RoundRobin, SeedMode::AllToLast]
        .map(|mode| build_seed(groups, &ordered, &by_group, &by_sort, mode))
}

/// The seed of one mode (see [`build_seeds`]) for the universals in
/// creation order, `ordered`.
fn build_seed(
    groups: &SeedGroups,
    ordered: &[TermId],
    by_group: &FxHashMap<(u32, Sort), Vec<TermId>>,
    by_sort: &FxHashMap<Sort, Vec<TermId>>,
    mode: SeedMode,
) -> FxHashMap<TermId, TermId> {
    let mut gcursor: FxHashMap<(u32, Sort), usize> = FxHashMap::default();
    let mut scursor: FxHashMap<Sort, usize> = FxHashMap::default();
    let mut seed = FxHashMap::default();
    for &u in ordered {
        let g = groups.of[&u];
        let pick = |p: &Vec<TermId>, c: &mut usize| -> Option<TermId> {
            if p.is_empty() {
                return None;
            }
            match mode {
                // `last()` rather than indexing: a seed pool can go empty
                // (e.g. every candidate was filtered by sort), and an
                // empty pool must mean "no seed", not a panic.
                SeedMode::AllToLast => p.last().copied(),
                SeedMode::InOrder => {
                    if *c < p.len() {
                        let t = p[*c];
                        *c += 1;
                        Some(t)
                    } else {
                        None
                    }
                }
                SeedMode::RoundRobin => {
                    let t = p[*c % p.len()];
                    *c += 1;
                    Some(t)
                }
            }
        };
        if let Some(p) = by_group.get(&g) {
            let c = gcursor.entry(g).or_insert(0);
            if let Some(t) = pick(p, c) {
                seed.insert(u, t);
                continue;
            }
        }
        if let Some(p) = by_sort.get(&g.1) {
            let c = scursor.entry(g.1).or_insert(0);
            if let Some(t) = pick(p, c) {
                seed.insert(u, t);
            }
        }
    }
    seed
}

/// The *matched* settling seed: walks each (source term, target term)
/// pair of `pairs` in parallel, depth first and operands in order, and
/// binds every universal that is `live` (free in φ) to the target term in
/// the same position. Positions line up where the two operators agree;
/// where they differ, each operand of the source term that has the target
/// term's sort is paired with the whole target term, which maps `or %a,
/// %a` onto the `%a` that replaced it. A pair of different sorts binds
/// nothing, the first binding of a universal wins, and a target term
/// that holds a universal or an application is never bound, so the
/// instance stays a term over the existentials with no application, like
/// φ. The walk visits each pair once and reads no hash-map order, so the
/// seed depends only on the terms.
///
/// The positional seeds of [`build_seeds`] pair universals with pool
/// entries by creation order, which misses when an optimization removed
/// or merged reads: after `%v = or %a, %a; mul %a, %v` → `mul %a, %a`,
/// the source has three reads of `%a` and the target two, and the third
/// takes the wrong one.
fn matched_seed(
    ctx: &Ctx,
    live: &FxHashSet<TermId>,
    universals: &FxHashSet<TermId>,
    pairs: &[(TermId, TermId)],
) -> FxHashMap<TermId, TermId> {
    let plain =
        |t: TermId| !ctx.has_apply(t) && ctx.free_vars(t).iter().all(|v| !universals.contains(v));
    let mut seed = FxHashMap::default();
    let mut bindable: FxHashMap<TermId, bool> = FxHashMap::default();
    let mut seen: FxHashSet<(TermId, TermId)> = FxHashSet::default();
    let mut stack: Vec<(TermId, TermId)> = pairs.iter().rev().copied().collect();
    while let Some((s, t)) = stack.pop() {
        if s == t || ctx.sort(s) != ctx.sort(t) || !seen.insert((s, t)) {
            continue;
        }
        if universals.contains(&s) {
            if live.contains(&s)
                && !seed.contains_key(&s)
                && *bindable.entry(t).or_insert_with(|| plain(t))
            {
                seed.insert(s, t);
            }
            continue;
        }
        let (sargs, targs) = (ctx.args(s), ctx.args(t));
        let next = stack.len();
        if ctx.op(s) == ctx.op(t) && sargs.len() == targs.len() {
            stack.extend(sargs.iter().copied().zip(targs.iter().copied()));
        } else {
            stack.extend(sargs.iter().map(|&a| (a, t)));
        }
        stack[next..].reverse();
    }
    seed
}

/// The `(value, poison)` pairs of two return values, element by element
/// through aggregates of one shape, for [`matched_seed`].
fn value_pairs(s: &SymValue, t: &SymValue, out: &mut Vec<(TermId, TermId)>) {
    match (s, t) {
        (SymValue::Scalar(s), SymValue::Scalar(t)) => {
            out.extend([(s.value, t.value), (s.poison, t.poison)]);
        }
        (SymValue::Aggregate(s), SymValue::Aggregate(t)) if s.len() == t.len() => {
            for (s, t) in s.iter().zip(t) {
                value_pairs(s, t, out);
            }
        }
        _ => {}
    }
}

/// Shared state for dispatching the §5.3 queries.
struct QueryEngine<'a> {
    ctx: &'a Ctx,
    /// Existential-side precondition: argument attributes, the target's
    /// own precondition, and the §6 call relation (definitional for every
    /// choice of source non-determinism, hence a plain conjunct).
    pre_exist: TermId,
    /// The source function's precondition (sink unreachability §7,
    /// NaN-pattern constraints §3.5): a *hypothesis* over the universals.
    pre_src: TermId,
    /// The free variables of `pre_src`, fixed per pair.
    pre_vars: FxHashSet<TermId>,
    universals: Vec<TermId>,
    pool: Vec<TermId>,
    overapprox_vars: Vec<TermId>,
    /// Every argument's `isundef` and `ispoison` flag: a counterexample
    /// prefers defined inputs when one exists.
    input_flags: Vec<TermId>,
    /// The (source, target) term pairs every query compares, for the
    /// matched settling seed: UB, the return domain, no-return, the
    /// return value and its poison, and each call's guard, arguments and
    /// argument poisons by call index.
    pairs: Vec<(TermId, TermId)>,
    ef: EfConfig,
}

impl<'a> QueryEngine<'a> {
    /// Runs one negated-refinement query. `extra_universals` join the ∀
    /// side (per-query source refreshes); `extra_pool` extends the seed
    /// pool (per-query target refreshes and output terms), and
    /// `extra_pairs` the matched seed's pairs. Returns `None` when the
    /// property holds.
    fn run(
        &self,
        env: &Env,
        kind: QueryKind,
        violation: TermId,
        extra_universals: &[TermId],
        extra_pool: &[TermId],
        extra_pairs: &[(TermId, TermId)],
        stats: &mut ValidateStats,
    ) -> Option<Verdict> {
        stats.queries += 1;
        let ctx = self.ctx;
        // Query construction (ackermannization, undef refreshes, seed
        // substitutions) allocates terms too; stop before building more on
        // an already-exhausted context.
        if ctx.over_budget() {
            return Some(Verdict::OutOfMemory);
        }
        // The source precondition is a hypothesis on the ∀ side (§5.2:
        // `pre_src(I, N_src) ⇒ …` inside the ∀, plus an `∃N_src. pre_src`
        // non-vacuity conjunct realized with fresh existential copies).
        let mut univ0: Vec<TermId> = self
            .universals
            .iter()
            .chain(extra_universals)
            .copied()
            .collect();
        let pre_mentions_universals = univ0.iter().any(|u| self.pre_vars.contains(u));
        let src_part = if pre_mentions_universals {
            let mut rename = FxHashMap::default();
            for &u in &univ0 {
                if self.pre_vars.contains(&u) {
                    let fresh = ctx.var("nonvac", ctx.sort(u));
                    rename.insert(u, fresh);
                }
            }
            let pre_copy = ctx.substitute(self.pre_src, &rename);
            let hyp = ctx.implies(self.pre_src, violation);
            ctx.and(pre_copy, hyp)
        } else {
            ctx.and(self.pre_src, violation)
        };
        let phi0 = ctx.and(self.pre_exist, src_part);

        // Uninterpreted functions must be eliminated before the ∃∀ split;
        // the solvers take QF_BV, so nothing downstream does it. An
        // application whose arguments mention universal variables denotes a
        // value that varies with the ∀ side; we soundly over-approximate it
        // as a fresh universal (dropping its functional-consistency links),
        // which can only hide counterexamples — never invent them. One
        // that rests on a §3.8 over-approximation would have been
        // reported as inconclusive anyway; the others are memory reads.
        let ack = ackermannize(ctx, phi0);
        let mut phi = ack.formula;
        let mut universals: Vec<TermId> = std::mem::take(&mut univ0);
        let uni_set: FxHashSet<TermId> = universals.iter().copied().collect();
        let mut forall_apps: FxHashSet<TermId> = Default::default();
        let mut exists_apps: Vec<TermId> = Vec::new();
        for (app, var) in &ack.app_vars {
            let deps = ctx.free_vars(*app);
            if deps.iter().any(|d| uni_set.contains(d)) {
                universals.push(*var);
                forall_apps.insert(*var);
            } else {
                exists_apps.push(*var);
            }
        }
        let mut kept = Vec::new();
        for &c in &ack.constraints {
            let deps = ctx.free_vars(c);
            if deps.iter().all(|d| !forall_apps.contains(d)) {
                kept.push(c);
            }
        }
        phi = ctx.and(phi, ctx.and_many(&kept));

        let mut pool: Vec<TermId> = self.pool.clone();
        pool.extend(exists_apps);
        pool.extend(extra_pool);
        #[cfg(test)]
        tests::SEED_POOLS_APPLY
            .with(|p| p.borrow_mut().push(pool.iter().any(|&t| ctx.has_apply(t))));
        let groups = SeedGroups::new(ctx, universals.iter().chain(&pool).copied());
        let seeds = build_seeds(&groups, &universals, &pool);
        // The settling stages (`live` is φ's free variables): the same
        // three maps over φ's live terms, then, if they fail, the matched
        // seed.
        let settle = |live: &FxHashSet<TermId>, stage: usize| match stage {
            0 => {
                let live_universals: Vec<TermId> = universals
                    .iter()
                    .copied()
                    .filter(|u| live.contains(u))
                    .collect();
                let live_pool: Vec<TermId> = pool
                    .iter()
                    .copied()
                    .filter(|t| ctx.as_var(*t).is_none() || live.contains(t))
                    .collect();
                Some(Vec::from(build_seeds(
                    &groups,
                    &live_universals,
                    &live_pool,
                )))
            }
            // A matched seed that binds nothing would only add the zero
            // instance, which the loop's first check holds anyway.
            1 => {
                let all: FxHashSet<TermId> = universals.iter().copied().collect();
                let pairs: Vec<(TermId, TermId)> =
                    self.pairs.iter().chain(extra_pairs).copied().collect();
                let seed = matched_seed(ctx, live, &all, &pairs);
                (!seed.is_empty()).then(|| vec![seed])
            }
            _ => None,
        };
        match solve_exists_forall_with_seeds(
            ctx,
            &universals,
            phi,
            self.ef,
            &seeds,
            settle,
            &self.input_flags,
        ) {
            EfResult::Unsat => None,
            EfResult::Timeout => Some(Verdict::Timeout),
            EfResult::OutOfMemory => Some(Verdict::OutOfMemory),
            EfResult::Sat(model) => {
                // §3.8: if the model constrains any over-approximated
                // feature, the counterexample is inconclusive.
                let tainted: Vec<String> = self
                    .overapprox_vars
                    .iter()
                    .filter(|v| {
                        ctx.as_var(**v)
                            .map(|id| model.contains(id))
                            .unwrap_or(false)
                    })
                    .map(|v| ctx.var_name(ctx.as_var(*v).unwrap()))
                    .collect();
                if !tainted.is_empty() {
                    return Some(Verdict::Inconclusive(tainted));
                }
                Some(Verdict::Incorrect(CounterExample::build(env, &model, kind)))
            }
        }
    }
}

fn check_refinement(
    env: &Env,
    src: &mut EncodedFn,
    tgt: &mut EncodedFn,
    cfg: &EncodeConfig,
    deadline: Option<Instant>,
    stats: &mut ValidateStats,
) -> Verdict {
    let ctx = &env.ctx;
    let calls = call_constraints(ctx, &src.calls, &tgt.calls);
    let pre_exist = ctx.and_many(&[env.pre, tgt.pre, calls]);
    let pre_src = src.pre;
    let pre = ctx.and(pre_exist, pre_src);
    // Source non-determinism (undef instantiations, freeze picks,
    // uninitialized memory) is universally quantified in the negated
    // refinement. Call outputs are *not*: an unknown callee is a fixed (if
    // unknown) function, so its outputs quantify with the inputs — the
    // violation may pick any callee behavior consistent with the §6 call
    // relation, and refinement must survive all of them.
    let universals: Vec<TermId> = src.nondet.clone();
    let tgt_pool: Vec<TermId> = tgt.nondet.clone();
    let ef = EfConfig {
        budget: Budget {
            max_millis: cfg.solver_timeout_ms,
            max_learned_lits: cfg.solver_memory,
            ..Budget::unlimited()
        }
        .with_deadline(deadline),
        max_iterations: cfg.max_ef_iterations,
        max_millis: cfg.solver_timeout_ms.saturating_mul(4),
        rewrite: cfg.rewrite,
    };

    // Query 1 (§5.3): is the precondition satisfiable at all? Every
    // variable of it is existential, so Ackermannization is exact here.
    stats.queries += 1;
    if ctx.over_budget() {
        return Verdict::OutOfMemory;
    }
    {
        let ack = ackermannize(ctx, pre);
        let mut s = Solver::new(ctx);
        s.set_rewrite(cfg.rewrite);
        s.assert(ack.formula);
        for &c in &ack.constraints {
            s.assert(c);
        }
        match s.check(ef.budget) {
            SmtResult::Unsat => return Verdict::PreconditionFalse,
            SmtResult::Timeout => return Verdict::Timeout,
            SmtResult::OutOfMemory => return Verdict::OutOfMemory,
            SmtResult::Sat(_) => {}
        }
    }

    let overapprox_vars: Vec<TermId> = {
        let roots: Vec<TermId> = src
            .overapprox
            .iter()
            .chain(&tgt.overapprox)
            .copied()
            .collect();
        let mut vars: Vec<TermId> = ctx.free_vars_many(&roots).into_iter().collect();
        vars.sort_unstable();
        vars
    };

    let mut pairs = vec![
        (src.ub, tgt.ub),
        (src.returns, tgt.returns),
        (src.noreturn, tgt.noreturn),
    ];
    if let (Some(s), Some(t)) = (&src.ret, &tgt.ret) {
        value_pairs(s, t, &mut pairs);
    }
    for (s, t) in src.calls.iter().zip(&tgt.calls) {
        pairs.push((s.guard, t.guard));
        pairs.extend(
            s.arg_values
                .iter()
                .copied()
                .zip(t.arg_values.iter().copied()),
        );
        pairs.extend(
            s.arg_poisons
                .iter()
                .copied()
                .zip(t.arg_poisons.iter().copied()),
        );
    }
    let engine = QueryEngine {
        ctx,
        pre_exist,
        pre_src,
        pre_vars: ctx.free_vars(pre_src),
        universals,
        pool: tgt_pool,
        overapprox_vars,
        input_flags: env
            .args
            .iter()
            .flat_map(|a| &a.vars)
            .flat_map(|v| [v.isundef, v.ispoison])
            .collect(),
        pairs,
        ef,
    };

    let not_src_ub = ctx.not(src.ub);

    // Query 2: target is UB only when the source is.
    if let Some(v) = engine.run(
        env,
        QueryKind::TargetMoreUb,
        ctx.and(tgt.ub, not_src_ub),
        &[],
        &[],
        &[],
        stats,
    ) {
        return v;
    }

    // Query 2b: no new observable calls. Introducing a call the source
    // never made violates refinement (§6); we compare per-class executed
    // call counts.
    {
        let mut classes: Vec<&str> = tgt.calls.iter().map(|c| c.match_class.as_str()).collect();
        classes.sort_unstable();
        classes.dedup();
        let mut viols = Vec::new();
        for class in classes {
            let count = |calls: &[alive2_sema::encode::CallSite]| -> TermId {
                let mut acc = ctx.bv_lit_u64(8, 0);
                for c in calls.iter().filter(|c| c.match_class == class) {
                    let one = ctx.ite(c.guard, ctx.bv_lit_u64(8, 1), ctx.bv_lit_u64(8, 0));
                    acc = ctx.bv_add(acc, one);
                }
                acc
            };
            let s_count = count(&src.calls);
            let t_count = count(&tgt.calls);
            viols.push(ctx.bv_ugt(t_count, s_count));
        }
        let any = ctx.or_many(&viols);
        if let Some(v) = engine.run(
            env,
            QueryKind::CallIntroduced,
            ctx.and(any, not_src_ub),
            &[],
            &[],
            &[],
            stats,
        ) {
            return v;
        }
    }

    // Query 3: equal return domains (modulo source UB).
    let dom_diff = ctx.bxor(src.returns, tgt.returns);
    if let Some(v) = engine.run(
        env,
        QueryKind::ReturnDomain,
        ctx.and(dom_diff, not_src_ub),
        &[],
        &[],
        &[],
        stats,
    ) {
        return v;
    }
    let noret_diff = ctx.bxor(src.noreturn, tgt.noreturn);
    if let Some(v) = engine.run(
        env,
        QueryKind::ReturnDomain,
        ctx.and(noret_diff, not_src_ub),
        &[],
        &[],
        &[],
        stats,
    ) {
        return v;
    }

    // Queries 4–6 concern the return value.
    if let (Some(s_ret), Some(t_ret)) = (&src.ret, &tgt.ret) {
        let both = ctx.and(src.returns, tgt.returns);
        let live = ctx.and(both, not_src_ub);
        let t_flat = t_ret.flatten(ctx);
        // The return value is the seed pool's one non-variable term. A
        // seed instantiates φ, which holds no application, so a value
        // that reads memory through one stays out of the pool.
        let ret_pool: &[TermId] = if ctx.has_apply(t_flat.value) {
            &[]
        } else {
            std::slice::from_ref(&t_flat.value)
        };

        // Query 4: target poison only where source poison.
        let sp = s_ret.any_poison(ctx);
        let tp = t_ret.any_poison(ctx);
        let viol4 = ctx.and_many(&[live, tp, ctx.not(sp)]);
        if let Some(v) = engine.run(env, QueryKind::RetPoison, viol4, &[], ret_pool, &[], stats) {
            return v;
        }

        // Query 5: target undef only where source undef (or poison).
        // Undef-ness is "two fresh instantiations can differ" (§3.3); the
        // target's instantiations are existential, the source's universal.
        let mut tgt_fresh = Vec::new();
        let t_a = t_ret.refresh_undef(ctx, &mut tgt_fresh).flatten(ctx);
        let t_b = t_ret.refresh_undef(ctx, &mut tgt_fresh).flatten(ctx);
        let tgt_undef = ctx.ne(t_a.value, t_b.value);
        let mut src_univ = Vec::new();
        let s_a = s_ret.refresh_undef(ctx, &mut src_univ).flatten(ctx);
        let s_b = s_ret.refresh_undef(ctx, &mut src_univ).flatten(ctx);
        let src_undef = ctx.ne(s_a.value, s_b.value);
        let viol5 = ctx.and_many(&[
            live,
            tgt_undef,
            ctx.not(src_undef),
            ctx.not(sp),
            ctx.not(tp),
        ]);
        let mut pool5 = tgt_fresh.clone();
        pool5.extend_from_slice(ret_pool);
        let pairs5 = [(s_a.value, t_a.value), (s_b.value, t_b.value)];
        if let Some(v) = engine.run(
            env,
            QueryKind::RetUndef,
            viol5,
            &src_univ,
            &pool5,
            &pairs5,
            stats,
        ) {
            return v;
        }

        // Query 6: values refine (equal up to the Fig. 4 rules) when the
        // source is well-defined.
        let refined = value_refined(ctx, cfg, env.shared_blocks, &src.ret_ty, s_ret, t_ret);
        let viol6 = ctx.and(live, ctx.not(refined));
        if let Some(v) = engine.run(env, QueryKind::RetValue, viol6, &[], ret_pool, &[], stats) {
            return v;
        }
    }

    // Query 7: memory refinement at a symbolic address.
    {
        let addr = ctx.var("cex_addr", Sort::BitVec(cfg.ptr_bits()));
        let mut src_fresh = Vec::new();
        let mut tgt_fresh = Vec::new();
        let refined = memory_refined_at(
            ctx,
            &mut src.mem,
            &mut tgt.mem,
            addr,
            &mut src_fresh,
            &mut tgt_fresh,
        );
        let both_done = ctx.or(src.returns, src.noreturn);
        let viol7 = ctx.and_many(&[both_done, not_src_ub, ctx.not(refined)]);
        if let Some(v) = engine.run(
            env,
            QueryKind::Memory,
            viol7,
            &src_fresh,
            &tgt_fresh,
            &[],
            stats,
        ) {
            return v;
        }
    }

    Verdict::Correct
}

/// Validates every same-named function pair in two modules — the
/// `alive-tv` tool (§8.1).
///
/// Runs on the calling thread; use
/// [`ValidationEngine::validate_modules`](crate::engine::ValidationEngine)
/// directly for a parallel run or a per-job deadline. Source functions
/// with no same-named target are reported as
/// `Unsupported("no matching target function")`.
pub fn validate_modules(
    src_mod: &Module,
    tgt_mod: &Module,
    cfg: &EncodeConfig,
) -> Vec<(String, Verdict)> {
    crate::engine::ValidationEngine::sequential().validate_modules(src_mod, tgt_mod, cfg)
}

/// Extracts the concrete argument assignment from a counterexample model.
pub(crate) fn model_args(env: &Env, model: &Model) -> Vec<(String, String)> {
    let ctx = &env.ctx;
    let mut out = Vec::new();
    for a in &env.args {
        for (i, v) in a.vars.iter().enumerate() {
            let name = if a.vars.len() == 1 {
                format!("%{}", a.name)
            } else {
                format!("%{}.{i}", a.name)
            };
            // `try_eval` distinguishes values the model actually pins down
            // from don't-cares; defaulting the latter to zero used to
            // fabricate all-zero "counterexamples" for arguments the
            // solver never constrained.
            let isundef = model.try_eval(ctx, v.isundef).map(|x| x.as_bool());
            let ispoison = model.try_eval(ctx, v.ispoison).map(|x| x.as_bool());
            let desc = if ispoison == Some(true) {
                "poison".to_string()
            } else if isundef == Some(true) {
                "undef".to_string()
            } else {
                match model.try_eval(ctx, v.base) {
                    Some(val) => format!("{}", val.as_bv()),
                    None => "any".to_string(),
                }
            };
            out.push((name, desc));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use alive2_ir::parser::parse_module;
    use std::cell::RefCell;

    thread_local! {
        /// For each seed pool [`QueryEngine::run`] built on this thread,
        /// whether a term in it carries an application.
        pub(super) static SEED_POOLS_APPLY: RefCell<Vec<bool>> = const { RefCell::new(Vec::new()) };
    }

    fn check(src: &str, tgt: &str) -> Verdict {
        check_cfg(src, tgt, &EncodeConfig::default())
    }

    fn check_cfg(src: &str, tgt: &str, cfg: &EncodeConfig) -> Verdict {
        let sm = parse_module(src).unwrap();
        let tm = parse_module(tgt).unwrap();
        let results = validate_modules(&sm, &tm, cfg);
        assert_eq!(results.len(), 1, "expected one matched pair");
        results.into_iter().next().unwrap().1
    }

    #[test]
    fn identical_functions_refine() {
        let f = "define i32 @f(i32 %x) {\nentry:\n  %r = add i32 %x, 1\n  ret i32 %r\n}";
        assert!(check(f, f).is_correct());
    }

    #[test]
    fn equivalent_arithmetic_refines() {
        // x * 2 -> x << 1: a classic instcombine rewrite.
        let src = "define i8 @f(i8 %x) {\nentry:\n  %r = mul i8 %x, 2\n  ret i8 %r\n}";
        let tgt = "define i8 @f(i8 %x) {\nentry:\n  %r = shl i8 %x, 1\n  ret i8 %r\n}";
        let v = check(src, tgt);
        assert!(v.is_correct(), "{v:?}");
    }

    #[test]
    fn wrong_constant_is_incorrect() {
        let src = "define i8 @f(i8 %x) {\nentry:\n  %r = add i8 %x, 1\n  ret i8 %r\n}";
        let tgt = "define i8 @f(i8 %x) {\nentry:\n  %r = add i8 %x, 2\n  ret i8 %r\n}";
        let v = check(src, tgt);
        assert!(v.is_incorrect(), "{v:?}");
    }

    #[test]
    fn removing_poison_possibility_is_allowed() {
        // Source may be poison (nsw overflow); target never is: refinement
        // holds (target is more defined).
        let src = "define i8 @f(i8 %x) {\nentry:\n  %r = add nsw i8 %x, 1\n  ret i8 %r\n}";
        let tgt = "define i8 @f(i8 %x) {\nentry:\n  %r = add i8 %x, 1\n  ret i8 %r\n}";
        let v = check(src, tgt);
        assert!(v.is_correct(), "{v:?}");
    }

    #[test]
    fn adding_poison_possibility_is_incorrect() {
        // The reverse direction must fail (query 4).
        let src = "define i8 @f(i8 %x) {\nentry:\n  %r = add i8 %x, 1\n  ret i8 %r\n}";
        let tgt = "define i8 @f(i8 %x) {\nentry:\n  %r = add nsw i8 %x, 1\n  ret i8 %r\n}";
        let v = check(src, tgt);
        assert!(v.is_incorrect(), "{v:?}");
        if let Verdict::Incorrect(cex) = &v {
            assert_eq!(cex.query, QueryKind::RetPoison);
        }
    }

    #[test]
    fn introducing_ub_is_incorrect() {
        // Source returns normally; target divides by a possibly-zero value.
        let src = "define i8 @f(i8 %x) {\nentry:\n  ret i8 0\n}";
        let tgt =
            "define i8 @f(i8 %x) {\nentry:\n  %d = udiv i8 1, %x\n  %r = sub i8 %d, %d\n  ret i8 %r\n}";
        let v = check(src, tgt);
        assert!(v.is_incorrect(), "{v:?}");
        if let Verdict::Incorrect(cex) = &v {
            assert_eq!(cex.query, QueryKind::TargetMoreUb);
            // The counterexample sets %x to 0 or poison (a poison divisor
            // is UB too, Fig. 3's udiv-ub rule).
            let x = cex.args.iter().find(|(n, _)| n == "%x").unwrap();
            assert!(x.1 == "0" || x.1 == "poison", "x = {}", x.1);
        }
    }

    #[test]
    fn unconstrained_args_render_as_any_not_zero() {
        // %y is never used, so the solver never materializes its bits.
        // The old renderer zero-defaulted don't-cares and printed a
        // fabricated "%y = 0"; a counterexample must say "any" for
        // arguments the model leaves unconstrained.
        let src = "define i8 @f(i8 %x, i8 %y) {\nentry:\n  %r = add i8 %x, 1\n  ret i8 %r\n}";
        let tgt = "define i8 @f(i8 %x, i8 %y) {\nentry:\n  %r = add i8 %x, 3\n  ret i8 %r\n}";
        let v = check(src, tgt);
        assert!(v.is_incorrect(), "{v:?}");
        if let Verdict::Incorrect(cex) = &v {
            let y = cex.args.iter().find(|(n, _)| n == "%y").unwrap();
            assert_eq!(y.1, "any", "unused arg must be a don't-care: {cex:?}");
        }
    }

    #[test]
    fn select_to_arithmetic_is_correct() {
        // select c, x, y with constant folding: select i1 true.
        let src = "define i32 @f(i32 %x, i32 %y) {\nentry:\n  %r = select i1 true, i32 %x, i32 %y\n  ret i32 %r\n}";
        let tgt = "define i32 @f(i32 %x, i32 %y) {\nentry:\n  ret i32 %x\n}";
        assert!(check(src, tgt).is_correct());
    }

    #[test]
    fn paper_max_example_folds_to_false() {
        // §8.2's unit-test example: (max(x, y) < x) == false.
        let src = r#"define i1 @max1(i32 %x, i32 %y) {
entry:
  %c = icmp sgt i32 %x, %y
  %m = select i1 %c, i32 %x, i32 %y
  %r = icmp slt i32 %m, %x
  ret i1 %r
}"#;
        let tgt = "define i1 @max1(i32 %x, i32 %y) {\nentry:\n  ret i1 false\n}";
        let v = check(src, tgt);
        assert!(v.is_correct(), "{v:?}");
    }

    #[test]
    fn add_self_is_not_mul_by_two_under_undef_double_check() {
        // §2: %a + %a cannot be replaced by freeze-free duplication of an
        // undef-observing expression… the classical true direction:
        // x+x -> 2*x IS correct (both observations of %a are the same
        // register lookup? No: the two uses of %a in one instruction
        // refresh independently, so x+x may be odd when x is undef, while
        // 2*x is always even… but refinement allows the target to be MORE
        // defined, and 2*x's behaviors ⊆ x+x's behaviors. So correct.)
        let src = "define i8 @f(i8 %x) {\nentry:\n  %r = add i8 %x, %x\n  ret i8 %r\n}";
        let tgt = "define i8 @f(i8 %x) {\nentry:\n  %r = mul i8 %x, 2\n  ret i8 %r\n}";
        assert!(check(src, tgt).is_correct());
        // The reverse introduces behaviors (odd results under undef) —
        // refinement must fail on the undef/value queries.
        let v = check(tgt, src);
        assert!(v.is_incorrect(), "{v:?}");
    }

    #[test]
    fn freeze_duplication_is_incorrect() {
        // freeze(x) used twice yields the same value; replacing the second
        // use with a second freeze of x is not a refinement when x is undef.
        let src = r#"define i8 @f(i8 %x) {
entry:
  %f = freeze i8 %x
  %r = sub i8 %f, %f
  ret i8 %r
}"#;
        let tgt = r#"define i8 @f(i8 %x) {
entry:
  %f1 = freeze i8 %x
  %f2 = freeze i8 %x
  %r = sub i8 %f1, %f2
  ret i8 %r
}"#;
        let v = check(src, tgt);
        assert!(v.is_incorrect(), "{v:?}");
    }

    #[test]
    fn branch_on_undef_introduction_is_caught() {
        // Introducing a conditional branch on a possibly-undef value adds
        // UB (§8.3 "Branches and UB").
        let src = "define i8 @f(i8 %x) {\nentry:\n  ret i8 0\n}";
        let tgt = r#"define i8 @f(i8 %x) {
entry:
  %c = icmp eq i8 %x, 0
  br i1 %c, label %a, label %b
a:
  ret i8 0
b:
  ret i8 0
}"#;
        // %x is an input that may be undef -> branching on it is UB that
        // the source does not have.
        let v = check(src, tgt);
        assert!(v.is_incorrect(), "{v:?}");
    }

    #[test]
    fn memory_store_refines() {
        let src = r#"@g = global i32 0
define void @f(i32 %x) {
entry:
  store i32 %x, ptr @g
  ret void
}"#;
        assert!(check(src, src).is_correct());
        let tgt_bad = r#"@g = global i32 0
define void @f(i32 %x) {
entry:
  %y = add i32 %x, 1
  store i32 %y, ptr @g
  ret void
}"#;
        let v = check(src, tgt_bad);
        assert!(v.is_incorrect(), "{v:?}");
        if let Verdict::Incorrect(cex) = &v {
            assert_eq!(cex.query, QueryKind::Memory);
        }
    }

    #[test]
    fn store_forwarding_is_correct() {
        let src = r#"define i32 @f(i32 %x) {
entry:
  %p = alloca i32
  store i32 %x, ptr %p
  %v = load i32, ptr %p
  ret i32 %v
}"#;
        let tgt = "define i32 @f(i32 %x) {\nentry:\n  ret i32 %x\n}";
        let v = check(src, tgt);
        assert!(v.is_correct(), "{v:?}");
    }

    #[test]
    fn call_dedup_is_correct_and_result_change_is_not() {
        let src = r#"declare i32 @g(i32)
define i32 @f(i32 %x) {
entry:
  %a = call i32 @g(i32 %x)
  %b = call i32 @g(i32 %x)
  %r = add i32 %a, %b
  ret i32 %r
}"#;
        let tgt = r#"declare i32 @g(i32)
define i32 @f(i32 %x) {
entry:
  %a = call i32 @g(i32 %x)
  %r = add i32 %a, %a
  ret i32 %r
}"#;
        let v = check(src, tgt);
        assert!(v.is_correct(), "{v:?}");
        // Introducing a *new* call is illegal.
        let v2 = check(tgt, src);
        assert!(!v2.is_correct(), "{v2:?}");
    }

    #[test]
    fn loop_constant_trip_count_folds() {
        // for (i = 0; i < 2; i++) acc += 3  ==> 6, within unroll factor 4.
        let src = r#"define i32 @f() {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %i1, %body ]
  %acc = phi i32 [ 0, %entry ], [ %acc1, %body ]
  %c = icmp ult i32 %i, 2
  br i1 %c, label %body, label %exit
body:
  %acc1 = add i32 %acc, 3
  %i1 = add i32 %i, 1
  br label %head
exit:
  ret i32 %acc
}"#;
        let tgt = "define i32 @f() {\nentry:\n  ret i32 6\n}";
        let cfg = EncodeConfig::with_unroll(4);
        let v = check_cfg(src, tgt, &cfg);
        assert!(v.is_correct(), "{v:?}");
        let tgt_bad = "define i32 @f() {\nentry:\n  ret i32 7\n}";
        assert!(check_cfg(src, tgt_bad, &cfg).is_incorrect());
    }

    #[test]
    fn insufficient_unroll_misses_the_bug_beyond_bound() {
        // The functions differ only at the 6th iteration; with factor 2 the
        // validator must (soundly) miss it and report correct — this is
        // *bounded* translation validation (§7, §8.5).
        let src = r#"define i32 @f(i32 %n) {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %i1, %body ]
  %c = icmp ult i32 %i, %n
  br i1 %c, label %body, label %exit
body:
  %i1 = add i32 %i, 1
  br label %head
exit:
  ret i32 %i
}"#;
        let tgt = r#"define i32 @f(i32 %n) {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %i1, %body ]
  %c = icmp ult i32 %i, %n
  br i1 %c, label %body, label %exit
body:
  %i1 = add i32 %i, 1
  br label %head
exit:
  %big = icmp ugt i32 %i, 5
  %r = select i1 %big, i32 999, i32 %i
  ret i32 %r
}"#;
        let shallow = check_cfg(src, tgt, &EncodeConfig::with_unroll(2));
        assert!(shallow.is_correct(), "{shallow:?}");
        let deep = check_cfg(src, tgt, &EncodeConfig::with_unroll(9));
        assert!(deep.is_incorrect(), "{deep:?}");
    }

    #[test]
    fn unmatched_source_function_is_unsupported_not_dropped() {
        // A target module that lost a function must not silently shrink
        // the result list — dropped-function miscompiles would be
        // invisible otherwise.
        let src = parse_module(
            "define i8 @f(i8 %x) {\nentry:\n  ret i8 %x\n}\n\
             define i8 @g(i8 %x) {\nentry:\n  ret i8 %x\n}",
        )
        .unwrap();
        let tgt = parse_module("define i8 @f(i8 %x) {\nentry:\n  ret i8 %x\n}").unwrap();
        let results = validate_modules(&src, &tgt, &EncodeConfig::default());
        assert_eq!(results.len(), 2);
        assert!(results[0].1.is_correct());
        assert!(
            matches!(&results[1].1, Verdict::Unsupported(r) if r.contains("no matching target function")),
            "{:?}",
            results[1].1
        );
    }

    #[test]
    fn unsupported_features_are_reported() {
        let src = "define i32 @f(i32 %x) {\nentry:\n  ret i32 %x\n}";
        let tgt_bad_sig = "define i32 @f(i64 %x) {\nentry:\n  ret i32 0\n}";
        let sm = parse_module(src).unwrap();
        let tm = parse_module(tgt_bad_sig).unwrap();
        let results = validate_modules(&sm, &tm, &EncodeConfig::default());
        assert!(matches!(results[0].1, Verdict::Unsupported(_)));
    }

    #[test]
    fn overapproximated_fdiv_is_inconclusive_not_wrong() {
        // fdiv is over-approximated (§3.8); a would-be counterexample that
        // depends on it must be reported as inconclusive, never as a bug.
        let src =
            "define float @f(float %x) {\nentry:\n  %r = fdiv float %x, 2.0\n  ret float %r\n}";
        let tgt =
            "define float @f(float %x) {\nentry:\n  %r = fmul float %x, 0.5\n  ret float %r\n}";
        let v = check(src, tgt);
        match v {
            Verdict::Inconclusive(_) | Verdict::Correct => {}
            other => panic!("must not claim a definite bug: {other:?}"),
        }
    }

    /// Encodes the first function of `m`.
    fn encode_first(m: &Module) -> (Env, EncodedFn) {
        let f = &m.functions[0];
        let env = Env::new(EncodeConfig::default(), m, f).unwrap();
        let enc = encode_function(&env, f).unwrap();
        (env, enc)
    }

    #[test]
    fn seed_pools_hold_no_application() {
        // The return value reads argument memory through `init_mem`: the
        // one non-variable pool term, and it carries an application.
        let text = "define i32 @f(ptr %p) {\nentry:\n  %v = load i32, ptr %p\n  ret i32 %v\n}";
        let m = parse_module(text).unwrap();
        let (env, enc) = encode_first(&m);
        let ret = enc.ret.as_ref().unwrap().flatten(&env.ctx).value;
        assert!(env.ctx.has_apply(ret));
        let f = &m.functions[0];
        SEED_POOLS_APPLY.with(|p| p.borrow_mut().clear());
        assert!(validate_pair(&m, f, f, &EncodeConfig::default()).is_correct());
        let pools = SEED_POOLS_APPLY.with(|p| p.take());
        // Queries 2, 2b, 3 (twice), 4, 5, 6 and 7.
        assert_eq!(pools, vec![false; 8]);
    }

    #[test]
    fn precondition_with_an_application_keeps_its_verdicts() {
        // Two adjacent calls of `@g`, the second on a value loaded from
        // `%p`: the §6 call relation compares `%x` with a memory read, so
        // Query 1's precondition carries an application, which the
        // validator Ackermannizes before the solver sees it.
        let func = |op: &str| {
            format!(
                "declare i8 @g(i8)\ndefine i8 @f(ptr %p, i8 %x) {{\nentry:\n  \
                 %v = load i8, ptr %p\n  %a = call i8 @g(i8 %x)\n  \
                 %b = call i8 @g(i8 %v)\n  %r = {op}\n  ret i8 %r\n}}"
            )
        };
        let src = func("add i8 %a, %b");
        let (env, enc) = encode_first(&parse_module(&src).unwrap());
        assert!(env
            .ctx
            .has_apply(call_constraints(&env.ctx, &enc.calls, &enc.calls)));
        assert!(check(&src, &func("add i8 %b, %a")).is_correct());
        match check(&src, &func("sub i8 %a, %b")) {
            Verdict::Incorrect(cex) => assert_eq!(cex.query, QueryKind::RetValue),
            other => panic!("expected a return-value counterexample: {other:?}"),
        }
    }

    #[test]
    fn build_seed_empty_pool_falls_back_to_no_seed() {
        // An empty seed pool (every candidate filtered out) must yield an
        // empty seed map in every mode — in particular AllToLast, whose
        // "take the pool's last element" must not panic on an empty pool.
        let ctx = Ctx::new();
        let u = ctx.var("undef", Sort::BitVec(8));
        let groups = SeedGroups::new(&ctx, [u]);
        for seed in build_seeds(&groups, &[u], &[]) {
            assert!(seed.is_empty(), "every mode must fall back to no-seed");
        }
        // Sanity: a one-element pool still seeds under AllToLast.
        let p = ctx.var("undef", Sort::BitVec(8));
        let groups = SeedGroups::new(&ctx, [u, p]);
        let [_, _, all_to_last] = build_seeds(&groups, &[u], &[p]);
        assert_eq!(all_to_last.get(&u), Some(&p));
    }

    /// A set of `terms`, every one of them live.
    fn set(terms: &[TermId]) -> FxHashSet<TermId> {
        terms.iter().copied().collect()
    }

    #[test]
    fn matched_seed_binds_by_position_and_the_first_binding_wins() {
        let ctx = Ctx::new();
        let bv8 = |name| ctx.var(name, Sort::BitVec(8));
        let (u1, u2, t1, t2, t3) = (bv8("undef"), bv8("undef"), bv8("t"), bv8("t"), bv8("t"));
        let x = bv8("x");
        let unis = set(&[u1, u2]);
        // mul(x, u1) - u2 against mul(x, t1) - t2, then u1 against t3.
        let s = ctx.bv_sub(ctx.bv_mul(x, u1), u2);
        let t = ctx.bv_sub(ctx.bv_mul(x, t1), t2);
        let seed = matched_seed(&ctx, &unis, &unis, &[(s, t), (u1, t3)]);
        assert_eq!(seed, FxHashMap::from_iter([(u1, t1), (u2, t2)]));
        // A universal that is not live is not bound.
        let seed = matched_seed(&ctx, &set(&[u2]), &unis, &[(s, t)]);
        assert_eq!(seed, FxHashMap::from_iter([(u2, t2)]));
    }

    #[test]
    fn matched_seed_binds_nothing_across_sorts() {
        let ctx = Ctx::new();
        let u = ctx.var("undef", Sort::BitVec(8));
        let t = ctx.var("t", Sort::BitVec(16));
        let b = ctx.var("b", Sort::Bool);
        let unis = set(&[u]);
        let s = ctx.bv_add(u, ctx.bv_lit_u64(8, 1));
        for pair in [(u, t), (s, t), (ctx.eq(u, u), b), (ctx.zext(u, 16), t)] {
            assert!(
                matched_seed(&ctx, &unis, &unis, &[pair]).is_empty(),
                "{pair:?}"
            );
        }
    }

    #[test]
    fn matched_seed_pairs_operands_with_a_different_operator() {
        // `or %a, %a` → `%a`: both source reads pair with the target's one.
        let ctx = Ctx::new();
        let bv32 = |name| ctx.var(name, Sort::BitVec(32));
        let (u1, u2, t) = (bv32("undef"), bv32("undef"), bv32("t"));
        let unis = set(&[u1, u2]);
        let seed = matched_seed(&ctx, &unis, &unis, &[(ctx.bv_or(u1, u2), t)]);
        assert_eq!(seed, FxHashMap::from_iter([(u1, t), (u2, t)]));
        // Under one operator, positions line up again below the mismatch:
        // mul(u0, or(u1, u2)) against mul(t0, t).
        let u0 = bv32("undef");
        let t0 = bv32("t");
        let unis = set(&[u0, u1, u2]);
        let s = ctx.bv_mul(u0, ctx.bv_or(u1, u2));
        let seed = matched_seed(&ctx, &unis, &unis, &[(s, ctx.bv_mul(t0, t))]);
        assert_eq!(seed, FxHashMap::from_iter([(u0, t0), (u1, t), (u2, t)]));
    }

    #[test]
    fn matched_seed_never_binds_a_term_that_holds_a_universal() {
        let ctx = Ctx::new();
        let bv8 = |name| ctx.var(name, Sort::BitVec(8));
        let (u1, u2, t) = (bv8("undef"), bv8("undef"), bv8("t"));
        let unis = set(&[u1, u2]);
        let f = ctx.func("f", &[Sort::BitVec(8)], Sort::BitVec(8));
        for target in [u2, ctx.bv_add(t, u2), ctx.apply(f, &[t])] {
            let seed = matched_seed(&ctx, &unis, &unis, &[(u1, target)]);
            assert!(seed.is_empty(), "{}", ctx.display(target));
        }
        // The first term it may bind is the one it binds.
        let seed = matched_seed(&ctx, &unis, &unis, &[(u1, u2), (u1, t)]);
        assert_eq!(seed, FxHashMap::from_iter([(u1, t)]));
    }

    #[test]
    fn matched_seed_does_not_depend_on_hash_map_order() {
        // The same pairs against live sets built in opposite orders, with
        // many other entries, give one seed.
        let ctx = Ctx::new();
        let bv8 = |name| ctx.var(name, Sort::BitVec(8));
        let unis: Vec<TermId> = (0..6).map(|_| bv8("undef")).collect();
        let targets: Vec<TermId> = (0..4).map(|_| bv8("t")).collect();
        let decoys: Vec<TermId> = (0..200).map(|_| bv8("x")).collect();
        let s = ctx.bv_sub(
            ctx.bv_xor(unis[0], ctx.bv_or(unis[1], unis[2])),
            ctx.bv_mul(unis[3], unis[4]),
        );
        let t = ctx.bv_sub(ctx.bv_xor(targets[0], targets[1]), targets[2]);
        let pairs = [(s, t), (unis[5], targets[3]), (unis[0], targets[3])];
        let forward: FxHashSet<TermId> = unis.iter().chain(&decoys).copied().collect();
        let mut backward = FxHashSet::default();
        for &v in decoys.iter().chain(&unis).rev() {
            backward.insert(v);
        }
        let all = set(&unis);
        let a = matched_seed(&ctx, &forward, &all, &pairs);
        let b = matched_seed(&ctx, &backward, &all, &pairs);
        assert_eq!(a, b);
        assert_eq!(
            a,
            FxHashMap::from_iter([
                (unis[0], targets[0]),
                (unis[1], targets[1]),
                (unis[2], targets[1]),
                (unis[3], targets[2]),
                (unis[4], targets[2]),
                (unis[5], targets[3]),
            ])
        );
    }
}
