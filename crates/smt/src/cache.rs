//! The SMT query result cache and the CNF preprocessing pass.
//!
//! The validator's runtime is dominated by repeated SAT queries: the CEGQI
//! loop re-discharges near-identical formulas every iteration, and corpus
//! runs re-solve the same query for every function that triggers the same
//! rewrite (§8 of the paper reports hours spent in the solver). This module
//! deduplicates that work:
//!
//! 1. [`preprocess`] shrinks the bit-blasted CNF with level-0 unit
//!    propagation, tautology and duplicate-clause removal, and in-clause
//!    literal dedup — cheap, deterministic, and solver-independent.
//! 2. [`canonicalize`] renumbers variables by first occurrence and sorts
//!    clauses, so formulas that differ only in variable allocation order
//!    (e.g. the same rewrite blasted in two different term contexts)
//!    collapse to one canonical form.
//! 3. [`CanonCnf::fingerprint`] hashes the canonical form to 128 bits
//!    (two FNV-1a-style lanes over the clause stream) — the CNF-level key.
//! 4. [`QueryCache`] maps fingerprints to outcomes: an in-process sharded
//!    map shared by every job and CEGQI iteration of the run, plus an
//!    optional JSON-lines file (`--cache DIR`) so repeated corpus runs
//!    skip queries solved in earlier invocations.
//! 5. The *term tier* ([`TermKey`], [`QueryCache::lookup_term`]) sits one
//!    level up: it keys a one-shot query's term DAG before bit-blasting,
//!    and a whole ∃∀ obligation before CEGQI starts, so a hit skips
//!    blasting, CDCL and the refinement loop. Its entries are readable only
//!    by later runs of the engine that wrote them (see [`TermScope`]) and
//!    are never written to disk.
//!
//! # Soundness rules
//!
//! - `Timeout`/`OutOfMemory` are **never** cached: a budget verdict is a
//!   property of the run, not of the formula (the caller's budget may
//!   dominate the one that gave up).
//! - `Sat` entries store the satisfying assignment over *canonical*
//!   variables. The solver layer replays it through the original
//!   variables and re-validates the model against the assertions with
//!   `Model::eval` before reuse, falling back to a live solve on
//!   mismatch — a corrupted or colliding entry degrades to a miss, never
//!   to a wrong verdict.
//! - `Unsat` needs no model; a fingerprint collision is guarded by also
//!   matching the canonical variable/clause counts (node/variable counts
//!   in the term tier).
//! - A term-tier `Sat` hit is re-validated by its caller: one-shot models
//!   by concrete evaluation, obligation witnesses by the CEGQI verify
//!   step.
//!
//! Determinism: the solver layer always solves the *canonical* CNF, so a
//! live solve is a pure function of the canonical formula and a cache
//! replay is bit-identical to the solve it memoized. Verdicts therefore
//! do not depend on cache state or job scheduling. The term tier skips
//! whole CEGQI loops, which moves deterministic counters, so its
//! visibility rule ([`TermScope`]) is what keeps those counters
//! independent of scheduling.

use crate::model::{Model, Value};
use crate::sat::{Cnf, Lit, SatSolver, SatVar};
use crate::term::{Ctx, FuncId, Op, Sort, TermId, VarId};
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::io::Write;
use std::path::Path;
use std::sync::{Mutex, OnceLock};

/// The result of [`preprocess`]: the residual clause list plus the
/// level-0 forced assignment.
#[derive(Clone, Debug)]
pub struct PreCnf {
    /// Variable count of the *original* formula.
    pub num_vars: u32,
    /// Residual clauses (each length ≥ 2, over unassigned variables).
    pub clauses: Vec<Vec<Lit>>,
    /// Level-0 forced values, indexed by original variable number.
    /// `None` = not forced (still free in the residual formula, or
    /// eliminated entirely — a don't-care).
    pub assigned: Vec<Option<bool>>,
    /// True if unit propagation derived a contradiction: the formula is
    /// unsatisfiable without any search.
    pub conflict: bool,
}

/// Simplifies a CNF at level 0: in-clause literal dedup, tautology
/// removal, unit propagation to fixpoint (absorbing unit clauses into
/// [`PreCnf::assigned`]), and duplicate-clause removal.
///
/// Works on one flat buffer, as [`Cnf`] stores clauses: clause `i` is
/// `lits[ends[i - 1]..ends[i]]`, and each round compacts it in place.
pub fn preprocess(cnf: &Cnf) -> PreCnf {
    let n = cnf.num_vars() as usize;
    let mut assigned: Vec<Option<bool>> = vec![None; n];
    let mut conflict = false;

    // In-clause dedup + tautology removal. Sorting also puts the two
    // polarities of a variable next to each other.
    let mut lits: Vec<Lit> = Vec::new();
    let mut ends: Vec<usize> = Vec::with_capacity(cnf.num_clauses());
    let mut c2: Vec<Lit> = Vec::new();
    for c in cnf.clauses() {
        c2.clear();
        c2.extend_from_slice(c);
        c2.sort_unstable();
        c2.dedup();
        if c2.windows(2).any(|w| w[0].var() == w[1].var()) {
            continue; // x ∨ ¬x ∨ … is a tautology
        }
        lits.extend_from_slice(&c2);
        ends.push(lits.len());
    }

    // Unit propagation to fixpoint: drop satisfied clauses, strip false
    // literals, absorb fresh units into the assignment. Each round writes
    // the surviving literals and clause ends back over the ones it read.
    loop {
        let mut new_assign = false;
        let (mut read, mut write, mut kept) = (0, 0, 0);
        'clause: for i in 0..ends.len() {
            let (start, end) = (read, ends[i]);
            read = end;
            let out = write;
            for k in start..end {
                let l = lits[k];
                match assigned[l.var().0 as usize] {
                    Some(b) if b == l.is_positive() => {
                        write = out; // satisfied
                        continue 'clause;
                    }
                    Some(_) => {} // false literal
                    None => {
                        lits[write] = l;
                        write += 1;
                    }
                }
            }
            match write - out {
                0 => {
                    conflict = true;
                    break;
                }
                1 => {
                    write = out;
                    let l = lits[out];
                    match &mut assigned[l.var().0 as usize] {
                        slot @ None => {
                            *slot = Some(l.is_positive());
                            new_assign = true;
                        }
                        Some(b) if *b != l.is_positive() => {
                            conflict = true;
                            break;
                        }
                        Some(_) => {}
                    }
                }
                _ => {
                    ends[kept] = write;
                    kept += 1;
                }
            }
        }
        lits.truncate(write);
        ends.truncate(kept);
        if conflict || !new_assign {
            break;
        }
    }
    if conflict {
        ends.clear();
    }

    // Duplicate-clause removal (first occurrence wins, order preserved).
    let mut seen: HashSet<&[Lit]> = HashSet::with_capacity(ends.len());
    let mut clauses: Vec<Vec<Lit>> = Vec::with_capacity(ends.len());
    let mut start = 0;
    for &end in &ends {
        let c = &lits[start..end];
        start = end;
        if seen.insert(c) {
            clauses.push(c.to_vec());
        }
    }

    PreCnf {
        num_vars: cnf.num_vars(),
        clauses,
        assigned,
        conflict,
    }
}

/// A canonical CNF: variables renumbered by first occurrence, literals
/// sorted within each clause, clauses sorted and deduplicated.
#[derive(Clone, Debug)]
pub struct CanonCnf {
    /// Number of canonical variables (only variables that occur).
    pub num_vars: u32,
    /// The canonical clause list.
    pub clauses: Vec<Vec<Lit>>,
    /// Original variable → canonical variable.
    pub var_map: HashMap<SatVar, u32>,
}

/// Canonicalizes the residual formula of a [`PreCnf`].
pub fn canonicalize(pre: &PreCnf) -> CanonCnf {
    let mut var_map: HashMap<SatVar, u32> = HashMap::new();
    let mut n: u32 = 0;
    let mut clauses: Vec<Vec<Lit>> = Vec::with_capacity(pre.clauses.len());
    for c in &pre.clauses {
        let mut c2: Vec<Lit> = c
            .iter()
            .map(|&l| {
                let cv = *var_map.entry(l.var()).or_insert_with(|| {
                    let v = n;
                    n += 1;
                    v
                });
                Lit::new(SatVar(cv), l.is_positive())
            })
            .collect();
        c2.sort();
        clauses.push(c2);
    }
    clauses.sort();
    clauses.dedup();
    CanonCnf {
        num_vars: n,
        clauses,
        var_map,
    }
}

/// A 128-bit fingerprint of a canonical CNF.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Fingerprint(pub u64, pub u64);

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}-{:016x}", self.0, self.1)
    }
}

impl Fingerprint {
    /// Parses the `Display` form back.
    pub fn parse(s: &str) -> Option<Fingerprint> {
        let (a, b) = s.split_once('-')?;
        Some(Fingerprint(
            u64::from_str_radix(a, 16).ok()?,
            u64::from_str_radix(b, 16).ok()?,
        ))
    }
}

/// Two independent FNV-1a-style lanes over a word stream. 64 bits alone
/// invites birthday collisions over a long-lived disk cache; two lanes
/// with different offsets and a rotation in the second make an accidental
/// double collision astronomically unlikely (and the entry's var/clause
/// counts are still checked on every hit).
struct Fnv2 {
    a: u64,
    b: u64,
}

impl Fnv2 {
    const PRIME: u64 = 0x100000001b3;

    fn new() -> Fnv2 {
        Fnv2 {
            a: 0xcbf29ce484222325,
            b: 0x9e3779b97f4a7c15,
        }
    }

    fn word(&mut self, w: u64) {
        self.write(&w.to_le_bytes());
    }

    fn fingerprint(&self) -> Fingerprint {
        Fingerprint(self.a, self.b)
    }
}

/// Lets derived `Hash` impls (term operators, sorts) feed the stream.
impl Hasher for Fnv2 {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(Self::PRIME);
            self.b = (self.b ^ u64::from(byte))
                .wrapping_mul(Self::PRIME)
                .rotate_left(23);
        }
    }

    fn finish(&self) -> u64 {
        self.a
    }
}

impl CanonCnf {
    /// The cache key: a 128-bit hash of the canonical clause stream.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut h = Fnv2::new();
        h.word(u64::from(self.num_vars));
        h.word(self.clauses.len() as u64);
        for c in &self.clauses {
            for &l in c {
                // (var << 1) | sign — stable across representation changes.
                h.word(u64::from(l.var().0) << 1 | u64::from(!l.is_positive()));
            }
            h.word(u64::MAX); // clause separator
        }
        h.fingerprint()
    }

    /// Builds a fresh solver holding the canonical formula.
    pub fn to_solver(&self) -> SatSolver {
        let mut s = SatSolver::new();
        for _ in 0..self.num_vars {
            s.new_var();
        }
        for c in &self.clauses {
            s.add_clause(c);
        }
        s
    }
}

// ---- the term-tier key ---------------------------------------------------

/// The canonical fingerprint of a term DAG: the term tier's key.
///
/// Nodes are numbered in post-order, variables and uninterpreted
/// functions by first occurrence, so two contexts that built the same
/// formula with different allocation histories get one key. Universal
/// variables are flagged. The operands of commutative operators are
/// visited in the order of a *shape hash* that ignores which variable is
/// which: smart constructors order those operands by `TermId`, and ids
/// shift whenever a cache hit skips term construction earlier in a job.
/// Operands of equal shape fall back to a hash that also covers variable
/// and function names, then to their ids.
#[derive(Debug)]
pub struct TermKey {
    fp: Fingerprint,
    nodes: u32,
    /// Canonical variable index → that variable's term in the keyed context.
    vars: Vec<TermId>,
}

/// Record tags of the key stream: each record starts with one, so the
/// stream decodes unambiguously.
const REC_NODE: u64 = 0xA1;
const REC_ROOT: u64 = 0xA2;
const REC_SEED: u64 = 0xA3;
const REC_BIND: u64 = 0xA4;
const KEY_QUERY: u64 = 0xB1;
const KEY_OBLIGATION: u64 = 0xB2;

/// The state of an ordering hash (FxHash's step): fast, and only ever
/// used to order operands, never as a key.
#[derive(Clone, Copy, Default)]
struct Mix(u64);

impl Hasher for Mix {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn is_commutative(op: &Op) -> bool {
    matches!(
        op,
        Op::And
            | Op::Or
            | Op::BXor
            | Op::Eq
            | Op::BvAnd
            | Op::BvOr
            | Op::BvXor
            | Op::BvAdd
            | Op::BvMul
    )
}

/// Feeds a node's sort, operator and operator parameters (literal bits,
/// extract bounds, extension widths) to `h`, but not which variable or
/// function a `Var`/`Apply` node names.
fn hash_op(op: &Op, sort: Sort, h: &mut impl Hasher) {
    sort.hash(h);
    match op {
        Op::Var(_) | Op::Apply(_) => std::mem::discriminant(op).hash(h),
        _ => op.hash(h),
    }
}

/// A node copied out of the context, with its ordering hashes and its
/// operands in canonical visiting order.
struct KeyNode {
    op: Op,
    sort: Sort,
    args: Vec<TermId>,
    shape: u64,
    named: u64,
}

struct KeyBuilder<'a> {
    ctx: &'a Ctx,
    universals: HashSet<TermId>,
    nodes: HashMap<TermId, KeyNode>,
    ids: HashMap<TermId, u32>,
    vars: Vec<TermId>,
    funcs: HashMap<FuncId, u32>,
    h: Fnv2,
}

impl<'a> KeyBuilder<'a> {
    fn new(ctx: &'a Ctx, universals: &[TermId], kind: u64) -> Self {
        let mut h = Fnv2::new();
        h.word(kind);
        KeyBuilder {
            ctx,
            universals: universals.iter().copied().collect(),
            nodes: HashMap::new(),
            ids: HashMap::new(),
            vars: Vec::new(),
            funcs: HashMap::new(),
            h,
        }
    }

    /// Copies every node under `root` out of the context and computes its
    /// ordering hashes bottom-up (iteratively: term DAGs can be deeper
    /// than a worker thread's stack).
    fn shapes(&mut self, root: TermId) {
        let mut stack = vec![(root, false)];
        while let Some((t, expanded)) = stack.pop() {
            if expanded {
                self.hash_node(t);
                continue;
            }
            if self.nodes.contains_key(&t) {
                continue;
            }
            let ctx = self.ctx;
            let node = KeyNode {
                op: ctx.op(t),
                sort: ctx.sort(t),
                args: ctx.args(t),
                shape: 0,
                named: 0,
            };
            stack.push((t, true));
            for &a in &node.args {
                if !self.nodes.contains_key(&a) {
                    stack.push((a, false));
                }
            }
            self.nodes.insert(t, node);
        }
    }

    /// Computes a node's two ordering hashes once its operands have
    /// theirs, and sorts the operands of a commutative node.
    fn hash_node(&mut self, t: TermId) {
        let node = &self.nodes[&t];
        let mut shape = Mix::default();
        hash_op(&node.op, node.sort, &mut shape);
        let mut named = shape;
        match node.op {
            Op::Var(v) => {
                self.universals.contains(&t).hash(&mut shape);
                named = shape;
                self.ctx.var_name(v).hash(&mut named);
            }
            Op::Apply(f) => self.ctx.func_name(f).hash(&mut named),
            _ => {}
        }
        let mut args: Vec<(u64, u64, TermId)> = node
            .args
            .iter()
            .map(|a| (self.nodes[a].shape, self.nodes[a].named, *a))
            .collect();
        if is_commutative(&node.op) {
            args.sort_unstable();
        }
        for &(s, n, _) in &args {
            shape.write_u64(s);
            named.write_u64(n);
        }
        let node = self.nodes.get_mut(&t).expect("node copied before hashing");
        node.shape = shape.finish();
        node.named = named.finish();
        node.args = args.into_iter().map(|(_, _, a)| a).collect();
    }

    /// Numbers every node under `root` in canonical post-order, feeding
    /// each new node's record to the key stream; returns `root`'s number.
    fn visit(&mut self, root: TermId) -> u64 {
        self.shapes(root);
        let mut stack = vec![(root, false)];
        while let Some((t, expanded)) = stack.pop() {
            if self.ids.contains_key(&t) {
                continue;
            }
            if expanded {
                self.emit(t);
                continue;
            }
            stack.push((t, true));
            for &a in self.nodes[&t].args.iter().rev() {
                if !self.ids.contains_key(&a) {
                    stack.push((a, false));
                }
            }
        }
        u64::from(self.ids[&root])
    }

    fn emit(&mut self, t: TermId) {
        let id = self.ids.len() as u32;
        self.ids.insert(t, id);
        let node = &self.nodes[&t];
        let h = &mut self.h;
        h.word(REC_NODE);
        hash_op(&node.op, node.sort, h);
        match node.op {
            Op::Var(_) => {
                // Each node is emitted once, so this is its first occurrence.
                h.word(self.vars.len() as u64);
                h.word(u64::from(self.universals.contains(&t)));
                self.vars.push(t);
            }
            Op::Apply(f) => {
                let next = self.funcs.len() as u32;
                h.word(u64::from(*self.funcs.entry(f).or_insert(next)));
            }
            _ => {}
        }
        h.word(node.args.len() as u64);
        for a in &node.args {
            h.word(u64::from(self.ids[a]));
        }
    }

    fn finish(self) -> TermKey {
        TermKey {
            fp: self.h.fingerprint(),
            nodes: self.ids.len() as u32,
            vars: self.vars,
        }
    }
}

impl TermKey {
    /// The key of a one-shot query: the conjunction of `roots`, taken
    /// after rewriting and Ackermannization. Roots are ordered by shape
    /// too (a conjunction's model does not depend on their order).
    pub fn of_query(ctx: &Ctx, roots: &[TermId]) -> TermKey {
        let mut b = KeyBuilder::new(ctx, &[], KEY_QUERY);
        for &r in roots {
            b.shapes(r);
        }
        let mut order: Vec<(u64, u64, TermId)> = roots
            .iter()
            .map(|r| (b.nodes[r].shape, b.nodes[r].named, *r))
            .collect();
        order.sort_unstable();
        order.dedup();
        for (_, _, r) in order {
            let id = b.visit(r);
            b.h.word(REC_ROOT);
            b.h.word(id);
        }
        b.finish()
    }

    /// The key of a whole ∃∀ obligation: `phi` with its `universals`
    /// flagged, each seed instantiation of the universals that occur in
    /// `phi` (in order: CEGQI pushes them in order), and the two solver
    /// settings that shape the witness it returns.
    pub fn of_obligation(
        ctx: &Ctx,
        universals: &[TermId],
        phi: TermId,
        seeds: &[HashMap<TermId, TermId>],
        rewrite: bool,
        incremental: bool,
    ) -> TermKey {
        let mut b = KeyBuilder::new(ctx, universals, KEY_OBLIGATION);
        b.h.word(u64::from(rewrite));
        b.h.word(u64::from(incremental));
        let root = b.visit(phi);
        b.h.word(REC_ROOT);
        b.h.word(root);
        let bound: Vec<(u64, TermId)> = b
            .vars
            .iter()
            .enumerate()
            .filter(|(_, v)| b.universals.contains(v))
            .map(|(i, &v)| (i as u64, v))
            .collect();
        for seed in seeds {
            b.h.word(REC_SEED);
            for &(i, u) in &bound {
                if let Some(&t) = seed.get(&u) {
                    let id = b.visit(t);
                    b.h.word(REC_BIND);
                    b.h.word(i);
                    b.h.word(id);
                }
            }
        }
        b.finish()
    }

    /// The 128-bit fingerprint.
    pub fn fingerprint(&self) -> Fingerprint {
        self.fp
    }

    /// `model` over canonical variables, sorted by index; `None` when it
    /// assigns a variable the key does not cover (one created while
    /// solving, such as an Ackermann result), which makes the answer
    /// uncacheable.
    pub fn encode_model(&self, ctx: &Ctx, model: &Model) -> Option<Vec<(u32, Value)>> {
        let index: HashMap<VarId, u32> = self
            .vars
            .iter()
            .enumerate()
            .filter_map(|(i, &t)| Some((ctx.as_var(t)?, i as u32)))
            .collect();
        let mut bits: Vec<(u32, Value)> = model
            .iter()
            .map(|(v, val)| Some((*index.get(v)?, val.clone())))
            .collect::<Option<_>>()?;
        bits.sort_unstable_by_key(|&(i, _)| i);
        Some(bits)
    }

    /// Maps a canonical model back onto this key's variables; `None` when
    /// an index is out of range or a value's sort disagrees with its
    /// variable's (a colliding or corrupted entry).
    pub fn decode_model(&self, ctx: &Ctx, bits: &[(u32, Value)]) -> Option<Model> {
        let mut model = Model::new();
        for (i, val) in bits {
            let t = *self.vars.get(*i as usize)?;
            let well_sorted = match (ctx.sort(t), val) {
                (Sort::Bool, Value::Bool(_)) => true,
                (Sort::BitVec(w), Value::Bv(bv)) => bv.width() == w,
                _ => false,
            };
            if !well_sorted {
                return None;
            }
            model.set(ctx.as_var(t)?, val.clone());
        }
        Some(model)
    }
}

/// A cacheable outcome. Budget verdicts (`Timeout`/`OutOfMemory`) are
/// deliberately unrepresentable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CachedOutcome {
    /// The canonical formula is unsatisfiable.
    Unsat,
    /// Satisfiable, with the solver's assignment over canonical
    /// variables (`None` = the search never touched the variable).
    Sat(Vec<Option<bool>>),
}

struct CacheEntry {
    vars: u32,
    clauses: u32,
    outcome: CachedOutcome,
}

/// A term-tier answer. Budget verdicts are unrepresentable, as in the CNF
/// tier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TermOutcome {
    /// The query (or obligation) is unsatisfiable.
    Unsat,
    /// Satisfiable: the model over canonical variables as
    /// `(index, value)` pairs, don't-care variables absent (see
    /// [`TermKey::encode_model`]).
    Sat(Vec<(u32, Value)>),
}

/// The CNF sizes a one-shot query reached when it was solved. A hit
/// replays them into its profile, so the deterministic CNF-size
/// histogram gets the sample the live solve gave. All zero for
/// obligations, which add no sample.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CnfSizes {
    /// Variables / clauses as bit-blasted.
    pub vars_pre: u64,
    pub clauses_pre: u64,
    /// Variables / clauses after preprocessing and canonicalization.
    pub vars_post: u64,
    pub clauses_post: u64,
}

/// Who reads and writes the term tier on the current thread. The
/// validation engine sets one around each job ([`set_term_scope`]);
/// outside an engine there is none and the tier is off.
///
/// An entry is readable only by *later* runs of the engine that wrote it,
/// never by its own run or by another engine. So whether a query hits
/// depends only on which runs came before, not on how jobs were spread
/// over workers or what else the process runs: a hit skips a whole CEGQI
/// loop, and the loop's counters (iterations, incremental solves, terms)
/// are compared across worker counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TermScope {
    /// The engine (shared by its clones) that owns the entries.
    pub engine: u64,
    /// The job's run ordinal.
    pub run: u32,
    /// Entries written by runs below this ordinal are readable: each of
    /// those runs had finished when this one began.
    pub visible_below: u32,
    /// The job's index in its run. When several jobs of one run write a
    /// key, the lowest index wins, so the entry later runs read does not
    /// depend on which worker finished first.
    pub job: u32,
}

thread_local! {
    static SCOPE: Cell<Option<TermScope>> = const { Cell::new(None) };
}

/// Sets (or with `None` clears) the term-tier scope of this thread.
pub fn set_term_scope(scope: Option<TermScope>) {
    SCOPE.with(|s| s.set(scope));
}

/// The term-tier scope of this thread; `None` turns the tier off.
pub fn term_scope() -> Option<TermScope> {
    SCOPE.with(Cell::get)
}

struct TermEntry {
    run: u32,
    job: u32,
    nodes: u32,
    vars: u32,
    outcome: TermOutcome,
    cnf: CnfSizes,
}

const SHARDS: usize = 16;

/// Don't persist satisfying assignments beyond this many variables: the
/// entry would be bigger than the solve is worth.
const MAX_CACHED_MODEL_VARS: u32 = 1 << 20;

/// The query cache: the CNF tier (memory plus optional disk) and the
/// memory-only term tier. Cheap to share: all methods take `&self`.
pub struct QueryCache {
    shards: Vec<Mutex<HashMap<Fingerprint, CacheEntry>>>,
    /// The term tier, keyed by (engine, fingerprint): engines never see
    /// each other's entries.
    terms: Vec<Mutex<HashMap<(u64, Fingerprint), TermEntry>>>,
    disk: Mutex<Option<std::fs::File>>,
}

impl Default for QueryCache {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for QueryCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "QueryCache {{ entries: {} }}", self.len())
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // A worker that panicked mid-insert leaves at worst a complete entry
    // or none (HashMap::insert is not observable half-done after unwind
    // at these key/value types' clone points) — poisoning is ignored.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl QueryCache {
    /// An empty, memory-only cache.
    pub fn new() -> Self {
        QueryCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            terms: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            disk: Mutex::new(None),
        }
    }

    fn shard(&self, fp: Fingerprint) -> &Mutex<HashMap<Fingerprint, CacheEntry>> {
        &self.shards[(fp.0 as usize) % SHARDS]
    }

    fn term_shard(&self, fp: Fingerprint) -> &Mutex<HashMap<(u64, Fingerprint), TermEntry>> {
        &self.terms[(fp.0 as usize) % SHARDS]
    }

    /// Total number of cached entries, both tiers.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum::<usize>()
            + self.terms.iter().map(|s| lock(s).len()).sum::<usize>()
    }

    /// True if no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up a fingerprint. `vars`/`clauses` are the canonical counts
    /// of the formula being looked up; an entry that disagrees is treated
    /// as a collision and ignored.
    pub fn lookup(&self, fp: Fingerprint, vars: u32, clauses: u32) -> Option<CachedOutcome> {
        let shard = lock(self.shard(fp));
        let e = shard.get(&fp)?;
        if e.vars != vars || e.clauses != clauses {
            return None;
        }
        Some(e.outcome.clone())
    }

    /// Stores an outcome (first write wins) and appends it to the disk
    /// tier if one is attached. Oversized `Sat` models are not cached.
    pub fn store(&self, fp: Fingerprint, vars: u32, clauses: u32, outcome: CachedOutcome) {
        if matches!(outcome, CachedOutcome::Sat(_)) && vars > MAX_CACHED_MODEL_VARS {
            return;
        }
        let fresh = {
            let mut shard = lock(self.shard(fp));
            match shard.entry(fp) {
                std::collections::hash_map::Entry::Occupied(_) => false,
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(CacheEntry {
                        vars,
                        clauses,
                        outcome: outcome.clone(),
                    });
                    true
                }
            }
        };
        if !fresh {
            return;
        }
        let mut disk = lock(&self.disk);
        if let Some(f) = disk.as_mut() {
            let line = Self::disk_line(fp, vars, clauses, &outcome);
            // One O_APPEND write per line into this process's *private*
            // file (see `attach_dir`): no other process ever writes it,
            // so lines cannot interleave regardless of length, and a torn
            // tail from a crash is skipped on load (journal-style).
            let _ = f.write_all(line.as_bytes()).and_then(|_| f.flush());
        }
    }

    /// Looks up `key` in the term tier for `scope`. Misses when the entry
    /// is not yet readable by this run (see [`TermScope`]) or its node or
    /// variable count disagrees with the key's (a collision).
    pub fn lookup_term(&self, scope: TermScope, key: &TermKey) -> Option<(TermOutcome, CnfSizes)> {
        let shard = lock(self.term_shard(key.fp));
        let e = shard.get(&(scope.engine, key.fp))?;
        if e.run >= scope.visible_below || e.nodes != key.nodes || e.vars != key.vars.len() as u32 {
            return None;
        }
        Some((e.outcome.clone(), e.cnf))
    }

    /// Stores a term-tier answer for `scope`. Within one run the lowest
    /// job index wins; a later run replaces an entry, which it only
    /// re-solves after that entry failed re-validation. Oversized models
    /// are not cached.
    pub fn store_term(&self, scope: TermScope, key: &TermKey, outcome: TermOutcome, cnf: CnfSizes) {
        if matches!(&outcome, TermOutcome::Sat(bits) if bits.len() > MAX_CACHED_MODEL_VARS as usize)
        {
            return;
        }
        let entry = TermEntry {
            run: scope.run,
            job: scope.job,
            nodes: key.nodes,
            vars: key.vars.len() as u32,
            outcome,
            cnf,
        };
        let mut shard = lock(self.term_shard(key.fp));
        match shard.entry((scope.engine, key.fp)) {
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(entry);
            }
            std::collections::hash_map::Entry::Occupied(mut slot) => {
                let e = slot.get();
                if e.run < scope.run || (e.run == scope.run && scope.job < e.job) {
                    slot.insert(entry);
                }
            }
        }
    }

    fn disk_line(fp: Fingerprint, vars: u32, clauses: u32, outcome: &CachedOutcome) -> String {
        match outcome {
            CachedOutcome::Unsat => format!(
                "{{\"fp\":\"{fp}\",\"vars\":{vars},\"clauses\":{clauses},\"result\":\"unsat\"}}\n"
            ),
            CachedOutcome::Sat(bits) => {
                let s: String = bits
                    .iter()
                    .map(|b| match b {
                        Some(true) => '1',
                        Some(false) => '0',
                        None => 'x',
                    })
                    .collect();
                format!(
                    "{{\"fp\":\"{fp}\",\"vars\":{vars},\"clauses\":{clauses},\
                     \"result\":\"sat\",\"bits\":\"{s}\"}}\n"
                )
            }
        }
    }

    /// Attaches the persistent tier: loads every cache file in `DIR`
    /// (tolerating missing files and torn lines) into memory, then opens
    /// a *per-process* file `DIR/cache-<pid>.jsonl` for append. Returns
    /// the number of disk lines loaded.
    ///
    /// One file per writer is what makes the disk tier safe under
    /// multi-process use (supervised `--procs` shards, daemon restarts):
    /// two processes appending the same file can interleave partial
    /// writes once a line exceeds the kernel's atomic-append granularity
    /// (Sat models run to ~1 MiB), silently corrupting both records.
    /// With private files there is no cross-process interleaving to
    /// reason about; readers merge every `cache-*.jsonl`, and the
    /// in-memory map's first-write-wins dedup collapses duplicates.
    pub fn attach_dir(&self, dir: &Path) -> std::io::Result<usize> {
        self.attach_dir_tagged(dir, &std::process::id().to_string())
    }

    /// [`attach_dir`] with an explicit writer tag in place of the pid.
    /// Lets tests (and any embedder multiplexing several caches in one
    /// process) simulate distinct writer processes sharing a directory.
    pub fn attach_dir_tagged(&self, dir: &Path, tag: &str) -> std::io::Result<usize> {
        std::fs::create_dir_all(dir)?;
        let mut paths: Vec<std::path::PathBuf> = Vec::new();
        if let Ok(rd) = std::fs::read_dir(dir) {
            for entry in rd.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if name.starts_with("cache-") && name.ends_with(".jsonl") {
                    paths.push(entry.path());
                }
            }
        }
        // Deterministic load order: the merge keeps the first entry per
        // fingerprint, whatever order the platform lists the files in.
        paths.sort();
        let mut loaded = 0usize;
        for path in &paths {
            if let Ok(text) = std::fs::read_to_string(path) {
                for line in text.lines() {
                    if self.load_line(line) {
                        loaded += 1;
                    }
                }
            }
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(format!("cache-{tag}.jsonl")))?;
        *lock(&self.disk) = Some(file);
        Ok(loaded)
    }

    /// Approximate bytes retained in memory by both tiers: per-entry map
    /// overhead plus the model payloads. The daemon's admission control
    /// treats this as the cache's share of `--mem-budget-mb` (term
    /// contexts are per-job and freed with the job, so the cache is the
    /// only unbounded cross-request growth).
    pub fn mem_bytes(&self) -> usize {
        // Key (16) + vars/clauses (8) + enum tag and Vec header (~32) +
        // hash-map slot: ~96 bytes of fixed overhead per entry. A term
        // entry adds the engine id, run/job tags and CNF sizes.
        const ENTRY_OVERHEAD: usize = 96;
        const TERM_ENTRY_OVERHEAD: usize = 160;
        let cnf: usize = self
            .shards
            .iter()
            .map(|s| {
                let shard = lock(s);
                shard.len() * ENTRY_OVERHEAD
                    + shard
                        .values()
                        .map(|e| match &e.outcome {
                            CachedOutcome::Sat(bits) => bits.len(),
                            CachedOutcome::Unsat => 0,
                        })
                        .sum::<usize>()
            })
            .sum();
        let value_bytes = |v: &Value| match v {
            Value::Bool(_) => 0,
            Value::Bv(bv) => std::mem::size_of_val(bv.words()),
        };
        let terms: usize = self
            .terms
            .iter()
            .map(|s| {
                let shard = lock(s);
                shard.len() * TERM_ENTRY_OVERHEAD
                    + shard
                        .values()
                        .map(|e| match &e.outcome {
                            TermOutcome::Sat(bits) => bits
                                .iter()
                                .map(|(_, v)| std::mem::size_of::<(u32, Value)>() + value_bytes(v))
                                .sum(),
                            TermOutcome::Unsat => 0,
                        })
                        .sum::<usize>()
            })
            .sum();
        cnf + terms
    }

    /// Drops every in-memory entry of both tiers, returning how many were
    /// evicted. The disk tier (and its append handle) is untouched, so
    /// evicted CNF-tier results persist for the next cold load — this is
    /// a GC, not a purge.
    pub fn clear_memory(&self) -> usize {
        fn clear<K: Eq + std::hash::Hash, V>(shards: &[Mutex<HashMap<K, V>>]) -> usize {
            shards
                .iter()
                .map(|s| {
                    let mut shard = lock(s);
                    let n = shard.len();
                    shard.clear();
                    shard.shrink_to_fit();
                    n
                })
                .sum()
        }
        clear(&self.shards) + clear(&self.terms)
    }

    /// Parses one disk line into the in-memory tier. Returns false on a
    /// torn or malformed line (skipped, never fatal), including one whose
    /// `vars`/`clauses` count is missing or does not fit the `u32` the
    /// collision guard compares.
    fn load_line(&self, line: &str) -> bool {
        let Some(v) = alive2_obs::json::JsonValue::parse(line) else {
            return false;
        };
        let Some(fp) = v
            .get("fp")
            .and_then(|f| f.as_str())
            .and_then(Fingerprint::parse)
        else {
            return false;
        };
        let count = |name: &str| {
            v.get(name)
                .and_then(|n| n.as_num())
                .and_then(|n| u32::try_from(n).ok())
        };
        let (Some(vars), Some(clauses)) = (count("vars"), count("clauses")) else {
            return false;
        };
        let outcome = match v.get("result").and_then(|r| r.as_str()) {
            Some("unsat") => CachedOutcome::Unsat,
            Some("sat") => {
                let Some(bits) = v.get("bits").and_then(|b| b.as_str()) else {
                    return false;
                };
                if bits.len() != vars as usize {
                    return false;
                }
                let decoded: Option<Vec<Option<bool>>> = bits
                    .chars()
                    .map(|c| match c {
                        '0' => Some(Some(false)),
                        '1' => Some(Some(true)),
                        'x' => Some(None),
                        _ => None,
                    })
                    .collect();
                match decoded {
                    Some(d) => CachedOutcome::Sat(d),
                    None => return false,
                }
            }
            _ => return false,
        };
        let mut shard = lock(self.shard(fp));
        shard.entry(fp).or_insert(CacheEntry {
            vars,
            clauses,
            outcome,
        });
        true
    }
}

static GLOBAL: OnceLock<QueryCache> = OnceLock::new();

/// The process-wide tier-1 cache, shared by every solver of every job.
pub fn global() -> &'static QueryCache {
    GLOBAL.get_or_init(QueryCache::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: u32, pos: bool) -> Lit {
        Lit::new(SatVar(v), pos)
    }

    fn cnf_of(num_vars: u32, clauses: &[&[Lit]]) -> Cnf {
        let mut cnf = Cnf::new();
        for _ in 0..num_vars {
            cnf.new_var();
        }
        for c in clauses {
            cnf.add_clause(c);
        }
        cnf
    }

    /// The clause-per-`Vec` preprocessing pass the flat [`preprocess`]
    /// replaced, kept verbatim as its differential oracle.
    fn preprocess_reference(cnf: &Cnf) -> PreCnf {
        let n = cnf.num_vars() as usize;
        let mut assigned: Vec<Option<bool>> = vec![None; n];
        let mut conflict = false;

        // In-clause dedup + tautology removal. Sorting also puts the two
        // polarities of a variable next to each other.
        let mut clauses: Vec<Vec<Lit>> = Vec::with_capacity(cnf.num_clauses());
        for c in cnf.clauses() {
            let mut c2 = c.to_vec();
            c2.sort();
            c2.dedup();
            if c2.windows(2).any(|w| w[0].var() == w[1].var()) {
                continue; // x ∨ ¬x ∨ … is a tautology
            }
            clauses.push(c2);
        }

        // Unit propagation to fixpoint: drop satisfied clauses, strip false
        // literals, absorb fresh units into the assignment.
        loop {
            let mut new_assign = false;
            let mut next: Vec<Vec<Lit>> = Vec::with_capacity(clauses.len());
            'clause: for c in clauses.drain(..) {
                let mut out: Vec<Lit> = Vec::with_capacity(c.len());
                for &l in &c {
                    match assigned[l.var().0 as usize] {
                        Some(b) if b == l.is_positive() => continue 'clause, // satisfied
                        Some(_) => {}                                        // false literal
                        None => out.push(l),
                    }
                }
                match out.len() {
                    0 => {
                        conflict = true;
                        break;
                    }
                    1 => {
                        let l = out[0];
                        match &mut assigned[l.var().0 as usize] {
                            slot @ None => {
                                *slot = Some(l.is_positive());
                                new_assign = true;
                            }
                            Some(b) if *b != l.is_positive() => {
                                conflict = true;
                                break;
                            }
                            Some(_) => {}
                        }
                    }
                    _ => next.push(out),
                }
            }
            clauses = next;
            if conflict || !new_assign {
                break;
            }
        }
        if conflict {
            clauses.clear();
        }

        // Duplicate-clause removal (first occurrence wins, order preserved).
        let mut seen: HashSet<Vec<Lit>> = HashSet::with_capacity(clauses.len());
        clauses.retain(|c| seen.insert(c.clone()));

        PreCnf {
            num_vars: cnf.num_vars(),
            clauses,
            assigned,
            conflict,
        }
    }

    #[test]
    fn flat_preprocess_matches_reference() {
        // Random small CNFs mixing unit chains, duplicate literals and
        // clauses, tautologies, empty clauses and conflicting units: the
        // flat pass must return exactly what the per-clause reference
        // does, and so canonicalize to the same fingerprint.
        let mut state = 0x5EED_CAFEu64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let (mut conflicts, mut residual, mut propagated) = (0, 0, 0);
        for round in 0..3000 {
            let nv = 1 + rng() % 10;
            let mut cnf = Cnf::new();
            for _ in 0..nv {
                cnf.new_var();
            }
            let any =
                |rng: &mut dyn FnMut() -> u64| lit((rng() % nv) as u32, rng().is_multiple_of(2));
            let mut added: Vec<Vec<Lit>> = Vec::new();
            for _ in 0..rng() % 20 {
                let c: Vec<Lit> = match rng() % 16 {
                    0 => Vec::new(),
                    1..=3 => vec![any(&mut rng)],
                    4..=6 => {
                        // A link of a unit chain: a → b.
                        let (a, b) = (any(&mut rng), any(&mut rng));
                        vec![a.negate(), b]
                    }
                    7 | 8 if !added.is_empty() => {
                        // A duplicate clause, perhaps reordered.
                        let mut c = added[(rng() % added.len() as u64) as usize].clone();
                        c.reverse();
                        c
                    }
                    9 => {
                        let (a, b) = (any(&mut rng), any(&mut rng));
                        vec![a, b, a.negate()]
                    }
                    _ => {
                        // Two to five literals, duplicates allowed.
                        let len = 2 + rng() % 4;
                        (0..len).map(|_| any(&mut rng)).collect()
                    }
                };
                cnf.add_clause(&c);
                added.push(c);
            }
            let got = preprocess(&cnf);
            let want = preprocess_reference(&cnf);
            assert_eq!(got.num_vars, want.num_vars, "round {round}");
            assert_eq!(got.clauses, want.clauses, "round {round}: {added:?}");
            assert_eq!(got.assigned, want.assigned, "round {round}: {added:?}");
            assert_eq!(got.conflict, want.conflict, "round {round}: {added:?}");
            assert_eq!(
                canonicalize(&got).fingerprint(),
                canonicalize(&want).fingerprint(),
                "round {round}"
            );
            conflicts += usize::from(got.conflict);
            residual += usize::from(!got.clauses.is_empty());
            propagated += usize::from(got.assigned.iter().flatten().count() > 1);
        }
        assert!(conflicts > 0 && residual > 0 && propagated > 0);
    }

    #[test]
    fn preprocess_propagates_units_and_drops_noise() {
        // x0; ¬x0 ∨ x1; x1 ∨ x1 ∨ x2 (dup lit); x3 ∨ ¬x3 (tautology);
        // duplicate of clause 2.
        let cnf = cnf_of(
            4,
            &[
                &[lit(0, true)],
                &[lit(0, false), lit(1, true)],
                &[lit(1, true), lit(1, true), lit(2, true)],
                &[lit(3, true), lit(3, false)],
                &[lit(2, true), lit(1, true)],
            ],
        );
        let pre = preprocess(&cnf);
        assert!(!pre.conflict);
        assert_eq!(pre.assigned[0], Some(true));
        assert_eq!(pre.assigned[1], Some(true)); // via unit propagation
        assert_eq!(pre.assigned[2], None);
        assert_eq!(pre.assigned[3], None); // eliminated: don't-care
        assert!(pre.clauses.is_empty()); // everything satisfied or absorbed
    }

    #[test]
    fn preprocess_detects_conflict() {
        let cnf = cnf_of(
            2,
            &[
                &[lit(0, true)],
                &[lit(0, false), lit(1, true)],
                &[lit(1, false)],
            ],
        );
        let pre = preprocess(&cnf);
        assert!(pre.conflict);
    }

    #[test]
    fn fingerprint_invariant_under_renaming_and_reorder() {
        // (a ∨ b)(¬a ∨ c) under two different variable numberings (the
        // same structure blasted in two different term contexts — the
        // cross-job case the cache targets) must produce one fingerprint.
        let c1 = cnf_of(
            5,
            &[
                &[lit(1, true), lit(3, true)],
                &[lit(1, false), lit(4, true)],
            ],
        );
        let c2 = cnf_of(
            9,
            &[
                &[lit(2, true), lit(5, true)],
                &[lit(2, false), lit(8, true)],
            ],
        );
        let f1 = canonicalize(&preprocess(&c1)).fingerprint();
        let f2 = canonicalize(&preprocess(&c2)).fingerprint();
        assert_eq!(f1, f2);

        // A genuinely different formula gets a different fingerprint.
        let c3 = cnf_of(
            5,
            &[&[lit(1, true), lit(3, true)], &[lit(1, true), lit(4, true)]],
        );
        let f3 = canonicalize(&preprocess(&c3)).fingerprint();
        assert_ne!(f1, f3);
    }

    #[test]
    fn canonical_solver_round_trip() {
        // (a ∨ b)(¬a)(¬b ∨ c): satisfiable, forces a=false then b, c.
        let cnf = cnf_of(
            3,
            &[
                &[lit(0, true), lit(1, true)],
                &[lit(0, false)],
                &[lit(1, false), lit(2, true)],
            ],
        );
        let pre = preprocess(&cnf);
        assert!(!pre.conflict);
        // Unit prop already forces everything: a=F, b=T, c=T.
        assert_eq!(pre.assigned, vec![Some(false), Some(true), Some(true)]);
        assert!(pre.clauses.is_empty());
    }

    #[test]
    fn cache_store_lookup_and_collision_guard() {
        let cache = QueryCache::new();
        let fp = Fingerprint(42, 99);
        assert!(cache.lookup(fp, 3, 2).is_none());
        cache.store(fp, 3, 2, CachedOutcome::Unsat);
        assert_eq!(cache.lookup(fp, 3, 2), Some(CachedOutcome::Unsat));
        // Same fingerprint, different shape: treated as a collision.
        assert!(cache.lookup(fp, 4, 2).is_none());
        // First write wins.
        cache.store(fp, 3, 2, CachedOutcome::Sat(vec![Some(true); 3]));
        assert_eq!(cache.lookup(fp, 3, 2), Some(CachedOutcome::Unsat));
    }

    #[test]
    fn disk_tier_round_trips_and_tolerates_torn_lines() {
        let dir = std::env::temp_dir().join(format!(
            "alive2-cache-test-{}-{:x}",
            std::process::id(),
            &dir_tag as *const _ as usize
        ));
        fn dir_tag() {}
        let _ = std::fs::remove_dir_all(&dir);

        let c1 = QueryCache::new();
        assert_eq!(c1.attach_dir(&dir).unwrap(), 0);
        c1.store(Fingerprint(1, 2), 4, 3, CachedOutcome::Unsat);
        c1.store(
            Fingerprint(3, 4),
            2,
            1,
            CachedOutcome::Sat(vec![Some(true), None]),
        );
        drop(c1);

        // Drop two forged lines (a count past u32::MAX, missing counts) and
        // a torn line into another writer's file (which the loader must
        // merge alongside this process's own), then reload into a fresh
        // cache.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(dir.join("cache-forged.jsonl"))
                .unwrap();
            f.write_all(
                b"{\"fp\":\"0000000000000005-0000000000000006\",\"vars\":4294967299,\
                  \"clauses\":2,\"result\":\"unsat\"}\n\
                  {\"fp\":\"0000000000000007-0000000000000008\",\"result\":\"unsat\"}\n",
            )
            .unwrap();
            f.write_all(b"{\"fp\":\"00000").unwrap();
        }
        let c2 = QueryCache::new();
        // The forged counts are rejected, not truncated to a 3-variable
        // entry or defaulted to an empty formula.
        assert_eq!(c2.attach_dir(&dir).unwrap(), 2);
        assert_eq!(c2.lookup(Fingerprint(5, 6), 3, 2), None);
        assert_eq!(c2.lookup(Fingerprint(7, 8), 0, 0), None);
        assert_eq!(
            c2.lookup(Fingerprint(1, 2), 4, 3),
            Some(CachedOutcome::Unsat)
        );
        assert_eq!(
            c2.lookup(Fingerprint(3, 4), 2, 1),
            Some(CachedOutcome::Sat(vec![Some(true), None]))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_never_corrupt_the_disk_tier() {
        // Two writers (distinct tags = distinct processes in production)
        // share one cache dir and append interleaved entries from racing
        // threads, including Sat models far larger than any atomic-append
        // granularity. A fresh reader must recover every entry intact.
        let dir = std::env::temp_dir().join(format!(
            "alive2-cache-race-{}-{:x}",
            std::process::id(),
            &dir_tag as *const _ as usize
        ));
        fn dir_tag() {}
        let _ = std::fs::remove_dir_all(&dir);

        const PER_WRITER: u64 = 64;
        // ~16 KiB of model bits per Sat entry: each disk line is far
        // beyond PIPE_BUF, the size at which shared-file appends tear.
        const MODEL_VARS: usize = 16 * 1024;
        std::thread::scope(|scope| {
            for (w, tag) in ["w1", "w2"].iter().enumerate() {
                let dir = dir.clone();
                scope.spawn(move || {
                    let cache = QueryCache::new();
                    cache.attach_dir_tagged(&dir, tag).unwrap();
                    for i in 0..PER_WRITER {
                        let fp = Fingerprint(w as u64 + 10, i);
                        if i % 2 == 0 {
                            cache.store(fp, 3, 2, CachedOutcome::Unsat);
                        } else {
                            let bits = (0..MODEL_VARS)
                                .map(|b| Some((b + i as usize) % 3 == 0))
                                .collect();
                            cache.store(fp, MODEL_VARS as u32, 7, CachedOutcome::Sat(bits));
                        }
                    }
                });
            }
        });

        let reader = QueryCache::new();
        let loaded = reader.attach_dir_tagged(&dir, "reader").unwrap();
        assert_eq!(loaded as u64, 2 * PER_WRITER, "no line lost or torn");
        for (w, _) in ["w1", "w2"].iter().enumerate() {
            for i in 0..PER_WRITER {
                let fp = Fingerprint(w as u64 + 10, i);
                if i % 2 == 0 {
                    assert_eq!(reader.lookup(fp, 3, 2), Some(CachedOutcome::Unsat));
                } else {
                    let expect: Vec<Option<bool>> = (0..MODEL_VARS)
                        .map(|b| Some((b + i as usize) % 3 == 0))
                        .collect();
                    assert_eq!(
                        reader.lookup(fp, MODEL_VARS as u32, 7),
                        Some(CachedOutcome::Sat(expect))
                    );
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mem_accounting_and_gc() {
        let cache = QueryCache::new();
        assert_eq!(cache.mem_bytes(), 0);
        cache.store(Fingerprint(1, 1), 3, 2, CachedOutcome::Unsat);
        cache.store(
            Fingerprint(2, 2),
            1000,
            5,
            CachedOutcome::Sat(vec![Some(true); 1000]),
        );
        let bytes = cache.mem_bytes();
        assert!(bytes >= 1000, "model payload counted, got {bytes}");
        // A term-tier entry counts too, model payload included.
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(512));
        let key = TermKey::of_query(&ctx, &[ctx.bv_ult(x, ctx.bv_lit_u64(512, 9))]);
        let (writer, _) = scopes(1);
        let wide = Value::Bv(crate::bv::BitVec::from_u64(512, 3));
        cache.store_term(
            writer,
            &key,
            TermOutcome::Sat(vec![(0, wide)]),
            CnfSizes::default(),
        );
        assert_eq!(cache.len(), 3);
        assert!(cache.mem_bytes() >= bytes + 64, "512-bit value counted");
        assert_eq!(cache.clear_memory(), 3);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.mem_bytes(), 0);
        // A post-GC store repopulates normally.
        cache.store(Fingerprint(1, 1), 3, 2, CachedOutcome::Unsat);
        assert_eq!(
            cache.lookup(Fingerprint(1, 1), 3, 2),
            Some(CachedOutcome::Unsat)
        );
    }

    // ---- term tier -----------------------------------------------------

    use crate::exists_forall::{solve_exists_forall_with_seeds, EfConfig, EfResult};
    use crate::sat::Budget;
    use crate::solver::{SmtResult, Solver};

    /// A writer scope and a reader scope one run later. Every test uses
    /// its own engine id: the global cache is shared by the test threads.
    fn scopes(engine: u64) -> (TermScope, TermScope) {
        let writer = TermScope {
            engine,
            run: 0,
            visible_below: 0,
            job: 0,
        };
        let reader = TermScope {
            run: 1,
            visible_below: 1,
            ..writer
        };
        (writer, reader)
    }

    /// Runs `f` under `scope` and returns its result with the counter
    /// deltas it caused (thread-local, so parallel tests don't interfere).
    fn under<R>(scope: Option<TermScope>, f: impl FnOnce() -> R) -> (R, alive2_obs::JobStats) {
        set_term_scope(scope);
        let snap = alive2_obs::counters_snapshot();
        let r = f();
        let mut d = alive2_obs::JobStats::default();
        d.absorb_since(&snap);
        set_term_scope(None);
        (r, d)
    }

    /// What the obligation builder below varies.
    #[derive(Clone, Copy)]
    struct Shape {
        /// Allocate unrelated terms first and declare `u` before `x`, so
        /// every commutative pair is stored in the opposite order.
        reversed: bool,
        u_universal: bool,
        lit: u64,
        extract_lo: u32,
        seed_add: u64,
    }

    const BASE: Shape = Shape {
        reversed: false,
        u_universal: true,
        lit: 0xF0,
        extract_lo: 0,
        seed_add: 1,
    };

    struct Built {
        universals: Vec<TermId>,
        phi: TermId,
        seeds: Vec<HashMap<TermId, TermId>>,
        x: TermId,
        /// The `x & u` node.
        xu: TermId,
    }

    impl Built {
        fn key(&self, ctx: &Ctx, seeded: bool, rewrite: bool, incremental: bool) -> TermKey {
            let seeds = if seeded { &self.seeds[..] } else { &[] };
            TermKey::of_obligation(ctx, &self.universals, self.phi, seeds, rewrite, incremental)
        }
    }

    /// ∃x,y ∀u. (x & u) = u ∧ (x + y <u lit ∨ u[lo+3:lo] = 3), seeded with
    /// u ↦ x + seed_add.
    fn obligation(ctx: &Ctx, sh: Shape) -> Built {
        let (x, y, u) = if sh.reversed {
            for i in 0..7 {
                ctx.bv_lit_u64(8, 0x40 + i);
            }
            let u = ctx.var("u", Sort::BitVec(8));
            let y = ctx.var("y", Sort::BitVec(8));
            (ctx.var("x", Sort::BitVec(8)), y, u)
        } else {
            let x = ctx.var("x", Sort::BitVec(8));
            let y = ctx.var("y", Sort::BitVec(8));
            (x, y, ctx.var("u", Sort::BitVec(8)))
        };
        let xu = ctx.bv_and(x, u);
        let low = ctx.extract(u, sh.extract_lo + 3, sh.extract_lo);
        let phi = ctx.and(
            ctx.eq(xu, u),
            ctx.or(
                ctx.bv_ult(ctx.bv_add(x, y), ctx.bv_lit_u64(8, sh.lit)),
                ctx.eq(low, ctx.bv_lit_u64(4, 3)),
            ),
        );
        let seed = HashMap::from([(u, ctx.bv_add(x, ctx.bv_lit_u64(8, sh.seed_add)))]);
        Built {
            universals: if sh.u_universal { vec![u] } else { vec![] },
            phi,
            seeds: vec![seed],
            x,
            xu,
        }
    }

    fn key_of(sh: Shape, seeded: bool, rewrite: bool, incremental: bool) -> Fingerprint {
        let ctx = Ctx::new();
        obligation(&ctx, sh)
            .key(&ctx, seeded, rewrite, incremental)
            .fingerprint()
    }

    #[test]
    fn obligation_key_ignores_allocation_history_and_operand_order() {
        let (c1, c2) = (Ctx::new(), Ctx::new());
        let b1 = obligation(&c1, BASE);
        let reversed = Shape {
            reversed: true,
            ..BASE
        };
        let b2 = obligation(&c2, reversed);
        // The smart constructors really did store `x & u` both ways round.
        assert_eq!(c1.args(b1.xu)[0], b1.x);
        assert_eq!(c2.args(b2.xu)[1], b2.x);
        let (k1, k2) = (b1.key(&c1, true, true, true), b2.key(&c2, true, true, true));
        assert_eq!(k1.fingerprint(), k2.fingerprint());
        assert_eq!(k1.nodes, k2.nodes);
        // Canonical variable i is the same variable in both contexts.
        let names = |ctx: &Ctx, k: &TermKey| -> Vec<String> {
            k.vars
                .iter()
                .map(|&t| ctx.var_name(ctx.as_var(t).unwrap()))
                .collect()
        };
        assert_eq!(names(&c1, &k1), names(&c2, &k2));
    }

    #[test]
    fn obligation_key_separates_what_shapes_the_answer() {
        let base = key_of(BASE, true, true, true);
        let existential = Shape {
            u_universal: false,
            ..BASE
        };
        let variants = [
            key_of(existential, true, true, true),
            key_of(Shape { lit: 0xF1, ..BASE }, true, true, true),
            key_of(
                Shape {
                    extract_lo: 1,
                    ..BASE
                },
                true,
                true,
                true,
            ),
            key_of(
                Shape {
                    seed_add: 2,
                    ..BASE
                },
                true,
                true,
                true,
            ),
            key_of(BASE, true, false, true),
            key_of(BASE, true, true, false),
        ];
        for (i, k) in variants.iter().enumerate() {
            assert_ne!(*k, base, "variant {i} collides with the base key");
            for (j, k2) in variants.iter().enumerate().skip(i + 1) {
                assert_ne!(k, k2, "variants {i} and {j} collide");
            }
        }
        // Without the seed, the universal flag alone tells them apart.
        assert_ne!(
            key_of(BASE, false, true, true),
            key_of(existential, false, true, true)
        );
    }

    #[test]
    fn sat_hit_keeps_dont_cares_absent() {
        // ∃x,z ∀u. x <u 5 ∧ (u = 0 ∨ z <u 3): the zero instantiation folds
        // z away, so the witness fixes x and leaves z a don't-care.
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(8));
        let z = ctx.var("z", Sort::BitVec(8));
        let u = ctx.var("u", Sort::BitVec(8));
        let phi = ctx.and(
            ctx.bv_ult(x, ctx.bv_lit_u64(8, 5)),
            ctx.or(
                ctx.eq(u, ctx.bv_lit_u64(8, 0)),
                ctx.bv_ult(z, ctx.bv_lit_u64(8, 3)),
            ),
        );
        let solve = || solve_exists_forall_with_seeds(&ctx, &[u], phi, EfConfig::default(), &[]);
        let (writer, reader) = scopes(1001);
        let (live, _) = under(Some(writer), solve);
        let (hit, d) = under(Some(reader), solve);
        let (EfResult::Sat(live), EfResult::Sat(hit)) = (live, hit) else {
            panic!("expected two witnesses");
        };
        assert_eq!(
            (d.cache_hits, d.cegqi_iters, d.incremental_solves),
            (1, 0, 0)
        );
        assert!(live.try_eval(&ctx, x).is_some());
        assert_eq!(live.try_eval(&ctx, z), None, "z is a don't-care live");
        assert_eq!(hit.try_eval(&ctx, x), live.try_eval(&ctx, x));
        assert_eq!(hit.try_eval(&ctx, z), None, "and stays one on a hit");
    }

    #[test]
    fn unsat_obligation_hit_is_one_profile_without_a_cnf_sample() {
        // ∃x ∀u. x = u has no witness.
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(6));
        let u = ctx.var("u", Sort::BitVec(6));
        let phi = ctx.eq(x, u);
        let solve = || solve_exists_forall_with_seeds(&ctx, &[u], phi, EfConfig::default(), &[]);
        let (writer, reader) = scopes(1002);
        let (live, d1) = under(Some(writer), solve);
        assert!(live.is_unsat() && d1.cegqi_iters > 0, "{d1:?}");
        let (hit, d2) = under(Some(reader), solve);
        assert!(hit.is_unsat());
        assert_eq!((d2.cache_hits, d2.cegqi_iters, d2.sat_solves), (1, 0, 0));
        assert_eq!(d2.h_latency_us.count(), 1, "one profile for the hit");
        assert_eq!(d2.h_cnf_clauses.count(), 0, "and no CNF-size sample");
        // The tier is off outside a scope.
        let (_, d3) = under(None, solve);
        assert_eq!(d3.cegqi_iters, d1.cegqi_iters);
    }

    #[test]
    fn one_shot_hit_replays_the_cnf_size_sample() {
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(8));
        let y = ctx.var("y", Sort::BitVec(8));
        let mut s = Solver::new(&ctx);
        s.assert(ctx.eq(ctx.bv_mul(x, y), ctx.bv_lit_u64(8, 0x8B)));
        s.assert(ctx.bv_ult(x, ctx.bv_lit_u64(8, 0x33)));
        let (writer, reader) = scopes(1003);
        let (live, d1) = under(Some(writer), || s.check(Budget::unlimited()));
        let (hit, d2) = under(Some(reader), || s.check(Budget::unlimited()));
        let (SmtResult::Sat(m1), SmtResult::Sat(m2)) = (live, hit) else {
            panic!("expected sat twice");
        };
        assert_eq!((d2.cache_hits, d2.cache_misses, d2.sat_solves), (1, 0, 0));
        assert_eq!(d1.h_cnf_clauses.count(), 1);
        assert_eq!(d1.h_cnf_clauses.buckets(), d2.h_cnf_clauses.buckets());
        assert_eq!(m1.eval_bv(&ctx, x), m2.eval_bv(&ctx, x));
        assert_eq!(m1.eval_bv(&ctx, y), m2.eval_bv(&ctx, y));
    }

    #[test]
    fn forged_sat_entries_fail_revalidation_and_the_live_answer_wins() {
        let (writer, reader) = scopes(1004);
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(4));
        let u = ctx.var("u", Sort::BitVec(4));
        let index = |k: &TermKey, v: TermId| k.vars.iter().position(|&t| t == v).unwrap() as u32;
        let forged = |k: &TermKey, v: TermId, val: u64| {
            TermOutcome::Sat(vec![(
                index(k, v),
                Value::Bv(crate::bv::BitVec::from_u64(4, val)),
            )])
        };

        // Obligation: ∃x ∀u. x & u = u needs x = 1111; the entry says 0000.
        let phi = ctx.eq(ctx.bv_and(x, u), u);
        let key = TermKey::of_obligation(&ctx, &[u], phi, &[], true, true);
        global().store_term(writer, &key, forged(&key, x, 0), CnfSizes::default());
        let (r, d) = under(Some(reader), || {
            solve_exists_forall_with_seeds(&ctx, &[u], phi, EfConfig::default(), &[])
        });
        assert_eq!(d.cache_reval, 1, "{d:?}");
        assert!(d.incremental_solves > 0, "the live loop ran: {d:?}");
        match r {
            EfResult::Sat(m) => assert!(m.eval_bv(&ctx, x).is_all_ones()),
            other => panic!("expected the live witness, got {other:?}"),
        }

        // One-shot query: x <u 5 (no rewriting, so the key is taken on the
        // asserted term itself); the entry says x = 9.
        let t = ctx.bv_ult(x, ctx.bv_lit_u64(4, 5));
        let key = TermKey::of_query(&ctx, &[t]);
        global().store_term(writer, &key, forged(&key, x, 9), CnfSizes::default());
        let mut s = Solver::new(&ctx);
        s.set_rewrite(false);
        s.assert(t);
        let (r, d) = under(Some(reader), || s.check(Budget::unlimited()));
        assert_eq!(d.cache_reval, 1, "{d:?}");
        assert!(r.model().unwrap().eval_bv(&ctx, x).to_u64() < 5);
    }

    #[test]
    fn term_entries_are_visible_only_to_later_runs_of_their_engine() {
        let cache = QueryCache::new();
        let ctx = Ctx::new();
        let b = ctx.var("b", Sort::Bool);
        let key = TermKey::of_query(&ctx, &[b]);
        let sat = |v| TermOutcome::Sat(vec![(0, Value::Bool(v))]);
        let at = |engine, run, visible_below, job| TermScope {
            engine,
            run,
            visible_below,
            job,
        };
        cache.store_term(at(7, 3, 3, 2), &key, sat(false), CnfSizes::default());
        assert_eq!(cache.lookup_term(at(7, 3, 3, 0), &key), None, "same run");
        assert_eq!(
            cache.lookup_term(at(8, 4, 4, 0), &key),
            None,
            "other engine"
        );
        assert_eq!(
            cache.lookup_term(at(7, 5, 3, 0), &key),
            None,
            "run 3 was still in flight when run 5 began"
        );
        let read = |c: &QueryCache| c.lookup_term(at(7, 4, 4, 0), &key).map(|(o, _)| o);
        assert_eq!(read(&cache), Some(sat(false)), "a later run reads it");
        // Within the writing run the lowest job index wins, whichever
        // worker stores first.
        cache.store_term(at(7, 3, 3, 1), &key, sat(true), CnfSizes::default());
        cache.store_term(at(7, 3, 3, 5), &key, sat(false), CnfSizes::default());
        assert_eq!(read(&cache), Some(sat(true)));
    }
}
