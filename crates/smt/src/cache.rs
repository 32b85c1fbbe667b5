//! The SMT query cache: answers keyed by a canonical fingerprint of the
//! term DAG, so a repeated query skips bit-blasting, CDCL and CEGQI.
//!
//! The validator's runtime is dominated by SAT queries, and a rerun of a
//! corpus issues the same ones again (§8 of the paper reports hours spent
//! in the solver). The cache keys two kinds of entry, both before any CNF
//! exists:
//!
//! - a one-shot query ([`TermKey::of_query`]): the term DAG a
//!   [`Solver`](crate::solver::Solver) check would blast, taken after
//!   rewriting;
//! - a whole ∃∀ obligation ([`TermKey::of_obligation`]), taken before
//!   CEGQI starts, so a hit skips the rewriter, the refinement loop and
//!   every check in it.
//!
//! Entries live in memory only. They are readable only by later runs of
//! the engine that wrote them (see [`TermScope`]); outside an engine job
//! there is no scope and the cache is off.
//!
//! # Soundness rules
//!
//! - `Timeout`/`OutOfMemory` are **never** cached: a budget verdict is a
//!   property of the run, not of the formula (the caller's budget may
//!   dominate the one that gave up).
//! - `Sat` entries store the model over canonical variables. The caller
//!   maps it back and re-validates it before reuse: one-shot models by
//!   concrete evaluation of the query, obligation witnesses by the CEGQI
//!   verify step. A corrupted or colliding entry degrades to a live solve
//!   (`cache_reval`), never to a wrong verdict.
//! - `Unsat` needs no model; a fingerprint collision is guarded by also
//!   matching the key's node and variable counts.
//! - A stored model leaves out the don't-cares: variables that were never
//!   blasted, and so have no value in the solve.
//!
//! Determinism: no run reads its own entries, later runs read only those
//! of runs that had finished, and within a run the lowest job index wins.
//! So whether a query hits depends only on which runs came before, never
//! on how jobs were spread over workers or processes, and the cache
//! counters repeat exactly across worker counts.

use crate::fxhash::{self, FxHashMap, FxHashSet, FxHasher};
use crate::model::{Model, Value};
use crate::term::{Args, Ctx, FuncId, Op, Sort, TermId, VarId};
use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, OnceLock};

/// A 128-bit fingerprint of a canonical term DAG.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Fingerprint(pub u64, pub u64);

/// Two independent FNV-1a-style lanes over a word stream, one multiply
/// per word and lane. 64 bits alone invites birthday collisions over a
/// long-lived daemon's cache; two lanes with different offsets and a
/// rotation in the second (which carries high bits back down) make an
/// accidental double collision astronomically unlikely (and the entry's
/// node/variable counts are still checked on every hit).
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
        self.a = (self.a ^ w).wrapping_mul(Self::PRIME);
        self.b = (self.b ^ w).wrapping_mul(Self::PRIME).rotate_left(23);
    }

    fn fingerprint(&self) -> Fingerprint {
        Fingerprint(self.a, self.b)
    }
}

/// Lets derived `Hash` impls (term operators, sorts) feed the stream, a
/// word per integer (std's signed writes forward to the unsigned ones).
impl Hasher for Fnv2 {
    fn write(&mut self, bytes: &[u8]) {
        fxhash::write_words(bytes, |w| self.word(w));
    }

    fn write_u8(&mut self, i: u8) {
        self.word(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.word(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.word(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.word(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.word(i as u64);
    }

    fn finish(&self) -> u64 {
        self.a
    }
}

// ---- the key -------------------------------------------------------------

/// The canonical fingerprint of a term DAG: the cache key.
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
const REC_PREFER: u64 = 0xA5;
const KEY_QUERY: u64 = 0xB1;
const KEY_OBLIGATION: u64 = 0xB2;

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

/// Which variable or function a node names, if any: the part of a node
/// that [`hash_op`] leaves out.
#[derive(Clone, Copy)]
enum Names {
    Var(VarId),
    Apply(FuncId),
    Nothing,
}

/// A node's operands in canonical visiting order, with its ordering
/// hashes. The operator stays in the context and is read in place.
struct KeyNode {
    names: Names,
    args: Args,
    shape: u64,
    named: u64,
}

struct KeyBuilder<'a> {
    ctx: &'a Ctx,
    universals: FxHashSet<TermId>,
    nodes: FxHashMap<TermId, KeyNode>,
    ids: FxHashMap<TermId, u32>,
    vars: Vec<TermId>,
    funcs: FxHashMap<FuncId, u32>,
    h: Fnv2,
}

impl<'a> KeyBuilder<'a> {
    fn new(ctx: &'a Ctx, universals: &[TermId], kind: u64) -> Self {
        let mut h = Fnv2::new();
        h.word(kind);
        KeyBuilder {
            ctx,
            universals: universals.iter().copied().collect(),
            nodes: FxHashMap::default(),
            ids: FxHashMap::default(),
            vars: Vec::new(),
            funcs: FxHashMap::default(),
            h,
        }
    }

    /// Visits every node under `root` and computes its ordering hashes
    /// bottom-up (iteratively: term DAGs can be deeper than a worker
    /// thread's stack).
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
            let node = KeyNode {
                names: Names::Nothing,
                args: self.ctx.args(t),
                shape: 0,
                named: 0,
            };
            stack.push((t, true));
            for &a in node.args.iter() {
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
        let ctx = self.ctx;
        let (mut shape, names, commutative) = ctx.with_node(t, |op, _, sort| {
            let mut shape = FxHasher::default();
            hash_op(op, sort, &mut shape);
            let names = match op {
                Op::Var(v) => Names::Var(*v),
                Op::Apply(f) => Names::Apply(*f),
                _ => Names::Nothing,
            };
            (shape, names, is_commutative(op))
        });
        let mut named = shape;
        match names {
            Names::Var(v) => {
                self.universals.contains(&t).hash(&mut shape);
                named = shape;
                ctx.with_var_name(v, |n| n.hash(&mut named));
            }
            Names::Apply(f) => ctx.with_func_name(f, |n| n.hash(&mut named)),
            Names::Nothing => {}
        }
        let nodes = &self.nodes;
        let order = |a: &TermId| (nodes[a].shape, nodes[a].named, *a);
        let mut args = nodes[&t].args.clone();
        if commutative {
            args.sort_unstable_by_key(order);
        }
        for a in args.iter() {
            shape.write_u64(nodes[a].shape);
            named.write_u64(nodes[a].named);
        }
        let node = self.nodes.get_mut(&t).expect("node visited before hashing");
        node.names = names;
        node.shape = shape.finish();
        node.named = named.finish();
        node.args = args;
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
        self.ctx.with_node(t, |op, _, sort| hash_op(op, sort, h));
        match node.names {
            Names::Var(_) => {
                // Each node is emitted once, so this is its first occurrence.
                h.word(self.vars.len() as u64);
                h.word(u64::from(self.universals.contains(&t)));
                self.vars.push(t);
            }
            Names::Apply(f) => {
                let next = self.funcs.len() as u32;
                h.word(u64::from(*self.funcs.entry(f).or_insert(next)));
            }
            Names::Nothing => {}
        }
        h.word(node.args.len() as u64);
        for a in node.args.iter() {
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
    /// The key of a one-shot query: its conjunction `root`, taken after
    /// rewriting.
    pub fn of_query(ctx: &Ctx, root: TermId) -> TermKey {
        let mut b = KeyBuilder::new(ctx, &[], KEY_QUERY);
        b.shapes(root);
        let id = b.visit(root);
        b.h.word(REC_ROOT);
        b.h.word(id);
        b.finish()
    }

    /// The key of a whole ∃∀ obligation: `phi` with its `universals`
    /// flagged, each seed instantiation of the universals that occur in
    /// `phi` (in order: CEGQI pushes them in order), and the two settings
    /// that shape the witness it returns: `rewrite`, and the
    /// `prefer_false` flags that occur in the keyed terms (in order).
    pub fn of_obligation(
        ctx: &Ctx,
        universals: &[TermId],
        phi: TermId,
        seeds: &[FxHashMap<TermId, TermId>],
        rewrite: bool,
        prefer_false: &[TermId],
    ) -> TermKey {
        let mut b = KeyBuilder::new(ctx, universals, KEY_OBLIGATION);
        b.h.word(u64::from(rewrite));
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
        for f in prefer_false {
            if let Some(&id) = b.ids.get(f) {
                b.h.word(REC_PREFER);
                b.h.word(u64::from(id));
            }
        }
        b.finish()
    }

    /// The 128-bit fingerprint.
    pub fn fingerprint(&self) -> Fingerprint {
        self.fp
    }

    /// `model` over canonical variables, sorted by index; `None` when it
    /// assigns a variable the keyed terms do not mention, which makes the
    /// answer uncacheable.
    pub fn encode_model(&self, ctx: &Ctx, model: &Model) -> Option<Vec<(u32, Value)>> {
        let index: FxHashMap<VarId, u32> = self
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

/// A cached answer. Budget verdicts are deliberately unrepresentable.
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
    /// The clauses resident in the solver at dispatch (what `add_clause`
    /// kept after its level-0 work).
    pub clauses_post: u64,
}

/// Who reads and writes the cache on the current thread. The
/// validation engine sets one around each job ([`set_term_scope`]);
/// outside an engine there is none and the cache is off.
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

/// Sets (or with `None` clears) the cache scope of this thread.
pub fn set_term_scope(scope: Option<TermScope>) {
    SCOPE.with(|s| s.set(scope));
}

/// The cache scope of this thread; `None` turns the cache off.
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

/// Don't cache satisfying assignments beyond this many variables: the
/// entry would be bigger than the solve is worth.
const MAX_CACHED_MODEL_VARS: usize = 1 << 20;

/// The query cache. Cheap to share: all methods take `&self`.
pub struct QueryCache {
    /// Keyed by (engine, fingerprint): engines never see each other's
    /// entries.
    shards: Vec<Mutex<HashMap<(u64, Fingerprint), TermEntry>>>,
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
    /// An empty cache.
    pub fn new() -> Self {
        QueryCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, fp: Fingerprint) -> &Mutex<HashMap<(u64, Fingerprint), TermEntry>> {
        &self.shards[(fp.0 as usize) % SHARDS]
    }

    /// Total number of cached entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// True if no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up `key` for `scope`. Misses when the entry is not yet
    /// readable by this run (see [`TermScope`]) or its node or variable
    /// count disagrees with the key's (a collision).
    pub fn lookup_term(&self, scope: TermScope, key: &TermKey) -> Option<(TermOutcome, CnfSizes)> {
        let shard = lock(self.shard(key.fp));
        let e = shard.get(&(scope.engine, key.fp))?;
        if e.run >= scope.visible_below || e.nodes != key.nodes || e.vars != key.vars.len() as u32 {
            return None;
        }
        Some((e.outcome.clone(), e.cnf))
    }

    /// Stores an answer for `scope`. Within one run the lowest
    /// job index wins; a later run replaces an entry, which it only
    /// re-solves after that entry failed re-validation. Oversized models
    /// are not cached.
    pub fn store_term(&self, scope: TermScope, key: &TermKey, outcome: TermOutcome, cnf: CnfSizes) {
        if matches!(&outcome, TermOutcome::Sat(bits) if bits.len() > MAX_CACHED_MODEL_VARS) {
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
        let mut shard = lock(self.shard(key.fp));
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

    /// Approximate bytes retained in memory: per-entry map overhead plus
    /// the model payloads. The daemon's admission control treats this as
    /// the cache's share of `--mem-budget-mb` (term contexts are per-job
    /// and freed with the job, so the cache is the only unbounded
    /// cross-request growth).
    pub fn mem_bytes(&self) -> usize {
        // Key (engine id + fingerprint), run/job tags, node/variable
        // counts, CNF sizes, enum tag and Vec header, hash-map slot.
        const ENTRY_OVERHEAD: usize = 160;
        let value_bytes = |v: &Value| match v {
            Value::Bool(_) => 0,
            Value::Bv(bv) => std::mem::size_of_val(bv.words()),
        };
        self.shards
            .iter()
            .map(|s| {
                let shard = lock(s);
                shard.len() * ENTRY_OVERHEAD
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
            .sum()
    }

    /// Drops every entry, returning how many were evicted: the daemon's
    /// GC. Later runs re-solve what they would have read.
    pub fn clear_memory(&self) -> usize {
        self.shards
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
}

static GLOBAL: OnceLock<QueryCache> = OnceLock::new();

/// The process-wide cache, shared by every solver of every job.
pub fn global() -> &'static QueryCache {
    GLOBAL.get_or_init(QueryCache::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exists_forall::{solve_exists_forall_with_seeds, EfConfig, EfResult};
    use crate::sat::Budget;
    use crate::solver::{SmtResult, Solver};

    #[test]
    fn mem_accounting_and_gc() {
        let cache = QueryCache::new();
        assert_eq!(cache.mem_bytes(), 0);
        let ctx = Ctx::new();
        let b = ctx.var("b", Sort::Bool);
        let (writer, _) = scopes(1);
        cache.store_term(
            writer,
            &TermKey::of_query(&ctx, b),
            TermOutcome::Unsat,
            CnfSizes::default(),
        );
        let bytes = cache.mem_bytes();
        assert!(bytes > 0, "entry overhead counted");
        // A model payload counts too, each value's words included.
        let x = ctx.var("x", Sort::BitVec(512));
        let key = TermKey::of_query(&ctx, ctx.bv_ult(x, ctx.bv_lit_u64(512, 9)));
        let wide = Value::Bv(crate::bv::BitVec::from_u64(512, 3));
        cache.store_term(
            writer,
            &key,
            TermOutcome::Sat(vec![(0, wide)]),
            CnfSizes::default(),
        );
        assert_eq!(cache.len(), 2);
        assert!(cache.mem_bytes() >= 2 * bytes + 64, "512-bit value counted");
        assert_eq!(cache.clear_memory(), 2);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.mem_bytes(), 0);
        // A post-GC store repopulates normally.
        cache.store_term(writer, &key, TermOutcome::Unsat, CnfSizes::default());
        let (_, reader) = scopes(1);
        assert_eq!(
            cache.lookup_term(reader, &key).map(|(o, _)| o),
            Some(TermOutcome::Unsat)
        );
    }

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
        seeds: Vec<FxHashMap<TermId, TermId>>,
        x: TermId,
        /// The `x & u` node.
        xu: TermId,
        /// A boolean existential the witness may be asked to leave false.
        d: TermId,
    }

    impl Built {
        fn key(&self, ctx: &Ctx, seeded: bool, rewrite: bool, prefer: &[TermId]) -> TermKey {
            let seeds = if seeded { &self.seeds[..] } else { &[] };
            TermKey::of_obligation(ctx, &self.universals, self.phi, seeds, rewrite, prefer)
        }
    }

    /// ∃x,y,d ∀u. (x & u) = u ∧ (x + y <u lit ∨ (d ∧ u[lo+3:lo] = 3)),
    /// seeded with u ↦ x + seed_add.
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
        let d = ctx.var("d", Sort::Bool);
        let xu = ctx.bv_and(x, u);
        let low = ctx.extract(u, sh.extract_lo + 3, sh.extract_lo);
        let phi = ctx.and(
            ctx.eq(xu, u),
            ctx.or(
                ctx.bv_ult(ctx.bv_add(x, y), ctx.bv_lit_u64(8, sh.lit)),
                ctx.and(d, ctx.eq(low, ctx.bv_lit_u64(4, 3))),
            ),
        );
        let seed = FxHashMap::from_iter([(u, ctx.bv_add(x, ctx.bv_lit_u64(8, sh.seed_add)))]);
        Built {
            universals: if sh.u_universal { vec![u] } else { vec![] },
            phi,
            seeds: vec![seed],
            x,
            xu,
            d,
        }
    }

    fn key_of(sh: Shape, seeded: bool, rewrite: bool, prefer: bool) -> Fingerprint {
        let ctx = Ctx::new();
        let b = obligation(&ctx, sh);
        let prefer = if prefer { vec![b.d] } else { vec![] };
        b.key(&ctx, seeded, rewrite, &prefer).fingerprint()
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
        let (k1, k2) = (
            b1.key(&c1, true, true, &[b1.d]),
            b2.key(&c2, true, true, &[b2.d]),
        );
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
        let base = key_of(BASE, true, true, false);
        let existential = Shape {
            u_universal: false,
            ..BASE
        };
        let variants = [
            key_of(existential, true, true, false),
            key_of(Shape { lit: 0xF1, ..BASE }, true, true, false),
            key_of(
                Shape {
                    extract_lo: 1,
                    ..BASE
                },
                true,
                true,
                false,
            ),
            key_of(
                Shape {
                    seed_add: 2,
                    ..BASE
                },
                true,
                true,
                false,
            ),
            key_of(BASE, true, false, false),
            key_of(BASE, true, true, true),
        ];
        for (i, k) in variants.iter().enumerate() {
            assert_ne!(*k, base, "variant {i} collides with the base key");
            for (j, k2) in variants.iter().enumerate().skip(i + 1) {
                assert_ne!(k, k2, "variants {i} and {j} collide");
            }
        }
        // Without the seed, the universal flag alone tells them apart.
        assert_ne!(
            key_of(BASE, false, true, false),
            key_of(existential, false, true, false)
        );
        // A preferred flag that does not occur cannot shape the witness.
        let ctx = Ctx::new();
        let b = obligation(&ctx, BASE);
        let stranger = ctx.var("e", Sort::Bool);
        assert_eq!(
            b.key(&ctx, true, true, &[stranger]).fingerprint(),
            b.key(&ctx, true, true, &[]).fingerprint()
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
        let solve = || {
            solve_exists_forall_with_seeds(
                &ctx,
                &[u],
                phi,
                EfConfig::default(),
                &[],
                |_, _| None,
                &[],
            )
        };
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
        let solve = || {
            solve_exists_forall_with_seeds(
                &ctx,
                &[u],
                phi,
                EfConfig::default(),
                &[],
                |_, _| None,
                &[],
            )
        };
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
        let key = TermKey::of_obligation(&ctx, &[u], phi, &[], true, &[]);
        global().store_term(writer, &key, forged(&key, x, 0), CnfSizes::default());
        let (r, d) = under(Some(reader), || {
            solve_exists_forall_with_seeds(
                &ctx,
                &[u],
                phi,
                EfConfig::default(),
                &[],
                |_, _| None,
                &[],
            )
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
        let key = TermKey::of_query(&ctx, t);
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
        let key = TermKey::of_query(&ctx, b);
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
