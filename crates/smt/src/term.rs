//! Hash-consed SMT term DAG over booleans and fixed-width bit-vectors.
//!
//! All terms live inside a [`Ctx`] and are referred to by copyable
//! [`TermId`] handles. Builders are *smart constructors*: they apply local,
//! sound simplifications (constant folding, identities) while preserving the
//! syntactic structure that matters for the undef-detection trick of §3.3 of
//! the Alive2 paper.

use crate::bv::BitVec;
use crate::fxhash::{FxHashMap, FxHashSet, FxHasher};
use std::cell::RefCell;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Handle to a term inside a [`Ctx`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TermId(u32);

impl TermId {
    /// The raw index of this term in its context.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Handle to a declared variable.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct VarId(pub u32);

/// Handle to a declared uninterpreted function.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct FuncId(pub u32);

/// The sort (type) of a term.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Sort {
    /// Boolean sort.
    Bool,
    /// Bit-vector sort of the given positive width.
    BitVec(u32),
}

impl Sort {
    /// Returns the bit-vector width.
    ///
    /// # Panics
    ///
    /// Panics if the sort is `Bool`.
    pub fn width(self) -> u32 {
        match self {
            Sort::BitVec(w) => w,
            Sort::Bool => panic!("expected bit-vector sort, found Bool"),
        }
    }

    /// True if this is the boolean sort.
    pub fn is_bool(self) -> bool {
        matches!(self, Sort::Bool)
    }
}

impl fmt::Display for Sort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sort::Bool => write!(f, "Bool"),
            Sort::BitVec(w) => write!(f, "(_ BitVec {w})"),
        }
    }
}

/// The operator of a term node.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Op {
    /// Boolean literal `true`.
    True,
    /// Boolean literal `false`.
    False,
    /// Bit-vector literal.
    BvLit(BitVec),
    /// Free variable reference.
    Var(VarId),
    /// Boolean negation.
    Not,
    /// Binary conjunction.
    And,
    /// Binary disjunction.
    Or,
    /// Boolean exclusive or.
    BXor,
    /// Implication.
    Implies,
    /// Equality over matching sorts (result is Bool).
    Eq,
    /// If-then-else; condition is Bool, branches share a sort.
    Ite,
    /// Bitwise complement.
    BvNot,
    /// Two's-complement negation.
    BvNeg,
    /// Bitwise and.
    BvAnd,
    /// Bitwise or.
    BvOr,
    /// Bitwise xor.
    BvXor,
    /// Wrapping addition.
    BvAdd,
    /// Wrapping subtraction.
    BvSub,
    /// Wrapping multiplication.
    BvMul,
    /// Unsigned division (totalized per SMT-LIB).
    BvUdiv,
    /// Unsigned remainder (totalized per SMT-LIB).
    BvUrem,
    /// Signed division truncating toward zero.
    BvSdiv,
    /// Signed remainder.
    BvSrem,
    /// Logical shift left.
    BvShl,
    /// Logical shift right.
    BvLshr,
    /// Arithmetic shift right.
    BvAshr,
    /// Unsigned less-than (result Bool).
    Ult,
    /// Unsigned less-or-equal (result Bool).
    Ule,
    /// Signed less-than (result Bool).
    Slt,
    /// Signed less-or-equal (result Bool).
    Sle,
    /// Concatenation; first operand becomes the high bits.
    Concat,
    /// Bit extraction `[hi:lo]`, inclusive.
    Extract(u32, u32),
    /// Zero extension to the given total width.
    ZExt(u32),
    /// Sign extension to the given total width.
    SExt(u32),
    /// Uninterpreted function application.
    Apply(FuncId),
}

/// A stored node. Its operands are `Inner::operands[first..first + arity]`.
struct Node {
    op: Op,
    sort: Sort,
    first: u32,
    arity: u32,
}

/// A node's operands, copied out of its [`Ctx`]: inline for arity ≤ 3
/// (every operator but a wider `Apply`), so a walk over the DAG makes no
/// heap allocation per node. Derefs to `[TermId]`.
#[derive(Clone, Debug)]
pub struct Args(ArgsRepr);

#[derive(Clone, Debug)]
enum ArgsRepr {
    Inline(u8, [TermId; 3]),
    Heap(Box<[TermId]>),
}

impl Args {
    fn copy_of(ids: &[TermId]) -> Args {
        Args(match ids.len() {
            n @ 0..=3 => {
                let mut inline = [TermId(0); 3];
                inline[..n].copy_from_slice(ids);
                ArgsRepr::Inline(n as u8, inline)
            }
            _ => ArgsRepr::Heap(ids.into()),
        })
    }

    /// `f` of every operand, in order.
    pub(crate) fn map(&self, mut f: impl FnMut(TermId) -> TermId) -> Args {
        let mut out = self.clone();
        for t in out.iter_mut() {
            *t = f(*t);
        }
        out
    }
}

impl std::ops::Deref for Args {
    type Target = [TermId];

    fn deref(&self) -> &[TermId] {
        match &self.0 {
            ArgsRepr::Inline(n, ids) => &ids[..*n as usize],
            ArgsRepr::Heap(ids) => ids,
        }
    }
}

impl std::ops::DerefMut for Args {
    fn deref_mut(&mut self) -> &mut [TermId] {
        match &mut self.0 {
            ArgsRepr::Inline(n, ids) => &mut ids[..*n as usize],
            ArgsRepr::Heap(ids) => ids,
        }
    }
}

impl<'a> IntoIterator for &'a Args {
    type Item = &'a TermId;
    type IntoIter = std::slice::Iter<'a, TermId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

struct FuncInfo {
    name: String,
    arg_sorts: Vec<Sort>,
    ret_sort: Sort,
}

/// End of a hash-cons chain.
const NIL: u32 = u32::MAX;

/// The bytes [`Inner::node_bytes`] charges a node besides its operands.
/// It is the size a node had when each one kept two boxed copies of its
/// operands (one in the node list, one in the key of a std `HashMap`);
/// the charge is kept, so a `--mem-budget-mb` cap trips on the node it
/// always tripped on.
const NODE_CHARGE: usize = 56;

/// The bytes [`Ctx::var`] charges a variable besides its name: the size
/// of its table entry when the entry also held the variable's sort (its
/// node holds it). Kept for the reason [`NODE_CHARGE`] is.
const VAR_CHARGE: usize = 32;

/// The hash-cons key of a node: its operator, operands and sort, hashed in
/// place.
fn node_hash(op: &Op, args: &[TermId], sort: Sort) -> u64 {
    let mut h = FxHasher::default();
    op.hash(&mut h);
    sort.hash(&mut h);
    args.hash(&mut h);
    h.finish()
}

struct Inner {
    nodes: Vec<Node>,
    /// Every node's operands, back to back in node order.
    operands: Vec<TermId>,
    /// The hash-cons table, chained over node ids: `heads[b]` is the
    /// newest node of bucket `b` (the top bits of its hash), `next[id]`
    /// the node after `id` in its bucket and `hashes[id]` its full hash.
    /// A probe compares every candidate's whole node, and the table is
    /// never iterated, so its hash decides nothing but the probe's cost.
    heads: Vec<u32>,
    next: Vec<u32>,
    hashes: Vec<u64>,
    /// `heads.len() == 1 << (64 - shift)`.
    shift: u32,
    /// Masks every node hash; all ones except in tests that force
    /// collisions.
    hash_mask: u64,
    /// Variable names, by [`VarId`].
    vars: Vec<String>,
    funcs: Vec<FuncInfo>,
    /// Approximate bytes held by the DAG (nodes + dedup entries + operand
    /// slices). The DAG is append-only, so this is also the live size.
    mem_bytes: usize,
    /// Optional cap on `mem_bytes`. Exceeding it latches [`Inner::over`];
    /// construction still succeeds so callers can poll at choke points
    /// rather than thread `Result` through every smart constructor.
    mem_budget: Option<usize>,
    /// Latched budget-exceeded flag.
    over: bool,
    /// Hash-cons lookups resolved to an existing node.
    hc_hits: u64,
    /// Hash-cons lookups that allocated a new node.
    hc_misses: u64,
}

impl Inner {
    fn new(hash_mask: u64) -> Inner {
        Inner {
            nodes: Vec::new(),
            operands: Vec::new(),
            heads: Vec::new(),
            next: Vec::new(),
            hashes: Vec::new(),
            shift: 64,
            hash_mask,
            vars: Vec::new(),
            funcs: Vec::new(),
            mem_bytes: 0,
            mem_budget: None,
            over: false,
            hc_hits: 0,
            hc_misses: 0,
        }
    }

    /// Approximate heap cost of one interned node with `arity` operands:
    /// the node, its dedup entry and two copies of its operands.
    fn node_bytes(arity: usize) -> usize {
        2 * (NODE_CHARGE + arity * std::mem::size_of::<TermId>() + std::mem::size_of::<TermId>())
    }

    fn charge(&mut self, bytes: usize) {
        self.mem_bytes += bytes;
        if let Some(cap) = self.mem_budget {
            if self.mem_bytes > cap {
                self.over = true;
            }
        }
    }

    fn operands(&self, node: &Node) -> &[TermId] {
        &self.operands[node.first as usize..(node.first + node.arity) as usize]
    }

    fn bucket(&self, hash: u64) -> usize {
        // `checked_shr`: an empty table has shift 64.
        hash.checked_shr(self.shift).unwrap_or(0) as usize
    }

    /// The node equal to `(op, args, sort)`, if one is stored.
    fn find(&self, hash: u64, op: &Op, args: &[TermId], sort: Sort) -> Option<TermId> {
        let mut id = *self.heads.get(self.bucket(hash))?;
        while id != NIL {
            let node = &self.nodes[id as usize];
            if self.hashes[id as usize] == hash
                && node.sort == sort
                && node.op == *op
                && self.operands(node) == args
            {
                return Some(TermId(id));
            }
            id = self.next[id as usize];
        }
        None
    }

    /// Stores a node `find` did not find and links it into its bucket,
    /// doubling the table first once it holds a node per bucket.
    fn insert(&mut self, hash: u64, op: Op, args: &[TermId], sort: Sort) -> TermId {
        let id = self.nodes.len() as u32;
        assert!(id < NIL, "term DAG exceeds u32::MAX nodes");
        self.nodes.push(Node {
            op,
            sort,
            first: self.operands.len() as u32,
            arity: args.len() as u32,
        });
        self.operands.extend_from_slice(args);
        self.hashes.push(hash);
        self.next.push(NIL);
        if self.nodes.len() > self.heads.len() {
            let buckets = (self.heads.len() * 2).max(64);
            self.shift = 64 - buckets.trailing_zeros();
            self.heads = vec![NIL; buckets];
            for i in 0..self.nodes.len() {
                let b = self.bucket(self.hashes[i]);
                self.next[i] = self.heads[b];
                self.heads[b] = i as u32;
            }
        } else {
            let b = self.bucket(hash);
            self.next[id as usize] = self.heads[b];
            self.heads[b] = id;
        }
        TermId(id)
    }
}

/// A term-construction context: owns the hash-consed DAG, variables, and
/// uninterpreted functions.
///
/// # Examples
///
/// ```
/// use alive2_smt::term::{Ctx, Sort};
///
/// let ctx = Ctx::new();
/// let x = ctx.var("x", Sort::BitVec(8));
/// let zero = ctx.bv_lit_u64(8, 0);
/// let t = ctx.bv_add(x, zero);
/// assert_eq!(t, x); // x + 0 simplifies to x
/// ```
pub struct Ctx {
    inner: RefCell<Inner>,
}

impl Default for Ctx {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Ctx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        write!(
            f,
            "Ctx {{ terms: {}, vars: {}, funcs: {} }}",
            inner.nodes.len(),
            inner.vars.len(),
            inner.funcs.len()
        )
    }
}

/// The literal `true`: the first node of every context.
const TRUE: TermId = TermId(0);

/// The literal `false`: the second node of every context.
const FALSE: TermId = TermId(1);

impl Ctx {
    /// Creates a context that holds only the two Boolean literals.
    pub fn new() -> Self {
        Self::with_inner(Inner::new(u64::MAX))
    }

    /// A context whose hash-cons table sees every node hash masked by
    /// `mask`, so tests can force long probe chains.
    #[cfg(test)]
    fn with_hash_mask(mask: u64) -> Self {
        Self::with_inner(Inner::new(mask))
    }

    /// Interns the Boolean literals first, so [`Ctx::tru`] and
    /// [`Ctx::fals`] return their ids without a hash-cons probe and
    /// without moving `hc_hits`.
    fn with_inner(inner: Inner) -> Self {
        let ctx = Ctx {
            inner: RefCell::new(inner),
        };
        let literals = [
            ctx.intern(Op::True, &[], Sort::Bool),
            ctx.intern(Op::False, &[], Sort::Bool),
        ];
        debug_assert_eq!(literals, [TRUE, FALSE]);
        ctx
    }

    /// Number of distinct term nodes created so far.
    pub fn num_terms(&self) -> usize {
        self.inner.borrow().nodes.len()
    }

    /// Approximate bytes held by the term DAG (nodes, dedup table,
    /// variable/function tables). Append-only, so this is the live size.
    pub fn mem_bytes(&self) -> usize {
        self.inner.borrow().mem_bytes
    }

    /// Caps the DAG at approximately `bytes` (`None` removes the cap).
    /// Exceeding the cap latches [`Ctx::over_budget`]; term construction
    /// itself never fails, so callers poll the flag at encoding/solving
    /// choke points and convert it into an out-of-memory verdict.
    pub fn set_mem_budget(&self, bytes: Option<usize>) {
        let mut inner = self.inner.borrow_mut();
        inner.mem_budget = bytes;
        inner.over = bytes.is_some_and(|cap| inner.mem_bytes > cap);
    }

    /// The configured memory cap, if any.
    pub fn mem_budget(&self) -> Option<usize> {
        self.inner.borrow().mem_budget
    }

    /// True once the DAG has grown past the configured cap (latched).
    pub fn over_budget(&self) -> bool {
        self.inner.borrow().over
    }

    /// Hash-cons lookups resolved to an existing node.
    pub fn hc_hits(&self) -> u64 {
        self.inner.borrow().hc_hits
    }

    /// Hash-cons lookups that allocated a new node. Note that the
    /// simplifying smart constructors often rewrite before interning, so
    /// `hc_hits + hc_misses` can exceed calls to the public constructors.
    pub fn hc_misses(&self) -> u64 {
        self.inner.borrow().hc_misses
    }

    /// The id of the node `(op, args, sort)`: probed in place, and stored
    /// (the only allocation) when it is new.
    fn intern(&self, op: Op, args: &[TermId], sort: Sort) -> TermId {
        let mut inner = self.inner.borrow_mut();
        let hash = node_hash(&op, args, sort) & inner.hash_mask;
        if let Some(id) = inner.find(hash, &op, args, sort) {
            inner.hc_hits += 1;
            return id;
        }
        inner.hc_misses += 1;
        let id = inner.insert(hash, op, args, sort);
        inner.charge(Inner::node_bytes(args.len()));
        id
    }

    /// The sort of a term.
    pub fn sort(&self, t: TermId) -> Sort {
        self.inner.borrow().nodes[t.index()].sort
    }

    /// The operator of a term.
    pub fn op(&self, t: TermId) -> Op {
        self.inner.borrow().nodes[t.index()].op.clone()
    }

    /// The operands of a term (a copy, inline for arity ≤ 3).
    pub fn args(&self, t: TermId) -> Args {
        let inner = self.inner.borrow();
        Args::copy_of(inner.operands(&inner.nodes[t.index()]))
    }

    /// Declares a fresh variable. Names need not be unique; each call
    /// produces a distinct variable.
    pub fn var(&self, name: &str, sort: Sort) -> TermId {
        let vid = {
            let mut inner = self.inner.borrow_mut();
            let vid = VarId(inner.vars.len() as u32);
            inner.vars.push(name.to_string());
            inner.charge(VAR_CHARGE + name.len());
            vid
        };
        self.intern(Op::Var(vid), &[], sort)
    }

    /// The variable id of a `Var` term, if it is one.
    pub fn as_var(&self, t: TermId) -> Option<VarId> {
        match self.inner.borrow().nodes[t.index()].op {
            Op::Var(v) => Some(v),
            _ => None,
        }
    }

    /// The name of a variable.
    pub fn var_name(&self, v: VarId) -> String {
        self.inner.borrow().vars[v.0 as usize].clone()
    }

    /// Calls `f` on the name of a variable without copying it. `f` must
    /// not build terms: the context is borrowed while it runs.
    pub fn with_var_name<R>(&self, v: VarId, f: impl FnOnce(&str) -> R) -> R {
        f(&self.inner.borrow().vars[v.0 as usize])
    }

    /// Number of variables declared.
    pub fn num_vars(&self) -> usize {
        self.inner.borrow().vars.len()
    }

    /// Declares an uninterpreted function.
    pub fn func(&self, name: &str, arg_sorts: &[Sort], ret_sort: Sort) -> FuncId {
        let mut inner = self.inner.borrow_mut();
        let fid = FuncId(inner.funcs.len() as u32);
        inner.funcs.push(FuncInfo {
            name: name.to_string(),
            arg_sorts: arg_sorts.to_vec(),
            ret_sort,
        });
        inner.charge(
            std::mem::size_of::<FuncInfo>()
                + name.len()
                + arg_sorts.len() * std::mem::size_of::<Sort>(),
        );
        fid
    }

    /// The name of an uninterpreted function.
    pub fn func_name(&self, f: FuncId) -> String {
        self.inner.borrow().funcs[f.0 as usize].name.clone()
    }

    /// Calls `f` on the name of an uninterpreted function without copying
    /// it. `f` must not build terms: the context is borrowed while it runs.
    pub(crate) fn with_func_name<R>(&self, f: FuncId, g: impl FnOnce(&str) -> R) -> R {
        g(&self.inner.borrow().funcs[f.0 as usize].name)
    }

    /// Calls `f` on the operator, operands and sort of a term without
    /// copying them (a literal's value included). `f` must not build
    /// terms: the context is borrowed while it runs.
    pub(crate) fn with_node<R>(&self, t: TermId, f: impl FnOnce(&Op, &[TermId], Sort) -> R) -> R {
        let inner = self.inner.borrow();
        let node = &inner.nodes[t.index()];
        f(&node.op, inner.operands(node), node.sort)
    }

    /// The result sort of an uninterpreted function.
    pub fn func_ret_sort(&self, f: FuncId) -> Sort {
        self.inner.borrow().funcs[f.0 as usize].ret_sort
    }

    /// Applies an uninterpreted function to arguments.
    ///
    /// # Panics
    ///
    /// Panics if the argument sorts do not match the declaration.
    pub fn apply(&self, f: FuncId, args: &[TermId]) -> TermId {
        let ret = {
            let inner = self.inner.borrow();
            let info = &inner.funcs[f.0 as usize];
            assert_eq!(info.arg_sorts.len(), args.len(), "arity mismatch");
            for (a, s) in args.iter().zip(&info.arg_sorts) {
                assert_eq!(inner.nodes[a.index()].sort, *s, "argument sort mismatch");
            }
            info.ret_sort
        };
        self.intern(Op::Apply(f), args, ret)
    }

    // ---- boolean constructors -------------------------------------------

    /// The literal `true`.
    pub fn tru(&self) -> TermId {
        TRUE
    }

    /// The literal `false`.
    pub fn fals(&self) -> TermId {
        FALSE
    }

    /// A boolean literal.
    pub fn bool_lit(&self, b: bool) -> TermId {
        if b {
            self.tru()
        } else {
            self.fals()
        }
    }

    /// If the term is a boolean literal, its value.
    pub fn as_bool_lit(&self, t: TermId) -> Option<bool> {
        match self.inner.borrow().nodes[t.index()].op {
            Op::True => Some(true),
            Op::False => Some(false),
            _ => None,
        }
    }

    /// Boolean negation.
    pub fn not(&self, a: TermId) -> TermId {
        debug_assert!(self.sort(a).is_bool());
        if let Some(b) = self.as_bool_lit(a) {
            return self.bool_lit(!b);
        }
        if let Op::Not = self.op(a) {
            return self.args(a)[0];
        }
        self.intern(Op::Not, &[a], Sort::Bool)
    }

    /// Binary conjunction with unit/absorbing simplification.
    pub fn and(&self, a: TermId, b: TermId) -> TermId {
        match (self.as_bool_lit(a), self.as_bool_lit(b)) {
            (Some(true), _) => return b,
            (_, Some(true)) => return a,
            (Some(false), _) | (_, Some(false)) => return self.fals(),
            _ => {}
        }
        if a == b {
            return a;
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.intern(Op::And, &[a, b], Sort::Bool)
    }

    /// Conjunction of many terms.
    pub fn and_many(&self, ts: &[TermId]) -> TermId {
        ts.iter().fold(self.tru(), |acc, &t| self.and(acc, t))
    }

    /// Binary disjunction with unit/absorbing simplification.
    pub fn or(&self, a: TermId, b: TermId) -> TermId {
        match (self.as_bool_lit(a), self.as_bool_lit(b)) {
            (Some(false), _) => return b,
            (_, Some(false)) => return a,
            (Some(true), _) | (_, Some(true)) => return self.tru(),
            _ => {}
        }
        if a == b {
            return a;
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.intern(Op::Or, &[a, b], Sort::Bool)
    }

    /// Disjunction of many terms.
    pub fn or_many(&self, ts: &[TermId]) -> TermId {
        ts.iter().fold(self.fals(), |acc, &t| self.or(acc, t))
    }

    /// Boolean exclusive or.
    pub fn bxor(&self, a: TermId, b: TermId) -> TermId {
        match (self.as_bool_lit(a), self.as_bool_lit(b)) {
            (Some(x), Some(y)) => return self.bool_lit(x ^ y),
            (Some(false), _) => return b,
            (_, Some(false)) => return a,
            (Some(true), _) => return self.not(b),
            (_, Some(true)) => return self.not(a),
            _ => {}
        }
        if a == b {
            return self.fals();
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.intern(Op::BXor, &[a, b], Sort::Bool)
    }

    /// Implication `a => b`.
    pub fn implies(&self, a: TermId, b: TermId) -> TermId {
        match (self.as_bool_lit(a), self.as_bool_lit(b)) {
            (Some(false), _) | (_, Some(true)) => return self.tru(),
            (Some(true), _) => return b,
            (_, Some(false)) => return self.not(a),
            _ => {}
        }
        if a == b {
            return self.tru();
        }
        self.intern(Op::Implies, &[a, b], Sort::Bool)
    }

    /// Equality between two terms of the same sort.
    ///
    /// # Panics
    ///
    /// Panics if the sorts differ.
    pub fn eq(&self, a: TermId, b: TermId) -> TermId {
        assert_eq!(self.sort(a), self.sort(b), "eq sort mismatch");
        if a == b {
            return self.tru();
        }
        // Hash-consing keeps one node per literal value, so two literal
        // nodes are equal exactly when their ids are.
        if self.is_bv_lit(a) && self.is_bv_lit(b) {
            return self.fals();
        }
        // (ite c k1 k2) = k  simplifies to c / !c / true / false when the
        // branches are literals; keeps bool↔bv1 conversions cheap.
        for (x, k) in [(a, b), (b, a)] {
            if self.is_bv_lit(k) && self.with_node(x, |op, _, _| matches!(op, Op::Ite)) {
                let args = self.args(x);
                if self.is_bv_lit(args[1]) && self.is_bv_lit(args[2]) {
                    return match (args[1] == k, args[2] == k) {
                        (true, true) => self.tru(),
                        (true, false) => args[0],
                        (false, true) => self.not(args[0]),
                        (false, false) => self.fals(),
                    };
                }
            }
        }
        match (self.as_bool_lit(a), self.as_bool_lit(b)) {
            (Some(x), Some(y)) => return self.bool_lit(x == y),
            (Some(true), _) => return b,
            (_, Some(true)) => return a,
            (Some(false), _) => return self.not(b),
            (_, Some(false)) => return self.not(a),
            _ => {}
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.intern(Op::Eq, &[a, b], Sort::Bool)
    }

    /// Disequality.
    pub fn ne(&self, a: TermId, b: TermId) -> TermId {
        let e = self.eq(a, b);
        self.not(e)
    }

    /// If-then-else over any shared branch sort.
    ///
    /// # Panics
    ///
    /// Panics if `c` is not boolean or branch sorts differ.
    pub fn ite(&self, c: TermId, t: TermId, e: TermId) -> TermId {
        assert!(self.sort(c).is_bool(), "ite condition must be Bool");
        let sort = self.sort(t);
        assert_eq!(sort, self.sort(e), "ite branch sort mismatch");
        if let Some(b) = self.as_bool_lit(c) {
            return if b { t } else { e };
        }
        if t == e {
            return t;
        }
        if sort.is_bool() {
            match (self.as_bool_lit(t), self.as_bool_lit(e)) {
                (Some(true), Some(false)) => return c,
                (Some(false), Some(true)) => return self.not(c),
                (Some(true), None) => return self.or(c, e),
                (Some(false), None) => {
                    let nc = self.not(c);
                    return self.and(nc, e);
                }
                (None, Some(true)) => {
                    let nc = self.not(c);
                    return self.or(nc, t);
                }
                (None, Some(false)) => return self.and(c, t),
                _ => {}
            }
        }
        self.intern(Op::Ite, &[c, t, e], sort)
    }

    // ---- bit-vector constructors ----------------------------------------

    /// A bit-vector literal.
    pub fn bv_lit(&self, v: BitVec) -> TermId {
        let sort = Sort::BitVec(v.width());
        self.intern(Op::BvLit(v), &[], sort)
    }

    /// A bit-vector literal from the low bits of a `u64`.
    pub fn bv_lit_u64(&self, width: u32, v: u64) -> TermId {
        self.bv_lit(BitVec::from_u64(width, v))
    }

    /// If the term is a bit-vector literal, its value.
    pub fn as_bv_lit(&self, t: TermId) -> Option<BitVec> {
        self.map_bv_lit(t, BitVec::clone)
    }

    /// True if the term is a bit-vector literal.
    pub(crate) fn is_bv_lit(&self, t: TermId) -> bool {
        matches!(self.inner.borrow().nodes[t.index()].op, Op::BvLit(_))
    }

    /// `f` of a bit-vector literal's value, which it reads in place;
    /// `None` when the term is not a literal. `f` must not build terms.
    pub(crate) fn map_bv_lit<R>(&self, t: TermId, f: impl FnOnce(&BitVec) -> R) -> Option<R> {
        match &self.inner.borrow().nodes[t.index()].op {
            Op::BvLit(v) => Some(f(v)),
            _ => None,
        }
    }

    /// `f` of two literals' values, read in place; `None` unless both
    /// terms are literals.
    fn map_bv_lits<R>(
        &self,
        a: TermId,
        b: TermId,
        f: impl FnOnce(&BitVec, &BitVec) -> R,
    ) -> Option<R> {
        let inner = self.inner.borrow();
        match (&inner.nodes[a.index()].op, &inner.nodes[b.index()].op) {
            (Op::BvLit(x), Op::BvLit(y)) => Some(f(x, y)),
            _ => None,
        }
    }

    /// True if `t` is the literal zero.
    fn is_zero_lit(&self, t: TermId) -> bool {
        self.map_bv_lit(t, BitVec::is_zero) == Some(true)
    }

    fn bv_binop(
        &self,
        op: Op,
        a: TermId,
        b: TermId,
        fold: impl Fn(&BitVec, &BitVec) -> BitVec,
    ) -> TermId {
        let sort = self.sort(a);
        assert_eq!(sort, self.sort(b), "bit-vector operand width mismatch");
        if let Some(v) = self.map_bv_lits(a, b, fold) {
            return self.bv_lit(v);
        }
        self.intern(op, &[a, b], sort)
    }

    /// Bitwise complement.
    pub fn bv_not(&self, a: TermId) -> TermId {
        if let Some(x) = self.map_bv_lit(a, BitVec::not) {
            return self.bv_lit(x);
        }
        if let Op::BvNot = self.op(a) {
            return self.args(a)[0];
        }
        let sort = self.sort(a);
        self.intern(Op::BvNot, &[a], sort)
    }

    /// Two's-complement negation.
    pub fn bv_neg(&self, a: TermId) -> TermId {
        if let Some(x) = self.map_bv_lit(a, BitVec::neg) {
            return self.bv_lit(x);
        }
        if let Op::BvNeg = self.op(a) {
            return self.args(a)[0];
        }
        let sort = self.sort(a);
        self.intern(Op::BvNeg, &[a], sort)
    }

    /// Asserts both operands share one bit-vector sort *before* any
    /// identity short-circuit fires: a `bv_add(x, wider_zero)` must trip
    /// this, not silently return `x` at the wrong width.
    fn assert_same_width(&self, a: TermId, b: TermId) {
        assert_eq!(
            self.sort(a),
            self.sort(b),
            "bit-vector operand width mismatch"
        );
    }

    /// Bitwise and, with zero/ones identities.
    pub fn bv_and(&self, a: TermId, b: TermId) -> TermId {
        self.assert_same_width(a, b);
        for (x, y) in [(a, b), (b, a)] {
            match self.map_bv_lit(x, |v| (v.is_zero(), v.is_all_ones())) {
                Some((true, _)) => return x,
                Some((_, true)) => return y,
                _ => {}
            }
        }
        if a == b {
            return a;
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.bv_binop(Op::BvAnd, a, b, BitVec::and)
    }

    /// Bitwise or, with zero/ones identities.
    pub fn bv_or(&self, a: TermId, b: TermId) -> TermId {
        self.assert_same_width(a, b);
        for (x, y) in [(a, b), (b, a)] {
            match self.map_bv_lit(x, |v| (v.is_zero(), v.is_all_ones())) {
                Some((true, _)) => return y,
                Some((_, true)) => return x,
                _ => {}
            }
        }
        if a == b {
            return a;
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.bv_binop(Op::BvOr, a, b, BitVec::or)
    }

    /// Bitwise xor, with zero identity.
    pub fn bv_xor(&self, a: TermId, b: TermId) -> TermId {
        self.assert_same_width(a, b);
        for (x, y) in [(a, b), (b, a)] {
            if self.is_zero_lit(x) {
                return y;
            }
        }
        if a == b {
            let w = self.sort(a).width();
            return self.bv_lit(BitVec::zero(w));
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.bv_binop(Op::BvXor, a, b, BitVec::xor)
    }

    /// Wrapping addition, with zero identity.
    pub fn bv_add(&self, a: TermId, b: TermId) -> TermId {
        self.assert_same_width(a, b);
        for (x, y) in [(a, b), (b, a)] {
            if self.is_zero_lit(x) {
                return y;
            }
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.bv_binop(Op::BvAdd, a, b, BitVec::add)
    }

    /// Wrapping subtraction.
    pub fn bv_sub(&self, a: TermId, b: TermId) -> TermId {
        self.assert_same_width(a, b);
        if self.is_zero_lit(b) {
            return a;
        }
        if a == b {
            let w = self.sort(a).width();
            return self.bv_lit(BitVec::zero(w));
        }
        self.bv_binop(Op::BvSub, a, b, BitVec::sub)
    }

    /// Wrapping multiplication, with 0/1 identities.
    pub fn bv_mul(&self, a: TermId, b: TermId) -> TermId {
        self.assert_same_width(a, b);
        for (x, y) in [(a, b), (b, a)] {
            match self.map_bv_lit(x, |v| (v.is_zero(), v.is_one())) {
                Some((true, _)) => return x,
                Some((_, true)) => return y,
                _ => {}
            }
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.bv_binop(Op::BvMul, a, b, BitVec::mul)
    }

    /// Unsigned division (SMT-LIB totalization).
    pub fn bv_udiv(&self, a: TermId, b: TermId) -> TermId {
        self.bv_binop(Op::BvUdiv, a, b, BitVec::udiv)
    }

    /// Unsigned remainder (SMT-LIB totalization).
    pub fn bv_urem(&self, a: TermId, b: TermId) -> TermId {
        self.bv_binop(Op::BvUrem, a, b, BitVec::urem)
    }

    /// Signed division (SMT-LIB totalization).
    pub fn bv_sdiv(&self, a: TermId, b: TermId) -> TermId {
        self.bv_binop(Op::BvSdiv, a, b, BitVec::sdiv)
    }

    /// Signed remainder (SMT-LIB totalization).
    pub fn bv_srem(&self, a: TermId, b: TermId) -> TermId {
        self.bv_binop(Op::BvSrem, a, b, BitVec::srem)
    }

    /// Logical shift left.
    pub fn bv_shl(&self, a: TermId, b: TermId) -> TermId {
        self.assert_same_width(a, b);
        if self.is_zero_lit(b) {
            return a;
        }
        self.bv_binop(Op::BvShl, a, b, BitVec::shl)
    }

    /// Logical shift right.
    pub fn bv_lshr(&self, a: TermId, b: TermId) -> TermId {
        self.assert_same_width(a, b);
        if self.is_zero_lit(b) {
            return a;
        }
        self.bv_binop(Op::BvLshr, a, b, BitVec::lshr)
    }

    /// Arithmetic shift right.
    pub fn bv_ashr(&self, a: TermId, b: TermId) -> TermId {
        self.assert_same_width(a, b);
        if self.is_zero_lit(b) {
            return a;
        }
        self.bv_binop(Op::BvAshr, a, b, BitVec::ashr)
    }

    fn bv_cmp(
        &self,
        op: Op,
        a: TermId,
        b: TermId,
        fold: impl Fn(&BitVec, &BitVec) -> bool,
    ) -> TermId {
        assert_eq!(self.sort(a), self.sort(b), "comparison width mismatch");
        if let Some(v) = self.map_bv_lits(a, b, fold) {
            return self.bool_lit(v);
        }
        self.intern(op, &[a, b], Sort::Bool)
    }

    /// Unsigned less-than.
    pub fn bv_ult(&self, a: TermId, b: TermId) -> TermId {
        if a == b {
            return self.fals();
        }
        self.bv_cmp(Op::Ult, a, b, BitVec::ult)
    }

    /// Unsigned less-or-equal.
    pub fn bv_ule(&self, a: TermId, b: TermId) -> TermId {
        if a == b {
            return self.tru();
        }
        self.bv_cmp(Op::Ule, a, b, BitVec::ule)
    }

    /// Signed less-than.
    pub fn bv_slt(&self, a: TermId, b: TermId) -> TermId {
        if a == b {
            return self.fals();
        }
        self.bv_cmp(Op::Slt, a, b, BitVec::slt)
    }

    /// Signed less-or-equal.
    pub fn bv_sle(&self, a: TermId, b: TermId) -> TermId {
        if a == b {
            return self.tru();
        }
        self.bv_cmp(Op::Sle, a, b, BitVec::sle)
    }

    /// Unsigned greater-than.
    pub fn bv_ugt(&self, a: TermId, b: TermId) -> TermId {
        self.bv_ult(b, a)
    }

    /// Unsigned greater-or-equal.
    pub fn bv_uge(&self, a: TermId, b: TermId) -> TermId {
        self.bv_ule(b, a)
    }

    /// Signed greater-than.
    pub fn bv_sgt(&self, a: TermId, b: TermId) -> TermId {
        self.bv_slt(b, a)
    }

    /// Signed greater-or-equal.
    pub fn bv_sge(&self, a: TermId, b: TermId) -> TermId {
        self.bv_sle(b, a)
    }

    /// Concatenation; `hi` becomes the high bits.
    pub fn concat(&self, hi: TermId, lo: TermId) -> TermId {
        let w = self.sort(hi).width() + self.sort(lo).width();
        if let Some(v) = self.map_bv_lits(hi, lo, BitVec::concat) {
            return self.bv_lit(v);
        }
        self.intern(Op::Concat, &[hi, lo], Sort::BitVec(w))
    }

    /// Concatenation of many parts, first part highest.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty.
    pub fn concat_many(&self, parts: &[TermId]) -> TermId {
        assert!(!parts.is_empty());
        let mut acc = parts[0];
        for &p in &parts[1..] {
            acc = self.concat(acc, p);
        }
        acc
    }

    /// Extracts bits `[hi:lo]` inclusive.
    ///
    /// # Panics
    ///
    /// Panics if the range is invalid for the operand width.
    pub fn extract(&self, t: TermId, hi: u32, lo: u32) -> TermId {
        let w = self.sort(t).width();
        assert!(hi >= lo && hi < w, "invalid extract range");
        if lo == 0 && hi == w - 1 {
            return t;
        }
        if let Some(v) = self.map_bv_lit(t, |x| x.extract(hi, lo)) {
            return self.bv_lit(v);
        }
        // extract of concat: resolve if fully within one side.
        if let Op::Concat = self.op(t) {
            let args = self.args(t);
            let lo_w = self.sort(args[1]).width();
            if hi < lo_w {
                return self.extract(args[1], hi, lo);
            }
            if lo >= lo_w {
                return self.extract(args[0], hi - lo_w, lo - lo_w);
            }
        }
        self.intern(Op::Extract(hi, lo), &[t], Sort::BitVec(hi - lo + 1))
    }

    /// Zero-extends to `width`.
    pub fn zext(&self, t: TermId, width: u32) -> TermId {
        let w = self.sort(t).width();
        assert!(width >= w, "zext must not shrink");
        if width == w {
            return t;
        }
        if let Some(v) = self.map_bv_lit(t, |x| x.zext(width)) {
            return self.bv_lit(v);
        }
        self.intern(Op::ZExt(width), &[t], Sort::BitVec(width))
    }

    /// Sign-extends to `width`.
    pub fn sext(&self, t: TermId, width: u32) -> TermId {
        let w = self.sort(t).width();
        assert!(width >= w, "sext must not shrink");
        if width == w {
            return t;
        }
        if let Some(v) = self.map_bv_lit(t, |x| x.sext(width)) {
            return self.bv_lit(v);
        }
        self.intern(Op::SExt(width), &[t], Sort::BitVec(width))
    }

    /// Truncates to the low `width` bits.
    pub fn trunc(&self, t: TermId, width: u32) -> TermId {
        let w = self.sort(t).width();
        assert!(width <= w && width > 0, "invalid trunc width");
        if width == w {
            return t;
        }
        self.extract(t, width - 1, 0)
    }

    /// A 1-bit vector from a boolean (`b ? 1 : 0`).
    pub fn bool_to_bv1(&self, b: TermId) -> TermId {
        let one = self.bv_lit_u64(1, 1);
        let zero = self.bv_lit_u64(1, 0);
        self.ite(b, one, zero)
    }

    /// A boolean from a 1-bit vector (`v == 1`).
    pub fn bv1_to_bool(&self, v: TermId) -> TermId {
        debug_assert_eq!(self.sort(v).width(), 1);
        let one = self.bv_lit_u64(1, 1);
        self.eq(v, one)
    }

    // ---- traversals ------------------------------------------------------

    /// Collects the set of variables appearing in `t`.
    pub fn free_vars(&self, t: TermId) -> FxHashSet<TermId> {
        let mut out = FxHashSet::default();
        self.collect_free_vars(t, &mut FxHashSet::default(), &mut out);
        out
    }

    /// Collects variables of many roots.
    pub fn free_vars_many(&self, ts: &[TermId]) -> FxHashSet<TermId> {
        let (mut seen, mut out) = (FxHashSet::default(), FxHashSet::default());
        for &t in ts {
            self.collect_free_vars(t, &mut seen, &mut out);
        }
        out
    }

    /// True if an uninterpreted function application occurs in `t`.
    pub fn has_apply(&self, t: TermId) -> bool {
        self.walk(t, &mut FxHashSet::default(), |_, op| {
            matches!(op, Op::Apply(_))
        })
    }

    /// Adds the variables under `t` to `out`, skipping the nodes in `seen`
    /// (and adding the ones it visits).
    fn collect_free_vars(
        &self,
        t: TermId,
        seen: &mut FxHashSet<TermId>,
        out: &mut FxHashSet<TermId>,
    ) {
        self.walk(t, seen, |cur, op| {
            if let Op::Var(_) = op {
                out.insert(cur);
            }
            false
        });
    }

    /// Visits the nodes under `t` that are not in `seen` (adding them),
    /// until `stop` returns true for one; returns whether it did.
    fn walk(
        &self,
        t: TermId,
        seen: &mut FxHashSet<TermId>,
        mut stop: impl FnMut(TermId, &Op) -> bool,
    ) -> bool {
        let mut stack = vec![t];
        let inner = self.inner.borrow();
        while let Some(cur) = stack.pop() {
            if !seen.insert(cur) {
                continue;
            }
            let node = &inner.nodes[cur.index()];
            if stop(cur, &node.op) {
                return true;
            }
            stack.extend_from_slice(inner.operands(node));
        }
        false
    }

    /// Rebuilds `t` with variables substituted per `map` (var term → term).
    /// Substitution happens simultaneously; results are simplified by the
    /// smart constructors.
    pub fn substitute(&self, t: TermId, map: &FxHashMap<TermId, TermId>) -> TermId {
        let mut memo: FxHashMap<TermId, TermId> = FxHashMap::default();
        self.subst_rec(t, map, &mut memo)
    }

    /// [`Ctx::substitute`] with the caller's memo, so several roots
    /// substituted under one `map` share the work on common subterms.
    pub(crate) fn subst_rec(
        &self,
        t: TermId,
        map: &FxHashMap<TermId, TermId>,
        memo: &mut FxHashMap<TermId, TermId>,
    ) -> TermId {
        if let Some(&r) = memo.get(&t) {
            return r;
        }
        if let Some(&r) = map.get(&t) {
            memo.insert(t, r);
            return r;
        }
        let args = self.args(t);
        let new_args = args.map(|a| self.subst_rec(a, map, memo));
        // A node with operands is never a literal, so its operator copies
        // without touching the heap.
        let r = if *new_args == *args {
            t
        } else {
            self.rebuild(self.op(t), &new_args)
        };
        memo.insert(t, r);
        r
    }

    /// Rebuilds a node with new arguments via the smart constructors.
    pub fn rebuild(&self, op: Op, a: &[TermId]) -> TermId {
        match op {
            Op::True => self.tru(),
            Op::False => self.fals(),
            Op::BvLit(v) => self.bv_lit(v),
            Op::Var(_) => panic!("rebuild of Var requires no argument change"),
            Op::Not => self.not(a[0]),
            Op::And => self.and(a[0], a[1]),
            Op::Or => self.or(a[0], a[1]),
            Op::BXor => self.bxor(a[0], a[1]),
            Op::Implies => self.implies(a[0], a[1]),
            Op::Eq => self.eq(a[0], a[1]),
            Op::Ite => self.ite(a[0], a[1], a[2]),
            Op::BvNot => self.bv_not(a[0]),
            Op::BvNeg => self.bv_neg(a[0]),
            Op::BvAnd => self.bv_and(a[0], a[1]),
            Op::BvOr => self.bv_or(a[0], a[1]),
            Op::BvXor => self.bv_xor(a[0], a[1]),
            Op::BvAdd => self.bv_add(a[0], a[1]),
            Op::BvSub => self.bv_sub(a[0], a[1]),
            Op::BvMul => self.bv_mul(a[0], a[1]),
            Op::BvUdiv => self.bv_udiv(a[0], a[1]),
            Op::BvUrem => self.bv_urem(a[0], a[1]),
            Op::BvSdiv => self.bv_sdiv(a[0], a[1]),
            Op::BvSrem => self.bv_srem(a[0], a[1]),
            Op::BvShl => self.bv_shl(a[0], a[1]),
            Op::BvLshr => self.bv_lshr(a[0], a[1]),
            Op::BvAshr => self.bv_ashr(a[0], a[1]),
            Op::Ult => self.bv_ult(a[0], a[1]),
            Op::Ule => self.bv_ule(a[0], a[1]),
            Op::Slt => self.bv_slt(a[0], a[1]),
            Op::Sle => self.bv_sle(a[0], a[1]),
            Op::Concat => self.concat(a[0], a[1]),
            Op::Extract(hi, lo) => self.extract(a[0], hi, lo),
            Op::ZExt(w) => self.zext(a[0], w),
            Op::SExt(w) => self.sext(a[0], w),
            Op::Apply(f) => self.apply(f, a),
        }
    }

    /// Pretty-prints a term as an s-expression (for diagnostics).
    pub fn display(&self, t: TermId) -> String {
        let mut s = String::new();
        self.display_rec(t, &mut s, 0);
        s
    }

    fn display_rec(&self, t: TermId, out: &mut String, depth: usize) {
        if depth > 40 {
            out.push('…');
            return;
        }
        let op = self.op(t);
        let args = self.args(t);
        match op {
            Op::True => out.push_str("true"),
            Op::False => out.push_str("false"),
            Op::BvLit(v) => out.push_str(&format!("#x{:x}", v)),
            Op::Var(v) => out.push_str(&self.var_name(v)),
            Op::Apply(f) => {
                out.push('(');
                out.push_str(&self.func_name(f));
                for &a in args.iter() {
                    out.push(' ');
                    self.display_rec(a, out, depth + 1);
                }
                out.push(')');
            }
            _ => {
                let name = match op {
                    Op::Not => "not",
                    Op::And => "and",
                    Op::Or => "or",
                    Op::BXor => "xor",
                    Op::Implies => "=>",
                    Op::Eq => "=",
                    Op::Ite => "ite",
                    Op::BvNot => "bvnot",
                    Op::BvNeg => "bvneg",
                    Op::BvAnd => "bvand",
                    Op::BvOr => "bvor",
                    Op::BvXor => "bvxor",
                    Op::BvAdd => "bvadd",
                    Op::BvSub => "bvsub",
                    Op::BvMul => "bvmul",
                    Op::BvUdiv => "bvudiv",
                    Op::BvUrem => "bvurem",
                    Op::BvSdiv => "bvsdiv",
                    Op::BvSrem => "bvsrem",
                    Op::BvShl => "bvshl",
                    Op::BvLshr => "bvlshr",
                    Op::BvAshr => "bvashr",
                    Op::Ult => "bvult",
                    Op::Ule => "bvule",
                    Op::Slt => "bvslt",
                    Op::Sle => "bvsle",
                    Op::Concat => "concat",
                    Op::Extract(hi, lo) => {
                        out.push_str(&format!("((_ extract {hi} {lo}) "));
                        self.display_rec(args[0], out, depth + 1);
                        out.push(')');
                        return;
                    }
                    Op::ZExt(w) => {
                        let from = self.sort(args[0]).width();
                        out.push_str(&format!("((_ zero_extend {}) ", w - from));
                        self.display_rec(args[0], out, depth + 1);
                        out.push(')');
                        return;
                    }
                    Op::SExt(w) => {
                        let from = self.sort(args[0]).width();
                        out.push_str(&format!("((_ sign_extend {}) ", w - from));
                        self.display_rec(args[0], out, depth + 1);
                        out.push(')');
                        return;
                    }
                    _ => unreachable!(),
                };
                out.push('(');
                out.push_str(name);
                for &a in args.iter() {
                    out.push(' ');
                    self.display_rec(a, out, depth + 1);
                }
                out.push(')');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_dedups() {
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(8));
        let y = ctx.var("y", Sort::BitVec(8));
        let a = ctx.bv_add(x, y);
        let b = ctx.bv_add(x, y);
        assert_eq!(a, b);
        let c = ctx.bv_add(y, x); // commutative canonical order
        assert_eq!(a, c);
    }

    #[test]
    fn distinct_vars_same_name() {
        let ctx = Ctx::new();
        let a = ctx.var("v", Sort::Bool);
        let b = ctx.var("v", Sort::Bool);
        assert_ne!(a, b);
    }

    #[test]
    fn constant_folding() {
        let ctx = Ctx::new();
        let a = ctx.bv_lit_u64(8, 200);
        let b = ctx.bv_lit_u64(8, 100);
        assert_eq!(ctx.as_bv_lit(ctx.bv_add(a, b)).unwrap().to_u64(), 44);
        assert_eq!(ctx.as_bool_lit(ctx.bv_ult(b, a)), Some(true));
        let t = ctx.tru();
        let f = ctx.fals();
        assert_eq!(ctx.and(t, f), f);
        assert_eq!(ctx.or(t, f), t);
        assert_eq!(ctx.implies(f, t), t);
    }

    /// The smart constructors' literal folds must agree with [`BitVec`]
    /// for every operand pair at width 4, including the identity
    /// short-circuit paths (zero shift, zero add, one mul) that return
    /// before reaching `bv_binop`'s shared fold.
    #[test]
    fn ctor_folds_match_bitvec_exhaustively() {
        let ctx = Ctx::new();
        const W: u32 = 4;
        for a in 0..16u64 {
            for b in 0..16u64 {
                let (x, y) = (BitVec::from_u64(W, a), BitVec::from_u64(W, b));
                let (ta, tb) = (ctx.bv_lit(x.clone()), ctx.bv_lit(y.clone()));
                let ops: [(&str, TermId, BitVec); 12] = [
                    ("add", ctx.bv_add(ta, tb), x.add(&y)),
                    ("sub", ctx.bv_sub(ta, tb), x.sub(&y)),
                    ("mul", ctx.bv_mul(ta, tb), x.mul(&y)),
                    ("and", ctx.bv_and(ta, tb), x.and(&y)),
                    ("or", ctx.bv_or(ta, tb), x.or(&y)),
                    ("xor", ctx.bv_xor(ta, tb), x.xor(&y)),
                    ("udiv", ctx.bv_udiv(ta, tb), x.udiv(&y)),
                    ("urem", ctx.bv_urem(ta, tb), x.urem(&y)),
                    ("sdiv", ctx.bv_sdiv(ta, tb), x.sdiv(&y)),
                    ("srem", ctx.bv_srem(ta, tb), x.srem(&y)),
                    ("shl", ctx.bv_shl(ta, tb), x.shl(&y)),
                    ("lshr", ctx.bv_lshr(ta, tb), x.lshr(&y)),
                ];
                for (name, t, want) in ops {
                    assert_eq!(ctx.as_bv_lit(t), Some(want), "{a} {name} {b}");
                }
                assert_eq!(ctx.as_bv_lit(ctx.bv_ashr(ta, tb)), Some(x.ashr(&y)));
                assert_eq!(ctx.as_bool_lit(ctx.bv_ult(ta, tb)), Some(x.ult(&y)));
                assert_eq!(ctx.as_bool_lit(ctx.bv_sle(ta, tb)), Some(x.sle(&y)));
            }
        }
    }

    /// The SMT-LIB division corner cases must fold, not just behave, at
    /// the constructor level (the rewriter re-derives them as rules).
    #[test]
    fn division_corner_folds() {
        let ctx = Ctx::new();
        let min = ctx.bv_lit(BitVec::min_signed(8));
        let m1 = ctx.bv_lit(BitVec::all_ones(8));
        let zero = ctx.bv_lit_u64(8, 0);
        // INT_MIN sdiv -1 wraps to INT_MIN; srem is 0.
        assert_eq!(ctx.bv_sdiv(min, m1), min);
        assert_eq!(ctx.bv_srem(min, m1), zero);
        // by-zero totalization.
        let x = ctx.bv_lit_u64(8, 42);
        assert_eq!(ctx.bv_udiv(x, zero), m1);
        assert_eq!(ctx.bv_urem(x, zero), x);
        assert_eq!(ctx.bv_sdiv(x, zero), m1);
        assert_eq!(ctx.bv_srem(x, zero), x);
        let neg = ctx.bv_lit(BitVec::from_i64(8, -42));
        assert_eq!(ctx.bv_sdiv(neg, zero), ctx.bv_lit_u64(8, 1));
        // oversized shift amounts fold to zero / sign-fill.
        let big = ctx.bv_lit_u64(8, 200);
        assert_eq!(ctx.bv_shl(x, big), zero);
        assert_eq!(ctx.bv_lshr(x, big), zero);
        assert_eq!(ctx.bv_ashr(min, big), m1);
        assert_eq!(ctx.bv_ashr(x, big), zero);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn mismatched_width_zero_identity_panics() {
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(8));
        let z16 = ctx.bv_lit_u64(16, 0);
        // Must trip the width assertion, not silently return `x` via the
        // zero-identity short-circuit.
        ctx.bv_add(x, z16);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn mismatched_width_shift_panics() {
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(8));
        let z16 = ctx.bv_lit_u64(16, 0);
        ctx.bv_shl(x, z16);
    }

    #[test]
    fn identities() {
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(16));
        let zero = ctx.bv_lit_u64(16, 0);
        let one = ctx.bv_lit_u64(16, 1);
        let ones = ctx.bv_lit(BitVec::all_ones(16));
        assert_eq!(ctx.bv_add(x, zero), x);
        assert_eq!(ctx.bv_mul(x, one), x);
        assert_eq!(ctx.bv_mul(x, zero), zero);
        assert_eq!(ctx.bv_and(x, ones), x);
        assert_eq!(ctx.bv_and(x, zero), zero);
        assert_eq!(ctx.bv_or(x, zero), x);
        assert_eq!(ctx.bv_xor(x, x), zero);
        assert_eq!(ctx.bv_sub(x, x), zero);
        assert_eq!(ctx.eq(x, x), ctx.tru());
    }

    #[test]
    fn ite_simplification() {
        let ctx = Ctx::new();
        let c = ctx.var("c", Sort::Bool);
        let x = ctx.var("x", Sort::BitVec(8));
        let y = ctx.var("y", Sort::BitVec(8));
        assert_eq!(ctx.ite(ctx.tru(), x, y), x);
        assert_eq!(ctx.ite(ctx.fals(), x, y), y);
        assert_eq!(ctx.ite(c, x, x), x);
        let t = ctx.tru();
        let f = ctx.fals();
        assert_eq!(ctx.ite(c, t, f), c);
        assert_eq!(ctx.ite(c, f, t), ctx.not(c));
    }

    #[test]
    fn extract_of_concat_resolves() {
        let ctx = Ctx::new();
        let hi = ctx.var("hi", Sort::BitVec(8));
        let lo = ctx.var("lo", Sort::BitVec(8));
        let cc = ctx.concat(hi, lo);
        assert_eq!(ctx.extract(cc, 7, 0), lo);
        assert_eq!(ctx.extract(cc, 15, 8), hi);
        assert_eq!(ctx.sort(ctx.extract(cc, 11, 4)), Sort::BitVec(8));
    }

    #[test]
    fn substitution() {
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(8));
        let y = ctx.var("y", Sort::BitVec(8));
        let t = ctx.bv_add(x, x);
        let mut map = FxHashMap::default();
        map.insert(x, y);
        assert_eq!(ctx.substitute(t, &map), ctx.bv_add(y, y));
        // substituting a constant folds
        let three = ctx.bv_lit_u64(8, 3);
        let mut map2 = FxHashMap::default();
        map2.insert(x, three);
        assert_eq!(ctx.as_bv_lit(ctx.substitute(t, &map2)).unwrap().to_u64(), 6);
    }

    #[test]
    fn free_vars_collection() {
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(8));
        let y = ctx.var("y", Sort::BitVec(8));
        let c = ctx.var("c", Sort::Bool);
        let t = ctx.ite(c, x, y);
        let vars = ctx.free_vars(t);
        assert_eq!(vars.len(), 3);
        assert!(vars.contains(&x) && vars.contains(&y) && vars.contains(&c));
    }

    #[test]
    fn uf_application() {
        let ctx = Ctx::new();
        let f = ctx.func("f", &[Sort::BitVec(8)], Sort::BitVec(8));
        let x = ctx.var("x", Sort::BitVec(8));
        let a = ctx.apply(f, &[x]);
        let b = ctx.apply(f, &[x]);
        assert_eq!(a, b);
        assert_eq!(ctx.sort(a), Sort::BitVec(8));
    }

    #[test]
    fn display_sexpr() {
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(8));
        let one = ctx.bv_lit_u64(8, 1);
        let t = ctx.bv_add(x, one);
        let s = ctx.display(t);
        assert!(s.contains("bvadd") && s.contains('x'));
    }

    #[test]
    fn bool_bv1_round_trip() {
        let ctx = Ctx::new();
        let c = ctx.var("c", Sort::Bool);
        let v = ctx.bool_to_bv1(c);
        assert_eq!(ctx.sort(v), Sort::BitVec(1));
        assert_eq!(ctx.bv1_to_bool(v), c);
    }

    /// The chained intern table against a brute-force dedup by linear
    /// scan: random node sequences (literals of widths 1–128, variables,
    /// 3-ary ites, applications of 4 to 6 operands, binary and unary
    /// nodes over earlier ones) must get the same ids, hit and miss counts
    /// and memory charge. The masks run the real hash, hashes cut to their
    /// top four bits (long chains of unequal hashes) and one hash for
    /// every node (every probe compares whole nodes).
    #[test]
    fn intern_table_matches_a_linear_scan_dedup() {
        for mask in [u64::MAX, 0xF000_0000_0000_0000, 0] {
            let ctx = Ctx::with_hash_mask(mask);
            // Every context starts with the two Boolean literals.
            let mut seen: Vec<(Op, Vec<TermId>, Sort)> = vec![
                (Op::True, vec![], Sort::Bool),
                (Op::False, vec![], Sort::Bool),
            ];
            let (mut hits, mut misses, mut bytes) = (0u64, 2u64, 2 * 2 * (56 + 4));
            let mut state = 0x2545_f491_4f6c_dd1du64;
            let mut rand = |n: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % n
            };
            for _ in 0..4000 {
                // Operands come from the newest nodes, so repeats are common.
                let n = seen.len() as u64;
                let operands = |k: u64, rand: &mut dyn FnMut(u64) -> u64| -> Vec<TermId> {
                    (0..k)
                        .map(|_| TermId((n - 1 - rand(n.min(24))) as u32))
                        .collect()
                };
                let sort = [Sort::Bool, Sort::BitVec(1), Sort::BitVec(32)][rand(3) as usize];
                let node = match if n == 0 { 0 } else { rand(6) } {
                    0 => {
                        let width = 1 + rand(128) as u32;
                        let v = BitVec::from_words(width, &[rand(3), rand(2) << 63]);
                        (Op::BvLit(v), vec![], Sort::BitVec(width))
                    }
                    1 => (Op::Var(VarId(rand(6) as u32)), vec![], sort),
                    2 => (Op::Ite, operands(3, &mut rand), sort),
                    3 => {
                        let k = 4 + rand(3);
                        (
                            Op::Apply(FuncId(rand(2) as u32)),
                            operands(k, &mut rand),
                            sort,
                        )
                    }
                    4 => {
                        let op = [Op::And, Op::BvAdd, Op::Eq, Op::Concat][rand(4) as usize].clone();
                        (op, operands(2, &mut rand), sort)
                    }
                    _ => (Op::Extract(rand(2) as u32, 0), operands(1, &mut rand), sort),
                };
                let want = match seen.iter().position(|m| *m == node) {
                    Some(i) => {
                        hits += 1;
                        TermId(i as u32)
                    }
                    None => {
                        misses += 1;
                        // What a node has always been charged.
                        bytes += 2 * (56 + 4 * node.1.len() + 4);
                        seen.push(node.clone());
                        TermId(n as u32)
                    }
                };
                let (op, args, sort) = node;
                assert_eq!(ctx.intern(op, &args, sort), want, "mask {mask:#x}");
            }
            assert!(hits > 1000 && misses > 1000, "{hits} hits, {misses} misses");
            assert_eq!(
                (ctx.hc_hits(), ctx.hc_misses(), ctx.mem_bytes()),
                (hits, misses, bytes),
                "mask {mask:#x}"
            );
            for (i, (op, args, sort)) in seen.iter().enumerate() {
                let t = TermId(i as u32);
                assert_eq!(ctx.op(t), *op);
                assert_eq!(*ctx.args(t), args[..]);
                assert_eq!(ctx.sort(t), *sort);
            }
        }
    }

    #[test]
    fn mem_meter_counts_and_dedup_is_free() {
        let ctx = Ctx::new();
        let literals = ctx.mem_bytes();
        let x = ctx.var("x", Sort::BitVec(8));
        let y = ctx.var("y", Sort::BitVec(8));
        let t = ctx.bv_add(x, y);
        let after = ctx.mem_bytes();
        assert!(after > literals);
        // Hash-consing: rebuilding the same term allocates nothing new.
        assert_eq!(ctx.bv_add(x, y), t);
        assert_eq!(ctx.mem_bytes(), after);
    }

    #[test]
    fn boolean_literals_need_no_hash_cons_probe() {
        let ctx = Ctx::new();
        assert_eq!((ctx.num_terms(), ctx.hc_hits(), ctx.hc_misses()), (2, 0, 2));
        let x = ctx.var("x", Sort::Bool);
        for b in [true, false] {
            assert_eq!(ctx.as_bool_lit(ctx.bool_lit(b)), Some(b));
        }
        assert_eq!(ctx.not(ctx.tru()), ctx.fals());
        assert_eq!(ctx.and(x, ctx.fals()), ctx.fals());
        assert_eq!((ctx.num_terms(), ctx.hc_hits(), ctx.hc_misses()), (3, 0, 3));
    }

    #[test]
    fn mem_budget_latches_when_exceeded() {
        let ctx = Ctx::new();
        ctx.set_mem_budget(Some(512));
        assert!(!ctx.over_budget());
        let mut t = ctx.var("x", Sort::BitVec(32));
        let mut i = 0u64;
        while !ctx.over_budget() && i < 10_000 {
            t = ctx.bv_add(t, ctx.bv_lit_u64(32, i + 1));
            i += 1;
        }
        assert!(ctx.over_budget(), "budget never tripped");
        assert!(ctx.mem_bytes() > 512);
        // Lifting the cap clears the latch; re-tightening restores it.
        ctx.set_mem_budget(None);
        assert!(!ctx.over_budget());
        ctx.set_mem_budget(Some(512));
        assert!(ctx.over_budget());
    }
}
