//! Tseitin bit-blasting of the term DAG into CNF, written straight into
//! the CDCL solver.
//!
//! Every boolean term becomes a single literal and every bit-vector term a
//! little-endian vector of literals. Gates are introduced on demand and
//! memoized twice: per term, so shared sub-DAGs are encoded once, and per
//! gate, so two terms that build the same gate over the same literals
//! share its output (structural hashing). Adders and comparators are
//! chains of three-input gates: an XOR3 sum and a majority carry.

use crate::bv::BitVec;
use crate::sat::{Lit, SatSolver};
use crate::term::{Ctx, Op, TermId, VarId};
use std::collections::HashMap;

/// A key of the gate table: a gate kind over normalized inputs, so every
/// spelling of one gate finds the same output literal.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Gate {
    /// `a ∧ b`, inputs sorted.
    And(Lit, Lit),
    /// `a ⊕ b`, inputs positive (their polarities go to the output) and
    /// sorted.
    Xor(Lit, Lit),
    /// `c ? t : e`, condition positive (a negative one swaps the arms).
    Mux(Lit, Lit, Lit),
    /// `a ⊕ b ⊕ c`, inputs positive and sorted.
    Xor3(Lit, Lit, Lit),
    /// At least two of `a, b, c`: inputs sorted by variable, the first
    /// positive (MAJ is self-dual, so the rest go to the output).
    Maj(Lit, Lit, Lit),
}

/// The positive literal of `l`'s variable, and whether `l` was negative.
fn strip(l: Lit) -> (Lit, bool) {
    (Lit::new(l.var(), true), !l.is_positive())
}

/// `l`, negated when `flip` holds.
fn flip_if(l: Lit, flip: bool) -> Lit {
    if flip {
        l.negate()
    } else {
        l
    }
}

/// Bit-blasts terms from a [`Ctx`] into the [`SatSolver`] it owns.
///
/// Every clause goes through [`add_clause`](Self::add_clause) into
/// `sat` the moment it is built, so the solver's level-0 work happens on
/// the way in and no clause is stored twice. A one-shot check blasts its
/// roots into a fresh blaster and solves `sat`; an incremental solver
/// keeps one blaster, and with it one warm solver, across its checks.
///
/// Every gate's defining clauses are added unconditionally, so a gate's
/// output means the same thing in every later query over this solver.
/// That is what lets an `IncrementalSolver` share gates between
/// activation groups: only the root literal of a grouped assertion is
/// guarded.
///
/// Uninterpreted function applications must be eliminated (Ackermannized)
/// before blasting; encountering one is a bug and panics.
pub struct BitBlaster<'a> {
    ctx: &'a Ctx,
    /// The solver every clause goes into.
    pub(crate) sat: SatSolver,
    /// What [`num_clauses`](Self::num_clauses) reports.
    emitted: usize,
    bool_memo: HashMap<TermId, Lit>,
    bv_memo: HashMap<TermId, Vec<Lit>>,
    var_bool: HashMap<VarId, Lit>,
    var_bits: HashMap<VarId, Vec<Lit>>,
    /// Output literal of every gate built so far. Only ever looked up,
    /// never iterated, so its hash order cannot reach the CNF.
    gates: HashMap<Gate, Lit>,
    true_lit: Lit,
}

impl<'a> std::fmt::Debug for BitBlaster<'a> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BitBlaster {{ vars: {}, clauses: {} }}",
            self.sat.num_vars(),
            self.emitted
        )
    }
}

impl<'a> BitBlaster<'a> {
    /// Creates a blaster for the given context.
    pub fn new(ctx: &'a Ctx) -> Self {
        let mut sat = SatSolver::new();
        // Variable 0, positive: the smallest literal, which the gates'
        // constant short cuts rely on.
        let true_lit = Lit::new(sat.new_var(), true);
        let mut bb = BitBlaster {
            ctx,
            sat,
            emitted: 0,
            bool_memo: HashMap::new(),
            bv_memo: HashMap::new(),
            var_bool: HashMap::new(),
            var_bits: HashMap::new(),
            gates: HashMap::new(),
            true_lit,
        };
        bb.add_clause(&[true_lit]);
        bb
    }

    /// The always-true literal.
    pub fn true_lit(&self) -> Lit {
        self.true_lit
    }

    /// A literal of a fresh variable.
    pub(crate) fn fresh(&mut self) -> Lit {
        Lit::new(self.sat.new_var(), true)
    }

    /// Adds a clause to the solver and counts it.
    pub(crate) fn add_clause(&mut self, lits: &[Lit]) {
        self.emitted += 1;
        self.sat.add_clause(lits);
    }

    /// Clauses emitted so far, as built: every gate and assertion clause,
    /// counted before the solver's level-0 work drops or shortens any.
    pub(crate) fn num_clauses(&self) -> usize {
        self.emitted
    }

    /// Asserts that a boolean term holds.
    pub fn assert_term(&mut self, t: TermId) {
        let l = self.blast_bool(t);
        self.add_clause(&[l]);
    }

    /// The SAT literal of a boolean variable, if it was blasted.
    pub fn bool_var_lit(&self, v: VarId) -> Option<Lit> {
        self.var_bool.get(&v).copied()
    }

    /// The SAT literals (LSB first) of a bit-vector variable, if blasted.
    pub fn bv_var_lits(&self, v: VarId) -> Option<&[Lit]> {
        self.var_bits.get(&v).map(|v| v.as_slice())
    }

    fn const_lit(&self, b: bool) -> Lit {
        if b {
            self.true_lit
        } else {
            self.true_lit.negate()
        }
    }

    // ---- gates -----------------------------------------------------------

    /// The output of gate `g`: the table's literal, or a fresh one whose
    /// defining clauses are added now.
    fn hashed(&mut self, g: Gate) -> Lit {
        if let Some(&o) = self.gates.get(&g) {
            return o;
        }
        let o = self.fresh();
        match g {
            Gate::And(a, b) => {
                self.add_clause(&[o.negate(), a]);
                self.add_clause(&[o.negate(), b]);
                self.add_clause(&[o, a.negate(), b.negate()]);
            }
            Gate::Xor(a, b) => {
                self.add_clause(&[o.negate(), a, b]);
                self.add_clause(&[o.negate(), a.negate(), b.negate()]);
                self.add_clause(&[o, a, b.negate()]);
                self.add_clause(&[o, a.negate(), b]);
            }
            Gate::Mux(c, t, e) => {
                self.add_clause(&[c.negate(), t.negate(), o]);
                self.add_clause(&[c.negate(), t, o.negate()]);
                self.add_clause(&[c, e.negate(), o]);
                self.add_clause(&[c, e, o.negate()]);
            }
            Gate::Xor3(a, b, c) => {
                // One clause per input row: the row's inputs force `o`
                // to their parity.
                for row in 0..8u32 {
                    let (va, vb, vc) = (row & 1 != 0, row & 2 != 0, row & 4 != 0);
                    self.add_clause(&[
                        flip_if(a, va),
                        flip_if(b, vb),
                        flip_if(c, vc),
                        flip_if(o, !(va ^ vb ^ vc)),
                    ]);
                }
            }
            Gate::Maj(a, b, c) => {
                for (x, y) in [(a, b), (a, c), (b, c)] {
                    self.add_clause(&[x.negate(), y.negate(), o]);
                }
                for (x, y) in [(a, b), (a, c), (b, c)] {
                    self.add_clause(&[x, y, o.negate()]);
                }
            }
        }
        self.gates.insert(g, o);
        o
    }

    fn gate_and(&mut self, a: Lit, b: Lit) -> Lit {
        if a == self.true_lit {
            return b;
        }
        if b == self.true_lit {
            return a;
        }
        if a == self.true_lit.negate() || b == self.true_lit.negate() {
            return self.true_lit.negate();
        }
        if a == b {
            return a;
        }
        if a == b.negate() {
            return self.true_lit.negate();
        }
        self.hashed(Gate::And(a.min(b), a.max(b)))
    }

    fn gate_or(&mut self, a: Lit, b: Lit) -> Lit {
        self.gate_and(a.negate(), b.negate()).negate()
    }

    fn gate_xor(&mut self, a: Lit, b: Lit) -> Lit {
        if a == self.true_lit {
            return b.negate();
        }
        if a == self.true_lit.negate() {
            return b;
        }
        if b == self.true_lit {
            return a.negate();
        }
        if b == self.true_lit.negate() {
            return a;
        }
        if a == b {
            return self.true_lit.negate();
        }
        if a == b.negate() {
            return self.true_lit;
        }
        let ((a, na), (b, nb)) = (strip(a), strip(b));
        let o = self.hashed(Gate::Xor(a.min(b), a.max(b)));
        flip_if(o, na != nb)
    }

    fn gate_mux(&mut self, c: Lit, t: Lit, e: Lit) -> Lit {
        if c == self.true_lit {
            return t;
        }
        if c == self.true_lit.negate() {
            return e;
        }
        if t == e {
            return t;
        }
        if c.is_positive() {
            self.hashed(Gate::Mux(c, t, e))
        } else {
            self.hashed(Gate::Mux(c.negate(), e, t))
        }
    }

    fn gate_iff(&mut self, a: Lit, b: Lit) -> Lit {
        self.gate_xor(a, b).negate()
    }

    /// `a ⊕ b ⊕ c`. A constant input, two equal inputs or two
    /// complementary ones reduce it to a two-input XOR or a literal.
    fn gate_xor3(&mut self, a: Lit, b: Lit, c: Lit) -> Lit {
        let mut flip = false;
        let mut v = [a, b, c].map(|l| {
            let (p, n) = strip(l);
            flip ^= n;
            p
        });
        v.sort_unstable();
        let o = if v[0] == self.true_lit {
            // `true ⊕ x = ¬x`; the other two may still be constants.
            flip = !flip;
            self.gate_xor(v[1], v[2])
        } else if v[0] == v[1] {
            v[2]
        } else if v[1] == v[2] {
            v[0]
        } else {
            self.hashed(Gate::Xor3(v[0], v[1], v[2]))
        };
        flip_if(o, flip)
    }

    /// Majority of `a, b, c`: a constant input reduces it to an OR or an
    /// AND of the other two, two equal inputs to that input, and two
    /// complementary ones to the third.
    fn gate_maj(&mut self, a: Lit, b: Lit, c: Lit) -> Lit {
        let mut v = [a, b, c];
        v.sort_unstable_by_key(|l| l.var().0);
        if v[0].var() == self.true_lit.var() {
            return if v[0] == self.true_lit {
                self.gate_or(v[1], v[2])
            } else {
                self.gate_and(v[1], v[2])
            };
        }
        if v[0].var() == v[1].var() {
            return if v[0] == v[1] { v[0] } else { v[2] };
        }
        if v[1].var() == v[2].var() {
            return if v[1] == v[2] { v[1] } else { v[0] };
        }
        // Self-dual: maj(¬a, ¬b, ¬c) = ¬maj(a, b, c).
        let flip = !v[0].is_positive();
        let [a, b, c] = v.map(|l| flip_if(l, flip));
        flip_if(self.hashed(Gate::Maj(a, b, c)), flip)
    }

    /// Full adder: returns (sum, carry).
    fn full_adder(&mut self, a: Lit, b: Lit, cin: Lit) -> (Lit, Lit) {
        (self.gate_xor3(a, b, cin), self.gate_maj(a, b, cin))
    }

    // ---- word-level circuits ----------------------------------------------

    /// Ripple-carry adder: returns the sum and the carry out.
    fn add_words(&mut self, a: &[Lit], b: &[Lit], cin: Lit) -> (Vec<Lit>, Lit) {
        let mut out = Vec::with_capacity(a.len());
        let mut carry = cin;
        for i in 0..a.len() {
            let (s, c) = self.full_adder(a[i], b[i], carry);
            out.push(s);
            carry = c;
        }
        (out, carry)
    }

    fn neg_word(&mut self, a: &[Lit]) -> Vec<Lit> {
        let inv: Vec<Lit> = a.iter().map(|l| l.negate()).collect();
        let zero: Vec<Lit> = vec![self.const_lit(false); a.len()];
        self.add_words(&inv, &zero, self.const_lit(true)).0
    }

    fn mul_words(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let w = a.len();
        let mut acc: Vec<Lit> = vec![self.const_lit(false); w];
        for (i, &bi) in b.iter().enumerate() {
            // partial = (a << i) & bi
            let mut partial: Vec<Lit> = vec![self.const_lit(false); w];
            for j in 0..w - i {
                partial[i + j] = self.gate_and(a[j], bi);
            }
            acc = self.add_words(&acc, &partial, self.const_lit(false)).0;
        }
        acc
    }

    /// Unsigned `a < b` via subtraction borrow: the carry chain of
    /// `a + ~b + 1` alone, whose carry out is clear exactly when `a < b`.
    fn ult_words(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let mut carry = self.const_lit(true);
        for i in 0..a.len() {
            carry = self.gate_maj(a[i], b[i].negate(), carry);
        }
        carry.negate()
    }

    fn slt_words(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let w = a.len();
        let sa = a[w - 1];
        let sb = b[w - 1];
        let diff_sign = self.gate_xor(sa, sb);
        let u = self.ult_words(a, b);
        self.gate_mux(diff_sign, sa, u)
    }

    fn eq_words(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let mut acc = self.const_lit(true);
        for i in 0..a.len() {
            let e = self.gate_iff(a[i], b[i]);
            acc = self.gate_and(acc, e);
        }
        acc
    }

    fn mux_words(&mut self, c: Lit, t: &[Lit], e: &[Lit]) -> Vec<Lit> {
        t.iter()
            .zip(e)
            .map(|(&x, &y)| self.gate_mux(c, x, y))
            .collect()
    }

    /// Restoring division: returns (quotient, remainder); matches SMT-LIB
    /// totalization for a zero divisor (q = all-ones, r = dividend).
    fn udivrem_words(&mut self, a: &[Lit], b: &[Lit]) -> (Vec<Lit>, Vec<Lit>) {
        let w = a.len();
        let f = self.const_lit(false);
        // Work with a (w+1)-bit remainder so the shifted value fits.
        let mut rem: Vec<Lit> = vec![f; w + 1];
        let neg_b_ext: Vec<Lit> = b.iter().map(|l| l.negate()).chain([f.negate()]).collect();
        let mut quot: Vec<Lit> = vec![f; w];
        for i in (0..w).rev() {
            // rem = (rem << 1) | a[i]
            let mut shifted = vec![a[i]];
            shifted.extend_from_slice(&rem[..w]);
            // sub = shifted - zext(b), whose carry out is shifted >= zext(b)
            let (sub, ge) = self.add_words(&shifted, &neg_b_ext, self.const_lit(true));
            rem = self.mux_words(ge, &sub, &shifted);
            quot[i] = ge;
        }
        (quot, rem[..w].to_vec())
    }

    fn sdivrem_words(&mut self, a: &[Lit], b: &[Lit]) -> (Vec<Lit>, Vec<Lit>) {
        let w = a.len();
        let sa = a[w - 1];
        let sb = b[w - 1];
        let na = self.neg_word(a);
        let nb = self.neg_word(b);
        let abs_a = self.mux_words(sa, &na, a);
        let abs_b = self.mux_words(sb, &nb, b);
        let (q, r) = self.udivrem_words(&abs_a, &abs_b);
        let qs = self.gate_xor(sa, sb);
        let nq = self.neg_word(&q);
        let quot = self.mux_words(qs, &nq, &q);
        let nr = self.neg_word(&r);
        let rem = self.mux_words(sa, &nr, &r);
        // SMT-LIB: x sdiv 0 = (x < 0 ? 1 : -1); x srem 0 = x.
        // Our abs-based circuit already yields all-ones / dividend through
        // the unsigned totalization; fix up the sdiv-by-zero quotient sign.
        let bz = {
            let zero: Vec<Lit> = vec![self.const_lit(false); w];
            self.eq_words(b, &zero)
        };
        let mut one: Vec<Lit> = vec![self.const_lit(false); w];
        one[0] = self.const_lit(true);
        let mut ones: Vec<Lit> = vec![self.const_lit(true); w];
        ones.truncate(w);
        let div0 = self.mux_words(sa, &one, &ones);
        let quot = self.mux_words(bz, &div0, &quot);
        let rem = self.mux_words(bz, a, &rem);
        (quot, rem)
    }

    fn shift_words(&mut self, a: &[Lit], amt: &[Lit], kind: ShiftKind) -> Vec<Lit> {
        let w = a.len();
        let fill = match kind {
            ShiftKind::Shl | ShiftKind::Lshr => self.const_lit(false),
            ShiftKind::Ashr => a[w - 1],
        };
        // Barrel shifter over the meaningful low bits of the amount.
        let stages = (usize::BITS - (w - 1).leading_zeros()) as usize; // ceil(log2(w)), w>1
        let stages = stages.max(1);
        let mut cur: Vec<Lit> = a.to_vec();
        for s in 0..stages.min(amt.len()) {
            let k = 1usize << s;
            let sel = amt[s];
            let mut shifted = vec![fill; w];
            match kind {
                ShiftKind::Shl => {
                    for i in k..w {
                        shifted[i] = cur[i - k];
                    }
                }
                ShiftKind::Lshr | ShiftKind::Ashr => {
                    for i in 0..w.saturating_sub(k) {
                        shifted[i] = cur[i + k];
                    }
                }
            }
            cur = self.mux_words(sel, &shifted, &cur);
        }
        // If the amount is >= w (any high bit set, or low bits encode >= w),
        // the result is all fill bits.
        let wbv = BitVec::from_u64(amt.len() as u32, w as u64);
        let wlits = self.const_word(&wbv);
        let too_big_lt = self.ult_words(amt, &wlits);
        let too_big = too_big_lt.negate();
        let fills = vec![fill; w];
        self.mux_words(too_big, &fills, &cur)
    }

    fn const_word(&self, v: &BitVec) -> Vec<Lit> {
        (0..v.width()).map(|i| self.const_lit(v.bit(i))).collect()
    }

    // ---- term walkers ------------------------------------------------------

    /// Blasts a boolean-sorted term to a literal.
    ///
    /// # Panics
    ///
    /// Panics on non-boolean terms or uninterpreted applications.
    pub fn blast_bool(&mut self, t: TermId) -> Lit {
        if let Some(&l) = self.bool_memo.get(&t) {
            return l;
        }
        debug_assert!(self.ctx.sort(t).is_bool());
        let op = self.ctx.op(t);
        let args = self.ctx.args(t);
        let l = match op {
            Op::True => self.const_lit(true),
            Op::False => self.const_lit(false),
            Op::Var(v) => {
                let l = self.fresh();
                self.var_bool.insert(v, l);
                l
            }
            Op::Not => {
                let a = self.blast_bool(args[0]);
                a.negate()
            }
            Op::And => {
                let a = self.blast_bool(args[0]);
                let b = self.blast_bool(args[1]);
                self.gate_and(a, b)
            }
            Op::Or => {
                let a = self.blast_bool(args[0]);
                let b = self.blast_bool(args[1]);
                self.gate_or(a, b)
            }
            Op::BXor => {
                let a = self.blast_bool(args[0]);
                let b = self.blast_bool(args[1]);
                self.gate_xor(a, b)
            }
            Op::Implies => {
                let a = self.blast_bool(args[0]);
                let b = self.blast_bool(args[1]);
                self.gate_or(a.negate(), b)
            }
            Op::Eq => {
                if self.ctx.sort(args[0]).is_bool() {
                    let a = self.blast_bool(args[0]);
                    let b = self.blast_bool(args[1]);
                    self.gate_iff(a, b)
                } else {
                    let a = self.blast_bv(args[0]);
                    let b = self.blast_bv(args[1]);
                    self.eq_words(&a, &b)
                }
            }
            Op::Ite => {
                let c = self.blast_bool(args[0]);
                let x = self.blast_bool(args[1]);
                let y = self.blast_bool(args[2]);
                self.gate_mux(c, x, y)
            }
            Op::Ult => {
                let a = self.blast_bv(args[0]);
                let b = self.blast_bv(args[1]);
                self.ult_words(&a, &b)
            }
            Op::Ule => {
                let a = self.blast_bv(args[0]);
                let b = self.blast_bv(args[1]);
                self.ult_words(&b, &a).negate()
            }
            Op::Slt => {
                let a = self.blast_bv(args[0]);
                let b = self.blast_bv(args[1]);
                self.slt_words(&a, &b)
            }
            Op::Sle => {
                let a = self.blast_bv(args[0]);
                let b = self.blast_bv(args[1]);
                self.slt_words(&b, &a).negate()
            }
            Op::Apply(f) => panic!(
                "uninterpreted application of `{}` must be Ackermannized before bit-blasting",
                self.ctx.func_name(f)
            ),
            other => panic!("operator {other:?} is not boolean-sorted"),
        };
        self.bool_memo.insert(t, l);
        l
    }

    /// Blasts a bit-vector-sorted term to its literals (LSB first).
    ///
    /// # Panics
    ///
    /// Panics on boolean terms or uninterpreted applications.
    pub fn blast_bv(&mut self, t: TermId) -> Vec<Lit> {
        if let Some(bits) = self.bv_memo.get(&t) {
            return bits.clone();
        }
        let op = self.ctx.op(t);
        let args = self.ctx.args(t);
        let bits = match op {
            Op::BvLit(v) => self.const_word(&v),
            Op::Var(v) => {
                let w = self.ctx.sort(t).width();
                let bits: Vec<Lit> = (0..w).map(|_| self.fresh()).collect();
                self.var_bits.insert(v, bits.clone());
                bits
            }
            Op::BvNot => {
                let a = self.blast_bv(args[0]);
                a.iter().map(|l| l.negate()).collect()
            }
            Op::BvNeg => {
                let a = self.blast_bv(args[0]);
                self.neg_word(&a)
            }
            Op::BvAnd | Op::BvOr | Op::BvXor => {
                let a = self.blast_bv(args[0]);
                let b = self.blast_bv(args[1]);
                a.iter()
                    .zip(&b)
                    .map(|(&x, &y)| match op {
                        Op::BvAnd => self.gate_and(x, y),
                        Op::BvOr => self.gate_or(x, y),
                        _ => self.gate_xor(x, y),
                    })
                    .collect()
            }
            Op::BvAdd => {
                let a = self.blast_bv(args[0]);
                let b = self.blast_bv(args[1]);
                self.add_words(&a, &b, self.const_lit(false)).0
            }
            Op::BvSub => {
                let a = self.blast_bv(args[0]);
                let b = self.blast_bv(args[1]);
                let inv: Vec<Lit> = b.iter().map(|l| l.negate()).collect();
                self.add_words(&a, &inv, self.const_lit(true)).0
            }
            Op::BvMul => {
                let a = self.blast_bv(args[0]);
                let b = self.blast_bv(args[1]);
                self.mul_words(&a, &b)
            }
            Op::BvUdiv => {
                let a = self.blast_bv(args[0]);
                let b = self.blast_bv(args[1]);
                self.udivrem_words(&a, &b).0
            }
            Op::BvUrem => {
                let a = self.blast_bv(args[0]);
                let b = self.blast_bv(args[1]);
                self.udivrem_words(&a, &b).1
            }
            Op::BvSdiv => {
                let a = self.blast_bv(args[0]);
                let b = self.blast_bv(args[1]);
                self.sdivrem_words(&a, &b).0
            }
            Op::BvSrem => {
                let a = self.blast_bv(args[0]);
                let b = self.blast_bv(args[1]);
                self.sdivrem_words(&a, &b).1
            }
            Op::BvShl => {
                let a = self.blast_bv(args[0]);
                let b = self.blast_bv(args[1]);
                self.shift_words(&a, &b, ShiftKind::Shl)
            }
            Op::BvLshr => {
                let a = self.blast_bv(args[0]);
                let b = self.blast_bv(args[1]);
                self.shift_words(&a, &b, ShiftKind::Lshr)
            }
            Op::BvAshr => {
                let a = self.blast_bv(args[0]);
                let b = self.blast_bv(args[1]);
                self.shift_words(&a, &b, ShiftKind::Ashr)
            }
            Op::Concat => {
                let hi = self.blast_bv(args[0]);
                let lo = self.blast_bv(args[1]);
                let mut bits = lo;
                bits.extend(hi);
                bits
            }
            Op::Extract(hi, lo) => {
                let a = self.blast_bv(args[0]);
                a[lo as usize..=hi as usize].to_vec()
            }
            Op::ZExt(w) => {
                let a = self.blast_bv(args[0]);
                let mut bits = a;
                while bits.len() < w as usize {
                    bits.push(self.const_lit(false));
                }
                bits
            }
            Op::SExt(w) => {
                let a = self.blast_bv(args[0]);
                let sign = *a.last().expect("non-empty word");
                let mut bits = a;
                while bits.len() < w as usize {
                    bits.push(sign);
                }
                bits
            }
            Op::Ite => {
                let c = self.blast_bool(args[0]);
                let x = self.blast_bv(args[1]);
                let y = self.blast_bv(args[2]);
                self.mux_words(c, &x, &y)
            }
            Op::Apply(f) => panic!(
                "uninterpreted application of `{}` must be Ackermannized before bit-blasting",
                self.ctx.func_name(f)
            ),
            other => panic!("operator {other:?} is not bit-vector-sorted"),
        };
        self.bv_memo.insert(t, bits.clone());
        bits
    }
}

#[derive(Clone, Copy)]
enum ShiftKind {
    Shl,
    Lshr,
    Ashr,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::{Budget, SatOutcome};
    use crate::term::Sort;

    /// Checks that `lhs op rhs == expected` is valid by asserting the
    /// negation and expecting UNSAT, for all 4-bit values (via symbolic
    /// equivalence against the concrete `BitVec` implementation).
    fn assert_valid_eq(
        build: impl Fn(&Ctx, TermId, TermId) -> TermId,
        fold: impl Fn(&BitVec, &BitVec) -> BitVec,
    ) {
        // Build the circuit once over variables, pin the inputs with equality
        // constraints per concrete pair, and check the output against the
        // concrete `BitVec` reference. This exercises the gate circuits.
        for a in 0..16u64 {
            for b in 0..16u64 {
                let ctx = Ctx::new();
                let x = ctx.var("x", Sort::BitVec(4));
                let y = ctx.var("y", Sort::BitVec(4));
                let t = build(&ctx, x, y);
                let expect = fold(&BitVec::from_u64(4, a), &BitVec::from_u64(4, b));
                let mut bb = BitBlaster::new(&ctx);
                let ex = ctx.eq(x, ctx.bv_lit_u64(4, a));
                let ey = ctx.eq(y, ctx.bv_lit_u64(4, b));
                bb.assert_term(ex);
                bb.assert_term(ey);
                let lit = ctx.bv_lit(expect.clone());
                let neq = ctx.ne(t, lit);
                bb.assert_term(neq);
                assert_eq!(
                    bb.sat.solve(Budget::unlimited()),
                    SatOutcome::Unsat,
                    "op({a},{b}) != {expect:?}"
                );
            }
        }
    }

    /// Symbolic check over variables: `circuit(x,y) == lit(fold(x,y))` for
    /// sampled models — we assert circuit != reference-term and expect UNSAT
    /// where the reference is built from the same smart constructor over
    /// *variables* (exercises the gate circuits, not constant folding).
    fn assert_circuit_matches(op: impl Fn(&Ctx, TermId, TermId) -> TermId, width: u32) {
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(width));
        let y = ctx.var("y", Sort::BitVec(width));
        let t = op(&ctx, x, y);
        let mut bb = BitBlaster::new(&ctx);
        let t_bits = bb.blast_bv(t);
        let x_bits = bb.blast_bv(x);
        let y_bits = bb.blast_bv(y);
        // Solve with random constraints and compare against concrete eval.
        let mut state = 0x9E3779B9u64;
        for _ in 0..20 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = state >> 11 & ((1 << width) - 1);
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let b = state >> 17 & ((1 << width) - 1);
            // Re-blast in a fresh context per sample for isolation.
            let ctx2 = Ctx::new();
            let x2 = ctx2.var("x", Sort::BitVec(width));
            let y2 = ctx2.var("y", Sort::BitVec(width));
            let t2 = op(&ctx2, x2, y2);
            let mut bb2 = BitBlaster::new(&ctx2);
            let ax = ctx2.eq(x2, ctx2.bv_lit_u64(width, a));
            let ay = ctx2.eq(y2, ctx2.bv_lit_u64(width, b));
            bb2.assert_term(ax);
            bb2.assert_term(ay);
            let bits = bb2.blast_bv(t2);
            let sat = &mut bb2.sat;
            assert_eq!(sat.solve(Budget::unlimited()), SatOutcome::Sat);
            let got: Vec<bool> = bits
                .iter()
                .map(|&l| {
                    let v = sat.value(l.var()).unwrap_or(false);
                    if l.is_positive() {
                        v
                    } else {
                        !v
                    }
                })
                .collect();
            let got_bv = BitVec::from_bits(&got);
            // concrete reference via term constant folding
            let ctx3 = Ctx::new();
            let ref_t = op(&ctx3, ctx3.bv_lit_u64(width, a), ctx3.bv_lit_u64(width, b));
            let expect = ctx3.as_bv_lit(ref_t).expect("constants fold");
            assert_eq!(got_bv, expect, "inputs a={a} b={b}");
        }
        let _ = (t_bits, x_bits, y_bits);
    }

    #[test]
    fn add_circuit_exhaustive_4bit() {
        assert_valid_eq(|c, a, b| c.bv_add(a, b), BitVec::add);
    }

    #[test]
    fn sub_and_mul_circuits_exhaustive_4bit() {
        assert_valid_eq(|c, a, b| c.bv_sub(a, b), BitVec::sub);
        assert_valid_eq(|c, a, b| c.bv_mul(a, b), BitVec::mul);
    }

    #[test]
    fn division_circuits_exhaustive_4bit() {
        assert_valid_eq(|c, a, b| c.bv_udiv(a, b), BitVec::udiv);
        assert_valid_eq(|c, a, b| c.bv_urem(a, b), BitVec::urem);
        assert_valid_eq(|c, a, b| c.bv_sdiv(a, b), BitVec::sdiv);
        assert_valid_eq(|c, a, b| c.bv_srem(a, b), BitVec::srem);
    }

    #[test]
    fn shift_circuits_exhaustive_4bit() {
        assert_valid_eq(|c, a, b| c.bv_shl(a, b), BitVec::shl);
        assert_valid_eq(|c, a, b| c.bv_lshr(a, b), BitVec::lshr);
        assert_valid_eq(|c, a, b| c.bv_ashr(a, b), BitVec::ashr);
    }

    #[test]
    fn comparison_circuits_exhaustive_4bit() {
        for (mk, fold) in [
            (
                (&|c: &Ctx, a, b| c.bv_ult(a, b)) as &dyn Fn(&Ctx, TermId, TermId) -> TermId,
                (&BitVec::ult) as &dyn Fn(&BitVec, &BitVec) -> bool,
            ),
            (&|c: &Ctx, a, b| c.bv_slt(a, b), &BitVec::slt),
            (&|c: &Ctx, a, b| c.bv_ule(a, b), &BitVec::ule),
            (&|c: &Ctx, a, b| c.bv_sle(a, b), &BitVec::sle),
        ] {
            for a in 0..16u64 {
                for b in 0..16u64 {
                    let ctx = Ctx::new();
                    let x = ctx.var("x", Sort::BitVec(4));
                    let y = ctx.var("y", Sort::BitVec(4));
                    let t = mk(&ctx, x, y);
                    let expect = fold(&BitVec::from_u64(4, a), &BitVec::from_u64(4, b));
                    let mut bb = BitBlaster::new(&ctx);
                    let e1 = ctx.eq(x, ctx.bv_lit_u64(4, a));
                    let e2 = ctx.eq(y, ctx.bv_lit_u64(4, b));
                    bb.assert_term(e1);
                    bb.assert_term(e2);
                    let want = if expect { t } else { ctx.not(t) };
                    bb.assert_term(want);
                    assert_eq!(
                        bb.sat.solve(Budget::unlimited()),
                        SatOutcome::Sat,
                        "cmp({a},{b})"
                    );
                }
            }
        }
    }

    #[test]
    fn wider_circuits_sampled() {
        assert_circuit_matches(|c, a, b| c.bv_add(a, b), 16);
        assert_circuit_matches(|c, a, b| c.bv_mul(a, b), 8);
        assert_circuit_matches(|c, a, b| c.bv_xor(a, b), 16);
        assert_circuit_matches(|c, a, b| c.bv_udiv(a, b), 8);
        assert_circuit_matches(|c, a, b| c.bv_sdiv(a, b), 8);
        assert_circuit_matches(|c, a, b| c.bv_srem(a, b), 8);
        // Shift amounts masked to 0..15: half in range, half past it.
        let amt = |c: &Ctx, b| c.bv_and(b, c.bv_lit_u64(8, 15));
        assert_circuit_matches(|c, a, b| c.bv_shl(a, amt(c, b)), 8);
        assert_circuit_matches(|c, a, b| c.bv_lshr(a, amt(c, b)), 8);
        assert_circuit_matches(|c, a, b| c.bv_ashr(a, amt(c, b)), 8);
        // Comparisons as a 0/1 word.
        let flag = |c: &Ctx, t| c.ite(t, c.bv_lit_u64(8, 1), c.bv_lit_u64(8, 0));
        assert_circuit_matches(|c, a, b| flag(c, c.bv_ult(a, b)), 8);
        assert_circuit_matches(|c, a, b| flag(c, c.bv_slt(a, b)), 8);
    }

    #[test]
    fn xor3_and_maj_truth_tables_over_every_polarity() {
        let ctx = Ctx::new();
        let mut bb = BitBlaster::new(&ctx);
        let xs = [bb.fresh(), bb.fresh(), bb.fresh()];
        let t = bb.true_lit();
        // Both polarities of three inputs plus both constants, so the
        // triples below also hit every constant, duplicate and
        // complement short cut.
        let pool: Vec<Lit> = xs
            .iter()
            .flat_map(|&x| [x, x.negate()])
            .chain([t, t.negate()])
            .collect();
        let mut gates = Vec::new();
        for &a in &pool {
            for &b in &pool {
                for &c in &pool {
                    gates.push(([a, b, c], bb.gate_xor3(a, b, c), bb.gate_maj(a, b, c)));
                }
            }
        }
        for row in 0..8u32 {
            let assume: Vec<Lit> = xs
                .iter()
                .enumerate()
                .map(|(i, &x)| if row >> i & 1 == 1 { x } else { x.negate() })
                .collect();
            let sat = &mut bb.sat;
            assert_eq!(
                sat.solve_assuming(&assume, Budget::unlimited()),
                SatOutcome::Sat
            );
            let val = |l: Lit| sat.value(l.var()).expect("assigned") == l.is_positive();
            for &([a, b, c], xor3, maj) in &gates {
                let (va, vb, vc) = (val(a), val(b), val(c));
                let inputs = format!("row {row}, inputs {a:?} {b:?} {c:?}");
                assert_eq!(val(xor3), va ^ vb ^ vc, "xor3, {inputs}");
                assert_eq!(val(maj), va & vb | va & vc | vb & vc, "maj, {inputs}");
            }
        }
    }

    /// Builds one gate twice, spelled two ways: the first spelling must
    /// add clauses, and the second must return its literal and add none.
    fn assert_shared(
        bb: &mut BitBlaster,
        name: &str,
        first: impl FnOnce(&mut BitBlaster) -> Lit,
        second: impl FnOnce(&mut BitBlaster) -> Lit,
    ) {
        let before = bb.num_clauses();
        let o = first(bb);
        let built = bb.num_clauses();
        assert!(built > before, "{name}: the first spelling built no gate");
        assert_eq!(second(bb), o, "{name}: the spellings differ");
        assert_eq!(bb.num_clauses(), built, "{name}: the second added clauses");
    }

    #[test]
    fn every_spelling_of_a_gate_shares_one_literal() {
        let ctx = Ctx::new();
        let mut bb = BitBlaster::new(&ctx);
        let [a, b, c] = [bb.fresh(), bb.fresh(), bb.fresh()];
        assert_shared(
            &mut bb,
            "and",
            |bb| bb.gate_and(a, b),
            |bb| bb.gate_and(b, a),
        );
        assert_shared(
            &mut bb,
            "xor",
            |bb| bb.gate_xor(a.negate(), b),
            |bb| bb.gate_xor(a, b).negate(),
        );
        assert_shared(
            &mut bb,
            "mux",
            |bb| bb.gate_mux(c.negate(), a, b),
            |bb| bb.gate_mux(c, b, a),
        );
        assert_shared(
            &mut bb,
            "maj",
            |bb| bb.gate_maj(a.negate(), b.negate(), c.negate()),
            |bb| bb.gate_maj(a, b, c).negate(),
        );
    }

    #[test]
    fn squaring_blasts_to_fewer_clauses_than_a_product() {
        // x·x shares the partial products x[i]∧x[j] and x[j]∧x[i], so
        // their sum in column 1 folds to the constant 0.
        let blast = |square: bool| {
            let ctx = Ctx::new();
            let x = ctx.var("x", Sort::BitVec(8));
            let y = if square {
                x
            } else {
                ctx.var("y", Sort::BitVec(8))
            };
            let mut bb = BitBlaster::new(&ctx);
            let bits = bb.blast_bv(ctx.bv_mul(x, y));
            (bb.num_clauses(), bits[1] == bb.const_lit(false))
        };
        let ((square, bit1_zero), (product, _)) = (blast(true), blast(false));
        assert!(square < product, "x·x: {square} clauses, x·y: {product}");
        assert!(bit1_zero, "bit 1 of x·x is not the constant 0");
    }

    #[test]
    fn extensions_and_extract() {
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(4));
        let z = ctx.zext(x, 8);
        let s = ctx.sext(x, 8);
        let e1 = ctx.eq(x, ctx.bv_lit_u64(4, 0b1010));
        let mut bb = BitBlaster::new(&ctx);
        bb.assert_term(e1);
        let zb = bb.blast_bv(z);
        let sb = bb.blast_bv(s);
        let sat = &mut bb.sat;
        assert_eq!(sat.solve(Budget::unlimited()), SatOutcome::Sat);
        let read = |bits: &[Lit], sat: &crate::sat::SatSolver| -> u64 {
            bits.iter()
                .enumerate()
                .map(|(i, &l)| {
                    let v = sat.value(l.var()).unwrap_or(false);
                    let v = if l.is_positive() { v } else { !v };
                    (v as u64) << i
                })
                .sum()
        };
        assert_eq!(read(&zb, sat), 0b0000_1010);
        assert_eq!(read(&sb, sat), 0b1111_1010);
    }

    #[test]
    fn boolean_structure() {
        let ctx = Ctx::new();
        let a = ctx.var("a", Sort::Bool);
        // (a && !a) is unsat
        let na = ctx.not(a);
        let contra = ctx.and(a, na);
        let mut bb = BitBlaster::new(&ctx);
        bb.assert_term(contra);
        assert_eq!(bb.sat.solve(Budget::unlimited()), SatOutcome::Unsat);
        // De Morgan validity: !(a&&b) == (!a || !b)
        let ctx = Ctx::new();
        let a = ctx.var("a", Sort::Bool);
        let b = ctx.var("b", Sort::Bool);
        let lhs = ctx.not(ctx.and(a, b));
        let rhs = ctx.or(ctx.not(a), ctx.not(b));
        let neq = ctx.ne(lhs, rhs);
        let mut bb = BitBlaster::new(&ctx);
        bb.assert_term(neq);
        assert_eq!(bb.sat.solve(Budget::unlimited()), SatOutcome::Unsat);
    }
}
