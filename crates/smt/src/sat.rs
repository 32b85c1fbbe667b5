//! A CDCL SAT solver with two-watched literals, first-UIP clause learning,
//! VSIDS branching, phase saving, Luby restarts, and learned-clause database
//! reduction.
//!
//! This is the decision engine under the bit-blaster, which adds every
//! clause straight into it, as MiniSat's clausifier does: there is no
//! intermediate CNF and no inprocessing pass. [`SatSolver::add_clause`]
//! does all the level-0 work on the way in, and `reduce_db` is the only
//! pass over the whole database. It deliberately supports *resource
//! budgets* (conflicts, wall-clock time, learned-literal
//! memory) because the Alive2 evaluation (Figures 6–8 of the paper) sweeps
//! solver timeouts and reports timeout/out-of-memory outcomes as first-class
//! results.

use std::time::Instant;

/// A propositional variable, numbered from zero.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SatVar(pub u32);

/// A literal: a variable with a sign. Even codes are positive.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// Builds a literal from a variable and sign (`true` = positive).
    pub fn new(var: SatVar, positive: bool) -> Lit {
        Lit(var.0 << 1 | (!positive as u32))
    }

    /// The underlying variable.
    pub fn var(self) -> SatVar {
        SatVar(self.0 >> 1)
    }

    /// True if the literal is positive.
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// The negation of the literal.
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    fn code(self) -> usize {
        self.0 as usize
    }
}

/// Ternary assignment value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum LBool {
    True,
    False,
    Undef,
}

/// The outcome of a satisfiability check.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SatOutcome {
    /// A satisfying assignment was found.
    Sat,
    /// The formula is unsatisfiable.
    Unsat,
    /// The conflict or time budget was exhausted.
    TimedOut,
    /// The learned-clause memory budget was exhausted.
    OutOfMemory,
}

/// Resource budget for one `solve` call.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Maximum number of conflicts before giving up (`u64::MAX` = unlimited).
    pub max_conflicts: u64,
    /// Wall-clock limit in milliseconds (`u64::MAX` = unlimited).
    pub max_millis: u64,
    /// Maximum total literals in learned clauses before reporting
    /// out-of-memory (`usize::MAX` = unlimited).
    pub max_learned_lits: usize,
    /// Absolute wall-clock deadline (`None` = unlimited). Unlike
    /// `max_millis`, which is relative to each `solve` call, the deadline
    /// is shared by every query of one validation job — the engine's
    /// per-job cap.
    pub deadline: Option<Instant>,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            max_conflicts: u64::MAX,
            max_millis: u64::MAX,
            max_learned_lits: usize::MAX,
            deadline: None,
        }
    }
}

impl Budget {
    /// An unlimited budget.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// This budget further capped by an absolute deadline.
    pub fn with_deadline(self, deadline: Option<Instant>) -> Self {
        Budget { deadline, ..self }
    }

    /// True once the absolute deadline (if any) has passed.
    pub fn deadline_passed(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// A clause handle: the offset of the clause's header in the arena.
type ClauseRef = u32;

/// Words of a clause header: the packed length and flags, then the id.
const HEADER: usize = 2;
/// Header flag: the clause is a tombstone.
const DELETED: u32 = 1;
/// Header flag: the clause was learnt (not an original one).
const LEARNT: u32 = 2;
/// The clause length sits above the two flag bits.
const LEN_SHIFT: u32 = 2;

/// Propagations between two reads of the clock in a solve: a few
/// milliseconds of work on the largest formulas the validator blasts.
const POLL_PROPAGATIONS: u64 = 4096;

#[derive(Clone, Copy)]
struct Watcher {
    clause: ClauseRef,
    blocker: Lit,
}

// Watch lists are the hottest memory of the search: keep a watcher at
// two words.
const _: () = assert!(std::mem::size_of::<Watcher>() == 8);

/// Statistics from the most recent `solve` call.
#[derive(Clone, Copy, Debug, Default)]
pub struct SatStats {
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of unit propagations.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learned-clause database reductions.
    pub reductions: u64,
}

/// The CDCL solver.
///
/// # Examples
///
/// ```
/// use alive2_smt::sat::{Budget, Lit, SatOutcome, SatSolver};
///
/// let mut s = SatSolver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause(&[Lit::new(a, true), Lit::new(b, true)]);
/// s.add_clause(&[Lit::new(a, false)]);
/// assert_eq!(s.solve(Budget::unlimited()), SatOutcome::Sat);
/// assert_eq!(s.value(b), Some(true));
/// ```
pub struct SatSolver {
    /// The clause arena (MiniSat's layout): each clause is a header —
    /// `len << LEN_SHIFT | flags`, then its id — followed by its literal
    /// codes, in allocation order. Deleting a clause only sets
    /// `DELETED`, and tombstones are never compacted.
    arena: Vec<u32>,
    /// Clause id → header offset. Ids follow allocation order, so this
    /// walks the database in the order clauses were attached.
    crefs: Vec<ClauseRef>,
    /// Clause id → activity.
    clause_activity: Vec<f64>,
    /// Clause id → literal-block distance (glue): the number of distinct
    /// decision levels in the clause when it was learned. Low-LBD clauses
    /// encode tight cross-level dependencies and are kept through
    /// database reductions (Glucose's heuristic); original clauses carry 0.
    clause_lbd: Vec<u32>,
    /// `add_clause`'s reusable sort-and-filter buffer.
    add_buf: Vec<Lit>,
    watches: Vec<Vec<Watcher>>,
    assigns: Vec<LBool>,
    phase: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<Option<ClauseRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    order: Vec<SatVar>,
    order_pos: Vec<usize>,
    seen: Vec<bool>,
    ok: bool,
    learned_lits: usize,
    /// Live (not deleted) clauses in the arena, learnt ones included.
    /// Kept in step by `attach_clause` and `delete_clause`, so nothing
    /// per decision, per conflict or per check has to scan the database.
    live_clauses: usize,
    /// Live learnt clauses: the reduce trigger and `num_learnts`.
    live_learnts: usize,
    stats: SatStats,
    /// Failed-assumption core from the most recent
    /// [`solve_assuming`](Self::solve_assuming) that returned `Unsat`
    /// because of its assumptions. Empty when the formula itself is
    /// unsatisfiable (no assumptions needed).
    failed: Vec<Lit>,
}

impl Default for SatSolver {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for SatSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SatSolver {{ vars: {}, clauses: {} }}",
            self.assigns.len(),
            self.crefs.len()
        )
    }
}

impl SatSolver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        SatSolver {
            arena: Vec::new(),
            crefs: Vec::new(),
            clause_activity: Vec::new(),
            clause_lbd: Vec::new(),
            add_buf: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            phase: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            order: Vec::new(),
            order_pos: Vec::new(),
            seen: Vec::new(),
            ok: true,
            learned_lits: 0,
            live_clauses: 0,
            live_learnts: 0,
            stats: SatStats::default(),
            failed: Vec::new(),
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of clauses (including learned, excluding deleted).
    pub fn num_clauses(&self) -> usize {
        self.live_clauses
    }

    /// Number of live learned clauses currently in the database.
    pub fn num_learnts(&self) -> usize {
        self.live_learnts
    }

    /// Recounts `(live clauses, live learnts)` from the arena: the
    /// reference the incremental counters must always equal. A full
    /// scan, so only for `reduce_db`'s debug check and tests.
    fn recount(&self) -> (usize, usize) {
        let live = self.crefs.iter().filter(|&&cr| !self.is_deleted(cr));
        (
            live.clone().count(),
            live.filter(|&&cr| self.is_learnt(cr)).count(),
        )
    }

    // ---- clause arena ---------------------------------------------------

    fn is_deleted(&self, cr: ClauseRef) -> bool {
        self.arena[cr as usize] & DELETED != 0
    }

    fn is_learnt(&self, cr: ClauseRef) -> bool {
        self.arena[cr as usize] & LEARNT != 0
    }

    fn clause_len(&self, cr: ClauseRef) -> usize {
        (self.arena[cr as usize] >> LEN_SHIFT) as usize
    }

    fn clause_id(&self, cr: ClauseRef) -> usize {
        self.arena[cr as usize + 1] as usize
    }

    /// The literal codes of a clause.
    fn clause_words(&self, cr: ClauseRef) -> &[u32] {
        let start = cr as usize + HEADER;
        &self.arena[start..start + self.clause_len(cr)]
    }

    fn clause_lit(&self, cr: ClauseRef, k: usize) -> Lit {
        Lit(self.arena[cr as usize + HEADER + k])
    }

    /// The failed-assumption core of the most recent
    /// [`solve_assuming`](Self::solve_assuming) call that returned
    /// `Unsat` *because of its assumptions*: a subset of the assumption
    /// literals whose conjunction already contradicts the clause
    /// database. Empty when the formula is unsatisfiable on its own.
    pub fn failed_assumptions(&self) -> &[Lit] {
        &self.failed
    }

    /// Resets every saved phase to the all-false default, biasing the
    /// next solve toward minimal (mostly-zero) models. Learned clauses,
    /// activities and the clause database are untouched. Callers that
    /// consume models structurally — CEGQI's candidate step, where
    /// regular candidates converge in far fewer refinements than
    /// arbitrary ones — want this between incremental solves; plain
    /// sat/unsat consumers should keep the saved phases.
    pub fn reset_phases(&mut self) {
        for p in &mut self.phase {
            *p = false;
        }
    }

    /// Statistics from the most recent solve.
    pub fn stats(&self) -> SatStats {
        self.stats
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> SatVar {
        let v = SatVar(self.assigns.len() as u32);
        self.assigns.push(LBool::Undef);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.seen.push(false);
        self.order_pos.push(self.order.len());
        self.order.push(v);
        self.heap_up(self.order.len() - 1);
        v
    }

    fn lit_value(&self, l: Lit) -> LBool {
        match self.assigns[l.var().0 as usize] {
            LBool::Undef => LBool::Undef,
            LBool::True => {
                if l.is_positive() {
                    LBool::True
                } else {
                    LBool::False
                }
            }
            LBool::False => {
                if l.is_positive() {
                    LBool::False
                } else {
                    LBool::True
                }
            }
        }
    }

    /// The value of a variable in the current (final) assignment, if set.
    pub fn value(&self, v: SatVar) -> Option<bool> {
        match self.assigns[v.0 as usize] {
            LBool::True => Some(true),
            LBool::False => Some(false),
            LBool::Undef => None,
        }
    }

    /// Adds a clause. Returns `false` if the solver is already in an
    /// unsatisfiable state.
    ///
    /// Does all the level-0 work on the way in: drops clauses already
    /// satisfied at level 0, false literals, duplicate literals and
    /// tautologies, and propagates units, so a formula that unit
    /// propagation settles needs no search. May be called between
    /// `solve` calls: any leftover search assignment is unwound to level
    /// 0 first (which discards the previous model — the incremental
    /// layer extracts models before pushing new clauses).
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        if !self.ok {
            return false;
        }
        self.backtrack(0);
        self.add_buf.clear();
        self.add_buf.extend_from_slice(lits);
        self.add_buf.sort_unstable();
        self.add_buf.dedup();
        // Keep the unassigned literals in place. Sorted, a literal and its
        // negation are adjacent, so a tautology shows as the last kept
        // literal being the negation of the next.
        let mut kept = 0;
        for i in 0..self.add_buf.len() {
            let l = self.add_buf[i];
            match self.lit_value(l) {
                LBool::True => return true, // satisfied at level 0
                LBool::False => continue,   // falsified at level 0: drop
                LBool::Undef => {}
            }
            if kept > 0 && self.add_buf[kept - 1] == l.negate() {
                return true; // tautology
            }
            self.add_buf[kept] = l;
            kept += 1;
        }
        match kept {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(self.add_buf[0], None);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                let c = std::mem::take(&mut self.add_buf);
                self.attach_clause(&c[..kept], false, 0);
                self.add_buf = c;
                true
            }
        }
    }

    fn attach_clause(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let cref = ClauseRef::try_from(self.arena.len())
            .expect("the clause arena holds fewer than 2^32 words");
        // Each clause takes at least four words, so its id fits too.
        let id = self.crefs.len() as u32;
        let len = u32::try_from(lits.len())
            .ok()
            .filter(|&n| n < 1 << (32 - LEN_SHIFT))
            .expect("a clause holds fewer than 2^30 literals");
        self.arena
            .push(len << LEN_SHIFT | if learnt { LEARNT } else { 0 });
        self.arena.push(id);
        self.arena.extend(lits.iter().map(|l| l.0));
        self.crefs.push(cref);
        self.clause_activity.push(0.0);
        self.clause_lbd.push(lbd);
        self.live_clauses += 1;
        if learnt {
            self.live_learnts += 1;
            self.learned_lits += lits.len();
        }
        let (w0, w1) = (lits[0], lits[1]);
        self.watches[w0.negate().code()].push(Watcher {
            clause: cref,
            blocker: w1,
        });
        self.watches[w1.negate().code()].push(Watcher {
            clause: cref,
            blocker: w0,
        });
        cref
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, l: Lit, reason: Option<ClauseRef>) {
        debug_assert_eq!(self.lit_value(l), LBool::Undef);
        let v = l.var().0 as usize;
        self.assigns[v] = if l.is_positive() {
            LBool::True
        } else {
            LBool::False
        };
        self.phase[v] = l.is_positive();
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(l);
    }

    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = p.negate();
            let mut i = 0;
            let mut j = 0;
            let mut ws = std::mem::take(&mut self.watches[p.code()]);
            let mut conflict: Option<ClauseRef> = None;
            'outer: while i < ws.len() {
                let w = ws[i];
                i += 1;
                if self.lit_value(w.blocker) == LBool::True {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let cref = w.clause;
                let hdr = self.arena[cref as usize];
                if hdr & DELETED != 0 {
                    continue;
                }
                let lits = cref as usize + HEADER;
                let len = (hdr >> LEN_SHIFT) as usize;
                // Make sure the false literal is at position 1.
                if self.arena[lits] == false_lit.0 {
                    self.arena.swap(lits, lits + 1);
                }
                debug_assert_eq!(self.arena[lits + 1], false_lit.0);
                let first = Lit(self.arena[lits]);
                if first != w.blocker && self.lit_value(first) == LBool::True {
                    ws[j] = Watcher {
                        clause: cref,
                        blocker: first,
                    };
                    j += 1;
                    continue;
                }
                // Look for a new literal to watch.
                for k in 2..len {
                    let lk = Lit(self.arena[lits + k]);
                    if self.lit_value(lk) != LBool::False {
                        self.arena.swap(lits + 1, lits + k);
                        self.watches[lk.negate().code()].push(Watcher {
                            clause: cref,
                            blocker: first,
                        });
                        continue 'outer;
                    }
                }
                // Clause is unit or conflicting.
                ws[j] = Watcher {
                    clause: cref,
                    blocker: first,
                };
                j += 1;
                if self.lit_value(first) == LBool::False {
                    // Conflict: copy the rest of the watchers back.
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                    conflict = Some(cref);
                } else {
                    self.enqueue(first, Some(cref));
                }
            }
            ws.truncate(j);
            self.watches[p.code()] = ws;
            if conflict.is_some() {
                self.qhead = self.trail.len();
                return conflict;
            }
        }
        None
    }

    fn bump_var(&mut self, v: SatVar) {
        let idx = v.0 as usize;
        self.activity[idx] += self.var_inc;
        if self.activity[idx] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        let pos = self.order_pos[idx];
        if pos != usize::MAX {
            self.heap_up(pos);
        }
    }

    fn bump_clause(&mut self, c: ClauseRef) {
        let id = self.clause_id(c);
        self.clause_activity[id] += self.cla_inc;
        if self.clause_activity[id] > 1e20 {
            for a in &mut self.clause_activity {
                *a *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    // ---- activity order (binary max-heap keyed by activity) -------------

    fn heap_less(&self, a: SatVar, b: SatVar) -> bool {
        self.activity[a.0 as usize] > self.activity[b.0 as usize]
    }

    fn heap_up(&mut self, mut i: usize) {
        let v = self.order[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap_less(v, self.order[parent]) {
                self.order[i] = self.order[parent];
                self.order_pos[self.order[i].0 as usize] = i;
                i = parent;
            } else {
                break;
            }
        }
        self.order[i] = v;
        self.order_pos[v.0 as usize] = i;
    }

    fn heap_down(&mut self, mut i: usize) {
        let v = self.order[i];
        loop {
            let l = 2 * i + 1;
            if l >= self.order.len() {
                break;
            }
            let r = l + 1;
            let child = if r < self.order.len() && self.heap_less(self.order[r], self.order[l]) {
                r
            } else {
                l
            };
            if self.heap_less(self.order[child], v) {
                self.order[i] = self.order[child];
                self.order_pos[self.order[i].0 as usize] = i;
                i = child;
            } else {
                break;
            }
        }
        self.order[i] = v;
        self.order_pos[v.0 as usize] = i;
    }

    fn heap_pop(&mut self) -> Option<SatVar> {
        if self.order.is_empty() {
            return None;
        }
        let top = self.order[0];
        self.order_pos[top.0 as usize] = usize::MAX;
        let last = self.order.pop().unwrap();
        if !self.order.is_empty() {
            self.order[0] = last;
            self.order_pos[last.0 as usize] = 0;
            self.heap_down(0);
        }
        Some(top)
    }

    fn heap_insert(&mut self, v: SatVar) {
        if self.order_pos[v.0 as usize] != usize::MAX {
            return;
        }
        self.order_pos[v.0 as usize] = self.order.len();
        self.order.push(v);
        self.heap_up(self.order.len() - 1);
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.heap_pop() {
            if self.assigns[v.0 as usize] == LBool::Undef {
                self.stats.decisions += 1;
                return Some(Lit::new(v, self.phase[v.0 as usize]));
            }
        }
        None
    }

    fn backtrack(&mut self, to_level: u32) {
        if self.decision_level() <= to_level {
            return;
        }
        let lim = self.trail_lim[to_level as usize];
        for i in (lim..self.trail.len()).rev() {
            let v = self.trail[i].var();
            self.assigns[v.0 as usize] = LBool::Undef;
            self.reason[v.0 as usize] = None;
            self.heap_insert(v);
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(to_level as usize);
        self.qhead = self.trail.len();
    }

    /// First-UIP conflict analysis; returns the learned clause (UIP literal
    /// first) and the backjump level.
    fn analyze(&mut self, conflict: ClauseRef) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // placeholder for UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut cref = conflict;
        let mut index = self.trail.len();
        loop {
            self.bump_clause(cref);
            let start = if p.is_some() { 1 } else { 0 };
            for k in start..self.clause_len(cref) {
                let q = self.clause_lit(cref, k);
                let v = q.var().0 as usize;
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump_var(q.var());
                    if self.level[v] == self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Find next literal to look at.
            loop {
                index -= 1;
                let l = self.trail[index];
                if self.seen[l.var().0 as usize] {
                    p = Some(l);
                    break;
                }
            }
            let pv = p.unwrap().var().0 as usize;
            self.seen[pv] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = p.unwrap().negate();
                break;
            }
            cref = self.reason[pv].expect("implied literal must have a reason");
        }
        // Simple clause minimization: drop literals implied by the rest.
        let mut minimized: Vec<Lit> = vec![learnt[0]];
        for &l in &learnt[1..] {
            let v = l.var().0 as usize;
            let redundant = match self.reason[v] {
                Some(r) => self.clause_words(r)[1..].iter().all(|&w| {
                    let qv = Lit(w).var().0 as usize;
                    self.seen[qv] || self.level[qv] == 0
                }),
                None => false,
            };
            if !redundant {
                minimized.push(l);
            }
        }
        // `minimized` is a subset of `learnt`, so this clears every mark.
        for &l in &learnt {
            self.seen[l.var().0 as usize] = false;
        }
        let back_level = minimized[1..]
            .iter()
            .map(|l| self.level[l.var().0 as usize])
            .max()
            .unwrap_or(0);
        // Move a literal of back_level to index 1 (watch invariant).
        if minimized.len() > 1 {
            let mi = minimized[1..]
                .iter()
                .enumerate()
                .max_by_key(|(_, l)| self.level[l.var().0 as usize])
                .map(|(i, _)| i + 1)
                .unwrap();
            minimized.swap(1, mi);
        }
        (minimized, back_level)
    }

    /// Glue-aware learned-clause reduction: binary and low-LBD ("glue")
    /// clauses are kept unconditionally, the rest are ranked worst-first
    /// by (high LBD, low activity) and the worst half deleted. Keeping
    /// glue clauses is what lets a long-lived incremental solver retain
    /// the valuable part of its database across many `solve` calls.
    fn reduce_db(&mut self) {
        self.stats.reductions += 1;
        // Ids in allocation order; the stable sort keeps that order
        // among equally ranked clauses.
        let mut learnt_ids: Vec<usize> = (0..self.crefs.len())
            .filter(|&id| {
                let cr = self.crefs[id];
                self.is_learnt(cr) && !self.is_deleted(cr)
            })
            .collect();
        learnt_ids.sort_by(|&a, &b| {
            self.clause_lbd[b].cmp(&self.clause_lbd[a]).then(
                self.clause_activity[a]
                    .partial_cmp(&self.clause_activity[b])
                    .unwrap(),
            )
        });
        let locked: crate::fxhash::FxHashSet<ClauseRef> =
            self.reason.iter().flatten().copied().collect();
        let target = learnt_ids.len() / 2;
        let mut removed = 0;
        for &id in &learnt_ids {
            if removed >= target {
                break;
            }
            let cref = self.crefs[id];
            if locked.contains(&cref) || self.clause_len(cref) <= 2 || self.clause_lbd[id] <= 2 {
                continue;
            }
            self.delete_clause(cref);
            removed += 1;
        }
        for ws in &mut self.watches {
            ws.retain(|w| self.arena[w.clause as usize] & DELETED == 0);
        }
        debug_assert_eq!(self.recount(), (self.live_clauses, self.live_learnts));
    }

    /// Literal-block distance of a clause under the current assignment:
    /// the number of distinct decision levels among its literals.
    fn compute_lbd(&self, lits: &[Lit]) -> u32 {
        let mut levels: Vec<u32> = lits
            .iter()
            .map(|l| self.level[l.var().0 as usize])
            .collect();
        levels.sort_unstable();
        levels.dedup();
        levels.len() as u32
    }

    fn delete_clause(&mut self, cr: ClauseRef) {
        debug_assert!(!self.is_deleted(cr));
        self.live_clauses -= 1;
        if self.is_learnt(cr) {
            self.live_learnts -= 1;
            self.learned_lits -= self.clause_len(cr);
        }
        self.arena[cr as usize] |= DELETED;
    }

    /// The Luby restart sequence (1-indexed): 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8…
    fn luby(i: u64) -> u64 {
        let mut x = i - 1;
        let mut size = 1u64;
        let mut seq = 0u32;
        while size < x + 1 {
            seq += 1;
            size = 2 * size + 1;
        }
        while size - 1 != x {
            size = (size - 1) >> 1;
            seq -= 1;
            x %= size;
        }
        1 << seq
    }

    /// Final-conflict analysis (MiniSat's `analyzeFinal`): `p` is an
    /// assumption literal found `False` while replaying assumptions.
    /// Walks the trail top-down from the implied literals, expanding
    /// reasons and collecting the decisions (all of which are assumption
    /// replays at that point) that force `¬p`. Returns the failed core:
    /// a subset of the assumption literals, including `p` itself.
    fn analyze_final(&mut self, p: Lit) -> Vec<Lit> {
        let mut core = vec![p];
        if self.decision_level() == 0 {
            return core;
        }
        let mut marked = vec![p.var()];
        self.seen[p.var().0 as usize] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let x = self.trail[i];
            let xv = x.var().0 as usize;
            if !self.seen[xv] {
                continue;
            }
            match self.reason[xv] {
                // A decision above level 0 during assumption replay is an
                // assumption literal, as it was assigned.
                None => core.push(x),
                Some(cref) => {
                    // lits[0] is the propagated literal; the rest are its
                    // antecedents.
                    for k in 1..self.clause_len(cref) {
                        let q = self.clause_lit(cref, k);
                        let qv = q.var().0 as usize;
                        if !self.seen[qv] && self.level[qv] > 0 {
                            self.seen[qv] = true;
                            marked.push(q.var());
                        }
                    }
                }
            }
        }
        for v in marked {
            self.seen[v.0 as usize] = false;
        }
        core
    }

    /// Solves the current formula under the given budget.
    ///
    /// The solver is *incremental*: learned clauses, variable activities,
    /// and saved phases persist across calls, and more clauses may be
    /// added between calls. Each call starts by unwinding to level 0, so
    /// warm state is reused but never unsoundly.
    pub fn solve(&mut self, budget: Budget) -> SatOutcome {
        self.solve_assuming(&[], budget)
    }

    /// Solves under the given *assumption literals*: the formula is
    /// checked with every assumption temporarily forced true. Assumptions
    /// are replayed as pseudo-decisions at levels `1..=n`, below any
    /// search decisions — "level 0's edge" — so conflict-driven learning
    /// never burns them into the clause database and they are fully
    /// retracted when the call returns.
    ///
    /// On `Unsat` caused by the assumptions, [`failed_assumptions`]
    /// holds a failed core (a subset of `assumptions`) and the solver
    /// stays usable: `ok` is not poisoned, and later calls with other
    /// assumptions may well be `Sat`. On `Unsat` with an empty core the
    /// formula itself is unsatisfiable.
    ///
    /// [`failed_assumptions`]: Self::failed_assumptions
    pub fn solve_assuming(&mut self, assumptions: &[Lit], budget: Budget) -> SatOutcome {
        self.stats = SatStats::default();
        self.failed.clear();
        if !self.ok {
            return SatOutcome::Unsat;
        }
        if budget.deadline_passed() {
            return SatOutcome::TimedOut;
        }
        // Unwind any assignment left by a previous call (a model, or the
        // previous call's assumptions).
        self.backtrack(0);
        let start = Instant::now();
        let out_of_time =
            || start.elapsed().as_millis() as u64 >= budget.max_millis || budget.deadline_passed();
        // Conflicts and decisions alone do not pace every search: one with
        // few of either can still propagate for seconds over a large
        // formula. So the clock is also read every `POLL_PROPAGATIONS`
        // propagations; that decides nothing until the budget is spent.
        let mut next_poll = POLL_PROPAGATIONS;
        let mut restart_num = 1u64;
        let mut conflicts_until_restart = 32 * Self::luby(restart_num);
        // Every clause ever attached counts, tombstones too; basing the
        // limit on the live count instead would change the search.
        let mut max_learnts = (self.crefs.len() / 3).max(1000);
        let mut decisions = 0u64;
        loop {
            let conflict = self.propagate();
            if self.stats.propagations >= next_poll {
                next_poll = self.stats.propagations + POLL_PROPAGATIONS;
                if out_of_time() {
                    self.backtrack(0);
                    return SatOutcome::TimedOut;
                }
            }
            if let Some(conflict) = conflict {
                self.stats.conflicts += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SatOutcome::Unsat;
                }
                let (learnt, back_level) = self.analyze(conflict);
                self.backtrack(back_level);
                if learnt.len() == 1 {
                    self.enqueue(learnt[0], None);
                } else {
                    let uip = learnt[0];
                    let lbd = self.compute_lbd(&learnt);
                    let cref = self.attach_clause(&learnt, true, lbd);
                    self.bump_clause(cref);
                    self.enqueue(uip, Some(cref));
                }
                self.var_inc /= 0.95;
                self.cla_inc /= 0.999;
                if self.stats.conflicts >= budget.max_conflicts {
                    self.backtrack(0);
                    return SatOutcome::TimedOut;
                }
                if self.stats.conflicts.is_multiple_of(256) && out_of_time() {
                    self.backtrack(0);
                    return SatOutcome::TimedOut;
                }
                if self.learned_lits > budget.max_learned_lits {
                    self.backtrack(0);
                    return SatOutcome::OutOfMemory;
                }
                conflicts_until_restart = conflicts_until_restart.saturating_sub(1);
            } else {
                if conflicts_until_restart == 0 {
                    self.stats.restarts += 1;
                    restart_num += 1;
                    conflicts_until_restart = 32 * Self::luby(restart_num);
                    self.backtrack(0);
                }
                if self.live_learnts > max_learnts {
                    self.reduce_db();
                    max_learnts = max_learnts + max_learnts / 10;
                }
                // Replay assumptions as the bottom-most pseudo-decisions
                // (levels 1..=n). Restarts unwind them; this re-pushes
                // whatever is missing before any real branching happens.
                let mut propagate_pending = false;
                while (self.decision_level() as usize) < assumptions.len() {
                    let p = assumptions[self.decision_level() as usize];
                    match self.lit_value(p) {
                        LBool::True => {
                            // Already satisfied: open an empty level so
                            // level index and assumption index stay in
                            // sync for analyze_final.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => {
                            self.failed = self.analyze_final(p);
                            self.backtrack(0);
                            return SatOutcome::Unsat;
                        }
                        LBool::Undef => {
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(p, None);
                            propagate_pending = true;
                            break;
                        }
                    }
                }
                if propagate_pending {
                    continue;
                }
                // Conflict-gated checks alone leave a blind spot: a hot
                // conflict-light search (mass propagation over a nearly
                // satisfiable formula) would never observe its wall-clock
                // budget. Re-check it every 512 decisions so even such a
                // solve cooperatively reports Timeout instead of relying
                // on an external watchdog.
                decisions += 1;
                if decisions.is_multiple_of(512) && out_of_time() {
                    self.backtrack(0);
                    return SatOutcome::TimedOut;
                }
                match self.pick_branch() {
                    None => return SatOutcome::Sat,
                    Some(l) => {
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(l, None);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(s: &mut SatSolver, vars: &mut Vec<SatVar>, i: i32) -> Lit {
        let idx = i.unsigned_abs() as usize - 1;
        while vars.len() <= idx {
            vars.push(s.new_var());
        }
        Lit::new(vars[idx], i > 0)
    }

    fn solve_dimacs(clauses: &[&[i32]]) -> SatOutcome {
        let mut s = SatSolver::new();
        let mut vars = Vec::new();
        for c in clauses {
            let ls: Vec<Lit> = c.iter().map(|&i| lit(&mut s, &mut vars, i)).collect();
            s.add_clause(&ls);
        }
        s.solve(Budget::unlimited())
    }

    #[test]
    fn trivial_sat_unsat() {
        assert_eq!(solve_dimacs(&[&[1]]), SatOutcome::Sat);
        assert_eq!(solve_dimacs(&[&[1], &[-1]]), SatOutcome::Unsat);
        assert_eq!(solve_dimacs(&[]), SatOutcome::Sat);
        assert_eq!(solve_dimacs(&[&[]]), SatOutcome::Unsat);
    }

    #[test]
    fn unit_propagation_chain() {
        // 1, 1->2, 2->3, 3->-1 is unsat.
        assert_eq!(
            solve_dimacs(&[&[1], &[-1, 2], &[-2, 3], &[-3, -1]]),
            SatOutcome::Unsat
        );
        assert_eq!(solve_dimacs(&[&[1], &[-1, 2], &[-2, 3]]), SatOutcome::Sat);
    }

    #[test]
    fn model_is_returned() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::new(a, false), Lit::new(b, true)]);
        s.add_clause(&[Lit::new(a, true)]);
        assert_eq!(s.solve(Budget::unlimited()), SatOutcome::Sat);
        assert_eq!(s.value(a), Some(true));
        assert_eq!(s.value(b), Some(true));
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // p_{ij}: pigeon i in hole j; i in 0..3, j in 0..2.
        let mut s = SatSolver::new();
        let mut p = vec![];
        for _ in 0..6 {
            p.push(s.new_var());
        }
        let idx = |i: usize, j: usize| p[i * 2 + j];
        for i in 0..3 {
            s.add_clause(&[Lit::new(idx(i, 0), true), Lit::new(idx(i, 1), true)]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause(&[Lit::new(idx(i1, j), false), Lit::new(idx(i2, j), false)]);
                }
            }
        }
        assert_eq!(s.solve(Budget::unlimited()), SatOutcome::Unsat);
    }

    #[test]
    fn agrees_with_brute_force_on_random_3sat() {
        // Deterministic xorshift RNG for reproducibility.
        let mut state = 0x243F6A88u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..60 {
            let n = 6;
            let m = 3 + (round % 20);
            let mut cls: Vec<Vec<i32>> = Vec::new();
            for _ in 0..m {
                let mut c = Vec::new();
                for _ in 0..3 {
                    let v = (rng() % n + 1) as i32;
                    let s = if rng() % 2 == 0 { 1 } else { -1 };
                    c.push(v * s);
                }
                cls.push(c);
            }
            // Brute force over 2^6 assignments.
            let mut brute_sat = false;
            'assign: for bits in 0..(1u32 << n) {
                for c in &cls {
                    let ok = c.iter().any(|&l| {
                        let v = l.unsigned_abs() - 1;
                        let val = bits >> v & 1 == 1;
                        if l > 0 {
                            val
                        } else {
                            !val
                        }
                    });
                    if !ok {
                        continue 'assign;
                    }
                }
                brute_sat = true;
                break;
            }
            let refs: Vec<&[i32]> = cls.iter().map(|c| c.as_slice()).collect();
            let got = solve_dimacs(&refs);
            let expect = if brute_sat {
                SatOutcome::Sat
            } else {
                SatOutcome::Unsat
            };
            assert_eq!(got, expect, "round {round}: {cls:?}");
        }
    }

    /// A solver over `num_vars` variables given `clauses` in order.
    fn solver_of(num_vars: u32, clauses: &[&[Lit]]) -> SatSolver {
        let mut s = SatSolver::new();
        for _ in 0..num_vars {
            s.new_var();
        }
        for c in clauses {
            s.add_clause(c);
        }
        s
    }

    fn plit(v: u32, positive: bool) -> Lit {
        Lit::new(SatVar(v), positive)
    }

    #[test]
    fn add_clause_agrees_with_brute_force_on_noisy_cnfs() {
        // Random small CNFs mixing unit chains, duplicate literals and
        // clauses, tautologies, empty clauses and conflicting units, as
        // the bit-blaster hands them over: the level-0 work `add_clause`
        // does on the way in must keep every answer, and a model must
        // satisfy every clause as written.
        let mut state = 0x5EED_CAFEu64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let (mut sat, mut unsat, mut settled) = (0, 0, 0);
        for round in 0..1000 {
            let nv = 1 + rng() % 10;
            let mut s = SatSolver::new();
            for _ in 0..nv {
                s.new_var();
            }
            let any =
                |rng: &mut dyn FnMut() -> u64| plit((rng() % nv) as u32, rng().is_multiple_of(2));
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
                s.add_clause(&c);
                added.push(c);
            }
            let brute = (0..1u32 << nv).any(|bits| {
                added.iter().all(|c| {
                    c.iter()
                        .any(|l| (bits >> l.var().0 & 1 == 1) == l.is_positive())
                })
            });
            let got = s.solve(Budget::unlimited());
            assert_eq!(got == SatOutcome::Sat, brute, "round {round}: {added:?}");
            if brute {
                sat += 1;
                for c in &added {
                    assert!(
                        c.iter().any(|l| s.value(l.var()) == Some(l.is_positive())),
                        "round {round}: model falsifies {c:?}"
                    );
                }
            } else {
                unsat += 1;
            }
            settled += usize::from(s.stats().conflicts == 0);
        }
        assert!(sat > 0 && unsat > 0 && settled > 0);
    }

    #[test]
    fn add_clause_propagates_units_and_drops_noise() {
        // x0; ¬x0 ∨ x1; x1 ∨ x1 ∨ x2 (dup lit); x3 ∨ ¬x3 (tautology);
        // duplicate of clause 2.
        let mut s = solver_of(
            4,
            &[
                &[plit(0, true)],
                &[plit(0, false), plit(1, true)],
                &[plit(1, true), plit(1, true), plit(2, true)],
                &[plit(3, true), plit(3, false)],
                &[plit(2, true), plit(1, true)],
            ],
        );
        assert_eq!(s.value(SatVar(0)), Some(true));
        assert_eq!(s.value(SatVar(1)), Some(true)); // via unit propagation
        assert_eq!(s.value(SatVar(2)), None);
        assert_eq!(s.value(SatVar(3)), None);
        assert_eq!(s.num_clauses(), 0, "everything satisfied or absorbed");
        assert_eq!(s.solve(Budget::unlimited()), SatOutcome::Sat);
        assert_eq!(s.stats().conflicts, 0);
    }

    #[test]
    fn add_clause_detects_a_level_0_conflict() {
        // x0; x0 → x1; ¬x1: unit propagation alone refutes it.
        let mut s = solver_of(
            2,
            &[
                &[plit(0, true)],
                &[plit(0, false), plit(1, true)],
                &[plit(1, false)],
            ],
        );
        assert_eq!(s.solve(Budget::unlimited()), SatOutcome::Unsat);
        assert_eq!(s.stats().conflicts, 0);
    }

    #[test]
    fn conflict_budget_reports_timeout() {
        // A hard pigeonhole instance with a tiny conflict budget.
        let mut s = SatSolver::new();
        let n = 7; // pigeons
        let h = 6; // holes
        let mut p = vec![];
        for _ in 0..n * h {
            p.push(s.new_var());
        }
        let idx = |i: usize, j: usize| p[i * h + j];
        for i in 0..n {
            let c: Vec<Lit> = (0..h).map(|j| Lit::new(idx(i, j), true)).collect();
            s.add_clause(&c);
        }
        for j in 0..h {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause(&[Lit::new(idx(i1, j), false), Lit::new(idx(i2, j), false)]);
                }
            }
        }
        let out = s.solve(Budget {
            max_conflicts: 10,
            ..Budget::unlimited()
        });
        assert_eq!(out, SatOutcome::TimedOut);
    }

    #[test]
    fn conflict_free_search_still_observes_time_budget() {
        // 2000 free variables and no clauses: the search makes 2000
        // decisions and zero conflicts, so the conflict-gated budget
        // check never fires. The decision-gated check must still observe
        // an exhausted wall-clock budget (max_millis 0 is exhausted from
        // the first instant) instead of running to Sat.
        let mut s = SatSolver::new();
        for _ in 0..2000 {
            s.new_var();
        }
        let out = s.solve(Budget {
            max_millis: 0,
            ..Budget::unlimited()
        });
        assert_eq!(out, SatOutcome::TimedOut);
        // With a real budget the same formula is trivially Sat.
        assert_eq!(s.solve(Budget::unlimited()), SatOutcome::Sat);
    }

    #[test]
    fn propagation_heavy_search_still_observes_time_budget() {
        // Eight chains of 4,096 variables tied by equivalences: each
        // decision propagates a whole chain, so the search makes eight
        // decisions, no conflict and 32k propagations. Neither the
        // conflict-gated nor the decision-gated check fires in so few
        // steps; the propagation-gated one must still see the exhausted
        // budget before the 512th decision.
        let mut s = SatSolver::new();
        for _ in 0..8 {
            let chain: Vec<SatVar> = (0..4096).map(|_| s.new_var()).collect();
            for w in chain.windows(2) {
                s.add_clause(&[Lit::new(w[0], false), Lit::new(w[1], true)]);
                s.add_clause(&[Lit::new(w[0], true), Lit::new(w[1], false)]);
            }
        }
        let out = s.solve(Budget {
            max_millis: 0,
            ..Budget::unlimited()
        });
        assert_eq!(out, SatOutcome::TimedOut);
        assert!(s.stats.decisions < 512, "{:?}", s.stats);
        // With a real budget the same formula is Sat after eight decisions.
        assert_eq!(s.solve(Budget::unlimited()), SatOutcome::Sat);
        assert_eq!(s.stats.conflicts, 0);
    }

    #[test]
    fn luby_sequence_prefix() {
        let expect = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(SatSolver::luby(i as u64 + 1), e, "luby({})", i + 1);
        }
    }

    #[test]
    fn assumptions_restrict_without_committing() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::new(a, true), Lit::new(b, true)]);
        // Assuming ¬a forces b.
        let out = s.solve_assuming(&[Lit::new(a, false)], Budget::unlimited());
        assert_eq!(out, SatOutcome::Sat);
        assert_eq!(s.value(a), Some(false));
        assert_eq!(s.value(b), Some(true));
        // The assumption was not learned: a alone is still free.
        let out = s.solve_assuming(&[Lit::new(a, true)], Budget::unlimited());
        assert_eq!(out, SatOutcome::Sat);
        assert_eq!(s.value(a), Some(true));
    }

    #[test]
    fn failed_core_contains_only_assumption_literals() {
        // x1 ∧ (x1 → x2) with assumptions {x3, ¬x2, x4}: core must name
        // ¬x2 and nothing outside the assumption set.
        let mut s = SatSolver::new();
        let x1 = s.new_var();
        let x2 = s.new_var();
        let x3 = s.new_var();
        let x4 = s.new_var();
        s.add_clause(&[Lit::new(x1, true)]);
        s.add_clause(&[Lit::new(x1, false), Lit::new(x2, true)]);
        let assumptions = [Lit::new(x3, true), Lit::new(x2, false), Lit::new(x4, true)];
        let out = s.solve_assuming(&assumptions, Budget::unlimited());
        assert_eq!(out, SatOutcome::Unsat);
        let core = s.failed_assumptions().to_vec();
        assert!(!core.is_empty());
        for l in &core {
            assert!(
                assumptions.contains(l),
                "core literal {l:?} is not an assumption"
            );
        }
        assert!(core.contains(&Lit::new(x2, false)));
        // The solver survives assumption-unsat: without assumptions the
        // formula is satisfiable.
        assert_eq!(s.solve(Budget::unlimited()), SatOutcome::Sat);
        assert_eq!(s.value(x2), Some(true));
    }

    #[test]
    fn empty_core_means_formula_itself_unsat() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::new(a, true)]);
        s.add_clause(&[Lit::new(a, false)]);
        let out = s.solve_assuming(&[Lit::new(b, true)], Budget::unlimited());
        assert_eq!(out, SatOutcome::Unsat);
        assert!(s.failed_assumptions().is_empty());
    }

    #[test]
    fn clauses_addable_between_solves() {
        // Grow the formula across solve calls; learned state persists but
        // answers track the full clause set.
        let mut s = SatSolver::new();
        let mut vars = Vec::new();
        let cls: [&[i32]; 3] = [&[1, 2], &[-1, 3], &[-2, 3]];
        for c in cls {
            let ls: Vec<Lit> = c.iter().map(|&i| lit(&mut s, &mut vars, i)).collect();
            s.add_clause(&ls);
        }
        assert_eq!(s.solve(Budget::unlimited()), SatOutcome::Sat);
        assert_eq!(s.value(vars[2]), Some(true)); // 3 is forced by 1∨2
        let neg3: Vec<Lit> = vec![lit(&mut s, &mut vars, -3)];
        s.add_clause(&neg3);
        assert_eq!(s.solve(Budget::unlimited()), SatOutcome::Unsat);
    }

    #[test]
    fn clause_counters_match_recount_on_every_path() {
        // `num_clauses` and `num_learnts` are kept incrementally; every
        // path that adds or deletes a clause must leave them equal to a
        // full recount of the clause arena.
        fn check(s: &SatSolver) -> (usize, usize) {
            let counts = (s.num_clauses(), s.num_learnts());
            assert_eq!(counts, s.recount());
            counts
        }
        let mut s = SatSolver::new();
        let v: Vec<Lit> = (0..40).map(|_| Lit::new(s.new_var(), true)).collect();
        s.add_clause(&[v[0], v[1]]);
        s.add_clause(&[v[0], v[1], v[2]]);
        s.add_clause(&[v[3], v[4], v[5]]);
        assert_eq!(check(&s), (3, 0));
        // Learnt attach: one binary plus twenty reducible ternaries.
        s.attach_clause(&[v[3], v[4]], true, 2);
        for i in 10..30 {
            s.attach_clause(&[v[i], v[i + 1], v[i + 2]], true, 3);
        }
        assert_eq!(check(&s), (24, 21));
        // reduce_db deletes half of the ternaries and keeps the binary.
        s.reduce_db();
        assert_eq!(check(&s), (14, 11));
        // Level-0 work on the way in: with 6 true, (7 8 6) is satisfied
        // and (9 ¬6) reduces to the unit 9; neither is attached.
        s.add_clause(&[v[6]]);
        s.add_clause(&[v[7], v[8], v[6]]);
        s.add_clause(&[v[9], v[6].negate()]);
        assert_eq!(check(&s), (14, 11));
        assert_eq!(s.value(v[9].var()), Some(true));

        // Learnts from real search, then clauses added between solves:
        // pigeonhole 5 into 4 under an activation literal is unsat only
        // under the assumption, so the solver stays usable.
        let mut s = SatSolver::new();
        let act = Lit::new(s.new_var(), true);
        let p: Vec<Vec<Lit>> = (0..5)
            .map(|_| (0..4).map(|_| Lit::new(s.new_var(), true)).collect())
            .collect();
        for pigeon in &p {
            let mut c = vec![act.negate()];
            c.extend(pigeon);
            s.add_clause(&c);
        }
        for (i, pi) in p.iter().enumerate() {
            for pj in &p[i + 1..] {
                for (a, b) in pi.iter().zip(pj) {
                    s.add_clause(&[a.negate(), b.negate()]);
                }
            }
        }
        check(&s);
        assert_eq!(
            s.solve_assuming(&[act], Budget::unlimited()),
            SatOutcome::Unsat
        );
        assert_eq!(s.failed_assumptions(), &[act]);
        let (_, learnts) = check(&s);
        assert!(learnts > 0, "search learnt nothing");
        s.add_clause(&[p[0][0], p[1][1]]);
        check(&s);
        s.add_clause(&[act.negate()]);
        check(&s);
        assert_eq!(s.solve(Budget::unlimited()), SatOutcome::Sat);
        check(&s);
    }

    #[test]
    fn warm_solver_agrees_with_fresh_on_growing_formula() {
        // Incremental parity: push clauses in batches into one long-lived
        // solver and compare each verdict against a from-scratch solver.
        let mut state = 0x2545F491u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let n = 8;
        let mut all: Vec<Vec<i32>> = Vec::new();
        let mut warm = SatSolver::new();
        let mut warm_vars = Vec::new();
        for batch in 0..12 {
            for _ in 0..3 {
                let mut c = Vec::new();
                for _ in 0..3 {
                    let v = (rng() % n + 1) as i32;
                    let s = if rng() % 2 == 0 { 1 } else { -1 };
                    c.push(v * s);
                }
                let ls: Vec<Lit> = c
                    .iter()
                    .map(|&i| lit(&mut warm, &mut warm_vars, i))
                    .collect();
                warm.add_clause(&ls);
                all.push(c);
            }
            let refs: Vec<&[i32]> = all.iter().map(|c| c.as_slice()).collect();
            let fresh = solve_dimacs(&refs);
            let got = warm.solve(Budget::unlimited());
            assert_eq!(got, fresh, "batch {batch} diverged: {all:?}");
        }
    }

    /// A deterministic xorshift stream for the randomized tests.
    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// A clause of `len` literals over distinct variables below `nvars`,
    /// as sorted literal codes.
    fn random_clause(rng: &mut impl FnMut() -> u64, nvars: u64, len: usize) -> Vec<u32> {
        let mut vars: Vec<u64> = Vec::new();
        while vars.len() < len {
            let v = rng() % nvars;
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
        let mut c: Vec<u32> = vars
            .iter()
            .map(|&v| Lit::new(SatVar(v as u32), rng().is_multiple_of(2)).0)
            .collect();
        c.sort_unstable();
        c
    }

    #[test]
    fn long_lived_solver_agrees_with_fresh_through_reductions() {
        // Random 3-SAT near the threshold, kept in one solver across
        // rounds: the learnt database is reduced at least twice, a unit
        // is added between rounds, and every round solves under
        // assumptions. Each round must match a fresh
        // solver given the same clauses and assumptions.
        let mut rng = xorshift(0x0DDB_A11E);
        let (n, m) = (200u64, 852);
        // A hidden model keeps the clauses satisfiable without assumptions.
        let planted: Vec<bool> = (0..n).map(|_| rng().is_multiple_of(2)).collect();
        let satisfied = |c: &[Lit]| {
            c.iter()
                .any(|l| planted[l.var().0 as usize] == l.is_positive())
        };
        let mut clauses: Vec<Vec<Lit>> = Vec::new();
        while clauses.len() < m {
            let c: Vec<Lit> = random_clause(&mut rng, n, 3).into_iter().map(Lit).collect();
            if satisfied(&c) {
                clauses.push(c);
            }
        }
        let mut warm = SatSolver::new();
        for _ in 0..n {
            warm.new_var();
        }
        for c in &clauses {
            warm.add_clause(c);
        }
        let (mut reductions, mut sat_rounds, mut unsat_rounds) = (0, 0, 0);
        for round in 0..40 {
            let assumptions: Vec<Lit> =
                random_clause(&mut rng, n, 4).into_iter().map(Lit).collect();
            let got = warm.solve_assuming(&assumptions, Budget::unlimited());
            reductions += warm.stats().reductions;
            let mut fresh = SatSolver::new();
            for _ in 0..n {
                fresh.new_var();
            }
            for c in &clauses {
                fresh.add_clause(c);
            }
            let want = fresh.solve_assuming(&assumptions, Budget::unlimited());
            assert_eq!(got, want, "round {round}");
            let holds = |l: &Lit| warm.value(l.var()) == Some(l.is_positive());
            match got {
                SatOutcome::Sat => {
                    sat_rounds += 1;
                    assert!(assumptions.iter().all(holds), "round {round}");
                    for c in &clauses {
                        assert!(c.iter().any(holds), "round {round}: {c:?} false");
                    }
                }
                SatOutcome::Unsat => {
                    unsat_rounds += 1;
                    for l in warm.failed_assumptions() {
                        assert!(assumptions.contains(l), "round {round}");
                    }
                }
                other => panic!("round {round}: {other:?} without a budget"),
            }
            // A unit of the hidden model.
            let v = SatVar((rng() % n) as u32);
            let unit = Lit::new(v, planted[v.0 as usize]);
            clauses.push(vec![unit]);
            warm.add_clause(&[unit]);
        }
        assert!(reductions >= 2, "reduce_db ran {reductions} times");
        assert!(sat_rounds > 0 && unsat_rounds > 0);
    }
}
