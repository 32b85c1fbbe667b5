//! SMT substrate for Alive2-rs: the stand-in for Z3 in the paper's stack.
//!
//! The crate provides everything the translation validator needs from an
//! SMT solver, built from scratch:
//!
//! - [`bv`]: fixed-width arbitrary-precision bit-vector values;
//! - [`term`]: a hash-consed term DAG over booleans and bit-vectors with
//!   simplifying smart constructors;
//! - [`ackermann`]: elimination of uninterpreted functions, which the
//!   validator applies before any query reaches a solver;
//! - [`bitblast`]: Tseitin conversion to CNF, written straight into the
//!   SAT solver the blaster owns;
//! - [`sat`]: a CDCL SAT solver with conflict/time/memory budgets;
//! - [`solver`]: the assert/check/model facade, one-shot and incremental,
//!   over one shared search step;
//! - [`cache`]: the query cache, keyed by a canonical fingerprint of the
//!   term DAG;
//! - [`model`]: models and a concrete evaluator;
//! - [`rewrite`]: saturation-style term simplification that discharges
//!   many obligations before any CNF exists;
//! - [`exists_forall`]: CEGQI for the ∃∀ refinement queries of §5.
//!
//! # Examples
//!
//! Prove that `(x + y) - y == x` over 8-bit vectors:
//!
//! ```
//! use alive2_smt::prelude::*;
//!
//! let ctx = Ctx::new();
//! let x = ctx.var("x", Sort::BitVec(8));
//! let y = ctx.var("y", Sort::BitVec(8));
//! let claim = ctx.eq(ctx.bv_sub(ctx.bv_add(x, y), y), x);
//! assert_eq!(is_valid(&ctx, claim, Budget::unlimited()), Some(true));
//! ```

pub mod ackermann;
pub mod bitblast;
pub mod bv;
pub mod cache;
pub mod exists_forall;
pub mod fxhash;
pub mod model;
pub mod rewrite;
pub mod sat;
pub mod solver;
pub mod term;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::bv::BitVec;
    pub use crate::exists_forall::{solve_exists_forall, EfConfig, EfResult};
    pub use crate::model::{Model, Value};
    pub use crate::sat::Budget;
    pub use crate::solver::{is_valid, SmtResult, Solver};
    pub use crate::term::{Ctx, FuncId, Op, Sort, TermId, VarId};
}
