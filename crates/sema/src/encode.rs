//! Encoding of IR functions into SMT (paper §3, §6, §7).
//!
//! A function is first unrolled into a loop-free CFG (§7), then encoded in
//! reverse postorder: every register gets one symbolic value (the merge of
//! paths happens through φ nodes, §3.4), every block gets a reachability
//! condition, and immediate-UB sources accumulate into a single UB term.
//! The final state is the `ite`-chain merge of all `ret` sites (§3.6).

use crate::config::EncodeConfig;
use crate::float;
use crate::memory::{BlockInfo, BlockKind, SymMemory};
use crate::unroll::{is_sink_label, unroll_loops};
use crate::value::{ScalarVal, SymValue};
use alive2_ir::cfg::Cfg;
use alive2_ir::constant::Constant;
use alive2_ir::function::Function;
use alive2_ir::instruction::{
    BinOpKind, CastKind, FBinOpKind, ICmpPred, InstOp, Operand, ParamAttrs,
};
use alive2_ir::intrinsics::{intrinsic_kind, is_intrinsic, IntrinsicKind};
use alive2_ir::libfuncs::{libfunc, MemEffect};
use alive2_ir::module::Module;
use alive2_ir::types::{FloatKind, Type};
use alive2_ir::verify::verify_function;
use alive2_smt::bv::BitVec;
use alive2_smt::term::{Ctx, FuncId, Sort, TermId};
use std::collections::HashMap;
use std::time::Instant;

/// A feature the encoder cannot handle at all; the function pair must be
/// skipped and reported as *unsupported* (§3.8).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Unsupported {
    /// What was encountered.
    pub reason: String,
}

impl std::fmt::Display for Unsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.reason)
    }
}

impl std::error::Error for Unsupported {}

/// Why an encoding attempt stopped: the fragment is outside the
/// supported subset (skip the pair), the term DAG blew through the
/// configured memory budget (report out-of-memory, keep the process
/// alive), or the job's deadline passed (report a timeout). Resource
/// exhaustion is an *expected* per-job outcome in a corpus run (paper
/// Fig. 7's OOM and timeout columns), never a process-fatal event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EncodeError {
    /// The function uses unsupported features (§3.8).
    Unsupported(Unsupported),
    /// The per-job term-DAG memory budget was exhausted mid-encoding.
    OutOfMemory,
    /// The job's deadline ([`Env::deadline`]) passed mid-encoding.
    Timeout,
}

impl From<Unsupported> for EncodeError {
    fn from(u: Unsupported) -> Self {
        EncodeError::Unsupported(u)
    }
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::Unsupported(u) => u.fmt(f),
            EncodeError::OutOfMemory => f.write_str("term memory budget exhausted"),
            EncodeError::Timeout => f.write_str("deadline passed while encoding"),
        }
    }
}

impl std::error::Error for EncodeError {}

fn unsupported<T>(reason: impl Into<String>) -> Result<T, Unsupported> {
    Err(Unsupported {
        reason: reason.into(),
    })
}

/// The register-level width of a type under a configuration (pointers are
/// `bid_bits + off_bits` wide).
pub fn width_of(ty: &Type, cfg: &EncodeConfig) -> u32 {
    match ty {
        Type::Ptr => cfg.ptr_bits(),
        Type::Vector(n, t) | Type::Array(n, t) => n * width_of(t, cfg),
        Type::Struct(ts) => ts.iter().map(|t| width_of(t, cfg)).sum(),
        _ => ty.bit_width(),
    }
}

/// The SMT variables backing one scalar argument leaf (§3.2): used by the
/// validator to print counterexamples and by tests to pin inputs.
#[derive(Clone, Copy, Debug)]
pub struct ArgVars {
    /// The well-defined value variable.
    pub base: TermId,
    /// Bool variable: the argument is (fully) undef.
    pub isundef: TermId,
    /// Bool variable: the argument is poison.
    pub ispoison: TermId,
}

/// One argument of the shared input environment.
#[derive(Clone, Debug)]
pub struct ArgInput {
    /// Parameter name in the source function.
    pub name: String,
    /// Parameter type.
    pub ty: Type,
    /// The symbolic value template (contains the `isundef` ite and the
    /// shared undef marker variables, §3.2).
    pub value: SymValue,
    /// Attribute constraints contributed to `pre`.
    pub attrs: ParamAttrs,
    /// The backing variables of each scalar leaf, in flattening order.
    pub vars: Vec<ArgVars>,
}

/// The shared environment of a function pair: argument variables, global
/// block layout, and initial memory. Both source and target encode against
/// the same `Env`, which is what makes their inputs literally shared
/// (`I_src = I_tgt` modulo per-side undef instantiations, §5.2).
#[derive(Debug)]
pub struct Env {
    /// Term context.
    pub ctx: Ctx,
    /// Encoding configuration.
    pub cfg: EncodeConfig,
    /// Arguments (from the source signature).
    pub args: Vec<ArgInput>,
    /// Global variable bids in module order (bid = index + 1).
    pub global_names: Vec<String>,
    /// Symbolic sizes of the argument blocks (one per pointer argument).
    pub arg_block_sizes: Vec<TermId>,
    /// Shared UF for initial non-local memory contents.
    pub init_mem: FuncId,
    /// The job's absolute wall-clock deadline (`None` = unlimited; set
    /// with [`Env::with_deadline`]).
    pub deadline: Option<Instant>,
    /// Precondition contributed by the environment (argument attributes,
    /// pointer-argument bid ranges).
    pub pre: TermId,
    /// Number of shared blocks: null + globals + arg blocks.
    pub shared_blocks: usize,
    /// The module (globals + declarations used during encoding).
    pub module: Module,
    /// Shared uninterpreted-function cache: over-approximated operators and
    /// call havocs must resolve to the *same* UF on both sides, or
    /// identical code would disagree about unknown values.
    uf_cache: std::cell::RefCell<HashMap<String, FuncId>>,
}

impl Env {
    /// Builds the environment from the *source* function's signature and
    /// the module's globals.
    pub fn new(cfg: EncodeConfig, module: &Module, src: &Function) -> Result<Env, Unsupported> {
        let ctx = Ctx::new();
        // The whole job (both encodings plus every query) shares this
        // context, so the budget set here bounds the job end to end.
        ctx.set_mem_budget(cfg.mem_budget_bytes());
        let byte_w = 20 + cfg.ptr_bits();
        let init_mem = ctx.func(
            "init_mem",
            &[Sort::BitVec(cfg.ptr_bits())],
            Sort::BitVec(byte_w),
        );
        let global_names: Vec<String> = module.globals.iter().map(|g| g.name.clone()).collect();

        // Count pointer leaves in params to size the arg-block table.
        fn count_ptrs(ty: &Type) -> usize {
            match ty {
                Type::Ptr => 1,
                Type::Vector(n, t) | Type::Array(n, t) => (*n as usize) * count_ptrs(t),
                Type::Struct(ts) => ts.iter().map(count_ptrs).sum(),
                _ => 0,
            }
        }
        let n_ptr_args: usize = src.params.iter().map(|p| count_ptrs(&p.ty)).sum();
        let arg_block_sizes: Vec<TermId> = (0..n_ptr_args)
            .map(|i| ctx.var(&format!("argblk_size{i}"), Sort::BitVec(cfg.off_bits)))
            .collect();
        let shared_blocks = 1 + global_names.len() + n_ptr_args;
        if shared_blocks as u64 >= 1u64 << cfg.bid_bits {
            return unsupported("too many globals/pointer arguments for bid space");
        }

        let mut pre_parts = Vec::new();
        let mut args = Vec::new();
        for p in &src.params {
            let mut vars = Vec::new();
            let value = Self::arg_value(
                &ctx,
                &cfg,
                &p.name,
                &p.ty,
                shared_blocks,
                &mut pre_parts,
                &mut vars,
            );
            if p.attrs.noundef {
                // noundef: the argument is neither undef nor poison.
                for v in &vars {
                    pre_parts.push(ctx.not(v.ispoison));
                    pre_parts.push(ctx.not(v.isundef));
                }
            }
            args.push(ArgInput {
                name: p.name.clone(),
                ty: p.ty.clone(),
                value,
                attrs: p.attrs,
                vars,
            });
        }
        let pre = ctx.and_many(&pre_parts);
        Ok(Env {
            ctx,
            cfg,
            args,
            global_names,
            arg_block_sizes,
            init_mem,
            deadline: None,
            pre,
            shared_blocks,
            module: module.clone(),
            uf_cache: std::cell::RefCell::new(HashMap::new()),
        })
    }

    /// This environment with the job's deadline: encoding then stops with
    /// [`EncodeError::Timeout`] once it passes.
    pub fn with_deadline(self, deadline: Option<Instant>) -> Env {
        Env { deadline, ..self }
    }

    fn arg_value(
        ctx: &Ctx,
        cfg: &EncodeConfig,
        name: &str,
        ty: &Type,
        shared_blocks: usize,
        pre: &mut Vec<TermId>,
        vars: &mut Vec<ArgVars>,
    ) -> SymValue {
        match ty {
            Type::Vector(n, t) | Type::Array(n, t) => SymValue::Aggregate(
                (0..*n)
                    .map(|i| {
                        Self::arg_value(
                            ctx,
                            cfg,
                            &format!("{name}.{i}"),
                            t,
                            shared_blocks,
                            pre,
                            vars,
                        )
                    })
                    .collect(),
            ),
            Type::Struct(ts) => SymValue::Aggregate(
                ts.iter()
                    .enumerate()
                    .map(|(i, t)| {
                        Self::arg_value(
                            ctx,
                            cfg,
                            &format!("{name}.{i}"),
                            t,
                            shared_blocks,
                            pre,
                            vars,
                        )
                    })
                    .collect(),
            ),
            scalar => {
                let w = width_of(scalar, cfg);
                let base = ctx.var(name, Sort::BitVec(w));
                let isundef = ctx.var(&format!("isundef_{name}"), Sort::Bool);
                let ispoison = ctx.var(&format!("ispoison_{name}"), Sort::Bool);
                let marker = ctx.var(&format!("undef_{name}"), Sort::BitVec(w));
                if scalar.is_ptr() {
                    // Pointer arguments refer to null, a global, or one of
                    // the hypothetical argument blocks.
                    let bid = ctx.extract(base, w - 1, cfg.off_bits);
                    pre.push(ctx.bv_ult(bid, ctx.bv_lit_u64(cfg.bid_bits, shared_blocks as u64)));
                    let is_null_bid = ctx.eq(bid, ctx.bv_lit_u64(cfg.bid_bits, 0));
                    let off = ctx.extract(base, cfg.off_bits - 1, 0);
                    let off_zero = ctx.eq(off, ctx.bv_lit_u64(cfg.off_bits, 0));
                    pre.push(ctx.implies(is_null_bid, off_zero));
                }
                vars.push(ArgVars {
                    base,
                    isundef,
                    ispoison,
                });
                let value = ctx.ite(isundef, marker, base);
                SymValue::Scalar(ScalarVal {
                    value,
                    poison: ispoison,
                    undef_vars: [marker].into_iter().collect(),
                })
            }
        }
    }
}

/// One encoded call site (§6).
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Callee symbol.
    pub callee: String,
    /// Matching class: callee name, or the I/O class for recognized library
    /// functions (`printf`/`puts`, §3.8).
    pub match_class: String,
    /// Condition under which the call executes.
    pub guard: TermId,
    /// Flattened argument values.
    pub arg_values: Vec<TermId>,
    /// Flattened argument poison flags.
    pub arg_poisons: Vec<TermId>,
    /// Fresh variable for the returned value (None for void).
    pub ret_value: Option<TermId>,
    /// Fresh Boolean for "the returned value is poison".
    pub ret_poison: Option<TermId>,
    /// Fresh Boolean: the callee itself triggers UB on this call.
    pub ub_var: TermId,
    /// The call may write memory.
    pub writes_mem: bool,
    /// Sequence number among calls to the same match class within this
    /// function (used for the §6 min/max pruning and havoc naming).
    pub seq: usize,
    /// All fresh variables introduced for this call (they join `N` when
    /// this function plays the source role).
    pub fresh_vars: Vec<TermId>,
}

/// The encoded final state of a function (paper Fig. 2's `FinalState` plus
/// everything the refinement queries need).
#[derive(Debug)]
pub struct EncodedFn {
    /// Function name.
    pub name: String,
    /// Return type.
    pub ret_ty: Type,
    /// The merged return value (None for `void`).
    pub ret: Option<SymValue>,
    /// Bool: the function triggers immediate UB.
    pub ub: TermId,
    /// Bool: execution reaches some `ret`.
    pub returns: TermId,
    /// Bool: execution ends in a no-return call (§3.6).
    pub noreturn: TermId,
    /// Function-side precondition (sink unreachability §7, NaN-pattern
    /// constraints §3.5, …).
    pub pre: TermId,
    /// Non-determinism: undef instantiations, freeze picks, uninitialized
    /// memory, non-deterministic zero signs.
    pub nondet: Vec<TermId>,
    /// Fresh variables belonging to call outputs. Unlike `nondet` these
    /// stay existential in the refinement queries: an unknown callee is a
    /// fixed function, so its outputs vary with the inputs, not with the
    /// source's internal non-determinism.
    pub call_nondet: Vec<TermId>,
    /// Call sites, in encoding order.
    pub calls: Vec<CallSite>,
    /// Terms produced by over-approximated features; a counterexample that
    /// assigns any of their variables is inconclusive (§3.8).
    pub overapprox: Vec<TermId>,
    /// The final memory.
    pub mem: SymMemory,
}

struct FnEncoder<'e> {
    env: &'e Env,
    mem: SymMemory,
    regs: HashMap<String, SymValue>,
    nondet: Vec<TermId>,
    call_nondet: Vec<TermId>,
    overapprox: Vec<TermId>,
    calls: Vec<CallSite>,
    ub_parts: Vec<TermId>,
    pre_parts: Vec<TermId>,
    rets: Vec<(TermId, Option<SymValue>)>,
    noret_parts: Vec<TermId>,
    exec: Vec<TermId>,
    edge_conds: HashMap<(usize, usize), TermId>,
    class_seq: HashMap<String, usize>,
    sink_reach: Vec<TermId>,
}

/// Encodes a function against the shared environment.
///
/// # Errors
///
/// Returns [`EncodeError::Unsupported`] when the function uses features
/// outside the supported fragment (irreducible loops, mismatched
/// signature, …), [`EncodeError::OutOfMemory`] when the term DAG
/// exceeds the configured [`EncodeConfig::mem_budget_mb`] mid-encoding,
/// and [`EncodeError::Timeout`] when [`Env::deadline`] passes. Both
/// limits are checked once per encoded instruction, so encoding
/// explosions surface long before the SAT solver starts learning clauses.
pub fn encode_function(env: &Env, f: &Function) -> Result<EncodedFn, EncodeError> {
    let _sp = alive2_obs::span_labeled(alive2_obs::Phase::Encode, &f.name);
    // Signature must match the environment (built from the source).
    if f.params.len() != env.args.len() {
        unsupported::<()>("source/target parameter counts differ")?;
    }
    for (p, a) in f.params.iter().zip(&env.args) {
        if p.ty != a.ty {
            unsupported::<()>("source/target parameter types differ")?;
        }
    }
    let errs = verify_function(f);
    if !errs.is_empty() {
        unsupported::<()>(format!("ill-formed IR: {}", errs[0]))?;
    }
    let func = unroll_loops(f, env.cfg.unroll_factor)
        .map_err(|e| Unsupported { reason: e.reason })?
        .func;
    let ctx = &env.ctx;

    let mut mem = SymMemory::new(ctx, env.cfg, env.init_mem);
    // Globals: bid 1..=G in module order (shared with the other side).
    for g in &env.module.globals {
        let size = g.ty.byte_size();
        let init = g
            .init
            .as_ref()
            .map(|c| const_bytes(ctx, &mem, c, &g.ty))
            .transpose()?;
        mem.add_block(BlockInfo {
            kind: BlockKind::Global,
            size: ctx.bv_lit_u64(env.cfg.off_bits, size),
            read_only: g.is_const,
            allocated: ctx.tru(),
            freed: ctx.fals(),
            init,
            name: g.name.clone(),
        });
    }
    // Argument blocks with shared symbolic sizes.
    for (i, &size) in env.arg_block_sizes.iter().enumerate() {
        mem.add_block(BlockInfo {
            kind: BlockKind::Arg,
            size,
            read_only: false,
            allocated: ctx.tru(),
            freed: ctx.fals(),
            init: None,
            name: format!("argblk{i}"),
        });
    }
    mem.shared_blocks = env.shared_blocks;

    let mut enc = FnEncoder {
        env,
        mem,
        regs: HashMap::new(),
        nondet: Vec::new(),
        call_nondet: Vec::new(),
        overapprox: Vec::new(),
        calls: Vec::new(),
        ub_parts: Vec::new(),
        pre_parts: Vec::new(),
        rets: Vec::new(),
        noret_parts: Vec::new(),
        exec: Vec::new(),
        edge_conds: HashMap::new(),
        class_seq: HashMap::new(),
        sink_reach: Vec::new(),
    };

    // Bind parameters, renaming to the target's parameter names.
    for (p, a) in func.params.iter().zip(&env.args) {
        enc.regs.insert(p.name.clone(), a.value.clone());
    }

    let cfg_an = Cfg::new(&func);
    let rpo = cfg_an.reverse_postorder();
    enc.exec = vec![ctx.fals(); func.blocks.len()];
    if !rpo.is_empty() {
        enc.exec[rpo[0]] = ctx.tru();
    }

    for &bi in &rpo {
        // Reachability: OR over incoming edge conditions (entry = true).
        if bi != rpo[0] {
            let mut conds = Vec::new();
            for &p in &cfg_an.preds[bi] {
                if let Some(&c) = enc.edge_conds.get(&(p, bi)) {
                    conds.push(c);
                }
            }
            enc.exec[bi] = ctx.or_many(&conds);
        }
        let block = &func.blocks[bi];
        if is_sink_label(&block.name) {
            enc.sink_reach.push(enc.exec[bi]);
            continue;
        }
        let mut guard = enc.exec[bi];
        for inst in &block.insts {
            // The per-instruction choke point: wide vectors × deep unrolls
            // can mint millions of terms, and nothing below here frees.
            if ctx.over_budget() {
                return Err(EncodeError::OutOfMemory);
            }
            if env.deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(EncodeError::Timeout);
            }
            alive2_obs::stats::record_insts_encoded(1);
            let _inst_sp = alive2_obs::trace::detail()
                .then(|| alive2_obs::span_labeled(alive2_obs::Phase::Inst, &inst.to_string()));
            guard = enc.encode_inst(&func, &cfg_an, bi, guard, inst)?;
        }
    }

    // Sink reachability is excluded by the precondition (§7).
    let sink = ctx.or_many(&enc.sink_reach);
    enc.pre_parts.push(ctx.not(sink));

    // Merge return sites (§3.6).
    let returns = ctx.or_many(&enc.rets.iter().map(|(g, _)| *g).collect::<Vec<_>>());
    let ret = if func.ret_ty == Type::Void {
        None
    } else {
        let mut merged: Option<SymValue> = None;
        for (g, v) in &enc.rets {
            let v = v.clone().expect("non-void return carries a value");
            merged = Some(match merged {
                None => v,
                Some(acc) => merge_sym(ctx, *g, &v, &acc),
            });
        }
        // A function that never returns still needs a placeholder value.
        Some(merged.unwrap_or_else(|| zero_value(ctx, &env.cfg, &func.ret_ty)))
    };

    Ok(EncodedFn {
        name: func.name.clone(),
        ret_ty: func.ret_ty.clone(),
        ret,
        ub: ctx.or_many(&enc.ub_parts),
        returns,
        noreturn: ctx.or_many(&enc.noret_parts),
        pre: ctx.and_many(&enc.pre_parts),
        nondet: enc.nondet,
        call_nondet: enc.call_nondet,
        calls: enc.calls,
        overapprox: enc.overapprox,
        mem: enc.mem,
    })
}

/// Chooses `t` when `c` holds, else `e`, element-wise.
fn merge_sym(ctx: &Ctx, c: TermId, t: &SymValue, e: &SymValue) -> SymValue {
    match (t, e) {
        (SymValue::Scalar(a), SymValue::Scalar(b)) => SymValue::Scalar(ScalarVal {
            value: ctx.ite(c, a.value, b.value),
            poison: ctx.ite(c, a.poison, b.poison),
            undef_vars: a.undef_vars.union(&b.undef_vars).copied().collect(),
        }),
        (SymValue::Aggregate(xs), SymValue::Aggregate(ys)) => SymValue::Aggregate(
            xs.iter()
                .zip(ys)
                .map(|(x, y)| merge_sym(ctx, c, x, y))
                .collect(),
        ),
        _ => panic!("merging mismatched symbolic shapes"),
    }
}

/// The all-zeros value of a type.
fn zero_value(ctx: &Ctx, cfg: &EncodeConfig, ty: &Type) -> SymValue {
    match ty {
        Type::Vector(n, t) | Type::Array(n, t) => {
            SymValue::Aggregate((0..*n).map(|_| zero_value(ctx, cfg, t)).collect())
        }
        Type::Struct(ts) => {
            SymValue::Aggregate(ts.iter().map(|t| zero_value(ctx, cfg, t)).collect())
        }
        scalar => SymValue::Scalar(ScalarVal {
            value: ctx.bv_lit_u64(width_of(scalar, cfg), 0),
            poison: ctx.fals(),
            undef_vars: Default::default(),
        }),
    }
}

/// Converts a constant global initializer into packed byte terms.
fn const_bytes(
    ctx: &Ctx,
    mem: &SymMemory,
    c: &Constant,
    ty: &Type,
) -> Result<Vec<TermId>, Unsupported> {
    let codec = mem.codec();
    let num = |bits: &BitVec| -> Vec<TermId> {
        let len = ((bits.width() as u64) + 7) / 8;
        (0..len)
            .map(|i| {
                let lo = (i * 8) as u32;
                let hi = ((i + 1) * 8 - 1).min(bits.width() as u64 - 1) as u32;
                let v = bits.extract(hi, lo).zext(8);
                codec.pack_num(ctx, ctx.bv_lit(v), ctx.bv_lit_u64(8, 0))
            })
            .collect()
    };
    match (c, ty) {
        (Constant::Int(v), _) => Ok(num(v)),
        (Constant::Float(_, bits), _) => Ok(num(bits)),
        (Constant::Null, _) => {
            let p = mem.null(ctx);
            Ok((0..Type::Ptr.byte_size())
                .map(|i| codec.pack_ptr(ctx, p, i as u32, ctx.fals()))
                .collect())
        }
        (Constant::ZeroInit(_), ty) => {
            let n = ty.byte_size();
            Ok((0..n)
                .map(|_| codec.pack_num(ctx, ctx.bv_lit_u64(8, 0), ctx.bv_lit_u64(8, 0)))
                .collect())
        }
        (Constant::Undef(_) | Constant::Poison(_), ty) => {
            // Undef/poison initializers: poison-masked bytes.
            let n = ty.byte_size();
            Ok((0..n)
                .map(|_| codec.pack_num(ctx, ctx.bv_lit_u64(8, 0), ctx.bv_lit_u64(8, 0xff)))
                .collect())
        }
        (Constant::Aggregate(_, elems), ty) => {
            let mut out = Vec::new();
            for (i, e) in elems.iter().enumerate() {
                let et = crate::value::elem_type(ty, i);
                out.extend(const_bytes(ctx, mem, e, et)?);
            }
            Ok(out)
        }
        (Constant::Global(_), _) => unsupported("global-reference initializers are unsupported"),
    }
}

impl<'e> FnEncoder<'e> {
    fn ctx(&self) -> &'e Ctx {
        &self.env.ctx
    }

    /// Looks a register or constant up, refreshing undef variables (§3.3).
    fn operand(&mut self, op: &Operand, ty: &Type) -> Result<SymValue, Unsupported> {
        match op {
            Operand::Reg(r) => {
                let v = self
                    .regs
                    .get(r)
                    .unwrap_or_else(|| panic!("verifier admitted undefined register %{r}"))
                    .clone();
                Ok(v.refresh_undef(self.ctx(), &mut self.nondet))
            }
            Operand::Const(c) => self.constant(c, ty),
        }
    }

    fn constant(&mut self, c: &Constant, ty: &Type) -> Result<SymValue, Unsupported> {
        let ctx = self.ctx();
        let cfg = &self.env.cfg;
        Ok(match c {
            Constant::Int(v) => SymValue::Scalar(ScalarVal::defined(ctx.bv_lit(v.clone()), ctx)),
            Constant::Float(_, bits) => {
                SymValue::Scalar(ScalarVal::defined(ctx.bv_lit(bits.clone()), ctx))
            }
            Constant::Null => SymValue::Scalar(ScalarVal::defined(self.mem.null(ctx), ctx)),
            Constant::Global(name) => {
                let Some(idx) = self.env.global_names.iter().position(|g| g == name) else {
                    return unsupported(format!("reference to unknown global @{name}"));
                };
                let ptr = self
                    .mem
                    .ptr(ctx, (idx + 1) as u64, ctx.bv_lit_u64(cfg.off_bits, 0));
                SymValue::Scalar(ScalarVal::defined(ptr, ctx))
            }
            Constant::Undef(t) => self.undef_value(t),
            Constant::Poison(t) => poison_value(ctx, cfg, t),
            Constant::ZeroInit(t) => zero_value(ctx, cfg, t),
            Constant::Aggregate(t, elems) => {
                let mut vs = Vec::new();
                for (i, e) in elems.iter().enumerate() {
                    let et = crate::value::elem_type(t, i).clone();
                    vs.push(self.constant(e, &et)?);
                }
                let _ = ty;
                SymValue::Aggregate(vs)
            }
        })
    }

    /// A fresh undef value of a type: every observation may differ.
    fn undef_value(&mut self, ty: &Type) -> SymValue {
        let ctx = self.ctx();
        match ty {
            Type::Vector(n, t) | Type::Array(n, t) => {
                SymValue::Aggregate((0..*n).map(|_| self.undef_value(t)).collect())
            }
            Type::Struct(ts) => {
                SymValue::Aggregate(ts.iter().map(|t| self.undef_value(t)).collect())
            }
            scalar => {
                let w = width_of(scalar, &self.env.cfg);
                let v = ctx.var("undef", Sort::BitVec(w));
                self.nondet.push(v);
                SymValue::Scalar(ScalarVal {
                    value: v,
                    poison: ctx.fals(),
                    undef_vars: [v].into_iter().collect(),
                })
            }
        }
    }

    fn def(&mut self, inst_result: &Option<String>, v: SymValue) {
        if let Some(r) = inst_result {
            self.regs.insert(r.clone(), v);
        }
    }

    /// The §3.3 "can this value differ between observations" condition,
    /// used for branch-on-undef UB. Encoded as inequality of two fresh
    /// instantiations; quantifier polarity does the rest (see module docs).
    fn undefness(&mut self, v: &ScalarVal) -> TermId {
        let ctx = self.ctx();
        if v.undef_vars.is_empty() {
            return ctx.fals();
        }
        let sv = SymValue::Scalar(v.clone());
        let a = sv.refresh_undef(ctx, &mut self.nondet);
        let b = sv.refresh_undef(ctx, &mut self.nondet);
        ctx.ne(a.as_scalar().value, b.as_scalar().value)
    }

    /// Encodes one instruction; returns the updated in-block guard (calls
    /// to no-return functions cut the rest of the block).
    fn encode_inst(
        &mut self,
        func: &Function,
        cfg_an: &Cfg,
        bi: usize,
        guard: TermId,
        inst: &alive2_ir::instruction::Instruction,
    ) -> Result<TermId, Unsupported> {
        let ctx = self.ctx();
        match &inst.op {
            InstOp::Bin {
                op,
                flags,
                ty,
                lhs,
                rhs,
            } => {
                let a = self.operand(lhs, ty)?;
                let b = self.operand(rhs, ty)?;
                let v = self.map_lanes2(ty, &a, &b, |enc, x, y| {
                    enc.bin_scalar(guard, *op, *flags, ty.scalar_type(), x, y)
                })?;
                self.def(&inst.result, v);
                Ok(guard)
            }
            InstOp::FBin {
                op,
                fmf,
                ty,
                lhs,
                rhs,
            } => {
                let a = self.operand(lhs, ty)?;
                let b = self.operand(rhs, ty)?;
                let v = self.map_lanes2(ty, &a, &b, |enc, x, y| {
                    enc.fbin_scalar(*op, *fmf, ty.scalar_type(), x, y)
                })?;
                self.def(&inst.result, v);
                Ok(guard)
            }
            InstOp::FNeg { fmf, ty, val } => {
                let a = self.operand(val, ty)?;
                let v = self.map_lanes1(ty, &a, |enc, x| {
                    let Type::Float(k) = ty.scalar_type() else {
                        return unsupported("fneg on non-float");
                    };
                    let ctx = enc.ctx();
                    let mut r = ScalarVal {
                        value: float::fneg(ctx, x.value, *k),
                        poison: x.poison,
                        undef_vars: x.undef_vars.clone(),
                    };
                    enc.apply_fmf(*fmf, *k, &mut r);
                    Ok(r)
                })?;
                self.def(&inst.result, v);
                Ok(guard)
            }
            InstOp::ICmp { pred, ty, lhs, rhs } => {
                let a = self.operand(lhs, ty)?;
                let b = self.operand(rhs, ty)?;
                let v = self.map_lanes2(ty, &a, &b, |enc, x, y| {
                    let ctx = enc.ctx();
                    let r = icmp_term(ctx, *pred, x.value, y.value);
                    Ok(ScalarVal {
                        value: ctx.bool_to_bv1(r),
                        poison: ctx.or(x.poison, y.poison),
                        undef_vars: x.undef_vars.union(&y.undef_vars).copied().collect(),
                    })
                })?;
                self.def(&inst.result, v);
                Ok(guard)
            }
            InstOp::FCmp { pred, ty, lhs, rhs } => {
                let a = self.operand(lhs, ty)?;
                let b = self.operand(rhs, ty)?;
                let v = self.map_lanes2(ty, &a, &b, |enc, x, y| {
                    let Type::Float(k) = ty.scalar_type() else {
                        return unsupported("fcmp on non-float");
                    };
                    let ctx = enc.ctx();
                    let r = float::fcmp(ctx, *pred, x.value, y.value, *k);
                    Ok(ScalarVal {
                        value: ctx.bool_to_bv1(r),
                        poison: ctx.or(x.poison, y.poison),
                        undef_vars: x.undef_vars.union(&y.undef_vars).copied().collect(),
                    })
                })?;
                self.def(&inst.result, v);
                Ok(guard)
            }
            InstOp::Select {
                cond,
                ty,
                tval,
                fval,
            } => {
                let c = self.operand(cond, &Type::i1())?;
                let t = self.operand(tval, ty)?;
                let f = self.operand(fval, ty)?;
                let cs = c.as_scalar();
                let cbit = ctx.bv1_to_bool(cs.value);
                let picked = merge_sym(ctx, cbit, &t, &f);
                // A poison/undef condition makes the whole select poison
                // (the post-fix semantics the paper drove: conditional
                // poison, not UB; undef condition picks either arm — we
                // conservatively treat an undef condition as selecting
                // between the arms, which the refreshed cbit already does).
                let v = match picked {
                    SymValue::Scalar(s) => SymValue::Scalar(ScalarVal {
                        value: s.value,
                        poison: ctx.or(cs.poison, s.poison),
                        undef_vars: s.undef_vars.union(&cs.undef_vars).copied().collect(),
                    }),
                    agg => {
                        let p = cs.poison;
                        taint_poison(ctx, &agg, p)
                    }
                };
                self.def(&inst.result, v);
                Ok(guard)
            }
            InstOp::Freeze { ty, val } => {
                let a = self.operand(val, ty)?;
                let v = a.freeze(ctx, &mut self.nondet);
                self.def(&inst.result, v);
                Ok(guard)
            }
            InstOp::Cast {
                kind,
                from_ty,
                val,
                to_ty,
            } => {
                let a = self.operand(val, from_ty)?;
                let v = self.cast(*kind, from_ty, to_ty, &a)?;
                self.def(&inst.result, v);
                Ok(guard)
            }
            InstOp::Phi { ty, incoming } => {
                // Merge over incoming edges (§3.4). Entries for unreachable
                // predecessors contribute nothing.
                let mut acc: Option<SymValue> = None;
                for (v, from) in incoming {
                    let Some(fb) = func.block_index(from) else {
                        continue;
                    };
                    let Some(&cond) = self.edge_conds.get(&(fb, bi)) else {
                        continue;
                    };
                    let val = self.operand(v, ty)?;
                    acc = Some(match acc {
                        None => val,
                        Some(prev) => merge_sym(ctx, cond, &val, &prev),
                    });
                }
                let v = acc.unwrap_or_else(|| zero_value(ctx, &self.env.cfg, ty));
                self.def(&inst.result, v);
                Ok(guard)
            }
            InstOp::Call { ty, callee, args } => self.call(guard, ty, callee, args, &inst.result),
            InstOp::Alloca {
                elem_ty,
                count,
                align: _,
            } => {
                let cnt = self.operand(count, &Type::i64())?;
                let cs = cnt.as_scalar();
                let cfg = self.env.cfg;
                let elem_sz = elem_ty.byte_size();
                // size = count * elem_size, computed at offset width.
                let cnt_off = fit_width(ctx, cs.value, cfg.off_bits);
                let size = ctx.bv_mul(cnt_off, ctx.bv_lit_u64(cfg.off_bits, elem_sz));
                let bid = self.mem.add_block(BlockInfo {
                    kind: BlockKind::Stack,
                    size,
                    read_only: false,
                    allocated: guard,
                    freed: ctx.fals(),
                    init: None,
                    name: inst.result.clone().unwrap_or_else(|| "alloca".into()),
                });
                let ptr = self.mem.ptr(ctx, bid, ctx.bv_lit_u64(cfg.off_bits, 0));
                self.def(&inst.result, SymValue::Scalar(ScalarVal::defined(ptr, ctx)));
                Ok(guard)
            }
            InstOp::Load { ty, ptr, align: _ } => {
                let p = self.operand(ptr, &Type::Ptr)?;
                let ps = p.as_scalar().clone();
                // A poison/undef pointer is UB on access (§8.3 "a pointer
                // given to a load or store is not allowed to be a
                // non-deterministic value").
                let undef_ub = self.undefness(&ps);
                self.ub_parts
                    .push(ctx.and(guard, ctx.or(ps.poison, undef_ub)));
                let v = self.load_value(guard, ps.value, ty)?;
                self.def(&inst.result, v);
                Ok(guard)
            }
            InstOp::Store {
                ty,
                val,
                ptr,
                align: _,
            } => {
                let v = self.operand(val, ty)?;
                let p = self.operand(ptr, &Type::Ptr)?;
                let ps = p.as_scalar().clone();
                let undef_ub = self.undefness(&ps);
                self.ub_parts
                    .push(ctx.and(guard, ctx.or(ps.poison, undef_ub)));
                self.store_value(guard, ps.value, ty, &v)?;
                Ok(guard)
            }
            InstOp::Gep {
                inbounds,
                elem_ty,
                ptr,
                indices,
            } => {
                let p = self.operand(ptr, &Type::Ptr)?;
                let v = self.gep(*inbounds, elem_ty, &p, indices)?;
                self.def(&inst.result, v);
                Ok(guard)
            }
            InstOp::ExtractElement { vec_ty, vec, idx } => {
                let v = self.operand(vec, vec_ty)?;
                let i = self.operand(idx, &Type::i64())?;
                let lanes = v.as_aggregate();
                let is = i.as_scalar();
                let n = lanes.len() as u64;
                let iw = ctx.sort(is.value).width();
                let oob = ctx.bv_uge(is.value, ctx.bv_lit_u64(iw, n));
                let mut val = poison_value(ctx, &self.env.cfg, vec_ty.elem_type());
                for (k, lane) in lanes.iter().enumerate().rev() {
                    let hit = ctx.eq(is.value, ctx.bv_lit_u64(iw, k as u64));
                    val = merge_sym(ctx, hit, lane, &val);
                }
                let val = taint_poison(ctx, &val, ctx.or(is.poison, oob));
                self.def(&inst.result, val);
                Ok(guard)
            }
            InstOp::InsertElement {
                vec_ty,
                vec,
                elem,
                idx,
            } => {
                let v = self.operand(vec, vec_ty)?;
                let e = self.operand(elem, vec_ty.elem_type())?;
                let i = self.operand(idx, &Type::i64())?;
                let is = i.as_scalar();
                let lanes = v.as_aggregate();
                let n = lanes.len() as u64;
                let iw = ctx.sort(is.value).width();
                let oob = ctx.bv_uge(is.value, ctx.bv_lit_u64(iw, n));
                let bad = ctx.or(is.poison, oob);
                let mut out = Vec::new();
                for (k, lane) in lanes.iter().enumerate() {
                    let hit = ctx.eq(is.value, ctx.bv_lit_u64(iw, k as u64));
                    let merged = merge_sym(ctx, hit, &e, lane);
                    out.push(taint_poison(ctx, &merged, bad));
                }
                self.def(&inst.result, SymValue::Aggregate(out));
                Ok(guard)
            }
            InstOp::ShuffleVector {
                vec_ty,
                v1,
                v2,
                mask,
            } => {
                let a = self.operand(v1, vec_ty)?;
                let b = self.operand(v2, vec_ty)?;
                let n = vec_ty.elem_count() as usize;
                let mut lanes: Vec<SymValue> = a.as_aggregate().iter().cloned().collect();
                lanes.extend(b.as_aggregate().iter().cloned());
                let mut out = Vec::new();
                for m in mask {
                    out.push(match m {
                        Some(k) if (*k as usize) < 2 * n => lanes[*k as usize].clone(),
                        Some(_) => poison_value(ctx, &self.env.cfg, vec_ty.elem_type()),
                        // Undef mask element: undef lane, not poison (the
                        // §8.3 semantics decision).
                        None => self.undef_value(vec_ty.elem_type()),
                    });
                }
                self.def(&inst.result, SymValue::Aggregate(out));
                Ok(guard)
            }
            InstOp::ExtractValue {
                agg_ty,
                agg,
                indices,
            } => {
                let a = self.operand(agg, agg_ty)?;
                let mut cur = &a;
                // Checked walk: hostile indices (out of bounds, or deeper
                // than the aggregate nests) are malformed IR, not a panic.
                for &i in indices {
                    let SymValue::Aggregate(elems) = cur else {
                        return unsupported("extractvalue index into non-aggregate");
                    };
                    let Some(next) = elems.get(i as usize) else {
                        return unsupported("extractvalue index out of bounds");
                    };
                    cur = next;
                }
                let v = cur.clone();
                self.def(&inst.result, v);
                Ok(guard)
            }
            InstOp::InsertValue {
                agg_ty,
                agg,
                elem_ty,
                elem,
                indices,
            } => {
                let a = self.operand(agg, agg_ty)?;
                let e = self.operand(elem, elem_ty)?;
                // Checked rebuild: `None` marks a hostile path (index out
                // of bounds or into a non-aggregate).
                fn set(v: &SymValue, path: &[u32], e: &SymValue) -> Option<SymValue> {
                    match path {
                        [] => Some(e.clone()),
                        [i, rest @ ..] => {
                            let SymValue::Aggregate(elems) = v else {
                                return None;
                            };
                            let mut elems = elems.to_vec();
                            let slot = elems.get(*i as usize)?.clone();
                            elems[*i as usize] = set(&slot, rest, e)?;
                            Some(SymValue::Aggregate(elems))
                        }
                    }
                }
                let Some(v) = set(&a, indices, &e) else {
                    return unsupported("insertvalue index out of bounds");
                };
                self.def(&inst.result, v);
                Ok(guard)
            }
            InstOp::Ret { val } => {
                let v = match val {
                    Some((t, op)) => Some(self.operand(op, t)?),
                    None => None,
                };
                self.rets.push((guard, v));
                Ok(guard)
            }
            InstOp::Br { dest } => {
                let Some(ti) = func.block_index(dest) else {
                    return unsupported("branch to unknown label");
                };
                self.add_edge(bi, ti, guard);
                Ok(guard)
            }
            InstOp::CondBr {
                cond,
                then_dest,
                else_dest,
            } => {
                let c = self.operand(cond, &Type::i1())?;
                let cs = c.as_scalar().clone();
                // Branching on undef or poison is UB (§2).
                let undef_ub = self.undefness(&cs);
                self.ub_parts
                    .push(ctx.and(guard, ctx.or(cs.poison, undef_ub)));
                let cv = ctx.bv1_to_bool(cs.value);
                let (Some(ti), Some(ei)) =
                    (func.block_index(then_dest), func.block_index(else_dest))
                else {
                    return unsupported("branch to unknown label");
                };
                self.add_edge(bi, ti, ctx.and(guard, cv));
                self.add_edge(bi, ei, ctx.and(guard, ctx.not(cv)));
                Ok(guard)
            }
            InstOp::Switch {
                ty,
                val,
                default,
                cases,
            } => {
                let v = self.operand(val, ty)?;
                let vs = v.as_scalar().clone();
                let undef_ub = self.undefness(&vs);
                self.ub_parts
                    .push(ctx.and(guard, ctx.or(vs.poison, undef_ub)));
                let mut not_any = Vec::new();
                for (cv, label) in cases {
                    let Some(ti) = func.block_index(label) else {
                        return unsupported("switch to unknown label");
                    };
                    let hit = ctx.eq(vs.value, ctx.bv_lit(cv.clone()));
                    self.add_edge(bi, ti, ctx.and(guard, hit));
                    not_any.push(ctx.not(hit));
                }
                let Some(di) = func.block_index(default) else {
                    return unsupported("switch to unknown label");
                };
                let all_miss = ctx.and_many(&not_any);
                self.add_edge(bi, di, ctx.and(guard, all_miss));
                let _ = cfg_an;
                Ok(guard)
            }
            InstOp::Unreachable => {
                // Reaching `unreachable` is immediate UB.
                self.ub_parts.push(guard);
                Ok(guard)
            }
        }
    }

    fn add_edge(&mut self, from: usize, to: usize, cond: TermId) {
        let ctx = self.ctx();
        let entry = self.edge_conds.entry((from, to)).or_insert(ctx.fals());
        *entry = ctx.or(*entry, cond);
    }

    /// Applies a scalar operation lane-wise over vectors, or directly over
    /// scalars.
    fn map_lanes2(
        &mut self,
        ty: &Type,
        a: &SymValue,
        b: &SymValue,
        f: impl Fn(&mut Self, &ScalarVal, &ScalarVal) -> Result<ScalarVal, Unsupported>,
    ) -> Result<SymValue, Unsupported> {
        if ty.is_vector() {
            let xs = a.as_aggregate();
            let ys = b.as_aggregate();
            let mut out = Vec::new();
            for (x, y) in xs.iter().zip(ys) {
                out.push(SymValue::Scalar(f(self, x.as_scalar(), y.as_scalar())?));
            }
            Ok(SymValue::Aggregate(out))
        } else {
            Ok(SymValue::Scalar(f(self, a.as_scalar(), b.as_scalar())?))
        }
    }

    fn map_lanes1(
        &mut self,
        ty: &Type,
        a: &SymValue,
        f: impl Fn(&mut Self, &ScalarVal) -> Result<ScalarVal, Unsupported>,
    ) -> Result<SymValue, Unsupported> {
        if ty.is_vector() {
            let xs = a.as_aggregate();
            let mut out = Vec::new();
            for x in xs {
                out.push(SymValue::Scalar(f(self, x.as_scalar())?));
            }
            Ok(SymValue::Aggregate(out))
        } else {
            Ok(SymValue::Scalar(f(self, a.as_scalar())?))
        }
    }

    /// Integer binary operations (paper Fig. 3 rules, incl. the nsw/nuw/
    /// exact poison conditions and div/rem immediate UB).
    fn bin_scalar(
        &mut self,
        guard: TermId,
        op: BinOpKind,
        flags: alive2_ir::instruction::WrapFlags,
        ty: &Type,
        a: &ScalarVal,
        b: &ScalarVal,
    ) -> Result<ScalarVal, Unsupported> {
        let ctx = self.ctx();
        let w = ty.int_width();
        let mut poison = ctx.or(a.poison, b.poison);
        let x = a.value;
        let y = b.value;
        let value = match op {
            BinOpKind::Add => {
                if flags.nsw {
                    let wide = ctx.bv_add(ctx.sext(x, w + 1), ctx.sext(y, w + 1));
                    let narrow = ctx.sext(ctx.trunc(wide, w), w + 1);
                    poison = ctx.or(poison, ctx.ne(wide, narrow));
                }
                if flags.nuw {
                    let wide = ctx.bv_add(ctx.zext(x, w + 1), ctx.zext(y, w + 1));
                    let carry = ctx.extract(wide, w, w);
                    poison = ctx.or(poison, ctx.eq(carry, ctx.bv_lit_u64(1, 1)));
                }
                ctx.bv_add(x, y)
            }
            BinOpKind::Sub => {
                if flags.nsw {
                    let wide = ctx.bv_sub(ctx.sext(x, w + 1), ctx.sext(y, w + 1));
                    let narrow = ctx.sext(ctx.trunc(wide, w), w + 1);
                    poison = ctx.or(poison, ctx.ne(wide, narrow));
                }
                if flags.nuw {
                    poison = ctx.or(poison, ctx.bv_ult(x, y));
                }
                ctx.bv_sub(x, y)
            }
            BinOpKind::Mul => {
                if flags.nsw {
                    let wide = ctx.bv_mul(ctx.sext(x, 2 * w), ctx.sext(y, 2 * w));
                    let narrow = ctx.sext(ctx.trunc(wide, w), 2 * w);
                    poison = ctx.or(poison, ctx.ne(wide, narrow));
                }
                if flags.nuw {
                    let wide = ctx.bv_mul(ctx.zext(x, 2 * w), ctx.zext(y, 2 * w));
                    let hi = ctx.extract(wide, 2 * w - 1, w);
                    poison = ctx.or(poison, ctx.ne(hi, ctx.bv_lit_u64(w, 0)));
                }
                ctx.bv_mul(x, y)
            }
            BinOpKind::UDiv | BinOpKind::URem => {
                // Division by zero is immediate UB; a poison divisor too
                // (udiv-ub rule in Fig. 3).
                let zero = ctx.bv_lit_u64(w, 0);
                let div0 = ctx.eq(y, zero);
                self.ub_parts.push(ctx.and(guard, ctx.or(div0, b.poison)));
                if flags.exact && op == BinOpKind::UDiv {
                    let rem = ctx.bv_urem(x, y);
                    poison = ctx.or(poison, ctx.ne(rem, zero));
                }
                if op == BinOpKind::UDiv {
                    ctx.bv_udiv(x, y)
                } else {
                    ctx.bv_urem(x, y)
                }
            }
            BinOpKind::SDiv | BinOpKind::SRem => {
                let zero = ctx.bv_lit_u64(w, 0);
                let div0 = ctx.eq(y, zero);
                let int_min = ctx.bv_lit(BitVec::min_signed(w));
                let neg1 = ctx.bv_lit(BitVec::all_ones(w));
                let ovf = ctx.and(ctx.eq(x, int_min), ctx.eq(y, neg1));
                self.ub_parts
                    .push(ctx.and(guard, ctx.or_many(&[div0, ovf, b.poison])));
                if flags.exact && op == BinOpKind::SDiv {
                    let rem = ctx.bv_srem(x, y);
                    poison = ctx.or(poison, ctx.ne(rem, zero));
                }
                if op == BinOpKind::SDiv {
                    ctx.bv_sdiv(x, y)
                } else {
                    ctx.bv_srem(x, y)
                }
            }
            BinOpKind::Shl => {
                let big = ctx.bv_uge(y, ctx.bv_lit_u64(w, w as u64));
                poison = ctx.or(poison, big);
                if flags.nsw {
                    let shifted = ctx.bv_shl(x, y);
                    let back = ctx.bv_ashr(shifted, y);
                    poison = ctx.or(poison, ctx.ne(back, x));
                }
                if flags.nuw {
                    let shifted = ctx.bv_shl(x, y);
                    let back = ctx.bv_lshr(shifted, y);
                    poison = ctx.or(poison, ctx.ne(back, x));
                }
                ctx.bv_shl(x, y)
            }
            BinOpKind::LShr => {
                let big = ctx.bv_uge(y, ctx.bv_lit_u64(w, w as u64));
                poison = ctx.or(poison, big);
                if flags.exact {
                    let back = ctx.bv_shl(ctx.bv_lshr(x, y), y);
                    poison = ctx.or(poison, ctx.ne(back, x));
                }
                ctx.bv_lshr(x, y)
            }
            BinOpKind::AShr => {
                let big = ctx.bv_uge(y, ctx.bv_lit_u64(w, w as u64));
                poison = ctx.or(poison, big);
                if flags.exact {
                    let back = ctx.bv_shl(ctx.bv_ashr(x, y), y);
                    poison = ctx.or(poison, ctx.ne(back, x));
                }
                ctx.bv_ashr(x, y)
            }
            BinOpKind::And => ctx.bv_and(x, y),
            BinOpKind::Or => ctx.bv_or(x, y),
            BinOpKind::Xor => ctx.bv_xor(x, y),
        };
        Ok(ScalarVal {
            value,
            poison,
            undef_vars: a.undef_vars.union(&b.undef_vars).copied().collect(),
        })
    }

    fn apply_fmf(
        &mut self,
        fmf: alive2_ir::instruction::FastMathFlags,
        k: FloatKind,
        r: &mut ScalarVal,
    ) {
        let ctx = self.ctx();
        if fmf.nnan {
            let bad = float::is_nan(ctx, r.value, k);
            r.poison = ctx.or(r.poison, bad);
        }
        if fmf.ninf {
            let bad = float::is_inf(ctx, r.value, k);
            r.poison = ctx.or(r.poison, bad);
        }
        if fmf.nsz {
            // nsz: a zero result has a non-deterministic sign.
            let z = float::is_zero(ctx, r.value, k);
            let s = ctx.var("nsz_sign", Sort::Bool);
            self.nondet.push(s);
            let signed_zero = float::zero(ctx, s, k);
            r.value = ctx.ite(z, signed_zero, r.value);
        }
    }

    fn fbin_scalar(
        &mut self,
        op: FBinOpKind,
        fmf: alive2_ir::instruction::FastMathFlags,
        ty: &Type,
        a: &ScalarVal,
        b: &ScalarVal,
    ) -> Result<ScalarVal, Unsupported> {
        let ctx = self.ctx();
        let Type::Float(k) = ty else {
            return unsupported("floating op on non-float type");
        };
        let mut poison = ctx.or(a.poison, b.poison);
        if fmf.nnan {
            let bad = ctx.or(
                float::is_nan(ctx, a.value, *k),
                float::is_nan(ctx, b.value, *k),
            );
            poison = ctx.or(poison, bad);
        }
        if fmf.ninf {
            let bad = ctx.or(
                float::is_inf(ctx, a.value, *k),
                float::is_inf(ctx, b.value, *k),
            );
            poison = ctx.or(poison, bad);
        }
        let value = match op {
            FBinOpKind::FAdd => float::fadd(ctx, a.value, b.value, *k),
            FBinOpKind::FSub => float::fsub(ctx, a.value, b.value, *k),
            FBinOpKind::FMul => float::fmul(ctx, a.value, b.value, *k),
            FBinOpKind::FDiv | FBinOpKind::FRem => {
                // Over-approximated per §3.8: a shared uninterpreted
                // function keeps identical operations relatable across
                // src/tgt, and the result is tagged so counterexamples that
                // depend on it are suppressed.
                let name = format!(
                    "{}.{}",
                    if op == FBinOpKind::FDiv {
                        "fdiv"
                    } else {
                        "frem"
                    },
                    k.bits()
                );
                let v = self.uf_overapprox(&name, &[a.value, b.value], k.bits());
                v
            }
        };
        let mut r = ScalarVal {
            value,
            poison,
            undef_vars: a.undef_vars.union(&b.undef_vars).copied().collect(),
        };
        self.apply_fmf(fmf, *k, &mut r);
        Ok(r)
    }

    /// A shared-by-name uninterpreted function application, recorded as an
    /// over-approximation (§3.8). The UF is resolved through the shared
    /// environment cache so source and target see the same symbol.
    fn uf_overapprox(&mut self, name: &str, args: &[TermId], ret_w: u32) -> TermId {
        let ctx = self.ctx();
        let key = format!("__uf_{name}");
        let fid = self.uf_cache(&key, args, ret_w);
        let t = ctx.apply(fid, args);
        alive2_obs::stats::record_approx();
        self.overapprox.push(t);
        t
    }

    fn uf_cache(&mut self, key: &str, args: &[TermId], ret_w: u32) -> FuncId {
        let ctx = self.ctx();
        let sorts: Vec<Sort> = args.iter().map(|&a| ctx.sort(a)).collect();
        let full_key = format!("{key}:{sorts:?}");
        let mut cache = self.env.uf_cache.borrow_mut();
        if let Some(f) = cache.get(&full_key) {
            return *f;
        }
        let f = ctx.func(key, &sorts, Sort::BitVec(ret_w));
        cache.insert(full_key, f);
        f
    }

    fn cast(
        &mut self,
        kind: CastKind,
        from_ty: &Type,
        to_ty: &Type,
        a: &SymValue,
    ) -> Result<SymValue, Unsupported> {
        // Element-wise over vectors.
        if from_ty.is_vector() {
            let fe = from_ty.elem_type().clone();
            let te = if to_ty.is_vector() {
                to_ty.elem_type().clone()
            } else {
                return unsupported("vector cast to scalar");
            };
            let mut out = Vec::new();
            for lane in a.as_aggregate().iter() {
                out.push(self.cast(kind, &fe, &te, lane)?);
            }
            return Ok(SymValue::Aggregate(out));
        }
        let ctx = self.ctx();
        let s = a.as_scalar().clone();
        let to_w = width_of(to_ty, &self.env.cfg);
        let v = match kind {
            CastKind::Trunc => ctx.trunc(s.value, to_w),
            CastKind::ZExt => ctx.zext(s.value, to_w),
            CastKind::SExt => ctx.sext(s.value, to_w),
            CastKind::BitCast => {
                match (from_ty, to_ty) {
                    (Type::Float(k), Type::Int(_)) => {
                        // NaN patterns are not preserved: a NaN bit-casts to
                        // a non-deterministic NaN pattern (§3.5).
                        let nanv = ctx.var("nan_pattern", Sort::BitVec(k.bits()));
                        self.nondet.push(nanv);
                        self.pre_parts.push(float::is_nan_pattern(ctx, nanv, *k));
                        let isnan = float::is_nan(ctx, s.value, *k);
                        ctx.ite(isnan, nanv, s.value)
                    }
                    (Type::Int(_), Type::Float(_)) => s.value,
                    (a2, b2) if a2 == b2 => s.value,
                    (Type::Ptr, _) | (_, Type::Ptr) => {
                        return unsupported("pointer/integer casts are unsupported")
                    }
                    _ => {
                        if width_of(from_ty, &self.env.cfg) == to_w {
                            s.value
                        } else {
                            return unsupported("bitcast between different widths");
                        }
                    }
                }
            }
            CastKind::FPTrunc
            | CastKind::FPExt
            | CastKind::FPToUI
            | CastKind::FPToSI
            | CastKind::UIToFP
            | CastKind::SIToFP => {
                // Over-approximated (§3.8): shared UF by (op, widths).
                let name = format!(
                    "{}.{}.{}",
                    kind.mnemonic(),
                    width_of(from_ty, &self.env.cfg),
                    to_w
                );
                self.uf_overapprox(&name, &[s.value], to_w)
            }
        };
        Ok(SymValue::Scalar(ScalarVal {
            value: v,
            poison: s.poison,
            undef_vars: s.undef_vars,
        }))
    }

    fn gep(
        &mut self,
        inbounds: bool,
        elem_ty: &Type,
        base: &SymValue,
        indices: &[(Type, Operand)],
    ) -> Result<SymValue, Unsupported> {
        let ctx = self.ctx();
        let cfg = self.env.cfg;
        let bs = base.as_scalar().clone();
        let mut off = self.mem.off_of(ctx, bs.value);
        let bid = self.mem.bid_of(ctx, bs.value);
        let mut poison = bs.poison;
        let mut undef_vars = bs.undef_vars.clone();
        let mut cur_ty = elem_ty.clone();
        for (pos, (ity, iop)) in indices.iter().enumerate() {
            let iv = self.operand(iop, ity)?;
            let is = iv.as_scalar();
            poison = ctx.or(poison, is.poison);
            undef_vars.extend(is.undef_vars.iter().copied());
            let idx = fit_width_signed(ctx, is.value, cfg.off_bits);
            if pos == 0 {
                let scale = ctx.bv_lit_u64(cfg.off_bits, elem_ty.byte_size());
                off = ctx.bv_add(off, ctx.bv_mul(idx, scale));
            } else {
                match &cur_ty {
                    Type::Array(_, t) | Type::Vector(_, t) => {
                        let scale = ctx.bv_lit_u64(cfg.off_bits, t.byte_size());
                        off = ctx.bv_add(off, ctx.bv_mul(idx, scale));
                        cur_ty = (**t).clone();
                    }
                    Type::Struct(ts) => {
                        // Struct indices must be constants.
                        let Operand::Const(Constant::Int(ci)) = iop else {
                            return unsupported("non-constant struct GEP index");
                        };
                        let k = ci.to_u64() as usize;
                        let skip: u64 = ts[..k].iter().map(|t| t.byte_size()).sum();
                        off = ctx.bv_add(off, ctx.bv_lit_u64(cfg.off_bits, skip));
                        cur_ty = ts[k].clone();
                    }
                    other => return unsupported(format!("GEP index into non-aggregate {other}")),
                }
            }
        }
        let result = ctx.concat(bid, off);
        if inbounds {
            // Both base and result offsets must be within the block (§4).
            let base_ok = self.offset_in_block(bid, self.mem.off_of(ctx, bs.value));
            let res_ok = self.offset_in_block(bid, off);
            poison = ctx.or(poison, ctx.not(ctx.and(base_ok, res_ok)));
        }
        Ok(SymValue::Scalar(ScalarVal {
            value: result,
            poison,
            undef_vars,
        }))
    }

    /// Bool: `off <= size(bid)` for whichever block `bid` denotes.
    fn offset_in_block(&self, bid: TermId, off: TermId) -> TermId {
        let ctx = self.ctx();
        let mut cases = Vec::new();
        for (k, b) in self.mem.blocks.iter().enumerate() {
            let is_k = ctx.eq(bid, ctx.bv_lit_u64(self.env.cfg.bid_bits, k as u64));
            let ok = ctx.bv_ule(off, b.size);
            cases.push(ctx.and(is_k, ok));
        }
        ctx.or_many(&cases)
    }

    /// Stores a (possibly aggregate) value at `ptr`.
    fn store_value(
        &mut self,
        guard: TermId,
        ptr: TermId,
        ty: &Type,
        v: &SymValue,
    ) -> Result<(), Unsupported> {
        let ctx = self.ctx();
        match ty {
            Type::Vector(n, t) | Type::Array(n, t) => {
                let elems = v.as_aggregate();
                let esz = t.byte_size();
                for i in 0..*n {
                    let p = offset_ptr(ctx, &self.mem, ptr, (i as u64) * esz);
                    self.store_value(guard, p, t, &elems[i as usize])?;
                }
                Ok(())
            }
            Type::Struct(ts) => {
                let elems = v.as_aggregate();
                let mut delta = 0u64;
                for (i, t) in ts.iter().enumerate() {
                    let p = offset_ptr(ctx, &self.mem, ptr, delta);
                    self.store_value(guard, p, t, &elems[i])?;
                    delta += t.byte_size();
                }
                Ok(())
            }
            scalar => {
                let mut s = v.as_scalar().clone();
                if let Type::Float(k) = scalar {
                    // Stored NaNs take a non-deterministic bit pattern —
                    // the same §3.5 choice as float→int bitcast, keeping
                    // NaN payloads unobservable at float type.
                    let pat = ctx.var("nan_pattern", Sort::BitVec(k.bits()));
                    self.nondet.push(pat);
                    self.pre_parts.push(float::is_nan_pattern(ctx, pat, *k));
                    let isnan = float::is_nan(ctx, s.value, *k);
                    s.value = ctx.ite(isnan, pat, s.value);
                }
                let ub = self.mem.store_scalar(ctx, guard, ptr, scalar, &s);
                self.ub_parts.push(ub);
                Ok(())
            }
        }
    }

    fn load_value(
        &mut self,
        guard: TermId,
        ptr: TermId,
        ty: &Type,
    ) -> Result<SymValue, Unsupported> {
        let ctx = self.ctx();
        match ty {
            Type::Vector(n, t) | Type::Array(n, t) => {
                let esz = t.byte_size();
                let mut out = Vec::new();
                for i in 0..*n {
                    let p = offset_ptr(ctx, &self.mem, ptr, (i as u64) * esz);
                    out.push(self.load_value(guard, p, t)?);
                }
                Ok(SymValue::Aggregate(out))
            }
            Type::Struct(ts) => {
                let mut out = Vec::new();
                let mut delta = 0u64;
                for t in ts {
                    let p = offset_ptr(ctx, &self.mem, ptr, delta);
                    out.push(self.load_value(guard, p, t)?);
                    delta += t.byte_size();
                }
                Ok(SymValue::Aggregate(out))
            }
            scalar => {
                let mut fresh = Vec::new();
                let (s, ub) = self.mem.load_scalar(ctx, guard, ptr, scalar, &mut fresh);
                self.nondet.extend(fresh);
                self.ub_parts.push(ub);
                Ok(SymValue::Scalar(s))
            }
        }
    }

    fn call(
        &mut self,
        guard: TermId,
        ty: &Type,
        callee: &str,
        args: &[(Type, Operand, ParamAttrs)],
        result: &Option<String>,
    ) -> Result<TermId, Unsupported> {
        let ctx = self.ctx();
        // Supported intrinsics get precise semantics.
        if let Some(kind) = intrinsic_kind(callee) {
            return self.intrinsic(guard, kind, ty, args, result);
        }
        // Collect flattened arg values.
        let mut arg_values = Vec::new();
        let mut arg_poisons = Vec::new();
        let mut arg_undef = false;
        for (t, op, attrs) in args {
            let v = self.operand(op, t)?;
            let flat = v.flatten(ctx);
            if attrs.noundef {
                self.ub_parts.push(ctx.and(guard, flat.poison));
            }
            if attrs.nonnull {
                if let Type::Ptr = t {
                    let isnull = ctx.eq(flat.value, self.mem.null(ctx));
                    self.ub_parts.push(ctx.and(guard, isnull));
                }
            }
            arg_undef |= !flat.undef_vars.is_empty();
            arg_values.push(flat.value);
            arg_poisons.push(flat.poison);
        }
        let _ = arg_undef;

        let lf = libfunc(callee);
        let decl = self.env.module.declare(callee);

        // Allocators create a fresh heap block.
        if let Some(l) = lf {
            if l.allocator && !l.deallocator {
                let cfg = self.env.cfg;
                let size = if arg_values.is_empty() {
                    ctx.bv_lit_u64(cfg.off_bits, 0)
                } else {
                    fit_width(ctx, arg_values[0], cfg.off_bits)
                };
                let bid = self.mem.add_block(BlockInfo {
                    kind: BlockKind::Heap,
                    size,
                    read_only: false,
                    allocated: guard,
                    freed: ctx.fals(),
                    init: None,
                    name: format!("{callee}#{}", self.calls.len()),
                });
                let ok_ptr = self.mem.ptr(ctx, bid, ctx.bv_lit_u64(cfg.off_bits, 0));
                // Allocation may fail: the result is non-deterministically
                // null.
                let fail = ctx.var("alloc_fail", Sort::Bool);
                self.nondet.push(fail);
                let v = ctx.ite(fail, self.mem.null(ctx), ok_ptr);
                self.def(result, SymValue::Scalar(ScalarVal::defined(v, ctx)));
                return Ok(guard);
            }
            if l.deallocator && callee == "free" {
                let p = arg_values[0];
                let ub = self.mem.free(ctx, guard, p);
                self.ub_parts.push(ub);
                return Ok(guard);
            }
        }

        // Attributes of the callee.
        let (noreturn, mem_effect, willreturn) = if let Some(l) = lf {
            (l.noreturn, l.mem, l.willreturn)
        } else if let Some(d) = decl {
            let me = if d.attrs.readnone {
                MemEffect::None
            } else if d.attrs.readonly {
                MemEffect::ReadOnly
            } else {
                MemEffect::ReadWrite
            };
            (d.attrs.noreturn, me, d.attrs.willreturn)
        } else {
            (false, MemEffect::ReadWrite, false)
        };
        let _ = willreturn;
        let writes_mem = matches!(mem_effect, MemEffect::ReadWrite | MemEffect::ArgMemOnly);

        let match_class = lf
            .and_then(|l| l.io_class)
            .map(|c| format!("class:{c}"))
            .unwrap_or_else(|| callee.to_string());
        let seq = {
            let e = self.class_seq.entry(match_class.clone()).or_insert(0);
            let s = *e;
            *e += 1;
            s
        };

        // Fresh outputs (§6): value, poison, UB.
        let mut fresh_vars = Vec::new();
        let (ret_value, ret_poison) = if *ty == Type::Void {
            (None, None)
        } else {
            let w = width_of(ty, &self.env.cfg);
            let v = ctx.var(&format!("call_{callee}_{seq}"), Sort::BitVec(w));
            let p = ctx.var(&format!("call_{callee}_{seq}_poison"), Sort::Bool);
            fresh_vars.push(v);
            fresh_vars.push(p);
            (Some(v), Some(p))
        };
        let ub_var = ctx.var(&format!("call_{callee}_{seq}_ub"), Sort::Bool);
        fresh_vars.push(ub_var);
        self.ub_parts.push(ctx.and(guard, ub_var));

        // Memory effects: havoc shared memory through a per-(class, seq) UF
        // so unchanged call sequences still match across src/tgt; results
        // remain tagged over-approximations (§3.8).
        if writes_mem {
            let byte_w = 20 + self.env.cfg.ptr_bits();
            let hv = self.uf_cache(
                &format!("havoc_{match_class}_{seq}"),
                &[self.mem.null(ctx)],
                byte_w,
            );
            self.mem.havoc_shared(guard, hv);
            let probe = ctx.apply(hv, &[self.mem.null(ctx)]);
            alive2_obs::stats::record_approx();
            self.overapprox.push(probe);
        }

        if let (Some(v), Some(p)) = (ret_value, ret_poison) {
            // Unknown intrinsics are over-approximations (§3.8); plain
            // function calls are handled exactly by the §6 call relation.
            if is_intrinsic(callee) {
                alive2_obs::stats::record_approx();
                self.overapprox.push(v);
            }
            self.def(
                result,
                unflatten(
                    ctx,
                    &self.env.cfg,
                    ty,
                    &ScalarVal {
                        value: v,
                        poison: p,
                        undef_vars: Default::default(),
                    },
                ),
            );
        }

        self.call_nondet.extend(fresh_vars.iter().copied());
        self.calls.push(CallSite {
            callee: callee.to_string(),
            match_class,
            guard,
            arg_values,
            arg_poisons,
            ret_value,
            ret_poison,
            ub_var,
            writes_mem,
            seq,
            fresh_vars,
        });

        if noreturn {
            self.noret_parts.push(guard);
            // Execution does not continue past a no-return call.
            return Ok(ctx.fals());
        }
        Ok(guard)
    }

    fn intrinsic(
        &mut self,
        guard: TermId,
        kind: IntrinsicKind,
        ty: &Type,
        args: &[(Type, Operand, ParamAttrs)],
        result: &Option<String>,
    ) -> Result<TermId, Unsupported> {
        let ctx = self.ctx();
        use IntrinsicKind::*;
        let get = |i: usize, s: &mut Self| -> Result<SymValue, Unsupported> {
            let (t, op, _) = &args[i];
            s.operand(op, t)
        };
        match kind {
            Assume => {
                let c = get(0, self)?;
                let cs = c.as_scalar();
                let holds = ctx.bv1_to_bool(cs.value);
                let bad = ctx.or(cs.poison, ctx.not(holds));
                self.ub_parts.push(ctx.and(guard, bad));
                Ok(guard)
            }
            Trap => {
                self.ub_parts.push(guard);
                Ok(ctx.fals())
            }
            Lifetime => Ok(guard),
            Expect => {
                let v = get(0, self)?;
                self.def(result, v);
                Ok(guard)
            }
            Fabs => {
                let v = get(0, self)?;
                let Type::Float(k) = ty.scalar_type() else {
                    return unsupported("fabs on non-float");
                };
                let s = v.as_scalar();
                self.def(
                    result,
                    SymValue::Scalar(ScalarVal {
                        value: float::fabs(ctx, s.value, *k),
                        poison: s.poison,
                        undef_vars: s.undef_vars.clone(),
                    }),
                );
                Ok(guard)
            }
            SMax | SMin | UMax | UMin => {
                let a = get(0, self)?;
                let b = get(1, self)?;
                let v = self.map_lanes2(ty, &a, &b, |enc, x, y| {
                    let ctx = enc.ctx();
                    let c = match kind {
                        SMax => ctx.bv_sgt(x.value, y.value),
                        SMin => ctx.bv_slt(x.value, y.value),
                        UMax => ctx.bv_ugt(x.value, y.value),
                        _ => ctx.bv_ult(x.value, y.value),
                    };
                    Ok(ScalarVal {
                        value: ctx.ite(c, x.value, y.value),
                        poison: ctx.or(x.poison, y.poison),
                        undef_vars: x.undef_vars.union(&y.undef_vars).copied().collect(),
                    })
                })?;
                self.def(result, v);
                Ok(guard)
            }
            Abs => {
                let a = get(0, self)?;
                let poison_on_min = match &args[1].1 {
                    Operand::Const(Constant::Int(v)) => v.is_one(),
                    _ => false,
                };
                let v = self.map_lanes1(ty, &a, |enc, x| {
                    let ctx = enc.ctx();
                    let w = ctx.sort(x.value).width();
                    let zero = ctx.bv_lit_u64(w, 0);
                    let neg = ctx.bv_slt(x.value, zero);
                    let mut poison = x.poison;
                    if poison_on_min {
                        let int_min = ctx.bv_lit(BitVec::min_signed(w));
                        poison = ctx.or(poison, ctx.eq(x.value, int_min));
                    }
                    Ok(ScalarVal {
                        value: ctx.ite(neg, ctx.bv_neg(x.value), x.value),
                        poison,
                        undef_vars: x.undef_vars.clone(),
                    })
                })?;
                self.def(result, v);
                Ok(guard)
            }
            Ctpop | Ctlz | Cttz | Bswap | Bitreverse => {
                let a = get(0, self)?;
                let zero_poison = match kind {
                    Ctlz | Cttz => match args.get(1).map(|x| &x.1) {
                        Some(Operand::Const(Constant::Int(v))) => v.is_one(),
                        _ => false,
                    },
                    _ => false,
                };
                let v = self.map_lanes1(ty, &a, |enc, x| {
                    let ctx = enc.ctx();
                    let w = ctx.sort(x.value).width();
                    let value = bit_count_term(ctx, kind, x.value, w);
                    let mut poison = x.poison;
                    if zero_poison {
                        poison = ctx.or(poison, ctx.eq(x.value, ctx.bv_lit_u64(w, 0)));
                    }
                    Ok(ScalarVal {
                        value,
                        poison,
                        undef_vars: x.undef_vars.clone(),
                    })
                })?;
                self.def(result, v);
                Ok(guard)
            }
            Fshl | Fshr => {
                let a = get(0, self)?;
                let b = get(1, self)?;
                let c = get(2, self)?;
                let sa = a.as_scalar();
                let sb = b.as_scalar();
                let sc = c.as_scalar();
                let w = ctx.sort(sa.value).width();
                let cc = ctx.concat(sa.value, sb.value);
                let amt = ctx.bv_urem(sc.value, ctx.bv_lit_u64(w, w as u64));
                let amt2 = ctx.zext(amt, 2 * w);
                let shifted = if kind == Fshl {
                    let sh = ctx.bv_shl(cc, amt2);
                    ctx.extract(sh, 2 * w - 1, w)
                } else {
                    let sh = ctx.bv_lshr(cc, amt2);
                    ctx.trunc(sh, w)
                };
                let poison = ctx.or_many(&[sa.poison, sb.poison, sc.poison]);
                let mut undef = sa.undef_vars.clone();
                undef.extend(&sb.undef_vars);
                undef.extend(&sc.undef_vars);
                self.def(
                    result,
                    SymValue::Scalar(ScalarVal {
                        value: shifted,
                        poison,
                        undef_vars: undef,
                    }),
                );
                Ok(guard)
            }
            SAddSat | UAddSat | SSubSat | USubSat => {
                let a = get(0, self)?;
                let b = get(1, self)?;
                let v = self.map_lanes2(ty, &a, &b, |enc, x, y| {
                    let ctx = enc.ctx();
                    let w = ctx.sort(x.value).width();
                    let value = saturating_term(ctx, kind, x.value, y.value, w);
                    Ok(ScalarVal {
                        value,
                        poison: ctx.or(x.poison, y.poison),
                        undef_vars: x.undef_vars.union(&y.undef_vars).copied().collect(),
                    })
                })?;
                self.def(result, v);
                Ok(guard)
            }
            SAddWithOverflow | UAddWithOverflow | SSubWithOverflow | USubWithOverflow
            | SMulWithOverflow | UMulWithOverflow => {
                let a = get(0, self)?;
                let b = get(1, self)?;
                let x = a.as_scalar();
                let y = b.as_scalar();
                let w = ctx.sort(x.value).width();
                let (value, ovf) = overflow_term(ctx, kind, x.value, y.value, w);
                let poison = ctx.or(x.poison, y.poison);
                let undef: std::collections::BTreeSet<_> =
                    x.undef_vars.union(&y.undef_vars).copied().collect();
                let agg = SymValue::Aggregate(vec![
                    SymValue::Scalar(ScalarVal {
                        value,
                        poison,
                        undef_vars: undef.clone(),
                    }),
                    SymValue::Scalar(ScalarVal {
                        value: ctx.bool_to_bv1(ovf),
                        poison,
                        undef_vars: undef,
                    }),
                ]);
                self.def(result, agg);
                Ok(guard)
            }
        }
    }
}

/// Poison value of a type.
fn poison_value(ctx: &Ctx, cfg: &EncodeConfig, ty: &Type) -> SymValue {
    match ty {
        Type::Vector(n, t) | Type::Array(n, t) => {
            SymValue::Aggregate((0..*n).map(|_| poison_value(ctx, cfg, t)).collect())
        }
        Type::Struct(ts) => {
            SymValue::Aggregate(ts.iter().map(|t| poison_value(ctx, cfg, t)).collect())
        }
        scalar => SymValue::Scalar(ScalarVal::poison(ctx, width_of(scalar, cfg))),
    }
}

/// Marks every scalar of `v` poison when `p` holds.
fn taint_poison(ctx: &Ctx, v: &SymValue, p: TermId) -> SymValue {
    match v {
        SymValue::Scalar(s) => SymValue::Scalar(ScalarVal {
            value: s.value,
            poison: ctx.or(s.poison, p),
            undef_vars: s.undef_vars.clone(),
        }),
        SymValue::Aggregate(vs) => {
            SymValue::Aggregate(vs.iter().map(|x| taint_poison(ctx, x, p)).collect())
        }
    }
}

/// Rebuilds a (possibly aggregate) symbolic value from a flattened scalar.
fn unflatten(ctx: &Ctx, cfg: &EncodeConfig, ty: &Type, s: &ScalarVal) -> SymValue {
    match ty {
        Type::Vector(n, t) | Type::Array(n, t) => {
            let ew = width_of(t, cfg);
            let mut out = Vec::new();
            for i in 0..*n {
                // First element occupies the highest bits (§3.1).
                let hi = (n - i) * ew - 1;
                let lo = (n - i - 1) * ew;
                let part = ctx.extract(s.value, hi, lo);
                out.push(unflatten(
                    ctx,
                    cfg,
                    t,
                    &ScalarVal {
                        value: part,
                        poison: s.poison,
                        undef_vars: s.undef_vars.clone(),
                    },
                ));
            }
            SymValue::Aggregate(out)
        }
        Type::Struct(ts) => {
            let total: u32 = ts.iter().map(|t| width_of(t, cfg)).sum();
            let mut out = Vec::new();
            let mut used = 0;
            for t in ts {
                let ew = width_of(t, cfg);
                let hi = total - used - 1;
                let lo = total - used - ew;
                let part = ctx.extract(s.value, hi, lo);
                out.push(unflatten(
                    ctx,
                    cfg,
                    t,
                    &ScalarVal {
                        value: part,
                        poison: s.poison,
                        undef_vars: s.undef_vars.clone(),
                    },
                ));
                used += ew;
            }
            SymValue::Aggregate(out)
        }
        _ => SymValue::Scalar(s.clone()),
    }
}

fn offset_ptr(ctx: &Ctx, mem: &SymMemory, ptr: TermId, delta: u64) -> TermId {
    let bid = mem.bid_of(ctx, ptr);
    let off = mem.off_of(ctx, ptr);
    let off2 = ctx.bv_add(off, ctx.bv_lit_u64(mem.cfg.off_bits, delta));
    ctx.concat(bid, off2)
}

/// Zero-extends or truncates to `w`.
fn fit_width(ctx: &Ctx, t: TermId, w: u32) -> TermId {
    let tw = ctx.sort(t).width();
    if tw < w {
        ctx.zext(t, w)
    } else {
        ctx.trunc(t, w)
    }
}

/// Sign-extends or truncates to `w`.
fn fit_width_signed(ctx: &Ctx, t: TermId, w: u32) -> TermId {
    let tw = ctx.sort(t).width();
    if tw < w {
        ctx.sext(t, w)
    } else {
        ctx.trunc(t, w)
    }
}

fn icmp_term(ctx: &Ctx, pred: ICmpPred, a: TermId, b: TermId) -> TermId {
    match pred {
        ICmpPred::Eq => ctx.eq(a, b),
        ICmpPred::Ne => ctx.ne(a, b),
        ICmpPred::Ugt => ctx.bv_ugt(a, b),
        ICmpPred::Uge => ctx.bv_uge(a, b),
        ICmpPred::Ult => ctx.bv_ult(a, b),
        ICmpPred::Ule => ctx.bv_ule(a, b),
        ICmpPred::Sgt => ctx.bv_sgt(a, b),
        ICmpPred::Sge => ctx.bv_sge(a, b),
        ICmpPred::Slt => ctx.bv_slt(a, b),
        ICmpPred::Sle => ctx.bv_sle(a, b),
    }
}

fn bit_count_term(ctx: &Ctx, kind: IntrinsicKind, v: TermId, w: u32) -> TermId {
    use IntrinsicKind::*;
    match kind {
        Ctpop => {
            let mut acc = ctx.bv_lit_u64(w, 0);
            for i in 0..w {
                let b = ctx.extract(v, i, i);
                acc = ctx.bv_add(acc, ctx.zext(b, w));
            }
            acc
        }
        Ctlz => {
            let mut acc = ctx.bv_lit_u64(w, w as u64);
            for i in 0..w {
                let b = ctx.eq(ctx.extract(v, i, i), ctx.bv_lit_u64(1, 1));
                acc = ctx.ite(b, ctx.bv_lit_u64(w, (w - 1 - i) as u64), acc);
            }
            acc
        }
        Cttz => {
            let mut acc = ctx.bv_lit_u64(w, w as u64);
            for i in (0..w).rev() {
                let b = ctx.eq(ctx.extract(v, i, i), ctx.bv_lit_u64(1, 1));
                acc = ctx.ite(b, ctx.bv_lit_u64(w, i as u64), acc);
            }
            acc
        }
        Bswap => {
            let n = w / 8;
            let parts: Vec<TermId> = (0..n).map(|i| ctx.extract(v, i * 8 + 7, i * 8)).collect();
            ctx.concat_many(&parts)
        }
        Bitreverse => {
            let parts: Vec<TermId> = (0..w).map(|i| ctx.extract(v, i, i)).collect();
            ctx.concat_many(&parts)
        }
        _ => unreachable!(),
    }
}

fn saturating_term(ctx: &Ctx, kind: IntrinsicKind, x: TermId, y: TermId, w: u32) -> TermId {
    use IntrinsicKind::*;
    match kind {
        UAddSat => {
            let wide = ctx.bv_add(ctx.zext(x, w + 1), ctx.zext(y, w + 1));
            let ovf = ctx.eq(ctx.extract(wide, w, w), ctx.bv_lit_u64(1, 1));
            ctx.ite(ovf, ctx.bv_lit(BitVec::all_ones(w)), ctx.trunc(wide, w))
        }
        USubSat => {
            let under = ctx.bv_ult(x, y);
            ctx.ite(under, ctx.bv_lit_u64(w, 0), ctx.bv_sub(x, y))
        }
        SAddSat | SSubSat => {
            let wide = if kind == SAddSat {
                ctx.bv_add(ctx.sext(x, w + 1), ctx.sext(y, w + 1))
            } else {
                ctx.bv_sub(ctx.sext(x, w + 1), ctx.sext(y, w + 1))
            };
            let narrow = ctx.sext(ctx.trunc(wide, w), w + 1);
            let ovf = ctx.ne(wide, narrow);
            let neg = ctx.bv_slt(wide, ctx.bv_lit_u64(w + 1, 0));
            let sat = ctx.ite(
                neg,
                ctx.bv_lit(BitVec::min_signed(w)),
                ctx.bv_lit(BitVec::max_signed(w)),
            );
            ctx.ite(ovf, sat, ctx.trunc(wide, w))
        }
        _ => unreachable!(),
    }
}

fn overflow_term(ctx: &Ctx, kind: IntrinsicKind, x: TermId, y: TermId, w: u32) -> (TermId, TermId) {
    use IntrinsicKind::*;
    match kind {
        SAddWithOverflow | SSubWithOverflow => {
            let wide = if kind == SAddWithOverflow {
                ctx.bv_add(ctx.sext(x, w + 1), ctx.sext(y, w + 1))
            } else {
                ctx.bv_sub(ctx.sext(x, w + 1), ctx.sext(y, w + 1))
            };
            let narrow = ctx.sext(ctx.trunc(wide, w), w + 1);
            (ctx.trunc(wide, w), ctx.ne(wide, narrow))
        }
        UAddWithOverflow => {
            let wide = ctx.bv_add(ctx.zext(x, w + 1), ctx.zext(y, w + 1));
            let c = ctx.eq(ctx.extract(wide, w, w), ctx.bv_lit_u64(1, 1));
            (ctx.trunc(wide, w), c)
        }
        USubWithOverflow => (ctx.bv_sub(x, y), ctx.bv_ult(x, y)),
        SMulWithOverflow => {
            let wide = ctx.bv_mul(ctx.sext(x, 2 * w), ctx.sext(y, 2 * w));
            let narrow = ctx.sext(ctx.trunc(wide, w), 2 * w);
            (ctx.trunc(wide, w), ctx.ne(wide, narrow))
        }
        UMulWithOverflow => {
            let wide = ctx.bv_mul(ctx.zext(x, 2 * w), ctx.zext(y, 2 * w));
            let hi = ctx.extract(wide, 2 * w - 1, w);
            (ctx.trunc(wide, w), ctx.ne(hi, ctx.bv_lit_u64(w, 0)))
        }
        _ => unreachable!(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alive2_ir::parser::{parse_function, parse_module};
    use alive2_smt::model::{Model, Value};

    fn encode_src(src: &str) -> (Env, EncodedFn) {
        let m = parse_module(src).unwrap();
        let f = &m.functions[0];
        let env = Env::new(EncodeConfig::default(), &m, f).unwrap();
        let enc = encode_function(&env, f).unwrap();
        (env, enc)
    }

    /// Pins every scalar argument to a concrete, well-defined value.
    fn pin_args(env: &Env, model: &mut Model, vals: &[u64]) {
        let ctx = &env.ctx;
        let mut i = 0;
        for a in &env.args {
            for v in &a.vars {
                let w = ctx.sort(v.base).width();
                model.set(
                    ctx.as_var(v.base).unwrap(),
                    Value::Bv(alive2_smt::bv::BitVec::from_u64(w, vals[i])),
                );
                model.set(ctx.as_var(v.isundef).unwrap(), Value::Bool(false));
                model.set(ctx.as_var(v.ispoison).unwrap(), Value::Bool(false));
                i += 1;
            }
        }
    }

    #[test]
    fn encodes_identity() {
        let (env, enc) = encode_src("define i32 @id(i32 %x) {\nentry:\n  ret i32 %x\n}");
        let mut m = Model::new();
        pin_args(&env, &mut m, &[42]);
        let ret = enc.ret.as_ref().unwrap().as_scalar();
        assert_eq!(m.eval_bv(&env.ctx, ret.value).to_u64(), 42);
        assert!(!m.eval_bool(&env.ctx, ret.poison));
        assert!(!m.eval_bool(&env.ctx, enc.ub));
        assert!(m.eval_bool(&env.ctx, enc.returns));
    }

    #[test]
    fn encodes_paper_figure_1() {
        let (env, enc) = encode_src(
            r#"define i32 @fn(i32 %a, i32 %b) {
entry:
  %t = add i32 %a, %a
  %c = icmp eq i32 %t, 0
  br i1 %c, label %then, label %else
then:
  %q = shl i32 %a, 2
  ret i32 %q
else:
  %r = and i32 %b, 1
  ret i32 %r
}"#,
        );
        let ctx = &env.ctx;
        let ret = enc.ret.as_ref().unwrap().as_scalar();
        // a = 0 takes the then branch: result = 0 << 2 = 0.
        let mut m = Model::new();
        pin_args(&env, &mut m, &[0, 7]);
        assert_eq!(m.eval_bv(ctx, ret.value).to_u64(), 0);
        // a = 3 takes else: result = b & 1.
        let mut m2 = Model::new();
        pin_args(&env, &mut m2, &[3, 7]);
        assert_eq!(m2.eval_bv(ctx, ret.value).to_u64(), 1);
        assert!(!m2.eval_bool(ctx, enc.ub));
    }

    #[test]
    fn division_by_zero_is_ub() {
        let (env, enc) = encode_src(
            "define i32 @f(i32 %a, i32 %b) {\nentry:\n  %r = udiv i32 %a, %b\n  ret i32 %r\n}",
        );
        let mut m = Model::new();
        pin_args(&env, &mut m, &[10, 0]);
        assert!(m.eval_bool(&env.ctx, enc.ub));
        let mut m2 = Model::new();
        pin_args(&env, &mut m2, &[10, 2]);
        assert!(!m2.eval_bool(&env.ctx, enc.ub));
        assert_eq!(
            m2.eval_bv(&env.ctx, enc.ret.as_ref().unwrap().as_scalar().value)
                .to_u64(),
            5
        );
    }

    #[test]
    fn nsw_overflow_is_poison_not_ub() {
        let (env, enc) =
            encode_src("define i8 @f(i8 %a) {\nentry:\n  %r = add nsw i8 %a, 100\n  ret i8 %r\n}");
        let ret = enc.ret.as_ref().unwrap().as_scalar();
        let mut m = Model::new();
        pin_args(&env, &mut m, &[100]); // 100 + 100 overflows signed i8
        assert!(m.eval_bool(&env.ctx, ret.poison));
        assert!(!m.eval_bool(&env.ctx, enc.ub));
        let mut m2 = Model::new();
        pin_args(&env, &mut m2, &[1]);
        assert!(!m2.eval_bool(&env.ctx, ret.poison));
    }

    #[test]
    fn branch_on_poison_is_ub() {
        let (env, enc) = encode_src(
            r#"define i32 @f(i8 %a) {
entry:
  %p = add nuw i8 %a, 1
  %c = icmp eq i8 %p, 0
  br i1 %c, label %x, label %y
x:
  ret i32 1
y:
  ret i32 2
}"#,
        );
        // a = 255 makes %p poison (nuw overflow); branching on it is UB.
        let mut m = Model::new();
        pin_args(&env, &mut m, &[255]);
        assert!(m.eval_bool(&env.ctx, enc.ub));
        let mut m2 = Model::new();
        pin_args(&env, &mut m2, &[1]);
        assert!(!m2.eval_bool(&env.ctx, enc.ub));
    }

    #[test]
    fn memory_round_trip_through_alloca() {
        let (env, enc) = encode_src(
            r#"define i32 @f(i32 %x) {
entry:
  %p = alloca i32
  store i32 %x, ptr %p
  %v = load i32, ptr %p
  ret i32 %v
}"#,
        );
        let mut m = Model::new();
        pin_args(&env, &mut m, &[0xabcd]);
        let ret = enc.ret.as_ref().unwrap().as_scalar();
        assert_eq!(m.eval_bv(&env.ctx, ret.value).to_u64(), 0xabcd);
        assert!(!m.eval_bool(&env.ctx, enc.ub));
    }

    #[test]
    fn loop_sum_unrolls_and_bounds_via_pre() {
        let (env, enc) = encode_src(
            r#"define i32 @sum(i32 %n) {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %i1, %body ]
  %acc = phi i32 [ 0, %entry ], [ %acc1, %body ]
  %c = icmp ult i32 %i, %n
  br i1 %c, label %body, label %exit
body:
  %acc1 = add i32 %acc, %i
  %i1 = add i32 %i, 1
  br label %head
exit:
  ret i32 %acc
}"#,
        );
        let ctx = &env.ctx;
        // The default factor (2) allows two header executions, i.e. n <= 1.
        let mut m = Model::new();
        pin_args(&env, &mut m, &[1]);
        let ret = enc.ret.as_ref().unwrap().as_scalar();
        assert_eq!(m.eval_bv(ctx, ret.value).to_u64(), 0);
        assert!(m.eval_bool(ctx, enc.pre), "n=1 fits in the bound");
        // n = 50 exceeds the bound: the precondition excludes this input.
        let mut m2 = Model::new();
        pin_args(&env, &mut m2, &[50]);
        assert!(!m2.eval_bool(ctx, enc.pre));
    }

    #[test]
    fn loop_sum_with_larger_unroll_factor() {
        let src = r#"define i32 @sum(i32 %n) {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %i1, %body ]
  %acc = phi i32 [ 0, %entry ], [ %acc1, %body ]
  %c = icmp ult i32 %i, %n
  br i1 %c, label %body, label %exit
body:
  %acc1 = add i32 %acc, %i
  %i1 = add i32 %i, 1
  br label %head
exit:
  ret i32 %acc
}"#;
        let m0 = parse_module(src).unwrap();
        let f = &m0.functions[0];
        let env = Env::new(EncodeConfig::with_unroll(6), &m0, f).unwrap();
        let enc = encode_function(&env, f).unwrap();
        let ctx = &env.ctx;
        // Factor 6 allows up to five loop iterations: sum(4) = 0+1+2+3 = 6.
        let mut m = Model::new();
        pin_args(&env, &mut m, &[4]);
        let ret = enc.ret.as_ref().unwrap().as_scalar();
        assert!(m.eval_bool(ctx, enc.pre), "n=4 fits in factor-6 bound");
        assert_eq!(m.eval_bv(ctx, ret.value).to_u64(), 6);
    }

    #[test]
    fn unreachable_is_ub() {
        let (env, enc) = encode_src(
            r#"define i32 @f(i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  unreachable
b:
  ret i32 0
}"#,
        );
        let mut m = Model::new();
        pin_args(&env, &mut m, &[1]);
        assert!(m.eval_bool(&env.ctx, enc.ub));
        let mut m2 = Model::new();
        pin_args(&env, &mut m2, &[0]);
        assert!(!m2.eval_bool(&env.ctx, enc.ub));
    }

    #[test]
    fn calls_are_recorded_with_fresh_outputs() {
        let (_env, enc) = encode_src(
            r#"declare i32 @g(i32)
define i32 @f(i32 %x) {
entry:
  %a = call i32 @g(i32 %x)
  %b = call i32 @g(i32 %x)
  %r = add i32 %a, %b
  ret i32 %r
}"#,
        );
        assert_eq!(enc.calls.len(), 2);
        assert_eq!(enc.calls[0].seq, 0);
        assert_eq!(enc.calls[1].seq, 1);
        assert!(enc.calls[0].ret_value.is_some());
        assert!(!enc.call_nondet.is_empty());
        // Unknown external calls may write memory -> havoc recorded.
        assert!(enc.calls[0].writes_mem);
        assert!(!enc.overapprox.is_empty());
    }

    #[test]
    fn intrinsics_with_overflow() {
        let (env, enc) = encode_src(
            r#"declare { i8, i1 } @llvm.sadd.with.overflow.i8(i8, i8)
define i8 @f(i8 %x) {
entry:
  %s = call { i8, i1 } @llvm.sadd.with.overflow.i8(i8 %x, i8 100)
  %v = extractvalue { i8, i1 } %s, 0
  %o = extractvalue { i8, i1 } %s, 1
  %r = select i1 %o, i8 0, i8 %v
  ret i8 %r
}"#,
        );
        let ctx = &env.ctx;
        let ret = enc.ret.as_ref().unwrap().as_scalar();
        let mut m = Model::new();
        pin_args(&env, &mut m, &[100]); // overflow -> select picks 0
        assert_eq!(m.eval_bv(ctx, ret.value).to_u64(), 0);
        let mut m2 = Model::new();
        pin_args(&env, &mut m2, &[10]);
        assert_eq!(m2.eval_bv(ctx, ret.value).to_u64(), 110);
        // A supported intrinsic must not be over-approximated.
        assert!(enc.calls.is_empty());
    }

    #[test]
    fn freeze_stops_undef_refresh() {
        let (env, enc) = encode_src(
            r#"define i8 @f() {
entry:
  %f = freeze i8 undef
  %r = sub i8 %f, %f
  ret i8 %r
}"#,
        );
        // freeze undef - freeze undef (same register) must be 0 regardless
        // of the arbitrary pick.
        let ret = enc.ret.as_ref().unwrap().as_scalar();
        let m = Model::new();
        assert_eq!(m.eval_bv(&env.ctx, ret.value).to_u64(), 0);
    }

    #[test]
    fn undef_add_may_differ_per_use() {
        let (env, enc) = encode_src(
            r#"define i8 @f() {
entry:
  %u = add i8 undef, 0
  %r = sub i8 %u, %u
  ret i8 %r
}"#,
        );
        // %u - %u with undef can be nonzero: the two uses refresh to
        // different variables, so the value term must mention at least two
        // distinct undef variables.
        let ret = enc.ret.as_ref().unwrap().as_scalar();
        let vars = env.ctx.free_vars(ret.value);
        assert!(vars.len() >= 2, "expected two fresh undef vars: {vars:?}");
    }

    #[test]
    fn mismatched_signature_is_unsupported() {
        let m1 = parse_module("define i32 @f(i32 %x) {\nentry:\n  ret i32 %x\n}").unwrap();
        let f1 = &m1.functions[0];
        let env = Env::new(EncodeConfig::default(), &m1, f1).unwrap();
        let other = parse_function("define i32 @f(i64 %x) {\nentry:\n  ret i32 0\n}").unwrap();
        assert!(encode_function(&env, &other).is_err());
    }

    #[test]
    fn global_load() {
        let (env, enc) = encode_src(
            r#"@g = constant i32 77
define i32 @f() {
entry:
  %v = load i32, ptr @g
  ret i32 %v
}"#,
        );
        let ret = enc.ret.as_ref().unwrap().as_scalar();
        let m = Model::new();
        assert_eq!(m.eval_bv(&env.ctx, ret.value).to_u64(), 77);
        assert!(!m.eval_bool(&env.ctx, enc.ub));
    }

    #[test]
    fn gep_inbounds_oob_is_poison() {
        let (env, enc) = encode_src(
            r#"@g = global [4 x i8] zeroinitializer
define ptr @f(i64 %i) {
entry:
  %p = getelementptr inbounds i8, ptr @g, i64 %i
  ret ptr %p
}"#,
        );
        let ctx = &env.ctx;
        let ret = enc.ret.as_ref().unwrap().as_scalar();
        let mut m = Model::new();
        pin_args(&env, &mut m, &[100]); // beyond size 4
        assert!(m.eval_bool(ctx, ret.poison));
        let mut m2 = Model::new();
        pin_args(&env, &mut m2, &[2]);
        assert!(!m2.eval_bool(ctx, ret.poison));
    }
}
