//! Instructions of the LLVM-style IR.

use crate::constant::Constant;
use crate::types::Type;
use alive2_smt::bv::BitVec;
use std::fmt;

/// An operand: a virtual register reference or an inline constant.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Operand {
    /// A reference to an SSA register by name (without the `%` sigil).
    Reg(String),
    /// An inline constant.
    Const(Constant),
}

impl Operand {
    /// A register operand.
    pub fn reg(name: impl Into<String>) -> Operand {
        Operand::Reg(name.into())
    }

    /// An integer-constant operand.
    pub fn int(width: u32, value: u64) -> Operand {
        Operand::Const(Constant::int(width, value))
    }

    /// The register name, if this is a register.
    pub fn as_reg(&self) -> Option<&str> {
        match self {
            Operand::Reg(r) => Some(r),
            Operand::Const(_) => None,
        }
    }

    /// The constant, if this is a constant.
    pub fn as_const(&self) -> Option<&Constant> {
        match self {
            Operand::Const(c) => Some(c),
            Operand::Reg(_) => None,
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "%{r}"),
            Operand::Const(c) => write!(f, "{c}"),
        }
    }
}

/// Integer binary operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOpKind {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned division (UB on zero divisor).
    UDiv,
    /// Signed division (UB on zero divisor or overflow).
    SDiv,
    /// Unsigned remainder (UB on zero divisor).
    URem,
    /// Signed remainder (UB on zero divisor or overflow).
    SRem,
    /// Shift left (poison on excessive shift amount).
    Shl,
    /// Logical shift right (poison on excessive shift amount).
    LShr,
    /// Arithmetic shift right (poison on excessive shift amount).
    AShr,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
}

impl BinOpKind {
    /// The LLVM mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOpKind::Add => "add",
            BinOpKind::Sub => "sub",
            BinOpKind::Mul => "mul",
            BinOpKind::UDiv => "udiv",
            BinOpKind::SDiv => "sdiv",
            BinOpKind::URem => "urem",
            BinOpKind::SRem => "srem",
            BinOpKind::Shl => "shl",
            BinOpKind::LShr => "lshr",
            BinOpKind::AShr => "ashr",
            BinOpKind::And => "and",
            BinOpKind::Or => "or",
            BinOpKind::Xor => "xor",
        }
    }

    /// True if the operator accepts `nsw`/`nuw` flags.
    pub fn supports_wrap_flags(self) -> bool {
        matches!(
            self,
            BinOpKind::Add | BinOpKind::Sub | BinOpKind::Mul | BinOpKind::Shl
        )
    }

    /// True for division/remainder (immediate UB on zero divisor).
    pub fn is_div_rem(self) -> bool {
        matches!(
            self,
            BinOpKind::UDiv | BinOpKind::SDiv | BinOpKind::URem | BinOpKind::SRem
        )
    }
}

/// Poison-generating flags on integer arithmetic (paper §2: deferred UB).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct WrapFlags {
    /// "no signed wrap": signed overflow yields poison.
    pub nsw: bool,
    /// "no unsigned wrap": unsigned overflow yields poison.
    pub nuw: bool,
    /// "exact": a nonzero remainder/shifted-out bit yields poison.
    pub exact: bool,
}

impl WrapFlags {
    /// No flags set.
    pub fn none() -> WrapFlags {
        WrapFlags::default()
    }

    /// Only `nsw`.
    pub fn nsw() -> WrapFlags {
        WrapFlags {
            nsw: true,
            ..Default::default()
        }
    }

    /// Only `nuw`.
    pub fn nuw() -> WrapFlags {
        WrapFlags {
            nuw: true,
            ..Default::default()
        }
    }
}

/// Floating-point binary operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FBinOpKind {
    /// Floating addition.
    FAdd,
    /// Floating subtraction.
    FSub,
    /// Floating multiplication.
    FMul,
    /// Floating division.
    FDiv,
    /// Floating remainder (C `fmod` rounding, paper §3.5).
    FRem,
}

impl FBinOpKind {
    /// The LLVM mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            FBinOpKind::FAdd => "fadd",
            FBinOpKind::FSub => "fsub",
            FBinOpKind::FMul => "fmul",
            FBinOpKind::FDiv => "fdiv",
            FBinOpKind::FRem => "frem",
        }
    }
}

/// Fast-math flags (subset relevant to the paper's findings).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct FastMathFlags {
    /// Assume no NaNs: a NaN operand or result is poison.
    pub nnan: bool,
    /// Assume no infinities: an infinite operand or result is poison.
    pub ninf: bool,
    /// "no signed zeros": the sign of a zero result is non-deterministic.
    pub nsz: bool,
}

impl FastMathFlags {
    /// No flags.
    pub fn none() -> FastMathFlags {
        FastMathFlags::default()
    }

    /// True if any flag is set.
    pub fn any(self) -> bool {
        self.nnan || self.ninf || self.nsz
    }
}

/// Integer comparison predicates.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ICmpPred {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Unsigned greater than.
    Ugt,
    /// Unsigned greater or equal.
    Uge,
    /// Unsigned less than.
    Ult,
    /// Unsigned less or equal.
    Ule,
    /// Signed greater than.
    Sgt,
    /// Signed greater or equal.
    Sge,
    /// Signed less than.
    Slt,
    /// Signed less or equal.
    Sle,
}

impl ICmpPred {
    /// The LLVM mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            ICmpPred::Eq => "eq",
            ICmpPred::Ne => "ne",
            ICmpPred::Ugt => "ugt",
            ICmpPred::Uge => "uge",
            ICmpPred::Ult => "ult",
            ICmpPred::Ule => "ule",
            ICmpPred::Sgt => "sgt",
            ICmpPred::Sge => "sge",
            ICmpPred::Slt => "slt",
            ICmpPred::Sle => "sle",
        }
    }

    /// The predicate with swapped operands (e.g. `ult` ↔ `ugt`).
    pub fn swapped(self) -> ICmpPred {
        match self {
            ICmpPred::Eq => ICmpPred::Eq,
            ICmpPred::Ne => ICmpPred::Ne,
            ICmpPred::Ugt => ICmpPred::Ult,
            ICmpPred::Uge => ICmpPred::Ule,
            ICmpPred::Ult => ICmpPred::Ugt,
            ICmpPred::Ule => ICmpPred::Uge,
            ICmpPred::Sgt => ICmpPred::Slt,
            ICmpPred::Sge => ICmpPred::Sle,
            ICmpPred::Slt => ICmpPred::Sgt,
            ICmpPred::Sle => ICmpPred::Sge,
        }
    }

    /// The logical negation of the predicate.
    pub fn inverse(self) -> ICmpPred {
        match self {
            ICmpPred::Eq => ICmpPred::Ne,
            ICmpPred::Ne => ICmpPred::Eq,
            ICmpPred::Ugt => ICmpPred::Ule,
            ICmpPred::Uge => ICmpPred::Ult,
            ICmpPred::Ult => ICmpPred::Uge,
            ICmpPred::Ule => ICmpPred::Ugt,
            ICmpPred::Sgt => ICmpPred::Sle,
            ICmpPred::Sge => ICmpPred::Slt,
            ICmpPred::Slt => ICmpPred::Sge,
            ICmpPred::Sle => ICmpPred::Sgt,
        }
    }

    /// Evaluates the predicate on concrete values.
    pub fn eval(self, a: &BitVec, b: &BitVec) -> bool {
        match self {
            ICmpPred::Eq => a == b,
            ICmpPred::Ne => a != b,
            ICmpPred::Ugt => b.ult(a),
            ICmpPred::Uge => b.ule(a),
            ICmpPred::Ult => a.ult(b),
            ICmpPred::Ule => a.ule(b),
            ICmpPred::Sgt => b.slt(a),
            ICmpPred::Sge => b.sle(a),
            ICmpPred::Slt => a.slt(b),
            ICmpPred::Sle => a.sle(b),
        }
    }
}

/// Floating-point comparison predicates (`o` = ordered, `u` = unordered).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[allow(missing_docs)]
pub enum FCmpPred {
    False,
    Oeq,
    Ogt,
    Oge,
    Olt,
    Ole,
    One,
    Ord,
    Ueq,
    Ugt,
    Uge,
    Ult,
    Ule,
    Une,
    Uno,
    True,
}

impl FCmpPred {
    /// The LLVM mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            FCmpPred::False => "false",
            FCmpPred::Oeq => "oeq",
            FCmpPred::Ogt => "ogt",
            FCmpPred::Oge => "oge",
            FCmpPred::Olt => "olt",
            FCmpPred::Ole => "ole",
            FCmpPred::One => "one",
            FCmpPred::Ord => "ord",
            FCmpPred::Ueq => "ueq",
            FCmpPred::Ugt => "ugt",
            FCmpPred::Uge => "uge",
            FCmpPred::Ult => "ult",
            FCmpPred::Ule => "ule",
            FCmpPred::Une => "une",
            FCmpPred::Uno => "uno",
            FCmpPred::True => "true",
        }
    }
}

/// Cast operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CastKind {
    /// Integer truncation.
    Trunc,
    /// Zero extension.
    ZExt,
    /// Sign extension.
    SExt,
    /// Bit-pattern reinterpretation (paper §3.5 discusses float↔int).
    BitCast,
    /// Float truncation to a narrower float.
    FPTrunc,
    /// Float extension to a wider float.
    FPExt,
    /// Float to unsigned integer.
    FPToUI,
    /// Float to signed integer.
    FPToSI,
    /// Unsigned integer to float.
    UIToFP,
    /// Signed integer to float.
    SIToFP,
}

impl CastKind {
    /// The LLVM mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CastKind::Trunc => "trunc",
            CastKind::ZExt => "zext",
            CastKind::SExt => "sext",
            CastKind::BitCast => "bitcast",
            CastKind::FPTrunc => "fptrunc",
            CastKind::FPExt => "fpext",
            CastKind::FPToUI => "fptoui",
            CastKind::FPToSI => "fptosi",
            CastKind::UIToFP => "uitofp",
            CastKind::SIToFP => "sitofp",
        }
    }
}

/// Attributes on parameters / call arguments that matter for refinement.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct ParamAttrs {
    /// Argument must not be null (precondition, paper §5.2).
    pub nonnull: bool,
    /// Argument must not be undef/poison.
    pub noundef: bool,
}

/// One instruction operation.
#[derive(Clone, PartialEq, Debug)]
pub enum InstOp {
    /// Integer binary arithmetic/logic.
    Bin {
        /// The operator.
        op: BinOpKind,
        /// Poison-generating flags.
        flags: WrapFlags,
        /// Operand type (integer or integer vector).
        ty: Type,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// Floating-point binary arithmetic.
    FBin {
        /// The operator.
        op: FBinOpKind,
        /// Fast-math flags.
        fmf: FastMathFlags,
        /// Operand type.
        ty: Type,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// Floating-point negation.
    FNeg {
        /// Fast-math flags.
        fmf: FastMathFlags,
        /// Operand type.
        ty: Type,
        /// Operand.
        val: Operand,
    },
    /// Integer comparison.
    ICmp {
        /// The predicate.
        pred: ICmpPred,
        /// Operand type.
        ty: Type,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// Floating-point comparison.
    FCmp {
        /// The predicate.
        pred: FCmpPred,
        /// Operand type.
        ty: Type,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// Ternary select.
    Select {
        /// The i1 condition.
        cond: Operand,
        /// Value type.
        ty: Type,
        /// Value if true.
        tval: Operand,
        /// Value if false.
        fval: Operand,
    },
    /// Stop undef/poison propagation (paper §2).
    Freeze {
        /// Value type.
        ty: Type,
        /// Operand.
        val: Operand,
    },
    /// Conversion.
    Cast {
        /// The cast operator.
        kind: CastKind,
        /// Source type.
        from_ty: Type,
        /// Operand.
        val: Operand,
        /// Destination type.
        to_ty: Type,
    },
    /// SSA φ node.
    Phi {
        /// Value type.
        ty: Type,
        /// `(value, predecessor block)` pairs.
        incoming: Vec<(Operand, String)>,
    },
    /// Function call.
    Call {
        /// Return type.
        ty: Type,
        /// Callee symbol name (without `@`).
        callee: String,
        /// Arguments with their types and attributes.
        args: Vec<(Type, Operand, ParamAttrs)>,
    },
    /// Stack allocation.
    Alloca {
        /// Element type.
        elem_ty: Type,
        /// Number of elements.
        count: Operand,
        /// Alignment in bytes.
        align: u64,
    },
    /// Memory load.
    Load {
        /// Loaded type.
        ty: Type,
        /// Pointer operand.
        ptr: Operand,
        /// Alignment in bytes.
        align: u64,
    },
    /// Memory store. Has no result.
    Store {
        /// Stored value type.
        ty: Type,
        /// Stored value.
        val: Operand,
        /// Pointer operand.
        ptr: Operand,
        /// Alignment in bytes.
        align: u64,
    },
    /// Pointer arithmetic.
    Gep {
        /// `inbounds` marker: out-of-bounds results become poison.
        inbounds: bool,
        /// The element type the first index scales by.
        elem_ty: Type,
        /// Base pointer.
        ptr: Operand,
        /// `(index type, index)` list.
        indices: Vec<(Type, Operand)>,
    },
    /// Read one vector lane.
    ExtractElement {
        /// Vector type.
        vec_ty: Type,
        /// Vector operand.
        vec: Operand,
        /// Lane index.
        idx: Operand,
    },
    /// Write one vector lane.
    InsertElement {
        /// Vector type.
        vec_ty: Type,
        /// Vector operand.
        vec: Operand,
        /// Inserted scalar.
        elem: Operand,
        /// Lane index.
        idx: Operand,
    },
    /// Permute two vectors (paper §8.3 "Vectors and UB").
    ShuffleVector {
        /// Input vector type.
        vec_ty: Type,
        /// First vector.
        v1: Operand,
        /// Second vector.
        v2: Operand,
        /// Lane selectors; `None` encodes an undef mask element.
        mask: Vec<Option<u32>>,
    },
    /// Read a field of an aggregate register.
    ExtractValue {
        /// Aggregate type.
        agg_ty: Type,
        /// Aggregate operand.
        agg: Operand,
        /// Constant index path.
        indices: Vec<u32>,
    },
    /// Write a field of an aggregate register.
    InsertValue {
        /// Aggregate type.
        agg_ty: Type,
        /// Aggregate operand.
        agg: Operand,
        /// Inserted value's type.
        elem_ty: Type,
        /// Inserted value.
        elem: Operand,
        /// Constant index path.
        indices: Vec<u32>,
    },
    /// Return.
    Ret {
        /// The returned value, or `None` for `ret void`.
        val: Option<(Type, Operand)>,
    },
    /// Unconditional branch.
    Br {
        /// Destination block label.
        dest: String,
    },
    /// Conditional branch; branching on undef/poison is UB (paper §2).
    CondBr {
        /// The i1 condition.
        cond: Operand,
        /// Destination when true.
        then_dest: String,
        /// Destination when false.
        else_dest: String,
    },
    /// Multi-way branch.
    Switch {
        /// Scrutinee type.
        ty: Type,
        /// Scrutinee.
        val: Operand,
        /// Default destination.
        default: String,
        /// `(case value, destination)` pairs.
        cases: Vec<(BitVec, String)>,
    },
    /// Immediate UB when reached.
    Unreachable,
}

impl InstOp {
    /// True for block terminators.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            InstOp::Ret { .. }
                | InstOp::Br { .. }
                | InstOp::CondBr { .. }
                | InstOp::Switch { .. }
                | InstOp::Unreachable
        )
    }

    /// The type of the produced value; `None` when no value is produced
    /// (stores, terminators, void calls).
    pub fn result_type(&self) -> Option<Type> {
        match self {
            InstOp::Bin { ty, .. } | InstOp::FBin { ty, .. } | InstOp::FNeg { ty, .. } => {
                Some(ty.clone())
            }
            InstOp::ICmp { ty, .. } | InstOp::FCmp { ty, .. } => Some(match ty {
                Type::Vector(n, _) => Type::vec(*n, Type::i1()),
                _ => Type::i1(),
            }),
            InstOp::Select { ty, .. } | InstOp::Freeze { ty, .. } | InstOp::Phi { ty, .. } => {
                Some(ty.clone())
            }
            InstOp::Cast { to_ty, .. } => Some(to_ty.clone()),
            InstOp::Call { ty, .. } => {
                if *ty == Type::Void {
                    None
                } else {
                    Some(ty.clone())
                }
            }
            InstOp::Alloca { .. } | InstOp::Gep { .. } => Some(Type::Ptr),
            InstOp::Load { ty, .. } => Some(ty.clone()),
            InstOp::ExtractElement { vec_ty, .. } => Some(vec_ty.elem_type().clone()),
            InstOp::InsertElement { vec_ty, .. } => Some(vec_ty.clone()),
            InstOp::ShuffleVector { vec_ty, mask, .. } => {
                Some(Type::vec(mask.len() as u32, vec_ty.elem_type().clone()))
            }
            InstOp::ExtractValue {
                agg_ty, indices, ..
            } => {
                // A walk that leaves the aggregate has no type; `None`
                // surfaces as a verifier error rather than a panic.
                let mut t = agg_ty;
                for &i in indices {
                    t = t.try_field_type(i)?;
                }
                Some(t.clone())
            }
            InstOp::InsertValue { agg_ty, .. } => Some(agg_ty.clone()),
            InstOp::Store { .. }
            | InstOp::Ret { .. }
            | InstOp::Br { .. }
            | InstOp::CondBr { .. }
            | InstOp::Switch { .. }
            | InstOp::Unreachable => None,
        }
    }

    /// Iterates over all operand slots (immutable).
    pub fn operands(&self) -> Vec<&Operand> {
        let mut out = Vec::new();
        self.visit_operands(|op| out.push(op));
        out
    }

    fn visit_operands<'a>(&'a self, mut f: impl FnMut(&'a Operand)) {
        match self {
            InstOp::Bin { lhs, rhs, .. }
            | InstOp::FBin { lhs, rhs, .. }
            | InstOp::ICmp { lhs, rhs, .. }
            | InstOp::FCmp { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            InstOp::FNeg { val, .. } | InstOp::Freeze { val, .. } | InstOp::Cast { val, .. } => {
                f(val)
            }
            InstOp::Select {
                cond, tval, fval, ..
            } => {
                f(cond);
                f(tval);
                f(fval);
            }
            InstOp::Phi { incoming, .. } => {
                for (v, _) in incoming {
                    f(v);
                }
            }
            InstOp::Call { args, .. } => {
                for (_, a, _) in args {
                    f(a);
                }
            }
            InstOp::Alloca { count, .. } => f(count),
            InstOp::Load { ptr, .. } => f(ptr),
            InstOp::Store { val, ptr, .. } => {
                f(val);
                f(ptr);
            }
            InstOp::Gep { ptr, indices, .. } => {
                f(ptr);
                for (_, i) in indices {
                    f(i);
                }
            }
            InstOp::ExtractElement { vec, idx, .. } => {
                f(vec);
                f(idx);
            }
            InstOp::InsertElement { vec, elem, idx, .. } => {
                f(vec);
                f(elem);
                f(idx);
            }
            InstOp::ShuffleVector { v1, v2, .. } => {
                f(v1);
                f(v2);
            }
            InstOp::ExtractValue { agg, .. } => f(agg),
            InstOp::InsertValue { agg, elem, .. } => {
                f(agg);
                f(elem);
            }
            InstOp::Ret { val } => {
                if let Some((_, v)) = val {
                    f(v);
                }
            }
            InstOp::CondBr { cond, .. } => f(cond),
            InstOp::Switch { val, .. } => f(val),
            InstOp::Br { .. } | InstOp::Unreachable => {}
        }
    }

    /// Applies `f` to every operand slot (mutable). Used for RAUW-style
    /// rewriting in the optimizer.
    pub fn map_operands(&mut self, mut f: impl FnMut(&mut Operand)) {
        match self {
            InstOp::Bin { lhs, rhs, .. }
            | InstOp::FBin { lhs, rhs, .. }
            | InstOp::ICmp { lhs, rhs, .. }
            | InstOp::FCmp { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            InstOp::FNeg { val, .. } | InstOp::Freeze { val, .. } | InstOp::Cast { val, .. } => {
                f(val)
            }
            InstOp::Select {
                cond, tval, fval, ..
            } => {
                f(cond);
                f(tval);
                f(fval);
            }
            InstOp::Phi { incoming, .. } => {
                for (v, _) in incoming {
                    f(v);
                }
            }
            InstOp::Call { args, .. } => {
                for (_, a, _) in args {
                    f(a);
                }
            }
            InstOp::Alloca { count, .. } => f(count),
            InstOp::Load { ptr, .. } => f(ptr),
            InstOp::Store { val, ptr, .. } => {
                f(val);
                f(ptr);
            }
            InstOp::Gep { ptr, indices, .. } => {
                f(ptr);
                for (_, i) in indices {
                    f(i);
                }
            }
            InstOp::ExtractElement { vec, idx, .. } => {
                f(vec);
                f(idx);
            }
            InstOp::InsertElement { vec, elem, idx, .. } => {
                f(vec);
                f(elem);
                f(idx);
            }
            InstOp::ShuffleVector { v1, v2, .. } => {
                f(v1);
                f(v2);
            }
            InstOp::ExtractValue { agg, .. } => f(agg),
            InstOp::InsertValue { agg, elem, .. } => {
                f(agg);
                f(elem);
            }
            InstOp::Ret { val } => {
                if let Some((_, v)) = val {
                    f(v);
                }
            }
            InstOp::CondBr { cond, .. } => f(cond),
            InstOp::Switch { val, .. } => f(val),
            InstOp::Br { .. } | InstOp::Unreachable => {}
        }
    }

    /// The labels this terminator may jump to (empty for non-terminators).
    pub fn successor_labels(&self) -> Vec<&str> {
        match self {
            InstOp::Br { dest } => vec![dest],
            InstOp::CondBr {
                then_dest,
                else_dest,
                ..
            } => vec![then_dest, else_dest],
            InstOp::Switch { default, cases, .. } => {
                let mut v = vec![default.as_str()];
                v.extend(cases.iter().map(|(_, l)| l.as_str()));
                v
            }
            _ => vec![],
        }
    }

    /// Rewrites terminator target labels with `f`.
    pub fn map_successor_labels(&mut self, mut f: impl FnMut(&mut String)) {
        match self {
            InstOp::Br { dest } => f(dest),
            InstOp::CondBr {
                then_dest,
                else_dest,
                ..
            } => {
                f(then_dest);
                f(else_dest);
            }
            InstOp::Switch { default, cases, .. } => {
                f(default);
                for (_, l) in cases {
                    f(l);
                }
            }
            _ => {}
        }
    }
}

/// A full instruction: optional result register plus the operation.
#[derive(Clone, PartialEq, Debug)]
pub struct Instruction {
    /// Result register name (without `%`), if the op produces a value.
    pub result: Option<String>,
    /// The operation.
    pub op: InstOp,
}

impl Instruction {
    /// An instruction with a result register.
    pub fn with_result(name: impl Into<String>, op: InstOp) -> Instruction {
        Instruction {
            result: Some(name.into()),
            op,
        }
    }

    /// An instruction without a result.
    pub fn stmt(op: InstOp) -> Instruction {
        Instruction { result: None, op }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(r) = &self.result {
            write!(f, "%{r} = ")?;
        }
        match &self.op {
            InstOp::Bin {
                op,
                flags,
                ty,
                lhs,
                rhs,
            } => {
                write!(f, "{}", op.mnemonic())?;
                if flags.nuw {
                    write!(f, " nuw")?;
                }
                if flags.nsw {
                    write!(f, " nsw")?;
                }
                if flags.exact {
                    write!(f, " exact")?;
                }
                write!(f, " {ty} {lhs}, {rhs}")
            }
            InstOp::FBin {
                op,
                fmf,
                ty,
                lhs,
                rhs,
            } => {
                write!(f, "{}", op.mnemonic())?;
                write_fmf(f, *fmf)?;
                write!(f, " {ty} {lhs}, {rhs}")
            }
            InstOp::FNeg { fmf, ty, val } => {
                write!(f, "fneg")?;
                write_fmf(f, *fmf)?;
                write!(f, " {ty} {val}")
            }
            InstOp::ICmp { pred, ty, lhs, rhs } => {
                write!(f, "icmp {} {ty} {lhs}, {rhs}", pred.mnemonic())
            }
            InstOp::FCmp { pred, ty, lhs, rhs } => {
                write!(f, "fcmp {} {ty} {lhs}, {rhs}", pred.mnemonic())
            }
            InstOp::Select {
                cond,
                ty,
                tval,
                fval,
            } => write!(f, "select i1 {cond}, {ty} {tval}, {ty} {fval}"),
            InstOp::Freeze { ty, val } => write!(f, "freeze {ty} {val}"),
            InstOp::Cast {
                kind,
                from_ty,
                val,
                to_ty,
            } => write!(f, "{} {from_ty} {val} to {to_ty}", kind.mnemonic()),
            InstOp::Phi { ty, incoming } => {
                write!(f, "phi {ty} ")?;
                for (i, (v, b)) in incoming.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "[ {v}, %{b} ]")?;
                }
                Ok(())
            }
            InstOp::Call { ty, callee, args } => {
                write!(f, "call {ty} @{callee}(")?;
                for (i, (t, a, attrs)) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}")?;
                    if attrs.nonnull {
                        write!(f, " nonnull")?;
                    }
                    if attrs.noundef {
                        write!(f, " noundef")?;
                    }
                    write!(f, " {a}")?;
                }
                write!(f, ")")
            }
            InstOp::Alloca {
                elem_ty,
                count,
                align,
            } => {
                write!(f, "alloca {elem_ty}")?;
                if !matches!(count, Operand::Const(Constant::Int(v)) if v.is_one()) {
                    write!(f, ", i64 {count}")?;
                }
                if *align != 0 {
                    write!(f, ", align {align}")?;
                }
                Ok(())
            }
            InstOp::Load { ty, ptr, align } => {
                write!(f, "load {ty}, ptr {ptr}")?;
                if *align != 0 {
                    write!(f, ", align {align}")?;
                }
                Ok(())
            }
            InstOp::Store {
                ty,
                val,
                ptr,
                align,
            } => {
                write!(f, "store {ty} {val}, ptr {ptr}")?;
                if *align != 0 {
                    write!(f, ", align {align}")?;
                }
                Ok(())
            }
            InstOp::Gep {
                inbounds,
                elem_ty,
                ptr,
                indices,
            } => {
                write!(f, "getelementptr ")?;
                if *inbounds {
                    write!(f, "inbounds ")?;
                }
                write!(f, "{elem_ty}, ptr {ptr}")?;
                for (t, i) in indices {
                    write!(f, ", {t} {i}")?;
                }
                Ok(())
            }
            InstOp::ExtractElement { vec_ty, vec, idx } => {
                write!(f, "extractelement {vec_ty} {vec}, i64 {idx}")
            }
            InstOp::InsertElement {
                vec_ty,
                vec,
                elem,
                idx,
            } => {
                let et = vec_ty.elem_type();
                write!(f, "insertelement {vec_ty} {vec}, {et} {elem}, i64 {idx}")
            }
            InstOp::ShuffleVector {
                vec_ty,
                v1,
                v2,
                mask,
            } => {
                write!(
                    f,
                    "shufflevector {vec_ty} {v1}, {vec_ty} {v2}, <{} x i32> <",
                    mask.len()
                )?;
                for (i, m) in mask.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    match m {
                        Some(k) => write!(f, "i32 {k}")?,
                        None => write!(f, "i32 undef")?,
                    }
                }
                write!(f, ">")
            }
            InstOp::ExtractValue {
                agg_ty,
                agg,
                indices,
            } => {
                write!(f, "extractvalue {agg_ty} {agg}")?;
                for i in indices {
                    write!(f, ", {i}")?;
                }
                Ok(())
            }
            InstOp::InsertValue {
                agg_ty,
                agg,
                elem_ty,
                elem,
                indices,
            } => {
                write!(f, "insertvalue {agg_ty} {agg}, {elem_ty} {elem}")?;
                for i in indices {
                    write!(f, ", {i}")?;
                }
                Ok(())
            }
            InstOp::Ret { val } => match val {
                Some((t, v)) => write!(f, "ret {t} {v}"),
                None => write!(f, "ret void"),
            },
            InstOp::Br { dest } => write!(f, "br label %{dest}"),
            InstOp::CondBr {
                cond,
                then_dest,
                else_dest,
            } => write!(f, "br i1 {cond}, label %{then_dest}, label %{else_dest}"),
            InstOp::Switch {
                ty,
                val,
                default,
                cases,
            } => {
                write!(f, "switch {ty} {val}, label %{default} [")?;
                for (c, l) in cases {
                    write!(f, " {ty} {c}, label %{l}")?;
                }
                write!(f, " ]")
            }
            InstOp::Unreachable => write!(f, "unreachable"),
        }
    }
}

fn write_fmf(f: &mut fmt::Formatter<'_>, fmf: FastMathFlags) -> fmt::Result {
    if fmf.nnan {
        write!(f, " nnan")?;
    }
    if fmf.ninf {
        write!(f, " ninf")?;
    }
    if fmf.nsz {
        write!(f, " nsz")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_bin_with_flags() {
        let inst = Instruction::with_result(
            "t",
            InstOp::Bin {
                op: BinOpKind::Add,
                flags: WrapFlags {
                    nsw: true,
                    nuw: true,
                    exact: false,
                },
                ty: Type::i32(),
                lhs: Operand::reg("a"),
                rhs: Operand::int(32, 1),
            },
        );
        assert_eq!(inst.to_string(), "%t = add nuw nsw i32 %a, 1");
    }

    #[test]
    fn display_control_flow() {
        let br = Instruction::stmt(InstOp::CondBr {
            cond: Operand::reg("c"),
            then_dest: "then".into(),
            else_dest: "else".into(),
        });
        assert_eq!(br.to_string(), "br i1 %c, label %then, label %else");
        let ret = Instruction::stmt(InstOp::Ret {
            val: Some((Type::i32(), Operand::reg("q"))),
        });
        assert_eq!(ret.to_string(), "ret i32 %q");
    }

    #[test]
    fn result_types() {
        let icmp = InstOp::ICmp {
            pred: ICmpPred::Eq,
            ty: Type::i32(),
            lhs: Operand::reg("a"),
            rhs: Operand::reg("b"),
        };
        assert_eq!(icmp.result_type(), Some(Type::i1()));
        let vicmp = InstOp::ICmp {
            pred: ICmpPred::Eq,
            ty: Type::vec(4, Type::i32()),
            lhs: Operand::reg("a"),
            rhs: Operand::reg("b"),
        };
        assert_eq!(vicmp.result_type(), Some(Type::vec(4, Type::i1())));
        let store = InstOp::Store {
            ty: Type::i32(),
            val: Operand::reg("v"),
            ptr: Operand::reg("p"),
            align: 4,
        };
        assert_eq!(store.result_type(), None);
        let shuffle = InstOp::ShuffleVector {
            vec_ty: Type::vec(2, Type::i8()),
            v1: Operand::reg("a"),
            v2: Operand::reg("b"),
            mask: vec![Some(0), Some(2), None],
        };
        assert_eq!(shuffle.result_type(), Some(Type::vec(3, Type::i8())));
    }

    #[test]
    fn icmp_predicate_algebra() {
        use ICmpPred::*;
        for p in [Eq, Ne, Ugt, Uge, Ult, Ule, Sgt, Sge, Slt, Sle] {
            assert_eq!(p.swapped().swapped(), p);
            assert_eq!(p.inverse().inverse(), p);
        }
        let a = BitVec::from_i64(8, -5);
        let b = BitVec::from_u64(8, 3);
        assert!(Slt.eval(&a, &b));
        assert!(Ugt.eval(&a, &b));
        assert!(Ne.eval(&a, &b));
    }

    #[test]
    fn operand_traversal_and_rewrite() {
        let mut op = InstOp::Select {
            cond: Operand::reg("c"),
            ty: Type::i32(),
            tval: Operand::reg("x"),
            fval: Operand::reg("y"),
        };
        assert_eq!(op.operands().len(), 3);
        op.map_operands(|o| {
            if o.as_reg() == Some("x") {
                *o = Operand::int(32, 7);
            }
        });
        match &op {
            InstOp::Select { tval, .. } => {
                assert_eq!(tval.as_const().unwrap().as_int().to_u64(), 7)
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn successor_labels() {
        let mut sw = InstOp::Switch {
            ty: Type::i32(),
            val: Operand::reg("x"),
            default: "d".into(),
            cases: vec![
                (BitVec::from_u64(32, 1), "a".into()),
                (BitVec::from_u64(32, 2), "b".into()),
            ],
        };
        assert_eq!(sw.successor_labels(), vec!["d", "a", "b"]);
        sw.map_successor_labels(|l| *l = format!("{l}.1"));
        assert_eq!(sw.successor_labels(), vec!["d.1", "a.1", "b.1"]);
    }
}
