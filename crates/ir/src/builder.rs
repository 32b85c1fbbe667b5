//! Programmatic construction of IR functions.
//!
//! Used by the optimizer tests and the synthetic-application generator; a
//! thin, non-consuming builder (one per function) that tracks the current
//! insertion block.

use crate::constant::Constant;
use crate::function::{Block, FnAttrs, Function, Param};
use crate::instruction::{
    BinOpKind, CastKind, ICmpPred, InstOp, Instruction, Operand, ParamAttrs, WrapFlags,
};
use crate::types::Type;

/// Builds one [`Function`] incrementally.
///
/// # Examples
///
/// ```
/// use alive2_ir::builder::FunctionBuilder;
/// use alive2_ir::types::Type;
/// use alive2_ir::instruction::{BinOpKind, Operand, WrapFlags};
///
/// let mut b = FunctionBuilder::new("double_it", Type::i32());
/// let x = b.param("x", Type::i32());
/// b.block("entry");
/// let t = b.bin(BinOpKind::Add, WrapFlags::none(), Type::i32(), x.clone(), x);
/// b.ret(Type::i32(), t);
/// let f = b.finish();
/// assert!(f.to_string().contains("add i32 %x, %x"));
/// ```
#[derive(Debug)]
pub struct FunctionBuilder {
    func: Function,
    next_reg: u32,
}

impl FunctionBuilder {
    /// Starts a function with a name and return type.
    pub fn new(name: impl Into<String>, ret_ty: Type) -> FunctionBuilder {
        FunctionBuilder {
            func: Function::new(name, ret_ty),
            next_reg: 0,
        }
    }

    /// Adds a parameter and returns an operand referring to it.
    pub fn param(&mut self, name: impl Into<String>, ty: Type) -> Operand {
        let name = name.into();
        self.func.params.push(Param {
            name: name.clone(),
            ty,
            attrs: ParamAttrs::default(),
        });
        Operand::Reg(name)
    }

    /// Sets function attributes.
    pub fn attrs(&mut self, attrs: FnAttrs) -> &mut Self {
        self.func.attrs = attrs;
        self
    }

    /// Opens a new block and makes it current.
    pub fn block(&mut self, name: impl Into<String>) -> &mut Self {
        self.func.blocks.push(Block::new(name));
        self
    }

    fn fresh(&mut self) -> String {
        loop {
            let name = format!("v{}", self.next_reg);
            self.next_reg += 1;
            if !self.func.def_types().contains_key(&name) {
                return name;
            }
        }
    }

    fn push_valued(&mut self, op: InstOp) -> Operand {
        let name = self.fresh();
        self.cur().insts.push(Instruction::with_result(&name, op));
        Operand::Reg(name)
    }

    /// Appends an arbitrary value-producing instruction.
    pub fn inst(&mut self, op: InstOp) -> Operand {
        self.push_valued(op)
    }

    /// Appends an arbitrary non-value instruction.
    pub fn stmt(&mut self, op: InstOp) -> &mut Self {
        self.cur().insts.push(Instruction::stmt(op));
        self
    }

    fn cur(&mut self) -> &mut Block {
        self.func
            .blocks
            .last_mut()
            .expect("open a block before inserting instructions")
    }

    /// Integer binary operation.
    pub fn bin(
        &mut self,
        op: BinOpKind,
        flags: WrapFlags,
        ty: Type,
        lhs: Operand,
        rhs: Operand,
    ) -> Operand {
        self.push_valued(InstOp::Bin {
            op,
            flags,
            ty,
            lhs,
            rhs,
        })
    }

    /// Integer comparison.
    pub fn icmp(&mut self, pred: ICmpPred, ty: Type, lhs: Operand, rhs: Operand) -> Operand {
        self.push_valued(InstOp::ICmp { pred, ty, lhs, rhs })
    }

    /// Select.
    pub fn select(&mut self, cond: Operand, ty: Type, tval: Operand, fval: Operand) -> Operand {
        self.push_valued(InstOp::Select {
            cond,
            ty,
            tval,
            fval,
        })
    }

    /// Freeze.
    pub fn freeze(&mut self, ty: Type, val: Operand) -> Operand {
        self.push_valued(InstOp::Freeze { ty, val })
    }

    /// Cast.
    pub fn cast(&mut self, kind: CastKind, from_ty: Type, val: Operand, to_ty: Type) -> Operand {
        self.push_valued(InstOp::Cast {
            kind,
            from_ty,
            val,
            to_ty,
        })
    }

    /// φ node.
    pub fn phi(&mut self, ty: Type, incoming: Vec<(Operand, String)>) -> Operand {
        self.push_valued(InstOp::Phi { ty, incoming })
    }

    /// Call.
    pub fn call(
        &mut self,
        ty: Type,
        callee: impl Into<String>,
        args: Vec<(Type, Operand)>,
    ) -> Operand {
        let args = args
            .into_iter()
            .map(|(t, v)| (t, v, ParamAttrs::default()))
            .collect();
        let op = InstOp::Call {
            ty: ty.clone(),
            callee: callee.into(),
            args,
        };
        if ty == Type::Void {
            self.stmt(op);
            Operand::Const(Constant::ZeroInit(Type::Void))
        } else {
            self.push_valued(op)
        }
    }

    /// Stack allocation.
    pub fn alloca(&mut self, elem_ty: Type, align: u64) -> Operand {
        self.push_valued(InstOp::Alloca {
            elem_ty,
            count: Operand::int(64, 1),
            align,
        })
    }

    /// Load.
    pub fn load(&mut self, ty: Type, ptr: Operand, align: u64) -> Operand {
        self.push_valued(InstOp::Load { ty, ptr, align })
    }

    /// Store.
    pub fn store(&mut self, ty: Type, val: Operand, ptr: Operand, align: u64) -> &mut Self {
        self.stmt(InstOp::Store {
            ty,
            val,
            ptr,
            align,
        })
    }

    /// GEP.
    pub fn gep(
        &mut self,
        inbounds: bool,
        elem_ty: Type,
        ptr: Operand,
        indices: Vec<(Type, Operand)>,
    ) -> Operand {
        self.push_valued(InstOp::Gep {
            inbounds,
            elem_ty,
            ptr,
            indices,
        })
    }

    /// `ret <ty> <val>`.
    pub fn ret(&mut self, ty: Type, val: Operand) -> &mut Self {
        self.stmt(InstOp::Ret {
            val: Some((ty, val)),
        })
    }

    /// Unconditional branch.
    pub fn br(&mut self, dest: impl Into<String>) -> &mut Self {
        self.stmt(InstOp::Br { dest: dest.into() })
    }

    /// Conditional branch.
    pub fn cond_br(
        &mut self,
        cond: Operand,
        then_dest: impl Into<String>,
        else_dest: impl Into<String>,
    ) -> &mut Self {
        self.stmt(InstOp::CondBr {
            cond,
            then_dest: then_dest.into(),
            else_dest: else_dest.into(),
        })
    }

    /// `unreachable`.
    pub fn unreachable(&mut self) -> &mut Self {
        self.stmt(InstOp::Unreachable)
    }

    /// Finalizes and returns the function.
    pub fn finish(self) -> Function {
        self.func
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_function;

    #[test]
    fn builds_verifiable_function() {
        let mut b = FunctionBuilder::new("max", Type::i32());
        let x = b.param("x", Type::i32());
        let y = b.param("y", Type::i32());
        b.block("entry");
        let c = b.icmp(ICmpPred::Sgt, Type::i32(), x.clone(), y.clone());
        let m = b.select(c, Type::i32(), x, y);
        b.ret(Type::i32(), m);
        let f = b.finish();
        assert!(verify_function(&f).is_empty());
        assert!(f.to_string().contains("icmp sgt i32 %x, %y"));
    }

    #[test]
    fn builds_branches_and_phis() {
        let mut b = FunctionBuilder::new("abs", Type::i32());
        let x = b.param("x", Type::i32());
        b.block("entry");
        let neg = b.icmp(ICmpPred::Slt, Type::i32(), x.clone(), Operand::int(32, 0));
        b.cond_br(neg, "flip", "join");
        b.block("flip");
        let n = b.bin(
            BinOpKind::Sub,
            WrapFlags::none(),
            Type::i32(),
            Operand::int(32, 0),
            x.clone(),
        );
        b.br("join");
        b.block("join");
        let r = b.phi(Type::i32(), vec![(x, "entry".into()), (n, "flip".into())]);
        b.ret(Type::i32(), r);
        let f = b.finish();
        assert!(verify_function(&f).is_empty(), "{f}");
    }

    #[test]
    fn fresh_registers_do_not_collide_with_params() {
        let mut b = FunctionBuilder::new("f", Type::i32());
        let v0 = b.param("v0", Type::i32());
        b.block("entry");
        let t = b.bin(
            BinOpKind::Add,
            WrapFlags::none(),
            Type::i32(),
            v0.clone(),
            v0,
        );
        b.ret(Type::i32(), t.clone());
        let f = b.finish();
        assert_ne!(t.as_reg(), Some("v0"));
        assert!(verify_function(&f).is_empty());
    }
}
