//! Modules: globals, function declarations, and definitions.

use crate::constant::Constant;
use crate::function::{FnAttrs, Function};
use crate::types::Type;
use std::fmt;

/// A global variable definition.
#[derive(Clone, PartialEq, Debug)]
pub struct GlobalVar {
    /// Symbol name (without `@`).
    pub name: String,
    /// Value type.
    pub ty: Type,
    /// Initializer, if any.
    pub init: Option<Constant>,
    /// True for `constant` (read-only block, paper §4).
    pub is_const: bool,
    /// Alignment in bytes (0 = natural).
    pub align: u64,
}

/// An external function declaration.
#[derive(Clone, PartialEq, Debug)]
pub struct FuncDecl {
    /// Symbol name (without `@`).
    pub name: String,
    /// Return type.
    pub ret_ty: Type,
    /// Parameter types.
    pub params: Vec<Type>,
    /// Attributes (used by the §3.8 library-function knowledge base).
    pub attrs: FnAttrs,
}

/// A translation unit.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Module {
    /// Global variables.
    pub globals: Vec<GlobalVar>,
    /// External declarations.
    pub declares: Vec<FuncDecl>,
    /// Function definitions.
    pub functions: Vec<Function>,
}

impl Module {
    /// Creates an empty module.
    pub fn new() -> Module {
        Module::default()
    }

    /// Finds a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Finds a global by name.
    pub fn global(&self, name: &str) -> Option<&GlobalVar> {
        self.globals.iter().find(|g| g.name == name)
    }

    /// Finds a declaration by name.
    pub fn declare(&self, name: &str) -> Option<&FuncDecl> {
        self.declares.iter().find(|d| d.name == name)
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for g in &self.globals {
            let kind = if g.is_const { "constant" } else { "global" };
            write!(f, "@{} = {} {}", g.name, kind, g.ty)?;
            if let Some(init) = &g.init {
                write!(f, " {init}")?;
            }
            if g.align != 0 {
                write!(f, ", align {}", g.align)?;
            }
            writeln!(f)?;
            first = false;
        }
        for d in &self.declares {
            write!(f, "declare {} @{}(", d.ret_ty, d.name)?;
            for (i, p) in d.params.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{p}")?;
            }
            write!(f, ")")?;
            if d.attrs.mustprogress {
                write!(f, " mustprogress")?;
            }
            if d.attrs.noreturn {
                write!(f, " noreturn")?;
            }
            if d.attrs.willreturn {
                write!(f, " willreturn")?;
            }
            if d.attrs.readnone {
                write!(f, " memory(none)")?;
            } else if d.attrs.readonly {
                write!(f, " memory(read)")?;
            }
            writeln!(f)?;
            first = false;
        }
        for (i, func) in self.functions.iter().enumerate() {
            if !first || i > 0 {
                writeln!(f)?;
            }
            writeln!(f, "{func}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_and_display() {
        let mut m = Module::new();
        m.globals.push(GlobalVar {
            name: "g".into(),
            ty: Type::i32(),
            init: Some(Constant::int(32, 7)),
            is_const: true,
            align: 4,
        });
        m.declares.push(FuncDecl {
            name: "ext".into(),
            ret_ty: Type::Void,
            params: vec![Type::Ptr],
            attrs: FnAttrs::default(),
        });
        m.functions.push(Function::new("main", Type::Void));
        assert!(m.global("g").is_some());
        assert!(m.declare("ext").is_some());
        assert!(m.function("main").is_some());
        assert!(m.function("nope").is_none());
        let s = m.to_string();
        assert!(s.contains("@g = constant i32 7, align 4"));
        assert!(s.contains("declare void @ext(ptr)"));
    }
}
