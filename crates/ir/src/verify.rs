//! IR well-formedness checks (SSA, CFG, φ-node consistency).
//!
//! Alive2-rs does not trust its inputs: the validator verifies both sides
//! of each function pair before encoding them.

use crate::cfg::Cfg;
use crate::dominators::Dominators;
use crate::function::Function;
use crate::instruction::InstOp;
use std::collections::{HashMap, HashSet};

/// A well-formedness violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyError {
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for VerifyError {}

fn err(errors: &mut Vec<VerifyError>, msg: String) {
    errors.push(VerifyError { message: msg });
}

/// Verifies a function, returning every violation found.
pub fn verify_function(f: &Function) -> Vec<VerifyError> {
    let mut errors = Vec::new();
    if f.blocks.is_empty() {
        err(&mut errors, format!("@{}: function has no blocks", f.name));
        return errors;
    }

    // Unique block names.
    let mut labels = HashSet::new();
    for b in &f.blocks {
        if !labels.insert(b.name.as_str()) {
            err(
                &mut errors,
                format!("@{}: duplicate label %{}", f.name, b.name),
            );
        }
    }

    // Blocks end with exactly one terminator.
    for b in &f.blocks {
        match b.insts.last() {
            None => err(&mut errors, format!("@{}: empty block %{}", f.name, b.name)),
            Some(t) if !t.op.is_terminator() => err(
                &mut errors,
                format!(
                    "@{}: block %{} does not end in a terminator",
                    f.name, b.name
                ),
            ),
            _ => {}
        }
        for inst in b.insts.iter().rev().skip(1) {
            if inst.op.is_terminator() {
                err(
                    &mut errors,
                    format!(
                        "@{}: terminator in the middle of block %{}: {inst}",
                        f.name, b.name
                    ),
                );
            }
        }
        // φ nodes only at the head.
        let mut non_phi_seen = false;
        for inst in &b.insts {
            let is_phi = matches!(inst.op, InstOp::Phi { .. });
            if is_phi && non_phi_seen {
                err(
                    &mut errors,
                    format!("@{}: φ after non-φ in block %{}", f.name, b.name),
                );
            }
            if !is_phi {
                non_phi_seen = true;
            }
        }
    }

    // Branch targets exist.
    for b in &f.blocks {
        if let Some(t) = b.insts.last() {
            for l in t.op.successor_labels() {
                if f.block_index(l).is_none() {
                    err(
                        &mut errors,
                        format!("@{}: branch to unknown label %{l} in %{}", f.name, b.name),
                    );
                }
            }
        }
    }

    // Single assignment; defs collected with their block.
    let mut def_block: HashMap<&str, usize> = HashMap::new();
    for p in &f.params {
        if def_block.insert(&p.name, usize::MAX).is_some() {
            err(
                &mut errors,
                format!("@{}: duplicate parameter %{}", f.name, p.name),
            );
        }
    }
    for (bi, b) in f.blocks.iter().enumerate() {
        for inst in &b.insts {
            if let Some(r) = &inst.result {
                if inst.op.result_type().is_none() {
                    err(
                        &mut errors,
                        format!("@{}: %{r} assigned from a void-producing op", f.name),
                    );
                }
                if def_block.insert(r, bi).is_some() {
                    err(
                        &mut errors,
                        format!("@{}: multiple definitions of %{r}", f.name),
                    );
                }
            }
        }
    }

    let cfg = Cfg::new(f);
    let dom = Dominators::new(&cfg);

    // The entry block runs once, before everything else (LLVM's rule).
    if !cfg.preds[0].is_empty() {
        err(
            &mut errors,
            format!(
                "@{}: entry block %{} has predecessors",
                f.name, f.blocks[0].name
            ),
        );
    }

    // φ nodes: one incoming entry per CFG predecessor.
    for (bi, b) in f.blocks.iter().enumerate() {
        let preds: HashSet<&str> = cfg.preds[bi]
            .iter()
            .map(|&p| f.blocks[p].name.as_str())
            .collect();
        for inst in b.phis() {
            if let InstOp::Phi { incoming, .. } = &inst.op {
                let inc: HashSet<&str> = incoming.iter().map(|(_, l)| l.as_str()).collect();
                if inc.len() != incoming.len() {
                    err(
                        &mut errors,
                        format!(
                            "@{}: φ in %{} has duplicate incoming labels",
                            f.name, b.name
                        ),
                    );
                }
                for l in &preds {
                    if !inc.contains(l) {
                        err(
                            &mut errors,
                            format!(
                                "@{}: φ in %{} missing entry for predecessor %{l}",
                                f.name, b.name
                            ),
                        );
                    }
                }
                for l in inc {
                    if !preds.contains(l) && f.block_index(l).is_some() {
                        err(
                            &mut errors,
                            format!(
                                "@{}: φ in %{} has entry for non-predecessor %{l}",
                                f.name, b.name
                            ),
                        );
                    }
                }
            }
        }
    }

    // Uses refer to defined registers; defs dominate uses (reachable code
    // only). φ uses are checked at the incoming block's exit.
    for (bi, b) in f.blocks.iter().enumerate() {
        if !dom.is_reachable(bi) {
            continue;
        }
        let mut defined_here: HashSet<&str> = HashSet::new();
        for inst in &b.insts {
            let check_use = |reg: &str,
                             use_block: usize,
                             defined_here: &HashSet<&str>,
                             errors: &mut Vec<VerifyError>| {
                match def_block.get(reg) {
                    None => err(
                        errors,
                        format!("@{}: use of undefined register %{reg}", f.name),
                    ),
                    Some(&db) => {
                        if db == usize::MAX {
                            // parameter: always fine
                        } else if db == use_block {
                            if !defined_here.contains(reg) {
                                err(
                                    errors,
                                    format!(
                                        "@{}: %{reg} used before its definition in %{}",
                                        f.name, f.blocks[use_block].name
                                    ),
                                );
                            }
                        } else if dom.is_reachable(db) && !dom.strictly_dominates(db, use_block) {
                            err(
                                errors,
                                format!(
                                    "@{}: definition of %{reg} does not dominate its use in %{}",
                                    f.name, f.blocks[use_block].name
                                ),
                            );
                        }
                    }
                }
            };
            if let InstOp::Phi { incoming, .. } = &inst.op {
                for (v, from) in incoming {
                    if let Some(reg) = v.as_reg() {
                        if let (Some(fb), Some(&db)) = (f.block_index(from), def_block.get(reg)) {
                            if db != usize::MAX
                                && dom.is_reachable(fb)
                                && dom.is_reachable(db)
                                && !dom.dominates(db, fb)
                            {
                                err(
                                    &mut errors,
                                    format!(
                                        "@{}: φ operand %{reg} does not dominate edge from %{from}",
                                        f.name
                                    ),
                                );
                            }
                        } else if def_block.get(reg).is_none() {
                            err(
                                &mut errors,
                                format!("@{}: use of undefined register %{reg}", f.name),
                            );
                        }
                    }
                }
            } else {
                for op in inst.op.operands() {
                    if let Some(reg) = op.as_reg() {
                        check_use(reg, bi, &defined_here, &mut errors);
                    }
                }
            }
            if let Some(r) = &inst.result {
                defined_here.insert(r);
            }
        }
    }

    // Return type agreement.
    for b in &f.blocks {
        if let Some(inst) = b.insts.last() {
            if let InstOp::Ret { val } = &inst.op {
                match (val, &f.ret_ty) {
                    (None, t) if *t != crate::types::Type::Void => err(
                        &mut errors,
                        format!("@{}: ret void in function returning {t}", f.name),
                    ),
                    (Some((t, _)), rt) if t != rt => err(
                        &mut errors,
                        format!("@{}: ret {t} in function returning {rt}", f.name),
                    ),
                    _ => {}
                }
            }
        }
    }

    errors
}

/// Verifies every function in a module.
pub fn verify_module(m: &crate::module::Module) -> Vec<VerifyError> {
    m.functions.iter().flat_map(verify_function).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_function;

    fn check(src: &str) -> Vec<VerifyError> {
        verify_function(&parse_function(src).unwrap())
    }

    #[test]
    fn valid_function_passes() {
        let errs = check(
            r#"define i32 @f(i32 %x, i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  %p = add i32 %x, 1
  br label %join
b:
  br label %join
join:
  %r = phi i32 [ %p, %a ], [ %x, %b ]
  ret i32 %r
}"#,
        );
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn missing_terminator() {
        let errs = check("define void @f() {\nentry:\n  %x = add i32 1, 2\n}");
        assert!(errs.iter().any(|e| e.message.contains("terminator")));
    }

    #[test]
    fn use_before_def_in_block() {
        let errs = check(
            "define i32 @f() {\nentry:\n  %a = add i32 %b, 1\n  %b = add i32 1, 1\n  ret i32 %a\n}",
        );
        assert!(errs
            .iter()
            .any(|e| e.message.contains("used before its definition")));
    }

    #[test]
    fn undefined_register() {
        let errs = check("define i32 @f() {\nentry:\n  ret i32 %nope\n}");
        assert!(errs
            .iter()
            .any(|e| e.message.contains("undefined register")));
    }

    #[test]
    fn def_must_dominate_use() {
        let errs = check(
            r#"define i32 @f(i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  %x = add i32 1, 2
  br label %join
b:
  br label %join
join:
  ret i32 %x
}"#,
        );
        assert!(errs.iter().any(|e| e.message.contains("dominate")));
    }

    #[test]
    fn phi_missing_predecessor_entry() {
        let errs = check(
            r#"define i32 @f(i1 %c) {
entry:
  br i1 %c, label %a, label %join
a:
  br label %join
join:
  %r = phi i32 [ 1, %a ]
  ret i32 %r
}"#,
        );
        assert!(errs
            .iter()
            .any(|e| e.message.contains("missing entry for predecessor")));
    }

    #[test]
    fn duplicate_definition() {
        let errs = check(
            "define i32 @f() {\nentry:\n  %x = add i32 1, 1\n  %x = add i32 2, 2\n  ret i32 %x\n}",
        );
        assert!(errs
            .iter()
            .any(|e| e.message.contains("multiple definitions")));
    }

    #[test]
    fn bad_branch_target() {
        let errs = check("define void @f() {\nentry:\n  br label %nowhere\n}");
        assert!(errs.iter().any(|e| e.message.contains("unknown label")));
    }

    #[test]
    fn entry_block_with_predecessors() {
        let errs = check(
            r#"define i8 @f(i8 %a, i1 %c) {
entry:
  %x = add i8 %a, 1
  br i1 %c, label %entry, label %exit
exit:
  ret i8 %x
}"#,
        );
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert_eq!(errs[0].message, "@f: entry block %entry has predecessors");
    }

    #[test]
    fn ret_type_mismatch() {
        let errs = check("define i32 @f() {\nentry:\n  ret i64 0\n}");
        assert!(errs.iter().any(|e| e.message.contains("ret i64")));
    }
}
