//! Bounded loop unrolling (paper §7).
//!
//! Loops are unrolled inside-out following the Tarjan–Havlak nesting
//! forest: each loop is duplicated `factor − 1` times, instruction operands
//! and jump targets are patched through a duplicate map, and φ nodes are
//! repaired. Back edges of the last copy are redirected to a special *sink*
//! block; the encoder negates the sink's reachability and conjoins it to
//! the function's precondition, so verification is restricted to paths that
//! finish within the unroll bound (bounded translation validation).
//!
//! Loop-exit values take one of two routes. A φ outside the loop that
//! reads a value over an exit edge is extended with one entry per copy.
//! Every other use after the loop of a value defined in it is demoted to
//! a fresh stack slot before the loop is copied (the paper's "introduce a
//! new stack variable" fallback), so each exit reads the value of the
//! iteration that left. The unrolled function then goes through
//! [`verify_function`], the one check of what valid SSA is; output it
//! rejects is an [`UnrollError`].

use alive2_ir::cfg::Cfg;
use alive2_ir::function::{Block, Function};
use alive2_ir::instruction::{InstOp, Instruction, Operand};
use alive2_ir::loops::LoopForest;
use alive2_ir::verify::verify_function;
use std::collections::HashSet;

/// Label of the sink block introduced by unrolling. The encoder recognizes
/// it by name.
pub const SINK_LABEL: &str = "__sink";

/// Why a function's loops cannot be handled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnrollError {
    /// Human-readable reason (e.g. irreducible control flow).
    pub reason: String,
}

impl std::fmt::Display for UnrollError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.reason)
    }
}

impl std::error::Error for UnrollError {}

/// The outcome of unrolling.
#[derive(Clone, Debug)]
pub struct Unrolled {
    /// The loop-free function.
    pub func: Function,
    /// True if the original function contained loops.
    pub had_loops: bool,
}

/// True if the label belongs to the sink block.
pub fn is_sink_label(label: &str) -> bool {
    label.starts_with(SINK_LABEL)
}

/// Unrolls every loop of `f` by `factor` and returns a loop-free function.
/// `f` must be well-formed ([`verify_function`] accepts it).
///
/// # Errors
///
/// Returns an [`UnrollError`] for irreducible control flow, a zero
/// factor, or unrolled output that [`verify_function`] rejects (the
/// error carries the verifier's first message).
pub fn unroll_loops(f: &Function, factor: u32) -> Result<Unrolled, UnrollError> {
    if factor == 0 {
        return Err(UnrollError {
            reason: "unroll factor must be at least 1".into(),
        });
    }
    let mut func = f.clone();
    let mut had_loops = false;
    let mut uid = 0usize;
    loop {
        let cfg = Cfg::new(&func);
        let forest = LoopForest::new(&cfg);
        if forest.has_irreducible() {
            return Err(UnrollError {
                reason: "irreducible control flow is unsupported".into(),
            });
        }
        // Pick an innermost remaining loop.
        let Some(li) = forest
            .post_order()
            .into_iter()
            .find(|&i| forest.loops[i].children.is_empty())
        else {
            break;
        };
        had_loops = true;
        let l = &forest.loops[li];
        let header = func.blocks[l.header].name.clone();
        let loop_blocks: HashSet<String> = l
            .blocks
            .iter()
            .map(|&b| func.blocks[b].name.clone())
            .collect();
        unroll_one(&mut func, &loop_blocks, &header, factor, uid);
        uid += 1;
        if uid > 10_000 {
            return Err(UnrollError {
                reason: "loop unrolling did not converge".into(),
            });
        }
    }
    if had_loops {
        ensure_sink(&mut func);
        if let Some(e) = verify_function(&func).into_iter().next() {
            return Err(UnrollError {
                reason: format!("unrolled IR is ill-formed: {e}"),
            });
        }
    }
    Ok(Unrolled { func, had_loops })
}

fn copy_label(label: &str, uid: usize, c: u32) -> String {
    format!("{label}.u{uid}c{c}")
}

fn copy_reg(reg: &str, uid: usize, c: u32) -> String {
    format!("{reg}.u{uid}c{c}")
}

fn rename_reg(reg: &str, defs: &HashSet<String>, uid: usize, c: u32) -> String {
    if c > 0 && defs.contains(reg) {
        copy_reg(reg, uid, c)
    } else {
        reg.to_string()
    }
}

fn rename_label_in(label: &str, loop_blocks: &HashSet<String>, uid: usize, c: u32) -> String {
    if c > 0 && loop_blocks.contains(label) {
        copy_label(label, uid, c)
    } else {
        label.to_string()
    }
}

fn rename_operand(op: &mut Operand, defs: &HashSet<String>, uid: usize, c: u32) {
    if let Some(r) = op.as_reg() {
        let new = rename_reg(r, defs, uid, c);
        if new != r {
            *op = Operand::Reg(new);
        }
    }
}

/// Demotes to a stack slot every register defined inside the loop and used
/// outside it, except for φ uses reached through in-loop edges (those are
/// patched precisely by extending the φ with per-copy entries). This is the
/// paper's conservative "introduce a new stack variable" strategy, applied
/// eagerly so that every exit observes the value of the iteration that
/// actually exited.
fn demote_liveouts(func: &mut Function, loop_blocks: &HashSet<String>, uid: usize) {
    let def_types = func.def_types();
    let mut defs: HashSet<String> = HashSet::new();
    for b in &func.blocks {
        if loop_blocks.contains(&b.name) {
            for inst in &b.insts {
                if let Some(r) = &inst.result {
                    defs.insert(r.clone());
                }
            }
        }
    }
    // Collect live-outs needing demotion.
    let mut demote: Vec<String> = Vec::new();
    for b in &func.blocks {
        if loop_blocks.contains(&b.name) {
            continue;
        }
        for inst in &b.insts {
            if let InstOp::Phi { incoming, .. } = &inst.op {
                for (v, l) in incoming {
                    if let Some(r) = v.as_reg() {
                        if defs.contains(r)
                            && !loop_blocks.contains(l)
                            && !demote.contains(&r.to_string())
                        {
                            demote.push(r.to_string());
                        }
                    }
                }
            } else {
                for op in inst.op.operands() {
                    if let Some(r) = op.as_reg() {
                        if defs.contains(r) && !demote.contains(&r.to_string()) {
                            demote.push(r.to_string());
                        }
                    }
                }
            }
        }
    }
    if demote.is_empty() {
        return;
    }
    assert!(
        !loop_blocks.contains(&func.blocks[0].name),
        "entry block inside a loop is unsupported"
    );
    for (di, reg) in demote.iter().enumerate() {
        let Some(ty) = def_types.get(reg).cloned() else {
            continue;
        };
        let slot = func.fresh_reg(&format!("{reg}.u{uid}slot"));
        func.blocks[0].insts.insert(
            0,
            Instruction::with_result(
                slot.clone(),
                InstOp::Alloca {
                    elem_ty: ty.clone(),
                    count: Operand::int(64, 1),
                    align: 0,
                },
            ),
        );
        // Store after the definition (after the φ group if the def is a φ).
        for b in &mut func.blocks {
            if !loop_blocks.contains(&b.name) {
                continue;
            }
            if let Some(def_idx) = b
                .insts
                .iter()
                .position(|i| i.result.as_deref() == Some(reg.as_str()))
            {
                let first_non_phi = b
                    .insts
                    .iter()
                    .position(|i| !matches!(i.op, InstOp::Phi { .. }))
                    .unwrap_or(b.insts.len());
                let at = (def_idx + 1).max(first_non_phi);
                b.insts.insert(
                    at,
                    Instruction::stmt(InstOp::Store {
                        ty: ty.clone(),
                        val: Operand::Reg(reg.clone()),
                        ptr: Operand::Reg(slot.clone()),
                        align: 0,
                    }),
                );
            }
        }
        // Rewrite outside uses as reloads.
        let mut reload_n = 0usize;
        let nblocks = func.blocks.len();
        for bi in 0..nblocks {
            if loop_blocks.contains(&func.blocks[bi].name) {
                continue;
            }
            let mut i = 0;
            while i < func.blocks[bi].insts.len() {
                let is_phi = matches!(func.blocks[bi].insts[i].op, InstOp::Phi { .. });
                let uses_reg = !is_phi
                    && func.blocks[bi].insts[i]
                        .op
                        .operands()
                        .iter()
                        .any(|o| o.as_reg() == Some(reg.as_str()));
                if uses_reg {
                    let reload = format!("{reg}.u{uid}d{di}r{reload_n}");
                    reload_n += 1;
                    let load = Instruction::with_result(
                        reload.clone(),
                        InstOp::Load {
                            ty: ty.clone(),
                            ptr: Operand::Reg(slot.clone()),
                            align: 0,
                        },
                    );
                    func.blocks[bi].insts.insert(i, load);
                    i += 1;
                    func.blocks[bi].insts[i].op.map_operands(|op| {
                        if op.as_reg() == Some(reg.as_str()) {
                            *op = Operand::Reg(reload.clone());
                        }
                    });
                }
                i += 1;
            }
            // φ uses arriving over out-of-loop edges: reload at the end of
            // the incoming block.
            let mut phi_edits: Vec<(usize, String)> = Vec::new();
            for (ii, inst) in func.blocks[bi].insts.iter().enumerate() {
                if let InstOp::Phi { incoming, .. } = &inst.op {
                    for (v, from) in incoming {
                        if v.as_reg() == Some(reg.as_str()) && !loop_blocks.contains(from) {
                            phi_edits.push((ii, from.clone()));
                        }
                    }
                }
            }
            for (ii, from) in phi_edits {
                let Some(from_bi) = func.block_index(&from) else {
                    continue;
                };
                let reload = format!("{reg}.u{uid}d{di}r{reload_n}");
                reload_n += 1;
                let load = Instruction::with_result(
                    reload.clone(),
                    InstOp::Load {
                        ty: ty.clone(),
                        ptr: Operand::Reg(slot.clone()),
                        align: 0,
                    },
                );
                let at = func.blocks[from_bi].insts.len().saturating_sub(1);
                func.blocks[from_bi].insts.insert(at, load);
                if let InstOp::Phi { incoming, .. } = &mut func.blocks[bi].insts[ii].op {
                    for (v, f2) in incoming {
                        if v.as_reg() == Some(reg.as_str()) && f2 == &from {
                            *v = Operand::Reg(reload.clone());
                        }
                    }
                }
            }
        }
    }
}

/// Unrolls one (innermost) loop.
fn unroll_one(
    func: &mut Function,
    loop_blocks: &HashSet<String>,
    header: &str,
    factor: u32,
    uid: usize,
) {
    demote_liveouts(func, loop_blocks, uid);
    // Registers defined inside the loop.
    let mut defs: HashSet<String> = HashSet::new();
    for b in &func.blocks {
        if loop_blocks.contains(&b.name) {
            for inst in &b.insts {
                if let Some(r) = &inst.result {
                    defs.insert(r.clone());
                }
            }
        }
    }
    // Latches: loop blocks that jump to the header.
    let latches: Vec<String> = func
        .blocks
        .iter()
        .filter(|b| {
            loop_blocks.contains(&b.name)
                && b.insts
                    .last()
                    .map(|t| t.op.successor_labels().contains(&header))
                    .unwrap_or(false)
        })
        .map(|b| b.name.clone())
        .collect();

    // The jump-target map for copy c: header -> next copy's header (or sink),
    // other loop blocks -> same copy.
    let target_for = |t: &str, c: u32| -> String {
        if t == header {
            if c + 1 < factor {
                copy_label(header, uid, c + 1)
            } else {
                SINK_LABEL.to_string()
            }
        } else if loop_blocks.contains(t) {
            rename_label_in(t, loop_blocks, uid, c)
        } else {
            t.to_string()
        }
    };

    // Build the copies.
    let mut new_blocks: Vec<Block> = Vec::new();
    let loop_block_order: Vec<usize> = func
        .blocks
        .iter()
        .enumerate()
        .filter(|(_, b)| loop_blocks.contains(&b.name))
        .map(|(i, _)| i)
        .collect();
    for c in 1..factor {
        for &bi in &loop_block_order {
            let orig = &func.blocks[bi];
            let mut blk = Block::new(copy_label(&orig.name, uid, c));
            for inst in &orig.insts {
                let mut inst = inst.clone();
                if let Some(r) = &inst.result {
                    inst.result = Some(copy_reg(r, uid, c));
                }
                if orig.name == header {
                    if let InstOp::Phi { incoming, ty } = &inst.op {
                        // Header copy φ: only the previous copy's latch
                        // entries survive.
                        let mut new_inc = Vec::new();
                        for (v, l) in incoming {
                            if latches.contains(l) {
                                let mut v = v.clone();
                                rename_operand(&mut v, &defs, uid, c - 1);
                                new_inc.push((v, rename_label_in(l, loop_blocks, uid, c - 1)));
                            }
                        }
                        inst.op = InstOp::Phi {
                            ty: ty.clone(),
                            incoming: new_inc,
                        };
                        blk.insts.push(inst);
                        continue;
                    }
                }
                if let InstOp::Phi { incoming, ty } = &inst.op {
                    // Non-header φ: predecessors are all inside the loop.
                    let new_inc = incoming
                        .iter()
                        .map(|(v, l)| {
                            let mut v = v.clone();
                            rename_operand(&mut v, &defs, uid, c);
                            (v, rename_label_in(l, loop_blocks, uid, c))
                        })
                        .collect();
                    inst.op = InstOp::Phi {
                        ty: ty.clone(),
                        incoming: new_inc,
                    };
                } else {
                    inst.op.map_operands(|op| rename_operand(op, &defs, uid, c));
                    inst.op.map_successor_labels(|l| *l = target_for(l, c));
                }
                blk.insts.push(inst);
            }
            new_blocks.push(blk);
        }
    }

    // Patch the original copy: back edges go to copy 1 (or the sink), and
    // header φs lose their latch entries.
    for b in &mut func.blocks {
        if !loop_blocks.contains(&b.name) {
            continue;
        }
        if let Some(t) = b.insts.last_mut() {
            t.op.map_successor_labels(|l| {
                if l == header {
                    *l = if factor > 1 {
                        copy_label(header, uid, 1)
                    } else {
                        SINK_LABEL.to_string()
                    };
                }
            });
        }
        if b.name == header {
            for inst in &mut b.insts {
                if let InstOp::Phi { incoming, .. } = &mut inst.op {
                    incoming.retain(|(_, l)| !latches.contains(l));
                }
            }
        }
    }

    // Extend φs outside the loop with entries for each copy's exit edges.
    for b in &mut func.blocks {
        if loop_blocks.contains(&b.name) {
            continue;
        }
        for inst in &mut b.insts {
            if let InstOp::Phi { incoming, .. } = &mut inst.op {
                let mut extra = Vec::new();
                for (v, l) in incoming.iter() {
                    if loop_blocks.contains(l) {
                        for c in 1..factor {
                            let mut v = v.clone();
                            rename_operand(&mut v, &defs, uid, c);
                            extra.push((v, rename_label_in(l, loop_blocks, uid, c)));
                        }
                    }
                }
                incoming.extend(extra);
            }
        }
    }

    func.blocks.extend(new_blocks);
}

/// Adds the sink block if any terminator targets it.
fn ensure_sink(func: &mut Function) {
    let needs_sink = func.blocks.iter().any(|b| {
        b.insts
            .last()
            .map(|t| t.op.successor_labels().iter().any(|l| is_sink_label(l)))
            .unwrap_or(false)
    });
    if needs_sink && func.block_index(SINK_LABEL).is_none() {
        let mut sink = Block::new(SINK_LABEL);
        sink.insts.push(Instruction::stmt(InstOp::Unreachable));
        func.blocks.push(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alive2_ir::parser::parse_function;

    fn count_loop(src: &str, factor: u32) -> Function {
        let f = parse_function(src).unwrap();
        let u = unroll_loops(&f, factor).unwrap();
        assert!(u.had_loops);
        // No loops remain.
        let cfg = Cfg::new(&u.func);
        let forest = LoopForest::new(&cfg);
        assert!(!forest.has_loops(), "loops remain:\n{}", u.func);
        let errs = verify_function(&u.func);
        assert!(errs.is_empty(), "verifier: {errs:?}\n{}", u.func);
        u.func
    }

    const COUNT_LOOP: &str = r#"define i32 @sum(i32 %n) {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %i1, %body ]
  %acc = phi i32 [ 0, %entry ], [ %acc1, %body ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %body, label %exit
body:
  %acc1 = add i32 %acc, %i
  %i1 = add i32 %i, 1
  br label %head
exit:
  ret i32 %acc
}"#;

    #[test]
    fn unroll_factor_1_goes_straight_to_sink() {
        let f = count_loop(COUNT_LOOP, 1);
        assert!(f.block_index(SINK_LABEL).is_some());
        // The body's back edge now targets the sink.
        let body = f.block("body").unwrap();
        assert_eq!(
            body.insts.last().unwrap().op.successor_labels(),
            vec![SINK_LABEL]
        );
    }

    #[test]
    fn unroll_factor_3_duplicates_blocks() {
        let f = count_loop(COUNT_LOOP, 3);
        assert!(f.block_index("head.u0c1").is_some());
        assert!(f.block_index("head.u0c2").is_some());
        assert!(f.block_index("body.u0c2").is_some());
        // Copy 2's body jumps to the sink.
        let b2 = f.block("body.u0c2").unwrap();
        assert_eq!(
            b2.insts.last().unwrap().op.successor_labels(),
            vec![SINK_LABEL]
        );
        // Copy 1's header φ draws only from the original latch.
        let h1 = f.block("head.u0c1").unwrap();
        match &h1.insts[0].op {
            InstOp::Phi { incoming, .. } => {
                assert_eq!(incoming.len(), 1);
                assert_eq!(incoming[0].1, "body");
            }
            other => panic!("expected φ, got {other:?}"),
        }
    }

    #[test]
    fn exit_phi_gains_copy_entries() {
        let src = r#"define i32 @f(i32 %n) {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %i1, %head ]
  %i1 = add i32 %i, 1
  %c = icmp slt i32 %i1, %n
  br i1 %c, label %head, label %exit
exit:
  %r = phi i32 [ %i1, %head ]
  ret i32 %r
}"#;
        let f = count_loop(src, 2);
        let exit = f.block("exit").unwrap();
        match &exit.insts[0].op {
            InstOp::Phi { incoming, .. } => {
                assert_eq!(incoming.len(), 2, "{f}");
                assert!(incoming.iter().any(|(_, l)| l == "head"));
                assert!(incoming.iter().any(|(_, l)| l == "head.u0c1"));
            }
            other => panic!("expected φ, got {other:?}"),
        }
    }

    #[test]
    fn nested_loops_unroll_inside_out() {
        let src = r#"define void @f(i1 %c1, i1 %c2) {
entry:
  br label %outer
outer:
  br label %inner
inner:
  br i1 %c1, label %inner, label %latch
latch:
  br i1 %c2, label %outer, label %exit
exit:
  ret void
}"#;
        let f = count_loop(src, 2);
        // Inner loop unrolled first (uid 0), outer second (uid 1), and the
        // outer copy re-duplicates the inner copies.
        assert!(f.block_index("inner.u0c1").is_some());
        assert!(f.block_index("outer.u1c1").is_some());
        assert!(f.to_string().contains("inner.u0c1.u1c1"), "{f}");
    }

    #[test]
    fn no_loops_is_identity() {
        let src = r#"define i32 @f(i32 %x) {
entry:
  ret i32 %x
}"#;
        let f = parse_function(src).unwrap();
        let u = unroll_loops(&f, 4).unwrap();
        assert!(!u.had_loops);
        assert_eq!(u.func, f);
    }

    #[test]
    fn irreducible_is_rejected() {
        let src = r#"define void @f(i1 %c, i1 %d) {
entry:
  br i1 %c, label %a, label %b
a:
  br i1 %d, label %b, label %exit
b:
  br i1 %d, label %a, label %exit
exit:
  ret void
}"#;
        let f = parse_function(src).unwrap();
        assert!(unroll_loops(&f, 2).is_err());
    }

    #[test]
    fn parameters_keep_their_uses() {
        // A parameter dominates every block, so its uses in the entry block
        // and after the loop stay as they are: no slot, no reload.
        let src = r#"define i8 @f(i8 %a, i1 %c) {
entry:
  %x = add i8 %a, 0
  br label %loop
loop:
  br i1 %c, label %loop, label %exit
exit:
  %r = add i8 %a, 1
  ret i8 %r
}"#;
        let f = count_loop(src, 2);
        let insts: Vec<String> = f
            .blocks
            .iter()
            .flat_map(|b| b.insts.iter().map(|i| i.to_string()))
            .collect();
        assert!(insts.iter().any(|i| i == "%x = add i8 %a, 0"), "{f}");
        assert!(insts.iter().any(|i| i == "%r = add i8 %a, 1"), "{f}");
        assert!(
            !insts
                .iter()
                .any(|i| i.contains("alloca") || i.contains("load")),
            "{f}"
        );
    }

    #[test]
    fn live_out_without_phi_is_demoted_to_memory() {
        // %x defined in the loop body and used after the loop without a φ;
        // with two copies neither copy's def dominates the use, so the
        // demotion fallback must kick in.
        let src = r#"define i32 @f(i32 %n) {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %i1, %body ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %body, label %exit
body:
  %x = mul i32 %i, 7
  %i1 = add i32 %i, 1
  br label %head
exit:
  %y = phi i32 [ 0, %head ]
  ret i32 %y
}"#;
        // Rewrite ret to use %x to force a live-out… build variant inline:
        let src = src.replace("ret i32 %y", "ret i32 %x");
        let f = parse_function(&src).unwrap();
        let u = unroll_loops(&f, 2).unwrap();
        let errs = verify_function(&u.func);
        assert!(errs.is_empty(), "verifier: {errs:?}\n{}", u.func);
        let printed = u.func.to_string();
        assert!(printed.contains("alloca"), "demotion expected:\n{printed}");
    }
}
