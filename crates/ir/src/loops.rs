//! Loop nesting forest via the Tarjan–Havlak algorithm (paper §7).
//!
//! The result is a forest of natural (and, when present, irreducible)
//! loops: each node is a loop header whose children are the headers of
//! immediately nested loops. The unroller (in `alive2-sema`) traverses the
//! forest in post-order to unroll inside-out, which keeps the number of
//! unroll operations linear in the number of loops.

use crate::cfg::Cfg;
use std::collections::HashSet;

/// One loop in the nesting forest.
#[derive(Clone, Debug)]
pub struct Loop {
    /// The header block index.
    pub header: usize,
    /// All blocks in the loop body, including the header and the bodies of
    /// nested loops.
    pub blocks: Vec<usize>,
    /// Sources of back edges into the header.
    pub latches: Vec<usize>,
    /// Parent loop index in [`LoopForest::loops`], if nested.
    pub parent: Option<usize>,
    /// Child loop indices (immediately nested loops).
    pub children: Vec<usize>,
    /// True when the loop is irreducible (entered other than through the
    /// header). Alive2-rs refuses to unroll these and reports the function
    /// as unsupported.
    pub irreducible: bool,
}

/// The loop nesting forest of a function.
#[derive(Clone, Debug, Default)]
pub struct LoopForest {
    /// All discovered loops; children always appear before parents (the
    /// discovery order of reverse DFS), so iterating in order visits inner
    /// loops first.
    pub loops: Vec<Loop>,
    /// For each block, the innermost containing loop index.
    pub loop_of: Vec<Option<usize>>,
}

impl LoopForest {
    /// Runs Tarjan–Havlak loop analysis on a CFG.
    pub fn new(cfg: &Cfg) -> LoopForest {
        let n = cfg.len();
        let mut forest = LoopForest {
            loops: Vec::new(),
            loop_of: vec![None; n],
        };
        if n == 0 {
            return forest;
        }

        // DFS numbering.
        let pre = cfg.dfs_preorder();
        let mut number = vec![usize::MAX; n];
        for (i, &b) in pre.iter().enumerate() {
            number[b] = i;
        }
        // last[v] = highest DFS number in v's DFS subtree, for ancestor tests.
        // When a node is popped its whole subtree has been explored, so the
        // highest preorder number assigned so far is exactly its extent.
        let mut last = vec![0usize; n];
        {
            let mut seen = vec![false; n];
            let mut max_assigned = 0usize;
            let mut stack = vec![(0usize, 0usize)];
            seen[0] = true;
            while let Some(&mut (b, ref mut i)) = stack.last_mut() {
                if *i < cfg.succs[b].len() {
                    let s = cfg.succs[b][*i];
                    *i += 1;
                    if !seen[s] {
                        seen[s] = true;
                        max_assigned = max_assigned.max(number[s]);
                        stack.push((s, 0));
                    }
                } else {
                    last[b] = max_assigned.max(number[b]);
                    stack.pop();
                }
            }
        }
        let is_ancestor = |w: usize, v: usize| number[w] <= number[v] && last[v] <= last[w];

        // Union-find over blocks, collapsing inner loops into their header.
        let mut uf: Vec<usize> = (0..n).collect();
        fn find(uf: &mut Vec<usize>, x: usize) -> usize {
            if uf[x] != x {
                let r = find(uf, uf[x]);
                uf[x] = r;
            }
            uf[x]
        }

        // Process headers in reverse DFS preorder (inner loops first).
        for &w in pre.iter().rev() {
            let mut body: HashSet<usize> = HashSet::new();
            let mut latches = Vec::new();
            let mut irreducible = false;
            let mut self_loop = false;
            for &v in &cfg.preds[w] {
                if number[v] == usize::MAX {
                    continue; // unreachable pred
                }
                // Back edge v -> w iff w is a DFS ancestor of v.
                if is_ancestor(w, v) {
                    latches.push(v);
                    if v == w {
                        self_loop = true;
                    } else {
                        body.insert(find(&mut uf, v));
                    }
                }
            }
            body.remove(&w);
            if body.is_empty() && !self_loop && latches.is_empty() {
                continue;
            }
            // Chase predecessors backwards to collect the loop body.
            let mut worklist: Vec<usize> = body.iter().copied().collect();
            while let Some(x) = worklist.pop() {
                for &y in &cfg.preds[x] {
                    if number[y] == usize::MAX {
                        continue;
                    }
                    if is_ancestor(w, y) {
                        // y -> x is not a back edge into w's subtree top
                        let yr = find(&mut uf, y);
                        if yr != w && !body.contains(&yr) {
                            body.insert(yr);
                            worklist.push(yr);
                        }
                    } else {
                        // An entry into the loop that bypasses the header.
                        irreducible = true;
                    }
                }
            }

            // Record the loop.
            let loop_idx = forest.loops.len();
            let mut blocks: Vec<usize> = vec![w];
            for &b in &body {
                blocks.push(b);
            }
            // Nested loops collapsed into their headers: expand to the full
            // block set by inheriting nested loops' blocks.
            let mut full: HashSet<usize> = HashSet::new();
            for &b in &blocks {
                full.insert(b);
                if let Some(li) = forest.loop_of[b] {
                    // b is a (collapsed) inner header: absorb its blocks.
                    let mut stack = vec![li];
                    while let Some(l) = stack.pop() {
                        for &ib in &forest.loops[l].blocks {
                            full.insert(ib);
                        }
                        stack.extend(forest.loops[l].children.iter().copied());
                    }
                }
            }
            let mut full: Vec<usize> = full.into_iter().collect();
            full.sort_unstable();

            // Parent links: inner loops whose headers are in `body` become
            // children of this loop.
            let mut children = Vec::new();
            for (li, l) in forest.loops.iter_mut().enumerate() {
                if l.parent.is_none() && l.header != w && full.contains(&l.header) {
                    l.parent = Some(loop_idx);
                    children.push(li);
                }
            }
            forest.loops.push(Loop {
                header: w,
                blocks: full.clone(),
                latches,
                parent: None,
                children,
                irreducible,
            });
            // Innermost-loop map: blocks not yet assigned belong to this loop.
            for &b in &full {
                if forest.loop_of[b].is_none() {
                    forest.loop_of[b] = Some(loop_idx);
                } else {
                    // keep innermost; but headers of inner loops map to inner
                }
            }
            forest.loop_of[w] = Some(loop_idx);
            // Collapse the loop into its header for outer processing.
            for &b in &body {
                let r = find(&mut uf, b);
                uf[r] = w;
            }
        }
        forest
    }

    /// True if the function has any loops.
    pub fn has_loops(&self) -> bool {
        !self.loops.is_empty()
    }

    /// True if any loop is irreducible.
    pub fn has_irreducible(&self) -> bool {
        self.loops.iter().any(|l| l.irreducible)
    }

    /// Post-order traversal of the loop forest: inner loops before the
    /// loops that contain them — the unrolling order of §7.
    pub fn post_order(&self) -> Vec<usize> {
        // Discovery order already visits inner loops first (reverse DFS
        // preorder of headers), so the identity order is a valid post-order.
        (0..self.loops.len()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_function;

    fn forest_of(src: &str) -> (LoopForest, Cfg) {
        let f = parse_function(src).unwrap();
        let cfg = Cfg::new(&f);
        (LoopForest::new(&cfg), cfg)
    }

    #[test]
    fn straight_line_has_no_loops() {
        let (forest, _) = forest_of(
            r#"define void @f() {
entry:
  br label %exit
exit:
  ret void
}"#,
        );
        assert!(!forest.has_loops());
    }

    #[test]
    fn single_loop() {
        let (forest, _) = forest_of(
            r#"define void @f(i1 %c) {
entry:
  br label %head
head:
  br i1 %c, label %body, label %exit
body:
  br label %head
exit:
  ret void
}"#,
        );
        assert_eq!(forest.loops.len(), 1);
        let l = &forest.loops[0];
        assert_eq!(l.header, 1);
        assert!(l.blocks.contains(&1) && l.blocks.contains(&2));
        assert!(!l.blocks.contains(&0) && !l.blocks.contains(&3));
        assert_eq!(l.latches, vec![2]);
        assert!(!l.irreducible);
    }

    #[test]
    fn self_loop() {
        let (forest, _) = forest_of(
            r#"define void @f(i1 %c) {
entry:
  br label %spin
spin:
  br i1 %c, label %spin, label %exit
exit:
  ret void
}"#,
        );
        assert_eq!(forest.loops.len(), 1);
        assert_eq!(forest.loops[0].header, 1);
        assert_eq!(forest.loops[0].latches, vec![1]);
    }

    #[test]
    fn nested_loops() {
        let (forest, _) = forest_of(
            r#"define void @f(i1 %c1, i1 %c2) {
entry:
  br label %outer
outer:
  br label %inner
inner:
  br i1 %c1, label %inner, label %outer_latch
outer_latch:
  br i1 %c2, label %outer, label %exit
exit:
  ret void
}"#,
        );
        assert_eq!(forest.loops.len(), 2);
        // Inner loop discovered first (reverse DFS preorder).
        let inner = forest
            .loops
            .iter()
            .position(|l| l.header == 2)
            .expect("inner loop at block 2");
        let outer = forest
            .loops
            .iter()
            .position(|l| l.header == 1)
            .expect("outer loop at block 1");
        assert_eq!(forest.loops[inner].parent, Some(outer));
        assert!(forest.loops[outer].children.contains(&inner));
        assert!(forest.loops[outer].blocks.contains(&2));
        assert!(forest.loops[outer].blocks.contains(&3));
        // post_order puts inner before outer
        let po = forest.post_order();
        assert!(po.iter().position(|&i| i == inner) < po.iter().position(|&i| i == outer));
    }

    #[test]
    fn two_sibling_loops() {
        let (forest, _) = forest_of(
            r#"define void @f(i1 %c) {
entry:
  br label %l1
l1:
  br i1 %c, label %l1, label %mid
mid:
  br label %l2
l2:
  br i1 %c, label %l2, label %exit
exit:
  ret void
}"#,
        );
        assert_eq!(forest.loops.len(), 2);
        assert!(forest.loops.iter().all(|l| l.parent.is_none()));
    }

    #[test]
    fn irreducible_loop_detected() {
        // Two-entry cycle between a and b.
        let (forest, _) = forest_of(
            r#"define void @f(i1 %c, i1 %d) {
entry:
  br i1 %c, label %a, label %b
a:
  br i1 %d, label %b, label %exit
b:
  br i1 %d, label %a, label %exit
exit:
  ret void
}"#,
        );
        assert!(forest.has_irreducible());
    }
}
