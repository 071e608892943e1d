//! Dominators and post-dominators.
//!
//! Implements the iterative dominator algorithm of Cooper, Harvey, and
//! Kennedy ("A Simple, Fast Dominance Algorithm") over reverse post-order.
//! Post-dominators are computed by running the same algorithm on the
//! reversed graph rooted at the exit node; [`PostDomTree::post_dominates`]
//! is exactly the `postDom` map of Definition 3.8 (reflexive: every node
//! post-dominates itself).

use crate::build::Cfg;
use crate::graph::{DiGraph, NodeId};

/// The (post-)dominator tree of a CFG.
///
/// Which one it is depends on the constructor: [`DomTree::dominators`]
/// computes dominators from `begin`; [`PostDomTree::new`] computes
/// post-dominators from `end`.
#[derive(Debug, Clone)]
pub struct DomTree {
    root: NodeId,
    /// `idom[n]` is `n`'s immediate dominator; the root maps to itself.
    /// `None` for nodes unreachable in the traversal direction.
    idom: Vec<Option<NodeId>>,
    /// Depth of each node in the dominator tree (root = 0).
    depth: Vec<u32>,
}

impl DomTree {
    /// Computes the dominator tree of `cfg` rooted at `begin`.
    pub fn dominators(cfg: &Cfg) -> DomTree {
        Self::compute(
            cfg.graph().len(),
            cfg.begin(),
            |n| cfg.graph().succs(n).iter().map(|&(s, _)| s).collect(),
            |n| cfg.graph().preds(n).to_vec(),
        )
    }

    /// Generic core: dominators of a graph given successor/predecessor
    /// oracles. `succ` is the traversal direction from `root`.
    fn compute(
        len: usize,
        root: NodeId,
        succ: impl Fn(NodeId) -> Vec<NodeId>,
        pred: impl Fn(NodeId) -> Vec<NodeId>,
    ) -> DomTree {
        // Reverse post-order in the traversal direction.
        let rpo = {
            let mut visited = vec![false; len];
            let mut order = Vec::with_capacity(len);
            let mut stack = vec![(root, 0usize)];
            visited[root.index()] = true;
            while let Some(&mut (node, ref mut next)) = stack.last_mut() {
                let succs = succ(node);
                if let Some(&s) = succs.get(*next) {
                    *next += 1;
                    if !visited[s.index()] {
                        visited[s.index()] = true;
                        stack.push((s, 0));
                    }
                } else {
                    order.push(node);
                    stack.pop();
                }
            }
            order.reverse();
            order
        };
        let mut rpo_number = vec![usize::MAX; len];
        for (i, &n) in rpo.iter().enumerate() {
            rpo_number[n.index()] = i;
        }

        let mut idom: Vec<Option<NodeId>> = vec![None; len];
        idom[root.index()] = Some(root);

        let intersect = |idom: &[Option<NodeId>], mut a: NodeId, mut b: NodeId| -> NodeId {
            while a != b {
                while rpo_number[a.index()] > rpo_number[b.index()] {
                    a = idom[a.index()].expect("processed node has an idom");
                }
                while rpo_number[b.index()] > rpo_number[a.index()] {
                    b = idom[b.index()].expect("processed node has an idom");
                }
            }
            a
        };

        let mut changed = true;
        while changed {
            changed = false;
            for &node in rpo.iter().skip(1) {
                let mut new_idom: Option<NodeId> = None;
                for p in pred(node) {
                    if idom[p.index()].is_none() {
                        continue; // not yet processed or unreachable
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, cur, p),
                    });
                }
                if new_idom.is_some() && idom[node.index()] != new_idom {
                    idom[node.index()] = new_idom;
                    changed = true;
                }
            }
        }

        // Tree depths for fast ancestor queries.
        let mut depth = vec![0u32; len];
        for &node in &rpo {
            if node == root {
                continue;
            }
            if let Some(parent) = idom[node.index()] {
                depth[node.index()] = depth[parent.index()] + 1;
            }
        }

        DomTree { root, idom, depth }
    }

    /// The root of the tree (`begin` for dominators, `end` for
    /// post-dominators).
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The immediate dominator of `n`, or `None` if `n` is the root or
    /// unreachable.
    pub fn idom(&self, n: NodeId) -> Option<NodeId> {
        if n == self.root {
            None
        } else {
            self.idom[n.index()]
        }
    }

    /// Does `a` dominate `b`? Reflexive: `dominates(n, n)` is true for
    /// reachable `n`.
    pub fn dominates(&self, a: NodeId, b: NodeId) -> bool {
        if self.idom[b.index()].is_none() || self.idom[a.index()].is_none() {
            return false; // unreachable nodes dominate nothing
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            if cur == self.root {
                return false;
            }
            // Walk up; use depths to bail out early.
            if self.depth[cur.index()] <= self.depth[a.index()] {
                return false;
            }
            cur = self.idom[cur.index()].expect("reachable non-root has an idom");
        }
    }
}

/// Post-dominator tree: the `postDom` map of Definition 3.8.
#[derive(Debug, Clone)]
pub struct PostDomTree {
    tree: DomTree,
}

impl PostDomTree {
    /// Computes post-dominators of `cfg`, rooted at `end`.
    ///
    /// # Examples
    ///
    /// ```
    /// use dise_cfg::{build_cfg, PostDomTree};
    /// use dise_ir::parse_program;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let p = parse_program("proc f(int x) { if (x > 0) { x = 1; } }")?;
    /// let cfg = build_cfg(&p.procs[0]);
    /// let postdom = PostDomTree::new(&cfg);
    /// // The exit post-dominates everything.
    /// assert!(postdom.post_dominates(cfg.begin(), cfg.end()));
    /// # Ok(())
    /// # }
    /// ```
    pub fn new(cfg: &Cfg) -> PostDomTree {
        let graph: &DiGraph<_> = cfg.graph();
        PostDomTree {
            tree: DomTree::compute(
                graph.len(),
                cfg.end(),
                |n| graph.preds(n).to_vec(),
                |n| graph.succs(n).iter().map(|&(s, _)| s).collect(),
            ),
        }
    }

    /// `postDom(ni, nj)` of Definition 3.8: does `nj` post-dominate `ni`,
    /// i.e. does every CFG path from `ni` to `end` pass through `nj`?
    /// Reflexive.
    pub fn post_dominates(&self, ni: NodeId, nj: NodeId) -> bool {
        self.tree.dominates(nj, ni)
    }

    /// The immediate post-dominator of `n` (`None` for the exit node and
    /// for nodes that cannot reach it).
    pub fn ipostdom(&self, n: NodeId) -> Option<NodeId> {
        self.tree.idom(n)
    }

    /// Is `n` in the tree, i.e. can it reach the exit node? A node that
    /// cannot (on a loop with no exit edge) is post-dominated by nothing,
    /// not even itself.
    pub(crate) fn reaches_end(&self, n: NodeId) -> bool {
        self.tree.idom[n.index()].is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_cfg;
    use dise_ir::parse_program;

    fn cfg_of(src: &str) -> Cfg {
        build_cfg(&parse_program(src).unwrap().procs[0])
    }

    #[test]
    fn diamond_post_dominators() {
        let cfg = cfg_of("proc f(int x) { if (x > 0) { x = 1; } else { x = 2; } x = 3; }");
        let postdom = PostDomTree::new(&cfg);
        let branch = cfg.cond_nodes().next().unwrap();
        let t = cfg.true_succ(branch);
        let f = cfg.false_succ(branch);
        let join = cfg.succs(t)[0].0; // `x = 3`
                                      // The join post-dominates the branch and both arms.
        assert!(postdom.post_dominates(branch, join));
        assert!(postdom.post_dominates(t, join));
        assert!(postdom.post_dominates(f, join));
        // Neither arm post-dominates the branch.
        assert!(!postdom.post_dominates(branch, t));
        assert!(!postdom.post_dominates(branch, f));
        // Reflexivity.
        assert!(postdom.post_dominates(branch, branch));
    }

    #[test]
    fn paper_example_postdominance() {
        // §3.2: "postDom(n0, n5) returns true because all paths from node n0
        // to n_end have to go through n5".
        let cfg = cfg_of(
            "int AltPress = 0;
             int Meter = 2;
             proc update(int PedalPos, int BSwitch, int PedalCmd) {
               if (PedalPos <= 0) { PedalCmd = PedalCmd + 1; }
               else if (PedalPos == 1) { PedalCmd = PedalCmd + 2; }
               else { PedalCmd = PedalPos; }
               PedalCmd = PedalCmd + 1;
               if (BSwitch == 0) { Meter = 1; }
             }",
        );
        let postdom = PostDomTree::new(&cfg);
        // n0 = first branch (line 4); n5 = `PedalCmd = PedalCmd + 1` (line 7).
        let n0 = cfg
            .cond_nodes()
            .find(|&n| cfg.node(n).span.line == 4)
            .unwrap();
        let n5 = cfg
            .write_nodes()
            .find(|&n| cfg.node(n).span.line == 7)
            .unwrap();
        assert!(postdom.post_dominates(n0, n5));
        assert!(!postdom.post_dominates(n5, n0));
    }

    #[test]
    fn loop_postdominance() {
        let cfg = cfg_of("proc f(int x) { while (x > 0) { x = x - 1; } x = 9; }");
        let postdom = PostDomTree::new(&cfg);
        let branch = cfg.cond_nodes().next().unwrap();
        let body = cfg.true_succ(branch);
        let after = cfg.false_succ(branch);
        // The loop branch post-dominates the body (the body must return to it).
        assert!(postdom.post_dominates(body, branch));
        // The after-loop statement post-dominates the branch.
        assert!(postdom.post_dominates(branch, after));
        // The body does not post-dominate the branch.
        assert!(!postdom.post_dominates(branch, body));
    }

    #[test]
    fn dominators_of_diamond() {
        let cfg = cfg_of("proc f(int x) { if (x > 0) { x = 1; } else { x = 2; } x = 3; }");
        let dom = DomTree::dominators(&cfg);
        let branch = cfg.cond_nodes().next().unwrap();
        let t = cfg.true_succ(branch);
        let join = cfg.succs(t)[0].0;
        assert!(dom.dominates(cfg.begin(), join));
        assert!(dom.dominates(branch, join));
        assert!(!dom.dominates(t, join));
        assert_eq!(dom.idom(join), Some(branch));
        assert_eq!(dom.idom(cfg.begin()), None);
        assert_eq!(dom.root(), cfg.begin());
    }

    #[test]
    fn end_postdominates_everything() {
        let cfg = cfg_of(
            "proc f(int x) {
               if (x > 0) { assert(x < 10); } else { while (x < 0) { x = x + 1; } }
             }",
        );
        let postdom = PostDomTree::new(&cfg);
        for n in cfg.node_ids() {
            assert!(
                postdom.post_dominates(n, cfg.end()),
                "{n} not postdominated by end"
            );
            assert!(postdom.post_dominates(n, n), "postdom not reflexive at {n}");
        }
    }

    #[test]
    fn ipostdom_of_branch_is_join() {
        let cfg = cfg_of("proc f(int x) { if (x > 0) { x = 1; } else { x = 2; } x = 3; }");
        let postdom = PostDomTree::new(&cfg);
        let branch = cfg.cond_nodes().next().unwrap();
        let t = cfg.true_succ(branch);
        let join = cfg.succs(t)[0].0;
        assert_eq!(postdom.ipostdom(branch), Some(join));
        assert_eq!(postdom.ipostdom(cfg.end()), None);
    }
}
