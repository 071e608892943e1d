//! Control dependence (Definition 3.9).
//!
//! `controlD(ni, nj)` holds when `ni` has two distinct successors `nk`,
//! `nl` such that `nj` post-dominates `nk` but not `nl` — that is, taking
//! one edge out of `ni` commits execution to reaching `nj` while the other
//! edge can avoid it. We say "`nj` is control-dependent on `ni`".
//!
//! [`ControlDeps::new`] finds each branch's dependents by walking the
//! post-dominator tree from every successor up to the branch's immediate
//! post-dominator (Ferrante, Ottenstein and Warren's construction), so its
//! cost is the size of the relation, not one `postDom` query per node
//! pair.

use crate::build::Cfg;
use crate::dominator::PostDomTree;
use crate::graph::NodeId;

/// The control-dependence relation of a CFG, precomputed in both
/// directions.
#[derive(Debug, Clone)]
pub struct ControlDeps {
    /// `deps_of[j]` = the nodes `i` with `controlD(i, j)`.
    deps_of: Vec<Vec<NodeId>>,
    /// `dependents[i]` = the nodes `j` with `controlD(i, j)`.
    dependents: Vec<Vec<NodeId>>,
}

impl ControlDeps {
    /// Computes control dependences from the CFG and its post-dominator
    /// tree. Both directions list their nodes in ascending order.
    ///
    /// # Examples
    ///
    /// ```
    /// use dise_cfg::{build_cfg, ControlDeps, PostDomTree};
    /// use dise_ir::parse_program;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let p = parse_program("proc f(int x) { if (x > 0) { x = 1; } }")?;
    /// let cfg = build_cfg(&p.procs[0]);
    /// let cd = ControlDeps::new(&cfg, &PostDomTree::new(&cfg));
    /// let branch = cfg.cond_nodes().next().unwrap();
    /// let assign = cfg.write_nodes().next().unwrap();
    /// assert!(cd.control_d(branch, assign));
    /// # Ok(())
    /// # }
    /// ```
    pub fn new(cfg: &Cfg, postdom: &PostDomTree) -> ControlDeps {
        let len = cfg.len();
        let mut deps_of = vec![Vec::new(); len];
        let mut dependents = vec![Vec::new(); len];
        for ni in cfg.node_ids() {
            let succs = cfg.succs(ni);
            if succs.len() < 2 {
                continue;
            }
            // The nodes post-dominating every successor are `ipostdom(ni)`
            // and its ancestors, so the nodes post-dominating some but not
            // all successors sit on the tree paths from each successor up
            // to `ipostdom(ni)`, exclusive. A successor that cannot reach
            // `end` is post-dominated by nothing; then every post-dominator
            // of another successor qualifies, and the walk runs to the
            // root inclusive.
            let stop = if succs.iter().all(|&(s, _)| postdom.reaches_end(s)) {
                postdom.ipostdom(ni)
            } else {
                None
            };
            let deps = &mut dependents[ni.index()];
            for &(succ, _) in succs {
                let mut cur = Some(succ).filter(|&s| postdom.reaches_end(s));
                while let Some(nj) = cur.filter(|&n| Some(n) != stop) {
                    deps.push(nj);
                    cur = postdom.ipostdom(nj);
                }
            }
            deps.sort_unstable();
            deps.dedup();
            for &nj in deps.iter() {
                deps_of[nj.index()].push(ni);
            }
        }
        ControlDeps {
            deps_of,
            dependents,
        }
    }

    /// `controlD(ni, nj)`: is `nj` control-dependent on `ni`?
    pub fn control_d(&self, ni: NodeId, nj: NodeId) -> bool {
        self.deps_of[nj.index()].contains(&ni)
    }

    /// The nodes `nj` is control-dependent on.
    pub fn deps_of(&self, nj: NodeId) -> &[NodeId] {
        &self.deps_of[nj.index()]
    }

    /// The nodes control-dependent on `ni`.
    pub fn dependents(&self, ni: NodeId) -> &[NodeId] {
        &self.dependents[ni.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_cfg;
    use dise_ir::parse_program;

    fn setup(src: &str) -> (Cfg, ControlDeps) {
        let cfg = build_cfg(&parse_program(src).unwrap().procs[0]);
        let postdom = PostDomTree::new(&cfg);
        let cd = ControlDeps::new(&cfg, &postdom);
        (cfg, cd)
    }

    /// Finds the unique node whose statement starts on `line`.
    fn at_line(cfg: &Cfg, line: u32) -> NodeId {
        let mut matches = cfg.node_ids().filter(|&n| {
            cfg.node(n).span.line == line && cfg.node(n).role == crate::build::OriginRole::Primary
        });
        let node = matches.next().expect("node at line");
        assert!(matches.next().is_none(), "ambiguous line {line}");
        node
    }

    #[test]
    fn then_and_else_depend_on_branch() {
        let (cfg, cd) = setup(
            "proc f(int x) {\n  if (x > 0) {\n    x = 1;\n  } else {\n    x = 2;\n  }\n  x = 3;\n}",
        );
        let branch = at_line(&cfg, 2);
        let then_stmt = at_line(&cfg, 3);
        let else_stmt = at_line(&cfg, 5);
        let join = at_line(&cfg, 7);
        assert!(cd.control_d(branch, then_stmt));
        assert!(cd.control_d(branch, else_stmt));
        // The join is not control-dependent on the branch.
        assert!(!cd.control_d(branch, join));
        assert_eq!(cd.deps_of(join), &[]);
        let mut dependents = cd.dependents(branch).to_vec();
        dependents.sort();
        assert_eq!(dependents, {
            let mut v = vec![then_stmt, else_stmt];
            v.sort();
            v
        });
    }

    #[test]
    fn paper_example_n1_control_dependent_on_n0() {
        // §3.2: "node n1 is control dependent [on] n0. The node n0 has two
        // successors n1 and n2, where postDom(n1, n1) is true and
        // postDom(n1, n2)… is false."
        let (cfg, cd) = setup(
            "int AltPress = 0;
int Meter = 2;
proc update(int PedalPos, int BSwitch, int PedalCmd) {
  if (PedalPos <= 0) {
    PedalCmd = PedalCmd + 1;
  } else if (PedalPos == 1) {
    PedalCmd = PedalCmd + 2;
  } else {
    PedalCmd = PedalPos;
  }
  PedalCmd = PedalCmd + 1;
}",
        );
        let n0 = at_line(&cfg, 4); // PedalPos <= 0
        let n1 = at_line(&cfg, 5); // PedalCmd = PedalCmd + 1
        let n2 = at_line(&cfg, 6); // PedalPos == 1
        let n3 = at_line(&cfg, 7); // PedalCmd = PedalCmd + 2
        let n5 = at_line(&cfg, 11); // join write
        assert!(cd.control_d(n0, n1));
        assert!(cd.control_d(n0, n2));
        assert!(cd.control_d(n2, n3));
        // Transitivity does NOT hold directly: n3 is not control-dependent
        // on n0 in the flat relation (the affected-set rules add closure).
        assert!(!cd.control_d(n0, n3));
        assert!(!cd.control_d(n0, n5));
    }

    #[test]
    fn loop_body_depends_on_loop_condition() {
        let (cfg, cd) = setup("proc f(int x) {\n  while (x > 0) {\n    x = x - 1;\n  }\n}");
        let branch = at_line(&cfg, 2);
        let body = at_line(&cfg, 3);
        assert!(cd.control_d(branch, body));
        // A loop condition is control-dependent on itself: the back edge
        // re-tests it, the exit edge avoids it.
        assert!(cd.control_d(branch, branch));
    }

    #[test]
    fn straight_line_has_no_control_dependence() {
        let (cfg, cd) = setup("proc f(int x) { x = 1; x = 2; }");
        for i in cfg.node_ids() {
            for j in cfg.node_ids() {
                assert!(!cd.control_d(i, j));
            }
        }
    }

    #[test]
    fn assert_error_node_depends_on_assert_branch() {
        let (cfg, cd) = setup("proc f(int x) { assert(x > 0); x = 1; }");
        let branch = cfg.cond_nodes().next().unwrap();
        let error = cfg.false_succ(branch);
        assert!(cd.control_d(branch, error));
    }

    /// Checks `cd` against Definition 3.9 verbatim — one `postDom` query
    /// per branch, node and successor pair — and checks that both
    /// directions are listed in ascending order.
    fn assert_matches_brute_force(cfg: &Cfg, cd: &ControlDeps) {
        let postdom = PostDomTree::new(cfg);
        for ni in cfg.node_ids() {
            let succs = cfg.succs(ni);
            for nj in cfg.node_ids() {
                let mut expected = false;
                for (a, &(nk, _)) in succs.iter().enumerate() {
                    for (b, &(nl, _)) in succs.iter().enumerate() {
                        if a != b
                            && nk != nl
                            && postdom.post_dominates(nk, nj)
                            && !postdom.post_dominates(nl, nj)
                        {
                            expected = true;
                        }
                    }
                }
                assert_eq!(
                    cd.control_d(ni, nj),
                    expected,
                    "mismatch for controlD({ni}, {nj})"
                );
            }
            assert!(cd.dependents(ni).windows(2).all(|w| w[0] < w[1]));
            assert!(cd.deps_of(ni).windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn matches_brute_force_definition() {
        let (cfg, cd) = setup(
            "proc f(int x, int y) {
               if (x > 0) {
                 if (y > 0) { x = 1; } else { x = 2; }
                 y = 5;
               }
               while (y > 0) { y = y - 1; }
             }",
        );
        assert_matches_brute_force(&cfg, &cd);
    }

    #[test]
    fn constant_loops_keep_their_exit_edge() {
        // The CFG does not fold `true`: the loop keeps its false edge, so
        // every node still reaches `end` and the ordinary walk applies.
        for src in [
            "proc f(int x) { if (x > 0) { while (true) { x = x + 1; } } x = 2; }",
            "proc f(int x, int y) {
               if (x > 0) {
                 if (y > 0) { while (true) { y = y + 1; } }
                 x = 1;
               }
               while (true) { if (y > x) { y = y - 1; } }
               x = 2;
             }",
        ] {
            let (cfg, cd) = setup(src);
            let postdom = PostDomTree::new(&cfg);
            assert!(cfg.node_ids().all(|n| postdom.reaches_end(n)));
            assert_matches_brute_force(&cfg, &cd);
        }
    }

    /// Builds a CFG of `Nop` nodes over `edges`; node 0 is `begin` and the
    /// last node is `end`.
    fn graph_cfg(nodes: usize, edges: &[(u32, u32)]) -> Cfg {
        let mut graph = crate::graph::DiGraph::new();
        for _ in 0..nodes {
            graph.add_node(crate::build::CfgNode {
                kind: crate::build::NodeKind::Nop,
                span: dise_ir::span::Span::dummy(),
                role: crate::build::OriginRole::Primary,
            });
        }
        for &(from, to) in edges {
            graph.add_edge(NodeId(from), NodeId(to), crate::graph::EdgeLabel::Seq);
        }
        Cfg::from_graph(graph, NodeId(0), NodeId(nodes as u32 - 1))
    }

    #[test]
    fn successor_that_cannot_reach_end() {
        // begin → b; b → spin (a loop with no way out) | after; after → end.
        // Nothing post-dominates `spin`, so every post-dominator of the
        // other edge — `after` and `end` itself — depends on `b`.
        let cfg = graph_cfg(5, &[(0, 1), (1, 2), (1, 3), (2, 2), (3, 4)]);
        let cd = ControlDeps::new(&cfg, &PostDomTree::new(&cfg));
        assert_eq!(cd.dependents(NodeId(1)), &[NodeId(3), NodeId(4)]);
        assert_eq!(cd.deps_of(NodeId(2)), &[]);
        assert_matches_brute_force(&cfg, &cd);
    }

    #[test]
    fn nested_successor_that_cannot_reach_end() {
        // begin → b1; b1 → b2 | after; b2 → spin | mid; mid → after;
        // after → end; spin → spin. The inner branch walks to the root;
        // the outer one stops at its post-dominator `after`.
        let cfg = graph_cfg(
            7,
            &[
                (0, 1),
                (1, 2),
                (1, 5),
                (2, 3),
                (2, 4),
                (3, 3),
                (4, 5),
                (5, 6),
            ],
        );
        let cd = ControlDeps::new(&cfg, &PostDomTree::new(&cfg));
        assert_eq!(cd.dependents(NodeId(2)), &[NodeId(4), NodeId(5), NodeId(6)]);
        assert_eq!(cd.dependents(NodeId(1)), &[NodeId(2), NodeId(4)]);
        assert_matches_brute_force(&cfg, &cd);
    }
}
