//! The `IsCFGPath` relation (Definition 3.2): reflexive-transitive
//! reachability over CFG edges.
//!
//! Definition 3.2 admits the single-node sequence `⟨ni⟩`, so
//! `IsCFGPath(n, n)` is `true` for every node. Reflexivity matters: the
//! directed-search procedure (Fig. 6, line 19) asks whether a successor
//! state's node can reach an unexplored affected node, and a successor that
//! *is* such a node must answer yes (this is what makes the Table 1 trace
//! come out as printed).
//!
//! The closure is stored as one bitset row per node, so queries are O(1)
//! and construction is O(V·E/64) — negligible for procedure-sized CFGs.

use crate::build::Cfg;
use crate::graph::NodeId;

/// Precomputed reflexive-transitive reachability.
#[derive(Debug, Clone)]
pub struct Reachability {
    words_per_row: usize,
    rows: Vec<u64>,
    len: usize,
}

impl Reachability {
    /// Computes the closure for `cfg`.
    ///
    /// # Examples
    ///
    /// ```
    /// use dise_cfg::{build_cfg, Reachability};
    /// use dise_ir::parse_program;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let p = parse_program("proc f(int x) { x = 1; x = 2; }")?;
    /// let cfg = build_cfg(&p.procs[0]);
    /// let reach = Reachability::new(&cfg);
    /// assert!(reach.is_cfg_path(cfg.begin(), cfg.end()));
    /// assert!(!reach.is_cfg_path(cfg.end(), cfg.begin()));
    /// # Ok(())
    /// # }
    /// ```
    pub fn new(cfg: &Cfg) -> Reachability {
        let len = cfg.len();
        let words_per_row = len.div_ceil(64);
        let mut rows = vec![0u64; len * words_per_row];

        // Process nodes in reverse post-order from begin so that in a DAG a
        // single pass suffices; iterate to a fixed point for back edges.
        let order = cfg.graph().reverse_post_order(cfg.begin());
        let mut changed = true;
        while changed {
            changed = false;
            for &n in order.iter().rev() {
                let base = n.index() * words_per_row;
                // Self bit (reflexive).
                let self_word = base + n.index() / 64;
                if rows[self_word] & (1 << (n.index() % 64)) == 0 {
                    rows[self_word] |= 1 << (n.index() % 64);
                    changed = true;
                }
                // Union in each successor's row.
                for &(succ, _) in cfg.succs(n) {
                    let succ_base = succ.index() * words_per_row;
                    for w in 0..words_per_row {
                        let bits = rows[succ_base + w];
                        if rows[base + w] | bits != rows[base + w] {
                            rows[base + w] |= bits;
                            changed = true;
                        }
                    }
                }
            }
        }
        Reachability {
            words_per_row,
            rows,
            len,
        }
    }

    /// `IsCFGPath(ni, nj)`: is there a (possibly empty) path from `ni` to
    /// `nj`?
    pub fn is_cfg_path(&self, ni: NodeId, nj: NodeId) -> bool {
        let base = ni.index() * self.words_per_row;
        self.rows[base + nj.index() / 64] & (1 << (nj.index() % 64)) != 0
    }

    /// The closure row of `n` as bitset words: bit `j % 64` of word
    /// `j / 64` is set when `IsCFGPath(n, nj)`. Every row has the same
    /// length, `len().div_ceil(64)` words.
    pub fn row(&self, n: NodeId) -> &[u64] {
        let base = n.index() * self.words_per_row;
        &self.rows[base..base + self.words_per_row]
    }

    /// Iterates over every node reachable from `n` (including `n`).
    pub fn reachable_from(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let base = n.index() * self.words_per_row;
        (0..self.len).filter_map(move |j| {
            if self.rows[base + j / 64] & (1 << (j % 64)) != 0 {
                Some(NodeId(j as u32))
            } else {
                None
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_cfg;
    use dise_ir::parse_program;

    fn setup(src: &str) -> (Cfg, Reachability) {
        let cfg = build_cfg(&parse_program(src).unwrap().procs[0]);
        let reach = Reachability::new(&cfg);
        (cfg, reach)
    }

    #[test]
    fn reflexive_on_every_node() {
        let (cfg, reach) = setup("proc f(int x) { if (x > 0) { x = 1; } x = 2; }");
        for n in cfg.node_ids() {
            assert!(reach.is_cfg_path(n, n));
        }
    }

    #[test]
    fn respects_branch_structure() {
        let (cfg, reach) =
            setup("proc f(int x) {\n  if (x > 0) {\n    x = 1;\n  } else {\n    x = 2;\n  }\n}");
        let branch = cfg.cond_nodes().next().unwrap();
        let t = cfg.true_succ(branch);
        let f = cfg.false_succ(branch);
        assert!(reach.is_cfg_path(branch, t));
        assert!(reach.is_cfg_path(branch, f));
        // The arms cannot reach each other.
        assert!(!reach.is_cfg_path(t, f));
        assert!(!reach.is_cfg_path(f, t));
        // Neither arm reaches back to the branch.
        assert!(!reach.is_cfg_path(t, branch));
    }

    #[test]
    fn loop_members_reach_each_other() {
        let (cfg, reach) = setup("proc f(int x) { while (x > 0) { x = x - 1; } x = 9; }");
        let branch = cfg.cond_nodes().next().unwrap();
        let body = cfg.true_succ(branch);
        let after = cfg.false_succ(branch);
        assert!(reach.is_cfg_path(branch, body));
        assert!(reach.is_cfg_path(body, branch)); // back edge
        assert!(reach.is_cfg_path(body, after));
        assert!(!reach.is_cfg_path(after, branch));
    }

    #[test]
    fn matches_dfs_brute_force() {
        let (cfg, reach) = setup(
            "proc f(int x, int y) {
               while (x > 0) {
                 if (y > 0) { y = y - 1; } else { x = x - 1; }
               }
               assert(x <= 0);
             }",
        );
        for a in cfg.node_ids() {
            let dfs = cfg.graph().reachable_from(a);
            for b in cfg.node_ids() {
                assert_eq!(
                    reach.is_cfg_path(a, b),
                    dfs[b.index()],
                    "mismatch for IsCFGPath({a}, {b})"
                );
            }
        }
    }

    #[test]
    fn reachable_from_iterates_closure() {
        let (cfg, reach) = setup("proc f(int x) { x = 1; x = 2; }");
        let from_begin: Vec<_> = reach.reachable_from(cfg.begin()).collect();
        assert_eq!(from_begin.len(), cfg.len());
        let from_end: Vec<_> = reach.reachable_from(cfg.end()).collect();
        assert_eq!(from_end, vec![cfg.end()]);
    }

    #[test]
    fn large_cfg_crosses_word_boundary() {
        // More than 64 nodes to exercise multi-word rows.
        let mut body = String::new();
        for i in 0..70 {
            body.push_str(&format!("x = x + {i};\n"));
        }
        let (cfg, reach) = setup(&format!("proc f(int x) {{ {body} }}"));
        assert!(cfg.len() > 64);
        assert!(reach.is_cfg_path(cfg.begin(), cfg.end()));
        let mid = cfg.write_nodes().nth(35).unwrap();
        assert!(reach.is_cfg_path(cfg.begin(), mid));
        assert!(reach.is_cfg_path(mid, cfg.end()));
        assert!(!reach.is_cfg_path(cfg.end(), mid));
    }
}
