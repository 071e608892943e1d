//! Symbolic execution tree capture and rendering (Fig. 1).
//!
//! When [`crate::ExecConfig::record_tree`] is set, the executor records
//! every entered state with its parent link; [`ExecTree::render`] prints
//! the tree in the style of the paper's Fig. 1 ("Loc: …, x: X, y: Y + X,
//! PC: X > 0").

use dise_cfg::Cfg;
use dise_solver::PathCondition;

use crate::state::SymState;

/// One recorded state.
#[derive(Debug, Clone)]
pub struct TreeNode {
    /// Index of the parent state in the tree, `None` for the root.
    pub parent: Option<usize>,
    /// Pretty label: location, environment, and path condition.
    pub label: String,
    /// The CFG node's display label (statement text).
    pub node_label: String,
}

/// A captured symbolic execution tree.
#[derive(Debug, Clone, Default)]
pub struct ExecTree {
    nodes: Vec<TreeNode>,
}

impl ExecTree {
    /// An empty tree.
    pub fn new() -> ExecTree {
        ExecTree::default()
    }

    /// Records a state reached under the path condition `pc`; returns
    /// its index for child links.
    pub fn record(
        &mut self,
        parent: Option<usize>,
        state: &SymState,
        pc: &PathCondition,
        cfg: &Cfg,
    ) -> usize {
        let index = self.nodes.len();
        self.nodes.push(TreeNode {
            parent,
            label: state.label(pc),
            node_label: cfg.label(state.node),
        });
        index
    }

    /// The recorded states in visit order.
    pub fn nodes(&self) -> &[TreeNode] {
        &self.nodes
    }

    /// Number of recorded states.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Renders the tree with box-drawing characters, one state per line.
    ///
    /// ```text
    /// Loc: n0, x: X, y: Y, PC: true
    /// ├─ Loc: n1, x: X, y: Y, PC: X > 0
    /// │  └─ ...
    /// └─ Loc: n2, x: X, y: Y, PC: !(X > 0)
    /// ```
    pub fn render(&self) -> String {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.nodes.len()];
        let mut roots = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            match node.parent {
                Some(p) => children[p].push(i),
                None => roots.push(i),
            }
        }
        let mut out = String::new();
        for &root in &roots {
            self.render_node(root, "", true, true, &children, &mut out);
        }
        out
    }

    fn render_node(
        &self,
        index: usize,
        prefix: &str,
        is_last: bool,
        is_root: bool,
        children: &[Vec<usize>],
        out: &mut String,
    ) {
        let node = &self.nodes[index];
        if is_root {
            out.push_str(&node.label);
            out.push('\n');
        } else {
            out.push_str(prefix);
            out.push_str(if is_last { "└─ " } else { "├─ " });
            out.push_str(&node.label);
            out.push('\n');
        }
        let child_prefix = if is_root {
            prefix.to_string()
        } else if is_last {
            format!("{prefix}   ")
        } else {
            format!("{prefix}│  ")
        };
        let kids = &children[index];
        for (pos, &child) in kids.iter().enumerate() {
            self.render_node(
                child,
                &child_prefix,
                pos + 1 == kids.len(),
                false,
                children,
                out,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{ExecConfig, Executor, FullExploration};
    use dise_ir::parse_program;

    fn captured_tree(src: &str, proc: &str) -> ExecTree {
        let program = parse_program(src).unwrap();
        let config = ExecConfig {
            record_tree: true,
            ..ExecConfig::default()
        };
        let mut executor = Executor::new(&program, proc, config).unwrap();
        let summary = executor.explore(&mut FullExploration);
        summary.tree().unwrap().clone()
    }

    #[test]
    fn tree_matches_states_explored() {
        let tree = captured_tree(
            "int y;
             proc testX(int x) {
               if (x > 0) { y = y + x; } else { y = y - x; }
             }",
            "testX",
        );
        // begin, branch, two assignment states, two end states = 6.
        assert_eq!(tree.len(), 6);
    }

    #[test]
    fn render_contains_figure1_labels() {
        let tree = captured_tree(
            "int y;
             proc testX(int x) {
               if (x > 0) { y = y + x; } else { y = y - x; }
             }",
            "testX",
        );
        let rendered = tree.render();
        assert!(rendered.contains("PC: X > 0"));
        assert!(rendered.contains("PC: X <= 0"));
        assert!(rendered.contains("y: Y + X"));
        assert!(rendered.contains("y: Y - X"));
        assert!(rendered.contains("├─") || rendered.contains("└─"));
    }

    #[test]
    fn straight_line_renders_as_chain() {
        let tree = captured_tree("proc f(int x) { x = 1; }", "f");
        let rendered = tree.render();
        // begin, assign, end: three lines, no branch glyphs beyond └─.
        assert_eq!(rendered.lines().count(), 3);
        assert!(!rendered.contains("├─"));
    }

    #[test]
    fn empty_tree_renders_empty() {
        assert!(ExecTree::new().render().is_empty());
        assert!(ExecTree::new().is_empty());
    }
}
