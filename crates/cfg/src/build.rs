//! CFG construction from MJ procedures.
//!
//! The produced graph matches Definition 3.1 of the paper:
//!
//! * a single virtual `begin` node and a single virtual `end` node;
//! * every node is reachable from `begin` (statements that follow a
//!   `return` are pruned), and `end` is reachable from every node (every
//!   branch keeps both out-edges, so even a syntactically infinite loop has
//!   a path to `end` in the *graph*);
//! * `assert(c)` is desugared into a branch on `c` whose false edge leads to
//!   a dedicated error node (mirroring Java's bytecode-level de-sugaring of
//!   assertions discussed in §5.1);
//! * statement nodes partition into *write* nodes (Definition 3.5) and
//!   *conditional* nodes (Definition 3.4).
//!
//! Each node records the [`Span`] of the statement it came from plus an
//! [`OriginRole`] discriminator so the differencing analysis can map AST
//! statements to CFG nodes (an `assert` owns two nodes).

use std::collections::HashMap;
use std::fmt;

use dise_ir::ast::{Block, Expr, Procedure, Stmt, StmtKind};
use dise_ir::pretty::pretty_expr;
use dise_ir::Span;

use crate::graph::{DiGraph, EdgeLabel, NodeId};

/// What a CFG node does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// The unique entry node (`n_begin`).
    Begin,
    /// The unique exit node (`n_end`).
    End,
    /// A write: `var = value`. These are the `Write` nodes of
    /// Definition 3.5.
    Assign {
        /// The defined variable (Definition 3.6's `Def`).
        var: String,
        /// The right-hand side.
        value: Expr,
    },
    /// A two-way conditional branch. These are `Cond` nodes
    /// (Definition 3.4); the out-edges are labelled `True`/`False`.
    Branch {
        /// The branch condition.
        cond: Expr,
    },
    /// An `assume(cond)`: adds `cond` to the path condition without
    /// branching. Classified as a `Cond` node because it constrains the
    /// path condition.
    Assume {
        /// The assumed condition.
        cond: Expr,
    },
    /// The failure target of a desugared `assert`.
    Error {
        /// Human-readable description of the violated assertion.
        message: String,
    },
    /// A procedure call, kept as a single opaque node. The paper's
    /// intra-procedural analyses never see these (they run over flattened
    /// programs); the compositional executor dispatches them to a
    /// procedure summary instead of descending into the callee.
    Call {
        /// The callee's name.
        callee: String,
        /// Actual arguments in declaration order.
        args: Vec<Expr>,
    },
    /// A no-op (`skip;` or the marker node of a `return;`).
    Nop,
}

impl NodeKind {
    /// Is this a `Cond` node (Definition 3.4)?
    pub fn is_cond(&self) -> bool {
        matches!(self, NodeKind::Branch { .. } | NodeKind::Assume { .. })
    }

    /// Is this a `Write` node (Definition 3.5)?
    pub fn is_write(&self) -> bool {
        matches!(self, NodeKind::Assign { .. })
    }

    /// Is this an error (assertion-failure) node?
    pub fn is_error(&self) -> bool {
        matches!(self, NodeKind::Error { .. })
    }

    /// Is this a procedure-call node (summary-mode CFGs only)?
    pub fn is_call(&self) -> bool {
        matches!(self, NodeKind::Call { .. })
    }
}

/// Distinguishes the multiple CFG nodes a single statement can own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OriginRole {
    /// The main node of the statement (the branch of an `if`, the single
    /// node of an assignment, the branch of a desugared `assert`, …).
    Primary,
    /// The error node of a desugared `assert`.
    AssertError,
}

/// A CFG node: its kind plus provenance back to the AST.
#[derive(Debug, Clone)]
pub struct CfgNode {
    /// What the node does.
    pub kind: NodeKind,
    /// Span of the originating statement ([`Span::dummy`] for
    /// `begin`/`end`).
    pub span: Span,
    /// Which of the statement's nodes this is.
    pub role: OriginRole,
}

impl CfgNode {
    fn synthetic(kind: NodeKind) -> Self {
        CfgNode {
            kind,
            span: Span::dummy(),
            role: OriginRole::Primary,
        }
    }
}

impl fmt::Display for CfgNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            NodeKind::Begin => f.write_str("begin"),
            NodeKind::End => f.write_str("end"),
            NodeKind::Assign { var, value } => {
                write!(f, "{var} = {}", pretty_expr(value))
            }
            NodeKind::Branch { cond } => write!(f, "{}", pretty_expr(cond)),
            NodeKind::Assume { cond } => write!(f, "assume {}", pretty_expr(cond)),
            NodeKind::Error { message } => write!(f, "error: {message}"),
            NodeKind::Call { callee, args } => {
                let rendered: Vec<String> = args.iter().map(pretty_expr).collect();
                write!(f, "call {callee}({})", rendered.join(", "))
            }
            NodeKind::Nop => f.write_str("nop"),
        }
    }
}

/// The control-flow graph of one procedure (Definition 3.1).
#[derive(Debug, Clone)]
pub struct Cfg {
    proc_name: String,
    graph: DiGraph<CfgNode>,
    begin: NodeId,
    end: NodeId,
}

impl Cfg {
    /// A CFG over a hand-built graph, for shapes `build_cfg` never emits
    /// (every node it builds can reach `end`).
    #[cfg(test)]
    pub(crate) fn from_graph(graph: DiGraph<CfgNode>, begin: NodeId, end: NodeId) -> Cfg {
        Cfg {
            proc_name: "test".to_string(),
            graph,
            begin,
            end,
        }
    }

    /// The name of the procedure this CFG was built from.
    pub fn proc_name(&self) -> &str {
        &self.proc_name
    }

    /// The virtual entry node.
    pub fn begin(&self) -> NodeId {
        self.begin
    }

    /// The virtual exit node.
    pub fn end(&self) -> NodeId {
        self.end
    }

    /// Number of nodes, including `begin` and `end`.
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// Returns `true` if the CFG has no nodes (never true for built CFGs).
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }

    /// The node payload.
    pub fn node(&self, id: NodeId) -> &CfgNode {
        self.graph.node(id)
    }

    /// Labelled successor edges.
    pub fn succs(&self, id: NodeId) -> &[(NodeId, EdgeLabel)] {
        self.graph.succs(id)
    }

    /// Predecessors.
    pub fn preds(&self, id: NodeId) -> &[NodeId] {
        self.graph.preds(id)
    }

    /// All node ids in index order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.graph.node_ids()
    }

    /// The underlying graph (read-only), for generic algorithms.
    pub fn graph(&self) -> &DiGraph<CfgNode> {
        &self.graph
    }

    /// Iterates over the `Cond` nodes (Definition 3.4).
    pub fn cond_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.graph
            .iter()
            .filter(|(_, n)| n.kind.is_cond())
            .map(|(id, _)| id)
    }

    /// Iterates over the `Write` nodes (Definition 3.5).
    pub fn write_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.graph
            .iter()
            .filter(|(_, n)| n.kind.is_write())
            .map(|(id, _)| id)
    }

    /// The successor reached when a [`NodeKind::Branch`] node's condition is
    /// true.
    ///
    /// # Panics
    ///
    /// Panics if `id` has no `True`-labelled out-edge.
    pub fn true_succ(&self, id: NodeId) -> NodeId {
        self.labelled_succ(id, EdgeLabel::True)
            .expect("branch node has a true successor")
    }

    /// The successor reached when a [`NodeKind::Branch`] node's condition is
    /// false.
    ///
    /// # Panics
    ///
    /// Panics if `id` has no `False`-labelled out-edge.
    pub fn false_succ(&self, id: NodeId) -> NodeId {
        self.labelled_succ(id, EdgeLabel::False)
            .expect("branch node has a false successor")
    }

    fn labelled_succ(&self, id: NodeId, label: EdgeLabel) -> Option<NodeId> {
        self.graph
            .succs(id)
            .iter()
            .find(|(_, l)| *l == label)
            .map(|&(n, _)| n)
    }

    /// Human-readable label such as `"2: PedalPos <= 0"` (line number then
    /// the statement text), used by the trace renderers and DOT export.
    pub fn label(&self, id: NodeId) -> String {
        let node = self.node(id);
        if node.span.is_dummy() {
            format!("{node}")
        } else {
            format!("{}: {node}", node.span.line)
        }
    }
}

/// Builds the CFG for `procedure`.
///
/// # Examples
///
/// ```
/// use dise_cfg::build_cfg;
/// use dise_ir::parse_program;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = parse_program("proc f(int x) { while (x > 0) { x = x - 1; } }")?;
/// let cfg = build_cfg(&p.procs[0]);
/// // begin, end, the loop branch, and the body assignment:
/// assert_eq!(cfg.len(), 4);
/// # Ok(())
/// # }
/// ```
pub fn build_cfg(procedure: &Procedure) -> Cfg {
    build(procedure, false)
}

/// Like [`build_cfg`], but lowers `StmtKind::Call` to an opaque
/// [`NodeKind::Call`] node with a single sequential out-edge instead of
/// panicking. Used by the compositional executor, which dispatches call
/// nodes to procedure summaries; the paper's intra-procedural analyses
/// keep using [`build_cfg`] over flattened programs and never see call
/// nodes.
pub fn build_cfg_with_calls(procedure: &Procedure) -> Cfg {
    build(procedure, true)
}

fn build(procedure: &Procedure, allow_calls: bool) -> Cfg {
    let mut builder = Builder {
        graph: DiGraph::new(),
        exit_pending: Vec::new(),
        allow_calls,
    };
    let begin = builder.graph.add_node(CfgNode::synthetic(NodeKind::Begin));
    let frontier = builder.block(&procedure.body, vec![(begin, EdgeLabel::Seq)]);
    let end = builder.graph.add_node(CfgNode::synthetic(NodeKind::End));
    for (from, label) in frontier {
        builder.graph.add_edge(from, end, label);
    }
    for (from, label) in std::mem::take(&mut builder.exit_pending) {
        builder.graph.add_edge(from, end, label);
    }
    prune_unreachable(builder.graph, begin, end, procedure.name.clone())
}

struct Builder {
    graph: DiGraph<CfgNode>,
    /// Edges that must go directly to the exit node (returns, error nodes).
    exit_pending: Vec<(NodeId, EdgeLabel)>,
    /// Lower calls to [`NodeKind::Call`] instead of panicking.
    allow_calls: bool,
}

/// A set of dangling out-edges waiting for their target node.
type Frontier = Vec<(NodeId, EdgeLabel)>;

impl Builder {
    fn block(&mut self, block: &Block, mut frontier: Frontier) -> Frontier {
        for stmt in &block.stmts {
            frontier = self.stmt(stmt, frontier);
        }
        frontier
    }

    fn connect(&mut self, frontier: Frontier, to: NodeId) {
        for (from, label) in frontier {
            self.graph.add_edge(from, to, label);
        }
    }

    fn stmt(&mut self, stmt: &Stmt, frontier: Frontier) -> Frontier {
        match &stmt.kind {
            StmtKind::Decl { name, init, .. } => self.simple(
                NodeKind::Assign {
                    var: name.clone(),
                    value: init.clone(),
                },
                stmt.span,
                frontier,
            ),
            StmtKind::Assign { name, value } => self.simple(
                NodeKind::Assign {
                    var: name.clone(),
                    value: value.clone(),
                },
                stmt.span,
                frontier,
            ),
            StmtKind::Skip => self.simple(NodeKind::Nop, stmt.span, frontier),
            StmtKind::Assume { cond } => {
                self.simple(NodeKind::Assume { cond: cond.clone() }, stmt.span, frontier)
            }
            StmtKind::Return => {
                let node = self.graph.add_node(CfgNode {
                    kind: NodeKind::Nop,
                    span: stmt.span,
                    role: OriginRole::Primary,
                });
                self.connect(frontier, node);
                self.exit_pending.push((node, EdgeLabel::Seq));
                Vec::new() // nothing after a return is reachable
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let branch = self.graph.add_node(CfgNode {
                    kind: NodeKind::Branch { cond: cond.clone() },
                    span: stmt.span,
                    role: OriginRole::Primary,
                });
                self.connect(frontier, branch);
                let mut out = self.block(then_branch, vec![(branch, EdgeLabel::True)]);
                match else_branch {
                    Some(else_block) => {
                        let else_out = self.block(else_block, vec![(branch, EdgeLabel::False)]);
                        out.extend(else_out);
                    }
                    None => out.push((branch, EdgeLabel::False)),
                }
                out
            }
            StmtKind::While { cond, body } => {
                let branch = self.graph.add_node(CfgNode {
                    kind: NodeKind::Branch { cond: cond.clone() },
                    span: stmt.span,
                    role: OriginRole::Primary,
                });
                self.connect(frontier, branch);
                let body_out = self.block(body, vec![(branch, EdgeLabel::True)]);
                self.connect(body_out, branch); // back edge
                vec![(branch, EdgeLabel::False)]
            }
            StmtKind::Call { callee, args } => {
                if !self.allow_calls {
                    panic!(
                        "build_cfg: procedure contains a call to `{callee}`; DiSE's analyses are \
                         intra-procedural — inline calls first (dise_ir::inline::inline_program)"
                    );
                }
                self.simple(
                    NodeKind::Call {
                        callee: callee.clone(),
                        args: args.clone(),
                    },
                    stmt.span,
                    frontier,
                )
            }
            StmtKind::Assert { cond, label } => {
                let branch = self.graph.add_node(CfgNode {
                    kind: NodeKind::Branch { cond: cond.clone() },
                    span: stmt.span,
                    role: OriginRole::Primary,
                });
                self.connect(frontier, branch);
                let text = label.clone().unwrap_or_else(|| pretty_expr(cond));
                let error = self.graph.add_node(CfgNode {
                    kind: NodeKind::Error {
                        message: format!("assertion failed: {text}"),
                    },
                    span: stmt.span,
                    role: OriginRole::AssertError,
                });
                self.graph.add_edge(branch, error, EdgeLabel::False);
                self.exit_pending.push((error, EdgeLabel::Seq));
                vec![(branch, EdgeLabel::True)]
            }
        }
    }

    fn simple(&mut self, kind: NodeKind, span: Span, frontier: Frontier) -> Frontier {
        let node = self.graph.add_node(CfgNode {
            kind,
            span,
            role: OriginRole::Primary,
        });
        self.connect(frontier, node);
        vec![(node, EdgeLabel::Seq)]
    }
}

/// Rebuilds the graph keeping only nodes reachable from `begin`, preserving
/// relative order (so node indices stay stable and small).
fn prune_unreachable(
    graph: DiGraph<CfgNode>,
    begin: NodeId,
    end: NodeId,
    proc_name: String,
) -> Cfg {
    let reachable = graph.reachable_from(begin);
    if reachable.iter().all(|&r| r) {
        return Cfg {
            proc_name,
            graph,
            begin,
            end,
        };
    }
    let mut remap: HashMap<NodeId, NodeId> = HashMap::new();
    let mut pruned = DiGraph::new();
    for (id, node) in graph.iter() {
        if reachable[id.index()] {
            remap.insert(id, pruned.add_node(node.clone()));
        }
    }
    for (id, _) in graph.iter() {
        if !reachable[id.index()] {
            continue;
        }
        for &(succ, label) in graph.succs(id) {
            if reachable[succ.index()] {
                pruned.add_edge(remap[&id], remap[&succ], label);
            }
        }
    }
    Cfg {
        proc_name,
        begin: remap[&begin],
        end: remap[&end],
        graph: pruned,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dise_ir::parse_program;

    fn cfg_of(src: &str) -> Cfg {
        let program = parse_program(src).unwrap();
        build_cfg(&program.procs[0])
    }

    #[test]
    fn straight_line_code() {
        let cfg = cfg_of("proc f(int x) { x = 1; x = 2; }");
        // begin -> assign -> assign -> end
        assert_eq!(cfg.len(), 4);
        assert_eq!(cfg.write_nodes().count(), 2);
        assert_eq!(cfg.cond_nodes().count(), 0);
        assert_eq!(cfg.succs(cfg.begin()).len(), 1);
        assert_eq!(cfg.preds(cfg.end()).len(), 1);
    }

    #[test]
    fn if_without_else_has_false_edge_around() {
        let cfg = cfg_of("proc f(int x) { if (x > 0) { x = 1; } x = 2; }");
        let branch = cfg.cond_nodes().next().unwrap();
        let false_target = cfg.false_succ(branch);
        // The false edge skips the then-assignment and lands on `x = 2`.
        assert!(matches!(
            &cfg.node(false_target).kind,
            NodeKind::Assign { var, .. } if var == "x"
        ));
        assert_eq!(cfg.node(false_target).span.line, 1);
    }

    #[test]
    fn if_else_is_a_diamond() {
        let cfg = cfg_of("proc f(int x) { if (x > 0) { x = 1; } else { x = 2; } }");
        let branch = cfg.cond_nodes().next().unwrap();
        let t = cfg.true_succ(branch);
        let f = cfg.false_succ(branch);
        assert_ne!(t, f);
        // Both sides flow to end.
        assert_eq!(cfg.succs(t)[0].0, cfg.end());
        assert_eq!(cfg.succs(f)[0].0, cfg.end());
    }

    #[test]
    fn while_has_back_edge() {
        let cfg = cfg_of("proc f(int x) { while (x > 0) { x = x - 1; } }");
        let branch = cfg.cond_nodes().next().unwrap();
        let body = cfg.true_succ(branch);
        // Body flows back to the branch.
        assert_eq!(cfg.succs(body)[0].0, branch);
        // False edge exits to end.
        assert_eq!(cfg.false_succ(branch), cfg.end());
    }

    #[test]
    fn assert_desugars_to_branch_plus_error() {
        let cfg = cfg_of("proc f(int x) { assert(x > 0); }");
        let branch = cfg.cond_nodes().next().unwrap();
        let error = cfg.false_succ(branch);
        assert!(cfg.node(error).kind.is_error());
        assert_eq!(cfg.node(error).role, OriginRole::AssertError);
        // Error flows to end; true edge flows to end.
        assert_eq!(cfg.succs(error)[0].0, cfg.end());
        assert_eq!(cfg.true_succ(branch), cfg.end());
        // Both nodes share the assert's span.
        assert_eq!(cfg.node(branch).span, cfg.node(error).span);
    }

    #[test]
    fn return_jumps_to_end_and_prunes_dead_code() {
        let cfg = cfg_of("proc f(int x) { if (x > 0) { return; x = 1; } x = 2; }");
        // The dead `x = 1` is pruned.
        assert!(!cfg.node_ids().any(
            |id| matches!(&cfg.node(id).kind, NodeKind::Assign { value, .. }
                if dise_ir::pretty::pretty_expr(value) == "1")
        ));
        // All remaining nodes are reachable from begin and reach end.
        let reach = cfg.graph().reachable_from(cfg.begin());
        assert!(reach.iter().all(|&r| r));
        let back = cfg.graph().reaches(cfg.end());
        assert!(back.iter().all(|&r| r));
    }

    #[test]
    fn end_reachable_from_all_nodes_even_with_loops() {
        let cfg =
            cfg_of("proc f(int x) { while (x > 0) { while (x > 1) { x = x - 1; } x = x - 1; } }");
        let back = cfg.graph().reaches(cfg.end());
        assert!(back.iter().all(|&r| r));
    }

    #[test]
    fn labels_include_line_numbers() {
        let cfg = cfg_of("proc f(int x) {\n  x = x + 1;\n}");
        let write = cfg.write_nodes().next().unwrap();
        assert_eq!(cfg.label(write), "2: x = x + 1");
        assert_eq!(cfg.label(cfg.begin()), "begin");
    }

    #[test]
    fn assume_is_a_cond_node_with_one_successor() {
        let cfg = cfg_of("proc f(int x) { assume(x > 0); x = 1; }");
        let assume = cfg.cond_nodes().next().unwrap();
        assert!(matches!(cfg.node(assume).kind, NodeKind::Assume { .. }));
        assert_eq!(cfg.succs(assume).len(), 1);
    }

    #[test]
    fn empty_procedure_is_begin_to_end() {
        let cfg = cfg_of("proc f() { }");
        assert_eq!(cfg.len(), 2);
        assert_eq!(cfg.succs(cfg.begin())[0].0, cfg.end());
    }

    #[test]
    fn paper_fig2_structure() {
        // The simplified WBS of Fig. 2: 15 statement nodes + begin + end.
        let cfg = cfg_of(
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
               if (BSwitch == 0) {
                 Meter = 1;
               } else if (BSwitch == 1) {
                 Meter = 2;
               }
               if (PedalCmd == 2) {
                 AltPress = 0;
               } else if (PedalCmd == 3) {
                 AltPress = 25;
               } else {
                 AltPress = 50;
               }
             }",
        );
        assert_eq!(cfg.cond_nodes().count(), 6); // n0 n2 n6 n8 n10 n12
        assert_eq!(cfg.write_nodes().count(), 9); // n1 n3 n4 n5 n7 n9 n11 n13 n14
        assert_eq!(cfg.len(), 17);
    }
}
