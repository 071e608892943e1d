//! Symbolic program states.

use dise_cfg::NodeId;
use dise_solver::PathCondition;

use crate::env::Env;

/// A symbolic program state: "a unique program location identifier (Loc),
/// symbolic expressions for the symbolic input variables, and a path
/// condition (PC)" (§2.1).
///
/// The path condition is not stored here: during exploration it is the
/// executor's solver stack, whose literals are exactly the branch
/// constraints accumulated along the path to this state. A state owns
/// only what differs between siblings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymState {
    /// The CFG node this state is at.
    pub node: NodeId,
    /// Symbolic values of all program variables.
    pub env: Env,
    /// Number of transitions taken from the initial state.
    pub depth: u32,
    /// An assertion failure inherited from an instantiated procedure
    /// summary whose path ended at the callee's error node: the state
    /// terminates as that error on entry, exactly where the inlined
    /// exploration would have died inside the callee. `None` everywhere
    /// else.
    pub pending_error: Option<String>,
}

impl SymState {
    /// The initial state of a procedure at its `begin` node.
    pub fn initial(node: NodeId, env: Env) -> SymState {
        SymState {
            node,
            env,
            depth: 0,
            pending_error: None,
        }
    }

    /// The successor at `node` with the same environment: consumes the
    /// state, so a step that does not fork copies nothing.
    pub fn step_to(self, node: NodeId) -> SymState {
        SymState {
            node,
            env: self.env,
            depth: self.depth + 1,
            pending_error: None,
        }
    }

    /// The state as the paper's Fig. 1 prints it, reached under the path
    /// condition `pc`: `Loc: n1, x: X, PC: X > 0`.
    pub fn label(&self, pc: &PathCondition) -> String {
        format!("Loc: {}, {}, PC: {pc}", self.node, self.env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dise_solver::{SymExpr, SymTy, VarPool};

    #[test]
    fn initial_state_has_true_pc_and_zero_depth() {
        let state = SymState::initial(NodeId(0), Env::new());
        assert_eq!(state.depth, 0);
        assert_eq!(state.pending_error, None);
        // The path starts with nothing on the solver stack: `true`.
        assert_eq!(state.label(&PathCondition::new()), "Loc: n0, , PC: true");
    }

    #[test]
    fn step_to_increments_depth() {
        let mut env = Env::new();
        env.bind("x", SymExpr::int(1));
        let next = SymState::initial(NodeId(0), env.clone()).step_to(NodeId(3));
        assert_eq!(next.depth, 1);
        assert_eq!(next.node, NodeId(3));
        assert_eq!(next.env, env);
    }

    #[test]
    fn display_matches_figure1_format() {
        let mut pool = VarPool::new();
        let x = pool.fresh("X", SymTy::Int);
        let mut env = Env::new();
        env.bind("x", SymExpr::var(&x));
        let state = SymState::initial(NodeId(1), env);
        let pc: PathCondition = [SymExpr::gt(SymExpr::var(&x), SymExpr::int(0))]
            .into_iter()
            .collect();
        assert_eq!(state.label(&pc), "Loc: n1, x: X, PC: X > 0");
    }
}
