//! Concolic (concrete-input-directed) single-path symbolic execution.
//!
//! Runs the procedure *symbolically* — building a path condition and
//! symbolic variable values exactly like the full engine — but resolves
//! every branch by evaluating its condition on a *concrete* input, so
//! exactly one path is explored: the path the concrete input drives.
//!
//! The result pairs the concrete run's data (trace, decisions, concrete
//! final values) with the symbolic characterization of that path (path
//! condition, symbolic final environment). The differential application
//! uses this to compare *what two program versions compute* on a common
//! input region: run both versions concolically on the same input, then
//! ask the solver whether the symbolic effects can differ anywhere in the
//! intersection of the two path conditions — a lightweight form of the
//! differential symbolic execution the paper cites as \[27\].
//!
//! Constraint collection mirrors [`crate::Executor`] exactly: branch
//! conditions that fold to a constant add no constraint, symbolic
//! conditions add `cond` / `!cond` according to the direction taken, and
//! symbolic `assume` conditions are added as constraints. Consequently the
//! concolic path condition of input *i* equals the path condition the full
//! engine generates for the path containing *i*.
//!
//! # Examples
//!
//! ```
//! use dise_ir::parse_program;
//! use dise_solver::model::Value;
//! use dise_symexec::concolic::ConcolicExecutor;
//! use dise_symexec::concrete::ConcreteConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = parse_program(
//!     "int y;
//!      proc testX(int x) {
//!        if (x > 0) { y = y + x; } else { y = y - x; }
//!      }",
//! )?;
//! let executor = ConcolicExecutor::new(&program, "testX", ConcreteConfig::default())?;
//! let run = executor.run(&[("x".into(), Value::Int(3))].into());
//! assert_eq!(run.pc.to_string(), "X > 0");
//! assert_eq!(run.final_env.get("y").unwrap().to_string(), "Y + X");
//! # Ok(())
//! # }
//! ```

use dise_cfg::{Cfg, NodeId, NodeKind};
use dise_ir::ast::Program;
use dise_solver::{PathCondition, SymExpr, SymVar};

use crate::concrete::{
    eval_concrete, ConcreteConfig, ConcreteEvalError, ConcreteExecutor, ConcreteOutcome, ValueEnv,
};
use crate::env::Env;
use crate::eval::eval_symbolic;
use crate::executor::{ExecConfig, ExecError, Executor};

/// The record of one concolic execution: one concrete path with its
/// symbolic characterization.
#[derive(Debug, Clone)]
pub struct ConcolicRun {
    /// How the run ended (same vocabulary as a concrete run).
    pub outcome: ConcreteOutcome,
    /// The path condition of the executed path — the constraints any input
    /// must satisfy to follow the same path.
    pub pc: PathCondition,
    /// Symbolic values of all variables when the run ended.
    pub final_env: Env,
    /// Concrete values of all variables when the run ended.
    pub final_values: ValueEnv,
    /// Every CFG node visited, in order.
    pub trace: Vec<NodeId>,
    /// The decision taken at each symbolic branch, in order.
    pub decisions: Vec<(NodeId, bool)>,
}

/// Concolic executor for one procedure of one program.
#[derive(Debug, Clone)]
pub struct ConcolicExecutor {
    concrete: ConcreteExecutor,
    /// Initial symbolic environment and inputs, built by the symbolic
    /// engine's own setup so naming and symbolic-variable allocation are
    /// identical to a full symbolic run.
    init_env: Env,
    inputs: Vec<(String, SymVar)>,
    config: ConcreteConfig,
}

impl ConcolicExecutor {
    /// Prepares concolic execution of `proc_name` in `program`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Executor::new`]: [`ExecError::MissingProcedure`]
    /// and [`ExecError::ContainsCalls`].
    pub fn new(
        program: &Program,
        proc_name: &str,
        config: ConcreteConfig,
    ) -> Result<ConcolicExecutor, ExecError> {
        let symbolic = Executor::new(program, proc_name, ExecConfig::default())?;
        let concrete = ConcreteExecutor::new(program, proc_name, config)?;
        let init_env = symbolic.init_env().clone();
        let inputs = symbolic.inputs().to_vec();
        Ok(ConcolicExecutor {
            concrete,
            init_env,
            inputs,
            config,
        })
    }

    /// The CFG being executed.
    pub fn cfg(&self) -> &Cfg {
        self.concrete.cfg()
    }

    /// The symbolic inputs: `(program variable, symbolic variable)`, same
    /// shape as [`crate::SymbolicSummary::inputs`].
    pub fn inputs(&self) -> &[(String, SymVar)] {
        &self.inputs
    }

    /// Runs the procedure concolically on `input`. Inputs missing from the
    /// map default to `0` / `false`.
    pub fn run(&self, input: &ValueEnv) -> ConcolicRun {
        // Build the aligned initial environments.
        let mut values = ValueEnv::new();
        let mut env = self.init_env.clone();
        for (name, kind) in self.init_pairs() {
            values.insert(name.to_string(), kind);
        }
        for (name, _) in &self.inputs {
            let concrete = input
                .get(name)
                .copied()
                .unwrap_or_else(|| default_value(&self.init_env, name));
            values.insert(name.clone(), concrete);
        }
        // Symbolic inputs stay symbolic in `env`; initialized globals are
        // already concrete there.
        let cfg = self.concrete.cfg();
        let mut pc = PathCondition::new();
        let mut trace = Vec::new();
        let mut decisions = Vec::new();
        let mut steps: u64 = 0;
        let mut node = cfg.begin();
        let outcome = loop {
            steps += 1;
            trace.push(node);
            if steps > self.config.fuel {
                break ConcreteOutcome::FuelExhausted;
            }
            match &cfg.node(node).kind {
                NodeKind::End => break ConcreteOutcome::Completed,
                NodeKind::Error { message } => {
                    break ConcreteOutcome::AssertionFailure(message.clone())
                }
                NodeKind::Begin | NodeKind::Nop => node = cfg.succs(node)[0].0,
                NodeKind::Assign { var, value } => {
                    match eval_concrete(value, &values) {
                        Ok(v) => {
                            values.insert(var.clone(), v);
                        }
                        Err(e) => break stuck(e),
                    }
                    let sym = eval_symbolic(value, &env)
                        .expect("concrete evaluation succeeded, so all variables are bound");
                    env.bind(var, sym);
                    node = cfg.succs(node)[0].0;
                }
                NodeKind::Branch { cond } => {
                    let taken = match eval_concrete(cond, &values) {
                        Ok(dise_solver::model::Value::Bool(b)) => b,
                        Ok(_) => break stuck(ConcreteEvalError::TypeMismatch),
                        Err(e) => break stuck(e),
                    };
                    let sym = eval_symbolic(cond, &env)
                        .expect("concrete evaluation succeeded, so all variables are bound");
                    // Mirror the full engine: concrete conditions are not
                    // choice points and add no constraint.
                    if sym.as_bool().is_none() {
                        pc.push(if taken { sym } else { SymExpr::not(sym) });
                        decisions.push((node, taken));
                    }
                    node = if taken {
                        cfg.true_succ(node)
                    } else {
                        cfg.false_succ(node)
                    };
                }
                NodeKind::Assume { cond } => {
                    match eval_concrete(cond, &values) {
                        Ok(dise_solver::model::Value::Bool(true)) => {}
                        Ok(dise_solver::model::Value::Bool(false)) => {
                            break ConcreteOutcome::AssumeViolated
                        }
                        Ok(_) => break stuck(ConcreteEvalError::TypeMismatch),
                        Err(e) => break stuck(e),
                    }
                    let sym = eval_symbolic(cond, &env)
                        .expect("concrete evaluation succeeded, so all variables are bound");
                    if sym.as_bool().is_none() {
                        pc.push(sym);
                    }
                    node = cfg.succs(node)[0].0;
                }
                NodeKind::Call { callee, .. } => panic!(
                    "concolic execution reached a call node for `{callee}`; \
                     replay runs over flattened (call-free) CFGs"
                ),
            }
        };
        ConcolicRun {
            outcome,
            pc,
            final_env: env,
            final_values: values,
            trace,
            decisions,
        }
    }

    /// Initialized-global `(name, value)` pairs, concretely evaluated.
    fn init_pairs(&self) -> Vec<(&str, dise_solver::model::Value)> {
        self.init_env
            .iter()
            .filter_map(|(name, sym)| {
                let value = match sym {
                    SymExpr::Int(v) => dise_solver::model::Value::Int(*v),
                    SymExpr::Bool(b) => dise_solver::model::Value::Bool(*b),
                    _ => return None, // symbolic input, handled separately
                };
                Some((name, value))
            })
            .collect()
    }
}

fn default_value(env: &Env, name: &str) -> dise_solver::model::Value {
    // A symbolic input's type determines its default.
    match env.get(name) {
        Some(SymExpr::Var(var)) if var.ty() == dise_solver::SymTy::Bool => {
            dise_solver::model::Value::Bool(false)
        }
        _ => dise_solver::model::Value::Int(0),
    }
}

fn stuck(e: ConcreteEvalError) -> ConcreteOutcome {
    match e {
        ConcreteEvalError::Arith(arith) => ConcreteOutcome::ArithmeticError(arith),
        other => ConcreteOutcome::EvalStuck(other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dise_ir::parse_program;
    use dise_solver::model::Value;
    use dise_solver::Solver;

    use crate::executor::FullExploration;

    fn concolic(src: &str, proc: &str) -> ConcolicExecutor {
        let program = parse_program(src).unwrap();
        dise_ir::check_program(&program).unwrap();
        ConcolicExecutor::new(&program, proc, ConcreteConfig::default()).unwrap()
    }

    fn env(pairs: &[(&str, Value)]) -> ValueEnv {
        pairs
            .iter()
            .map(|(name, value)| (name.to_string(), *value))
            .collect()
    }

    #[test]
    fn testx_positive_path() {
        let executor = concolic(
            "int y;
             proc testX(int x) {
               if (x > 0) { y = y + x; } else { y = y - x; }
             }",
            "testX",
        );
        let run = executor.run(&env(&[("x", Value::Int(3)), ("y", Value::Int(10))]));
        assert_eq!(run.outcome, ConcreteOutcome::Completed);
        assert_eq!(run.pc.to_string(), "X > 0");
        assert_eq!(run.final_env.get("y").unwrap().to_string(), "Y + X");
        assert_eq!(run.final_values.get("y"), Some(&Value::Int(13)));
    }

    #[test]
    fn input_satisfies_its_own_path_condition() {
        let executor = concolic(
            "proc f(int x, int y) {
               if (x + y > 10) {
                 if (x < 3) { x = 0; } else { y = 0; }
               }
             }",
            "f",
        );
        let input = env(&[("x", Value::Int(2)), ("y", Value::Int(20))]);
        let run = executor.run(&input);
        assert_eq!(run.pc.len(), 2);
        // Re-solve the path condition: the original input must satisfy it.
        let mut model = dise_solver::Model::new();
        for (name, var) in executor.inputs() {
            if let Some(v) = input.get(name) {
                model.set(var.id(), *v);
            }
        }
        for conjunct in run.pc.conjuncts() {
            assert!(model.satisfies(conjunct), "input violates {conjunct}");
        }
    }

    #[test]
    fn concolic_pc_matches_full_engine_pc() {
        let src = "int g;
             proc f(int x) {
               if (x > 5) { g = g + 1; } else { g = g - 1; }
               if (g == 0) { g = 42; }
             }";
        let program = parse_program(src).unwrap();
        let executor = concolic(src, "f");
        let run = executor.run(&env(&[("x", Value::Int(9)), ("g", Value::Int(-1))]));

        // Find the matching path in the full engine's summary.
        let mut full = Executor::new(&program, "f", ExecConfig::default()).unwrap();
        let summary = full.explore(&mut FullExploration);
        let rendered = run.pc.to_string();
        assert!(
            summary
                .path_conditions()
                .any(|pc| pc.to_string() == rendered),
            "concolic PC {rendered:?} not among full-engine PCs"
        );
    }

    #[test]
    fn concrete_conditions_add_no_constraints() {
        // `g` is initialized, so the first branch folds concretely.
        let executor = concolic(
            "int g = 5;
             proc f(int x) {
               if (g > 0) { g = 1; }
               if (x > 0) { g = 2; }
             }",
            "f",
        );
        let run = executor.run(&env(&[("x", Value::Int(1))]));
        assert_eq!(run.pc.to_string(), "X > 0");
        assert_eq!(run.decisions.len(), 1);
    }

    #[test]
    fn assertion_failure_keeps_partial_pc() {
        let executor = concolic(
            "proc f(int x) {
               if (x > 0) { assert(x < 5); }
             }",
            "f",
        );
        let run = executor.run(&env(&[("x", Value::Int(9))]));
        assert!(matches!(run.outcome, ConcreteOutcome::AssertionFailure(_)));
        // PC records both the branch and the failed assertion's negation.
        assert_eq!(run.pc.to_string(), "X > 0 && X >= 5");
    }

    #[test]
    fn symbolic_assume_extends_pc() {
        let executor = concolic("proc f(int x) { assume(x > 3); x = x + 1; }", "f");
        let run = executor.run(&env(&[("x", Value::Int(10))]));
        assert_eq!(run.outcome, ConcreteOutcome::Completed);
        assert_eq!(run.pc.to_string(), "X > 3");
        let violated = executor.run(&env(&[("x", Value::Int(0))]));
        assert_eq!(violated.outcome, ConcreteOutcome::AssumeViolated);
    }

    #[test]
    fn loop_paths_unroll_in_pc() {
        let executor = concolic(
            "proc f(int n) {
               int i = 0;
               while (i < n) { i = i + 1; }
             }",
            "f",
        );
        let run = executor.run(&env(&[("n", Value::Int(2))]));
        assert_eq!(run.outcome, ConcreteOutcome::Completed);
        // i starts concrete, so each header test is `k < N`.
        assert_eq!(run.pc.to_string(), "0 < N && 1 < N && 2 >= N");
        // The PC must be satisfiable and pin n = 2.
        let mut solver = Solver::new();
        let outcome = solver.check(run.pc.conjuncts());
        let model = outcome.model().expect("loop PC is satisfiable");
        let n_var = &executor.inputs()[0].1;
        assert_eq!(model.int_value(n_var), Some(2));
    }
}
