//! One frontier worker: a cloned [`IncrementalSolver`], a forked
//! [`Strategy`], and a depth-first *spine* walk.
//!
//! A worker repeatedly takes a pending branch arm from the scheduler,
//! rebuilds its solver stack for the arm's literal prefix (pop to the
//! common prefix, then push + check the rest — replay checks are mostly
//! trie hits, and they keep the root-contiguous determinism chain intact:
//! every frame's model/bounds is exactly what a serial run computes), and
//! then walks the arm's subtree depth-first. At every node with several
//! successor candidates it continues with the first and enqueues the rest
//! as stealable tasks, so a task's own walk is a single spine producing at
//! most one recorded path.

use dise_cfg::Cfg;
use dise_solver::{IncrementalSolver, SolverStats, SymExpr};

use crate::executor::{
    classify_entry, push_succ_lits, successor_candidates, EntryKind, ExecConfig, ExecStats,
    FilterScope, PathOutcome, PathSummary, Strategy, Succ,
};
use crate::frontier::pool::{Pool, Task};
use crate::state::SymState;
use crate::summary::SummaryTable;

use std::sync::Mutex;

/// A recorded path tagged with its successor-index position; the final
/// merge sorts by the position to reconstruct serial emission order.
pub(crate) type PositionedPath = (Vec<u32>, PathSummary);

/// What a worker thread hands back when the pool drains.
pub(crate) struct WorkerOutcome {
    /// Structural counters (states, paths, infeasible, pruned).
    pub stats: ExecStats,
    /// This worker's solver activity for the run.
    pub solver: SolverStats,
    /// Literals replayed while rebuilding prefixes for taken tasks.
    pub replayed: u64,
}

pub(crate) struct Worker<'a> {
    pub me: usize,
    pub cfg: &'a Cfg,
    pub config: &'a ExecConfig,
    pub solver: IncrementalSolver,
    pub strategy: Box<dyn Strategy + Send>,
    pub pool: &'a Pool,
    /// Recorded paths of every worker, merged by position at the end.
    pub results: &'a Mutex<Vec<PositionedPath>>,
    /// Procedure summaries for call-node dispatch (`None` on inlined
    /// CFGs).
    pub summaries: Option<&'a SummaryTable>,
    pub stats: ExecStats,
    pub replayed: u64,
}

impl Worker<'_> {
    /// Drains the pool. Called once per worker thread.
    pub fn run(mut self, solver_before: &SolverStats) -> WorkerOutcome {
        while let Some(task) = self.pool.next(self.me) {
            self.run_task(task);
            self.pool.finish();
        }
        let solver = self.solver.stats().delta_since(solver_before);
        WorkerOutcome {
            stats: self.stats,
            solver,
            replayed: self.replayed,
        }
    }

    /// Rebuilds the solver stack for `prefix`: pop to the common prefix
    /// with the current stack, then push + check the remainder.
    fn sync_solver(&mut self, prefix: &[SymExpr]) {
        let common = {
            let current = self.solver.literals();
            let mut n = 0;
            while n < current.len() && n < prefix.len() && current[n] == prefix[n] {
                n += 1;
            }
            n
        };
        while self.solver.depth() > common {
            self.solver.pop();
        }
        for lit in &prefix[common..] {
            self.solver.push(lit.clone());
            // The verdict is already known feasible (the producer checked
            // it before descending past this literal); the check re-runs
            // purely to restore this depth's frame state — almost always
            // a trie hit.
            let _ = self.solver.check();
            self.replayed += 1;
        }
    }

    fn record(
        &mut self,
        pos: &[u32],
        state: &SymState,
        outcome: PathOutcome,
        trace: &[dise_cfg::NodeId],
    ) {
        let summary = PathSummary {
            pc: state.pc.clone(),
            outcome,
            final_env: state.env.clone(),
            trace: trace.to_vec(),
        };
        self.results
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((pos.to_vec(), summary));
    }

    /// Executes one task: replay the prefix, then walk the spine. Mirrors
    /// the serial engine's per-successor sequence exactly — feasibility,
    /// strategy filter, entry bookkeeping, terminal handling — so the
    /// recorded paths are byte-identical to the serial run's.
    fn run_task(&mut self, task: Task) {
        self.sync_solver(&task.prefix);
        let mut pos = task.pos;
        let mut trace = task.trace;
        let mut entered: Vec<dise_cfg::NodeId> = Vec::new();
        let mut root = task.root;
        let mut next = Some((
            task.state,
            task.lits,
            task.hint,
            task.forked,
            task.from_call,
        ));

        while let Some((state, lits, hint, forked, from_call)) = next.take() {
            if self.pool.truncated() {
                break;
            }
            let had_lits = !lits.is_empty();
            let result = push_succ_lits(
                &mut self.solver,
                lits,
                hint.as_ref(),
                self.config.unknown_is_sat,
            );
            if from_call && had_lits {
                if result.hint_verified {
                    self.stats.summary.hint_verified += 1;
                }
                self.stats.summary.fallback_checks += result.checks;
            }
            if !result.feasible {
                self.stats.infeasible += 1;
                // No pop: the next task's sync_solver rebuilds the stack.
                break;
            }
            let filtered = match self.config.filter_scope {
                FilterScope::AllStates => !root,
                FilterScope::ChoicePoints => forked,
            };
            root = false;
            if filtered && !self.strategy.should_explore(state.node) {
                self.stats.pruned += 1;
                if self.config.record_pruned {
                    let mut pruned_trace = trace.clone();
                    pruned_trace.push(state.node);
                    self.record(&pos, &state, PathOutcome::Pruned, &pruned_trace);
                }
                break;
            }

            // Entry (the serial engine's `enter`).
            if !self.pool.try_enter_state() {
                break;
            }
            self.stats.states_explored += 1;
            if self.config.record_traces {
                trace.push(state.node);
            }
            // Terminal classification shared with the serial engine
            // (error/depth-bound never notify the strategy; End does).
            match classify_entry(self.cfg, self.config, &state) {
                EntryKind::Error(message) => {
                    self.stats.paths_error += 1;
                    self.record(&pos, &state, PathOutcome::Error(message), &trace);
                    break;
                }
                EntryKind::DepthBounded => {
                    self.stats.paths_depth_bounded += 1;
                    self.record(&pos, &state, PathOutcome::DepthBounded, &trace);
                    break;
                }
                EntryKind::Completed => {
                    self.strategy.on_enter(state.node);
                    entered.push(state.node);
                    self.stats.paths_completed += 1;
                    self.record(&pos, &state, PathOutcome::Completed, &trace);
                    break;
                }
                EntryKind::Interior => {}
            }
            self.strategy.on_enter(state.node);
            entered.push(state.node);

            let mut succs = successor_candidates(
                self.cfg,
                &state,
                &mut self.stats.infeasible,
                self.summaries,
                &mut self.stats.summary,
            );
            if succs.is_empty() {
                break;
            }
            // Offload every candidate but the first; the prefix snapshot
            // is the current solver stack (root-contiguous by
            // construction).
            if succs.len() > 1 {
                let prefix = self.solver.literals().to_vec();
                let rest: Vec<Succ> = succs.drain(1..).collect();
                for (i, sibling) in rest.into_iter().enumerate() {
                    let mut child_pos = pos.clone();
                    child_pos.push((i + 1) as u32);
                    self.pool.spawn(
                        self.me,
                        Task {
                            pos: child_pos,
                            state: sibling.state,
                            lits: sibling.lits,
                            hint: sibling.hint,
                            forked: sibling.forked,
                            from_call: sibling.from_call,
                            prefix: prefix.clone(),
                            trace: trace.clone(),
                            root: false,
                        },
                    );
                }
            }
            let first = succs.pop().expect("at least one candidate");
            pos.push(0);
            next = Some((
                first.state,
                first.lits,
                first.hint,
                first.forked,
                first.from_call,
            ));
        }

        // Unwind the strategy hooks for this spine (serial order within
        // the subtree; forkable strategies are order-independent by
        // contract).
        for node in entered.into_iter().rev() {
            self.strategy.on_leave(node);
        }
    }
}
