//! # Work-stealing parallel frontier exploration
//!
//! The executor spends nearly all of its time deciding path-condition
//! prefixes; PR 1's [`IncrementalSolver`] keeps its derived state in
//! per-frame stack entries precisely so that state can be *forked* at a
//! branch. This module is the engine that exploits it: an opt-in parallel
//! mode ([`ExecConfig::jobs`] > 1, CLI `--jobs N`) that explores branch
//! arms on worker threads and still returns a summary whose paths, path
//! conditions, and outcomes are **byte-identical** to the serial run's.
//!
//! ## Fork mode (forkable strategies)
//!
//! For strategies whose decisions are independent of global exploration
//! order ([`Strategy::fork`] returns a clone — e.g. full exploration),
//! the tree itself is partitioned:
//!
//! * every worker owns a **cloned [`IncrementalSolver`]** (inheriting the
//!   executor's warm prefix trie) and walks depth-first *spines*: at each
//!   node with several successor candidates it continues with the first
//!   and enqueues the rest on its own deque;
//! * **idle workers steal** the shallowest pending arm from a victim's
//!   deque (the `pool` scheduler) and rebuild their solver stack by replaying the
//!   arm's literal prefix — push + check per literal, almost always
//!   answered by a trie;
//! * verdicts flow into a **shared concurrent prefix trie**
//!   ([`dise_solver::SharedTrie`], lock-sharded), so a prefix decided by
//!   any worker is never solved twice;
//! * every recorded path carries its successor-index position; a final
//!   **deterministic merge** sorts by position, which is exactly the
//!   serial engine's emission order. Feasibility verdicts are
//!   deterministic (each check runs on a root-contiguous frame chain, see
//!   the [`dise_solver::SharedTrie`] determinism contract), so the merged
//!   summary is byte-identical to serial for non-truncated runs.
//!
//! ## Order-dependent strategies run serially
//!
//! The paper's directed strategy mutates global explored sets whose
//! resets depend on which sibling subtree ran first — its decisions
//! cannot be forked without changing the result. Such strategies
//! ([`Strategy::fork`] = `None`) never reach this module:
//! [`Executor::explore`](crate::Executor::explore) runs them on the serial
//! engine at any [`ExecConfig::jobs`].
//!
//! ## What parallel mode does *not* change
//!
//! Structural counters (states, path outcomes, infeasible, pruned) match
//! the serial run exactly on non-truncated runs; solver counters and
//! timing necessarily differ (cache hits land on different workers), and
//! [`ExecStats::frontier`] reports scheduler activity. `max_states` is
//! enforced by a global atomic budget with the serial semantics (the
//! cap-reaching state is still entered), but *which* states are in the
//! truncated summary depends on scheduling. Execution-tree capture
//! ([`ExecConfig::record_tree`]) forces the serial engine.
//!
//! [`IncrementalSolver`]: dise_solver::IncrementalSolver
//! [`ExecConfig::jobs`]: crate::ExecConfig::jobs
//! [`ExecConfig::record_tree`]: crate::ExecConfig::record_tree
//! [`ExecStats::frontier`]: crate::ExecStats
//! [`Strategy::fork`]: crate::Strategy::fork

pub(crate) mod pool;
pub(crate) mod worker;

use std::sync::{Arc, Mutex};
use std::time::Instant;

use dise_solver::SharedTrie;

use crate::executor::{ExecStats, Executor, PathSummary, Strategy, SymbolicSummary};
use crate::state::SymState;
use pool::{Pool, Task};
use worker::{Worker, WorkerOutcome};

/// Scheduler counters for one parallel run (all zero on serial runs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontierStats {
    /// Worker threads used (0 on serial runs).
    pub workers: u64,
    /// Tasks (branch arms) scheduled.
    pub tasks: u64,
    /// Tasks taken from another worker's deque.
    pub steals: u64,
    /// Literals replayed to rebuild solver stacks for taken tasks.
    pub replayed_literals: u64,
    /// Edges in the shared prefix trie at the end of the run.
    pub shared_trie_entries: u64,
    /// Decided prefixes seeded from a persistent store before the run
    /// ([`crate::Executor::warm_start`]; zero on cold runs).
    pub warm_trie_entries: u64,
}

/// Entry point from [`Executor::explore`] when `jobs > 1` and the
/// strategy is forkable: `forks` holds one strategy clone per worker.
pub(crate) fn explore_parallel(
    exec: &Executor,
    forks: Vec<Box<dyn Strategy + Send>>,
) -> SymbolicSummary {
    let start = Instant::now();
    let shared = Arc::new(SharedTrie::new(exec.config.solver.prefix_trie_capacity));
    let run = run_pool(exec, forks, &shared);
    let mut stats = run.stats;
    stats.elapsed = start.elapsed();
    stats.frontier.shared_trie_entries = shared.len() as u64;
    SymbolicSummary {
        proc_name: exec.proc_name.clone(),
        inputs: exec.inputs.clone(),
        paths: run.paths,
        stats,
        tree: None,
    }
}

struct PoolRun {
    paths: Vec<PathSummary>,
    stats: ExecStats,
}

/// Runs the work-stealing pool to completion: seeds the root task, spawns
/// one thread per forked strategy, merges worker outcomes, and assembles
/// paths in serial order.
fn run_pool(
    exec: &Executor,
    forks: Vec<Box<dyn Strategy + Send>>,
    shared: &Arc<SharedTrie>,
) -> PoolRun {
    let jobs = forks.len();
    let pool = Pool::new(jobs, exec.config.max_states);
    pool.spawn(
        0,
        Task {
            pos: Vec::new(),
            state: SymState::initial(exec.cfg.begin(), exec.init_env.clone()),
            lits: Vec::new(),
            hint: None,
            forked: false,
            from_call: false,
            prefix: Vec::new(),
            trace: Vec::new(),
            root: true,
        },
    );
    let results = Mutex::new(Vec::new());
    let solver_before = exec.solver.stats();

    let outcomes: Vec<WorkerOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = forks
            .into_iter()
            .enumerate()
            .map(|(me, strategy)| {
                let mut solver = exec.solver.clone();
                solver.attach_shared_trie(Arc::clone(shared));
                let pool = &pool;
                let results = &results;
                let cfg = &exec.cfg;
                let config = &exec.config;
                let summaries = exec.summaries.as_deref();
                let tracer = exec.config.tracer.clone();
                scope.spawn(move || {
                    let span = tracer
                        .as_ref()
                        .map(|h| h.begin_on(&format!("worker.{me}"), (me + 1) as u32));
                    let outcome = Worker {
                        me,
                        cfg,
                        config,
                        solver,
                        strategy,
                        pool,
                        results,
                        summaries,
                        stats: ExecStats::default(),
                        replayed: 0,
                    }
                    .run(&solver_before);
                    if let (Some(h), Some(span)) = (&tracer, span) {
                        h.end_with(
                            span,
                            vec![
                                ("states".to_string(), outcome.stats.states_explored),
                                ("solver.checks".to_string(), outcome.solver.checks),
                                (
                                    "solver.pipeline_checks".to_string(),
                                    outcome.solver.pipeline_checks(),
                                ),
                                ("replayed_literals".to_string(), outcome.replayed),
                            ],
                        );
                    }
                    outcome
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("frontier worker panicked"))
            .collect()
    });

    let mut stats = ExecStats::default();
    for outcome in outcomes {
        stats.states_explored += outcome.stats.states_explored;
        stats.paths_completed += outcome.stats.paths_completed;
        stats.paths_error += outcome.stats.paths_error;
        stats.paths_depth_bounded += outcome.stats.paths_depth_bounded;
        stats.infeasible += outcome.stats.infeasible;
        stats.pruned += outcome.stats.pruned;
        stats.solver.merge(&outcome.solver);
        stats.summary.merge(&outcome.stats.summary);
        stats.frontier.replayed_literals += outcome.replayed;
    }
    stats.truncated = pool.truncated();
    stats.frontier.workers = jobs as u64;
    stats.frontier.tasks = pool.tasks_created();
    stats.frontier.steals = pool.steals();

    let mut recorded = results.into_inner().unwrap_or_else(|e| e.into_inner());
    recorded.sort_by(|a, b| a.0.cmp(&b.0));
    PoolRun {
        paths: recorded.into_iter().map(|(_, path)| path).collect(),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{ExecConfig, FullExploration, PathOutcome};
    use dise_ir::parse_program;

    fn summaries(src: &str, proc: &str, config: ExecConfig) -> (SymbolicSummary, SymbolicSummary) {
        let program = parse_program(src).unwrap();
        dise_ir::check_program(&program).unwrap();
        let serial_config = ExecConfig {
            jobs: 1,
            ..config.clone()
        };
        let parallel_config = ExecConfig { jobs: 4, ..config };
        let mut serial_exec = Executor::new(&program, proc, serial_config).unwrap();
        let serial = serial_exec.explore(&mut FullExploration);
        let mut parallel_exec = Executor::new(&program, proc, parallel_config).unwrap();
        let parallel = parallel_exec.explore(&mut FullExploration);
        (serial, parallel)
    }

    fn assert_identical(serial: &SymbolicSummary, parallel: &SymbolicSummary) {
        assert_eq!(serial.paths().len(), parallel.paths().len());
        for (a, b) in serial.paths().iter().zip(parallel.paths()) {
            assert_eq!(a.pc, b.pc);
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.final_env, b.final_env);
            assert_eq!(a.trace, b.trace);
        }
        let (s, p) = (serial.stats(), parallel.stats());
        assert_eq!(s.states_explored, p.states_explored);
        assert_eq!(s.paths_completed, p.paths_completed);
        assert_eq!(s.paths_error, p.paths_error);
        assert_eq!(s.paths_depth_bounded, p.paths_depth_bounded);
        assert_eq!(s.infeasible, p.infeasible);
        assert_eq!(s.pruned, p.pruned);
        assert_eq!(s.truncated, p.truncated);
    }

    const WIDE: &str = "int g;
proc f(int a, int b, int c, int d) {
  if (a > 0) { g = g + a; } else { g = g - 1; }
  if (b > a) { g = g + b; }
  if (c > b) { g = g + c; } else { g = g - c; }
  if (d > c) { g = g + d; }
  if (a + b > c + d) { g = 0; }
}";

    #[test]
    fn parallel_full_exploration_is_byte_identical() {
        let (serial, parallel) = summaries(WIDE, "f", ExecConfig::default());
        assert!(serial.pc_count() > 8, "workload must branch");
        assert_identical(&serial, &parallel);
        let frontier = &parallel.stats().frontier;
        assert_eq!(frontier.workers, 4);
        assert!(frontier.tasks > 0);
    }

    #[test]
    fn parallel_handles_infeasible_and_error_paths() {
        let src = "proc f(int x) {
  assume(x > 0);
  if (x > 10) {
    if (x < 5) { x = 1; }
    assert(x > 10);
  } else {
    assert(x <= 10);
  }
}";
        let (serial, parallel) = summaries(src, "f", ExecConfig::default());
        assert!(serial.stats().infeasible > 0);
        assert_identical(&serial, &parallel);
    }

    #[test]
    fn parallel_loops_respect_depth_bounds() {
        let src = "proc f(int x) {
  int n = 0;
  while (n < x) { n = n + 1; }
}";
        let config = ExecConfig {
            depth_bound: Some(30),
            ..ExecConfig::default()
        };
        let (serial, parallel) = summaries(src, "f", config);
        assert!(serial.stats().paths_depth_bounded > 0);
        assert_identical(&serial, &parallel);
    }

    #[test]
    fn parallel_truncation_respects_the_global_budget() {
        let src = "proc f(int x) { while (x > 0) { x = x - 1; } }";
        let config = ExecConfig {
            depth_bound: Some(1000),
            max_states: Some(20),
            jobs: 4,
            ..ExecConfig::default()
        };
        let program = parse_program(src).unwrap();
        let mut exec = Executor::new(&program, "f", config).unwrap();
        let summary = exec.explore(&mut FullExploration);
        assert!(summary.stats().truncated);
        assert!(summary.stats().states_explored <= 20);
    }

    #[test]
    fn order_dependent_strategies_run_serially_at_any_jobs() {
        // A deliberately order-dependent strategy: explores the first K
        // filtered successors, prunes the rest. Not forkable, so jobs > 1
        // must run the serial engine and reproduce its result exactly.
        struct FirstK {
            left: u32,
        }
        impl Strategy for FirstK {
            fn should_explore(&mut self, _node: dise_cfg::NodeId) -> bool {
                if self.left == 0 {
                    return false;
                }
                self.left -= 1;
                true
            }
        }
        let program = parse_program(WIDE).unwrap();
        let mut serial_exec = Executor::new(
            &program,
            "f",
            ExecConfig {
                jobs: 1,
                ..ExecConfig::default()
            },
        )
        .unwrap();
        let serial = serial_exec.explore(&mut FirstK { left: 9 });
        let mut parallel_exec = Executor::new(
            &program,
            "f",
            ExecConfig {
                jobs: 4,
                ..ExecConfig::default()
            },
        )
        .unwrap();
        let parallel = parallel_exec.explore(&mut FirstK { left: 9 });
        assert!(serial.stats().pruned > 0, "the strategy must bite");
        assert_identical(&serial, &parallel);
        assert_eq!(parallel.stats().frontier, FrontierStats::default());
        assert_eq!(parallel.stats().solver, serial.stats().solver);
    }

    #[test]
    fn parallel_pruned_paths_are_recorded_when_requested() {
        struct PruneDeep;
        impl Strategy for PruneDeep {
            fn should_explore(&mut self, node: dise_cfg::NodeId) -> bool {
                node.index().is_multiple_of(2)
            }
            fn fork(&self) -> Option<Box<dyn Strategy + Send>> {
                Some(Box::new(PruneDeep))
            }
        }
        let config = ExecConfig {
            record_pruned: true,
            ..ExecConfig::default()
        };
        let program = parse_program(WIDE).unwrap();
        let mut serial_exec = Executor::new(
            &program,
            "f",
            ExecConfig {
                jobs: 1,
                ..config.clone()
            },
        )
        .unwrap();
        let serial = serial_exec.explore(&mut PruneDeep);
        let mut parallel_exec =
            Executor::new(&program, "f", ExecConfig { jobs: 4, ..config }).unwrap();
        let parallel = parallel_exec.explore(&mut PruneDeep);
        assert_identical(&serial, &parallel);
        if serial.stats().pruned > 0 {
            assert!(serial
                .paths()
                .iter()
                .any(|p| p.outcome == PathOutcome::Pruned));
        }
    }

    #[test]
    fn two_workers_also_match() {
        let program = parse_program(WIDE).unwrap();
        let mut serial_exec = Executor::new(
            &program,
            "f",
            ExecConfig {
                jobs: 1,
                ..ExecConfig::default()
            },
        )
        .unwrap();
        let serial = serial_exec.explore(&mut FullExploration);
        let mut exec = Executor::new(
            &program,
            "f",
            ExecConfig {
                jobs: 2,
                ..ExecConfig::default()
            },
        )
        .unwrap();
        let parallel = exec.explore(&mut FullExploration);
        assert_identical(&serial, &parallel);
    }
}
