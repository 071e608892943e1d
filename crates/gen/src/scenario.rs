//! Parameterized WBS/OAE-style state-machine programs.
//!
//! A generated scenario follows the shape of the paper's case studies
//! scaled along every axis that matters to the pipeline:
//!
//! ```text
//! int Reg0 = 0; …                         // shared output registers
//! proc h0_0(int v) { … h1_0(v + c); }     // helper call graph
//! proc step(int Mode, int Level, int Skid) {
//!   if (Mode < 1) {                       // dispatch lattice: `arms` arms
//!     <arm 0>                             // (interval guards — see source())
//!     if (Reg0 > 500000) { Reg0 = 500000; } // per-arm clamp stage
//!     assert(Reg0 <= 500000);             // WBS-style safety property
//!   } else if (Mode < 2) { <arm 1> … } …
//! }
//! ```
//!
//! Each arm nests guards to [`GenParams::guard_depth`] and ends in a call
//! into the level-0 helpers (several arms share one helper — the fan-in
//! procedure summaries need). Every *editable* statement — a guard or a
//! register assignment — embeds a globally unique **marker constant**
//! (integer literals counting up from `MARKER_BASE`): the guard's
//! comparison bound, or the assignment's additive offset. Markers survive
//! flattening (the inliner copies literals verbatim), which is what lets
//! the evolution engine (`crate::edits`) track ground-truth affected nodes
//! without relying on source spans.

use dise_ir::ast::Program;
use dise_ir::{check_program, parse_program};

use crate::Rng;

/// The analyzed procedure of every generated scenario.
pub const PROC_NAME: &str = "step";

/// First marker constant; every editable site gets the next integer.
/// Chosen so markers can never collide with the generator's other
/// constants (dispatch indices, coefficients < 10, the clamp bound).
pub(crate) const MARKER_BASE: i64 = 1000;

/// Clamp/assert bound — far above any marker.
pub(crate) const CLAMP_BOUND: i64 = 500_000;

/// Size and shape knobs of one generated scenario. All knobs are
/// deterministic functions of themselves plus [`GenParams::seed`]: equal
/// params produce byte-identical programs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenParams {
    /// Seed of the scenario's deterministic random stream.
    pub seed: u64,
    /// State-machine arms in the `Mode` dispatch lattice (≥ 1).
    pub arms: usize,
    /// Nested guard depth inside each arm (≥ 1).
    pub guard_depth: usize,
    /// Helper procedures per call-graph level (0 = call-free program).
    /// Effectively capped at `arms` so every helper has a caller.
    pub helpers: usize,
    /// Call-graph depth: level-`l` helpers call level-`l+1` helpers
    /// (≥ 1 when `helpers > 0`).
    pub call_depth: usize,
    /// Shared output registers (≥ 1).
    pub globals: usize,
}

impl Default for GenParams {
    fn default() -> GenParams {
        GenParams {
            seed: 0,
            arms: 4,
            guard_depth: 2,
            helpers: 2,
            call_depth: 1,
            globals: 2,
        }
    }
}

/// Comparison operators the generator draws guards from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CmpOp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

impl CmpOp {
    pub(crate) fn src(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
        }
    }

    fn draw(rng: &mut Rng) -> CmpOp {
        match rng.below(4) {
            0 => CmpOp::Lt,
            1 => CmpOp::Le,
            2 => CmpOp::Gt,
            _ => CmpOp::Ge,
        }
    }
}

/// A guard site: `var OP marker` (or the always-false
/// `var > marker && var < marker` for inserted dead branches).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct GuardSite {
    pub(crate) var: String,
    pub(crate) op: CmpOp,
    pub(crate) marker: i64,
    pub(crate) dead: bool,
}

impl GuardSite {
    fn src(&self) -> String {
        if self.dead {
            format!("{v} > {m} && {v} < {m}", v = self.var, m = self.marker)
        } else {
            format!("{} {} {}", self.var, self.op.src(), self.marker)
        }
    }
}

/// An assignment site: `target = source * coef + marker;`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct AssignSite {
    pub(crate) target: String,
    pub(crate) source: String,
    pub(crate) coef: i64,
    pub(crate) marker: i64,
}

impl AssignSite {
    fn src(&self) -> String {
        format!(
            "{} = {} * {} + {};",
            self.target, self.source, self.coef, self.marker
        )
    }
}

/// A statement of the generator's structured model. The model is edited
/// in place by `crate::edits` and only rendered to MJ source on demand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum GStmt {
    Assign(AssignSite),
    If {
        guard: GuardSite,
        then_b: Vec<GStmt>,
        else_b: Vec<GStmt>,
    },
    Call {
        callee: String,
        arg_var: String,
        arg_offset: i64,
    },
}

/// One helper procedure of the generated call graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Helper {
    pub(crate) name: String,
    pub(crate) body: Vec<GStmt>,
}

/// A generated program in structured form. [`Scenario::source`] renders
/// MJ text; [`Scenario::program`] parses and type-checks it (panicking on
/// a generator bug — generated programs are well-formed by construction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    pub(crate) params: GenParams,
    pub(crate) globals: Vec<String>,
    pub(crate) helpers: Vec<Helper>,
    /// The dispatch arms of `step`, in `Mode` order.
    pub(crate) arms: Vec<Vec<GStmt>>,
    /// Next unallocated marker constant (edits allocate fresh markers for
    /// inserted statements from here).
    pub(crate) next_marker: i64,
}

impl Scenario {
    /// Generates the scenario determined by `params` — byte-identical
    /// output for equal params.
    pub fn generate(params: &GenParams) -> Scenario {
        let params = GenParams {
            // Upper bound keeps dispatch bounds (`Mode < i + 1`) below
            // MARKER_BASE, so they can never collide with a marker.
            arms: params.arms.max(1).min(MARKER_BASE as usize - 1),
            guard_depth: params.guard_depth.max(1),
            // Every helper needs a calling arm; a helper with no caller
            // would vanish from the flattened program and break the
            // ground-truth mapping for callee-body edits.
            helpers: params.helpers.min(params.arms),
            call_depth: if params.helpers == 0 {
                0
            } else {
                params.call_depth.max(1)
            },
            globals: params.globals.max(1),
            seed: params.seed,
        };
        let mut rng = Rng::new(params.seed.wrapping_mul(0x0d1e_5e00).wrapping_add(1));
        let globals: Vec<String> = (0..params.globals).map(|g| format!("Reg{g}")).collect();
        let mut next_marker = MARKER_BASE;

        let mut assign_site = |rng: &mut Rng, next_marker: &mut i64, source_pool: &[&str]| {
            let marker = *next_marker;
            *next_marker += 1;
            GStmt::Assign(AssignSite {
                target: globals[rng.below(globals.len() as u64) as usize].clone(),
                source: source_pool[rng.below(source_pool.len() as u64) as usize].to_string(),
                coef: 2 + rng.below(7) as i64,
                marker,
            })
        };

        // Helper call graph: `call_depth` levels of `helpers` procedures;
        // level l's helper j calls level l+1's helper j, so every helper
        // is reachable once level 0 is.
        let mut helpers = Vec::new();
        for level in 0..params.call_depth {
            for j in 0..params.helpers {
                let sources = ["v"];
                let guard_marker = next_marker;
                next_marker += 1;
                let mut body = vec![GStmt::If {
                    guard: GuardSite {
                        var: "v".to_string(),
                        op: CmpOp::draw(&mut rng),
                        marker: guard_marker,
                        dead: false,
                    },
                    then_b: vec![assign_site(&mut rng, &mut next_marker, &sources)],
                    else_b: vec![assign_site(&mut rng, &mut next_marker, &sources)],
                }];
                if level + 1 < params.call_depth {
                    body.push(GStmt::Call {
                        callee: helper_name(level + 1, j),
                        arg_var: "v".to_string(),
                        arg_offset: 1 + rng.below(7) as i64,
                    });
                }
                helpers.push(Helper {
                    name: helper_name(level, j),
                    body,
                });
            }
        }

        // Dispatch arms. Register-to-register sources create the data-flow
        // chains the affected fixpoint propagates along.
        let mut arms = Vec::new();
        for arm in 0..params.arms {
            let mut reg_sources: Vec<&str> = vec!["Level", "Skid"];
            for g in &globals {
                reg_sources.push(g.as_str());
            }
            let mut body = vec![assign_site(&mut rng, &mut next_marker, &reg_sources)];
            body.extend(Self::guard_chain(
                &mut rng,
                &mut next_marker,
                &mut assign_site,
                &reg_sources,
                params.guard_depth,
            ));
            if params.helpers > 0 {
                body.push(GStmt::Call {
                    callee: helper_name(0, arm % params.helpers),
                    arg_var: "Level".to_string(),
                    arg_offset: (arm % 9) as i64,
                });
            }
            arms.push(body);
        }

        Scenario {
            params,
            globals,
            helpers,
            arms,
            next_marker,
        }
    }

    /// One level of the nested guard chain: `if (g) { <deeper> } else
    /// { <assign> }`, recursing in the then-branch — `depth + 1` paths per
    /// arm, so path counts grow linearly (not exponentially) in program
    /// size.
    fn guard_chain(
        rng: &mut Rng,
        next_marker: &mut i64,
        assign_site: &mut impl FnMut(&mut Rng, &mut i64, &[&str]) -> GStmt,
        sources: &[&str],
        depth: usize,
    ) -> Vec<GStmt> {
        if depth == 0 {
            return Vec::new();
        }
        let guard_var = if rng.below(2) == 0 { "Level" } else { "Skid" };
        let mut then_b = vec![assign_site(rng, next_marker, sources)];
        then_b.extend(Self::guard_chain(
            rng,
            next_marker,
            assign_site,
            sources,
            depth - 1,
        ));
        vec![GStmt::If {
            guard: GuardSite {
                var: guard_var.to_string(),
                op: CmpOp::draw(rng),
                marker: {
                    let m = *next_marker;
                    *next_marker += 1;
                    m
                },
                dead: false,
            },
            then_b,
            else_b: vec![assign_site(rng, next_marker, sources)],
        }]
    }

    /// The scenario's generation parameters (post-normalization).
    pub fn params(&self) -> &GenParams {
        &self.params
    }

    /// Renders the scenario as MJ source text.
    pub fn source(&self) -> String {
        let mut out = String::new();
        for g in &self.globals {
            out.push_str(&format!("int {g} = 0;\n"));
        }
        out.push('\n');
        for helper in &self.helpers {
            out.push_str(&format!("proc {}(int v) {{\n", helper.name));
            render_block(&mut out, &helper.body, 1);
            out.push_str("}\n\n");
        }
        out.push_str(&format!(
            "proc {PROC_NAME}(int Mode, int Level, int Skid) {{\n"
        ));
        // Interval dispatch (`Mode < i + 1`), not equality dispatch
        // (`Mode == i`). Interval guards keep every dispatch path
        // condition a pure conjunction of linear bounds on `Mode`, which
        // interval propagation decides without search at any arm count —
        // the property that lets scenarios scale 10–100x. An else-if
        // chain of equalities instead accumulates one disequality per
        // rejected arm for the model search to evaluate. Generated
        // scenarios, and the benchmark inputs built from them, must stay
        // byte-identical, so the grammar keeps interval guards.
        for (i, arm) in self.arms.iter().enumerate() {
            let head = if i == 0 { "  if" } else { " else if" };
            out.push_str(&format!("{head} (Mode < {}) {{\n", i + 1));
            render_block(&mut out, arm, 2);
            // Per-arm clamp + safety property on the arm's own register.
            // A single shared clamp at the end of `step` would read a
            // register every edit's data-flow reaches, making the one
            // branch every path crosses affected — directed exploration
            // could never prune anything. Arms are mutually exclusive, so
            // per-arm properties keep an edit's influence inside the arms
            // it actually touches; unedited arms prune at the dispatch
            // spine, which is what lets the directed/full cost ratio grow
            // with program size.
            let reg = &self.globals[i % self.globals.len()];
            out.push_str(&format!(
                "    if ({reg} > {CLAMP_BOUND}) {{\n      {reg} = {CLAMP_BOUND};\n    }}\n"
            ));
            out.push_str(&format!("    assert({reg} <= {CLAMP_BOUND});\n"));
            out.push_str("  }");
        }
        out.push_str(" else {\n    skip;\n  }\n");
        out.push_str("}\n");
        out
    }

    /// Parses and type-checks the rendered source. Panics on a generator
    /// bug: every scenario is well-formed by construction.
    pub fn program(&self) -> Program {
        let source = self.source();
        let program = parse_program(&source)
            .unwrap_or_else(|e| panic!("generated program must parse: {e}\n{source}"));
        check_program(&program)
            .unwrap_or_else(|e| panic!("generated program must type-check: {e}\n{source}"));
        program
    }

    /// Total statement count across all procedures (the scenario's "size"
    /// as reported by the scale benchmark).
    pub fn stmt_count(&self) -> usize {
        self.program()
            .procs
            .iter()
            .map(|p| p.body.stmt_count())
            .sum()
    }
}

pub(crate) fn helper_name(level: usize, j: usize) -> String {
    format!("h{level}_{j}")
}

fn render_block(out: &mut String, body: &[GStmt], indent: usize) {
    let pad = "  ".repeat(indent);
    for stmt in body {
        match stmt {
            GStmt::Assign(site) => out.push_str(&format!("{pad}{}\n", site.src())),
            GStmt::If {
                guard,
                then_b,
                else_b,
            } => {
                out.push_str(&format!("{pad}if ({}) {{\n", guard.src()));
                render_block(out, then_b, indent + 1);
                if else_b.is_empty() {
                    out.push_str(&format!("{pad}}}\n"));
                } else {
                    out.push_str(&format!("{pad}}} else {{\n"));
                    render_block(out, else_b, indent + 1);
                    out.push_str(&format!("{pad}}}\n"));
                }
            }
            GStmt::Call {
                callee,
                arg_var,
                arg_offset,
            } => out.push_str(&format!("{pad}{callee}({arg_var} + {arg_offset});\n")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let params = GenParams {
            seed: 99,
            ..GenParams::default()
        };
        assert_eq!(
            Scenario::generate(&params).source(),
            Scenario::generate(&params).source()
        );
    }

    #[test]
    fn generated_programs_parse_and_check() {
        for seed in 0..8 {
            let scenario = Scenario::generate(&GenParams {
                seed,
                ..GenParams::default()
            });
            let program = scenario.program();
            assert!(program.proc(PROC_NAME).is_some());
        }
    }

    #[test]
    fn markers_are_unique() {
        let scenario = Scenario::generate(&GenParams::default());
        let source = scenario.source();
        for marker in MARKER_BASE..scenario.next_marker {
            // Guards render the marker once, dead guards twice; every
            // marker must appear somewhere and belong to one site only —
            // uniqueness of allocation guarantees the latter.
            assert!(
                source.contains(&marker.to_string()),
                "marker {marker} missing from source"
            );
        }
    }

    #[test]
    fn call_free_scenarios_have_no_helpers() {
        let scenario = Scenario::generate(&GenParams {
            helpers: 0,
            ..GenParams::default()
        });
        assert!(scenario.helpers.is_empty());
        assert_eq!(scenario.program().procs.len(), 1);
    }

    #[test]
    fn size_scales_with_arms() {
        let small = Scenario::generate(&GenParams {
            arms: 4,
            ..GenParams::default()
        });
        let large = Scenario::generate(&GenParams {
            arms: 40,
            ..GenParams::default()
        });
        assert!(large.stmt_count() > 5 * small.stmt_count());
    }
}
