//! Structural statement diff between two versions of a procedure.
//!
//! Matching runs in two LCS passes per block:
//!
//! 1. **Header matching** — statements whose headers are structurally equal
//!    ([`dise_ir::ast::Stmt::header_eq`]: the full statement for simple
//!    statements, just the condition for `if`/`while`) are paired and
//!    marked *unchanged*; compound pairs recurse into their bodies.
//! 2. **Kind matching** — leftover statements of the same kind (an `if`
//!    against an `if`, an assignment against an assignment to the same
//!    variable, …) are paired and marked *changed*; compound pairs still
//!    recurse so an `if` with a mutated condition doesn't drag its whole
//!    body into the changed set.
//!
//! Anything unmatched is *removed* (base side) or *added* (mod side),
//! including, recursively, the bodies of unmatched compound statements.
//!
//! Statements are keyed by their source [`Span`], which is unique per
//! statement in parsed programs (the constructor validates this and
//! reports [`DiffError::AmbiguousSpans`] otherwise — lay builder-generated
//! ASTs out first with [`dise_ir::pretty::layout_program`]).

use std::collections::{BTreeMap, HashSet};
use std::error::Error;
use std::fmt;

use dise_ir::ast::{Block, Procedure, Program, Stmt, StmtKind};
use dise_ir::Span;

use crate::line_diff::lcs_table;

/// Classification of a base-version statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaseMark {
    /// Present and identical (header) in the modified version.
    Unchanged,
    /// Matched to a modified-version statement with different content.
    Changed,
    /// No counterpart in the modified version.
    Removed,
}

/// Classification of a modified-version statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModMark {
    /// Present and identical (header) in the base version.
    Unchanged,
    /// Matched to a base-version statement with different content.
    Changed,
    /// No counterpart in the base version.
    Added,
}

/// Errors from the differencing analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffError {
    /// The requested procedure is missing from one of the programs.
    MissingProcedure(String),
    /// Two statements share a span; the program was probably built
    /// programmatically. Lay it out first
    /// ([`dise_ir::pretty::layout_program`]).
    AmbiguousSpans(Span),
}

impl fmt::Display for DiffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiffError::MissingProcedure(name) => {
                write!(f, "procedure `{name}` not found in both versions")
            }
            DiffError::AmbiguousSpans(span) => write!(
                f,
                "duplicate statement span {span}; re-parse the program to assign unique spans"
            ),
        }
    }
}

impl Error for DiffError {}

/// The diff of one procedure across two program versions.
#[derive(Debug, Clone, Default)]
pub struct ProcDiff {
    base_marks: BTreeMap<Span, BaseMark>,
    mod_marks: BTreeMap<Span, ModMark>,
    /// Matched statements: base span → mod span (changed + unchanged).
    span_map: BTreeMap<Span, Span>,
}

impl ProcDiff {
    /// The mark of the base statement at `span` (if it exists).
    pub fn base_mark(&self, span: Span) -> Option<BaseMark> {
        self.base_marks.get(&span).copied()
    }

    /// The mark of the modified statement at `span` (if it exists).
    pub fn mod_mark(&self, span: Span) -> Option<ModMark> {
        self.mod_marks.get(&span).copied()
    }

    /// The `diffMap` at statement granularity: the modified-version span a
    /// base statement corresponds to. Removed statements return `None`
    /// ("the get method on diffMap returns the empty set", Fig. 5(a)).
    pub fn map_span(&self, base_span: Span) -> Option<Span> {
        self.span_map.get(&base_span).copied()
    }

    /// Spans of changed statements in the modified version.
    pub fn changed_mod_spans(&self) -> impl Iterator<Item = Span> + '_ {
        self.mod_marks
            .iter()
            .filter(|(_, &m)| m == ModMark::Changed)
            .map(|(&s, _)| s)
    }

    /// Spans of added statements in the modified version.
    pub fn added_mod_spans(&self) -> impl Iterator<Item = Span> + '_ {
        self.mod_marks
            .iter()
            .filter(|(_, &m)| m == ModMark::Added)
            .map(|(&s, _)| s)
    }

    /// Spans of removed statements in the base version.
    pub fn removed_base_spans(&self) -> impl Iterator<Item = Span> + '_ {
        self.base_marks
            .iter()
            .filter(|(_, &m)| m == BaseMark::Removed)
            .map(|(&s, _)| s)
    }

    /// Spans of changed statements in the base version.
    pub fn changed_base_spans(&self) -> impl Iterator<Item = Span> + '_ {
        self.base_marks
            .iter()
            .filter(|(_, &m)| m == BaseMark::Changed)
            .map(|(&s, _)| s)
    }

    /// Returns `true` when nothing changed, was added, or was removed.
    pub fn is_identical(&self) -> bool {
        self.base_marks.values().all(|&m| m == BaseMark::Unchanged)
            && self.mod_marks.values().all(|&m| m == ModMark::Unchanged)
    }

    /// Number of changed-or-added statements in the modified version (the
    /// "Changed" CFG-node count of Table 2 is derived from these marks).
    pub fn change_count(&self) -> usize {
        self.mod_marks
            .values()
            .filter(|&&m| m != ModMark::Unchanged)
            .count()
            + self
                .base_marks
                .values()
                .filter(|&&m| m == BaseMark::Removed)
                .count()
    }
}

/// Diffs the procedure named `proc_name` between two programs.
///
/// # Errors
///
/// [`DiffError::MissingProcedure`] if either program lacks the procedure;
/// [`DiffError::AmbiguousSpans`] if statement spans are not unique.
pub fn diff_programs(
    base: &Program,
    modified: &Program,
    proc_name: &str,
) -> Result<ProcDiff, DiffError> {
    let base_proc = base
        .proc(proc_name)
        .ok_or_else(|| DiffError::MissingProcedure(proc_name.to_string()))?;
    let mod_proc = modified
        .proc(proc_name)
        .ok_or_else(|| DiffError::MissingProcedure(proc_name.to_string()))?;
    diff_procedures(base_proc, mod_proc)
}

/// Diffs two versions of a procedure.
///
/// # Errors
///
/// [`DiffError::AmbiguousSpans`] if statement spans are not unique within
/// either version.
pub fn diff_procedures(base: &Procedure, modified: &Procedure) -> Result<ProcDiff, DiffError> {
    validate_spans(&base.body)?;
    validate_spans(&modified.body)?;
    let mut diff = ProcDiff::default();
    diff_blocks(&base.body, &modified.body, &mut diff);
    Ok(diff)
}

fn validate_spans(block: &Block) -> Result<(), DiffError> {
    fn walk(block: &Block, seen: &mut HashSet<Span>) -> Result<(), DiffError> {
        for stmt in &block.stmts {
            if !seen.insert(stmt.span) {
                return Err(DiffError::AmbiguousSpans(stmt.span));
            }
            match &stmt.kind {
                StmtKind::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    walk(then_branch, seen)?;
                    if let Some(e) = else_branch {
                        walk(e, seen)?;
                    }
                }
                StmtKind::While { body, .. } => walk(body, seen)?,
                _ => {}
            }
        }
        Ok(())
    }
    let mut seen = HashSet::with_capacity(block.stmt_count());
    walk(block, &mut seen)
}

fn diff_blocks(base: &Block, modified: &Block, diff: &mut ProcDiff) {
    let (base_stmts, mod_stmts) = (&base.stmts, &modified.stmts);

    // Pass 1: header-equal pairs are unchanged.
    let header_pairs = lcs_table(base_stmts, mod_stmts, |a, b| a.header_eq(b));
    for &(bi, mj) in &header_pairs {
        let (b, m) = (&base_stmts[bi], &mod_stmts[mj]);
        diff.base_marks.insert(b.span, BaseMark::Unchanged);
        diff.mod_marks.insert(m.span, ModMark::Unchanged);
        diff.span_map.insert(b.span, m.span);
        recurse_into_pair(b, m, diff);
    }
    if header_pairs.len() == base_stmts.len() && header_pairs.len() == mod_stmts.len() {
        return; // An untouched block.
    }
    let mut base_matched = vec![false; base_stmts.len()];
    let mut mod_matched = vec![false; mod_stmts.len()];
    for &(bi, mj) in &header_pairs {
        base_matched[bi] = true;
        mod_matched[mj] = true;
    }

    // Pass 2: same-kind pairs among the leftovers are "changed".
    let base_rest: Vec<(usize, &Stmt)> = base_stmts
        .iter()
        .enumerate()
        .filter(|(i, _)| !base_matched[*i])
        .collect();
    let mod_rest: Vec<(usize, &Stmt)> = mod_stmts
        .iter()
        .enumerate()
        .filter(|(j, _)| !mod_matched[*j])
        .collect();
    let kind_pairs = lcs_table(&base_rest, &mod_rest, |(_, a), (_, b)| same_kind(a, b));
    for &(ri, rj) in &kind_pairs {
        let (bi, b) = base_rest[ri];
        let (mj, m) = mod_rest[rj];
        base_matched[bi] = true;
        mod_matched[mj] = true;
        diff.base_marks.insert(b.span, BaseMark::Changed);
        diff.mod_marks.insert(m.span, ModMark::Changed);
        diff.span_map.insert(b.span, m.span);
        recurse_into_pair(b, m, diff);
    }

    // Leftovers: removed / added, recursively.
    for (stmt, _) in base_stmts.iter().zip(&base_matched).filter(|(_, &m)| !m) {
        mark_base_subtree(stmt, diff);
    }
    for (stmt, _) in mod_stmts.iter().zip(&mod_matched).filter(|(_, &m)| !m) {
        mark_mod_subtree(stmt, diff);
    }
}

/// Do two statements have the same shape, coarsely? Used by the second
/// matching pass, where contents already differ.
fn same_kind(a: &Stmt, b: &Stmt) -> bool {
    match (&a.kind, &b.kind) {
        (StmtKind::If { .. }, StmtKind::If { .. }) => true,
        (StmtKind::While { .. }, StmtKind::While { .. }) => true,
        (StmtKind::Assert { .. }, StmtKind::Assert { .. }) => true,
        (StmtKind::Assume { .. }, StmtKind::Assume { .. }) => true,
        (StmtKind::Assign { name: na, .. }, StmtKind::Assign { name: nb, .. }) => na == nb,
        (StmtKind::Decl { name: na, .. }, StmtKind::Decl { name: nb, .. }) => na == nb,
        (StmtKind::Skip, StmtKind::Skip) => true,
        (StmtKind::Return, StmtKind::Return) => true,
        (StmtKind::Call { callee: a, .. }, StmtKind::Call { callee: b, .. }) => a == b,
        _ => false,
    }
}

fn recurse_into_pair(base: &Stmt, modified: &Stmt, diff: &mut ProcDiff) {
    static EMPTY: Block = Block { stmts: Vec::new() };
    match (&base.kind, &modified.kind) {
        (
            StmtKind::If {
                then_branch: bt,
                else_branch: be,
                ..
            },
            StmtKind::If {
                then_branch: mt,
                else_branch: me,
                ..
            },
        ) => {
            diff_blocks(bt, mt, diff);
            let be = be.as_ref().unwrap_or(&EMPTY);
            let me = me.as_ref().unwrap_or(&EMPTY);
            diff_blocks(be, me, diff);
        }
        (StmtKind::While { body: bb, .. }, StmtKind::While { body: mb, .. }) => {
            diff_blocks(bb, mb, diff);
        }
        _ => {}
    }
}

fn mark_base_subtree(stmt: &Stmt, diff: &mut ProcDiff) {
    diff.base_marks.insert(stmt.span, BaseMark::Removed);
    for_each_child(stmt, &mut |child| mark_base_subtree(child, diff));
}

fn mark_mod_subtree(stmt: &Stmt, diff: &mut ProcDiff) {
    diff.mod_marks.insert(stmt.span, ModMark::Added);
    for_each_child(stmt, &mut |child| mark_mod_subtree(child, diff));
}

fn for_each_child(stmt: &Stmt, f: &mut impl FnMut(&Stmt)) {
    match &stmt.kind {
        StmtKind::If {
            then_branch,
            else_branch,
            ..
        } => {
            for s in &then_branch.stmts {
                f(s);
            }
            if let Some(e) = else_branch {
                for s in &e.stmts {
                    f(s);
                }
            }
        }
        StmtKind::While { body, .. } => {
            for s in &body.stmts {
                f(s);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dise_ir::parse_program;

    fn diff(base: &str, modified: &str) -> ProcDiff {
        let b = parse_program(base).unwrap();
        let m = parse_program(modified).unwrap();
        diff_programs(&b, &m, "f").unwrap()
    }

    #[test]
    fn identical_programs_have_identity_diff() {
        let src = "proc f(int x) { if (x > 0) { x = 1; } else { x = 2; } }";
        let d = diff(src, src);
        assert!(d.is_identical());
        assert_eq!(d.change_count(), 0);
    }

    #[test]
    fn operator_mutation_marks_condition_changed() {
        // The paper's canonical change: `==` → `<=` on a conditional.
        let d = diff(
            "proc f(int x) {\n  if (x == 0) {\n    x = 1;\n  }\n}",
            "proc f(int x) {\n  if (x <= 0) {\n    x = 1;\n  }\n}",
        );
        let changed: Vec<Span> = d.changed_mod_spans().collect();
        assert_eq!(changed.len(), 1);
        assert_eq!(changed[0].line, 2);
        // The body statement is still unchanged.
        assert!(d.mod_mark(Span::new(3, 5, 3, 11)).is_some());
        assert!(d
            .mod_marks
            .iter()
            .filter(|(s, _)| s.line == 3)
            .all(|(_, &m)| m == ModMark::Unchanged));
        assert_eq!(d.change_count(), 1);
    }

    #[test]
    fn assignment_rhs_mutation_is_changed() {
        let d = diff(
            "proc f(int x) {\n  x = x + 1;\n}",
            "proc f(int x) {\n  x = x + 2;\n}",
        );
        assert_eq!(d.changed_mod_spans().count(), 1);
        assert_eq!(d.changed_base_spans().count(), 1);
    }

    #[test]
    fn added_statement_is_added() {
        let d = diff(
            "proc f(int x) {\n  x = 1;\n}",
            "proc f(int x) {\n  x = 1;\n  x = x + 5;\n}",
        );
        assert_eq!(d.added_mod_spans().count(), 1);
        assert_eq!(d.removed_base_spans().count(), 0);
        assert_eq!(d.added_mod_spans().next().unwrap().line, 3);
    }

    #[test]
    fn removed_statement_is_removed_and_unmapped() {
        let d = diff(
            "proc f(int x) {\n  x = 1;\n  x = x + 5;\n}",
            "proc f(int x) {\n  x = 1;\n}",
        );
        let removed: Vec<Span> = d.removed_base_spans().collect();
        assert_eq!(removed.len(), 1);
        assert_eq!(d.map_span(removed[0]), None);
    }

    #[test]
    fn span_map_links_matched_statements() {
        let d = diff(
            "proc f(int x) {\n  x = 1;\n  x = 2;\n}",
            "proc f(int x) {\n  x = 0;\n  x = 1;\n  x = 2;\n}",
        );
        // base line 2 (`x = 1;`) maps to mod line 3.
        let base_span = d.base_marks.keys().find(|s| s.line == 2).copied().unwrap();
        assert_eq!(d.map_span(base_span).unwrap().line, 3);
    }

    #[test]
    fn changed_if_condition_keeps_body_matched() {
        let d = diff(
            "proc f(int x) {\n  if (x == 0) {\n    x = 1;\n    x = 2;\n  }\n}",
            "proc f(int x) {\n  if (x < 0) {\n    x = 1;\n    x = 9;\n  }\n}",
        );
        // The if is changed; `x = 1` unchanged; `x = 2`→`x = 9` changed.
        let mod_marks: BTreeMap<u32, ModMark> =
            d.mod_marks.iter().map(|(s, &m)| (s.line, m)).collect();
        assert_eq!(mod_marks[&2], ModMark::Changed);
        assert_eq!(mod_marks[&3], ModMark::Unchanged);
        assert_eq!(mod_marks[&4], ModMark::Changed);
    }

    #[test]
    fn removed_if_marks_whole_subtree() {
        let d = diff(
            "proc f(int x) {\n  if (x > 0) {\n    x = 1;\n  }\n  x = 5;\n}",
            "proc f(int x) {\n  x = 5;\n}",
        );
        // Both the if (line 2) and its body (line 3) are removed.
        let removed_lines: Vec<u32> = d.removed_base_spans().map(|s| s.line).collect();
        assert_eq!(removed_lines, vec![2, 3]);
    }

    #[test]
    fn added_else_branch() {
        let d = diff(
            "proc f(int x) {\n  if (x > 0) {\n    x = 1;\n  }\n}",
            "proc f(int x) {\n  if (x > 0) {\n    x = 1;\n  } else {\n    x = 2;\n  }\n}",
        );
        // The if header is unchanged; the else body is added.
        let added: Vec<u32> = d.added_mod_spans().map(|s| s.line).collect();
        assert_eq!(added, vec![5]);
        assert!(d
            .mod_marks
            .iter()
            .filter(|(s, _)| s.line == 2)
            .all(|(_, &m)| m == ModMark::Unchanged));
    }

    #[test]
    fn missing_procedure_is_reported() {
        let b = parse_program("proc f() { skip; }").unwrap();
        let m = parse_program("proc g() { skip; }").unwrap();
        assert_eq!(
            diff_programs(&b, &m, "f").unwrap_err(),
            DiffError::MissingProcedure("f".into())
        );
    }

    #[test]
    fn dummy_spans_are_rejected() {
        use dise_ir::builder::{assign, int, ProgramBuilder};
        use dise_ir::Type;
        let p = ProgramBuilder::new()
            .proc(
                "f",
                [("x", Type::Int)],
                vec![assign("x", int(1)), assign("x", int(2))],
            )
            .build();
        let err = diff_programs(&p, &p, "f").unwrap_err();
        assert!(matches!(err, DiffError::AmbiguousSpans(_)));
    }

    #[test]
    fn assignment_to_different_variable_is_remove_add() {
        let d = diff(
            "proc f(int x, int y) {\n  x = 1;\n}",
            "proc f(int x, int y) {\n  y = 1;\n}",
        );
        assert_eq!(d.removed_base_spans().count(), 1);
        assert_eq!(d.added_mod_spans().count(), 1);
    }

    #[test]
    fn reordered_statements_match_partially() {
        // LCS keeps the longest common run; one of the two swapped
        // statements ends up changed or removed+added.
        let d = diff(
            "proc f(int x, int y) {\n  x = 1;\n  y = 2;\n}",
            "proc f(int x, int y) {\n  y = 2;\n  x = 1;\n}",
        );
        assert!(!d.is_identical());
        // At least one statement stays matched.
        assert!(d.mod_marks.values().any(|&m| m == ModMark::Unchanged));
    }
}
