//! Canonical pretty-printer and the layout pass.
//!
//! The printer emits fully parenthesized-where-needed source such that
//! `parse_program(pretty(p))` reproduces `p` up to spans (verified by a
//! property test in the umbrella crate). `else`-blocks containing exactly one
//! `if` are rendered as `else if` chains, matching the parser's sugar; each
//! link of a chain is written straight into the output, so printing is
//! linear in the size of the text.
//!
//! [`layout_program`] runs the same printer in recording mode: besides the
//! text, it gives every global, parameter, procedure, statement and
//! expression the span that [`parse_program`](crate::parse_program) of that
//! text would give it. Inlining uses it to hand each inlined copy unique
//! statement spans without printing and re-parsing the program. The parser
//! has no negative literals, so a negative [`ExprKind::Int`] comes out of the
//! layout as a negation of its magnitude, as a re-parse would read it.

use std::fmt::Write as _;

use crate::ast::{BinOp, Block, Expr, ExprKind, Procedure, Program, Stmt, StmtKind, UnOp};
use crate::span::Span;

/// Renders a whole program as canonical MJ source.
///
/// # Examples
///
/// ```
/// use dise_ir::{parse_program, pretty::pretty_program};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = parse_program("proc f(int x) { if (x>0) { x = x-1; } }")?;
/// let text = pretty_program(&p);
/// let reparsed = parse_program(&text)?;
/// assert!(p.syn_eq(&reparsed));
/// # Ok(())
/// # }
/// ```
pub fn pretty_program(program: &Program) -> String {
    let mut printer = Printer::new(false);
    printer.program(program);
    printer.out
}

/// Renders `program` as [`pretty_program`] does and re-spans it in place:
/// afterwards every node carries the span that parsing the returned text
/// would give it, and negative integer literals have become negations of
/// their magnitude. Assert labels, which have no surface syntax, are kept.
///
/// # Examples
///
/// ```
/// use dise_ir::builder::{assign, int, ProgramBuilder};
/// use dise_ir::{parse_program, pretty::layout_program, Type};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut p = ProgramBuilder::new()
///     .proc("f", [("x", Type::Int)], vec![assign("x", int(1)), assign("x", int(2))])
///     .build();
/// let text = layout_program(&mut p);
/// assert_eq!(p, parse_program(&text)?);
/// assert_eq!(p.procs[0].body.stmts[1].span.line, 3);
/// # Ok(())
/// # }
/// ```
pub fn layout_program(program: &mut Program) -> String {
    let mut printer = Printer::new(true);
    printer.program(program);
    let mut spans = printer.spans.take().unwrap_or_default().into_iter();
    respan_program(program, &mut spans);
    debug_assert!(spans.next().is_none(), "one recorded span per node");
    printer.out
}

/// Renders a single procedure as canonical MJ source.
pub fn pretty_proc(procedure: &Procedure) -> String {
    let mut printer = Printer::new(false);
    printer.procedure(procedure);
    printer.out
}

/// Renders a statement (with trailing newline) at the given indent level.
pub fn pretty_stmt(stmt: &Stmt, indent: usize) -> String {
    let mut printer = Printer::new(false);
    printer.indent(indent);
    printer.stmt(stmt, indent);
    printer.out
}

/// Renders an expression with minimal parentheses.
///
/// # Examples
///
/// ```
/// use dise_ir::{parse_expr, pretty::pretty_expr};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// assert_eq!(pretty_expr(&parse_expr("(x + 1) * 2")?), "(x + 1) * 2");
/// assert_eq!(pretty_expr(&parse_expr("x + 1 * 2")?), "x + 1 * 2");
/// # Ok(())
/// # }
/// ```
pub fn pretty_expr(expr: &Expr) -> String {
    let mut printer = Printer::new(false);
    printer.expr(expr, 0);
    printer.out
}

/// Binding strength: higher binds tighter. Mirrors the parser's grammar
/// levels (or < and < cmp < add < mul < unary).
fn precedence(op: BinOp) -> u8 {
    match op {
        BinOp::Or => 1,
        BinOp::And => 2,
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 3,
        BinOp::Add | BinOp::Sub => 4,
        BinOp::Mul | BinOp::Div | BinOp::Rem => 5,
    }
}

/// The one writer behind every entry point. Every node the parser gives a
/// span to is written between a [`Printer::open`] and a
/// [`Printer::close`]; in recording mode that pair stores the node's span
/// in pre-order, the order [`respan_program`] consumes them in.
struct Printer {
    out: String,
    /// 1-based line the next character lands on.
    line: u32,
    /// Byte offset of the start of `line` in `out`. Columns count bytes,
    /// which are characters in MJ source (it is ASCII).
    line_start: usize,
    /// Recorded spans in pre-order; `None` when only printing.
    spans: Option<Vec<Span>>,
}

/// A node whose span is open: its pre-order slot and start position.
struct Open {
    slot: usize,
    line: u32,
    col: u32,
}

impl Printer {
    fn new(record: bool) -> Printer {
        Printer {
            out: String::new(),
            line: 1,
            line_start: 0,
            spans: record.then(Vec::new),
        }
    }

    fn col(&self) -> u32 {
        (self.out.len() - self.line_start) as u32 + 1
    }

    fn open(&mut self) -> Open {
        let slot = match &mut self.spans {
            Some(spans) => {
                spans.push(Span::dummy());
                spans.len() - 1
            }
            None => 0,
        };
        Open {
            slot,
            line: self.line,
            col: self.col(),
        }
    }

    fn close(&mut self, open: Open) {
        let (end_line, end_col) = (self.line, self.col());
        if let Some(spans) = &mut self.spans {
            spans[open.slot] = Span::new(open.line, open.col, end_line, end_col);
        }
    }

    fn newline(&mut self) {
        self.out.push('\n');
        self.line += 1;
        self.line_start = self.out.len();
    }

    fn indent(&mut self, indent: usize) {
        for _ in 0..indent {
            self.out.push_str("  ");
        }
    }

    fn program(&mut self, program: &Program) {
        for global in &program.globals {
            let open = self.open();
            let _ = write!(self.out, "{} {}", global.ty, global.name);
            if let Some(init) = &global.init {
                self.out.push_str(" = ");
                self.expr(init, 0);
            }
            self.out.push(';');
            self.close(open);
            self.newline();
        }
        if !program.globals.is_empty() && !program.procs.is_empty() {
            self.newline();
        }
        for (i, procedure) in program.procs.iter().enumerate() {
            if i > 0 {
                self.newline();
            }
            self.procedure(procedure);
        }
    }

    fn procedure(&mut self, procedure: &Procedure) {
        let open = self.open();
        let _ = write!(self.out, "proc {}(", procedure.name);
        for (i, param) in procedure.params.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            let open = self.open();
            let _ = write!(self.out, "{} {}", param.ty, param.name);
            self.close(open);
        }
        self.out.push(')');
        self.close(open);
        self.out.push_str(" {");
        self.newline();
        self.block(&procedure.body, 1);
        self.out.push('}');
        self.newline();
    }

    fn block(&mut self, block: &Block, indent: usize) {
        for stmt in &block.stmts {
            self.indent(indent);
            self.stmt(stmt, indent);
        }
    }

    /// Writes `stmt` from the current position (its indent, if any, is
    /// already written); nested lines are indented relative to `indent`.
    fn stmt(&mut self, stmt: &Stmt, indent: usize) {
        let open = self.open();
        match &stmt.kind {
            StmtKind::Decl { ty, name, init } => {
                let _ = write!(self.out, "{ty} {name} = ");
                self.expr(init, 0);
                self.end_simple(open);
            }
            StmtKind::Assign { name, value } => {
                let _ = write!(self.out, "{name} = ");
                self.expr(value, 0);
                self.end_simple(open);
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.header("if", cond, open);
                self.block(then_branch, indent + 1);
                self.indent(indent);
                match else_branch {
                    None => self.out.push('}'),
                    // `else { if ... }` with a single nested if is the
                    // parser's `else if` sugar: the nested if continues
                    // this line.
                    Some(else_block)
                        if else_block.stmts.len() == 1
                            && matches!(else_block.stmts[0].kind, StmtKind::If { .. }) =>
                    {
                        self.out.push_str("} else ");
                        self.stmt(&else_block.stmts[0], indent);
                        return;
                    }
                    Some(else_block) => {
                        self.out.push_str("} else {");
                        self.newline();
                        self.block(else_block, indent + 1);
                        self.indent(indent);
                        self.out.push('}');
                    }
                }
                self.newline();
            }
            StmtKind::While { cond, body } => {
                self.header("while", cond, open);
                self.block(body, indent + 1);
                self.indent(indent);
                self.out.push('}');
                self.newline();
            }
            StmtKind::Assert { cond, .. } => {
                self.out.push_str("assert(");
                self.expr(cond, 0);
                self.out.push(')');
                self.end_simple(open);
            }
            StmtKind::Assume { cond } => {
                self.out.push_str("assume(");
                self.expr(cond, 0);
                self.out.push(')');
                self.end_simple(open);
            }
            StmtKind::Skip => {
                self.out.push_str("skip");
                self.end_simple(open);
            }
            StmtKind::Return => {
                self.out.push_str("return");
                self.end_simple(open);
            }
            StmtKind::Call { callee, args } => {
                let _ = write!(self.out, "{callee}(");
                for (i, arg) in args.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.expr(arg, 0);
                }
                self.out.push(')');
                self.end_simple(open);
            }
        }
    }

    /// Ends a one-line statement: `;`, its span, the line break.
    fn end_simple(&mut self, open: Open) {
        self.out.push(';');
        self.close(open);
        self.newline();
    }

    /// `keyword (cond) {` — the statement's span covers the header up to
    /// the closing parenthesis.
    fn header(&mut self, keyword: &str, cond: &Expr, open: Open) {
        self.out.push_str(keyword);
        self.out.push_str(" (");
        self.expr(cond, 0);
        self.out.push(')');
        self.close(open);
        self.out.push_str(" {");
        self.newline();
    }

    /// Writes `expr`, parenthesized when it binds looser than `min_prec`.
    /// Its span runs from its first character (an opening parenthesis
    /// included) to its last, as the parser's spans do.
    fn expr(&mut self, expr: &Expr, min_prec: u8) {
        let open = self.open();
        match &expr.kind {
            ExprKind::Int(v) if *v < 0 => {
                // Negative literals only arise in built ASTs; they re-parse
                // as a negation of the magnitude, so parenthesize under
                // tight contexts and give the magnitude its own span.
                let parens = min_prec >= 6;
                if parens {
                    self.out.push('(');
                }
                self.out.push('-');
                let magnitude = self.open();
                let _ = write!(self.out, "{}", v.unsigned_abs());
                self.close(magnitude);
                if parens {
                    self.out.push(')');
                }
            }
            ExprKind::Int(v) => {
                let _ = write!(self.out, "{v}");
            }
            ExprKind::Bool(b) => {
                let _ = write!(self.out, "{b}");
            }
            ExprKind::Var(name) => self.out.push_str(name),
            ExprKind::Unary { op, expr: inner } => {
                self.out.push(match op {
                    UnOp::Neg => '-',
                    UnOp::Not => '!',
                });
                // Unary binds tighter than all binary operators (level 6).
                self.expr(inner, 6);
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let prec = precedence(*op);
                let parens = prec < min_prec;
                if parens {
                    self.out.push('(');
                }
                // Left-associative: the left child may be at the same level,
                // the right child must bind strictly tighter. Comparisons are
                // non-associative, so both children must bind strictly
                // tighter.
                let (left_min, right_min) = if op.is_equality() || op.is_ordering() {
                    (prec + 1, prec + 1)
                } else {
                    (prec, prec + 1)
                };
                self.expr(lhs, left_min);
                let _ = write!(self.out, " {op} ");
                self.expr(rhs, right_min);
                if parens {
                    self.out.push(')');
                }
            }
        }
        self.close(open);
    }
}

/// The next recorded span, in the printer's pre-order.
fn next_span(spans: &mut impl Iterator<Item = Span>) -> Span {
    spans.next().expect("the printer records one span per node")
}

/// Assigns recorded spans to `program`'s nodes in the order
/// [`Printer::program`] opened them.
fn respan_program(program: &mut Program, spans: &mut impl Iterator<Item = Span>) {
    for global in &mut program.globals {
        global.span = next_span(spans);
        if let Some(init) = &mut global.init {
            respan_expr(init, spans);
        }
    }
    for procedure in &mut program.procs {
        procedure.span = next_span(spans);
        for param in &mut procedure.params {
            param.span = next_span(spans);
        }
        respan_block(&mut procedure.body, spans);
    }
}

fn respan_block(block: &mut Block, spans: &mut impl Iterator<Item = Span>) {
    for stmt in &mut block.stmts {
        stmt.span = next_span(spans);
        match &mut stmt.kind {
            StmtKind::Decl { init: expr, .. }
            | StmtKind::Assign { value: expr, .. }
            | StmtKind::Assert { cond: expr, .. }
            | StmtKind::Assume { cond: expr } => respan_expr(expr, spans),
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                respan_expr(cond, spans);
                respan_block(then_branch, spans);
                if let Some(else_block) = else_branch {
                    respan_block(else_block, spans);
                }
            }
            StmtKind::While { cond, body } => {
                respan_expr(cond, spans);
                respan_block(body, spans);
            }
            StmtKind::Call { args, .. } => {
                for arg in args {
                    respan_expr(arg, spans);
                }
            }
            StmtKind::Skip | StmtKind::Return => {}
        }
    }
}

fn respan_expr(expr: &mut Expr, spans: &mut impl Iterator<Item = Span>) {
    expr.span = next_span(spans);
    match &mut expr.kind {
        ExprKind::Int(v) if *v < 0 => {
            let magnitude = Expr::with_span(ExprKind::Int(v.wrapping_neg()), next_span(spans));
            expr.kind = ExprKind::Unary {
                op: UnOp::Neg,
                expr: Box::new(magnitude),
            };
        }
        ExprKind::Unary { expr: inner, .. } => respan_expr(inner, spans),
        ExprKind::Binary { lhs, rhs, .. } => {
            respan_expr(lhs, spans);
            respan_expr(rhs, spans);
        }
        ExprKind::Int(_) | ExprKind::Bool(_) | ExprKind::Var(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr, parse_program};

    fn round_trip_expr(src: &str) {
        let e = parse_expr(src).unwrap();
        let printed = pretty_expr(&e);
        let reparsed = parse_expr(&printed).unwrap();
        assert!(e.syn_eq(&reparsed), "round trip failed: {src} -> {printed}");
    }

    #[test]
    fn expr_round_trips() {
        for src in [
            "1 + 2 * 3",
            "(1 + 2) * 3",
            "a - b - c",
            "a - (b - c)",
            "-x + y",
            "-(x + y)",
            "!(a && b) || c",
            "x / y % z",
            "x % (y / z)",
            "a == b && c != d",
            "x <= 0",
            "!!a",
            "1 - -2",
        ] {
            round_trip_expr(src);
        }
    }

    #[test]
    fn associativity_is_preserved() {
        assert_eq!(pretty_expr(&parse_expr("a - b - c").unwrap()), "a - b - c");
        assert_eq!(
            pretty_expr(&parse_expr("a - (b - c)").unwrap()),
            "a - (b - c)"
        );
    }

    #[test]
    fn logical_precedence_round_trips() {
        assert_eq!(
            pretty_expr(&parse_expr("(a || b) && c").unwrap()),
            "(a || b) && c"
        );
        assert_eq!(
            pretty_expr(&parse_expr("a || b && c").unwrap()),
            "a || b && c"
        );
    }

    #[test]
    fn program_round_trips() {
        let src = "int AltPress = 0;
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
}
";
        let p = parse_program(src).unwrap();
        let printed = pretty_program(&p);
        let reparsed = parse_program(&printed).unwrap();
        assert!(p.syn_eq(&reparsed));
        // The canonical form is a fixed point of pretty-printing.
        assert_eq!(printed, pretty_program(&reparsed));
    }

    #[test]
    fn else_if_chains_stay_flat() {
        let src = "proc f(int x) {
  if (x == 0) {
    skip;
  } else if (x == 1) {
    skip;
  } else {
    skip;
  }
}
";
        let p = parse_program(src).unwrap();
        assert_eq!(pretty_program(&p), src);
    }

    /// A four-link `else if` chain ending in a plain `else` block, with
    /// compound statements nested in its arms.
    const DEEP_CHAIN: &str = "proc f(int x) {
  if (x == 0) {
    x = 1;
  } else if (x == 1) {
    if (x > 0) {
      x = 2;
    } else if (x < 0) {
      skip;
    }
  } else if (x == 2) {
    while (x > 0) {
      x = x - 1;
    }
  } else if (x == 3) {
    assert(x == 3);
  } else if (x == 4) {
    x = -x;
  } else {
    if (x > 10) {
      x = 10;
    } else {
      x = x + 1;
    }
    assume(x != 4);
  }
  x = 0;
}
";

    #[test]
    fn deep_else_if_chain_prints_verbatim() {
        let p = parse_program(DEEP_CHAIN).unwrap();
        assert_eq!(pretty_program(&p), DEEP_CHAIN);
        // A chain printed on its own at a deeper indent keeps its shape.
        let nested = pretty_stmt(&p.procs[0].body.stmts[0], 2);
        let expected: String = DEEP_CHAIN
            .lines()
            .skip(1)
            .take_while(|line| *line != "  x = 0;")
            .map(|line| format!("  {line}\n"))
            .collect();
        assert_eq!(nested, expected);
    }

    #[test]
    fn layout_gives_the_spans_of_a_parse() {
        let parsed = parse_program(DEEP_CHAIN).unwrap();
        let mut laid_out = parsed.clone();
        assert_eq!(layout_program(&mut laid_out), DEEP_CHAIN);
        assert_eq!(laid_out, parsed);
        // Globals and parameters get their spans too, from dummy ones.
        let source = "int g = 2;\nbool b;\n\nproc f(int x, bool y) {\n  skip;\n}\n";
        let expected = parse_program(source).unwrap();
        let mut program = expected.clone();
        for global in &mut program.globals {
            global.span = Span::dummy();
        }
        for param in &mut program.procs[0].params {
            param.span = Span::dummy();
        }
        program.procs[0].span = Span::dummy();
        program.procs[0].body.stmts[0].span = Span::dummy();
        assert_eq!(layout_program(&mut program), source);
        assert_eq!(program, expected);
    }

    #[test]
    fn while_and_assert_print() {
        let p = parse_program("proc f(int x) { while (x > 0) { x = x - 1; } assert(x == 0); }")
            .unwrap();
        let printed = pretty_program(&p);
        assert!(printed.contains("while (x > 0) {"));
        assert!(printed.contains("assert(x == 0);"));
        assert!(p.syn_eq(&parse_program(&printed).unwrap()));
    }

    #[test]
    fn call_statements_round_trip() {
        let src = "proc helper(int a) {
  skip;
}

proc main(int x) {
  helper(x * 2);
  helper(0);
}
";
        let p = parse_program(src).unwrap();
        assert_eq!(pretty_program(&p), src);
        assert!(p.syn_eq(&parse_program(&pretty_program(&p)).unwrap()));
    }

    #[test]
    fn negative_literal_reparses() {
        use crate::ast::{Expr, ExprKind};
        let e = Expr::new(ExprKind::Int(-5));
        let printed = pretty_expr(&e);
        let reparsed = parse_expr(&printed).unwrap();
        // -5 reparses as Neg(5); both evaluate identically, and printing the
        // reparsed form must also parse.
        let reprinted = pretty_expr(&reparsed);
        assert!(parse_expr(&reprinted).is_ok());
    }
}
