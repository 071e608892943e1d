//! Per-procedure content fingerprinting.
//!
//! The persistent analysis store keys its cross-run reuse decisions on a
//! stable fingerprint of *what the pipeline actually analyzes*: the
//! procedure after bounded inlining (the expansion
//! `dise-core::run_dise` performs; the layout that re-spans it is skipped,
//! since nothing hashed here carries a span), its referenced globals, and
//! the CFG built from it. Hashing both the canonical pretty-printed IR and the
//! CFG structure means the fingerprint is independent of source spans,
//! comments, and formatting — a re-indented file warm-starts — while any
//! change to statements, control structure, or global initializers
//! produces a new fingerprint.
//!
//! FNV-1a 64 over the canonical text plus the CFG's node labels and
//! labelled edge list. Stable across processes and platforms; collisions
//! are the usual 64-bit-birthday remote, and a collision only re-uses a
//! memoized *affected set* (the solver trie is structurally keyed and
//! immune).

use dise_cfg::{build_cfg, NodeKind};
use dise_ir::ast::Program;
use dise_ir::inline::{contains_calls, expand_calls, InlineError};
use dise_ir::pretty::{pretty_expr, pretty_proc};

/// FNV-1a 64 (local copy; the diff layer stays dependency-free).
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The content fingerprint of `proc_name` within `program`: canonical IR
/// of the globals and the (inlined) procedure, plus its CFG structure.
/// Two programs with equal fingerprints are analyzed identically by the
/// DiSE pipeline; sibling procedures the target never calls do not
/// participate, so editing one leaves the others' fingerprints intact.
///
/// # Errors
///
/// Propagates [`InlineError`] when the procedure's calls cannot be
/// flattened (missing callee, recursion past the bound) — the same
/// programs `run_dise` itself rejects.
///
/// # Examples
///
/// ```
/// use dise_diff::fingerprint::proc_fingerprint;
/// use dise_ir::parse_program;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = parse_program("proc f(int x) { if (x > 0) { x = 1; } }")?;
/// let same = parse_program("proc f(int x) {\n  if (x>0) { x = 1; }\n}")?;
/// let different = parse_program("proc f(int x) { if (x >= 0) { x = 1; } }")?;
/// assert_eq!(proc_fingerprint(&a, "f")?, proc_fingerprint(&same, "f")?);
/// assert_ne!(proc_fingerprint(&a, "f")?, proc_fingerprint(&different, "f")?);
/// # Ok(())
/// # }
/// ```
pub fn proc_fingerprint(program: &Program, proc_name: &str) -> Result<u64, InlineError> {
    let flat;
    let program = if contains_calls(program, proc_name) {
        flat = expand_calls(program, proc_name)?;
        &flat
    } else {
        program
    };
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    fnv1a(&mut hash, proc_name.as_bytes());
    fnv1a(&mut hash, &[0]);
    // Only the analyzed procedure and the globals participate — a sibling
    // procedure's edit must not invalidate this one's fingerprint (the
    // summary broker keys cross-version callee reuse on exactly that).
    for global in &program.globals {
        fnv1a(&mut hash, global.ty.to_string().as_bytes());
        fnv1a(&mut hash, global.name.as_bytes());
        if let Some(init) = &global.init {
            fnv1a(&mut hash, pretty_expr(init).as_bytes());
        }
        fnv1a(&mut hash, &[0]);
    }
    if let Some(procedure) = program.proc(proc_name) {
        fnv1a(&mut hash, pretty_proc(procedure).as_bytes());
    }
    if let Some(procedure) = program.proc(proc_name) {
        let cfg = build_cfg(procedure);
        for id in cfg.node_ids() {
            // Node content without source positions (labels carry line
            // numbers, which formatting-only edits shift).
            let kind = match &cfg.node(id).kind {
                NodeKind::Begin => "begin".to_string(),
                NodeKind::End => "end".to_string(),
                NodeKind::Nop => "nop".to_string(),
                NodeKind::Assign { var, value } => {
                    format!("{var} = {}", pretty_expr(value))
                }
                NodeKind::Assume { cond } => format!("assume {}", pretty_expr(cond)),
                NodeKind::Branch { cond } => format!("branch {}", pretty_expr(cond)),
                NodeKind::Error { message } => format!("error {message}"),
                // Never reached here (the CFG above is built from the
                // flattened program), but kept total so summary-mode CFGs
                // could be fingerprinted directly.
                NodeKind::Call { callee, args } => {
                    let rendered: Vec<String> = args.iter().map(pretty_expr).collect();
                    format!("call {callee}({})", rendered.join(", "))
                }
            };
            fnv1a(&mut hash, kind.as_bytes());
            fnv1a(&mut hash, &[0]);
            for &(succ, label) in cfg.succs(id) {
                fnv1a(&mut hash, &(succ.index() as u64).to_le_bytes());
                fnv1a(&mut hash, format!("{label:?}").as_bytes());
            }
        }
    }
    Ok(hash)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dise_ir::parse_program;

    #[test]
    fn formatting_is_invisible() {
        let a = parse_program("int g;\nproc f(int x) { if (x > g) { g = x; } }").unwrap();
        let b = parse_program("int  g ;\nproc f( int x ) {\n  if (x > g) {\n    g = x;\n  }\n}")
            .unwrap();
        assert_eq!(
            proc_fingerprint(&a, "f").unwrap(),
            proc_fingerprint(&b, "f").unwrap()
        );
    }

    #[test]
    fn statement_changes_are_visible() {
        let base = parse_program("proc f(int x) { if (x > 0) { x = 1; } }").unwrap();
        let cond = parse_program("proc f(int x) { if (x >= 0) { x = 1; } }").unwrap();
        let body = parse_program("proc f(int x) { if (x > 0) { x = 2; } }").unwrap();
        let extra = parse_program("proc f(int x) { if (x > 0) { x = 1; } x = 0; }").unwrap();
        let fp = proc_fingerprint(&base, "f").unwrap();
        assert_ne!(fp, proc_fingerprint(&cond, "f").unwrap());
        assert_ne!(fp, proc_fingerprint(&body, "f").unwrap());
        assert_ne!(fp, proc_fingerprint(&extra, "f").unwrap());
    }

    #[test]
    fn global_initializers_participate() {
        let a = parse_program("int g = 1;\nproc f(int x) { x = g; }").unwrap();
        let b = parse_program("int g = 2;\nproc f(int x) { x = g; }").unwrap();
        assert_ne!(
            proc_fingerprint(&a, "f").unwrap(),
            proc_fingerprint(&b, "f").unwrap()
        );
    }

    #[test]
    fn callee_changes_propagate_through_inlining() {
        let a = parse_program("proc callee(int y) { y = y + 1; }\nproc f(int x) { callee(x); }")
            .unwrap();
        let b = parse_program("proc callee(int y) { y = y + 2; }\nproc f(int x) { callee(x); }")
            .unwrap();
        assert_ne!(
            proc_fingerprint(&a, "f").unwrap(),
            proc_fingerprint(&b, "f").unwrap()
        );
    }

    #[test]
    fn a_program_and_its_flattening_share_a_fingerprint() {
        // Fingerprinting expands calls without the layout; the layout
        // moves spans only, so the flattened version hashes the same.
        let p = parse_program(
            "int g;\nproc clamp(int v) { if (v > 9) { v = 9; } assert(v < 10); g = v; }\n\
             proc main(int x) { clamp(x); clamp(-x); }",
        )
        .unwrap();
        let flat = dise_ir::inline::inline_program(&p, "main").unwrap();
        assert_eq!(
            proc_fingerprint(&p, "main").unwrap(),
            proc_fingerprint(&flat, "main").unwrap()
        );
    }

    #[test]
    fn sibling_procedures_do_not_participate() {
        // Cross-version summary reuse depends on this: editing a caller
        // must leave its unchanged callees' fingerprints intact.
        let a =
            parse_program("int g;\nproc callee(int y) { g = y; }\nproc main(int x) { callee(x); }")
                .unwrap();
        let b = parse_program(
            "int g;\nproc callee(int y) { g = y; }\nproc main(int x) { callee(x); callee(g); }",
        )
        .unwrap();
        assert_eq!(
            proc_fingerprint(&a, "callee").unwrap(),
            proc_fingerprint(&b, "callee").unwrap()
        );
        assert_ne!(
            proc_fingerprint(&a, "main").unwrap(),
            proc_fingerprint(&b, "main").unwrap()
        );
    }

    #[test]
    fn missing_procedures_do_not_panic() {
        // No such proc: the fingerprint covers the (empty) program text
        // only; run_dise rejects the name before ever consulting it.
        let p = parse_program("proc f() { skip; }").unwrap();
        let fp = proc_fingerprint(&p, "g").unwrap();
        assert_ne!(fp, proc_fingerprint(&p, "f").unwrap());
    }
}
