//! The `dise-bench` harness: regenerates every table and figure of the
//! paper's evaluation on the reproduction's artifacts.
//!
//! ```text
//! dise-bench fig1              # Fig. 1  — symbolic execution tree of testX
//! dise-bench fig2              # Fig. 2  — simplified-WBS example + DOT CFG
//! dise-bench fig5b             # Fig. 5b — affected-set fixpoint trace
//! dise-bench table1            # Table 1 — directed-search set evolution
//! dise-bench table2 [wbs|oae|asw|all]   # Table 2 — cost & effectiveness
//! dise-bench table3 [wbs|oae|asw|all]   # Table 3 — regression testing
//! dise-bench summary           # §4.2.5 — RQ1/RQ2 aggregate ratios
//! dise-bench ablation          # precision ablation: CfgPath vs ReachingDefs
//! dise-bench witnesses         # evolution: diverging vs equivalent affected PCs
//! dise-bench localize          # evolution: fault-localization accuracy
//! dise-bench impact            # evolution: system-level incremental analysis
//! dise-bench all               # everything above, in paper order
//! ```

mod ablation;
mod evolution;
mod figures;
mod tables;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("all");
    let artifact_filter = args.get(1).map(String::as_str).unwrap_or("all");
    match command {
        "fig1" => figures::fig1(),
        "fig2" => figures::fig2(),
        "fig5b" => figures::fig5b(),
        "table1" => figures::table1(),
        "table2" => tables::table2(artifact_filter),
        "table3" => tables::table3(artifact_filter),
        "summary" => tables::summary(),
        "ablation" => {
            ablation::run();
            ablation::filter_scope();
        }
        "witnesses" => evolution::witnesses(),
        "localize" => evolution::localize(),
        "impact" => evolution::impact(),
        "all" => {
            figures::fig1();
            figures::fig2();
            figures::fig5b();
            figures::table1();
            tables::table2("all");
            tables::table3("all");
            tables::summary();
            ablation::run();
            ablation::filter_scope();
            evolution::witnesses();
            evolution::localize();
            evolution::impact();
        }
        other => {
            eprintln!("unknown command `{other}`");
            eprintln!(
                "usage: dise-bench [fig1|fig2|fig5b|table1|table2|table3|summary|ablation|witnesses|localize|impact|all] [wbs|oae|asw|all]"
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
