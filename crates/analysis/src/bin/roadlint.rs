//! The roadlint CLI.
//!
//! ```text
//! roadlint [ROOT] [--graph] [--taint] [--order] [--dag] [--order-dag] [--json]
//! ```
//!
//! Walks the workspace at ROOT (default: the current directory), runs
//! every rule and prints the findings.
//!
//! * `--graph` additionally prints the acquired-while-held lock graph
//!   with example sites;
//! * `--taint` additionally prints the taint verdict table
//!   (source → sanitizer → sink);
//! * `--order` additionally prints the determinism verdict table: every
//!   unordered-iteration flow that reached byte output or an
//!   order-sensitive commit, with the sanitizer that fixed its order;
//! * `--dag` prints ONLY canonical `from -> to` lines to stdout (for
//!   diffing against a committed `lockgraph.expected`); findings go to
//!   stderr;
//! * `--order-dag` prints ONLY canonical `source => sanitizer => sink`
//!   lines to stdout, keyed by function and file without line numbers
//!   (for diffing against a committed `determinism.expected`); findings
//!   go to stderr;
//! * `--json` prints ONLY the machine-readable report to stdout (for the
//!   CI artifact); the human summary goes to stderr.
//!
//! Exit status: 0 clean, 1 findings, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut graph = false;
    let mut taint = false;
    let mut order = false;
    let mut dag = false;
    let mut order_dag = false;
    let mut json = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--graph" => graph = true,
            "--taint" => taint = true,
            "--order" => order = true,
            "--dag" => dag = true,
            "--order-dag" => order_dag = true,
            "--json" => json = true,
            "--help" | "-h" => {
                println!(
                    "usage: roadlint [ROOT] [--graph] [--taint] [--order] [--dag] [--order-dag] [--json]"
                );
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("roadlint: unknown flag `{flag}` (try --help)");
                return ExitCode::from(2);
            }
            path => root = PathBuf::from(path),
        }
    }

    let analysis = match road_analysis::analyze_workspace(&root) {
        Ok(a) => a,
        Err(err) => {
            eprintln!("roadlint: cannot walk {}: {err}", root.display());
            return ExitCode::from(2);
        }
    };

    let status = if analysis.findings.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    let summary = format!(
        "roadlint: {} file(s), {} finding(s)",
        analysis.files_scanned,
        analysis.findings.len()
    );

    if json || dag || order_dag {
        // Stdout is exactly the artifact, for `diff` against the committed
        // lockgraph.expected / determinism.expected or for CI to archive;
        // everything human-facing goes to stderr.
        if json {
            println!("{}", road_analysis::json::render(&analysis));
        } else if dag {
            for (from, to) in analysis.graph.edges.keys() {
                println!("{from} -> {to}");
            }
        } else {
            for v in &analysis.order {
                println!("{}", v.chain_key());
            }
        }
        for f in &analysis.findings {
            eprintln!("{f}");
        }
        if json {
            eprintln!("{summary}");
        }
        return status;
    }

    if graph {
        println!("lock classes: {:?}", analysis.graph.classes);
        for ((from, to), site) in &analysis.graph.edges {
            println!("  {from} -> {to}   (e.g. {}:{} in {})", site.file, site.line, site.function);
        }
    }
    for (on, table, verb, rows) in [
        (taint, "taint", "sanitized", &analysis.taint),
        (order, "order", "ordered", &analysis.order),
    ] {
        if on {
            println!("{table} verdicts (source -> sanitizer -> sink):");
            for v in rows {
                println!("  {}\n    -> {verb} by {}\n    -> {}", v.source, v.sanitizer, v.sink);
            }
        }
    }
    for f in &analysis.findings {
        println!("{f}");
    }
    println!("{summary}");
    status
}
