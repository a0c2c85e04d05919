//! The roadlint CLI.
//!
//! ```text
//! roadlint [ROOT] [--graph] [--dag] [--json]
//! ```
//!
//! Walks the workspace at ROOT (default: the current directory), runs
//! every rule and prints the findings.
//!
//! * `--graph` additionally prints the acquired-while-held lock graph
//!   with example sites;
//! * `--dag` prints ONLY canonical `from -> to` lines to stdout (for
//!   diffing against a committed `lockgraph.expected`); findings go to
//!   stderr;
//! * `--json` prints ONLY the machine-readable report to stdout (for the
//!   CI artifact); the human summary goes to stderr.
//!
//! Exit status: 0 clean, 1 findings, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut graph = false;
    let mut dag = false;
    let mut json = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--graph" => graph = true,
            "--dag" => dag = true,
            "--json" => json = true,
            "--help" | "-h" => {
                println!("usage: roadlint [ROOT] [--graph] [--dag] [--json]");
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

    if json || dag {
        // Stdout is exactly the artifact, for `diff` against the committed
        // lockgraph.expected or for CI to archive; everything human-facing
        // goes to stderr.
        if json {
            println!("{}", road_analysis::json::render(&analysis));
        } else {
            for (from, to) in analysis.graph.edges.keys() {
                println!("{from} -> {to}");
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
    for f in &analysis.findings {
        println!("{f}");
    }
    println!("{summary}");
    status
}
