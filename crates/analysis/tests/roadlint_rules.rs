//! Fixture self-tests: every rule must fire on its bad fixture and stay
//! quiet on the corresponding escape/clean fixture. Each fixture is
//! analysed in isolation so lock-class call graphs do not bleed between
//! them.

// Integration tests may unwrap freely; the workspace unwrap/expect denial
// targets library code (see clippy.toml for the unit-test exemption).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use road_analysis::{analyze_sources, Analysis};

fn analyze_fixture(name: &str) -> Analysis {
    analyze_fixtures(&[name])
}

/// Analyzes several fixtures as ONE workspace — how the cross-file rules
/// (lock cycles split over files) are exercised.
fn analyze_fixtures(names: &[&str]) -> Analysis {
    let srcs: Vec<(String, String)> = names
        .iter()
        .map(|name| {
            let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
            let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
            (name.to_string(), src)
        })
        .collect();
    analyze_sources(srcs.iter().map(|(n, s)| (n.as_str(), s.as_str())))
}

#[test]
fn lock_order_rule_finds_opposite_acquisition_orders() {
    let a = analyze_fixture("lock_cycle.rs");
    let order: Vec<_> = a.findings.iter().filter(|f| f.rule == "lock-order").collect();
    assert_eq!(order.len(), 1, "{:?}", a.findings);
    assert!(order[0].message.contains("lock-order cycle"));
    assert!(order[0].message.contains("page-in"));
    assert!(order[0].message.contains("store"));
}

#[test]
fn consistent_lock_order_is_clean_and_graphed() {
    let a = analyze_fixture("lock_ok.rs");
    assert!(a.findings.is_empty(), "{:?}", a.findings);
    assert!(a.graph.edges.contains_key(&("page-in".to_owned(), "store".to_owned())));
}

#[test]
fn unclassified_acquisition_is_a_finding() {
    let a = analyze_fixture("unclassified_lock.rs");
    let order: Vec<_> = a.findings.iter().filter(|f| f.rule == "lock-order").collect();
    assert_eq!(order.len(), 1, "{:?}", a.findings);
    assert!(order[0].message.contains("unrecognized receiver"));
}

#[test]
fn cross_file_lock_cycle_needs_both_files() {
    for f in ["lock_cycle_a.rs", "lock_cycle_b.rs"] {
        let a = analyze_fixture(f);
        assert!(a.findings.is_empty(), "{f} alone should be clean: {:?}", a.findings);
    }
    let a = analyze_fixtures(&["lock_cycle_a.rs", "lock_cycle_b.rs"]);
    let order: Vec<_> = a.findings.iter().filter(|f| f.rule == "lock-order").collect();
    assert_eq!(order.len(), 1, "{:?}", a.findings);
    assert!(order[0].message.contains("lock-order cycle"));
    assert!(order[0].message.contains("page-in -> store"));
    assert!(order[0].message.contains("store -> page-in"));
}

#[test]
fn guard_across_io_is_found_through_the_call_graph() {
    let a = analyze_fixture("guard_io_bad.rs");
    let io: Vec<_> = a.findings.iter().filter(|f| f.rule == "guard-io").collect();
    assert_eq!(io.len(), 1, "{:?}", a.findings);
    assert!(io[0].message.contains("`image`"), "{:?}", io[0]);
    assert!(io[0].message.contains("Pool::alloc"), "{:?}", io[0]);
    // The acquired-while-held edge is computed from the same resolution.
    assert!(a.graph.edges.contains_key(&("image".to_owned(), "store".to_owned())));

    let ok = analyze_fixture("guard_io_ok.rs");
    assert!(ok.findings.is_empty(), "{:?}", ok.findings);
}

#[test]
fn the_workspace_itself_is_clean() {
    // The CI gate in executable form: the real workspace must lint clean.
    let root = format!("{}/../..", env!("CARGO_MANIFEST_DIR"));
    let a = road_analysis::analyze_workspace(std::path::Path::new(&root)).expect("walk workspace");
    assert!(a.files_scanned > 50, "walker found only {} files", a.files_scanned);
    assert!(a.findings.is_empty(), "workspace findings: {:#?}", a.findings);
    // The serving path's lock discipline must stay the documented DAG:
    // the page-in lock above the pool's stripe -> store, publish isolated.
    let edges: Vec<(&str, &str)> =
        a.graph.edges.keys().map(|(f, t)| (f.as_str(), t.as_str())).collect();
    assert_eq!(edges, [("page-in", "store"), ("page-in", "stripe"), ("stripe", "store")]);
}

/// Every fixture's `.rs` file, sorted by name, analysed as ONE workspace.
fn analyze_all_fixtures() -> Analysis {
    let dir = format!("{}/tests/fixtures", env!("CARGO_MANIFEST_DIR"));
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".rs"))
        .collect();
    names.sort();
    analyze_fixtures(&names.iter().map(String::as_str).collect::<Vec<_>>())
}

#[test]
fn every_rule_output_over_all_fixtures_is_pinned_byte_for_byte() {
    // Any refactor of the analyser must keep every finding and lock edge
    // of every rule identical.
    let got = road_analysis::json::render(&analyze_all_fixtures());
    let path = format!("{}/tests/fixtures/all.expected.json", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    assert_eq!(got, want.trim_end(), "report over all fixtures drifted from {path}");
}

/// Runs the roadlint binary with `args`: its exit code and its stdout and
/// stderr.
fn roadlint(args: &[&str]) -> (Option<i32>, String, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_roadlint"))
        .args(args)
        .output()
        .expect("run roadlint");
    let text = |b: Vec<u8>| String::from_utf8(b).expect("utf-8 output");
    (out.status.code(), text(out.stdout), text(out.stderr))
}

/// CI's lock-DAG gate in executable form: over the workspace, `--dag`
/// exits clean and prints the committed `lockgraph.expected` byte for byte.
#[test]
fn the_dag_output_equals_the_committed_lockgraph() {
    let root = format!("{}/../..", env!("CARGO_MANIFEST_DIR"));
    let expected = std::fs::read_to_string(format!("{root}/lockgraph.expected")).unwrap();
    let (code, stdout, stderr) = roadlint(&[&root, "--dag"]);
    assert_eq!(code, Some(0), "findings: {stderr}");
    assert_eq!(stdout, expected);
}

/// `--taint` went with the decode-count rule: asking for it is a usage
/// error, so a script that still reads the taint table fails instead of
/// reading a report without one.
#[test]
fn the_retired_taint_flag_is_a_usage_error() {
    let (code, stdout, stderr) = roadlint(&[".", "--taint"]);
    assert_eq!(code, Some(2));
    assert!(stdout.is_empty(), "{stdout}");
    assert!(stderr.contains("unknown flag `--taint`"), "{stderr}");
}
