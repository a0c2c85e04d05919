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
/// (call-graph taint, lock cycles split over files) are exercised.
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
fn hot_alloc_rule_fires_inside_fences_only() {
    let a = analyze_fixture("hot_alloc.rs");
    let allocs: Vec<_> = a.findings.iter().filter(|f| f.rule == "hot-alloc").collect();
    // Vec::new, Box::new, vec!, format!, .clone(), the turbofish
    // Vec::<…>::with_capacity — the escaped .to_string() and the
    // Vec::new outside the fence stay quiet.
    assert_eq!(allocs.len(), 6, "{:?}", a.findings);
    assert!(a.findings.iter().all(|f| f.rule == "hot-alloc"), "{:?}", a.findings);
}

#[test]
fn atomic_ordering_rule_requires_justifications() {
    let a = analyze_fixture("ordering.rs");
    let atomics: Vec<_> = a.findings.iter().filter(|f| f.rule == "atomic-ordering").collect();
    assert_eq!(atomics.len(), 2, "{:?}", a.findings);
    assert!(atomics[0].message.contains("Relaxed"));
    assert!(atomics[1].message.contains("SeqCst"));
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
fn taint_rule_fires_on_every_sink_shape() {
    let a = analyze_fixture("taint_bad.rs");
    let taint: Vec<_> = a.findings.iter().filter(|f| f.rule == "taint").collect();
    assert_eq!(taint.len(), 3, "{:?}", a.findings);
    let msgs: String = taint.iter().map(|f| f.message.as_str()).collect();
    assert!(msgs.contains("with_capacity()"), "{msgs}");
    assert!(msgs.contains("loop bound"), "{msgs}");
    assert!(msgs.contains("slice index/range"), "{msgs}");
}

#[test]
fn taint_sanitizers_suppress_and_appear_in_the_verdict_table() {
    let a = analyze_fixture("taint_sanitized.rs");
    assert!(a.findings.is_empty(), "{:?}", a.findings);
    assert_eq!(a.taint.len(), 3, "{:?}", a.taint);
    let sanitizers: String = a.taint.iter().map(|v| v.sanitizer.as_str()).collect();
    assert!(sanitizers.contains("guard"), "{sanitizers}");
    assert!(sanitizers.contains("min()"), "{sanitizers}");
    assert!(sanitizers.contains("marker:"), "{sanitizers}");
}

#[test]
fn cross_file_taint_needs_the_workspace_call_graph() {
    // Each file alone shows no flow: source -> helper -> sink spans
    // three files.
    for f in ["taint_source_reader.rs", "taint_alloc_helper.rs", "taint_decode_flow.rs"] {
        let a = analyze_fixture(f);
        assert!(a.findings.is_empty(), "{f} alone should be clean: {:?}", a.findings);
    }
    let a = analyze_fixtures(&[
        "taint_source_reader.rs",
        "taint_alloc_helper.rs",
        "taint_decode_flow.rs",
    ]);
    let taint: Vec<_> = a.findings.iter().filter(|f| f.rule == "taint").collect();
    assert_eq!(taint.len(), 1, "{:?}", a.findings);
    assert!(taint[0].message.contains("read_count"), "{:?}", taint[0]);
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
    // Every decode loop/allocation must appear in the taint verdict table
    // with its sanitizer — spot-check the load-bearing chains: the
    // shortcut section counts (fail-fast guards added with this rule),
    // the persist prelude (Reader::require as an interprocedural
    // sanitizer), and the B+-tree's partition_point-bounded indices.
    let verdict = |src: &str, san: &str, sink: &str| {
        a.taint
            .iter()
            .any(|v| v.source.contains(src) && v.sanitizer.contains(san) && v.sink.contains(sink))
    };
    assert!(verdict("read_u32", "guard", "loop bound"), "shortcut count chains missing");
    assert!(verdict("Reader::u32", "Reader::require", "loop bound"), "prelude chains missing");
    assert!(verdict("le_u64", "partition_point()", "slice index/range"), "bptree chains missing");
    assert!(
        a.taint.iter().any(|v| v.sink.contains("ShortcutStore::walk_rnet_section")),
        "lazy-open walker not in the verdict table"
    );
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
    // Any refactor of the analyser must keep every finding, lock edge and
    // taint verdict chain of every rule identical.
    let got = road_analysis::json::render(&analyze_all_fixtures());
    let path = format!("{}/tests/fixtures/all.expected.json", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    assert_eq!(got, want.trim_end(), "report over all fixtures drifted from {path}");
}
