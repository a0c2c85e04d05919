//! Fixture self-tests: every rule must fire on its bad fixture and stay
//! quiet on the corresponding escape/clean fixture. Each fixture is
//! analysed in isolation so lock-class call graphs do not bleed between
//! them.

// Integration tests may unwrap freely; the workspace unwrap/expect denial
// targets library code (see clippy.toml for the unit-test exemption).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use road_analysis::{analyze_sources, Analysis, Finding};

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

fn rules(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn panic_rule_fires_on_every_forbidden_shape() {
    let a = analyze_fixture("panic_bad.rs");
    let panics: Vec<_> = a.findings.iter().filter(|f| f.rule == "panic").collect();
    // unwrap, expect, panic!, debug_assert!, xs[0]
    assert_eq!(panics.len(), 5, "{:?}", a.findings);
    let msgs: String = panics.iter().map(|f| f.message.as_str()).collect();
    assert!(msgs.contains(".unwrap()"));
    assert!(msgs.contains(".expect()"));
    assert!(msgs.contains("panic!"));
    assert!(msgs.contains("debug_assert!"));
    assert!(msgs.contains("indexing"));
}

#[test]
fn panic_escapes_suppress_with_reasons() {
    let a = analyze_fixture("panic_escapes.rs");
    assert!(a.findings.is_empty(), "{:?}", a.findings);
}

#[test]
fn panic_escape_without_reason_suppresses_nothing() {
    let a = analyze_fixture("panic_escape_no_reason.rs");
    let r = rules(&a.findings);
    // The reasonless escape is itself a finding AND the unwrap still fires.
    assert!(r.contains(&"marker"), "{:?}", a.findings);
    assert!(r.contains(&"panic"), "{:?}", a.findings);
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
fn unordered_iteration_fires_on_emission_and_commits() {
    let a = analyze_fixture("order_unordered_bad.rs");
    let o: Vec<_> = a.findings.iter().filter(|f| f.rule == "unordered-iter").collect();
    assert_eq!(o.len(), 2, "{:?}", a.findings);
    let msgs: String = o.iter().map(|f| f.message.as_str()).collect();
    assert!(msgs.contains("byte output"), "{msgs}");
    assert!(msgs.contains("order-sensitive commit Store::commit"), "{msgs}");
}

#[test]
fn order_sanitizers_suppress_and_appear_in_the_verdict_table() {
    let a = analyze_fixture("order_unordered_ok.rs");
    assert!(a.findings.is_empty(), "{:?}", a.findings);
    let sanitizers: String = a.order.iter().map(|v| v.sanitizer.as_str()).collect();
    assert!(sanitizers.contains("sort_unstable()"), "{sanitizers}");
    assert!(sanitizers.contains("BTreeMap rebind"), "{sanitizers}");
    assert!(sanitizers.contains("marker:"), "{sanitizers}");
}

#[test]
fn float_reduction_order_fires_and_sorted_domains_suppress() {
    let a = analyze_fixture("float_order_bad.rs");
    let o: Vec<_> = a.findings.iter().filter(|f| f.rule == "float-order").collect();
    assert_eq!(o.len(), 3, "{:?}", a.findings);
    let msgs: String = o.iter().map(|f| f.message.as_str()).collect();
    assert!(msgs.contains("`total +=`"), "{msgs}");
    assert!(msgs.contains(".sum()"), "{msgs}");
    assert!(msgs.contains("partial_cmp"), "{msgs}");

    let ok = analyze_fixture("float_order_ok.rs");
    assert!(ok.findings.is_empty(), "{:?}", ok.findings);
    assert!(ok.order.iter().any(|v| v.sanitizer.contains("sort_by()")), "{:?}", ok.order);
}

#[test]
fn scheduling_dependence_fires_and_indexed_deposits_suppress() {
    let a = analyze_fixture("sched_bad.rs");
    let o: Vec<_> = a.findings.iter().filter(|f| f.rule == "sched-order").collect();
    assert_eq!(o.len(), 2, "{:?}", a.findings);
    let msgs: String = o.iter().map(|f| f.message.as_str()).collect();
    assert!(msgs.contains("recv"), "{msgs}");
    assert!(msgs.contains("lock()"), "{msgs}");

    let ok = analyze_fixture("sched_ok.rs");
    assert!(ok.findings.is_empty(), "{:?}", ok.findings);
    assert!(ok.order.iter().any(|v| v.sanitizer.contains("chunks_mut")), "{:?}", ok.order);
}

#[test]
fn cross_file_unordered_chain_needs_the_workspace_call_graph() {
    for f in ["order_emit_helper.rs", "order_cross_file.rs"] {
        let a = analyze_fixture(f);
        assert!(a.findings.is_empty(), "{f} alone should be clean: {:?}", a.findings);
    }
    let a = analyze_fixtures(&["order_emit_helper.rs", "order_cross_file.rs"]);
    let o: Vec<_> = a.findings.iter().filter(|f| f.rule == "unordered-iter").collect();
    assert_eq!(o.len(), 1, "{:?}", a.findings);
    assert_eq!(o[0].file, "order_cross_file.rs");
    assert!(o[0].message.contains("emit_all"), "{:?}", o[0]);
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
    // The determinism chains over the real serialize/commit surface —
    // mirrored canonically in determinism.expected (diffed in CI). Every
    // unordered iteration that reaches bytes must be here with its
    // sanitizer, and the parallel fan-outs with their deposit shape.
    let chain = |src: &str, san: &str, sink: &str| {
        a.order
            .iter()
            .any(|v| v.source.contains(src) && v.sanitizer.contains(san) && v.sink.contains(sink))
    };
    // An Rnet's shortcuts are stored with their sources ascending, so the
    // store's serializer and the paged engine's lazy page-in iterate no
    // hash-ordered container any more: their `keys() => sort_unstable()`
    // chains are gone, not merely sanitized. Nor does the repair: the
    // Rnets it commits are a sorted, deduplicated `Vec`, not a hash set.
    for emitter in [
        "ShortcutStore::serialize_into",
        "PagedEngine::ensure_rnet_loaded",
        "RoadFramework::repair_after_topology_change",
    ] {
        assert!(
            !a.order.iter().any(|v| v.source.contains(emitter) || v.sink.contains(emitter)),
            "{emitter} iterates something unordered again: {:#?}",
            a.order
        );
    }
    assert!(
        chain("ShortcutStore::compute_level_maps", "chunks_mut", "deterministic commit order"),
        "parallel-build fan-out verdict missing: {:#?}",
        a.order
    );
    assert!(
        chain("run_batch", "joined in spawn order", "deterministic commit order"),
        "run_batch fan-out verdict missing: {:#?}",
        a.order
    );
}

/// `--order-dag` keys a chain by function and file: the `:line` after a
/// path goes, wherever it stands, and nothing else does.
#[test]
fn order_dag_chains_carry_no_line_numbers() {
    let v = road_analysis::flow::Verdict {
        source: "`affected`.iter() in A::repair (crates/core/src/framework.rs:653)".to_owned(),
        sanitizer: "sort_by_key()".to_owned(),
        sink: "order-sensitive commit S::refresh (arg 4) at crates/core/src/framework.rs:656"
            .to_owned(),
    };
    assert_eq!(
        v.chain_key(),
        "`affected`.iter() in A::repair (crates/core/src/framework.rs) => sort_by_key() => \
         order-sensitive commit S::refresh (arg 4) at crates/core/src/framework.rs"
    );
    let other_colons = road_analysis::flow::Verdict {
        source: "A::b".to_owned(),
        sanitizer: "marker: x:12".to_owned(),
        sink: "c.rs:7".to_owned(),
    };
    assert_eq!(other_colons.chain_key(), "A::b => marker: x:12 => c.rs");
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
    // The golden was rendered by the two-engine code before the passes
    // were merged onto `flow.rs`; any refactor of the analyser must keep
    // every finding, lock edge and verdict chain of every rule identical.
    let got = road_analysis::json::render(&analyze_all_fixtures());
    let path = format!("{}/tests/fixtures/all.expected.json", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    assert_eq!(got, want.trim_end(), "report over all fixtures drifted from {path}");
}
