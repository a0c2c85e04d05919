//! Every name the benchmark reports, declared once: workloads, end-to-end
//! metrics with their bounds, per-layer metrics with the end-to-end metric
//! each should move. `BENCHMARK.json` is `manifest()` printed; a test
//! keeps the file and this table equal.

use crate::json::Json;

/// How long one run measures, in seconds (`run_seconds` in the manifest).
pub const RUN_SECONDS: u64 = 16;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const MEM_SERVE: &str = "mem_serve";
pub const PAGED_SERVE: &str = "paged_serve";
pub const LIVE_MIXED: &str = "live_mixed";
pub const LIVE_UPDATE: &str = "live_update";
pub const BUILD_REOPEN: &str = "build_reopen";

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: MEM_SERVE,
        why: "QueryEngine kNN/range mix, one closed-loop client: all time in core::search, none in storage; a pool change must not move it",
    },
    Workload {
        name: PAGED_SERVE,
        why: "same stream through PagedEngine with the paper's 50-page pool, 2% of the pages: the gap to mem_serve is stripe locks, B+-tree descents and record decode",
    },
    Workload {
        name: LIVE_MIXED,
        why: "LiveEngine closed-loop reader beside an open-loop writer, one tick due per 100 ms: the search loop over copy-on-write snapshots while repair and publish run beside it",
    },
    Workload {
        name: LIVE_UPDATE,
        why: "LiveEngine writer alone, closed loop: 8 reweights + 4 object moves + publish per tick; core::shortcut used for repair instead of build, no search at all",
    },
    Workload {
        name: BUILD_REOPEN,
        why: "build, persist, lazily reopen and first-query the dense SF network: partition, hierarchy, contractor, shortcut store and persist do the work, search almost none",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const SETUP_S: &str = "setup_s";
pub const OPS_PER_S: &str = "ops_per_s";
pub const OP_P50_US: &str = "op_p50_us";
pub const OP_TAIL_US: &str = "op_tail_us";
pub const INDEX_MB: &str = "index_mb";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd { name: SETUP_S, unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: OPS_PER_S, unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: OP_P50_US, unit: "us", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: OP_TAIL_US, unit: "us", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: INDEX_MB, unit: "MB", better: Better::Lower, bound: 0.001 },
    EndToEnd { name: PEAK_RSS_MB, unit: "MB", better: Better::Lower, bound: 0.25 },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric (and workload) this one should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, moves }
}

use Better::{Higher, Lower};

const SEARCH_MOVES: &str =
    "ops_per_s, op_p50_us, op_tail_us @mem_serve and @live_mixed fully, ~20% of @paged_serve";
const BUILD_MOVES: &str = "op_p50_us @build_reopen";
const REPAIR_MOVES: &str = "ops_per_s, op_p50_us @live_update";
const PAGED_MOVES: &str = "ops_per_s, op_p50_us, op_tail_us @paged_serve";

pub const PER_LAYER: [PerLayer; 70] = [
    layer("network.generator.gen_s", "s", Lower, "setup_s on all"),
    layer("network.partition.partition_s", "s", Lower, "op_p50_us @build_reopen, setup_s"),
    layer(
        "network.contractor.grid64_contract_ms",
        "ms",
        Lower,
        "op_p50_us @build_reopen and @live_update",
    ),
    layer("network.dijkstra.ns_per_settled", "ns", Lower, "none; bounds harness.oracle_s"),
    layer("core.hierarchy.build_s", "s", Lower, BUILD_MOVES),
    layer("core.hierarchy.mean_borders_l1", "count", Lower, "index_mb and every query latency"),
    layer("core.shortcut.build_x1_s", "s", Lower, BUILD_MOVES),
    layer("core.shortcut.build_xhw_s", "s", Lower, BUILD_MOVES),
    layer("core.shortcut.count", "count", Lower, "index_mb"),
    layer("core.shortcut.mb", "MB", Lower, "index_mb"),
    layer("core.shortcut.refresh_us_per_rnet", "us", Lower, REPAIR_MOVES),
    layer("core.framework.build_residual_s", "s", Lower, BUILD_MOVES),
    layer("core.framework.set_edge_weights_ms_per_batch", "ms", Lower, REPAIR_MOVES),
    layer("core.association.insert_us", "us", Lower, "setup_s"),
    layer("core.association.move_us", "us", Lower, REPAIR_MOVES),
    layer("core.association.mb", "MB", Lower, "index_mb"),
    layer("core.search.nodes_settled_per_op", "count", Lower, SEARCH_MOVES),
    layer("core.search.edges_relaxed_per_op", "count", Lower, SEARCH_MOVES),
    layer("core.search.shortcuts_taken_per_op", "count", Lower, SEARCH_MOVES),
    layer("core.search.rnets_bypassed_per_op", "count", Higher, SEARCH_MOVES),
    layer("core.search.rnets_descended_per_op", "count", Lower, SEARCH_MOVES),
    layer("core.search.abstract_checks_per_op", "count", Lower, SEARCH_MOVES),
    layer("core.search.objects_read_per_op", "count", Lower, SEARCH_MOVES),
    layer("core.search.heap_pushes_per_op", "count", Lower, SEARCH_MOVES),
    layer("core.search.bypass_ratio", "ratio", Higher, SEARCH_MOVES),
    layer("core.search.ns_per_settled", "ns", Lower, SEARCH_MOVES),
    layer("core.search.knn1_us", "us", Lower, SEARCH_MOVES),
    layer("core.search.knn5_us", "us", Lower, SEARCH_MOVES),
    layer("core.search.knn20_us", "us", Lower, SEARCH_MOVES),
    layer("core.search.knn5_filtered_us", "us", Lower, SEARCH_MOVES),
    layer("core.search.range_us", "us", Lower, SEARCH_MOVES),
    layer("core.search.speedup_vs_netexp", "x", Higher, "none; the reproduction reference"),
    layer("core.engine.batch_knn_x2_scaling", "x", Higher, "none today (single client)"),
    layer("core.paged.pages_read_per_op", "count", Lower, PAGED_MOVES),
    layer("core.paged.faults_per_op", "count", Lower, PAGED_MOVES),
    layer("core.paged.ns_per_page_access", "ns", Lower, PAGED_MOVES),
    layer("core.paged.cold_faults_per_knn5", "count", Lower, "op_tail_us @build_reopen"),
    layer("core.paged.engine_new_s", "s", Lower, "setup_s @paged_serve"),
    layer("core.paged.engine_open_s", "s", Lower, BUILD_MOVES),
    layer("core.paged.rnets_loaded_share", "ratio", Lower, "op_tail_us @build_reopen"),
    layer("core.paged.slowdown_vs_memory", "x", Lower, PAGED_MOVES),
    layer("storage.striped.hit_rate", "ratio", Higher, "ops_per_s @paged_serve"),
    layer("storage.striped.hit_ns", "ns", Lower, "ops_per_s @paged_serve"),
    layer("storage.striped.miss_ns", "ns", Lower, "ops_per_s @paged_serve"),
    layer("storage.striped.fit_ops_per_s", "1/s", Higher, "ops_per_s @paged_serve"),
    layer("storage.striped.x2_client_scaling", "x", Higher, "none today (single client)"),
    layer("storage.bptree.get_ns", "ns", Lower, "op_p50_us @paged_serve"),
    layer("storage.bptree.height", "count", Lower, "op_p50_us @paged_serve"),
    layer("storage.ccam.build_s", "s", Lower, "setup_s @paged_serve"),
    layer("storage.ccam.node_region_pages", "count", Lower, "index_mb @paged_serve"),
    layer("core.persist.to_bytes_s", "s", Lower, BUILD_MOVES),
    layer("core.persist.from_bytes_s", "s", Lower, "none today (reopen is page-granular)"),
    layer("core.persist.image_open_s", "s", Lower, BUILD_MOVES),
    layer("core.persist.image_mb", "MB", Lower, "index_mb @build_reopen"),
    layer("core.live.publish_us", "us", Lower, REPAIR_MOVES),
    layer("core.live.snapshot_ns", "ns", Lower, "op_p50_us @live_mixed"),
    layer("core.live.rnets_refreshed_per_update", "count", Lower, REPAIR_MOVES),
    layer("core.live.shared_rnets_share", "ratio", Higher, "peak_rss_mb @live_mixed"),
    layer("core.live.reader_slowdown", "x", Higher, "ops_per_s @live_mixed"),
    layer("core.live.writer_busy_share", "ratio", Lower, "ops_per_s @live_mixed"),
    layer("core.live.writer_late_share", "ratio", Lower, "core.live.update_p90_us"),
    layer("core.live.update_p50_us", "us", Lower, "op_p50_us @live_update, from the due time"),
    layer("core.live.update_p90_us", "us", Lower, "op_tail_us @live_update, from the due time"),
    layer("baselines.netexp.us_per_op", "us", Lower, "none; the reproduction reference"),
    layer("trace.overhead_share", "ratio", Lower, "none; what tracing costs the traced run"),
    layer("trace.child_cover_share", "ratio", Higher, "none; share of an op the spans explain"),
    layer("harness.oracle_s", "s", Lower, "none; run time outside the window"),
    layer("harness.calib_drift", "ratio", Lower, "none; flags a noisy neighbour"),
    layer("harness.host_slowdown", "x", Lower, "none; what the window's timings were divided by"),
    layer("harness.ops_traced", "ops", Higher, "none; ops in the traced window"),
];

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj([
        ("command", Json::Arr(command.iter().map(|&s| Json::str(s)).collect())),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    /// `BENCHMARK.json` at the root of the repo is this table, printed by
    /// `roadbench --print-manifest`.
    #[test]
    fn benchmark_json_is_the_manifest() {
        let file = include_str!("../../BENCHMARK.json");
        assert_eq!(crate::json::parse(file).unwrap(), manifest());
        assert_eq!(file, manifest().pretty());
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(well_formed(name, 64, "_.-"), "{name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric(), "{name}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");

        let units = END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(well_formed(unit, 16, "_/%.-"), "{unit}");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == SETUP_S).unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "set-up has the largest bound");
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(manifest().pretty().len() <= 64 * 1024);
    }
}
