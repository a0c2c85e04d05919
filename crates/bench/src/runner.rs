//! Engine factory and measurement helpers.

use crate::config::Params;
use crate::table::{fmt_f, fmt_ms};
use road_baselines::road_engine::RoadEngineConfig;
use road_baselines::{DistIdxEngine, Engine, EuclideanEngine, NetExpEngine, RoadEngine};
use road_core::model::{Object, ObjectFilter};
use road_network::graph::RoadNetwork;
use road_network::{NodeId, Weight};
use std::time::Instant;

/// The four approaches of the evaluation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineKind {
    NetExp,
    Euclidean,
    DistIdx,
    Road,
}

impl EngineKind {
    /// Figure order in the paper.
    pub const ALL: [EngineKind; 4] =
        [EngineKind::NetExp, EngineKind::Euclidean, EngineKind::DistIdx, EngineKind::Road];

    /// Label used in tables.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::NetExp => "NetExp",
            EngineKind::Euclidean => "Euclidean",
            EngineKind::DistIdx => "DistIdx",
            EngineKind::Road => "ROAD",
        }
    }
}

/// Builds one engine over a copy of the network and objects.
pub fn build_engine(
    kind: EngineKind,
    g: &RoadNetwork,
    objects: &[Object],
    params: &Params,
    levels: u32,
) -> Box<dyn Engine> {
    match kind {
        EngineKind::NetExp => Box::new(NetExpEngine::build(
            g.clone(),
            params.metric,
            objects.to_vec(),
            params.buffer_pages,
        )),
        EngineKind::Euclidean => Box::new(EuclideanEngine::build(
            g.clone(),
            params.metric,
            objects.to_vec(),
            params.buffer_pages,
        )),
        EngineKind::DistIdx => Box::new(DistIdxEngine::build(
            g.clone(),
            params.metric,
            objects.to_vec(),
            params.buffer_pages,
        )),
        EngineKind::Road => Box::new(
            RoadEngine::build(
                g.clone(),
                params.metric,
                objects.to_vec(),
                params.buffer_pages,
                RoadEngineConfig { fanout: params.fanout, levels },
            )
            .expect("framework builds"),
        ),
    }
}

/// Averages over a query batch.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryStats {
    /// Mean measured wall-clock milliseconds per query (CPU only: every
    /// engine's "disk" is in RAM, so I/O is reported as faults, not time).
    pub avg_cpu_ms: f64,
    /// Mean page faults through the cold buffer.
    pub avg_faults: f64,
    /// Mean node records touched.
    pub avg_nodes: f64,
}

fn measure(
    nodes: &[NodeId],
    mut run: impl FnMut(NodeId) -> road_baselines::QueryCost,
) -> QueryStats {
    let mut total_ms = 0.0;
    let mut faults = 0u64;
    let mut visited = 0usize;
    for &n in nodes {
        let t = Instant::now();
        let cost = run(n);
        total_ms += t.elapsed().as_secs_f64() * 1e3;
        faults += cost.page_faults;
        visited += cost.nodes_visited;
    }
    let q = nodes.len().max(1) as f64;
    QueryStats {
        avg_cpu_ms: total_ms / q,
        avg_faults: faults as f64 / q,
        avg_nodes: visited as f64 / q,
    }
}

/// Runs `knn` at every query node and averages.
pub fn measure_knn(
    engine: &mut dyn Engine,
    nodes: &[NodeId],
    k: usize,
    filter: &ObjectFilter,
) -> QueryStats {
    measure(nodes, |n| engine.knn(n, k, filter))
}

/// Runs `range` at every query node and averages.
pub fn measure_range(
    engine: &mut dyn Engine,
    nodes: &[NodeId],
    radius: Weight,
    filter: &ObjectFilter,
) -> QueryStats {
    measure(nodes, |n| engine.range(n, radius, filter))
}

/// Header of a table built from [`time_io_row`]s: the row label, the four
/// approaches' CPU times, then their page faults (Fig. 17a's shape).
pub fn time_io_header(label: &'static str) -> [&'static str; 9] {
    let [a, b, c, d] = EngineKind::ALL.map(EngineKind::name);
    [label, a, b, c, d, "NetExp io", "Euclidean io", "DistIdx io", "ROAD io"]
}

/// One row of such a table from the approaches' stats in figure order.
pub fn time_io_row(label: String, stats: &[QueryStats]) -> Vec<String> {
    let mut row = vec![label];
    row.extend(stats.iter().map(|s| fmt_ms(s.avg_cpu_ms)));
    row.extend(stats.iter().map(|s| fmt_f(s.avg_faults)));
    row
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;
    use road_network::generator::simple;

    #[test]
    fn factory_builds_all_engines_and_they_answer() {
        let g = simple::grid(8, 8, 1.0);
        let objects = workload::uniform_objects(&g, 6, 1);
        let params = Params::default();
        let nodes = workload::query_nodes(&g, 5, 2);
        for kind in EngineKind::ALL {
            let mut e = build_engine(kind, &g, &objects, &params, 2);
            assert_eq!(e.name(), kind.name());
            let stats = measure_knn(e.as_mut(), &nodes, 3, &ObjectFilter::Any);
            assert!(stats.avg_cpu_ms >= 0.0);
            let stats = measure_range(e.as_mut(), &nodes, Weight::new(5.0), &ObjectFilter::Any);
            assert!(stats.avg_faults >= 0.0);
        }
    }

    #[test]
    fn time_io_rows_line_up_with_their_header() {
        let stats = EngineKind::ALL.map(|_| QueryStats {
            avg_cpu_ms: 0.5,
            avg_faults: 12.7,
            avg_nodes: 3.0,
        });
        let row = time_io_row("k=5".into(), &stats);
        let header = time_io_header("k");
        assert_eq!(row.len(), header.len());
        assert_eq!((header[4], row[4].as_str()), ("ROAD", "0.500"));
        assert_eq!((header[8], row[8].as_str()), ("ROAD io", "12.7"));
    }
}
