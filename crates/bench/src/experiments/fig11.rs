//! Figure 11 — anatomy of one 3NN query on CA with 5 objects: CPU time,
//! page faults through a cold 50-page buffer and node records touched,
//! per approach. ROAD's faults are counted by the `PagedEngine`'s pool;
//! the three comparison engines' by their layout model.

use super::Ctx;
use crate::runner::EngineKind;
use crate::table::{fmt_ms, print_table};
use crate::{config, runner, workload};
use road_core::model::ObjectFilter;
use road_network::generator::Dataset;
use std::time::Instant;

/// Runs the experiment and prints its table.
pub fn run(ctx: &Ctx) {
    let ds = Dataset::CaHighways;
    let g = config::network(ds, &ctx.scale, &ctx.params);
    let levels = config::levels(ds, &g, &ctx.scale, &ctx.params);
    let objects = workload::uniform_objects(&g, 5, ctx.params.seed + 11);
    let node = workload::query_nodes(&g, 1, ctx.params.seed + 12)[0];

    let mut rows = Vec::new();
    for kind in EngineKind::ALL {
        let mut engine = runner::build_engine(kind, &g, &objects, &ctx.params, levels);
        // Warm nothing: the paper's illustration is a single cold query.
        let t = Instant::now();
        let cost = engine.knn(node, 3, &ObjectFilter::Any);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(cost.hits.len(), 3.min(objects.len()));
        rows.push(vec![
            kind.name().to_string(),
            fmt_ms(ms),
            cost.page_faults.to_string(),
            cost.nodes_visited.to_string(),
        ]);
    }
    print_table(
        &format!("Figure 11 — single 3NN query on {} (|O| = 5, query at {node})", ds.name()),
        &["approach", "time (ms)", "I/O (pages)", "nodes touched"],
        &rows,
    );
}
