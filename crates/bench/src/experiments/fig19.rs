//! Figure 19 — impact of the Rnet hierarchy depth `l`: index construction
//! time grows with `l` while 5NN query time drops steeply, with
//! diminishing returns around the paper's defaults (l = 4 for CA, 8 for
//! NA/SF).

use super::Ctx;
use crate::runner::EngineKind;
use crate::table::{fmt_f, fmt_ms, fmt_secs, print_table};
use crate::{config, runner, workload};
use road_core::model::ObjectFilter;
use road_network::generator::Dataset;

/// Runs the experiment for each dataset.
pub fn run(ctx: &Ctx) {
    for ds in Dataset::ALL {
        run_dataset(ctx, ds);
    }
}

fn run_dataset(ctx: &Ctx, ds: Dataset) {
    let g = config::network(ds, &ctx.scale, &ctx.params);
    let count = ctx.scaled_count(ctx.params.objects, ctx.scale.factor(ds));
    let objects = workload::uniform_objects(&g, count, ctx.params.seed + 19);
    let nodes = workload::query_nodes(&g, ctx.scale.queries, ctx.params.seed + 191);

    // The paper sweeps 2..=6 on CA and 6..=10 on NA/SF; at reduced scale
    // we centre the sweep on the size-appropriate depth.
    let centre = config::levels(ds, &g, &ctx.scale, &ctx.params);
    let lo = centre.saturating_sub(2).max(1);
    let hi = (centre + 2).min(10);

    let mut rows = Vec::new();
    for l in lo..=hi {
        let mut engine = runner::build_engine(EngineKind::Road, &g, &objects, &ctx.params, l);
        let stats = runner::measure_knn(engine.as_mut(), &nodes, ctx.params.k, &ObjectFilter::Any);
        rows.push(vec![
            format!("l={l}"),
            fmt_secs(engine.build_seconds()),
            fmt_ms(stats.avg_cpu_ms),
            fmt_f(stats.avg_faults),
        ]);
    }
    print_table(
        &format!("Figure 19 — Rnet hierarchy depth on {} (p = 4, |O| = 100, 5NN)", ds.name()),
        &["levels", "index time (s)", "query CPU (ms)", "query I/O (pages)"],
        &rows,
    );
}
