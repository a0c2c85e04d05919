//! The one ablation the harness runs: **object distribution**. Footnote 3
//! of the paper predicts ROAD gains more from clustered objects (more empty
//! Rnets to prune). It varies the workload, not the index: the core has no
//! ablation switches (ARCHITECTURE.md, design note 2).

use super::Ctx;
use crate::runner::EngineKind;
use crate::table::{fmt_f, fmt_ms, print_table};
use crate::{config, runner, workload};
use road_core::model::ObjectFilter;
use road_network::generator::Dataset;

/// Uniform vs clustered objects on CA: ROAD's advantage over NetExp
/// widens when objects concentrate.
pub fn run(ctx: &Ctx) {
    let ds = Dataset::CaHighways;
    let g = config::network(ds, &ctx.scale, &ctx.params);
    let levels = config::levels(ds, &g, &ctx.scale, &ctx.params);
    let count = ctx.scaled_count(ctx.params.objects, ctx.scale.factor(ds));
    let nodes = workload::query_nodes(&g, ctx.scale.queries, ctx.params.seed + 31);

    let mut rows = Vec::new();
    for (label, objects) in [
        ("uniform", workload::uniform_objects(&g, count, ctx.params.seed + 32)),
        (
            "clustered (4 hot spots)",
            workload::clustered_objects(&g, count, 4, ctx.params.seed + 33),
        ),
    ] {
        let [netexp, road] = [EngineKind::NetExp, EngineKind::Road].map(|kind| {
            let mut engine = runner::build_engine(kind, &g, &objects, &ctx.params, levels);
            runner::measure_knn(engine.as_mut(), &nodes, ctx.params.k, &ObjectFilter::Any)
        });
        rows.push(vec![
            label.to_string(),
            fmt_ms(netexp.avg_cpu_ms),
            fmt_ms(road.avg_cpu_ms),
            format!("{:.1}x", netexp.avg_cpu_ms / road.avg_cpu_ms.max(1e-9)),
            fmt_f(netexp.avg_faults),
            fmt_f(road.avg_faults),
        ]);
    }
    print_table(
        "Ablation 1 — object distribution (CA, 5NN): CPU time (ms) and I/O (pages)",
        &["distribution", "NetExp", "ROAD", "ROAD speedup", "NetExp io", "ROAD io"],
        &rows,
    );
}
