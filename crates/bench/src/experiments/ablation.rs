//! Ablations for the design choices ARCHITECTURE.md calls out:
//!
//! 1. **Object distribution** — footnote 3 of the paper predicts ROAD
//!    gains more from clustered objects (more empty Rnets to prune);
//! 2. **Lemma-4 shortcut pruning** — transitive-shortcut removal trades
//!    nothing for a smaller overlay.
//!
//! The abstract representation is not an ablation: abstracts are exact
//! per-category counts, the one form the disk-resident engine serves
//! (`road_core::abstracts`).

use super::Ctx;
use crate::runner::EngineKind;
use crate::table::{fmt_f, fmt_mb, fmt_ms, fmt_secs, print_table};
use crate::{config, runner, workload};
use road_baselines::road_engine::{RoadEngine, RoadEngineConfig};
use road_baselines::Engine;
use road_core::model::ObjectFilter;
use road_network::generator::Dataset;

/// Runs both ablations on CA.
pub fn run(ctx: &Ctx) {
    distribution(ctx);
    pruning(ctx);
}

/// Uniform vs clustered objects: ROAD's advantage over NetExp widens when
/// objects concentrate.
fn distribution(ctx: &Ctx) {
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

/// Lemma-4 pruning on/off: shortcut count, build time, query time.
fn pruning(ctx: &Ctx) {
    let ds = Dataset::CaHighways;
    let g = config::network(ds, &ctx.scale, &ctx.params);
    let levels = config::levels(ds, &g, &ctx.scale, &ctx.params);
    let count = ctx.scaled_count(ctx.params.objects, ctx.scale.factor(ds));
    let objects = workload::uniform_objects(&g, count, ctx.params.seed + 34);
    let nodes = workload::query_nodes(&g, ctx.scale.queries, ctx.params.seed + 35);

    let mut rows = Vec::new();
    for (label, prune) in [("with Lemma-4 pruning", true), ("unpruned", false)] {
        let mut engine = RoadEngine::build(
            g.clone(),
            ctx.params.metric,
            objects.clone(),
            ctx.params.buffer_pages,
            RoadEngineConfig { fanout: ctx.params.fanout, levels, prune_transitive: prune },
        )
        .expect("framework builds");
        let stats = runner::measure_knn(&mut engine, &nodes, ctx.params.k, &ObjectFilter::Any);
        rows.push(vec![
            label.to_string(),
            engine.framework().shortcuts().num_shortcuts().to_string(),
            fmt_mb(engine.index_size_bytes()),
            fmt_secs(engine.build_seconds()),
            fmt_ms(stats.avg_cpu_ms),
            fmt_f(stats.avg_faults),
        ]);
    }
    print_table(
        "Ablation 2 — Lemma-4 transitive-shortcut pruning (CA, 5NN)",
        &["variant", "shortcuts", "index size", "build (s)", "query CPU (ms)", "query I/O"],
        &rows,
    );
}
