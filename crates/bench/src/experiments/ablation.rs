//! Ablations for the design choices ARCHITECTURE.md calls out:
//!
//! 1. **Object distribution** — footnote 3 of the paper predicts ROAD
//!    gains more from clustered objects (more empty Rnets to prune);
//! 2. **Lemma-4 shortcut pruning** — transitive-shortcut removal trades
//!    nothing for a smaller overlay;
//! 3. **Abstract representation** — exact counts vs counting-Bloom
//!    summaries (size vs precision of pruning).

use super::Ctx;
use crate::runner::EngineKind;
use crate::table::{fmt_f, fmt_mb, fmt_ms, fmt_secs, print_table};
use crate::{config, runner, workload};
use road_baselines::road_engine::{RoadEngine, RoadEngineConfig};
use road_baselines::Engine;
use road_core::abstracts::AbstractKind;
use road_core::association::AssociationDirectory;
use road_core::model::ObjectFilter;
use road_core::search::KnnQuery;
use road_network::generator::Dataset;

/// Runs all three ablations on CA.
pub fn run(ctx: &Ctx) {
    distribution(ctx);
    pruning(ctx);
    abstracts(ctx);
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

/// Exact-count vs Bloom abstracts: directory size against wasted descents.
fn abstracts(ctx: &Ctx) {
    let ds = Dataset::CaHighways;
    let g = config::network(ds, &ctx.scale, &ctx.params);
    let levels = config::levels(ds, &g, &ctx.scale, &ctx.params);
    let count = ctx.scaled_count(ctx.params.objects, ctx.scale.factor(ds));
    let objects = workload::uniform_objects(&g, count, ctx.params.seed + 36);
    let nodes = workload::query_nodes(&g, ctx.scale.queries.min(30), ctx.params.seed + 37);

    let fw = road_core::RoadFramework::builder(g)
        .fanout(ctx.params.fanout)
        .levels(levels)
        .metric(ctx.params.metric)
        .build()
        .expect("framework builds");

    let mut rows = Vec::new();
    for (label, kind) in
        [("exact counts", AbstractKind::Counts), ("counting Bloom", AbstractKind::Bloom)]
    {
        let mut ad = AssociationDirectory::with_kind(fw.hierarchy(), kind);
        for o in &objects {
            ad.insert(fw.network(), fw.hierarchy(), o.clone()).unwrap();
        }
        let mut descended = 0usize;
        let mut bypassed = 0usize;
        let t = std::time::Instant::now();
        for &n in &nodes {
            let res = fw.knn(&ad, &KnnQuery::new(n, ctx.params.k)).unwrap();
            descended += res.stats.rnets_descended;
            bypassed += res.stats.rnets_bypassed;
        }
        let ms = t.elapsed().as_secs_f64() * 1e3 / nodes.len() as f64;
        rows.push(vec![
            label.to_string(),
            fmt_mb(ad.size_bytes()),
            fmt_ms(ms),
            fmt_f(descended as f64 / nodes.len() as f64),
            fmt_f(bypassed as f64 / nodes.len() as f64),
        ]);
    }
    print_table(
        "Ablation 3 — abstract representation (CA, 5NN)",
        &["abstract", "directory size", "query (ms)", "Rnets descended", "Rnets bypassed"],
        &rows,
    );
}
