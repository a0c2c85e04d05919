//! Figure 18 — range query performance: (a) varying the range fraction on
//! CA, (b) varying object cardinality on CA, (c) across networks.

use super::fig17::Axis;
use super::Ctx;
use crate::runner::EngineKind;
use crate::table::print_table;
use crate::{config, runner, workload};
use road_core::model::ObjectFilter;
use road_network::dijkstra::estimate_diameter;
use road_network::generator::Dataset;
use road_network::Weight;

/// Runs the chosen sub-figures (all when `axis` is `None`).
pub fn run(ctx: &Ctx, axis: Option<Axis>) {
    if axis.is_none() || axis == Some(Axis::K) {
        run_vary_r(ctx);
    }
    if axis.is_none() || axis == Some(Axis::Objects) {
        run_vary_objects(ctx);
    }
    if axis.is_none() || axis == Some(Axis::Network) {
        run_vary_network(ctx);
    }
}

fn run_vary_r(ctx: &Ctx) {
    let ds = Dataset::CaHighways;
    let g = config::network(ds, &ctx.scale, &ctx.params);
    let levels = config::levels(ds, &g, &ctx.scale, &ctx.params);
    let diameter = estimate_diameter(&g, ctx.params.metric);
    let count = ctx.scaled_count(ctx.params.objects, ctx.scale.factor(ds));
    let objects = workload::uniform_objects(&g, count, ctx.params.seed + 18);
    let nodes = workload::query_nodes(&g, ctx.scale.queries, ctx.params.seed + 181);

    let mut engines: Vec<_> = EngineKind::ALL
        .iter()
        .map(|&k| runner::build_engine(k, &g, &objects, &ctx.params, levels))
        .collect();
    let mut rows = Vec::new();
    for frac in [0.05f64, 0.1, 0.2] {
        let radius = Weight::new(diameter.get() * frac);
        let stats: Vec<_> = engines
            .iter_mut()
            .map(|e| runner::measure_range(e.as_mut(), &nodes, radius, &ObjectFilter::Any))
            .collect();
        rows.push(runner::time_io_row(format!("r={frac}·diam"), &stats));
    }
    print_table(
        &format!(
            "Figure 18a — range query on {} (|O| = 100): CPU time (ms) and I/O (pages)",
            ds.name()
        ),
        &runner::time_io_header("range"),
        &rows,
    );
}

fn run_vary_objects(ctx: &Ctx) {
    let ds = Dataset::CaHighways;
    let g = config::network(ds, &ctx.scale, &ctx.params);
    let levels = config::levels(ds, &g, &ctx.scale, &ctx.params);
    let diameter = estimate_diameter(&g, ctx.params.metric);
    let radius = Weight::new(diameter.get() * ctx.params.range_fraction);
    let nodes = workload::query_nodes(&g, ctx.scale.queries, ctx.params.seed + 182);
    let factor = ctx.scale.factor(ds);

    let mut rows = Vec::new();
    for base in super::fig13::CARDINALITIES {
        let count = ctx.scaled_count(base, factor);
        let objects = workload::uniform_objects(&g, count, ctx.params.seed + base as u64);
        let stats = EngineKind::ALL.map(|kind| {
            let mut engine = runner::build_engine(kind, &g, &objects, &ctx.params, levels);
            runner::measure_range(engine.as_mut(), &nodes, radius, &ObjectFilter::Any)
        });
        rows.push(runner::time_io_row(format!("{base}"), &stats));
    }
    print_table(
        &format!(
            "Figure 18b — range query on {} (r = 0.1·diam) vs object cardinality: \
             CPU time (ms) and I/O (pages)",
            ds.name()
        ),
        &runner::time_io_header("|O|"),
        &rows,
    );
}

fn run_vary_network(ctx: &Ctx) {
    let mut rows = Vec::new();
    for ds in Dataset::ALL {
        let g = config::network(ds, &ctx.scale, &ctx.params);
        let levels = config::levels(ds, &g, &ctx.scale, &ctx.params);
        let diameter = estimate_diameter(&g, ctx.params.metric);
        let radius = Weight::new(diameter.get() * ctx.params.range_fraction);
        let count = ctx.scaled_count(ctx.params.objects, ctx.scale.factor(ds));
        let objects = workload::uniform_objects(&g, count, ctx.params.seed + 18);
        let nodes = workload::query_nodes(&g, ctx.scale.queries, ctx.params.seed + 183);
        let stats = EngineKind::ALL.map(|kind| {
            let mut engine = runner::build_engine(kind, &g, &objects, &ctx.params, levels);
            runner::measure_range(engine.as_mut(), &nodes, radius, &ObjectFilter::Any)
        });
        rows.push(runner::time_io_row(ds.name().to_string(), &stats));
    }
    print_table(
        "Figure 18c — range query across networks (|O| = 100, r = 0.1·diam): \
         CPU time (ms) and I/O (pages)",
        &runner::time_io_header("network"),
        &rows,
    );
}
