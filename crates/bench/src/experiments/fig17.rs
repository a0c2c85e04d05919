//! Figure 17 — kNN query performance: (a) varying k on CA, (b) varying
//! object cardinality on CA, (c) across networks.

use super::Ctx;
use crate::runner::EngineKind;
use crate::table::print_table;
use crate::{config, runner, workload};
use road_core::model::ObjectFilter;
use road_network::generator::Dataset;

/// Which sub-figure to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Axis {
    K,
    Objects,
    Network,
}

impl Axis {
    /// Parses `--axis k|objects|network` from an argument list (no flag =
    /// `None` = all three); an unknown axis is an error, not all three.
    pub fn from_arg_list(args: &[String]) -> Result<Option<Axis>, String> {
        let Some(i) = args.iter().position(|a| a == "--axis") else {
            return Ok(None);
        };
        match args.get(i + 1).map(String::as_str) {
            Some("k") => Ok(Some(Axis::K)),
            Some("objects") => Ok(Some(Axis::Objects)),
            Some("network") => Ok(Some(Axis::Network)),
            other => Err(format!(
                "unknown axis '{}' (valid: k, objects, network)",
                other.unwrap_or_default()
            )),
        }
    }
}

/// Context and sub-figure of a `fig17_knn` / `fig18_range` run, from argv
/// (`--scale NAME`, `--axis NAME`); anything else exits 2.
pub fn from_args() -> (Ctx, Option<Axis>) {
    let args: Vec<String> = std::env::args().collect();
    config::or_exit(from_arg_list(&args))
}

/// [`from_args`] over an explicit argument list (testable).
pub fn from_arg_list(args: &[String]) -> Result<(Ctx, Option<Axis>), String> {
    let ctx = Ctx::from_arg_list(args, &["--axis"])?;
    Ok((ctx, Axis::from_arg_list(args)?))
}

/// Runs the chosen sub-figures (all when `axis` is `None`).
pub fn run(ctx: &Ctx, axis: Option<Axis>) {
    if axis.is_none() || axis == Some(Axis::K) {
        run_vary_k(ctx);
    }
    if axis.is_none() || axis == Some(Axis::Objects) {
        run_vary_objects(ctx);
    }
    if axis.is_none() || axis == Some(Axis::Network) {
        run_vary_network(ctx);
    }
}

fn run_vary_k(ctx: &Ctx) {
    let ds = Dataset::CaHighways;
    let g = config::network(ds, &ctx.scale, &ctx.params);
    let levels = config::levels(ds, &g, &ctx.scale, &ctx.params);
    let count = ctx.scaled_count(ctx.params.objects, ctx.scale.factor(ds));
    let objects = workload::uniform_objects(&g, count, ctx.params.seed + 17);
    let nodes = workload::query_nodes(&g, ctx.scale.queries, ctx.params.seed + 171);

    let mut rows = Vec::new();
    let mut engines: Vec<_> = EngineKind::ALL
        .iter()
        .map(|&k| runner::build_engine(k, &g, &objects, &ctx.params, levels))
        .collect();
    for k in [1usize, 5, 10] {
        let stats: Vec<_> = engines
            .iter_mut()
            .map(|e| runner::measure_knn(e.as_mut(), &nodes, k, &ObjectFilter::Any))
            .collect();
        rows.push(runner::time_io_row(format!("k={k}"), &stats));
    }
    print_table(
        &format!("Figure 17a — kNN on {} (|O| = 100): CPU time (ms) and I/O (pages)", ds.name()),
        &runner::time_io_header("k"),
        &rows,
    );
}

fn run_vary_objects(ctx: &Ctx) {
    let ds = Dataset::CaHighways;
    let g = config::network(ds, &ctx.scale, &ctx.params);
    let levels = config::levels(ds, &g, &ctx.scale, &ctx.params);
    let nodes = workload::query_nodes(&g, ctx.scale.queries, ctx.params.seed + 172);
    let factor = ctx.scale.factor(ds);

    let mut rows = Vec::new();
    for base in super::fig13::CARDINALITIES {
        let count = ctx.scaled_count(base, factor);
        let objects = workload::uniform_objects(&g, count, ctx.params.seed + base as u64);
        let stats = EngineKind::ALL.map(|kind| {
            let mut engine = runner::build_engine(kind, &g, &objects, &ctx.params, levels);
            runner::measure_knn(engine.as_mut(), &nodes, ctx.params.k, &ObjectFilter::Any)
        });
        rows.push(runner::time_io_row(format!("{base}"), &stats));
    }
    print_table(
        &format!(
            "Figure 17b — kNN on {} (k = 5) vs object cardinality: CPU time (ms) and I/O (pages)",
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
        let count = ctx.scaled_count(ctx.params.objects, ctx.scale.factor(ds));
        let objects = workload::uniform_objects(&g, count, ctx.params.seed + 17);
        let nodes = workload::query_nodes(&g, ctx.scale.queries, ctx.params.seed + 173);
        let stats = EngineKind::ALL.map(|kind| {
            let mut engine = runner::build_engine(kind, &g, &objects, &ctx.params, levels);
            runner::measure_knn(engine.as_mut(), &nodes, ctx.params.k, &ObjectFilter::Any)
        });
        rows.push(runner::time_io_row(ds.name().to_string(), &stats));
    }
    print_table(
        "Figure 17c — kNN across networks (|O| = 100, k = 5): CPU time (ms) and I/O (pages)",
        &runner::time_io_header("network"),
        &rows,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_parsing() {
        use config::argv;
        let (ctx, axis) = from_arg_list(&argv(&["--axis", "objects", "--scale", "small"])).unwrap();
        assert_eq!((ctx.scale.name, axis), ("small", Some(Axis::Objects)));
        assert_eq!(from_arg_list(&argv(&["--axis", "k"])).unwrap().1, Some(Axis::K));
        assert_eq!(from_arg_list(&argv(&["--axis", "network"])).unwrap().1, Some(Axis::Network));
        assert_eq!(from_arg_list(&argv(&[])).unwrap().1, None);
        // A typo must not run all three sub-figures.
        let err = from_arg_list(&argv(&["--axis", "foo"])).unwrap_err();
        assert!(err.contains("foo") && err.contains("k, objects, network"), "unhelpful: {err}");
        assert!(from_arg_list(&argv(&["--axes", "k"])).is_err());
        // The bins without sub-figures do not take `--axis`.
        assert!(Ctx::from_arg_list(&argv(&["--axis", "k"]), &[]).is_err());
    }
}
