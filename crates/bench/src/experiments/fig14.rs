//! Figure 14 — index construction time and size across the networks of
//! the scale (the paper's three; `--scale large` adds CONT) with |O| = 100.

use super::Ctx;
use crate::runner::EngineKind;
use crate::table::{fmt_mb, fmt_secs, print_table};
use crate::{config, runner, workload};

/// Runs the experiment and prints its two tables.
pub fn run(ctx: &Ctx) {
    let mut time_rows = Vec::new();
    let mut size_rows = Vec::new();
    for &ds in ctx.scale.datasets() {
        let g = config::network(ds, &ctx.scale, &ctx.params);
        let levels = config::levels(ds, &g, &ctx.scale, &ctx.params);
        let count = ctx.scaled_count(ctx.params.objects, ctx.scale.factor(ds));
        let objects = workload::uniform_objects(&g, count, ctx.params.seed + 14);
        let mut time_row =
            vec![format!("{} ({}n/{}e, l={levels})", ds.name(), g.num_nodes(), g.num_edges())];
        let mut size_row = vec![ds.name().to_string()];
        for kind in EngineKind::ALL {
            let engine = runner::build_engine(kind, &g, &objects, &ctx.params, levels);
            time_row.push(fmt_secs(engine.build_seconds()));
            size_row.push(fmt_mb(engine.index_size_bytes()));
        }
        time_rows.push(time_row);
        size_rows.push(size_row);
    }
    let header = ["network", "NetExp", "Euclidean", "DistIdx", "ROAD"];
    print_table("Figure 14a — index construction time (|O| = 100, seconds)", &header, &time_rows);
    print_table("Figure 14b — index size (|O| = 100)", &header, &size_rows);
}
