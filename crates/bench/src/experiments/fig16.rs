//! Figure 16 — network update time: "remove" a random edge by setting its
//! weight to infinity, then add it back by restoring the original weight
//! (the paper's protocol); average per approach and network.
//!
//! ROAD repairs only the shortcuts of the enclosing Rnet chain; DistIdx
//! re-expands every affected object column. ROAD's time is that overlay
//! repair (filter-and-refresh) alone: the page image is not incremental
//! — an update drops it, the next query lays it out again — and the
//! re-layout is not timed.

use super::Ctx;
use crate::runner::EngineKind;
use crate::table::{fmt_secs, print_table};
use crate::{config, runner, workload};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use road_network::generator::Dataset;
use road_network::{EdgeId, Weight};

/// Runs the experiment and prints deletion and insertion tables.
pub fn run(ctx: &Ctx) {
    let mut del_rows = Vec::new();
    let mut ins_rows = Vec::new();
    for ds in Dataset::ALL {
        let g = config::network(ds, &ctx.scale, &ctx.params);
        let levels = config::levels(ds, &g, &ctx.scale, &ctx.params);
        let count = ctx.scaled_count(ctx.params.objects, ctx.scale.factor(ds));
        let objects = workload::uniform_objects(&g, count, ctx.params.seed + 16);
        let edges: Vec<EdgeId> = g.edge_ids().collect();
        let mut del_row = vec![ds.name().to_string()];
        let mut ins_row = vec![ds.name().to_string()];
        for kind in EngineKind::ALL {
            let mut engine = runner::build_engine(kind, &g, &objects, &ctx.params, levels);
            let mut rng = StdRng::seed_from_u64(ctx.params.seed + 161);
            let mut del_s = 0.0;
            let mut ins_s = 0.0;
            let trials = if kind == EngineKind::DistIdx {
                ctx.scale.trials.min(5)
            } else {
                ctx.scale.trials
            };
            for _ in 0..trials {
                let e = edges[rng.random_range(0..edges.len())];
                let original = engine.edge_weight(e);
                del_s += engine.set_edge_weight(e, Weight::INFINITY).seconds;
                ins_s += engine.set_edge_weight(e, original).seconds;
            }
            del_row.push(fmt_secs(del_s / trials as f64));
            ins_row.push(fmt_secs(ins_s / trials as f64));
        }
        del_rows.push(del_row);
        ins_rows.push(ins_row);
    }
    let header = ["network", "NetExp", "Euclidean", "DistIdx", "ROAD"];
    print_table("Figure 16a — edge deletion time (|O| = 100, seconds)", &header, &del_rows);
    print_table("Figure 16b — edge insertion time (|O| = 100, seconds)", &header, &ins_rows);
}
