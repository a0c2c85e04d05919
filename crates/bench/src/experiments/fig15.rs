//! Figure 15 — object update time: delete one random object, add it back,
//! repeated; average deletion and insertion time per approach and network.
//!
//! DistIdx pays a full network expansion plus a rewrite of every node's
//! signature per change; the other three are sub-millisecond. ROAD's time
//! is the Association Directory repair (object map + abstracts up the
//! Rnet chain); its page image is not incremental — it is dropped and
//! laid out again by the next query — and is not timed.

use super::Ctx;
use crate::runner::EngineKind;
use crate::table::{fmt_secs, print_table};
use crate::{config, runner, workload};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use road_network::generator::Dataset;

/// Runs the experiment and prints deletion and insertion tables.
pub fn run(ctx: &Ctx) {
    let mut del_rows = Vec::new();
    let mut ins_rows = Vec::new();
    for ds in Dataset::ALL {
        let g = config::network(ds, &ctx.scale, &ctx.params);
        let levels = config::levels(ds, &g, &ctx.scale, &ctx.params);
        let count = ctx.scaled_count(ctx.params.objects, ctx.scale.factor(ds));
        let objects = workload::uniform_objects(&g, count, ctx.params.seed + 15);
        let mut del_row = vec![ds.name().to_string()];
        let mut ins_row = vec![ds.name().to_string()];
        for kind in EngineKind::ALL {
            let mut engine = runner::build_engine(kind, &g, &objects, &ctx.params, levels);
            let mut rng = StdRng::seed_from_u64(ctx.params.seed + 151);
            let mut del_s = 0.0;
            let mut ins_s = 0.0;
            // DistIdx updates are orders of magnitude slower; cap its trial
            // count so the harness stays responsive (averages converge fast).
            let trials = if kind == EngineKind::DistIdx {
                ctx.scale.trials.min(5)
            } else {
                ctx.scale.trials
            };
            for _ in 0..trials {
                let victim = objects[rng.random_range(0..objects.len())].clone();
                del_s += engine.remove_object(victim.id).seconds;
                ins_s += engine.insert_object(victim).seconds;
            }
            del_row.push(fmt_secs(del_s / trials as f64));
            ins_row.push(fmt_secs(ins_s / trials as f64));
        }
        del_rows.push(del_row);
        ins_rows.push(ins_row);
    }
    let header = ["network", "NetExp", "Euclidean", "DistIdx", "ROAD"];
    print_table("Figure 15a — object deletion time (|O| = 100, seconds)", &header, &del_rows);
    print_table("Figure 15b — object insertion time (|O| = 100, seconds)", &header, &ins_rows);
}
