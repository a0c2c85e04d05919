//! Regenerates Figure 17 (kNN query performance). Pass
//! `--axis k|objects|network` for one sub-figure, `--scale` for size.

fn main() {
    let (ctx, axis) = road_bench::experiments::fig17::from_args();
    road_bench::experiments::fig17::run(&ctx, axis);
}
