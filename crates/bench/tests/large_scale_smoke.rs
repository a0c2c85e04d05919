//! `--scale large` construction smoke, `#[ignore]`d so it only runs in
//! the CI `--include-ignored` step: drives Figure 14 (index time and size
//! per network, all four engines) over the large-scale dataset list — the
//! paper's three networks *plus* the continental preset — at sharply
//! reduced factors, so the whole `--scale large` code path (dataset
//! selection, continent generation, engine builds, table assembly) is
//! exercised in seconds rather than the hours a true 10^6-node run takes.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use road_bench::config::{self, ExpScale, Params, LARGE};
use road_bench::experiments::{fig14, Ctx};
use road_network::generator::Dataset;

/// A `large`-shaped scale shrunk to CI size: same name (so the large
/// dataset list, continent included, is selected), tiny factors.
fn shrunken_large() -> ExpScale {
    ExpScale { ca: 0.02, big: 0.005, continent: 0.02, queries: 5, trials: 3, ..LARGE }
}

#[test]
#[ignore = "large-scale construction smoke; run with --include-ignored"]
fn scale_large_construction_smoke() {
    let scale = shrunken_large();
    assert_eq!(scale.name, "large");
    assert!(scale.datasets().contains(&Dataset::Continent));
    fig14::run(&Ctx { scale, params: Params::default() });
}

/// The continental preset itself must generate and report cleanly at a
/// smoke factor — ~20k nodes of highway backbone plus street grids.
#[test]
#[ignore = "large-scale construction smoke; run with --include-ignored"]
fn continent_generates_at_smoke_factor() {
    let scale = shrunken_large();
    let params = Params::default();
    let g = config::network(Dataset::Continent, &scale, &params);
    assert_eq!(g.num_nodes(), 20_000);
    assert_eq!(g.connected_components(), 1);
    let levels = config::levels(Dataset::Continent, &g, &scale, &params);
    assert!((2..=10).contains(&levels), "bad suggested depth {levels}");
}
