//! Release-scale pins of the whole build path: the persisted image of the
//! two roadbench worlds (`benchmark/src/world.rs`: SF streets at a quarter
//! and the continental preset at a tenth, network seed `0xEDB72009`,
//! fanout 4, 6 levels, everything else at its default), by length,
//! shortcut count and FNV-1a-64 of `to_bytes()`.
//!
//! Recorded on the hash-map Kernighan–Lin partitioner, before the
//! flat-array rewrite and the threaded binary rounds, and unchanged by
//! them: where `crates/network/tests/partition_golden.rs` pins the
//! partitioner on 259 small edge sets inside tier-1, this pins the ~4,000
//! bisections of a real build, and what the shortcut builder and `persist`
//! make of them, on the worlds `benchmark/baseline.json` counts. Minutes
//! unoptimised, so `#[ignore]`d: CI's stress step (`--include-ignored`)
//! runs them. Like every golden that depends on the partition they belong
//! to the default hasher.

#![allow(clippy::unwrap_used, clippy::expect_used)]
#![cfg(not(feature = "shuffle-hasher"))]

use road_core::prelude::*;
use road_network::generator::Dataset;

const NETWORK_SEED: u64 = 0xEDB7_2009;

/// FNV-1a-64.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// `(image bytes, shortcuts, FNV-1a-64 of the image)` of a default build.
fn build_pin(dataset: Dataset, scale: f64, threads: usize) -> (usize, usize, u64) {
    let net = dataset.generate_scaled(scale, NETWORK_SEED).unwrap();
    assert_eq!(dataset.suggested_levels(net.num_edges(), 4), 6);
    let fw =
        RoadFramework::builder(net).fanout(4).levels(6).shortcut_threads(threads).build().unwrap();
    let image = fw.to_bytes();
    (image.len(), fw.shortcuts().num_shortcuts(), fnv1a(&image))
}

#[test]
#[ignore = "release-scale build pin (roadbench world B); run via --include-ignored"]
fn sf_quarter_builds_the_recorded_image() {
    let recorded = (8_475_348, 240_152, 0xd9bb_0214_263f_7938);
    assert_eq!(build_pin(Dataset::SfStreets, 0.25, 0), recorded);
    assert_eq!(build_pin(Dataset::SfStreets, 0.25, 1), recorded);
}

#[test]
#[ignore = "release-scale build pin (roadbench world W); run via --include-ignored"]
fn continent_tenth_builds_the_recorded_image() {
    let recorded = (12_657_143, 250_868, 0x607f_49cb_68fe_6703);
    assert_eq!(build_pin(Dataset::Continent, 0.1, 0), recorded);
    assert_eq!(build_pin(Dataset::Continent, 0.1, 3), recorded);
}
