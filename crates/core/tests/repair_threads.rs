//! The writer's repair threads are spawned once. A framework that repairs
//! at `shortcut_threads(2)` parks one worker at its first fanned-out level
//! and hands it every later level; dropping the writer joins it, and
//! neither a clone of the framework nor a published snapshot owns one.
//!
//! The count read is the process's (`Threads:` in `/proc/self/status`), so
//! this file holds one test: `cargo test` runs a file's tests side by side
//! on threads of one process. Without that file the test fails; there is
//! no other count to read.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use road_core::live::LiveEngine;
use road_core::prelude::*;
use road_network::generator::simple;
use road_network::EdgeId;
use std::time::{Duration, Instant};

/// The threads this process has now.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("/proc/self/status holds the thread count this test reads");
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:"));
    line.expect("a Threads: line").trim().parse().expect("a thread count")
}

/// The kernel's ids of this process's threads, ascending.
fn thread_ids() -> Vec<u64> {
    let tasks = std::fs::read_dir("/proc/self/task").expect("/proc/self/task lists the threads");
    let name = |entry: std::io::Result<std::fs::DirEntry>| entry.unwrap().file_name();
    let mut ids: Vec<u64> = tasks.map(|e| name(e).to_str().unwrap().parse().unwrap()).collect();
    ids.sort_unstable();
    ids
}

/// Waits until the process has `want` threads. A joined thread is still
/// counted until the kernel has reaped it, a moment after the join
/// returns, so a count is polled rather than read once.
fn settle_at(want: usize, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let now = threads();
        if now == want {
            return;
        }
        assert!(Instant::now() < deadline, "{what}: {now} threads, want {want}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn a_writer_repairs_on_one_parked_worker_and_joins_it_when_dropped() {
    let baseline = threads();
    let g = simple::grid(12, 12, 1.0);
    let fw = RoadFramework::builder(g).fanout(4).levels(2).shortcut_threads(2).build().unwrap();
    let ad = AssociationDirectory::new(fw.hierarchy());
    let (live, mut writer) = LiveEngine::new(fw, ad);
    settle_at(baseline, "a build leaves no thread behind");

    let edges: Vec<EdgeId> = writer.framework().network().edge_ids().collect();
    let mut rng = StdRng::seed_from_u64(0x7A5C);
    let mut parked = Vec::new();
    for tick in 1..=100 {
        let updates: Vec<(EdgeId, Weight)> = (0..8)
            .map(|_| {
                let e = edges[rng.random_range(0..edges.len())];
                (e, Weight::new(rng.random_range(1..=16u32) as f64))
            })
            .collect();
        writer.set_edge_weights(&updates).unwrap();
        writer.publish();
        if tick == 1 {
            settle_at(baseline + 1, "the first tick parks one worker");
            parked = thread_ids();
        }
    }
    settle_at(baseline + 1, "100 ticks keep one worker");
    assert_eq!(thread_ids(), parked, "a tick replaced the parked worker");

    let snapshot = live.snapshot();
    let clone = writer.framework().clone();
    assert_eq!(threads(), baseline + 1, "a clone or a snapshot started a thread");
    drop(writer);
    settle_at(baseline, "dropping the writer joins its worker");
    assert_eq!(snapshot.version(), 100);
    assert_eq!(clone.network().num_nodes(), 144);
}
