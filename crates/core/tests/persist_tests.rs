//! Persistence round-trip tests: a restored framework must be
//! indistinguishable from the original — same answers, same shortcut
//! distances, and fully maintainable afterwards.

// Integration tests may unwrap freely; the workspace unwrap/expect denial
// targets library code (see clippy.toml for the unit-test exemption).
#![allow(clippy::unwrap_used, clippy::expect_used)]
#![expect(
    clippy::disallowed_methods,
    reason = "the corruption tests walk the image bytes they write to find the counts they stomp"
)]

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use road_core::prelude::*;
use road_core::search::oracle_knn;
use road_core::{RnetId, RoadError};
use road_network::generator::{simple, Dataset};
use road_network::EdgeId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

fn scatter(fw: &RoadFramework, count: usize, seed: u64) -> AssociationDirectory {
    let mut rng = StdRng::seed_from_u64(seed);
    let edges: Vec<EdgeId> = fw.network().edge_ids().collect();
    let mut ad = AssociationDirectory::new(fw.hierarchy());
    for i in 0..count {
        let o = Object::new(
            ObjectId(i as u64),
            edges[rng.random_range(0..edges.len())],
            rng.random_range(0.0..=1.0),
            CategoryId(0),
        );
        ad.insert(fw.network(), fw.hierarchy(), o).unwrap();
    }
    ad
}

/// Records the largest single allocation made on a thread that opted in,
/// then defers to the system allocator.
struct Largest;

thread_local! {
    static MEASURING: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note_allocation(size: usize) {
    // `try_with`: the allocator may run while a thread's locals are torn down.
    if let Ok(true) = MEASURING.try_with(Cell::get) {
        LARGEST.with(|n| n.set(n.get().max(size)));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; recording touches only const-initialised thread-locals, which
// never allocate.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout.size());
        // SAFETY: forwarded as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout.size());
        // SAFETY: forwarded as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation(new_size);
        // SAFETY: forwarded as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as received.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Largest = Largest;

/// What `f` returns, and the largest allocation, in bytes, it made on this
/// thread.
fn largest_allocation_in<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|n| n.set(0));
    MEASURING.with(|m| m.set(true));
    let out = f();
    MEASURING.with(|m| m.set(false));
    (out, LARGEST.with(Cell::get))
}

#[test]
fn roundtrip_preserves_everything() {
    let net = Dataset::CaHighways.generate_scaled(0.03, 21).unwrap();
    let original = RoadFramework::builder(net)
        .fanout(4)
        .levels(3)
        .metric(WeightKind::TravelTime)
        .build()
        .unwrap();
    let bytes = original.to_bytes();
    let restored = RoadFramework::from_bytes(&bytes).unwrap();

    assert_eq!(restored.metric(), original.metric());
    assert_eq!(restored.hierarchy().levels(), original.hierarchy().levels());
    assert_eq!(restored.hierarchy().fanout(), original.hierarchy().fanout());
    assert_eq!(restored.network().num_nodes(), original.network().num_nodes());
    assert_eq!(restored.network().num_edges(), original.network().num_edges());
    assert_eq!(restored.shortcuts().num_shortcuts(), original.shortcuts().num_shortcuts());
    // The restored overlay is exactly what a fresh rebuild would produce.
    restored.verify().unwrap();

    // Identical query answers on a directory mapped onto each copy.
    let ad_orig = scatter(&original, 12, 5);
    let ad_rest = scatter(&restored, 12, 5);
    let mut rng = StdRng::seed_from_u64(9);
    for _ in 0..10 {
        let node = NodeId(rng.random_range(0..original.network().num_nodes() as u32));
        let q = KnnQuery::new(node, 4);
        let a = original.knn(&ad_orig, &q).unwrap();
        let b = restored.knn(&ad_rest, &q).unwrap();
        assert_eq!(a.hits.len(), b.hits.len());
        for (x, y) in a.hits.iter().zip(&b.hits) {
            assert_eq!(x.object, y.object);
            assert!(x.distance.approx_eq(y.distance));
        }
    }
}

#[test]
fn roundtrip_with_tombstoned_edges_and_maintenance() {
    let mut fw =
        RoadFramework::builder(simple::grid(9, 9, 1.0)).fanout(2).levels(3).build().unwrap();
    // Mutate before saving: weight changes and a structural deletion.
    let e0 = fw.network().edge_ids().next().unwrap();
    fw.set_edge_weight(e0, Weight::new(7.5)).unwrap();
    let victim = fw.network().edge_ids().nth(20).unwrap();
    fw.remove_edge(victim, &[]).unwrap();

    let restored = RoadFramework::from_bytes(&fw.to_bytes()).unwrap();
    assert_eq!(restored.network().num_edges(), fw.network().num_edges());
    assert!(restored.network().edge(victim).is_deleted());
    assert_eq!(restored.network().weight(e0, restored.metric()), Weight::new(7.5));
    restored.verify().unwrap();

    // The restored framework keeps maintaining correctly.
    let mut restored = restored;
    let ad = scatter(&restored, 8, 3);
    let e1 = restored.network().edge_ids().nth(5).unwrap();
    restored.set_edge_weight(e1, Weight::new(0.1)).unwrap();
    let q = KnnQuery::new(NodeId(40), 3);
    let got = restored.knn(&ad, &q).unwrap();
    let want = oracle_knn(&restored, &ad, &q);
    assert_eq!(got.hits.len(), want.len());
    for (x, y) in got.hits.iter().zip(&want) {
        assert!(x.distance.approx_eq(y.distance));
    }
}

#[test]
fn corrupt_inputs_are_rejected() {
    let fw = RoadFramework::builder(simple::grid(4, 4, 1.0)).fanout(2).levels(2).build().unwrap();
    let bytes = fw.to_bytes();
    // Wrong magic.
    let mut bad = bytes.clone();
    bad[0] = b'X';
    assert!(RoadFramework::from_bytes(&bad).is_err());
    // Truncations at every prefix length must error, never panic.
    for cut in [0, 1, 7, 8, 9, 20, bytes.len() / 2, bytes.len() - 1] {
        assert!(RoadFramework::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
    }
    // Trailing garbage.
    let mut padded = bytes.clone();
    padded.extend_from_slice(&[0u8; 3]);
    assert!(RoadFramework::from_bytes(&padded).is_err());
    // Bad metric tag.
    let mut bad = bytes.clone();
    bad[8] = 9;
    assert!(RoadFramework::from_bytes(&bad).is_err());
    // Byte 9 says the store is Lemma-4 pruned, and is always 1.
    assert_eq!(bytes[9], 1);
    for flag in [0, 2] {
        let mut bad = bytes.clone();
        bad[9] = flag;
        assert!(RoadFramework::from_bytes(&bad).is_err(), "byte 9 = {flag}");
        assert!(road_core::PagedImage::open(bad).is_err(), "paged open with byte 9 = {flag}");
    }
}

/// Systematic robustness sweep: truncations at every stride must return
/// `RoadError` (never panic or over-allocate), bit flips at every stride
/// must either fail cleanly or produce a framework that can actually
/// serve, and both the monolithic and page-granular open paths must hold
/// the line. This pins the satellite guarantee "corrupt images can never
/// take a serving process down".
#[test]
#[allow(
    clippy::let_underscore_must_use,
    reason = "a corruption sweep asks only that nothing panics: Ok and Err are both answers"
)]
fn systematic_corruption_never_panics() {
    let fw = RoadFramework::builder(simple::grid(5, 5, 1.0)).fanout(2).levels(2).build().unwrap();
    let bytes = fw.to_bytes();

    // Truncation at every 3rd prefix length: always a clean error.
    for cut in (0..bytes.len()).step_by(3) {
        assert!(RoadFramework::from_bytes(&bytes[..cut]).is_err(), "truncation at {cut} parsed");
        assert!(
            road_core::PagedImage::open(bytes[..cut].to_vec()).is_err(),
            "paged open of truncation at {cut} parsed"
        );
    }

    // One flipped bit at every 7th byte: Ok(usable) or Err, never a panic.
    for at in (0..bytes.len()).step_by(7) {
        let mut flipped = bytes.clone();
        flipped[at] ^= 0x10;
        if let Ok(restored) = RoadFramework::from_bytes(&flipped) {
            // Whatever parsed must be servable without panicking (a clean
            // query error is fine; e.g. the flip shrank the node count).
            let ad = AssociationDirectory::new(restored.hierarchy());
            let _ = restored.knn(&ad, &KnnQuery::new(NodeId(0), 1));
        }
        if let Ok(image) = road_core::PagedImage::open(flipped) {
            let _ = image.into_framework().map(|restored| {
                let ad = AssociationDirectory::new(restored.hierarchy());
                let _ = restored.knn(&ad, &KnnQuery::new(NodeId(0), 1));
            });
        }
    }
}

/// Walks the shortcut-store section (the last section of the image,
/// laid out as `num_rnets`, then per Rnet `num_sources`, per source
/// `from num_edges`, per edge `to dist via_len via…`) and returns the
/// byte offsets of the first non-empty Rnet's `num_sources` field and
/// of the first edge's `via_len` field.
fn shortcut_count_offsets(bytes: &[u8], store_at: usize) -> (usize, usize) {
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    let num_rnets = u32_at(store_at);
    let mut pos = store_at + 4;
    let mut sources_at = None;
    for _ in 0..num_rnets {
        let num_sources = u32_at(pos);
        if num_sources > 0 && sources_at.is_none() {
            sources_at = Some(pos);
        }
        pos += 4;
        for _ in 0..num_sources {
            pos += 4; // from
            let num_edges = u32_at(pos);
            pos += 4;
            for _ in 0..num_edges {
                pos += 4 + 8; // to + dist
                let via_len = u32_at(pos);
                if let Some(s) = sources_at {
                    return (s, pos);
                }
                pos += 4 + via_len * 4;
            }
        }
    }
    panic!("grid framework built no shortcuts to corrupt");
}

/// A count field of an image: its name, its offset, the two claims it is
/// corrupted to, and the name a shortcut-store error gives it.
type Count = (&'static str, usize, [u32; 2], &'static str);

/// The image of a grid framework with shortcuts, and every count the
/// decoders read in it. A count claims `u32::MAX` elements or one more
/// than the bytes after it could hold at the smallest size an element
/// takes. The hierarchy's fanout and levels claim `u32::MAX` (outside the
/// shapes a hierarchy may have) or a shape a hierarchy may have whose
/// Rnets' 4-byte section counts alone overrun the bytes left: fanout 256
/// over the image's 2 levels (65,792 Rnets), or 12 levels of fanout 2
/// (8,190).
fn overclaimable_counts() -> (Vec<u8>, [Count; 8]) {
    let fw = RoadFramework::builder(simple::grid(4, 4, 1.0)).fanout(2).levels(2).build().unwrap();
    let bytes = fw.to_bytes();
    // The store is the last section: locate it by re-serializing it alone.
    let mut store = Vec::new();
    fw.shortcuts().serialize_into(fw.hierarchy(), &mut store);
    let store_at = bytes.len() - store.len();
    assert_eq!(&bytes[store_at..], &store[..], "shortcut store is not the tail section");
    let (sources_at, via_len_at) = shortcut_count_offsets(&bytes, store_at);
    let num_nodes_at = 18;
    let edge_slots_at = num_nodes_at + 4 + 16 * fw.network().num_nodes();
    let over = |at: usize, size: usize| [u32::MAX, ((bytes.len() - at - 4) / size) as u32 + 1];
    let counts = [
        ("fanout", 10, [u32::MAX, 256], ""),
        ("levels", 14, [u32::MAX, 12], ""),
        ("num_nodes", num_nodes_at, over(num_nodes_at, 16), ""),
        ("edge_slots", edge_slots_at, over(edge_slots_at, 33 + 4), ""),
        ("num_rnets", store_at, over(store_at, 4), "Rnet count"),
        ("num_sources", sources_at, over(sources_at, 8), "source count"),
        ("num_edges", sources_at + 8, over(sources_at + 8, 16), "edge count"),
        ("via_len", via_len_at, over(via_len_at, 4), "waypoints"),
    ];
    (bytes, counts)
}

/// `bytes` with the count at `at` making each of its two `claims`.
fn overclaimed(bytes: &[u8], at: usize, claims: [u32; 2]) -> [(u32, Vec<u8>); 2] {
    claims.map(|claim| {
        let mut bad = bytes.to_vec();
        bad[at..at + 4].copy_from_slice(&claim.to_le_bytes());
        (claim, bad)
    })
}

/// A lazy engine opened over `bytes`.
fn open_lazily(bytes: Vec<u8>) -> Result<road_core::PagedEngine, RoadError> {
    road_core::PagedImage::open(bytes).and_then(|image| {
        road_core::PagedEngine::open(image, Vec::new(), road_core::PagedOptions::default())
    })
}

/// Every count the decoders read, claiming `u32::MAX` elements or one more
/// than the bytes after it could hold at the smallest size an element
/// takes: each is an `Err`, not a panic, a giant allocation or a
/// four-billion-iteration loop, on the monolithic restore, the
/// page-granular open and the lazy engine opened from it. (A lazy engine's
/// page-in of a section corrupted after open is `paged.rs`'s
/// `overclaimed_section_counts_after_open_are_query_errors`.)
#[test]
fn every_overclaimed_count_fails_every_decode_path() {
    let (bytes, counts) = overclaimable_counts();
    for (what, at, claims, _) in counts {
        for (claim, bad) in overclaimed(&bytes, at, claims) {
            assert!(RoadFramework::from_bytes(&bad).is_err(), "restore accepted {what} = {claim}");
            assert!(
                road_core::PagedImage::open(bad.clone()).is_err(),
                "paged open accepted {what} = {claim}"
            );
            assert!(open_lazily(bad).is_err(), "a lazily opened engine accepted {what} = {claim}");
        }
    }
}

/// An over-claimed count fails before it sizes anything: while a decode of
/// an image with one over-claimed count runs, no single allocation is
/// larger than the largest one a decode of the intact image makes. A
/// count that reserved its claim before the check would ask for at least
/// 4 GiB at `u32::MAX`.
#[test]
fn absurd_counts_fail_fast_without_allocating() {
    let (bytes, counts) = overclaimable_counts();
    type Decodes = fn(Vec<u8>) -> bool;
    let paths: [(&str, Decodes); 3] = [
        ("restore", |b| RoadFramework::from_bytes(&b).is_ok()),
        ("paged open", |b| road_core::PagedImage::open(b).is_ok()),
        ("lazy open", |b| open_lazily(b).is_ok()),
    ];
    for (path, decode) in paths {
        let intact = bytes.clone();
        let (ok, ceiling) = largest_allocation_in(|| decode(intact));
        assert!(ok, "{path} refused the intact image");
        for (what, at, claims, _) in counts {
            for (claim, bad) in overclaimed(&bytes, at, claims) {
                let (ok, largest) = largest_allocation_in(|| decode(bad));
                assert!(!ok, "{path} accepted {what} = {claim}");
                assert!(
                    largest <= ceiling,
                    "{path}, {what} = {claim}: a {largest}-byte allocation (intact image: {ceiling})"
                );
            }
        }
    }
}

/// The store's counts fail the count check itself, on both decode paths and
/// with the same error: the one that names the field and says its count
/// exceeds the bytes left.
#[test]
fn overclaimed_shortcut_counts_fail_fast_on_both_decode_paths() {
    let (bytes, counts) = overclaimable_counts();
    for (what, at, claims, field) in counts.into_iter().filter(|c| !c.3.is_empty()) {
        let want = format!("truncated shortcut store ({field}: count exceeds the bytes left)");
        for (claim, bad) in overclaimed(&bytes, at, claims) {
            let whole = RoadFramework::from_bytes(&bad).unwrap_err().to_string();
            assert!(whole.contains(&want), "restore, {what} = {claim}: {whole}");
            let paged = road_core::PagedImage::open(bad).unwrap_err().to_string();
            assert_eq!(paged, whole, "page-granular open, {what} = {claim}");
        }
    }
}

/// A valid shape whose Rnets cannot fit the bytes after the prelude —
/// fanout 2 over 12 levels is 8,190 Rnets, each section at least its
/// 4-byte count — fails the prelude's own check, which names the shape, on
/// both decode paths alike, before the hierarchy sizes anything by it.
#[test]
fn a_shape_whose_rnets_outgrow_the_image_fails_the_prelude_check() {
    let (bytes, counts) = overclaimable_counts();
    let (_, levels_at, _, _) = counts.into_iter().find(|c| c.0 == "levels").unwrap();
    let [(_, bad), _] = overclaimed(&bytes, levels_at, [12, 12]);
    let whole = RoadFramework::from_bytes(&bad).unwrap_err().to_string();
    assert!(whole.contains("fanout 2 over 12 levels makes 8190 Rnets, more than the"), "{whole}");
    assert_eq!(road_core::PagedImage::open(bad.clone()).unwrap_err().to_string(), whole);
    assert_eq!(open_lazily(bad).unwrap_err().to_string(), whole);
}

/// The first shortcut run of the store section starting at `store_at`:
/// its Rnet, and the offsets of its source field and of its first
/// shortcut's target field.
fn first_run(bytes: &[u8], store_at: usize) -> (RnetId, usize, usize) {
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    let mut pos = store_at + 4;
    for r in 0..u32_at(store_at) as u32 {
        let num_sources = u32_at(pos);
        pos += 4;
        if num_sources > 0 {
            return (RnetId(r), pos, pos + 8);
        }
    }
    panic!("grid framework built no shortcuts to corrupt");
}

/// A shortcut whose source or target is a node of the network but not a
/// border of its Rnet passes every id check, and used to decode: the bad
/// target became a jump to an arbitrary node, silently wrong answers. The
/// monolithic restore, the page-granular open and a lazily reopened paged
/// engine each refuse it with an `Err`, and none panics.
#[test]
fn a_shortcut_end_off_its_rnets_borders_fails_every_open_path() {
    let fw = RoadFramework::builder(simple::grid(6, 6, 1.0)).fanout(2).levels(2).build().unwrap();
    let bytes = fw.to_bytes();
    let mut store = Vec::new();
    fw.shortcuts().serialize_into(fw.hierarchy(), &mut store);
    let store_at = bytes.len() - store.len();
    let (r, source_at, target_at) = first_run(&bytes, store_at);
    let inside = (0..fw.network().num_nodes() as u32)
        .find(|&n| fw.hierarchy().slot_of(NodeId(n), r).is_none())
        .expect("a node that does not border the Rnet");
    for (end, at) in [("source", source_at), ("target", target_at)] {
        let mut bad = bytes.clone();
        bad[at..at + 4].copy_from_slice(&inside.to_le_bytes());
        let want = format!("shortcut {end} n{inside} is not a border of {r:?}");
        let whole = RoadFramework::from_bytes(&bad).unwrap_err().to_string();
        assert!(whole.contains(&want), "from_bytes, bad {end}: {whole}");
        let paged = road_core::PagedImage::open(bad.clone()).unwrap_err().to_string();
        assert_eq!(paged, whole, "page-granular open, bad {end}");
        let lazy = road_core::PagedImage::open(bad).and_then(|image| {
            road_core::PagedEngine::open(image, Vec::new(), road_core::PagedOptions::default())
        });
        assert!(lazy.is_err(), "a lazily reopened engine accepted a bad {end}");
    }
}

/// A longer randomized corruption soak for the `--include-ignored` CI
/// stress pass: every byte truncated, and random multi-byte stomps.
#[test]
#[ignore = "stress: exhaustive corruption sweep, run via --include-ignored"]
#[allow(
    clippy::let_underscore_must_use,
    reason = "a corruption sweep asks only that nothing panics: Ok and Err are both answers"
)]
fn stress_exhaustive_corruption_sweep() {
    let fw = RoadFramework::builder(simple::grid(6, 6, 1.0)).fanout(2).levels(2).build().unwrap();
    let bytes = fw.to_bytes();
    for cut in 0..bytes.len() {
        assert!(RoadFramework::from_bytes(&bytes[..cut]).is_err(), "truncation at {cut} parsed");
    }
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for _ in 0..400 {
        let mut stomped = bytes.clone();
        for _ in 0..rng.random_range(1..6) {
            let at = rng.random_range(0..stomped.len());
            stomped[at] = rng.random_range(0..=255u32) as u8;
        }
        if let Ok(restored) = RoadFramework::from_bytes(&stomped) {
            let ad = AssociationDirectory::new(restored.hierarchy());
            let _ = restored.knn(&ad, &KnnQuery::new(NodeId(0), 1));
        }
        let _ = road_core::PagedImage::open(stomped);
    }
}

#[test]
fn paged_image_open_matches_monolithic_restore() {
    let fw = RoadFramework::builder(simple::grid(7, 7, 1.0)).fanout(4).levels(2).build().unwrap();
    let bytes = fw.to_bytes();
    let image = road_core::PagedImage::open(bytes.clone()).unwrap();
    assert_eq!(image.num_rnets(), fw.hierarchy().num_rnets());
    assert_eq!(image.network().num_nodes(), fw.network().num_nodes());
    assert_eq!(image.metric(), fw.metric());
    // Per-Rnet sections tile the shortcut payload.
    let section_total: usize =
        (0..image.num_rnets()).map(|r| image.rnet_section_bytes(r).unwrap()).sum();
    assert!(section_total < bytes.len());
    // Materializing the lazy image equals the monolithic restore.
    let via_image = image.into_framework().unwrap();
    let via_bytes = RoadFramework::from_bytes(&bytes).unwrap();
    assert_eq!(via_image.shortcuts().num_shortcuts(), via_bytes.shortcuts().num_shortcuts());
    via_image.verify().unwrap();
}

/// `rnet_section_bytes` answers `None` for an Rnet the image does not
/// have, where it used to index out of bounds.
#[test]
fn rnet_section_bytes_past_the_last_rnet_is_none() {
    let fw = RoadFramework::builder(simple::grid(5, 5, 1.0)).fanout(2).levels(2).build().unwrap();
    let image = road_core::PagedImage::open(fw.to_bytes()).unwrap();
    let last = image.num_rnets() - 1;
    assert!(image.rnet_section_bytes(last).is_some_and(|n| n >= 4));
    assert_eq!(image.rnet_section_bytes(image.num_rnets()), None);
    assert_eq!(image.rnet_section_bytes(usize::MAX), None);
}

/// Both open paths read the shortcut store's header with the same check:
/// an image whose store claims another Rnet count fails each with the
/// same message.
#[test]
fn both_open_paths_reject_a_wrong_rnet_count_alike() {
    let fw = RoadFramework::builder(simple::grid(4, 4, 1.0)).fanout(2).levels(2).build().unwrap();
    let mut bytes = fw.to_bytes();
    let mut store = Vec::new();
    fw.shortcuts().serialize_into(fw.hierarchy(), &mut store);
    let store_at = bytes.len() - store.len();
    let claimed = fw.hierarchy().num_rnets() as u32 + 1;
    bytes[store_at..store_at + 4].copy_from_slice(&claimed.to_le_bytes());
    let whole = RoadFramework::from_bytes(&bytes).unwrap_err().to_string();
    let paged = road_core::PagedImage::open(bytes).unwrap_err().to_string();
    assert!(whole.contains(&format!("describes {claimed} Rnets")), "{whole}");
    assert_eq!(whole, paged);
}

#[test]
fn file_roundtrip() {
    let fw = RoadFramework::builder(simple::grid(6, 6, 1.0)).fanout(2).levels(2).build().unwrap();
    let dir = std::env::temp_dir().join("road_persist_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("overlay.roadfw");
    road_core::persist::save_to(&fw, &path).unwrap();
    let restored = road_core::persist::load_from(&path).unwrap();
    restored.verify().unwrap();
    std::fs::remove_file(&path).unwrap();
    assert!(road_core::persist::load_from(dir.join("missing.roadfw")).is_err());
}

#[test]
fn custom_semantic_partition_builds_and_answers() {
    // The paper's "partitioning based on network semantics": a 2x2
    // quadrant split of a grid supplied by the caller, recursively (two
    // levels of fanout 2 => 4 leaves = the quadrants).
    let g = simple::grid(10, 10, 1.0);
    let cfg = road_core::RoadConfig {
        metric: WeightKind::Distance,
        hierarchy: road_core::HierarchyConfig { fanout: 2, levels: 2, ..Default::default() },
        ..Default::default()
    };
    let quadrant = |e: EdgeId| -> u32 {
        let (a, b) = g.edge(e).endpoints();
        let m = g.coord(a).midpoint(g.coord(b));
        let right = (m.x > 4.5) as u32;
        let top = (m.y > 4.5) as u32;
        top * 2 + right
    };
    let fw = RoadFramework::build_with_partition(g.clone(), cfg, quadrant).unwrap();
    fw.hierarchy().validate(fw.network()).unwrap();
    let ad = scatter(&fw, 10, 77);
    let q = KnnQuery::new(NodeId(0), 3);
    let got = fw.knn(&ad, &q).unwrap();
    let want = oracle_knn(&fw, &ad, &q);
    assert_eq!(got.hits.len(), want.len());
    for (x, y) in got.hits.iter().zip(&want) {
        assert!(x.distance.approx_eq(y.distance));
    }
    // Out-of-range assignments are rejected.
    let bad = RoadFramework::build_with_partition(
        g,
        road_core::RoadConfig {
            hierarchy: road_core::HierarchyConfig { fanout: 2, levels: 1, ..Default::default() },
            ..Default::default()
        },
        |_| 7,
    );
    assert!(bad.is_err());
}

/// ROADFW01 must capture *repaired* overlays: after a mixed maintenance
/// stream — weight changes, a new intersection wired in with new edges,
/// and an edge deletion — the serialized bytes must restore to a
/// framework whose shortcuts are exactly what a fresh rebuild over the
/// mutated network produces.
#[test]
fn roundtrip_after_mixed_maintenance_agrees_with_fresh_rebuild() {
    let mut fw =
        RoadFramework::builder(simple::grid(8, 8, 1.0)).fanout(4).levels(2).build().unwrap();
    let mut rng = StdRng::seed_from_u64(31);

    // Weight changes across several leaf Rnets.
    let edges: Vec<EdgeId> = fw.network().edge_ids().collect();
    for _ in 0..12 {
        let e = edges[rng.random_range(0..edges.len())];
        fw.set_edge_weight(e, Weight::new(rng.random_range(0.1..8.0))).unwrap();
    }
    // Topology growth: a new intersection connected to two existing ones
    // (promotes borders and re-partitions shortcut chains).
    let n_new = fw.add_node(road_network::Point::new(3.4, 3.6));
    let w = Weight::new(0.7);
    fw.add_edge(NodeId(27), n_new, (w, w, Weight::ZERO)).unwrap();
    fw.add_edge(n_new, NodeId(36), (w, w, Weight::ZERO)).unwrap();
    // And a bypass between two previously unconnected intersections.
    if fw.network().edge_between(NodeId(0), NodeId(17)).is_none() {
        fw.add_edge(NodeId(0), NodeId(17), (w, w, Weight::ZERO)).unwrap();
    }
    // Shrinkage: delete an (object-free) edge.
    let victim = edges[40];
    fw.remove_edge(victim, &[]).unwrap();

    // The repaired overlay itself is sound...
    fw.verify().unwrap();
    // ...and survives the byte round-trip intact: the restored framework's
    // shortcuts agree with a fresh rebuild over the mutated network.
    let restored = RoadFramework::from_bytes(&fw.to_bytes()).unwrap();
    restored.verify().unwrap();
    assert_eq!(restored.network().num_nodes(), fw.network().num_nodes());
    assert_eq!(restored.network().num_edges(), fw.network().num_edges());
    assert_eq!(restored.shortcuts().num_shortcuts(), fw.shortcuts().num_shortcuts());
    assert!(restored.network().edge(victim).is_deleted());

    // Answers agree between the maintained original and the restored copy.
    let ad_orig = scatter(&fw, 10, 8);
    let ad_rest = scatter(&restored, 10, 8);
    for _ in 0..8 {
        let node = NodeId(rng.random_range(0..fw.network().num_nodes() as u32));
        let q = KnnQuery::new(node, 3);
        let a = fw.knn(&ad_orig, &q).unwrap();
        let b = restored.knn(&ad_rest, &q).unwrap();
        assert_eq!(a.hits.len(), b.hits.len());
        for (x, y) in a.hits.iter().zip(&b.hits) {
            assert_eq!(x.object, y.object);
            assert!(x.distance.approx_eq(y.distance));
        }
    }
}

/// Byte-level round-trip of a *repaired* overlay through the lazy open
/// path: after mixed maintenance with exact (integer) weights, the image
/// opened via `PagedImage::open` and materialized must re-serialize to
/// the **identical** bytes, and its shortcut section must byte-match a
/// from-scratch contraction rebuild over the mutated network.
#[test]
fn repaired_overlay_roundtrips_byte_identical_via_paged_open() {
    let mut fw =
        RoadFramework::builder(simple::grid(8, 8, 1.0)).fanout(4).levels(2).build().unwrap();
    let mut rng = StdRng::seed_from_u64(0xB17E);

    let edges: Vec<EdgeId> = fw.network().edge_ids().collect();
    for _ in 0..15 {
        let e = edges[rng.random_range(0..edges.len())];
        fw.set_edge_weight(e, Weight::new(rng.random_range(1..=16u32) as f64)).unwrap();
    }
    let w = Weight::new(3.0);
    if fw.network().edge_between(NodeId(5), NodeId(30)).is_none() {
        fw.add_edge(NodeId(5), NodeId(30), (w, w, Weight::ZERO)).unwrap();
    }
    fw.remove_edge(edges[33], &[]).unwrap();
    fw.verify().unwrap();

    let bytes = fw.to_bytes();
    let image = road_core::PagedImage::open(bytes.clone()).unwrap();
    let restored = image.into_framework().unwrap();
    assert_eq!(restored.to_bytes(), bytes, "paged open + re-serialize must be the identity");

    // The repaired store equals a fresh contraction build, byte for byte
    // (integer weights make f64 arithmetic exact, so the incremental
    // refreshes must land on the same bits).
    let fresh = road_core::ShortcutStore::build(
        fw.network(),
        fw.hierarchy(),
        fw.metric(),
        &Default::default(),
    );
    let mut repaired = Vec::new();
    fw.shortcuts().serialize_into(fw.hierarchy(), &mut repaired);
    let mut rebuilt = Vec::new();
    fresh.serialize_into(fw.hierarchy(), &mut rebuilt);
    assert_eq!(repaired, rebuilt, "repaired overlay diverged from a fresh rebuild");
}
