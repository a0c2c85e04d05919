//! Framework persistence: serialize a built `RoadFramework` — network,
//! Rnet assignment and all shortcuts — to a flat byte buffer, and restore
//! it without re-partitioning or re-running any Dijkstra.
//!
//! Rationale: the expensive part of ROAD is constructing the Route Overlay
//! (Figures 13/14/19 measure it in minutes-to-hours at paper scale). A
//! deployment builds once, ships the overlay, and every server loads it in
//! I/O-bound time. Association Directories are intentionally *not* part of
//! the format — objects belong to content providers and are remapped on
//! the fly, which is the framework's separation-of-concerns story.
//!
//! The format is versioned and little-endian throughout:
//!
//! ```text
//! magic "ROADFW01"
//! u8  metric          (0 distance, 1 travel-time, 2 toll)
//! u8  lemma4          (always 1: every store is pruned)
//! u32 fanout, u32 levels
//! u32 num_nodes, then per node: f64 x, f64 y
//! u32 edge_slots, then per slot:
//!     u32 a, u32 b, f64 distance, f64 travel_time, f64 toll, u8 deleted
//! per slot: u32 leaf index (u32::MAX = none/deleted)
//! shortcut store (see `ShortcutStore::serialize_into`)
//! ```

use crate::framework::{RoadConfig, RoadFramework};
use crate::hierarchy::{RnetHierarchy, RnetId};
use crate::shortcut::{RnetBuilder, SectionSink, ShortcutStore};
use crate::RoadError;
use road_network::graph::{RoadNetwork, WeightKind};
use road_network::{EdgeId, Point, Weight};
use road_storage::decode::{Cursor, DecodeError};

const MAGIC: &[u8; 8] = b"ROADFW01";
/// A node's record: `f64 x, f64 y`.
const NODE_BYTES: usize = 16;
/// An edge slot's record: `u32 a, u32 b`, three `f64` weights, `u8 deleted`.
const EDGE_BYTES: usize = 33;
const NO_LEAF: u32 = u32::MAX;
/// Header byte 9: the shortcut store is Lemma-4 pruned, as every store is.
const LEMMA4: u8 = 1;

fn metric_tag(kind: WeightKind) -> u8 {
    match kind {
        WeightKind::Distance => 0,
        WeightKind::TravelTime => 1,
        WeightKind::Toll => 2,
    }
}

fn metric_from_tag(tag: u8) -> Result<WeightKind, RoadError> {
    match tag {
        0 => Ok(WeightKind::Distance),
        1 => Ok(WeightKind::TravelTime),
        2 => Ok(WeightKind::Toll),
        other => Err(corrupt(format!("unknown metric tag {other}"))),
    }
}

fn corrupt(msg: impl Into<String>) -> RoadError {
    RoadError::InvalidConfig(format!("persisted framework: {}", msg.into()))
}

/// Serializes a built framework.
pub fn to_bytes(fw: &RoadFramework) -> Vec<u8> {
    let g = fw.network();
    let hier = fw.hierarchy();
    // Rough capacity: coords + edges dominate.
    let mut out = Vec::with_capacity(64 + g.num_nodes() * 16 + g.edge_slots() * 40);
    out.extend_from_slice(MAGIC);
    out.push(metric_tag(fw.metric()));
    out.push(LEMMA4);
    out.extend_from_slice(&(hier.fanout() as u32).to_le_bytes());
    out.extend_from_slice(&hier.levels().to_le_bytes());
    out.extend_from_slice(&(g.num_nodes() as u32).to_le_bytes());
    for n in g.node_ids() {
        let p = g.coord(n);
        out.extend_from_slice(&p.x.to_le_bytes());
        out.extend_from_slice(&p.y.to_le_bytes());
    }
    out.extend_from_slice(&(g.edge_slots() as u32).to_le_bytes());
    for i in 0..g.edge_slots() {
        let e = EdgeId(i as u32);
        let rec = g.edge(e);
        let (a, b) = rec.endpoints();
        out.extend_from_slice(&a.0.to_le_bytes());
        out.extend_from_slice(&b.0.to_le_bytes());
        for kind in WeightKind::ALL {
            out.extend_from_slice(&rec.weight(kind).get().to_le_bytes());
        }
        out.push(rec.is_deleted() as u8);
    }
    for i in 0..g.edge_slots() {
        let idx = hier.leaf_index_of_edge(EdgeId(i as u32)).unwrap_or(NO_LEAF);
        out.extend_from_slice(&idx.to_le_bytes());
    }
    fw.shortcuts().serialize_into(hier, &mut out);
    out
}

/// A prelude read that ran out of bytes.
fn truncated(e: DecodeError) -> RoadError {
    corrupt(format!("truncated buffer ({e})"))
}

/// Everything before the shortcut-store section: configuration, network and
/// hierarchy. Shared by the monolithic and the page-granular open paths.
fn parse_prelude(
    r: &mut Cursor<'_>,
) -> Result<(RoadConfig, RoadNetwork, RnetHierarchy), RoadError> {
    if r.take(8).map_err(truncated)? != MAGIC {
        return Err(corrupt("bad magic (not a ROAD framework file?)"));
    }
    let metric = metric_from_tag(r.u8().map_err(truncated)?)?;
    if r.u8().map_err(truncated)? != LEMMA4 {
        return Err(corrupt("header byte 9 is not 1 (every store is Lemma-4 pruned)"));
    }
    let fanout = r.u32().map_err(truncated)? as usize;
    let levels = r.u32().map_err(truncated)?;

    // --- network -------------------------------------------------------
    let num_nodes = r.count(NODE_BYTES).map_err(truncated)?;
    let mut builder = RoadNetwork::builder();
    for _ in 0..num_nodes {
        let x = r.f64().map_err(truncated)?;
        let y = r.f64().map_err(truncated)?;
        builder.add_node(Point::new(x, y));
    }
    // A slot's record, then its leaf index further on.
    let edge_slots = r.count(EDGE_BYTES + 4).map_err(truncated)?;
    let weight = |r: &mut Cursor<'_>| {
        Weight::try_new(r.f64().map_err(truncated)?).map_err(|e| corrupt(e.to_string()))
    };
    let mut deleted = Vec::new();
    for i in 0..edge_slots {
        let a = road_network::NodeId(r.u32().map_err(truncated)?);
        let b = road_network::NodeId(r.u32().map_err(truncated)?);
        let (d, t, toll) = (weight(r)?, weight(r)?, weight(r)?);
        builder.add_edge_full(a, b, d, t, toll).map_err(|e| corrupt(e.to_string()))?;
        if r.u8().map_err(truncated)? != 0 {
            deleted.push(EdgeId(i as u32));
        }
    }
    let mut g = builder.build();
    for e in deleted {
        g.remove_edge(e).map_err(|e2| corrupt(e2.to_string()))?;
    }

    // --- hierarchy -----------------------------------------------------
    let mut leaf_idx = Vec::with_capacity(edge_slots);
    for _ in 0..edge_slots {
        leaf_idx.push(r.u32().map_err(truncated)?);
    }
    for e in g.edge_ids() {
        if leaf_idx[e.index()] == NO_LEAF {
            return Err(corrupt(format!("live edge {e} has no leaf assignment")));
        }
    }
    // The shortcut store is all that is left: its Rnet count, then a
    // section per Rnet of at least its own 4-byte count. A shape whose
    // Rnets cannot fit fails here, before the hierarchy sizes a list per
    // leaf by it.
    let rnets = crate::hierarchy::rnet_count(fanout, levels)?;
    if rnets.saturating_add(1).saturating_mul(4) > r.remaining() {
        return Err(corrupt(format!(
            "fanout {fanout} over {levels} levels makes {rnets} Rnets, more than the {} bytes left hold",
            r.remaining()
        )));
    }
    let hier = RnetHierarchy::from_leaf_assignment(&g, fanout, levels, |e| leaf_idx[e.index()])?;

    let mut cfg = RoadConfig { metric, ..Default::default() };
    cfg.hierarchy.fanout = fanout;
    cfg.hierarchy.levels = levels;
    Ok((cfg, g, hier))
}

/// Restores a framework serialized by [`to_bytes`].
pub fn from_bytes(bytes: &[u8]) -> Result<RoadFramework, RoadError> {
    let mut r = Cursor::new(bytes);
    let (cfg, g, hier) = parse_prelude(&mut r)?;

    // --- shortcuts -----------------------------------------------------
    let shortcuts =
        ShortcutStore::deserialize(&mut r, g.num_nodes() as u32, &hier).map_err(corrupt)?;
    if r.remaining() > 0 {
        return Err(corrupt(format!("{} trailing bytes", r.remaining())));
    }

    RoadFramework::from_parts(g, cfg, hier, shortcuts)
}

/// A `ROADFW01` image opened **page-granularly**: the prelude (config,
/// network, hierarchy) is parsed eagerly, but the shortcut store — the
/// bulk of a built overlay — is only *walked* to record and validate each
/// Rnet's byte range. Individual Rnets are walked again on demand, which
/// lets [`crate::paged::PagedEngine::open`] copy an Rnet's shortcut heads
/// onto pages on first touch instead of deserializing the whole store up
/// front.
///
/// Because `open` fully validates every section (counts against remaining
/// bytes, node ids against the network, shortcut ends against their
/// Rnet's borders), later per-Rnet walks of unchanged bytes cannot fail:
/// corruption is rejected at open time, exactly like the monolithic
/// [`from_bytes`] path.
pub struct PagedImage {
    bytes: Vec<u8>,
    cfg: RoadConfig,
    g: std::sync::Arc<RoadNetwork>,
    hier: std::sync::Arc<RnetHierarchy>,
    /// Byte range of each Rnet's section within `bytes`.
    rnet_ranges: Vec<(usize, usize)>,
}

impl PagedImage {
    /// Opens an image, validating it end to end without materializing the
    /// shortcut store.
    pub fn open(bytes: Vec<u8>) -> Result<Self, RoadError> {
        let mut c = Cursor::new(&bytes);
        let (cfg, g, hier) = parse_prelude(&mut c)?;
        let num_nodes = g.num_nodes() as u32;
        let num_rnets =
            ShortcutStore::read_store_header(&mut c, hier.num_rnets()).map_err(corrupt)?;
        let mut rnet_ranges = Vec::with_capacity(num_rnets);
        for r in 0..num_rnets as u32 {
            let start = c.pos();
            ShortcutStore::walk_rnet_section(&mut c, num_nodes, &hier, RnetId(r), &mut ())
                .map_err(corrupt)?;
            rnet_ranges.push((start, c.pos()));
        }
        if c.remaining() > 0 {
            return Err(corrupt(format!("{} trailing bytes", c.remaining())));
        }
        Ok(PagedImage {
            bytes,
            cfg,
            g: std::sync::Arc::new(g),
            hier: std::sync::Arc::new(hier),
            rnet_ranges,
        })
    }

    /// Opens an image file page-granularly.
    pub fn open_file(path: impl AsRef<std::path::Path>) -> Result<Self, RoadError> {
        let bytes = std::fs::read(path).map_err(|e| corrupt(format!("cannot read file: {e}")))?;
        Self::open(bytes)
    }

    /// The restored road network.
    pub fn network(&self) -> &RoadNetwork {
        &self.g
    }

    /// The restored Rnet hierarchy.
    pub fn hierarchy(&self) -> &RnetHierarchy {
        &self.hier
    }

    /// Shared handle to the hierarchy (retained by the paged engine).
    pub(crate) fn hierarchy_arc(&self) -> &std::sync::Arc<RnetHierarchy> {
        &self.hier
    }

    /// The persisted framework configuration.
    pub fn config(&self) -> &RoadConfig {
        &self.cfg
    }

    /// The metric the persisted shortcuts were built for.
    pub fn metric(&self) -> WeightKind {
        self.cfg.metric
    }

    /// Number of Rnets whose shortcut sections the image carries.
    pub fn num_rnets(&self) -> usize {
        self.rnet_ranges.len()
    }

    /// Serialized size of Rnet `r`'s shortcut section in bytes; `None`
    /// when `r` is not below [`num_rnets`](Self::num_rnets).
    pub fn rnet_section_bytes(&self, r: usize) -> Option<usize> {
        self.rnet_ranges.get(r).map(|&(start, end)| end - start)
    }

    /// Walks Rnet `r`'s shortcut section again, with every check `open`
    /// made, into `out` — the paged engine's page-in copies it onto pages
    /// this way, [`PagedImage::into_framework`] decodes it. The walk reads
    /// the section's own bytes and nothing past them, and must end where
    /// the section does.
    ///
    /// Fallible even though `open` validated every section: the walk runs
    /// arbitrarily later, and bytes that changed in the meantime (torn
    /// mmap, bit rot, a buggy writer) must surface as an error through the
    /// query path — not as a silently empty shortcut set, which would
    /// produce *wrong answers* indistinguishable from "this Rnet has no
    /// shortcuts".
    pub(crate) fn walk_rnet(&self, r: usize, out: &mut impl SectionSink) -> Result<(), RoadError> {
        let section = self.rnet_ranges.get(r).and_then(|&(start, end)| self.bytes.get(start..end));
        let walked = section.ok_or_else(|| "no such section".to_owned()).and_then(|section| {
            let (mut c, id) = (Cursor::new(section), RnetId(r as u32));
            let num_nodes = self.g.num_nodes() as u32;
            ShortcutStore::walk_rnet_section(&mut c, num_nodes, &self.hier, id, out)?;
            match c.remaining() {
                0 => Ok(()),
                left => Err(format!("{left} bytes of the section left unread")),
            }
        });
        walked.map_err(|e| {
            corrupt(format!(
                "Rnet {r} shortcut section no longer checks out (image corrupted after \
                 open?): {e}"
            ))
        })
    }

    /// Decodes one Rnet's shortcut tables (see [`PagedImage::walk_rnet`]).
    pub(crate) fn shortcuts_of_rnet(
        &self,
        r: usize,
    ) -> Result<crate::shortcut::RnetShortcuts, RoadError> {
        let slots = self.hier.borders(RnetId(r as u32)).len();
        let bytes = self.rnet_section_bytes(r).unwrap_or(0);
        let mut builder = RnetBuilder::for_section(slots, bytes);
        let walked = self.walk_rnet(r, &mut builder);
        let rnet = builder.finish(slots);
        walked.map(|()| rnet)
    }

    /// Materializes the full framework (decodes every Rnet) — the upgrade
    /// path from a page-granular open to in-memory serving.
    pub fn into_framework(self) -> Result<RoadFramework, RoadError> {
        let maps = (0..self.rnet_ranges.len())
            .map(|r| self.shortcuts_of_rnet(r))
            .collect::<Result<Vec<_>, _>>()?;
        let shortcuts = ShortcutStore::from_rnet_maps(maps);
        RoadFramework::from_shared_parts(self.g, self.cfg, self.hier, shortcuts)
    }

    /// Byte range of Rnet `r`'s shortcut section (corruption tests).
    #[cfg(test)]
    pub(crate) fn rnet_range(&self, r: usize) -> (usize, usize) {
        self.rnet_ranges[r]
    }

    /// Mutable image bytes — only for tests that corrupt a validated
    /// image *after* open to exercise the query-time decode-failure path.
    #[cfg(test)]
    pub(crate) fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.bytes
    }
}

impl std::fmt::Debug for PagedImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedImage")
            .field("bytes", &self.bytes.len())
            .field("nodes", &self.g.num_nodes())
            .field("rnets", &self.rnet_ranges.len())
            .finish()
    }
}

/// Saves to a file.
pub fn save_to(fw: &RoadFramework, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
    std::fs::write(path, to_bytes(fw))
}

/// Loads from a file.
pub fn load_from(path: impl AsRef<std::path::Path>) -> Result<RoadFramework, RoadError> {
    let bytes = std::fs::read(path).map_err(|e| corrupt(format!("cannot read file: {e}")))?;
    from_bytes(&bytes)
}
