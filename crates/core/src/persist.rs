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

const MAGIC: &[u8; 8] = b"ROADFW01";
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

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], RoadError> {
        let end = self.pos.checked_add(n).ok_or_else(|| corrupt("length overflow"))?;
        let s = self.buf.get(self.pos..end).ok_or_else(|| corrupt("truncated buffer"))?;
        self.pos = end;
        Ok(s)
    }
    /// Fails early when fewer than `n` bytes remain — the guard that keeps
    /// absurd element counts in corrupted images from driving giant
    /// allocations or long decode loops.
    fn require(&self, n: usize) -> Result<(), RoadError> {
        if self.pos.checked_add(n).map(|end| end <= self.buf.len()) != Some(true) {
            return Err(corrupt("truncated buffer (count exceeds remaining bytes)"));
        }
        Ok(())
    }
    fn u8(&mut self) -> Result<u8, RoadError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, RoadError> {
        let b = self.take(4)?.first_chunk::<4>().copied();
        Ok(u32::from_le_bytes(b.ok_or_else(|| corrupt("truncated u32"))?))
    }
    fn f64(&mut self) -> Result<f64, RoadError> {
        let b = self.take(8)?.first_chunk::<8>().copied();
        Ok(f64::from_le_bytes(b.ok_or_else(|| corrupt("truncated f64"))?))
    }
}

/// Everything before the shortcut-store section: configuration, network and
/// hierarchy. Shared by the monolithic and the page-granular open paths.
fn parse_prelude(r: &mut Reader) -> Result<(RoadConfig, RoadNetwork, RnetHierarchy), RoadError> {
    if r.take(8)? != MAGIC {
        return Err(corrupt("bad magic (not a ROAD framework file?)"));
    }
    let metric = metric_from_tag(r.u8()?)?;
    if r.u8()? != LEMMA4 {
        return Err(corrupt("header byte 9 is not 1 (every store is Lemma-4 pruned)"));
    }
    let fanout = r.u32()? as usize;
    let levels = r.u32()?;

    // --- network -------------------------------------------------------
    let num_nodes = r.u32()? as usize;
    r.require(num_nodes.checked_mul(16).ok_or_else(|| corrupt("node count overflow"))?)?;
    let mut builder = RoadNetwork::builder();
    for _ in 0..num_nodes {
        let x = r.f64()?;
        let y = r.f64()?;
        builder.add_node(Point::new(x, y));
    }
    let edge_slots = r.u32()? as usize;
    r.require(edge_slots.checked_mul(33).ok_or_else(|| corrupt("edge count overflow"))?)?;
    let mut deleted = Vec::new();
    for i in 0..edge_slots {
        let a = road_network::NodeId(r.u32()?);
        let b = road_network::NodeId(r.u32()?);
        let d = Weight::try_new(r.f64()?).map_err(|e| corrupt(e.to_string()))?;
        let t = Weight::try_new(r.f64()?).map_err(|e| corrupt(e.to_string()))?;
        let toll = Weight::try_new(r.f64()?).map_err(|e| corrupt(e.to_string()))?;
        builder.add_edge_full(a, b, d, t, toll).map_err(|e| corrupt(e.to_string()))?;
        if r.u8()? != 0 {
            deleted.push(EdgeId(i as u32));
        }
    }
    let mut g = builder.build();
    for e in deleted {
        g.remove_edge(e).map_err(|e2| corrupt(e2.to_string()))?;
    }

    // --- hierarchy -----------------------------------------------------
    r.require(edge_slots.checked_mul(4).ok_or_else(|| corrupt("edge count overflow"))?)?;
    let mut leaf_idx = Vec::with_capacity(edge_slots);
    for _ in 0..edge_slots {
        leaf_idx.push(r.u32()?);
    }
    for e in g.edge_ids() {
        if leaf_idx[e.index()] == NO_LEAF {
            return Err(corrupt(format!("live edge {e} has no leaf assignment")));
        }
    }
    let hier = RnetHierarchy::from_leaf_assignment(&g, fanout, levels, |e| leaf_idx[e.index()])?;

    let mut cfg = RoadConfig { metric, ..Default::default() };
    cfg.hierarchy.fanout = fanout;
    cfg.hierarchy.levels = levels;
    Ok((cfg, g, hier))
}

/// Restores a framework serialized by [`to_bytes`].
pub fn from_bytes(bytes: &[u8]) -> Result<RoadFramework, RoadError> {
    let mut r = Reader { buf: bytes, pos: 0 };
    let (cfg, g, hier) = parse_prelude(&mut r)?;

    // --- shortcuts -----------------------------------------------------
    let mut pos = r.pos;
    let shortcuts = ShortcutStore::deserialize(bytes, &mut pos, g.num_nodes() as u32, &hier)
        .map_err(corrupt)?;
    if pos != bytes.len() {
        return Err(corrupt(format!("{} trailing bytes", bytes.len() - pos)));
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
        let mut r = Reader { buf: &bytes, pos: 0 };
        let (cfg, g, hier) = parse_prelude(&mut r)?;
        let num_nodes = g.num_nodes() as u32;
        let mut pos = r.pos;
        let num_rnets = ShortcutStore::read_store_header(&bytes, &mut pos, hier.num_rnets())
            .map_err(corrupt)?;
        let mut rnet_ranges = Vec::with_capacity(num_rnets);
        for r in 0..num_rnets as u32 {
            let start = pos;
            ShortcutStore::walk_rnet_section(
                &bytes,
                &mut pos,
                num_nodes,
                &hier,
                RnetId(r),
                &mut (),
            )
            .map_err(corrupt)?;
            rnet_ranges.push((start, pos));
        }
        if pos != bytes.len() {
            return Err(corrupt(format!("{} trailing bytes", bytes.len() - pos)));
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
            let (mut pos, id) = (0, RnetId(r as u32));
            let num_nodes = self.g.num_nodes() as u32;
            ShortcutStore::walk_rnet_section(section, &mut pos, num_nodes, &self.hier, id, out)?;
            match section.len() - pos {
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
