//! Spans recorded by the benchmark around each call into a layer.
//!
//! Spans live in memory and are written to `trace.json` when the run
//! ends. Every span of one op shares the op's number; a child names the
//! span that caused it. A layer's self time is its span minus the part of
//! that interval its children cover. Spans inside the crates are a later
//! change (ROADMAP item 1).

use crate::json::Json;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Number of the op (query, tick or build cycle) this span belongs to.
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counters the layer returned for this call (`SearchStats`,
    /// `UpdateOutcome`, ...).
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle to an open span; `None` when tracing is off.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<u32>);

/// One thread's span recorder. With tracing off every call is a branch
/// and nothing else, so the end-to-end windows run the same loop.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    first_id: u32,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer { on: false, epoch: Instant::now(), first_id: 0, spans: Vec::new() }
    }

    /// A recording tracer. Threads of one run share `epoch` and take
    /// disjoint id ranges through `first_id`.
    pub fn on(epoch: Instant, first_id: u32) -> Tracer {
        Tracer { on: true, epoch, first_id, spans: Vec::new() }
    }

    pub fn begin(&mut self, name: &'static str, parent: SpanId, op: usize) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.first_id + self.spans.len() as u32;
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent: parent.0,
            op: op as u32,
            name,
            start_ns: now,
            end_ns: now,
            counts: Vec::new(),
        });
        SpanId(Some(id))
    }

    pub fn root(&mut self, name: &'static str, op: usize) -> SpanId {
        self.begin(name, SpanId(None), op)
    }

    pub fn end(&mut self, id: SpanId) {
        self.end_with(id, Vec::new);
    }

    /// Closes the span; `counts` runs only when tracing is on.
    pub fn end_with(&mut self, id: SpanId, counts: impl FnOnce() -> Vec<(&'static str, u64)>) {
        let Some(id) = id.0 else { return };
        let now = self.epoch.elapsed().as_nanos() as u64;
        if let Some(span) = self.spans.get_mut((id - self.first_id) as usize) {
            span.end_ns = now;
            span.counts = counts();
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span, in span order: its duration minus the union
/// of its children's intervals clipped to its own. `spans` ascend by id.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let index_of = |id: u32| spans.binary_search_by_key(&id, |s| s.id).ok();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent.and_then(index_of) {
            let lo = span.start_ns.max(spans[p].start_ns);
            let hi = span.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Per span name, in name order: `(name, spans, total ns, self ns)`.
pub fn by_name(spans: &[Span]) -> Vec<(&'static str, usize, u64, u64)> {
    let selfs = self_times_ns(spans);
    let mut rows: Vec<(&'static str, usize, u64, u64)> = Vec::new();
    for (span, self_ns) in spans.iter().zip(selfs) {
        match rows.iter_mut().find(|r| r.0 == span.name) {
            Some(row) => {
                row.1 += 1;
                row.2 += span.duration_ns();
                row.3 += self_ns;
            }
            None => rows.push((span.name, 1, span.duration_ns(), self_ns)),
        }
    }
    rows.sort_by_key(|r| r.0);
    rows
}

/// Durations of every span called `name`.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<u64> {
    spans.iter().filter(|s| s.name == name).map(Span::duration_ns).collect()
}

/// Share of the root spans' time that their children cover; the rest is
/// time the harness cannot attribute to a layer call.
pub fn child_cover_share(spans: &[Span]) -> f64 {
    let selfs = self_times_ns(spans);
    let (mut total, mut own) = (0u64, 0u64);
    for (span, self_ns) in spans.iter().zip(selfs) {
        if span.parent.is_none() {
            total += span.duration_ns();
            own += self_ns;
        }
    }
    if total == 0 {
        0.0
    } else {
        1.0 - own as f64 / total as f64
    }
}

pub fn to_json(spans: &[&Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::Num(f64::from(s.id))),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p)))),
                    ("op", Json::Num(f64::from(s.op))),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("counts", Json::obj(s.counts.iter().map(|&(k, v)| (k, Json::Num(v as f64))))),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span { id, parent, op: 0, name, start_ns: start, end_ns: end, counts: Vec::new() }
    }

    #[test]
    fn self_time_is_span_minus_child_cover() {
        let spans = vec![
            span(0, None, "op", 0, 100),
            span(1, Some(0), "a", 10, 40),
            // Overlaps `a` by 10 and sticks out of the parent by 20.
            span(2, Some(0), "b", 30, 120),
            span(3, Some(1), "leaf", 15, 20),
        ];
        // Children cover [10, 100) of the root: self = 10.
        assert_eq!(self_times_ns(&spans), vec![10, 25, 90, 5]);
        assert!((child_cover_share(&spans) - 0.9).abs() < 1e-12);
        assert_eq!(
            by_name(&spans),
            vec![("a", 1, 30, 25), ("b", 1, 90, 90), ("leaf", 1, 5, 5), ("op", 1, 100, 10)]
        );
    }

    #[test]
    fn tracer_off_records_nothing_and_on_nests() {
        let mut off = Tracer::off();
        let r = off.root("op", 0);
        off.end(r);
        assert!(off.into_spans().is_empty());

        let mut on = Tracer::on(Instant::now(), 100);
        let r = on.root("op", 7);
        let c = on.begin("call", r, 7);
        on.end_with(c, || vec![("n", 3)]);
        on.end(r);
        let spans = on.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].id, spans[0].parent, spans[0].op), (100, None, 7));
        assert_eq!((spans[1].id, spans[1].parent), (101, Some(100)));
        assert_eq!(spans[1].counts, vec![("n", 3)]);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
