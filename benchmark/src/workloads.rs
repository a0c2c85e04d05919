//! The five workloads: set-up, the measured loop, and answer checking.
//!
//! Every loop runs under a [`Budget`]: the end-to-end windows run for a
//! duration, the layer probes for a fixed op count (so their counts repeat
//! exactly). Ops are timed around the engine call only; checking the
//! answer happens outside the op timer and inside the window. A timed
//! window also samples the host's speed between ops (`reference`), and
//! its summary divides every timing by it. With `traced` set the same
//! loop records one root span per op and a child span around every call
//! into a layer.

use crate::metrics;
use crate::oracle::{hits_match, Oracle};
use crate::reference::{HostSampler, Reference, Sampling, Slice, NOMINAL_BLOCK};
use crate::stats::{median, percentile};
use crate::trace::{Span, SpanId, Tracer};
use crate::world::{self, Op, Query, Tick, TickStream, World, FANOUT, STREAM_LEN};
use road_core::{
    AssociationDirectory, LiveEngine, Object, PagedEngine, PagedImage, PagedOptions, QueryEngine,
    RoadError, RoadFramework, SearchHit, SearchStats, SearchWorkspace, Snapshot, UpdateHandle,
    UpdateOutcome,
};
use road_network::RoadNetwork;
use std::time::{Duration, Instant};

/// Complete set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Ops served before a serving window opens.
pub const WARM_OPS: usize = STREAM_LEN / 4;
/// The paper's buffer: 50 frames of 4 KB, about 2% of `W`'s pages.
pub const POOL_PAGES: usize = 50;
/// The paced writer of `live_mixed` has one tick due every interval.
pub const TICK_INTERVAL: Duration = Duration::from_millis(100);
/// Queries re-checked against the writer's final state after a live window.
pub const FINAL_CHECKS: usize = 512;
/// Span ids of the writer thread start here; the reader's start at 0.
const WRITER_FIRST_SPAN: u32 = 1 << 30;

#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// A window: the host's speed is sampled along it.
    Time(Duration),
    /// A probe pass: queries for the serving loops, ticks for the live
    /// ones, cycles for `build_reopen`. Its timings stay raw.
    Ops(usize),
}

impl Budget {
    fn samples_host(self) -> bool {
        matches!(self, Budget::Time(_))
    }
}

/// What one measured loop produced.
pub struct Run {
    /// The whole window, kernel runs included.
    pub window_s: f64,
    /// Latency of every op completed in the window, in op order (the
    /// reader's ops for `live_mixed`).
    pub lat_ns: Vec<u64>,
    /// Latencies the tail percentile is taken over, where that is another
    /// population than `lat_ns`: the same number per op, in op order
    /// (`build_reopen`: the first queries of each cycle).
    pub tail_ns: Option<Vec<u64>>,
    /// The percentile reported as the tail: the highest of 99 and 90 that a
    /// run's samples support (`TAIL_*`).
    pub tail_percentile: f64,
    /// The window in slices, each with its reading of the host's speed.
    pub slices: Vec<Slice>,
    /// Answers checked or calls made, and how many were wrong or `Err`.
    pub attempted: usize,
    pub failed: usize,
    /// Ascending by id; empty unless traced.
    pub spans: Vec<Span>,
}

/// Query latencies come by the ten thousand per window: p99 has hundreds
/// beyond it.
pub const TAIL_QUERIES: f64 = 99.0;
/// A run holds some 600 ticks, or 2,000 first queries that differ from
/// seed to seed in which lazy loads they trigger: p90 is what repeats.
pub const TAIL_TICKS: f64 = 90.0;
pub const TAIL_FIRST_QUERIES: f64 = 90.0;

/// How each loop samples the host: a kernel run takes three quarters of
/// a millisecond, so these spend 1–3% of a window on it, and a slice holds
/// 16 runs and lasts from half a second to a second.
pub const SAMPLE_MEM: Sampling = Sampling { every_ops: 256, runs: 1, per_slice: 16 };
pub const SAMPLE_PAGED: Sampling = Sampling { every_ops: 32, runs: 1, per_slice: 16 };
pub const SAMPLE_TICKS: Sampling = Sampling { every_ops: 1, runs: 1, per_slice: 16 };
pub const SAMPLE_CYCLES: Sampling = Sampling { every_ops: 1, runs: 16, per_slice: 1 };
/// Kernel runs before the first set-up and after each.
pub const SAMPLE_SETUP_RUNS: usize = 16;

/// The end-to-end numbers of a run, over the whole window: each timing
/// divided by the host slowdown of its slice, and as the clock read it.
pub struct Summary {
    /// Ops completed per second of the window's busy time.
    pub ops_per_s: f64,
    /// Median latency over every op of the window.
    pub p50_us: f64,
    /// The tail percentile over every op of the window (or every sample
    /// of the tail population).
    pub tail_us: f64,
    pub raw_ops_per_s: f64,
    pub raw_p50_us: f64,
    pub raw_tail_us: f64,
    /// Busy-time-weighted mean of the slices' slowdowns: raw over adjusted.
    pub host_slowdown: f64,
    pub p50_samples: usize,
    pub tail_samples: usize,
    pub slices: usize,
}

impl Run {
    /// Ops completed in the window.
    pub fn ops(&self) -> usize {
        self.lat_ns.len()
    }

    pub fn summary(&self) -> Summary {
        let ops = self.ops();
        let tail = self.tail_ns.as_ref().unwrap_or(&self.lat_ns);
        let tail_per_op = tail.len() / ops.max(1);
        let (mut lat_adj, mut tail_adj) = (Vec::with_capacity(ops), Vec::with_capacity(tail.len()));
        let (mut busy_ns, mut busy_adj_ns) = (0.0, 0.0);
        let mut begin = 0;
        for slice in &self.slices {
            let slowdown = slice.slowdown;
            let adjust = |ns: &u64| (*ns as f64 / slowdown).round() as u64;
            lat_adj.extend(self.lat_ns[begin..slice.ops_end].iter().map(adjust));
            tail_adj
                .extend(tail[begin * tail_per_op..slice.ops_end * tail_per_op].iter().map(adjust));
            busy_ns += slice.busy_ns as f64;
            busy_adj_ns += slice.busy_ns as f64 / slowdown;
            begin = slice.ops_end;
        }
        let at = |ns: &[u64], p: f64| {
            let mut ns = ns.to_vec();
            ns.sort_unstable();
            percentile(&ns, p) as f64 / 1e3
        };
        let p = self.tail_percentile;
        Summary {
            ops_per_s: begin as f64 * 1e9 / busy_adj_ns.max(1.0),
            p50_us: at(&lat_adj, 50.0),
            tail_us: at(&tail_adj, p),
            raw_ops_per_s: begin as f64 * 1e9 / busy_ns.max(1.0),
            raw_p50_us: at(&self.lat_ns, 50.0),
            raw_tail_us: at(tail, p),
            host_slowdown: if busy_adj_ns > 0.0 { busy_ns / busy_adj_ns } else { 1.0 },
            p50_samples: ops,
            tail_samples: tail.len(),
            slices: self.slices.len(),
        }
    }
}

/// A workload after set-up, ready to run windows.
pub trait Prepared {
    fn run(&mut self, budget: Budget, traced: bool) -> Run;
    /// Bytes of what the workload serves from (`index_mb`).
    fn index_bytes(&self) -> usize;
    /// Brings caches and lazy state to where a steady caller finds them.
    fn warm(&mut self) {}
}

pub struct Ready {
    pub workload: Box<dyn Prepared>,
    /// Median of the complete set-ups, each divided by the host slowdown
    /// read just before and after it; and as the clock read them.
    pub setup_s: f64,
    pub raw_setup_s: f64,
    /// Streams and expected answers: harness time, not set-up.
    pub oracle_s: f64,
}

/// Sets the workload up `setups` times from scratch (keeping the last),
/// then prepares its op stream and expected answers. `corrupt` damages one
/// expected answer, to show that a wrong answer fails the run.
pub fn prepare(name: &str, seed: u64, setups: usize, corrupt: bool) -> Option<Ready> {
    Some(match name {
        metrics::MEM_SERVE => {
            let ((engine, objects), setup) = timed_setups(setups, || {
                let (fw, ad, objects) = build_served(world::serving_world(seed), DEFAULT_THREADS);
                (QueryEngine::new(fw, ad), objects)
            });
            let index_bytes =
                engine.framework().overlay_size_bytes() + engine.directory().size_bytes();
            let net = engine.framework().network();
            let (stream, expected, oracle_s) = stream_and_answers(net, &objects, seed, corrupt);
            let workload = Serving { engine, stream, expected, index_bytes };
            Ready::new(workload, setup, oracle_s)
        }
        metrics::PAGED_SERVE => {
            let ((engine, fw, objects), setup) = timed_setups(setups, || {
                let (fw, ad, objects) = build_served(world::serving_world(seed), DEFAULT_THREADS);
                let engine =
                    PagedEngine::new(&fw, &ad, PagedOptions::with_buffer_pages(POOL_PAGES))
                        .expect("a built framework lays out onto pages");
                (engine, fw, objects)
            });
            let index_bytes = engine.disk_size_bytes();
            let (stream, expected, oracle_s) =
                stream_and_answers(fw.network(), &objects, seed, corrupt);
            let workload = Serving { engine, stream, expected, index_bytes };
            Ready::new(workload, setup, oracle_s)
        }
        metrics::LIVE_MIXED | metrics::LIVE_UPDATE => {
            let mixed = name == metrics::LIVE_MIXED;
            let threads = if mixed { threads_beside_a_reader() } else { DEFAULT_THREADS };
            let (engine, setup) = timed_setups(setups, || {
                let (fw, ad, _) = build_served(world::serving_world(seed), threads);
                LiveEngine::new(fw, ad)
            });
            // The expected answers of a live engine can only be computed
            // after the window: preparation is the streams alone.
            let t = Instant::now();
            let workload = Live::new(engine, seed, mixed, corrupt);
            Ready::new(workload, setup, t.elapsed().as_secs_f64())
        }
        metrics::BUILD_REOPEN => {
            let ((world, image_bytes), setup) = timed_setups(setups, || {
                let world = world::build_world(seed);
                let cycle = build_cycle(&world, &[], &mut Tracer::off(), 0);
                (world, cycle.image_bytes)
            });
            let t = Instant::now();
            let workload = Building::new(world, image_bytes, seed, corrupt);
            Ready::new(workload, setup, t.elapsed().as_secs_f64())
        }
        _ => return None,
    })
}

impl Ready {
    fn new(workload: impl Prepared + 'static, setup: SetupTimes, oracle_s: f64) -> Ready {
        Ready {
            workload: Box::new(workload),
            setup_s: setup.adjusted_s,
            raw_setup_s: setup.raw_s,
            oracle_s,
        }
    }
}

/// Medians over the set-ups of a run.
struct SetupTimes {
    adjusted_s: f64,
    raw_s: f64,
}

/// Runs `setup` `repeats` times, dropping each result before the next
/// starts, and returns the last result with the median set-up time. The
/// host's speed is read before the first set-up and after each; a set-up
/// is adjusted by the mean of the readings on either side of it.
fn timed_setups<T>(repeats: usize, mut setup: impl FnMut() -> T) -> (T, SetupTimes) {
    let mut reference = Reference::new();
    let mut read_host = move || reference.mean(SAMPLE_SETUP_RUNS).slowdown(NOMINAL_BLOCK);
    let (mut raw, mut adjusted) = (Vec::new(), Vec::new());
    let mut last = None;
    let mut before = read_host();
    for _ in 0..repeats.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        let s = t.elapsed().as_secs_f64();
        let after = read_host();
        raw.push(s);
        adjusted.push(s / ((before + after) / 2.0));
        before = after;
    }
    let times = SetupTimes { adjusted_s: median(&adjusted), raw_s: median(&raw) };
    (last.expect("at least one set-up ran"), times)
}

/// Threads the builder's default (`threads: 0`) resolves to: all the host
/// has, which is what users get.
pub const DEFAULT_THREADS: usize = 0;

/// Threads the writer's repair may use while a reader is being served:
/// the reader keeps one hardware thread, so that the workload never runs
/// more threads than the host has.
pub fn threads_beside_a_reader() -> usize {
    crate::hw_threads().saturating_sub(1).max(1)
}

/// Builds the framework for a world and places its objects. `threads` is
/// what shortcut construction and repair fan out over.
pub fn build_served(
    world: World,
    threads: usize,
) -> (RoadFramework, AssociationDirectory, Vec<Object>) {
    let fw = RoadFramework::builder(world.net)
        .fanout(FANOUT)
        .levels(world.levels)
        .shortcut_threads(threads)
        .build()
        .expect("generated worlds are connected and buildable");
    let mut ad = AssociationDirectory::new(fw.hierarchy());
    for o in &world.objects {
        ad.insert(fw.network(), fw.hierarchy(), o.clone()).expect("objects sit on live edges");
    }
    (fw, ad, world.objects)
}

fn stream_and_answers(
    net: &RoadNetwork,
    objects: &[Object],
    seed: u64,
    corrupt: bool,
) -> (Vec<Op>, Vec<Vec<SearchHit>>, f64) {
    let t = Instant::now();
    let stream = world::stream(net, seed, STREAM_LEN);
    let mut expected = Oracle::new(net, objects).answers(&stream);
    if corrupt {
        corrupt_one(&mut expected);
    }
    (stream, expected, t.elapsed().as_secs_f64())
}

/// Makes the first non-empty expected answer wrong.
fn corrupt_one(expected: &mut [Vec<SearchHit>]) {
    if let Some(hits) = expected.iter_mut().find(|hits| !hits.is_empty()) {
        hits.pop();
    }
}

// ---------------------------------------------------------------------
// Serving: mem_serve, paged_serve, and the reader of live_mixed.
// ---------------------------------------------------------------------

/// An engine the serving loop can put a query to.
pub trait Target {
    /// Name of the span around one call.
    const SPAN: &'static str;
    /// How a loop over this engine samples the host.
    const SAMPLING: Sampling;
    fn query(
        &self,
        op: &Op,
        ws: &mut SearchWorkspace,
        hits: &mut Vec<SearchHit>,
    ) -> Result<SearchStats, RoadError>;
}

macro_rules! target {
    ($engine:ty, $span:literal, $sampling:expr) => {
        impl Target for $engine {
            const SPAN: &'static str = $span;
            const SAMPLING: Sampling = $sampling;
            fn query(
                &self,
                op: &Op,
                ws: &mut SearchWorkspace,
                hits: &mut Vec<SearchHit>,
            ) -> Result<SearchStats, RoadError> {
                match &op.query {
                    Query::Knn(q) => self.knn_with(q, ws, hits),
                    Query::Range(q) => self.range_with(q, ws, hits),
                }
            }
        }
    };
}

target!(QueryEngine, "core.engine.query", SAMPLE_MEM);
target!(PagedEngine, "core.paged.query", SAMPLE_PAGED);
target!(Snapshot, "core.live.query", SAMPLE_MEM);

/// A live reader takes the current snapshot for every op, as a caller
/// that wants fresh answers does.
impl Target for LiveEngine {
    const SPAN: &'static str = "core.live.query";
    const SAMPLING: Sampling = SAMPLE_MEM;
    fn query(
        &self,
        op: &Op,
        ws: &mut SearchWorkspace,
        hits: &mut Vec<SearchHit>,
    ) -> Result<SearchStats, RoadError> {
        self.snapshot().query(op, ws, hits)
    }
}

pub struct Serving<E> {
    pub engine: E,
    pub stream: Vec<Op>,
    pub expected: Vec<Vec<SearchHit>>,
    pub index_bytes: usize,
}

pub fn search_counts(s: &SearchStats) -> Vec<(&'static str, u64)> {
    vec![
        ("nodes_settled", s.nodes_settled as u64),
        ("edges_relaxed", s.edges_relaxed as u64),
        ("shortcuts_taken", s.shortcuts_taken as u64),
        ("rnets_bypassed", s.rnets_bypassed as u64),
        ("rnets_descended", s.rnets_descended as u64),
        ("abstract_checks", s.abstract_checks as u64),
        ("objects_read", s.objects_read as u64),
        ("heap_pushes", s.heap_pushes as u64),
        ("pages_read", s.pages_read as u64),
        ("page_faults", s.page_faults as u64),
    ]
}

/// One closed-loop client with a reused workspace, cycling the stream.
/// `expected` holds the right answer per stream op; without it only `Err`
/// counts as a failure. `sample_host` interleaves the reference kernel.
pub fn serve<E: Target>(
    engine: &E,
    stream: &[Op],
    expected: Option<&[Vec<SearchHit>]>,
    budget: Budget,
    sample_host: bool,
    tracer: &mut Tracer,
) -> Run {
    let mut ws = SearchWorkspace::new();
    let mut hits = Vec::new();
    let mut lat_ns = Vec::new();
    let mut failed = 0;
    let mut host = HostSampler::new(sample_host, E::SAMPLING);
    let start = Instant::now();
    loop {
        let i = lat_ns.len();
        if matches!(budget, Budget::Ops(n) if i >= n) {
            break;
        }
        host.before_op(i);
        let at = i % stream.len();
        let root = tracer.root("op", i);
        let call = tracer.begin(E::SPAN, root, i);
        let t0 = Instant::now();
        let result = engine.query(&stream[at], &mut ws, &mut hits);
        let t1 = Instant::now();
        tracer.end_with(call, || result.as_ref().map(search_counts).unwrap_or_default());
        lat_ns.push((t1 - t0).as_nanos() as u64);
        let check = tracer.begin("harness.check", root, i);
        let right = result.is_ok() && expected.is_none_or(|e| hits_match(&hits, &e[at]));
        failed += usize::from(!right);
        tracer.end(check);
        tracer.end(root);
        if matches!(budget, Budget::Time(d) if t1 - start >= d) {
            break;
        }
    }
    Run {
        window_s: start.elapsed().as_secs_f64(),
        attempted: lat_ns.len(),
        slices: host.finish(lat_ns.len()),
        lat_ns,
        tail_ns: None,
        tail_percentile: TAIL_QUERIES,
        failed,
        spans: Vec::new(),
    }
}

fn tracer(traced: bool, epoch: Instant, first_id: u32) -> Tracer {
    if traced {
        Tracer::on(epoch, first_id)
    } else {
        Tracer::off()
    }
}

impl<E: Target> Prepared for Serving<E> {
    fn run(&mut self, budget: Budget, traced: bool) -> Run {
        let mut tracer = tracer(traced, Instant::now(), 0);
        let expected = Some(&self.expected[..]);
        let sample = budget.samples_host();
        let mut run = serve(&self.engine, &self.stream, expected, budget, sample, &mut tracer);
        run.spans = tracer.into_spans();
        run
    }

    fn index_bytes(&self) -> usize {
        self.index_bytes
    }

    fn warm(&mut self) {
        serve(&self.engine, &self.stream, None, Budget::Ops(WARM_OPS), false, &mut Tracer::off());
    }
}

// ---------------------------------------------------------------------
// Live: the paced writer beside a reader, and the writer alone.
// ---------------------------------------------------------------------

/// When tick `i` of an open-loop schedule is due, and what a tick that
/// began and finished at given times cost its user. Times are ns since
/// the schedule started.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    pub interval_ns: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TickTiming {
    /// How long after its due time the tick began: the generator's lag.
    pub late_ns: u64,
    /// Due time to completion: what the update's user waited, including
    /// any wait an earlier stall imposed.
    pub from_due_ns: u64,
    /// Time spent applying the tick.
    pub busy_ns: u64,
}

impl Schedule {
    pub fn due_ns(&self, i: usize) -> u64 {
        self.interval_ns * i as u64
    }

    pub fn timing(&self, i: usize, began_ns: u64, done_ns: u64) -> TickTiming {
        let due = self.due_ns(i);
        TickTiming {
            late_ns: began_ns.saturating_sub(due),
            from_due_ns: done_ns.saturating_sub(due),
            busy_ns: done_ns.saturating_sub(began_ns),
        }
    }

    /// Ticks the schedule holds in `duration_ns`.
    pub fn ticks_in(&self, duration_ns: u64) -> usize {
        (duration_ns / self.interval_ns.max(1)) as usize
    }

    /// Share of ticks that began more than one interval late.
    pub fn late_share(&self, timings: &[TickTiming]) -> f64 {
        let late = timings.iter().filter(|t| t.late_ns > self.interval_ns).count();
        late as f64 / timings.len().max(1) as f64
    }
}

/// The write side of a live engine and the updates it will apply.
struct Writer {
    handle: UpdateHandle,
    ticks: TickStream,
}

pub struct Live {
    live: LiveEngine,
    /// `None` only while the paced writer thread of a mixed run owns it.
    writer: Option<Writer>,
    stream: Vec<Op>,
    mixed: bool,
    index_bytes: usize,
    corrupt: bool,
}

/// Applies one tick: a batch reweight, the object moves, one publish.
fn apply_tick(
    writer: &mut UpdateHandle,
    tick: &Tick,
    tracer: &mut Tracer,
    root: SpanId,
    op: usize,
) -> Result<UpdateOutcome, RoadError> {
    let span = tracer.begin("core.framework.set_edge_weights", root, op);
    let outcome = writer.set_edge_weights(&tick.weights)?;
    tracer.end_with(span, || {
        vec![
            ("rnets_refreshed", outcome.rnets_refreshed as u64),
            ("rnets_changed", outcome.rnets_changed as u64),
        ]
    });
    for &(id, edge, fraction) in &tick.moves {
        let span = tracer.begin("core.association.move_object", root, op);
        writer.move_object(id, edge, fraction)?;
        tracer.end(span);
    }
    let span = tracer.begin("core.live.publish", root, op);
    writer.publish();
    tracer.end(span);
    Ok(outcome)
}

struct Written {
    timings: Vec<TickTiming>,
    slices: Vec<Slice>,
    failed: usize,
    spans: Vec<Span>,
}

/// Applies ticks: open loop on `schedule` (tick `i` waits for its due time
/// and is timed from it), or back to back without one, sampling the host
/// between ticks when the budget is a window.
fn write(
    writer: &mut Writer,
    schedule: Option<Schedule>,
    budget: Budget,
    mut tracer: Tracer,
) -> Written {
    // A paced writer shares the host with the reader, which samples it.
    let mut host = HostSampler::new(schedule.is_none() && budget.samples_host(), SAMPLE_TICKS);
    let start = Instant::now();
    let now_ns = || start.elapsed().as_nanos() as u64;
    let mut timings = Vec::new();
    let mut failed = 0;
    loop {
        let i = timings.len();
        let spent = match budget {
            Budget::Ops(n) => i >= n,
            Budget::Time(d) => start.elapsed() >= d,
        };
        if spent {
            break;
        }
        host.before_op(i);
        let tick = writer.ticks.next_tick();
        if let Some(s) = schedule {
            std::thread::sleep(Duration::from_nanos(s.due_ns(i).saturating_sub(now_ns())));
        }
        let began = now_ns();
        let root = tracer.root("tick", i);
        let outcome = apply_tick(&mut writer.handle, &tick, &mut tracer, root, i);
        let done = now_ns();
        failed += usize::from(outcome.is_err());
        let timing = match schedule {
            Some(s) => s.timing(i, began, done),
            None => TickTiming { late_ns: 0, from_due_ns: done - began, busy_ns: done - began },
        };
        tracer.end_with(root, || {
            vec![("late_ns", timing.late_ns), ("from_due_ns", timing.from_due_ns)]
        });
        timings.push(timing);
    }
    Written { slices: host.finish(timings.len()), timings, failed, spans: tracer.into_spans() }
}

impl Live {
    /// `mixed`: a closed-loop reader beside the paced writer
    /// (`live_mixed`); otherwise the writer alone (`live_update`).
    pub fn new(
        (live, writer): (LiveEngine, UpdateHandle),
        seed: u64,
        mixed: bool,
        corrupt: bool,
    ) -> Live {
        let fw = writer.framework();
        let index_bytes = fw.overlay_size_bytes() + writer.directory().size_bytes();
        let stream = world::stream(fw.network(), seed, STREAM_LEN);
        let ticks = TickStream::new(fw.network(), seed);
        let writer = Some(Writer { handle: writer, ticks });
        Live { live, writer, stream, mixed, index_bytes, corrupt }
    }

    pub fn engine(&self) -> &LiveEngine {
        &self.live
    }

    /// The reader's loop with the writer idle.
    pub fn read_alone(&self, budget: Budget) -> Run {
        serve(&self.live, &self.stream, None, budget, budget.samples_host(), &mut Tracer::off())
    }

    /// Re-checks the head of the stream against an oracle over the
    /// writer's final network and object set; returns `(checked, wrong)`.
    fn final_check(&self) -> (usize, usize) {
        let snapshot = self.live.snapshot();
        let objects: Vec<Object> = snapshot.directory().objects().cloned().collect();
        let mut oracle = Oracle::new(snapshot.framework().network(), &objects);
        let mut ws = SearchWorkspace::new();
        let mut hits = Vec::new();
        let checked = &self.stream[..FINAL_CHECKS.min(self.stream.len())];
        let mut wrong = 0;
        for (i, op) in checked.iter().enumerate() {
            let mut want = oracle.answer(op);
            if self.corrupt && i == 0 {
                want.pop();
            }
            let right = snapshot.query(op, &mut ws, &mut hits).is_ok() && hits_match(&hits, &want);
            wrong += usize::from(!right);
        }
        (checked.len(), wrong)
    }
}

impl Prepared for Live {
    fn run(&mut self, budget: Budget, traced: bool) -> Run {
        let epoch = Instant::now();
        let writer_tracer = tracer(traced, epoch, WRITER_FIRST_SPAN);
        let mut writer = self.writer.take().expect("the writer is home between runs");
        let mut run = if self.mixed {
            // The window is as long as the writer's schedule.
            let schedule = Schedule { interval_ns: TICK_INTERVAL.as_nanos() as u64 };
            let ticks = match budget {
                Budget::Ops(n) => n,
                Budget::Time(d) => schedule.ticks_in(d.as_nanos() as u64),
            };
            let window = Duration::from_nanos(schedule.due_ns(ticks));
            let mut reader_tracer = tracer(traced, epoch, 0);
            // The writer thread owns the write side for the run and hands
            // it back when joined.
            let paced = std::thread::spawn(move || {
                let written = write(&mut writer, Some(schedule), Budget::Ops(ticks), writer_tracer);
                (writer, written)
            });
            let (window, sample) = (Budget::Time(window), budget.samples_host());
            let mut run = serve(&self.live, &self.stream, None, window, sample, &mut reader_tracer);
            let written;
            (writer, written) = paced.join().expect("the writer thread does not panic");
            run.attempted += written.timings.len();
            run.failed += written.failed;
            run.spans = reader_tracer.into_spans();
            run.spans.extend(written.spans);
            run
        } else {
            // An op is a tick.
            let start = Instant::now();
            let written = write(&mut writer, None, budget, writer_tracer);
            Run {
                window_s: start.elapsed().as_secs_f64(),
                lat_ns: written.timings.iter().map(|t| t.busy_ns).collect(),
                tail_ns: None,
                tail_percentile: TAIL_TICKS,
                slices: written.slices,
                attempted: written.timings.len(),
                failed: written.failed,
                spans: written.spans,
            }
        };
        self.writer = Some(writer);
        let (checked, wrong) = self.final_check();
        run.attempted += checked;
        run.failed += wrong;
        run
    }

    fn index_bytes(&self) -> usize {
        self.index_bytes
    }

    fn warm(&mut self) {
        if self.mixed {
            self.read_alone(Budget::Ops(WARM_OPS));
        }
    }
}

/// Tick timings recorded in a traced live run, in tick order.
pub fn tick_timings(spans: &[Span]) -> Vec<TickTiming> {
    let count = |s: &Span, key: &str| s.counts.iter().find(|c| c.0 == key).map_or(0, |c| c.1);
    spans
        .iter()
        .filter(|s| s.name == "tick")
        .map(|s| TickTiming {
            late_ns: count(s, "late_ns"),
            from_due_ns: count(s, "from_due_ns"),
            busy_ns: s.duration_ns(),
        })
        .collect()
}

// ---------------------------------------------------------------------
// build_reopen
// ---------------------------------------------------------------------

pub struct Building {
    world: World,
    first: Vec<Op>,
    expected: Vec<Vec<SearchHit>>,
    image_bytes: usize,
}

pub struct Cycle {
    /// Build through drop, without the network clone and the checks.
    pub total_ns: u64,
    pub first_query_ns: Vec<u64>,
    pub answers: Vec<Result<Vec<SearchHit>, RoadError>>,
    pub image_bytes: usize,
}

/// One cycle: build the framework, persist it, reopen the image page by
/// page, serve the first queries from the lazy engine, drop everything.
pub fn build_cycle(world: &World, first: &[Op], tracer: &mut Tracer, op: usize) -> Cycle {
    let net = world.net.clone();
    let root = tracer.root("cycle", op);
    let t0 = Instant::now();

    let span = tracer.begin("core.framework.build", root, op);
    let fw = RoadFramework::builder(net)
        .fanout(FANOUT)
        .levels(world.levels)
        .build()
        .expect("generated worlds are connected and buildable");
    tracer.end(span);

    let span = tracer.begin("core.persist.to_bytes", root, op);
    let bytes = fw.to_bytes();
    let image_bytes = bytes.len();
    tracer.end(span);

    let span = tracer.begin("core.persist.image_open", root, op);
    let image = PagedImage::open(bytes).expect("a fresh image opens");
    tracer.end(span);

    let span = tracer.begin("core.paged.engine_open", root, op);
    let engine = PagedEngine::open(image, world.objects.clone(), PagedOptions::default())
        .expect("a fresh image lays out onto pages");
    tracer.end(span);

    let span = tracer.begin("first_queries", root, op);
    let mut ws = SearchWorkspace::new();
    let mut hits = Vec::new();
    let mut first_query_ns = Vec::with_capacity(first.len());
    let mut answers = Vec::with_capacity(first.len());
    let mut faults = 0;
    for q in first {
        let q0 = Instant::now();
        let result = engine.query(q, &mut ws, &mut hits);
        first_query_ns.push(q0.elapsed().as_nanos() as u64);
        faults += result.as_ref().map_or(0, |s| s.page_faults as u64);
        answers.push(result.map(|_| hits.clone()));
    }
    let (loaded, rnets) = (engine.rnets_loaded() as u64, engine.hierarchy().num_rnets() as u64);
    tracer.end_with(span, || {
        vec![("page_faults", faults), ("rnets_loaded", loaded), ("rnets", rnets)]
    });

    let span = tracer.begin("drop", root, op);
    drop(engine);
    drop(fw);
    tracer.end(span);

    let total_ns = t0.elapsed().as_nanos() as u64;
    tracer.end(root);
    Cycle { total_ns, first_query_ns, answers, image_bytes }
}

impl Building {
    pub fn new(world: World, image_bytes: usize, seed: u64, corrupt: bool) -> Building {
        let first = world::first_queries(&world.net, seed);
        let mut expected = Oracle::new(&world.net, &world.objects).answers(&first);
        if corrupt {
            corrupt_one(&mut expected);
        }
        Building { world, first, expected, image_bytes }
    }
}

impl Prepared for Building {
    fn run(&mut self, budget: Budget, traced: bool) -> Run {
        let mut tracer = tracer(traced, Instant::now(), 0);
        let mut lat_ns = Vec::new();
        let mut first_ns = Vec::new();
        let (mut attempted, mut failed) = (0, 0);
        // A cycle is a slice: clone, cycle and checks.
        let mut host = HostSampler::new(budget.samples_host(), SAMPLE_CYCLES);
        let start = Instant::now();
        loop {
            let done = match budget {
                Budget::Ops(n) => lat_ns.len() >= n,
                Budget::Time(d) => start.elapsed() >= d,
            };
            if done {
                break;
            }
            host.before_op(lat_ns.len());
            let cycle = build_cycle(&self.world, &self.first, &mut tracer, lat_ns.len());
            lat_ns.push(cycle.total_ns);
            first_ns.extend(cycle.first_query_ns);
            for (got, want) in cycle.answers.iter().zip(&self.expected) {
                attempted += 1;
                failed += usize::from(!got.as_ref().is_ok_and(|hits| hits_match(hits, want)));
            }
        }
        Run {
            window_s: start.elapsed().as_secs_f64(),
            slices: host.finish(lat_ns.len()),
            lat_ns,
            tail_ns: Some(first_ns),
            tail_percentile: TAIL_FIRST_QUERIES,
            attempted,
            failed,
            spans: tracer.into_spans(),
        }
    }

    fn index_bytes(&self) -> usize {
        self.image_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake clock drives the schedule arithmetic the paced writer uses:
    /// a tick begins at its due time, or when the previous one finished.
    fn simulate(schedule: Schedule, busy_ns: &[u64]) -> Vec<TickTiming> {
        let mut free_at = 0;
        busy_ns
            .iter()
            .enumerate()
            .map(|(i, &busy)| {
                let began = schedule.due_ns(i).max(free_at);
                free_at = began + busy;
                schedule.timing(i, began, free_at)
            })
            .collect()
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let s = Schedule { interval_ns: 100 };
        // Tick 1 stalls for 250: ticks 2 and 3 start late and pay for it.
        let t = simulate(s, &[30, 250, 30, 30, 30]);
        assert_eq!(t[0], TickTiming { late_ns: 0, from_due_ns: 30, busy_ns: 30 });
        assert_eq!(t[1], TickTiming { late_ns: 0, from_due_ns: 250, busy_ns: 250 });
        // Due at 200, began at 350.
        assert_eq!(t[2], TickTiming { late_ns: 150, from_due_ns: 180, busy_ns: 30 });
        // Due at 300, began at 380.
        assert_eq!(t[3], TickTiming { late_ns: 80, from_due_ns: 110, busy_ns: 30 });
        // Due at 400, began at 410: the backlog is nearly worked off.
        assert_eq!(t[4], TickTiming { late_ns: 10, from_due_ns: 40, busy_ns: 30 });
        // Only tick 2 began more than one interval late.
        assert!((s.late_share(&t) - 0.2).abs() < 1e-12);
        assert_eq!(s.ticks_in(1_550), 15);
        assert_eq!(s.due_ns(15), 1_500);
    }

    /// A run of slices given as (latencies, busy ns, host slowdown).
    fn run_of(slices: &[(Vec<u64>, u64, f64)], tail_ns: Option<Vec<u64>>) -> Run {
        let mut lat_ns = Vec::new();
        let mut cut = Vec::new();
        for (lat, busy_ns, slowdown) in slices {
            lat_ns.extend(lat);
            cut.push(Slice { ops_end: lat_ns.len(), busy_ns: *busy_ns, slowdown: *slowdown });
        }
        Run {
            window_s: 1.0,
            lat_ns,
            tail_ns,
            tail_percentile: 99.0,
            slices: cut,
            attempted: 0,
            failed: 0,
            spans: Vec::new(),
        }
    }

    /// A host that runs three times slower for one slice in five triples
    /// that slice's timings on the clock; divided by the slowdown read
    /// alongside, the slice looks like the others.
    #[test]
    fn a_slow_slice_is_adjusted_back() {
        let steady: Vec<u64> = (0..1000).map(|i| 1_000 + i % 10).collect();
        let slices: Vec<(Vec<u64>, u64, f64)> = (0..5)
            .map(|slice| {
                let slow = if slice == 2 { 3 } else { 1 };
                (steady.iter().map(|ns| ns * slow).collect(), 1_000_000 * slow, slow as f64)
            })
            .collect();
        let s = run_of(&slices, None).summary();
        assert_eq!(s.slices, 5);
        assert_eq!(s.ops_per_s, 1e6, "1000 ops per adjusted millisecond");
        assert_eq!((s.p50_us, s.tail_us), (1.004, 1.009));
        // On the clock: 5000 ops in 7 ms, and the slow slice is the tail.
        assert_eq!(s.raw_ops_per_s, 5e12 / 7e6);
        assert_eq!((s.raw_p50_us, s.raw_tail_us), (1.006, 3.027));
        assert!((s.host_slowdown - 1.4).abs() < 1e-12);
        assert_eq!((s.p50_samples, s.tail_samples), (5000, 5000));
    }

    #[test]
    fn a_tail_population_of_its_own_follows_its_op_into_the_slice() {
        // Two cycles with three first queries each; the second ran on a
        // host twice as slow.
        let slices = [(vec![500_000], 600_000, 1.0), (vec![1_000_000], 1_200_000, 2.0)];
        let first = vec![100, 200, 300, 200, 400, 600];
        let mut run = run_of(&slices, Some(first));
        run.tail_percentile = 90.0;
        let s = run.summary();
        assert_eq!((s.p50_us, s.raw_p50_us), (500.0, 500.0));
        assert_eq!((s.tail_us, s.raw_tail_us), (0.3, 0.6));
        assert_eq!((s.p50_samples, s.tail_samples), (2, 6));
        assert_eq!(s.ops_per_s, 2e9 / 1.2e6);
        // A probe pass reads nominal speed: adjusted is raw.
        let s = run_of(&[((1..=2000).collect(), 2_000_000, 1.0)], None).summary();
        assert_eq!((s.ops_per_s, s.raw_ops_per_s, s.host_slowdown), (1e6, 1e6, 1.0));
        assert_eq!((s.tail_us, s.raw_tail_us), (1.98, 1.98));
    }

    #[test]
    fn timed_setups_reports_the_median_and_keeps_the_last() {
        let mut n = 0;
        let (last, times) = timed_setups(3, || {
            n += 1;
            n
        });
        assert_eq!((last, n), (3, 3));
        assert!(times.raw_s >= 0.0 && times.adjusted_s >= 0.0);
    }
}
