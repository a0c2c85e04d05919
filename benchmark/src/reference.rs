//! The host-speed reference: a fixed kernel of the benchmark's own, run
//! alongside every timed window, and the sampler that interleaves it.
//!
//! The hosts this runs on are shared: the same binary on the same inputs
//! runs 30–40% slower or faster from one minute to the next, for minutes
//! at a time, so no window that fits the run budget averages it out (see
//! "Measured steadiness" in README.md). What does cancel it is a second
//! measurement that slows down alike. The kernel below does the two things
//! the engines do — a heap-driven graph search over scattered memory, and
//! page-sized copies out of a region larger than the private caches — and
//! nothing from the code under test, so no change to the repo moves it.
//! A window is cut into slices; the mean time of each half of the kernel
//! within a slice, over its nominal time, is how much slower than nominal
//! the host ran that kind of work during the slice, and every timing of
//! the slice is divided by the geometric mean of the two. The raw timings
//! are printed beside the adjusted ones.
//!
//! Run back to back the kernel keeps its graph in the private cache and
//! takes little over half the time it does between ops; set-ups and build
//! cycles are bracketed by blocks of runs and read against a nominal time
//! of their own (`NOMINAL_BLOCK`). Each metric is always read the same way.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// What the two halves of a kernel run, between ops, take on the
/// authoring host in its usual state. Other constants would rescale every
/// timing alike and change no comparison; they are fixed so that adjusted
/// numbers read like raw ones.
pub const NOMINAL: Reading = Reading { search_ns: 580_000.0, copy_ns: 160_000.0 };
/// The same for a block of back-to-back runs.
pub const NOMINAL_BLOCK: Reading = Reading { search_ns: 330_000.0, copy_ns: 95_000.0 };

const SIDE: u32 = 256;
/// Nodes a search settles before it stops.
const SETTLE: usize = 1_500;
const PAGE: usize = 4096;
/// The copied-from region: 8 MB, beyond the private caches.
const REGION_PAGES: usize = 2048;
/// The paper's pool: the copies land in 50 frames.
const FRAMES: usize = 50;
/// Page copies per run: a megabyte read, so that a run between ops
/// leaves most of the private cache to the program.
const COPIES: usize = 256;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

pub struct Reference {
    // A SIDE x SIDE grid in CSR form, node ids scattered so that grid
    // neighbours are not memory neighbours.
    offsets: Vec<u32>,
    targets: Vec<u32>,
    weights: Vec<u32>,
    dist: Vec<u64>,
    /// `dist[n]` is valid for the search numbered `stamp[n]`.
    stamp: Vec<u32>,
    search: u32,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    region: Vec<u8>,
    frames: Vec<u8>,
    rng: u64,
}

impl Reference {
    /// The same kernel in every process: nothing here depends on `--seed`.
    pub fn new() -> Reference {
        let n = (SIDE * SIDE) as usize;
        let mut rng = 0x9E37_79B9_7F4A_7C15;
        let mut id: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            id.swap(i, (xorshift(&mut rng) % (i as u64 + 1)) as usize);
        }
        let mut arcs: Vec<(u32, u32, u32)> = Vec::with_capacity(4 * n);
        for y in 0..SIDE {
            for x in 0..SIDE {
                let a = id[(y * SIDE + x) as usize];
                for (nx, ny) in [(x + 1, y), (x, y + 1)] {
                    if nx < SIDE && ny < SIDE {
                        let b = id[(ny * SIDE + nx) as usize];
                        let w = (xorshift(&mut rng) % 1000) as u32 + 1;
                        arcs.push((a, b, w));
                        arcs.push((b, a, w));
                    }
                }
            }
        }
        arcs.sort_unstable();
        let mut offsets = vec![0u32; n + 1];
        for &(a, _, _) in &arcs {
            offsets[a as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        Reference {
            offsets,
            targets: arcs.iter().map(|a| a.1).collect(),
            weights: arcs.iter().map(|a| a.2).collect(),
            dist: vec![0; n],
            stamp: vec![0; n],
            search: 0,
            heap: BinaryHeap::new(),
            region: (0..REGION_PAGES * PAGE).map(|i| i as u8).collect(),
            frames: vec![0; FRAMES * PAGE],
            rng,
        }
    }

    /// One run: a bounded search from the next source, then the page
    /// copies, each timed.
    pub fn run(&mut self) -> Reading {
        let t0 = Instant::now();
        let mut sum = self.search_once();
        let t1 = Instant::now();
        for k in 0..COPIES {
            let r = xorshift(&mut self.rng);
            let from = (r % REGION_PAGES as u64) as usize * PAGE;
            let to = (k % FRAMES) * PAGE;
            self.frames[to..to + PAGE].copy_from_slice(&self.region[from..from + PAGE]);
            sum += u64::from(self.frames[to + (r >> 52) as usize]);
        }
        std::hint::black_box(sum);
        Reading { search_ns: (t1 - t0).as_nanos() as f64, copy_ns: t1.elapsed().as_nanos() as f64 }
    }

    fn search_once(&mut self) -> u64 {
        let source = (xorshift(&mut self.rng) % self.dist.len() as u64) as u32;
        self.search += 1;
        self.heap.clear();
        self.dist[source as usize] = 0;
        self.stamp[source as usize] = self.search;
        self.heap.push(Reverse((0, source)));
        let (mut settled, mut sum) = (0, 0);
        while let Some(Reverse((d, u))) = self.heap.pop() {
            if d > self.dist[u as usize] {
                continue;
            }
            settled += 1;
            sum += d;
            if settled == SETTLE {
                break;
            }
            for e in self.offsets[u as usize] as usize..self.offsets[u as usize + 1] as usize {
                let v = self.targets[e] as usize;
                let through = d + u64::from(self.weights[e]);
                if self.stamp[v] != self.search || through < self.dist[v] {
                    self.stamp[v] = self.search;
                    self.dist[v] = through;
                    self.heap.push(Reverse((through, v as u32)));
                }
            }
        }
        sum
    }

    /// Mean of `runs` back-to-back runs.
    pub fn mean(&mut self, runs: usize) -> Reading {
        let mut sum = Reading::default();
        for _ in 0..runs {
            sum.add(self.run());
        }
        sum.over(runs)
    }
}

/// Time of the two halves of the kernel: one run, a sum or a mean.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Reading {
    pub search_ns: f64,
    pub copy_ns: f64,
}

impl Reading {
    fn add(&mut self, other: Reading) {
        self.search_ns += other.search_ns;
        self.copy_ns += other.copy_ns;
    }

    fn over(self, runs: usize) -> Reading {
        let n = runs.max(1) as f64;
        Reading { search_ns: self.search_ns / n, copy_ns: self.copy_ns / n }
    }

    /// How much slower than `nominal` the host ran: the geometric mean of
    /// the two halves' slowdowns. Timings are divided by it.
    pub fn slowdown(self, nominal: Reading) -> f64 {
        (self.search_ns / nominal.search_ns * self.copy_ns / nominal.copy_ns).sqrt()
    }
}

/// A stretch of a measured loop with one reading of the host's speed.
#[derive(Clone, Debug, PartialEq)]
pub struct Slice {
    /// Ops completed when the slice closed; it began where the one
    /// before it closed.
    pub ops_end: usize,
    /// Wall time of the slice without the kernel runs: ops, answer
    /// checks, and tracing when it is on.
    pub busy_ns: u64,
    /// How much slower than nominal the kernel runs made during the slice
    /// were, on average; 1 when the kernel is off.
    pub slowdown: f64,
}

/// How often a loop samples the host.
#[derive(Clone, Copy, Debug)]
pub struct Sampling {
    /// A sample is taken before every op whose index divides by this.
    pub every_ops: usize,
    /// Kernel runs per sample; more than one is a block, read against
    /// `NOMINAL_BLOCK`.
    pub runs: usize,
    /// Samples per slice.
    pub per_slice: usize,
}

/// Cuts a loop into slices. With the kernel on it runs between ops, off
/// the op timers; off (the fixed-op probe passes, whose timings stay raw)
/// every slice reads nominal speed.
pub struct HostSampler {
    reference: Option<Reference>,
    sampling: Sampling,
    resumed: Instant,
    busy_ns: u64,
    readings: Reading,
    runs: usize,
    samples: usize,
    slices: Vec<Slice>,
}

impl HostSampler {
    pub fn new(on: bool, sampling: Sampling) -> HostSampler {
        HostSampler {
            reference: on.then(Reference::new),
            sampling,
            busy_ns: 0,
            readings: Reading::default(),
            runs: 0,
            samples: 0,
            slices: Vec::new(),
            // Last: building the kernel is not the loop's time.
            resumed: Instant::now(),
        }
    }

    /// Call before op `i` of the loop.
    pub fn before_op(&mut self, i: usize) {
        if !i.is_multiple_of(self.sampling.every_ops) {
            return;
        }
        self.busy_ns += self.resumed.elapsed().as_nanos() as u64;
        if self.samples == self.sampling.per_slice {
            self.close(i);
        }
        if let Some(reference) = &mut self.reference {
            for _ in 0..self.sampling.runs {
                self.readings.add(reference.run());
            }
            self.runs += self.sampling.runs;
        }
        self.samples += 1;
        self.resumed = Instant::now();
    }

    fn close(&mut self, ops_end: usize) {
        let nominal = if self.sampling.runs > 1 { NOMINAL_BLOCK } else { NOMINAL };
        let slowdown = match self.runs {
            0 => 1.0,
            runs => self.readings.over(runs).slowdown(nominal),
        };
        self.slices.push(Slice { ops_end, busy_ns: self.busy_ns, slowdown });
        (self.busy_ns, self.readings, self.runs, self.samples) = (0, Reading::default(), 0, 0);
    }

    /// Closes the last slice after `ops` ops and returns them all.
    pub fn finish(mut self, ops: usize) -> Vec<Slice> {
        self.busy_ns += self.resumed.elapsed().as_nanos() as u64;
        if self.slices.last().map_or(0, |s| s.ops_end) < ops {
            self.close(ops);
        }
        self.slices
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_the_same_work_in_every_process() {
        let (mut a, mut b) = (Reference::new(), Reference::new());
        assert_eq!(a.offsets.len(), (SIDE * SIDE) as usize + 1);
        assert_eq!(a.targets.len(), 4 * (SIDE * (SIDE - 1)) as usize);
        for _ in 0..3 {
            // Same sources, same distances, whatever the time taken.
            assert_eq!(a.search_once(), b.search_once());
            assert_eq!(a.rng, b.rng);
        }
        let once = a.run();
        assert!(once.search_ns > 0.0 && once.copy_ns > 0.0);
        assert_eq!(NOMINAL.slowdown(NOMINAL), 1.0);
        let twice = Reading { search_ns: 4.0 * NOMINAL.search_ns, copy_ns: NOMINAL.copy_ns };
        assert_eq!(twice.slowdown(NOMINAL), 2.0);
    }

    #[test]
    fn sampler_cuts_slices_and_reads_nominal_when_off() {
        let sampling = Sampling { every_ops: 4, runs: 1, per_slice: 2 };
        let mut off = HostSampler::new(false, sampling);
        for i in 0..19 {
            off.before_op(i);
        }
        let slices = off.finish(19);
        // Samples before ops 0, 4, 8, ...: a slice closes every two.
        assert_eq!(slices.iter().map(|s| s.ops_end).collect::<Vec<_>>(), [8, 16, 19]);
        assert!(slices.iter().all(|s| s.slowdown == 1.0));

        let mut on = HostSampler::new(true, sampling);
        for i in 0..8 {
            on.before_op(i);
        }
        let slices = on.finish(8);
        assert_eq!(slices.len(), 1);
        assert!(slices[0].slowdown > 0.0 && slices[0].slowdown != 1.0);
        // No ops, no slice.
        assert!(HostSampler::new(false, sampling).finish(0).is_empty());
    }
}
