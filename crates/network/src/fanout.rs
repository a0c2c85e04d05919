//! The workspace's thread fan-outs.
//!
//! A parallel build must store the bytes a one-thread build stores, so no
//! result may be consumed in the order threads happen to finish.
//! [`fan_out`] runs one job per scoped thread and hands the results back by
//! job index, whatever the completion order: a caller that commits them in
//! that order is independent of scheduling. [`WarmWorkers`] keeps the same
//! contract over threads that are spawned once and then parked between
//! runs, for a caller that fans out many times a second on owned inputs.
//! `clippy.toml` disallows `std::thread::scope`, `std::thread::spawn` and
//! `std::thread::Builder::spawn` everywhere else.
//!
//! [`Plan`] is the work such threads share when the jobs depend on each
//! other: a forest of tasks in which a parent waits for its own children
//! and nothing else. Every thread runs the same drain loop, and the results
//! land by task index too.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, Sender};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

/// Runs `work` on every job — the first on the calling thread, each other
/// on a scoped thread of its own — and returns the results in job order.
/// One job spawns nothing.
///
/// Every thread is joined before anything is returned. When jobs panic,
/// the result is the panic payload of the lowest-index one; an infallible
/// caller re-raises it with [`std::panic::resume_unwind`].
pub fn fan_out<J: Send, T: Send>(
    jobs: impl IntoIterator<Item = J>,
    work: impl Fn(J) -> T + Sync,
) -> std::thread::Result<Vec<T>> {
    let mut jobs = jobs.into_iter();
    let Some(first) = jobs.next() else { return Ok(Vec::new()) };
    let work = &work;
    #[expect(
        clippy::disallowed_methods,
        reason = "the one fan-out: results are joined in spawn order, never in completion order"
    )]
    let results: Vec<std::thread::Result<T>> = std::thread::scope(|scope| {
        let spawned: Vec<_> = jobs.map(|job| scope.spawn(move || work(job))).collect();
        let own = catch_unwind(AssertUnwindSafe(|| work(first)));
        std::iter::once(own).chain(spawned.into_iter().map(|handle| handle.join())).collect()
    });
    results.into_iter().collect()
}

/// A job on its way to a worker: its index, the job, and where the result
/// goes back.
type Task<J, T> = (usize, J, Sender<Reply<T>>);

/// A job's index and its result, or the payload it panicked with.
type Reply<T> = (usize, std::thread::Result<T>);

/// Parked worker threads that run [`fan_out`]'s contract over and over:
/// each [`WarmWorkers::run`] runs its first job on the calling thread and
/// job `i` on worker `i - 1`, and returns the results by job index.
///
/// A worker is spawned the first time a run has a job for it and parks on
/// its channel between runs; it owns a state `S` (made with
/// `S::default()` on the worker's own thread) that every job it runs is
/// handed, so scratch buffers stay warm on the thread that uses them.
/// `work` takes each job by value, so whatever a job owns is dropped
/// before its result is sent back. A worker whose job panicked is joined
/// and replaced by a fresh one when a later run needs it; dropping the
/// pool joins every worker. Handing jobs over and results back goes
/// through channels: no lock is taken.
pub struct WarmWorkers<S, J, T> {
    work: fn(&mut S, J) -> T,
    workers: Vec<Worker<J, T>>,
}

/// A shared reference reaches nothing a panic could leave half-updated:
/// every method that touches the workers takes `&mut self`, so a
/// framework that holds a pool stays as unwind-safe as it was.
impl<S, J, T> std::panic::RefUnwindSafe for WarmWorkers<S, J, T> {}

/// One parked thread and the channel it takes its tasks from.
struct Worker<J, T> {
    tasks: Sender<Task<J, T>>,
    thread: JoinHandle<()>,
}

impl<S, J, T> WarmWorkers<S, J, T>
where
    S: Default + 'static,
    J: Send + 'static,
    T: Send + 'static,
{
    /// A pool that runs `work` and has no thread yet.
    pub fn new(work: fn(&mut S, J) -> T) -> Self {
        WarmWorkers { work, workers: Vec::new() }
    }

    /// How many worker threads are parked: the calling thread not counted.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Runs `work` on every job — the first on the calling thread with
    /// `own` as its state, job `i` on worker `i - 1` — and returns the
    /// results in job order. One job spawns and wakes nothing.
    ///
    /// Every job has ended before anything is returned. When jobs panic,
    /// the result is the panic payload of the lowest-index one, as from
    /// [`fan_out`].
    pub fn run(
        &mut self,
        own: &mut S,
        jobs: impl IntoIterator<Item = J>,
    ) -> std::thread::Result<Vec<T>> {
        let mut jobs = jobs.into_iter();
        let Some(first) = jobs.next() else { return Ok(Vec::new()) };
        let (reply, replies) = mpsc::channel();
        let mut results: Vec<Option<std::thread::Result<T>>> = vec![None];
        for (k, job) in jobs.enumerate() {
            if k == self.workers.len() {
                self.workers.push(Worker::spawn(self.work));
            }
            // A worker ends only after a panic, and is removed below; a
            // closed channel would leave the slot empty, read as a panic.
            let sent = self.workers[k].tasks.send((k + 1, job, reply.clone())).is_ok();
            results.push(None);
            debug_assert!(sent, "worker {k} had ended before its job was sent");
        }
        drop(reply);
        results[0] = Some(catch_unwind(AssertUnwindSafe(|| (self.work)(own, first))));
        for (index, result) in replies {
            results[index] = Some(result);
        }
        // A job that sent nothing back ended its worker without replying.
        let results: Vec<std::thread::Result<T>> = results
            .into_iter()
            .map(|r| r.unwrap_or_else(|| Err(Box::new("a worker ended without replying"))))
            .collect();
        for k in (1..results.len()).rev() {
            if results[k].is_err() {
                self.workers.remove(k - 1).join();
            }
        }
        results.into_iter().collect()
    }
}

impl<J: Send + 'static, T: Send + 'static> Worker<J, T> {
    /// Spawns a worker that runs `work` on each task it is sent, against a
    /// state of its own, until its channel closes or a job panics.
    #[expect(
        clippy::disallowed_methods,
        reason = "the one long-lived thread: its results go back by job index, never in completion order"
    )]
    fn spawn<S: Default + 'static>(work: fn(&mut S, J) -> T) -> Self {
        let (tasks, inbox) = mpsc::channel::<Task<J, T>>();
        let thread = std::thread::spawn(move || {
            let mut state = S::default();
            for (index, job, reply) in inbox {
                let result = catch_unwind(AssertUnwindSafe(|| work(&mut state, job)));
                let panicked = result.is_err();
                // A state a job panicked in is not trusted with another.
                if reply.send((index, result)).is_err() || panicked {
                    break;
                }
            }
        });
        Worker { tasks, thread }
    }
}

impl<J, T> Worker<J, T> {
    /// Closes the worker's channel and waits for its thread to end.
    fn join(self) {
        drop(self.tasks);
        #[allow(
            clippy::let_underscore_must_use,
            reason = "the thread runs every job under catch_unwind, so there is no panic to re-raise, and Drop must not panic"
        )]
        let _ = self.thread.join();
    }
}

impl<S, J, T> Drop for WarmWorkers<S, J, T> {
    /// Closes each worker's channel and joins it.
    fn drop(&mut self) {
        for worker in self.workers.drain(..) {
            worker.join();
        }
    }
}

/// One task of a [`Plan`].
#[derive(Clone, Copy, Debug)]
pub struct PlanTask {
    /// The task that waits for this one, if any; its index must be higher
    /// than this task's own, which makes the plan a forest.
    pub parent: Option<usize>,
    /// Whether the task runs whatever its children return. A task that is
    /// not forced runs only if one of its children ran and changed.
    pub forced: bool,
}

/// A forest of tasks that any number of threads drain together, each of
/// them calling [`Plan::drain`]: a parent waits for its own children, and
/// nothing else waits for anything.
///
/// A task is *ready* once its last child has ended. A forced task then
/// runs; a task that is not forced runs only if one of its children ran
/// and reported a change, and is otherwise skipped, which its own parent
/// reads as "unchanged". The first thread takes the ready task of lowest
/// index, every other thread the one of highest index: alone, the first
/// thread runs the tasks in index order, which never waits, a parent's
/// index being above its children's; beside a second, each takes a
/// contiguous run of indices from its own end, so what each one allocates
/// for its tasks lies together, as a level split into two halves did.
/// Each result lands in the slot of its task index,
/// readable by the parent without a lock once the task has ended, so the
/// results, like [`fan_out`]'s, do not depend on which thread ran what.
pub struct Plan<T> {
    shape: Shape,
    /// Tasks without a task child: the most that can ever run at once.
    width: usize,
    /// Each task's result and whether it changed, once it ran.
    results: Vec<OnceLock<(T, bool)>>,
    progress: Mutex<Progress>,
    /// Signalled when a task becomes ready for a waiting thread, when the
    /// last task ends, and when a task panics.
    released: Condvar,
}

/// What a plan knows of its tasks before it runs, by task index.
struct Shape {
    /// Each task's parent; [`ROOT`] for none.
    parent: Vec<usize>,
    forced: Vec<bool>,
}

/// What a plan's threads share under its lock.
struct Progress {
    /// Ready tasks, by index.
    ready: BTreeSet<usize>,
    /// Per task, its children that have not ended yet.
    children_left: Vec<u32>,
    /// Per task, whether a child ran and changed.
    child_changed: Vec<bool>,
    /// Tasks that have neither run nor been skipped.
    open: usize,
    /// A task panicked: every thread leaves.
    aborted: bool,
}

/// The `Err` of [`Plan::drain`] on a thread that saw another thread's task
/// panic: that thread re-raises the panic, this one only stops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Aborted;

/// No parent.
const ROOT: usize = usize::MAX;

/// Why a plan's lock is never poisoned: a task runs outside it, and
/// nothing done under it panics.
const UNPOISONED: &str = "a plan's lock is held only by its own bookkeeping, which does not panic";

impl<T: Send + Sync> Plan<T> {
    /// The plan over `tasks`, task `i` being the `i`-th.
    ///
    /// # Panics
    /// Panics when a task's parent index is not above its own, or is out
    /// of range.
    pub fn new(tasks: impl IntoIterator<Item = PlanTask>) -> Self {
        let tasks: Vec<PlanTask> = tasks.into_iter().collect();
        let n = tasks.len();
        let mut parent = vec![ROOT; n];
        let mut children_left = vec![0u32; n];
        for (i, task) in tasks.iter().enumerate() {
            if let Some(p) = task.parent {
                assert!(i < p && p < n, "task {i}'s parent {p} is not a later task of {n}");
                parent[i] = p;
                children_left[p] += 1;
            }
        }
        let shape = Shape { parent, forced: tasks.iter().map(|t| t.forced).collect() };
        let starts: Vec<usize> = (0..n).filter(|&i| children_left[i] == 0).collect();
        let mut progress = Progress {
            ready: BTreeSet::new(),
            children_left,
            child_changed: vec![false; n],
            open: n,
            aborted: false,
        };
        // A childless task that is not forced has no child to change: it
        // is skipped before anything runs.
        for &task in &starts {
            if shape.forced[task] {
                progress.ready.insert(task);
            } else {
                shape.end(&mut progress, task, false);
            }
        }
        Plan {
            shape,
            width: starts.len(),
            results: (0..n).map(|_| OnceLock::new()).collect(),
            progress: Mutex::new(progress),
            released: Condvar::new(),
        }
    }

    /// The most tasks that can ever run at once: those with no task child.
    /// Tasks running at the same time are never ancestor and descendant, so
    /// each holds a childless task of its own in its subtree. More threads
    /// than this only wait.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Task `task`'s result and whether it changed, once it has run; `None`
    /// before, and for good when it was skipped. A task's children have all
    /// ended before it starts, so its own work may read theirs.
    pub fn result(&self, task: usize) -> Option<&(T, bool)> {
        self.results.get(task).and_then(OnceLock::get)
    }

    /// Every task's result and whether it changed, by task index: `None`
    /// where a task was skipped (or, after a panic, never ran).
    pub fn into_results(self) -> Vec<Option<(T, bool)>> {
        self.results.into_iter().map(OnceLock::into_inner).collect()
    }

    /// Runs ready tasks on the calling thread until every task has run or
    /// been skipped: `work(task)` returns the task's result and whether it
    /// changed. `thread` is the caller's index among the threads draining
    /// the plan: thread 0 takes the lowest ready index, any other the
    /// highest. Waits while nothing is ready and other threads still run
    /// tasks.
    ///
    /// A task that panics ends the run: the panic is re-raised on its own
    /// thread once every other thread has been told, and each other
    /// thread's `drain` returns `Err(Aborted)` as soon as its own task, if
    /// it has one, ends. No thread is left waiting for a task that will
    /// never become ready.
    pub fn drain(
        &self,
        thread: usize,
        mut work: impl FnMut(usize) -> (T, bool),
    ) -> Result<(), Aborted> {
        let mut progress = self.lock();
        loop {
            if progress.aborted {
                return Err(Aborted);
            }
            let next =
                if thread == 0 { progress.ready.pop_first() } else { progress.ready.pop_last() };
            let Some(task) = next else {
                if progress.open == 0 {
                    return Ok(());
                }
                progress = self.released.wait(progress).expect(UNPOISONED);
                continue;
            };
            drop(progress);
            let (value, changed) = match catch_unwind(AssertUnwindSafe(|| work(task))) {
                Ok(done) => done,
                Err(payload) => {
                    self.lock().aborted = true;
                    self.released.notify_all();
                    resume_unwind(payload);
                }
            };
            self.results[task].get_or_init(|| (value, changed));
            progress = self.lock();
            self.shape.end(&mut progress, task, changed);
            if progress.open == 0 {
                self.released.notify_all();
            } else if progress.ready.len() > 1 {
                // This thread takes one ready task itself; a waiting thread
                // is woken only for another.
                self.released.notify_one();
            }
        }
    }

    /// The shared progress.
    fn lock(&self) -> MutexGuard<'_, Progress> {
        self.progress.lock().expect(UNPOISONED)
    }
}

impl Shape {
    /// `task` has ended, `changed` or not: tells its parent, and when this
    /// was its last child, the parent becomes ready if it is forced or a
    /// child changed, and is skipped — ended unchanged — otherwise, which
    /// its own parent is told in turn, and so on up the tree.
    fn end(&self, progress: &mut Progress, mut task: usize, mut changed: bool) {
        loop {
            progress.open -= 1;
            let parent = self.parent[task];
            if parent == ROOT {
                return;
            }
            progress.child_changed[parent] |= changed;
            progress.children_left[parent] -= 1;
            if progress.children_left[parent] > 0 {
                return;
            }
            if self.forced[parent] || progress.child_changed[parent] {
                progress.ready.insert(parent);
                return;
            }
            (task, changed) = (parent, false);
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "the scheduler's tests order and stamp racing jobs with atomics on purpose"
)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Job `i` of `n` waits until every job above it has finished, so the
    /// jobs finish in reverse index order; the results still land by index.
    #[test]
    fn results_land_by_index_when_jobs_finish_in_reverse() {
        let n = 4;
        let finished = AtomicUsize::new(0);
        let order = std::sync::Mutex::new(Vec::new());
        let out = fan_out(0..n, |i| {
            while finished.load(Ordering::Acquire) != n - 1 - i {
                std::thread::yield_now();
            }
            order.lock().unwrap().push(i);
            finished.fetch_add(1, Ordering::Release);
            i * 10
        })
        .unwrap();
        assert_eq!(*order.lock().unwrap(), [3, 2, 1, 0], "the jobs did not finish in reverse");
        assert_eq!(out, [0, 10, 20, 30]);
    }

    #[test]
    fn one_job_runs_on_the_calling_thread_and_none_runs_nothing() {
        let caller = std::thread::current().id();
        assert_eq!(fan_out([7], |x| (x, std::thread::current().id())).unwrap(), [(7, caller)]);
        assert!(fan_out(std::iter::empty::<u8>(), |x| x).unwrap().is_empty());
    }

    /// A panicking job, on the calling thread or a spawned one, comes back
    /// as the `Err` of the lowest panicking index, after every job ran.
    #[test]
    fn a_panicking_job_comes_back_as_an_err() {
        for bad in [0, 2] {
            let ran = AtomicUsize::new(0);
            let got = fan_out(0..4, |i| {
                ran.fetch_add(1, Ordering::Relaxed);
                if i >= bad && i % 2 == 0 {
                    panic!("job {i}");
                }
                i
            });
            let payload = got.expect_err("a job panicked");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some(&*format!("job {bad}"))
            );
            assert_eq!(ran.load(Ordering::Relaxed), 4);
        }
    }

    use std::sync::{Arc, Mutex};
    use std::thread::ThreadId;

    /// A job of the worker tests: its index, what it waits for and where
    /// it reports.
    struct Job {
        i: usize,
        n: usize,
        finished: Arc<AtomicUsize>,
        order: Arc<Mutex<Vec<usize>>>,
    }

    /// The worker test's `work`: job `i` of `n` waits until every job
    /// above it has finished, then answers `i * 10` and the thread it ran
    /// on.
    fn in_reverse(_: &mut (), job: Job) -> (usize, ThreadId) {
        while job.finished.load(Ordering::Acquire) != job.n - 1 - job.i {
            std::thread::yield_now();
        }
        job.order.lock().unwrap().push(job.i);
        job.finished.fetch_add(1, Ordering::Release);
        (job.i * 10, std::thread::current().id())
    }

    /// The jobs finish in reverse index order and the results still land
    /// by index, twice over the same parked threads: the second run spawns
    /// nothing and hands job `i` to the thread that ran it the first time.
    #[test]
    fn warm_results_land_by_index_when_jobs_finish_in_reverse() {
        let n = 4;
        let mut workers = WarmWorkers::new(in_reverse);
        let mut ran_on = Vec::new();
        for _ in 0..2 {
            let (finished, order) = (Arc::new(AtomicUsize::new(0)), Arc::default());
            let jobs = (0..n).map(|i| Job {
                i,
                n,
                finished: Arc::clone(&finished),
                order: Arc::clone(&order),
            });
            let out = workers.run(&mut (), jobs).unwrap();
            assert_eq!(*order.lock().unwrap(), [3, 2, 1, 0], "the jobs did not finish in reverse");
            assert_eq!(out.iter().map(|&(x, _)| x).collect::<Vec<_>>(), [0, 10, 20, 30]);
            assert_eq!(out[0].1, std::thread::current().id(), "job 0 runs on the caller");
            ran_on.push(out.into_iter().map(|(_, id)| id).collect::<Vec<_>>());
            assert_eq!(workers.threads(), n - 1);
        }
        assert_eq!(ran_on[0], ran_on[1], "a run spawned or reshuffled its threads");
    }

    #[test]
    fn warm_one_job_runs_on_the_calling_thread_and_none_runs_nothing() {
        let caller = std::thread::current().id();
        let mut workers = WarmWorkers::new(|seen: &mut u8, x: u8| {
            *seen += 1;
            (x, std::thread::current().id())
        });
        let mut own = 0;
        assert_eq!(workers.run(&mut own, [7]).unwrap(), [(7, caller)]);
        assert!(workers.run(&mut own, std::iter::empty()).unwrap().is_empty());
        assert_eq!((own, workers.threads()), (1, 0), "one job or none spawned a thread");
    }

    /// A job of the panic test: its index, the lowest index that panics,
    /// and the log every job enters its index and thread in.
    type PanicJob = (usize, usize, Arc<Mutex<Vec<(usize, ThreadId)>>>);

    /// Panics on every even index from `bad` up; otherwise answers the
    /// index, the thread and how many jobs this thread's state has seen.
    fn even_from(seen: &mut usize, (i, bad, log): PanicJob) -> (usize, ThreadId, usize) {
        *seen += 1;
        log.lock().unwrap().push((i, std::thread::current().id()));
        if i >= bad && i % 2 == 0 {
            panic!("job {i}");
        }
        (i, std::thread::current().id(), *seen)
    }

    /// A panicking job, on the calling thread or a worker, comes back as
    /// the `Err` of the lowest panicking index, after every job ran; a
    /// worker whose job panicked is joined, and the next run that needs
    /// it gets a fresh thread with a fresh state.
    #[test]
    fn a_panicking_warm_job_comes_back_as_an_err_and_its_worker_is_replaced() {
        for bad in [0, 2] {
            let mut workers = WarmWorkers::new(even_from);
            let log = Arc::new(Mutex::new(Vec::new()));
            let mut own = 0;
            let got = workers.run(&mut own, (0..4).map(|i| (i, bad, Arc::clone(&log))));
            let payload = got.expect_err("a job panicked");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some(&*format!("job {bad}"))
            );
            let mut log = std::mem::take(&mut *log.lock().unwrap());
            log.sort_by_key(|&(i, _)| i);
            assert_eq!(log.iter().map(|&(i, _)| i).collect::<Vec<_>>(), [0, 1, 2, 3]);
            // Job 2 panicked on worker 1 in both cases; workers 0 and 2 stay.
            let dead = log[2].1;
            assert_eq!(workers.threads(), 2);
            let out = workers.run(&mut own, (0..4).map(|i| (i, usize::MAX, Arc::default())));
            let out = out.expect("no job panics");
            assert_eq!(out.iter().map(|&(i, ..)| i).collect::<Vec<_>>(), [0, 1, 2, 3]);
            assert!(out.iter().all(|&(_, id, _)| id != dead), "a panicked worker ran again");
            // Two warm workers ran their second job; the third is new.
            assert_eq!(out.iter().map(|&(.., seen)| seen).skip(1).collect::<Vec<_>>(), [2, 2, 1]);
            assert_eq!(workers.threads(), 3);
        }
    }

    /// Two jobs of one run that wait for each other at a barrier both
    /// finish: the run's jobs run at once, on two threads. A plan's drain
    /// loops rely on it — the caller's may wait for a task a worker's
    /// releases.
    #[test]
    fn two_jobs_of_one_warm_run_meet_at_a_barrier() {
        let mut workers = WarmWorkers::new(|_: &mut (), barrier: Arc<std::sync::Barrier>| {
            barrier.wait();
            std::thread::current().id()
        });
        for _ in 0..2 {
            let barrier = Arc::new(std::sync::Barrier::new(2));
            let out = workers.run(&mut (), [Arc::clone(&barrier), barrier]).unwrap();
            assert_ne!(out[0], out[1], "the two jobs ran on one thread");
        }
    }

    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// A synthetic plan's tasks and what its work records: task `i`'s value
    /// is `i + 1` plus ten times the sum of its ran children's values, and
    /// it reports the change flag drawn for it.
    struct Forest {
        tasks: Vec<PlanTask>,
        children: Vec<Vec<usize>>,
        changes: Vec<bool>,
        /// A sequence clock, and each task's stamps when it started and
        /// ended (`0` = never).
        clock: AtomicUsize,
        started: Vec<AtomicUsize>,
        ended: Vec<AtomicUsize>,
    }

    impl Forest {
        fn new(tasks: Vec<PlanTask>, changes: Vec<bool>) -> Self {
            let mut children = vec![Vec::new(); tasks.len()];
            for (i, t) in tasks.iter().enumerate() {
                if let Some(p) = t.parent {
                    children[p].push(i);
                }
            }
            let stamps = || (0..tasks.len()).map(|_| AtomicUsize::new(0)).collect();
            Forest {
                children,
                changes,
                clock: AtomicUsize::new(0),
                started: stamps(),
                ended: stamps(),
                tasks,
            }
        }

        /// A random forest of up to 64 tasks at `rng`'s parents, forced
        /// flags and change flags.
        fn random(rng: &mut StdRng) -> Self {
            let n = rng.random_range(1..=64usize);
            let tasks = (0..n)
                .map(|i| PlanTask {
                    parent: (i + 1 < n && rng.random_bool(0.8))
                        .then(|| rng.random_range(i + 1..n.min(i + 6))),
                    forced: rng.random_bool(0.4),
                })
                .collect();
            let changes = (0..n).map(|_| rng.random_bool(0.5)).collect();
            Forest::new(tasks, changes)
        }

        fn tick(&self) -> usize {
            self.clock.fetch_add(1, Ordering::SeqCst) + 1
        }

        /// Task `task`'s work over `plan`.
        fn work(&self, plan: &Plan<u64>, task: usize) -> (u64, bool) {
            self.started[task].store(self.tick(), Ordering::SeqCst);
            let below: u64 = self.children[task]
                .iter()
                .map(|&c| plan.result(c).map_or(0, |&(v, _)| v))
                .fold(0, u64::wrapping_add);
            let value = (task as u64 + 1).wrapping_add(below.wrapping_mul(10));
            self.ended[task].store(self.tick(), Ordering::SeqCst);
            (value, self.changes[task])
        }

        /// Runs a plan of the forest on `threads` threads; returns the
        /// results and, after checking that every task started after its
        /// last child ended, nothing else.
        fn run(&self, threads: usize) -> Vec<Option<(u64, bool)>> {
            let plan = Plan::new(self.tasks.iter().copied());
            let drained = fan_out(0..threads, |t| plan.drain(t, |task| self.work(&plan, task)));
            assert!(drained.unwrap().iter().all(Result::is_ok));
            for (i, t) in self.tasks.iter().enumerate() {
                let (Some(p), start) = (t.parent, self.started[i].load(Ordering::SeqCst)) else {
                    continue;
                };
                let parent_start = self.started[p].load(Ordering::SeqCst);
                if start != 0 && parent_start != 0 {
                    let end = self.ended[i].load(Ordering::SeqCst);
                    assert!(end < parent_start, "task {p} started before its child {i} ended");
                }
            }
            for stamp in self.started.iter().chain(&self.ended) {
                stamp.store(0, Ordering::SeqCst);
            }
            plan.into_results()
        }
    }

    /// A task with the given parent and forced flag.
    fn task(parent: Option<usize>, forced: bool) -> PlanTask {
        PlanTask { parent, forced }
    }

    /// Every task forced: each one runs, and its result lands at its index
    /// whatever thread ran it.
    #[test]
    fn plan_results_land_by_task_index() {
        let tasks = vec![
            task(Some(4), true),
            task(Some(4), true),
            task(Some(5), true),
            task(Some(5), true),
            task(Some(6), true),
            task(Some(6), true),
            task(None, true),
        ];
        let forest = Forest::new(tasks, vec![false; 7]);
        let want = [1, 2, 3, 4, 35, 76, 1117].map(|v| Some((v, false)));
        for threads in [1, 2, 4] {
            assert_eq!(forest.run(threads), want, "{threads} threads");
        }
    }

    /// A parent starts only after its last child ended, on every thread
    /// count: each task stamps a shared clock when it starts and ends.
    #[test]
    fn a_parent_starts_after_its_last_child_ended() {
        let mut rng = StdRng::seed_from_u64(0x9A7E);
        for _ in 0..50 {
            let mut forest = Forest::random(&mut rng);
            forest.tasks.iter_mut().for_each(|t| t.forced = true);
            for threads in [2, 4] {
                let got = forest.run(threads);
                assert!(got.iter().all(Option::is_some), "a forced task was skipped");
            }
        }
    }

    /// Conditional parents: one whose children all come back unchanged is
    /// skipped, and its own parent counts it as unchanged and is skipped
    /// too; one with a changed child runs. A forced parent always runs.
    #[test]
    fn a_conditional_parent_runs_only_when_a_child_changed() {
        let tasks = vec![
            // 0, 1 → 2 → 3: nothing changes, so neither 2 nor 3 runs.
            task(Some(2), true),
            task(Some(2), true),
            task(Some(3), false),
            task(None, false),
            // 4 → 5 → 6: 4 changes, 5 runs and does not, 6 is skipped.
            task(Some(5), true),
            task(Some(6), false),
            task(None, false),
            // 7 → 8: the parent is forced and runs over an unchanged child.
            task(Some(8), true),
            task(None, true),
            // 9: a conditional task with no child is skipped.
            task(None, false),
        ];
        let changes = vec![false, false, true, true, true, false, true, false, false, true];
        let forest = Forest::new(tasks, changes);
        let ran = |results: Vec<Option<(u64, bool)>>| -> Vec<bool> {
            results.iter().map(Option::is_some).collect()
        };
        for threads in [1, 2, 4] {
            let got = forest.run(threads);
            assert_eq!(got[5], Some((56, false)), "task 5 read its changed child");
            assert_eq!(got[8], Some((89, false)), "task 8 read its unchanged child");
            let want = [true, true, false, false, true, true, false, true, true, false];
            assert_eq!(ran(got), want, "{threads} threads");
        }
    }

    /// Thread 0 alone runs the tasks in index order — the lowest ready index
    /// first, and every child sits below its parent — skipping only the
    /// conditional tasks no child changed, on hand-made and random forests.
    /// Any other thread takes the highest ready index.
    #[test]
    fn thread_0_runs_the_tasks_in_index_order_and_the_others_from_the_top() {
        let drained_order = |tasks: &[PlanTask], changes: &[bool], thread: usize| {
            let plan: Plan<()> = Plan::new(tasks.iter().copied());
            let order = Mutex::new(Vec::new());
            plan.drain(thread, |i| {
                order.lock().unwrap().push(i);
                ((), changes[i])
            })
            .unwrap();
            let ran: Vec<usize> = (0..tasks.len()).filter(|&i| plan.result(i).is_some()).collect();
            let order = order.into_inner().unwrap();
            if thread == 0 {
                assert_eq!(order, ran, "the tasks that ran, in index order");
            }
            (plan.width(), order)
        };
        let tasks = [
            task(Some(3), true),
            task(None, true),
            task(Some(3), true),
            task(Some(5), true),
            task(None, true),
            task(None, true),
        ];
        assert_eq!(drained_order(&tasks, &[true; 6], 0), (4, vec![0, 1, 2, 3, 4, 5]));
        // From the top: 4 and 2 first; 3 is ready once 0 has ended too.
        assert_eq!(drained_order(&tasks, &[true; 6], 1), (4, vec![4, 2, 1, 0, 3, 5]));
        let mut rng = StdRng::seed_from_u64(0x1D3);
        for _ in 0..50 {
            let forest = Forest::random(&mut rng);
            drained_order(&forest.tasks, &forest.changes, 0);
        }
    }

    /// A task that panics ends the run on every thread: its own thread
    /// re-raises the panic, every other thread returns `Aborted`, and none
    /// waits on for the panicked task's parent. Any thread may draw it.
    #[test]
    fn a_panicking_task_aborts_the_run_on_every_thread() {
        // Task 0 panics; 1..=6 are leaves and 7 waits for all of them.
        let mut tasks = vec![task(Some(7), true); 7];
        tasks.push(task(None, true));
        for threads in [1, 2, 4] {
            let plan: Plan<()> = Plan::new(tasks.iter().copied());
            let outcomes = fan_out(0..threads, |t| {
                catch_unwind(AssertUnwindSafe(|| {
                    plan.drain(t, |i| {
                        assert_ne!(i, 0, "task 0 panics");
                        ((), true)
                    })
                }))
            })
            .unwrap();
            let panicked = outcomes.iter().filter(|o| o.is_err()).count();
            assert_eq!(panicked, 1, "{threads} threads");
            assert!(outcomes.iter().flatten().all(|o| *o == Err(Aborted)));
            let results = plan.into_results();
            assert!(results[0].is_none() && results[7].is_none());
        }
    }

    /// The same plan over warm workers: a panic ends the run with `Err`,
    /// and the next run — on a fresh worker where the panic killed one —
    /// drains a whole plan.
    #[test]
    fn a_warm_run_after_a_panicking_plan_drains_the_next_plan() {
        type Job = (Arc<Plan<usize>>, usize);
        let drain: fn(&mut (), Job) -> Result<(), Aborted> = |_, (plan, bad)| {
            plan.drain(0, |i| {
                assert_ne!(i, bad, "task {bad} panics");
                (i, true)
            })
        };
        let mut workers = WarmWorkers::new(drain);
        let tasks = || (0..16).map(|i| task((i < 15).then_some(15), true));
        for bad in [0, 15, usize::MAX] {
            let plan = Arc::new(Plan::new(tasks()));
            let got = workers.run(&mut (), [(Arc::clone(&plan), bad), (Arc::clone(&plan), bad)]);
            assert_eq!(got.is_err(), bad != usize::MAX);
            let results = Arc::into_inner(plan).unwrap().into_results();
            assert_eq!(results.iter().all(Option::is_some), bad == usize::MAX);
        }
    }

    /// 10,000 random forests with random forced flags and change flags:
    /// at 2, 4 and 8 threads every forest runs the tasks a one-thread run
    /// does, to the same results.
    #[test]
    #[ignore = "stress: 10,000 random plans at 1, 2, 4 and 8 threads"]
    fn random_plans_agree_with_one_thread_at_every_thread_count() {
        let mut rng = StdRng::seed_from_u64(0x5EED_F0E5);
        for round in 0..10_000 {
            let forest = Forest::random(&mut rng);
            let want = forest.run(1);
            for threads in [2, 4, 8] {
                assert_eq!(forest.run(threads), want, "forest {round} at {threads} threads");
            }
        }
    }
}
