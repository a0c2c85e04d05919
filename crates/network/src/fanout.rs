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

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, Sender};
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

#[cfg(test)]
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
}
