//! The workspace's one thread fan-out.
//!
//! A parallel build must store the bytes a one-thread build stores, so no
//! result may be consumed in the order threads happen to finish.
//! [`fan_out`] runs one job per scoped thread and hands the results back by
//! job index, whatever the completion order: a caller that commits them in
//! that order is independent of scheduling. `clippy.toml` disallows
//! `std::thread::scope` everywhere else.

use std::panic::{catch_unwind, AssertUnwindSafe};

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
}
