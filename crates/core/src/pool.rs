//! The one worker pool: `check --jobs` fans trace checks over it, and
//! training runs its inputs on it.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// The default worker count: the cores this process may run on (1 when
/// the platform cannot tell).
pub fn available_workers() -> NonZeroUsize {
    std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN)
}

/// Runs `work(state, i)` for every `i` in `0..n` on up to `jobs` worker
/// threads and hands every result to `sink` on the calling thread
/// **strictly in input order**, each as soon as it and every earlier
/// result are done.
///
/// Each worker makes one `state` with `init(spare)` and passes it to
/// every item it runs, so an item may reuse what the previous one
/// allocated (`check` keeps one heap graph per worker this way). The
/// state lives on its worker's thread and is dropped when the pool
/// returns. `spare` is true when the pool has more jobs than items, so
/// a job is left that no item occupies and an item may put a helper
/// thread on it (`check` then decodes a trace ahead of its checking).
///
/// Workers claim the next index from a shared counter and send
/// `(i, result)` back to the calling thread. A sink therefore sees
/// item 0 while later items are still running (training cuts its
/// checkpoints there), and what it sees equals a sequential loop
/// whenever `work(state, i)` depends on `i` alone. One worker is a
/// plain loop on the calling thread: no thread is spawned, since a
/// spawn and join cost a measurable share of a short single-trace
/// check.
///
/// A sink error stops the pool: workers claim no further items, and
/// the error is returned once the running items have finished. With
/// obs on, a multi-worker pool records its wall time as the throughput
/// stage `stage` and its worker count as the gauge `<stage>_workers`.
///
/// # Panics
///
/// Propagates a panic from `work` or `sink`, with its payload, once
/// the other workers have stopped.
pub fn run_pool_streaming<S, T: Send, E>(
    stage: &str,
    n: usize,
    jobs: usize,
    init: impl Fn(bool) -> S + Sync,
    work: impl Fn(&mut S, usize) -> T + Sync,
    mut sink: impl FnMut(usize, T) -> Result<(), E>,
) -> Result<(), E> {
    let workers = jobs.max(1).min(n.max(1));
    let spare = jobs > n;
    if workers <= 1 {
        let mut state = init(spare);
        return (0..n).try_for_each(|i| sink(i, work(&mut state, i)));
    }
    let clock = heapmd_obs::throughput::stage_clock();
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    let outcome = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (tx, next, init, work) = (tx.clone(), &next, &init, &work);
                scope.spawn(move || {
                    let mut state = init(spare);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        // The receiver is gone once the sink failed.
                        if i >= n || tx.send((i, work(&mut state, i))).is_err() {
                            break;
                        }
                    }
                })
            })
            .collect();
        drop(tx);
        let outcome = deliver_in_order(n, rx, &mut sink);
        next.fetch_max(n, Ordering::Relaxed);
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
        outcome
    });
    if let Some(t0) = clock {
        heapmd_obs::throughput::record_stage(stage, n as u64, t0.elapsed().as_nanos() as u64);
        heapmd_obs::registry()
            .gauge(&format!("{stage}_workers"))
            .set(workers as i64);
    }
    outcome
}

/// Receives `(i, result)` pairs in completion order and feeds `sink`
/// the longest complete prefix after each. Returns early on a sink
/// error, or when every sender is gone with items missing (a worker
/// panicked; the caller's join propagates it).
fn deliver_in_order<T, E>(
    n: usize,
    rx: mpsc::Receiver<(usize, T)>,
    sink: &mut impl FnMut(usize, T) -> Result<(), E>,
) -> Result<(), E> {
    let mut arrived: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut due = 0;
    while due < n {
        let Ok((i, result)) = rx.recv() else {
            break;
        };
        arrived[i] = Some(result);
        while let Some(result) = arrived.get_mut(due).and_then(Option::take) {
            sink(due, result)?;
            due += 1;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use std::time::Duration;

    /// Collects what the sink saw, in the order it saw it.
    fn sunk<T: Send>(n: usize, jobs: usize, work: impl Fn(usize) -> T + Sync) -> Vec<(usize, T)> {
        let mut seen = Vec::new();
        let Ok(()) = run_pool_streaming(
            "test_pool",
            n,
            jobs,
            |_| (),
            |_, i| work(i),
            |i, t| {
                seen.push((i, t));
                Ok::<(), std::convert::Infallible>(())
            },
        );
        seen
    }

    /// What the sink saw, without the indices.
    fn results<T: Send>(n: usize, jobs: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
        sunk(n, jobs, work).into_iter().map(|(_, t)| t).collect()
    }

    #[test]
    fn results_finishing_out_of_order_reach_the_sink_in_input_order() {
        // Earlier items sleep longer, so they finish after later ones.
        let n = 8;
        let seen = sunk(n, 4, |i| {
            std::thread::sleep(Duration::from_millis(5 * (n - i) as u64));
            i * 10
        });
        assert_eq!(seen, (0..n).map(|i| (i, i * 10)).collect::<Vec<_>>());
        assert_eq!(results(n, 3, |i| i + 1), (1..=n).collect::<Vec<_>>());
    }

    #[test]
    fn the_sink_gets_item_zero_while_the_last_item_is_still_running() {
        // `work(n - 1)` waits until the sink has taken item 0: a pool
        // that collected every result before delivering any would time
        // out here instead of hanging.
        let n = 4;
        let (release, released) = mpsc::channel::<()>();
        let released = Mutex::new(released);
        let mut release = Some(release);
        let mut seen = Vec::new();
        let outcome = run_pool_streaming(
            "test_pool",
            n,
            2,
            |_| (),
            |_, i| {
                if i == n - 1 {
                    let waited = released
                        .lock()
                        .unwrap()
                        .recv_timeout(Duration::from_secs(10));
                    return waited.is_ok();
                }
                true
            },
            |i, released_in_time| {
                seen.push(i);
                if i == 0 {
                    release.take().unwrap().send(()).unwrap();
                }
                if released_in_time {
                    Ok(())
                } else {
                    Err(format!("item {i} waited for item 0 in vain"))
                }
            },
        );
        assert_eq!(outcome, Ok(()));
        assert_eq!(seen, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn a_panicking_item_propagates_without_hanging() {
        for jobs in [1, 3] {
            let caught = std::panic::catch_unwind(|| {
                results(6, jobs, |i| {
                    assert_ne!(i, 2, "item two fails");
                    i
                })
            });
            let payload = caught.expect_err("the panic propagates");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default();
            assert!(message.contains("item two fails"), "{message:?}");
        }
    }

    #[test]
    fn a_sink_error_stops_the_pool() {
        for jobs in [1, 2] {
            let mut seen = Vec::new();
            let outcome = run_pool_streaming(
                "test_pool",
                100,
                jobs,
                |_| (),
                |_, i| i,
                |i, _| {
                    seen.push(i);
                    if i == 3 {
                        Err("full disk")
                    } else {
                        Ok(())
                    }
                },
            );
            assert_eq!(outcome, Err("full disk"));
            assert_eq!(seen, [0, 1, 2, 3]);
        }
    }

    #[test]
    fn one_worker_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let on_caller = results(3, 1, |_| std::thread::current().id() == caller);
        assert_eq!(on_caller, [true; 3]);
        // More jobs than items clamp to one worker too.
        assert_eq!(
            results(1, 8, |_| std::thread::current().id() == caller),
            [true]
        );
        let spread = results(3, 2, |_| std::thread::current().id() == caller);
        assert_eq!(spread, [false; 3], "two workers run off the caller");
    }

    #[test]
    fn each_worker_keeps_one_state_across_its_items() {
        for jobs in [1, 2, 3] {
            // An item reports which state ran it, and how many items
            // that state has run, itself included.
            let made = AtomicUsize::new(0);
            let mut seen = Vec::new();
            let Ok(()) = run_pool_streaming(
                "test_pool",
                9,
                jobs,
                |_| (made.fetch_add(1, Ordering::Relaxed), 0),
                |(id, ran), _| {
                    *ran += 1;
                    (*id, *ran)
                },
                |_, r| {
                    seen.push(r);
                    Ok::<(), std::convert::Infallible>(())
                },
            );
            assert_eq!(made.into_inner(), jobs, "one state per worker");
            for id in 0..jobs {
                let runs: Vec<usize> = seen.iter().filter(|r| r.0 == id).map(|r| r.1).collect();
                assert_eq!(runs, (1..=runs.len()).collect::<Vec<_>>(), "jobs={jobs}");
            }
            assert_eq!(seen.len(), 9);
        }
    }

    #[test]
    fn a_job_is_spare_only_when_the_pool_has_more_jobs_than_items() {
        for (n, jobs, spare) in [
            (1, 2, true),
            (2, 3, true),
            (1, 1, false),
            (2, 2, false),
            (3, 2, false),
        ] {
            let mut seen = Vec::new();
            let Ok(()) = run_pool_streaming(
                "test_pool",
                n,
                jobs,
                |spare| spare,
                |s, _| *s,
                |_, s| {
                    seen.push(s);
                    Ok::<(), std::convert::Infallible>(())
                },
            );
            assert_eq!(seen, vec![spare; n], "{n} items, {jobs} jobs");
        }
    }
}
