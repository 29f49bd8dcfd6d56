//! Dependency-free scoped-thread work-stealing executor.
//!
//! [`run_indexed`] fans a list of independent work items across `jobs`
//! threads and returns their results **in input order**, regardless of which
//! worker ran which item or in what order they finished. Each worker owns a
//! deque seeded round-robin with a share of the items; it pops its own work
//! from the front and, once empty, steals from the back of its neighbours'
//! deques. Because every item writes its result into a slot fixed by its
//! input index, the output is byte-identical to a serial run whenever the
//! work function itself is deterministic — which is what lets
//! `laminar-experiments --jobs N` promise report- and trace-identical output
//! for every `N`.
//!
//! `jobs <= 1` (or a single item) short-circuits to a plain in-thread loop:
//! the serial path and the parallel path run exactly the same closure over
//! exactly the same items.

use std::collections::VecDeque;
use std::sync::Mutex;

/// The machine's available parallelism (1 when it cannot be determined).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The worker count a `jobs` request resolves to for `items` work items:
/// never more workers than items, and never more than the machine can run
/// concurrently. When this is 1 — a serial machine, a single item, or an
/// explicit `--jobs 1` — [`run_indexed`] runs strictly inline (no pool
/// spawn), and callers can skip parallel-only detours such as per-run trace
/// buffering. Output is byte-identical either way, so clamping is purely a
/// perf decision.
pub fn effective_jobs(jobs: usize, items: usize) -> usize {
    jobs.max(1).min(items.max(1)).min(default_jobs())
}

/// Runs `f` over `items` on up to `jobs` scoped threads, returning results
/// in input order. `f` receives the item's input index alongside the item.
/// The thread pool is only spawned when [`effective_jobs`] resolves above 1;
/// a 1-CPU machine (or `jobs = 1`, or a single item) runs strictly inline.
///
/// # Panics
///
/// Propagates the first worker panic once all threads have been joined.
pub fn run_indexed<T, R, F>(items: Vec<T>, jobs: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let workers = effective_jobs(jobs, n);
    if workers <= 1 || n <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let queues: Vec<Mutex<VecDeque<(usize, T)>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, item) in items.into_iter().enumerate() {
        queues[i % workers]
            .lock()
            .expect("queue lock")
            .push_back((i, item));
    }
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let queues = &queues;
            let slots = &slots;
            let f = &f;
            scope.spawn(move || loop {
                // Own deque first (front), then steal from the back of the
                // others, scanning clockwise from this worker.
                let task = queues[w]
                    .lock()
                    .expect("queue lock")
                    .pop_front()
                    .or_else(|| {
                        (1..workers).find_map(|k| {
                            queues[(w + k) % workers]
                                .lock()
                                .expect("queue lock")
                                .pop_back()
                        })
                    });
                let Some((i, item)) = task else {
                    // All deques empty: no work is ever added after spawn,
                    // so this worker is done.
                    break;
                };
                let r = f(i, item);
                *slots[i].lock().expect("slot lock") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot lock")
                .expect("every item produced a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_arrive_in_input_order() {
        for jobs in [1, 2, 4, 8] {
            let items: Vec<u64> = (0..37).collect();
            let out = run_indexed(items, jobs, |i, x| {
                assert_eq!(i as u64, x);
                // Finish out of order: later items are faster.
                std::thread::sleep(std::time::Duration::from_micros(200 - 5 * x.min(39)));
                x * x
            });
            assert_eq!(
                out,
                (0..37).map(|x| x * x).collect::<Vec<u64>>(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn serial_and_parallel_agree() {
        let f = |i: usize, x: u64| (i as u64).wrapping_mul(31).wrapping_add(x);
        let items: Vec<u64> = (0..100).map(|x| x * 7).collect();
        let serial = run_indexed(items.clone(), 1, f);
        let parallel = run_indexed(items, 6, f);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = run_indexed((0..257).collect::<Vec<i32>>(), 5, |_, x| {
            counter.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 257);
        assert_eq!(counter.load(Ordering::Relaxed), 257);
    }

    #[test]
    fn idle_workers_steal_from_loaded_queues() {
        // One slow item pins its owner; the remaining items must still all
        // complete (stolen by the other workers) well before the slow one
        // would have gotten to them serially.
        let out = run_indexed((0..16).collect::<Vec<u64>>(), 4, |_, x| {
            if x == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            x + 1
        });
        assert_eq!(out, (1..=16).collect::<Vec<u64>>());
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let none: Vec<u8> = run_indexed(Vec::new(), 4, |_, x: u8| x);
        assert!(none.is_empty());
        assert_eq!(run_indexed(vec![9], 4, |_, x| x * 2), vec![18]);
    }
}
