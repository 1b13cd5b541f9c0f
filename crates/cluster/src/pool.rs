//! The real worker pool.
//!
//! Virtual cores determine *timing*; this pool determines how fast the
//! simulation itself runs. Tasks are ordinary closures; [`ThreadPool::map`]
//! executes a batch and returns results in input order, propagating panics.

use crate::sync::{Condvar, Mutex};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of OS threads executing queued closures.
pub struct ThreadPool {
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    size: usize,
    /// Host nanoseconds spent in [`ThreadPool::map`], caller-side.
    in_batches: Arc<AtomicU64>,
}

impl ThreadPool {
    /// Spawn a pool with `size` worker threads (at least one).
    pub fn new(size: usize) -> Self {
        Self::timed(size, Arc::default())
    }

    /// [`ThreadPool::new`], adding the host time of every batch to
    /// `in_batches` (nanoseconds).
    pub(crate) fn timed(size: usize, in_batches: Arc<AtomicU64>) -> Self {
        let size = size.max(1);
        let (tx, rx) = channel::<Job>();
        // std's mpsc receiver is single-consumer; share it behind a mutex so
        // every worker can pull from the same queue.
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..size)
            .map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("yafim-worker-{i}"))
                    .spawn(move || loop {
                        let job = match rx.lock().recv() {
                            Ok(job) => job,
                            Err(_) => break,
                        };
                        job();
                    })
                    .expect("failed to spawn worker thread")
            })
            .collect();
        ThreadPool {
            tx: Some(tx),
            workers,
            size,
            in_batches,
        }
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Run `f` over every item, in parallel, returning results in input
    /// order. If any task panics, this re-panics on the caller thread after
    /// the batch drains.
    pub fn map<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send + 'static,
        T: Send + 'static,
        F: Fn(usize, I) -> T + Send + Sync + 'static,
    {
        let (n, start) = (items.len(), Instant::now());
        if n == 0 {
            return Vec::new();
        }

        struct Batch<T> {
            lock: Mutex<BatchState<T>>,
            cv: Condvar,
        }
        struct BatchState<T> {
            results: Vec<Option<T>>,
            remaining: usize,
            /// First panic payload caught in this batch, re-thrown on the
            /// caller thread so the original message survives.
            panic: Option<Box<dyn std::any::Any + Send>>,
        }

        let batch = Arc::new(Batch {
            lock: Mutex::new(BatchState {
                results: (0..n).map(|_| None).collect(),
                remaining: n,
                panic: None,
            }),
            cv: Condvar::new(),
        });
        let f = Arc::new(f);
        let tx = self
            .tx
            .as_ref()
            .expect("thread pool is shut down: the owning SimCluster was dropped while a stage was still submitting tasks");

        for (idx, item) in items.into_iter().enumerate() {
            let batch = Arc::clone(&batch);
            let f = Arc::clone(&f);
            tx.send(Box::new(move || {
                let out = catch_unwind(AssertUnwindSafe(|| f(idx, item)));
                // Release this job's share of the task closure *before*
                // signalling completion: the closure may capture the last
                // handle to the cluster that owns this very pool, and its
                // drop must not race past the caller's return from `map`
                // (a worker dropping the pool would self-join).
                drop(f);
                let mut st = batch.lock.lock();
                match out {
                    Ok(v) => st.results[idx] = Some(v),
                    Err(payload) => {
                        // Keep the first payload; later panics in the same
                        // batch are usually knock-on effects.
                        if st.panic.is_none() {
                            st.panic = Some(payload);
                        }
                    }
                }
                st.remaining -= 1;
                if st.remaining == 0 {
                    batch.cv.notify_all();
                }
            }))
            .expect("worker threads exited before the batch was queued: the pool's channel closed unexpectedly");
        }

        let mut st = batch.lock.lock();
        while st.remaining > 0 {
            st = batch.cv.wait(st);
        }
        let spent = start.elapsed().as_nanos() as u64;
        self.in_batches.fetch_add(spent, Ordering::Relaxed);
        if let Some(payload) = st.panic.take() {
            // Re-throw the original task panic (message intact) on the
            // caller thread, after the whole batch drained.
            drop(st);
            std::panic::resume_unwind(payload);
        }
        st.results
            .iter_mut()
            .map(|slot| {
                slot.take()
                    .expect("batch accounting bug: remaining hit zero but a result slot is empty")
            })
            .collect()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Close the channel so workers exit, then join them. If the pool is
        // (unexpectedly) dropped *from* one of its own workers, skip the
        // self-join and let that thread exit naturally — joining yourself
        // deadlocks.
        self.tx.take();
        let me = std::thread::current().id();
        for h in self.workers.drain(..) {
            if h.thread().id() == me {
                continue;
            }
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("size", &self.size)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order() {
        let pool = ThreadPool::new(4);
        let out = pool.map((0..100).collect(), |_, x: i32| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_batch() {
        let pool = ThreadPool::new(2);
        let out: Vec<i32> = pool.map(Vec::<i32>::new(), |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn pool_survives_many_batches() {
        let pool = ThreadPool::new(3);
        for round in 0..50 {
            let out = pool.map(vec![1, 2, 3], move |_, x: i64| x + round);
            assert_eq!(out, vec![1 + round, 2 + round, 3 + round]);
        }
    }

    #[test]
    fn index_is_passed_through() {
        let pool = ThreadPool::new(2);
        let out = pool.map(vec!["a", "b", "c"], |i, s| format!("{i}{s}"));
        assert_eq!(out, vec!["0a", "1b", "2c"]);
    }

    #[test]
    fn closure_captures_released_before_map_returns() {
        // Regression test for a shutdown race: if a task closure holds the
        // last reference to something owning the pool itself, the drop must
        // happen on a worker *before* `map` returns — never afterwards,
        // where it would race with the caller dropping the pool.
        struct Canary(Arc<std::sync::atomic::AtomicUsize>);
        impl Drop for Canary {
            fn drop(&mut self) {
                self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }
        }
        for _ in 0..50 {
            let drops = Arc::new(std::sync::atomic::AtomicUsize::new(0));
            let canary = Canary(Arc::clone(&drops));
            let pool = ThreadPool::new(3);
            pool.map(vec![1u32, 2, 3], move |_, x| {
                let _keep_alive = &canary;
                x
            });
            assert_eq!(
                drops.load(std::sync::atomic::Ordering::SeqCst),
                1,
                "closure must be fully dropped by the time map returns"
            );
        }
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn panics_propagate_with_original_message() {
        let pool = ThreadPool::new(2);
        pool.map(vec![0, 1, 2], |_, x: i32| {
            if x == 1 {
                panic!("boom");
            }
            x
        });
    }
}
