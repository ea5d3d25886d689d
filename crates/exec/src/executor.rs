//! The executor: fork–join parallel regions with deterministic,
//! index-ordered reduction.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Hard ceiling on worker threads, guarding against absurd
/// `STAR_EXEC_THREADS` values.
pub const MAX_THREADS: usize = 256;

/// Environment variable overriding the worker count for
/// [`Executor::from_env`].
pub const THREADS_ENV: &str = "STAR_EXEC_THREADS";

/// A fork–join executor over a fixed worker count.
///
/// Every parallel region spawns its workers inside [`std::thread::scope`],
/// so closures may borrow from the caller and no `unsafe` lifetime erasure
/// is needed. Each worker takes the next unstarted task index from one
/// shared counter until none is left. Spawning a handful of OS threads per
/// region costs tens of microseconds — noise next to the few dozen
/// coarse-grained tasks a region runs here (whole engine configurations,
/// whole serving simulations, whole experiment processes).
///
/// # Determinism
///
/// Results are written into per-index slots and returned in index order,
/// so the output of [`Executor::par_map`] is **byte-identical for any
/// worker count** (including the serial `1` fallback) whenever the task
/// function itself is deterministic per index. The counter only changes
/// *which worker* runs a task, never what the task computes or where its
/// result lands.
///
/// # Examples
///
/// ```
/// use star_exec::Executor;
///
/// let exec = Executor::new(4);
/// let squares = exec.par_map(&[1, 2, 3, 4], |_, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// assert_eq!(squares, Executor::serial().par_map(&[1, 2, 3, 4], |_, &x| x * x));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    threads: usize,
}

impl Executor {
    /// An executor with exactly `threads` workers (clamped to
    /// `1..=`[`MAX_THREADS`]).
    pub fn new(threads: usize) -> Self {
        Executor { threads: threads.clamp(1, MAX_THREADS) }
    }

    /// The single-worker executor: every parallel region degenerates to a
    /// plain index-ordered loop on the calling thread.
    pub fn serial() -> Self {
        Executor { threads: 1 }
    }

    /// Worker count from the environment: `STAR_EXEC_THREADS` if set and
    /// parseable (unparseable or zero values fall back to the serial
    /// worker=1 executor, never panic), else the machine's available
    /// parallelism, else 1.
    pub fn from_env() -> Self {
        match std::env::var(THREADS_ENV) {
            Ok(raw) => match raw.trim().parse::<usize>() {
                Ok(n) if n >= 1 => Executor::new(n),
                _ => Executor::serial(),
            },
            Err(_) => {
                Executor::new(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
            }
        }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items` in parallel, returning results in **input
    /// order**. `f` receives `(index, &item)`.
    ///
    /// # Panics
    ///
    /// Panics once all workers have joined if any task panicked.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n);
        if workers <= 1 {
            return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    // Relaxed: the counter only hands out distinct
                    // indices; results reach the caller through the
                    // slots' locks and the scope's join.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let r = f(i, &items[i]);
                    *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
                });
            }
        });
        slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    .unwrap_or_else(|| panic!("task {i} was never executed"))
            })
            .collect()
    }
}

impl Default for Executor {
    /// Same as [`Executor::from_env`].
    fn default() -> Self {
        Executor::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        for threads in [1, 2, 3, 8] {
            let exec = Executor::new(threads);
            let input: Vec<usize> = (0..37).collect();
            let out = exec.par_map(&input, |i, &x| {
                assert_eq!(i, x);
                x * 10
            });
            assert_eq!(out, (0..37).map(|x| x * 10).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn par_map_empty_and_singleton() {
        let exec = Executor::new(8);
        let empty: Vec<u32> = vec![];
        assert!(exec.par_map(&empty, |_, &x| x).is_empty());
        assert_eq!(exec.par_map(&[5], |_, &x| x + 1), vec![6]);
    }

    #[test]
    fn worker_panic_propagates() {
        let exec = Executor::new(2);
        let input: Vec<usize> = (0..8).collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            exec.par_map(&input, |_, &x| {
                assert!(x != 5, "boom at 5");
                x
            })
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn clamps_thread_count() {
        assert_eq!(Executor::new(0).threads(), 1);
        assert_eq!(Executor::new(1_000_000).threads(), MAX_THREADS);
        assert_eq!(Executor::serial().threads(), 1);
    }

    #[test]
    fn from_env_parses_and_falls_back() {
        // Decide purely through the parse helper semantics: set/unset of a
        // process-global env var in parallel tests is racy, so exercise
        // `new`'s clamping plus a temp-var round trip guarded to this test.
        std::env::set_var(THREADS_ENV, "3");
        assert_eq!(Executor::from_env().threads(), 3);
        std::env::set_var(THREADS_ENV, "not-a-number");
        assert_eq!(Executor::from_env().threads(), 1, "garbage falls back to serial");
        std::env::set_var(THREADS_ENV, "0");
        assert_eq!(Executor::from_env().threads(), 1, "zero falls back to serial");
        std::env::remove_var(THREADS_ENV);
        assert!(Executor::from_env().threads() >= 1);
    }
}
