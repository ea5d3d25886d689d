//! star-exec: the deterministic parallel execution layer.
//!
//! The coarse, device-math-free work of the STAR reproduction — A7's
//! engine configurations, the serving sweeps' cases, `repro_all`'s
//! experiment processes — is embarrassingly parallel (the paper's own
//! pipeline exploits the same vector-grained parallelism in hardware).
//! This crate provides the shared substrate: [`Executor`], a fork–join
//! executor with a fixed worker count, configured explicitly
//! ([`Executor::new`]) or from the `STAR_EXEC_THREADS` environment
//! variable ([`Executor::from_env`]), whose [`Executor::par_map`] maps a
//! slice with **deterministic, index-ordered reduction**. It is
//! dependency-free and has no `unsafe`.
//!
//! # Determinism contract
//!
//! Same inputs ⇒ byte-identical outputs **regardless of worker count**.
//! Workers take task indices from one shared counter, which decides *who*
//! runs a task, never what it computes: results land in per-index slots
//! and are returned in index order, and the single-worker fallback is a
//! plain ordered loop. Telemetry recorded by worker tasks is captured per
//! task via `star_telemetry::with_scoped` at the call sites and folded
//! into the parent registry with the commutative `Registry::merge`, so
//! metric totals are also independent of scheduling.
//!
//! # Example
//!
//! ```
//! use star_exec::Executor;
//!
//! let a = Executor::new(8).par_map(&[1.0f64, 2.0, 3.0], |_, x| x.exp());
//! let b = Executor::serial().par_map(&[1.0f64, 2.0, 3.0], |_, x| x.exp());
//! assert_eq!(a, b); // bit-identical, not just approximately equal
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod executor;

pub use executor::{Executor, MAX_THREADS, THREADS_ENV};
