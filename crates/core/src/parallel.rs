//! The workspace's parallel execution layer: a bounded scoped-thread pool
//! ([`ExecPool`]) shared by index construction and query execution.
//!
//! Index builds are embarrassingly parallel across attributes (the paper's
//! synthetic dataset has 450 of them), and query execution is embarrassingly
//! parallel across row ranges (sequential and VA-file scans), across
//! predicates (per-attribute bitmap fetch/combine), and across the queries
//! of a batch. A simple chunked `thread::scope` covers all of it without a
//! thread-pool dependency.
//!
//! Guarantees, relied on by the engine layer and its conformance suite:
//!
//! * **Deterministic ordering** — [`ExecPool::map`]/[`ExecPool::try_map`]
//!   chunk the input into contiguous runs and flatten worker outputs in
//!   input order, so results are positionally identical to a sequential
//!   map.
//! * **Panic containment** — a panicking closure inside
//!   [`ExecPool::try_map`] surfaces as [`Error::WorkerPanicked`] instead of
//!   aborting the process; sibling items already computed are discarded.
//! * **Configurability** — the process-wide degree used by the engine's
//!   default entry points comes from [`configured_threads`]: an explicit
//!   [`set_threads`] call (the CLI's `--threads` flag) wins over the
//!   `IBIS_THREADS` environment variable (the CI matrix knob), which wins
//!   over [`default_threads`]. The environment and the machine are read
//!   once per process, on first use: the degree is consulted per shard per
//!   query, so it must cost an atomic load, not a syscall.

use crate::{Error, Result};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Process-wide thread-count override installed by [`set_threads`];
/// `0` means "not set" (fall through to `IBIS_THREADS` / auto-detect).
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Installs a process-wide parallelism degree (clamped to at least 1).
/// Used by the CLI `--threads` flag and the bench harness; takes precedence
/// over the `IBIS_THREADS` environment variable.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n.max(1), Ordering::Relaxed);
}

/// The parallelism degree the engine's default entry points use:
/// [`set_threads`] override, else `IBIS_THREADS` (if a positive integer),
/// else [`default_threads`]. The fallback is resolved once per process;
/// a later [`set_threads`] still wins.
pub fn configured_threads() -> usize {
    match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        0 => resolved_default(),
        forced => forced,
    }
}

/// `IBIS_THREADS` (if a positive integer), else [`default_threads`],
/// resolved on the first call and cached for the life of the process.
fn resolved_default() -> usize {
    static RESOLVED: OnceLock<usize> = OnceLock::new();
    *RESOLVED.get_or_init(|| {
        std::env::var("IBIS_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(default_threads)
    })
}

/// A sensible default worker count: available parallelism, capped at 8
/// (both index builds and query scans are memory-bandwidth-bound well
/// before that).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(8))
}

/// Splits `0..n` into at most `parts` contiguous, non-empty ranges covering
/// every index exactly once, in order. The unit of row-range partitioning:
/// each range is one worker's slice of a partitioned scan.
pub fn partition(n: usize, parts: usize) -> Vec<Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, n);
    let chunk = n.div_ceil(parts);
    (0..n)
        .step_by(chunk)
        .map(|start| start..(start + chunk).min(n))
        .collect()
}

/// A bounded worker pool over scoped OS threads.
///
/// `ExecPool` is a value, not a resource: it holds only the configured
/// degree, and each call spins up scoped workers that join before the call
/// returns (so borrowed data flows freely into closures). Degree 1 runs
/// inline with no threads at all.
#[derive(Clone, Copy, Debug)]
pub struct ExecPool {
    threads: usize,
}

impl Default for ExecPool {
    fn default() -> ExecPool {
        ExecPool::current()
    }
}

impl ExecPool {
    /// A pool of up to `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> ExecPool {
        ExecPool {
            threads: threads.max(1),
        }
    }

    /// The pool at the process-wide configured degree
    /// ([`configured_threads`]).
    pub fn current() -> ExecPool {
        ExecPool::new(configured_threads())
    }

    /// The configured degree.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies the fallible `f` to every item, fanning contiguous chunks
    /// over the pool. Results come back in input order. The first failure
    /// (in input order) is returned; a panicking closure is contained and
    /// surfaces as [`Error::WorkerPanicked`] instead of taking down the
    /// process.
    pub fn try_map<T, U, F>(&self, items: Vec<T>, f: F) -> Result<Vec<U>>
    where
        T: Send,
        U: Send,
        F: Fn(T) -> Result<U> + Sync,
    {
        let n = items.len();
        let threads = self.threads.min(n).max(1);

        // One worker's share: apply `f` until the first failure, containing
        // panics so they report instead of unwinding through the scope.
        let run_chunk = |chunk: Vec<T>| -> (Vec<U>, Option<Error>) {
            let mut out = Vec::with_capacity(chunk.len());
            for item in chunk {
                match catch_unwind(AssertUnwindSafe(|| f(item))) {
                    Ok(Ok(u)) => out.push(u),
                    Ok(Err(e)) => return (out, Some(e)),
                    Err(payload) => {
                        return (
                            out,
                            Some(Error::WorkerPanicked {
                                detail: panic_detail(payload),
                            }),
                        )
                    }
                }
            }
            (out, None)
        };

        if threads == 1 || n < 2 {
            let (out, err) = run_chunk(items);
            return match err {
                None => Ok(out),
                Some(e) => Err(e),
            };
        }

        let chunk_size = n.div_ceil(threads);
        let mut chunks: Vec<Vec<T>> = Vec::with_capacity(threads);
        let mut items = items;
        while !items.is_empty() {
            let rest = items.split_off(items.len().min(chunk_size));
            chunks.push(std::mem::replace(&mut items, rest));
        }

        let run_chunk = &run_chunk;
        let handoff = Handoff::capture();
        let mut parts: Vec<(Vec<U>, Option<Error>)> = Vec::with_capacity(chunks.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|chunk| {
                    scope.spawn(move || {
                        handoff.run(("items", chunk.len() as u64), || run_chunk(chunk))
                    })
                })
                .collect();
            for h in handles {
                // Workers contain their own panics, so a join failure can
                // only come from outside `f` (e.g. allocation); report it
                // the same way rather than poisoning the scope.
                parts.push(h.join().unwrap_or_else(|payload| {
                    (
                        Vec::new(),
                        Some(Error::WorkerPanicked {
                            detail: panic_detail(payload),
                        }),
                    )
                }));
            }
        });

        // Chunks are in input order, and each worker stopped at its first
        // failure, so the first failing chunk holds the first failure.
        let mut out = Vec::with_capacity(n);
        for (part, err) in parts {
            out.extend(part);
            if let Some(e) = err {
                return Err(e);
            }
        }
        Ok(out)
    }

    /// Applies the infallible `f` to every item in parallel, returning
    /// results in input order.
    ///
    /// # Panics
    /// Panics with `"worker panicked: …"` if `f` panics on any item (the
    /// panic is contained on the worker and re-raised on the caller).
    pub fn map<T, U, F>(&self, items: Vec<T>, f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(T) -> U + Sync,
    {
        match self.try_map(items, |item| Ok(f(item))) {
            Ok(out) => out,
            Err(Error::WorkerPanicked { detail }) => panic!("worker panicked: {detail}"),
            Err(e) => panic!("worker panicked: {e}"),
        }
    }

    /// Runs `f(worker)` once per worker, all workers live *concurrently* —
    /// a fan-out, not a work partition: where [`map`](ExecPool::map) slices
    /// one job across the pool, `broadcast` gives every worker the same
    /// job at the same time. This is the shape of concurrent *serving*
    /// (N readers each looping over their own snapshot acquisitions) and
    /// what the stress CLI uses to race readers against a writer.
    ///
    /// Results come back in worker order. Degree 1 runs inline.
    ///
    /// # Panics
    /// Panics with `"worker panicked: …"` if `f` panics on any worker (the
    /// panic is contained on the worker and re-raised on the caller).
    pub fn broadcast<U, F>(&self, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        if self.threads == 1 {
            return vec![f(0)];
        }
        let f = &f;
        let handoff = Handoff::capture();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.threads)
                .map(|i| scope.spawn(move || handoff.run(("worker", i as u64), || f(i))))
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(v) => v,
                    Err(payload) => panic!("worker panicked: {}", panic_detail(payload)),
                })
                .collect()
        })
    }
}

/// The issuing thread's trace state, handed to each worker of a fan-out.
/// Workers run on fresh threads with no open span and outside any
/// [`ibis_obs::untraced`] scope, so both are carried over explicitly.
#[derive(Clone, Copy)]
struct Handoff {
    /// The span that issued the fan-out; worker spans nest under it, so
    /// per-worker skew shows up in the profile tree.
    parent: u64,
    /// Whether the issuing thread records spans at all.
    tracing: bool,
}

impl Handoff {
    fn capture() -> Handoff {
        Handoff {
            parent: ibis_obs::current_span_id(),
            tracing: ibis_obs::is_tracing(),
        }
    }

    /// Runs one worker's share under a `pool.worker` span carrying
    /// `field` — or, when the issuing thread was not tracing, with span
    /// recording off on this worker too.
    fn run<R>(self, field: (&'static str, u64), work: impl FnOnce() -> R) -> R {
        if !self.tracing {
            return ibis_obs::untraced(work);
        }
        let mut span = ibis_obs::span_with_parent("pool.worker", self.parent);
        span.add_field(field.0, field.1);
        work()
    }
}

/// Renders a contained panic payload for [`Error::WorkerPanicked`].
fn panic_detail(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Applies `f` to every item, fanning the work over up to `n_threads` OS
/// threads, and returns results in input order. Falls back to a plain map
/// for tiny inputs or `n_threads <= 1`.
///
/// Thin wrapper over [`ExecPool::map`], kept for the index-build call
/// sites; panics from `f` re-raise on the caller as `"worker panicked"`.
pub fn parallel_map<T, U, F>(items: Vec<T>, n_threads: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    ExecPool::new(n_threads).map(items, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u32> = (0..1000).collect();
        let got = parallel_map(items, 4, |x| x * 2);
        assert_eq!(got, (0..1000).map(|x| x * 2).collect::<Vec<u32>>());
    }

    #[test]
    fn single_thread_fallback() {
        assert_eq!(parallel_map(vec![1, 2, 3], 1, |x| x + 1), vec![2, 3, 4]);
        assert_eq!(parallel_map(Vec::<u32>::new(), 4, |x| x), Vec::<u32>::new());
        assert_eq!(parallel_map(vec![7], 16, |x| x), vec![7]);
    }

    #[test]
    fn more_threads_than_items() {
        let got = parallel_map(vec![1u32, 2, 3], 64, |x| x * x);
        assert_eq!(got, vec![1, 4, 9]);
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn worker_panic_propagates() {
        parallel_map(vec![0u32, 1], 2, |x| {
            assert!(x != 1, "boom");
            x
        });
    }

    #[test]
    fn try_map_contains_panics_instead_of_aborting() {
        // The satellite bug: a panicking closure must surface as an Error,
        // not take down the process.
        for threads in [1, 2, 8] {
            let err = ExecPool::new(threads)
                .try_map((0..100u32).collect(), |x| {
                    assert!(x != 57, "boom at {x}");
                    Ok(x)
                })
                .unwrap_err();
            match err {
                Error::WorkerPanicked { detail } => {
                    assert!(detail.contains("boom at 57"), "{detail}")
                }
                other => panic!("expected WorkerPanicked, got {other:?}"),
            }
        }
    }

    #[test]
    fn try_map_returns_first_error_in_input_order() {
        let fail_at = |bad: Vec<u32>| {
            ExecPool::new(4)
                .try_map((0..64u32).collect(), |x| {
                    if bad.contains(&x) {
                        Err(Error::ZeroCardinality { attr: x as usize })
                    } else {
                        Ok(x)
                    }
                })
                .unwrap_err()
        };
        assert_eq!(fail_at(vec![50, 3, 20]), Error::ZeroCardinality { attr: 3 });
    }

    #[test]
    fn try_map_ok_matches_sequential() {
        for threads in [1, 2, 3, 16] {
            let got = ExecPool::new(threads)
                .try_map((0..33u32).collect(), |x| Ok(x + 1))
                .unwrap();
            assert_eq!(got, (1..=33).collect::<Vec<u32>>());
        }
    }

    #[test]
    fn broadcast_runs_every_worker_concurrently() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Every worker spins until it has seen all its siblings arrive —
        // only truly concurrent workers can all get past the barrier.
        for threads in [1usize, 2, 8] {
            let arrived = AtomicUsize::new(0);
            let got = ExecPool::new(threads).broadcast(|i| {
                arrived.fetch_add(1, Ordering::SeqCst);
                while arrived.load(Ordering::SeqCst) < threads {
                    std::hint::spin_loop();
                }
                i * 10
            });
            assert_eq!(got, (0..threads).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn broadcast_panic_propagates() {
        ExecPool::new(2).broadcast(|i| assert!(i != 1, "boom"));
    }

    #[test]
    fn partition_covers_in_order() {
        for (n, parts) in [(0usize, 4usize), (1, 4), (5, 2), (64, 8), (65, 8), (7, 100)] {
            let ranges = partition(n, parts);
            assert!(ranges.len() <= parts.max(1));
            let flat: Vec<usize> = ranges.iter().flat_map(|r| r.clone()).collect();
            assert_eq!(flat, (0..n).collect::<Vec<usize>>(), "n={n} parts={parts}");
            assert!(ranges.iter().all(|r| !r.is_empty()));
        }
    }

    #[test]
    fn thread_override_beats_environment() {
        // NB: set_threads is process-global and cannot be unset (0 clamps
        // to 1); parallel-running tests that read configured_threads()
        // accept any positive degree.
        // Resolve and cache the fallback first: an override installed
        // afterwards must still win over it.
        let cached = resolved_default();
        assert!(cached >= 1);
        set_threads(3);
        assert_eq!(configured_threads(), 3);
        set_threads(0); // clamps to 1
        assert_eq!(configured_threads(), 1);
        assert_eq!(resolved_default(), cached, "the fallback is read once");
        assert!(default_threads() >= 1);
        assert!(ExecPool::current().threads() >= 1);
        assert_eq!(ExecPool::default().threads(), ExecPool::current().threads());
    }
}
