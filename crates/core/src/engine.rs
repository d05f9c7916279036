//! The unified engine layer: one execution trait and one work-counter type
//! shared by every index family.
//!
//! The paper's claims are comparative — BEE vs BRE vs VA-file vs the tree
//! baselines, under both missing-data semantics — so every access method
//! answers the same queries through the same surface: [`AccessMethod`].
//! Costs are reported in one [`WorkCounters`] struct instead of the
//! per-family counter types the crates grew historically (`QueryCost`,
//! `AccessStats`, `VaCost` — now aliases of [`WorkCounters`]).

use crate::parallel::{configured_threads, ExecPool};
use crate::{RangeQuery, Result, RowSet};
use std::fmt;
use std::ops::{Add, AddAssign};

/// Work performed while answering one query, across every index family.
///
/// Each family fills the counters that describe its physical work and
/// leaves the rest at zero; [`WorkCounters::words_processed`] is the common
/// currency (64-bit words touched) that makes families comparable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Bitmaps read from the index (bitmap families; the paper's primary
    /// §6 cost metric).
    pub bitmaps_accessed: usize,
    /// Logical bitmap operations performed (AND/OR/XOR/NOT).
    pub logical_ops: usize,
    /// 64-bit words touched — bitmap words read, approximation bits
    /// scanned, or raw cells compared, normalized to words.
    pub words_processed: usize,
    /// Tree nodes visited (R-tree, B+-tree families).
    pub nodes_visited: usize,
    /// Entries scanned inside visited nodes or pages.
    pub entries_scanned: usize,
    /// Rewritten subqueries executed (the 2^k expansion of the R-tree and
    /// bitstring baselines, MOSAIC's per-attribute lookups).
    pub subqueries: usize,
    /// Row-id set unions/intersections between subquery results.
    pub set_ops: usize,
    /// Approximation fields read during a VA-file filter scan.
    pub approx_fields_read: usize,
    /// Candidate rows surviving the filter step (VA families).
    pub candidates: usize,
    /// Candidate rows re-checked against the base data.
    pub rows_refined: usize,
    /// Refined candidates that turned out not to match.
    pub false_positives: usize,
    /// Array-shaped containers touched (adaptive bitmap backend).
    pub containers_array: usize,
    /// Bitmap-shaped containers touched (adaptive bitmap backend).
    pub containers_bitmap: usize,
    /// Run-shaped containers touched (adaptive bitmap backend).
    pub containers_run: usize,
}

impl WorkCounters {
    /// Counter field names, in declaration order — the shared vocabulary
    /// between [`WorkCounters::fields`], [`WorkCounters::field_mut`], the
    /// `Display` table, and the span fields profiles attach.
    pub const FIELD_NAMES: [&'static str; 14] = [
        "bitmaps_accessed",
        "logical_ops",
        "words_processed",
        "nodes_visited",
        "entries_scanned",
        "subqueries",
        "set_ops",
        "approx_fields_read",
        "candidates",
        "rows_refined",
        "false_positives",
        "containers_array",
        "containers_bitmap",
        "containers_run",
    ];

    /// All counters at zero.
    pub fn zero() -> WorkCounters {
        WorkCounters::default()
    }

    /// Records one bitmap read.
    pub fn read_bitmap(&mut self) {
        self.bitmaps_accessed = self.bitmaps_accessed.saturating_add(1);
    }

    /// Records `n` bitmap reads.
    pub fn read_bitmaps(&mut self, n: usize) {
        self.bitmaps_accessed = self.bitmaps_accessed.saturating_add(n);
    }

    /// Records one logical bitmap operation.
    pub fn op(&mut self) {
        self.logical_ops = self.logical_ops.saturating_add(1);
    }

    /// Folds another counter set into this one, field by field. Partitioned
    /// execution gives each worker its own `WorkCounters`; because every
    /// field is a (saturating) sum, merging partials in any order reproduces
    /// the counters a sequential run would have reported — the
    /// associativity the parallel conformance tests assert.
    pub fn merge(&mut self, other: WorkCounters) {
        *self += other;
    }

    /// Counter values in [`WorkCounters::FIELD_NAMES`] order.
    pub fn fields(&self) -> [(&'static str, usize); 14] {
        [
            ("bitmaps_accessed", self.bitmaps_accessed),
            ("logical_ops", self.logical_ops),
            ("words_processed", self.words_processed),
            ("nodes_visited", self.nodes_visited),
            ("entries_scanned", self.entries_scanned),
            ("subqueries", self.subqueries),
            ("set_ops", self.set_ops),
            ("approx_fields_read", self.approx_fields_read),
            ("candidates", self.candidates),
            ("rows_refined", self.rows_refined),
            ("false_positives", self.false_positives),
            ("containers_array", self.containers_array),
            ("containers_bitmap", self.containers_bitmap),
            ("containers_run", self.containers_run),
        ]
    }

    /// Mutable access to a counter by its [`WorkCounters::FIELD_NAMES`]
    /// name; `None` for anything else. Lets profile readers rebuild a
    /// counter set from named span fields without a 14-arm match at every
    /// call site.
    pub fn field_mut(&mut self, name: &str) -> Option<&mut usize> {
        Some(match name {
            "bitmaps_accessed" => &mut self.bitmaps_accessed,
            "logical_ops" => &mut self.logical_ops,
            "words_processed" => &mut self.words_processed,
            "nodes_visited" => &mut self.nodes_visited,
            "entries_scanned" => &mut self.entries_scanned,
            "subqueries" => &mut self.subqueries,
            "set_ops" => &mut self.set_ops,
            "approx_fields_read" => &mut self.approx_fields_read,
            "candidates" => &mut self.candidates,
            "rows_refined" => &mut self.rows_refined,
            "false_positives" => &mut self.false_positives,
            "containers_array" => &mut self.containers_array,
            "containers_bitmap" => &mut self.containers_bitmap,
            "containers_run" => &mut self.containers_run,
            _ => return None,
        })
    }

    /// Rebuilds a counter set from `(name, value)` pairs, accumulating
    /// duplicates and ignoring names that are not counters (span fields
    /// like `attr` or `items` ride alongside counter deltas in profiles).
    pub fn from_fields<'n>(pairs: impl IntoIterator<Item = (&'n str, u64)>) -> WorkCounters {
        let mut c = WorkCounters::zero();
        for (name, value) in pairs {
            if let Some(f) = c.field_mut(name) {
                *f = f.saturating_add(usize::try_from(value).unwrap_or(usize::MAX));
            }
        }
        c
    }

    /// The work this counter set reports beyond `earlier`, field by field
    /// (saturating at zero, so a caller diffing snapshots from different
    /// queries never underflows). `earlier + diff == self` whenever
    /// `earlier` really is a prefix of `self`'s work.
    pub fn diff(&self, earlier: &WorkCounters) -> WorkCounters {
        WorkCounters {
            bitmaps_accessed: self
                .bitmaps_accessed
                .saturating_sub(earlier.bitmaps_accessed),
            logical_ops: self.logical_ops.saturating_sub(earlier.logical_ops),
            words_processed: self.words_processed.saturating_sub(earlier.words_processed),
            nodes_visited: self.nodes_visited.saturating_sub(earlier.nodes_visited),
            entries_scanned: self.entries_scanned.saturating_sub(earlier.entries_scanned),
            subqueries: self.subqueries.saturating_sub(earlier.subqueries),
            set_ops: self.set_ops.saturating_sub(earlier.set_ops),
            approx_fields_read: self
                .approx_fields_read
                .saturating_sub(earlier.approx_fields_read),
            candidates: self.candidates.saturating_sub(earlier.candidates),
            rows_refined: self.rows_refined.saturating_sub(earlier.rows_refined),
            false_positives: self.false_positives.saturating_sub(earlier.false_positives),
            containers_array: self
                .containers_array
                .saturating_sub(earlier.containers_array),
            containers_bitmap: self
                .containers_bitmap
                .saturating_sub(earlier.containers_bitmap),
            containers_run: self.containers_run.saturating_sub(earlier.containers_run),
        }
    }

    /// Whether every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == WorkCounters::zero()
    }

    /// Attaches every non-zero counter as a named field on `span`, the
    /// convention profiles use for per-phase counter deltas (a no-op when
    /// the recorder is disabled or the counters are all zero).
    pub fn record_into(&self, span: &mut ibis_obs::SpanGuard) {
        if !span.is_recording() {
            return;
        }
        for (name, value) in self.fields() {
            if value != 0 {
                span.add_field(name, value as u64);
            }
        }
    }
}

/// Aligned `name value` table of the non-zero counters (the whole table
/// when everything is zero reads `(no work recorded)`), shared by the CLI,
/// the bench report, and the oracle instead of three hand-rolled formats.
impl fmt::Display for WorkCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "  (no work recorded)");
        }
        let mut first = true;
        for (name, value) in self.fields() {
            if value == 0 {
                continue;
            }
            if !first {
                writeln!(f)?;
            }
            first = false;
            write!(f, "  {name:<20} {value:>14}")?;
        }
        Ok(())
    }
}

impl Add for WorkCounters {
    type Output = WorkCounters;

    fn add(mut self, rhs: WorkCounters) -> WorkCounters {
        self += rhs;
        self
    }
}

impl AddAssign for WorkCounters {
    /// Saturating, field-by-field: adversarial or synthetic workloads can
    /// legitimately drive per-worker partials near `usize::MAX`, and a
    /// merge must never panic in debug builds or wrap in release builds.
    fn add_assign(&mut self, rhs: WorkCounters) {
        self.bitmaps_accessed = self.bitmaps_accessed.saturating_add(rhs.bitmaps_accessed);
        self.logical_ops = self.logical_ops.saturating_add(rhs.logical_ops);
        self.words_processed = self.words_processed.saturating_add(rhs.words_processed);
        self.nodes_visited = self.nodes_visited.saturating_add(rhs.nodes_visited);
        self.entries_scanned = self.entries_scanned.saturating_add(rhs.entries_scanned);
        self.subqueries = self.subqueries.saturating_add(rhs.subqueries);
        self.set_ops = self.set_ops.saturating_add(rhs.set_ops);
        self.approx_fields_read = self
            .approx_fields_read
            .saturating_add(rhs.approx_fields_read);
        self.candidates = self.candidates.saturating_add(rhs.candidates);
        self.rows_refined = self.rows_refined.saturating_add(rhs.rows_refined);
        self.false_positives = self.false_positives.saturating_add(rhs.false_positives);
        self.containers_array = self.containers_array.saturating_add(rhs.containers_array);
        self.containers_bitmap = self.containers_bitmap.saturating_add(rhs.containers_bitmap);
        self.containers_run = self.containers_run.saturating_add(rhs.containers_run);
    }
}

/// One queryable index structure: the execution surface shared by the
/// bitmap encodings, the VA-files, the tree baselines, and the sequential
/// scan.
///
/// Required: [`AccessMethod::name`], [`AccessMethod::execute_with_cost`],
/// and [`AccessMethod::size_bytes`]. Everything else has a default in terms
/// of those, so an implementation is ~20 lines of delegation; specialized
/// structures override the defaults where they can do better (e.g. the
/// bitmap families answer [`AccessMethod::execute_count`] with a popcount,
/// never materializing row ids).
///
/// A minimal implementation — the semantic scan as an access method:
///
/// ```
/// use ibis_core::{scan, AccessMethod, Dataset, RangeQuery, Result, RowSet, WorkCounters};
/// use std::sync::Arc;
///
/// struct TruthScan(Arc<Dataset>);
///
/// impl AccessMethod for TruthScan {
///     fn name(&self) -> &'static str {
///         "truth-scan"
///     }
///     fn execute_with_cost(&self, query: &RangeQuery) -> Result<(RowSet, WorkCounters)> {
///         query.validate(&self.0)?;
///         let mut cost = WorkCounters::zero();
///         cost.entries_scanned = self.0.n_rows();
///         Ok((scan::execute(&self.0, query), cost))
///     }
///     fn size_bytes(&self) -> usize {
///         0 // scans store nothing beyond the data itself
///     }
/// }
///
/// let d = Arc::new(ibis_core::gen::census_scaled(200, 7));
/// let m = TruthScan(Arc::clone(&d));
/// let q = RangeQuery::new(
///     vec![ibis_core::Predicate::point(0, 1)],
///     ibis_core::MissingPolicy::IsMatch,
/// )
/// .unwrap();
/// // The default methods all follow from execute_with_cost…
/// assert_eq!(m.execute(&q).unwrap(), scan::execute(&d, &q));
/// assert_eq!(m.execute_count(&q).unwrap(), m.execute(&q).unwrap().len());
/// // …including the thread-degree contract: same rows, same counters.
/// assert_eq!(
///     m.execute_with_cost_threads(&q, 8).unwrap(),
///     m.execute_with_cost(&q).unwrap(),
/// );
/// ```
pub trait AccessMethod: Send + Sync {
    /// Stable identifier used by the planner, `explain()` output, and
    /// experiment tables (e.g. `"bitmap-range"`).
    fn name(&self) -> &'static str;

    /// Answers `query` exactly, also reporting the work performed.
    fn execute_with_cost(&self, query: &RangeQuery) -> Result<(RowSet, WorkCounters)>;

    /// Heap bytes of the index structure — the paper's size metric.
    fn size_bytes(&self) -> usize;

    /// Whether this method can answer `query` at all. Most methods answer
    /// everything; the §4.2 rejected in-band encodings hard-wire one
    /// [`crate::MissingPolicy`] and decline the other.
    fn supports(&self, query: &RangeQuery) -> bool {
        let _ = query;
        true
    }

    /// Estimated cost of answering `query`, in 64-bit words processed —
    /// the planner's ranking key (§6 generalized beyond BEE/BRE). The
    /// default charges for reading the whole structure; real families
    /// override with their per-predicate rules.
    fn estimated_cost(&self, query: &RangeQuery) -> f64 {
        let _ = query;
        self.size_bytes() as f64 / 8.0
    }

    /// Answers `query` exactly, using up to `threads` workers for the
    /// intra-query work (row-range–partitioned scans, per-attribute bitmap
    /// fetch/combine). The contract, enforced by the conformance suite: for
    /// any `threads`, the returned `RowSet` **and** the merged
    /// `WorkCounters` are identical to [`AccessMethod::execute_with_cost`].
    /// The default ignores `threads` and runs sequentially; families with a
    /// parallel plan override it.
    fn execute_with_cost_threads(
        &self,
        query: &RangeQuery,
        threads: usize,
    ) -> Result<(RowSet, WorkCounters)> {
        let _ = threads;
        self.execute_with_cost(query)
    }

    /// Answers `query` exactly.
    fn execute(&self, query: &RangeQuery) -> Result<RowSet> {
        Ok(self.execute_with_cost(query)?.0)
    }

    /// Answers `query` exactly with up to `threads` workers (see
    /// [`AccessMethod::execute_with_cost_threads`]).
    fn execute_threads(&self, query: &RangeQuery, threads: usize) -> Result<RowSet> {
        Ok(self.execute_with_cost_threads(query, threads)?.0)
    }

    /// Counts matching rows — a `COUNT(*)` aggregation. Bitmap families
    /// override this with a popcount that never materializes row ids.
    fn execute_count(&self, query: &RangeQuery) -> Result<usize> {
        Ok(self.execute_with_cost(query)?.0.len())
    }

    /// Answers a batch of independent queries, fanning them over up to
    /// `threads` workers via [`ExecPool`]. Results are in query order and
    /// identical to sequential [`AccessMethod::execute`] calls; the first
    /// error (in query order) is returned, and a worker panic surfaces as
    /// [`crate::Error::WorkerPanicked`] instead of aborting the process.
    fn execute_batch_threads(&self, queries: &[RangeQuery], threads: usize) -> Result<Vec<RowSet>> {
        ExecPool::new(threads).try_map(queries.to_vec(), |q| self.execute(&q))
    }

    /// Answers a batch of queries at the process-wide configured degree
    /// ([`crate::parallel::configured_threads`]).
    fn execute_batch(&self, queries: &[RangeQuery]) -> Result<Vec<RowSet>> {
        self.execute_batch_threads(queries, configured_threads())
    }
}

/// Partitions a FIFO queue of queries into batches of *compatible* queries
/// for [`AccessMethod::execute_batch_threads`]-style dispatch, returning
/// groups of indexes into `queries`.
///
/// Two queries are compatible when they share a [`crate::MissingPolicy`]:
/// a batch then exercises one semantics end to end, so per-shard synopsis
/// pruning and the planner's per-policy cost rules stay coherent across
/// the whole dispatch. The grouping is greedy and order-preserving:
///
/// * the oldest unbatched query opens a batch and fixes its policy;
/// * every later query with the same policy joins, up to `max_batch`
///   (`0` is treated as `1` — no coalescing);
/// * queries of the other policy are never reordered *within* their own
///   policy class, so per-policy FIFO fairness is preserved.
///
/// Every index in `0..queries.len()` appears in exactly one batch. The
/// network server drains its request queue through this hook; batching
/// amortizes snapshot acquisition and thread-pool dispatch over many
/// queries without ever mixing semantics inside one dispatch.
///
/// ```
/// use ibis_core::engine::coalesce_compatible;
/// use ibis_core::{MissingPolicy, Predicate, RangeQuery};
///
/// let q = |policy| RangeQuery::new(vec![Predicate::point(0, 1)], policy).unwrap();
/// let queue = vec![
///     q(MissingPolicy::IsMatch),
///     q(MissingPolicy::IsNotMatch),
///     q(MissingPolicy::IsMatch),
/// ];
/// let batches = coalesce_compatible(&queue, 8);
/// assert_eq!(batches, vec![vec![0, 2], vec![1]]);
/// ```
pub fn coalesce_compatible(queries: &[RangeQuery], max_batch: usize) -> Vec<Vec<usize>> {
    let max_batch = max_batch.max(1);
    let mut batches: Vec<Vec<usize>> = Vec::new();
    let mut batched = vec![false; queries.len()];
    for start in 0..queries.len() {
        if batched[start] {
            continue;
        }
        let policy = queries[start].policy();
        let mut batch = vec![start];
        batched[start] = true;
        for (later, seen) in batched.iter_mut().enumerate().skip(start + 1) {
            if batch.len() >= max_batch {
                break;
            }
            if !*seen && queries[later].policy() == policy {
                *seen = true;
                batch.push(later);
            }
        }
        batches.push(batch);
    }
    batches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Interval, MissingPolicy, Predicate};

    #[test]
    fn counters_accumulate_and_add() {
        let mut c = WorkCounters::zero();
        c.read_bitmap();
        c.read_bitmaps(2);
        c.op();
        assert_eq!(c.bitmaps_accessed, 3);
        assert_eq!(c.logical_ops, 1);

        let mut d = WorkCounters::zero();
        d.subqueries = 4;
        d.rows_refined = 7;
        let sum = c + d;
        assert_eq!(sum.bitmaps_accessed, 3);
        assert_eq!(sum.subqueries, 4);
        assert_eq!(sum.rows_refined, 7);

        let mut e = WorkCounters::zero();
        e += sum;
        e += sum;
        assert_eq!(e.logical_ops, 2);
    }

    /// A trivial in-memory method exercising every default implementation.
    struct Everything {
        n_rows: u32,
    }

    impl AccessMethod for Everything {
        fn name(&self) -> &'static str {
            "everything"
        }

        fn execute_with_cost(&self, _query: &RangeQuery) -> Result<(RowSet, WorkCounters)> {
            let mut c = WorkCounters::zero();
            c.entries_scanned = self.n_rows as usize;
            Ok((RowSet::all(self.n_rows), c))
        }

        fn size_bytes(&self) -> usize {
            64
        }
    }

    fn q(lo: u16, hi: u16) -> RangeQuery {
        RangeQuery::new(
            vec![Predicate {
                attr: 0,
                interval: Interval::new(lo, hi),
            }],
            MissingPolicy::IsMatch,
        )
        .unwrap()
    }

    #[test]
    fn defaults_delegate_to_execute_with_cost() {
        let m = Everything { n_rows: 9 };
        assert_eq!(m.execute(&q(1, 3)).unwrap(), RowSet::all(9));
        assert_eq!(m.execute_count(&q(1, 3)).unwrap(), 9);
        assert!(m.supports(&q(1, 3)));
        assert_eq!(m.estimated_cost(&q(1, 3)), 8.0);

        let queries: Vec<RangeQuery> = (1..=20).map(|i| q(1, i)).collect();
        let batch = m.execute_batch(&queries).unwrap();
        assert_eq!(batch.len(), 20);
        for r in &batch {
            assert_eq!(r, &RowSet::all(9));
        }
    }

    #[test]
    fn trait_is_object_safe() {
        let boxed: Box<dyn AccessMethod> = Box::new(Everything { n_rows: 2 });
        assert_eq!(boxed.name(), "everything");
        assert_eq!(boxed.execute_count(&q(1, 1)).unwrap(), 2);
    }

    #[test]
    fn merge_saturates_instead_of_wrapping() {
        // Every field at usize::MAX merged with itself: a wrapping add
        // would panic in debug builds and report garbage in release.
        let mut maxed = WorkCounters::zero();
        for name in WorkCounters::FIELD_NAMES {
            *maxed.field_mut(name).unwrap() = usize::MAX;
        }
        let mut merged = maxed;
        merged.merge(maxed);
        assert_eq!(merged, maxed);

        let mut c = maxed;
        c.read_bitmap();
        c.read_bitmaps(3);
        c.op();
        assert_eq!(c.bitmaps_accessed, usize::MAX);
        assert_eq!(c.logical_ops, usize::MAX);
        assert_eq!(c.words_processed, usize::MAX);
    }

    #[test]
    fn diff_inverts_merge() {
        let mut earlier = WorkCounters::zero();
        earlier.read_bitmaps(2);
        earlier.candidates = 10;
        let mut delta = WorkCounters::zero();
        delta.op();
        delta.candidates = 5;
        delta.rows_refined = 3;

        let total = earlier + delta;
        assert_eq!(total.diff(&earlier), delta);
        // Diffing in the wrong order clamps at zero instead of wrapping.
        assert_eq!(earlier.diff(&total), WorkCounters::zero());
    }

    #[test]
    fn display_is_an_aligned_table_of_nonzero_fields() {
        let mut c = WorkCounters::zero();
        c.read_bitmaps(12);
        c.words_processed = 4096;
        let text = c.to_string();
        assert_eq!(
            text,
            "  bitmaps_accessed                 12\n  words_processed                4096"
        );
        assert_eq!(WorkCounters::zero().to_string(), "  (no work recorded)");
    }

    #[test]
    fn fields_round_trip_through_names() {
        let mut c = WorkCounters::zero();
        for (i, name) in WorkCounters::FIELD_NAMES.iter().enumerate() {
            *c.field_mut(name).unwrap() = i + 1;
        }
        assert!(c.field_mut("not_a_counter").is_none());
        let pairs = c.fields();
        assert_eq!(pairs.len(), WorkCounters::FIELD_NAMES.len());
        let back = WorkCounters::from_fields(pairs.iter().map(|&(n, v)| (n, v as u64)));
        assert_eq!(back, c);
        // Unknown names are ignored, duplicates accumulate.
        let twice =
            WorkCounters::from_fields([("logical_ops", 2), ("attr", 9), ("logical_ops", 3)]);
        assert_eq!(twice.logical_ops, 5);
        assert_eq!(twice, {
            let mut w = WorkCounters::zero();
            w.logical_ops = 5;
            w
        });
    }

    #[test]
    fn merge_equals_add_assign() {
        let mut a = WorkCounters::zero();
        a.read_bitmaps(2);
        a.candidates = 5;
        let mut b = WorkCounters::zero();
        b.op();
        b.candidates = 3;
        let mut merged = a;
        merged.merge(b);
        assert_eq!(merged, a + b);
        assert_eq!(merged.candidates, 8);
    }

    #[test]
    fn threaded_defaults_match_sequential() {
        let m = Everything { n_rows: 31 };
        let query = q(1, 4);
        let (seq_rows, seq_cost) = m.execute_with_cost(&query).unwrap();
        for threads in [1, 2, 8] {
            let (rows, cost) = m.execute_with_cost_threads(&query, threads).unwrap();
            assert_eq!(rows, seq_rows);
            assert_eq!(cost, seq_cost);
            assert_eq!(m.execute_threads(&query, threads).unwrap(), seq_rows);
        }
        let queries: Vec<RangeQuery> = (1..=9).map(|i| q(1, i)).collect();
        for threads in [1, 3] {
            let batch = m.execute_batch_threads(&queries, threads).unwrap();
            assert_eq!(batch.len(), 9);
            assert!(batch.iter().all(|r| r == &RowSet::all(31)));
        }
    }

    /// A method that panics on execution, to prove batch fan-out contains
    /// worker panics instead of taking down the process.
    struct Exploding;

    impl AccessMethod for Exploding {
        fn name(&self) -> &'static str {
            "exploding"
        }

        fn execute_with_cost(&self, query: &RangeQuery) -> Result<(RowSet, WorkCounters)> {
            panic!("kaboom on {:?}", query.predicates()[0].interval);
        }

        fn size_bytes(&self) -> usize {
            0
        }
    }

    fn qp(policy: MissingPolicy) -> RangeQuery {
        RangeQuery::new(vec![Predicate::point(0, 1)], policy).unwrap()
    }

    #[test]
    fn coalesce_groups_by_policy_preserving_fifo_order() {
        use MissingPolicy::{IsMatch as M, IsNotMatch as N};
        let queue: Vec<RangeQuery> = [M, N, M, N, N, M].into_iter().map(qp).collect();
        let batches = coalesce_compatible(&queue, 8);
        assert_eq!(batches, vec![vec![0, 2, 5], vec![1, 3, 4]]);
        // Every index exactly once.
        let mut all: Vec<usize> = batches.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..queue.len()).collect::<Vec<_>>());
    }

    #[test]
    fn coalesce_respects_max_batch_and_zero_means_one() {
        use MissingPolicy::IsMatch as M;
        let queue: Vec<RangeQuery> = std::iter::repeat_with(|| qp(M)).take(5).collect();
        let batches = coalesce_compatible(&queue, 2);
        assert_eq!(batches, vec![vec![0, 1], vec![2, 3], vec![4]]);
        let singles = coalesce_compatible(&queue, 0);
        assert_eq!(singles.len(), 5);
        assert!(singles.iter().all(|b| b.len() == 1));
        assert!(coalesce_compatible(&[], 4).is_empty());
    }

    #[test]
    fn batch_contains_worker_panics_as_errors() {
        let m = Exploding;
        let queries: Vec<RangeQuery> = (1..=8).map(|i| q(1, i)).collect();
        for threads in [1, 4] {
            match m.execute_batch_threads(&queries, threads) {
                Err(crate::Error::WorkerPanicked { detail }) => {
                    assert!(detail.contains("kaboom"), "{detail}")
                }
                other => panic!("expected WorkerPanicked, got {other:?}"),
            }
        }
    }
}
