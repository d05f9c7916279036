//! Shared query driver behind every bitmap family's [`ibis_core::AccessMethod`]
//! implementation, and the counted bitmap operations every family uses.
//!
//! All four recommended encodings (BEE, BRE, BIE, decomposed) and both §4.2
//! rejected in-band encodings execute a query the same way: validate the
//! search key against the schema, evaluate each predicate's interval to a
//! bitmap, and AND the per-predicate answers together (§4.1). The
//! [`BitmapExec`] view plus [`run_with_cost`]/[`run_count`] below hold the
//! single copy of that driver; the families differ only in how one interval
//! is evaluated, on every backend.
//!
//! `words_processed` is measured where an operation happens, through
//! [`read`], [`or`], [`and`], [`xor`] and [`not`]: a stored bitmap taken as
//! it is charges its words once, a binary operation charges both operands,
//! and NOT charges its operand. The words are what [`BitStore::tally`]
//! reports for each operand — the encoded size for plain, WAH and BBC, the
//! container payloads (and container shapes) for adaptive. `bitmaps_accessed`
//! is counted where a family looks a stored bitmap up; every operation
//! helper counts one logical op.

use crate::cost::QueryCost;
use ibis_bitvec::{BitStore, OpTally};
use ibis_core::parallel::ExecPool;
use ibis_core::{Interval, MissingPolicy, Predicate, RangeQuery, Result, RowSet};

/// Charges one operand read to `cost`: its measured words and, for the
/// adaptive store, its containers by shape.
fn charge<B: BitStore>(b: &B, cost: &mut QueryCost) {
    let mut t = OpTally::default();
    b.tally(&mut t);
    cost.words_processed = cost.words_processed.saturating_add(t.words as usize);
    cost.containers_array = cost.containers_array.saturating_add(t.array as usize);
    cost.containers_bitmap = cost.containers_bitmap.saturating_add(t.bitmap as usize);
    cost.containers_run = cost.containers_run.saturating_add(t.run as usize);
}

/// A stored bitmap taken as it is (an interval's answer, or the seed of an
/// OR chain): charges its words once and returns an owned copy.
pub(crate) fn read<B: BitStore>(b: &B, cost: &mut QueryCost) -> B {
    charge(b, cost);
    b.clone()
}

/// `a OR b`: one logical op, both operands charged.
pub(crate) fn or<B: BitStore>(a: &B, b: &B, cost: &mut QueryCost) -> B {
    binary(a, b, cost, B::or)
}

/// `a AND b`: one logical op, both operands charged.
pub(crate) fn and<B: BitStore>(a: &B, b: &B, cost: &mut QueryCost) -> B {
    binary(a, b, cost, B::and)
}

/// `a XOR b`: one logical op, both operands charged.
pub(crate) fn xor<B: BitStore>(a: &B, b: &B, cost: &mut QueryCost) -> B {
    binary(a, b, cost, B::xor)
}

/// `NOT a`: one logical op, the operand charged.
pub(crate) fn not<B: BitStore>(a: &B, cost: &mut QueryCost) -> B {
    cost.op();
    charge(a, cost);
    a.not()
}

fn binary<B: BitStore>(a: &B, b: &B, cost: &mut QueryCost, f: impl Fn(&B, &B) -> B) -> B {
    cost.op();
    charge(a, cost);
    charge(b, cost);
    f(a, b)
}

/// The uniform internal view of a bitmap index: just enough structure for
/// the shared driver — schema dimensions plus per-interval evaluation.
pub(crate) trait BitmapExec {
    /// Bitmap backend.
    type Store: BitStore;

    /// Number of indexed rows.
    fn exec_rows(&self) -> usize;

    /// Number of indexed attributes.
    fn exec_attrs(&self) -> usize;

    /// Cardinality of attribute `attr`.
    fn exec_cardinality(&self, attr: usize) -> u16;

    /// Evaluates one (validated) interval over one attribute, accumulating
    /// bitmap reads, logical ops and measured words into `cost`.
    fn exec_interval(
        &self,
        attr: usize,
        iv: Interval,
        policy: MissingPolicy,
        cost: &mut QueryCost,
    ) -> Self::Store;
}

/// Evaluates one predicate's interval under a `bitmap.fetch` span that
/// carries the evaluation's counters.
fn fetch<T: BitmapExec>(ix: &T, p: &Predicate, policy: MissingPolicy) -> (T::Store, QueryCost) {
    let mut span = ibis_obs::span("bitmap.fetch");
    let mut c = QueryCost::zero();
    let b = ix.exec_interval(p.attr, p.interval, policy, &mut c);
    span.add_field("attr", p.attr as u64);
    c.record_into(&mut span);
    (b, c)
}

/// ANDs the per-predicate answers in predicate order under a
/// `bitmap.and_reduce` span, charging both operands of every AND, and
/// turns the result into rows (an empty search key matches every row).
///
/// Sequential on purpose, also in the threaded driver: a tree reduce would
/// combine different *intermediate* bitmaps than the left fold, so the
/// measured words would depend on the thread count. The reduce is `k − 1`
/// ANDs over already-evaluated answers — the cheap tail of the query — so
/// fetch-side parallelism is kept and the counters stay degree-invariant.
fn and_reduce<B: BitStore>(answers: Vec<B>, n_rows: usize, cost: &mut QueryCost) -> RowSet {
    let mut it = answers.into_iter();
    let Some(first) = it.next() else {
        return RowSet::all(n_rows as u32);
    };
    let mut span = ibis_obs::span("bitmap.and_reduce");
    let mut rc = QueryCost::zero();
    let acc = it.fold(first, |a, b| and(&a, &b, &mut rc));
    rc.record_into(&mut span);
    drop(span);
    *cost += rc;
    RowSet::from_sorted(acc.ones_positions())
}

/// Executes `query` over `ix`, returning matching rows and work counters.
///
/// Each per-predicate interval evaluation runs under a `bitmap.fetch` span
/// and the final AND of the per-predicate answers under `bitmap.and_reduce`,
/// both carrying their counter deltas, so a profile's phases sum exactly to
/// the query's counters.
pub(crate) fn run_with_cost<T: BitmapExec + Sync>(
    ix: &T,
    query: &RangeQuery,
) -> Result<(RowSet, QueryCost)> {
    run_with_cost_threads(ix, query, 1)
}

/// [`run_with_cost`] with up to `threads` workers: the per-predicate
/// interval evaluations (bitmap fetch + OR/complement combine) fan out
/// across attributes, then the answers are ANDed in predicate order as in
/// the sequential run. Each interval's cost accrues into its own counter
/// before an ordered merge, so the rows and the [`QueryCost`] match the
/// sequential run field for field.
pub(crate) fn run_with_cost_threads<T: BitmapExec + Sync>(
    ix: &T,
    query: &RangeQuery,
    threads: usize,
) -> Result<(RowSet, QueryCost)> {
    query.validate_schema(ix.exec_attrs(), |a| ix.exec_cardinality(a))?;
    let policy = query.policy();
    // One predicate (or none) has no intra-query parallelism to exploit.
    let partials: Vec<(T::Store, QueryCost)> = if threads <= 1 || query.dimensionality() < 2 {
        query
            .predicates()
            .iter()
            .map(|p| fetch(ix, p, policy))
            .collect()
    } else {
        // Each fetch nests under the pool.worker span of whichever thread
        // runs it.
        ExecPool::new(threads).map(query.predicates().to_vec(), |p| fetch(ix, &p, policy))
    };
    let mut cost = QueryCost::zero();
    let answers = partials
        .into_iter()
        .map(|(b, c)| {
            cost += c;
            b
        })
        .collect();
    let rows = and_reduce(answers, ix.exec_rows(), &mut cost);
    Ok((rows, cost))
}

/// Counts matching rows without materializing row ids — a COUNT(*) straight
/// off the final bitmap's population count. This is the popcount override
/// every bitmap family plugs into [`ibis_core::AccessMethod::execute_count`].
pub(crate) fn run_count<T: BitmapExec>(ix: &T, query: &RangeQuery) -> Result<usize> {
    query.validate_schema(ix.exec_attrs(), |a| ix.exec_cardinality(a))?;
    let mut cost = QueryCost::zero();
    let mut acc: Option<T::Store> = None;
    for p in query.predicates() {
        let b = ix.exec_interval(p.attr, p.interval, query.policy(), &mut cost);
        acc = Some(match acc {
            None => b,
            Some(x) => and(&x, &b, &mut cost),
        });
    }
    Ok(match acc {
        None => ix.exec_rows(),
        Some(b) => b.count_ones(),
    })
}

/// 64-bit words per stored bitmap — the unit the families' planner cost
/// estimates are stated in (uncompressed bound, as in the paper's §6 rules).
pub(crate) fn words_per_bitmap(n_rows: usize) -> f64 {
    n_rows.div_ceil(64) as f64
}

/// Sums a per-predicate bitmap-read estimate over the search key and scales
/// it to words; out-of-schema predicates price as infinite so the planner
/// never picks a method that would just error.
pub(crate) fn estimate_words<T: BitmapExec>(
    ix: &T,
    query: &RangeQuery,
    reads_for: impl Fn(f64, f64) -> f64,
) -> f64 {
    let wpb = words_per_bitmap(ix.exec_rows());
    query
        .predicates()
        .iter()
        .map(|p| {
            if p.attr >= ix.exec_attrs() {
                return f64::INFINITY;
            }
            let c = ix.exec_cardinality(p.attr) as f64;
            let w = (p.interval.hi.saturating_sub(p.interval.lo)) as f64 + 1.0;
            if w > c {
                return f64::INFINITY;
            }
            reads_for(w, c) * wpb
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bee::EqualityBitmapIndex;
    use crate::bre::RangeBitmapIndex;
    use ibis_bitvec::Wah;
    use ibis_core::{Cell, Dataset, Predicate, RangeQuery};

    fn data() -> Dataset {
        let m = Cell::MISSING;
        let v = Cell::present;
        Dataset::from_rows(
            &[("a", 6), ("b", 6), ("c", 6)],
            &[
                vec![v(5), v(2), v(1)],
                vec![m, v(5), v(4)],
                vec![v(3), m, v(2)],
                vec![v(2), v(4), m],
                vec![v(6), v(1), v(6)],
                vec![v(1), v(3), v(3)],
                vec![m, m, m],
                vec![v(4), v(6), v(5)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn threaded_driver_matches_sequential_rows_and_cost() {
        let d = data();
        let bee = EqualityBitmapIndex::<Wah>::build(&d);
        let bre = RangeBitmapIndex::<Wah>::build(&d);
        for policy in ibis_core::MissingPolicy::ALL {
            let q = RangeQuery::new(
                vec![
                    Predicate::range(0, 2, 5),
                    Predicate::range(1, 1, 4),
                    Predicate::range(2, 2, 6),
                ],
                policy,
            )
            .unwrap();
            let seq_bee = run_with_cost(&bee, &q).unwrap();
            let seq_bre = run_with_cost(&bre, &q).unwrap();
            for threads in [1, 2, 3, 8] {
                assert_eq!(
                    run_with_cost_threads(&bee, &q, threads).unwrap(),
                    seq_bee,
                    "bee {policy} t={threads}"
                );
                assert_eq!(
                    run_with_cost_threads(&bre, &q, threads).unwrap(),
                    seq_bre,
                    "bre {policy} t={threads}"
                );
            }
        }
    }

    #[test]
    fn threaded_driver_falls_back_on_narrow_queries() {
        let d = data();
        let bee = EqualityBitmapIndex::<Wah>::build(&d);
        for preds in [vec![], vec![Predicate::point(1, 4)]] {
            let q = RangeQuery::new(preds, ibis_core::MissingPolicy::IsNotMatch).unwrap();
            assert_eq!(
                run_with_cost_threads(&bee, &q, 8).unwrap(),
                run_with_cost(&bee, &q).unwrap()
            );
        }
    }
}
