//! Bitmap Equality Encoding (BEE) — §4.2 of the paper.

use crate::cost::QueryCost;
use crate::engine::{self, BitmapExec};
use crate::size::{AttrSize, SizeReport};
use ibis_bitvec::{Adaptive, BitStore};
use ibis_core::{AccessMethod, Dataset, Interval, MissingPolicy, RangeQuery, Result, RowSet};

/// Equality-encoded bitmap index over an incomplete relation.
///
/// For attribute `A_i` with cardinality `C_i`, bitmap `B_{i,j}` (`1 ≤ j ≤
/// C_i`) flags the rows whose value is exactly `j`. Attributes that contain
/// missing data get one extra bitmap `B_{i,0}` flagging the missing rows —
/// the paper's chosen design, kept because WAH compresses the (typically
/// sparse or very dense) missing bitmap well, and because the in-band
/// alternatives break the NOT operator and cardinality-1 attributes (see
/// [`crate::rejected`]).
///
/// Query evaluation follows Fig. 2: each interval is answered by ORing the
/// cheaper of the in-range or out-of-range bitmap sets (complementing in the
/// latter case), giving the paper's worst-case bound of
/// `min(AS, 1−AS)·C + 1` bitmap reads per dimension.
///
/// Over the [`Adaptive`] container backend the index registers with the
/// planner as `"bitmap-adaptive"` and scales its cost estimate by its
/// measured compression ratio; every other backend is `"bitmap-equality"`
/// priced at the uncompressed §6 bound.
///
/// ```
/// use ibis_bitmap::EqualityBitmapIndex;
/// use ibis_bitvec::Adaptive;
/// use ibis_core::{AccessMethod, Cell, Dataset, MissingPolicy, Predicate, RangeQuery};
///
/// let data = Dataset::from_rows(
///     &[("grade", 5)],
///     &[vec![Cell::present(4)], vec![Cell::MISSING], vec![Cell::present(1)]],
/// )?;
/// let idx = EqualityBitmapIndex::<Adaptive>::build(&data);
/// assert_eq!(idx.name(), "bitmap-adaptive");
/// let q = RangeQuery::new(vec![Predicate::range(0, 3, 5)], MissingPolicy::IsMatch)?;
/// let (rows, cost) = idx.execute_with_cost(&q)?;
/// assert_eq!(rows.rows(), &[0, 1]); // row 1 matches via missing
/// // Every operand container is classified by shape: under 2^16 rows each
/// // bitmap is one container, read once per lookup or operation.
/// assert_eq!(
///     cost.containers_array + cost.containers_bitmap + cost.containers_run,
///     cost.bitmaps_accessed + cost.logical_ops,
/// );
/// # Ok::<(), ibis_core::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct EqualityBitmapIndex<B: BitStore> {
    attrs: Vec<BeeAttr<B>>,
    n_rows: usize,
}

#[derive(Clone, Debug)]
struct BeeAttr<B> {
    cardinality: u16,
    /// `B_{i,0}`; `None` when the column has no missing rows (the paper only
    /// adds the extra bitmap "for each attribute with missing data").
    missing: Option<B>,
    /// `values[v-1]` = `B_{i,v}`.
    values: Vec<B>,
}

impl<B: BitStore> EqualityBitmapIndex<B> {
    /// Builds the index over every column of `dataset`.
    pub fn build(dataset: &Dataset) -> Self {
        let attrs = dataset.columns().iter().map(Self::build_attr).collect();
        EqualityBitmapIndex {
            attrs,
            n_rows: dataset.n_rows(),
        }
    }

    fn build_attr(col: &ibis_core::Column) -> BeeAttr<B> {
        let mut bitvecs = crate::equality_bitvecs(col);
        let values_bv = bitvecs.split_off(1);
        let missing_bv = bitvecs.pop().expect("index 0 is the missing bitmap");
        BeeAttr {
            cardinality: col.cardinality(),
            missing: (missing_bv.count_ones() > 0).then(|| B::from_bitvec(&missing_bv)),
            values: values_bv.iter().map(B::from_bitvec).collect(),
        }
    }

    /// Like [`Self::build`], but fanning columns over `n_threads` OS
    /// threads (the paper's synthetic set has 450 independent attributes).
    pub fn build_parallel(dataset: &Dataset, n_threads: usize) -> Self
    where
        B: Send,
    {
        let attrs = ibis_core::parallel::parallel_map(
            dataset.columns().iter().collect(),
            n_threads,
            Self::build_attr,
        );
        EqualityBitmapIndex {
            attrs,
            n_rows: dataset.n_rows(),
        }
    }

    /// Number of indexed rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Appends one record in place: every stored bitmap grows by one bit
    /// (`O(Σ C_i)` pushes; with the WAH backend each push is amortized
    /// O(1)). The first missing value on a previously-complete attribute
    /// materializes its `B_0`.
    ///
    /// # Errors
    /// Rejects rows of the wrong width or with out-of-domain values,
    /// leaving the index unchanged.
    pub fn append_row(&mut self, row: &[ibis_core::Cell]) -> Result<()> {
        ibis_core::validate_row(row, |a| self.attrs[a].cardinality, self.attrs.len())?;
        for (&cell, a) in row.iter().zip(&mut self.attrs) {
            let raw = cell.raw();
            if raw == 0 && a.missing.is_none() {
                a.missing = Some(B::zeros(self.n_rows));
            }
            if let Some(m) = &mut a.missing {
                m.push_bit(raw == 0);
            }
            for (j, b) in a.values.iter_mut().enumerate() {
                b.push_bit(raw as usize == j + 1);
            }
        }
        self.n_rows += 1;
        Ok(())
    }

    /// Number of indexed attributes.
    pub fn n_attrs(&self) -> usize {
        self.attrs.len()
    }

    /// Total number of stored bitmaps (`Σ_i C_i` plus one per attribute with
    /// missing data).
    pub fn n_bitmaps(&self) -> usize {
        self.attrs
            .iter()
            .map(|a| a.values.len() + usize::from(a.missing.is_some()))
            .sum()
    }

    /// Per-attribute and total size accounting.
    pub fn size_report(&self) -> SizeReport {
        let per_attr = self
            .attrs
            .iter()
            .enumerate()
            .map(|(attr, a)| {
                let n_bitmaps = a.values.len() + usize::from(a.missing.is_some());
                let bytes = a.values.iter().map(B::size_bytes).sum::<usize>()
                    + a.missing.as_ref().map_or(0, B::size_bytes);
                AttrSize::new(attr, n_bitmaps, bytes, self.n_rows)
            })
            .collect();
        SizeReport { per_attr }
    }

    /// Total bytes of all stored bitmaps.
    pub fn size_bytes(&self) -> usize {
        self.size_report().total_bytes()
    }

    /// Evaluates one interval over one attribute (Fig. 2), accumulating
    /// work counters into `cost`.
    ///
    /// # Panics
    /// Panics if `attr` or the interval is out of range; [`Self::execute`]
    /// validates first.
    pub fn evaluate_interval(
        &self,
        attr: usize,
        iv: Interval,
        policy: MissingPolicy,
        cost: &mut QueryCost,
    ) -> B {
        let a = &self.attrs[attr];
        let c = a.cardinality as usize;
        let (v1, v2) = (iv.lo as usize, iv.hi as usize);
        assert!(
            v1 >= 1 && v2 <= c,
            "interval [{v1},{v2}] outside domain 1..={c}"
        );

        // Fig. 2: OR the in-range bitmaps when the range spans at most half
        // the domain; otherwise OR the out-of-range bitmaps and complement.
        // Choose the smaller bitmap set (the paper's prose: complement when
        // the range "includes more than half of the cardinality"; Fig. 2's
        // span test v2−v1 ≤ ⌊C/2⌋ can pick the larger side for even C —
        // comparing set sizes keeps the min(AS, 1−AS)·C + 1 bound tight).
        let width = v2 - v1 + 1;
        if width <= c - width {
            let mut acc = crate::or_all(a.values[v1 - 1..v2].iter(), cost)
                .expect("in-range set is non-empty");
            if policy == MissingPolicy::IsMatch {
                if let Some(m) = &a.missing {
                    cost.read_bitmap();
                    acc = engine::or(&acc, m, cost);
                }
            }
            acc
        } else {
            let outside = a.values[..v1 - 1].iter().chain(a.values[v2..].iter());
            let mut acc = crate::or_all(outside, cost);
            if policy == MissingPolicy::IsNotMatch {
                // Missing rows are 0 in every value bitmap, so the plain
                // complement would (re-)include them; OR `B_0` in first.
                if let Some(m) = &a.missing {
                    cost.read_bitmap();
                    acc = Some(match acc {
                        Some(x) => engine::or(&x, m, cost),
                        None => engine::read(m, cost),
                    });
                }
            }
            match acc {
                Some(x) => engine::not(&x, cost),
                None => B::ones(self.n_rows), // full-domain range, no exclusions
            }
        }
    }

    /// Executes a query, also returning the work counters.
    /// ([`AccessMethod::execute`] / [`AccessMethod::execute_count`] cover
    /// the plain and counting forms.)
    pub fn execute_with_cost(&self, query: &RangeQuery) -> Result<(RowSet, QueryCost)> {
        engine::run_with_cost(self, query)
    }
}

impl<B: BitStore> BitmapExec for EqualityBitmapIndex<B> {
    type Store = B;

    fn exec_rows(&self) -> usize {
        self.n_rows
    }

    fn exec_attrs(&self) -> usize {
        self.attrs.len()
    }

    fn exec_cardinality(&self, attr: usize) -> u16 {
        self.attrs[attr].cardinality
    }

    fn exec_interval(
        &self,
        attr: usize,
        iv: Interval,
        policy: MissingPolicy,
        cost: &mut QueryCost,
    ) -> B {
        self.evaluate_interval(attr, iv, policy, cost)
    }
}

/// `true` when `B` is the adaptive container store.
fn is_adaptive<B: BitStore>() -> bool {
    B::backend_name() == Adaptive::backend_name()
}

impl<B: BitStore> AccessMethod for EqualityBitmapIndex<B> {
    fn name(&self) -> &'static str {
        if is_adaptive::<B>() {
            "bitmap-adaptive"
        } else {
            "bitmap-equality"
        }
    }

    fn execute_with_cost(&self, query: &RangeQuery) -> Result<(RowSet, QueryCost)> {
        EqualityBitmapIndex::execute_with_cost(self, query)
    }

    fn execute_with_cost_threads(
        &self,
        query: &RangeQuery,
        threads: usize,
    ) -> Result<(RowSet, QueryCost)> {
        engine::run_with_cost_threads(self, query, threads)
    }

    fn size_bytes(&self) -> usize {
        EqualityBitmapIndex::size_bytes(self)
    }

    fn execute_count(&self, query: &RangeQuery) -> Result<usize> {
        engine::run_count(self, query)
    }

    // §6: min(AS, 1−AS)·C + 1 bitmaps per dimension, scaled to words. The
    // adaptive store scales that uncompressed bound down by its measured
    // compression ratio, since its operations only touch stored container
    // words.
    fn estimated_cost(&self, query: &RangeQuery) -> f64 {
        let bound = engine::estimate_words(self, query, |w, c| w.min(c - w) + 1.0);
        if !is_adaptive::<B>() {
            return bound;
        }
        let uncompressed = engine::words_per_bitmap(self.n_rows) * self.n_bitmaps() as f64;
        if uncompressed == 0.0 {
            return bound;
        }
        let ratio = (self.size_bytes() as f64 / 8.0) / uncompressed;
        bound * ratio.min(1.0)
    }
}

impl EqualityBitmapIndex<Adaptive> {
    /// How many stored containers currently sit in each shape, as
    /// `(array, bitmap, run)` — the census the containers experiment
    /// reports.
    pub fn container_census(&self) -> (usize, usize, usize) {
        let mut total = (0, 0, 0);
        for a in &self.attrs {
            for b in a.values.iter().chain(a.missing.iter()) {
                let (ar, bm, rn) = b.kind_counts();
                total.0 += ar;
                total.1 += bm;
                total.2 += rn;
            }
        }
        total
    }
}

impl<B: BitStore> EqualityBitmapIndex<B> {
    const MAGIC: &'static [u8; 4] = b"IBEE";
    const VERSION: u16 = 1;

    /// Serializes the index (paper metric: "size of the requisite index
    /// files on disk").
    pub fn write_to(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        use ibis_core::wire::*;
        write_header(w, Self::MAGIC, Self::VERSION)?;
        write_str(w, B::backend_name())?;
        write_len(w, self.n_rows)?;
        write_len(w, self.attrs.len())?;
        for a in &self.attrs {
            write_u16(w, a.cardinality)?;
            write_u8(w, a.missing.is_some() as u8)?;
            if let Some(m) = &a.missing {
                m.write_to(w)?;
            }
            write_len(w, a.values.len())?;
            for v in &a.values {
                v.write_to(w)?;
            }
        }
        Ok(())
    }

    /// Deserializes an index written by [`Self::write_to`]. The backend
    /// recorded in the file must match `B`.
    pub fn read_from(r: &mut impl std::io::Read) -> std::io::Result<Self> {
        use ibis_core::wire::*;
        let (n_rows, n_attrs) = crate::read_index_preamble::<B>(r, Self::MAGIC, Self::VERSION)?;
        let mut attrs = Vec::with_capacity(n_attrs.min(1 << 20));
        for _ in 0..n_attrs {
            let cardinality = read_u16(r)?;
            if cardinality == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "zero cardinality in index file",
                ));
            }
            let missing = match read_u8(r)? {
                0 => None,
                _ => Some(B::read_from(r)?),
            };
            let n_values = read_len(r)?;
            if n_values != cardinality as usize {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "value-bitmap count disagrees with cardinality",
                ));
            }
            // Validated against the u16 cardinality above, but keep the
            // preallocation capped so a corrupt header can never trigger an
            // unbounded reservation (same guard as `BitVec64::read_from`).
            let mut values = Vec::with_capacity(n_values.min(1 << 16));
            for _ in 0..n_values {
                values.push(B::read_from(r)?);
            }
            for b in values.iter().chain(missing.iter()) {
                if b.len() != n_rows {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "bitmap length disagrees with row count",
                    ));
                }
            }
            attrs.push(BeeAttr {
                cardinality,
                missing,
                values,
            });
        }
        Ok(EqualityBitmapIndex { attrs, n_rows })
    }

    /// Writes the index to `path` (buffered).
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write_to(&mut w)?;
        use std::io::Write as _;
        w.flush()
    }

    /// Reads an index from `path` (buffered).
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let mut r = std::io::BufReader::new(std::fs::File::open(path)?);
        Self::read_from(&mut r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibis_bitvec::{BitVec64, Wah};
    use ibis_core::{scan, Cell, Column, Predicate};

    fn m() -> Cell {
        Cell::MISSING
    }
    fn v(x: u16) -> Cell {
        Cell::present(x)
    }

    /// The paper's Table 1/2 worked example: one attribute, cardinality 5,
    /// ten records, rows 4 and 9 missing (1-based).
    pub(super) fn table1() -> Dataset {
        Dataset::from_rows(
            &[("a1", 5)],
            &[
                vec![v(5)],
                vec![v(2)],
                vec![v(3)],
                vec![m()],
                vec![v(4)],
                vec![v(5)],
                vec![v(1)],
                vec![v(3)],
                vec![m()],
                vec![v(2)],
            ],
        )
        .unwrap()
    }

    fn bits_of<B: BitStore>(b: &B) -> String {
        let v = b.to_bitvec();
        (0..v.len())
            .map(|i| if v.get(i) { '1' } else { '0' })
            .collect()
    }

    #[test]
    fn table2_bitmaps_reproduced() {
        // Table 2 of the paper lists the equality bitmaps for Table 1.
        let idx = EqualityBitmapIndex::<BitVec64>::build(&table1());
        let a = &idx.attrs[0];
        assert_eq!(bits_of(a.missing.as_ref().unwrap()), "0001000010"); // B_{1,0}
        assert_eq!(bits_of(&a.values[0]), "0000001000"); // B_{1,1}
        assert_eq!(bits_of(&a.values[1]), "0100000001"); // B_{1,2}
        assert_eq!(bits_of(&a.values[2]), "0010000100"); // B_{1,3}
        assert_eq!(bits_of(&a.values[3]), "0000100000"); // B_{1,4}
        assert_eq!(bits_of(&a.values[4]), "1000010000"); // B_{1,5}
    }

    #[test]
    fn point_query_both_policies() {
        let d = table1();
        let idx = EqualityBitmapIndex::<Wah>::build(&d);
        let q = RangeQuery::new(vec![Predicate::point(0, 3)], MissingPolicy::IsMatch).unwrap();
        // Value 3 at rows 2, 7 (0-based); missing rows 3, 8 also match.
        assert_eq!(idx.execute(&q).unwrap().rows(), &[2, 3, 7, 8]);
        let q = q.with_policy(MissingPolicy::IsNotMatch);
        assert_eq!(idx.execute(&q).unwrap().rows(), &[2, 7]);
    }

    #[test]
    fn point_query_costs_match_paper() {
        // Match semantics needs "two bitmaps instead of one" for a point
        // query on an attribute with missing data (§4.2).
        let idx = EqualityBitmapIndex::<Wah>::build(&table1());
        let q = RangeQuery::new(vec![Predicate::point(0, 3)], MissingPolicy::IsMatch).unwrap();
        let (_, cost) = idx.execute_with_cost(&q).unwrap();
        assert_eq!(cost.bitmaps_accessed, 2);
        let q = q.with_policy(MissingPolicy::IsNotMatch);
        let (_, cost) = idx.execute_with_cost(&q).unwrap();
        assert_eq!(cost.bitmaps_accessed, 1);
    }

    #[test]
    fn wide_range_uses_complement() {
        // [1,4] over C=5 spans 4 > ⌊5/2⌋ → complement path reads only B_5
        // (plus B_0 under not-match).
        let d = table1();
        let idx = EqualityBitmapIndex::<Wah>::build(&d);
        let q = RangeQuery::new(vec![Predicate::range(0, 1, 4)], MissingPolicy::IsMatch).unwrap();
        let (rows, cost) = idx.execute_with_cost(&q).unwrap();
        assert_eq!(rows, scan::execute(&d, &q));
        assert_eq!(cost.bitmaps_accessed, 1);

        let q = q.with_policy(MissingPolicy::IsNotMatch);
        let (rows, cost) = idx.execute_with_cost(&q).unwrap();
        assert_eq!(rows, scan::execute(&d, &q));
        assert_eq!(cost.bitmaps_accessed, 2);
    }

    #[test]
    fn full_domain_range() {
        let d = table1();
        let idx = EqualityBitmapIndex::<Wah>::build(&d);
        let q = RangeQuery::new(vec![Predicate::range(0, 1, 5)], MissingPolicy::IsMatch).unwrap();
        assert_eq!(idx.execute(&q).unwrap(), RowSet::all(10));
        let q = q.with_policy(MissingPolicy::IsNotMatch);
        // Everything except the two missing rows.
        assert_eq!(idx.execute(&q).unwrap().rows(), &[0, 1, 2, 4, 5, 6, 7, 9]);
    }

    #[test]
    fn no_missing_column_stores_no_b0() {
        let col = Column::from_raw("a", 3, vec![1, 2, 3, 1]).unwrap();
        let d = Dataset::new(vec![col]).unwrap();
        let idx = EqualityBitmapIndex::<Wah>::build(&d);
        assert!(idx.attrs[0].missing.is_none());
        assert_eq!(idx.n_bitmaps(), 3);
        // Policies coincide on complete data.
        for iv in [Interval::point(2), Interval::new(1, 2), Interval::new(2, 3)] {
            let qm = RangeQuery::new(
                vec![Predicate {
                    attr: 0,
                    interval: iv,
                }],
                MissingPolicy::IsMatch,
            )
            .unwrap();
            let qn = qm.with_policy(MissingPolicy::IsNotMatch);
            assert_eq!(idx.execute(&qm).unwrap(), idx.execute(&qn).unwrap());
            assert_eq!(idx.execute(&qm).unwrap(), scan::execute(&d, &qm));
        }
    }

    #[test]
    fn multi_attribute_conjunction() {
        let d = Dataset::from_rows(
            &[("a", 4), ("b", 4)],
            &[
                vec![v(1), v(1)],
                vec![v(2), m()],
                vec![m(), v(2)],
                vec![v(2), v(2)],
                vec![v(4), v(4)],
            ],
        )
        .unwrap();
        let idx = EqualityBitmapIndex::<Wah>::build(&d);
        for policy in MissingPolicy::ALL {
            let q = RangeQuery::new(
                vec![Predicate::range(0, 1, 2), Predicate::point(1, 2)],
                policy,
            )
            .unwrap();
            assert_eq!(idx.execute(&q).unwrap(), scan::execute(&d, &q), "{policy}");
        }
    }

    #[test]
    fn empty_key_matches_all() {
        let idx = EqualityBitmapIndex::<Wah>::build(&table1());
        let q = RangeQuery::new(vec![], MissingPolicy::IsNotMatch).unwrap();
        assert_eq!(idx.execute(&q).unwrap(), RowSet::all(10));
    }

    #[test]
    fn invalid_queries_rejected() {
        let idx = EqualityBitmapIndex::<Wah>::build(&table1());
        let q = RangeQuery::new(vec![Predicate::point(3, 1)], MissingPolicy::IsMatch).unwrap();
        assert!(idx.execute(&q).is_err());
        let q = RangeQuery::new(vec![Predicate::point(0, 9)], MissingPolicy::IsMatch).unwrap();
        assert!(idx.execute(&q).is_err());
    }

    #[test]
    fn size_report_counts_extra_missing_bitmap() {
        let idx = EqualityBitmapIndex::<BitVec64>::build(&table1());
        let report = idx.size_report();
        assert_eq!(report.per_attr.len(), 1);
        assert_eq!(report.per_attr[0].n_bitmaps, 6); // C=5 plus B_0
        assert_eq!(report.total_uncompressed_bytes(), 6 * 2); // ceil(10/8)=2 each
        assert!(report.total_bytes() > 0);
    }

    fn differential_vs_scan<B: BitStore>() {
        let d = table1();
        let idx = EqualityBitmapIndex::<B>::build(&d);
        for policy in MissingPolicy::ALL {
            for lo in 1..=5u16 {
                for hi in lo..=5u16 {
                    let q = RangeQuery::new(vec![Predicate::range(0, lo, hi)], policy).unwrap();
                    assert_eq!(
                        idx.execute(&q).unwrap(),
                        scan::execute(&d, &q),
                        "{} {policy} [{lo},{hi}]",
                        B::backend_name()
                    );
                }
            }
        }
    }

    #[test]
    fn differential_vs_scan_exhaustive_intervals() {
        differential_vs_scan::<Wah>();
        differential_vs_scan::<BitVec64>();
        differential_vs_scan::<ibis_bitvec::Bbc>();
        differential_vs_scan::<Adaptive>();
    }
}

/// Measured `words_processed`, and the adaptive store's container counters
/// and compression-scaled estimate.
#[cfg(test)]
mod counter_tests {
    use super::*;
    use ibis_bitvec::{Bbc, BitVec64, Wah};
    use ibis_core::gen::{census_scaled, synthetic_scaled};
    use ibis_core::{Cell, Predicate};

    use super::tests::table1;

    fn three_predicates(policy: MissingPolicy) -> RangeQuery {
        RangeQuery::new(
            vec![
                Predicate::range(100, 1, 2),
                Predicate::point(107, 3),
                Predicate::range(213, 2, 8),
            ],
            policy,
        )
        .unwrap()
    }

    #[test]
    fn bitmap_and_op_counts_do_not_depend_on_the_backend() {
        // Same Fig. 2 evaluation on every store → same rows,
        // bitmaps_accessed and logical_ops; only the words differ.
        let d = synthetic_scaled(400, 7);
        let wah = EqualityBitmapIndex::<Wah>::build(&d);
        for policy in MissingPolicy::ALL {
            let q = three_predicates(policy);
            let (rows, c) = wah.execute_with_cost(&q).unwrap();
            let others = [
                EqualityBitmapIndex::<BitVec64>::build(&d).execute_with_cost(&q),
                EqualityBitmapIndex::<Bbc>::build(&d).execute_with_cost(&q),
                EqualityBitmapIndex::<Adaptive>::build(&d).execute_with_cost(&q),
            ];
            for (rows_o, c_o) in others.map(Result::unwrap) {
                assert_eq!(rows_o, rows, "{policy}");
                assert_eq!(c_o.bitmaps_accessed, c.bitmaps_accessed, "{policy}");
                assert_eq!(c_o.logical_ops, c.logical_ops, "{policy}");
            }
        }
    }

    #[test]
    fn plain_words_are_one_bitmap_per_read_and_op_plus_the_and_reduce() {
        // Every uncompressed operand is ⌈n/64⌉ words. A lookup feeds exactly
        // one OR (or is taken as it is), and an OR chain's accumulator feeds
        // the next op, so inside an interval the words are (reads + ops)
        // bitmaps' worth; each of the k − 1 ANDs of the reduce then reads
        // both of its operands.
        let d = synthetic_scaled(400, 7);
        let idx = EqualityBitmapIndex::<BitVec64>::build(&d);
        for policy in MissingPolicy::ALL {
            let q = three_predicates(policy);
            let (_, c) = idx.execute_with_cost(&q).unwrap();
            let k = q.dimensionality();
            assert_eq!(
                c.words_processed,
                (c.bitmaps_accessed + c.logical_ops + k - 1) * 400usize.div_ceil(64),
                "{policy}"
            );
        }
    }

    #[test]
    fn wah_words_are_measured_below_the_uncompressed_floor() {
        // Census columns are mostly missing or skewed, so their WAH
        // bitmaps compress well; measured words must come in under the
        // plain store's for the same bitmaps and operations.
        let d = census_scaled(20_000, 3);
        let plain = EqualityBitmapIndex::<BitVec64>::build(&d);
        let wah = EqualityBitmapIndex::<Wah>::build(&d);
        for policy in MissingPolicy::ALL {
            let q = RangeQuery::new(
                vec![Predicate::range(15, 10, 30), Predicate::range(47, 1, 40)],
                policy,
            )
            .unwrap();
            let (rows_p, cost_p) = plain.execute_with_cost(&q).unwrap();
            let (rows_w, cost_w) = wah.execute_with_cost(&q).unwrap();
            assert_eq!(rows_w, rows_p, "{policy}");
            assert_eq!(cost_w.bitmaps_accessed, cost_p.bitmaps_accessed, "{policy}");
            assert!(
                cost_w.words_processed < cost_p.words_processed,
                "{policy}: wah {} not below plain {}",
                cost_w.words_processed,
                cost_p.words_processed
            );
        }
    }

    #[test]
    fn container_counts_cover_every_read_and_op_operand() {
        // With single-chunk data (< 2^16 rows → one container per bitmap)
        // the accounting identity is exact: inside one interval evaluation
        // every read and every op contributes one freshly-tallied container
        // set (the OR chain's accumulator covers the other operand), so
        // `containers == bitmaps + ops` per predicate; each of the
        // `dimensionality − 1` AND-reduce ops then tallies both operands.
        let d = synthetic_scaled(300, 11);
        let idx = EqualityBitmapIndex::<Adaptive>::build(&d);
        for policy in MissingPolicy::ALL {
            let q = RangeQuery::new(
                vec![Predicate::range(102, 1, 3), Predicate::range(105, 2, 4)],
                policy,
            )
            .unwrap();
            let (_, cost) = idx.execute_with_cost(&q).unwrap();
            let touched = cost.containers_array + cost.containers_bitmap + cost.containers_run;
            assert_eq!(
                touched,
                cost.bitmaps_accessed + cost.logical_ops + (q.dimensionality() - 1),
                "{policy}"
            );
            assert!(cost.words_processed > 0);
        }
    }

    #[test]
    fn exact_words_are_deterministic_on_the_worked_example() {
        // Table 1: 10 rows, cardinality 5, every equality bitmap has ≤ 3
        // set bits → a single array container of 1 payload word each.
        let idx = EqualityBitmapIndex::<Adaptive>::build(&table1());
        // Point query, not-match: one clone of one 1-word array.
        let q = RangeQuery::new(vec![Predicate::point(0, 3)], MissingPolicy::IsNotMatch).unwrap();
        let (_, cost) = idx.execute_with_cost(&q).unwrap();
        assert_eq!(cost.words_processed, 1);
        assert_eq!(cost.containers_array, 1);
        assert_eq!((cost.containers_bitmap, cost.containers_run), (0, 0));
        // Range [1,2] under match: clone B_1 (1 word) + OR with B_2 (two
        // 1-word operands) + OR with B_0 (two 1-word operands) = 5 words,
        // all array-shaped.
        let q = RangeQuery::new(vec![Predicate::range(0, 1, 2)], MissingPolicy::IsMatch).unwrap();
        let (_, cost) = idx.execute_with_cost(&q).unwrap();
        assert_eq!(cost.words_processed, 5);
        assert_eq!(cost.containers_array, 5);
        assert_eq!(cost.bitmaps_accessed, 3);
        assert_eq!(cost.logical_ops, 2);
    }

    #[test]
    fn adaptive_words_beat_the_uncompressed_floor_on_sparse_data() {
        // 70 000 rows (two chunks), cardinality 50, cyclic values: each
        // equality bitmap holds every 50th row — array containers of
        // ~1 310 entries (~330 payload words per chunk) versus the
        // uncompressed ⌈70 000/64⌉ ≈ 1 094 words a plain bitmap holds.
        let rows: Vec<Vec<Cell>> = (0..70_000)
            .map(|r| vec![Cell::present((r % 50 + 1) as u16)])
            .collect();
        let d = Dataset::from_rows(&[("a", 50)], &rows).unwrap();
        let q =
            RangeQuery::new(vec![Predicate::range(0, 1, 10)], MissingPolicy::IsNotMatch).unwrap();
        let (_, exact) = EqualityBitmapIndex::<Adaptive>::build(&d)
            .execute_with_cost(&q)
            .unwrap();
        let (_, plain) = EqualityBitmapIndex::<BitVec64>::build(&d)
            .execute_with_cost(&q)
            .unwrap();
        assert!(
            exact.words_processed < plain.words_processed,
            "adaptive {} not below plain {}",
            exact.words_processed,
            plain.words_processed
        );
    }

    #[test]
    fn threaded_execution_matches_sequential_rows_and_cost() {
        let d = synthetic_scaled(400, 17);
        let idx = EqualityBitmapIndex::<Adaptive>::build(&d);
        for policy in MissingPolicy::ALL {
            let q = RangeQuery::new(
                vec![
                    Predicate::range(100, 2, 5),
                    Predicate::range(109, 1, 4),
                    Predicate::range(231, 2, 6),
                ],
                policy,
            )
            .unwrap();
            let seq = idx.execute_with_cost(&q).unwrap();
            for threads in [1, 2, 3, 8] {
                assert_eq!(
                    idx.execute_with_cost_threads(&q, threads).unwrap(),
                    seq,
                    "{policy} t={threads}"
                );
            }
        }
    }

    #[test]
    fn count_matches_materialized_rows() {
        let d = synthetic_scaled(350, 19);
        let idx = EqualityBitmapIndex::<Adaptive>::build(&d);
        for preds in [
            vec![],
            vec![Predicate::point(103, 2)],
            vec![Predicate::range(101, 1, 5), Predicate::range(208, 2, 7)],
        ] {
            let q = RangeQuery::new(preds, MissingPolicy::IsMatch).unwrap();
            assert_eq!(
                idx.execute_count(&q).unwrap(),
                idx.execute(&q).unwrap().rows().len()
            );
        }
    }

    #[test]
    fn container_census_counts_every_stored_container() {
        let d = synthetic_scaled(250, 31);
        let idx = EqualityBitmapIndex::<Adaptive>::build(&d);
        let (ar, bm, rn) = idx.container_census();
        // < 2^16 rows → exactly one container per stored bitmap.
        assert_eq!(ar + bm + rn, idx.n_bitmaps());
    }

    #[test]
    fn adaptive_estimate_reflects_compression_and_the_rest_keep_the_bound() {
        let d = synthetic_scaled(400, 37);
        let adaptive = EqualityBitmapIndex::<Adaptive>::build(&d);
        let plain = EqualityBitmapIndex::<BitVec64>::build(&d);
        let wah = EqualityBitmapIndex::<Wah>::build(&d);
        let q = RangeQuery::new(vec![Predicate::point(0, 1)], MissingPolicy::IsMatch).unwrap();
        let a = AccessMethod::estimated_cost(&adaptive, &q);
        let b = AccessMethod::estimated_cost(&plain, &q);
        assert!(a.is_finite() && a > 0.0);
        // Adaptive containers store fewer words than the uncompressed
        // family, and the estimate is scaled by that measured ratio.
        assert!(a <= b, "adaptive {a} > plain {b}");
        // Every other store prices the same unscaled §6 bound.
        assert_eq!(AccessMethod::estimated_cost(&wah, &q), b);
        assert_eq!(adaptive.name(), "bitmap-adaptive");
        assert_eq!(wah.name(), "bitmap-equality");
        // Out-of-schema predicates stay unplannable.
        let q = RangeQuery::new(vec![Predicate::point(999, 1)], MissingPolicy::IsMatch).unwrap();
        assert_eq!(AccessMethod::estimated_cost(&adaptive, &q), f64::INFINITY);
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use crate::RangeBitmapIndex;
    use ibis_bitvec::Wah;
    use ibis_core::gen::synthetic_scaled;
    use ibis_core::{MissingPolicy, Predicate};

    #[test]
    fn parallel_build_equals_serial() {
        let d = synthetic_scaled(600, 81);
        let serial = EqualityBitmapIndex::<Wah>::build(&d);
        let parallel = EqualityBitmapIndex::<Wah>::build_parallel(&d, 4);
        assert_eq!(parallel.n_bitmaps(), serial.n_bitmaps());
        assert_eq!(parallel.size_bytes(), serial.size_bytes());
        let bre_s = RangeBitmapIndex::<Wah>::build(&d);
        let bre_p = RangeBitmapIndex::<Wah>::build_parallel(&d, 4);
        assert_eq!(bre_p.size_bytes(), bre_s.size_bytes());
        for policy in MissingPolicy::ALL {
            for attr in [0usize, 120, 449] {
                let c = d.column(attr).cardinality();
                let q = RangeQuery::new(vec![Predicate::range(attr, 1, c.div_ceil(2))], policy)
                    .unwrap();
                assert_eq!(parallel.execute(&q).unwrap(), serial.execute(&q).unwrap());
                assert_eq!(bre_p.execute(&q).unwrap(), bre_s.execute(&q).unwrap());
            }
        }
    }

    #[test]
    fn parallel_build_single_thread_degenerates() {
        let d = synthetic_scaled(100, 82);
        let a = EqualityBitmapIndex::<Wah>::build_parallel(&d, 1);
        let b = EqualityBitmapIndex::<Wah>::build(&d);
        assert_eq!(a.size_bytes(), b.size_bytes());
    }
}
