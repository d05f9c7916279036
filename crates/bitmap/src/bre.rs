//! Bitmap Range Encoding (BRE) — §4.3 of the paper.

use crate::cost::QueryCost;
use crate::engine::{self, BitmapExec};
use crate::size::{AttrSize, SizeReport};
use ibis_bitvec::BitStore;
use ibis_core::{AccessMethod, Dataset, Interval, MissingPolicy, RangeQuery, Result, RowSet};

/// Range-encoded bitmap index over an incomplete relation.
///
/// Bitmap `B_{i,j}` flags the rows whose value for `A_i` is **≤ j**. The
/// paper treats missing data "as the next smallest possible value outside
/// the lower bound of the domain" (value 0), so a missing row is set in
/// *every* bitmap and `B_{i,0}` doubles as the missing-rows flag. `B_{i,C}`
/// is constant all-ones and is dropped, leaving `C` stored bitmaps for an
/// attribute with missing data and `C − 1` without.
///
/// Interval evaluation follows Fig. 3: every case reduces to at most an XOR
/// of two threshold bitmaps (or one complement when the range touches the
/// domain maximum) plus, under match semantics, an OR with `B_{i,0}` —
/// between 1 and 3 bitmap reads per dimension (match), 1–2 (not-match),
/// which is why BRE's query time is flat across cardinality in Fig. 5(a).
#[derive(Clone, Debug)]
pub struct RangeBitmapIndex<B: BitStore> {
    attrs: Vec<BreAttr<B>>,
    n_rows: usize,
}

#[derive(Clone, Debug)]
struct BreAttr<B> {
    cardinality: u16,
    has_missing: bool,
    /// `thresholds[k]` = `B_{i, k + first}` where `first` is 0 when the
    /// attribute has missing rows and 1 otherwise. Thresholds run up to
    /// `C − 1` (`B_{i,C}` ≡ all-ones is dropped).
    thresholds: Vec<B>,
}

impl<B> BreAttr<B> {
    #[inline]
    fn first_threshold(&self) -> usize {
        usize::from(!self.has_missing)
    }

    /// The stored bitmap for threshold `j` (`B_{i,j}`), if stored.
    /// `j = 0` without missing data is all-zeros (not stored);
    /// `j = C` is all-ones (never stored).
    fn stored(&self, j: usize) -> Option<&B> {
        j.checked_sub(self.first_threshold())
            .and_then(|k| self.thresholds.get(k))
    }
}

impl<B: BitStore> RangeBitmapIndex<B> {
    /// Builds the index over every column of `dataset`.
    pub fn build(dataset: &Dataset) -> Self {
        let attrs = dataset.columns().iter().map(Self::build_attr).collect();
        RangeBitmapIndex {
            attrs,
            n_rows: dataset.n_rows(),
        }
    }

    /// Like [`Self::build`], but fanning columns over `n_threads` threads.
    pub fn build_parallel(dataset: &Dataset, n_threads: usize) -> Self
    where
        B: Send,
    {
        let attrs = ibis_core::parallel::parallel_map(
            dataset.columns().iter().collect(),
            n_threads,
            Self::build_attr,
        );
        RangeBitmapIndex {
            attrs,
            n_rows: dataset.n_rows(),
        }
    }

    fn build_attr(col: &ibis_core::Column) -> BreAttr<B> {
        let c = col.cardinality() as usize;
        let eq = crate::equality_bitvecs(col);
        let has_missing = eq[0].count_ones() > 0;
        // Prefix-OR the equality bitmaps: B_j = eq_0 | … | eq_j.
        let mut thresholds = Vec::with_capacity(c);
        let mut acc = eq[0].clone();
        if has_missing {
            thresholds.push(B::from_bitvec(&acc)); // B_0
        }
        for value_bv in &eq[1..c] {
            acc.or_assign(value_bv);
            thresholds.push(B::from_bitvec(&acc)); // B_1 .. B_{C-1}
        }
        BreAttr {
            cardinality: col.cardinality(),
            has_missing,
            thresholds,
        }
    }

    /// Number of indexed rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Appends one record in place. Threshold bitmap `B_j` receives a 1
    /// when the new value is ≤ `j` or missing (the §4.3 convention); the
    /// first missing value on a previously-complete attribute materializes
    /// `B_0` (all-zeros so far) at the front of the threshold list.
    ///
    /// # Errors
    /// Rejects rows of the wrong width or with out-of-domain values,
    /// leaving the index unchanged.
    pub fn append_row(&mut self, row: &[ibis_core::Cell]) -> Result<()> {
        ibis_core::validate_row(row, |a| self.attrs[a].cardinality, self.attrs.len())?;
        for (&cell, a) in row.iter().zip(&mut self.attrs) {
            let raw = cell.raw();
            if raw == 0 && !a.has_missing {
                a.thresholds.insert(0, B::zeros(self.n_rows));
                a.has_missing = true;
            }
            let first = a.first_threshold();
            for (k, b) in a.thresholds.iter_mut().enumerate() {
                let j = (k + first) as u16;
                b.push_bit(raw == 0 || raw <= j);
            }
        }
        self.n_rows += 1;
        Ok(())
    }

    /// Number of indexed attributes.
    pub fn n_attrs(&self) -> usize {
        self.attrs.len()
    }

    /// Total number of stored bitmaps (`C_i` per attribute with missing
    /// data, `C_i − 1` otherwise).
    pub fn n_bitmaps(&self) -> usize {
        self.attrs.iter().map(|a| a.thresholds.len()).sum()
    }

    /// Per-attribute and total size accounting.
    pub fn size_report(&self) -> SizeReport {
        let per_attr = self
            .attrs
            .iter()
            .enumerate()
            .map(|(attr, a)| {
                let bytes = a.thresholds.iter().map(B::size_bytes).sum::<usize>();
                AttrSize::new(attr, a.thresholds.len(), bytes, self.n_rows)
            })
            .collect();
        SizeReport { per_attr }
    }

    /// Total bytes of all stored bitmaps.
    pub fn size_bytes(&self) -> usize {
        self.size_report().total_bytes()
    }

    /// Evaluates one interval over one attribute (Fig. 3), accumulating
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

        // Present-and-in-range rows are B_{v2} XOR B_{v1-1}; missing rows
        // cancel in the XOR because they are set in every bitmap. The edge
        // thresholds B_0 (no missing → all-zeros) and B_C (all-ones) are
        // virtual, which yields exactly the case split of Fig. 3. Stored
        // bitmaps are borrowed — the only clone is when a stored bitmap is
        // itself the answer.
        let le = |j: usize, cost: &mut QueryCost| -> Option<&B> {
            let b = a.stored(j);
            if b.is_some() {
                cost.read_bitmap();
            }
            b
        };

        match policy {
            MissingPolicy::IsMatch => {
                if v1 == 1 {
                    // Missing counts as ≤ every threshold, so B_{v2} already
                    // includes it. [1, C] degenerates to all rows.
                    if v2 == c {
                        B::ones(self.n_rows)
                    } else {
                        engine::read(le(v2, cost).expect("1 ≤ v2 < C is stored"), cost)
                    }
                } else {
                    let base = if v2 == c {
                        engine::not(le(v1 - 1, cost).expect("1 ≤ v1-1 < C is stored"), cost)
                    } else {
                        let hi = le(v2, cost).expect("stored");
                        let lo = le(v1 - 1, cost).expect("stored");
                        engine::xor(hi, lo, cost)
                    };
                    match le(0, cost) {
                        Some(m) => engine::or(&base, m, cost),
                        None => base,
                    }
                }
            }
            MissingPolicy::IsNotMatch => {
                let lower = v1 - 1; // 0 allowed: B_0 is the missing flag
                if v2 == c {
                    match le(lower, cost) {
                        Some(b) => engine::not(b, cost),
                        None => B::ones(self.n_rows), // complete column, full range
                    }
                } else {
                    let hi = le(v2, cost).expect("1 ≤ v2 < C is stored");
                    match le(lower, cost) {
                        Some(b) => engine::xor(hi, b, cost),
                        None => engine::read(hi, cost),
                    }
                }
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

impl<B: BitStore> BitmapExec for RangeBitmapIndex<B> {
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

impl<B: BitStore> AccessMethod for RangeBitmapIndex<B> {
    fn name(&self) -> &'static str {
        "bitmap-range"
    }

    fn execute_with_cost(&self, query: &RangeQuery) -> Result<(RowSet, QueryCost)> {
        RangeBitmapIndex::execute_with_cost(self, query)
    }

    fn execute_with_cost_threads(
        &self,
        query: &RangeQuery,
        threads: usize,
    ) -> Result<(RowSet, QueryCost)> {
        engine::run_with_cost_threads(self, query, threads)
    }

    fn size_bytes(&self) -> usize {
        RangeBitmapIndex::size_bytes(self)
    }

    fn execute_count(&self, query: &RangeQuery) -> Result<usize> {
        engine::run_count(self, query)
    }

    // §6: at most 3 bitmaps per dimension (Fig. 3), scaled to words.
    fn estimated_cost(&self, query: &RangeQuery) -> f64 {
        engine::estimate_words(self, query, |_w, _c| 3.0)
    }
}

impl<B: BitStore> RangeBitmapIndex<B> {
    const MAGIC: &'static [u8; 4] = b"IBRE";
    const VERSION: u16 = 1;

    /// Serializes the index.
    pub fn write_to(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        use ibis_core::wire::*;
        write_header(w, Self::MAGIC, Self::VERSION)?;
        write_str(w, B::backend_name())?;
        write_len(w, self.n_rows)?;
        write_len(w, self.attrs.len())?;
        for a in &self.attrs {
            write_u16(w, a.cardinality)?;
            write_u8(w, a.has_missing as u8)?;
            write_len(w, a.thresholds.len())?;
            for t in &a.thresholds {
                t.write_to(w)?;
            }
        }
        Ok(())
    }

    /// Deserializes an index written by [`Self::write_to`].
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
            let has_missing = read_u8(r)? != 0;
            let n_thresholds = read_len(r)?;
            // C thresholds with missing data, C − 1 without (§4.3).
            let expected = cardinality as usize - usize::from(!has_missing);
            if n_thresholds != expected {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "threshold-bitmap count disagrees with cardinality",
                ));
            }
            // Validated against the u16 cardinality above, but keep the
            // preallocation capped so a corrupt header can never trigger an
            // unbounded reservation (same guard as `BitVec64::read_from`).
            let mut thresholds = Vec::with_capacity(n_thresholds.min(1 << 16));
            for _ in 0..n_thresholds {
                let t = B::read_from(r)?;
                if t.len() != n_rows {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "bitmap length disagrees with row count",
                    ));
                }
                thresholds.push(t);
            }
            attrs.push(BreAttr {
                cardinality,
                has_missing,
                thresholds,
            });
        }
        Ok(RangeBitmapIndex { attrs, n_rows })
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

    /// The paper's Table 3/4 worked example (same data as Table 1).
    fn table3() -> Dataset {
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
    fn table4_bitmaps_reproduced() {
        // Table 4 lists the range-encoded bitmaps B_{1,0}..B_{1,4}
        // (B_{1,5} ≡ all-ones is dropped).
        let idx = RangeBitmapIndex::<BitVec64>::build(&table3());
        let a = &idx.attrs[0];
        assert!(a.has_missing);
        assert_eq!(a.thresholds.len(), 5);
        assert_eq!(bits_of(&a.thresholds[0]), "0001000010"); // B_{1,0}
        assert_eq!(bits_of(&a.thresholds[1]), "0001001010"); // B_{1,1}
        assert_eq!(bits_of(&a.thresholds[2]), "0101001011"); // B_{1,2}
        assert_eq!(bits_of(&a.thresholds[3]), "0111001111"); // B_{1,3}
        assert_eq!(bits_of(&a.thresholds[4]), "0111101111"); // B_{1,4}
    }

    #[test]
    fn fig3_point_query_cases() {
        let d = table3();
        let idx = RangeBitmapIndex::<Wah>::build(&d);
        // Case v1 = v2 = 1, match: result is B_1 directly (missing included).
        let q = RangeQuery::new(vec![Predicate::point(0, 1)], MissingPolicy::IsMatch).unwrap();
        let (rows, cost) = idx.execute_with_cost(&q).unwrap();
        assert_eq!(rows.rows(), &[3, 6, 8]);
        assert_eq!(cost.bitmaps_accessed, 1);
        // Case v1 = v2 = 1, not-match: B_1 XOR B_0.
        let q = q.with_policy(MissingPolicy::IsNotMatch);
        let (rows, cost) = idx.execute_with_cost(&q).unwrap();
        assert_eq!(rows.rows(), &[6]);
        assert_eq!(cost.bitmaps_accessed, 2);
        // Case 1 < v1 = v2 < C, match: (B_3 XOR B_2) OR B_0 → 3 reads.
        let q = RangeQuery::new(vec![Predicate::point(0, 3)], MissingPolicy::IsMatch).unwrap();
        let (rows, cost) = idx.execute_with_cost(&q).unwrap();
        assert_eq!(rows.rows(), &[2, 3, 7, 8]);
        assert_eq!(cost.bitmaps_accessed, 3);
        // Case v1 = v2 = C, match: NOT(B_4) OR B_0.
        let q = RangeQuery::new(vec![Predicate::point(0, 5)], MissingPolicy::IsMatch).unwrap();
        let (rows, cost) = idx.execute_with_cost(&q).unwrap();
        assert_eq!(rows.rows(), &[0, 3, 5, 8]);
        assert_eq!(cost.bitmaps_accessed, 2);
        // Case v1 = v2 = C, not-match: NOT(B_4) alone.
        let q = q.with_policy(MissingPolicy::IsNotMatch);
        let (rows, cost) = idx.execute_with_cost(&q).unwrap();
        assert_eq!(rows.rows(), &[0, 5]);
        assert_eq!(cost.bitmaps_accessed, 1);
    }

    #[test]
    fn fig3_range_query_cases() {
        let d = table3();
        let idx = RangeBitmapIndex::<Wah>::build(&d);
        // v1 = 1 < v2 < C, match: B_{v2} alone (1 read).
        let q = RangeQuery::new(vec![Predicate::range(0, 1, 3)], MissingPolicy::IsMatch).unwrap();
        let (rows, cost) = idx.execute_with_cost(&q).unwrap();
        assert_eq!(rows, scan::execute(&d, &q));
        assert_eq!(cost.bitmaps_accessed, 1);
        // General range, match: (B_4 XOR B_1) OR B_0 → 3 reads.
        let q = RangeQuery::new(vec![Predicate::range(0, 2, 4)], MissingPolicy::IsMatch).unwrap();
        let (rows, cost) = idx.execute_with_cost(&q).unwrap();
        assert_eq!(rows, scan::execute(&d, &q));
        assert_eq!(cost.bitmaps_accessed, 3);
        // General range, not-match: B_4 XOR B_1 → 2 reads.
        let q = q.with_policy(MissingPolicy::IsNotMatch);
        let (rows, cost) = idx.execute_with_cost(&q).unwrap();
        assert_eq!(rows, scan::execute(&d, &q));
        assert_eq!(cost.bitmaps_accessed, 2);
        // Range touching C, not-match: NOT(B_1) → 1 read.
        let q =
            RangeQuery::new(vec![Predicate::range(0, 2, 5)], MissingPolicy::IsNotMatch).unwrap();
        let (rows, cost) = idx.execute_with_cost(&q).unwrap();
        assert_eq!(rows, scan::execute(&d, &q));
        assert_eq!(cost.bitmaps_accessed, 1);
    }

    #[test]
    fn full_domain_range() {
        let d = table3();
        let idx = RangeBitmapIndex::<Wah>::build(&d);
        let q = RangeQuery::new(vec![Predicate::range(0, 1, 5)], MissingPolicy::IsMatch).unwrap();
        let (rows, cost) = idx.execute_with_cost(&q).unwrap();
        assert_eq!(rows, RowSet::all(10));
        assert_eq!(cost.bitmaps_accessed, 0); // virtual all-ones
        let q = q.with_policy(MissingPolicy::IsNotMatch);
        let (rows, cost) = idx.execute_with_cost(&q).unwrap();
        assert_eq!(rows.rows(), &[0, 1, 2, 4, 5, 6, 7, 9]); // NOT(B_0)
        assert_eq!(cost.bitmaps_accessed, 1);
    }

    #[test]
    fn no_missing_column_drops_b0() {
        let col = Column::from_raw("a", 4, vec![1, 2, 3, 4, 2]).unwrap();
        let d = Dataset::new(vec![col]).unwrap();
        let idx = RangeBitmapIndex::<Wah>::build(&d);
        assert!(!idx.attrs[0].has_missing);
        assert_eq!(idx.n_bitmaps(), 3); // C - 1
        for policy in MissingPolicy::ALL {
            for lo in 1..=4u16 {
                for hi in lo..=4u16 {
                    let q = RangeQuery::new(vec![Predicate::range(0, lo, hi)], policy).unwrap();
                    assert_eq!(idx.execute(&q).unwrap(), scan::execute(&d, &q));
                }
            }
        }
    }

    #[test]
    fn cardinality_one_attribute() {
        // C = 1: the only stored structure is B_0 (missing flag); B_1 is the
        // dropped all-ones bitmap. The paper notes the in-band alternative
        // cannot even represent this case.
        let col = Column::from_raw("flag", 1, vec![1, 0, 1, 0]).unwrap();
        let d = Dataset::new(vec![col]).unwrap();
        let idx = RangeBitmapIndex::<Wah>::build(&d);
        assert_eq!(idx.n_bitmaps(), 1);
        let q = RangeQuery::new(vec![Predicate::point(0, 1)], MissingPolicy::IsMatch).unwrap();
        assert_eq!(idx.execute(&q).unwrap(), RowSet::all(4));
        let q = q.with_policy(MissingPolicy::IsNotMatch);
        assert_eq!(idx.execute(&q).unwrap().rows(), &[0, 2]);
    }

    #[test]
    fn costs_bounded_one_to_three() {
        // §4.3: match semantics needs 1–3 bitmaps per dimension, not-match
        // 1–2 — verify across every interval of the example.
        let idx = RangeBitmapIndex::<Wah>::build(&table3());
        for lo in 1..=5u16 {
            for hi in lo..=5u16 {
                let mut cost = QueryCost::zero();
                idx.evaluate_interval(0, Interval::new(lo, hi), MissingPolicy::IsMatch, &mut cost);
                assert!(cost.bitmaps_accessed <= 3, "match [{lo},{hi}]: {cost:?}");
                let mut cost = QueryCost::zero();
                idx.evaluate_interval(
                    0,
                    Interval::new(lo, hi),
                    MissingPolicy::IsNotMatch,
                    &mut cost,
                );
                assert!(
                    cost.bitmaps_accessed <= 2,
                    "not-match [{lo},{hi}]: {cost:?}"
                );
            }
        }
    }

    #[test]
    fn differential_vs_scan_exhaustive_intervals() {
        let d = table3();
        let idx = RangeBitmapIndex::<Wah>::build(&d);
        for policy in MissingPolicy::ALL {
            for lo in 1..=5u16 {
                for hi in lo..=5u16 {
                    let q = RangeQuery::new(vec![Predicate::range(0, lo, hi)], policy).unwrap();
                    assert_eq!(
                        idx.execute(&q).unwrap(),
                        scan::execute(&d, &q),
                        "{policy} [{lo},{hi}]"
                    );
                }
            }
        }
    }

    #[test]
    fn multi_attribute_conjunction() {
        let d = Dataset::from_rows(
            &[("a", 4), ("b", 3)],
            &[
                vec![v(1), v(1)],
                vec![v(2), m()],
                vec![m(), v(2)],
                vec![v(2), v(2)],
                vec![v(4), v(3)],
            ],
        )
        .unwrap();
        let idx = RangeBitmapIndex::<Wah>::build(&d);
        for policy in MissingPolicy::ALL {
            let q = RangeQuery::new(
                vec![Predicate::range(0, 2, 4), Predicate::range(1, 1, 2)],
                policy,
            )
            .unwrap();
            assert_eq!(idx.execute(&q).unwrap(), scan::execute(&d, &q), "{policy}");
        }
    }

    #[test]
    fn size_report_counts() {
        let idx = RangeBitmapIndex::<BitVec64>::build(&table3());
        let r = idx.size_report();
        assert_eq!(r.per_attr[0].n_bitmaps, 5); // C with missing data
        assert_eq!(r.total_uncompressed_bytes(), 5 * 2);
    }

    #[test]
    fn invalid_queries_rejected() {
        let idx = RangeBitmapIndex::<Wah>::build(&table3());
        let q = RangeQuery::new(vec![Predicate::point(9, 1)], MissingPolicy::IsMatch).unwrap();
        assert!(idx.execute(&q).is_err());
    }
}
