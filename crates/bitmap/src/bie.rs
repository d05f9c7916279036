//! Bitmap Interval Encoding (BIE) — the third classic encoding family the
//! paper cites (§2: "equality [10], range [5], **interval [5]**", Chan &
//! Ioannidis SIGMOD'99), adapted here to missing data with the same `B_0`
//! device the paper applies to BEE and BRE.
//!
//! Interval encoding stores one bitmap per *window* of `W = ⌈C/2⌉`
//! consecutive values: `I_j` flags rows whose value lies in
//! `[j, j + W − 1]`, for `j = 1 ..= C − W + 1` — about **half** the bitmaps
//! of BEE/BRE — and still answers any interval with **at most two** bitmap
//! reads:
//!
//! ```text
//! w = v2 − v1 + 1,  K = C − W + 1 (number of windows)
//! [1, C]                        → all present rows
//! w ≥ W                         → I_{v1} ∪ I_{v2−W+1}          (cover)
//! w < W, v2 < W                 → I_{v1} \ I_{v2+1}            (left edge)
//! w < W, v1 > K                 → I_{v2−W+1} \ I_{v1−W}        (right edge)
//! w < W, otherwise              → I_{v1} ∩ I_{v2−W+1}          (middle)
//! ```
//!
//! Missing rows are 0 in every window, so the AND/AND-NOT/OR plans above
//! are already correct under *missing-is-not-match*; under
//! *missing-is-match* the plan ORs `B_0` exactly as in BEE. BIE therefore
//! costs 2–3 bitmap reads per dimension (match) at roughly half the storage
//! of BRE — the missing corner of the paper's encoding-space that the
//! `ablation_encoding` experiment fills in.

use crate::cost::QueryCost;
use crate::engine::{self, BitmapExec};
use crate::size::{AttrSize, SizeReport};
use ibis_bitvec::{BitStore, BitVec64};
use ibis_core::{AccessMethod, Dataset, Interval, MissingPolicy, RangeQuery, Result, RowSet};

/// Interval-encoded bitmap index over an incomplete relation.
#[derive(Clone, Debug)]
pub struct IntervalBitmapIndex<B: BitStore> {
    attrs: Vec<BieAttr<B>>,
    n_rows: usize,
}

#[derive(Clone, Debug)]
struct BieAttr<B> {
    cardinality: u16,
    /// Window width `W = ⌈C/2⌉`.
    width: u16,
    /// `B_{i,0}`, present only when the column has missing rows.
    missing: Option<B>,
    /// `windows[j-1]` = `I_j` over `[j, j + W − 1]`, `j = 1..=C−W+1`.
    windows: Vec<B>,
}

impl<B: BitStore> IntervalBitmapIndex<B> {
    /// Builds the index over every column of `dataset`.
    pub fn build(dataset: &Dataset) -> Self {
        let attrs = dataset
            .columns()
            .iter()
            .map(|col| {
                let c = col.cardinality() as usize;
                let width = c.div_ceil(2).max(1);
                let n_windows = c - width + 1;
                let n = col.len();
                let mut missing_bv = BitVec64::zeros(n);
                let mut window_bvs = vec![BitVec64::zeros(n); n_windows];
                for (row, &raw) in col.raw().iter().enumerate() {
                    if raw == 0 {
                        missing_bv.set(row, true);
                    } else {
                        let v = raw as usize;
                        // Value v lies in windows j ∈ [max(1, v−W+1), min(v, K)].
                        let j_lo = v.saturating_sub(width - 1).max(1);
                        let j_hi = v.min(n_windows);
                        for w in &mut window_bvs[j_lo - 1..j_hi] {
                            w.set(row, true);
                        }
                    }
                }
                BieAttr {
                    cardinality: col.cardinality(),
                    width: width as u16,
                    missing: (missing_bv.count_ones() > 0).then(|| B::from_bitvec(&missing_bv)),
                    windows: window_bvs.iter().map(B::from_bitvec).collect(),
                }
            })
            .collect();
        IntervalBitmapIndex {
            attrs,
            n_rows: dataset.n_rows(),
        }
    }

    /// Number of indexed rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of indexed attributes.
    pub fn n_attrs(&self) -> usize {
        self.attrs.len()
    }

    /// Total stored bitmaps — about half of what BEE/BRE keep.
    pub fn n_bitmaps(&self) -> usize {
        self.attrs
            .iter()
            .map(|a| a.windows.len() + usize::from(a.missing.is_some()))
            .sum()
    }

    /// Per-attribute and total size accounting.
    pub fn size_report(&self) -> SizeReport {
        let per_attr = self
            .attrs
            .iter()
            .enumerate()
            .map(|(attr, a)| {
                let n_bitmaps = a.windows.len() + usize::from(a.missing.is_some());
                let bytes = a.windows.iter().map(B::size_bytes).sum::<usize>()
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

    /// Evaluates one interval over one attribute with at most two window
    /// reads plus the missing bitmap, per the table in the module docs.
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
        let w_win = a.width as usize;
        let k = a.windows.len(); // C − W + 1
        let (v1, v2) = (iv.lo as usize, iv.hi as usize);
        assert!(
            v1 >= 1 && v2 <= c,
            "interval [{v1},{v2}] outside domain 1..={c}"
        );
        let width = v2 - v1 + 1;

        let win = |j: usize, cost: &mut QueryCost| -> &B {
            cost.read_bitmap();
            &a.windows[j - 1]
        };

        // Present-rows result first; every plan leaves missing rows at 0
        // because they are 0 in all windows.
        let present = if width == c {
            // Full domain: all present rows. Complement of B_0, or all-ones
            // when the column is complete.
            match &a.missing {
                Some(m) => {
                    cost.read_bitmap();
                    engine::not(m, cost)
                }
                None => B::ones(self.n_rows),
            }
        } else if width >= w_win {
            let lo = win(v1, cost);
            engine::or(lo, win(v2 - w_win + 1, cost), cost)
        } else if v2 < w_win {
            let base = win(v1, cost);
            let above = engine::not(win(v2 + 1, cost), cost);
            engine::and(base, &above, cost)
        } else if v1 > k {
            let base = win(v2 - w_win + 1, cost);
            let below = engine::not(win(v1 - w_win, cost), cost);
            engine::and(base, &below, cost)
        } else {
            let base = win(v1, cost);
            engine::and(base, win(v2 - w_win + 1, cost), cost)
        };

        match policy {
            MissingPolicy::IsNotMatch => present,
            MissingPolicy::IsMatch => match &a.missing {
                Some(m) => {
                    cost.read_bitmap();
                    engine::or(&present, m, cost)
                }
                None => present,
            },
        }
    }

    /// Executes a query, also returning the work counters.
    /// ([`AccessMethod::execute`] / [`AccessMethod::execute_count`] cover
    /// the plain and counting forms.)
    pub fn execute_with_cost(&self, query: &RangeQuery) -> Result<(RowSet, QueryCost)> {
        engine::run_with_cost(self, query)
    }
}

impl<B: BitStore> BitmapExec for IntervalBitmapIndex<B> {
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

impl<B: BitStore> AccessMethod for IntervalBitmapIndex<B> {
    fn name(&self) -> &'static str {
        "bitmap-interval"
    }

    fn execute_with_cost(&self, query: &RangeQuery) -> Result<(RowSet, QueryCost)> {
        IntervalBitmapIndex::execute_with_cost(self, query)
    }

    fn execute_with_cost_threads(
        &self,
        query: &RangeQuery,
        threads: usize,
    ) -> Result<(RowSet, QueryCost)> {
        engine::run_with_cost_threads(self, query, threads)
    }

    fn size_bytes(&self) -> usize {
        IntervalBitmapIndex::size_bytes(self)
    }

    fn execute_count(&self, query: &RangeQuery) -> Result<usize> {
        engine::run_count(self, query)
    }

    // At most two windows plus B_0 per dimension — the same worst case as
    // BRE; the tie is broken by BIE's ~half-size structure.
    fn estimated_cost(&self, query: &RangeQuery) -> f64 {
        engine::estimate_words(self, query, |_w, _c| 3.0)
    }
}

impl<B: BitStore> IntervalBitmapIndex<B> {
    const MAGIC: &'static [u8; 4] = b"IBIE";
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
            write_u16(w, a.width)?;
            write_u8(w, a.missing.is_some() as u8)?;
            if let Some(m) = &a.missing {
                m.write_to(w)?;
            }
            write_len(w, a.windows.len())?;
            for win in &a.windows {
                win.write_to(w)?;
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
            let width = read_u16(r)?;
            let expected_width = (cardinality as usize).div_ceil(2).max(1);
            if width as usize != expected_width {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "window width disagrees with cardinality",
                ));
            }
            let missing = match read_u8(r)? {
                0 => None,
                _ => Some(B::read_from(r)?),
            };
            if missing.as_ref().is_some_and(|m| m.len() != n_rows) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "missing-bitmap length disagrees with row count",
                ));
            }
            let n_windows = read_len(r)?;
            if n_windows != cardinality as usize - width as usize + 1 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "window count disagrees with cardinality",
                ));
            }
            // Validated against the u16 cardinality above, but keep the
            // preallocation capped so a corrupt header can never trigger an
            // unbounded reservation (same guard as `BitVec64::read_from`).
            let mut windows = Vec::with_capacity(n_windows.min(1 << 16));
            for _ in 0..n_windows {
                let win = B::read_from(r)?;
                if win.len() != n_rows {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "bitmap length disagrees with row count",
                    ));
                }
                windows.push(win);
            }
            attrs.push(BieAttr {
                cardinality,
                width,
                missing,
                windows,
            });
        }
        Ok(IntervalBitmapIndex { attrs, n_rows })
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
    use ibis_bitvec::Wah;
    use ibis_core::gen::synthetic_scaled;
    use ibis_core::{scan, Cell, Column, Predicate};

    fn m() -> Cell {
        Cell::MISSING
    }
    fn v(x: u16) -> Cell {
        Cell::present(x)
    }

    fn paper_dataset() -> Dataset {
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

    #[test]
    fn window_layout() {
        // C = 5 → W = 3, K = 3 windows: [1,3], [2,4], [3,5], plus B_0.
        let idx = IntervalBitmapIndex::<BitVec64>::build(&paper_dataset());
        let a = &idx.attrs[0];
        assert_eq!(a.width, 3);
        assert_eq!(a.windows.len(), 3);
        assert!(a.missing.is_some());
        assert_eq!(idx.n_bitmaps(), 4); // vs 6 for BEE, 5 for BRE
                                        // Row values: 5 2 3 ∅ 4 5 1 3 ∅ 2
        let bits = |b: &BitVec64| -> String {
            (0..10).map(|i| if b.get(i) { '1' } else { '0' }).collect()
        };
        assert_eq!(bits(&a.windows[0]), "0110001101"); // values 1..3
        assert_eq!(bits(&a.windows[1]), "0110100101"); // values 2..4
        assert_eq!(bits(&a.windows[2]), "1010110100"); // values 3..5
    }

    #[test]
    fn differential_vs_scan_exhaustive_intervals() {
        let d = paper_dataset();
        let idx = IntervalBitmapIndex::<Wah>::build(&d);
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
    fn exhaustive_over_many_cardinalities() {
        // Every (C, v1, v2, policy) combination for C up to 12; data covers
        // every value plus missing rows.
        for c in 1..=12u16 {
            let raw: Vec<u16> = (0..=c).chain(0..=c).collect(); // two copies incl missing
            let d = Dataset::new(vec![Column::from_raw("a", c, raw).unwrap()]).unwrap();
            let idx = IntervalBitmapIndex::<BitVec64>::build(&d);
            for policy in MissingPolicy::ALL {
                for lo in 1..=c {
                    for hi in lo..=c {
                        let q = RangeQuery::new(vec![Predicate::range(0, lo, hi)], policy).unwrap();
                        assert_eq!(
                            idx.execute(&q).unwrap(),
                            scan::execute(&d, &q),
                            "C={c} {policy} [{lo},{hi}]"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn at_most_two_windows_per_interval() {
        let d = paper_dataset();
        let idx = IntervalBitmapIndex::<Wah>::build(&d);
        for lo in 1..=5u16 {
            for hi in lo..=5u16 {
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
                let mut cost = QueryCost::zero();
                idx.evaluate_interval(0, Interval::new(lo, hi), MissingPolicy::IsMatch, &mut cost);
                assert!(cost.bitmaps_accessed <= 3, "match [{lo},{hi}]: {cost:?}");
            }
        }
    }

    #[test]
    fn half_the_bitmaps_of_bee() {
        let d = synthetic_scaled(300, 61);
        let bie = IntervalBitmapIndex::<BitVec64>::build(&d);
        let bee = crate::EqualityBitmapIndex::<BitVec64>::build(&d);
        // Per attribute BIE keeps ⌊C/2⌋ + 1 windows (+ B_0) vs BEE's C
        // (+ B_0); over the Table 7 mix that is well under 60% of BEE.
        assert!(
            (bie.n_bitmaps() as f64) < 0.6 * bee.n_bitmaps() as f64,
            "BIE {} vs BEE {}",
            bie.n_bitmaps(),
            bee.n_bitmaps()
        );
    }

    #[test]
    fn multi_attribute_workload_differential() {
        let d = synthetic_scaled(500, 62);
        let idx = IntervalBitmapIndex::<Wah>::build(&d);
        use ibis_core::gen::{workload, QuerySpec};
        for policy in MissingPolicy::ALL {
            let spec = QuerySpec {
                n_queries: 12,
                k: 5,
                global_selectivity: 0.02,
                policy,
                candidate_attrs: vec![],
            };
            for q in workload(&d, &spec, 63) {
                assert_eq!(idx.execute(&q).unwrap(), scan::execute(&d, &q), "{policy}");
            }
        }
    }

    #[test]
    fn cardinality_one_and_two() {
        let d = Dataset::new(vec![
            Column::from_raw("flag", 1, vec![1, 0, 1, 0]).unwrap(),
            Column::from_raw("bit", 2, vec![1, 2, 0, 2]).unwrap(),
        ])
        .unwrap();
        let idx = IntervalBitmapIndex::<Wah>::build(&d);
        for policy in MissingPolicy::ALL {
            for (attr, hi) in [(0usize, 1u16), (1, 2)] {
                for lo in 1..=hi {
                    for h in lo..=hi {
                        let q =
                            RangeQuery::new(vec![Predicate::range(attr, lo, h)], policy).unwrap();
                        assert_eq!(idx.execute(&q).unwrap(), scan::execute(&d, &q));
                    }
                }
            }
        }
    }

    #[test]
    fn invalid_queries_rejected() {
        let idx = IntervalBitmapIndex::<Wah>::build(&paper_dataset());
        let q = RangeQuery::new(vec![Predicate::point(5, 1)], MissingPolicy::IsMatch).unwrap();
        assert!(idx.execute(&q).is_err());
        let q = RangeQuery::new(vec![Predicate::point(0, 6)], MissingPolicy::IsMatch).unwrap();
        assert!(idx.execute(&q).is_err());
    }
}
