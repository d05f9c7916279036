//! # ibis-bitmap
//!
//! The paper's primary contribution: bitmap indexes adapted to incomplete
//! databases (§4.1–§4.4 of *"Indexing Incomplete Databases"*, EDBT 2006).
//!
//! Two encodings are provided, both generic over the bit-vector backend
//! ([`ibis_bitvec::BitStore`]: plain, WAH, BBC, or adaptive containers):
//!
//! * [`EqualityBitmapIndex`] (**BEE**) — one bitmap per attribute value,
//!   plus an extra bitmap `B_{i,0}` flagging missing rows for attributes
//!   that have them (§4.2). Interval evaluation follows Fig. 2: OR the
//!   in-range bitmaps (adding `B_0` under match semantics), or complement
//!   the out-of-range OR when the range covers more than half the domain.
//! * [`RangeBitmapIndex`] (**BRE**) — bitmap `B_{i,j}` holds rows with
//!   value ≤ j, with missing treated as the smallest value (below 1), so
//!   missing rows are set in *every* bitmap and `B_{i,0}` doubles as the
//!   missing flag (§4.3). Interval evaluation follows Fig. 3 and touches at
//!   most 3 bitmaps per dimension (match) or 2 (not-match).
//!
//! Both indexes answer queries *exactly* under either [`MissingPolicy`];
//! differential tests against the sequential scan are in the crate tests and
//! in the workspace-level integration suite.
//!
//! Extras beyond the paper's core:
//!
//! * every family over [`ibis_bitvec::Adaptive`] roaring-style containers;
//!   [`EqualityBitmapIndex`]`<Adaptive>` registers with the planner as
//!   `"bitmap-adaptive"`;
//! * [`cost::QueryCost`] — machine-independent work counters (bitmaps
//!   touched, logical ops, and the words each operation measurably read
//!   from its operands on the chosen backend) used by the benchmark harness
//!   alongside wall-clock time;
//! * [`rejected`] — the in-band missing encodings the paper considers and
//!   rejects in §4.2/§4.3, implemented to demonstrate the paper's
//!   objections;
//! * [`reorder`] — row-reordering heuristics (the paper's future-work item
//!   for improving run-length compression).
//!
//! ```
//! use ibis_bitmap::RangeBitmapIndex;
//! use ibis_bitvec::Wah;
//! use ibis_core::{AccessMethod, Cell, Dataset, MissingPolicy, Predicate, RangeQuery};
//!
//! let data = Dataset::from_rows(
//!     &[("severity", 5)],
//!     &[vec![Cell::present(4)], vec![Cell::MISSING], vec![Cell::present(1)]],
//! )?;
//! let bre = RangeBitmapIndex::<Wah>::build(&data);
//! let q = RangeQuery::new(vec![Predicate::range(0, 3, 5)], MissingPolicy::IsMatch)?;
//! assert_eq!(bre.execute(&q)?.rows(), &[0, 1]); // row 1 matches via missing
//! # Ok::<(), ibis_core::Error>(())
//! ```
//!
//! [`MissingPolicy`]: ibis_core::MissingPolicy

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bee;
mod bie;
mod bre;
pub mod cost;
mod decomposed;
mod engine;
pub mod rejected;
pub mod reorder;
pub mod size;

pub use bee::EqualityBitmapIndex;
pub use bie::IntervalBitmapIndex;
pub use bre::RangeBitmapIndex;
pub use cost::QueryCost;
pub use decomposed::DecomposedBitmapIndex;
pub use size::{AttrSize, SizeReport};

/// The equality encoding over adaptive containers (`"bitmap-adaptive"`).
/// Kept only because the benchmark under `perfbench/` imports this name;
/// workspace code names `EqualityBitmapIndex<Adaptive>` directly.
pub type AdaptiveBitmapIndex = EqualityBitmapIndex<ibis_bitvec::Adaptive>;

use ibis_bitvec::{BitStore, BitVec64};
use ibis_core::Column;

/// ORs a sequence of stored bitmaps, counting each lookup and charging
/// the words of every operation — the shared inner step of equality-style
/// interval evaluation.
pub(crate) fn or_all<'a, B: BitStore + 'a>(
    bitmaps: impl Iterator<Item = &'a B>,
    cost: &mut cost::QueryCost,
) -> Option<B> {
    let mut acc: Option<B> = None;
    for b in bitmaps {
        cost.read_bitmap();
        acc = Some(match acc {
            None => engine::read(b, cost),
            Some(x) => engine::or(&x, b, cost),
        });
    }
    acc
}

/// Reads and validates the shared index-file preamble (magic, version,
/// backend name) and returns `(n_rows, n_attrs)`.
pub(crate) fn read_index_preamble<B: BitStore>(
    r: &mut impl std::io::Read,
    magic: &'static [u8; 4],
    version: u16,
) -> std::io::Result<(usize, usize)> {
    use ibis_core::wire::*;
    read_header(r, magic, version)?;
    let backend = read_str(r)?;
    if backend != B::backend_name() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "index stored with backend {backend:?}, loading as {:?}",
                B::backend_name()
            ),
        ));
    }
    Ok((read_len(r)?, read_len(r)?))
}

/// Builds the equality bit vectors of one column: `out[0]` flags missing
/// rows, `out[v]` flags rows with value `v`. Shared by both encodings (BRE
/// derives its threshold bitmaps by prefix-OR).
pub(crate) fn equality_bitvecs(column: &Column) -> Vec<BitVec64> {
    let n = column.len();
    let c = column.cardinality() as usize;
    let mut out = vec![BitVec64::zeros(n); c + 1];
    for (row, &raw) in column.raw().iter().enumerate() {
        out[raw as usize].set(row, true);
    }
    out
}
