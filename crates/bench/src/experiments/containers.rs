//! containers — the adaptive-container ablation (DESIGN.md §17): index
//! size and query/AND-reduce time for the plain, WAH, BBC and adaptive
//! bit-vector backends as the missing rate sweeps from 0% to 80%.
//!
//! The missing rate is the right axis because it decides which container
//! kind wins per chunk: dense value bitmaps favour bitmap containers (and
//! WAH literals), sparse ones favour array containers (where WAH pays two
//! words per lonely set bit). The CSV this produces (`results/containers.csv`)
//! backs the acceptance bound in ISSUE 10: adaptive strictly smaller than
//! WAH at ≥ 1 missing rate and within 1.1× WAH on AND-reduce at every rate.

use crate::config::Scale;
use crate::experiments::harness::{time_methods, uniform_group};
use crate::report::{fmt_kb, fmt_ms, fmt_ratio, Table};
use ibis_bitmap::EqualityBitmapIndex;
use ibis_bitvec::{Adaptive, Bbc, BitStore, BitVec64, Wah};
use ibis_core::gen::{workload, QuerySpec};
use ibis_core::{AccessMethod, Dataset, MissingPolicy};

/// The sweep: uniform columns at a fixed cardinality, missing rate rising
/// until most of every column is `B_0` territory.
const MISSING_RATES: [f64; 5] = [0.0, 0.2, 0.4, 0.6, 0.8];

/// Columns per dataset (also the AND-reduce fan-in of the kernel probe).
const COLS: usize = 8;

/// Shared cardinality of every column in the sweep.
const CARD: u16 = 25;

/// Builds the dense per-attribute operands the AND-reduce probe folds: for
/// each of the first `k` attributes, the rows whose value lies in the lower
/// half of the domain or is missing — the same shape an interval
/// evaluation hands to the reducer under missing-is-match.
fn probe_operands(d: &Dataset, k: usize) -> Vec<BitVec64> {
    (0..k)
        .map(|attr| {
            let col = d.column(attr);
            let mut bv = BitVec64::zeros(d.n_rows());
            for (row, &raw) in col.raw().iter().enumerate() {
                if raw == 0 || raw <= CARD / 2 {
                    bv.set(row, true);
                }
            }
            bv
        })
        .collect()
}

/// Times `reps` left-folds of `operands` through backend `B`'s AND kernel
/// — the isolated hot loop the wide kernels and the container-vs-container
/// paths accelerate. Returns (total ms, fold result popcount) so the
/// result is observed and the fold cannot be optimized away.
fn and_reduce_ms<B: BitStore>(operands: &[BitVec64], reps: usize) -> (f64, usize) {
    let encoded: Vec<B> = operands.iter().map(B::from_bitvec).collect();
    let mut ones = 0;
    let (_, ms) = crate::time_ms(|| {
        for _ in 0..reps {
            let mut acc = encoded[0].clone();
            for b in &encoded[1..] {
                acc = acc.and(b);
            }
            ones = acc.count_ones();
        }
    });
    (ms, ones)
}

/// The containers experiment: one row per (missing rate, backend).
pub fn run(scale: &Scale) -> Vec<Table> {
    let mut table = Table::new(
        "containers",
        "bit-vector backend vs missing rate: size, query time, AND-reduce kernel \
         (uniform data, 8 cols, card 25, k=4, GS=1%)",
        &[
            "missing_rate",
            "backend",
            "size_kb",
            "ratio",
            "build_ms",
            "query_ms",
            "and_reduce_ms",
            "containers_a/b/r",
        ],
    );
    let rows = scale.rows.min(100_000);
    let reps = (scale.queries * 10).max(50);
    for (i, &rate) in MISSING_RATES.iter().enumerate() {
        let d = uniform_group(rows, COLS, CARD, rate, scale.seed + 70 + i as u64);
        let spec = QuerySpec {
            n_queries: scale.queries,
            k: 4,
            global_selectivity: 0.01,
            policy: MissingPolicy::IsMatch,
            candidate_attrs: vec![],
        };
        let queries = workload(&d, &spec, scale.seed + 80 + i as u64);
        let operands = probe_operands(&d, 4);

        // Build all four contenders (timed), then run the shared workload
        // through the registry runner, which asserts cross-backend
        // agreement before any number is reported.
        let (plain, plain_build) = crate::time_ms(|| EqualityBitmapIndex::<BitVec64>::build(&d));
        let (wah, wah_build) = crate::time_ms(|| EqualityBitmapIndex::<Wah>::build(&d));
        let (bbc, bbc_build) = crate::time_ms(|| EqualityBitmapIndex::<Bbc>::build(&d));
        let (adaptive, adaptive_build) =
            crate::time_ms(|| EqualityBitmapIndex::<Adaptive>::build(&d));
        let sizes = [
            plain.size_report(),
            wah.size_report(),
            bbc.size_report(),
            adaptive.size_report(),
        ];
        let (a, b, r) = adaptive.container_census();
        let census = [
            String::new(),
            String::new(),
            String::new(),
            format!("{a}/{b}/{r}"),
        ];
        let methods: Vec<Box<dyn AccessMethod>> = vec![
            Box::new(plain),
            Box::new(wah),
            Box::new(bbc),
            Box::new(adaptive),
        ];
        let timings = time_methods(&methods, &queries);
        let kernel = [
            and_reduce_ms::<BitVec64>(&operands, reps),
            and_reduce_ms::<Wah>(&operands, reps),
            and_reduce_ms::<Bbc>(&operands, reps),
            and_reduce_ms::<Adaptive>(&operands, reps),
        ];
        // Every backend's fold lands on the same popcount — the kernel
        // probe is differentially checked just like the query workload.
        assert!(
            kernel.iter().all(|(_, ones)| *ones == kernel[0].1),
            "AND-reduce kernels disagree at missing rate {rate}"
        );
        let builds = [plain_build, wah_build, bbc_build, adaptive_build];
        for (j, backend) in ["plain", "wah", "bbc", "adaptive"].iter().enumerate() {
            table.push(vec![
                format!("{rate:.1}"),
                (*backend).into(),
                fmt_kb(sizes[j].total_bytes()),
                fmt_ratio(sizes[j].compression_ratio()),
                fmt_ms(builds[j]),
                fmt_ms(timings[j].ms),
                fmt_ms(kernel[j].0),
                census[j].clone(),
            ]);
        }
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_every_rate_and_backend() {
        let tables = run(&Scale {
            rows: 1_500,
            queries: 4,
            ..Scale::smoke()
        });
        let t = &tables[0];
        assert_eq!(t.rows.len(), MISSING_RATES.len() * 4);
        // At the sparsest rate the adaptive index must be strictly smaller
        // than WAH — the size half of the acceptance bound holds even at
        // test scale because it is a property of the encodings, not of the
        // machine.
        let kb = |backend: &str, rate: &str| -> f64 {
            t.rows
                .iter()
                .find(|r| r[0] == rate && r[1] == backend)
                .expect("row present")[2]
                .parse()
                .unwrap()
        };
        assert!(kb("adaptive", "0.8") < kb("wah", "0.8"));
        // The adaptive rows carry a container census, others leave it blank.
        for row in &t.rows {
            assert_eq!(row[1] == "adaptive", !row[7].is_empty());
        }
    }
}
