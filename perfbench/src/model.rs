//! Seeded inputs and the ground truth they are checked against: census
//! data, the query pools of each workload, the mutation stream, and a twin
//! of the database's logical row-id space.

use ibis_core::gen::{census_scaled, workload, QuerySpec};
use ibis_core::{Cell, Column, Dataset, MissingPolicy, Predicate, RangeQuery, RowSet};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Distinct sub-seeds derived from the workload seed, so data, queries,
/// schedules and mutations never share a random stream.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const DATA: u64 = 1;
const QUERIES: u64 = 2;
const SCHEDULE: u64 = 3;
const MUTATIONS: u64 = 4;
const PICKS: u64 = 5;

pub fn census(rows: usize, seed: u64) -> Dataset {
    census_scaled(rows, sub_seed(seed, DATA))
}

fn specs_to_queries(
    data: &Dataset,
    specs: &[(usize, f64, MissingPolicy)],
    per_spec: usize,
    seed: u64,
) -> Vec<RangeQuery> {
    let mut out = Vec::new();
    for (i, &(k, gs, policy)) in specs.iter().enumerate() {
        let spec = QuerySpec {
            n_queries: per_spec,
            k,
            global_selectivity: gs,
            policy,
            candidate_attrs: vec![],
        };
        out.extend(workload(
            data,
            &spec,
            sub_seed(seed, QUERIES + 100 * i as u64),
        ));
    }
    out
}

const BOTH: [MissingPolicy; 2] = [MissingPolicy::IsMatch, MissingPolicy::IsNotMatch];

/// The load generator's traffic mix: 1-attribute ("point") and
/// 3-attribute range queries at 5% global selectivity, both semantics.
pub fn serve_queries(data: &Dataset, seed: u64) -> Vec<RangeQuery> {
    let specs: Vec<_> = [1, 3]
        .into_iter()
        .flat_map(|k| BOTH.map(|p| (k, 0.05, p)))
        .collect();
    specs_to_queries(data, &specs, 64, seed)
}

/// The embedded-analytics mix: 2–6-attribute ranges at 5–30% global
/// selectivity, both semantics.
pub fn analytic_queries(data: &Dataset, seed: u64) -> Vec<RangeQuery> {
    let mut specs = Vec::new();
    for k in 2..=6 {
        for gs in [0.05, 0.10, 0.20, 0.30] {
            for p in BOTH {
                specs.push((k, gs, p));
            }
        }
    }
    specs_to_queries(data, &specs, 5, seed)
}

/// A seeded, endless sequence of indexes into a query pool.
pub struct Picks(StdRng, usize);

impl Picks {
    pub fn new(seed: u64, stream: u64, pool: usize) -> Picks {
        Picks(StdRng::seed_from_u64(sub_seed(seed, PICKS + stream)), pool)
    }

    pub fn next_index(&mut self) -> usize {
        self.0.gen_range(0..self.1)
    }
}

/// Exponential inter-arrival offsets (seconds from phase start) of a
/// Poisson process at `rate` per second, up to `secs`.
pub fn poisson_schedule(seed: u64, rate: f64, secs: f64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, SCHEDULE));
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -u.ln() / rate;
        if t >= secs {
            return out;
        }
        out.push(t);
    }
}

/// One logical mutation, in watermark order.
#[derive(Clone, Debug)]
pub enum Op {
    Insert(Vec<Cell>),
    Delete(u32),
    Compact,
}

/// The database's logical row-id space, replayed op by op: inserts append,
/// deletes tombstone a live id, compaction drops tombstones and renumbers
/// the survivors in order. Cell values are kept only when a twin must
/// answer queries or audit content (`with_cells`).
#[derive(Clone)]
pub struct Twin {
    names: Vec<String>,
    cards: Vec<u16>,
    cols: Option<Vec<Vec<u16>>>,
    alive: Vec<bool>,
    live: usize,
}

impl Twin {
    pub fn new(base: &Dataset, with_cells: bool) -> Twin {
        Twin {
            names: base
                .columns()
                .iter()
                .map(|c| c.name().to_string())
                .collect(),
            cards: base.columns().iter().map(Column::cardinality).collect(),
            cols: with_cells.then(|| base.columns().iter().map(|c| c.raw().to_vec()).collect()),
            alive: vec![true; base.n_rows()],
            live: base.n_rows(),
        }
    }

    pub fn live(&self) -> usize {
        self.live
    }

    /// Applies `op`; for a delete, returns whether the id was live.
    pub fn apply(&mut self, op: &Op) -> bool {
        match op {
            Op::Insert(row) => {
                if let Some(cols) = &mut self.cols {
                    for (col, cell) in cols.iter_mut().zip(row) {
                        col.push(cell.raw());
                    }
                }
                self.alive.push(true);
                self.live += 1;
                true
            }
            Op::Delete(id) => {
                let id = *id as usize;
                let hit = id < self.alive.len() && self.alive[id];
                if hit {
                    self.alive[id] = false;
                    self.live -= 1;
                }
                hit
            }
            Op::Compact => {
                if let Some(cols) = &mut self.cols {
                    for col in cols.iter_mut() {
                        let mut i = 0;
                        col.retain(|_| {
                            i += 1;
                            self.alive[i - 1]
                        });
                    }
                }
                self.alive.retain(|&a| a);
                true
            }
        }
    }

    /// A uniformly placed live id (first live id at or after a random
    /// position, wrapping).
    pub fn pick_live(&self, rng: &mut StdRng) -> u32 {
        let n = self.alive.len();
        let start = rng.gen_range(0..n);
        (0..n)
            .map(|k| (start + k) % n)
            .find(|&i| self.alive[i])
            .expect("at least one live row") as u32
    }

    /// The scan's answer to `q` over the twin's current rows: the query's
    /// columns are projected into a small dataset, `ibis_core::scan`
    /// evaluates it, and tombstoned ids are dropped.
    pub fn truth(&self, q: &RangeQuery) -> RowSet {
        let cols = self.cols.as_ref().expect("twin holds cells");
        let columns = q
            .predicates()
            .iter()
            .map(|p| {
                Column::from_raw(
                    self.names[p.attr].clone(),
                    self.cards[p.attr],
                    cols[p.attr].clone(),
                )
                .expect("twin values stay in domain")
            })
            .collect();
        let projected = Dataset::new(columns).expect("equal column lengths");
        let preds = q
            .predicates()
            .iter()
            .enumerate()
            .map(|(i, p)| Predicate {
                attr: i,
                interval: p.interval,
            })
            .collect();
        let pq = RangeQuery::new(preds, q.policy()).expect("projection keeps validity");
        let hits = ibis_core::scan::execute(&projected, &pq);
        RowSet::from_sorted(hits.iter().filter(|&r| self.alive[r as usize]).collect())
    }

    /// Values of attribute `attr` by row id, tombstoned ids included
    /// (0 = missing).
    pub fn column(&self, attr: usize) -> &[u16] {
        &self.cols.as_ref().expect("twin holds cells")[attr]
    }

    pub fn is_alive(&self, id: usize) -> bool {
        self.alive.get(id).copied().unwrap_or(false)
    }

    pub fn cardinality(&self, attr: usize) -> u16 {
        self.cards[attr]
    }

    pub fn n_attrs(&self) -> usize {
        self.cards.len()
    }
}

/// The writer's seeded mutation stream: ~90% inserts of fresh census rows
/// and ~10% deletes of live rows (chosen against the twin, so every delete
/// hits).
pub struct Mutations {
    rng: StdRng,
    seed: u64,
    chunk: Option<Dataset>,
    chunk_no: u64,
    pos: usize,
}

const CHUNK_ROWS: usize = 4096;

impl Mutations {
    pub fn new(seed: u64) -> Mutations {
        Mutations {
            rng: StdRng::seed_from_u64(sub_seed(seed, MUTATIONS)),
            seed,
            chunk: None,
            chunk_no: 0,
            pos: CHUNK_ROWS,
        }
    }

    fn fresh_row(&mut self) -> Vec<Cell> {
        if self.pos >= CHUNK_ROWS {
            self.chunk_no += 1;
            self.chunk = Some(census_scaled(
                CHUNK_ROWS,
                sub_seed(self.seed, MUTATIONS + 1000 * self.chunk_no),
            ));
            self.pos = 0;
        }
        self.pos += 1;
        self.chunk
            .as_ref()
            .expect("chunk generated")
            .row(self.pos - 1)
    }

    pub fn next_op(&mut self, twin: &Twin) -> Op {
        if self.rng.gen_range(0..10) == 0 && twin.live() > 0 {
            Op::Delete(twin.pick_live(&mut self.rng))
        } else {
            Op::Insert(self.fresh_row())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twin_compaction_renumbers_survivors_in_order() {
        let base = census_scaled(10, 1);
        let mut t = Twin::new(&base, true);
        assert!(t.apply(&Op::Delete(2)));
        assert!(!t.apply(&Op::Delete(2)));
        t.apply(&Op::Insert(base.row(0)));
        t.apply(&Op::Compact);
        assert_eq!(t.column(0).len(), 10);
        assert_eq!(t.column(0)[2], base.cell(3, 0).raw());
        assert_eq!(t.column(0)[9], base.cell(0, 0).raw());
    }

    #[test]
    fn twin_truth_matches_the_scan_on_untouched_data() {
        let base = census_scaled(500, 3);
        let t = Twin::new(&base, true);
        for q in serve_queries(&base, 3).iter().take(20) {
            assert_eq!(t.truth(q), ibis_core::scan::execute(&base, q));
        }
    }
}
