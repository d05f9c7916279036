//! Per-layer replays for traced runs. Each replay feeds a workload's own
//! seeded inputs into one layer's public functions, with a span of the
//! benchmark's tracer around every call.

use crate::model::{Mutations, Op, Twin};
use crate::stats::{Report, Samples};
use crate::trace::Tracer;
use ibis_baseline::SequentialScan;
use ibis_bitmap::{AdaptiveBitmapIndex, EqualityBitmapIndex, RangeBitmapIndex};
use ibis_bitvec::{Adaptive, BitStore, BitVec64, Wah};
use ibis_core::parallel::{configured_threads, ExecPool};
use ibis_core::{AccessMethod, Column, Dataset, MissingPolicy, RangeQuery, RowSet, ShardSynopsis};
use ibis_storage::{ConcurrentDb, DbConfig, DurableDb, IncompleteDb, ShardedDb};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The index families measured per query, each with the span name its
/// executions are recorded under. `bitmap-equality-plain` is the
/// uncompressed floor every compressed family is compared against.
const METHODS: [(&str, &str); 6] = [
    ("bitmap-equality", "method.bitmap-equality"),
    ("bitmap-range", "method.bitmap-range"),
    ("bitmap-adaptive", "method.bitmap-adaptive"),
    ("va-file", "method.va-file"),
    ("sequential-scan", "method.sequential-scan"),
    ("bitmap-equality-plain", "method.bitmap-equality-plain"),
];

/// The access methods the default database config registers (the planner
/// chooses among these).
const PLANNED: [&str; 4] = [
    "bitmap-equality",
    "bitmap-range",
    "va-file",
    "sequential-scan",
];

const KERNEL_BACKENDS: [&str; 3] = ["plain", "wah", "adaptive"];

/// Layers whose self time a traced run reports.
pub const LAYERS: [&str; 8] = [
    "request", "server", "storage", "shards", "planner", "pool", "method", "kernel",
];

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn slice(data: &Dataset, start: usize, end: usize) -> Dataset {
    let columns = data
        .columns()
        .iter()
        .map(|c| {
            Column::from_raw(c.name(), c.cardinality(), c.raw()[start..end].to_vec())
                .expect("slice of a valid column")
        })
        .collect();
    Dataset::new(columns).expect("equal lengths")
}

/// One shard of the base rows, rebuilt standalone: the planner's view
/// (an `IncompleteDb` under the default config) and one instance of every
/// measured access method.
struct Replica {
    start: usize,
    data: Arc<Dataset>,
    synopsis: ShardSynopsis,
    planner: IncompleteDb,
    methods: Vec<Box<dyn AccessMethod>>,
}

impl Replica {
    fn build(data: &Dataset, start: usize, end: usize) -> Replica {
        let d = Arc::new(slice(data, start, end));
        let methods: Vec<Box<dyn AccessMethod>> = vec![
            Box::new(EqualityBitmapIndex::<Wah>::build(&d)),
            Box::new(RangeBitmapIndex::<Wah>::build(&d)),
            Box::new(AdaptiveBitmapIndex::build(&d)),
            Box::new(ibis_vafile::VaFile::build(&d).bind(Arc::clone(&d))),
            Box::new(SequentialScan.bind(Arc::clone(&d))),
            Box::new(EqualityBitmapIndex::<BitVec64>::build(&d)),
        ];
        Replica {
            start,
            synopsis: ShardSynopsis::of(&d),
            planner: IncompleteDb::with_config((*d).clone(), DbConfig::default()),
            data: d,
            methods,
        }
    }
}

/// What the planner/method/kernel replay needs from a workload.
pub struct ShardInput<'a> {
    pub data: &'a Dataset,
    pub shard_rows: usize,
    /// How many leading shards to replicate.
    pub shards: usize,
    pub queries: &'a [RangeQuery],
}

/// Planner, shard merge, index-method and kernel replays over per-shard
/// replicas of the base rows. Every method's rows are checked against the
/// scan of the same shard.
pub fn planner_methods_kernels(
    input: &ShardInput<'_>,
    tracer: &Tracer,
    report: &mut Report,
    exact: &mut Vec<(String, String)>,
) {
    let n = input.data.n_rows();
    let replicas: Vec<Replica> = (0..input.shards)
        .map(|i| i * input.shard_rows)
        .take_while(|&s| s < n)
        .map(|s| Replica::build(input.data, s, (s + input.shard_rows).min(n)))
        .collect();

    let mut explain_us = Samples::new();
    let mut merge_us = Samples::new();
    let mut chosen: BTreeMap<&str, u64> = BTreeMap::new();
    let mut explains = 0u64;
    let mut misplans = 0u64;
    let mut method_us = [0f64; METHODS.len()];
    let mut method_counts = [[0u64; 3]; METHODS.len()];
    let mut kernel_operands: BTreeMap<(usize, usize, u16), BitVec64> = BTreeMap::new();

    for (qi, q) in input.queries.iter().enumerate() {
        let request = qi as u64 + 1;
        let root = tracer.span("request", 0, request);
        let mut parts = Vec::new();
        for (ri, r) in replicas.iter().enumerate() {
            if r.synopsis.can_prune(q) {
                continue;
            }
            let shard = tracer.span("shards.shard", root.id(), request);
            let t = Instant::now();
            let plan = {
                let _s = tracer.span("planner.explain", shard.id(), request);
                r.planner.explain(q)
            };
            explain_us.push(us(t.elapsed()));
            let plan = match plan {
                Ok(p) => p,
                Err(e) => {
                    report.fail(format!("explain failed: {e}"));
                    continue;
                }
            };
            explains += 1;
            *chosen.entry(plan.chosen).or_default() += 1;

            let truth = ibis_core::scan::execute(&r.data, q);
            let mut times = [0f64; METHODS.len()];
            let mut chosen_rows = RowSet::new();
            for (mi, m) in r.methods.iter().enumerate() {
                let t = Instant::now();
                let result = {
                    let _s = tracer.span(METHODS[mi].1, shard.id(), request);
                    m.execute_with_cost_threads(q, 1)
                };
                times[mi] = us(t.elapsed());
                match result {
                    Ok((rows, c)) => {
                        if rows != truth {
                            report.fail(format!("{} disagrees with the scan", METHODS[mi].0));
                        }
                        method_us[mi] += times[mi];
                        method_counts[mi][0] += c.words_processed as u64;
                        method_counts[mi][1] += c.bitmaps_accessed as u64;
                        method_counts[mi][2] += c.entries_scanned as u64;
                        if METHODS[mi].0 == plan.chosen {
                            chosen_rows = rows;
                        }
                    }
                    Err(e) => report.fail(format!("{} failed: {e}", METHODS[mi].0)),
                }
            }
            // A misplan: the chosen method took at least twice as long as
            // the fastest method the planner could have chosen.
            let time_of = |name: &str| METHODS.iter().position(|m| m.0 == name).map(|i| times[i]);
            let fastest = plan
                .candidates
                .iter()
                .filter_map(|c| time_of(c.name))
                .fold(f64::INFINITY, f64::min);
            if time_of(plan.chosen).is_some_and(|t| t >= 2.0 * fastest) {
                misplans += 1;
            }
            parts.push((r.start as u32, chosen_rows));
            if qi < 32 {
                for p in q.predicates() {
                    let col = r.data.column(p.attr).raw();
                    let mut values: Vec<u16> = (p.interval.lo..=p.interval.hi).take(8).collect();
                    if q.policy() == MissingPolicy::IsMatch {
                        values.push(0);
                    }
                    for v in values {
                        kernel_operands.entry((ri, p.attr, v)).or_insert_with(|| {
                            BitVec64::from_ones(
                                col.len(),
                                col.iter()
                                    .enumerate()
                                    .filter(|&(_, &x)| x == v)
                                    .map(|(i, _)| i as u32),
                            )
                        });
                    }
                }
            }
            drop(shard);
        }
        // The sharded executor's merge step: offset each shard's ids into
        // global order and concatenate.
        let t = Instant::now();
        let merged = {
            let _s = tracer.span("shards.merge", root.id(), request);
            RowSet::concat_sorted(
                parts
                    .into_iter()
                    .map(|(off, rows)| RowSet::from_sorted(rows.iter().map(|r| r + off).collect())),
            )
        };
        merge_us.push(us(t.elapsed()));
        black_box(merged);
    }

    let nq = input.queries.len().max(1) as f64;
    report.metric(
        "planner.explain_us",
        explain_us.median().unwrap_or(0.0),
        "us",
        explain_us.note(),
    );
    for name in PLANNED {
        let share = *chosen.get(name).unwrap_or(&0) as f64 / explains.max(1) as f64;
        let key = format!("planner.chosen.{name}");
        exact.push((key.clone(), format!("{share:?}")));
        report.metric(key, share, "ratio", format!("of {explains} shard plans"));
    }
    report.metric(
        "planner.misplan_frac",
        misplans as f64 / explains.max(1) as f64,
        "ratio",
        format!("{misplans} of {explains} shard plans"),
    );
    report.metric(
        "shards.merge_us",
        merge_us.median().unwrap_or(0.0),
        "us",
        merge_us.note(),
    );
    for (mi, (name, _)) in METHODS.iter().enumerate() {
        report.metric(
            format!("method.{name}.us_per_query"),
            method_us[mi] / nq,
            "us",
            format!(
                "{} queries over {} shard replicas",
                input.queries.len(),
                replicas.len()
            ),
        );
        for (ci, what) in ["words", "bitmaps", "entries"].iter().enumerate() {
            let key = format!("method.{name}.{what}_per_query");
            let v = method_counts[mi][ci] as f64 / nq;
            exact.push((key.clone(), format!("{v:?}")));
            report.metric(key, v, "count", "exact work counter".into());
        }
    }
    kernels(
        &kernel_operands.into_values().collect::<Vec<_>>(),
        tracer,
        report,
    );
}

/// Times AND, OR and popcount on the per-value bitmaps the replayed
/// predicates touch, in each backend, as nanoseconds per 64-bit word of
/// operand (`size_bytes / 8`).
fn kernels(operands: &[BitVec64], tracer: &Tracer, report: &mut Report) {
    fn run<B: BitStore>(plain: &[BitVec64], tracer: &Tracer) -> [f64; 3] {
        let ops: Vec<B> = plain.iter().map(B::from_bitvec).collect();
        let words = |b: &B| (b.size_bytes() as f64 / 8.0).max(1.0);
        // Pairs of equal-length operands (same shard) next to each other.
        let pairs: Vec<(&B, &B)> = ops
            .windows(2)
            .filter(|w| w[0].len() == w[1].len())
            .map(|w| (&w[0], &w[1]))
            .collect();
        let pair_words: f64 = pairs.iter().map(|(a, b)| words(a) + words(b)).sum();
        let single_words: f64 = ops.iter().map(words).sum();
        let timed = |name: &'static str, words: f64, f: &dyn Fn()| -> f64 {
            let mut reps = 0u64;
            let _s = tracer.span(name, 0, 0);
            let t = Instant::now();
            while reps < 3 || t.elapsed() < Duration::from_millis(40) {
                f();
                reps += 1;
            }
            t.elapsed().as_nanos() as f64 / (reps as f64 * words.max(1.0))
        };
        [
            timed("kernel.and", pair_words, &|| {
                for (a, b) in &pairs {
                    black_box(a.and(b));
                }
            }),
            timed("kernel.or", pair_words, &|| {
                for (a, b) in &pairs {
                    black_box(a.or(b));
                }
            }),
            timed("kernel.count", single_words, &|| {
                for a in &ops {
                    black_box(a.count_ones());
                }
            }),
        ]
    }
    let results = [
        run::<BitVec64>(operands, tracer),
        run::<Wah>(operands, tracer),
        run::<Adaptive>(operands, tracer),
    ];
    for (op_i, op) in ["and", "or", "count"].iter().enumerate() {
        for (bi, backend) in KERNEL_BACKENDS.iter().enumerate() {
            report.metric(
                format!("kernel.{op}_ns_per_word.{backend}"),
                results[bi][op_i],
                "ns/word",
                format!("{} operand bitmaps", operands.len()),
            );
        }
    }
}

/// Median nanoseconds per call of `f`, timed in batches of `batch`.
fn per_call_ns(batches: usize, batch: usize, mut f: impl FnMut()) -> (f64, Samples) {
    let mut s = Samples::new();
    for _ in 0..batches {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        s.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    (s.median().unwrap_or(0.0), s)
}

/// Shard pruning, pool start-up, the degree-1 against default-degree
/// speed-up, and snapshot acquisition, on the workload's own database.
pub fn shards_and_pool(
    db: &ConcurrentDb,
    queries: &[RangeQuery],
    tracer: &Tracer,
    report: &mut Report,
    exact: &mut Vec<(String, String)>,
) {
    let (acquire_ns, s) = per_call_ns(50, 200, || {
        black_box(db.snapshot());
    });
    report.metric(
        "storage.snapshot_acquire_ns",
        acquire_ns,
        "ns",
        format!("median of {} batches of 200", s.len()),
    );
    let (threads_ns, s) = per_call_ns(50, 200, || {
        black_box(configured_threads());
    });
    report.metric(
        "pool.configured_threads_ns",
        threads_ns,
        "ns",
        format!("median of {} batches of 200", s.len()),
    );
    let degree = configured_threads();
    let (spawn_ns, s) = per_call_ns(100, 10, || {
        let _s = tracer.span("pool.try_map", 0, 0);
        black_box(
            ExecPool::new(degree)
                .try_map(vec![(); degree], |()| Ok(()))
                .ok(),
        );
    });
    report.metric(
        "pool.spawn_us",
        spawn_ns / 1e3,
        "us",
        format!("degree {degree}, median of {} batches of 10", s.len()),
    );

    let snap = db.snapshot();
    let (mut pruned, mut total) = (0usize, 0usize);
    let (mut t1, mut td) = (0f64, 0f64);
    for (qi, q) in queries.iter().enumerate() {
        let request = qi as u64 + 1;
        match snap.db().execute_with_stats_threads(q, 1) {
            Ok(e) => {
                pruned += e.shards_pruned;
                total += e.shards_total;
            }
            Err(e) => report.fail(format!("sharded execute failed: {e}")),
        }
        // Alternate which degree runs first so warm caches favour neither.
        for round in 0..2 {
            let order = if round == 0 { [1, degree] } else { [degree, 1] };
            for d in order {
                let name = if d == 1 {
                    "shards.execute_degree1"
                } else {
                    "shards.execute_default"
                };
                let t = Instant::now();
                {
                    let _s = tracer.span(name, 0, request);
                    black_box(snap.execute_threads(q, d).ok());
                }
                let el = us(t.elapsed());
                if d == 1 {
                    t1 += el;
                } else {
                    td += el;
                }
            }
        }
    }
    let frac = pruned as f64 / total.max(1) as f64;
    exact.push(("shards.pruned_frac".into(), format!("{frac:?}")));
    report.metric(
        "shards.pruned_frac",
        frac,
        "ratio",
        format!("{pruned} of {total} shard visits"),
    );
    report.metric(
        "pool.speedup",
        if td > 0.0 { t1 / td } else { 0.0 },
        "ratio",
        format!(
            "degree 1 time / degree {degree} time over {} queries",
            queries.len()
        ),
    );
}

/// What [`replica_writes`] measured.
pub struct ReplicaWrites {
    pub mem_insert_us: Samples,
    pub durable_insert_us: Samples,
    pub wal_bytes_per_write: f64,
    pub checkpoint_ms: f64,
}

/// Insert latency of the backends without snapshot publication: a clone of
/// the in-memory sharded store, and a durable engine replica created in
/// `dir` (which also gives WAL bytes per insert and one checkpoint's
/// milliseconds).
#[allow(clippy::too_many_arguments)]
pub fn replica_writes(
    base: &Dataset,
    current: &ShardedDb,
    shard_rows: usize,
    seed: u64,
    inserts: usize,
    dir: &Path,
    tracer: &Tracer,
    report: &mut Report,
) -> ReplicaWrites {
    let twin = Twin::new(base, false);
    let mut muts = Mutations::new(seed ^ 0x5eed);
    let mut rows = Vec::with_capacity(inserts);
    while rows.len() < inserts {
        if let Op::Insert(row) = muts.next_op(&twin) {
            rows.push(row);
        }
    }

    let mut mem_insert_us = Samples::new();
    let mut mem = current.clone();
    for row in &rows {
        let t = Instant::now();
        let r = {
            let _s = tracer.span("storage.mem_insert", 0, 0);
            mem.insert(row)
        };
        mem_insert_us.push(us(t.elapsed()));
        if let Err(e) = r {
            report.fail(format!("replica insert failed: {e}"));
        }
    }
    drop(mem);

    let mut durable_insert_us = Samples::new();
    let mut wal_bytes_per_write = 0.0;
    let mut checkpoint_ms = 0.0;
    let _ = std::fs::remove_dir_all(dir);
    match DurableDb::create(dir, base.clone(), shard_rows, DbConfig::default()) {
        Ok(mut d) => {
            let wal0 = d.wal_bytes();
            for row in &rows {
                let t = Instant::now();
                let r = {
                    let _s = tracer.span("storage.durable_insert", 0, 0);
                    d.insert(row)
                };
                durable_insert_us.push(us(t.elapsed()));
                if let Err(e) = r {
                    report.fail(format!("durable replica insert failed: {e}"));
                }
            }
            wal_bytes_per_write = (d.wal_bytes() - wal0) as f64 / rows.len().max(1) as f64;
            let t = Instant::now();
            let r = {
                let _s = tracer.span("storage.checkpoint", 0, 0);
                d.checkpoint()
            };
            checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
            if let Err(e) = r {
                report.fail(format!("durable replica checkpoint failed: {e}"));
            }
        }
        Err(e) => report.problem(format!(
            "cannot create durable replica in {}: {e}",
            dir.display()
        )),
    }
    let _ = std::fs::remove_dir_all(dir);
    ReplicaWrites {
        mem_insert_us,
        durable_insert_us,
        wal_bytes_per_write,
        checkpoint_ms,
    }
}

/// Read latency with the program's `ibis_obs` recorder on against off, in
/// alternating blocks of the same reads. Returns (on ÷ off p50 − 1).
/// Leaves the recorder in the state `restore_enabled` names.
pub fn obs_overhead(
    mut read: impl FnMut(usize) -> bool,
    pool: usize,
    restore_enabled: bool,
    report: &mut Report,
) -> f64 {
    let mut on = Samples::new();
    let mut off = Samples::new();
    let mut i = 0usize;
    for block in 0..10 {
        let enabled = block % 2 == 1;
        if enabled {
            ibis_obs::Recorder::enabled().install();
        } else {
            ibis_obs::Recorder::disabled().install();
        }
        let t = Instant::now();
        while t.elapsed() < Duration::from_millis(120) {
            let s = Instant::now();
            if !read(i % pool) {
                report.fail("read failed during the recorder on/off replay");
            }
            let el = us(s.elapsed());
            if enabled {
                on.push(el);
            } else {
                off.push(el);
            }
            i += 1;
        }
    }
    if restore_enabled {
        ibis_obs::Recorder::enabled().install();
    } else {
        ibis_obs::Recorder::disabled().install();
    }
    match (on.median(), off.median()) {
        (Some(a), Some(b)) if b > 0.0 => a / b - 1.0,
        _ => 0.0,
    }
}
