//! The three workloads. Each builds its inputs from the seed, sets the
//! program up (timing that as `setup_s`), runs its timed phases, checks
//! every timed answer against the scan afterwards and, in a traced run,
//! replays its inputs into each layer.

use crate::layers::{self, ShardInput, LAYERS};
use crate::model::{self, Mutations, Op, Picks, Twin};
use crate::serve::{self, Answer, Outcome, Pace};
use crate::stats::{digest, median_of, Report, RssSampler, Samples, BLOCKS};
use crate::trace::Tracer;
use ibis_core::{Dataset, MissingPolicy, Predicate, RangeQuery};
use ibis_server::{Client, Server, ServerConfig, ServerHandle};
use ibis_storage::{ConcurrentDb, DbConfig, ShardedDb};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 3] = ["serve_mixed", "analytic_large", "ingest_durable"];

/// `serve_mixed`: 20,000 census rows in 1,250-row shards, served.
const SERVE_ROWS: usize = 20_000;
const SERVE_SHARD_ROWS: usize = 1_250;
/// Offered rate of the open-loop phase: a quarter of the ~400 req/s the
/// load generator's flood mode served with 2 workers. At half that
/// capacity the queue, and with it every latency, swings with this
/// machine's vCPU speed (p50 spread 26% over ten seeds at 200 req/s).
const SERVE_RATE: f64 = 100.0;
/// Outstanding requests in the capacity phase (well below the default
/// queue high-water mark, so nothing is shed).
const SERVE_WINDOW: usize = 32;
/// Requests the capacity phase sends per second of `--seconds` (fixed
/// work: the server's retained spans, and with them its speed, depend on
/// how many requests it has served).
const SERVE_CAPACITY_PER_SEC: usize = 400;
/// Fresh-server rounds the two serving phases and the write probe are
/// split into. Many short rounds spread every metric's samples over the
/// whole run, so a slow spell of the machine moves a share of each metric
/// rather than the whole of one.
const SERVE_ROUNDS: usize = 8;
/// `analytic_large`: the paper's census size in 65,536-row shards.
const ANALYTIC_ROWS: usize = 463_733;
const ANALYTIC_SHARD_ROWS: usize = 65_536;
/// Timed reads per second of `--seconds` (fixed work), after an untimed
/// warm-up.
const ANALYTIC_READS_PER_SEC: u64 = 600;
const ANALYTIC_WARMUP: Duration = Duration::from_secs(2);
/// Rounds of the `analytic_large` write probe.
const ANALYTIC_PROBE_ROUNDS: u64 = 32;
/// Untimed inserts each `ingest_durable` round adds after its final
/// checkpoint, before the reopen audit.
const INGEST_WAL_TAIL: usize = 1_000;
/// Replicate rounds `ingest_durable` is split into.
const INGEST_ROUNDS: usize = 4;
/// `ingest_durable` reader period (50 requests per second).
const READER_PERIOD: Duration = Duration::from_millis(20);
/// Writer cadence: compact every this many mutations, checkpoint every
/// twice as many.
const COMPACT_EVERY: usize = 2_000;
/// Mutations the `ingest_durable` writer applies per second of
/// `--seconds` (fixed work, so the final state repeats exactly).
const INGEST_MUTATIONS_PER_SEC: usize = 4_000;
/// Mutations of `analytic_large`'s write probe (over all its rounds).
const PROBE_MUTATIONS: usize = 16_000;
/// The same for `serve_mixed` (over all its rounds), whose 1,250-row
/// shards keep each insert's copy-on-write clone small.
const SERVE_PROBE_MUTATIONS: usize = 40_000;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Where durable databases live (default: `out/` beside the manifest).
    pub data_dir: Option<PathBuf>,
}

pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn data_dir(args: &Args) -> PathBuf {
    args.data_dir.clone().unwrap_or_else(out_dir)
}

/// One run of `args.workload`; the traced run's spans are written out at
/// the end.
pub fn run(args: &Args) -> Report {
    let tracer = Tracer::new(args.trace);
    let mut exact: Vec<(String, String)> = Vec::new();
    let mut report = match args.workload.as_str() {
        "serve_mixed" => serve_mixed(args, &tracer, &mut exact),
        "analytic_large" => analytic_large(args, &tracer, &mut exact),
        "ingest_durable" => ingest_durable(args, &tracer, &mut exact),
        other => {
            let mut r = Report::default();
            r.problem(format!("unknown workload {other:?}"));
            return r;
        }
    };
    exact_check(args, &exact, &mut report);
    if !args.trace {
        let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
        let note = format!("{} failed of {} attempted", report.failed, report.attempted);
        report.metric("failed_frac", failed_frac, "ratio", note);
        report.metrics.sort_by_key(|m| {
            GATED
                .iter()
                .position(|&n| n == m.name)
                .unwrap_or(GATED.len())
        });
        let (gated, printed) = std::mem::take(&mut report.metrics)
            .into_iter()
            .partition(|m| GATED.contains(&m.name.as_str()));
        report.metrics = gated;
        report.printed = printed;
    } else {
        // A traced run reports the per-layer metrics only.
        report.metrics.retain(|m| {
            !GATED.contains(&m.name.as_str()) && !PRINTED_ONLY.contains(&m.name.as_str())
        });
        let by_layer = tracer.self_time_by_layer();
        for layer in LAYERS {
            let ns = by_layer.get(layer).copied().unwrap_or(0);
            report.metric(
                format!("self_ms.{layer}"),
                ns as f64 / 1e6,
                "ms",
                "benchmark spans".into(),
            );
        }
        let path = out_dir().join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => report.problem(format!("cannot write spans to {}: {e}", path.display())),
        }
    }
    report
}

/// The exact counts of one seed must repeat bit for bit: each run compares
/// its counts with those an earlier run of the same build, workload, seed
/// and length left behind, then records its own.
fn exact_check(args: &Args, exact: &[(String, String)], report: &mut Report) {
    let build = std::env::current_exe()
        .and_then(std::fs::metadata)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_secs());
    let path = out_dir().join(format!(
        "counts-{}-{}-{}-{build}.txt",
        args.workload, args.seed, args.seconds
    ));
    let mut known: std::collections::BTreeMap<String, String> = std::fs::read_to_string(&path)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    for (k, v) in exact {
        match known.get(k) {
            Some(old) if old != v => {
                report.problem(format!("exact count {k} did not repeat: {old} then {v}"))
            }
            _ => {
                known.insert(k.clone(), v.clone());
            }
        }
    }
    let text: String = known.iter().map(|(k, v)| format!("{k}={v}\n")).collect();
    let written = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, text));
    if let Err(e) = written {
        report.problem(format!(
            "cannot record exact counts in {}: {e}",
            path.display()
        ));
    }
}

/// Every server setting is the default except `workers` = cores.
fn server_config() -> ServerConfig {
    ServerConfig {
        workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
        ..ServerConfig::default()
    }
}

/// Starts a server over `db` and waits until it answers a ping.
fn start_server(db: &Arc<ConcurrentDb>) -> std::io::Result<ServerHandle> {
    let handle = Server::start(Arc::clone(db), "127.0.0.1:0", server_config())?;
    Client::connect(handle.addr())?.ping()?;
    Ok(handle)
}

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Median of the run's set-ups (one per round; `analytic_large`: one
/// before the timed phase and two after it, so the discarded copies never
/// inflate the timed phase's memory).
fn setup_metric(report: &mut Report, times: &Samples) {
    let note = format!("median of {} set-ups", times.len());
    report.metric("setup_s", times.median().unwrap_or(0.0), "s", note);
}

fn latency_metrics(report: &mut Report, prefix: &str, s: &Samples) {
    for p in [50.0, 99.0] {
        let (v, note) = s.blocked_percentile(p);
        report.metric(format!("{prefix}_p{p}_us"), v, "us", note);
    }
}

/// Bytes of the checksummed snapshot image a checkpoint would write.
fn snapshot_image_bytes(db: &ShardedDb) -> std::io::Result<u64> {
    struct Count(u64);
    impl std::io::Write for Count {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.0 += b.len() as u64;
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let mut c = Count(0);
    db.write_snapshot(&mut c)?;
    Ok(c.0)
}

fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for e in std::fs::read_dir(dir)? {
        let m = e?.metadata()?;
        if m.is_file() {
            total += m.len();
        }
    }
    Ok(total)
}

fn size_metrics(
    report: &mut Report,
    exact: &mut Vec<(String, String)>,
    index_bytes: usize,
    disk_bytes: u64,
    rows: usize,
    disk_note: &str,
) {
    let rows = rows.max(1) as f64;
    let ib = index_bytes as f64 / rows;
    let db = disk_bytes as f64 / rows;
    exact.push(("index_bytes_per_row".into(), format!("{ib:?}")));
    exact.push(("disk_bytes_per_row".into(), format!("{db:?}")));
    report.metric("index_bytes_per_row", ib, "B", "exact count".into());
    report.metric(
        "disk_bytes_per_row",
        db,
        "B",
        format!("exact count; {disk_note}"),
    );
}

/// Checks served answers after timing. `truth(query, watermark)` gives the
/// scan's (row count, digest) at that watermark.
fn check_answers(
    report: &mut Report,
    outcomes: &[Outcome],
    mut truth: impl FnMut(usize, u64) -> (usize, u64),
) {
    for o in outcomes {
        report.attempted += 1;
        match &o.answer {
            Answer::Rows {
                watermark,
                digest,
                len,
            } => {
                if truth(o.query, *watermark) != (*len, *digest) {
                    report.fail(format!(
                        "wrong rows for query {} at watermark {watermark}",
                        o.query
                    ));
                }
            }
            Answer::Count { watermark, count } => {
                if truth(o.query, *watermark).0 as u64 != *count {
                    report.fail(format!(
                        "wrong count for query {} at watermark {watermark}",
                        o.query
                    ));
                }
            }
            Answer::Refused { code, message } => {
                report.fail(format!("refused ({code:?}): {message}"))
            }
            Answer::Unexpected(what) => report.fail(format!("unexpected response {what}")),
        }
    }
}

/// Truth for a workload whose data does not change while it reads.
fn static_truth<'a>(
    data: &'a Dataset,
    queries: &'a [RangeQuery],
) -> impl FnMut(usize, u64) -> (usize, u64) + 'a {
    let mut cache: HashMap<usize, (usize, u64)> = HashMap::new();
    move |q, _| {
        *cache.entry(q).or_insert_with(|| {
            let rows = ibis_core::scan::execute(data, &queries[q]);
            (rows.len(), digest(rows.rows()))
        })
    }
}

fn samples_of(outcomes: &[Outcome], f: impl Fn(&Outcome) -> f64) -> Samples {
    let mut s = Samples::new();
    for o in outcomes {
        s.push(f(o));
    }
    s
}

/// Completed requests per second between the first send and the last
/// answer.
fn throughput(outcomes: &[Outcome]) -> f64 {
    let first = outcomes.iter().map(|o| o.sent).min();
    let last = outcomes.iter().map(|o| o.done).max();
    match (first, last) {
        (Some(a), Some(b)) if b > a => outcomes.len() as f64 / (b - a).as_secs_f64(),
        _ => 0.0,
    }
}

/// What a closed-loop writer did.
#[derive(Default)]
struct Writes {
    insert_us: Samples,
    write_us: Samples,
    /// Seconds from the writer's start to each acknowledgement.
    acked_s: Samples,
    elapsed: f64,
    log: Vec<Op>,
    compact_ms: Samples,
    checkpoint_ms: Samples,
    wal_bytes: u64,
}

impl Writes {
    /// Appends a later writer run, as if it had followed this one directly.
    fn append(&mut self, later: Writes) {
        for (i, &t) in later.acked_s.values().iter().enumerate() {
            self.acked_s.push(self.elapsed + t);
            self.write_us.push(later.write_us.values()[i]);
        }
        self.insert_us.extend(&later.insert_us);
        self.elapsed += later.elapsed;
        self.log.extend(later.log);
        self.compact_ms.extend(&later.compact_ms);
        self.checkpoint_ms.extend(&later.checkpoint_ms);
        self.wal_bytes += later.wal_bytes;
    }
}

/// A closed-loop writer applying `n` seeded mutations to `db` (~90%
/// inserts, ~10% deletes of live rows). With `compact_every`, it compacts
/// at that cadence and checkpoints at twice it, plus once at the end.
/// Every acknowledgement is checked against the twin as it returns.
fn run_writer(
    db: &ConcurrentDb,
    base: &Dataset,
    seed: u64,
    n: usize,
    compact_every: Option<usize>,
    tracer: &Tracer,
    report: &mut Report,
) -> Writes {
    let mut twin = Twin::new(base, false);
    let mut muts = Mutations::new(seed);
    let mut w = Writes {
        insert_us: Samples::new(),
        write_us: Samples::new(),
        acked_s: Samples::new(),
        elapsed: 0.0,
        log: Vec::with_capacity(n + n / 1000 + 1),
        compact_ms: Samples::new(),
        checkpoint_ms: Samples::new(),
        wal_bytes: 0,
    };
    let wal_now = |db: &ConcurrentDb| db.with_durable(|d| d.wal_bytes()).unwrap_or(0);
    let mut wal_base = wal_now(db);
    let mut checkpoint = |db: &ConcurrentDb, w: &mut Writes, report: &mut Report| {
        w.wal_bytes += wal_now(db) - wal_base;
        let t = Instant::now();
        let r = {
            let _s = tracer.span("storage.checkpoint", 0, 0);
            db.checkpoint()
        };
        w.checkpoint_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if let Err(e) = r {
            report.fail(format!("checkpoint failed: {e}"));
        }
        wal_base = wal_now(db);
    };
    let start = Instant::now();
    for i in 1..=n {
        let op = muts.next_op(&twin);
        let t = Instant::now();
        let (name, r) = match &op {
            Op::Insert(row) => ("storage.insert", {
                let _s = tracer.span("storage.insert", 0, i as u64);
                db.insert(row).map(|()| true)
            }),
            Op::Delete(id) => ("storage.delete", {
                let _s = tracer.span("storage.delete", 0, i as u64);
                db.delete(*id)
            }),
            Op::Compact => unreachable!("the stream never yields compactions"),
        };
        let el = t.elapsed().as_secs_f64() * 1e6;
        w.write_us.push(el);
        w.acked_s.push(secs_since(start));
        if name == "storage.insert" {
            w.insert_us.push(el);
        }
        report.attempted += 1;
        match r {
            Ok(hit) if hit == twin.apply(&op) => {}
            Ok(hit) => report.fail(format!("delete acknowledged hit={hit}, twin disagrees")),
            Err(e) => report.fail(format!("mutation failed: {e}")),
        }
        w.log.push(op);
        if let Some(every) = compact_every {
            if i % every == 0 {
                let t = Instant::now();
                let r = {
                    let _s = tracer.span("storage.compact", 0, 0);
                    db.compact()
                };
                w.compact_ms.push(t.elapsed().as_secs_f64() * 1e3);
                if let Err(e) = r {
                    report.fail(format!("compact failed: {e}"));
                }
                twin.apply(&Op::Compact);
                w.log.push(Op::Compact);
            }
            if i % (2 * every) == 0 {
                checkpoint(db, &mut w, report);
            }
        }
    }
    if compact_every.is_some() && !n.is_multiple_of(2 * COMPACT_EVERY) {
        checkpoint(db, &mut w, report);
    }
    w.elapsed = secs_since(start);
    if db.snapshot().n_rows() != twin.live() {
        report.fail(format!(
            "database holds {} live rows, the acknowledged history {}",
            db.snapshot().n_rows(),
            twin.live()
        ));
    }
    w
}

/// Acknowledgements per second in each of `blocks` consecutive blocks;
/// each block runs from the previous block's last acknowledgement, so
/// compaction and checkpoint stalls count.
fn ack_rates(acked_s: &Samples, blocks: usize) -> Vec<f64> {
    let mut prev = 0.0;
    acked_s
        .blocks(blocks)
        .iter()
        .map(|b| {
            let last = b.percentile(100.0).unwrap_or(prev);
            let rate = b.len() as f64 / (last - prev).max(1e-9);
            prev = last;
            rate
        })
        .collect()
}

fn write_metrics(report: &mut Report, w: &Writes) {
    latency_metrics(report, "write", &w.write_us);
    let rate = median_of(ack_rates(&w.acked_s, BLOCKS));
    report.metric(
        "write_ops_per_s",
        rate,
        "1/s",
        format!(
            "median of {BLOCKS} blocks of {} acknowledged mutations in {:.2} s",
            w.write_us.len(),
            w.elapsed
        ),
    );
}

/// Server-side figures from one `STATS` call: queue-wait p50/p99,
/// execution p50, request p50 (bucketed histograms of the program) and
/// batch fill.
struct ServerView {
    queue_p50: f64,
    queue_p99: f64,
    exec_p50: f64,
    request_p50: f64,
    batch_fill: f64,
}

fn server_view(addr: std::net::SocketAddr, report: &mut Report) -> Option<ServerView> {
    let stats = Client::connect(addr).and_then(|mut c| c.stats(false));
    let snap = stats
        .map_err(|e| e.to_string())
        .and_then(|s| ibis_obs::Snapshot::from_json(&s.metrics_json));
    let snap = match snap {
        Ok(s) => s,
        Err(e) => {
            report.problem(format!("STATS failed: {e}"));
            return None;
        }
    };
    let h = |name: &str, q: f64| {
        snap.histograms
            .get(name)
            .map_or(0.0, |h| h.quantile(q) as f64)
    };
    let c = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
    Some(ServerView {
        queue_p50: h("server.queue_wait_us", 0.5),
        queue_p99: h("server.queue_wait_us", 0.99),
        exec_p50: h("server.exec_us", 0.5),
        request_p50: h("server.request_us", 0.5),
        batch_fill: c("server.batched_queries") / c("server.batches").max(1.0),
    })
}

fn server_metrics(report: &mut Report, view: Option<ServerView>, client_p50: f64) {
    let v = view.unwrap_or(ServerView {
        queue_p50: 0.0,
        queue_p99: 0.0,
        exec_p50: 0.0,
        request_p50: 0.0,
        batch_fill: 0.0,
    });
    let note = || "server histogram (bucketed), one STATS call".to_string();
    report.metric("server.queue_wait_p50_us", v.queue_p50, "us", note());
    report.metric("server.queue_wait_p99_us", v.queue_p99, "us", note());
    report.metric("server.exec_p50_us", v.exec_p50, "us", note());
    report.metric(
        "server.batch_fill",
        v.batch_fill,
        "ratio",
        "batched queries / batches".into(),
    );
    report.metric(
        "server.wire_p50_us",
        client_p50 - v.request_p50,
        "us",
        "client p50 minus server request_us p50".into(),
    );
}

/// Spans the program's obs recorder holds (counted only in traced runs:
/// the snapshot copies every span).
fn spans_retained_if(traced: bool) -> usize {
    if traced {
        ibis_obs::snapshot().spans.len()
    } else {
        0
    }
}

#[allow(clippy::too_many_arguments)]
fn storage_metrics(
    report: &mut Report,
    insert_us: &Samples,
    backend_insert_p50: f64,
    replica: &layers::ReplicaWrites,
    wal_bytes_per_write: f64,
    exact: &mut Vec<(String, String)>,
    compact_ms: &Samples,
    checkpoint_ms: &Samples,
) {
    let ins = insert_us.median().unwrap_or(0.0);
    report.metric("storage.insert_p50_us", ins, "us", insert_us.note());
    report.metric(
        "storage.insert_p99_us",
        insert_us.percentile(99.0).unwrap_or(0.0),
        "us",
        insert_us.note(),
    );
    report.metric(
        "storage.durable_insert_p50_us",
        replica.durable_insert_us.median().unwrap_or(0.0),
        "us",
        replica.durable_insert_us.note(),
    );
    report.metric(
        "storage.publish_p50_us",
        ins - backend_insert_p50,
        "us",
        "ConcurrentDb insert p50 minus the same backend's insert without publication".into(),
    );
    exact.push((
        "storage.wal_bytes_per_write".into(),
        format!("{wal_bytes_per_write:?}"),
    ));
    report.metric(
        "storage.wal_bytes_per_write",
        wal_bytes_per_write,
        "B",
        "exact count".into(),
    );
    report.metric(
        "storage.compact_ms",
        compact_ms.median().unwrap_or(0.0),
        "ms",
        compact_ms.note(),
    );
    report.metric(
        "storage.checkpoint_ms",
        checkpoint_ms.median().unwrap_or(0.0),
        "ms",
        checkpoint_ms.note(),
    );
}

fn obs_metrics(report: &mut Report, retained: usize, requests: usize, overhead: f64) {
    report.metric(
        "obs.spans_retained_per_request",
        retained as f64 / requests.max(1) as f64,
        "count",
        format!("{retained} spans over {requests} requests"),
    );
    report.metric(
        "obs.trace_overhead_frac",
        overhead,
        "ratio",
        "read p50 with the obs recorder on / off - 1".into(),
    );
}

fn gen_late_metric(report: &mut Report, lateness: &Samples) {
    report.metric(
        "gen_late_p99_us",
        lateness.percentile(99.0).unwrap_or(0.0),
        "us",
        lateness.note(),
    );
}

/// Closed-loop reads over a served connection, for the recorder on/off
/// replay.
fn served_reader(
    addr: std::net::SocketAddr,
    queries: &[RangeQuery],
) -> impl FnMut(usize) -> bool + '_ {
    let mut client = Client::connect(addr).ok();
    move |i| {
        client
            .as_mut()
            .and_then(|c| c.query(&queries[i], 0).ok())
            .is_some_and(|r| matches!(r, ibis_server::Response::Rows { .. }))
    }
}

fn serve_mixed(args: &Args, tracer: &Tracer, exact: &mut Vec<(String, String)>) -> Report {
    let mut report = Report::default();
    let data = model::census(SERVE_ROWS, args.seed);
    let queries = model::serve_queries(&data, args.seed);
    let mut setups = Samples::new();
    let setup = |setups: &mut Samples| -> std::io::Result<(Arc<ConcurrentDb>, ServerHandle)> {
        let d = data.clone();
        let t = Instant::now();
        let db = Arc::new(ConcurrentDb::new_mem(d, SERVE_SHARD_ROWS));
        let server = start_server(&db)?;
        setups.push(secs_since(t));
        Ok((db, server))
    };
    let (db, server) = match setup(&mut setups) {
        Ok(x) => x,
        Err(e) => {
            report.problem(format!("set-up failed: {e}"));
            return report;
        }
    };
    let base_snap = db.snapshot();
    let image = snapshot_image_bytes(base_snap.db()).unwrap_or(0);
    size_metrics(
        &mut report,
        exact,
        base_snap.db().index_bytes(),
        image,
        base_snap.n_rows(),
        "snapshot image a checkpoint would write",
    );
    drop(base_snap);

    // Replicate rounds, each on a freshly built database and server with a
    // fresh obs recorder (as a new process would have; each round's set-up
    // is timed): the server slows down as it retains spans, so one long
    // phase would measure its own history rather than the traffic.
    let fixed_secs = args.seconds as f64 / 2.0 / SERVE_ROUNDS as f64;
    let cap_requests = SERVE_CAPACITY_PER_SEC * args.seconds as usize / 2 / SERVE_ROUNDS;
    // Peak memory of the first round: later rounds start in a process whose
    // allocator already holds the earlier rounds' freed memory.
    let mut rss = Some(RssSampler::start());
    let mut peak = 0.0;
    let mut current = (db, server);
    let (mut fixed, mut capacity) = (Vec::new(), Vec::new());
    let mut capacity_rate = Samples::new();
    let (mut view, mut spans0, mut spans1) = (None, 0, 0);
    let mut writes = Writes::default();
    for round in 0..SERVE_ROUNDS {
        if round > 0 {
            // Stop the previous round's server before the next set-up.
            drop(current);
            ibis_obs::Recorder::disabled().install();
            current = match setup(&mut setups) {
                Ok(x) => x,
                Err(e) => {
                    report.problem(format!("set-up failed: {e}"));
                    return report;
                }
            };
        }
        let addr = current.1.addr();
        // Every round replays the same schedule and queries.
        let stream = 10;
        if args.trace && round == 0 {
            spans0 = spans_retained_if(true);
        }
        let offsets =
            model::poisson_schedule(model::sub_seed(args.seed, stream), SERVE_RATE, fixed_secs);
        let mut picks = Picks::new(args.seed, stream, queries.len());
        let phase = serve::pipelined(
            addr,
            &queries,
            Pace::Schedule(&offsets),
            |_| (picks.next_index(), false),
            tracer,
        );
        if args.trace && round == 0 {
            view = server_view(addr, &mut report);
            spans1 = spans_retained_if(true);
        }
        let mut picks = Picks::new(args.seed, stream + 1, queries.len());
        let closed = serve::pipelined(
            addr,
            &queries,
            Pace::Window {
                depth: SERVE_WINDOW,
                requests: cap_requests,
            },
            |_| (picks.next_index(), false),
            tracer,
        );
        match (phase, closed) {
            (Ok(a), Ok(b)) => {
                fixed.extend(a);
                let per_round = BLOCKS.div_ceil(SERVE_ROUNDS);
                for block in b.chunks(b.len().div_ceil(per_round).max(1)) {
                    capacity_rate.push(throughput(block));
                }
                capacity.extend(b);
            }
            (Err(e), _) | (_, Err(e)) => {
                report.problem(format!("serving phase failed: {e}"));
                return report;
            }
        }
        if let Some(r) = rss.take() {
            peak = r.stop();
        }
        // The round's share of the write probe, on the round's own
        // database after its reads: every round applies the same stream.
        writes.append(run_writer(
            &current.0,
            &data,
            args.seed,
            SERVE_PROBE_MUTATIONS / SERVE_ROUNDS,
            None,
            tracer,
            &mut report,
        ));
    }
    let (db, server) = current;
    let addr = server.addr();

    let read = samples_of(&fixed, Outcome::latency_us);
    let late = samples_of(&fixed, Outcome::lateness_us);
    let client_p50 = read.median().unwrap_or(0.0);
    if args.trace {
        server_metrics(&mut report, view, client_p50);
        gen_late_metric(&mut report, &late);
        let input = ShardInput {
            data: &data,
            shard_rows: SERVE_SHARD_ROWS,
            shards: SERVE_ROWS.div_ceil(SERVE_SHARD_ROWS),
            queries: &queries[..64],
        };
        layers::planner_methods_kernels(&input, tracer, &mut report, exact);
        layers::shards_and_pool(&db, &queries[..128], tracer, &mut report, exact);
        let dir = data_dir(args).join(format!("replica-serve-{}", std::process::id()));
        let current = db.snapshot().db().clone();
        let replica = layers::replica_writes(
            &data,
            &current,
            SERVE_SHARD_ROWS,
            args.seed,
            500,
            &dir,
            tracer,
            &mut report,
        );
        let mem_p50 = replica.mem_insert_us.median().unwrap_or(0.0);
        let mut compact_ms = Samples::new();
        let t = Instant::now();
        if let Err(e) = db.compact() {
            report.fail(format!("compact failed: {e}"));
        }
        compact_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let mut ckpt = Samples::new();
        ckpt.push(replica.checkpoint_ms);
        let wal = replica.wal_bytes_per_write;
        storage_metrics(
            &mut report,
            &writes.insert_us,
            mem_p50,
            &replica,
            wal,
            exact,
            &compact_ms,
            &ckpt,
        );
        let overhead = layers::obs_overhead(
            served_reader(addr, &queries),
            queries.len(),
            true,
            &mut report,
        );
        obs_metrics(
            &mut report,
            spans1.saturating_sub(spans0),
            fixed.len(),
            overhead,
        );
    }
    drop(server);

    check_answers(&mut report, &fixed, static_truth(&data, &queries));
    check_answers(&mut report, &capacity, static_truth(&data, &queries));
    if !args.trace {
        setup_metric(&mut report, &setups);
        latency_metrics(&mut report, "read", &read);
        report.metric(
            "read_qps",
            capacity_rate.median().unwrap_or(0.0),
            "1/s",
            format!(
                "median of {} blocks ({SERVE_ROUNDS} rounds of {cap_requests} requests), window {SERVE_WINDOW}",
                capacity_rate.len()
            ),
        );
        write_metrics(&mut report, &writes);
        report.metric(
            "peak_rss_mb",
            peak,
            "MB",
            "first round, sampled every 5 ms".into(),
        );
        gen_late_metric(&mut report, &late);
    }
    report
}

fn analytic_large(args: &Args, tracer: &Tracer, exact: &mut Vec<(String, String)>) -> Report {
    let mut report = Report::default();
    // The program itself leaves the obs recorder off for embedded use.
    ibis_obs::Recorder::disabled().install();
    let data = model::census(ANALYTIC_ROWS, args.seed);
    let queries = model::analytic_queries(&data, args.seed);
    let mut setups = Samples::new();
    let setup = |setups: &mut Samples| -> Arc<ConcurrentDb> {
        let d = data.clone();
        let t = Instant::now();
        let db = Arc::new(ConcurrentDb::from_sharded(ShardedDb::new(
            d,
            ANALYTIC_SHARD_ROWS,
        )));
        drop(db.snapshot());
        setups.push(secs_since(t));
        db
    };
    let db = setup(&mut setups);
    let base_snap = db.snapshot();
    let image = snapshot_image_bytes(base_snap.db()).unwrap_or(0);
    size_metrics(
        &mut report,
        exact,
        base_snap.db().index_bytes(),
        image,
        base_snap.n_rows(),
        "snapshot image a checkpoint would write",
    );
    drop(base_snap);

    // Untimed warm-up: the first seconds of reads in a fresh process run
    // markedly slower (allocator and page-cache warm-up).
    let warm = Instant::now();
    let mut picks = Picks::new(args.seed, 9, queries.len());
    while warm.elapsed() < ANALYTIC_WARMUP {
        let _ = db.snapshot().count(&queries[picks.next_index()]);
    }

    // One closed-loop caller: half `count` calls, half row-returning.
    let rss = RssSampler::start();
    let spans0 = spans_retained_if(args.trace);
    let mut picks = Picks::new(args.seed, 0, queries.len());
    let mut answers: Vec<(usize, bool, usize, u64)> = Vec::new();
    let mut read = Samples::new();
    let n_reads = ANALYTIC_READS_PER_SEC * args.seconds;
    // The write probe runs in rounds spread through the read phase (each
    // on a fresh copy of the base database, replaying the same mutations),
    // so it samples the machine at as many moments as the reads do.
    let base = db.snapshot().db().clone();
    let mut writes = Writes::default();
    let mut probe_db = None;
    for i in 1..=n_reads {
        if (i - 1) % (n_reads / ANALYTIC_PROBE_ROUNDS).max(1) == 0 {
            let probe = ConcurrentDb::from_sharded(base.clone());
            writes.append(run_writer(
                &probe,
                &data,
                args.seed,
                PROBE_MUTATIONS / ANALYTIC_PROBE_ROUNDS as usize,
                None,
                tracer,
                &mut report,
            ));
            probe_db = Some(probe);
        }
        let q = picks.next_index();
        let count_only = i % 2 == 0;
        let root = tracer.span("request", 0, i);
        let t = Instant::now();
        let snap = {
            let _s = tracer.span("storage.snapshot", root.id(), i);
            db.snapshot()
        };
        let result = {
            let _s = tracer.span("shards.execute", root.id(), i);
            if count_only {
                snap.count(&queries[q]).map(|n| (n, None))
            } else {
                snap.execute(&queries[q]).map(|r| (r.len(), Some(r)))
            }
        };
        let el = t.elapsed().as_secs_f64() * 1e6;
        drop(root);
        read.push(el);
        // The digest is taken after the timer stopped.
        match result {
            Ok((len, rows)) => {
                answers.push((q, count_only, len, rows.map_or(0, |r| digest(r.rows()))))
            }
            Err(e) => report.fail(format!("query failed: {e}")),
        }
    }
    let spans1 = spans_retained_if(args.trace);
    if args.trace {
        // The server layer does little here; replay the same queries
        // through it so its figures exist for comparison.
        match start_server(&db) {
            Ok(server) => {
                let mut picks = Picks::new(args.seed, 2, queries.len());
                let served = serve::pipelined(
                    server.addr(),
                    &queries,
                    Pace::Window {
                        depth: 2,
                        requests: 300,
                    },
                    |i| (picks.next_index(), i % 2 == 1),
                    tracer,
                );
                let view = server_view(server.addr(), &mut report);
                drop(server);
                match served {
                    Ok(served) => {
                        let p50 = samples_of(&served, Outcome::latency_us)
                            .median()
                            .unwrap_or(0.0);
                        server_metrics(&mut report, view, p50);
                        check_answers(&mut report, &served, static_truth(&data, &queries));
                    }
                    Err(e) => report.problem(format!("server replay failed: {e}")),
                }
            }
            Err(e) => report.problem(format!("server start failed: {e}")),
        }
        ibis_obs::Recorder::disabled().install();
    }
    let peak = rss.stop();

    let mut truth = static_truth(&data, &queries);
    for &(q, count_only, len, d) in &answers {
        report.attempted += 1;
        let (tl, td) = truth(q, 0);
        if tl != len || (!count_only && td != d) {
            report.fail(format!("wrong answer for query {q}"));
        }
    }

    if args.trace {
        let none = Samples::new();
        gen_late_metric(&mut report, &none);
        let input = ShardInput {
            data: &data,
            shard_rows: ANALYTIC_SHARD_ROWS,
            shards: 2,
            queries: &queries[..100],
        };
        layers::planner_methods_kernels(&input, tracer, &mut report, exact);
        layers::shards_and_pool(&db, &queries[..40], tracer, &mut report, exact);
        let dir = data_dir(args).join(format!("replica-analytic-{}", std::process::id()));
        let current = db.snapshot().db().clone();
        let replica = layers::replica_writes(
            &data,
            &current,
            ANALYTIC_SHARD_ROWS,
            args.seed,
            500,
            &dir,
            tracer,
            &mut report,
        );
        drop(current);
        let mem_p50 = replica.mem_insert_us.median().unwrap_or(0.0);
        // Compaction of the last probe round's database (the workload's own
        // database is never written).
        let mut compact_ms = Samples::new();
        let t = Instant::now();
        if let Some(Err(e)) = probe_db.as_ref().map(ConcurrentDb::compact) {
            report.fail(format!("compact failed: {e}"));
        }
        compact_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let mut ckpt = Samples::new();
        ckpt.push(replica.checkpoint_ms);
        let wal = replica.wal_bytes_per_write;
        storage_metrics(
            &mut report,
            &writes.insert_us,
            mem_p50,
            &replica,
            wal,
            exact,
            &compact_ms,
            &ckpt,
        );
        let snap = db.snapshot();
        let overhead = layers::obs_overhead(
            |i| snap.execute(&queries[i]).is_ok(),
            queries.len(),
            false,
            &mut report,
        );
        drop(snap);
        obs_metrics(
            &mut report,
            spans1.saturating_sub(spans0),
            answers.len(),
            overhead,
        );
        ibis_obs::Recorder::disabled().install();
    }
    drop(db);
    for _ in 0..2 {
        drop(setup(&mut setups));
    }
    if !args.trace {
        setup_metric(&mut report, &setups);
        latency_metrics(&mut report, "read", &read);
        report.metric(
            "read_qps",
            median_of(
                read.blocks(BLOCKS)
                    .iter()
                    .map(|b| b.len() as f64 / (b.sum() / 1e6).max(1e-9)),
            ),
            "1/s",
            format!(
                "median of {BLOCKS} blocks of {} calls: calls / time inside them",
                read.len()
            ),
        );
        write_metrics(&mut report, &writes);
        report.metric(
            "peak_rss_mb",
            peak,
            "MB",
            "sampled every 5 ms over the timed phases".into(),
        );
        gen_late_metric(&mut report, &Samples::new());
    }
    report
}

fn ingest_durable(args: &Args, tracer: &Tracer, exact: &mut Vec<(String, String)>) -> Report {
    let mut report = Report::default();
    let data = model::census(SERVE_ROWS, args.seed);
    let queries = model::serve_queries(&data, args.seed);
    let root_dir = data_dir(args).join(format!("durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root_dir);
    let n_mutations = INGEST_MUTATIONS_PER_SEC * args.seconds as usize / INGEST_ROUNDS;

    let mut setups = Samples::new();
    let (mut read, mut late) = (Samples::new(), Samples::new());
    let (mut write_us, mut insert_us) = (Samples::new(), Samples::new());
    let (mut compact_ms, mut checkpoint_ms) = (Samples::new(), Samples::new());
    let (mut read_rate, mut write_rate) = (Samples::new(), Samples::new());
    let mut round_counts: Option<Vec<(String, String)>> = None;
    let mut peak = 0f64;
    // Replicate rounds: each creates the database afresh (timed as
    // set-up), starts a fresh server with a fresh obs recorder, and runs the
    // same seeded writer and reader, so the database never outgrows the
    // round and every round ends in the same state.
    for round in 0..INGEST_ROUNDS {
        if round > 0 {
            ibis_obs::Recorder::disabled().install();
        }
        let dir = root_dir.join(format!("round{round}"));
        let t = Instant::now();
        let started =
            ConcurrentDb::create_durable(&dir, data.clone(), SERVE_SHARD_ROWS, DbConfig::default())
                .map(Arc::new)
                .and_then(|db| start_server(&db).map(|server| (db, server)));
        let (db, server) = match started {
            Ok(x) => x,
            Err(e) => {
                report.problem(format!("set-up failed in {}: {e}", dir.display()));
                let _ = std::fs::remove_dir_all(&root_dir);
                return report;
            }
        };
        setups.push(secs_since(t));
        let addr = server.addr();

        let rss = (round == 0).then(RssSampler::start);
        let spans0 = spans_retained_if(args.trace);
        let stop = AtomicBool::new(false);
        let mut picks = Picks::new(args.seed, 0, queries.len());
        let (mut writes, reads) = std::thread::scope(|scope| {
            let reader = scope
                .spawn(|| serve::paced(addr, &queries, READER_PERIOD, &mut picks, &stop, tracer));
            let writes = run_writer(
                &db,
                &data,
                args.seed,
                n_mutations,
                Some(COMPACT_EVERY),
                tracer,
                &mut report,
            );
            stop.store(true, Ordering::SeqCst);
            (writes, reader.join().expect("reader thread panicked"))
        });
        let spans1 = spans_retained_if(args.trace);
        if let Some(r) = rss {
            peak = r.stop();
        }
        let reads = match reads {
            Ok(r) => r,
            Err(e) => {
                report.problem(format!("reader failed: {e}"));
                Vec::new()
            }
        };
        for o in &reads {
            read.push(o.latency_us());
            late.push(o.lateness_us());
        }
        read_rate.push(throughput(&reads));
        for rate in ack_rates(&writes.acked_s, BLOCKS / INGEST_ROUNDS) {
            write_rate.push(rate);
        }
        write_us.extend(&writes.write_us);
        insert_us.extend(&writes.insert_us);
        compact_ms.extend(&writes.compact_ms);
        checkpoint_ms.extend(&writes.checkpoint_ms);

        // Every round ends in the same state: its exact counts must agree.
        let snap = db.snapshot();
        let mut counts = Vec::new();
        size_metrics(
            &mut report,
            &mut counts,
            snap.db().index_bytes(),
            dir_bytes(&dir).unwrap_or(0),
            snap.n_rows(),
            "durable directory after the final checkpoint",
        );
        drop(snap);
        let wal = writes.wal_bytes as f64 / writes.log.len().max(1) as f64;
        counts.push(("storage.wal_bytes_per_write".into(), format!("{wal:?}")));
        match &round_counts {
            Some(first) if *first != counts => report.problem(format!(
                "exact counts differ between rounds: {first:?} then {counts:?}"
            )),
            Some(_) => report.metrics.truncate(report.metrics.len() - 2),
            None => round_counts = Some(counts),
        }

        if args.trace && round == INGEST_ROUNDS - 1 {
            let view = server_view(addr, &mut report);
            server_metrics(&mut report, view, read.median().unwrap_or(0.0));
            gen_late_metric(&mut report, &late);
            let input = ShardInput {
                data: &data,
                shard_rows: SERVE_SHARD_ROWS,
                shards: SERVE_ROWS.div_ceil(SERVE_SHARD_ROWS),
                queries: &queries[..64],
            };
            layers::planner_methods_kernels(&input, tracer, &mut report, exact);
            layers::shards_and_pool(&db, &queries[..128], tracer, &mut report, exact);
            let current = db.snapshot().db().clone();
            let replica = layers::replica_writes(
                &data,
                &current,
                SERVE_SHARD_ROWS,
                args.seed,
                500,
                &root_dir.join("replica"),
                tracer,
                &mut report,
            );
            drop(current);
            let durable_p50 = replica.durable_insert_us.median().unwrap_or(0.0);
            storage_metrics(
                &mut report,
                &insert_us,
                durable_p50,
                &replica,
                wal,
                exact,
                &compact_ms,
                &checkpoint_ms,
            );
            let overhead = layers::obs_overhead(
                served_reader(addr, &queries),
                queries.len(),
                true,
                &mut report,
            );
            obs_metrics(
                &mut report,
                spans1.saturating_sub(spans0),
                reads.len() + writes.log.len(),
                overhead,
            );
        }
        // Acknowledged after the final checkpoint: only the WAL holds these
        // rows, so the reopen below must replay them.
        let tail = model::census(INGEST_WAL_TAIL, model::sub_seed(args.seed, 77));
        for r in 0..INGEST_WAL_TAIL {
            let row = tail.row(r);
            report.attempted += 1;
            if let Err(e) = db.insert(&row) {
                report.fail(format!("insert failed: {e}"));
            }
            writes.log.push(Op::Insert(row));
        }
        drop(server);
        check_watermarked_reads(&mut report, &data, &queries, &reads, &writes.log, db, &dir);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&root_dir);
    exact.extend(round_counts.unwrap_or_default());
    if !args.trace {
        setup_metric(&mut report, &setups);
        latency_metrics(&mut report, "read", &read);
        report.metric(
            "read_qps",
            read_rate.median().unwrap_or(0.0),
            "1/s",
            format!("median of {INGEST_ROUNDS} rounds, one request due every {READER_PERIOD:?}"),
        );
        latency_metrics(&mut report, "write", &write_us);
        report.metric(
            "write_ops_per_s",
            write_rate.median().unwrap_or(0.0),
            "1/s",
            format!(
                "median of {} blocks ({INGEST_ROUNDS} rounds of {n_mutations} mutations), stalls included",
                write_rate.len()
            ),
        );
        report.metric(
            "peak_rss_mb",
            peak,
            "MB",
            "first round, sampled every 5 ms".into(),
        );
        gen_late_metric(&mut report, &late);
    }
    report
}

/// Checks each served read against the base rows plus the first
/// `watermark` logged mutations (replayed in watermark order), then drops
/// the database, reopens its directory and audits every live row's every
/// value against the acknowledged history.
fn check_watermarked_reads(
    report: &mut Report,
    data: &Dataset,
    queries: &[RangeQuery],
    reads: &[Outcome],
    log: &[Op],
    db: Arc<ConcurrentDb>,
    dir: &Path,
) {
    let watermark = |o: &Outcome| match o.answer {
        Answer::Rows { watermark, .. } | Answer::Count { watermark, .. } => watermark,
        _ => 0,
    };
    let mut sorted = reads.to_vec();
    sorted.sort_by_key(watermark);
    let mut twin = Twin::new(data, true);
    let mut applied = 0usize;
    check_answers(report, &sorted, |q, watermark| {
        let w = (watermark as usize).min(log.len());
        for op in &log[applied..w.max(applied)] {
            twin.apply(op);
        }
        applied = applied.max(w);
        let rows = twin.truth(&queries[q]);
        (rows.len(), digest(rows.rows()))
    });
    for op in &log[applied..] {
        twin.apply(op);
    }
    // Connection threads of the stopped server may still hold the database
    // for a moment; wait for them, then drop it.
    let waited = Instant::now();
    while Arc::strong_count(&db) > 1 && waited.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(2));
    }
    if Arc::strong_count(&db) > 1 {
        report.problem("the stopped server still holds the database");
        return;
    }
    drop(db);
    match ConcurrentDb::open_durable(dir) {
        Ok(reopened) => audit_reopened(&reopened, &twin, report),
        Err(e) => report.fail(format!("reopen failed: {e}")),
    }
}

/// Every acknowledged mutation must survive a reopen: the reopened
/// database's live ids and, attribute by attribute, every value (read
/// back through point queries) must equal the twin's.
fn audit_reopened(db: &ConcurrentDb, twin: &Twin, report: &mut Report) {
    let snap = db.snapshot();
    report.attempted += 1;
    if snap.n_rows() != twin.live() {
        report.fail(format!(
            "reopened database holds {} rows, acknowledged history {}",
            snap.n_rows(),
            twin.live()
        ));
        return;
    }
    for attr in 0..twin.n_attrs() {
        let want = twin.column(attr);
        let mut got = vec![0u16; want.len()];
        for v in 1..=twin.cardinality(attr) {
            let q = RangeQuery::new(vec![Predicate::point(attr, v)], MissingPolicy::IsNotMatch)
                .expect("valid point query");
            match snap.execute_threads(&q, 1) {
                Ok(rows) => {
                    for r in rows.iter() {
                        match got.get_mut(r as usize) {
                            Some(slot) if twin.is_alive(r as usize) => *slot = v,
                            _ => {
                                report.fail(format!("reopened database returns row {r}, which the history deleted or never wrote"));
                                return;
                            }
                        }
                    }
                }
                Err(e) => {
                    report.fail(format!("audit query failed: {e}"));
                    return;
                }
            }
        }
        let differs = (0..want.len()).any(|id| twin.is_alive(id) && got[id] != want[id]);
        if differs {
            report.fail(format!(
                "attribute {attr} differs after reopen: acknowledged writes lost"
            ));
            return;
        }
    }
}

/// End-to-end metrics in the result line, in the order `BENCHMARK.json`
/// lists them.
const GATED: [&str; 7] = [
    "setup_s",
    "read_p50_us",
    "read_qps",
    "write_p50_us",
    "peak_rss_mb",
    "index_bytes_per_row",
    "disk_bytes_per_row",
];

/// End-to-end figures printed for reading but left out of the result
/// line: on a shared 2-vCPU machine the tail percentiles and the durable
/// write rate spread from run to run beyond the widest bound the result
/// format allows, and `failed_frac` is 0 on every correct run (the result
/// line carries it as `failed` / `attempted`).
const PRINTED_ONLY: [&str; 4] = [
    "read_p99_us",
    "write_p99_us",
    "write_ops_per_s",
    "failed_frac",
];
