//! `ibis` — command-line front end for the incomplete-database toolkit.
//!
//! ```text
//! ibis generate --kind synthetic --rows 20000 --seed 7 --out data.ibds
//! ibis stats data.ibds
//! ibis index data.ibds --encoding bre --out data.bre
//! ibis query data.ibds "age between 2 and 5 and income = 3" --not-match
//! ibis query data.ibds "q5 = 1" --index data.bre --count
//! ibis race data.ibds --queries 50 --k 4
//! ```
//!
//! Queries use the textual language of [`ibis::core::parse`]; missing-data
//! semantics default to *missing-is-match* (`--not-match` flips it), the
//! same two modes the paper defines.

use ibis::core::csv::{export_csv, import_csv, load_dictionaries, save_dictionaries, CsvOptions};
use ibis::core::gen::{census_scaled, synthetic_scaled, workload, QuerySpec};
use ibis::core::parse::{parse_query, parse_query_with_dictionaries};
use ibis::core::stats::{column_stats, CompositionTable};
use ibis::prelude::*;
use std::io::Read as _;
use std::process::ExitCode;
use std::sync::Arc;

/// A CLI failure, split by who is at fault: a bad invocation (malformed
/// flag value, missing argument, unknown command — exit 2, the
/// conventional usage-error code) versus a failure while carrying out a
/// well-formed command (exit 1).
#[derive(Debug)]
enum CliError {
    Usage(String),
    Runtime(String),
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Runtime(_) => 1,
        }
    }

    fn message(&self) -> &str {
        match self {
            CliError::Usage(m) | CliError::Runtime(m) => m,
        }
    }
}

/// Plain `format!`/`to_string` errors are runtime failures…
impl From<String> for CliError {
    fn from(m: String) -> CliError {
        CliError::Runtime(m)
    }
}

/// …while every `&str` literal in this file is a usage message.
impl From<&str> for CliError {
    fn from(m: &str) -> CliError {
        CliError::Usage(m.to_string())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message());
            ExitCode::from(e.exit_code())
        }
    }
}

fn run(args: &[String]) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("generate") => generate(&args[1..]),
        Some("import") => import(&args[1..]),
        Some("export") => export(&args[1..]),
        Some("stats") => stats(&args[1..]),
        Some("index") => index(&args[1..]),
        Some("query") => query(&args[1..]),
        Some("race") => race(&args[1..]),
        Some("stress") => stress(&args[1..]),
        Some("oracle") => oracle(&args[1..]),
        Some("init") => init(&args[1..]),
        Some("checkpoint") => checkpoint(&args[1..]),
        Some("backup") => backup(&args[1..]),
        Some("restore") => restore(&args[1..]),
        Some("validate") => validate(&args[1..]),
        Some("crash") => crash(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("top") => top(&args[1..]),
        Some("help") | None => {
            print!("{HELP}");
            Ok(())
        }
        Some(other) => Err(CliError::Usage(format!(
            "unknown command {other:?}; try `ibis help`"
        ))),
    }
}

const HELP: &str = "\
ibis — indexing incomplete databases (EDBT 2006 reproduction)

commands:
  generate --kind synthetic|census --rows N [--seed S] --out FILE
      write a generated dataset (binary .ibds format)
  import FILE.csv --out FILE.ibds [--delimiter C] [--no-header]
      dictionary-encode a CSV (blank/NA/?/NULL cells become missing)
  export FILE.ibds --out FILE.csv
      write a dataset back out as CSV (numeric codes, missing = empty)
  stats FILE
      per-column stats and the Table-7 composition cross-tab
  stats --addr HOST:PORT [--json | --prom | --slow]
      one STATS request against a running `ibis serve`: by default a
      human-readable summary (queue, workers, windowed throughput and
      latency quantiles, shed/expired counts); --json prints the metric
      registry as canonical JSON, --prom as Prometheus text exposition,
      --slow the server's slow-query log (worst requests with queue/exec
      split and per-phase work-counter deltas); the slow view is fed by
      request tracing, so against a server running --trace-sample 0 it
      is permanently empty
  index FILE --encoding bee|bre|bie|dec|va
        [--backend wah|bbc|plain|adaptive] --out FILE
      build and save an index (va ignores --backend; backend adaptive
      stores any bitmap encoding in roaring-style containers with
      container-exact counters)
  query FILE QUERY [--index IDXFILE] [--not-match] [--count] [--limit N]
        [--threads N] [--shard-rows N] [--profile] [--profile-json FILE]
        [--addr HOST:PORT [--deadline-ms MS]]
      run a textual query (e.g. \"age between 2 and 5 and q5 = 1\");
      uses a saved index when given, otherwise scans; --threads sets the
      parallel degree (default: IBIS_THREADS or the machine's cores);
      --addr sends the parsed query to a running `ibis serve` over IBQP
      instead of executing locally (FILE still supplies the schema;
      --deadline-ms caps the request, 0 = the server's default);
      --shard-rows partitions the data into shards of N rows (per-shard
      indexes; synopsis pruning skips shards that cannot match);
      --profile prints the span tree with per-phase work-counter deltas,
      --profile-json also writes the machine-readable profile
  query --data-dir DIR QUERY [--not-match] [--count] [--limit N]
        [--threads N] [--profile]
      recover the durable database in DIR (snapshot + WAL replay) and
      query it through a lock-free serving snapshot; prints the snapshot
      watermark and shard pruning stats alongside the answer
  race FILE [--queries N] [--k K] [--seed S] [--threads N] [--profile]
      time BEE/BRE/VA on a generated workload over FILE at the given
      parallel degree; --profile adds a per-method phase table (spans,
      time, counters — timings then include recorder overhead)
  race FILE --live N [--shard-rows R] [--queries Q] [--k K] [--seed S]
        [--threads T]
      serve FILE under snapshot isolation and race T lock-free readers
      (each looping the generated workload over fresh snapshots) against
      one writer streaming N inserts/deletes/compactions; reports reader
      throughput and the watermark span each reader observed
  stress [--seed S] [--rows N] [--readers N] [--mutations N]
         [--threads A,B] [--durable] [--checkpoint-every N] [--no-writer]
      run the snapshot-isolation stress harness: N reader threads race
      one writer through a precomputed mutation schedule; every acquired
      snapshot is differentially checked (rows, work counters, shard
      stats) against a twin replay of its exact watermark prefix, at
      every thread degree, under both semantics; --durable serves
      through the WAL-backed engine, --no-writer freezes the database
  oracle [--cases N] [--seed S] [--corpus DIR] [--max-failures N]
         [--case-budget-ms MS]
      run the differential + metamorphic correctness oracle: N generated
      adversarial cases through every access method (all stores, thread
      degrees 1/3/8, persistence round-trip, row appends) against the
      scan ground truth; failing cases are shrunk to minimal repros in
      DIR (default tests/regressions); a case slower than the wall-clock
      budget (default 10000 ms) is itself reported as a failure
  init DIR --from FILE.ibds [--shard-rows N]
      initialize a durable data directory (WAL + snapshot + MANIFEST)
      from a dataset; `query --data-dir DIR` then recovers and queries it
  checkpoint DIR
      open (recover) DIR, then roll its WAL into a fresh snapshot and
      truncate the log
  backup DIR --out FILE.ibbk
      write DIR's logical state as one checksummed backup file
      (deterministic: backup → restore → backup is byte-identical)
  restore FILE.ibbk --into DIR
      initialize a fresh data directory from a backup file
  validate DIR
      verify checksums, parse the snapshot, scan the WAL; prints the
      generation, watermark, replayable records, and torn-tail bytes
  crash [--seed S] [--rows N] [--kill-points N] [--bit-flips N]
        [--threads A,B]
      run the crash-recovery harness: one seeded workload killed at
      every WAL frame boundary, mid-frame, inside the header, at random
      offsets, and under single-bit corruption; every mangled copy must
      recover exactly its durable prefix (rows and work counters, both
      semantics, each thread degree)
  serve FILE.ibds [--addr HOST:PORT] [--shard-rows N] [--workers N]
        [--max-batch N] [--queue-high-water N] [--deadline-ms MS]
        [--duration-secs N] [--addr-file PATH] [--trace-sample N]
        [--slow-log N]
  serve --data-dir DIR [same flags except --shard-rows]
      expose the database over the IBQP binary wire protocol (default
      address 127.0.0.1:7431; --addr-file records the bound address,
      which is how scripts learn the port under --addr HOST:0): requests
      execute against lock-free snapshots on a fixed worker pool,
      compatible queued queries are coalesced into batches, each request
      carries a deadline (default: the oracle's per-case budget), and a
      queue past the high-water mark sheds with an explicit Overloaded
      error; runs until killed unless --duration-secs is given;
      --trace-sample N traces every Nth admitted request into the
      slow-query log (0 disables tracing — `stats --slow` and the top
      dashboard's slow view then stay permanently empty, so an explicit
      --slow-log alongside --trace-sample 0 is rejected as a usage
      error), --slow-log N keeps the N worst traced requests
      (default 16)
  top --addr HOST:PORT [--interval-ms MS] [--iterations N]
      live dashboard over the STATS protocol: polls a running server
      and redraws throughput, windowed p50/p99 latency, queue and
      worker gauges, shed/expired counts, the missing-policy split, and
      the worst slow queries; Ctrl-C to exit (or --iterations N to
      stop after N polls); the slow-query panel mirrors `stats --slow`
      and stays empty against a server running --trace-sample 0

exit status: 0 on success, 1 on a command failure, 2 on a usage error
(unknown command or flag value that does not parse)
";

/// Pulls `--name value` out of `args`; returns the remaining positionals.
fn parse_flags(args: &[String]) -> (Vec<String>, std::collections::BTreeMap<String, String>) {
    let mut positional = Vec::new();
    let mut flags = std::collections::BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            // Boolean flags take no value; detect by lookahead.
            let boolean = matches!(
                name,
                "count"
                    | "not-match"
                    | "match"
                    | "no-header"
                    | "profile"
                    | "durable"
                    | "no-writer"
                    | "json"
                    | "prom"
                    | "slow"
            );
            if boolean || i + 1 >= args.len() || args[i + 1].starts_with("--") {
                flags.insert(name.to_string(), "true".to_string());
                i += 1;
            } else {
                flags.insert(name.to_string(), args[i + 1].clone());
                i += 2;
            }
        } else {
            positional.push(args[i].clone());
            i += 1;
        }
    }
    (positional, flags)
}

fn req<'a>(
    flags: &'a std::collections::BTreeMap<String, String>,
    name: &str,
) -> Result<&'a str, CliError> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| CliError::Usage(format!("missing required flag --{name}")))
}

fn num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, CliError> {
    s.parse()
        .map_err(|_| CliError::Usage(format!("invalid {what}: {s:?}")))
}

fn load_dataset(path: &str) -> Result<Dataset, String> {
    Dataset::load(path).map_err(|e| format!("cannot load dataset {path:?}: {e}"))
}

/// `--threads N` if given (must be ≥ 1), else the configured degree
/// (`IBIS_THREADS` or the machine default).
fn parse_threads(flags: &std::collections::BTreeMap<String, String>) -> Result<usize, CliError> {
    match flags.get("threads") {
        Some(s) => {
            let n: usize = num(s, "thread count")?;
            if n == 0 {
                return Err("--threads must be at least 1".into());
            }
            Ok(n)
        }
        None => Ok(ibis::core::parallel::configured_threads()),
    }
}

fn generate(args: &[String]) -> Result<(), CliError> {
    let (_, flags) = parse_flags(args);
    let rows: usize = num(req(&flags, "rows")?, "row count")?;
    let seed: u64 = flags.get("seed").map_or(Ok(42), |s| num(s, "seed"))?;
    let out = req(&flags, "out")?;
    let d = match req(&flags, "kind")? {
        "synthetic" => synthetic_scaled(rows, seed),
        "census" => census_scaled(rows, seed),
        other => {
            return Err(CliError::Usage(format!(
                "unknown kind {other:?} (synthetic|census)"
            )))
        }
    };
    d.save(out)
        .map_err(|e| format!("cannot write {out:?}: {e}"))?;
    println!(
        "wrote {} rows × {} attrs ({:.1} MB raw) to {out}",
        d.n_rows(),
        d.n_attrs(),
        d.raw_bytes() as f64 / 1e6
    );
    Ok(())
}

fn import(args: &[String]) -> Result<(), CliError> {
    let (pos, flags) = parse_flags(args);
    let path = pos
        .first()
        .ok_or("usage: ibis import FILE.csv --out FILE.ibds")?;
    let out = req(&flags, "out")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    let mut opts = CsvOptions::default();
    if let Some(d) = flags.get("delimiter") {
        let mut chars = d.chars();
        opts.delimiter = chars.next().ok_or("empty --delimiter")?;
        if chars.next().is_some() {
            return Err("--delimiter must be a single character".into());
        }
    }
    if flags.contains_key("no-header") {
        opts.has_header = false;
    }
    let report = import_csv(&text, &opts).map_err(|e| e.to_string())?;
    report.dataset.save(out).map_err(|e| e.to_string())?;
    let dict_path = format!("{out}.dict");
    save_dictionaries(&report.dictionaries, &dict_path).map_err(|e| e.to_string())?;
    println!(
        "imported {} rows × {} attrs → {out} (+ {dict_path})",
        report.dataset.n_rows(),
        report.dataset.n_attrs()
    );
    for (col, dict) in report.dataset.columns().iter().zip(&report.dictionaries) {
        println!(
            "  {:>20}: {} distinct values, {:.1}% missing",
            col.name(),
            dict.len(),
            col.missing_rate() * 100.0
        );
    }
    Ok(())
}

fn export(args: &[String]) -> Result<(), CliError> {
    let (pos, flags) = parse_flags(args);
    let path = pos
        .first()
        .ok_or("usage: ibis export FILE.ibds --out FILE.csv")?;
    let out = req(&flags, "out")?;
    let d = load_dataset(path)?;
    // Use the dictionary sidecar when present (written by `ibis import`)
    // so import → export round-trips the original string values.
    let dicts = load_dictionaries(format!("{path}.dict")).ok().filter(|dd| {
        dd.len() == d.n_attrs()
            && dd
                .iter()
                .zip(d.columns())
                .all(|(dict, col)| dict.len() == col.cardinality() as usize)
    });
    std::fs::write(out, export_csv(&d, dicts.as_deref())).map_err(|e| e.to_string())?;
    println!(
        "wrote {} rows to {out}{}",
        d.n_rows(),
        if dicts.is_some() {
            " (original tokens via .dict sidecar)"
        } else {
            ""
        }
    );
    Ok(())
}

fn stats(args: &[String]) -> Result<(), CliError> {
    let (pos, flags) = parse_flags(args);
    if let Some(addr) = flags.get("addr") {
        if !pos.is_empty() {
            return Err("--addr asks a running server; it cannot be combined \
                        with a dataset file"
                .into());
        }
        return server_stats(addr, &flags);
    }
    let path = pos
        .first()
        .ok_or("usage: ibis stats FILE | ibis stats --addr HOST:PORT [--json|--prom|--slow]")?;
    let d = load_dataset(path)?;
    println!("{}: {} rows × {} attrs\n", path, d.n_rows(), d.n_attrs());
    println!(
        "{:>20} {:>6} {:>9} {:>9}",
        "attribute", "card", "distinct", "missing%"
    );
    for s in column_stats(&d) {
        println!(
            "{:>20} {:>6} {:>9} {:>8.1}%",
            s.name,
            s.cardinality,
            s.distinct_present,
            s.missing_rate * 100.0
        );
    }
    println!("\n{}", CompositionTable::census_buckets(&d).render());
    Ok(())
}

fn index(args: &[String]) -> Result<(), CliError> {
    let (pos, flags) = parse_flags(args);
    let path = pos
        .first()
        .ok_or("usage: ibis index FILE --encoding … --out …")?;
    let out = req(&flags, "out")?;
    let backend = flags.get("backend").map_or("wah", String::as_str);
    let d = load_dataset(path)?;
    let encoding = req(&flags, "encoding")?;
    macro_rules! save_bitmap {
        ($ty:ident) => {
            match backend {
                "wah" => save_index(&$ty::<Wah>::build(&d), out),
                "bbc" => save_index(&$ty::<Bbc>::build(&d), out),
                "plain" => save_index(&$ty::<BitVec64>::build(&d), out),
                "adaptive" => save_index(&$ty::<Adaptive>::build(&d), out),
                other => Err(CliError::Usage(format!(
                    "unknown backend {other:?} (wah|bbc|plain|adaptive)"
                ))),
            }
        };
    }
    let (n_bitmaps, bytes) = match encoding {
        "va" => {
            let va = VaFile::build(&d);
            va.save(out).map_err(|e| e.to_string())?;
            (0, va.size_bytes())
        }
        "bee" => save_bitmap!(EqualityBitmapIndex)?,
        "bre" => save_bitmap!(RangeBitmapIndex)?,
        "bie" => save_bitmap!(IntervalBitmapIndex)?,
        "dec" => save_bitmap!(DecomposedBitmapIndex)?,
        other => {
            return Err(CliError::Usage(format!(
                "unknown encoding {other:?} (bee|bre|bie|dec|va)"
            )))
        }
    };
    if n_bitmaps > 0 {
        println!(
            "wrote {encoding}/{backend} index: {n_bitmaps} bitmaps, {:.1} KB → {out}",
            bytes as f64 / 1024.0
        );
    } else {
        println!("wrote va index: {:.1} KB → {out}", bytes as f64 / 1024.0);
    }
    Ok(())
}

/// The save surface every bitmap index shares; lets `index` handle all
/// (encoding, backend) pairs through one code path.
trait SavableIndex {
    fn n_bitmaps(&self) -> usize;
    fn size_bytes(&self) -> usize;
    fn save(&self, path: &str) -> std::io::Result<()>;
}

macro_rules! savable {
    ($ty:ident) => {
        impl<B: ibis::bitvec::BitStore> SavableIndex for $ty<B> {
            fn n_bitmaps(&self) -> usize {
                $ty::n_bitmaps(self)
            }
            fn size_bytes(&self) -> usize {
                $ty::size_bytes(self)
            }
            fn save(&self, path: &str) -> std::io::Result<()> {
                $ty::save(self, path)
            }
        }
    };
}
savable!(EqualityBitmapIndex);
savable!(RangeBitmapIndex);
savable!(IntervalBitmapIndex);
savable!(DecomposedBitmapIndex);

fn save_index(idx: &dyn SavableIndex, out: &str) -> Result<(usize, usize), CliError> {
    idx.save(out)
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    Ok((idx.n_bitmaps(), idx.size_bytes()))
}

/// Sniffs a saved index file by magic and loads it as an engine-layer
/// [`AccessMethod`], so the query path downstream is encoding-agnostic.
fn load_access_method(path: &str, d: &Arc<Dataset>) -> Result<Box<dyn AccessMethod>, String> {
    // Sniff the header — 4-byte magic, u16 version, then (for bitmap
    // indexes) the length-prefixed backend name — so load errors come from
    // the one true (magic, backend) pair instead of a trial sequence.
    let mut head = [0u8; 64];
    let n = std::fs::File::open(path)
        .and_then(|mut f| f.read(&mut head))
        .map_err(|e| format!("cannot read index {path:?}: {e}"))?;
    if n < 6 {
        return Err(format!("index file {path:?} too short"));
    }
    let magic = &head[..4];
    let backend = if n >= 15 {
        // magic(4) + version(2) + u64 length + backend bytes.
        let len = u64::from_le_bytes(head[6..14].try_into().expect("slice of 8")) as usize;
        std::str::from_utf8(&head[14..(14 + len).min(n)]).unwrap_or("")
    } else {
        ""
    };
    let check_rows = |idx_rows: usize| -> Result<(), String> {
        if idx_rows != d.n_rows() {
            return Err(format!(
                "index {path:?} covers {idx_rows} rows but the dataset has {} — \
                 rebuild the index with `ibis index`",
                d.n_rows()
            ));
        }
        Ok(())
    };
    macro_rules! dispatch {
        ($ty:ident, $backend:ty) => {{
            let idx = $ty::<$backend>::load(path).map_err(|e| e.to_string())?;
            check_rows(idx.n_rows())?;
            Ok(Box::new(idx) as Box<dyn AccessMethod>)
        }};
        ($ty:ident) => {{
            match backend {
                "wah" => dispatch!($ty, Wah),
                "bbc" => dispatch!($ty, Bbc),
                "plain" => dispatch!($ty, BitVec64),
                "adaptive" => dispatch!($ty, Adaptive),
                other => Err(format!("unknown backend {other:?} recorded in {path:?}")),
            }
        }};
    }
    match magic {
        b"IBEE" => dispatch!(EqualityBitmapIndex),
        b"IBRE" => dispatch!(RangeBitmapIndex),
        b"IBIE" => dispatch!(IntervalBitmapIndex),
        b"IBDX" => dispatch!(DecomposedBitmapIndex),
        b"IBVA" => {
            let va = VaFile::load(path).map_err(|e| e.to_string())?;
            check_rows(va.n_rows())?;
            Ok(Box::new(va.bind(Arc::clone(d))))
        }
        other => Err(format!("unrecognized index magic {other:02x?} in {path:?}")),
    }
}

fn query(args: &[String]) -> Result<(), CliError> {
    let (pos, flags) = parse_flags(args);
    if flags.contains_key("data-dir") {
        if flags.contains_key("addr") {
            return Err(
                "--addr sends the query to a running server; it cannot be combined \
                 with --data-dir"
                    .into(),
            );
        }
        return query_durable(&pos, &flags);
    }
    if flags.contains_key("addr") {
        for local in ["index", "shard-rows", "profile", "profile-json", "threads"] {
            if flags.contains_key(local) {
                return Err(CliError::Usage(format!(
                    "--addr sends the query to a running server; it cannot be \
                     combined with --{local}"
                )));
            }
        }
    }
    let (path, text) = match pos.as_slice() {
        [p, q] => (p, q),
        _ => return Err("usage: ibis query FILE \"QUERY\" [flags]".into()),
    };
    let d = Arc::new(load_dataset(path)?);
    let policy = if flags.contains_key("not-match") {
        MissingPolicy::IsNotMatch
    } else {
        MissingPolicy::IsMatch
    };
    // Use the dictionary sidecar (written by `ibis import`) when present
    // and shape-consistent with the dataset, enabling string literals like
    // city = "london". A stale/mismatched sidecar is ignored.
    let dicts = load_dictionaries(format!("{path}.dict")).ok().filter(|dd| {
        dd.len() == d.n_attrs()
            && dd
                .iter()
                .zip(d.columns())
                .all(|(dict, col)| dict.len() == col.cardinality() as usize)
    });
    let q = match &dicts {
        Some(dicts) => parse_query_with_dictionaries(&d, dicts, text, policy),
        None => parse_query(&d, text, policy),
    }
    .map_err(|e| e.to_string())?;
    if let Some(addr) = flags.get("addr") {
        let deadline_ms: u32 = flags
            .get("deadline-ms")
            .map_or(Ok(0), |s| num(s, "deadline"))?;
        return server_query(addr, &q, deadline_ms, &flags);
    }
    let threads = parse_threads(&flags)?;
    let shard_rows: Option<usize> = match flags.get("shard-rows") {
        Some(s) => {
            let n: usize = num(s, "shard rows")?;
            if n == 0 {
                return Err("--shard-rows must be at least 1".into());
            }
            if flags.contains_key("index") {
                return Err(
                    "--shard-rows builds per-shard indexes; it cannot be combined with --index"
                        .into(),
                );
            }
            Some(n)
        }
        None => None,
    };
    let profile_json = flags.get("profile-json");
    let rows = if flags.contains_key("profile") || profile_json.is_some() {
        // Profile through the engine trait; without a saved index the scan
        // baseline is the method (its chunks are spans too). With
        // --shard-rows the whole sharded pipeline is profiled instead:
        // per-shard `db.shard` spans plus the `shards.pruned` counter.
        let prof = match shard_rows {
            Some(n) => {
                let db = ShardedDb::new(Dataset::clone(&d), n);
                ibis::profile::profile_sharded(&db, &q, threads)
            }
            None => {
                let method: Box<dyn AccessMethod> = match flags.get("index") {
                    Some(idx) => load_access_method(idx, &d)?,
                    None => Box::new(SequentialScan.bind(Arc::clone(&d))),
                };
                ibis::profile::profile_method(method.as_ref(), &q, threads)
            }
        }
        .map_err(|e| e.to_string())?;
        print!("{}", prof.render());
        println!("per-phase totals (spans, time, counter deltas):");
        for (name, count, total_ns, counters) in prof.phases() {
            println!("  {name:<20} ×{count:<5} {:>9.3} ms", total_ns as f64 / 1e6);
            if !counters.is_zero() {
                for line in counters.to_string().lines() {
                    println!("  {line}");
                }
            }
        }
        if shard_rows.is_some() {
            let pruned = prof.snapshot.counters.get("shards.pruned").copied();
            println!("shards pruned: {}", pruned.unwrap_or(0));
        }
        if let Some(path) = profile_json {
            std::fs::write(path, prof.to_json())
                .map_err(|e| format!("cannot write profile {path:?}: {e}"))?;
            println!("profile JSON written to {path}");
        }
        prof.rows
    } else if let Some(n) = shard_rows {
        let db = ShardedDb::new(Dataset::clone(&d), n);
        let exec = db
            .execute_with_stats_threads(&q, threads)
            .map_err(|e| e.to_string())?;
        println!(
            "shards: {} total, {} pruned, {} executed",
            exec.shards_total,
            exec.shards_pruned,
            exec.shards_executed()
        );
        exec.rows
    } else {
        match flags.get("index") {
            Some(idx) => load_access_method(idx, &d)?
                .execute_threads(&q, threads)
                .map_err(|e| e.to_string())?,
            None => ibis::core::scan::execute_partitioned(&d, &q, threads),
        }
    };
    println!(
        "{} rows match under {policy} (selectivity {:.3}%)",
        rows.len(),
        rows.selectivity(d.n_rows()) * 100.0
    );
    if !flags.contains_key("count") {
        let limit: usize = flags.get("limit").map_or(Ok(20), |s| num(s, "limit"))?;
        for r in rows.iter().take(limit) {
            let cells: Vec<String> = q
                .predicates()
                .iter()
                .map(|p| {
                    let cell = d.cell(r as usize, p.attr);
                    let shown = match (&dicts, cell.value()) {
                        // Stale/mismatched sidecar → fall back to the code.
                        (Some(dicts), Some(v)) => dicts
                            .get(p.attr)
                            .and_then(|dict| dict.get(v as usize - 1))
                            .cloned()
                            .unwrap_or_else(|| cell.to_string()),
                        _ => cell.to_string(),
                    };
                    format!("{}={shown}", d.column(p.attr).name())
                })
                .collect();
            println!("  row {r}: {}", cells.join(" "));
        }
        if rows.len() > limit {
            println!("  … {} more (use --limit)", rows.len() - limit);
        }
    }
    Ok(())
}

/// `ibis query --data-dir DIR "QUERY"` — recover the durable database,
/// acquire a lock-free serving snapshot, and query it through the sharded
/// executor (pruning stats included).
fn query_durable(
    pos: &[String],
    flags: &std::collections::BTreeMap<String, String>,
) -> Result<(), CliError> {
    let dir = req(flags, "data-dir")?;
    let text = pos
        .first()
        .ok_or("usage: ibis query --data-dir DIR \"QUERY\" [flags]")?;
    if flags.contains_key("index") || flags.contains_key("shard-rows") {
        return Err("--data-dir queries the directory's own per-shard indexes; \
                    it cannot be combined with --index or --shard-rows"
            .into());
    }
    let db = ConcurrentDb::open_durable(std::path::Path::new(dir))
        .map_err(|e| format!("cannot open data directory {dir:?}: {e}"))?;
    let replayed = db.with_durable(|d| d.replayed_on_open()).unwrap_or(0);
    if replayed > 0 {
        println!("recovered {dir}: replayed {replayed} WAL record(s) past the checkpoint");
    }
    let snap = db.snapshot();
    let policy = if flags.contains_key("not-match") {
        MissingPolicy::IsNotMatch
    } else {
        MissingPolicy::IsMatch
    };
    let q = parse_query(snap.db().schema(), text, policy).map_err(|e| e.to_string())?;
    let threads = parse_threads(flags)?;
    let rows = if flags.contains_key("profile") {
        let prof =
            ibis::profile::profile_sharded(snap.db(), &q, threads).map_err(|e| e.to_string())?;
        print!("{}", prof.render());
        let pruned = prof.snapshot.counters.get("shards.pruned").copied();
        println!("shards pruned: {}", pruned.unwrap_or(0));
        prof.rows
    } else {
        let exec = snap
            .execute_with_stats_threads(&q, threads)
            .map_err(|e| e.to_string())?;
        println!(
            "snapshot watermark {}; shards: {} total, {} pruned, {} executed",
            snap.watermark(),
            exec.shards_total,
            exec.shards_pruned,
            exec.shards_executed()
        );
        exec.rows
    };
    println!(
        "{} rows match under {policy} (selectivity {:.3}%)",
        rows.len(),
        rows.selectivity(snap.n_rows()) * 100.0
    );
    if !flags.contains_key("count") {
        let limit: usize = flags.get("limit").map_or(Ok(20), |s| num(s, "limit"))?;
        for r in rows.iter().take(limit) {
            println!("  row {r}");
        }
        if rows.len() > limit {
            println!("  … {} more (use --limit)", rows.len() - limit);
        }
    }
    Ok(())
}

fn init(args: &[String]) -> Result<(), CliError> {
    let (pos, flags) = parse_flags(args);
    let dir = pos
        .first()
        .ok_or("usage: ibis init DIR --from FILE.ibds [--shard-rows N]")?;
    let from = req(&flags, "from")?;
    let shard_rows: usize = flags
        .get("shard-rows")
        .map_or(Ok(4096), |s| num(s, "shard rows"))?;
    if shard_rows == 0 {
        return Err("--shard-rows must be at least 1".into());
    }
    let d = load_dataset(from)?;
    let db = DurableDb::create(
        std::path::Path::new(dir),
        d,
        shard_rows,
        DbConfig::default(),
    )
    .map_err(|e| format!("cannot initialize {dir:?}: {e}"))?;
    println!(
        "initialized {dir}: generation {}, {} rows × {} attrs in {} shard(s)",
        db.generation(),
        db.n_rows(),
        db.n_attrs(),
        db.shard_count()
    );
    Ok(())
}

fn checkpoint(args: &[String]) -> Result<(), CliError> {
    let (pos, _) = parse_flags(args);
    let dir = pos.first().ok_or("usage: ibis checkpoint DIR")?;
    let mut db = DurableDb::open(std::path::Path::new(dir))
        .map_err(|e| format!("cannot open data directory {dir:?}: {e}"))?;
    let replayed = db.replayed_on_open();
    db.checkpoint().map_err(|e| e.to_string())?;
    println!(
        "checkpointed {dir}: generation {}, {replayed} WAL record(s) folded in, \
         log truncated to {} bytes",
        db.generation(),
        db.wal_bytes()
    );
    Ok(())
}

fn backup(args: &[String]) -> Result<(), CliError> {
    let (pos, flags) = parse_flags(args);
    let dir = pos
        .first()
        .ok_or("usage: ibis backup DIR --out FILE.ibbk")?;
    let out = req(&flags, "out")?;
    let db = DurableDb::open(std::path::Path::new(dir))
        .map_err(|e| format!("cannot open data directory {dir:?}: {e}"))?;
    db.backup(std::path::Path::new(out))
        .map_err(|e| format!("cannot write backup {out:?}: {e}"))?;
    println!(
        "backed up {dir} ({} rows, generation {}) → {out}",
        db.n_rows(),
        db.generation()
    );
    Ok(())
}

fn restore(args: &[String]) -> Result<(), CliError> {
    let (pos, flags) = parse_flags(args);
    let file = pos
        .first()
        .ok_or("usage: ibis restore FILE.ibbk --into DIR")?;
    let into = req(&flags, "into")?;
    let db = DurableDb::restore(std::path::Path::new(file), std::path::Path::new(into))
        .map_err(|e| format!("cannot restore {file:?} into {into:?}: {e}"))?;
    println!(
        "restored {file} → {into}: {} rows × {} attrs, generation {}",
        db.n_rows(),
        db.n_attrs(),
        db.generation()
    );
    Ok(())
}

fn validate(args: &[String]) -> Result<(), CliError> {
    let (pos, _) = parse_flags(args);
    let dir = pos.first().ok_or("usage: ibis validate DIR")?;
    let r = DurableDb::validate(std::path::Path::new(dir)).map_err(|e| e.to_string())?;
    println!(
        "{dir}: generation {}, watermark {}",
        r.generation, r.watermark
    );
    println!(
        "  snapshot: {} shard(s), {} row(s)",
        r.snapshot_shards, r.snapshot_rows
    );
    println!(
        "  wal: {} replayable record(s) in {} well-formed byte(s), {} torn byte(s)",
        r.wal_records, r.wal_bytes, r.torn_tail_bytes
    );
    if r.torn_tail_bytes > 0 {
        println!("  note: the torn tail will be repaired by the next open");
    }
    Ok(())
}

fn crash(args: &[String]) -> Result<(), CliError> {
    let (_, flags) = parse_flags(args);
    let threads = match flags.get("threads") {
        Some(s) => s
            .split(',')
            .map(|t| num::<usize>(t.trim(), "thread degree"))
            .collect::<Result<Vec<_>, _>>()?,
        None => vec![1, 8],
    };
    if threads.is_empty() || threads.contains(&0) {
        return Err("--threads must be a comma-separated list of degrees ≥ 1".into());
    }
    let cfg = ibis::oracle::CrashConfig {
        seed: flags.get("seed").map_or(Ok(1), |s| num(s, "seed"))?,
        rows: flags.get("rows").map_or(Ok(96), |s| num(s, "row count"))?,
        kill_points: flags
            .get("kill-points")
            .map_or(Ok(24), |s| num(s, "kill-point count"))?,
        bit_flips: flags
            .get("bit-flips")
            .map_or(Ok(8), |s| num(s, "bit-flip count"))?,
        threads,
        ..ibis::oracle::CrashConfig::default()
    };
    println!(
        "crash harness: seed {}, {} rows, {} extra kill points, {} bit flips, threads {:?}",
        cfg.seed, cfg.rows, cfg.kill_points, cfg.bit_flips, cfg.threads
    );
    let start = std::time::Instant::now();
    let report =
        ibis::oracle::crash::run(&cfg).map_err(|e| format!("harness scaffolding failed: {e}"))?;
    println!(
        "{} in {:.1}s",
        report.summary(),
        start.elapsed().as_secs_f64()
    );
    if report.ok() {
        println!("every recovery matched its durable prefix exactly");
        return Ok(());
    }
    for f in report.failures.iter().take(10) {
        println!(
            "FAILED {}: {}",
            f.check,
            f.detail.lines().next().unwrap_or("")
        );
    }
    Err(CliError::Runtime(format!(
        "{} failing check(s)",
        report.failures.len()
    )))
}

fn race(args: &[String]) -> Result<(), CliError> {
    let (pos, flags) = parse_flags(args);
    let path = pos
        .first()
        .ok_or("usage: ibis race FILE [--queries N] [--k K]")?;
    let d = load_dataset(path)?;
    let n: usize = flags
        .get("queries")
        .map_or(Ok(50), |s| num(s, "query count"))?;
    let k: usize = flags.get("k").map_or(Ok(4), |s| num(s, "dimensionality"))?;
    let seed: u64 = flags.get("seed").map_or(Ok(7), |s| num(s, "seed"))?;
    let spec = QuerySpec {
        n_queries: n,
        k,
        global_selectivity: 0.01,
        policy: MissingPolicy::IsMatch,
        candidate_attrs: vec![],
    };
    let queries = workload(&d, &spec, seed);
    let threads = parse_threads(&flags)?;
    if let Some(live) = flags.get("live") {
        let mutations: usize = num(live, "live mutation count")?;
        let shard_rows: usize = flags
            .get("shard-rows")
            .map_or(Ok(4096), |s| num(s, "shard rows"))?;
        if shard_rows == 0 {
            return Err("--shard-rows must be at least 1".into());
        }
        return race_live(d, &queries, threads, mutations, shard_rows);
    }
    let d = Arc::new(d);
    // The contenders, all through the one engine-layer trait (the scan
    // rides along as the index-free baseline).
    let methods: Vec<Box<dyn AccessMethod>> = vec![
        Box::new(EqualityBitmapIndex::<Wah>::build(&d)),
        Box::new(RangeBitmapIndex::<Wah>::build(&d)),
        Box::new(VaFile::build(&d).bind(Arc::clone(&d))),
        Box::new(SequentialScan.bind(Arc::clone(&d))),
    ];
    println!(
        "{n} queries, k={k}, missing-is-match, {threads} thread(s) over {} rows:",
        d.n_rows()
    );
    let profile = flags.contains_key("profile");
    if profile {
        println!("  (profiling on: timings include recorder overhead)");
    }
    let mut hit_totals = Vec::new();
    for m in &methods {
        if profile {
            Recorder::enabled().install();
        }
        let start = std::time::Instant::now();
        let hits: usize = queries
            .iter()
            .map(|q| {
                m.execute_threads(q, threads)
                    .expect("valid workload query")
                    .len()
            })
            .sum();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        hit_totals.push(hits);
        println!(
            "  {:<16} {ms:>9.2} ms   ({:.1} KB)",
            m.name(),
            m.size_bytes() as f64 / 1024.0
        );
        if profile {
            let snap = ibis::obs::snapshot();
            Recorder::disabled().install();
            for p in snap.phase_totals() {
                let counters =
                    WorkCounters::from_fields(p.fields.iter().map(|(n, v)| (n.as_str(), *v)));
                println!(
                    "      {:<20} ×{:<6} {:>9.2} ms",
                    p.name,
                    p.count,
                    p.total_ns as f64 / 1e6
                );
                if !counters.is_zero() {
                    for line in counters.to_string().lines() {
                        println!("      {line}");
                    }
                }
            }
        }
    }
    assert!(
        hit_totals.windows(2).all(|w| w[0] == w[1]),
        "access methods disagree: {hit_totals:?}"
    );
    Ok(())
}

/// `ibis race FILE --live N` — readers loop the workload over lock-free
/// snapshots while one writer streams mutations; throughput per reader.
fn race_live(
    d: Dataset,
    queries: &[RangeQuery],
    threads: usize,
    mutations: usize,
    shard_rows: usize,
) -> Result<(), CliError> {
    use std::sync::atomic::{AtomicBool, Ordering};
    let n_attrs = d.n_attrs();
    let cards: Vec<u16> = (0..n_attrs).map(|a| d.column(a).cardinality()).collect();
    let base_rows = d.n_rows();
    let db = ConcurrentDb::from_sharded(ShardedDb::new(d, shard_rows));
    println!(
        "live race: {threads} reader(s) × {} queries/loop vs 1 writer × {mutations} mutation(s), \
         {} shard(s) of {shard_rows}",
        queries.len(),
        db.snapshot().shard_count()
    );
    let done = AtomicBool::new(false);
    let start = std::time::Instant::now();
    std::thread::scope(|s| -> Result<(), String> {
        let writer = s.spawn(|| -> Result<(), String> {
            // A deterministic mutation stream: mostly appends, a steady
            // trickle of deletes, an occasional compaction.
            for i in 0..mutations {
                match i % 16 {
                    3 | 11 => {
                        db.delete((i % (base_rows.max(1) + i / 2)) as u32)
                            .map_err(|e| format!("writer delete: {e}"))?;
                    }
                    15 if i % 256 == 255 => {
                        db.compact().map_err(|e| format!("writer compact: {e}"))?;
                    }
                    _ => {
                        let row: Vec<Cell> = cards
                            .iter()
                            .enumerate()
                            .map(|(a, &c)| {
                                if (i + a) % 7 == 0 {
                                    Cell::MISSING
                                } else {
                                    Cell::present(((i + a) % c as usize) as u16 + 1)
                                }
                            })
                            .collect();
                        db.insert(&row).map_err(|e| format!("writer insert: {e}"))?;
                    }
                }
            }
            done.store(true, Ordering::SeqCst);
            Ok(())
        });
        // Each reader loops the whole workload over a fresh snapshot per
        // pass until the writer finishes (at least one pass always runs).
        let tallies = ibis::core::parallel::ExecPool::new(threads).broadcast(|r| {
            let mut passes = 0u64;
            let mut rows_seen = 0u64;
            let (mut w_lo, mut w_hi) = (u64::MAX, 0u64);
            loop {
                let snap = db.snapshot();
                let w = snap.watermark();
                w_lo = w_lo.min(w);
                w_hi = w_hi.max(w);
                for q in queries {
                    match snap.execute(q) {
                        Ok(rows) => rows_seen += rows.len() as u64,
                        Err(e) => return Err(format!("reader {r}: {e}")),
                    }
                }
                passes += 1;
                if done.load(Ordering::SeqCst) {
                    return Ok((passes, rows_seen, w_lo, w_hi));
                }
            }
        });
        writer.join().expect("writer thread panicked")?;
        let secs = start.elapsed().as_secs_f64();
        let mut total_q = 0u64;
        for (r, t) in tallies.into_iter().enumerate() {
            let (passes, rows_seen, w_lo, w_hi) = t?;
            total_q += passes * queries.len() as u64;
            println!(
                "  reader {r}: {passes} workload pass(es), {rows_seen} rows read, \
                 watermarks {w_lo}..={w_hi}"
            );
        }
        println!(
            "{} queries answered in {secs:.2}s ({:.0} q/s) while the writer applied {} mutations \
             ({:.0} mut/s); final watermark {}",
            total_q,
            total_q as f64 / secs,
            mutations,
            mutations as f64 / secs,
            db.snapshot().watermark()
        );
        Ok(())
    })
    .map_err(CliError::from)
}

/// `ibis stress` — the snapshot-isolation stress harness (differentially
/// checked; see [`ibis::oracle::stress`]).
fn stress(args: &[String]) -> Result<(), CliError> {
    let (_, flags) = parse_flags(args);
    let threads = match flags.get("threads") {
        Some(s) => s
            .split(',')
            .map(|t| num::<usize>(t.trim(), "thread degree"))
            .collect::<Result<Vec<_>, _>>()?,
        None => vec![1, 8],
    };
    if threads.is_empty() || threads.contains(&0) {
        return Err("--threads must be a comma-separated list of degrees ≥ 1".into());
    }
    let readers: usize = flags
        .get("readers")
        .map_or(Ok(8), |s| num(s, "reader count"))?;
    if readers == 0 {
        return Err("--readers must be at least 1".into());
    }
    let cfg = ibis::oracle::StressConfig {
        seed: flags.get("seed").map_or(Ok(1), |s| num(s, "seed"))?,
        rows: flags.get("rows").map_or(Ok(96), |s| num(s, "row count"))?,
        readers,
        mutations: if flags.contains_key("no-writer") {
            0
        } else {
            flags
                .get("mutations")
                .map_or(Ok(10_000), |s| num(s, "mutation count"))?
        },
        checkpoint_every: flags
            .get("checkpoint-every")
            .map_or(Ok(0), |s| num(s, "checkpoint interval"))?,
        threads,
        durable: flags.contains_key("durable"),
        ..ibis::oracle::StressConfig::default()
    };
    println!(
        "stress harness: seed {}, {} rows, {} reader(s) vs {}, {} backend, degrees {:?}",
        cfg.seed,
        cfg.rows,
        cfg.readers,
        if cfg.mutations == 0 {
            "no writer".to_string()
        } else {
            format!("1 writer × {} mutation(s)", cfg.mutations)
        },
        if cfg.durable { "durable" } else { "in-memory" },
        cfg.threads
    );
    let start = std::time::Instant::now();
    let report =
        ibis::oracle::stress::run(&cfg).map_err(|e| format!("harness scaffolding failed: {e}"))?;
    println!(
        "{} in {:.1}s",
        report.summary(),
        start.elapsed().as_secs_f64()
    );
    if report.ok() {
        println!("every snapshot matched its schedule prefix exactly");
        return Ok(());
    }
    for f in report.failures.iter().take(10) {
        println!(
            "FAILED {}: {}",
            f.check,
            f.detail.lines().next().unwrap_or("")
        );
    }
    Err(CliError::Runtime(format!(
        "{} failing check(s)",
        report.failures.len()
    )))
}

fn oracle(args: &[String]) -> Result<(), CliError> {
    let (_, flags) = parse_flags(args);
    let cfg = ibis::oracle::OracleConfig {
        cases: flags
            .get("cases")
            .map_or(Ok(200), |s| num(s, "case count"))?,
        seed: flags.get("seed").map_or(Ok(1), |s| num(s, "seed"))?,
        corpus_dir: Some(
            flags
                .get("corpus")
                .map_or_else(|| "tests/regressions".into(), std::path::PathBuf::from),
        ),
        max_failures: flags
            .get("max-failures")
            .map_or(Ok(3), |s| num(s, "failure cap"))?,
        case_budget_ms: flags
            .get("case-budget-ms")
            .map_or(Ok(10_000), |s| num(s, "case budget"))?,
        ..ibis::oracle::OracleConfig::default()
    };
    println!(
        "oracle: {} cases, seed {}, repros → {}",
        cfg.cases,
        cfg.seed,
        cfg.corpus_dir
            .as_deref()
            .unwrap_or_else(|| std::path::Path::new("-"))
            .display()
    );
    let start = std::time::Instant::now();
    let report = ibis::oracle::run(&cfg);
    println!(
        "ran {} cases / {} checks in {:.1}s",
        report.cases_run,
        report.checks_run,
        start.elapsed().as_secs_f64()
    );
    println!("{}", report.timing_summary());
    if let Some(&(idx, ms)) = report.slowest.first() {
        println!("slowest case: #{idx} at {ms} ms");
    }
    if report.ok() {
        println!("all checks passed");
        return Ok(());
    }
    for bug in &report.bugs {
        println!("FAILED case {}: {}", bug.case_idx, bug.failure.check);
        println!("  {}", bug.failure.detail.lines().next().unwrap_or(""));
        println!(
            "  minimized to {} rows × {} attrs, {} queries{}",
            bug.minimized.dataset.n_rows(),
            bug.minimized.dataset.n_attrs(),
            bug.minimized.queries.len(),
            match &bug.repro_path {
                Some(p) => format!(" — repro written to {}", p.display()),
                None => String::new(),
            }
        );
    }
    Err(CliError::Runtime(format!(
        "{} failing case(s)",
        report.bugs.len()
    )))
}

/// `ibis serve` — expose a database over the `IBQP` wire protocol (see
/// `ibis::server`): lock-free snapshot reads on a fixed worker pool with
/// batching, per-request deadlines, and admission control.
fn serve(args: &[String]) -> Result<(), CliError> {
    let (pos, flags) = parse_flags(args);
    let defaults = ServerConfig::default();
    let config = ServerConfig {
        workers: {
            let n: usize = flags
                .get("workers")
                .map_or(Ok(defaults.workers), |s| num(s, "worker count"))?;
            if n == 0 {
                return Err("--workers must be at least 1".into());
            }
            n
        },
        max_batch: {
            let n: usize = flags
                .get("max-batch")
                .map_or(Ok(defaults.max_batch), |s| num(s, "batch size"))?;
            if n == 0 {
                return Err("--max-batch must be at least 1".into());
            }
            n
        },
        queue_high_water: flags
            .get("queue-high-water")
            .map_or(Ok(defaults.queue_high_water), |s| {
                num(s, "queue high-water mark")
            })?,
        default_deadline_ms: flags
            .get("deadline-ms")
            .map_or(Ok(defaults.default_deadline_ms), |s| {
                num(s, "deadline milliseconds")
            })?,
        trace_sample: flags
            .get("trace-sample")
            .map_or(Ok(defaults.trace_sample), |s| num(s, "trace sample rate"))?,
        slow_log_size: {
            let n: usize = flags
                .get("slow-log")
                .map_or(Ok(defaults.slow_log_size), |s| num(s, "slow log size"))?;
            if n == 0 {
                return Err("--slow-log must be at least 1".into());
            }
            n
        },
    };
    if config.trace_sample == 0 && flags.contains_key("slow-log") {
        return Err(
            "--trace-sample 0 disables request tracing, so the slow-query \
             log never fills and --slow-log is useless; drop --slow-log or \
             use a non-zero --trace-sample"
                .into(),
        );
    }
    let db = if let Some(dir) = flags.get("data-dir") {
        if !pos.is_empty() {
            return Err("--data-dir serves the durable directory; \
                        it cannot be combined with a dataset file"
                .into());
        }
        ConcurrentDb::open_durable(std::path::Path::new(dir))
            .map_err(|e| format!("cannot open data directory {dir:?}: {e}"))?
    } else {
        let path = pos
            .first()
            .ok_or("usage: ibis serve FILE.ibds [flags] | ibis serve --data-dir DIR [flags]")?;
        let shard_rows: usize = flags
            .get("shard-rows")
            .map_or(Ok(4096), |s| num(s, "shard rows"))?;
        if shard_rows == 0 {
            return Err("--shard-rows must be at least 1".into());
        }
        ConcurrentDb::from_sharded(ShardedDb::new(load_dataset(path)?, shard_rows))
    };
    let addr = flags.get("addr").map_or("127.0.0.1:7431", String::as_str);
    let snap = db.snapshot();
    let handle = Server::start(Arc::new(db), addr, config.clone())
        .map_err(|e| format!("cannot bind {addr:?}: {e}"))?;
    println!(
        "serving {} rows × {} attrs on {} ({} worker(s), batch ≤ {}, \
         queue high-water {}, default deadline {} ms)",
        snap.n_rows(),
        snap.n_attrs(),
        handle.addr(),
        config.workers,
        config.max_batch,
        config.queue_high_water,
        config.default_deadline_ms
    );
    drop(snap);
    // Scripts and tests read the bound address from this file; with
    // `--addr 127.0.0.1:0` it is the only way to learn the chosen port.
    if let Some(path) = flags.get("addr-file") {
        std::fs::write(path, handle.addr().to_string())
            .map_err(|e| format!("cannot write address file {path:?}: {e}"))?;
    }
    match flags.get("duration-secs") {
        Some(s) => {
            let secs: u64 = num(s, "duration")?;
            std::thread::sleep(std::time::Duration::from_secs(secs));
            handle.shutdown();
            println!("served for {secs}s, shut down cleanly");
        }
        None => loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        },
    }
    Ok(())
}

/// `ibis query … --addr` — send an already-parsed query to a running
/// server over IBQP. The local FILE supplies only the schema; answers
/// come from (and are labelled with) the server's snapshot watermark, so
/// row ids are printed without re-reading cells from the possibly-stale
/// local file.
fn server_query(
    addr: &str,
    q: &RangeQuery,
    deadline_ms: u32,
    flags: &std::collections::BTreeMap<String, String>,
) -> Result<(), CliError> {
    let mut client = ibis::server::Client::connect(addr)
        .map_err(|e| format!("cannot connect to {addr:?}: {e}"))?;
    let response = if flags.contains_key("count") {
        client.count(q, deadline_ms)
    } else {
        client.query(q, deadline_ms)
    }
    .map_err(|e| format!("query request to {addr:?} failed: {e}"))?;
    match response {
        ibis::server::Response::Count { watermark, count } => {
            println!(
                "{count} rows match under {} (server watermark {watermark})",
                q.policy()
            );
        }
        ibis::server::Response::Rows { watermark, rows } => {
            println!(
                "{} rows match under {} (server watermark {watermark})",
                rows.len(),
                q.policy()
            );
            let limit: usize = flags.get("limit").map_or(Ok(20), |s| num(s, "limit"))?;
            for r in rows.iter().take(limit) {
                println!("  row {r}");
            }
            if rows.len() > limit {
                println!("  … {} more (use --limit)", rows.len() - limit);
            }
        }
        ibis::server::Response::Error { code, message } => {
            return Err(CliError::Runtime(format!(
                "server refused the query ({code:?}): {message}"
            )));
        }
        other => {
            return Err(CliError::Runtime(format!(
                "unexpected response from {addr:?}: {other:?}"
            )));
        }
    }
    Ok(())
}

/// `ibis stats --addr` — one `STATS` request against a running server,
/// rendered in the requested view (summary, `--json`, `--prom`, `--slow`).
fn server_stats(
    addr: &str,
    flags: &std::collections::BTreeMap<String, String>,
) -> Result<(), CliError> {
    let mut client = ibis::server::Client::connect(addr)
        .map_err(|e| format!("cannot connect to {addr:?}: {e}"))?;
    let want_slow = flags.contains_key("slow");
    let report = client
        .stats(want_slow)
        .map_err(|e| format!("STATS request to {addr:?} failed: {e}"))?;
    if flags.contains_key("json") {
        println!("{}", report.metrics_json);
        return Ok(());
    }
    let snap = ibis::obs::Snapshot::from_json(&report.metrics_json)
        .map_err(|e| format!("malformed metrics from {addr:?}: {e}"))?;
    if flags.contains_key("prom") {
        print!("{}", snap.to_prometheus());
        return Ok(());
    }
    if want_slow {
        print!("{}", render_slow_queries(&report.slow_queries));
        return Ok(());
    }
    print!("{}", render_server_stats(addr, &report, &snap));
    Ok(())
}

/// `ibis top` — poll `STATS` and redraw a terminal dashboard.
fn top(args: &[String]) -> Result<(), CliError> {
    let (pos, flags) = parse_flags(args);
    if !pos.is_empty() {
        return Err("usage: ibis top --addr HOST:PORT [--interval-ms MS] [--iterations N]".into());
    }
    let addr = req(&flags, "addr")?;
    let interval_ms: u64 = flags
        .get("interval-ms")
        .map_or(Ok(1000), |s| num(s, "interval milliseconds"))?;
    if interval_ms == 0 {
        return Err("--interval-ms must be at least 1".into());
    }
    let iterations: Option<u64> = flags
        .get("iterations")
        .map(|s| num(s, "iteration count"))
        .transpose()?;
    if iterations == Some(0) {
        return Err("--iterations must be at least 1".into());
    }
    let mut client = ibis::server::Client::connect(addr)
        .map_err(|e| format!("cannot connect to {addr:?}: {e}"))?;
    let mut drawn = 0u64;
    loop {
        let report = client
            .stats(true)
            .map_err(|e| format!("STATS request to {addr:?} failed: {e}"))?;
        let snap = ibis::obs::Snapshot::from_json(&report.metrics_json)
            .map_err(|e| format!("malformed metrics from {addr:?}: {e}"))?;
        // Clear the screen and park the cursor before every frame; a
        // dumb-terminal consumer just sees frames separated by escapes.
        print!("\x1b[2J\x1b[H{}", render_top(addr, &report, &snap));
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        drawn += 1;
        if iterations.is_some_and(|n| drawn >= n) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
    println!();
    Ok(())
}

/// `12345` µs → `"12.3 ms"`; sub-millisecond values keep µs resolution.
fn fmt_us(us: u64) -> String {
    if us >= 1000 {
        format!("{:.1} ms", us as f64 / 1000.0)
    } else {
        format!("{us} µs")
    }
}

/// The `ibis stats --addr` summary view: headline serving gauges plus the
/// windowed (rolling) throughput and latency quantiles.
fn render_server_stats(
    addr: &str,
    report: &ibis::server::StatsReport,
    snap: &ibis::obs::Snapshot,
) -> String {
    let mut out = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(
        out,
        "stats for {addr} — watermark {}, uptime {:.1}s",
        report.watermark,
        report.uptime_ms as f64 / 1000.0
    );
    let _ = writeln!(
        out,
        "queue {} (high-water {})   workers {}/{} busy",
        report.queue_depth, report.queue_high_water, report.workers_busy, report.workers
    );
    let rate = snap
        .window_counters
        .get("server.responses")
        .map_or(0.0, |w| w.rate_per_sec());
    if let Some(w) = snap.windows.get("server.request_us") {
        let h = w.merged();
        let _ = writeln!(
            out,
            "window (last ~{}s): {rate:.1} req/s, p50 {}, p99 {}",
            w.bucket_ms * u64::from(w.capacity) / 1000,
            fmt_us(h.p50()),
            fmt_us(h.p99()),
        );
    } else {
        let _ = writeln!(out, "window: no requests yet ({rate:.1} req/s)");
    }
    let c = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let _ = writeln!(
        out,
        "lifetime: {} requests, {} admitted, {} shed, {} expired, {} traced",
        c("server.requests"),
        c("server.admitted"),
        c("server.shed_overload"),
        c("server.shed_deadline"),
        c("server.traced"),
    );
    let wc = |name: &str| snap.window_counters.get(name).map_or(0, |w| w.total());
    let (m, nm) = (
        wc("server.policy_is_match"),
        wc("server.policy_is_not_match"),
    );
    if m + nm > 0 {
        let _ = writeln!(
            out,
            "policy split (window): is-match {:.1}%, is-not-match {:.1}%",
            100.0 * m as f64 / (m + nm) as f64,
            100.0 * nm as f64 / (m + nm) as f64,
        );
    }
    out
}

/// The `ibis stats --addr --slow` view: the server's slow-query log,
/// worst-first, with the queue/execute split and per-phase counter deltas.
fn render_slow_queries(slow: &[ibis::server::SlowQuery]) -> String {
    use std::fmt::Write as _;
    if slow.is_empty() {
        return "slow-query log is empty (is the server tracing? see serve --trace-sample)\n"
            .to_string();
    }
    let mut out = String::new();
    for (i, s) in slow.iter().enumerate() {
        let _ = writeln!(
            out,
            "{:>2}. request {}  total {} (queue {} + exec {})  watermark {}",
            i + 1,
            s.request_id,
            fmt_us(s.total_us),
            fmt_us(s.queue_us),
            fmt_us(s.exec_us),
            s.watermark
        );
        let _ = writeln!(out, "    plan: {}", s.plan);
        let counters: Vec<String> = s.counters.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let _ = writeln!(out, "    counters: {}", counters.join(" "));
        for p in &s.phases {
            let pc: Vec<String> = p.counters.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let _ = writeln!(
                out,
                "      {:<12} ×{:<4} {:>10}  {}",
                p.name,
                p.spans,
                fmt_us(p.total_ns / 1000),
                pc.join(" ")
            );
        }
    }
    out
}

/// One `ibis top` frame: the stats summary plus the worst slow queries.
fn render_top(
    addr: &str,
    report: &ibis::server::StatsReport,
    snap: &ibis::obs::Snapshot,
) -> String {
    use std::fmt::Write as _;
    let mut out = format!("ibis top — {addr}\n\n");
    out.push_str(&render_server_stats(addr, report, snap));
    if !report.slow_queries.is_empty() {
        let _ = writeln!(out, "\nslow queries (worst {}):", report.slow_queries.len());
        for s in report.slow_queries.iter().take(5) {
            let _ = writeln!(
                out,
                "  {:>10}  (queue {} + exec {})  {}",
                fmt_us(s.total_us),
                fmt_us(s.queue_us),
                fmt_us(s.exec_us),
                s.plan
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_parsing() {
        let args: Vec<String> = ["data.ibds", "--rows", "100", "--count", "--out", "x"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (pos, flags) = parse_flags(&args);
        assert_eq!(pos, vec!["data.ibds"]);
        assert_eq!(flags.get("rows").unwrap(), "100");
        assert_eq!(flags.get("count").unwrap(), "true");
        assert_eq!(flags.get("out").unwrap(), "x");
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&["frobnicate".to_string()]).is_err());
        assert!(run(&[]).is_ok()); // help
    }

    #[test]
    fn malformed_flags_are_usage_errors_with_exit_code_2() {
        let s = |x: &str| x.to_string();
        // Malformed numeric values, missing required flags, unknown
        // commands and enum values: all usage errors → exit code 2.
        let usage_cases: Vec<Vec<String>> = vec![
            vec![
                s("generate"),
                s("--rows"),
                s("abc"),
                s("--kind"),
                s("census"),
                s("--out"),
                s("x"),
            ],
            vec![
                s("generate"),
                s("--rows"),
                s("-4"),
                s("--kind"),
                s("census"),
                s("--out"),
                s("x"),
            ],
            vec![
                s("generate"),
                s("--rows"),
                s("10"),
                s("--kind"),
                s("census"),
            ],
            vec![
                s("generate"),
                s("--rows"),
                s("10"),
                s("--kind"),
                s("martian"),
                s("--out"),
                s("x"),
            ],
            vec![s("stress"), s("--mutations"), s("1e5")],
            vec![s("stress"), s("--threads"), s("1,x")],
            vec![s("oracle"), s("--cases"), s("many")],
            vec![s("crash"), s("--bit-flips"), s("2.5")],
            vec![s("serve"), s("--workers"), s("zero")],
            vec![s("serve")],
            vec![s("serve"), s("x.ibds"), s("--slow-log"), s("0")],
            vec![s("serve"), s("x.ibds"), s("--trace-sample"), s("often")],
            // Tracing disabled + an explicit slow-log size: the log could
            // never fill, so the combination is rejected up front.
            vec![
                s("serve"),
                s("x.ibds"),
                s("--trace-sample"),
                s("0"),
                s("--slow-log"),
                s("4"),
            ],
            vec![s("top")],
            vec![s("top"), s("--addr"), s("h:1"), s("--interval-ms"), s("0")],
            vec![s("top"), s("--addr"), s("h:1"), s("--iterations"), s("0")],
            vec![s("top"), s("stray"), s("--addr"), s("h:1")],
            vec![s("stats"), s("x.ibds"), s("--addr"), s("h:1")],
            vec![
                s("query"),
                s("x.ibds"),
                s("a = 1"),
                s("--addr"),
                s("h:1"),
                s("--index"),
                s("x.bre"),
            ],
            vec![
                s("query"),
                s("x.ibds"),
                s("a = 1"),
                s("--addr"),
                s("h:1"),
                s("--profile"),
            ],
            vec![
                s("query"),
                s("--data-dir"),
                s("d"),
                s("a = 1"),
                s("--addr"),
                s("h:1"),
            ],
            vec![s("frobnicate")],
        ];
        for args in usage_cases {
            let err = run(&args).unwrap_err();
            assert!(
                matches!(err, CliError::Usage(_)),
                "{args:?} should be a usage error, got {err:?}"
            );
            assert_eq!(err.exit_code(), 2, "{args:?}");
        }
        // A well-formed command that fails while running exits with 1.
        let err = run(&[s("stats"), s("/no/such/file.ibds")]).unwrap_err();
        assert!(matches!(err, CliError::Runtime(_)), "got {err:?}");
        assert_eq!(err.exit_code(), 1);
    }

    #[test]
    fn serve_subcommand_answers_queries_over_loopback() {
        let dir = std::env::temp_dir().join(format!("ibis_cli_serve_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("d.ibds").to_string_lossy().into_owned();
        let addr_file = dir.join("addr.txt").to_string_lossy().into_owned();
        let s = |x: &str| x.to_string();
        run(&[
            s("generate"),
            s("--kind"),
            s("census"),
            s("--rows"),
            s("300"),
            s("--out"),
            data.clone(),
        ])
        .unwrap();
        let serve_args: Vec<String> = vec![
            s("serve"),
            data.clone(),
            s("--addr"),
            s("127.0.0.1:0"),
            s("--addr-file"),
            addr_file.clone(),
            s("--shard-rows"),
            s("64"),
            s("--workers"),
            s("2"),
            s("--duration-secs"),
            s("3"),
        ];
        let server = std::thread::spawn(move || run(&serve_args));
        // The server writes its bound address once the listener is up.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let addr = loop {
            if let Ok(a) = std::fs::read_to_string(&addr_file) {
                if !a.is_empty() {
                    break a;
                }
            }
            assert!(std::time::Instant::now() < deadline, "no address file");
            std::thread::sleep(std::time::Duration::from_millis(20));
        };
        let mut client = ibis::server::Client::connect(&addr).unwrap();
        assert_eq!(client.ping().unwrap(), ibis::server::Response::Pong);
        let q = RangeQuery::new(vec![Predicate::range(0, 1, 2)], MissingPolicy::IsMatch).unwrap();
        match client.query(&q, 0).unwrap() {
            ibis::server::Response::Rows { rows, .. } => assert!(!rows.is_empty()),
            other => panic!("expected rows, got {other:?}"),
        }
        drop(client);
        server.join().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_views_and_top_poll_a_live_server() {
        let s = |x: &str| x.to_string();
        let data = census_scaled(500, 11);
        let db = ConcurrentDb::from_sharded(ShardedDb::new(data.clone(), 128));
        let config = ibis::server::ServerConfig {
            workers: 2,
            trace_sample: 1,
            ..Default::default()
        };
        let handle = ibis::server::Server::start(Arc::new(db), "127.0.0.1:0", config).unwrap();
        let addr = handle.addr().to_string();
        let mut client = ibis::server::Client::connect(&addr).unwrap();
        let q = RangeQuery::new(vec![Predicate::range(0, 1, 2)], MissingPolicy::IsMatch).unwrap();
        for _ in 0..5 {
            client.count(&q, 10_000).unwrap();
        }
        // `ibis query --addr` sends traffic through the CLI path: FILE
        // supplies the schema, the answer comes from the server.
        let dir = std::env::temp_dir().join(format!("ibis_cli_netq_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("d.ibds");
        data.save(&file).unwrap();
        let fpath = file.to_str().unwrap().to_string();
        let query_text = format!("{} between 1 and 2", data.column(0).name());
        run(&[
            s("query"),
            fpath.clone(),
            query_text.clone(),
            s("--addr"),
            addr.clone(),
            s("--count"),
        ])
        .unwrap();
        run(&[
            s("query"),
            fpath,
            query_text,
            s("--addr"),
            addr.clone(),
            s("--limit"),
            s("2"),
        ])
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
        for view in [None, Some("--json"), Some("--prom"), Some("--slow")] {
            let mut args = vec![s("stats"), s("--addr"), addr.clone()];
            if let Some(v) = view {
                args.push(s(v));
            }
            run(&args).unwrap_or_else(|e| panic!("stats {view:?} failed: {e:?}"));
        }
        run(&[
            s("top"),
            s("--addr"),
            addr.clone(),
            s("--interval-ms"),
            s("5"),
            s("--iterations"),
            s("2"),
        ])
        .unwrap();
        handle.shutdown();
    }

    #[test]
    fn server_stat_views_render_the_wire_report() {
        let report = ibis::server::StatsReport {
            watermark: 42,
            queue_depth: 3,
            queue_high_water: 64,
            workers: 4,
            workers_busy: 2,
            uptime_ms: 34_200,
            metrics_json: String::new(),
            slow_queries: vec![ibis::server::SlowQuery {
                request_id: 17,
                watermark: 42,
                plan: "a0∈[1,3] (IsNotMatch)".into(),
                queue_us: 120,
                exec_us: 3400,
                total_us: 3520,
                counters: vec![("bitmaps_accessed".into(), 8)],
                phases: vec![ibis::server::SlowPhase {
                    name: "db.shard".into(),
                    spans: 4,
                    total_ns: 3_200_000,
                    counters: vec![("bitmaps_accessed".into(), 8)],
                }],
            }],
        };
        let mut snap = ibis::obs::Snapshot::default();
        snap.counters.insert("server.requests".into(), 100);
        snap.counters.insert("server.admitted".into(), 95);
        snap.counters.insert("server.shed_overload".into(), 5);
        let summary = render_server_stats("h:1", &report, &snap);
        assert!(summary.contains("watermark 42"), "{summary}");
        assert!(summary.contains("queue 3 (high-water 64)"), "{summary}");
        assert!(summary.contains("95 admitted, 5 shed"), "{summary}");
        let slow = render_slow_queries(&report.slow_queries);
        assert!(slow.contains("request 17"), "{slow}");
        assert!(slow.contains("queue 120 µs + exec 3.4 ms"), "{slow}");
        assert!(slow.contains("db.shard"), "{slow}");
        assert!(slow.contains("bitmaps_accessed=8"), "{slow}");
        let frame = render_top("h:1", &report, &snap);
        assert!(frame.starts_with("ibis top — h:1"), "{frame}");
        assert!(frame.contains("slow queries (worst 1):"), "{frame}");
        assert!(render_slow_queries(&[]).contains("log is empty"));
    }

    #[test]
    fn oracle_subcommand_runs_a_small_clean_batch() {
        let dir = std::env::temp_dir().join(format!("ibis_cli_oracle_{}", std::process::id()));
        let s = |x: &str| x.to_string();
        run(&[
            s("oracle"),
            s("--cases"),
            s("4"),
            s("--seed"),
            s("99"),
            s("--corpus"),
            dir.to_string_lossy().into_owned(),
        ])
        .unwrap();
        // A clean run writes nothing into the corpus directory.
        assert!(!dir.exists() || std::fs::read_dir(&dir).unwrap().next().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn end_to_end_generate_index_query() {
        let dir = std::env::temp_dir().join(format!("ibis_cli_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("d.ibds").to_string_lossy().into_owned();
        let idx = dir.join("d.bre").to_string_lossy().into_owned();
        let s = |x: &str| x.to_string();
        run(&[
            s("generate"),
            s("--kind"),
            s("census"),
            s("--rows"),
            s("300"),
            s("--out"),
            data.clone(),
        ])
        .unwrap();
        run(&[s("stats"), data.clone()]).unwrap();
        run(&[
            s("index"),
            data.clone(),
            s("--encoding"),
            s("bre"),
            s("--out"),
            idx.clone(),
        ])
        .unwrap();
        // Query through the saved index and by scan; the printed counts are
        // not captured here, but both paths must succeed.
        let d = Dataset::load(&data).unwrap();
        let attr = d.column(0).name().to_string();
        let text = format!("{attr} = 1");
        run(&[s("query"), data.clone(), text.clone(), s("--count")]).unwrap();
        run(&[
            s("query"),
            data.clone(),
            text.clone(),
            s("--index"),
            idx,
            s("--not-match"),
            s("--threads"),
            s("2"),
        ])
        .unwrap();
        assert!(
            run(&[s("query"), data.clone(), text, s("--threads"), s("0")]).is_err(),
            "zero threads rejected"
        );
        run(&[
            s("race"),
            data,
            s("--queries"),
            s("5"),
            s("--k"),
            s("2"),
            s("--threads"),
            s("2"),
        ])
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn adaptive_index_round_trips_through_the_cli() {
        let dir = std::env::temp_dir().join(format!("ibis_cli_adaptive_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("d.ibds").to_string_lossy().into_owned();
        let s = |x: &str| x.to_string();
        run(&[
            s("generate"),
            s("--kind"),
            s("census"),
            s("--rows"),
            s("300"),
            s("--out"),
            data.clone(),
        ])
        .unwrap();
        let d = Dataset::load(&data).unwrap();
        let text = format!("{} = 1", d.column(0).name());
        // The adaptive equality index (`bitmap-adaptive`) and a range
        // encoding, both stored in adaptive containers (the generic bitmap
        // format with backend name "adaptive").
        for encoding in ["bee", "bre"] {
            let idx = dir
                .join(format!("d.{encoding}.ad"))
                .to_string_lossy()
                .into_owned();
            run(&[
                s("index"),
                data.clone(),
                s("--encoding"),
                s(encoding),
                s("--backend"),
                s("adaptive"),
                s("--out"),
                idx.clone(),
            ])
            .unwrap();
            run(&[
                s("query"),
                data.clone(),
                text.clone(),
                s("--index"),
                idx,
                s("--count"),
                s("--profile"),
            ])
            .unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn profile_flags_render_and_write_parseable_json() {
        let dir = std::env::temp_dir().join(format!("ibis_cli_prof_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("d.ibds").to_string_lossy().into_owned();
        let idx = dir.join("d.bee").to_string_lossy().into_owned();
        let json = dir.join("prof.json").to_string_lossy().into_owned();
        let s = |x: &str| x.to_string();
        run(&[
            s("generate"),
            s("--kind"),
            s("census"),
            s("--rows"),
            s("250"),
            s("--out"),
            data.clone(),
        ])
        .unwrap();
        run(&[
            s("index"),
            data.clone(),
            s("--encoding"),
            s("bee"),
            s("--out"),
            idx.clone(),
        ])
        .unwrap();
        let d = Dataset::load(&data).unwrap();
        let text = format!("{} = 1", d.column(0).name());
        // Span tree + phase table through a saved index, and the JSON file
        // must parse back through the snapshot parser.
        run(&[
            s("query"),
            data.clone(),
            text.clone(),
            s("--index"),
            idx,
            s("--profile"),
            s("--profile-json"),
            json.clone(),
            s("--threads"),
            s("2"),
        ])
        .unwrap();
        let written = std::fs::read_to_string(&json).unwrap();
        let snap = ibis::obs::Snapshot::from_json(&written).unwrap();
        assert!(snap.spans.iter().any(|sp| sp.name == "query"));
        assert!(snap.spans.iter().any(|sp| sp.name == "bitmap.fetch"));
        // --profile with no index profiles the scan baseline.
        run(&[s("query"), data.clone(), text, s("--profile")]).unwrap();
        // And the race phase table.
        run(&[
            s("race"),
            data,
            s("--queries"),
            s("3"),
            s("--k"),
            s("2"),
            s("--threads"),
            s("2"),
            s("--profile"),
        ])
        .unwrap();
        assert!(!ibis::obs::is_enabled(), "recorder left enabled");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn import_export_roundtrip() {
        let dir = std::env::temp_dir().join(format!("ibis_cli_csv_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv_in = dir.join("in.csv").to_string_lossy().into_owned();
        let ibds = dir.join("d.ibds").to_string_lossy().into_owned();
        let csv_out = dir.join("out.csv").to_string_lossy().into_owned();
        std::fs::write(&csv_in, "age,city\n30,london\nNA,paris\n41,?\n").unwrap();
        let s = |x: &str| x.to_string();
        run(&[s("import"), csv_in, s("--out"), ibds.clone()]).unwrap();
        let d = Dataset::load(&ibds).unwrap();
        assert_eq!(d.n_rows(), 3);
        assert_eq!(d.column(0).missing_count(), 1);
        run(&[s("query"), ibds.clone(), s("age between 1 and 2")]).unwrap();
        run(&[s("query"), ibds.clone(), s("city = \"london\"")]).unwrap();
        assert!(run(&[s("query"), ibds.clone(), s("city = \"atlantis\"")]).is_err());
        run(&[s("export"), ibds, s("--out"), csv_out.clone()]).unwrap();
        assert!(std::fs::read_to_string(&csv_out)
            .unwrap()
            .starts_with("age,city"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_cli_cycle() {
        let dir = std::env::temp_dir().join(format!("ibis_cli_durable_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("d.ibds").to_string_lossy().into_owned();
        let db_dir = dir.join("db").to_string_lossy().into_owned();
        let db_dir2 = dir.join("db2").to_string_lossy().into_owned();
        let bak = dir.join("d.ibbk").to_string_lossy().into_owned();
        let s = |x: &str| x.to_string();
        run(&[
            s("generate"),
            s("--kind"),
            s("census"),
            s("--rows"),
            s("200"),
            s("--out"),
            data.clone(),
        ])
        .unwrap();
        run(&[
            s("init"),
            db_dir.clone(),
            s("--from"),
            data.clone(),
            s("--shard-rows"),
            s("64"),
        ])
        .unwrap();
        // Initializing over an existing database is refused.
        assert!(run(&[s("init"), db_dir.clone(), s("--from"), data.clone()]).is_err());
        let d = Dataset::load(&data).unwrap();
        let text = format!("{} = 1", d.column(0).name());
        run(&[
            s("query"),
            s("--data-dir"),
            db_dir.clone(),
            text.clone(),
            s("--count"),
            s("--threads"),
            s("2"),
        ])
        .unwrap();
        assert!(
            run(&[
                s("query"),
                s("--data-dir"),
                db_dir.clone(),
                text.clone(),
                s("--shard-rows"),
                s("8"),
            ])
            .is_err(),
            "--data-dir excludes --shard-rows"
        );
        run(&[s("validate"), db_dir.clone()]).unwrap();
        run(&[s("checkpoint"), db_dir.clone()]).unwrap();
        run(&[s("backup"), db_dir.clone(), s("--out"), bak.clone()]).unwrap();
        run(&[s("restore"), bak.clone(), s("--into"), db_dir2.clone()]).unwrap();
        run(&[
            s("query"),
            s("--data-dir"),
            db_dir2.clone(),
            text,
            s("--not-match"),
            s("--profile"),
        ])
        .unwrap();
        // Restoring over the now-populated directory is refused.
        assert!(run(&[s("restore"), bak, s("--into"), db_dir2]).is_err());
        assert!(run(&[s("validate"), s("/no/such/dir")]).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stress_subcommand_runs_a_small_schedule() {
        let s = |x: &str| x.to_string();
        run(&[
            s("stress"),
            s("--seed"),
            s("3"),
            s("--rows"),
            s("40"),
            s("--readers"),
            s("2"),
            s("--mutations"),
            s("120"),
            s("--threads"),
            s("1,2"),
        ])
        .unwrap();
        // Durable backend with interleaved checkpoints, and the
        // writer-off mode (readers race each other over watermark 0).
        run(&[
            s("stress"),
            s("--rows"),
            s("40"),
            s("--readers"),
            s("2"),
            s("--mutations"),
            s("80"),
            s("--durable"),
            s("--checkpoint-every"),
            s("32"),
            s("--threads"),
            s("1,2"),
        ])
        .unwrap();
        run(&[
            s("stress"),
            s("--rows"),
            s("30"),
            s("--readers"),
            s("2"),
            s("--no-writer"),
            s("--threads"),
            s("1"),
        ])
        .unwrap();
        assert!(
            run(&[s("stress"), s("--readers"), s("0")]).is_err(),
            "zero readers rejected"
        );
        assert!(
            run(&[s("stress"), s("--threads"), s("0")]).is_err(),
            "zero thread degree rejected"
        );
    }

    #[test]
    fn race_live_serves_under_a_streaming_writer() {
        let dir = std::env::temp_dir().join(format!("ibis_cli_live_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("d.ibds").to_string_lossy().into_owned();
        let s = |x: &str| x.to_string();
        run(&[
            s("generate"),
            s("--kind"),
            s("census"),
            s("--rows"),
            s("200"),
            s("--out"),
            data.clone(),
        ])
        .unwrap();
        run(&[
            s("race"),
            data,
            s("--live"),
            s("400"),
            s("--shard-rows"),
            s("64"),
            s("--queries"),
            s("4"),
            s("--k"),
            s("2"),
            s("--threads"),
            s("2"),
        ])
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_subcommand_runs_a_small_schedule() {
        let s = |x: &str| x.to_string();
        run(&[
            s("crash"),
            s("--seed"),
            s("11"),
            s("--rows"),
            s("40"),
            s("--kill-points"),
            s("4"),
            s("--bit-flips"),
            s("2"),
            s("--threads"),
            s("1,2"),
        ])
        .unwrap();
        assert!(
            run(&[s("crash"), s("--threads"), s("0")]).is_err(),
            "zero thread degree rejected"
        );
    }

    #[test]
    fn query_errors_are_reported() {
        let dir = std::env::temp_dir().join(format!("ibis_cli_err_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("d.ibds").to_string_lossy().into_owned();
        let s = |x: &str| x.to_string();
        run(&[
            s("generate"),
            s("--kind"),
            s("synthetic"),
            s("--rows"),
            s("50"),
            s("--out"),
            data.clone(),
        ])
        .unwrap();
        assert!(run(&[s("query"), data.clone(), s("nonexistent_attr = 1")]).is_err());
        assert!(run(&[s("query"), s("/no/such/file.ibds"), s("a = 1")]).is_err());
        assert!(run(&[
            s("index"),
            data,
            s("--encoding"),
            s("zzz"),
            s("--out"),
            s("/tmp/x")
        ])
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
