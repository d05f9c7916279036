//! Span memory stays bounded while serving: requests the tracer did not
//! sample leave no spans in the process-global recorder, however far their
//! execution fans out, and sampled requests drain their own tree before
//! they are answered. Metrics still record for every request.
//!
//! The obs recorder is process-global, so the tests here serialize on one
//! lock and install a fresh recorder before they start.

use ibis_core::gen::census_scaled;
use ibis_core::parallel::ExecPool;
use ibis_core::{MissingPolicy, Predicate, RangeQuery};
use ibis_server::{Client, Request, Response, Server, ServerConfig};
use ibis_storage::ConcurrentDb;
use std::sync::{Arc, Mutex, MutexGuard};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// 2,000 census rows in 250-row shards: every query below touches several
/// shards, so each execution would open a dozen spans if it recorded any.
fn sharded_db() -> Arc<ConcurrentDb> {
    Arc::new(ConcurrentDb::new_mem(census_scaled(2000, 905), 250))
}

/// Lower-half ranges over the first eight attributes, both semantics.
fn queries(db: &ConcurrentDb) -> Vec<RangeQuery> {
    let snap = db.snapshot();
    let schema = snap.db().schema();
    (0..8)
        .map(|attr| {
            let policy = if attr % 2 == 0 {
                MissingPolicy::IsMatch
            } else {
                MissingPolicy::IsNotMatch
            };
            let hi = (schema.column(attr).cardinality() / 2).max(1);
            RangeQuery::new(vec![Predicate::range(attr, 1, hi)], policy).unwrap()
        })
        .collect()
}

fn retained_spans() -> usize {
    ibis_obs::snapshot().spans.len()
}

/// Sends `rounds` pipelined bursts of every query and waits for every
/// answer, returning how many were answered.
fn serve_bursts(client: Client, qs: &[RangeQuery], rounds: usize) -> usize {
    let (mut tx, mut rx) = client.into_split();
    let mut answered = 0;
    for _ in 0..rounds {
        for q in qs {
            tx.send(&Request::Query {
                query: q.clone(),
                count_only: false,
                deadline_ms: 120_000,
            })
            .unwrap();
        }
        for _ in qs {
            match rx.recv().unwrap().1 {
                Response::Rows { .. } => answered += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
    }
    answered
}

#[test]
fn untraced_requests_leave_no_spans_in_the_recorder() {
    let _serial = serial();
    ibis_obs::Recorder::enabled().install();
    let db = sharded_db();
    let config = ServerConfig {
        workers: 2,
        trace_sample: 0,
        ..ServerConfig::default()
    };
    let handle = Server::start(Arc::clone(&db), "127.0.0.1:0", config).unwrap();
    let qs = queries(&db);
    let before = retained_spans();
    let answered = serve_bursts(Client::connect(handle.addr()).unwrap(), &qs, 25);
    assert_eq!(answered, 25 * qs.len());
    assert_eq!(
        retained_spans(),
        before,
        "{answered} untraced requests left spans behind"
    );
    // Metrics still cover every request.
    let snap = ibis_obs::snapshot();
    assert_eq!(snap.counters["server.responses"], answered as u64);
    assert_eq!(snap.histograms["server.request_us"].count, answered as u64);
    handle.shutdown();
}

#[test]
fn sampled_requests_drain_their_trees_before_answering() {
    let _serial = serial();
    ibis_obs::Recorder::enabled().install();
    let db = sharded_db();
    let config = ServerConfig {
        workers: 2,
        trace_sample: 3,
        ..ServerConfig::default()
    };
    let handle = Server::start(Arc::clone(&db), "127.0.0.1:0", config).unwrap();
    let qs = queries(&db);
    let answered = serve_bursts(Client::connect(handle.addr()).unwrap(), &qs, 12);
    let snap = ibis_obs::snapshot();
    assert!(
        snap.counters["server.traced"] > 0,
        "some requests were sampled"
    );
    assert_eq!(snap.counters["server.responses"], answered as u64);
    assert_eq!(
        snap.spans.len(),
        0,
        "every answered request drained its spans"
    );
    handle.shutdown();
}

#[test]
fn fan_out_inside_an_untraced_scope_records_nothing() {
    let _serial = serial();
    let db = sharded_db();
    let snap = db.snapshot();
    let q = &queries(&db)[0];
    let expect = snap.execute_threads(q, 1).unwrap();
    ibis_obs::Recorder::enabled().install();
    let fan_out = || {
        // Shards over a degree-4 pool, and a pool call whose workers open
        // spans of their own.
        let rows = snap.execute_threads(q, 4).unwrap();
        let sums = ExecPool::new(4).map((0..16u64).collect(), |x| {
            let _s = ibis_obs::span("test.item");
            x * 2
        });
        (rows, sums)
    };

    let (rows, sums) = ibis_obs::untraced(fan_out);
    assert_eq!(rows, expect);
    assert_eq!(sums, (0..16u64).map(|x| x * 2).collect::<Vec<_>>());
    assert_eq!(retained_spans(), 0, "untraced fan-out recorded spans");

    // The same fan-out outside the scope does record, on the workers too.
    let _ = fan_out();
    let spans = ibis_obs::snapshot().spans;
    assert!(spans.iter().any(|s| s.name == "pool.worker"), "{spans:?}");
    assert!(spans.iter().any(|s| s.name == "test.item"));
    ibis_obs::Recorder::disabled().install();
}
