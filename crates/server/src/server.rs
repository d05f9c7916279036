//! The serving loop: accept → handshake → decode → admit → batch →
//! execute on a snapshot → respond.
//!
//! Threading model (one [`Server::start`] call):
//!
//! * **accept thread** — polls a non-blocking listener, spawning one
//!   reader thread per connection;
//! * **per-connection reader** — validates the handshake, then decodes
//!   frames. A `Ping` or a protocol rejection is answered immediately;
//!   a `Query` passes **admission control**: if the shared work queue is
//!   at its high-water mark the request is refused with
//!   [`ErrorCode::Overloaded`] right here — load is shed at the door, so
//!   queueing latency for admitted work stays bounded instead of
//!   collapsing;
//! * **per-connection writer** — drains a channel of responses, so
//!   workers and the reader never block on a slow client socket, and
//!   builds the connection's `STATS` replies;
//! * **fixed worker pool** (`config.workers` threads) — each wake drains
//!   up to `config.max_batch` queued jobs, groups the compatible ones
//!   with [`ibis_core::coalesce_compatible`], acquires **one** lock-free
//!   [`ConcurrentDb::snapshot`] per drain, and runs each group through
//!   [`DbSnapshot::execute_batch_threads`](ibis_storage::DbSnapshot::execute_batch_threads)
//!   — one dispatch amortized over the whole batch.
//!
//! Only sampled requests (`trace_sample`) record spans: they run under a
//! `server.request` root span whose tree is drained into the slow-query log
//! as they finish. Every other request runs inside
//! [`ibis_obs::untraced`] — on its worker and on any pool worker it fans
//! out to — so the span log never holds more than the sampled requests in
//! flight. Counters, histograms and windows record for every request.
//!
//! `server.request_us` is the whole request as the server sees it: from
//! the moment the reader has the request's frame to the moment the
//! connection's writer has flushed the response, so the reader → worker
//! and worker → writer hops and the send are in it. The writer records it
//! and also builds `STATS` replies, in order, so a `STATS` sent after a
//! response arrived always counts that response. The slow-query log's
//! `total_us` stays queue wait plus execution, which its phases add up to.
//!
//! Deadlines are enforced at the two scheduling boundaries: a job whose
//! deadline expired while queued is shed *before* execution, and a job
//! whose deadline expired *during* execution gets
//! [`ErrorCode::DeadlineExceeded`] instead of rows — an expired request
//! never returns results, and the overrun is bounded by one batch
//! execution. The default deadline is fed from the oracle's
//! `case_budget_ms` (see [`ServerConfig::default`]).

use crate::protocol::{
    read_frame, read_handshake, write_frame, write_handshake, ErrorCode, HealthReport, Request,
    Response, SlowPhase, SlowQuery, StatsReport,
};
use ibis_core::{coalesce_compatible, RangeQuery, WorkCounters};
use ibis_storage::{ConcurrentDb, DbSnapshot};
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufReader, BufWriter, ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables for one serving instance.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Fixed worker-pool size draining the shared queue.
    pub workers: usize,
    /// Most queries one worker wake may drain and coalesce into batches.
    /// `1` disables coalescing (one query per dispatch).
    pub max_batch: usize,
    /// Admission high-water mark: a query arriving while the queue holds
    /// this many jobs is refused with [`ErrorCode::Overloaded`].
    pub queue_high_water: usize,
    /// Deadline applied to requests that carry `deadline_ms = 0`.
    pub default_deadline_ms: u64,
    /// Request tracing sample rate: every `trace_sample`-th admitted query
    /// executes solo under a `server.request` root span whose tree feeds
    /// the slow-query log. `0` disables tracing entirely; `1` traces every
    /// query (and therefore disables batching).
    pub trace_sample: u64,
    /// Capacity of the slow-query log: the N worst traced requests by
    /// total (queue + execute) latency are retained.
    pub slow_log_size: usize,
}

impl Default for ServerConfig {
    /// Defaults: 4 workers, batches of 8, a 256-deep queue, the oracle's
    /// per-case time budget as the request deadline, 1-in-8 request
    /// tracing, and a 16-entry slow-query log.
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 4,
            max_batch: 8,
            queue_high_water: 256,
            default_deadline_ms: ibis_oracle::OracleConfig::default().case_budget_ms,
            trace_sample: 8,
            slow_log_size: 16,
        }
    }
}

/// What a connection's writer sends, in the order it was handed over.
enum Reply {
    /// A response to `request_id`. Executed queries carry the stamp of the
    /// moment their frame was read; the writer records `server.request_us`
    /// from it once the response is flushed.
    Response(u64, Response, Option<ibis_obs::Stamp>),
    /// A `STATS` request. The writer builds the report when it reaches it,
    /// so the report counts every response flushed before it on this
    /// connection, `request_us` included.
    Stats { request_id: u64, include_slow: bool },
}

/// One admitted query waiting for a worker.
struct Job {
    request_id: u64,
    query: RangeQuery,
    count_only: bool,
    deadline: Instant,
    /// When the reader had the request's frame.
    received: ibis_obs::Stamp,
    enqueued: Instant,
    /// Sampled for tracing: executes solo under a `server.request` root
    /// span and feeds the slow-query log.
    traced: bool,
    reply: mpsc::Sender<Reply>,
}

impl Job {
    /// Hands an executed query's response to the connection's writer.
    fn respond(&self, response: Response) {
        ibis_obs::counter_add("server.responses", 1);
        ibis_obs::window_counter_add("server.responses", 1);
        let _ = self.reply.send(Reply::Response(
            self.request_id,
            response,
            Some(self.received),
        ));
    }
}

/// State shared by the accept loop, readers, and the worker pool.
struct Shared {
    db: Arc<ConcurrentDb>,
    config: ServerConfig,
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
    /// When the server started (feeds `uptime_ms` in reports).
    started: Instant,
    /// Workers currently executing a drained job set.
    busy: AtomicUsize,
    /// Admitted-query sequence number, drives trace sampling.
    admitted_seq: AtomicU64,
    /// The N worst traced requests, sorted worst-first.
    slow_log: Mutex<Vec<SlowQuery>>,
}

/// The serving entry point; see the module docs for the thread layout.
pub struct Server;

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving
    /// `db`. Returns a handle owning every spawned thread; dropping it
    /// shuts the server down.
    pub fn start(
        db: Arc<ConcurrentDb>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        // The telemetry plane (windowed metrics, latency histograms, span
        // tracing) runs on the process-global obs recorder. Turn it on if
        // the embedding process has not already — but never reset a
        // recording someone else (a load generator, a profiler) installed.
        if !ibis_obs::is_enabled() {
            ibis_obs::Recorder::enabled().install();
        }
        let shared = Arc::new(Shared {
            db,
            config: ServerConfig {
                workers: config.workers.max(1),
                max_batch: config.max_batch.max(1),
                queue_high_water: config.queue_high_water.max(1),
                ..config
            },
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            busy: AtomicUsize::new(0),
            admitted_seq: AtomicU64::new(0),
            slow_log: Mutex::new(Vec::new()),
        });
        let conns: Arc<Mutex<Vec<Option<TcpStream>>>> = Arc::new(Mutex::new(Vec::new()));

        let workers = (0..shared.config.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();

        let accept = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || accept_loop(listener, &shared, &conns))
        };

        Ok(ServerHandle {
            addr: local_addr,
            shared,
            conns,
            accept: Some(accept),
            workers,
        })
    }
}

/// Owns a running server; [`addr`](ServerHandle::addr) is where clients
/// connect. Dropping the handle stops the accept loop, severs every open
/// connection, and joins the worker pool.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    conns: Arc<Mutex<Vec<Option<TcpStream>>>>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the ephemeral port chosen).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops serving: new connections are refused, open sockets are torn
    /// down (in-flight requests may go unanswered), queued-but-unstarted
    /// jobs are dropped, and every server thread is joined.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.available.notify_all();
        // Severing the sockets unblocks reader threads parked in
        // `read_frame`; their writer threads follow when the senders drop.
        for s in self.conns.lock().expect("conn registry").iter().flatten() {
            let _ = s.shutdown(Shutdown::Both);
        }
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Unstarted jobs still hold reply senders; dropping them lets the
        // per-connection writer threads drain and exit.
        self.shared.queue.lock().expect("queue").clear();
    }
}

/// Polls the non-blocking listener, spawning a reader per connection.
fn accept_loop(
    listener: TcpListener,
    shared: &Arc<Shared>,
    conns: &Arc<Mutex<Vec<Option<TcpStream>>>>,
) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                ibis_obs::counter_add("server.connections", 1);
                // Register a clone so shutdown can sever the socket; the
                // slot is cleared when the connection ends, and the socket
                // is explicitly shut down there too (a registered clone
                // would otherwise hold it half-open).
                let slot = {
                    let mut reg = conns.lock().expect("conn registry");
                    reg.push(stream.try_clone().ok());
                    reg.len() - 1
                };
                let shared = Arc::clone(shared);
                let conns = Arc::clone(conns);
                std::thread::spawn(move || {
                    serve_connection(&shared, stream);
                    conns.lock().expect("conn registry")[slot] = None;
                });
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
}

/// Handshake, then the read → admit / answer loop for one connection.
fn serve_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    stream.set_nodelay(true).ok();
    let Ok(read_side) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_side);
    // A peer that cannot even present the magic gets dropped silently —
    // there is no frame alignment to answer within.
    if read_handshake(&mut reader).is_err() {
        return;
    }
    if write_handshake(&mut stream).is_err() {
        return;
    }
    let (reply_tx, reply_rx) = mpsc::channel::<Reply>();
    let writer = {
        let shared = Arc::clone(shared);
        std::thread::spawn(move || {
            let mut w = BufWriter::new(stream);
            while let Ok(reply) = reply_rx.recv() {
                let (id, resp, received) = match reply {
                    Reply::Response(id, resp, received) => (id, resp, received),
                    Reply::Stats {
                        request_id,
                        include_slow,
                    } => {
                        ibis_obs::counter_add("server.stats_requests", 1);
                        let report = build_stats(&shared, include_slow);
                        (request_id, Response::Stats(Box::new(report)), None)
                    }
                };
                let (kind, body) = resp.encode();
                if write_frame(&mut w, id, kind, &body)
                    .and_then(|_| w.flush())
                    .is_err()
                {
                    break;
                }
                if let Some(received) = received {
                    received.observe_elapsed_us("server.request_us");
                }
            }
        })
    };

    while !shared.shutdown.load(Ordering::SeqCst) {
        match read_frame(&mut reader) {
            Ok(frame) => {
                let received = ibis_obs::Stamp::now();
                let request_id = frame.request_id;
                match Request::decode(&frame) {
                    Ok(Request::Ping) => {
                        let _ = reply_tx.send(Reply::Response(request_id, Response::Pong, None));
                    }
                    // STATS and HEALTH are never enqueued: telemetry must
                    // stay observable while the worker pool is saturated.
                    // HEALTH is answered right here; STATS is built by this
                    // connection's writer, behind the responses it has
                    // already been handed.
                    Ok(Request::Stats { include_slow }) => {
                        let _ = reply_tx.send(Reply::Stats {
                            request_id,
                            include_slow,
                        });
                    }
                    Ok(Request::Health) => {
                        let _ = reply_tx.send(Reply::Response(
                            request_id,
                            Response::Health(build_health(shared)),
                            None,
                        ));
                    }
                    Ok(Request::Query {
                        query,
                        count_only,
                        deadline_ms,
                    }) => {
                        admit(
                            shared,
                            request_id,
                            received,
                            query,
                            count_only,
                            deadline_ms,
                            &reply_tx,
                        );
                    }
                    Err(reason) => {
                        ibis_obs::counter_add("server.bad_requests", 1);
                        let _ = reply_tx.send(Reply::Response(
                            request_id,
                            Response::Error {
                                code: ErrorCode::BadRequest,
                                message: reason,
                            },
                            None,
                        ));
                    }
                }
            }
            Err(e) => {
                // Frame-level damage: the stream is no longer aligned.
                // Report it once (best effort) and drop the connection;
                // a clean client close (EOF) is not reported.
                if e.kind() == ErrorKind::InvalidData {
                    ibis_obs::counter_add("server.protocol_errors", 1);
                    let _ = reply_tx.send(Reply::Response(
                        0,
                        Response::Error {
                            code: ErrorCode::BadRequest,
                            message: format!("protocol error: {e}"),
                        },
                        None,
                    ));
                }
                break;
            }
        }
    }
    drop(reply_tx);
    let _ = writer.join();
    // Sever the socket itself: the shutdown registry still holds a clone,
    // and without this the peer would never see EOF.
    let _ = reader.get_ref().shutdown(Shutdown::Both);
}

/// Admission control: refuse with `Overloaded` at the high-water mark,
/// otherwise enqueue for the worker pool.
fn admit(
    shared: &Shared,
    request_id: u64,
    received: ibis_obs::Stamp,
    query: RangeQuery,
    count_only: bool,
    deadline_ms: u32,
    reply: &mpsc::Sender<Reply>,
) {
    ibis_obs::counter_add("server.requests", 1);
    // Schema validation happens at the door, not in the worker: a query
    // naming an out-of-range attribute must get its own `BadRequest`, not
    // poison a batch it later shares with well-formed queries.
    if let Err(e) = query.validate(shared.db.snapshot().db().schema()) {
        ibis_obs::counter_add("server.bad_requests", 1);
        let _ = reply.send(Reply::Response(
            request_id,
            Response::Error {
                code: ErrorCode::BadRequest,
                message: format!("invalid search key: {e}"),
            },
            None,
        ));
        return;
    }
    let budget = if deadline_ms == 0 {
        shared.config.default_deadline_ms
    } else {
        deadline_ms as u64
    };
    let now = Instant::now();
    let job = Job {
        request_id,
        query,
        count_only,
        deadline: now + Duration::from_millis(budget),
        received,
        enqueued: now,
        traced: false,
        reply: reply.clone(),
    };
    let mut q = shared.queue.lock().expect("work queue");
    if q.len() >= shared.config.queue_high_water {
        drop(q);
        ibis_obs::counter_add("server.shed_overload", 1);
        ibis_obs::window_counter_add("server.shed", 1);
        let _ = reply.send(Reply::Response(
            request_id,
            Response::Error {
                code: ErrorCode::Overloaded,
                message: format!(
                    "queue at high-water mark ({}); retry later",
                    shared.config.queue_high_water
                ),
            },
            None,
        ));
        return;
    }
    // Admission granted: count it, and sample for tracing. The sequence
    // number only advances for admitted queries so a burst of shed load
    // cannot starve the tracer.
    let seq = shared.admitted_seq.fetch_add(1, Ordering::Relaxed);
    let mut job = job;
    job.traced = shared.config.trace_sample > 0 && seq.is_multiple_of(shared.config.trace_sample);
    ibis_obs::counter_add("server.admitted", 1);
    ibis_obs::window_counter_add("server.admitted", 1);
    q.push_back(job);
    ibis_obs::gauge_set("server.queue_depth", q.len() as f64);
    drop(q);
    shared.available.notify_one();
}

/// One worker: drain up to `max_batch` jobs per wake, coalesce, execute
/// each group on one snapshot, respond.
fn worker_loop(shared: &Shared) {
    loop {
        let jobs: Vec<Job> = {
            let mut q = shared.queue.lock().expect("work queue");
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if !q.is_empty() {
                    break;
                }
                let (guard, _) = shared
                    .available
                    .wait_timeout(q, Duration::from_millis(50))
                    .expect("work queue");
                q = guard;
            }
            let take = q.len().min(shared.config.max_batch);
            let drained = q.drain(..take).collect();
            ibis_obs::gauge_set("server.queue_depth", q.len() as f64);
            drained
        };
        let busy = shared.busy.fetch_add(1, Ordering::SeqCst) + 1;
        ibis_obs::gauge_set("server.workers_busy", busy as f64);
        execute_jobs(shared, jobs);
        let busy = shared.busy.fetch_sub(1, Ordering::SeqCst) - 1;
        ibis_obs::gauge_set("server.workers_busy", busy as f64);
    }
}

/// Deadline-checks, batches, executes, and answers one drained job set.
/// Jobs sampled for tracing execute solo under a `server.request` root
/// span (see [`execute_traced`]); the rest take the batch path.
fn execute_jobs(shared: &Shared, jobs: Vec<Job>) {
    let now = Instant::now();
    let (live, expired): (Vec<Job>, Vec<Job>) = jobs.into_iter().partition(|j| j.deadline > now);
    for j in expired {
        ibis_obs::counter_add("server.shed_deadline", 1);
        ibis_obs::window_counter_add("server.expired", 1);
        let _ = j.reply.send(Reply::Response(
            j.request_id,
            Response::Error {
                code: ErrorCode::DeadlineExceeded,
                message: "deadline expired while queued".into(),
            },
            None,
        ));
    }
    if live.is_empty() {
        return;
    }
    // One lock-free snapshot serves the whole drain: every query in every
    // batch below answers at the same watermark.
    let snap = shared.db.snapshot();
    for j in &live {
        let name = match j.query.policy() {
            ibis_core::MissingPolicy::IsMatch => "server.policy_is_match",
            ibis_core::MissingPolicy::IsNotMatch => "server.policy_is_not_match",
        };
        ibis_obs::counter_add(name, 1);
        ibis_obs::window_counter_add(name, 1);
    }
    let (traced, live): (Vec<Job>, Vec<Job>) = live.into_iter().partition(|j| j.traced);
    for j in traced {
        execute_traced(shared, &snap, j);
    }
    if !live.is_empty() {
        ibis_obs::untraced(|| execute_batched(shared, &snap, &live));
    }
}

/// Coalesces the unsampled jobs of one drain into batches and executes
/// each batch in one dispatch. Runs inside [`ibis_obs::untraced`]: these
/// requests record metrics but no spans.
fn execute_batched(shared: &Shared, snap: &DbSnapshot, live: &[Job]) {
    let queries: Vec<RangeQuery> = live.iter().map(|j| j.query.clone()).collect();
    for batch in coalesce_compatible(&queries, shared.config.max_batch) {
        let batch_queries: Vec<RangeQuery> = batch.iter().map(|&i| queries[i].clone()).collect();
        let started = Instant::now();
        // Degree 1 runs inline on this worker: the pool is the
        // parallelism; fanning out again would oversubscribe it.
        let result = snap.execute_batch_threads(&batch_queries, 1);
        let done = Instant::now();
        ibis_obs::counter_add("server.batches", 1);
        ibis_obs::counter_add("server.batched_queries", batch.len() as u64);
        let exec_us = done.duration_since(started).as_micros() as u64;
        ibis_obs::observe("server.exec_us", exec_us);
        ibis_obs::window_observe("server.exec_us", exec_us);
        match result {
            Ok(rowsets) => {
                for (&idx, rows) in batch.iter().zip(rowsets) {
                    let j = &live[idx];
                    let resp = if done > j.deadline {
                        ibis_obs::counter_add("server.shed_deadline", 1);
                        ibis_obs::window_counter_add("server.expired", 1);
                        Response::Error {
                            code: ErrorCode::DeadlineExceeded,
                            message: "deadline expired during execution".into(),
                        }
                    } else if j.count_only {
                        Response::Count {
                            watermark: snap.watermark(),
                            count: rows.len() as u64,
                        }
                    } else {
                        Response::Rows {
                            watermark: snap.watermark(),
                            rows: rows.rows().to_vec(),
                        }
                    };
                    ibis_obs::observe(
                        "server.queue_wait_us",
                        started.duration_since(j.enqueued).as_micros() as u64,
                    );
                    j.respond(resp);
                }
            }
            Err(_) => {
                // Batch execution is all-or-nothing; retry each query
                // alone so only the offender pays for the failure.
                for &idx in &batch {
                    let j = &live[idx];
                    let resp = match snap.execute(&j.query) {
                        Ok(rows) if j.count_only => Response::Count {
                            watermark: snap.watermark(),
                            count: rows.len() as u64,
                        },
                        Ok(rows) => Response::Rows {
                            watermark: snap.watermark(),
                            rows: rows.rows().to_vec(),
                        },
                        Err(e) => {
                            ibis_obs::counter_add("server.internal_errors", 1);
                            Response::Error {
                                code: ErrorCode::Internal,
                                message: format!("execution failed: {e}"),
                            }
                        }
                    };
                    j.respond(resp);
                }
            }
        }
    }
}

/// Execute one traced job solo under a `server.request` root span, then
/// drain exactly that span tree out of the recorder (bounding span memory
/// to in-flight traced requests) and feed the slow-query log.
///
/// Degree 1 keeps the whole execution — and therefore every child span —
/// on this worker thread, so the drained tree is complete. The per-phase
/// counter-field deltas of that tree sum exactly to the execution's final
/// `WorkCounters`: the PR 4 profile invariant, now visible over the wire.
fn execute_traced(shared: &Shared, snap: &Arc<DbSnapshot>, j: Job) {
    let started = Instant::now();
    let mut root = ibis_obs::span("server.request");
    let root_id = root.id();
    root.add_field("request_id", j.request_id);
    let result = snap.execute_with_cost_threads(&j.query, 1);
    drop(root);
    let done = Instant::now();
    let spans = ibis_obs::drain_subtree(root_id);

    let exec_us = done.duration_since(started).as_micros() as u64;
    let queue_us = started.duration_since(j.enqueued).as_micros() as u64;
    ibis_obs::counter_add("server.traced", 1);
    ibis_obs::observe("server.exec_us", exec_us);
    ibis_obs::window_observe("server.exec_us", exec_us);
    ibis_obs::observe("server.queue_wait_us", queue_us);

    let resp = match result {
        Ok((rows, counters)) => {
            note_slow(
                shared,
                SlowQuery {
                    request_id: j.request_id,
                    watermark: snap.watermark(),
                    plan: j.query.to_string(),
                    queue_us,
                    exec_us,
                    total_us: done.duration_since(j.enqueued).as_micros() as u64,
                    counters: counters
                        .fields()
                        .iter()
                        .filter(|&&(_, v)| v > 0)
                        .map(|&(k, v)| (k.to_string(), v as u64))
                        .collect(),
                    phases: phases_from(&spans, root_id),
                },
            );
            if done > j.deadline {
                ibis_obs::counter_add("server.shed_deadline", 1);
                ibis_obs::window_counter_add("server.expired", 1);
                Response::Error {
                    code: ErrorCode::DeadlineExceeded,
                    message: "deadline expired during execution".into(),
                }
            } else if j.count_only {
                Response::Count {
                    watermark: snap.watermark(),
                    count: rows.len() as u64,
                }
            } else {
                Response::Rows {
                    watermark: snap.watermark(),
                    rows: rows.rows().to_vec(),
                }
            }
        }
        Err(e) => {
            ibis_obs::counter_add("server.internal_errors", 1);
            Response::Error {
                code: ErrorCode::Internal,
                message: format!("execution failed: {e}"),
            }
        }
    };
    j.respond(resp);
}

/// Aggregate a drained span tree (minus its root) into per-phase totals.
/// Counter-field deltas are extracted with `WorkCounters::from_fields`, so
/// non-counter span fields (`shards`, `rows`, …) never pollute the sums.
///
/// Aggregation layers re-record counters their children already carried
/// (`db.shard` re-records its access method's span, for example), so a
/// flat sum over-counts. Each span is therefore charged only its *self*
/// delta — its own counter fields minus its direct children's — which puts
/// every counted unit in exactly one phase and makes the per-phase totals
/// sum back to the request's final [`WorkCounters`].
fn phases_from(spans: &[ibis_obs::SpanRecord], root: u64) -> Vec<SlowPhase> {
    let own = |s: &ibis_obs::SpanRecord| {
        WorkCounters::from_fields(s.fields.iter().map(|(k, v)| (k.as_str(), *v)))
    };
    let mut child_sums: BTreeMap<u64, WorkCounters> = BTreeMap::new();
    for s in spans {
        child_sums
            .entry(s.parent)
            .or_insert_with(WorkCounters::zero)
            .merge(own(s));
    }
    let mut by_name: BTreeMap<&str, (u64, u64, WorkCounters)> = BTreeMap::new();
    for s in spans {
        if s.id == root {
            continue;
        }
        let children = child_sums
            .get(&s.id)
            .cloned()
            .unwrap_or_else(WorkCounters::zero);
        let self_delta = WorkCounters::from_fields(
            own(s)
                .fields()
                .iter()
                .zip(children.fields().iter())
                .map(|(&(k, a), &(_, b))| (k, (a.saturating_sub(b)) as u64)),
        );
        let e = by_name
            .entry(s.name.as_str())
            .or_insert_with(|| (0, 0, WorkCounters::zero()));
        e.0 += 1;
        e.1 = e.1.saturating_add(s.elapsed_ns);
        e.2.merge(self_delta);
    }
    let mut phases: Vec<SlowPhase> = by_name
        .into_iter()
        .map(|(name, (spans, total_ns, counters))| SlowPhase {
            name: name.to_string(),
            spans,
            total_ns,
            counters: counters
                .fields()
                .iter()
                .filter(|&&(_, v)| v > 0)
                .map(|&(k, v)| (k.to_string(), v as u64))
                .collect(),
        })
        .collect();
    phases.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));
    phases
}

/// Insert one traced request into the bounded slow-query log, keeping the
/// worst `slow_log_size` entries by total latency, worst-first.
fn note_slow(shared: &Shared, entry: SlowQuery) {
    let mut log = shared.slow_log.lock().expect("slow log");
    if log.len() >= shared.config.slow_log_size.max(1)
        && entry.total_us <= log.last().map_or(0, |e| e.total_us)
    {
        return;
    }
    log.push(entry);
    log.sort_by_key(|e| std::cmp::Reverse(e.total_us));
    log.truncate(shared.config.slow_log_size.max(1));
}

/// Assemble a [`StatsReport`]: headline gauges read from the serving
/// structures (correct even if the obs recorder is cold), the metric
/// registry as canonical JSON, and optionally the slow-query log.
fn build_stats(shared: &Shared, include_slow: bool) -> StatsReport {
    let queue_depth = shared.queue.lock().expect("work queue").len() as u32;
    StatsReport {
        watermark: shared.db.snapshot().watermark(),
        queue_depth,
        queue_high_water: shared.config.queue_high_water as u32,
        workers: shared.config.workers as u32,
        workers_busy: shared.busy.load(Ordering::SeqCst) as u32,
        uptime_ms: shared.started.elapsed().as_millis() as u64,
        metrics_json: ibis_obs::Registry::export().to_json(),
        slow_queries: if include_slow {
            shared.slow_log.lock().expect("slow log").clone()
        } else {
            Vec::new()
        },
    }
}

/// Assemble a [`HealthReport`]; "healthy" means admission control would
/// accept a query arriving right now.
fn build_health(shared: &Shared) -> HealthReport {
    let queue_depth = shared.queue.lock().expect("work queue").len() as u32;
    HealthReport {
        healthy: !shared.shutdown.load(Ordering::SeqCst)
            && (queue_depth as usize) < shared.config.queue_high_water,
        watermark: shared.db.snapshot().watermark(),
        queue_depth,
        queue_high_water: shared.config.queue_high_water as u32,
        workers: shared.config.workers as u32,
        uptime_ms: shared.started.elapsed().as_millis() as u64,
    }
}
