//! Client-side traffic over IBQP: an open-loop Poisson sender, a
//! closed loop with a fixed window of outstanding requests, and a paced
//! request/response reader. Every request is timed from when it was due
//! and its answer is kept as a digest for checking after timing.

use crate::model::Picks;
use crate::stats::digest;
use crate::trace::Tracer;
use ibis_core::RangeQuery;
use ibis_server::{Client, ErrorCode, Request, Response};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// What came back for one request.
#[derive(Clone, Debug)]
pub enum Answer {
    Rows {
        watermark: u64,
        digest: u64,
        len: usize,
    },
    Count {
        watermark: u64,
        count: u64,
    },
    Refused {
        code: ErrorCode,
        message: String,
    },
    Unexpected(String),
}

/// One timed request.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub query: usize,
    /// When the schedule wanted it sent (closed loops: when it was sent).
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
    pub answer: Answer,
}

impl Outcome {
    pub fn latency_us(&self) -> f64 {
        self.done.saturating_duration_since(self.due).as_secs_f64() * 1e6
    }

    pub fn lateness_us(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64() * 1e6
    }
}

fn answer_of(resp: Response) -> Answer {
    match resp {
        Response::Rows { watermark, rows } => Answer::Rows {
            watermark,
            digest: digest(&rows),
            len: rows.len(),
        },
        Response::Count { watermark, count } => Answer::Count { watermark, count },
        Response::Error { code, message } => Answer::Refused { code, message },
        other => Answer::Unexpected(format!("{other:?}")),
    }
}

fn request(queries: &[RangeQuery], pick: (usize, bool)) -> Request {
    Request::Query {
        query: queries[pick.0].clone(),
        count_only: pick.1,
        deadline_ms: 0,
    }
}

/// How a pipelined phase decides when to send.
pub enum Pace<'a> {
    /// Open loop: send at these offsets (seconds) from the phase start.
    Schedule(&'a [f64]),
    /// Closed loop: keep `depth` requests outstanding until `requests`
    /// have been sent.
    Window { depth: usize, requests: usize },
}

/// Runs one pipelined phase on a fresh connection with a send thread and
/// a receive thread. `pick(i)` names the query (and whether only a count
/// is wanted) of the `i`-th request.
pub fn pipelined(
    addr: SocketAddr,
    queries: &[RangeQuery],
    pace: Pace<'_>,
    mut pick: impl FnMut(usize) -> (usize, bool) + Send,
    tracer: &Tracer,
) -> io::Result<Vec<Outcome>> {
    let (mut tx, mut rx) = Client::connect(addr)?.into_split();
    // Each sent request hands the receiver one token; the channel closing
    // tells it the sender is done.
    let (token_tx, token_rx) = mpsc::channel::<()>();
    let (credit_tx, credit_rx) = mpsc::channel::<()>();
    let start = Instant::now() + Duration::from_millis(5);
    let (sent, received) = std::thread::scope(|scope| {
        let sender = scope.spawn(move || -> io::Result<Vec<(usize, Instant, Instant)>> {
            let mut log = Vec::new();
            let mut i = 0usize;
            loop {
                let due = match &pace {
                    Pace::Schedule(offsets) => {
                        let Some(&off) = offsets.get(i) else { break };
                        let due = start + Duration::from_secs_f64(off);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        due
                    }
                    Pace::Window { depth, requests } => {
                        if i >= *requests || (i >= *depth && credit_rx.recv().is_err()) {
                            break;
                        }
                        Instant::now()
                    }
                };
                let p = pick(i);
                let req = request(queries, p);
                let sent_at = Instant::now();
                tx.send(&req)?;
                log.push((p.0, due, sent_at));
                if token_tx.send(()).is_err() {
                    break;
                }
                i += 1;
            }
            drop(token_tx);
            Ok(log)
        });
        let receiver = scope.spawn(move || -> io::Result<Vec<(u64, Instant, Answer)>> {
            let mut got = Vec::new();
            for () in token_rx {
                let (id, resp) = rx.recv()?;
                got.push((id, Instant::now(), answer_of(resp)));
                let _ = credit_tx.send(());
            }
            Ok(got)
        });
        (
            sender.join().expect("sender thread panicked"),
            receiver.join().expect("receiver thread panicked"),
        )
    });
    let sent = sent?;
    let mut received = received?;
    // Request ids on a fresh connection run 1, 2, 3, … in send order.
    received.sort_by_key(|r| r.0);
    if received.len() != sent.len()
        || received
            .iter()
            .enumerate()
            .any(|(i, r)| r.0 != i as u64 + 1)
    {
        return Err(io::Error::other("responses do not match the requests sent"));
    }
    let outcomes: Vec<Outcome> = sent
        .into_iter()
        .zip(received)
        .map(|((query, due, sent), (_, done, answer))| Outcome {
            query,
            due,
            sent,
            done,
            answer,
        })
        .collect();
    trace_outcomes(tracer, &outcomes);
    Ok(outcomes)
}

/// Records each request as a `request` root (due → done) with the server
/// round trip (sent → done) as its child; the root's self time is the
/// generator's lateness.
pub fn trace_outcomes(tracer: &Tracer, outcomes: &[Outcome]) {
    if !tracer.enabled() {
        return;
    }
    for (i, o) in outcomes.iter().enumerate() {
        let id = i as u64 + 1;
        let root = tracer.record("request", 0, id, o.due, o.done);
        tracer.record("server.call", root, id, o.sent, o.done);
    }
}

/// One request at a time on one connection, due every `period`, until
/// `stop` is set; a request that could not be sent on time is timed from
/// its due time all the same.
pub fn paced(
    addr: SocketAddr,
    queries: &[RangeQuery],
    period: Duration,
    picks: &mut Picks,
    stop: &AtomicBool,
    tracer: &Tracer,
) -> io::Result<Vec<Outcome>> {
    let mut client = Client::connect(addr)?;
    let start = Instant::now();
    let mut out = Vec::new();
    for i in 0u32.. {
        let due = start + period * i;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let q = picks.next_index();
        let sent = Instant::now();
        let resp = client.call(&request(queries, (q, false)))?;
        out.push(Outcome {
            query: q,
            due,
            sent,
            done: Instant::now(),
            answer: answer_of(resp),
        });
    }
    trace_outcomes(tracer, &out);
    Ok(out)
}
