//! The traced run's in-process replay.
//!
//! The server is opaque to the benchmark, so the traced run replays the
//! round's request stream in-process through the same public calls the
//! server makes — `Request`/`Response` codec, `ConcurrentEngine::session`,
//! `ConcurrentSession::prepare`, `execute_deferred`, `PendingCommit::commit`
//! — on a fresh engine with one session per connection, each on its own
//! thread. Every call is wrapped in a span carrying the wire request's
//! id, so each client round trip of the served traced round can be split
//! into in-process layer costs and a residual (socket, dispatch,
//! wake-ups).

use std::path::Path;
use std::time::Instant;

use tm_algebra::TxOutcome;
use tm_relational::{Database, Value};
use tm_server::{PreparedStmt, Request, Response, TxReport};
use txmod::{ConcurrentEngine, ConcurrentSession, EngineOutcome, StatementId};

use crate::trace::{client_span_id, request_id, Open, Span, SpanLog};
use crate::workload::{parse_tx, ConnPlan, Op, Plan, Workload};

/// Transparent retry budget of a replayed binding (the server's).
const RETRIES: usize = 1000;

/// What the replay recorded.
#[derive(Debug)]
pub struct Replay {
    /// Every span of every thread.
    pub spans: Vec<Span>,
    /// Requests replayed (warm-up included).
    pub requests: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Transactions aborted by an integrity check.
    pub aborted: u64,
    /// Checks evaluated generically, summed over executions.
    pub checks_evaluated: u64,
    /// Checks reduced to point probes, summed over executions.
    pub checks_probed: u64,
    /// The replay engine's final state (checked by the oracle too).
    pub state: Database,
}

#[derive(Debug, Default)]
struct ThreadOut {
    spans: Vec<Span>,
    requests: u64,
    committed: u64,
    aborted: u64,
    checks_evaluated: u64,
    checks_probed: u64,
}

/// Replay `plan` on a fresh engine (durable workloads log to `wal_dir`),
/// with per-check timing on.
pub fn replay(workload: Workload, plan: &Plan, wal_dir: Option<&Path>) -> Replay {
    let mut engine = workload.engine(wal_dir);
    engine.set_check_timing(true);
    let engine = ConcurrentEngine::new(engine);
    let epoch = Instant::now();
    let outs: Vec<ThreadOut> = std::thread::scope(|s| {
        let workers: Vec<_> = plan
            .conns
            .iter()
            .enumerate()
            .map(|(c, conn)| {
                let engine = &engine;
                s.spawn(move || {
                    let _ = crate::pin::pin(0, c);
                    replay_conn(workload, engine, c, conn, epoch)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("replay thread panicked"))
            .collect()
    });
    let state = engine.snapshot();
    let mut r = Replay {
        spans: Vec::new(),
        requests: 0,
        committed: 0,
        aborted: 0,
        checks_evaluated: 0,
        checks_probed: 0,
        state,
    };
    for o in outs {
        r.spans.extend(o.spans);
        r.requests += o.requests;
        r.committed += o.committed;
        r.aborted += o.aborted;
        r.checks_evaluated += o.checks_evaluated;
        r.checks_probed += o.checks_probed;
    }
    r
}

/// One connection's session, opened by its first request.
struct Conn {
    session: ConcurrentSession,
    stmts: Vec<StatementId>,
}

fn replay_conn(
    workload: Workload,
    engine: &ConcurrentEngine,
    c: usize,
    plan: &ConnPlan,
    epoch: Instant,
) -> ThreadOut {
    let mut log = SpanLog::new(c, epoch);
    let mut out = ThreadOut::default();
    let mut conn: Option<Conn> = None;
    let templates = workload.templates();
    // Statement ids equal template indices: the replay prepares the
    // templates in order, as the served round does.
    let stmts: Vec<PreparedStmt> = (0..templates.len() as u32)
        .map(|stmt_id| PreparedStmt {
            stmt_id,
            param_count: 0,
        })
        .collect();
    let mut buf = Vec::new();
    for (seq, op) in plan.warmup.iter().chain(&plan.timed).enumerate() {
        let request = request_id(c, seq);
        out.requests += 1;
        let root = log.open("server.request", client_span_id(request), request);
        let req = codec_request(&mut log, root.id(), request, &op.request(&stmts), &mut buf);
        let response = match req {
            Request::Execute { params, .. } => {
                let template = match op {
                    Op::Execute { template, .. } => *template,
                    _ => unreachable!("op and request agree"),
                };
                let opened = open_session(&mut log, root, &mut conn, engine, &templates);
                let conn = conn.as_mut().expect("session open");
                let o = run(
                    &mut log,
                    root,
                    &mut conn.session,
                    conn.stmts[template],
                    &params,
                    opened,
                );
                out.tally(&o);
                Response::Tx(report(&o))
            }
            Request::AdHoc { tx } => {
                // The server's ad-hoc path: parse, then a throwaway
                // session whose first execution pays the snapshot clone.
                let tx = parse_tx(&tx);
                let open = log.open("concurrent.session_open", root.id(), request);
                let mut session = engine.session();
                let prep = log.open("modify.prepare", open.id(), request);
                let id = session.prepare(&tx).expect("ad-hoc transaction prepares");
                log.close(prep);
                let o = run(&mut log, root, &mut session, id, &[], Some(open));
                out.tally(&o);
                Response::Tx(report(&o))
            }
            other => unreachable!("the workloads send no {other:?}"),
        };
        codec_response(&mut log, root.id(), request, &response, &mut buf);
        log.close(root);
    }
    out.spans = log.spans;
    out
}

impl ThreadOut {
    fn tally(&mut self, o: &EngineOutcome) {
        if o.committed() {
            self.committed += 1;
        } else {
            self.aborted += 1;
        }
        self.checks_evaluated += o.checks.evaluated as u64;
        self.checks_probed += o.checks.probed as u64;
    }
}

/// Encode and decode the request, as client and server would.
fn codec_request(
    log: &mut SpanLog,
    parent: u64,
    request: u64,
    req: &Request,
    buf: &mut Vec<u8>,
) -> Request {
    buf.clear();
    let s = log.open("server.codec", parent, request);
    req.encode(buf);
    log.close(s);
    let s = log.open("server.codec", parent, request);
    let decoded = Request::decode(buf).expect("request round-trips");
    log.close(s);
    decoded
}

/// Encode and decode the response, as server and client would.
fn codec_response(
    log: &mut SpanLog,
    parent: u64,
    request: u64,
    response: &Response,
    buf: &mut Vec<u8>,
) {
    buf.clear();
    let s = log.open("server.codec", parent, request);
    response.encode(buf);
    log.close(s);
    let s = log.open("server.codec", parent, request);
    let decoded = Response::decode(buf).expect("response round-trips");
    log.close(s);
    std::hint::black_box(decoded);
}

/// Open the connection's session on its first request: the
/// `session_open` span covers `ConcurrentEngine::session()`, the template
/// prepares, and (closed by [`run`]) the first execution. Returns the
/// still-open span when this request opened the session.
fn open_session(
    log: &mut SpanLog,
    root: Open,
    conn: &mut Option<Conn>,
    engine: &ConcurrentEngine,
    templates: &[&str],
) -> Option<Open> {
    if conn.is_some() {
        return None;
    }
    let open = log.open("concurrent.session_open", root.id(), root.request());
    let mut session = engine.session();
    let stmts = templates
        .iter()
        .map(|t| {
            let tx = parse_tx(t);
            let s = log.open("modify.prepare", open.id(), root.request());
            let id = session.prepare(&tx).expect("template prepares");
            log.close(s);
            id
        })
        .collect();
    *conn = Some(Conn { session, stmts });
    Some(open)
}

/// Execute one binding as the server does — `execute_deferred`, then
/// `commit`, re-executing on a retryable conflict. The first execution
/// closes `first` (a `session_open` span) instead of opening an
/// `execute` span of its own.
fn run(
    log: &mut SpanLog,
    root: Open,
    session: &mut ConcurrentSession,
    id: StatementId,
    params: &[Value],
    mut first: Option<Open>,
) -> EngineOutcome {
    let request = root.request();
    let mut retries = 0;
    loop {
        let exec = match first.take() {
            Some(open) => open,
            None => log.open("concurrent.execute", root.id(), request),
        };
        let pending = session
            .execute_deferred(id, params)
            .expect("replayed execution runs");
        let exec_end = log.close(exec);
        let commit = log.open("concurrent.commit", root.id(), request);
        let result = pending.commit();
        log.close(commit);
        match result {
            // Only a finished execution reports its check time; an
            // attempt lost to a conflict keeps its checks inside its
            // `execute` span.
            Ok((out, _)) => {
                let check_ns: u64 = out.check_times_ns.iter().sum();
                log.record_len("algebra.check", exec.id(), request, exec_end, check_ns);
                return out;
            }
            Err(e) if e.is_retryable() && retries < RETRIES => retries += 1,
            Err(e) => panic!("replayed commit failed: {e}"),
        }
    }
}

/// The wire report of an outcome (as the server renders it).
fn report(o: &EngineOutcome) -> TxReport {
    TxReport {
        committed: o.committed(),
        reused_plan: o.reused_plan,
        checks_skipped: o.checks.skipped as u32,
        checks_probed: o.checks.probed as u32,
        checks_evaluated: o.checks.evaluated as u32,
        abort: match &o.outcome {
            TxOutcome::Committed(_) => None,
            TxOutcome::Aborted { reason, .. } => Some(reason.to_string()),
        },
    }
}
