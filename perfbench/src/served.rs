//! One served round: start `tm-server` on loopback with a fresh engine,
//! warm up, drive a closed loop of the workload's clients (one per
//! connection of the plan) through the timed phase, and collect what the
//! client saw.
//!
//! Every request is timed at the client with `Instant` (ns). The
//! benchmark never reads the server's latency histogram; from the server
//! it takes only the tenant's `conflict_retries` counter (ad-hoc retries
//! happen inside the server, invisible on the wire) and the final state,
//! for the oracle.

use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use tm_relational::Database;
use tm_server::{
    serve, Client, ErrorCode, PreparedStmt, Request, Response, ServerConfig, TenantRegistry,
    TenantSpec,
};

use crate::pin;
use crate::trace::{self, Span};
use crate::workload::{Op, Plan, Workload};

/// Client-side retry budget for a prepared `Execute` that loses
/// first-committer-wins validation (the server's own budget for ad-hoc
/// retries is the same).
const CLIENT_RETRIES: usize = 1000;

/// Tenant name of the served engine.
const TENANT: &str = "bench";

/// A failed request's latency sample: it misses every latency limit.
pub const FAILED_SAMPLE: u64 = u64::MAX;

/// What one connection saw.
#[derive(Debug, Default)]
pub struct ConnTally {
    /// Requests sent.
    pub attempted: u64,
    /// Requests answered (committed or integrity-aborted).
    pub answered: u64,
    /// Requests that failed: `Busy`, a conflict left after the retry
    /// budget, or a protocol or engine error.
    pub failed: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Transactions aborted by an integrity check (a correct answer).
    pub aborted: u64,
    /// `Execute` conflicts the client retried.
    pub client_retries: u64,
    /// Per-request round trip in ns, in send order
    /// ([`FAILED_SAMPLE`] for a failed request).
    pub rtt_ns: Vec<u64>,
    /// Per-request completion time in ns since the phase began, in send
    /// order.
    pub end_ns: Vec<u64>,
    /// One `client.request` span per answered request (traced rounds).
    pub spans: Vec<Span>,
    /// Positions, in the phase's request order, of the failed requests.
    pub failed_at: Vec<usize>,
    /// First failure seen, for the report.
    pub first_error: Option<String>,
}

impl ConnTally {
    /// The sum of `tallies`' counts (latency samples stay per connection).
    fn sum<'a>(tallies: impl IntoIterator<Item = &'a ConnTally>) -> ConnTally {
        let mut t = ConnTally::default();
        for c in tallies {
            t.attempted += c.attempted;
            t.answered += c.answered;
            t.failed += c.failed;
            t.committed += c.committed;
            t.aborted += c.aborted;
            t.client_retries += c.client_retries;
            if t.first_error.is_none() {
                t.first_error.clone_from(&c.first_error);
            }
        }
        t
    }

    /// Transactions answered (committed or aborted).
    pub fn txs(&self) -> u64 {
        self.committed + self.aborted
    }
}

/// What one served round produced.
#[derive(Debug)]
pub struct Round {
    /// Server start, engine build, catalog and seed load, template
    /// `Prepare`, and warm-up.
    pub setup: Duration,
    /// Wall time of the timed phase.
    pub timed: Duration,
    /// Timed-phase accounting, one entry per connection.
    pub conns: Vec<ConnTally>,
    /// Warm-up commit and abort counts (for the oracle).
    pub warm_committed: u64,
    /// See `warm_committed`.
    pub warm_aborted: u64,
    /// Warm-up requests that failed.
    pub warm_failed: u64,
    /// Per connection, the positions (warm-up first, then timed) of the
    /// requests that failed; the oracle leaves them out.
    pub failed_at: Vec<Vec<usize>>,
    /// Per connection, the core its client thread and the server thread
    /// serving it are pinned to (`None` where pinning failed).
    pub placement: Vec<Option<usize>>,
    /// Conflict retries the server spent inside the timed phase.
    pub server_retries: u64,
    /// Copy-on-write unshares during the timed phase.
    pub unshares: u64,
    /// WAL fsyncs during the timed phase.
    pub fsyncs: u64,
    /// WAL bytes written during the timed phase.
    pub wal_bytes: u64,
    /// Clock ticks stolen by the hypervisor during the timed phase.
    pub steal_ticks: u64,
    /// Peak resident memory (MiB) right after the timed phase.
    pub peak_rss_mib: Option<f64>,
    /// Ground-truth violations of the final state (`check_state`).
    pub violations: Vec<String>,
}

impl Round {
    /// The timed phase's counts over all connections.
    pub fn total(&self) -> ConnTally {
        ConnTally::sum(&self.conns)
    }

    /// Transactions answered per second of the timed phase.
    pub fn throughput(&self) -> f64 {
        self.total().txs() as f64 / self.timed.as_secs_f64()
    }
}

/// Serve one round of `plan`; returns it with the tenant's committed
/// state after the round (for the oracle). With `traced`, the client
/// also records a parent span per timed request.
pub fn run_round(
    workload: Workload,
    plan: &Plan,
    wal_dir: Option<&Path>,
    traced: bool,
) -> (Round, Database) {
    let t0 = Instant::now();
    let registry = Arc::new(TenantRegistry::new());
    let tenant = registry.add(TENANT, workload.engine(wal_dir), TenantSpec::default());
    let handle = serve(registry, "127.0.0.1:0", ServerConfig::default()).expect("loopback bind");
    let addr = handle.addr();
    let mut placement = Vec::new();
    let mut clients: Vec<Client> = (0..plan.conns.len())
        .map(|c| {
            // tm-server serves each connection on a thread of its own,
            // spawned when it accepts; that thread is the one that
            // appeared while the client connected (the handshake waits
            // for its answer), and it shares the connection's core with
            // the client thread. Any other count of new threads means the
            // server's threading changed and the placement would be
            // unknown, so the run stops rather than measure it.
            let before = pin::threads();
            let client = Client::connect(addr, TENANT).expect("connect");
            let new: Vec<i32> = pin::threads().difference(&before).copied().collect();
            assert!(
                new.len() == 1,
                "perfbench: expected exactly one new server thread per connection, \
                 saw {} ({new:?}); tm-server's threading changed, so the benchmark's \
                 thread placement (see pin.rs) must be revised",
                new.len()
            );
            placement.push(pin::pin(new[0], c));
            client
        })
        .collect();
    let stmts: Vec<PreparedStmt> = workload
        .templates()
        .iter()
        .map(|t| clients[0].prepare(t).expect("template prepares"))
        .collect();
    let warm = drive(&mut clients, plan, &stmts, true, false).0;
    let setup = t0.elapsed();

    let retries0 = tenant.metrics.conflict_retries.load(Ordering::Relaxed);
    let unshares0 = tm_relational::unshare_count();
    let fsyncs0 = tm_durable::wal_fsyncs();
    let bytes0 = tm_durable::wal_bytes_written();
    let steal0 = crate::stats::steal_ticks();
    let (conns, timed) = drive(&mut clients, plan, &stmts, false, traced);
    let server_retries = tenant.metrics.conflict_retries.load(Ordering::Relaxed) - retries0;
    let unshares = tm_relational::unshare_count() - unshares0;
    let fsyncs = tm_durable::wal_fsyncs() - fsyncs0;
    let wal_bytes = tm_durable::wal_bytes_written() - bytes0;
    let steal_ticks = crate::stats::steal_ticks().saturating_sub(steal0);
    let peak_rss_mib = crate::stats::peak_rss_mib();

    drop(clients);
    handle.shutdown();
    let state = tenant.engine.snapshot();
    let violations = tenant
        .engine
        .lock()
        .check_state()
        .unwrap_or_else(|e| vec![format!("check_state failed: {e}")]);
    let warm_total = ConnTally::sum(&warm);
    let failed_at = warm
        .iter()
        .zip(&conns)
        .map(|(w, t)| {
            let timed = t.failed_at.iter().map(|&i| w.attempted as usize + i);
            w.failed_at.iter().copied().chain(timed).collect()
        })
        .collect();
    let round = Round {
        setup,
        timed,
        conns,
        warm_committed: warm_total.committed,
        warm_aborted: warm_total.aborted,
        warm_failed: warm_total.failed,
        failed_at,
        placement,
        server_retries,
        unshares,
        fsyncs,
        wal_bytes,
        steal_ticks,
        peak_rss_mib,
        violations,
    };
    (round, state)
}

/// Run one phase (warm-up or timed) of every connection concurrently, a
/// closed loop per connection. Returns each connection's tally and the
/// phase's wall time, measured from a common start.
fn drive(
    clients: &mut [Client],
    plan: &Plan,
    stmts: &[PreparedStmt],
    warmup: bool,
    traced: bool,
) -> (Vec<ConnTally>, Duration) {
    let start = Barrier::new(clients.len() + 1);
    let epoch = Instant::now();
    std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .iter_mut()
            .zip(&plan.conns)
            .enumerate()
            .map(|(c, (client, conn))| {
                let (ops, first) = if warmup {
                    (&conn.warmup, 0)
                } else {
                    (&conn.timed, conn.warmup.len())
                };
                let start = &start;
                let ids = traced.then_some((c, first));
                s.spawn(move || {
                    let _ = pin::pin(0, c);
                    start.wait();
                    closed_loop(client, ops, stmts, epoch, ids)
                })
            })
            .collect();
        start.wait();
        let t0 = Instant::now();
        let tallies: Vec<ConnTally> = workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect();
        (tallies, t0.elapsed())
    })
}

/// Send `ops` one after the other, each after the previous answer. With
/// `ids = Some((connection, first request's sequence number))` every
/// request also gets a `client.request` span.
fn closed_loop(
    client: &mut Client,
    ops: &[Op],
    stmts: &[PreparedStmt],
    epoch: Instant,
    ids: Option<(usize, usize)>,
) -> ConnTally {
    let mut t = ConnTally {
        rtt_ns: Vec::with_capacity(ops.len()),
        end_ns: Vec::with_capacity(ops.len()),
        ..ConnTally::default()
    };
    let mut broken = false;
    for (j, op) in ops.iter().enumerate() {
        t.attempted += 1;
        let req = op.request(stmts);
        let sent = Instant::now();
        let outcome = if broken {
            Err("connection lost earlier".to_owned())
        } else {
            send(client, &req, &mut t.client_retries)
        };
        let done = Instant::now();
        let rtt = done.duration_since(sent).as_nanos() as u64;
        let end_ns = done.duration_since(epoch).as_nanos() as u64;
        t.end_ns.push(end_ns);
        match outcome {
            Ok(committed) => {
                t.answered += 1;
                if committed {
                    t.committed += 1;
                } else {
                    t.aborted += 1;
                }
                t.rtt_ns.push(rtt);
                if let Some((c, first)) = ids {
                    let request = trace::request_id(c, first + j);
                    t.spans.push(Span {
                        id: trace::client_span_id(request),
                        parent: trace::NO_PARENT,
                        request,
                        name: "client.request",
                        start_ns: end_ns - rtt,
                        end_ns,
                    });
                }
            }
            Err(e) => {
                broken |= e.starts_with("protocol");
                t.failed += 1;
                t.failed_at.push(j);
                t.rtt_ns.push(FAILED_SAMPLE);
                t.first_error.get_or_insert(e);
            }
        }
    }
    t
}

/// One request/response exchange; a prepared `Execute` that loses
/// first-committer-wins is re-sent, as a client would. Returns whether
/// the transaction committed (`false`: an integrity abort).
fn send(client: &mut Client, req: &Request, retries: &mut u64) -> Result<bool, String> {
    let mut left = CLIENT_RETRIES;
    loop {
        match client.request(req) {
            Ok(Response::Tx(report)) => return Ok(report.committed),
            Ok(Response::Error {
                code: ErrorCode::Conflict,
                ..
            }) if left > 0 && matches!(req, Request::Execute { .. }) => {
                left -= 1;
                *retries += 1;
            }
            Ok(Response::Busy { limit }) => return Err(format!("busy (limit {limit})")),
            Ok(other) => return Err(format!("unexpected response {other:?}")),
            Err(e) => return Err(format!("protocol: {e}")),
        }
    }
}
