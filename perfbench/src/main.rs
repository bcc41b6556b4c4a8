//! `perfbench` — the repository benchmark.
//!
//! Serves one workload through the real `tm-server` over loopback to a
//! closed loop of one or two client connections (per workload), checks
//! every round against a sequential oracle, and prints the metrics as one
//! JSON object on the last line of standard output.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it reports the per-layer metrics of a traced run (see
//! `README.md` in this directory).

mod pin;
mod replay;
mod served;
mod stats;
mod trace;
mod workload;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use served::{Round, FAILED_SAMPLE};
use stats::{median, percentile};
use txmod::Engine;
use workload::{sequential_oracle, OracleRun, Plan, Workload};

/// Fewest served rounds a run makes, however long each takes: medians
/// need at least three.
const MIN_ROUNDS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    work_dir: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <order_entry_rpc|adhoc_catalog> \
                     --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]";

fn parse_args() -> Result<Args, String> {
    let mut kv: HashMap<String, String> = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(key.to_owned(), value);
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("--{k} is required"));
    let workload = Workload::parse(get("workload")?)
        .ok_or_else(|| format!("unknown workload {:?}", kv["workload"]))?;
    let num =
        |k: &str| -> Result<u64, String> { get(k)?.parse().map_err(|e| format!("--{k}: {e}")) };
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed: num("seed")?,
        seconds: num("seconds")?.max(1),
        trace,
        work_dir: kv
            .get("work-dir")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("perfbench/target/work")),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    std::fs::create_dir_all(&args.work_dir).expect("work directory is writable");
    println!(
        "# perfbench {} seed {} seconds {} trace {} cores {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        stats::cores()
    );
    let result = if args.trace {
        traced_run(&args)
    } else {
        timed_run(&args)
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(failure) => {
            println!("# oracle failed: {}", failure.reason);
            println!(
                "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
                failure.attempted.max(1),
                failure.failed
            );
            ExitCode::from(1)
        }
    }
}

/// A run the oracle rejected.
struct Failure {
    reason: String,
    attempted: u64,
    failed: u64,
}

/// Per-run state shared by the timed and traced runs.
struct Runner<'a> {
    args: &'a Args,
    plan: Plan,
    oracle: Option<OracleRun>,
    attempted: u64,
    failed: u64,
}

impl Runner<'_> {
    fn wal_dir(&self, name: &str) -> Option<PathBuf> {
        self.args.workload.durable().then(|| {
            self.args
                .work_dir
                .join(format!("{name}-{}", std::process::id()))
        })
    }

    /// Serve one round and check it against the oracle.
    fn round(&mut self, traced: bool) -> Result<Round, Failure> {
        let wal = self.wal_dir("wal");
        let (round, state) =
            served::run_round(self.args.workload, &self.plan, wal.as_deref(), traced);
        let total = round.total();
        self.attempted += total.attempted;
        self.failed += total.failed;
        let checked = self.check(
            &state,
            round.warm_committed + total.committed,
            round.warm_aborted + total.aborted,
            &round.violations,
            &round.failed_at,
            wal.as_deref(),
        );
        if let Some(dir) = &wal {
            let _ = std::fs::remove_dir_all(dir);
        }
        let reason = match (checked, &total.first_error) {
            (Err(e), Some(first)) => format!("{e} (first failed request: {first})"),
            (Err(e), None) => e,
            (Ok(()), _) => return Ok(round),
        };
        Err(Failure {
            reason,
            attempted: self.attempted,
            failed: self.failed,
        })
    }

    /// The oracle: the final state must equal a sequential engine's that
    /// ran the same streams without the requests that failed
    /// (`failed_at`, per connection), satisfy every constraint, show the
    /// same commit and abort counts, and (durable workloads) be exactly
    /// what recovery from the WAL directory rebuilds.
    fn check(
        &mut self,
        state: &tm_relational::Database,
        committed: u64,
        aborted: u64,
        violations: &[String],
        failed_at: &[Vec<usize>],
        wal: Option<&Path>,
    ) -> Result<(), String> {
        // The replay of every request is the same for every round; one
        // with failures left out is made for that round alone.
        let fresh;
        let oracle = if failed_at.iter().all(Vec::is_empty) {
            self.oracle
                .get_or_insert_with(|| sequential_oracle(self.args.workload, &self.plan, &[]))
        } else {
            fresh = sequential_oracle(self.args.workload, &self.plan, failed_at);
            &fresh
        };
        if !state.state_eq(&oracle.state) {
            return Err("final state differs from the sequential replay".into());
        }
        if !violations.is_empty() {
            return Err(format!("check_state reports violations: {violations:?}"));
        }
        if (committed, aborted) != (oracle.committed, oracle.aborted) {
            return Err(format!(
                "served {committed} commits / {aborted} aborts, sequential replay {} / {}",
                oracle.committed, oracle.aborted
            ));
        }
        if let Some(dir) = wal {
            let recovered = Engine::recover(dir).map_err(|e| format!("recovery failed: {e}"))?;
            if !recovered.engine.database().state_eq(state) {
                return Err(
                    "the state recovered from the WAL differs from the served state".into(),
                );
            }
        }
        Ok(())
    }
}

/// Keep serving rounds until `seconds` of timed phase have passed (and at
/// least [`MIN_ROUNDS`] rounds ran).
fn rounds_left(done: usize, timed: Duration, seconds: u64, min: usize) -> bool {
    done < min || timed < Duration::from_secs(seconds)
}

fn timed_run(args: &Args) -> Result<String, Failure> {
    let mut runner = Runner {
        args,
        plan: args.workload.plan(args.seed),
        oracle: None,
        attempted: 0,
        failed: 0,
    };
    let mut rounds = Vec::new();
    let mut timed = Duration::ZERO;
    while rounds_left(rounds.len(), timed, args.seconds, MIN_ROUNDS) {
        let round = runner.round(false)?;
        timed += round.timed;
        rounds.push(round);
    }

    let tps: Vec<f64> = rounds.iter().map(Round::throughput).collect();
    let setup: Vec<f64> = rounds.iter().map(|r| r.setup.as_secs_f64()).collect();
    let latency: Vec<Latency> = rounds.iter().map(Latency::of).collect();
    let p50: Vec<f64> = latency.iter().flat_map(Latency::p50s).collect();
    let p99: Vec<f64> = latency.iter().flat_map(Latency::p99s).collect();
    let answered: u64 = rounds.iter().map(|r| r.total().answered).sum();
    let peak = rounds[0].peak_rss_mib.unwrap_or(0.0);
    let mut detail = String::new();
    for (i, (r, l)) in rounds.iter().zip(&latency).enumerate() {
        let t = r.total();
        let _ = writeln!(
            detail,
            "# round {i}: setup {:.4} s ({} warm-up requests failed), timed {:.4} s, {} tx ({} committed, {} aborted), \
             {:.1} tx/s; {} requests in {} windows: median window p50 {:.3} us, p99 {:.3} us; retries {} client + {} server, \
             unshares {}, fsyncs {}, wal bytes {}; host steal {} ticks; cores of connections {:?}",
            r.setup.as_secs_f64(),
            r.warm_failed,
            r.timed.as_secs_f64(),
            t.txs(),
            t.committed,
            t.aborted,
            r.throughput(),
            l.samples,
            l.windows.len(),
            median(&l.p50s()),
            median(&l.p99s()),
            t.client_retries,
            r.server_retries,
            r.unshares,
            r.fsyncs,
            r.wal_bytes,
            r.steal_ticks,
            r.placement
        );
    }
    let _ = writeln!(
        detail,
        "# {} rounds; attempted {}, answered {}, failed {} (failed_share {}); peak RSS {:.1} MiB",
        rounds.len(),
        runner.attempted,
        answered,
        runner.failed,
        runner.failed as f64 / runner.attempted as f64,
        peak
    );
    print!("{detail}");
    let metrics = [
        ("throughput_tps", median(&tps), "tx/s"),
        ("request_p50_us", median(&p50), "us"),
        ("request_p99_us", median(&p99), "us"),
        ("setup_s", median(&setup), "s"),
        ("peak_rss_mb", peak, "MiB"),
        (
            "answered_share",
            answered as f64 / runner.attempted as f64,
            "ratio",
        ),
    ];
    Ok(result_line(runner.attempted, runner.failed, &metrics))
}

/// A latency sample in ns as µs; a failed request misses every limit.
fn us(ns: u64) -> f64 {
    if ns == FAILED_SAMPLE {
        f64::MAX
    } else {
        ns as f64 / 1_000.0
    }
}

/// Requests per latency window: enough for a p99 with ten samples beyond
/// it.
const WINDOW: usize = 1_000;

/// Exact client-side latency percentiles of one round's timed requests,
/// per window of [`WINDOW`] consecutive completions (the last window
/// takes the remainder). A burst of host noise — the hypervisor stealing
/// a core for a few milliseconds — lands in a few windows, and the run's
/// median over windows does not follow it.
struct Latency {
    samples: usize,
    /// `(p50, p99)` of each window, ns.
    windows: Vec<(u64, u64)>,
}

impl Latency {
    fn of(round: &Round) -> Latency {
        let mut done: Vec<(u64, u64)> = round
            .conns
            .iter()
            .flat_map(|c| c.end_ns.iter().copied().zip(c.rtt_ns.iter().copied()))
            .collect();
        done.sort_unstable();
        let n = (done.len() / WINDOW).max(1);
        let windows = (0..n)
            .map(|w| {
                let end = if w + 1 == n {
                    done.len()
                } else {
                    (w + 1) * WINDOW
                };
                let mut ns: Vec<u64> = done[w * WINDOW..end].iter().map(|&(_, r)| r).collect();
                ns.sort_unstable();
                (percentile(&ns, 0.50), percentile(&ns, 0.99))
            })
            .collect();
        Latency {
            samples: done.len(),
            windows,
        }
    }

    fn p50s(&self) -> Vec<f64> {
        self.windows.iter().map(|&(p50, _)| us(p50)).collect()
    }

    fn p99s(&self) -> Vec<f64> {
        self.windows.iter().map(|&(_, p99)| us(p99)).collect()
    }
}

fn traced_run(args: &Args) -> Result<String, Failure> {
    let mut runner = Runner {
        args,
        plan: args.workload.plan(args.seed),
        oracle: None,
        attempted: 0,
        failed: 0,
    };
    let mut layers: Vec<Vec<(&'static str, f64, &'static str)>> = Vec::new();
    let mut timed = Duration::ZERO;
    let mut last_spans = Vec::new();
    // A traced triple serves two rounds and replays a third, so the
    // traced run times half as long to take about as long as a timed run.
    while rounds_left(layers.len(), timed * 2, args.seconds, 1) {
        let untraced = runner.round(false)?;
        let traced = runner.round(true)?;
        timed += untraced.timed + traced.timed;
        let wal = runner.wal_dir("replay-wal");
        let replay = replay::replay(args.workload, &runner.plan, wal.as_deref());
        if let Some(dir) = &wal {
            let _ = std::fs::remove_dir_all(dir);
        }
        runner
            .check(
                &replay.state,
                replay.committed,
                replay.aborted,
                &[],
                &[],
                None,
            )
            .map_err(|e| Failure {
                reason: format!("replay: {e}"),
                attempted: runner.attempted,
                failed: runner.failed,
            })?;
        let (metrics, spans) = layer_metrics(&untraced, &traced, replay);
        layers.push(metrics);
        last_spans = spans;
    }
    let path = args
        .work_dir
        .join(format!("trace-{}.csv", args.workload.name()));
    match trace::write_csv(&path, &last_spans) {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => println!("# could not write spans to {}: {e}", path.display()),
    }
    let metrics: Vec<(&str, f64, &str)> = layers[0]
        .iter()
        .enumerate()
        .map(|(i, &(name, _, unit))| {
            let values: Vec<f64> = layers.iter().map(|l| l[i].1).collect();
            (name, median(&values), unit)
        })
        .collect();
    for (name, value, unit) in &metrics {
        println!("# {name} = {value} {unit}");
    }
    Ok(result_line(runner.attempted, runner.failed, &metrics))
}

/// Per-layer metrics of one traced triple: the untraced round, the
/// traced round (client spans and counters) and the in-process replay
/// (layer spans and check counts). Also returns the triple's spans.
fn layer_metrics(
    untraced: &Round,
    traced: &Round,
    replay: replay::Replay,
) -> (Vec<(&'static str, f64, &'static str)>, Vec<trace::Span>) {
    let txs_replayed = (replay.committed + replay.aborted) as f64;
    let self_ns = trace::self_times(&replay.spans);
    let per_tx = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / txs_replayed;
    let codec = self_ns.get("server.codec").copied().unwrap_or(0) as f64 / replay.requests as f64;

    // Client parent spans of the traced round's timed requests, and the
    // residual of each: round trip minus the replay's in-process time
    // for the same request id.
    let children = trace::child_time(&replay.spans);
    let root_of: HashMap<u64, u64> = replay
        .spans
        .iter()
        .filter(|s| s.name == "server.request")
        .map(|s| (s.request, s.id))
        .collect();
    let mut spans = replay.spans;
    let mut residual_sum = 0f64;
    let mut residual_n = 0u64;
    for client in traced.conns.iter().flat_map(|c| &c.spans) {
        let inside = root_of
            .get(&client.request)
            .and_then(|root| children.get(root))
            .copied()
            .unwrap_or(0);
        residual_sum += client.duration() as f64 - inside as f64;
        residual_n += 1;
        spans.push(client.clone());
    }

    let t = traced.total();
    let answered = t.txs() as f64;
    let retries = (t.client_retries + traced.server_retries) as f64;
    let committed = t.committed.max(1) as f64;
    let rtt_mean = {
        let ok: Vec<u64> = traced
            .conns
            .iter()
            .flat_map(|c| c.rtt_ns.iter().copied())
            .filter(|&r| r != FAILED_SAMPLE)
            .collect();
        ok.iter().sum::<u64>() as f64 / ok.len().max(1) as f64
    };
    let metrics = vec![
        ("server.codec_ns", codec, "ns"),
        (
            "server.residual_ns",
            residual_sum / residual_n.max(1) as f64,
            "ns",
        ),
        ("modify.prepare_ns", per_tx("modify.prepare"), "ns"),
        (
            "modify.checks_evaluated_per_tx",
            replay.checks_evaluated as f64 / txs_replayed,
            "count",
        ),
        (
            "modify.checks_probed_per_tx",
            replay.checks_probed as f64 / txs_replayed,
            "count",
        ),
        (
            "concurrent.session_open_ns",
            per_tx("concurrent.session_open"),
            "ns",
        ),
        ("concurrent.execute_ns", per_tx("concurrent.execute"), "ns"),
        ("algebra.check_ns", per_tx("algebra.check"), "ns"),
        ("concurrent.commit_ns", per_tx("concurrent.commit"), "ns"),
        ("concurrent.retries_per_tx", retries / answered, "count"),
        (
            "concurrent.useful_ratio",
            answered / (answered + retries),
            "ratio",
        ),
        (
            "relational.unshares_per_tx",
            traced.unshares as f64 / answered,
            "count",
        ),
        (
            "durable.fsyncs_per_commit",
            traced.fsyncs as f64 / committed,
            "count",
        ),
        (
            "durable.wal_bytes_per_commit",
            traced.wal_bytes as f64 / committed,
            "B",
        ),
        ("trace.request_ns", rtt_mean, "ns"),
        (
            "trace.overhead_tps",
            traced.throughput() - untraced.throughput(),
            "tx/s",
        ),
        (
            "failed_share",
            (untraced.total().failed + t.failed) as f64
                / (untraced.total().attempted + t.attempted) as f64,
            "ratio",
        ),
    ];
    (metrics, spans)
}

/// The result object: the last line of standard output.
fn result_line(attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite JSON number (JSON has no infinities or NaN).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        format!("{:?}", f64::MAX)
    }
}
