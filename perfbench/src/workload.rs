//! The workloads: how each builds its engine, which wire requests
//! each connection sends, and the sequential oracle each run is checked
//! against.
//!
//! Every workload runs Static mode. Binding streams come from
//! `tm_bench::scenarios` unchanged (the ad-hoc workload, whose catalog is
//! not a scenario, draws its own seeded stream the same way). Each
//! connection gets its own stream seed, so keys are disjoint between
//! streams and no two transactions of a run touch the same row.

use std::path::Path;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tm_algebra::parser::parse_program;
use tm_algebra::Transaction;
use tm_bench::scenarios;
use tm_relational::{Database, DatabaseSchema, RelationSchema, Tuple, Value, ValueType};
use tm_server::{PreparedStmt, Request};
use txmod::{Durability, DurabilityConfig, EnforcementMode, Engine, EngineConfig};

/// Hot-relation rows of the ad-hoc catalog (as in `prepare_throughput`).
const ADHOC_ACCOUNTS: i64 = 10_000;
/// Owner rows of the ad-hoc catalog; every balance drawn has one.
const ADHOC_OWNERS: i64 = 1_024;
/// Cold relations × rules each, plus hot full-scan constraints.
const ADHOC_COLD_RELATIONS: usize = 95;
const ADHOC_COLD_RULES_EACH: usize = 32;
const ADHOC_HOT_RULES: usize = 8;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Order entry, one `Execute` per transaction, in-memory state.
    OrderEntryRpc,
    /// `AdHoc` inserts against the wide `prepare_throughput` catalog, on
    /// a buffered WAL.
    AdhocCatalog,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 2] = [Workload::OrderEntryRpc, Workload::AdhocCatalog];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OrderEntryRpc => "order_entry_rpc",
            Workload::AdhocCatalog => "adhoc_catalog",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Client connections per round: never more than the 2 cores the
    /// benchmark was calibrated on. `AdhocCatalog` uses one. With two,
    /// its requests took ~1 ms, long enough that host stalls reached its
    /// p99: a stall delays the request on the stalled core and, whenever
    /// the stalled thread holds the commit applier, the other
    /// connection's too. Two connections also made every request wait on
    /// the other's relation-level conflicts (0.42 retries per
    /// transaction).
    /// On the calibration host, a competing CPU load that took 8% of each
    /// core moved its p99 by 1.78x with two connections and by 1.28x with
    /// one.
    pub fn connections(self) -> usize {
        match self {
            Workload::OrderEntryRpc => 2,
            Workload::AdhocCatalog => 1,
        }
    }

    /// Whether the engine logs to a WAL.
    pub fn durable(self) -> bool {
        self == Workload::AdhocCatalog
    }

    /// `(warm-up, timed)` transactions per connection and round. Fixed,
    /// so every round ends on the same relation sizes; sized so one timed
    /// phase lasts about 1.5 s (order entry) to 3 s (ad hoc) on the
    /// calibration machine, with at least 1,000 requests per round for a
    /// p99 with ten samples beyond it.
    fn shape(self) -> (usize, usize) {
        match self {
            Workload::OrderEntryRpc => (2_000, 60_000),
            Workload::AdhocCatalog => (50, 7_000),
        }
    }

    /// Build the engine a round serves (or the oracle replays): schema,
    /// catalog and seed data. The durable workload, `AdhocCatalog`, also
    /// attaches its WAL directory with `Durability::Buffered` (frames
    /// encoded and appended at every commit, written to the OS per 64 KiB,
    /// no fsync, no automatic checkpoint): the WAL path without the shared
    /// disk's fsync latency, and at about one write per thousand ~0.4 ms
    /// requests, too rare for a slow write to reach the p99.
    pub fn engine(self, wal_dir: Option<&Path>) -> Engine {
        let mut engine = match self {
            Workload::OrderEntryRpc => scenarios::order_entry().engine(EnforcementMode::Static),
            Workload::AdhocCatalog => {
                let mut e = adhoc_catalog();
                e.config_mut().durability = DurabilityConfig {
                    level: Durability::Buffered,
                    ..DurabilityConfig::default()
                };
                e
            }
        };
        if let Some(dir) = wal_dir {
            engine.make_durable(dir).expect("WAL directory is writable");
        }
        engine
    }

    /// Templates prepared over the wire at setup (none for ad-hoc).
    pub fn templates(self) -> Vec<&'static str> {
        match self {
            Workload::OrderEntryRpc => scenarios::order_entry().templates,
            Workload::AdhocCatalog => Vec::new(),
        }
    }

    /// The requests every connection sends in one round.
    pub fn plan(self, seed: u64) -> Plan {
        let (warm, timed) = self.shape();
        let conns = (0..self.connections())
            .map(|c| {
                let mut warmup = self.ops(seed, c, warm + timed);
                let timed = warmup.split_off(warm);
                ConnPlan { warmup, timed }
            })
            .collect();
        Plan { conns }
    }

    /// Connection `c`'s request stream of `n` transactions.
    fn ops(self, seed: u64, c: usize, n: usize) -> Vec<Op> {
        match self {
            Workload::OrderEntryRpc => scenarios::order_entry()
                .bindings(stream_seed(seed, c), n)
                .into_iter()
                .map(|(template, params)| Op::Execute { template, params })
                .collect(),
            Workload::AdhocCatalog => {
                let s = stream_seed(seed, c);
                let mut rng = StdRng::seed_from_u64(s ^ 0xad0c);
                // Keys above the seeded accounts, partitioned by stream.
                let base = (s as i64) << 32;
                (0..n as i64)
                    .map(|i| Op::AdHoc {
                        text: format!(
                            "insert(account, {{({}, {})}})",
                            base + i,
                            rng.gen_range(0..ADHOC_OWNERS)
                        ),
                    })
                    .collect()
            }
        }
    }
}

/// Stream seed of stream `k` of a run seeded `seed`: distinct per stream
/// (so key ranges are disjoint) and small enough that the scenarios'
/// `seed << 40` key partition stays positive.
fn stream_seed(seed: u64, k: usize) -> u64 {
    1 + (seed % 1_000_000) * 4 + k as u64
}

/// The wide ad-hoc catalog of `prepare_throughput`: one hot relation
/// (`account`, 10k rows) guarded by full-scan domain constraints and one
/// referential constraint into `owner`, plus 95 cold relations with 32
/// alarm rules each that an `account` insert never triggers.
fn adhoc_catalog() -> Engine {
    let mut rels = vec![
        RelationSchema::of(
            "account",
            &[("id", ValueType::Int), ("balance", ValueType::Int)],
        ),
        RelationSchema::of("owner", &[("id", ValueType::Int)]),
    ];
    for r in 0..ADHOC_COLD_RELATIONS {
        rels.push(RelationSchema::of(
            &format!("rel{r}"),
            &[("id", ValueType::Int), ("v", ValueType::Int)],
        ));
    }
    let schema = DatabaseSchema::from_relations(rels).expect("schema is valid");
    let mut e = Engine::with_config(
        schema,
        EngineConfig {
            mode: EnforcementMode::Static,
            // Alarm-only cold rules cannot trigger anything, so the
            // definition-time cycle check is pure setup cost.
            allow_cycles: true,
            ..EngineConfig::default()
        },
    );
    for r in 0..ADHOC_COLD_RELATIONS {
        for i in 0..ADHOC_COLD_RULES_EACH {
            e.add_rule_text(
                &format!(
                    "WHEN INS(rel{r}) IF NOT 1 = 1 THEN \
                     alarm(select[#1 < 0 and #0 >= {i}](rel{r}@ins))"
                ),
                &format!("cold_{r}_{i}"),
            )
            .expect("cold rule is valid");
        }
    }
    for i in 0..ADHOC_HOT_RULES - 1 {
        e.add_rule_text(
            &format!(
                "WHEN INS(account) IF NOT \
                 forall x (x in account implies x.balance + {i} >= 0) THEN abort"
            ),
            &format!("hot_dom_{i}"),
        )
        .expect("hot domain rule is valid");
    }
    e.add_rule_text(
        "WHEN INS(account) IF NOT forall x (x in account implies \
         exists y (y in owner and x.balance = y.id)) THEN abort",
        "hot_ref",
    )
    .expect("hot referential rule is valid");
    e.load(
        "account",
        (0..ADHOC_ACCOUNTS).map(|i| Tuple::of((i, i % 997))),
    )
    .expect("seed accounts load");
    e.load("owner", (0..ADHOC_OWNERS).map(|v| Tuple::of((v,))))
        .expect("seed owners load");
    e
}

/// One wire request of a connection's stream.
#[derive(Debug, Clone)]
pub enum Op {
    /// One binding of a prepared template.
    Execute {
        /// Index into [`Workload::templates`].
        template: usize,
        /// The binding.
        params: Vec<Value>,
    },
    /// An ad-hoc transaction, modified at submission.
    AdHoc {
        /// RA program text.
        text: String,
    },
}

impl Op {
    /// The wire request, given the statements prepared at setup.
    pub fn request(&self, stmts: &[PreparedStmt]) -> Request {
        match self {
            Op::Execute { template, params } => Request::Execute {
                stmt_id: stmts[*template].stmt_id,
                params: params.clone(),
            },
            Op::AdHoc { text } => Request::AdHoc { tx: text.clone() },
        }
    }
}

/// One connection's requests in a round.
#[derive(Debug, Clone)]
pub struct ConnPlan {
    /// Sent during set-up: brings the connection's session past its
    /// first execution (the copy-on-write clone) before timing starts.
    pub warmup: Vec<Op>,
    /// Sent during the timed phase.
    pub timed: Vec<Op>,
}

/// Every connection's requests in a round.
#[derive(Debug, Clone)]
pub struct Plan {
    /// One entry per connection.
    pub conns: Vec<ConnPlan>,
}

/// Parse RA program text into a transaction.
pub fn parse_tx(text: &str) -> Transaction {
    parse_program(text)
        .unwrap_or_else(|e| panic!("benchmark program {text:?} parses: {e}"))
        .bracket()
}

/// What the sequential oracle found.
#[derive(Debug)]
pub struct OracleRun {
    /// The final state of a sequential `Engine` that ran every stream.
    pub state: Database,
    /// Transactions that committed.
    pub committed: u64,
    /// Transactions that aborted on an integrity violation.
    pub aborted: u64,
}

/// Run every connection's streams (warm-up and timed) one after the
/// other on a fresh single-threaded `Engine`, leaving out the requests
/// that failed: `failed[c]` holds the positions, in warm-up-then-timed
/// order, of connection `c`'s failed requests. A failed request has no
/// answer and so no commit the server may keep; if it committed anyway,
/// the served state differs from this one. Keys are disjoint per stream
/// and verdicts are per row, so the order does not matter.
pub fn sequential_oracle(workload: Workload, plan: &Plan, failed: &[Vec<usize>]) -> OracleRun {
    let mut engine = workload.engine(None);
    let prepared: Vec<_> = workload
        .templates()
        .iter()
        .map(|t| engine.prepare(&parse_tx(t)).expect("template prepares"))
        .collect();
    let (mut committed, mut aborted) = (0u64, 0u64);
    let mut tally = |ok: bool| {
        if ok {
            committed += 1;
        } else {
            aborted += 1;
        }
    };
    for (c, conn) in plan.conns.iter().enumerate() {
        let skip = failed.get(c).map(Vec::as_slice).unwrap_or(&[]);
        for (i, op) in conn.warmup.iter().chain(&conn.timed).enumerate() {
            if skip.binary_search(&i).is_ok() {
                continue;
            }
            match op {
                Op::Execute { template, params } => {
                    let bound = prepared[*template].bind(params).expect("binding fits");
                    tally(engine.execute_bound(&bound).expect("executes").committed());
                }
                Op::AdHoc { text } => {
                    tally(
                        engine
                            .execute(&parse_tx(text))
                            .expect("executes")
                            .committed(),
                    );
                }
            }
        }
    }
    OracleRun {
        state: engine.database().clone(),
        committed,
        aborted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_seeded_and_sized() {
        for w in Workload::ALL {
            let (warm, timed) = w.shape();
            let a = w.plan(7);
            let b = w.plan(7);
            assert_eq!(format!("{:?}", a.conns), format!("{:?}", b.conns));
            assert_eq!(a.conns.len(), w.connections(), "{}", w.name());
            for conn in &a.conns {
                assert_eq!(conn.warmup.len(), warm, "{}", w.name());
                assert_eq!(conn.timed.len(), timed, "{}", w.name());
            }
            assert_ne!(
                format!("{:?}", w.plan(8).conns[0].timed[0]),
                format!("{:?}", a.conns[0].timed[0]),
                "{}: another seed gives other inputs",
                w.name()
            );
        }
    }

    #[test]
    fn oracle_leaves_out_failed_requests() {
        let mut plan = Workload::OrderEntryRpc.plan(3);
        for conn in &mut plan.conns {
            conn.warmup.truncate(20);
            conn.timed.truncate(20);
        }
        let all = sequential_oracle(Workload::OrderEntryRpc, &plan, &[]);
        assert_eq!(all.committed + all.aborted, 80);
        let some = sequential_oracle(Workload::OrderEntryRpc, &plan, &[vec![], vec![25, 30]]);
        assert_eq!(some.committed + some.aborted, 78);
    }
}
