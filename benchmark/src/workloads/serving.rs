//! What the three `serve_*` workloads share: the served model with its oracle,
//! checked query batches over the wire, and the in-process layer probes.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;

use factorlog_datalog::ast::Const;
use factorlog_datalog::parser::parse_query;
use factorlog_datalog::storage::Database;
use factorlog_engine::{
    serve, DurabilityOptions, Engine, ServerHandle, ServerMetrics, ServerOptions,
};

use crate::affinity::{allowed_cpus, pin_current};
use crate::gen::{self, Component, TxnOps, TxnStream};
use crate::metrics::Outcome;
use crate::rng::stream;
use crate::timing::{quantile, sorted, summarize, timed, Better};
use crate::trace::Tracer;
use crate::wire::{digest_rows, Wire};

/// The answer the oracle expects for one key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Expected {
    /// Number of rows.
    pub rows: usize,
    /// [`digest_rows`] of the rendered rows.
    pub digest: u64,
}

/// `t(x, Y)` for every `x` of `model`, as the wire client will see it.
pub fn expected_answers(model: &Database) -> HashMap<i64, Expected> {
    gen::answers_by_source(model)
        .into_iter()
        .map(|(source, answers)| {
            let rendered: Vec<String> = answers.iter().map(i64::to_string).collect();
            let expected = Expected {
                rows: rendered.len(),
                digest: digest_rows(rendered.iter().map(String::as_str)),
            };
            (source, expected)
        })
        .collect()
}

/// What a run's transactions must leave behind.
pub struct FinalState {
    /// The base edges.
    pub edges: Vec<(i64, i64)>,
    /// The oracle's answers by key.
    pub expected: HashMap<i64, Expected>,
}

/// A generated model: the EDB, its loadable text, and the oracle's answers.
pub struct Model {
    /// The components, by rank.
    pub components: Vec<Component>,
    /// Every base edge (component edges plus the transaction streams' preload).
    pub edges: Vec<(i64, i64)>,
    /// Rules and facts as source text.
    pub source: String,
    /// The oracle's least model.
    pub oracle: Database,
    /// The oracle's answers by key.
    pub expected: HashMap<i64, Expected>,
}

impl Model {
    /// Generate the model for `shapes`, with `streams` transaction streams of
    /// `txns` transactions each over the last `writer_components` components
    /// (split evenly between the streams).
    pub fn generate(
        shapes: &[(usize, usize)],
        streams: usize,
        writer_components: usize,
        txns: usize,
        seed: u64,
    ) -> (Model, Vec<TxnStream>) {
        let components = gen::components(shapes, &mut stream(seed, 1));
        let mut edges: Vec<(i64, i64)> = components.iter().flat_map(Component::edges).collect();
        let writers = &components[components.len() - writer_components..];
        let streams: Vec<TxnStream> = (0..streams)
            .map(|s| {
                let share = writers.len() / streams;
                let own = &writers[s * share..(s + 1) * share];
                gen::txn_stream(own, s, txns, &mut stream(seed, 100 + s as u64))
            })
            .collect();
        for stream in &streams {
            edges.extend(stream.present_after(0));
        }
        let oracle = gen::oracle_model(&edges);
        let model = Model {
            source: gen::source_text(edges.clone(), &mut stream(seed, 2)),
            expected: expected_answers(&oracle),
            oracle,
            components,
            edges,
        };
        (model, streams)
    }

    /// The EDB once the first `committed` transactions of every one of
    /// `streams` have committed, and the oracle's answers over it: a
    /// from-scratch evaluation of what the run must end with.
    pub fn state_after(&self, streams: &[TxnStream], committed: usize) -> FinalState {
        let preloaded = streams.len() * gen::WINDOW;
        let mut edges = self.edges[..self.edges.len() - preloaded].to_vec();
        for stream in streams {
            edges.extend(stream.present_after(committed));
        }
        FinalState {
            expected: expected_answers(&gen::oracle_model(&edges)),
            edges,
        }
    }
}

/// Put the calling thread, and with it the server and client threads it will
/// spawn, on one CPU (see [`crate::affinity`] for why, and for what the
/// alternatives measured), and say so in the report. Returns a second CPU,
/// where there is one, for a thread that runs beside them.
pub fn place_threads(outcome: &mut Outcome) -> Option<usize> {
    let cpus = allowed_cpus();
    match cpus.first() {
        Some(&first) if pin_current(first) => {
            outcome.note(format!("  server and clients pinned to CPU {first}"));
            cpus.get(1).copied()
        }
        _ => {
            outcome.note("  threads could not be pinned; the scheduler places them");
            None
        }
    }
}

/// A fresh data directory under `out_dir`.
pub fn data_dir(out_dir: &Path, workload: &str) -> PathBuf {
    let dir = out_dir.join(format!("data-{workload}"));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A generated model behind a running server: what set-up produces.
pub struct Served {
    /// The model and its oracle.
    pub model: Model,
    /// The transaction streams generated with it.
    pub streams: Vec<TxnStream>,
    /// The running server.
    pub handle: ServerHandle,
    /// Its data directory, when durable; it must not exist before a set-up.
    pub dir: Option<PathBuf>,
    /// The state after every transaction of `streams`, where the run is known
    /// to commit them all.
    pub final_state: Option<FinalState>,
    /// Seconds `load_source` took (durable: including the WAL append + fsync).
    pub load_seconds: f64,
    /// Seconds `serve` took, i.e. the first materialization and its clone.
    pub serve_seconds: f64,
}

impl Served {
    /// One set-up: generate the inputs, compute the oracle's answers (for the
    /// model as loaded and, when the run `commits_all` its `txns`, as they
    /// will leave it), load the source into a new engine — durable in `dir` with the default
    /// [`DurabilityOptions`] (fsync on, 1 MiB compaction threshold) when given
    /// — and serve it on an ephemeral loopback port with the default
    /// [`ServerOptions`], which materializes the model.
    pub fn set_up(
        shapes: &[(usize, usize)],
        streams: usize,
        writer_components: usize,
        txns: usize,
        commits_all: bool,
        seed: u64,
        dir: Option<&Path>,
    ) -> Served {
        let (model, streams) = Model::generate(shapes, streams, writer_components, txns, seed);
        let final_state = commits_all.then(|| model.state_after(&streams, txns));
        let (load_seconds, engine) = timed(|| {
            let mut engine = match dir {
                Some(dir) => Engine::open_durable_with(dir, DurabilityOptions::default())
                    .expect("data directory opens"),
                None => Engine::new(),
            };
            engine.load_source(&model.source).expect("source loads");
            engine
        });
        let (serve_seconds, handle) = timed(|| {
            serve(engine, "127.0.0.1:0", ServerOptions::default()).expect("server starts")
        });
        Served {
            model,
            streams,
            handle,
            dir: dir.map(Path::to_path_buf),
            final_state,
            load_seconds,
            serve_seconds,
        }
    }

    /// Stop the server of a set-up repetition that is not kept and remove
    /// its data directory (outside the timed set-up).
    pub fn discard(self) {
        self.handle.shutdown();
        if let Some(dir) = self.dir {
            std::fs::remove_dir_all(dir).ok();
        }
    }
}

/// Which read verb a batch uses.
#[derive(Clone, Copy, Debug)]
pub enum ReadVerb {
    /// `QUERY t(<key>, Y)` — the gated path.
    Query,
    /// `EXEC <id> <key>` on a statement prepared as `t(?, Y)`.
    Exec(u64),
}

/// A read client that checks every reply against the oracle and records one
/// span per request window while its tracer is enabled.
pub struct Reader<'a> {
    /// The connection (also good for `PREPARE` and the like).
    pub wire: Wire,
    /// The spans of this client's windows; `request` numbers them in order.
    pub tracer: Tracer,
    expected: &'a HashMap<i64, Expected>,
    payload: String,
    windows_sent: u64,
}

impl<'a> Reader<'a> {
    /// Connect to the server at `addr`; replies are held to `expected`.
    pub fn connect(
        addr: SocketAddr,
        expected: &'a HashMap<i64, Expected>,
        tracer: Tracer,
    ) -> Reader<'a> {
        Reader {
            wire: Wire::connect(addr).expect("reader connects"),
            tracer,
            expected,
            payload: String::new(),
            windows_sent: 0,
        }
    }

    /// Send one request per key in windows of `depth` and return how many
    /// replies failed (error, shed or wrong answer). The seconds each window
    /// took are appended to `latencies` when given.
    pub fn batch(
        &mut self,
        keys: &[i64],
        depth: usize,
        verb: ReadVerb,
        mut latencies: Option<&mut Vec<f64>>,
    ) -> u64 {
        let mut failed = 0;
        for window in keys.chunks(depth) {
            self.payload.clear();
            for key in window {
                use std::fmt::Write as _;
                let _ = match verb {
                    ReadVerb::Query => writeln!(self.payload, "QUERY t({key}, Y)"),
                    ReadVerb::Exec(id) => writeln!(self.payload, "EXEC {id} {key}"),
                };
            }
            let span = self.tracer.begin("client.read", None, self.windows_sent);
            self.windows_sent += 1;
            let start = Instant::now();
            self.wire
                .send(self.payload.as_bytes())
                .expect("request sent");
            for key in window {
                let reply = self.wire.reply().expect("reply read");
                let want = self.expected[key];
                if !reply.ok || reply.rows != want.rows || reply.digest != want.digest {
                    failed += 1;
                }
            }
            if let Some(latencies) = latencies.as_deref_mut() {
                latencies.push(start.elapsed().as_secs_f64());
            }
            self.tracer.end(span);
        }
        failed
    }
}

/// Commit one transaction; `true` when it was acknowledged with the right
/// counts (anything else — a shed, an error, a short count — is a failed
/// operation).
pub fn commit(wire: &mut Wire, spec: &str) -> bool {
    let reply = wire.call(&format!("TXN {spec}")).expect("reply read");
    let want = Some(gen::OPS_PER_SIDE as u64);
    reply.ok && wire.field("asserted") == want && wire.field("retracted") == want
}

/// `(group_commits, group_txns)` from the server's `STATS`.
pub fn group_commit_counters(wire: &mut Wire) -> (f64, f64) {
    wire.call("STATS").expect("STATS answers");
    let field = |key: &str| wire.field(key).unwrap_or(0) as f64;
    (field("group_commits"), field("group_txns"))
}

/// Check the server's replies for `keys` against `expected`, one at a time.
pub fn verify_served(
    addr: SocketAddr,
    expected: &HashMap<i64, Expected>,
    keys: &[i64],
    outcome: &mut Outcome,
) {
    let mut reader = Reader::connect(addr, expected, Tracer::new(false));
    let failed = reader.batch(keys, 1, ReadVerb::Query, None);
    outcome.attempted += keys.len() as u64;
    outcome.failed += failed;
    outcome.check(
        failed == 0,
        format!(
            "after the last commit {failed} of {} served replies differ from the from-scratch model",
            keys.len()
        ),
    );
}

/// The sorted `e` facts of `db`.
fn sorted_edges(db: &Database) -> Vec<Vec<Const>> {
    db.relation("e".into())
        .map(|relation| relation.to_sorted_vec())
        .unwrap_or_default()
}

/// `t(key, Y)` on `engine` as the oracle's tables hold answers, with the
/// seconds the query took.
fn answer(engine: &mut Engine, key: i64) -> (f64, Expected) {
    let query = parse_query(&format!("t({key}, Y)")).expect("query parses");
    let (seconds, answers) = timed(|| engine.query(&query).expect("query answers"));
    let rendered: Vec<String> = answers
        .iter()
        .map(|row| match row[0] {
            Const::Int(i) => i.to_string(),
            Const::Sym(s) => s.as_str().to_string(),
        })
        .collect();
    let got = Expected {
        rows: rendered.len(),
        digest: digest_rows(rendered.iter().map(String::as_str)),
    };
    (seconds, got)
}

/// Reopen `dir` and check that the recovered EDB holds exactly `edges` (every
/// acknowledged transaction is present, nothing else is) and that its model
/// answers `keys` like the from-scratch evaluation. Returns the recovered
/// engine.
pub fn verify_recovery(
    dir: &Path,
    edges: &[(i64, i64)],
    expected: &HashMap<i64, Expected>,
    keys: &[i64],
    outcome: &mut Outcome,
) -> Engine {
    let mut engine = Engine::open_durable(dir).expect("data directory recovers");
    let wrong = keys
        .iter()
        .filter(|&&key| answer(&mut engine, key).1 != expected[&key])
        .count();
    outcome.check(
        wrong == 0,
        format!("{wrong} recovered answers differ from the from-scratch model"),
    );
    let recovered = sorted_edges(engine.facts());
    let expected_edges = sorted_edges(&gen::edge_database(edges));
    outcome.check(
        recovered == expected_edges,
        format!(
            "recovered EDB has {} edges, the acknowledged history gives {}",
            recovered.len(),
            expected_edges.len()
        ),
    );
    engine
}

/// Seconds per restart cycle, whole and by part.
#[derive(Default)]
pub struct RestartTimes {
    /// From nothing in memory to the first answer: what `engine.restart_ms` is
    /// built from. Closing the engine again is not in it: freeing the model
    /// takes 4 to 12 ms from one run to the next, the rest of a cycle repeats.
    pub cycle: Vec<f64>,
    /// `open` alone.
    pub open: Vec<f64>,
    /// The first query alone (it materializes the model).
    pub first_query: Vec<f64>,
}

/// Restart cycles of the traced run: `open` brings an engine up from what a
/// stopped system left behind (its data directory or, where it was not durable,
/// its source text), the first query is answered and checked, and the engine
/// is closed (outside the timed part). The two span names are those of the
/// opening and of the first query. Sets `engine.restart_ms`.
pub fn restart_cycles(
    cycles: usize,
    mut open: impl FnMut() -> Engine,
    (open_span, query_span): (&'static str, &'static str),
    key: i64,
    expected: Expected,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) -> RestartTimes {
    let mut times = RestartTimes::default();
    let mut wrong = 0;
    for cycle in 0..cycles as u64 {
        let start = Instant::now();
        let root = tracer.begin("bench.restart", None, cycle);
        let span = tracer.begin(open_span, Some(root), cycle);
        let (open_seconds, mut engine) = timed(&mut open);
        tracer.end(span);
        let span = tracer.begin(query_span, Some(root), cycle);
        let (first_seconds, got) = answer(&mut engine, key);
        tracer.end(span);
        tracer.end(root);
        times.cycle.push(start.elapsed().as_secs_f64());
        drop(engine);
        times.open.push(open_seconds);
        times.first_query.push(first_seconds);
        wrong += u64::from(got != expected);
    }
    outcome.attempted += cycles as u64;
    outcome.failed += wrong;
    outcome.check(
        wrong == 0,
        format!("{wrong} of {cycles} restarts answered the first query wrongly"),
    );
    let whole = summarize(&times.cycle, Better::Lower);
    outcome.set("engine.restart_ms", whole.best * 1e3);
    outcome.note(format!(
        "  restart ({open_span}, first answer) over {cycles} cycles, ms: best 5 % {:.2}  median {:.2}  p90 {:.2}",
        whole.best * 1e3,
        whole.median * 1e3,
        whole.worst * 1e3
    ));
    times
}

/// Apply one transaction in process, the way the server's writer does.
pub fn apply(engine: &mut Engine, asserts: &[(i64, i64)], retracts: &[(i64, i64)]) {
    let mut txn = engine.transaction();
    for &(from, to) in asserts {
        txn.assert("e", &[Const::Int(from), Const::Int(to)]);
    }
    for &(from, to) in retracts {
        txn.retract("e", &[Const::Int(from), Const::Int(to)]);
    }
    txn.commit().expect("in-process transaction commits");
}

/// In-process replay of `ops` on an engine loaded with `model`, insert half and
/// retract half committed separately and each followed by a query, because
/// maintenance is lazy: it runs at the first read after a commit. Sets the
/// `engine.*_maintain_us` and per-transaction delete counters and returns the
/// mean seconds one whole transaction (both halves, maintained) took.
pub fn replay_maintenance(
    model: &Model,
    ops: &[TxnOps],
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) -> f64 {
    let mut engine = Engine::new();
    engine.load_source(&model.source).expect("source loads");
    let probe = parse_query(&format!("t({}, Y)", model.components[0].root)).expect("query parses");
    engine.query(&probe).expect("materializes");
    let before = engine.stats().clone();
    let (mut insert_seconds, mut retract_seconds) = (0.0, 0.0);
    for (i, txn) in ops.iter().enumerate() {
        let root = tracer.begin("bench.replay_txn", None, i as u64);
        let span = tracer.begin("engine.insert_maintain", Some(root), i as u64);
        let (seconds, ()) = timed(|| {
            apply(&mut engine, &txn.asserts, &[]);
            engine.query(&probe).expect("query after insert");
        });
        tracer.end(span);
        insert_seconds += seconds;
        let span = tracer.begin("engine.retract_maintain", Some(root), i as u64);
        let (seconds, ()) = timed(|| {
            apply(&mut engine, &[], &txn.retracts);
            engine.query(&probe).expect("query after retract");
        });
        tracer.end(span);
        tracer.end(root);
        retract_seconds += seconds;
    }
    let n = ops.len().max(1) as f64;
    let stats = engine.stats();
    outcome.set("engine.insert_maintain_us", insert_seconds * 1e6 / n);
    outcome.set("engine.retract_maintain_us", retract_seconds * 1e6 / n);
    outcome.set(
        "engine.retractions_per_txn",
        (stats.retractions - before.retractions) as f64 / n,
    );
    outcome.set(
        "engine.rederivations_per_txn",
        (stats.rederivations - before.rederivations) as f64 / n,
    );
    outcome.set(
        "engine.delete_rounds_per_txn",
        (stats.delete_rounds - before.delete_rounds) as f64 / n,
    );
    (insert_seconds + retract_seconds) / n
}

/// Server-side counters over a measured interval, from two
/// [`ServerHandle::server_metrics`] snapshots.
pub fn set_server_metrics(
    outcome: &mut Outcome,
    before: ServerMetrics,
    after: ServerMetrics,
    requests: u64,
    reads: u64,
) {
    let requests = requests.max(1) as f64;
    outcome.set(
        "server.reactor_wakeups_per_req",
        (after.reactor_wakeups - before.reactor_wakeups) as f64 / requests,
    );
    outcome.set(
        "server.pipeline_depth_mean",
        (after.pipelined_requests - before.pipelined_requests) as f64
            / (after.pipelined_batches - before.pipelined_batches).max(1) as f64,
    );
    outcome.set(
        "server.reply_cache_hit_ratio",
        (after.reply_cache_hits - before.reply_cache_hits) as f64 / reads.max(1) as f64,
    );
}

/// p50 and p99 of `latencies` (seconds), in microseconds.
pub fn percentiles_us(latencies: &[f64]) -> (f64, f64) {
    let sorted = sorted(latencies);
    (quantile(&sorted, 0.5) * 1e6, quantile(&sorted, 0.99) * 1e6)
}
