//! `serve_read` — read-only serving of a large materialized view.
//!
//! Right-linear transitive closure over 4096 disjoint components (about 49 k
//! derived facts, 78 k facts in the served model, replies of 2 to 12 rows),
//! text `QUERY t(c, Y)` with `c` drawn Zipf(1.0) over all components: the
//! working set is far larger than the 256-entry reply cache, yet skewed enough
//! for it to hit. One connection pipelines at depth 32 (throughput), then runs
//! closed-loop at depth 1 (latency); the two alternate batch by batch. In the
//! traced run, after the server stops, restart cycles reload the source into a
//! fresh engine and answer a first query.
//!
//! Why it exists: `server` + `reactor` + the `storage` probe and row rendering
//! dominate; `eval`, `wal` and `core` are idle after set-up, so a join or WAL
//! change must show nothing here.

use factorlog_datalog::ast::Const;
use factorlog_datalog::parser::parse_query;
use factorlog_engine::Engine;

use super::serving::{
    percentiles_us, place_threads, restart_cycles, set_server_metrics, ReadVerb, Reader, Served,
};
use super::{trace_overhead_pct, RunConfig, SetupTimer};
use crate::metrics::Outcome;
use crate::rng::{stream, Zipf};
use crate::timing::{slice_means, summarize, timed, Better, SLICES};
use crate::trace::Tracer;

/// Components (= distinct keys).
pub const COMPONENTS: usize = 4096;
/// Requests in flight in the throughput phase.
const DEPTH: usize = 32;
/// Queries per depth-32 batch (48 windows; 85 ms at the gated rate, 100 ms at
/// the median's).
const PIPELINED_BATCH: usize = 48 * DEPTH;
/// Queries per depth-1 batch (85 ms at best, 100 ms at the median).
const CLOSED_LOOP_BATCH: usize = 1_280;
/// Measured batches of each phase at the default `--seconds` (about 15 s).
const BATCHES: usize = 72;
/// Discarded batch pairs before them (about 3 s).
const WARMUP_BATCHES: usize = 14;
/// Complete set-ups per `setup_s` sample (about a second).
const SETUPS_PER_SAMPLE: usize = 16;
/// Restart cycles of the traced run at the default `--seconds` (30 ms each).
const RESTARTS: usize = 40;

/// Component `rank` is a chain of 2 to 5 edges plus 0 to 7 leaf edges out of
/// the root: `t(root, Y)` has 2 to 12 rows, and the closure holds about 12
/// facts per component. The shape depends on the rank only, so the hot keys
/// cost the same whatever the seed.
pub fn shape(rank: usize) -> (usize, usize) {
    (2 + rank % 4, (rank * 5 + rank / 4) % 8)
}

/// Run the workload.
pub fn run(config: &RunConfig) -> Outcome {
    let mut outcome = Outcome::new();
    // Client and server take turns here, so one CPU serves both.
    place_threads(&mut outcome);
    let shapes: Vec<(usize, usize)> = (0..COMPONENTS).map(shape).collect();

    let (setup, served) = SetupTimer::before(
        config,
        SETUPS_PER_SAMPLE,
        || Served::set_up(&shapes, 0, 0, 0, false, config.seed, None),
        Served::discard,
    );
    let Served {
        model,
        handle,
        load_seconds,
        serve_seconds,
        ..
    } = served;
    let roots: Vec<i64> = model.components.iter().map(|c| c.root).collect();

    let (warmup, batches) = config.batches(WARMUP_BATCHES, BATCHES);
    let zipf = Zipf::new(COMPONENTS);
    let mut key_rng = stream(config.seed, 3);
    let mut draw =
        |n: usize| -> Vec<i64> { (0..n).map(|_| roots[zipf.sample(&mut key_rng)]).collect() };

    let mut reader = Reader::connect(handle.addr(), &model.expected, Tracer::new(false));
    // Per slice of a batch: the rate (depth 32) and the time per read (depth 1).
    let mut qps = Vec::new();
    let mut time_per_read = Vec::new();
    // Seconds per window of the batch at hand, and per depth-1 request overall.
    let mut windows = Vec::new();
    let mut latencies = Vec::new();
    let mut measured_seconds = (0.0, 0.0);
    // Read-drain rounds the server needed for the depth-32 phases.
    let mut pipelined_drains = 0u64;
    let mut before = handle.server_metrics();
    for batch in 0..warmup + batches {
        let measured = batch >= warmup;
        if batch == warmup {
            before = handle.server_metrics();
        }
        reader.tracer.enabled = config.trace && measured && (batch - warmup) % 2 == 1;

        let keys = draw(PIPELINED_BATCH);
        let counters = handle.server_metrics();
        windows.clear();
        outcome.failed += reader.batch(&keys, DEPTH, ReadVerb::Query, Some(&mut windows));
        if measured {
            let now = handle.server_metrics();
            pipelined_drains += now.pipelined_batches - counters.pipelined_batches;
            qps.extend(slice_means(&windows).map(|seconds| DEPTH as f64 / seconds));
            measured_seconds.0 += windows.iter().sum::<f64>();
        }

        let keys = draw(CLOSED_LOOP_BATCH);
        windows.clear();
        outcome.failed += reader.batch(&keys, 1, ReadVerb::Query, Some(&mut windows));
        if measured {
            time_per_read.extend(slice_means(&windows));
            measured_seconds.1 += windows.iter().sum::<f64>();
            latencies.extend_from_slice(&windows);
        }
        outcome.attempted += (PIPELINED_BATCH + CLOSED_LOOP_BATCH) as u64;
    }
    let after = handle.server_metrics();
    let failed = outcome.failed;
    outcome.check(
        failed == 0,
        format!("{failed} replies were errors or differed from the from-scratch model"),
    );
    let read_qps = summarize(&qps, Better::Higher);
    let read_us = summarize(&time_per_read, Better::Lower);
    let qps_overall = (batches * PIPELINED_BATCH) as f64 / measured_seconds.0;
    let closed_loop_mean_us = measured_seconds.1 * 1e6 / (batches * CLOSED_LOOP_BATCH) as f64;
    let (p50_us, p99_us) = percentiles_us(&latencies);
    outcome.note(format!(
        "serve_read: {} facts in the model, {batches} batches per phase after {warmup} warm-up batches",
        model.oracle.total_facts()
    ));
    outcome.note(format!(
        "  read_qps (depth {DEPTH}, {PIPELINED_BATCH} queries/batch): best 5 % {:.1} (p95 {:.1})  median {:.1}  p10 {:.1}  overall {qps_overall:.1}",
        read_qps.best, read_qps.edge, read_qps.median, read_qps.worst
    ));
    outcome.note(format!(
        "  read latency (depth 1, {CLOSED_LOOP_BATCH} queries/batch), us per query: best 5 % {:.1} (p5 {:.1})  median {:.1}  p90 {:.1}  overall {:.1}; per-request p50 {p50_us:.1} p99 {p99_us:.1}",
        read_us.best * 1e6,
        read_us.edge * 1e6,
        read_us.median * 1e6,
        read_us.worst * 1e6,
        closed_loop_mean_us
    ));

    // The same stream through PREPARE/EXEC (traced run only).
    let mut exec = None;
    if config.trace {
        reader.wire.call("PREPARE t(?, Y)").expect("prepare");
        let id = reader.wire.field("id").expect("PREPARE answers with an id");
        reader.tracer.enabled = false;
        let (mut exec_qps, mut exec_time) = (Vec::new(), Vec::new());
        for _ in 0..batches / 4 {
            let keys = draw(PIPELINED_BATCH);
            windows.clear();
            outcome.failed += reader.batch(&keys, DEPTH, ReadVerb::Exec(id), Some(&mut windows));
            exec_qps.extend(slice_means(&windows).map(|seconds| DEPTH as f64 / seconds));
            let keys = draw(CLOSED_LOOP_BATCH);
            windows.clear();
            outcome.failed += reader.batch(&keys, 1, ReadVerb::Exec(id), Some(&mut windows));
            exec_time.extend(slice_means(&windows));
            outcome.attempted += (PIPELINED_BATCH + CLOSED_LOOP_BATCH) as u64;
        }
        exec = Some((
            summarize(&exec_qps, Better::Higher).best,
            summarize(&exec_time, Better::Lower).best * 1e6,
        ));
    }
    let mut tracer = reader.tracer;
    let report = handle.shutdown();

    if !config.trace {
        drop((model, report));
        setup.finish(&mut outcome, read_us.best * 1e6, read_qps.best);
        return outcome;
    }

    // Restart: nothing here is durable, so a stopped server comes back by
    // loading its source again; the first query materializes the model.
    tracer.enabled = true;
    restart_cycles(
        config.batches(0, RESTARTS).1,
        || {
            let mut engine = Engine::new();
            engine.load_source(&model.source).expect("source loads");
            engine
        },
        ("engine.load", "engine.first_query"),
        roots[0],
        model.expected[&roots[0]],
        &mut tracer,
        &mut outcome,
    );

    let measured_reads = (batches * (PIPELINED_BATCH + CLOSED_LOOP_BATCH)) as u64;
    set_server_metrics(&mut outcome, before, after, measured_reads, measured_reads);
    // The depth the server saw while the client pipelined (the run-wide mean
    // is dominated by the depth-1 phases).
    outcome.set(
        "server.pipeline_depth_mean",
        (batches * PIPELINED_BATCH) as f64 / pipelined_drains.max(1) as f64,
    );
    outcome.set("server.shed", report.shed as f64);
    outcome.set("client.read_p50_us", p50_us);
    outcome.set("client.read_p99_us", p99_us);
    outcome.set("client.read_qps_overall", qps_overall);
    outcome.set(
        "bench.trace_overhead_pct",
        trace_overhead_pct(&time_per_read, SLICES, Better::Lower),
    );
    outcome.set("engine.load_ms", load_seconds * 1e3);
    outcome.set("engine.materialize_ms", serve_seconds * 1e3);

    let (exec_qps, exec_us) = exec.expect("the traced run measures EXEC");
    outcome.set("server.exec_qps", exec_qps);
    outcome.set("server.exec_us", exec_us);

    // In-process replay of the served stream against the layers underneath:
    // parse the query text, probe the model, once per request.
    tracer.enabled = true;
    let keys = draw(1_000);
    let mut rows = 0usize;
    for (i, key) in keys.iter().enumerate() {
        let request = i as u64;
        let root = tracer.begin("bench.replay_read", None, request);
        let span = tracer.begin("parser.query", Some(root), request);
        let query = parse_query(&format!("t({key}, Y)")).expect("query parses");
        tracer.end(span);
        let span = tracer.begin("storage.answers", Some(root), request);
        rows += model.oracle.answers(&query).len();
        tracer.end(span);
        tracer.end(root);
    }
    let totals = tracer.totals();
    let parse_ns = totals["parser.query"].mean_ns();
    let probe_ns = totals["storage.answers"].mean_ns();
    outcome.set("parser.query_ns", parse_ns);
    outcome.set("storage.answers_probe_ns", probe_ns);
    outcome.set("storage.rows_per_probe", rows as f64 / keys.len() as f64);
    // A cache hit skips the parse and the probe, so the wire's own share of a
    // read is what is left of the mean depth-1 read after the misses' parse +
    // probe.
    let miss_ratio = 1.0 - outcome.metrics["server.reply_cache_hit_ratio"];
    outcome.set(
        "server.wire_read_overhead_us",
        closed_loop_mean_us - miss_ratio * (parse_ns + probe_ns) / 1e3,
    );

    // Fact insertion and removal on a copy of the base relation.
    let mut edb = crate::gen::edge_database(&model.edges);
    let fresh: Vec<[Const; 2]> = (0..20_000i64)
        .map(|i| [Const::Int(9_000_000 + i), Const::Int(9_500_000 + i)])
        .collect();
    let (seconds, added) = timed(|| fresh.iter().filter(|row| edb.add_fact("e", *row)).count());
    outcome.set("storage.add_fact_ns", seconds * 1e9 / fresh.len() as f64);
    // `remove_fact` rebuilds the relation: forty calls are a second of work.
    let doomed = &fresh[..40];
    let (seconds, removed) = timed(|| {
        doomed
            .iter()
            .filter(|row| edb.remove_fact("e", *row))
            .count()
    });
    outcome.set(
        "storage.remove_fact_ns",
        seconds * 1e9 / doomed.len() as f64,
    );
    outcome.check(
        added == fresh.len() && removed == doomed.len(),
        "the storage probe's facts were not all added and removed",
    );

    // The engine's own counters for the bulk materialization, and the
    // prepared-plan path on the same keys.
    let mut engine: Engine = report.engine;
    let stats = engine.stats().clone();
    outcome.set("eval.evaluate_ms", serve_seconds * 1e3);
    outcome.set("eval.inferences", stats.inferences as f64);
    outcome.set("eval.facts_derived", stats.facts_derived as f64);
    outcome.set("eval.iterations", stats.iterations as f64);
    outcome.set("eval.index_probes", stats.index_probes as f64);
    outcome.set(
        "eval.duplicate_ratio",
        stats.duplicates as f64 / stats.inferences.max(1) as f64,
    );
    outcome.set(
        "eval.inferences_per_s",
        stats.inferences as f64 / serve_seconds,
    );
    let prepared_keys = &keys[..50];
    let mut hit_seconds = 0.0;
    for (i, key) in prepared_keys.iter().enumerate() {
        let query = parse_query(&format!("t({key}, Y)")).expect("query parses");
        let span = tracer.begin("engine.query_prepared", None, i as u64);
        let (seconds, answers) = timed(|| engine.query_prepared(&query).expect("prepared query"));
        tracer.end(span);
        outcome.check(
            answers.len() == model.expected[key].rows,
            format!(
                "prepared plan answered t({key}, Y) with {} rows",
                answers.len()
            ),
        );
        if i == 0 {
            outcome.set("engine.prepared_miss_us", seconds * 1e6);
        } else {
            hit_seconds += seconds;
        }
    }
    outcome.set(
        "engine.prepared_hit_us",
        hit_seconds * 1e6 / (prepared_keys.len() - 1) as f64,
    );
    let lookups = engine.stats().plan_cache_hits + engine.stats().plan_cache_misses;
    outcome.set(
        "engine.plan_cache_hit_ratio",
        engine.stats().plan_cache_hits as f64 / lookups.max(1) as f64,
    );

    super::finish_trace(&tracer, config, "serve_read", &mut outcome);
    outcome
}
