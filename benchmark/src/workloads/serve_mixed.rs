//! `serve_mixed` — reads beside writes on the `serve_read` model, durable.
//!
//! One reader connection runs `serve_read`'s two phases — `QUERY t(c, Y)`
//! pipelined at depth 32, then closed-loop at depth 1, alternating — with `c`
//! uniform over the 4096 read components (every commit bumps the epoch, so the
//! reply cache is bypassed) for a fixed number of batches. Beside it one closed-loop
//! writer connection commits the same sliding-window transactions as
//! `serve_write`, in 64 components of its own, for as long as the reader runs.
//! The reader's keys never touch the writer's components, so every reply can
//! be checked against the static oracle; the EDB the writer leaves behind
//! follows from how many transactions it committed. After the server stops the
//! directory is recovered and compared with it; in the traced run the log is
//! then folded into the snapshot and restart cycles recover the directory and
//! answer a first query.
//!
//! Why it exists: the same `server`/`engine` layers used the other way round.
//! A commit here costs incremental maintenance plus the full-model clone behind
//! every published view, not the fsync, and the reader feels both through the
//! memory system and the epoch churn. What is gated is the read side; the
//! writer's time per transaction follows the state of the host's memory system
//! (its *fastest* transaction of a run varies by a fifth between identical
//! runs), so it is reported — here and as `client.txn_*` — but not gated.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use factorlog_engine::Engine;

use super::serve_read::{shape, COMPONENTS as READ_COMPONENTS};
use super::serving::{
    commit, data_dir, group_commit_counters, percentiles_us, place_threads, replay_maintenance,
    restart_cycles, set_server_metrics, verify_recovery, verify_served, ReadVerb, Reader, Served,
};
use super::{trace_overhead_pct, RunConfig, SetupTimer};
use crate::affinity::pin_named_thread;
use crate::metrics::Outcome;
use crate::rng::{stream, Rng};
use crate::timing::{median, slice_means, summarize, Better, SLICES};
use crate::trace::Tracer;
use crate::wire::Wire;

/// Name (as `/proc` truncates it) of the thread `serve` commits on.
const WRITER_THREAD: &str = "factorlog-write";
/// Components only the writer touches.
const WRITER_COMPONENTS: usize = 64;
/// Requests the reader keeps in flight.
const DEPTH: usize = 32;
/// Queries per depth-32 reader batch (24 windows; 95 ms at the gated rate,
/// 105 ms at the median's).
const PIPELINED_BATCH: usize = 24 * DEPTH;
/// Queries per depth-1 reader batch (85 ms at best, 100 ms at the median).
const CLOSED_LOOP_BATCH: usize = 640;
/// Measured reader batches of each phase at the default `--seconds` (about
/// 15 s, in which the writer commits some 280 transactions).
const READER_BATCHES: usize = 70;
/// Discarded batch pairs before them (about 3 s).
const WARMUP_BATCHES: usize = 14;
/// Transactions generated per reader batch pair: three times what the writer
/// commits beside one on the reference host, so the list outlasts the reader.
const TXNS_PER_READER_BATCH: usize = 12;
/// Complete set-ups per `setup_s` sample (about a second).
const SETUPS_PER_SAMPLE: usize = 12;
/// Restart cycles of the traced run at the default `--seconds` (35 ms each).
const RESTARTS: usize = 40;

/// One pair of batches of the reader.
struct ReaderBatch {
    start: Instant,
    end: Instant,
    /// Seconds per depth-32 window.
    windows: Vec<f64>,
    /// Seconds per depth-1 request.
    requests: Vec<f64>,
}

/// Run the workload.
pub fn run(config: &RunConfig) -> Outcome {
    let mut outcome = Outcome::new();
    // The reader's client and the reactor take turns on one CPU; the server's
    // writer thread, which really runs beside them, gets the other.
    let second_cpu = place_threads(&mut outcome);
    let (warmup, batches) = config.batches(WARMUP_BATCHES, READER_BATCHES);
    let mut shapes: Vec<(usize, usize)> = (0..READ_COMPONENTS).map(shape).collect();
    shapes.extend(vec![(8, 0); WRITER_COMPONENTS]);
    let dir = data_dir(&config.out_dir, "serve_mixed");

    let set_up = || {
        Served::set_up(
            &shapes,
            1,
            WRITER_COMPONENTS,
            (warmup + batches) * TXNS_PER_READER_BATCH,
            false,
            config.seed,
            Some(&dir),
        )
    };
    let (setup, served) = SetupTimer::before(config, SETUPS_PER_SAMPLE, set_up, Served::discard);
    if let Some(second) = second_cpu {
        let moved = pin_named_thread(WRITER_THREAD, second);
        outcome.note(format!(
            "  server writer thread {} CPU {second}",
            if moved {
                "pinned to"
            } else {
                "NOT found, so not pinned to"
            }
        ));
    }
    let Served {
        model,
        streams,
        handle,
        load_seconds,
        serve_seconds,
        ..
    } = served;
    let specs = &streams[0].specs;
    let addr = handle.addr();
    let read_roots: Vec<i64> = model.components[..READ_COMPONENTS]
        .iter()
        .map(|c| c.root)
        .collect();
    let metrics_before = handle.server_metrics();

    // The reader owns the fixed work; the writer commits until the reader is
    // done, and only transactions that lie wholly beside the reader's measured
    // batches count.
    let reader_done = AtomicBool::new(false);
    let clock = Tracer::new(false);
    let (writer, reader) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut wire = Wire::connect(addr).expect("writer connects");
            let mut spans = Vec::new();
            let mut failed = 0u64;
            for spec in specs {
                if reader_done.load(Ordering::Acquire) {
                    break;
                }
                let start = Instant::now();
                if !commit(&mut wire, spec) {
                    failed += 1;
                }
                spans.push((start, Instant::now()));
            }
            (spans, failed)
        });
        let reader = scope.spawn(|| {
            let mut reader = Reader::connect(addr, &model.expected, clock.sharing_clock());
            let mut log = Vec::new();
            let mut failed = 0u64;
            let mut key_rng = stream(config.seed, 3);
            for batch in 0..warmup + batches {
                // Odd measured batches are traced in the traced run.
                reader.tracer.enabled =
                    config.trace && batch >= warmup && (batch - warmup) % 2 == 1;
                let mut draw = |n: usize| -> Vec<i64> {
                    let key = |_| read_roots[key_rng.gen_range(0..read_roots.len())];
                    (0..n).map(key).collect()
                };
                let (pipelined, closed_loop) = (draw(PIPELINED_BATCH), draw(CLOSED_LOOP_BATCH));
                let (mut windows, mut requests) = (Vec::new(), Vec::new());
                let start = Instant::now();
                failed += reader.batch(&pipelined, DEPTH, ReadVerb::Query, Some(&mut windows));
                failed += reader.batch(&closed_loop, 1, ReadVerb::Query, Some(&mut requests));
                let end = Instant::now();
                log.push(ReaderBatch {
                    start,
                    end,
                    windows,
                    requests,
                });
            }
            reader_done.store(true, Ordering::Release);
            (log, failed, reader.tracer)
        });
        (
            writer.join().expect("writer thread"),
            reader.join().expect("reader thread"),
        )
    });
    let metrics_after = handle.server_metrics();
    let (txn_spans, txn_failed) = writer;
    let (reader_log, read_failed, reader_tracer) = reader;
    let committed = txn_spans.len();
    let reads = reader_log.len() * (PIPELINED_BATCH + CLOSED_LOOP_BATCH);
    outcome.attempted += (committed + reads) as u64;
    outcome.failed += txn_failed + read_failed;
    outcome.check(
        outcome.failed == 0,
        format!("{txn_failed} transactions and {read_failed} reads failed or answered wrongly"),
    );
    outcome.check(
        committed < specs.len(),
        "the writer ran out of transactions before the reader was done",
    );

    let measured = &reader_log[warmup..];
    let (window_start, window_end) = (measured[0].start, measured[measured.len() - 1].end);
    let window_seconds_total = (window_end - window_start).as_secs_f64();
    // Per slice of a reader batch, the rate and the time per read.
    let qps: Vec<f64> = measured
        .iter()
        .flat_map(|b| slice_means(&b.windows).map(|seconds| DEPTH as f64 / seconds))
        .collect();
    let time_per_read: Vec<f64> = measured
        .iter()
        .flat_map(|b| slice_means(&b.requests))
        .collect();
    let mut txn_seconds: Vec<f64> = txn_spans
        .iter()
        .filter(|(start, end)| *start >= window_start && *end <= window_end)
        .map(|(start, end)| (*end - *start).as_secs_f64())
        .collect();
    outcome.check(
        !txn_seconds.is_empty(),
        "no transaction ran wholly beside the reader",
    );
    if txn_seconds.is_empty() {
        // Keep the summary below defined; the run has failed already.
        txn_seconds.push(f64::MAX);
    }
    let read_qps = summarize(&qps, Better::Higher);
    let read_us = summarize(&time_per_read, Better::Lower);
    let txn = summarize(&txn_seconds, Better::Lower);
    let txn_rate_overall = txn_seconds.len() as f64 / window_seconds_total;
    outcome.note(format!(
        "serve_mixed: {} facts in the model, {batches} reader batches per phase after {warmup} warm-up, {} transactions beside them in {window_seconds_total:.1} s",
        model.oracle.total_facts(),
        txn_seconds.len()
    ));
    outcome.note(format!(
        "  mixed_read_qps (depth {DEPTH}, {PIPELINED_BATCH} queries/batch): best 5 % {:.1} (p95 {:.1})  median {:.1}  p10 {:.1}",
        read_qps.best, read_qps.edge, read_qps.median, read_qps.worst
    ));
    outcome.note(format!(
        "  mixed read latency (depth 1, {CLOSED_LOOP_BATCH} queries/batch), us per query: best 5 % {:.1} (p5 {:.1})  median {:.1}  p90 {:.1}",
        read_us.best * 1e6,
        read_us.edge * 1e6,
        read_us.median * 1e6,
        read_us.worst * 1e6
    ));
    outcome.note(format!(
        "  not gated: mixed_txn_per_s overall {txn_rate_overall:.2}; ms per txn: best 5 % {:.2} (p5 {:.2})  median {:.2}  p90 {:.2}",
        txn.best * 1e3,
        txn.edge * 1e3,
        txn.median * 1e3,
        txn.worst * 1e3
    ));

    // Correctness: served replies and the recovered store against a
    // from-scratch evaluation of the EDB the committed transactions leave.
    let final_state = model.state_after(&streams, committed);
    let mut keys: Vec<i64> = model.components[READ_COMPONENTS..]
        .iter()
        .map(|c| c.root)
        .collect();
    keys.extend(&read_roots[..64]);
    let mut wire = Wire::connect(addr).expect("verifier connects");
    verify_served(addr, &final_state.expected, &keys, &mut outcome);
    let (group_commits, group_txns) = group_commit_counters(&mut wire);
    drop(wire);
    let report = handle.shutdown();
    outcome.check(
        report.shed == 0,
        format!("{} requests were shed", report.shed),
    );
    let compactions = report.engine.stats().wal_compactions;
    drop(report);
    let mut recovered = verify_recovery(
        &dir,
        &final_state.edges,
        &final_state.expected,
        &keys[..8],
        &mut outcome,
    );
    if !config.trace {
        drop((recovered, model, final_state));
        std::fs::remove_dir_all(&dir).ok();
        setup.finish(&mut outcome, read_us.best * 1e6, read_qps.best);
        return outcome;
    }

    // How many transactions the log holds depends on how far the writer got,
    // and replaying one costs milliseconds on this model: fold the log into
    // the snapshot, so that every restart below does the same work — load the
    // snapshot, materialize the model, answer.
    recovered.compact().expect("compaction succeeds");
    drop(recovered);
    let mut tracer = clock.sharing_clock();
    tracer.enabled = true;
    let restarts = restart_cycles(
        config.batches(0, RESTARTS).1,
        || Engine::open_durable(&dir).expect("data directory recovers"),
        ("durability.recover", "durability.first_query"),
        keys[0],
        final_state.expected[&keys[0]],
        &mut tracer,
        &mut outcome,
    );
    std::fs::remove_dir_all(&dir).ok();

    outcome.set("durability.recover_ms", median(&restarts.open) * 1e3);
    outcome.set(
        "durability.first_query_ms",
        median(&restarts.first_query) * 1e3,
    );
    outcome.set("durability.compactions", compactions as f64);
    outcome.set("server.group_commits", group_commits);
    outcome.set("server.txns_per_fsync", group_txns / group_commits.max(1.0));
    set_server_metrics(
        &mut outcome,
        metrics_before,
        metrics_after,
        (reads + committed) as u64,
        reads as u64,
    );
    outcome.set("server.shed", 0.0);
    let request_seconds: Vec<f64> = measured
        .iter()
        .flat_map(|b| b.requests.iter().copied())
        .collect();
    let (read_p50_us, read_p99_us) = percentiles_us(&request_seconds);
    outcome.set("client.read_p50_us", read_p50_us);
    outcome.set("client.mixed_read_p99_us", read_p99_us);
    let (txn_p50_us, txn_p99_us) = percentiles_us(&txn_seconds);
    outcome.set("client.txn_p50_us", txn_p50_us);
    outcome.set("client.txn_p99_us", txn_p99_us);
    outcome.set(
        "client.txn_stall_max_ms",
        txn_seconds.iter().copied().fold(0.0, f64::max) * 1e3,
    );
    outcome.set(
        "client.read_qps_overall",
        (batches * PIPELINED_BATCH) as f64
            / measured
                .iter()
                .map(|b| b.windows.iter().sum::<f64>())
                .sum::<f64>(),
    );
    outcome.set("client.txn_per_s_overall", txn_rate_overall);
    outcome.set(
        "bench.trace_overhead_pct",
        trace_overhead_pct(&time_per_read, SLICES, Better::Lower),
    );
    outcome.set("engine.load_ms", load_seconds * 1e3);
    outcome.set("engine.materialize_ms", serve_seconds * 1e3);

    tracer.adopt(reader_tracer);
    let replayed = &streams[0].ops[..6];
    let maintained_seconds = replay_maintenance(&model, replayed, &mut tracer, &mut outcome);
    outcome.set(
        "server.wire_txn_overhead_us",
        (txn.median - maintained_seconds) * 1e6,
    );
    super::finish_trace(&tracer, config, "serve_mixed", &mut outcome);
    outcome
}
