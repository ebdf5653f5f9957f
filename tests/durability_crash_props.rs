//! Crash-injection tests for the durable engine: whatever byte the crash lands on
//! — a kill between commits, a torn write inside a record, a flipped bit in the
//! tail, an interrupted compaction — recovery must converge to *exactly* the
//! reference evaluation of the last fully committed transaction's EDB.
//!
//! The harness drives three fault models:
//!
//! * **log truncation** — the on-disk log is cut at every byte offset (the state a
//!   crashed kernel/device leaves after losing its tail);
//! * **writer kills** — the WAL writer's [`FaultPoint`] drops every byte past a
//!   budget and poisons the writer, emulating a process killed mid-`write(2)`;
//! * **tail corruption** — a byte of the log is flipped, emulating media damage
//!   caught by the per-record CRC.
//!
//! Plus the satellite scenarios: snapshot→txns→crash→recover equals the no-crash
//! session (prepared-plan rebuild and whole recovered model included), and readers
//! opening a directory mid-compaction see the old or the new image, never a torn
//! one.
//!
//! The in-memory sessions here are ledgers of which history survived: the tests
//! compare base facts and programs with them, and every answer or model with the
//! reference evaluator.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use factorlog::engine::wal::FaultPoint;
use factorlog::prelude::*;
use factorlog::workloads::programs;
use proptest::prelude::*;

fn c(i: i64) -> Const {
    Const::Int(i)
}

/// A scratch data directory, unique per test case and cleaned before use.
fn fresh_dir(tag: &str) -> PathBuf {
    static COUNTER: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("factorlog_crash_{tag}_{}_{n}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::remove_dir_all(dst).ok();
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

/// Durability options for crash tests: manual compaction only (each scenario
/// controls its own snapshot points) and no fsync (the tests model crash *points*,
/// not device write-back order; framing and recovery are fsync-independent).
fn test_dopts() -> DurabilityOptions {
    DurabilityOptions {
        fsync: false,
        compact_threshold: u64::MAX,
    }
}

fn open_durable(dir: &Path) -> Engine {
    Engine::open_durable_with(dir, test_dopts()).expect("durable open succeeds")
}

/// One logged event of a session history: each applies as exactly one WAL record.
#[derive(Clone, Debug)]
enum Event {
    /// Absorbed source text (rules and/or bulk facts) — one `Source` record.
    Source(String),
    /// A committed batch — one `Txn` record. `kind == 0` retracts, else asserts.
    Batch(Vec<(usize, &'static str, i64, i64)>),
}

/// Apply one event to an engine (in-memory ledger and durable sessions share this
/// path, so both see identical histories).
fn apply_event(engine: &mut Engine, event: &Event) {
    match event {
        Event::Source(text) => {
            engine.load_source(text).expect("source event applies");
        }
        Event::Batch(ops) => {
            let mut txn = engine.transaction();
            for &(kind, predicate, a, b) in ops {
                if kind == 0 {
                    txn.retract(predicate, &[c(a), c(b)]);
                } else {
                    txn.assert(predicate, &[c(a), c(b)]);
                }
            }
            txn.commit().expect("batch event commits");
        }
    }
}

/// The base-fact store as a comparable set of (predicate, tuple) strings.
fn edb_facts(db: &Database) -> BTreeSet<(String, Vec<String>)> {
    db.iter()
        .flat_map(|(predicate, relation)| {
            relation.iter().map(move |row| {
                (
                    predicate.to_string(),
                    row.iter().map(|value| value.to_string()).collect(),
                )
            })
        })
        .collect()
}

/// The answers the reference evaluator gives over `engine`'s program and facts.
fn reference_answers(engine: &Engine, query: &Query) -> Vec<Vec<Const>> {
    naive_evaluate(engine.program(), engine.facts())
        .expect("reference evaluation")
        .answers(query)
}

/// The acceptance assertion: recovery of `dir` converges to `expected` (an
/// in-memory session that applied exactly the surviving history) — same base facts,
/// same program, a materialized model (every predicate) equal to the reference model
/// of that EDB, and the reference answers from both the materialized and the
/// prepared path.
fn assert_recovers_to(dir: &Path, expected: &Engine, query: &Query) {
    let mut recovered = open_durable(dir);
    assert_eq!(
        edb_facts(recovered.facts()),
        edb_facts(expected.facts()),
        "EDB diverges"
    );
    assert_eq!(recovered.program(), expected.program(), "program diverges");
    let reference = naive_evaluate(recovered.program(), recovered.facts()).expect("reference");
    assert_eq!(
        ReferenceModel::from(&recovered.refreshed_model().expect("recovered model")),
        reference,
        "recovered model diverges from the reference"
    );
    let answers = recovered.query(query).expect("recovered query");
    assert_eq!(
        answers,
        reference.answers(query),
        "materialized answers diverge"
    );
    // Prepared plans rebuild from nothing after recovery and agree. The prepared
    // pipeline rejects queries over predicates the (possibly still empty) program
    // does not define.
    match recovered.query_prepared(query) {
        Ok(prepared) => assert_eq!(prepared, answers, "prepared answers diverge"),
        Err(_) => assert!(
            recovered
                .program()
                .rules_for(query.atom.predicate)
                .next()
                .is_none(),
            "prepared query fails on a defined predicate"
        ),
    }
}

/// A deterministic, reasonably rich history: bulk loads, single-edge commits,
/// rewire batches, IDB assertions (routed via `t__asserted`), and retractions.
fn scripted_history() -> Vec<Event> {
    vec![
        Event::Source(programs::THREE_RULE_TC.to_string()),
        Event::Source(
            "e(0, 1).\ne(1, 2).\ne(2, 3).\ne(3, 4).\nready.\ngreeting(0, \"Hello world\")."
                .to_string(),
        ),
        Event::Batch(vec![(1, "e", 4, 5), (1, "e", 5, 6)]),
        Event::Batch(vec![(0, "e", 2, 3), (1, "e", 2, 30), (1, "e", 30, 3)]),
        Event::Batch(vec![(1, "t", 6, 100)]), // asserted IDB fact
        Event::Source("s(X, Y) :- t(Y, X).".to_string()), // rules added mid-log
        Event::Batch(vec![(0, "t", 6, 100), (0, "e", 30, 3), (1, "e", 6, 7)]),
    ]
}

/// Build a durable session at `dir` from `history`, returning the log's record
/// boundaries (byte offsets after the header and after each event's record).
fn build_durable_history(dir: &Path, history: &[Event]) -> Vec<u64> {
    let mut engine = open_durable(dir);
    let mut boundaries = vec![engine.wal_len().expect("durable")];
    for event in history {
        apply_event(&mut engine, event);
        boundaries.push(engine.wal_len().expect("durable"));
    }
    boundaries
}

/// The ledger of `history[..k]`: an in-memory session that applied only those events.
fn ledger_after(history: &[Event], k: usize) -> Engine {
    let mut engine = Engine::new();
    for event in &history[..k] {
        apply_event(&mut engine, event);
    }
    engine
}

#[test]
fn log_truncation_at_every_byte_offset_recovers_the_committed_prefix() {
    let history = scripted_history();
    let dir = fresh_dir("cut");
    let boundaries = build_durable_history(&dir, &history);
    let wal_path = dir.join(factorlog::engine::WAL_FILE);
    let full = std::fs::read(&wal_path).unwrap();
    assert_eq!(*boundaries.last().unwrap(), full.len() as u64);
    let query = parse_query("t(0, Y)").unwrap();

    for cut in boundaries[0]..=full.len() as u64 {
        // The crash: everything past `cut` is lost.
        std::fs::write(&wal_path, &full[..cut as usize]).unwrap();
        let survivors = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
        let at_boundary = boundaries.contains(&cut);
        let expected = ledger_after(&history, survivors);
        if at_boundary {
            // Record boundaries are the commit points: run the full check.
            assert_recovers_to(&dir, &expected, &query);
        } else {
            // Mid-record tears: the torn record must vanish (cheap check; the
            // boundaries get the full one).
            let mut recovered = open_durable(&dir);
            assert_eq!(
                edb_facts(recovered.facts()),
                edb_facts(expected.facts()),
                "EDB diverges at cut {cut}"
            );
            assert_eq!(
                recovered.query(&query).unwrap(),
                reference_answers(&expected, &query),
                "answers diverge at cut {cut}"
            );
            let report = recovered.recovery_report().unwrap();
            assert_eq!(report.records_replayed, survivors);
            assert!(report.torn_bytes_truncated > 0, "cut {cut} tore a record");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn killed_writers_lose_only_the_in_flight_commit(
        ops in prop::collection::vec((0usize..3, 0i64..8, 0i64..8), 4..32),
        batch_size in 1usize..5,
        fault_budget in 0u64..900,
        start in 0i64..8,
    ) {
        let query = parse_query(&format!("t({start}, Y)")).unwrap();
        let dir = fresh_dir("kill");
        let mut durable = open_durable(&dir);
        let mut ledger = Engine::new();
        let program = Event::Source(programs::THREE_RULE_TC.to_string());
        apply_event(&mut durable, &program);
        apply_event(&mut ledger, &program);

        // Arm the fault after the program record: the writer will persist exactly
        // `fault_budget` more bytes, then "crash" — possibly mid-record.
        let armed = durable.set_wal_fault(Some(FaultPoint { budget: fault_budget }));
        prop_assert!(armed, "fault arms on a durable session");
        let mut crashed = false;
        for batch in ops.chunks(batch_size) {
            let mut txn = durable.transaction();
            for &(kind, a, b) in batch {
                if kind == 0 {
                    txn.retract("e", &[c(a), c(b)]);
                } else {
                    txn.assert("e", &[c(a), c(b)]);
                }
            }
            match txn.commit() {
                Ok(_) => {
                    // The commit is on disk: mirror it in the ledger.
                    let mut txn = ledger.transaction();
                    for &(kind, a, b) in batch {
                        if kind == 0 {
                            txn.retract("e", &[c(a), c(b)]);
                        } else {
                            txn.assert("e", &[c(a), c(b)]);
                        }
                    }
                    txn.commit().unwrap();
                }
                Err(EngineError::Durability(_)) => {
                    crashed = true;
                    break;
                }
                Err(other) => prop_assert!(false, "unexpected commit error: {other}"),
            }
        }
        if crashed {
            // The failed commit must not have half-applied in memory…
            prop_assert_eq!(edb_facts(durable.facts()), edb_facts(ledger.facts()));
            // …and the poisoned writer refuses everything afterwards.
            prop_assert!(matches!(
                durable.insert("e", &[c(90), c(91)]),
                Err(EngineError::Durability(_))
            ));
        }
        drop(durable);

        // Recovery converges to the last successful commit.
        assert_recovers_to(&dir, &ledger, &query);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_tail_bytes_drop_the_damaged_record_and_its_suffix(
        ops in prop::collection::vec((0usize..3, 0i64..8, 0i64..8), 3..24),
        batch_size in 1usize..4,
        corrupt_at in 0u64..2000,
        start in 0i64..8,
    ) {
        let query = parse_query(&format!("t({start}, Y)")).unwrap();
        let mut history = vec![Event::Source(programs::THREE_RULE_TC.to_string())];
        history.extend(
            ops.chunks(batch_size)
                .map(|chunk| Event::Batch(chunk.iter().map(|&(k, a, b)| (k, "e", a, b)).collect())),
        );
        let dir = fresh_dir("flip");
        let boundaries = build_durable_history(&dir, &history);
        let wal_path = dir.join(factorlog::engine::WAL_FILE);
        let mut bytes = std::fs::read(&wal_path).unwrap();

        // Flip one byte somewhere past the header (wrapped into range): the record
        // containing it — and everything after, which can no longer be trusted —
        // must be dropped by recovery.
        let header = boundaries[0];
        let offset = header + corrupt_at % (bytes.len() as u64 - header);
        bytes[offset as usize] ^= 0x41;
        std::fs::write(&wal_path, &bytes).unwrap();
        let survivors = boundaries.iter().filter(|&&b| b <= offset).count() - 1;
        prop_assert!(survivors < history.len(), "corruption must damage a record");

        let expected = ledger_after(&history, survivors);
        assert_recovers_to(&dir, &expected, &query);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_then_txns_then_crash_equals_the_uncrashed_session(
        before in prop::collection::vec((0usize..3, 0i64..8, 0i64..8), 1..20),
        after in prop::collection::vec((0usize..3, 0i64..8, 0i64..8), 1..16),
        batch_size in 1usize..4,
        start in 0i64..8,
    ) {
        let query = parse_query(&format!("t({start}, Y)")).unwrap();
        let dir = fresh_dir("interleave");
        let mut durable = open_durable(&dir);
        let mut ledger = Engine::new();

        let mut history = vec![Event::Source(programs::THREE_RULE_TC.to_string())];
        history.extend(
            before
                .chunks(batch_size)
                .map(|chunk| Event::Batch(chunk.iter().map(|&(k, a, b)| (k, "e", a, b)).collect())),
        );
        for event in &history {
            apply_event(&mut durable, event);
            apply_event(&mut ledger, event);
        }

        // Compact: the pre-snapshot history now lives in snapshot.fl, the log resets.
        let report = durable.compact().expect("compaction succeeds");
        prop_assert!(report.log_bytes_after < report.log_bytes_before);

        // k more transactions land in the fresh log…
        let tail: Vec<Event> = after
            .chunks(batch_size)
            .map(|chunk| Event::Batch(chunk.iter().map(|&(k, a, b)| (k, "e", a, b)).collect()))
            .collect();
        for event in &tail {
            apply_event(&mut durable, event);
            apply_event(&mut ledger, event);
        }
        let live_answers = durable.query(&query).expect("live query");
        prop_assert_eq!(&live_answers, &reference_answers(&ledger, &query));

        // …then the crash. Recovery must replay snapshot + log tail into exactly
        // the no-crash session: same EDB, same program, the reference model and
        // answers, same prepared-plan cache rebuild.
        drop(durable);
        assert_recovers_to(&dir, &ledger, &query);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn readers_mid_compaction_see_the_old_or_new_image_never_a_torn_one() {
    // Deterministic walk of every compaction crash window: a "reader" opening the
    // directory as a crashed compactor left it must see the full committed state —
    // served by the old snapshot + full log before the rename, and by the new
    // snapshot (with the stale log sequence-skipped) after it.
    let history = scripted_history();
    let base = fresh_dir("compaction_base");
    build_durable_history(&base, &history);
    let query = parse_query("t(0, Y)").unwrap();

    for fault in [
        FaultSite::CompactionAfterTempWrite,
        FaultSite::CompactionAfterRename,
    ] {
        let work = fresh_dir("compaction_work");
        copy_dir(&base, &work);
        let mut engine = open_durable(&work);
        engine.set_fault_injector(Some(FaultInjector::armed(fault, FaultAction::Error, 0)));
        let err = engine.compact().expect_err("injected fault fires");
        assert!(
            format!("{err}").contains("injected"),
            "unexpected error for {fault:?}: {err}"
        );
        drop(engine); // the crash

        // A concurrent reader's view of the interrupted directory (copied so the
        // reader's own recovery bookkeeping cannot disturb the crashed writer's
        // files): old or new image, identical content either way.
        let reader_view = fresh_dir("compaction_reader");
        copy_dir(&work, &reader_view);
        let mut expected = ledger_after(&history, history.len());
        assert_recovers_to(&reader_view, &expected, &query);

        // The writer's own restart also recovers, exactly once (no double-apply of
        // records the new snapshot already contains), and keeps committing.
        let mut reopened = open_durable(&work);
        assert_eq!(
            edb_facts(reopened.facts()),
            edb_facts(expected.facts()),
            "{fault:?}"
        );
        if fault == FaultSite::CompactionAfterRename {
            let report = reopened.recovery_report().unwrap();
            assert!(
                report.snapshot_loaded && report.records_replayed == 0,
                "after the rename every log record is stale: {report:?}"
            );
            assert_eq!(report.records_skipped, history.len());
        }
        reopened.insert("e", &[c(70), c(71)]).unwrap();
        expected.insert("e", &[c(70), c(71)]).unwrap();
        assert_eq!(
            reopened.query(&query).unwrap(),
            reference_answers(&expected, &query),
            "{fault:?}"
        );
        std::fs::remove_dir_all(&work).ok();
        std::fs::remove_dir_all(&reader_view).ok();
    }
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn threshold_compactions_under_churn_stay_recoverable() {
    // Automatic compaction interleaved with commits: whatever mix of snapshot and
    // log the churn leaves behind, a crash-reopen converges.
    let dir = fresh_dir("churn");
    let options = DurabilityOptions {
        fsync: false,
        compact_threshold: 192,
    };
    let mut durable = Engine::open_durable_with(&dir, options).expect("open");
    let mut ledger = Engine::new();
    let program = Event::Source(programs::THREE_RULE_TC.to_string());
    apply_event(&mut durable, &program);
    apply_event(&mut ledger, &program);
    for i in 0..40i64 {
        let event = if i % 7 == 3 {
            Event::Batch(vec![(0, "e", i - 3, i - 2), (1, "e", i - 3, 200 + i)])
        } else {
            Event::Batch(vec![(1, "e", i, i + 1)])
        };
        apply_event(&mut durable, &event);
        apply_event(&mut ledger, &event);
    }
    assert!(
        durable.stats().wal_compactions >= 2,
        "the 192-byte threshold must compact repeatedly: {}",
        durable.stats().wal_compactions
    );
    drop(durable);
    let query = parse_query("t(0, Y)").unwrap();
    assert_recovers_to(&dir, &ledger, &query);
    std::fs::remove_dir_all(&dir).ok();
}
