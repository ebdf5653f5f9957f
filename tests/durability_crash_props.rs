//! Crash tests for the durable engine, run on the simulated disk of
//! `tests/support`: whatever a crash keeps under the persistence rules — a
//! kill between commits, a write cut short, an unsynced rename, a failed disk
//! call, a flipped bit in the tail, an interrupted compaction — recovery must
//! converge to *exactly* the reference evaluation of a committed prefix that
//! holds every acknowledged commit.
//!
//! The harness drives four fault models:
//!
//! * **crash states** — after every disk call of a scripted session, every
//!   state the persistence rules let a crash leave (unsynced bytes and
//!   unsynced directory entries lost, writes cut short) is recovered and
//!   checked against the admissible outcomes;
//! * **failed calls** — the same session with one disk call failing, at each
//!   call in turn, and the crash states after it;
//! * **log truncation** — the log cut at every byte offset;
//! * **tail corruption** — a byte of the log flipped, emulating media damage
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

mod support;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use factorlog::engine::WAL_FILE;
use factorlog::prelude::*;
use factorlog::workloads::programs;
use proptest::prelude::*;
use support::{check_crash_states, Checked, Fault, Memo, Script, SimDisk};

/// The data directory of every session on a simulated disk.
const DIR: &str = "/data";

fn c(i: i64) -> Const {
    Const::Int(i)
}

fn wal_path() -> PathBuf {
    Path::new(DIR).join(WAL_FILE)
}

/// Durability options for crash tests: fsync on (every acknowledged commit is
/// synced, so a crash may lose only what is in flight) and manual compaction
/// only (each scenario controls its own snapshot points).
fn test_dopts() -> DurabilityOptions {
    DurabilityOptions {
        fsync: true,
        compact_threshold: u64::MAX,
    }
}

fn open_on(disk: &SimDisk, options: DurabilityOptions) -> Result<Engine, EngineError> {
    Engine::open_durable_on(disk.arc(), DIR, options, EvalOptions::default())
}

fn open_durable(disk: &SimDisk) -> Engine {
    open_on(disk, test_dopts()).expect("durable open succeeds")
}

/// One logged event of a session history: each applies as exactly one WAL record.
#[derive(Clone, Debug)]
enum Event {
    /// Absorbed source text (rules and/or bulk facts) — one `Source` record.
    Source(String),
    /// A committed batch — one `Txn` record. `kind == 0` retracts, else asserts.
    Batch(Vec<(usize, &'static str, i64, i64)>),
    /// An explicit compaction: no record, the same state.
    Compact,
}

/// Apply one event to an engine (in-memory ledger and durable sessions share this
/// path, so both see identical histories).
fn try_event(engine: &mut Engine, event: &Event) -> Result<(), EngineError> {
    match event {
        Event::Source(text) => engine.load_source(text).map(|_| ()),
        Event::Batch(ops) => {
            let mut txn = engine.transaction();
            for &(kind, predicate, a, b) in ops {
                if kind == 0 {
                    txn.retract(predicate, &[c(a), c(b)]);
                } else {
                    txn.assert(predicate, &[c(a), c(b)]);
                }
            }
            txn.commit().map(|_| ())
        }
        Event::Compact if engine.is_durable() => engine.compact().map(|_| ()),
        Event::Compact => Ok(()),
    }
}

fn apply_event(engine: &mut Engine, event: &Event) {
    try_event(engine, event).expect("event applies");
}

/// A base-fact store as a comparable set of (predicate, tuple) strings.
type Facts = BTreeSet<(String, Vec<String>)>;

/// The base-fact store as [`Facts`].
fn edb_facts(db: &Database) -> Facts {
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

/// The acceptance assertion: recovery of `disk` converges to `expected` (an
/// in-memory session that applied exactly the surviving history) — same base facts,
/// same program, a materialized model (every predicate) equal to the reference model
/// of that EDB, and the reference answers from both the materialized and the
/// prepared path.
fn assert_recovers_to(disk: &SimDisk, expected: &Engine, query: &Query) {
    let mut recovered = open_durable(disk);
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

/// Build a durable session on `disk` from `history`, returning the log's record
/// boundaries (byte offsets after the header and after each event's record).
fn build_durable_history(disk: &SimDisk, history: &[Event]) -> Vec<u64> {
    let mut engine = open_durable(disk);
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

/// `files` with the log replaced by `log`.
fn with_log(files: &support::Files, log: &[u8]) -> SimDisk {
    let mut files = files.clone();
    files.insert(wal_path(), log.to_vec());
    SimDisk::with_files(&files)
}

/// What a session looks like after each of its steps, for matching a
/// recovered session: base facts, program, and the reference model.
struct Outcomes(Vec<(Facts, Program, ReferenceModel)>);

impl Outcomes {
    /// The outcome of every prefix of `history` (index `k` = after `k` events).
    fn of(history: &[Event]) -> Outcomes {
        let mut ledger = Engine::new();
        let mut outcomes = Vec::new();
        for k in 0..=history.len() {
            if k > 0 {
                apply_event(&mut ledger, &history[k - 1]);
            }
            let reference = naive_evaluate(ledger.program(), ledger.facts()).expect("reference");
            outcomes.push((
                edb_facts(ledger.facts()),
                ledger.program().clone(),
                reference,
            ));
        }
        Outcomes(outcomes)
    }

    /// Open a crash state and return the outcomes it matches, after checking
    /// that its recovered model is the reference model of what it holds.
    fn recover(&self, disk: &SimDisk, options: DurabilityOptions) -> Result<Vec<usize>, String> {
        let mut engine = open_on(disk, options).map_err(|e| format!("recovery fails: {e}"))?;
        let facts = edb_facts(engine.facts());
        let matches: Vec<usize> = (0..self.0.len())
            .filter(|&k| self.0[k].0 == facts && self.0[k].1 == *engine.program())
            .collect();
        let model = engine.refreshed_model().map_err(|e| e.to_string())?;
        if let Some(&k) = matches.first() {
            if ReferenceModel::from(&model) != self.0[k].2 {
                return Err(format!(
                    "the model recovered as outcome {k} is not its reference"
                ));
            }
        }
        Ok(matches)
    }
}

/// Run `history` on a recording disk (with one disk call failing when `fail`
/// says so), stopping at the first step that fails, as a process that saw a
/// disk error would. Returns the disk, its admissible-outcome script and the
/// call that ends the run.
fn scripted_run(
    history: &[Event],
    options: DurabilityOptions,
    fail: Option<usize>,
) -> (SimDisk, Script) {
    let disk = SimDisk::recording();
    if let Some(call) = fail {
        disk.fail_at(call, Fault::Error);
    }
    let mut script = Script::default();
    let Ok(mut engine) = open_on(&disk, options) else {
        return (disk, script);
    };
    for (i, event) in history.iter().enumerate() {
        script.start(&disk, i + 1);
        if try_event(&mut engine, event).is_err() {
            break;
        }
        script.ack(&disk, i + 1);
    }
    (disk, script)
}

/// The tentpole harness. A scripted session — rules, bulk loads, commits with
/// fsync on, threshold compactions and an explicit one — runs on a recording
/// disk; after each of its disk calls every crash state is recovered and must
/// be a committed prefix holding every acknowledged step. Then the session
/// runs again once per disk call with that call failing, and every crash state
/// from the failure to the end of the run is checked the same way.
#[test]
fn every_crash_state_of_a_scripted_session_recovers_an_admissible_prefix() {
    let mut history = scripted_history();
    history.insert(5, Event::Compact);
    history.extend((10..16).map(|i| Event::Batch(vec![(1, "e", i, i + 1)])));
    let options = DurabilityOptions {
        fsync: true,
        compact_threshold: 320,
    };
    let outcomes = Outcomes::of(&history);
    let mut memo = Memo::default();
    let mut checked = Checked::default();
    let recover = |disk: &SimDisk| outcomes.recover(disk, options);

    let (disk, script) = scripted_run(&history, options, None);
    let calls = disk.calls();
    let compactions = disk
        .history()
        .iter()
        .filter(|(label, _)| label.starts_with("rename"))
        .count();
    assert!(
        compactions >= 3,
        "threshold and explicit compactions ran: {compactions}"
    );
    if let Err(trace) =
        check_crash_states(&disk, &script, 0..calls, &mut memo, &mut checked, recover)
    {
        panic!("{trace}");
    }
    for fail in 0..calls {
        let (disk, script) = scripted_run(&history, options, Some(fail));
        let end = disk.calls();
        if let Err(trace) =
            check_crash_states(&disk, &script, fail..end, &mut memo, &mut checked, recover)
        {
            panic!("with call {fail} failing:\n{trace}");
        }
    }
    assert!(checked.recovered > 100, "{checked:?}");
}

#[test]
fn log_truncation_at_every_byte_offset_recovers_the_committed_prefix() {
    let history = scripted_history();
    let disk = SimDisk::new();
    let boundaries = build_durable_history(&disk, &history);
    let files = disk.volatile_files();
    let full = files[&wal_path()].clone();
    assert_eq!(*boundaries.last().unwrap(), full.len() as u64);
    let query = parse_query("t(0, Y)").unwrap();

    for cut in boundaries[0]..=full.len() as u64 {
        // The crash: everything past `cut` is lost.
        let crashed = with_log(&files, &full[..cut as usize]);
        let survivors = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
        let at_boundary = boundaries.contains(&cut);
        let expected = ledger_after(&history, survivors);
        if at_boundary {
            // Record boundaries are the commit points: run the full check.
            assert_recovers_to(&crashed, &expected, &query);
        } else {
            // Mid-record tears: the torn record must vanish (cheap check; the
            // boundaries get the full one).
            let mut recovered = open_durable(&crashed);
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
}

/// A commit whose log append fails leaves memory untouched, a crash that
/// keeps a torn piece of its record recovers the history before it, and the
/// live session cuts the torn bytes off and keeps committing.
#[test]
fn torn_log_append_fails_the_commit_but_keeps_history() {
    let disk = SimDisk::recording();
    let query = parse_query("t(0, Y)").unwrap();
    let mut engine = open_durable(&disk);
    engine.load_source(programs::THREE_RULE_TC).unwrap();
    engine.insert("e", &[c(0), c(1)]).unwrap();
    // A batch large enough to tear in several places, whose fsync fails.
    let write = disk.calls();
    disk.fail_at(write + 1, Fault::Error);
    let mut txn = engine.transaction();
    for i in 10..40 {
        txn.assert("e", &[c(i), c(i + 1)]);
    }
    let err = txn.commit().unwrap_err();
    assert!(matches!(err, EngineError::Durability(_)), "{err}");
    // The failed commit did not apply in memory…
    assert_eq!(engine.facts().count("e"), 1);
    // …and a crash that keeps a torn piece of its record recovers the first
    // commit, truncating the torn bytes.
    let history = disk.history();
    let (label, state) = &history[write + 1];
    assert!(label.ends_with("[failed]"), "{label}");
    let mut torn = 0;
    for (files, kept) in state.crash_states() {
        if !kept.contains("byte(s) of a") {
            continue;
        }
        torn += 1;
        let mut reopened = open_durable(&SimDisk::with_files(&files));
        let report = reopened.recovery_report().unwrap().clone();
        assert!(report.torn_bytes_truncated > 0, "{kept}");
        assert_eq!(reopened.stats().wal_torn_truncations, 1);
        assert_eq!(reopened.query(&query).unwrap(), vec![vec![c(1)]], "{kept}");
        // The reopened session appends cleanly where the tear was.
        reopened.insert("e", &[c(1), c(2)]).unwrap();
        assert_eq!(reopened.query(&query).unwrap().len(), 2);
    }
    assert!(torn >= 2, "the record tears at several sector boundaries");
    // The live session cut the record off again and keeps committing.
    engine.insert("e", &[c(1), c(2)]).unwrap();
    drop(engine);
    let mut reopened = open_durable(&SimDisk::with_files(&disk.durable_files()));
    assert_eq!(
        reopened.query(&query).unwrap(),
        vec![vec![c(1)], vec![c(2)]]
    );
}

/// A failed append that cannot be cut off again poisons the log: later
/// commits fail with an error naming the recovery path, and reopening the
/// directory recovers every acknowledged commit.
#[test]
fn poisoned_wal_names_the_recovery_path_and_reopen_recovers() {
    let disk = SimDisk::new();
    let query = parse_query("t(2, Y)").unwrap();
    let mut engine = open_durable(&disk);
    engine.load_source("t(X, Y) :- e(X, Y).").unwrap();
    engine.insert("e", &[c(1), c(2)]).unwrap();
    // The next append's write fails, and so does cutting the file back.
    let write = disk.calls();
    disk.fail_at(write, Fault::Error);
    disk.fail_at(write + 1, Fault::Error);
    assert!(engine.insert("e", &[c(2), c(3)]).is_err());
    let blocked = engine.insert("e", &[c(3), c(4)]).unwrap_err().to_string();
    assert!(blocked.contains("reopen the data directory"), "{blocked}");
    drop(engine);
    // Reopening truncates the torn record and recovers.
    let mut reopened = open_durable(&disk);
    assert_eq!(reopened.facts().count("e"), 1);
    reopened.insert("e", &[c(2), c(3)]).unwrap();
    assert_eq!(reopened.query(&query).unwrap(), vec![vec![c(3)]]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A writer killed at a random disk call of a random session: every state
    /// the crash can leave recovers a committed prefix holding every
    /// acknowledged commit — so at most the in-flight commit is lost.
    #[test]
    fn killed_writers_lose_only_the_in_flight_commit(
        ops in prop::collection::vec((0usize..3, 0i64..8, 0i64..8), 4..32),
        batch_size in 1usize..5,
        kill_at in 0usize..900,
        start in 0i64..8,
    ) {
        let query = parse_query(&format!("t({start}, Y)")).unwrap();
        let mut history = vec![Event::Source(programs::THREE_RULE_TC.to_string())];
        history.extend(
            ops.chunks(batch_size)
                .map(|chunk| Event::Batch(chunk.iter().map(|&(k, a, b)| (k, "e", a, b)).collect())),
        );
        let (disk, script) = scripted_run(&history, test_dopts(), None);
        let kill = kill_at % disk.calls();
        let outcomes = Outcomes::of(&history);
        let (mut memo, mut checked) = (Memo::default(), Checked::default());
        let result = check_crash_states(&disk, &script, kill..kill + 1, &mut memo, &mut checked, |disk| {
            outcomes.recover(disk, test_dopts())
        });
        prop_assert!(result.is_ok(), "{}", result.unwrap_err());
        prop_assert!(checked.states > 0);
        // The kill that keeps every unsynced byte also answers queries and
        // prepared plans like the ledger of what it recovered.
        let (_, state) = &disk.history()[kill];
        let (files, _) = state.crash_states().pop().unwrap();
        let crashed = SimDisk::with_files(&files);
        let survivors = outcomes.recover(&crashed, test_dopts()).unwrap()[0];
        assert_recovers_to(&crashed, &ledger_after(&history, survivors), &query);
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
        let disk = SimDisk::new();
        let boundaries = build_durable_history(&disk, &history);
        let files = disk.volatile_files();
        let mut bytes = files[&wal_path()].clone();

        // Flip one byte somewhere past the header (wrapped into range): the record
        // containing it — and everything after, which can no longer be trusted —
        // must be dropped by recovery.
        let header = boundaries[0];
        let offset = header + corrupt_at % (bytes.len() as u64 - header);
        bytes[offset as usize] ^= 0x41;
        let survivors = boundaries.iter().filter(|&&b| b <= offset).count() - 1;
        prop_assert!(survivors < history.len(), "corruption must damage a record");

        let expected = ledger_after(&history, survivors);
        assert_recovers_to(&with_log(&files, &bytes), &expected, &query);
    }

    #[test]
    fn snapshot_then_txns_then_crash_equals_the_uncrashed_session(
        before in prop::collection::vec((0usize..3, 0i64..8, 0i64..8), 1..20),
        after in prop::collection::vec((0usize..3, 0i64..8, 0i64..8), 1..16),
        batch_size in 1usize..4,
        start in 0i64..8,
    ) {
        let query = parse_query(&format!("t({start}, Y)")).unwrap();
        let disk = SimDisk::new();
        let mut durable = open_durable(&disk);
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

        // …then the crash, keeping only what was synced. Recovery must replay
        // snapshot + log tail into exactly the no-crash session: same EDB, same
        // program, the reference model and answers, same prepared-plan cache
        // rebuild.
        let crashed = SimDisk::with_files(&disk.durable_files());
        drop(durable);
        assert_recovers_to(&crashed, &ledger, &query);
    }
}

#[test]
fn readers_mid_compaction_see_the_old_or_new_image_never_a_torn_one() {
    // Deterministic walk of every compaction crash window: a reader opening the
    // directory as a crash at any disk call of the compaction left it must see
    // the full committed state — served by the old image + full log before the
    // rename is durable, and by the new image (with the stale log
    // sequence-skipped) after it.
    let history = scripted_history();
    let disk = SimDisk::recording();
    build_durable_history(&disk, &history);
    let mut engine = open_durable(&disk);
    let first = disk.calls();
    engine.compact().expect("compaction succeeds");
    let query = parse_query("t(0, Y)").unwrap();
    let expected = ledger_after(&history, history.len());
    let disk_history = disk.history();
    let mut expected_more = ledger_after(&history, history.len());
    expected_more.insert("e", &[c(70), c(71)]).unwrap();
    let mut images = BTreeSet::new();
    for (call, (label, state)) in disk_history.iter().enumerate().skip(first) {
        for (files, kept) in state.crash_states() {
            let crashed = SimDisk::with_files(&files);
            let mut reopened = open_durable(&crashed);
            let report = reopened.recovery_report().unwrap().clone();
            assert_eq!(
                edb_facts(reopened.facts()),
                edb_facts(expected.facts()),
                "crash after call {call} ({label}), keeping {kept}"
            );
            if report.snapshot_seq == history.len() as u64 {
                // The new image: every log record it finds is stale (all of
                // them, or none once the log was reset).
                assert_eq!(report.records_replayed, 0, "{report:?}");
                assert!([0, history.len()].contains(&report.records_skipped));
            } else {
                assert_eq!(report.records_replayed, history.len(), "{report:?}");
            }
            images.insert(report.snapshot_loaded);
            // The reopened writer keeps committing, exactly once over the image.
            reopened.insert("e", &[c(70), c(71)]).unwrap();
            assert_eq!(
                edb_facts(reopened.facts()),
                edb_facts(expected_more.facts())
            );
        }
    }
    assert_eq!(images.len(), 2, "crashes land before and after the rename");
    assert_recovers_to(
        &SimDisk::with_files(&disk.durable_files()),
        &expected,
        &query,
    );
    engine.insert("e", &[c(70), c(71)]).unwrap();
    assert_eq!(
        engine.query(&query).unwrap(),
        reference_answers(&expected_more, &query)
    );
}

#[test]
fn threshold_compactions_under_churn_stay_recoverable() {
    // Automatic compaction interleaved with commits: whatever mix of snapshot and
    // log the churn leaves behind, a crash-reopen converges.
    let disk = SimDisk::new();
    let options = DurabilityOptions {
        fsync: true,
        compact_threshold: 192,
    };
    let mut durable = open_on(&disk, options).expect("open");
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
    let crashed = SimDisk::with_files(&disk.durable_files());
    drop(durable);
    let query = parse_query("t(0, Y)").unwrap();
    assert_recovers_to(&crashed, &ledger, &query);
}
