//! Property tests for the hash-keyed secondary indexes of the storage layer: the
//! indexed access paths of the compiled join pipeline must be *observationally
//! identical* to the scan fallback, no matter how relations, patterns, and index sets
//! are chosen, and no matter how `insert` / `ensure_index` / `clear` interleave.
//! An index built over a relation's existing rows must chain them exactly as one
//! maintained while they were inserted. A model-based test then drives every
//! mutation the relation has — removals included — against a `BTreeSet`, and a
//! complexity guard pins removal to the size of the delta.

use std::collections::{BTreeMap, BTreeSet};

use factorlog::datalog::ast::Const;
use factorlog::datalog::storage::{hash_key, IndexId, Relation, RowId};
use proptest::prelude::*;

fn c(i: i64) -> Const {
    Const::Int(i)
}

fn build(arity: usize, rows: &[Vec<i64>]) -> Relation {
    let mut r = Relation::new(arity);
    for row in rows {
        let tuple: Vec<Const> = row.iter().map(|&v| c(v)).collect();
        r.insert(&tuple);
    }
    r
}

/// A constant for the model test: mostly integers, every fifth value symbolic.
fn value(v: i64) -> Const {
    if v % 5 == 4 {
        Const::sym(&format!("s{v}"))
    } else {
        c(v)
    }
}

/// The model test's tuple for a drawn `(a, b, x)`: three quarters of the tuples
/// share the hub key `0` in column 0, so one chain holds most rows.
fn tuple_of(arity: usize, (a, b, x): (i64, i64, i64)) -> Vec<Const> {
    let hub = if a < 30 { c(0) } else { value(a) };
    [hub, value(b), value(x)][..arity].to_vec()
}

/// Everything observable about `r` agrees with `model`: size, membership, the
/// iterated set, and — through the handles in `built`, taken when each index was
/// first ensured — every index probe.
fn assert_agrees(r: &Relation, model: &BTreeSet<Vec<Const>>, built: &[(Vec<usize>, IndexId)]) {
    assert_eq!(r.len(), model.len());
    assert_eq!(r.is_empty(), model.is_empty());
    let rows: Vec<Vec<Const>> = r.iter().map(<[Const]>::to_vec).collect();
    assert_eq!(rows.len(), model.len(), "a row is stored twice");
    assert_eq!(&rows.iter().cloned().collect::<BTreeSet<_>>(), model);
    assert!(model.iter().all(|tuple| r.contains(tuple)));
    for (columns, id) in built {
        assert_eq!(r.index_on(columns), Some(*id), "handle moved");
        assert_eq!(r.index_columns(*id), columns.as_slice());
        let key_of = |tuple: &[Const]| columns.iter().map(|&i| tuple[i]).collect::<Vec<_>>();
        let mut expected: BTreeMap<Vec<Const>, BTreeSet<Vec<Const>>> = BTreeMap::new();
        for tuple in model {
            expected
                .entry(key_of(tuple))
                .or_default()
                .insert(tuple.clone());
        }
        // A key no tuple has must probe empty.
        expected.insert(vec![c(-1); columns.len()], BTreeSet::new());
        for (key, tuples) in &expected {
            let verified: Vec<Vec<Const>> = r
                .probe_candidates(*id, hash_key(key))
                .map(|row| r.row(row).to_vec())
                .filter(|tuple| key_of(tuple) == *key)
                .collect();
            assert_eq!(verified.len(), tuples.len(), "a row is chained twice");
            assert_eq!(&verified.into_iter().collect::<BTreeSet<_>>(), tuples);
            assert_eq!(
                r.probe(columns, key).expect("index exists").len(),
                tuples.len()
            );
        }
    }
}

/// A clone, the model it was taken at, and the index handles known by then.
type Snapshot = (Relation, BTreeSet<Vec<Const>>, Vec<(Vec<usize>, IndexId)>);

/// Reference implementation: scan the relation for rows matching the pattern.
fn scan_select(r: &Relation, pattern: &[Option<Const>]) -> Vec<RowId> {
    let mut out = Vec::new();
    for id in 0..r.len() as RowId {
        let row = r.row(id);
        if pattern
            .iter()
            .enumerate()
            .all(|(i, p)| p.is_none() || *p == Some(row[i]))
        {
            out.push(id);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Relation::select` answers identically with and without a covering index, and
    /// `Relation::select_scanning` beside the index, for every bound-column mask and
    /// probe-value combination. The tuple domain is small
    /// on purpose, so duplicate keys (multi-row buckets) occur constantly.
    #[test]
    fn indexed_select_matches_scan(
        raw_rows in prop::collection::vec((0i64..6, 0i64..6, 0i64..6), 0..40),
        mask in 0usize..8,
        p0 in 0i64..6,
        p1 in 0i64..6,
        p2 in 0i64..6,
    ) {
        let rows: Vec<Vec<i64>> = raw_rows.iter().map(|&(a, b, x)| vec![a, b, x]).collect();
        let unindexed = build(3, &rows);
        let mut indexed = build(3, &rows);
        let bound: Vec<usize> = (0..3).filter(|i| mask & (1 << i) != 0).collect();
        indexed.ensure_index(&bound);
        let probe = [p0, p1, p2];
        let pattern: Vec<Option<Const>> = (0..3)
            .map(|i| (mask & (1 << i) != 0).then(|| c(probe[i])))
            .collect();

        let reference = scan_select(&unindexed, &pattern);
        let mut via_plain = Vec::new();
        unindexed.select(&pattern, &mut via_plain);
        let mut via_index = Vec::new();
        indexed.select(&pattern, &mut via_index);
        // The scanning variant ignores the index and still agrees.
        let mut via_scan = Vec::new();
        indexed.select_scanning(&pattern, &mut via_scan);

        via_plain.sort_unstable();
        via_index.sort_unstable();
        prop_assert_eq!(&via_plain, &reference);
        prop_assert_eq!(&via_index, &reference);
        prop_assert_eq!(&via_scan, &reference);

        // The raw probe API agrees too (when the mask names a nontrivial index).
        if !bound.is_empty() && bound.len() < 3 {
            let key: Vec<Const> = bound.iter().map(|&i| pattern[i].unwrap()).collect();
            let mut probed = indexed.probe(&bound, &key).expect("index exists");
            probed.sort_unstable();
            prop_assert_eq!(&probed, &reference);
        }
    }

    /// Hash-bucket candidates, verified against the flat store, equal the scan result
    /// — the invariant the join pipeline's binding-loop verification relies on.
    #[test]
    fn probe_candidates_contain_exactly_the_matches_after_verification(
        raw_rows in prop::collection::vec((0i64..6, 0i64..6), 0..50),
        key in 0i64..6,
    ) {
        let rows: Vec<Vec<i64>> = raw_rows.iter().map(|&(a, b)| vec![a, b]).collect();
        let mut r = build(2, &rows);
        let id = r.ensure_index(&[0]).expect("nontrivial index on arity 2");
        let key_consts = [c(key)];
        let mut verified: Vec<RowId> = r
            .probe_candidates(id, hash_key(&key_consts))
            .filter(|&row| r.row(row)[0] == c(key))
            .collect();
        verified.sort_unstable();
        let pattern = vec![Some(c(key)), None];
        let reference = scan_select(&r, &pattern);
        prop_assert_eq!(verified, reference);
    }

    /// Index contents survive arbitrary interleavings of insert, ensure_index and
    /// clear: after the dust settles, every built index answers exactly like a scan,
    /// and duplicate detection is still intact.
    #[test]
    fn indexes_survive_interleaved_mutation(
        ops in prop::collection::vec((0usize..10, 0i64..6, 0i64..6), 1..60),
        probe in 0i64..6,
    ) {
        let mut r = Relation::new(2);
        let mut built: Vec<Vec<usize>> = Vec::new();
        for &(op, a, b) in &ops {
            match op {
                // Clears are rare (index definitions must survive them).
                0 => r.clear(),
                // Occasionally build an index mid-stream, on either column.
                1 | 2 => {
                    let cols = vec![op - 1];
                    r.ensure_index(&cols);
                    if !built.contains(&cols) {
                        built.push(cols);
                    }
                }
                _ => {
                    r.insert(&[c(a), c(b)]);
                }
            }
        }
        for cols in &built {
            let key = [c(probe)];
            let mut probed = r.probe(cols, &key).expect("built index exists");
            probed.sort_unstable();
            let pattern: Vec<Option<Const>> = (0..2)
                .map(|i| cols.contains(&i).then(|| c(probe)))
                .collect();
            let reference = scan_select(&r, &pattern);
            prop_assert_eq!(probed, reference, "index on {:?} diverged from scan", cols);
        }
        // Duplicate detection stays intact after clears and re-inserts.
        let before = r.len();
        for id in 0..r.len() as RowId {
            let row = r.row(id).to_vec();
            prop_assert!(!r.insert(&row), "existing row re-inserted as new");
        }
        prop_assert_eq!(r.len(), before);
    }

    /// An index built over rows a relation already holds (in bulk) chains them as
    /// one maintained while they were inserted: for every key, the same rows in the
    /// same probe order. Hub keys make long chains, symbolic values take the generic
    /// hash path, and the row counts cross several table doublings.
    #[test]
    fn a_bulk_built_index_chains_rows_as_an_incremental_one(
        arity in 2usize..4,
        drawn in prop::collection::vec((0i64..40, 0i64..300, 0i64..3), 0..400),
        choice in 0usize..3,
    ) {
        let columns = match (choice, arity) {
            (0, _) => vec![0],
            (2, 3) => vec![0, 1],
            _ => vec![1],
        };
        let tuples: Vec<Vec<Const>> = drawn.iter().map(|&d| tuple_of(arity, d)).collect();
        let mut bulk = Relation::new(arity);
        for tuple in &tuples {
            bulk.insert(tuple);
        }
        let bulk_index = bulk.ensure_index(&columns).expect("nontrivial index");
        let mut incremental = Relation::new(arity);
        let incremental_index = incremental.ensure_index(&columns).expect("nontrivial index");
        for tuple in &tuples {
            incremental.insert(tuple);
        }
        let keys: BTreeSet<Vec<Const>> = tuples
            .iter()
            .map(|tuple| columns.iter().map(|&i| tuple[i]).collect())
            .chain([vec![c(-1); columns.len()]])
            .collect();
        for key in &keys {
            let bulk_chain: Vec<RowId> = bulk.probe_candidates(bulk_index, hash_key(key)).collect();
            let chain: Vec<RowId> =
                incremental.probe_candidates(incremental_index, hash_key(key)).collect();
            prop_assert_eq!(bulk_chain, chain, "chain of {:?}", key);
        }
    }

    /// Model-based: random interleavings of every mutation against a `BTreeSet`, all
    /// observations compared after each step. Arity 0 and 1 have no index to build;
    /// the tuple domain is wide enough for the tables to double several times, and
    /// removals mostly pick a stored row, so chains and probe runs are taken apart
    /// as often as they are built.
    #[test]
    fn storage_agrees_with_a_set_model(
        arity in 0usize..4,
        ops in prop::collection::vec((0usize..24, (0i64..40, 0i64..300, 0i64..3)), 1..500),
    ) {
        let mut r = Relation::new(arity);
        let mut model: BTreeSet<Vec<Const>> = BTreeSet::new();
        let mut built: Vec<(Vec<usize>, IndexId)> = Vec::new();
        // A clone and the model it was taken at: later mutation must not reach it.
        let mut snapshot: Option<Snapshot> = None;
        for &(op, drawn) in &ops {
            let tuple = tuple_of(arity, drawn);
            match op {
                0 => {
                    r.clear();
                    model.clear();
                }
                1 | 2 => {
                    let columns: Vec<usize> = match drawn.1 % 4 {
                        0 => vec![0],
                        1 => vec![1],
                        2 => vec![0, 1],
                        _ => vec![2],
                    };
                    let nontrivial = columns.len() < arity && columns.iter().all(|&i| i < arity);
                    if nontrivial {
                        let id = r.ensure_index(&columns).expect("nontrivial index");
                        match built.iter().find(|(have, _)| *have == columns) {
                            Some((_, first)) => prop_assert_eq!(*first, id),
                            None => built.push((columns, id)),
                        }
                    } else if columns.iter().all(|&i| i < arity) {
                        prop_assert_eq!(r.ensure_index(&columns), None);
                    }
                }
                3 => {
                    if let Some((clone, at, indexes)) = snapshot.take() {
                        assert_agrees(&clone, &at, &indexes);
                    }
                    snapshot = Some((r.clone(), model.clone(), built.clone()));
                }
                4 => {
                    // A batch: eight neighbours of the drawn tuple plus stored rows.
                    let mut doomed = Relation::new(arity);
                    for k in 0..8 {
                        doomed.insert(&tuple_of(arity, (drawn.0, drawn.1 + k, drawn.2)));
                    }
                    for id in (0..r.len() as RowId).step_by(7) {
                        doomed.insert(r.row(id));
                    }
                    let expected = doomed.iter().filter(|t| model.remove(*t)).count();
                    prop_assert_eq!(r.remove_all(&doomed), expected);
                }
                5..=9 if !r.is_empty() => {
                    let stored = r.row((drawn.1 as usize % r.len()) as RowId).to_vec();
                    prop_assert!(model.remove(&stored));
                    prop_assert!(r.remove(&stored));
                    prop_assert!(!r.remove(&stored));
                }
                5..=10 => prop_assert_eq!(r.remove(&tuple), model.remove(&tuple)),
                _ => prop_assert_eq!(r.insert(&tuple), model.insert(tuple.clone())),
            }
            prop_assert_eq!(r.contains(&tuple), model.contains(&tuple));
            assert_agrees(&r, &model, &built);
        }
        if let Some((clone, at, indexes)) = snapshot {
            assert_agrees(&clone, &at, &indexes);
        }
    }
}

/// Removal costs what the removed tuples cost, whatever the relation holds: the same
/// 10 000 single removals (16 rows per indexed key) from a relation 25 times larger
/// take minutes when every removal rebuilds the relation, and here the same time plus
/// cache misses. Gated on the ratio of the two (best of three each, so a descheduled
/// moment does not decide it), not on seconds, so a slow or loaded host cannot fail it.
#[test]
fn single_removals_do_not_scale_with_the_relation() {
    const REMOVALS: i64 = 10_000;
    let time_removals = |rows: i64| {
        let mut r = Relation::new(2);
        r.ensure_index(&[0]);
        for i in 0..rows {
            r.insert(&[c(i / 16), c(i)]);
        }
        let start = std::time::Instant::now();
        for k in 0..REMOVALS {
            let i = (k * 7919) % rows;
            assert!(r.remove(&[c(i / 16), c(i)]));
        }
        let elapsed = start.elapsed();
        assert_eq!(r.len(), (rows - REMOVALS) as usize);
        let left_of_key_0 = 16 - (0..REMOVALS).filter(|k| (k * 7919) % rows < 16).count();
        assert_eq!(r.probe(&[0], &[c(0)]).unwrap().len(), left_of_key_0);
        elapsed
    };
    let best = |rows: i64| (0..3).map(|_| time_removals(rows)).min().unwrap();
    let (small, large) = (best(20_000), best(500_000));
    assert!(
        large < small * 8,
        "10k removals: {small:?} from 20k rows, {large:?} from 500k"
    );
}
