//! Input generation for the serving workloads.
//!
//! The *shape* of every input (component sizes, which component is hot, where a
//! transaction attaches its edges) is fixed by the workload definition, so the
//! amount of work does not depend on the seed; the seed chooses the node labels,
//! the order facts are loaded in, and the sequence of keys drawn. Two seeds give
//! isomorphic inputs with different constants.

use std::collections::HashMap;
use std::fmt::Write as _;

use factorlog_datalog::ast::Const;
use factorlog_datalog::eval::evaluate_default;
use factorlog_datalog::parser::parse_program;
use factorlog_datalog::storage::Database;
use factorlog_datalog::Symbol;
use factorlog_workloads::programs;

use crate::rng::{shuffle, SmallRng};

/// The served program: right-linear transitive closure.
pub const TC_RULES: &str = programs::RIGHT_LINEAR_TC;

/// Node labels start here, so every label renders with seven digits and reply
/// sizes do not depend on which labels a seed hands the hot components.
const LABEL_BASE: i64 = 1_000_000;

/// Labels of the leaves that transactions attach start here.
const EXTRA_BASE: i64 = 5_000_000;

/// One connected component: a chain hanging off `root`, plus leaf edges out of
/// `root`. `t(root, Y)` answers with every other node of the component.
#[derive(Clone, Debug)]
pub struct Component {
    /// The node queries select on.
    pub root: i64,
    /// The chain `root -> chain[0] -> chain[1] -> ...`.
    pub chain: Vec<i64>,
    /// Targets of the leaf edges `root -> leaf`.
    pub leaves: Vec<i64>,
}

impl Component {
    /// The component's edges.
    pub fn edges(&self) -> Vec<(i64, i64)> {
        let mut edges = Vec::with_capacity(self.chain.len() + self.leaves.len());
        let mut from = self.root;
        for &to in &self.chain {
            edges.push((from, to));
            from = to;
        }
        edges.extend(self.leaves.iter().map(|&leaf| (self.root, leaf)));
        edges
    }
}

/// Build one component per `(chain length, leaf count)` shape, labelling the
/// nodes with a seed-chosen permutation.
pub fn components(shapes: &[(usize, usize)], rng: &mut SmallRng) -> Vec<Component> {
    let nodes: usize = shapes
        .iter()
        .map(|&(chain, leaves)| 1 + chain + leaves)
        .sum();
    let mut labels: Vec<i64> = (0..nodes as i64).map(|i| LABEL_BASE + i).collect();
    shuffle(&mut labels, rng);
    let mut labels = labels.into_iter();
    let mut take = |n: usize| -> Vec<i64> { labels.by_ref().take(n).collect() };
    shapes
        .iter()
        .map(|&(chain, leaves)| Component {
            root: take(1)[0],
            chain: take(chain),
            leaves: take(leaves),
        })
        .collect()
}

/// The rules plus `edges` as loadable source text, facts in a seed-chosen order.
pub fn source_text(mut edges: Vec<(i64, i64)>, rng: &mut SmallRng) -> String {
    shuffle(&mut edges, rng);
    let mut text = String::with_capacity(TC_RULES.len() + 1 + edges.len() * 24);
    text.push_str(TC_RULES);
    text.push('\n');
    for (from, to) in edges {
        let _ = writeln!(text, "e({from}, {to}).");
    }
    text
}

/// The edge relation as a [`Database`] (the oracle's input).
pub fn edge_database(edges: &[(i64, i64)]) -> Database {
    let mut db = Database::new();
    db.ensure_relation(Symbol::intern("e"), 2);
    for &(from, to) in edges {
        db.add_fact("e", &[Const::Int(from), Const::Int(to)]);
    }
    db
}

/// The oracle: the least model of [`TC_RULES`] over `edges`, evaluated from
/// scratch by the unoptimized evaluator.
pub fn oracle_model(edges: &[(i64, i64)]) -> Database {
    let program = parse_program(TC_RULES).expect("TC rules parse").program;
    evaluate_default(&program, &edge_database(edges))
        .expect("oracle evaluation")
        .database
}

/// `t(x, Y)` of `model` for every `x`, each answer list sorted — one pass over
/// the relation instead of one scan per key.
pub fn answers_by_source(model: &Database) -> HashMap<i64, Vec<i64>> {
    let mut by_source: HashMap<i64, Vec<i64>> = HashMap::new();
    if let Some(relation) = model.relation(Symbol::intern("t")) {
        for row in relation.iter() {
            if let (Const::Int(from), Const::Int(to)) = (row[0], row[1]) {
                by_source.entry(from).or_default().push(to);
            }
        }
    }
    for answers in by_source.values_mut() {
        answers.sort_unstable();
    }
    by_source
}

/// A sliding-window transaction stream for one connection over its own
/// components: transaction `k` asserts [`OPS_PER_SIDE`] new leaf edges and
/// retracts the [`OPS_PER_SIDE`] oldest ones, so the model keeps its size,
/// streams of different connections commute, and the final EDB is known.
#[derive(Clone, Debug)]
pub struct TxnStream {
    /// Every extra edge the stream ever asserts, oldest first: the first
    /// [`WINDOW`] are part of the base EDB, transaction `k` retracts the
    /// [`OPS_PER_SIDE`] oldest still present and asserts the next ones.
    extras: Vec<(i64, i64)>,
    /// The `TXN` specs, in commit order.
    pub specs: Vec<String>,
    /// The operations behind each spec, for the in-process replays.
    pub ops: Vec<TxnOps>,
}

impl TxnStream {
    /// Extra edges present once the first `committed` transactions have
    /// committed (0: the ones loaded with the base EDB).
    pub fn present_after(&self, committed: usize) -> &[(i64, i64)] {
        &self.extras[committed * OPS_PER_SIDE..][..WINDOW]
    }
}

/// One transaction's edges.
#[derive(Clone, Debug)]
pub struct TxnOps {
    /// Edges asserted.
    pub asserts: Vec<(i64, i64)>,
    /// Edges retracted.
    pub retracts: Vec<(i64, i64)>,
}

/// Edges asserted (and edges retracted) per transaction.
pub const OPS_PER_SIDE: usize = 4;

/// Extra edges alive at any time, per stream.
pub const WINDOW: usize = 64;

/// Build the stream with id `stream` (which keeps its leaf labels apart from
/// other streams') of `txns` transactions over `own` components.
pub fn txn_stream(own: &[Component], stream: usize, txns: usize, rng: &mut SmallRng) -> TxnStream {
    let extras_needed = WINDOW + txns * OPS_PER_SIDE;
    let mut leaves: Vec<i64> = (0..extras_needed as i64)
        .map(|i| EXTRA_BASE + (stream as i64) * 1_000_000 + i)
        .collect();
    shuffle(&mut leaves, rng);
    // Extra `i` hangs off chain node `i mod len` of component `i mod |own|`:
    // the attachment depth (and with it the derived facts per edge) cycles
    // through a fixed pattern whatever the seed.
    let extras: Vec<(i64, i64)> = leaves
        .into_iter()
        .enumerate()
        .map(|(i, leaf)| {
            let component = &own[i % own.len()];
            let depth = (i / own.len()) % component.chain.len();
            (component.chain[depth], leaf)
        })
        .collect();
    let spec_of = |ops: &TxnOps| {
        let mut spec = String::new();
        for (sign, edges) in [('+', &ops.asserts), ('-', &ops.retracts)] {
            for (from, to) in edges {
                if !spec.is_empty() {
                    spec.push_str("; ");
                }
                let _ = write!(spec, "{sign}e({from}, {to})");
            }
        }
        spec
    };
    let ops: Vec<TxnOps> = (0..txns)
        .map(|k| TxnOps {
            asserts: extras[WINDOW + k * OPS_PER_SIDE..WINDOW + (k + 1) * OPS_PER_SIDE].to_vec(),
            retracts: extras[k * OPS_PER_SIDE..(k + 1) * OPS_PER_SIDE].to_vec(),
        })
        .collect();
    TxnStream {
        specs: ops.iter().map(spec_of).collect(),
        ops,
        extras,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::stream;

    fn small(seed: u64) -> Vec<Component> {
        components(&[(3, 2), (2, 0), (4, 1)], &mut stream(seed, 1))
    }

    #[test]
    fn oracle_answers_are_the_rest_of_the_component() {
        let comps = small(1);
        let edges: Vec<_> = comps.iter().flat_map(Component::edges).collect();
        let answers = answers_by_source(&oracle_model(&edges));
        for component in &comps {
            let mut expected: Vec<i64> = component.chain.clone();
            expected.extend(&component.leaves);
            expected.sort_unstable();
            assert_eq!(answers[&component.root], expected);
        }
    }

    #[test]
    fn seeds_relabel_without_reshaping() {
        let (a, b) = (small(1), small(2));
        assert_ne!(
            a.iter().map(|c| c.root).collect::<Vec<_>>(),
            b.iter().map(|c| c.root).collect::<Vec<_>>()
        );
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                (x.chain.len(), x.leaves.len()),
                (y.chain.len(), y.leaves.len())
            );
        }
    }

    #[test]
    fn sliding_window_is_stationary() {
        let comps = small(3);
        let stream = txn_stream(&comps, 0, 10, &mut stream(3, 100));
        assert_eq!(stream.present_after(10).len(), WINDOW);
        assert_eq!(stream.specs.len(), 10);
        assert_eq!(stream.specs[0].matches('+').count(), OPS_PER_SIDE);
        assert_eq!(stream.specs[0].matches('-').count(), OPS_PER_SIDE);
        // Transaction 0 retracts the oldest preloaded edges.
        assert_eq!(
            stream.ops[0].retracts,
            stream.present_after(0)[..OPS_PER_SIDE]
        );
        assert_eq!(
            stream.ops[0].asserts,
            stream.present_after(1)[WINDOW - OPS_PER_SIDE..]
        );
    }
}
