//! `paper_oneshot` — the path the paper is about, with no server: every sample
//! is `parse_program` + `parse_query` + `optimize_query(default)` + evaluation
//! of the optimized program + projection of the answers.
//!
//! Why it exists: parser, `core` and `eval` do all the work and `server`/`wal`
//! none, and it is the only place the reproduction's central claim (factoring
//! cuts arity, and with it inferences and facts, versus Magic Sets alone) gets
//! a trajectory. Seven programs factor; two fall back to Magic only and are
//! join-bound. A round samples every program once, and every sample of a
//! program is one of the samples its gated time is taken from.

use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

use factorlog_core::counting;
use factorlog_core::pipeline::{optimize_query, Optimized, PipelineOptions, Strategy};
use factorlog_datalog::ast::{Const, Program};
use factorlog_datalog::eval::{evaluate_default, EvalOptions, EvalStats};
use factorlog_datalog::parser::{parse_program, parse_query};
use factorlog_datalog::storage::Database;
use factorlog_workloads::layered::{
    arity3_edb, combined_rule_edb, right_linear_edb, LayeredParams,
};
use factorlog_workloads::{graphs, lists, programs};

use super::{finish_trace, trace_overhead_pct, RunConfig, SetupTimer};
use crate::metrics::Outcome;
use crate::rng::{shuffle, stream, SmallRng};
use crate::timing::{geometric_mean, summarize, timed, Better};
use crate::trace::Tracer;

/// Measured rounds at the default `--seconds` (about 20 s). One round samples
/// each of the nine programs once (about 40 ms), so a burst of interference is
/// spread over all of them.
const ROUNDS: usize = 440;
/// Discarded rounds before them (about 3 s).
const WARMUP_ROUNDS: usize = 60;
/// Complete set-ups per `setup_s` sample (about a second).
const SETUPS_PER_SAMPLE: usize = 4;
/// The library generators draw their random tuples from this fixed stream: it
/// is part of the input *shape*. `--seed` relabels the constants and reorders
/// the facts (see [`relabel`]), which leaves the amount of work unchanged.
const SHAPE_SEED: u64 = 0x5EED;

/// One program of the workload.
struct Case {
    name: &'static str,
    source: &'static str,
    /// The query, with `{}` where the bound constant goes.
    query: &'static str,
    /// The strategy the pipeline must choose.
    strategy: Strategy,
    /// `(EDB, bound constant)` at a size parameter.
    edb: fn(usize) -> (Database, i64),
    /// Size of the timed instance: one sample takes 3 to 6 ms, short enough
    /// for a run to hold hundreds of each program and for many of them to
    /// fall between two bursts of interference.
    full: usize,
    /// Size at which the unoptimized program is evaluated as the oracle.
    comparison: usize,
}

fn layered(nodes: usize) -> (Database, i64) {
    let params = LayeredParams::scaled(nodes, SHAPE_SEED);
    (combined_rule_edb(&params), 0)
}

const CASES: &[Case] = &[
    Case {
        name: "three_rule_tc",
        source: programs::THREE_RULE_TC,
        query: "t({}, Y)",
        strategy: Strategy::FactoredMagic,
        edb: |n| (graphs::chain(n), 0),
        full: 3_000,
        comparison: 120,
    },
    Case {
        name: "pmem",
        source: programs::PMEM,
        query: "pmem(X, {})",
        strategy: Strategy::FactoredMagic,
        edb: |n| (lists::pmem_list(n, 1).edb, lists::LIST_ID_BASE + 1),
        full: 2_800,
        comparison: 300,
    },
    Case {
        name: "selection_pushing",
        source: programs::SELECTION_PUSHING,
        query: "p({}, Y)",
        strategy: Strategy::FactoredMagic,
        edb: layered,
        full: 88,
        comparison: 40,
    },
    Case {
        name: "symmetric",
        source: programs::SYMMETRIC,
        query: "p({}, Y)",
        strategy: Strategy::FactoredMagic,
        edb: layered,
        full: 49,
        comparison: 30,
    },
    Case {
        name: "answer_propagating",
        source: programs::ANSWER_PROPAGATING,
        query: "p({}, Y)",
        strategy: Strategy::FactoredMagic,
        edb: layered,
        full: 47,
        comparison: 30,
    },
    Case {
        name: "arity_3_tc",
        source: programs::ARITY_3_TC,
        query: "t({}, Y, Z)",
        strategy: Strategy::FactoredMagic,
        edb: |n| (arity3_edb(n, 3, SHAPE_SEED), 0),
        full: 1_400,
        comparison: 150,
    },
    Case {
        name: "right_linear_two_rules",
        source: programs::RIGHT_LINEAR_TWO_RULES,
        query: "p({}, Y)",
        strategy: Strategy::FactoredMagic,
        edb: |n| (right_linear_edb(n, SHAPE_SEED), 0),
        full: 1_800,
        comparison: 300,
    },
    Case {
        name: "same_generation",
        source: programs::SAME_GENERATION,
        query: "sg({}, Y)",
        strategy: Strategy::MagicOnly,
        edb: |depth| (graphs::same_generation_tree(depth), 0),
        full: 12,
        comparison: 6,
    },
    Case {
        name: "example_4_3_exact",
        source: programs::EXAMPLE_4_3_EXACT,
        query: "p({}, Y)",
        strategy: Strategy::MagicOnly,
        edb: layered,
        full: 25,
        comparison: 20,
    },
];

/// A generated input: the EDB and the query text over the seed's labels.
struct Instance {
    edb: Database,
    query: String,
}

/// Rename every integer constant of `edb` (and `bound`) by a seed-chosen
/// permutation of the constants that occur, and insert the facts in a
/// seed-chosen order. The result is isomorphic to the input, so inference and
/// fact counts are the same for every seed.
fn relabel(edb: &Database, bound: i64, rng: &mut SmallRng) -> (Database, i64) {
    let mut facts: Vec<(factorlog_datalog::Symbol, Vec<Const>)> = Vec::new();
    let mut constants: BTreeSet<i64> = BTreeSet::from([bound]);
    for predicate in edb.predicates() {
        let relation = edb.relation(predicate).expect("listed predicate");
        for row in relation.iter() {
            constants.extend(row.iter().filter_map(|c| match c {
                Const::Int(i) => Some(*i),
                Const::Sym(_) => None,
            }));
            facts.push((predicate, row.to_vec()));
        }
    }
    let from: Vec<i64> = constants.into_iter().collect();
    let mut to = from.clone();
    shuffle(&mut to, rng);
    let rename: HashMap<i64, i64> = from.into_iter().zip(to).collect();
    shuffle(&mut facts, rng);
    let mut out = Database::new();
    for (predicate, mut row) in facts {
        for value in &mut row {
            if let Const::Int(i) = value {
                *i = rename[i];
            }
        }
        out.add_fact(predicate, &row);
    }
    (out, rename[&bound])
}

fn instance(case: &Case, size: usize, rng: &mut SmallRng) -> Instance {
    let (edb, bound) = (case.edb)(size);
    let (edb, bound) = relabel(&edb, bound, rng);
    Instance {
        edb,
        query: case.query.replace("{}", &bound.to_string()),
    }
}

/// What one sample produced.
struct Sample {
    seconds: f64,
    evaluate_seconds: f64,
    answers: Vec<Vec<Const>>,
    optimized: Optimized,
    stats: EvalStats,
}

/// The optimizer's pass names as span names.
fn pass_span(pass: &str) -> &'static str {
    match pass {
        "adorn" => "core.adorn",
        "magic" => "core.magic",
        "classify" => "core.classify",
        "factorability" => "core.factorability",
        "factor" => "core.factor",
        "reduce" => "core.reduce",
        "optimize" => "core.simplify",
        other => panic!("unknown optimizer pass `{other}`"),
    }
}

/// One timed sample: source text in, answers out.
fn sample(
    case: &Case,
    input: &Instance,
    options: &PipelineOptions,
    tracer: &mut Tracer,
    request: u64,
) -> Sample {
    let start = Instant::now();
    let root = tracer.begin("bench.sample", None, request);
    let span = tracer.begin("parser.program", Some(root), request);
    let program = parse_program(case.source).expect("program parses").program;
    tracer.end(span);
    let span = tracer.begin("parser.query", Some(root), request);
    let query = parse_query(&input.query).expect("query parses");
    tracer.end(span);
    let span = tracer.begin("core.optimize", Some(root), request);
    let optimized = optimize_query(&program, &query, options).expect("pipeline runs");
    tracer.end(span);
    if tracer.enabled {
        let passes: Vec<(&'static str, u64)> = optimized
            .pass_times
            .iter()
            .map(|&(pass, ns)| (pass_span(pass), ns))
            .collect();
        tracer.children(span, &passes);
    }
    let span = tracer.begin("eval.evaluate", Some(root), request);
    let evaluate_start = Instant::now();
    let result = optimized.evaluate(&input.edb).expect("evaluation succeeds");
    let evaluate_seconds = evaluate_start.elapsed().as_secs_f64();
    tracer.end(span);
    let span = tracer.begin("storage.answers", Some(root), request);
    let answers = result.answers(&optimized.query);
    tracer.end(span);
    tracer.end(root);
    Sample {
        seconds: start.elapsed().as_secs_f64(),
        evaluate_seconds,
        answers,
        optimized,
        stats: result.stats,
    }
}

fn digest(answers: &[Vec<Const>]) -> u64 {
    let mut digest = 0xCBF2_9CE4_8422_2325u64;
    for value in answers.iter().flatten() {
        let bits = match value {
            Const::Int(i) => *i as u64,
            Const::Sym(s) => s.as_str().len() as u64,
        };
        digest = (digest ^ bits).wrapping_mul(0x0000_0100_0000_01B3);
    }
    digest ^ answers.len() as u64
}

fn max_idb_arity(program: &Program) -> usize {
    program
        .idb_predicates()
        .into_iter()
        .filter_map(|p| program.arity_of(p))
        .max()
        .unwrap_or(0)
}

/// What set-up leaves behind for one case.
struct Prepared {
    full: Instance,
    comparison: Instance,
    /// Digest and row count of the full-size answers.
    reference: (u64, usize),
    /// Full-size counters of the pipeline's evaluation.
    stats: EvalStats,
    optimized: Optimized,
    /// Seconds the unoptimized program took at the comparison size.
    original_seconds: f64,
}

/// Generate the inputs and compute the oracle answers: at the comparison size
/// the unoptimized program's answers must equal the pipeline's; at the full
/// size (where the unoptimized program is quadratic or worse) the pipeline's
/// first answers become the reference every timed sample is held to. Returns
/// the checks that failed beside the inputs.
fn set_up(seed: u64) -> (Vec<Prepared>, Vec<String>) {
    let options = PipelineOptions::default();
    let mut tracer = Tracer::new(false);
    let mut failures = Vec::new();
    let mut check = |holds: bool, what: String| {
        if !holds {
            failures.push(what);
        }
    };
    let prepared = CASES
        .iter()
        .enumerate()
        .map(|(i, case)| {
            let mut rng = stream(seed, i as u64);
            let full = instance(case, case.full, &mut rng);
            let comparison = instance(case, case.comparison, &mut rng);

            let program = parse_program(case.source).expect("program parses").program;
            let query = parse_query(&comparison.query).expect("query parses");
            let (original_seconds, original) =
                timed(|| evaluate_default(&program, &comparison.edb).expect("oracle evaluates"));
            let expected = original.answers(&query);
            let got = sample(case, &comparison, &options, &mut tracer, 0);
            check(
                !expected.is_empty() && got.answers == expected,
                format!(
                    "{}: pipeline answers differ from the unoptimized program's at size {}",
                    case.name, case.comparison
                ),
            );

            let first = sample(case, &full, &options, &mut tracer, 0);
            check(
                first.optimized.strategy == case.strategy,
                format!(
                    "{}: strategy is {}, expected {}",
                    case.name, first.optimized.strategy, case.strategy
                ),
            );
            check(
                !first.answers.is_empty(),
                format!("{}: no answers at full size", case.name),
            );
            Prepared {
                reference: (digest(&first.answers), first.answers.len()),
                stats: first.stats,
                optimized: first.optimized,
                full,
                comparison,
                original_seconds,
            }
        })
        .collect();
    (prepared, failures)
}

/// Run the workload.
pub fn run(config: &RunConfig) -> Outcome {
    let mut outcome = Outcome::new();
    let (setup, (prepared, failures)) =
        SetupTimer::before(config, SETUPS_PER_SAMPLE, || set_up(config.seed), drop);
    for failure in failures {
        outcome.check(false, failure);
    }

    let options = PipelineOptions::default();
    let mut tracer = Tracer::new(false);
    let (warmup, rounds) = config.batches(WARMUP_ROUNDS, ROUNDS);
    // Per case, the seconds of its sample in every measured round, traced
    // (odd) and untraced (even) rounds alike.
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); CASES.len()];
    let mut evaluate_seconds = 0.0;
    let mut traced_samples = 0u64;
    let mut request = 0u64;
    let measure_start = Instant::now();
    for round in 0..warmup + rounds {
        let measured = round >= warmup;
        tracer.enabled = config.trace && measured && (round - warmup) % 2 == 1;
        for ((case, input), times) in CASES.iter().zip(&prepared).zip(&mut times) {
            let got = sample(case, &input.full, &options, &mut tracer, request);
            request += 1;
            outcome.attempted += 1;
            if (digest(&got.answers), got.answers.len()) != input.reference {
                outcome.failed += 1;
            }
            if measured {
                times.push(got.seconds);
            }
            if tracer.enabled {
                evaluate_seconds += got.evaluate_seconds;
                traced_samples += 1;
            }
        }
    }
    let measure_seconds = measure_start.elapsed().as_secs_f64();
    outcome.check(
        outcome.failed == 0,
        format!(
            "{} sample(s) returned answers that differ from the reference",
            outcome.failed
        ),
    );

    outcome.note(format!(
        "paper_oneshot: {} programs x {rounds} rounds after {warmup} warm-up rounds, {measure_seconds:.1} s; times in ms per sample",
        CASES.len()
    ));
    outcome.note(format!(
        "  {:<24} {:<18} {:>7} {:>7} {:>11} {:>9} {:>9} {:>9}",
        "program", "strategy", "size", "rows", "best 5 %", "p5", "median", "p90"
    ));
    let mut gated = Vec::new();
    for ((case, input), samples) in CASES.iter().zip(&prepared).zip(&times) {
        let summary = summarize(samples, Better::Lower);
        outcome.note(format!(
            "  {:<24} {:<18} {:>7} {:>7} {:>11.3} {:>9.3} {:>9.3} {:>9.3}",
            case.name,
            case.strategy.to_string(),
            case.full,
            input.reference.1,
            summary.best * 1e3,
            summary.edge * 1e3,
            summary.median * 1e3,
            summary.worst * 1e3
        ));
        gated.push(summary.best);
    }
    let group = |strategy: Strategy| -> f64 {
        let times: Vec<f64> = CASES
            .iter()
            .zip(&gated)
            .filter(|(case, _)| case.strategy == strategy)
            .map(|(_, &best)| best)
            .collect();
        geometric_mean(&times)
    };
    let factorable_ms = group(Strategy::FactoredMagic) * 1e3;
    let fallback_ms = group(Strategy::MagicOnly) * 1e3;
    outcome.note(format!(
        "  oneshot_factorable_ms {factorable_ms:.4}   oneshot_fallback_ms {fallback_ms:.4}"
    ));

    if !config.trace {
        drop(prepared);
        setup.finish(&mut outcome, factorable_ms * 1e3, 1e3 / fallback_ms);
        return outcome;
    }

    // Per-layer numbers. Times are means per sample over the traced rounds;
    // counts are sums over one sample of each program.
    let totals = tracer.totals();
    let per_sample_us = |names: &[&str]| -> f64 {
        let ns: u64 = names
            .iter()
            .filter_map(|n| totals.get(n))
            .map(|t| t.total_ns)
            .sum();
        ns as f64 / 1e3 / traced_samples.max(1) as f64
    };
    outcome.set("parser.program_us", per_sample_us(&["parser.program"]));
    outcome.set("parser.query_ns", per_sample_us(&["parser.query"]) * 1e3);
    outcome.set("core.optimize_us", per_sample_us(&["core.optimize"]));
    outcome.set("core.adorn_us", per_sample_us(&["core.adorn"]));
    outcome.set("core.magic_us", per_sample_us(&["core.magic"]));
    outcome.set(
        "core.analyze_us",
        per_sample_us(&["core.classify", "core.factorability"]),
    );
    outcome.set("core.factor_us", per_sample_us(&["core.factor"]));
    outcome.set("core.simplify_us", per_sample_us(&["core.simplify"]));
    outcome.set("core.reduce_us", per_sample_us(&["core.reduce"]));
    outcome.set("eval.evaluate_ms", per_sample_us(&["eval.evaluate"]) / 1e3);

    let mut stats = EvalStats::new(0);
    for input in &prepared {
        stats.merge(&input.stats);
    }
    outcome.set("eval.inferences", stats.inferences as f64);
    outcome.set("eval.facts_derived", stats.facts_derived as f64);
    outcome.set("eval.iterations", stats.iterations as f64);
    outcome.set("eval.index_probes", stats.index_probes as f64);
    outcome.set(
        "eval.duplicate_ratio",
        stats.duplicates as f64 / stats.inferences.max(1) as f64,
    );
    let traced_rounds = traced_samples as f64 / CASES.len() as f64;
    outcome.set(
        "eval.inferences_per_s",
        stats.inferences as f64 * traced_rounds / evaluate_seconds.max(1e-9),
    );
    outcome.set(
        "core.rules_out",
        prepared
            .iter()
            .map(|p| p.optimized.program.len())
            .sum::<usize>() as f64,
    );
    let arity_in = prepared
        .iter()
        .map(|p| max_idb_arity(&p.optimized.original_program));
    let arity_out = prepared.iter().map(|p| max_idb_arity(&p.optimized.program));
    outcome.set("core.max_arity_in", arity_in.max().unwrap_or(0) as f64);
    outcome.set("core.max_arity_out", arity_out.max().unwrap_or(0) as f64);
    outcome.set(
        "core.factored_programs",
        prepared
            .iter()
            .filter(|p| p.optimized.strategy == Strategy::FactoredMagic)
            .count() as f64,
    );

    // The paper's claim as exact counters: Magic Sets alone against the full
    // pipeline on the same comparison-size inputs, factorable programs only.
    let magic_only = PipelineOptions {
        factor: false,
        ..PipelineOptions::default()
    };
    let mut off = Tracer::new(false);
    let (mut inference_ratios, mut fact_ratios) = (Vec::new(), Vec::new());
    let (mut magic_seconds, mut compile_us) = (0.0, Vec::new());
    for (case, input) in CASES.iter().zip(&prepared) {
        let (seconds, plan) = timed(|| input.optimized.prepare(&EvalOptions::default()));
        plan.expect("final program compiles");
        compile_us.push(seconds * 1e6);
        if case.strategy != Strategy::FactoredMagic {
            continue;
        }
        let magic = sample(case, &input.comparison, &magic_only, &mut off, 0);
        let factored = sample(case, &input.comparison, &options, &mut off, 0);
        outcome.check(
            magic.answers == factored.answers,
            format!("{}: Magic-only and factored answers differ", case.name),
        );
        magic_seconds += magic.evaluate_seconds;
        inference_ratios.push(magic.stats.inferences as f64 / factored.stats.inferences as f64);
        fact_ratios.push(magic.stats.facts_derived as f64 / factored.stats.facts_derived as f64);
        outcome.note(format!(
            "  {:<24} at size {:>4}: inferences magic {:>8} factored {:>7}   facts magic {:>7} factored {:>6}",
            case.name,
            case.comparison,
            magic.stats.inferences,
            factored.stats.inferences,
            magic.stats.facts_derived,
            factored.stats.facts_derived
        ));
    }
    outcome.set(
        "core.inference_reduction",
        geometric_mean(&inference_ratios),
    );
    outcome.set("core.fact_reduction", geometric_mean(&fact_ratios));
    outcome.set("eval.magic_evaluate_ms", magic_seconds * 1e3);
    outcome.set(
        "eval.original_evaluate_ms",
        prepared
            .iter()
            .zip(CASES)
            .filter(|(_, case)| case.strategy == Strategy::FactoredMagic)
            .map(|(p, _)| p.original_seconds)
            .sum::<f64>()
            * 1e3,
    );
    outcome.set(
        "eval.compile_us",
        compile_us.iter().sum::<f64>() / compile_us.len() as f64,
    );

    // Counting (the paper's comparison point in section 6.4) on the one
    // program it applies to.
    let right_linear = prepared
        .iter()
        .zip(CASES)
        .find(|(_, case)| case.name == "right_linear_two_rules")
        .map(|(p, _)| &p.optimized)
        .expect("right-linear case present");
    let classification = right_linear
        .classification
        .as_ref()
        .expect("right-linear program classifies");
    let counting_reps = 50;
    let (seconds, ()) = timed(|| {
        for _ in 0..counting_reps {
            std::hint::black_box(
                counting(&right_linear.adorned, classification).expect("counting applies"),
            );
        }
    });
    outcome.set("core.counting_us", seconds * 1e6 / f64::from(counting_reps));

    // Over all nine programs (a geometric mean of ratios is the ratio of the
    // geometric means the gated metrics are built from).
    let ratios: Vec<f64> = times
        .iter()
        .map(|samples| 1.0 + trace_overhead_pct(samples, 1, Better::Lower) / 100.0)
        .collect();
    outcome.set(
        "bench.trace_overhead_pct",
        (geometric_mean(&ratios) - 1.0) * 100.0,
    );

    finish_trace(&tracer, config, "paper_oneshot", &mut outcome);
    outcome
}
