//! The end-to-end optimizer: *Magic Sets followed by factoring* (the paper's two-step
//! approach, §4.2), with static-argument reduction as a pre-pass and the §5
//! simplifications as a post-pass.
//!
//! ```text
//!   original program + query
//!        │  (optional) static-argument reduction          §5, Lemmas 5.1–5.2
//!        ▼
//!     adornment                                           §2.1/§4.1
//!        ▼
//!     Magic Sets                                          §2.1  (Fig. 1)
//!        ▼
//!     classification + factorability analysis             §4    (Thms 4.1–4.3)
//!        ▼
//!     factoring (when a sufficient condition holds)       §3    (Fig. 2)
//!        ▼
//!     §5 optimizations                                     §5    (Example 5.3)
//! ```
//!
//! When the factorability analysis finds no applicable condition the pipeline falls
//! back to the (optimized) Magic program, which is always sound.

use std::collections::BTreeSet;

use factorlog_datalog::ast::{Atom, Const, Program, Query, Rule};
use factorlog_datalog::eval::{
    seminaive_evaluate, seminaive_evaluate_owned, CompiledProgram, EvalError, EvalOptions,
    EvalResult,
};
use factorlog_datalog::fx::FxHashMap;
use factorlog_datalog::storage::Database;

use crate::adorn::{adorn, AdornedProgram};
use crate::classify::{classify, ProgramClassification};
use crate::conditions::{analyze, FactorabilityReport};
use crate::error::{TransformError, TransformResult};
use crate::factor::{factor_magic, FactoredProgram};
use crate::magic::{magic, MagicProgram};
use crate::optimize::{optimize, FactoringContext, OptimizationTrace};
use crate::reduce::{reduce, ReducedProgram};

/// Options for the end-to-end pipeline. Each one switches one stage on or off for a
/// comparison the paper makes; the §5 simplifications always run.
#[derive(Clone, Debug)]
pub struct PipelineOptions {
    /// Attempt the factoring transformation when a sufficient condition holds. The
    /// benchmark turns it off to count Magic Sets alone against the full pipeline.
    pub factor: bool,
    /// Factor even when no sufficient condition holds (used by the negative
    /// experiments; the result may be unsound, which is the point of those tests).
    pub force_factoring: bool,
    /// Attempt static-argument reduction before adornment. Turned off to compare
    /// factoring without the §5 reduction pre-pass.
    pub try_reduction: bool,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            factor: true,
            force_factoring: false,
            try_reduction: true,
        }
    }
}

/// Which program the pipeline ended up producing.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Strategy {
    /// The factored Magic program (plus §5 optimizations).
    FactoredMagic,
    /// The Magic program only (factoring did not apply).
    MagicOnly,
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Strategy::FactoredMagic => write!(f, "magic + factoring"),
            Strategy::MagicOnly => write!(f, "magic only"),
        }
    }
}

/// The output of the pipeline: every intermediate stage plus the final program.
#[derive(Clone, Debug)]
pub struct Optimized {
    /// The input program.
    pub original_program: Program,
    /// The input query.
    pub original_query: Query,
    /// The statically reduced program, when reduction applied.
    pub reduced: Option<ReducedProgram>,
    /// The adorned program.
    pub adorned: AdornedProgram,
    /// The Magic program (Fig. 1 for the paper's running example).
    pub magic: MagicProgram,
    /// The rule classification, when the program is a unit program.
    pub classification: Option<ProgramClassification>,
    /// The factorability analysis, when classification succeeded.
    pub factorability: Option<FactorabilityReport>,
    /// The factored Magic program (Fig. 2), when factoring was applied.
    pub factored: Option<FactoredProgram>,
    /// The final program after the §5 simplifications.
    pub program: Program,
    /// The query to ask of the final program.
    pub query: Query,
    /// Which strategy the final program embodies.
    pub strategy: Strategy,
    /// The simplification steps applied.
    pub trace: OptimizationTrace,
    /// Wall time of each transformation pass, in execution order, as
    /// `(pass name, nanoseconds)`. Passes that run twice (the stages re-run
    /// after a successful reduction) appear twice. Always recorded — the
    /// pipeline runs once per prepared-plan miss, so the handful of clock
    /// reads is never on a hot path.
    pub pass_times: Vec<(&'static str, u64)>,
}

impl Optimized {
    /// Evaluate the final program over an EDB.
    pub fn evaluate(&self, edb: &Database) -> Result<EvalResult, EvalError> {
        seminaive_evaluate(&self.program, edb, &EvalOptions::default())
    }

    /// The answers to the original query over `edb`, computed with the final program
    /// (projected onto the query's free positions, sorted).
    pub fn answers(&self, edb: &Database) -> Result<Vec<Vec<Const>>, EvalError> {
        Ok(self.evaluate(edb)?.answers(&self.query))
    }

    /// A human-readable report of every stage (used by the examples and the report
    /// binary).
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "== original program ==\n{}", self.original_program);
        let _ = writeln!(out, "query: {}\n", self.original_query);
        if let Some(reduced) = &self.reduced {
            let _ = writeln!(
                out,
                "== after static-argument reduction (removed positions {:?}) ==\n{}",
                reduced.removed_positions, reduced.program
            );
        }
        let _ = writeln!(out, "== adorned program ==\n{}", self.adorned.program);
        let _ = writeln!(out, "== magic program ==\n{}", self.magic.program);
        if let Some(classification) = &self.classification {
            let _ = writeln!(out, "== classification ==\n{}", classification.summary());
        }
        if let Some(report) = &self.factorability {
            let _ = writeln!(out, "== factorability ==\n{report}");
        }
        if let Some(factored) = &self.factored {
            let _ = writeln!(out, "== factored magic program ==\n{}", factored.program);
        }
        let _ = writeln!(
            out,
            "== final program ({}) ==\n{}",
            self.strategy, self.program
        );
        let _ = writeln!(out, "final query: {}", self.query);
        if !self.trace.steps.is_empty() {
            let _ = writeln!(out, "\n== simplifications applied ==");
            for step in &self.trace.steps {
                let _ = writeln!(out, "  - {step}");
            }
        }
        out
    }
}

impl Optimized {
    /// Compile the final program into a reusable [`PreparedPlan`] — the plan-reuse API
    /// behind the engine's prepared-query cache.
    ///
    /// The ground seed facts the Magic transformation plants in the program (e.g.
    /// `m_t_bf(5).`) are stripped out of the compiled rule set and kept as data: at
    /// execution time they are injected into the evaluation database instead, where
    /// the semi-naive round 0 (a full pass) picks them up. This makes the compiled
    /// rules constant-free for most programs, so the same plan can be
    /// [rebound](PreparedPlan::rebind) to a query with the same adornment but
    /// different constants without re-running the pipeline. Compilation depends on
    /// no evaluation option; `_options` stays so that existing callers compile.
    pub fn prepare(&self, _options: &EvalOptions) -> Result<PreparedPlan, EvalError> {
        let mut rules: Vec<Rule> = Vec::new();
        let mut seeds: Vec<Atom> = Vec::new();
        for rule in &self.program.rules {
            if rule.is_fact() && rule.head.is_ground() {
                seeds.push(rule.head.clone());
            } else {
                rules.push(rule.clone());
            }
        }
        let seedless = Program::from_rules(rules);
        let compiled = CompiledProgram::compile(&seedless)?;
        let bound_consts: Vec<Const> = self
            .original_query
            .atom
            .terms
            .iter()
            .filter_map(|t| t.as_const())
            .collect();
        Ok(PreparedPlan {
            seeds,
            query: self.query.clone(),
            compiled,
            bound_consts,
        })
    }
}

/// A compiled, replayable query plan: the output of the optimization pipeline with its
/// rules compiled once and its magic seed facts held as injectable data.
#[derive(Clone, Debug)]
pub struct PreparedPlan {
    /// Ground seed facts stripped from the optimized program, injected at evaluation.
    seeds: Vec<Atom>,
    /// The query to ask of the final program.
    query: Query,
    /// The compiled seedless program.
    compiled: CompiledProgram,
    /// The constants of the original query's bound positions, in position order.
    bound_consts: Vec<Const>,
}

impl PreparedPlan {
    /// The query the plan answers (in the optimized program's vocabulary).
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The compiled seedless program.
    pub fn compiled(&self) -> &CompiledProgram {
        &self.compiled
    }

    /// The seed facts injected at evaluation time.
    pub fn seeds(&self) -> &[Atom] {
        &self.seeds
    }

    /// The original query's bound constants, in position order.
    pub fn bound_consts(&self) -> &[Const] {
        &self.bound_consts
    }

    /// Evaluate the plan over `edb`: inject the seeds, replay the compiled rules.
    pub fn evaluate(&self, edb: &Database, options: &EvalOptions) -> Result<EvalResult, EvalError> {
        let mut db = edb.clone();
        for seed in &self.seeds {
            db.add_atom(seed);
        }
        seminaive_evaluate_owned(&self.compiled, db, options)
    }

    /// The answers to the plan's query over `edb` (projected onto the original
    /// query's free positions, sorted — same contract as [`Optimized::answers`]).
    pub fn answers(
        &self,
        edb: &Database,
        options: &EvalOptions,
    ) -> Result<Vec<Vec<Const>>, EvalError> {
        Ok(self.evaluate(edb, options)?.answers(&self.query))
    }

    /// Rebind the plan to a query with the same predicate and adornment but different
    /// bound constants, reusing the compiled rules verbatim.
    ///
    /// This is sound only when the constants live purely in the seeds and the query —
    /// i.e. the pipeline did not specialize any *rule* on them (and could not have
    /// specialized differently on the new ones). The guard is conservative:
    ///
    /// * old and new constants must be in bijection (consistent duplicates, injective),
    /// * neither set may appear anywhere in the compiled rules,
    /// * every seed constant must be covered by the rebinding map.
    ///
    /// Returns `None` when the guard fails; callers fall back to re-running the
    /// pipeline.
    pub fn rebind(&self, new_bound: &[Const]) -> Option<PreparedPlan> {
        if new_bound.len() != self.bound_consts.len() {
            return None;
        }
        if new_bound == self.bound_consts.as_slice() {
            return Some(self.clone());
        }
        let mut forward: FxHashMap<Const, Const> = FxHashMap::default();
        let mut backward: FxHashMap<Const, Const> = FxHashMap::default();
        for (&old, &new) in self.bound_consts.iter().zip(new_bound) {
            if *forward.entry(old).or_insert(new) != new {
                return None; // inconsistent duplicate pattern
            }
            if *backward.entry(new).or_insert(old) != old {
                return None; // not injective
            }
        }
        let rule_consts = self.rule_constants();
        if forward.keys().any(|c| rule_consts.contains(c))
            || new_bound.iter().any(|c| rule_consts.contains(c))
        {
            return None; // a rule mentions one of the constants: possibly specialized
        }
        let remap_atom = |atom: &Atom| -> Option<Atom> {
            let terms = atom
                .terms
                .iter()
                .map(|t| match t.as_const() {
                    None => Some(*t),
                    Some(c) => forward.get(&c).copied().map(Into::into),
                })
                .collect::<Option<Vec<_>>>()?;
            Some(Atom::new(atom.predicate, terms))
        };
        let seeds = self
            .seeds
            .iter()
            .map(remap_atom)
            .collect::<Option<Vec<_>>>()?;
        let query = Query::new(remap_atom(&self.query.atom)?);
        Some(PreparedPlan {
            seeds,
            query,
            compiled: self.compiled.clone(),
            bound_consts: new_bound.to_vec(),
        })
    }

    /// Every constant mentioned by the compiled (seedless) rules.
    fn rule_constants(&self) -> BTreeSet<Const> {
        self.compiled
            .program()
            .rules
            .iter()
            .flat_map(|r| std::iter::once(&r.head).chain(r.body.iter()))
            .flat_map(|a| a.terms.iter().filter_map(|t| t.as_const()))
            .collect()
    }
}

/// The transformation stages run on one (program, query) pair.
struct Stages {
    adorned: AdornedProgram,
    magic: MagicProgram,
    classification: Option<ProgramClassification>,
    factorability: Option<FactorabilityReport>,
    factored: Option<FactoredProgram>,
}

/// Run `f`, appending its wall time to `passes` under `name`.
fn timed<T>(passes: &mut Vec<(&'static str, u64)>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let start = std::time::Instant::now();
    let out = f();
    passes.push((name, start.elapsed().as_nanos() as u64));
    out
}

fn run_stages(
    program: &Program,
    query: &Query,
    options: &PipelineOptions,
    passes: &mut Vec<(&'static str, u64)>,
) -> TransformResult<Stages> {
    let adorned = timed(passes, "adorn", || adorn(program, query))?;
    let magic_program = timed(passes, "magic", || magic(&adorned))?;
    let classification = match timed(passes, "classify", || classify(&adorned)) {
        Ok(c) => Some(c),
        Err(TransformError::NotUnitProgram { .. }) => None,
        Err(other) => return Err(other),
    };
    let factorability = timed(passes, "factorability", || {
        classification.as_ref().map(analyze)
    });
    let should_factor = options.factor
        && (options.force_factoring
            || factorability
                .as_ref()
                .map(FactorabilityReport::is_factorable)
                .unwrap_or(false));
    let factored = if should_factor {
        match timed(passes, "factor", || factor_magic(&adorned, &magic_program)) {
            Ok(f) => Some(f),
            Err(TransformError::NotApplicable { .. }) => None,
            Err(other) => return Err(other),
        }
    } else {
        None
    };
    Ok(Stages {
        adorned,
        magic: magic_program,
        classification,
        factorability,
        factored,
    })
}

/// Run the full pipeline on a program and query.
///
/// Static-argument reduction is attempted only when the program does not factor as
/// written (the paper uses reduction to bring programs like Examples 5.1/5.2 into the
/// scope of the factoring theorems); if the reduced program factors — or even if it
/// does not, since reduction alone already lowers the recursive arity — the pipeline
/// continues from the reduced program.
pub fn optimize_query(
    program: &Program,
    query: &Query,
    options: &PipelineOptions,
) -> TransformResult<Optimized> {
    let mut pass_times: Vec<(&'static str, u64)> = Vec::new();
    let mut reduced: Option<ReducedProgram> = None;
    let mut stages = run_stages(program, query, options, &mut pass_times)?;

    if stages.factored.is_none() && options.try_reduction {
        let reduction = match timed(&mut pass_times, "reduce", || reduce(program, query)) {
            Ok(r) => Some(r),
            Err(TransformError::NotApplicable { .. })
            | Err(TransformError::UnknownQueryPredicate { .. }) => None,
            Err(other) => return Err(other),
        };
        if let Some(r) = reduction {
            stages = run_stages(&r.program, &r.query, options, &mut pass_times)?;
            reduced = Some(r);
        }
    }

    let Stages {
        adorned,
        magic: magic_program,
        classification,
        factorability,
        factored,
    } = stages;

    let (final_program, final_query, strategy, trace) = match &factored {
        Some(f) => {
            let ctx = FactoringContext::from_factored(f);
            let (optimized, trace) = timed(&mut pass_times, "optimize", || {
                optimize(&f.program, &f.query, Some(&ctx))
            });
            (optimized, f.query.clone(), Strategy::FactoredMagic, trace)
        }
        None => {
            let (optimized, trace) = timed(&mut pass_times, "optimize", || {
                optimize(&magic_program.program, &adorned.query, None)
            });
            (optimized, adorned.query.clone(), Strategy::MagicOnly, trace)
        }
    };

    Ok(Optimized {
        original_program: program.clone(),
        original_query: query.clone(),
        reduced,
        adorned,
        magic: magic_program,
        classification,
        factorability,
        factored,
        program: final_program,
        query: final_query,
        strategy,
        trace,
        pass_times,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use factorlog_datalog::parser::{parse_program, parse_query};

    const THREE_RULE_TC: &str = "t(X, Y) :- t(X, W), t(W, Y).\n\
                                 t(X, Y) :- e(X, W), t(W, Y).\n\
                                 t(X, Y) :- t(X, W), e(W, Y).\n\
                                 t(X, Y) :- e(X, Y).";

    fn chain_edb(n: i64, start: i64) -> Database {
        let mut db = Database::new();
        for i in 0..n {
            db.add_fact("e", &[Const::Int(start + i), Const::Int(start + i + 1)]);
        }
        db
    }

    #[test]
    fn end_to_end_three_rule_transitive_closure() {
        // Example 1.1: the pipeline must produce the unary program of the introduction
        // and compute the correct answers with it.
        let program = parse_program(THREE_RULE_TC).unwrap().program;
        let query = parse_query("t(5, Y)").unwrap();
        let out = optimize_query(&program, &query, &PipelineOptions::default()).unwrap();
        assert_eq!(out.strategy, Strategy::FactoredMagic);
        assert!(out.factorability.as_ref().unwrap().is_factorable());
        assert_eq!(out.program.len(), 3, "{}", out.program);

        let edb = chain_edb(10, 5);
        let expected = factorlog_datalog::eval::naive_evaluate(&program, &edb)
            .unwrap()
            .answers(&query);
        assert_eq!(out.answers(&edb).unwrap(), expected);
        assert_eq!(expected.len(), 10);

        let report = out.report();
        assert!(report.contains("magic program"));
        assert!(report.contains("factored magic program"));
        assert!(report.contains("selection-pushing"));
    }

    #[test]
    fn non_factorable_program_falls_back_to_magic() {
        let program =
            parse_program("sg(X, Y) :- flat(X, Y).\nsg(X, Y) :- up(X, U), sg(U, V), down(V, Y).")
                .unwrap()
                .program;
        let query = parse_query("sg(1, Y)").unwrap();
        let out = optimize_query(&program, &query, &PipelineOptions::default()).unwrap();
        assert_eq!(out.strategy, Strategy::MagicOnly);
        assert!(out.factored.is_none());
        assert!(!out.factorability.as_ref().unwrap().is_factorable());

        let mut edb = Database::new();
        edb.add_fact("up", &[Const::Int(1), Const::Int(10)]);
        edb.add_fact("flat", &[Const::Int(10), Const::Int(20)]);
        edb.add_fact("down", &[Const::Int(20), Const::Int(2)]);
        let expected = factorlog_datalog::eval::naive_evaluate(&program, &edb)
            .unwrap()
            .answers(&query);
        assert_eq!(out.answers(&edb).unwrap(), expected);
        assert_eq!(expected, vec![vec![Const::Int(2)]]);
    }

    #[test]
    fn reduction_pre_pass_enables_factoring() {
        // Example 5.1: without reduction the program is not even RLC-stable; the
        // pipeline reduces the static argument and then factors.
        let src = "p(X, Y, Z) :- a(X), p(X, Y, W), d(W, U), p(X, U, Z).\n\
                   p(X, Y, Z) :- exit(X, Y, Z).";
        let program = parse_program(src).unwrap().program;
        let query = parse_query("p(5, 6, U)").unwrap();
        let out = optimize_query(&program, &query, &PipelineOptions::default()).unwrap();
        assert!(out.reduced.is_some());
        assert_eq!(out.strategy, Strategy::FactoredMagic);

        let mut edb = Database::new();
        edb.add_fact("a", &[Const::Int(5)]);
        edb.add_fact("exit", &[Const::Int(5), Const::Int(6), Const::Int(1)]);
        edb.add_fact("exit", &[Const::Int(5), Const::Int(8), Const::Int(2)]);
        edb.add_fact("d", &[Const::Int(1), Const::Int(8)]);
        edb.add_fact("d", &[Const::Int(2), Const::Int(6)]);
        let expected = factorlog_datalog::eval::naive_evaluate(&program, &edb)
            .unwrap()
            .answers(&query);
        assert_eq!(out.answers(&edb).unwrap(), expected);
    }

    #[test]
    fn reduction_can_be_disabled() {
        let src = "p(X, Y, Z) :- a(X), p(X, Y, W), d(W, U), p(X, U, Z).\n\
                   p(X, Y, Z) :- exit(X, Y, Z).";
        let program = parse_program(src).unwrap().program;
        let query = parse_query("p(5, 6, U)").unwrap();
        let options = PipelineOptions {
            try_reduction: false,
            ..PipelineOptions::default()
        };
        let out = optimize_query(&program, &query, &options).unwrap();
        assert!(out.reduced.is_none());
        assert_eq!(out.strategy, Strategy::MagicOnly);
    }

    #[test]
    fn factoring_can_be_disabled() {
        let program = parse_program(THREE_RULE_TC).unwrap().program;
        let query = parse_query("t(5, Y)").unwrap();
        let options = PipelineOptions {
            factor: false,
            ..PipelineOptions::default()
        };
        let out = optimize_query(&program, &query, &options).unwrap();
        assert_eq!(out.strategy, Strategy::MagicOnly);
        // The magic-only fallback still answers correctly.
        let edb = chain_edb(5, 5);
        assert_eq!(out.answers(&edb).unwrap().len(), 5);
    }

    #[test]
    fn forced_factoring_of_a_non_factorable_program_changes_answers() {
        // Forcing the factoring of Example 4.3's program produces a program that is
        // *not* equivalent — reproducing the paper's negative example end to end.
        let src = "p(X, Y) :- l1(X), p(X, U), c1(U, V), p(V, Y), r1(Y).\n\
                   p(X, Y) :- l2(X), p(X, U), c2(U, V), p(V, Y), r2(Y).\n\
                   p(X, Y) :- f(X, V), p(V, Y), r3(Y).\n\
                   p(X, Y) :- e(X, Y).";
        let program = parse_program(src).unwrap().program;
        let query = parse_query("p(5, Y)").unwrap();
        let options = PipelineOptions {
            force_factoring: true,
            ..PipelineOptions::default()
        };
        let out = optimize_query(&program, &query, &options).unwrap();
        assert_eq!(out.strategy, Strategy::FactoredMagic);
        assert!(!out.factorability.as_ref().unwrap().is_factorable());

        // The paper's first EDB instance: 8 is incorrectly derived by the factored
        // program.
        let mut edb = Database::new();
        edb.add_fact("f", &[Const::Int(5), Const::Int(1)]);
        edb.add_fact("e", &[Const::Int(5), Const::Int(6)]);
        edb.add_fact("e", &[Const::Int(1), Const::Int(7)]);
        edb.add_fact("e", &[Const::Int(2), Const::Int(8)]);
        edb.add_fact("l1", &[Const::Int(1)]);
        edb.add_fact("c1", &[Const::Int(6), Const::Int(2)]);
        edb.add_fact("r1", &[Const::Int(7)]);
        edb.add_fact("r1", &[Const::Int(8)]);
        // r3 is needed for answers through the right-linear rule.
        for v in [6, 7, 8] {
            edb.add_fact("r3", &[Const::Int(v)]);
        }
        let correct = factorlog_datalog::eval::naive_evaluate(&program, &edb)
            .unwrap()
            .answers(&query);
        let factored_answers = out.answers(&edb).unwrap();
        assert!(
            factored_answers.len() > correct.len(),
            "forced factoring must over-derive here: {factored_answers:?} vs {correct:?}"
        );
        assert!(factored_answers.contains(&vec![Const::Int(8)]));
        assert!(!correct.contains(&vec![Const::Int(8)]));
    }

    #[test]
    fn prepared_plan_replays_the_pipeline_output() {
        let program = parse_program(THREE_RULE_TC).unwrap().program;
        let query = parse_query("t(5, Y)").unwrap();
        let out = optimize_query(&program, &query, &PipelineOptions::default()).unwrap();
        let plan = out.prepare(&EvalOptions::default()).unwrap();
        assert!(
            !plan.seeds().is_empty(),
            "the magic seed must be stripped into the seed list"
        );
        assert_eq!(plan.bound_consts(), &[Const::Int(5)]);
        let edb = chain_edb(10, 5);
        assert_eq!(
            plan.answers(&edb, &EvalOptions::default()).unwrap(),
            out.answers(&edb).unwrap()
        );
    }

    #[test]
    fn prepared_plan_rebinds_to_new_constants() {
        let program = parse_program(THREE_RULE_TC).unwrap().program;
        let query = parse_query("t(5, Y)").unwrap();
        let out = optimize_query(&program, &query, &PipelineOptions::default()).unwrap();
        let plan = out.prepare(&EvalOptions::default()).unwrap();

        // Rebind the (5)-plan to constant 20 and compare against a fresh pipeline run.
        let rebound = plan.rebind(&[Const::Int(20)]).expect("rebind applies");
        let edb = chain_edb(30, 0);
        let fresh_query = parse_query("t(20, Y)").unwrap();
        let fresh = optimize_query(&program, &fresh_query, &PipelineOptions::default()).unwrap();
        assert_eq!(
            rebound.answers(&edb, &EvalOptions::default()).unwrap(),
            fresh.answers(&edb).unwrap()
        );
        assert_eq!(
            rebound
                .answers(&edb, &EvalOptions::default())
                .unwrap()
                .len(),
            10
        );

        // Same constants: trivially rebindable.
        assert!(plan.rebind(&[Const::Int(5)]).is_some());
        // Arity mismatch: refused.
        assert!(plan.rebind(&[Const::Int(1), Const::Int(2)]).is_none());
    }

    #[test]
    fn rebind_refuses_constants_mentioned_by_rules() {
        // The rule set mentions 7 (in a body literal, which survives the rewriting);
        // a plan may have been specialized on it.
        let program = parse_program(
            "t(X, Y) :- e(X, W), t(W, Y).\n\
             t(X, Y) :- e(X, Y), anchor(7).",
        )
        .unwrap()
        .program;
        let query = parse_query("t(5, Y)").unwrap();
        let out = optimize_query(&program, &query, &PipelineOptions::default()).unwrap();
        let plan = out.prepare(&EvalOptions::default()).unwrap();
        assert!(plan.rebind(&[Const::Int(7)]).is_none());
    }

    #[test]
    fn head_constants_in_free_positions_survive_the_pipeline() {
        // Regression for the ROADMAP-flagged adornment report: rules whose head has a
        // constant in a free position of the reachable adornment must flow through
        // adorn -> magic -> (factoring) -> §5 optimization without being dropped, and
        // the final program must compute exactly the answers of direct evaluation —
        // including answers *derivable only through* the constant-headed rule.
        let mut edb = Database::new();
        for (a, b) in [(3i64, 4i64), (4, 5), (5, 7), (7, 3), (7, 8), (8, 4), (9, 7)] {
            edb.add_fact("e", &[Const::Int(a), Const::Int(b)]);
        }
        for m in [3i64, 4, 7, 9] {
            edb.add_fact("mark", &[Const::Int(m)]);
        }
        let cases = [
            // Single constant-headed exit rule: the program is RLC-stable, so the
            // pipeline factors it (the sharpest version of the regression).
            (
                "t(X, Y) :- e(X, W), t(W, Y).\nt(X, 7) :- mark(X).",
                "t(3, Y)",
            ),
            (
                "t(X, Y) :- t(X, W), e(W, Y).\nt(X, 7) :- mark(X).",
                "t(3, Y)",
            ),
            (
                "t(X, Y) :- t(X, W), t(W, Y).\nt(7, Y) :- mark(Y).",
                "t(7, Y)",
            ),
            // Ground program fact as the exit rule.
            ("t(X, Y) :- e(X, W), t(W, Y).\nt(3, 7).", "t(3, Y)"),
            // Extra constant-headed rule beside a variable exit rule: classification
            // sees two exit rules and the pipeline falls back to Magic-only.
            (
                "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).\nt(X, 7) :- mark(X).",
                "t(3, Y)",
            ),
            // Mirrored adornment: the constant sits in the free position of `fb`.
            (
                "t(X, Y) :- e(X, Y).\nt(X, Y) :- t(X, W), e(W, Y).\nt(7, Y) :- mark(Y).",
                "t(X, 4)",
            ),
        ];
        for (src, query_text) in cases {
            let program = parse_program(src).unwrap().program;
            let query = parse_query(query_text).unwrap();
            let expected = factorlog_datalog::eval::naive_evaluate(&program, &edb)
                .unwrap()
                .answers(&query);
            assert!(
                !expected.is_empty(),
                "the workload must exercise the constant-headed rule: {src}"
            );
            let out = optimize_query(&program, &query, &PipelineOptions::default()).unwrap();
            assert_eq!(
                out.answers(&edb).unwrap(),
                expected,
                "strategy {:?} loses answers for {query_text} over:\n{src}\nfinal:\n{}",
                out.strategy,
                out.program
            );
            // And the prepared-plan replay path agrees too.
            let plan = out.prepare(&EvalOptions::default()).unwrap();
            assert_eq!(
                plan.answers(&edb, &EvalOptions::default()).unwrap(),
                expected,
                "prepared plan loses answers for {query_text} over:\n{src}"
            );
        }
    }

    #[test]
    fn pass_times_record_every_stage_in_order() {
        let program = parse_program(THREE_RULE_TC).unwrap().program;
        let query = parse_query("t(5, Y)").unwrap();
        let out = optimize_query(&program, &query, &PipelineOptions::default()).unwrap();
        let names: Vec<&str> = out.pass_times.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            vec![
                "adorn",
                "magic",
                "classify",
                "factorability",
                "factor",
                "optimize"
            ]
        );

        // A reduced program runs the stages twice; both runs are recorded.
        let src = "p(X, Y, Z) :- a(X), p(X, Y, W), d(W, U), p(X, U, Z).\n\
                   p(X, Y, Z) :- exit(X, Y, Z).";
        let program = parse_program(src).unwrap().program;
        let query = parse_query("p(5, 6, U)").unwrap();
        let out = optimize_query(&program, &query, &PipelineOptions::default()).unwrap();
        assert!(out.reduced.is_some());
        let adorns = out.pass_times.iter().filter(|(n, _)| *n == "adorn").count();
        assert_eq!(adorns, 2);
        assert!(out.pass_times.iter().any(|(n, _)| *n == "reduce"));
    }

    #[test]
    fn query_on_edb_predicate_is_rejected_cleanly() {
        let program = parse_program("t(X, Y) :- e(X, Y).").unwrap().program;
        let query = parse_query("zzz(1)").unwrap();
        assert!(optimize_query(&program, &query, &PipelineOptions::default()).is_err());
    }
}
