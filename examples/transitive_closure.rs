//! Example 1.1 / 4.2 / 5.3 of the paper, end to end and stage by stage: the three-rule
//! transitive closure, its Magic program (Fig. 1), the factored program (Fig. 2), and
//! the final unary program, with an evaluation comparison of the strategies.
//!
//! Run with: `cargo run --release --example transitive_closure`

use factorlog::core::optimize::{optimize, FactoringContext};
use factorlog::prelude::*;
use factorlog::workloads::{graphs, programs};

fn main() {
    let program = parse_program(programs::THREE_RULE_TC).unwrap().program;
    let query = parse_query("t(5, Y)").unwrap();

    println!("== original program (Example 1.1) ==\n{program}");
    println!("query: {query}\n");

    // Stage 1: adornment.
    let adorned = adorn(&program, &query).unwrap();
    println!("== adorned program ==\n{}", adorned.program);

    // Stage 2: Magic Sets (Fig. 1 of the paper).
    let magic_program = magic(&adorned).unwrap();
    println!("== magic program (Fig. 1) ==\n{}", magic_program.program);

    // Stage 3: classification and factorability analysis.
    let classification = classify(&adorned).unwrap();
    println!("== classification ==\n{}", classification.summary());
    let report = analyze(&classification);
    println!("== factorability ==\n{report}");

    // Stage 4: factoring (Fig. 2 of the paper).
    let factored = factor_magic(&adorned, &magic_program).unwrap();
    println!(
        "== factored magic program (Fig. 2) ==\n{}",
        factored.program
    );

    // Stage 5: the §5 optimizations (Example 5.3's final unary program).
    let ctx = FactoringContext::from_factored(&factored);
    let (final_program, trace) = optimize(&factored.program, &factored.query, Some(&ctx));
    println!("== final program (Example 5.3) ==\n{final_program}");
    println!("final query: {}\n", factored.query);
    println!("simplifications applied:");
    for step in &trace.steps {
        println!("  - {step}");
    }

    // Evaluation comparison on a chain starting at node 5. The original program's
    // nonlinear rule is cubic in the chain length, so the baseline instance is modest.
    println!("\n== evaluation comparison (chain of 300 edges starting at node 5, plus an irrelevant 300-edge chain) ==");
    let mut edb = Database::new();
    for i in 0..300i64 {
        edb.add_fact("e", &[Const::Int(5 + i), Const::Int(5 + i + 1)]);
    }
    // Also add an irrelevant component that Magic Sets should never touch.
    let irrelevant = graphs::chain(300);
    let mut edb_with_noise = edb.clone();
    for row in irrelevant.relation(Symbol::intern("e")).unwrap().iter() {
        edb_with_noise.add_fact(
            "e",
            &[
                Const::Int(row[0].as_int().unwrap() + 1_000_000),
                Const::Int(row[1].as_int().unwrap() + 1_000_000),
            ],
        );
    }

    let strategies: Vec<(&str, Program, Query)> = vec![
        ("original (semi-naive)", program.clone(), query.clone()),
        (
            "magic",
            magic_program.program.clone(),
            adorned.query.clone(),
        ),
        (
            "magic + factoring + §5",
            final_program.clone(),
            factored.query.clone(),
        ),
    ];
    println!(
        "{:<28} {:>12} {:>12} {:>10}",
        "strategy", "inferences", "facts", "answers"
    );
    for (name, prog, q) in strategies {
        let result = evaluate_default(&prog, &edb_with_noise).unwrap();
        println!(
            "{:<28} {:>12} {:>12} {:>10}",
            name,
            result.stats.inferences,
            result.stats.facts_derived,
            result.answers(&q).len()
        );
    }
    println!("\n(the factored program derives one unary fact per reachable node instead of a binary relation)");
}
