//! Every workload in quick mode (`--seconds 2.5`: an eighth of the batches),
//! end to end and traced: the harness cannot rot unnoticed. No timing is
//! asserted, only that the outputs check out and every metric is reported.

use std::path::PathBuf;

use factorlog_benchmark::metrics::{spec, Outcome};
use factorlog_benchmark::workloads::serving::Model;
use factorlog_benchmark::workloads::{run, serve_read, RunConfig, Workload, DEFAULT_SECONDS};

fn quick(workload: Workload, seed: u64, trace: bool) -> Outcome {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "{}-{seed}-{}",
        workload.name(),
        u8::from(trace)
    ));
    let config = RunConfig {
        seed,
        seconds: DEFAULT_SECONDS / 8.0,
        trace,
        out_dir: out_dir.clone(),
    };
    let outcome = run(workload, &config);
    assert!(outcome.correct, "{}:\n{}", workload.name(), outcome.report);
    assert_eq!(outcome.failed, 0, "{}", workload.name());
    assert!(outcome.attempted > 0);
    if trace {
        // Every per-layer metric is printed; the trace file is written.
        outcome.result_line(&spec().per_layer);
        let trace_file = out_dir.join(format!("trace-{}.json", workload.name()));
        let text = std::fs::read_to_string(trace_file).expect("trace file written");
        assert!(text.contains("\"spans\""));
    } else {
        for def in &spec().end_to_end {
            assert!(outcome.value(def) > 0.0, "{} is never 0", def.name);
        }
    }
    std::fs::remove_dir_all(out_dir).ok();
    outcome
}

#[test]
fn paper_oneshot_runs_and_seeds_do_not_change_the_work() {
    let first = quick(Workload::PaperOneshot, 1, false);
    let second = quick(Workload::PaperOneshot, 2, false);
    assert_eq!(first.attempted, second.attempted);
    // A seed relabels the constants; the evaluation does the same work.
    let first = quick(Workload::PaperOneshot, 1, true);
    let second = quick(Workload::PaperOneshot, 2, true);
    for exact in [
        "eval.inferences",
        "eval.facts_derived",
        "core.inference_reduction",
    ] {
        assert_eq!(first.metrics[exact], second.metrics[exact], "{exact}");
    }
    assert_eq!(first.metrics["core.factored_programs"], 7.0);
    assert!(first.metrics["core.inference_reduction"] > 1.0);
    assert!(first.metrics["core.max_arity_out"] < first.metrics["core.max_arity_in"]);
}

#[test]
fn serve_read_runs() {
    quick(Workload::ServeRead, 1, false);
    let traced = quick(Workload::ServeRead, 1, true);
    assert!(traced.metrics["server.reply_cache_hit_ratio"] > 0.1);
    assert!(traced.metrics["storage.answers_probe_ns"] > 0.0);
}

#[test]
fn serve_write_runs_and_seeds_do_not_change_the_operation_count() {
    let first = quick(Workload::ServeWrite, 1, false);
    let second = quick(Workload::ServeWrite, 2, false);
    assert_eq!(first.attempted, second.attempted);
    let traced = quick(Workload::ServeWrite, 1, true);
    assert!(traced.metrics["wal.bytes_per_txn"] > 0.0);
    assert!(traced.metrics["server.txns_per_fsync"] >= 1.0);
}

#[test]
fn serve_mixed_runs() {
    quick(Workload::ServeMixed, 1, false);
    let traced = quick(Workload::ServeMixed, 1, true);
    assert!(traced.metrics["durability.recover_ms"] > 0.0);
    // Every commit bumps the epoch, so the reply cache barely hits.
    assert!(traced.metrics["server.reply_cache_hit_ratio"] < 0.2);
}

#[test]
fn a_second_seed_changes_the_generated_inputs_but_not_their_shape() {
    let shapes: Vec<(usize, usize)> = (0..64).map(serve_read::shape).collect();
    let (a, streams_a) = Model::generate(&shapes, 2, 16, 10, 1);
    let (b, streams_b) = Model::generate(&shapes, 2, 16, 10, 2);
    assert_ne!(a.source, b.source);
    assert_ne!(streams_a[0].specs, streams_b[0].specs);
    assert_eq!(a.edges.len(), b.edges.len());
    assert_eq!(a.oracle.total_facts(), b.oracle.total_facts());
    let rows = |model: &Model| -> Vec<usize> {
        model
            .components
            .iter()
            .map(|c| model.expected[&c.root].rows)
            .collect()
    };
    assert_eq!(rows(&a), rows(&b));
}
