//! `selfcheck`: does the benchmark agree with itself?
//!
//! Every workload is run as two interleaved sets of runs of the same build,
//! each run in a fresh process with its own seed. Per end-to-end metric the
//! check prints each set's median and quartiles, the spread over all runs
//! (interquartile range as a share of the median) and how much worse the second
//! set's median is than the first's, and fails when either exceeds the metric's
//! bound in `BENCHMARK.json` (the spread of `setup_s` is reported only). Two
//! traced runs with one seed must then agree bit for bit on the exact counters.

use std::collections::BTreeMap;
use std::process::Command;

use crate::json::{self, Value};
use crate::metrics::spec;
use crate::timing::{sorted, Better};
use crate::workloads::Workload;

/// Per-layer metrics that are counts of work, not times: they must repeat
/// exactly between two runs with one seed.
const EXACT: &[&str] = &[
    "core.rules_out",
    "core.max_arity_in",
    "core.max_arity_out",
    "core.factored_programs",
    "core.inference_reduction",
    "core.fact_reduction",
    "eval.inferences",
    "eval.facts_derived",
    "eval.iterations",
    "eval.index_probes",
    "eval.duplicate_ratio",
    "storage.rows_per_probe",
    "engine.retractions_per_txn",
    "engine.rederivations_per_txn",
    "engine.delete_rounds_per_txn",
    "wal.bytes_per_txn",
];

/// One run's parsed result line.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn run_once(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{} printed nothing", workload.name()))?;
    let parsed = json::parse(last).map_err(|e| format!("bad result line: {e}"))?;
    let number = |key: &str| parsed.get(key).and_then(Value::as_f64).unwrap_or(0.0);
    let metrics = parsed
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result line has no metrics")?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(RunResult {
        correct: parsed.get("correct") == Some(&Value::Bool(true)) && output.status.success(),
        attempted: number("attempted") as u64,
        failed: number("failed") as u64,
        metrics,
    })
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them (the
/// default "exclusive" method), which is what the regression gate uses.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values);
    let n = data.len();
    assert!(n >= 2, "quartiles need two values");
    [1, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        data[j - 1] * (1.0 - delta) + data[j] * delta
    })
}

fn host_line() -> String {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let revision = Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    format!(
        "host: nproc {}, kernel {}, git revision {revision}, FACTORLOG_THREADS=1",
        std::thread::available_parallelism().map_or(0, usize::from),
        kernel.trim()
    )
}

/// Run the check on `workloads` with `runs` runs per set; `true` when
/// everything agreed.
pub fn run(workloads: &[Workload], runs: usize, seconds: f64) -> bool {
    let runs = runs.max(2);
    let mut ok = true;
    println!("{}", host_line());
    println!(
        "{runs} runs per set, sets interleaved, every run a fresh process with its own seed, --seconds {seconds}"
    );
    println!();
    println!("| workload | metric | set A median [q1, q3] | set B median [q1, q3] | spread of all runs | B worse than A | bound | |");
    println!("|---|---|---|---|---|---|---|---|");
    for &workload in workloads {
        let mut sets: [Vec<RunResult>; 2] = [Vec::new(), Vec::new()];
        for k in 0..runs {
            for (side, set) in sets.iter_mut().enumerate() {
                let seed = (2 * k + side + 1) as u64;
                match run_once(workload, seed, seconds, false) {
                    Ok(result) => {
                        if !result.correct || result.failed > 0 {
                            println!("{} seed {seed}: run failed its checks", workload.name());
                            ok = false;
                        }
                        set.push(result);
                    }
                    Err(message) => {
                        println!("{} seed {seed}: {message}", workload.name());
                        return false;
                    }
                }
            }
        }
        // Operation counts do not depend on the seed (serve_mixed's writer
        // runs for as long as its reader does, so its count varies).
        if workload != Workload::ServeMixed {
            let first = sets[0][0].attempted;
            if sets.iter().flatten().any(|r| r.attempted != first) {
                println!(
                    "{}: attempted operations differ between seeds",
                    workload.name()
                );
                ok = false;
            }
        }
        for def in &spec().end_to_end {
            let values = |set: &[RunResult]| -> Vec<f64> {
                set.iter().map(|r| r.metrics[&def.name]).collect()
            };
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            let (qa, qb) = (quartiles(&a), quartiles(&b));
            let all: Vec<f64> = a.iter().chain(&b).copied().collect();
            let q = quartiles(&all);
            let spread = (q[2] - q[0]) / q[1];
            let worse = match def.better {
                Better::Lower => qb[1] / qa[1] - 1.0,
                Better::Higher => 1.0 - qb[1] / qa[1],
            };
            let bound = def.bound.expect("end-to-end metrics have bounds");
            let within = worse <= bound && (spread <= bound || def.name == "setup_s");
            ok &= within;
            println!(
                "| {} | {} ({}) | {:.4} [{:.4}, {:.4}] | {:.4} [{:.4}, {:.4}] | {:.2} % | {:+.2} % | {:.0} % | {} |",
                workload.name(),
                def.name,
                def.unit,
                qa[1], qa[0], qa[2],
                qb[1], qb[0], qb[2],
                spread * 100.0,
                worse * 100.0,
                bound * 100.0,
                if within { "ok" } else { "FAIL" }
            );
        }
    }

    println!();
    println!("exact counters, two traced runs with seed 1:");
    for &workload in workloads {
        let pair = [(); 2].map(|()| run_once(workload, 1, seconds, true));
        let [Ok(first), Ok(second)] = pair else {
            println!("{}: traced run did not finish", workload.name());
            return false;
        };
        let mut differing = Vec::new();
        for name in EXACT {
            debug_assert!(spec().per_layer.iter().any(|m| m.name == *name));
            if first.metrics[*name].to_bits() != second.metrics[*name].to_bits() {
                differing.push(*name);
            }
        }
        if workload != Workload::ServeMixed && first.attempted != second.attempted {
            differing.push("attempted");
        }
        let verdict = if differing.is_empty() && first.correct && second.correct {
            "identical".to_string()
        } else {
            ok = false;
            format!("DIFFER: {differing:?}")
        };
        println!("  {:<14} {verdict}", workload.name());
    }
    println!();
    println!("selfcheck {}", if ok { "passed" } else { "FAILED" });
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), [1.0, 3.0, 4.5]);
    }
}
