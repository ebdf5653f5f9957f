//! `factorlog-benchmark --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]`
//! runs one workload in this (fresh) process, checks its outputs, prints a
//! report and, as the last line, the result as one JSON object.
//! `factorlog-benchmark selfcheck [--workload <name>] [--runs <n>] [--seconds <s>]`
//! runs every workload (or the one named) as two interleaved sets and holds the
//! sets to the bounds in `BENCHMARK.json`.

use std::path::PathBuf;
use std::process::ExitCode;

use factorlog_benchmark::metrics::spec;
use factorlog_benchmark::selfcheck;
use factorlog_benchmark::workloads::{self, RunConfig, Workload, DEFAULT_SECONDS};

const USAGE: &str = "usage: factorlog-benchmark --workload <paper_oneshot|serve_read|serve_write|serve_mixed> --seed <n> [--seconds <s>] [--trace 0|1]\n       factorlog-benchmark selfcheck [--workload <name>] [--runs <n>] [--seconds <s>]";

/// Where data directories and traces go: `out/` in this package, wherever the
/// benchmark is started from.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// The command line.
struct Options {
    selfcheck: bool,
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    runs: usize,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut options = Options {
        selfcheck: false,
        workload: None,
        seed: None,
        seconds: DEFAULT_SECONDS,
        trace: false,
        runs: 5,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "selfcheck" => options.selfcheck = true,
            "--workload" => {
                let name = value()?;
                let workload =
                    Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?;
                options.workload = Some(workload);
            }
            "--seed" => options.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                options.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                options.trace = value()?
                    .parse::<u8>()
                    .map_err(|e| format!("--trace: {e}"))?
                    != 0;
            }
            "--runs" => options.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(options.seconds > 0.0 && options.seconds <= 3600.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(options)
}

fn main() -> ExitCode {
    // Evaluation is single-threaded in every workload; the variable is read
    // once, before any engine exists.
    std::env::set_var("FACTORLOG_THREADS", "1");
    let options = match parse_args(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Options { seconds, trace, .. } = options;
    let passed = if options.selfcheck {
        let workloads = options.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
        selfcheck::run(&workloads, options.runs, seconds)
    } else {
        let (Some(workload), Some(seed)) = (options.workload, options.seed) else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        let config = RunConfig {
            seed,
            seconds,
            trace,
            out_dir: PathBuf::from(OUT_DIR),
        };
        println!(
            "factorlog-benchmark: workload {} seed {seed} seconds {seconds} trace {} | nproc {} FACTORLOG_THREADS=1",
            workload.name(),
            u8::from(trace),
            std::thread::available_parallelism().map_or(0, usize::from)
        );
        let outcome = workloads::run(workload, &config);
        print!("{}", outcome.report);
        let table = if trace {
            &spec().per_layer
        } else {
            &spec().end_to_end
        };
        for def in table {
            if let Some(value) = outcome.metrics.get(def.name.as_str()) {
                println!("{:<36} {value:>16.4} {}", def.name, def.unit);
            }
        }
        println!("{}", outcome.result_line(table));
        outcome.correct
    };
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
