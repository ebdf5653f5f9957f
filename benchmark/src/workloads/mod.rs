//! The four workloads. Each stresses different layers (README, "Workloads"),
//! and each is run in a fresh process by `main`.

use std::path::PathBuf;

use crate::metrics::Outcome;
use crate::timing::{peak_rss_mb, summarize, timed, Better};
use crate::trace::Tracer;

pub mod paper_oneshot;
pub mod serve_mixed;
pub mod serve_read;
pub mod serve_write;
pub mod serving;

/// The `--seconds` value the batch counts in the workload definitions are
/// sized for (`run_seconds` in `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 20.0;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper path, no server: parse, optimize, evaluate.
    PaperOneshot,
    /// Read-only serving of a large materialized view.
    ServeRead,
    /// Durable transactions on a small model.
    ServeWrite,
    /// Reads beside writes on the large model, durable.
    ServeMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperOneshot,
        Workload::ServeRead,
        Workload::ServeWrite,
        Workload::ServeMixed,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperOneshot => "paper_oneshot",
            Workload::ServeRead => "serve_read",
            Workload::ServeWrite => "serve_write",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How to run a workload.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Seeds every generated input.
    pub seed: u64,
    /// `--seconds`: batch counts scale with `seconds / DEFAULT_SECONDS`; batch
    /// sizes never change.
    pub seconds: f64,
    /// The traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Where data directories and `trace-<workload>.json` go.
    pub out_dir: PathBuf,
}

impl RunConfig {
    /// `count` scaled by `--seconds`, at least `floor`.
    fn scaled(&self, count: usize, floor: usize) -> usize {
        ((count as f64 * self.seconds / DEFAULT_SECONDS).round() as usize).max(floor)
    }

    /// Warm-up and measured batch counts for this run: the workload's
    /// constants scaled by `--seconds`, and halved in the traced run, whose
    /// numbers are not gated and which has the layer probes to fit in as well.
    pub fn batches(&self, warmup: usize, measured: usize) -> (usize, usize) {
        let divisor = if self.trace { 2 } else { 1 };
        (
            self.scaled(warmup / divisor, 1),
            self.scaled(measured / divisor, 4),
        )
    }

    /// Set-up samples to time before and after the measured phases:
    /// [`SETUP_SAMPLES`] scaled by `--seconds` and split in two, so that a slow
    /// spell of the host at either end of the run cannot carry the result. The
    /// traced run, which does not report `setup_s`, takes one.
    fn setup_samples(&self) -> (usize, usize) {
        if self.trace {
            return (1, 0);
        }
        let samples = self.scaled(SETUP_SAMPLES, 1);
        (samples.div_ceil(2), samples / 2)
    }
}

/// Set-up samples per run at the default `--seconds`.
const SETUP_SAMPLES: usize = 3;

/// The set-up of one workload, run in samples of `repeats` complete set-ups
/// back to back: `repeats` is a constant of the workload, chosen so that one
/// sample is about a second of work on the reference host (a 20 ms set-up does
/// not repeat between runs; a second of them does). `setup_s` is the time of
/// one sample — `repeats` set-ups, each at the best twentieth of the run's.
pub struct SetupTimer<T, B: FnMut() -> T, D: FnMut(T)> {
    repeats: usize,
    build: B,
    /// Tears a set-up down, outside the timed region.
    discard: D,
    /// Seconds per set-up so far.
    seconds: Vec<f64>,
    after: usize,
}

impl<T, B: FnMut() -> T, D: FnMut(T)> SetupTimer<T, B, D> {
    /// Time the samples that come before the measured phases and return the
    /// last set-up's product, which the workload then runs on. The traced run
    /// sets up once.
    pub fn before(config: &RunConfig, repeats: usize, build: B, discard: D) -> (Self, T) {
        let (before, after) = config.setup_samples();
        let mut timer = SetupTimer {
            repeats: if config.trace { 1 } else { repeats },
            build,
            discard,
            seconds: Vec::new(),
            after,
        };
        let kept = timer.sample(before).expect("at least one set-up");
        (timer, kept)
    }

    /// Time `samples` samples; every product but the last is discarded.
    fn sample(&mut self, samples: usize) -> Option<T> {
        let mut kept = None;
        for _ in 0..samples * self.repeats {
            if let Some(previous) = kept.take() {
                (self.discard)(previous);
            }
            let (elapsed, built) = timed(&mut self.build);
            self.seconds.push(elapsed);
            kept = Some(built);
        }
        kept
    }

    /// Time one more set-up in the middle of the run and return its product
    /// (the previous one must be gone by now).
    pub fn another(&mut self) -> T {
        let (elapsed, built) = timed(&mut self.build);
        self.seconds.push(elapsed);
        built
    }

    /// Time the samples that come after the measured phases (the last product
    /// must be gone by now) and record the end-to-end metrics of an untraced
    /// run.
    pub fn finish(mut self, outcome: &mut Outcome, latency_us: f64, throughput_per_s: f64) {
        // The high-water mark of one set-up sample and the measured phases:
        // what the repeated set-ups below leave behind varies by a tenth.
        outcome.set("peak_rss_mb", peak_rss_mb());
        if let Some(last) = self.sample(self.after) {
            (self.discard)(last);
        }
        let one = summarize(&self.seconds, Better::Lower);
        outcome.set("latency_us", latency_us);
        outcome.set("throughput_per_s", throughput_per_s);
        outcome.set("setup_s", one.best * self.repeats as f64);
        outcome.note(format!(
            "  setup_s = {} x one set-up; one set-up over {} of them, s: best 5 % {:.4} (p5 {:.4})  median {:.4}  p90 {:.4}",
            self.repeats,
            self.seconds.len(),
            one.best,
            one.edge,
            one.median,
            one.worst
        ));
    }
}

/// Run `workload`.
pub fn run(workload: Workload, config: &RunConfig) -> Outcome {
    match workload {
        Workload::PaperOneshot => paper_oneshot::run(config),
        Workload::ServeRead => serve_read::run(config),
        Workload::ServeWrite => serve_write::run(config),
        Workload::ServeMixed => serve_mixed::run(config),
    }
}

/// Percentage by which the traced (odd) batches of a traced run are worse than
/// its untraced (even) ones, comparing the gated statistic; `values` holds
/// `per_batch` samples of every batch, in order.
pub fn trace_overhead_pct(values: &[f64], per_batch: usize, better: Better) -> f64 {
    let side = |parity: usize| -> f64 {
        let of_batch = |i: usize| i / per_batch % 2 == parity;
        let picked = values.iter().enumerate().filter(|(i, _)| of_batch(*i));
        let side: Vec<f64> = picked.map(|(_, &v)| v).collect();
        summarize(&side, better).best
    };
    match better {
        Better::Lower => (side(1) / side(0) - 1.0) * 100.0,
        Better::Higher => (side(0) / side(1) - 1.0) * 100.0,
    }
}

/// Append the tracer's self-time table to the report and write the trace file.
pub fn finish_trace(tracer: &Tracer, config: &RunConfig, workload: &str, outcome: &mut Outcome) {
    let totals = tracer.totals();
    let all: u64 = totals.values().map(|t| t.self_ns).sum();
    outcome.note("  self time by span (traced batches and in-process replays):");
    for (name, t) in &totals {
        outcome.note(format!(
            "    {:<26} {:>8} spans {:>11.3} ms self {:>5.1} %",
            name,
            t.count,
            t.self_ns as f64 / 1e6,
            t.self_ns as f64 * 100.0 / all.max(1) as f64
        ));
    }
    let path = config.out_dir.join(format!("trace-{workload}.json"));
    if let Err(e) = tracer.write_json(&path, workload, config.seed) {
        outcome.check(false, format!("cannot write {}: {e}", path.display()));
    }
}
