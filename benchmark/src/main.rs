//! The Agave-rs benchmark driver.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload characterize|design_sweep|serve_mix --seed N --seconds S --trace 0|1
//! ```
//!
//! One process runs one seeded workload through the workspace's public
//! APIs: a set-up phase (repeated, the mean rep reported), a timed
//! phase of repeated fixed-work rounds lasting at least `--seconds`,
//! and output checks outside the timed phase. The last stdout line is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (the end-to-end metrics with `--trace 0`, the per-layer breakdown
//! with `--trace 1`). See `benchmark/README.md`.

mod characterize;
mod design_sweep;
mod layers;
mod measure;
mod serve_mix;

use agave_trace::json;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// How big each round's fixed work is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark proper: rounds lasting seconds.
    Full,
    /// Smoke-test sizing: rounds lasting milliseconds.
    Tiny,
}

/// Everything a workload needs from the command line.
#[derive(Debug, Clone)]
pub struct Params {
    /// Workload name.
    pub workload: String,
    /// Seeds every generated input.
    pub seed: u64,
    /// Minimum length of the timed phase.
    pub seconds: f64,
    /// Traced run: print the per-layer metrics.
    pub trace: bool,
    /// Round sizing.
    pub size: Size,
    /// Plant a fault the output checks must catch (tests only).
    pub plant_fault: bool,
    /// Scratch directory for traces and spool, removed at exit.
    pub work: PathBuf,
}

/// One printed metric.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What a workload run reports.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (workload runs, trace sweeps, requests).
    pub attempted: u64,
    /// Operations failed, plus every output-check mismatch.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Appends a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records one failed operation or check, with its cause on stderr.
    pub fn fail(&mut self, what: impl std::fmt::Display) {
        eprintln!("agave-benchmark: FAILED {what}");
        self.failed += 1;
    }

    fn to_json(&self) -> String {
        let mut metrics = json::Object::new();
        for m in &self.metrics {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let metric = json::Object::new()
                .field_f64("value", value)
                .field_str("unit", m.unit)
                .finish();
            metrics.field_raw(m.name, &metric);
        }
        json::Object::new()
            .field_bool("correct", self.failed == 0 && self.attempted > 0)
            .field_u64("attempted", self.attempted)
            .field_u64("failed", self.failed)
            .field_raw("metrics", &metrics.finish())
            .finish()
    }
}

/// The host's speed over a phase, from calibration slices taken before
/// every set-up rep or every round (see [`measure::calibration_rate`]).
///
/// On a shared 2-vCPU Xeon host the speed wanders by ±25 % over
/// minutes, so raw host-time
/// figures from two sets of runs disagree by more than any useful
/// bound. Every end-to-end time is therefore reported at the reference
/// speed [`Yardstick::REFERENCE`]: a duration is multiplied, and a rate
/// divided, by `median(calibration) / REFERENCE` of the same run.
#[derive(Debug, Default)]
pub struct Yardstick {
    samples: Vec<f64>,
}

impl Yardstick {
    /// Calibration iterations per second the reported figures are
    /// scaled to (about the median of the shared 2-vCPU Xeon host the
    /// benchmark was tuned on).
    pub const REFERENCE: f64 = 1.0e8;

    /// Takes ten calibration slices (about 40 ms) now.
    pub fn sample(&mut self) {
        self.samples
            .extend((0..10).map(|_| measure::calibration_rate()));
    }

    /// How much faster than the reference the host ran, over the run.
    pub fn speed(&self) -> f64 {
        measure::median(&self.samples) / Self::REFERENCE
    }
}

/// A run's set-up phase: the mean wall time of its reps, and the host's
/// speed sampled around them.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    /// Mean wall seconds per rep.
    pub raw_s: f64,
    /// [`Yardstick::speed`] over the set-up phase only.
    pub speed: f64,
}

/// Runs `setup` `reps` times and returns the phase and the last rep's
/// result. Before each rep, untimed, the previous rep's result is
/// dropped, everything under `dir` is removed (so every rep creates its
/// files afresh) and the host's speed is sampled. The reps together
/// last seconds, so their mean is steady where one short rep is not.
pub fn timed_setup<T>(reps: usize, dir: &Path, mut setup: impl FnMut() -> T) -> (Setup, T) {
    let mut host = Yardstick::default();
    let mut total = 0.0;
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        std::fs::remove_dir_all(dir).ok();
        std::fs::create_dir_all(dir).expect("create the set-up directory");
        host.sample();
        let start = Instant::now();
        last = Some(setup());
        total += measure::secs(start);
    }
    host.sample();
    let phase = Setup {
        raw_s: total / reps.max(1) as f64,
        speed: host.speed(),
    };
    (phase, last.expect("at least one rep"))
}

/// Runs fixed-work rounds until `params.seconds` have passed and at
/// least `min_rounds` rounds ran, sampling the host's speed before
/// each. A traced run alternates untraced and traced rounds, so the
/// tracing overhead is measured side by side. Returns `(traced,
/// result)` per round.
pub fn rounds<R>(
    params: &Params,
    host: &mut Yardstick,
    min_rounds: usize,
    mut round: impl FnMut(bool) -> R,
) -> Vec<(bool, R)> {
    let start = Instant::now();
    let min_rounds = if params.trace {
        min_rounds.max(4)
    } else {
        min_rounds
    };
    let mut out = Vec::new();
    while out.len() < min_rounds || measure::secs(start) < params.seconds {
        let traced = params.trace && out.len() % 2 == 1;
        host.sample();
        out.push((traced, round(traced)));
    }
    host.sample();
    out
}

/// Appends the end-to-end metrics of an untraced run: the mean set-up
/// rep, the peak resident set at the end of the timed phase, the median
/// per-round work rate and the median operation latency. Times are at
/// the reference host speed; the raw figures go to stderr.
pub fn end_to_end(
    out: &mut Outcome,
    host: &Yardstick,
    setup: Setup,
    peak_rss_mb: f64,
    rates: &[f64],
    op_ms: &[f64],
) {
    let speed = host.speed();
    let (rate, p50) = (measure::median(rates), measure::median(op_ms));
    eprintln!(
        "agave-benchmark: raw setup {:.4} s at host speed {:.4}; {rate:.5e} work/s, \
         p50 {p50:.3} ms over {} rounds and {} operations at host speed {speed:.4}",
        setup.raw_s,
        setup.speed,
        rates.len(),
        op_ms.len()
    );
    out.metric("setup_s", setup.raw_s * setup.speed, "s");
    out.metric("peak_rss_mb", peak_rss_mb, "MB");
    out.metric("work_per_s", rate / speed, "1/s");
    out.metric("latency_p50_ms", p50 * speed, "ms");
}

fn usage() -> ! {
    eprintln!(
        "usage: agave-benchmark --workload characterize|design_sweep|serve_mix \
         --seed N --seconds S --trace 0|1 [--size full|tiny] [--plant-fault]"
    );
    std::process::exit(2);
}

fn parse_args() -> Params {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::Full;
    let mut plant_fault = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--plant-fault" {
            plant_fault = true;
            continue;
        }
        let Some(value) = args.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s >= 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage(),
                }
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    let work =
        PathBuf::from(".bench_work").join(format!("{workload}-{seed}-{}", std::process::id()));
    Params {
        workload,
        seed,
        seconds,
        trace,
        size,
        plant_fault,
        work,
    }
}

fn main() {
    let params = parse_args();
    let run: fn(&Params) -> Outcome = match params.workload.as_str() {
        "characterize" => characterize::run,
        "design_sweep" => design_sweep::run,
        "serve_mix" => serve_mix::run,
        other => {
            eprintln!("agave-benchmark: unknown workload {other:?}");
            usage()
        }
    };
    if let Err(err) = std::fs::create_dir_all(&params.work) {
        eprintln!(
            "agave-benchmark: cannot create {}: {err}",
            params.work.display()
        );
        std::process::exit(1);
    }
    let outcome = run(&params);
    std::fs::remove_dir_all(&params.work).ok();
    std::fs::remove_dir(".bench_work").ok();
    println!("{}", outcome.to_json());
}
