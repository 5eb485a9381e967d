//! `characterize`: the paper's capture run.
//!
//! One thread runs all 25 workloads (19 Agave configurations, 6 SPEC)
//! with the `.agtrace` recorder attached exactly as `agave record --all`
//! attaches it, then renders Figures 1–4, Table I and the claim list
//! from the summaries. This is the only timed phase that runs the
//! simulator stack and the trace encoder; decode, cache, analysis and
//! serve do no work in it.

use crate::layers::{write_spans, LayerReport};
use crate::measure::{self, Ledger, Timed};
use crate::{end_to_end, rounds, timed_setup, Outcome, Params, Size, Yardstick};
use agave_core::engine::{self, EngineConfig, WorkloadOutcome};
use agave_core::{all_workloads, Experiments, RunConfig, SpecConfig, SuiteResults, Workload};
use agave_replay::{SummaryAccumulator, TraceBuffer, TraceStats, TraceWriter};
use agave_trace::{SharedSink, XorShift64};
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;

/// Simulated milliseconds per Agave run before the seeded jitter.
fn base_duration_ms(size: Size) -> u64 {
    match size {
        Size::Full => 24_000,
        Size::Tiny => 300,
    }
}

/// SPEC problem sizing for `size`.
pub fn spec_config(size: Size) -> SpecConfig {
    match size {
        Size::Full => SpecConfig::reference(),
        Size::Tiny => SpecConfig::tiny(),
    }
}

/// One sizing per workload: the seed jitters every run's simulated
/// duration (Agave, around `base_ms`) or problem size (SPEC, around
/// `spec`) by up to ±4 %.
pub fn seeded_configs(
    seed: u64,
    base_ms: u64,
    spec: SpecConfig,
    workloads: &[Workload],
) -> Vec<EngineConfig> {
    let mut rng = XorShift64::new(seed ^ 0xc4a2_a7e1);
    workloads
        .iter()
        .map(|_| {
            let permille = rng.range(960, 1041);
            let scale = |v: u64| v * permille / 1000;
            EngineConfig {
                app: RunConfig {
                    duration_ms: scale(base_ms),
                    display_scale: 8,
                },
                spec: SpecConfig {
                    bzip2_input: scale(spec.bzip2_input as u64) as usize,
                    rand_iters: scale(spec.rand_iters),
                    ..spec
                },
            }
        })
        .collect()
}

/// What one recording produced.
pub struct Recorded {
    /// The live run's outcome (summary + directory).
    pub outcome: WorkloadOutcome,
    /// The writer's statistics.
    pub stats: TraceStats,
    /// Sink batches the writer received (counted on traced runs only).
    pub batches: u64,
}

/// Records `workload` to `path` the way `agave record` does: one engine
/// run with a [`TraceWriter`] attached, then `finish`. With a ledger,
/// the writer is wrapped in a timer and the engine and encoder spans
/// are recorded.
pub fn record(
    workload: Workload,
    config: &EngineConfig,
    path: &Path,
    ledger: Option<&mut Ledger>,
) -> Result<Recorded, String> {
    let writer = Rc::new(RefCell::new(
        TraceWriter::create(path, workload.label()).map_err(|e| e.to_string())?,
    ));
    let Some(ledger) = ledger else {
        let (outcome, baseline) =
            engine::run_traced(workload, config, vec![writer.clone() as SharedSink]);
        let stats = writer
            .borrow_mut()
            .finish(&outcome.directory, &baseline)
            .map_err(|e| e.to_string())?;
        return Ok(Recorded {
            outcome,
            stats,
            batches: 0,
        });
    };
    let timed = Timed::wrap(writer.clone() as SharedSink);
    let start = Instant::now();
    let (outcome, baseline) =
        engine::run_traced(workload, config, vec![timed.clone() as SharedSink]);
    let sink_ns = timed.borrow().ns;
    let blocks = timed.borrow().blocks;
    ledger.close("engine", workload.label(), start, sink_ns, blocks);
    let finish_start = Instant::now();
    let stats = writer
        .borrow_mut()
        .finish(&outcome.directory, &baseline)
        .map_err(|e| e.to_string())?;
    let finish_ns = finish_start.elapsed().as_nanos() as u64;
    ledger.add(
        "replay.encode",
        workload.label(),
        sink_ns + finish_ns,
        stats.file_bytes,
    );
    let batches = timed.borrow().batches;
    Ok(Recorded {
        outcome,
        stats,
        batches,
    })
}

/// Records every `(workload, config)` to its path under the timers, as
/// a traced run's extra set-up rep, and returns the exact counts:
/// blocks, words and sink batches.
pub fn record_traced(
    items: &[(Workload, EngineConfig)],
    paths: &[PathBuf],
    ledger: &mut Ledger,
) -> Result<[u64; 3], String> {
    let mut counts = [0; 3];
    for ((workload, config), path) in items.iter().zip(paths) {
        let rec = record(*workload, config, path, Some(&mut *ledger))?;
        counts[0] += rec.stats.records;
        counts[1] += rec.stats.words;
        counts[2] += rec.batches;
    }
    Ok(counts)
}

/// Replays `path` into a summary, as `agave replay --summary` does; with
/// a ledger the summary sink is timed and decode self time recorded.
pub fn replay_summary(path: &Path, ledger: Option<&mut Ledger>) -> Result<String, String> {
    let Some(ledger) = ledger else {
        return agave_core::replay_trace_summary(path, 1)
            .map(|s| s.to_json())
            .map_err(|e| e.to_string());
    };
    let acc = Rc::new(RefCell::new(SummaryAccumulator::new()));
    let timed = Timed::wrap(acc.clone() as SharedSink);
    let start = Instant::now();
    let buf = TraceBuffer::open(path).map_err(|e| e.to_string())?;
    let outcome = buf
        .replay(&[timed.clone() as SharedSink], 1)
        .map_err(|e| e.to_string())?;
    let t = timed.borrow();
    ledger.close(
        "replay.decode",
        &outcome.label,
        start,
        t.ns,
        buf.len() as u64,
    );
    ledger.add("analysis.summary", &outcome.label, t.ns, t.blocks);
    let json = acc.borrow().build(&outcome).to_json();
    Ok(json)
}

/// Timed `TraceBuffer::validate` of `path` (the upload admission check).
pub fn validate(path: &Path, ledger: &mut Ledger) -> Result<(), String> {
    let start = Instant::now();
    let buf = TraceBuffer::open(path).map_err(|e| e.to_string())?;
    let outcome = buf.validate(1).map_err(|e| e.to_string())?;
    ledger.close("replay.validate", &outcome.label, start, 0, outcome.bytes);
    Ok(())
}

/// Renders every paper artifact from the summaries; returns the text.
fn render(outcomes: Vec<WorkloadOutcome>) -> String {
    let ex = Experiments::new(SuiteResults::from_outcomes(outcomes));
    let mut out = String::new();
    for figure in [ex.figure1(), ex.figure2(), ex.figure3(), ex.figure4()] {
        out.push_str(&figure.render());
    }
    out.push_str(&ex.table1().render());
    for claim in ex.check_claims() {
        out.push_str(&claim.to_json());
    }
    out
}

/// One round's result.
struct Round {
    secs: f64,
    refs: u64,
    /// Per-workload wall time of simulate + record, in ms.
    op_ms: Vec<f64>,
    digest: u64,
    failed: Vec<String>,
    ledger: Option<Ledger>,
    blocks: u64,
    words: u64,
    batches: u64,
}

impl Round {
    fn ledger(&self) -> &Ledger {
        self.ledger.as_ref().expect("traced round has a ledger")
    }
}

/// Runs one round; returns it with the live summaries (JSON).
fn round(
    workloads: &[Workload],
    configs: &[EngineConfig],
    paths: &[PathBuf],
    traced: bool,
) -> (Round, Vec<String>) {
    let mut ledger = traced.then(Ledger::new);
    let start = Instant::now();
    let mut r = Round {
        secs: 0.0,
        refs: 0,
        op_ms: Vec::with_capacity(workloads.len()),
        digest: measure::FNV_START,
        failed: Vec::new(),
        ledger: None,
        blocks: 0,
        words: 0,
        batches: 0,
    };
    let mut outcomes = Vec::with_capacity(workloads.len());
    for ((&workload, config), path) in workloads.iter().zip(configs).zip(paths) {
        let op_start = Instant::now();
        match record(workload, config, path, ledger.as_mut()) {
            Ok(rec) => {
                r.batches += rec.batches;
                r.refs += rec.outcome.summary.total_refs();
                r.blocks += rec.stats.records;
                r.words += rec.stats.words;
                outcomes.push(rec.outcome);
            }
            Err(err) => r.failed.push(format!("record {workload}: {err}")),
        }
        r.op_ms.push(measure::secs(op_start) * 1e3);
    }
    let summaries: Vec<String> = outcomes.iter().map(|o| o.summary.to_json()).collect();
    let report_start = Instant::now();
    let text = std::hint::black_box(render(outcomes));
    if let Some(ledger) = ledger.as_mut() {
        ledger.close("core.report", "figures", report_start, 0, 0);
    }
    r.secs = measure::secs(start);
    for s in &summaries {
        r.digest = measure::fnv(r.digest, s.as_bytes());
    }
    r.digest = measure::fnv(r.digest, text.as_bytes());
    r.ledger = ledger;
    (r, summaries)
}

/// Runs the workload.
pub fn run(params: &Params) -> Outcome {
    let mut out = Outcome::default();
    let workloads = all_workloads();
    let dir = params.work.join("traces");
    let paths: Vec<PathBuf> = workloads
        .iter()
        .map(|&w| agave_core::trace_path(&dir, w))
        .collect();
    // Set-up: generate the seeded sizing and a warm-up capture of the
    // whole suite at reference sizing (`agave record --all`).
    let (setup, configs) = timed_setup(15, &dir, || {
        let warm = match params.size {
            Size::Full => EngineConfig::reference(),
            Size::Tiny => EngineConfig::quick(),
        };
        for (&w, path) in workloads.iter().zip(&paths) {
            agave_core::record_workload(w, &warm, path).expect("warm-up capture");
        }
        seeded_configs(
            params.seed,
            base_duration_ms(params.size),
            spec_config(params.size),
            &workloads,
        )
    });

    let mut host = Yardstick::default();
    let mut live = Vec::new();
    let results = rounds(params, &mut host, 3, |traced| {
        let (r, summaries) = round(&workloads, &configs, &paths, traced);
        live = summaries;
        r
    });
    let peak_rss_mb = measure::peak_rss_mb();
    let first_digest = results[0].1.digest;
    for (_, r) in &results {
        out.attempted += workloads.len() as u64;
        for f in &r.failed {
            out.fail(f);
        }
        if r.digest != first_digest {
            out.fail("simulated statistics differ between rounds of the same seed");
        }
    }

    // Output checks, outside the timed phase: every trace of the last
    // round validates and replays to its live run's summary.
    let mut check_ledger = Ledger::new();
    for (i, path) in paths.iter().enumerate() {
        if params.plant_fault && i == 0 {
            flip_byte(path);
        }
        if params.trace {
            if let Err(err) = validate(path, &mut check_ledger) {
                out.fail(format!("validate {}: {err}", path.display()));
            }
        }
        let ledger = params.trace.then_some(&mut check_ledger);
        match replay_summary(path, ledger) {
            Ok(json) if live.get(i) == Some(&json) => {}
            Ok(_) => out.fail(format!(
                "{}: replayed summary differs from live",
                path.display()
            )),
            Err(err) => out.fail(format!("replay {}: {err}", path.display())),
        }
    }
    println!("characterize digest {first_digest:016x}");

    let untraced: Vec<&Round> = results.iter().filter(|(t, _)| !t).map(|(_, r)| r).collect();
    if !params.trace {
        let rates: Vec<f64> = untraced.iter().map(|r| r.refs as f64 / r.secs).collect();
        let ops: Vec<f64> = untraced
            .iter()
            .flat_map(|r| r.op_ms.iter().copied())
            .collect();
        end_to_end(&mut out, &host, setup, peak_rss_mb, &rates, &ops);
        return out;
    }

    let traced: Vec<&Round> = results.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();
    let round_ledgers: Vec<(&Ledger, f64)> = traced.iter().map(|r| (r.ledger(), r.secs)).collect();
    let mut all: Vec<&Ledger> = traced.iter().map(|r| r.ledger()).collect();
    all.push(&check_ledger);
    let mut layers = LayerReport::from_ledgers(&round_ledgers, &all);
    layers.blocks = traced[0].blocks;
    layers.words = traced[0].words;
    layers.batches = traced[0].batches;
    let rate = |rs: &[&Round]| {
        rs.iter()
            .map(|r| r.refs as f64 / r.secs)
            .collect::<Vec<_>>()
    };
    layers.overhead(&rate(&untraced), &rate(&traced));
    write_spans(params, &all);
    layers.emit(&mut out);
    out
}

/// Flips one byte in the middle of `path` — the planted fault the
/// replay check must count as a failure.
pub fn flip_byte(path: &Path) {
    let mut bytes = std::fs::read(path).expect("read trace for fault");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x5a;
    std::fs::write(path, bytes).expect("write faulted trace");
}
