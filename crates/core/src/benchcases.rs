//! The suite's registered benchmark cases (`agave bench`).
//!
//! Each case here wraps one of the workspace's standing performance
//! claims as an [`agave_registry::BenchCase`]: a stable name, the
//! parameter map that defines comparability, and a `run` producing raw
//! per-trial [`Measurement`]s. `agave bench run` aggregates the trials
//! (median + MAD), stamps commit + host fingerprint, and appends one
//! record per case to the append-only history that
//! `agave bench check` gates on.
//!
//! The cases mirror the standalone `agave-bench` targets — replay
//! encode/decode, parallel-decode speedup, hierarchy walk, sweep
//! amortization, serve request/upload throughput, disabled-telemetry
//! overhead — but sized so the whole quick registry runs in well under
//! a minute, because the point is a *history* dense enough for the
//! trailing-K baseline, not a one-shot headline number.

use crate::engine;
use crate::{record, run_workload_with_cache, AppId, GridSpec, SuiteConfig, Workload};
use agave_cache::HierarchyGeometry;
use agave_registry::{harness, BenchCase, Direction, Measurement, RunOpts, Tier};
use agave_replay::{TraceBuffer, TraceWriter};
use agave_serve::{Analysis, Daemon, ServeConfig};
use agave_trace::{Reference, ReferenceSink, SharedSink};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::rc::Rc;

/// Every registered case, in `agave bench list` order.
pub fn registry() -> Vec<Box<dyn BenchCase>> {
    vec![
        Box::new(ReplayCodec),
        Box::new(ParallelDecode),
        Box::new(HierarchyWalk),
        Box::new(SweepAmortization),
        Box::new(ServeRoundtrip),
        Box::new(TelemetryOverhead),
    ]
}

/// The case with the given name, if registered.
pub fn find_case(name: &str) -> Option<Box<dyn BenchCase>> {
    registry().into_iter().find(|c| c.name() == name)
}

fn sizing(tier: Tier) -> (SuiteConfig, &'static str) {
    match tier {
        Tier::Quick => (SuiteConfig::quick(), "quick"),
        Tier::Full => (SuiteConfig::reference(), "reference"),
    }
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("agave-benchcase-{name}-{}", std::process::id()))
}

fn io_err<T>(context: &str, r: std::io::Result<T>) -> Result<T, String> {
    r.map_err(|e| format!("{context}: {e}"))
}

fn trace_err<T, E: std::fmt::Display>(context: &str, r: Result<T, E>) -> Result<T, String> {
    r.map_err(|e| format!("{context}: {e}"))
}

/// Buffers a replayed stream (for the pure-encoder measurement).
#[derive(Default)]
struct Collect {
    refs: Vec<Reference>,
}

impl ReferenceSink for Collect {
    fn on_reference(&mut self, r: &Reference) {
        self.refs.push(*r);
    }

    fn on_batch(&mut self, batch: &[Reference]) {
        self.refs.extend_from_slice(batch);
    }
}

/// Counts delivered reference blocks (the denominator of refs/s).
#[derive(Default)]
struct CountingSink {
    blocks: u64,
    batches: u64,
}

impl ReferenceSink for CountingSink {
    fn on_reference(&mut self, r: &Reference) {
        let _ = r;
        self.blocks += 1;
    }

    fn on_batch(&mut self, batch: &[Reference]) {
        self.blocks += batch.len() as u64;
        self.batches += 1;
    }
}

/// `.agtrace` codec throughput: pipelined capture and serial decode
/// MB/s over a recorded `gallery.mp4.view` stream, plus the format's
/// bytes-per-record compression. Capture times a `TraceWriter` from
/// creation through `finish`, so the encoder thread's spawn and join sit
/// inside the timed closure and the rate is the whole pipeline's.
struct ReplayCodec;

impl BenchCase for ReplayCodec {
    fn name(&self) -> &str {
        "replay_codec"
    }

    fn description(&self) -> &str {
        "pipelined trace capture and decode MB/s, bytes per record (gallery.mp4.view)"
    }

    fn params(&self, tier: Tier) -> BTreeMap<String, String> {
        BTreeMap::from([
            ("workload".into(), "gallery.mp4.view".into()),
            ("sizing".into(), sizing(tier).1.into()),
        ])
    }

    fn run(&self, opts: &RunOpts) -> Result<Vec<Measurement>, String> {
        let (config, _) = sizing(opts.tier);
        let workload = Workload::Agave(AppId::GalleryMp4View);
        let path = scratch("codec.agtrace");
        let stats = trace_err("record", record::record_workload(workload, &config, &path))?;
        // Decode once so capture can be timed without the simulation or
        // the decoder in the loop.
        let collected = Rc::new(RefCell::new(Collect::default()));
        let buf = trace_err("open", TraceBuffer::open(&path))?;
        let outcome = trace_err("decode", buf.replay(&[collected.clone() as SharedSink], 1))?;
        let refs = std::mem::take(&mut collected.borrow_mut().refs);

        let mut out = Vec::new();
        for t in harness::trial_times(opts.warmup, opts.trials, || {
            let mut w = TraceWriter::new(Vec::new(), &outcome.label).expect("in-memory writer");
            for r in &refs {
                w.append(r);
            }
            w.finish(&outcome.directory, &outcome.baseline)
                .expect("finish in-memory trace")
        }) {
            out.push(Measurement::new(
                "capture_mb_per_sec",
                "MB/s",
                Direction::HigherIsBetter,
                stats.file_bytes as f64 / 1e6 / t.as_secs_f64(),
            ));
        }
        for t in harness::trial_times(opts.warmup, opts.trials, || {
            record::replay_trace_summary(&path, 1).expect("replay summary")
        }) {
            out.push(Measurement::new(
                "decode_mb_per_sec",
                "MB/s",
                Direction::HigherIsBetter,
                stats.file_bytes as f64 / 1e6 / t.as_secs_f64(),
            ));
        }
        out.push(Measurement::new(
            "bytes_per_record",
            "B/rec",
            Direction::LowerIsBetter,
            stats.bytes_per_record(),
        ));
        std::fs::remove_file(&path).ok();
        Ok(out)
    }
}

/// Parallel decode (`--jobs 0`) throughput and its speedup over the
/// serial decode of the same trace.
struct ParallelDecode;

impl BenchCase for ParallelDecode {
    fn name(&self) -> &str {
        "parallel_decode"
    }

    fn description(&self) -> &str {
        "parallel trace decode MB/s and speedup vs serial (all CPUs)"
    }

    fn params(&self, tier: Tier) -> BTreeMap<String, String> {
        BTreeMap::from([
            ("workload".into(), "gallery.mp4.view".into()),
            ("sizing".into(), sizing(tier).1.into()),
            ("jobs".into(), "0".into()),
        ])
    }

    fn run(&self, opts: &RunOpts) -> Result<Vec<Measurement>, String> {
        let (config, _) = sizing(opts.tier);
        let workload = Workload::Agave(AppId::GalleryMp4View);
        let path = scratch("parallel.agtrace");
        let stats = trace_err("record", record::record_workload(workload, &config, &path))?;
        let serial = harness::trial_times(opts.warmup, opts.trials, || {
            record::replay_trace_summary(&path, 1).expect("serial replay")
        });
        let parallel = harness::trial_times(opts.warmup, opts.trials, || {
            record::replay_trace_summary(&path, 0).expect("parallel replay")
        });
        let mut out = Vec::new();
        for (s, p) in serial.iter().zip(&parallel) {
            out.push(Measurement::new(
                "decode_mb_per_sec_parallel",
                "MB/s",
                Direction::HigherIsBetter,
                stats.file_bytes as f64 / 1e6 / p.as_secs_f64(),
            ));
            out.push(Measurement::new(
                "speedup_vs_serial",
                "x",
                Direction::HigherIsBetter,
                s.as_secs_f64() / p.as_secs_f64(),
            ));
        }
        std::fs::remove_file(&path).ok();
        Ok(out)
    }
}

/// The cache-hierarchy walk: references per second through the
/// cortex-a9 `MemoryHierarchy` on a live `countdown.main` run.
struct HierarchyWalk;

impl BenchCase for HierarchyWalk {
    fn name(&self) -> &str {
        "hierarchy_walk"
    }

    fn description(&self) -> &str {
        "cortex-a9 hierarchy walk refs/s (countdown.main, live)"
    }

    fn params(&self, tier: Tier) -> BTreeMap<String, String> {
        BTreeMap::from([
            ("workload".into(), "countdown.main".into()),
            ("sizing".into(), sizing(tier).1.into()),
            ("preset".into(), "cortex-a9".into()),
        ])
    }

    fn run(&self, opts: &RunOpts) -> Result<Vec<Measurement>, String> {
        let (config, _) = sizing(opts.tier);
        let workload = Workload::Agave(AppId::CountdownMain);
        let geometry = HierarchyGeometry::cortex_a9();
        let counter = Rc::new(RefCell::new(CountingSink::default()));
        engine::run_observed(workload, &config, vec![counter.clone()]);
        let blocks = counter.borrow().blocks;
        Ok(harness::trial_times(opts.warmup, opts.trials, || {
            run_workload_with_cache(workload, &config, geometry)
        })
        .into_iter()
        .map(|t| {
            Measurement::new(
                "refs_per_sec",
                "refs/s",
                Direction::HigherIsBetter,
                blocks as f64 / t.as_secs_f64(),
            )
        })
        .collect())
    }
}

/// Design-space sweep amortization: one decode fanned to a 2×2×2 grid
/// vs the same 8 cells as sequential standalone replays.
struct SweepAmortization;

const SWEEP_GRID: &str = "size=8k,16k:assoc=2,4:line=32,64";

impl BenchCase for SweepAmortization {
    fn name(&self) -> &str {
        "sweep_amortization"
    }

    fn description(&self) -> &str {
        "sweep vs sequential replays over a 2x2x2 grid (countdown.main)"
    }

    fn params(&self, tier: Tier) -> BTreeMap<String, String> {
        BTreeMap::from([
            ("workload".into(), "countdown.main".into()),
            ("sizing".into(), sizing(tier).1.into()),
            ("grid".into(), SWEEP_GRID.into()),
            ("jobs".into(), "0".into()),
        ])
    }

    fn run(&self, opts: &RunOpts) -> Result<Vec<Measurement>, String> {
        let (config, _) = sizing(opts.tier);
        let workload = Workload::Agave(AppId::CountdownMain);
        let path = scratch("sweep.agtrace");
        let stats = trace_err("record", record::record_workload(workload, &config, &path))?;
        let grid = GridSpec::parse(SWEEP_GRID)?;
        let cells = grid.cells()?;
        let sequential = harness::trial_times(opts.warmup, opts.trials, || {
            cells
                .iter()
                .map(|&g| record::replay_trace_cache(&path, g, 1).expect("replay cell"))
                .collect::<Vec<_>>()
        });
        let sweep = harness::trial_times(opts.warmup, opts.trials, || {
            crate::sweep_path(&path, &grid, 0).expect("sweep")
        });
        let cell_refs = stats.records * cells.len() as u64;
        let mut out = Vec::new();
        for (seq, sw) in sequential.iter().zip(&sweep) {
            out.push(Measurement::new(
                "sweep_vs_sequential",
                "x",
                Direction::HigherIsBetter,
                seq.as_secs_f64() / sw.as_secs_f64(),
            ));
            out.push(Measurement::new(
                "cell_refs_per_sec",
                "refs/s",
                Direction::HigherIsBetter,
                cell_refs as f64 / sw.as_secs_f64(),
            ));
        }
        std::fs::remove_file(&path).ok();
        Ok(out)
    }
}

/// The serve daemon under a small fan-out: analyze requests per second
/// and upload ingest MB/s against a loopback server. Every timed
/// analysis repeats one (session, spec) pair, so after the first it is
/// a result-cache hit: `cached_requests_per_sec` times the cached path,
/// not decode.
struct ServeRoundtrip;

const SERVE_CLIENTS: usize = 8;
const SERVE_REQUESTS_EACH: usize = 2;
/// Serial pings per trial of the tracing-overhead measurement. Ping is
/// the lightest verb, so per-request tracing cost is largest relative
/// to it — the measured overhead is an upper bound for real verbs.
const STATS_OVERHEAD_PINGS: usize = 200;

impl BenchCase for ServeRoundtrip {
    fn name(&self) -> &str {
        "serve_roundtrip"
    }

    fn description(&self) -> &str {
        "serve cached-analyze req/s, upload MB/s, request-tracing overhead % (loopback)"
    }

    fn params(&self, tier: Tier) -> BTreeMap<String, String> {
        BTreeMap::from([
            ("workload".into(), "gallery.mp4.view".into()),
            ("sizing".into(), sizing(tier).1.into()),
            ("clients".into(), SERVE_CLIENTS.to_string()),
            ("requests_each".into(), SERVE_REQUESTS_EACH.to_string()),
        ])
    }

    fn run(&self, opts: &RunOpts) -> Result<Vec<Measurement>, String> {
        let (config, _) = sizing(opts.tier);
        let workload = Workload::Agave(AppId::GalleryMp4View);
        let path = scratch("serve.agtrace");
        trace_err("record", record::record_workload(workload, &config, &path))?;
        let file_bytes = io_err("trace metadata", std::fs::metadata(&path))?.len();

        let daemon = io_err(
            "bind",
            Daemon::start(ServeConfig {
                addr: "127.0.0.1:0".to_owned(),
                jobs: 2,
                queue_cap: SERVE_CLIENTS * 2,
                ..ServeConfig::default()
            }),
        )?;
        let total = (SERVE_CLIENTS * SERVE_REQUESTS_EACH) as f64;
        let mut out = Vec::new();
        daemon.client().upload("bench", &path).expect("seed upload");
        for t in harness::trial_times(opts.warmup, opts.trials, || {
            daemon
                .client()
                .upload("bench-upload", &path)
                .expect("timed upload")
        }) {
            out.push(Measurement::new(
                "upload_mb_per_sec",
                "MB/s",
                Direction::HigherIsBetter,
                file_bytes as f64 / 1e6 / t.as_secs_f64(),
            ));
        }
        for t in harness::trial_times(opts.warmup, opts.trials, || {
            std::thread::scope(|clients| {
                for _ in 0..SERVE_CLIENTS {
                    let client = daemon.client();
                    clients.spawn(move || {
                        for _ in 0..SERVE_REQUESTS_EACH {
                            client
                                .analyze("bench", &Analysis::Summary)
                                .expect("analyze");
                        }
                    });
                }
            });
        }) {
            out.push(Measurement::new(
                "cached_requests_per_sec",
                "req/s",
                Direction::HigherIsBetter,
                total / t.as_secs_f64(),
            ));
        }
        daemon.stop();

        // Per-request tracing overhead: best-of serial ping batches
        // with request tracing on vs off. Best-of (not median) because
        // scheduling noise only ever adds time; the minima are the
        // cleanest estimate of the intrinsic cost difference.
        let ping_batch = |tracing: bool| -> Result<f64, String> {
            let daemon = io_err(
                "bind",
                Daemon::start(ServeConfig {
                    addr: "127.0.0.1:0".to_owned(),
                    jobs: 1,
                    trace_requests: tracing,
                    ..ServeConfig::default()
                }),
            )?;
            let client = daemon.client();
            let best = harness::trial_times(opts.warmup, opts.trials, || {
                for _ in 0..STATS_OVERHEAD_PINGS {
                    client.ping().expect("ping");
                }
            })
            .into_iter()
            .map(|t| t.as_secs_f64())
            .fold(f64::INFINITY, f64::min);
            daemon.stop();
            Ok(best)
        };
        let traced = ping_batch(true)?;
        let untraced = ping_batch(false)?;
        out.push(Measurement::new(
            "stats_overhead_pct",
            "%",
            Direction::LowerIsBetter,
            (traced - untraced) / untraced * 100.0,
        ));

        std::fs::remove_file(&path).ok();
        Ok(out)
    }
}

/// Disabled-telemetry overhead: the structural bound
/// `gates × per_gate_ns / run_ns`, as a percentage of a live run.
struct TelemetryOverhead;

impl BenchCase for TelemetryOverhead {
    fn name(&self) -> &str {
        "telemetry_overhead"
    }

    fn description(&self) -> &str {
        "disabled-path telemetry overhead % (structural gate bound)"
    }

    fn params(&self, tier: Tier) -> BTreeMap<String, String> {
        BTreeMap::from([
            ("workload".into(), "countdown.main".into()),
            ("sizing".into(), sizing(tier).1.into()),
        ])
    }

    fn run(&self, opts: &RunOpts) -> Result<Vec<Measurement>, String> {
        if agave_telemetry::enabled() {
            return Err("telemetry must be disabled while measuring its disabled cost".into());
        }
        let (config, _) = sizing(opts.tier);
        let workload = Workload::Agave(AppId::CountdownMain);
        // One gate = one relaxed atomic load + branch; count the
        // batch-granular gates a run performs (see the
        // telemetry_overhead bench target for the derivation).
        let counter = Rc::new(RefCell::new(CountingSink::default()));
        engine::run_observed(workload, &config, vec![counter.clone()]);
        let gates = counter.borrow().batches * 2 + 16;

        const CALIBRATE_ITERS: u64 = 2_000_000;
        let mut out = Vec::new();
        for run in harness::trial_times(opts.warmup, opts.trials, || engine::run(workload, &config))
        {
            let started = std::time::Instant::now();
            let mut hits = 0u64;
            for _ in 0..CALIBRATE_ITERS {
                if std::hint::black_box(agave_telemetry::enabled()) {
                    hits += 1;
                }
            }
            std::hint::black_box(hits);
            let per_gate_ns = started.elapsed().as_nanos() as f64 / CALIBRATE_ITERS as f64;
            out.push(Measurement::new(
                "disabled_overhead_pct",
                "%",
                Direction::LowerIsBetter,
                gates as f64 * per_gate_ns / run.as_nanos() as f64 * 100.0,
            ));
        }
        Ok(out)
    }
}

/// Resolves the history file path: explicit flag > `AGAVE_BENCH_HISTORY`
/// env > `bench_history.jsonl` in the working directory.
pub fn history_path(flag: Option<&str>) -> PathBuf {
    flag.map(PathBuf::from)
        .or_else(|| std::env::var("AGAVE_BENCH_HISTORY").ok().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("bench_history.jsonl"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use agave_registry::aggregate;

    #[test]
    fn registry_names_are_unique_and_stable() {
        let names: Vec<String> = registry().iter().map(|c| c.name().to_owned()).collect();
        assert_eq!(
            names,
            [
                "replay_codec",
                "parallel_decode",
                "hierarchy_walk",
                "sweep_amortization",
                "serve_roundtrip",
                "telemetry_overhead",
            ]
        );
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(names, dedup);
        assert!(find_case("replay_codec").is_some());
        assert!(find_case("nope").is_none());
    }

    #[test]
    fn params_pin_the_tier_sizing() {
        for case in registry() {
            let quick = case.params(Tier::Quick);
            let full = case.params(Tier::Full);
            assert_eq!(quick.get("sizing").map(String::as_str), Some("quick"));
            assert_eq!(full.get("sizing").map(String::as_str), Some("reference"));
            assert!(!case.description().is_empty());
        }
    }

    #[test]
    fn hierarchy_walk_produces_aggregatable_trials() {
        let case = HierarchyWalk;
        let opts = RunOpts {
            tier: Tier::Quick,
            trials: 2,
            warmup: 0,
        };
        let measurements = case.run(&opts).expect("case runs");
        assert_eq!(measurements.len(), 2);
        let stats = aggregate(&measurements);
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].name, "refs_per_sec");
        assert_eq!(stats[0].trials, 2);
        assert!(stats[0].median > 0.0);
    }

    #[test]
    fn history_path_resolution_order() {
        assert_eq!(
            history_path(Some("custom.jsonl")),
            PathBuf::from("custom.jsonl")
        );
        // Without a flag it falls back to the default name (the env
        // override is exercised by the CI job).
        if std::env::var("AGAVE_BENCH_HISTORY").is_err() {
            assert_eq!(history_path(None), PathBuf::from("bench_history.jsonl"));
        }
    }
}
