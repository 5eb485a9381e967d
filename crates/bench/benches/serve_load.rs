//! `agave-serve` under load, with a machine-readable `BENCH_serve.json`
//! report (path overridable via `AGAVE_BENCH_JSON`) for CI artifact
//! upload.
//!
//! Four phases, each asserting the server's contracts while timing it:
//!
//! * `analyze_fanout` — 200 concurrent clients each fire repeated
//!   summary analyses; every response must be **byte-identical** to
//!   local replay of the same trace. All ask for one (session, spec)
//!   pair, so after the first miss they time result-cache hits.
//! * `upload_fanout` — 100 concurrent clients upload distinct sessions;
//!   all must land, validated, in the registry.
//! * `backpressure` — a deliberately tiny server (one slow worker, two
//!   queue slots) against 64 concurrent clients: the server must shed
//!   load with RETRY (bounded memory), yet every client must eventually
//!   succeed through the retry path.
//! * `sketch_bounds` — a synthetic trace with known exact per-region
//!   totals is uploaded and sketched; the served report must match the
//!   local sketch byte-for-byte and every estimate must respect the
//!   documented space-saving error bounds.
//! * `stats_overhead` — serial ping batches against servers with
//!   request tracing on vs off; the measured per-request tracing cost
//!   must stay under the telemetry-overhead budget (2%).

use agave_bench::{Group, HotpathReport};
use agave_core::{record, AppId, SuiteConfig, Workload};
use agave_replay::TraceWriter;
use agave_serve::{Analysis, Daemon, ServeConfig, SketchSink};
use agave_trace::{json, RefKind, SharedSink, Tracer, XorShift64};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;

const ANALYZE_CLIENTS: usize = 200;
const ANALYZE_REQUESTS_EACH: usize = 3;
const UPLOAD_CLIENTS: usize = 100;
const PRESSURE_CLIENTS: usize = 64;

fn main() {
    let dir = std::env::temp_dir().join(format!("agave-serve-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench temp dir");

    let mut group = Group::new("serve_load");
    let mut report = HotpathReport::named("serve");

    let trace = dir.join("gallery.agtrace");
    let stats = record::record_workload(
        Workload::Agave(AppId::GalleryMp4View),
        &SuiteConfig::quick(),
        &trace,
    )
    .expect("record");
    let expected = record::replay_trace_summary(&trace, 1)
        .expect("local replay")
        .to_json();

    analyze_fanout(&mut group, &mut report, &trace, &expected, stats.records);
    upload_fanout(&mut report, &trace);
    backpressure(&mut report, &trace);
    sketch_bounds(&mut group, &mut report, &dir);
    stats_overhead(&mut report);

    println!();
    report.write_or_warn();
    std::fs::remove_dir_all(&dir).ok();
}

/// 200 concurrent clients, each firing summary analyses; every response
/// byte-identical to the locally replayed JSON. The requests repeat one
/// (session, spec) pair, so the rates are of cached answers.
fn analyze_fanout(
    group: &mut Group,
    report: &mut HotpathReport,
    trace: &Path,
    expected: &str,
    records: u64,
) {
    let daemon = Daemon::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        jobs: 0,
        queue_cap: ANALYZE_CLIENTS,
        ..ServeConfig::default()
    })
    .expect("bind");
    daemon.client().upload("shared", trace).expect("upload");
    let total = (ANALYZE_CLIENTS * ANALYZE_REQUESTS_EACH) as u64;
    let sample = group.bench(
        &format!("{ANALYZE_CLIENTS} clients x {ANALYZE_REQUESTS_EACH} cached summary analyses"),
        3,
        || {
            std::thread::scope(|clients| {
                for _ in 0..ANALYZE_CLIENTS {
                    let client = daemon.client();
                    clients.spawn(move || {
                        for _ in 0..ANALYZE_REQUESTS_EACH {
                            let served = client
                                .analyze("shared", &Analysis::Summary)
                                .expect("analyze");
                            assert_eq!(served, expected, "served summary diverged under load");
                        }
                    });
                }
            });
        },
    );
    let stats = daemon.stop();
    assert_eq!(stats.errors, 0, "no request may fail under analyze load");
    println!(
        "analyze fan-out: {:.0} cached requests/s · {:.1} Mrefs/s served · {} rejects absorbed",
        total as f64 / sample.best().as_secs_f64(),
        sample.rate(total * records) / 1e6,
        stats.rejects
    );
    let mut obj = json::Object::new();
    obj.field_str("path", "analyze_fanout")
        .field_u64("clients", ANALYZE_CLIENTS as u64)
        .field_u64("requests", total)
        .field_u64("best_ns", sample.best().as_nanos() as u64)
        .field_u64("mean_ns", sample.mean().as_nanos() as u64)
        .field_f64(
            "cached_requests_per_sec",
            total as f64 / sample.best().as_secs_f64(),
        )
        .field_u64("rejects", stats.rejects);
    report.push_raw(obj.finish());
}

/// 100 concurrent clients uploading distinct sessions.
fn upload_fanout(report: &mut HotpathReport, trace: &Path) {
    let daemon = Daemon::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        jobs: 0,
        queue_cap: UPLOAD_CLIENTS,
        ..ServeConfig::default()
    })
    .expect("bind");
    let file_bytes = std::fs::metadata(trace).expect("trace metadata").len();
    let started = Instant::now();
    std::thread::scope(|clients| {
        for i in 0..UPLOAD_CLIENTS {
            let client = daemon.client();
            clients.spawn(move || {
                client
                    .upload(&format!("tenant-{i:03}"), trace)
                    .expect("upload");
            });
        }
    });
    let elapsed = started.elapsed();
    assert_eq!(daemon.client().list().expect("list").len(), UPLOAD_CLIENTS);
    let stats = daemon.stop();
    assert_eq!(stats.uploads, UPLOAD_CLIENTS as u64);
    assert_eq!(stats.bytes_ingested, file_bytes * UPLOAD_CLIENTS as u64);
    let mb_s = stats.bytes_ingested as f64 / 1e6 / elapsed.as_secs_f64();
    println!(
        "serve_load/{} concurrent uploads: {} x {} bytes in {:?} · {:.0} MB/s ingested · {} rejects absorbed",
        UPLOAD_CLIENTS,
        stats.uploads,
        file_bytes,
        elapsed,
        mb_s,
        stats.rejects
    );
    let mut obj = json::Object::new();
    obj.field_str("path", "upload_fanout")
        .field_u64("clients", UPLOAD_CLIENTS as u64)
        .field_u64("bytes_ingested", stats.bytes_ingested)
        .field_u64("elapsed_ns", elapsed.as_nanos() as u64)
        .field_f64("ingest_mb_per_sec", mb_s)
        .field_u64("rejects", stats.rejects);
    report.push_raw(obj.finish());
}

/// A tiny saturated server must reject with RETRY — never buffer without
/// bound — while every client still completes through the retry path.
fn backpressure(report: &mut HotpathReport, trace: &Path) {
    let daemon = Daemon::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        jobs: 1,
        queue_cap: 2,
        retry_after_ms: 2,
        handle_delay_ms: 5,
        ..ServeConfig::default()
    })
    .expect("bind");
    let started = Instant::now();
    std::thread::scope(|clients| {
        for i in 0..PRESSURE_CLIENTS {
            let mut client = daemon.client();
            client.max_retries = 2000;
            clients.spawn(move || {
                client
                    .upload(&format!("pressed-{i:02}"), trace)
                    .expect("upload under pressure");
            });
        }
    });
    assert_eq!(
        daemon.client().list().expect("list").len(),
        PRESSURE_CLIENTS
    );
    let stats = daemon.stop();
    let elapsed = started.elapsed();
    assert!(
        stats.rejects > 0,
        "{PRESSURE_CLIENTS} clients against a 2-slot queue must be shed"
    );
    assert_eq!(
        stats.uploads, PRESSURE_CLIENTS as u64,
        "every client must recover"
    );
    println!(
        "serve_load/backpressure: {} clients vs 2-slot queue: {} rejects, all {} uploads landed in {:?}",
        PRESSURE_CLIENTS,
        stats.rejects,
        stats.uploads,
        elapsed
    );
    let mut obj = json::Object::new();
    obj.field_str("path", "backpressure")
        .field_u64("clients", PRESSURE_CLIENTS as u64)
        .field_u64("queue_cap", 2)
        .field_u64("rejects", stats.rejects)
        .field_u64("uploads", stats.uploads)
        .field_u64("elapsed_ns", elapsed.as_nanos() as u64);
    report.push_raw(obj.finish());
}

/// Generates a skewed synthetic trace with exact per-region totals,
/// then checks the served sketch against both the local sketch (byte
/// identity) and the exact counts (error bounds).
fn sketch_bounds(group: &mut Group, report: &mut HotpathReport, dir: &Path) {
    let (path, exact) = synthetic_trace(dir);
    let total: u64 = exact.values().sum();

    let daemon = Daemon::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        jobs: 2,
        ..ServeConfig::default()
    })
    .expect("bind");
    let client = daemon.client();
    client.upload("synthetic", &path).expect("upload");
    let sample = group.bench("sketch analysis of synthetic trace", 3, || {
        client
            .analyze("synthetic", &Analysis::Sketch)
            .expect("sketch")
    });
    let served = client
        .analyze("synthetic", &Analysis::Sketch)
        .expect("sketch");
    daemon.stop();

    // Byte identity: the served sketch is exactly the local one.
    let buf = agave_replay::TraceBuffer::open(&path).expect("open");
    let sink = Rc::new(RefCell::new(SketchSink::new(SketchSink::DEFAULT_CAPACITY)));
    let outcome = buf
        .replay(&[sink.clone() as SharedSink], 0)
        .expect("replay");
    let local = sink.borrow().report(&outcome.label, &outcome.directory);
    assert_eq!(served, local.to_json(), "served sketch diverged from local");

    // Error bounds against the exact totals tracked at generation time.
    assert_eq!(local.words, total, "word totals are exact counters");
    let bound = local.error_bound;
    for h in &local.heavy {
        let truth = exact.get(h.region.as_str()).copied().unwrap_or(0);
        assert!(h.words >= truth, "{}: estimate below truth", h.region);
        assert!(
            h.words - h.err <= truth,
            "{}: lower bound violated",
            h.region
        );
        assert!(h.err <= bound, "{}: error beyond W/k", h.region);
    }
    let tracked: Vec<&str> = local.heavy.iter().map(|h| h.region.as_str()).collect();
    for (region, &w) in &exact {
        if w > bound {
            assert!(tracked.contains(region), "heavy region {region} missing");
        }
    }
    println!(
        "sketch: {} words over {} regions, capacity {} · bound {} · all estimates within bounds",
        total,
        exact.len(),
        local.capacity,
        bound
    );
    report.record("sketch_synthetic", local.records, &sample);
}

const OVERHEAD_PINGS: usize = 500;
const OVERHEAD_TRIALS: usize = 7;
const OVERHEAD_BUDGET_PCT: f64 = 2.0;

/// Per-request tracing cost: serial ping batches against a traced and
/// an untraced server. Ping is the cheapest verb, so tracing cost is
/// largest relative to it — this is an upper bound for real verbs.
/// Best-of across trials because scheduling noise only adds time.
fn stats_overhead(report: &mut HotpathReport) {
    let ping_batch = |tracing: bool| -> f64 {
        let daemon = Daemon::start(ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            jobs: 1,
            trace_requests: tracing,
            ..ServeConfig::default()
        })
        .expect("bind");
        let client = daemon.client();
        client.ping().expect("warmup ping");
        let mut best = f64::INFINITY;
        for _ in 0..OVERHEAD_TRIALS {
            let started = Instant::now();
            for _ in 0..OVERHEAD_PINGS {
                client.ping().expect("ping");
            }
            best = best.min(started.elapsed().as_secs_f64());
        }
        daemon.stop();
        best
    };
    let traced = ping_batch(true);
    let untraced = ping_batch(false);
    let overhead_pct = (traced - untraced) / untraced * 100.0;
    println!(
        "serve_load/stats_overhead: {OVERHEAD_PINGS} pings · traced {:.3} ms vs untraced {:.3} ms · {overhead_pct:+.2}% overhead",
        traced * 1e3,
        untraced * 1e3,
    );
    assert!(
        overhead_pct < OVERHEAD_BUDGET_PCT,
        "per-request tracing overhead {overhead_pct:.2}% exceeds the {OVERHEAD_BUDGET_PCT}% budget"
    );
    let mut obj = json::Object::new();
    obj.field_str("path", "stats_overhead")
        .field_u64("pings", OVERHEAD_PINGS as u64)
        .field_u64("traced_best_ns", (traced * 1e9) as u64)
        .field_u64("untraced_best_ns", (untraced * 1e9) as u64)
        .field_f64("overhead_pct", overhead_pct)
        .field_f64("budget_pct", OVERHEAD_BUDGET_PCT);
    report.push_raw(obj.finish());
}

/// A skewed synthetic trace (160 regions, ~400k records) plus its exact
/// per-region word totals.
fn synthetic_trace(dir: &Path) -> (PathBuf, BTreeMap<&'static str, u64>) {
    const REGIONS: usize = 160;
    let names: Vec<String> = (0..REGIONS).map(|i| format!("lib{i:03}.so")).collect();
    let leaked: Vec<&'static str> = names
        .into_iter()
        .map(|n| Box::leak(n.into_boxed_str()) as &'static str)
        .collect();

    let path = dir.join("synthetic.agtrace");
    let mut t = Tracer::new();
    let pid = t.register_process("synthetic");
    let tid = t.register_thread(pid, "gen");
    let ids: Vec<_> = leaked.iter().map(|n| t.intern_region(n)).collect();
    let baseline = t.counter_snapshot();
    let writer = Rc::new(RefCell::new(
        TraceWriter::create(&path, "synthetic").unwrap(),
    ));
    t.add_sink(writer.clone() as SharedSink);

    let mut exact: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut rng = XorShift64::new(0x5e12e);
    for _ in 0..400_000u64 {
        // Quadratic skew: low-index regions dominate.
        let r = (rng.below(REGIONS as u64) * rng.below(REGIONS as u64) / REGIONS as u64) as usize;
        let words = 1 + rng.below(9);
        let addr = rng.below(1 << 32);
        t.charge_at(pid, tid, ids[r], RefKind::DataRead, addr, words);
        *exact.entry(leaked[r]).or_default() += words;
    }
    t.flush_sinks();
    writer
        .borrow_mut()
        .finish(&t.name_directory(), &baseline)
        .unwrap();
    (path, exact)
}
