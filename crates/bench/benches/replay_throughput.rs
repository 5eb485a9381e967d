//! Trace record/replay throughput, with a machine-readable
//! `BENCH_replay.json` report (path overridable via `AGAVE_BENCH_JSON`)
//! for CI artifact upload.
//!
//! Paths measured over one representative Android workload
//! (`gallery.mp4.view` at quick sizing):
//!
//! * `record` — live simulation with a `TraceWriter` attached, streaming
//!   a `.agtrace` file. The reported e2e MB/s includes the simulation
//!   itself, which dominates; `capture` leaves the simulation out.
//! * `capture` — pipelined capture: the decoded reference stream
//!   delivered to a `TraceWriter` over memory, timed from creation
//!   through `finish`, so the encoder thread's join is inside the
//!   measurement (no simulation, no disk).
//! * `live_summary` — the plain live run the replay path competes with;
//! * `replay_summary` — `RunSummary` rebuilt from the trace file alone,
//!   serial (`jobs = 1`) and parallel (`jobs = 0`, one per CPU);
//! * `replay_cache` — the trace driving a cortex-a9 `MemoryHierarchy`.
//!
//! The report records decode MB/s for both job counts and the
//! replay-vs-live ratios, and *gates* them: on hosts with ≥ 4 CPUs the
//! parallel replay must be ≥ 3× the live run; on smaller hosts only
//! amortization is asserted (serial replay at least as fast as live).
//! Bytes-per-reference — the format's < 8 B/ref compression budget — is
//! enforced by `tests/replay_roundtrip.rs`.

use agave_bench::{fingerprint, Group, HotpathReport};
use agave_cache::HierarchyGeometry;
use agave_core::{engine, record, AppId, SuiteConfig, Workload};
use agave_replay::{TraceBuffer, TraceWriter};
use agave_trace::{Reference, ReferenceSink, SharedSink};
use std::cell::RefCell;
use std::rc::Rc;

/// Buffers the replayed stream so the encoder can be timed in isolation.
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

fn main() {
    let config = SuiteConfig::quick();
    let workload = Workload::Agave(AppId::GalleryMp4View);
    let path =
        std::env::temp_dir().join(format!("agave-replay-bench-{}.agtrace", std::process::id()));

    let mut group = Group::new("replay_throughput");
    let mut report = HotpathReport::named("replay");
    let cpus = fingerprint().cpus;

    let rec = group.bench("record gallery.mp4.view (quick)", 5, || {
        record::record_workload(workload, &config, &path).expect("record")
    });
    let stats = record::record_workload(workload, &config, &path).expect("record");
    let record_mb_s = stats.file_bytes as f64 / 1e6 / rec.best().as_secs_f64();
    println!(
        "trace: {} records · {} bytes · {:.2} bytes/record · recorded at {:.1} MB/s e2e",
        stats.records,
        stats.file_bytes,
        stats.bytes_per_record(),
        record_mb_s
    );

    // Decode the stream once so capture can be timed without the
    // simulation or the decoder in the loop.
    let collected = Rc::new(RefCell::new(Collect::default()));
    let buf = TraceBuffer::open(&path).expect("open trace");
    let outcome = buf
        .replay(&[collected.clone() as SharedSink], 1)
        .expect("decode for encoder bench");
    let refs = std::mem::take(&mut collected.borrow_mut().refs);
    let enc = group.bench("capture (pipelined encode, in memory)", 5, || {
        let mut w = TraceWriter::new(Vec::new(), &outcome.label).expect("writer");
        for r in &refs {
            w.append(r);
        }
        w.finish(&outcome.directory, &outcome.baseline)
            .expect("finish")
    });
    let enc_stats = {
        let mut w = TraceWriter::new(Vec::new(), &outcome.label).expect("writer");
        for r in &refs {
            w.append(r);
        }
        w.finish(&outcome.directory, &outcome.baseline)
            .expect("finish")
    };
    let capture_mb_s = enc_stats.file_bytes as f64 / 1e6 / enc.best().as_secs_f64();
    println!("capture: {capture_mb_s:.1} MB/s (pipelined encode, join included)");

    let live = group.bench("live run (summary only)", 5, || {
        engine::run(workload, &config)
    });
    let replay = group.bench("replay -> summary rebuild (serial)", 5, || {
        record::replay_trace_summary(&path, 1).expect("replay summary")
    });
    let replay_par = group.bench(
        &format!("replay -> summary rebuild ({cpus} jobs)"),
        5,
        || record::replay_trace_summary(&path, 0).expect("replay summary"),
    );
    let cache = group.bench("replay -> cortex-a9 hierarchy", 5, || {
        record::replay_trace_cache(&path, HierarchyGeometry::cortex_a9(), 1).expect("replay cache")
    });

    let decode_mb_s = stats.file_bytes as f64 / 1e6 / replay.best().as_secs_f64();
    let decode_mb_s_par = stats.file_bytes as f64 / 1e6 / replay_par.best().as_secs_f64();
    let speedup = live.best().as_secs_f64() / replay.best().as_secs_f64();
    let speedup_par = live.best().as_secs_f64() / replay_par.best().as_secs_f64();
    println!(
        "rates: decode {:.1} MB/s serial, {:.1} MB/s on {cpus} jobs · replay {:.1} Mrefs/s (summary), {:.1} Mrefs/s (cache)",
        decode_mb_s,
        decode_mb_s_par,
        replay.rate(stats.records) / 1e6,
        cache.rate(stats.records) / 1e6,
    );
    println!("replay vs live: {speedup:.2}x serial, {speedup_par:.2}x parallel");

    // Regression gates. Parallel decode needs cores to show up; on
    // serial hosts only the amortization contract (replay beats
    // re-simulating) is checkable.
    if cpus >= 4 {
        assert!(
            speedup_par >= 3.0,
            "parallel summary replay must be >= 3x live on a {cpus}-CPU host, got {speedup_par:.2}x"
        );
    } else {
        assert!(
            speedup >= 1.0,
            "summary replay must amortize (>= 1x live), got {speedup:.2}x"
        );
    }

    report.record("record", stats.records, &rec);
    report.record("encode", stats.records, &enc);
    report.record("live_summary", stats.records, &live);
    report.record("replay_summary", stats.records, &replay);
    report.record("replay_summary_parallel", stats.records, &replay_par);
    report.record("replay_cache", stats.records, &cache);
    let mut extra = agave_trace::json::Object::new();
    extra
        .field_str("path", "format")
        .field_u64("trace_bytes", stats.file_bytes)
        .field_u64("records", stats.records)
        .field_u64("words", stats.words)
        .field_u64("decode_cpus", cpus as u64)
        .field_f64("bytes_per_record", stats.bytes_per_record())
        .field_f64("record_mb_per_sec", record_mb_s)
        .field_f64("capture_mb_per_sec", capture_mb_s)
        .field_f64("decode_mb_per_sec", decode_mb_s)
        .field_f64("decode_mb_per_sec_parallel", decode_mb_s_par)
        .field_f64("replay_vs_live_speedup", speedup)
        .field_f64("replay_vs_live_speedup_parallel", speedup_par);
    report.push_raw(extra.finish());

    report.write_or_warn();
    std::fs::remove_file(&path).ok();
}
