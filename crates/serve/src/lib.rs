//! agave-serve: a multi-tenant trace replay & analysis daemon.
//!
//! The suite's recorder (`agave record`) produces `.agtrace` files and
//! replays them locally with byte-identical results. This crate turns
//! that contract into a service: a zero-dependency TCP daemon that
//! accepts trace uploads from many clients at once, stores them in a
//! sharded session registry, and answers analysis requests — the
//! recorded run's `RunSummary`, a cache-hierarchy replay against a
//! named geometry preset, or a bounded-memory streaming *sketch*
//! (heavy-hitter regions + inter-reference delta quantiles) for traces
//! larger than the server's RAM.
//!
//! The moving parts, bottom-up:
//!
//! - [`protocol`] — length-prefixed binary frames; uploads streamed,
//!   responses bounded by [`protocol::MAX_CONTROL_FRAME`].
//! - [`sketch`] — space-saving heavy hitters and log2 quantiles with
//!   documented error bounds, fed through the standard
//!   [`ReferenceSink`](agave_trace::ReferenceSink) batch path.
//! - [`store`] — the name-sharded on-disk session registry.
//! - [`server`] — bounded accept queue (full ⇒ RETRY with a suggested
//!   back-off, never unbounded buffering), worker pool over
//!   [`agave_trace::par::parallel_map`], per-request telemetry, and a
//!   byte-bounded cache of rendered answers keyed by upload and spec.
//! - [`client`] — the same codec from the dialing side, with
//!   retry-on-backpressure helpers.
//! - [`daemon`] — an in-process server on its own thread that is shut
//!   down and joined even when its owner unwinds.
//!
//! Responses are byte-identical to local replay: the server renders
//! the exact JSON `agave replay` would print, and the integration
//! tests assert equality byte-for-byte.

pub mod client;
pub mod daemon;
pub mod flight;
pub mod protocol;
pub mod server;
pub mod store;
pub mod top;

/// The streaming sketches now live in the analysis registry crate
/// (`agave-analysis`); re-exported here so existing `agave_serve::sketch`
/// paths keep working.
pub use agave_analysis::sketch;

pub use client::{next_request_id, render_sessions, Client, ClientError};
pub use daemon::Daemon;
pub use flight::{FlightRecorder, RecentFilter, RequestRecord};
pub use protocol::{Analysis, RequestMeta, Response, SessionInfo, StatsFormat, WireError};
pub use server::{analyze_trace, analyze_trace_jobs, ServeConfig, ServeStats, Server};
pub use sketch::{SketchReport, SketchSink};
pub use store::{SessionMeta, TraceStore};
pub use top::{render_dashboard, RecentEntry, StatsSample};

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::time::{Duration, Instant};

    /// Records a tiny workload to a trace file under `dir`.
    fn record_fixture(dir: &std::path::Path, stem: &str) -> PathBuf {
        use agave_replay::TraceWriter;
        use agave_trace::{RefKind, SharedSink, Tracer};
        use std::cell::RefCell;
        use std::rc::Rc;

        let path = dir.join(format!("{stem}.agtrace"));
        let mut t = Tracer::new();
        let pid = t.register_process("app_process");
        let tid = t.register_thread(pid, "main");
        let code = t.intern_region("[app].text");
        let heap = t.intern_region("[heap]");
        let baseline = t.counter_snapshot();
        let writer = Rc::new(RefCell::new(TraceWriter::create(&path, stem).unwrap()));
        t.add_sink(writer.clone() as SharedSink);
        for i in 0..5000u64 {
            t.charge_at(pid, tid, code, RefKind::InstrFetch, 0x1000 + 4 * i, 1);
            if i % 3 == 0 {
                t.charge_at(pid, tid, heap, RefKind::DataRead, 0x8000_0000 + 8 * i, 2);
            }
        }
        t.flush_sinks();
        writer
            .borrow_mut()
            .finish(&t.name_directory(), &baseline)
            .unwrap();
        path
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("agave-serve-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn test_config(jobs: usize) -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            jobs,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn upload_list_analyze_shutdown_end_to_end() {
        let dir = temp_dir("e2e");
        let trace = record_fixture(&dir, "fixture");
        let daemon = Daemon::start(test_config(2)).unwrap();
        let client = daemon.client();
        client.ping().unwrap();

        let ack = client.upload("sess-a", &trace).unwrap();
        assert_eq!(ack.name, "sess-a");
        assert_eq!(ack.label, "fixture");
        assert!(ack.words > 0 && ack.records > 0 && ack.chunks > 0);

        let listed = client.list().unwrap();
        assert_eq!(listed, vec![ack]);

        let remote = client.analyze("sess-a", &Analysis::Summary).unwrap();
        let local = agave_replay::replay_summary(&trace, 1).unwrap().to_json();
        assert_eq!(remote, local, "served summary must be byte-identical");

        let sketch = client.analyze("sess-a", &Analysis::Sketch).unwrap();
        assert!(sketch.contains("\"heavy_regions\""), "got {sketch}");

        let grid_spec = "size=1k,2k:assoc=2:line=16";
        let swept = client.sweep("sess-a", grid_spec).unwrap();
        let grid = agave_analysis::GridSpec::parse(grid_spec).unwrap();
        let local = agave_analysis::sweep_path(&trace, &grid, 2).unwrap();
        assert_eq!(
            swept,
            local.to_json(),
            "served sweep must equal local sweep for any jobs"
        );

        let err = client.analyze("missing", &Analysis::Summary).unwrap_err();
        assert!(matches!(err, ClientError::Server(_)), "got {err}");
        let err = client.sweep("sess-a", "size=bogus").unwrap_err();
        assert!(matches!(err, ClientError::Server(_)), "got {err}");

        let stats = daemon.stop();
        assert_eq!(stats.uploads, 1);
        assert!(stats.analyses >= 2);
        assert_eq!(stats.rejects, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_uploads_are_rejected_and_not_stored() {
        let dir = temp_dir("corrupt");
        let trace = record_fixture(&dir, "good");
        let mut bytes = std::fs::read(&trace).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        let bad = dir.join("bad.agtrace");
        std::fs::write(&bad, &bytes).unwrap();

        let daemon = Daemon::start(test_config(1)).unwrap();
        let client = daemon.client();
        let err = client.upload("bad", &bad).unwrap_err();
        assert!(
            matches!(&err, ClientError::Server(m) if m.contains("upload rejected")),
            "got {err}"
        );
        assert!(
            client.list().unwrap().is_empty(),
            "rejected upload must not be stored"
        );
        let stats = daemon.stop();
        assert_eq!(stats.uploads, 0);
        assert!(stats.errors >= 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn full_queue_answers_retry_and_clients_recover() {
        let dir = temp_dir("retry");
        let trace = record_fixture(&dir, "pressure");
        // One slow worker + a one-slot queue: concurrent clients are
        // guaranteed to find the queue full and be told to back off.
        let daemon = Daemon::start(ServeConfig {
            queue_cap: 1,
            retry_after_ms: 5,
            handle_delay_ms: 30,
            ..test_config(1)
        })
        .unwrap();
        // Recovery is bounded by elapsed time, not by the client's
        // attempt budget: on a loaded host a client can spend every
        // retry and still get in a moment later.
        let deadline = Instant::now() + Duration::from_secs(30);
        std::thread::scope(|clients| {
            for i in 0..6 {
                let (client, trace) = (daemon.client(), &trace);
                clients.spawn(move || loop {
                    match client.upload(&format!("c{i}"), trace) {
                        Ok(_) => break,
                        Err(ClientError::Saturated { .. }) if Instant::now() < deadline => {}
                        Err(err) => panic!("client c{i}: {err}"),
                    }
                });
            }
        });
        let client = daemon.client();
        assert_eq!(client.list().unwrap().len(), 6, "every client must recover");
        let stats = daemon.stop();
        assert_eq!(stats.uploads, 6);
        assert!(
            stats.rejects > 0,
            "six concurrent clients against a one-slot queue must see RETRY"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
