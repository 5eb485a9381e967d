//! Integration: the `agave-serve` daemon under concurrent multi-tenant
//! load must produce analysis responses **byte-identical** to local
//! `agave replay` — the served path is the recorded-trace contract,
//! just reached over a socket.
//!
//! One daemon on an ephemeral port; several client threads each record
//! an app or SPEC workload, upload it, and compare the served summary
//! and cache-report JSON against the local replay of the same file.
//!
//! The daemon keeps every rendered answer in a result cache keyed by
//! upload and spec, so the same contract is checked on a miss, on the
//! hit that follows it, across a re-upload, and under concurrent
//! identical requests.

use agave_analysis::{sweep_path, GridSpec};
use agave_core::{all_workloads, record, HierarchyGeometry, SuiteConfig, Workload};
use agave_serve::{
    Analysis, Client, ClientError, Daemon, RecentEntry, RecentFilter, ServeConfig, StatsFormat,
    StatsSample,
};
use std::path::{Path, PathBuf};
use std::sync::Barrier;

/// The answers the result cache stores: three ANALYZE specs and a SWEEP.
const SPECS: [&str; 4] = ["summary", "cache:tiny", "sketch", "sweep"];
/// The grid of the `sweep` spec.
const GRID: &str = "size=1k,4k:assoc=2:line=32";

fn find(label: &str) -> Workload {
    all_workloads()
        .into_iter()
        .find(|w| w.label() == label)
        .unwrap_or_else(|| panic!("workload {label} missing"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("agave-serve-it-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Records `label` at quick sizing into `dir`.
fn record_quick(dir: &Path, label: &str) -> PathBuf {
    let path = dir.join(format!("{label}.agtrace"));
    record::record_workload(find(label), &SuiteConfig::quick(), &path).unwrap();
    path
}

fn start(jobs: usize) -> Daemon {
    Daemon::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        jobs,
        ..ServeConfig::default()
    })
    .unwrap()
}

/// Asks the daemon for one of [`SPECS`].
fn ask(client: &Client, session: &str, spec: &str) -> Result<String, ClientError> {
    match spec {
        "sweep" => client.sweep(session, GRID),
        "summary" => client.analyze(session, &Analysis::Summary),
        "sketch" => client.analyze(session, &Analysis::Sketch),
        cache => {
            let preset = cache.strip_prefix("cache:").expect("a cache spec");
            client.analyze(session, &Analysis::Cache(preset.to_owned()))
        }
    }
}

/// What a local run over `path` prints for one of [`SPECS`].
fn local(path: &Path, spec: &str) -> String {
    match spec {
        "sweep" => sweep_path(path, &GridSpec::parse(GRID).unwrap(), 1)
            .unwrap()
            .to_json(),
        "summary" => record::replay_trace_summary(path, 1).unwrap().to_json(),
        "cache:tiny" => {
            record::replay_trace_cache(path, HierarchyGeometry::preset("tiny").unwrap(), 1)
                .unwrap()
                .to_json()
        }
        spec => agave_analysis::analyze_path(path, spec, 1).unwrap(),
    }
}

/// The daemon's flight-recorder window, newest first.
fn flight(daemon: &Daemon) -> Vec<RecentEntry> {
    let body = daemon
        .client()
        .stats(StatsFormat::Json, 64, RecentFilter::All)
        .unwrap();
    StatsSample::parse(&body).unwrap().recent
}

/// The one flight record of the request sent with `origin`.
fn record_of<'a>(recent: &'a [RecentEntry], origin: &str) -> &'a RecentEntry {
    let mut matching = recent.iter().filter(|r| r.origin == origin);
    let record = matching
        .next()
        .unwrap_or_else(|| panic!("no flight record for {origin}"));
    assert!(matching.next().is_none(), "two flight records for {origin}");
    record
}

#[test]
fn concurrent_multi_tenant_analyses_are_byte_identical_to_local_replay() {
    // Two app workloads and two SPEC baselines — distinct tenants with
    // very different reference streams.
    let labels = [
        "countdown.main",
        "gallery.mp4.view",
        "999.specrand",
        "401.bzip2",
    ];
    let dir = temp_dir("tenants");
    let config = SuiteConfig::quick();

    // The guard shuts the daemon down even when an assertion below
    // panics, so a failure fails the test instead of hanging it.
    let daemon = start(4);

    std::thread::scope(|tenants| {
        for label in labels {
            let client = daemon.client();
            let path = dir.join(format!("{label}.agtrace"));
            let config = &config;
            tenants.spawn(move || {
                record::record_workload(find(label), config, &path).unwrap();
                let ack = client.upload(label, &path).unwrap();
                assert_eq!(ack.label, label);

                // Served summary vs local replay of the same file.
                let served = client.analyze(label, &Analysis::Summary).unwrap();
                let local = record::replay_trace_summary(&path, 1).unwrap().to_json();
                assert_eq!(served, local, "{label}: served summary diverged");

                // Served cache report vs local replay through the
                // same preset.
                let served = client
                    .analyze(label, &Analysis::Cache("tiny".to_owned()))
                    .unwrap();
                let geometry = HierarchyGeometry::preset("tiny").unwrap();
                let local = record::replay_trace_cache(&path, geometry, 1)
                    .unwrap()
                    .to_json();
                assert_eq!(served, local, "{label}: served cache report diverged");

                // The sketch is served JSON too; spot-check its exact
                // totals against the upload acknowledgment.
                let sketch = client.analyze(label, &Analysis::Sketch).unwrap();
                assert!(sketch.contains(&format!("\"words\":{}", ack.words)));
            });
        }
    });

    let client = daemon.client();
    let listed = client.list().unwrap();
    let mut names: Vec<&str> = labels.to_vec();
    names.sort_unstable();
    assert_eq!(
        listed.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
        names,
        "every tenant's session must be listed, sorted"
    );

    // An unknown preset errors without disturbing the server.
    let err = client
        .analyze(labels[0], &Analysis::Cache("no-such-preset".to_owned()))
        .unwrap_err();
    assert!(matches!(err, ClientError::Server(_)), "got {err}");

    let stats = daemon.stop();
    assert_eq!(stats.uploads, labels.len() as u64);
    assert!(stats.analyses >= 3 * labels.len() as u64);
    assert_eq!(
        stats.bytes_ingested,
        listed.iter().map(|s| s.file_bytes).sum::<u64>()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn served_answers_equal_local_replay_on_a_miss_and_on_the_following_hit() {
    let dir = temp_dir("hit");
    let path = record_quick(&dir, "countdown.main");
    let daemon = start(2);
    daemon.client().upload("sess", &path).unwrap();
    for spec in SPECS {
        let want = local(&path, spec);
        for pass in ["miss", "hit"] {
            let client = Client::with_origin(daemon.addr(), format!("{pass}-{spec}"));
            assert_eq!(ask(&client, "sess", spec).unwrap(), want, "{pass} {spec}");
        }
    }
    let recent = flight(&daemon);
    for spec in SPECS {
        for (pass, cached) in [("miss", false), ("hit", true)] {
            let record = record_of(&recent, &format!("{pass}-{spec}"));
            assert_eq!(record.outcome, "ok", "{pass} {spec}");
            assert_eq!(record.cached, cached, "{pass} {spec}");
        }
    }
    daemon.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reuploading_different_bytes_under_one_name_serves_the_new_answers() {
    let dir = temp_dir("reupload");
    let first = record_quick(&dir, "countdown.main");
    let second = record_quick(&dir, "999.specrand");
    let daemon = start(2);
    let client = daemon.client();
    client.upload("tenant", &first).unwrap();
    for spec in SPECS {
        // Twice: the second answer is a hit on the first upload.
        for _ in 0..2 {
            assert_eq!(ask(&client, "tenant", spec).unwrap(), local(&first, spec));
        }
    }
    client.upload("tenant", &second).unwrap();
    for spec in SPECS {
        let want = local(&second, spec);
        assert_ne!(want, local(&first, spec), "{spec}: the traces must differ");
        assert_eq!(
            ask(&client, "tenant", spec).unwrap(),
            want,
            "{spec}: a re-upload must not be answered from the old upload"
        );
    }
    daemon.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_identical_requests_get_identical_bytes() {
    const CLIENTS: usize = 8;
    let dir = temp_dir("identical");
    let path = record_quick(&dir, "countdown.main");
    let daemon = start(4);
    daemon.client().upload("shared", &path).unwrap();
    for spec in SPECS {
        // The barrier releases every client at once, so several of them
        // miss together and both compute and store the answer.
        let barrier = Barrier::new(CLIENTS);
        let answers: Vec<String> = std::thread::scope(|clients| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    let (client, barrier) = (daemon.client(), &barrier);
                    clients.spawn(move || {
                        barrier.wait();
                        ask(&client, "shared", spec).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let want = local(&path, spec);
        for answer in &answers {
            assert_eq!(answer, &want, "{spec}");
        }
    }
    daemon.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn error_answers_are_not_cached() {
    let dir = temp_dir("errors");
    let path = record_quick(&dir, "countdown.main");
    let daemon = start(2);
    daemon.client().upload("sess", &path).unwrap();
    for i in 0..2 {
        let client = Client::with_origin(daemon.addr(), format!("bad-{i}"));
        let err = client
            .analyze("sess", &Analysis::Cache("no-such-preset".to_owned()))
            .unwrap_err();
        assert!(matches!(err, ClientError::Server(_)), "got {err}");
    }
    let recent = flight(&daemon);
    for i in 0..2 {
        let record = record_of(&recent, &format!("bad-{i}"));
        assert_eq!(record.outcome, "error");
        assert!(!record.cached, "an ERR answer must not be stored");
    }
    daemon.stop();
    std::fs::remove_dir_all(&dir).ok();
}
