//! Integration: the `agave-serve` daemon under concurrent multi-tenant
//! load must produce analysis responses **byte-identical** to local
//! `agave replay` — the served path is the recorded-trace contract,
//! just reached over a socket.
//!
//! One daemon on an ephemeral port; several client threads each record
//! an app or SPEC workload, upload it, and compare the served summary
//! and cache-report JSON against the local replay of the same file.

use agave_core::{all_workloads, record, HierarchyGeometry, SuiteConfig, Workload};
use agave_serve::{Analysis, ClientError, Daemon, ServeConfig};
use std::path::PathBuf;

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
    let daemon = Daemon::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        jobs: 4,
        ..ServeConfig::default()
    })
    .unwrap();

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
