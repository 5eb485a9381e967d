//! Integration: design-space sweeps are a pure refactoring of N
//! standalone replays — never a different answer, only a cheaper one.
//!
//! Three contracts, per ISSUE 7:
//! (a) every grid cell's report is byte-identical to a standalone
//!     `agave replay --cache <cell-geometry>` of the same trace;
//! (b) sweep output is independent of `--jobs`;
//! (c) the served `SWEEP` verb returns byte-identical JSON to a local
//!     `agave sweep --json`.

use agave_analysis::{sweep_path, GridSpec};
use agave_core::{all_workloads, record, HierarchyGeometry, SuiteConfig, Workload};
use agave_serve::{ClientError, Daemon, ServeConfig};
use std::path::{Path, PathBuf};

fn find(label: &str) -> Workload {
    all_workloads()
        .into_iter()
        .find(|w| w.label() == label)
        .unwrap_or_else(|| panic!("workload {label} missing"))
}

fn record_trace(tag: &str, label: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "agave-sweep-it-{tag}-{}-{label}.agtrace",
        std::process::id()
    ));
    record::record_workload(find(label), &SuiteConfig::quick(), &path).unwrap();
    path
}

#[test]
fn every_sweep_cell_matches_a_standalone_replay() {
    let path = record_trace("cells", "countdown.main");
    let grid = GridSpec::parse("size=8k,16k:assoc=2,4:line=32,64").unwrap();
    let sweep = sweep_path(&path, &grid, 0).unwrap();
    assert_eq!(sweep.cells.len(), 8);
    let sweep_json = sweep.to_json();
    for cell in &sweep.cells {
        // The cell's canonical name resolves to the identical geometry,
        // so the standalone replay is exactly what `agave replay
        // --cache <name> --json` would print.
        let geometry = HierarchyGeometry::by_name(cell.name())
            .unwrap_or_else(|e| panic!("cell name must round-trip: {e}"));
        let standalone = record::replay_trace_cache(&path, geometry, 1).unwrap();
        assert_eq!(
            cell.report,
            standalone,
            "{}: sweep cell diverged from standalone replay",
            cell.name()
        );
        assert_eq!(cell.report.to_json(), standalone.to_json());
        assert!(
            sweep_json.contains(&standalone.to_json()),
            "{}: sweep JSON must embed the standalone report verbatim",
            cell.name()
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn sweep_output_is_independent_of_jobs() {
    let path = record_trace("jobs", "999.specrand");
    let grid = GridSpec::parse("size=4k,8k:assoc=2:line=32").unwrap();
    let serial = sweep_path(&path, &grid, 1).unwrap();
    let parallel = sweep_path(&path, &grid, 4).unwrap();
    assert_eq!(serial, parallel, "jobs=1 vs jobs=4 must be identical");
    assert_eq!(serial.to_json(), parallel.to_json());
    assert_eq!(serial.render(), parallel.render());
    std::fs::remove_file(&path).ok();
}

#[test]
fn served_sweep_is_byte_identical_to_local_sweep() {
    let path = record_trace("served", "countdown.main");
    let grid_spec = "size=8k,16k:assoc=2:line=32";
    let daemon = Daemon::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        jobs: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let client = daemon.client();
    client.upload("swept", &path).unwrap();

    let served = client.sweep("swept", grid_spec).unwrap();
    let grid = GridSpec::parse(grid_spec).unwrap();
    // Local runs with a different job count than the server's —
    // byte-identity across the wire *and* across parallelism.
    let local = sweep_path(Path::new(&path), &grid, 4).unwrap().to_json();
    assert_eq!(served, local, "served SWEEP diverged from local sweep");

    let err = client
        .sweep("swept", "size=16k:assoc=3:line=32")
        .unwrap_err();
    assert!(
        matches!(&err, ClientError::Server(m) if m.contains("power")),
        "bad cell must name the constraint, got {err}"
    );
    let err = client.sweep("missing", grid_spec).unwrap_err();
    assert!(matches!(err, ClientError::Server(_)), "got {err}");

    daemon.stop();
    std::fs::remove_file(&path).ok();
}
