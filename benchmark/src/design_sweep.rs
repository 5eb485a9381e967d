//! `design_sweep`: cache design-space sweeps over recorded traces.
//!
//! Set-up records the corpus strata — Android traces of different
//! footprints and SPEC traces — and the timed phase sweeps a seeded
//! subset, one trace per stratum, over one fixed L1 grid with `jobs` = 2
//! (`sweep_path`).
//! The cache hierarchy and the sweep planner do nearly all the work
//! here and none in `characterize`; this is where stack-distance sweeps
//! must show.

use crate::characterize::{flip_byte, record, record_traced, seeded_configs, spec_config};
use crate::layers::{write_spans, LayerReport};
use crate::measure::{self, Ledger, Timed};
use crate::{end_to_end, rounds, timed_setup, Outcome, Params, Size, Yardstick};
use agave_analysis::sweep::sweep_cell_standalone;
use agave_analysis::{sweep_path, CachePass, FanoutSink, GridSpec};
use agave_cache::{CacheReport, HierarchyGeometry, Level};
use agave_core::engine::EngineConfig;
use agave_core::{all_workloads, Workload};
use agave_replay::TraceBuffer;
use agave_trace::{SharedSink, XorShift64};
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;

/// The fixed L1 grid: sizes from below to above the traces' working
/// sets, four associativities, two line sizes (two plan groups).
const GRID: &str = "size=2k,8k,32k,128k:assoc=1,2,4,8:line=32,64";
/// Sweep workers, as `agave sweep --jobs 2`.
const JOBS: usize = 2;

/// Android workloads in six strata of similar sweep cost (cheapest
/// first, measured on reference-sized traces), and SPEC in three; the
/// seed picks one workload per stratum, so every seed sweeps a like mix
/// of footprints and sizes. `frozenbubble.main`, whose cost sits alone
/// between the two dearest strata, is left out.
pub const ANDROID_STRATA: [&[&str]; 6] = [
    &["countdown.main", "odr.xls.view", "coolreader.epub.view"],
    &["odr.ppt.view", "odr.txt.view", "aard.main"],
    &["pm.apk.view.bkg", "osmand.map.view", "pm.apk.view"],
    &["gallery.mp4.view", "osmand.nav.view", "vlc.mp3.view"],
    &[
        "music.mp3.view",
        "music.mp3.view.bkg",
        "vlc.mp3.view.bkg",
        "vlc.mp4.view",
    ],
    &["jetboy.main", "doom.main"],
];
pub const SPEC_STRATA: [&[&str]; 3] = [
    &["429.mcf", "462.libquantum"],
    &["456.hmmer", "999.specrand"],
    &["458.sjeng", "401.bzip2"],
];

/// The strata's workloads, each with its seeded sizing, and the pool
/// index of the workload the seed picks from each stratum.
struct Corpus {
    pool: Vec<(Workload, EngineConfig)>,
    chosen: Vec<usize>,
}

fn seeded_corpus(seed: u64, size: Size) -> Corpus {
    let mut rng = XorShift64::new(seed ^ 0x5eed_5eef);
    let (strata, base_ms): (Vec<&[&str]>, u64) = match size {
        Size::Full => (
            ANDROID_STRATA.iter().chain(&SPEC_STRATA).copied().collect(),
            3_000,
        ),
        Size::Tiny => (vec![ANDROID_STRATA[0], SPEC_STRATA[0]], 300),
    };
    let workloads = all_workloads();
    let (mut pool, mut chosen) = (Vec::new(), Vec::new());
    for stratum in strata {
        chosen.push(pool.len() + rng.index(stratum.len()));
        pool.extend(stratum.iter().map(|label| {
            *workloads
                .iter()
                .find(|w| w.label() == *label)
                .expect("stratum labels name suite workloads")
        }));
    }
    let configs = seeded_configs(seed, base_ms, spec_config(size), &pool);
    Corpus {
        pool: pool.into_iter().zip(configs).collect(),
        chosen,
    }
}

/// One trace's sweep in a round.
struct Swept {
    cells: Vec<CacheReport>,
    words: u64,
}

/// `sweep_path` with the fan-out sink and the decode timed from
/// outside: the same calls, in the same order.
fn traced_sweep(path: &Path, grid: &GridSpec, ledger: &mut Ledger) -> Result<Swept, String> {
    let geometries = grid.cells()?;
    let start = Instant::now();
    let buf = TraceBuffer::open(path).map_err(|e| e.to_string())?;
    let fanout = Rc::new(RefCell::new(FanoutSink::new(&geometries, JOBS)));
    let timed = Timed::wrap(fanout.clone() as SharedSink);
    let outcome = buf
        .replay(&[timed.clone() as SharedSink], JOBS)
        .map_err(|e| e.to_string())?;
    let t = timed.borrow();
    ledger.close(
        "replay.decode",
        &outcome.label,
        start,
        t.ns,
        buf.len() as u64,
    );
    ledger.add(
        "analysis.sweep",
        &outcome.label,
        t.ns,
        t.blocks * geometries.len() as u64,
    );
    let report_start = Instant::now();
    let cells = fanout.borrow().reports(&outcome.label, &outcome.directory);
    ledger.close("analysis.report", &outcome.label, report_start, 0, 0);
    Ok(Swept {
        cells,
        words: outcome.words,
    })
}

/// A [`CachePass`] replay of `path` with the walk timed from outside:
/// what `sweep_cell_standalone` runs.
fn traced_walk(
    path: &Path,
    geometry: HierarchyGeometry,
    ledger: &mut Ledger,
) -> Result<CacheReport, String> {
    let pass = CachePass::new(geometry);
    let timed = Timed::wrap(agave_analysis::AnalysisPass::sink(&pass));
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
    ledger.add("cache.walk", &outcome.label, t.ns, t.blocks);
    Ok(pass.finish(&outcome))
}

/// What a round keeps: timings, counts and a digest of every cell
/// report, not the reports themselves.
struct Round {
    secs: f64,
    cell_refs: u64,
    /// Per-trace sweep wall time in ms, or the failure.
    ops: Vec<Result<f64, String>>,
    digest: u64,
    /// Summed over cells: L1 (I+D) accesses, L1 misses, L2 misses.
    cache: [u64; 3],
    ledger: Option<Ledger>,
}

impl Round {
    fn ledger(&self) -> &Ledger {
        self.ledger.as_ref().expect("traced round has a ledger")
    }
}

/// Runs one round; returns it with each trace's cell reports.
fn round(paths: &[PathBuf], grid: &GridSpec, traced: bool) -> (Round, Vec<Vec<CacheReport>>) {
    let mut ledger = traced.then(Ledger::new);
    let start = Instant::now();
    let mut swept = Vec::with_capacity(paths.len());
    for path in paths {
        let op_start = Instant::now();
        let result = match ledger.as_mut() {
            Some(ledger) => traced_sweep(path, grid, ledger),
            None => sweep_path(path, grid, JOBS).map(|report| Swept {
                words: report.words,
                cells: report.cells.into_iter().map(|c| c.report).collect(),
            }),
        };
        swept.push((measure::secs(op_start) * 1e3, result));
    }
    let mut r = Round {
        secs: measure::secs(start),
        cell_refs: 0,
        ops: Vec::with_capacity(paths.len()),
        digest: measure::FNV_START,
        cache: [0; 3],
        ledger,
    };
    let mut reports = Vec::with_capacity(paths.len());
    for (ms, result) in swept {
        match result {
            Ok(s) => {
                r.cell_refs += s.words * s.cells.len() as u64;
                for cell in &s.cells {
                    r.digest = measure::fnv(r.digest, cell.to_json().as_bytes());
                    let (i, d) = (cell.total(Level::L1i), cell.total(Level::L1d));
                    r.cache[0] += i.accesses() + d.accesses();
                    r.cache[1] += i.misses + d.misses;
                    r.cache[2] += cell.total(Level::L2).misses;
                }
                r.ops.push(Ok(ms));
                reports.push(s.cells);
            }
            Err(err) => {
                r.ops.push(Err(err));
                reports.push(Vec::new());
            }
        }
    }
    (r, reports)
}

/// Runs the workload.
pub fn run(params: &Params) -> Outcome {
    let mut out = Outcome::default();
    let grid = GridSpec::parse(GRID).expect("the fixed grid parses");
    let geometries = grid.cells().expect("the fixed grid is valid");
    let corpus = seeded_corpus(params.seed, params.size);
    let dir = params.work.join("traces");
    let pool_paths: Vec<PathBuf> = corpus
        .pool
        .iter()
        .map(|&(w, _)| agave_core::trace_path(&dir, w))
        .collect();
    let paths: Vec<PathBuf> = corpus
        .chosen
        .iter()
        .map(|&i| pool_paths[i].clone())
        .collect();
    // Set-up records every workload of the strata, so every seed's
    // set-up does the same work; the timed phase sweeps the seed's pick.
    let (setup, ()) = timed_setup(20, &dir, || {
        for ((w, config), path) in corpus.pool.iter().zip(&pool_paths) {
            record(*w, config, path, None).expect("record the strata");
        }
    });
    // A traced run records once more under the timers, for the engine
    // and encoder rates; the same bytes land in the same files.
    let mut setup_ledger = Ledger::new();
    let counts = if params.trace {
        record_traced(&corpus.pool, &pool_paths, &mut setup_ledger).expect("record the strata")
    } else {
        [0; 3]
    };
    if params.plant_fault {
        flip_byte(&paths[0]);
    }

    let mut host = Yardstick::default();
    let mut last_reports = Vec::new();
    let results = rounds(params, &mut host, 3, |traced| {
        let (r, reports) = round(&paths, &grid, traced);
        last_reports = reports;
        r
    });
    let peak_rss_mb = measure::peak_rss_mb();
    let first_digest = results[0].1.digest;
    for (_, r) in &results {
        out.attempted += paths.len() as u64;
        for (path, op) in paths.iter().zip(&r.ops) {
            if let Err(err) = op {
                out.fail(format!("sweep {}: {err}", path.display()));
            }
        }
        if r.digest != first_digest {
            out.fail("sweep reports differ between rounds of the same seed");
        }
    }

    // Output check, outside the timed phase: one seeded cell per trace
    // equals a standalone replay through that cell's geometry.
    let mut rng = XorShift64::new(params.seed ^ 0xce11);
    let mut check_ledger = Ledger::new();
    for (path, cells) in paths.iter().zip(&last_reports) {
        let i = rng.index(geometries.len());
        let Some(cell) = cells.get(i) else { continue };
        let name = &cell.preset;
        if params.trace {
            if let Err(err) = crate::characterize::validate(path, &mut check_ledger) {
                out.fail(format!("validate {}: {err}", path.display()));
            }
        }
        match sweep_cell_standalone(path, name) {
            Ok(report) if report.to_json() == cell.to_json() => {}
            Ok(_) => out.fail(format!(
                "{}: cell {name} differs from standalone",
                path.display()
            )),
            Err(err) => out.fail(format!("standalone {}: {err}", path.display())),
        }
        if params.trace {
            match traced_walk(path, geometries[i], &mut check_ledger) {
                Ok(report) if report.to_json() == cell.to_json() => {}
                Ok(_) => out.fail(format!("{}: cell {name} walk differs", path.display())),
                Err(err) => out.fail(format!("walk {}: {err}", path.display())),
            }
        }
    }
    println!("design_sweep digest {first_digest:016x}");

    let untraced: Vec<&Round> = results.iter().filter(|(t, _)| !t).map(|(_, r)| r).collect();
    if !params.trace {
        let rates: Vec<f64> = untraced
            .iter()
            .map(|r| r.cell_refs as f64 / r.secs)
            .collect();
        let ops: Vec<f64> = untraced
            .iter()
            .flat_map(|r| r.ops.iter().flatten().copied())
            .collect();
        end_to_end(&mut out, &host, setup, peak_rss_mb, &rates, &ops);
        return out;
    }

    let traced: Vec<&Round> = results.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();
    let round_ledgers: Vec<(&Ledger, f64)> = traced.iter().map(|r| (r.ledger(), r.secs)).collect();
    let mut all: Vec<&Ledger> = traced.iter().map(|r| r.ledger()).collect();
    all.push(&setup_ledger);
    all.push(&check_ledger);
    let mut layers = LayerReport::from_ledgers(&round_ledgers, &all);
    [layers.blocks, layers.words, layers.batches] = counts;
    [
        layers.cache_accesses,
        layers.cache_l1_misses,
        layers.cache_l2_misses,
    ] = traced[0].cache;
    let rate = |rs: &[&Round]| {
        rs.iter()
            .map(|r| r.cell_refs as f64 / r.secs)
            .collect::<Vec<_>>()
    };
    layers.overhead(&rate(&untraced), &rate(&traced));
    write_spans(params, &all);
    layers.emit(&mut out);
    out
}
