//! `serve_mix`: two closed-loop clients against an in-process daemon.
//!
//! Set-up records the corpus, binds a [`Server`] (2 workers, request
//! tracing on, otherwise `agave serve` defaults) and uploads every
//! trace. In the timed phase two clients each send a fixed seeded
//! request sequence with no think time: ANALYZE `summary`,
//! `cache:cortex-a9` and `sketch` over sessions of varied size,
//! re-UPLOADs that replace a bounded set of sessions, LIST and STATS.
//! A few small SWEEPs follow the timed phase. Serve, store and decode do
//! most of the work here; decode runs single-threaded per request and
//! the cache analysis takes the direct cortex-a9 walk, not the sweep's
//! plan path.

use crate::characterize::{record, record_traced, seeded_configs, spec_config};
use crate::layers::{write_spans, LayerReport, ServeLayer};
use crate::measure::{self, Ledger, Timed};
use crate::{end_to_end, rounds, timed_setup, Outcome, Params, Size, Yardstick};
use agave_analysis::{AnalysisPass, CachePass, GridSpec, SketchPass, SummaryPass};
use agave_cache::HierarchyGeometry;
use agave_core::engine::EngineConfig;
use agave_core::{all_workloads, Workload};
use agave_replay::TraceBuffer;
use agave_serve::{
    Analysis, Client, ClientError, RecentFilter, ServeConfig, Server, SessionInfo, StatsFormat,
    StatsSample,
};
use agave_trace::{SharedSink, XorShift64};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Closed-loop clients (and daemon workers): the host has two CPUs.
const CLIENTS: usize = 2;
/// Re-upload slots each client owns; each toggles between two traces.
const SLOTS: usize = 3;
/// The small grid of the SWEEP requests.
const SWEEP_GRID: &str = "size=8k,32k:assoc=2:line=32";
/// Flight records a STATS request in the mix asks for.
const STATS_RECENT: u64 = 32;

/// A request kind, as the per-verb metrics split them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Verb {
    Summary,
    Cache,
    Sketch,
    Upload,
    Sweep,
    List,
    Stats,
}

impl Verb {
    /// The analysis the verb asks for, if it is an ANALYZE.
    fn analysis(self) -> Option<Analysis> {
        match self {
            Verb::Summary => Some(Analysis::Summary),
            Verb::Cache => Some(Analysis::Cache("cortex-a9".to_owned())),
            Verb::Sketch => Some(Analysis::Sketch),
            _ => None,
        }
    }
}

/// One request of a client's fixed sequence.
#[derive(Debug, Clone)]
struct Op {
    verb: Verb,
    /// Target session (empty for LIST/STATS).
    session: String,
    /// Corpus index of the trace the session holds (after the upload,
    /// for UPLOAD).
    file: usize,
}

/// One answered request.
struct Sample {
    op: usize,
    ms: f64,
    /// FNV digest of an analysis or sweep answer (0 for the other
    /// verbs), or the failure.
    result: Result<u64, String>,
}

fn slot_name(client: usize, slot: usize) -> String {
    format!("c{client}-swap-{slot}")
}

/// The seeded sequences: one per client, each slot's two traces, and
/// the SWEEPs served after the timed phase.
struct Mix {
    ops: Vec<Vec<Op>>,
    /// `slots[client][slot] = (initial trace, alternate trace)`.
    slots: Vec<Vec<(usize, usize)>>,
    /// One SWEEP of a seeded trace from each of `design_sweep`'s strata.
    /// A sweep's cell state is a few MB. Served within the rounds, it
    /// left the two workers' heaps fragmented by chance, and
    /// `peak_rss_mb` moved by a quarter between runs of one seed; so the
    /// SWEEPs are served one at a time after `peak_rss_mb` is read.
    sweeps: Vec<Op>,
}

/// Requests of each verb in one client's sequence per round. Every
/// analysis count is a whole number of passes over the sessions a
/// client reads (the corpus and its own slots), so every seed asks for
/// the same analyses in a seeded order.
///
/// At full size the counts are derived from a target split of the
/// clients' time and each verb's mean client-observed latency, measured
/// on a traced run (`benchmark/README.md` gives the derivation):
///
/// | verb | target | basis | mean | count |
/// |---|---|---|---|---|
/// | summary | 30 % | decode-bound read: decode is this workload's subject | 2.50 ms | 9 passes |
/// | sketch | 25 % | decode-bound read with a costlier pass | 3.00 ms | 6 passes |
/// | cache:cortex-a9 | 25 % | the direct walk is the serving tail; one pass | 19.0 ms | 1 pass |
/// | re-UPLOAD | 19 % | upload admission and the spool | 1.11 ms | 360 |
/// | LIST | 0.5 % | control plane, served and checked | 0.28 ms | 37 |
/// | STATS | 0.5 % | control plane, served and checked | 0.62 ms | 17 |
fn mix_counts(size: Size, sessions: usize) -> [(Verb, usize); 6] {
    match size {
        Size::Full => [
            (Verb::Summary, 9 * sessions),
            (Verb::Sketch, 6 * sessions),
            (Verb::Cache, sessions),
            (Verb::Upload, 360),
            (Verb::List, 37),
            (Verb::Stats, 17),
        ],
        Size::Tiny => [
            (Verb::Summary, sessions),
            (Verb::Sketch, sessions),
            (Verb::Cache, sessions),
            (Verb::Upload, 6),
            (Verb::List, 1),
            (Verb::Stats, 1),
        ],
    }
}

/// Fisher–Yates shuffle driven by `rng`.
fn shuffle<T>(items: &mut [T], rng: &mut XorShift64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.index(i + 1));
    }
}

/// Builds each client's sequence. The seed shuffles the order, the
/// slots' trace pairs and the session each request names, but every
/// sequence holds exactly [`mix_counts`] of each verb, and each analysis
/// verb cycles through a seeded permutation of the sessions.
fn generate(seed: u64, size: Size, corpus: &[Workload]) -> Mix {
    let mut rng = XorShift64::new(seed ^ 0x5e7e_c0de);
    let n = corpus.len();
    let android = corpus
        .iter()
        .filter(|w| matches!(w, Workload::Agave(_)))
        .count();
    let sweeps: Vec<Op> = crate::design_sweep::ANDROID_STRATA
        .iter()
        .chain(&crate::design_sweep::SPEC_STRATA)
        .map(|stratum| {
            let label = stratum[rng.index(stratum.len())];
            let file = corpus
                .iter()
                .position(|w| w.label() == label)
                .expect("stratum labels name suite workloads");
            Op {
                verb: Verb::Sweep,
                session: label.to_owned(),
                file,
            }
        })
        .collect();
    let mut ops = Vec::new();
    let mut slots = Vec::new();
    for client in 0..CLIENTS {
        // Slots toggle between two Android traces.
        let pairs: Vec<(usize, usize)> = (0..SLOTS)
            .map(|_| {
                let a = rng.index(android);
                (a, (a + 1 + rng.index(android - 1)) % android)
            })
            .collect();
        let mut verbs: Vec<Verb> = mix_counts(size, n + SLOTS)
            .iter()
            .flat_map(|&(verb, count)| std::iter::repeat_n(verb, count))
            .collect();
        shuffle(&mut verbs, &mut rng);
        let mut cycles: BTreeMap<Verb, (Vec<usize>, usize)> = BTreeMap::new();
        let mut holds: Vec<usize> = pairs.iter().map(|p| p.0).collect();
        let mut uploads = 0;
        let mut seq = Vec::with_capacity(verbs.len() + SLOTS);
        for verb in verbs {
            let op = match verb {
                Verb::Upload => {
                    let slot = uploads % SLOTS;
                    uploads += 1;
                    let (a, b) = pairs[slot];
                    holds[slot] = if holds[slot] == a { b } else { a };
                    Op {
                        verb,
                        session: slot_name(client, slot),
                        file: holds[slot],
                    }
                }
                Verb::List | Verb::Stats => Op {
                    verb,
                    session: String::new(),
                    file: 0,
                },
                _ => {
                    let (perm, next) = cycles.entry(verb).or_insert_with(|| {
                        let mut perm: Vec<usize> = (0..n + SLOTS).collect();
                        shuffle(&mut perm, &mut rng);
                        (perm, 0)
                    });
                    let j = perm[*next % perm.len()];
                    *next += 1;
                    let (session, file) = if j < n {
                        (corpus[j].label().to_owned(), j)
                    } else {
                        (slot_name(client, j - n), holds[j - n])
                    };
                    Op {
                        verb,
                        session,
                        file,
                    }
                }
            };
            seq.push(op);
        }
        // Every slot ends the sequence holding its initial trace, so
        // each round starts from the same daemon state.
        for (slot, &(a, _)) in pairs.iter().enumerate() {
            if holds[slot] != a {
                seq.push(Op {
                    verb: Verb::Upload,
                    session: slot_name(client, slot),
                    file: a,
                });
            }
        }
        ops.push(seq);
        slots.push(pairs);
    }
    Mix { ops, slots, sweeps }
}

/// Share of analyses repeating an earlier (session, analysis) pair
/// since that session's last upload, over the clients' sequences
/// interleaved request by request.
fn repeat_share(mix: &Mix) -> f64 {
    let mut seen: HashSet<(String, Verb)> = HashSet::new();
    let (mut analyses, mut repeats) = (0u64, 0u64);
    let longest = mix.ops.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        for seq in &mix.ops {
            let Some(op) = seq.get(i) else { continue };
            match op.verb {
                Verb::Upload => seen.retain(|(s, _)| *s != op.session),
                Verb::Summary | Verb::Cache | Verb::Sketch => {
                    analyses += 1;
                    if !seen.insert((op.session.clone(), op.verb)) {
                        repeats += 1;
                    }
                }
                _ => {}
            }
        }
    }
    repeats as f64 / analyses.max(1) as f64
}

/// A response, as the `agave client` calls return it.
enum Answer {
    /// ANALYZE, SWEEP and STATS: the rendered text.
    Text(String),
    /// UPLOAD: the acknowledgement.
    Session(SessionInfo),
    /// LIST: the number of sessions listed.
    Listed(usize),
}

/// Sends one request through the `agave client` calls, which retry on
/// RETRY answers and transient connect failures.
fn send(client: &Client, op: &Op, paths: &[PathBuf]) -> Result<Answer, ClientError> {
    Ok(match op.verb {
        Verb::Upload => Answer::Session(client.upload(&op.session, &paths[op.file])?),
        Verb::Sweep => Answer::Text(client.sweep(&op.session, SWEEP_GRID)?),
        Verb::List => Answer::Listed(client.list()?.len()),
        Verb::Stats => {
            Answer::Text(client.stats(StatsFormat::Json, STATS_RECENT, RecentFilter::All)?)
        }
        verb => Answer::Text(client.analyze(&op.session, &verb.analysis().expect("an analysis"))?),
    })
}

/// The checks an answer can take without the expected bytes; returns
/// the digest of an analysis or sweep text (0 for the other verbs).
fn check(op: &Op, answer: Answer, sessions: usize, sizes: &[u64]) -> Result<u64, String> {
    match answer {
        Answer::Session(info) if info.name != op.session || info.file_bytes != sizes[op.file] => {
            Err(format!("upload of {} acknowledged as {info:?}", op.session))
        }
        Answer::Listed(n) if n != sessions => Err(format!("LIST shows {n} sessions")),
        Answer::Text(text) if op.verb == Verb::Stats => StatsSample::parse(&text)
            .map(|_| 0)
            .map_err(|e| format!("STATS: {e}")),
        Answer::Text(text) => Ok(measure::fnv(measure::FNV_START, text.as_bytes())),
        Answer::Session(_) | Answer::Listed(_) => Ok(0),
    }
}

/// One client's pass over `ops`. Requests carry a unique origin
/// (`<pass>-<index>`, with `pass` = `r<round>-c<client>` in the rounds)
/// so the daemon's flight records can be matched to the latencies the
/// client saw. With `tamper`, the first analysis answer is altered
/// before it is checked: the planted fault.
fn client_pass(
    addr: &str,
    pass: &str,
    ops: &[Op],
    paths: &[PathBuf],
    sizes: &[u64],
    mut tamper: bool,
) -> Vec<Sample> {
    let sessions = sizes.len() + CLIENTS * SLOTS;
    let mut samples = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let client_handle = Client::with_origin(addr, format!("{pass}-{i}"));
        let start = Instant::now();
        let answer = send(&client_handle, op, paths);
        let ms = measure::secs(start) * 1e3;
        let result = match answer {
            Ok(Answer::Text(text)) if tamper && op.verb.analysis().is_some() => {
                tamper = false;
                let mut bytes = text.into_bytes();
                bytes[0] ^= 0x20;
                Ok(measure::fnv(measure::FNV_START, &bytes))
            }
            Ok(answer) => check(op, answer, sessions, sizes),
            Err(err) => Err(err.to_string()),
        };
        samples.push(Sample { op: i, ms, result });
    }
    samples
}

/// The running daemon; dropping it shuts the daemon down and joins it.
struct Daemon {
    thread: Option<std::thread::JoinHandle<()>>,
    addr: String,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            if let Err(err) = Client::new(self.addr.clone()).shutdown() {
                eprintln!("agave-benchmark: shutdown: {err}");
            }
            if thread.join().is_err() {
                eprintln!("agave-benchmark: the serve thread panicked");
            }
        }
    }
}

/// Binds a daemon spooling under `spool` and starts serving.
fn start_daemon(spool: &Path) -> Daemon {
    let server = Arc::new(
        Server::bind(ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            jobs: CLIENTS,
            spool: Some(spool.to_path_buf()),
            ..ServeConfig::default()
        })
        .expect("bind the daemon"),
    );
    let addr = server.local_addr().to_string();
    let serving = Arc::clone(&server);
    let thread = std::thread::spawn(move || {
        serving.run();
    });
    Daemon {
        thread: Some(thread),
        addr,
    }
}

/// One round: both clients run their whole sequence concurrently.
struct Round {
    /// 1-based round number, as in the requests' origins.
    number: usize,
    secs: f64,
    samples: Vec<Vec<Sample>>,
    /// Traced rounds: this round's flight records, origin -> (queue,
    /// handle) ns, or why the STATS scrape failed.
    flight: Result<HashMap<String, (u64, u64)>, String>,
}

/// Scrapes the daemon's STATS with `recent` flight records.
fn scrape(addr: &str, recent: u64) -> Result<StatsSample, String> {
    let text = Client::new(addr)
        .stats(StatsFormat::Json, recent, RecentFilter::All)
        .map_err(|e| format!("STATS scrape: {e}"))?;
    StatsSample::parse(&text).map_err(|e| format!("STATS scrape: {e}"))
}

/// Reads round `round`'s flight records from STATS (traced rounds). The
/// recorder keeps the daemon's newest 1024 requests.
fn scrape_flight(addr: &str, round: usize) -> Result<HashMap<String, (u64, u64)>, String> {
    let prefix = format!("r{round}-");
    Ok(scrape(addr, 1024)?
        .recent
        .into_iter()
        .filter(|rec| rec.origin.starts_with(&prefix))
        .map(|rec| (rec.origin, (rec.queue_ns, rec.handle_ns)))
        .collect())
}

/// The daemon's `serve.rejects` counter: RETRY answers sent so far.
fn rejects(addr: &str) -> Result<u64, String> {
    Ok(scrape(addr, 0)?
        .counters
        .get("serve.rejects")
        .copied()
        .unwrap_or(0))
}

/// Local replays of every corpus trace through the three passes, with
/// decode and each pass's sink timed: the served analyses' layers.
fn local_layers(paths: &[PathBuf], ledger: &mut Ledger) -> Result<(), String> {
    for path in paths {
        crate::characterize::validate(path, ledger)?;
        let passes: [(&'static str, Box<dyn AnalysisPass>); 3] = [
            ("analysis.summary", Box::new(SummaryPass::new())),
            (
                "analysis.sketch",
                Box::new(SketchPass::new(
                    agave_analysis::SketchSink::DEFAULT_CAPACITY,
                )),
            ),
            (
                "cache.walk",
                Box::new(CachePass::new(HierarchyGeometry::cortex_a9())),
            ),
        ];
        for (layer, pass) in passes {
            let timed = Timed::wrap(pass.sink());
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
            ledger.add(layer, &outcome.label, t.ns, t.blocks);
            std::hint::black_box(pass.finish_json(&outcome));
        }
    }
    Ok(())
}

/// Runs the workload.
pub fn run(params: &Params) -> Outcome {
    let mut out = Outcome::default();
    let corpus = all_workloads();
    let base_ms = match params.size {
        Size::Full => 4_000,
        Size::Tiny => 300,
    };
    let configs = seeded_configs(params.seed, base_ms, spec_config(params.size), &corpus);
    let mix = generate(params.seed, params.size, &corpus);
    let dir = params.work.join("traces");
    let paths: Vec<PathBuf> = corpus
        .iter()
        .map(|&w| agave_core::trace_path(&dir, w))
        .collect();

    // Set-up: record the corpus, bind the daemon, upload every session.
    // Traces and spool share one directory, cleared before each rep.
    let (setup, daemon) = timed_setup(12, &params.work, || {
        std::fs::create_dir_all(&dir).expect("create trace dir");
        for ((&w, config), path) in corpus.iter().zip(&configs).zip(&paths) {
            record(w, config, path, None).expect("record the corpus");
        }
        let daemon = start_daemon(&params.work.join("spool"));
        let client = Client::new(daemon.addr.clone());
        for (w, path) in corpus.iter().zip(&paths) {
            client.upload(w.label(), path).expect("upload the corpus");
        }
        for (c, slots) in mix.slots.iter().enumerate() {
            for (s, &(a, _)) in slots.iter().enumerate() {
                client
                    .upload(&slot_name(c, s), &paths[a])
                    .expect("upload a slot");
            }
        }
        daemon
    });
    let sizes: Vec<u64> = paths
        .iter()
        .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
        .collect();

    let addr = daemon.addr.clone();
    let mix = &mix;
    let rejects_before = params.trace.then(|| rejects(&addr));
    let mut host = Yardstick::default();
    let mut round_no = 0;
    let results = rounds(params, &mut host, 3, |traced| {
        round_no += 1;
        let start = Instant::now();
        let samples = std::thread::scope(|scope| {
            let handles: Vec<_> = mix
                .ops
                .iter()
                .enumerate()
                .map(|(c, ops)| {
                    let (addr, paths, sizes) = (&addr, &paths, &sizes);
                    let pass = format!("r{round_no}-c{c}");
                    let tamper = params.plant_fault && round_no == 1 && c == 0;
                    scope.spawn(move || client_pass(addr, &pass, ops, paths, sizes, tamper))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect::<Vec<_>>()
        });
        let secs = measure::secs(start);
        let flight = if traced {
            scrape_flight(&addr, round_no)
        } else {
            Ok(HashMap::new())
        };
        Round {
            number: round_no,
            secs,
            samples,
            flight,
        }
    });
    let rejects_after = params.trace.then(|| rejects(&addr));
    let peak_rss_mb = measure::peak_rss_mb();
    let sweeps = client_pass(&addr, "sweep", &mix.sweeps, &paths, &sizes, false);
    drop(daemon);

    // Output checks, outside the timed phase: every served analysis and
    // sweep equals a local run over the same trace bytes.
    let mut expected: BTreeMap<(usize, Verb), Result<u64, String>> = BTreeMap::new();
    let local = |file: usize, verb: Verb| -> Result<u64, String> {
        let json = match verb {
            Verb::Sweep => GridSpec::parse(SWEEP_GRID)
                .and_then(|g| agave_analysis::sweep_path(&paths[file], &g, 1))
                .map(|r| r.to_json())?,
            v => agave_analysis::analyze_path(
                &paths[file],
                &v.analysis().expect("an analysis").to_string(),
                1,
            )?,
        };
        Ok(measure::fnv(measure::FNV_START, json.as_bytes()))
    };
    let passes = results
        .iter()
        .flat_map(|(_, round)| round.samples.iter().zip(&mix.ops))
        .chain([(&sweeps, &mix.sweeps)]);
    for (samples, ops) in passes {
        for s in samples {
            out.attempted += 1;
            let op = &ops[s.op];
            let got = match &s.result {
                Ok(hash) => *hash,
                Err(err) => {
                    out.fail(format!("{:?} {}: {err}", op.verb, op.session));
                    continue;
                }
            };
            if matches!(op.verb, Verb::Upload | Verb::List | Verb::Stats) {
                continue;
            }
            let want = expected
                .entry((op.file, op.verb))
                .or_insert_with(|| local(op.file, op.verb));
            if want.as_ref() != Ok(&got) {
                out.fail(format!(
                    "{:?} {} differs from a local run over the same bytes",
                    op.verb, op.session
                ));
            }
        }
    }
    let digest = expected
        .values()
        .flatten()
        .fold(measure::FNV_START, |h, v| measure::fnv(h, &v.to_le_bytes()));
    println!("serve_mix digest {digest:016x}");

    let latencies = |rs: &[&Round], verb: Option<Verb>| -> Vec<f64> {
        rs.iter()
            .flat_map(|r| {
                r.samples.iter().enumerate().flat_map(move |(c, ss)| {
                    ss.iter()
                        .filter(move |s| verb.is_none_or(|v| mix.ops[c][s.op].verb == v))
                        .map(|s| s.ms)
                })
            })
            .collect()
    };
    let requests = |r: &Round| r.samples.iter().map(Vec::len).sum::<usize>() as f64;
    let untraced: Vec<&Round> = results.iter().filter(|(t, _)| !t).map(|(_, r)| r).collect();
    if !params.trace {
        let rates: Vec<f64> = untraced.iter().map(|r| requests(r) / r.secs).collect();
        let ops = latencies(&untraced, None);
        end_to_end(&mut out, &host, setup, peak_rss_mb, &rates, &ops);
        return out;
    }

    let traced: Vec<&Round> = results.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();
    // Traced rounds' ledgers hold one span per request: the client's
    // wait, as the caller sees the serve layer. Spans inside the daemon
    // are left to a later change, so nothing here splits that wait by
    // layer and `layers.unattributed_share` is not measured.
    let round_ledgers: Vec<Ledger> = traced
        .iter()
        .map(|r| {
            let mut ledger = Ledger::new();
            for samples in &r.samples {
                for s in samples {
                    ledger.add("serve", "request", (s.ms * 1e6) as u64, 1);
                }
            }
            ledger
        })
        .collect();
    let mut local_ledger = Ledger::new();
    if let Err(err) = local_layers(&paths, &mut local_ledger) {
        out.fail(format!("local replay: {err}"));
    }
    // One more recording under the timers, for the engine and encoder
    // rates; the same bytes land in the same files.
    let mut setup_ledger = Ledger::new();
    let items: Vec<(Workload, EngineConfig)> = corpus.iter().copied().zip(configs).collect();
    let counts = record_traced(&items, &paths, &mut setup_ledger).unwrap_or_else(|err| {
        out.fail(format!("traced recording: {err}"));
        [0; 3]
    });
    let per_round: Vec<(&Ledger, f64)> = round_ledgers
        .iter()
        .zip(&traced)
        .map(|(l, r)| (l, r.secs * CLIENTS as f64))
        .collect();
    let mut all: Vec<&Ledger> = round_ledgers.iter().collect();
    all.push(&local_ledger);
    all.push(&setup_ledger);
    let mut layers = LayerReport::from_ledgers(&per_round, &all);
    [layers.blocks, layers.words, layers.batches] = counts;
    layers.unattributed_share = 0.0;
    let (mut queue, mut handle, mut wire) = (Vec::new(), Vec::new(), Vec::new());
    for r in &traced {
        let flight = match &r.flight {
            Ok(flight) => flight,
            Err(err) => {
                out.fail(format!("round {}: {err}", r.number));
                continue;
            }
        };
        let matched = queue.len();
        for (c, samples) in r.samples.iter().enumerate() {
            for s in samples {
                let origin = format!("r{}-c{c}-{}", r.number, s.op);
                if let Some(&(q, h)) = flight.get(&origin) {
                    queue.push(q as f64 / 1e6);
                    handle.push(h as f64 / 1e6);
                    wire.push(s.ms - (q + h) as f64 / 1e6);
                }
            }
        }
        if queue.len() == matched {
            out.fail(format!(
                "round {}: no flight record matches its requests",
                r.number
            ));
        }
    }
    let p50 = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            measure::median(v)
        }
    };
    let verb_p50 = |verb| p50(&latencies(&traced, Some(verb)));
    let verb_p50 = &verb_p50;
    let retries = match (rejects_before, rejects_after) {
        (Some(Ok(before)), Some(Ok(after))) => after.saturating_sub(before),
        (Some(Err(err)), _) | (_, Some(Err(err))) => {
            out.fail(err);
            0
        }
        _ => 0,
    };
    layers.serve = ServeLayer {
        queue_wait_p50_ms: p50(&queue),
        handle_p50_ms: p50(&handle),
        wire_p50_ms: p50(&wire),
        upload_p50_ms: verb_p50(Verb::Upload),
        analyze_summary_p50_ms: verb_p50(Verb::Summary),
        analyze_cache_p50_ms: verb_p50(Verb::Cache),
        analyze_sketch_p50_ms: verb_p50(Verb::Sketch),
        sweep_p50_ms: p50(&sweeps.iter().map(|s| s.ms).collect::<Vec<_>>()),
        list_p50_ms: verb_p50(Verb::List),
        request_p99_ms: measure::quantile(&latencies(&traced, None), 0.99),
        retries,
        repeat_share: repeat_share(mix),
    };
    report_split(&traced, mix);
    let rate = |rs: &[&Round]| rs.iter().map(|r| requests(r) / r.secs).collect::<Vec<_>>();
    layers.overhead(&rate(&untraced), &rate(&traced));
    write_spans(params, &all);
    layers.emit(&mut out);
    out
}

/// Prints how the clients' time in the traced rounds splits by verb:
/// the check that the mix's counts give the split they were derived
/// for.
fn report_split(traced: &[&Round], mix: &Mix) {
    let mut by_verb: BTreeMap<Verb, (u64, f64)> = BTreeMap::new();
    for r in traced {
        for (c, samples) in r.samples.iter().enumerate() {
            for s in samples {
                let entry = by_verb.entry(mix.ops[c][s.op].verb).or_default();
                entry.0 += 1;
                entry.1 += s.ms;
            }
        }
    }
    let total: f64 = by_verb.values().map(|v| v.1).sum();
    let parts: Vec<String> = by_verb
        .iter()
        .map(|(verb, &(n, ms))| {
            format!(
                "{verb:?} {:.1}% ({n} x {:.3} ms)",
                100.0 * ms / total,
                ms / n as f64
            )
        })
        .collect();
    eprintln!("agave-benchmark: client time by verb: {}", parts.join(", "));
}
