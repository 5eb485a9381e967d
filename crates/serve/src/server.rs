//! The daemon: a bounded-queue TCP accept loop feeding a
//! `parallel_map` worker pool.
//!
//! # Threading and backpressure
//!
//! One acceptor thread owns the listener. Accepted connections go into a
//! bounded queue; `jobs` workers (spawned through the same work-stealing
//! [`parallel_map`](agave_trace::par::parallel_map) that runs the
//! parallel suite) pop and handle one request each. When the queue is
//! full the acceptor *immediately* answers `RETRY` with a suggested
//! back-off and closes — explicit rejection, never unbounded buffering,
//! so a flood of clients costs the server one small write per excess
//! connection instead of memory.
//!
//! # Bounded ingest memory
//!
//! Uploads are streamed from the socket to the spool file through
//! `io::copy`'s fixed buffer, then validated with
//! [`TraceBuffer::validate`] (a checksum walk that decodes nothing,
//! fanned out across `decode_jobs` workers). Analyses replay from disk
//! through the same chunked `SINK_BATCH` delivery path as local
//! replay. Steady-state server memory is
//! `O(jobs × copy-buffer + queue length + sketch capacity)` plus the
//! result cache's fixed byte budget, regardless of trace size
//! (validation briefly holds one trace in memory) — the `serve_load`
//! bench uploads and sketches a trace far larger than the steady-state
//! bounds to prove it. A repeated ANALYZE or SWEEP is answered from
//! the `ResultCache` without reading the trace again.

use crate::flight::{FlightRecorder, RequestRecord};
use crate::protocol::{
    decode_analyze, decode_stats, decode_sweep, encode_response, encode_session, encode_sessions,
    read_frame_len, read_meta_stream, read_varint_stream, verb_name, write_frame, Analysis,
    RequestMeta, Response, SessionInfo, StatsFormat, WireError, MAX_CONTROL_FRAME, MAX_NAME,
    V_ANALYZE, V_LIST, V_PING, V_SHUTDOWN, V_STATS, V_SWEEP, V_UPLOAD,
};
use crate::store::{SessionMeta, TraceStore};
use agave_analysis::GridSpec;
use agave_replay::TraceBuffer;
use agave_telemetry::metrics::{counter, gauge, histogram, Histogram};
use agave_telemetry::TelemetrySnapshot;
use agave_trace::par::{effective_jobs, parallel_map};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How the daemon binds, scales, and pushes back.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `"127.0.0.1:4950"` (`:0` for an ephemeral
    /// port — read it back with [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads handling requests (0 = one per CPU).
    pub jobs: usize,
    /// Accepted-connection queue capacity; beyond it clients get RETRY.
    pub queue_cap: usize,
    /// Back-off suggested to rejected clients, in milliseconds.
    pub retry_after_ms: u32,
    /// Spool directory for uploaded traces (`None` = a fresh temp dir,
    /// removed on shutdown).
    pub spool: Option<PathBuf>,
    /// Artificial per-request handling delay. Zero in production; tests
    /// and the load bench raise it to force the queue to fill
    /// deterministically.
    pub handle_delay_ms: u64,
    /// Decode threads *within* one ANALYZE/SWEEP/upload-validate request
    /// (0 = one per CPU). Defaults to 1: server concurrency normally
    /// comes from serving many requests, not one request hogging every
    /// core. Raise it for single-tenant servers fronting huge traces.
    pub decode_jobs: usize,
    /// Flight-recorder capacity: how many recent request records the
    /// main ring keeps (`--flight-capacity`).
    pub flight_capacity: usize,
    /// Requests handled slower than this are marked slow and retained
    /// preferentially in the flight recorder (`--slow-ms`).
    pub slow_ms: u64,
    /// Per-request tracing: registry metrics, spans, and the flight
    /// recorder. On by default; the serve_load bench turns it off to
    /// measure the overhead.
    pub trace_requests: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:4950".to_owned(),
            jobs: 0,
            queue_cap: 64,
            retry_after_ms: 50,
            spool: None,
            handle_delay_ms: 0,
            decode_jobs: 1,
            flight_capacity: 1024,
            slow_ms: 100,
            trace_requests: true,
        }
    }
}

/// Counters the daemon keeps unconditionally — even with
/// `trace_requests` off — and reports when [`Server::run`] returns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Connections accepted (including rejected ones).
    pub connections: u64,
    /// Successful uploads.
    pub uploads: u64,
    /// Successful analyses.
    pub analyses: u64,
    /// Connections answered with RETRY because the queue was full.
    pub rejects: u64,
    /// Requests that failed (bad frames, unknown sessions, corrupt
    /// uploads, I/O errors mid-request).
    pub errors: u64,
    /// Raw trace bytes spooled to disk.
    pub bytes_ingested: u64,
}

#[derive(Default)]
struct AtomicStats {
    connections: AtomicU64,
    uploads: AtomicU64,
    analyses: AtomicU64,
    rejects: AtomicU64,
    errors: AtomicU64,
    bytes_ingested: AtomicU64,
}

impl AtomicStats {
    fn snapshot(&self) -> ServeStats {
        ServeStats {
            connections: self.connections.load(Ordering::Relaxed),
            uploads: self.uploads.load(Ordering::Relaxed),
            analyses: self.analyses.load(Ordering::Relaxed),
            rejects: self.rejects.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            bytes_ingested: self.bytes_ingested.load(Ordering::Relaxed),
        }
    }
}

/// One accepted connection waiting for a worker, stamped with its
/// enqueue time and the depth it saw (for queue-wait telemetry).
struct QueueEntry {
    conn: TcpStream,
    depth: usize,
    enqueued: Instant,
}

/// The bounded accepted-connection queue.
struct ConnQueue {
    state: Mutex<(VecDeque<QueueEntry>, bool)>,
    cv: Condvar,
    cap: usize,
}

impl ConnQueue {
    fn new(cap: usize) -> Self {
        ConnQueue {
            state: Mutex::new((VecDeque::new(), false)),
            cv: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Enqueues `s`, or returns it when the queue is full (the caller
    /// rejects). Returns the depth after the push.
    fn push(&self, s: TcpStream) -> Result<usize, TcpStream> {
        let mut state = self.state.lock().expect("conn queue poisoned");
        if state.0.len() >= self.cap {
            return Err(s);
        }
        let depth = state.0.len() + 1;
        state.0.push_back(QueueEntry {
            conn: s,
            depth,
            enqueued: Instant::now(),
        });
        self.cv.notify_one();
        Ok(depth)
    }

    /// Blocks for the next connection; `None` once closed and drained.
    fn pop(&self) -> Option<QueueEntry> {
        let mut state = self.state.lock().expect("conn queue poisoned");
        loop {
            if let Some(s) = state.0.pop_front() {
                return Some(s);
            }
            if state.1 {
                return None;
            }
            state = self.cv.wait(state).expect("conn queue poisoned");
        }
    }

    /// Current depth (heartbeat/gauge reads; racy by nature, fine).
    fn len(&self) -> usize {
        self.state.lock().expect("conn queue poisoned").0.len()
    }

    fn close(&self) {
        self.state.lock().expect("conn queue poisoned").1 = true;
        self.cv.notify_all();
    }
}

/// Byte budget of a server's result cache, keys included.
const RESULT_CACHE_BYTES: usize = 16 << 20;

/// A result-cache key: an upload's spool path and a canonical spec (the
/// [`Analysis`] `Display` form, or `sweep:<grid>`).
type ResultKey = (PathBuf, String);

/// What an entry is charged against the budget: its key and body bytes.
fn entry_cost(key: &ResultKey, body: &[u8]) -> usize {
    key.0.as_os_str().len() + key.1.len() + body.len()
}

/// Rendered OK bodies of ANALYZE and SWEEP answers, evicted least
/// recently used first once they would pass the byte budget.
///
/// [`TraceStore::spool_file`] never hands out a path twice and a spool
/// file is not written after admission, so a key names immutable,
/// validated bytes and a hit is byte-identical to a miss. Keys name
/// uploads, not content: the chunk checksum is not collision-resistant,
/// so a content key would let one tenant forge another's entries
/// (DESIGN.md §14). There is no single-flight: concurrent identical
/// misses each render the same bytes, and the first to finish stores
/// them.
struct ResultCache {
    budget: usize,
    /// Whether to record the `serve.result_cache.*` metrics.
    traced: bool,
    state: Mutex<CacheState>,
}

#[derive(Default)]
struct CacheState {
    /// Each entry's body and the tick of its last use.
    entries: HashMap<ResultKey, (Arc<[u8]>, u64)>,
    /// Tick of last use → key, least recent first.
    lru: BTreeMap<u64, ResultKey>,
    bytes: usize,
    clock: u64,
}

impl ResultCache {
    fn new(budget: usize, traced: bool) -> ResultCache {
        ResultCache {
            budget,
            traced,
            state: Mutex::new(CacheState::default()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, CacheState> {
        self.state.lock().expect("result cache poisoned")
    }

    /// The body stored under `key`, which becomes the most recently used.
    fn get(&self, key: &ResultKey) -> Option<Arc<[u8]>> {
        let mut state = self.lock();
        let state = &mut *state;
        let hit = state.entries.get_mut(key).map(|(body, used)| {
            let key = state.lru.remove(used).expect("every entry has a tick");
            state.clock += 1;
            *used = state.clock;
            state.lru.insert(state.clock, key);
            Arc::clone(body)
        });
        if self.traced {
            let hit_or_miss = match hit {
                Some(_) => "serve.result_cache.hits",
                None => "serve.result_cache.misses",
            };
            counter(hit_or_miss).incr();
        }
        hit
    }

    /// Stores `body` under `key`, evicting until it fits. A body that
    /// would not fit in the whole budget is not stored.
    fn insert(&self, key: ResultKey, body: Arc<[u8]>) {
        let cost = entry_cost(&key, &body);
        let mut state = self.lock();
        if cost > self.budget || state.entries.contains_key(&key) {
            return;
        }
        let mut evicted = 0;
        while state.bytes + cost > self.budget {
            let (_, old) = state.lru.pop_first().expect("held bytes have entries");
            let (old_body, _) = state.entries.remove(&old).expect("ticks name entries");
            state.bytes -= entry_cost(&old, &old_body);
            evicted += 1;
        }
        state.clock += 1;
        let tick = state.clock;
        state.lru.insert(tick, key.clone());
        state.entries.insert(key, (body, tick));
        state.bytes += cost;
        if self.traced {
            counter("serve.result_cache.evictions").add(evicted);
            gauge("serve.result_cache.bytes").set(state.bytes as u64);
        }
    }

    /// Drops every entry of the upload spooled at `path`.
    fn drop_upload(&self, path: &Path) {
        let mut state = self.lock();
        let state = &mut *state;
        state.entries.retain(|key, (body, used)| {
            let keep = key.0 != path;
            if !keep {
                state.lru.remove(used);
                state.bytes -= entry_cost(key, body);
            }
            keep
        });
        if self.traced {
            gauge("serve.result_cache.bytes").set(state.bytes as u64);
        }
    }
}

/// The multi-tenant replay/analysis daemon.
pub struct Server {
    listener: TcpListener,
    config: ServeConfig,
    store: TraceStore,
    queue: Arc<ConnQueue>,
    shutdown: AtomicBool,
    accept_done: AtomicBool,
    stats: Arc<AtomicStats>,
    flight: FlightRecorder,
    results: ResultCache,
}

impl Server {
    /// Binds the listener and opens the spool; does not serve yet.
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let store = TraceStore::new(config.spool.clone())?;
        let queue = Arc::new(ConnQueue::new(config.queue_cap));
        let flight = FlightRecorder::new(
            config.flight_capacity,
            config.slow_ms.saturating_mul(1_000_000),
        );
        let results = ResultCache::new(RESULT_CACHE_BYTES, config.trace_requests);
        Ok(Server {
            listener,
            config,
            store,
            queue,
            shutdown: AtomicBool::new(false),
            accept_done: AtomicBool::new(false),
            stats: Arc::new(AtomicStats::default()),
            flight,
            results,
        })
    }

    /// The bound address (resolves `:0` ephemeral-port binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("listener has an address")
    }

    /// Serves until a client sends SHUTDOWN, then drains the queue and
    /// returns the run's [`ServeStats`]. Workers fan out through
    /// [`parallel_map`]; the acceptor runs beside them. With telemetry
    /// enabled a once-a-second heartbeat line on stderr shows the
    /// daemon is alive (connections, rejects, errors, queue depth).
    pub fn run(&self) -> ServeStats {
        let jobs = effective_jobs(self.config.jobs);
        let ticker = agave_telemetry::Ticker::start({
            let stats = Arc::clone(&self.stats);
            let queue = Arc::clone(&self.queue);
            let started = Instant::now();
            move || {
                let s = stats.snapshot();
                format!(
                    "[agave-serve] up {} · {} conns · {} uploads · {} analyses · {} rejected · {} errors · queue {}",
                    agave_telemetry::format::fmt_ns(started.elapsed().as_nanos() as u64),
                    s.connections,
                    s.uploads,
                    s.analyses,
                    s.rejects,
                    s.errors,
                    queue.len(),
                )
            }
        });
        std::thread::scope(|scope| {
            let acceptor = scope.spawn(|| self.accept_loop());
            parallel_map(jobs, jobs, |_| self.worker_loop());
            acceptor.join().expect("acceptor panicked");
        });
        ticker.finish();
        self.stats.snapshot()
    }

    fn accept_loop(&self) {
        loop {
            let conn = match self.listener.accept() {
                Ok((s, _)) => s,
                Err(_) => {
                    if self.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    continue;
                }
            };
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            self.stats.connections.fetch_add(1, Ordering::Relaxed);
            // Registry metrics for accepted requests are recorded by the
            // worker once the verb is known, so STATS scrapes can stay
            // invisible to the registry (byte-stable idle snapshots).
            if let Err(conn) = self.queue.push(conn) {
                self.reject(conn);
            }
        }
        self.accept_done.store(true, Ordering::SeqCst);
        self.queue.close();
    }

    /// Pops the acceptor out of its blocking `accept` after the
    /// shutdown flag is up. A single fire-and-forget connect is not
    /// enough: under heavy loopback churn (the test suite, a saturated
    /// host) the connect can transiently fail with `EADDRNOTAVAIL` and
    /// the wake is lost, leaving the acceptor parked in `accept`
    /// forever. So keep knocking until the acceptor confirms it exited.
    fn wake_acceptor(&self) {
        let addr = self.local_addr();
        while !self.accept_done.load(Ordering::SeqCst) {
            TcpStream::connect_timeout(&addr, Duration::from_millis(250)).ok();
            if self.accept_done.load(Ordering::SeqCst) {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Answers a connection the queue has no room for: one RETRY frame,
    /// then close. The write gets a short timeout so a stalled client
    /// cannot wedge the acceptor.
    fn reject(&self, conn: TcpStream) {
        self.stats.rejects.fetch_add(1, Ordering::Relaxed);
        if self.config.trace_requests {
            counter("serve.rejects").incr();
        }
        conn.set_write_timeout(Some(Duration::from_secs(1))).ok();
        let mut conn = conn;
        let response = Response::Retry {
            after_ms: self.config.retry_after_ms,
            message: format!("ingest queue full ({} waiting)", self.config.queue_cap),
        };
        write_frame(&mut conn, &encode_response(&response)).ok();
    }

    fn worker_loop(&self) {
        while let Some(entry) = self.queue.pop() {
            if self.config.handle_delay_ms > 0 {
                std::thread::sleep(Duration::from_millis(self.config.handle_delay_ms));
            }
            if let Err(err) = self.handle(entry) {
                self.stats.errors.fetch_add(1, Ordering::Relaxed);
                if self.config.trace_requests {
                    counter("serve.request_errors").incr();
                }
                // A failed request is the client's problem (they got an
                // ERR frame when the socket allowed one); keep serving.
                let _ = err;
            }
        }
    }

    /// Handles one connection: one request frame, one response frame.
    /// Non-STATS requests get full request-scoped tracing: a
    /// `serve request` span with a `queue wait` child, per-verb latency
    /// and queue histograms, and a flight-recorder entry. STATS requests
    /// bypass all of it so an idle daemon's snapshot is byte-stable
    /// across scrapes.
    fn handle(&self, entry: QueueEntry) -> Result<(), WireError> {
        let queue_ns = entry.enqueued.elapsed().as_nanos() as u64;
        let depth = entry.depth;
        let conn = entry.conn;
        conn.set_read_timeout(Some(Duration::from_secs(60)))?;
        conn.set_write_timeout(Some(Duration::from_secs(60)))?;
        let mut reader = BufReader::new(conn.try_clone()?);
        let mut writer = conn;
        let frame_len = u64::from(read_frame_len(&mut reader)?);
        if frame_len == 0 {
            return self.respond(&mut writer, Response::Err("empty request".into()));
        }
        let mut consumed = 0u64;
        let meta = match read_meta_stream(&mut reader, &mut consumed) {
            Ok(meta) => meta,
            Err(err @ WireError::Io(_)) => return Err(err),
            Err(err) => {
                return self.respond(
                    &mut writer,
                    Response::Err(format!("bad request meta: {err}")),
                )
            }
        };
        if consumed >= frame_len {
            return self.respond(&mut writer, Response::Err("truncated request".into()));
        }
        let mut verb = [0u8; 1];
        reader.read_exact(&mut verb)?;
        let verb = verb[0];
        consumed += 1;
        let body_len = frame_len - consumed;

        if verb == V_STATS {
            // Deliberately invisible to registry metrics, spans, and
            // the flight recorder: a scrape must observe the daemon, not
            // perturb it, so two idle scrapes return identical bytes.
            if body_len > 64 {
                return self.respond(&mut writer, Response::Err("stats request too large".into()));
            }
            let mut body = vec![0u8; body_len as usize];
            reader.read_exact(&mut body)?;
            let response = self.handle_stats(&body);
            return self.respond(&mut writer, response);
        }

        let tracing = self.config.trace_requests;
        let handle_started = Instant::now();
        let req_span = if tracing {
            let span = agave_telemetry::Span::enter_labeled("serve request", verb_name(verb));
            if span.id() != 0 {
                let popped_ns = agave_telemetry::now_ns();
                agave_telemetry::record_closed(
                    "queue wait",
                    verb_name(verb),
                    popped_ns.saturating_sub(queue_ns),
                    popped_ns,
                    span.id(),
                    0,
                );
            }
            Some(span)
        } else {
            None
        };

        let mut tenant = String::new();
        let mut bytes = 0u64;
        let mut cached = false;
        let mut is_shutdown = false;
        let response = match verb {
            V_UPLOAD => self.handle_upload(&mut reader, body_len, &mut tenant, &mut bytes),
            V_PING => {
                drain(&mut reader, body_len)?;
                Response::Ok(b"pong".to_vec())
            }
            V_LIST => {
                drain(&mut reader, body_len)?;
                Response::Ok(encode_sessions(&self.store.list()))
            }
            V_ANALYZE => {
                if body_len > MAX_CONTROL_FRAME {
                    Response::Err("request too large".into())
                } else {
                    let mut body = vec![0u8; body_len as usize];
                    reader.read_exact(&mut body)?;
                    match decode_analyze(&body) {
                        Ok((name, analysis)) => {
                            tenant = name.clone();
                            self.handle_analyze(&name, &analysis, &mut cached)
                        }
                        Err(err) => Response::Err(format!("bad analyze request: {err}")),
                    }
                }
            }
            V_SWEEP => {
                if body_len > MAX_CONTROL_FRAME {
                    Response::Err("request too large".into())
                } else {
                    let mut body = vec![0u8; body_len as usize];
                    reader.read_exact(&mut body)?;
                    match decode_sweep(&body) {
                        Ok((name, grid)) => {
                            tenant = name.clone();
                            self.handle_sweep(&name, &grid, &mut cached)
                        }
                        Err(err) => Response::Err(format!("bad sweep request: {err}")),
                    }
                }
            }
            V_SHUTDOWN => {
                drain(&mut reader, body_len)?;
                is_shutdown = true;
                Response::Ok(Vec::new())
            }
            other => Response::Err(format!("unknown verb 0x{other:02x}")),
        };
        if verb != V_UPLOAD {
            if let Response::Ok(body) = &response {
                bytes = body.len() as u64;
            }
        }
        let outcome = match &response {
            Response::Ok(_) => "ok",
            Response::Err(_) => "error",
            Response::Retry { .. } => "retry",
        };
        // Record *before* the response bytes go out: once a client sees
        // the reply it may immediately scrape STATS (possibly through a
        // different worker), and the contract is that every acknowledged
        // request is already visible in the counters, histograms, and
        // flight window. The handle phase therefore excludes the final
        // response write; a failed write still bumps the error counters
        // via the worker loop, but the client never saw that reply, so
        // no observer can catch the record out of order.
        if tracing {
            let handle_ns = handle_started.elapsed().as_nanos() as u64;
            self.record_request(
                &meta, verb, tenant, outcome, bytes, cached, queue_ns, handle_ns, depth,
            );
        }
        let result = self.respond(&mut writer, response);
        drop(req_span);
        result?;
        if is_shutdown {
            self.shutdown.store(true, Ordering::SeqCst);
            self.wake_acceptor();
        }
        Ok(())
    }

    /// Feeds one handled (non-STATS) request into the registry and the
    /// flight recorder. Registry updates are *not* gated on the global
    /// telemetry switch: they are a handful of relaxed atomics per
    /// request (nowhere near the simulation hot path), and they are
    /// what makes a plain `agave serve` scrapeable via STATS.
    #[allow(clippy::too_many_arguments)]
    fn record_request(
        &self,
        meta: &RequestMeta,
        verb: u8,
        tenant: String,
        outcome: &'static str,
        bytes: u64,
        cached: bool,
        queue_ns: u64,
        handle_ns: u64,
        depth: usize,
    ) {
        counter("serve.requests").incr();
        latency_histogram(verb).record(handle_ns / 1_000);
        histogram("serve.queue_wait").record(queue_ns / 1_000);
        histogram("serve.queue_depth").record(depth as u64);
        gauge("serve.queue").set(self.queue.len() as u64);
        self.flight.push(RequestRecord {
            seq: 0,
            id: meta.id,
            origin: meta.origin.clone(),
            verb: verb_name(verb),
            tenant,
            outcome,
            bytes,
            queue_ns,
            handle_ns,
            slow: false,
            cached,
        });
    }

    /// Answers a STATS request: a live snapshot of the registry
    /// (non-destructive — counters keep accumulating) plus, for JSON,
    /// the requested flight-recorder window under a `recent` key.
    /// Span logs are deliberately excluded: a soaking daemon's span log
    /// grows without bound and belongs to the exit capture, while the
    /// flight recorder carries the bounded per-request detail.
    fn handle_stats(&self, body: &[u8]) -> Response {
        let (format, recent, filter) = match decode_stats(body) {
            Ok(parsed) => parsed,
            Err(err) => return Response::Err(format!("bad stats request: {err}")),
        };
        let snapshot = TelemetrySnapshot {
            metrics: agave_telemetry::scrape(),
            spans: Vec::new(),
        };
        let text = match format {
            StatsFormat::Json => {
                let recent_json = self.flight.recent_json(recent as usize, filter);
                snapshot.to_json_with(&[("recent", recent_json)])
            }
            StatsFormat::Prom => snapshot.to_prometheus(),
        };
        Response::Ok(text.into_bytes())
    }

    fn respond(&self, writer: &mut TcpStream, response: Response) -> Result<(), WireError> {
        if matches!(response, Response::Err(_)) {
            self.stats.errors.fetch_add(1, Ordering::Relaxed);
        }
        write_frame(writer, &encode_response(&response))?;
        Ok(())
    }

    /// Streams an upload to the spool, validates it, registers the
    /// session. The trace bytes never exist in memory as a whole.
    /// Fills `tenant` with the session name and `bytes` with the
    /// ingested trace bytes (flight-recorder attribution).
    fn handle_upload<R: Read>(
        &self,
        reader: &mut R,
        body_len: u64,
        tenant: &mut String,
        bytes: &mut u64,
    ) -> Response {
        let mut consumed = 0u64;
        let name_len = match read_varint_stream(reader, &mut consumed) {
            Ok(v) => v,
            Err(err) => return Response::Err(format!("bad upload header: {err}")),
        };
        if name_len == 0 || name_len > MAX_NAME as u64 || name_len + consumed > body_len {
            return Response::Err("bad upload header: implausible name length".into());
        }
        let mut name = vec![0u8; name_len as usize];
        if reader.read_exact(&mut name).is_err() {
            return Response::Err("bad upload header: truncated name".into());
        }
        consumed += name_len;
        let name = match String::from_utf8(name) {
            Ok(n) => n,
            Err(_) => return Response::Err("bad upload header: name is not UTF-8".into()),
        };
        *tenant = name.clone();
        let trace_len = body_len - consumed;
        if trace_len == 0 {
            return Response::Err("empty upload".into());
        }
        let mut span = agave_telemetry::Span::enter_labeled("serve upload", &name);
        let path = self.store.spool_file(&name);
        match self.spool_and_validate(reader, trace_len, &path) {
            Ok(outcome) => {
                let info = SessionInfo {
                    name: name.clone(),
                    label: outcome.label,
                    file_bytes: trace_len,
                    records: outcome.records,
                    words: outcome.words,
                    chunks: outcome.record_chunks,
                };
                span.set_refs(outcome.words);
                let replaced = self.store.insert(SessionMeta {
                    info: info.clone(),
                    path,
                });
                if let Some(replaced) = replaced {
                    // No lookup can reach the replaced upload any more.
                    self.results.drop_upload(&replaced);
                }
                self.stats.uploads.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .bytes_ingested
                    .fetch_add(trace_len, Ordering::Relaxed);
                *bytes = trace_len;
                if self.config.trace_requests {
                    counter("serve.uploads").incr();
                    counter("serve.bytes_ingested").add(trace_len);
                    gauge("serve.active_sessions").set(self.store.len() as u64);
                }
                Response::Ok(encode_session(&info))
            }
            Err(err) => {
                std::fs::remove_file(&path).ok();
                Response::Err(format!("upload rejected: {err}"))
            }
        }
    }

    /// Copies exactly `trace_len` bytes to `path` (fixed-size buffer),
    /// then runs the checksum-walk validation.
    fn spool_and_validate<R: Read>(
        &self,
        reader: &mut R,
        trace_len: u64,
        path: &Path,
    ) -> Result<agave_replay::ValidateOutcome, String> {
        let file = std::fs::File::create(path).map_err(|e| format!("spool: {e}"))?;
        let mut out = BufWriter::new(file);
        let mut limited = reader.take(trace_len);
        let copied = io::copy(&mut limited, &mut out).map_err(|e| format!("spool: {e}"))?;
        out.flush().map_err(|e| format!("spool: {e}"))?;
        if copied != trace_len {
            return Err(format!(
                "connection closed after {copied} of {trace_len} bytes"
            ));
        }
        TraceBuffer::open(path)
            .and_then(|buf| buf.validate(self.config.decode_jobs))
            .map_err(|e| e.to_string())
    }

    /// Answers `spec` for `session` from the result cache, or renders it
    /// with `render` and stores the body. Sets `cached` on a hit.
    ///
    /// An analysis racing a re-upload of its session may store its entry
    /// after the replaced upload's entries were dropped. That entry is
    /// unreachable, since spool paths are never reused, and it ages out
    /// under the byte bound.
    fn cached_answer(
        &self,
        session: &SessionMeta,
        spec: String,
        cached: &mut bool,
        render: impl FnOnce() -> Result<String, String>,
    ) -> Result<Arc<[u8]>, String> {
        let key = (session.path.clone(), spec);
        if let Some(body) = self.results.get(&key) {
            *cached = true;
            return Ok(body);
        }
        let body: Arc<[u8]> = render()?.into_bytes().into();
        self.results.insert(key, Arc::clone(&body));
        Ok(body)
    }

    fn handle_analyze(&self, name: &str, analysis: &Analysis, cached: &mut bool) -> Response {
        let Some(session) = self.store.get(name) else {
            return Response::Err(format!("unknown session {name:?}; upload it first"));
        };
        let result = self.cached_answer(&session, analysis.to_string(), cached, || {
            let mut span = agave_telemetry::Span::enter_labeled("serve analyze", name);
            let json = analyze_trace_jobs(&session.path, analysis, self.config.decode_jobs)?;
            span.set_refs(session.info.words);
            Ok(json)
        });
        match result {
            Ok(body) => {
                self.stats.analyses.fetch_add(1, Ordering::Relaxed);
                if self.config.trace_requests {
                    counter("serve.analyses").incr();
                }
                Response::Ok(body.to_vec())
            }
            Err(err) => Response::Err(format!("analyze {name:?} ({analysis}): {err}")),
        }
    }

    /// Runs a design-space sweep against a stored session. The sweep
    /// fans out within one worker with `jobs = decode_jobs` (default 1
    /// — server concurrency comes from serving many requests, not from
    /// one request hogging every core) and the output is identical for
    /// any job count, so the served JSON equals a local
    /// `agave sweep --json`.
    fn handle_sweep(&self, name: &str, grid: &str, cached: &mut bool) -> Response {
        let Some(session) = self.store.get(name) else {
            return Response::Err(format!("unknown session {name:?}; upload it first"));
        };
        let result = self.cached_answer(&session, format!("sweep:{grid}"), cached, || {
            let mut span = agave_telemetry::Span::enter_labeled("serve sweep", name);
            let grid = GridSpec::parse(grid)?;
            let report = agave_analysis::sweep_path(&session.path, &grid, self.config.decode_jobs)?;
            span.set_refs(session.info.words);
            Ok(report.to_json())
        });
        match result {
            Ok(body) => {
                self.stats.analyses.fetch_add(1, Ordering::Relaxed);
                if self.config.trace_requests {
                    counter("serve.sweeps").incr();
                }
                Response::Ok(body.to_vec())
            }
            Err(err) => Response::Err(format!("sweep {name:?} ({grid}): {err}")),
        }
    }
}

/// The per-verb handle-time histogram (values in microseconds). The
/// registry keys metrics by `&'static str`, so each verb maps to its
/// own literal name.
fn latency_histogram(verb: u8) -> &'static Histogram {
    match verb {
        V_UPLOAD => histogram("serve.latency.upload"),
        V_LIST => histogram("serve.latency.list"),
        V_ANALYZE => histogram("serve.latency.analyze"),
        V_PING => histogram("serve.latency.ping"),
        V_SHUTDOWN => histogram("serve.latency.shutdown"),
        V_SWEEP => histogram("serve.latency.sweep"),
        _ => histogram("serve.latency.unknown"),
    }
}

/// Reads and discards `len` request-body bytes (verbs with no body
/// still must consume their frame before the response goes out).
fn drain<R: Read>(reader: &mut R, len: u64) -> Result<(), WireError> {
    io::copy(&mut reader.take(len), &mut io::sink())?;
    Ok(())
}

/// Runs one analysis against an on-disk trace and renders the JSON the
/// server ships back. Shared by the server and by tests/benches that
/// check byte-identity against local replay.
///
/// The wire [`Analysis`]'s `Display` form *is* its registry spec
/// (`summary`, `cache:<geometry>`, `sketch`), so this is a one-line
/// delegate into [`agave_analysis::analyze_path`] — the same entry
/// point `agave replay` resolves through, which is what makes served
/// responses byte-identical to local replay by construction.
pub fn analyze_trace(path: &Path, analysis: &Analysis) -> Result<String, String> {
    analyze_trace_jobs(path, analysis, 1)
}

/// [`analyze_trace`] with an explicit decode-thread count (the server
/// passes its configured `decode_jobs`). Output is identical for any
/// `jobs` — the parallel reader merges chunks in order.
pub fn analyze_trace_jobs(path: &Path, analysis: &Analysis, jobs: usize) -> Result<String, String> {
    agave_analysis::analyze_path(path, &analysis.to_string(), jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(path: &str, spec: &str) -> ResultKey {
        (PathBuf::from(path), spec.to_owned())
    }

    /// A body that makes `key(path, spec)` cost exactly `cost` bytes.
    fn body(path: &str, spec: &str, cost: usize) -> Arc<[u8]> {
        vec![b'x'; cost - path.len() - spec.len()].into()
    }

    fn held(cache: &ResultCache) -> usize {
        let state = cache.lock();
        assert_eq!(state.lru.len(), state.entries.len());
        let sum = state
            .entries
            .iter()
            .map(|(k, (b, _))| entry_cost(k, b))
            .sum();
        assert_eq!(state.bytes, sum, "the byte total must match the entries");
        sum
    }

    #[test]
    fn result_cache_never_holds_more_than_its_budget() {
        let cache = ResultCache::new(1_000, false);
        let mut rng = agave_trace::XorShift64::new(7);
        for i in 0..500 {
            let (path, spec) = (format!("p{}", rng.index(20)), format!("s{i}"));
            let cost = path.len() + spec.len() + 1 + rng.index(300);
            cache.insert(key(&path, &spec), body(&path, &spec, cost));
            assert!(held(&cache) <= 1_000);
        }
    }

    #[test]
    fn result_cache_evicts_least_recently_used_first() {
        let cache = ResultCache::new(300, false);
        for spec in ["a", "b", "c"] {
            cache.insert(key("p", spec), body("p", spec, 100));
        }
        assert_eq!(held(&cache), 300);
        assert!(cache.get(&key("p", "a")).is_some(), "a is now the newest");
        cache.insert(key("p", "d"), body("p", "d", 100));
        assert!(cache.get(&key("p", "b")).is_none(), "b was least recent");
        cache.insert(key("p", "e"), body("p", "e", 150));
        assert!(cache.get(&key("p", "c")).is_none());
        assert!(cache.get(&key("p", "a")).is_none());
        assert!(cache.get(&key("p", "d")).is_some());
        assert!(cache.get(&key("p", "e")).is_some());
        assert_eq!(held(&cache), 250);
    }

    #[test]
    fn result_cache_does_not_store_a_body_larger_than_its_budget() {
        let cache = ResultCache::new(300, false);
        cache.insert(key("p", "a"), body("p", "a", 100));
        cache.insert(key("p", "big"), body("p", "big", 301));
        assert!(cache.get(&key("p", "big")).is_none());
        assert!(
            cache.get(&key("p", "a")).is_some(),
            "nothing was evicted for it"
        );
        cache.insert(key("p", "fits"), body("p", "fits", 200));
        assert_eq!(held(&cache), 300);
    }

    #[test]
    fn dropping_an_upload_frees_its_entries_bytes() {
        let cache = ResultCache::new(1_000, false);
        for spec in ["summary", "sketch", "sweep:size=1k"] {
            cache.insert(key("old", spec), body("old", spec, 100));
            cache.insert(key("new", spec), body("new", spec, 100));
        }
        assert_eq!(held(&cache), 600);
        cache.drop_upload(Path::new("old"));
        assert_eq!(held(&cache), 300);
        assert!(cache.get(&key("old", "summary")).is_none());
        assert!(cache.get(&key("new", "summary")).is_some());
    }
}
