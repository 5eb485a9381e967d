//! Streaming `.agtrace` capture.
//!
//! [`TraceWriter`] is a [`ReferenceSink`]: registered on a run via the
//! normal sink API (`agave_core::engine::run_traced`), it observes the
//! classified reference stream batch-by-batch and streams delta-coded
//! chunks through any [`Write`] — a `BufWriter<File>` in the CLI, a
//! `Vec<u8>` in tests.
//!
//! Encoding is pipelined (DESIGN.md §12, "Capture pipeline"): delivery
//! copies each batch into one of a few recycled buffers and hands it to
//! one encoder thread the writer owns. That thread runs the delta
//! coder, chunk sealing, checksums and output in arrival order, so the
//! file is byte-identical to encoding inline while the simulation no
//! longer waits for any of it.
//!
//! Because [`ReferenceSink::on_batch`] cannot return errors, I/O
//! failures during the run are *sticky*: the encoder stops consuming and
//! the stored error comes back from [`TraceWriter::finish`], which joins
//! the encoder and then seals the file with the directory footer
//! (name/process/thread tables, the boot-baseline counter snapshot, and
//! whole-file totals).

use crate::codec::{put_varint, Checksum, CoderState};
use crate::format::{
    TraceError, CHUNK_RECORDS, MAGIC, MAX_CHUNK_RECORDS, TAG_DIRECTORY, TAG_RECORDS, VERSION,
};
use agave_trace::{CounterSnapshot, NameDirectory, Reference, ReferenceSink, Tracer};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::JoinHandle;

/// Hand-off buffers a writer allocates besides the one being filled,
/// and so the most batches queued for or being encoded by the encoder
/// thread: delivery takes a spare before each send. All `IN_FLIGHT + 1`
/// buffers together hold 160 KiB of references.
const IN_FLIGHT: usize = 4;

/// References per hand-off: one full tracer sink batch.
const HANDOFF_RECORDS: usize = Tracer::SINK_BATCH;

/// What one finished recording produced, for logs and benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Reference blocks written.
    pub records: u64,
    /// Total words those blocks span.
    pub words: u64,
    /// Sealed chunks (records chunks only, not the footer).
    pub chunks: u64,
    /// Total bytes written to the output, header and footer included.
    pub file_bytes: u64,
}

impl TraceStats {
    /// Compression ratio: file bytes per reference block.
    pub fn bytes_per_record(&self) -> f64 {
        if self.records == 0 {
            return 0.0;
        }
        self.file_bytes as f64 / self.records as f64
    }
}

/// A [`ReferenceSink`] that captures the stream it observes into the
/// `.agtrace` binary format, encoding on a thread of its own.
pub struct TraceWriter<W: Write + Send + 'static> {
    /// References delivered since the last hand-off.
    fill: Vec<Reference>,
    /// The running encoder thread; `None` once joined. Deliveries after
    /// the join (an encoder that hung up on an error, or `finish`) are
    /// dropped.
    pipe: Option<Pipe<W>>,
    /// The encoder, back on this thread after the join: it seals the
    /// last chunk and the footer, then holds the output.
    joined: Option<Encoder<W>>,
    finished: bool,
}

/// The writer's end of the hand-off.
struct Pipe<W> {
    batches: Sender<Vec<Reference>>,
    /// Encoded batches' buffers, emptied and sent back for reuse.
    spares: Receiver<Vec<Reference>>,
    /// Hand-off buffers allocated so far, at most [`IN_FLIGHT`].
    allocated: usize,
    thread: JoinHandle<Encoder<W>>,
}

impl<W> Pipe<W> {
    /// A buffer to fill next: a recycled one, a new one while fewer
    /// than [`IN_FLIGHT`] exist, or else the next one the encoder
    /// returns. `None` once the encoder has hung up.
    fn spare(&mut self) -> Option<Vec<Reference>> {
        if let Ok(buf) = self.spares.try_recv() {
            return Some(buf);
        }
        if self.allocated < IN_FLIGHT {
            self.allocated += 1;
            return Some(Vec::with_capacity(HANDOFF_RECORDS));
        }
        self.spares.recv().ok()
    }
}

/// The encoding state: delta coder, chunk assembly and output. It runs
/// on the encoder thread and comes back to the writer's thread at the
/// join to write the footer.
struct Encoder<W> {
    out: W,
    /// Delta-coded bytes of the chunk being assembled.
    body: Vec<u8>,
    chunk_records: u64,
    /// Records per sealed chunk ([`CHUNK_RECORDS`] unless configured).
    chunk_capacity: usize,
    /// Reusable frame buffer: each sealed chunk is assembled here and
    /// written with a single `write_all`, so the steady state allocates
    /// nothing per chunk.
    frame: Vec<u8>,
    coder: CoderState,
    records: u64,
    words: u64,
    chunks: u64,
    file_bytes: u64,
    error: Option<TraceError>,
}

impl TraceWriter<BufWriter<File>> {
    /// Creates `path` and writes the trace header for `label`.
    pub fn create(path: &Path, label: &str) -> Result<Self, TraceError> {
        TraceWriter::new(BufWriter::new(File::create(path)?), label)
    }

    /// [`TraceWriter::create`] with an explicit chunk size (see
    /// [`TraceWriter::with_chunk_records`]).
    pub fn create_chunked(
        path: &Path,
        label: &str,
        chunk_records: usize,
    ) -> Result<Self, TraceError> {
        TraceWriter::with_chunk_records(BufWriter::new(File::create(path)?), label, chunk_records)
    }
}

impl<W: Write + Send + 'static> TraceWriter<W> {
    /// Wraps `out` and immediately writes the header for `label` (the
    /// workload the trace captures). Chunks seal at the default
    /// [`CHUNK_RECORDS`].
    pub fn new(out: W, label: &str) -> Result<Self, TraceError> {
        TraceWriter::with_chunk_records(out, label, CHUNK_RECORDS)
    }

    /// Like [`TraceWriter::new`], but seals a chunk every
    /// `chunk_records` records (clamped to `1..=`[`MAX_CHUNK_RECORDS`]).
    /// Chunks are the unit of parallel decode and of corruption
    /// containment, so this is the recording-time knob for that trade:
    /// smaller chunks parallelize and contain damage better, larger
    /// chunks amortize framing and delta-coder warmup.
    ///
    /// Starts the writer's encoder thread; failing to spawn it is an
    /// [`TraceError::Io`].
    pub fn with_chunk_records(
        mut out: W,
        label: &str,
        chunk_records: usize,
    ) -> Result<Self, TraceError> {
        let chunk_capacity = chunk_records.clamp(1, MAX_CHUNK_RECORDS);
        let mut header = Vec::with_capacity(16 + label.len());
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        put_varint(&mut header, label.len() as u64);
        header.extend_from_slice(label.as_bytes());
        out.write_all(&header)?;
        let encoder = Encoder {
            out,
            body: Vec::with_capacity(chunk_capacity.min(CHUNK_RECORDS * 2) * 4),
            chunk_records: 0,
            chunk_capacity,
            frame: Vec::new(),
            coder: CoderState::new(),
            records: 0,
            words: 0,
            chunks: 0,
            file_bytes: header.len() as u64,
            error: None,
        };
        let (batches, inbox) = mpsc::channel();
        let (recycle, spares) = mpsc::channel();
        let thread = std::thread::Builder::new()
            .name("agtrace-encode".to_owned())
            .spawn(move || encoder.run(inbox, recycle))?;
        Ok(TraceWriter {
            fill: Vec::with_capacity(HANDOFF_RECORDS),
            pipe: Some(Pipe {
                batches,
                spares,
                allocated: 0,
                thread,
            }),
            joined: None,
            finished: false,
        })
    }

    /// Appends one reference block. I/O errors are stored and reported
    /// from [`TraceWriter::finish`].
    pub fn append(&mut self, r: &Reference) {
        self.deliver(std::slice::from_ref(r));
    }

    /// Copies `refs` into the fill buffer, handing it to the encoder
    /// each time it holds a full batch.
    fn deliver(&mut self, mut refs: &[Reference]) {
        while !refs.is_empty() && self.pipe.is_some() {
            let take = refs.len().min(HANDOFF_RECORDS - self.fill.len());
            self.fill.extend_from_slice(&refs[..take]);
            refs = &refs[take..];
            if self.fill.len() == HANDOFF_RECORDS {
                self.hand_off();
            }
        }
    }

    /// Sends the fill buffer to the encoder and takes a spare in its
    /// place. An encoder that hung up is joined at once: its error waits
    /// for `finish`, its panic resumes here.
    fn hand_off(&mut self) {
        let pipe = self.pipe.as_mut().expect("the encoder runs until finish");
        let sent = match pipe.spare() {
            Some(spare) => pipe
                .batches
                .send(std::mem::replace(&mut self.fill, spare))
                .is_ok(),
            None => false,
        };
        if !sent {
            self.fill = Vec::new();
            self.join();
        }
    }

    /// Hands off the partial batch, hangs up, and joins the encoder
    /// once it has drained every queued batch. An encoder panic resumes
    /// here, on the writer's thread.
    fn join(&mut self) -> &mut Encoder<W> {
        if let Some(pipe) = self.pipe.take() {
            if !self.fill.is_empty() {
                pipe.batches.send(std::mem::take(&mut self.fill)).ok();
            }
            drop(pipe.batches);
            match pipe.thread.join() {
                Ok(encoder) => self.joined = Some(encoder),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        self.joined.as_mut().expect("encoder joined")
    }

    /// Joins the encoder, seals any pending records, writes the
    /// directory footer, and flushes the output.
    ///
    /// `directory` is the end-of-run [`NameDirectory`] (the same one the
    /// live run hands to report builders); `baseline` is the counter
    /// snapshot taken when this writer was attached, i.e. the charges
    /// that predate the recorded stream. Returns the recording's
    /// [`TraceStats`], or the first error the writer hit — including any
    /// I/O error swallowed during [`ReferenceSink::on_batch`] delivery.
    /// Panics if the encoder thread panicked.
    pub fn finish(
        &mut self,
        directory: &NameDirectory,
        baseline: &CounterSnapshot,
    ) -> Result<TraceStats, TraceError> {
        assert!(!self.finished, "TraceWriter::finish called twice");
        self.finished = true;
        self.join().finish(directory, baseline)
    }

    /// Consumes the writer and returns the underlying output (e.g. the
    /// `Vec<u8>` buffer in tests). Only meaningful after
    /// [`TraceWriter::finish`].
    pub fn into_output(mut self) -> W {
        self.join();
        self.joined.take().expect("encoder joined").out
    }
}

impl<W: Write> Encoder<W> {
    /// The encoder thread: encodes batches in arrival order and returns
    /// their buffers, until the writer hangs up or the output fails.
    fn run(mut self, batches: Receiver<Vec<Reference>>, recycle: Sender<Vec<Reference>>) -> Self {
        for mut batch in batches {
            self.encode_batch(&batch);
            if self.error.is_some() {
                // Hanging up tells the writer to stop delivering.
                break;
            }
            batch.clear();
            // A spare nobody takes back is freed with the channel.
            recycle.send(batch).ok();
        }
        self
    }

    fn encode_batch(&mut self, batch: &[Reference]) {
        // Telemetry gate once per hand-off batch, not per record. The
        // time counted is the encoder thread's, off the simulation's
        // path; what delivery costs the simulation is
        // `trace.sink_delivery_ns`.
        if !agave_telemetry::enabled() {
            for r in batch {
                self.append(r);
            }
            return;
        }
        use agave_telemetry::metrics::{Counter, Histogram};
        use std::sync::OnceLock;
        static ENCODE_NS: OnceLock<&'static Counter> = OnceLock::new();
        static ENCODE_RECORDS: OnceLock<&'static Counter> = OnceLock::new();
        static BATCH_ENCODE_NS: OnceLock<&'static Histogram> = OnceLock::new();
        let start = std::time::Instant::now();
        for r in batch {
            self.append(r);
        }
        let ns = start.elapsed().as_nanos() as u64;
        ENCODE_NS
            .get_or_init(|| agave_telemetry::metrics::counter("replay.encode_ns"))
            .add(ns);
        ENCODE_RECORDS
            .get_or_init(|| agave_telemetry::metrics::counter("replay.encode_records"))
            .add(batch.len() as u64);
        BATCH_ENCODE_NS
            .get_or_init(|| agave_telemetry::metrics::histogram("replay.batch_encode_ns"))
            .record(ns);
    }

    /// Appends one reference block, sealing a chunk when full. I/O
    /// errors are stored and reported from [`Encoder::finish`].
    fn append(&mut self, r: &Reference) {
        if self.error.is_some() {
            return;
        }
        self.coder.encode(r, &mut self.body);
        self.chunk_records += 1;
        self.records += 1;
        self.words += r.words;
        if self.chunk_records as usize >= self.chunk_capacity {
            if let Err(e) = self.seal_chunk() {
                self.error = Some(e);
            }
        }
    }

    /// Writes the assembled chunk as `tag · len · payload · checksum`
    /// and resets the coder for the next chunk.
    fn seal_chunk(&mut self) -> Result<(), TraceError> {
        if self.chunk_records == 0 {
            return Ok(());
        }
        let mut count = Vec::with_capacity(10);
        put_varint(&mut count, self.chunk_records);
        let body = std::mem::take(&mut self.body);
        let sealed = self.write_chunk_parts(TAG_RECORDS, &[&count, &body]);
        self.body = body;
        self.body.clear();
        sealed?;
        self.chunk_records = 0;
        self.coder = CoderState::new();
        self.chunks += 1;
        Ok(())
    }

    /// Frames `parts` (concatenated) as one chunk under `tag`, assembled
    /// in the reusable frame buffer and written with one `write_all`.
    fn write_chunk_parts(&mut self, tag: u8, parts: &[&[u8]]) -> Result<(), TraceError> {
        let payload_len: usize = parts.iter().map(|p| p.len()).sum();
        self.frame.clear();
        self.frame.reserve(payload_len + 16);
        self.frame.push(tag);
        put_varint(&mut self.frame, payload_len as u64);
        let mut check = Checksum::new();
        check.update(&[tag]);
        for part in parts {
            self.frame.extend_from_slice(part);
            check.update(part);
        }
        self.frame.extend_from_slice(&check.finish().to_le_bytes());
        self.out.write_all(&self.frame)?;
        self.file_bytes += self.frame.len() as u64;
        Ok(())
    }

    /// [`TraceWriter::finish`] once the encoder is joined: reports the
    /// stored error, or seals the last chunk and writes the footer.
    fn finish(
        &mut self,
        directory: &NameDirectory,
        baseline: &CounterSnapshot,
    ) -> Result<TraceStats, TraceError> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.seal_chunk()?;

        let mut footer = Vec::new();
        let names = directory.names();
        put_varint(&mut footer, names.len() as u64);
        for (_, name) in names.iter() {
            put_varint(&mut footer, name.len() as u64);
            footer.extend_from_slice(name.as_bytes());
        }
        put_varint(&mut footer, directory.process_count() as u64);
        for p in 0..directory.process_count() {
            let pid = agave_trace::Pid::from_raw(p as u32);
            put_varint(&mut footer, directory.process_name_id(pid).index() as u64);
        }
        put_varint(&mut footer, directory.thread_count() as u64);
        for t in 0..directory.thread_count() {
            let rec = directory.thread(agave_trace::Tid::from_raw(t as u32));
            put_varint(&mut footer, u64::from(rec.pid.as_u32()));
            put_varint(&mut footer, rec.name.index() as u64);
            put_varint(&mut footer, rec.canonical.index() as u64);
        }
        put_varint(&mut footer, baseline.entries.len() as u64);
        for e in &baseline.entries {
            put_varint(&mut footer, u64::from(e.tid.as_u32()));
            put_varint(&mut footer, e.region.index() as u64);
            for &c in &e.counts {
                put_varint(&mut footer, c);
            }
        }
        put_varint(&mut footer, self.records);
        put_varint(&mut footer, self.words);
        self.write_chunk_parts(TAG_DIRECTORY, &[&footer])?;
        self.out.flush()?;
        Ok(TraceStats {
            records: self.records,
            words: self.words,
            chunks: self.chunks,
            file_bytes: self.file_bytes,
        })
    }
}

impl<W: Write + Send + 'static> ReferenceSink for TraceWriter<W> {
    fn on_reference(&mut self, r: &Reference) {
        self.append(r);
    }

    fn on_batch(&mut self, batch: &[Reference]) {
        self.deliver(batch);
    }
}

impl<W: Write + Send + 'static> Drop for TraceWriter<W> {
    /// Hangs up and joins the encoder, so no thread outlives its writer.
    /// An unfinished writer's partial batch is discarded: without a
    /// footer the output is not a trace anyway. An encoder panic is not
    /// raised again here (its message is already on stderr); it
    /// propagates from a delivery or from [`TraceWriter::finish`].
    fn drop(&mut self) {
        if let Some(pipe) = self.pipe.take() {
            drop(pipe.batches);
            pipe.thread.join().ok();
        }
    }
}

impl<W: Write + Send + 'static> std::fmt::Debug for TraceWriter<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceWriter")
            .field("pending", &self.fill.len())
            .field("encoding", &self.pipe.is_some())
            .field("finished", &self.finished)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agave_trace::{NameId, Pid, RefKind, Tid};
    use std::io;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    /// Runs `f` on its own thread and fails the test if it blocks past
    /// a generous deadline, instead of hanging the test binary.
    fn within_deadline<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        let worker = std::thread::spawn(move || tx.send(f()).ok());
        match rx.recv_timeout(Duration::from_secs(30)) {
            Ok(out) => {
                worker.join().expect("worker exits after sending");
                out
            }
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("blocked past the deadline"),
            Err(mpsc::RecvTimeoutError::Disconnected) => match worker.join() {
                Err(panic) => std::panic::resume_unwind(panic),
                Ok(_) => unreachable!("the worker sends unless it panics"),
            },
        }
    }

    fn stream(len: u64) -> Vec<Reference> {
        (0..len)
            .map(|i| Reference {
                pid: Pid::from_raw(0),
                tid: Tid::from_raw((i % 3) as u32),
                region: NameId::from_raw((i % 5) as u32),
                kind: RefKind::DataRead,
                addr: 0x1000 + 64 * i,
                words: 1 + i % 4,
            })
            .collect()
    }

    /// Accepts `left` bytes, then fails every write; flags its drop.
    struct FailAfter {
        left: usize,
        dropped: Arc<AtomicBool>,
    }

    impl Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.left == 0 {
                return Err(io::Error::other("device full"));
            }
            let n = buf.len().min(self.left);
            self.left -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Drop for FailAfter {
        fn drop(&mut self) {
            self.dropped.store(true, Ordering::SeqCst);
        }
    }

    #[test]
    fn failing_output_surfaces_from_finish_without_blocking_delivery() {
        let refs = stream(200_000);
        let result = within_deadline(move || {
            let dropped = Arc::new(AtomicBool::new(false));
            let out = FailAfter {
                left: 3000,
                dropped: dropped.clone(),
            };
            let mut w = TraceWriter::with_chunk_records(out, "failing", 512).unwrap();
            for batch in refs.chunks(Tracer::SINK_BATCH) {
                w.on_batch(batch);
            }
            let result = w.finish(&Tracer::new().name_directory(), &CounterSnapshot::default());
            drop(w);
            assert!(
                dropped.load(Ordering::SeqCst),
                "encoder outlived its writer"
            );
            result
        });
        match result {
            Err(TraceError::Io(e)) => assert_eq!(e.to_string(), "device full"),
            other => panic!("expected the sticky I/O error, got {other:?}"),
        }
    }

    #[test]
    fn dropping_an_unfinished_writer_joins_its_encoder() {
        let dropped = Arc::new(AtomicBool::new(false));
        let flag = dropped.clone();
        within_deadline(move || {
            let out = FailAfter {
                left: usize::MAX,
                dropped: flag,
            };
            let mut w = TraceWriter::new(out, "abandoned").unwrap();
            for batch in stream(50_000).chunks(700) {
                w.on_batch(batch);
            }
            drop(w);
        });
        assert!(
            dropped.load(Ordering::SeqCst),
            "encoder outlived its writer"
        );
    }

    /// Panics on the first write after the header.
    struct PanicAfterHeader(bool);

    impl Write for PanicAfterHeader {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            assert!(!self.0, "output exploded");
            self.0 = true;
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn encoder_panic_propagates_to_the_writers_thread() {
        let panic = std::panic::catch_unwind(|| {
            let out = PanicAfterHeader(false);
            let mut w = TraceWriter::with_chunk_records(out, "boom", 16).unwrap();
            for batch in stream(5_000).chunks(Tracer::SINK_BATCH) {
                w.on_batch(batch);
            }
            w.finish(&Tracer::new().name_directory(), &CounterSnapshot::default())
        })
        .expect_err("the writer must not return after its encoder panicked");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"output exploded"));
    }
}
