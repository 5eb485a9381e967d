//! The flight recorder: a bounded ring of recent request records.
//!
//! A soaking daemon needs "what just happened" answerable without logs:
//! the last N requests, who sent them, how long they queued and ran,
//! and which ones went wrong. The recorder keeps two fixed-capacity
//! rings:
//!
//! - the **main ring** (`--flight-capacity`, default 1024) sees every
//!   handled request and overwrites oldest-first;
//! - the **notable ring** (a quarter of the capacity) sees only error
//!   and slow requests, so under a flood of healthy traffic the
//!   interesting entries survive far longer than their share of the
//!   main ring — the "retained preferentially" policy `STATS --recent`
//!   filters rely on.
//!
//! Writers never take a global lock: a slot is claimed with one atomic
//! ticket `fetch_add`, then filled under that slot's own mutex. A slot
//! only accepts a record newer than what it holds, so late writers
//! can't roll a slot backwards; after writers quiesce each slot holds
//! the newest record hashed to it, i.e. the ring holds exactly the
//! last `capacity` requests. Readers (the `STATS` verb) lock slots one
//! at a time and sort by the global sequence number.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One handled request, as recorded by the server worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestRecord {
    /// Recorder-assigned global sequence number (newest = highest).
    pub seq: u64,
    /// The client-stamped monotonic request id.
    pub id: u64,
    /// The client-stamped origin tag (e.g. `agave/12345`).
    pub origin: String,
    /// The request verb name (`upload`, `analyze`, …).
    pub verb: &'static str,
    /// Session name the request targeted (empty for LIST/PING/…).
    pub tenant: String,
    /// `ok`, `error`, or `retry`.
    pub outcome: &'static str,
    /// Payload bytes: trace bytes ingested for uploads, response body
    /// bytes for everything else.
    pub bytes: u64,
    /// Nanoseconds spent waiting in the accept queue.
    pub queue_ns: u64,
    /// Nanoseconds spent handling (read + work + respond).
    pub handle_ns: u64,
    /// Whether `handle_ns` crossed the server's `--slow-ms` threshold.
    pub slow: bool,
    /// Whether the answer came from the server's result cache.
    pub cached: bool,
}

impl RequestRecord {
    /// Renders one record as a JSON object (the `recent` array element).
    pub fn to_json(&self) -> String {
        agave_trace::json::Object::new()
            .field_u64("seq", self.seq)
            .field_u64("id", self.id)
            .field_str("origin", &self.origin)
            .field_str("verb", self.verb)
            .field_str("tenant", &self.tenant)
            .field_str("outcome", self.outcome)
            .field_u64("bytes", self.bytes)
            .field_u64("queue_ns", self.queue_ns)
            .field_u64("handle_ns", self.handle_ns)
            .field_bool("slow", self.slow)
            .field_bool("cached", self.cached)
            .finish()
    }
}

/// Which records a `STATS --recent` query wants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecentFilter {
    /// Everything the main ring still holds.
    All,
    /// Error outcomes only (from the notable ring).
    Errors,
    /// Slow requests only (from the notable ring).
    Slow,
    /// Errors and slow requests (the whole notable ring).
    Notable,
}

impl RecentFilter {
    /// The filter byte on the wire.
    pub fn code(self) -> u8 {
        match self {
            RecentFilter::All => 0,
            RecentFilter::Errors => 1,
            RecentFilter::Slow => 2,
            RecentFilter::Notable => 3,
        }
    }

    /// Parses a wire filter byte.
    pub fn from_code(code: u8) -> Option<RecentFilter> {
        match code {
            0 => Some(RecentFilter::All),
            1 => Some(RecentFilter::Errors),
            2 => Some(RecentFilter::Slow),
            3 => Some(RecentFilter::Notable),
            _ => None,
        }
    }
}

/// One fixed-capacity ring: ticket-claimed slots, each behind its own
/// mutex (never a global lock; writers to different slots don't touch).
struct Ring {
    slots: Vec<Mutex<Option<RequestRecord>>>,
    next_ticket: AtomicU64,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        Ring {
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
            next_ticket: AtomicU64::new(0),
        }
    }

    fn store(&self, record: RequestRecord) {
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        let mut held = slot.lock().expect("flight slot poisoned");
        // Never roll a slot backwards: a delayed writer with an older
        // sequence number must not clobber a newer record.
        if held.as_ref().is_none_or(|h| h.seq < record.seq) {
            *held = Some(record);
        }
    }

    fn collect(&self, keep: impl Fn(&RequestRecord) -> bool) -> Vec<RequestRecord> {
        self.slots
            .iter()
            .filter_map(|s| s.lock().expect("flight slot poisoned").clone())
            .filter(keep)
            .collect()
    }
}

/// The bounded request flight recorder. See the module docs.
pub struct FlightRecorder {
    all: Ring,
    notable: Ring,
    next_seq: AtomicU64,
    slow_ns: u64,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` requests, plus a
    /// `capacity / 4` (min 8) notable ring for errors and requests
    /// slower than `slow_ns`.
    pub fn new(capacity: usize, slow_ns: u64) -> FlightRecorder {
        FlightRecorder {
            all: Ring::new(capacity),
            notable: Ring::new((capacity / 4).max(8)),
            next_seq: AtomicU64::new(1),
            slow_ns,
        }
    }

    /// The slow-request threshold in nanoseconds.
    pub fn slow_ns(&self) -> u64 {
        self.slow_ns
    }

    /// Records one handled request. `record.seq` and `record.slow` are
    /// assigned here; callers fill everything else.
    pub fn push(&self, mut record: RequestRecord) {
        record.seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        record.slow = record.handle_ns >= self.slow_ns;
        let notable = record.slow || record.outcome != "ok";
        if notable {
            self.notable.store(record.clone());
        }
        self.all.store(record);
    }

    /// The newest `n` records matching `filter`, newest first.
    pub fn recent(&self, n: usize, filter: RecentFilter) -> Vec<RequestRecord> {
        let mut records = match filter {
            RecentFilter::All => self.all.collect(|_| true),
            RecentFilter::Errors => self.notable.collect(|r| r.outcome != "ok"),
            RecentFilter::Slow => self.notable.collect(|r| r.slow),
            RecentFilter::Notable => self.notable.collect(|_| true),
        };
        records.sort_by_key(|r| std::cmp::Reverse(r.seq));
        records.truncate(n);
        records
    }

    /// Renders the newest `n` matching records as a JSON array.
    pub fn recent_json(&self, n: usize, filter: RecentFilter) -> String {
        agave_trace::json::array(self.recent(n, filter).iter().map(RequestRecord::to_json))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, outcome: &'static str, handle_ns: u64) -> RequestRecord {
        RequestRecord {
            seq: 0,
            id,
            origin: "test/1".to_string(),
            verb: "analyze",
            tenant: "sess".to_string(),
            outcome,
            bytes: 10,
            queue_ns: 5,
            handle_ns,
            slow: false,
            cached: false,
        }
    }

    #[test]
    fn ring_stays_bounded_and_ordered_under_concurrent_writers() {
        let recorder = FlightRecorder::new(64, u64::MAX);
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let recorder = &recorder;
                scope.spawn(move || {
                    for i in 0..500 {
                        recorder.push(record(t * 1000 + i, "ok", 1));
                    }
                });
            }
        });
        let recent = recorder.recent(usize::MAX, RecentFilter::All);
        assert_eq!(recent.len(), 64, "ring must stay at capacity");
        for pair in recent.windows(2) {
            assert!(pair[0].seq > pair[1].seq, "newest-first, strictly ordered");
        }
        // With the never-roll-backwards guard, quiesced content is
        // exactly the newest `capacity` sequence numbers.
        let total = 8 * 500;
        for r in &recent {
            assert!(r.seq > total - 64, "seq {} evicted too early", r.seq);
        }
        assert_eq!(recorder.recent(5, RecentFilter::All).len(), 5);
    }

    #[test]
    fn errors_and_slow_requests_are_retained_preferentially() {
        let slow_ns = 1_000_000;
        let recorder = FlightRecorder::new(32, slow_ns);
        recorder.push(record(1, "error", 10));
        recorder.push(record(2, "ok", slow_ns + 5));
        // A flood of fast, healthy traffic rolls the main ring over.
        for i in 0..200 {
            recorder.push(record(100 + i, "ok", 1));
        }
        let all = recorder.recent(usize::MAX, RecentFilter::All);
        assert!(
            all.iter().all(|r| r.outcome == "ok" && !r.slow),
            "main ring rolled past the notable entries"
        );
        let errors = recorder.recent(10, RecentFilter::Errors);
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].id, 1);
        let slow = recorder.recent(10, RecentFilter::Slow);
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].id, 2);
        assert!(slow[0].slow, "push must stamp the slow bit");
        let notable = recorder.recent(10, RecentFilter::Notable);
        assert_eq!(notable.len(), 2);
        assert_eq!(notable[0].id, 2, "newest notable first");
    }

    #[test]
    fn records_render_as_json() {
        let recorder = FlightRecorder::new(8, 1000);
        recorder.push(record(42, "ok", 2000));
        let json = recorder.recent_json(8, RecentFilter::All);
        assert!(json.starts_with("[{\"seq\":1,\"id\":42,"), "json: {json}");
        assert!(json.contains("\"verb\":\"analyze\""));
        assert!(json.contains("\"slow\":true,\"cached\":false}"));
        assert_eq!(recorder.recent_json(0, RecentFilter::All), "[]");
    }

    #[test]
    fn filter_codes_round_trip() {
        for f in [
            RecentFilter::All,
            RecentFilter::Errors,
            RecentFilter::Slow,
            RecentFilter::Notable,
        ] {
            assert_eq!(RecentFilter::from_code(f.code()), Some(f));
        }
        assert_eq!(RecentFilter::from_code(9), None);
    }
}
