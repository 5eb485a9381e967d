//! Benchmark-side measurement: order statistics, the timing wrapper
//! around attached sinks, the span ledger of a traced run, and the
//! process-level readings (peak RSS, output digests).

use agave_trace::{json, Reference, ReferenceSink, SharedSink};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Times one slice of a fixed CPU kernel and returns its rate in
/// kernel iterations per second: a random read-modify-write walk over
/// a 256 KiB table, the mix of integer work and cache traffic the
/// simulator and the cache models do. The benchmark's yardstick for
/// the host's speed at the moment; no workspace code runs in it.
pub fn calibration_rate() -> f64 {
    const ITERS: u64 = 400_000;
    let mut table = vec![0u64; 1 << 15];
    let mask = table.len() - 1;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let start = Instant::now();
    for _ in 0..ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x as usize) & mask;
        table[j] = table[j].wrapping_add(x).rotate_left(5);
        x = x.wrapping_add(table[(j * 7) & mask]);
    }
    std::hint::black_box(&table);
    ITERS as f64 / secs(start)
}

/// FNV-1a over `bytes`, folded into `state` — the digest that lets two
/// commits compare their simulated statistics exactly.
pub fn fnv(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The FNV-1a starting state.
pub const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

/// A [`ReferenceSink`] that times every batch its inner sink handles
/// and counts what flows through. Attached in place of the inner sink
/// on traced rounds, so a layer's sink time is measured from outside.
pub struct Timed {
    inner: SharedSink,
    /// Nanoseconds spent inside the inner sink.
    pub ns: u64,
    /// Batches delivered.
    pub batches: u64,
    /// Reference blocks delivered.
    pub blocks: u64,
}

impl Timed {
    /// Wraps `inner`; attach the returned handle's clone as the sink.
    pub fn wrap(inner: SharedSink) -> Rc<RefCell<Timed>> {
        Rc::new(RefCell::new(Timed {
            inner,
            ns: 0,
            batches: 0,
            blocks: 0,
        }))
    }
}

impl ReferenceSink for Timed {
    fn on_reference(&mut self, r: &Reference) {
        self.on_batch(std::slice::from_ref(r));
    }

    fn on_batch(&mut self, batch: &[Reference]) {
        let start = Instant::now();
        self.inner.borrow_mut().on_batch(batch);
        self.ns += start.elapsed().as_nanos() as u64;
        self.batches += 1;
        self.blocks += batch.len() as u64;
    }
}

/// One closed span of a traced round: a public call the driver made,
/// with the time its child sinks covered.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer the call belongs to (`engine`, `replay.decode`, ...).
    pub layer: &'static str,
    /// What the call worked on (a workload or trace label).
    pub label: String,
    /// Start, in nanoseconds since the ledger was created.
    pub start_ns: u64,
    /// Wall duration of the call.
    pub wall_ns: u64,
    /// Part of `wall_ns` spent inside child sinks (charged to other
    /// layers), so self time is `wall_ns - child_ns`.
    pub child_ns: u64,
    /// Work the call did, in the layer's unit (blocks or bytes).
    pub count: u64,
}

/// The in-memory span log of a traced run, written out at the end.
pub struct Ledger {
    origin: Instant,
    /// Closed spans in the order they ended.
    pub spans: Vec<Span>,
}

impl Ledger {
    /// An empty ledger whose clock starts now.
    pub fn new() -> Ledger {
        Ledger {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a call that started at `start` and has just returned,
    /// having spent `child_ns` in child sinks and done `count` work.
    pub fn close(
        &mut self,
        layer: &'static str,
        label: &str,
        start: Instant,
        child_ns: u64,
        count: u64,
    ) {
        let wall_ns = start.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            layer,
            label: label.to_owned(),
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            wall_ns,
            child_ns: child_ns.min(wall_ns),
            count,
        });
    }

    /// Records a span measured elsewhere (a sink's accumulated time),
    /// ending now.
    pub fn add(&mut self, layer: &'static str, label: &str, wall_ns: u64, count: u64) {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            layer,
            label: label.to_owned(),
            start_ns: start_ns.saturating_sub(wall_ns),
            wall_ns,
            child_ns: 0,
            count,
        });
    }

    /// Total work `count` of `layer`.
    pub fn count(&self, layer: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.count)
            .sum()
    }

    /// Total self time of `layer`, in seconds.
    pub fn self_s(&self, layer: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| (s.wall_ns - s.child_ns) as f64)
            .sum::<f64>()
            / 1e9
    }

    /// Total self time of every layer, in seconds.
    pub fn total_self_s(&self) -> f64 {
        self.spans
            .iter()
            .map(|s| (s.wall_ns - s.child_ns) as f64)
            .sum::<f64>()
            / 1e9
    }

    /// Writes the spans as JSON lines to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(
                &json::Object::new()
                    .field_str("layer", s.layer)
                    .field_str("label", &s.label)
                    .field_u64("start_ns", s.start_ns)
                    .field_u64("wall_ns", s.wall_ns)
                    .field_u64("child_ns", s.child_ns)
                    .field_u64("count", s.count)
                    .finish(),
            );
            out.push('\n');
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_like_the_usual_definition() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn ledger_self_time_excludes_child_sinks() {
        let mut ledger = Ledger::new();
        let start = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        ledger.close("engine", "w", start, 1_000_000, 7);
        let wall = ledger.spans[0].wall_ns as f64 / 1e9;
        assert!((ledger.self_s("engine") - (wall - 1e-3)).abs() < 1e-9);
        assert_eq!(ledger.self_s("replay.encode"), 0.0);
        assert_eq!(ledger.count("engine"), 7);
    }
}
