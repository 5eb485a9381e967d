//! `agave top`: a polling terminal view of a live daemon.
//!
//! Each poll issues one `STATS` request (JSON format, notable-filtered
//! flight window), parses the snapshot with the telemetry crate's own
//! JSON parser, and renders a dashboard: request/error rates (deltas
//! between consecutive polls), per-verb totals through the shared
//! [`TimingTable`], per-verb p50/p99 interpolated from the log2 latency
//! buckets, queue state, and the most recent slow/error requests.
//!
//! Parsing lives here (not in the CLI) so it is unit-testable against
//! canned snapshots without a socket.

use agave_telemetry::format::{fmt_ns, TimingTable};
use agave_telemetry::parse::{parse, Value};
use agave_telemetry::HistogramData;
use std::collections::BTreeMap;

/// One flight-recorder record, as parsed from a `recent` array element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecentEntry {
    /// Recorder sequence number (newest = highest).
    pub seq: u64,
    /// Client-stamped request id.
    pub id: u64,
    /// Client origin tag.
    pub origin: String,
    /// Request verb name.
    pub verb: String,
    /// Targeted session (may be empty).
    pub tenant: String,
    /// `ok`, `error`, or `retry`.
    pub outcome: String,
    /// Payload bytes (ingested or responded).
    pub bytes: u64,
    /// Queue wait in nanoseconds.
    pub queue_ns: u64,
    /// Handle time in nanoseconds.
    pub handle_ns: u64,
    /// Whether the server marked the request slow.
    pub slow: bool,
    /// Whether the answer came from the server's result cache.
    pub cached: bool,
}

/// One parsed `STATS` JSON snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsSample {
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Gauge name → value.
    pub gauges: BTreeMap<String, u64>,
    /// Aggregated histograms, as scraped.
    pub histograms: Vec<HistogramData>,
    /// The flight-recorder window, newest first.
    pub recent: Vec<RecentEntry>,
}

fn u64_field(obj: &Value, key: &str) -> u64 {
    obj.get(key).and_then(Value::as_u64).unwrap_or(0)
}

fn str_field(obj: &Value, key: &str) -> String {
    obj.get(key)
        .and_then(Value::as_str)
        .unwrap_or("")
        .to_string()
}

impl StatsSample {
    /// Parses a `STATS` JSON response body.
    pub fn parse(json: &str) -> Result<StatsSample, String> {
        let doc = parse(json)?;
        let mut sample = StatsSample::default();
        if let Some(Value::Obj(counters)) = doc.get("counters") {
            for (name, v) in counters {
                sample
                    .counters
                    .insert(name.clone(), v.as_u64().unwrap_or(0));
            }
        }
        if let Some(Value::Obj(gauges)) = doc.get("gauges") {
            for (name, v) in gauges {
                sample.gauges.insert(name.clone(), v.as_u64().unwrap_or(0));
            }
        }
        for h in doc
            .get("histograms")
            .and_then(Value::as_array)
            .unwrap_or(&[])
        {
            let buckets = h
                .get("buckets")
                .and_then(Value::as_array)
                .unwrap_or(&[])
                .iter()
                .filter_map(|pair| {
                    let pair = pair.as_array()?;
                    Some((pair.first()?.as_u64()? as u8, pair.get(1)?.as_u64()?))
                })
                .collect();
            sample.histograms.push(HistogramData {
                name: str_field(h, "name"),
                count: u64_field(h, "count"),
                sum: u64_field(h, "sum"),
                buckets,
            });
        }
        for r in doc.get("recent").and_then(Value::as_array).unwrap_or(&[]) {
            sample.recent.push(RecentEntry {
                seq: u64_field(r, "seq"),
                id: u64_field(r, "id"),
                origin: str_field(r, "origin"),
                verb: str_field(r, "verb"),
                tenant: str_field(r, "tenant"),
                outcome: str_field(r, "outcome"),
                bytes: u64_field(r, "bytes"),
                queue_ns: u64_field(r, "queue_ns"),
                handle_ns: u64_field(r, "handle_ns"),
                slow: matches!(r.get("slow"), Some(Value::Bool(true))),
                cached: matches!(r.get("cached"), Some(Value::Bool(true))),
            });
        }
        Ok(sample)
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    fn histogram(&self, name: &str) -> Option<&HistogramData> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

/// Latency histogram values are recorded in microseconds; scale an
/// interpolated quantile back to nanoseconds for display.
fn quantile_ns(h: &HistogramData, q: f64) -> u64 {
    (h.quantile_interp(q) * 1_000.0) as u64
}

/// Renders one dashboard frame. `prev` (the previous poll) and
/// `elapsed_secs` between the polls turn monotonic counters into rates;
/// the first frame prints totals only.
pub fn render_dashboard(
    addr: &str,
    prev: Option<&StatsSample>,
    cur: &StatsSample,
    elapsed_secs: f64,
) -> String {
    let requests = cur.counter("serve.requests");
    let errors = cur.counter("serve.request_errors");
    let mut out = format!(
        "agave top — {addr}\n{} requests · {} uploads · {} analyses · {} sweeps · {} rejects · {} errors\n",
        requests,
        cur.counter("serve.uploads"),
        cur.counter("serve.analyses"),
        cur.counter("serve.sweeps"),
        cur.counter("serve.rejects"),
        errors,
    );
    if let Some(prev) = prev {
        let d_req = requests.saturating_sub(prev.counter("serve.requests"));
        let d_err = errors.saturating_sub(prev.counter("serve.request_errors"));
        let rate = if elapsed_secs > 0.0 {
            d_req as f64 / elapsed_secs
        } else {
            0.0
        };
        let err_rate = if d_req > 0 {
            100.0 * d_err as f64 / d_req as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "{rate:.1} req/s · {err_rate:.1}% errors (last {elapsed_secs:.1}s)\n"
        ));
    }
    out.push_str(&format!(
        "queue {} deep · {} sessions stored\n",
        cur.gauge("serve.queue"),
        cur.gauge("serve.active_sessions"),
    ));

    let mut table = TimingTable::new();
    let mut quantiles = String::new();
    for h in &cur.histograms {
        let Some(verb) = h.name.strip_prefix("serve.latency.") else {
            continue;
        };
        if h.count == 0 {
            continue;
        }
        // Histogram values are µs; the table wants ns and "refs"
        // (requests here).
        table.row(verb, h.sum.saturating_mul(1_000), h.count);
        quantiles.push_str(&format!(
            "  {:<10} p50 {:>10}   p99 {:>10}\n",
            verb,
            fmt_ns(quantile_ns(h, 0.5)),
            fmt_ns(quantile_ns(h, 0.99)),
        ));
    }
    out.push('\n');
    out.push_str(&table.render("per-verb totals (wall = handle time)", "all verbs"));
    if !quantiles.is_empty() {
        out.push_str("\nper-verb latency (interpolated from log2 buckets)\n");
        out.push_str(&quantiles);
    }
    if let Some(wait) = cur.histogram("serve.queue_wait") {
        if wait.count > 0 {
            out.push_str(&format!(
                "queue wait   p50 {:>10}   p99 {:>10}\n",
                fmt_ns(quantile_ns(wait, 0.5)),
                fmt_ns(quantile_ns(wait, 0.99)),
            ));
        }
    }
    if !cur.recent.is_empty() {
        out.push_str("\nrecent slow/error requests (newest first)\n");
        for r in cur.recent.iter().take(10) {
            out.push_str(&format!(
                "  #{:<8} {:<8} {:<16} {:<6} {:>10} queued {:>9} ran {:>9}{}{}\n",
                r.id,
                r.verb,
                if r.tenant.is_empty() { "-" } else { &r.tenant },
                r.outcome,
                format!("{} B", r.bytes),
                fmt_ns(r.queue_ns),
                fmt_ns(r.handle_ns),
                if r.slow { "  SLOW" } else { "" },
                if r.cached { "  CACHED" } else { "" },
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A canned STATS response: what a daemon that handled a few
    /// requests would return.
    fn canned() -> String {
        concat!(
            "{\"schema_version\":1,\"tool\":\"agave-telemetry\",",
            "\"counters\":{\"serve.analyses\":2,\"serve.request_errors\":1,",
            "\"serve.requests\":8,\"serve.uploads\":1},",
            "\"gauges\":{\"serve.active_sessions\":1,\"serve.queue\":3},",
            "\"histograms\":[",
            "{\"name\":\"serve.latency.analyze\",\"count\":2,\"sum\":3000,",
            "\"buckets\":[[11,2]]},",
            "{\"name\":\"serve.queue_wait\",\"count\":8,\"sum\":80,",
            "\"buckets\":[[4,8]]}",
            "],\"spans\":[],\"traceEvents\":[],",
            "\"recent\":[{\"seq\":9,\"id\":41,\"origin\":\"agave/7\",",
            "\"verb\":\"analyze\",\"tenant\":\"sess-a\",\"outcome\":\"error\",",
            "\"bytes\":120,\"queue_ns\":1500,\"handle_ns\":2500000,",
            "\"slow\":true},{\"seq\":8,\"id\":40,\"origin\":\"agave/7\",",
            "\"verb\":\"analyze\",\"tenant\":\"sess-a\",\"outcome\":\"ok\",",
            "\"bytes\":4096,\"queue_ns\":120000000,\"handle_ns\":110000000,",
            "\"slow\":true,\"cached\":true}]}"
        )
        .to_string()
    }

    #[test]
    fn samples_parse_counters_histograms_and_recent() {
        let sample = StatsSample::parse(&canned()).unwrap();
        assert_eq!(sample.counter("serve.requests"), 8);
        assert_eq!(sample.gauge("serve.queue"), 3);
        let h = sample.histogram("serve.latency.analyze").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.buckets, vec![(11, 2)]);
        assert_eq!(sample.recent.len(), 2);
        let r = &sample.recent[0];
        assert_eq!(r.id, 41);
        assert_eq!(r.verb, "analyze");
        assert!(r.slow);
        assert!(!r.cached, "a record without the field is not cached");
        assert!(sample.recent[1].cached);
        assert!(StatsSample::parse("not json").is_err());
    }

    #[test]
    fn dashboard_shows_rates_quantiles_and_recent_rows() {
        let cur = StatsSample::parse(&canned()).unwrap();
        let mut prev = cur.clone();
        prev.counters.insert("serve.requests".to_string(), 4);
        prev.counters.insert("serve.request_errors".to_string(), 0);
        let frame = render_dashboard("127.0.0.1:4950", Some(&prev), &cur, 2.0);
        assert!(frame.contains("agave top — 127.0.0.1:4950"), "{frame}");
        assert!(frame.contains("2.0 req/s"), "{frame}");
        assert!(frame.contains("25.0% errors"), "{frame}");
        assert!(frame.contains("queue 3 deep"), "{frame}");
        assert!(frame.contains("analyze"), "{frame}");
        assert!(frame.contains("p50"), "{frame}");
        assert!(frame.contains("#41"), "{frame}");
        assert!(frame.contains("SLOW\n"), "{frame}");
        assert!(frame.contains("SLOW  CACHED\n"), "{frame}");
        // First poll: totals only, no rate line.
        let first = render_dashboard("x", None, &cur, 0.0);
        assert!(!first.contains("req/s"), "{first}");
    }
}
