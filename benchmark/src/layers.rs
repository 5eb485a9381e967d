//! The per-layer breakdown a traced run prints.
//!
//! Every workload prints the same metric set, so runs compare by name;
//! a layer a workload does not exercise prints 0 (see the map in
//! `benchmark/README.md`). Self times (`*_s`) are seconds per traced
//! round of the timed phase, medians over those rounds. Rates
//! (`*_per_block`, `*_mb_per_s`) pool every traced call of the run:
//! set-up, rounds and output checks.

use crate::measure::{median, Ledger};
use crate::{Outcome, Params};

/// Per-layer metrics of one traced run.
#[derive(Debug, Default)]
pub struct LayerReport {
    pub sim_s: f64,
    pub ns_per_block: f64,
    pub blocks: u64,
    pub words: u64,
    pub batches: u64,
    pub encode_s: f64,
    pub encode_mb_per_s: f64,
    pub bytes_per_record: f64,
    pub report_s: f64,
    pub decode_s: f64,
    pub decode_mb_per_s: f64,
    pub validate_mb_per_s: f64,
    pub sweep_s: f64,
    pub sweep_ns_per_cell_block: f64,
    pub cache_accesses: u64,
    pub cache_l1_misses: u64,
    pub cache_l2_misses: u64,
    pub summary_ns_per_block: f64,
    pub sketch_ns_per_block: f64,
    pub walk_ns_per_block: f64,
    pub serve: ServeLayer,
    pub unattributed_share: f64,
    pub trace_overhead_share: f64,
    pub traced_rounds: u64,
}

/// The serve layer as the clients and the daemon's STATS see it.
#[derive(Debug, Default)]
pub struct ServeLayer {
    pub queue_wait_p50_ms: f64,
    pub handle_p50_ms: f64,
    pub wire_p50_ms: f64,
    pub upload_p50_ms: f64,
    pub analyze_summary_p50_ms: f64,
    pub analyze_cache_p50_ms: f64,
    pub analyze_sketch_p50_ms: f64,
    pub sweep_p50_ms: f64,
    pub list_p50_ms: f64,
    pub request_p99_ms: f64,
    pub retries: u64,
    pub repeat_share: f64,
}

/// Pooled self time of `layer` over `ledgers`, in seconds.
fn pooled_s(ledgers: &[&Ledger], layer: &str) -> f64 {
    ledgers.iter().map(|l| l.self_s(layer)).sum()
}

/// Pooled work count of `layer` over `ledgers`.
fn pooled_count(ledgers: &[&Ledger], layer: &str) -> f64 {
    ledgers.iter().map(|l| l.count(layer) as f64).sum()
}

/// `num / den`, or 0 when the layer did no work.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl LayerReport {
    /// Self times from the traced `rounds` (with their wall seconds)
    /// and rates from `all` ledgers of the run.
    pub fn from_ledgers(rounds: &[(&Ledger, f64)], all: &[&Ledger]) -> LayerReport {
        let per_round = |layer: &str| {
            median(
                &rounds
                    .iter()
                    .map(|(l, _)| l.self_s(layer))
                    .collect::<Vec<_>>(),
            )
        };
        let ns_per = |layer: &str| ratio(pooled_s(all, layer) * 1e9, pooled_count(all, layer));
        let mb_per_s = |layer: &str| ratio(pooled_count(all, layer) / 1e6, pooled_s(all, layer));
        LayerReport {
            sim_s: per_round("engine"),
            ns_per_block: ns_per("engine"),
            encode_s: per_round("replay.encode"),
            encode_mb_per_s: mb_per_s("replay.encode"),
            bytes_per_record: ratio(
                pooled_count(all, "replay.encode"),
                pooled_count(all, "engine"),
            ),
            report_s: per_round("core.report"),
            decode_s: per_round("replay.decode"),
            decode_mb_per_s: mb_per_s("replay.decode"),
            validate_mb_per_s: mb_per_s("replay.validate"),
            sweep_s: per_round("analysis.sweep"),
            sweep_ns_per_cell_block: ns_per("analysis.sweep"),
            summary_ns_per_block: ns_per("analysis.summary"),
            sketch_ns_per_block: ns_per("analysis.sketch"),
            walk_ns_per_block: ns_per("cache.walk"),
            unattributed_share: median(
                &rounds
                    .iter()
                    .map(|(l, secs)| 1.0 - l.total_self_s() / secs)
                    .collect::<Vec<_>>(),
            ),
            traced_rounds: rounds.len() as u64,
            ..LayerReport::default()
        }
    }

    /// Sets the tracing overhead from the alternating untraced and
    /// traced rounds' throughputs.
    pub fn overhead(&mut self, untraced: &[f64], traced: &[f64]) {
        self.trace_overhead_share = 1.0 - median(traced) / median(untraced);
    }

    /// Appends every per-layer metric to `out`, in a fixed order.
    pub fn emit(&self, out: &mut Outcome) {
        let s = &self.serve;
        let metrics: [(&'static str, f64, &'static str); 35] = [
            ("engine.sim_s", self.sim_s, "s"),
            ("engine.ns_per_block", self.ns_per_block, "ns/block"),
            ("engine.blocks", self.blocks as f64, "count"),
            ("engine.words", self.words as f64, "count"),
            ("trace.batches", self.batches as f64, "count"),
            ("replay.encode_s", self.encode_s, "s"),
            ("replay.encode_mb_per_s", self.encode_mb_per_s, "MB/s"),
            ("replay.bytes_per_record", self.bytes_per_record, "B/record"),
            ("core.report_s", self.report_s, "s"),
            ("replay.decode_s", self.decode_s, "s"),
            ("replay.decode_mb_per_s", self.decode_mb_per_s, "MB/s"),
            ("replay.validate_mb_per_s", self.validate_mb_per_s, "MB/s"),
            ("analysis.sweep_s", self.sweep_s, "s"),
            (
                "analysis.sweep_ns_per_cell_block",
                self.sweep_ns_per_cell_block,
                "ns/block",
            ),
            ("cache.accesses", self.cache_accesses as f64, "count"),
            ("cache.l1_misses", self.cache_l1_misses as f64, "count"),
            ("cache.l2_misses", self.cache_l2_misses as f64, "count"),
            (
                "analysis.summary_ns_per_block",
                self.summary_ns_per_block,
                "ns/block",
            ),
            (
                "analysis.sketch_ns_per_block",
                self.sketch_ns_per_block,
                "ns/block",
            ),
            (
                "cache.walk_ns_per_block",
                self.walk_ns_per_block,
                "ns/block",
            ),
            ("serve.queue_wait_p50_ms", s.queue_wait_p50_ms, "ms"),
            ("serve.handle_p50_ms", s.handle_p50_ms, "ms"),
            ("serve.wire_p50_ms", s.wire_p50_ms, "ms"),
            ("serve.upload_p50_ms", s.upload_p50_ms, "ms"),
            (
                "serve.analyze_summary_p50_ms",
                s.analyze_summary_p50_ms,
                "ms",
            ),
            ("serve.analyze_cache_p50_ms", s.analyze_cache_p50_ms, "ms"),
            ("serve.analyze_sketch_p50_ms", s.analyze_sketch_p50_ms, "ms"),
            ("serve.sweep_p50_ms", s.sweep_p50_ms, "ms"),
            ("serve.list_p50_ms", s.list_p50_ms, "ms"),
            ("serve.request_p99_ms", s.request_p99_ms, "ms"),
            ("serve.retries", s.retries as f64, "count"),
            ("serve.repeat_share", s.repeat_share, "share"),
            (
                "layers.unattributed_share",
                self.unattributed_share,
                "share",
            ),
            (
                "layers.trace_overhead_share",
                self.trace_overhead_share,
                "share",
            ),
            ("layers.traced_rounds", self.traced_rounds as f64, "count"),
        ];
        for (name, value, unit) in metrics {
            out.metric(name, value, unit);
        }
    }
}

/// Writes every span of the traced run to
/// `.bench_work/spans/<workload>-seed<N>.jsonl`, after the run.
pub fn write_spans(params: &Params, ledgers: &[&Ledger]) {
    let dir = std::path::Path::new(".bench_work").join("spans");
    let path = dir.join(format!("{}-seed{}.jsonl", params.workload, params.seed));
    let mut all = Ledger::new();
    for ledger in ledgers {
        all.spans.extend(ledger.spans.iter().cloned());
    }
    if let Err(err) = std::fs::create_dir_all(&dir).and_then(|()| all.write(&path)) {
        eprintln!("agave-benchmark: cannot write {}: {err}", path.display());
    }
}
