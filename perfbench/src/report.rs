//! Turning a [`Replay`] into named metrics, and the one-line JSON result.

use std::collections::HashMap;

use crate::harness::{Replay, Window};
use crate::trace::{Span, NO_PARENT};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit as `BENCHMARK.json` lists it.
    pub unit: &'static str,
}

/// The result line the benchmark prints last.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Whether every output passed verification.
    pub correct: bool,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed (errors other than throttling, or failed checks).
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The single-line JSON object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number; a non-finite value (which JSON cannot hold) prints as -1.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "-1".to_owned()
    }
}

/// The `p`-th percentile (0–100) by linear interpolation between closest
/// ranks; 0 for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The median; 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where unavailable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The percentile, counted from the favourable end, at which a windowed
/// metric is read over a replay's windows.
///
/// A shared host runs this process at two speeds that alternate every few
/// tenths of a second, in a ratio that drifts from minute to minute: the
/// same single-query kernel takes about 4.5 µs in one and 9 µs in the other.
/// The median over windows jumps between the two as that ratio crosses one
/// half. The windows at the fast end are those the host disturbed least, so
/// they read the program's own speed, and every window has the program's
/// cost in it: a change that slows each request slows them too. Read at the
/// 2nd percentile, `long-context`, whose batches need both cores fast at
/// once, found such windows in some runs and not in others.
pub const FAVOURABLE_PERCENTILE: f64 = 10.0;

/// Whether a larger value of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Better {
    Lower,
    Higher,
}

/// `f` of every window with an answered request, read at
/// [`FAVOURABLE_PERCENTILE`] from the end that `better` favours.
fn over_windows(r: &Replay, better: Better, f: impl Fn(&Window) -> f64) -> f64 {
    let values: Vec<f64> = r
        .windows
        .iter()
        .filter(|w| !w.latencies_us.is_empty())
        .map(f)
        .collect();
    let p = match better {
        Better::Lower => FAVOURABLE_PERCENTILE,
        Better::Higher => 100.0 - FAVOURABLE_PERCENTILE,
    };
    percentile(&values, p)
}

/// The end-to-end metrics of an untraced replay.
pub fn end_to_end(r: &Replay) -> Outcome {
    let failed = r.errors + r.check.failed;
    let metrics = vec![
        ("setup_s", median(&r.setup_s), "s"),
        (
            "throughput_qps",
            over_windows(r, Better::Higher, |w| {
                w.latencies_us.len() as f64 / w.seconds
            }),
            "1/s",
        ),
        (
            "p50_us",
            over_windows(r, Better::Lower, |w| percentile(&w.latencies_us, 50.0)),
            "us",
        ),
        (
            "p90_us",
            over_windows(r, Better::Lower, |w| percentile(&w.latencies_us, 90.0)),
            "us",
        ),
        (
            "slo_frac",
            over_windows(r, Better::Higher, |w| {
                w.slo_met as f64 / w.attempted.max(1) as f64
            }),
            "frac",
        ),
        (
            "ok_frac",
            1.0 - failed as f64 / r.attempted.max(1) as f64,
            "frac",
        ),
        ("out_rel_err", r.check.mean_rel_err(), "abs"),
        ("peak_rss_mib", peak_rss_mib(), "MiB"),
    ];
    Outcome {
        correct: failed == 0 && r.attempted > 0,
        attempted: r.attempted,
        failed,
        metrics: metrics
            .into_iter()
            .map(|(name, value, unit)| Metric {
                name: name.to_owned(),
                value,
                unit,
            })
            .collect(),
    }
}

/// Every per-layer metric with its unit, in report order. A metric whose
/// layer does no work on a workload reads 0 there.
pub const PER_LAYER: [(&str, &str); 25] = [
    ("serve.submit_us", "us"),
    ("serve.admission.throttled_frac", "frac"),
    ("serve.queue_wait_us", "us"),
    ("serve.batch_fill", "req/batch"),
    ("serve.poll_self_us", "us"),
    ("serve.register_us", "us"),
    ("serve.append_self_us", "us"),
    ("backend.busy_frac", "frac"),
    ("backend.attend_batch_us", "us"),
    ("backend.attend_sharded_us", "us"),
    ("backend.dispatch_us", "us"),
    ("backend.prepare_us", "us"),
    ("backend.append_us", "us"),
    ("backend.update_us", "us"),
    ("cache.hit_frac", "frac"),
    ("cache.updates", "count"),
    ("quantized.vector_frac", "frac"),
    ("quantized.query_us.320x64", "us"),
    ("quantized.query_us.513x64", "us"),
    ("quantized.query_us.320x128", "us"),
    ("approx.candidates_frac", "frac"),
    ("approx.selected_frac", "frac"),
    ("kernel.bytes_per_query", "B"),
    ("harness.lag_p90_us", "us"),
    ("trace.overhead_frac", "frac"),
];

/// Medians and self times of the recorded spans.
fn span_metrics(spans: &[Span], timed_s: f64) -> Vec<(&'static str, f64)> {
    let mut child_us: HashMap<u32, f64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != NO_PARENT) {
        *child_us.entry(s.parent).or_default() += s.us();
    }
    let durations = |name: &str, timed_only: bool| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name && (s.timed || !timed_only))
            .map(Span::us)
            .collect()
    };
    let self_us = |names: &[&str]| -> Vec<f64> {
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.timed && names.contains(&s.name))
            .map(|(id, s)| s.us() - child_us.get(&(id as u32)).copied().unwrap_or(0.0))
            .collect()
    };
    let backend_us: f64 = spans
        .iter()
        .filter(|s| s.timed && s.name.starts_with("backend."))
        .map(Span::us)
        .sum();
    vec![
        ("serve.submit_us", median(&durations("serve.submit", true))),
        (
            "serve.poll_self_us",
            median(&self_us(&["serve.poll", "serve.flush"])),
        ),
        (
            "serve.register_us",
            median(&durations("serve.register", false)),
        ),
        ("serve.append_self_us", median(&self_us(&["serve.append"]))),
        ("backend.busy_frac", backend_us / 1e6 / timed_s),
        (
            "backend.attend_batch_us",
            median(&durations("backend.attend_batch", true)),
        ),
        (
            "backend.attend_sharded_us",
            median(&durations("backend.attend_sharded", true)),
        ),
        (
            "backend.prepare_us",
            median(&durations("backend.prepare", false)),
        ),
        (
            "backend.append_us",
            median(&durations("backend.append", true)),
        ),
        (
            "backend.update_us",
            median(&durations("backend.update", true)),
        ),
    ]
}

/// The per-layer metrics of a traced replay, given the untraced replay of
/// the same trace for the overhead figure.
pub fn per_layer(traced: &Replay, plain: &Replay, identical: bool) -> Outcome {
    let mut values: HashMap<&str, f64> = span_metrics(&traced.spans, traced.timed_s)
        .into_iter()
        .collect();
    let served = traced.answered().max(1) as f64;
    let [offered, throttled] = traced.admission;
    let [hits, misses, updates] = traced.cache;
    values.insert(
        "serve.admission.throttled_frac",
        throttled as f64 / offered.max(1) as f64,
    );
    values.insert("serve.batch_fill", traced.stats.avg_batch_fill());
    values.insert(
        "cache.hit_frac",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    values.insert("cache.updates", updates as f64);
    values.insert("quantized.vector_frac", traced.vectorized as f64 / served);
    values.insert("kernel.bytes_per_query", traced.dense_bytes / served);
    let per_request = |r: &Replay| r.busy_s / r.answered().max(1) as f64;
    values.insert(
        "trace.overhead_frac",
        per_request(traced) / per_request(plain) - 1.0,
    );
    for (name, value) in &traced.layer {
        if let Some((known, _)) = PER_LAYER.iter().find(|(n, _)| n == name) {
            values.insert(known, *value);
        }
    }
    let failed = traced.errors + traced.check.failed + u64::from(!identical);
    Outcome {
        correct: failed == 0 && traced.attempted > 0,
        attempted: traced.attempted,
        failed,
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name: name.to_owned(),
                value: values.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect(),
    }
}
