//! The repository's benchmark: seeded workloads replayed through the real
//! `AttentionServer`, from one process, through the public `a3::core` API.
//!
//! An untraced run reports the end-to-end metrics. A traced run replays the
//! same trace untraced and then traced, checks that both computed the same
//! bits, and reports per-layer metrics from the spans. `RATIONALE.md` next to
//! this crate says why each workload and metric is there.

pub mod decode_stream;
pub mod harness;
pub mod long_context;
pub mod report;
pub mod rng;
pub mod tenant_qa;
pub mod trace;
pub mod verify;

use std::collections::BTreeMap;

use a3::core::serve::AttentionServer;

use crate::harness::{Clock, Replay};
use crate::report::Outcome;
use crate::trace::Recorder;

/// The workloads, by the names `--workload` takes.
pub const WORKLOADS: [&str; 3] = ["tenant-qa", "long-context", "decode-stream"];

/// Set-ups timed per untraced run, where set-up is not repeated per pass.
const SETUPS: usize = 9;
/// Spans reserved for a traced run.
const SPAN_CAPACITY: usize = 1 << 20;

/// Prints, for each memory shape a server serves, the datapath that really
/// runs it: backend, vectorised or scalar, shard count, and the bytes of the
/// f32 key/value copies every prepared memory holds plus any sorted-column
/// state (computed from the shape, not measured).
pub fn census(server: &AttentionServer, workload: &str) {
    let backend = server.backend().name();
    let mut shapes: BTreeMap<(usize, usize, usize, bool), (usize, usize)> = BTreeMap::new();
    for session in server.sessions() {
        let memory = session.memory();
        let bytes = harness::prepared_parts(memory)
            .iter()
            .map(|m| 2 * m.n() * m.d() * 4 + m.sorted().map_or(0, |s| s.sram_bytes()))
            .sum();
        let key = (
            memory.n(),
            memory.d(),
            memory.shard_count(),
            harness::is_vectorized(memory),
        );
        let entry = shapes.entry(key).or_default();
        entry.0 += 1;
        entry.1 = bytes;
    }
    for ((n, d, shards, vector), (sessions, bytes)) in shapes {
        let path = if backend.starts_with("quantized") {
            if vector {
                "vector"
            } else {
                "scalar"
            }
        } else {
            "f32"
        };
        eprintln!(
            "census {workload}: {n}x{d} backend={backend} datapath={path} shards={shards} sessions={sessions} prepared_bytes={bytes}"
        );
    }
}

/// Replays `workload` once, untraced or traced.
fn replay(
    workload: &str,
    seed: u64,
    seconds: f64,
    rate_per_s: f64,
    recorder: Option<std::sync::Arc<Recorder>>,
    setups: usize,
) -> Result<Replay, String> {
    match workload {
        "tenant-qa" => {
            let scale = tenant_qa::Scale {
                seconds,
                session_divisor: 1,
                rate_per_s,
            };
            tenant_qa::replay(
                &tenant_qa::inputs(seed, scale),
                recorder,
                Clock::Wall,
                setups,
            )
        }
        "long-context" => {
            long_context::replay(&long_context::inputs(seed, 1), recorder, seconds, 1, setups)
        }
        "decode-stream" => {
            decode_stream::replay(&decode_stream::inputs(seed, 1)?, recorder, seconds, 1)
        }
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }
}

/// Runs one benchmark invocation and returns the result line's content.
/// `rate_per_s` is `tenant-qa`'s offered rate; the other workloads are
/// closed loops and ignore it.
///
/// # Errors
///
/// Returns a message when the workload is unknown or a replay cannot run.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    rate_per_s: f64,
) -> Result<Outcome, String> {
    if !trace {
        let r = replay(workload, seed, seconds, rate_per_s, None, SETUPS)?;
        eprintln!(
            "{workload}: {} attempted, {} throttled, {} answered in {:.3} s; p99 {:.1} us (information only)",
            r.attempted,
            r.throttled,
            r.answered(),
            r.timed_s,
            report::percentile(&r.latencies(), 99.0)
        );
        // Requests answered per second spent inside server calls: what one
        // harness thread could serve if it never waited for an arrival.
        eprintln!(
            "{workload}: server busy {:.4} of the timed phase; serving capacity {:.0} req/s",
            r.busy_s / r.timed_s,
            r.answered() as f64 / r.busy_s.max(f64::MIN_POSITIVE)
        );
        return Ok(report::end_to_end(&r));
    }
    let plain = replay(workload, seed, seconds / 2.0, rate_per_s, None, 1)?;
    let recorder = Recorder::new(SPAN_CAPACITY);
    let traced = replay(
        workload,
        seed,
        seconds / 2.0,
        rate_per_s,
        Some(recorder.clone()),
        1,
    )?;
    let shared = plain.outputs.len().min(traced.outputs.len());
    let identical = shared > 0
        && plain.outputs[..shared]
            .iter()
            .zip(&traced.outputs[..shared])
            .all(|(a, b)| verify::same_bits(a, b));
    let path = std::path::PathBuf::from(format!("perfbench/out/trace-{workload}-{seed}.tsv"));
    match recorder.write_tsv(&path) {
        Ok(()) => eprintln!(
            "{workload}: {} spans written to {}",
            traced.spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("{workload}: spans not written to {}: {e}", path.display()),
    }
    if recorder.dropped() > 0 {
        eprintln!("{workload}: {} spans dropped", recorder.dropped());
    }
    Ok(report::per_layer(&traced, &plain, identical))
}
