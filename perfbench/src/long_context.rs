//! `long-context`: one closed-loop client sends fixed-size batches,
//! round-robin, to approximate-attention sessions at long context (d = 64):
//! four memories of 4096 rows served whole and two of 16384 rows sharded 4
//! ways. Candidate selection, post-scoring and the shard merge do nearly all
//! the work; the `serve` overhead is negligible. This is the regime where
//! kNN Attention (arXiv 2411.04013) says candidate selection should pay off.

use std::sync::Arc;
use std::time::Instant;

use a3::core::backend::{ApproximateBackend, ComputeBackend};
use a3::core::serve::{BatchPolicy, MemoryConfig, Request, SessionId};
use a3::core::Matrix;

use crate::harness::{singles_us, us_between, Harness, Replay, Window};
use crate::report::median;
use crate::rng::{gaussian_matrix, peaked_query, unit_rows, Rng};
use crate::trace::{Recorder, NO_REQUEST};
use crate::verify::Check;

/// Latency limit of `slo_frac`: about 1.5 times the median `p90_us` in
/// `SPREAD.md`.
pub const SLO_US: f64 = 15_000.0;
/// Queries per batch; every batch goes to one session.
pub const BATCH: usize = 8;
/// Rounds over all sessions in one pass of the trace.
const ROUNDS: usize = 4;
/// (rows, shards) of each session.
pub const SESSIONS: [(usize, usize); 6] = [
    (4096, 1),
    (4096, 1),
    (16384, 4),
    (4096, 1),
    (4096, 1),
    (16384, 4),
];
const D: usize = 64;
/// Query = this times a unit-norm key row, plus unit noise: the exact
/// attention then puts nearly all weight on that row, as retrieval does.
const SHARPNESS: f32 = 16.0;

/// The generated inputs of one run.
pub struct Inputs {
    memories: Vec<(Matrix, Matrix, usize)>,
    /// One pass: (session, queries of one batch).
    batches: Vec<(usize, Vec<Vec<f32>>)>,
}

/// Generates the inputs of a run from `seed`; `rows_divisor` shrinks every
/// memory (the tests use it).
pub fn inputs(seed: u64, rows_divisor: usize) -> Inputs {
    let root = Rng::new(seed);
    let mut rng = root.fork(1);
    let memories: Vec<_> = SESSIONS
        .iter()
        .map(|&(n, shards)| {
            let n = n / rows_divisor;
            let keys = unit_rows(&mut rng, n, D);
            let values = gaussian_matrix(&mut rng, n, D, 1.0);
            (keys, values, shards)
        })
        .collect();
    let mut q = root.fork(2);
    let batches = (0..ROUNDS * memories.len())
        .map(|i| {
            let s = i % memories.len();
            let queries = (0..BATCH)
                .map(|_| peaked_query(&mut q, &memories[s].0, SHARPNESS))
                .collect();
            (s, queries)
        })
        .collect();
    Inputs { memories, batches }
}

fn backend() -> Box<dyn ComputeBackend> {
    Box::new(ApproximateBackend::conservative())
}

fn set_up(
    inp: &Inputs,
    recorder: Option<Arc<Recorder>>,
) -> Result<(Harness, Vec<SessionId>), String> {
    // Batches flush when full; the window never expires first.
    let policy = BatchPolicy::new(BATCH, u64::MAX).map_err(|e| e.to_string())?;
    let mut h = Harness::build(backend(), recorder, |b| b.batch_policy(policy));
    let mut ids = Vec::new();
    for (keys, values, shards) in &inp.memories {
        let config = MemoryConfig::new(keys, values).sharded(*shards);
        ids.push(
            h.call("serve.register", NO_REQUEST, |s| s.register(config))
                .out
                .map_err(|e| e.to_string())?,
        );
    }
    Ok((h, ids))
}

/// Replays passes of the trace until `seconds` of timed phase have passed
/// (at least `min_passes`). Of `setups` timed set-ups, the larger half run
/// before the timed phase, the last of them serving it, and the rest after.
pub fn replay(
    inp: &Inputs,
    recorder: Option<Arc<Recorder>>,
    seconds: f64,
    min_passes: usize,
    setups: usize,
) -> Result<Replay, String> {
    let mut r = Replay::default();
    let before = setups.div_ceil(2);
    let (mut h, ids) = r.time_setups(before, || set_up(inp, recorder.clone()))?;
    crate::census(&h.server, "long-context");
    let traced = recorder.is_some();
    let probe = backend();
    let (mut dispatch, mut waits) = (Vec::new(), Vec::new());
    let mut tick = 0u64;
    let mut pass = 0;
    // Probing inside the loop is not serving time.
    let mut probing_s = 0.0;
    h.set_timed(true);
    let phase = Instant::now();
    while pass < min_passes || phase.elapsed().as_secs_f64() < seconds {
        let pass_start = Instant::now();
        let probed_before = probing_s;
        r.windows.push(Window::default());
        for (b, (s, queries)) in inp.batches.iter().enumerate() {
            let mut sent = Vec::with_capacity(BATCH);
            for (i, q) in queries.iter().enumerate() {
                r.attempt(pass);
                tick += 1;
                let request = Request::new(ids[*s], q.clone(), tick);
                let call = h.call("serve.submit", (b * BATCH + i) as u64, |srv| {
                    srv.submit(request)
                });
                sent.push(call.start);
                if call.out.is_err() {
                    r.errors += 1;
                }
            }
            let call = h.call("serve.poll", NO_REQUEST, |srv| srv.poll(tick));
            let mut answered = 0;
            for batch in call.out.map_err(|e| e.to_string())? {
                if let Some(session) = h.server.session(batch.session) {
                    r.note_served(session.memory(), batch.responses.len());
                }
                for (i, resp) in batch.responses.into_iter().enumerate() {
                    let latency = us_between(sent[i], call.end);
                    r.answer(pass, latency, SLO_US);
                    if traced {
                        waits.push(us_between(sent[i], call.start));
                    }
                    let out = resp.result.output;
                    if pass == 0 {
                        r.outputs.push(out);
                    } else {
                        r.check.check_repeat(&out, &r.outputs[b * BATCH + i]);
                    }
                    answered += 1;
                }
            }
            r.errors += (queries.len() - answered) as u64;
            if traced && pass == 0 {
                let probe_start = Instant::now();
                let memory = h.server.session(ids[*s]).map(|x| x.memory().clone());
                if let Some(memory) = memory {
                    let qs: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
                    dispatch.push((call.span, singles_us(probe.as_ref(), &memory, &qs)?));
                }
                probing_s += probe_start.elapsed().as_secs_f64();
            }
        }
        r.windows[pass].seconds = pass_start.elapsed().as_secs_f64() - (probing_s - probed_before);
        pass += 1;
    }
    r.timed_s = phase.elapsed().as_secs_f64() - probing_s;
    h.set_timed(false);
    r.busy_s = h.busy().as_secs_f64();
    r.read_counters(&h.server);
    verify(inp, &mut r);

    if let Some(rec) = recorder {
        r.spans = rec.spans();
        let batch_us = |poll: u32| {
            r.spans
                .iter()
                .filter(|s| s.parent == poll && s.name.starts_with("backend.attend"))
                .map(crate::trace::Span::us)
                .sum::<f64>()
        };
        let dispatch: Vec<f64> = dispatch
            .iter()
            .map(|&(poll, singles)| batch_us(poll) - singles)
            .collect();
        r.layer
            .push(("backend.dispatch_us".into(), median(&dispatch)));
        r.layer.push(("serve.queue_wait_us".into(), median(&waits)));
        approx_profile(&mut r, &h, inp, &ids, probe.as_ref())?;
    }
    drop(h);
    r.time_more_setups(setups.saturating_sub(before), || set_up(inp, None))?;
    Ok(r)
}

/// Checks the first pass's outputs against exact attention, after the
/// timed phase; later passes were checked against the first bit for bit.
pub fn verify(inp: &Inputs, r: &mut Replay) {
    for (b, (s, queries)) in inp.batches.iter().enumerate() {
        let (keys, values, _) = &inp.memories[*s];
        for (i, q) in queries.iter().enumerate() {
            match r.outputs.get(b * BATCH + i) {
                Some(out) => r.check.check(Check::Finite, out, keys, values, q),
                None => r.check.failed += 1,
            }
        }
    }
}

/// Mean C/n and K/n over the queries of the whole (unsharded) sessions,
/// from `ComputeBackend::profile`.
fn approx_profile(
    r: &mut Replay,
    h: &Harness,
    inp: &Inputs,
    ids: &[SessionId],
    probe: &dyn ComputeBackend,
) -> Result<(), String> {
    let (mut c, mut k, mut count) = (0.0, 0.0, 0.0);
    for (s, queries) in &inp.batches {
        let Some(memory) = h.server.session(ids[*s]).and_then(|x| x.memory().whole()) else {
            continue;
        };
        for q in queries {
            if let Some(p) = probe.profile(memory, q).map_err(|e| e.to_string())? {
                c += p.candidates as f64 / p.n as f64;
                k += p.selected as f64 / p.n as f64;
                count += 1.0;
            }
        }
    }
    let count: f64 = f64::max(count, 1.0);
    r.layer.push(("approx.candidates_frac".into(), c / count));
    r.layer.push(("approx.selected_frac".into(), k / count));
    Ok(())
}
