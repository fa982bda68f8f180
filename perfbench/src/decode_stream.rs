//! `decode-stream`: eight chat sessions decode round-robin in a closed loop,
//! each turn [`TOKENS_PER_TURN`] tokens of one session's reply.
//! Each step appends one row to its session's context (`append_to_session`),
//! sends one query and flushes; every 16th step also overwrites an earlier
//! row (`update_session_row`). Contexts start at 1024 rows and grow by
//! [`STEPS_PER_SESSION`] per pass. This is the write path beside
//! `long-context`'s read path: a change that speeds queries by making
//! prepared state costlier to maintain shows here.

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
pub const SLO_US: f64 = 800.0;
/// Chat sessions.
pub const SESSIONS: usize = 8;
/// Context rows each session starts with.
pub const CONTEXT: usize = 1024;
/// Decode steps per session in one pass.
pub const STEPS_PER_SESSION: usize = 64;
/// Consecutive decode steps of one session before the next one's turn. A
/// session's prepared state (about 1 MB at 1024 rows) then stays in the
/// core's cache through its turn instead of coming back from the cache the
/// host shares with other machines, whose load made step times drift by a
/// third from one minute to the next.
pub const TOKENS_PER_TURN: usize = 8;
/// Every this many steps, one earlier row is overwritten too.
const UPDATE_EVERY: usize = 16;
const D: usize = 64;
/// Query = this times a unit-norm key row, plus unit noise: the exact
/// attention then puts nearly all weight on that row, as retrieval does.
const SHARPNESS: f32 = 16.0;

/// One decode step.
struct Step {
    session: usize,
    key: Matrix,
    value: Matrix,
    update: Option<(usize, Vec<f32>, Vec<f32>)>,
    query: Vec<f32>,
}

/// The generated inputs of one run.
pub struct Inputs {
    contexts: Vec<(Matrix, Matrix)>,
    steps: Vec<Step>,
}

/// Applies a step's mutations to the session's (keys, values).
fn apply(memory: &mut (Matrix, Matrix), step: &Step) -> Result<(), String> {
    memory.0.append_rows(&step.key).map_err(|e| e.to_string())?;
    memory
        .1
        .append_rows(&step.value)
        .map_err(|e| e.to_string())?;
    if let Some((row, key, value)) = &step.update {
        memory.0.set_row(*row, key).map_err(|e| e.to_string())?;
        memory.1.set_row(*row, value).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Generates the inputs of a run from `seed`; `scale` divides the context
/// and step counts (the tests use it).
pub fn inputs(seed: u64, scale: usize) -> Result<Inputs, String> {
    let root = Rng::new(seed);
    let mut rng = root.fork(1);
    let contexts: Vec<(Matrix, Matrix)> = (0..SESSIONS)
        .map(|_| {
            let n = CONTEXT / scale;
            (
                unit_rows(&mut rng, n, D),
                gaussian_matrix(&mut rng, n, D, 1.0),
            )
        })
        .collect();
    let mut shadow = contexts.clone();
    let mut rng = root.fork(2);
    let mut steps = Vec::new();
    for k in 0..SESSIONS * STEPS_PER_SESSION / scale {
        let session = (k / TOKENS_PER_TURN) % SESSIONS;
        let mut step = Step {
            session,
            key: unit_rows(&mut rng, 1, D),
            value: gaussian_matrix(&mut rng, 1, D, 1.0),
            update: None,
            query: Vec::new(),
        };
        if k % UPDATE_EVERY == UPDATE_EVERY - 1 {
            let row = rng.below(shadow[session].0.rows());
            let key = unit_rows(&mut rng, 1, D).as_slice().to_vec();
            let value = gaussian_matrix(&mut rng, 1, D, 1.0).as_slice().to_vec();
            step.update = Some((row, key, value));
        }
        apply(&mut shadow[session], &step)?;
        step.query = peaked_query(&mut rng, &shadow[session].0, SHARPNESS);
        steps.push(step);
    }
    Ok(Inputs { contexts, steps })
}

fn backend() -> Box<dyn ComputeBackend> {
    Box::new(ApproximateBackend::conservative())
}

fn set_up(
    inp: &Inputs,
    recorder: Option<Arc<Recorder>>,
) -> Result<(Harness, Vec<SessionId>), String> {
    let mut h = Harness::build(backend(), recorder, |b| {
        b.batch_policy(BatchPolicy::per_request())
    });
    let mut ids = Vec::new();
    for (keys, values) in &inp.contexts {
        let config = MemoryConfig::new(keys, values);
        ids.push(
            h.call("serve.register", NO_REQUEST, |s| s.register(config))
                .out
                .map_err(|e| e.to_string())?,
        );
    }
    Ok((h, ids))
}

/// Replays passes of the trace, each on a freshly set-up server, until
/// `seconds` of timed phase have passed (at least `min_passes`). Every
/// pass's set-up is timed.
pub fn replay(
    inp: &Inputs,
    recorder: Option<Arc<Recorder>>,
    seconds: f64,
    min_passes: usize,
) -> Result<Replay, String> {
    let mut r = Replay::default();
    let traced = recorder.is_some();
    let probe = backend();
    let (mut dispatch, mut waits, mut profiles) = (Vec::new(), Vec::new(), Vec::new());
    let mut pass = 0;
    while pass < min_passes || r.timed_s < seconds {
        let (mut h, ids) = r.time_setups(1, || set_up(inp, recorder.clone()))?;
        if pass == 0 {
            crate::census(&h.server, "decode-stream");
        }
        let mut probing_s = 0.0;
        r.windows.push(Window::default());
        h.set_timed(true);
        let phase = Instant::now();
        for (k, step) in inp.steps.iter().enumerate() {
            let id = ids[step.session];
            r.attempt(pass);
            let tick = k as u64;
            let append = h.call("serve.append", k as u64, |s| {
                s.append_to_session(id, &step.key, &step.value)
            });
            let mut failed = append.out.is_err();
            if let Some((row, key, value)) = &step.update {
                let update = h.call("serve.update", k as u64, |s| {
                    s.update_session_row(id, *row, key, value)
                });
                failed |= update.out.is_err();
            }
            let request = Request::new(id, step.query.clone(), tick);
            let submit = h.call("serve.submit", k as u64, |s| s.submit(request));
            failed |= submit.out.is_err();
            let flush = h.call("serve.flush", NO_REQUEST, |s| s.flush_all(tick));
            let out = flush
                .out
                .map_err(|e| e.to_string())?
                .pop()
                .and_then(|b| b.responses.into_iter().next());
            match out {
                Some(resp) if !failed => {
                    let latency = us_between(append.start, flush.end);
                    r.answer(pass, latency, SLO_US);
                    if traced {
                        waits.push(us_between(submit.start, flush.start));
                    }
                    if pass == 0 {
                        r.outputs.push(resp.result.output);
                    } else {
                        r.check.check_repeat(&resp.result.output, &r.outputs[k]);
                    }
                }
                _ => {
                    r.errors += 1;
                    if pass == 0 {
                        r.outputs.push(Vec::new());
                    }
                }
            }
            if let Some(session) = h.server.session(id) {
                r.note_served(session.memory(), 1);
                if traced && pass == 0 {
                    let probe_start = Instant::now();
                    let memory = session.memory();
                    dispatch.push((
                        flush.span,
                        singles_us(probe.as_ref(), memory, &[&step.query])?,
                    ));
                    if let Some(whole) = memory.whole().filter(|_| k % 4 == 0) {
                        profiles.push(
                            probe
                                .profile(whole, &step.query)
                                .map_err(|e| e.to_string())?,
                        );
                    }
                    probing_s += probe_start.elapsed().as_secs_f64();
                }
            }
        }
        let seconds = phase.elapsed().as_secs_f64() - probing_s;
        r.windows[pass].seconds = seconds;
        r.timed_s += seconds;
        h.set_timed(false);
        r.busy_s += h.busy().as_secs_f64();
        r.read_counters(&h.server);
        pass += 1;
    }

    verify(inp, &mut r)?;

    if let Some(rec) = recorder {
        r.spans = rec.spans();
        let backend_us: std::collections::HashMap<u32, f64> = r
            .spans
            .iter()
            .filter(|s| s.name == "backend.attend_batch")
            .map(|s| (s.parent, s.us()))
            .collect();
        let dispatch: Vec<f64> = dispatch
            .iter()
            .filter_map(|(flush, singles)| backend_us.get(flush).map(|b| b - singles))
            .collect();
        r.layer
            .push(("backend.dispatch_us".into(), median(&dispatch)));
        r.layer.push(("serve.queue_wait_us".into(), median(&waits)));
        let profiles: Vec<_> = profiles.into_iter().flatten().collect();
        let count = profiles.len().max(1) as f64;
        let frac = |f: fn(&a3::core::backend::WorkProfile) -> usize| {
            profiles
                .iter()
                .map(|p| f(p) as f64 / p.n as f64)
                .sum::<f64>()
                / count
        };
        r.layer
            .push(("approx.candidates_frac".into(), frac(|p| p.candidates)));
        r.layer
            .push(("approx.selected_frac".into(), frac(|p| p.selected)));
    }
    Ok(r)
}

/// Checks the first pass's outputs against exact attention over the
/// session's memory as it stood at each step, rebuilt by replaying the
/// mutations; later passes were checked against the first bit for bit.
///
/// # Errors
///
/// Returns a message if a generated mutation does not fit its memory.
pub fn verify(inp: &Inputs, r: &mut Replay) -> Result<(), String> {
    let mut shadow = inp.contexts.clone();
    for (step, out) in inp.steps.iter().zip(&r.outputs) {
        apply(&mut shadow[step.session], step)?;
        if !out.is_empty() {
            let (keys, values) = &shadow[step.session];
            r.check.check(Check::Finite, out, keys, values, &step.query);
        }
    }
    Ok(())
}
