//! `tenant-qa`: open-loop question answering for three tenants over a few
//! hundred quantized memories.
//!
//! Arrivals are Poisson at a fixed rate, about half of the capacity this
//! mix keeps on a 2-vCPU AVX2 host when the host runs slow (see
//! `CAPACITY.md`). Memories come from the `a3-workloads` generators at the
//! paper's sizes, plus a stated share of traffic on 513×64 and 320×128, two
//! shapes that miss the vectorised quantized datapath. The
//! Background tenant offers twice its rate limit, and a trickle of
//! registrations draws documents from a pool, so the cache both hits and
//! misses. The per-request `serve` path, batch dispatch, the quantized
//! kernels and `MemoryCache` do the work here; the approximate and
//! incremental code do none.

use std::sync::Arc;
use std::time::Instant;

use a3::core::backend::{ComputeBackend, QuantizedBackend};
use a3::core::serve::{
    BatchPolicy, MemoryConfig, Priority, RateLimit, Request, SessionId, TenantConfig, TenantId,
};
use a3::core::{Matrix, ServeError};
use a3::workloads::bert::BertLite;
use a3::workloads::kvmemn2n::KvMemN2N;
use a3::workloads::memn2n::MemN2N;
use a3::workloads::squad::SquadGenerator;
use a3::workloads::wikimovies::WikiMoviesGenerator;
use a3::workloads::{AttentionCase, Workload};

use crate::harness::{singles_us, us_between, Clock, Harness, Replay, Window};
use crate::report::{median, percentile};
use crate::rng::{cdf, perturb_vec, zipf, Rng};
use crate::trace::{Recorder, NO_REQUEST};
use crate::verify::{Check, Verdict};

/// Offered request rate: a quarter of the sustainable rate that
/// `CAPACITY.md` measured, so half of it when the host runs two to three
/// times slower, as it did for minutes at a time. At half the measured rate
/// such a stretch overloaded the server and queues grew for the whole run.
pub const RATE_PER_S: f64 = 2500.0;
/// Latency limit of `slo_frac`: about 1.5 times the median `p90_us` in
/// `SPREAD.md`.
pub const SLO_US: f64 = 240.0;
/// Batch policy: a request is due as soon as it arrives, and a batch takes
/// up to 8 requests of one session that queued while the server was busy.
/// No request waits on a timer, so latency is queueing plus service.
const MAX_BATCH: usize = 8;
const WINDOW_US: u64 = 0;
/// Zipf exponent of session popularity within each (shape, tenant) group.
/// The hot sessions' memories then stay in the core's caches, where the
/// load of other machines on the shared host reaches them less: with 0.8,
/// whole runs read up to half again slower than their neighbours.
const SESSION_ZIPF_S: f64 = 1.4;
/// Zipf exponent of document popularity in the registration pool. Below 1,
/// so registrations both hit and miss the cache.
const DOC_ZIPF_S: f64 = 0.8;
/// Seconds of arrivals in one window. The host's speed changes every few
/// tenths of a second; a window this short mostly sees one speed.
const WINDOW_S: f64 = 0.1;
/// Registrations of pool documents per second.
const REGISTER_PER_S: f64 = 20.0;
const DOC_POOL: usize = 32;
const CACHE_CAPACITY: usize = 64;

/// Raw ids of the High, Normal and Background tenants.
const TENANTS: [u64; 3] = [1, 2, 3];
/// Traffic shares of High, Normal and Background.
const TENANT_SHARE: [f64; 3] = [0.25, 0.55, 0.20];
/// Tenant (index into [`TENANTS`]) of each class's sessions, repeating:
/// 5 High, 11 Normal and 4 Background in 20, every tenant among the first 3.
const TENANT_OF: [usize; 20] = [0, 1, 2, 1, 1, 0, 1, 2, 1, 1, 0, 1, 2, 1, 1, 0, 1, 1, 2, 0];

/// A memory shape class with its share of traffic and of sessions.
struct Class {
    name: &'static str,
    share: f64,
    sessions: usize,
    /// Relative L2 error against exact below which a quantized output of
    /// this class passes: about 1.5 times the largest error measured on
    /// correct outputs (`SPREAD.md`), and below 1.0, the error of an
    /// all-zero output.
    tolerance: f64,
}

const CLASSES: [Class; 5] = [
    Class {
        name: "memn2n",
        share: 0.30,
        sessions: 90,
        tolerance: 0.25,
    },
    Class {
        name: "kv-memn2n",
        share: 0.25,
        sessions: 75,
        tolerance: 0.45,
    },
    Class {
        name: "320x64",
        share: 0.25,
        sessions: 75,
        tolerance: 0.9,
    },
    Class {
        name: "513x64",
        share: 0.10,
        sessions: 30,
        tolerance: 0.95,
    },
    Class {
        name: "320x128",
        share: 0.10,
        sessions: 30,
        tolerance: 0.55,
    },
];

/// Sizes of one replay; the tests shrink them.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Seconds of arrivals.
    pub seconds: f64,
    /// Divides every class's session count.
    pub session_divisor: usize,
    /// Offered requests per second.
    pub rate_per_s: f64,
}

struct SessionInput {
    keys: Matrix,
    values: Matrix,
    tenant: TenantId,
    class: usize,
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Query { session: u32, query: u32 },
    Register { doc: u32 },
}

/// The generated inputs of one run.
pub struct Inputs {
    sessions: Vec<SessionInput>,
    docs: Vec<(Matrix, Matrix)>,
    /// (scheduled µs, op), in time order.
    schedule: Vec<(u64, Op)>,
    /// Query vectors, indexed by `Op::Query::query`.
    queries: Vec<Vec<f32>>,
    /// Scheduled µs of each query.
    sent_at: Vec<u64>,
    /// Session of each query.
    query_session: Vec<u32>,
    /// Microseconds of arrivals.
    horizon_us: f64,
    /// Offered requests per second.
    rate_per_s: f64,
}

/// A memory with the query its task asks of it.
type Document = (Matrix, Matrix, Vec<f32>);

/// The first document of class `class` that generator seed `seed` makes.
fn generate(class: usize, seed: u64) -> Document {
    let first = |mut cases: Vec<AttentionCase>| {
        let c = cases.swap_remove(0);
        (c.keys, c.values, c.query)
    };
    match class {
        0 => first(MemN2N::new(seed).attention_cases(1)),
        1 => {
            let kb = WikiMoviesGenerator::new(seed).generate(0);
            let model = KvMemN2N::new(seed);
            let (keys, values) = model.memory(&kb);
            (keys, values, model.query(&kb.questions[0]))
        }
        2 => first(BertLite::new(seed).attention_cases(1)),
        3 => first(
            BertLite::with_config(64, 1, SquadGenerator::with_lengths(seed, 497, 16), seed)
                .attention_cases(1),
        ),
        _ => {
            first(BertLite::with_config(128, 1, SquadGenerator::new(seed), seed).attention_cases(1))
        }
    }
}

/// `count` distinct documents of `class`, each from its own generator seed
/// (and so its own embedding space) derived from `seed`. Quantization error
/// depends on the embedding space; drawing every document from a different
/// one keeps `out_rel_err` from swinging with the run's seed.
fn documents(seed: u64, class: usize, count: usize) -> Vec<Document> {
    let mut seeds = Rng::new(seed).fork(100 + class as u64);
    (0..count)
        .map(|_| generate(class, seeds.next_u64()))
        .collect()
}

/// Generates the inputs of a run from `seed`.
pub fn inputs(seed: u64, scale: Scale) -> Inputs {
    let root = Rng::new(seed);
    let counts = CLASSES.map(|c| c.sessions.div_ceil(scale.session_divisor));
    let mut documents: Vec<Vec<Document>> = (0..CLASSES.len())
        .map(|c| documents(seed, c, counts[c] + if c == 1 { DOC_POOL } else { 0 }))
        .collect();
    let docs = documents[1]
        .split_off(counts[1])
        .into_iter()
        .map(|(keys, values, _)| (keys, values))
        .collect();
    let mut sessions = Vec::new();
    let mut base_query = Vec::new();
    let mut groups = vec![vec![Vec::new(); 3]; CLASSES.len()];
    for (c, class_documents) in documents.into_iter().enumerate() {
        for (j, (keys, values, query)) in class_documents.into_iter().enumerate() {
            let t = TENANT_OF[j % TENANT_OF.len()];
            groups[c][t].push(sessions.len() as u32);
            sessions.push(SessionInput {
                keys,
                values,
                tenant: TenantId::from_raw(TENANTS[t]),
                class: c,
            });
            base_query.push(query);
        }
    }

    let class_cdf = cdf(CLASSES.iter().map(|c| c.share));
    let tenant_cdf = cdf(TENANT_SHARE);
    let popularity: Vec<Vec<Vec<f64>>> = groups
        .iter()
        .map(|by_tenant| {
            by_tenant
                .iter()
                .map(|g| zipf(g.len(), SESSION_ZIPF_S))
                .collect()
        })
        .collect();
    let mut arrivals = root.fork(2);
    let horizon = scale.seconds * 1e6;
    let mut schedule = Vec::new();
    let (mut queries, mut sent_at, mut query_session) = (Vec::new(), Vec::new(), Vec::new());
    let mut t = arrivals.exponential(1e6 / scale.rate_per_s);
    while t < horizon {
        let (c, tenant) = (arrivals.pick(&class_cdf), arrivals.pick(&tenant_cdf));
        let session = groups[c][tenant][arrivals.pick(&popularity[c][tenant])];
        let q = &base_query[session as usize];
        let noise = 0.05 * (q.iter().map(|x| x * x).sum::<f32>() / q.len() as f32).sqrt();
        schedule.push((
            t as u64,
            Op::Query {
                session,
                query: queries.len() as u32,
            },
        ));
        queries.push(perturb_vec(&mut arrivals, q, noise));
        sent_at.push(t as u64);
        query_session.push(session);
        t += arrivals.exponential(1e6 / scale.rate_per_s);
    }
    let mut registrations = root.fork(3);
    let doc_cdf = zipf(DOC_POOL, DOC_ZIPF_S);
    let mut t = registrations.exponential(1e6 / REGISTER_PER_S);
    while t < horizon {
        let doc = registrations.pick(&doc_cdf) as u32;
        schedule.push((t as u64, Op::Register { doc }));
        t += registrations.exponential(1e6 / REGISTER_PER_S);
    }
    schedule.sort_by_key(|&(t, _)| t);
    Inputs {
        sessions,
        docs,
        schedule,
        queries,
        sent_at,
        query_session,
        horizon_us: horizon,
        rate_per_s: scale.rate_per_s,
    }
}

fn backend() -> Box<dyn ComputeBackend> {
    Box::new(QuantizedBackend::paper())
}

/// Builds the server and registers every session: the timed set-up.
fn set_up(
    inp: &Inputs,
    recorder: Option<Arc<Recorder>>,
) -> Result<(Harness, Vec<SessionId>), String> {
    // Background is limited to half of what it offers.
    let background_limit = (inp.rate_per_s * TENANT_SHARE[2] / 2.0) as u64;
    let background = RateLimit::new(background_limit, 1_000_000, 8).map_err(|e| e.to_string())?;
    let policy = BatchPolicy::new(MAX_BATCH, WINDOW_US).map_err(|e| e.to_string())?;
    let [high, normal, background_id] = TENANTS.map(TenantId::from_raw);
    let mut h = Harness::build(backend(), recorder, |b| {
        b.batch_policy(policy)
            .cache_capacity(CACHE_CAPACITY)
            .tenant(high, TenantConfig::new(Priority::High))
            .tenant(normal, TenantConfig::new(Priority::Normal))
            .tenant(
                background_id,
                TenantConfig::new(Priority::Background).with_rate_limit(background),
            )
    });
    let mut ids = Vec::with_capacity(inp.sessions.len());
    for s in &inp.sessions {
        let config = MemoryConfig::new(&s.keys, &s.values).tenant(s.tenant);
        let id = h.call("serve.register", NO_REQUEST, |srv| srv.register(config));
        ids.push(id.out.map_err(|e| e.to_string())?);
    }
    Ok((h, ids))
}

/// One batch the traced run executed, kept for the dispatch probe.
struct Batch {
    session: SessionId,
    queries: Vec<u32>,
    backend_us: f64,
}

/// Replays the inputs against a fresh server. Of `setups` timed set-ups,
/// the larger half run before the timed phase, the last of them serving it,
/// and the rest after it.
pub fn replay(
    inp: &Inputs,
    recorder: Option<Arc<Recorder>>,
    clock: Clock,
    setups: usize,
) -> Result<Replay, String> {
    let mut r = Replay::default();
    let before = setups.div_ceil(2);
    let (mut h, ids) = r.time_setups(before, || set_up(inp, recorder.clone()))?;
    crate::census(&h.server, "tenant-qa");
    let traced = recorder.is_some();

    r.outputs = vec![Vec::new(); inp.queries.len()];
    let mut request_query: Vec<u32> = Vec::with_capacity(inp.queries.len());
    let mut lags = Vec::with_capacity(if traced { inp.queries.len() } else { 0 });
    let mut waits = Vec::new();
    let mut batches = Vec::new();
    // A request belongs to the window of its scheduled send time.
    let windows = (inp.horizon_us / 1e6 / WINDOW_S).floor().max(1.0);
    let window_us = inp.horizon_us / windows;
    r.windows = vec![
        Window {
            seconds: window_us / 1e6,
            ..Window::default()
        };
        windows as usize
    ];
    let window_of = |sent_us: f64| ((sent_us / window_us) as usize).min(windows as usize - 1);
    let mut next = 0;
    let mut vnow = 0u64;
    h.set_timed(true);
    let start = Instant::now();
    loop {
        let now = match clock {
            Clock::Wall => start.elapsed().as_micros() as u64,
            Clock::Logical => vnow,
        };
        // Every op whose time has come is sent before due batches run, as
        // requests queue in a socket while the server computes.
        if let Some(&(at, op)) = inp.schedule.get(next).filter(|(at, _)| *at <= now) {
            next += 1;
            match op {
                Op::Query { session, query } => {
                    r.attempt(window_of(at as f64));
                    if traced {
                        lags.push((now - at) as f64);
                    }
                    let request = Request::new(
                        ids[session as usize],
                        inp.queries[query as usize].clone(),
                        at,
                    );
                    match h
                        .call("serve.submit", u64::from(query), |s| s.submit(request))
                        .out
                    {
                        Ok(id) => {
                            debug_assert_eq!(id.raw() as usize, request_query.len());
                            request_query.push(query);
                        }
                        Err(ServeError::Throttled { .. }) => r.throttled += 1,
                        Err(_) => r.errors += 1,
                    }
                }
                Op::Register { doc } => {
                    let (keys, values) = &inp.docs[doc as usize];
                    let config =
                        MemoryConfig::new(keys, values).tenant(TenantId::from_raw(TENANTS[1]));
                    if h.call("serve.register", NO_REQUEST, |s| s.register(config))
                        .out
                        .is_err()
                    {
                        r.errors += 1;
                    }
                }
            }
            continue;
        }
        if h.server.next_due().is_some_and(|due| due <= now) {
            let call = h.call("serve.poll", NO_REQUEST, |s| s.poll(now));
            let done = us_between(start, call.end);
            let poll_start = us_between(start, call.start);
            for batch in call.out.map_err(|e| e.to_string())? {
                if let Some(session) = h.server.session(batch.session) {
                    r.note_served(session.memory(), batch.responses.len());
                }
                let mut members = Vec::with_capacity(batch.responses.len());
                for resp in batch.responses {
                    let query = request_query[resp.request.raw() as usize];
                    let sent = inp.sent_at[query as usize] as f64;
                    r.answer(window_of(sent), done - sent, SLO_US);
                    if traced {
                        waits.push(poll_start - sent);
                        members.push(query);
                    }
                    r.outputs[query as usize] = resp.result.output;
                }
                if traced {
                    batches.push(Batch {
                        session: batch.session,
                        queries: members,
                        backend_us: 0.0,
                    });
                }
            }
            continue;
        }
        if next == inp.schedule.len() && h.server.pending() == 0 {
            break;
        }
        let target = [
            inp.schedule.get(next).map(|&(at, _)| at),
            h.server.next_due(),
        ]
        .into_iter()
        .flatten()
        .min()
        .unwrap_or(now);
        match clock {
            Clock::Wall => {
                while (start.elapsed().as_micros() as u64) < target {
                    std::hint::spin_loop();
                }
            }
            Clock::Logical => vnow = vnow.max(target),
        }
    }
    r.timed_s = start.elapsed().as_secs_f64();
    h.set_timed(false);
    r.busy_s = h.busy().as_secs_f64();
    r.read_counters(&h.server);
    // An admitted request the server never answered is a failure.
    let answered = r.outputs.iter().filter(|o| !o.is_empty()).count();
    r.errors += request_query.len().saturating_sub(answered) as u64;
    verify(inp, &mut r);

    if let Some(rec) = recorder {
        r.spans = rec.spans();
        attach_backend_times(&mut batches, &r.spans);
        layer_metrics(&mut r, &h, inp, &batches, &lags, &waits)?;
    }
    drop(h);
    r.time_more_setups(setups.saturating_sub(before), || set_up(inp, None))?;
    Ok(r)
}

/// Checks every returned output against exact attention, after the timed
/// phase, and prints the error per shape class.
pub fn verify(inp: &Inputs, r: &mut Replay) {
    let mut by_class = [Verdict::default(); CLASSES.len()];
    for (query, out) in r.outputs.iter().enumerate() {
        if out.is_empty() {
            continue;
        }
        let s = &inp.sessions[inp.query_session[query] as usize];
        let check = Check::WithinTolerance(CLASSES[s.class].tolerance);
        by_class[s.class].check(check, out, &s.keys, &s.values, &inp.queries[query]);
    }
    for (class, v) in CLASSES.iter().zip(&by_class) {
        eprintln!(
            "tenant-qa {}: {} checked, {} failed, relative error mean {:.4} max {:.4}",
            class.name,
            v.checked,
            v.failed,
            v.mean_rel_err(),
            v.max_rel_err
        );
        r.check.merge(v);
    }
}

/// Gives each traced batch the duration of the backend call that ran it:
/// the `k`-th backend child of a poll span ran the poll's `k`-th batch.
fn attach_backend_times(batches: &mut [Batch], spans: &[crate::trace::Span]) {
    let children = spans
        .iter()
        .filter(|s| {
            s.timed && s.parent != crate::trace::NO_PARENT && s.name.starts_with("backend.attend")
        })
        .map(crate::trace::Span::us);
    for (batch, us) in batches.iter_mut().zip(children) {
        batch.backend_us = us;
    }
}

fn layer_metrics(
    r: &mut Replay,
    h: &Harness,
    inp: &Inputs,
    batches: &[Batch],
    lags: &[f64],
    waits: &[f64],
) -> Result<(), String> {
    let probe = backend();
    let mut dispatch = Vec::with_capacity(batches.len());
    let mut per_shape: [Vec<f64>; 5] = Default::default();
    for b in batches {
        let Some(session) = h.server.session(b.session) else {
            continue;
        };
        let queries: Vec<&[f32]> = b
            .queries
            .iter()
            .map(|&q| inp.queries[q as usize].as_slice())
            .collect();
        let singles = singles_us(probe.as_ref(), session.memory(), &queries)?;
        dispatch.push(b.backend_us - singles);
        let class = b
            .queries
            .first()
            .map(|&q| inp.sessions[inp.query_session[q as usize] as usize].class);
        if let Some(c) = class {
            per_shape[c].push(singles / queries.len() as f64);
        }
    }
    r.layer
        .push(("backend.dispatch_us".into(), median(&dispatch)));
    // The memory-network classes vary in n; the other three are one shape each.
    for (class, times) in CLASSES.iter().zip(&per_shape).skip(2) {
        let name = format!("quantized.query_us.{}", class.name);
        r.layer.push((name, median(times)));
    }
    r.layer.push(("serve.queue_wait_us".into(), median(waits)));
    r.layer
        .push(("harness.lag_p90_us".into(), percentile(lags, 90.0)));
    Ok(())
}
