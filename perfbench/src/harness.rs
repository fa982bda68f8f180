//! The harness side of a replay: timed calls into `AttentionServer`, the
//! clock the open loop runs on, and what a replay hands back for reporting.

use std::sync::Arc;
use std::time::{Duration, Instant};

use a3::core::backend::{ComputeBackend, PreparedMemory};
use a3::core::serve::{AttentionServer, ServerBuilder, ServerStats, SessionMemory};

use crate::trace::{Recorder, Span, TracingBackend, NO_PARENT};
use crate::verify::Verdict;

/// The result of one call into the server, with its wall-clock interval.
#[derive(Debug)]
pub struct Timed<T> {
    /// What the server returned.
    pub out: T,
    /// When the call started.
    pub start: Instant,
    /// When the call returned.
    pub end: Instant,
    /// The span recorded for the call, or [`NO_PARENT`] when untraced.
    pub span: u32,
}

/// An `AttentionServer` plus the timing around every call into it.
pub struct Harness {
    /// The server under test.
    pub server: AttentionServer,
    recorder: Option<Arc<Recorder>>,
    busy: Duration,
}

impl Harness {
    /// Builds a server around `backend`; with a recorder, the backend is
    /// wrapped in a [`TracingBackend`] first.
    pub fn build(
        backend: Box<dyn ComputeBackend>,
        recorder: Option<Arc<Recorder>>,
        configure: impl FnOnce(ServerBuilder) -> ServerBuilder,
    ) -> Self {
        let backend: Box<dyn ComputeBackend> = match &recorder {
            Some(r) => Box::new(TracingBackend::new(backend, Arc::clone(r))),
            None => backend,
        };
        Self {
            server: configure(AttentionServer::builder(backend)).build(),
            recorder,
            busy: Duration::ZERO,
        }
    }

    /// Times `op` against the server and records it as span `name`.
    pub fn call<T>(
        &mut self,
        name: &'static str,
        request: u64,
        op: impl FnOnce(&mut AttentionServer) -> T,
    ) -> Timed<T> {
        let start = Instant::now();
        let span = self
            .recorder
            .as_ref()
            .map_or(NO_PARENT, |r| r.open(name, request, start));
        let out = op(&mut self.server);
        let end = Instant::now();
        if let Some(r) = &self.recorder {
            r.close(span, end);
        }
        self.busy += end - start;
        Timed {
            out,
            start,
            end,
            span,
        }
    }

    /// Starts or ends a timed phase: time spent in calls is summed only
    /// inside one, and spans are marked with it.
    pub fn set_timed(&mut self, timed: bool) {
        if timed {
            self.busy = Duration::ZERO;
        }
        if let Some(r) = &self.recorder {
            r.set_timed(timed);
        }
    }

    /// Wall time spent inside server calls since the timed phase began.
    pub fn busy(&self) -> Duration {
        self.busy
    }
}

/// Where the open loop's notion of "now" comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Microseconds of wall time since the loop started; waiting spins.
    Wall,
    /// Virtual microseconds that jump to the next event, so a replay is
    /// independent of timing (used by the tests).
    Logical,
}

/// Microseconds from `start` to `at`, as a float with sub-µs digits.
pub fn us_between(start: Instant, at: Instant) -> f64 {
    at.saturating_duration_since(start).as_nanos() as f64 / 1e3
}

/// The prepared memories behind a session: one, or one per shard.
pub fn prepared_parts(memory: &SessionMemory) -> Vec<&PreparedMemory> {
    match memory {
        SessionMemory::Whole(m) => vec![m.as_ref()],
        SessionMemory::Sharded(s) => s.shards().iter().map(|shard| shard.memory()).collect(),
    }
}

/// Whether every memory behind a session runs the vectorised quantized
/// datapath.
pub fn is_vectorized(memory: &SessionMemory) -> bool {
    let vector = |m: &PreparedMemory| m.quantized().is_some_and(|q| q.is_vectorized());
    match memory {
        SessionMemory::Whole(m) => vector(m),
        SessionMemory::Sharded(s) => s.shards().iter().all(|shard| vector(shard.memory())),
    }
}

/// Re-runs `queries` one at a time through `backend` (`attend_prepared`, or
/// `attend_sharded` for a sharded session) and returns the total µs: the
/// batch path's time minus this is the cost of batch dispatch.
pub fn singles_us(
    backend: &dyn ComputeBackend,
    memory: &SessionMemory,
    queries: &[&[f32]],
) -> Result<f64, String> {
    let start = Instant::now();
    for q in queries {
        let out = match memory {
            SessionMemory::Whole(m) => backend.attend_prepared(m, q),
            SessionMemory::Sharded(s) => backend.attend_sharded(s, q),
        };
        std::hint::black_box(out.map_err(|e| e.to_string())?);
    }
    Ok(us_between(start, Instant::now()))
}

/// The requests of one slice of a timed phase: a pass of a closed loop, or
/// a tenth of a second of arrivals in the open loop.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Requests attempted, throttled ones included.
    pub attempted: u64,
    /// Latency of every answered request, µs.
    pub latencies_us: Vec<f64>,
    /// Answered requests within the workload's latency limit.
    pub slo_met: u64,
    /// Wall seconds the slice lasted.
    pub seconds: f64,
}

/// Everything one replay of a workload measured.
#[derive(Debug, Default)]
pub struct Replay {
    /// Seconds of each set-up: `ServerBuilder::build` plus the initial
    /// registrations.
    pub setup_s: Vec<f64>,
    /// Wall seconds of the timed phases.
    pub timed_s: f64,
    /// Seconds inside server calls during the timed phases.
    pub busy_s: f64,
    /// Requests attempted, throttled ones included.
    pub attempted: u64,
    /// Requests refused by admission control.
    pub throttled: u64,
    /// Server errors other than throttling.
    pub errors: u64,
    /// Requests and latencies by slice of the timed phase.
    pub windows: Vec<Window>,
    /// Outputs of the first pass, by request index; empty when refused.
    pub outputs: Vec<Vec<f32>>,
    /// Verification of every answered request.
    pub check: Verdict,
    /// Server counters at the end of the last pass.
    pub stats: ServerStats,
    /// Cache hits, misses and updates at the end of the last pass.
    pub cache: [u64; 3],
    /// Offered and throttled requests summed over tenants, last pass.
    pub admission: [u64; 2],
    /// Requests answered from a vectorised quantized memory.
    pub vectorized: u64,
    /// Sum over answered requests of `2·n·d·4`: the bytes of the f32 keys
    /// and values a dense kernel streams (computed, not measured).
    pub dense_bytes: f64,
    /// Per-layer values the workload measured itself (traced runs).
    pub layer: Vec<(String, f64)>,
    /// Recorded spans (traced runs).
    pub spans: Vec<Span>,
}

impl Replay {
    /// Reads the server's counters into the replay.
    pub fn read_counters(&mut self, server: &AttentionServer) {
        self.stats = server.stats();
        let cache = server.cache();
        self.cache = [cache.hits(), cache.misses(), cache.updates()];
        self.admission = server.tenants().fold([0, 0], |acc, (id, _)| {
            let s = server.tenant_stats(id).unwrap_or_default();
            [acc[0] + s.offered, acc[1] + s.throttled]
        });
    }

    /// Runs `set_up` `times` times (at least once), timing each run into
    /// `setup_s`, and returns the last result; earlier ones are dropped
    /// before the next starts.
    pub fn time_setups<T>(
        &mut self,
        times: usize,
        mut set_up: impl FnMut() -> Result<T, String>,
    ) -> Result<T, String> {
        let mut built = None;
        for _ in 0..times.max(1) {
            drop(built.take());
            let start = Instant::now();
            built = Some(set_up()?);
            self.setup_s.push(start.elapsed().as_secs_f64());
        }
        Ok(built.expect("set up at least once"))
    }

    /// Times `times` further set-ups, each dropped when built. A replay runs
    /// them after its timed phase, so that `setup_s` samples the host at
    /// both ends of a run rather than in one stretch before it.
    pub fn time_more_setups<T>(
        &mut self,
        times: usize,
        mut set_up: impl FnMut() -> Result<T, String>,
    ) -> Result<(), String> {
        for _ in 0..times {
            let start = Instant::now();
            let built = set_up()?;
            self.setup_s.push(start.elapsed().as_secs_f64());
            drop(built);
        }
        Ok(())
    }

    /// Counts an attempted request in window `window`.
    pub fn attempt(&mut self, window: usize) {
        self.attempted += 1;
        self.windows[window].attempted += 1;
    }

    /// Records an answered request's latency in window `window`, and
    /// whether it met the limit `slo_us`.
    pub fn answer(&mut self, window: usize, latency_us: f64, slo_us: f64) {
        let w = &mut self.windows[window];
        w.latencies_us.push(latency_us);
        w.slo_met += u64::from(latency_us <= slo_us);
    }

    /// Requests answered.
    pub fn answered(&self) -> usize {
        self.windows.iter().map(|w| w.latencies_us.len()).sum()
    }

    /// Every latency, in window order.
    pub fn latencies(&self) -> Vec<f64> {
        self.windows
            .iter()
            .flat_map(|w| w.latencies_us.iter().copied())
            .collect()
    }

    /// Accounts `count` answered requests against `memory`.
    pub fn note_served(&mut self, memory: &SessionMemory, count: usize) {
        if is_vectorized(memory) {
            self.vectorized += count as u64;
        }
        self.dense_bytes += (count * 2 * memory.n() * memory.d() * 4) as f64;
    }
}
