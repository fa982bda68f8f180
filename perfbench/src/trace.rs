//! Spans recorded from outside the program: around the harness's calls into
//! `AttentionServer`, and around every `ComputeBackend` call the server makes,
//! through [`TracingBackend`].
//!
//! Spans go into memory reserved before the run and are written out when it
//! ends. Recording never touches the server's tick clock, so traced and
//! untraced replays compute the same bits.

use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use a3::core::attention::AttentionResult;
use a3::core::backend::{
    ComputeBackend, IncrementalPrepareStats, PreparedMemory, ShardedMemory, WorkProfile,
};
use a3::core::{AttentionError, Matrix};

/// Parent id of a top-level span.
pub const NO_PARENT: u32 = u32::MAX;
/// Request id of a span that serves no single request.
pub const NO_REQUEST: u64 = u64::MAX;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer and operation, e.g. `serve.submit` or `backend.attend_batch`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The request the span served, or [`NO_REQUEST`].
    pub request: u64,
    /// Whether the span fell in a timed phase (not set-up or verification).
    pub timed: bool,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

#[derive(Debug)]
struct Log {
    spans: Vec<Span>,
    open: u32,
    timed: bool,
    dropped: u64,
}

/// Span storage shared by the harness and the [`TracingBackend`].
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    log: Mutex<Log>,
}

impl Recorder {
    /// A recorder with room for `capacity` spans; spans beyond it are counted
    /// as dropped, never allocated.
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            log: Mutex::new(Log {
                spans: Vec::with_capacity(capacity),
                open: NO_PARENT,
                timed: false,
                dropped: 0,
            }),
        })
    }

    fn log(&self) -> MutexGuard<'_, Log> {
        self.log
            .lock()
            .expect("no recorder user panics while holding the log")
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&self, log: &mut Log, span: Span) -> u32 {
        if log.spans.len() == log.spans.capacity() {
            log.dropped += 1;
            return NO_PARENT;
        }
        log.spans.push(span);
        (log.spans.len() - 1) as u32
    }

    /// Marks whether the spans that follow belong to a timed phase.
    pub fn set_timed(&self, timed: bool) {
        self.log().timed = timed;
    }

    /// Opens a harness span starting at `start`; spans recorded before
    /// [`Recorder::close`] become its children.
    pub fn open(&self, name: &'static str, request: u64, start: Instant) -> u32 {
        let start_ns = self.ns(start);
        let mut log = self.log();
        let span = Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: NO_PARENT,
            request,
            timed: log.timed,
        };
        let id = self.push(&mut log, span);
        log.open = id;
        id
    }

    /// Closes the span `open` returned.
    pub fn close(&self, id: u32, end: Instant) {
        let end_ns = self.ns(end);
        let mut log = self.log();
        if let Some(span) = log.spans.get_mut(id as usize) {
            span.end_ns = end_ns;
        }
        log.open = NO_PARENT;
    }

    /// Records a finished span under the currently open harness span.
    pub fn record(&self, name: &'static str, start: Instant, end: Instant) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let mut log = self.log();
        let span = Span {
            name,
            start_ns,
            end_ns,
            parent: log.open,
            request: NO_REQUEST,
            timed: log.timed,
        };
        self.push(&mut log, span);
    }

    /// A copy of every recorded span, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.log().spans.clone()
    }

    /// Spans that did not fit in the reserved memory.
    pub fn dropped(&self) -> u64 {
        self.log().dropped
    }

    /// Writes the spans as tab-separated lines:
    /// `id name start_ns end_ns parent request timed`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of creating or writing the file.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\trequest\ttimed")?;
        for (id, s) in self.log().spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let request = if s.request == NO_REQUEST {
                -1
            } else {
                s.request as i64
            };
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{parent}\t{request}\t{}",
                s.name, s.start_ns, s.end_ns, s.timed
            )?;
        }
        out.flush()
    }
}

/// A `ComputeBackend` that forwards every call unchanged to the backend it
/// wraps and records one span per call. `name` is forwarded too, so cache
/// keys are the wrapped backend's.
pub struct TracingBackend {
    inner: Box<dyn ComputeBackend>,
    recorder: Arc<Recorder>,
}

impl TracingBackend {
    /// Wraps `inner`, recording into `recorder`.
    pub fn new(inner: Box<dyn ComputeBackend>, recorder: Arc<Recorder>) -> Self {
        Self { inner, recorder }
    }

    fn span<T>(&self, name: &'static str, call: impl FnOnce(&dyn ComputeBackend) -> T) -> T {
        let start = Instant::now();
        let out = call(self.inner.as_ref());
        self.recorder.record(name, start, Instant::now());
        out
    }
}

impl ComputeBackend for TracingBackend {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn prepare(&self, keys: &Matrix, values: &Matrix) -> Result<PreparedMemory, AttentionError> {
        self.span("backend.prepare", |b| b.prepare(keys, values))
    }

    fn append_rows(
        &self,
        memory: &mut PreparedMemory,
        new_keys: &Matrix,
        new_values: &Matrix,
    ) -> Result<IncrementalPrepareStats, AttentionError> {
        self.span("backend.append", |b| {
            b.append_rows(memory, new_keys, new_values)
        })
    }

    fn update_row(
        &self,
        memory: &mut PreparedMemory,
        row: usize,
        key: &[f32],
        value: &[f32],
    ) -> Result<IncrementalPrepareStats, AttentionError> {
        self.span("backend.update", |b| b.update_row(memory, row, key, value))
    }

    fn attend_prepared(
        &self,
        memory: &PreparedMemory,
        query: &[f32],
    ) -> Result<AttentionResult, AttentionError> {
        self.span("backend.attend_prepared", |b| {
            b.attend_prepared(memory, query)
        })
    }

    fn attend_batch_prepared(
        &self,
        memory: &PreparedMemory,
        queries: &[&[f32]],
    ) -> Result<Vec<AttentionResult>, AttentionError> {
        self.span("backend.attend_batch", |b| {
            b.attend_batch_prepared(memory, queries)
        })
    }

    fn attend_sharded(
        &self,
        memory: &ShardedMemory,
        query: &[f32],
    ) -> Result<AttentionResult, AttentionError> {
        self.span("backend.attend_sharded_one", |b| {
            b.attend_sharded(memory, query)
        })
    }

    fn attend_batch_sharded(
        &self,
        memory: &ShardedMemory,
        queries: &[&[f32]],
    ) -> Result<Vec<AttentionResult>, AttentionError> {
        self.span("backend.attend_sharded", |b| {
            b.attend_batch_sharded(memory, queries)
        })
    }

    fn profile(
        &self,
        memory: &PreparedMemory,
        query: &[f32],
    ) -> Result<Option<WorkProfile>, AttentionError> {
        self.span("backend.profile", |b| b.profile(memory, query))
    }

    fn attend(
        &self,
        keys: &Matrix,
        values: &Matrix,
        query: &[f32],
    ) -> Result<AttentionResult, AttentionError> {
        self.span("backend.attend", |b| b.attend(keys, values, query))
    }

    fn attend_batch(
        &self,
        keys: &Matrix,
        values: &Matrix,
        queries: &Matrix,
    ) -> Result<Vec<AttentionResult>, AttentionError> {
        self.span("backend.attend_batch_oneshot", |b| {
            b.attend_batch(keys, values, queries)
        })
    }
}
