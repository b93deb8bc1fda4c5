//! Spans recorded by the benchmark around its own calls into the layers.
//!
//! Spans live in memory and are written out once, when the run ends. Two
//! kinds of record sit beside ordinary spans:
//!
//! * an **aggregate** child stands for many short calls made inside its
//!   parent (every index lookup of a map phase): one record carrying the
//!   call count, laid at the parent's start with the summed busy time as
//!   its length, so a span per lookup is never allocated;
//! * a **replay** is a layer's public function called standalone, after
//!   the iteration, on the inputs the job used. It has no parent and its
//!   time is kept out of the iteration's wall time.

use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use efind::{IndexAccessor, LookupResult, PartitionScheme};
use efind_cluster::SimDuration;
use efind_common::{Datum, KeyKind};

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `mapreduce.execute_maps`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Iteration the span belongs to (spans of one iteration share it).
    pub iter: u32,
    /// Calls the record stands for (1 for an ordinary span).
    pub calls: u64,
    /// Aggregate child or replay, see the module documentation.
    pub kind: SpanKind,
}

/// What a [`Span`] record stands for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// One call, timed where it happened.
    Call,
    /// Many calls inside the parent, summed.
    Aggregate,
    /// A standalone re-execution after the iteration.
    Replay,
}

impl Span {
    /// Length in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder for one process.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    iter: u32,
    iter_started_ns: u64,
    iter_excluded_ns: u64,
    /// When the iteration clock was stopped, while it is.
    paused_since_ns: Option<u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            iter: 0,
            iter_started_ns: 0,
            iter_excluded_ns: 0,
            paused_since_ns: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts iteration `iter`: later spans carry its number.
    pub fn start_iteration(&mut self, iter: u32) {
        self.iter = iter;
        self.iter_started_ns = self.now_ns();
        self.iter_excluded_ns = 0;
        self.paused_since_ns = None;
    }

    /// Wall time of the current iteration so far, without the time the
    /// iteration clock stood still.
    pub fn iteration_ns(&self) -> u64 {
        (self.now_ns() - self.iter_started_ns).saturating_sub(self.iter_excluded_ns)
    }

    /// Stops the iteration clock until [`Tracer::resume`]: replays, and
    /// the bench-side bookkeeping around them (copying inputs, dropping
    /// results), belong to no layer and not to the iteration.
    pub fn pause(&mut self) {
        assert!(self.paused_since_ns.is_none(), "pause while paused");
        self.paused_since_ns = Some(self.now_ns());
    }

    /// Ends a [`Tracer::pause`].
    pub fn resume(&mut self) {
        let since = self.paused_since_ns.take().expect("resume without pause");
        self.iter_excluded_ns += self.now_ns() - since;
    }

    /// Summed length of iteration `iter`'s top-level spans.
    pub fn top_level_ns(&self, iter: u32) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.iter == iter && s.parent.is_none() && s.kind == SpanKind::Call)
            .map(Span::ns)
            .sum()
    }

    /// Opens a span under the innermost open one; close it with
    /// [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            iter: self.iter,
            calls: 1,
            kind: SpanKind::Call,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one, and returns
    /// its length in nanoseconds.
    pub fn end(&mut self, id: usize) -> u64 {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].ns()
    }

    /// Times `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.begin(name);
        let out = f();
        (out, self.end(id))
    }

    /// Records `calls` short calls that together kept `busy_ns` of span
    /// `parent` busy.
    pub fn aggregate(&mut self, name: &'static str, parent: usize, busy_ns: u64, calls: u64) {
        let start = self.spans[parent].start_ns;
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start + busy_ns,
            parent: Some(parent),
            iter: self.iter,
            calls,
            kind: SpanKind::Aggregate,
        });
    }

    /// Times `f` as a replay. Call it with the iteration clock paused.
    /// Returns `f`'s value and its length in nanoseconds.
    pub fn replay<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        debug_assert!(self.paused_since_ns.is_some(), "replay on a running clock");
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: end,
            parent: None,
            iter: self.iter,
            calls: 1,
            kind: SpanKind::Replay,
        });
        (out, end - start)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Span `id` as an interval.
    pub fn interval(&self, id: usize) -> crate::stats::Interval {
        (self.spans[id].start_ns, self.spans[id].end_ns)
    }

    /// Direct children of span `id`, as intervals.
    pub fn children_of(&self, id: usize) -> Vec<crate::stats::Interval> {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns, s.end_ns))
            .collect()
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let kind = match s.kind {
                SpanKind::Call => "call",
                SpanKind::Aggregate => "aggregate",
                SpanKind::Replay => "replay",
            };
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"workload\": \"{workload}\", \"iter\": {}, \
                 \"calls\": {}, \"kind\": \"{kind}\"}}",
                s.name, s.start_ns, s.end_ns, s.iter, s.calls
            )?;
        }
        out.flush()
    }
}

/// Busy time, call count and bytes returned, shared by every
/// [`TimedAccessor`] of one job.
#[derive(Default)]
pub struct AccessorClock {
    busy_ns: AtomicU64,
    calls: AtomicU64,
    bytes: AtomicU64,
}

/// What an [`AccessorClock`] held when it was read.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccessorReading {
    /// Nanoseconds spent inside `lookup` / `try_lookup`.
    pub busy_ns: u64,
    /// Lookups served.
    pub calls: u64,
    /// Bytes of the values returned.
    pub bytes: u64,
}

impl AccessorClock {
    /// Reads and zeroes the clock.
    pub fn take(&self) -> AccessorReading {
        // Statistics only; the worker threads that wrote them were joined
        // before anyone reads, so `Relaxed` suffices.
        AccessorReading {
            busy_ns: self.busy_ns.swap(0, Ordering::Relaxed),
            calls: self.calls.swap(0, Ordering::Relaxed),
            bytes: self.bytes.swap(0, Ordering::Relaxed),
        }
    }

    fn note(&self, started: Instant, values: &[Datum]) {
        self.busy_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        let bytes: u64 = values.iter().map(Datum::size_bytes).sum();
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
    }
}

/// A transparent timing wrapper at the `IndexAccessor` boundary: forwards
/// every method unchanged and notes the time and volume of each lookup.
pub struct TimedAccessor {
    inner: Arc<dyn IndexAccessor>,
    clock: Arc<AccessorClock>,
}

impl TimedAccessor {
    /// Wraps `inner`, reporting into `clock`.
    pub fn wrap(
        inner: Arc<dyn IndexAccessor>,
        clock: Arc<AccessorClock>,
    ) -> Arc<dyn IndexAccessor> {
        Arc::new(TimedAccessor { inner, clock })
    }
}

impl IndexAccessor for TimedAccessor {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn lookup(&self, key: &Datum) -> Vec<Datum> {
        let started = Instant::now();
        let values = self.inner.lookup(key);
        self.clock.note(started, &values);
        values
    }

    fn try_lookup(&self, key: &Datum) -> LookupResult {
        let started = Instant::now();
        let result = self.inner.try_lookup(key);
        match &result {
            LookupResult::Hit(values) => self.clock.note(started, values),
            LookupResult::Miss | LookupResult::Failed(_) => self.clock.note(started, &[]),
        }
        result
    }

    fn serve_time(&self, key: &Datum, result_bytes: u64) -> SimDuration {
        self.inner.serve_time(key, result_bytes)
    }

    fn partition_scheme(&self) -> Option<Arc<dyn PartitionScheme>> {
        self.inner.partition_scheme()
    }

    fn deterministic(&self) -> bool {
        self.inner.deterministic()
    }

    fn key_kind(&self) -> KeyKind {
        self.inner.key_kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_aggregate_children_cover_their_parent() {
        let mut t = Tracer::new();
        t.start_iteration(3);
        let outer = t.begin("outer");
        let ((), inner_ns) = t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.aggregate("lookups", outer, 500, 7);
        let outer_ns = t.end(outer);
        assert!(outer_ns >= inner_ns);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(outer));
        assert_eq!(spans[2].parent, Some(outer));
        assert_eq!((spans[2].calls, spans[2].ns()), (7, 500));
        assert!(spans.iter().all(|s| s.iter == 3));
        assert_eq!(t.children_of(outer).len(), 2);
    }

    #[test]
    fn a_paused_clock_keeps_replays_out_of_the_iteration() {
        let mut t = Tracer::new();
        t.start_iteration(0);
        let nap = std::time::Duration::from_millis(5);
        t.pause();
        let ((), replay_ns) = t.replay("replay", || std::thread::sleep(nap));
        std::thread::sleep(nap);
        t.resume();
        assert!(replay_ns >= 5_000_000);
        assert!(t.iteration_ns() < 5_000_000, "{}", t.iteration_ns());
        assert_eq!(t.spans()[0].kind, SpanKind::Replay);
        // Replays are not top-level spans of the iteration.
        let ((), ns) = t.span("work", || std::thread::sleep(nap));
        assert_eq!(t.top_level_ns(0), ns);
        assert_eq!(t.top_level_ns(1), 0);
    }
}
