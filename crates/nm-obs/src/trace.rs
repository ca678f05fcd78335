//! Structured tracing: hierarchical scoped spans and typed events,
//! written as line-JSON to a pluggable sink.
//!
//! The tracer is a process-global installed at runtime (like a logger).
//! When no tracer is installed, every probe — [`span`], [`event`],
//! [`value`] — is a single relaxed atomic load and a predictable
//! branch, so instrumentation can stay in hot paths permanently.
//!
//! Span timing uses a thread-local stack: each guard accumulates its
//! children's wall time so that on drop it can report both `dur_us`
//! (total) and `self_us` (total minus children). Dropped spans also
//! feed a per-thread aggregate map ([`drain_thread_stats`]) that the
//! trainer drains once per epoch to build its telemetry record without
//! re-reading the trace file.
//!
//! ## Line schema (version 1)
//!
//! ```json
//! {"t":"meta","version":1,"clock":"monotonic_us","seq":0}
//! {"t":"span","name":"train.forward","start_us":12,"dur_us":830,"self_us":420,"depth":1,"tid":0,"seq":7}
//! {"t":"event","name":"rollback","at_us":91,"tid":0,"seq":8,"f":{"epoch":3}}
//! ```
//!
//! Timestamps are microseconds since tracer install (monotonic clock).
//! `seq` increases strictly in file order; per-`tid` emit times (span
//! `start_us + dur_us`, event `at_us`) are non-decreasing.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use crate::json::escape;
use crate::metrics::json_f64;
use nm_sync::backend::{lock_recover, read_recover, write_recover};

/// Destination for trace lines. Implementations must be safe to call
/// from multiple threads (emission is additionally serialized by the
/// tracer so that `seq` order matches file order).
pub trait TraceSink: Send + Sync {
    fn write_line(&self, line: &str);
    fn flush(&self) {}
}

/// Sink that appends lines to a buffered file.
pub struct FileSink {
    w: Mutex<BufWriter<File>>,
}

impl FileSink {
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        if let Some(parent) = path.as_ref().parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        Ok(Self {
            w: Mutex::new(BufWriter::new(File::create(path)?)),
        })
    }
}

impl TraceSink for FileSink {
    fn write_line(&self, line: &str) {
        let mut w = lock_recover(&self.w);
        let _ = writeln!(w, "{line}");
    }

    fn flush(&self) {
        let _ = lock_recover(&self.w).flush();
    }
}

/// Sink that keeps lines in memory — for tests and in-process reports.
#[derive(Default)]
pub struct MemorySink {
    lines: Mutex<Vec<String>>,
}

impl MemorySink {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn lines(&self) -> Vec<String> {
        lock_recover(&self.lines).clone()
    }
}

impl TraceSink for MemorySink {
    fn write_line(&self, line: &str) {
        lock_recover(&self.lines).push(line.to_string());
    }
}

struct Tracer {
    sink: Arc<dyn TraceSink>,
    /// Install time in the process clock domain ([`crate::clock`]);
    /// trace timestamps are microseconds since this epoch.
    epoch_us: u64,
    /// Guards both the sequence counter and the sink write, so `seq`
    /// order always matches file order.
    seq: Mutex<u64>,
}

impl Tracer {
    fn now_us(&self) -> u64 {
        crate::clock::now_us().saturating_sub(self.epoch_us)
    }

    fn emit(&self, build: impl FnOnce(u64) -> String) {
        let mut seq = lock_recover(&self.seq);
        let line = build(*seq);
        *seq += 1;
        self.sink.write_line(&line);
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static TRACER: RwLock<Option<Arc<Tracer>>> = RwLock::new(None);
/// Serializes [`scoped`] sections so parallel tests never share a sink.
static INSTALL_LOCK: Mutex<()> = Mutex::new(());

/// Whether a tracer is installed. The only cost instrumented code pays
/// when tracing is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn current() -> Option<Arc<Tracer>> {
    read_recover(&TRACER).clone()
}

/// Installs `sink` as the process-global tracer and writes the meta
/// line. Replaces any previously installed tracer.
pub fn install(sink: Arc<dyn TraceSink>) {
    let tracer = Arc::new(Tracer {
        sink,
        epoch_us: crate::clock::now_us(),
        seq: Mutex::new(0),
    });
    tracer.emit(meta_line);
    *write_recover(&TRACER) = Some(tracer);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Installs a [`FileSink`] writing to `path`.
pub fn init_file<P: AsRef<Path>>(path: P) -> io::Result<()> {
    install(Arc::new(FileSink::create(path)?));
    Ok(())
}

/// Uninstalls the tracer (flushing its sink). Spans still open keep a
/// handle to the old sink and finish writing there.
pub fn shutdown() {
    ENABLED.store(false, Ordering::SeqCst);
    let t = write_recover(&TRACER).take();
    if let Some(t) = t {
        t.sink.flush();
    }
}

/// Runs `f` with `sink` installed, then uninstalls — panic-safe, and
/// serialized against other `scoped` sections. The tracer is still
/// process-wide: while `f` runs, spans and events from every thread go
/// to `sink`, including those of concurrent tests that never call
/// `scoped`. A caller that counts records should keep only its own
/// thread's, by [`tid`]. Thread-local aggregates are cleared on entry
/// so earlier traced work doesn't leak in.
pub fn scoped<R>(sink: Arc<dyn TraceSink>, f: impl FnOnce() -> R) -> R {
    let _lock = INSTALL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    struct Uninstall;
    impl Drop for Uninstall {
        fn drop(&mut self) {
            shutdown();
        }
    }
    let _guard = Uninstall;
    drop(drain_thread_stats());
    install(sink);
    f()
}

static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(u64::MAX) };
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static AGG: RefCell<ThreadStats> = RefCell::new(ThreadStats::default());
}

/// Small dense id for the calling thread, assigned on first use.
pub fn tid() -> u64 {
    TID.with(|t| {
        if t.get() == u64::MAX {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

struct Frame {
    child_us: u64,
}

/// Aggregated timing for one span name on one thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanAgg {
    pub calls: u64,
    pub total_us: u64,
    pub self_us: u64,
}

/// Aggregated samples for one [`value`] name on one thread.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ValueAgg {
    pub sum: f64,
    pub n: u64,
}

impl ValueAgg {
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }
}

/// Everything the calling thread aggregated since the last drain.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ThreadStats {
    pub spans: BTreeMap<String, SpanAgg>,
    pub values: BTreeMap<String, ValueAgg>,
}

impl ThreadStats {
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.values.is_empty()
    }
}

/// Takes and resets the calling thread's aggregates. `None` when
/// nothing was recorded since the last drain.
pub fn drain_thread_stats() -> Option<ThreadStats> {
    let stats = AGG.with(|a| std::mem::take(&mut *a.borrow_mut()));
    if stats.is_empty() {
        None
    } else {
        Some(stats)
    }
}

struct ActiveSpan {
    tracer: Arc<Tracer>,
    name: &'static str,
    start_us: u64,
    depth: usize,
}

/// RAII guard returned by [`span`]; reports the span on drop. Inert
/// (zero bookkeeping) when tracing is disabled.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(a) = self.active.take() else { return };
        let end_us = a.tracer.now_us();
        let dur_us = end_us.saturating_sub(a.start_us);
        let child_us = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let child = s.pop().map(|f| f.child_us).unwrap_or(0);
            if let Some(parent) = s.last_mut() {
                parent.child_us += dur_us;
            }
            child
        });
        let self_us = dur_us.saturating_sub(child_us);
        AGG.with(|agg| {
            agg.borrow_mut()
                .spans
                .entry(a.name.to_string())
                .or_default()
                .add_call(dur_us, self_us);
        });
        let tid = tid();
        a.tracer.emit(|seq| {
            span_line(
                a.name,
                a.start_us,
                dur_us,
                self_us,
                a.depth as u64,
                tid,
                seq,
            )
        });
    }
}

impl SpanAgg {
    fn add_call(&mut self, dur_us: u64, self_us: u64) {
        self.calls += 1;
        self.total_us += dur_us;
        self.self_us += self_us;
    }
}

/// Opens a scoped span named `name`; it closes (and is reported) when
/// the returned guard drops. Names are `&'static str` by design: span
/// names form a fixed vocabulary documented in DESIGN.md, not dynamic
/// data (put dynamic data in [`event`] fields).
#[must_use = "a span measures until the guard is dropped"]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { active: None };
    }
    let Some(tracer) = current() else {
        return SpanGuard { active: None };
    };
    let depth = STACK.with(|s| {
        let mut s = s.borrow_mut();
        s.push(Frame { child_us: 0 });
        s.len() - 1
    });
    SpanGuard {
        active: Some(ActiveSpan {
            start_us: tracer.now_us(),
            tracer,
            name,
            depth,
        }),
    }
}

/// Builder for an event's typed fields.
#[derive(Default)]
pub struct EventBuilder {
    fields: String,
}

impl EventBuilder {
    fn key(&mut self, k: &str) -> &mut String {
        if !self.fields.is_empty() {
            self.fields.push(',');
        }
        let _ = write!(self.fields, "{}:", escape(k));
        &mut self.fields
    }

    pub fn u(&mut self, k: &str, v: u64) -> &mut Self {
        let _ = write!(self.key(k), "{v}");
        self
    }

    pub fn i(&mut self, k: &str, v: i64) -> &mut Self {
        let _ = write!(self.key(k), "{v}");
        self
    }

    pub fn f(&mut self, k: &str, v: f64) -> &mut Self {
        let s = json_f64(v);
        let _ = write!(self.key(k), "{s}");
        self
    }

    pub fn s(&mut self, k: &str, v: &str) -> &mut Self {
        let s = escape(v);
        let _ = write!(self.key(k), "{s}");
        self
    }

    pub fn b(&mut self, k: &str, v: bool) -> &mut Self {
        let _ = write!(self.key(k), "{v}");
        self
    }
}

/// Emits a point-in-time event. The builder closure only runs when
/// tracing is enabled, so field computation is free otherwise.
pub fn event(name: &str, build: impl FnOnce(&mut EventBuilder)) {
    if !enabled() {
        return;
    }
    let Some(tracer) = current() else { return };
    let mut b = EventBuilder::default();
    build(&mut b);
    let at_us = tracer.now_us();
    let tid = tid();
    tracer.emit(|seq| event_line(name, at_us, tid, seq, &b));
}

/// The schema-v1 meta line that heads every trace, profile dump and
/// rendered exemplar trace.
pub fn meta_line(seq: u64) -> String {
    format!("{{\"t\":\"meta\",\"version\":1,\"clock\":\"monotonic_us\",\"seq\":{seq}}}")
}

/// One schema-v1 span line.
pub fn span_line(
    name: &str,
    start_us: u64,
    dur_us: u64,
    self_us: u64,
    depth: u64,
    tid: u64,
    seq: u64,
) -> String {
    format!(
        "{{\"t\":\"span\",\"name\":{},\"start_us\":{start_us},\"dur_us\":{dur_us},\"self_us\":{self_us},\"depth\":{depth},\"tid\":{tid},\"seq\":{seq}}}",
        escape(name)
    )
}

/// One schema-v1 event line whose `f` payload is the fields `f` built.
pub fn event_line(name: &str, at_us: u64, tid: u64, seq: u64, f: &EventBuilder) -> String {
    format!(
        "{{\"t\":\"event\",\"name\":{},\"at_us\":{at_us},\"tid\":{tid},\"seq\":{seq},\"f\":{{{}}}}}",
        escape(name),
        f.fields
    )
}

/// Records a named scalar into the thread-local aggregates (no trace
/// line). Used for per-epoch means like the companion-loss components.
pub fn value(name: &str, v: f64) {
    if !enabled() {
        return;
    }
    AGG.with(|agg| {
        let mut agg = agg.borrow_mut();
        let e = agg.values.entry(name.to_string()).or_default();
        e.sum += v;
        e.n += 1;
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_tracing_emits_nothing() {
        // not inside `scoped`, so no tracer is installed (tests that
        // install one are serialized behind INSTALL_LOCK)
        let _lock = INSTALL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!enabled());
        {
            let _s = span("should.not.appear");
            value("v", 1.0);
            event("e", |e| {
                e.u("k", 1);
            });
        }
        assert!(drain_thread_stats().is_none());
    }

    #[test]
    fn span_nesting_accounts_self_time_exactly() {
        let sink = Arc::new(MemorySink::new());
        let stats = scoped(sink.clone(), || {
            {
                let _outer = span("outer");
                std::thread::sleep(Duration::from_millis(2));
                {
                    let _inner = span("inner");
                    std::thread::sleep(Duration::from_millis(2));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            drain_thread_stats().expect("spans recorded")
        });
        let outer = stats.spans["outer"];
        let inner = stats.spans["inner"];
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 1);
        // child's total is exactly the parent's non-self time
        assert_eq!(outer.self_us + inner.total_us, outer.total_us);
        assert!(inner.total_us >= 2_000);
        assert!(outer.self_us >= 3_000);

        let lines = sink.lines();
        assert!(lines[0].contains("\"t\":\"meta\""));
        // inner drops first, so it is emitted before outer
        assert!(lines[1].contains("\"name\":\"inner\""));
        assert!(lines[1].contains("\"depth\":1"));
        assert!(lines[2].contains("\"name\":\"outer\""));
        assert!(lines[2].contains("\"depth\":0"));
    }

    #[test]
    fn events_and_values_round_trip() {
        let sink = Arc::new(MemorySink::new());
        let stats = scoped(sink.clone(), || {
            event("rollback", |e| {
                e.u("epoch", 3)
                    .f("loss", 1.5)
                    .s("why", "nan")
                    .b("fatal", false);
            });
            value("loss.final.a", 0.5);
            value("loss.final.a", 1.5);
            drain_thread_stats().expect("values recorded")
        });
        let v = stats.values["loss.final.a"];
        assert_eq!(v.n, 2);
        assert_eq!(v.mean(), 1.0);
        let lines = sink.lines();
        let ev = lines
            .iter()
            .find(|l| l.contains("\"t\":\"event\""))
            .unwrap();
        assert!(ev.contains("\"name\":\"rollback\""));
        assert!(ev.contains("\"f\":{\"epoch\":3,\"loss\":1.5,\"why\":\"nan\",\"fatal\":false}"));
    }

    #[test]
    fn seq_is_strictly_increasing_in_file_order() {
        let sink = Arc::new(MemorySink::new());
        scoped(sink.clone(), || {
            for i in 0..16 {
                event("tick", |e| {
                    e.u("i", i);
                });
            }
            let _s = span("one");
        });
        let seqs: Vec<u64> = sink
            .lines()
            .iter()
            .map(|l| {
                let at = l.rfind("\"seq\":").unwrap() + 6;
                l[at..]
                    .trim_end_matches('}')
                    .split(',')
                    .next()
                    .unwrap()
                    .parse()
                    .unwrap()
            })
            .collect();
        assert!(seqs.windows(2).all(|w| w[1] > w[0]), "{seqs:?}");
    }

    /// `emit` takes `seq` and writes the line under one lock, so while
    /// several threads emit at once the file still reads `seq` 0, 1,
    /// 2, … in line order, and no emit is lost. Other tests' probes may
    /// land in the sink while it is installed (see [`scoped`]); they
    /// take their `seq` in the same order, so only this test's threads
    /// are counted.
    #[test]
    fn concurrent_emits_keep_seq_order_equal_to_file_order() {
        const THREADS: usize = 4;
        const EACH: usize = 2_000;
        let sink = Arc::new(MemorySink::new());
        let start = Arc::new(std::sync::Barrier::new(THREADS));
        let tids: Vec<u64> = scoped(sink.clone(), || {
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    let start = Arc::clone(&start);
                    std::thread::spawn(move || {
                        start.wait();
                        for i in 0..EACH {
                            event("tick", |e| {
                                e.u("i", i as u64);
                            });
                            let _s = span("tock");
                        }
                        tid()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let lines = sink.lines();
        assert_eq!(lines[0], meta_line(0));
        let records = crate::parse::parse_trace(&lines[1..].join("\n")).unwrap();
        let mut per_thread = [0; THREADS];
        for (at, record) in (1..).zip(&records) {
            let (seq, tid) = match record {
                crate::TraceRecord::Span { seq, tid, .. }
                | crate::TraceRecord::Event { seq, tid, .. } => (*seq, *tid),
                crate::TraceRecord::Meta { .. } => panic!("second meta line at {at}"),
            };
            assert_eq!(seq, at, "line {at} holds seq {seq}");
            if let Some(t) = tids.iter().position(|&t| t == tid) {
                per_thread[t] += 1;
            }
        }
        assert_eq!(per_thread, [2 * EACH; THREADS], "one line per emit");
    }

    #[test]
    fn drain_resets_aggregates() {
        let sink = Arc::new(MemorySink::new());
        scoped(sink, || {
            value("x", 1.0);
            assert!(drain_thread_stats().is_some());
            assert!(drain_thread_stats().is_none());
        });
    }
}
