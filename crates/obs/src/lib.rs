//! Zero-dependency observability for the ibis engine.
//!
//! Three pieces, all process-global and all free when disabled:
//!
//! * **Spans** — [`span()`] / [`span!`] return an RAII [`SpanGuard`] that
//!   records monotonic elapsed nanoseconds, the emitting thread, a link to
//!   the enclosing span, and optional named `u64` fields (used by the engine
//!   to attach per-phase `WorkCounters` deltas). Finished spans land in a
//!   lock-free thread-local buffer that is drained into the global recorder
//!   when the thread's outermost span closes (or the thread exits), so the
//!   hot path never takes a lock.
//! * **Metrics** — [`counter_add`], [`gauge_set`] and [`observe`] maintain a
//!   registry of counters, gauges and log-linear histograms keyed by
//!   `&'static str`.
//! * **Snapshots** — [`snapshot`] freezes everything into a [`Snapshot`]
//!   that renders as a human table / span tree (`Display`), exports to JSON
//!   ([`Snapshot::to_json`]) and parses back ([`Snapshot::from_json`]).
//!
//! Recording is off by default. `Recorder::enabled().install()` turns it on;
//! `Recorder::disabled().install()` turns it off again and discards state.
//! When disabled every entry point is a single relaxed atomic load — no
//! allocation, no clock read, no lock — so instrumented code can stay
//! instrumented in production builds.
//!
//! **Untraced scopes.** [`untraced`] switches span recording off for one
//! thread while a closure runs, leaving every metric recording. A server
//! runs its unsampled requests this way, so the span log holds only the
//! trees of sampled requests, which it drains as they finish: span memory
//! stays bounded by the requests in flight. [`is_tracing`] tells a fan-out
//! whether to carry the untraced scope onto its workers (`ExecPool` does).
//!
//! `WorkCounters` live in `ibis-core`, which depends on this crate (not the
//! other way around), keeping `ibis-obs` dependency-free.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod hist;
mod json;
mod prom;
mod snapshot;
mod window;

pub use hist::Histogram;
pub use prom::validate_prometheus;
pub use snapshot::{HistogramSnapshot, PhaseTotal, Snapshot, SpanRecord};
pub use window::{
    merge_hist_snapshots, WindowCounterSnapshot, WindowSnapshot, WindowedCounter, WindowedHistogram,
};

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Global on/off switch. Relaxed is enough: recording is advisory and a
/// stale read merely delays when a thread notices an install.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Bumped on every [`Recorder::install`]; spans started under an older
/// generation are discarded instead of polluting the new recording.
static GENERATION: AtomicU64 = AtomicU64::new(0);
/// Span ids are process-unique and never reused (0 = "no span").
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static GLOBAL: OnceLock<Mutex<GlobalState>> = OnceLock::new();

/// Drain a thread-local buffer into the global recorder once it holds this
/// many spans, even if the thread's root span is still open.
const FLUSH_HIGH_WATER: usize = 256;

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

fn global() -> &'static Mutex<GlobalState> {
    GLOBAL.get_or_init(|| Mutex::new(GlobalState::default()))
}

fn lock_global() -> std::sync::MutexGuard<'static, GlobalState> {
    // A panic while holding the lock only interrupts bookkeeping, never
    // leaves the state half-written in a way later readers can't use.
    global().lock().unwrap_or_else(|e| e.into_inner())
}

#[derive(Default)]
struct GlobalState {
    spans: Vec<RawSpan>,
    counters: HashMap<&'static str, u64>,
    gauges: HashMap<&'static str, f64>,
    histograms: HashMap<&'static str, Histogram>,
    windows: HashMap<&'static str, window::WindowedHistogram>,
    window_counters: HashMap<&'static str, window::WindowedCounter>,
}

/// A finished span, still using `&'static str` names (stringified only when
/// a [`Snapshot`] is taken).
struct RawSpan {
    id: u64,
    parent: u64,
    name: &'static str,
    thread: u64,
    start_ns: u64,
    elapsed_ns: u64,
    fields: Vec<(&'static str, u64)>,
}

struct ThreadState {
    thread: u64,
    generation: u64,
    /// Ids of the currently open spans on this thread, outermost first.
    stack: Vec<u64>,
    buf: Vec<RawSpan>,
}

impl ThreadState {
    fn new() -> Self {
        ThreadState {
            thread: NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed),
            generation: u64::MAX,
            stack: Vec::new(),
            buf: Vec::new(),
        }
    }

    /// Reset per-recording state when a new recorder generation is observed.
    fn sync_generation(&mut self, generation: u64) {
        if self.generation != generation {
            self.generation = generation;
            self.stack.clear();
            self.buf.clear();
        }
    }

    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        if self.generation == GENERATION.load(Ordering::Relaxed) && is_enabled() {
            lock_global().spans.append(&mut self.buf);
        } else {
            self.buf.clear();
        }
    }
}

impl Drop for ThreadState {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static TLS: RefCell<ThreadState> = RefCell::new(ThreadState::new());
    /// Set while this thread runs inside [`untraced`].
    static UNTRACED: Cell<bool> = const { Cell::new(false) };
}

/// Configures the process-global recorder.
///
/// ```
/// ibis_obs::Recorder::enabled().install();
/// {
///     let mut g = ibis_obs::span("demo.work");
///     g.add_field("rows", 42);
/// }
/// let snap = ibis_obs::snapshot();
/// assert_eq!(snap.spans.len(), 1);
/// ibis_obs::Recorder::disabled().install();
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Recorder {
    enabled: bool,
}

impl Recorder {
    /// A recorder that records spans and metrics.
    pub fn enabled() -> Self {
        Recorder { enabled: true }
    }

    /// A recorder that makes every API entry point a no-op (the default).
    pub fn disabled() -> Self {
        Recorder { enabled: false }
    }

    /// Install this recorder globally, discarding anything recorded so far.
    /// Spans that are still open when an install happens belong to the old
    /// generation and are dropped on close, never mixed into the new run.
    pub fn install(self) {
        let mut g = lock_global();
        GENERATION.fetch_add(1, Ordering::Relaxed);
        *g = GlobalState::default();
        ENABLED.store(self.enabled, Ordering::Relaxed);
    }
}

/// Whether the installed recorder is currently recording.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Whether a span opened on this thread now would be recorded: the
/// recorder is enabled and the thread is not inside [`untraced`].
#[inline]
pub fn is_tracing() -> bool {
    is_enabled() && !UNTRACED.with(Cell::get)
}

/// Runs `f` with span recording off on the calling thread: spans opened
/// inside it are inert and [`current_span_id`] reports 0, as if the
/// recorder were disabled. Counters, gauges, histograms and windows still
/// record. Scopes nest, and the previous state comes back when `f`
/// returns or unwinds. The scope is per thread; a fan-out that wants it on
/// its workers checks [`is_tracing`] before spawning them and enters the
/// scope on each.
///
/// ```
/// ibis_obs::Recorder::enabled().install();
/// ibis_obs::untraced(|| {
///     let _quiet = ibis_obs::span("demo.untraced");
///     ibis_obs::counter_add("demo.calls", 1);
/// });
/// let snap = ibis_obs::snapshot();
/// assert!(snap.spans.is_empty());
/// assert_eq!(snap.counters["demo.calls"], 1);
/// ibis_obs::Recorder::disabled().install();
/// ```
pub fn untraced<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            UNTRACED.with(|u| u.set(self.0));
        }
    }
    let _restore = Restore(UNTRACED.with(|u| u.replace(true)));
    f()
}

/// Payload of a live, recording span.
struct ActiveSpan {
    id: u64,
    parent: u64,
    name: &'static str,
    generation: u64,
    start: Instant,
    start_ns: u64,
    fields: Vec<(&'static str, u64)>,
}

/// RAII guard returned by [`span()`]; records the span when dropped.
///
/// When the recorder is disabled the guard is inert: construction did not
/// read the clock and `Drop` does nothing.
#[must_use = "a span measures the scope it is alive for"]
pub struct SpanGuard(Option<ActiveSpan>);

impl SpanGuard {
    /// The span's unique id (0 when the recorder is disabled).
    pub fn id(&self) -> u64 {
        self.0.as_ref().map_or(0, |a| a.id)
    }

    /// Whether this guard is actually recording.
    pub fn is_recording(&self) -> bool {
        self.0.is_some()
    }

    /// Attach a named value to the span (no-op when disabled). Values with
    /// the same name accumulate by appearing once each in the record.
    pub fn add_field(&mut self, name: &'static str, value: u64) {
        if let Some(a) = self.0.as_mut() {
            a.fields.push((name, value));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(a) = self.0.take() else { return };
        let elapsed_ns = a.start.elapsed().as_nanos() as u64;
        TLS.with(|tls| {
            let mut ts = tls.borrow_mut();
            if ts.generation != a.generation {
                return; // recorder swapped while this span was open
            }
            if ts.stack.last() == Some(&a.id) {
                ts.stack.pop();
            }
            let thread = ts.thread;
            ts.buf.push(RawSpan {
                id: a.id,
                parent: a.parent,
                name: a.name,
                thread,
                start_ns: a.start_ns,
                elapsed_ns,
                fields: a.fields,
            });
            if ts.stack.is_empty() || ts.buf.len() >= FLUSH_HIGH_WATER {
                ts.flush();
            }
        });
    }
}

/// Open a span named `name`, parented to the innermost open span on this
/// thread (or a root if there is none). Returns an inert guard when the
/// recorder is disabled or the thread is inside [`untraced`].
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !is_tracing() {
        return SpanGuard(None);
    }
    span_slow(name, None)
}

/// Open a span with an explicit fallback parent, used to stitch the trace
/// across threads: when the current thread has no open span (a fresh worker)
/// the given id becomes the parent; otherwise normal nesting wins.
#[inline]
pub fn span_with_parent(name: &'static str, parent: u64) -> SpanGuard {
    if !is_tracing() {
        return SpanGuard(None);
    }
    span_slow(name, Some(parent))
}

fn span_slow(name: &'static str, fallback_parent: Option<u64>) -> SpanGuard {
    let generation = GENERATION.load(Ordering::Relaxed);
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let start = Instant::now();
    let start_ns = start.duration_since(epoch()).as_nanos() as u64;
    TLS.with(|tls| {
        let mut ts = tls.borrow_mut();
        ts.sync_generation(generation);
        let parent = ts.stack.last().copied().or(fallback_parent).unwrap_or(0);
        ts.stack.push(id);
        SpanGuard(Some(ActiveSpan {
            id,
            parent,
            name,
            generation,
            start,
            start_ns,
            fields: Vec::new(),
        }))
    })
}

/// Id of the innermost open span on this thread (0 if none, or inside
/// [`untraced`]). Capture this before handing work to another thread and
/// pass it to [`span_with_parent`] there.
pub fn current_span_id() -> u64 {
    if !is_tracing() {
        return 0;
    }
    TLS.with(|tls| {
        let mut ts = tls.borrow_mut();
        ts.sync_generation(GENERATION.load(Ordering::Relaxed));
        ts.stack.last().copied().unwrap_or(0)
    })
}

/// Open a span. `span!("bee.and_reduce")` is shorthand for
/// [`span("bee.and_reduce")`](span()); the two-argument form supplies a
/// cross-thread fallback parent as in [`span_with_parent`].
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($name:expr, parent = $parent:expr) => {
        $crate::span_with_parent($name, $parent)
    };
}

/// Add `delta` to the counter `name` (no-op when disabled).
pub fn counter_add(name: &'static str, delta: u64) {
    if !is_enabled() {
        return;
    }
    let mut g = lock_global();
    let c = g.counters.entry(name).or_insert(0);
    *c = c.saturating_add(delta);
}

/// Set the gauge `name` to `value`; non-finite values are recorded as 0 so
/// snapshots stay JSON-serializable (no-op when disabled).
pub fn gauge_set(name: &'static str, value: f64) {
    if !is_enabled() {
        return;
    }
    let v = if value.is_finite() { value } else { 0.0 };
    lock_global().gauges.insert(name, v);
}

/// Adjust the gauge `name` by `delta` (which may be negative), creating it
/// at 0 first. Non-finite results are clamped to 0; no-op when disabled.
pub fn gauge_add(name: &'static str, delta: f64) {
    if !is_enabled() {
        return;
    }
    let mut g = lock_global();
    let v = g.gauges.entry(name).or_insert(0.0);
    let next = *v + delta;
    *v = if next.is_finite() { next } else { 0.0 };
}

/// Milliseconds since the process recording epoch — the time base every
/// windowed metric records against.
pub fn now_ms() -> u64 {
    epoch().elapsed().as_millis() as u64
}

/// Record `value` into the rolling windowed histogram `name` (1 s × 64
/// bucket ring; no-op when disabled). The live window is exported by
/// [`snapshot`] / [`Registry::export`] under the same name.
pub fn window_observe(name: &'static str, value: u64) {
    if !is_enabled() {
        return;
    }
    let now = now_ms();
    lock_global()
        .windows
        .entry(name)
        .or_insert_with(window::WindowedHistogram::with_defaults)
        .record_at(now, value);
}

/// Add `delta` to the rolling windowed counter `name` (1 s × 64 bucket
/// ring; no-op when disabled).
pub fn window_counter_add(name: &'static str, delta: u64) {
    if !is_enabled() {
        return;
    }
    let now = now_ms();
    lock_global()
        .window_counters
        .entry(name)
        .or_insert_with(window::WindowedCounter::with_defaults)
        .add_at(now, delta);
}

/// When something began, for a latency recorded later and possibly on
/// another thread. Recording drops the sample if the recorder was
/// reinstalled since the stamp was taken — the rule open spans follow — so
/// a sample never straddles two recordings.
#[derive(Clone, Copy, Debug)]
pub struct Stamp {
    at: Instant,
    generation: u64,
}

impl Stamp {
    /// Stamps the current instant under the installed recorder.
    pub fn now() -> Stamp {
        Stamp {
            at: Instant::now(),
            generation: GENERATION.load(Ordering::Relaxed),
        }
    }

    /// Records the microseconds elapsed since the stamp into both the
    /// histogram and the windowed histogram `name`. A no-op when disabled
    /// or when the recorder was reinstalled after the stamp.
    pub fn observe_elapsed_us(&self, name: &'static str) {
        if !is_enabled() {
            return;
        }
        let us = self.at.elapsed().as_micros() as u64;
        let now = now_ms();
        let mut g = lock_global();
        // `install` bumps the generation under this lock, so the check
        // and the record cannot straddle an install.
        if GENERATION.load(Ordering::Relaxed) != self.generation {
            return;
        }
        g.histograms.entry(name).or_default().record(us);
        g.windows
            .entry(name)
            .or_insert_with(window::WindowedHistogram::with_defaults)
            .record_at(now, us);
    }
}

/// Record `value` into the log-linear histogram `name` (no-op when
/// disabled).
pub fn observe(name: &'static str, value: u64) {
    if !is_enabled() {
        return;
    }
    lock_global()
        .histograms
        .entry(name)
        .or_default()
        .record(value);
}

/// Freeze the current recording into an immutable [`Snapshot`].
///
/// Flushes the calling thread's buffer first; spans recorded by other
/// threads are visible once those threads closed their outermost span or
/// exited — both are guaranteed for `ExecPool` scoped workers by the time
/// the pool call returns.
pub fn snapshot() -> Snapshot {
    TLS.with(|tls| tls.borrow_mut().flush());
    let now = now_ms();
    let g = lock_global();
    let mut spans: Vec<SpanRecord> = g
        .spans
        .iter()
        .map(|r| SpanRecord {
            id: r.id,
            parent: r.parent,
            name: r.name.to_string(),
            thread: r.thread,
            start_ns: r.start_ns,
            elapsed_ns: r.elapsed_ns,
            fields: r.fields.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        })
        .collect();
    spans.sort_by_key(|s| (s.start_ns, s.id));
    Snapshot {
        spans,
        counters: g
            .counters
            .iter()
            .map(|(&k, &v)| (k.to_string(), v))
            .collect(),
        gauges: g.gauges.iter().map(|(&k, &v)| (k.to_string(), v)).collect(),
        histograms: g
            .histograms
            .iter()
            .map(|(&k, h)| (k.to_string(), h.snapshot()))
            .collect(),
        windows: g
            .windows
            .iter()
            .map(|(&k, w)| (k.to_string(), w.snapshot_at(now)))
            .collect(),
        window_counters: g
            .window_counters
            .iter()
            .map(|(&k, w)| (k.to_string(), w.snapshot_at(now)))
            .collect(),
    }
}

/// Handle over the process-global metrics registry.
///
/// [`Registry::export`] freezes the metric state — counters, gauges,
/// cumulative histograms and the live windowed rings — *without* the span
/// log, which is what a telemetry endpoint wants: metrics are cheap and
/// bounded, spans are neither. The returned [`Snapshot`] renders to both
/// wire formats: canonical JSON via [`Snapshot::to_json`] and Prometheus
/// text exposition via [`Snapshot::to_prometheus`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Registry;

impl Registry {
    /// Export the metric registry (no spans) as a [`Snapshot`].
    pub fn export() -> Snapshot {
        let now = now_ms();
        let g = lock_global();
        Snapshot {
            spans: Vec::new(),
            counters: g
                .counters
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
            gauges: g.gauges.iter().map(|(&k, &v)| (k.to_string(), v)).collect(),
            histograms: g
                .histograms
                .iter()
                .map(|(&k, h)| (k.to_string(), h.snapshot()))
                .collect(),
            windows: g
                .windows
                .iter()
                .map(|(&k, w)| (k.to_string(), w.snapshot_at(now)))
                .collect(),
            window_counters: g
                .window_counters
                .iter()
                .map(|(&k, w)| (k.to_string(), w.snapshot_at(now)))
                .collect(),
        }
    }
}

/// Remove and return the span subtree rooted at `root` from the recorder.
///
/// Flushes the calling thread's buffer first, then extracts every recorded
/// span reachable from `root` (including the root itself), leaving all
/// other spans and every metric untouched. This is how a long-running
/// server keeps span memory bounded: wrap each traced request in a root
/// span, then drain exactly that tree once the request finishes, and run
/// every other request inside [`untraced`] so it leaves nothing. Returns
/// records sorted by `(start_ns, id)`; empty when the recorder is disabled
/// or the root was never recorded.
pub fn drain_subtree(root: u64) -> Vec<SpanRecord> {
    if root == 0 || !is_enabled() {
        return Vec::new();
    }
    TLS.with(|tls| tls.borrow_mut().flush());
    let mut g = lock_global();
    let mut keep: std::collections::HashSet<u64> = std::collections::HashSet::new();
    keep.insert(root);
    // Parents usually precede children, but cross-thread flush order is
    // arbitrary; iterate to closure.
    loop {
        let before = keep.len();
        for s in &g.spans {
            if keep.contains(&s.parent) {
                keep.insert(s.id);
            }
        }
        if keep.len() == before {
            break;
        }
    }
    let mut out: Vec<SpanRecord> = Vec::new();
    let mut rest: Vec<RawSpan> = Vec::with_capacity(g.spans.len());
    for r in g.spans.drain(..) {
        if keep.contains(&r.id) {
            out.push(SpanRecord {
                id: r.id,
                parent: r.parent,
                name: r.name.to_string(),
                thread: r.thread,
                start_ns: r.start_ns,
                elapsed_ns: r.elapsed_ns,
                fields: r.fields.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            });
        } else {
            rest.push(r);
        }
    }
    g.spans = rest;
    out.sort_by_key(|s| (s.start_ns, s.id));
    out
}

#[cfg(test)]
pub(crate) mod testutil {
    use std::sync::{Mutex, MutexGuard};

    /// Tests that install/inspect the process-global recorder must not
    /// interleave; serialize them on this lock.
    pub fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let _serial = testutil::serial();
        Recorder::disabled().install();
        let mut g = span!("noop");
        assert_eq!(g.id(), 0);
        assert!(!g.is_recording());
        g.add_field("rows", 1);
        drop(g);
        counter_add("c", 1);
        gauge_set("g", 1.0);
        observe("h", 1);
        let snap = snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn spans_nest_and_carry_fields() {
        let _serial = testutil::serial();
        Recorder::enabled().install();
        let root_id;
        {
            let mut root = span!("root");
            root_id = root.id();
            root.add_field("total", 7);
            {
                let mut child = span!("child");
                assert_eq!(current_span_id(), child.id());
                child.add_field("rows", 3);
            }
            let _sibling = span!("sibling");
        }
        let snap = snapshot();
        Recorder::disabled().install();

        assert_eq!(snap.spans.len(), 3);
        let root = snap.spans.iter().find(|s| s.name == "root").unwrap();
        let child = snap.spans.iter().find(|s| s.name == "child").unwrap();
        let sibling = snap.spans.iter().find(|s| s.name == "sibling").unwrap();
        assert_eq!(root.id, root_id);
        assert_eq!(root.parent, 0);
        assert_eq!(child.parent, root_id);
        assert_eq!(sibling.parent, root_id);
        assert_eq!(child.fields, vec![("rows".to_string(), 3)]);
        assert!(root.elapsed_ns >= child.elapsed_ns);
    }

    #[test]
    fn explicit_parent_used_only_at_stack_bottom() {
        let _serial = testutil::serial();
        Recorder::enabled().install();
        let outer = span!("outer");
        let outer_id = outer.id();
        {
            // Stack is non-empty: nesting wins over the explicit parent.
            let nested = span_with_parent("nested", 9999);
            assert_eq!(nested.id(), current_span_id());
        }
        drop(outer);
        // Fresh "thread": no open span, so the fallback parent applies.
        let adopted = span_with_parent("adopted", outer_id);
        drop(adopted);
        let snap = snapshot();
        Recorder::disabled().install();

        let nested = snap.spans.iter().find(|s| s.name == "nested").unwrap();
        let adopted = snap.spans.iter().find(|s| s.name == "adopted").unwrap();
        assert_eq!(nested.parent, outer_id);
        assert_eq!(adopted.parent, outer_id);
    }

    #[test]
    fn install_discards_previous_recording_and_open_spans() {
        let _serial = testutil::serial();
        Recorder::enabled().install();
        let stale = span!("stale");
        Recorder::enabled().install(); // new generation while `stale` is open
        let fresh = span!("fresh");
        assert_eq!(fresh.parent_for_test(), 0);
        drop(fresh);
        drop(stale); // belongs to the old generation: discarded
        let snap = snapshot();
        Recorder::disabled().install();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].name, "fresh");
    }

    #[test]
    fn metrics_registry_records_and_saturates() {
        let _serial = testutil::serial();
        Recorder::enabled().install();
        counter_add("queries", 2);
        counter_add("queries", 3);
        counter_add("big", u64::MAX);
        counter_add("big", 10); // must saturate, not wrap
        gauge_set("threads", 4.0);
        gauge_set("weird", f64::NAN); // clamped to 0 for JSON safety
        for v in [1u64, 2, 3, 1000] {
            observe("lat", v);
        }
        let snap = snapshot();
        Recorder::disabled().install();

        assert_eq!(snap.counters["queries"], 5);
        assert_eq!(snap.counters["big"], u64::MAX);
        assert_eq!(snap.gauges["threads"], 4.0);
        assert_eq!(snap.gauges["weird"], 0.0);
        let h = &snap.histograms["lat"];
        assert_eq!(h.count, 4);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 1000);
        assert_eq!(h.sum, 1006);
    }

    impl SpanGuard {
        fn parent_for_test(&self) -> u64 {
            self.0.as_ref().map_or(0, |a| a.parent)
        }
    }

    #[test]
    fn gauge_add_accumulates_and_clamps() {
        let _serial = testutil::serial();
        Recorder::enabled().install();
        gauge_add("depth", 3.0);
        gauge_add("depth", 2.5);
        gauge_add("depth", -1.5);
        gauge_add("bad", f64::INFINITY); // clamped to 0
        let snap = snapshot();
        Recorder::disabled().install();
        assert_eq!(snap.gauges["depth"], 4.0);
        assert_eq!(snap.gauges["bad"], 0.0);
    }

    #[test]
    fn windowed_globals_feed_registry_export() {
        let _serial = testutil::serial();
        Recorder::enabled().install();
        window_observe("lat.win", 100);
        window_observe("lat.win", 200);
        window_counter_add("req.win", 5);
        counter_add("total", 1);
        {
            let _g = span!("not.exported.by.registry");
        }
        let export = Registry::export();
        let full = snapshot();
        Recorder::disabled().install();

        assert!(export.spans.is_empty(), "Registry::export carries no spans");
        assert_eq!(full.spans.len(), 1);
        let w = &export.windows["lat.win"];
        assert_eq!(w.merged().count, 2);
        assert_eq!(w.merged().max, 200);
        assert_eq!(export.window_counters["req.win"].total(), 5);
        assert_eq!(export.counters["total"], 1);
        // The export is itself a valid canonical snapshot document.
        assert_eq!(
            Snapshot::from_json(&export.to_json()).unwrap().to_json(),
            export.to_json()
        );
    }

    #[test]
    fn untraced_scope_records_metrics_but_no_spans_and_restores() {
        let _serial = testutil::serial();
        Recorder::enabled().install();
        let outer = span!("outer");
        let outer_id = outer.id();
        untraced(|| {
            assert!(!is_tracing());
            assert_eq!(current_span_id(), 0);
            let inner = span!("inner");
            assert!(!inner.is_recording());
            untraced(|| assert!(!is_tracing())); // nesting keeps it off
            assert!(!is_tracing());
            counter_add("calls", 1);
            observe("lat", 5);
        });
        assert!(is_tracing());
        assert_eq!(current_span_id(), outer_id);
        drop(outer);
        // An unwinding closure still restores the previous state.
        let unwound = std::panic::catch_unwind(|| untraced(|| panic!("boom")));
        assert!(unwound.is_err());
        assert!(is_tracing());
        let snap = snapshot();
        Recorder::disabled().install();

        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].name, "outer");
        assert_eq!(snap.counters["calls"], 1);
        assert_eq!(snap.histograms["lat"].count, 1);
    }

    #[test]
    fn stamps_record_elapsed_time_but_never_across_an_install() {
        let _serial = testutil::serial();
        Recorder::enabled().install();
        let stamp = Stamp::now();
        stamp.observe_elapsed_us("lat");
        let snap = snapshot();
        assert_eq!(snap.histograms["lat"].count, 1);
        assert_eq!(snap.windows["lat"].merged().count, 1);
        Recorder::enabled().install(); // the stamp now predates the recording
        stamp.observe_elapsed_us("lat");
        let snap = snapshot();
        Recorder::disabled().install();
        assert!(snap.histograms.is_empty());
        assert!(snap.windows.is_empty());
    }

    #[test]
    fn drain_subtree_extracts_one_tree_and_keeps_the_rest() {
        let _serial = testutil::serial();
        Recorder::enabled().install();
        let root_a;
        {
            let a = span!("req.a");
            root_a = a.id();
            let _child = span!("req.a.exec");
        }
        {
            let _b = span!("req.b");
        }
        let drained = drain_subtree(root_a);
        let leftover = snapshot();
        Recorder::disabled().install();

        assert_eq!(drained.len(), 2);
        assert!(drained.iter().any(|s| s.name == "req.a"));
        assert!(drained.iter().any(|s| s.name == "req.a.exec"));
        // Drained spans are gone from the recorder; unrelated ones remain.
        assert_eq!(leftover.spans.len(), 1);
        assert_eq!(leftover.spans[0].name, "req.b");
        // Draining again (or a bogus root) is empty, not an error.
        assert!(drain_subtree(root_a).is_empty());
        assert!(drain_subtree(0).is_empty());
    }
}
