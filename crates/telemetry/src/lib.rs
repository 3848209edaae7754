//! `ppdp-telemetry`: structured run reports, convergence and
//! privacy-budget instrumentation for the ppdp workspace.
//!
//! The crate provides hierarchical wall-clock [`span`]s, monotonic
//! [`counter`]s, [`value`] histograms and privacy-[`budget_draw`]
//! records, aggregated into a serde-serializable [`RunReport`].
//!
//! Recording is routed through [`Recorder`]s that can be installed
//! globally ([`install_global`]) or scoped to the current thread
//! ([`Recorder::enter`]). When no recorder is active, every
//! instrumentation call is a single relaxed atomic load — instrumented
//! hot loops cost ~nothing when telemetry is disabled.
//!
//! When a `ppdp-trace` collector is active, every primitive here also
//! forwards a structured event to it (span enter/exit with causal
//! parent keys, counters, histogram samples, budget draws with
//! call-site provenance, degradations), so the entire existing
//! instrumentation surface shows up in traces without extra wiring.
//!
//! Likewise, when a `ppdp-metrics` live registry is installed (see
//! [`ppdp_metrics::install_global`] / `PPDP_METRICS=1`), every primitive
//! tees into it: counters and histograms become live series, spans
//! become `span.<path>.seconds` histograms plus `span.<path>.calls`
//! counters with per-span allocation attribution, and ε-draws accumulate
//! into `budget.epsilon_spent`. The extra [`gauge`] and [`target`]
//! primitives are live-only (run reports have no last-write-wins
//! concept) and power mid-run progress/ETA derivation.
//!
//! ```
//! use ppdp_telemetry::Recorder;
//!
//! let rec = Recorder::new();
//! {
//!     let _scope = rec.enter();
//!     let _span = ppdp_telemetry::span("demo.outer");
//!     ppdp_telemetry::counter("demo.iterations", 3);
//!     ppdp_telemetry::value("demo.residual", 1e-6);
//! }
//! let report = rec.take();
//! assert_eq!(report.counter("demo.iterations"), 3);
//! assert!(report.span("demo.outer").is_some());
//! ```

mod report;

pub use report::{
    fmt_nanos, status_line, BudgetDraw, Histogram, RunReport, SpanStats, HISTOGRAM_BUCKETS,
};

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Number of currently active recorders (global + all scoped), used as
/// the lock-free fast path: instrumentation is a no-op while this is 0.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

/// The process-wide recorder, if one is installed.
static GLOBAL: Mutex<Option<Recorder>> = Mutex::new(None);

thread_local! {
    /// Stack of recorders scoped to this thread via [`Recorder::enter`].
    static SCOPED: RefCell<Vec<Recorder>> = const { RefCell::new(Vec::new()) };
    /// Stack of open span names on this thread, joined with `/` to form
    /// the hierarchical span path.
    static SPAN_PATH: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Recovers the inner value from a possibly poisoned mutex; a panic in
/// one instrumented region must not disable telemetry everywhere else.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A thread-safe sink for telemetry events, accumulating a [`RunReport`].
///
/// Cloning is cheap and clones share the same underlying report.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Arc<Mutex<RunReport>>,
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Makes this recorder active on the current thread until the
    /// returned guard is dropped. Scopes nest: events reach every
    /// recorder on the stack (and the global one, if installed).
    #[must_use = "recording stops when the returned scope guard drops"]
    pub fn enter(&self) -> ScopedRecorder {
        SCOPED.with(|s| s.borrow_mut().push(self.clone()));
        ACTIVE.fetch_add(1, Ordering::Relaxed);
        ScopedRecorder {
            _not_send: PhantomData,
        }
    }

    /// Returns a copy of everything recorded so far.
    pub fn snapshot(&self) -> RunReport {
        relock(&self.inner).clone()
    }

    /// Drains the recorder, returning the accumulated report and
    /// leaving it empty.
    pub fn take(&self) -> RunReport {
        std::mem::take(&mut *relock(&self.inner))
    }

    fn record_span(&self, path: &str, nanos: u64) {
        relock(&self.inner)
            .spans
            .entry(path.to_owned())
            .or_default()
            .record(nanos);
    }

    fn record_counter(&self, name: &str, n: u64) {
        *relock(&self.inner)
            .counters
            .entry(name.to_owned())
            .or_insert(0) += n;
    }

    fn record_value(&self, name: &str, v: f64) {
        relock(&self.inner)
            .histograms
            .entry(name.to_owned())
            .or_default()
            .record(v);
    }

    fn record_budget_draw(&self, draw: &BudgetDraw) {
        relock(&self.inner).budget.push(draw.clone());
    }

    fn same_sink(&self, other: &Recorder) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

/// Guard returned by [`Recorder::enter`]; pops the recorder off the
/// thread-local scope stack when dropped. Deliberately `!Send` — the
/// guard must drop on the thread that created it.
#[derive(Debug)]
pub struct ScopedRecorder {
    _not_send: PhantomData<*const ()>,
}

impl Drop for ScopedRecorder {
    fn drop(&mut self) {
        SCOPED.with(|s| s.borrow_mut().pop());
        ACTIVE.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A snapshot of one thread's telemetry context — its scoped-recorder
/// stack and open span path — for propagation into worker threads.
///
/// The execution layer (`ppdp-exec`) captures the coordinating thread's
/// context before fanning out and [`activate`](ThreadContext::activate)s
/// it in each worker, so counters recorded inside parallel regions reach
/// the same scoped recorders they would have reached sequentially.
/// Workers should record *additive counters only*: histogram `sum`/`last`
/// and budget-draw ordering are record-order-dependent, so kernels keep
/// those on the coordinating thread to stay deterministic.
#[derive(Debug, Clone, Default)]
pub struct ThreadContext {
    recorders: Vec<Recorder>,
    span_path: Vec<&'static str>,
}

impl ThreadContext {
    /// Captures the calling thread's scoped-recorder stack and span path.
    pub fn capture() -> Self {
        Self {
            recorders: SCOPED.with(|s| s.borrow().clone()),
            span_path: SPAN_PATH.with(|p| p.borrow().clone()),
        }
    }

    /// Re-activates the captured context on the current (worker) thread
    /// until the returned guard drops. Spans opened by the worker nest
    /// under the captured span path, and events reach every captured
    /// recorder (plus the global one, deduplicated as usual).
    #[must_use = "the context deactivates when the returned guard drops"]
    pub fn activate(&self) -> ThreadContextGuard {
        let prev_path =
            SPAN_PATH.with(|p| std::mem::replace(&mut *p.borrow_mut(), self.span_path.clone()));
        SCOPED.with(|s| s.borrow_mut().extend(self.recorders.iter().cloned()));
        ACTIVE.fetch_add(self.recorders.len(), Ordering::Relaxed);
        ThreadContextGuard {
            pushed: self.recorders.len(),
            prev_path,
            _not_send: PhantomData,
        }
    }
}

/// Guard returned by [`ThreadContext::activate`]; restores the worker
/// thread's previous telemetry context when dropped. `!Send` — it must
/// drop on the thread that activated the context.
#[derive(Debug)]
pub struct ThreadContextGuard {
    pushed: usize,
    prev_path: Vec<&'static str>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for ThreadContextGuard {
    fn drop(&mut self) {
        SCOPED.with(|s| {
            let mut stack = s.borrow_mut();
            let keep = stack.len().saturating_sub(self.pushed);
            stack.truncate(keep);
        });
        ACTIVE.fetch_sub(self.pushed, Ordering::Relaxed);
        SPAN_PATH.with(|p| *p.borrow_mut() = std::mem::take(&mut self.prev_path));
    }
}

/// Installs `rec` as the process-wide recorder, returning the previous
/// one if any. Events reach the global recorder from every thread.
pub fn install_global(rec: Recorder) -> Option<Recorder> {
    let mut slot = relock(&GLOBAL);
    let prev = slot.replace(rec);
    if prev.is_none() {
        ACTIVE.fetch_add(1, Ordering::Relaxed);
    }
    prev
}

/// Removes the process-wide recorder, returning it if one was installed.
pub fn uninstall_global() -> Option<Recorder> {
    let mut slot = relock(&GLOBAL);
    let prev = slot.take();
    if prev.is_some() {
        ACTIVE.fetch_sub(1, Ordering::Relaxed);
    }
    prev
}

/// `true` when at least one recorder (scoped anywhere or global) is
/// active. A single relaxed atomic load — the no-op fast path.
#[inline]
pub fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed) > 0
}

/// Dispatches one event to every recorder visible from this thread:
/// the thread's scope stack plus the global recorder, with duplicates
/// (the same sink both scoped and global) delivered once.
fn for_each_recorder(f: impl Fn(&Recorder)) {
    SCOPED.with(|s| {
        let stack = s.borrow();
        for (i, rec) in stack.iter().enumerate() {
            if stack[..i].iter().any(|r| r.same_sink(rec)) {
                continue;
            }
            f(rec);
        }
        if let Some(global) = relock(&GLOBAL).as_ref() {
            if !stack.iter().any(|r| r.same_sink(global)) {
                f(global);
            }
        }
    });
}

/// Adds `n` to the monotonic counter `name`. No-op when disabled.
#[inline]
pub fn counter(name: &str, n: u64) {
    ppdp_trace::counter_event(name, n);
    ppdp_metrics::counter(name, n);
    if !enabled() {
        return;
    }
    for_each_recorder(|r| r.record_counter(name, n));
}

/// Records sample `v` into the histogram `name`. No-op when disabled.
#[inline]
pub fn value(name: &str, v: f64) {
    ppdp_trace::value_event(name, v);
    ppdp_metrics::observe(name, v);
    if !enabled() {
        return;
    }
    for_each_recorder(|r| r.record_value(name, v));
}

/// Sets the live gauge `name` to `v` (last write wins across threads).
///
/// Gauges exist only in the live `ppdp-metrics` layer — a [`RunReport`]
/// is an end-of-run aggregate with no meaningful "current value", so
/// this records nothing when no live registry is installed. Kernels use
/// it for round/sweep positions (`bp.round`, `gibbs.sweep`) and
/// remaining-budget readouts that operators watch mid-run.
#[inline]
pub fn gauge(name: &str, v: f64) {
    ppdp_metrics::gauge_set(name, v);
}

/// Declares the completion target for `name` (live-only, like [`gauge`]):
/// the metrics heartbeat derives `progress.<name>`, `rate.<name>_per_s`
/// and `eta_seconds.<name>` from the counter or gauge `<name>` relative
/// to this total.
#[inline]
pub fn target(name: &str, total: f64) {
    ppdp_metrics::set_target(name, total);
}

/// Records one privacy-budget draw. No-op when disabled.
///
/// `#[track_caller]` propagates the *requesting* call site (e.g. the
/// `BudgetLedger::spend` caller inside a publish pipeline) into the
/// trace event's `call_site` field for per-draw provenance.
#[inline]
#[track_caller]
pub fn budget_draw(mechanism: &str, label: &str, epsilon: f64, delta: f64, sensitivity: f64) {
    if ppdp_trace::enabled() {
        let loc = std::panic::Location::caller();
        ppdp_trace::budget_draw_event(
            mechanism,
            label,
            epsilon,
            delta,
            sensitivity,
            &format!("{}:{}", loc.file(), loc.line()),
        );
    }
    if ppdp_metrics::enabled() {
        ppdp_metrics::counter("budget.draws", 1);
        ppdp_metrics::counter_f64("budget.epsilon_spent", epsilon);
        ppdp_metrics::counter_f64(&format!("budget.epsilon_spent.{mechanism}"), epsilon);
    }
    if !enabled() {
        return;
    }
    let draw = BudgetDraw {
        mechanism: mechanism.to_owned(),
        label: label.to_owned(),
        epsilon,
        delta,
        sensitivity,
    };
    for_each_recorder(|r| r.record_budget_draw(&draw));
}

/// Records one graceful-degradation event: `subsystem` fell back to a
/// weaker-but-safe strategy for `reason` (e.g. `degradation("bp",
/// "prior_fallback")` when belief propagation gives up and reports prior
/// marginals). Shows up in [`RunReport::counters`] as `degraded.<subsystem>`
/// and `degraded.<subsystem>.<reason>`, so operators can alert on any
/// degraded run without knowing every reason string. No-op when disabled.
#[inline]
pub fn degradation(subsystem: &str, reason: &str) {
    ppdp_trace::degradation_event(subsystem, reason);
    if ppdp_metrics::enabled() {
        ppdp_metrics::counter(&format!("degraded.{subsystem}"), 1);
        ppdp_metrics::counter(&format!("degraded.{subsystem}.{reason}"), 1);
    }
    if !enabled() {
        return;
    }
    for_each_recorder(|r| {
        r.record_counter(&format!("degraded.{subsystem}"), 1);
        r.record_counter(&format!("degraded.{subsystem}.{reason}"), 1);
    });
}

/// Opens a wall-clock span named `name`, nested under any spans already
/// open on this thread (paths join with `/`). The span records its
/// duration when the returned guard drops. No-op when disabled.
#[inline]
#[must_use = "the span measures until the returned guard drops"]
pub fn span(name: &'static str) -> Span {
    let telemetry = enabled();
    let tracing = ppdp_trace::enabled();
    let metrics = ppdp_metrics::enabled();
    if !telemetry && !tracing && !metrics {
        return Span { open: None };
    }
    let path = SPAN_PATH.with(|p| {
        let mut stack = p.borrow_mut();
        stack.push(name);
        stack.join("/")
    });
    let trace_key = if tracing {
        ppdp_trace::span_enter(name)
    } else {
        None
    };
    let alloc_scope = if metrics {
        Some(ppdp_metrics::alloc::AllocScope::enter(&path))
    } else {
        None
    };
    Span {
        open: Some(SpanOpen {
            start: Instant::now(),
            path,
            trace_key,
            telemetry,
            metrics,
            alloc_scope,
        }),
    }
}

/// State of one open span execution; see [`Span`].
#[derive(Debug)]
struct SpanOpen {
    start: Instant,
    path: String,
    /// Trace identity of this execution, when a collector was active at
    /// entry (exit is forwarded to the same collector scope).
    trace_key: Option<ppdp_trace::TraceKey>,
    /// Whether telemetry recorders were active at entry.
    telemetry: bool,
    /// Whether a live metrics registry was installed at entry.
    metrics: bool,
    /// Attributes this thread's allocations to the span path while open
    /// (inert unless the counting allocator is installed).
    alloc_scope: Option<ppdp_metrics::alloc::AllocScope>,
}

/// RAII guard for one execution of a wall-clock span; see [`span`].
#[derive(Debug)]
pub struct Span {
    open: Option<SpanOpen>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(mut open) = self.open.take() {
            let nanos = u64::try_from(open.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            // Close attribution before the tee below so the tee's own
            // formatting allocations are charged to the parent span.
            drop(open.alloc_scope.take());
            SPAN_PATH.with(|p| {
                p.borrow_mut().pop();
            });
            if let Some(key) = &open.trace_key {
                ppdp_trace::span_exit(key, &open.path, nanos);
            }
            if open.metrics {
                ppdp_metrics::observe_span(&open.path, nanos);
            }
            if open.telemetry {
                for_each_recorder(|r| r.record_span(&open.path, nanos));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// `budget_draw` tees into the process-global metrics registry under
    /// fixed names (`budget.draws`, `budget.epsilon_spent`), so the tests
    /// that draw take this lock with the one test that installs that
    /// registry; otherwise a concurrent draw lands in its snapshot.
    static DRAW_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn draw_lock() -> std::sync::MutexGuard<'static, ()> {
        DRAW_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_paths_record_nothing() {
        let _draws = draw_lock();
        // No scoped recorder on this thread; even if another test has a
        // recorder active, nothing here can observe our events — but the
        // cheap sanity check is that the calls simply run.
        counter("lib.disabled.counter", 1);
        value("lib.disabled.value", 1.0);
        budget_draw("laplace", "x", 0.1, 0.0, 1.0);
        let _s = span("lib.disabled.span");
    }

    #[test]
    fn degradation_events_roll_up_per_subsystem_and_reason() {
        let rec = Recorder::new();
        {
            let _scope = rec.enter();
            degradation("bp", "prior_fallback");
            degradation("bp", "prior_fallback");
            degradation("ica", "nan_reset");
        }
        let report = rec.take();
        assert_eq!(report.counter("degraded.bp"), 2);
        assert_eq!(report.counter("degraded.bp.prior_fallback"), 2);
        assert_eq!(report.counter("degraded.ica"), 1);
        assert_eq!(
            report.degradations(),
            3,
            "reason rows are not double-counted"
        );
    }

    #[test]
    fn scoped_recorder_captures_counters_and_values() {
        let _draws = draw_lock();
        let rec = Recorder::new();
        {
            let _scope = rec.enter();
            assert!(enabled());
            counter("lib.scoped.iters", 2);
            counter("lib.scoped.iters", 3);
            value("lib.scoped.residual", 0.5);
            value("lib.scoped.residual", 0.25);
            budget_draw("laplace", "h", 0.5, 0.0, 1.0);
        }
        let report = rec.take();
        assert_eq!(report.counter("lib.scoped.iters"), 5);
        let h = report
            .histogram("lib.scoped.residual")
            .expect("histogram recorded");
        assert_eq!(h.count, 2);
        assert_eq!(h.last, 0.25);
        assert_eq!(report.budget.len(), 1);
        assert!((report.total_epsilon() - 0.5).abs() < 1e-12);
        // Drained: a second take is empty.
        assert!(rec.take().is_empty());
    }

    #[test]
    fn spans_nest_and_timings_are_monotone() {
        let rec = Recorder::new();
        {
            let _scope = rec.enter();
            let _outer = span("outer");
            std::thread::sleep(Duration::from_millis(2));
            {
                let _inner = span("inner");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let report = rec.take();
        let outer = report.span("outer").expect("outer span recorded");
        let inner = report.span("outer/inner").expect("nested path recorded");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert!(
            outer.total_nanos >= inner.total_nanos,
            "parent ({}) must contain child ({})",
            outer.total_nanos,
            inner.total_nanos
        );
        assert!(inner.total_nanos > 0, "sleep makes duration nonzero");
        assert!(outer.min_nanos <= outer.max_nanos);
    }

    #[test]
    fn repeated_spans_aggregate_under_one_path() {
        let rec = Recorder::new();
        {
            let _scope = rec.enter();
            for _ in 0..3 {
                let _s = span("repeat");
            }
        }
        let report = rec.take();
        let s = report.span("repeat").expect("span recorded");
        assert_eq!(s.count, 3);
        assert!(s.min_nanos <= s.max_nanos);
        assert!(s.total_nanos >= s.max_nanos);
    }

    #[test]
    fn nested_scopes_both_observe_events() {
        let outer = Recorder::new();
        let inner = Recorder::new();
        {
            let _o = outer.enter();
            {
                let _i = inner.enter();
                counter("lib.nested.both", 1);
            }
            counter("lib.nested.outer_only", 1);
        }
        let outer_report = outer.take();
        let inner_report = inner.take();
        assert_eq!(outer_report.counter("lib.nested.both"), 1);
        assert_eq!(inner_report.counter("lib.nested.both"), 1);
        assert_eq!(outer_report.counter("lib.nested.outer_only"), 1);
        assert_eq!(inner_report.counter("lib.nested.outer_only"), 0);
    }

    #[test]
    fn same_recorder_scoped_twice_records_once() {
        let rec = Recorder::new();
        {
            let _a = rec.enter();
            let _b = rec.enter();
            counter("lib.dedup.once", 1);
        }
        assert_eq!(rec.take().counter("lib.dedup.once"), 1);
    }

    #[test]
    fn thread_context_carries_scoped_recorders_to_workers() {
        let rec = Recorder::new();
        {
            let _scope = rec.enter();
            let _outer = span("ctx.outer");
            let ctx = ThreadContext::capture();
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        let _guard = ctx.activate();
                        counter("ctx.worker.items", 2);
                        let _inner = span("ctx.inner");
                    });
                }
            });
        }
        let report = rec.take();
        assert_eq!(report.counter("ctx.worker.items"), 8);
        // Worker spans nest under the captured path.
        let inner = report
            .span("ctx.outer/ctx.inner")
            .expect("worker span nests under captured path");
        assert_eq!(inner.count, 4);
    }

    #[test]
    fn thread_context_guard_restores_previous_context() {
        let rec = Recorder::new();
        let ctx = {
            let _scope = rec.enter();
            ThreadContext::capture()
        };
        {
            let _guard = ctx.activate();
            assert!(enabled());
            counter("ctx.restored.inside", 1);
        }
        counter("ctx.restored.outside", 1);
        let report = rec.take();
        assert_eq!(report.counter("ctx.restored.inside"), 1);
        assert_eq!(
            report.counter("ctx.restored.outside"),
            0,
            "guard drop must deactivate the captured recorders"
        );
    }

    #[test]
    fn primitives_forward_structured_events_to_trace_collectors() {
        let _draws = draw_lock();
        use ppdp_trace::{Collector, TraceEvent};
        let rec = Recorder::new();
        let col = Collector::new();
        {
            let _rscope = rec.enter();
            let _tscope = col.enter();
            let outer = span("fwd.outer");
            counter("fwd.count", 3);
            value("fwd.residual", 0.5);
            budget_draw("laplace", "fwd[0]", 0.25, 0.0, 1.0);
            degradation("fwd", "test_reason");
            drop(outer);
        }
        let report = rec.take();
        assert_eq!(report.counter("fwd.count"), 3);
        let trace = col.take();
        let kinds: Vec<&str> = trace.records.iter().map(|r| r.event.kind()).collect();
        assert_eq!(
            kinds,
            [
                "span_enter",
                "counter",
                "value",
                "budget_draw",
                "degradation",
                "span_exit"
            ]
        );
        // Budget draws carry this file's call site.
        assert!(trace.records.iter().any(|r| matches!(
            &r.event,
            TraceEvent::BudgetDraw { call_site, epsilon, .. }
                if call_site.contains("lib.rs") && *epsilon == 0.25
        )));
        // The degradation attaches to the open span's key.
        let span_key = trace.records[0].key.clone();
        assert!(trace.records.iter().any(|r| matches!(
            &r.event,
            TraceEvent::Degradation { span, .. } if span.as_ref() == Some(&span_key)
        )));
        // Span exits carry the telemetry path.
        assert!(trace.records.iter().any(|r| matches!(
            &r.event,
            TraceEvent::SpanExit { path, .. } if path == "fwd.outer"
        )));
    }

    #[test]
    fn trace_only_spans_still_nest_without_recorders() {
        use ppdp_trace::{Collector, TraceEvent};
        let col = Collector::new();
        {
            let _tscope = col.enter();
            let outer = span("traceonly.outer");
            {
                let _inner = span("traceonly.inner");
            }
            drop(outer);
        }
        let trace = col.take();
        assert!(trace.records.iter().any(|r| matches!(
            &r.event,
            TraceEvent::SpanExit { path, .. } if path == "traceonly.outer/traceonly.inner"
        )));
    }

    #[test]
    fn primitives_tee_into_live_metrics_registry() {
        let _draws = draw_lock();
        // The only test in this binary that installs the process-global
        // metrics registry, so no cross-test interference on its names.
        let registry = ppdp_metrics::Registry::new();
        let prev = ppdp_metrics::install_global(registry.clone());
        {
            let outer = span("tee.outer");
            counter("tee.count", 4);
            value("tee.residual", 0.25);
            gauge("tee.position", 7.0);
            target("tee.position", 10.0);
            budget_draw("laplace", "tee[0]", 0.5, 0.0, 1.0);
            degradation("tee", "test_reason");
            drop(outer);
        }
        let snap = registry.snapshot_shards_only();
        match prev {
            Some(p) => {
                ppdp_metrics::install_global(p);
            }
            None => {
                ppdp_metrics::uninstall_global();
            }
        }
        assert_eq!(snap.counters.get("tee.count"), Some(&4));
        let h = snap
            .histograms
            .get("tee.residual")
            .expect("value() tees a histogram");
        assert_eq!(h.count, 1);
        assert_eq!(snap.gauges.get("tee.position"), Some(&7.0));
        assert_eq!(snap.gauges.get("target.tee.position"), Some(&10.0));
        assert_eq!(snap.counters.get("budget.draws"), Some(&1));
        let eps = snap
            .fcounters
            .get("budget.epsilon_spent")
            .expect("epsilon tee");
        assert!((eps - 0.5).abs() < 1e-12);
        assert_eq!(snap.counters.get("degraded.tee"), Some(&1));
        assert_eq!(snap.counters.get("degraded.tee.test_reason"), Some(&1));
        // Spans tee even with no recorder or collector active.
        assert_eq!(snap.counters.get("span.tee.outer.calls"), Some(&1));
        assert!(snap.histograms.contains_key("span.tee.outer.seconds"));
    }

    #[test]
    fn global_recorder_sees_events_from_spawned_threads() {
        // Unique metric names: other tests run in parallel and may also
        // have the global slot occupied at some point — we only assert
        // on names no other test uses, and restore the previous global.
        let rec = Recorder::new();
        let prev = install_global(rec.clone());
        counter("lib.global.main_thread", 1);
        // A raw OS thread on purpose: this test verifies the *global*
        // recorder is visible outside any `ppdp-exec` pool, so it must not
        // go through the structured layer the lint below funnels us into.
        #[allow(clippy::disallowed_methods)]
        std::thread::spawn(|| counter("lib.global.worker_thread", 2))
            .join()
            .expect("worker thread");
        let report = rec.snapshot();
        match prev {
            Some(p) => {
                install_global(p);
            }
            None => {
                uninstall_global();
            }
        }
        assert_eq!(report.counter("lib.global.main_thread"), 1);
        assert_eq!(report.counter("lib.global.worker_thread"), 2);
    }
}
