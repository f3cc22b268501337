//! # sdlo-trace
//!
//! Low-overhead structured tracing for the analysis pipeline: nestable
//! **spans** with monotonic microsecond timings, typed **attributes**, and
//! span-scoped **counters** (components enumerated, tiles pruned, accesses
//! streamed, …).
//!
//! The default state is **off**: [`span`] and [`count`] check one relaxed
//! atomic load and return immediately, so instrumented hot paths cost
//! nothing in production. A process installs a [`Collect`]or (usually a
//! [`MemoryCollector`]) around the region it wants profiled:
//!
//! ```
//! let collector = sdlo_trace::MemoryCollector::new();
//! sdlo_trace::install(collector.clone());
//! {
//!     let span = sdlo_trace::span("model.build");
//!     span.attr("program", "tiled_matmul");
//!     span.add("components", 9);
//! }
//! sdlo_trace::uninstall();
//! let chrome_json = collector.chrome_trace(); // loadable in Perfetto
//! let phases = collector.summary();           // per-phase totals
//! assert_eq!(phases[0].name, "model.build");
//! assert_eq!(phases[0].counters["components"], 9);
//! ```
//!
//! Spans nest per thread: dropping the guard closes the span, and
//! [`count`] attributes a counter increment to the innermost open span of
//! the calling thread, so deep library code can report counters without
//! threading a handle through every signature. Each thread gets a stable
//! trace `tid`, so phases run on parallel threads render as parallel
//! tracks in Perfetto.
//!
//! The crate is dependency-free (it writes its own Chrome trace-event JSON)
//! so every layer of the workspace can be instrumented without coupling.

pub mod chrome;
pub mod flight;
pub mod log;

/// Span-name constants for families that cross crate boundaries, so the
/// emitting crate and the tooling that aggregates by name (`tables profile`,
/// the flight recorder, dashboards) cannot drift apart. Single-crate span
/// names (`model.build`, `tilesearch.*`, `cachesim.replay`, …) stay string
/// literals at their emission site.
pub mod names {
    /// Revise-session family: binding a session's inputs on its model's
    /// tape and running it once (`sdlo-core`).
    pub const REVISE_DAG_BUILD: &str = "revise.dag_build";
    /// Applying one structured delta to a live session (`sdlo-core`).
    pub const REVISE_APPLY_DELTA: &str = "revise.apply_delta";
    /// Base-miss fallback: establishing a revise session from a cold or
    /// cached model (`sdlo-service`).
    pub const REVISE_FULL_BUILD: &str = "revise.full_build";
}

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// A typed attribute value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    Int(i64),
    UInt(u64),
    Float(f64),
    Bool(bool),
    Str(String),
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}
impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::UInt(v)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::UInt(v as u64)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::Float(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

/// One raw trace record. Collectors receive records in emission order;
/// records of one span id always appear as Begin, then Attr/Count, then End.
#[derive(Debug, Clone)]
pub enum Record {
    Begin {
        id: u64,
        parent: Option<u64>,
        name: Cow<'static, str>,
        ts_micros: u64,
        tid: u64,
    },
    End {
        id: u64,
        name: Cow<'static, str>,
        ts_micros: u64,
        tid: u64,
    },
    Attr {
        id: u64,
        key: Cow<'static, str>,
        value: AttrValue,
    },
    Count {
        id: u64,
        key: Cow<'static, str>,
        delta: u64,
    },
}

/// Sink for trace records. Implementations must tolerate records from many
/// threads concurrently.
pub trait Collect: Send + Sync {
    fn record(&self, record: Record);
}

/// In-memory collector: accumulates records for later export as Chrome
/// trace-event JSON ([`MemoryCollector::chrome_trace`]) or a per-phase
/// summary ([`MemoryCollector::summary`]).
#[derive(Debug, Default)]
pub struct MemoryCollector {
    records: Mutex<Vec<Record>>,
}

impl MemoryCollector {
    pub fn new() -> Arc<Self> {
        Arc::new(MemoryCollector::default())
    }

    /// Snapshot of every record collected so far.
    pub fn records(&self) -> Vec<Record> {
        self.records.lock().unwrap().clone()
    }

    pub fn is_empty(&self) -> bool {
        self.records.lock().unwrap().is_empty()
    }

    /// Render everything as a Chrome trace-event JSON document.
    pub fn chrome_trace(&self) -> String {
        chrome::render(&self.records())
    }

    /// Aggregate spans by name: call counts, total wall time, counters.
    pub fn summary(&self) -> Vec<PhaseSummary> {
        summarize(&self.records())
    }
}

impl Collect for MemoryCollector {
    fn record(&self, record: Record) {
        self.records.lock().unwrap().push(record);
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static COLLECTOR: Mutex<Option<Arc<dyn Collect>>> = Mutex::new(None);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> (Instant, u64) {
    static EPOCH: OnceLock<(Instant, u64)> = OnceLock::new();
    *EPOCH.get_or_init(|| {
        let unix = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        (Instant::now(), unix)
    })
}

/// Microseconds since the process trace epoch (monotonic).
pub fn now_micros() -> u64 {
    epoch().0.elapsed().as_micros() as u64
}

/// The wall-clock (unix) microsecond timestamp the process trace epoch was
/// anchored at. Adding this to any span `ts_micros` yields an approximate
/// unix timestamp, which is how `tables trace-merge` aligns traces exported
/// by different processes onto one timeline.
pub fn epoch_unix_micros() -> u64 {
    epoch().1
}

/// Install a collector and enable tracing process-wide.
pub fn install(collector: Arc<dyn Collect>) {
    // Touch the epoch before enabling so the first span's timestamp is
    // strictly positive and ordered after installation.
    let _ = epoch();
    *COLLECTOR.lock().unwrap() = Some(collector);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Disable tracing and return the previously installed collector.
pub fn uninstall() -> Option<Arc<dyn Collect>> {
    ENABLED.store(false, Ordering::SeqCst);
    COLLECTOR.lock().unwrap().take()
}

/// Whether a collector is installed. One relaxed load — this is the entire
/// cost of an instrumented call site when tracing is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

struct SpanInner {
    id: u64,
    name: Cow<'static, str>,
    tid: u64,
    collector: Arc<dyn Collect>,
}

/// RAII guard for one span: created by [`span`], closed on drop. All
/// methods are no-ops when tracing is disabled.
pub struct Span {
    inner: Option<SpanInner>,
}

/// Open a span. Returns an inert guard (no allocation, no lock) when
/// tracing is off.
pub fn span(name: impl Into<Cow<'static, str>>) -> Span {
    span_with_parent(name, None)
}

/// Open a span whose parent may live in *another process*: when the calling
/// thread has an open span that local parent wins (normal nesting), otherwise
/// `remote_parent` — a span id received over the wire in a request's `trace`
/// context — is recorded as the parent. This is how a backend's
/// `service.request` span attaches under the router's root span.
pub fn span_with_parent(name: impl Into<Cow<'static, str>>, remote_parent: Option<u64>) -> Span {
    if !enabled() {
        return Span { inner: None };
    }
    let Some(collector) = COLLECTOR.lock().unwrap().clone() else {
        return Span { inner: None };
    };
    let name = name.into();
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let tid = TID.with(|t| *t);
    let parent = STACK.with(|s| s.borrow().last().copied()).or(remote_parent);
    collector.record(Record::Begin {
        id,
        parent,
        name: name.clone(),
        ts_micros: now_micros(),
        tid,
    });
    STACK.with(|s| s.borrow_mut().push(id));
    Span {
        inner: Some(SpanInner {
            id,
            name,
            tid,
            collector,
        }),
    }
}

/// Record an already-finished span with explicit timestamps, parented under
/// `parent`. Used by the transport to attribute phases (queue/exec/write)
/// whose boundaries were measured outside any live span guard. Returns the
/// fabricated span's id, or `None` when tracing is off.
pub fn record_span_at(
    name: impl Into<Cow<'static, str>>,
    parent: Option<u64>,
    begin_micros: u64,
    end_micros: u64,
) -> Option<u64> {
    if !enabled() {
        return None;
    }
    let collector = COLLECTOR.lock().unwrap().clone()?;
    let name = name.into();
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let tid = TID.with(|t| *t);
    collector.record(Record::Begin {
        id,
        parent,
        name: name.clone(),
        ts_micros: begin_micros,
        tid,
    });
    collector.record(Record::End {
        id,
        name,
        ts_micros: end_micros.max(begin_micros),
        tid,
    });
    Some(id)
}

impl Span {
    /// Whether this span actually records (false under the no-op default).
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// The span's id, usable as a `parent_span` in an outgoing trace
    /// context. `None` when tracing is off.
    pub fn id(&self) -> Option<u64> {
        self.inner.as_ref().map(|i| i.id)
    }

    /// Attach a typed attribute.
    pub fn attr(&self, key: &'static str, value: impl Into<AttrValue>) {
        if let Some(i) = &self.inner {
            i.collector.record(Record::Attr {
                id: i.id,
                key: Cow::Borrowed(key),
                value: value.into(),
            });
        }
    }

    /// Add `delta` to a counter scoped to this span.
    pub fn add(&self, key: &'static str, delta: u64) {
        if let Some(i) = &self.inner {
            i.collector.record(Record::Count {
                id: i.id,
                key: Cow::Borrowed(key),
                delta,
            });
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(i) = self.inner.take() {
            STACK.with(|s| {
                let mut s = s.borrow_mut();
                if let Some(pos) = s.iter().rposition(|x| *x == i.id) {
                    s.remove(pos);
                }
            });
            i.collector.record(Record::End {
                id: i.id,
                name: i.name,
                ts_micros: now_micros(),
                tid: i.tid,
            });
        }
    }
}

/// Add `delta` to a counter on the innermost open span of the calling
/// thread. No-op when tracing is off or no span is open — deep library code
/// can call this unconditionally.
pub fn count(key: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    let Some(id) = STACK.with(|s| s.borrow().last().copied()) else {
        return;
    };
    if let Some(c) = COLLECTOR.lock().unwrap().clone() {
        c.record(Record::Count {
            id,
            key: Cow::Borrowed(key),
            delta,
        });
    }
}

/// Aggregate of all spans sharing one name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSummary {
    pub name: String,
    /// Spans opened under this name.
    pub calls: u64,
    /// Summed wall time of the closed spans, microseconds.
    pub total_micros: u64,
    /// Span-scoped counters, summed.
    pub counters: BTreeMap<String, u64>,
}

/// Aggregate records by span name, in first-seen order. Spans missing an
/// End record contribute their call count but no duration.
pub fn summarize(records: &[Record]) -> Vec<PhaseSummary> {
    let mut begin_ts: BTreeMap<u64, (usize, u64)> = BTreeMap::new(); // id -> (phase idx, ts)
    let mut order: Vec<PhaseSummary> = Vec::new();
    let mut by_name: BTreeMap<String, usize> = BTreeMap::new();
    for r in records {
        match r {
            Record::Begin {
                id,
                name,
                ts_micros,
                ..
            } => {
                let idx = *by_name.entry(name.to_string()).or_insert_with(|| {
                    order.push(PhaseSummary {
                        name: name.to_string(),
                        calls: 0,
                        total_micros: 0,
                        counters: BTreeMap::new(),
                    });
                    order.len() - 1
                });
                order[idx].calls += 1;
                begin_ts.insert(*id, (idx, *ts_micros));
            }
            Record::End { id, ts_micros, .. } => {
                if let Some((idx, begun)) = begin_ts.remove(id) {
                    order[idx].total_micros += ts_micros.saturating_sub(begun);
                }
            }
            Record::Count { id, key, delta } => {
                if let Some((idx, _)) = begin_ts.get(id) {
                    *order[*idx].counters.entry(key.to_string()).or_insert(0) += delta;
                }
            }
            Record::Attr { .. } => {}
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The collector is process-global; serialize tests that install one.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = lock();
        assert!(!enabled());
        let c = MemoryCollector::new();
        // Not installed: spans and counters are inert.
        {
            let s = span("model.build");
            assert!(!s.is_recording());
            s.attr("program", "x");
            s.add("components", 3);
            count("orphan", 1);
        }
        assert!(c.is_empty());
    }

    #[test]
    fn spans_nest_and_counters_attach_to_innermost() {
        let _g = lock();
        let c = MemoryCollector::new();
        install(c.clone());
        {
            let outer = span("outer");
            outer.add("outer_counter", 1);
            {
                let _inner = span("inner");
                count("streamed", 10);
                count("streamed", 5);
            }
            count("outer_late", 2);
        }
        uninstall();
        let phases = c.summary();
        assert_eq!(phases.len(), 2);
        let outer = &phases[0];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.calls, 1);
        assert_eq!(outer.counters["outer_counter"], 1);
        assert_eq!(outer.counters["outer_late"], 2);
        let inner = &phases[1];
        assert_eq!(inner.name, "inner");
        assert_eq!(inner.counters["streamed"], 15);
        // Parent link recorded.
        let records = c.records();
        let inner_parent = records.iter().find_map(|r| match r {
            Record::Begin { name, parent, .. } if name == "inner" => Some(*parent),
            _ => None,
        });
        assert!(matches!(inner_parent, Some(Some(_))));
    }

    #[test]
    fn summary_sums_repeated_calls() {
        let _g = lock();
        let c = MemoryCollector::new();
        install(c.clone());
        for i in 0..3 {
            let s = span("phase");
            s.add("n", i);
        }
        uninstall();
        let phases = c.summary();
        assert_eq!(phases[0].calls, 3);
        assert_eq!(phases[0].counters["n"], 3); // 0 + 1 + 2
    }

    #[test]
    fn remote_parent_applies_only_without_local_stack() {
        let _g = lock();
        let c = MemoryCollector::new();
        install(c.clone());
        let root_id;
        {
            let root = span_with_parent("router.request", Some(777));
            root_id = root.id().unwrap();
            let _child = span_with_parent("service.request", Some(12345));
        }
        uninstall();
        let records = c.records();
        let parent_of = |n: &str| {
            records.iter().find_map(|r| match r {
                Record::Begin { name, parent, .. } if name == n => Some(*parent),
                _ => None,
            })
        };
        // No local span open: the remote parent wins.
        assert_eq!(parent_of("router.request"), Some(Some(777)));
        // Local stack present: local nesting wins over the remote parent.
        assert_eq!(parent_of("service.request"), Some(Some(root_id)));
    }

    #[test]
    fn record_span_at_emits_balanced_pair_with_explicit_times() {
        let _g = lock();
        let c = MemoryCollector::new();
        install(c.clone());
        let id = record_span_at("request.queue", Some(42), 100, 250).unwrap();
        uninstall();
        let records = c.records();
        assert_eq!(records.len(), 2);
        match &records[0] {
            Record::Begin {
                id: rid,
                parent,
                name,
                ts_micros,
                ..
            } => {
                assert_eq!(*rid, id);
                assert_eq!(*parent, Some(42));
                assert_eq!(name, "request.queue");
                assert_eq!(*ts_micros, 100);
            }
            r => panic!("expected Begin, got {r:?}"),
        }
        match &records[1] {
            Record::End { ts_micros, .. } => assert_eq!(*ts_micros, 250),
            r => panic!("expected End, got {r:?}"),
        }
        // Disabled: returns None, records nothing.
        assert_eq!(record_span_at("x", None, 0, 1), None);
    }

    #[test]
    fn epoch_unix_micros_is_anchored_once() {
        let a = epoch_unix_micros();
        let b = epoch_unix_micros();
        assert_eq!(a, b);
        // Sanity: after 2020-01-01 in microseconds.
        assert!(a > 1_577_836_800_000_000);
    }

    #[test]
    fn timestamps_are_monotonic() {
        let _g = lock();
        let c = MemoryCollector::new();
        install(c.clone());
        {
            let _a = span("a");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        {
            let _b = span("b");
        }
        uninstall();
        let ts: Vec<u64> = c
            .records()
            .iter()
            .filter_map(|r| match r {
                Record::Begin { ts_micros, .. } | Record::End { ts_micros, .. } => Some(*ts_micros),
                _ => None,
            })
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "{ts:?}");
        let phases = c.summary();
        assert!(phases[0].total_micros >= 1_000);
    }
}
