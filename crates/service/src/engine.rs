//! The embeddable request engine: JSON request in, JSON response out.
//!
//! The engine owns the canonical-shape model cache and the metrics; the TCP
//! server ([`crate::server`]) is a thin transport around it, and tests or
//! other hosts can drive it directly via [`Engine::handle_line`].
//!
//! ## Request shape
//!
//! Every request is one JSON object with an `"op"` field and an optional
//! `"id"` echoed back verbatim:
//!
//! * `{"op":"analyze","program":…}` — reuse components + symbolic
//!   stack-distance expressions.
//! * `{"op":"predict","program":…,"bindings":{…},"cache":8192}` — predicted
//!   miss count (add `"per_array":true` for the per-array split).
//! * `{"op":"advise","program":…,"bindings":{…},"cache":8192,"space":{…}}`
//!   — optimal tile sizes; `"mode":"exhaustive"` for the unpruned baseline,
//!   `"bounds_free":{…}` for the §6 bounds-oblivious search.
//! * `{"op":"batch","requests":[…]}` — sub-requests served in order.
//! * `{"op":"lint","program":…}` — static diagnostics (`sdlo-analysis`):
//!   model-assumption violations and locality anti-patterns, each with a
//!   rule id, severity, span and optional fix-it. Inline programs that fail
//!   [`Program::validate`] still lint (the `structure` diagnostic reports
//!   the problem) — only schema-level decode errors fail the request.
//! * `{"op":"stats"}` — counters, latency histograms, cache hit rate.
//! * `{"op":"metrics"}` — the same counters in Prometheus text exposition
//!   format (as a `"text"` field; add `"raw":true` at the transport level
//!   for a scrape-ready plain-text reply).
//!
//! `"program"` is either a builtin name (`"matmul"`, `"tiled_matmul"`, …)
//! or an inline program object (see `sdlo-wire`).
//!
//! Each request's shared fields decode once into a [`crate::api::Envelope`];
//! the op is then resolved against the [`crate::ops`] registry (one module
//! per op, each owning its body schema) and served. Replies are built by
//! the [`crate::api`] envelope builders, so every response — success or
//! failure — shares one shape:
//! `{"id":…,"request_id":…,"v":1,"ok":true,…}` or
//! `{"id":…,"request_id":…,"v":1,"ok":false,"error":{"kind":…,"message":…}}`.
//! See the [`crate::api`] docs for versioning rules.
//!
//! `advise` accepts an optional search budget (`"deadline_ms"`,
//! `"max_evals"`); a search that exhausts it returns `ok:true` with
//! `completed:false` and the best tile found so far instead of blocking.
//!
//! Every response carries a `"request_id"`: the client-supplied
//! `"request_id"` string if present, otherwise a server-generated
//! `req-XXXXXXXX`. The id is attached to the request's trace span
//! (`service.request`) so daemon traces correlate with client logs, and is
//! present on error replies too.

use crate::api::{self, fail, ApiError, ErrorKind, Resolved};
use crate::cache::ShardedCache;
use crate::diskcache::{DiskCache, DiskOutcome};
use crate::metrics::Metrics;
use crate::ops::revise::Session;
use crate::ops::{OpCtx, ServiceOp};
use crate::server::{LineHandler, RequestMeta};
use sdlo_core::model::MissModel;
use sdlo_core::Tape;
use sdlo_ir::canon::{canonicalize, Canonical};
use sdlo_ir::Program;
use sdlo_symbolic::{Bindings, Sym};
use sdlo_trace::flight::{self, FlightRecord, FlightRecorder};
use sdlo_trace::AttrValue;
use sdlo_wire::Value;
use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Most shards of the model cache; a cache of fewer shapes has one shard
/// per shape.
const CACHE_SHARDS: usize = 8;

/// Engine limits and cache sizing.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Total cached shapes.
    pub cache_capacity: usize,
    /// Soft wall-clock budget for one request; `batch` stops dispatching
    /// new sub-requests past it.
    pub max_request_millis: u64,
    /// Enable test-only ops (`sleep`) used by the loopback tests to make
    /// backpressure deterministic. Off in production binaries.
    pub enable_test_ops: bool,
    /// Disk-backed model-cache directory ([`crate::diskcache`]). When set,
    /// in-memory misses first try the persisted tier before building, and
    /// every freshly built model is persisted — so a restarted process
    /// warm-starts without rebuilding any previously-seen shape.
    pub cache_dir: Option<std::path::PathBuf>,
    /// Requests slower than this total (µs) get their span tree captured by
    /// the flight recorder. 0 disables slow captures.
    pub slow_threshold_micros: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            cache_capacity: 256,
            max_request_millis: 30_000,
            enable_test_ops: false,
            cache_dir: None,
            slow_threshold_micros: 100_000,
        }
    }
}

/// A cached analysis: the canonicalization (for name translation), the
/// built model, its tape once an `advise` or a `revise` has compiled it,
/// and the shape's `revise` session once a `revise` has established one.
/// Both live exactly as long as the entry.
pub struct CachedModel {
    pub canonical: Arc<Canonical>,
    pub model: MissModel,
    tape: OnceLock<Arc<Tape>>,
    pub(crate) session: Mutex<Option<Session>>,
}

impl CachedModel {
    fn new(canonical: Arc<Canonical>, model: MissModel) -> Self {
        CachedModel {
            canonical,
            model,
            tape: OnceLock::new(),
            session: Mutex::new(None),
        }
    }

    /// The model's one tape: compiled on the shape's first `advise` or
    /// `revise`, then shared by every bound search on it and its `revise`
    /// session.
    pub(crate) fn tape(&self) -> Arc<Tape> {
        let tape = self
            .tape
            .get_or_init(|| Arc::new(Tape::compile(&self.model)));
        Arc::clone(tape)
    }
}

/// The tile-advisor engine. Cheap to share (`Arc<Engine>`); all state is
/// internally synchronized.
pub struct Engine {
    pub(crate) config: EngineConfig,
    pub(crate) cache: ShardedCache<CachedModel>,
    /// Persistent tier behind the in-memory cache, when configured.
    disk: Option<DiskCache>,
    pub(crate) metrics: Arc<Metrics>,
    /// Always-on ring of recent requests + slow-request span captures.
    pub(crate) flight: Arc<FlightRecorder>,
    /// Monotone source for server-generated request ids.
    req_seq: std::sync::atomic::AtomicU64,
}

/// What an op returns: the reply body fields in wire order, or an error on
/// its way into the unified envelope.
pub type OpResult = Result<Vec<(&'static str, Value)>, ApiError>;

/// An op's in-flight gauge, held up for as long as the guard lives. The
/// decrement is in `Drop`, so an op that unwinds still leaves it balanced.
struct InFlight<'a>(&'a std::sync::atomic::AtomicU64);

impl<'a> InFlight<'a> {
    fn enter(gauge: &'a std::sync::atomic::AtomicU64) -> InFlight<'a> {
        gauge.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        InFlight(gauge)
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, std::sync::atomic::Ordering::Relaxed);
    }
}

impl Engine {
    pub fn new(config: EngineConfig) -> Self {
        let cache = ShardedCache::new(CACHE_SHARDS, config.cache_capacity);
        let disk = config.cache_dir.clone().map(DiskCache::new);
        let flight = Arc::new(FlightRecorder::new(
            flight::CAPACITY,
            config.slow_threshold_micros,
        ));
        Engine {
            config,
            cache,
            disk,
            metrics: Arc::new(Metrics::default()),
            flight,
            req_seq: std::sync::atomic::AtomicU64::new(1),
        }
    }

    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Handle one newline-delimited request line; always returns exactly one
    /// single-line JSON response.
    pub fn handle_line(&self, line: &str) -> String {
        self.handle_line_timed(line, 0).0
    }

    /// Handle one parsed request document: parse → dispatch → encode.
    pub fn handle(&self, request: &Value) -> Value {
        self.handle_timed(request, 0).0
    }

    /// Handle one parsed request document, attributing `queue_micros` of
    /// pre-pickup wait to it. Every request — success or failure — lands in
    /// the flight recorder; the returned [`RequestMeta`] lets the transport
    /// amend the write phase in once the reply is actually flushed.
    pub fn handle_timed(&self, request: &Value, queue_micros: u64) -> (Value, RequestMeta) {
        let started = Instant::now();
        let envelope = api::parse_envelope(request);
        let (slot, op) = crate::ops::find(&envelope.op);
        let op_stats = self.metrics.op(slot);
        let request_id = envelope
            .request_id
            .clone()
            .unwrap_or_else(|| self.next_request_id());
        let remote_parent = envelope.trace.as_ref().and_then(|t| t.parent_span);
        let span = sdlo_trace::span_with_parent("service.request", remote_parent);
        span.attr("op", envelope.op.as_str());
        span.attr("request_id", request_id.as_str());
        if let Some(trace) = &envelope.trace {
            span.attr("trace_id", trace.trace_id.as_str());
        }
        let root_span = span.id();
        let ctx = OpCtx {
            request,
            envelope: &envelope,
            started,
            canon_hash: Cell::new(0),
        };
        let in_flight = InFlight::enter(&op_stats.in_flight);
        let outcome = self.dispatch(op, &ctx);
        let canon_hash = ctx.canon_hash.get();
        drop(in_flight);
        let micros = started.elapsed().as_micros() as u64;
        op_stats.record(micros, outcome.is_ok());
        self.metrics.exec.observe_micros(micros);
        drop(span);
        let status = match &outcome {
            Ok(_) => "ok".to_string(),
            Err(e) => e.kind.as_str().to_string(),
        };
        // `timing` is strictly opt-in, and only success replies carry it —
        // the error envelope's shape is pinned by the golden wire tests.
        let server_timing = envelope.server_timing && outcome.is_ok();
        let reply = match outcome {
            Ok(mut body) => {
                if server_timing {
                    // Appended last so the reactor can splice the
                    // write-phase micros in at flush time.
                    body.push((
                        "timing",
                        Value::obj(vec![
                            ("queue_micros", Value::from(queue_micros)),
                            ("exec_micros", Value::from(micros)),
                        ]),
                    ));
                }
                api::reply(envelope.id, &request_id, body)
            }
            Err(e) => api::error_reply(envelope.id, &request_id, &e),
        };
        let flight_ticket = self.flight.push(
            FlightRecord {
                op: envelope.op.clone(),
                canon_hash,
                status,
                queue_micros,
                exec_micros: micros,
                total_micros: queue_micros + micros,
                request_id,
                trace_id: envelope
                    .trace
                    .as_ref()
                    .map(|t| t.trace_id.clone())
                    .unwrap_or_default(),
                ..FlightRecord::default()
            },
            root_span,
        );
        (
            reply,
            RequestMeta {
                flight_ticket,
                root_span,
                server_timing,
            },
        )
    }

    /// Gate the version, then serve the op the registry resolved. The two
    /// failure modes that belong to no op — unsupported version and
    /// unknown/missing `op` — are produced here, never in an op module.
    fn dispatch(&self, op: Option<&dyn ServiceOp>, ctx: &OpCtx<'_>) -> OpResult {
        let envelope = ctx.envelope;
        api::check_version(envelope)?;
        let Some(op) = op else {
            return Err(if envelope.op.is_empty() {
                fail(ErrorKind::Unsupported, "missing `op` field")
            } else {
                fail(
                    ErrorKind::Unsupported,
                    format!("unknown op `{}`", envelope.op),
                )
            });
        };
        op.serve(self, ctx)
    }

    // -- memoized analysis ---------------------------------------------------

    /// Fetch (or build) the memoized model for an already-canonicalized
    /// program. This is the expensive middle every request funnels through.
    pub(crate) fn model_for(&self, resolved: &Resolved) -> (Arc<CachedModel>, bool) {
        let canonical = &resolved.canonical;
        let hash = canonical.hash;
        let (cached, hit) = self.cache.get_or_build(hash, &canonical.program, || {
            CachedModel::new(Arc::clone(canonical), self.load_or_build(hash, canonical))
        });
        let counter = if hit {
            &self.metrics.cache_hits
        } else {
            &self.metrics.cache_misses
        };
        counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        (cached, hit)
    }

    /// The cached model bearing `hash` by hash alone (the `revise` op's
    /// base): memory first, then the disk tier. A disk hit is promoted into
    /// the in-memory cache so the revise session and ordinary requests for
    /// the same shape share one model. No builder is available — a hash
    /// names a shape only after some request has built it.
    pub(crate) fn model_by_hash(&self, hash: u64) -> Option<Arc<CachedModel>> {
        use std::sync::atomic::Ordering::Relaxed;
        if let Some(cached) = self.cache.get_by_hash(hash) {
            self.metrics.cache_hits.fetch_add(1, Relaxed);
            return Some(cached);
        }
        let (program, model) = self.disk.as_ref()?.load_by_hash(hash)?;
        self.metrics.disk_hits.fetch_add(1, Relaxed);
        // The stored program is already canonical (verified by
        // `load_by_hash`); re-canonicalizing just rebuilds the `Canonical`
        // wrapper the cache entry wants.
        let canonical = Arc::new(canonicalize(&program));
        let (cached, _) = self.cache.get_or_build(hash, &canonical.program, || {
            CachedModel::new(Arc::clone(&canonical), model)
        });
        Some(cached)
    }

    /// In-memory miss path: consult the persisted tier first; only build —
    /// and persist — when disk has no trustworthy entry. Disk failures are
    /// strictly non-fatal: the worst case is a rebuild.
    fn load_or_build(&self, hash: u64, canonical: &Canonical) -> MissModel {
        use std::sync::atomic::Ordering::Relaxed;
        if let Some(disk) = &self.disk {
            match disk.load(hash, &canonical.program) {
                DiskOutcome::Hit(model) => {
                    self.metrics.disk_hits.fetch_add(1, Relaxed);
                    return model;
                }
                DiskOutcome::Rejected(reason) => {
                    self.metrics.disk_errors.fetch_add(1, Relaxed);
                    sdlo_trace::log::warn(
                        "service",
                        "disk_cache.rejected",
                        &[
                            ("canon_hash", AttrValue::Str(format!("{hash:016x}"))),
                            ("reason", AttrValue::Str(reason.to_string())),
                        ],
                    );
                }
                DiskOutcome::Miss => {}
            }
        }
        self.metrics.models_built.fetch_add(1, Relaxed);
        let model = MissModel::build(&canonical.program);
        if let Some(disk) = &self.disk {
            match disk.store(hash, &canonical.program, &model) {
                Ok(()) => {
                    self.metrics.disk_writes.fetch_add(1, Relaxed);
                }
                Err(e) => {
                    self.metrics.disk_errors.fetch_add(1, Relaxed);
                    sdlo_trace::log::warn(
                        "service",
                        "disk_cache.write_failed",
                        &[
                            ("canon_hash", AttrValue::Str(format!("{hash:016x}"))),
                            ("error", AttrValue::Str(e.to_string())),
                        ],
                    );
                }
            }
        }
        model
    }

    /// Map a canonical `ArrayId` back to the requester's array name.
    pub(crate) fn original_name(
        program: &Program,
        canonical: &Canonical,
    ) -> impl Fn(sdlo_ir::ArrayId) -> String {
        let names: Vec<String> = canonical
            .array_map
            .iter()
            .map(|orig| program.array(*orig).name.name().to_string())
            .collect();
        move |id: sdlo_ir::ArrayId| {
            names
                .get(id.0)
                .cloned()
                .unwrap_or_else(|| format!("A{}", id.0))
        }
    }

    // -- request validation helpers -----------------------------------------

    /// Every free symbol of the program must be bound, except `except`.
    pub(crate) fn require_bound(
        &self,
        program: &Program,
        bindings: &Bindings,
        except: &[String],
    ) -> Result<(), ApiError> {
        let except: BTreeSet<Sym> = except.iter().map(|s| Sym::new(s.as_str())).collect();
        let missing: Vec<String> = program
            .free_symbols()
            .into_iter()
            .filter(|s| !except.contains(s) && bindings.get(s).is_none())
            .map(|s| s.name().to_string())
            .collect();
        if missing.is_empty() {
            Ok(())
        } else {
            Err(fail(
                ErrorKind::Schema,
                format!("unbound free symbols: {}", missing.join(", ")),
            ))
        }
    }

    /// Every free symbol must appear in `covered` (bounds-free advise).
    pub(crate) fn require_covered(
        &self,
        program: &Program,
        covered: &[&str],
    ) -> Result<(), ApiError> {
        let covered: BTreeSet<&str> = covered.iter().copied().collect();
        let missing: Vec<String> = program
            .free_symbols()
            .into_iter()
            .filter(|s| !covered.contains(s.name()))
            .map(|s| s.name().to_string())
            .collect();
        if missing.is_empty() {
            Ok(())
        } else {
            Err(fail(
                ErrorKind::Schema,
                format!(
                    "free symbols neither tile nor bound symbols: {}",
                    missing.join(", ")
                ),
            ))
        }
    }
}

/// The daemon's transport serves the engine itself.
impl LineHandler for Engine {
    const COMPONENT: &'static str = "service";

    /// [`Engine::handle_line`] with the time the line sat in the worker
    /// queue, so the per-phase histograms, the opt-in `timing` reply
    /// section and the flight record can attribute it. The meta is `None`
    /// only for lines that failed to parse as JSON.
    fn handle_line_timed(&self, line: &str, queue_micros: u64) -> (String, Option<RequestMeta>) {
        let v = match sdlo_wire::parse(line) {
            Ok(v) => v,
            Err(e) => {
                self.metrics
                    .malformed
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let err = fail(ErrorKind::Malformed, e.to_string());
                return (
                    api::error_reply(None, &self.next_request_id(), &err).render(),
                    None,
                );
            }
        };
        let (reply, meta) = self.handle_timed(&v, queue_micros);
        (reply.render(), Some(meta))
    }

    fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    fn flight(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.flight)
    }

    /// The full Prometheus text exposition, including the cache-size gauge
    /// that lives outside [`Metrics`]. Used by the `metrics` op and by the
    /// transport's raw-scrape path.
    fn prometheus(&self) -> String {
        self.metrics.prometheus(self.cache.len() as u64)
    }

    /// Next server-generated request id.
    fn next_request_id(&self) -> String {
        let n = self
            .req_seq
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        format!("req-{n:08x}")
    }

    fn drain_fields(&self) -> Vec<(&'static str, AttrValue)> {
        use std::sync::atomic::Ordering::Relaxed;
        let hits = self.metrics.cache_hits.load(Relaxed);
        let misses = self.metrics.cache_misses.load(Relaxed);
        let hit_ratio = if hits + misses > 0 {
            hits as f64 / (hits + misses) as f64
        } else {
            0.0
        };
        vec![("cache_hit_ratio", AttrValue::Float(hit_ratio))]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdlo_ir::programs::builtin;

    fn engine() -> Engine {
        Engine::new(EngineConfig {
            enable_test_ops: true,
            ..EngineConfig::default()
        })
    }

    fn parse(s: &str) -> Value {
        sdlo_wire::parse(s).unwrap()
    }

    #[test]
    fn predict_matches_direct_model() {
        let e = engine();
        let resp = parse(&e.handle_line(
            r#"{"op":"predict","id":7,"program":"tiled_matmul",
                "bindings":{"Ni":512,"Nj":512,"Nk":512,"Ti":64,"Tj":64,"Tk":64},
                "cache":8192}"#,
        ));
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true), "{resp:?}");
        assert_eq!(resp.get("id").unwrap().as_i64(), Some(7));
        // The model doctest value for this exact configuration.
        assert_eq!(resp.get("misses").unwrap().as_u64(), Some(6_291_456));
    }

    #[test]
    fn repeated_shape_hits_the_cache() {
        let e = engine();
        let req = r#"{"op":"predict","program":"matmul",
                      "bindings":{"Ni":64,"Nj":64,"Nk":64},"cache":512}"#;
        let first = parse(&e.handle_line(req));
        let second = parse(&e.handle_line(req));
        assert_eq!(first.get("cache_hit").unwrap().as_bool(), Some(false));
        assert_eq!(second.get("cache_hit").unwrap().as_bool(), Some(true));
        assert_eq!(
            first.get("misses").unwrap().as_u64(),
            second.get("misses").unwrap().as_u64()
        );
    }

    #[test]
    fn renamed_inline_program_shares_the_cached_model() {
        let e = engine();
        // Same structure as builtin matmul but with different loop index
        // and array names: must be served from the same cache entry.
        e.handle_line(
            r#"{"op":"predict","program":"matmul",
                "bindings":{"Ni":64,"Nj":64,"Nk":64},"cache":512}"#,
        );
        let renamed = r#"{"op":"predict","cache":512,
            "bindings":{"Ni":64,"Nj":64,"Nk":64},
            "program":{"name":"mm2",
              "arrays":[{"name":"Z","dims":["Ni","Nk"]},
                        {"name":"X","dims":["Ni","Nj"]},
                        {"name":"Y","dims":["Nj","Nk"]}],
              "nest":[{"for":{"index":"p","bound":"Ni","body":[
                       {"for":{"index":"q","bound":"Nj","body":[
                        {"for":{"index":"r","bound":"Nk","body":[
                         {"stmt":{"kind":"mul_add_assign","refs":[
                           {"array":"Z","write":true,"dims":[[{"index":"p"}],[{"index":"r"}]]},
                           {"array":"X","dims":[[{"index":"p"}],[{"index":"q"}]]},
                           {"array":"Y","dims":[[{"index":"q"}],[{"index":"r"}]]}]}}]}}]}}]}}]}}"#;
        let resp = parse(&e.handle_line(renamed));
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true), "{resp:?}");
        assert_eq!(resp.get("cache_hit").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn analyze_reports_components_under_original_names() {
        let e = engine();
        let resp = parse(&e.handle_line(r#"{"op":"analyze","program":"matmul"}"#));
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true));
        let comps = resp.get("components").unwrap().as_array().unwrap();
        assert!(!comps.is_empty());
        let arrays: BTreeSet<&str> = comps
            .iter()
            .filter_map(|c| c.get("array").unwrap().as_str())
            .collect();
        assert!(arrays.contains("A") && arrays.contains("B") && arrays.contains("C"));
    }

    #[test]
    fn advise_finds_tiles_and_bounds_free_works() {
        let e = engine();
        let resp = parse(&e.handle_line(
            r#"{"op":"advise","program":"tiled_matmul","cache":4096,
                "bindings":{"Ni":256,"Nj":256,"Nk":256},
                "space":{"syms":["Ti","Tj","Tk"],"max":[256,256,256],"min":4}}"#,
        ));
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true), "{resp:?}");
        let best = resp.get("outcome").unwrap().get("best").unwrap();
        assert!(best.get("misses").unwrap().as_u64().unwrap() > 0);
        assert!(best.get("tiles").unwrap().get("Ti").is_some());

        let resp = parse(&e.handle_line(
            r#"{"op":"advise","program":"tiled_matmul","cache":4096,
                "bounds_free":{"bounds":["Ni","Nj","Nk"],"nominal":100000},
                "space":{"syms":["Ti","Tj","Tk"],"max":[512,512,512],"min":4}}"#,
        ));
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true), "{resp:?}");
    }

    #[test]
    fn batch_runs_all_and_preserves_order() {
        let e = engine();
        let resp = parse(&e.handle_line(
            r#"{"op":"batch","requests":[
                 {"op":"predict","id":"a","program":"matmul",
                  "bindings":{"Ni":32,"Nj":32,"Nk":32},"cache":256},
                 {"op":"stats","id":"b"},
                 {"op":"nope","id":"c"}]}"#,
        ));
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true));
        let rs = resp.get("responses").unwrap().as_array().unwrap();
        assert_eq!(rs.len(), 3);
        assert_eq!(rs[0].get("id").unwrap().as_str(), Some("a"));
        assert_eq!(rs[1].get("id").unwrap().as_str(), Some("b"));
        assert_eq!(rs[2].get("ok").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn lint_reports_diagnostics_for_builtins() {
        let e = engine();
        let resp = parse(&e.handle_line(r#"{"op":"lint","id":1,"program":"matmul"}"#));
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true), "{resp:?}");
        let summary = resp.get("summary").unwrap();
        assert_eq!(summary.get("error").unwrap().as_u64(), Some(0));
        let diags = resp.get("diagnostics").unwrap().as_array().unwrap();
        assert!(diags
            .iter()
            .any(|d| d.get("rule").unwrap().as_str() == Some("untiled-reuse")));
        // Diagnostic counts surface in stats.
        let stats = parse(&e.handle_line(r#"{"op":"stats"}"#));
        let lint = stats.get("stats").unwrap().get("lint").unwrap();
        let d = lint.get("diagnostics").unwrap();
        assert_eq!(d.get("error").unwrap().as_u64(), Some(0));
        assert!(d.get("warning").unwrap().as_u64().unwrap() > 0);
    }

    #[test]
    fn lint_accepts_invalid_inline_programs() {
        let e = engine();
        // Unbound index `i`: predict refuses this program, lint reports it.
        let prog = r#""program":{"name":"bad","arrays":[{"name":"A","dims":["N"]}],
            "nest":[{"stmt":{"kind":"zero",
                     "refs":[{"array":"A","write":true,"dims":[[{"index":"i"}]]}]}}]}"#;
        let resp = parse(&e.handle_line(&format!(r#"{{"op":"lint",{prog}}}"#)));
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true), "{resp:?}");
        let diags = resp.get("diagnostics").unwrap().as_array().unwrap();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].get("rule").unwrap().as_str(), Some("structure"));
        assert_eq!(diags[0].get("severity").unwrap().as_str(), Some("error"));
        // Schema-level garbage still fails the request.
        let resp = parse(&e.handle_line(r#"{"op":"lint","program":{"name":"x"}}"#));
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn errors_are_structured() {
        let e = engine();
        let malformed = parse(&e.handle_line("this is not json"));
        assert_eq!(malformed.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(
            malformed
                .get("error")
                .unwrap()
                .get("kind")
                .unwrap()
                .as_str(),
            Some("malformed")
        );

        let unbound = parse(
            &e.handle_line(r#"{"op":"predict","program":"matmul","bindings":{"Ni":8},"cache":64}"#),
        );
        assert_eq!(unbound.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(
            unbound.get("error").unwrap().get("kind").unwrap().as_str(),
            Some("schema")
        );

        let huge_grid = parse(&e.handle_line(
            r#"{"op":"advise","program":"tiled_matmul","cache":64,
                "bindings":{"Ni":8,"Nj":8,"Nk":8},
                "space":{"syms":["Ti","Tj","Tk"],
                         "max":[1152921504606846976,1152921504606846976,1152921504606846976],
                         "min":1}}"#,
        ));
        assert_eq!(
            huge_grid
                .get("error")
                .unwrap()
                .get("kind")
                .unwrap()
                .as_str(),
            Some("limit"),
            "{huge_grid:?}"
        );
    }

    #[test]
    fn stats_reflect_activity() {
        let e = engine();
        e.handle_line(r#"{"op":"predict","program":"matmul","bindings":{"Ni":16,"Nj":16,"Nk":16},"cache":64}"#);
        e.handle_line(r#"{"op":"predict","program":"matmul","bindings":{"Ni":16,"Nj":16,"Nk":16},"cache":64}"#);
        let resp = parse(&e.handle_line(r#"{"op":"stats"}"#));
        let stats = resp.get("stats").unwrap();
        assert_eq!(
            stats
                .get("requests")
                .unwrap()
                .get("predict")
                .unwrap()
                .get("requests")
                .unwrap()
                .as_u64(),
            Some(2)
        );
        assert_eq!(
            stats.get("cache").unwrap().get("hits").unwrap().as_u64(),
            Some(1)
        );
        assert_eq!(
            stats.get("cache").unwrap().get("misses").unwrap().as_u64(),
            Some(1)
        );
        assert_eq!(stats.get("cached_shapes").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn request_ids_are_generated_and_echoed() {
        let e = engine();
        // Server-generated: distinct per request, error replies included.
        let a = parse(&e.handle_line(r#"{"op":"stats"}"#));
        let b = parse(&e.handle_line(r#"{"op":"nope"}"#));
        let ida = a.get("request_id").unwrap().as_str().unwrap().to_string();
        let idb = b.get("request_id").unwrap().as_str().unwrap().to_string();
        assert!(ida.starts_with("req-"), "{ida}");
        assert!(idb.starts_with("req-"), "{idb}");
        assert_ne!(ida, idb);
        assert_eq!(b.get("ok").unwrap().as_bool(), Some(false));
        // Client-supplied ids pass through verbatim.
        let c = parse(&e.handle_line(r#"{"op":"stats","request_id":"client-42"}"#));
        assert_eq!(c.get("request_id").unwrap().as_str(), Some("client-42"));
        // Malformed lines still get a request id.
        let m = parse(&e.handle_line("not json"));
        assert!(m
            .get("request_id")
            .unwrap()
            .as_str()
            .unwrap()
            .starts_with("req-"));
    }

    #[test]
    fn metrics_op_round_trips_stats_counters() {
        let e = engine();
        e.handle_line(
            r#"{"op":"predict","program":"matmul","bindings":{"Ni":16,"Nj":16,"Nk":16},"cache":64}"#,
        );
        e.handle_line(
            r#"{"op":"predict","program":"matmul","bindings":{"Ni":16,"Nj":16,"Nk":16},"cache":64}"#,
        );
        let stats = parse(&e.handle_line(r#"{"op":"stats"}"#));
        let resp = parse(&e.handle_line(r#"{"op":"metrics"}"#));
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true), "{resp:?}");
        let text = resp.get("text").unwrap().as_str().unwrap();
        // The exposition must agree with the `stats` JSON for the same
        // counters (one extra stats request was recorded in between).
        let s = stats.get("stats").unwrap();
        let predicts = s
            .path(&["requests", "predict", "requests"])
            .unwrap()
            .as_u64()
            .unwrap();
        let hits = s.path(&["cache", "hits"]).unwrap().as_u64().unwrap();
        let shapes = s.get("cached_shapes").unwrap().as_u64().unwrap();
        assert!(text.contains(&format!("sdlo_requests_total{{op=\"predict\"}} {predicts}")));
        assert!(text.contains(&format!("sdlo_model_cache_hits_total {hits}")));
        assert!(text.contains(&format!("sdlo_cached_shapes {shapes}")));
        assert!(text.contains("sdlo_uptime_seconds "));
        // In-flight gauge is back to zero once the request completes.
        assert!(text.contains("sdlo_inflight{op=\"predict\"} 0"));
    }

    #[test]
    fn stats_report_version_uptime_and_in_flight() {
        let e = engine();
        let resp = parse(&e.handle_line(r#"{"op":"stats"}"#));
        let s = resp.get("stats").unwrap();
        assert_eq!(
            s.get("version").unwrap().as_str(),
            Some(env!("CARGO_PKG_VERSION"))
        );
        assert!(s.get("uptime_seconds").unwrap().as_f64().unwrap() >= 0.0);
        // The stats request itself is in flight while the snapshot is taken.
        assert_eq!(
            s.path(&["requests", "stats", "in_flight"])
                .unwrap()
                .as_u64(),
            Some(1)
        );
        assert_eq!(
            s.path(&["requests", "predict", "in_flight"])
                .unwrap()
                .as_u64(),
            Some(0)
        );
    }

    #[test]
    fn the_model_cache_holds_no_more_shapes_than_its_capacity() {
        let e = Engine::new(EngineConfig {
            cache_capacity: 2,
            ..EngineConfig::default()
        });
        for name in sdlo_ir::programs::BUILTIN_NAMES {
            let bindings: Vec<String> = builtin(name)
                .unwrap()
                .free_symbols()
                .iter()
                .map(|s| format!(r#""{}":16"#, s.name()))
                .collect();
            let line = format!(
                r#"{{"op":"predict","program":"{name}","bindings":{{{}}},"cache":512}}"#,
                bindings.join(",")
            );
            let reply = parse(&e.handle_line(&line));
            assert_eq!(reply.get("ok").unwrap().as_bool(), Some(true), "{reply:?}");
        }
        let stats = parse(&e.handle_line(r#"{"op":"stats"}"#));
        let shapes = stats.path(&["stats", "cached_shapes"]).unwrap().as_u64();
        assert!(shapes.is_some_and(|n| n <= 2), "{shapes:?} cached shapes");
    }

    #[test]
    fn evicting_a_model_drops_its_revise_session() {
        let e = Engine::new(EngineConfig {
            cache_capacity: 1,
            ..EngineConfig::default()
        });
        let sessions = |e: &Engine| {
            let stats = parse(&e.handle_line(r#"{"op":"stats"}"#));
            stats
                .path(&["stats", "revise", "sessions"])
                .unwrap()
                .as_u64()
        };
        let program = builtin("tiled_matmul").unwrap();
        let base = format!("{:016x}", canonicalize(&program).hash);
        let establish = format!(
            r#"{{"op":"revise","base":"{base}","program":"tiled_matmul","delta":{{"bindings":{{"Ni":64,"Nj":64,"Nk":64,"Ti":8,"Tj":8,"Tk":8}},"cache_sizes":[512]}}}}"#
        );
        let retile =
            format!(r#"{{"op":"revise","base":"{base}","delta":{{"bindings":{{"Ti":16}}}}}}"#);

        let cold = parse(&e.handle_line(&establish));
        assert_eq!(
            cold.get("revised").unwrap().as_bool(),
            Some(false),
            "{cold:?}"
        );
        assert_eq!(sessions(&e), Some(1));
        let warm = parse(&e.handle_line(&retile));
        assert_eq!(
            warm.get("revised").unwrap().as_bool(),
            Some(true),
            "{warm:?}"
        );

        // Another shape takes the only cache slot, and the session goes
        // with the evicted model.
        e.handle_line(
            r#"{"op":"predict","program":"matmul","bindings":{"Ni":8,"Nj":8,"Nk":8},"cache":64}"#,
        );
        assert_eq!(sessions(&e), Some(0));
        let unknown = parse(&e.handle_line(&retile));
        assert_eq!(
            unknown.path(&["error", "kind"]).unwrap().as_str(),
            Some("schema"),
            "{unknown:?}"
        );
        let again = parse(&e.handle_line(&establish));
        assert_eq!(again.get("revised").unwrap().as_bool(), Some(false));
        assert_eq!(
            again.path(&["revise", "sessions"]).unwrap().as_u64(),
            Some(1)
        );
        assert_eq!(sessions(&e), Some(1));
    }

    use std::collections::BTreeSet;
}
