//! # sdlo-router
//!
//! A protocol-v1-pure fleet front for `sdlo-service` backends. The router
//! never builds a model and never imports the engine: it speaks only the
//! wire protocol (`sdlo_service::api` + `sdlo-wire`), consistent-hashing
//! each request's **canonical shape hash** ([`sdlo_service::api::routing_key`])
//! across N backend worker processes. Structurally identical programs land
//! on the same backend, so every backend's model cache (and its disk tier)
//! holds a disjoint slice of the shape space — fleet-wide memoization
//! without a shared database.
//!
//! Behaviors:
//!
//! * **Consistent hashing** ([`ring::Ring`]): virtual-node ring keyed by
//!   backend address; requests without a program round-robin.
//! * **Failover**: a transport error (backend died, connection reset) moves
//!   the request to the next distinct backend in ring order; the client
//!   sees one correlated reply, never a dropped request.
//! * **Bounded retry-on-`overloaded`**: an `overloaded` reply is retried
//!   against the ring successor with capped, jittered backoff; when the
//!   budget is exhausted the last overloaded reply passes through verbatim
//!   (still correlated — backends echo `id`/`request_id`).
//! * **Eviction / re-admission**: consecutive failures mark a backend down
//!   (skipped in ring walks); a background health probe (or a later
//!   successful request) re-admits it, and its keys return to it because
//!   the ring itself never changes.
//! * **Aggregated observability**: the router serves `stats` and `metrics`
//!   itself — front-side per-op counters/latency histograms in the
//!   existing format plus per-backend `sdlo_router_backend_*` rollups.
//!   `{"op":"metrics","raw":true}` answers with a plain-text Prometheus
//!   scrape then EOF, exactly like a backend.
//!
//! Everything else — `analyze`, `predict`, `advise`, `batch`, `lint`, even
//! malformed lines — is forwarded byte-for-byte and answered with the
//! backend's reply byte-for-byte, so the router adds no protocol surface.
//!
//! The router runs on the daemon's transport ([`sdlo_service::server`]),
//! with its proxy as the [`LineHandler`]: the same `poll(2)` reactor,
//! worker pool, line cap (`too_large`), admission control (`overloaded`),
//! write backpressure, in-order pipelining, three-phase drain on
//! `shutdown` and `catch_unwind` safety net as a backend.

pub mod ring;

use ring::Ring;
use sdlo_service::api::{self, ApiError, ErrorKind, RoutingKey};
use sdlo_service::client::Client;
use sdlo_service::metrics::Metrics;
use sdlo_service::server::{self, LineHandler, RequestMeta, ServerConfig, ServerHandle};
use sdlo_trace::flight::{self, FlightRecord, FlightRecorder};
use sdlo_trace::AttrValue;
use sdlo_wire::Value;
use std::borrow::Cow;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Router tunables. Defaults suit a loopback fleet; every knob is surfaced
/// by the `sdlo-router` binary.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Listen address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Backend addresses. Ring placement depends only on these strings, so
    /// keep them stable across router restarts.
    pub backends: Vec<String>,
    /// Virtual nodes per backend on the hash ring.
    pub vnodes: usize,
    /// Maximum retries after an `overloaded` reply (failing over to the
    /// ring successor each time). 0 disables overload retries.
    pub max_retries: u32,
    /// Base backoff before an overload retry; doubles per retry, jittered.
    pub retry_base_ms: u64,
    /// Total wall-clock budget for one request's retries/failovers.
    pub retry_budget_ms: u64,
    /// Health-probe period. 0 disables the background prober (requests
    /// still evict/re-admit backends).
    pub health_interval_ms: u64,
    /// Consecutive failures before a backend is evicted from ring walks.
    pub fail_threshold: u32,
    /// Read timeout on backend connections.
    pub backend_timeout_ms: u64,
    /// Requests slower than this (end-to-end, router-side) trigger a
    /// span-tree capture in the flight recorder. 0 disables captures.
    pub slow_threshold_micros: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            backends: Vec::new(),
            vnodes: 64,
            max_retries: 3,
            retry_base_ms: 5,
            retry_budget_ms: 2_000,
            health_interval_ms: 200,
            fail_threshold: 2,
            backend_timeout_ms: 10_000,
            slow_threshold_micros: 100_000,
        }
    }
}

/// Per-backend rollups, all lock-free, and the idle connections. `up` is
/// the eviction state the ring walk consults.
#[derive(Default)]
pub struct BackendState {
    pub addr: String,
    up: AtomicBool,
    consecutive_failures: AtomicU64,
    /// Requests answered by this backend (any reply, ok or not).
    pub requests: AtomicU64,
    /// `ok:false` replies from this backend (overloaded included).
    pub errors: AtomicU64,
    /// Connects/sends/reads that failed outright.
    pub transport_errors: AtomicU64,
    /// Overload retries this backend's replies triggered.
    pub retries: AtomicU64,
    pub latency_sum_micros: AtomicU64,
    pub latency_count: AtomicU64,
    /// Connections no worker is using. A worker takes one (or connects),
    /// puts it back after a reply, and drops it on a transport error.
    idle: Mutex<Vec<Client>>,
}

impl BackendState {
    pub fn is_up(&self) -> bool {
        self.up.load(Ordering::Relaxed)
    }
}

/// The router's line handler: answers `stats`, `metrics` and `debug`
/// itself and forwards every other line to a backend.
struct Proxy {
    config: RouterConfig,
    backends: Vec<BackendState>,
    ring: Ring,
    /// Front-side per-op counters and latency histograms — the same
    /// structure a backend exposes, so a scraper reads the router exactly
    /// like a single server.
    metrics: Arc<Metrics>,
    /// Requests that exhausted every backend and were answered with a
    /// synthesized error.
    exhausted: AtomicU64,
    /// Stops the health loop.
    stop: AtomicBool,
    /// Round-robin cursor for keyless requests.
    rr: AtomicU64,
    /// SplitMix64 state for backoff jitter.
    jitter: AtomicU64,
    /// Source for router-generated request ids on synthesized replies.
    req_seq: AtomicU64,
    /// Always-on ring of the last N proxied requests plus slow captures —
    /// the router-side half of `debug`/`trace_dump`.
    flight: Arc<FlightRecorder>,
}

impl Proxy {
    fn new(config: RouterConfig) -> Proxy {
        Proxy {
            backends: config
                .backends
                .iter()
                .map(|a| BackendState {
                    addr: a.clone(),
                    up: AtomicBool::new(true),
                    ..BackendState::default()
                })
                .collect(),
            ring: Ring::build(&config.backends, config.vnodes),
            metrics: Arc::new(Metrics::default()),
            exhausted: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            rr: AtomicU64::new(0),
            jitter: AtomicU64::new(0x243f_6a88_85a3_08d3),
            req_seq: AtomicU64::new(1),
            flight: Arc::new(FlightRecorder::new(
                flight::CAPACITY,
                config.slow_threshold_micros,
            )),
            config,
        }
    }

    fn next_jitter(&self) -> u64 {
        let mut x = self
            .jitter
            .fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    fn note_success(&self, idx: usize) {
        let b = &self.backends[idx];
        b.consecutive_failures.store(0, Ordering::Relaxed);
        if !b.up.swap(true, Ordering::Relaxed) {
            sdlo_trace::log::info(
                "router",
                "backend.readmitted",
                &[("backend", AttrValue::Str(b.addr.clone()))],
            );
        }
    }

    fn note_failure(&self, idx: usize) {
        let b = &self.backends[idx];
        let n = b.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
        if n >= u64::from(self.config.fail_threshold) && b.up.swap(false, Ordering::Relaxed) {
            sdlo_trace::log::warn(
                "router",
                "backend.evicted",
                &[
                    ("backend", AttrValue::Str(b.addr.clone())),
                    ("consecutive_failures", AttrValue::UInt(n)),
                ],
            );
        }
    }

    /// Candidate sequence for one request: ring order for shaped keys,
    /// rotating round-robin for keyless ones.
    fn candidates(&self, key: RoutingKey) -> Vec<usize> {
        match key {
            RoutingKey::Shape(h) => self.ring.order(h),
            RoutingKey::Any => {
                let n = self.backends.len();
                let start = (self.rr.fetch_add(1, Ordering::Relaxed) as usize) % n.max(1);
                (0..n).map(|i| (start + i) % n).collect()
            }
        }
    }

    /// The `stats` body: the front-side snapshot (same shape as a backend's
    /// `stats`) with a `router` section of per-backend rollups.
    fn stats_body(&self) -> Vec<(&'static str, Value)> {
        let load = |a: &AtomicU64| Value::from(a.load(Ordering::Relaxed));
        let backends: Vec<Value> = self
            .backends
            .iter()
            .map(|b| {
                Value::obj(vec![
                    ("addr", Value::from(b.addr.as_str())),
                    ("up", Value::from(b.is_up())),
                    ("requests", load(&b.requests)),
                    ("errors", load(&b.errors)),
                    ("transport_errors", load(&b.transport_errors)),
                    ("retries", load(&b.retries)),
                    (
                        "latency",
                        Value::obj(vec![
                            ("sum_micros", load(&b.latency_sum_micros)),
                            ("count", load(&b.latency_count)),
                        ]),
                    ),
                ])
            })
            .collect();
        let router = Value::obj(vec![
            ("backends", Value::Array(backends)),
            ("vnodes", Value::from(self.config.vnodes as u64)),
            ("ring_points", Value::from(self.ring.points() as u64)),
            ("exhausted", load(&self.exhausted)),
        ]);
        api::stats_body(&self.metrics, &self.flight, ("router", router))
    }

    /// The router answers `debug` itself: `trace_dump` exposes the
    /// router-side flight recorder (each backend serves its own over the
    /// same op).
    fn debug_body(&self, request: Option<&Value>) -> Result<Vec<(&'static str, Value)>, ApiError> {
        let what = request
            .and_then(|v| v.get("what"))
            .and_then(Value::as_str)
            .unwrap_or("trace_dump");
        if what != "trace_dump" {
            return Err(ApiError::new(
                ErrorKind::Schema,
                format!("unknown debug query `{what}` (expected `trace_dump`)"),
            ));
        }
        Ok(api::flight_dump_body(&self.flight))
    }

    /// A reply built by the router itself, correlated with `request`, and
    /// its flight-record status.
    fn local(
        &self,
        request: Option<&Value>,
        outcome: Result<Vec<(&'static str, Value)>, ApiError>,
    ) -> (String, String) {
        let (id, request_id) = api::correlation(request, || self.next_request_id());
        match outcome {
            Ok(body) => (api::reply(id, &request_id, body).render(), "ok".into()),
            Err(e) => (
                api::error_reply(id, &request_id, &e).render(),
                e.kind.as_str().into(),
            ),
        }
    }

    /// Forward one request line: walk the candidate backends, failing over on
    /// transport errors and (bounded, jittered) on `overloaded` replies. The
    /// reply is the backend's bytes untouched; only when every avenue is
    /// exhausted does the router synthesize an error envelope itself.
    /// Returns the reply and its flight-record status: `ok` or the error
    /// kind, read off the one parse of the backend's reply.
    fn forward(
        &self,
        request: Option<&Value>,
        key: RoutingKey,
        line: &str,
        started: Instant,
        info: &mut ForwardInfo,
    ) -> (String, String) {
        let order = self.candidates(key);
        let deadline = started + Duration::from_millis(self.config.retry_budget_ms);
        let mut overload_retries = 0u32;
        let mut last_overloaded: Option<String> = None;
        // Hard bound on total attempts: every backend may be tried once per
        // "round", with one extra round per allowed overload retry.
        let attempt_cap = (order.len() as u32) * (self.config.max_retries + 2);
        let mut cursor = 0usize;

        for attempt in 0..attempt_cap {
            if attempt > 0 && Instant::now() >= deadline {
                break;
            }
            // Next candidate: prefer admitted backends; when everything is
            // marked down, try them anyway — probing is how they come back.
            let idx = {
                let n = order.len();
                let pos = (0..n)
                    .map(|i| (cursor + i) % n)
                    .find(|p| self.backends[order[*p]].is_up())
                    .unwrap_or(cursor % n);
                cursor = pos + 1;
                order[pos]
            };
            let backend = &self.backends[idx];
            let sent = Instant::now();
            match self.try_backend(idx, line) {
                Ok(text) => {
                    self.note_success(idx);
                    info.backend = Some(idx);
                    backend.requests.fetch_add(1, Ordering::Relaxed);
                    backend
                        .latency_sum_micros
                        .fetch_add(sent.elapsed().as_micros() as u64, Ordering::Relaxed);
                    backend.latency_count.fetch_add(1, Ordering::Relaxed);
                    let reply = sdlo_wire::parse(&text).ok();
                    if reply
                        .as_ref()
                        .and_then(|r| r.get("ok"))
                        .and_then(Value::as_bool)
                        == Some(true)
                    {
                        return (text, "ok".into());
                    }
                    backend.errors.fetch_add(1, Ordering::Relaxed);
                    let kind = reply
                        .as_ref()
                        .and_then(|r| r.path(&["error", "kind"]))
                        .and_then(Value::as_str)
                        .unwrap_or("error");
                    if kind != ErrorKind::Overloaded.as_str() {
                        // Any other error is the request's real answer.
                        return (text, kind.to_string());
                    }
                    last_overloaded = Some(text);
                    if overload_retries >= self.config.max_retries {
                        break;
                    }
                    overload_retries += 1;
                    info.retries = overload_retries;
                    backend.retries.fetch_add(1, Ordering::Relaxed);
                    // Capped exponential backoff with ±50% jitter.
                    let base = self.config.retry_base_ms << (overload_retries - 1).min(6);
                    let jitter = self.next_jitter() % base.max(1);
                    std::thread::sleep(Duration::from_millis((base / 2 + jitter).min(200)));
                }
                Err(e) => {
                    backend.transport_errors.fetch_add(1, Ordering::Relaxed);
                    self.note_failure(idx);
                    info.failovers += 1;
                    // Fail over immediately: the next candidate gets the
                    // request, the client never sees the dead backend.
                    sdlo_trace::log::warn(
                        "router",
                        "backend.failover",
                        &[
                            ("backend", AttrValue::Str(backend.addr.clone())),
                            ("attempt", AttrValue::UInt(u64::from(attempt) + 1)),
                            ("error", AttrValue::Str(e.to_string())),
                        ],
                    );
                }
            }
        }
        // Exhausted: the last overloaded reply (already correlated by the
        // backend) beats a synthesized envelope.
        if let Some(text) = last_overloaded {
            return (text, ErrorKind::Overloaded.as_str().into());
        }
        self.exhausted.fetch_add(1, Ordering::Relaxed);
        let err = ApiError::new(
            ErrorKind::Overloaded,
            "no backend available (all candidates failed or overloaded)",
        );
        self.local(request, Err(err))
    }

    /// One attempt against one backend on an idle connection, or a new one
    /// when none is idle. The connection goes back to the idle list after a
    /// reply; a transport error drops it. A pop or a push leaves the list
    /// valid, so a lock poisoned by a panicking worker is still usable.
    fn try_backend(&self, idx: usize, line: &str) -> std::io::Result<String> {
        let backend = &self.backends[idx];
        let idle = backend
            .idle
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop();
        let mut client = match idle {
            Some(client) => client,
            None => {
                let client = Client::connect(&backend.addr)?;
                client.set_read_timeout(Some(Duration::from_millis(
                    self.config.backend_timeout_ms.max(100),
                )))?;
                client
            }
        };
        let text = client.request_line(line)?;
        backend
            .idle
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(client);
        Ok(text)
    }
}

/// A running router. Dropping the handle does not stop it; call
/// [`RouterHandle::shutdown`] or send `{"op":"shutdown"}`.
pub struct RouterHandle {
    server: ServerHandle<Proxy>,
    proxy: Arc<Proxy>,
    health: JoinHandle<()>,
}

impl RouterHandle {
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.proxy.metrics)
    }

    /// The router's flight recorder — install it as the process trace
    /// collector to feed slow captures and `trace_dump` span trees.
    pub fn flight(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.proxy.flight)
    }

    /// Whether backend `idx` is currently admitted to ring walks.
    pub fn backend_up(&self, idx: usize) -> bool {
        self.proxy.backends[idx].is_up()
    }

    /// Drain the router as [`ServerHandle::shutdown`] drains a backend, then
    /// stop the health loop.
    pub fn shutdown(self) {
        self.server.shutdown();
        stop_health(&self.proxy, self.health);
    }

    /// Block until a `{"op":"shutdown"}` request arrives and the drain
    /// completes, then stop the health loop.
    pub fn run_until_shutdown(self) {
        self.server.run_until_shutdown();
        stop_health(&self.proxy, self.health);
    }
}

fn stop_health(proxy: &Proxy, health: JoinHandle<()>) {
    proxy.stop.store(true, Ordering::SeqCst);
    health.thread().unpark();
    let _ = health.join();
}

/// Bind and start the router on the daemon's transport, plus one
/// background health prober. A forward holds its worker until the backend
/// answers, so the router runs `backends × available_parallelism` workers:
/// as many requests as the backends run at once with their default
/// `--workers`.
pub fn serve(config: RouterConfig) -> std::io::Result<RouterHandle> {
    if config.backends.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "router needs at least one --backend",
        ));
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let transport = ServerConfig {
        addr: config.addr.clone(),
        workers: config.backends.len() * cores,
        ..ServerConfig::default()
    };
    let proxy = Arc::new(Proxy::new(config));
    let health = {
        let proxy = Arc::clone(&proxy);
        std::thread::Builder::new()
            .name("router-health".into())
            .spawn(move || health_loop(&proxy))?
    };
    match server::serve_with(transport, Arc::clone(&proxy)) {
        Ok(server) => Ok(RouterHandle {
            server,
            proxy,
            health,
        }),
        Err(e) => {
            stop_health(&proxy, health);
            Err(e)
        }
    }
}

/// Probe every backend with a `stats` request each interval; a valid reply
/// re-admits, a failure counts toward eviction.
fn health_loop(proxy: &Proxy) {
    let interval = Duration::from_millis(proxy.config.health_interval_ms);
    if interval.is_zero() {
        return;
    }
    let probe_line = r#"{"op":"stats","request_id":"router-health"}"#;
    while !proxy.stop.load(Ordering::SeqCst) {
        for (idx, b) in proxy.backends.iter().enumerate() {
            let ok = Client::connect(&b.addr)
                .and_then(|mut c| {
                    c.set_read_timeout(Some(Duration::from_millis(
                        proxy.config.backend_timeout_ms.max(100),
                    )))?;
                    c.request_line(probe_line)
                })
                .is_ok();
            if ok {
                proxy.note_success(idx);
            } else {
                proxy.note_failure(idx);
            }
        }
        // `stop_health` unparks the thread, so shutdown is prompt.
        let deadline = Instant::now() + interval;
        while !proxy.stop.load(Ordering::SeqCst) {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            std::thread::park_timeout(left);
        }
    }
}

impl LineHandler for Proxy {
    const COMPONENT: &'static str = "router";

    /// One request line: `stats`, `metrics` and `debug` are answered here,
    /// everything else is forwarded. The transport answers raw scrapes and
    /// `shutdown` before a line gets here.
    fn handle_line_timed(&self, line: &str, queue_micros: u64) -> (String, Option<RequestMeta>) {
        let started = Instant::now();
        let parsed = sdlo_wire::parse(line).ok();
        let op = parsed
            .as_ref()
            .and_then(|v| v.get("op"))
            .and_then(Value::as_str)
            .unwrap_or("");
        let op_stats = self.metrics.op(sdlo_service::ops::find(op).0);
        // Adopt the client's trace context when it sent one; otherwise the
        // router is the trace root and mints the fleet-wide id itself (only
        // when a collector is installed — untraced routers stay silent).
        let incoming = parsed.as_ref().and_then(api::request_trace);
        let span = sdlo_trace::span_with_parent(
            "router.request",
            incoming.as_ref().and_then(|t| t.parent_span),
        );
        span.attr("op", op);
        let trace_id = match (&incoming, span.id()) {
            (Some(t), _) => t.trace_id.clone(),
            (None, Some(_)) => format!("{:016x}", self.next_jitter()),
            (None, None) => String::new(),
        };
        if !trace_id.is_empty() {
            span.attr("trace_id", trace_id.as_str());
        }
        let key = parsed
            .as_ref()
            .map(api::routing_key)
            .unwrap_or(RoutingKey::Any);

        // Aggregated observability is answered by the router; everything
        // else forwards (with the router's trace context spliced in when a
        // collector is recording, so backend spans parent under our root).
        let mut fwd = ForwardInfo::default();
        let (reply, status) = match op {
            "stats" => self.local(parsed.as_ref(), Ok(self.stats_body())),
            "metrics" => self.local(
                parsed.as_ref(),
                Ok(vec![
                    ("content_type", Value::from("text/plain; version=0.0.4")),
                    ("text", Value::from(self.prometheus())),
                ]),
            ),
            "debug" => self.local(parsed.as_ref(), self.debug_body(parsed.as_ref())),
            _ => {
                let wire_line = traced_line(line, &trace_id, span.id());
                self.forward(parsed.as_ref(), key, &wire_line, started, &mut fwd)
            }
        };
        if let Some(idx) = fwd.backend {
            span.attr("backend", self.backends[idx].addr.as_str());
        }
        span.attr("failovers", u64::from(fwd.failovers));
        span.attr("retries", u64::from(fwd.retries));
        let exec_micros = started.elapsed().as_micros() as u64;
        op_stats.record(exec_micros, status == "ok");
        self.metrics.exec.observe_micros(exec_micros);
        let root_span = span.id();
        drop(span);
        let flight_ticket = self.flight.push(
            FlightRecord {
                op: op.to_string(),
                canon_hash: match key {
                    RoutingKey::Shape(h) => h,
                    RoutingKey::Any => 0,
                },
                status,
                queue_micros,
                exec_micros,
                total_micros: queue_micros + exec_micros,
                retries: u64::from(fwd.retries),
                failovers: u64::from(fwd.failovers),
                request_id: parsed
                    .as_ref()
                    .and_then(|r| r.get("request_id"))
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
                trace_id,
                ..FlightRecord::default()
            },
            root_span,
        );
        // A forwarded reply is the backend's bytes: its `timing`, if any,
        // is the backend's, and the reactor must not splice into it.
        let meta = RequestMeta {
            flight_ticket,
            root_span,
            server_timing: false,
        };
        (reply, Some(meta))
    }

    fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    fn flight(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.flight)
    }

    /// The full Prometheus exposition: front-side series (identical shape
    /// to a backend's) plus per-backend router rollups.
    fn prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = self.metrics.prometheus(0);
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        type BackendGauge = fn(&BackendState) -> u64;
        let series: [(&str, &str, BackendGauge); 6] = [
            ("sdlo_router_backend_up", "gauge", |b| u64::from(b.is_up())),
            ("sdlo_router_backend_requests_total", "counter", |b| {
                b.requests.load(Ordering::Relaxed)
            }),
            ("sdlo_router_backend_errors_total", "counter", |b| {
                b.errors.load(Ordering::Relaxed)
            }),
            (
                "sdlo_router_backend_transport_errors_total",
                "counter",
                |b| b.transport_errors.load(Ordering::Relaxed),
            ),
            ("sdlo_router_backend_retries_total", "counter", |b| {
                b.retries.load(Ordering::Relaxed)
            }),
            ("sdlo_router_backend_latency_micros_sum", "counter", |b| {
                b.latency_sum_micros.load(Ordering::Relaxed)
            }),
        ];
        for (name, ty, get) in series {
            let _ = writeln!(out, "# TYPE {name} {ty}");
            for b in &self.backends {
                let _ = writeln!(out, "{name}{{backend=\"{}\"}} {}", b.addr, get(b));
            }
        }
        out.push_str("# TYPE sdlo_router_backend_latency_micros_count counter\n");
        for b in &self.backends {
            let _ = writeln!(
                out,
                "sdlo_router_backend_latency_micros_count{{backend=\"{}\"}} {}",
                b.addr,
                load(&b.latency_count)
            );
        }
        out.push_str("# TYPE sdlo_router_exhausted_requests_total counter\n");
        let _ = writeln!(
            out,
            "sdlo_router_exhausted_requests_total {}",
            load(&self.exhausted)
        );
        out.push_str("# TYPE sdlo_router_ring_points gauge\n");
        let _ = writeln!(out, "sdlo_router_ring_points {}", self.ring.points());
        out
    }

    fn next_request_id(&self) -> String {
        format!("rtr-{:08x}", self.req_seq.fetch_add(1, Ordering::Relaxed))
    }

    fn drain_fields(&self) -> Vec<(&'static str, AttrValue)> {
        let transport_errors: u64 = self
            .backends
            .iter()
            .map(|b| b.transport_errors.load(Ordering::Relaxed))
            .sum();
        let up = self.backends.iter().filter(|b| b.is_up()).count();
        vec![
            (
                "exhausted",
                AttrValue::UInt(self.exhausted.load(Ordering::Relaxed)),
            ),
            ("transport_errors", AttrValue::UInt(transport_errors)),
            ("backends_up", AttrValue::UInt(up as u64)),
        ]
    }
}

/// What one forwarded request cost in retries/failovers and where it
/// finally landed — feeds the root span's attrs and the flight record.
#[derive(Debug, Default)]
struct ForwardInfo {
    /// Overload retries spent.
    retries: u32,
    /// Transport-error failovers (each one moved the request to the ring
    /// successor).
    failovers: u32,
    /// The backend that produced the final reply, if any did.
    backend: Option<usize>,
}

/// Splice the router's trace context into a forwarded line. Association
/// lists keep duplicate keys and `get()` returns the *first* match, so a
/// front-spliced `trace` wins on the backend (re-parenting its spans under
/// the router's root) while the rest of the line stays byte-for-byte
/// untouched. With no recording root span the line passes through verbatim —
/// untraced routers add zero protocol surface.
fn traced_line<'a>(line: &'a str, trace_id: &str, parent_span: Option<u64>) -> Cow<'a, str> {
    let (Some(parent), Some(brace)) = (parent_span, line.find('{')) else {
        return Cow::Borrowed(line);
    };
    let rest = &line[brace + 1..];
    let mut out = String::with_capacity(line.len() + 64);
    out.push_str(&line[..=brace]);
    out.push_str("\"trace\":{\"trace_id\":");
    out.push_str(&Value::from(trace_id).render());
    out.push_str(",\"parent_span\":");
    out.push_str(&parent.to_string());
    out.push('}');
    if !rest.trim_start().starts_with('}') {
        out.push(',');
    }
    out.push_str(rest);
    Cow::Owned(out)
}
