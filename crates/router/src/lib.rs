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

pub mod ring;

use ring::Ring;
use sdlo_service::api::{self, ApiError, ErrorKind, RoutingKey};
use sdlo_service::client::Client;
use sdlo_service::metrics::{Kind, Metrics};
use sdlo_trace::flight::{FlightRecord, FlightRecorder};
use sdlo_trace::AttrValue;
use sdlo_wire::Value;
use std::borrow::Cow;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
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
    /// Flight-recorder ring size (last N proxied requests).
    pub flight_capacity: usize,
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
            flight_capacity: 256,
            slow_threshold_micros: 100_000,
        }
    }
}

/// Per-backend rollups, all lock-free. `up` is the eviction state the ring
/// walk consults.
#[derive(Debug, Default)]
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
}

impl BackendState {
    pub fn is_up(&self) -> bool {
        self.up.load(Ordering::Relaxed)
    }
}

struct Shared {
    config: RouterConfig,
    backends: Vec<BackendState>,
    ring: Ring,
    /// Front-side per-op counters and latency histograms — the same
    /// structure a backend exposes, so scrapers and loadgen read the
    /// router exactly like a single server.
    metrics: Arc<Metrics>,
    /// Requests that exhausted every backend and were answered with a
    /// synthesized error.
    exhausted: AtomicU64,
    stop: AtomicBool,
    /// Round-robin cursor for keyless requests.
    rr: AtomicU64,
    /// SplitMix64 state for backoff jitter.
    jitter: AtomicU64,
    /// Source for router-generated request ids on synthesized replies.
    req_seq: AtomicU64,
    /// Our own bound address, used to poke the accept loop on shutdown.
    self_addr: std::sync::OnceLock<SocketAddr>,
    /// Always-on ring of the last N proxied requests plus slow captures —
    /// the router-side half of `debug`/`trace_dump`.
    flight: Arc<FlightRecorder>,
    /// Guards the final drain-summary log record (emitted exactly once,
    /// whether shutdown arrives over the wire or via the handle).
    summary: std::sync::Once,
}

impl Shared {
    fn next_jitter(&self) -> u64 {
        let mut x = self
            .jitter
            .fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    fn next_request_id(&self) -> String {
        format!("rtr-{:08x}", self.req_seq.fetch_add(1, Ordering::Relaxed))
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

    /// The final summary record, logged exactly once at drain regardless of
    /// how many shutdown paths race.
    fn drain_summary(&self) {
        self.summary.call_once(|| {
            let up = self.backends.iter().filter(|b| b.is_up()).count();
            let transport_errors: u64 = self
                .backends
                .iter()
                .map(|b| b.transport_errors.load(Ordering::Relaxed))
                .sum();
            sdlo_trace::log::info(
                "router",
                "drain.summary",
                &[
                    ("requests_recorded", AttrValue::UInt(self.flight.pushed())),
                    (
                        "exhausted",
                        AttrValue::UInt(self.exhausted.load(Ordering::Relaxed)),
                    ),
                    ("transport_errors", AttrValue::UInt(transport_errors)),
                    ("backends_up", AttrValue::UInt(up as u64)),
                    (
                        "slow_captures",
                        AttrValue::UInt(self.flight.slow().len() as u64),
                    ),
                ],
            );
        });
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

    /// The `stats` body: the front-side snapshot (same shape as a backend's
    /// `stats`) plus a `router` section with per-backend rollups.
    fn stats_body(&self) -> Vec<(&'static str, Value)> {
        let mut snap = match self.metrics.snapshot() {
            Value::Object(fields) => fields,
            _ => unreachable!("snapshot is an object"),
        };
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
        snap.push((
            "slowest".to_string(),
            Value::Object(
                self.flight
                    .slowest_per_op()
                    .into_iter()
                    .map(|(op, r)| {
                        (
                            op,
                            Value::obj(vec![
                                ("total_micros", Value::from(r.total_micros)),
                                ("request_id", Value::from(r.request_id.as_str())),
                                ("trace_id", Value::from(r.trace_id.as_str())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ));
        snap.push((
            "router".to_string(),
            Value::obj(vec![
                ("backends", Value::Array(backends)),
                ("vnodes", Value::from(self.config.vnodes as u64)),
                ("ring_points", Value::from(self.ring.points() as u64)),
                ("exhausted", load(&self.exhausted)),
            ]),
        ));
        snap.push((
            "protocol_version".to_string(),
            Value::from(api::PROTOCOL_VERSION),
        ));
        snap.push((
            "ops".to_string(),
            Value::Array(api::ops().iter().map(|o| Value::from(*o)).collect()),
        ));
        vec![("stats", Value::Object(snap))]
    }
}

/// A running router. Dropping the handle does not stop it; call
/// [`RouterHandle::shutdown`] or send `{"op":"shutdown"}`.
pub struct RouterHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
    health: Option<std::thread::JoinHandle<()>>,
}

impl RouterHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// The router's flight recorder — install it as the process trace
    /// collector to feed slow captures and `trace_dump` span trees.
    pub fn flight(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.shared.flight)
    }

    /// Whether backend `idx` is currently admitted to ring walks.
    pub fn backend_up(&self, idx: usize) -> bool {
        self.shared.backends[idx].is_up()
    }

    fn join(&mut self) {
        // Unblock the accept loop, which only observes `stop` between
        // accepts.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        if let Some(t) = self.health.take() {
            let _ = t.join();
        }
    }

    /// Stop accepting and wait for the service threads to exit. In-flight
    /// client connections finish their current request and close.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.join();
        self.shared.drain_summary();
    }

    /// Block until a `{"op":"shutdown"}` request arrives.
    pub fn run_until_shutdown(mut self) {
        while !self.shared.stop.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(20));
        }
        self.join();
        self.shared.drain_summary();
    }
}

/// Bind and start the router: one accept thread, one thread per client
/// connection, one background health prober.
pub fn serve(config: RouterConfig) -> std::io::Result<RouterHandle> {
    if config.backends.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "router needs at least one --backend",
        ));
    }
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let ring = Ring::build(&config.backends, config.vnodes);
    let backends = config
        .backends
        .iter()
        .map(|a| BackendState {
            addr: a.clone(),
            up: AtomicBool::new(true),
            ..BackendState::default()
        })
        .collect();
    let shared = Arc::new(Shared {
        backends,
        ring,
        metrics: Arc::new(Metrics::default()),
        exhausted: AtomicU64::new(0),
        stop: AtomicBool::new(false),
        rr: AtomicU64::new(0),
        jitter: AtomicU64::new(0x243f_6a88_85a3_08d3),
        req_seq: AtomicU64::new(1),
        self_addr: std::sync::OnceLock::new(),
        flight: Arc::new(FlightRecorder::new(
            config.flight_capacity,
            config.slow_threshold_micros,
        )),
        summary: std::sync::Once::new(),
        config,
    });
    sdlo_trace::log::info(
        "router",
        "router.started",
        &[
            ("addr", AttrValue::Str(addr.to_string())),
            (
                "backends",
                AttrValue::UInt(shared.config.backends.len() as u64),
            ),
        ],
    );
    let _ = shared.self_addr.set(addr);

    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("router-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if shared.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    shared.metrics.connections.fetch_add(1, Ordering::Relaxed);
                    shared
                        .metrics
                        .connections_active
                        .fetch_add(1, Ordering::Relaxed);
                    let shared = Arc::clone(&shared);
                    let _ = std::thread::Builder::new()
                        .name("router-conn".into())
                        .spawn(move || {
                            handle_client(&shared, stream);
                            shared
                                .metrics
                                .connections_active
                                .fetch_sub(1, Ordering::Relaxed);
                        });
                }
            })?
    };
    let health = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("router-health".into())
            .spawn(move || health_loop(&shared))?
    };
    Ok(RouterHandle {
        addr,
        shared,
        accept: Some(accept),
        health: Some(health),
    })
}

/// Probe every backend with a `stats` request each interval; a valid reply
/// re-admits, a failure counts toward eviction.
fn health_loop(shared: &Shared) {
    let interval = shared.config.health_interval_ms;
    if interval == 0 {
        return;
    }
    let probe_line = r#"{"op":"stats","request_id":"router-health"}"#;
    while !shared.stop.load(Ordering::SeqCst) {
        for (idx, b) in shared.backends.iter().enumerate() {
            let ok = Client::connect(&b.addr)
                .and_then(|mut c| {
                    c.set_read_timeout(Some(Duration::from_millis(
                        shared.config.backend_timeout_ms.max(100),
                    )))?;
                    c.request_line(probe_line)
                })
                .is_ok();
            if ok {
                shared.note_success(idx);
            } else {
                shared.note_failure(idx);
            }
        }
        // Sleep in short slices so shutdown is prompt.
        let deadline = Instant::now() + Duration::from_millis(interval);
        while Instant::now() < deadline && !shared.stop.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(interval.min(25)));
        }
    }
}

/// One client connection: newline-delimited requests in, one reply line per
/// request out, in order.
fn handle_client(shared: &Shared, stream: TcpStream) {
    // Every reply goes out in one `write` with its newline, and with Nagle
    // off it leaves at once instead of waiting for the client's delayed ACK.
    let _ = stream.set_nodelay(true);
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let reader = BufReader::new(stream);
    // Backend connections are pooled per client connection: one persistent
    // stream per backend, replaced on transport error.
    let mut pool: HashMap<usize, Client> = HashMap::new();
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let started = Instant::now();
        let parsed = sdlo_wire::parse(&line).ok();
        let op = parsed
            .as_ref()
            .and_then(|v| v.get("op"))
            .and_then(Value::as_str)
            .unwrap_or("");
        let kind = Kind::from_op(op);
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
            (None, Some(_)) => format!("{:016x}", shared.next_jitter()),
            (None, None) => String::new(),
        };
        if !trace_id.is_empty() {
            span.attr("trace_id", trace_id.as_str());
        }

        // Raw Prometheus scrape: plain text, then EOF — same transport
        // behavior as a backend.
        if op == "metrics"
            && parsed
                .as_ref()
                .and_then(|v| v.get("raw"))
                .and_then(Value::as_bool)
                == Some(true)
        {
            let text = shared.prometheus();
            shared
                .metrics
                .record(kind, started.elapsed().as_micros() as u64, true);
            let _ = writer.write_all(text.as_bytes());
            let _ = writer.flush();
            break;
        }
        // Shutdown stops the router itself (backends are managed out of
        // band). Same transport-side reply shape as a backend.
        if op == "shutdown" {
            shared.stop.store(true, Ordering::SeqCst);
            if let Some(addr) = shared.self_addr.get() {
                let _ = TcpStream::connect(addr);
            }
            let mut text = Value::obj(vec![
                ("v", Value::from(api::PROTOCOL_VERSION)),
                ("ok", Value::from(true)),
                ("stopping", Value::from(true)),
            ])
            .render();
            text.push('\n');
            let _ = writer.write_all(text.as_bytes());
            break;
        }

        // Aggregated observability is answered by the router; everything
        // else forwards (with the router's trace context spliced in when a
        // collector is recording, so backend spans parent under our root).
        let mut fwd = ForwardInfo::default();
        let (mut reply, ok) = match op {
            "stats" => local_reply(shared, parsed.as_ref(), shared.stats_body()),
            "metrics" => local_reply(
                shared,
                parsed.as_ref(),
                vec![
                    ("content_type", Value::from("text/plain; version=0.0.4")),
                    ("text", Value::from(shared.prometheus())),
                ],
            ),
            "debug" => local_debug(shared, parsed.as_ref()),
            _ => {
                let wire_line = traced_line(&line, &trace_id, span.id());
                forward(
                    shared,
                    parsed.as_ref(),
                    &wire_line,
                    &mut pool,
                    started,
                    &mut fwd,
                )
            }
        };
        if let Some(idx) = fwd.backend {
            span.attr("backend", shared.backends[idx].addr.as_str());
        }
        span.attr("failovers", u64::from(fwd.failovers));
        span.attr("retries", u64::from(fwd.retries));
        let total_micros = started.elapsed().as_micros() as u64;
        shared.metrics.record(kind, total_micros, ok);
        let root_span = span.id();
        drop(span);
        let status = if ok {
            "ok".to_string()
        } else {
            sdlo_wire::parse(&reply)
                .ok()
                .and_then(|r| {
                    r.path(&["error", "kind"])
                        .and_then(Value::as_str)
                        .map(str::to_string)
                })
                .unwrap_or_else(|| "error".to_string())
        };
        let canon_hash = match parsed.as_ref().map(api::routing_key) {
            Some(RoutingKey::Shape(h)) => h,
            _ => 0,
        };
        shared.flight.push(
            FlightRecord {
                op: op.to_string(),
                canon_hash,
                status,
                exec_micros: total_micros,
                total_micros,
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
        reply.push('\n');
        if writer.write_all(reply.as_bytes()).is_err() {
            break;
        }
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
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

/// The router answers `debug` itself: `trace_dump` exposes the router-side
/// flight recorder (each backend serves its own over the same op).
fn local_debug(shared: &Shared, request: Option<&Value>) -> (String, bool) {
    let what = request
        .and_then(|v| v.get("what"))
        .and_then(Value::as_str)
        .unwrap_or("trace_dump");
    if what == "trace_dump" {
        return local_reply(shared, request, api::flight_dump_body(&shared.flight));
    }
    let (id, request_id) = correlation(shared, request);
    let err = ApiError::new(
        ErrorKind::Schema,
        format!("unknown debug query `{what}` (expected `trace_dump`)"),
    );
    (api::error_reply(id, &request_id, &err).render(), false)
}

/// A success reply built by the router itself (stats/metrics), with the
/// standard envelope correlation.
fn local_reply(
    shared: &Shared,
    request: Option<&Value>,
    body: Vec<(&'static str, Value)>,
) -> (String, bool) {
    let (id, request_id) = correlation(shared, request);
    (api::reply(id, &request_id, body).render(), true)
}

fn correlation(shared: &Shared, request: Option<&Value>) -> (Option<Value>, String) {
    let id = request.and_then(|r| r.get("id")).cloned();
    let request_id = request
        .and_then(|r| r.get("request_id"))
        .and_then(Value::as_str)
        .map(str::to_string)
        .unwrap_or_else(|| shared.next_request_id());
    (id, request_id)
}

/// Forward one request line: walk the candidate backends, failing over on
/// transport errors and (bounded, jittered) on `overloaded` replies. The
/// reply is the backend's bytes untouched; only when every avenue is
/// exhausted does the router synthesize an error envelope itself.
fn forward(
    shared: &Shared,
    request: Option<&Value>,
    line: &str,
    pool: &mut HashMap<usize, Client>,
    started: Instant,
    info: &mut ForwardInfo,
) -> (String, bool) {
    let key = request.map(api::routing_key).unwrap_or(RoutingKey::Any);
    let order = shared.candidates(key);
    let deadline = started + Duration::from_millis(shared.config.retry_budget_ms);
    let mut overload_retries = 0u32;
    let mut last_overloaded: Option<String> = None;
    // Hard bound on total attempts: every backend may be tried once per
    // "round", with one extra round per allowed overload retry.
    let attempt_cap = (order.len() as u32) * (shared.config.max_retries + 2);
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
                .find(|p| shared.backends[order[*p]].is_up())
                .unwrap_or(cursor % n);
            cursor = pos + 1;
            order[pos]
        };
        let backend = &shared.backends[idx];
        let sent = Instant::now();
        match try_backend(shared, idx, line, pool) {
            Ok(text) => {
                shared.note_success(idx);
                info.backend = Some(idx);
                backend.requests.fetch_add(1, Ordering::Relaxed);
                backend
                    .latency_sum_micros
                    .fetch_add(sent.elapsed().as_micros() as u64, Ordering::Relaxed);
                backend.latency_count.fetch_add(1, Ordering::Relaxed);
                let reply = sdlo_wire::parse(&text).ok();
                let ok = reply
                    .as_ref()
                    .and_then(|r| r.get("ok"))
                    .and_then(Value::as_bool)
                    .unwrap_or(false);
                if ok {
                    return (text, true);
                }
                backend.errors.fetch_add(1, Ordering::Relaxed);
                let overloaded = reply
                    .as_ref()
                    .and_then(|r| r.path(&["error", "kind"]))
                    .and_then(Value::as_str)
                    == Some(ErrorKind::Overloaded.as_str());
                if !overloaded {
                    // Any other error is the request's real answer.
                    return (text, false);
                }
                last_overloaded = Some(text);
                if overload_retries >= shared.config.max_retries {
                    break;
                }
                overload_retries += 1;
                info.retries = overload_retries;
                backend.retries.fetch_add(1, Ordering::Relaxed);
                // Capped exponential backoff with ±50% jitter.
                let base = shared.config.retry_base_ms << (overload_retries - 1).min(6);
                let jitter = shared.next_jitter() % base.max(1);
                std::thread::sleep(Duration::from_millis((base / 2 + jitter).min(200)));
            }
            Err(e) => {
                backend.transport_errors.fetch_add(1, Ordering::Relaxed);
                shared.note_failure(idx);
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
        return (text, false);
    }
    shared.exhausted.fetch_add(1, Ordering::Relaxed);
    let (id, request_id) = correlation(shared, request);
    let err = ApiError::new(
        ErrorKind::Overloaded,
        "no backend available (all candidates failed or overloaded)",
    );
    (api::error_reply(id, &request_id, &err).render(), false)
}

/// One attempt against one backend over the pooled connection, reconnecting
/// if the pool has none. Any transport error drops the pooled connection.
fn try_backend(
    shared: &Shared,
    idx: usize,
    line: &str,
    pool: &mut HashMap<usize, Client>,
) -> std::io::Result<String> {
    let client = match pool.entry(idx) {
        std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
        std::collections::hash_map::Entry::Vacant(e) => {
            let client = Client::connect(&shared.backends[idx].addr)?;
            client.set_read_timeout(Some(Duration::from_millis(
                shared.config.backend_timeout_ms.max(100),
            )))?;
            e.insert(client)
        }
    };
    match client.request_line(line) {
        Ok(text) => Ok(text),
        Err(e) => {
            pool.remove(&idx);
            Err(e)
        }
    }
}
