//! The versioned protocol layer: envelope, error vocabulary, program
//! resolution, routing and reply builders.
//!
//! Every request line decodes **once** into an [`Envelope`] (the fields
//! every request shares: `v`, `id`, `request_id`, `op`); the engine then
//! resolves the op against the [`crate::ops`] registry — one module per op,
//! each owning its own schema — and every reply is built by [`reply`] /
//! [`error_reply`], the one definition of the envelope's pinned field
//! order, so success and failure share one shape in every process of the
//! fleet (service backends and the router alike):
//!
//! ```text
//! {"id":…, "request_id":"…", "v":1, "ok":true,  …body…}
//! {"id":…, "request_id":"…", "v":1, "ok":false, "error":{"kind":…, "message":…}}
//! ```
//!
//! `id` is present only when the request carried one. Replies built
//! outside the engine's own parse — transport errors, the shutdown
//! acknowledgement, the router's own replies, a batch sub-request past the
//! deadline — take their `id` and `request_id` from [`correlation`].
//!
//! Builtin program names resolve through one per-process table (`builtin`),
//! which the ops and [`routing_key`] share.
//!
//! ## Versioning
//!
//! Requests may carry `"v": 1`; an absent `v` means 1. Every reply carries
//! the protocol version it speaks ([`PROTOCOL_VERSION`]). A request with an
//! unknown or non-integer `v` fails with the `unsupported_version` error
//! kind ([`check_version`]) before its `op` is even looked at, so clients
//! can probe for support safely. `stats` advertises `protocol_version` and
//! the supported [`ops`].

use sdlo_ir::canon::{canonicalize, Canonical};
use sdlo_ir::programs::BUILTIN_NAMES;
use sdlo_ir::Program;
use sdlo_symbolic::Bindings;
use sdlo_tilesearch::SearchSpace;
use sdlo_wire::{
    bindings_from_value, program_from_value, program_from_value_unchecked, Value, WireError,
};
use std::sync::{Arc, OnceLock};

/// The (single) protocol version this build speaks.
pub const PROTOCOL_VERSION: u64 = 1;

/// Ops served to clients, advertised by `stats`: the registry's advertised
/// entries in registration order. Test-only ops (`sleep`) are deliberately
/// absent.
pub fn ops() -> &'static [&'static str] {
    crate::ops::advertised()
}

/// Every error kind the service can put in an error envelope, transport
/// errors included — the single source of truth for the wire strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Unknown or missing `op`, or an op disabled in this configuration.
    Unsupported,
    /// The request's `v` is not a protocol version this build speaks.
    UnsupportedVersion,
    /// The line was not valid JSON.
    Malformed,
    /// JSON was fine but a field is missing or has the wrong shape.
    Schema,
    /// An inline program failed validation.
    InvalidProgram,
    /// Model evaluation failed (e.g. unbound symbol at eval time).
    Eval,
    /// A configured size limit was exceeded.
    Limit,
    /// The request ran out of its wall-clock budget.
    DeadlineExceeded,
    /// The worker queue is full (transport backpressure).
    Overloaded,
    /// The request line exceeded the transport's byte cap.
    TooLarge,
    /// The service failed internally.
    Internal,
}

impl ErrorKind {
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Unsupported => "unsupported",
            ErrorKind::UnsupportedVersion => "unsupported_version",
            ErrorKind::Malformed => "malformed",
            ErrorKind::Schema => "schema",
            ErrorKind::InvalidProgram => "invalid_program",
            ErrorKind::Eval => "eval",
            ErrorKind::Limit => "limit",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::TooLarge => "too_large",
            ErrorKind::Internal => "internal",
        }
    }
}

/// A failure on its way into the unified error envelope.
#[derive(Debug)]
pub struct ApiError {
    pub kind: ErrorKind,
    pub message: String,
}

impl ApiError {
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        ApiError {
            kind,
            message: message.into(),
        }
    }
}

pub(crate) fn schema(message: impl Into<String>) -> ApiError {
    ApiError::new(ErrorKind::Schema, message)
}

pub(crate) fn fail(kind: ErrorKind, message: impl Into<String>) -> ApiError {
    ApiError::new(kind, message)
}

impl From<WireError> for ApiError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Json(e) => ApiError::new(ErrorKind::Malformed, e.to_string()),
            WireError::Schema(m) => ApiError::new(ErrorKind::Schema, m),
            WireError::Validate(e) => ApiError::new(ErrorKind::InvalidProgram, e.to_string()),
        }
    }
}

/// Cross-process trace context carried by a request's optional `trace`
/// field: `{"trace":{"trace_id":"…","parent_span":N}}`. The router stamps
/// this onto forwarded requests so backend spans parent under its root span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceContext {
    /// Fleet-wide correlation id (any non-empty string; the router mints
    /// 16-hex ids when the client supplies none).
    pub trace_id: String,
    /// Span id in the *sender's* process to parent under, if any.
    pub parent_span: Option<u64>,
}

/// The fields every request shares, extracted even when the body fails to
/// parse so error replies can still echo `id` and `request_id`.
#[derive(Debug)]
pub struct Envelope {
    /// Client-requested protocol version (absent ⇒ 1; `None` if non-integer).
    pub v: Option<u64>,
    /// Client correlation id, echoed back verbatim.
    pub id: Option<Value>,
    /// Client-supplied request id, if any.
    pub request_id: Option<String>,
    /// The raw op string (empty when absent), for metrics and spans.
    pub op: String,
    /// Cross-process trace context, if the request carried a usable one.
    /// Parsing is deliberately lenient — a malformed `trace` field becomes
    /// `None` rather than an error, because observability must never fail a
    /// request that would otherwise succeed.
    pub trace: Option<TraceContext>,
    /// Whether the client asked for the opt-in `timing` reply section
    /// (`"server_timing":true`).
    pub server_timing: bool,
}

/// A program reference: a builtin name (resolved against the builtin
/// table) or an inline program, validated unless the op decoded it for
/// `lint`.
#[derive(Debug)]
pub enum ProgramSpec {
    Builtin(String),
    Inline(Program),
}

/// A request's program together with its canonicalization.
#[derive(Clone)]
pub struct Resolved {
    pub program: Arc<Program>,
    pub canonical: Arc<Canonical>,
}

impl Resolved {
    /// Canonicalize `program`: the one canonicalization walk it gets.
    pub(crate) fn new(program: Program) -> Resolved {
        Resolved {
            canonical: Arc::new(canonicalize(&program)),
            program: Arc::new(program),
        }
    }
}

/// Extract the shared request fields. The envelope always comes back, even
/// from requests whose body will fail its op's schema — error replies need
/// `id`/`request_id`.
pub fn parse_envelope(request: &Value) -> Envelope {
    Envelope {
        v: match request.get("v") {
            None => Some(PROTOCOL_VERSION),
            Some(v) => v.as_u64(),
        },
        id: request.get("id").cloned(),
        request_id: request
            .get("request_id")
            .and_then(Value::as_str)
            .map(str::to_string),
        op: request
            .get("op")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string(),
        trace: request_trace(request),
        server_timing: request
            .get("server_timing")
            .and_then(Value::as_bool)
            .unwrap_or(false),
    }
}

/// The version gate, applied by the engine **before** the op is looked up
/// in the registry, so probing an unknown version is always safe.
pub fn check_version(envelope: &Envelope) -> Result<(), ApiError> {
    match envelope.v {
        Some(PROTOCOL_VERSION) => Ok(()),
        Some(v) => Err(ApiError::new(
            ErrorKind::UnsupportedVersion,
            format!(
                "protocol version {v} is not supported (this build speaks v{PROTOCOL_VERSION})"
            ),
        )),
        None => Err(ApiError::new(
            ErrorKind::UnsupportedVersion,
            "`v` must be an integer protocol version",
        )),
    }
}

/// Extract a request's [`TraceContext`], if it carries a usable one. Shared
/// with the router, which reads the context off raw forwarded lines.
pub fn request_trace(request: &Value) -> Option<TraceContext> {
    request.get("trace").and_then(trace_context)
}

/// Lenient decode of a `trace` context: a non-empty `trace_id` string is
/// required; anything malformed yields `None` instead of an error.
fn trace_context(v: &Value) -> Option<TraceContext> {
    let trace_id = v.get("trace_id")?.as_str()?;
    if trace_id.is_empty() {
        return None;
    }
    Some(TraceContext {
        trace_id: trace_id.to_string(),
        parent_span: v.get("parent_span").and_then(Value::as_u64),
    })
}

/// Decode a request's `program` field (builtin name or inline object).
/// Shared by every program-bearing op module. `lint` passes
/// `validate: false`: structural problems are exactly what its `structure`
/// diagnostic reports.
pub(crate) fn program_spec(request: &Value, validate: bool) -> Result<ProgramSpec, ApiError> {
    let spec = request
        .get("program")
        .ok_or_else(|| schema("missing `program` field"))?;
    if let Some(name) = spec.as_str() {
        Ok(ProgramSpec::Builtin(name.to_string()))
    } else if validate {
        Ok(ProgramSpec::Inline(program_from_value(spec)?))
    } else {
        Ok(ProgramSpec::Inline(program_from_value_unchecked(spec)?))
    }
}

/// The builtin program `name`, resolved once per process: a named program
/// never changes, so requests that name one pay neither its construction
/// nor the canonicalization walk. The ops and [`routing_key`] all read
/// this one table.
pub(crate) fn builtin(name: &str) -> Result<&'static Resolved, ApiError> {
    static TABLE: OnceLock<Vec<(&'static str, Resolved)>> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        BUILTIN_NAMES
            .iter()
            .map(|n| {
                let program = sdlo_ir::programs::builtin(n).expect("listed builtin exists");
                (*n, Resolved::new(program))
            })
            .collect()
    });
    table
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, r)| r)
        .ok_or_else(|| {
            schema(format!(
                "unknown builtin program `{name}` (expected one of {})",
                BUILTIN_NAMES.join(", ")
            ))
        })
}

pub(crate) fn bindings(request: &Value) -> Result<Bindings, ApiError> {
    Ok(request
        .get("bindings")
        .map(bindings_from_value)
        .transpose()?
        .unwrap_or_default())
}

pub(crate) fn cache_elements(request: &Value) -> Result<u64, ApiError> {
    request
        .get("cache")
        .and_then(Value::as_u64)
        .ok_or_else(|| schema("missing or non-integer `cache` (elements)"))
}

/// Grid points this space spans: candidates per dimension are the powers of
/// two in `[min, max]`, i.e. ~log₂(max/min)+1 values. `advise` caps it at
/// `max_search_points`.
pub fn grid_points(space: &SearchSpace) -> u64 {
    let mut points = 1u64;
    for m in &space.max {
        let per_dim = (m / space.min).ilog2() as u64 + 1;
        points = points.saturating_mul(per_dim);
    }
    points
}

// -- routing -----------------------------------------------------------------

/// Where a request may be served, as seen by a sharding front.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingKey {
    /// The request is about a specific program shape: route by its
    /// canonical structural hash so every backend builds (and caches) a
    /// disjoint slice of the shape space.
    Shape(u64),
    /// No program (or an undecodable one): any backend may serve it.
    Any,
}

/// Extract the routing key from one request document without touching the
/// engine: builtin names resolve through the builtin table the ops read,
/// inline programs are canonicalized here, and a `batch` routes by
/// its first program-bearing sub-request (keeping whole batches on one
/// backend, which preserves their single-reply shape).
///
/// This is deliberately lenient — a request the backend will reject
/// (unknown builtin, malformed program) still gets a key (`Any`), because
/// producing the error reply is the backend's job, not the router's.
pub fn routing_key(request: &Value) -> RoutingKey {
    if let Some(spec) = request.get("program") {
        return program_routing_key(spec);
    }
    if let Some(items) = request.get("requests").and_then(Value::as_array) {
        for item in items {
            if let Some(spec) = item.get("program") {
                if let RoutingKey::Shape(h) = program_routing_key(spec) {
                    return RoutingKey::Shape(h);
                }
            }
        }
    }
    RoutingKey::Any
}

fn program_routing_key(spec: &Value) -> RoutingKey {
    if let Some(name) = spec.as_str() {
        return match builtin(name) {
            Ok(r) => RoutingKey::Shape(r.canonical.hash),
            Err(_) => RoutingKey::Any,
        };
    }
    // Unchecked decode on purpose: canonicalization only needs the tree
    // shape, and a program that fails full validation must still route
    // *somewhere* to receive its error reply.
    match program_from_value_unchecked(spec) {
        Ok(p) => RoutingKey::Shape(canonicalize(&p).hash),
        Err(_) => RoutingKey::Any,
    }
}

// -- reply builders ----------------------------------------------------------

/// The `id` and `request_id` a reply to `request` echoes: the request's own
/// when it carries them, else no `id` and `next_request_id()`. The one
/// correlation rule for replies built outside the engine's own parse.
pub fn correlation(
    request: Option<&Value>,
    next_request_id: impl FnOnce() -> String,
) -> (Option<Value>, String) {
    let id = request.and_then(|r| r.get("id")).cloned();
    let request_id = request
        .and_then(|r| r.get("request_id"))
        .and_then(Value::as_str)
        .map_or_else(next_request_id, str::to_string);
    (id, request_id)
}

/// A success reply: `{"id":…, "request_id":…, "v":1, "ok":true, …body…}`.
pub fn reply(id: Option<Value>, request_id: &str, body: Vec<(&'static str, Value)>) -> Value {
    envelope(id, request_id, true, body)
}

/// The unified error envelope:
/// `{"id":…, "request_id":…, "v":1, "ok":false, "error":{"kind":…, "message":…}}`.
pub fn error_reply(id: Option<Value>, request_id: &str, error: &ApiError) -> Value {
    let error = Value::obj(vec![
        ("kind", Value::from(error.kind.as_str())),
        ("message", Value::from(error.message.as_str())),
    ]);
    envelope(id, request_id, false, vec![("error", error)])
}

/// The envelope prefix `id?`, `request_id`, `v`, `ok` — in exactly that
/// order, which is part of the wire format — then `body` in the order given.
fn envelope(
    id: Option<Value>,
    request_id: &str,
    ok: bool,
    body: Vec<(&'static str, Value)>,
) -> Value {
    let mut fields = Vec::with_capacity(body.len() + 4);
    if let Some(id) = id {
        fields.push(("id".to_string(), id));
    }
    fields.push(("request_id".to_string(), Value::from(request_id)));
    fields.push(("v".to_string(), Value::from(PROTOCOL_VERSION)));
    fields.push(("ok".to_string(), Value::from(ok)));
    fields.extend(body.into_iter().map(|(k, v)| (k.to_string(), v)));
    Value::Object(fields)
}

/// Encode one flight-recorder record for `debug` / `stats` replies. Key
/// order is part of the wire format.
pub fn flight_record_to_value(r: &sdlo_trace::flight::FlightRecord) -> Value {
    Value::obj(vec![
        ("seq", Value::from(r.seq)),
        ("op", Value::from(r.op.as_str())),
        ("canon_hash", Value::from(format!("{:016x}", r.canon_hash))),
        ("status", Value::from(r.status.as_str())),
        ("queue_micros", Value::from(r.queue_micros)),
        ("exec_micros", Value::from(r.exec_micros)),
        ("write_micros", Value::from(r.write_micros)),
        ("total_micros", Value::from(r.total_micros)),
        ("retries", Value::from(r.retries)),
        ("failovers", Value::from(r.failovers)),
        ("request_id", Value::from(r.request_id.as_str())),
        ("trace_id", Value::from(r.trace_id.as_str())),
        ("end_unix_micros", Value::from(r.end_unix_micros)),
    ])
}

/// The `debug`/`trace_dump` reply body, shared by the service engine and
/// the router (both answer the op against their own flight recorder, with
/// the same shape).
pub fn flight_dump_body(flight: &sdlo_trace::flight::FlightRecorder) -> Vec<(&'static str, Value)> {
    let records: Vec<Value> = flight
        .records()
        .iter()
        .map(flight_record_to_value)
        .collect();
    let slow: Vec<Value> = flight
        .slow()
        .iter()
        .map(|s| {
            Value::obj(vec![
                ("record", flight_record_to_value(&s.record)),
                ("chrome", Value::from(sdlo_trace::chrome::render(&s.spans))),
            ])
        })
        .collect();
    vec![
        ("what", Value::from("trace_dump")),
        (
            "epoch_unix_micros",
            Value::from(sdlo_trace::epoch_unix_micros()),
        ),
        (
            "slow_threshold_micros",
            Value::from(flight.slow_threshold_micros()),
        ),
        ("records", Value::Array(records)),
        ("slow", Value::Array(slow)),
        ("chrome", Value::from(flight.chrome_trace())),
    ]
}

/// The `stats` reply body, shared by the service engine and the router: the
/// metrics snapshot, the slowest request per op, `extra` (the engine's
/// `cached_shapes`, the router's `router` section), the protocol version
/// and the advertised ops. Key order is part of the wire format.
pub fn stats_body(
    metrics: &crate::metrics::Metrics,
    flight: &sdlo_trace::flight::FlightRecorder,
    extra: (&str, Value),
) -> Vec<(&'static str, Value)> {
    let Value::Object(mut snap) = metrics.snapshot() else {
        unreachable!("snapshot is an object")
    };
    let slowest = flight
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
        .collect();
    snap.push(("slowest".to_string(), Value::Object(slowest)));
    snap.push((extra.0.to_string(), extra.1));
    snap.push((
        "protocol_version".to_string(),
        Value::from(PROTOCOL_VERSION),
    ));
    snap.push((
        "ops".to_string(),
        Value::Array(ops().iter().map(|o| Value::from(*o)).collect()),
    ));
    vec![("stats", Value::Object(snap))]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Value {
        sdlo_wire::parse(s).unwrap()
    }

    #[test]
    fn trace_context_parses_leniently() {
        let env = parse_envelope(&parse(
            r#"{"op":"stats","trace":{"trace_id":"abcd1234abcd1234","parent_span":7}}"#,
        ));
        let trace = env.trace.unwrap();
        assert_eq!(trace.trace_id, "abcd1234abcd1234");
        assert_eq!(trace.parent_span, Some(7));

        // parent_span optional.
        let env = parse_envelope(&parse(r#"{"op":"stats","trace":{"trace_id":"t1"}}"#));
        assert_eq!(env.trace.unwrap().parent_span, None);

        // Malformed trace never fails the request — it just disappears.
        for bad in [
            r#"{"op":"stats","trace":17}"#,
            r#"{"op":"stats","trace":{}}"#,
            r#"{"op":"stats","trace":{"trace_id":""}}"#,
            r#"{"op":"stats","trace":{"trace_id":42}}"#,
        ] {
            let env = parse_envelope(&parse(bad));
            assert!(env.trace.is_none(), "{bad}");
        }
    }

    #[test]
    fn server_timing_flag_defaults_off() {
        let env = parse_envelope(&parse(r#"{"op":"stats"}"#));
        assert!(!env.server_timing);
        let env = parse_envelope(&parse(r#"{"op":"stats","server_timing":true}"#));
        assert!(env.server_timing);
        let env = parse_envelope(&parse(r#"{"op":"stats","server_timing":"yes"}"#));
        assert!(!env.server_timing);
    }

    #[test]
    fn version_defaults_to_one_and_gates_first() {
        let env = parse_envelope(&parse(r#"{"op":"stats"}"#));
        assert_eq!(env.v, Some(1));
        assert!(check_version(&env).is_ok());

        let env = parse_envelope(&parse(r#"{"op":"stats","v":1}"#));
        assert_eq!(env.v, Some(1));
        assert!(check_version(&env).is_ok());

        // Unknown version must fail even when the op is also bad — the
        // engine applies this gate before the registry lookup, so probing
        // is safe.
        let env = parse_envelope(&parse(r#"{"op":"nope","v":2}"#));
        assert_eq!(
            check_version(&env).unwrap_err().kind,
            ErrorKind::UnsupportedVersion
        );
        let env = parse_envelope(&parse(r#"{"op":"stats","v":"x"}"#));
        assert_eq!(env.v, None);
        assert_eq!(
            check_version(&env).unwrap_err().kind,
            ErrorKind::UnsupportedVersion
        );
    }

    #[test]
    fn reply_envelopes_share_one_shape() {
        let ok = reply(
            Some(Value::from(7u64)),
            "req-00000001",
            vec![("answer", Value::from(42u64))],
        );
        assert_eq!(
            ok.render(),
            r#"{"id":7,"request_id":"req-00000001","v":1,"ok":true,"answer":42}"#
        );
        let err = error_reply(
            None,
            "req-00000002",
            &ApiError::new(ErrorKind::Limit, "too big"),
        );
        assert_eq!(
            err.render(),
            r#"{"request_id":"req-00000002","v":1,"ok":false,"error":{"kind":"limit","message":"too big"}}"#
        );
    }

    #[test]
    fn routing_keys_are_canonical() {
        // Builtin and the structurally identical inline program (renamed
        // indices/arrays) must route to the same shape.
        let builtin = routing_key(&parse(r#"{"op":"analyze","program":"matmul"}"#));
        let renamed = routing_key(&parse(
            r#"{"op":"predict","cache":512,
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
                           {"array":"Y","dims":[[{"index":"q"}],[{"index":"r"}]]}]}}]}}]}}]}}]}}"#,
        ));
        assert!(matches!(builtin, RoutingKey::Shape(_)));
        assert_eq!(builtin, renamed);
        // Different shape → different key.
        let other = routing_key(&parse(r#"{"op":"analyze","program":"tiled_matmul"}"#));
        assert_ne!(builtin, other);
        // No program / unknown builtin / malformed inline: Any, never panic.
        assert_eq!(routing_key(&parse(r#"{"op":"stats"}"#)), RoutingKey::Any);
        assert_eq!(
            routing_key(&parse(r#"{"op":"analyze","program":"nope"}"#)),
            RoutingKey::Any
        );
        assert_eq!(
            routing_key(&parse(r#"{"op":"analyze","program":{"name":1}}"#)),
            RoutingKey::Any
        );
        // Batch routes by its first program-bearing sub-request.
        let batch = routing_key(&parse(
            r#"{"op":"batch","requests":[{"op":"stats"},{"op":"analyze","program":"matmul"}]}"#,
        ));
        assert_eq!(batch, builtin);
    }

    #[test]
    fn grid_points_counts_powers_of_two() {
        let space = SearchSpace {
            tile_syms: vec!["Ti".into(), "Tj".into()],
            max: vec![64, 32],
            min: 4,
        };
        // 4..64: 5 candidates; 4..32: 4 candidates.
        assert_eq!(grid_points(&space), 20);
    }
}
