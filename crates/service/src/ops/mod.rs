//! The op registry: one module per protocol op, one dispatcher table.
//!
//! Each op implements [`ServiceOp`] — parse its own request schema out of
//! the raw document, validate, execute against the [`Engine`], and return
//! the reply body fields (the envelope itself is owned by
//! [`crate::api::reply`] / [`crate::api::error_reply`]). A program-bearing
//! op resolves its program once, through `OpCtx::resolve`, which also
//! gives the request's flight record its canonical hash. The `REGISTRY`
//! table drives the engine's dispatch, the `stats.ops` advertisement and
//! the per-op metrics slots, so adding an op is: write the module, add one
//! registry line. The version gate and the unknown-op error stay
//! centralized in the engine, **before** the registry lookup, so clients
//! can probe versions safely.
//!
//! Registration order is wire-visible: [`advertised`] and [`slot_names`]
//! preserve it, the `stats.ops` golden test pins it, and it orders the
//! per-op series of `stats.requests` and the Prometheus exposition.

pub mod advise;
pub mod analyze;
pub mod batch;
pub mod debug;
pub mod lint;
pub mod metrics;
pub mod predict;
pub mod revise;
pub mod sleep;
pub mod stats;

use crate::api::{self, ApiError, Envelope, ProgramSpec, Resolved};
use crate::engine::{Engine, OpResult};
use sdlo_wire::Value;
use std::cell::Cell;
use std::time::Instant;

/// Everything an op gets to see about the request being served: the raw
/// document (each op owns its body schema), the already-extracted shared
/// [`Envelope`] fields, and when the engine picked the request up (`batch`
/// charges its sub-requests against this).
pub struct OpCtx<'a> {
    pub request: &'a Value,
    pub envelope: &'a Envelope,
    pub started: Instant,
    /// The canonical hash the request's flight record carries: set when the
    /// op resolves its program, 0 if it never does.
    pub(crate) canon_hash: Cell<u64>,
}

impl OpCtx<'_> {
    /// Resolve the request's program: builtin names read the one builtin
    /// table, inline programs are canonicalized here — the only
    /// canonicalization the request pays. Records the hash for the
    /// request's flight record.
    pub(crate) fn resolve(&self, spec: ProgramSpec) -> Result<Resolved, ApiError> {
        let resolved = match spec {
            ProgramSpec::Builtin(name) => api::builtin(&name)?.clone(),
            ProgramSpec::Inline(program) => Resolved::new(program),
        };
        self.canon_hash.set(resolved.canonical.hash);
        Ok(resolved)
    }
}

/// One protocol op: a name for the dispatcher plus the parse → validate →
/// execute pipeline. Implementations are stateless unit structs; all state
/// lives in the [`Engine`].
pub trait ServiceOp: Sync {
    /// The wire name dispatched on (`"analyze"`, `"predict"`, …).
    fn name(&self) -> &'static str;

    /// Whether `stats.ops` advertises this op. Test-only ops opt out.
    fn advertised(&self) -> bool {
        true
    }

    /// Parse the request body, validate it and execute. Returns the reply
    /// body fields in wire order.
    fn serve(&self, engine: &Engine, ctx: &OpCtx<'_>) -> OpResult;
}

/// Every op this build serves, in advertisement order.
static REGISTRY: &[&dyn ServiceOp] = &[
    &analyze::AnalyzeOp,
    &predict::PredictOp,
    &advise::AdviseOp,
    &batch::BatchOp,
    &lint::LintOp,
    &stats::StatsOp,
    &metrics::MetricsOp,
    &debug::DebugOp,
    &revise::ReviseOp,
    &sleep::SleepOp,
];

/// Resolve an op name against the registry: its metrics slot (see
/// [`slot_names`]) and the op, if one has that name.
pub fn find(name: &str) -> (usize, Option<&'static dyn ServiceOp>) {
    match REGISTRY.iter().position(|op| op.name() == name) {
        Some(slot) => (slot, Some(REGISTRY[slot])),
        None => (REGISTRY.len(), None),
    }
}

/// The names of the per-op metrics slots: every op, advertised or not, in
/// registration order, then `other` for names no op has.
pub fn slot_names() -> impl Iterator<Item = &'static str> {
    REGISTRY.iter().map(|op| op.name()).chain(["other"])
}

/// The advertised op names in registration order (the `stats.ops` list).
pub fn advertised() -> &'static [&'static str] {
    static NAMES: std::sync::OnceLock<Vec<&'static str>> = std::sync::OnceLock::new();
    NAMES.get_or_init(|| {
        REGISTRY
            .iter()
            .filter(|op| op.advertised())
            .map(|op| op.name())
            .collect()
    })
}

/// The names of the spans `engine` records serving `line`, at any depth
/// under a span this thread opens around it. The collector is process-wide,
/// so tests that trace take turns.
#[cfg(test)]
pub(crate) fn spans_of(engine: &Engine, line: &str) -> Vec<String> {
    use sdlo_trace::{MemoryCollector, Record};
    static TRACING: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _turn = TRACING.lock().unwrap_or_else(|e| e.into_inner());
    let collector = MemoryCollector::new();
    sdlo_trace::install(collector.clone());
    let outer = sdlo_trace::span("test.request");
    let root = outer.id().expect("a collector is installed");
    let reply = engine.handle_line(line);
    drop(outer);
    sdlo_trace::uninstall();
    assert!(reply.contains(r#""ok":true"#), "{reply}");
    let mut under = std::collections::BTreeSet::from([root]);
    let mut names = Vec::new();
    for record in collector.records() {
        if let Record::Begin {
            id,
            parent: Some(parent),
            name,
            ..
        } = record
        {
            if under.contains(&parent) {
                under.insert(id);
                names.push(name.into_owned());
            }
        }
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ErrorKind;
    use crate::engine::{Engine, EngineConfig};

    fn parse(s: &str) -> Value {
        sdlo_wire::parse(s).unwrap()
    }

    #[test]
    fn registry_names_are_unique_and_advertised_in_order() {
        let mut names: Vec<&str> = REGISTRY.iter().map(|op| op.name()).collect();
        let adv = advertised();
        assert_eq!(
            adv,
            &[
                "analyze", "predict", "advise", "batch", "lint", "stats", "metrics", "debug",
                "revise",
            ],
        );
        // Unadvertised ops still dispatch.
        assert!(!find("sleep").1.unwrap().advertised());
        // Metrics slots follow the registry, with unknown names last.
        let slots: Vec<&str> = slot_names().collect();
        assert_eq!(slots.len(), REGISTRY.len() + 1);
        assert_eq!(slots[find("revise").0], "revise");
        assert_eq!(slots[find("frobnicate").0], "other");
        assert!(find("frobnicate").1.is_none());
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), REGISTRY.len(), "duplicate op name");
    }

    #[test]
    fn unknown_and_missing_ops_are_unsupported() {
        let e = Engine::new(EngineConfig::default());
        let resp = e.handle(&parse(r#"{"op":"frobnicate"}"#));
        let err = resp.get("error").unwrap();
        assert_eq!(err.get("kind").unwrap().as_str(), Some("unsupported"));
        assert!(err
            .get("message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("frobnicate"));
        let resp = e.handle(&parse(r#"{"id":3}"#));
        let err = resp.get("error").unwrap();
        assert_eq!(err.get("kind").unwrap().as_str(), Some("unsupported"));
        assert_eq!(
            err.get("message").unwrap().as_str(),
            Some("missing `op` field")
        );
        // The version gate wins over the op lookup.
        let resp = e.handle(&parse(r#"{"op":"frobnicate","v":2}"#));
        assert_eq!(
            resp.get("error").unwrap().get("kind").unwrap().as_str(),
            Some(ErrorKind::UnsupportedVersion.as_str())
        );
    }
}
