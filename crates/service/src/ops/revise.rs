//! `revise` — incremental re-evaluation of a live model.
//!
//! A client that sweeps tile sizes (or cache capacities) over one program
//! shape should not pay a model build per point. `revise` keeps a
//! [`sdlo_core::ModelDag`] session in the shape's model-cache entry, named
//! by the canonical shape hash (`base`), and applies a structured delta —
//! new symbol bindings and/or a new tracked cache-size set — by running the
//! session's compiled tape once, or not at all when nothing changed.
//!
//! ## Session lifecycle
//!
//! A request's optional `program` must canonicalize to `base`; it is
//! checked before either path runs, so a mismatched line gets the same
//! schema error whether or not the base holds a session.
//!
//! * **Warm** (`revised: true`): the base's model is cached in memory and
//!   holds a session; the delta is applied transactionally in place, under
//!   the entry's lock. An evaluation error (e.g. a binding driving a count
//!   negative) leaves the session untouched.
//! * **Cold** (`revised: false`): no session. The model is recovered from
//!   the request's `program`, the in-memory model cache, or the disk
//!   tier — in that order — and a fresh session is built from the delta,
//!   which must then carry `cache_sizes` and bindings for every free
//!   symbol. A session lives exactly as long as its model stays cached;
//!   once the model is evicted, the next revise against that base is cold
//!   again.
//!
//! The answers are byte-identical to `predict` over the same points, errors
//! included — the tape runs the tree walk's checked arithmetic — so
//! `revise` is purely a latency/throughput optimization, never a different
//! model.

use crate::api::{self, schema, ApiError, ErrorKind, ProgramSpec};
use crate::engine::{Engine, OpResult};
use crate::metrics::Metrics;
use crate::ops::{OpCtx, ServiceOp};
use sdlo_core::dag::{DagDelta, ModelDag};
use sdlo_core::ModelError;
use sdlo_wire::Value;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

/// A shape's live `revise` state, kept in its model-cache entry. The
/// `revise.sessions` gauge counts it from [`Session::new`] to its drop,
/// which follows the entry's eviction once no request still holds it.
pub(crate) struct Session {
    dag: ModelDag,
    metrics: Arc<Metrics>,
}

impl Session {
    fn new(dag: ModelDag, metrics: &Arc<Metrics>) -> Self {
        metrics.revise_sessions.fetch_add(1, Relaxed);
        Session {
            dag,
            metrics: Arc::clone(metrics),
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.metrics.revise_sessions.fetch_sub(1, Relaxed);
    }
}

#[derive(Debug)]
struct Revise {
    /// Canonical shape hash naming the session (and the model on a cold
    /// start).
    base: u64,
    delta: DagDelta,
    /// Optional program spec to establish a session for a shape the engine
    /// has never seen. Must canonicalize to `base`.
    program: Option<ProgramSpec>,
}

fn parse(request: &Value) -> Result<Revise, ApiError> {
    let base_str = request
        .get("base")
        .and_then(Value::as_str)
        .ok_or_else(|| schema("missing `base` canonical shape hash"))?;
    let base = (base_str.len() == 16)
        .then(|| u64::from_str_radix(base_str, 16).ok())
        .flatten()
        .ok_or_else(|| schema("`base` must be a 16-hex canonical shape hash"))?;
    let delta = sdlo_wire::delta_from_value(
        request
            .get("delta")
            .ok_or_else(|| schema("missing `delta` object"))?,
    )
    .map_err(|e| schema(e.to_string()))?;
    let program = match request.get("program") {
        Some(_) => Some(api::program_spec(request, true)?),
        None => None,
    };
    Ok(Revise {
        base,
        delta,
        program,
    })
}

/// Reply body shared by the warm and cold paths. `misses` is keyed by the
/// decimal cache size so sweep clients can index replies without tracking
/// array order.
fn body(
    base: u64,
    revised: bool,
    misses: &[(u64, u64)],
    sessions: u64,
    reevaluated: u64,
    reused: u64,
    ops: usize,
) -> Vec<(&'static str, Value)> {
    vec![
        ("revised", Value::from(revised)),
        ("base", Value::from(format!("{base:016x}"))),
        (
            "misses",
            Value::Object(
                misses
                    .iter()
                    .map(|(size, count)| (size.to_string(), Value::from(*count)))
                    .collect(),
            ),
        ),
        (
            "revise",
            Value::obj(vec![
                ("sessions", Value::from(sessions)),
                ("nodes_reevaluated", Value::from(reevaluated)),
                ("nodes_reused", Value::from(reused)),
                ("exprs", Value::from(ops as u64)),
            ]),
        ),
    ]
}

pub struct ReviseOp;

impl ServiceOp for ReviseOp {
    fn name(&self) -> &'static str {
        "revise"
    }

    fn serve(&self, engine: &Engine, ctx: &OpCtx<'_>) -> OpResult {
        let request = parse(ctx.request)?;
        let metrics = &engine.metrics;
        let eval = |e: ModelError| api::fail(ErrorKind::Eval, e.to_string());
        let resolved = match request.program {
            Some(spec) => {
                let resolved = ctx.resolve(spec)?;
                if resolved.canonical.hash != request.base {
                    return Err(schema(format!(
                        "`program` canonicalizes to `{:016x}`, which is not base `{:016x}`",
                        resolved.canonical.hash, request.base
                    )));
                }
                Some(resolved)
            }
            None => None,
        };

        // Warm path: the base's model is cached in memory and holds a
        // session. The delta applies in place under the entry's lock, which
        // only revises of the same shape contend for.
        if let Some(cached) = engine.cache.get_by_hash(request.base) {
            if let Some(session) = cached.session.lock().unwrap().as_mut() {
                let outcome = session.dag.revise(&request.delta).map_err(eval)?;
                metrics
                    .revise_nodes_reevaluated
                    .fetch_add(outcome.nodes_reevaluated, Relaxed);
                metrics
                    .revise_nodes_reused
                    .fetch_add(outcome.nodes_reused, Relaxed);
                return Ok(body(
                    request.base,
                    true,
                    &outcome.misses,
                    metrics.revise_sessions.load(Relaxed),
                    outcome.nodes_reevaluated,
                    outcome.nodes_reused,
                    session.dag.op_count(),
                ));
            }
        }

        // Cold path: recover the model, build a fresh session outside the
        // entry's lock, then install it there.
        metrics.revise_base_misses.fetch_add(1, Relaxed);
        let cached = if let Some(resolved) = resolved {
            engine.model_for(&resolved).0
        } else {
            engine.model_by_hash(request.base).ok_or_else(|| {
                schema(format!(
                    "unknown base `{:016x}`; include `program` to establish the session",
                    request.base
                ))
            })?
        };
        let Some(sizes) = request.delta.cache_sizes.clone() else {
            return Err(schema(
                "`delta.cache_sizes` is required to establish a new revise session",
            ));
        };
        engine.require_bound(&cached.canonical.program, &request.delta.bindings, &[])?;
        let dag = {
            let _span = sdlo_trace::span(sdlo_trace::names::REVISE_FULL_BUILD);
            ModelDag::new(&cached.model, request.delta.bindings.clone(), &sizes).map_err(eval)?
        };
        metrics.revise_full_builds.fetch_add(1, Relaxed);
        let misses = dag.misses();
        let ops = dag.op_count();
        *cached.session.lock().unwrap() = Some(Session::new(dag, metrics));
        Ok(body(
            request.base,
            false,
            &misses,
            metrics.revise_sessions.load(Relaxed),
            0,
            0,
            ops,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(s: &str) -> Value {
        sdlo_wire::parse(s).unwrap()
    }

    #[test]
    fn base_hash_is_validated_strictly() {
        let err = parse(&doc(r#"{"op":"revise","delta":{}}"#)).unwrap_err();
        assert_eq!(err.message, "missing `base` canonical shape hash");
        for bad in ["abc", "zzzzzzzzzzzzzzzz", "00112233445566778899"] {
            let err = parse(&doc(&format!(
                r#"{{"op":"revise","base":"{bad}","delta":{{}}}}"#
            )))
            .unwrap_err();
            assert_eq!(err.message, "`base` must be a 16-hex canonical shape hash");
        }
        let ok = parse(&doc(r#"{"op":"revise","base":"00ff00ff00ff00ff",
                "delta":{"bindings":{"Ti":32},"cache_sizes":[1024]}}"#))
        .unwrap();
        assert_eq!(ok.base, 0x00ff_00ff_00ff_00ff);
        assert_eq!(ok.delta.cache_sizes.as_deref(), Some(&[1024u64][..]));
        assert!(ok.program.is_none());
    }

    #[test]
    fn delta_is_required() {
        let err = parse(&doc(r#"{"op":"revise","base":"0011223344556677"}"#)).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Schema);
        assert_eq!(err.message, "missing `delta` object");
    }
}
