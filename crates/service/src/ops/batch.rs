//! `batch` — sub-requests served one after another on the worker that
//! took the batch, each through the full parse → dispatch → encode cycle;
//! one sub-request failing never fails the batch, and replies come back in
//! request order. A fan-out over threads lost on a 2-vCPU host: a batch of
//! 4 cached predicts took 241–286 µs spread over the cores against 67–81 µs
//! in order, because the worker already holds one of the two cores.
//!
//! A batch's own flight record carries the routing key the router sends
//! it by: the hash of its first program-bearing sub-request. Each
//! sub-request's own record carries its own hash.

use crate::api::{self, ApiError, ErrorKind, RoutingKey};
use crate::engine::{Engine, OpResult};
use crate::ops::{OpCtx, ServiceOp};
use crate::server::LineHandler;
use sdlo_wire::Value;
use std::time::Duration;

/// Maximum sub-requests in one `batch`.
const MAX_BATCH: usize = 1024;

#[derive(Debug)]
struct Batch {
    /// Sub-requests, still raw: each goes through the full parse → dispatch
    /// → encode cycle (and failures must not fail the batch).
    requests: Vec<Value>,
}

fn parse(request: &Value) -> Result<Batch, ApiError> {
    let items = request
        .get("requests")
        .and_then(Value::as_array)
        .ok_or_else(|| api::schema("`requests` must be an array"))?;
    if items
        .iter()
        .any(|i| i.get("op").and_then(Value::as_str) == Some("batch"))
    {
        return Err(api::fail(ErrorKind::Unsupported, "nested batch requests"));
    }
    Ok(Batch {
        requests: items.to_vec(),
    })
}

pub struct BatchOp;

impl ServiceOp for BatchOp {
    fn name(&self) -> &'static str {
        "batch"
    }

    fn serve(&self, engine: &Engine, ctx: &OpCtx<'_>) -> OpResult {
        if let RoutingKey::Shape(hash) = api::routing_key(ctx.request) {
            ctx.canon_hash.set(hash);
        }
        let items = parse(ctx.request)?.requests;
        if items.len() > MAX_BATCH {
            return Err(api::fail(
                ErrorKind::Limit,
                format!("batch of {} exceeds max_batch={MAX_BATCH}", items.len()),
            ));
        }
        let started = ctx.started;
        let budget = Duration::from_millis(engine.config.max_request_millis);
        let responses: Vec<Value> = items
            .iter()
            .map(|item| {
                if started.elapsed() > budget {
                    let err = api::fail(
                        ErrorKind::DeadlineExceeded,
                        "batch exceeded the request time budget",
                    );
                    let (id, request_id) =
                        api::correlation(Some(item), || engine.next_request_id());
                    return api::error_reply(id, &request_id, &err);
                }
                engine.handle(item)
            })
            .collect();
        Ok(vec![("responses", Value::Array(responses))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_batches_are_rejected_at_parse_time() {
        let err = parse(
            &sdlo_wire::parse(r#"{"op":"batch","requests":[{"op":"batch","requests":[]}]}"#)
                .unwrap(),
        )
        .unwrap_err();
        assert_eq!(err.kind, ErrorKind::Unsupported);
    }
}
