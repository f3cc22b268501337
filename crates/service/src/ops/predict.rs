//! `predict` — evaluate the memoized miss model for one `(bindings, cache)`
//! instance; `"per_array":true` adds the per-array split.

use crate::api::{self, ApiError, ErrorKind, ProgramSpec};
use crate::engine::{Engine, OpResult};
use crate::ops::{OpCtx, ServiceOp};
use sdlo_symbolic::Bindings;
use sdlo_wire::Value;

struct Predict {
    program: ProgramSpec,
    bindings: Bindings,
    cache: u64,
    per_array: bool,
}

fn parse(request: &Value) -> Result<Predict, ApiError> {
    Ok(Predict {
        program: api::program_spec(request, true)?,
        bindings: api::bindings(request)?,
        cache: api::cache_elements(request)?,
        per_array: request
            .get("per_array")
            .and_then(Value::as_bool)
            .unwrap_or(false),
    })
}

pub struct PredictOp;

impl ServiceOp for PredictOp {
    fn name(&self) -> &'static str {
        "predict"
    }

    fn serve(&self, engine: &Engine, ctx: &OpCtx<'_>) -> OpResult {
        let request = parse(ctx.request)?;
        let resolved = ctx.resolve(request.program)?;
        let program = &resolved.program;
        engine.require_bound(program, &request.bindings, &[])?;
        let (cached, hit) = engine.model_for(&resolved);
        let misses = cached
            .model
            .predict_misses(&request.bindings, request.cache)
            .map_err(|e| api::fail(ErrorKind::Eval, e.to_string()))?;
        let mut body = vec![
            ("misses", Value::from(misses)),
            ("cache_hit", Value::from(hit)),
            (
                "shape",
                Value::from(format!("{:016x}", cached.canonical.hash)),
            ),
        ];
        if request.per_array {
            let name_of = Engine::original_name(program, &cached.canonical);
            let by_array = cached
                .model
                .predict_by_array(&request.bindings, request.cache)
                .map_err(|e| api::fail(ErrorKind::Eval, e.to_string()))?;
            body.push((
                "by_array",
                Value::Object(
                    by_array
                        .iter()
                        .map(|(id, m)| (name_of(*id), Value::from(*m)))
                        .collect(),
                ),
            ));
        }
        Ok(body)
    }
}
