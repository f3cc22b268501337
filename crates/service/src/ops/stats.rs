//! `stats` — the metrics snapshot plus engine-level extras: per-op slowest
//! requests, current cache size, protocol version and the advertised op
//! list (driven by the registry, so it can never drift from dispatch).

use crate::api;
use crate::engine::{Engine, OpResult};
use crate::ops::{OpCtx, ServiceOp};
use sdlo_wire::Value;

pub struct StatsOp;

impl ServiceOp for StatsOp {
    fn name(&self) -> &'static str {
        "stats"
    }

    fn serve(&self, engine: &Engine, _ctx: &OpCtx<'_>) -> OpResult {
        Ok(api::stats_body(
            &engine.metrics,
            &engine.flight,
            ("cached_shapes", Value::from(engine.cache.len())),
        ))
    }
}
