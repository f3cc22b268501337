//! `metrics` — the same counters as `stats`, in Prometheus text exposition
//! format (a `"text"` field; the transport's raw-scrape path serves the
//! text directly).

use crate::engine::{Engine, OpResult};
use crate::ops::{OpCtx, ServiceOp};
use crate::server::LineHandler;
use sdlo_wire::Value;

pub struct MetricsOp;

impl ServiceOp for MetricsOp {
    fn name(&self) -> &'static str {
        "metrics"
    }

    fn serve(&self, engine: &Engine, _ctx: &OpCtx<'_>) -> OpResult {
        Ok(vec![
            ("content_type", Value::from("text/plain; version=0.0.4")),
            ("text", Value::from(engine.prometheus())),
        ])
    }
}
