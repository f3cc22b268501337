//! `sleep` — test-only op the loopback tests use to make backpressure
//! deterministic; with `"panic":true` it panics instead, so tests can pin
//! the worker's panic safety net. Gated behind `enable_test_ops` and never
//! advertised.

use crate::api::{self, ErrorKind};
use crate::engine::{Engine, OpResult};
use crate::ops::{OpCtx, ServiceOp};
use sdlo_wire::Value;
use std::time::Duration;

pub struct SleepOp;

impl ServiceOp for SleepOp {
    fn name(&self) -> &'static str {
        "sleep"
    }

    fn advertised(&self) -> bool {
        false
    }

    fn serve(&self, engine: &Engine, ctx: &OpCtx<'_>) -> OpResult {
        if !engine.config.enable_test_ops {
            return Err(api::fail(ErrorKind::Unsupported, "test ops are disabled"));
        }
        if ctx.request.get("panic").and_then(Value::as_bool) == Some(true) {
            panic!("test op asked to panic");
        }
        let millis = ctx
            .request
            .get("millis")
            .and_then(Value::as_u64)
            .unwrap_or(10)
            .min(5_000);
        std::thread::sleep(Duration::from_millis(millis));
        Ok(vec![("slept_millis", Value::from(millis))])
    }
}
