//! `debug` — introspection queries against the process's flight recorder.
//! `what` defaults to `trace_dump`: the raw request ring, the retained
//! slow captures (each with its span subtree rendered as its own Chrome
//! document) and the whole span ring as one Chrome document, plus the
//! process's unix epoch anchor so `tables trace-merge` can align dumps
//! from different processes.

use crate::api;
use crate::engine::{Engine, OpResult};
use crate::ops::{OpCtx, ServiceOp};

pub struct DebugOp;

impl ServiceOp for DebugOp {
    fn name(&self) -> &'static str {
        "debug"
    }

    fn serve(&self, engine: &Engine, ctx: &OpCtx<'_>) -> OpResult {
        api::debug_body(Some(ctx.request), &engine.flight)
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::{Engine, EngineConfig};
    use sdlo_wire::Value;

    #[test]
    fn debug_op_parses_with_default_what() {
        let engine = Engine::new(EngineConfig::default());
        for line in [r#"{"op":"debug"}"#, r#"{"op":"debug","what":"trace_dump"}"#] {
            let reply = sdlo_wire::parse(&engine.handle_line(line)).unwrap();
            assert_eq!(
                reply.get("what").and_then(Value::as_str),
                Some("trace_dump"),
                "{line}"
            );
        }
        assert!(crate::ops::advertised().contains(&"debug"));
    }
}
