//! `lint` — static diagnostics (`sdlo-analysis`) plus the dependence
//! summary. Inline programs that fail [`Program::validate`] still lint: the
//! `structure` diagnostic reports the problem, so validation is skipped at
//! parse time on purpose.
//!
//! [`Program::validate`]: sdlo_ir::Program::validate

use crate::api;
use crate::engine::{Engine, OpResult};
use crate::ops::{OpCtx, ServiceOp};
use sdlo_wire::{diagnostic_to_value, Value};

pub struct LintOp;

impl ServiceOp for LintOp {
    fn name(&self) -> &'static str {
        "lint"
    }

    fn serve(&self, engine: &Engine, ctx: &OpCtx<'_>) -> OpResult {
        use std::sync::atomic::Ordering::Relaxed;
        let resolved = ctx.resolve(api::program_spec(ctx.request, false)?)?;
        let program = &*resolved.program;
        let report = sdlo_analysis::report(program);
        let diags = report.diagnostics;
        let counts = sdlo_analysis::SeverityCounts::of(&diags);
        // The dependence summary reads the graph the rules read. It exists
        // only for structurally valid trees; for the invalid inline programs
        // `lint` deliberately accepts, the `deps` field is null.
        let deps = report.graph.map_or(Value::Null, |graph| {
            sdlo_wire::dep_summary_to_value(&graph.summary())
        });
        engine
            .metrics
            .lint_diag_errors
            .fetch_add(counts.errors as u64, Relaxed);
        engine
            .metrics
            .lint_diag_warnings
            .fetch_add(counts.warnings as u64, Relaxed);
        engine
            .metrics
            .lint_diag_infos
            .fetch_add(counts.infos as u64, Relaxed);
        Ok(vec![
            ("program", Value::from(program.name.as_str())),
            (
                "diagnostics",
                Value::Array(diags.iter().map(diagnostic_to_value).collect()),
            ),
            (
                "summary",
                Value::obj(vec![
                    ("error", Value::from(counts.errors)),
                    ("warning", Value::from(counts.warnings)),
                    ("info", Value::from(counts.infos)),
                ]),
            ),
            ("deps", deps),
        ])
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::{Engine, EngineConfig};
    use crate::ops::spans_of;

    #[test]
    fn one_lint_builds_one_model_and_one_dependence_graph() {
        let engine = Engine::new(EngineConfig::default());
        let valid = spans_of(&engine, r#"{"op":"lint","program":"tiled_two_index"}"#);
        let rejected = spans_of(
            &engine,
            r#"{"op":"lint","program":{"name":"bad","arrays":[{"name":"A","dims":["N"]}],"nest":[{"stmt":{"kind":"zero","refs":[{"array":"A","write":true,"dims":[[{"index":"q"}]]}]}}]}}"#,
        );
        let count = |names: &[String], name: &str| names.iter().filter(|n| *n == name).count();
        assert_eq!(
            (count(&valid, "model.build"), count(&valid, "deps.graph")),
            (1, 1),
            "{valid:?}"
        );
        assert_eq!(
            (
                count(&rejected, "model.build"),
                count(&rejected, "deps.graph")
            ),
            (0, 0),
            "{rejected:?}"
        );
    }
}
