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
    use sdlo_trace::{MemoryCollector, Record};
    use std::collections::BTreeSet;

    /// The names of the spans one `lint` line records, at any depth under
    /// a span this thread opens around it (other tests may record into the
    /// same collector meanwhile).
    fn spans_of_lint(collector: &MemoryCollector, engine: &Engine, line: &str) -> Vec<String> {
        let outer = sdlo_trace::span("test.lint");
        let root = outer.id().expect("a collector is installed");
        let reply = engine.handle_line(line);
        assert!(reply.contains(r#""ok":true"#), "{reply}");
        drop(outer);
        let mut under = BTreeSet::from([root]);
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

    #[test]
    fn one_lint_builds_one_model_and_one_dependence_graph() {
        let engine = Engine::new(EngineConfig::default());
        let collector = MemoryCollector::new();
        sdlo_trace::install(collector.clone());
        let valid = spans_of_lint(
            &collector,
            &engine,
            r#"{"op":"lint","program":"tiled_two_index"}"#,
        );
        let rejected = spans_of_lint(
            &collector,
            &engine,
            r#"{"op":"lint","program":{"name":"bad","arrays":[{"name":"A","dims":["N"]}],"nest":[{"stmt":{"kind":"zero","refs":[{"array":"A","write":true,"dims":[[{"index":"q"}]]}]}}]}}"#,
        );
        sdlo_trace::uninstall();
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
