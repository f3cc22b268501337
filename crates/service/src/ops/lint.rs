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
        let diags = sdlo_analysis::lint(program);
        let counts = sdlo_analysis::SeverityCounts::of(&diags);
        // Dependence info is only meaningful for structurally valid trees;
        // for the invalid inline programs `lint` deliberately accepts, the
        // `deps` field is null.
        let deps = match program.validate() {
            Ok(()) => sdlo_wire::dep_summary_to_value(&sdlo_deps::analyze(program).summary()),
            Err(_) => Value::Null,
        };
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
