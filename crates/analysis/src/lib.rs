//! # sdlo-analysis
//!
//! Static diagnostics for the TCE loop class: a rule registry over the
//! [`sdlo_ir`] loop tree that reports **model-assumption violations** (inputs
//! outside the class the paper's stack-distance characterization is sound
//! for) and **locality anti-patterns** (structurally detectable sources of
//! avoidable capacity misses), each as a structured [`Diagnostic`] with a
//! rule id, severity, source span and optional machine-readable fix-it.
//!
//! The paper's miss characterization (§4–5) assumes subscripts that are plain
//! loop indices or `tile+intra` pairs, rectangular symbolic bounds, and reuse
//! induced by absent indices. Nothing downstream re-checks those assumptions:
//! [`sdlo_core::MissModel::build`] will happily produce numbers for an
//! out-of-class program. This crate makes the boundary explicit — the
//! **error** tier is exactly "the model is unsound on this input", the
//! **warning** tier is "the model is sound and predicts poor locality", and
//! the **info** tier is "noteworthy structure" (e.g. the paper's
//! non-constant-dependence triggers).
//!
//! [`Program::validate`] is folded in as the first, gating rule
//! ([`rules::STRUCTURE`]): if the program is not even structurally
//! well-formed, only that diagnostic is reported and the remaining rules
//! (which assume validity) are skipped.
//!
//! Like the paper, which characterizes a nest once and reads that one
//! characterization for every question, a lint computes each whole-program
//! analysis at most once: every rule reads one [`LintContext`] holding the
//! program, its dependence graph and its [`sdlo_core::MissModel`], the
//! latter two built on first use, so a program the gate rejects pays for
//! neither. [`report`] hands the graph back beside the diagnostics.
//!
//! ```
//! use sdlo_analysis::{lint, Severity};
//! use sdlo_ir::programs;
//!
//! // The untiled matmul is in-class (no errors) but carries reuse no cache
//! // can hold for large N — the linter proposes tiling.
//! let diags = lint(&programs::matmul());
//! assert!(diags.iter().all(|d| d.severity != Severity::Error));
//! assert!(diags.iter().any(|d| d.rule == "untiled-reuse"));
//! ```

pub mod rules;

use sdlo_core::MissModel;
use sdlo_deps::DepGraph;
use sdlo_ir::{Program, StmtId, Sym};
use std::cell::OnceCell;

pub use sdlo_deps::Legality;

/// How bad a diagnostic is.
///
/// Ordering is by decreasing severity (`Error < Warning < Info`) so that
/// sorting a report lists errors first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The program is outside the analyzable class: any stack-distance
    /// prediction for it is unsound. CI gates fail on these.
    Error,
    /// The program is in-class but exhibits a locality anti-pattern the
    /// model predicts will miss.
    Warning,
    /// Structural observation useful when reading a report (e.g. which
    /// component kind a loop-invariant reference induces).
    Info,
}

impl Severity {
    /// Lower-case name as used in wire formats and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Info => "info",
        }
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Where in the program a diagnostic points. All fields are optional — a
/// rule fills in whichever coordinates it has (an array-level rule has no
/// statement, a bound-level rule has no reference).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Span {
    /// Statement containing the offending reference, if any.
    pub stmt: Option<StmtId>,
    /// Index of the reference within the statement's `refs`.
    pub ref_idx: Option<usize>,
    /// Subscript dimension within the reference.
    pub dim: Option<usize>,
    /// Loop index variable the diagnostic is about.
    pub loop_index: Option<Sym>,
    /// Array the diagnostic is about.
    pub array: Option<Sym>,
}

impl Span {
    /// Span pointing at a whole statement.
    pub fn stmt(id: StmtId) -> Self {
        Span {
            stmt: Some(id),
            ..Span::default()
        }
    }

    /// Span pointing at one subscript dimension of one reference.
    pub fn dim(stmt: StmtId, ref_idx: usize, dim: usize) -> Self {
        Span {
            stmt: Some(stmt),
            ref_idx: Some(ref_idx),
            dim: Some(dim),
            ..Span::default()
        }
    }

    /// Span pointing at a loop.
    pub fn loop_(index: Sym) -> Self {
        Span {
            loop_index: Some(index),
            ..Span::default()
        }
    }

    /// Span pointing at an array declaration.
    pub fn array(name: Sym) -> Self {
        Span {
            array: Some(name),
            ..Span::default()
        }
    }
}

impl std::fmt::Display for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut parts = Vec::new();
        if let Some(s) = self.stmt {
            parts.push(format!("S{}", s.0));
        }
        if let Some(r) = self.ref_idx {
            parts.push(format!("ref {r}"));
        }
        if let Some(d) = self.dim {
            parts.push(format!("dim {d}"));
        }
        if let Some(l) = &self.loop_index {
            parts.push(format!("loop `{l}`"));
        }
        if let Some(a) = &self.array {
            parts.push(format!("array `{a}`"));
        }
        if parts.is_empty() {
            f.write_str("<program>")
        } else {
            f.write_str(&parts.join(", "))
        }
    }
}

/// The exact transformation a fix-it proposes, in the form
/// [`sdlo_ir`]'s appliers consume. Present only when the proposal lies
/// inside the statement's perfect segment and is therefore
/// machine-applicable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FixTarget {
    /// Reorder the perfect segment around `stmt` to `order` (outermost
    /// first) via [`sdlo_ir::apply_permute`].
    Permute {
        /// Statement whose segment is reordered.
        stmt: StmtId,
        /// New loop order, outermost first.
        order: Vec<Sym>,
    },
    /// Strip-mine segment loops via [`sdlo_ir::apply_tile`].
    Tile {
        /// Statement whose segment is tiled.
        stmt: StmtId,
        /// `(loop index, tile-size symbol)` pairs.
        loops: Vec<(Sym, Sym)>,
    },
}

impl FixTarget {
    /// Statement the transform anchors on.
    pub fn stmt(&self) -> StmtId {
        match self {
            FixTarget::Permute { stmt, .. } | FixTarget::Tile { stmt, .. } => *stmt,
        }
    }

    /// Apply the transform, returning the rewritten program.
    pub fn apply(&self, program: &Program) -> Result<Program, sdlo_ir::ApplyError> {
        match self {
            FixTarget::Permute { stmt, order } => sdlo_ir::apply_permute(program, *stmt, order),
            FixTarget::Tile { stmt, loops } => sdlo_ir::apply_tile(program, *stmt, loops),
        }
    }
}

/// A machine-readable repair suggestion attached to a diagnostic.
///
/// Every fix-it carries a dependence-legality verdict from `sdlo-deps`:
/// `proven` fix-its are safe to auto-apply (and the test suite verifies
/// trace equivalence after applying them); `assumed` fix-its could not be
/// proven safe (conservative dependence directions, or a proposal outside
/// the statement's perfect segment); fix-its that would provably reverse a
/// dependence are never emitted — the `illegal-transform` rule reports the
/// suppression instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixIt {
    /// Stable action verb (`"permute-loops"`, `"tile-loop"`, …) a driver can
    /// dispatch on.
    pub action: &'static str,
    /// Human-readable instantiation of the action for this site.
    pub detail: String,
    /// Dependence-legality verdict for the proposed transform.
    pub legality: Legality,
    /// Machine-applicable payload, when the proposal is inside the perfect
    /// segment (absent ⇒ `legality` is at best `assumed`).
    pub target: Option<FixTarget>,
}

/// One finding of the linter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule id (kebab-case, see [`rules`]).
    pub rule: &'static str,
    /// Severity tier.
    pub severity: Severity,
    /// Source location.
    pub span: Span,
    /// Human-readable message.
    pub message: String,
    /// Optional structured repair suggestion.
    pub fixit: Option<FixIt>,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.rule, self.span, self.message
        )?;
        if let Some(fx) = &self.fixit {
            write!(f, " (fix[{}]: {})", fx.legality, fx.detail)?;
        }
        Ok(())
    }
}

/// What every rule of one lint reads: the program and the whole-program
/// analyses the rules share. The dependence graph and the miss model are
/// each computed on first use and then kept, so one lint builds each at
/// most once, and only once a rule past the structure gate asks for it.
pub struct LintContext<'p> {
    program: &'p Program,
    graph: OnceCell<DepGraph>,
    model: OnceCell<MissModel>,
}

impl<'p> LintContext<'p> {
    /// A context over `program` with nothing computed yet.
    fn new(program: &'p Program) -> Self {
        LintContext {
            program,
            graph: OnceCell::new(),
            model: OnceCell::new(),
        }
    }

    /// The program being linted.
    pub(crate) fn program(&self) -> &'p Program {
        self.program
    }

    /// The program's dependence graph. The program must pass
    /// [`Program::validate`].
    pub(crate) fn graph(&self) -> &DepGraph {
        self.graph.get_or_init(|| dependence_graph(self.program))
    }

    /// The program's miss model (its reuse components). The program must
    /// pass [`Program::validate`].
    pub(crate) fn model(&self) -> &MissModel {
        self.model.get_or_init(|| MissModel::build(self.program))
    }

    fn into_graph(self) -> DepGraph {
        self.graph
            .into_inner()
            .unwrap_or_else(|| dependence_graph(self.program))
    }
}

/// [`sdlo_deps::analyze`] under the `deps.graph` span.
fn dependence_graph(program: &Program) -> DepGraph {
    let _span = sdlo_core::trace::span("deps.graph");
    sdlo_deps::analyze(program)
}

/// A lint rule: a named, documented check over a whole program.
///
/// Rules observe the program only through the shared [`sdlo_ir`] API and the
/// analyses of the [`LintContext`], and push any findings into `out`; the
/// [`Linter`] owns ordering and gating.
pub trait Rule {
    /// Stable kebab-case identifier reported in [`Diagnostic::rule`].
    fn id(&self) -> &'static str;
    /// One-line description for the rule catalog.
    fn description(&self) -> &'static str;
    /// The severity tier(s) this rule emits at, as the documented label
    /// (`"error"`, `"warning"`, `"info"`, or `"error/warning"` for mixed
    /// rules). The doc-sync test checks this against the README catalog.
    fn severity_label(&self) -> &'static str;
    /// Run the rule over the context's program. The program has passed
    /// [`Program::validate`] (the [`rules::STRUCTURE`] rule gates on it)
    /// unless this *is* the structure rule, which must not touch the
    /// context's graph or model. Rules read the dependence graph and the
    /// miss model through `cx`, never by computing their own.
    fn check(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>);
}

/// The rule registry: an ordered collection of [`Rule`]s with the structure
/// (validation) rule first as a gate.
pub struct Linter {
    rules: Vec<Box<dyn Rule>>,
}

impl Default for Linter {
    fn default() -> Self {
        Linter::new()
    }
}

impl Linter {
    /// Registry with the full built-in rule set (see [`rules::all`]).
    pub fn new() -> Self {
        Linter {
            rules: rules::all(),
        }
    }

    /// `(id, severity label, description)` of every registered rule, in
    /// execution order.
    pub fn catalog(&self) -> Vec<(&'static str, &'static str, &'static str)> {
        self.rules
            .iter()
            .map(|r| (r.id(), r.severity_label(), r.description()))
            .collect()
    }

    /// Run every rule over `program`, all reading one [`LintContext`].
    ///
    /// The first rule (structure/validation) gates: if it reports anything,
    /// its diagnostics are returned alone, with no graph, because the
    /// remaining rules assume a structurally valid tree. Diagnostics are
    /// sorted by severity, then statement, then rule id.
    pub fn report(&self, program: &Program) -> Report {
        let cx = LintContext::new(program);
        let mut out = Vec::new();
        for (k, rule) in self.rules.iter().enumerate() {
            rule.check(&cx, &mut out);
            if k == 0 && !out.is_empty() {
                return Report {
                    diagnostics: out,
                    graph: None,
                };
            }
        }
        out.sort_by(|a, b| {
            (a.severity, a.span.stmt, a.rule).cmp(&(b.severity, b.span.stmt, b.rule))
        });
        Report {
            diagnostics: out,
            graph: Some(cx.into_graph()),
        }
    }
}

/// One lint's findings and the dependence graph its rules read.
#[derive(Debug)]
pub struct Report {
    /// The diagnostics, in [`Linter::report`] order.
    pub diagnostics: Vec<Diagnostic>,
    /// The program's dependence graph, `None` when the structure gate
    /// rejected the program.
    pub graph: Option<DepGraph>,
}

/// Lint with the default registry.
pub fn lint(program: &Program) -> Vec<Diagnostic> {
    report(program).diagnostics
}

/// Lint with the default registry, keeping the dependence graph.
pub fn report(program: &Program) -> Report {
    Linter::new().report(program)
}

/// Count of diagnostics at each severity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeverityCounts {
    /// Number of `error` diagnostics.
    pub errors: usize,
    /// Number of `warning` diagnostics.
    pub warnings: usize,
    /// Number of `info` diagnostics.
    pub infos: usize,
}

impl SeverityCounts {
    /// Tally a diagnostic list.
    pub fn of(diags: &[Diagnostic]) -> Self {
        let mut c = SeverityCounts::default();
        for d in diags {
            match d.severity {
                Severity::Error => c.errors += 1,
                Severity::Warning => c.warnings += 1,
                Severity::Info => c.infos += 1,
            }
        }
        c
    }
}

/// Human-readable report: one line per diagnostic plus a summary trailer.
pub fn render_report(program: &Program, diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&format!("{}: {d}\n", program.name));
    }
    let c = SeverityCounts::of(diags);
    out.push_str(&format!(
        "{}: {} error(s), {} warning(s), {} info(s)\n",
        program.name, c.errors, c.warnings, c.infos
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdlo_ir::programs;

    #[test]
    fn severity_orders_errors_first() {
        assert!(Severity::Error < Severity::Warning);
        assert!(Severity::Warning < Severity::Info);
    }

    #[test]
    fn catalog_has_at_least_eight_rules() {
        let l = Linter::new();
        let cat = l.catalog();
        assert!(cat.len() >= 8, "only {} rules registered", cat.len());
        // Ids are unique and kebab-case.
        let mut ids: Vec<_> = cat.iter().map(|(id, _, _)| *id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), cat.len());
        for (id, sev, desc) in &cat {
            assert!(id.chars().all(|c| c.is_ascii_lowercase() || c == '-'));
            assert!(!desc.is_empty());
            assert!(
                ["error", "warning", "info", "error/warning"].contains(sev),
                "{id}: bad severity label {sev}"
            );
        }
    }

    #[test]
    fn report_renders_summary() {
        let p = programs::matmul();
        let diags = lint(&p);
        let text = render_report(&p, &diags);
        assert!(text.contains("matmul:"));
        assert!(text.contains("0 error(s)"));
    }
}
