//! The built-in rule set.
//!
//! | id | severity | checks |
//! |----|----------|--------|
//! | `structure`          | error | [`Program::validate`] (gating) |
//! | `subscript-class`    | error | every subscript is scalar, plain index, or one tile+intra pair |
//! | `tile-consistency`   | error | tile strides agree with intra-loop bounds and across references |
//! | `bound-sanity`       | error/warning | bounds positive and rectangular; no unused loop index |
//! | `model-class`        | error | no repeated indices per reference, no index-dependent strides |
//! | `invariant-ref`      | info | references missing surrounding indices + induced component kind |
//! | `stride-innermost`   | warning | innermost loop absent from fastest-varying dimension (fix-it: permute, legality-vetted) |
//! | `untiled-reuse`      | warning | carried reuse whose stack distance grows with problem size (fix-it: tile, legality-vetted) |
//! | `illegal-transform`  | warning | proposed permute/tile fix-its that would reverse a dependence (suppressed) |
//! | `loop-carried-dep`   | info | loops carrying flow/anti/output dependences, with counts |
//! | `parallelizable-loop`| info | loops carrying no dependence: iterations safe to run in parallel |
//! | `dead-array`         | warning | arrays never referenced or written but never read |

use crate::{Diagnostic, FixIt, FixTarget, LintContext, Rule, Severity, Span};
use sdlo_core::{ComponentKind, StackDistance};
use sdlo_deps::{DepGraph, DepKind, Legality};
use sdlo_ir::{perfect_segment, DimExpr, Expr, LoopNode, Node, Program, Stmt, StmtId, Sym};
use std::collections::{BTreeMap, BTreeSet};

/// Rule id of the gating structural-validation rule.
pub const STRUCTURE: &str = "structure";

/// All built-in rules in execution order ([`STRUCTURE`] first — it gates).
pub fn all() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(Structure),
        Box::new(SubscriptClass),
        Box::new(TileConsistency),
        Box::new(BoundSanity),
        Box::new(ModelClass),
        Box::new(InvariantRef),
        Box::new(StrideInnermost),
        Box::new(UntiledReuse),
        Box::new(IllegalTransform),
        Box::new(LoopCarriedDep),
        Box::new(ParallelizableLoop),
        Box::new(DeadArray),
    ]
}

/// Visit every statement together with its enclosing loops, outermost first.
fn for_each_stmt_with_loops<'p>(
    program: &'p Program,
    f: &mut impl FnMut(&'p Stmt, &[&'p LoopNode]),
) {
    fn walk<'p>(
        node: &'p Node,
        loops: &mut Vec<&'p LoopNode>,
        f: &mut impl FnMut(&'p Stmt, &[&'p LoopNode]),
    ) {
        match node {
            Node::Loop(l) => {
                loops.push(l);
                for n in &l.body {
                    walk(n, loops, f);
                }
                loops.pop();
            }
            Node::Stmt(s) => f(s, loops),
        }
    }
    let mut loops = Vec::new();
    for n in &program.root {
        walk(n, &mut loops, f);
    }
}

/// Visit every loop together with its enclosing loops, outermost first
/// (the visited loop is *not* in the slice).
fn for_each_loop<'p>(program: &'p Program, f: &mut impl FnMut(&'p LoopNode, &[&'p LoopNode])) {
    fn walk<'p>(
        node: &'p Node,
        loops: &mut Vec<&'p LoopNode>,
        f: &mut impl FnMut(&'p LoopNode, &[&'p LoopNode]),
    ) {
        if let Node::Loop(l) = node {
            f(l, loops);
            loops.push(l);
            for n in &l.body {
                walk(n, loops, f);
            }
            loops.pop();
        }
    }
    let mut loops = Vec::new();
    for n in &program.root {
        walk(n, &mut loops, f);
    }
}

/// Every loop index bound anywhere in the program.
fn all_loop_indices(program: &Program) -> BTreeSet<Sym> {
    let mut out = BTreeSet::new();
    for_each_loop(program, &mut |l, _| {
        out.insert(l.index.clone());
    });
    out
}

/// One `(index, stride)` term of a subscript.
type Part = (Sym, Expr);

/// Split a two-part dimension into `(tile part, intra part)` if it has the
/// class shape: exactly one stride-1 part and one non-unit-stride part.
fn tile_intra(dim: &DimExpr) -> Option<(&Part, &Part)> {
    if dim.parts.len() != 2 {
        return None;
    }
    let unit = |p: &Part| p.1.as_const() == Some(1);
    match (unit(&dim.parts[0]), unit(&dim.parts[1])) {
        (false, true) => Some((&dim.parts[0], &dim.parts[1])),
        (true, false) => Some((&dim.parts[1], &dim.parts[0])),
        _ => None,
    }
}

/// `structure` — [`Program::validate`] folded into the framework as its
/// error tier. Runs first and gates the remaining rules.
pub struct Structure;

impl Rule for Structure {
    fn id(&self) -> &'static str {
        STRUCTURE
    }

    fn description(&self) -> &'static str {
        "structural validity (Program::validate): bound indices, arities, numbering"
    }

    fn severity_label(&self) -> &'static str {
        "error"
    }

    fn check(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        use sdlo_ir::ValidateError as V;
        if let Err(e) = cx.program().validate() {
            let span = match &e {
                V::DuplicateArray { name } | V::ZeroDimArray { name } => Span::array(name.clone()),
                V::UnboundIndex { stmt, index } => Span {
                    stmt: Some(*stmt),
                    loop_index: Some(index.clone()),
                    ..Span::default()
                },
                V::DuplicateIndex { index } => Span::loop_(index.clone()),
                V::DimMismatch { stmt, array, .. } => Span {
                    stmt: Some(*stmt),
                    array: Some(array.clone()),
                    ..Span::default()
                },
                V::RefCount { stmt, .. } => Span::stmt(*stmt),
                V::BadStmtNumbering { .. } => Span::default(),
            };
            out.push(Diagnostic {
                rule: self.id(),
                severity: Severity::Error,
                span,
                message: e.to_string(),
                fixit: None,
            });
        }
    }
}

/// `subscript-class` — every subscript dimension must be a scalar (no
/// parts), a plain stride-1 index, or a tile+intra pair; anything else
/// (diagonal sums, 3+ indices, lone strided indices) is outside the class
/// the stack-distance model analyzes.
pub struct SubscriptClass;

impl Rule for SubscriptClass {
    fn id(&self) -> &'static str {
        "subscript-class"
    }

    fn description(&self) -> &'static str {
        "subscripts are scalar, plain stride-1 indices, or one tile+intra pair"
    }

    fn severity_label(&self) -> &'static str {
        "error"
    }

    fn check(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let program = cx.program();
        for_each_stmt_with_loops(program, &mut |s, _| {
            for (ri, r) in s.refs.iter().enumerate() {
                let name = &program.array(r.array).name;
                for (di, d) in r.dims.iter().enumerate() {
                    let problem = match d.parts.as_slice() {
                        [] => None,
                        [(_, stride)] if stride.as_const() == Some(1) => None,
                        [(idx, stride)] => Some(format!(
                            "single-index subscript `{idx}` has stride `{stride}`; \
                             a lone index must have stride 1"
                        )),
                        [_, _] => tile_intra(d).map_or_else(
                            || {
                                let (a, b) = (&d.parts[0], &d.parts[1]);
                                Some(format!(
                                    "two-index subscript `{}*{} + {}*{}` is not a tile+intra \
                                     pair (need exactly one stride-1 intra index and one \
                                     non-unit tile stride)",
                                    a.0, a.1, b.0, b.1
                                ))
                            },
                            |_| None,
                        ),
                        parts => Some(format!(
                            "subscript combines {} loop indices; at most a tile+intra \
                             pair is analyzable",
                            parts.len()
                        )),
                    };
                    if let Some(message) = problem {
                        out.push(Diagnostic {
                            rule: self.id(),
                            severity: Severity::Error,
                            span: Span {
                                array: Some(name.clone()),
                                ..Span::dim(s.id, ri, di)
                            },
                            message,
                            fixit: None,
                        });
                    }
                }
            }
        });
    }
}

/// `tile-consistency` — the tile stride of a tiled subscript must equal the
/// trip count of its intra loop (the intra loop sweeps exactly one tile),
/// and a tile loop must be used with the same stride everywhere.
pub struct TileConsistency;

impl Rule for TileConsistency {
    fn id(&self) -> &'static str {
        "tile-consistency"
    }

    fn description(&self) -> &'static str {
        "tile strides match intra-loop bounds and agree across references"
    }

    fn severity_label(&self) -> &'static str {
        "error"
    }

    fn check(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let program = cx.program();
        let mut strides: BTreeMap<Sym, (Expr, Span)> = BTreeMap::new();
        for_each_stmt_with_loops(program, &mut |s, loops| {
            for (ri, r) in s.refs.iter().enumerate() {
                for (di, d) in r.dims.iter().enumerate() {
                    let Some(((tile_idx, stride), (intra_idx, _))) = tile_intra(d) else {
                        continue;
                    };
                    let span = Span {
                        loop_index: Some(tile_idx.clone()),
                        ..Span::dim(s.id, ri, di)
                    };
                    if let Some(intra) = loops.iter().find(|l| &l.index == intra_idx) {
                        if &intra.bound != stride {
                            out.push(Diagnostic {
                                rule: self.id(),
                                severity: Severity::Error,
                                span: span.clone(),
                                message: format!(
                                    "tile stride `{stride}` of `{tile_idx}` disagrees with \
                                     intra loop `{intra_idx}`'s trip count `{}`",
                                    intra.bound
                                ),
                                fixit: None,
                            });
                        }
                    }
                    match strides.get(tile_idx) {
                        None => {
                            strides.insert(tile_idx.clone(), (stride.clone(), span));
                        }
                        Some((prev, first_span)) if prev != stride => {
                            out.push(Diagnostic {
                                rule: self.id(),
                                severity: Severity::Error,
                                span,
                                message: format!(
                                    "tile loop `{tile_idx}` used with stride `{stride}` here \
                                     but stride `{prev}` at {first_span}"
                                ),
                                fixit: None,
                            });
                        }
                        Some(_) => {}
                    }
                }
            }
        });
    }
}

/// `bound-sanity` — trip counts must be positive and independent of
/// enclosing loop indices (rectangular spaces); a loop whose index is never
/// used by any subscript in its body is flagged as suspect.
pub struct BoundSanity;

impl Rule for BoundSanity {
    fn id(&self) -> &'static str {
        "bound-sanity"
    }

    fn description(&self) -> &'static str {
        "positive rectangular trip counts; every loop index used in its body"
    }

    fn severity_label(&self) -> &'static str {
        "error/warning"
    }

    fn check(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let program = cx.program();
        for_each_loop(program, &mut |l, enclosing| {
            if let Some(c) = l.bound.as_const() {
                if c <= 0 {
                    out.push(Diagnostic {
                        rule: self.id(),
                        severity: Severity::Error,
                        span: Span::loop_(l.index.clone()),
                        message: format!(
                            "loop `{}` has non-positive constant trip count {c}",
                            l.index
                        ),
                        fixit: None,
                    });
                }
            }
            for enc in enclosing.iter().chain(std::iter::once(&l)) {
                if l.bound.involves(&enc.index) {
                    out.push(Diagnostic {
                        rule: self.id(),
                        severity: Severity::Error,
                        span: Span::loop_(l.index.clone()),
                        message: format!(
                            "bound `{}` of loop `{}` depends on loop index `{}`; \
                             only rectangular iteration spaces are analyzable",
                            l.bound, l.index, enc.index
                        ),
                        fixit: None,
                    });
                }
            }
            let mut used = false;
            let mut count = 0usize;
            for n in &l.body {
                n.for_each_stmt(&mut |s| {
                    count += 1;
                    used = used || s.refs.iter().any(|r| r.appears(&l.index));
                });
            }
            if count > 0 && !used {
                out.push(Diagnostic {
                    rule: self.id(),
                    severity: Severity::Warning,
                    span: Span::loop_(l.index.clone()),
                    message: format!(
                        "loop index `{}` is used by no subscript in its body: every \
                         iteration repeats the same accesses",
                        l.index
                    ),
                    fixit: None,
                });
            }
        });
    }
}

/// `model-class` — subscript patterns the stack-distance partition is
/// unsound for even though they pass structural validation: one loop index
/// driving several dimensions (coupled subscripts like `A[i,i]`) and strides
/// that vary with a loop index.
pub struct ModelClass;

impl Rule for ModelClass {
    fn id(&self) -> &'static str {
        "model-class"
    }

    fn description(&self) -> &'static str {
        "no coupled subscripts, no iteration-dependent strides"
    }

    fn severity_label(&self) -> &'static str {
        "error"
    }

    fn check(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let program = cx.program();
        let loop_indices = all_loop_indices(program);
        for_each_stmt_with_loops(program, &mut |s, _| {
            for (ri, r) in s.refs.iter().enumerate() {
                let name = &program.array(r.array).name;
                let mut seen: BTreeMap<&Sym, usize> = BTreeMap::new();
                for (di, d) in r.dims.iter().enumerate() {
                    let mut in_dim: BTreeSet<&Sym> = BTreeSet::new();
                    for (idx, stride) in &d.parts {
                        if !in_dim.insert(idx) {
                            out.push(Diagnostic {
                                rule: self.id(),
                                severity: Severity::Error,
                                span: Span {
                                    array: Some(name.clone()),
                                    ..Span::dim(s.id, ri, di)
                                },
                                message: format!(
                                    "index `{idx}` contributes twice to one subscript of \
                                     `{name}`; accesses alias within the dimension"
                                ),
                                fixit: None,
                            });
                        }
                        if let Some(first) = seen.get(idx) {
                            if *first != di {
                                out.push(Diagnostic {
                                    rule: self.id(),
                                    severity: Severity::Error,
                                    span: Span {
                                        array: Some(name.clone()),
                                        loop_index: Some(idx.clone()),
                                        ..Span::dim(s.id, ri, di)
                                    },
                                    message: format!(
                                        "index `{idx}` drives dimensions {first} and {di} of \
                                         `{name}` (coupled subscript): distinct-element counts \
                                         assume independent dimensions"
                                    ),
                                    fixit: None,
                                });
                            }
                        } else {
                            seen.insert(idx, di);
                        }
                        for v in stride.vars() {
                            if loop_indices.contains(&v) {
                                out.push(Diagnostic {
                                    rule: self.id(),
                                    severity: Severity::Error,
                                    span: Span {
                                        array: Some(name.clone()),
                                        loop_index: Some(v.clone()),
                                        ..Span::dim(s.id, ri, di)
                                    },
                                    message: format!(
                                        "stride `{stride}` of `{idx}` varies with loop index \
                                         `{v}`; strides must be iteration-invariant"
                                    ),
                                    fixit: None,
                                });
                            }
                        }
                    }
                }
            }
        });
    }
}

/// `invariant-ref` — a reference missing one or more surrounding loop
/// indices is the paper's non-constant-dependence trigger: its reuse is
/// carried by the absent loops (or crosses statements). Reported at `info`
/// with the component kinds the partition actually assigns.
pub struct InvariantRef;

impl Rule for InvariantRef {
    fn id(&self) -> &'static str {
        "invariant-ref"
    }

    fn description(&self) -> &'static str {
        "references missing surrounding indices, with their induced reuse components"
    }

    fn severity_label(&self) -> &'static str {
        "info"
    }

    fn check(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let program = cx.program();
        for_each_stmt_with_loops(program, &mut |s, loops| {
            for (ri, r) in s.refs.iter().enumerate() {
                let missing: Vec<&Sym> = loops
                    .iter()
                    .map(|l| &l.index)
                    .filter(|idx| !r.appears(idx))
                    .collect();
                if missing.is_empty() {
                    continue;
                }
                let kinds: Vec<String> = cx
                    .model()
                    .components()
                    .iter()
                    .filter(|c| c.stmt == s.id && c.ref_idx == ri)
                    .map(|c| match &c.kind {
                        ComponentKind::Compulsory => "Compulsory".to_string(),
                        ComponentKind::Carried { loop_index, .. } => {
                            format!("Carried({loop_index})")
                        }
                        ComponentKind::CrossStmt { source_stmt } => {
                            format!("CrossStmt(from S{})", source_stmt.0)
                        }
                    })
                    .collect();
                let name = &program.array(r.array).name;
                let missing: Vec<String> = missing.iter().map(|m| format!("`{m}`")).collect();
                out.push(Diagnostic {
                    rule: self.id(),
                    severity: Severity::Info,
                    span: Span {
                        stmt: Some(s.id),
                        ref_idx: Some(ri),
                        array: Some(name.clone()),
                        ..Span::default()
                    },
                    message: format!(
                        "`{name}` is invariant in loop(s) {}: reuse components [{}]",
                        missing.join(", "),
                        kinds.join(", ")
                    ),
                    fixit: None,
                });
            }
        });
    }
}

/// A reference site where the innermost loop strides a slow dimension —
/// the trigger for `stride-innermost` and half the input of
/// `illegal-transform`.
struct PermuteSite {
    stmt: StmtId,
    ref_idx: usize,
    slow_dim: usize,
    array: Sym,
    inner: Sym,
    fast: Vec<Sym>,
}

/// All `stride-innermost` trigger sites of the program.
fn permute_sites(program: &Program) -> Vec<PermuteSite> {
    let mut sites = Vec::new();
    for_each_stmt_with_loops(program, &mut |s, loops| {
        let Some(inner) = loops.last() else { return };
        for (ri, r) in s.refs.iter().enumerate() {
            if r.dims.len() < 2 || !r.appears(&inner.index) {
                continue;
            }
            let last = r.dims.last().expect("len >= 2");
            if last.uses(&inner.index) {
                continue;
            }
            let slow_dim = r
                .dims
                .iter()
                .position(|d| d.uses(&inner.index))
                .expect("appears implies some dim uses it");
            sites.push(PermuteSite {
                stmt: s.id,
                ref_idx: ri,
                slow_dim,
                array: program.array(r.array).name.clone(),
                inner: inner.index.clone(),
                fast: last.indices().cloned().collect(),
            });
        }
    });
    sites
}

/// Verdict of vetting one proposed transform against the dependence graph.
enum Vetted {
    /// Emit the fix-it: verdict plus, when applicable, the applier payload
    /// and the concrete choice made (innermost loop / tile-size symbol).
    Emit {
        legality: Legality,
        chosen: Option<(Sym, FixTarget)>,
    },
    /// Every candidate provably reverses a dependence — suppress the
    /// fix-it; `illegal-transform` reports it.
    Suppressed,
}

/// Pick a legal loop order placing one of `site.fast` innermost: the first
/// `proven` candidate wins, else the first `assumed`; if every in-segment
/// candidate is illegal the fix-it is suppressed. Fast indices outside the
/// statement's perfect segment cannot be vetted or applied → `assumed`
/// with no payload.
fn vet_permute(program: &Program, graph: &DepGraph, site: &PermuteSite) -> Vetted {
    let Some(seg) = perfect_segment(program, site.stmt) else {
        return Vetted::Emit {
            legality: Legality::Assumed,
            chosen: None,
        };
    };
    let in_seg: Vec<&Sym> = site.fast.iter().filter(|f| seg.contains(f)).collect();
    if in_seg.is_empty() {
        return Vetted::Emit {
            legality: Legality::Assumed,
            chosen: None,
        };
    }
    let mut fallback: Option<(Sym, FixTarget)> = None;
    let mut any_vetted = false;
    for f in in_seg {
        let mut order: Vec<Sym> = seg.iter().filter(|x| *x != f).cloned().collect();
        order.push(f.clone());
        let target = FixTarget::Permute {
            stmt: site.stmt,
            order: order.clone(),
        };
        match graph.permutation_legality(program, site.stmt, &order) {
            Ok(Legality::Proven) => {
                return Vetted::Emit {
                    legality: Legality::Proven,
                    chosen: Some((f.clone(), target)),
                };
            }
            Ok(Legality::Assumed) => {
                any_vetted = true;
                if fallback.is_none() {
                    fallback = Some((f.clone(), target));
                }
            }
            Ok(Legality::Illegal) => any_vetted = true,
            Err(_) => {}
        }
    }
    match fallback {
        Some(chosen) => Vetted::Emit {
            legality: Legality::Assumed,
            chosen: Some(chosen),
        },
        None if any_vetted => Vetted::Suppressed,
        None => Vetted::Emit {
            legality: Legality::Assumed,
            chosen: None,
        },
    }
}

/// Names a generated symbol must avoid: loop indices, free symbols, arrays.
fn taken_names(program: &Program) -> BTreeSet<Sym> {
    let mut taken = program.free_symbols();
    for_each_loop(program, &mut |l, _| {
        taken.insert(l.index.clone());
    });
    for a in &program.arrays {
        taken.insert(a.name.clone());
    }
    taken
}

/// A fresh tile-size symbol for tiling `loop_index`: `T<loop>`, suffixed
/// with a counter if taken.
fn fresh_tile_sym(taken: &BTreeSet<Sym>, loop_index: &Sym) -> Sym {
    let base = format!("T{loop_index}");
    let mut candidate = Sym::new(base.clone());
    let mut n = 2usize;
    while taken.contains(&candidate) {
        candidate = Sym::new(format!("{base}{n}"));
        n += 1;
    }
    candidate
}

/// Vet tiling `loop_index` for the statement owning a carried-reuse
/// component. Applicable only when the loop lies in the statement's perfect
/// segment and the generated `xT`/`xI` names are fresh.
fn vet_tile(program: &Program, graph: &DepGraph, stmt: StmtId, loop_index: &Sym) -> Vetted {
    let assumed = Vetted::Emit {
        legality: Legality::Assumed,
        chosen: None,
    };
    let Some(seg) = perfect_segment(program, stmt) else {
        return assumed;
    };
    if !seg.contains(loop_index) {
        return assumed;
    }
    let taken = taken_names(program);
    if taken.contains(&Sym::new(format!("{loop_index}T")))
        || taken.contains(&Sym::new(format!("{loop_index}I")))
    {
        return assumed;
    }
    // Tiling stays in the analyzable class only while every subscript use
    // of the loop is a plain stride-1 index: re-tiling the intra loop of an
    // existing tile+intra pair would put three indices in one dimension.
    let mut plain = true;
    program.for_each_stmt(|s| {
        for r in &s.refs {
            for d in &r.dims {
                if d.uses(loop_index) && d.parts.len() != 1 {
                    plain = false;
                }
            }
        }
    });
    if !plain {
        return assumed;
    }
    match graph.tiling_legality(program, stmt, std::slice::from_ref(loop_index)) {
        Ok(Legality::Illegal) => Vetted::Suppressed,
        Ok(legality) => {
            let t = fresh_tile_sym(&taken, loop_index);
            Vetted::Emit {
                legality,
                chosen: Some((
                    t.clone(),
                    FixTarget::Tile {
                        stmt,
                        loops: vec![(loop_index.clone(), t)],
                    },
                )),
            }
        }
        Err(_) => assumed,
    }
}

/// `stride-innermost` — the innermost loop of a statement appears in a
/// reference but not in its fastest-varying (last) dimension: consecutive
/// iterations jump by at least a whole row. Fix-it: permute the nest to a
/// dependence-vetted order.
pub struct StrideInnermost;

impl Rule for StrideInnermost {
    fn id(&self) -> &'static str {
        "stride-innermost"
    }

    fn description(&self) -> &'static str {
        "innermost loop indexes the fastest-varying dimension of each reference"
    }

    fn severity_label(&self) -> &'static str {
        "warning"
    }

    fn check(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let program = cx.program();
        for site in permute_sites(program) {
            let Vetted::Emit { legality, chosen } = vet_permute(program, cx.graph(), &site) else {
                continue; // suppressed; `illegal-transform` reports it
            };
            let name = &site.array;
            let (detail, target) = match chosen {
                Some((f, target)) => (
                    format!(
                        "permute the nest of S{} so `{f}` runs innermost instead of `{}`",
                        site.stmt.0, site.inner
                    ),
                    Some(target),
                ),
                None => {
                    let fast: Vec<String> = site.fast.iter().map(|i| format!("`{i}`")).collect();
                    (
                        format!(
                            "permute the nest of S{} so one of {} is innermost instead of `{}`",
                            site.stmt.0,
                            fast.join("/"),
                            site.inner
                        ),
                        None,
                    )
                }
            };
            out.push(Diagnostic {
                rule: self.id(),
                severity: Severity::Warning,
                span: Span {
                    array: Some(name.clone()),
                    loop_index: Some(site.inner.clone()),
                    ..Span::dim(site.stmt, site.ref_idx, site.slow_dim)
                },
                message: format!(
                    "innermost loop `{}` strides dimension {} of `{name}`, not \
                     its fastest-varying dimension: consecutive iterations are at least \
                     a row apart",
                    site.inner, site.slow_dim
                ),
                fixit: Some(FixIt {
                    action: "permute-loops",
                    detail,
                    legality,
                    target,
                }),
            });
        }
    }
}

/// `untiled-reuse` — a reuse component carried by an untiled loop whose
/// symbolic stack distance grows with a problem-size symbol: for large
/// enough bounds the reuse falls out of any fixed cache. Fix-it: tile the
/// carrying loop. Derived from the same [`sdlo_core::MissModel`] components
/// the miss predictor evaluates.
pub struct UntiledReuse;

impl UntiledReuse {
    /// Whether `e` has a positively weighted term involving a symbol outside
    /// `tile_syms` — i.e. grows without bound as the problem scales while
    /// tile sizes stay fixed.
    fn grows(e: &Expr, tile_syms: &BTreeSet<Sym>) -> bool {
        e.terms().iter().any(|t| {
            t.coeff > 0
                && Expr::from_terms(vec![t.clone()])
                    .vars()
                    .iter()
                    .any(|v| !tile_syms.contains(v))
        })
    }
}

impl Rule for UntiledReuse {
    fn id(&self) -> &'static str {
        "untiled-reuse"
    }

    fn description(&self) -> &'static str {
        "carried reuse with problem-size stack distance on an untiled loop"
    }

    fn severity_label(&self) -> &'static str {
        "warning"
    }

    fn check(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let program = cx.program();
        // Tile sizes (non-unit stride symbols) are controllable knobs; a
        // distance made only of them is bounded by construction. Loops
        // already acting as tile loops carry whole-working-set reuse by
        // design and are not re-flagged.
        let mut tile_syms: BTreeSet<Sym> = BTreeSet::new();
        let mut tile_loops: BTreeSet<Sym> = BTreeSet::new();
        program.for_each_stmt(|s| {
            for r in &s.refs {
                for d in &r.dims {
                    for (idx, stride) in &d.parts {
                        if stride.as_const() != Some(1) {
                            tile_loops.insert(idx.clone());
                            for v in stride.vars() {
                                tile_syms.insert(v);
                            }
                        }
                    }
                }
            }
        });
        for c in cx.model().components() {
            let ComponentKind::Carried { loop_index, .. } = &c.kind else {
                continue;
            };
            if tile_loops.contains(loop_index) {
                continue;
            }
            let unbounded = match &c.distance {
                StackDistance::Infinite => false,
                StackDistance::Constant(e) => Self::grows(e, &tile_syms),
                StackDistance::Varying { lo, hi } => {
                    Self::grows(lo, &tile_syms) && Self::grows(hi, &tile_syms)
                }
            };
            if !unbounded {
                continue;
            }
            let name = &program.array(c.array).name;
            let Vetted::Emit { legality, chosen } =
                vet_tile(program, cx.graph(), c.stmt, loop_index)
            else {
                continue; // suppressed; `illegal-transform` reports it
            };
            let detail = match &chosen {
                Some((t, _)) => format!(
                    "tile loop `{loop_index}` with fresh tile size `{t}` (split into \
                     `{loop_index}T`/`{loop_index}I`) so the reuse of `{name}` spans one \
                     tile instead of the full extent"
                ),
                None => format!(
                    "tile loop `{loop_index}` (split into tile+intra loops) so the \
                     reuse of `{name}` spans one tile instead of the full extent"
                ),
            };
            out.push(Diagnostic {
                rule: self.id(),
                severity: Severity::Warning,
                span: Span {
                    stmt: Some(c.stmt),
                    ref_idx: Some(c.ref_idx),
                    loop_index: Some(loop_index.clone()),
                    array: Some(name.clone()),
                    ..Span::default()
                },
                message: format!(
                    "reuse of `{name}` carried by loop `{loop_index}` has stack distance \
                     {} growing with problem size: capacity misses for large bounds",
                    c.distance
                ),
                fixit: Some(FixIt {
                    action: "tile-loop",
                    detail,
                    legality,
                    target: chosen.map(|(_, target)| target),
                }),
            });
        }
    }
}

/// `illegal-transform` — a locality fix-it the other rules would have
/// proposed provably reverses a data dependence; the fix-it is suppressed
/// and the reason surfaced here instead of silently vanishing.
pub struct IllegalTransform;

impl Rule for IllegalTransform {
    fn id(&self) -> &'static str {
        "illegal-transform"
    }

    fn description(&self) -> &'static str {
        "a locality fix-it was suppressed because it reverses a dependence"
    }

    fn severity_label(&self) -> &'static str {
        "warning"
    }

    fn check(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let program = cx.program();
        for site in permute_sites(program) {
            if !matches!(vet_permute(program, cx.graph(), &site), Vetted::Suppressed) {
                continue;
            }
            let fast: Vec<String> = site.fast.iter().map(|i| format!("`{i}`")).collect();
            out.push(Diagnostic {
                rule: self.id(),
                severity: Severity::Warning,
                span: Span {
                    array: Some(site.array.clone()),
                    loop_index: Some(site.inner.clone()),
                    ..Span::dim(site.stmt, site.ref_idx, site.slow_dim)
                },
                message: format!(
                    "permuting the nest of S{} to run {} innermost would reverse a data \
                     dependence; the stride-innermost fix-it was suppressed",
                    site.stmt.0,
                    fast.join("/")
                ),
                fixit: None,
            });
        }
        let mut seen: BTreeSet<(StmtId, Sym)> = BTreeSet::new();
        for c in cx.model().components() {
            let ComponentKind::Carried { loop_index, .. } = &c.kind else {
                continue;
            };
            if !seen.insert((c.stmt, loop_index.clone())) {
                continue;
            }
            if !matches!(
                vet_tile(program, cx.graph(), c.stmt, loop_index),
                Vetted::Suppressed
            ) {
                continue;
            }
            out.push(Diagnostic {
                rule: self.id(),
                severity: Severity::Warning,
                span: Span {
                    stmt: Some(c.stmt),
                    loop_index: Some(loop_index.clone()),
                    ..Span::default()
                },
                message: format!(
                    "tiling loop `{loop_index}` around S{} would reverse a data \
                     dependence; the untiled-reuse fix-it was suppressed",
                    c.stmt.0
                ),
                fixit: None,
            });
        }
    }
}

/// `loop-carried-dep` — informational inventory of the loops that carry
/// dependences, with a flow/anti/output breakdown. A loop that carries a
/// dependence orders its iterations and bounds both parallelization and
/// the transforms the legality checks will admit.
pub struct LoopCarriedDep;

impl Rule for LoopCarriedDep {
    fn id(&self) -> &'static str {
        "loop-carried-dep"
    }

    fn description(&self) -> &'static str {
        "loops carrying flow/anti/output dependences are inventoried"
    }

    fn severity_label(&self) -> &'static str {
        "info"
    }

    fn check(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let graph = cx.graph();
        // (loop name, [flow, anti, output] counts) in program loop order.
        let mut counts: BTreeMap<Sym, [usize; 3]> = BTreeMap::new();
        for info in graph.loops() {
            for d in graph.carried_by(info.id) {
                let slot = match d.kind {
                    DepKind::Flow => 0,
                    DepKind::Anti => 1,
                    DepKind::Output => 2,
                };
                counts.entry(info.index.clone()).or_default()[slot] += 1;
            }
        }
        for (index, [flow, anti, output]) in counts {
            let mut parts = Vec::new();
            for (n, label) in [(flow, "flow"), (anti, "anti"), (output, "output")] {
                if n > 0 {
                    parts.push(format!("{n} {label}"));
                }
            }
            out.push(Diagnostic {
                rule: self.id(),
                severity: Severity::Info,
                span: Span::loop_(index.clone()),
                message: format!(
                    "loop `{index}` carries {} dependence(s): its iterations must run \
                     in order",
                    parts.join(" + ")
                ),
                fixit: None,
            });
        }
    }
}

/// `parallelizable-loop` — loops that carry no dependence at all: every
/// iteration is independent and the loop can run in parallel (the shared
/// memory multiprocessor case the paper targets).
pub struct ParallelizableLoop;

impl Rule for ParallelizableLoop {
    fn id(&self) -> &'static str {
        "parallelizable-loop"
    }

    fn description(&self) -> &'static str {
        "loops carrying no dependence are flagged as parallelizable"
    }

    fn severity_label(&self) -> &'static str {
        "info"
    }

    fn check(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let graph = cx.graph();
        for info in graph.loops() {
            if !graph.parallelizable(info.id) {
                continue;
            }
            out.push(Diagnostic {
                rule: self.id(),
                severity: Severity::Info,
                span: Span::loop_(info.index.clone()),
                message: format!(
                    "loop `{}` carries no dependence: iterations are independent and \
                     may run in parallel",
                    info.index
                ),
                fixit: None,
            });
        }
    }
}

/// `dead-array` — arrays that are declared but never referenced, or written
/// but never read (a `+=` left-hand side counts as a read).
pub struct DeadArray;

impl Rule for DeadArray {
    fn id(&self) -> &'static str {
        "dead-array"
    }

    fn description(&self) -> &'static str {
        "no unreferenced or write-only arrays"
    }

    fn severity_label(&self) -> &'static str {
        "warning"
    }

    fn check(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let program = cx.program();
        let n = program.arrays.len();
        let mut referenced = vec![false; n];
        let mut read = vec![false; n];
        program.for_each_stmt(|s| {
            for (ri, r) in s.refs.iter().enumerate() {
                referenced[r.array.0] = true;
                let rmw = s.kind == sdlo_ir::StmtKind::MulAddAssign && ri == 0;
                if !r.is_write || rmw {
                    read[r.array.0] = true;
                }
            }
        });
        for (k, a) in program.arrays.iter().enumerate() {
            let message = if !referenced[k] {
                format!("array `{}` is declared but never referenced", a.name)
            } else if !read[k] {
                format!(
                    "array `{}` is written but never read: all its accesses are dead",
                    a.name
                )
            } else {
                continue;
            };
            out.push(Diagnostic {
                rule: self.id(),
                severity: Severity::Warning,
                span: Span::array(a.name.clone()),
                message,
                fixit: None,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_intra_classifies_parts_in_either_order() {
        let d = DimExpr::tiled("iT", Expr::var("Ti"), "iI");
        let ((t, s), (i, _)) = tile_intra(&d).unwrap();
        assert_eq!(t, &Sym::new("iT"));
        assert_eq!(s, &Expr::var("Ti"));
        assert_eq!(i, &Sym::new("iI"));
        let swapped = DimExpr {
            parts: vec![d.parts[1].clone(), d.parts[0].clone()],
        };
        let ((t2, _), (i2, _)) = tile_intra(&swapped).unwrap();
        assert_eq!(t2, &Sym::new("iT"));
        assert_eq!(i2, &Sym::new("iI"));
        // Two unit strides or two tile strides: not a pair.
        let diag = DimExpr {
            parts: vec![(Sym::new("i"), Expr::one()), (Sym::new("j"), Expr::one())],
        };
        assert!(tile_intra(&diag).is_none());
    }

    #[test]
    fn grows_ignores_tile_only_terms() {
        let tiles: BTreeSet<Sym> = [Sym::new("Ti"), Sym::new("Tj")].into_iter().collect();
        let bounded = Expr::var("Ti") * Expr::var("Tj") + Expr::from(3);
        assert!(!UntiledReuse::grows(&bounded, &tiles));
        let unbounded = Expr::var("Ti") * Expr::var("Nj");
        assert!(UntiledReuse::grows(&unbounded, &tiles));
        // Negative problem-size terms alone do not count as growth.
        let negative = Expr::var("Ti") - Expr::var("Nj");
        assert!(!UntiledReuse::grows(&negative, &tiles));
    }
}
