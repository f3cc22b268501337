//! Every call the benchmark makes into the sdlo libraries.
//!
//! No other module of the benchmark names an sdlo crate: they reach the
//! libraries only through the functions and re-exported types here, so an
//! API change in a library touches this file alone. The functions are thin
//! on purpose; each is one layer's public entry point as the daemon would
//! call it.

use crate::gen::{Shape, ShapeNode};
use sdlo_ir::{ArrayRef, DimExpr, Node, Stmt, StmtId, StmtKind};
use sdlo_symbolic::{Bindings, Expr};
use sdlo_tilesearch::{SearchSpace, TileSearcher};
use std::sync::Arc;

pub use sdlo_core::dag::ModelDag;
pub use sdlo_core::MissModel;
pub use sdlo_ir::{CompiledProgram, Program};
pub use sdlo_service::Engine;
pub use sdlo_trace::{MemoryCollector, Span};
pub use sdlo_wire::Value;

/// The builtin programs, by the names the protocol accepts.
pub const BUILTINS: [&str; 5] = sdlo_ir::programs::BUILTIN_NAMES;

/// Run `f`, turning a panic into `None` without printing it. Random shapes
/// may trip model assumptions; the benchmark keeps only programs the
/// libraries handle.
pub fn quietly<T>(f: impl FnOnce() -> T) -> Option<T> {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok();
    std::panic::set_hook(hook);
    out
}

// -- sdlo-wire -------------------------------------------------------------

pub fn parse_json(text: &str) -> Result<Value, String> {
    sdlo_wire::parse(text).map_err(|e| e.to_string())
}

pub fn program_json(p: &Program) -> String {
    sdlo_wire::program_to_value(p).render()
}

/// Decode and validate an inline program, as the daemon does.
pub fn decode_program(v: &Value) -> Result<Program, String> {
    sdlo_wire::program_from_value(v).map_err(|e| e.to_string())
}

// -- sdlo-ir ---------------------------------------------------------------

pub fn builtin(name: &str) -> Program {
    sdlo_ir::programs::builtin(name).expect("BUILTINS lists only builtins")
}

pub fn free_symbols(p: &Program) -> Vec<String> {
    p.free_symbols()
        .iter()
        .map(|s| s.name().to_string())
        .collect()
}

pub fn canonical_hash(p: &Program) -> u64 {
    sdlo_ir::canonicalize(p).hash
}

/// The canonical representative the daemon caches models under, and its
/// hash.
pub fn canonicalize(p: &Program) -> (u64, Program) {
    let c = sdlo_ir::canonicalize(p);
    (c.hash, c.program)
}

/// Lower a [`Shape`] to the IR.
pub fn shape_program(name: &str, shape: &Shape) -> Program {
    let mut p = Program::new(name);
    let ids: Vec<_> = shape
        .arrays
        .iter()
        .enumerate()
        .map(|(a, loops)| {
            let dims = loops.iter().map(|l| Expr::var(format!("N{l}"))).collect();
            p.declare(format!("A{a}"), dims)
        })
        .collect();
    fn lower(node: &ShapeNode, shape: &Shape, ids: &[sdlo_ir::ArrayId], next: &mut usize) -> Node {
        match node {
            ShapeNode::Loop(l, body) => Node::loop_(
                format!("l{l}"),
                Expr::var(format!("N{l}")),
                body.iter().map(|n| lower(n, shape, ids, next)).collect(),
            ),
            ShapeNode::Stmt(refs) => {
                let refs: Vec<ArrayRef> = refs
                    .iter()
                    .enumerate()
                    .map(|(k, a)| ArrayRef {
                        array: ids[*a],
                        dims: shape.arrays[*a]
                            .iter()
                            .map(|l| DimExpr::index(format!("l{l}")))
                            .collect(),
                        is_write: k == 0,
                    })
                    .collect();
                let kind = match refs.len() {
                    1 => StmtKind::ZeroLhs,
                    2 => StmtKind::Assign,
                    _ => StmtKind::MulAddAssign,
                };
                *next += 1;
                Node::Stmt(Stmt {
                    id: StmtId(*next - 1),
                    label: format!("s{}", *next - 1),
                    refs,
                    kind,
                })
            }
        }
    }
    let mut next = 0;
    p.root = shape
        .nest
        .iter()
        .map(|n| lower(n, shape, &ids, &mut next))
        .collect();
    p
}

pub fn compile(p: &Program, bindings: &[(String, u64)]) -> Result<CompiledProgram, String> {
    CompiledProgram::compile(p, &to_bindings(bindings)).map_err(|e| format!("{e:?}"))
}

// -- sdlo-symbolic -----------------------------------------------------------

fn to_bindings(b: &[(String, u64)]) -> Bindings {
    b.iter().map(|(s, v)| (s.as_str(), *v as i128)).collect()
}

// -- sdlo-core ---------------------------------------------------------------

pub fn build_model(p: &Program) -> MissModel {
    MissModel::build(p)
}

pub fn component_count(m: &MissModel) -> usize {
    m.components().len()
}

pub fn predict(m: &MissModel, bindings: &[(String, u64)], cache: u64) -> Result<u64, String> {
    m.predict_misses(&to_bindings(bindings), cache)
        .map_err(|e| e.to_string())
}

/// A live DAG over `m` tracking `cache`, and its misses there.
pub fn dag_new(
    m: &MissModel,
    bindings: &[(String, u64)],
    cache: u64,
) -> Result<(ModelDag, u64), String> {
    let dag = ModelDag::new(m, to_bindings(bindings), &[cache]).map_err(|e| e.to_string())?;
    let misses = dag.misses_for(cache).ok_or("new DAG lost its cache size")?;
    Ok((dag, misses))
}

/// Apply a full rebinding to a live DAG: the misses at `cache` and the
/// nodes re-evaluated.
pub fn dag_revise(
    dag: &mut ModelDag,
    bindings: &[(String, u64)],
    cache: u64,
) -> Result<(u64, u64), String> {
    let outcome = dag
        .revise(&sdlo_core::dag::DagDelta {
            bindings: to_bindings(bindings),
            cache_sizes: Some(vec![cache]),
        })
        .map_err(|e| e.to_string())?;
    let misses = dag
        .misses_for(cache)
        .ok_or("revised DAG lost its cache size")?;
    Ok((misses, outcome.nodes_reevaluated))
}

// -- sdlo-deps / sdlo-analysis ----------------------------------------------

/// Dependences found.
pub fn dependences(p: &Program) -> usize {
    sdlo_deps::analyze(p).deps.len()
}

/// Diagnostic counts by severity: error, warning, info.
pub fn lint_counts(p: &Program) -> [u64; 3] {
    let c = sdlo_analysis::SeverityCounts::of(&sdlo_analysis::lint(p));
    [c.errors as u64, c.warnings as u64, c.infos as u64]
}

// -- sdlo-tilesearch ---------------------------------------------------------

/// A power-of-two tile grid: every symbol of `syms` over `min..=max`.
pub struct Space<'a> {
    pub syms: &'a [String],
    pub max: u64,
    pub min: u64,
}

impl Space<'_> {
    fn search_space(&self) -> SearchSpace {
        SearchSpace {
            tile_syms: self.syms.to_vec(),
            max: vec![self.max; self.syms.len()],
            min: self.min,
        }
    }

    /// Points of the full grid.
    pub fn points(&self) -> u64 {
        ((self.max / self.min).ilog2() as u64 + 1).pow(self.syms.len() as u32)
    }
}

/// A search's best tile tuple (in `Space::syms` order) and its cost.
pub struct Found {
    pub tiles: Vec<u64>,
    pub misses: u64,
    pub evaluations: u64,
}

fn found(o: sdlo_tilesearch::SearchOutcome) -> Found {
    Found {
        tiles: o.best.tiles,
        misses: o.best.misses,
        evaluations: o.evaluations as u64,
    }
}

/// Pruned (§6) or exhaustive search with the loop bounds in `bindings`.
pub fn search(
    m: &MissModel,
    bindings: &[(String, u64)],
    cache: u64,
    space: &Space,
    exhaustive: bool,
) -> Found {
    let searcher = TileSearcher::new(m, to_bindings(bindings), cache, space.search_space());
    found(if exhaustive {
        searcher.exhaustive()
    } else {
        searcher.pruned()
    })
}

/// The §6 search without loop bounds.
pub fn search_bounds_free(
    m: &MissModel,
    bounds: &[String],
    nominal: u64,
    cache: u64,
    space: &Space,
) -> Found {
    let bounds: Vec<&str> = bounds.iter().map(String::as_str).collect();
    found(TileSearcher::bounds_free(
        m,
        &bounds,
        nominal as i128,
        cache,
        space.search_space(),
    ))
}

// -- sdlo-cachesim -----------------------------------------------------------

/// Exact fully associative LRU misses at `cache` elements, and the
/// accesses replayed.
pub fn simulate(c: &CompiledProgram, cache: u64) -> (u64, u64) {
    let hist = sdlo_cachesim::simulate_stack_distances(c, sdlo_cachesim::Granularity::Element);
    (hist.misses(cache), c.total_accesses())
}

// -- sdlo-service ------------------------------------------------------------

/// A fresh engine with the daemon's default configuration.
pub fn engine() -> Engine {
    Engine::new(sdlo_service::EngineConfig::default())
}

pub fn handle_line(engine: &Engine, line: &str) -> String {
    engine.handle_line(line)
}

// -- sdlo-trace ----------------------------------------------------------------

/// Start collecting spans in memory, process-wide.
pub fn trace_start() -> Arc<MemoryCollector> {
    let collector = MemoryCollector::new();
    sdlo_trace::install(collector.clone());
    collector
}

pub fn trace_stop() {
    sdlo_trace::uninstall();
}

/// Open a span tagged with the request it serves. Inert while no collector
/// is installed.
pub fn span(name: &'static str, request_id: &str) -> Span {
    let span = sdlo_trace::span(name);
    span.attr("request_id", request_id);
    span
}

pub fn chrome_trace(collector: &MemoryCollector) -> String {
    collector.chrome_trace()
}
