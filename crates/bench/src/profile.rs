//! Phase profiling over the builtin workloads: run each pipeline stage
//! (model build → prediction → tile search → simulator replay) under the
//! [`sdlo_trace`] collector and report per-phase wall time and counters,
//! plus a Chrome trace-event document loadable in Perfetto / `chrome://tracing`.
//!
//! Used by `tables profile`; kept in the library so tests can drive it
//! without spawning the binary.

use sdlo_cachesim::{simulate_stack_distances, Granularity};
use sdlo_core::{MissModel, Tape};
use sdlo_ir::programs::{builtin, BUILTIN_NAMES};
use sdlo_ir::{Bindings, CompiledProgram};
use sdlo_symbolic::Sym;
use sdlo_tilesearch::{SearchSpace, TileSearcher};
use sdlo_trace::{MemoryCollector, PhaseSummary, Record};
use std::hint::black_box;
use std::time::Instant;

/// Knobs for one profiling run.
#[derive(Debug, Clone)]
pub struct ProfileOptions {
    /// Loop bound bound to every `N*` symbol.
    pub bound: i128,
    /// Tile size bound to every `T*` symbol (prediction and replay).
    pub tile: i128,
    /// Cache size in elements for prediction and the tile search.
    pub cache: u64,
}

impl Default for ProfileOptions {
    fn default() -> Self {
        ProfileOptions {
            bound: 32,
            tile: 8,
            cache: 8192,
        }
    }
}

/// Per-grid-point cost of the tile search's evaluator: the model's
/// compiled [`Tape`] against the [`MissModel`] tree walk, each computing
/// the miss count and the number of distances at or above the cache size
/// at every point of a search grid.
#[derive(Debug, Clone)]
pub struct EvaluatorCost {
    /// Grid points per pass.
    pub points: usize,
    /// Compiling the tape once, in µs.
    pub compile_micros: f64,
    /// Median ns per grid point on the tape.
    pub tape_nanos: f64,
    /// Median ns per grid point on the tree walk.
    pub tree_nanos: f64,
    /// Median over pairs of back-to-back passes of tree-walk time over
    /// tape time; > 1 means the tape is faster.
    pub speedup: f64,
    /// Whether both gave the same results at every point (they must).
    pub identical: bool,
}

/// The median of `xs`, which must not be empty.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Measure [`EvaluatorCost`] over the grid of `space`, with `base` binding
/// every other symbol: `passes` pairs of one timed tape pass and one timed
/// tree-walk pass, back to back, so host load moves both sides of a pair
/// alike.
pub fn evaluator_cost(
    model: &MissModel,
    base: &Bindings,
    cache: u64,
    space: &SearchSpace,
    passes: usize,
) -> EvaluatorCost {
    let grid = space.points();
    let syms: Vec<Sym> = space.tile_syms.iter().map(Sym::new).collect();
    let started = Instant::now();
    let tape = Tape::compile(model);
    let compile_micros = started.elapsed().as_secs_f64() * 1e6;

    // Bind the bounds once; each point writes its tiles into their slots,
    // as the search does.
    let mut at = base.clone();
    for s in &syms {
        at.set(s.clone(), 0);
    }
    let mut inputs = tape
        .bind(&at)
        .expect("`base` binds every symbol but the tiles");
    let slots: Vec<Option<usize>> = syms
        .iter()
        .map(|s| tape.inputs().binary_search(s).ok())
        .collect();
    let mut eval = tape.evaluator();
    let mut on_tape = |tiles: &[u64]| {
        for (slot, t) in slots.iter().zip(tiles) {
            if let Some(i) = slot {
                inputs[*i] = i128::from(*t);
            }
        }
        (
            eval.misses(&inputs, cache),
            eval.distances_above(&inputs, cache),
        )
    };
    let on_tree = |tiles: &[u64]| {
        let mut b = base.clone();
        for (s, t) in syms.iter().zip(tiles) {
            b.set(s.clone(), i128::from(*t));
        }
        (
            model.predict_misses(&b, cache),
            model
                .distance_values(&b)
                .map(|ds| ds.into_iter().filter(|d| *d >= cache).count()),
        )
    };
    let identical = grid.iter().all(|t| on_tape(t) == on_tree(t));

    let per_point = |f: &mut dyn FnMut(&[u64])| {
        let t = Instant::now();
        for tiles in &grid {
            f(tiles);
        }
        t.elapsed().as_secs_f64() / grid.len() as f64 * 1e9
    };
    let pairs: Vec<(f64, f64)> = (0..passes.max(1))
        .map(|_| {
            let tape = per_point(&mut |t| {
                let _ = black_box(on_tape(black_box(t)));
            });
            let tree = per_point(&mut |t| {
                let _ = black_box(on_tree(black_box(t)));
            });
            (tape, tree)
        })
        .collect();
    EvaluatorCost {
        points: grid.len(),
        compile_micros,
        tape_nanos: median(pairs.iter().map(|p| p.0).collect()),
        tree_nanos: median(pairs.iter().map(|p| p.1).collect()),
        speedup: median(
            pairs
                .iter()
                .map(|(tape, tree)| tree / tape.max(f64::MIN_POSITIVE))
                .collect(),
        ),
        identical,
    }
}

/// One profiled builtin: its per-phase summary plus the raw trace records.
pub struct ProfileReport {
    pub program: String,
    pub phases: Vec<PhaseSummary>,
    pub records: Vec<Record>,
    /// Present for tiled builtins (the untiled ones run no search).
    pub evaluator: Option<EvaluatorCost>,
}

/// Accept the canonical builtin names plus the loop-order spelling
/// `two_index_tiled` for `tiled_two_index`.
pub fn resolve_name(name: &str) -> Option<&'static str> {
    if name == "two_index_tiled" {
        return Some("tiled_two_index");
    }
    BUILTIN_NAMES.iter().copied().find(|n| *n == name)
}

/// Bindings giving every free `N*` symbol `opts.bound` and every `T*`
/// symbol `opts.tile`; other symbols (none among the builtins) get the
/// bound. Returns the bindings plus the tile symbols, which drive the
/// search-space construction.
fn generic_bindings(program: &sdlo_ir::Program, opts: &ProfileOptions) -> (Bindings, Vec<String>) {
    let mut bindings = Bindings::new();
    let mut tile_syms = Vec::new();
    for sym in program.free_symbols() {
        let name = sym.name();
        if name.starts_with('T') {
            bindings = bindings.with(name, opts.tile);
            tile_syms.push(name.to_string());
        } else {
            bindings = bindings.with(name, opts.bound);
        }
    }
    (bindings, tile_syms)
}

/// Profile one builtin: install a fresh collector, run the full pipeline,
/// and return the recorded spans. The collector is process-global, so runs
/// are serialized by construction (the caller iterates).
pub fn profile_builtin(name: &str, opts: &ProfileOptions) -> Option<ProfileReport> {
    let canonical = resolve_name(name)?;
    let program = builtin(canonical).expect("resolved builtin exists");
    let (bindings, tile_syms) = generic_bindings(&program, opts);

    // Search configuration for the tiled builtins (the untiled ones have no
    // tile symbols to search); reused below for the evaluator measurement.
    let search_config = (!tile_syms.is_empty()).then(|| {
        let space = SearchSpace {
            max: vec![opts.bound.max(4) as u64; tile_syms.len()],
            tile_syms: tile_syms.clone(),
            min: 4,
        };
        let mut bound_only = Bindings::new();
        for sym in program.free_symbols() {
            if !sym.name().starts_with('T') {
                bound_only = bound_only.with(sym.name(), opts.bound);
            }
        }
        (space, bound_only)
    });

    let collector = MemoryCollector::new();
    sdlo_trace::install(collector.clone());
    let model;
    {
        let run = sdlo_trace::span("profile.run");
        run.attr("program", canonical);

        // Model build: partitioning + component classification + symbolic
        // stack-distance derivation.
        model = MissModel::build(&program);

        // One prediction at the profiled cache size.
        let _ = model.predict_misses(&bindings, opts.cache);

        // Tile search over the tiled builtins.
        if let Some((space, bound_only)) = &search_config {
            let searcher = TileSearcher::new(&model, bound_only.clone(), opts.cache, space.clone());
            let _ = searcher.pruned();
        }

        // Simulator replay at the same configuration.
        if let Ok(compiled) = CompiledProgram::compile(&program, &bindings) {
            let _ = simulate_stack_distances(&compiled, Granularity::Element);
        }
    }
    sdlo_trace::uninstall();

    // Evaluator timing, after the collector is gone so the extra runs
    // don't pollute the phase table.
    let evaluator = search_config
        .map(|(space, bound_only)| evaluator_cost(&model, &bound_only, opts.cache, &space, 5));

    let records = collector.records();
    let phases = sdlo_trace::summarize(&records);
    Some(ProfileReport {
        program: canonical.to_string(),
        phases,
        records,
        evaluator,
    })
}

/// One Chrome trace-event document covering several profiled builtins.
/// Span ids, thread ids and the timestamp epoch are process-global in
/// `sdlo_trace`, so concatenating per-run records is sound.
pub fn chrome_trace(reports: &[ProfileReport]) -> String {
    let all: Vec<Record> = reports.iter().flat_map(|r| r.records.clone()).collect();
    sdlo_trace::chrome::render(&all)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_accepts_alias_and_builtins() {
        assert_eq!(resolve_name("two_index_tiled"), Some("tiled_two_index"));
        assert_eq!(resolve_name("matmul"), Some("matmul"));
        assert_eq!(resolve_name("nope"), None);
    }
}
