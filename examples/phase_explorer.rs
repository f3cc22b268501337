//! Phase explorer: visualize the four-phase structure of the miss count as
//! tile sizes grow (paper §6) and compare the stack-distance model against
//! the weaker §3 baselines.
//!
//! ```text
//! cargo run --release --example phase_explorer
//! ```

use sdlo::cachesim::{simulate_stack_distances, Granularity};
use sdlo::core::{baselines, MissModel};
use sdlo::ir::{programs, Bindings, CompiledProgram};
use sdlo::tilesearch::{SearchSpace, TileSearcher};

fn bar(v: u64, max: u64) -> String {
    let width = 46usize;
    let n = ((v as f64 / max as f64) * width as f64).round() as usize;
    "#".repeat(n.min(width))
}

fn main() {
    let n = 256u64;
    let cache = 2048u64; // 16 KB of doubles
    let program = programs::tiled_matmul();
    let model = MissModel::build(&program);
    let base = Bindings::new()
        .with("Ni", n as i128)
        .with("Nj", n as i128)
        .with("Nk", n as i128);
    let searcher = TileSearcher::new(
        &model,
        base.clone(),
        cache,
        SearchSpace {
            tile_syms: vec!["Ti".into(), "Tj".into(), "Tk".into()],
            max: vec![n; 3],
            min: 4,
        },
    );

    // Sweep Ti with Tj = Tk = 8: the miss count decreases inside a phase
    // and jumps when a stack distance crosses the cache size.
    println!("tiled matmul, N = {n}, cache = {cache} doubles");
    println!("misses vs Ti (Tj = Tk = 8):\n");
    let curve = searcher.miss_curve(0, &[4, 8, 8]).unwrap();
    let max = curve.iter().map(|(_, m)| *m).max().unwrap();
    for (ti, misses) in &curve {
        println!("  Ti={ti:<4} {misses:>12}  {}", bar(*misses, max));
    }

    // Model vs baselines vs exact simulation at one configuration.
    let tiles = (16i128, 8, 8);
    let b = base
        .clone()
        .with("Ti", tiles.0)
        .with("Tj", tiles.1)
        .with("Tk", tiles.2);
    let compiled = CompiledProgram::compile(&program, &b).unwrap();
    let exact = simulate_stack_distances(&compiled, Granularity::Element).misses(cache);
    let stack = model.predict_misses(&b, cache).unwrap();
    let capacity = baselines::capacity_miss_estimate(&program, &b, cache).unwrap();
    let reuse = baselines::reuse_distance_misses(&compiled, cache);
    println!("\nmodel comparison at tiles {tiles:?} (exact = LRU simulation):");
    println!("  exact simulation      {exact:>12}");
    println!(
        "  stack-distance model  {stack:>12}  ({:+.1}%)",
        err(stack, exact)
    );
    println!(
        "  capacity-miss model   {capacity:>12}  ({:+.1}%)",
        err(capacity, exact)
    );
    println!(
        "  reuse-distance model  {reuse:>12}  ({:+.1}%)",
        err(reuse, exact)
    );
}

fn err(predicted: u64, actual: u64) -> f64 {
    100.0 * (predicted as f64 - actual as f64) / actual as f64
}
