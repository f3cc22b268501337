//! The tile search's evaluator: every grid point of the §6 search needs the
//! model's stack distances (and, on the frontier, its miss count), so the
//! search is only as fast as one model evaluation. This bench times the
//! pruned and exhaustive searches, then measures one evaluation per grid
//! point on the compiled tape against the `MissModel` tree walk on
//! `tiled_two_index` (N=512, 64 KiB cache, tiles 4..=512). It asserts both
//! give the same miss count and distance count at every point, gates the
//! median over five back-to-back pairs of passes at no less than
//! [`MIN_SPEEDUP`] times the tree walk, and writes the measurement to
//! `results/search.json`.

use criterion::{criterion_group, Criterion};
use sdlo_bench::profile::evaluator_cost;
use sdlo_core::MissModel;
use sdlo_ir::{programs, Bindings};
use sdlo_tilesearch::{SearchSpace, TileSearcher};
use std::hint::black_box;

const N: i128 = 512;
const CACHE: u64 = 8192;
/// The tape must evaluate a grid point at least this many times faster
/// than the tree walk: about 40x in `i64`, about 10x if every run fell
/// back to `i128`.
const MIN_SPEEDUP: f64 = 20.0;

fn bounds() -> Bindings {
    Bindings::new()
        .with("Ni", N)
        .with("Nj", N)
        .with("Nm", N)
        .with("Nn", N)
}

fn space() -> SearchSpace {
    SearchSpace {
        tile_syms: vec!["Ti".into(), "Tj".into(), "Tm".into(), "Tn".into()],
        max: vec![N as u64; 4],
        min: 4,
    }
}

fn bench_search(c: &mut Criterion) {
    let model = MissModel::build(&programs::tiled_two_index());
    let s = TileSearcher::new(&model, bounds(), CACHE, space());
    let mut g = c.benchmark_group("tilesearch");
    g.sample_size(10);
    g.bench_function("pruned", |b| b.iter(|| black_box(s.pruned())));
    g.bench_function("exhaustive", |b| b.iter(|| black_box(s.exhaustive())));
    g.finish();
}

criterion_group!(benches, bench_search);

fn main() {
    benches();

    let model = MissModel::build(&programs::tiled_two_index());
    let cost = evaluator_cost(&model, &bounds(), CACHE, &space(), 5);
    assert!(
        cost.identical,
        "the tape and the tree walk disagree on some grid point"
    );
    let speedup = cost.speedup;
    let summary = format!(
        "{{\"program\":\"tiled_two_index\",\"n\":{N},\"cache\":{CACHE},\
         \"points\":{},\"compile_micros\":{:.1},\"tape_nanos\":{:.1},\
         \"tree_walk_nanos\":{:.1},\"speedup\":{speedup:.2},\"identical\":true}}\n",
        cost.points, cost.compile_micros, cost.tape_nanos, cost.tree_nanos,
    );
    println!(
        "tilesearch evaluator on tiled_two_index (N={N}, cache={CACHE}, {} points): \
         tape {:.0} ns, tree walk {:.0} ns per grid point, {speedup:.2}x; \
         compile {:.0} us",
        cost.points, cost.tape_nanos, cost.tree_nanos, cost.compile_micros
    );

    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results");
    let _ = std::fs::create_dir_all(&results);
    std::fs::write(results.join("search.json"), &summary).expect("write results/search.json");

    assert!(
        speedup >= MIN_SPEEDUP,
        "the tape must evaluate a grid point at least {MIN_SPEEDUP}x faster \
         than the tree walk, measured {speedup:.2}x"
    );
}
