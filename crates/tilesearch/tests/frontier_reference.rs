//! The searches against a reference: the §6 frontier rule written out
//! directly on the public per-point evaluations (`distances_above`,
//! `misses`), probing each point's grown neighbours one by one. The pruned
//! search's `best` and `frontier` must equal it, and the exhaustive `best`
//! must be the grid minimum, over both tiled builtins, 144 (N, cache, grid)
//! configurations, the bounds-free search and Table 4's rows.
//!
//! The rule is not always optimal: where §6's premise fails (see
//! EXPERIMENTS.md, "Where §6's pruning is not optimal") the frontier misses
//! the grid minimum. Pruned and exhaustive must agree everywhere else.

use sdlo_core::{MissModel, StackDistance, Tape};
use sdlo_ir::{programs, Bindings};
use sdlo_symbolic::Sym;
use sdlo_tilesearch::{Evaluation, SearchBudget, SearchOutcome, SearchSpace, TileSearcher};
use std::cmp::Reverse;
use std::sync::Arc;

const MATMUL: (&str, &[&str], &[&str]) = ("tiled_matmul", &["Ni", "Nj", "Nk"], &["Ti", "Tj", "Tk"]);
const TWO_INDEX: (&str, &[&str], &[&str]) = (
    "tiled_two_index",
    &["Ni", "Nj", "Nm", "Nn"],
    &["Ti", "Tj", "Tm", "Tn"],
);

/// Fewer misses, then larger volume, then lexicographically smaller tiles.
fn prefer(a: &Evaluation, b: &Evaluation) -> bool {
    let vol = |e: &Evaluation| e.tiles.iter().product::<u64>();
    (a.misses, Reverse(vol(a)), &a.tiles) < (b.misses, Reverse(vol(b)), &b.tiles)
}

fn fold_best(evals: impl IntoIterator<Item = Evaluation>) -> Evaluation {
    evals
        .into_iter()
        .reduce(|best, e| if prefer(&e, &best) { e } else { best })
        .expect("non-empty grid")
}

struct Reference {
    frontier: Vec<Evaluation>,
    best: Evaluation,
    grid_min: Evaluation,
}

fn reference(s: &TileSearcher, space: &SearchSpace) -> Reference {
    let grid = space.points();
    let eval = |tiles: &Vec<u64>| Evaluation {
        tiles: tiles.clone(),
        misses: s.misses(tiles).unwrap(),
    };
    let mut frontier = Vec::new();
    for tiles in &grid {
        let here = s.distances_above(tiles).unwrap();
        let grows_freely = (0..tiles.len()).any(|d| {
            let mut grown = tiles.clone();
            grown[d] *= 2;
            grown[d] <= space.max[d] && s.distances_above(&grown).unwrap() <= here
        });
        if !grows_freely {
            frontier.push(eval(tiles));
        }
    }
    Reference {
        best: fold_best(frontier.clone()),
        frontier,
        grid_min: fold_best(grid.iter().map(eval)),
    }
}

fn space(tiles: &[&str], n: u64, (min, max): (u64, u64)) -> SearchSpace {
    SearchSpace {
        tile_syms: tiles.iter().map(|s| s.to_string()).collect(),
        max: vec![max.min(n); tiles.len()],
        min,
    }
}

fn bounds(syms: &[&str], n: u64) -> Bindings {
    syms.iter().map(|s| (*s, n as i128)).collect()
}

/// Check both searches against the reference; returns whether pruned and
/// exhaustive picked the same tile tuple.
fn check(s: &TileSearcher, space: &SearchSpace, what: &str) -> bool {
    let r = reference(s, space);
    let pruned = s.pruned();
    assert_eq!(pruned.best, r.best, "{what}: pruned best");
    assert_eq!(pruned.frontier, r.frontier, "{what}: pruned frontier");
    let exhaustive = s.exhaustive();
    assert_eq!(exhaustive.best, r.grid_min, "{what}: exhaustive best");
    pruned.best == exhaustive.best
}

/// The configurations of the 144-matrix where §6's premise fails and the
/// pruned best is not the grid minimum (EXPERIMENTS.md explains each).
fn premise_fails(program: &str, n: u64, cache: u64, (_, max): (u64, u64)) -> bool {
    match program {
        // Non-dividing tiles pad the ceil_div counts.
        "tiled_matmul" => n == 100 && cache >= 2048,
        // N = 32: the whole problem fits in the cache; N = 100: padded
        // counts and the tile-local temporary shrinking with its tiles;
        // N = 128 under a 64 cap: the temporary again.
        "tiled_two_index" => {
            ((n == 32 || n == 100) && cache >= 8192) || (n == 128 && max == 64 && cache == 32768)
        }
        _ => unreachable!(),
    }
}

#[test]
fn searches_match_the_reference_on_the_builtin_matrix() {
    let mut differ = 0;
    for (name, bound_syms, tile_syms) in [MATMUL, TWO_INDEX] {
        let model = MissModel::build(&programs::builtin(name).unwrap());
        for n in [32u64, 100, 128, 256, 512, 1024] {
            for cache in [256u64, 2048, 8192, 32768] {
                for range in [(4u64, 256u64), (1, 64), (2, 512)] {
                    let sp = space(tile_syms, n, range);
                    let s = TileSearcher::new(&model, bounds(bound_syms, n), cache, sp.clone());
                    let what = format!("{name} N={n} C={cache} (min, max)={range:?}");
                    let same = check(&s, &sp, &what);
                    assert_eq!(same, !premise_fails(name, n, cache, range), "{what}");
                    differ += usize::from(!same);
                }
            }
        }
    }
    assert_eq!(differ, 22);
}

#[test]
fn pruning_is_optimal_on_the_advise_workload_and_table4() {
    // The benchmark's `advise` searches: both builtins, N in 128..=1024,
    // caches 2048 and 8192, tiles 4..=min(N, 256).
    for (name, bound_syms, tile_syms) in [MATMUL, TWO_INDEX] {
        let model = MissModel::build(&programs::builtin(name).unwrap());
        for n in [128u64, 256, 512, 1024] {
            for cache in [2048u64, 8192] {
                let s = TileSearcher::new(
                    &model,
                    bounds(bound_syms, n),
                    cache,
                    space(tile_syms, n, (4, 256)),
                );
                assert_eq!(
                    s.pruned().best,
                    s.exhaustive().best,
                    "{name} N={n} C={cache}"
                );
            }
        }
    }
    // Table 4's rows with N >= 128: 64 KiB cache, tiles 4..=min(N, 512).
    let (name, bound_syms, tile_syms) = TWO_INDEX;
    let model = MissModel::build(&programs::builtin(name).unwrap());
    for n in [128u64, 256, 512, 1024] {
        let s = TileSearcher::new(
            &model,
            bounds(bound_syms, n),
            8192,
            space(tile_syms, n, (4, 512)),
        );
        assert_eq!(s.pruned().best, s.exhaustive().best, "Table 4, N={n}");
    }
}

/// The model `bounds_free` searches: bound-dependent distances become
/// infinite, bounds bound to `nominal`.
fn bounds_free_searcher(
    model: &MissModel,
    bound_syms: &[&str],
    nominal: i128,
    cache: u64,
    space: SearchSpace,
) -> TileSearcher {
    let mentions_bound =
        |e: &sdlo_symbolic::Expr| bound_syms.iter().any(|b| e.involves(&Sym::new(*b)));
    let components = model
        .components()
        .iter()
        .cloned()
        .map(|mut c| {
            let dependent = match &c.distance {
                StackDistance::Infinite => false,
                StackDistance::Constant(e) => mentions_bound(e),
                StackDistance::Varying { lo, hi } => mentions_bound(lo) || mentions_bound(hi),
            };
            if dependent {
                c.distance = StackDistance::Infinite;
            }
            c
        })
        .collect();
    let model = MissModel::from_components(components);
    let base = bound_syms.iter().map(|b| (*b, nominal)).collect();
    TileSearcher::new(&model, base, cache, space)
}

fn same_search(a: &SearchOutcome, b: &SearchOutcome, what: &str) {
    assert_eq!(a.best, b.best, "{what}: best");
    assert_eq!(a.frontier, b.frontier, "{what}: frontier");
}

#[test]
fn bounds_free_and_table4_match_the_reference() {
    for (name, bound_syms, tile_syms) in [MATMUL, TWO_INDEX] {
        let model = MissModel::build(&programs::builtin(name).unwrap());
        for cache in [2048u64, 8192] {
            for max in [128u64, 512] {
                let sp = space(tile_syms, max, (4, max));
                let free =
                    TileSearcher::bounds_free(&model, bound_syms, 1 << 14, cache, sp.clone());
                let s = bounds_free_searcher(&model, bound_syms, 1 << 14, cache, sp.clone());
                let what = format!("{name} bounds-free C={cache} max={max}");
                same_search(&free, &s.pruned(), &what);
                check(&s, &sp, &what);
            }
        }
    }

    // Table 4: bounds-free at max 512, then known bounds N = 32..=1024.
    let (name, bound_syms, tile_syms) = TWO_INDEX;
    let model = MissModel::build(&programs::builtin(name).unwrap());
    let free = TileSearcher::bounds_free(
        &model,
        bound_syms,
        1 << 14,
        8192,
        space(tile_syms, 512, (4, 512)),
    );
    // EXPERIMENTS.md: (64,16,16,64) here, (64,16,16,128) in the paper.
    assert_eq!(free.best.tiles, vec![64, 16, 16, 64]);
    for n in [32u64, 64, 128, 256, 512, 1024] {
        let sp = space(tile_syms, n, (4, 512));
        let s = TileSearcher::new(&model, bounds(bound_syms, n), 8192, sp.clone());
        check(&s, &sp, &format!("Table 4, N={n}"));
    }
}

#[test]
fn a_borrowed_all_inputs_tape_searches_like_its_own() {
    // The service's searches borrow one tape per cached model, compiled
    // with every symbol the model reads as an input; over the same matrix
    // they must find what a searcher compiling its own tape finds.
    let limited = SearchBudget::max_evals(150);
    for (name, bound_syms, tile_syms) in [MATMUL, TWO_INDEX] {
        let model = MissModel::build(&programs::builtin(name).unwrap());
        let tape = Arc::new(Tape::compile(&model));
        for n in [32u64, 100, 128, 256, 512, 1024] {
            for cache in [256u64, 2048, 8192, 32768] {
                for range in [(4u64, 256u64), (1, 64), (2, 512)] {
                    let sp = space(tile_syms, n, range);
                    let base = bounds(bound_syms, n);
                    let own = TileSearcher::new(&model, base.clone(), cache, sp.clone());
                    let borrowed =
                        TileSearcher::on_tape(Arc::clone(&tape), &base, cache, sp).unwrap();
                    let what = format!("{name} N={n} C={cache} (min, max)={range:?}");
                    for (a, b) in [
                        (own.pruned(), borrowed.pruned()),
                        (own.exhaustive(), borrowed.exhaustive()),
                        (
                            own.pruned_with(&limited).unwrap(),
                            borrowed.pruned_with(&limited).unwrap(),
                        ),
                    ] {
                        same_search(&a, &b, &what);
                        assert_eq!(a.evaluations, b.evaluations, "{what}: evaluations");
                        assert_eq!(a.completed, b.completed, "{what}: completed");
                    }
                }
            }
        }
    }
}
