//! The search's evaluator against the `MissModel` tree walk: the compiled
//! tape must give the same miss count and the same number of distinct
//! stack distances at or above the cache size at every grid point, and the
//! same errors where the model fails.

use sdlo_core::{Component, ComponentKind, MissModel, ModelError, StackDistance};
use sdlo_ir::{programs, ArrayId, Bindings, StmtId};
use sdlo_symbolic::{EvalError, Expr};
use sdlo_tilesearch::{SearchBudget, SearchSpace, TileSearcher};

fn space(tiles: &[&str], max: u64, min: u64) -> SearchSpace {
    SearchSpace {
        tile_syms: tiles.iter().map(|s| s.to_string()).collect(),
        max: vec![max; tiles.len()],
        min,
    }
}

/// Compare the searcher's tape with the tree walk at every grid point.
fn assert_tape_matches_tree_walk(
    model: &MissModel,
    base: &Bindings,
    cache: u64,
    space: &SearchSpace,
) -> usize {
    let s = TileSearcher::new(model, base.clone(), cache, space.clone());
    let points = space.points();
    for tiles in &points {
        let mut b = base.clone();
        for (sym, t) in space.tile_syms.iter().zip(tiles) {
            b.set(sym.as_str(), *t as i128);
        }
        assert_eq!(
            s.misses(tiles),
            model.predict_misses(&b, cache),
            "misses at {tiles:?}, cache {cache}"
        );
        let above = model
            .distance_values(&b)
            .map(|ds| ds.into_iter().filter(|d| *d >= cache).count());
        assert_eq!(
            s.distances_above(tiles),
            above,
            "distances at {tiles:?}, cache {cache}"
        );
    }
    points.len()
}

fn bounds(syms: &[&str], n: i128) -> Bindings {
    syms.iter().map(|s| (*s, n)).collect()
}

#[test]
fn tape_matches_tree_walk_on_the_tiled_builtins() {
    let builtins: [(&str, &[&str], &[&str]); 2] = [
        ("tiled_matmul", &["Ni", "Nj", "Nk"], &["Ti", "Tj", "Tk"]),
        (
            "tiled_two_index",
            &["Ni", "Nj", "Nm", "Nn"],
            &["Ti", "Tj", "Tm", "Tn"],
        ),
    ];
    for (name, bound_syms, tile_syms) in builtins {
        let model = MissModel::build(&programs::builtin(name).unwrap());
        // Dividing and non-dividing bounds, tiles past the bound included.
        for n in [32i128, 100, 512] {
            for cache in [256u64, 8192] {
                let base = bounds(bound_syms, n);
                let points =
                    assert_tape_matches_tree_walk(&model, &base, cache, &space(tile_syms, 64, 1));
                assert_eq!(points, 7usize.pow(tile_syms.len() as u32));
            }
        }
    }
}

#[test]
fn a_zero_tile_is_a_division_by_zero() {
    let model = MissModel::build(&programs::tiled_matmul());
    let base = bounds(&["Ni", "Nj", "Nk"], 512);
    let s = TileSearcher::new(
        &model,
        base.clone(),
        8192,
        space(&["Ti", "Tj", "Tk"], 64, 1),
    );
    let division = ModelError::Eval(EvalError::DivisionByZero);
    let b = base.with("Ti", 0).with("Tj", 8).with("Tk", 8);
    assert_eq!(model.predict_misses(&b, 8192), Err(division.clone()));
    assert_eq!(s.misses(&[0, 8, 8]), Err(division.clone()));

    // A zero tile bound outside the searched space fails every search.
    let hostile = bounds(&["Ni", "Nj", "Nk"], 512).with("Ti", 0);
    let s = TileSearcher::new(&model, hostile, 8192, space(&["Tj", "Tk"], 64, 1));
    let unlimited = SearchBudget::unlimited();
    assert_eq!(
        s.pruned_with(&unlimited).map(|o| o.best),
        Err(division.clone())
    );
    assert_eq!(s.exhaustive_with(&unlimited).map(|o| o.best), Err(division));
}

#[test]
fn overflowing_bindings_are_an_overflow() {
    // N = 2^40: the N^3 instance counts leave i64.
    let model = MissModel::build(&programs::tiled_matmul());
    let base = bounds(&["Ni", "Nj", "Nk"], 1 << 40);
    let overflow = ModelError::Eval(EvalError::Overflow);
    let b = base.clone().with("Ti", 8).with("Tj", 8).with("Tk", 8);
    assert_eq!(model.predict_misses(&b, 8192), Err(overflow.clone()));
    let sp = space(&["Ti", "Tj", "Tk"], 64, 8);
    let s = TileSearcher::new(&model, base.clone(), 8192, sp.clone());
    assert_eq!(s.misses(&[8, 8, 8]), Err(overflow.clone()));
    assert_eq!(
        s.exhaustive_with(&SearchBudget::unlimited())
            .map(|o| o.best),
        Err(overflow)
    );
    assert_tape_matches_tree_walk(&model, &base, 8192, &sp);
}

/// One component with the given count and distance.
fn component(count: Expr, distance: StackDistance) -> Component {
    Component {
        array: ArrayId(0),
        stmt: StmtId(0),
        ref_idx: 0,
        kind: ComponentKind::Compulsory,
        count,
        distance,
    }
}

#[test]
fn a_count_failing_off_the_frontier_does_not_fail_the_pruned_search() {
    // count = ceil(64 / (T - 4)) fails at T = 4 only; the distance T is
    // below the cache everywhere, so growing T never adds a distance at or
    // above it and only the largest tile is on the frontier.
    let t = Expr::var("T");
    let count = Expr::from(64).ceil_div(&(t.clone() - Expr::from(4)));
    let model = MissModel::from_components(vec![component(count, StackDistance::Constant(t))]);
    let s = TileSearcher::new(&model, Bindings::new(), 1000, space(&["T"], 32, 4));
    let unlimited = SearchBudget::unlimited();

    let pruned = s.pruned_with(&unlimited).unwrap();
    assert_eq!(pruned.best.tiles, vec![32]);
    assert_eq!(pruned.frontier.len(), 1);
    assert_eq!(
        s.exhaustive_with(&unlimited).map(|o| o.best),
        Err(ModelError::Eval(EvalError::DivisionByZero))
    );
    assert_eq!(
        s.misses(&[4]),
        model.predict_misses(&Bindings::new().with("T", 4), 1000)
    );
}

#[test]
fn a_negative_count_is_a_negative_count() {
    let t = Expr::var("T");
    let model = MissModel::from_components(vec![component(
        Expr::from(8) - t.clone(),
        StackDistance::Infinite,
    )]);
    let s = TileSearcher::new(&model, Bindings::new(), 1000, space(&["T"], 16, 4));
    assert_eq!(s.misses(&[16]), Err(ModelError::NegativeCount(-8)));
    assert_eq!(
        s.misses(&[16]),
        model.predict_misses(&Bindings::new().with("T", 16), 1000)
    );
    assert_eq!(s.misses(&[4]), Ok(4));
}
