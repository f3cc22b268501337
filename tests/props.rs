//! Property tests over random programs of the TCE loop class: the model's
//! instance accounting must be exact, its miss predictions must track the
//! exact LRU simulation, and the tile search's compiled evaluator must
//! agree with the model's tree walk.

use proptest::prelude::*;
use sdlo::cachesim::{simulate_stack_distances, Granularity};
use sdlo::core::MissModel;
use sdlo::ir::{
    ArrayRef, Bindings, CompiledProgram, DimExpr, Expr, Node, Program, Stmt, StmtId, StmtKind,
};
use sdlo::tilesearch::{SearchSpace, TileSearcher};

/// A random perfect nest with one multiply–add statement whose three
/// references each subscript a random subset of the loop indices.
fn arb_perfect_nest() -> impl Strategy<Value = (Program, Bindings)> {
    let depth = 2usize..=4;
    depth.prop_flat_map(|d| {
        let bounds = proptest::collection::vec(6u64..=12, d);
        let subsets =
            proptest::collection::vec(proptest::collection::vec(proptest::bool::ANY, d), 3);
        (bounds, subsets).prop_map(move |(bounds, subsets)| {
            let names: Vec<String> = (0..d).map(|k| format!("l{k}")).collect();
            let mut p = Program::new("random-perfect");
            let mut refs = Vec::new();
            for (r, subset) in subsets.iter().enumerate() {
                let dims: Vec<DimExpr> = names
                    .iter()
                    .zip(subset)
                    .filter(|(_, keep)| **keep)
                    .map(|(n, _)| DimExpr::index(n.as_str()))
                    .collect();
                let extents: Vec<Expr> = names
                    .iter()
                    .zip(subset)
                    .filter(|(_, keep)| **keep)
                    .map(|(n, _)| Expr::var(format!("B_{n}")))
                    .collect();
                let (dims, extents) = if dims.is_empty() {
                    (vec![DimExpr { parts: vec![] }], vec![Expr::one()])
                } else {
                    (dims, extents)
                };
                let id = p.declare(format!("A{r}"), extents);
                refs.push(ArrayRef {
                    array: id,
                    dims,
                    is_write: r == 0,
                });
            }
            let stmt = Node::Stmt(Stmt {
                id: StmtId(0),
                label: "A0 += A1 * A2".into(),
                refs,
                kind: StmtKind::MulAddAssign,
            });
            let mut node = stmt;
            for (name, _b) in names.iter().zip(&bounds).rev() {
                node = Node::loop_(name.as_str(), Expr::var(format!("B_{name}")), vec![node]);
            }
            p.root = vec![node];
            let bindings: Bindings = names
                .iter()
                .zip(&bounds)
                .map(|(n, b)| (format!("B_{n}"), *b as i128))
                .collect();
            p.validate().expect("generator produces valid programs");
            (p, bindings)
        })
    })
}

/// A random imperfect nest in the Fig. 6 family: shared outer loops, a
/// zero/produce/consume sequence through a shared buffer `T`.
fn arb_imperfect_nest() -> impl Strategy<Value = (Program, Bindings)> {
    // bounds: o1, o2 (outer), x1, x2 (shared intra), e1, e2 (per-branch)
    let bounds = proptest::collection::vec(3u64..=8, 6);
    // Whether each auxiliary array uses the outer loops in its dims.
    let flags = proptest::collection::vec(proptest::bool::ANY, 4);
    (bounds, flags).prop_map(|(b, flags)| {
        let (o1, o2, x1, x2, e1, e2) = (b[0], b[1], b[2], b[3], b[4], b[5]);
        let mut p = Program::new("random-imperfect");
        let t = p.declare("T", vec![Expr::var("Bx1"), Expr::var("Bx2")]);
        let u_dims;
        let u_ext;
        if flags[0] {
            u_dims = vec![DimExpr::index("o1"), DimExpr::index("e1")];
            u_ext = vec![Expr::var("Bo1"), Expr::var("Be1")];
        } else {
            u_dims = vec![DimExpr::index("x1"), DimExpr::index("e1")];
            u_ext = vec![Expr::var("Bx1"), Expr::var("Be1")];
        }
        let u = p.declare("U", u_ext);
        let v_dims = if flags[1] {
            vec![DimExpr::index("x2"), DimExpr::index("e1")]
        } else {
            vec![DimExpr::index("e1")]
        };
        let v_ext = v_dims
            .iter()
            .map(|d| Expr::var(format!("B{}", d.parts[0].0)))
            .collect();
        let v = p.declare("V", v_ext);
        let w_dims = if flags[2] {
            vec![DimExpr::index("e2"), DimExpr::index("x2")]
        } else {
            vec![DimExpr::index("e2"), DimExpr::index("x1")]
        };
        let w_ext = w_dims
            .iter()
            .map(|d| Expr::var(format!("B{}", d.parts[0].0)))
            .collect();
        let w = p.declare("W", w_ext);
        let x_dims = if flags[3] {
            vec![DimExpr::index("e2"), DimExpr::index("o2")]
        } else {
            vec![DimExpr::index("e2")]
        };
        let x_ext = x_dims
            .iter()
            .map(|d| Expr::var(format!("B{}", d.parts[0].0)))
            .collect();
        let x = p.declare("X", x_ext);

        let t_dims = || vec![DimExpr::index("x1"), DimExpr::index("x2")];
        let s0 = Node::Stmt(Stmt {
            id: StmtId(0),
            label: "T = 0".into(),
            refs: vec![ArrayRef::write(t, t_dims())],
            kind: StmtKind::ZeroLhs,
        });
        let s1 = Node::Stmt(Stmt {
            id: StmtId(1),
            label: "T += U * V".into(),
            refs: vec![
                ArrayRef::write(t, t_dims()),
                ArrayRef::read(u, u_dims),
                ArrayRef::read(v, v_dims),
            ],
            kind: StmtKind::MulAddAssign,
        });
        let s2 = Node::Stmt(Stmt {
            id: StmtId(2),
            label: "W += T * X".into(),
            refs: vec![
                ArrayRef::write(w, w_dims),
                ArrayRef::read(t, t_dims()),
                ArrayRef::read(x, x_dims),
            ],
            kind: StmtKind::MulAddAssign,
        });
        let zero_nest = Node::loop_(
            "x1",
            Expr::var("Bx1"),
            vec![Node::loop_("x2", Expr::var("Bx2"), vec![s0])],
        );
        let produce = Node::loop_(
            "e1",
            Expr::var("Be1"),
            vec![Node::loop_(
                "x1",
                Expr::var("Bx1"),
                vec![Node::loop_("x2", Expr::var("Bx2"), vec![s1])],
            )],
        );
        let consume = Node::loop_(
            "e2",
            Expr::var("Be2"),
            vec![Node::loop_(
                "x1",
                Expr::var("Bx1"),
                vec![Node::loop_("x2", Expr::var("Bx2"), vec![s2])],
            )],
        );
        p.root = vec![Node::loop_(
            "o1",
            Expr::var("Bo1"),
            vec![Node::loop_(
                "o2",
                Expr::var("Bo2"),
                vec![zero_nest, produce, consume],
            )],
        )];
        p.validate().expect("generator produces valid programs");
        let bindings: Bindings = [
            ("Bo1", o1),
            ("Bo2", o2),
            ("Bx1", x1),
            ("Bx2", x2),
            ("Be1", e1),
            ("Be2", e2),
        ]
        .into_iter()
        .map(|(n, v)| (n, v as i128))
        .collect();
        (p, bindings)
    })
}

fn check_accounting(p: &Program, b: &Bindings) {
    let model = MissModel::build(p);
    let compiled = CompiledProgram::compile(p, b).unwrap();
    assert_eq!(
        model.total_instances(b).unwrap(),
        compiled.total_accesses(),
        "instance accounting must be exact:\n{}",
        p.render()
    );
}

fn check_prediction(p: &Program, b: &Bindings, cs_fraction: f64) {
    let model = MissModel::build(p);
    let compiled = CompiledProgram::compile(p, b).unwrap();
    let hist = simulate_stack_distances(&compiled, Granularity::Element);
    let footprint = compiled.total_elements();
    // Degenerate capacities comparable to a single statement's reference
    // count are outside the model's contract (the paper's caches hold
    // thousands of elements); keep the capacity ≥ 16 blocks.
    let cs = ((footprint as f64 * cs_fraction) as u64).max(16);
    // The model reports each component's *interior* stack distance; true
    // per-instance distances fan out by up to one boundary row around it.
    // Capacities inside that fuzz band flip whole components — skip them
    // (the paper's capacities sit far from every knee; see DESIGN.md §5).
    let knees = model.distance_values(b).unwrap();
    if knees.iter().any(|&k| cs.abs_diff(k) <= (k / 4).max(8)) {
        return;
    }
    let predicted = model.predict_misses(b, cs).unwrap();
    let actual = hist.misses(cs);
    let total = hist.total();
    let diff = predicted.abs_diff(actual);
    // Bounds are tiny (≤7), so boundary instances are a large share of
    // every component; allow generous relative error OR a modest absolute
    // share of the trace.
    assert!(
        diff as f64 <= 0.30 * actual.max(1) as f64 || diff * 4 <= total,
        "cs={cs}: predicted {predicted} vs actual {actual} (trace {total})\n{}",
        p.render()
    );
}

/// Tile every loop of a random perfect nest and compare the tile search's
/// evaluator with the tree walk at every point of its tile grid: the same
/// misses, and the same number of distinct distances at or above the cache.
fn check_tiled_evaluator(p: &Program, b: &Bindings) {
    let loops: Vec<(String, String)> = (0..b.len())
        .map(|k| (format!("l{k}"), format!("T_l{k}")))
        .collect();
    let pairs: Vec<(&str, &str)> = loops
        .iter()
        .map(|(l, t)| (l.as_str(), t.as_str()))
        .collect();
    let tiled = sdlo::ir::tile_perfect_nest(p, &pairs).unwrap();
    let model = MissModel::build(&tiled);
    let space = SearchSpace {
        tile_syms: loops.iter().map(|(_, t)| t.clone()).collect(),
        max: (0..b.len())
            .map(|k| b.get(&format!("B_l{k}").as_str().into()).unwrap() as u64)
            .collect(),
        min: 1,
    };
    for cache in [16u64, 128] {
        let s = TileSearcher::new(&model, b.clone(), cache, space.clone());
        for tiles in &space.points() {
            let mut at = b.clone();
            for (sym, t) in space.tile_syms.iter().zip(tiles) {
                at.set(sym.as_str(), *t as i128);
            }
            assert_eq!(
                s.misses(tiles),
                model.predict_misses(&at, cache),
                "{tiles:?}\n{}",
                tiled.render()
            );
            let above = model
                .distance_values(&at)
                .map(|ds| ds.into_iter().filter(|d| *d >= cache).count());
            assert_eq!(
                s.distances_above(tiles),
                above,
                "{tiles:?}\n{}",
                tiled.render()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn tiled_perfect_nest_evaluator_matches_tree_walk((p, b) in arb_perfect_nest()) {
        check_tiled_evaluator(&p, &b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn perfect_nest_instance_accounting_is_exact((p, b) in arb_perfect_nest()) {
        check_accounting(&p, &b);
    }

    #[test]
    fn perfect_nest_predictions_track_simulation(
        (p, b) in arb_perfect_nest(),
        frac in 0.05f64..0.9,
    ) {
        check_prediction(&p, &b, frac);
    }

    #[test]
    fn imperfect_nest_instance_accounting_is_exact((p, b) in arb_imperfect_nest()) {
        check_accounting(&p, &b);
    }

    #[test]
    fn imperfect_nest_predictions_track_simulation(
        (p, b) in arb_imperfect_nest(),
        frac in 0.05f64..0.9,
    ) {
        check_prediction(&p, &b, frac);
    }

    #[test]
    fn model_misses_monotone_in_cache((p, b) in arb_imperfect_nest()) {
        let model = MissModel::build(&p);
        let compiled = CompiledProgram::compile(&p, &b).unwrap();
        let footprint = compiled.total_elements();
        let mut prev = u64::MAX;
        for cs in [footprint / 8, footprint / 4, footprint / 2, footprint, footprint * 2] {
            let m = model.predict_misses(&b, cs.max(1)).unwrap();
            prop_assert!(m <= prev, "cs={cs}: {m} > {prev}");
            prev = m;
        }
    }
}
