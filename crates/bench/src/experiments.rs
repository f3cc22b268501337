//! Implementations of every paper experiment (Tables 1–4, Figures 10–11)
//! and the ablations.

use sdlo_cachesim::{simulate_stack_distances, Granularity, SetAssocCache};
use sdlo_core::MissModel;
use sdlo_ir::{programs, Bindings, CompiledProgram, Program};
use sdlo_parallel::{kernels, LimitModel, MachineParams, SmpAnalysis};
use sdlo_tilesearch::{SearchSpace, TileSearcher};

/// Scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's configuration (hundreds of millions of simulated
    /// accesses — minutes of runtime).
    Paper,
    /// Bounds divided by 4, cache by 16 — seconds of runtime, same
    /// qualitative shape.
    Small,
}

impl Scale {
    fn shrink_bound(self, n: u64) -> u64 {
        match self {
            Scale::Paper => n,
            Scale::Small => n / 4,
        }
    }

    fn shrink_tile(self, t: u64) -> u64 {
        match self {
            Scale::Paper => t,
            Scale::Small => (t / 4).max(4),
        }
    }

    fn shrink_cache(self, c: u64) -> u64 {
        match self {
            Scale::Paper => c,
            Scale::Small => c / 16,
        }
    }
}

fn tmm_bindings(n: (u64, u64, u64), t: (u64, u64, u64)) -> Bindings {
    Bindings::new()
        .with("Ni", n.0 as i128)
        .with("Nj", n.1 as i128)
        .with("Nk", n.2 as i128)
        .with("Ti", t.0 as i128)
        .with("Tj", t.1 as i128)
        .with("Tk", t.2 as i128)
}

fn t2i_bindings(n: (u64, u64, u64, u64), t: (u64, u64, u64, u64)) -> Bindings {
    Bindings::new()
        .with("Ni", n.0 as i128)
        .with("Nj", n.1 as i128)
        .with("Nm", n.2 as i128)
        .with("Nn", n.3 as i128)
        .with("Ti", t.0 as i128)
        .with("Tj", t.1 as i128)
        .with("Tm", t.2 as i128)
        .with("Tn", t.3 as i128)
}

/// Bounds and tile tuple of a two-index configuration.
type Quad = (u64, u64, u64, u64);

/// One predicted-vs-simulated row.
#[derive(Debug, Clone)]
pub struct MissRow {
    /// Human-readable configuration.
    pub config: String,
    /// Cache capacity in elements.
    pub cache: u64,
    /// Model prediction.
    pub predicted: u64,
    /// Exact LRU simulation.
    pub actual: u64,
}

impl MissRow {
    /// Relative error of the prediction.
    pub fn rel_error(&self) -> f64 {
        (self.predicted as f64 - self.actual as f64).abs() / self.actual.max(1) as f64
    }
}

fn miss_row(
    program: &Program,
    model: &MissModel,
    b: &Bindings,
    cache: u64,
    config: String,
) -> MissRow {
    let predicted = model.predict_misses(b, cache).expect("prediction");
    let compiled = CompiledProgram::compile(program, b).expect("compile");
    let actual = simulate_stack_distances(&compiled, Granularity::Element).misses(cache);
    MissRow {
        config,
        cache,
        predicted,
        actual,
    }
}

/// **Table 1**: the symbolic reuse components of tiled matrix
/// multiplication (counts and stack-distance expressions).
pub fn table1() -> String {
    let p = programs::tiled_matmul();
    let model = MissModel::build(&p);
    let mut out = String::new();
    out.push_str("Table 1 — reuse components of tiled matrix multiplication\n");
    out.push_str(&p.render());
    out.push('\n');
    out.push_str(&model.render(&p));
    out
}

/// **Table 2**: predicted vs simulated misses, tiled two-index transform.
///
/// Paper rows: bounds (I,J,M,N), tiles (Ti,Tj,Tm,Tn), cache in KB of
/// doubles. Note: the paper's absolute "actual" numbers come from its own
/// (unpublished) tiled code with tile copying; our validation claim is
/// |predicted − simulated| on *our* Fig. 6 code (see EXPERIMENTS.md).
pub fn table2(scale: Scale) -> Vec<MissRow> {
    let p = programs::tiled_two_index();
    let model = MissModel::build(&p);
    let rows: [(Quad, Quad, u64); 6] = [
        ((256, 256, 256, 256), (128, 64, 64, 128), 32768),
        ((256, 256, 256, 256), (64, 128, 128, 64), 32768),
        ((512, 512, 512, 512), (128, 128, 128, 128), 32768),
        ((256, 256, 256, 256), (64, 64, 64, 128), 8192),
        ((256, 256, 256, 256), (128, 64, 64, 128), 8192),
        ((512, 256, 256, 512), (128, 64, 64, 128), 8192),
    ];
    rows.iter()
        .map(|(n, t, cs)| {
            let n = (
                scale.shrink_bound(n.0),
                scale.shrink_bound(n.1),
                scale.shrink_bound(n.2),
                scale.shrink_bound(n.3),
            );
            let t = (
                scale.shrink_tile(t.0),
                scale.shrink_tile(t.1),
                scale.shrink_tile(t.2),
                scale.shrink_tile(t.3),
            );
            let cs = scale.shrink_cache(*cs);
            miss_row(
                &p,
                &model,
                &t2i_bindings(n, t),
                cs,
                format!("bounds={n:?} tiles={t:?}"),
            )
        })
        .collect()
}

/// **Table 3**: predicted vs simulated misses, tiled matrix multiplication.
///
/// Row 4 uses tiles (64,32,32): the paper prints (32,64,32), which is
/// inconsistent with its own other rows' convention (its own simulated
/// count for the printed tuple would be ~17.5M, not 1.31M).
pub fn table3(scale: Scale) -> Vec<MissRow> {
    let p = programs::tiled_matmul();
    let model = MissModel::build(&p);
    let rows: [(u64, (u64, u64, u64), u64); 6] = [
        (512, (32, 32, 32), 8192),
        (512, (64, 64, 64), 8192),
        (512, (128, 128, 128), 8192),
        (256, (64, 32, 32), 2048),
        (256, (64, 64, 64), 2048),
        (256, (32, 64, 128), 2048),
    ];
    rows.iter()
        .map(|(n, t, cs)| {
            let n = scale.shrink_bound(*n);
            let t = (
                scale.shrink_tile(t.0),
                scale.shrink_tile(t.1),
                scale.shrink_tile(t.2),
            );
            let cs = scale.shrink_cache(*cs);
            miss_row(
                &p,
                &model,
                &tmm_bindings((n, n, n), t),
                cs,
                format!("N={n} tiles={t:?}"),
            )
        })
        .collect()
}

/// One row of Table 4.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Loop bound (0 = unknown).
    pub bound: u64,
    /// Tile tuple chosen by the search.
    pub tiles: Vec<u64>,
}

/// **Table 4**: best tile tuples for the two-index transform at 64 KB, with
/// known loop bounds (several sizes) vs unknown bounds (bounds-free search
/// up to tile 512).
pub fn table4() -> (Table4Row, Vec<Table4Row>) {
    let p = programs::tiled_two_index();
    let model = MissModel::build(&p);
    let cache = 8192; // 64 KB of f64
    let space = |maxv: u64| SearchSpace {
        tile_syms: vec!["Ti".into(), "Tj".into(), "Tm".into(), "Tn".into()],
        max: vec![maxv; 4],
        min: 4,
    };
    let free = TileSearcher::bounds_free(
        &model,
        &["Ni", "Nj", "Nm", "Nn"],
        1 << 14,
        cache,
        space(512),
    );
    let unknown = Table4Row {
        bound: 0,
        tiles: free.best.tiles,
    };
    let known = [32u64, 64, 128, 256, 512, 1024]
        .iter()
        .map(|&n| {
            let base = Bindings::new()
                .with("Ni", n as i128)
                .with("Nj", n as i128)
                .with("Nm", n as i128)
                .with("Nn", n as i128);
            let s = TileSearcher::new(&model, base, cache, space(n.min(512)));
            Table4Row {
                bound: n,
                tiles: s.pruned().best.tiles,
            }
        })
        .collect();
    (unknown, known)
}

/// One series point of Figures 10–11.
#[derive(Debug, Clone)]
pub struct FigPoint {
    /// Processor count.
    pub processors: u64,
    /// Predicted time under the bus-limited model (s).
    pub bus_limited: f64,
    /// Predicted time under the infinite-bandwidth model (s).
    pub infinite_bw: f64,
    /// Measured wall-clock of the real kernel (s), when requested.
    pub measured: Option<f64>,
}

/// One tile configuration's curve.
#[derive(Debug, Clone)]
pub struct FigSeries {
    /// Label, e.g. `"tiles (64,16,16,128)"`.
    pub label: String,
    /// Points for P ∈ {1,2,4,8}.
    pub points: Vec<FigPoint>,
}

/// **Figures 10–11**: two-index transform time vs processor count for
/// equi-sized tiles {32,64,128,256} and the search-predicted tuple.
///
/// The paper measured a Sun Sunfire; this host substitutes the paper's own
/// §7 cost models (both limits) and optionally measures the real threaded
/// kernels (`measure = true`; on a single-CPU host the measured curve shows
/// correctness and work balance, not speedup).
pub fn figure(n: u64, measure: bool) -> Vec<FigSeries> {
    let p = programs::tiled_two_index();
    let model = MissModel::build(&p);
    let cache = 8192u64;
    // Total multiply-adds: both contractions are N³.
    let ops = 2 * n * n * n;
    let smp = SmpAnalysis::new(&model, "Nn", ops);
    let machine = MachineParams::default();

    // Search-predicted best tuple for this bound.
    let space = SearchSpace {
        tile_syms: vec!["Ti".into(), "Tj".into(), "Tm".into(), "Tn".into()],
        max: vec![n.min(512); 4],
        min: 4,
    };
    let base = Bindings::new()
        .with("Ni", n as i128)
        .with("Nj", n as i128)
        .with("Nm", n as i128)
        .with("Nn", n as i128);
    let best = TileSearcher::new(&model, base, cache, space)
        .pruned()
        .best
        .tiles;

    let mut configs: Vec<(String, (u64, u64, u64, u64))> = [32u64, 64, 128, 256]
        .iter()
        .map(|&t| (format!("equi {t}"), (t, t, t, t)))
        .collect();
    configs.push((
        format!(
            "predicted ({},{},{},{})",
            best[0], best[1], best[2], best[3]
        ),
        (best[0], best[1], best[2], best[3]),
    ));

    configs
        .into_iter()
        .map(|(label, tiles)| {
            let b = t2i_bindings((n, n, n, n), tiles);
            let points = [1u64, 2, 4, 8]
                .iter()
                .map(|&procs| {
                    let bus = smp
                        .predicted_time(&b, cache, procs, &machine, LimitModel::BusLimited)
                        .expect("predict");
                    let inf = smp
                        .predicted_time(&b, cache, procs, &machine, LimitModel::InfiniteBandwidth)
                        .expect("predict");
                    let measured = measure.then(|| {
                        let a = kernels::test_matrix(n as usize, 11);
                        let c1 = kernels::test_matrix(n as usize, 12);
                        let c2 = kernels::test_matrix(n as usize, 13);
                        let t0 = std::time::Instant::now();
                        let _ = kernels::tiled_two_index(
                            &a,
                            &c1,
                            &c2,
                            n as usize,
                            (
                                tiles.0 as usize,
                                tiles.1 as usize,
                                tiles.2 as usize,
                                tiles.3 as usize,
                            ),
                            procs as usize,
                        );
                        t0.elapsed().as_secs_f64()
                    });
                    FigPoint {
                        processors: procs,
                        bus_limited: bus,
                        infinite_bw: inf,
                        measured,
                    }
                })
                .collect();
            FigSeries { label, points }
        })
        .collect()
}

/// **Ablation: associativity / tile copying.** The paper copies tiles so a
/// real cache behaves like the fully associative model. Quantify the
/// conflict misses a non-copied layout suffers at realistic
/// associativities.
pub fn ablation_associativity(scale: Scale) -> Vec<(String, u64)> {
    let n = scale.shrink_bound(256);
    let t = scale.shrink_tile(64);
    let cs = scale.shrink_cache(8192);
    let p = programs::tiled_matmul();
    let b = tmm_bindings((n, n, n), (t, t, t));
    let compiled = CompiledProgram::compile(&p, &b).expect("compile");
    let fa = simulate_stack_distances(&compiled, Granularity::Element).misses(cs);
    let mut out = vec![(format!("fully associative ({cs} elems)"), fa)];
    for ways in [1usize, 2, 4, 8] {
        let mut cache = SetAssocCache::new(cs, ways, 1);
        let stats = sdlo_cachesim::simulate_cache(&compiled, &mut cache);
        out.push((format!("{ways}-way, no copying"), stats.misses));
    }
    out
}

/// **Ablation: line granularity.** Element-granularity (the paper's
/// accounting) vs 8-double cache lines.
pub fn ablation_line(scale: Scale) -> Vec<(String, u64, u64)> {
    let n = scale.shrink_bound(256);
    let cs = scale.shrink_cache(8192);
    let p = programs::tiled_matmul();
    [16u64, 32, 64, 128]
        .iter()
        .map(|&t| {
            let t = scale.shrink_tile(t);
            let b = tmm_bindings((n, n, n), (t, t, t));
            let compiled = CompiledProgram::compile(&p, &b).expect("compile");
            let elem = simulate_stack_distances(&compiled, Granularity::Element).misses(cs);
            let line = simulate_stack_distances(&compiled, Granularity::Line(8)).misses(cs / 8);
            (format!("tiles {t}³"), elem, line)
        })
        .collect()
}

/// **Ablation: pruned vs exhaustive tile search.** Same optimum, fewer
/// full miss evaluations.
pub fn ablation_search() -> Vec<(String, usize, usize, bool)> {
    let model = MissModel::build(&programs::tiled_two_index());
    [256u64, 512, 1024]
        .iter()
        .map(|&n| {
            let base = Bindings::new()
                .with("Ni", n as i128)
                .with("Nj", n as i128)
                .with("Nm", n as i128)
                .with("Nn", n as i128);
            let space = SearchSpace {
                tile_syms: vec!["Ti".into(), "Tj".into(), "Tm".into(), "Tn".into()],
                max: vec![n.min(512); 4],
                min: 4,
            };
            let s = TileSearcher::new(&model, base, 8192, space);
            let pr = s.pruned();
            let ex = s.exhaustive();
            (
                format!("N={n}"),
                pr.frontier.len(),
                ex.evaluations,
                pr.best.tiles == ex.best.tiles,
            )
        })
        .collect()
}

/// **Ablation: limit-model bracket.** Width of the bus-limited vs
/// infinite-bandwidth bracket as processors grow.
pub fn ablation_limits(n: u64) -> Vec<(u64, f64, f64)> {
    let p = programs::tiled_two_index();
    let model = MissModel::build(&p);
    let smp = SmpAnalysis::new(&model, "Nn", 2 * n * n * n);
    let machine = MachineParams::default();
    let b = t2i_bindings((n, n, n, n), (64, 16, 16, 64));
    [1u64, 2, 4, 8, 16]
        .iter()
        .map(|&procs| {
            let bus = smp
                .predicted_time(&b, 8192, procs, &machine, LimitModel::BusLimited)
                .expect("predict");
            let inf = smp
                .predicted_time(&b, 8192, procs, &machine, LimitModel::InfiniteBandwidth)
                .expect("predict");
            (procs, bus, inf)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_renders_nine_components() {
        let t = table1();
        assert_eq!(t.matches("carried by").count(), 6);
        assert_eq!(t.matches("compulsory").count(), 3);
    }

    #[test]
    fn table3_small_scale_is_accurate() {
        for row in table3(Scale::Small) {
            assert!(
                row.rel_error() < 0.05,
                "{}: predicted {} vs actual {}",
                row.config,
                row.predicted,
                row.actual
            );
        }
    }

    #[test]
    fn table2_small_scale_is_accurate() {
        for row in table2(Scale::Small) {
            assert!(
                row.rel_error() < 0.06,
                "{}: predicted {} vs actual {}",
                row.config,
                row.predicted,
                row.actual
            );
        }
    }

    #[test]
    fn table4_unknown_matches_large_known() {
        let (unknown, known) = table4();
        for row in known.iter().filter(|r| r.bound >= 256) {
            assert_eq!(unknown.tiles, row.tiles, "N={}", row.bound);
        }
        // Tiny bounds where everything fits pick the whole problem.
        let tiny = known.iter().find(|r| r.bound == 32).unwrap();
        assert_eq!(tiny.tiles, vec![32, 32, 32, 32]);
    }

    #[test]
    fn figure_predicted_tile_wins_at_every_p() {
        let series = figure(1024, false);
        let predicted = series.last().unwrap();
        assert!(predicted.label.starts_with("predicted"));
        for s in &series[..series.len() - 1] {
            for (a, b) in predicted.points.iter().zip(&s.points) {
                assert!(
                    a.bus_limited <= b.bus_limited,
                    "{}: P={} {} vs {}",
                    s.label,
                    a.processors,
                    a.bus_limited,
                    b.bus_limited
                );
            }
        }
    }

    #[test]
    fn ablation_associativity_shows_conflicts() {
        let rows = ablation_associativity(Scale::Small);
        let fa = rows[0].1;
        let dm = rows[1].1;
        assert!(
            dm > fa,
            "direct-mapped {dm} should exceed fully associative {fa}"
        );
    }
}
