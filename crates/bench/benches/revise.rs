//! Warm revise vs cold rebuild: a live [`ModelDag`] keeps its model
//! compiled to a tape, so each point of a tile sweep through `revise` is
//! one run of that tape, and a 64-point sweep must be much cheaper than
//! building a fresh DAG (compiling the tape, then running it) at each
//! point. The bench asserts byte-identical miss counts between the two
//! paths and with `predict_misses`, gates on a 5x warm-sweep speedup, and
//! archives the measurement in `results/revise.json`.

use criterion::{criterion_group, Criterion};
use sdlo_core::dag::{DagDelta, ModelDag};
use sdlo_core::MissModel;
use sdlo_ir::{programs, Bindings};
use std::hint::black_box;
use std::time::Instant;

const N: i128 = 512;
const CACHE: u64 = 8192;
const TILES: [i128; 4] = [8, 16, 32, 64];

fn base_bindings() -> Bindings {
    Bindings::new().with("Ni", N).with("Nj", N).with("Nk", N)
}

/// The 64-point sweep grid: every (Ti, Tj, Tk) over [`TILES`].
fn sweep_points() -> Vec<(i128, i128, i128)> {
    let mut points = Vec::new();
    for ti in TILES {
        for tj in TILES {
            for tk in TILES {
                points.push((ti, tj, tk));
            }
        }
    }
    points
}

fn bindings_for((ti, tj, tk): (i128, i128, i128)) -> Bindings {
    base_bindings().with("Ti", ti).with("Tj", tj).with("Tk", tk)
}

/// Cold path: a fresh DAG per point — the tape compiled and run.
fn sweep_cold(model: &MissModel, points: &[(i128, i128, i128)]) -> Vec<u64> {
    points
        .iter()
        .map(|p| {
            ModelDag::new(model, bindings_for(*p), &[CACHE])
                .expect("model evaluation")
                .misses_for(CACHE)
                .expect("tracked size")
        })
        .collect()
}

/// Warm path: one DAG, revised through every point.
fn sweep_warm(dag: &mut ModelDag, points: &[(i128, i128, i128)]) -> Vec<u64> {
    points
        .iter()
        .map(|(ti, tj, tk)| {
            let delta = DagDelta {
                bindings: Bindings::new()
                    .with("Ti", *ti)
                    .with("Tj", *tj)
                    .with("Tk", *tk),
                cache_sizes: None,
            };
            dag.revise(&delta).expect("model evaluation");
            dag.misses_for(CACHE).expect("tracked size")
        })
        .collect()
}

fn bench_revise(c: &mut Criterion) {
    let model = MissModel::build(&programs::tiled_matmul());
    let points = sweep_points();
    let mut dag = ModelDag::new(&model, bindings_for(points[0]), &[CACHE]).unwrap();
    let mut g = c.benchmark_group("revise");
    g.sample_size(10);
    g.bench_function("sweep64/cold_rebuild", |b| {
        b.iter(|| black_box(sweep_cold(&model, &points)));
    });
    g.bench_function("sweep64/warm_revise", |b| {
        b.iter(|| black_box(sweep_warm(&mut dag, &points)));
    });
    g.finish();
}

criterion_group!(benches, bench_revise);

/// Median seconds per call over `samples` runs of `f`.
fn median_secs(samples: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn main() {
    benches();

    let model = MissModel::build(&programs::tiled_matmul());
    let points = sweep_points();

    // Correctness before speed: the warm sweep must agree with the cold
    // sweep and with the batch evaluator at every point.
    let cold = sweep_cold(&model, &points);
    let mut dag = ModelDag::new(&model, bindings_for(points[0]), &[CACHE]).unwrap();
    let warm = sweep_warm(&mut dag, &points);
    assert_eq!(cold, warm, "warm revise sweep diverged from cold rebuilds");
    for (p, misses) in points.iter().zip(&warm) {
        let batch = model
            .predict_misses(&bindings_for(*p), CACHE)
            .expect("model evaluation");
        assert_eq!(*misses, batch, "revise diverged from predict at {p:?}");
    }

    let cold_secs = median_secs(7, || {
        black_box(sweep_cold(&model, &points));
    });
    let warm_secs = median_secs(7, || {
        black_box(sweep_warm(&mut dag, &points));
    });
    let speedup = cold_secs / warm_secs;
    let summary = format!(
        "{{\"program\":\"tiled_matmul\",\"n\":{N},\"cache\":{CACHE},\
         \"points\":{},\"full_rebuild_micros\":{:.1},\"revise_micros\":{:.1},\
         \"speedup\":{speedup:.2},\"identical\":true}}\n",
        points.len(),
        cold_secs * 1e6,
        warm_secs * 1e6,
    );
    println!(
        "revise/sweep64 on tiled_matmul (N={N}, cache={CACHE}): \
         cold {:.1} us, warm {:.1} us, speedup {speedup:.2}x",
        cold_secs * 1e6,
        warm_secs * 1e6
    );

    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results");
    let _ = std::fs::create_dir_all(&results);
    std::fs::write(results.join("revise.json"), &summary).expect("write results/revise.json");

    assert!(
        speedup >= 5.0,
        "warm revise sweep must be at least 5x cheaper than cold \
         rebuilds over the 64-point grid, measured {speedup:.2}x"
    );
}
