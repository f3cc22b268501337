//! SMP execution planner (paper §7): partition a tensor-contraction loop
//! nest across processors, bracket the shared-memory cost with the two
//! limit models, and verify the parallel kernel against the naive
//! reference.
//!
//! ```text
//! cargo run --release --example smp_planner [N] [--run]
//! ```

use sdlo::core::MissModel;
use sdlo::ir::{programs, Bindings};
use sdlo::parallel::{kernels, LimitModel, MachineParams, SmpAnalysis};
use sdlo::tilesearch::{SearchSpace, TileSearcher};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n: u64 = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .and_then(|s| s.parse().ok())
        .unwrap_or(512);
    let run = args.iter().any(|a| a == "--run");
    let cache = 8192u64; // 64 KB of doubles

    let program = programs::tiled_two_index();
    let model = MissModel::build(&program);

    // Pick tiles with the sequential model applied to ONE PROCESSOR'S
    // subproblem (the paper's per-processor optimization).
    let procs_target = 8i128;
    let base_sub = Bindings::new()
        .with("Ni", n as i128)
        .with("Nj", n as i128)
        .with("Nm", n as i128)
        .with("Nn", n as i128 / procs_target);
    let space = SearchSpace {
        tile_syms: vec!["Ti".into(), "Tj".into(), "Tm".into(), "Tn".into()],
        max: vec![
            n.min(512),
            n.min(512),
            n.min(512),
            (n / procs_target as u64).min(512),
        ],
        min: 4,
    };
    let best = TileSearcher::new(&model, base_sub, cache, space)
        .pruned()
        .best;
    println!(
        "two-index transform, N = {n}: per-processor-optimized tiles {:?}",
        best.tiles
    );

    // Bracket predicted times with the §7 limit models.
    let smp = SmpAnalysis::new(&model, "Nn", 2 * n * n * n);
    let machine = MachineParams::default();
    let full = Bindings::new()
        .with("Ni", n as i128)
        .with("Nj", n as i128)
        .with("Nm", n as i128)
        .with("Nn", n as i128)
        .with("Ti", best.tiles[0] as i128)
        .with("Tj", best.tiles[1] as i128)
        .with("Tm", best.tiles[2] as i128)
        .with("Tn", best.tiles[3] as i128);
    println!(
        "\n{:<6} {:>16} {:>16} {:>16}",
        "P", "per-proc misses", "bus-limited (s)", "infinite-bw (s)"
    );
    for p in [1u64, 2, 4, 8] {
        let misses = smp.per_processor_misses(&full, cache, p).unwrap();
        let bus = smp
            .predicted_time(&full, cache, p, &machine, LimitModel::BusLimited)
            .unwrap();
        let inf = smp
            .predicted_time(&full, cache, p, &machine, LimitModel::InfiniteBandwidth)
            .unwrap();
        println!("{p:<6} {misses:>16} {bus:>16.3} {inf:>16.3}");
    }

    if run {
        println!(
            "\nrunning the real kernel (this host has {} CPUs):",
            std::thread::available_parallelism()
                .map(|v| v.get())
                .unwrap_or(1)
        );
        let a = kernels::test_matrix(n as usize, 1);
        let c1 = kernels::test_matrix(n as usize, 2);
        let c2 = kernels::test_matrix(n as usize, 3);
        let tiles = (
            best.tiles[0] as usize,
            best.tiles[1] as usize,
            best.tiles[2] as usize,
            best.tiles[3] as usize,
        );
        let reference = kernels::naive_two_index(&a, &c1, &c2, n as usize);
        for p in [1usize, 2, 4, 8] {
            let t0 = std::time::Instant::now();
            let b = kernels::tiled_two_index(&a, &c1, &c2, n as usize, tiles, p);
            let dt = t0.elapsed();
            let max_err = b
                .iter()
                .zip(&reference)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f64, f64::max);
            println!("  P={p}: {dt:?} (max |err| vs naive: {max_err:.2e})");
        }
    } else {
        println!("\n(pass --run to execute the threaded kernels and verify numerically)");
    }
}
