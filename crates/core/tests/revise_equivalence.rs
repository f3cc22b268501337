//! Property test: a revise session is *invisible*. After any sequence of
//! random deltas — sparse rebindings and cache-size set swaps — a revised
//! [`ModelDag`] must answer byte-identically to the batch evaluator
//! [`MissModel::predict_misses`] at every tracked size, failures included:
//! a delta `predict_misses` rejects at some size must fail with its error
//! at the smallest such size and leave the DAG's misses and inputs as they
//! were, and one it accepts must also equal a DAG rebuilt from scratch at
//! the accumulated bindings. Values include zero and negative tiles and
//! overflow-sized bounds, so division by zero, negative counts, counts
//! past `i64` and totals past `u64` all come up. The corpus mixes
//! the paper's builtin kernels with programs synthesized by the mini
//! tensor-contraction engine, so the equivalence is exercised on loop
//! nests the builtins' shapes never produce.

use proptest::prelude::*;
use sdlo_core::dag::{DagDelta, ModelDag};
use sdlo_core::{MissModel, ModelError};
use sdlo_ir::programs;
use sdlo_symbolic::{Bindings, Sym};
use std::sync::OnceLock;

/// Corpus programs with their (expensively) prebuilt models, shared across
/// all proptest cases.
fn corpus() -> &'static [(Vec<Sym>, MissModel)] {
    static CORPUS: OnceLock<Vec<(Vec<Sym>, MissModel)>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut progs = vec![
            programs::matmul(),
            programs::tiled_matmul(),
            programs::tiled_two_index(),
            programs::two_index_fused(),
        ];
        let sizes = Bindings::new().with("N", 40).with("V", 40);
        for fuse in [false, true] {
            progs.push(
                sdlo_tce::synthesize(
                    "B[a,b] = C1[a,i] * C2[b,j] * A[i,j]",
                    &[("a", "V"), ("b", "V"), ("i", "N"), ("j", "N")],
                    &sizes,
                    fuse,
                )
                .expect("synthesis succeeds"),
            );
        }
        progs
            .into_iter()
            .map(|p| {
                let mut syms = p.free_symbols().into_iter().collect::<Vec<_>>();
                syms.sort();
                let model = MissModel::build(&p);
                (syms, model)
            })
            .collect()
    })
}

/// Tile symbols (`T…`) are small, zero or negative; every other symbol is
/// a loop bound / extent: ordinary, zero, large enough that the totals
/// leave `u64` or the counts leave `i64`, or large enough that products
/// leave `i128`. Choice 0 is valid for every symbol.
fn value_for(sym: &Sym, choice: u8) -> i128 {
    if sym.name().starts_with('T') {
        [4i128, 8, 16, 32, 1, 0, -8][(choice % 7) as usize]
    } else {
        [64i128, 128, 256, 0, 2_000_000, 1 << 21, 1 << 62][(choice % 7) as usize]
    }
}

const SIZE_SETS: [&[u64]; 3] = [&[1024, 8192], &[512], &[2048, 4096, 16384]];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn revise_matches_rebuild_and_batch_predict(
        program_choice in 0usize..6,
        // Four deltas per case; each rebinds 0–3 of its generated
        // (symbol index, value choice) pairs and, when `size_choice < 3`,
        // also swaps the tracked cache-size set (≥ 3 leaves it alone).
        deltas in proptest::collection::vec(
            (proptest::collection::vec((0usize..16, 0u8..12), 3),
             0usize..4,
             0u8..6),
            4,
        ),
    ) {
        let (syms, model) = &corpus()[program_choice];

        // Full initial bindings: every free symbol bound.
        let mut current = Bindings::new();
        for s in syms {
            current.set(s.name(), value_for(s, 0));
        }
        let mut sizes: Vec<u64> = SIZE_SETS[0].to_vec();
        let mut dag = ModelDag::new(model, current.clone(), &sizes).unwrap();

        for (rebinds, rebind_count, size_choice) in &deltas {
            let mut delta = DagDelta::default();
            let mut staged = current.clone();
            for (sym_idx, choice) in &rebinds[..*rebind_count.min(&rebinds.len())] {
                let s = &syms[sym_idx % syms.len()];
                let v = value_for(s, *choice);
                delta.bindings.set(s.name(), v);
                staged.set(s.name(), v);
            }
            let mut staged_sizes = sizes.clone();
            if (*size_choice as usize) < SIZE_SETS.len() {
                staged_sizes = SIZE_SETS[*size_choice as usize].to_vec();
                delta.cache_sizes = Some(staged_sizes.clone());
            }
            let before = dag.misses();

            // The batch evaluator per tracked size, ascending, up to the
            // first size it fails at.
            let want: Result<Vec<(u64, u64)>, ModelError> = staged_sizes
                .iter()
                .map(|&size| model.predict_misses(&staged, size).map(|m| (size, m)))
                .collect();
            let got = dag.revise(&delta).map(|outcome| outcome.misses);
            prop_assert_eq!(&got, &want, "program {}", program_choice);

            if got.is_ok() {
                current = staged;
                sizes = staged_sizes;
                // Byte-identical to a from-scratch DAG at the same state.
                let fresh = ModelDag::new(model, current.clone(), &sizes).unwrap();
                prop_assert_eq!(dag.misses(), fresh.misses());
            } else {
                // A failed delta commits nothing.
                prop_assert_eq!(dag.misses(), before);
            }
            // The committed state is `current` at `sizes`: restating it
            // runs no ops.
            let restated = dag
                .revise(&DagDelta {
                    bindings: current.clone(),
                    cache_sizes: Some(sizes.clone()),
                })
                .unwrap();
            prop_assert_eq!(restated.nodes_reevaluated, 0);
            prop_assert_eq!(restated.misses, dag.misses());
        }
    }
}
