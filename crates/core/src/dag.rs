//! Revision of a built [`MissModel`] under a stream of changing bindings
//! and cache sizes: the `revise` op's session state.
//!
//! ## State
//!
//! - **The tape**: the model's [`Tape`], a function of the model alone
//!   with every symbol the components read as an input, so a rebinding is
//!   only a new input value. [`ModelDag::on_tape`] shares a tape compiled
//!   elsewhere (the service's cache entry compiles one per model, for its
//!   tile searches and its `revise` session alike); [`ModelDag::new`]
//!   compiles its own.
//! - **Inputs**: the current value of each tape input. A binding for a
//!   symbol no component reads is not kept, so a session's state does not
//!   grow with the symbols its deltas name.
//! - **Cache sizes and totals**: the tracked sizes, ascending and deduped,
//!   and the total predicted misses at each.
//!
//! ## Revision
//!
//! [`ModelDag::revise`] stages the delta's bindings and cache-size set. A
//! delta that changes no input value and no cache size runs nothing. Any
//! other delta runs the tape's misses program once and prices every
//! tracked size from that run ([`Tape::misses_at`]), with the tree walk's
//! checked arithmetic, so a DAG answers what [`MissModel::predict_misses`]
//! answers at its bindings, errors included. Nothing tracks which values a
//! delta reaches: on the builtins a whole run, in `i64` unless a value
//! leaves it, takes 0.14–0.5 µs on a 2-vCPU host (bounds 512, tiles 32),
//! less than per-expression dirty tracking spent deciding what to skip
//! (3.6–36 µs per revise).
//!
//! Revision is transactional: the state commits only when the run
//! succeeds, so a failed delta (division by zero, negative count,
//! overflow) leaves the DAG answering for its previous state.

use crate::model::{MissModel, ModelError};
use crate::tape::Tape;
use sdlo_symbolic::Bindings;
use std::sync::Arc;

/// A structured change to a live [`ModelDag`]: sparse symbol rebindings
/// (tile sizes, loop bounds) and/or a replacement cache-size set.
#[derive(Debug, Clone, Default)]
pub struct DagDelta {
    /// Symbols to rebind; symbols not mentioned keep their values.
    pub bindings: Bindings,
    /// When present, replaces the tracked cache-size set (sorted, deduped).
    pub cache_sizes: Option<Vec<u64>>,
}

/// What one [`ModelDag::revise`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReviseOutcome {
    /// Tape ops run: all of them, or none when nothing changed.
    pub nodes_reevaluated: u64,
    /// Tape ops not run.
    pub nodes_reused: u64,
    /// Total predicted misses per tracked cache size, ascending.
    pub misses: Vec<(u64, u64)>,
}

/// The live model: build once from a [`MissModel`], then feed it
/// [`DagDelta`]s.
///
/// ```
/// use sdlo_core::dag::{DagDelta, ModelDag};
/// use sdlo_core::MissModel;
/// use sdlo_ir::{programs, Bindings};
///
/// let model = MissModel::build(&programs::tiled_matmul());
/// let b = Bindings::new()
///     .with("Ni", 512).with("Nj", 512).with("Nk", 512)
///     .with("Ti", 32).with("Tj", 32).with("Tk", 32);
/// let mut dag = ModelDag::new(&model, b, &[8192]).unwrap();
/// assert_eq!(dag.misses(), vec![(8192, 8_650_752)]);
///
/// // Retile: one run of the tape prices the new point.
/// let delta = DagDelta {
///     bindings: Bindings::new().with("Ti", 64).with("Tj", 64).with("Tk", 64),
///     cache_sizes: None,
/// };
/// let out = dag.revise(&delta).unwrap();
/// assert_eq!(out.misses, vec![(8192, 6_291_456)]); // Table 3 value
/// assert_eq!(out.nodes_reevaluated, dag.op_count() as u64);
/// ```
#[derive(Debug, Clone)]
pub struct ModelDag {
    tape: Arc<Tape>,
    /// The current value of each of the tape's inputs.
    inputs: Vec<i128>,
    /// Tracked cache sizes, ascending and deduped.
    cache_sizes: Vec<u64>,
    /// Per-size totals, parallel to `cache_sizes`.
    totals: Vec<u64>,
}

fn sorted(sizes: &[u64]) -> Vec<u64> {
    let mut sizes = sizes.to_vec();
    sizes.sort_unstable();
    sizes.dedup();
    sizes
}

impl ModelDag {
    /// Build the DAG from a built model, an initial full binding set, and
    /// the cache sizes to track: compile the model's tape, then
    /// [`ModelDag::on_tape`].
    pub fn new(
        model: &MissModel,
        bindings: Bindings,
        cache_sizes: &[u64],
    ) -> Result<Self, ModelError> {
        Self::on_tape(Arc::new(Tape::compile(model)), &bindings, cache_sizes)
    }

    /// Build the DAG on a model's shared `tape`: bind every input from
    /// `bindings` and run the tape once. Fails with
    /// [`EvalError::Unbound`](sdlo_symbolic::EvalError::Unbound) for the
    /// first input `bindings` leaves unbound, before any op runs, and
    /// otherwise with the error [`MissModel::predict_misses`] gives at
    /// `bindings` and the smallest failing size.
    pub fn on_tape(
        tape: Arc<Tape>,
        bindings: &Bindings,
        cache_sizes: &[u64],
    ) -> Result<Self, ModelError> {
        let span = sdlo_trace::span(sdlo_trace::names::REVISE_DAG_BUILD);
        let inputs = tape.bind(bindings)?;
        let cache_sizes = sorted(cache_sizes);
        let totals = tape.misses_at(&inputs, &cache_sizes)?;
        span.add("ops", tape.op_count() as u64);
        span.add("cache_sizes", cache_sizes.len() as u64);
        Ok(ModelDag {
            tape,
            inputs,
            cache_sizes,
            totals,
        })
    }

    /// Apply one structured delta: rebind symbols, optionally replace the
    /// cache-size set, and run the tape once if either changed.
    pub fn revise(&mut self, delta: &DagDelta) -> Result<ReviseOutcome, ModelError> {
        let span = sdlo_trace::span(sdlo_trace::names::REVISE_APPLY_DELTA);
        let inputs: Vec<i128> = self
            .tape
            .inputs()
            .iter()
            .zip(&self.inputs)
            .map(|(s, v)| delta.bindings.get(s).unwrap_or(*v))
            .collect();
        let sizes = delta.cache_sizes.as_deref().map(sorted);
        let ops = self.tape.op_count() as u64;
        let mut run = 0;
        if inputs != self.inputs || sizes.as_ref().is_some_and(|s| *s != self.cache_sizes) {
            let sizes = sizes.unwrap_or_else(|| self.cache_sizes.clone());
            self.totals = self.tape.misses_at(&inputs, &sizes)?;
            self.inputs = inputs;
            self.cache_sizes = sizes;
            run = ops;
        }
        span.add("nodes_reevaluated", run);
        span.add("nodes_reused", ops - run);
        Ok(ReviseOutcome {
            nodes_reevaluated: run,
            nodes_reused: ops - run,
            misses: self.misses(),
        })
    }

    /// Current totals per tracked cache size, ascending.
    pub fn misses(&self) -> Vec<(u64, u64)> {
        self.cache_sizes
            .iter()
            .copied()
            .zip(self.totals.iter().copied())
            .collect()
    }

    /// Current total for one tracked cache size.
    pub fn misses_for(&self, cache_size: u64) -> Option<u64> {
        self.cache_sizes
            .binary_search(&cache_size)
            .ok()
            .map(|k| self.totals[k])
    }

    /// Ops on the tape's misses program: what a revision that changes
    /// something runs.
    pub fn op_count(&self) -> usize {
        self.tape.op_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdlo_ir::programs;
    use sdlo_symbolic::EvalError;

    fn tmm(n: i128, t: (i128, i128, i128)) -> Bindings {
        Bindings::new()
            .with("Ni", n)
            .with("Nj", n)
            .with("Nk", n)
            .with("Ti", t.0)
            .with("Tj", t.1)
            .with("Tk", t.2)
    }

    #[test]
    fn matches_cold_rebuild_on_table3_cases() {
        let model = MissModel::build(&programs::tiled_matmul());
        let mut dag = ModelDag::new(&model, tmm(512, (32, 32, 32)), &[2048, 8192]).unwrap();
        let cases = [
            (512, (64, 64, 64)),
            (512, (128, 128, 128)),
            (256, (64, 32, 32)),
            (256, (64, 64, 64)),
            (256, (32, 64, 128)),
        ];
        for (n, t) in cases {
            let out = dag
                .revise(&DagDelta {
                    bindings: tmm(n, t),
                    cache_sizes: None,
                })
                .unwrap();
            for (cs, got) in out.misses {
                let want = model.predict_misses(&tmm(n, t), cs).unwrap();
                assert_eq!(got, want, "N={n} tiles={t:?} CS={cs}");
            }
        }
    }

    #[test]
    fn changed_input_reruns_every_op_once() {
        let model = MissModel::build(&programs::tiled_matmul());
        let sizes = [2048, 8192];
        let mut dag = ModelDag::new(&model, tmm(512, (32, 32, 32)), &sizes).unwrap();
        let out = dag
            .revise(&DagDelta {
                bindings: Bindings::new().with("Ti", 64),
                cache_sizes: None,
            })
            .unwrap();
        assert!(dag.op_count() > 0);
        assert_eq!(out.nodes_reevaluated, dag.op_count() as u64, "{out:?}");
        assert_eq!(out.nodes_reused, 0, "{out:?}");
        let b = tmm(512, (64, 32, 32));
        let want: Vec<(u64, u64)> = sizes
            .iter()
            .map(|&cs| (cs, model.predict_misses(&b, cs).unwrap()))
            .collect();
        assert_eq!(out.misses, want);
    }

    #[test]
    fn noop_delta_reuses_everything() {
        let model = MissModel::build(&programs::tiled_matmul());
        let mut dag = ModelDag::new(&model, tmm(256, (64, 64, 64)), &[2048, 8192]).unwrap();
        let before = dag.misses();
        // Rebinding a symbol to its value, binding one no component reads,
        // or restating the size set in another order changes nothing.
        for delta in [
            DagDelta::default(),
            DagDelta {
                bindings: Bindings::new().with("Ti", 64).with("Unused", 3),
                cache_sizes: Some(vec![8192, 2048, 8192]),
            },
        ] {
            let out = dag.revise(&delta).unwrap();
            assert_eq!(out.nodes_reevaluated, 0);
            assert_eq!(out.nodes_reused, dag.op_count() as u64);
            assert_eq!(out.misses, before);
        }
    }

    #[test]
    fn cache_size_delta_reprices_every_size() {
        let model = MissModel::build(&programs::tiled_matmul());
        let b = tmm(512, (64, 64, 64));
        let mut dag = ModelDag::new(&model, b.clone(), &[8192]).unwrap();
        let out = dag
            .revise(&DagDelta {
                bindings: Bindings::new(),
                cache_sizes: Some(vec![8192, 2048]),
            })
            .unwrap();
        assert_eq!(out.nodes_reevaluated, dag.op_count() as u64);
        assert_eq!(out.nodes_reused, 0);
        assert_eq!(
            out.misses,
            vec![
                (2048, model.predict_misses(&b, 2048).unwrap()),
                (8192, model.predict_misses(&b, 8192).unwrap()),
            ]
        );
        assert_eq!(dag.misses_for(2048), Some(out.misses[0].1));
        assert_eq!(dag.misses_for(4096), None);
    }

    #[test]
    fn failed_revise_leaves_state_intact() {
        let model = MissModel::build(&programs::tiled_matmul());
        let mut dag = ModelDag::new(&model, tmm(256, (32, 32, 32)), &[2048]).unwrap();
        let before = dag.misses();
        // Unbinding is impossible via a delta, but a division by zero is
        // reachable: Ti = 0 makes ceil-div terms blow up. The failed
        // delta's new size set is not kept either.
        let err = dag.revise(&DagDelta {
            bindings: Bindings::new().with("Ti", 0),
            cache_sizes: Some(vec![512]),
        });
        assert_eq!(err, Err(ModelError::Eval(EvalError::DivisionByZero)));
        assert_eq!(dag.misses(), before);
        // The committed values are the ones before the failed delta:
        // restating them runs nothing.
        let out = dag
            .revise(&DagDelta {
                bindings: tmm(256, (32, 32, 32)),
                cache_sizes: Some(vec![2048]),
            })
            .unwrap();
        assert_eq!(out.nodes_reevaluated, 0, "{out:?}");
        assert_eq!(out.misses, before);
        // Still serviceable after the failure.
        let out = dag
            .revise(&DagDelta {
                bindings: Bindings::new().with("Ti", 64),
                cache_sizes: None,
            })
            .unwrap();
        let want = model
            .predict_misses(&tmm(256, (32, 32, 32)).with("Ti", 64), 2048)
            .unwrap();
        assert_eq!(out.misses, vec![(2048, want)]);
    }

    #[test]
    fn overflowing_totals_fail_like_predict() {
        // Every count fits in i64, but at cache size 1 the total overflows
        // u64; at a size past every distance, fewer components miss.
        let model = MissModel::build(&programs::tiled_matmul());
        let huge = tmm(2_000_000, (1, 1, 1));
        let want = ModelError::Eval(EvalError::Overflow);
        assert_eq!(model.predict_misses(&huge, 1), Err(want.clone()));
        assert_eq!(
            ModelDag::new(&model, huge.clone(), &[1, 1 << 40]).err(),
            Some(want.clone())
        );

        let mut dag = ModelDag::new(&model, tmm(64, (8, 8, 8)), &[1]).unwrap();
        let before = dag.misses();
        let delta = DagDelta {
            bindings: huge,
            cache_sizes: None,
        };
        assert_eq!(dag.revise(&delta).err(), Some(want));
        assert_eq!(dag.misses(), before);
    }

    #[test]
    fn two_index_program_agrees_across_deltas() {
        let model = MissModel::build(&programs::tiled_two_index());
        let base = Bindings::new()
            .with("Ni", 64)
            .with("Nj", 64)
            .with("Nm", 64)
            .with("Nn", 64)
            .with("Ti", 16)
            .with("Tj", 8)
            .with("Tm", 8)
            .with("Tn", 16);
        let sizes = [256u64, 4096, 65536];
        let mut dag = ModelDag::new(&model, base.clone(), &sizes).unwrap();
        let mut current = base;
        for (sym, val) in [("Ti", 8), ("Nn", 128), ("Tm", 32), ("Nj", 32)] {
            let out = dag
                .revise(&DagDelta {
                    bindings: Bindings::new().with(sym, val),
                    cache_sizes: None,
                })
                .unwrap();
            current.set(sym, val);
            for (cs, got) in out.misses {
                let want = model.predict_misses(&current, cs).unwrap();
                assert_eq!(got, want, "{sym}={val} CS={cs}");
            }
        }
    }

    #[test]
    fn unbound_symbols_fail_the_build_like_predict() {
        // Leaving any free symbol unbound fails the build with the tree
        // walk's `Unbound` error.
        let p = programs::tiled_matmul();
        let model = MissModel::build(&p);
        let full = tmm(64, (8, 8, 8));
        for s in p.free_symbols() {
            let b: Bindings = full
                .iter()
                .filter(|(t, _)| **t != s)
                .map(|(t, v)| (t.clone(), v))
                .collect();
            let err = ModelDag::new(&model, b.clone(), &[1024]).unwrap_err();
            assert_eq!(err, ModelError::Eval(EvalError::Unbound(s.clone())));
            assert_eq!(Err(err), model.predict_misses(&b, 1024));
        }
    }
}
