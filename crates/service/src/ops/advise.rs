//! `advise` — tile-size search over the memoized model: pruned (§6) or
//! exhaustive over concrete bounds, or the bounds-free §6 variant, under an
//! optional wall-clock / evaluation budget.

use crate::api::{self, schema, ApiError, ErrorKind, ProgramSpec};
use crate::engine::{Engine, OpResult};
use crate::ops::{OpCtx, ServiceOp};
use sdlo_symbolic::Bindings;
use sdlo_tilesearch::{SearchBudget, SearchSpace, TileSearcher};
use sdlo_wire::{outcome_to_value, Value};
use std::time::{Duration, Instant};

/// Maximum tile-search grid points per `advise`.
const MAX_SEARCH_POINTS: u64 = 65_536;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchMode {
    Pruned,
    Exhaustive,
}

/// What `advise` searches against: concrete loop bounds, or the §6
/// bounds-free variant.
#[derive(Debug)]
pub enum AdviseTarget {
    Bound {
        bindings: Bindings,
        mode: SearchMode,
    },
    BoundsFree {
        bounds: Vec<String>,
        nominal: i128,
    },
}

#[derive(Debug)]
pub struct Advise {
    pub program: ProgramSpec,
    pub cache: u64,
    pub space: SearchSpace,
    pub target: AdviseTarget,
    /// Wall-clock budget for the tile search, from dispatch.
    pub deadline_ms: Option<u64>,
    /// Model-evaluation cap for the tile search.
    pub max_evals: Option<usize>,
}

pub(crate) fn parse(request: &Value) -> Result<Advise, ApiError> {
    let program = api::program_spec(request, true)?;
    let cache = api::cache_elements(request)?;
    let space = decode_space(request)?;
    let target = if let Some(bf) = request.get("bounds_free") {
        let bounds: Vec<String> = bf
            .get("bounds")
            .and_then(Value::as_array)
            .ok_or_else(|| schema("`bounds_free.bounds` must be an array"))?
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| schema("bound symbols must be strings"))
            })
            .collect::<Result<_, _>>()?;
        let nominal = match bf.get("nominal") {
            None => 1_000_000,
            Some(v) => v
                .as_i64()
                .filter(|n| *n > 0)
                .ok_or_else(|| schema("`bounds_free.nominal` must be a positive integer"))?,
        } as i128;
        AdviseTarget::BoundsFree { bounds, nominal }
    } else {
        let mode = match request
            .get("mode")
            .and_then(Value::as_str)
            .unwrap_or("pruned")
        {
            "pruned" => SearchMode::Pruned,
            "exhaustive" => SearchMode::Exhaustive,
            other => {
                return Err(schema(format!(
                    "unknown mode `{other}` (expected pruned | exhaustive)"
                )))
            }
        };
        AdviseTarget::Bound {
            bindings: api::bindings(request)?,
            mode,
        }
    };
    let deadline_ms = match request.get("deadline_ms") {
        None => None,
        Some(v) => Some(
            v.as_u64()
                .ok_or_else(|| schema("`deadline_ms` must be a non-negative integer"))?,
        ),
    };
    let max_evals = match request.get("max_evals") {
        None => None,
        Some(v) => Some(
            v.as_u64()
                .ok_or_else(|| schema("`max_evals` must be a non-negative integer"))?
                as usize,
        ),
    };
    Ok(Advise {
        program,
        cache,
        space,
        target,
        deadline_ms,
        max_evals,
    })
}

fn decode_space(request: &Value) -> Result<SearchSpace, ApiError> {
    let v = request
        .get("space")
        .ok_or_else(|| schema("missing `space` {syms, max, min}"))?;
    let syms: Vec<String> = v
        .get("syms")
        .and_then(Value::as_array)
        .ok_or_else(|| schema("`space.syms` must be an array of strings"))?
        .iter()
        .map(|s| {
            s.as_str()
                .map(str::to_string)
                .ok_or_else(|| schema("`space.syms` must be strings"))
        })
        .collect::<Result<_, _>>()?;
    let max: Vec<u64> = v
        .get("max")
        .and_then(Value::as_array)
        .ok_or_else(|| schema("`space.max` must be an array of integers"))?
        .iter()
        .map(|m| {
            m.as_u64()
                .ok_or_else(|| schema("`space.max` must be non-negative"))
        })
        .collect::<Result<_, _>>()?;
    if syms.is_empty() || syms.len() != max.len() {
        return Err(schema(
            "`space.syms` and `space.max` must align and be non-empty",
        ));
    }
    let repeated = (1..syms.len()).find(|&k| syms[..k].contains(&syms[k]));
    if let Some(k) = repeated {
        return Err(schema(format!("`space.syms` names `{}` twice", syms[k])));
    }
    let min = match v.get("min") {
        None => 4,
        Some(m) => m
            .as_u64()
            .filter(|m| *m > 0)
            .ok_or_else(|| schema("`space.min` must be a positive integer"))?,
    };
    if max.iter().any(|m| *m < min) {
        return Err(schema("every `space.max` must be ≥ `space.min`"));
    }
    Ok(SearchSpace {
        tile_syms: syms,
        max,
        min,
    })
}

/// Grid-size cap: the schema checks already ran at parse time; the cap is
/// service policy.
fn check_grid(space: &SearchSpace) -> Result<(), ApiError> {
    let points = api::grid_points(space);
    if points > MAX_SEARCH_POINTS {
        return Err(api::fail(
            ErrorKind::Limit,
            format!("search grid of {points} points exceeds max_search_points={MAX_SEARCH_POINTS}"),
        ));
    }
    Ok(())
}

pub struct AdviseOp;

impl ServiceOp for AdviseOp {
    fn name(&self) -> &'static str {
        "advise"
    }

    fn serve(&self, engine: &Engine, ctx: &OpCtx<'_>) -> OpResult {
        let request = parse(ctx.request)?;
        let resolved = ctx.resolve(request.program)?;
        let program = &resolved.program;
        check_grid(&request.space)?;
        let space = request.space;
        let (cached, hit) = engine.model_for(&resolved);
        let budget = SearchBudget {
            deadline: request
                .deadline_ms
                .map(|ms| Instant::now() + Duration::from_millis(ms)),
            max_evaluations: request.max_evals,
        };

        let outcome = match request.target {
            AdviseTarget::BoundsFree { bounds, nominal } => {
                let mut covered: Vec<&str> = bounds.iter().map(String::as_str).collect();
                let tile_strs: Vec<&str> = space.tile_syms.iter().map(String::as_str).collect();
                covered.extend(&tile_strs);
                engine.require_covered(program, &covered)?;
                let bound_refs: Vec<&str> = bounds.iter().map(String::as_str).collect();
                TileSearcher::bounds_free_with(
                    &cached.model,
                    &bound_refs,
                    nominal,
                    request.cache,
                    space.clone(),
                    &budget,
                )
            }
            AdviseTarget::Bound { bindings, mode } => {
                engine.require_bound(program, &bindings, &space.tile_syms)?;
                TileSearcher::on_tape(cached.tape(), &bindings, request.cache, space.clone())
                    .and_then(|searcher| match mode {
                        SearchMode::Pruned => searcher.pruned_with(&budget),
                        SearchMode::Exhaustive => searcher.exhaustive_with(&budget),
                    })
            }
        }
        .map_err(|e| api::fail(ErrorKind::Eval, e.to_string()))?;
        if !outcome.completed {
            engine
                .metrics
                .searches_cancelled
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        Ok(vec![
            ("outcome", outcome_to_value(&space.tile_syms, &outcome)),
            ("completed", Value::from(outcome.completed)),
            ("wall_micros", Value::from(outcome.wall_micros)),
            ("cache_hit", Value::from(hit)),
            (
                "shape",
                Value::from(format!("{:016x}", cached.canonical.hash)),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::ops::spans_of;

    fn doc(s: &str) -> Value {
        sdlo_wire::parse(s).unwrap()
    }

    #[test]
    fn advise_parses_budget_fields() {
        let a = parse(&doc(
            r#"{"op":"advise","program":"tiled_matmul","cache":4096,
                "bindings":{"Ni":64,"Nj":64,"Nk":64},
                "space":{"syms":["Ti","Tj","Tk"],"max":[64,64,64],"min":4},
                "deadline_ms":250,"max_evals":1000}"#,
        ))
        .unwrap();
        assert_eq!(a.deadline_ms, Some(250));
        assert_eq!(a.max_evals, Some(1000));
        assert!(matches!(
            a.target,
            AdviseTarget::Bound {
                mode: SearchMode::Pruned,
                ..
            }
        ));

        let err = parse(&doc(r#"{"op":"advise","program":"x","cache":1,
                "space":{"syms":["T"],"max":[8],"min":4},
                "deadline_ms":"soon"}"#))
        .unwrap_err();
        assert_eq!(err.kind, ErrorKind::Schema);

        // Absent search fields keep their defaults.
        let free = parse(&doc(r#"{"op":"advise","program":"x","cache":1,
                "space":{"syms":["T"],"max":[8]},"bounds_free":{"bounds":["N"]}}"#))
        .unwrap();
        assert_eq!(free.space.min, 4);
        assert!(matches!(
            free.target,
            AdviseTarget::BoundsFree {
                nominal: 1_000_000,
                ..
            }
        ));
    }

    #[test]
    fn bound_searches_borrow_the_cached_models_tape() {
        // The first `advise` on a shape compiles the cache entry's tape;
        // bound searches after it, in either mode and at any bounds,
        // compile none. A bounds-free search filters the model, so it
        // compiles its own. The shape's `revise` session runs the same
        // tape, whichever op comes first.
        let engine = Engine::new(EngineConfig::default());
        let advise = |fields: &str| {
            format!(
                r#"{{"op":"advise","program":"tiled_matmul","cache":4096,"space":{{"syms":["Ti","Tj","Tk"],"max":[64,64,64],"min":4}},{fields}}}"#
            )
        };
        // Each span name `line` records, counted.
        let spans = |engine: &Engine, line: &str| {
            let mut counts = std::collections::BTreeMap::new();
            for name in spans_of(engine, line) {
                *counts.entry(name).or_insert(0) += 1;
            }
            counts
        };
        let compiles = |engine: &Engine, line: &str| {
            let counts = spans(engine, line);
            counts.get("tape.compile").copied().unwrap_or(0)
        };
        let bound = advise(r#""bindings":{"Ni":128,"Nj":128,"Nk":128}"#);
        assert_eq!(compiles(&engine, &bound), 1);
        assert_eq!(compiles(&engine, &bound), 0);
        let exhaustive = advise(r#""bindings":{"Ni":512,"Nj":512,"Nk":512},"mode":"exhaustive""#);
        assert_eq!(compiles(&engine, &exhaustive), 0);
        assert_eq!(
            compiles(
                &engine,
                &advise(r#""bounds_free":{"bounds":["Ni","Nj","Nk"]}"#)
            ),
            1
        );

        // A cold `revise` on the advised shape builds its session on the
        // entry's tape.
        let base = sdlo_ir::canonicalize(&sdlo_ir::programs::tiled_matmul()).hash;
        let revise = format!(
            r#"{{"op":"revise","base":"{base:016x}","program":"tiled_matmul","delta":{{"bindings":{{"Ni":64,"Nj":64,"Nk":64,"Ti":8,"Tj":8,"Tk":8}},"cache_sizes":[512]}}}}"#
        );
        let cold = spans(&engine, &revise);
        assert_eq!(cold.get(sdlo_trace::names::REVISE_FULL_BUILD), Some(&1));
        assert_eq!(cold.get("tape.compile"), None);

        // On a fresh engine, the `revise` compiles the tape and an
        // `advise` after it compiles none.
        let fresh = Engine::new(EngineConfig::default());
        let cold = spans(&fresh, &revise);
        assert_eq!(cold.get(sdlo_trace::names::REVISE_FULL_BUILD), Some(&1));
        assert_eq!(cold.get("tape.compile"), Some(&1));
        assert_eq!(compiles(&fresh, &bound), 0);
    }
}
