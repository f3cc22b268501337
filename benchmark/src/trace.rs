//! Part (b) of a traced run: replay a workload's first requests in-process,
//! first through `Engine::handle_line`, then through each layer's public
//! function, one span per call.
//!
//! Spans are kept in memory and written once, at the end, as a Chrome
//! trace. Each request has a `bench.request` span; the layer spans it
//! causes are its children and carry its request id, so a layer's self
//! time is its span minus its children. Timings reported as metrics come
//! from the monotonic clock around each call, not from the microsecond
//! span stamps.

use crate::gen::{Prog, Query, Search, Spec, Stream, NOMINAL, TILE_MIN};
use crate::layers::{self, MissModel, ModelDag, Program, Value};
use crate::oracle::{Catalog, Expect};
use crate::report::Outcome;
use crate::stats::median;
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// Requests replayed in-process, at most.
const REPLAY_MAX: usize = 2000;

/// Samples per layer, in µs, plus per-layer counts.
#[derive(Default)]
pub struct Recorder {
    times: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, f64>,
}

impl Recorder {
    /// Call `f` as layer `name` of request `rid`.
    pub fn timed<T>(&mut self, name: &'static str, rid: &str, f: impl FnOnce() -> T) -> T {
        let _span = layers::span(name, rid);
        let started = Instant::now();
        let out = f();
        self.times
            .entry(name)
            .or_default()
            .push(started.elapsed().as_secs_f64() * 1e6);
        out
    }

    pub fn count(&mut self, name: &'static str, n: f64) {
        *self.counts.entry(name).or_default() += n;
    }

    fn p50(&self, name: &str) -> f64 {
        self.times.get(name).map_or(0.0, |v| median(v))
    }

    fn total(&self, name: &str) -> f64 {
        self.times.get(name).map_or(0.0, |v| v.iter().sum())
    }

    fn calls(&self, name: &str) -> f64 {
        self.times.get(name).map_or(0.0, |v| v.len() as f64)
    }

    /// The per-layer metrics these samples support.
    pub fn report(&self, out: &mut Outcome) {
        for (metric, layer, scale) in [
            ("wire.parse_us.p50", "wire.parse", 1.0),
            ("wire.program_decode_us.p50", "wire.program_decode", 1.0),
            ("ir.canon_us.p50", "ir.canon", 1.0),
            ("ir.compile_ms", "ir.compile", 1e-3),
            ("core.build_us.p50", "core.build", 1.0),
            ("core.predict_us.p50", "core.predict", 1.0),
            ("core.dag_revise_us.p50", "core.dag_revise", 1.0),
            ("deps.analyze_us.p50", "deps.analyze", 1.0),
            ("analysis.lint_us.p50", "analysis.lint", 1.0),
            ("tilesearch.pruned_ms.p50", "tilesearch.pruned", 1e-3),
            (
                "tilesearch.exhaustive_ms.p50",
                "tilesearch.exhaustive",
                1e-3,
            ),
            (
                "tilesearch.bounds_free_ms.p50",
                "tilesearch.bounds_free",
                1e-3,
            ),
            ("cachesim.replay_s", "cachesim.replay", 1e-6),
        ] {
            out.set(metric, self.p50(layer) * scale);
        }
        let count = |k: &str| self.counts.get(k).copied().unwrap_or(0.0);
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        out.set(
            "core.dag_nodes_reevaluated.mean",
            ratio(
                count("dag.nodes_reevaluated"),
                self.calls("core.dag_revise"),
            ),
        );
        let searches = [
            "tilesearch.pruned",
            "tilesearch.exhaustive",
            "tilesearch.bounds_free",
        ];
        let evals = count("tilesearch.evaluations");
        let search_us: f64 = searches.iter().map(|s| self.total(s)).sum();
        let n_searches: f64 = searches.iter().map(|s| self.calls(s)).sum();
        out.set("tilesearch.evals_per_search", ratio(evals, n_searches));
        out.set(
            "tilesearch.evals_per_grid_point",
            ratio(evals, count("tilesearch.grid_points")),
        );
        out.set("tilesearch.us_per_eval", ratio(search_us, evals));
        // Accesses per µs are millions of accesses per second.
        out.set(
            "cachesim.maccess_per_s",
            ratio(count("cachesim.accesses"), self.total("cachesim.replay")),
        );
    }
}

/// Replay `lines` through a fresh engine after the warm-up; the time each
/// request took, µs, stopping at `n` requests or at `budget`.
fn engine_pass(
    out: &mut Outcome,
    stream: &Stream,
    warm: &[String],
    lines: &[String],
    n: usize,
    budget: Option<Duration>,
    traced: bool,
) -> Vec<f64> {
    let engine = layers::engine();
    for line in warm {
        layers::handle_line(&engine, line);
    }
    let started = Instant::now();
    let mut times = Vec::new();
    for (i, line) in lines.iter().take(n).enumerate() {
        if budget.is_some_and(|b| started.elapsed() >= b) {
            break;
        }
        let rid = format!("r{i}");
        let _request = traced.then(|| layers::span("bench.request", &rid));
        let t = Instant::now();
        let reply = {
            let _span = traced.then(|| layers::span("engine.handle_line", &rid));
            layers::handle_line(&engine, line)
        };
        times.push(t.elapsed().as_secs_f64() * 1e6);
        let verdict = layers::parse_json(&reply).and_then(|v| stream.reqs[i].expect.check(&v));
        out.attempted += 1;
        if let Err(e) = verdict {
            out.failed += 1;
            out.failures
                .push(format!("engine replay {}: {e}", stream.reqs[i].spec.op()));
        }
    }
    times
}

/// The request's program as the daemon would see it: decoded from the
/// request when inline.
fn program_of(
    rec: &mut Recorder,
    rid: &str,
    cat: &Catalog,
    prog: Prog,
    doc: &Value,
) -> Result<Program, String> {
    match (prog, doc.get("program")) {
        (Prog::Shape(_), Some(v)) => {
            rec.timed("wire.program_decode", rid, || layers::decode_program(v))
        }
        _ => Ok(cat.program(prog).clone()),
    }
}

/// Per-layer state that outlives a request, as in the daemon: models by
/// canonical hash, live DAGs by base.
#[derive(Default)]
struct Memo {
    models: HashMap<u64, MissModel>,
    dags: HashMap<u64, ModelDag>,
}

impl Memo {
    /// Canonicalize `program` and make sure its model exists; its hash.
    fn model(&mut self, rec: &mut Recorder, rid: &str, program: &Program) -> u64 {
        let (hash, canonical) = rec.timed("ir.canon", rid, || layers::canonicalize(program));
        self.models
            .entry(hash)
            .or_insert_with(|| rec.timed("core.build", rid, || layers::build_model(&canonical)));
        hash
    }
}

fn predict(
    rec: &mut Recorder,
    memo: &mut Memo,
    rid: &str,
    cat: &Catalog,
    q: &Query,
    doc: &Value,
) -> Result<u64, String> {
    let program = program_of(rec, rid, cat, q.prog, doc)?;
    let hash = memo.model(rec, rid, &program);
    rec.timed("core.predict", rid, || {
        layers::predict(&memo.models[&hash], &q.bindings, q.cache)
    })
}

/// One request through each layer it reaches; the answer it assembles.
fn layer_request(
    rec: &mut Recorder,
    memo: &mut Memo,
    rid: &str,
    cat: &Catalog,
    spec: &Spec,
    line: &str,
) -> Result<Expect, String> {
    let doc = rec.timed("wire.parse", rid, || layers::parse_json(line))?;
    Ok(match spec {
        Spec::Stats => Expect::Stats,
        Spec::Predict(q) => Expect::Misses(predict(rec, memo, rid, cat, q, &doc)?),
        Spec::Batch(qs) => Expect::Batch(
            qs.iter()
                .map(|q| predict(rec, memo, rid, cat, q, &Value::Null))
                .collect::<Result<_, _>>()?,
        ),
        Spec::Analyze(p) => {
            let program = program_of(rec, rid, cat, *p, &doc)?;
            let shape = memo.model(rec, rid, &program);
            Expect::Analyze {
                shape,
                components: layers::component_count(&memo.models[&shape]),
            }
        }
        Spec::Lint(p) => {
            let program = program_of(rec, rid, cat, *p, &doc)?;
            rec.timed("deps.analyze", rid, || layers::dependences(&program));
            Expect::Lint(rec.timed("analysis.lint", rid, || layers::lint_counts(&program)))
        }
        Spec::Revise(q) => {
            let program = program_of(rec, rid, cat, q.prog, &doc)?;
            let hash = memo.model(rec, rid, &program);
            let model = &memo.models[&hash];
            let misses = match memo.dags.get_mut(&hash) {
                Some(dag) => {
                    let (misses, nodes) = rec.timed("core.dag_revise", rid, || {
                        layers::dag_revise(dag, &q.bindings, q.cache)
                    })?;
                    rec.count("dag.nodes_reevaluated", nodes as f64);
                    misses
                }
                None => {
                    let (dag, misses) = rec.timed("core.dag_build", rid, || {
                        layers::dag_new(model, &q.bindings, q.cache)
                    })?;
                    memo.dags.insert(hash, dag);
                    misses
                }
            };
            Expect::Revise {
                cache: q.cache,
                misses,
            }
        }
        Spec::Advise { query, search, max } => {
            let program = program_of(rec, rid, cat, query.prog, &doc)?;
            let hash = memo.model(rec, rid, &program);
            let model = &memo.models[&hash];
            let (tiles, bounds): (Vec<String>, Vec<String>) = layers::free_symbols(&program)
                .into_iter()
                .partition(|s| s.starts_with('T'));
            let space = layers::Space {
                syms: &tiles,
                max: *max,
                min: TILE_MIN,
            };
            let found = match search {
                Search::Pruned => rec.timed("tilesearch.pruned", rid, || {
                    layers::search(model, &query.bindings, query.cache, &space, false)
                }),
                Search::Exhaustive => rec.timed("tilesearch.exhaustive", rid, || {
                    layers::search(model, &query.bindings, query.cache, &space, true)
                }),
                Search::BoundsFree => rec.timed("tilesearch.bounds_free", rid, || {
                    layers::search_bounds_free(model, &bounds, NOMINAL, query.cache, &space)
                }),
            };
            rec.count("tilesearch.evaluations", found.evaluations as f64);
            rec.count("tilesearch.grid_points", space.points() as f64);
            Expect::Advise {
                tiles: tiles.into_iter().zip(found.tiles).collect(),
                misses: found.misses,
            }
        }
    })
}

/// Part (b) for a service workload: engine timings per op, trace overhead
/// and per-layer timings into `out`; returns the Chrome trace.
pub fn replay(
    out: &mut Outcome,
    cat: &Catalog,
    stream: &Stream,
    lines: &[String],
    budget: Duration,
) -> String {
    let warm: Vec<String> = stream
        .warm
        .iter()
        .enumerate()
        .map(|(i, r)| crate::gen::render(&r.spec, i, cat, false))
        .collect();
    // A first untraced pass sizes the replay to the budget and warms the
    // process (allocator, caches), so the untraced and traced passes that
    // are compared start alike.
    let n = engine_pass(
        out,
        stream,
        &warm,
        lines,
        REPLAY_MAX,
        Some(budget / 3),
        false,
    )
    .len();
    let plain = engine_pass(out, stream, &warm, lines, n, None, false);
    let mut by_op: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (i, t) in plain.iter().enumerate() {
        by_op.entry(stream.reqs[i].spec.op()).or_default().push(*t);
    }
    for op in ["predict", "analyze", "lint", "revise", "batch", "stats"] {
        out.set(
            &format!("engine.{op}_us.p50"),
            by_op.get(op).map_or(0.0, |v| median(v)),
        );
    }
    out.set(
        "engine.advise_ms.p50",
        by_op.get("advise").map_or(0.0, |v| median(v) / 1000.0),
    );

    let collector = layers::trace_start();
    let traced = engine_pass(out, stream, &warm, lines, n, None, true);
    let mut rec = Recorder::default();
    let mut memo = Memo::default();
    for (i, req) in stream.reqs.iter().take(n).enumerate() {
        let rid = format!("r{}", n + i);
        let _request = layers::span("bench.request", &rid);
        let got = layer_request(&mut rec, &mut memo, &rid, cat, &req.spec, &lines[i]);
        out.attempted += 1;
        if got.as_ref() != Ok(&req.expect) {
            out.failed += 1;
            out.failures
                .push(format!("layer replay {}: {got:?}", req.spec.op()));
        }
    }
    layers::trace_stop();
    rec.report(out);
    let (t_plain, t_traced) = (plain.iter().sum::<f64>(), traced.iter().sum::<f64>());
    out.set(
        "trace.overhead_pct",
        if t_plain > 0.0 {
            100.0 * (t_traced / t_plain - 1.0)
        } else {
            0.0
        },
    );
    layers::chrome_trace(&collector)
}
