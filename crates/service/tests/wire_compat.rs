//! Golden wire-compatibility tests: the exact reply shape of every op,
//! error envelopes included. These strings are the protocol contract —
//! a failure here means a client-visible wire change that needs a version
//! bump, not a test update.

use sdlo_service::{Engine, EngineConfig};
use sdlo_wire::Value;

fn engine() -> Engine {
    Engine::new(EngineConfig::default())
}

fn parse(s: &str) -> Value {
    sdlo_wire::parse(s).unwrap()
}

/// Top-level keys of a rendered object, in wire order.
fn keys(v: &Value) -> Vec<&str> {
    v.as_object()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn shape_hash(builtin: &str) -> String {
    let program = sdlo_ir::programs::builtin(builtin).expect("builtin exists");
    format!("{:016x}", sdlo_ir::canon::canonicalize(&program).hash)
}

// -- success replies ---------------------------------------------------------

#[test]
fn predict_reply_is_byte_stable() {
    let e = engine();
    let reply = e.handle_line(
        r#"{"op":"predict","id":7,"request_id":"cli-1","program":"tiled_matmul","v":1,"bindings":{"Ni":512,"Nj":512,"Nk":512,"Ti":64,"Tj":64,"Tk":64},"cache":8192}"#,
    );
    assert_eq!(
        reply,
        format!(
            r#"{{"id":7,"request_id":"cli-1","v":1,"ok":true,"misses":6291456,"cache_hit":false,"shape":"{}"}}"#,
            shape_hash("tiled_matmul")
        )
    );
}

#[test]
fn analyze_reply_keys_are_stable() {
    let e = engine();
    let reply = parse(&e.handle_line(r#"{"op":"analyze","id":1,"program":"matmul"}"#));
    assert_eq!(
        keys(&reply),
        [
            "id",
            "request_id",
            "v",
            "ok",
            "program",
            "shape",
            "cache_hit",
            "free_symbols",
            "components"
        ]
    );
    assert_eq!(reply.get("v").unwrap().as_u64(), Some(1));
}

#[test]
fn advise_reply_keys_and_outcome_shape_are_stable() {
    let e = engine();
    let reply = parse(&e.handle_line(
        r#"{"op":"advise","program":"tiled_matmul","cache":4096,
            "bindings":{"Ni":64,"Nj":64,"Nk":64},
            "space":{"syms":["Ti","Tj","Tk"],"max":[64,64,64],"min":4}}"#,
    ));
    assert_eq!(
        keys(&reply),
        [
            "request_id",
            "v",
            "ok",
            "outcome",
            "completed",
            "wall_micros",
            "cache_hit",
            "shape"
        ]
    );
    let outcome = reply.get("outcome").unwrap();
    assert_eq!(
        keys(outcome),
        [
            "best",
            "evaluations",
            "completed",
            "wall_micros",
            "frontier"
        ]
    );
    assert_eq!(keys(outcome.get("best").unwrap()), ["tiles", "misses"]);
    assert_eq!(reply.get("completed").unwrap().as_bool(), Some(true));
}

#[test]
fn lint_stats_metrics_reply_keys_are_stable() {
    let e = engine();
    let lint = parse(&e.handle_line(r#"{"op":"lint","program":"matmul"}"#));
    assert_eq!(
        keys(&lint),
        [
            "request_id",
            "v",
            "ok",
            "program",
            "diagnostics",
            "summary",
            "deps"
        ]
    );
    assert_eq!(
        keys(lint.get("deps").unwrap()),
        [
            "total",
            "flow",
            "anti",
            "output",
            "precise",
            "carried",
            "parallelizable"
        ]
    );

    let stats = parse(&e.handle_line(r#"{"op":"stats"}"#));
    assert_eq!(keys(&stats), ["request_id", "v", "ok", "stats"]);
    let body = stats.get("stats").unwrap();
    assert_eq!(body.get("protocol_version").unwrap().as_u64(), Some(1));
    let ops: Vec<&str> = body
        .get("ops")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(
        ops,
        ["analyze", "predict", "advise", "batch", "lint", "stats", "metrics", "debug", "revise"]
    );

    let metrics = parse(&e.handle_line(r#"{"op":"metrics"}"#));
    assert_eq!(
        keys(&metrics),
        ["request_id", "v", "ok", "content_type", "text"]
    );
    let text = metrics.get("text").unwrap().as_str().unwrap();
    assert!(text.contains("sdlo_searches_cancelled_total 0"));
}

#[test]
fn lint_fixit_legality_is_byte_stable() {
    // Protocol v1 contract for legality-vetted fix-its: the `fixit` object
    // carries `legality` and (when machine-applicable) a `target` payload,
    // and the reply's `deps` summary is byte-stable for a fixed program.
    let e = engine();
    let reply =
        parse(&e.handle_line(r#"{"op":"lint","request_id":"golden-1","program":"matmul"}"#));
    let fixit = reply
        .get("diagnostics")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .find_map(|d| {
            (d.get("rule").unwrap().as_str() == Some("untiled-reuse")
                && d.path(&["span", "array"]).unwrap().as_str() == Some("B"))
            .then(|| d.get("fixit").unwrap())
        })
        .expect("matmul carries an untiled-reuse fix-it on B");
    assert_eq!(
        fixit.render(),
        r#"{"action":"tile-loop","detail":"tile loop `i` with fresh tile size `Ti` (split into `iT`/`iI`) so the reuse of `B` spans one tile instead of the full extent","legality":"proven","target":{"tile":{"stmt":0,"loops":[{"loop":"i","tile_sym":"Ti"}]}}}"#
    );
    assert_eq!(
        reply.get("deps").unwrap().render(),
        r#"{"total":3,"flow":1,"anti":1,"output":1,"precise":3,"carried":{"j":3},"parallelizable":["i","k"]}"#
    );
}

/// Seeded generator for the lint golden: a pure function of its seed.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) % n as u64) as usize
    }
}

/// A seeded imperfect nest as inline-program JSON, shaped like the
/// benchmark's `cold_shapes` programs: loops `l0…` (depth 2–4, bounds `N`
/// or `M`), 1–3 arrays each subscripting a shuffled subset of the loops
/// in its scope, one innermost statement of 1–3 references and, for most
/// seeds, a second statement on array `A0` beside the loop at a random
/// depth.
fn seeded_nest(seed: u64) -> String {
    let mut rng = Lcg(seed ^ 0x9e37_79b9_7f4a_7c15);
    let depth = 2 + rng.below(3);
    let n_arrays = 1 + rng.below(3);
    let split = (rng.below(5) < 3).then(|| 1 + rng.below(depth - 1));
    let bounds: Vec<&str> = (0..depth).map(|_| ["N", "M"][rng.below(2)]).collect();
    let subscripts: Vec<Vec<usize>> = (0..n_arrays)
        .map(|a| {
            let scope = if a == 0 {
                split.unwrap_or(depth)
            } else {
                depth
            };
            let mut loops: Vec<usize> = (0..scope).collect();
            for k in (1..loops.len()).rev() {
                loops.swap(k, rng.below(k + 1));
            }
            loops.truncate(1 + rng.below(scope.min(3)));
            loops
        })
        .collect();
    let stmt = |refs: &[usize]| {
        let kind = ["zero", "assign", "mul_add_assign"][refs.len() - 1];
        let refs: Vec<String> = refs
            .iter()
            .enumerate()
            .map(|(k, a)| {
                let dims: Vec<String> = subscripts[*a]
                    .iter()
                    .map(|l| format!(r#"[{{"index":"l{l}"}}]"#))
                    .collect();
                format!(
                    r#"{{"array":"A{a}","write":{},"dims":[{}]}}"#,
                    k == 0,
                    dims.join(",")
                )
            })
            .collect();
        format!(
            r#"{{"stmt":{{"kind":"{kind}","refs":[{}]}}}}"#,
            refs.join(",")
        )
    };
    let inner: Vec<usize> = (0..1 + rng.below(3)).map(|_| rng.below(n_arrays)).collect();
    let mut body = vec![stmt(&inner)];
    for level in (0..depth).rev() {
        let node = format!(
            r#"{{"for":{{"index":"l{level}","bound":"{}","body":[{}]}}}}"#,
            bounds[level],
            body.join(",")
        );
        body = if split == Some(level) {
            let mut refs = vec![0];
            let outer: Vec<usize> = (0..n_arrays)
                .filter(|a| subscripts[*a].iter().all(|l| *l < level))
                .collect();
            if rng.below(2) == 0 {
                refs.push(outer[rng.below(outer.len())]);
            }
            if rng.below(10) < 7 {
                vec![stmt(&refs), node]
            } else {
                vec![node, stmt(&refs)]
            }
        } else {
            vec![node]
        };
    }
    let arrays: Vec<String> = subscripts
        .iter()
        .enumerate()
        .map(|(a, loops)| {
            let dims: Vec<String> = loops
                .iter()
                .map(|l| format!(r#""{}""#, bounds[*l]))
                .collect();
            format!(r#"{{"name":"A{a}","dims":[{}]}}"#, dims.join(","))
        })
        .collect();
    format!(
        r#"{{"name":"seed{seed}","arrays":[{}],"nest":[{}]}}"#,
        arrays.join(","),
        body.join(",")
    )
}

/// Every program the lint golden covers, as `(case, program field)`: the
/// builtins, an inline program that fails validation, one per error-tier
/// rule, and seeded nests, each perfect one also fully tiled.
fn lint_golden_cases() -> Vec<(String, String)> {
    let mut cases: Vec<(String, String)> = sdlo_ir::programs::BUILTIN_NAMES
        .iter()
        .map(|n| (n.to_string(), format!(r#""{n}""#)))
        .collect();
    let stmt = |array: &str, dims: &str| {
        format!(
            r#"{{"stmt":{{"kind":"zero","refs":[{{"array":"{array}","write":true,"dims":{dims}}}]}}}}"#
        )
    };
    let nest = |name: &str, arrays: &str, body: String| {
        format!(r#"{{"name":"{name}","arrays":{arrays},"nest":[{body}]}}"#)
    };
    let for_ = |index: &str, bound: &str, body: String| {
        format!(r#"{{"for":{{"index":"{index}","bound":"{bound}","body":[{body}]}}}}"#)
    };
    cases.push((
        "structure".into(),
        nest(
            "unbound",
            r#"[{"name":"A","dims":["N"]}]"#,
            stmt("A", r#"[[{"index":"q"}]]"#),
        ),
    ));
    cases.push((
        "subscript-class".into(),
        nest(
            "strided",
            r#"[{"name":"A","dims":["N"]},{"name":"B","dims":["N"]}]"#,
            for_(
                "i",
                "N",
                for_(
                    "j",
                    "N",
                    [
                        stmt("A", r#"[[{"index":"i","stride":"2"}]]"#),
                        stmt("B", r#"[[{"index":"i"},{"index":"j"}]]"#),
                    ]
                    .join(","),
                ),
            ),
        ),
    ));
    cases.push((
        "model-class".into(),
        nest(
            "coupled",
            r#"[{"name":"A","dims":["N","N"]}]"#,
            for_("i", "N", stmt("A", r#"[[{"index":"i"}],[{"index":"i"}]]"#)),
        ),
    ));
    cases.push((
        "bound-sanity".into(),
        nest(
            "triangular",
            r#"[{"name":"A","dims":["N","N"]},{"name":"B","dims":["N"]}]"#,
            [
                for_(
                    "i",
                    "N",
                    for_("j", "i", stmt("A", r#"[[{"index":"i"}],[{"index":"j"}]]"#)),
                ),
                for_("k", "0", stmt("B", r#"[[{"index":"k"}]]"#)),
                for_("u", "N", for_("v", "N", stmt("B", r#"[[{"index":"v"}]]"#))),
            ]
            .join(","),
        ),
    ));
    for seed in 0..40 {
        let program = seeded_nest(seed);
        let decoded = sdlo_wire::program_from_value(&parse(&program)).expect("generated nest");
        let loops: Vec<(String, String)> = (0..4)
            .filter(|l| program.contains(&format!(r#""index":"l{l}""#)))
            .map(|l| (format!("l{l}"), format!("T{l}")))
            .collect();
        let tiles: Vec<(&str, &str)> = loops
            .iter()
            .map(|(l, t)| (l.as_str(), t.as_str()))
            .collect();
        if let Ok(tiled) = sdlo_ir::tile_perfect_nest(&decoded, &tiles) {
            cases.push((
                format!("seed{seed}-tiled"),
                sdlo_wire::program_to_value(&tiled).render(),
            ));
        }
        cases.push((format!("seed{seed}"), program));
    }
    cases
}

/// Compare `actual`, one `<case>\t<reply>` line per case, with the golden
/// file `name`. A mismatch writes the whole actual file beside the test
/// binary's scratch files.
fn assert_matches_golden(name: &str, actual: &str, golden: &str) {
    if actual != golden {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
        std::fs::write(&path, actual).unwrap();
        let diff = actual
            .lines()
            .zip(golden.lines())
            .find(|(a, g)| a != g)
            .map_or("(line count differs)".to_string(), |(a, g)| {
                format!("\nactual: {a}\ngolden: {g}")
            });
        panic!(
            "replies differ from {name} ({} vs {} lines; actual written to {}){diff}",
            actual.lines().count(),
            golden.lines().count(),
            path.display()
        );
    }
}

#[test]
fn lint_replies_match_the_golden() {
    // Recorded before the rules shared one dependence graph and one miss
    // model per lint.
    let e = engine();
    let actual: String = lint_golden_cases()
        .iter()
        .map(|(case, program)| {
            let reply = e.handle_line(&format!(
                r#"{{"op":"lint","request_id":"golden","program":{program}}}"#
            ));
            format!("{case}\t{reply}\n")
        })
        .collect();
    assert_matches_golden("lint_golden.tsv", &actual, include_str!("lint_golden.tsv"));
}

/// Every `advise` the golden covers, as `(case, request fields)`: the
/// benchmark's `advise` mix (both tiled builtins, each strategy, N in
/// 128..=1024, caches 2048 and 8192, tiles 4..=min(N, 256)) and
/// `mixed_open`'s search, then budgets, an inline program, tiles bound
/// beside the search, a tile the program never reads, and errors.
fn advise_golden_cases() -> Vec<(String, String)> {
    let list = |syms: &[&str]| {
        let quoted: Vec<String> = syms.iter().map(|s| format!(r#""{s}""#)).collect();
        format!("[{}]", quoted.join(","))
    };
    let space = |tiles: &[&str], max: u64| {
        let maxes = vec![max.to_string(); tiles.len()].join(",");
        format!(
            r#""space":{{"syms":{},"max":[{maxes}],"min":4}}"#,
            list(tiles)
        )
    };
    let bind = |bounds: &[&str], n: u64| {
        let fields: Vec<String> = bounds.iter().map(|b| format!(r#""{b}":{n}"#)).collect();
        format!(r#""bindings":{{{}}}"#, fields.join(","))
    };
    let tmm: (&[&str], &[&str]) = (&["Ni", "Nj", "Nk"], &["Ti", "Tj", "Tk"]);
    let t2i: (&[&str], &[&str]) = (&["Ni", "Nj", "Nm", "Nn"], &["Ti", "Tj", "Tm", "Tn"]);

    let mut cases = Vec::new();
    for (program, mode, (bounds, tiles)) in [
        ("tiled_matmul", "pruned", tmm),
        ("tiled_two_index", "pruned", t2i),
        ("tiled_two_index", "exhaustive", t2i),
        ("tiled_two_index", "bounds_free", t2i),
    ] {
        for n in [128u64, 256, 512, 1024] {
            for cache in [2048u64, 8192] {
                let space = space(tiles, n.min(256));
                let fields = if mode == "bounds_free" {
                    format!(
                        r#""program":"{program}","cache":{cache},"bounds_free":{{"bounds":{},"nominal":1000000}},{space}"#,
                        list(bounds)
                    )
                } else {
                    format!(
                        r#""program":"{program}",{},"cache":{cache},{space},"mode":"{mode}""#,
                        bind(bounds, n)
                    )
                };
                cases.push((format!("{program} {mode} N={n} C={cache}"), fields));
            }
        }
    }
    let (tmm_bounds, tmm_tiles) = tmm;
    let (t2i_bounds, t2i_tiles) = t2i;
    let tmm_at = |n: u64, cache: u64| {
        format!(
            r#""program":"tiled_matmul",{},"cache":{cache}"#,
            bind(tmm_bounds, n)
        )
    };
    let t2i_at = |n: u64, cache: u64| {
        format!(
            r#""program":"tiled_two_index",{},"cache":{cache}"#,
            bind(t2i_bounds, n)
        )
    };
    cases.push((
        "mixed_open tiled_matmul N=128 C=2048 max=64".into(),
        format!("{},{}", tmm_at(128, 2048), space(tmm_tiles, 64)),
    ));
    cases.push((
        "tiled_matmul exhaustive N=256 C=4096".into(),
        format!(
            r#"{},{},"mode":"exhaustive""#,
            tmm_at(256, 4096),
            space(tmm_tiles, 256)
        ),
    ));
    cases.push((
        "tiled_matmul bounds_free nominal=16384 max=512".into(),
        format!(
            r#""program":"tiled_matmul","cache":8192,"bounds_free":{{"bounds":{},"nominal":16384}},{}"#,
            list(tmm_bounds),
            space(tmm_tiles, 512)
        ),
    ));
    // Budgets: cut in phase 1, in phase 2 (2,401 grid points, then the
    // frontier), an exhaustive sweep, and an expired deadline.
    for (what, budget) in [
        ("max_evals=700 pruned", r#""max_evals":700"#),
        ("max_evals=2500 pruned", r#""max_evals":2500"#),
        (
            "max_evals=1000 exhaustive",
            r#""max_evals":1000,"mode":"exhaustive""#,
        ),
        ("deadline_ms=0 pruned", r#""deadline_ms":0"#),
    ] {
        cases.push((
            format!("tiled_two_index {what} N=256 C=2048"),
            format!("{},{},{budget}", t2i_at(256, 2048), space(t2i_tiles, 256)),
        ));
    }
    let inline = r#"{"name":"tiled_transpose","arrays":[{"name":"A","dims":["ceil_div(Ni, Ti)*Ti","ceil_div(Nj, Tj)*Tj"]},{"name":"B","dims":["ceil_div(Nj, Tj)*Tj","ceil_div(Ni, Ti)*Ti"]}],"nest":[{"for":{"index":"iT","bound":"ceil_div(Ni, Ti)","body":[{"for":{"index":"jT","bound":"ceil_div(Nj, Tj)","body":[{"for":{"index":"iI","bound":"Ti","body":[{"for":{"index":"jI","bound":"Tj","body":[{"stmt":{"kind":"assign","refs":[{"array":"B","write":true,"dims":[[{"index":"jT","stride":"Tj"},{"index":"jI"}],[{"index":"iT","stride":"Ti"},{"index":"iI"}]]},{"array":"A","dims":[[{"index":"iT","stride":"Ti"},{"index":"iI"}],[{"index":"jT","stride":"Tj"},{"index":"jI"}]]}]}}]}}]}}]}}]}}]}"#;
    for mode in ["pruned", "exhaustive"] {
        cases.push((
            format!("inline tiled_transpose {mode} N=512 C=1024"),
            format!(
                r#""program":{inline},{},"cache":1024,{},"mode":"{mode}""#,
                bind(&["Ni", "Nj"], 512),
                space(&["Ti", "Tj"], 512)
            ),
        ));
    }
    cases.push((
        "bound tile searched over".into(),
        format!(
            r#""program":"tiled_matmul","bindings":{{"Ni":256,"Nj":256,"Nk":256,"Ti":8}},"cache":4096,{}"#,
            space(tmm_tiles, 256)
        ),
    ));
    cases.push((
        "bound tile outside the space".into(),
        format!(
            r#""program":"tiled_matmul","bindings":{{"Ni":256,"Nj":256,"Nk":256,"Ti":32}},"cache":4096,{}"#,
            space(&["Tj", "Tk"], 256)
        ),
    ));
    cases.push((
        "a searched symbol the program never reads".into(),
        format!(
            "{},{}",
            tmm_at(256, 4096),
            space(&["Ti", "Tj", "Tk", "Tz"], 64)
        ),
    ));
    cases.push((
        "unbound loop bound".into(),
        format!(
            r#""program":"tiled_matmul","bindings":{{"Ni":256,"Nj":256}},"cache":4096,{}"#,
            space(tmm_tiles, 64)
        ),
    ));
    cases.push((
        "hostile zero tile".into(),
        r#""program":"tiled_matmul","cache":8192,"bindings":{"Ni":512,"Nj":512,"Nk":512,"Ti":0},"space":{"syms":["Tj","Tk"],"max":[64,64],"min":1}"#.into(),
    ));
    cases
}

/// `value` without its `wall_micros` fields, which are timings.
fn without_wall_micros(value: Value) -> Value {
    match value {
        Value::Object(fields) => Value::Object(
            fields
                .into_iter()
                .filter(|(k, _)| k != "wall_micros")
                .map(|(k, v)| (k, without_wall_micros(v)))
                .collect(),
        ),
        other => other,
    }
}

#[test]
fn advise_replies_match_the_golden() {
    // Recorded before the search ran its tape in `i64`, stepped its grid
    // and borrowed the cached model's tape; served in order by one engine,
    // so `cache_hit` is part of each reply.
    let e = engine();
    let actual: String = advise_golden_cases()
        .iter()
        .map(|(case, fields)| {
            let reply = e.handle_line(&format!(
                r#"{{"op":"advise","request_id":"golden",{fields}}}"#
            ));
            format!("{case}\t{}\n", without_wall_micros(parse(&reply)).render())
        })
        .collect();
    assert_matches_golden(
        "advise_golden.tsv",
        &actual,
        include_str!("advise_golden.tsv"),
    );
}

#[test]
fn batch_replies_carry_the_envelope() {
    let e = engine();
    let reply = parse(&e.handle_line(
        r#"{"op":"batch","requests":[
             {"op":"stats","id":"a"},
             {"op":"nope","id":"b"}]}"#,
    ));
    assert_eq!(keys(&reply), ["request_id", "v", "ok", "responses"]);
    let rs = reply.get("responses").unwrap().as_array().unwrap();
    for r in rs {
        assert_eq!(r.get("v").unwrap().as_u64(), Some(1));
        assert!(r.get("request_id").is_some());
    }
    assert_eq!(rs[1].get("ok").unwrap().as_bool(), Some(false));
    assert_eq!(
        rs[1].path(&["error", "kind"]).unwrap().as_str(),
        Some("unsupported")
    );
}

// -- trace context is strictly opt-in -----------------------------------------

/// The acceptance-criterion golden: a request *without* the `trace` field
/// produces a byte-identical reply to the pre-trace protocol — and adding
/// `trace` changes nothing about the reply bytes either (context propagates
/// to spans, never to the wire).
#[test]
fn requests_without_trace_are_byte_identical() {
    let e = engine();
    let golden = format!(
        r#"{{"id":7,"request_id":"cli-1","v":1,"ok":true,"misses":6291456,"cache_hit":false,"shape":"{}"}}"#,
        shape_hash("tiled_matmul")
    );
    let plain = e.handle_line(
        r#"{"op":"predict","id":7,"request_id":"cli-1","program":"tiled_matmul","v":1,"bindings":{"Ni":512,"Nj":512,"Nk":512,"Ti":64,"Tj":64,"Tk":64},"cache":8192}"#,
    );
    assert_eq!(plain, golden);
    // Same request with a trace context: cache_hit flips (same engine), so
    // compare against a fresh engine to prove byte-for-byte equality.
    let e2 = engine();
    let traced = e2.handle_line(
        r#"{"op":"predict","id":7,"request_id":"cli-1","program":"tiled_matmul","v":1,"trace":{"trace_id":"abcd1234abcd1234","parent_span":42},"bindings":{"Ni":512,"Nj":512,"Nk":512,"Ti":64,"Tj":64,"Tk":64},"cache":8192}"#,
    );
    assert_eq!(traced, golden);
}

#[test]
fn server_timing_is_opt_in_and_appended_last() {
    let e = engine();
    let reply = parse(&e.handle_line(
        r#"{"op":"predict","id":7,"server_timing":true,"program":"tiled_matmul","bindings":{"Ni":512,"Nj":512,"Nk":512,"Ti":64,"Tj":64,"Tk":64},"cache":8192}"#,
    ));
    let k = keys(&reply);
    assert_eq!(k.last(), Some(&"timing"));
    let timing = reply.get("timing").unwrap();
    assert_eq!(keys(timing), ["queue_micros", "exec_micros"]);
    assert_eq!(timing.get("queue_micros").unwrap().as_u64(), Some(0));
    assert!(timing.get("exec_micros").unwrap().as_u64().is_some());
    // Error replies never carry timing — their envelope is pinned.
    let err = e.handle_line(r#"{"op":"nope","request_id":"cli-9","server_timing":true}"#);
    assert_eq!(
        err,
        r#"{"request_id":"cli-9","v":1,"ok":false,"error":{"kind":"unsupported","message":"unknown op `nope`"}}"#
    );
}

#[test]
fn debug_trace_dump_reply_keys_are_stable() {
    let e = engine();
    e.handle_line(
        r#"{"op":"predict","request_id":"dbg-1","program":"matmul","bindings":{"Ni":16,"Nj":16,"Nk":16},"cache":64}"#,
    );
    let reply = parse(&e.handle_line(r#"{"op":"debug"}"#));
    assert_eq!(
        keys(&reply),
        [
            "request_id",
            "v",
            "ok",
            "what",
            "epoch_unix_micros",
            "slow_threshold_micros",
            "records",
            "slow",
            "chrome"
        ]
    );
    let records = reply.get("records").unwrap().as_array().unwrap();
    let predict = records
        .iter()
        .find(|r| r.get("op").unwrap().as_str() == Some("predict"))
        .expect("predict request recorded");
    assert_eq!(
        keys(predict),
        [
            "seq",
            "op",
            "canon_hash",
            "status",
            "queue_micros",
            "exec_micros",
            "write_micros",
            "total_micros",
            "retries",
            "failovers",
            "request_id",
            "trace_id",
            "end_unix_micros"
        ]
    );
    assert_eq!(predict.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(predict.get("request_id").unwrap().as_str(), Some("dbg-1"));
    assert_eq!(
        predict.get("canon_hash").unwrap().as_str(),
        Some(shape_hash("matmul").as_str())
    );
    // stats gains the per-op slowest table.
    let stats = parse(&e.handle_line(r#"{"op":"stats"}"#));
    let slowest = stats.path(&["stats", "slowest"]).unwrap();
    let p = slowest.get("predict").unwrap();
    assert_eq!(keys(p), ["total_micros", "request_id", "trace_id"]);
    assert_eq!(p.get("request_id").unwrap().as_str(), Some("dbg-1"));
    // Unknown debug queries fail with a schema error.
    let bad = parse(&e.handle_line(r#"{"op":"debug","what":"core_dump"}"#));
    assert_eq!(
        bad.path(&["error", "kind"]).unwrap().as_str(),
        Some("schema")
    );
}

/// Each request's flight record carries the canonical hash of the program
/// its op resolved: inline and builtin programs alike, a batch the hash of
/// its first program-bearing sub-request, and 0 for a request with no
/// program or one that fails to resolve.
#[test]
fn flight_records_carry_each_ops_program_hash() {
    let e = engine();
    // Structurally matmul, under other names.
    let inline = r#"{"name":"mm2","arrays":[{"name":"Z","dims":["Ni","Nk"]},{"name":"X","dims":["Ni","Nj"]},{"name":"Y","dims":["Nj","Nk"]}],"nest":[{"for":{"index":"p","bound":"Ni","body":[{"for":{"index":"q","bound":"Nj","body":[{"for":{"index":"r","bound":"Nk","body":[{"stmt":{"kind":"mul_add_assign","refs":[{"array":"Z","write":true,"dims":[[{"index":"p"}],[{"index":"r"}]]},{"array":"X","dims":[[{"index":"p"}],[{"index":"q"}]]},{"array":"Y","dims":[[{"index":"q"}],[{"index":"r"}]]}]}}]}}]}}]}}]}"#;
    let program = sdlo_wire::program_from_value(&parse(inline)).unwrap();
    let inline_hash = format!("{:016x}", sdlo_ir::canon::canonicalize(&program).hash);
    let tiled = shape_hash("tiled_matmul");
    let bindings = r#""bindings":{"Ni":16,"Nj":16,"Nk":16},"cache":64"#;
    let none = "0000000000000000".to_string();
    let cases = [
        (
            format!(r#"{{"op":"analyze","request_id":"fr-analyze","program":{inline}}}"#),
            inline_hash.clone(),
        ),
        (
            format!(r#"{{"op":"predict","request_id":"fr-predict","program":{inline},{bindings}}}"#),
            inline_hash.clone(),
        ),
        (
            format!(r#"{{"op":"lint","request_id":"fr-lint-inline","program":{inline}}}"#),
            inline_hash.clone(),
        ),
        (
            r#"{"op":"lint","request_id":"fr-lint-builtin","program":"tiled_matmul"}"#.to_string(),
            tiled.clone(),
        ),
        (
            r#"{"op":"advise","request_id":"fr-advise","program":"tiled_matmul","cache":4096,"bindings":{"Ni":64,"Nj":64,"Nk":64},"space":{"syms":["Ti","Tj","Tk"],"max":[64,64,64],"min":4}}"#.to_string(),
            tiled.clone(),
        ),
        (
            format!(
                r#"{{"op":"revise","request_id":"fr-revise","base":"{tiled}","program":"tiled_matmul","delta":{{"bindings":{{"Ni":64,"Nj":64,"Nk":64,"Ti":8,"Tj":8,"Tk":8}},"cache_sizes":[512]}}}}"#
            ),
            tiled.clone(),
        ),
        (
            format!(
                r#"{{"op":"batch","request_id":"fr-batch","requests":[{{"op":"stats"}},{{"op":"predict","request_id":"fr-batch-sub","program":{inline},{bindings}}}]}}"#
            ),
            inline_hash.clone(),
        ),
        (
            r#"{"op":"stats","request_id":"fr-stats"}"#.to_string(),
            none.clone(),
        ),
        (
            format!(r#"{{"op":"predict","request_id":"fr-unknown","program":"no_such",{bindings}}}"#),
            none,
        ),
    ];
    for (line, _) in &cases {
        e.handle_line(line);
    }
    let dump = parse(&e.handle_line(r#"{"op":"debug","what":"trace_dump"}"#));
    let records = dump.get("records").unwrap().as_array().unwrap();
    let hash_of = |request_id: &str| {
        records
            .iter()
            .find(|r| r.get("request_id").unwrap().as_str() == Some(request_id))
            .unwrap_or_else(|| panic!("no flight record for {request_id}"))
            .get("canon_hash")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string()
    };
    for (line, want) in &cases {
        let request_id = parse(line)
            .get("request_id")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        assert_eq!(hash_of(&request_id), *want, "{line}");
    }
    assert_eq!(hash_of("fr-batch-sub"), inline_hash);
}

// -- error envelopes ---------------------------------------------------------

#[test]
fn unsupported_op_error_is_byte_stable() {
    let e = engine();
    let reply = e.handle_line(r#"{"op":"nope","request_id":"cli-9"}"#);
    assert_eq!(
        reply,
        r#"{"request_id":"cli-9","v":1,"ok":false,"error":{"kind":"unsupported","message":"unknown op `nope`"}}"#
    );
}

#[test]
fn malformed_line_error_envelope() {
    let e = engine();
    // A fresh engine generates its first request id for the reply.
    let reply = e.handle_line("this is not json");
    assert!(
        reply.starts_with(
            r#"{"request_id":"req-00000001","v":1,"ok":false,"error":{"kind":"malformed","message":"#
        ),
        "{reply}"
    );
}

#[test]
fn unsupported_version_error_is_byte_stable() {
    let e = engine();
    let reply = e.handle_line(r#"{"op":"stats","request_id":"cli-2","v":2}"#);
    assert_eq!(
        reply,
        r#"{"request_id":"cli-2","v":1,"ok":false,"error":{"kind":"unsupported_version","message":"protocol version 2 is not supported (this build speaks v1)"}}"#
    );
    let reply = parse(&e.handle_line(r#"{"op":"stats","v":"latest"}"#));
    assert_eq!(
        reply.path(&["error", "kind"]).unwrap().as_str(),
        Some("unsupported_version")
    );
    // v:1, spelled explicitly, is accepted.
    let ok = parse(&e.handle_line(r#"{"op":"stats","v":1}"#));
    assert_eq!(ok.get("ok").unwrap().as_bool(), Some(true));
}

#[test]
fn schema_errors_use_the_unified_envelope() {
    let e = engine();
    for (line, kind) in [
        (
            r#"{"op":"predict","program":"matmul","cache":64}"#,
            "schema",
        ),
        (
            r#"{"op":"predict","program":"no_such","bindings":{},"cache":64}"#,
            "schema",
        ),
        (
            r#"{"op":"advise","program":"tiled_matmul","cache":64,"bindings":{},
                "space":{"syms":["Ti","Tj","Tk"],
                         "max":[1152921504606846976,1152921504606846976,1152921504606846976],
                         "min":1}}"#,
            "limit",
        ),
    ] {
        let reply = parse(&e.handle_line(line));
        assert_eq!(reply.get("ok").unwrap().as_bool(), Some(false), "{line}");
        let k = keys(&reply);
        assert_eq!(&k[k.len() - 3..], ["v", "ok", "error"], "{line}");
        assert_eq!(
            reply.path(&["error", "kind"]).unwrap().as_str(),
            Some(kind),
            "{line}"
        );
        assert!(reply
            .path(&["error", "message"])
            .unwrap()
            .as_str()
            .is_some());
    }
}

#[test]
fn zero_tile_outside_the_search_space_is_an_eval_error() {
    // A tile that is not searched, bound to 0, divides by zero in the
    // model: the same `eval` error `predict` gives for that binding.
    let e = engine();
    let reply = e.handle_line(
        r#"{"op":"advise","id":7,"request_id":"hostile","program":"tiled_matmul","cache":8192,"bindings":{"Ni":512,"Nj":512,"Nk":512,"Ti":0},"space":{"syms":["Tj","Tk"],"max":[64,64],"min":1}}"#,
    );
    assert_eq!(
        reply,
        r#"{"id":7,"request_id":"hostile","v":1,"ok":false,"error":{"kind":"eval","message":"evaluation failed: division by zero"}}"#
    );
}

#[test]
fn malformed_advise_search_fields_are_schema_errors() {
    // A present `space.min` or `bounds_free.nominal` must be a positive
    // integer, and `space.syms` must not repeat a symbol: two grid
    // dimensions would write one tape input and the reply two `Ti` keys.
    let e = engine();
    let bound = r#""program":"tiled_matmul","cache":8192,"bindings":{"Ni":64,"Nj":64,"Nk":64}"#;
    let free = r#""program":"tiled_matmul","cache":8192,"space":{"syms":["Ti","Tj","Tk"],"max":[64,64,64]}"#;
    let min = "`space.min` must be a positive integer";
    let nominal = "`bounds_free.nominal` must be a positive integer";
    for (case, fields, message) in [
        (
            "min-string",
            format!(
                r#"{bound},"space":{{"syms":["Ti","Tj","Tk"],"max":[64,64,64],"min":"eight"}}"#
            ),
            min,
        ),
        (
            "min-negative",
            format!(r#"{bound},"space":{{"syms":["Ti","Tj","Tk"],"max":[64,64,64],"min":-8}}"#),
            min,
        ),
        (
            "min-zero",
            format!(r#"{bound},"space":{{"syms":["Ti","Tj","Tk"],"max":[64,64,64],"min":0}}"#),
            min,
        ),
        (
            "nominal-string",
            format!(r#"{free},"bounds_free":{{"bounds":["Ni","Nj","Nk"],"nominal":"huge"}}"#),
            nominal,
        ),
        (
            "nominal-negative",
            format!(r#"{free},"bounds_free":{{"bounds":["Ni","Nj","Nk"],"nominal":-5}}"#),
            nominal,
        ),
        (
            "nominal-zero",
            format!(r#"{free},"bounds_free":{{"bounds":["Ni","Nj","Nk"],"nominal":0}}"#),
            nominal,
        ),
        (
            "syms-repeated",
            format!(r#"{bound},"space":{{"syms":["Ti","Tj","Ti"],"max":[64,64,64],"min":4}}"#),
            "`space.syms` names `Ti` twice",
        ),
    ] {
        let reply = e.handle_line(&format!(
            r#"{{"op":"advise","request_id":"{case}",{fields}}}"#
        ));
        assert_eq!(
            reply,
            format!(
                r#"{{"request_id":"{case}","v":1,"ok":false,"error":{{"kind":"schema","message":"{message}"}}}}"#
            )
        );
    }
}

#[test]
fn batch_deadline_uses_deadline_exceeded_kind() {
    // A zero request budget forces every sub-request over the line.
    let e = Engine::new(EngineConfig {
        max_request_millis: 0,
        ..EngineConfig::default()
    });
    let reply = parse(&e.handle_line(r#"{"op":"batch","requests":[{"op":"stats","id":1}]}"#));
    let rs = reply.get("responses").unwrap().as_array().unwrap();
    assert_eq!(rs[0].get("id").unwrap().as_i64(), Some(1));
    assert_eq!(rs[0].get("v").unwrap().as_u64(), Some(1));
    assert_eq!(
        rs[0].path(&["error", "kind"]).unwrap().as_str(),
        Some("deadline_exceeded")
    );
    // A sub-request that carries its own `request_id` keeps it.
    let reply = parse(
        &e.handle_line(r#"{"op":"batch","requests":[{"op":"stats","id":1,"request_id":"mine"}]}"#),
    );
    let rs = reply.get("responses").unwrap().as_array().unwrap();
    assert_eq!(rs[0].get("request_id").unwrap().as_str(), Some("mine"));
    assert_eq!(
        rs[0].path(&["error", "kind"]).unwrap().as_str(),
        Some("deadline_exceeded")
    );
}

// -- partial (budgeted) advise ----------------------------------------------

#[test]
fn expired_deadline_returns_partial_advise_reply() {
    let e = engine();
    let reply = parse(&e.handle_line(
        r#"{"op":"advise","program":"tiled_matmul","cache":4096,
            "bindings":{"Ni":64,"Nj":64,"Nk":64},
            "space":{"syms":["Ti","Tj","Tk"],"max":[64,64,64],"min":4},
            "deadline_ms":0}"#,
    ));
    assert_eq!(reply.get("ok").unwrap().as_bool(), Some(true), "{reply:?}");
    assert_eq!(reply.get("completed").unwrap().as_bool(), Some(false));
    // Only the pre-paid seed evaluation ran: best is the largest tuple.
    let outcome = reply.get("outcome").unwrap();
    assert_eq!(outcome.get("evaluations").unwrap().as_u64(), Some(1));
    assert_eq!(outcome.get("completed").unwrap().as_bool(), Some(false));
    let tiles = outcome.path(&["best", "tiles"]).unwrap();
    for sym in ["Ti", "Tj", "Tk"] {
        assert_eq!(tiles.get(sym).unwrap().as_u64(), Some(64));
    }
    // Cancelled searches surface in stats.
    let stats = parse(&e.handle_line(r#"{"op":"stats"}"#));
    assert_eq!(
        stats
            .path(&["stats", "searches_cancelled"])
            .unwrap()
            .as_u64(),
        Some(1)
    );
}

/// The CI gate: a 1 ms deadline on an exhaustive sweep of the largest
/// builtin's full tile grid returns a well-formed partial reply quickly
/// instead of hanging.
#[test]
fn one_millisecond_deadline_on_largest_builtin_returns_quickly() {
    let e = engine();
    let started = std::time::Instant::now();
    let reply = parse(&e.handle_line(
        r#"{"op":"advise","program":"tiled_two_index","cache":8192,"mode":"exhaustive",
            "bindings":{"Ni":16384,"Nj":16384,"Nm":16384,"Nn":16384},
            "space":{"syms":["Ti","Tj","Tm","Tn"],"max":[16384,16384,16384,16384],"min":4},
            "deadline_ms":1}"#,
    ));
    let wall = started.elapsed();
    assert_eq!(reply.get("ok").unwrap().as_bool(), Some(true), "{reply:?}");
    assert_eq!(
        reply.get("completed").unwrap().as_bool(),
        Some(false),
        "a 13^4-point exhaustive sweep cannot finish within 1 ms"
    );
    let outcome = reply.get("outcome").unwrap();
    assert!(outcome.get("evaluations").unwrap().as_u64().unwrap() >= 1);
    assert!(outcome
        .path(&["best", "misses"])
        .unwrap()
        .as_u64()
        .is_some());
    // "Within budget" for CI purposes: cancellation latency is bounded by
    // one model evaluation per worker, far under this ceiling.
    assert!(wall.as_secs() < 5, "took {wall:?} despite a 1 ms deadline");
}

#[test]
fn advise_best_is_deterministic_over_the_wire() {
    let e = engine();
    let req = r#"{"op":"advise","program":"tiled_matmul","cache":4096,
        "bindings":{"Ni":128,"Nj":128,"Nk":128},
        "space":{"syms":["Ti","Tj","Tk"],"max":[128,128,128],"min":4}}"#;
    let first = parse(&e.handle_line(req));
    let best = first.path(&["outcome", "best"]).unwrap().render();
    for _ in 0..9 {
        let again = parse(&e.handle_line(req));
        assert_eq!(again.path(&["outcome", "best"]).unwrap().render(), best);
    }
}

// -- revise ------------------------------------------------------------------

#[test]
fn revise_reply_is_byte_stable() {
    let e = engine();
    let base = shape_hash("tiled_matmul");

    // Cold start: program attached, full bindings + cache sizes. The reply
    // key order and the miss count (Table 3 golden) are the v1 contract.
    let reply = e.handle_line(&format!(
        r#"{{"op":"revise","id":1,"request_id":"rv-1","base":"{base}","program":"tiled_matmul","delta":{{"bindings":{{"Ni":512,"Nj":512,"Nk":512,"Ti":64,"Tj":64,"Tk":64}},"cache_sizes":[8192]}}}}"#
    ));
    let cold = parse(&reply);
    assert_eq!(
        keys(&cold),
        [
            "id",
            "request_id",
            "v",
            "ok",
            "revised",
            "base",
            "misses",
            "revise"
        ]
    );
    assert_eq!(cold.get("revised").unwrap().as_bool(), Some(false));
    assert_eq!(cold.get("base").unwrap().as_str(), Some(base.as_str()));
    assert_eq!(
        cold.path(&["misses", "8192"]).unwrap().as_u64(),
        Some(6_291_456)
    );
    assert_eq!(
        keys(cold.get("revise").unwrap()),
        ["sessions", "nodes_reevaluated", "nodes_reused", "exprs"]
    );
    assert_eq!(
        cold.path(&["revise", "sessions"]).unwrap().as_u64(),
        Some(1)
    );

    // Warm: same base, tile-only delta — no program needed, and the answer
    // must be byte-identical to a fresh predict over the same point.
    let warm = parse(&e.handle_line(&format!(
        r#"{{"op":"revise","base":"{base}","delta":{{"bindings":{{"Ti":32,"Tj":32,"Tk":32}}}}}}"#
    )));
    assert_eq!(warm.get("revised").unwrap().as_bool(), Some(true));
    assert_eq!(
        warm.path(&["misses", "8192"]).unwrap().as_u64(),
        Some(8_650_752)
    );
    assert!(
        warm.path(&["revise", "nodes_reevaluated"])
            .unwrap()
            .as_u64()
            > Some(0)
    );
    let predict = parse(&e.handle_line(
        r#"{"op":"predict","program":"tiled_matmul","bindings":{"Ni":512,"Nj":512,"Nk":512,"Ti":32,"Tj":32,"Tk":32},"cache":8192}"#,
    ));
    assert_eq!(
        warm.path(&["misses", "8192"]).unwrap().as_u64(),
        predict.get("misses").unwrap().as_u64()
    );
}

#[test]
fn revise_error_envelopes_are_byte_stable() {
    let e = engine();

    // Unknown base with no program to establish the session.
    let reply = e.handle_line(
        r#"{"op":"revise","request_id":"rv-e1","base":"00000000deadbeef","delta":{"bindings":{},"cache_sizes":[1024]}}"#,
    );
    assert_eq!(
        reply,
        r#"{"request_id":"rv-e1","v":1,"ok":false,"error":{"kind":"schema","message":"unknown base `00000000deadbeef`; include `program` to establish the session"}}"#
    );

    // Malformed base hash.
    let reply = e.handle_line(r#"{"op":"revise","request_id":"rv-e2","base":"xyz","delta":{}}"#);
    assert_eq!(
        reply,
        r#"{"request_id":"rv-e2","v":1,"ok":false,"error":{"kind":"schema","message":"`base` must be a 16-hex canonical shape hash"}}"#
    );

    // Cold start without cache sizes: the delta cannot seed a DAG.
    let base = shape_hash("matmul");
    let reply = e.handle_line(&format!(
        r#"{{"op":"revise","request_id":"rv-e3","base":"{base}","program":"matmul","delta":{{"bindings":{{"Ni":64,"Nj":64,"Nk":64}}}}}}"#
    ));
    assert_eq!(
        reply,
        r#"{"request_id":"rv-e3","v":1,"ok":false,"error":{"kind":"schema","message":"`delta.cache_sizes` is required to establish a new revise session"}}"#
    );
}

#[test]
fn mismatched_revise_program_is_rejected_warm_as_cold() {
    // A `program` that does not canonicalize to `base` gets the same schema
    // error whether or not the base already holds a session.
    let e = engine();
    let base = shape_hash("tiled_matmul");
    let other = shape_hash("matmul");
    let mismatched = format!(
        r#"{{"op":"revise","request_id":"rv-m","base":"{base}","program":"matmul","delta":{{"bindings":{{"Ni":64,"Nj":64,"Nk":64}},"cache_sizes":[1024]}}}}"#
    );
    let golden = format!(
        r#"{{"request_id":"rv-m","v":1,"ok":false,"error":{{"kind":"schema","message":"`program` canonicalizes to `{other}`, which is not base `{base}`"}}}}"#
    );
    assert_eq!(e.handle_line(&mismatched), golden);

    let established = parse(&e.handle_line(&format!(
        r#"{{"op":"revise","base":"{base}","program":"tiled_matmul","delta":{{"bindings":{{"Ni":512,"Nj":512,"Nk":512,"Ti":64,"Tj":64,"Tk":64}},"cache_sizes":[8192]}}}}"#
    )));
    assert_eq!(established.get("revised").unwrap().as_bool(), Some(false));
    assert_eq!(e.handle_line(&mismatched), golden);

    // The live session is untouched.
    let noop = parse(&e.handle_line(&format!(
        r#"{{"op":"revise","base":"{base}","delta":{{}}}}"#
    )));
    assert_eq!(noop.get("revised").unwrap().as_bool(), Some(true));
    assert_eq!(noop.get("misses"), established.get("misses"));
}

#[test]
fn overflowing_revise_total_is_predicts_eval_error() {
    // Every component count fits in i64, but the total misses overflow
    // u64: `revise` answers what `predict` answers at the same point.
    let e = engine();
    let bindings = r#"{"Ni":2000000,"Nj":2000000,"Nk":2000000,"Ti":1,"Tj":1,"Tk":1}"#;
    let golden = r#"{"id":9,"request_id":"big","v":1,"ok":false,"error":{"kind":"eval","message":"evaluation failed: integer overflow"}}"#;
    let predict = e.handle_line(&format!(
        r#"{{"op":"predict","id":9,"request_id":"big","program":"tiled_matmul","bindings":{bindings},"cache":1}}"#
    ));
    assert_eq!(predict, golden);
    let base = shape_hash("tiled_matmul");
    let cold = e.handle_line(&format!(
        r#"{{"op":"revise","id":9,"request_id":"big","base":"{base}","program":"tiled_matmul","delta":{{"bindings":{bindings},"cache_sizes":[1]}}}}"#
    ));
    assert_eq!(cold, golden);

    // The same point reached by a warm delta fails the same way and keeps
    // the session's previous answer.
    let start = r#"{"Ni":64,"Nj":64,"Nk":64,"Ti":8,"Tj":8,"Tk":8}"#;
    let established = parse(&e.handle_line(&format!(
        r#"{{"op":"revise","base":"{base}","program":"tiled_matmul","delta":{{"bindings":{start},"cache_sizes":[1]}}}}"#
    )));
    let warm = e.handle_line(&format!(
        r#"{{"op":"revise","id":9,"request_id":"big","base":"{base}","delta":{{"bindings":{bindings}}}}}"#
    ));
    assert_eq!(warm, golden);
    let noop = parse(&e.handle_line(&format!(
        r#"{{"op":"revise","base":"{base}","delta":{{}}}}"#
    )));
    assert_eq!(noop.get("misses"), established.get("misses"));
}
