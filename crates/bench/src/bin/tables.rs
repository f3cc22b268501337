//! Regenerate the paper's tables and figures, and lint the builtin workloads.
//!
//! ```text
//! tables <experiment> [--scale small|paper] [--measure] [--n <bound>] [--json]
//! tables lint <program>... | --all-builtins [--apply] [--json]
//! tables deps <program>... | --all-builtins [--dot] [--json]
//! tables profile <program>... | --all-builtins [--trace-out PATH]
//!                [--budget-ms N] [--cache N] [--json]
//! tables trace-merge <input>... [--out PATH] [--json]
//!                [--require-cross-process]
//! tables trace-overhead [--max-ns N]
//!
//! experiments: table1 table2 table3 table4 fig10 fig11 ablations all
//! ```
//!
//! With `--json` the experiment's rows are additionally written to
//! `results/<experiment>.json` for downstream tooling; `lint --json` writes
//! `results/lint.json` and `deps --json` writes `results/deps.json`. `lint`
//! exits 1 if any error-severity diagnostic is reported, which is how
//! `ci.sh` gates the builtin workloads. `lint --apply` auto-applies every
//! *proven* fix-it to a fixpoint and re-lints the rewritten program; `deps`
//! dumps each program's dependence graph as a table (or GraphViz DOT with
//! `--dot`).
//!
//! `trace-merge` joins Chrome-trace exports from several processes (router +
//! backends, each a raw trace document or a saved `debug`/`trace_dump` reply)
//! into one cross-process timeline keyed by `trace_id`; `trace-overhead`
//! measures the disabled-tracing span cost and gates it against a ns/call
//! ceiling.

use sdlo_bench::*;
use sdlo_wire::Value;

fn usage(to_stderr: bool) {
    let text =
        "usage: tables <experiment> [--scale small|paper] [--measure] [--n <bound>] [--json]\n\
         \x20      tables lint <program>... | --all-builtins [--apply] [--json]\n\
         \x20      tables deps <program>... | --all-builtins [--dot] [--json]\n\
         \n\
         experiments: table1 table2 table3 table4 fig10 fig11\n\
         \x20            ablations (aliases: ablation-assoc ablation-line\n\
         \x20            ablation-search ablation-limits) | all\n\
         \n\
         --scale small|paper   problem sizes (default: paper)\n\
         --measure             also run the real kernels for fig10/fig11\n\
         --n <bound>           override the loop bound for fig10/fig11\n\
         --json                also write results/<experiment>.json\n\
         \n\
         lint runs the static analyzer over builtin programs (see\n\
         sdlo-analysis); it exits 1 if any error-severity diagnostic fires.\n\
         --all-builtins        lint every builtin workload\n\
         --apply               auto-apply proven fix-its to a fixpoint,\n\
         \x20                     then re-lint the rewritten program\n\
         \n\
         deps dumps each program's data-dependence graph (sdlo-deps):\n\
         direction vectors, carried-by levels, parallelizable loops.\n\
         --dot                 emit GraphViz DOT instead of the table\n\
         \n\
         profile runs each pipeline phase (model build, prediction, tile\n\
         search, simulator replay) under the trace collector and prints a\n\
         per-phase wall-time/counter table, plus the tile search's\n\
         per-grid-point evaluator cost (tape vs tree walk) for the tiled\n\
         builtins.\n\
         \x20 tables profile <program>... | --all-builtins\n\
         \x20         [--trace-out PATH]  Chrome trace JSON (Perfetto-loadable)\n\
         \x20         [--budget-ms N]     exit 1 if model.build, tilesearch.pruned\n\
         \x20                             or cachesim.replay exceeds N ms\n\
         \x20         [--cache N]         cache size in elements (default 8192)\n\
         \x20         [--json]            also write results/profile.json\n\
         \n\
         trace-merge joins per-process Chrome traces into one fleet\n\
         timeline; inputs are raw trace documents or saved trace_dump\n\
         replies (their epoch_unix_micros rebases timestamps).\n\
         \x20 tables trace-merge <input>...\n\
         \x20         [--out PATH]        merged trace (default\n\
         \x20                             results/fleet-trace.json)\n\
         \x20         [--json]            also write results/trace-merge.json\n\
         \x20         [--require-cross-process]  exit 1 unless some trace_id\n\
         \x20                             spans more than one process\n\
         \n\
         trace-overhead measures the disabled-tracing span fast path and\n\
         prints its ns/call.\n\
         \x20 tables trace-overhead [--max-ns N]   gate, ns/call (default 150)";
    if to_stderr {
        eprintln!("{text}");
    } else {
        println!("{text}");
    }
}

struct Options {
    experiment: String,
    scale: Scale,
    measure: bool,
    n_override: Option<u64>,
    json: bool,
}

fn fail(message: &str) -> ! {
    eprintln!("error: {message}\n");
    usage(true);
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> Options {
    let mut experiment: Option<String> = None;
    let mut scale = Scale::Paper;
    let mut measure = false;
    let mut n_override = None;
    let mut json = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => match it.next().map(String::as_str) {
                Some("small") => scale = Scale::Small,
                Some("paper") => scale = Scale::Paper,
                Some(other) => fail(&format!("unknown scale `{other}`")),
                None => fail("--scale requires a value (small|paper)"),
            },
            "--n" => match it.next() {
                Some(v) => match v.parse::<u64>() {
                    Ok(n) if n > 0 => n_override = Some(n),
                    _ => fail(&format!("--n requires a positive integer, got `{v}`")),
                },
                None => fail("--n requires a value"),
            },
            "--measure" => measure = true,
            "--json" => json = true,
            "--help" | "-h" => {
                usage(false);
                std::process::exit(0);
            }
            flag if flag.starts_with('-') => fail(&format!("unknown flag `{flag}`")),
            positional => {
                if experiment.is_some() {
                    fail(&format!("unexpected argument `{positional}`"));
                }
                experiment = Some(positional.to_string());
            }
        }
    }
    Options {
        experiment: experiment.unwrap_or_else(|| "all".to_string()),
        scale,
        measure,
        n_override,
        json,
    }
}

// ---------------------------------------------------------------------------
// Text renderers
// ---------------------------------------------------------------------------

fn print_miss_rows(title: &str, rows: &[MissRow]) {
    println!("{title}");
    println!(
        "{:<44} {:>10} {:>14} {:>14} {:>8}",
        "config", "cache", "#predicted", "#actual", "err"
    );
    for r in rows {
        println!(
            "{:<44} {:>10} {:>14} {:>14} {:>7.2}%",
            r.config,
            r.cache,
            r.predicted,
            r.actual,
            100.0 * r.rel_error()
        );
    }
    println!();
}

fn print_table4(unknown: &Table4Row, known: &[Table4Row]) {
    println!("Table 4 — best tile sizes, 64 KB cache, two-index transform");
    println!("{:<12} {:<24}", "loop bound", "best tiles (Ti,Tj,Tm,Tn)");
    for row in known {
        println!("{:<12} {:?}", row.bound, row.tiles);
    }
    println!("{:<12} {:?}", "unknown", unknown.tiles);
    println!();
}

fn print_figure(fig: &str, n: u64, series: &[FigSeries]) {
    println!("Figure {fig} — two-index transform, loop range {n}: time (s) vs processors");
    print!("{:<28}", "tiles \\ P");
    for p in [1, 2, 4, 8] {
        print!(" {:>22}", format!("P={p} (bus/inf bw)"));
    }
    println!();
    for s in series {
        print!("{:<28}", s.label);
        for pt in &s.points {
            let m = match pt.measured {
                Some(t) => format!(" meas {t:.2}"),
                None => String::new(),
            };
            print!(
                " {:>22}",
                format!("{:.2}/{:.2}{m}", pt.bus_limited, pt.infinite_bw)
            );
        }
        println!();
    }
    println!();
}

fn print_ablations(
    assoc: &[(String, u64)],
    line: &[(String, u64, u64)],
    search: &[(String, usize, usize, bool)],
    limits: &[(u64, f64, f64)],
) {
    println!("Ablation — associativity / tile copying (tiled MM, 64³ tiles)");
    for (label, misses) in assoc {
        println!("  {label:<36} {misses}");
    }
    println!();
    println!("Ablation — element vs 8-double-line granularity (tiled MM)");
    for (label, elem, ln) in line {
        println!("  {label:<16} element {elem:>12}   line(8) {ln:>12}");
    }
    println!();
    println!("Ablation — pruned vs exhaustive tile search (two-index, 64 KB)");
    for (label, frontier, exhaustive, same) in search {
        println!(
            "  {label:<8} frontier miss-evals {frontier:>4} vs exhaustive {exhaustive:>5}, same best: {same}"
        );
    }
    println!();
    println!("Ablation — §7 limit-model bracket (N=512, tiles (64,16,16,64))");
    for (p, bus, inf) in limits {
        println!("  P={p:<3} bus-limited {bus:>8.3}s   infinite-bw {inf:>8.3}s");
    }
    println!();
}

// ---------------------------------------------------------------------------
// JSON renderers
// ---------------------------------------------------------------------------

fn miss_rows_value(rows: &[MissRow]) -> Value {
    Value::Array(
        rows.iter()
            .map(|r| {
                Value::obj(vec![
                    ("config", Value::from(r.config.as_str())),
                    ("cache", Value::from(r.cache)),
                    ("predicted", Value::from(r.predicted)),
                    ("actual", Value::from(r.actual)),
                    ("rel_error", Value::from(r.rel_error())),
                ])
            })
            .collect(),
    )
}

fn tiles_value(tiles: &[u64]) -> Value {
    Value::Array(tiles.iter().map(|t| Value::from(*t)).collect())
}

fn table4_value(unknown: &Table4Row, known: &[Table4Row]) -> Value {
    Value::obj(vec![
        (
            "known_bounds",
            Value::Array(
                known
                    .iter()
                    .map(|r| {
                        Value::obj(vec![
                            ("bound", Value::from(r.bound)),
                            ("tiles", tiles_value(&r.tiles)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "unknown_bound",
            Value::obj(vec![("tiles", tiles_value(&unknown.tiles))]),
        ),
    ])
}

fn figure_value(n: u64, series: &[FigSeries]) -> Value {
    Value::obj(vec![
        ("n", Value::from(n)),
        (
            "series",
            Value::Array(
                series
                    .iter()
                    .map(|s| {
                        Value::obj(vec![
                            ("label", Value::from(s.label.as_str())),
                            (
                                "points",
                                Value::Array(
                                    s.points
                                        .iter()
                                        .map(|pt| {
                                            Value::obj(vec![
                                                ("processors", Value::from(pt.processors)),
                                                ("bus_limited_s", Value::from(pt.bus_limited)),
                                                ("infinite_bw_s", Value::from(pt.infinite_bw)),
                                                (
                                                    "measured_s",
                                                    pt.measured
                                                        .map(Value::from)
                                                        .unwrap_or(Value::Null),
                                                ),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn ablations_value(
    assoc: &[(String, u64)],
    line: &[(String, u64, u64)],
    search: &[(String, usize, usize, bool)],
    limits: &[(u64, f64, f64)],
) -> Value {
    Value::obj(vec![
        (
            "associativity",
            Value::Array(
                assoc
                    .iter()
                    .map(|(label, misses)| {
                        Value::obj(vec![
                            ("label", Value::from(label.as_str())),
                            ("misses", Value::from(*misses)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "line_granularity",
            Value::Array(
                line.iter()
                    .map(|(label, elem, ln)| {
                        Value::obj(vec![
                            ("label", Value::from(label.as_str())),
                            ("element_misses", Value::from(*elem)),
                            ("line8_misses", Value::from(*ln)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "search",
            Value::Array(
                search
                    .iter()
                    .map(|(label, frontier, exhaustive, same)| {
                        Value::obj(vec![
                            ("label", Value::from(label.as_str())),
                            ("frontier_evals", Value::from(*frontier)),
                            ("exhaustive_evals", Value::from(*exhaustive)),
                            ("same_best", Value::from(*same)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "limits",
            Value::Array(
                limits
                    .iter()
                    .map(|(p, bus, inf)| {
                        Value::obj(vec![
                            ("processors", Value::from(*p)),
                            ("bus_limited_s", Value::from(*bus)),
                            ("infinite_bw_s", Value::from(*inf)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn write_json(experiment: &str, value: &Value) {
    let dir = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("error: cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let path = dir.join(format!("{experiment}.json"));
    if let Err(e) = std::fs::write(&path, value.render() + "\n") {
        eprintln!("error: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    eprintln!("wrote {}", path.display());
}

// ---------------------------------------------------------------------------
// Experiment drivers: run once, render to text, optionally to JSON.
// ---------------------------------------------------------------------------

fn run_table1(json: bool) -> Option<Value> {
    let text = table1();
    println!("{text}");
    json.then(|| Value::obj(vec![("text", Value::from(text))]))
}

fn run_table2(scale: Scale, json: bool) -> Option<Value> {
    let rows = table2(scale);
    print_miss_rows(
        "Table 2 — tiled two-index transform: predicted vs simulated misses",
        &rows,
    );
    json.then(|| miss_rows_value(&rows))
}

fn run_table3(scale: Scale, json: bool) -> Option<Value> {
    let rows = table3(scale);
    print_miss_rows(
        "Table 3 — tiled matrix multiplication: predicted vs simulated misses",
        &rows,
    );
    json.then(|| miss_rows_value(&rows))
}

fn run_table4(json: bool) -> Option<Value> {
    let (unknown, known) = table4();
    print_table4(&unknown, &known);
    json.then(|| table4_value(&unknown, &known))
}

fn run_figure(fig: &str, n: u64, measure: bool, json: bool) -> Option<Value> {
    let series = figure(n, measure);
    print_figure(fig, n, &series);
    json.then(|| figure_value(n, &series))
}

fn run_ablations(scale: Scale, json: bool) -> Option<Value> {
    let assoc = ablation_associativity(scale);
    let line = ablation_line(scale);
    let search = ablation_search();
    let limits = ablation_limits(512);
    print_ablations(&assoc, &line, &search, &limits);
    json.then(|| ablations_value(&assoc, &line, &search, &limits))
}

// ---------------------------------------------------------------------------
// `tables lint` — static diagnostics over the builtin workloads
// ---------------------------------------------------------------------------

/// Apply every *proven* fix-it of `program` to a fixpoint: re-lint after
/// each application (statement numbering and segments change under the
/// rewrite) until no proven applicable fix-it remains. Returns the rewritten
/// program and the applied fix-it details, newest last.
fn apply_proven_fixits(program: &sdlo_ir::Program) -> (sdlo_ir::Program, Vec<String>) {
    use sdlo_analysis::{lint, Legality};
    let mut current = program.clone();
    let mut applied = Vec::new();
    // A cap, not a loop bound: each application removes the diagnostic that
    // proposed it, so builtins converge in one or two rounds.
    for _ in 0..16 {
        let next = lint(&current).into_iter().find_map(|d| {
            d.fixit.and_then(|fx| {
                (fx.legality == Legality::Proven)
                    .then_some(fx)
                    .and_then(|fx| fx.target.map(|t| (fx.detail, t)))
            })
        });
        let Some((detail, target)) = next else { break };
        match target.apply(&current) {
            Ok(rewritten) => {
                applied.push(detail);
                current = rewritten;
            }
            Err(e) => fail(&format!(
                "proven fix-it failed to apply on `{}`: {e} ({detail})",
                program.name
            )),
        }
    }
    (current, applied)
}

/// Run the linter over the named builtins. Exits 2 on usage errors, 1 if any
/// error-severity diagnostic fires (the `ci.sh` gate), 0 otherwise. With
/// `--apply`, proven fix-its are auto-applied first and the *rewritten*
/// program is what gets reported and gated.
fn run_lint(args: &[String]) -> ! {
    use sdlo_analysis::{lint, render_report, SeverityCounts};
    use sdlo_ir::programs::{builtin, BUILTIN_NAMES};

    let mut names: Vec<String> = Vec::new();
    let mut json = false;
    let mut apply = false;
    for arg in args {
        match arg.as_str() {
            "--all-builtins" => names.extend(BUILTIN_NAMES.iter().map(|n| n.to_string())),
            "--json" => json = true,
            "--apply" => apply = true,
            "--help" | "-h" => {
                usage(false);
                std::process::exit(0);
            }
            flag if flag.starts_with('-') => fail(&format!("unknown flag `{flag}`")),
            positional => names.push(positional.to_string()),
        }
    }
    if names.is_empty() {
        fail("lint requires at least one program name or --all-builtins");
    }

    let mut total = SeverityCounts::default();
    let mut report = Vec::new();
    for name in &names {
        let program = builtin(name).unwrap_or_else(|| {
            fail(&format!(
                "unknown builtin program `{name}` (expected one of {})",
                BUILTIN_NAMES.join(", ")
            ))
        });
        let (program, applied) = if apply {
            apply_proven_fixits(&program)
        } else {
            (program, Vec::new())
        };
        let diags = lint(&program);
        let counts = SeverityCounts::of(&diags);
        total.errors += counts.errors;
        total.warnings += counts.warnings;
        total.infos += counts.infos;
        println!("== {name} ==");
        for detail in &applied {
            println!("{name}: applied: {detail}");
        }
        if !applied.is_empty() {
            println!("{name}: rewritten program:\n{}", program.render());
        }
        println!("{}", render_report(&program, &diags));
        let mut fields = vec![
            (
                "diagnostics",
                Value::Array(diags.iter().map(sdlo_wire::diagnostic_to_value).collect()),
            ),
            (
                "summary",
                Value::obj(vec![
                    ("error", Value::from(counts.errors)),
                    ("warning", Value::from(counts.warnings)),
                    ("info", Value::from(counts.infos)),
                ]),
            ),
        ];
        if apply {
            fields.push((
                "applied",
                Value::Array(applied.iter().map(|d| Value::from(d.as_str())).collect()),
            ));
        }
        report.push((name.to_string(), Value::obj(fields)));
    }
    if json {
        write_json("lint", &Value::Object(report));
    }
    println!(
        "lint: {} program(s), {} error(s), {} warning(s), {} info(s)",
        names.len(),
        total.errors,
        total.warnings,
        total.infos
    );
    std::process::exit(if total.errors > 0 { 1 } else { 0 });
}

// ---------------------------------------------------------------------------
// `tables deps` — dependence graphs of the builtin workloads
// ---------------------------------------------------------------------------

/// Dump the data-dependence graph of the named builtins as a table (default)
/// or GraphViz DOT (`--dot`); `--json` writes `results/deps.json`.
fn run_deps(args: &[String]) -> ! {
    use sdlo_ir::programs::{builtin, BUILTIN_NAMES};

    let mut names: Vec<String> = Vec::new();
    let mut json = false;
    let mut dot = false;
    for arg in args {
        match arg.as_str() {
            "--all-builtins" => names.extend(BUILTIN_NAMES.iter().map(|n| n.to_string())),
            "--json" => json = true,
            "--dot" => dot = true,
            "--help" | "-h" => {
                usage(false);
                std::process::exit(0);
            }
            flag if flag.starts_with('-') => fail(&format!("unknown flag `{flag}`")),
            positional => names.push(positional.to_string()),
        }
    }
    if names.is_empty() {
        fail("deps requires at least one program name or --all-builtins");
    }

    let mut report = Vec::new();
    for name in &names {
        let program = builtin(name).unwrap_or_else(|| {
            fail(&format!(
                "unknown builtin program `{name}` (expected one of {})",
                BUILTIN_NAMES.join(", ")
            ))
        });
        let graph = sdlo_deps::analyze(&program);
        if dot {
            println!("{}", graph.to_dot(name));
        } else {
            println!("== {name} ==");
            println!("{}", graph.render_table());
        }
        let deps = graph
            .deps
            .iter()
            .map(|d| {
                Value::obj(vec![
                    ("kind", Value::from(d.kind.name())),
                    ("array", Value::from(d.array.name())),
                    (
                        "src",
                        Value::obj(vec![
                            ("stmt", Value::from(d.src.stmt.0)),
                            ("ref", Value::from(d.src.ref_idx)),
                        ]),
                    ),
                    (
                        "dst",
                        Value::obj(vec![
                            ("stmt", Value::from(d.dst.stmt.0)),
                            ("ref", Value::from(d.dst.ref_idx)),
                        ]),
                    ),
                    (
                        "loops",
                        Value::Array(d.loops.iter().map(|l| Value::from(l.name())).collect()),
                    ),
                    ("vector", Value::from(d.vector_string())),
                    ("loop_independent", Value::from(d.loop_independent)),
                    ("precise", Value::from(d.precise)),
                ])
            })
            .collect();
        report.push((
            name.to_string(),
            Value::obj(vec![
                ("deps", Value::Array(deps)),
                ("summary", sdlo_wire::dep_summary_to_value(&graph.summary())),
            ]),
        ));
    }
    if json {
        write_json("deps", &Value::Object(report));
    }
    std::process::exit(0);
}

// ---------------------------------------------------------------------------
// `tables profile` — phase profiling with Chrome trace export
// ---------------------------------------------------------------------------

/// Profile the named builtins (model build, prediction, tile search,
/// simulator replay) under the trace collector. Prints a per-phase
/// wall-time/counter table; `--trace-out` additionally writes a Chrome
/// trace-event JSON loadable in Perfetto. Exits 1 if `--budget-ms` is set
/// and any builtin's `model.build` span exceeds it.
/// Pipeline phases gated by `--budget-ms`: each must individually stay
/// inside the budget for every profiled builtin.
const GATED_PHASES: [&str; 3] = ["model.build", "tilesearch.pruned", "cachesim.replay"];

fn run_profile(args: &[String]) -> ! {
    use sdlo_bench::profile::{chrome_trace, profile_builtin, resolve_name, ProfileOptions};
    use sdlo_ir::programs::BUILTIN_NAMES;

    let mut names: Vec<String> = Vec::new();
    let mut trace_out: Option<String> = None;
    let mut budget_ms: Option<u64> = None;
    let mut json = false;
    let mut opts = ProfileOptions::default();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--all-builtins" => names.extend(BUILTIN_NAMES.iter().map(|n| n.to_string())),
            "--trace-out" => match it.next() {
                Some(p) => trace_out = Some(p.clone()),
                None => fail("--trace-out requires a path"),
            },
            "--budget-ms" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(n)) if n > 0 => budget_ms = Some(n),
                _ => fail("--budget-ms requires a positive integer"),
            },
            "--cache" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(n)) if n > 0 => opts.cache = n,
                _ => fail("--cache requires a positive integer (elements)"),
            },
            "--json" => json = true,
            "--help" | "-h" => {
                usage(false);
                std::process::exit(0);
            }
            flag if flag.starts_with('-') => fail(&format!("unknown flag `{flag}`")),
            positional => names.push(positional.to_string()),
        }
    }
    if names.is_empty() {
        fail("profile requires at least one program name or --all-builtins");
    }

    let mut reports = Vec::new();
    let mut over_budget = false;
    for name in &names {
        let report = profile_builtin(name, &opts).unwrap_or_else(|| {
            fail(&format!(
                "unknown builtin program `{name}` (expected one of {}, or two_index_tiled)",
                BUILTIN_NAMES.join(", ")
            ))
        });
        debug_assert_eq!(Some(report.program.as_str()), resolve_name(name));
        println!("== {} ==", report.program);
        println!(
            "{:<24} {:>6} {:>12}   counters",
            "phase", "calls", "total µs"
        );
        for p in &report.phases {
            let counters = p
                .counters
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ");
            println!(
                "{:<24} {:>6} {:>12}   {}",
                p.name, p.calls, p.total_micros, counters
            );
        }
        if let Some(e) = &report.evaluator {
            println!(
                "search evaluator: tape {:.0} ns, tree walk {:.0} ns per grid point \
                 over {} points, {:.2}x, compile {:.0} µs, identical: {}",
                e.tape_nanos, e.tree_nanos, e.points, e.speedup, e.compile_micros, e.identical
            );
        }
        println!();
        if let Some(budget) = budget_ms {
            // Every pipeline stage is gated, not just the model build: a
            // search or replay regression must fail CI the same way. A
            // stage a builtin never runs (untiled builtins have no tile
            // search) sums to zero and trivially passes.
            for phase in GATED_PHASES {
                let micros: u64 = report
                    .phases
                    .iter()
                    .filter(|p| p.name == phase)
                    .map(|p| p.total_micros)
                    .sum();
                if micros > budget * 1000 {
                    eprintln!(
                        "error: {}: {phase} took {micros} µs, budget is {budget} ms",
                        report.program
                    );
                    over_budget = true;
                }
            }
        }
        reports.push(report);
    }

    if let Some(path) = &trace_out {
        if let Some(dir) = std::path::Path::new(path).parent() {
            if !dir.as_os_str().is_empty() {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    eprintln!("error: cannot create {}: {e}", dir.display());
                    std::process::exit(1);
                }
            }
        }
        if let Err(e) = std::fs::write(path, chrome_trace(&reports)) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
    if json {
        let doc = Value::Object(
            reports
                .iter()
                .map(|r| {
                    (
                        r.program.clone(),
                        Value::obj(vec![
                            (
                                "phases",
                                Value::Array(
                                    r.phases
                                        .iter()
                                        .map(|p| {
                                            Value::obj(vec![
                                                ("name", Value::from(p.name.as_str())),
                                                ("calls", Value::from(p.calls)),
                                                ("total_micros", Value::from(p.total_micros)),
                                                (
                                                    "counters",
                                                    Value::Object(
                                                        p.counters
                                                            .iter()
                                                            .map(|(k, v)| {
                                                                (k.clone(), Value::from(*v))
                                                            })
                                                            .collect(),
                                                    ),
                                                ),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                            (
                                "search_evaluator",
                                r.evaluator
                                    .as_ref()
                                    .map(|e| {
                                        Value::obj(vec![
                                            ("points", Value::from(e.points as u64)),
                                            ("compile_micros", Value::from(e.compile_micros)),
                                            ("tape_nanos", Value::from(e.tape_nanos)),
                                            ("tree_walk_nanos", Value::from(e.tree_nanos)),
                                            ("speedup", Value::from(e.speedup)),
                                            ("identical", Value::from(e.identical)),
                                        ])
                                    })
                                    .unwrap_or(Value::Null),
                            ),
                            (
                                "budgets",
                                budget_ms
                                    .map(|budget| {
                                        Value::obj(vec![
                                            ("budget_ms", Value::from(budget)),
                                            (
                                                "phases",
                                                Value::Object(
                                                    GATED_PHASES
                                                        .iter()
                                                        .map(|phase| {
                                                            let micros: u64 = r
                                                                .phases
                                                                .iter()
                                                                .filter(|p| p.name == *phase)
                                                                .map(|p| p.total_micros)
                                                                .sum();
                                                            (
                                                                phase.to_string(),
                                                                Value::obj(vec![
                                                                    (
                                                                        "total_micros",
                                                                        Value::from(micros),
                                                                    ),
                                                                    (
                                                                        "within_budget",
                                                                        Value::from(
                                                                            micros <= budget * 1000,
                                                                        ),
                                                                    ),
                                                                ]),
                                                            )
                                                        })
                                                        .collect(),
                                                ),
                                            ),
                                        ])
                                    })
                                    .unwrap_or(Value::Null),
                            ),
                        ]),
                    )
                })
                .collect(),
        );
        write_json("profile", &doc);
    }
    std::process::exit(if over_budget { 1 } else { 0 });
}

// ---------------------------------------------------------------------------
// `tables trace-merge` — one fleet timeline from per-process Chrome traces
// ---------------------------------------------------------------------------

/// One parsed input: its label (file stem), its trace events, and the unix
/// epoch its timestamps are relative to (0 when the input did not carry one).
struct TraceInput {
    label: String,
    events: Vec<Value>,
    epoch_unix_micros: u64,
}

/// Accept either a raw Chrome trace document (`{"traceEvents":[…]}`) or a
/// saved `debug`/`trace_dump` reply envelope, whose `chrome` field holds the
/// document as a string and whose `epoch_unix_micros` anchors its clock.
fn load_trace_input(path: &str) -> TraceInput {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read `{path}`: {e}")));
    let doc = sdlo_wire::parse(text.trim())
        .unwrap_or_else(|e| fail(&format!("`{path}` is not valid JSON: {e}")));
    let (doc, epoch) = match doc.get("chrome").and_then(Value::as_str) {
        Some(inner) => {
            let epoch = doc
                .get("epoch_unix_micros")
                .and_then(Value::as_u64)
                .unwrap_or(0);
            let inner = sdlo_wire::parse(inner)
                .unwrap_or_else(|e| fail(&format!("`{path}`: chrome field is not JSON: {e}")));
            (inner, epoch)
        }
        None => {
            let epoch = doc
                .get("epoch_unix_micros")
                .and_then(Value::as_u64)
                .unwrap_or(0);
            (doc, epoch)
        }
    };
    let events = match doc.get("traceEvents") {
        Some(Value::Array(events)) => events.clone(),
        _ => fail(&format!("`{path}` has no traceEvents array")),
    };
    let label = std::path::Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_string());
    TraceInput {
        label,
        events,
        epoch_unix_micros: epoch,
    }
}

fn event_ts(event: &Value) -> u64 {
    match event.get("ts") {
        Some(v) => v
            .as_u64()
            .or_else(|| v.as_f64().map(|f| f.max(0.0) as u64))
            .unwrap_or(0),
        None => 0,
    }
}

/// The event with its `pid` replaced and its `ts` shifted onto the shared
/// fleet clock; every other field passes through untouched.
fn rebased_event(event: &Value, pid: u64, shift: u64) -> Value {
    let Value::Object(fields) = event else {
        return event.clone();
    };
    let mut out: Vec<(String, Value)> = Vec::with_capacity(fields.len() + 1);
    let mut saw_pid = false;
    for (k, v) in fields {
        match k.as_str() {
            "pid" => {
                saw_pid = true;
                out.push((k.clone(), Value::from(pid)));
            }
            "ts" => out.push((k.clone(), Value::from(event_ts(event) + shift))),
            _ => out.push((k.clone(), v.clone())),
        }
    }
    if !saw_pid {
        out.push(("pid".to_string(), Value::from(pid)));
    }
    Value::Object(out)
}

/// Merge per-process Chrome traces into one timeline: each input becomes one
/// pid (named after its file), timestamps are rebased onto the earliest
/// input's epoch, and trace ids are joined across processes. Exits 1 under
/// `--require-cross-process` when no trace_id spans more than one process —
/// the fleet-smoke gate that proves router→backend propagation end to end.
fn run_trace_merge(args: &[String]) -> ! {
    let mut inputs: Vec<String> = Vec::new();
    let mut out_path = "results/fleet-trace.json".to_string();
    let mut json = false;
    let mut require_cross = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(p) => out_path = p.clone(),
                None => fail("--out requires a path"),
            },
            "--json" => json = true,
            "--require-cross-process" => require_cross = true,
            "--help" | "-h" => {
                usage(false);
                std::process::exit(0);
            }
            flag if flag.starts_with('-') => fail(&format!("unknown flag `{flag}`")),
            positional => inputs.push(positional.to_string()),
        }
    }
    if inputs.is_empty() {
        fail("trace-merge requires at least one input trace");
    }

    let inputs: Vec<TraceInput> = inputs.iter().map(|p| load_trace_input(p)).collect();
    // Rebase onto the earliest anchored clock; inputs without an epoch stay
    // unshifted (their spans were already relative to process start).
    let min_epoch = inputs
        .iter()
        .map(|i| i.epoch_unix_micros)
        .filter(|e| *e > 0)
        .min()
        .unwrap_or(0);
    let mut merged: Vec<Value> = Vec::new();
    for (i, input) in inputs.iter().enumerate() {
        let pid = i as u64 + 1;
        let shift = if input.epoch_unix_micros > 0 {
            input.epoch_unix_micros - min_epoch
        } else {
            0
        };
        merged.push(Value::obj(vec![
            ("name", Value::from("process_name")),
            ("ph", Value::from("M")),
            ("pid", Value::from(pid)),
            ("tid", Value::from(0u64)),
            (
                "args",
                Value::obj(vec![("name", Value::from(input.label.as_str()))]),
            ),
        ]));
        for event in &input.events {
            merged.push(rebased_event(event, pid, shift));
        }
    }
    merged.sort_by_key(event_ts);

    // Join: which processes saw each trace_id (span-begin args carry it).
    let mut trace_pids: std::collections::BTreeMap<String, std::collections::BTreeSet<u64>> =
        std::collections::BTreeMap::new();
    for event in &merged {
        if event.get("ph").and_then(Value::as_str) != Some("B") {
            continue;
        }
        let Some(trace_id) = event.path(&["args", "trace_id"]).and_then(Value::as_str) else {
            continue;
        };
        let pid = event.get("pid").and_then(Value::as_u64).unwrap_or(0);
        trace_pids
            .entry(trace_id.to_string())
            .or_default()
            .insert(pid);
    }
    let cross_process = trace_pids.values().filter(|pids| pids.len() > 1).count();

    let doc = Value::obj(vec![
        ("displayTimeUnit", Value::from("ms")),
        ("traceEvents", Value::Array(merged)),
    ]);
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    if let Err(e) = std::fs::write(&out_path, doc.render() + "\n") {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    let events: usize = inputs.iter().map(|i| i.events.len()).sum();
    println!(
        "trace-merge: {} process(es), {events} event(s), {} trace id(s), {cross_process} cross-process — wrote {out_path}",
        inputs.len(),
        trace_pids.len(),
    );
    if json {
        write_json(
            "trace-merge",
            &Value::obj(vec![
                ("processes", Value::from(inputs.len() as u64)),
                ("events", Value::from(events as u64)),
                ("trace_ids", Value::from(trace_pids.len() as u64)),
                ("cross_process_traces", Value::from(cross_process as u64)),
                ("out", Value::from(out_path.as_str())),
            ]),
        );
    }
    if require_cross && cross_process == 0 {
        eprintln!("error: no trace_id spans more than one process");
        std::process::exit(1);
    }
    std::process::exit(0);
}

// ---------------------------------------------------------------------------
// `tables trace-overhead` — disabled-tracing fast-path gate
// ---------------------------------------------------------------------------

/// Measure what a span costs when no collector is installed — the price
/// every request pays for always-compiled tracing — and gate it against a
/// ns/call ceiling. Prints the measurement and writes no file: the number
/// depends on the host.
fn run_trace_overhead(args: &[String]) -> ! {
    let mut max_ns: f64 = 150.0;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--max-ns" => match it.next().map(|v| v.parse::<f64>()) {
                Some(Ok(n)) if n > 0.0 => max_ns = n,
                _ => fail("--max-ns requires a positive number"),
            },
            "--help" | "-h" => {
                usage(false);
                std::process::exit(0);
            }
            flag => fail(&format!("unknown argument `{flag}`")),
        }
    }
    assert!(
        !sdlo_trace::enabled(),
        "trace-overhead must run without a collector installed"
    );
    const ITERS: u64 = 4_000_000;
    // Baseline: the identical loop minus the span, so the subtraction
    // isolates span creation + drop on the disabled path. One warm-up round
    // keeps the first measurement off cold caches.
    let time_loop = |with_span: bool| {
        let start = std::time::Instant::now();
        for i in 0..ITERS {
            if with_span {
                let span = sdlo_trace::span("bench.overhead");
                std::hint::black_box(i);
                drop(span);
            } else {
                std::hint::black_box(i);
            }
        }
        start.elapsed()
    };
    let _ = time_loop(true);
    let baseline = time_loop(false);
    let spans = time_loop(true);
    let per_call_ns = spans.saturating_sub(baseline).as_nanos() as f64 / ITERS as f64;
    println!(
        "disabled-tracing span overhead: {per_call_ns:.2} ns/call \
         (span loop {:.1} ms, baseline {:.1} ms, {ITERS} iterations, gate {max_ns:.0} ns)",
        spans.as_secs_f64() * 1e3,
        baseline.as_secs_f64() * 1e3,
    );
    if per_call_ns > max_ns {
        eprintln!(
            "error: disabled-span overhead {per_call_ns:.2} ns/call exceeds gate {max_ns:.0} ns"
        );
        std::process::exit(1);
    }
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("lint") {
        run_lint(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("deps") {
        run_deps(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("profile") {
        run_profile(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("trace-merge") {
        run_trace_merge(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("trace-overhead") {
        run_trace_overhead(&args[1..]);
    }
    let opts = parse_args(&args);
    let Options {
        scale,
        measure,
        n_override,
        json,
        ..
    } = opts;

    let emit = |value: Option<Value>| {
        if let Some(v) = value {
            write_json(&opts.experiment, &v);
        }
    };
    match opts.experiment.as_str() {
        "table1" => emit(run_table1(json)),
        "table2" => emit(run_table2(scale, json)),
        "table3" => emit(run_table3(scale, json)),
        "table4" => emit(run_table4(json)),
        "fig10" => emit(run_figure("10", n_override.unwrap_or(1024), measure, json)),
        "fig11" => emit(run_figure("11", n_override.unwrap_or(2048), measure, json)),
        "ablations" | "ablation-assoc" | "ablation-line" | "ablation-search"
        | "ablation-limits" => emit(run_ablations(scale, json)),
        "all" => {
            let parts = vec![
                ("table1", run_table1(json)),
                ("table2", run_table2(scale, json)),
                ("table3", run_table3(scale, json)),
                ("table4", run_table4(json)),
                (
                    "fig10",
                    run_figure("10", n_override.unwrap_or(1024), measure, json),
                ),
                (
                    "fig11",
                    run_figure("11", n_override.unwrap_or(2048), measure, json),
                ),
                ("ablations", run_ablations(scale, json)),
            ];
            if json {
                let all = parts
                    .into_iter()
                    .filter_map(|(name, v)| v.map(|v| (name.to_string(), v)))
                    .collect();
                write_json("all", &Value::Object(all));
            }
        }
        other => fail(&format!("unknown experiment `{other}`")),
    }
}
