//! `paper_tables`: the paper's own use. A child process predicts every row
//! of Tables 2 and 3 and simulates Table 3's three N=256 rows exactly, and
//! every answer is checked. The requests timed are the three simulations:
//! a prediction takes microseconds, where run-to-run noise on this class of
//! host exceeds any bound. The child runs apart from the load generator so
//! its CPU and peak memory are the pipeline's alone.

use crate::fleet::{self, Proc};
use crate::gen::{self, Prog, Query, Spec};
use crate::layers::{self, MissModel};
use crate::oracle::{Catalog, Expect};
use crate::report::Outcome;
use crate::stats::{median, sorted};
use crate::trace::Recorder;
use crate::Opts;
use std::io::{BufRead, Write};
use std::time::{Duration, Instant};

const PROGRAMS: [&str; 2] = ["tiled_matmul", "tiled_two_index"];

/// One table cell and the digits it must reproduce.
struct Cell {
    program: usize,
    bindings: Vec<(String, u64)>,
    cache: u64,
    expect: u64,
    simulate: bool,
}

fn bind(syms: &[&str], values: &[u64]) -> Vec<(String, u64)> {
    syms.iter()
        .zip(values)
        .map(|(s, v)| (s.to_string(), *v))
        .collect()
}

/// Table 3 (tiled matmul) and Table 2 (tiled two-index) predictions with
/// the predicted digits of the paper (Table 3) and of EXPERIMENTS.md
/// (Table 2), then the Table 3 N=256 rows, whose exact simulation must
/// equal the model.
fn cells() -> Vec<Cell> {
    let t3 = ["Ni", "Nj", "Nk", "Ti", "Tj", "Tk"];
    let t2 = ["Ni", "Nj", "Nm", "Nn", "Ti", "Tj", "Tm", "Tn"];
    let table3: [([u64; 6], u64, u64); 6] = [
        ([512, 512, 512, 32, 32, 32], 8192, 8_650_752),
        ([512, 512, 512, 64, 64, 64], 8192, 6_291_456),
        ([512, 512, 512, 128, 128, 128], 8192, 136_314_880),
        ([256, 256, 256, 64, 32, 32], 2048, 1_310_720),
        ([256, 256, 256, 64, 64, 64], 2048, 17_301_504),
        ([256, 256, 256, 32, 64, 128], 2048, 17_170_432),
    ];
    let table2: [([u64; 8], u64, u64); 6] = [
        ([256, 256, 256, 256, 128, 64, 64, 128], 32768, 1_081_352),
        ([256, 256, 256, 256, 64, 128, 128, 64], 32768, 1_130_496),
        ([512, 512, 512, 512, 128, 128, 128, 128], 32768, 6_815_744),
        ([256, 256, 256, 256, 64, 64, 64, 128], 8192, 34_471_936),
        ([256, 256, 256, 256, 128, 64, 64, 128], 8192, 34_471_936),
        ([512, 256, 256, 512, 128, 64, 64, 128], 8192, 137_756_672),
    ];
    let row = |program, syms: &[&str], values: &[u64], cache, expect, simulate| Cell {
        program,
        bindings: bind(syms, values),
        cache,
        expect,
        simulate,
    };
    let mut cells: Vec<Cell> = table3
        .iter()
        .map(|(v, c, e)| row(0, &t3, v, *c, *e, false))
        .collect();
    cells.extend(table2.iter().map(|(v, c, e)| row(1, &t2, v, *c, *e, false)));
    cells.extend(
        table3[3..]
            .iter()
            .map(|(v, c, e)| row(0, &t3, v, *c, *e, true)),
    );
    cells
}

/// A cell's answer: the model's prediction, or the exact LRU simulation.
fn answer(
    cell: &Cell,
    program: &layers::Program,
    model: &MissModel,
    rec: Option<(&mut Recorder, &str)>,
) -> Result<u64, String> {
    let Some((rec, rid)) = rec else {
        return if cell.simulate {
            Ok(layers::simulate(&layers::compile(program, &cell.bindings)?, cell.cache).0)
        } else {
            layers::predict(model, &cell.bindings, cell.cache)
        };
    };
    if cell.simulate {
        let compiled = rec.timed("ir.compile", rid, || {
            layers::compile(program, &cell.bindings)
        })?;
        let (misses, accesses) = rec.timed("cachesim.replay", rid, || {
            layers::simulate(&compiled, cell.cache)
        });
        rec.count("cachesim.accesses", accesses as f64);
        Ok(misses)
    } else {
        rec.timed("core.predict", rid, || {
            layers::predict(model, &cell.bindings, cell.cache)
        })
    }
}

/// The child: build both models, say `ready`, then run one pass per `go`
/// line on stdin, answering `pass_ns value ns value ns …`.
pub fn child() -> Result<(), String> {
    let programs: Vec<_> = PROGRAMS.iter().map(|p| layers::builtin(p)).collect();
    let models: Vec<_> = programs.iter().map(layers::build_model).collect();
    let cells = cells();
    let mut stdout = std::io::stdout().lock();
    writeln!(stdout, "ready")
        .and_then(|()| stdout.flush())
        .map_err(|e| e.to_string())?;
    for line in std::io::stdin().lock().lines() {
        if line.map_err(|e| e.to_string())? != "go" {
            continue;
        }
        let started = Instant::now();
        let mut fields = Vec::new();
        for cell in &cells {
            let t = Instant::now();
            let value = answer(cell, &programs[cell.program], &models[cell.program], None)?;
            fields.push(format!("{value} {}", t.elapsed().as_nanos()));
        }
        writeln!(
            stdout,
            "{} {}",
            started.elapsed().as_nanos(),
            fields.join(" ")
        )
        .and_then(|()| stdout.flush())
        .map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn check(out: &mut Outcome, cells: &[Cell], values: &[u64]) {
    for (cell, v) in cells.iter().zip(values) {
        out.attempted += 1;
        if *v != cell.expect {
            out.failed += 1;
            let what = if cell.simulate {
                "simulated"
            } else {
                "predicted"
            };
            out.failures.push(format!(
                "{what} {:?}: {v}, expected {}",
                cell.bindings, cell.expect
            ));
        }
    }
}

pub fn run(opts: &Opts, seconds: f64, traced: bool, setups: usize) -> Result<Outcome, String> {
    if traced {
        return run_traced(opts);
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let spawn = || -> Result<(Proc, f64), String> {
        let started = Instant::now();
        let mut child = Proc::spawn(&exe, &["paper-child".to_string()])?;
        match child.read_line()?.as_str() {
            "ready" => Ok((child, started.elapsed().as_secs_f64())),
            other => Err(format!("paper child said `{other}`")),
        }
    };
    let mut setup_times = Vec::new();
    let mut child = None;
    for _ in 0..setups.max(1) {
        drop(child.take());
        let (c, t) = spawn()?;
        setup_times.push(t);
        child = Some(c);
    }
    let mut child = child.expect("at least one set-up");
    let cells = cells();
    let cpu_before = fleet::cpu_seconds(child.pid())?;
    let started = Instant::now();
    let (mut passes, mut latencies, mut out) = (Vec::new(), Vec::new(), Outcome::default());
    // Whole passes only, and one at least: start another only if it fits.
    while passes.is_empty() || started.elapsed().as_secs_f64() + median(&passes) <= seconds {
        let stdin = child.stdin.as_mut().expect("child stdin is piped");
        stdin
            .write_all(b"go\n")
            .and_then(|()| stdin.flush())
            .map_err(|e| e.to_string())?;
        let line = child.read_line()?;
        let nums: Vec<u64> = line
            .split_whitespace()
            .filter_map(|f| f.parse().ok())
            .collect();
        if nums.len() != 1 + 2 * cells.len() {
            return Err(format!("malformed pass `{line}`"));
        }
        passes.push(nums[0] as f64 / 1e9);
        let values: Vec<u64> = nums[1..].iter().step_by(2).copied().collect();
        latencies.extend(
            cells
                .iter()
                .zip(nums[2..].iter().step_by(2))
                .filter(|(cell, _)| cell.simulate)
                .map(|(_, ns)| *ns as f64 / 1e6),
        );
        check(&mut out, &cells, &values);
    }
    let cpu_used = fleet::cpu_seconds(child.pid())? - cpu_before;
    let rss = fleet::peak_rss_mb(child.pid())?;
    child.finish(Duration::from_secs(5));

    let pass = median(&passes);
    let ok = (out.attempted - out.failed) as f64;
    let simulations = latencies.len() as f64;
    out.set("throughput_rps", simulations / passes.iter().sum::<f64>());
    out.percentile("latency_p50_ms", &sorted(&latencies), 0.50, 1.0);
    out.percentile("latency_p99_ms", &sorted(&latencies), 0.99, 1.0);
    out.set("ok_ratio", ok / out.attempted.max(1) as f64);
    out.set("setup_s", median(&setup_times));
    out.counters.insert(
        "process.cpu_ms_per_req".into(),
        1000.0 * cpu_used / simulations,
    );
    out.set("peak_rss_mb", rss);
    out.set("pass_s", pass);
    out.correct = out.failed == 0;
    Ok(out)
}

/// Engine replays of each prediction line in a traced run.
const PREDICT_REPEATS: usize = 25;

/// Traced: the pass in-process with a span per layer call, plus the
/// prediction cells as `predict` requests through a fresh engine, with
/// and without span collection.
fn run_traced(opts: &Opts) -> Result<Outcome, String> {
    let cat = Catalog::new()?;
    let cells = cells();
    let mut out = Outcome::default();
    let predicts: Vec<(&Cell, String)> = cells
        .iter()
        .filter(|c| !c.simulate)
        .enumerate()
        .map(|(i, c)| {
            let spec = Spec::Predict(Query {
                prog: Prog::Builtin(PROGRAMS[c.program]),
                bindings: c.bindings.clone(),
                cache: c.cache,
            });
            (c, gen::render(&spec, i, &cat, false))
        })
        .collect();
    // Each prediction line goes through the engine `PREDICT_REPEATS` times:
    // one request takes microseconds, too little for one clock reading.
    let mut engine_pass = |traced: bool| -> Vec<f64> {
        let engine = layers::engine();
        predicts
            .iter()
            .cycle()
            .take(predicts.len() * PREDICT_REPEATS)
            .enumerate()
            .map(|(i, (cell, line))| {
                let rid = format!("p{i}");
                let _span = traced.then(|| layers::span("bench.request", &rid));
                let t = Instant::now();
                let reply = layers::handle_line(&engine, line);
                let elapsed = t.elapsed().as_secs_f64() * 1e6;
                let verdict =
                    layers::parse_json(&reply).and_then(|v| Expect::Misses(cell.expect).check(&v));
                out.attempted += 1;
                if let Err(e) = verdict {
                    out.failed += 1;
                    out.failures.push(format!("engine replay: {e}"));
                }
                elapsed
            })
            .collect()
    };
    // The first pass warms the process so the compared passes start alike.
    engine_pass(false);
    let plain = engine_pass(false);
    let collector = layers::trace_start();
    let traced = engine_pass(true);
    let mut rec = Recorder::default();
    let mut models = Vec::new();
    let mut values = Vec::new();
    let cpu_before = fleet::cpu_seconds(std::process::id())?;
    for (i, cell) in cells.iter().enumerate() {
        let rid = format!("c{i}");
        let _span = layers::span("bench.request", &rid);
        if models.is_empty() {
            for name in PROGRAMS {
                let program = layers::builtin(name);
                let model = rec.timed("core.build", &rid, || layers::build_model(&program));
                models.push((program, model));
            }
        }
        let (program, model) = &models[cell.program];
        values.push(answer(cell, program, model, Some((&mut rec, &rid)))?);
    }
    let cpu_used = fleet::cpu_seconds(std::process::id())? - cpu_before;
    layers::trace_stop();
    let simulations = cells.iter().filter(|c| c.simulate).count() as f64;
    out.set("process.cpu_ms_per_req", 1000.0 * cpu_used / simulations);
    check(&mut out, &cells, &values);
    rec.report(&mut out);
    out.set("engine.predict_us.p50", median(&plain));
    let (t_plain, t_traced) = (plain.iter().sum::<f64>(), traced.iter().sum::<f64>());
    out.set("trace.overhead_pct", 100.0 * (t_traced / t_plain - 1.0));
    crate::report::write_result(
        &opts.results,
        "trace-paper_tables.json",
        &layers::chrome_trace(&collector),
    )?;
    out.correct = out.failed == 0;
    Ok(out)
}
