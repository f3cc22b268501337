//! `sdlo-benchmark`: seeded end-to-end and per-layer benchmark of the
//! advisor daemon, the router and the paper pipeline. See README.md;
//! `run.sh` builds everything and calls this binary.
//!
//! ```text
//! sdlo-benchmark --bin-dir DIR --results DIR [--sha SHA] [--seed N]
//!                [--workload NAME [--seconds S] [--trace 0|1]]
//!                [--traced] [--smoke] [--repeat N]
//! sdlo-benchmark compare SET_A SET_B
//! ```

mod compare;
mod fleet;
mod gen;
mod layers;
mod load;
mod oracle;
mod paper;
mod report;
mod service;
mod stats;
mod trace;

use report::{Definition, Outcome};
use std::path::PathBuf;

/// The six workloads, in `BENCHMARK.json` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Interactive,
    Advise,
    ColdShapes,
    MixedOpen,
    Routed,
    PaperTables,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::Interactive,
        Workload::Advise,
        Workload::ColdShapes,
        Workload::MixedOpen,
        Workload::Routed,
        Workload::PaperTables,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Interactive => "interactive",
            Workload::Advise => "advise",
            Workload::ColdShapes => "cold_shapes",
            Workload::MixedOpen => "mixed_open",
            Workload::Routed => "routed",
            Workload::PaperTables => "paper_tables",
        }
    }

    /// Measured seconds per run in a full set.
    fn set_seconds(self) -> f64 {
        match self {
            Workload::Advise | Workload::MixedOpen => 20.0,
            Workload::PaperTables => 10.0,
            _ => 15.0,
        }
    }
}

/// Settings shared by every workload of one invocation.
pub struct Opts {
    pub seed: u64,
    /// Where `sdlo-service` and `sdlo-router` were built.
    pub bin_dir: PathBuf,
    /// Where result files and Chrome traces go.
    pub results: PathBuf,
}

/// Seconds per workload in `--smoke` mode.
const SMOKE_SECONDS: f64 = 2.0;
/// Fleets set up per untraced run (one in smoke mode); `setup_s` is the
/// median. A traced run uses one.
const SETUPS: usize = 3;

fn run(
    w: Workload,
    opts: &Opts,
    seconds: f64,
    traced: bool,
    setups: usize,
) -> Result<Outcome, String> {
    match w {
        Workload::PaperTables => paper::run(opts, seconds, traced, setups),
        _ => service::run(w, opts, seconds, traced, setups),
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: sdlo-benchmark --bin-dir DIR --results DIR [--sha SHA] [--seed N]\n\
         \x20                     [--workload NAME [--seconds S] [--trace 0|1]]\n\
         \x20                     [--traced] [--smoke] [--repeat N]\n\
         \x20      sdlo-benchmark compare SET_A SET_B"
    );
    std::process::exit(2);
}

struct Args {
    opts: Opts,
    sha: String,
    workload: Option<Workload>,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    repeat: usize,
}

fn parse_args(args: &[String]) -> Args {
    let mut a = Args {
        opts: Opts {
            seed: 42,
            bin_dir: PathBuf::new(),
            results: PathBuf::new(),
        },
        sha: "unknown".into(),
        workload: None,
        seconds: None,
        traced: false,
        smoke: false,
        repeat: 1,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--bin-dir" => a.opts.bin_dir = value().into(),
            "--results" => a.opts.results = value().into(),
            "--sha" => a.sha = value(),
            "--seed" => a.opts.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                a.seconds = Some(
                    value()
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s > 0.0)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--workload" => {
                let name = value();
                a.workload = Some(
                    *Workload::ALL
                        .iter()
                        .find(|w| w.name() == name)
                        .unwrap_or_else(|| usage()),
                );
            }
            "--trace" => {
                a.traced = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--traced" => a.traced = true,
            "--smoke" => a.smoke = true,
            "--repeat" => {
                a.repeat = value()
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .unwrap_or_else(|| usage())
            }
            _ => usage(),
        }
    }
    if a.opts.bin_dir.as_os_str().is_empty() || a.opts.results.as_os_str().is_empty() {
        usage();
    }
    a
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("paper-child") => paper::child().map(|()| 0),
        Some("compare") if args.len() == 3 => compare::run(&Definition::load(), &args[1], &args[2]),
        Some("compare") => usage(),
        _ => {
            let a = parse_args(&args);
            match a.workload {
                Some(w) => single(&a, w),
                None => set(&a),
            }
        }
    };
    match code {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("sdlo-benchmark: {e}");
            std::process::exit(2);
        }
    }
}

fn log_failures(w: Workload, out: &Outcome) {
    for f in out.failures.iter().take(8) {
        eprintln!("{}: {f}", w.name());
    }
}

/// One workload, one run: the metric lines, then the result line last.
fn single(a: &Args, w: Workload) -> Result<i32, String> {
    let def = Definition::load();
    let seconds = a.seconds.unwrap_or(w.set_seconds());
    let out = run(w, &a.opts, seconds, a.traced, SETUPS)?;
    let defs = if a.traced {
        &def.per_layer
    } else {
        &def.end_to_end
    };
    for line in report::human_lines(w.name(), &out, defs) {
        println!("{line}");
    }
    log_failures(w, &out);
    println!("{}", report::result_line(&out, defs));
    Ok(if out.correct { 0 } else { 1 })
}

/// Every workload, `--repeat` times; one result file per set.
fn set(a: &Args) -> Result<i32, String> {
    let def = Definition::load();
    let defs = if a.traced {
        &def.per_layer
    } else {
        &def.end_to_end
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = std::env::var("SDLO_BENCH_RUSTC").unwrap_or_else(|_| "unknown".into());
    let stem = format!(
        "{}-seed{}{}",
        a.sha,
        a.opts.seed,
        if a.traced { "-traced" } else { "" }
    );
    let mut all_correct = true;
    for _ in 0..a.repeat {
        let mut entries = Vec::new();
        for w in Workload::ALL {
            let seconds = if a.smoke {
                SMOKE_SECONDS
            } else {
                a.seconds.unwrap_or(w.set_seconds())
            };
            let setups = if a.smoke { 1 } else { SETUPS };
            let out = run(w, &a.opts, seconds, a.traced, setups)?;
            for line in report::human_lines(w.name(), &out, defs) {
                println!("{line}");
            }
            log_failures(w, &out);
            all_correct &= out.correct && out.failed == 0;
            let counters: Vec<String> = out
                .counters
                .iter()
                .map(|(k, v)| format!("{}:{}", report::quote(k), report::num(*v)))
                .collect();
            entries.push(format!(
                "{}:{{\"correct\":{},\"attempted\":{},\"failed\":{},\"seconds\":{},\"metrics\":{},\"counters\":{{{}}}}}",
                report::quote(w.name()),
                out.correct,
                out.attempted,
                out.failed,
                report::num(seconds),
                report::metrics_json(&out, defs),
                counters.join(",")
            ));
        }
        let k = (1..)
            .find(|k| !a.opts.results.join(format!("{stem}-{k}.json")).exists())
            .expect("a free result index");
        let doc = format!(
            "{{\"sha\":{},\"seed\":{},\"nproc\":{nproc},\"rustc\":{},\"traced\":{},\"smoke\":{},\"workloads\":{{{}}}}}\n",
            report::quote(&a.sha),
            a.opts.seed,
            report::quote(&rustc),
            a.traced,
            a.smoke,
            entries.join(",")
        );
        let name = format!("{stem}-{k}.json");
        report::write_result(&a.opts.results, &name, &doc)?;
        println!("wrote {}", a.opts.results.join(name).display());
    }
    Ok(if all_correct { 0 } else { 1 })
}
